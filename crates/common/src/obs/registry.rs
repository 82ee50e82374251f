//! Process-wide lock-free metrics registry.
//!
//! # Registry API
//!
//! Metrics are named, process-global, and created on first use:
//!
//! ```
//! use sstore_common::obs;
//!
//! let submitted = obs::counter("ingest.submitted");
//! submitted.add(1); // relaxed atomic, sharded — safe on hot paths
//!
//! let depth = obs::gauge("queue.depth");
//! depth.set(17);
//!
//! let lat = obs::histogram("recovery.log_replay");
//! lat.record(1_250_000); // nanoseconds
//!
//! let snap = obs::registry_snapshot();
//! assert!(snap.counters["ingest.submitted"] >= 1);
//! ```
//!
//! Creation (`counter`/`gauge`/`histogram`) takes a registry lock and is
//! the **cold** path: call it once and keep the returned [`Arc`] (or a
//! `LazyLock` of it). The returned handles record through relaxed
//! atomics only — no locks, no allocation — so the **hot** path is
//! wait-free. [`Counter`]s shard their cells across cache lines keyed by
//! thread identity, so concurrent increments from worker threads do not
//! false-share. [`registry_snapshot`] walks every registered metric and
//! returns plain maps, suitable for serialization.

use super::hist::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shards per counter: enough that each core of a typical worker pool
/// lands on its own cache line with high probability.
const SHARDS: usize = 8;

/// One cache line per shard so increments from different threads never
/// false-share (same idiom as the `RowMetrics` counters).
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// A monotone counter sharded across cache-line-padded cells. `add` is
/// a single relaxed `fetch_add` on the calling thread's shard; `get`
/// sums the shards (reads may briefly lag concurrent writers, which is
/// fine for reporting).
#[derive(Default)]
pub struct Counter {
    shards: [PaddedCell; SHARDS],
}

impl Counter {
    /// Increment by `n` on this thread's shard. Wait-free.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one. Wait-free.
    #[inline]
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Sum of all shards.
    pub(crate) fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// The calling thread's shard: a hash of its `ThreadId` so long-lived
/// worker threads spread across the cells.
#[inline]
fn shard_index() -> usize {
    use std::hash::BuildHasher;
    thread_local! {
        static SHARD: usize = std::hash::RandomState::new()
            .hash_one(std::thread::current().id()) as usize
            % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A point-in-time signed value (queue depths, in-flight counts).
/// All operations are single relaxed atomics.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One named slot per metric kind. Registration order is irrelevant —
/// snapshots sort by name.
struct Slots<T> {
    slots: Mutex<Vec<(String, Arc<T>)>>,
}

impl<T: Default> Slots<T> {
    const fn new() -> Slots<T> {
        Slots {
            slots: Mutex::new(Vec::new()),
        }
    }

    fn get_or_register(&self, name: &str) -> Arc<T> {
        let mut slots = self.slots.lock().expect("obs registry poisoned");
        if let Some((_, m)) = slots.iter().find(|(n, _)| n == name) {
            return Arc::clone(m);
        }
        let m = Arc::new(T::default());
        slots.push((name.to_string(), Arc::clone(&m)));
        m
    }

    fn for_each(&self, mut f: impl FnMut(&str, &T)) {
        let slots = self.slots.lock().expect("obs registry poisoned");
        for (name, m) in slots.iter() {
            f(name, m);
        }
    }
}

static COUNTERS: Slots<Counter> = Slots::new();
static GAUGES: Slots<Gauge> = Slots::new();
static HISTOGRAMS: Slots<Histogram> = Slots::new();

/// Get or create the process-wide counter named `name`. Cold path —
/// cache the returned handle.
pub fn counter(name: &str) -> Arc<Counter> {
    COUNTERS.get_or_register(name)
}

/// Get or create the process-wide gauge named `name`. Cold path —
/// cache the returned handle.
pub fn gauge(name: &str) -> Arc<Gauge> {
    GAUGES.get_or_register(name)
}

/// Get or create the process-wide histogram named `name` (values are
/// nanoseconds by convention). Cold path — cache the returned handle.
pub fn histogram(name: &str) -> Arc<Histogram> {
    HISTOGRAMS.get_or_register(name)
}

/// Record `elapsed` nanoseconds of a named phase: shorthand for
/// `histogram(name).record(..)` on cold paths (recovery phases, restarts)
/// where caching the handle buys nothing.
pub fn record_phase_ns(name: &str, elapsed_ns: u64) {
    histogram(name).record(elapsed_ns);
}

/// Time a closure and record its wall-clock duration under `name`.
/// Returns the closure's result unchanged (works for `Result` too).
pub fn timed_phase<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let start = std::time::Instant::now();
    let out = f();
    record_phase_ns(name, start.elapsed().as_nanos() as u64);
    out
}

/// A plain-data copy of every registered metric, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Named latency histograms (e.g. recovery phases).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Snapshot every registered counter, gauge, and named histogram.
pub fn registry_snapshot() -> RegistrySnapshot {
    let mut snap = RegistrySnapshot::default();
    COUNTERS.for_each(|name, c| {
        snap.counters.insert(name.to_string(), c.get());
    });
    GAUGES.for_each(|name, g| {
        snap.gauges.insert(name.to_string(), g.get());
    });
    HISTOGRAMS.for_each(|name, h| {
        snap.histograms.insert(name.to_string(), h.snapshot());
    });
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = counter("test.registry.threads");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        c.inc();
                    }
                });
            }
        });
        assert!(c.get() >= 4_000);
        let again = counter("test.registry.threads");
        assert_eq!(again.get(), c.get(), "same name, same counter");
    }

    #[test]
    fn gauge_set_get() {
        let g = gauge("test.registry.gauge");
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn snapshot_contains_registered_names() {
        counter("test.registry.snap_c").add(2);
        gauge("test.registry.snap_g").set(-1);
        histogram("test.registry.snap_h").record(500);
        let snap = registry_snapshot();
        assert!(snap.counters["test.registry.snap_c"] >= 2);
        assert_eq!(snap.gauges["test.registry.snap_g"], -1);
        assert!(snap.histograms["test.registry.snap_h"].count() >= 1);
    }

    #[test]
    fn timed_phase_records_and_passes_through() {
        let out = timed_phase("test.registry.phase", || 41 + 1);
        assert_eq!(out, 42);
        assert!(histogram("test.registry.phase").snapshot().count() >= 1);
    }
}
