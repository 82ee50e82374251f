//! Batch lifecycle tracing.
//!
//! Every batch admitted through the cluster front door is minted a
//! [`TraceCtx`] — a `Copy` pair of (trace id, submit timestamp) cheap
//! enough to thread through queues and worker messages. Each pipeline
//! [`Stage`] the batch passes (routed → queued → executed → logged →
//! fsynced → forwarded → acked, plus the 2PC prepare/decide pair) calls
//! [`record`], which does two O(1) things:
//!
//! 1. adds the **cumulative** latency since submit to that stage's
//!    process-wide [`Histogram`] (relaxed atomics — wait-free), and
//! 2. appends a timestamped [`TraceEvent`] to the calling thread's
//!    bounded [`Ring`] buffer (fixed memory, overwrite-oldest, no
//!    allocation).
//!
//! Because stage histograms record time-since-submit, the per-stage
//! p95s in a report read as a waterfall: `fsynced.p95 - executed.p95`
//! approximates the durability wait at the tail. Exact per-stage deltas
//! for individual batches come from the ring buffers: [`slowest_spans`]
//! stitches the buffered events back into per-trace timelines and
//! returns the K slowest.
//!
//! Tracing is on by default; `SSTORE_TRACE=off` (or `0`) disables it at
//! startup and [`set_enabled`] toggles it at runtime (used by the E9
//! bench to measure the overhead of the instrumentation itself).

use super::hist::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Monotonic clock
// ---------------------------------------------------------------------------

/// Nanoseconds since the process's first observability timestamp
/// (monotonic, never wall-clock — immune to NTP steps).
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// The identity a batch carries through the pipeline: a unique id and
/// the submit timestamp. 16 bytes, `Copy` — threading it through a
/// queue costs nothing beyond the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Unique per process, minted at submission.
    pub id: u64,
    /// [`now_ns`] at mint time.
    pub t0: u64,
}

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

impl TraceCtx {
    /// Mint a fresh trace at the current instant.
    pub fn mint() -> TraceCtx {
        TraceCtx {
            id: NEXT_TRACE.fetch_add(1, Ordering::Relaxed),
            t0: now_ns(),
        }
    }
}

/// The next trace id that will be minted. A report captures this at
/// baseline time and passes it as `min_id` to [`slowest_spans`] so only
/// traces born after the baseline appear.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// The pipeline stages a traced batch passes through. Each records the
/// cumulative time since submit when reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Router resolved the target partition and the batch entered the
    /// ingest queue.
    Routed,
    /// A worker dequeued the batch from its ingest queue.
    Queued,
    /// The batch's border record was appended to the command log.
    Logged,
    /// The transaction(s) for the batch finished executing.
    Executed,
    /// The group-commit fsync covering the batch's record completed.
    Fsynced,
    /// 2PC only: the participant's yes-vote was made durable.
    Prepared,
    /// 2PC only: the coordinator's decision was applied here.
    Decided,
    /// A cross-partition forward for the batch left the sending
    /// partition (picked up by the forward hub).
    Forwarded,
    /// The receiving partition durably logged the forward and the edge
    /// ack released the upstream backup.
    Acked,
}

/// Every stage, in pipeline order (the order reports list them in).
pub const STAGES: [Stage; 9] = [
    Stage::Routed,
    Stage::Queued,
    Stage::Logged,
    Stage::Executed,
    Stage::Fsynced,
    Stage::Prepared,
    Stage::Decided,
    Stage::Forwarded,
    Stage::Acked,
];

impl Stage {
    /// Stable lowercase name (report keys, log lines).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Routed => "routed",
            Stage::Queued => "queued",
            Stage::Logged => "logged",
            Stage::Executed => "executed",
            Stage::Fsynced => "fsynced",
            Stage::Prepared => "prepared",
            Stage::Decided => "decided",
            Stage::Forwarded => "forwarded",
            Stage::Acked => "acked",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Stage::Routed => 0,
            Stage::Queued => 1,
            Stage::Logged => 2,
            Stage::Executed => 3,
            Stage::Fsynced => 4,
            Stage::Prepared => 5,
            Stage::Decided => 6,
            Stage::Forwarded => 7,
            Stage::Acked => 8,
        }
    }
}

static STAGE_HISTS: LazyLock<[Histogram; STAGES.len()]> =
    LazyLock::new(|| std::array::from_fn(|_| Histogram::new()));

// ---------------------------------------------------------------------------
// Enable/disable
// ---------------------------------------------------------------------------

static ENABLED: LazyLock<AtomicBool> = LazyLock::new(|| {
    let off = std::env::var("SSTORE_TRACE")
        .map(|v| v.eq_ignore_ascii_case("off") || v == "0")
        .unwrap_or(false);
    AtomicBool::new(!off)
});

/// Whether stage recording is active.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn stage recording on or off at runtime (benchmarks use this to
/// measure tracing overhead; `SSTORE_TRACE=off` sets the initial state).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Record that `trace` reached `stage` now: cumulative latency into the
/// stage histogram, timestamped event into this thread's ring buffer.
/// Wait-free and allocation-free; a no-op when tracing is disabled.
#[inline]
pub fn record(stage: Stage, trace: TraceCtx) {
    if !enabled() {
        return;
    }
    let now = now_ns();
    STAGE_HISTS[stage.index()].record(now.saturating_sub(trace.t0));
    with_ring(|ring| {
        ring.push(TraceEvent {
            trace: trace.id,
            stage,
            at_ns: now,
        })
    });
}

/// Snapshot one stage's cumulative-latency histogram.
pub fn stage_snapshot(stage: Stage) -> HistogramSnapshot {
    STAGE_HISTS[stage.index()].snapshot()
}

// ---------------------------------------------------------------------------
// Ring buffers
// ---------------------------------------------------------------------------

/// One recorded stage passage. 24 bytes, `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The batch's trace id.
    pub trace: u64,
    /// Which stage was reached.
    pub stage: Stage,
    /// [`now_ns`] when it was reached.
    pub at_ns: u64,
}

/// A bounded ring of [`TraceEvent`]s: fixed capacity allocated up
/// front, overwrite-oldest when full. Pushing never allocates.
pub struct Ring {
    buf: Vec<TraceEvent>,
    /// Next write position (wraps at capacity once full).
    next: usize,
    /// Events discarded because the ring was full.
    overwrites: u64,
    cap: usize,
}

impl Ring {
    /// A ring holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Ring {
        let cap = cap.max(1);
        Ring {
            buf: Vec::with_capacity(cap),
            next: 0,
            overwrites: 0,
            cap,
        }
    }

    /// Append an event, overwriting the oldest once the ring is full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.overwrites += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.cap {
            self.buf.clone()
        } else {
            let (tail, head) = self.buf.split_at(self.next);
            head.iter().chain(tail).copied().collect()
        }
    }

    /// How many events have been overwritten (lost) so far.
    pub fn overwrites(&self) -> u64 {
        self.overwrites
    }
}

/// Per-thread ring capacity: `SSTORE_TRACE_RING` (events), default 4096
/// (~96 KiB per recording thread).
fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("SSTORE_TRACE_RING")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&c| c > 0)
            .unwrap_or(4096)
    })
}

/// Every thread's ring, registered on that thread's first record. The
/// mutex per ring is uncontended except while a report is collecting.
static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

fn with_ring(f: impl FnOnce(&mut Ring)) {
    thread_local! {
        static RING: Arc<Mutex<Ring>> = {
            let ring = Arc::new(Mutex::new(Ring::new(ring_capacity())));
            RINGS.lock().expect("obs rings poisoned").push(Arc::clone(&ring));
            ring
        };
    }
    RING.with(|ring| f(&mut ring.lock().expect("obs ring poisoned")));
}

/// Copy out every thread's buffered events (and the total overwrite
/// count), oldest-first per thread.
pub fn collect_events() -> (Vec<TraceEvent>, u64) {
    let rings = RINGS.lock().expect("obs rings poisoned");
    let mut events = Vec::new();
    let mut overwrites = 0;
    for ring in rings.iter() {
        let ring = ring.lock().expect("obs ring poisoned");
        events.extend(ring.events());
        overwrites += ring.overwrites();
    }
    (events, overwrites)
}

// ---------------------------------------------------------------------------
// Trace spans (report-time reconstruction)
// ---------------------------------------------------------------------------

/// One stage passage inside a [`TraceSpan`], as an offset from the
/// span's first buffered event.
#[derive(Debug, Clone)]
pub struct SpanStage {
    /// Stage name (see [`Stage::name`]).
    pub stage: String,
    /// Microseconds after the span's first event.
    pub at_us: f64,
}

/// A reconstructed per-batch timeline: every stage event buffered for
/// one trace id, ordered by time.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// The batch's trace id.
    pub trace: u64,
    /// First-to-last event duration, µs.
    pub total_us: f64,
    /// The stage passages, in time order.
    pub stages: Vec<SpanStage>,
}

/// Stitch the ring buffers back into per-trace timelines and return the
/// `k` slowest (by first-to-last duration), slowest first. Only traces
/// whose events survived in some ring appear; with default ring sizes
/// that covers the most recent few thousand batches per thread.
pub fn slowest_spans(k: usize, min_id: u64) -> Vec<TraceSpan> {
    let (mut events, _) = collect_events();
    events.retain(|e| e.trace >= min_id);
    events.sort_by_key(|e| (e.trace, e.at_ns));
    let mut spans: Vec<TraceSpan> = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let trace = events[i].trace;
        let mut j = i;
        while j < events.len() && events[j].trace == trace {
            j += 1;
        }
        let t_first = events[i].at_ns;
        let t_last = events[j - 1].at_ns;
        spans.push(TraceSpan {
            trace,
            total_us: (t_last - t_first) as f64 / 1_000.0,
            stages: events[i..j]
                .iter()
                .map(|e| SpanStage {
                    stage: e.stage.name().to_string(),
                    at_us: (e.at_ns - t_first) as f64 / 1_000.0,
                })
                .collect(),
        });
        i = j;
    }
    spans.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
    spans.truncate(k);
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, at_ns: u64) -> TraceEvent {
        TraceEvent {
            trace,
            stage: Stage::Routed,
            at_ns,
        }
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut r = Ring::new(4);
        for t in 1..=4 {
            r.push(ev(t, t * 10));
        }
        assert_eq!(r.overwrites(), 0);
        assert_eq!(
            r.events().iter().map(|e| e.trace).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        // Two more: 1 and 2 (the oldest) fall out, order stays oldest-first.
        r.push(ev(5, 50));
        r.push(ev(6, 60));
        assert_eq!(r.overwrites(), 2);
        assert_eq!(
            r.events().iter().map(|e| e.trace).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
    }

    #[test]
    fn ring_push_never_reallocates() {
        let mut r = Ring::new(8);
        let cap_before = r.buf.capacity();
        for t in 0..100 {
            r.push(ev(t, t));
        }
        assert_eq!(r.buf.capacity(), cap_before, "push must not reallocate");
        assert_eq!(r.events().len(), 8);
        assert_eq!(r.overwrites(), 92);
    }

    #[test]
    fn trace_ids_are_unique_and_t0_monotone() {
        let a = TraceCtx::mint();
        let b = TraceCtx::mint();
        assert_ne!(a.id, b.id);
        assert!(b.t0 >= a.t0);
    }

    #[test]
    fn record_lands_in_stage_histogram_and_ring() {
        let t = TraceCtx::mint();
        let before = stage_snapshot(Stage::Decided).count();
        record(Stage::Decided, t);
        assert_eq!(stage_snapshot(Stage::Decided).count(), before + 1);
        let (events, _) = collect_events();
        assert!(events.iter().any(|e| e.trace == t.id));
    }

    #[test]
    fn slowest_spans_orders_by_duration() {
        // Record two synthetic traces through this thread's ring.
        let slow = TraceCtx::mint();
        let fast = TraceCtx::mint();
        record(Stage::Routed, slow);
        record(Stage::Routed, fast);
        record(Stage::Executed, fast);
        std::thread::sleep(std::time::Duration::from_millis(2));
        record(Stage::Executed, slow);
        let spans = slowest_spans(2, slow.id.min(fast.id));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].trace, slow.id, "slowest first");
        assert!(spans[0].total_us >= spans[1].total_us);
        assert_eq!(spans[0].stages.len(), 2);
        assert_eq!(spans[0].stages[0].stage, "routed");
        assert_eq!(spans[0].stages[0].at_us, 0.0);
    }
}
