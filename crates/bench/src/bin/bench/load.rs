//! Load generation against a [`Cluster`]. The host has two cores and the
//! cluster workloads run two partition workers, so the generator is
//! exactly two threads: the caller paces and submits, and one waiter
//! resolves tickets ([`Ticket::wait`] consumes the ticket, so somebody
//! has to sit on it).
//!
//! * [`closed_loop`] keeps a fixed number of operations in flight: the
//!   next is sent only when one completes, so a slower system receives
//!   less load.
//! * [`open_loop`] submits on a schedule whatever the system does, times
//!   every operation **from when it was due**, and reports how late the
//!   generator itself ran.

use crate::stats::median;
use sstore_common::{Result, Row};
use sstore_core::{Cluster, Ticket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What a closed-loop phase measured. Times are ns since the phase began.
#[derive(Debug, Default)]
pub struct ClosedStats {
    /// Completion time of each operation, in completion order.
    pub done_at_ns: Vec<u64>,
    /// Latency of each successful operation, submit call to resolution.
    pub latency_ns: Vec<u64>,
    /// `(start, end)` of each submit call on the generator thread.
    pub submits: Vec<(u64, u64)>,
    /// `(op, start, end)` of each wait on the waiter thread.
    pub waits: Vec<(u64, u64, u64)>,
    /// Operations whose submit or wait returned an error.
    pub failed: u64,
    /// Phase wall time, including the `finish` step.
    pub wall_ns: u64,
}

/// Run `n_ops` operations with at most `window` (≥ 2) in flight. `submit`
/// issues operation `i` and returns its tickets (an operation is done
/// when all of them resolve); `finish` runs after the last resolution
/// and inside the timed wall (`Cluster::quiesce` for workloads whose
/// work outlives the ticket).
pub fn closed_loop(
    n_ops: usize,
    window: usize,
    mut submit: impl FnMut(usize) -> Result<Vec<Ticket>>,
    finish: impl FnOnce() -> Result<()>,
) -> ClosedStats {
    assert!(window >= 2 && n_ops >= 1);
    // In flight at most: one the waiter sits on, `window - 2` in the
    // channel, and one the generator has submitted and is blocked sending.
    let (tx, rx) = mpsc::sync_channel::<(u64, u64, Result<Vec<Ticket>>)>(window - 2);
    let t0 = Instant::now();
    let now = move || t0.elapsed().as_nanos() as u64;
    let mut stats = ClosedStats::default();
    std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut w = ClosedStats::default();
            for (op, started, tickets) in rx {
                let wait_start = now();
                let ok = match tickets {
                    Ok(tickets) => tickets.into_iter().all(|t| t.wait().is_ok()),
                    Err(_) => false,
                };
                let end = now();
                w.waits.push((op, wait_start, end));
                w.done_at_ns.push(end);
                if ok {
                    w.latency_ns.push(end - started);
                } else {
                    w.failed += 1;
                }
            }
            w
        });
        for i in 0..n_ops {
            let started = now();
            let tickets = submit(i);
            stats.submits.push((started, now()));
            tx.send((i as u64, started, tickets)).expect("waiter alive");
        }
        drop(tx);
        let w = waiter.join().expect("waiter thread");
        stats.done_at_ns = w.done_at_ns;
        stats.latency_ns = w.latency_ns;
        stats.waits = w.waits;
        stats.failed = w.failed;
    });
    if finish().is_err() {
        stats.failed += 1;
    }
    stats.wall_ns = now();
    stats
}

/// Throughput in ops/s as the median over `segments` equal runs of
/// consecutive completions — steadier than ops / wall, which one stall
/// anywhere in the phase moves.
pub fn segment_throughput(done_at_ns: &[u64], segments: usize) -> f64 {
    let n = done_at_ns.len();
    let segments = segments.min(n).max(1);
    let mut rates = Vec::with_capacity(segments);
    let mut prev_end = 0usize;
    let mut prev_t = 0u64;
    for k in 1..=segments {
        let end = k * n / segments;
        let t = done_at_ns[end - 1];
        let ops = (end - prev_end) as f64;
        rates.push(ops / ((t - prev_t).max(1) as f64 / 1e9));
        prev_end = end;
        prev_t = t;
    }
    median(&rates)
}

/// What an open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenStats {
    /// Operations the schedule called for.
    pub attempted: u64,
    /// Latency of each admitted, successful operation, **from its due
    /// time** to ticket resolution.
    pub latency_ns: Vec<u64>,
    /// How late the generator submitted each operation.
    pub lateness_ns: Vec<u64>,
    /// Submissions refused by admission control.
    pub sheds: u64,
    /// Submissions or waits that failed any other way.
    pub errors: u64,
    /// Median number of operations outstanding over the first half of
    /// the schedule, sampled at every submission.
    pub backlog_early: f64,
    /// The same over the second half. Medians, because a single sample
    /// taken during a retention snapshot reads a stall as a backlog.
    pub backlog_late: f64,
}

/// Sleep, then spin, until `deadline`: a sleeping generator leaves the
/// cores to the workers, the final spin keeps it on schedule.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Offer `n_ops` batches of `proc` at `rate` ops/s through
/// `try_submit_batch_async`: a refused batch is dropped, never retried.
/// Operation `i` uses `pool[i % pool.len()]`.
pub fn open_loop(
    cluster: &Cluster,
    proc: &str,
    pool: &[Vec<Row>],
    rate: f64,
    n_ops: usize,
) -> OpenStats {
    let (tx, rx) = mpsc::channel::<(Instant, Ticket)>();
    let completed = AtomicU64::new(0);
    let mut stats = OpenStats {
        attempted: n_ops as u64,
        ..OpenStats::default()
    };
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let completed = &completed;
        let waiter = s.spawn(move || {
            let mut latency = Vec::new();
            let mut errors = 0u64;
            for (due, ticket) in rx {
                match ticket.wait() {
                    Ok(_) => latency.push(due.elapsed().as_nanos() as u64),
                    Err(_) => errors += 1,
                }
                completed.fetch_add(1, Ordering::Relaxed);
            }
            (latency, errors)
        });
        let mut admitted = 0u64;
        let mut backlog = Vec::with_capacity(n_ops);
        for i in 0..n_ops {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            wait_until(due);
            stats
                .lateness_ns
                .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            match cluster.try_submit_batch_async(proc, pool[i % pool.len()].clone()) {
                Ok(ticket) => {
                    admitted += 1;
                    tx.send((due, ticket)).expect("waiter alive");
                }
                Err(e) if e.kind() == "overloaded" => stats.sheds += 1,
                Err(_) => stats.errors += 1,
            }
            backlog.push((admitted - completed.load(Ordering::Relaxed)) as f64);
        }
        let (early, late) = backlog.split_at(n_ops / 2);
        stats.backlog_early = median(early);
        stats.backlog_late = median(late);
        drop(tx);
        let (latency, errors) = waiter.join().expect("waiter thread");
        stats.latency_ns = latency;
        stats.errors += errors;
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_throughput_is_the_median_segment_rate() {
        // Ten completions, one per 100 ms, except a 1 s stall before the
        // last: four segments run at 10 ops/s, one at ~1.8 ops/s.
        let mut t: Vec<u64> = (1..=9).map(|i| i * 100_000_000).collect();
        t.push(1_900_000_000);
        let rate = segment_throughput(&t, 5);
        assert!((rate - 10.0).abs() < 1e-9, "got {rate}");
        assert!((segment_throughput(&[500_000_000], 5) - 2.0).abs() < 1e-9);
    }
}
