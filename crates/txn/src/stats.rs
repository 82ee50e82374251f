//! Partition-engine counters and latency tracking.

use sstore_common::{PartitionId, RowMetrics};

/// Monotone counters for one partition.
#[derive(Debug, Clone, Default)]
pub struct PeStats {
    /// Which partition these counters belong to (p0 in the single-sited
    /// case; the cluster runtime assigns one id per worker).
    pub partition: PartitionId,
    /// Client→PE round trips (batch submissions, direct invocations, and —
    /// in H-Store mode — client polls). The quantity experiment E3a sweeps.
    pub client_pe_trips: u64,
    /// Committed transaction executions.
    pub committed: u64,
    /// TEs rolled back by a deliberate user abort.
    pub user_aborts: u64,
    /// TEs rolled back by engine errors.
    pub failed: u64,
    /// Downstream TEs scheduled by PE triggers.
    pub pe_trigger_firings: u64,
    /// Border batches submitted.
    pub batches_submitted: u64,
    /// Coalesced client submissions: groups of queued border batches for
    /// one procedure that entered the PE in a single scheduler pass
    /// (one client↔PE round trip for the whole group).
    pub group_submissions: u64,
    /// Border batches that arrived inside a coalesced group.
    pub batches_coalesced: u64,
    /// Automatic retention snapshots that failed (the policy retries at
    /// the next quiescent point; the command log still covers the state).
    pub retention_failures: u64,
    /// Batches whose entire workflow committed (acked for upstream backup).
    pub batches_completed: u64,
    /// Command-log records written.
    pub log_records: u64,
    /// Command-log fsyncs issued (group commit makes this < records).
    pub log_syncs: u64,
    /// Command-log records dropped by upstream-backup GC (acked batches
    /// already covered by a snapshot, removed at retention points).
    pub log_gc_dropped: u64,
    /// Retention snapshots written as full base images.
    pub snapshots_full: u64,
    /// Retention snapshots written as incremental deltas chained to the
    /// previous image (see `LogConfig::delta_chain_cap`).
    pub snapshots_delta: u64,
    /// 2PC fragments prepared on this partition (vote requested).
    pub twopc_prepares: u64,
    /// Prepared fragments that committed on the coordinator's decision.
    pub twopc_commits: u64,
    /// Prepared fragments rolled back (vote-no or coordinator abort).
    pub twopc_aborts: u64,
    /// In-doubt fragments aborted during recovery because neither the
    /// local log nor the coordinator's decision log had an outcome
    /// (presumed abort).
    pub twopc_in_doubt_aborts: u64,
    /// Batches this partition pushed onto cross-partition workflow edges.
    pub forwards_out: u64,
    /// Forwarded batches accepted (logged + executed) from other
    /// partitions.
    pub forwards_in: u64,
    /// Forwarded batches dropped as duplicates by the edge high-water
    /// check (exactly-once under replay/re-forwarding).
    pub forwards_deduped: u64,
    /// Sum of per-TE wall latencies, in nanoseconds (with `committed` this
    /// gives mean latency; the histogram gives the shape).
    pub latency_ns_total: u128,
    /// Power-of-two latency histogram: bucket i counts TEs with latency in
    /// `[2^i, 2^(i+1))` microseconds; bucket 0 is `< 2µs`.
    pub latency_hist: [u64; 24],
    /// Row sharing behaviour (shares vs deep copies vs COW breaks).
    /// **Process-wide**, not per-partition: the counters are global
    /// atomics, snapshotted when [`crate::Partition::stats`] is called.
    pub rows: RowMetrics,
}

impl PeStats {
    /// Record one TE latency.
    pub(crate) fn record_latency(&mut self, nanos: u128) {
        self.latency_ns_total += nanos;
        let micros = (nanos / 1_000) as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(self.latency_hist.len() - 1);
        self.latency_hist[bucket] += 1;
    }

    /// Mean committed-TE latency in microseconds (0 if none committed).
    pub fn mean_latency_us(&self) -> f64 {
        if self.committed == 0 {
            return 0.0;
        }
        self.latency_ns_total as f64 / self.committed as f64 / 1_000.0
    }

    /// Total TEs that finished (committed + aborted + failed).
    pub fn total_tes(&self) -> u64 {
        self.committed + self.user_aborts + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_recording() {
        let mut s = PeStats {
            committed: 2,
            ..PeStats::default()
        };
        s.record_latency(1_000); // 1µs -> bucket 0 region
        s.record_latency(3_000_000); // 3ms
        assert!(s.mean_latency_us() > 1000.0);
    }

    #[test]
    fn p99_empty_is_zero() {
        assert_eq!(PeStats::default().mean_latency_us(), 0.0);
    }

    #[test]
    fn totals() {
        let s = PeStats {
            committed: 5,
            user_aborts: 2,
            failed: 1,
            ..PeStats::default()
        };
        assert_eq!(s.total_tes(), 8);
    }
}
