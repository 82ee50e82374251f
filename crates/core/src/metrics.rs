//! Per-partition and cluster-wide counters for dashboards, benches, and
//! the observability report ([`crate::Cluster::observability_report`]
//! embeds a [`ClusterMetrics`] capture verbatim, so both surfaces share
//! one set of definitions). Throughput is derived in the report
//! (`committed_per_s` over the report window) rather than kept as a
//! separate stopwatch type.

use crate::cluster::PartitionHealth;
use crate::coordinator::CoordStats;
use sstore_common::{PartitionId, RowMetrics};

/// Point-in-time counters for one partition, captured on its worker
/// thread by [`crate::Cluster::metrics`] (so the numbers are consistent
/// with everything queued before the capture).
#[derive(Debug, Clone, Default)]
pub struct PartitionMetrics {
    /// The site these counters belong to.
    pub partition: PartitionId,
    /// Committed TEs.
    pub committed: u64,
    /// Border batches submitted to this partition.
    pub batches_submitted: u64,
    /// Batches whose whole workflow committed.
    pub batches_completed: u64,
    /// Coalesced scheduler passes (several queued batches, one PE entry).
    pub group_submissions: u64,
    /// Border batches that arrived inside a coalesced group.
    pub batches_coalesced: u64,
    /// Client↔PE round trips charged.
    pub client_pe_trips: u64,
    /// 2PC fragments prepared on this partition.
    pub twopc_prepares: u64,
    /// Prepared fragments committed on the coordinator's decision.
    pub twopc_commits: u64,
    /// Prepared fragments rolled back.
    pub twopc_aborts: u64,
    /// Batches pushed onto cross-partition workflow edges.
    pub forwards_out: u64,
    /// Forwarded batches accepted from other partitions.
    pub forwards_in: u64,
    /// Forwarded batches dropped as duplicates (exactly-once dedup).
    pub forwards_deduped: u64,
    /// Single-partition TEs executed speculatively while a prepared 2PC
    /// fragment awaited its decision.
    pub speculative_tes: u64,
    /// Retention snapshots written as full base images.
    pub snapshots_full: u64,
    /// Retention snapshots written as incremental deltas.
    pub snapshots_delta: u64,
    /// Mean committed-TE latency in microseconds.
    pub mean_latency_us: f64,
    /// False when the capture job could not run (the partition's worker
    /// is down or restarting): every counter above is zero, not a
    /// measurement.
    pub available: bool,
}

impl PartitionMetrics {
    /// Placeholder for a partition whose worker could not answer the
    /// capture (down or restarting): all-zero counters, `available:
    /// false`.
    pub fn unavailable(partition: PartitionId) -> PartitionMetrics {
        PartitionMetrics {
            partition,
            ..PartitionMetrics::default()
        }
    }

    /// Snapshot a partition's counters.
    pub fn capture(p: &sstore_txn::Partition) -> PartitionMetrics {
        let s = p.stats();
        PartitionMetrics {
            partition: s.partition,
            committed: s.committed,
            batches_submitted: s.batches_submitted,
            batches_completed: s.batches_completed,
            group_submissions: s.group_submissions,
            batches_coalesced: s.batches_coalesced,
            client_pe_trips: s.client_pe_trips,
            twopc_prepares: s.twopc_prepares,
            twopc_commits: s.twopc_commits,
            twopc_aborts: s.twopc_aborts,
            forwards_out: s.forwards_out,
            forwards_in: s.forwards_in,
            forwards_deduped: s.forwards_deduped,
            speculative_tes: s.speculative_tes,
            snapshots_full: s.snapshots_full,
            snapshots_delta: s.snapshots_delta,
            mean_latency_us: s.mean_latency_us(),
            available: true,
        }
    }
}

/// Cluster-wide view: one [`PartitionMetrics`] per site, in partition
/// order, plus the process-wide row-sharing counters.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Per-partition captures.
    pub partitions: Vec<PartitionMetrics>,
    /// Row pipeline behaviour (shares vs deep copies vs COW breaks) at
    /// capture time. Process-wide: the counters are global atomics, so
    /// they cover every partition worker in this process.
    pub rows: RowMetrics,
    /// The transaction coordinator's counters (fast-path vs 2PC).
    pub coordinator: CoordStats,
    /// Supervision state of each partition worker, in partition order.
    pub health: Vec<PartitionHealth>,
    /// Submissions refused by admission control (`try_submit_batch_async`
    /// on a full queue) over the cluster's lifetime.
    pub sheds: u64,
    /// Supervised worker restarts over the cluster's lifetime.
    pub worker_restarts: u64,
}

impl ClusterMetrics {
    /// Sum of committed TEs across partitions.
    pub fn total_committed(&self) -> u64 {
        self.partitions.iter().map(|p| p.committed).sum()
    }

    /// Sum of cross-partition edge forwards accepted, cluster-wide.
    pub fn total_forwards(&self) -> u64 {
        self.partitions.iter().map(|p| p.forwards_in).sum()
    }

    /// Border batches that entered the PE inside a coalesced group,
    /// cluster-wide — the PE-boundary round trips the runtime saved.
    pub fn total_coalesced(&self) -> u64 {
        self.partitions.iter().map(|p| p.batches_coalesced).sum()
    }

    /// Load imbalance: max per-partition committed TEs over the mean
    /// (1.0 = perfectly even; meaningful only after some commits).
    ///
    /// Only **available** captures participate: a partition whose worker
    /// was down at capture time contributes an all-zero placeholder, and
    /// counting those zeros into the mean would report skew where the
    /// live partitions are actually balanced.
    pub fn skew(&self) -> f64 {
        let live: Vec<u64> = self
            .partitions
            .iter()
            .filter(|p| p.available)
            .map(|p| p.committed)
            .collect();
        let total: u64 = live.iter().sum();
        if total == 0 || live.is_empty() {
            return 1.0;
        }
        let max = *live.iter().max().expect("non-empty");
        let mean = total as f64 / live.len() as f64;
        max as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_metrics_aggregate() {
        let pm = |partition, committed, coalesced| PartitionMetrics {
            partition: PartitionId::new(partition),
            committed,
            batches_submitted: 0,
            batches_completed: 0,
            group_submissions: 0,
            batches_coalesced: coalesced,
            client_pe_trips: 0,
            twopc_prepares: 0,
            twopc_commits: 0,
            twopc_aborts: 0,
            forwards_out: 0,
            forwards_in: 2,
            forwards_deduped: 0,
            speculative_tes: 0,
            snapshots_full: 0,
            snapshots_delta: 0,
            mean_latency_us: 0.0,
            available: true,
        };
        let m = ClusterMetrics {
            partitions: vec![pm(0, 30, 4), pm(1, 10, 0)],
            rows: RowMetrics::snapshot(),
            coordinator: CoordStats::default(),
            health: vec![PartitionHealth::Healthy; 2],
            sheds: 0,
            worker_restarts: 0,
        };
        assert_eq!(m.total_committed(), 40);
        assert_eq!(m.total_coalesced(), 4);
        assert_eq!(m.total_forwards(), 4);
        assert!((m.skew() - 1.5).abs() < 1e-9);
        let empty = ClusterMetrics {
            partitions: vec![],
            rows: RowMetrics::snapshot(),
            coordinator: CoordStats::default(),
            health: vec![],
            sheds: 0,
            worker_restarts: 0,
        };
        assert_eq!(empty.skew(), 1.0);
        let ghost = PartitionMetrics::unavailable(PartitionId::new(3));
        assert!(!ghost.available);
        assert_eq!(ghost.committed, 0);
    }

    #[test]
    fn skew_ignores_unavailable_placeholders() {
        let pm = |partition, committed| PartitionMetrics {
            committed,
            ..PartitionMetrics::unavailable(PartitionId::new(partition))
        };
        let mut balanced_with_ghost = ClusterMetrics {
            partitions: vec![pm(0, 20), pm(1, 20), pm(2, 0)],
            rows: RowMetrics::snapshot(),
            coordinator: CoordStats::default(),
            health: vec![
                PartitionHealth::Healthy,
                PartitionHealth::Healthy,
                PartitionHealth::Down,
            ],
            sheds: 0,
            worker_restarts: 0,
        };
        balanced_with_ghost.partitions[0].available = true;
        balanced_with_ghost.partitions[1].available = true;
        // Two live partitions at 20 each: perfectly even, regardless of
        // the down partition's zero placeholder.
        assert!((balanced_with_ghost.skew() - 1.0).abs() < 1e-9);
    }
}
