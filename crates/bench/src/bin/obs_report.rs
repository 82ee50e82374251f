//! CI observability smoke: run a short mixed workload on a durable
//! two-partition cluster with a cross-partition edge, emit the full
//! telemetry export to `target/OBS_report.json`, and validate it —
//! schema keys present, and the stage histogram counts reconcile with the
//! batches the run actually submitted. Exits non-zero (panics) on any
//! violation.
//!
//! Usage: `cargo run -p sstore-bench --bin obs_report`

use sstore_core::workloads::{
    count_events_rows, deploy_count_events, deploy_two_stage, two_stage_rows, TWO_STAGE_EDGES,
};
use sstore_core::{Cluster, RouteSpec, SStore, SStoreBuilder};

const STAGE_KEYS: [&str; 9] = [
    "routed",
    "queued",
    "logged",
    "executed",
    "fsynced",
    "prepared",
    "decided",
    "forwarded",
    "acked",
];

fn deploy_both(db: &mut SStore) -> sstore_core::common::Result<()> {
    deploy_count_events(db)?;
    deploy_two_stage(db)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("sstore-obs-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let cluster = Cluster::with_edges(
        2,
        RouteSpec::hash(0),
        64,
        &SStoreBuilder::new().durability(&dir, 2),
        deploy_both,
        TWO_STAGE_EDGES,
    )
    .expect("cluster");

    // Mixed traffic: plain partitioned ingest plus a two-stage workflow
    // whose hand_off edge exercises the forwarded/acked stages.
    let mut submissions = 0u64;
    let mut shards = 0u64;
    for i in 0..30 {
        let ticket = cluster
            .submit_batch_async("count_events", count_events_rows(16, 8, 5 + i % 3))
            .expect("submit count_events");
        submissions += 1;
        shards += ticket.wait().expect("commit").len() as u64;
    }
    for _ in 0..10 {
        let ticket = cluster
            .submit_batch_async("route_events", two_stage_rows(16, 8))
            .expect("submit route_events");
        submissions += 1;
        shards += ticket.wait().expect("commit").len() as u64;
    }
    cluster.quiesce().expect("quiesce");

    let report = cluster.observability_report();

    // Schema: stable keys.
    for key in STAGE_KEYS {
        assert!(report.stages.contains_key(key), "missing stage `{key}`");
    }

    // Reconciliation: every client submission routed once; every
    // per-partition ingest batch passed queued and executed exactly
    // once. Forwarded hand_off batches are logged at the destination
    // (but deliberately record no queued/executed — the source batch
    // already did), so `logged` is a superset of `executed`.
    assert_eq!(report.stages["routed"].count, submissions);
    assert_eq!(report.stages["queued"].count, shards);
    assert_eq!(report.stages["executed"].count, shards);
    assert!(report.stages["logged"].count >= shards);
    assert!(report.stages["forwarded"].count > 0, "edge never forwarded");
    assert!(report.stages["acked"].count > 0, "edge never acked");
    let submitted: u64 = report
        .metrics
        .partitions
        .iter()
        .map(|p| p.batches_submitted)
        .sum();
    assert_eq!(
        report.stages["logged"].count, submitted,
        "logged stage count must equal the cluster's submitted-batch total"
    );
    assert!(
        !report.slowest_batches.is_empty(),
        "no trace spans captured"
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("OBS_report.json");
    std::fs::write(&path, report.to_json()).expect("write OBS_report.json");

    println!("wrote {}", path.display());
    println!("\n  stage     |  count |  p50 ms |  p95 ms |  p99 ms");
    for key in STAGE_KEYS {
        let s = &report.stages[key];
        println!(
            "  {key:<9} | {:>6} | {:>7.3} | {:>7.3} | {:>7.3}",
            s.count,
            s.p50_us / 1e3,
            s.p95_us / 1e3,
            s.p99_us / 1e3
        );
    }
    println!(
        "\n  committed/s {:.1} | skew {:.2} | ring overwrites {} | slowest batch {:.3} ms (trace {})",
        report.committed_per_s,
        report.skew,
        report.trace_ring_overwrites,
        report.slowest_batches[0].total_us / 1e3,
        report.slowest_batches[0].trace
    );
    println!("OBS smoke OK");

    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}
