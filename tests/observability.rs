//! Integration tests for the telemetry export layer:
//! `Cluster::observability_report()` must emit a schema-stable,
//! JSON-round-trippable document whose per-stage histogram counts
//! reconcile with the cluster's own batch counters, and disabling
//! tracing must zero the stage recording without breaking anything.
//! A cross-partition edge must show up in the `forwarded` and `acked`
//! stages, and a refused submission must not lend its trace to the next
//! batch.
//!
//! The obs stage histograms are process-wide; each test windows them to
//! its own cluster via the built-in baseline, but the tests still
//! serialize on a mutex so one test's traffic never lands inside
//! another's window.

use sstore::common::obs;
use sstore::common::{Row, Value};
use sstore::core::workloads::{
    count_events_rows, deploy_count_events, deploy_two_stage, two_stage_rows, TWO_STAGE_EDGES,
};
use sstore::{Cluster, RouteSpec, SStoreBuilder};
use std::path::PathBuf;
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn tempdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("sstore-it-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// Every stage key the report promises, in pipeline order.
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

#[test]
fn report_schema_round_trips_and_counts_reconcile() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let dir = tempdir("schema");
    let cluster = Cluster::with_config(
        2,
        RouteSpec::hash(0),
        64,
        &SStoreBuilder::new().durability(&dir, 1),
        deploy_count_events,
    )
    .unwrap();

    let submissions = 25usize;
    let mut shard_batches = 0u64;
    for i in 0..submissions {
        let ticket = cluster
            .submit_batch_async("count_events", count_events_rows(8, 4 + i as i64 % 3, 5))
            .unwrap();
        // One border batch is created per partition that received rows.
        shard_batches += ticket.wait().unwrap().len() as u64;
    }
    cluster.quiesce().unwrap();

    let report = cluster.observability_report();

    // Schema: every promised stage key present.
    for key in STAGE_KEYS {
        assert!(report.stages.contains_key(key), "missing stage `{key}`");
    }

    // Reconciliation: the windowed stage counts must equal this
    // cluster's own counters. Each client submission records one
    // `routed`; each per-partition border batch records one `queued`,
    // `logged` (durable log present), and `executed`.
    let metrics = &report.metrics;
    let submitted: u64 = metrics.partitions.iter().map(|p| p.batches_submitted).sum();
    assert_eq!(submitted, shard_batches, "metrics vs tickets disagree");
    assert_eq!(report.stages["routed"].count, submissions as u64);
    assert_eq!(report.stages["queued"].count, shard_batches);
    assert_eq!(report.stages["logged"].count, shard_batches);
    assert_eq!(report.stages["executed"].count, shard_batches);
    // Group commit of 1: every logged batch also observed its fsync.
    assert_eq!(report.stages["fsynced"].count, shard_batches);
    // No cross-partition edges or 2PC in this workload.
    assert_eq!(report.stages["forwarded"].count, 0);
    assert_eq!(report.stages["prepared"].count, 0);

    // Latencies are cumulative since submit, so the waterfall is
    // monotone in expectation: executed p95 can't precede queued p95.
    assert!(report.stages["executed"].p95_us >= report.stages["queued"].p95_us);

    // The slowest-batch spans come from this cluster's window and carry
    // per-stage timelines.
    assert!(!report.slowest_batches.is_empty());
    for span in &report.slowest_batches {
        assert!(!span.stages.is_empty());
    }

    // The rendered document carries every stage's histogram (its exact
    // bytes are pinned by the golden test beside the printer).
    let json = report.to_json();
    for key in STAGE_KEYS {
        let count = report.stages[key].count;
        assert!(
            json.contains(&format!("\"{key}\":{{\"count\":{count},")),
            "{key}"
        );
    }

    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn edge_stages_record_forwarded_and_acked_batches() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let dir = tempdir("edge");
    let cluster = Cluster::with_edges(
        2,
        RouteSpec::hash(0),
        64,
        &SStoreBuilder::new().durability(&dir, 2),
        deploy_two_stage,
        TWO_STAGE_EDGES,
    )
    .unwrap();
    for _ in 0..10 {
        cluster
            .submit_batch_async("route_events", two_stage_rows(16, 8))
            .unwrap()
            .wait()
            .unwrap();
    }
    cluster.quiesce().unwrap();

    let report = cluster.observability_report();
    assert!(report.stages["forwarded"].count > 0, "edge never forwarded");
    assert!(report.stages["acked"].count > 0, "edge never acked");
    // Forwarded batches are logged at their destination, and count as
    // submitted there, so `logged` still matches the partitions' totals.
    let submitted: u64 = report
        .metrics
        .partitions
        .iter()
        .map(|p| p.batches_submitted)
        .sum();
    assert_eq!(report.stages["logged"].count, submitted);

    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_refused_submission_keeps_its_trace_to_itself() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let dir = tempdir("refused");
    let cluster = Cluster::with_config(
        1,
        RouteSpec::hash(0),
        64,
        &SStoreBuilder::new().durability(&dir, 1),
        deploy_two_stage,
    )
    .unwrap();
    // `apply_events` is interior (fed by `route_events`): refused.
    let interior = vec![Row::new(vec![Value::Int(1), Value::Int(2)])];
    let err = cluster
        .submit_batch_async("apply_events", interior)
        .unwrap()
        .wait()
        .unwrap_err();
    assert_eq!(err.kind(), "schedule");
    cluster
        .submit_batch_async("route_events", two_stage_rows(4, 4))
        .unwrap()
        .wait()
        .unwrap();
    cluster.quiesce().unwrap();

    // Traces are minted in submission order: the refused one first.
    let mut spans = cluster.observability_report().slowest_batches;
    spans.sort_by_key(|s| s.trace);
    let stages =
        |i: usize| -> Vec<String> { spans[i].stages.iter().map(|s| s.stage.clone()).collect() };
    assert_eq!(spans.len(), 2, "one trace per submission");
    let (refused, valid) = (stages(0), stages(1));
    assert!(!refused.iter().any(|s| s == "logged"), "{refused:?}");
    assert!(!refused.iter().any(|s| s == "executed"), "{refused:?}");
    assert!(valid.iter().any(|s| s == "logged"), "{valid:?}");
    assert!(valid.iter().any(|s| s == "executed"), "{valid:?}");

    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn disabled_tracing_records_no_stages() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(false);
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy_count_events).unwrap();
    for _ in 0..10 {
        cluster
            .submit_batch_async("count_events", count_events_rows(6, 5, 3))
            .unwrap()
            .wait()
            .unwrap();
    }
    cluster.quiesce().unwrap();
    let report = cluster.observability_report();
    obs::set_enabled(true);

    for key in STAGE_KEYS {
        assert_eq!(
            report.stages[key].count, 0,
            "stage `{key}` recorded with tracing off"
        );
    }
    // The rest of the report still works: committed work is visible
    // through the embedded metrics even with tracing off.
    assert!(report.metrics.total_committed() >= 10);
    assert!(report.skew >= 1.0);
}

#[test]
fn two_pc_stages_appear_for_multi_partition_transactions() {
    use sstore::core::workloads::deploy_count_events_multi;
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    obs::set_enabled(true);
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy_count_events_multi).unwrap();
    let baseline_prepared = cluster.observability_report().stages["prepared"].count;
    // Keys 0 and 1 hash to different partitions with overwhelming
    // likelihood over several submissions; each straddling batch runs
    // 2PC and records prepared/decided on every participant.
    let mut straddled = 0u64;
    for _ in 0..8 {
        let outcomes = cluster
            .submit_batch_async("count_events", count_events_rows(8, 4, 5))
            .unwrap()
            .wait()
            .unwrap();
        if outcomes.len() > 1 {
            straddled += outcomes.len() as u64;
        }
    }
    cluster.quiesce().unwrap();
    let report = cluster.observability_report();
    assert!(straddled > 0, "expected at least one straddling batch");
    assert_eq!(
        report.stages["prepared"].count - baseline_prepared,
        straddled
    );
    assert_eq!(
        report.stages["prepared"].count,
        report.stages["decided"].count
    );
}
