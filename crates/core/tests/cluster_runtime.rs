//! Integration tests for the persistent shared-nothing partition runtime:
//! routed sync/async ingest, determinism against the single-partition
//! reference, NULL-key rejection, per-partition metrics, and shutdown.

use sstore_core::common::{PartitionId, Row, Value};
use sstore_core::workloads::{count_events_rows, deploy_count_events as deploy};
use sstore_core::{cluster::DEFAULT_INGEST_QUEUE_DEPTH, Cluster, RouteSpec, Router, SStoreBuilder};

/// Narrow key space (37 keys over 0..=36) so keys collide across batches.
fn workload(n: usize) -> Vec<Row> {
    count_events_rows(n, 37, 11)
}

fn reference_state(n_rows: usize) -> Vec<Row> {
    let mut single = SStoreBuilder::new().build().unwrap();
    deploy(&mut single).unwrap();
    single
        .submit_batch("count_events", workload(n_rows))
        .unwrap();
    let mut rows = single
        .query("SELECT key, n, total FROM totals", &[])
        .unwrap()
        .rows;
    rows.sort();
    rows
}

#[test]
fn partitioned_run_matches_single_partition() {
    let reference = reference_state(500);
    let cluster = Cluster::new(4, &SStoreBuilder::new(), deploy).unwrap();
    cluster
        .submit_batch_partitioned("count_events", workload(500), 0)
        .unwrap();
    let mut merged = cluster
        .query_all("SELECT key, n, total FROM totals", &[])
        .unwrap();
    merged.sort();
    assert_eq!(merged, reference);
    assert!(cluster.total_committed() >= 4); // every non-empty shard ran
}

#[test]
fn async_ingest_matches_single_partition() {
    let reference = reference_state(500);
    let cluster = Cluster::new(4, &SStoreBuilder::new(), deploy).unwrap();
    // Pipeline many small submissions without waiting in between; the
    // workers drain their queues (possibly coalescing) in FIFO order.
    let mut tickets = Vec::new();
    for chunk in workload(500).chunks(50) {
        tickets.push(
            cluster
                .submit_batch_async("count_events", chunk.to_vec())
                .unwrap(),
        );
    }
    for t in tickets {
        for po in t.wait().unwrap() {
            assert!(po.outcomes.iter().all(|o| o.is_committed()));
        }
    }
    let mut merged = cluster
        .query_all("SELECT key, n, total FROM totals", &[])
        .unwrap();
    merged.sort();
    assert_eq!(merged, reference);
}

#[test]
fn blocking_wrapper_refuses_a_key_column_other_than_the_declared_one() {
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy).unwrap();
    // Matching key column: every row goes where the declared route says.
    cluster
        .submit_batch_partitioned("count_events", workload(100), 0)
        .unwrap();
    let router = Router::new(RouteSpec::hash(0), 2).unwrap();
    for p in 0..2 {
        let keys = cluster.with_partition(p, |part| {
            part.query("SELECT key FROM totals", &[]).unwrap().rows
        });
        let keys = keys.unwrap();
        assert!(!keys.is_empty());
        for key in keys {
            assert_eq!(router.route_key(&key[0]).unwrap().raw(), p as u32);
        }
    }
    // A different key column would place rows against the declared
    // route — rejected outright.
    let err = cluster
        .submit_batch_partitioned("count_events", workload(10), 1)
        .unwrap_err();
    assert_eq!(err.kind(), "schedule");
}

#[test]
fn null_partition_keys_rejected() {
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy).unwrap();
    let rows = vec![
        vec![Value::Int(1), Value::Int(2)],
        vec![Value::Null, Value::Int(3)],
    ];
    let err = cluster
        .submit_batch_partitioned("count_events", rows.clone(), 0)
        .unwrap_err();
    assert_eq!(err.kind(), "schedule");
    let err = cluster
        .submit_batch_async("count_events", rows)
        .unwrap_err();
    assert_eq!(err.kind(), "schedule");
    // Nothing was enqueued: state untouched.
    assert_eq!(cluster.total_committed(), 0);
}

#[test]
fn empty_cluster_rejected() {
    assert!(Cluster::new(0, &SStoreBuilder::new(), |_| Ok(())).is_err());
}

#[test]
fn per_partition_outcomes_reported() {
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy).unwrap();
    let results = cluster
        .submit_batch_partitioned("count_events", workload(20), 0)
        .unwrap();
    assert_eq!(results.len(), 2);
    let total_tes: usize = results.iter().map(Vec::len).sum();
    assert!(total_tes >= 1);
}

#[test]
fn metrics_attribute_partition_ids() {
    let cluster = Cluster::new(3, &SStoreBuilder::new(), deploy).unwrap();
    cluster
        .submit_batch_partitioned("count_events", workload(60), 0)
        .unwrap();
    let m = cluster.metrics();
    assert_eq!(m.partitions.len(), 3);
    for (i, pm) in m.partitions.iter().enumerate() {
        assert_eq!(pm.partition, PartitionId::new(i as u32));
    }
    assert_eq!(m.total_committed(), cluster.total_committed());
    assert!(m.skew() >= 1.0);
}

#[test]
fn submission_errors_surface_through_tickets() {
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy).unwrap();
    let ticket = cluster
        .submit_batch_async("no_such_proc", workload(10))
        .unwrap();
    assert!(ticket.wait().is_err());
}

#[test]
fn clock_advances_in_lockstep() {
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy).unwrap();
    cluster.advance_clock(1_000).unwrap();
    for i in 0..2 {
        assert_eq!(
            cluster.with_partition(i, |p| p.clock().now()).unwrap(),
            1_000
        );
    }
}

/// A receiving worker that finds several edge shards waiting at the head
/// of its queue logs them as one run: one command-log sync covers all of
/// them. The run is forced, not hoped for: partition 1 is parked inside
/// a job while partition 0 emits three envelopes at it, and released
/// only once the (FIFO) hub is known to have delivered them.
#[test]
fn queued_forwards_are_logged_under_one_sync() {
    use sstore_core::workloads::{deploy_two_stage, TWO_STAGE_EDGES};
    use std::sync::mpsc;

    let dir = std::env::temp_dir().join(format!("sstore-fwd-run-cluster-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = Cluster::with_edges(
        2,
        RouteSpec::hash(0),
        DEFAULT_INGEST_QUEUE_DEPTH,
        &SStoreBuilder::new().durability(&dir, 8),
        deploy_two_stage,
        TWO_STAGE_EDGES,
    )
    .unwrap();
    // One key owned by each partition (edges hash their own column 0
    // the same way the ingest route does).
    let owned_by = |p: u32| {
        (0..)
            .find(|&k| cluster.router().route(&[Value::Int(k)]).unwrap().raw() == p)
            .unwrap()
    };
    let (on_p0, on_p1) = (owned_by(0), owned_by(1));
    let route = |src: i64, dest: i64| {
        cluster
            .submit_batch_async(
                "route_events",
                vec![vec![Value::Int(src), Value::Int(dest), Value::Int(1)]],
            )
            .unwrap()
            .wait()
            .unwrap();
    };

    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let parked = s.spawn(|| {
            cluster
                .with_partition(1, move |db| {
                    let syncs = db.stats().log_syncs;
                    parked_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                    syncs
                })
                .unwrap()
        });
        parked_rx.recv().unwrap();
        for _ in 0..3 {
            route(on_p0, on_p1);
        }
        // A fourth envelope that partition 0 delivers to itself: once it
        // has arrived, the three before it sit in partition 1's queue.
        route(on_p0, on_p0);
        while cluster
            .with_partition(0, |db| db.stats().forwards_in)
            .unwrap()
            == 0
        {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();
        let syncs_before = parked.join().unwrap();
        cluster.quiesce().unwrap();

        let p1 = cluster.with_partition(1, |db| db.stats().clone()).unwrap();
        assert_eq!(p1.forwards_in, 3);
        assert_eq!(p1.log_syncs, syncs_before + 1, "one sync for the run");
    });
    let n: i64 = cluster
        .query_all("SELECT SUM(n) FROM dest_totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(n, 4);
    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}
