//! Worker supervision and admission control: bounded ticket waits,
//! queue-full shedding with backoff-retry, supervised restart of a
//! killed worker on a durable partition (exactly-once preserved), and
//! the permanent-down story for non-durable partitions — clients always
//! see typed errors, never a panic or a hang.

use sstore_core::common::fault::{self, KillMode};
use sstore_core::common::{Result, Row, Value};
use sstore_core::workloads::{count_events_rows, deploy_count_events};
use sstore_core::{
    Cluster, PartitionHealth, ProcSpec, RetryPolicy, RouteSpec, SStore, SStoreBuilder,
};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// The fault registry is process-global and `worker-killed-live` sits on
/// every worker's hot path, so tests in this binary must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn tempdir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sstore-supervision-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

/// A deliberately slow procedure: each batch naps, so ingest queues can
/// be held full deterministically.
fn deploy_slow(db: &mut SStore) -> Result<()> {
    db.ddl("CREATE STREAM ev (key INT)")?;
    db.register(
        ProcSpec::new("nap", |_ctx| {
            std::thread::sleep(Duration::from_millis(20));
            Ok(())
        })
        .consumes("ev"),
    )?;
    Ok(())
}

fn one_row() -> Vec<Row> {
    vec![Row::new(vec![Value::Int(1)])]
}

fn totals_sum(cluster: &Cluster) -> i64 {
    cluster
        .query_all("SELECT SUM(total) FROM totals", &[])
        .unwrap()
        .iter()
        .filter_map(|r| r[0].as_int().ok())
        .sum()
}

#[test]
fn ticket_wait_timeout_expires_with_typed_error() {
    let _g = lock();
    let cluster = Cluster::new(1, &SStoreBuilder::new(), deploy_slow).unwrap();
    // 20ms of work cannot resolve in 1ms: the bounded wait must expire
    // with Error::Timeout (and the work still completes on the worker).
    let t = cluster.submit_batch_async("nap", one_row()).unwrap();
    let err = t.wait_timeout(Duration::from_millis(1)).unwrap_err();
    assert_eq!(err.kind(), "timeout");
    assert!(
        !err.is_retryable(),
        "a timed-out submission still executes; blind resubmit would double it"
    );
    // A generous bound resolves normally.
    let t = cluster.submit_batch_async("nap", one_row()).unwrap();
    let out = t.wait_timeout(Duration::from_secs(30)).unwrap();
    assert!(out
        .iter()
        .all(|po| po.outcomes.iter().all(|o| o.is_committed())));
}

#[test]
fn admission_control_sheds_when_full_and_backoff_retry_succeeds() {
    let _g = lock();
    // Depth-1 queue + 20ms batches: the queue is full whenever the
    // worker is mid-nap with one submission parked behind it.
    let cluster =
        Cluster::with_config(1, RouteSpec::hash(0), 1, &SStoreBuilder::new(), deploy_slow).unwrap();
    let mut tickets = vec![
        cluster.submit_batch_async("nap", one_row()).unwrap(),
        cluster.submit_batch_async("nap", one_row()).unwrap(),
    ];
    // Every `overloaded` refusal this test sees, the retry loop's too.
    let mut refused = 0u64;
    for _ in 0..50 {
        match cluster.try_submit_batch_async("nap", one_row()) {
            Ok(t) => tickets.push(t),
            Err(e) => {
                assert_eq!(e.kind(), "overloaded");
                assert!(
                    e.is_retryable(),
                    "a shed batch landed nowhere; retry is safe"
                );
                refused += 1;
                break;
            }
        }
    }
    assert_eq!(refused, 1, "a depth-1 queue behind 20ms batches must shed");
    // The standard client response: back off (deterministic jitter) and
    // resubmit until admitted.
    let policy = RetryPolicy {
        max_attempts: 64,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(20),
        seed: 42,
    };
    tickets.push(
        policy
            .run(|| {
                let r = cluster.try_submit_batch_async("nap", one_row());
                if matches!(&r, Err(e) if e.kind() == "overloaded") {
                    refused += 1;
                }
                r
            })
            .expect("backoff retry must eventually be admitted"),
    );
    for t in tickets {
        for po in t.wait().unwrap() {
            assert!(po.outcomes.iter().all(|o| o.is_committed()));
        }
    }
    let m = cluster.metrics();
    assert_eq!(
        m.sheds, refused,
        "every refused submission must be counted as exactly one shed"
    );
    assert_eq!(m.health, vec![PartitionHealth::Healthy]);
}

#[test]
fn killed_worker_restarts_and_preserves_exactly_once() {
    let _g = lock();
    let dir = tempdir("killed");
    let builder = SStoreBuilder::new().durability(&dir, 1);
    let cluster = Cluster::new(1, &builder, deploy_count_events).unwrap();
    // Batch A commits before the kill.
    cluster
        .submit_batch_async("count_events", count_events_rows(10, 5, 3))
        .unwrap()
        .wait()
        .unwrap();
    let after_a = totals_sum(&cluster);

    // The worker dies while holding batch B — at the kill point the
    // group is captured but nothing is logged or executed, so the
    // ticket must resolve retryable (the batch provably did not run).
    fault::arm_once("worker-killed-live", 1, KillMode::Panic);
    let err = cluster
        .submit_batch_async("count_events", count_events_rows(10, 5, 3))
        .unwrap()
        .wait()
        .unwrap_err();
    assert_eq!(err.kind(), "partition_down");
    assert!(err.is_retryable());

    // Retrying rides out the restart (sends queue behind recovery) and
    // lands batch B exactly once.
    RetryPolicy::default()
        .run(|| {
            cluster
                .submit_batch_async("count_events", count_events_rows(10, 5, 3))?
                .wait()
        })
        .expect("the restarted partition must accept the retry");
    assert_eq!(
        totals_sum(&cluster),
        after_a * 2,
        "batch B must land exactly once across the restart"
    );

    let m = cluster.metrics();
    assert_eq!(m.worker_restarts, 1);
    assert_eq!(m.health, vec![PartitionHealth::Healthy]);
    assert!(m.partitions[0].available);
    cluster.quiesce().unwrap();

    // The restart recovery is the same machinery as cold recovery: a
    // fresh handle over the same dirs agrees byte-for-byte.
    drop(cluster);
    let recovered = Cluster::recover(
        1,
        RouteSpec::hash(0),
        16,
        &builder,
        deploy_count_events,
        &[],
    )
    .unwrap();
    assert_eq!(totals_sum(&recovered), after_a * 2);
}

#[test]
fn non_durable_partition_goes_down_with_typed_errors() {
    let _g = lock();
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy_count_events).unwrap();
    cluster
        .submit_batch_async("count_events", count_events_rows(40, 20, 3))
        .unwrap()
        .wait()
        .unwrap();

    // A panicking client closure kills worker 0; without a log there is
    // nothing to restart from, so the partition must go Down — and the
    // caller must get a typed error, not a propagated panic.
    let res: Result<()> = cluster.with_partition(0, |_db| panic!("injected test panic"));
    assert_eq!(res.unwrap_err().kind(), "partition_down");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while cluster.health()[0] != PartitionHealth::Down {
        assert!(
            std::time::Instant::now() < deadline,
            "supervisor must mark the non-durable partition Down"
        );
        std::thread::yield_now();
    }
    assert_eq!(cluster.health()[1], PartitionHealth::Healthy);

    // Every surface answers with typed errors: submissions (some rows
    // route to the dead partition), admission control, scatter-gather
    // reads, and quiesce — which must fail fast, not hang.
    let err = cluster
        .submit_batch_async("count_events", count_events_rows(40, 20, 3))
        .unwrap_err();
    assert_eq!(err.kind(), "partition_down");
    let err = cluster
        .try_submit_batch_async("count_events", count_events_rows(40, 20, 3))
        .unwrap_err();
    assert_eq!(err.kind(), "partition_down");
    let err = cluster
        .query_all("SELECT SUM(total) FROM totals", &[])
        .unwrap_err();
    assert_eq!(err.kind(), "partition_down");
    assert_eq!(cluster.quiesce().unwrap_err().kind(), "partition_down");

    // Metrics keep rendering through the outage: the down partition is
    // an explicit placeholder, the survivor still reports.
    let m = cluster.metrics();
    assert!(!m.partitions[0].available);
    assert!(m.partitions[1].available);
    assert_eq!(m.health[0], PartitionHealth::Down);
    // Dropping the cluster with a tombstoned worker must not hang.
}
