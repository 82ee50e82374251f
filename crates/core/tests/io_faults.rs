//! Injected disk IO errors (`fault::arm_io_error`) at each durability
//! site: the command-log group write, the snapshot writers, and the
//! coordinator decision log. Every site must fail with a typed `Err`,
//! leave zero partial state behind, and keep the partition usable — the
//! failure mode is a clean refusal, never a panic, a hang, or a torn
//! durable prefix.

use sstore_core::common::fault;
use sstore_core::common::{Result, Row, Value};
use sstore_core::workloads::{deploy_count_events_multi, deploy_two_stage};
use sstore_core::{
    recover, Cluster, InboundForward, LogConfig, PeConfig, RouteSpec, SStore, SStoreBuilder,
};
use sstore_core::{ProcSpec, Router, TxnStatus};
use std::path::PathBuf;
use std::sync::Mutex;

/// The fault registry is process-global: tests in this binary must not
/// overlap, or one test's armed point fires inside another.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn tempdir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sstore-io-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn deploy(p: &mut SStore) -> Result<()> {
    p.ddl("CREATE STREAM events (v INT)")?;
    p.ddl("CREATE TABLE totals (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")?;
    p.setup_sql("INSERT INTO totals VALUES (0, 0)", &[])?;
    p.register(
        ProcSpec::new("ingest", |ctx| {
            for row in ctx.input().rows.clone() {
                ctx.exec("bump", &[row[0].clone()])?;
            }
            Ok(())
        })
        .consumes("events")
        .stmt("bump", "UPDATE totals SET n = n + ? WHERE k = 0"),
    )?;
    Ok(())
}

fn config(dir: &PathBuf) -> PeConfig {
    PeConfig {
        log: Some(LogConfig::new(dir)),
        ..PeConfig::default()
    }
}

fn batch() -> Vec<Row> {
    vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])]
}

fn total(p: &mut SStore) -> i64 {
    p.query("SELECT n FROM totals WHERE k = 0", &[])
        .unwrap()
        .rows[0][0]
        .as_int()
        .unwrap()
}

/// `log-append-io-error`: the group write fails, the bytes are rolled
/// back to the pre-write length, and the batch surfaces a typed IO error
/// with nothing applied. The partition stays usable — the next batch
/// (the one-shot arm has expired) commits and is durable — and recovery
/// over the log sees exactly the successful batches.
#[test]
fn log_append_io_error_rolls_back_and_partition_stays_usable() {
    let _g = lock();
    let dir = tempdir("log-append");
    {
        let mut p = SStore::new(config(&dir)).unwrap();
        deploy(&mut p).unwrap();
        p.submit_batch("ingest", batch()).unwrap();
        assert_eq!(total(&mut p), 3);

        fault::arm_io_error("log-append-io-error", 1);
        let err = p.submit_batch("ingest", batch()).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert_eq!(
            total(&mut p),
            3,
            "a failed durable write must leave zero partial state"
        );

        // The disk "heals" (the one-shot arm expired): normal service.
        p.submit_batch("ingest", batch()).unwrap();
        assert_eq!(total(&mut p), 6);
    }
    let mut r = recover(config(&dir), deploy).unwrap();
    assert_eq!(
        total(&mut r),
        6,
        "recovery must replay the two successful batches, nothing else"
    );
    drop(r);
    std::fs::remove_dir_all(dir).ok();
}

/// `snapshot-io-error`: a failed checkpoint write reaches no durable
/// name (the injection fires before the temp file exists), so the log
/// remains the authoritative prefix. The partition keeps committing, a
/// retried snapshot succeeds, and recovery agrees with live state.
#[test]
fn snapshot_io_error_leaves_log_authoritative() {
    let _g = lock();
    let dir = tempdir("snapshot");
    {
        let mut p = SStore::new(config(&dir)).unwrap();
        deploy(&mut p).unwrap();
        p.submit_batch("ingest", batch()).unwrap();

        fault::arm_io_error("snapshot-io-error", 1);
        let err = p.snapshot().unwrap_err();
        assert_eq!(err.kind(), "io");

        // Still fully usable: more commits, then a successful retry.
        p.submit_batch("ingest", batch()).unwrap();
        assert_eq!(total(&mut p), 6);
        p.snapshot().unwrap();
        p.submit_batch("ingest", batch()).unwrap();
        assert_eq!(total(&mut p), 9);
    }
    let mut r = recover(config(&dir), deploy).unwrap();
    assert_eq!(
        total(&mut r),
        9,
        "snapshot + log tail must reproduce live state despite the failed checkpoint"
    );
    drop(r);
    std::fs::remove_dir_all(dir).ok();
}

/// A forward whose log write fails must leave a *hole*, not a skipped
/// batch: the edge's high-water dedupe may never advance past a batch
/// that was refused, or the sender's re-forward of it would be dropped
/// as a duplicate. Younger forwards are refused until the hole refills,
/// then everything lands exactly once — live and through recovery.
#[test]
fn forward_io_error_leaves_no_hole_in_edge_dedupe() {
    let _g = lock();
    let dir = tempdir("edge-gap");
    {
        let mut p = SStore::new(config(&dir)).unwrap();
        deploy(&mut p).unwrap();
        let row5 = vec![Row::new(vec![Value::Int(5)])];
        let row7 = vec![Row::new(vec![Value::Int(7)])];

        fault::arm_io_error("log-append-io-error", 1);
        let err = p.accept_forward("events", 1, 5, row5.clone()).unwrap_err();
        assert_eq!(err.kind(), "io");

        // A younger batch must not leapfrog the hole.
        let err = p.accept_forward("events", 1, 7, row7.clone()).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert_eq!(total(&mut p), 0, "refused forwards must apply nothing");

        // The sender re-forwards in order (both acks were withheld): the
        // hole refills, then the younger batch lands.
        assert!(p
            .accept_forward("events", 1, 5, row5.clone())
            .unwrap()
            .is_some());
        p.run_queued().unwrap();
        assert!(p.accept_forward("events", 1, 7, row7).unwrap().is_some());
        p.run_queued().unwrap();
        assert_eq!(total(&mut p), 12);

        // The refilled batch is now a duplicate: exactly once.
        assert!(p.accept_forward("events", 1, 5, row5).unwrap().is_none());
        assert_eq!(total(&mut p), 12);
    }
    let mut r = recover(config(&dir), deploy).unwrap();
    assert_eq!(total(&mut r), 12, "recovery must agree with live state");
    drop(r);
    std::fs::remove_dir_all(dir).ok();
}

/// A run of forwards shares one sync, so a failure of that sync is a
/// failure of every member not yet on disk: each reports the error (its
/// ack is withheld), none is enqueued, each edge keeps a hole that
/// refuses younger batches — and when the senders re-forward the run,
/// every row lands exactly once, live and through recovery (where the
/// first attempt's records, still in the group buffer when the sync
/// failed, replay and the re-forwards dedupe).
#[test]
fn forward_run_io_error_fails_every_member_and_refills_exactly_once() {
    let _g = lock();
    let dir = tempdir("edge-run");
    let config = PeConfig {
        log: Some(LogConfig::with_group_commit(&dir, 8)),
        ..PeConfig::default()
    };
    let dest_rows = |p: &mut SStore| -> i64 {
        p.query("SELECT SUM(n) FROM dest_totals", &[])
            .unwrap()
            .rows
            .first()
            .and_then(|r| r[0].as_int().ok())
            .unwrap_or(0)
    };
    // Three shards of `hand_off (dest, amount)` from two senders.
    let shard = |src_partition: u32, src_batch: u64| InboundForward {
        stream: "hand_off".into(),
        src_partition,
        src_batch,
        rows: vec![
            Row::new(vec![Value::Int(src_batch as i64), Value::Int(1)]),
            Row::new(vec![Value::Int(100), Value::Int(1)]),
        ],
        trace: None,
    };
    let run = || vec![shard(1, 5), shard(1, 6), shard(2, 9)];
    {
        let mut p = SStore::new(config.clone()).unwrap();
        deploy_two_stage(&mut p).unwrap();

        fault::arm_io_error("log-append-io-error", 1);
        let failed = p.accept_forwards(run());
        assert!(
            failed
                .iter()
                .all(|r| r.as_ref().is_err_and(|e| e.kind() == "io")),
            "{failed:?}"
        );
        assert!(p.run_queued().unwrap().is_empty(), "nothing was enqueued");
        assert_eq!(dest_rows(&mut p), 0);

        // Both edges hold a hole: a younger batch must not leapfrog it.
        for younger in [shard(1, 7), shard(2, 10)] {
            assert_eq!(
                p.accept_forwards(vec![younger])[0]
                    .as_ref()
                    .unwrap_err()
                    .kind(),
                "io"
            );
        }

        // The senders re-forward in order: the holes refill.
        let syncs = p.stats().log_syncs;
        let refilled = p.accept_forwards(run());
        assert!(
            refilled.iter().all(|r| matches!(r, Ok(Some(_)))),
            "{refilled:?}"
        );
        assert_eq!(p.stats().log_syncs, syncs + 1);
        p.run_queued().unwrap();
        assert_eq!(dest_rows(&mut p), 6);

        // Once more: now every member is a duplicate.
        assert!(p
            .accept_forwards(run())
            .iter()
            .all(|r| matches!(r, Ok(None))));
        assert_eq!(dest_rows(&mut p), 6);
    }
    let mut r = recover(config, deploy_two_stage).unwrap();
    assert_eq!(dest_rows(&mut r), 6, "recovery must agree with live state");
    drop(r);
    std::fs::remove_dir_all(dir).ok();
}

/// `coord-log-io-error`: the commit-point write fails with its bytes
/// rolled back, so the decision is provably absent and the coordinator
/// flips the round to abort — no participant may apply, and the next
/// round commits normally.
#[test]
fn coord_log_io_error_aborts_round_cleanly() {
    let _g = lock();
    let dir = tempdir("coord");
    let builder = SStoreBuilder::new().durability(&dir, 1);
    let cluster = Cluster::with_config(
        2,
        RouteSpec::hash(0),
        16,
        &builder,
        deploy_count_events_multi,
    )
    .unwrap();
    // One key on each partition — a genuine 2PC round.
    let router = Router::new(RouteSpec::hash(0), 2).unwrap();
    let key_on = |p: u32| {
        (0..)
            .find(|&k| router.route_key(&Value::Int(k)).unwrap().raw() == p)
            .unwrap()
    };
    let (k0, k1) = (key_on(0), key_on(1));
    let straddle = || {
        vec![
            Row::new(vec![Value::Int(k0), Value::Int(50)]),
            Row::new(vec![Value::Int(k1), Value::Int(150)]),
        ]
    };

    fault::arm_io_error("coord-log-io-error", 1);
    let res = cluster
        .submit_batch_atomic("count_events", straddle())
        .unwrap()
        .wait();
    // The round must abort — either surfaced as an error or as
    // explicitly non-committed outcomes — and apply nothing.
    match res {
        Err(_) => {}
        Ok(outcomes) => {
            assert!(
                outcomes
                    .iter()
                    .flat_map(|po| &po.outcomes)
                    .all(|o| o.status != TxnStatus::Committed),
                "a failed commit-point write must not release a commit"
            );
        }
    }
    let n: i64 = cluster
        .query_all("SELECT COUNT(*) FROM totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(n, 0, "the aborted round must leave zero partial state");
    let stats = cluster.coordinator_stats();
    assert_eq!((stats.commits, stats.aborts), (0, 1));

    // The disk heals: the next round commits on both sides.
    cluster
        .submit_batch_atomic("count_events", straddle())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(cluster.coordinator_stats().commits, 1);
    let n: i64 = cluster
        .query_all("SELECT SUM(n) FROM totals", &[])
        .unwrap()
        .iter()
        .filter_map(|r| r[0].as_int().ok())
        .sum();
    assert_eq!(n, 2);
    cluster.quiesce().unwrap();
    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}
