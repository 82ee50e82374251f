//! Cluster-level tests of the cross-partition transaction coordinator:
//! atomic commit/abort across workers, the single-partition fast path
//! (byte-identical to the PR 2 ingest path), cross-partition workflow
//! edges, and distributed recovery from durable state.

use sstore_core::common::fault::{self, KillMode};
use sstore_core::common::{codec, durable};
use sstore_core::common::{Result, Row, Value};
use sstore_core::workloads::{
    count_events_rows, deploy_count_events, deploy_count_events_multi, deploy_two_stage,
    two_stage_rows, TWO_STAGE_EDGES,
};
use sstore_core::{Cluster, ProcSpec, RouteSpec, SStore, SStoreBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The fault registry is process-global, so every test in this binary
/// serializes through this lock — an armed kill point must never fire in
/// a neighbouring test's cluster.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::disarm(); // a poisoned predecessor must not leak an armed point
    guard
}

fn tempdir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sstore-2pc-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// Keys guaranteed to straddle at least two partitions of a 2-partition
/// hash router (0..8 hashes onto both sides for the fixed DefaultHasher).
fn straddling_rows() -> Vec<Row> {
    (0..8i64)
        .map(|k| Row::new(vec![Value::Int(k), Value::Int(k * 10)]))
        .collect()
}

#[test]
fn atomic_batch_commits_on_every_partition_exactly_once() {
    let _guard = fault_lock();
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy_count_events_multi).unwrap();
    let outcomes = cluster
        .submit_batch_atomic("count_events", straddling_rows())
        .unwrap()
        .wait()
        .unwrap();
    assert!(outcomes.len() >= 2, "batch must have straddled partitions");
    for po in &outcomes {
        assert!(po.outcomes.iter().all(|o| o.is_committed()));
    }
    let n: i64 = cluster
        .query_all("SELECT SUM(n) FROM totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(n, 8);
    let stats = cluster.coordinator_stats();
    assert_eq!(stats.multi_partition_txns, 1);
    assert_eq!(stats.commits, 1);
    assert_eq!(stats.prepares_sent, 2);
    let m = cluster.metrics();
    assert_eq!(m.partitions.iter().map(|p| p.twopc_commits).sum::<u64>(), 2);
}

/// `count_events` beside `tally`, a single-partition workflow on its own
/// table: the side traffic that queues behind a 2PC fragment.
fn deploy_with_tally(db: &mut SStore) -> Result<()> {
    deploy_count_events_multi(db)?;
    db.ddl("CREATE STREAM tally_in (key INT, amount INT)")?;
    db.ddl("CREATE TABLE tallies (key INT NOT NULL, amount INT NOT NULL, PRIMARY KEY (key))")?;
    db.register(
        ProcSpec::new("tally", |ctx| {
            for row in &ctx.input().rows {
                ctx.exec("put", &[row[0].clone(), row[1].clone()])?;
            }
            Ok(())
        })
        .consumes("tally_in")
        .stmt("put", "INSERT INTO tallies VALUES (?, ?)"),
    )?;
    Ok(())
}

/// Atomicity is the product, never a different answer: the same rows cut
/// into straddling batches (each one global transaction under 2PC) and
/// pre-sharded onto the single-partition fast path leave identical state.
/// Single-partition `tally` batches stream in from a second thread
/// meanwhile, so some reach a worker between its vote and the decision:
/// it defers them, runs them after the decision, and loses or doubles
/// none.
#[test]
fn multi_sited_state_equals_the_single_partition_fast_path() {
    let _guard = fault_lock();
    let rows = count_events_rows(512, 97, 13);
    let side = count_events_rows(512, 512, 7);
    let state = |cluster: &Cluster| {
        let read = |sql| sorted(cluster.query_all(sql, &[]).unwrap());
        (read("SELECT * FROM totals"), read("SELECT * FROM tallies"))
    };
    let committed = |ticket: sstore_core::Ticket| {
        for po in ticket.wait().unwrap() {
            assert!(po.outcomes.iter().all(|o| o.is_committed()));
        }
    };

    let multi = Cluster::new(2, &SStoreBuilder::new(), deploy_with_tally).unwrap();
    std::thread::scope(|s| {
        let tallies = s.spawn(|| {
            side.chunks(4)
                .map(|chunk| multi.submit_batch_async("tally", chunk.to_vec()).unwrap())
                .collect::<Vec<_>>()
        });
        for chunk in rows.chunks(64) {
            committed(
                multi
                    .submit_batch_atomic("count_events", chunk.to_vec())
                    .unwrap(),
            );
        }
        tallies.join().unwrap().into_iter().for_each(committed);
    });
    let stats = multi.coordinator_stats();
    assert_eq!(stats.multi_partition_txns, 8, "every batch must straddle");
    assert_eq!(stats.commits, 8);

    let single = Cluster::new(2, &SStoreBuilder::new(), deploy_with_tally).unwrap();
    for shard in single.router().shard(rows).unwrap() {
        for chunk in shard.chunks(64) {
            committed(
                single
                    .submit_batch_async("count_events", chunk.to_vec())
                    .unwrap(),
            );
        }
    }
    committed(single.submit_batch_async("tally", side).unwrap());
    let stats = single.coordinator_stats();
    assert_eq!(stats.multi_partition_txns, 0);
    assert!(stats.single_partition_fast_path > 0);

    let (totals, tallies) = state(&multi);
    assert_eq!(tallies.len(), 512);
    assert_eq!((totals, tallies), state(&single));
}

/// The fsync budget of a straddling transaction at the benchmark's flush
/// policy (group commit 8), one in flight: each of the two participants
/// syncs once — its prepare record, with the previous transaction's
/// `Decision` riding along — and the coordinator writes (and fsyncs) one
/// decision record.
#[test]
fn one_atomic_batch_costs_two_participant_syncs_and_one_coordinator_fsync() {
    let _guard = fault_lock();
    let dir = tempdir("fsync-budget");
    let cluster = Cluster::with_config(
        2,
        RouteSpec::hash(0),
        16,
        &SStoreBuilder::new().durability(&dir, 8),
        deploy_count_events_multi,
    )
    .unwrap();
    for round in 1..=3u64 {
        cluster
            .submit_batch_atomic("count_events", straddling_rows())
            .unwrap()
            .wait()
            .unwrap();
        let participant_syncs: u64 = (0..2)
            .map(|i| {
                cluster
                    .with_partition(i, |db| db.stats().log_syncs)
                    .unwrap()
            })
            .sum();
        assert_eq!(participant_syncs, 2 * round);
        assert_eq!(cluster.coordinator_stats().commits, round);
    }
    drop(cluster);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn one_no_vote_aborts_the_whole_transaction() {
    let _guard = fault_lock();
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy_count_events_multi).unwrap();
    // One poison row (negative amount) makes its partition vote no; every
    // other fragment must roll back too.
    let mut rows = straddling_rows();
    rows.push(Row::new(vec![Value::Int(3), Value::Int(-1)]));
    let err = cluster
        .submit_batch_atomic("count_events", rows)
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(err.to_string().contains("negative amount") || err.kind() == "txn");
    let n: i64 = cluster
        .query_all("SELECT COUNT(*) FROM totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(
        n, 0,
        "aborted global transaction must leave no partial state"
    );
    let stats = cluster.coordinator_stats();
    assert_eq!(stats.aborts, 1);
    assert_eq!(stats.commits, 0);
    // The cluster keeps accepting work afterwards.
    cluster
        .submit_batch_atomic("count_events", straddling_rows())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(cluster.coordinator_stats().commits, 1);
}

#[test]
fn declared_multi_partition_procs_upgrade_plain_submissions() {
    let _guard = fault_lock();
    let cluster = Cluster::new(2, &SStoreBuilder::new(), deploy_count_events_multi).unwrap();
    // The ordinary async path detects the declaration and coordinates.
    cluster
        .submit_batch_async("count_events", straddling_rows())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(cluster.coordinator_stats().multi_partition_txns, 1);
    // An undeclared procedure keeps PR 2's independent-shard semantics.
    let plain = Cluster::new(2, &SStoreBuilder::new(), deploy_count_events).unwrap();
    plain
        .submit_batch_async("count_events", straddling_rows())
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(plain.coordinator_stats().multi_partition_txns, 0);
    assert_eq!(plain.coordinator_stats().single_partition_fast_path, 0);
}

/// Satellite: a submission whose rows all route to one partition skips
/// 2PC entirely — no prepares, no extra log records; the durable log of
/// the involved partition is **byte-identical** to a PR 2-style run with
/// an undeclared procedure.
#[test]
fn single_partition_fast_path_is_byte_identical_to_plain_ingest() {
    let _guard = fault_lock();
    // All rows share one key → one partition, even under hash routing.
    let rows = || vec![Row::new(vec![Value::Int(5), Value::Int(1)]); 4];

    let dir_multi = tempdir("fastpath-multi");
    let dir_plain = tempdir("fastpath-plain");
    {
        let multi = Cluster::with_config(
            2,
            RouteSpec::hash(0),
            16,
            &SStoreBuilder::new().durability(&dir_multi, 1),
            deploy_count_events_multi,
        )
        .unwrap();
        multi
            .submit_batch_async("count_events", rows())
            .unwrap()
            .wait()
            .unwrap();
        let stats = multi.coordinator_stats();
        assert_eq!(stats.single_partition_fast_path, 1);
        assert_eq!(stats.multi_partition_txns, 0);
        let m = multi.metrics();
        assert_eq!(
            m.partitions.iter().map(|p| p.twopc_prepares).sum::<u64>(),
            0
        );
        // Same rows through an undeclared proc on an identical cluster.
        let plain = Cluster::with_config(
            2,
            RouteSpec::hash(0),
            16,
            &SStoreBuilder::new().durability(&dir_plain, 1),
            deploy_count_events,
        )
        .unwrap();
        plain
            .submit_batch_async("count_events", rows())
            .unwrap()
            .wait()
            .unwrap();
    }
    // Byte-identical per-partition command logs: the fast path added no
    // records, reordered nothing, and left timestamps untouched.
    for i in 0..2 {
        let a = std::fs::read(dir_multi.join(format!("p{i}/command.log"))).unwrap_or_default();
        let b = std::fs::read(dir_plain.join(format!("p{i}/command.log"))).unwrap_or_default();
        assert_eq!(a, b, "partition {i} log diverged from the PR 2 hot path");
    }
    std::fs::remove_dir_all(dir_multi).ok();
    std::fs::remove_dir_all(dir_plain).ok();
}

#[test]
fn cross_partition_edge_runs_downstream_on_owning_partition() {
    let _guard = fault_lock();
    let cluster = Cluster::with_edges(
        2,
        RouteSpec::hash(0),
        16,
        &SStoreBuilder::new(),
        deploy_two_stage,
        TWO_STAGE_EDGES,
    )
    .unwrap();
    cluster
        .submit_batch_async("route_events", two_stage_rows(40, 10))
        .unwrap()
        .wait()
        .unwrap();
    cluster.quiesce().unwrap();
    let n: i64 = cluster
        .query_all("SELECT SUM(n) FROM dest_totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(n, 40, "every tuple must arrive exactly once downstream");
    let m = cluster.metrics();
    let fwd_out: u64 = m.partitions.iter().map(|p| p.forwards_out).sum();
    let fwd_in: u64 = m.partitions.iter().map(|p| p.forwards_in).sum();
    assert!(fwd_out >= 2, "both partitions should have emitted edges");
    assert!(fwd_in >= fwd_out, "each envelope lands as >= 1 shard");
    // dest_totals content matches a single-partition run of the same
    // topology (the hub self-delivers on 1 partition).
    let single = Cluster::with_edges(
        1,
        RouteSpec::hash(0),
        16,
        &SStoreBuilder::new(),
        deploy_two_stage,
        TWO_STAGE_EDGES,
    )
    .unwrap();
    single
        .submit_batch_async("route_events", two_stage_rows(40, 10))
        .unwrap()
        .wait()
        .unwrap();
    single.quiesce().unwrap();
    assert_eq!(
        sorted(cluster.query_all("SELECT * FROM dest_totals", &[]).unwrap()),
        sorted(single.query_all("SELECT * FROM dest_totals", &[]).unwrap()),
    );
}

#[test]
fn cluster_recovers_to_identical_state_after_shutdown() {
    let _guard = fault_lock();
    let dir = tempdir("recover");
    let build = |recover: bool| {
        let builder = SStoreBuilder::new().durability(&dir, 1);
        if recover {
            Cluster::recover(
                2,
                RouteSpec::hash(0),
                16,
                &builder,
                deploy_two_stage,
                TWO_STAGE_EDGES,
            )
        } else {
            Cluster::with_edges(
                2,
                RouteSpec::hash(0),
                16,
                &builder,
                deploy_two_stage,
                TWO_STAGE_EDGES,
            )
        }
    };
    let reference = {
        let cluster = build(false).unwrap();
        cluster
            .submit_batch_async("route_events", two_stage_rows(30, 8))
            .unwrap()
            .wait()
            .unwrap();
        cluster.quiesce().unwrap();
        (
            sorted(cluster.query_all("SELECT * FROM dest_totals", &[]).unwrap()),
            sorted(cluster.query_all("SELECT * FROM src_counts", &[]).unwrap()),
        )
    };
    let recovered = build(true).unwrap();
    recovered.quiesce().unwrap();
    assert_eq!(
        sorted(
            recovered
                .query_all("SELECT * FROM dest_totals", &[])
                .unwrap()
        ),
        reference.0
    );
    assert_eq!(
        sorted(
            recovered
                .query_all("SELECT * FROM src_counts", &[])
                .unwrap()
        ),
        reference.1
    );
    // The recovered cluster keeps flowing across the same edges.
    recovered
        .submit_batch_async("route_events", two_stage_rows(10, 8))
        .unwrap()
        .wait()
        .unwrap();
    recovered.quiesce().unwrap();
    let n: i64 = recovered
        .query_all("SELECT SUM(n) FROM dest_totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(n, 40);
    drop(recovered);
    std::fs::remove_dir_all(dir).ok();
}

/// Straddling rows with 8 consecutive keys starting at `base` (amount 1
/// each) — distinguishable from [`straddling_rows`] so a resurrected
/// fragment is identifiable by key.
fn straddling_rows_from(base: i64) -> Vec<Row> {
    (base..base + 8)
        .map(|k| Row::new(vec![Value::Int(k), Value::Int(1)]))
        .collect()
}

/// Crash the cluster at `point` (its first hit) while it runs one atomic
/// batch, then freeze the wreck: the kill unwinds whichever thread hits
/// the point, and `mem::forget` stops every graceful-shutdown path (which
/// would otherwise resolve in-doubt fragments) from running — on-disk
/// state is exactly what a machine crash at the point leaves behind.
fn crash_atomic_submission(cluster: Cluster, point: &str, rows: Vec<Row>) {
    fault::arm(point, 1, KillMode::Panic);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // The coordinator runs on this thread: a coordinator-side kill
        // point panics the call itself; a participant-side kill surfaces
        // as a dead-worker error from `wait()` instead.
        cluster
            .submit_batch_atomic("count_events", rows)
            .and_then(|t| t.wait())
    }));
    assert!(
        !matches!(outcome, Ok(Ok(_))),
        "the armed kill point `{point}` must have crashed the transaction"
    );
    fault::disarm();
    std::mem::forget(cluster);
}

/// A recovered coordinator must sequence past every gtid any partition
/// ever *prepared* — not just past decided ones. If the in-doubt gtid 1
/// were reused, the new transaction's commit record would make the next
/// recovery resolve the OLD aborted fragment as committed, resurrecting
/// its writes.
#[test]
fn recovered_coordinator_never_reuses_in_doubt_gtids() {
    let _guard = fault_lock();
    let dir = tempdir("gtid-reuse");
    let builder = || SStoreBuilder::new().durability(&dir, 1);
    {
        let cluster = Cluster::with_config(
            2,
            RouteSpec::hash(0),
            16,
            &builder(),
            deploy_count_events_multi,
        )
        .unwrap();
        // The very first global transaction (gtid 1) crashes in doubt:
        // prepared on both partitions, the coordinator dies at the commit
        // point before its decision is durable — decided nowhere.
        crash_atomic_submission(cluster, "pre-commit-point-fsync", straddling_rows_from(700));
    }
    {
        // First recovery: gtid 1 presumes abort; a fresh transaction is
        // then committed — it must get a NEW gtid.
        let recovered = Cluster::recover(
            2,
            RouteSpec::hash(0),
            16,
            &builder(),
            deploy_count_events_multi,
            &[],
        )
        .unwrap();
        let n: i64 = recovered
            .query_all("SELECT COUNT(*) FROM totals", &[])
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .sum();
        assert_eq!(n, 0, "in-doubt fragment must abort");
        recovered
            .submit_batch_atomic("count_events", straddling_rows())
            .unwrap()
            .wait()
            .unwrap();
    }
    // Second recovery: the new transaction's commit record must not
    // resurrect the old fragment's keys (700..708).
    let recovered = Cluster::recover(
        2,
        RouteSpec::hash(0),
        16,
        &builder(),
        deploy_count_events_multi,
        &[],
    )
    .unwrap();
    let keys: Vec<i64> = recovered
        .query_all("SELECT key FROM totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect();
    assert!(
        keys.iter().all(|k| !(700..708).contains(k)),
        "aborted in-doubt fragment resurrected: keys {keys:?}"
    );
    assert_eq!(keys.len(), 8, "the committed transaction must survive");
    drop(recovered);
    std::fs::remove_dir_all(dir).ok();
}

/// An in-doubt fragment left by a crash between prepare and decide
/// aborts across the cluster: the coordinator's decision log is silent
/// about the gtid, so every partition presumes abort and the cluster
/// converges to the pre-transaction state.
#[test]
fn cluster_recovery_presumes_abort_for_in_doubt_fragment() {
    let _guard = fault_lock();
    let dir = tempdir("indoubt");
    {
        let cluster = Cluster::with_config(
            2,
            RouteSpec::hash(0),
            16,
            &SStoreBuilder::new().durability(&dir, 1),
            deploy_count_events_multi,
        )
        .unwrap();
        cluster
            .submit_batch_atomic("count_events", straddling_rows())
            .unwrap()
            .wait()
            .unwrap();
        // The next global transaction crashes after phase 1: every
        // participant's yes-vote (prepare record) is durable, but the
        // coordinator dies at the commit point before its decision is —
        // the fragments are in doubt on disk.
        crash_atomic_submission(cluster, "pre-commit-point-fsync", straddling_rows_from(100));
    }
    let recovered = Cluster::recover(
        2,
        RouteSpec::hash(0),
        16,
        &SStoreBuilder::new().durability(&dir, 1),
        deploy_count_events_multi,
        &[],
    )
    .unwrap();
    let n: i64 = recovered
        .query_all("SELECT SUM(n) FROM totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(n, 8, "in-doubt fragments must not commit");
    let m = recovered.metrics();
    assert_eq!(
        m.partitions.iter().map(|p| p.twopc_aborts).sum::<u64>(),
        2,
        "both in-doubt fragments abort"
    );
    // The committed transaction replayed; work continues.
    recovered
        .submit_batch_atomic("count_events", straddling_rows())
        .unwrap()
        .wait()
        .unwrap();
    drop(recovered);
    std::fs::remove_dir_all(dir).ok();
}

/// A crash immediately **after** the commit point (the decision fsync
/// succeeded; no participant ever heard phase 2) must COMMIT the in-doubt
/// fragments at recovery: the coordinator's durable decision log — not
/// presumed abort — resolves them, and the transaction survives.
#[test]
fn commit_point_crash_completes_phase_two_at_recovery() {
    let _guard = fault_lock();
    let dir = tempdir("commit-point");
    {
        let cluster = Cluster::with_config(
            2,
            RouteSpec::hash(0),
            16,
            &SStoreBuilder::new().durability(&dir, 1),
            deploy_count_events_multi,
        )
        .unwrap();
        crash_atomic_submission(cluster, "post-commit-point-fsync", straddling_rows());
    }
    let recovered = Cluster::recover(
        2,
        RouteSpec::hash(0),
        16,
        &SStoreBuilder::new().durability(&dir, 1),
        deploy_count_events_multi,
        &[],
    )
    .unwrap();
    let n: i64 = recovered
        .query_all("SELECT SUM(n) FROM totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(
        n, 8,
        "a decided commit must survive — recovery finishes phase 2"
    );
    let m = recovered.metrics();
    assert_eq!(
        m.partitions.iter().map(|p| p.twopc_commits).sum::<u64>(),
        2,
        "both fragments resolve as committed from the coordinator log"
    );
    drop(recovered);
    std::fs::remove_dir_all(dir).ok();
}

/// Group-commit size 1, where every append syncs: a participant that
/// crashes after logging the coordinator's commit decision — but before
/// applying it — has the record on disk and finishes the commit from its
/// **local** decision record at replay. (At larger group sizes the record
/// is still in the buffer; see
/// [`participant_crash_with_decision_still_buffered_commits_from_coord_log`].)
#[test]
fn participant_crash_after_decision_logged_replays_the_commit() {
    let _guard = fault_lock();
    let dir = tempdir("decide-delivered");
    {
        let cluster = Cluster::with_config(
            2,
            RouteSpec::hash(0),
            16,
            &SStoreBuilder::new().durability(&dir, 1),
            deploy_count_events_multi,
        )
        .unwrap();
        // Both participants die inside phase 2 (the armed point is
        // sticky): each has PrepareMarker + Decision(commit) durable and
        // no effects applied.
        crash_atomic_submission(cluster, "decide-delivered", straddling_rows());
    }
    let recovered = Cluster::recover(
        2,
        RouteSpec::hash(0),
        16,
        &SStoreBuilder::new().durability(&dir, 1),
        deploy_count_events_multi,
        &[],
    )
    .unwrap();
    let n: i64 = recovered
        .query_all("SELECT SUM(n) FROM totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(n, 8, "locally-decided commit must be applied by replay");
    let m = recovered.metrics();
    assert_eq!(m.partitions.iter().map(|p| p.twopc_commits).sum::<u64>(), 2);
    // Exactly once: a second recovery replays to the same state.
    drop(recovered);
    let again = Cluster::recover(
        2,
        RouteSpec::hash(0),
        16,
        &SStoreBuilder::new().durability(&dir, 1),
        deploy_count_events_multi,
        &[],
    )
    .unwrap();
    let n: i64 = again
        .query_all("SELECT SUM(n) FROM totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(n, 8, "replay of the replay must not double-apply");
    drop(again);
    std::fs::remove_dir_all(dir).ok();
}

/// The benchmark's flush policy (group commit 8) defers the participant's
/// `Decision` record to the next sync. Kill both participants at
/// `decide-delivered`: the record sits in the group buffer, which the
/// log's `Drop` discards while panicking, so on disk each partition holds
/// a prepare record and no decision. `Cluster::recover` must commit the
/// gtid from `coord.log` — exactly once, and to the same state when it
/// recovers a second time (the first recovery wrote the decision down).
///
/// A supervised worker would restart from disk on its own and re-log the
/// decision before `Cluster::recover` saw the directory, so each worker's
/// restart budget (`MAX_WORKER_RESTARTS`, 3) is spent first:
/// the kill then leaves the partitions down and the disk untouched.
#[test]
fn participant_crash_with_decision_still_buffered_commits_from_coord_log() {
    let _guard = fault_lock();
    let dir = tempdir("decide-buffered");
    let recover = || {
        Cluster::recover(
            2,
            RouteSpec::hash(0),
            16,
            &SStoreBuilder::new().durability(&dir, 8),
            deploy_count_events_multi,
            &[],
        )
        .unwrap()
    };
    let committed_rows = |cluster: &Cluster| -> i64 {
        cluster
            .query_all("SELECT SUM(n) FROM totals", &[])
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .sum()
    };
    {
        let cluster = Cluster::with_config(
            2,
            RouteSpec::hash(0),
            16,
            &SStoreBuilder::new().durability(&dir, 8),
            deploy_count_events_multi,
        )
        .unwrap();
        for i in 0..2 {
            for _ in 0..3 {
                let _ = cluster.with_partition(i, |_| panic!("spend the restart budget"));
            }
        }
        assert_eq!(cluster.metrics().worker_restarts, 6);

        fault::arm("decide-delivered", 1, KillMode::Panic);
        let outcome = cluster
            .submit_batch_atomic("count_events", straddling_rows())
            .and_then(|t| t.wait());
        assert!(outcome.is_err(), "both participants die inside phase 2");
        fault::disarm();
        assert_eq!(cluster.coordinator_stats().commits, 1);
        // Down, not restarted: nobody re-ran recovery over the directory.
        assert_eq!(
            cluster
                .query_all("SELECT 1 FROM totals", &[])
                .unwrap_err()
                .kind(),
            "partition_down"
        );
        assert_eq!(cluster.metrics().worker_restarts, 6);
        std::mem::forget(cluster);
    }
    let recovered = recover();
    assert_eq!(
        committed_rows(&recovered),
        8,
        "coord.log decides the commit"
    );
    let m = recovered.metrics();
    assert_eq!(m.partitions.iter().map(|p| p.twopc_commits).sum::<u64>(), 2);
    drop(recovered);
    let again = recover();
    assert_eq!(committed_rows(&again), 8, "exactly once");
    drop(again);
    std::fs::remove_dir_all(dir).ok();
}

/// Coordinator-log compaction drops commit records, so it may only run
/// once every participant's local `Decision` is on disk — and at group
/// commit 8 the newest one is still in the buffer. Drive enough
/// straddling commits to cross the compaction threshold, freeze the
/// machine right after the compaction, and recover: every acknowledged
/// commit must still be committed. (Without the log sync inside the
/// compaction barrier the last transaction's prepare record finds no
/// decision anywhere and is presumed aborted.)
#[test]
fn compaction_never_drops_a_commit_a_participant_has_not_synced() {
    let _guard = fault_lock();
    let dir = tempdir("compact-sync");
    let commits = sstore_core::COORD_COMPACT_EVERY;
    {
        let cluster = Cluster::with_config(
            2,
            RouteSpec::hash(0),
            16,
            &SStoreBuilder::new().durability(&dir, 8),
            deploy_count_events_multi,
        )
        .unwrap();
        for _ in 0..commits {
            cluster
                .submit_batch_atomic("count_events", straddling_rows())
                .unwrap()
                .wait()
                .unwrap();
        }
        assert_eq!(cluster.coordinator_stats().log_compactions, 1);
        // A machine crash: no drop, so no log flushes its buffer.
        std::mem::forget(cluster);
    }
    let recovered = Cluster::recover(
        2,
        RouteSpec::hash(0),
        16,
        &SStoreBuilder::new().durability(&dir, 8),
        deploy_count_events_multi,
        &[],
    )
    .unwrap();
    let n: i64 = recovered
        .query_all("SELECT SUM(n) FROM totals", &[])
        .unwrap()
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .sum();
    assert_eq!(n, 8 * commits as i64, "an acknowledged commit was lost");
    drop(recovered);
    std::fs::remove_dir_all(dir).ok();
}

/// A crash inside the commit-point write (`coord-log-mid-write`) leaves
/// half a decision frame on `coord.log`. The decision was never durable,
/// so recovery presumes abort for its fragments; reopening the log trims
/// the torn bytes, so the next round's decision lands on the intact
/// prefix, under a fresh gtid, and survives a second recovery.
#[test]
fn torn_coordinator_decision_recovers_and_never_reuses_a_gtid() {
    let _guard = fault_lock();
    let dir = tempdir("coord-tear");
    let builder = || SStoreBuilder::new().durability(&dir, 1);
    let recover = || {
        Cluster::recover(
            2,
            RouteSpec::hash(0),
            16,
            &builder(),
            deploy_count_events_multi,
            &[],
        )
        .unwrap()
    };
    let keys = |cluster: &Cluster| -> Vec<i64> {
        let mut keys: Vec<i64> = cluster
            .query_all("SELECT key FROM totals", &[])
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        keys.sort();
        keys
    };
    {
        let cluster = Cluster::with_config(
            2,
            RouteSpec::hash(0),
            16,
            &builder(),
            deploy_count_events_multi,
        )
        .unwrap();
        // gtid 1 commits; gtid 2 tears inside its decision write.
        cluster
            .submit_batch_atomic("count_events", straddling_rows())
            .unwrap()
            .wait()
            .unwrap();
        crash_atomic_submission(cluster, "coord-log-mid-write", straddling_rows_from(700));
    }
    {
        let recovered = recover();
        assert_eq!(keys(&recovered), (0..8).collect::<Vec<_>>());
        let m = recovered.metrics();
        assert_eq!(
            m.partitions.iter().map(|p| p.twopc_aborts).sum::<u64>(),
            2,
            "both fragments of the torn decision presume abort"
        );
        recovered
            .submit_batch_atomic("count_events", straddling_rows_from(800))
            .unwrap()
            .wait()
            .unwrap();
        let stats = recovered.coordinator_stats();
        assert_eq!(
            (stats.multi_partition_txns, stats.commits, stats.aborts),
            (1, 1, 0)
        );
    }
    let recovered = recover();
    let expected: Vec<i64> = (0..8).chain(800..808).collect();
    assert_eq!(keys(&recovered), expected, "the torn round stays aborted");
    drop(recovered);
    // The committed decisions on file: the torn gtid 2 is gone, and the
    // round after the crash took gtid 3 rather than reusing it.
    let mut gtids = Vec::new();
    durable::for_each_frame(&dir.join("coord.log"), codec::COORD_MAGIC, |payload| {
        let mut r = codec::Reader::new(payload);
        assert_eq!(r.u8()?, 0, "a decision frame");
        gtids.push(r.uvarint()?);
        Ok(())
    })
    .unwrap();
    assert_eq!(gtids, vec![1, 3]);
    std::fs::remove_dir_all(dir).ok();
}
