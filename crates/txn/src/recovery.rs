//! Upstream-backup recovery.
//!
//! H-Store recovers from a snapshot plus a command log of inputs; S-Store
//! inherits this and extends it to workflows: because border inputs are the
//! *only* nondeterminism, replaying the logged batches through the same
//! deterministic procedures regenerates every interior stream, window, and
//! table exactly (paper §2, "upstream backup based fault tolerance").
//!
//! Procedures are Rust closures and therefore not serialized; like H-Store,
//! recovery **redeploys** the schema and procedures (the `setup` closure —
//! it must match the pre-crash deployment) and then restores data:
//!
//! 1. run `setup` on a fresh partition (DDL + procedure registration);
//! 2. load the latest snapshot, if any (replaces the database wholesale —
//!    valid because deterministic setup yields identical catalogs);
//! 3. replay log records with batch ids beyond the snapshot, pinning the
//!    logical clock to each record's timestamp.

use crate::log::{read_log, LogConfig, LogRecord};
use crate::partition::{Partition, PeConfig};
use sstore_common::hash::{HashMap, HashSet};
use sstore_common::{BatchId, Result};
use sstore_storage::snapshot::Snapshot;

/// Rebuild a partition from its durable state.
///
/// `setup` must recreate exactly the DDL, indexes, EE triggers, and
/// procedure registrations that the crashed partition had (deterministic
/// redeployment, as in H-Store).
///
/// Prepared-but-undecided 2PC fragments found in the log are aborted
/// deterministically (presumed abort) — use
/// [`recover_with_decisions`] to consult a coordinator decision log
/// instead.
pub fn recover(
    config: PeConfig,
    setup: impl FnOnce(&mut Partition) -> Result<()>,
) -> Result<Partition> {
    recover_with_decisions(config, setup, &HashMap::default())
}

/// [`recover`], resolving in-doubt 2PC fragments against a coordinator's
/// decision log (`gtid → commit?`).
///
/// Outcome resolution for each `PrepareMarker` in the log, in priority
/// order: a local `Decision` record (the participant learned the outcome
/// before the crash); the coordinator's decision log (the coordinator
/// decided but this participant crashed first); otherwise **presumed
/// abort** — the coordinator never logged a commit, so no participant can
/// have committed. Outcomes resolved from the coordinator (or presumed)
/// are appended as fresh local `Decision` records, making the next
/// recovery self-contained.
pub fn recover_with_decisions(
    config: PeConfig,
    setup: impl FnOnce(&mut Partition) -> Result<()>,
    coordinator: &HashMap<u64, bool>,
) -> Result<Partition> {
    let log_cfg: LogConfig = config
        .log
        .clone()
        .ok_or_else(|| sstore_common::Error::Recovery("recovery requires a log dir".into()))?;

    let mut p = Partition::new(config)?;
    setup(&mut p)?;

    // Snapshot (optional): `snapshot.dat` plus any chained delta images
    // (`snapshot.d1.dat`, …).
    let snap_path = log_cfg.snapshot_path();
    if snap_path.exists() {
        let (snapshot, chain_len) =
            Snapshot::read_chain(&snap_path, |k| log_cfg.delta_snapshot_path(k))?;
        p.restore_for_recovery(snapshot, chain_len);
    }

    // Replay the tail of the log.
    let replay_start = std::time::Instant::now();
    let records = read_log(&log_cfg.log_path())?;
    let acked: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Ack { batch } => Some(batch.raw()),
            _ => None,
        })
        .collect();
    let local_decisions: HashMap<u64, bool> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Decision { gtid, commit, .. } => Some((*gtid, *commit)),
            _ => None,
        })
        .collect();
    let unacked: Vec<_> = records
        .iter()
        .filter(|r| r.is_input())
        .map(|r| r.batch())
        .filter(|b| !acked.contains(&b.raw()))
        .collect();
    let mut newly_decided: Vec<(u64, BatchId, bool)> = Vec::new();
    for record in records {
        // Kill point: a fault mid-replay (armed Panic) must surface as a
        // clean per-partition recovery error — the cluster's parallel
        // recovery catches the unwound thread — never a hang or a
        // half-replayed partition handed to a worker.
        sstore_common::fault::kill_point("recovery-mid-replay");
        // An emitted-envelope record of a fully acked batch: the edge
        // completed before the crash, nothing to re-forward.
        if let LogRecord::ForwardOut { batch, .. } = &record {
            if acked.contains(&batch.raw()) {
                continue;
            }
        }
        let decision = if let LogRecord::PrepareMarker { gtid, batch, .. } = &record {
            match local_decisions.get(gtid) {
                Some(&d) => Some(d),
                None => {
                    // In doubt locally: consult the coordinator; silence
                    // there means the commit point was never reached.
                    let d = coordinator.get(gtid).copied();
                    newly_decided.push((*gtid, *batch, d.unwrap_or(false)));
                    d
                }
            }
        } else {
            None
        };
        p.replay_record(record, decision)?;
    }
    p.append_decisions(&newly_decided)?;
    // Replay completed every logged workflow (and snapshot-covered ones
    // completed before the crash), but replay suppresses logging — so
    // batches whose Ack was lost to the torn tail get a fresh Ack now,
    // letting retention GC retire their input records. Batches still
    // holding references (an un-acked cross-partition forward the cluster
    // runtime will re-send) stay open.
    let unacked: Vec<_> = unacked
        .into_iter()
        .filter(|b| !p.has_pending_refs(*b))
        .collect();
    p.ack_batches(&unacked)?;
    sstore_common::obs::record_phase_ns(
        "recovery.log_replay",
        replay_start.elapsed().as_nanos() as u64,
    );
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{read_log, LogConfig};
    use crate::procedure::ProcSpec;
    use sstore_common::Value;
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sstore-rec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn setup(p: &mut Partition) -> Result<()> {
        p.ddl("CREATE STREAM nums (v INT)")?;
        p.ddl("CREATE STREAM doubled (v INT)")?;
        p.ddl("CREATE TABLE sums (k INT NOT NULL, total INT NOT NULL, PRIMARY KEY (k))")?;
        // Seed through a border "init" procedure so it's in the log? No —
        // seed rows must come from setup DDL-equivalent deterministic code,
        // which recovery reruns identically.
        let mut sc = sstore_engine::TxnScratch::new(None, sstore_common::BatchId::new(0));
        p.engine_mut()
            .execute_sql("INSERT INTO sums VALUES (1, 0)", &[], &mut sc, 0)
            .unwrap();
        p.register(
            ProcSpec::new("double", |ctx| {
                for row in ctx.input().rows.clone() {
                    let v = row[0].as_int()?;
                    ctx.emit(vec![Value::Int(v * 2)])?;
                }
                Ok(())
            })
            .consumes("nums")
            .emits("doubled"),
        )?;
        p.register(
            ProcSpec::new("sum", |ctx| {
                let mut s = 0;
                for row in &ctx.input().rows {
                    s += row[0].as_int()?;
                }
                ctx.exec("add", &[Value::Int(s)])?;
                Ok(())
            })
            .consumes("doubled")
            .stmt("add", "UPDATE sums SET total = total + ? WHERE k = 1"),
        )?;
        Ok(())
    }

    fn config(dir: &PathBuf) -> PeConfig {
        PeConfig {
            log: Some(LogConfig::new(dir)),
            ..PeConfig::default()
        }
    }

    fn total(p: &mut Partition) -> i64 {
        p.query("SELECT total FROM sums WHERE k = 1", &[])
            .unwrap()
            .scalar_i64()
            .unwrap()
    }

    #[test]
    fn replay_from_log_only() {
        let dir = tempdir("logonly");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            for i in 1..=5 {
                p.advance_clock(10);
                p.submit_batch("double", vec![vec![Value::Int(i)]]).unwrap();
            }
            assert_eq!(total(&mut p), 30); // 2*(1+..+5)
                                           // Crash: partition dropped without snapshot.
        }
        let mut r = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r), 30);
        // The recovered clock resumed past the last record.
        assert!(r.clock().now() >= 50);
        // And the system keeps working, with fresh batch ids.
        r.submit_batch("double", vec![vec![Value::Int(10)]])
            .unwrap();
        assert_eq!(total(&mut r), 50);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn replay_from_snapshot_plus_log() {
        let _fault = crate::fault_lock();
        let dir = tempdir("snaplog");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            for i in 1..=3 {
                p.submit_batch("double", vec![vec![Value::Int(i)]]).unwrap();
            }
            p.snapshot().unwrap(); // covers batches 1-3, truncates log
            for i in 4..=5 {
                p.submit_batch("double", vec![vec![Value::Int(i)]]).unwrap();
            }
            assert_eq!(total(&mut p), 30);
        }
        let mut r = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r), 30);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_is_idempotent() {
        let dir = tempdir("idem");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            p.submit_batch("double", vec![vec![Value::Int(7)]]).unwrap();
        }
        let mut r1 = recover(config(&dir), setup).unwrap();
        let v1 = total(&mut r1);
        drop(r1);
        let mut r2 = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r2), v1);
        assert_eq!(v1, 14);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_without_log_dir_errors() {
        let err = recover(PeConfig::default(), |_| Ok(())).unwrap_err();
        assert_eq!(err.kind(), "recovery");
    }

    /// A durability dir written by the pre-binary engine — a JSON-lines
    /// command log — is refused: recovery fails with a recovery error,
    /// and opening the log for appends refuses it without touching a byte.
    #[test]
    fn pre_binary_json_dir_is_refused_untouched() {
        let dir = tempdir("backcompat");
        let cfg = LogConfig::new(&dir);
        let json = concat!(
            "{\"BorderBatch\":{\"batch\":1,\"proc\":\"double\",\"rows\":[[{\"Int\":1}]],\"ts\":0}}\n",
            "{\"Ack\":{\"batch\":1}}\n",
        );
        std::fs::write(cfg.log_path(), json).unwrap();

        let err = recover(config(&dir), setup).unwrap_err();
        assert_eq!(err.kind(), "recovery", "{err}");
        let err = crate::log::CommandLog::open(cfg.clone()).unwrap_err();
        assert_eq!(err.kind(), "recovery", "{err}");
        assert_eq!(std::fs::read(cfg.log_path()).unwrap(), json.as_bytes());
        std::fs::remove_dir_all(dir).ok();
    }

    /// A bit flip mid-log fails recovery with a clear recovery error —
    /// no panic, no silent truncation of the suffix.
    #[test]
    fn corrupted_log_fails_recovery_cleanly() {
        let dir = tempdir("corrupt");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            for i in 1..=6 {
                p.submit_batch("double", vec![vec![Value::Int(i)]]).unwrap();
            }
        }
        let log_path = LogConfig::new(&dir).log_path();
        let mut bytes = std::fs::read(&log_path).unwrap();
        // Inside the first record's frame payload: later frames are
        // intact, so this is corruption, not a torn tail.
        let mid =
            sstore_common::codec::FILE_HEADER_LEN + sstore_common::codec::FRAME_HEADER_LEN + 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&log_path, &bytes).unwrap();
        let err = recover(config(&dir), setup).unwrap_err();
        assert_eq!(err.kind(), "recovery");
        assert!(err.to_string().contains("corrupted"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    /// An Ack lost to the torn tail is re-appended after replay, so
    /// retention GC can still retire the batch's input record (the log
    /// drains to empty at the next snapshot instead of leaking the
    /// record forever).
    #[test]
    fn lost_ack_is_reissued_after_replay_so_gc_drains() {
        let _fault = crate::fault_lock();
        use crate::log::{read_log, LogRecord};

        let dir = tempdir("lostack");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            for i in 1..=3 {
                p.submit_batch("double", vec![vec![Value::Int(i)]]).unwrap();
            }
        }
        // Tear the final Ack off the log (its batch record stays).
        let log_path = LogConfig::new(&dir).log_path();
        let records = read_log(&log_path).unwrap();
        assert!(matches!(records.last(), Some(LogRecord::Ack { .. })));
        let mut bytes = std::fs::read(&log_path).unwrap();
        // Last frame = header (8) + ack payload; recompute its size.
        let mut ack_frame = Vec::new();
        let f = sstore_common::codec::begin_frame(&mut ack_frame);
        records.last().unwrap().encode_binary(&mut ack_frame);
        sstore_common::codec::end_frame(&mut ack_frame, f);
        bytes.truncate(bytes.len() - ack_frame.len());
        std::fs::write(&log_path, &bytes).unwrap();

        let mut r = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r), 12);
        // The re-issued Ack lets the retention GC drain the whole log.
        r.snapshot().unwrap();
        assert!(
            read_log(&log_path).unwrap().is_empty(),
            "GC must retire the re-acked batch"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    /// Full crash cycle: crash with a torn tail, recover, keep running,
    /// crash again, recover again. The torn bytes must be trimmed when
    /// the recovered partition reopens the log, or the second recovery
    /// would misread the boundary between old and new records as
    /// corruption and lose everything logged after the first crash.
    #[test]
    fn recover_after_torn_tail_then_crash_again() {
        let dir = tempdir("torncycle");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            for i in 1..=3 {
                p.submit_batch("double", vec![vec![Value::Int(i)]]).unwrap();
            }
        }
        let log_path = LogConfig::new(&dir).log_path();
        let bytes = std::fs::read(&log_path).unwrap();
        std::fs::write(&log_path, &bytes[..bytes.len() - 3]).unwrap();

        let mut r1 = recover(config(&dir), setup).unwrap();
        let after_first = total(&mut r1);
        // Keep running past the crash point; these records append to the
        // (trimmed) log.
        r1.submit_batch("double", vec![vec![Value::Int(100)]])
            .unwrap();
        assert_eq!(total(&mut r1), after_first + 200);
        drop(r1); // second crash

        let mut r2 = recover(config(&dir), setup).unwrap();
        assert_eq!(
            total(&mut r2),
            after_first + 200,
            "records logged after the first recovery must replay"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    /// A torn trailing frame (simulating a crash mid-group-commit) is
    /// dropped; everything fsynced before it replays.
    #[test]
    fn torn_binary_tail_recovers_prefix() {
        let dir = tempdir("torntail");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            for i in 1..=4 {
                p.submit_batch("double", vec![vec![Value::Int(i)]]).unwrap();
            }
        }
        let log_path = LogConfig::new(&dir).log_path();
        let bytes = std::fs::read(&log_path).unwrap();
        // Cut the file mid-way through the final frame.
        std::fs::write(&log_path, &bytes[..bytes.len() - 3]).unwrap();
        let mut r = recover(config(&dir), setup).unwrap();
        // The torn record was the ack of batch 4 or its tail; at minimum
        // batches 1-3 (2*(1+2+3) = 12) are present, and the state is a
        // consistent prefix.
        let recovered = total(&mut r);
        assert!(
            recovered == 12 || recovered == 20,
            "unexpected recovered total {recovered}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    // ---- 2PC crash-point tests -------------------------------------------
    //
    // Each test kills the run at one stage boundary of the two-phase
    // commit protocol (by dropping the partition with the durable state of
    // that moment) and proves recovery converges to a consistent global
    // decision. CI runs these by name.

    /// Crash **between participant prepare and the coordinator decision**:
    /// the log holds a PrepareMarker with no Decision anywhere. The
    /// fragment is in doubt and must abort deterministically (presumed
    /// abort) — and the recovery must write the abort down so the next
    /// recovery agrees.
    #[test]
    fn crash_between_prepare_and_decide_presumes_abort() {
        let dir = tempdir("2pc-indoubt");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            p.submit_batch("double", vec![vec![Value::Int(1)]]).unwrap();
            p.prepare_fragment(42, "double", vec![vec![Value::Int(100)]], None)
                .unwrap();
            // Crash: prepared, voted yes, decision never arrived.
        }
        let mut r = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r), 2, "in-doubt fragment must not commit");
        assert_eq!(r.stats().twopc_in_doubt_aborts, 1);
        assert_eq!(r.prepared_gtid(), None);
        // The presumed abort was logged: a second recovery replays the
        // same outcome without consulting anything.
        drop(r);
        let records = read_log(&LogConfig::new(&dir).log_path()).unwrap();
        assert!(
            records.iter().any(|rec| matches!(
                rec,
                LogRecord::Decision {
                    gtid: 42,
                    commit: false,
                    ..
                }
            )),
            "recovery must append the presumed-abort decision"
        );
        let mut r2 = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r2), 2);
        assert_eq!(r2.stats().twopc_in_doubt_aborts, 0, "no longer in doubt");
        std::fs::remove_dir_all(dir).ok();
    }

    /// Crash **after the coordinator logged commit but before this
    /// participant logged its Decision**: locally in doubt, but the
    /// coordinator's decision log says commit — recovery must commit the
    /// fragment and run its downstream workflow.
    #[test]
    fn crash_after_coordinator_commit_replays_fragment() {
        let dir = tempdir("2pc-coordcommit");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            p.prepare_fragment(7, "double", vec![vec![Value::Int(10)]], None)
                .unwrap();
            // Crash after the coordinator's commit record became durable,
            // before the participant heard about it.
        }
        let decisions: HashMap<u64, bool> = [(7, true)].into_iter().collect();
        let mut r = recover_with_decisions(config(&dir), setup, &decisions).unwrap();
        assert_eq!(
            total(&mut r),
            20,
            "coordinator-committed fragment must replay"
        );
        assert_eq!(r.stats().twopc_commits, 1);
        // The learned decision is now local: recovery without the
        // coordinator converges to the same state.
        drop(r);
        let mut r2 = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r2), 20);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Crash **after the participant logged its commit Decision**: the
    /// local log alone resolves the fragment; no coordinator needed.
    #[test]
    fn crash_after_participant_decision_replays_locally() {
        let dir = tempdir("2pc-localdecision");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            p.prepare_fragment(5, "double", vec![vec![Value::Int(3)]], None)
                .unwrap();
            let outcomes = p.decide_fragment(5, true).unwrap();
            assert!(outcomes.iter().all(|o| o.is_committed()));
            assert_eq!(total(&mut p), 6);
        }
        let mut r = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r), 6);
        // And the system keeps working with fresh ids.
        r.submit_batch("double", vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(total(&mut r), 8);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Crash **after an aborted decision**: replay consumes the same
    /// batch/txn ids without re-running the body, so batches logged after
    /// the abort replay onto identical ids.
    #[test]
    fn crash_after_abort_decision_keeps_later_batches_aligned() {
        let dir = tempdir("2pc-abortalign");
        let reference;
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            p.prepare_fragment(11, "double", vec![vec![Value::Int(50)]], None)
                .unwrap();
            p.decide_fragment(11, false).unwrap();
            p.submit_batch("double", vec![vec![Value::Int(4)]]).unwrap();
            reference = total(&mut p);
            assert_eq!(reference, 8);
        }
        let mut r = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r), reference);
        assert_eq!(r.stats().twopc_aborts, 1);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Crash on the **receiving side of a cross-partition edge** after the
    /// forward was logged: replay re-executes it, and a re-forward of the
    /// same edge instance (the sender's recovery resending) is deduped —
    /// exactly-once across the crash.
    #[test]
    fn crash_after_forward_log_replays_exactly_once() {
        let dir = tempdir("2pc-forward");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            // The upstream half lives on another partition; this one
            // receives `doubled` rows over the edge.
            p.accept_forward("doubled", 0, 3, vec![vec![Value::Int(8)].into()])
                .unwrap();
            p.run_queued().unwrap();
            assert_eq!(total(&mut p), 8);
        }
        let mut r = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r), 8, "forwarded batch must replay");
        // The sender's recovery re-forwards the same edge instance.
        assert!(r
            .accept_forward("doubled", 0, 3, vec![vec![Value::Int(8)].into()])
            .unwrap()
            .is_none());
        assert_eq!(total(&mut r), 8, "re-forward must dedupe");
        assert_eq!(r.stats().forwards_deduped, 1);
        // A genuinely new edge instance still lands.
        assert!(r
            .accept_forward("doubled", 0, 4, vec![vec![Value::Int(1)].into()])
            .unwrap()
            .is_some());
        r.run_queued().unwrap();
        assert_eq!(total(&mut r), 9);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Edge high-water marks survive snapshot + log GC: after the forward
    /// record is GC'd, a re-forward is still deduped on the recovered
    /// partition (the EdgeHighWater record carries the mark).
    #[test]
    fn edge_dedup_survives_snapshot_and_log_gc() {
        let _fault = crate::fault_lock();
        let dir = tempdir("2pc-edgehw");
        {
            let mut p = Partition::new(config(&dir)).unwrap();
            setup(&mut p).unwrap();
            p.accept_forward("doubled", 2, 9, vec![vec![Value::Int(5)].into()])
                .unwrap();
            p.run_queued().unwrap();
            p.snapshot().unwrap(); // GC drops the acked Forward record
            let records = read_log(&LogConfig::new(&dir).log_path()).unwrap();
            assert!(
                !records
                    .iter()
                    .any(|r| matches!(r, LogRecord::Forward { .. })),
                "forward record should be GC'd"
            );
            assert!(
                records
                    .iter()
                    .any(|r| matches!(r, LogRecord::EdgeHighWater { .. })),
                "high-water record must survive GC"
            );
        }
        let mut r = recover(config(&dir), setup).unwrap();
        assert_eq!(total(&mut r), 5);
        assert!(r
            .accept_forward("doubled", 2, 9, vec![vec![Value::Int(5)].into()])
            .unwrap()
            .is_none());
        assert_eq!(total(&mut r), 5);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn hstore_invocations_replay_too() {
        let dir = tempdir("hstore");
        let cfg = || PeConfig {
            mode: crate::ExecMode::HStore,
            log: Some(LogConfig::new(&dir)),
            ..PeConfig::default()
        };
        let hsetup = |p: &mut Partition| -> Result<()> {
            p.ddl("CREATE TABLE acc (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")?;
            let mut sc = sstore_engine::TxnScratch::new(None, sstore_common::BatchId::new(0));
            p.engine_mut()
                .execute_sql("INSERT INTO acc VALUES (1, 0)", &[], &mut sc, 0)
                .unwrap();
            p.register(
                ProcSpec::new("bump", |ctx| {
                    let d = ctx.input().rows[0][0].clone();
                    ctx.exec("u", &[d])?;
                    Ok(())
                })
                .stmt("u", "UPDATE acc SET n = n + ? WHERE k = 1"),
            )?;
            Ok(())
        };
        {
            let mut p = Partition::new(cfg()).unwrap();
            hsetup(&mut p).unwrap();
            for i in 1..=4 {
                p.invoke("bump", vec![vec![Value::Int(i)]]).unwrap();
            }
        }
        let mut r = recover(cfg(), hsetup).unwrap();
        assert_eq!(
            r.query("SELECT n FROM acc WHERE k = 1", &[])
                .unwrap()
                .scalar_i64()
                .unwrap(),
            10
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
