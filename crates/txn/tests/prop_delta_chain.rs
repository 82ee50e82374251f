//! Property test for incremental delta snapshots: recovering through a
//! base-plus-deltas chain must be indistinguishable from recovering a
//! partition configured to write full images only
//! (`delta_chain_cap = 0`). The workload mixes the state the chain has
//! to carry faithfully:
//!
//! * **window arrivals** — a ROWS 4 SLIDE 2 window with slide eviction
//!   and deliberate aborts, so delta journals include inserts, deletes,
//!   and rollback-restored slots;
//! * **edge high-water marks** — inbound forwards (with deliberate
//!   duplicates) advance the per-(source, stream) dedup watermark;
//! * **unacked outbox envelopes** — outbound cross-edge emissions whose
//!   acks never arrive, which recovery must re-stage exactly once.

use proptest::prelude::*;
use sstore_common::{Result, Row, Value};
use sstore_storage::snapshot::Snapshot;
use sstore_txn::log::LogRetention;
use sstore_txn::recovery::recover;
use sstore_txn::{LogConfig, Partition, PeConfig, ProcSpec};

/// Window pipeline + an outbound cross-edge border proc + an inbound
/// forward consumer. Deterministic, so recovery can redeploy it.
fn deploy(p: &mut Partition) -> Result<()> {
    p.ddl("CREATE STREAM w_in (v INT)")?;
    p.ddl("CREATE WINDOW w (v INT) ROWS 4 SLIDE 2")?;
    p.ddl("CREATE TABLE totals (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")?;
    p.setup_sql("INSERT INTO totals VALUES (0, 0)", &[])?;
    p.register(
        ProcSpec::new("keeper", |ctx| {
            for row in ctx.input().rows.clone() {
                let v = row[0].as_int()?;
                ctx.exec("win", &[Value::Int(v)])?;
                if v < 0 {
                    return Err(ctx.abort("negative tuple"));
                }
                ctx.exec("bump", &[Value::Int(v)])?;
            }
            Ok(())
        })
        .consumes("w_in")
        .owns_window("w")
        .stmt("win", "INSERT INTO w VALUES (?)")
        .stmt("bump", "UPDATE totals SET n = n + ? WHERE k = 0"),
    )?;

    // Outbound: emissions onto `feed_out` buffer in the outbox.
    p.ddl("CREATE STREAM feed_in (k INT)")?;
    p.ddl("CREATE STREAM feed_out (k INT)")?;
    p.register(
        ProcSpec::new("feed", |ctx| {
            for row in ctx.input().rows.clone() {
                ctx.emit(row)?;
            }
            Ok(())
        })
        .consumes("feed_in")
        .emits("feed_out"),
    )?;
    p.declare_cross_edge("feed_out", 0)?;

    // Inbound: forwards from a fictional partition 1 land on `fwd_in`.
    p.ddl("CREATE STREAM fwd_in (v INT)")?;
    p.ddl("CREATE TABLE fwd_stats (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")?;
    p.setup_sql("INSERT INTO fwd_stats VALUES (0, 0)", &[])?;
    p.register(
        ProcSpec::new("fwd_count", |ctx| {
            let n = ctx.input().len() as i64;
            ctx.exec("bump", &[Value::Int(n)])?;
            Ok(())
        })
        .consumes("fwd_in")
        .stmt("bump", "UPDATE fwd_stats SET n = n + ? WHERE k = 0"),
    )?;
    Ok(())
}

/// The partition's state as the bytes of a full snapshot image: exactly
/// what recovery reads back, so floats compare by bits and hash-index
/// entries in sorted order.
fn db_bytes(p: &Partition) -> Vec<u8> {
    Snapshot::capture(p.engine().db(), None, None, 0).encode_binary()
}

/// One interleaved step of the workload.
#[derive(Debug, Clone)]
enum Op {
    /// Window batch (negatives abort the TE).
    Window(Vec<i64>),
    /// Cross-edge emission; `acked` = the remote ack arrives before the
    /// crash. Unacked envelopes must be re-staged by recovery.
    Feed { keys: Vec<i64>, acked: bool },
    /// Inbound forward with an explicit source batch id; non-monotone
    /// ids exercise the high-water dedup.
    Forward { src_batch: u64, vals: Vec<i64> },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(-3i64..40, 1..5).prop_map(Op::Window),
        (prop::collection::vec(0i64..8, 1..4), any::<bool>())
            .prop_map(|(keys, acked)| Op::Feed { keys, acked }),
        (1u64..6, prop::collection::vec(0i64..50, 1..4))
            .prop_map(|(src_batch, vals)| Op::Forward { src_batch, vals }),
    ]
}

/// Staged outbox envelopes: (stream, batch, rows).
type Envelopes = Vec<(String, u64, Vec<Row>)>;

/// Run the workload on a fresh partition over `dir`. Returns the
/// envelopes that were never acked (what recovery must re-stage).
fn run_workload(config: &PeConfig, ops: &[Op]) -> (Vec<u8>, Envelopes) {
    let mut p = Partition::new(config.clone()).unwrap();
    deploy(&mut p).unwrap();
    let mut unacked = Vec::new();
    for op in ops {
        match op {
            Op::Window(vals) => {
                let rows: Vec<Row> = vals
                    .iter()
                    .map(|v| Row::new(vec![Value::Int(*v)]))
                    .collect();
                let _ = p.submit_batch("keeper", rows);
            }
            Op::Feed { keys, acked } => {
                let rows: Vec<Row> = keys
                    .iter()
                    .map(|k| Row::new(vec![Value::Int(*k)]))
                    .collect();
                let _ = p.submit_batch("feed", rows);
                for env in p.take_outbox() {
                    if *acked {
                        p.edge_acked(env.batch).unwrap();
                    } else {
                        unacked.push((env.stream, env.batch.raw(), env.rows));
                    }
                }
            }
            Op::Forward { src_batch, vals } => {
                let rows: Vec<Row> = vals
                    .iter()
                    .map(|v| Row::new(vec![Value::Int(*v)]))
                    .collect();
                // Duplicates (id at or below the mark) return Ok(None).
                // Accepting only queues the consumer TEs; run them, as
                // the cluster worker loop would.
                let _ = p.accept_forward("fwd_in", 1, *src_batch, rows);
                let _ = p.run_queued();
            }
        }
    }
    (db_bytes(&p), unacked)
}

fn staged(p: &mut Partition) -> Envelopes {
    let mut v: Vec<_> = p
        .take_outbox()
        .into_iter()
        .map(|e| (e.stream, e.batch.raw(), e.rows))
        .collect();
    v.sort_by_key(|(_, b, _)| *b);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same interleaved workload, durably run twice — once with the
    /// default delta-chain policy, once forced to full-image snapshots —
    /// must recover to identical state: database bytes, re-staged
    /// outbox envelopes, and edge dedup watermarks.
    #[test]
    fn delta_chain_recovery_matches_full_snapshot_recovery(
        ops in prop::collection::vec(op_strategy(), 3..20),
        case in 0u64..1_000_000,
    ) {
        let base = std::env::temp_dir().join(format!(
            "sstore-prop-delta-{}-{case}",
            std::process::id()
        ));
        let delta_dir = base.join("delta");
        let full_dir = base.join("full");
        let _ = std::fs::remove_dir_all(&base);

        // Snapshot every 2 commits: plenty of retention points, so the
        // delta run builds real chains (cap 3 forces rewrites too).
        let delta_cfg = PeConfig {
            log: Some(LogConfig::new(&delta_dir).with_delta_chain_cap(3)),
            retention: Some(LogRetention::every_n_commits(2)),
            ..PeConfig::default()
        };
        let full_cfg = PeConfig {
            log: Some(LogConfig::new(&full_dir).with_delta_chain_cap(0)),
            retention: Some(LogRetention::every_n_commits(2)),
            ..PeConfig::default()
        };

        let (live_delta, unacked_delta) = run_workload(&delta_cfg, &ops);
        let (live_full, unacked_full) = run_workload(&full_cfg, &ops);
        // Identical input, identical live state (snapshot policy is
        // invisible to execution).
        prop_assert_eq!(&live_delta, &live_full);
        prop_assert_eq!(&unacked_delta, &unacked_full);

        let mut r_delta = recover(delta_cfg, deploy).unwrap();
        let mut r_full = recover(full_cfg, deploy).unwrap();
        prop_assert_eq!(db_bytes(&r_delta), live_delta);
        prop_assert_eq!(db_bytes(&r_full), live_full);

        // Both policies re-stage the same envelope set. (Replay also
        // re-stages acked envelopes whose records GC hasn't retired yet —
        // the receiver's high-water dedupe absorbs those — so the staged
        // set is a superset of the never-acked envelopes, identical
        // across snapshot policies.)
        let staged_delta = staged(&mut r_delta);
        let staged_full = staged(&mut r_full);
        prop_assert_eq!(&staged_delta, &staged_full);
        for env in &unacked_delta {
            prop_assert!(
                staged_delta.contains(env),
                "unacked envelope {env:?} was not re-staged; staged: {staged_delta:?}"
            );
        }

        // Edge high-water marks survived: a replayed duplicate of the
        // highest forward id is dropped by both recovered partitions.
        let max_fwd = ops.iter().filter_map(|op| match op {
            Op::Forward { src_batch, .. } => Some(*src_batch),
            _ => None,
        }).max();
        if let Some(id) = max_fwd {
            let dup = vec![Row::new(vec![Value::Int(1)])];
            prop_assert_eq!(r_delta.accept_forward("fwd_in", 1, id, dup.clone()).unwrap(), None);
            prop_assert_eq!(r_full.accept_forward("fwd_in", 1, id, dup).unwrap(), None);
        }

        // Snapshot policy check on the directories themselves: cap 0
        // must never write a delta file (`snapshot.d<k>.dat`). The delta
        // dir may or may not have chained — not every generated workload
        // reaches a retention point — so only the negative is asserted.
        let is_delta_file = |name: &str| name.starts_with("snapshot.d") && name != "snapshot.dat";
        let full_chained = std::fs::read_dir(&full_dir)
            .map(|d| {
                d.flatten()
                    .any(|e| is_delta_file(&e.file_name().to_string_lossy()))
            })
            .unwrap_or(false);
        prop_assert!(!full_chained, "cap 0 must never write deltas");
        std::fs::remove_dir_all(&base).ok();
    }
}
