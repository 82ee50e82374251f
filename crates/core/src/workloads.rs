//! Reference workloads shared by the cluster integration tests, the
//! router property suite and the observability tests.
//!
//! Keeping these in one place means every consumer — including the E9
//! determinism check, which compares a partitioned run byte-for-byte
//! against the single-partition reference — deploys the *same* schema and
//! procedure; a copy-paste drift between two tests of one workload would
//! otherwise go unnoticed.

use crate::SStore;
use sstore_common::{Result, Row, Value};
use sstore_txn::ProcSpec;

/// Deploy the `count_events` workload: a `ev (key, amount)` stream feeding
/// per-key counters in a `totals` table. Embarrassingly partitionable by
/// `key` (column 0) — the shape the shared-nothing runtime is built for.
pub fn deploy_count_events(db: &mut SStore) -> Result<()> {
    db.ddl("CREATE STREAM ev (key INT, amount INT)")?;
    db.ddl(
        "CREATE TABLE totals (key INT NOT NULL, n INT NOT NULL, \
            total INT NOT NULL, PRIMARY KEY (key))",
    )?;
    db.register(
        ProcSpec::new("count_events", |ctx| {
            for row in &ctx.input().rows {
                let key = row[0].clone();
                let amount = row[1].clone();
                let seen = ctx.exec("get", std::slice::from_ref(&key))?;
                if seen.rows.is_empty() {
                    ctx.exec("init", &[key, amount])?;
                } else {
                    ctx.exec("bump", &[amount, key])?;
                }
            }
            Ok(())
        })
        .consumes("ev")
        .stmt("get", "SELECT key FROM totals WHERE key = ?")
        .stmt("init", "INSERT INTO totals VALUES (?, 1, ?)")
        .stmt(
            "bump",
            "UPDATE totals SET n = n + 1, total = total + ? WHERE key = ?",
        ),
    )?;
    Ok(())
}

/// Deterministic `count_events` input rows: key `i % key_mod`, amount
/// `i % amount_mod`. Benches use wide key spaces (many keys per
/// partition); tests use narrow ones (collisions exercise the
/// init-vs-bump path).
pub fn count_events_rows(n: usize, key_mod: i64, amount_mod: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::from([
                Value::Int(i as i64 % key_mod),
                Value::Int(i as i64 % amount_mod),
            ])
        })
        .collect()
}

/// The `count_events` workload with the procedure declared
/// `multi_partition`: a border batch whose keys straddle partitions runs
/// as one global transaction under the cluster's 2PC coordinator
/// (single-partition batches take the fast path unchanged).
pub fn deploy_count_events_multi(db: &mut SStore) -> Result<()> {
    db.ddl("CREATE STREAM ev (key INT, amount INT)")?;
    db.ddl(
        "CREATE TABLE totals (key INT NOT NULL, n INT NOT NULL, \
            total INT NOT NULL, PRIMARY KEY (key))",
    )?;
    db.register(
        ProcSpec::new("count_events", |ctx| {
            for row in &ctx.input().rows {
                let key = row[0].clone();
                let amount = row[1].clone();
                if amount.as_int()? < 0 {
                    // A poison amount: this fragment votes no, aborting
                    // the whole global transaction (tests use this to
                    // exercise the abort round).
                    return Err(ctx.abort("negative amount"));
                }
                let seen = ctx.exec("get", std::slice::from_ref(&key))?;
                if seen.rows.is_empty() {
                    ctx.exec("init", &[key, amount])?;
                } else {
                    ctx.exec("bump", &[amount, key])?;
                }
            }
            Ok(())
        })
        .consumes("ev")
        .multi_partition()
        .stmt("get", "SELECT key FROM totals WHERE key = ?")
        .stmt("init", "INSERT INTO totals VALUES (?, 1, ?)")
        .stmt(
            "bump",
            "UPDATE totals SET n = n + 1, total = total + ? WHERE key = ?",
        ),
    )?;
    Ok(())
}

/// A two-stage workflow with a cross-partition edge: `route_events`
/// (stage 1, partitioned by source key, column 0) counts per-source
/// traffic and re-emits each tuple keyed by its *destination*; the
/// `hand_off` stream carries the edge, and `apply_events` (stage 2, on
/// the partition owning the destination key) applies the amounts to
/// `dest_totals`. Deploy with [`TWO_STAGE_EDGES`] on the cluster so
/// stage 2 runs where the destination lives.
pub fn deploy_two_stage(db: &mut SStore) -> Result<()> {
    db.ddl("CREATE STREAM routed (src INT, dest INT, amount INT)")?;
    db.ddl("CREATE STREAM hand_off (dest INT, amount INT)")?;
    db.ddl("CREATE TABLE src_counts (key INT NOT NULL, n INT NOT NULL, PRIMARY KEY (key))")?;
    db.ddl(
        "CREATE TABLE dest_totals (key INT NOT NULL, n INT NOT NULL, \
            total INT NOT NULL, PRIMARY KEY (key))",
    )?;
    db.register(
        ProcSpec::new("route_events", |ctx| {
            for row in &ctx.input().rows {
                let src = row[0].clone();
                let seen = ctx.exec("get", std::slice::from_ref(&src))?;
                if seen.rows.is_empty() {
                    ctx.exec("init", &[src])?;
                } else {
                    ctx.exec("bump", &[src])?;
                }
                ctx.emit([row[1].clone(), row[2].clone()])?;
            }
            Ok(())
        })
        .consumes("routed")
        .emits("hand_off")
        .stmt("get", "SELECT key FROM src_counts WHERE key = ?")
        .stmt("init", "INSERT INTO src_counts VALUES (?, 1)")
        .stmt("bump", "UPDATE src_counts SET n = n + 1 WHERE key = ?"),
    )?;
    db.register(
        ProcSpec::new("apply_events", |ctx| {
            for row in &ctx.input().rows {
                let dest = row[0].clone();
                let amount = row[1].clone();
                let seen = ctx.exec("get", std::slice::from_ref(&dest))?;
                if seen.rows.is_empty() {
                    ctx.exec("init", &[dest, amount])?;
                } else {
                    ctx.exec("bump", &[amount, dest])?;
                }
            }
            Ok(())
        })
        .consumes("hand_off")
        .stmt("get", "SELECT key FROM dest_totals WHERE key = ?")
        .stmt("init", "INSERT INTO dest_totals VALUES (?, 1, ?)")
        .stmt(
            "bump",
            "UPDATE dest_totals SET n = n + 1, total = total + ? WHERE key = ?",
        ),
    )?;
    Ok(())
}

/// The cross-partition edge declaration for [`deploy_two_stage`]:
/// `hand_off` routes by its destination key (column 0).
pub const TWO_STAGE_EDGES: &[(&str, usize)] = &[("hand_off", 0)];

/// Deterministic [`deploy_two_stage`] input rows: `(src, dest, amount)`
/// with sources and destinations cycling through disjoint residues so
/// most tuples hop partitions.
pub fn two_stage_rows(n: usize, key_mod: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::from([
                Value::Int(i as i64 % key_mod),
                Value::Int((i as i64 + 1) % key_mod),
                Value::Int(i as i64 % 7),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SStoreBuilder;

    #[test]
    fn count_events_counts() {
        let mut db = SStoreBuilder::new().build().unwrap();
        deploy_count_events(&mut db).unwrap();
        db.submit_batch("count_events", count_events_rows(10, 5, 3))
            .unwrap();
        let n: i64 = db
            .query("SELECT SUM(n) FROM totals", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(n, 10);
    }
}
