//! Schemas and stored procedures of the three non-Voter workloads and the
//! layer ladder. They live here, not in `sstore_core::workloads`, because
//! later changes may not edit the benchmark: the deployed application has
//! to be frozen with it.

use sstore_common::{Column, DataType, Result, Schema, Value};
use sstore_core::{ProcSpec, SStore, TriggerEvent};

/// The `(key, n, total)` counter table every ingest-shaped procedure and
/// every ladder rung works on, and the three point statements on it.
pub const TOTALS_DDL: &str = "CREATE TABLE totals (key INT NOT NULL, n INT NOT NULL, \
                              total INT NOT NULL, PRIMARY KEY (key))";
/// [`TOTALS_DDL`] as a storage schema, for the callers below the SQL layer.
pub fn totals_schema() -> Schema {
    let int = |name| Column::new(name, DataType::Int);
    Schema::new(vec![int("key"), int("n"), int("total")], &["key"]).expect("static schema")
}
/// Probe a key.
pub const GET: &str = "SELECT key FROM totals WHERE key = ?";
/// First sighting of a key.
pub const INIT: &str = "INSERT INTO totals VALUES (?, 1, ?)";
/// Every later sighting.
pub const BUMP: &str = "UPDATE totals SET n = n + 1, total = total + ? WHERE key = ?";

/// Upsert one `(key, amount)` row into a `(key, n, total)` table through
/// the three prepared point statements `get`/`init`/`bump`.
fn upsert(ctx: &mut sstore_core::ProcContext<'_>, key: Value, amount: Value) -> Result<()> {
    let seen = ctx.exec("get", std::slice::from_ref(&key))?;
    if seen.rows.is_empty() {
        ctx.exec("init", &[key, amount])?;
    } else {
        ctx.exec("bump", &[amount, key])?;
    }
    Ok(())
}

fn count_events_spec(multi_partition: bool) -> ProcSpec {
    let spec = ProcSpec::new("count_events", |ctx| {
        for row in ctx.input().rows.clone() {
            upsert(ctx, row[0].clone(), row[1].clone())?;
        }
        Ok(())
    })
    .consumes("ev")
    .stmt("get", GET)
    .stmt("init", INIT)
    .stmt("bump", BUMP);
    if multi_partition {
        spec.multi_partition()
    } else {
        spec
    }
}

fn deploy_totals(db: &mut SStore, multi_partition: bool) -> Result<()> {
    db.ddl("CREATE STREAM ev (key INT, amount INT)")?;
    db.ddl(TOTALS_DDL)?;
    db.register(count_events_spec(multi_partition))?;
    Ok(())
}

/// `ingest_durable_2p`: an `ev (key, amount)` stream feeding per-key
/// counters in `totals` — three point statements per row, partitionable
/// by `key`, never a global transaction.
pub fn deploy_ingest(db: &mut SStore) -> Result<()> {
    deploy_totals(db, false)
}

/// The cross-partition edge of [`deploy_xpart`]: `hand_off` routes by its
/// destination key (column 0).
pub const XPART_EDGES: &[(&str, usize)] = &[("hand_off", 0)];

/// `xpart_2p`: the multi-partition `count_events` (a straddling batch is
/// one 2PC transaction) plus the two-stage workflow `route_events →
/// hand_off → apply_events`, whose tuples hop to the partition owning
/// their destination key.
pub fn deploy_xpart(db: &mut SStore) -> Result<()> {
    deploy_totals(db, true)?;
    db.ddl("CREATE STREAM routed (src INT, dest INT, amount INT)")?;
    db.ddl("CREATE STREAM hand_off (dest INT, amount INT)")?;
    db.ddl("CREATE TABLE src_counts (key INT NOT NULL, n INT NOT NULL, PRIMARY KEY (key))")?;
    db.ddl(
        "CREATE TABLE dest_totals (key INT NOT NULL, n INT NOT NULL, \
         total INT NOT NULL, PRIMARY KEY (key))",
    )?;
    db.register(
        ProcSpec::new("route_events", |ctx| {
            for row in ctx.input().rows.clone() {
                let src = row[0].clone();
                let seen = ctx.exec("get", std::slice::from_ref(&src))?;
                if seen.rows.is_empty() {
                    ctx.exec("init", &[src])?;
                } else {
                    ctx.exec("bump", &[src])?;
                }
                ctx.emit(vec![row[1].clone(), row[2].clone()])?;
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
            for row in ctx.input().rows.clone() {
                upsert(ctx, row[0].clone(), row[1].clone())?;
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

/// Rows of the ladder's window; one slide (and so one EE trigger firing)
/// per 64-row batch.
pub const LADDER_WINDOW_DDL: &str = "CREATE WINDOW ladder_w (amount INT) ROWS 64 SLIDE 64";
/// What the ladder's slide trigger runs.
pub const LADDER_TRIGGER_SQL: &str = "UPDATE ladder_slides SET n = n + 1 WHERE k = 0";

/// The cross-partition edge of the `core_edge` ladder rung.
pub const LADDER_EDGES: &[(&str, usize)] = &[("ladder_out", 0)];

/// Tables, stream, window and slide trigger every ladder rung from
/// `engine` up works against (the `storage` and `sql` rungs use only
/// `totals`).
pub fn ladder_schema(ddl: &mut dyn FnMut(&str) -> Result<()>) -> Result<()> {
    ddl(TOTALS_DDL)?;
    ddl("CREATE TABLE ladder_slides (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")?;
    ddl("CREATE STREAM ladder_in (key INT, amount INT)")?;
    ddl("CREATE STREAM ladder_out (key INT, amount INT)")?;
    ddl(LADDER_WINDOW_DDL)
}

/// The ladder application as the `txn` and `core*` rungs deploy it: per
/// row a PK probe then insert-or-update, a window insert (one slide
/// trigger per batch) and an emit onto `ladder_out`, which a trivial
/// `ladder_sink` consumes — locally, or across the edge on `core_edge`.
pub fn deploy_ladder(db: &mut SStore) -> Result<()> {
    ladder_schema(&mut |sql| db.ddl(sql).map(|_| ()))?;
    db.setup_sql("INSERT INTO ladder_slides VALUES (0, 0)", &[])?;
    db.create_ee_trigger(
        "ladder_slide",
        "ladder_w",
        TriggerEvent::OnSlide,
        &[LADDER_TRIGGER_SQL],
    )?;
    db.register(
        ProcSpec::new("ladder", |ctx| {
            for row in ctx.input().rows.clone() {
                upsert(ctx, row[0].clone(), row[1].clone())?;
                ctx.exec("win", std::slice::from_ref(&row[1]))?;
                // Re-keyed, so that on the edge rung about half the
                // emitted tuples leave the partition that produced them.
                ctx.emit(vec![Value::Int(row[0].as_int()? + 1), row[1].clone()])?;
            }
            Ok(())
        })
        .consumes("ladder_in")
        .emits("ladder_out")
        .stmt("get", GET)
        .stmt("init", INIT)
        .stmt("bump", BUMP)
        .stmt("win", "INSERT INTO ladder_w VALUES (?)"),
    )?;
    db.register(ProcSpec::new("ladder_sink", |_ctx| Ok(())).consumes("ladder_out"))?;
    Ok(())
}

/// Rows of `events` at the start of a `query_mix_1p` run.
pub const QM_EVENTS: usize = 256 * 1024;
/// Rows of `dims`; `events.k` ranges over it.
pub const QM_DIMS: i64 = 256;
/// Distinct `events.tag` values.
pub const QM_TAGS: i64 = 64;
/// Rows the `recent` sliding window holds.
pub const QM_WINDOW: usize = 64 * 1024;

/// `query_mix_1p`: `events`, `dims`, the `recent` window, and the border
/// procedure that applies one write batch (`op` 0 = update a hot row,
/// 1 = insert a new event, which also enters the window).
pub fn deploy_query_mix(db: &mut SStore, window_rows: usize) -> Result<()> {
    db.ddl(
        "CREATE TABLE events (id INT NOT NULL, k INT NOT NULL, v FLOAT NOT NULL, \
         w INT NOT NULL, tag VARCHAR NOT NULL, PRIMARY KEY (id))",
    )?;
    db.ddl(
        "CREATE TABLE dims (k INT NOT NULL, name VARCHAR NOT NULL, grp INT NOT NULL, \
         PRIMARY KEY (k))",
    )?;
    db.ddl(&format!(
        "CREATE WINDOW recent (id INT, w INT) ROWS {window_rows} SLIDE 64"
    ))?;
    db.ddl("CREATE STREAM writes (op INT, id INT, k INT, v FLOAT, w INT, tag VARCHAR)")?;
    db.register(
        ProcSpec::new("apply_writes", |ctx| {
            for row in ctx.input().rows.clone() {
                if row[0].as_int()? == 0 {
                    ctx.exec("update", &[row[4].clone(), row[3].clone(), row[1].clone()])?;
                } else {
                    ctx.exec("insert", &row[1..])?;
                    ctx.exec("window", &[row[1].clone(), row[4].clone()])?;
                }
            }
            Ok(())
        })
        .consumes("writes")
        .stmt("update", "UPDATE events SET w = ?, v = ? WHERE id = ?")
        .stmt("insert", "INSERT INTO events VALUES (?, ?, ?, ?, ?)")
        .stmt("window", "INSERT INTO recent VALUES (?, ?)"),
    )?;
    Ok(())
}
