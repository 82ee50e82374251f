//! The execution engine proper.
//!
//! [`ExecutionEngine`] owns the partition's [`Database`], the EE trigger
//! registry, and the engine counters. The partition engine (`sstore-txn`)
//! drives it: one [`ExecutionEngine::execute_planned`] or
//! [`ExecutionEngine::append_row`] call is one PE→EE round trip; EE
//! triggers cascade *inside* that call.

pub use crate::context::EeConfig;
use crate::context::{EeContext, PendingFire};
use crate::gc;
use crate::stats::EeStats;
use crate::triggers::{EeTrigger, TriggerEvent, TriggerRegistry};
use sstore_common::{BatchId, Error, ProcId, Result, Row, TableId, Value};
use sstore_sql::exec::{self, Answer, ExecContext, QueryResult};
use sstore_sql::plan::{DdlOp, PlannedStmt};
use sstore_sql::{parse, plan_statement};
use sstore_storage::catalog::{WindowKind, WindowSpec};
use sstore_storage::{Database, IndexDef, RowId, UndoLog};
use std::collections::VecDeque;

/// Maximum EE trigger cascade depth before the transaction aborts.
const MAX_TRIGGER_DEPTH: u32 = 16;

/// Per-transaction-execution scratch state, owned by the partition engine
/// and threaded through every statement of the TE.
#[derive(Debug, Default)]
pub struct TxnScratch {
    /// Undo log (applied on abort, dropped on commit).
    pub undo: UndoLog,
    /// Visible rows appended to streams during this TE, in insert order.
    /// At commit the PE groups these by stream into output batches.
    pub appended: Vec<(TableId, Row)>,
    /// The executing procedure (None for ad-hoc access).
    pub proc: Option<ProcId>,
    /// The TE's input batch id.
    pub batch: BatchId,
    /// The buffer [`ExecutionEngine::execute_planned`] answers into and
    /// lends its result from.
    answer: Answer,
}

impl TxnScratch {
    /// Scratch for a TE of `proc` over `batch`.
    pub fn new(proc: Option<ProcId>, batch: BatchId) -> Self {
        TxnScratch {
            proc,
            batch,
            ..TxnScratch::default()
        }
    }
}

/// The EE: storage + triggers + window maintenance + GC + stats.
#[derive(Debug, Default)]
pub struct ExecutionEngine {
    db: Database,
    registry: TriggerRegistry,
    stats: EeStats,
    config: EeConfig,
    /// The row ids stream GC deletes, a buffer kept between calls.
    gc_victims: Vec<RowId>,
    /// The EE trigger firings a trip queues, a buffer kept between trips.
    fires: VecDeque<PendingFire>,
    /// The buffer the statements of fired EE triggers answer into.
    fired: Answer,
}

impl ExecutionEngine {
    /// Engine with default configuration.
    pub fn new() -> Self {
        ExecutionEngine::default()
    }

    /// Read access to the data.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Direct mutable access (setup, tests, recovery — not the txn path).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Replace the whole database (snapshot restore). The grouped
    /// aggregate states the deployment registered carry over; they are
    /// rebuilt from the new rows on first use.
    pub fn restore_db(&mut self, mut db: Database) {
        db.track_groups_of(&self.db);
        self.db = db;
    }

    /// Engine counters.
    pub fn stats(&self) -> &EeStats {
        &self.stats
    }

    /// Reset counters (benchmark warmup boundaries).
    pub fn reset_stats(&mut self) {
        self.stats = EeStats::new();
    }

    /// Current configuration.
    pub fn config(&self) -> &EeConfig {
        &self.config
    }

    /// Toggle EE triggers (ablation E3b).
    pub fn set_ee_triggers_enabled(&mut self, enabled: bool) {
        self.config.ee_triggers_enabled = enabled;
    }

    /// Select the mode SELECT plans run in: batches of column lanes where
    /// an operator consumes them (the default), or rows only (reference
    /// semantics, for parity tests and A/B measurements).
    pub fn set_exec_path(&mut self, path: sstore_sql::ExecPath) {
        self.config.exec_path = path;
    }

    // ---- DDL ---------------------------------------------------------------

    /// Execute a DDL operation (outside any transaction, like H-Store).
    pub(crate) fn ddl(&mut self, op: &DdlOp) -> Result<TableId> {
        match op {
            DdlOp::CreateTable { name, schema } => self.db.create_table(name, schema.clone()),
            DdlOp::CreateStream { name, schema } => self.db.create_stream(name, schema.clone()),
            DdlOp::CreateWindow {
                name,
                schema,
                tuple_based,
                size,
                slide,
            } => {
                let kind = if *tuple_based {
                    WindowKind::Tuple {
                        size: *size as u64,
                        slide: *slide as u64,
                    }
                } else {
                    WindowKind::Time {
                        range: *size,
                        slide: *slide,
                    }
                };
                self.db
                    .create_window(name, schema.clone(), WindowSpec { kind, owner: None })
            }
        }
    }

    /// Run a `CREATE ...` SQL string through DDL.
    pub fn ddl_sql(&mut self, sql: &str) -> Result<TableId> {
        let stmt = parse(sql)?;
        match plan_statement(&stmt, &self.db)? {
            PlannedStmt::Ddl(op) => self.ddl(&op),
            _ => Err(Error::Parse(format!("not a DDL statement: {sql}"))),
        }
    }

    /// Create a secondary index on a table.
    pub fn create_index(
        &mut self,
        table: &str,
        index_name: &str,
        columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        let tid = self.db.resolve(table)?;
        let schema = self.db.table(tid)?.schema().clone();
        let key_cols = columns
            .iter()
            .map(|c| {
                schema
                    .column_index(c)
                    .ok_or_else(|| Error::NotFound(format!("column `{c}` in `{table}`")))
            })
            .collect::<Result<Vec<_>>>()?;
        self.db.table_mut(tid)?.create_index(IndexDef {
            name: index_name.to_string(),
            key_cols,
            unique,
        })
    }

    /// Bind a window to its owning procedure (scope rule).
    pub fn bind_window_owner(&mut self, window: &str, owner: ProcId) -> Result<()> {
        let id = self.db.resolve(window)?;
        self.db.catalog_mut().bind_window_owner(id, owner)
    }

    // ---- Triggers ------------------------------------------------------------

    /// Register an EE trigger whose statements are given as SQL text and
    /// planned immediately.
    pub fn create_trigger(
        &mut self,
        name: &str,
        on_table: &str,
        event: TriggerEvent,
        statements: &[&str],
    ) -> Result<()> {
        let table = self.db.resolve(on_table)?;
        let kind = self.db.kind(table)?;
        if !(kind.is_stream() || kind.is_window()) {
            return Err(Error::Constraint(format!(
                "EE triggers attach to streams/windows, `{on_table}` is a base table"
            )));
        }
        if event == TriggerEvent::OnSlide && !kind.is_window() {
            return Err(Error::Constraint(format!(
                "slide triggers attach to windows, `{on_table}` is a stream"
            )));
        }
        let mut planned = Vec::with_capacity(statements.len());
        for sql in statements {
            let p = self.prepare_deployed(sql)?;
            if matches!(p, PlannedStmt::Ddl(_)) {
                return Err(Error::Constraint("DDL not allowed in a trigger".into()));
            }
            planned.push(p);
        }
        self.registry.register(EeTrigger {
            name: name.to_string(),
            table,
            event,
            statements: planned,
        })?;
        Ok(())
    }

    // ---- Statement execution ---------------------------------------------------

    /// Plan a statement against the current catalog (prepared-statement
    /// path used by stored procedures at registration time).
    pub fn prepare(&self, sql: &str) -> Result<PlannedStmt> {
        let stmt = parse(sql)?;
        plan_statement(&stmt, &self.db)
    }

    /// [`Self::prepare`] a statement of a deployment (a stored procedure
    /// or an EE trigger). When it aggregates a window in a shape a grouped
    /// state answers (`sstore_sql::vexec::grouped_state_keys`), the
    /// window's table keeps that state from now on.
    pub fn prepare_deployed(&mut self, sql: &str) -> Result<PlannedStmt> {
        let stmt = self.prepare(sql)?;
        if let Some((table, keys)) = sstore_sql::vexec::grouped_state_keys(&stmt, &self.db) {
            self.db.track_groups(table, &keys)?;
        }
        Ok(stmt)
    }

    /// Execute one planned statement inside a TE. Counts as **one PE→EE
    /// round trip**; any EE trigger cascade runs inside this call.
    ///
    /// The result is **lent** out of `scratch`, where it lives until the
    /// TE's next statement overwrites it. A steady-state point statement
    /// allocates nothing here: the result's rows vector is reused, a
    /// point `SELECT` overwrites the earlier answer's unshared row of the
    /// same width in place, and the trigger queue and the cascade's own
    /// answer buffer are the engine's, kept between trips (see
    /// [`QueryResult`]).
    pub fn execute_planned<'s>(
        &mut self,
        stmt: &PlannedStmt,
        params: &[Value],
        scratch: &'s mut TxnScratch,
        now: i64,
    ) -> Result<&'s QueryResult> {
        self.trip(scratch, now, |ctx, answer| {
            exec::execute(stmt, ctx, params, answer).map(drop)
        })?;
        Ok(scratch.answer.get())
    }

    /// Append one row, given in visible-column order, to `table` inside a
    /// TE: the `emit` path of stored procedures. Costs exactly what
    /// `INSERT INTO table VALUES (?, …)` through [`Self::execute_planned`]
    /// costs — **one PE→EE round trip** and one statement, with the stream
    /// or window lifecycle and the EE trigger cascade run inside it — but
    /// takes the caller's row handle as is: no plan, no evaluated copy. A
    /// row of the wrong width fails the table's schema check
    /// (`Error::Constraint`) before anything is appended.
    pub fn append_row(
        &mut self,
        table: TableId,
        row: Row,
        scratch: &mut TxnScratch,
        now: i64,
    ) -> Result<RowId> {
        self.trip(scratch, now, |ctx, _| {
            ctx.check_write(table)?;
            ctx.insert_visible(table, row)
        })
    }

    /// One PE→EE round trip: run the `issued` statement against a context
    /// over `scratch` (handing it the scratch's answer buffer), then drain
    /// the EE trigger cascade it queued, within the same TE.
    fn trip<T>(
        &mut self,
        scratch: &mut TxnScratch,
        now: i64,
        issued: impl FnOnce(&mut EeContext<'_>, &mut Answer) -> Result<T>,
    ) -> Result<T> {
        self.stats.pe_ee_trips += 1;
        self.stats.statements += 1;
        // A trip that failed mid-cascade leaves its firings behind.
        if !self.fires.is_empty() {
            self.fires.clear();
        }
        let mut ctx = EeContext {
            db: &mut self.db,
            undo: &mut scratch.undo,
            stats: &mut self.stats,
            registry: &self.registry,
            config: &self.config,
            now,
            proc: scratch.proc,
            batch: scratch.batch,
            appended: &mut scratch.appended,
            queue: &mut self.fires,
            depth: 0,
        };
        let result = issued(&mut ctx, &mut scratch.answer)?;
        // Drain the trigger cascade within the same transaction.
        while let Some(PendingFire {
            trigger,
            params,
            depth,
        }) = ctx.queue.pop_front()
        {
            if depth > MAX_TRIGGER_DEPTH {
                return Err(Error::Constraint(format!(
                    "EE trigger cascade exceeded depth {MAX_TRIGGER_DEPTH}"
                )));
            }
            ctx.depth = depth;
            ctx.stats.insert_trigger_firings += 1;
            let trig = ctx
                .registry
                .get(trigger)
                .ok_or_else(|| Error::Internal("dangling trigger index".into()))?;
            for stmt in &trig.statements {
                ctx.stats.statements += 1;
                exec::execute(stmt, &mut ctx, &params, &mut self.fired)?;
            }
        }
        Ok(result)
    }

    /// Parse + plan + execute in one call (ad-hoc / test path); the
    /// result is owned, moved out of `scratch`.
    pub fn execute_sql(
        &mut self,
        sql: &str,
        params: &[Value],
        scratch: &mut TxnScratch,
        now: i64,
    ) -> Result<QueryResult> {
        let planned = self.prepare(sql)?;
        self.execute_planned(&planned, params, scratch, now)?;
        Ok(scratch.answer.take())
    }

    // ---- Lifecycle ------------------------------------------------------------

    /// Garbage-collect a stream up to (and including) `batch`.
    pub fn gc_stream(&mut self, stream: TableId, batch: BatchId) -> Result<usize> {
        let n = gc::gc_stream(&mut self.db, stream, batch, &mut self.gc_victims)?;
        self.stats.rows_gcd += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with_objects() -> ExecutionEngine {
        let mut e = ExecutionEngine::new();
        e.ddl_sql("CREATE TABLE counts (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")
            .unwrap();
        e.ddl_sql("CREATE STREAM s1 (v INT)").unwrap();
        e.ddl_sql("CREATE STREAM s2 (v INT)").unwrap();
        e.ddl_sql("CREATE WINDOW w1 (v INT) ROWS 3 SLIDE 1")
            .unwrap();
        e
    }

    fn scratch() -> TxnScratch {
        TxnScratch::new(None, BatchId::new(1))
    }

    #[test]
    fn ddl_creates_objects() {
        let e = engine_with_objects();
        assert_eq!(e.db().table_count(), 4);
        assert!(e.db().resolve("w1").is_ok());
    }

    #[test]
    fn execute_counts_round_trips() {
        let mut e = engine_with_objects();
        let mut sc = scratch();
        e.execute_sql("INSERT INTO counts VALUES (1, 0)", &[], &mut sc, 0)
            .unwrap();
        e.execute_sql("SELECT n FROM counts WHERE k = 1", &[], &mut sc, 0)
            .unwrap();
        assert_eq!(e.stats().pe_ee_trips, 2);
        assert_eq!(e.stats().statements, 2);
    }

    #[test]
    fn stream_insert_trigger_cascades_in_one_trip() {
        let mut e = engine_with_objects();
        // s1 insert -> copy into s2 and bump a counter.
        e.execute_sql("INSERT INTO counts VALUES (1, 0)", &[], &mut scratch(), 0)
            .unwrap();
        e.create_trigger(
            "s1_to_s2",
            "s1",
            TriggerEvent::OnInsert,
            &[
                "INSERT INTO s2 (v) VALUES (?)",
                "UPDATE counts SET n = n + 1 WHERE k = 1",
            ],
        )
        .unwrap();
        e.reset_stats();

        let mut sc = scratch();
        e.execute_sql("INSERT INTO s1 (v) VALUES (7)", &[], &mut sc, 0)
            .unwrap();

        // One PE->EE trip, three statements total (1 + 2 trigger stmts).
        assert_eq!(e.stats().pe_ee_trips, 1);
        assert_eq!(e.stats().statements, 3);
        assert_eq!(e.stats().insert_trigger_firings, 1);

        // The cascade happened transactionally: s2 holds the copied tuple,
        // counter bumped, and both streams' appends were collected.
        let s2 = e.db().resolve("s2").unwrap();
        assert_eq!(e.db().table(s2).unwrap().len(), 1);
        assert_eq!(sc.appended.len(), 2);

        // Abort undoes the entire cascade.
        sc.undo.rollback(e.db_mut()).unwrap();
        assert_eq!(e.db().table(s2).unwrap().len(), 0);
        let mut sc2 = scratch();
        let r = e
            .execute_sql("SELECT n FROM counts WHERE k = 1", &[], &mut sc2, 0)
            .unwrap();
        assert_eq!(r.scalar_i64().unwrap(), 0);
    }

    #[test]
    fn append_row_is_one_trip_with_cascade_and_rolls_back_whole() {
        let mut e = engine_with_objects();
        e.execute_sql("INSERT INTO counts VALUES (1, 0)", &[], &mut scratch(), 0)
            .unwrap();
        e.create_trigger(
            "s1_to_s2",
            "s1",
            TriggerEvent::OnInsert,
            &[
                "INSERT INTO s2 (v) VALUES (?)",
                "UPDATE counts SET n = n + 1 WHERE k = 1",
            ],
        )
        .unwrap();
        e.reset_stats();

        let s1 = e.db().resolve("s1").unwrap();
        let mut sc = TxnScratch::new(None, BatchId::new(9));
        let row: Row = vec![Value::Int(7)].into();
        e.append_row(s1, row.clone(), &mut sc, 0).unwrap();
        e.append_row(s1, row.clone(), &mut sc, 0).unwrap();

        // One trip per row; each costs 1 + 2 trigger statements.
        assert_eq!(e.stats().pe_ee_trips, 2);
        assert_eq!(e.stats().statements, 6);
        assert_eq!(e.stats().insert_trigger_firings, 2);
        // Stored rows carry `__batch`/`__seq`; the output batch shares the
        // caller's handle instead of a copy.
        let stored: Vec<Row> = e
            .db()
            .table(s1)
            .unwrap()
            .scan()
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(stored[0], vec![Value::Int(7), Value::Int(9), Value::Int(1)]);
        assert_eq!(stored[1], vec![Value::Int(7), Value::Int(9), Value::Int(2)]);
        assert_eq!(sc.appended.len(), 4);
        assert!(std::ptr::eq(sc.appended[0].1.as_ref(), row.as_ref()));

        // Abort undoes both appends, both cascades and the sequence.
        sc.undo.rollback(e.db_mut()).unwrap();
        let s2 = e.db().resolve("s2").unwrap();
        assert!(e.db().table(s1).unwrap().is_empty());
        assert!(e.db().table(s2).unwrap().is_empty());
        match e.db().kind(s1).unwrap() {
            sstore_storage::TableKind::Stream(m) => assert_eq!(m.next_seq, 0),
            other => panic!("s1 is {other:?}"),
        }
        let r = e
            .execute_sql("SELECT n FROM counts WHERE k = 1", &[], &mut scratch(), 0)
            .unwrap();
        assert_eq!(r.scalar_i64().unwrap(), 0);
    }

    #[test]
    fn append_row_of_wrong_width_is_a_typed_error_appending_nothing() {
        let mut e = engine_with_objects();
        e.create_trigger(
            "s1_to_s2",
            "s1",
            TriggerEvent::OnInsert,
            &["INSERT INTO s2 (v) VALUES (?)"],
        )
        .unwrap();
        let s1 = e.db().resolve("s1").unwrap();
        let mut sc = scratch();
        for cells in [vec![], vec![Value::Int(1), Value::Int(2)]] {
            let err = e.append_row(s1, cells.into(), &mut sc, 0).unwrap_err();
            assert_eq!(err.kind(), "constraint");
        }
        assert!(e.db().table(s1).unwrap().is_empty());
        assert!(sc.appended.is_empty());
        assert_eq!(e.stats().insert_trigger_firings, 0);
    }

    #[test]
    fn bulk_delete_under_one_key_undoes_and_replays_exactly() {
        let mut e = ExecutionEngine::new();
        e.ddl_sql("CREATE TABLE v (id INT NOT NULL, c INT NOT NULL, PRIMARY KEY (id))")
            .unwrap();
        e.create_index("v", "v_by_c", &["c"], false).unwrap();
        let v = e.db().resolve("v").unwrap();
        let table = e.db_mut().table_mut(v).unwrap();
        for id in 0..20_100i64 {
            // 20 000 rows under c = 1, the rest under c = 2 spread through them.
            let c = if id % 201 == 200 { 2 } else { 1 };
            table.insert(vec![Value::Int(id), Value::Int(c)]).unwrap();
        }
        let encode = |e: &ExecutionEngine| {
            let mut out = Vec::new();
            e.db().table(v).unwrap().encode_binary(&mut out);
            out
        };
        let before = encode(&e);
        let base = e.db().table(v).unwrap().clone();
        e.db_mut().table_mut(v).unwrap().set_journaling(true);

        let mut sc = scratch();
        let r = e
            .execute_sql("DELETE FROM v WHERE c = 1", &[], &mut sc, 0)
            .unwrap();
        assert_eq!(r.rows_affected, 20_000);
        let live = e.db().table(v).unwrap();
        assert_eq!(live.len(), 100);
        assert!(live
            .index_lookup("v_by_c", &[Value::Int(1)])
            .unwrap()
            .is_empty());

        // A delta replay of the journal drives the same slots and buckets.
        let ops = match live.dirt() {
            sstore_storage::TableDirt::Ops(ops) => ops.to_vec(),
            other => panic!("expected ops, got {other:?}"),
        };
        let mut replayed = base;
        for op in &ops {
            replayed.apply_slot_op(op).unwrap();
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        replayed.encode_binary(&mut a);
        live.encode_binary(&mut b);
        assert_eq!(a, b);

        // Undo restores the rows, the free list and the bucket order.
        sc.undo.rollback(e.db_mut()).unwrap();
        assert_eq!(encode(&e), before);
    }

    #[test]
    fn window_slide_trigger_fires_after_eviction() {
        let mut e = engine_with_objects();
        e.ddl_sql("CREATE TABLE slides (k INT NOT NULL, total INT NOT NULL, PRIMARY KEY (k))")
            .unwrap();
        e.execute_sql("INSERT INTO slides VALUES (1, 0)", &[], &mut scratch(), 0)
            .unwrap();
        // On each slide, record SUM over the window (post-eviction contents).
        e.create_trigger(
            "w1_slide",
            "w1",
            TriggerEvent::OnSlide,
            &["UPDATE slides SET total = (SELECT SUM(v) FROM w1) WHERE k = 1"],
        )
        .unwrap();

        let mut sc = scratch();
        for v in 1..=4 {
            e.execute_sql(
                "INSERT INTO w1 (v) VALUES (?)",
                &[Value::Int(v)],
                &mut sc,
                v,
            )
            .unwrap();
        }
        // Window size 3, slide 1: last slide after v=4 => contents {2,3,4}.
        let r = e
            .execute_sql("SELECT total FROM slides WHERE k = 1", &[], &mut sc, 9)
            .unwrap();
        assert_eq!(r.scalar_i64().unwrap(), 9);
        assert!(e.stats().window_slides >= 2);
        assert!(e.stats().window_evictions >= 1);
    }

    #[test]
    fn scalar_subquery_in_update() {
        let mut e = engine_with_objects();
        let mut sc = scratch();
        e.execute_sql("INSERT INTO counts VALUES (1, 0), (2, 5)", &[], &mut sc, 0)
            .unwrap();
        e.execute_sql(
            "UPDATE counts SET n = (SELECT MAX(n) FROM counts) + 1 WHERE k = 1",
            &[],
            &mut sc,
            0,
        )
        .unwrap();
        let r = e
            .execute_sql("SELECT n FROM counts WHERE k = 1", &[], &mut sc, 0)
            .unwrap();
        assert_eq!(r.scalar_i64().unwrap(), 6);
    }

    #[test]
    fn trigger_on_base_table_rejected() {
        let mut e = engine_with_objects();
        let err = e
            .create_trigger("bad", "counts", TriggerEvent::OnInsert, &[])
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
        let err = e
            .create_trigger("bad2", "s1", TriggerEvent::OnSlide, &[])
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
    }

    #[test]
    fn runaway_trigger_cascade_aborts() {
        let mut e = ExecutionEngine::new();
        e.ddl_sql("CREATE STREAM loop_s (v INT)").unwrap();
        // Trigger re-inserts into its own stream: infinite cascade.
        e.create_trigger(
            "looper",
            "loop_s",
            TriggerEvent::OnInsert,
            &["INSERT INTO loop_s (v) VALUES (?)"],
        )
        .unwrap();
        let mut sc = scratch();
        let err = e
            .execute_sql("INSERT INTO loop_s (v) VALUES (1)", &[], &mut sc, 0)
            .unwrap_err();
        assert_eq!(err.kind(), "constraint");
    }

    #[test]
    fn gc_stream_counts() {
        let mut e = engine_with_objects();
        let mut sc = scratch();
        e.execute_sql("INSERT INTO s1 (v) VALUES (1), (2)", &[], &mut sc, 0)
            .unwrap();
        sc.undo.commit();
        let s1 = e.db().resolve("s1").unwrap();
        let n = e.gc_stream(s1, BatchId::new(1)).unwrap();
        assert_eq!(n, 2);
        assert_eq!(e.stats().rows_gcd, 2);
    }

    #[test]
    fn disabled_triggers_leave_downstream_empty() {
        let mut e = engine_with_objects();
        e.create_trigger(
            "s1_to_s2",
            "s1",
            TriggerEvent::OnInsert,
            &["INSERT INTO s2 (v) VALUES (?)"],
        )
        .unwrap();
        e.set_ee_triggers_enabled(false);
        let mut sc = scratch();
        e.execute_sql("INSERT INTO s1 (v) VALUES (7)", &[], &mut sc, 0)
            .unwrap();
        let s2 = e.db().resolve("s2").unwrap();
        assert_eq!(e.db().table(s2).unwrap().len(), 0);
    }
}
