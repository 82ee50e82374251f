//! Stored procedures.
//!
//! An S-Store stored procedure is parameterized control code wrapped around
//! SQL — H-Store uses Java, we use Rust closures. Procedures are defined
//! once via [`ProcSpec`], which pre-plans every SQL statement; at run time
//! each transaction execution gets a [`ProcContext`] giving it its input
//! batch, its prepared statements, ad-hoc SQL, and an `emit` path onto its
//! output stream.
//!
//! A TE only binds parameters: [`ProcContext::exec`] finds the plan
//! prepared at registration by comparing names (a procedure has a handful
//! of statements, so no name is hashed), hands the engine a borrow of it,
//! never a copy, and borrows the result back out of the TE's scratch;
//! [`ProcContext::emit`] appends the row handle directly, with no plan at
//! all.

use sstore_common::hash::HashSet;
use sstore_common::{Batch, Error, ProcId, Result, Row, TableId, Value};
use sstore_engine::{ExecutionEngine, TxnScratch};
use sstore_sql::exec::QueryResult;
use sstore_sql::plan::{PhysicalPlan, PlannedStmt};
use std::sync::Arc;

/// Procedure body: control code over the context.
pub(crate) type ProcHandler = Arc<dyn Fn(&mut ProcContext<'_>) -> Result<()> + Send + Sync>;

/// Declarative definition of a stored procedure, passed to
/// [`crate::partition::Partition::register`].
#[derive(Clone)]
pub struct ProcSpec {
    /// Procedure name (unique per partition).
    pub name: String,
    /// Stream this procedure consumes. Border procedures name the stream
    /// clients push into; interior procedures name an upstream output.
    pub input_stream: Option<String>,
    /// Stream this procedure emits to (creates the workflow edge to any
    /// downstream procedure that consumes it).
    pub output_stream: Option<String>,
    /// Windows owned by this procedure (bound to it for scope enforcement).
    pub windows: Vec<String>,
    /// Named SQL statements, planned at registration.
    pub statements: Vec<(String, String)>,
    /// Declared multi-sited: border submissions of this procedure whose
    /// rows route to more than one partition run as ONE global transaction
    /// under the cluster's two-phase-commit coordinator, instead of as
    /// independent per-partition TEs. Single-partition submissions take
    /// the ordinary fast path either way.
    pub multi_partition: bool,
    /// The body.
    pub handler: ProcHandler,
}

impl std::fmt::Debug for ProcSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcSpec")
            .field("name", &self.name)
            .field("input_stream", &self.input_stream)
            .field("output_stream", &self.output_stream)
            .field("windows", &self.windows)
            .field("statements", &self.statements.len())
            .finish()
    }
}

impl ProcSpec {
    /// Start a spec with just a name and handler.
    pub fn new(
        name: impl Into<String>,
        handler: impl Fn(&mut ProcContext<'_>) -> Result<()> + Send + Sync + 'static,
    ) -> Self {
        ProcSpec {
            name: name.into(),
            input_stream: None,
            output_stream: None,
            windows: Vec::new(),
            statements: Vec::new(),
            multi_partition: false,
            handler: Arc::new(handler),
        }
    }

    /// Declare the procedure multi-sited (see [`ProcSpec::multi_partition`]).
    pub fn multi_partition(mut self) -> Self {
        self.multi_partition = true;
        self
    }

    /// Set the input stream.
    pub fn consumes(mut self, stream: &str) -> Self {
        self.input_stream = Some(stream.to_string());
        self
    }

    /// Set the output stream.
    pub fn emits(mut self, stream: &str) -> Self {
        self.output_stream = Some(stream.to_string());
        self
    }

    /// Declare an owned window.
    pub fn owns_window(mut self, window: &str) -> Self {
        self.windows.push(window.to_string());
        self
    }

    /// Add a named prepared statement.
    pub fn stmt(mut self, name: &str, sql: &str) -> Self {
        self.statements.push((name.to_string(), sql.to_string()));
        self
    }
}

/// A registered procedure (spec compiled against the catalog).
pub(crate) struct Procedure {
    /// Dense id.
    pub id: ProcId,
    /// Name.
    pub name: String,
    /// Resolved input stream.
    pub input_stream: Option<TableId>,
    /// Resolved output stream.
    pub output_stream: Option<TableId>,
    /// Prepared statements and their names, in declaration order.
    pub statements: Vec<(String, PlannedStmt)>,
    /// Tables read by the prepared statements (shared-table analysis).
    pub read_set: HashSet<TableId>,
    /// Tables written by the prepared statements.
    pub write_set: HashSet<TableId>,
    /// Declared multi-sited (see [`ProcSpec::multi_partition`]).
    pub multi_partition: bool,
    /// The body.
    pub handler: ProcHandler,
}

impl std::fmt::Debug for Procedure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Procedure")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("input_stream", &self.input_stream)
            .field("output_stream", &self.output_stream)
            .finish()
    }
}

/// Collect the tables a plan reads.
pub(crate) fn plan_reads(plan: &PhysicalPlan, out: &mut HashSet<TableId>) {
    match plan {
        PhysicalPlan::Scan { table, .. } => {
            out.insert(*table);
        }
        PhysicalPlan::NestedLoopJoin { left, right, .. } => {
            plan_reads(left, out);
            plan_reads(right, out);
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Distinct { input }
        | PhysicalPlan::Aggregate { input, .. } => plan_reads(input, out),
        PhysicalPlan::Values { .. } => {}
    }
}

/// Compute the (read, write) table sets of a planned statement.
pub(crate) fn stmt_effects(stmt: &PlannedStmt) -> (HashSet<TableId>, HashSet<TableId>) {
    let mut reads = HashSet::default();
    let mut writes = HashSet::default();
    match stmt {
        PlannedStmt::Query {
            plan, subqueries, ..
        } => {
            plan_reads(plan, &mut reads);
            for s in subqueries {
                plan_reads(s, &mut reads);
            }
        }
        PlannedStmt::Insert {
            table,
            source,
            subqueries,
            ..
        } => {
            writes.insert(*table);
            plan_reads(source, &mut reads);
            for s in subqueries {
                plan_reads(s, &mut reads);
            }
        }
        PlannedStmt::Update {
            table, subqueries, ..
        }
        | PlannedStmt::Delete {
            table, subqueries, ..
        } => {
            writes.insert(*table);
            reads.insert(*table);
            for s in subqueries {
                plan_reads(s, &mut reads);
            }
        }
        PlannedStmt::Ddl(_) => {}
    }
    (reads, writes)
}

/// The per-TE context handed to procedure bodies.
pub struct ProcContext<'a> {
    /// The execution engine (all data access flows through it).
    pub engine: &'a mut ExecutionEngine,
    /// Transaction scratch (undo, output collection).
    pub scratch: &'a mut TxnScratch,
    /// Prepared statements of the running procedure, with their names.
    pub statements: &'a [(String, PlannedStmt)],
    /// The input batch.
    pub input: &'a Batch,
    /// Logical time of the TE.
    pub now: i64,
    /// Output stream (for [`ProcContext::emit`]).
    pub output_stream: Option<TableId>,
    /// Response assembled for the client (OLTP-style procedures).
    pub response: Option<QueryResult>,
}

impl<'a> ProcContext<'a> {
    /// The input batch, borrowed for the TE (not from `self`): iterable while executing.
    pub fn input(&self) -> &'a Batch {
        self.input
    }

    /// Execute a prepared statement by name: one PE→EE trip
    /// ([`ExecutionEngine::execute_planned`]). The result is lent out of
    /// the TE's scratch and lives until the next statement this TE runs;
    /// a steady-state point statement allocates nothing for it. Clone it
    /// to keep it longer.
    pub fn exec(&mut self, stmt: &str, params: &[Value]) -> Result<&QueryResult> {
        let Some((_, planned)) = self.statements.iter().find(|(name, _)| name == stmt) else {
            return Err(Error::NotFound(format!("prepared statement `{stmt}`")));
        };
        self.engine
            .execute_planned(planned, params, self.scratch, self.now)
    }

    /// Execute ad-hoc SQL (planned per call; prefer [`ProcContext::exec`]).
    /// The result is lent as [`ProcContext::exec`]'s is.
    pub fn sql(&mut self, sql: &str, params: &[Value]) -> Result<&QueryResult> {
        let planned = self.engine.prepare(sql)?;
        self.engine
            .execute_planned(&planned, params, self.scratch, self.now)
    }

    /// Append a tuple to this procedure's output stream. The tuples
    /// emitted during one TE form the downstream procedure's input batch.
    ///
    /// The row handle goes straight to [`ExecutionEngine::append_row`]: one
    /// PE→EE trip and one statement, stream lifecycle (`__batch`/`__seq`
    /// stamping, EE triggers) applied, no plan built, and the handle itself
    /// shared into the output batch. A row whose width is not the stream's
    /// is a constraint error and the TE rolls back.
    pub fn emit(&mut self, row: impl Into<Row>) -> Result<()> {
        let stream = self
            .output_stream
            .ok_or_else(|| Error::Schedule("procedure has no output stream to emit to".into()))?;
        self.engine
            .append_row(stream, row.into(), self.scratch, self.now)?;
        Ok(())
    }

    /// Set the rows returned to the client for this TE.
    pub fn respond(&mut self, result: QueryResult) {
        self.response = Some(result);
    }

    /// Logical time of this TE.
    pub fn now(&self) -> i64 {
        self.now
    }

    /// Deliberately abort the transaction (clean rollback).
    pub fn abort(&self, msg: impl Into<String>) -> Error {
        Error::UserAbort(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::BatchId;

    #[test]
    fn spec_builder() {
        let spec = ProcSpec::new("sp1", |_ctx| Ok(()))
            .consumes("in_s")
            .emits("out_s")
            .owns_window("w")
            .stmt("q", "SELECT 1");
        assert_eq!(spec.name, "sp1");
        assert_eq!(spec.input_stream.as_deref(), Some("in_s"));
        assert_eq!(spec.output_stream.as_deref(), Some("out_s"));
        assert_eq!(spec.windows, vec!["w"]);
        assert_eq!(spec.statements.len(), 1);
    }

    #[test]
    fn effects_analysis() {
        let mut engine = ExecutionEngine::new();
        engine
            .ddl_sql("CREATE TABLE t (id INT, PRIMARY KEY (id))")
            .unwrap();
        engine
            .ddl_sql("CREATE TABLE u (id INT, PRIMARY KEY (id))")
            .unwrap();
        let t = engine.db().resolve("t").unwrap();
        let u = engine.db().resolve("u").unwrap();

        let q = engine.prepare("SELECT * FROM t").unwrap();
        let (r, w) = stmt_effects(&q);
        assert!(r.contains(&t) && w.is_empty());

        let ins = engine.prepare("INSERT INTO u SELECT id FROM t").unwrap();
        let (r, w) = stmt_effects(&ins);
        assert!(r.contains(&t) && w.contains(&u));

        let upd = engine
            .prepare("UPDATE t SET id = id + (SELECT MAX(id) FROM u)")
            .unwrap();
        let (r, w) = stmt_effects(&upd);
        assert!(r.contains(&t) && r.contains(&u) && w.contains(&t));
    }

    #[test]
    fn context_exec_and_emit() {
        let mut engine = ExecutionEngine::new();
        engine.ddl_sql("CREATE STREAM out_s (v INT)").unwrap();
        engine
            .ddl_sql("CREATE TABLE t (id INT, PRIMARY KEY (id))")
            .unwrap();
        let out = engine.db().resolve("out_s").unwrap();
        let mut scratch = TxnScratch::new(Some(ProcId::new(0)), BatchId::new(3));
        let stmts = vec![(
            "ins".to_string(),
            engine.prepare("INSERT INTO t VALUES (?)").unwrap(),
        )];
        let input = Batch::new(BatchId::new(3), vec![vec![Value::Int(5)]]);
        let mut ctx = ProcContext {
            engine: &mut engine,
            scratch: &mut scratch,
            statements: &stmts,
            input: &input,
            now: 7,
            output_stream: Some(out),
            response: None,
        };
        assert_eq!(ctx.input().len(), 1);
        assert_eq!(ctx.now(), 7);
        ctx.exec("ins", &[Value::Int(1)]).unwrap();
        assert!(ctx.exec("missing", &[]).is_err());
        ctx.emit(vec![Value::Int(42)]).unwrap();
        assert!(ctx.abort("nope").is_user_abort());
        drop(ctx);
        // Emitted row landed in the stream with batch id 3.
        let rows: Vec<Row> = engine
            .db()
            .table(out)
            .unwrap()
            .scan()
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(rows[0][0], Value::Int(42));
        assert_eq!(rows[0][1], Value::Int(3));
        assert_eq!(scratch.appended.len(), 1);
    }

    /// `input()` hands out the batch's own borrow, so a body walks its rows
    /// by reference while it executes statements: no clone of the row
    /// vector, and each row is the batch's handle itself.
    #[test]
    fn body_iterates_input_by_reference_while_executing() {
        let mut engine = ExecutionEngine::new();
        engine
            .ddl_sql("CREATE TABLE t (id INT, PRIMARY KEY (id))")
            .unwrap();
        let mut scratch = TxnScratch::new(Some(ProcId::new(0)), BatchId::new(1));
        let stmts = vec![(
            "ins".to_string(),
            engine.prepare("INSERT INTO t VALUES (?)").unwrap(),
        )];
        let input = Batch::new(
            BatchId::new(1),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        );
        let mut ctx = ProcContext {
            engine: &mut engine,
            scratch: &mut scratch,
            statements: &stmts,
            input: &input,
            now: 0,
            output_stream: None,
            response: None,
        };
        for (row, original) in ctx.input().rows.iter().zip(&input.rows) {
            assert!(std::ptr::eq(row, original), "the batch's own row handle");
            ctx.exec("ins", &[row[0].clone()]).unwrap();
        }
        drop(ctx);
        let t = engine.db().resolve("t").unwrap();
        assert_eq!(engine.db().table(t).unwrap().len(), 2);
    }

    #[test]
    fn emit_without_output_stream_errors() {
        let mut engine = ExecutionEngine::new();
        let mut scratch = TxnScratch::new(None, BatchId::new(0));
        let stmts = Vec::new();
        let input = Batch::empty(BatchId::new(0));
        let mut ctx = ProcContext {
            engine: &mut engine,
            scratch: &mut scratch,
            statements: &stmts,
            input: &input,
            now: 0,
            output_stream: None,
            response: None,
        };
        assert_eq!(
            ctx.emit(vec![Value::Int(1)]).unwrap_err().kind(),
            "schedule"
        );
    }
}
