//! Statement execution.
//!
//! [`execute`] runs a planned statement: a SELECT plan, a scalar subquery
//! and an INSERT … SELECT source go to the one plan walker
//! ([`crate::vexec`]); INSERT, UPDATE and DELETE find their target rows
//! here. This module also holds what the walker's row operators share
//! with DML: the access-path scan and the row aggregate accumulator.
//! Reads go straight to the [`Database`]; all mutations are routed
//! through [`ExecContext`] so the execution engine layered above can
//! attach undo logging, stream and window lifecycle maintenance, EE
//! triggers, and round-trip accounting.

use crate::expr::{eval, eval_pred, ill_typed, operand, BoundExpr, EvalEnv};
use crate::plan::{AccessPath, AggExpr, AggFunc, PhysicalPlan, PlannedStmt};
use crate::vexec::{self, ExecPath};
use sstore_common::hash::{HashMap, HashSet};
use sstore_common::{DataType, Error, Result, Row, TableId, Value};
use sstore_storage::{Database, RowId, Table};
use std::sync::Arc;

/// The storage/transaction facade the executor runs against.
///
/// `sstore-engine` provides the real implementation; a thin direct
/// implementation ([`DirectContext`]) exists for tests and standalone use
/// of this crate.
pub trait ExecContext {
    /// Read access to the partition's data.
    fn db(&self) -> &Database;

    /// Logical time for `NOW()`.
    fn now(&self) -> i64;

    /// Gate read access to a table (window scope enforcement).
    fn check_read(&self, table: TableId) -> Result<()>;

    /// Gate write access to a table.
    fn check_write(&self, table: TableId) -> Result<()>;

    /// Insert a row given in *visible-column* order. The implementation
    /// appends hidden lifecycle columns for streams/windows, records undo,
    /// and fires any EE triggers. Returns the new row id.
    fn insert_visible(&mut self, table: TableId, row: Row) -> Result<RowId>;

    /// Delete a row by id, recording undo. Returns the deleted row.
    fn delete_row(&mut self, table: TableId, rid: RowId) -> Result<Row>;

    /// Write `cells[i].1` into column `cells[i].0` of the storage row at
    /// `rid`, recording undo; `cells` are left holding unspecified
    /// values. The engine writes a base-table row whose written columns
    /// key no index in place ([`Table::set_cells`]), and stores a full new
    /// image ([`Table::update`]) otherwise.
    fn update_cells(
        &mut self,
        table: TableId,
        rid: RowId,
        cells: &mut [(usize, Value)],
    ) -> Result<()>;

    /// The mode the plan walker runs SELECT plans in. Defaults to
    /// [`ExecPath::Vector`]; the engine overrides this with its
    /// per-partition configuration.
    fn exec_path(&self) -> ExecPath {
        ExecPath::default()
    }
}

/// Result of executing one statement.
///
/// An owned result is what [`run_sql`] returns and what a client query
/// hands back. Inside a transaction execution the engine **lends** one
/// instead, out of the [`Answer`] buffer the TE's scratch owns: the borrow
/// lives until the next statement of the TE, which overwrites it. A
/// lent result's rows vector is reused, and a point `SELECT` overwrites
/// the cells of the earlier answer's row when nothing else holds that
/// row and it has the same width, so it allocates nothing. Clone a lent
/// result (refcount bumps, no cell copies) to keep it longer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names (SELECT only), shared with the planned
    /// statement (or, for a procedure's response, built once at
    /// registration).
    pub columns: Arc<[String]>,
    /// Output rows (SELECT only).
    pub rows: Vec<Row>,
    /// Rows inserted/updated/deleted (DML only).
    pub rows_affected: usize,
}

impl QueryResult {
    /// First row, first column — convenient for scalar queries.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// First row, first column as an integer (errors if absent/not int).
    pub fn scalar_i64(&self) -> Result<i64> {
        self.scalar()
            .ok_or_else(|| Error::Internal("scalar query returned no rows".into()))?
            .as_int()
    }
}

/// SELECT statements whose results an [`Answer`] keeps apart.
const QUERY_SLOTS: usize = 8;
/// Unshared rows a query slot keeps from its last result for the next
/// one to overwrite.
const SPARE_ROWS: usize = 4;

/// The buffer [`execute`] answers into, reused from one statement to the
/// next: one result for DML and one per SELECT lately answered (up to
/// eight, found by the statement's column header), so no header is shared
/// again while a TE's statements alternate. A SELECT's slot keeps up to
/// four rows of its last result that nothing else shares, for its next
/// point lookup to overwrite; a row a caller still shares, or a stored
/// row handed up as it is, is let go before the next statement runs, so
/// no write finds it shared.
#[derive(Debug, Default)]
pub struct Answer {
    queries: Vec<QueryResult>,
    dml: QueryResult,
    /// The slot the last statement answered in; `None` for DML.
    last: Option<usize>,
}

impl Answer {
    /// The last statement's result.
    pub fn get(&self) -> &QueryResult {
        self.last.map_or(&self.dml, |i| &self.queries[i])
    }

    /// Move the last statement's result out.
    pub fn take(&mut self) -> QueryResult {
        match self.last.take() {
            Some(i) => self.queries.swap_remove(i),
            None => std::mem::take(&mut self.dml),
        }
    }

    /// Keep the last result's unshared rows, up to [`SPARE_ROWS`], for
    /// its statement to overwrite next time.
    fn recycle(&mut self) {
        let Some(i) = self.last else { return };
        let rows = &mut self.queries[i].rows;
        if rows.len() > SPARE_ROWS || !rows.iter().all(Row::is_unique) {
            rows.truncate(SPARE_ROWS);
            rows.retain(Row::is_unique);
        }
    }

    /// The slot of the SELECT whose header is `columns`: its own, else a
    /// new one, else the one after the last, taken over.
    fn query(&mut self, columns: &Arc<[String]>) -> &mut QueryResult {
        let found = self
            .queries
            .iter()
            .position(|q| Arc::ptr_eq(&q.columns, columns));
        let i = found.unwrap_or_else(|| {
            let columns = Arc::clone(columns);
            if self.queries.len() < QUERY_SLOTS {
                self.queries.push(QueryResult {
                    columns,
                    ..QueryResult::default()
                });
                return self.queries.len() - 1;
            }
            let i = self.last.map_or(0, |i| (i + 1) % QUERY_SLOTS);
            self.queries[i].columns = columns;
            i
        });
        self.last = Some(i);
        &mut self.queries[i]
    }

    /// Answer a DML statement that touched `n` rows.
    fn affected(&mut self, n: usize) {
        self.last = None;
        self.dml.rows_affected = n;
    }
}

/// Execute a planned statement into `out` and lend the result from it
/// (see [`QueryResult`] for what is reused). On an error `out` holds no
/// result to read.
pub fn execute<'r>(
    stmt: &PlannedStmt,
    ctx: &mut dyn ExecContext,
    params: &[Value],
    out: &'r mut Answer,
) -> Result<&'r QueryResult> {
    check_params(stmt, params)?;
    out.recycle();
    let now = ctx.now();
    // Evaluate uncorrelated scalar subqueries once, in slot order. Earlier
    // slots are visible to later ones (inner subqueries bind first).
    let subs = match stmt {
        PlannedStmt::Query { subqueries, .. }
        | PlannedStmt::Insert { subqueries, .. }
        | PlannedStmt::Update { subqueries, .. }
        | PlannedStmt::Delete { subqueries, .. } => eval_subqueries(subqueries, ctx, params, now)?,
        PlannedStmt::Ddl(_) => Vec::new(),
    };
    let env = EvalEnv {
        params,
        now,
        subs: &subs,
    };
    match stmt {
        PlannedStmt::Query { plan, columns, .. } => {
            vexec::run(plan, &*ctx, &env, &mut out.query(columns).rows)?;
        }
        PlannedStmt::Insert {
            table,
            source,
            mapping,
            ..
        } => {
            ctx.check_write(*table)?;
            let n = match source {
                // One VALUES row is evaluated straight into the stored row.
                PhysicalPlan::Values { rows } if rows.len() == 1 => {
                    let exprs = &rows[0];
                    let row = insert_row(mapping, exprs.len(), |i| eval(&exprs[i], &[], &env))?;
                    ctx.insert_visible(*table, row)?;
                    1
                }
                _ => {
                    let mut src_rows = Vec::new();
                    vexec::run(source, &*ctx, &env, &mut src_rows)?;
                    let n = src_rows.len();
                    // A source row already in target order is stored as it is.
                    let identity = mapping.iter().enumerate().all(|(i, m)| *m == Some(i));
                    for src in src_rows {
                        let row = if identity && src.len() == mapping.len() {
                            src
                        } else {
                            insert_row(mapping, src.len(), |i| Ok(src[i].clone()))?
                        };
                        ctx.insert_visible(*table, row)?;
                    }
                    n
                }
            };
            out.affected(n);
        }
        PlannedStmt::Update {
            table,
            path,
            pred,
            sets,
            ..
        } => {
            ctx.check_write(*table)?;
            let (first, rest) = matching_rows(*table, path, pred.as_ref(), ctx, &env)?;
            // The new cells, on the stack for a statement of a few SETs.
            let mut stack: [(usize, Value); 4] = std::array::from_fn(|_| (0, Value::Null));
            let mut heap;
            let cells = match stack.get_mut(..sets.len()) {
                Some(cells) => cells,
                None => {
                    heap = vec![(0, Value::Null); sets.len()];
                    &mut heap[..]
                }
            };
            let mut n = 0;
            for rid in first.into_iter().chain(rest) {
                // Every SET reads the stored row before any is written.
                let row = ctx.db().table(*table)?.get(rid);
                let row = row.ok_or_else(|| Error::Internal(format!("dangling row id {rid}")))?;
                for (cell, (pos, e)) in cells.iter_mut().zip(sets) {
                    *cell = (*pos, eval(e, row, &env)?);
                }
                ctx.update_cells(*table, rid, cells)?;
                n += 1;
            }
            out.affected(n);
        }
        PlannedStmt::Delete {
            table, path, pred, ..
        } => {
            ctx.check_write(*table)?;
            let (first, rest) = matching_rows(*table, path, pred.as_ref(), ctx, &env)?;
            let mut n = 0;
            // Reverse bucket order: each removal pops its index bucket's
            // tail, so k rows under one key cost O(k), not O(k²).
            for rid in rest.into_iter().rev().chain(first) {
                ctx.delete_row(*table, rid)?;
                n += 1;
            }
            out.affected(n);
        }
        PlannedStmt::Ddl(_) => {
            return Err(Error::Txn(
                "DDL cannot run through the statement executor; use the engine's DDL entry point"
                    .into(),
            ))
        }
    }
    Ok(out.get())
}

/// Refuse fewer values than the statement has parameters, or one of a
/// type its use does not accept ([`PlannedStmt`]), before any row is read.
fn check_params(stmt: &PlannedStmt, params: &[Value]) -> Result<()> {
    let (PlannedStmt::Query { params: p, .. }
    | PlannedStmt::Insert { params: p, .. }
    | PlannedStmt::Update { params: p, .. }
    | PlannedStmt::Delete { params: p, .. }) = stmt
    else {
        return Ok(());
    };
    if params.len() < p.len() {
        let e = format!("missing parameter ?{}", params.len());
        return Err(Error::Constraint(e));
    }
    for (i, (ok, v)) in p.iter().zip(params).enumerate() {
        if let Some(t) = v.data_type().filter(|t| !ok.is_empty() && !ok.contains(t)) {
            let e = format!("parameter ?{i} is {t}, but its use takes one of {ok:?}");
            return Err(Error::TypeMismatch(e));
        }
    }
    Ok(())
}

/// Evaluate a statement's scalar subquery plans into their slot values.
fn eval_subqueries(
    subqueries: &[PhysicalPlan],
    ctx: &dyn ExecContext,
    params: &[Value],
    now: i64,
) -> Result<Vec<Value>> {
    let mut vals: Vec<Value> = Vec::with_capacity(subqueries.len());
    for plan in subqueries {
        let mut rows = Vec::new();
        let env = EvalEnv {
            params,
            now,
            subs: &vals,
        };
        vexec::run(plan, ctx, &env, &mut rows)?;
        if rows.len() > 1 {
            return Err(Error::Constraint(format!(
                "scalar subquery returned {} rows",
                rows.len()
            )));
        }
        let v = rows
            .first()
            .and_then(|r| r.first().cloned())
            .unwrap_or(Value::Null);
        vals.push(v);
    }
    Ok(vals)
}

/// Materialize the row ids a DML predicate selects, in candidate order:
/// the first inline, so a point statement's at most one target needs no
/// buffer, and the rest in a vector. Collected before mutation so the
/// scan never observes its own writes (Halloween protection), and no row
/// handle is held, so a write finds the stored row unshared.
fn matching_rows(
    table: TableId,
    path: &AccessPath,
    pred: Option<&BoundExpr>,
    ctx: &dyn ExecContext,
    env: &EvalEnv<'_>,
) -> Result<(Option<RowId>, Vec<RowId>)> {
    let (mut first, mut rest) = (None, Vec::new());
    scan(table, path, pred, ctx, env, |rid, _| {
        match first {
            None => first = Some(rid),
            Some(_) => rest.push(rid),
        }
        Ok(())
    })?;
    Ok((first, rest))
}

/// Drive `visit(rid, row)` over the rows of `table` that an access path
/// selects and `filter` keeps.
pub(crate) fn scan(
    table: TableId,
    path: &AccessPath,
    filter: Option<&BoundExpr>,
    ctx: &dyn ExecContext,
    env: &EvalEnv<'_>,
    mut visit: impl FnMut(RowId, &Row) -> Result<()>,
) -> Result<()> {
    ctx.check_read(table)?;
    for_each_candidate(ctx.db().table(table)?, path, env, |rid, row| {
        if filter.map_or(Ok(true), |p| eval_pred(p, row, env))? {
            visit(rid, row)?;
        }
        Ok(())
    })
}

/// The visible-order row an INSERT stores; `cell(i)` reads column `i` of
/// the `width`-wide source row.
fn insert_row(
    mapping: &[Option<usize>],
    width: usize,
    cell: impl Fn(usize) -> Result<Value>,
) -> Result<Row> {
    eval_row(mapping.iter().map(|m| match *m {
        Some(i) if i < width => cell(i),
        Some(_) => Err(Error::Internal("insert mapping out of range".into())),
        None => Ok(Value::Null),
    }))
}

/// Evaluate a point path's key: one cell is borrowed when it is a leaf,
/// and evaluated onto the stack otherwise.
fn with_key<T>(
    keys: &[BoundExpr],
    env: &EvalEnv<'_>,
    probe: impl FnOnce(&[Value]) -> Result<T>,
) -> Result<T> {
    if let [key] = keys {
        let mut node = Value::Null;
        return probe(std::slice::from_ref(operand(key, &[], env, &mut node)?));
    }
    let key: Vec<Value> = keys
        .iter()
        .map(|e| eval(e, &[], env))
        .collect::<Result<_>>()?;
    probe(&key)
}

/// Build a row from per-cell results, failing with the first error. The
/// cells are collected without a `Result` adapter in between, so an
/// exact-size source (a map over a slice) fills one allocation instead of
/// a vector that is then copied.
pub(crate) fn eval_row(cells: impl Iterator<Item = Result<Value>>) -> Result<Row> {
    let mut err = None;
    let row = cells
        .map(|cell| {
            cell.unwrap_or_else(|e| {
                err.get_or_insert(e);
                Value::Null
            })
        })
        .collect();
    err.map_or(Ok(row), Err)
}

/// Drive `visit(rid, row)` over every row an access path selects, in
/// deterministic order (slot order for full scans, bucket order for point
/// probes). Shared by DML target collection and the walker's row scans.
fn for_each_candidate(
    tb: &Table,
    path: &AccessPath,
    env: &EvalEnv<'_>,
    mut visit: impl FnMut(RowId, &Row) -> Result<()>,
) -> Result<()> {
    match path {
        AccessPath::Full => {
            for (rid, row) in tb.scan() {
                visit(rid, row)?;
            }
        }
        AccessPath::PkPoint(keys) => with_key(keys, env, |key| {
            if let Some(rid) = tb.pk_lookup(key) {
                let row = tb
                    .get(rid)
                    .ok_or_else(|| Error::Internal(format!("dangling row id {rid}")))?;
                visit(rid, row)?;
            }
            Ok(())
        })?,
        AccessPath::IndexPoint(name, keys) => with_key(keys, env, |key| {
            for &rid in tb.index_lookup(name, key)? {
                let row = tb
                    .get(rid)
                    .ok_or_else(|| Error::Internal(format!("dangling row id {rid}")))?;
                visit(rid, row)?;
            }
            Ok(())
        })?,
    }
    Ok(())
}

/// One in-progress aggregate value.
#[derive(Debug, Clone)]
enum AggState {
    CountStar(i64),
    Count(i64),
    Sum { acc: Option<Value> },
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::CountStar => AggState::CountStar(0),
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum { acc: None },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, arg: Option<&Value>) -> Result<()> {
        // Only COUNT(*) counts a row without a non-NULL argument.
        let Some(v) = arg.filter(|v| !v.is_null()) else {
            if let AggState::CountStar(n) = self {
                *n += 1;
            }
            return Ok(());
        };
        match self {
            AggState::CountStar(n) | AggState::Count(n) => *n += 1,
            AggState::Sum { acc } => {
                *acc = Some(match (acc.take(), v) {
                    (None, v) => v.clone(),
                    (Some(Value::Int(a)), Value::Int(b)) => Value::Int(
                        a.checked_add(*b)
                            .ok_or_else(|| Error::Constraint("integer overflow in SUM".into()))?,
                    ),
                    (Some(Value::Float(a)), Value::Float(b)) => Value::Float(a + b),
                    _ => return Err(ill_typed()),
                })
            }
            AggState::Avg { sum, n } => {
                *sum += v.as_float()?;
                *n += 1;
            }
            AggState::Min(cur) if cur.as_ref().is_none_or(|c| v.cmp_total(c).is_lt()) => {
                *cur = Some(v.clone())
            }
            AggState::Max(cur) if cur.as_ref().is_none_or(|c| v.cmp_total(c).is_gt()) => {
                *cur = Some(v.clone())
            }
            AggState::Min(_) | AggState::Max(_) => {}
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::CountStar(n) | AggState::Count(n) => Value::Int(n),
            AggState::Sum { acc } => acc.unwrap_or(Value::Null),
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// Per-group aggregate state plus the dedup set for DISTINCT aggregates.
struct GroupState {
    states: Vec<AggState>,
    /// One seen-set per DISTINCT aggregate (indexed like `states`).
    seen: Vec<Option<HashSet<Value>>>,
}

impl GroupState {
    fn new(aggs: &[AggExpr]) -> GroupState {
        GroupState {
            states: aggs.iter().map(|a| AggState::new(a.func)).collect(),
            seen: aggs
                .iter()
                .map(|a| a.distinct.then(HashSet::default))
                .collect(),
        }
    }
}

pub(crate) fn run_aggregate(
    rows: &[Row],
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    env: &EvalEnv<'_>,
) -> Result<Vec<Row>> {
    // Group order = first appearance, so results are deterministic.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, GroupState> = HashMap::default();

    for row in rows {
        let key: Vec<Value> = group_exprs
            .iter()
            .map(|e| eval(e, row, env))
            .collect::<Result<_>>()?;
        let group = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                order.push(key.clone());
                groups.entry(key).or_insert_with(|| GroupState::new(aggs))
            }
        };
        for (i, agg) in aggs.iter().enumerate() {
            let arg = agg.arg.as_ref().map(|e| eval(e, row, env)).transpose()?;
            if let Some(seen) = &mut group.seen[i] {
                match &arg {
                    Some(v) if !v.is_null() && !seen.insert(v.clone()) => {
                        continue; // duplicate: skip for DISTINCT
                    }
                    _ => {}
                }
            }
            group.states[i].update(arg.as_ref())?;
        }
    }

    // Global aggregate over empty input still yields one row.
    if groups.is_empty() && group_exprs.is_empty() {
        let row: Row = aggs
            .iter()
            .map(|a| AggState::new(a.func).finish())
            .collect();
        return Ok(vec![row]);
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let group = groups.remove(&key).expect("group recorded");
        let mut cells = key;
        cells.extend(group.states.into_iter().map(AggState::finish));
        out.push(cells.into());
    }
    Ok(out)
}

/// A minimal [`ExecContext`] that applies mutations directly with no undo,
/// no triggers, and no scope checks. Used by this crate's tests and by
/// standalone tools; the engine crate provides the real transactional one.
#[derive(Debug)]
pub struct DirectContext<'a> {
    /// The database to operate on.
    pub db: &'a mut Database,
    /// Logical time reported by `now()`.
    pub now_micros: i64,
}

impl ExecContext for DirectContext<'_> {
    fn db(&self) -> &Database {
        self.db
    }
    fn now(&self) -> i64 {
        self.now_micros
    }
    fn check_read(&self, _table: TableId) -> Result<()> {
        Ok(())
    }
    fn check_write(&self, _table: TableId) -> Result<()> {
        Ok(())
    }
    fn insert_visible(&mut self, table: TableId, row: Row) -> Result<RowId> {
        // Pad missing trailing (hidden lifecycle) columns per the column's
        // own type: NULL where allowed, the type's zero otherwise — never
        // `Int(0)` into a non-INT column.
        let row = {
            let schema = self.db.table(table)?.schema();
            if row.len() < schema.arity() {
                let pads: Vec<Value> = schema.columns()[row.len()..]
                    .iter()
                    .map(|c| {
                        if c.nullable {
                            Value::Null
                        } else {
                            zero_value(c.ty)
                        }
                    })
                    .collect();
                row.with_appended(pads)
            } else {
                row
            }
        };
        let rid = self.db.table_mut(table)?.insert(row)?;
        // Even without engine lifecycle, keep the window arrival deque
        // consistent so slide maintenance can still evict this row.
        if self.db.kind(table).is_ok_and(|k| k.is_window()) {
            if let Some(meta) = self.db.catalog_mut().meta_mut(table) {
                meta.arrivals.push_back(rid);
            }
        }
        Ok(rid)
    }
    fn delete_row(&mut self, table: TableId, rid: RowId) -> Result<Row> {
        let row = self.db.table_mut(table)?.delete(rid)?;
        if self.db.kind(table).is_ok_and(|k| k.is_window()) {
            if let Some(meta) = self.db.catalog_mut().meta_mut(table) {
                if let Some(pos) = meta.arrivals.iter().position(|&r| r == rid) {
                    meta.arrivals.remove(pos);
                }
            }
        }
        Ok(row)
    }
    fn update_cells(
        &mut self,
        table: TableId,
        rid: RowId,
        cells: &mut [(usize, Value)],
    ) -> Result<()> {
        // No undo to keep: the full image serves every table and column.
        let tb = self.db.table_mut(table)?;
        tb.update(rid, tb.image_with(rid, cells)?).map(drop)
    }
}

/// The zero of a column type, used to pad non-nullable hidden columns.
pub(crate) fn zero_value(ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(0),
        DataType::Float => Value::Float(0.0),
        DataType::Text => Value::Text(String::new()),
        DataType::Bool => Value::Bool(false),
        DataType::Timestamp => Value::Timestamp(0),
    }
}

/// Parse, plan, and execute a statement in one call (test/tool
/// convenience); the result is owned.
pub fn run_sql(sql: &str, ctx: &mut dyn ExecContext, params: &[Value]) -> Result<QueryResult> {
    let stmt = crate::parser::parse(sql)?;
    let planned = crate::planner::plan_statement(&stmt, ctx.db())?;
    let mut out = Answer::default();
    execute(&planned, ctx, params, &mut out)?;
    Ok(out.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{Column, DataType, Schema};

    fn setup() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::nullable("score", DataType::Float),
            ],
            &["id"],
        )
        .unwrap();
        db.create_table("t", schema).unwrap();
        db
    }

    fn sql(db: &mut Database, q: &str, params: &[Value]) -> QueryResult {
        let mut ctx = DirectContext { db, now_micros: 0 };
        run_sql(q, &mut ctx, params).unwrap()
    }

    fn sql_err(db: &mut Database, q: &str) -> Error {
        let mut ctx = DirectContext { db, now_micros: 0 };
        run_sql(q, &mut ctx, &[]).unwrap_err()
    }

    fn seed(db: &mut Database) {
        for (id, name, score) in [
            (1, "alice", Some(3.0)),
            (2, "bob", Some(1.0)),
            (3, "carol", None),
            (4, "bob", Some(5.0)),
        ] {
            let s = score.map(Value::Float).unwrap_or(Value::Null);
            sql(
                db,
                "INSERT INTO t VALUES (?, ?, ?)",
                &[Value::Int(id), Value::Text(name.into()), s],
            );
        }
    }

    #[test]
    fn insert_and_select_all() {
        let mut db = setup();
        seed(&mut db);
        let r = sql(&mut db, "SELECT * FROM t ORDER BY id", &[]);
        assert_eq!(&*r.columns, ["id", "name", "score"]);
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.rows[0][1], Value::Text("alice".into()));
    }

    #[test]
    fn where_filter_and_params() {
        let mut db = setup();
        seed(&mut db);
        let r = sql(
            &mut db,
            "SELECT id FROM t WHERE name = ? ORDER BY id",
            &[Value::Text("bob".into())],
        );
        let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![2, 4]);
    }

    #[test]
    fn pk_point_lookup_works() {
        let mut db = setup();
        seed(&mut db);
        let r = sql(&mut db, "SELECT name FROM t WHERE id = 3", &[]);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Text("carol".into()));
        // missing key -> no rows
        let r = sql(&mut db, "SELECT name FROM t WHERE id = 99", &[]);
        assert!(r.rows.is_empty());
    }

    /// The INT pk stores bare integers, and a FLOAT literal probes it by
    /// `Value` equality: `2.0` finds row 2 and `2.5` finds nothing.
    #[test]
    fn pk_point_lookup_with_float_literal() {
        let mut db = setup();
        seed(&mut db);
        for (q, want) in [("2.0", vec!["bob"]), ("2.5", vec![])] {
            let q = format!("SELECT name FROM t WHERE id = {q}");
            let stmt = crate::parser::parse(&q).unwrap();
            let plan = crate::planner::plan_statement(&stmt, &db).unwrap();
            assert!(format!("{plan:?}").contains("PkPoint"), "{plan:?}");
            let names: Vec<Value> = sql(&mut db, &q, &[])
                .rows
                .iter()
                .map(|r| r[0].clone())
                .collect();
            let want: Vec<Value> = want.into_iter().map(|n| Value::Text(n.into())).collect();
            assert_eq!(names, want, "{q}");
        }
    }

    #[test]
    fn aggregates_group_by_having_order() {
        let mut db = setup();
        seed(&mut db);
        let r = sql(
            &mut db,
            "SELECT name, COUNT(*) AS c, SUM(score) AS s FROM t GROUP BY name \
             HAVING COUNT(*) >= 1 ORDER BY c DESC, name LIMIT 2",
            &[],
        );
        assert_eq!(&*r.columns, ["name", "c", "s"]);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Text("bob".into()));
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert_eq!(r.rows[0][2], Value::Float(6.0));
    }

    #[test]
    fn global_aggregate_on_empty_table() {
        let mut db = setup();
        let r = sql(
            &mut db,
            "SELECT COUNT(*), SUM(score), AVG(score), MIN(id), MAX(id) FROM t",
            &[],
        );
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert!(r.rows[0][1].is_null());
        assert!(r.rows[0][2].is_null());
        assert!(r.rows[0][3].is_null());
    }

    #[test]
    fn count_ignores_nulls_count_star_does_not() {
        let mut db = setup();
        seed(&mut db);
        let r = sql(&mut db, "SELECT COUNT(*), COUNT(score) FROM t", &[]);
        assert_eq!(r.rows[0][0], Value::Int(4));
        assert_eq!(r.rows[0][1], Value::Int(3));
    }

    #[test]
    fn update_statement() {
        let mut db = setup();
        seed(&mut db);
        let r = sql(
            &mut db,
            "UPDATE t SET score = score + 10 WHERE name = 'bob'",
            &[],
        );
        assert_eq!(r.rows_affected, 2);
        let r = sql(&mut db, "SELECT SUM(score) FROM t WHERE name = 'bob'", &[]);
        assert_eq!(r.rows[0][0], Value::Float(26.0));
    }

    #[test]
    fn delete_statement() {
        let mut db = setup();
        seed(&mut db);
        let r = sql(&mut db, "DELETE FROM t WHERE score IS NULL", &[]);
        assert_eq!(r.rows_affected, 1);
        let r = sql(&mut db, "SELECT COUNT(*) FROM t", &[]);
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn join_execution() {
        let mut db = setup();
        seed(&mut db);
        let s2 = Schema::new(
            vec![
                Column::new("tid", DataType::Int),
                Column::new("tag", DataType::Text),
            ],
            &["tid"],
        )
        .unwrap();
        db.create_table("u", s2).unwrap();
        sql(&mut db, "INSERT INTO u VALUES (1, 'x'), (2, 'y')", &[]);
        let r = sql(
            &mut db,
            "SELECT t.name, u.tag FROM t JOIN u ON t.id = u.tid ORDER BY t.id",
            &[],
        );
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1], Value::Text("x".into()));
    }

    #[test]
    fn order_by_nulls_first_and_desc() {
        let mut db = setup();
        seed(&mut db);
        let r = sql(&mut db, "SELECT score FROM t ORDER BY score", &[]);
        assert!(r.rows[0][0].is_null()); // NULL sorts first ascending
        let r = sql(&mut db, "SELECT score FROM t ORDER BY score DESC", &[]);
        assert!(r.rows[3][0].is_null());
    }

    #[test]
    fn limit_and_scalar_helpers() {
        let mut db = setup();
        seed(&mut db);
        let r = sql(&mut db, "SELECT id FROM t ORDER BY id LIMIT 1", &[]);
        assert_eq!(r.scalar_i64().unwrap(), 1);
        let r = sql(&mut db, "SELECT COUNT(*) FROM t", &[]);
        assert_eq!(r.scalar_i64().unwrap(), 4);
    }

    #[test]
    fn insert_select() {
        let mut db = setup();
        seed(&mut db);
        let s2 = Schema::keyless(vec![
            Column::new("id", DataType::Int),
            Column::nullable("name", DataType::Text),
        ])
        .unwrap();
        db.create_table("copyt", s2).unwrap();
        let r = sql(
            &mut db,
            "INSERT INTO copyt SELECT id, name FROM t WHERE score > 2.0",
            &[],
        );
        assert_eq!(r.rows_affected, 2);
    }

    /// A bare parameter in an INSERT … SELECT output is typed by its target
    /// column, and its value checked before the source is read: a TEXT for
    /// an INT column is refused over an empty source too.
    #[test]
    fn insert_select_parameter_is_typed_by_its_target() {
        let mut db = setup();
        let s = Schema::keyless(vec![Column::new("id", DataType::Int)]).unwrap();
        db.create_table("s", s).unwrap();
        let q = "INSERT INTO s SELECT ? FROM t";
        for rows in [0, 4] {
            if rows > 0 {
                seed(&mut db);
            }
            let mut ctx = DirectContext {
                db: &mut db,
                now_micros: 0,
            };
            let text = run_sql(q, &mut ctx, &[Value::Text("1".into())]).unwrap_err();
            assert_eq!(text.kind(), "type_mismatch", "{text}");
            let r = run_sql(q, &mut ctx, &[Value::Timestamp(7)]).unwrap();
            assert_eq!(r.rows_affected, rows);
        }
        let r = sql(&mut db, "SELECT COUNT(*) FROM s WHERE id = 7", &[]);
        assert_eq!(r.scalar_i64().unwrap(), 4);
    }

    /// A parameter that is a scalar subquery's output is typed by the use
    /// of the subquery, as a bare one is, and its value checked before any
    /// row is read: a TEXT for an INT use is refused over an empty table
    /// and a filled one alike. It used to pass on the empty one, and fail
    /// in the schema check (INSERT) or match nothing (WHERE) on the filled.
    fn scalar_subquery_parameter_is_typed(seeded: bool) {
        let mut db = setup();
        let s = Schema::keyless(vec![Column::new("id", DataType::Int)]).unwrap();
        db.create_table("s", s).unwrap();
        if seeded {
            seed(&mut db);
        }
        let stmts = [
            ("INSERT INTO s SELECT (SELECT ?) FROM t", 4),
            ("SELECT id FROM t WHERE id = (SELECT ?)", 1),
            ("SELECT id FROM t WHERE id = (SELECT ? + 0 LIMIT 1)", 1),
        ];
        for (q, hits) in stmts {
            let mut ctx = DirectContext {
                db: &mut db,
                now_micros: 0,
            };
            let text = run_sql(q, &mut ctx, &[Value::Text("x".into())]).unwrap_err();
            assert_eq!(text.kind(), "type_mismatch", "{q}: {text}");
            let r = run_sql(q, &mut ctx, &[Value::Int(2)]).unwrap();
            let n = r.rows_affected.max(r.rows.len());
            assert_eq!(n, if seeded { hits } else { 0 }, "{q}");
        }
    }

    #[test]
    fn scalar_subquery_parameter_is_typed_over_an_empty_table() {
        scalar_subquery_parameter_is_typed(false);
    }

    #[test]
    fn scalar_subquery_parameter_is_typed_over_a_filled_table() {
        scalar_subquery_parameter_is_typed(true);
    }

    /// A statement given fewer values than it has parameters is refused
    /// before any row is read, so an empty table refuses it too.
    #[test]
    fn a_missing_parameter_is_refused_whatever_the_data() {
        let mut db = setup();
        let stmts = [
            "SELECT id FROM t WHERE name = ?",
            "UPDATE t SET score = ? WHERE score = 3.0",
            "DELETE FROM t WHERE score = ?",
            "SELECT ? FROM t",
        ];
        for seeded in [false, true] {
            if seeded {
                seed(&mut db);
            }
            for q in stmts {
                let e = sql_err(&mut db, q);
                assert_eq!(e.kind(), "constraint", "{q}: {e}");
                assert!(e.to_string().contains("missing parameter ?0"), "{q}: {e}");
            }
        }
        let mut ctx = DirectContext {
            db: &mut db,
            now_micros: 0,
        };
        let q = "SELECT id FROM t WHERE id = ? OR name = ?";
        let e = run_sql(q, &mut ctx, &[Value::Int(1)]).unwrap_err();
        assert!(e.to_string().contains("missing parameter ?1"), "{e}");
    }

    #[test]
    fn insert_partial_columns_gives_null() {
        let mut db = setup();
        sql(&mut db, "INSERT INTO t (id, name) VALUES (9, 'zed')", &[]);
        let r = sql(&mut db, "SELECT score FROM t WHERE id = 9", &[]);
        assert!(r.rows[0][0].is_null());
    }

    #[test]
    fn pk_violation_surfaces() {
        let mut db = setup();
        seed(&mut db);
        let e = sql_err(&mut db, "INSERT INTO t VALUES (1, 'dup', NULL)");
        assert_eq!(e.kind(), "constraint");
    }

    #[test]
    fn tableless_select() {
        let mut db = setup();
        let r = sql(&mut db, "SELECT 1 + 2 AS three, 'x'", &[]);
        assert_eq!(r.rows, vec![vec![Value::Int(3), Value::Text("x".into())]]);
        assert_eq!(r.columns[0], "three");
    }

    #[test]
    fn update_with_halloween_protection() {
        // UPDATE that would re-match its own output must not loop.
        let mut db = setup();
        seed(&mut db);
        let r = sql(
            &mut db,
            "UPDATE t SET score = 100.0 WHERE score < 100.0",
            &[],
        );
        assert_eq!(r.rows_affected, 3);
    }

    #[test]
    fn secondary_index_point_lookup() {
        let mut db = setup();
        seed(&mut db);
        let t = db.resolve("t").unwrap();
        db.table_mut(t)
            .unwrap()
            .create_index(sstore_storage::IndexDef {
                name: "by_name".into(),
                key_cols: vec![1],
                unique: false,
            })
            .unwrap();
        let r = sql(
            &mut db,
            "SELECT id FROM t WHERE name = 'bob' ORDER BY id",
            &[],
        );
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn ddl_through_executor_rejected() {
        let mut db = setup();
        let e = sql_err(&mut db, "CREATE TABLE q (a INT)");
        assert_eq!(e.kind(), "txn");
    }

    #[test]
    fn avg_computation() {
        let mut db = setup();
        seed(&mut db);
        let r = sql(&mut db, "SELECT AVG(score) FROM t", &[]);
        assert_eq!(r.rows[0][0], Value::Float(3.0));
    }
}
