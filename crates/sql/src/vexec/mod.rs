//! The SELECT plan walker: one walk over a [`PhysicalPlan`] runs every
//! query, scalar subquery and INSERT … SELECT source, handing each
//! operator either a batch of [`sstore_vector`] columns or rows.
//!
//! On batches the data stays columnar from storage to result:
//!
//! * a full scan **borrows** the table's resident columns
//!   ([`sstore_storage::Table::column`], lane *i* = slot *i*, maintained by
//!   the table's mutators) — no per-query row → column pivot — and starts
//!   from every lane, or from the table's liveness mask when it has a free
//!   slot;
//! * `WHERE` clauses turn into a mask: the predicate's `bool` lane ANDed
//!   with its validity and the incoming selection (`expr.rs`);
//! * an equi-join on one integer key asks each side only for the columns
//!   somebody reads and probes the key lanes. When each probe row matches
//!   at most one build row through a dense slot table, the output is the
//!   probe batch itself under a hit mask, plus the build columns somebody
//!   reads gathered through a build-row lane; otherwise it is a (probe,
//!   build) pair of index vectors that just those columns are gathered
//!   through (`join.rs`);
//! * aggregates, grouped or not, reduce straight off the lanes under the
//!   selection, one typed loop per aggregate; a dense integer key indexes
//!   the accumulators itself (`aggregate.rs`).
//!
//! Positions are built from a mask only where an operator emits rows one
//! by one: a projection.
//!
//! Every lane has the type the planner's binder decided, so each compare
//! and arithmetic operator finds its kernel. `IN`, `BETWEEN`, unary
//! operators, scalar functions and casts evaluate cell by cell through
//! the scalar [`crate::expr::eval`] into a lane of their decided type;
//! `DISTINCT` aggregates, `MIN`/`MAX` over TEXT or BOOL, `GROUP BY` an
//! expression, joins on several keys or on non-integer keys, `ORDER BY`
//! and `SELECT DISTINCT` pivot to rows and run the row operators. Either
//! way results (and errors) match row mode bit for bit.
//!
//! # Rows or lanes
//!
//! [`ExecPath`] (per context, [`ExecPath::Vector`] unless the engine's
//! `set_exec_path` says otherwise) is the walker's mode. In `Row` mode no
//! scan reads lanes: every scan yields the table's row handles, joins run
//! the nested loop, and aggregates the row accumulator. In `Vector` mode
//! each operator tells its input whether it consumes lanes — a filter, an
//! aggregate and an equi-join do; a projection, sort, limit, `DISTINCT`
//! and the nested loop of a join without an equi-conjunct do not — and a
//! full scan reads lanes when it is told so or has a residual of its own.
//! Otherwise it hands up refcounted row handles, which a bare `SELECT *`
//! materializes more cheaply than a build-then-pivot. Point lookups
//! (`PkPoint`/`IndexPoint`) and `VALUES` always yield rows, and every
//! operator takes either.
//!
//! # Known, documented divergences from row mode
//!
//! Both modes always agree on *results*, and neither meets a type error:
//! the binder refuses those when it plans the statement. The errors left
//! are data's (overflow, division by zero, an out-of-range function
//! argument), and their **ordering** may differ in three corners (an
//! error is still always raised, with the same message):
//!
//! * `AND`/`OR` evaluate the left operand for the whole batch before the
//!   right operand, so a left-side error on row 7 surfaces before a
//!   right-side error on row 3.
//! * Projections and aggregates evaluate column-at-a-time, so the first
//!   erroring *expression* wins rather than the first erroring *row*.
//! * The hash join only evaluates the `ON` residual on key-matching
//!   pairs; a residual that would error on a non-matching pair does not
//!   error here (the nested loop evaluates every pair).
//!
//! Additionally the incremental window-aggregate cache, which only
//! `Vector` mode reads, answers `SUM`/`AVG` from an exact `i64`
//! accumulator, which can differ from the row accumulator's sequential
//! `f64` accumulation only beyond 2^53.
//!
//! The planner's join pushdown is **not** a divergence: `WHERE` conjuncts
//! that read one side of an inner join sink into that side's scan residual
//! in the plan both modes execute, and only when neither the `WHERE` nor
//! any `ON` they sink through can raise (comparisons and `IS [NOT] NULL`
//! over columns, literals and parameters, and `AND`/`OR`/`NOT` of those),
//! so no error appears or disappears. The one thing a pushed conjunct can
//! still raise is a missing statement parameter, which now surfaces when
//! that table has rows rather than when the join does.

mod aggregate;
mod expr;
mod join;

use crate::exec::{eval_row, run_aggregate, scan, ExecContext};
use crate::expr::{eval, eval_pred, BoundExpr, EvalEnv};
use crate::plan::{AccessPath, PhysicalPlan};
use aggregate::{try_agg_kernels, try_window_fast_path};
use expr::{pred_mask, veval};
use join::{equi_pairs, join_outputs, join_rows};
use sstore_common::{Result, Row, TableId, Value};
use sstore_vector::compute::bool_to_sel;
use sstore_vector::{Column, Sel};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashSet};

/// The mode of the plan walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPath {
    /// Rows only: scans yield row handles, joins run the nested loop,
    /// aggregates the row accumulator, and the window-aggregate cache is
    /// never read. The reference semantics, selected only by tests and
    /// A/B measurements.
    Row,
    /// Batches of column lanes wherever an operator consumes them, rows
    /// elsewhere.
    #[default]
    Vector,
}

// ---------------------------------------------------------------------------
// Batch plumbing
// ---------------------------------------------------------------------------

/// The columns one operator hands the next. A scan borrows them from the
/// table's resident mirror ([`sstore_storage::Table::column`]) — nothing
/// is copied per query — and an operator that computes columns (the join's
/// gather) owns them. `columns[i] = None` means column `i` is pruned: no
/// operator above reads it.
struct VBatch<'a> {
    /// Lane count (authoritative even when every column is pruned).
    rows: usize,
    columns: Vec<Option<Cow<'a, Column>>>,
}

impl VBatch<'_> {
    /// The column at position `i`; panics if it was pruned (a bug in the
    /// `needed` analysis, not a data condition).
    fn column(&self, i: usize) -> &Column {
        self.columns[i]
            .as_deref()
            .expect("column was pruned but is referenced")
    }
}

/// The surviving lanes of a batch, owned by the operator output that
/// carries them; [`Selection::sel`] lends them to a kernel as a [`Sel`].
enum Selection<'a> {
    /// Every lane.
    All,
    /// Row-aligned: the lanes whose flag is set. A scan borrows its
    /// table's liveness mask.
    Mask(Cow<'a, [bool]>),
}

impl Selection<'_> {
    fn sel(&self) -> Sel<'_> {
        match self {
            Selection::All => Sel::All,
            Selection::Mask(m) => Sel::Mask(m),
        }
    }
}

/// Intermediate operator output: a batch plus selection while the data can
/// stay columnar, or materialized rows once an operator pivots.
enum VOut<'a> {
    Batch {
        batch: VBatch<'a>,
        sel: Selection<'a>,
    },
    Rows(Vec<Row>),
}

fn sel_iter<'a>(sel: Sel<'a>, rows: usize) -> Box<dyn Iterator<Item = usize> + 'a> {
    match sel {
        Sel::All => Box::new(0..rows),
        Sel::Mask(m) => Box::new((0..rows).filter(move |&i| m[i])),
        Sel::Pos(s) => Box::new(s.iter().map(|&i| i as usize)),
    }
}

/// Pivot one lane out of a batch. Pruned columns yield `Null`
/// placeholders — callers only read positions the plan references.
fn row_of(batch: &VBatch<'_>, i: usize) -> Row {
    batch
        .columns
        .iter()
        .map(|c| c.as_ref().map_or(Value::Null, |c| c.value_at(i)))
        .collect()
}

fn materialize(batch: &VBatch<'_>, sel: Sel) -> Vec<Row> {
    sel_iter(sel, batch.rows)
        .map(|i| row_of(batch, i))
        .collect()
}

fn materialize_out(out: VOut<'_>) -> Vec<Row> {
    match out {
        VOut::Rows(rows) => rows,
        VOut::Batch { batch, sel } => materialize(&batch, sel.sel()),
    }
}

/// `needed` plus every column the `extra` expressions read, ascending.
fn needed_with<'e>(needed: &[usize], extra: impl IntoIterator<Item = &'e BoundExpr>) -> Vec<usize> {
    let mut set: BTreeSet<usize> = needed.iter().copied().collect();
    for e in extra {
        e.collect_refs(&mut set);
    }
    set.into_iter().collect()
}

/// Run a SELECT plan (a query, a scalar subquery or an INSERT source) in
/// the context's mode and materialize the result.
pub(crate) fn run(
    plan: &PhysicalPlan,
    ctx: &dyn ExecContext,
    env: &EvalEnv<'_>,
) -> Result<Vec<Row>> {
    let walk = Walk {
        ctx,
        env,
        vector: ctx.exec_path() == ExecPath::Vector,
    };
    walk.run(plan, false, None).map(materialize_out)
}

/// One walk of a plan: the context it reads, the statement's environment,
/// and whether scans may read lanes (`Vector` mode).
struct Walk<'a, 'e> {
    ctx: &'a dyn ExecContext,
    env: &'e EvalEnv<'e>,
    vector: bool,
}

impl<'a> Walk<'a, '_> {
    /// Run `plan`. `lanes` says whether the operator above consumes lanes;
    /// `needed` is the set of column positions any ancestor will read
    /// (`None` = all), and scans and joins that produce batches prune
    /// everything else.
    fn run(&self, plan: &PhysicalPlan, lanes: bool, needed: Option<&[usize]>) -> Result<VOut<'a>> {
        let env = self.env;
        match plan {
            PhysicalPlan::Values { rows } => rows
                .iter()
                .map(|exprs| eval_row(exprs.iter().map(|e| eval(e, &[], env))))
                .collect::<Result<_>>()
                .map(VOut::Rows),
            PhysicalPlan::Scan {
                table,
                path,
                residual,
            } => {
                let full = matches!(path, AccessPath::Full);
                if !(self.vector && full && (lanes || residual.is_some())) {
                    let mut out = Vec::new();
                    scan(*table, path, residual.as_ref(), self.ctx, env, |_, row| {
                        // Shared handle: scans hand out refcount bumps, not copies.
                        out.push(row.clone());
                        Ok(())
                    })?;
                    return Ok(VOut::Rows(out));
                }
                self.ctx.check_read(*table)?;
                let tb = self.ctx.db().table(*table)?;
                let arity = tb.schema().arity();
                let wanted: Vec<usize> = match needed {
                    None => (0..arity).collect(),
                    Some(n) => needed_with(n, residual),
                };
                let mut columns = vec![None; arity];
                for c in wanted.into_iter().filter(|&c| c < arity) {
                    columns[c] = Some(Cow::Borrowed(tb.column(c)));
                }
                let batch = VBatch {
                    rows: tb.lanes(),
                    columns,
                };
                let live = match tb.live_mask() {
                    None => Selection::All,
                    Some(m) => Selection::Mask(Cow::Borrowed(m)),
                };
                let sel = match residual {
                    None => live,
                    Some(p) => Selection::Mask(pred_mask(p, &batch, live.sel(), env)?.into()),
                };
                Ok(VOut::Batch { batch, sel })
            }
            PhysicalPlan::Filter { input, pred } => {
                let child_needed = needed.map(|n| needed_with(n, [pred]));
                match self.run(input, true, child_needed.as_deref())? {
                    VOut::Rows(rows) => {
                        let mut out = Vec::with_capacity(rows.len());
                        for r in rows {
                            if eval_pred(pred, &r, env)? {
                                out.push(r);
                            }
                        }
                        Ok(VOut::Rows(out))
                    }
                    VOut::Batch { batch, sel } => {
                        let mask = pred_mask(pred, &batch, sel.sel(), env)?;
                        Ok(VOut::Batch {
                            batch,
                            sel: Selection::Mask(mask.into()),
                        })
                    }
                }
            }
            PhysicalPlan::Project { input, exprs } => {
                let project = |row: &Row| eval_row(exprs.iter().map(|e| eval(e, row, env)));
                if let PhysicalPlan::Scan {
                    table,
                    path: path @ (AccessPath::PkPoint(_) | AccessPath::IndexPoint(..)),
                    residual,
                } = &**input
                {
                    // A point scan projects each row it finds straight into a
                    // result row, with no vector of scanned handles between.
                    let mut out = Vec::new();
                    scan(*table, path, residual.as_ref(), self.ctx, env, |_, row| {
                        out.push(project(row)?);
                        Ok(())
                    })?;
                    return Ok(VOut::Rows(out));
                }
                let child_needed = needed_with(&[], exprs);
                match self.run(input, false, Some(&child_needed))? {
                    VOut::Rows(rows) => rows
                        .iter()
                        .map(project)
                        .collect::<Result<_>>()
                        .map(VOut::Rows),
                    VOut::Batch { batch, sel } => {
                        // Every expression and then every output row walks
                        // the selection, so a mask becomes positions once.
                        let pos;
                        let sel = match sel.sel() {
                            Sel::Mask(m) => {
                                pos = bool_to_sel(m);
                                Sel::Pos(&pos)
                            }
                            sel => sel,
                        };
                        if sel.is_empty(batch.rows) {
                            return Ok(VOut::Rows(Vec::new()));
                        }
                        let cols = exprs
                            .iter()
                            .map(|e| veval(e, &batch, sel, env))
                            .collect::<Result<Vec<_>>>()?;
                        let out = sel_iter(sel, batch.rows)
                            .map(|i| cols.iter().map(|c| c.value_at(i)).collect())
                            .collect();
                        Ok(VOut::Rows(out))
                    }
                }
            }
            PhysicalPlan::Aggregate {
                input,
                group_exprs,
                aggs,
            } => {
                if self.vector && group_exprs.is_empty() {
                    if let Some(rows) = try_window_fast_path(input, aggs, self.ctx)? {
                        return Ok(VOut::Rows(rows));
                    }
                }
                let reads = group_exprs
                    .iter()
                    .chain(aggs.iter().filter_map(|a| a.arg.as_ref()));
                let child_needed = needed_with(&[], reads);
                let rows = match self.run(input, true, Some(&child_needed))? {
                    VOut::Rows(rows) => rows,
                    VOut::Batch { batch, sel } => {
                        let sel = sel.sel();
                        // Over no rows the row accumulator evaluates nothing
                        // and still owes an ungrouped aggregate its one row.
                        if !sel.is_empty(batch.rows) {
                            if let Some(rows) =
                                try_agg_kernels(&batch, sel, group_exprs, aggs, env)?
                            {
                                return Ok(VOut::Rows(rows));
                            }
                        }
                        materialize(&batch, sel)
                    }
                };
                run_aggregate(&rows, group_exprs, aggs, env).map(VOut::Rows)
            }
            PhysicalPlan::Sort { input, keys } => {
                let child_needed: Option<Vec<usize>> = needed.map(|n| {
                    let mut set: BTreeSet<usize> = n.iter().copied().collect();
                    set.extend(keys.iter().map(|(pos, _)| *pos));
                    set.into_iter().collect()
                });
                let mut rows = materialize_out(self.run(input, false, child_needed.as_deref())?);
                rows.sort_by(|a, b| {
                    for (pos, desc) in keys {
                        let ord = a[*pos].cmp_total(&b[*pos]);
                        let ord = if *desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(VOut::Rows(rows))
            }
            PhysicalPlan::Limit { input, n } => {
                // The planner puts a Project, Sort or Distinct under every
                // Limit, and each of them hands up rows.
                let mut rows = materialize_out(self.run(input, false, needed)?);
                rows.truncate(*n as usize);
                Ok(VOut::Rows(rows))
            }
            PhysicalPlan::Distinct { input } => {
                let rows = materialize_out(self.run(input, false, None)?);
                let mut seen = HashSet::with_capacity(rows.len());
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    if seen.insert(r.clone()) {
                        out.push(r);
                    }
                }
                Ok(VOut::Rows(out))
            }
            PhysicalPlan::NestedLoopJoin { left, right, on } => {
                let db = self.ctx.db();
                let arity_fn = |t: TableId| db.table(t).map(|tb| tb.schema().arity()).unwrap_or(0);
                let left_arity = left.arity(&arity_fn);
                let width = left_arity + right.arity(&arity_fn);
                // Each side produces what the operators above read of it plus
                // what `on` reads of it — not every column.
                let above: Vec<usize> = match needed {
                    None => (0..width).collect(),
                    Some(n) => n.iter().copied().filter(|&c| c < width).collect(),
                };
                let both = needed_with(&above, [on]);
                let split = both.partition_point(|&c| c < left_arity);
                let right_needed: Vec<usize> =
                    both[split..].iter().map(|c| c - left_arity).collect();
                let pairs = if self.vector {
                    equi_pairs(on, left_arity)
                } else {
                    Vec::new()
                };
                // The nested loop (no pairs) reads rows of either side.
                let lanes = !pairs.is_empty();
                let lout = self.run(left, lanes, Some(&both[..split]))?;
                let rout = self.run(right, lanes, Some(&right_needed))?;
                if !lanes {
                    return join_rows(lout, rout, on, &pairs, env).map(VOut::Rows);
                }
                join_outputs(lout, rout, on, &pairs, left_arity, &above, env)
            }
        }
    }
}
