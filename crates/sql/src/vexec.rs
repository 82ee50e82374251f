//! Vectorized plan execution over [`sstore_vector`] columns.
//!
//! The row interpreter in [`crate::exec`] walks plans a tuple at a time;
//! this module lowers *eligible* plan shapes onto typed column kernels and
//! keeps the data columnar from storage to result:
//!
//! * a full scan **borrows** the table's resident columns
//!   ([`sstore_storage::Table::column`], lane *i* = slot *i*, maintained by
//!   the table's mutators) — no per-query row → column pivot — and starts
//!   from every lane, or from the table's liveness mask when it has a free
//!   slot;
//! * `WHERE` clauses turn into a mask: the predicate's `bool` lane ANDed
//!   with its validity and the incoming selection;
//! * an equi-join on one integer key asks each side only for the columns
//!   somebody reads and probes the key lanes. When each probe row matches
//!   at most one build row through a dense slot table, the output is the
//!   probe batch itself under a hit mask, plus the build columns somebody
//!   reads gathered through a build-row lane; otherwise it is a (probe,
//!   build) pair of index vectors that just those columns are gathered
//!   through;
//! * aggregates, grouped or not, reduce straight off the lanes under the
//!   selection, one typed loop per aggregate; a dense integer key indexes
//!   the accumulators itself.
//!
//! Positions are built from a mask only where an operator emits rows one
//! by one: a projection.
//!
//! Anything the kernels cannot express exactly — mixed-type (`Generic`)
//! lanes, `IN`/`BETWEEN`/scalar functions — falls back cell-by-cell onto
//! the scalar [`crate::expr::eval`]; `DISTINCT` aggregates, `GROUP BY` an
//! expression, joins on several keys or on non-integer keys, `ORDER BY`
//! and `SELECT DISTINCT` pivot to rows and run the row path's own
//! accumulators. Either way results (and errors) match the row path bit
//! for bit.
//!
//! # Path selection
//!
//! `eligible` is a pure shape check: full-scan leaves, equi-join `ON`
//! clauses, and any stack of Filter/Project/Aggregate/Sort/Limit/Distinct
//! above them. `worthwhile` additionally requires at least one operator
//! that benefits from batching (a residual predicate, an aggregate, or a
//! join) so that trivial `SELECT *` scans keep the row path's
//! zero-copy row handles. The planner stamps `PlannedStmt::Query` with
//! the verdict; [`ExecPath`] (per-context, [`ExecPath::Vector`] unless the
//! engine's `set_exec_path` says otherwise) picks the path at run time.
//!
//! # Known, documented divergences from the row interpreter
//!
//! Both paths always agree on *results*. Error **ordering** may differ in
//! three corners (an error is still always raised, with the same message):
//!
//! * `AND`/`OR` evaluate the left operand for the whole batch before the
//!   right operand, so a left-side error on row 7 surfaces before a
//!   right-side error on row 3.
//! * Projections and aggregates evaluate column-at-a-time, so the first
//!   erroring *expression* wins rather than the first erroring *row*.
//! * The hash join only evaluates the `ON` residual on key-matching
//!   pairs; a residual that would error on a non-matching pair does not
//!   error here (the row path's nested loop evaluates every pair).
//!
//! Additionally the incremental window-aggregate cache answers
//! `SUM`/`AVG` from an exact `i64` accumulator, which can differ from the
//! row path's sequential `f64` accumulation only beyond 2^53.
//!
//! The planner's join pushdown is **not** a divergence: `WHERE` conjuncts
//! that read one side of an inner join sink into that side's scan residual
//! in the plan both paths execute, and only when neither the `WHERE` nor
//! any `ON` they sink through can raise (comparisons and `IS [NOT] NULL`
//! over columns, literals and parameters, and `AND`/`OR`/`NOT` of those),
//! so no error appears or disappears. The one thing a pushed conjunct can
//! still raise is a missing statement parameter, which now surfaces when
//! that table has rows rather than when the join does.

use crate::exec::{run_aggregate, ExecContext};
use crate::expr::{eval, eval_pred, BoundExpr, EvalEnv};
use crate::plan::{AccessPath, AggExpr, AggFunc, PhysicalPlan};
use sstore_common::{DataType, Error, Result, Row, TableId, Value};
use sstore_storage::TableKind;
use sstore_vector::compute::{
    arith_num, bool_to_sel, cmp_bool, cmp_num, cmp_str, to_mask, BoolSrc, StrSrc,
};
use sstore_vector::group::Groups;
use sstore_vector::join::{hash_join_i64, Matches};
use sstore_vector::{ArithOp, Bitmap, CmpOp, Column, ColumnData, NumSrc, Sel};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

/// Which executor a context routes eligible queries through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPath {
    /// Tuple-at-a-time interpreter ([`crate::exec`]): the reference
    /// semantics, selected only by tests and A/B measurements.
    Row,
    /// Columnar batch kernels (this module), with row fallback for
    /// ineligible plans.
    #[default]
    Vector,
}

// ---------------------------------------------------------------------------
// Shape analysis
// ---------------------------------------------------------------------------

/// True if every node of `plan` can run on the vector path: full-scan
/// leaves, joins with at least one top-level equi-conjunct, and the
/// standard relational operators above them. Point lookups (`PkPoint`/
/// `IndexPoint`) and `VALUES` stay on the row path.
pub(crate) fn eligible(plan: &PhysicalPlan, table_arity: &dyn Fn(TableId) -> usize) -> bool {
    match plan {
        PhysicalPlan::Values { .. } => false,
        PhysicalPlan::Scan { path, .. } => matches!(path, AccessPath::Full),
        PhysicalPlan::NestedLoopJoin { left, right, on } => {
            eligible(left, table_arity)
                && eligible(right, table_arity)
                && !equi_pairs(on, left.arity(table_arity)).is_empty()
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Aggregate { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Distinct { input } => eligible(input, table_arity),
    }
}

/// True if the plan contains at least one operator that actually benefits
/// from batching (filter, aggregate, or join). A bare `SELECT * FROM t`
/// materializes every cell either way, and the row path's refcounted row
/// handles are cheaper than a build-then-pivot.
pub(crate) fn worthwhile(plan: &PhysicalPlan) -> bool {
    match plan {
        PhysicalPlan::Values { .. } => false,
        PhysicalPlan::Scan { residual, .. } => residual.is_some(),
        PhysicalPlan::NestedLoopJoin { .. }
        | PhysicalPlan::Filter { .. }
        | PhysicalPlan::Aggregate { .. } => true,
        PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Distinct { input } => worthwhile(input),
    }
}

/// Extract `(left_col, right_col)` equi-join pairs from the top-level
/// `AND`-conjuncts of `on`. Column offsets in `on` index the concatenated
/// row; `right_col` is returned relative to the right input.
pub(crate) fn equi_pairs(on: &BoundExpr, left_arity: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for c in on.conjuncts() {
        if let BoundExpr::Binary {
            op: crate::ast::BinOp::Eq,
            left,
            right,
        } = c
        {
            if let (BoundExpr::ColumnRef(a), BoundExpr::ColumnRef(b)) = (&**left, &**right) {
                if *a < left_arity && *b >= left_arity {
                    out.push((*a, *b - left_arity));
                } else if *b < left_arity && *a >= left_arity {
                    out.push((*b, *a - left_arity));
                }
            }
        }
    }
    out
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

/// Run an eligible plan on the vector path and materialize the result.
pub(crate) fn run(
    plan: &PhysicalPlan,
    ctx: &dyn ExecContext,
    env: &EvalEnv<'_>,
) -> Result<Vec<Row>> {
    vrun(plan, ctx, env, None).map(materialize_out)
}

/// Recursive batch executor. `needed` is the set of column positions any
/// ancestor will read (`None` = all); scans and joins prune everything else.
fn vrun<'a>(
    plan: &PhysicalPlan,
    ctx: &'a dyn ExecContext,
    env: &EvalEnv<'_>,
    needed: Option<&[usize]>,
) -> Result<VOut<'a>> {
    match plan {
        PhysicalPlan::Values { rows } => {
            let out = rows
                .iter()
                .map(|exprs| {
                    exprs
                        .iter()
                        .map(|e| eval(e, &[], env))
                        .collect::<Result<Row>>()
                })
                .collect::<Result<Vec<_>>>()?;
            Ok(VOut::Rows(out))
        }
        PhysicalPlan::Scan {
            table,
            path,
            residual,
        } => {
            if !matches!(path, AccessPath::Full) {
                return Err(Error::Internal(
                    "vectorized scan requires a full access path".into(),
                ));
            }
            ctx.check_read(*table)?;
            let tb = ctx.db().table(*table)?;
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
            match vrun(input, ctx, env, child_needed.as_deref())? {
                VOut::Rows(rows) => {
                    let mut out = Vec::new();
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
            let child_needed = needed_with(&[], exprs);
            match vrun(input, ctx, env, Some(&child_needed))? {
                VOut::Rows(rows) => {
                    let out = rows
                        .iter()
                        .map(|r| {
                            exprs
                                .iter()
                                .map(|e| eval(e, r, env))
                                .collect::<Result<Row>>()
                        })
                        .collect::<Result<Vec<_>>>()?;
                    Ok(VOut::Rows(out))
                }
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
            if group_exprs.is_empty() {
                if let Some(rows) = try_window_fast_path(input, aggs, ctx)? {
                    return Ok(VOut::Rows(rows));
                }
            }
            let reads = group_exprs
                .iter()
                .chain(aggs.iter().filter_map(|a| a.arg.as_ref()));
            let child_needed = needed_with(&[], reads);
            let rows = match vrun(input, ctx, env, Some(&child_needed))? {
                VOut::Rows(rows) => rows,
                VOut::Batch { batch, sel } => {
                    let sel = sel.sel();
                    // Over no rows the row path evaluates nothing and
                    // still owes an ungrouped aggregate its one row.
                    if !sel.is_empty(batch.rows) {
                        if let Some(rows) = try_agg_kernels(&batch, sel, group_exprs, aggs, env)? {
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
            let mut rows = materialize_out(vrun(input, ctx, env, child_needed.as_deref())?);
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
            let mut rows = materialize_out(vrun(input, ctx, env, needed)?);
            rows.truncate(*n as usize);
            Ok(VOut::Rows(rows))
        }
        PhysicalPlan::Distinct { input } => {
            let rows = materialize_out(vrun(input, ctx, env, None)?);
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for r in rows {
                if seen.insert(r.clone()) {
                    out.push(r);
                }
            }
            Ok(VOut::Rows(out))
        }
        PhysicalPlan::NestedLoopJoin { left, right, on } => {
            let db = ctx.db();
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
            let right_needed: Vec<usize> = both[split..].iter().map(|c| c - left_arity).collect();
            let lout = vrun(left, ctx, env, Some(&both[..split]))?;
            let rout = vrun(right, ctx, env, Some(&right_needed))?;
            let pairs = equi_pairs(on, left_arity);
            join_outputs(lout, rout, on, &pairs, left_arity, &above, env)
        }
    }
}

// ---------------------------------------------------------------------------
// Expression evaluation over batches
// ---------------------------------------------------------------------------

/// A batch-level expression result: a constant (same value for every
/// selected row), a borrowed input column, or a freshly computed one.
enum VCol<'a> {
    Const(Value),
    Ref(&'a Column),
    Owned(Column),
}

impl VCol<'_> {
    fn col(&self) -> Option<&Column> {
        match self {
            VCol::Const(_) => None,
            VCol::Ref(c) => Some(c),
            VCol::Owned(c) => Some(c),
        }
    }

    fn value_at(&self, i: usize) -> Value {
        match self {
            VCol::Const(v) => v.clone(),
            VCol::Ref(c) => c.value_at(i),
            VCol::Owned(c) => c.value_at(i),
        }
    }

    fn is_null_at(&self, i: usize) -> bool {
        match self {
            VCol::Const(v) => v.is_null(),
            VCol::Ref(c) => c.is_null_at(i),
            VCol::Owned(c) => c.is_null_at(i),
        }
    }
}

fn all_null(data: ColumnData, rows: usize) -> Column {
    Column {
        data,
        validity: Some(Bitmap::new_clear(rows)),
    }
}

/// View a result as a numeric kernel operand. The `bool` flag marks
/// timestamp-typed sources, whose arithmetic against floats must take the
/// scalar fallback (the row path's `as_float` rejects timestamps).
fn num_src<'v>(v: &'v VCol<'_>) -> Option<(NumSrc<'v>, Option<&'v Bitmap>, bool)> {
    match v {
        VCol::Const(Value::Int(k)) => Some((NumSrc::CI(*k), None, false)),
        VCol::Const(Value::Float(f)) => Some((NumSrc::CF(*f), None, false)),
        VCol::Const(Value::Timestamp(t)) => Some((NumSrc::CI(*t), None, true)),
        VCol::Const(_) => None,
        _ => {
            let c = v.col()?;
            let validity = c.validity.as_ref();
            match &c.data {
                ColumnData::Int(d) => Some((NumSrc::I(d), validity, false)),
                ColumnData::Timestamp(d) => Some((NumSrc::I(d), validity, true)),
                ColumnData::Float(d) => Some((NumSrc::F(d), validity, false)),
                _ => None,
            }
        }
    }
}

fn str_src<'v>(v: &'v VCol<'_>) -> Option<(StrSrc<'v>, Option<&'v Bitmap>)> {
    match v {
        VCol::Const(Value::Text(s)) => Some((StrSrc::Const(s), None)),
        VCol::Const(_) => None,
        _ => match v.col()? {
            Column {
                data: ColumnData::Text(d),
                validity,
            } => Some((StrSrc::Col(d), validity.as_ref())),
            _ => None,
        },
    }
}

fn bool_src<'v>(v: &'v VCol<'_>) -> Option<(BoolSrc<'v>, Option<&'v Bitmap>)> {
    match v {
        VCol::Const(Value::Bool(b)) => Some((BoolSrc::Const(*b), None)),
        VCol::Const(_) => None,
        _ => match v.col()? {
            Column {
                data: ColumnData::Bool(d),
                validity,
            } => Some((BoolSrc::Col(d), validity.as_ref())),
            _ => None,
        },
    }
}

fn is_const_null(v: &VCol<'_>) -> bool {
    matches!(v, VCol::Const(Value::Null))
}

fn cmp_op_of(op: crate::ast::BinOp) -> CmpOp {
    match op {
        crate::ast::BinOp::Eq => CmpOp::Eq,
        crate::ast::BinOp::Neq => CmpOp::Ne,
        crate::ast::BinOp::Lt => CmpOp::Lt,
        crate::ast::BinOp::Le => CmpOp::Le,
        crate::ast::BinOp::Gt => CmpOp::Gt,
        crate::ast::BinOp::Ge => CmpOp::Ge,
        other => unreachable!("not a comparison operator: {other:?}"),
    }
}

fn arith_op_of(op: crate::ast::BinOp) -> ArithOp {
    match op {
        crate::ast::BinOp::Add => ArithOp::Add,
        crate::ast::BinOp::Sub => ArithOp::Sub,
        crate::ast::BinOp::Mul => ArithOp::Mul,
        crate::ast::BinOp::Div => ArithOp::Div,
        crate::ast::BinOp::Mod => ArithOp::Mod,
        other => unreachable!("not an arithmetic operator: {other:?}"),
    }
}

/// Kernel dispatch for a comparison; `None` = operand shapes the kernels
/// don't cover (mixed-type lanes), caller takes the scalar fallback.
/// Comparisons never type-error (`cmp_total` is total), so heterogeneous
/// pairs are the only reason to bail.
fn vcmp(op: CmpOp, l: &VCol<'_>, r: &VCol<'_>, sel: Sel, rows: usize) -> Option<Column> {
    if is_const_null(l) || is_const_null(r) {
        return Some(all_null(ColumnData::Bool(vec![false; rows]), rows));
    }
    if let (Some((a, av, _)), Some((b, bv, _))) = (num_src(l), num_src(r)) {
        let (vals, validity) = cmp_num(op, a, av, b, bv, sel, rows);
        return Some(Column {
            data: ColumnData::Bool(vals),
            validity,
        });
    }
    if let (Some((a, av)), Some((b, bv))) = (str_src(l), str_src(r)) {
        let (vals, validity) = cmp_str(op, a, av, b, bv, sel, rows);
        return Some(Column {
            data: ColumnData::Bool(vals),
            validity,
        });
    }
    if let (Some((a, av)), Some((b, bv))) = (bool_src(l), bool_src(r)) {
        let (vals, validity) = cmp_bool(op, a, av, b, bv, sel, rows);
        return Some(Column {
            data: ColumnData::Bool(vals),
            validity,
        });
    }
    None
}

/// Kernel dispatch for arithmetic; `None` = take the scalar fallback.
fn varith(
    op: ArithOp,
    l: &VCol<'_>,
    r: &VCol<'_>,
    sel: Sel,
    rows: usize,
) -> Option<Result<Column>> {
    if is_const_null(l) || is_const_null(r) {
        // The row path checks NULL operands before anything else, so a
        // NULL constant nulls the whole column regardless of the other
        // operand's type.
        return Some(Ok(all_null(ColumnData::Int(vec![0; rows]), rows)));
    }
    let (a, av, a_ts) = num_src(l)?;
    let (b, bv, b_ts) = num_src(r)?;
    if (a_ts || b_ts) && !(a.is_int() && b.is_int()) {
        // Timestamp ⊕ Float errors in the row path; go scalar for parity.
        return None;
    }
    Some(arith_num(op, a, av, b, bv, sel, rows).map(|(data, validity)| Column { data, validity }))
}

/// Evaluate `e` over the selected rows of `batch`. Kernel-backed where the
/// operand lanes allow, scalar fallback otherwise. Callers must ensure the
/// selection is non-empty (constant subexpressions are evaluated eagerly,
/// and the row path never evaluates anything over zero rows).
fn veval<'a>(
    e: &BoundExpr,
    batch: &'a VBatch<'_>,
    sel: Sel,
    env: &EvalEnv<'_>,
) -> Result<VCol<'a>> {
    match e {
        BoundExpr::Literal(v) => Ok(VCol::Const(v.clone())),
        BoundExpr::Param(i) => env
            .params
            .get(*i)
            .cloned()
            .map(VCol::Const)
            .ok_or_else(|| Error::Constraint(format!("missing parameter ?{i}"))),
        BoundExpr::SubqueryRef(i) => env
            .subs
            .get(*i)
            .cloned()
            .map(VCol::Const)
            .ok_or_else(|| Error::Internal(format!("missing subquery slot {i}"))),
        BoundExpr::ColumnRef(i) => {
            if *i >= batch.columns.len() {
                return Err(Error::Internal(format!("column offset {i} out of range")));
            }
            Ok(VCol::Ref(batch.column(*i)))
        }
        BoundExpr::Scalar { func, .. } if *func == crate::expr::ScalarFn::Now => {
            Ok(VCol::Const(Value::Timestamp(env.now)))
        }
        BoundExpr::IsNull { expr, negated } => {
            let c = veval(expr, batch, sel, env)?;
            let mut vals = vec![false; batch.rows];
            for i in sel_iter(sel, batch.rows) {
                vals[i] = c.is_null_at(i) != *negated;
            }
            Ok(VCol::Owned(Column {
                data: ColumnData::Bool(vals),
                validity: None,
            }))
        }
        BoundExpr::Binary { op, left, right } => match op {
            crate::ast::BinOp::And => vand_or(true, left, right, batch, sel, env),
            crate::ast::BinOp::Or => vand_or(false, left, right, batch, sel, env),
            crate::ast::BinOp::Eq
            | crate::ast::BinOp::Neq
            | crate::ast::BinOp::Lt
            | crate::ast::BinOp::Le
            | crate::ast::BinOp::Gt
            | crate::ast::BinOp::Ge => {
                let l = veval(left, batch, sel, env)?;
                let r = veval(right, batch, sel, env)?;
                match vcmp(cmp_op_of(*op), &l, &r, sel, batch.rows) {
                    Some(c) => Ok(VCol::Owned(c)),
                    None => veval_cellwise(e, batch, sel, env),
                }
            }
            crate::ast::BinOp::Add
            | crate::ast::BinOp::Sub
            | crate::ast::BinOp::Mul
            | crate::ast::BinOp::Div
            | crate::ast::BinOp::Mod => {
                let l = veval(left, batch, sel, env)?;
                let r = veval(right, batch, sel, env)?;
                match varith(arith_op_of(*op), &l, &r, sel, batch.rows) {
                    Some(res) => res.map(VCol::Owned),
                    None => veval_cellwise(e, batch, sel, env),
                }
            }
        },
        // IN / BETWEEN / unary ops / scalar functions: scalar fallback —
        // exact semantics, still batched through the selection.
        _ => veval_cellwise(e, batch, sel, env),
    }
}

/// Scalar fallback: evaluate the whole expression per selected row via
/// [`eval`], gathering referenced cells into a scratch row. Exact row-path
/// semantics including error order within the expression.
fn veval_cellwise(
    e: &BoundExpr,
    batch: &VBatch<'_>,
    sel: Sel,
    env: &EvalEnv<'_>,
) -> Result<VCol<'static>> {
    let mut refs = BTreeSet::new();
    e.collect_refs(&mut refs);
    let mut scratch = vec![Value::Null; batch.columns.len()];
    let mut out = vec![Value::Null; batch.rows];
    for i in sel_iter(sel, batch.rows) {
        for &r in &refs {
            scratch[r] = batch.column(r).value_at(i);
        }
        out[i] = eval(e, &scratch, env)?;
    }
    Ok(VCol::Owned(Column {
        data: ColumnData::Generic(out),
        validity: None,
    }))
}

/// Three-valued `AND`/`OR` with short-circuit parity: the right operand is
/// only evaluated on rows the left side did not decide, so `x <> 0 AND
/// 10 / x > 1` never divides by zero — exactly like the row interpreter.
fn vand_or(
    is_and: bool,
    left: &BoundExpr,
    right: &BoundExpr,
    batch: &VBatch<'_>,
    sel: Sel,
    env: &EvalEnv<'_>,
) -> Result<VCol<'static>> {
    let op_name = if is_and { "AND" } else { "OR" };
    let lcol = veval(left, batch, sel, env)?;
    let rows = batch.rows;
    let mut vals = vec![false; rows];
    let mut validity = Bitmap::new_set(rows);
    // Left tri-state per selected row; `sub` = rows not short-circuited.
    let mut ltri: Vec<Option<bool>> = vec![None; rows];
    let mut sub: Vec<u32> = Vec::new();
    for i in sel_iter(sel, rows) {
        let t = match lcol.value_at(i) {
            Value::Bool(b) => Some(b),
            Value::Null => None,
            other => {
                return Err(Error::TypeMismatch(format!("{op_name} applied to {other}")));
            }
        };
        ltri[i] = t;
        if t == Some(!is_and) {
            // AND short-circuits on false, OR on true.
            vals[i] = !is_and;
        } else {
            sub.push(i as u32);
        }
    }
    if !sub.is_empty() {
        let rcol = veval(right, batch, Sel::Pos(&sub), env)?;
        for &iu in &sub {
            let i = iu as usize;
            match (rcol.value_at(i), ltri[i]) {
                // Mirrors the row path's merge: a decisive right side wins
                // even when the left was NULL.
                (Value::Bool(b), _) if b != is_and => vals[i] = !is_and,
                (Value::Null, _) | (Value::Bool(_), None) => validity.set(i, false),
                (Value::Bool(_), Some(_)) => vals[i] = is_and,
                (other, _) => {
                    return Err(Error::TypeMismatch(format!("{op_name} applied to {other}")));
                }
            }
        }
    }
    Ok(VCol::Owned(Column {
        data: ColumnData::Bool(vals),
        validity: Some(validity),
    }))
}

/// Evaluate a predicate over the selection and reduce it to a mask of the
/// surviving rows: selected, and true. NULL counts as false (SQL `WHERE`
/// semantics).
fn pred_mask(
    pred: &BoundExpr,
    batch: &VBatch<'_>,
    sel: Sel,
    env: &EvalEnv<'_>,
) -> Result<Vec<bool>> {
    let rows = batch.rows;
    if sel.is_empty(rows) {
        return Ok(vec![false; rows]);
    }
    let (vals, validity) = match veval(pred, batch, sel, env)? {
        VCol::Owned(Column {
            data: ColumnData::Bool(vals),
            validity,
        }) => (vals, validity),
        VCol::Ref(Column {
            data: ColumnData::Bool(vals),
            validity,
        }) => (vals.clone(), validity.clone()),
        c => {
            let mut out = vec![false; rows];
            for i in sel_iter(sel, rows) {
                match c.value_at(i) {
                    Value::Bool(b) => out[i] = b,
                    Value::Null => {}
                    other => {
                        return Err(Error::TypeMismatch(format!(
                            "predicate evaluated to non-boolean {other}"
                        )));
                    }
                }
            }
            return Ok(out);
        }
    };
    Ok(to_mask(vals, validity.as_ref(), sel))
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// Aggregation straight off the lanes: group ids from the key columns
/// (one group when there are none), then one typed loop per aggregate.
/// `None` = something has no kernel — `DISTINCT`, a key that is an
/// expression rather than a column, a key or `COUNT` argument in a
/// `Generic` lane, or an argument lane whose `SUM`/`AVG`/`MIN`/`MAX`
/// carries row-path type errors (Text, Bool; Timestamp sums) — and the
/// caller falls back to the row accumulator for exact parity. Groups come
/// out in order of first appearance, as `run_aggregate` emits them.
/// Caller guarantees a non-empty selection.
fn try_agg_kernels(
    batch: &VBatch<'_>,
    sel: Sel,
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    env: &EvalEnv<'_>,
) -> Result<Option<Vec<Row>>> {
    if aggs.iter().any(|a| a.distinct) {
        return Ok(None);
    }
    let rows = batch.rows;
    let mut keys: Vec<&Column> = Vec::with_capacity(group_exprs.len());
    let mut groups: Option<Groups> = None;
    for e in group_exprs {
        let BoundExpr::ColumnRef(_) = e else {
            return Ok(None);
        };
        let VCol::Ref(key) = veval(e, batch, sel, env)? else {
            return Ok(None);
        };
        let Some(g) = Groups::of(key, sel, rows) else {
            return Ok(None);
        };
        groups = Some(match groups {
            None => g,
            Some(outer) => outer.and(&g, sel, rows),
        });
        keys.push(key);
    }
    let groups = groups.unwrap_or_else(|| Groups::all(sel, rows));

    let ints = |v: Vec<i64>| v.into_iter().map(Value::Int).collect();
    let opt = |v: Option<Value>| v.unwrap_or(Value::Null);
    let mut results: Vec<Vec<Value>> = Vec::with_capacity(aggs.len());
    // The rows per group. An int SUM over a lane without NULLs counts
    // them in its pass, so COUNT(*) is filled in after every other
    // aggregate; it cannot fail, so the order is not seen.
    let mut row_counts: Option<Vec<i64>> = None;
    for agg in aggs {
        if agg.func == AggFunc::CountStar {
            results.push(Vec::new());
            continue;
        }
        let Some(arg) = &agg.arg else {
            return Ok(None);
        };
        let vc = veval(arg, batch, sel, env)?;
        let Some(c) = vc.col() else {
            // Constant argument: only COUNT is worth a kernel (a NULL
            // counts nothing, anything else every row).
            if agg.func != AggFunc::Count {
                return Ok(None);
            }
            results.push(if vc.is_null_at(0) {
                vec![Value::Int(0); groups.len()]
            } else {
                ints(groups.count(None, sel, rows))
            });
            continue;
        };
        let v = c.validity.as_ref();
        let want_max = agg.func == AggFunc::Max;
        results.push(match (agg.func, &c.data) {
            // A Generic lane may hold NULLs the bitmap does not know.
            (_, ColumnData::Generic(_)) => return Ok(None),
            (AggFunc::Count, _) => ints(groups.count(v, sel, rows)),
            (AggFunc::Sum, ColumnData::Int(d)) => {
                let (sums, counts) = groups.sum_int(d, v, sel, rows)?;
                if v.is_none() {
                    row_counts = Some(counts);
                }
                sums.into_iter().map(|s| opt(s.map(Value::Int))).collect()
            }
            (AggFunc::Sum, ColumnData::Float(d)) => groups
                .sum_float(d, v, sel, rows)
                .into_iter()
                .map(|s| opt(s.map(Value::Float)))
                .collect(),
            (AggFunc::Avg, ColumnData::Int(_) | ColumnData::Float(_)) => {
                let src = match &c.data {
                    ColumnData::Int(d) => NumSrc::I(d),
                    ColumnData::Float(d) => NumSrc::F(d),
                    _ => unreachable!("matched above"),
                };
                groups
                    .avg(src, v, sel, rows)
                    .into_iter()
                    .map(|(sum, k)| opt((k > 0).then(|| Value::Float(sum / k as f64))))
                    .collect()
            }
            (AggFunc::Min | AggFunc::Max, ColumnData::Int(d)) => groups
                .min_max_int(d, v, sel, rows, want_max)
                .into_iter()
                .map(|m| opt(m.map(Value::Int)))
                .collect(),
            (AggFunc::Min | AggFunc::Max, ColumnData::Timestamp(d)) => groups
                .min_max_int(d, v, sel, rows, want_max)
                .into_iter()
                .map(|m| opt(m.map(Value::Timestamp)))
                .collect(),
            (AggFunc::Min | AggFunc::Max, ColumnData::Float(d)) => groups
                .min_max_float(d, v, sel, rows, want_max)
                .into_iter()
                .map(|m| opt(m.map(Value::Float)))
                .collect(),
            _ => return Ok(None),
        });
    }
    for (agg, r) in aggs.iter().zip(&mut results) {
        if agg.func == AggFunc::CountStar {
            let counts = row_counts.get_or_insert_with(|| groups.count(None, sel, rows));
            *r = ints(counts.clone());
        }
    }
    Ok(Some(
        groups
            .first
            .iter()
            .enumerate()
            .map(|(g, &lane)| {
                keys.iter()
                    .map(|k| k.value_at(lane as usize))
                    .chain(results.iter().map(|r| r[g].clone()))
                    .collect()
            })
            .collect(),
    ))
}

/// Answer ungrouped `COUNT/SUM/AVG` over a bare window scan from the
/// window's incremental aggregate cache — O(aggs) instead of O(window).
/// `None` = shape or cache not applicable; caller scans normally.
fn try_window_fast_path(
    input: &PhysicalPlan,
    aggs: &[AggExpr],
    ctx: &dyn ExecContext,
) -> Result<Option<Vec<Row>>> {
    let PhysicalPlan::Scan {
        table,
        path: AccessPath::Full,
        residual: None,
    } = input
    else {
        return Ok(None);
    };
    let db = ctx.db();
    let Ok(TableKind::Window(w)) = db.kind(*table) else {
        return Ok(None);
    };
    if !w.aggs.valid || w.aggs.rows != db.table(*table)?.len() as u64 {
        return Ok(None);
    }
    // Scope enforcement must fire even when the scan itself is skipped.
    ctx.check_read(*table)?;
    let meta = db
        .catalog()
        .meta(*table)
        .ok_or_else(|| Error::Internal(format!("table {table} missing from catalog")))?;
    let vis = &meta.visible_schema;
    let rows = w.aggs.rows;
    let mut out: Vec<Value> = Vec::with_capacity(aggs.len());
    for agg in aggs {
        if agg.distinct {
            return Ok(None);
        }
        let value = match (agg.func, agg.arg.as_ref()) {
            (AggFunc::CountStar, _) => Value::Int(rows as i64),
            (AggFunc::Count, Some(BoundExpr::ColumnRef(i))) if *i < vis.arity() => {
                match w.aggs.cols.get(*i) {
                    Some(c) => Value::Int(c.nonnull as i64),
                    None => return Ok(None),
                }
            }
            (AggFunc::Sum | AggFunc::Avg, Some(BoundExpr::ColumnRef(i)))
                if *i < vis.arity() && vis.columns()[*i].ty == DataType::Int =>
            {
                let Some(c) = w.aggs.cols.get(*i) else {
                    return Ok(None);
                };
                if c.overflow {
                    // Let the scan path raise the row-order overflow error.
                    return Ok(None);
                }
                if c.nonnull == 0 {
                    Value::Null
                } else if agg.func == AggFunc::Sum {
                    Value::Int(c.overflow_sum)
                } else {
                    Value::Float(c.overflow_sum as f64 / c.nonnull as f64)
                }
            }
            _ => return Ok(None),
        };
        out.push(value);
    }
    Ok(Some(vec![out.into()]))
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Hash join both inputs on the extracted equi-pairs, then apply the full
/// `ON` expression to each key-matching pair. Output order matches the
/// nested loop: left-major, right side in its scan order. `above` lists
/// the output columns the operators above read; only those, and the ones
/// `on` reads if it has to be evaluated, are produced.
fn join_outputs<'a>(
    lout: VOut<'a>,
    rout: VOut<'a>,
    on: &BoundExpr,
    pairs: &[(usize, usize)],
    left_arity: usize,
    above: &[usize],
    env: &EvalEnv<'_>,
) -> Result<VOut<'a>> {
    let int_lane = |c: &Column| matches!(c.data, ColumnData::Int(_) | ColumnData::Timestamp(_));
    match (lout, rout, pairs) {
        (
            VOut::Batch {
                batch: lb,
                sel: lsel,
            },
            VOut::Batch {
                batch: rb,
                sel: rsel,
            },
            &[(lp, rp)],
        ) if int_lane(lb.column(lp)) && int_lane(rb.column(rp)) => {
            join_i64((lb, lsel, lp), (rb, rsel, rp), on, left_arity, above, env)
        }
        (lout, rout, _) => join_rows(lout, rout, on, pairs, env).map(VOut::Rows),
    }
}

/// The fast path: a single `INT = INT` key over intact batches, probed
/// with the i64 kernel (left side probes, right side builds). No row is
/// built. A unique dense build side hands back the left batch itself
/// under a hit mask, plus the right columns somebody reads, gathered
/// through a build-row lane; otherwise the matches are two index vectors
/// that just the columns somebody reads are gathered through. Each side
/// comes with its key column's position.
fn join_i64<'a>(
    (lb, lsel, lp): (VBatch<'a>, Selection<'a>, usize),
    (rb, rsel, rp): (VBatch<'a>, Selection<'a>, usize),
    on: &BoundExpr,
    left_arity: usize,
    above: &[usize],
    env: &EvalEnv<'_>,
) -> Result<VOut<'a>> {
    // `on` is nothing but the key the kernel matches (i64 equality is `=`
    // on Int and Timestamp lanes alike): every pair passes, and `on`'s
    // columns need no gather.
    let on_is_key = matches!(
        on,
        BoundExpr::Binary { op: crate::ast::BinOp::Eq, left, right }
            if matches!((&**left, &**right), (BoundExpr::ColumnRef(_), BoundExpr::ColumnRef(_)))
    );
    let gathered = if on_is_key {
        above.to_vec()
    } else {
        needed_with(above, [on])
    };
    let reads_right = gathered.iter().any(|&c| c >= left_arity);
    let (lc, rc) = (lb.column(lp), rb.column(rp));
    let (ColumnData::Int(ld) | ColumnData::Timestamp(ld)) = &lc.data else {
        unreachable!("join_outputs checked the key lanes")
    };
    let (ColumnData::Int(rd) | ColumnData::Timestamp(rd)) = &rc.data else {
        unreachable!("join_outputs checked the key lanes")
    };
    let matches = hash_join_i64(
        rd,
        rc.validity.as_ref(),
        rsel.sel(),
        ld,
        lc.validity.as_ref(),
        lsel.sel(),
        reads_right,
    );
    let mut columns = vec![None; left_arity + rb.columns.len()];
    let (batch, sel) = match matches {
        Matches::Unique { hit, build_rows } => {
            let mut left = lb.columns;
            for c in gathered {
                columns[c] = if c < left_arity {
                    left[c].take()
                } else {
                    Some(Cow::Owned(rb.column(c - left_arity).gather(&build_rows)))
                };
            }
            let batch = VBatch {
                rows: lb.rows,
                columns,
            };
            (batch, Selection::Mask(hit.into()))
        }
        Matches::Pairs(lidx, ridx) => {
            for c in gathered {
                columns[c] = Some(Cow::Owned(if c < left_arity {
                    lb.column(c).gather(&lidx)
                } else {
                    rb.column(c - left_arity).gather(&ridx)
                }));
            }
            let batch = VBatch {
                rows: lidx.len(),
                columns,
            };
            (batch, Selection::All)
        }
    };
    let sel = if on_is_key {
        sel
    } else {
        Selection::Mask(pred_mask(on, &batch, sel.sel(), env)?.into())
    };
    Ok(VOut::Batch { batch, sel })
}

/// The general join — several keys, keys that are not integer lanes, or a
/// side that already pivoted to rows: hash on dynamic `Value` keys over
/// materialized rows (pruned columns are `Null` placeholders).
fn join_rows(
    lout: VOut<'_>,
    rout: VOut<'_>,
    on: &BoundExpr,
    pairs: &[(usize, usize)],
    env: &EvalEnv<'_>,
) -> Result<Vec<Row>> {
    let lrows = materialize_out(lout);
    let rrows = materialize_out(rout);
    if pairs.is_empty() {
        // Defensive: shouldn't happen under `eligible`, but degrade to the
        // exact nested loop rather than mis-joining.
        let mut out = Vec::new();
        for l in &lrows {
            for r in &rrows {
                let joined = l.concat(r);
                if eval_pred(on, &joined, env)? {
                    out.push(joined);
                }
            }
        }
        return Ok(out);
    }
    // Build on the right (inner) side. NULL key components never match
    // (`=` is NULL-rejecting), so those rows are skipped outright.
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    'build: for (j, r) in rrows.iter().enumerate() {
        let mut key = Vec::with_capacity(pairs.len());
        for (_, rp) in pairs {
            let v = &r[*rp];
            if v.is_null() {
                continue 'build;
            }
            key.push(v.clone());
        }
        table.entry(key).or_default().push(j);
    }
    let mut out = Vec::new();
    'probe: for l in &lrows {
        let mut key = Vec::with_capacity(pairs.len());
        for (lp, _) in pairs {
            let v = &l[*lp];
            if v.is_null() {
                continue 'probe;
            }
            key.push(v.clone());
        }
        if let Some(js) = table.get(&key) {
            for &j in js {
                let joined = l.concat(&rrows[j]);
                if eval_pred(on, &joined, env)? {
                    out.push(joined);
                }
            }
        }
    }
    Ok(out)
}
