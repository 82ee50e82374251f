//! SELECT: the FROM tree, the WHERE folded into access paths and scan
//! residuals, the outputs, and the DISTINCT / ORDER BY / LIMIT on top.

use super::aggregate;
use super::bind::{Binder, Layout, Scope, Slots, Ty};
use crate::ast::{self, BinOp, Expr, Select, SelectItem};
use crate::expr::BoundExpr;
use crate::plan::{AccessPath, PhysicalPlan};
use sstore_common::{DataType, Error, Result, TableId, Value};
use sstore_storage::Database;
use std::collections::BTreeSet;

/// Plan `s`, with its output columns' names and types.
pub(super) fn plan_select(
    s: &Select,
    db: &Database,
    slots: &mut Slots,
) -> Result<(PhysicalPlan, Vec<String>, Vec<Ty>)> {
    let (mut plan, layout) = plan_from(s, db, slots)?;

    // WHERE: try to fold simple equality conjuncts into an access path.
    if let Some(pred) = &s.where_pred {
        plan = apply_where(plan, &layout, pred, db, slots)?;
    }

    let calls = aggregate::calls(s)?;
    let mut group_types = Vec::new();
    if let Some(calls) = &calls {
        let mut binder = Binder::over(&layout, db, slots);
        (plan, group_types) = aggregate::plan_aggregate(plan, &s.group_by, calls, &mut binder)?;
    }
    let mut binder = Binder::over(&layout, db, slots);
    if let Some(calls) = &calls {
        binder.scope = Scope::Grouped {
            keys: &s.group_by,
            calls,
            types: &group_types,
        };
    }
    // A grouped HAVING is bound before the outputs and one without
    // aggregates after them, which fixes the order of subquery slots.
    let grouped = calls.is_some();
    if grouped {
        plan = having(plan, s, &mut binder)?;
    }

    // The projection: select outputs first, appended sort keys after.
    let (mut exprs, mut names, mut types) = (Vec::new(), Vec::new(), Vec::new());
    for item in &s.items {
        match item {
            SelectItem::Star => {
                for (pos, name, ty) in layout.visible_columns() {
                    exprs.push(BoundExpr::ColumnRef(pos));
                    names.push(name.to_string());
                    types.push(Some(ty));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let (bound, ty) = binder.typed(expr)?;
                exprs.push(bound);
                types.push(ty);
                names.push(output_name(expr, alias.as_deref(), names.len()));
            }
        }
    }
    if !grouped {
        // HAVING without aggregates degenerates to a filter.
        plan = having(plan, s, &mut binder)?;
    }
    let out_arity = exprs.len();
    let mut sort_keys = Vec::new();
    for key in &s.order_by {
        match resolve_order_key(&key.expr, &names, out_arity)? {
            Some(pos) => sort_keys.push((pos, key.desc)),
            None => {
                sort_keys.push((exprs.len(), key.desc));
                exprs.push(binder.bind(&key.expr)?);
            }
        }
    }

    let proj_arity = exprs.len();
    if s.distinct && proj_arity != out_arity {
        return Err(Error::Parse(
            "ORDER BY of a DISTINCT query must reference output columns".into(),
        ));
    }
    let mut plan = PhysicalPlan::Project {
        input: Box::new(plan),
        exprs,
    };
    if s.distinct {
        plan = PhysicalPlan::Distinct {
            input: Box::new(plan),
        };
    }
    if !sort_keys.is_empty() {
        plan = PhysicalPlan::Sort {
            input: Box::new(plan),
            keys: sort_keys,
        };
    }
    if let Some(n) = s.limit {
        plan = PhysicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    // Shave off appended sort-key columns.
    if proj_arity != out_arity {
        plan = PhysicalPlan::Project {
            input: Box::new(plan),
            exprs: (0..out_arity).map(BoundExpr::ColumnRef).collect(),
        };
    }
    names.truncate(out_arity);
    Ok((plan, names, types))
}

/// `plan` filtered by `s`'s HAVING, if it has one.
fn having(plan: PhysicalPlan, s: &Select, binder: &mut Binder<'_>) -> Result<PhysicalPlan> {
    Ok(match &s.having {
        Some(h) => PhysicalPlan::Filter {
            input: Box::new(plan),
            pred: binder.pred(h, "HAVING")?,
        },
        None => plan,
    })
}

/// Resolve an ORDER BY key that refers to an output column: by alias/name
/// (`ORDER BY c`) or by position (`ORDER BY 1`). Returns `None` when the key
/// is a general expression the caller must bind and append.
fn resolve_order_key(expr: &Expr, names: &[String], out_arity: usize) -> Result<Option<usize>> {
    if let Expr::Column { table: None, name } = expr {
        if let Some(pos) = names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
            return Ok(Some(pos));
        }
    }
    if let Expr::Literal(Value::Int(n)) = expr {
        let idx = *n - 1;
        if idx >= 0 && (idx as usize) < out_arity {
            return Ok(Some(idx as usize));
        }
        return Err(Error::Parse(format!("ORDER BY position {n} out of range")));
    }
    Ok(None)
}

fn output_name(expr: &Expr, alias: Option<&str>, pos: usize) -> String {
    if let Some(a) = alias {
        return a.to_ascii_lowercase();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.clone(),
        _ => format!("col{pos}"),
    }
}

/// Build the FROM tree and its layout.
fn plan_from(s: &Select, db: &Database, slots: &mut Slots) -> Result<(PhysicalPlan, Layout)> {
    let Some(f) = &s.from else {
        return Ok((
            PhysicalPlan::Values { rows: vec![vec![]] },
            Layout::default(),
        ));
    };
    let base_id = db.resolve(&f.base.name)?;
    let mut layout = Layout::from_table(db, base_id, f.base.binding())?;
    let mut plan = PhysicalPlan::Scan {
        table: base_id,
        path: AccessPath::Full,
        residual: None,
    };
    for (tref, on) in &f.joins {
        let tid = db.resolve(&tref.name)?;
        layout = layout.concat(Layout::from_table(db, tid, tref.binding())?);
        let on = Binder::over(&layout, db, slots).pred(on, "ON")?;
        plan = PhysicalPlan::NestedLoopJoin {
            left: Box::new(plan),
            right: Box::new(PhysicalPlan::Scan {
                table: tid,
                path: AccessPath::Full,
                residual: None,
            }),
            on,
        };
    }
    Ok((plan, layout))
}

/// Apply the WHERE clause, folding equality conjuncts into an index access
/// path when the plan is a bare single-table scan, and one-table conjuncts
/// into the scans below a join.
fn apply_where(
    plan: PhysicalPlan,
    layout: &Layout,
    pred: &Expr,
    db: &Database,
    slots: &mut Slots,
) -> Result<PhysicalPlan> {
    if let PhysicalPlan::Scan {
        table,
        path: AccessPath::Full,
        residual: None,
    } = plan
    {
        let (path, residual) = choose_access_path(table, pred, layout, db, slots)?;
        return Ok(PhysicalPlan::Scan {
            table,
            path,
            residual,
        });
    }
    let bound = Binder::over(layout, db, slots).pred(pred, "WHERE")?;
    Ok(push_below_joins(plan, bound, db))
}

/// Put `pred` on top of a join tree, moving the conjuncts that read one
/// base table into that table's scan residual, so both executors filter
/// before they join.
///
/// Moving a conjunct changes which rows it — and everything it no longer
/// shields — is evaluated on, so nothing moves unless it is unobservable:
/// the whole `WHERE`, and the `ON` of every join a conjunct sinks through,
/// must be unable to raise ([`cannot_raise`]). A `WHERE` with `10 / x > 1`
/// in it stays a `Filter` above the join, erroring (or not) as it always
/// did. The one error a moved conjunct can still raise is a missing
/// statement parameter, which now surfaces whenever that table has rows
/// rather than only when the join does.
fn push_below_joins(mut plan: PhysicalPlan, pred: BoundExpr, db: &Database) -> PhysicalPlan {
    let kept = if matches!(plan, PhysicalPlan::NestedLoopJoin { .. }) && cannot_raise(&pred) {
        let arity = |t: TableId| db.table(t).map(|tb| tb.schema().arity()).unwrap_or(0);
        let mut kept = None;
        for c in pred.conjuncts() {
            let mut c = c.clone();
            let mut refs = BTreeSet::new();
            c.collect_refs(&mut refs);
            let scan = refs
                .first()
                .zip(refs.last())
                .and_then(|(&lo, &hi)| scan_of(&mut plan, lo, hi, 0, &arity));
            match scan {
                Some((residual, base)) => {
                    c.rebase_refs(base);
                    *residual = Some(and(residual.take(), c));
                }
                None => kept = Some(and(kept, c)),
            }
        }
        kept
    } else {
        Some(pred)
    };
    match kept {
        None => plan,
        Some(pred) => PhysicalPlan::Filter {
            input: Box::new(plan),
            pred,
        },
    }
}

/// The residual of the one full scan under `plan` that produces every
/// column in `lo..=hi` (offsets into `plan`'s output row, which starts at
/// `base` of the whole row), with the offset of that scan's first column;
/// `None` when the columns span tables or a join on the way down could
/// raise.
fn scan_of<'p>(
    plan: &'p mut PhysicalPlan,
    lo: usize,
    hi: usize,
    base: usize,
    arity: &dyn Fn(TableId) -> usize,
) -> Option<(&'p mut Option<BoundExpr>, usize)> {
    match plan {
        PhysicalPlan::Scan {
            path: AccessPath::Full,
            residual,
            ..
        } => Some((residual, base)),
        PhysicalPlan::NestedLoopJoin { left, right, on } if cannot_raise(on) => {
            let mid = base + left.arity(arity);
            if hi < mid {
                scan_of(left, lo, hi, base, arity)
            } else if lo >= mid {
                scan_of(right, lo, hi, mid, arity)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// True for predicates whose evaluation cannot fail whatever the row
/// holds: comparisons and `IS [NOT] NULL` over bare columns, literals and
/// parameters (comparison is total, a NULL operand yields NULL), boolean
/// literals, and `AND`/`OR`/`NOT` of those (their operands are then always
/// boolean or NULL). Arithmetic, functions, `IN`, `BETWEEN`, subqueries
/// and bare column predicates are not on the list.
fn cannot_raise(e: &BoundExpr) -> bool {
    use BinOp::*;
    let operand = |e: &BoundExpr| {
        matches!(
            e,
            BoundExpr::ColumnRef(_) | BoundExpr::Literal(_) | BoundExpr::Param(_)
        )
    };
    match e {
        BoundExpr::Literal(Value::Bool(_) | Value::Null) => true,
        BoundExpr::Binary {
            op: And | Or,
            left,
            right,
        } => cannot_raise(left) && cannot_raise(right),
        BoundExpr::Binary {
            op: Eq | Neq | Lt | Le | Gt | Ge,
            left,
            right,
        } => operand(left) && operand(right),
        BoundExpr::IsNull { expr, .. } => operand(expr),
        BoundExpr::Unary {
            op: ast::UnaryOp::Not,
            expr,
            ..
        } => cannot_raise(expr),
        _ => false,
    }
}

fn and(left: Option<BoundExpr>, right: BoundExpr) -> BoundExpr {
    match left {
        None => right,
        Some(left) => BoundExpr::Binary {
            op: BinOp::And,
            left: Box::new(left),
            right: Box::new(right),
        },
    }
}

/// Pick the cheapest access path for a single-table predicate: a PK or
/// secondary-index point lookup when `col = e` conjuncts cover a key (each
/// `e` reads no column, so it is evaluated before the probe), else a full
/// scan. The bound predicate is the residual, re-checked on every row the
/// path finds, with one exception: a point path drops the conjunct it
/// probes with when the key is one NOT NULL `INT` or `TIMESTAMP` column,
/// because a probe of such a key finds exactly the rows `=` accepts. A
/// composite, `TEXT`, `FLOAT` or nullable key keeps it: a NULL probe finds
/// the NULL-keyed rows, which `=` rejects.
pub(super) fn choose_access_path(
    table: TableId,
    pred: &Expr,
    layout: &Layout,
    db: &Database,
    slots: &mut Slots,
) -> Result<(AccessPath, Option<BoundExpr>)> {
    let pred = Binder::over(layout, db, slots).pred(pred, "WHERE")?;
    // `(conjunct number, key column, value)` of each `col = e` conjunct.
    let eqs: Vec<(usize, usize, &BoundExpr)> = pred
        .conjuncts()
        .enumerate()
        .filter_map(|(i, c)| key_equality(c).map(|(col, e)| (i, col, e)))
        .collect();
    let tb = db.table(table)?;
    let schema = tb.schema();
    // Try the primary key first, then each secondary index.
    let pk = schema.has_pk().then(|| (None, schema.pk_indices()));
    let indexes = tb
        .indexes()
        .iter()
        .map(|ix| (Some(&ix.def.name), &ix.def.key_cols[..]));
    for (index, key_cols) in pk.into_iter().chain(indexes) {
        let Some(found) = key_cols
            .iter()
            .map(|kc| eqs.iter().find(|(_, col, _)| col == kc))
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        let keys = found.iter().map(|(_, _, e)| (*e).clone()).collect();
        let probed = match (key_cols, &found[..]) {
            ([kc], [(i, _, _)]) => {
                let col = &schema.columns()[*kc];
                let exact = !col.nullable && matches!(col.ty, DataType::Int | DataType::Timestamp);
                exact.then_some(*i)
            }
            _ => None,
        };
        let path = match index {
            None => AccessPath::PkPoint(keys),
            Some(name) => AccessPath::IndexPoint(name.clone(), keys),
        };
        let residual = match probed {
            None => Some(pred),
            Some(i) => pred
                .conjuncts()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .fold(None, |acc, (_, c)| Some(and(acc, c.clone()))),
        };
        return Ok((path, residual));
    }
    Ok((AccessPath::Full, Some(pred)))
}

/// `(k, e)` when `c` is `ColumnRef(k) = e` or `e = ColumnRef(k)` and `e`
/// reads no column (an uncorrelated subquery's slot reads none).
fn key_equality(c: &BoundExpr) -> Option<(usize, &BoundExpr)> {
    let BoundExpr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    [(left, right), (right, left)]
        .into_iter()
        .find_map(|(col, val)| match **col {
            BoundExpr::ColumnRef(k) => {
                let mut refs = BTreeSet::new();
                val.collect_refs(&mut refs);
                refs.is_empty().then_some((k, &**val))
            }
            _ => None,
        })
}
