//! Aggregates without rows: typed reductions straight off the lanes, and
//! the grouped window state that answers without a scan.

use super::expr::{veval, VCol};
use super::{is_identity, VBatch};
use crate::exec::{run_aggregate, ExecContext};
use crate::expr::{ill_typed, BoundExpr, EvalEnv};
use crate::plan::{AccessPath, AggExpr, AggFunc, PhysicalPlan, PlannedStmt};
use sstore_common::{DataType, Result, Row, TableId, Value};
use sstore_storage::{Database, GroupView};
use sstore_vector::group::Groups;
use sstore_vector::{Column, ColumnData, NumSrc, Sel};

/// Aggregation straight off the lanes: group ids from the key columns
/// (one group when there are none), then one typed loop per aggregate.
/// `None` = something has no kernel — `DISTINCT`, a key that is an
/// expression rather than a column, a constant argument to anything but
/// `COUNT`, or `MIN`/`MAX` over a TEXT or BOOL lane — and the caller falls
/// back to the row accumulator. The binder gives `SUM` and `AVG` only
/// INT and FLOAT arguments. Groups come out in order of first
/// appearance, as `run_aggregate` emits them. Caller guarantees a
/// non-empty selection.
pub(super) fn try_agg_kernels(
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
        let g = Groups::of(key, sel, rows);
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
            (AggFunc::Min | AggFunc::Max, _) => return Ok(None),
            _ => return Err(ill_typed()),
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

/// The table a `SELECT k…, COUNT(*) | COUNT(c) | SUM(c) | AVG(c) FROM t
/// GROUP BY k…` aggregate reads, with its key columns, when the aggregate
/// has that shape: a bare full scan, column keys, and aggregates without
/// `DISTINCT` whose arguments are columns. A grouped state of the table
/// can answer it.
fn state_shape<'p>(
    input: &PhysicalPlan,
    group_exprs: &'p [BoundExpr],
    aggs: &[AggExpr],
) -> Option<(TableId, impl Iterator<Item = usize> + Clone + 'p)> {
    let PhysicalPlan::Scan {
        table,
        path: AccessPath::Full,
        residual: None,
    } = input
    else {
        return None;
    };
    let column = |e: &BoundExpr| match e {
        BoundExpr::ColumnRef(c) => Some(*c),
        _ => None,
    };
    let served = |a: &AggExpr| match (a.func, &a.arg) {
        (AggFunc::CountStar, _) => true,
        (AggFunc::Count | AggFunc::Sum | AggFunc::Avg, Some(arg)) => column(arg).is_some(),
        _ => false,
    };
    let shaped = group_exprs.iter().all(|e| column(e).is_some())
        && aggs.iter().all(|a| !a.distinct && served(a));
    let keys = group_exprs
        .iter()
        .map(move |e| column(e).unwrap_or(usize::MAX));
    shaped.then_some((*table, keys))
}

/// The window and key columns of the grouped state that can answer a
/// deployed statement: a query or an `INSERT … SELECT` whose plan is a
/// `SELECT k…, COUNT(*) | COUNT(c) | SUM(c) | AVG(c) FROM w GROUP BY k…`
/// aggregate over a bare full scan of a window, under at most an identity
/// projection, keyed by visible columns that are not FLOAT. `None` for
/// every other statement.
pub fn grouped_state_keys(stmt: &PlannedStmt, db: &Database) -> Option<(TableId, Vec<usize>)> {
    let (PlannedStmt::Query { plan, .. } | PlannedStmt::Insert { source: plan, .. }) = stmt else {
        return None;
    };
    let plan = match plan {
        PhysicalPlan::Project { input, exprs } if is_identity(exprs, input, db) => input,
        plan => plan,
    };
    let PhysicalPlan::Aggregate {
        input,
        group_exprs,
        aggs,
    } = plan
    else {
        return None;
    };
    let (table, keys) = state_shape(input, group_exprs, aggs)?;
    let meta = db.catalog().meta(table).filter(|m| m.kind.is_window())?;
    let visible = meta.visible_schema.columns();
    let keys: Vec<usize> = keys.collect();
    let keyable = |&k: &usize| visible.get(k).is_some_and(|c| c.ty != DataType::Float);
    keys.iter().all(keyable).then_some((table, keys))
}

/// Answer an aggregate of [`state_shape`]'s shape from the grouped state
/// its table keeps for those keys, in O(groups): rows and their order are
/// the scan's (groups by first appearance in slot order), counts and sums
/// come from the state. `None` = no such state, or an answer the state
/// cannot give exactly (a SUM or AVG over a FLOAT column, or one whose
/// integer cells could overflow or leave `f64`'s exact range in some
/// order); the caller scans.
pub(super) fn try_group_state(
    input: &PhysicalPlan,
    group_exprs: &[BoundExpr],
    aggs: &[AggExpr],
    ctx: &dyn ExecContext,
    env: &EvalEnv<'_>,
) -> Result<Option<Vec<Row>>> {
    let Some((table, keys)) = state_shape(input, group_exprs, aggs) else {
        return Ok(None);
    };
    let tb = ctx.db().table(table)?;
    let Some(state) = tb.group_state(keys) else {
        return Ok(None);
    };
    // Scope enforcement must fire even when the scan itself is skipped.
    ctx.check_read(table)?;
    let columns = tb.schema().columns();
    let value = |a: &AggExpr, g: &GroupView<'_>| -> Option<Value> {
        let c = match &a.arg {
            Some(BoundExpr::ColumnRef(c)) => *c,
            _ => return Some(Value::Int(g.rows as i64)),
        };
        let n = g.count(c)?;
        if a.func == AggFunc::Count {
            return Some(Value::Int(n as i64));
        }
        if columns.get(c)?.ty != DataType::Int {
            return None;
        }
        if n == 0 {
            return Some(Value::Null);
        }
        Some(match a.func {
            AggFunc::Sum => Value::Int(g.int_sum(c, i64::MAX as u128)? as i64),
            _ => Value::Float(g.int_sum(c, 1 << f64::MANTISSA_DIGITS)? as f64 / n as f64),
        })
    };
    let groups = state.groups();
    let mut out = Vec::with_capacity(groups.len().max(1));
    let mut exact = true;
    for g in &groups {
        let aggs = aggs.iter().map(|a| {
            value(a, g).unwrap_or_else(|| {
                exact = false;
                Value::Null
            })
        });
        out.push(g.key.iter().cloned().chain(aggs).collect());
    }
    if groups.is_empty() && group_exprs.is_empty() {
        // An ungrouped aggregate over no rows still owes its one row.
        return run_aggregate(&[], group_exprs, aggs, env).map(Some);
    }
    Ok(exact.then_some(out))
}
