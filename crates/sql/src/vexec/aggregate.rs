//! Aggregates without rows: typed reductions straight off the lanes, and
//! the window-aggregate cache that answers without a scan.

use super::expr::{veval, VCol};
use super::VBatch;
use crate::exec::ExecContext;
use crate::expr::{ill_typed, BoundExpr, EvalEnv};
use crate::plan::{AccessPath, AggExpr, AggFunc, PhysicalPlan};
use sstore_common::{DataType, Error, Result, Row, Value};
use sstore_storage::TableKind;
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

/// Answer ungrouped `COUNT/SUM/AVG` over a bare window scan from the
/// window's incremental aggregate cache — O(aggs) instead of O(window).
/// `None` = shape or cache not applicable; caller scans normally.
pub(super) fn try_window_fast_path(
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
