//! Joins: the equi-pairs an `ON` clause carries, the i64 hash join over
//! intact batches, and the row join — a hash on `Value` keys, or the
//! nested loop when there are no pairs to hash on.

use super::expr::pred_mask;
use super::{materialize_out, needed_with, Selection, VBatch, VOut};
use crate::expr::{eval_pred, BoundExpr, EvalEnv};
use sstore_common::{hash::HashMap, Result, Row, Value};
use sstore_vector::join::{hash_join_i64, Matches};
use sstore_vector::{Column, ColumnData};
use std::borrow::Cow;

/// Extract `(left_col, right_col)` equi-join pairs from the top-level
/// `AND`-conjuncts of `on`. Column offsets in `on` index the concatenated
/// row; `right_col` is returned relative to the right input.
pub(super) fn equi_pairs(on: &BoundExpr, left_arity: usize) -> Vec<(usize, usize)> {
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

/// Hash join both inputs on the extracted equi-pairs, then apply the full
/// `ON` expression to each key-matching pair. Output order matches the
/// nested loop: left-major, right side in its scan order. `above` lists
/// the output columns the operators above read; only those, and the ones
/// `on` reads if it has to be evaluated, are produced.
pub(super) fn join_outputs<'a>(
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

/// The join over materialized rows (pruned columns are `Null`
/// placeholders). With no equi-pairs — a theta join, or any join in row
/// mode — it is the nested loop, evaluating `on` on every pair. Otherwise
/// (several keys, keys that are not integer lanes, or a side that already
/// pivoted to rows) it hashes on dynamic `Value` keys.
pub(super) fn join_rows(
    lout: VOut<'_>,
    rout: VOut<'_>,
    on: &BoundExpr,
    pairs: &[(usize, usize)],
    env: &EvalEnv<'_>,
) -> Result<Vec<Row>> {
    let lrows = materialize_out(lout);
    let rrows = materialize_out(rout);
    if pairs.is_empty() {
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
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::default();
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
