//! Expressions over batches: [`veval`] evaluates a bound expression on the
//! selected lanes with the typed compare and arithmetic kernels, falling
//! back cell by cell onto the scalar [`eval`], and [`pred_mask`] reduces a
//! predicate to the mask of the lanes it keeps.

use super::{sel_iter, VBatch};
use crate::expr::{eval, BoundExpr, EvalEnv};
use sstore_common::{Error, Result, Value};
use sstore_vector::compute::{arith_num, cmp_bool, cmp_num, cmp_str, to_mask, BoolSrc, StrSrc};
use sstore_vector::{ArithOp, Bitmap, CmpOp, Column, ColumnData, NumSrc, Sel};
use std::collections::BTreeSet;

/// A batch-level expression result: a constant (same value for every
/// selected row), a borrowed input column, or a freshly computed one.
pub(super) enum VCol<'a> {
    Const(Value),
    Ref(&'a Column),
    Owned(Column),
}

impl VCol<'_> {
    pub(super) fn col(&self) -> Option<&Column> {
        match self {
            VCol::Const(_) => None,
            VCol::Ref(c) => Some(c),
            VCol::Owned(c) => Some(c),
        }
    }

    pub(super) fn value_at(&self, i: usize) -> Value {
        match self {
            VCol::Const(v) => v.clone(),
            VCol::Ref(c) => c.value_at(i),
            VCol::Owned(c) => c.value_at(i),
        }
    }

    pub(super) fn is_null_at(&self, i: usize) -> bool {
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
pub(super) fn veval<'a>(
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
pub(super) fn pred_mask(
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
