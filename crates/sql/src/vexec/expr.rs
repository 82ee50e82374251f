//! Expressions over batches: [`veval`] evaluates a bound expression on the
//! selected lanes with the typed compare and arithmetic kernels, falling
//! back cell by cell onto the scalar [`eval`], and [`pred_mask`] reduces a
//! predicate to the mask of the lanes it keeps.

use super::{sel_iter, VBatch};
use crate::expr::{and_or, eval, ill_typed, truth, BoundExpr, EvalEnv};
use sstore_common::{DataType, Error, Result, Value};
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

/// View a result as a numeric kernel operand: an INT, FLOAT or TIMESTAMP
/// lane or constant (a TIMESTAMP computes as an INT).
fn num_src<'v>(v: &'v VCol<'_>) -> Option<(NumSrc<'v>, Option<&'v Bitmap>)> {
    match v {
        VCol::Const(Value::Int(k) | Value::Timestamp(k)) => Some((NumSrc::CI(*k), None)),
        VCol::Const(Value::Float(f)) => Some((NumSrc::CF(*f), None)),
        VCol::Const(_) => None,
        _ => {
            let c = v.col()?;
            let validity = c.validity.as_ref();
            match &c.data {
                ColumnData::Int(d) | ColumnData::Timestamp(d) => Some((NumSrc::I(d), validity)),
                ColumnData::Float(d) => Some((NumSrc::F(d), validity)),
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

/// Kernel dispatch for a comparison. The binder only compares numbers
/// with numbers and other types with themselves, and each such pair has
/// a kernel.
fn vcmp(op: CmpOp, l: &VCol<'_>, r: &VCol<'_>, sel: Sel, rows: usize) -> Result<Column> {
    if is_const_null(l) || is_const_null(r) {
        return Ok(all_null(ColumnData::Bool(vec![false; rows]), rows));
    }
    let (vals, validity) = if let (Some((a, av)), Some((b, bv))) = (num_src(l), num_src(r)) {
        cmp_num(op, a, av, b, bv, sel, rows)
    } else if let (Some((a, av)), Some((b, bv))) = (str_src(l), str_src(r)) {
        cmp_str(op, a, av, b, bv, sel, rows)
    } else if let (Some((a, av)), Some((b, bv))) = (bool_src(l), bool_src(r)) {
        cmp_bool(op, a, av, b, bv, sel, rows)
    } else {
        return Err(ill_typed());
    };
    Ok(Column {
        data: ColumnData::Bool(vals),
        validity,
    })
}

/// Kernel dispatch for arithmetic, whose operands the binder has made
/// numbers (and never a TIMESTAMP with a FLOAT).
fn varith(op: ArithOp, l: &VCol<'_>, r: &VCol<'_>, sel: Sel, rows: usize) -> Result<Column> {
    if is_const_null(l) || is_const_null(r) {
        // The row path checks NULL operands before anything else, so a
        // NULL constant nulls the whole column regardless of the other
        // operand's type.
        return Ok(all_null(ColumnData::Int(vec![0; rows]), rows));
    }
    let (Some((a, av)), Some((b, bv))) = (num_src(l), num_src(r)) else {
        return Err(ill_typed());
    };
    arith_num(op, a, av, b, bv, sel, rows).map(|(data, validity)| Column { data, validity })
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
        BoundExpr::ColumnRef(i) => {
            if *i >= batch.columns.len() {
                return Err(Error::Internal(format!("column offset {i} out of range")));
            }
            Ok(VCol::Ref(batch.column(*i)))
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
        BoundExpr::Binary { op, left, right } => {
            use crate::ast::BinOp::*;
            if let And | Or = op {
                return vand_or(*op == Or, left, right, batch, sel, env);
            }
            let l = veval(left, batch, sel, env)?;
            let r = veval(right, batch, sel, env)?;
            let cmp = |op| vcmp(op, &l, &r, sel, batch.rows);
            let arith = |op| varith(op, &l, &r, sel, batch.rows);
            match op {
                Eq => cmp(CmpOp::Eq),
                Neq => cmp(CmpOp::Ne),
                Lt => cmp(CmpOp::Lt),
                Le => cmp(CmpOp::Le),
                Gt => cmp(CmpOp::Gt),
                Ge => cmp(CmpOp::Ge),
                Add => arith(ArithOp::Add),
                Sub => arith(ArithOp::Sub),
                Mul => arith(ArithOp::Mul),
                Div => arith(ArithOp::Div),
                Mod => arith(ArithOp::Mod),
                And | Or => Err(ill_typed()),
            }
            .map(VCol::Owned)
        }
        // Constants, IN / BETWEEN / unary ops / scalar functions / casts:
        // scalar fallback — exact semantics, still batched through the
        // selection.
        _ => veval_cellwise(e, batch, sel, env),
    }
}

/// Scalar fallback: evaluate the whole expression per selected row via
/// [`eval`], gathering referenced cells into a scratch row, into a lane of
/// the type the binder decided. Exact row-path semantics including error
/// order within the expression. An expression that reads no column is
/// evaluated once.
fn veval_cellwise(
    e: &BoundExpr,
    batch: &VBatch<'_>,
    sel: Sel,
    env: &EvalEnv<'_>,
) -> Result<VCol<'static>> {
    let mut refs = BTreeSet::new();
    e.collect_refs(&mut refs);
    if refs.is_empty() {
        return eval(e, &[], env).map(VCol::Const);
    }
    let ty = match e {
        BoundExpr::Unary { ty, .. } | BoundExpr::Scalar { ty, .. } => *ty,
        BoundExpr::Cast { ty, .. } => Some(*ty),
        _ => Some(DataType::Bool),
    };
    let mut out = Column::typed(ty.ok_or_else(ill_typed)?, batch.rows);
    let mut scratch = vec![Value::Null; batch.columns.len()];
    for i in sel_iter(sel, batch.rows) {
        for &r in &refs {
            scratch[r] = batch.column(r).value_at(i);
        }
        out.set(i, &eval(e, &scratch, env)?)?;
    }
    Ok(VCol::Owned(out))
}

/// Three-valued `AND` (`stop` false) or `OR` (`stop` true) with
/// short-circuit parity: the right operand is only evaluated on rows the
/// left side did not decide, so `x <> 0 AND 10 / x > 1` never divides by
/// zero — exactly like the row interpreter.
fn vand_or(
    stop: bool,
    left: &BoundExpr,
    right: &BoundExpr,
    batch: &VBatch<'_>,
    sel: Sel,
    env: &EvalEnv<'_>,
) -> Result<VCol<'static>> {
    let lcol = veval(left, batch, sel, env)?;
    let rows = batch.rows;
    let mut vals = vec![false; rows];
    let mut validity = Bitmap::new_set(rows);
    // Left tri-state per selected row; `sub` = rows it did not decide
    // (AND stops on false, OR on true).
    let mut ltri: Vec<Option<bool>> = vec![None; rows];
    let mut sub: Vec<u32> = Vec::new();
    for i in sel_iter(sel, rows) {
        ltri[i] = truth(&lcol.value_at(i))?;
        if ltri[i] == Some(stop) {
            vals[i] = stop;
        } else {
            sub.push(i as u32);
        }
    }
    if !sub.is_empty() {
        let rcol = veval(right, batch, Sel::Pos(&sub), env)?;
        for i in sub.into_iter().map(|i| i as usize) {
            match and_or(stop, ltri[i], truth(&rcol.value_at(i))?) {
                Some(b) => vals[i] = b,
                None => validity.set(i, false),
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
        // TRUE keeps the selection; FALSE and NULL keep nothing.
        VCol::Const(v) => (vec![v == Value::Bool(true); rows], None),
        _ => return Err(ill_typed()),
    };
    Ok(to_mask(vals, validity.as_ref(), sel))
}
