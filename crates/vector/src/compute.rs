//! Type-specialized compute kernels: comparison, checked arithmetic and
//! predicate filtering (the aggregate reductions are in [`crate::group`]).
//!
//! Every kernel takes an optional *selection* (`Option<&[u32]>`, `None` =
//! all rows dense) and optional validity bitmaps, and is specified as
//! bit-identical to evaluating the scalar `expr` path per selected row:
//! same NULL propagation (NULL operand → NULL result, checked *before*
//! division-by-zero), same error strings, and same first-error ordering
//! (selection order = row order). Outputs are row-aligned — see the crate
//! docs — so unselected slots hold unspecified defaults and must never be
//! read.

use crate::column::{valid_at, Bitmap, ColumnData};
use sstore_common::{Error, Result};
use std::cmp::Ordering;

/// A numeric operand lane: a column of ints or floats, or a constant.
/// `Timestamp` lanes are passed as [`NumSrc::I`] — the row path's
/// arithmetic and comparison treat timestamps exactly like ints.
#[derive(Clone, Copy)]
pub enum NumSrc<'a> {
    /// Integer column lane.
    I(&'a [i64]),
    /// Float column lane.
    F(&'a [f64]),
    /// Integer constant.
    CI(i64),
    /// Float constant.
    CF(f64),
}

impl NumSrc<'_> {
    /// True for integer-typed sources (column or constant).
    pub fn is_int(&self) -> bool {
        matches!(self, NumSrc::I(_) | NumSrc::CI(_))
    }

    #[inline]
    fn int_at(&self, i: usize) -> i64 {
        match self {
            NumSrc::I(d) => d[i],
            NumSrc::CI(c) => *c,
            _ => unreachable!("float source read as int"),
        }
    }

    #[inline]
    pub(crate) fn float_at(&self, i: usize) -> f64 {
        match self {
            NumSrc::I(d) => d[i] as f64,
            NumSrc::F(d) => d[i],
            NumSrc::CI(c) => *c as f64,
            NumSrc::CF(c) => *c,
        }
    }
}

/// Comparison operator, mirroring `BinOp::{Eq,Neq,Lt,Le,Gt,Ge}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Map an [`Ordering`] to the operator's truth value, matching how
    /// the row path derives booleans from `sql_cmp`.
    #[inline]
    pub fn ord_ok(self, o: Ordering) -> bool {
        match self {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::Ne => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::Le => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::Ge => o != Ordering::Less,
        }
    }
}

/// Arithmetic operator, mirroring `BinOp::{Add,Sub,Mul,Div,Mod}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// AND the two operand validities over the selection. `None` = all valid.
/// Only selected bits of the result are meaningful.
pub fn combine_validity(
    av: Option<&Bitmap>,
    bv: Option<&Bitmap>,
    sel: Option<&[u32]>,
    rows: usize,
) -> Option<Bitmap> {
    if av.is_none() && bv.is_none() {
        return None;
    }
    let mut out = Bitmap::new_set(rows);
    for_sel!(sel, rows, i => {
        if !valid_at(av, i) || !valid_at(bv, i) {
            out.set(i, false);
        }
    });
    Some(out)
}

/// Numeric comparison. Both-int pairs compare as `i64`; any float operand
/// promotes both sides to `f64` and uses `total_cmp` — exactly
/// `Value::cmp_total` for numeric pairs. A NULL operand yields a NULL
/// result bit (cleared validity), matching `sql_cmp → None → tri → Null`.
pub fn cmp_num(
    op: CmpOp,
    a: NumSrc,
    av: Option<&Bitmap>,
    b: NumSrc,
    bv: Option<&Bitmap>,
    sel: Option<&[u32]>,
    rows: usize,
) -> (Vec<bool>, Option<Bitmap>) {
    let mut out = vec![false; rows];
    if a.is_int() && b.is_int() {
        for_sel!(sel, rows, i => {
            out[i] = op.ord_ok(a.int_at(i).cmp(&b.int_at(i)));
        });
    } else {
        for_sel!(sel, rows, i => {
            out[i] = op.ord_ok(a.float_at(i).total_cmp(&b.float_at(i)));
        });
    }
    (out, combine_validity(av, bv, sel, rows))
}

/// A string operand lane: column or constant.
#[derive(Clone, Copy)]
pub enum StrSrc<'a> {
    /// Text column lane.
    Col(&'a [String]),
    /// Text constant.
    Const(&'a str),
}

impl StrSrc<'_> {
    #[inline]
    fn at(&self, i: usize) -> &str {
        match self {
            StrSrc::Col(d) => &d[i],
            StrSrc::Const(s) => s,
        }
    }
}

/// String comparison (lexicographic byte order, as `Value::cmp_total`).
pub fn cmp_str(
    op: CmpOp,
    a: StrSrc,
    av: Option<&Bitmap>,
    b: StrSrc,
    bv: Option<&Bitmap>,
    sel: Option<&[u32]>,
    rows: usize,
) -> (Vec<bool>, Option<Bitmap>) {
    let mut out = vec![false; rows];
    for_sel!(sel, rows, i => {
        out[i] = op.ord_ok(a.at(i).cmp(b.at(i)));
    });
    (out, combine_validity(av, bv, sel, rows))
}

/// A boolean operand lane: column or constant.
#[derive(Clone, Copy)]
pub enum BoolSrc<'a> {
    /// Bool column lane.
    Col(&'a [bool]),
    /// Bool constant.
    Const(bool),
}

impl BoolSrc<'_> {
    #[inline]
    fn at(&self, i: usize) -> bool {
        match self {
            BoolSrc::Col(d) => d[i],
            BoolSrc::Const(b) => *b,
        }
    }
}

/// Boolean comparison (`false < true`, as `Value::cmp_total`).
pub fn cmp_bool(
    op: CmpOp,
    a: BoolSrc,
    av: Option<&Bitmap>,
    b: BoolSrc,
    bv: Option<&Bitmap>,
    sel: Option<&[u32]>,
    rows: usize,
) -> (Vec<bool>, Option<Bitmap>) {
    let mut out = vec![false; rows];
    for_sel!(sel, rows, i => {
        out[i] = op.ord_ok(a.at(i).cmp(&b.at(i)));
    });
    (out, combine_validity(av, bv, sel, rows))
}

/// Numeric arithmetic with the row path's exact semantics: NULL operand →
/// NULL result (checked before the zero-divisor check, so `1 / NULL` is
/// NULL, not an error); both-int → checked `i64` ops erroring with
/// `integer overflow` / `division by zero` / `modulo by zero`; any float
/// operand → `f64` ops where only `Div` by `0.0` errors. Errors surface
/// in selection (= row) order, matching the interpreter's first failure.
pub fn arith_num(
    op: ArithOp,
    a: NumSrc,
    av: Option<&Bitmap>,
    b: NumSrc,
    bv: Option<&Bitmap>,
    sel: Option<&[u32]>,
    rows: usize,
) -> Result<(ColumnData, Option<Bitmap>)> {
    let validity = combine_validity(av, bv, sel, rows);
    if a.is_int() && b.is_int() {
        let mut out = vec![0i64; rows];
        for_sel!(sel, rows, i => {
            if valid_at(validity.as_ref(), i) {
                let (x, y) = (a.int_at(i), b.int_at(i));
                let r = match op {
                    ArithOp::Add => x.checked_add(y),
                    ArithOp::Sub => x.checked_sub(y),
                    ArithOp::Mul => x.checked_mul(y),
                    ArithOp::Div => {
                        if y == 0 {
                            return Err(Error::Constraint("division by zero".into()));
                        }
                        x.checked_div(y)
                    }
                    ArithOp::Mod => {
                        if y == 0 {
                            return Err(Error::Constraint("modulo by zero".into()));
                        }
                        x.checked_rem(y)
                    }
                };
                out[i] = r.ok_or_else(|| Error::Constraint("integer overflow".into()))?;
            }
        });
        Ok((ColumnData::Int(out), validity))
    } else {
        let mut out = vec![0f64; rows];
        for_sel!(sel, rows, i => {
            if valid_at(validity.as_ref(), i) {
                let (x, y) = (a.float_at(i), b.float_at(i));
                out[i] = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => {
                        if y == 0.0 {
                            return Err(Error::Constraint("division by zero".into()));
                        }
                        x / y
                    }
                    ArithOp::Mod => x % y,
                };
            }
        });
        Ok((ColumnData::Float(out), validity))
    }
}

/// Reduce a boolean result column to a selection vector: keep positions
/// that are valid **and** true (the row path's `eval_pred` maps NULL to
/// false).
pub fn bool_to_sel(
    vals: &[bool],
    validity: Option<&Bitmap>,
    sel: Option<&[u32]>,
    rows: usize,
) -> Vec<u32> {
    let mut out = Vec::new();
    for_sel!(sel, rows, i => {
        if valid_at(validity, i) && vals[i] {
            out.push(i as u32);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(bits: &[bool]) -> Bitmap {
        let mut b = Bitmap::new_set(bits.len());
        for (i, &v) in bits.iter().enumerate() {
            b.set(i, v);
        }
        b
    }

    #[test]
    fn cmp_int_lanes() {
        let a = [1i64, 5, 3];
        let (out, v) = cmp_num(CmpOp::Lt, NumSrc::I(&a), None, NumSrc::CI(3), None, None, 3);
        assert_eq!(out, vec![true, false, false]);
        assert!(v.is_none());
    }

    #[test]
    fn cmp_mixed_promotes_to_float_total_cmp() {
        let a = [1i64, 2];
        let (out, _) = cmp_num(
            CmpOp::Eq,
            NumSrc::I(&a),
            None,
            NumSrc::CF(2.0),
            None,
            None,
            2,
        );
        assert_eq!(out, vec![false, true]);
    }

    #[test]
    fn cmp_null_propagates_to_validity() {
        let a = [1i64, 2];
        let av = bm(&[true, false]);
        let (out, v) = cmp_num(
            CmpOp::Eq,
            NumSrc::I(&a),
            Some(&av),
            NumSrc::CI(2),
            None,
            None,
            2,
        );
        let v = v.unwrap();
        assert!(v.get(0) && !v.get(1));
        assert!(!out[0]);
    }

    #[test]
    fn arith_checked_overflow_errors() {
        let a = [i64::MAX];
        let err = arith_num(
            ArithOp::Add,
            NumSrc::I(&a),
            None,
            NumSrc::CI(1),
            None,
            None,
            1,
        )
        .unwrap_err();
        assert_eq!(err, Error::Constraint("integer overflow".into()));
    }

    #[test]
    fn arith_null_before_div_zero() {
        // 1 / NULL is NULL in the row path (null check precedes divisor
        // check); the kernel must not error on the invalid row.
        let a = [1i64, 8];
        let b = [0i64, 2];
        let bv = bm(&[false, true]);
        let (data, v) = arith_num(
            ArithOp::Div,
            NumSrc::I(&a),
            None,
            NumSrc::I(&b),
            Some(&bv),
            None,
            2,
        )
        .unwrap();
        let ColumnData::Int(d) = data else { panic!() };
        assert_eq!(d[1], 4);
        assert!(!v.unwrap().get(0));
    }

    #[test]
    fn arith_div_zero_only_for_selected_rows() {
        let a = [1i64, 1];
        let b = [0i64, 2];
        let sel = [1u32];
        let (data, _) = arith_num(
            ArithOp::Div,
            NumSrc::I(&a),
            None,
            NumSrc::I(&b),
            None,
            Some(&sel),
            2,
        )
        .unwrap();
        let ColumnData::Int(d) = data else { panic!() };
        assert_eq!(d[1], 0); // 1/2 truncates
    }

    #[test]
    fn float_mod_does_not_error_on_zero() {
        let a = [5.0f64];
        let (data, _) = arith_num(
            ArithOp::Mod,
            NumSrc::F(&a),
            None,
            NumSrc::CF(0.0),
            None,
            None,
            1,
        )
        .unwrap();
        let ColumnData::Float(d) = data else { panic!() };
        assert!(d[0].is_nan());
    }

    #[test]
    fn bool_to_sel_drops_null_and_false() {
        let vals = [true, true, false, true];
        let v = bm(&[true, false, true, true]);
        assert_eq!(bool_to_sel(&vals, Some(&v), None, 4), vec![0, 3]);
    }
}
