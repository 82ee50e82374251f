//! Type-specialized compute kernels: comparison, checked arithmetic and
//! the predicate → mask reduction (the aggregate reductions are in
//! [`crate::group`]).
//!
//! Every kernel takes a [`Sel`] and optional validity bitmaps, and is
//! specified as bit-identical to evaluating the scalar `expr` path per
//! selected row: same NULL propagation (NULL operand → NULL result,
//! checked *before* division-by-zero), same error strings, and same
//! first-error ordering (selection order = row order). Outputs are
//! row-aligned — see the crate docs — so unselected slots hold
//! unspecified values and must never be read. A comparison cannot fail,
//! so under a mask it compares every lane and leaves the mask to whoever
//! reads the result; arithmetic can, so it visits only selected rows.

use crate::column::{valid_at, Bitmap, ColumnData, TextLane};
use crate::Sel;
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
    pub(crate) fn is_int(&self) -> bool {
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
///
/// Each discriminant is the set of orderings the operator accepts, as a
/// 3-bit mask indexed by `Ordering as i8 + 1` (bit 0 `Less`, bit 1
/// `Equal`, bit 2 `Greater`), so `CmpOp::ord_ok` is a shift, not a
/// match, inside a kernel's loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum CmpOp {
    /// `=`
    Eq = 0b010,
    /// `<>`
    Ne = 0b101,
    /// `<`
    Lt = 0b001,
    /// `<=`
    Le = 0b011,
    /// `>`
    Gt = 0b100,
    /// `>=`
    Ge = 0b110,
}

impl CmpOp {
    /// Map an [`Ordering`] to the operator's truth value, matching how
    /// the row path derives booleans from `sql_cmp`.
    #[inline]
    pub(crate) fn ord_ok(self, o: Ordering) -> bool {
        (self as u8 >> (o as i8 + 1)) & 1 == 1
    }

    /// The operator with its operands swapped: `a op b` is `b op.flip() a`.
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            same => same,
        }
    }
}

/// `out[i] = f(&col[i], c)` for every row `sel` may name: a column against
/// a constant in a loop of its own, with nothing decided per row but `f`.
/// Under `All` and `Mask` the loop walks the column and the output
/// together, so it has no per-row bounds checks.
#[inline]
fn fill_vs_const<T, C: Copy>(
    out: &mut [bool],
    sel: Sel,
    col: &[T],
    c: C,
    f: impl Fn(&T, C) -> bool,
) {
    match sel {
        Sel::All | Sel::Mask(_) => {
            let col = &col[..out.len()];
            for (o, x) in out.iter_mut().zip(col) {
                *o = f(x, c);
            }
        }
        Sel::Pos(s) => {
            for &i in s {
                let i = i as usize;
                out[i] = f(&col[i], c);
            }
        }
    }
}

/// `out[i] = key(col[i]) op k` through [`fill_vs_const`], with the
/// operator matched once per call so each loop is one plain compare.
#[inline]
fn cmp_vs_const<T, K: Ord + Copy>(
    out: &mut [bool],
    sel: Sel,
    col: &[T],
    op: CmpOp,
    k: K,
    key: impl Fn(&T) -> K,
) {
    match op {
        CmpOp::Eq => fill_vs_const(out, sel, col, k, |x, k| key(x) == k),
        CmpOp::Ne => fill_vs_const(out, sel, col, k, |x, k| key(x) != k),
        CmpOp::Lt => fill_vs_const(out, sel, col, k, |x, k| key(x) < k),
        CmpOp::Le => fill_vs_const(out, sel, col, k, |x, k| key(x) <= k),
        CmpOp::Gt => fill_vs_const(out, sel, col, k, |x, k| key(x) > k),
        CmpOp::Ge => fill_vs_const(out, sel, col, k, |x, k| key(x) >= k),
    }
}

/// `out[i] = col[i] op c` by `f64::total_cmp`, one plain loop per
/// operator. For a constant that is neither zero nor NaN, IEEE compares
/// agree with `total_cmp` on every non-NaN cell (both zeros lie on one
/// side of `c`), and a NaN cell sorts by its sign: above every number
/// when positive, below when negative. So each row is an IEEE compare
/// plus that fix-up, which vectorizes. A zero or NaN constant compares
/// the integer keys `total_cmp` orders by instead.
#[inline]
fn cmp_float_const(out: &mut [bool], sel: Sel, col: &[f64], op: CmpOp, c: f64) {
    if c.is_nan() || c == 0.0 {
        return cmp_vs_const(out, sel, col, op, total_key(&c), total_key);
    }
    let (above, below) = (op.ord_ok(Ordering::Greater), op.ord_ok(Ordering::Less));
    let nan = move |x: f64| x.is_nan() & if x.is_sign_negative() { below } else { above };
    match op {
        CmpOp::Eq => fill_vs_const(out, sel, col, c, |&x, c| x == c),
        CmpOp::Ne => fill_vs_const(out, sel, col, c, |&x, c| x != c),
        CmpOp::Lt => fill_vs_const(out, sel, col, c, |&x, c| (x < c) | nan(x)),
        CmpOp::Le => fill_vs_const(out, sel, col, c, |&x, c| (x <= c) | nan(x)),
        CmpOp::Gt => fill_vs_const(out, sel, col, c, |&x, c| (x > c) | nan(x)),
        CmpOp::Ge => fill_vs_const(out, sel, col, c, |&x, c| (x >= c) | nan(x)),
    }
}

/// The `i64` whose order is `f64::total_cmp`'s: the bits as a signed
/// integer, with every bit but the sign flipped on negative values — the
/// mapping `total_cmp` itself compares by.
#[inline]
fn total_key(x: &f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
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

/// AND the two operand validities. `None` = all valid.
pub(crate) fn combine_validity(av: Option<&Bitmap>, bv: Option<&Bitmap>) -> Option<Bitmap> {
    match (av, bv) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.clone()),
        (Some(a), Some(b)) => Some(a.and(b)),
    }
}

/// Numeric comparison. Both-int pairs compare as `i64`; any float operand
/// promotes both sides to `f64` and uses `total_cmp` — exactly
/// `Value::cmp_total` for numeric pairs. A NULL operand yields a NULL
/// result bit (cleared validity), matching `sql_cmp → None → tri → Null`.
///
/// A column against a constant of its own type (`v >= ?`, `k = ?`), on
/// either side, runs one plain loop per operator; a float one is an IEEE
/// compare plus a fix-up for NaN cells, which sort by their sign. Every
/// other pair shares one int and one float loop.
pub fn cmp_num(
    op: CmpOp,
    a: NumSrc,
    av: Option<&Bitmap>,
    b: NumSrc,
    bv: Option<&Bitmap>,
    sel: Sel,
    rows: usize,
) -> (Vec<bool>, Option<Bitmap>) {
    let mut out = vec![false; rows];
    let o = out.as_mut_slice();
    match (a, b) {
        (NumSrc::F(x), NumSrc::CF(c)) => cmp_float_const(o, sel, x, op, c),
        (NumSrc::CF(c), NumSrc::F(x)) => cmp_float_const(o, sel, x, op.flip(), c),
        (NumSrc::I(x), NumSrc::CI(c)) => cmp_vs_const(o, sel, x, op, c, |&x| x),
        (NumSrc::CI(c), NumSrc::I(x)) => cmp_vs_const(o, sel, x, op.flip(), c, |&x| x),
        _ if a.is_int() && b.is_int() => for_sel!(sel, rows, i => {
            o[i] = op.ord_ok(a.int_at(i).cmp(&b.int_at(i)));
        }),
        _ => for_sel!(sel, rows, i => {
            o[i] = op.ord_ok(a.float_at(i).total_cmp(&b.float_at(i)));
        }),
    }
    (out, combine_validity(av, bv))
}

/// A string operand lane: column or constant.
#[derive(Clone, Copy)]
pub enum StrSrc<'a> {
    /// Text column lane.
    Col(&'a TextLane),
    /// Text constant.
    Const(&'a str),
}

impl StrSrc<'_> {
    #[inline]
    fn at(&self, i: usize) -> &str {
        match self {
            StrSrc::Col(l) => l.get(i),
            StrSrc::Const(s) => s,
        }
    }
}

/// String comparison (lexicographic byte order, as `Value::cmp_total`).
/// A column against a constant, on either side, is decided once per
/// dictionary entry; each row then reads its code's verdict. Two columns
/// compare their decoded strings row by row.
pub fn cmp_str(
    op: CmpOp,
    a: StrSrc,
    av: Option<&Bitmap>,
    b: StrSrc,
    bv: Option<&Bitmap>,
    sel: Sel,
    rows: usize,
) -> (Vec<bool>, Option<Bitmap>) {
    let mut out = vec![false; rows];
    let o = out.as_mut_slice();
    let verdict = match (a, b) {
        (StrSrc::Col(l), StrSrc::Const(c)) => Some((l, l.dict().per_code(|s| op.ord_ok(s.cmp(c))))),
        (StrSrc::Const(c), StrSrc::Col(l)) => Some((l, l.dict().per_code(|s| op.ord_ok(c.cmp(s))))),
        _ => None,
    };
    match verdict {
        Some((l, v)) => fill_vs_const(o, sel, l.codes(), v.as_slice(), |&c, v| v[c as usize]),
        None => for_sel!(sel, rows, i => {
            o[i] = op.ord_ok(a.at(i).cmp(b.at(i)));
        }),
    }
    (out, combine_validity(av, bv))
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
    sel: Sel,
    rows: usize,
) -> (Vec<bool>, Option<Bitmap>) {
    let mut out = vec![false; rows];
    for_sel!(sel, rows, i => {
        out[i] = op.ord_ok(a.at(i).cmp(&b.at(i)));
    });
    (out, combine_validity(av, bv))
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
    sel: Sel,
    rows: usize,
) -> Result<(ColumnData, Option<Bitmap>)> {
    let validity = combine_validity(av, bv);
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

/// Reduce a boolean result lane to a row-aligned mask: a row is kept
/// when it is selected, valid **and** true (the row path's `eval_pred`
/// maps NULL to false). The lane becomes the mask in place.
pub fn to_mask(mut vals: Vec<bool>, validity: Option<&Bitmap>, sel: Sel) -> Vec<bool> {
    match sel {
        Sel::All => {}
        Sel::Mask(m) => {
            for (v, &k) in vals.iter_mut().zip(m) {
                *v &= k;
            }
        }
        Sel::Pos(s) => {
            let mut kept = vec![false; vals.len()];
            for &i in s {
                kept[i as usize] = vals[i as usize];
            }
            vals = kept;
        }
    }
    if let Some(v) = validity {
        v.and_into(&mut vals);
    }
    vals
}

/// The positions of a mask's set rows, in order.
///
/// Branch-free: every row is written to the next free slot of an output
/// sized to the mask, and the slot is kept by advancing past it only when
/// the row is set.
pub fn bool_to_sel(mask: &[bool]) -> Vec<u32> {
    let mut out = vec![0u32; mask.len()];
    let mut kept = 0;
    for (i, &k) in mask.iter().enumerate() {
        out[kept] = i as u32;
        kept += k as usize;
    }
    out.truncate(kept);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Column;
    use sstore_common::{DataType, Value};

    fn bm(bits: &[bool]) -> Bitmap {
        let mut b = Bitmap::new_set(bits.len());
        for (i, &v) in bits.iter().enumerate() {
            b.set(i, v);
        }
        b
    }

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// The row path's truth value of `a <op> b`, from `Value::cmp_total`.
    fn row_cmp(op: CmpOp, a: &Value, b: &Value) -> bool {
        let o = a.cmp_total(b);
        match op {
            CmpOp::Eq => o.is_eq(),
            CmpOp::Ne => o.is_ne(),
            CmpOp::Lt => o.is_lt(),
            CmpOp::Le => o.is_le(),
            CmpOp::Gt => o.is_gt(),
            CmpOp::Ge => o.is_ge(),
        }
    }

    const MASK: [bool; 10] = [
        false, true, false, true, true, false, true, false, false, true,
    ];

    /// Every row, some positions, and a mask.
    fn selections(rows: usize) -> [Sel<'static>; 3] {
        [Sel::All, Sel::Pos(&[1, 3, 6]), Sel::Mask(&MASK[..rows])]
    }

    fn sel_rows(sel: Sel, rows: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for_sel!(sel, rows, i => {
            out.push(i);
        });
        out
    }

    #[test]
    fn cmp_num_every_shape_and_op_matches_cmp_total() {
        let ints = [2i64, -1, 0, 0, i64::MIN, i64::MAX, 3, i64::MAX - 1];
        let floats = [
            2.0f64,
            f64::NAN,
            -0.0,
            0.0,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -f64::NAN,
            2.5,
        ];
        let (i, f) = (NumSrc::I(&ints), NumSrc::F(&floats));
        // Column·column, then every column·constant pair both ways round
        // and constant·constant; `2` against `2.0` crosses the promotion.
        // `i64::MAX - 1` and `i64::MAX` are equal only as floats, so two
        // ints must compare as ints.
        let mut shapes = vec![(i, i), (f, f), (i, f), (f, i)];
        for c in [
            NumSrc::CI(0),
            NumSrc::CI(2),
            NumSrc::CI(i64::MIN),
            NumSrc::CI(i64::MAX),
            NumSrc::CF(0.0),
            NumSrc::CF(-0.0),
            NumSrc::CF(f64::NAN),
            NumSrc::CF(-f64::NAN),
            NumSrc::CF(f64::INFINITY),
            NumSrc::CF(f64::NEG_INFINITY),
            NumSrc::CF(2.0),
        ] {
            shapes.extend([(i, c), (c, i), (f, c), (c, f), (c, NumSrc::CI(2))]);
            shapes.push((c, NumSrc::CF(-0.0)));
        }
        let value = |s: NumSrc, r: usize| match s {
            NumSrc::I(d) => Value::Int(d[r]),
            NumSrc::F(d) => Value::Float(d[r]),
            NumSrc::CI(c) => Value::Int(c),
            NumSrc::CF(c) => Value::Float(c),
        };
        for (a, b) in shapes {
            for op in OPS {
                for sel in selections(ints.len()) {
                    let (out, v) = cmp_num(op, a, None, b, None, sel, ints.len());
                    assert!(v.is_none());
                    for r in sel_rows(sel, ints.len()) {
                        let (x, y) = (value(a, r), value(b, r));
                        assert_eq!(out[r], row_cmp(op, &x, &y), "{x} {op:?} {y}");
                    }
                }
            }
        }
    }

    #[test]
    fn cmp_str_every_op_with_the_constant_on_either_side() {
        let mut col = Column::typed(DataType::Text, 0);
        for s in ["", "a", "ab", "b", "a", "abc", "", "ab", "x", "y"] {
            col.set(col.len(), &Value::Text(s.into()));
        }
        // "x" and "y" lose their last cells, and "zz" and "b" take their
        // codes; cell 9 turns NULL.
        col.set(8, &Value::Text("ab".into()));
        col.set(9, &Value::Null);
        col.set(3, &Value::Text("zz".into()));
        col.set(4, &Value::Text("b".into()));
        let ColumnData::Text(lane) = &col.data else {
            panic!("a TEXT lane")
        };
        assert_eq!(lane.dict().len(), 6);
        assert!(lane.codes().iter().all(|&c| c < 7), "no code minted");
        let rows = col.len();
        let cv = col.validity.as_ref();
        for c in ["", "a", "ab", "abd", "b", "zz", "zzz"] {
            let (lc, k) = (StrSrc::Col(lane), StrSrc::Const(c));
            for op in OPS {
                for (a, av, b, bv) in [(lc, cv, k, None), (k, None, lc, cv)] {
                    for sel in selections(rows) {
                        let (out, v) = cmp_str(op, a, av, b, bv, sel, rows);
                        for r in sel_rows(sel, rows) {
                            if col.is_null_at(r) {
                                assert!(!valid_at(v.as_ref(), r), "NULL at {r}");
                                continue;
                            }
                            let (x, y) = (Value::Text(a.at(r).into()), Value::Text(b.at(r).into()));
                            assert_eq!(out[r], row_cmp(op, &x, &y), "{x} {op:?} {y}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cmp_int_lanes() {
        let a = [1i64, 5, 3];
        let (out, v) = cmp_num(
            CmpOp::Lt,
            NumSrc::I(&a),
            None,
            NumSrc::CI(3),
            None,
            Sel::All,
            3,
        );
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
            Sel::All,
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
            Sel::All,
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
            Sel::All,
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
            Sel::All,
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
            Sel::Pos(&sel),
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
            Sel::All,
            1,
        )
        .unwrap();
        let ColumnData::Float(d) = data else { panic!() };
        assert!(d[0].is_nan());
    }

    #[test]
    fn bool_to_sel_drops_null_and_false() {
        let none: Vec<u32> = Vec::new();
        let vals = [true, true, false, true, true];
        let v = bm(&[true, false, true, true, true]);
        let keep = |vals: &[bool], v: Option<&Bitmap>, sel: Sel| {
            bool_to_sel(&to_mask(vals.to_vec(), v, sel))
        };
        assert_eq!(keep(&vals, Some(&v), Sel::All), vec![0, 3, 4]);
        // Row 1 is NULL, row 2 false and row 4 unselected.
        assert_eq!(keep(&vals, Some(&v), Sel::Pos(&[0, 1, 2, 3])), [0, 3]);
        let mask = [true, true, true, true, false];
        assert_eq!(keep(&vals, Some(&v), Sel::Mask(&mask)), [0, 3]);
        assert_eq!(keep(&vals, None, Sel::Pos(&[1, 2, 4])), [1, 4]);
        assert_eq!(keep(&[true; 5], None, Sel::All), [0, 1, 2, 3, 4]);
        assert_eq!(keep(&[true; 5], Some(&v), Sel::All), [0, 2, 3, 4]);
        assert_eq!(keep(&[false; 5], None, Sel::All), none);
        assert_eq!(keep(&[false; 5], Some(&v), Sel::Pos(&[0, 4])), none);
        assert_eq!(keep(&[], None, Sel::All), none);
        assert_eq!(keep(&vals, Some(&v), Sel::Pos(&[])), none);
        assert_eq!(keep(&vals, None, Sel::Mask(&[false; 5])), none);
        // Past 64 rows the validity spans two words.
        let mut wide = Bitmap::new_set(70);
        wide.set(65, false);
        let got = keep(&[true; 70], Some(&wide), Sel::All);
        assert_eq!(got.len(), 69);
        assert!(!got.contains(&65));
    }
}
