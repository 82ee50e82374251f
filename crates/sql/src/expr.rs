//! Bound expressions and their evaluation.
//!
//! The planner resolves AST expressions (`crate::ast::Expr`) into
//! [`BoundExpr`]s whose column references are positional offsets into the
//! executor's row layout, so evaluation is allocation-light and needs no
//! name lookups. The planner's binder has also decided every operand's
//! type and refused the operators that cannot take it, so evaluation
//! checks no types: the arm a `match` still needs for a value of another
//! type returns one shared internal error.

use crate::ast::{BinOp, UnaryOp};
use sstore_common::{DataType, Error, Result, Value};
use std::collections::BTreeSet;

/// A name-resolved expression, ready for evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Constant.
    Literal(Value),
    /// Positional statement parameter.
    Param(usize),
    /// Offset into the current row.
    ColumnRef(usize),
    /// Unary op.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<BoundExpr>,
        /// Result type (`None`: decided by untyped parameters, and then
        /// the expression reads no column).
        ty: Option<DataType>,
    },
    /// Binary op.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<BoundExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// `[NOT] IN (list)`.
    InList {
        /// Test expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// `[NOT] BETWEEN`.
    Between {
        /// Test expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        lo: Box<BoundExpr>,
        /// Upper bound.
        hi: Box<BoundExpr>,
        /// Negation flag.
        negated: bool,
    },
    /// Scalar function call.
    Scalar {
        /// Which function.
        func: ScalarFn,
        /// Arguments.
        args: Vec<BoundExpr>,
        /// Result type, as for [`BoundExpr::Unary`].
        ty: Option<DataType>,
    },
    /// A value converted by [`DataType::coerce`], where the binder would
    /// otherwise let one expression yield two types (`COALESCE(1, 2.5)`).
    Cast {
        /// Operand.
        expr: Box<BoundExpr>,
        /// Target type.
        ty: DataType,
    },
    /// Reference to a pre-evaluated uncorrelated scalar subquery (slot in
    /// [`EvalEnv::subs`]). The executor evaluates the statement's subquery
    /// plans once, in slot order, before running the main plan.
    SubqueryRef(usize),
}

impl BoundExpr {
    /// The sub-expressions this node evaluates, in source order.
    pub(crate) fn children(&self) -> impl Iterator<Item = &BoundExpr> {
        let (fixed, list): ([Option<&BoundExpr>; 3], &[BoundExpr]) = match self {
            BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::Cast { expr, .. } => ([Some(expr), None, None], &[]),
            BoundExpr::Binary { left, right, .. } => ([Some(left), Some(right), None], &[]),
            BoundExpr::InList { expr, list, .. } => ([Some(expr), None, None], list),
            BoundExpr::Between { expr, lo, hi, .. } => ([Some(expr), Some(lo), Some(hi)], &[]),
            BoundExpr::Scalar { args, .. } => ([None, None, None], args),
            BoundExpr::Literal(_)
            | BoundExpr::Param(_)
            | BoundExpr::ColumnRef(_)
            | BoundExpr::SubqueryRef(_) => ([None, None, None], &[]),
        };
        fixed.into_iter().flatten().chain(list)
    }

    /// [`BoundExpr::children`], mutably.
    fn children_mut(&mut self) -> impl Iterator<Item = &mut BoundExpr> {
        let (fixed, list): ([Option<&mut BoundExpr>; 3], &mut [BoundExpr]) = match self {
            BoundExpr::Unary { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::Cast { expr, .. } => ([Some(expr), None, None], &mut []),
            BoundExpr::Binary { left, right, .. } => ([Some(left), Some(right), None], &mut []),
            BoundExpr::InList { expr, list, .. } => ([Some(expr), None, None], list),
            BoundExpr::Between { expr, lo, hi, .. } => ([Some(expr), Some(lo), Some(hi)], &mut []),
            BoundExpr::Scalar { args, .. } => ([None, None, None], args),
            BoundExpr::Literal(_)
            | BoundExpr::Param(_)
            | BoundExpr::ColumnRef(_)
            | BoundExpr::SubqueryRef(_) => ([None, None, None], &mut []),
        };
        fixed.into_iter().flatten().chain(list)
    }

    /// The operands of the top-level `AND` chain, left to right (the
    /// expression itself when it is no `AND`).
    pub(crate) fn conjuncts(&self) -> impl Iterator<Item = &BoundExpr> {
        let mut stack = vec![self];
        std::iter::from_fn(move || {
            let mut e = stack.pop()?;
            while let BoundExpr::Binary {
                op: BinOp::And,
                left,
                right,
            } = e
            {
                stack.push(right);
                e = left;
            }
            Some(e)
        })
    }

    /// Collect every `ColumnRef` position the expression mentions.
    pub(crate) fn collect_refs(&self, out: &mut BTreeSet<usize>) {
        match self {
            BoundExpr::ColumnRef(i) => {
                out.insert(*i);
            }
            e => e.children().for_each(|c| c.collect_refs(out)),
        }
    }

    /// Re-address every `ColumnRef` from a row to the sub-row that starts
    /// at its column `base` (every reference must lie at or past `base`).
    pub(crate) fn rebase_refs(&mut self, base: usize) {
        match self {
            BoundExpr::ColumnRef(i) => *i -= base,
            e => e.children_mut().for_each(|c| c.rebase_refs(base)),
        }
    }
}

/// Supported scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    /// `ABS(x)`
    Abs,
    /// `SQRT(x)`
    Sqrt,
    /// `FLOOR(x)`
    Floor,
    /// `CEIL(x)`
    Ceil,
    /// `POWER(x, y)`
    Power,
    /// `LENGTH(s)`
    Length,
    /// `LOWER(s)`
    Lower,
    /// `UPPER(s)`
    Upper,
    /// `COALESCE(a, b, ...)` — first non-NULL argument.
    Coalesce,
    /// `NOW()` — current logical time; substituted by the planner with the
    /// statement's evaluation timestamp parameter, but kept as a function
    /// for direct evaluation too (arg 0 = timestamp injected by executor).
    Now,
}

impl ScalarFn {
    /// Resolve a lower-cased function name.
    pub(crate) fn by_name(name: &str) -> Option<ScalarFn> {
        Some(match name {
            "abs" => ScalarFn::Abs,
            "sqrt" => ScalarFn::Sqrt,
            "floor" => ScalarFn::Floor,
            "ceil" | "ceiling" => ScalarFn::Ceil,
            "power" | "pow" => ScalarFn::Power,
            "length" | "len" => ScalarFn::Length,
            "lower" => ScalarFn::Lower,
            "upper" => ScalarFn::Upper,
            "coalesce" => ScalarFn::Coalesce,
            "now" => ScalarFn::Now,
            _ => return None,
        })
    }

    /// Expected argument count (`None` = variadic).
    pub(crate) fn arity(self) -> Option<usize> {
        match self {
            ScalarFn::Power => Some(2),
            ScalarFn::Coalesce => None,
            ScalarFn::Now => Some(0),
            _ => Some(1),
        }
    }
}

/// Everything evaluation needs besides the expression itself.
#[derive(Debug, Clone, Copy)]
pub struct EvalEnv<'a> {
    /// Statement parameters (`?` placeholders).
    pub params: &'a [Value],
    /// Logical time at statement start (for `NOW()`).
    pub now: i64,
    /// Pre-evaluated scalar subquery results, by slot.
    pub subs: &'a [Value],
}

/// The error of a value reaching an operator that cannot take its type,
/// which the binder's typing rules out.
pub(crate) fn ill_typed() -> Error {
    Error::Internal("a value of a type the binder did not decide reached an operator".into())
}

/// Evaluate `expr` against `row`. A leaf (a literal, a parameter, a
/// column) is read where the call is, with no call of its own: a point
/// statement's key and cells are mostly leaves.
#[inline(always)]
pub fn eval(expr: &BoundExpr, row: &[Value], env: &EvalEnv<'_>) -> Result<Value> {
    match leaf(expr, row, env) {
        Some(v) => Ok(v.clone()),
        None => eval_node(expr, row, env),
    }
}

/// `expr`'s value, borrowed when it is a leaf ([`leaf`]), else evaluated
/// into `slot`.
#[inline(always)]
pub(crate) fn operand<'v>(
    expr: &'v BoundExpr,
    row: &'v [Value],
    env: &'v EvalEnv<'_>,
    slot: &'v mut Value,
) -> Result<&'v Value> {
    match leaf(expr, row, env) {
        Some(v) => Ok(v),
        None => {
            *slot = eval_node(expr, row, env)?;
            Ok(slot)
        }
    }
}

/// The value of a leaf, borrowed: a literal, a parameter or a column that
/// exists. `None` for any other node, which [`eval_node`] evaluates.
#[inline(always)]
fn leaf<'v>(expr: &'v BoundExpr, row: &'v [Value], env: &'v EvalEnv<'_>) -> Option<&'v Value> {
    match expr {
        BoundExpr::Literal(v) => Some(v),
        BoundExpr::Param(i) => env.params.get(*i),
        BoundExpr::ColumnRef(i) => row.get(*i),
        _ => None,
    }
}

/// [`eval`] of what [`leaf`] does not read.
fn eval_node(expr: &BoundExpr, row: &[Value], env: &EvalEnv<'_>) -> Result<Value> {
    match expr {
        // A leaf arrives here only when it is a parameter or a column
        // past the end.
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::Param(i) => Err(Error::Constraint(format!("missing parameter ?{i}"))),
        BoundExpr::ColumnRef(i) => Err(Error::Internal(format!("column offset {i} out of range"))),
        BoundExpr::Unary { op, expr, .. } => {
            let v = eval(expr, row, env)?;
            eval_unary(*op, v)
        }
        BoundExpr::Cast { expr, ty } => ty.coerce(eval(expr, row, env)?).ok_or_else(ill_typed),
        BoundExpr::Binary { op, left, right } => eval_binary(*op, left, right, row, env),
        BoundExpr::IsNull { expr, negated } => {
            let v = eval(expr, row, env)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            // `v = a OR v = b OR ...`, stopping at the first match.
            let mut found = Some(false);
            for item in list {
                found = and_or(true, found, v.sql_eq(&eval(item, row, env)?));
                if found == Some(true) {
                    break;
                }
            }
            Ok(tri(found.map(|f| f != *negated)))
        }
        BoundExpr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval(expr, row, env)?;
            let lo = eval(lo, row, env)?;
            let hi = eval(hi, row, env)?;
            let ge_lo = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
            let le_hi = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
            match (ge_lo, le_hi) {
                (Some(a), Some(b)) => Ok(Value::Bool((a && b) != *negated)),
                _ => Ok(Value::Null),
            }
        }
        BoundExpr::SubqueryRef(i) => env
            .subs
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::Internal(format!("missing subquery slot {i}"))),
        BoundExpr::Scalar { func, args, .. } => {
            if *func == ScalarFn::Now {
                return Ok(Value::Timestamp(env.now));
            }
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval(a, row, env))
                .collect::<Result<_>>()?;
            eval_scalar(*func, vals)
        }
    }
}

/// Evaluate a predicate: NULL counts as false (SQL WHERE semantics).
pub(crate) fn eval_pred(expr: &BoundExpr, row: &[Value], env: &EvalEnv<'_>) -> Result<bool> {
    Ok(truth(&eval(expr, row, env)?)? == Some(true))
}

/// A BOOLEAN value's truth, `None` for NULL.
pub(crate) fn truth(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        _ => Err(ill_typed()),
    }
}

/// `l AND r` (`stop` false) or `l OR r` (`stop` true) in three-valued
/// logic, once `l` has not decided it on its own: a deciding `r` wins
/// even over a NULL `l`.
pub(crate) fn and_or(stop: bool, l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (l, r) {
        (_, Some(b)) if b == stop => Some(stop),
        (None, _) | (_, None) => None,
        _ => Some(!stop),
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| Error::Constraint("integer overflow in negation".into())),
            Value::Float(f) => Ok(Value::Float(-f)),
            _ => Err(ill_typed()),
        },
        UnaryOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            _ => Err(ill_typed()),
        },
    }
}

fn eval_binary(
    op: BinOp,
    left: &BoundExpr,
    right: &BoundExpr,
    row: &[Value],
    env: &EvalEnv<'_>,
) -> Result<Value> {
    // AND/OR get short-circuit + three-valued logic.
    if let BinOp::And | BinOp::Or = op {
        let stop = op == BinOp::Or;
        let l = truth(&eval(left, row, env)?)?;
        if l == Some(stop) {
            return Ok(Value::Bool(stop));
        }
        let r = truth(&eval(right, row, env)?)?;
        return Ok(tri(and_or(stop, l, r)));
    }

    // Leaf operands are read in place, not cloned.
    let (mut l_node, mut r_node) = (Value::Null, Value::Null);
    let l = operand(left, row, env, &mut l_node)?;
    let r = operand(right, row, env, &mut r_node)?;
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, l, r),
        BinOp::Eq => Ok(tri(l.sql_eq(r))),
        BinOp::Neq => Ok(tri(l.sql_eq(r).map(|b| !b))),
        BinOp::Lt => Ok(tri(l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Less))),
        BinOp::Le => Ok(tri(l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Greater))),
        BinOp::Gt => Ok(tri(l.sql_cmp(r).map(|o| o == std::cmp::Ordering::Greater))),
        BinOp::Ge => Ok(tri(l.sql_cmp(r).map(|o| o != std::cmp::Ordering::Less))),
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn tri(b: Option<bool>) -> Value {
    match b {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Timestamp arithmetic behaves like Int.
    let as_int = |v: &Value| match v {
        Value::Int(i) | Value::Timestamp(i) => Some(*i),
        _ => None,
    };
    match (as_int(l), as_int(r)) {
        (Some(a), Some(b)) => {
            let out = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(Error::Constraint("division by zero".into()));
                    }
                    a.checked_div(b)
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(Error::Constraint("modulo by zero".into()));
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Int)
                .ok_or_else(|| Error::Constraint("integer overflow".into()))
        }
        _ => {
            let a = l.as_float()?;
            let b = r.as_float()?;
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(Error::Constraint("division by zero".into()));
                    }
                    a / b
                }
                BinOp::Mod => a % b,
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

/// Apply `func` to its arguments, whose count the binder checked.
fn eval_scalar(func: ScalarFn, vals: Vec<Value>) -> Result<Value> {
    if func == ScalarFn::Coalesce {
        return Ok(vals
            .into_iter()
            .find(|v| !v.is_null())
            .unwrap_or(Value::Null));
    }
    // Every other function is NULL on a NULL argument.
    if vals.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let mut args = vals.into_iter();
    let mut arg = || args.next().ok_or_else(ill_typed);
    Ok(match func {
        ScalarFn::Abs => match arg()? {
            Value::Int(i) => Value::Int(
                i.checked_abs()
                    .ok_or_else(|| Error::Constraint("integer overflow in ABS".into()))?,
            ),
            Value::Float(f) => Value::Float(f.abs()),
            _ => return Err(ill_typed()),
        },
        ScalarFn::Sqrt => {
            let f = arg()?.as_float()?;
            if f < 0.0 {
                return Err(Error::Constraint("SQRT of negative value".into()));
            }
            Value::Float(f.sqrt())
        }
        ScalarFn::Floor | ScalarFn::Ceil => {
            let f = arg()?.as_float()?;
            let f = if func == ScalarFn::Floor {
                f.floor()
            } else {
                f.ceil()
            };
            // `as` would turn NaN into 0 and saturate out-of-range values;
            // `i64::MIN as f64` is exact and `i64::MAX as f64` is 2^63.
            if !(i64::MIN as f64..i64::MAX as f64).contains(&f) {
                return Err(Error::Constraint(format!(
                    "{func:?} of {f} has no INT value"
                )));
            }
            Value::Int(f as i64)
        }
        ScalarFn::Power => Value::Float(arg()?.as_float()?.powf(arg()?.as_float()?)),
        ScalarFn::Length | ScalarFn::Lower | ScalarFn::Upper => {
            let Value::Text(s) = arg()? else {
                return Err(ill_typed());
            };
            match func {
                ScalarFn::Length => Value::Int(s.chars().count() as i64),
                ScalarFn::Lower => Value::Text(s.to_lowercase()),
                _ => Value::Text(s.to_uppercase()),
            }
        }
        // COALESCE is answered above, and `eval` answers NOW().
        ScalarFn::Coalesce | ScalarFn::Now => return Err(ill_typed()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Environment with no parameters.
    fn empty_env() -> EvalEnv<'static> {
        EvalEnv {
            params: &[],
            now: 0,
            subs: &[],
        }
    }

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn ev(e: &BoundExpr) -> Value {
        eval(e, &[], &empty_env()).unwrap()
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(ev(&bin(BinOp::Add, lit(2), lit(3))), Value::Int(5));
        assert_eq!(ev(&bin(BinOp::Div, lit(7), lit(2))), Value::Int(3));
        assert_eq!(ev(&bin(BinOp::Mod, lit(7), lit(2))), Value::Int(1));
    }

    #[test]
    fn mixed_arithmetic_is_float() {
        assert_eq!(ev(&bin(BinOp::Mul, lit(2), lit(1.5))), Value::Float(3.0));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = bin(BinOp::Div, lit(1), lit(0));
        assert!(eval(&e, &[], &empty_env()).is_err());
        let e = bin(BinOp::Mod, lit(1), lit(0));
        assert!(eval(&e, &[], &empty_env()).is_err());
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let e = bin(BinOp::Add, lit(i64::MAX), lit(1));
        assert_eq!(
            eval(&e, &[], &empty_env()).unwrap_err().kind(),
            "constraint"
        );
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert_eq!(
            ev(&bin(BinOp::Add, lit(1), BoundExpr::Literal(Value::Null))),
            Value::Null
        );
    }

    #[test]
    fn three_valued_and_or() {
        let null = BoundExpr::Literal(Value::Null);
        // false AND NULL = false; true AND NULL = NULL
        assert_eq!(
            ev(&bin(BinOp::And, lit(false), null.clone())),
            Value::Bool(false)
        );
        assert_eq!(ev(&bin(BinOp::And, lit(true), null.clone())), Value::Null);
        // true OR NULL = true; false OR NULL = NULL
        assert_eq!(
            ev(&bin(BinOp::Or, lit(true), null.clone())),
            Value::Bool(true)
        );
        assert_eq!(ev(&bin(BinOp::Or, lit(false), null)), Value::Null);
    }

    #[test]
    fn comparisons() {
        assert_eq!(ev(&bin(BinOp::Lt, lit(1), lit(2))), Value::Bool(true));
        assert_eq!(ev(&bin(BinOp::Ge, lit(2), lit(2))), Value::Bool(true));
        assert_eq!(ev(&bin(BinOp::Eq, lit("a"), lit("a"))), Value::Bool(true));
        assert_eq!(
            ev(&bin(BinOp::Neq, lit(1), BoundExpr::Literal(Value::Null))),
            Value::Null
        );
    }

    #[test]
    fn in_list_with_nulls() {
        let e = BoundExpr::InList {
            expr: Box::new(lit(3)),
            list: vec![lit(1), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        // not found but NULL present -> NULL
        assert_eq!(ev(&e), Value::Null);
        let e = BoundExpr::InList {
            expr: Box::new(lit(1)),
            list: vec![lit(1), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(ev(&e), Value::Bool(true));
    }

    #[test]
    fn between() {
        let e = BoundExpr::Between {
            expr: Box::new(lit(5)),
            lo: Box::new(lit(1)),
            hi: Box::new(lit(10)),
            negated: false,
        };
        assert_eq!(ev(&e), Value::Bool(true));
        let e = BoundExpr::Between {
            expr: Box::new(lit(5)),
            lo: Box::new(lit(6)),
            hi: Box::new(lit(10)),
            negated: true,
        };
        assert_eq!(ev(&e), Value::Bool(true));
    }

    #[test]
    fn column_and_param_refs() {
        let row = vec![Value::Int(10), Value::Text("x".into())];
        let env = EvalEnv {
            params: &[Value::Int(99)],
            now: 0,
            subs: &[],
        };
        assert_eq!(
            eval(&BoundExpr::ColumnRef(1), &row, &env).unwrap(),
            Value::Text("x".into())
        );
        assert_eq!(
            eval(&BoundExpr::Param(0), &row, &env).unwrap(),
            Value::Int(99)
        );
        assert!(eval(&BoundExpr::Param(1), &row, &env).is_err());
    }

    #[test]
    fn scalar_functions() {
        let call = |f, args| BoundExpr::Scalar {
            func: f,
            args,
            ty: None,
        };
        assert_eq!(ev(&call(ScalarFn::Abs, vec![lit(-4)])), Value::Int(4));
        assert_eq!(ev(&call(ScalarFn::Sqrt, vec![lit(9.0)])), Value::Float(3.0));
        assert_eq!(ev(&call(ScalarFn::Floor, vec![lit(2.7)])), Value::Int(2));
        assert_eq!(ev(&call(ScalarFn::Ceil, vec![lit(2.1)])), Value::Int(3));
        assert_eq!(
            ev(&call(ScalarFn::Power, vec![lit(2.0), lit(10.0)])),
            Value::Float(1024.0)
        );
        assert_eq!(
            ev(&call(ScalarFn::Length, vec![lit("héllo")])),
            Value::Int(5)
        );
        assert_eq!(
            ev(&call(ScalarFn::Upper, vec![lit("ab")])),
            Value::Text("AB".into())
        );
        assert_eq!(
            ev(&call(
                ScalarFn::Coalesce,
                vec![BoundExpr::Literal(Value::Null), lit(7)]
            )),
            Value::Int(7)
        );
    }

    #[test]
    fn int_results_out_of_range_are_errors_not_panics() {
        let call = |f, arg| BoundExpr::Scalar {
            func: f,
            args: vec![arg],
            ty: None,
        };
        let kind = |e: &BoundExpr| eval(e, &[], &empty_env()).unwrap_err().kind();
        assert_eq!(kind(&call(ScalarFn::Abs, lit(i64::MIN))), "constraint");
        assert_eq!(
            ev(&call(ScalarFn::Abs, lit(i64::MIN + 1))),
            Value::Int(i64::MAX)
        );
        for f in [ScalarFn::Floor, ScalarFn::Ceil] {
            for x in [f64::NAN, f64::INFINITY, -f64::INFINITY, 9.3e18, -9.3e18] {
                assert_eq!(kind(&call(f, lit(x))), "constraint", "{f:?}({x})");
            }
        }
        let min = i64::MIN as f64;
        assert_eq!(ev(&call(ScalarFn::Floor, lit(min))), Value::Int(i64::MIN));
        assert_eq!(ev(&call(ScalarFn::Ceil, lit(-0.5))), Value::Int(0));
    }

    #[test]
    fn now_uses_env() {
        let env = EvalEnv {
            params: &[],
            now: 1234,
            subs: &[],
        };
        let e = BoundExpr::Scalar {
            func: ScalarFn::Now,
            args: vec![],
            ty: Some(DataType::Timestamp),
        };
        assert_eq!(eval(&e, &[], &env).unwrap(), Value::Timestamp(1234));
    }

    #[test]
    fn pred_null_is_false() {
        assert!(!eval_pred(&BoundExpr::Literal(Value::Null), &[], &empty_env()).unwrap());
        assert!(eval_pred(&lit(true), &[], &empty_env()).unwrap());
        assert!(eval_pred(&lit(1), &[], &empty_env()).is_err());
    }

    #[test]
    fn is_null_checks() {
        let e = BoundExpr::IsNull {
            expr: Box::new(BoundExpr::Literal(Value::Null)),
            negated: false,
        };
        assert_eq!(ev(&e), Value::Bool(true));
        let e = BoundExpr::IsNull {
            expr: Box::new(lit(1)),
            negated: true,
        };
        assert_eq!(ev(&e), Value::Bool(true));
    }
}
