//! Name and type resolution: one [`Binder`] turns every AST expression
//! into a [`BoundExpr`] over the row of the [`Scope`] it is evaluated in,
//! then decides its type, refusing an operand its operator cannot take
//! with an error naming the operator, so execution never meets one. A
//! parameter is typed by its one use, and `execute` checks its value.

use super::aggregate::AggCall;
use super::select::plan_select;
use crate::ast::{self, BinOp, Expr, Select, SelectItem, UnaryOp};
use crate::expr::{BoundExpr, ScalarFn};
use crate::plan::PhysicalPlan;
use sstore_common::{DataType, Error, Result, TableId, Value};
use sstore_storage::Database;
use std::fmt::Display;
use DataType::{Bool, Float, Int, Text, Timestamp};

/// A bound expression's type: `None` for NULL, and for a parameter (or
/// an expression of parameters only) its use has not typed yet.
pub(super) type Ty = Option<DataType>;

/// The types that compare with `t`: all numbers, or `t` alone.
fn family(t: DataType) -> &'static [DataType] {
    match t {
        Int | Float | Timestamp => &[Int, Float, Timestamp],
        Text => &[Text],
        Bool => &[Bool],
    }
}

/// One column visible to name resolution.
#[derive(Debug, Clone)]
struct LayoutCol {
    /// Table binding (alias or table name) this column came from.
    binding: String,
    /// Column name.
    name: String,
    /// Part of the user-visible schema (hidden lifecycle columns are
    /// resolvable by explicit name but excluded from `*`).
    visible: bool,
    /// Declared type.
    ty: DataType,
}

/// The row layout a plan fragment produces.
#[derive(Debug, Clone, Default)]
pub(super) struct Layout {
    cols: Vec<LayoutCol>,
}

impl Layout {
    pub(super) fn from_table(db: &Database, table: TableId, binding: &str) -> Result<Layout> {
        let meta = db
            .catalog()
            .meta(table)
            .ok_or_else(|| Error::NotFound(format!("table {table}")))?;
        let visible_arity = meta.visible_schema.arity();
        let storage = db.table(table)?.schema();
        let cols = storage
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| LayoutCol {
                binding: binding.to_string(),
                name: c.name.clone(),
                visible: i < visible_arity,
                ty: c.ty,
            })
            .collect();
        Ok(Layout { cols })
    }

    pub(super) fn concat(mut self, other: Layout) -> Layout {
        self.cols.extend(other.cols);
        self
    }

    pub(super) fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        let name = name.to_ascii_lowercase();
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name == name
                    && table
                        .map(|t| c.binding.eq_ignore_ascii_case(t))
                        .unwrap_or(true)
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(Error::NotFound(format!(
                "column `{}{name}`",
                table.map(|t| format!("{t}.")).unwrap_or_default()
            ))),
            1 => Ok(matches[0]),
            _ => Err(Error::Parse(format!("ambiguous column `{name}`"))),
        }
    }

    /// The declared type of column `pos`.
    pub(super) fn ty(&self, pos: usize) -> DataType {
        self.cols[pos].ty
    }

    /// The position, name and type of each column `*` expands to.
    pub(super) fn visible_columns(&self) -> impl Iterator<Item = (usize, &str, DataType)> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.visible)
            .map(|(i, c)| (i, c.name.as_str(), c.ty))
    }
}

/// The row a bound expression reads.
#[derive(Clone, Copy)]
pub(super) enum Scope<'a> {
    /// The row of a FROM clause or a DML target: columns resolve by name,
    /// and aggregate calls are refused.
    Row(&'a Layout),
    /// An `Aggregate`'s output row, the GROUP BY keys then the aggregate
    /// calls, of `types`: a sub-expression written as one of them reads
    /// its column, and any other column reference is refused.
    Grouped {
        keys: &'a [Expr],
        calls: &'a [AggCall<'a>],
        types: &'a [Ty],
    },
}

/// What the binders of one statement share: the plans of its
/// uncorrelated subqueries in slot order with their types, and, for
/// every parameter, the value types its use accepts (empty: any).
#[derive(Default)]
pub(super) struct Slots {
    pub(super) subs: Vec<PhysicalPlan>,
    sub_types: Vec<Ty>,
    pub(super) params: Vec<Vec<DataType>>,
}

/// Binds expressions over one [`Scope`], planning the uncorrelated
/// subqueries it meets into the statement's slots.
pub(super) struct Binder<'a> {
    pub(super) scope: Scope<'a>,
    db: &'a Database,
    slots: &'a mut Slots,
}

impl<'a> Binder<'a> {
    /// A binder over the row `layout` describes.
    pub(super) fn over(layout: &'a Layout, db: &'a Database, slots: &'a mut Slots) -> Self {
        Binder {
            scope: Scope::Row(layout),
            db,
            slots,
        }
    }

    pub(super) fn bind(&mut self, e: &Expr) -> Result<BoundExpr> {
        Ok(self.typed(e)?.0)
    }

    /// Bind `e` and decide its type.
    pub(super) fn typed(&mut self, e: &Expr) -> Result<(BoundExpr, Ty)> {
        let mut bound = self.resolve(e)?;
        let ty = self.type_of(&mut bound)?;
        Ok((bound, ty))
    }

    /// Bind the condition of `clause`, which must be BOOLEAN.
    pub(super) fn pred(&mut self, e: &Expr, clause: &str) -> Result<BoundExpr> {
        let (b, t) = self.typed(e)?;
        self.accept(&b, t, &[Bool], &clause)?;
        Ok(b)
    }

    /// Bind a value stored into a column of type `to`, which
    /// [`DataType::coerce`] must turn it into.
    pub(super) fn stored(&mut self, e: &Expr, to: DataType, what: &str) -> Result<BoundExpr> {
        let (b, t) = self.typed(e)?;
        self.accept(&b, t, to.coercible_from(), &what)?;
        Ok(b)
    }

    /// Resolve the names in `e`.
    fn resolve(&mut self, e: &Expr) -> Result<BoundExpr> {
        if let Scope::Grouped { keys, calls, .. } = self.scope {
            if let Some(pos) = keys.iter().position(|k| k == e) {
                return Ok(BoundExpr::ColumnRef(pos));
            }
            if let Some(call) = AggCall::of(e) {
                let slot = calls
                    .iter()
                    .position(|c| *c == call)
                    .ok_or_else(|| Error::Internal("aggregate not collected".into()))?;
                return Ok(BoundExpr::ColumnRef(keys.len() + slot));
            }
        }
        Ok(match e {
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Param(i) => {
                let params = &mut self.slots.params;
                params.resize(params.len().max(i + 1), Vec::new());
                BoundExpr::Param(*i)
            }
            Expr::Column { table, name } => match self.scope {
                Scope::Row(layout) => BoundExpr::ColumnRef(layout.resolve(table.as_deref(), name)?),
                Scope::Grouped { .. } => {
                    return Err(Error::Parse(format!(
                        "column `{name}` must appear in GROUP BY or inside an aggregate"
                    )))
                }
            },
            Expr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: Box::new(self.resolve(expr)?),
                ty: None,
            },
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(self.resolve(left)?),
                right: Box::new(self.resolve(right)?),
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.resolve(expr)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(self.resolve(expr)?),
                list: self.resolve_all(list)?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(self.resolve(expr)?),
                lo: Box::new(self.resolve(lo)?),
                hi: Box::new(self.resolve(hi)?),
                negated: *negated,
            },
            Expr::Func {
                name,
                args,
                distinct,
            } => {
                if ast::is_aggregate(name) {
                    return Err(Error::Parse(format!("aggregate `{name}` not allowed here")));
                }
                if *distinct {
                    return Err(Error::Parse(format!(
                        "DISTINCT only applies to aggregates, not `{name}`"
                    )));
                }
                let func = ScalarFn::by_name(name)
                    .ok_or_else(|| Error::NotFound(format!("function `{name}`")))?;
                if let Some(n) = func.arity() {
                    if args.len() != n {
                        return Err(Error::Parse(format!(
                            "function `{name}` expects {n} argument(s)"
                        )));
                    }
                }
                BoundExpr::Scalar {
                    func,
                    args: self.resolve_all(args)?,
                    ty: None,
                }
            }
            Expr::Wildcard => return Err(Error::Parse("`*` only allowed inside COUNT(*)".into())),
            Expr::Subquery(sel) => {
                let (plan, _, types) = plan_select(sel, self.db, self.slots, &[])?;
                if types.len() != 1 {
                    return Err(Error::Parse(format!(
                        "scalar subquery must return one column, got {}",
                        types.len()
                    )));
                }
                self.subquery_slot(plan, types[0])
            }
            Expr::Exists { select, negated } => {
                let (plan, _, _) =
                    plan_select(&exists_to_count(select)?, self.db, self.slots, &[])?;
                BoundExpr::Binary {
                    op: if *negated { BinOp::Eq } else { BinOp::Gt },
                    left: Box::new(self.subquery_slot(plan, Some(Int))),
                    right: Box::new(BoundExpr::Literal(Value::Int(0))),
                }
            }
        })
    }

    fn resolve_all(&mut self, es: &[Expr]) -> Result<Vec<BoundExpr>> {
        es.iter().map(|e| self.resolve(e)).collect()
    }

    fn subquery_slot(&mut self, plan: PhysicalPlan, ty: Ty) -> BoundExpr {
        self.slots.subs.push(plan);
        self.slots.sub_types.push(ty);
        BoundExpr::SubqueryRef(self.slots.subs.len() - 1)
    }

    /// Decide the type of the bound `e`: refuse an operand its operator
    /// cannot take, type the parameters by their use, record the result
    /// type where execution reads it, and cast the arguments of a
    /// `COALESCE` that would otherwise yield two types.
    fn type_of(&mut self, e: &mut BoundExpr) -> Result<Ty> {
        use BoundExpr as B;
        Ok(match e {
            B::Literal(v) => v.data_type(),
            B::Param(_) => None,
            B::ColumnRef(i) => match self.scope {
                Scope::Row(layout) => Some(layout.ty(*i)),
                Scope::Grouped { types, .. } => types[*i],
            },
            B::SubqueryRef(i) => self.slots.sub_types[*i],
            B::Cast { ty, .. } => Some(*ty),
            B::IsNull { expr, .. } => self.type_of(expr).map(|_| Some(Bool))?,
            B::Unary { op, expr, ty } => {
                let t = self.type_of(expr)?;
                let (ok, out, name): (&[_], _, _) = match op {
                    UnaryOp::Neg => (&[Int, Float], t, "negation"),
                    UnaryOp::Not => (&[Bool], Some(Bool), "NOT"),
                };
                self.accept(expr, t, ok, &name)?;
                *ty = out;
                out
            }
            B::Binary { op, left, right } => {
                let (lt, rt) = (self.type_of(left)?, self.type_of(right)?);
                let name = format!("operator {op:?}");
                match op {
                    BinOp::And | BinOp::Or => {
                        self.accept(left, lt, &[Bool], &name)?;
                        self.accept(right, rt, &[Bool], &name)?;
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        // Numbers compute with numbers, but TIMESTAMP not with
                        // FLOAT; a parameter takes what coerces to the other
                        // operand's type, which keeps the result's type.
                        for (b, t, other) in [(&**left, lt, rt), (&**right, rt, lt)] {
                            let ok: &[_] = match (t, other) {
                                (None, None) => &[Int, Float],
                                (None, Some(o)) => o.coercible_from(),
                                (Some(_), Some(Timestamp)) => &[Int, Timestamp],
                                (Some(_), Some(Float)) => &[Int, Float],
                                (Some(_), _) => &[Int, Float, Timestamp],
                            };
                            self.accept(b, t, ok, &name)?;
                        }
                        // INT and TIMESTAMP compute as INT; FLOAT wins.
                        return Ok(match (lt, rt) {
                            (Some(Float), _) | (_, Some(Float)) => Some(Float),
                            (None, None) => None,
                            _ => Some(Int),
                        });
                    }
                    _ => self.comparable((left, lt), (right, rt), &name)?,
                }
                Some(Bool)
            }
            B::InList { expr, list, .. } => {
                let t = self.type_of(expr)?;
                for item in list {
                    let it = self.type_of(item)?;
                    self.comparable((expr, t), (item, it), &"IN")?;
                }
                Some(Bool)
            }
            B::Between { expr, lo, hi, .. } => {
                let t = self.type_of(expr)?;
                for bound in [lo, hi] {
                    let bt = self.type_of(bound)?;
                    self.comparable((expr, t), (bound, bt), &"BETWEEN")?;
                }
                Some(Bool)
            }
            B::Scalar { func, args, ty } => {
                *ty = self.scalar(*func, args)?;
                *ty
            }
        })
    }

    /// Check that an operand `b` of type `t` is one `op` takes, of `ok`;
    /// an untyped one is typed by this use instead: each of its
    /// parameters accepts what this use and its others accept.
    pub(super) fn accept(
        &mut self,
        b: &BoundExpr,
        t: Ty,
        ok: &[DataType],
        op: &dyn Display,
    ) -> Result<()> {
        match (t, b) {
            (Some(t), _) if ok.contains(&t) => Ok(()),
            (Some(t), _) => Err(Error::TypeMismatch(format!("{op} cannot take {t}"))),
            (None, BoundExpr::Param(i)) => {
                let params = &mut self.slots.params;
                match &mut params[*i] {
                    any if any.is_empty() => *any = ok.to_vec(),
                    some => some.retain(|t| ok.contains(t)),
                }
                if params[*i].is_empty() {
                    return Err(Error::TypeMismatch(format!(
                        "parameter ?{i}: no type both {op} and its other uses take"
                    )));
                }
                Ok(())
            }
            // An untyped value computed from parameters has their type.
            (None, BoundExpr::Binary { .. } | BoundExpr::Unary { .. })
            | (None, BoundExpr::Scalar { .. }) => {
                b.children().try_for_each(|c| self.accept(c, None, ok, op))
            }
            (None, _) => Ok(()),
        }
    }

    /// Check that two operands compare: numbers with numbers, any other
    /// type with itself; an untyped one is typed by the other.
    fn comparable(
        &mut self,
        l: (&BoundExpr, Ty),
        r: (&BoundExpr, Ty),
        op: &dyn Display,
    ) -> Result<()> {
        let with = |t: Ty| t.map_or(&[Int, Float, Text, Bool, Timestamp][..], family);
        self.accept(r.0, r.1, with(l.1), op)?;
        self.accept(l.0, l.1, with(r.1), op)
    }

    /// Type a scalar function call's arguments and decide its result.
    fn scalar(&mut self, func: ScalarFn, args: &mut [BoundExpr]) -> Result<Ty> {
        let types = args
            .iter_mut()
            .map(|a| self.type_of(a))
            .collect::<Result<Vec<_>>>()?;
        let (ok, ty): (&[_], _) = match func {
            ScalarFn::Abs => (&[Int, Float], types[0]),
            ScalarFn::Sqrt | ScalarFn::Power => (&[Int, Float], Some(Float)),
            ScalarFn::Floor | ScalarFn::Ceil => (&[Int, Float], Some(Int)),
            ScalarFn::Length => (&[Text], Some(Int)),
            ScalarFn::Lower | ScalarFn::Upper => (&[Text], Some(Text)),
            ScalarFn::Now => (&[], Some(Timestamp)),
            ScalarFn::Coalesce => return self.coalesce(args, &types),
        };
        let name = format!("{func:?}").to_uppercase();
        for (a, t) in args.iter().zip(types) {
            self.accept(a, t, ok, &name)?;
        }
        Ok(ty)
    }

    /// `COALESCE` yields its first typed argument's type, or one its other
    /// arguments' types coerce to. An argument of another type, or an
    /// untyped one, is cast to it, so no call yields two types.
    fn coalesce(&mut self, args: &mut [BoundExpr], types: &[Ty]) -> Result<Ty> {
        let mut ty: Ty = None;
        for &t in types.iter().flatten() {
            ty = Some(match ty {
                Some(u) if u.coercible_from().contains(&t) => u,
                Some(u) if !t.coercible_from().contains(&u) => {
                    let e = format!("COALESCE cannot take {u} and {t}");
                    return Err(Error::TypeMismatch(e));
                }
                _ => t,
            });
        }
        let Some(to) = ty else { return Ok(None) };
        for (a, &t) in args.iter_mut().zip(types) {
            if t != ty && *a != BoundExpr::Literal(Value::Null) {
                self.accept(a, t, to.coercible_from(), &"COALESCE")?;
                let expr = Box::new(std::mem::replace(a, BoundExpr::Param(0)));
                *a = BoundExpr::Cast { expr, ty: to };
            }
        }
        Ok(ty)
    }
}

/// Desugar `EXISTS (sub)` into `SELECT COUNT(*) FROM sub.from WHERE ...`.
/// Only uncorrelated, non-grouped subqueries are supported.
fn exists_to_count(sub: &Select) -> Result<Select> {
    if !sub.group_by.is_empty() || sub.having.is_some() {
        return Err(Error::Parse(
            "EXISTS subqueries with GROUP BY/HAVING are not supported".into(),
        ));
    }
    Ok(Select {
        distinct: false,
        items: vec![SelectItem::Expr {
            expr: Expr::Func {
                name: "count".into(),
                args: vec![Expr::Wildcard],
                distinct: false,
            },
            alias: None,
        }],
        from: sub.from.clone(),
        where_pred: sub.where_pred.clone(),
        group_by: vec![],
        having: None,
        order_by: vec![],
        limit: None,
    })
}
