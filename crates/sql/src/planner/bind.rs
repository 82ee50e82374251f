//! Name resolution: one [`Binder`] turns every AST expression into a
//! [`BoundExpr`] over the row of the [`Scope`] it is evaluated in.

use super::aggregate::AggCall;
use super::select::plan_select;
use crate::ast::{self, BinOp, Expr, Select, SelectItem};
use crate::expr::{BoundExpr, ScalarFn};
use crate::plan::PhysicalPlan;
use sstore_common::{Error, Result, TableId, Value};
use sstore_storage::Database;

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

    /// The position and name of each column `*` expands to.
    pub(super) fn visible_columns(&self) -> impl Iterator<Item = (usize, &str)> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.visible)
            .map(|(i, c)| (i, c.name.as_str()))
    }
}

/// The row a bound expression reads.
#[derive(Clone, Copy)]
pub(super) enum Scope<'a> {
    /// The row of a FROM clause or a DML target: columns resolve by name,
    /// and aggregate calls are refused.
    Row(&'a Layout),
    /// An `Aggregate`'s output row, the GROUP BY keys then the aggregate
    /// calls: a sub-expression written as one of them reads its column,
    /// and any other column reference is refused.
    Grouped {
        keys: &'a [Expr],
        calls: &'a [AggCall<'a>],
    },
}

/// Binds expressions over one [`Scope`], planning the uncorrelated
/// subqueries it meets into the statement's slots.
pub(super) struct Binder<'a> {
    pub(super) scope: Scope<'a>,
    db: &'a Database,
    subs: &'a mut Vec<PhysicalPlan>,
}

impl<'a> Binder<'a> {
    /// A binder over the row `layout` describes.
    pub(super) fn over(
        layout: &'a Layout,
        db: &'a Database,
        subs: &'a mut Vec<PhysicalPlan>,
    ) -> Self {
        Binder {
            scope: Scope::Row(layout),
            db,
            subs,
        }
    }

    pub(super) fn bind(&mut self, e: &Expr) -> Result<BoundExpr> {
        if let Scope::Grouped { keys, calls } = self.scope {
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
            Expr::Param(i) => BoundExpr::Param(*i),
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
                expr: Box::new(self.bind(expr)?),
            },
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(self.bind(left)?),
                right: Box::new(self.bind(right)?),
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.bind(expr)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(self.bind(expr)?),
                list: self.bind_all(list)?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(self.bind(expr)?),
                lo: Box::new(self.bind(lo)?),
                hi: Box::new(self.bind(hi)?),
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
                    args: self.bind_all(args)?,
                }
            }
            Expr::Wildcard => return Err(Error::Parse("`*` only allowed inside COUNT(*)".into())),
            Expr::Subquery(sel) => {
                let (plan, cols) = plan_select(sel, self.db, self.subs)?;
                if cols.len() != 1 {
                    return Err(Error::Parse(format!(
                        "scalar subquery must return one column, got {}",
                        cols.len()
                    )));
                }
                self.subquery_slot(plan)
            }
            Expr::Exists { select, negated } => {
                let (plan, _) = plan_select(&exists_to_count(select)?, self.db, self.subs)?;
                BoundExpr::Binary {
                    op: if *negated { BinOp::Eq } else { BinOp::Gt },
                    left: Box::new(self.subquery_slot(plan)),
                    right: Box::new(BoundExpr::Literal(Value::Int(0))),
                }
            }
        })
    }

    fn bind_all(&mut self, es: &[Expr]) -> Result<Vec<BoundExpr>> {
        es.iter().map(|e| self.bind(e)).collect()
    }

    fn subquery_slot(&mut self, plan: PhysicalPlan) -> BoundExpr {
        self.subs.push(plan);
        BoundExpr::SubqueryRef(self.subs.len() - 1)
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
