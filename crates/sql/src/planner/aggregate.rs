//! Aggregate queries: the aggregate calls a grouped SELECT computes, and
//! the `Aggregate` operator computing them under its GROUP BY keys.

use super::bind::{Binder, Ty};
use crate::ast::{self, Expr, Select, SelectItem};
use crate::plan::{AggExpr, AggFunc, PhysicalPlan};
use sstore_common::{DataType, Error, Result};

/// One aggregate call as the query writes it. `COUNT(*)` and `COUNT()`
/// are the same call (`arg` is `None`); [`calls`] refuses a call with more
/// than one argument.
#[derive(Debug, PartialEq)]
pub(super) struct AggCall<'a> {
    name: &'a str,
    arg: Option<&'a Expr>,
    distinct: bool,
}

impl<'a> AggCall<'a> {
    /// The call `e` is, when `e` is an aggregate call.
    pub(super) fn of(e: &'a Expr) -> Option<AggCall<'a>> {
        match e {
            Expr::Func {
                name,
                args,
                distinct,
            } if ast::is_aggregate(name) => Some(AggCall {
                name,
                arg: args.first().filter(|a| !matches!(a, Expr::Wildcard)),
                distinct: *distinct,
            }),
            _ => None,
        }
    }
}

/// The distinct aggregate calls of `s`'s outputs, HAVING and ORDER BY, in
/// order of first appearance; `None` when `s` groups nothing and calls no
/// aggregate.
pub(super) fn calls(s: &Select) -> Result<Option<Vec<AggCall<'_>>>> {
    let post_group = || {
        s.items
            .iter()
            .filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                SelectItem::Star => None,
            })
            .chain(&s.having)
            .chain(s.order_by.iter().map(|k| &k.expr))
    };
    if s.group_by.is_empty() && !post_group().any(Expr::contains_aggregate) {
        return Ok(None);
    }
    if s.items.contains(&SelectItem::Star) {
        return Err(Error::Parse(
            "`SELECT *` cannot be combined with GROUP BY/aggregates".into(),
        ));
    }
    let mut calls = Vec::new();
    post_group().try_for_each(|e| collect(e, &mut calls))?;
    Ok(Some(calls))
}

fn collect<'a>(e: &'a Expr, out: &mut Vec<AggCall<'a>>) -> Result<()> {
    match (AggCall::of(e), e) {
        (Some(_), Expr::Func { name, args, .. }) if args.len() > 1 => Err(Error::Parse(format!(
            "function `{name}` expects 1 argument(s)"
        ))),
        (Some(call), _) => {
            if !out.contains(&call) {
                out.push(call);
            }
            Ok(())
        }
        (None, _) => e.children().try_for_each(|c| collect(c, out)),
    }
}

/// Put the `Aggregate` computing `keys` and `calls` over `input`, whose
/// row `binder` binds the keys and the calls' arguments over, with the
/// types of its output row: COUNT is INT, AVG FLOAT, and SUM, MIN and MAX
/// their argument's type.
pub(super) fn plan_aggregate(
    input: PhysicalPlan,
    keys: &[Expr],
    calls: &[AggCall<'_>],
    binder: &mut Binder<'_>,
) -> Result<(PhysicalPlan, Vec<Ty>)> {
    let keys = keys.iter().map(|k| binder.typed(k));
    let (group_exprs, mut types): (Vec<_>, Vec<_>) =
        keys.collect::<Result<Vec<_>>>()?.into_iter().unzip();
    let mut aggs = Vec::with_capacity(calls.len());
    for call in calls {
        let func = match (call.name, call.arg) {
            ("count", None) => AggFunc::CountStar,
            ("count", Some(_)) => AggFunc::Count,
            ("sum", Some(_)) => AggFunc::Sum,
            ("avg", Some(_)) => AggFunc::Avg,
            ("min", Some(_)) => AggFunc::Min,
            ("max", Some(_)) => AggFunc::Max,
            (other, None) => return Err(Error::Parse(format!("{other}(*) is not valid"))),
            _ => unreachable!("`is_aggregate` names five functions"),
        };
        if call.distinct && call.arg.is_none() {
            return Err(Error::Parse("COUNT(DISTINCT *) is not valid".into()));
        }
        let arg = call.arg.map(|a| binder.typed(a)).transpose()?;
        if let (AggFunc::Sum | AggFunc::Avg, Some((bound, ty))) = (func, &arg) {
            let name = call.name.to_uppercase();
            binder.accept(bound, *ty, &[DataType::Int, DataType::Float], &name)?;
        }
        types.push(match func {
            AggFunc::CountStar | AggFunc::Count => Some(DataType::Int),
            AggFunc::Avg => Some(DataType::Float),
            _ => arg.as_ref().and_then(|a| a.1),
        });
        aggs.push(AggExpr {
            func,
            arg: arg.map(|a| a.0),
            distinct: call.distinct,
        });
    }
    let plan = PhysicalPlan::Aggregate {
        input: Box::new(input),
        group_exprs,
        aggs,
    };
    Ok((plan, types))
}
