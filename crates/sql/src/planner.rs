//! Name resolution and plan construction.

use crate::ast::{self, Expr, InsertSource, Select, SelectItem, Stmt};
use crate::expr::{BoundExpr, ScalarFn};
use crate::plan::{AccessPath, AggExpr, AggFunc, DdlOp, PhysicalPlan, PlannedStmt};
use sstore_common::{Column, Error, Result, Schema, TableId, Value};
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
struct Layout {
    cols: Vec<LayoutCol>,
}

impl Layout {
    fn from_table(db: &Database, table: TableId, binding: &str) -> Result<Layout> {
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

    fn concat(mut self, other: Layout) -> Layout {
        self.cols.extend(other.cols);
        self
    }

    fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
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

    fn visible_positions(&self) -> Vec<usize> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.visible)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Plan any statement against the current catalog.
pub fn plan_statement(stmt: &Stmt, db: &Database) -> Result<PlannedStmt> {
    match stmt {
        Stmt::Select(s) => {
            let mut subs = Vec::new();
            let (plan, columns) = plan_select(s, db, &mut subs)?;
            let arity = |t| db.table(t).map(|tb| tb.schema().arity()).unwrap_or(0);
            let vectorizable =
                crate::vexec::worthwhile(&plan) && crate::vexec::eligible(&plan, &arity);
            Ok(PlannedStmt::Query {
                plan,
                columns: columns.into(),
                subqueries: subs,
                vectorizable,
            })
        }
        Stmt::Insert(i) => plan_insert(i, db),
        Stmt::Update(u) => plan_update(u, db),
        Stmt::Delete(d) => plan_delete(d, db),
        Stmt::CreateTable(c) => {
            let mut cols = Vec::with_capacity(c.columns.len());
            for cd in &c.columns {
                let pk_col = c
                    .primary_key
                    .iter()
                    .any(|p| p.eq_ignore_ascii_case(&cd.name));
                let col = if cd.nullable && !pk_col {
                    Column::nullable(&cd.name, cd.ty)
                } else {
                    Column::new(&cd.name, cd.ty)
                };
                cols.push(col);
            }
            let pk_refs: Vec<&str> = c.primary_key.iter().map(String::as_str).collect();
            let schema = Schema::new(cols, &pk_refs)?;
            Ok(PlannedStmt::Ddl(DdlOp::CreateTable {
                name: c.name.clone(),
                schema,
            }))
        }
        Stmt::CreateStream(c) => {
            let schema = columns_to_schema(&c.columns)?;
            Ok(PlannedStmt::Ddl(DdlOp::CreateStream {
                name: c.name.clone(),
                schema,
            }))
        }
        Stmt::CreateWindow(c) => {
            let schema = columns_to_schema(&c.columns)?;
            Ok(PlannedStmt::Ddl(DdlOp::CreateWindow {
                name: c.name.clone(),
                schema,
                tuple_based: c.tuple_based,
                size: c.size,
                slide: c.slide,
            }))
        }
    }
}

fn columns_to_schema(defs: &[ast::ColumnDef]) -> Result<Schema> {
    let cols = defs
        .iter()
        .map(|cd| {
            if cd.nullable {
                Column::nullable(&cd.name, cd.ty)
            } else {
                Column::new(&cd.name, cd.ty)
            }
        })
        .collect();
    Schema::keyless(cols)
}

// ---------------------------------------------------------------------------
// Expression binding
// ---------------------------------------------------------------------------

struct Binder<'a, 'b> {
    layout: &'a Layout,
    db: &'a Database,
    subs: &'b mut Vec<PhysicalPlan>,
}

impl Binder<'_, '_> {
    fn bind(&mut self, e: &Expr) -> Result<BoundExpr> {
        Ok(match e {
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Param(i) => BoundExpr::Param(*i),
            Expr::Column { table, name } => {
                BoundExpr::ColumnRef(self.layout.resolve(table.as_deref(), name)?)
            }
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
                list: {
                    let mut out = Vec::with_capacity(list.len());
                    for e in list {
                        out.push(self.bind(e)?);
                    }
                    out
                },
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
                    args: {
                        let mut out = Vec::with_capacity(args.len());
                        for a in args {
                            out.push(self.bind(a)?);
                        }
                        out
                    },
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
                self.subs.push(plan);
                BoundExpr::SubqueryRef(self.subs.len() - 1)
            }
            Expr::Exists { select, negated } => {
                let counting = exists_to_count(select)?;
                let (plan, _) = plan_select(&counting, self.db, self.subs)?;
                self.subs.push(plan);
                let slot = BoundExpr::SubqueryRef(self.subs.len() - 1);
                BoundExpr::Binary {
                    op: if *negated {
                        crate::ast::BinOp::Eq
                    } else {
                        crate::ast::BinOp::Gt
                    },
                    left: Box::new(slot),
                    right: Box::new(BoundExpr::Literal(Value::Int(0))),
                }
            }
        })
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

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

fn plan_select(
    s: &Select,
    db: &Database,
    subs: &mut Vec<PhysicalPlan>,
) -> Result<(PhysicalPlan, Vec<String>)> {
    let (mut plan, layout) = plan_from(s, db, subs)?;

    // WHERE: try to fold simple equality conjuncts into an access path.
    if let Some(pred) = &s.where_pred {
        plan = apply_where(plan, &layout, pred, db, subs)?;
    }

    let aggregate_query = !s.group_by.is_empty()
        || s.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Star => false,
        })
        || s.having.as_ref().is_some_and(Expr::contains_aggregate)
        || s.order_by.iter().any(|k| k.expr.contains_aggregate());

    // Each path produces: the plan below the projection, the projection
    // expressions (select outputs first, appended sort keys after), the
    // output names, the real output arity, and the resolved sort keys.
    let (plan, proj_exprs, mut names, out_arity, sort_keys) = if aggregate_query {
        plan_aggregate_select(s, db, plan, &layout, subs)?
    } else {
        let mut binder = Binder {
            layout: &layout,
            db,
            subs,
        };
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for item in &s.items {
            match item {
                SelectItem::Star => {
                    for pos in layout.visible_positions() {
                        exprs.push(BoundExpr::ColumnRef(pos));
                        names.push(layout.cols[pos].name.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    exprs.push(binder.bind(expr)?);
                    names.push(output_name(expr, alias.as_deref(), names.len()));
                }
            }
        }
        if let Some(h) = &s.having {
            // HAVING without aggregates degenerates to a filter.
            let pred = binder.bind(h)?;
            plan = PhysicalPlan::Filter {
                input: Box::new(plan),
                pred,
            };
        }
        let out_arity = exprs.len();
        let mut sort_keys = Vec::new();
        for key in &s.order_by {
            match resolve_order_key(&key.expr, &names, out_arity)? {
                Some(pos) => sort_keys.push((pos, key.desc)),
                None => {
                    sort_keys.push((exprs.len(), key.desc));
                    exprs.push(binder.bind(&key.expr)?);
                }
            }
        }
        (plan, exprs, names, out_arity, sort_keys)
    };

    let proj_arity = proj_exprs.len();
    if s.distinct && proj_arity != out_arity {
        return Err(Error::Parse(
            "ORDER BY of a DISTINCT query must reference output columns".into(),
        ));
    }
    let mut plan = PhysicalPlan::Project {
        input: Box::new(plan),
        exprs: proj_exprs,
    };
    if s.distinct {
        plan = PhysicalPlan::Distinct {
            input: Box::new(plan),
        };
    }
    if !sort_keys.is_empty() {
        plan = PhysicalPlan::Sort {
            input: Box::new(plan),
            keys: sort_keys,
        };
    }
    if let Some(n) = s.limit {
        plan = PhysicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    // Shave off appended sort-key columns.
    if proj_arity != out_arity {
        plan = PhysicalPlan::Project {
            input: Box::new(plan),
            exprs: (0..out_arity).map(BoundExpr::ColumnRef).collect(),
        };
    }
    names.truncate(out_arity);
    Ok((plan, names))
}

/// Resolve an ORDER BY key that refers to an output column: by alias/name
/// (`ORDER BY c`) or by position (`ORDER BY 1`). Returns `None` when the key
/// is a general expression the caller must bind and append.
fn resolve_order_key(expr: &Expr, names: &[String], out_arity: usize) -> Result<Option<usize>> {
    if let Expr::Column { table: None, name } = expr {
        if let Some(pos) = names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
            return Ok(Some(pos));
        }
    }
    if let Expr::Literal(Value::Int(n)) = expr {
        let idx = *n - 1;
        if idx >= 0 && (idx as usize) < out_arity {
            return Ok(Some(idx as usize));
        }
        return Err(Error::Parse(format!("ORDER BY position {n} out of range")));
    }
    Ok(None)
}

/// Build the FROM tree and its layout.
fn plan_from(
    s: &Select,
    db: &Database,
    subs: &mut Vec<PhysicalPlan>,
) -> Result<(PhysicalPlan, Layout)> {
    match &s.from {
        None => Ok((
            PhysicalPlan::Values { rows: vec![vec![]] },
            Layout::default(),
        )),
        Some(f) => {
            let base_id = db.resolve(&f.base.name)?;
            let mut layout = Layout::from_table(db, base_id, f.base.binding())?;
            let mut plan = PhysicalPlan::Scan {
                table: base_id,
                path: AccessPath::Full,
                residual: None,
            };
            for (tref, on) in &f.joins {
                let tid = db.resolve(&tref.name)?;
                let right_layout = Layout::from_table(db, tid, tref.binding())?;
                layout = layout.concat(right_layout);
                let on_bound = Binder {
                    layout: &layout,
                    db,
                    subs,
                }
                .bind(on)?;
                plan = PhysicalPlan::NestedLoopJoin {
                    left: Box::new(plan),
                    right: Box::new(PhysicalPlan::Scan {
                        table: tid,
                        path: AccessPath::Full,
                        residual: None,
                    }),
                    on: on_bound,
                };
            }
            Ok((plan, layout))
        }
    }
}

/// Apply the WHERE clause, folding equality conjuncts into an index access
/// path when the plan is a bare single-table scan, and one-table conjuncts
/// into the scans below a join.
fn apply_where(
    plan: PhysicalPlan,
    layout: &Layout,
    pred: &Expr,
    db: &Database,
    subs: &mut Vec<PhysicalPlan>,
) -> Result<PhysicalPlan> {
    if let PhysicalPlan::Scan {
        table,
        path: AccessPath::Full,
        residual: None,
    } = &plan
    {
        let table = *table;
        let (path, residual) = choose_access_path(table, pred, layout, db, subs)?;
        return Ok(PhysicalPlan::Scan {
            table,
            path,
            residual,
        });
    }
    let mut binder = Binder { layout, db, subs };
    let bound = binder.bind(pred)?;
    Ok(push_below_joins(plan, bound, db))
}

/// Put `pred` on top of a join tree, moving the conjuncts that read one
/// base table into that table's scan residual, so both executors filter
/// before they join.
///
/// Moving a conjunct changes which rows it — and everything it no longer
/// shields — is evaluated on, so nothing moves unless it is unobservable:
/// the whole `WHERE`, and the `ON` of every join a conjunct sinks through,
/// must be unable to raise ([`cannot_raise`]). A `WHERE` with `10 / x > 1`
/// in it stays a `Filter` above the join, erroring (or not) as it always
/// did. The one error a moved conjunct can still raise is a missing
/// statement parameter, which now surfaces whenever that table has rows
/// rather than only when the join does.
fn push_below_joins(mut plan: PhysicalPlan, pred: BoundExpr, db: &Database) -> PhysicalPlan {
    let mut kept: Option<BoundExpr> = None;
    if matches!(plan, PhysicalPlan::NestedLoopJoin { .. }) && cannot_raise(&pred) {
        let arity = |t: TableId| db.table(t).map(|tb| tb.schema().arity()).unwrap_or(0);
        let mut conjuncts = Vec::new();
        split_and(pred, &mut conjuncts);
        for mut c in conjuncts {
            let mut refs = std::collections::BTreeSet::new();
            c.collect_refs(&mut refs);
            let scan = refs
                .first()
                .zip(refs.last())
                .and_then(|(&lo, &hi)| scan_of(&mut plan, lo, hi, 0, &arity));
            match scan {
                Some((residual, base)) => {
                    c.rebase_refs(base);
                    *residual = Some(and(residual.take(), c));
                }
                None => kept = Some(and(kept, c)),
            }
        }
    } else {
        kept = Some(pred);
    }
    match kept {
        None => plan,
        Some(pred) => PhysicalPlan::Filter {
            input: Box::new(plan),
            pred,
        },
    }
}

/// The residual of the one full scan under `plan` that produces every
/// column in `lo..=hi` (offsets into `plan`'s output row, which starts at
/// `base` of the whole row), with the offset of that scan's first column;
/// `None` when the columns span tables or a join on the way down could
/// raise.
fn scan_of<'p>(
    plan: &'p mut PhysicalPlan,
    lo: usize,
    hi: usize,
    base: usize,
    arity: &dyn Fn(TableId) -> usize,
) -> Option<(&'p mut Option<BoundExpr>, usize)> {
    match plan {
        PhysicalPlan::Scan {
            path: AccessPath::Full,
            residual,
            ..
        } => Some((residual, base)),
        PhysicalPlan::NestedLoopJoin { left, right, on } if cannot_raise(on) => {
            let mid = base + left.arity(arity);
            if hi < mid {
                scan_of(left, lo, hi, base, arity)
            } else if lo >= mid {
                scan_of(right, lo, hi, mid, arity)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// True for predicates whose evaluation cannot fail whatever the row
/// holds: comparisons and `IS [NOT] NULL` over bare columns, literals and
/// parameters (comparison is total, a NULL operand yields NULL), boolean
/// literals, and `AND`/`OR`/`NOT` of those (their operands are then always
/// boolean or NULL). Arithmetic, functions, `IN`, `BETWEEN`, subqueries
/// and bare column predicates are not on the list.
fn cannot_raise(e: &BoundExpr) -> bool {
    use ast::BinOp::*;
    let operand = |e: &BoundExpr| {
        matches!(
            e,
            BoundExpr::ColumnRef(_) | BoundExpr::Literal(_) | BoundExpr::Param(_)
        )
    };
    match e {
        BoundExpr::Literal(Value::Bool(_) | Value::Null) => true,
        BoundExpr::Binary {
            op: And | Or,
            left,
            right,
        } => cannot_raise(left) && cannot_raise(right),
        BoundExpr::Binary {
            op: Eq | Neq | Lt | Le | Gt | Ge,
            left,
            right,
        } => operand(left) && operand(right),
        BoundExpr::IsNull { expr, .. } => operand(expr),
        BoundExpr::Unary {
            op: ast::UnaryOp::Not,
            expr,
        } => cannot_raise(expr),
        _ => false,
    }
}

fn split_and(e: BoundExpr, out: &mut Vec<BoundExpr>) {
    match e {
        BoundExpr::Binary {
            op: ast::BinOp::And,
            left,
            right,
        } => {
            split_and(*left, out);
            split_and(*right, out);
        }
        other => out.push(other),
    }
}

fn and(left: Option<BoundExpr>, right: BoundExpr) -> BoundExpr {
    match left {
        None => right,
        Some(left) => BoundExpr::Binary {
            op: ast::BinOp::And,
            left: Box::new(left),
            right: Box::new(right),
        },
    }
}

/// Pick the cheapest access path for a single-table predicate: a PK or
/// secondary-index point lookup when equality conjuncts cover a key, else
/// a full scan. The full predicate is always kept as the residual —
/// re-checking key columns is cheap and keeps the path trivially sound.
fn choose_access_path(
    table: TableId,
    pred: &Expr,
    layout: &Layout,
    db: &Database,
    subs: &mut Vec<PhysicalPlan>,
) -> Result<(AccessPath, Option<BoundExpr>)> {
    let mut binder = Binder { layout, db, subs };
    let conjuncts = split_conjuncts(pred);
    // Gather col-position -> value-expression equalities whose value side
    // references no columns (so it can be evaluated up front).
    let mut eqs: Vec<(usize, &Expr)> = Vec::new();
    for c in &conjuncts {
        if let Expr::Binary {
            op: ast::BinOp::Eq,
            left,
            right,
        } = c
        {
            for (col_side, val_side) in [(left, right), (right, left)] {
                if let Expr::Column { table: t, name } = col_side.as_ref() {
                    if !references_columns(val_side) {
                        if let Ok(pos) = layout.resolve(t.as_deref(), name) {
                            eqs.push((pos, val_side));
                            break;
                        }
                    }
                }
            }
        }
    }
    let tb = db.table(table)?;
    // Try the primary key first, then each secondary index.
    let candidates: Vec<(Option<String>, Vec<usize>)> = {
        let mut v = Vec::new();
        if tb.schema().has_pk() {
            v.push((None, tb.schema().pk_indices().to_vec()));
        }
        for ix in tb.indexes() {
            v.push((Some(ix.def.name.clone()), ix.def.key_cols.to_vec()));
        }
        v
    };
    for (index_name, key_cols) in candidates {
        let keys: Option<Vec<&Expr>> = key_cols
            .iter()
            .map(|kc| eqs.iter().find(|(pos, _)| pos == kc).map(|(_, e)| *e))
            .collect();
        if let Some(keys) = keys {
            let bound_keys: Vec<BoundExpr> =
                keys.iter().map(|e| binder.bind(e)).collect::<Result<_>>()?;
            let path = match index_name {
                None => AccessPath::PkPoint(bound_keys),
                Some(n) => AccessPath::IndexPoint(n, bound_keys),
            };
            let residual = Some(binder.bind(pred)?);
            return Ok((path, residual));
        }
    }
    Ok((AccessPath::Full, Some(binder.bind(pred)?)))
}

fn split_conjuncts(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn go<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: ast::BinOp::And,
            left,
            right,
        } = e
        {
            go(left, out);
            go(right, out);
        } else {
            out.push(e);
        }
    }
    go(e, &mut out);
    out
}

fn references_columns(e: &Expr) -> bool {
    match e {
        Expr::Column { .. } => true,
        // Uncorrelated subqueries are evaluated before the statement, so
        // they act like constants for access-path purposes.
        Expr::Subquery(_) | Expr::Exists { .. } => false,
        Expr::Literal(_) | Expr::Param(_) | Expr::Wildcard => false,
        Expr::Unary { expr, .. } => references_columns(expr),
        Expr::Binary { left, right, .. } => references_columns(left) || references_columns(right),
        Expr::IsNull { expr, .. } => references_columns(expr),
        Expr::InList { expr, list, .. } => {
            references_columns(expr) || list.iter().any(references_columns)
        }
        Expr::Between { expr, lo, hi, .. } => {
            references_columns(expr) || references_columns(lo) || references_columns(hi)
        }
        Expr::Func { args, .. } => args.iter().any(references_columns),
    }
}

fn output_name(expr: &Expr, alias: Option<&str>, pos: usize) -> String {
    if let Some(a) = alias {
        return a.to_ascii_lowercase();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Func { name, .. } => name.clone(),
        _ => format!("col{pos}"),
    }
}

// ---------------------------------------------------------------------------
// Aggregate SELECT
// ---------------------------------------------------------------------------

/// Plans an aggregate SELECT. Returns `(plan below projection, projection
/// exprs [outputs then appended sort keys], output names, real output
/// arity, resolved sort keys)`.
/// `(plan below projection, projection exprs, output names, real output
/// arity, resolved sort keys)`.
type AggregatePlanParts = (
    PhysicalPlan,
    Vec<BoundExpr>,
    Vec<String>,
    usize,
    Vec<(usize, bool)>,
);

fn plan_aggregate_select(
    s: &Select,
    db: &Database,
    input: PhysicalPlan,
    layout: &Layout,
    subs: &mut Vec<PhysicalPlan>,
) -> Result<AggregatePlanParts> {
    // 2. Collect unique aggregate calls from every post-group expression.
    let mut agg_calls: Vec<(String, Option<Expr>, bool)> = Vec::new(); // (func, arg, distinct)
    for item in &s.items {
        match item {
            SelectItem::Star => {
                return Err(Error::Parse(
                    "`SELECT *` cannot be combined with GROUP BY/aggregates".into(),
                ))
            }
            SelectItem::Expr { expr, .. } => collect_aggs(expr, &mut agg_calls),
        }
    }
    if let Some(h) = &s.having {
        collect_aggs(h, &mut agg_calls);
    }
    for k in &s.order_by {
        collect_aggs(&k.expr, &mut agg_calls);
    }

    // 1+2. Bind group-by keys and aggregate arguments over the input row.
    let (group_bound, aggs) = {
        let mut binder = Binder { layout, db, subs };
        let mut group_bound = Vec::with_capacity(s.group_by.len());
        for e in &s.group_by {
            group_bound.push(binder.bind(e)?);
        }
        let mut aggs: Vec<AggExpr> = Vec::with_capacity(agg_calls.len());
        for (name, arg, distinct) in &agg_calls {
            let func = match (name.as_str(), arg) {
                ("count", None) => AggFunc::CountStar,
                ("count", Some(_)) => AggFunc::Count,
                ("sum", Some(_)) => AggFunc::Sum,
                ("avg", Some(_)) => AggFunc::Avg,
                ("min", Some(_)) => AggFunc::Min,
                ("max", Some(_)) => AggFunc::Max,
                (other, None) => {
                    return Err(Error::Parse(format!("{other}(*) is not valid")));
                }
                _ => unreachable!(),
            };
            if *distinct && arg.is_none() {
                return Err(Error::Parse("COUNT(DISTINCT *) is not valid".into()));
            }
            let arg_bound = match arg {
                Some(a) => Some(binder.bind(a)?),
                None => None,
            };
            aggs.push(AggExpr {
                func,
                arg: arg_bound,
                distinct: *distinct,
            });
        }
        (group_bound, aggs)
    };

    let n_groups = group_bound.len();
    let plan = PhysicalPlan::Aggregate {
        input: Box::new(input),
        group_exprs: group_bound,
        aggs,
    };

    // 3. Rewriter: post-aggregate expressions over [groups..., aggs...].
    let mut rewrite = |e: &Expr| -> Result<BoundExpr> {
        rewrite_post_agg(e, &s.group_by, &agg_calls, n_groups, db, subs)
    };

    let mut plan = plan;
    if let Some(h) = &s.having {
        let pred = rewrite(h)?;
        plan = PhysicalPlan::Filter {
            input: Box::new(plan),
            pred,
        };
    }

    let mut out_exprs = Vec::new();
    let mut names = Vec::new();
    for item in &s.items {
        if let SelectItem::Expr { expr, alias } = item {
            out_exprs.push(rewrite(expr)?);
            names.push(output_name(expr, alias.as_deref(), names.len()));
        }
    }

    // 4. Resolve ORDER BY keys: aliases/positions point into the outputs;
    //    anything else is rewritten post-aggregate and appended.
    let out_arity = out_exprs.len();
    let mut sort_keys = Vec::new();
    for k in &s.order_by {
        match resolve_order_key(&k.expr, &names, out_arity)? {
            Some(pos) => sort_keys.push((pos, k.desc)),
            None => {
                sort_keys.push((out_exprs.len(), k.desc));
                out_exprs.push(rewrite(&k.expr)?);
            }
        }
    }

    Ok((plan, out_exprs, names, out_arity, sort_keys))
}

fn collect_aggs(e: &Expr, out: &mut Vec<(String, Option<Expr>, bool)>) {
    match e {
        Expr::Func {
            name,
            args,
            distinct,
        } if ast::is_aggregate(name) => {
            let arg = match args.first() {
                Some(Expr::Wildcard) | None => None,
                Some(a) => Some(a.clone()),
            };
            let entry = (name.clone(), arg, *distinct);
            if !out.contains(&entry) {
                out.push(entry);
            }
        }
        Expr::Func { args, .. } => args.iter().for_each(|a| collect_aggs(a, out)),
        Expr::Unary { expr, .. } => collect_aggs(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            list.iter().for_each(|e| collect_aggs(e, out));
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_aggs(expr, out);
            collect_aggs(lo, out);
            collect_aggs(hi, out);
        }
        _ => {}
    }
}

fn rewrite_post_agg(
    e: &Expr,
    group_by: &[Expr],
    agg_calls: &[(String, Option<Expr>, bool)],
    n_groups: usize,
    db: &Database,
    subs: &mut Vec<PhysicalPlan>,
) -> Result<BoundExpr> {
    // Whole-expression matches a group-by key?
    if let Some(pos) = group_by.iter().position(|g| g == e) {
        return Ok(BoundExpr::ColumnRef(pos));
    }
    // An aggregate call?
    if let Expr::Func {
        name,
        args,
        distinct,
    } = e
    {
        if ast::is_aggregate(name) {
            let arg = match args.first() {
                Some(Expr::Wildcard) | None => None,
                Some(a) => Some(a.clone()),
            };
            let key = (name.clone(), arg, *distinct);
            let slot = agg_calls
                .iter()
                .position(|c| *c == key)
                .ok_or_else(|| Error::Internal("aggregate not collected".into()))?;
            return Ok(BoundExpr::ColumnRef(n_groups + slot));
        }
    }
    // Otherwise recurse; bare columns that aren't group keys are invalid.
    Ok(match e {
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Param(i) => BoundExpr::Param(*i),
        Expr::Column { name, .. } => {
            return Err(Error::Parse(format!(
                "column `{name}` must appear in GROUP BY or inside an aggregate"
            )))
        }
        Expr::Unary { op, expr } => BoundExpr::Unary {
            op: *op,
            expr: Box::new(rewrite_post_agg(
                expr, group_by, agg_calls, n_groups, db, subs,
            )?),
        },
        Expr::Binary { op, left, right } => BoundExpr::Binary {
            op: *op,
            left: Box::new(rewrite_post_agg(
                left, group_by, agg_calls, n_groups, db, subs,
            )?),
            right: Box::new(rewrite_post_agg(
                right, group_by, agg_calls, n_groups, db, subs,
            )?),
        },
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(rewrite_post_agg(
                expr, group_by, agg_calls, n_groups, db, subs,
            )?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(rewrite_post_agg(
                expr, group_by, agg_calls, n_groups, db, subs,
            )?),
            list: list
                .iter()
                .map(|e| rewrite_post_agg(e, group_by, agg_calls, n_groups, db, subs))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => BoundExpr::Between {
            expr: Box::new(rewrite_post_agg(
                expr, group_by, agg_calls, n_groups, db, subs,
            )?),
            lo: Box::new(rewrite_post_agg(
                lo, group_by, agg_calls, n_groups, db, subs,
            )?),
            hi: Box::new(rewrite_post_agg(
                hi, group_by, agg_calls, n_groups, db, subs,
            )?),
            negated: *negated,
        },
        Expr::Func { name, args, .. } => {
            let func = ScalarFn::by_name(name)
                .ok_or_else(|| Error::NotFound(format!("function `{name}`")))?;
            BoundExpr::Scalar {
                func,
                args: args
                    .iter()
                    .map(|a| rewrite_post_agg(a, group_by, agg_calls, n_groups, db, subs))
                    .collect::<Result<_>>()?,
            }
        }
        Expr::Exists { select, negated } => {
            let counting = exists_to_count(select)?;
            let (plan, _) = plan_select(&counting, db, subs)?;
            subs.push(plan);
            let slot = BoundExpr::SubqueryRef(subs.len() - 1);
            BoundExpr::Binary {
                op: if *negated {
                    crate::ast::BinOp::Eq
                } else {
                    crate::ast::BinOp::Gt
                },
                left: Box::new(slot),
                right: Box::new(BoundExpr::Literal(Value::Int(0))),
            }
        }
        Expr::Wildcard => return Err(Error::Parse("stray `*`".into())),
        Expr::Subquery(sel) => {
            let (plan, cols) = plan_select(sel, db, subs)?;
            if cols.len() != 1 {
                return Err(Error::Parse(format!(
                    "scalar subquery must return one column, got {}",
                    cols.len()
                )));
            }
            subs.push(plan);
            BoundExpr::SubqueryRef(subs.len() - 1)
        }
    })
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

fn plan_insert(i: &ast::Insert, db: &Database) -> Result<PlannedStmt> {
    let table = db.resolve(&i.table)?;
    let meta = db
        .catalog()
        .meta(table)
        .ok_or_else(|| Error::NotFound(format!("table `{}`", i.table)))?;
    let visible = &meta.visible_schema;

    // Which visible columns does the source provide, in source order?
    let provided: Vec<usize> = if i.columns.is_empty() {
        (0..visible.arity()).collect()
    } else {
        i.columns
            .iter()
            .map(|c| {
                visible
                    .column_index(c)
                    .ok_or_else(|| Error::NotFound(format!("column `{c}` in `{}`", i.table)))
            })
            .collect::<Result<_>>()?
    };
    {
        let mut seen = provided.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != provided.len() {
            return Err(Error::Parse("duplicate column in INSERT list".into()));
        }
    }

    let mut subs = Vec::new();
    let source = match &i.source {
        InsertSource::Values(rows) => {
            let empty = Layout::default();
            let mut binder = Binder {
                layout: &empty,
                db,
                subs: &mut subs,
            };
            let mut bound_rows = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != provided.len() {
                    return Err(Error::Parse(format!(
                        "INSERT row has {} values but {} columns",
                        row.len(),
                        provided.len()
                    )));
                }
                let mut bound = Vec::with_capacity(row.len());
                for e in row {
                    bound.push(binder.bind(e)?);
                }
                bound_rows.push(bound);
            }
            PhysicalPlan::Values { rows: bound_rows }
        }
        InsertSource::Select(sel) => {
            let (plan, cols) = plan_select(sel, db, &mut subs)?;
            if cols.len() != provided.len() {
                return Err(Error::Parse(format!(
                    "INSERT SELECT produces {} columns but {} expected",
                    cols.len(),
                    provided.len()
                )));
            }
            plan
        }
    };

    // mapping[visible_pos] = source offset
    let mapping: Vec<Option<usize>> = (0..visible.arity())
        .map(|vp| provided.iter().position(|&p| p == vp))
        .collect();

    Ok(PlannedStmt::Insert {
        table,
        source,
        mapping,
        subqueries: subs,
    })
}

fn plan_update(u: &ast::Update, db: &Database) -> Result<PlannedStmt> {
    let table = db.resolve(&u.table)?;
    let layout = Layout::from_table(db, table, &u.table)?;
    let mut subs = Vec::new();
    let mut binder = Binder {
        layout: &layout,
        db,
        subs: &mut subs,
    };
    let meta = db
        .catalog()
        .meta(table)
        .ok_or_else(|| Error::NotFound(format!("table `{}`", u.table)))?;
    let visible_arity = meta.visible_schema.arity();

    let mut sets = Vec::with_capacity(u.sets.len());
    for (col, e) in &u.sets {
        let pos = layout.resolve(None, col)?;
        if pos >= visible_arity {
            return Err(Error::Scope(format!("cannot update hidden column `{col}`")));
        }
        sets.push((pos, binder.bind(e)?));
    }
    let _ = binder;
    let (path, pred) = match &u.where_pred {
        Some(p) => choose_access_path(table, p, &layout, db, &mut subs)?,
        None => (AccessPath::Full, None),
    };
    Ok(PlannedStmt::Update {
        table,
        path,
        pred,
        sets,
        subqueries: subs,
    })
}

fn plan_delete(d: &ast::Delete, db: &Database) -> Result<PlannedStmt> {
    let table = db.resolve(&d.table)?;
    let layout = Layout::from_table(db, table, &d.table)?;
    let mut subs = Vec::new();
    let (path, pred) = match &d.where_pred {
        Some(p) => choose_access_path(table, p, &layout, db, &mut subs)?,
        None => (AccessPath::Full, None),
    };
    Ok(PlannedStmt::Delete {
        table,
        path,
        pred,
        subqueries: subs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use sstore_common::DataType;

    fn test_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column::nullable("score", DataType::Float),
            ],
            &["id"],
        )
        .unwrap();
        db.create_table("t", schema).unwrap();
        let s2 = Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap();
        db.create_stream("s", s2).unwrap();
        db
    }

    fn plan(sql: &str) -> PlannedStmt {
        let db = test_db();
        plan_statement(&parse(sql).unwrap(), &db).unwrap()
    }

    fn plan_err(sql: &str) -> Error {
        let db = test_db();
        plan_statement(&parse(sql).unwrap(), &db).unwrap_err()
    }

    #[test]
    fn select_star_hides_hidden_columns() {
        match plan("SELECT * FROM s") {
            PlannedStmt::Query { plan, columns, .. } => {
                assert_eq!(&*columns, ["v"]);
                match plan {
                    PhysicalPlan::Project { exprs, .. } => assert_eq!(exprs.len(), 1),
                    other => panic!("{other:?}"),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn hidden_columns_resolvable_by_name() {
        match plan("SELECT __seq FROM s") {
            PlannedStmt::Query { columns, .. } => assert_eq!(&*columns, ["__seq"]),
            _ => panic!(),
        }
    }

    #[test]
    fn pk_point_lookup_detected() {
        match plan("SELECT name FROM t WHERE id = ?") {
            PlannedStmt::Query { plan, .. } => {
                let mut found = false;
                fn walk(p: &PhysicalPlan, found: &mut bool) {
                    match p {
                        PhysicalPlan::Scan {
                            path: AccessPath::PkPoint(_),
                            ..
                        } => *found = true,
                        PhysicalPlan::Project { input, .. }
                        | PhysicalPlan::Filter { input, .. }
                        | PhysicalPlan::Sort { input, .. }
                        | PhysicalPlan::Limit { input, .. } => walk(input, found),
                        _ => {}
                    }
                }
                walk(&plan, &mut found);
                assert!(found, "expected PK point lookup in {plan:?}");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn non_key_predicate_scans_with_residual() {
        match plan("SELECT id FROM t WHERE score > 1.5") {
            PlannedStmt::Query { plan, .. } => {
                let s = format!("{plan:?}");
                assert!(s.contains("Full"), "{s}");
                assert!(s.contains("residual: Some"), "{s}");
                assert!(!s.contains("PkPoint"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn dml_uses_index_access_paths() {
        match plan("UPDATE t SET score = 0.0 WHERE id = 7") {
            PlannedStmt::Update { path, .. } => {
                assert!(matches!(path, AccessPath::PkPoint(_)), "{path:?}");
            }
            _ => panic!(),
        }
        match plan("DELETE FROM t WHERE id = ?") {
            PlannedStmt::Delete { path, .. } => {
                assert!(matches!(path, AccessPath::PkPoint(_)), "{path:?}");
            }
            _ => panic!(),
        }
        // Non-key predicates fall back to full scans.
        match plan("DELETE FROM t WHERE score IS NULL") {
            PlannedStmt::Delete { path, .. } => {
                assert!(matches!(path, AccessPath::Full), "{path:?}");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn unknown_column_rejected() {
        assert_eq!(plan_err("SELECT missing FROM t").kind(), "not_found");
        assert_eq!(plan_err("SELECT id FROM missing").kind(), "not_found");
    }

    #[test]
    fn aggregate_plan_shape() {
        match plan("SELECT name, COUNT(*) AS c FROM t GROUP BY name HAVING COUNT(*) > 1 ORDER BY c DESC LIMIT 3")
        {
            PlannedStmt::Query { plan, columns, .. } => {
                assert_eq!(&*columns, ["name", "c"]);
                let s = format!("{plan:?}");
                assert!(s.contains("Aggregate"));
                assert!(s.contains("Sort"));
                assert!(s.contains("Limit"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let e = plan_err("SELECT score, COUNT(*) FROM t GROUP BY name");
        assert_eq!(e.kind(), "parse");
    }

    #[test]
    fn insert_mapping_default_and_explicit() {
        match plan("INSERT INTO t VALUES (1, 'x', 2.0)") {
            PlannedStmt::Insert { mapping, .. } => {
                assert_eq!(mapping, vec![Some(0), Some(1), Some(2)]);
            }
            _ => panic!(),
        }
        match plan("INSERT INTO t (name, id) VALUES ('x', 1)") {
            PlannedStmt::Insert { mapping, .. } => {
                assert_eq!(mapping, vec![Some(1), Some(0), None]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn insert_arity_mismatch_rejected() {
        assert_eq!(plan_err("INSERT INTO t (id) VALUES (1, 2)").kind(), "parse");
        assert_eq!(
            plan_err("INSERT INTO t (id, id) VALUES (1, 2)").kind(),
            "parse"
        );
    }

    #[test]
    fn update_hidden_column_rejected() {
        let e = plan_err("UPDATE s SET __seq = 0");
        assert_eq!(e.kind(), "scope");
    }

    #[test]
    fn update_and_delete_plans() {
        match plan("UPDATE t SET score = score + 1 WHERE id = 3") {
            PlannedStmt::Update { sets, pred, .. } => {
                assert_eq!(sets.len(), 1);
                assert_eq!(sets[0].0, 2);
                assert!(pred.is_some());
            }
            _ => panic!(),
        }
        match plan("DELETE FROM t") {
            PlannedStmt::Delete { pred, .. } => assert!(pred.is_none()),
            _ => panic!(),
        }
    }

    #[test]
    fn ddl_plans() {
        match plan("CREATE TABLE x (id INT, PRIMARY KEY (id))") {
            PlannedStmt::Ddl(DdlOp::CreateTable { name, schema }) => {
                assert_eq!(name, "x");
                assert!(schema.has_pk());
                // pk column forced non-nullable
                assert!(!schema.columns()[0].nullable);
            }
            _ => panic!(),
        }
        match plan("CREATE WINDOW w (v INT) ROWS 10 SLIDE 2") {
            PlannedStmt::Ddl(DdlOp::CreateWindow {
                tuple_based, size, ..
            }) => {
                assert!(tuple_based);
                assert_eq!(size, 10);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn join_layout_resolution() {
        let db = {
            let mut db = test_db();
            let s = Schema::new(
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("t_id", DataType::Int),
                ],
                &["id"],
            )
            .unwrap();
            db.create_table("u", s).unwrap();
            db
        };
        let stmt = parse("SELECT t.name, u.id FROM t JOIN u ON t.id = u.t_id").unwrap();
        let planned = plan_statement(&stmt, &db).unwrap();
        match planned {
            PlannedStmt::Query { columns, .. } => assert_eq!(&*columns, ["name", "id"]),
            _ => panic!(),
        }
        // ambiguous bare column
        let stmt = parse("SELECT id FROM t JOIN u ON t.id = u.t_id").unwrap();
        let err = plan_statement(&stmt, &db).unwrap_err();
        assert_eq!(err.kind(), "parse");
    }

    /// `t(id, name, score)` joined with `u(id, t_id)`: the join below the
    /// projection, and the filter above it if one was left.
    fn join_parts(sql: &str) -> (PhysicalPlan, PhysicalPlan, Option<BoundExpr>) {
        let mut db = test_db();
        let s = Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::nullable("t_id", DataType::Int),
            ],
            &["id"],
        )
        .unwrap();
        db.create_table("u", s).unwrap();
        let PlannedStmt::Query { plan, .. } = plan_statement(&parse(sql).unwrap(), &db).unwrap()
        else {
            panic!("not a query")
        };
        let PhysicalPlan::Project { input, .. } = plan else {
            panic!("no projection on top")
        };
        let (join, filter) = match *input {
            PhysicalPlan::Filter { input, pred } => (*input, Some(pred)),
            other => (other, None),
        };
        let PhysicalPlan::NestedLoopJoin { left, right, .. } = join else {
            panic!("no join under the projection")
        };
        (*left, *right, filter)
    }

    fn residual_of(scan: &PhysicalPlan) -> Option<&BoundExpr> {
        match scan {
            PhysicalPlan::Scan { residual, .. } => residual.as_ref(),
            other => panic!("not a scan: {other:?}"),
        }
    }

    fn cmp(op: ast::BinOp, col: usize, lit: Value) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(BoundExpr::ColumnRef(col)),
            right: Box::new(BoundExpr::Literal(lit)),
        }
    }

    #[test]
    fn one_sided_where_conjuncts_land_in_their_scan() {
        let (left, right, filter) = join_parts(
            "SELECT t.name FROM t JOIN u ON t.id = u.t_id \
             WHERE u.id > 7 AND t.score IS NULL AND t.id < u.id",
        );
        // `u.id` is column 3 of the joined row and column 0 of `u`.
        assert_eq!(
            residual_of(&right),
            Some(&cmp(ast::BinOp::Gt, 0, Value::Int(7)))
        );
        assert_eq!(
            residual_of(&left),
            Some(&BoundExpr::IsNull {
                expr: Box::new(BoundExpr::ColumnRef(2)),
                negated: false,
            })
        );
        // The two-sided conjunct stays, still addressed to the joined row.
        assert_eq!(
            filter,
            Some(BoundExpr::Binary {
                op: ast::BinOp::Lt,
                left: Box::new(BoundExpr::ColumnRef(0)),
                right: Box::new(BoundExpr::ColumnRef(3)),
            })
        );
    }

    #[test]
    fn a_where_that_can_raise_moves_nothing() {
        let (left, right, filter) = join_parts(
            "SELECT t.name FROM t JOIN u ON t.id = u.t_id WHERE u.id > 7 AND 10 / u.t_id > 1",
        );
        assert!(residual_of(&left).is_none() && residual_of(&right).is_none());
        assert!(filter.is_some());
        // Neither does anything sink through an `ON` that can raise.
        let (left, right, filter) =
            join_parts("SELECT t.name FROM t JOIN u ON t.id = 10 / u.t_id WHERE u.id > 7");
        assert!(residual_of(&left).is_none() && residual_of(&right).is_none());
        assert!(filter.is_some());
    }

    #[test]
    fn order_by_position_and_alias() {
        assert!(matches!(
            plan("SELECT id AS a FROM t ORDER BY a"),
            PlannedStmt::Query { .. }
        ));
        assert!(matches!(
            plan("SELECT id FROM t ORDER BY 1 DESC"),
            PlannedStmt::Query { .. }
        ));
        assert_eq!(plan_err("SELECT id FROM t ORDER BY 5").kind(), "parse");
    }
}
