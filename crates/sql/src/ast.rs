//! Abstract syntax tree for the S-Store SQL subset.

use sstore_common::{DataType, Value};

/// Any parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `SELECT ...`
    Select(Select),
    /// `INSERT INTO ...`
    Insert(Insert),
    /// `UPDATE ...`
    Update(Update),
    /// `DELETE FROM ...`
    Delete(Delete),
    /// `CREATE TABLE ...`
    CreateTable(CreateTable),
    /// `CREATE STREAM ...`
    CreateStream(CreateStream),
    /// `CREATE WINDOW ...`
    CreateWindow(CreateWindow),
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT` — deduplicate output rows.
    pub distinct: bool,
    /// Projection list.
    pub(crate) items: Vec<SelectItem>,
    /// `FROM` clause; `None` for table-less selects (`SELECT 1+1`).
    pub(crate) from: Option<FromClause>,
    /// `WHERE` predicate.
    pub(crate) where_pred: Option<Expr>,
    /// `GROUP BY` expressions.
    pub(crate) group_by: Vec<Expr>,
    /// `HAVING` predicate (requires `GROUP BY` or aggregates).
    pub(crate) having: Option<Expr>,
    /// `ORDER BY` keys with descending flags.
    pub(crate) order_by: Vec<OrderKey>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SelectItem {
    /// `*` — expands to the visible columns of the FROM tables.
    Star,
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output name.
        alias: Option<String>,
    },
}

/// `FROM base [JOIN t ON pred]*` — inner equi-joins only.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FromClause {
    /// First table.
    pub(crate) base: TableRef,
    /// Joined tables with their `ON` predicates.
    pub(crate) joins: Vec<(TableRef, Expr)>,
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableRef {
    /// Table/stream/window name.
    pub name: String,
    /// `AS` alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this reference binds in scope (alias if present).
    pub(crate) fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// True for `DESC`.
    pub desc: bool,
}

/// `INSERT INTO table [(cols)] VALUES (...),(...)` or `INSERT INTO t SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Explicit column list (empty = all visible columns in order).
    pub columns: Vec<String>,
    /// The rows.
    pub(crate) source: InsertSource,
}

/// Where inserted rows come from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum InsertSource {
    /// Literal row expressions.
    Values(Vec<Vec<Expr>>),
    /// A subquery.
    Select(Box<Select>),
}

/// `UPDATE table SET col = expr, ... [WHERE pred]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// Assignments.
    pub(crate) sets: Vec<(String, Expr)>,
    /// Row filter.
    pub(crate) where_pred: Option<Expr>,
}

/// `DELETE FROM table [WHERE pred]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// Row filter.
    pub(crate) where_pred: Option<Expr>,
}

/// One column in a `CREATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: DataType,
    /// True unless `NOT NULL` was given. (Primary-key columns are always
    /// non-nullable regardless.)
    pub nullable: bool,
}

/// `CREATE TABLE name (cols..., [PRIMARY KEY (cols)])`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name.
    pub name: String,
    /// Columns.
    pub(crate) columns: Vec<ColumnDef>,
    /// Primary-key column names.
    pub primary_key: Vec<String>,
}

/// `CREATE STREAM name (cols...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateStream {
    /// Stream name.
    pub name: String,
    /// Columns.
    pub(crate) columns: Vec<ColumnDef>,
}

/// `CREATE WINDOW name (cols...) ROWS n SLIDE m` or `... RANGE n SLIDE m`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateWindow {
    /// Window name.
    pub name: String,
    /// Columns.
    pub(crate) columns: Vec<ColumnDef>,
    /// True for `ROWS` (tuple-based), false for `RANGE` (time-based, µs).
    pub tuple_based: bool,
    /// Window size (tuples or µs).
    pub size: i64,
    /// Slide (tuples or µs).
    pub slide: i64,
}

/// Binary operators, in one enum; precedence lives in the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
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
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Boolean NOT.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    /// Literal value.
    Literal(Value),
    /// Positional parameter (`?`), numbered left to right from 0.
    Param(usize),
    /// Column reference, optionally qualified (`t.c`).
    Column {
        /// Qualifier (table name or alias).
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// Test expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between {
        /// Test expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// Function call — scalar (`ABS`, `SQRT`, ...) or aggregate
    /// (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`). `COUNT(*)` uses `Wildcard`
    /// as its only argument.
    Func {
        /// Function name, lower-cased.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `DISTINCT` argument modifier (aggregates only).
        distinct: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)` — uncorrelated only; desugared by the
    /// planner into a scalar COUNT subquery comparison.
    Exists {
        /// The subquery.
        select: Box<Select>,
        /// True for `NOT EXISTS`.
        negated: bool,
    },
    /// The `*` inside `COUNT(*)`.
    Wildcard,
    /// Uncorrelated scalar subquery `(SELECT ...)`: must produce one
    /// column; zero rows evaluate to NULL, more than one row is an error.
    Subquery(Box<Select>),
}

impl Expr {
    /// The sub-expressions this node evaluates in the same query, in
    /// source order; a subquery's expressions are its own.
    pub(crate) fn children(&self) -> impl Iterator<Item = &Expr> {
        let (fixed, list): ([Option<&Expr>; 3], &[Expr]) = match self {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => ([Some(expr), None, None], &[]),
            Expr::Binary { left, right, .. } => ([Some(left), Some(right), None], &[]),
            Expr::InList { expr, list, .. } => ([Some(expr), None, None], list),
            Expr::Between { expr, lo, hi, .. } => ([Some(expr), Some(lo), Some(hi)], &[]),
            Expr::Func { args, .. } => ([None, None, None], args),
            Expr::Literal(_)
            | Expr::Param(_)
            | Expr::Column { .. }
            | Expr::Exists { .. }
            | Expr::Wildcard
            | Expr::Subquery(_) => ([None, None, None], &[]),
        };
        fixed.into_iter().flatten().chain(list)
    }

    /// True if this expression (recursively) contains an aggregate call.
    /// A subquery's aggregates, `EXISTS` included, are its own.
    pub(crate) fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Func { name, .. } if is_aggregate(name) => true,
            e => e.children().any(Expr::contains_aggregate),
        }
    }
}

/// True for the five supported aggregate function names (lower-case).
pub(crate) fn is_aggregate(name: &str) -> bool {
    matches!(name, "count" | "sum" | "avg" | "min" | "max")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bare column reference.
    fn col(name: &str) -> Expr {
        Expr::Column {
            table: None,
            name: name.to_string(),
        }
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Func {
            name: "count".into(),
            args: vec![Expr::Wildcard],
            distinct: false,
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::Literal(Value::Int(1))),
            right: Box::new(agg),
        };
        assert!(nested.contains_aggregate());
        assert!(!col("x").contains_aggregate());
        let scalar = Expr::Func {
            name: "abs".into(),
            args: vec![col("x")],
            distinct: false,
        };
        assert!(!scalar.contains_aggregate());
    }

    #[test]
    fn table_ref_binding() {
        let t = TableRef {
            name: "votes".into(),
            alias: Some("v".into()),
        };
        assert_eq!(t.binding(), "v");
        let u = TableRef {
            name: "votes".into(),
            alias: None,
        };
        assert_eq!(u.binding(), "votes");
    }
}
