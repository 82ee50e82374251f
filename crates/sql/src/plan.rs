//! Physical plans.
//!
//! The planner lowers an AST into one of these directly-executable shapes.
//! Plans are deliberately materializing and row-at-a-time: H-Store-style
//! OLTP statements touch few rows, and serial per-partition execution makes
//! operator pipelining unnecessary for correctness or (at this scale)
//! throughput.

use crate::expr::BoundExpr;
use sstore_common::{DataType, Schema, TableId};
use std::sync::Arc;

/// Access path for a scan.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full table scan.
    Full,
    /// Primary-key point lookup with the bound key expressions.
    PkPoint(Vec<BoundExpr>),
    /// Secondary-index point lookup (`index name`, key expressions).
    IndexPoint(String, Vec<BoundExpr>),
}

/// A relational operator tree producing rows.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Literal rows (used for table-less SELECT and INSERT…VALUES).
    Values {
        /// Each row is a list of expressions evaluated with no input row.
        rows: Vec<Vec<BoundExpr>>,
    },
    /// Table scan (with optional index access path). Produces *storage*
    /// rows (hidden columns included).
    Scan {
        /// The table.
        table: TableId,
        /// How to locate rows.
        path: AccessPath,
        /// Residual predicate applied after the access path.
        residual: Option<BoundExpr>,
    },
    /// Nested-loop inner join; predicate over the concatenated row.
    NestedLoopJoin {
        /// Outer input.
        left: Box<PhysicalPlan>,
        /// Inner input (re-evaluated per outer row).
        right: Box<PhysicalPlan>,
        /// Join predicate (`TRUE` for cross joins folded from comma syntax).
        on: BoundExpr,
    },
    /// Row filter.
    Filter {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Predicate.
        pred: BoundExpr,
    },
    /// Projection.
    Project {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Output expressions.
        exprs: Vec<BoundExpr>,
    },
    /// Hash aggregation. Output row layout = group values then aggregate
    /// results: `[g0, g1, ..., a0, a1, ...]`.
    Aggregate {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Group-by key expressions over the input row.
        group_exprs: Vec<BoundExpr>,
        /// Aggregates to compute.
        aggs: Vec<AggExpr>,
    },
    /// Sort by key offsets into the input row.
    Sort {
        /// Input.
        input: Box<PhysicalPlan>,
        /// `(column offset, descending)` pairs, major key first.
        keys: Vec<(usize, bool)>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input.
        input: Box<PhysicalPlan>,
        /// Row cap.
        n: u64,
    },
    /// Remove duplicate rows, keeping first occurrences (`SELECT DISTINCT`).
    Distinct {
        /// Input.
        input: Box<PhysicalPlan>,
    },
}

/// One aggregate computation.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// Which aggregate.
    pub(crate) func: AggFunc,
    /// Argument over the input row; `None` only for `COUNT(*)`.
    pub arg: Option<BoundExpr>,
    /// `DISTINCT` modifier: deduplicate argument values before folding.
    pub distinct: bool,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggFunc {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(expr)` — counts non-NULL values.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// A fully planned statement.
///
/// `subqueries` on each DML/query variant holds the plans of uncorrelated
/// scalar subqueries, in slot order matching
/// [`crate::expr::BoundExpr::SubqueryRef`]; the executor evaluates them
/// once per statement, before the main plan. `params` holds, per
/// statement parameter, the value types its use accepts (empty: any),
/// which the executor checks each value against first.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedStmt {
    /// `SELECT`: run the plan, report `columns` as output names.
    Query {
        /// The operator tree.
        plan: PhysicalPlan,
        /// Output column names (aliases applied), shared with every
        /// result of this statement.
        columns: Arc<[String]>,
        /// Scalar subquery plans.
        subqueries: Vec<PhysicalPlan>,
        /// The value types each parameter accepts.
        params: Vec<Vec<DataType>>,
    },
    /// `INSERT`: evaluate `source`, remap into visible-column order, insert.
    Insert {
        /// Target table.
        table: TableId,
        /// Row source (arity = `columns.len()`).
        source: PhysicalPlan,
        /// For each *visible* column of the target (in schema order), the
        /// index into the source row providing its value, or `None` for
        /// NULL (column not mentioned in the insert list).
        mapping: Vec<Option<usize>>,
        /// Scalar subquery plans.
        subqueries: Vec<PhysicalPlan>,
        /// The value types each parameter accepts.
        params: Vec<Vec<DataType>>,
    },
    /// `UPDATE`: for each matching row, recompute the listed columns.
    Update {
        /// Target table.
        table: TableId,
        /// Index access path locating candidate rows.
        path: AccessPath,
        /// Row filter over storage rows (applied after the access path).
        pred: Option<BoundExpr>,
        /// `(visible column offset, new-value expression over the old row)`.
        sets: Vec<(usize, BoundExpr)>,
        /// Scalar subquery plans.
        subqueries: Vec<PhysicalPlan>,
        /// The value types each parameter accepts.
        params: Vec<Vec<DataType>>,
    },
    /// `DELETE` matching rows.
    Delete {
        /// Target table.
        table: TableId,
        /// Index access path locating candidate rows.
        path: AccessPath,
        /// Row filter over storage rows (applied after the access path).
        pred: Option<BoundExpr>,
        /// Scalar subquery plans.
        subqueries: Vec<PhysicalPlan>,
        /// The value types each parameter accepts.
        params: Vec<Vec<DataType>>,
    },
    /// DDL, executed by the engine outside any transaction.
    Ddl(DdlOp),
}

/// Data-definition operations.
#[derive(Debug, Clone, PartialEq)]
pub enum DdlOp {
    /// `CREATE TABLE`.
    CreateTable {
        /// Table name.
        name: String,
        /// Visible schema.
        schema: Schema,
    },
    /// `CREATE STREAM`.
    CreateStream {
        /// Stream name.
        name: String,
        /// Visible schema.
        schema: Schema,
    },
    /// `CREATE WINDOW`.
    CreateWindow {
        /// Window name.
        name: String,
        /// Visible schema.
        schema: Schema,
        /// Tuple-based (`ROWS`) vs time-based (`RANGE`).
        tuple_based: bool,
        /// Size (tuples or µs).
        size: i64,
        /// Slide (tuples or µs).
        slide: i64,
    },
}

impl PhysicalPlan {
    /// Number of columns this plan produces, given a resolver for table
    /// arities (storage arity, hidden columns included).
    pub(crate) fn arity(&self, table_arity: &dyn Fn(TableId) -> usize) -> usize {
        match self {
            PhysicalPlan::Values { rows } => rows.first().map(Vec::len).unwrap_or(0),
            PhysicalPlan::Scan { table, .. } => table_arity(*table),
            PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                left.arity(table_arity) + right.arity(table_arity)
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Distinct { input } => input.arity(table_arity),
            PhysicalPlan::Project { exprs, .. } => exprs.len(),
            PhysicalPlan::Aggregate {
                group_exprs, aggs, ..
            } => group_exprs.len() + aggs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::Value;

    #[test]
    fn arity_computation() {
        let values = PhysicalPlan::Values {
            rows: vec![vec![
                BoundExpr::Literal(Value::Int(1)),
                BoundExpr::Literal(Value::Int(2)),
            ]],
        };
        let arity_fn = |_t: TableId| 5usize;
        assert_eq!(values.arity(&arity_fn), 2);

        let scan = PhysicalPlan::Scan {
            table: TableId::new(0),
            path: AccessPath::Full,
            residual: None,
        };
        assert_eq!(scan.arity(&arity_fn), 5);

        let join = PhysicalPlan::NestedLoopJoin {
            left: Box::new(scan.clone()),
            right: Box::new(values.clone()),
            on: BoundExpr::Literal(Value::Bool(true)),
        };
        assert_eq!(join.arity(&arity_fn), 7);

        let agg = PhysicalPlan::Aggregate {
            input: Box::new(scan),
            group_exprs: vec![BoundExpr::ColumnRef(0)],
            aggs: vec![AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            }],
        };
        assert_eq!(agg.arity(&arity_fn), 2);
    }
}
