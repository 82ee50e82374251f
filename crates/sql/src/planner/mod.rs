//! Name resolution and plan construction, one job per module:
//!
//! * this module dispatches a statement and plans DDL;
//! * `bind` resolves names and types: one `Binder` binds every
//!   expression over its scope, a FROM clause's row or a grouped query's
//!   aggregate row, and refuses the operators its types do not fit;
//! * `select` plans a SELECT: the FROM tree, the WHERE folded into an
//!   access path or into the scans below a join, and the outputs with
//!   DISTINCT, ORDER BY and LIMIT on top;
//! * `aggregate` collects a grouped query's aggregate calls and plans
//!   the `Aggregate` computing them;
//! * `dml` plans INSERT, UPDATE and DELETE.

mod aggregate;
mod bind;
mod dml;
mod select;

use crate::ast::{ColumnDef, Stmt};
use crate::plan::{DdlOp, PlannedStmt};
use sstore_common::{Column, Result, Schema};
use sstore_storage::Database;

/// Plan any statement against the current catalog.
pub fn plan_statement(stmt: &Stmt, db: &Database) -> Result<PlannedStmt> {
    match stmt {
        Stmt::Select(s) => {
            let mut slots = bind::Slots::default();
            let (plan, columns, _) = select::plan_select(s, db, &mut slots, &[])?;
            Ok(PlannedStmt::Query {
                plan,
                columns: columns.into(),
                subqueries: slots.subs,
                params: slots.params,
            })
        }
        Stmt::Insert(i) => dml::plan_insert(i, db),
        Stmt::Update(u) => dml::plan_update(u, db),
        Stmt::Delete(d) => dml::plan_delete(d, db),
        Stmt::CreateTable(c) => Ok(PlannedStmt::Ddl(DdlOp::CreateTable {
            name: c.name.clone(),
            schema: columns_to_schema(&c.columns, &c.primary_key)?,
        })),
        Stmt::CreateStream(c) => Ok(PlannedStmt::Ddl(DdlOp::CreateStream {
            name: c.name.clone(),
            schema: columns_to_schema(&c.columns, &[])?,
        })),
        Stmt::CreateWindow(c) => Ok(PlannedStmt::Ddl(DdlOp::CreateWindow {
            name: c.name.clone(),
            schema: columns_to_schema(&c.columns, &[])?,
            tuple_based: c.tuple_based,
            size: c.size,
            slide: c.slide,
        })),
    }
}

/// The schema a CREATE declares; a primary-key column is never nullable.
fn columns_to_schema(defs: &[ColumnDef], primary_key: &[String]) -> Result<Schema> {
    let cols = defs
        .iter()
        .map(|cd| {
            let pk_col = primary_key.iter().any(|p| p.eq_ignore_ascii_case(&cd.name));
            if cd.nullable && !pk_col {
                Column::nullable(&cd.name, cd.ty)
            } else {
                Column::new(&cd.name, cd.ty)
            }
        })
        .collect();
    let pk: Vec<&str> = primary_key.iter().map(String::as_str).collect();
    Schema::new(cols, &pk)
}

#[cfg(test)]
mod tests {
    use super::plan_statement;
    use crate::ast;
    use crate::exec::{run_sql, DirectContext};
    use crate::expr::BoundExpr;
    use crate::parser::parse;
    use crate::plan::{AccessPath, DdlOp, PhysicalPlan, PlannedStmt};
    use sstore_common::{Column, DataType, Error, Schema, Value};
    use sstore_storage::Database;

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
        match plan("UPDATE t SET score = score + 1 WHERE id = 3 AND name = 'x'") {
            PlannedStmt::Update { sets, pred, .. } => {
                assert_eq!(sets.len(), 1);
                assert_eq!(sets[0].0, 2);
                // The pk probe covers `id = 3`; the rest is left to check.
                assert_eq!(pred, Some(cmp(ast::BinOp::Eq, 1, Value::Text("x".into()))));
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

    /// The scan under a one-table query's projection.
    fn scan_under_projection(planned: PlannedStmt) -> PhysicalPlan {
        match planned {
            PlannedStmt::Query {
                plan: PhysicalPlan::Project { input, .. },
                ..
            } => *input,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn int_key_probes_drop_their_conjunct() {
        let scan = scan_under_projection(plan("SELECT name FROM t WHERE id = ?"));
        assert!(
            matches!(
                scan,
                PhysicalPlan::Scan {
                    path: AccessPath::PkPoint(_),
                    residual: None,
                    ..
                }
            ),
            "{scan:?}"
        );
        // A probe of a NOT NULL INT key finds what `=` accepts, whatever the
        // probe's type: `id + 0 = ?` scans the table and must agree. Both
        // refuse a TEXT probe, which no comparison with a number takes.
        let mut db = test_db();
        let mut run = |sql: &str, params: &[Value]| {
            let mut ctx = DirectContext {
                db: &mut db,
                now_micros: 0,
            };
            run_sql(sql, &mut ctx, params).map(|r| r.rows)
        };
        for id in [0, 1, 2, 3] {
            run(
                "INSERT INTO t VALUES (?, ?, NULL)",
                &[Value::Int(id), Value::Text(format!("n{id}"))],
            )
            .unwrap();
        }
        for probe in [
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Null,
            Value::Text("2".into()),
        ] {
            let params = [probe.clone()];
            let probed = run("SELECT name FROM t WHERE id = ?", &params);
            let scanned = run("SELECT name FROM t WHERE id + 0 = ?", &params);
            assert_eq!(probed, scanned, "probe {probe:?}");
            assert_eq!(probed.is_err(), probe.data_type() == Some(DataType::Text));
        }
    }

    #[test]
    fn other_keys_keep_their_conjunct() {
        let mut db = test_db();
        for ddl in [
            "CREATE TABLE k (name TEXT, PRIMARY KEY (name))",
            "CREATE TABLE f (x FLOAT, PRIMARY KEY (x))",
            "CREATE TABLE c (a INT, b INT, PRIMARY KEY (a, b))",
        ] {
            let PlannedStmt::Ddl(DdlOp::CreateTable { name, schema }) =
                plan_statement(&parse(ddl).unwrap(), &db).unwrap()
            else {
                panic!("{ddl}")
            };
            db.create_table(&name, schema).unwrap();
        }
        for sql in [
            "SELECT name FROM k WHERE name = ?",
            "SELECT x FROM f WHERE x = ?",
            "SELECT a FROM c WHERE a = ? AND b = ?",
        ] {
            let planned = plan_statement(&parse(sql).unwrap(), &db).unwrap();
            match scan_under_projection(planned) {
                PhysicalPlan::Scan {
                    path: AccessPath::PkPoint(_),
                    residual: Some(_),
                    ..
                } => {}
                other => panic!("{sql}: {other:?}"),
            }
        }
    }

    /// A key subquery is planned once: the probe and the residual share its
    /// slot, so it runs once per execution.
    #[test]
    fn a_key_subquery_takes_one_slot() {
        match plan("SELECT name FROM t WHERE id = (SELECT max(id) FROM t)") {
            PlannedStmt::Query { subqueries, .. } => assert_eq!(subqueries.len(), 1),
            other => panic!("{other:?}"),
        }
        match plan("DELETE FROM t WHERE id = (SELECT max(id) FROM t) AND score > 1.0") {
            PlannedStmt::Delete {
                path: AccessPath::PkPoint(keys),
                subqueries,
                ..
            } => {
                assert_eq!(subqueries.len(), 1);
                assert_eq!(keys, [BoundExpr::SubqueryRef(0)]);
            }
            other => panic!("{other:?}"),
        }
    }
}
