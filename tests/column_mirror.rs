//! Who pays for the resident column mirror: only tables a vector scan has
//! read a column of. Workloads that never vector-scan — point reads and
//! writes in stored procedures, cross-partition edges — build nothing, so
//! their mutators pay one branch; `SELECT COUNT(*)` reads no column and
//! builds none either.

use sstore_core::common::Value;
use sstore_core::workloads::{
    count_events_rows, deploy_count_events, deploy_two_stage, two_stage_rows, TWO_STAGE_EDGES,
};
use sstore_core::{Cluster, ExecPath, RouteSpec, SStoreBuilder};

#[test]
fn batch_workload_builds_no_column() {
    let mut db = SStoreBuilder::new().build().unwrap();
    deploy_count_events(&mut db).unwrap();
    for _ in 0..4 {
        db.submit_batch("count_events", count_events_rows(64, 16, 7))
            .unwrap();
    }
    assert_eq!(db.engine().db().mirrored_columns(), 0);
}

#[test]
fn cross_edge_workload_builds_no_column() {
    let cluster = Cluster::with_edges(
        2,
        RouteSpec::hash(0),
        16,
        &SStoreBuilder::new(),
        deploy_two_stage,
        TWO_STAGE_EDGES,
    )
    .unwrap();
    for _ in 0..4 {
        cluster
            .submit_batch_async("route_events", two_stage_rows(40, 10))
            .unwrap()
            .wait()
            .unwrap();
    }
    cluster.quiesce().unwrap();
    for i in 0..2 {
        let built = cluster
            .with_partition(i, |db| db.engine().db().mirrored_columns())
            .unwrap();
        assert_eq!(built, 0, "partition {i}");
    }
}

#[test]
fn count_star_builds_no_column_and_a_filter_builds_what_it_reads() {
    let mut db = SStoreBuilder::new().build().unwrap();
    deploy_count_events(&mut db).unwrap();
    db.submit_batch("count_events", count_events_rows(64, 16, 7))
        .unwrap();
    let n = db.query("SELECT COUNT(*) FROM totals", &[]).unwrap();
    assert_eq!(n.scalar_i64().unwrap(), 16);
    assert_eq!(db.engine().db().mirrored_columns(), 0);

    let n = db
        .query("SELECT COUNT(*), SUM(total) FROM totals WHERE n >= 4", &[])
        .unwrap();
    assert_eq!(n.scalar_i64().unwrap(), 16);
    // `n` and `total`, not `key`.
    assert_eq!(db.engine().db().mirrored_columns(), 2);
    // The mirror keeps up with the procedure's writes.
    db.submit_batch("count_events", count_events_rows(64, 16, 7))
        .unwrap();
    let r = db
        .query("SELECT COUNT(*), SUM(n) FROM totals WHERE n >= 8", &[])
        .unwrap();
    assert_eq!(r.rows[0].to_values(), vec![16.into(), 128.into()]);
}

/// Row mode reads no lane whatever the plan, and in vector mode a bare
/// `SELECT *`, sorted or not, hands up row handles: neither builds a
/// column.
#[test]
fn row_mode_and_bare_scans_build_no_column() {
    let mut db = SStoreBuilder::new().build().unwrap();
    db.ddl("CREATE TABLE t (id INT NOT NULL, k INT NOT NULL, v INT, PRIMARY KEY (id))")
        .unwrap();
    db.ddl("CREATE TABLE d (k INT NOT NULL, name TEXT NOT NULL, PRIMARY KEY (k))")
        .unwrap();
    db.ddl("CREATE WINDOW w (v INT) ROWS 4 SLIDE 1").unwrap();
    for i in 0..16 {
        let row = [Value::Int(i), Value::Int(i % 4), Value::Int(i * 10)];
        db.setup_sql("INSERT INTO t VALUES (?, ?, ?)", &row)
            .unwrap();
        db.setup_sql("INSERT INTO w VALUES (?)", &[Value::Int(i)])
            .unwrap();
    }
    for k in 0..4 {
        let row = [Value::Int(k), Value::Text(format!("dim{k}"))];
        db.setup_sql("INSERT INTO d VALUES (?, ?)", &row).unwrap();
    }

    db.engine_mut().set_exec_path(ExecPath::Row);
    for (sql, rows) in [
        ("SELECT id FROM t WHERE v > 50", 10),
        ("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k", 4),
        ("SELECT t.id, d.name FROM t JOIN d ON t.k = d.k", 16),
        ("SELECT COUNT(*), SUM(v) FROM w", 1),
    ] {
        assert_eq!(db.query(sql, &[]).unwrap().rows.len(), rows, "{sql}");
        assert_eq!(db.engine().db().mirrored_columns(), 0, "{sql}");
    }

    db.engine_mut().set_exec_path(ExecPath::Vector);
    for sql in ["SELECT * FROM t", "SELECT * FROM t ORDER BY id"] {
        assert_eq!(db.query(sql, &[]).unwrap().rows.len(), 16, "{sql}");
        assert_eq!(db.engine().db().mirrored_columns(), 0, "{sql}");
    }
}

/// A theta join runs the nested loop, which reads rows; a side whose scan
/// filters reads lanes for that, and builds only the columns the query
/// reads of it.
#[test]
fn a_theta_join_side_builds_only_the_columns_it_reads() {
    let mut db = SStoreBuilder::new().build().unwrap();
    db.ddl(
        "CREATE TABLE t (id INT NOT NULL, k INT NOT NULL, a INT, b INT, c INT, \
         PRIMARY KEY (id))",
    )
    .unwrap();
    db.ddl("CREATE TABLE d (k INT NOT NULL, name TEXT NOT NULL, PRIMARY KEY (k))")
        .unwrap();
    for i in 0..8 {
        let row = [i, i % 4, i, i, i].map(Value::Int);
        db.setup_sql("INSERT INTO t VALUES (?, ?, ?, ?, ?)", &row)
            .unwrap();
    }
    for k in 0..4 {
        let row = [Value::Int(k), Value::Text(format!("dim{k}"))];
        db.setup_sql("INSERT INTO d VALUES (?, ?)", &row).unwrap();
    }
    let sql = "SELECT t.id, d.name FROM t JOIN d ON t.k < d.k WHERE t.a > 1";
    // Rows 2..8 with k = i % 4 below each of the 4 dims' keys above it.
    let want: usize = (2..8).map(|i| 3 - i % 4).sum();
    assert_eq!(db.query(sql, &[]).unwrap().rows.len(), want);
    // `id`, `k` and `a` of `t`; `d` has no filter and hands up rows.
    assert_eq!(db.engine().db().mirrored_columns(), 3);
}
