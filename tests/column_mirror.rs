//! Who pays for the resident column mirror: only tables a vector scan has
//! read a column of. Workloads that never vector-scan — point reads and
//! writes in stored procedures, cross-partition edges — build nothing, so
//! their mutators pay one branch; `SELECT COUNT(*)` reads no column and
//! builds none either.

use sstore_core::workloads::{
    count_events_rows, deploy_count_events, deploy_two_stage, two_stage_rows, TWO_STAGE_EDGES,
};
use sstore_core::{Cluster, RouteSpec, SStoreBuilder};

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
