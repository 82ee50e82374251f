//! End-to-end SQL coverage through the full stack (client → PE → EE →
//! storage): the statement surface every application and trigger uses.

use sstore_core::common::Value;
use sstore_core::SStoreBuilder;

fn db_with_data() -> sstore_core::SStore {
    let mut db = SStoreBuilder::new().build().unwrap();
    db.ddl(
        "CREATE TABLE orders (order_id INT NOT NULL, customer VARCHAR(32) NOT NULL, \
         amount FLOAT NOT NULL, region VARCHAR(16), PRIMARY KEY (order_id))",
    )
    .unwrap();
    db.ddl(
        "CREATE TABLE customers (name VARCHAR(32) NOT NULL, tier INT NOT NULL, \
         PRIMARY KEY (name))",
    )
    .unwrap();
    for (id, cust, amount, region) in [
        (1, "acme", 100.0, Some("east")),
        (2, "acme", 250.0, Some("west")),
        (3, "globex", 75.5, None),
        (4, "initech", 300.0, Some("east")),
        (5, "globex", 120.0, Some("east")),
    ] {
        db.setup_sql(
            "INSERT INTO orders VALUES (?, ?, ?, ?)",
            &[
                Value::Int(id),
                Value::Text(cust.into()),
                Value::Float(amount),
                region.map(|r| Value::Text(r.into())).unwrap_or(Value::Null),
            ],
        )
        .unwrap();
    }
    for (name, tier) in [("acme", 1), ("globex", 2), ("initech", 1)] {
        db.setup_sql(
            "INSERT INTO customers VALUES (?, ?)",
            &[Value::Text(name.into()), Value::Int(tier)],
        )
        .unwrap();
    }
    db
}

#[test]
fn aggregates_with_grouping_and_having() {
    let mut db = db_with_data();
    let r = db
        .query(
            "SELECT customer, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS mean \
             FROM orders GROUP BY customer HAVING SUM(amount) > 150.0 \
             ORDER BY total DESC",
            &[],
        )
        .unwrap();
    assert_eq!(&*r.columns, ["customer", "n", "total", "mean"]);
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0][0], Value::Text("acme".into()));
    assert_eq!(r.rows[0][2], Value::Float(350.0));
}

#[test]
fn joins_with_aliases_and_predicates() {
    let mut db = db_with_data();
    let r = db
        .query(
            "SELECT o.order_id, c.tier FROM orders o \
             JOIN customers c ON o.customer = c.name \
             WHERE c.tier = 2 ORDER BY o.order_id",
            &[],
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![3, 5]);
}

#[test]
fn scalar_subqueries_in_predicates() {
    let mut db = db_with_data();
    let r = db
        .query(
            "SELECT order_id FROM orders \
             WHERE amount > (SELECT AVG(amount) FROM orders) ORDER BY order_id",
            &[],
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![2, 4]); // avg = 169.1
}

#[test]
fn null_semantics_through_the_stack() {
    let mut db = db_with_data();
    let r = db
        .query("SELECT COUNT(*), COUNT(region) FROM orders", &[])
        .unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(5), Value::Int(4)]);
    let r = db
        .query("SELECT order_id FROM orders WHERE region IS NULL", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    // NULL comparisons never match.
    let r = db
        .query("SELECT COUNT(*) FROM orders WHERE region = NULL", &[])
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
}

#[test]
fn expressions_in_lists_between_and_functions() {
    let mut db = db_with_data();
    let r = db
        .query(
            "SELECT order_id, UPPER(customer) FROM orders \
             WHERE order_id IN (1, 3, 5) AND amount BETWEEN 70.0 AND 130.0 \
             ORDER BY 1",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[1][1], Value::Text("GLOBEX".into()));
    let r = db
        .query(
            "SELECT ABS(-5), SQRT(16.0), FLOOR(2.9), CEIL(2.1), \
             POWER(2.0, 8.0), LENGTH('hello'), COALESCE(NULL, 'x')",
            &[],
        )
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![
            Value::Int(5),
            Value::Float(4.0),
            Value::Int(2),
            Value::Int(3),
            Value::Float(256.0),
            Value::Int(5),
            Value::Text("x".into()),
        ]
    );
}

#[test]
fn parameterized_statements_and_ordering() {
    let mut db = db_with_data();
    let r = db
        .query(
            "SELECT order_id FROM orders WHERE customer = ? OR amount >= ? \
             ORDER BY amount DESC, order_id ASC LIMIT 3",
            &[Value::Text("globex".into()), Value::Float(250.0)],
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|x| x[0].as_int().unwrap()).collect();
    assert_eq!(ids, vec![4, 2, 5]);
}

#[test]
fn errors_surface_cleanly() {
    let mut db = db_with_data();
    assert_eq!(
        db.query("SELECT nope FROM orders", &[]).unwrap_err().kind(),
        "not_found"
    );
    assert_eq!(db.query("SELECT 1 +", &[]).unwrap_err().kind(), "parse");
    assert_eq!(db.query("FETCH ALL", &[]).unwrap_err().kind(), "parse");
    assert_eq!(
        db.query("SELECT 1 / 0", &[]).unwrap_err().kind(),
        "constraint"
    );
    assert_eq!(
        db.query(
            "SELECT amount FROM orders WHERE region = 'x' GROUP BY region",
            &[]
        )
        .unwrap_err()
        .kind(),
        "parse", // bare column outside GROUP BY
    );
    assert_eq!(
        db.query("SELECT amount FROM orders WHERE region", &[])
            .unwrap_err()
            .kind(),
        "type_mismatch", // a WHERE that is not BOOLEAN
    );
}

#[test]
fn select_distinct_deduplicates() {
    let mut db = db_with_data();
    let r = db
        .query(
            "SELECT DISTINCT customer FROM orders ORDER BY customer",
            &[],
        )
        .unwrap();
    let names: Vec<&str> = r.rows.iter().map(|x| x[0].as_text().unwrap()).collect();
    assert_eq!(names, vec!["acme", "globex", "initech"]);
    // DISTINCT over multiple columns.
    let r = db
        .query("SELECT DISTINCT customer, region FROM orders", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 5); // all (customer, region) pairs are unique
}

#[test]
fn count_distinct() {
    let mut db = db_with_data();
    let r = db
        .query(
            "SELECT COUNT(region), COUNT(DISTINCT region), COUNT(DISTINCT customer) FROM orders",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(4), Value::Int(2), Value::Int(3)]);
    // Grouped distinct.
    let r = db
        .query(
            "SELECT customer, COUNT(DISTINCT region) FROM orders \
             GROUP BY customer ORDER BY customer",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Int(2)); // acme: east + west
    assert_eq!(r.rows[1][1], Value::Int(1)); // globex: east (one NULL skipped)
}

#[test]
fn exists_subqueries() {
    let mut db = db_with_data();
    let r = db
        .query(
            "SELECT COUNT(*) FROM customers \
             WHERE EXISTS (SELECT 1 FROM orders WHERE amount > 299.0)",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3)); // uncorrelated: true for all
    let r = db
        .query(
            "SELECT COUNT(*) FROM customers \
             WHERE NOT EXISTS (SELECT 1 FROM orders WHERE amount > 1000.0)",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(3));
    let r = db
        .query(
            "SELECT EXISTS (SELECT 1 FROM orders WHERE region IS NULL)",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Bool(true));
}

#[test]
fn order_by_alias_and_expression() {
    let mut db = db_with_data();
    let r = db
        .query(
            "SELECT customer, SUM(amount) AS total FROM orders \
             GROUP BY customer ORDER BY SUM(amount) ASC",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Text("globex".into()));
    let r2 = db
        .query(
            "SELECT customer, SUM(amount) AS total FROM orders \
             GROUP BY customer ORDER BY total ASC",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows, r2.rows);
}

/// A grouped query's outputs are bound like every other expression, so a
/// bad call is refused when the statement is planned, whether or not a
/// group exists to evaluate it on.
#[test]
fn grouped_outputs_are_refused_at_plan_time_on_any_table() {
    let mut db = SStoreBuilder::new().build().unwrap();
    db.ddl("CREATE TABLE t (k INT NOT NULL, name VARCHAR(8) NOT NULL, PRIMARY KEY (k))")
        .unwrap();
    let cases = [
        (
            "SELECT abs(k, k) FROM t GROUP BY k",
            "function `abs` expects 1 argument(s)",
        ),
        (
            "SELECT lower(DISTINCT name) FROM t GROUP BY name",
            "DISTINCT only applies to aggregates, not `lower`",
        ),
        (
            "SELECT now(1) FROM t GROUP BY k",
            "function `now` expects 0 argument(s)",
        ),
    ];
    for filled in [false, true] {
        if filled {
            db.setup_sql("INSERT INTO t VALUES (1, 'a'), (2, 'b')", &[])
                .unwrap();
        }
        for (sql, message) in cases {
            let e = db.query(sql, &[]).unwrap_err();
            assert_eq!(e.kind(), "parse", "{sql} (filled: {filled}): {e}");
            assert!(e.to_string().contains(message), "{sql}: {e}");
        }
    }
}

/// A prepared statement's parameters are typed by their use when it is
/// planned and checked once when it runs: an INT takes a FLOAT or a
/// TIMESTAMP use, and a TEXT an INT use is refused with a typed error
/// before anything is written.
#[test]
fn procedure_parameters_are_checked_against_their_use() {
    use sstore_core::common::Error;
    use sstore_core::{ProcSpec, TxnStatus};
    let mut db = SStoreBuilder::new().build().unwrap();
    db.ddl("CREATE STREAM p_in (v INT)").unwrap();
    db.ddl(
        "CREATE TABLE acc (id INT NOT NULL, total FLOAT NOT NULL, at TIMESTAMP, \
         PRIMARY KEY (id))",
    )
    .unwrap();
    db.setup_sql("INSERT INTO acc VALUES (1, 0.5, NULL)", &[])
        .unwrap();
    db.register(
        ProcSpec::new("bump", |ctx| {
            ctx.exec("bump", &[Value::Int(2), Value::Int(40), Value::Int(1)])?;
            let text_id = [Value::Int(2), Value::Int(40), Value::Text("1".into())];
            match ctx.exec("bump", &text_id) {
                Err(e) if e.kind() == "type_mismatch" => Ok(()),
                other => Err(Error::Internal(format!("TEXT id not refused: {other:?}"))),
            }
        })
        .consumes("p_in")
        .stmt(
            "bump",
            "UPDATE acc SET total = total + ?, at = ? WHERE id = ?",
        ),
    )
    .unwrap();
    let outcomes = db.submit_batch("bump", vec![vec![Value::Int(0)]]).unwrap();
    assert_eq!(outcomes[0].status, TxnStatus::Committed, "{outcomes:?}");
    let r = db
        .query("SELECT total, at FROM acc WHERE id = 1", &[])
        .unwrap();
    assert_eq!(
        r.rows[0].to_values(),
        vec![Value::Float(2.5), Value::Timestamp(40)]
    );
}
