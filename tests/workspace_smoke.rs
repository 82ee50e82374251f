//! Workspace-surface smoke tests: the umbrella crate's re-exports resolve
//! and the shared data model's basics hold. These guard the Cargo wiring
//! itself — if a crate is dropped from the workspace or a re-export path
//! breaks, this file stops compiling.

use sstore::common::{Clock, DataType, Value};

#[test]
fn umbrella_reexports_resolve() {
    // `sstore::core` is the full API crate; building a system through the
    // umbrella path must work end to end.
    let mut db = sstore::core::SStoreBuilder::new().build().unwrap();
    db.ddl("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))")
        .unwrap();
    // The flat re-exports alias the same types.
    let _config: sstore::PeConfig = sstore::PeConfig::default();
    let q = db.query("SELECT id FROM t", &[]).unwrap();
    assert!(q.rows.is_empty());
}

#[test]
fn clock_is_monotone_and_settable() {
    let clock = Clock::new();
    assert_eq!(clock.now(), 0);
    assert_eq!(clock.advance(5), 5);
    assert_eq!(clock.advance_to(100), 100);
    // advance_to never goes backwards.
    assert_eq!(clock.advance_to(50), 100);

    let later = Clock::starting_at(1_000);
    assert_eq!(later.now(), 1_000);
}

#[test]
fn value_accessors_and_coercion_basics() {
    assert_eq!(Value::Int(3).as_int().unwrap(), 3);
    assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
    assert_eq!(Value::Int(2), Value::Float(2.0));
    assert_eq!(
        DataType::Float.coerce(Value::Int(7)).unwrap(),
        Value::Int(7)
    );
    assert!(Value::Null.is_null());
    assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
}
