//! Property tests: the heap table against a naive model, and undo
//! exactness under random operation sequences.

use proptest::prelude::*;
use sstore_common::{Column, DataType, Row, Schema, Value};
use sstore_storage::{IndexDef, RowId, Table, UndoLog, UndoOp};
use std::collections::BTreeMap;

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", DataType::Int),
            Column::new("v", DataType::Int),
        ],
        &["id"],
    )
    .unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64),
    DeleteByKey(i64),
    UpdateByKey(i64, i64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0i64..50, any::<i64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0i64..50).prop_map(Op::DeleteByKey),
            (0i64..50, any::<i64>()).prop_map(|(k, v)| Op::UpdateByKey(k, v)),
        ],
        0..120,
    )
}

fn apply(table: &mut Table, model: &mut BTreeMap<i64, i64>, op: &Op) {
    match op {
        Op::Insert(k, v) => {
            let res = table.insert(vec![Value::Int(*k), Value::Int(*v)]);
            if model.contains_key(k) {
                assert!(res.is_err(), "duplicate PK accepted");
            } else {
                res.unwrap();
                model.insert(*k, *v);
            }
        }
        Op::DeleteByKey(k) => match table.pk_lookup(&[Value::Int(*k)]) {
            Some(rid) => {
                table.delete(rid).unwrap();
                assert!(model.remove(k).is_some(), "table had a row the model lacks");
            }
            None => assert!(!model.contains_key(k), "model had a row the table lacks"),
        },
        Op::UpdateByKey(k, v) => {
            if let Some(rid) = table.pk_lookup(&[Value::Int(*k)]) {
                table
                    .update(rid, vec![Value::Int(*k), Value::Int(*v)])
                    .unwrap();
                model.insert(*k, *v);
            } else {
                assert!(!model.contains_key(k));
            }
        }
    }
}

fn assert_matches_model(table: &Table, model: &BTreeMap<i64, i64>) {
    assert_eq!(table.len(), model.len());
    let mut seen: BTreeMap<i64, i64> = BTreeMap::new();
    for (_, row) in table.scan() {
        seen.insert(row[0].as_int().unwrap(), row[1].as_int().unwrap());
    }
    assert_eq!(&seen, model);
    // PK index agrees with the scan.
    for (&k, &v) in model {
        let rid = table.pk_lookup(&[Value::Int(k)]).expect("indexed");
        assert_eq!(table.get(rid).unwrap()[1], Value::Int(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_matches_model_under_random_ops(ops in arb_ops()) {
        let mut table = Table::new("t", schema());
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&mut table, &mut model, op);
        }
        assert_matches_model(&table, &model);
    }

    #[test]
    fn secondary_index_stays_consistent(ops in arb_ops()) {
        let mut table = Table::new("t", schema());
        table.create_index(IndexDef {
            name: "by_v".into(),
            key_cols: vec![1],
            unique: false,
        }).unwrap();
        let mut model = BTreeMap::new();
        for op in &ops {
            apply(&mut table, &mut model, op);
        }
        // Every row is findable through the secondary index, and the index
        // holds nothing else.
        let mut via_index = 0usize;
        for &v in model.values() {
            let rids = table.index_lookup("by_v", &[Value::Int(v)]).unwrap();
            prop_assert!(!rids.is_empty());
            via_index += rids.len();
        }
        // Rows sharing a v are counted once per occurrence; compare totals
        // by scanning distinct v values.
        let mut distinct: Vec<i64> = model.values().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let total: usize = distinct
            .iter()
            .map(|v| table.index_lookup("by_v", &[Value::Int(*v)]).unwrap().len())
            .sum();
        prop_assert_eq!(total, model.len());
        let _ = via_index;
    }

    #[test]
    fn undo_restores_exact_state(setup in arb_ops(), txn in arb_ops()) {
        let mut table = Table::new("t", schema());
        let mut model = BTreeMap::new();
        for op in &setup {
            apply(&mut table, &mut model, op);
        }
        // Snapshot the committed state.
        let committed: Vec<(RowId, Row)> =
            table.scan().map(|(rid, r)| (rid, r.clone())).collect();

        // Run a "transaction" recording undo, then roll it back.
        let mut db = sstore_storage::Database::new();
        let t = db.create_table("t", schema()).unwrap();
        // Replay committed state into the database instance.
        for (_, row) in &committed {
            db.table_mut(t).unwrap().insert(row.clone()).unwrap();
        }
        let mut undo = UndoLog::new();
        for op in &txn {
            match op {
                Op::Insert(k, v) => {
                    if let Ok(rid) = db.table_mut(t).unwrap().insert(vec![Value::Int(*k), Value::Int(*v)]) {
                        undo.push(UndoOp::Insert { table: t, rid });
                    }
                }
                Op::DeleteByKey(k) => {
                    if let Some(rid) = db.table(t).unwrap().pk_lookup(&[Value::Int(*k)]) {
                        let row = db.table_mut(t).unwrap().delete(rid).unwrap();
                        undo.push(UndoOp::Delete { table: t, rid, row });
                    }
                }
                Op::UpdateByKey(k, v) => {
                    if let Some(rid) = db.table(t).unwrap().pk_lookup(&[Value::Int(*k)]) {
                        let old = db.table_mut(t).unwrap()
                            .update(rid, vec![Value::Int(*k), Value::Int(*v)]).unwrap();
                        undo.push(UndoOp::Update { table: t, rid, old });
                    }
                }
            }
        }
        undo.rollback(&mut db).unwrap();

        let after: Vec<(RowId, Row)> =
            db.table(t).unwrap().scan().map(|(rid, r)| (rid, r.clone())).collect();
        // Compare as sets keyed by pk (slot ids may differ only if the
        // replayed insert order differed — it didn't, we replayed in scan
        // order, so exact equality must hold).
        let before_sorted = {
            let mut b: Vec<Row> = committed.iter().map(|(_, r)| r.clone()).collect();
            b.sort();
            b
        };
        let after_sorted = {
            let mut a: Vec<Row> = after.iter().map(|(_, r)| r.clone()).collect();
            a.sort();
            a
        };
        prop_assert_eq!(before_sorted, after_sorted);
    }
}
