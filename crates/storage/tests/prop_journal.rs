//! Property test for the delta-snapshot journal: a replica that replays
//! what [`Table::dirt`] hands out at each cut encodes byte for byte like
//! the live table — same slots, same free list, same index bucket order.
//!
//! The table has a primary key and a secondary index, so updates that
//! change a key move index entries, and the in-place writes
//! (`set_cells`, some rolled back through `UndoOp::Cell`) reach the rule
//! that journals such a write as its slot id only and replays the live
//! row at the end of the cut.

use proptest::prelude::*;
use sstore_common::{codec, Column, DataType, Row, Schema, Value};
use sstore_storage::{Database, IndexDef, RowId, Table, TableDirt, UndoLog, UndoOp};

/// `id` (primary key), `grp` (secondary index), then two columns that
/// key nothing and so take in-place writes.
fn schema() -> Schema {
    let cols = vec![
        Column::new("id", DataType::Int),
        Column::new("grp", DataType::Int),
        Column::new("n", DataType::Int),
        Column::nullable("s", DataType::Text),
    ];
    Schema::new(cols, &["id"]).unwrap()
}

fn row(id: i64, grp: i64, n: i64) -> Row {
    let s = (n % 3 != 0).then(|| Value::Text(format!("s{}", n % 5)));
    Row::new(vec![
        Value::Int(id),
        Value::Int(grp),
        Value::Int(n),
        s.unwrap_or(Value::Null),
    ])
}

/// A mutation; `usize` picks the `n`-th live row (modulo the live count).
#[derive(Debug, Clone)]
enum Write {
    /// May collide on the key, and then changes nothing.
    Insert(i64, i64, i64),
    /// In place: `n`, and `s` when the flag is set.
    Cells(usize, i64, bool),
    /// A full-image update giving the row a new key and group.
    Rekey(usize, i64, i64),
    /// Delete the row, then insert a new one, which takes its slot.
    Replace(usize, i64, i64),
    /// Delete the row and restore it into its slot.
    DeleteRestore(usize),
}

#[derive(Debug, Clone)]
enum Op {
    Write(Write),
    /// Run the writes under an undo log, then roll all of them back.
    RolledBack(Vec<Write>),
    Truncate,
    /// Cut a delta: the replica replays it, then the journal restarts.
    Cut,
}

fn arb_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        (0i64..12, 0i64..3, any::<i64>()).prop_map(|(id, g, n)| Write::Insert(id, g, n)),
        (0usize..8, any::<i64>(), any::<bool>()).prop_map(|(r, n, s)| Write::Cells(r, n, s)),
        (0usize..8, any::<i64>(), any::<bool>()).prop_map(|(r, n, s)| Write::Cells(r, n, s)),
        (0usize..8, 0i64..12, 0i64..3).prop_map(|(r, id, g)| Write::Rekey(r, id, g)),
        (0usize..8, 0i64..12, 0i64..3).prop_map(|(r, id, g)| Write::Replace(r, id, g)),
        (0usize..8).prop_map(Write::DeleteRestore),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            arb_write().prop_map(Op::Write),
            arb_write().prop_map(Op::Write),
            arb_write().prop_map(Op::Write),
            prop::collection::vec(arb_write(), 1..6).prop_map(Op::RolledBack),
            (0u8..12).prop_map(|n| if n == 0 { Op::Truncate } else { Op::Cut }),
        ],
        0..80,
    )
}

fn nth_live(table: &Table, n: usize) -> Option<RowId> {
    let live = table.row_ids();
    (!live.is_empty()).then(|| live[n % live.len()])
}

/// Apply one write, recording its inverse.
fn write(db: &mut Database, undo: &mut UndoLog, w: &Write) {
    let t = db.resolve("t").unwrap();
    let table = db.table_mut(t).unwrap();
    let pick = |table: &Table, n: usize| nth_live(table, n);
    match *w {
        Write::Insert(id, grp, n) => {
            if let Ok(rid) = table.insert(row(id, grp, n)) {
                undo.push(UndoOp::Insert { table: t, rid });
            }
        }
        Write::Cells(r, n, with_s) => {
            let Some(rid) = pick(table, r) else { return };
            let s = (n % 2 == 0).then(|| Value::Text(format!("w{}", n % 7)));
            let mut cells = vec![(2, Value::Int(n))];
            if with_s {
                cells.push((3, s.unwrap_or(Value::Null)));
            }
            table.set_cells(rid, &mut cells).unwrap();
            for (col, old) in cells {
                undo.push(UndoOp::Cell {
                    table: t,
                    rid,
                    col,
                    old,
                });
            }
        }
        Write::Rekey(r, id, grp) => {
            let Some(rid) = pick(table, r) else { return };
            let n = table.get(rid).unwrap()[2].as_int().unwrap();
            if let Ok(old) = table.update(rid, row(id, grp, n)) {
                undo.push(UndoOp::Update { table: t, rid, old });
            }
        }
        Write::Replace(r, id, grp) => {
            let Some(rid) = pick(table, r) else { return };
            let old = table.delete(rid).unwrap();
            undo.push(UndoOp::Delete {
                table: t,
                rid,
                row: old,
            });
            if let Ok(rid) = table.insert(row(id, grp, id)) {
                undo.push(UndoOp::Insert { table: t, rid });
            }
        }
        Write::DeleteRestore(r) => {
            let Some(rid) = pick(table, r) else { return };
            let old = table.delete(rid).unwrap();
            table.restore(rid, old).unwrap();
        }
    }
}

fn image(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    table.encode_binary(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn journal_replay_matches_live_bytes_at_every_cut(ops in arb_ops()) {
        let mut db = Database::new();
        let t = db.create_table("t", schema()).unwrap();
        let def = IndexDef { name: "by_grp".into(), key_cols: vec![1], unique: false };
        db.table_mut(t).unwrap().create_index(def).unwrap();
        let mut replica = db.table(t).unwrap().clone();
        db.table_mut(t).unwrap().set_journaling(true);

        for op in &ops {
            match op {
                Op::Write(w) => write(&mut db, &mut UndoLog::new(), w),
                Op::RolledBack(ws) => {
                    let mut undo = UndoLog::new();
                    for w in ws {
                        write(&mut db, &mut undo, w);
                    }
                    undo.rollback(&mut db).unwrap();
                }
                Op::Truncate => db.table_mut(t).unwrap().truncate(),
                Op::Cut => {
                    let live = db.table_mut(t).unwrap();
                    match live.dirt() {
                        TableDirt::Clean => {}
                        TableDirt::Ops(ops) => {
                            for op in &ops {
                                replica.apply_slot_op(op).unwrap();
                            }
                        }
                        TableDirt::Full => {
                            let bytes = image(live);
                            replica = Table::decode_binary(&mut codec::Reader::new(&bytes)).unwrap();
                        }
                    }
                    live.clear_journal();
                    prop_assert_eq!(image(&replica), image(live));
                }
            }
        }
    }
}
