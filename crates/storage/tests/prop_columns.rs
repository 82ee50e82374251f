//! Property tests for the resident column mirror: whatever the mutators,
//! undo rollback, truncation and journal replay do to a table, the live
//! lanes of every mirrored column hold exactly the cells a fresh
//! `column_batch` pivots out of the rows — same values, same NULLs, same
//! lane type — and the mirror never travels with a copy of the table.

use proptest::prelude::*;
use sstore_common::{codec, Column, DataType, Row, Schema, Value};
use sstore_storage::{Database, RowId, Table, TableDirt, UndoLog, UndoOp};
use sstore_vector::ColumnData;
use std::collections::BTreeSet;

const TYPES: [DataType; 6] = [
    DataType::Int,
    DataType::Int,
    DataType::Float,
    DataType::Text,
    DataType::Bool,
    DataType::Timestamp,
];

/// `id` is a primary key over a small domain, so inserts also fail (a
/// failed insert takes no slot).
fn schema() -> Schema {
    let names = ["id", "a", "f", "s", "b", "t"];
    let cols = names
        .iter()
        .zip(TYPES)
        .map(|(n, ty)| {
            if *n == "id" {
                Column::new(*n, ty)
            } else {
                Column::nullable(*n, ty)
            }
        })
        .collect();
    Schema::new(cols, &["id"]).unwrap()
}

/// The five nullable cells of a row, drawn from one tuple: `nulls` masks
/// cells out, the rest derive from `i`, `f` and `s`.
#[derive(Debug, Clone)]
struct Cells {
    nulls: u8,
    i: i64,
    f: f64,
    s: u8,
}

impl Cells {
    fn row(&self, id: i64) -> Row {
        let cell = |bit: u8, v: Value| {
            if self.nulls & (1 << bit) != 0 && self.nulls & (1 << (bit + 3)) != 0 {
                Value::Null
            } else {
                v
            }
        };
        Row::new(vec![
            Value::Int(id),
            cell(0, Value::Int(self.i)),
            cell(1, Value::Float(self.f)),
            cell(2, Value::Text(format!("s{}", self.s))),
            cell(3, Value::Bool(self.i & 1 == 1)),
            cell(4, Value::Timestamp(self.i.wrapping_mul(3))),
        ])
    }
}

fn arb_cells() -> impl Strategy<Value = Cells> {
    (any::<u8>(), any::<i64>(), any::<f64>(), 0u8..4).prop_map(|(nulls, i, f, s)| Cells {
        nulls,
        i,
        f,
        s,
    })
}

/// A mutation that undo can reverse.
#[derive(Debug, Clone)]
enum Write {
    Insert(i64, Cells),
    /// Update / delete the `n`-th live row (modulo the live count).
    Update(usize, Cells),
    Delete(usize),
}

#[derive(Debug, Clone)]
enum Op {
    Write(Write),
    /// Run the writes under an undo log, then roll all of them back.
    RolledBack(Vec<Write>),
    Truncate,
    /// Try to put a cell of the wrong type into column `c` of the `n`-th
    /// live row through `restore`, which checks its row as `insert` does,
    /// then restore the row itself.
    Misfit(usize, usize),
    /// A vector scan asks for these columns (bit `c` = column `c`).
    Request(u8),
    /// The same, on the replica that follows by journal replay.
    RequestReplica(u8),
    /// Ship the journal to the replica.
    Replay,
}

fn arb_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        (0i64..24, arb_cells()).prop_map(|(id, c)| Write::Insert(id, c)),
        (0i64..24, arb_cells()).prop_map(|(id, c)| Write::Insert(id, c)),
        (0usize..64, arb_cells()).prop_map(|(n, c)| Write::Update(n, c)),
        (0usize..64).prop_map(Write::Delete),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            arb_write().prop_map(Op::Write),
            arb_write().prop_map(Op::Write),
            arb_write().prop_map(Op::Write),
            arb_write().prop_map(Op::Write),
            prop::collection::vec(arb_write(), 1..6).prop_map(Op::RolledBack),
            (0usize..64, 1usize..6).prop_map(|(n, c)| Op::Misfit(n, c)),
            (0u8..20).prop_map(|n| if n == 0 { Op::Truncate } else { Op::Replay }),
            any::<u8>().prop_map(Op::Request),
            any::<u8>().prop_map(Op::RequestReplica),
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
    match w {
        Write::Insert(id, cells) => {
            if let Ok(rid) = db.table_mut(t).unwrap().insert(cells.row(*id)) {
                undo.push(UndoOp::Insert { table: t, rid });
            }
        }
        Write::Update(n, cells) => {
            if let Some(rid) = nth_live(db.table(t).unwrap(), *n) {
                let id = db.table(t).unwrap().get(rid).unwrap()[0].as_int().unwrap();
                let old = db.table_mut(t).unwrap().update(rid, cells.row(id)).unwrap();
                undo.push(UndoOp::Update { table: t, rid, old });
            }
        }
        Write::Delete(n) => {
            if let Some(rid) = nth_live(db.table(t).unwrap(), *n) {
                let row = db.table_mut(t).unwrap().delete(rid).unwrap();
                undo.push(UndoOp::Delete { table: t, rid, row });
            }
        }
    }
}

/// A value no schema validation would let into a column of type `ty`.
fn misfit_for(ty: DataType) -> Value {
    match ty {
        DataType::Text => Value::Int(7),
        _ => Value::Text("odd".into()),
    }
}

fn lane_type(data: &ColumnData) -> DataType {
    match data {
        ColumnData::Int(_) => DataType::Int,
        ColumnData::Float(_) => DataType::Float,
        ColumnData::Bool(_) => DataType::Bool,
        ColumnData::Text(_) => DataType::Text,
        ColumnData::Timestamp(_) => DataType::Timestamp,
    }
}

/// Exact cell identity: `Value`'s own equality calls `Int(1)` and
/// `Float(1.0)` equal, and NaN must equal itself here.
fn same_cell(a: &Value, b: &Value) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The lanes a vector scan of `table` starts from, by its liveness mask,
/// after checking the mask flags exactly the slots that hold a row.
fn live_lanes(table: &Table) -> Vec<u32> {
    let lanes = table.lanes();
    match table.live_mask() {
        None => {
            assert_eq!(table.len(), lanes, "no mask, yet a free slot");
            (0..lanes as u32).collect()
        }
        Some(mask) => {
            assert_eq!(mask.len(), lanes, "one flag per slot");
            for (i, &live) in mask.iter().enumerate() {
                assert_eq!(live, table.get(i as RowId).is_some(), "slot {i}");
            }
            sstore_vector::compute::bool_to_sel(mask)
        }
    }
}

/// The invariant. `requested` are the columns some scan has asked this
/// table for: each is a lane of its declared type, as the pivot's is, and
/// its live lanes hold the pivot's cells.
fn check(table: &Table, requested: &BTreeSet<usize>) {
    assert_eq!(table.mirrored_columns(), requested.len());
    let needed: Vec<usize> = requested.iter().copied().collect();
    let fresh = table.column_batch(Some(&needed));
    let live = live_lanes(table);
    assert_eq!(live.len(), fresh.rows);
    for &c in &needed {
        let lane = table.column(c);
        assert_eq!(lane.len(), table.lanes(), "one lane per slot");
        let gathered = lane.gather(&live);
        let want = fresh.column(c);
        for i in 0..fresh.rows {
            let (got, want) = (gathered.value_at(i), want.value_at(i));
            assert!(
                same_cell(&got, &want),
                "column {c} row {i}: mirror {got:?}, pivot {want:?}"
            );
            assert_eq!(gathered.is_null_at(i), want.is_null());
        }
        assert_eq!(lane_type(&lane.data), TYPES[c]);
        assert_eq!(lane_type(&want.data), TYPES[c]);
    }
}

fn request(table: &Table, mask: u8, requested: &mut BTreeSet<usize>) {
    for c in 0..6 {
        if mask & (1 << c) != 0 {
            table.column(c);
            requested.insert(c);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mirror_live_lanes_equal_a_fresh_pivot(ops in arb_ops()) {
        let mut db = Database::new();
        let t = db.create_table("t", schema()).unwrap();
        db.table_mut(t).unwrap().set_journaling(true);
        let mut replica = Table::new("t", schema());
        let (mut requested, mut replica_requested) = (BTreeSet::new(), BTreeSet::new());

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
                Op::Truncate => {
                    db.table_mut(t).unwrap().truncate();
                }
                Op::Misfit(n, c) => {
                    let table = db.table_mut(t).unwrap();
                    if let Some(rid) = nth_live(table, *n) {
                        let row = table.delete(rid).unwrap();
                        let mut cells = row.to_values();
                        cells[*c] = misfit_for(TYPES[*c]);
                        let err = table.restore(rid, Row::new(cells)).unwrap_err();
                        prop_assert_eq!(err.kind(), "type_mismatch");
                        prop_assert!(table.get(rid).is_none(), "a refused row takes no slot");
                        table.restore(rid, row).unwrap();
                    }
                }
                Op::Request(mask) => request(db.table(t).unwrap(), *mask, &mut requested),
                Op::RequestReplica(mask) => request(&replica, *mask, &mut replica_requested),
                Op::Replay => {
                    let live = db.table_mut(t).unwrap();
                    match live.dirt() {
                        TableDirt::Clean => {}
                        TableDirt::Ops(ops) => {
                            for op in &ops {
                                replica.apply_slot_op(op).unwrap();
                            }
                        }
                        // Journal overflow: ship a full image instead. A
                        // decoded table starts without a mirror.
                        TableDirt::Full => {
                            let mut image = Vec::new();
                            live.encode_binary(&mut image);
                            replica = Table::decode_binary(&mut codec::Reader::new(&image)).unwrap();
                            prop_assert_eq!(replica.mirrored_columns(), 0);
                            replica_requested.clear();
                        }
                    }
                    live.clear_journal();
                }
            }
            check(db.table(t).unwrap(), &requested);
            check(&replica, &replica_requested);
        }

        // A copy of the table is a copy of its state, not of its mirror.
        let table = db.table(t).unwrap();
        prop_assert_eq!(table.clone().mirrored_columns(), 0);
        let mut image = Vec::new();
        table.encode_binary(&mut image);
        let back = Table::decode_binary(&mut codec::Reader::new(&image)).unwrap();
        prop_assert_eq!(back.mirrored_columns(), 0);
        let mut all = BTreeSet::new();
        request(&back, 0xff, &mut all);
        check(&back, &all);
    }
}

/// A write to the (id, s) table of the TEXT property: `s` is NULL or the
/// `k`-th string of the case's alphabet.
#[derive(Debug, Clone)]
enum TextWrite {
    Insert(i64, Option<u16>),
    /// Update / delete the `n`-th live row (modulo the live count).
    Update(usize, Option<u16>),
    Delete(usize),
}

#[derive(Debug, Clone)]
enum TextOp {
    Write(TextWrite),
    /// Run the writes under an undo log, then roll all of them back.
    RolledBack(Vec<TextWrite>),
    /// Delete the `n`-th live row and restore it into its slot.
    Restore(usize),
}

/// A string's index in the alphabet, or NULL one time in four.
fn arb_text() -> impl Strategy<Value = Option<u16>> {
    prop_oneof![
        (0u16..10_000).prop_map(Some),
        (0u16..10_000).prop_map(Some),
        (0u16..10_000).prop_map(Some),
        Just(None),
    ]
}

fn arb_text_write() -> impl Strategy<Value = TextWrite> {
    prop_oneof![
        (0i64..48, arb_text()).prop_map(|(id, s)| TextWrite::Insert(id, s)),
        (0usize..64, arb_text()).prop_map(|(n, s)| TextWrite::Update(n, s)),
        (0usize..64).prop_map(TextWrite::Delete),
    ]
}

fn arb_text_ops() -> impl Strategy<Value = Vec<TextOp>> {
    prop::collection::vec(
        prop_oneof![
            arb_text_write().prop_map(TextOp::Write),
            arb_text_write().prop_map(TextOp::Write),
            arb_text_write().prop_map(TextOp::Write),
            prop::collection::vec(arb_text_write(), 1..6).prop_map(TextOp::RolledBack),
            (0usize..64).prop_map(TextOp::Restore),
        ],
        0..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A TEXT lane under every mutator holds, slot by slot, what a
    /// `Vec<String>` model of the slots holds, equals the cold pivot on its
    /// live lanes, and keeps exactly one dictionary entry per distinct
    /// string in its cells, so never more entries than cells. Strings come
    /// from a 4-string or a 10 000-string alphabet.
    #[test]
    fn text_lane_matches_pivot_and_model_with_a_bounded_dictionary(
        ops in arb_text_ops(),
        wide in any::<bool>(),
    ) {
        let text = |k: Option<u16>| match k {
            None => Value::Null,
            Some(k) if wide => Value::Text(format!("w{k}")),
            Some(k) => Value::Text(format!("s{}", k % 4)),
        };
        let schema = Schema::new(
            vec![Column::new("id", DataType::Int), Column::nullable("s", DataType::Text)],
            &["id"],
        )
        .unwrap();
        let mut db = Database::new();
        let t = db.create_table("t", schema).unwrap();
        db.table(t).unwrap().column(1);
        // Slot → its cell; `None` = a free slot.
        let mut model: Vec<Option<Value>> = Vec::new();

        let apply = |db: &mut Database, undo: &mut UndoLog, model: &mut Vec<Option<Value>>, w: &TextWrite| {
            let table = db.table_mut(t).unwrap();
            match w {
                TextWrite::Insert(id, k) => {
                    let cell = text(*k);
                    let row = Row::new(vec![Value::Int(*id), cell.clone()]);
                    let inserted = table.insert(row);
                    // One model cell per slot; a refused insert takes none.
                    model.resize(table.lanes(), None);
                    if let Ok(rid) = inserted {
                        undo.push(UndoOp::Insert { table: t, rid });
                        model[rid as usize] = Some(cell);
                    }
                }
                TextWrite::Update(n, k) => {
                    if let Some(rid) = nth_live(table, *n) {
                        let cell = text(*k);
                        let id = table.get(rid).unwrap()[0].clone();
                        let old = table.update(rid, Row::new(vec![id, cell.clone()])).unwrap();
                        undo.push(UndoOp::Update { table: t, rid, old });
                        model[rid as usize] = Some(cell);
                    }
                }
                TextWrite::Delete(n) => {
                    if let Some(rid) = nth_live(table, *n) {
                        let row = table.delete(rid).unwrap();
                        undo.push(UndoOp::Delete { table: t, rid, row });
                        model[rid as usize] = None;
                    }
                }
            }
        };

        for op in &ops {
            match op {
                TextOp::Write(w) => apply(&mut db, &mut UndoLog::new(), &mut model, w),
                TextOp::RolledBack(ws) => {
                    let before = model.clone();
                    let mut undo = UndoLog::new();
                    for w in ws {
                        apply(&mut db, &mut undo, &mut model, w);
                    }
                    undo.rollback(&mut db).unwrap();
                    // Slots a rolled-back insert added stay, free.
                    let lanes = model.len();
                    model = before;
                    model.resize(lanes, None);
                }
                TextOp::Restore(n) => {
                    let table = db.table_mut(t).unwrap();
                    if let Some(rid) = nth_live(table, *n) {
                        let row = table.delete(rid).unwrap();
                        table.restore(rid, row).unwrap();
                    }
                }
            }

            let table = db.table(t).unwrap();
            let col = table.column(1);
            let ColumnData::Text(lane) = &col.data else {
                panic!("the lane stays TEXT: {:?}", col.data)
            };
            prop_assert_eq!(col.len(), model.len());
            for (i, cell) in model.iter().enumerate() {
                match cell {
                    Some(v) => prop_assert_eq!(&col.value_at(i), v, "slot {}", i),
                    // A free slot holds the empty string, not its last one.
                    None => prop_assert_eq!(lane.get(i), ""),
                }
            }
            let live = live_lanes(table);
            let pivot = table.column_batch(Some(&[1]));
            let gathered = col.gather(&live);
            for r in 0..pivot.rows {
                prop_assert_eq!(gathered.value_at(r), pivot.column(1).value_at(r));
            }
            let distinct: BTreeSet<u32> = lane.codes().iter().copied().collect();
            prop_assert_eq!(lane.dict().len(), distinct.len());
            prop_assert!(lane.dict().len() <= col.len());
        }
    }
}

/// `restore` refuses a cell its FLOAT column does not hold before it
/// touches the slot, so the lane and the pivot both stay FLOAT.
#[test]
fn float_lane_refuses_a_misfit_like_the_pivot() {
    let mut table = Table::new("t", schema());
    for id in 0..4 {
        let cells = Cells {
            nulls: if id == 2 { 0xff } else { 0 },
            i: id,
            f: id as f64 / 2.0,
            s: 0,
        };
        table.insert(cells.row(id)).unwrap();
    }
    let before = table.column(2).clone();
    assert!(matches!(before.data, ColumnData::Float(_)));
    let row = table.delete(1).unwrap();
    let mut cells = row.to_values();
    cells[2] = Value::Text("odd".into());
    let err = table.restore(1, Row::new(cells)).unwrap_err();
    assert_eq!(err.kind(), "type_mismatch");
    table.restore(1, row).unwrap();
    assert_eq!(table.column(2), &before);
    let pivot = table.column_batch(Some(&[2]));
    assert!(matches!(pivot.column(2).data, ColumnData::Float(_)));
}

/// No mutator lets a cell its column does not hold reach a lane: `insert`,
/// `update`, `restore` and delta replay (`apply_slot_op`) each coerce the
/// cell to the column's type (INT to FLOAT, INT and TIMESTAMP both ways)
/// or refuse the row, and a refused row changes nothing. This is what lets
/// the mirror build and patch its lanes without a check.
#[test]
fn no_mutator_lets_a_misfit_reach_a_lane() {
    use sstore_storage::SlotOp;
    // id, a INT, f FLOAT, s TEXT, b BOOL, t TIMESTAMP.
    let row = |id: i64, a: Value, f: Value, t: Value| {
        Row::new(vec![
            Value::Int(id),
            a,
            f,
            Value::Text("x".into()),
            Value::Null,
            t,
        ])
    };
    let ok = |id| row(id, Value::Timestamp(5), Value::Int(2), Value::Int(9));
    let misfits = |id| {
        [
            row(id, Value::Text("5".into()), Value::Null, Value::Null),
            row(id, Value::Null, Value::Bool(true), Value::Null),
            row(id, Value::Null, Value::Null, Value::Float(9.0)),
            Row::new(vec![Value::Null; 6]),
        ]
    };
    let mut table = Table::new("t", schema());
    let all: BTreeSet<usize> = (0..6).collect();
    request(&table, 0x3f, &mut BTreeSet::new());
    let unchanged = |table: &Table, before: &[sstore_vector::Column]| {
        for (c, lane) in before.iter().enumerate() {
            assert_eq!(table.column(c), lane, "column {c}");
        }
        check(table, &all);
    };
    let lanes = |table: &Table| (0..6).map(|c| table.column(c).clone()).collect::<Vec<_>>();

    let rid = table.insert(ok(1)).unwrap();
    table.insert(ok(2)).unwrap();
    let coerced = [Value::Int(5), Value::Float(2.0), Value::Timestamp(9)];
    for (c, want) in [1, 2, 5].into_iter().zip(&coerced) {
        assert!(same_cell(&table.get(rid).unwrap()[c], want));
        assert!(same_cell(&table.column(c).value_at(rid as usize), want));
    }
    let before = lanes(&table);
    for bad in misfits(3) {
        assert!(table.insert(bad.clone()).is_err(), "insert {bad:?}");
        assert!(table.update(rid, bad.clone()).is_err(), "update {bad:?}");
        let replay = [
            SlotOp::Insert {
                rid: 2,
                row: bad.clone(),
            },
            SlotOp::Update {
                rid,
                row: bad.clone(),
            },
        ];
        for op in replay {
            assert!(table.apply_slot_op(&op).is_err(), "replay {op:?}");
        }
    }
    assert_eq!((table.len(), table.lanes()), (2, 2));
    unchanged(&table, &before);

    let old = table.delete(rid).unwrap();
    let before = lanes(&table);
    for bad in misfits(1) {
        assert!(table.restore(rid, bad.clone()).is_err(), "restore {bad:?}");
        let op = SlotOp::Restore { rid, row: bad };
        assert!(table.apply_slot_op(&op).is_err(), "replay {op:?}");
    }
    unchanged(&table, &before);
    let restored = SlotOp::Restore { rid, row: ok(1) };
    table.apply_slot_op(&restored).unwrap();
    assert_eq!(table.get(rid), Some(&old));
    check(&table, &all);
}
