//! Per-transaction undo log.
//!
//! Under H-Store-style serial execution there is no concurrency to isolate
//! against, but atomicity still requires rolling back a partially-executed
//! transaction on abort. Every mutation the execution engine performs
//! appends its inverse here; [`UndoLog::rollback`] applies them in reverse.

use crate::catalog::TableKind;
use crate::database::Database;
use sstore_common::{Result, Row, TableId, Value};

use crate::index::RowId;

/// The inverse of one storage mutation.
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// A row was inserted; undo deletes it.
    Insert {
        /// Table the row went into.
        table: TableId,
        /// Slot the row occupies.
        rid: RowId,
    },
    /// A row was deleted; undo restores it into its original slot.
    Delete {
        /// Table the row came from.
        table: TableId,
        /// Original slot.
        rid: RowId,
        /// The deleted row.
        row: Row,
    },
    /// A row was updated; undo writes the old image back.
    Update {
        /// Table containing the row.
        table: TableId,
        /// Slot of the row.
        rid: RowId,
        /// Pre-update image.
        old: Row,
    },
    /// Cells of a base-table row were overwritten in place
    /// ([`Table::set_cells`](crate::Table::set_cells)); undo writes the
    /// old cell back. One per overwritten cell.
    Cell {
        /// Table containing the row.
        table: TableId,
        /// Slot of the row.
        rid: RowId,
        /// The overwritten column.
        col: usize,
        /// Its value before the write.
        old: Value,
    },
    /// A stream's or window's lifecycle counters changed; undo writes
    /// their prior values back, so aborts also rewind sequence numbers. A
    /// stream has only `next_seq`.
    Counters {
        /// The stream or window.
        table: TableId,
        /// Prior next sequence number.
        next_seq: u64,
        /// Prior count of tuples ever inserted (windows).
        total_inserted: u64,
        /// Prior pending count or last slide time (windows).
        pending: i64,
    },
    /// A window arrival was recorded (deque push_back); undo pops it.
    WindowPushed {
        /// The window table.
        table: TableId,
    },
    /// A window evicted its oldest arrival (deque pop_front); undo pushes
    /// the entry back to the front (LIFO replay restores original order).
    WindowPopped {
        /// The window table.
        table: TableId,
        /// The popped row id.
        rid: RowId,
    },
    /// An out-of-band delete excised an arrival from the middle of the
    /// deque; undo reinserts it at its original position.
    WindowExcised {
        /// The window table.
        table: TableId,
        /// The excised row id.
        rid: RowId,
        /// Its index in the deque before excision.
        pos: usize,
    },
}

/// Append-only undo log for one transaction execution.
#[derive(Debug, Default)]
pub struct UndoLog {
    ops: Vec<UndoOp>,
}

impl UndoLog {
    /// Empty log.
    pub fn new() -> Self {
        UndoLog::default()
    }

    /// Record one inverse operation.
    #[inline]
    pub fn push(&mut self, op: UndoOp) {
        self.ops.push(op);
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Undo the entire transaction, newest first, emptying the log.
    pub fn rollback(&mut self, db: &mut Database) -> Result<()> {
        while let Some(op) = self.ops.pop() {
            Self::apply(db, op)?;
        }
        Ok(())
    }

    /// Commit: empty the log without applying anything.
    pub fn commit(&mut self) {
        self.ops.clear();
    }

    fn apply(db: &mut Database, op: UndoOp) -> Result<()> {
        match op {
            UndoOp::Insert { table, rid } => {
                db.table_mut(table)?.delete(rid)?;
            }
            UndoOp::Delete { table, rid, row } => {
                db.table_mut(table)?.restore(rid, row)?;
            }
            UndoOp::Update { table, rid, old } => {
                db.table_mut(table)?.update(rid, old)?;
            }
            UndoOp::Cell {
                table,
                rid,
                col,
                old,
            } => {
                db.table_mut(table)?.set_cells(rid, &mut [(col, old)])?;
            }
            UndoOp::Counters {
                table,
                next_seq,
                total_inserted,
                pending,
            } => match db.catalog_mut().meta_mut(table).map(|m| &mut m.kind) {
                Some(TableKind::Stream(s)) => s.next_seq = next_seq,
                Some(TableKind::Window(w)) => {
                    (w.next_seq, w.total_inserted, w.pending) = (next_seq, total_inserted, pending)
                }
                _ => {}
            },
            UndoOp::WindowPushed { table } => {
                if let Some(meta) = db.catalog_mut().meta_mut(table) {
                    meta.arrivals.pop_back();
                }
            }
            UndoOp::WindowPopped { table, rid } => {
                if let Some(meta) = db.catalog_mut().meta_mut(table) {
                    meta.arrivals.push_front(rid);
                }
            }
            UndoOp::WindowExcised { table, rid, pos } => {
                if let Some(meta) = db.catalog_mut().meta_mut(table) {
                    let pos = pos.min(meta.arrivals.len());
                    meta.arrivals.insert(pos, rid);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{Column, DataType, Schema, Value};

    fn db_with_table() -> (Database, TableId) {
        let mut db = Database::new();
        let schema = Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("v", DataType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let id = db.create_table("t", schema).unwrap();
        (db, id)
    }

    fn row(id: i64, v: i64) -> Row {
        vec![Value::Int(id), Value::Int(v)].into()
    }

    #[test]
    fn rollback_insert() {
        let (mut db, t) = db_with_table();
        let mut undo = UndoLog::new();
        let rid = db.table_mut(t).unwrap().insert(row(1, 10)).unwrap();
        undo.push(UndoOp::Insert { table: t, rid });
        undo.rollback(&mut db).unwrap();
        assert!(db.table(t).unwrap().is_empty());
    }

    #[test]
    fn rollback_delete_restores_exact_slot() {
        let (mut db, t) = db_with_table();
        let rid = db.table_mut(t).unwrap().insert(row(1, 10)).unwrap();
        let mut undo = UndoLog::new();
        let old = db.table_mut(t).unwrap().delete(rid).unwrap();
        undo.push(UndoOp::Delete {
            table: t,
            rid,
            row: old,
        });
        undo.rollback(&mut db).unwrap();
        let table = db.table(t).unwrap();
        assert_eq!(table.get(rid).unwrap()[1], Value::Int(10));
        assert_eq!(table.pk_lookup(&[Value::Int(1)]), Some(rid));
    }

    #[test]
    fn rollback_update_restores_old_image() {
        let (mut db, t) = db_with_table();
        let rid = db.table_mut(t).unwrap().insert(row(1, 10)).unwrap();
        let mut undo = UndoLog::new();
        let old = db.table_mut(t).unwrap().update(rid, row(1, 20)).unwrap();
        undo.push(UndoOp::Update { table: t, rid, old });
        undo.rollback(&mut db).unwrap();
        assert_eq!(db.table(t).unwrap().get(rid).unwrap()[1], Value::Int(10));
    }

    #[test]
    fn rollback_order_is_lifo() {
        // insert then update the same row: undo must reverse the update
        // first, then the insert — otherwise delete of rid fails.
        let (mut db, t) = db_with_table();
        let mut undo = UndoLog::new();
        let rid = db.table_mut(t).unwrap().insert(row(1, 10)).unwrap();
        undo.push(UndoOp::Insert { table: t, rid });
        let old = db.table_mut(t).unwrap().update(rid, row(1, 30)).unwrap();
        undo.push(UndoOp::Update { table: t, rid, old });
        undo.rollback(&mut db).unwrap();
        assert!(db.table(t).unwrap().is_empty());
    }

    #[test]
    fn kind_meta_rollback_restores_counters() {
        let mut db = Database::new();
        let schema = Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap();
        let sid = db.create_stream("s", schema).unwrap();
        let prior = db.catalog().meta(sid).unwrap().kind.clone();
        let mut undo = UndoLog::new();
        undo.push(UndoOp::Counters {
            table: sid,
            next_seq: 0,
            total_inserted: 0,
            pending: 0,
        });
        // Mutate the stream counter.
        if let TableKind::Stream(s) = &mut db.catalog_mut().meta_mut(sid).unwrap().kind {
            s.next_seq = 42;
        }
        undo.rollback(&mut db).unwrap();
        assert_eq!(db.catalog().meta(sid).unwrap().kind, prior);
    }

    #[test]
    fn rollback_cell_writes_restores_the_row_and_its_lane() {
        let (mut db, t) = db_with_table();
        let rid = db.table_mut(t).unwrap().insert(row(1, 10)).unwrap();
        assert_eq!(
            db.table(t).unwrap().column(1).value_at(rid as usize),
            Value::Int(10)
        );
        let mut undo = UndoLog::new();
        let mut cells = [(1, Value::Int(20))];
        db.table_mut(t).unwrap().set_cells(rid, &mut cells).unwrap();
        assert_eq!(cells[0].1, Value::Int(10), "the old cell comes back");
        let [(col, old)] = cells;
        undo.push(UndoOp::Cell {
            table: t,
            rid,
            col,
            old,
        });
        let table = db.table(t).unwrap();
        assert_eq!(table.get(rid).unwrap()[1], Value::Int(20));
        assert_eq!(table.column(1).value_at(rid as usize), Value::Int(20));
        undo.rollback(&mut db).unwrap();
        let table = db.table(t).unwrap();
        assert_eq!(table.get(rid).unwrap()[1], Value::Int(10));
        assert_eq!(table.column(1).value_at(rid as usize), Value::Int(10));
        // A key column is written through `update`, never in place.
        let e = db
            .table_mut(t)
            .unwrap()
            .set_cells(rid, &mut [(0, Value::Int(2))]);
        assert_eq!(e.unwrap_err().kind(), "internal");
    }
}
