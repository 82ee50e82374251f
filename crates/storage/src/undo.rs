//! Per-transaction undo log.
//!
//! Under H-Store-style serial execution there is no concurrency to isolate
//! against, but atomicity still requires rolling back a partially-executed
//! transaction on abort. Every mutation the execution engine performs
//! appends its inverse here; [`UndoLog::rollback`] applies them in reverse.

use crate::database::Database;
use sstore_common::{Result, Row, TableId};

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
    /// Stream/window lifecycle counters changed; undo restores the saved
    /// metadata blob. Saved as an opaque closure-free snapshot of the
    /// catalog kind so aborts also rewind sequence numbers.
    KindMeta {
        /// Table whose lifecycle metadata changed.
        table: TableId,
        /// The prior `TableKind` (with its embedded counters).
        prior: crate::catalog::TableKind,
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
            UndoOp::KindMeta { table, prior } => {
                if let Some(meta) = db.catalog_mut().meta_mut(table) {
                    meta.kind = prior;
                }
            }
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
        undo.push(UndoOp::KindMeta {
            table: sid,
            prior: prior.clone(),
        });
        // Mutate the stream counter.
        if let crate::catalog::TableKind::Stream(s) =
            &mut db.catalog_mut().meta_mut(sid).unwrap().kind
        {
            s.next_seq = 42;
        }
        undo.rollback(&mut db).unwrap();
        assert_eq!(db.catalog().meta(sid).unwrap().kind, prior);
    }
}
