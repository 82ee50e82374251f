//! Stream garbage collection.
//!
//! "Unlike regular tables, stream and window state has a short lifespan
//! determined by the queries accessing it. To support this, S-Store
//! provides automatic garbage collection mechanisms for tuples that expire
//! from stream or window state." (paper §2, Uniform State Management)
//!
//! Window GC is part of slide maintenance ([`crate::windows`]); this module
//! handles streams: once every downstream consumer of batch *b* has
//! committed, the partition engine advances the stream's watermark and the
//! tuples of batches `<= b` are deleted. GC runs post-commit, outside any
//! undo scope — the consumed tuples are recoverable from the command log
//! (upstream backup), never from the stream itself.

use sstore_common::{BatchId, Error, Result, TableId};
use sstore_storage::catalog::{TableKind, COL_BATCH};
use sstore_storage::{Database, RowId};

/// Delete all tuples of `stream` belonging to batches `<= up_to`, listing
/// them in the reused buffer `victims`. Advances the stream's GC
/// watermark. Returns the number of rows removed.
pub(crate) fn gc_stream(
    db: &mut Database,
    stream: TableId,
    up_to: BatchId,
    victims: &mut Vec<RowId>,
) -> Result<usize> {
    // Validate the object and locate the hidden batch column.
    let batch_pos = {
        let meta = db
            .catalog()
            .meta(stream)
            .ok_or_else(|| Error::NotFound(format!("stream {stream}")))?;
        if !meta.kind.is_stream() {
            return Err(Error::Internal(format!("`{}` is not a stream", meta.name)));
        }
        db.table(stream)?
            .schema()
            .column_index(COL_BATCH)
            .ok_or_else(|| Error::Internal(format!("stream {stream} missing {COL_BATCH}")))?
    };

    victims.clear();
    victims.extend(db.table(stream)?.scan().filter_map(|(rid, row)| {
        let b = row[batch_pos].as_int().ok()?;
        (b as u64 <= up_to.raw()).then_some(rid)
    }));
    let tb = db.table_mut(stream)?;
    for &rid in victims.iter() {
        tb.delete(rid)?;
    }

    if let Some(meta) = db.catalog_mut().meta_mut(stream) {
        if let TableKind::Stream(s) = &mut meta.kind {
            s.gc_watermark = Some(s.gc_watermark.map_or(up_to.raw(), |w| w.max(up_to.raw())));
        }
    }
    Ok(victims.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{Column, DataType, Schema, Value};

    /// The GC watermark `gc_stream` left in the stream's catalog entry.
    fn watermark(db: &Database, stream: TableId) -> Option<u64> {
        match db.kind(stream).unwrap() {
            TableKind::Stream(s) => s.gc_watermark,
            _ => panic!("{stream} is not a stream"),
        }
    }

    fn stream_db() -> (Database, TableId) {
        let mut db = Database::new();
        let schema = Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap();
        let s = db.create_stream("s", schema).unwrap();
        (db, s)
    }

    fn append(db: &mut Database, s: TableId, v: i64, batch: i64, seq: i64) {
        db.table_mut(s)
            .unwrap()
            .insert(vec![Value::Int(v), Value::Int(batch), Value::Int(seq)])
            .unwrap();
    }

    #[test]
    fn gc_removes_only_consumed_batches() {
        let (mut db, s) = stream_db();
        for (i, b) in [(1, 1), (2, 1), (3, 2), (4, 3)] {
            append(&mut db, s, i, b, i);
        }
        let removed = gc_stream(&mut db, s, BatchId::new(2), &mut Vec::new()).unwrap();
        assert_eq!(removed, 3);
        assert_eq!(db.table(s).unwrap().len(), 1);
        assert_eq!(watermark(&db, s), Some(2));
    }

    #[test]
    fn watermark_is_monotone() {
        let (mut db, s) = stream_db();
        append(&mut db, s, 1, 1, 1);
        gc_stream(&mut db, s, BatchId::new(5), &mut Vec::new()).unwrap();
        gc_stream(&mut db, s, BatchId::new(3), &mut Vec::new()).unwrap();
        assert_eq!(watermark(&db, s), Some(5));
    }

    #[test]
    fn gc_on_base_table_errors() {
        let mut db = Database::new();
        let schema = Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap();
        let t = db.create_table("t", schema).unwrap();
        assert!(gc_stream(&mut db, t, BatchId::new(1), &mut Vec::new()).is_err());
    }

    #[test]
    fn gc_empty_stream_is_noop() {
        let (mut db, s) = stream_db();
        assert_eq!(
            gc_stream(&mut db, s, BatchId::new(10), &mut Vec::new()).unwrap(),
            0
        );
    }
}
