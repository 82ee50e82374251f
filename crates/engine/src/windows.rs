//! Native window maintenance.
//!
//! Windows are tables with hidden `__seq`/`__ts` columns plus lifecycle
//! counters in the catalog ([`sstore_storage::catalog::WindowMeta`]). The
//! EE maintains them on every insert: assign sequence/timestamp, evict
//! expired tuples, and detect slide boundaries — all inside the running
//! transaction, with undo recorded for each step so aborts restore both
//! rows *and* counters exactly. The counters are saved by value, so an
//! insert copies no catalog entry.
//!
//! **Eviction is O(evicted), not O(window).** Each window keeps an
//! arrival-ordered deque of row ids (`TableMeta::arrivals`, front =
//! oldest). Sequence numbers increase strictly and `__ts` stamps come from
//! the partition's monotone logical clock, so every eviction predicate
//! (tuple cutoff, time expiry) selects a *prefix* of the deque: slide
//! maintenance pops from the front until the first survivor instead of
//! rescanning the whole window table per insert. Deque changes are
//! undo-logged (`WindowPushed`/`WindowPopped`) so aborts restore the
//! arrival order exactly; ad-hoc SQL deletes excise their entry through
//! the execution context.
//!
//! **Aggregates over a window are state, not scans.** The window's table
//! keeps grouped aggregate states (`sstore_storage::GroupedAggs`): the
//! zero-key one every window has, and one per `GROUP BY` key set a
//! deployed statement reads. The table's own mutators fold each inserted
//! row in and each evicted, deleted or rolled-back row out, so nothing
//! here touches them, and the plan walker answers such a `GROUP BY` (the
//! slide trigger's leaderboard refresh, say) from the state in O(groups).
//!
//! The paper contrasts native windows with emulating them in client SQL
//! over a plain table, which costs extra PE↔EE round trips per insert
//! (experiment E3b reproduces that comparison).

use sstore_common::{Error, Result, Row, TableId, Value};
use sstore_storage::catalog::{Catalog, TableKind, WindowKind};
use sstore_storage::{Database, RowId, UndoLog, UndoOp};

/// What happened during one window insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowInsert {
    /// Row id of the inserted tuple.
    pub rid: RowId,
    /// True if this insert crossed a slide boundary (slide triggers should
    /// fire after eviction).
    pub slid: bool,
    /// Tuples evicted by maintenance on this insert.
    pub evicted: usize,
}

/// Insert a visible row into a window, performing full maintenance.
///
/// `now` is the logical time used for the `__ts` stamp and for time-window
/// eviction/slide arithmetic.
pub fn insert_into_window(
    db: &mut Database,
    undo: &mut UndoLog,
    table: TableId,
    visible_row: impl Into<Row>,
    now: i64,
) -> Result<WindowInsert> {
    let meta = db
        .catalog_mut()
        .meta_mut(table)
        .ok_or_else(|| Error::NotFound(format!("window {table}")))?;
    let (seq_pos, ts_pos) = Catalog::window_hidden_positions(meta);
    let TableKind::Window(w) = &mut meta.kind else {
        return Err(Error::Internal(format!("`{}` is not a window", meta.name)));
    };
    // Save the lifecycle counters for undo, by value, before touching them.
    undo.push(UndoOp::Counters {
        table,
        next_seq: w.next_seq,
        total_inserted: w.total_inserted,
        pending: w.pending,
    });
    w.next_seq += 1;
    w.total_inserted += 1;
    let (kind, seq) = (w.spec.kind, w.next_seq);

    // Build the storage row: visible columns + __seq + __ts. The table's
    // own mutators keep its grouped aggregate states in step.
    let row = visible_row
        .into()
        .with_appended([Value::Int(seq as i64), Value::Timestamp(now)]);
    let rid = db.table_mut(table)?.insert(row)?;
    undo.push(UndoOp::Insert { table, rid });
    if let Some(meta) = db.catalog_mut().meta_mut(table) {
        meta.arrivals.push_back(rid);
    }
    undo.push(UndoOp::WindowPushed { table });

    // Slide/eviction bookkeeping.
    let mut slid = false;
    let mut evicted = 0usize;
    match kind {
        WindowKind::Tuple { size, slide } => {
            let (total, pending_after) = {
                let meta = db.catalog_mut().meta_mut(table).expect("checked");
                match &mut meta.kind {
                    TableKind::Window(w) => {
                        w.pending += 1;
                        (w.total_inserted, w.pending)
                    }
                    _ => unreachable!(),
                }
            };
            if total >= size && pending_after >= slide as i64 {
                slid = true;
                // Evict everything older than the newest `size` tuples.
                let cutoff = total as i64 - size as i64;
                evicted = evict(db, undo, table, |row| {
                    row[seq_pos].as_int().map(|s| s <= cutoff)
                })?;
                let meta = db.catalog_mut().meta_mut(table).expect("checked");
                if let TableKind::Window(w) = &mut meta.kind {
                    w.pending = 0;
                }
            }
        }
        WindowKind::Time { range, slide } => {
            // Evict expired tuples on every insert.
            let expiry = now - range;
            evicted = evict(db, undo, table, |row| {
                row[ts_pos].as_int().map(|t| t <= expiry)
            })?;
            let meta = db.catalog_mut().meta_mut(table).expect("checked");
            if let TableKind::Window(w) = &mut meta.kind {
                // `pending` holds the last slide time for time windows.
                if now - w.pending >= slide {
                    slid = true;
                    w.pending = now;
                }
            }
        }
    }

    Ok(WindowInsert { rid, slid, evicted })
}

/// Delete the expired prefix of the window's arrival deque — storage rows
/// matching `pred` — recording undo for both the rows and the deque.
/// Stops at the first surviving row (the predicate is monotone in arrival
/// order), so the cost is O(evicted), not O(window). Returns the eviction
/// count.
fn evict(
    db: &mut Database,
    undo: &mut UndoLog,
    table: TableId,
    pred: impl Fn(&Row) -> Result<bool>,
) -> Result<usize> {
    let mut n = 0usize;
    loop {
        let front: Option<RowId> = db
            .catalog()
            .meta(table)
            .and_then(|m| m.arrivals.front().copied());
        let Some(rid) = front else { break };
        // A stale entry (row already deleted out-of-band) is dropped and
        // skipped; a surviving row ends the prefix.
        let expired = match db.table(table)?.get(rid) {
            None => false,
            Some(row) => {
                if pred(row)? {
                    true
                } else {
                    break;
                }
            }
        };
        let meta = db.catalog_mut().meta_mut(table).expect("meta checked");
        meta.arrivals.pop_front();
        undo.push(UndoOp::WindowPopped { table, rid });
        if expired {
            let row = db.table_mut(table)?.delete(rid)?;
            undo.push(UndoOp::Delete { table, rid, row });
            n += 1;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{Column, DataType, Schema};
    use sstore_storage::catalog::WindowSpec;

    fn db_with_window(kind: WindowKind) -> (Database, TableId) {
        let mut db = Database::new();
        let schema = Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap();
        let w = db
            .create_window("w", schema, WindowSpec { kind, owner: None })
            .unwrap();
        (db, w)
    }

    fn contents(db: &Database, w: TableId) -> Vec<i64> {
        let mut vals: Vec<(i64, i64)> = db
            .table(w)
            .unwrap()
            .scan()
            .map(|(_, r)| (r[1].as_int().unwrap(), r[0].as_int().unwrap()))
            .collect();
        vals.sort_unstable();
        vals.into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn tuple_window_slides_and_evicts() {
        let (mut db, w) = db_with_window(WindowKind::Tuple { size: 3, slide: 1 });
        let mut undo = UndoLog::new();
        let mut slides = 0;
        for i in 0..5 {
            let r = insert_into_window(&mut db, &mut undo, w, vec![Value::Int(i)], i).unwrap();
            if r.slid {
                slides += 1;
            }
        }
        // Fires at the 3rd, 4th, 5th inserts.
        assert_eq!(slides, 3);
        assert_eq!(contents(&db, w), vec![2, 3, 4]);
    }

    #[test]
    fn tuple_window_with_slide_gap() {
        let (mut db, w) = db_with_window(WindowKind::Tuple { size: 4, slide: 2 });
        let mut undo = UndoLog::new();
        let mut slide_points = Vec::new();
        for i in 1..=8 {
            let r = insert_into_window(&mut db, &mut undo, w, vec![Value::Int(i)], i).unwrap();
            if r.slid {
                slide_points.push(i);
            }
        }
        // Full at 4; then every 2: fires at 4, 6, 8.
        assert_eq!(slide_points, vec![4, 6, 8]);
        assert_eq!(contents(&db, w), vec![5, 6, 7, 8]);
    }

    #[test]
    fn time_window_evicts_by_timestamp() {
        let (mut db, w) = db_with_window(WindowKind::Time {
            range: 100,
            slide: 50,
        });
        let mut undo = UndoLog::new();
        for (i, t) in [(1, 10i64), (2, 60), (3, 120), (4, 170)] {
            insert_into_window(&mut db, &mut undo, w, vec![Value::Int(i)], t).unwrap();
        }
        // At t=170, expiry=70: tuples at t=10 and t=60 are gone.
        assert_eq!(contents(&db, w), vec![3, 4]);
    }

    #[test]
    fn time_window_slide_cadence() {
        let (mut db, w) = db_with_window(WindowKind::Time {
            range: 1000,
            slide: 100,
        });
        let mut undo = UndoLog::new();
        let mut slides = Vec::new();
        for t in [50i64, 99, 100, 150, 199, 200, 301] {
            let r = insert_into_window(&mut db, &mut undo, w, vec![Value::Int(t)], t).unwrap();
            if r.slid {
                slides.push(t);
            }
        }
        // last_slide: 0 -> 100 -> 200 -> 301
        assert_eq!(slides, vec![100, 200, 301]);
    }

    #[test]
    fn abort_restores_rows_and_counters() {
        let (mut db, w) = db_with_window(WindowKind::Tuple { size: 2, slide: 1 });
        // Committed prefix: two tuples.
        let mut undo = UndoLog::new();
        insert_into_window(&mut db, &mut undo, w, vec![Value::Int(1)], 0).unwrap();
        insert_into_window(&mut db, &mut undo, w, vec![Value::Int(2)], 0).unwrap();
        undo.commit();
        let committed_kind = db.catalog().meta(w).unwrap().kind.clone();
        let committed = contents(&db, w);

        // Aborted TE: inserts that evict tuple 1.
        let mut undo = UndoLog::new();
        insert_into_window(&mut db, &mut undo, w, vec![Value::Int(3)], 0).unwrap();
        insert_into_window(&mut db, &mut undo, w, vec![Value::Int(4)], 0).unwrap();
        assert_eq!(contents(&db, w), vec![3, 4]);
        undo.rollback(&mut db).unwrap();

        assert_eq!(contents(&db, w), committed);
        assert_eq!(db.catalog().meta(w).unwrap().kind, committed_kind);
    }

    #[test]
    fn insert_into_non_window_errors() {
        let mut db = Database::new();
        let schema = Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap();
        let t = db.create_table("t", schema).unwrap();
        let mut undo = UndoLog::new();
        let err = insert_into_window(&mut db, &mut undo, t, vec![Value::Int(1)], 0).unwrap_err();
        assert_eq!(err.kind(), "internal");
    }
}
