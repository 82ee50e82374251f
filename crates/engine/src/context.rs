//! The EE's transactional execution context.
//!
//! `EeContext` is the [`ExecContext`] implementation the SQL executor
//! runs against inside a transaction execution. It:
//!
//! * records undo for every mutation (atomic aborts);
//! * stamps stream inserts with `(__batch, __seq)` and collects them as the
//!   TE's output batches (consumed by PE triggers at commit);
//! * routes window inserts through native window maintenance;
//! * enforces the **scope rule**: a window may only be touched by TEs of
//!   its owning stored procedure (paper §2);
//! * queues EE trigger firings, which the engine drains *within the same
//!   transaction* — the paper's mechanism for avoiding PE↔EE round trips.

use crate::stats::EeStats;
use crate::triggers::{TriggerEvent, TriggerRegistry};
use crate::windows;
use sstore_common::{BatchId, Error, ProcId, Result, Row, TableId, Value};
use sstore_sql::exec::ExecContext;
use sstore_sql::ExecPath;
use sstore_storage::catalog::TableKind;
use sstore_storage::{Database, RowId, UndoLog, UndoOp};
use std::collections::VecDeque;

/// One queued EE trigger firing.
#[derive(Debug, Clone)]
pub(crate) struct PendingFire {
    /// Index into the trigger registry.
    pub trigger: usize,
    /// Statement parameters (the inserted row for insert triggers — a
    /// shared handle, not a copy; empty for slide triggers).
    pub params: Row,
    /// Cascade depth (insert → trigger → insert → trigger ...).
    pub depth: u32,
}

/// Tunables shared by the context and the engine.
#[derive(Debug, Clone)]
pub struct EeConfig {
    /// Master switch for EE triggers (ablation E3b). When off, stream and
    /// window inserts never enqueue trigger work.
    pub ee_triggers_enabled: bool,
    /// The mode SELECT plans run in (column lanes where an operator
    /// consumes them, or rows only); `ExecutionEngine::set_exec_path`
    /// changes it.
    pub exec_path: ExecPath,
}

impl Default for EeConfig {
    fn default() -> Self {
        EeConfig {
            ee_triggers_enabled: true,
            exec_path: ExecPath::default(),
        }
    }
}

/// The per-statement execution context (see module docs).
pub(crate) struct EeContext<'a> {
    /// Partition data.
    pub db: &'a mut Database,
    /// Undo log of the enclosing transaction execution.
    pub undo: &'a mut UndoLog,
    /// Engine counters.
    pub stats: &'a mut EeStats,
    /// Registered EE triggers.
    pub registry: &'a TriggerRegistry,
    /// Engine configuration.
    pub config: &'a EeConfig,
    /// Logical time of the statement.
    pub now: i64,
    /// The stored procedure this TE runs (None for ad-hoc statements).
    pub proc: Option<ProcId>,
    /// The TE's input batch id; stream inserts inherit it.
    pub batch: BatchId,
    /// Visible rows appended to each stream during this TE (output batches).
    pub appended: &'a mut Vec<(TableId, Row)>,
    /// Trigger firings awaiting execution (the engine's buffer).
    pub queue: &'a mut VecDeque<PendingFire>,
    /// Current cascade depth (0 = statement issued by the PE).
    pub depth: u32,
}

impl EeContext<'_> {
    fn scope_check(&self, table: TableId) -> Result<()> {
        if let Ok(TableKind::Window(w)) = self.db.kind(table) {
            if let Some(owner) = w.spec.owner {
                if self.proc != Some(owner) {
                    let name = self
                        .db
                        .catalog()
                        .meta(table)
                        .map(|m| m.name.clone())
                        .unwrap_or_default();
                    return Err(Error::Scope(format!(
                        "window `{name}` is scoped to {owner}; access from {:?} denied",
                        self.proc
                    )));
                }
            }
        }
        Ok(())
    }

    fn enqueue(&mut self, table: TableId, event: TriggerEvent, params: &Row) {
        if !self.config.ee_triggers_enabled {
            return;
        }
        for t in self.registry.matching(table, event) {
            self.queue.push_back(PendingFire {
                trigger: t,
                params: params.clone(),
                depth: self.depth + 1,
            });
        }
    }
}

impl ExecContext for EeContext<'_> {
    fn db(&self) -> &Database {
        self.db
    }

    fn now(&self) -> i64 {
        self.now
    }

    fn check_read(&self, table: TableId) -> Result<()> {
        self.scope_check(table)
    }

    fn check_write(&self, table: TableId) -> Result<()> {
        self.scope_check(table)
    }

    fn insert_visible(&mut self, table: TableId, row: Row) -> Result<RowId> {
        let kind = self.db.catalog_mut().meta_mut(table).map(|m| &mut m.kind);
        match kind.ok_or_else(|| Error::NotFound(format!("table {table}")))? {
            TableKind::Base => {
                let rid = self.db.table_mut(table)?.insert(row)?;
                self.undo.push(UndoOp::Insert { table, rid });
                Ok(rid)
            }
            TableKind::Stream(s) => {
                // Rewind the counter on abort.
                self.undo.push(UndoOp::Counters {
                    table,
                    next_seq: s.next_seq,
                    total_inserted: 0,
                    pending: 0,
                });
                s.next_seq += 1;
                let seq = s.next_seq;
                // The stored row widens the visible one with the hidden
                // lifecycle columns; the visible handle itself is shared
                // into the output batch and any trigger parameters.
                let full = row
                    .with_appended([Value::Int(self.batch.raw() as i64), Value::Int(seq as i64)]);
                let rid = self.db.table_mut(table)?.insert(full)?;
                self.undo.push(UndoOp::Insert { table, rid });
                self.stats.stream_appends += 1;
                self.enqueue(table, TriggerEvent::OnInsert, &row);
                self.appended.push((table, row));
                Ok(rid)
            }
            TableKind::Window(_) => {
                let visible = row.clone();
                let outcome =
                    windows::insert_into_window(self.db, self.undo, table, row, self.now)?;
                self.stats.window_evictions += outcome.evicted as u64;
                self.enqueue(table, TriggerEvent::OnInsert, &visible);
                if outcome.slid {
                    self.stats.window_slides += 1;
                    let registry = self.registry;
                    self.enqueue(table, TriggerEvent::OnSlide, &registry.no_params);
                }
                Ok(outcome.rid)
            }
        }
    }

    fn delete_row(&mut self, table: TableId, rid: RowId) -> Result<Row> {
        let row = self.db.table_mut(table)?.delete(rid)?;
        self.undo.push(UndoOp::Delete {
            table,
            rid,
            row: row.clone(),
        });
        // An ad-hoc delete on a window must excise its arrival-deque entry
        // so slide maintenance never sees a stale row id.
        let meta = self.db.catalog_mut().meta_mut(table);
        if let Some(meta) = meta.filter(|m| m.kind.is_window()) {
            if let Some(pos) = meta.arrivals.iter().position(|&r| r == rid) {
                meta.arrivals.remove(pos);
                self.undo.push(UndoOp::WindowExcised { table, rid, pos });
            }
        }
        Ok(row)
    }

    fn update_cells(
        &mut self,
        table: TableId,
        rid: RowId,
        cells: &mut [(usize, Value)],
    ) -> Result<()> {
        let base = matches!(self.db.kind(table)?, TableKind::Base);
        let tb = self.db.table_mut(table)?;
        if base && !cells.iter().any(|&(c, _)| tb.is_key_column(c)) {
            // In place, with the overwritten cells as the undo records.
            tb.set_cells(rid, cells)?;
            for (col, old) in cells.iter_mut() {
                let (col, old) = (*col, std::mem::replace(old, Value::Null));
                self.undo.push(UndoOp::Cell {
                    table,
                    rid,
                    col,
                    old,
                });
            }
            return Ok(());
        }
        // A written key column, or a stream or window row: the full image.
        let old = tb.update(rid, tb.image_with(rid, cells)?)?;
        self.undo.push(UndoOp::Update { table, rid, old });
        Ok(())
    }

    fn exec_path(&self) -> ExecPath {
        self.config.exec_path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{Column, DataType, Schema};
    use sstore_storage::catalog::{WindowKind, WindowSpec};

    fn setup() -> (Database, TableId, TableId, TableId) {
        let mut db = Database::new();
        let schema = || Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap();
        let t = db.create_table("t", schema()).unwrap();
        let s = db.create_stream("s", schema()).unwrap();
        let w = db
            .create_window(
                "w",
                schema(),
                WindowSpec {
                    kind: WindowKind::Tuple { size: 2, slide: 1 },
                    owner: Some(ProcId::new(7)),
                },
            )
            .unwrap();
        (db, t, s, w)
    }

    fn ctx_parts() -> (
        UndoLog,
        EeStats,
        TriggerRegistry,
        EeConfig,
        Vec<(TableId, Row)>,
    ) {
        (
            UndoLog::new(),
            EeStats::new(),
            TriggerRegistry::default(),
            EeConfig::default(),
            Vec::new(),
        )
    }

    #[test]
    fn stream_insert_stamps_batch_and_seq_and_collects_output() {
        let (mut db, _, s, _) = setup();
        let (mut undo, mut stats, reg, cfg, mut appended) = ctx_parts();
        let mut ctx = EeContext {
            db: &mut db,
            undo: &mut undo,
            stats: &mut stats,
            registry: &reg,
            config: &cfg,
            now: 5,
            proc: None,
            batch: BatchId::new(42),
            appended: &mut appended,
            queue: &mut VecDeque::new(),
            depth: 0,
        };
        ctx.insert_visible(s, vec![Value::Int(10)].into()).unwrap();
        ctx.insert_visible(s, vec![Value::Int(11)].into()).unwrap();
        let rows: Vec<Row> = db
            .table(s)
            .unwrap()
            .scan()
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(rows[0], vec![Value::Int(10), Value::Int(42), Value::Int(1)]);
        assert_eq!(rows[1], vec![Value::Int(11), Value::Int(42), Value::Int(2)]);
        assert_eq!(appended.len(), 2);
        assert_eq!(appended[0].1, vec![Value::Int(10)]);
        assert_eq!(stats.stream_appends, 2);

        // Abort rewinds both rows and the sequence counter.
        undo.rollback(&mut db).unwrap();
        assert!(db.table(s).unwrap().is_empty());
        match db.kind(s).unwrap() {
            TableKind::Stream(m) => assert_eq!(m.next_seq, 0),
            _ => panic!(),
        }
    }

    #[test]
    fn window_scope_enforced() {
        let (mut db, _, _, w) = setup();
        let (mut undo, mut stats, reg, cfg, mut appended) = ctx_parts();
        // Wrong procedure.
        let ctx = EeContext {
            db: &mut db,
            undo: &mut undo,
            stats: &mut stats,
            registry: &reg,
            config: &cfg,
            now: 0,
            proc: Some(ProcId::new(1)),
            batch: BatchId::new(0),
            appended: &mut appended,
            queue: &mut VecDeque::new(),
            depth: 0,
        };
        assert_eq!(ctx.check_read(w).unwrap_err().kind(), "scope");
        assert_eq!(ctx.check_write(w).unwrap_err().kind(), "scope");
        // Owning procedure passes.
        let ctx = EeContext {
            db: &mut db,
            undo: &mut undo,
            stats: &mut stats,
            registry: &reg,
            config: &cfg,
            now: 0,
            proc: Some(ProcId::new(7)),
            batch: BatchId::new(0),
            appended: &mut appended,
            queue: &mut VecDeque::new(),
            depth: 0,
        };
        assert!(ctx.check_read(w).is_ok());
    }

    #[test]
    fn triggers_enqueue_with_row_params() {
        let (mut db, _, s, _) = setup();
        let (mut undo, mut stats, mut reg, cfg, mut appended) = ctx_parts();
        reg.register(crate::triggers::EeTrigger {
            name: "t1".into(),
            table: s,
            event: TriggerEvent::OnInsert,
            statements: vec![],
        })
        .unwrap();
        let mut ctx = EeContext {
            db: &mut db,
            undo: &mut undo,
            stats: &mut stats,
            registry: &reg,
            config: &cfg,
            now: 0,
            proc: None,
            batch: BatchId::new(1),
            appended: &mut appended,
            queue: &mut VecDeque::new(),
            depth: 0,
        };
        ctx.insert_visible(s, vec![Value::Int(9)].into()).unwrap();
        assert_eq!(ctx.queue.len(), 1);
        let f = &ctx.queue[0];
        assert_eq!(f.params, vec![Value::Int(9)]);
        assert_eq!(f.depth, 1);
    }

    #[test]
    fn trigger_enqueue_respects_master_switch() {
        let (mut db, _, s, _) = setup();
        let (mut undo, mut stats, mut reg, mut cfg, mut appended) = ctx_parts();
        cfg.ee_triggers_enabled = false;
        reg.register(crate::triggers::EeTrigger {
            name: "t1".into(),
            table: s,
            event: TriggerEvent::OnInsert,
            statements: vec![],
        })
        .unwrap();
        let mut ctx = EeContext {
            db: &mut db,
            undo: &mut undo,
            stats: &mut stats,
            registry: &reg,
            config: &cfg,
            now: 0,
            proc: None,
            batch: BatchId::new(1),
            appended: &mut appended,
            queue: &mut VecDeque::new(),
            depth: 0,
        };
        ctx.insert_visible(s, vec![Value::Int(9)].into()).unwrap();
        assert!(ctx.queue.is_empty());
    }

    #[test]
    fn base_table_mutations_record_undo() {
        let (mut db, t, _, _) = setup();
        let (mut undo, mut stats, reg, cfg, mut appended) = ctx_parts();
        let mut ctx = EeContext {
            db: &mut db,
            undo: &mut undo,
            stats: &mut stats,
            registry: &reg,
            config: &cfg,
            now: 0,
            proc: None,
            batch: BatchId::new(0),
            appended: &mut appended,
            queue: &mut VecDeque::new(),
            depth: 0,
        };
        let rid = ctx.insert_visible(t, vec![Value::Int(1)].into()).unwrap();
        ctx.update_cells(t, rid, &mut [(0, Value::Int(2))]).unwrap();
        ctx.delete_row(t, rid).unwrap();
        assert_eq!(undo.len(), 3);
        undo.rollback(&mut db).unwrap();
        assert!(db.table(t).unwrap().is_empty());
    }
}
