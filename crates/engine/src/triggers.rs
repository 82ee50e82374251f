//! EE triggers.
//!
//! S-Store's EE triggers are *statement-level* insert triggers on stream or
//! window state: when new tuples arrive, the registered statements run
//! **inside the same transaction execution**, continuing the dataflow
//! without returning control to the partition engine (paper §2,
//! "Data-driven Processing via Triggers"). They are "control triggers" —
//! they react to the presence of data from a known source, not to arbitrary
//! table mutations.

use sstore_common::{Error, Result, Row, TableId};
use sstore_sql::plan::PlannedStmt;

/// When a trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerEvent {
    /// Per tuple inserted into a stream (or window). The trigger statements
    /// receive the inserted tuple's visible columns as statement parameters
    /// (`?1` = first column, ...).
    OnInsert,
    /// When a window slides (eviction complete, contents = the new window).
    /// Statements receive no parameters; they query the window itself.
    OnSlide,
}

/// One registered EE trigger.
#[derive(Debug, Clone)]
pub(crate) struct EeTrigger {
    /// Trigger name (unique per engine).
    pub name: String,
    /// The stream/window it watches.
    pub table: TableId,
    /// Insert vs slide.
    pub event: TriggerEvent,
    /// Pre-planned statements, executed in order on each firing.
    pub statements: Vec<PlannedStmt>,
}

/// Registry of EE triggers with per-table firing indexes.
#[derive(Debug, Clone, Default)]
pub(crate) struct TriggerRegistry {
    triggers: Vec<EeTrigger>,
    /// The empty parameter row every slide firing shares.
    pub no_params: Row,
}

impl TriggerRegistry {
    /// Register a trigger; names must be unique.
    pub(crate) fn register(&mut self, trigger: EeTrigger) -> Result<usize> {
        if self.triggers.iter().any(|t| t.name == trigger.name) {
            return Err(Error::AlreadyExists(format!("trigger `{}`", trigger.name)));
        }
        self.triggers.push(trigger);
        Ok(self.triggers.len() - 1)
    }

    /// Trigger by index.
    pub(crate) fn get(&self, idx: usize) -> Option<&EeTrigger> {
        self.triggers.get(idx)
    }

    /// Indexes of triggers firing for `(table, event)`, in registration
    /// order (registration order = firing order, deterministically).
    pub(crate) fn matching(
        &self,
        table: TableId,
        event: TriggerEvent,
    ) -> impl Iterator<Item = usize> + '_ {
        self.triggers
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.table == table && t.event == event)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trig(name: &str, table: u32, event: TriggerEvent) -> EeTrigger {
        EeTrigger {
            name: name.into(),
            table: TableId::new(table),
            event,
            statements: vec![],
        }
    }

    #[test]
    fn register_and_match() {
        let mut r = TriggerRegistry::default();
        r.register(trig("a", 0, TriggerEvent::OnInsert)).unwrap();
        r.register(trig("b", 0, TriggerEvent::OnInsert)).unwrap();
        r.register(trig("c", 0, TriggerEvent::OnSlide)).unwrap();
        r.register(trig("d", 1, TriggerEvent::OnInsert)).unwrap();
        let matching = |t, e| r.matching(TableId::new(t), e).collect::<Vec<_>>();
        assert_eq!(matching(0, TriggerEvent::OnInsert), vec![0, 1]);
        assert_eq!(matching(0, TriggerEvent::OnSlide), vec![2]);
        assert_eq!(matching(9, TriggerEvent::OnInsert), Vec::<usize>::new());
        assert_eq!(r.triggers.len(), 4);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = TriggerRegistry::default();
        r.register(trig("a", 0, TriggerEvent::OnInsert)).unwrap();
        let err = r.register(trig("a", 1, TriggerEvent::OnSlide)).unwrap_err();
        assert_eq!(err.kind(), "already_exists");
    }
}
