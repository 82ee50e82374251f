//! Fluent configuration for an S-Store instance.

use crate::SStore;
use sstore_common::{PartitionId, Result};
use sstore_txn::log::{LogConfig, LogRetention};
use sstore_txn::{ExecMode, PeConfig};
use std::path::Path;

/// Builds an [`SStore`] partition.
///
/// Defaults: S-Store mode, PE and EE triggers on, serial-workflow decision
/// derived from shared writable tables, no durability.
#[derive(Debug, Clone, Default)]
pub struct SStoreBuilder {
    config: PeConfig,
}

impl SStoreBuilder {
    /// Start from defaults.
    pub fn new() -> Self {
        SStoreBuilder::default()
    }

    /// Run as the paper's H-Store baseline (PE triggers off, client-driven
    /// invocation only, no workflow ordering guarantees).
    pub fn hstore_mode(mut self) -> Self {
        self.config.mode = ExecMode::HStore;
        self
    }

    /// Force (or forbid) whole-workflow serial execution per batch,
    /// overriding the shared-writable-table analysis.
    pub fn serial_workflow(mut self, serial: bool) -> Self {
        self.config.serial_workflow = Some(serial);
        self
    }

    /// Enable command logging + snapshots under `dir`, fsyncing every
    /// `group_commit_n` records.
    pub fn durability(mut self, dir: impl AsRef<Path>, group_commit_n: usize) -> Self {
        self.config.log = Some(LogConfig::with_group_commit(
            dir.as_ref().to_path_buf(),
            group_commit_n,
        ));
        self
    }

    /// Snapshot + truncate the command log automatically after every
    /// `every_n_commits` committed TEs, at the next quiescent point.
    /// Requires [`SStoreBuilder::durability`]; replay-after-truncate
    /// recovers from the snapshot plus the log tail.
    pub fn log_retention(mut self, every_n_commits: u64) -> Self {
        self.config.retention = Some(LogRetention::every_n_commits(every_n_commits));
        self
    }

    /// Assign this partition's site id ([`crate::Cluster`] does this for
    /// each worker; standalone instances stay p0).
    pub(crate) fn partition_id(mut self, id: PartitionId) -> Self {
        self.config.partition = id;
        self
    }

    /// The assembled [`PeConfig`] (for [`crate::recover`]).
    pub fn config(&self) -> &PeConfig {
        &self.config
    }

    /// Build the partition.
    pub fn build(self) -> Result<SStore> {
        SStore::new(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sstore_mode() {
        let b = SStoreBuilder::new();
        assert_eq!(b.config().mode, ExecMode::SStore);
        assert!(b.build().unwrap().engine().config().ee_triggers_enabled);
    }

    #[test]
    fn hstore_mode_disables_pe_triggers() {
        let b = SStoreBuilder::new().hstore_mode();
        assert_eq!(b.config().mode, ExecMode::HStore);
    }

    #[test]
    fn knobs_apply() {
        let b = SStoreBuilder::new()
            .serial_workflow(true)
            .durability("/tmp/sstore-builder-test", 8);
        let c = b.config();
        assert_eq!(c.serial_workflow, Some(true));
        assert_eq!(c.log.as_ref().unwrap().group_commit_n, 8);
    }
}
