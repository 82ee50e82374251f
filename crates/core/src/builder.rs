//! Fluent configuration for an S-Store instance.

use crate::SStore;
use sstore_common::{PartitionId, Result};
use sstore_engine::EeConfig;
use sstore_txn::log::{LogConfig, LogRetention};
use sstore_txn::{ExecMode, PeConfig};
use std::path::Path;

/// Builds an [`SStore`] partition.
///
/// Defaults: S-Store mode, PE and EE triggers on, serial-workflow decision
/// derived from shared writable tables, no durability, no simulated
/// round-trip latency.
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
        self.config.pe_triggers_enabled = false;
        self
    }

    /// Toggle PE triggers (ablation E3a: push vs poll with S-Store
    /// ordering otherwise intact).
    pub fn pe_triggers(mut self, enabled: bool) -> Self {
        self.config.pe_triggers_enabled = enabled;
        self
    }

    /// Toggle EE triggers (ablation E3b).
    pub fn ee_triggers(mut self, enabled: bool) -> Self {
        self.config.ee.ee_triggers_enabled = enabled;
        self
    }

    /// Force (or forbid) whole-workflow serial execution per batch,
    /// overriding the shared-writable-table analysis.
    pub fn serial_workflow(mut self, serial: bool) -> Self {
        self.config.serial_workflow = Some(serial);
        self
    }

    /// Charge a busy-wait of `micros` per client↔PE round trip.
    pub fn client_trip_cost(mut self, micros: u64) -> Self {
        self.config.client_trip_cost_micros = micros;
        self
    }

    /// Charge a busy-wait of `micros` per PE→EE statement dispatch.
    pub fn ee_trip_cost(mut self, micros: u64) -> Self {
        self.config.ee_trip_cost_micros = micros;
        self
    }

    /// Sleep `micros` per PE→EE statement dispatch, modelling a *remote*
    /// EE round trip: the wait blocks this partition but releases the
    /// core, so cluster workers overlap it (unlike the busy-wait
    /// [`SStoreBuilder::ee_trip_cost`]).
    pub fn ee_trip_latency(mut self, micros: u64) -> Self {
        self.config.ee_trip_latency_micros = micros;
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
    pub fn partition_id(mut self, id: PartitionId) -> Self {
        self.config.partition = id;
        self
    }

    /// Replace the EE configuration wholesale.
    pub fn ee_config(mut self, ee: EeConfig) -> Self {
        self.config.ee = ee;
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
        assert!(b.config().pe_triggers_enabled);
        assert!(b.config().ee.ee_triggers_enabled);
        b.build().unwrap();
    }

    #[test]
    fn hstore_mode_disables_pe_triggers() {
        let b = SStoreBuilder::new().hstore_mode();
        assert_eq!(b.config().mode, ExecMode::HStore);
        assert!(!b.config().pe_triggers_enabled);
    }

    #[test]
    fn knobs_apply() {
        let b = SStoreBuilder::new()
            .pe_triggers(false)
            .ee_triggers(false)
            .serial_workflow(true)
            .client_trip_cost(10)
            .ee_trip_cost(5)
            .durability("/tmp/sstore-builder-test", 8);
        let c = b.config();
        assert!(!c.pe_triggers_enabled);
        assert!(!c.ee.ee_triggers_enabled);
        assert_eq!(c.serial_workflow, Some(true));
        assert_eq!(c.client_trip_cost_micros, 10);
        assert_eq!(c.ee_trip_cost_micros, 5);
        assert_eq!(c.log.as_ref().unwrap().group_commit_n, 8);
    }
}
