//! Execution-engine counters.
//!
//! The paper's performance argument is structural — S-Store wins by
//! removing round trips between layers (§2, §3.1). These counters make
//! that argument measurable: benches read them to report PE↔EE dispatches
//! and trigger activity per workload.

/// Monotone counters for one execution engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EeStats {
    /// Statements dispatched from the PE into the EE. Each is one PE→EE
    /// round trip; statements run by EE triggers do *not* count (that is
    /// exactly the saving native triggers provide).
    pub pe_ee_trips: u64,
    /// Total statements executed, including trigger-initiated ones.
    pub statements: u64,
    /// EE insert-trigger firings (per row).
    pub insert_trigger_firings: u64,
    /// Window slide events (slide-trigger opportunities).
    pub window_slides: u64,
    /// Rows appended to streams.
    pub stream_appends: u64,
    /// Rows evicted from windows by slide maintenance.
    pub window_evictions: u64,
    /// Stream rows removed by garbage collection.
    pub rows_gcd: u64,
}

impl EeStats {
    /// Zeroed counters.
    pub(crate) fn new() -> Self {
        EeStats::default()
    }
}
