//! # sstore-slt
//!
//! The test harness crate: coverage grows by writing **text files and
//! seeds**, not Rust.
//!
//! * [`parser`] + [`runner`] — a sqllogictest-style golden harness. Each
//!   `.slt` file under `tests/slt/` is a script of SQL statements and
//!   queries with expected results, executed against a fresh [`SStore`]
//!   instance; mismatches are reported as per-file diffs.
//! * [`campaign`] — a deterministic crash-fault-injection campaign. A
//!   seed expands into a [`campaign::FaultPlan`] (which kill point, which
//!   hit, what workload); a child process runs the workload and dies at
//!   the armed point; the parent recovers the durability directory and
//!   checks the crash-consistency invariants against the closed-form
//!   oracle. Failing seeds replay exactly: `SSTORE_FAULT_SEED=<n>`.
//! * [`telemetry`] — the IoT-telemetry workload (high-fanout ingest,
//!   cross-partition area aggregation edges, a sliding window) used by
//!   both the golden checks and the campaign.
//!
//! [`SStore`]: sstore_core::SStore

pub mod campaign;
pub mod parser;
pub mod runner;
pub mod telemetry;

pub use runner::run_slt_dir_dual;
