//! # sstore-txn
//!
//! S-Store's **partition engine (PE)** — the upper layer of the paper's
//! two-layer architecture (Fig. 1). It owns the execution engine and adds:
//!
//! * **stored procedures** ([`procedure`]): parameterized control code
//!   (Rust closures standing in for H-Store's Java) around prepared SQL;
//! * the **stream-oriented transaction model** ([`partition`]): a
//!   transaction execution (TE) is `(procedure, batch)`; schedules preserve
//!   per-procedure TE order and per-batch workflow order, and run whole
//!   workflows serially when procedures share writable tables (paper §2);
//! * **workflows & PE triggers** ([`workflow`]): committed TEs whose
//!   output streams received tuples schedule the downstream procedure
//!   inside the PE — no client polling, no client↔PE round trips;
//! * **command logging + snapshots + upstream-backup recovery**
//!   ([`log`], [`recovery`]): border inputs are logged with group commit;
//!   recovery restores the latest snapshot and replays un-snapshotted
//!   batches through the same workflow code;
//! * an **H-Store compatibility mode**: PE triggers off, client-driven
//!   invocations only — the paper's baseline, which both loses the ordering
//!   guarantees (§3.1's anomalies) and pays extra round trips;
//! * **2PC participant hooks** ([`partition`]): a fragment of a
//!   multi-sited transaction executes at *prepare* with its undo log held
//!   open, commits or rolls back on the coordinator's decision, and
//!   leaves `PrepareMarker`/`Decision` records so recovery replays a
//!   consistent global prefix (in-doubt fragments presume abort);
//! * **cross-partition workflow edges** ([`workflow`]): streams declared
//!   remote route their emissions through the cluster runtime to the
//!   partition owning the downstream key, logged and deduplicated on
//!   arrival for ordered, exactly-once dataflow.

pub mod log;
pub mod partition;
pub mod procedure;
pub mod recovery;
pub mod stats;
pub mod transaction;
pub mod workflow;

pub use log::LogConfig;
pub use partition::{ExecMode, InboundForward, Partition, PeConfig, RemoteForward};
pub use procedure::{ProcContext, ProcSpec};
pub use stats::PeStats;
pub use transaction::{Invocation, TxnOutcome, TxnStatus};
pub use workflow::{CrossEdge, Workflow};

#[cfg(test)]
/// Serializes the unit tests that arm a fault point with those that run
/// through it: the fault registry is process-global.
pub(crate) fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
