//! # sstore-engine
//!
//! S-Store's **execution engine (EE)** — the lower layer of the paper's
//! two-layer architecture (Fig. 1). It wraps the storage engine with:
//!
//! * a transactional `context::EeContext` that records undo for every
//!   mutation and enforces the window **scope** rule;
//! * **streams**: inserts stamp hidden `__batch`/`__seq` columns and are
//!   collected as the transaction's output batches;
//! * native **windows** ([`windows`]): tuple- and time-based sliding
//!   windows maintained inside the EE, with eviction and slide detection;
//! * **EE triggers** ([`triggers`]): statement-level insert/slide triggers
//!   that run *inside the current transaction*, eliminating PE↔EE round
//!   trips (the paper's §2 performance argument);
//! * stream **garbage collection** ([`gc`]) once batches are consumed;
//! * [`stats::EeStats`] counting statements, round trips, trigger firings,
//!   slides, and GC work — the raw data for experiments E3a/E3b/E7.

pub mod context;
pub mod engine;
pub mod gc;
pub mod stats;
pub mod triggers;
pub mod windows;

pub use engine::{EeConfig, ExecutionEngine, TxnScratch};
pub use stats::EeStats;
pub use triggers::TriggerEvent;
