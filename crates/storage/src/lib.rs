//! # sstore-storage
//!
//! The in-memory storage engine underneath S-Store's execution engine —
//! the H-Store-equivalent substrate described in DESIGN.md §1.1.
//!
//! * [`table::Table`] — slot-based heap tables with primary-key and
//!   secondary indexes and stable row ids (stable ids make undo exact).
//! * [`catalog::Catalog`] — names, schemas, and *kinds* (base table,
//!   stream, window): the paper's "uniform state management" means all
//!   three are the same storage structure with different lifecycle rules.
//! * [`database::Database`] — one partition's worth of state.
//! * [`GroupedAggs`] — the grouped aggregate state a window's table keeps
//!   so that `COUNT`/`SUM`/`AVG … GROUP BY` over it needs no scan.
//! * [`undo::UndoLog`] — per-transaction undo for atomic aborts.
//! * [`snapshot`] — whole-partition snapshots, full or delta ([`SlotOp`]).

pub mod catalog;
pub mod database;
mod groups;
pub mod index;
mod journal;
mod mirror;
pub mod snapshot;
pub mod table;
pub mod undo;

pub use catalog::TableKind;
pub use database::Database;
pub use groups::{GroupView, GroupedAggs};
pub use index::{IndexDef, RowId};
pub use journal::{SlotOp, TableDirt};
pub use table::Table;
pub use undo::{UndoLog, UndoOp};
