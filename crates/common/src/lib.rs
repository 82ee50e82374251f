//! # sstore-common
//!
//! Shared data model for the S-Store reproduction: typed [`Value`]s,
//! [`DataType`]s, [`Schema`]s, [`Row`]s, stream [`Batch`]es, identifier
//! newtypes, the logical [`Clock`], and the crate-wide [`Error`] type.
//!
//! Everything in the engine — regular tables, streams, and windows alike —
//! speaks this one relational vocabulary ("uniform state management" in the
//! paper's terms, §2).

pub mod clock;
pub mod codec;
pub mod durable;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod obs;
pub mod row;
pub mod schema;
pub mod types;
pub mod value;

pub use clock::Clock;
pub use error::{Error, Result};
pub use ids::{BatchId, PartitionId, ProcId, TableId, TxnId};
pub use row::{Batch, Row, RowMetrics};
pub use schema::{Column, Schema};
pub use types::DataType;
pub use value::Value;
