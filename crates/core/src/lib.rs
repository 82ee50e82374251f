//! # sstore-core — S-Store: a streaming NewSQL system
//!
//! The public API of this reproduction of *"S-Store: A Streaming NewSQL
//! System for Big Velocity Applications"* (VLDB 2014). S-Store combines
//! OLTP transactions with stream processing: streams, windows, triggers,
//! and workflows layered on an H-Store-style in-memory OLTP engine, with
//! ACID guarantees extended to dataflow graphs of stored procedures.
//!
//! ## Quick start
//!
//! ```
//! use sstore_core::{SStoreBuilder, ProcSpec};
//! use sstore_core::common::Value;
//!
//! let mut db = SStoreBuilder::new().build().unwrap();
//! db.ddl("CREATE STREAM readings (celsius INT)").unwrap();
//! db.ddl("CREATE STREAM alerts (celsius INT)").unwrap();
//!
//! // A one-procedure workflow: flag hot readings.
//! db.register(
//!     ProcSpec::new("monitor", |ctx| {
//!         for row in &ctx.input().rows {
//!             if row[0].as_int()? > 40 {
//!                 ctx.emit(row.clone())?;
//!             }
//!         }
//!         Ok(())
//!     })
//!     .consumes("readings")
//!     .emits("alerts"),
//! )
//! .unwrap();
//!
//! db.submit_batch("monitor", vec![vec![Value::Int(22)], vec![Value::Int(45)]])
//!     .unwrap();
//! let hot = db.drain_sink("alerts").unwrap();
//! assert_eq!(hot, vec![vec![Value::Int(45)]]);
//! ```
//!
//! ## Layering
//!
//! * [`sstore_txn`] — partition engine (PE): procedures, workflows, PE
//!   triggers, schedulers, command logging, recovery.
//! * [`sstore_engine`] — execution engine (EE): windows, EE triggers,
//!   stream lifecycle, garbage collection.
//! * [`sstore_sql`] / [`sstore_storage`] — SQL subset and the in-memory
//!   storage substrate.

pub mod builder;
pub mod client;
pub mod cluster;
pub mod coordinator;
mod hub;
pub mod ingest;
pub mod metrics;
pub mod obs_report;
pub mod retry;
pub mod router;
mod worker;
pub mod workloads;

pub use builder::SStoreBuilder;
pub use client::{ClientRequest, PipelinedClient, RequestKind};
pub use cluster::{Cluster, PartitionHealth};
pub use coordinator::COORD_COMPACT_EVERY;
pub use metrics::{ClusterMetrics, PartitionMetrics};
pub use obs_report::ObsReport;
pub use retry::RetryPolicy;
pub use router::{PartitionOutcomes, RouteSpec, Router, Ticket};

// The operational surface, re-exported so applications depend on one crate.
pub use sstore_engine::{EeConfig, EeStats, TriggerEvent, TxnScratch};
pub use sstore_sql::exec::QueryResult;
pub use sstore_sql::ExecPath;
pub use sstore_txn::recovery::{recover, recover_with_decisions};
pub use sstore_txn::{
    CrossEdge, ExecMode, InboundForward, Invocation, PeConfig, PeStats, ProcContext, ProcSpec,
    RemoteForward, TxnOutcome, TxnStatus, Workflow,
};

/// The S-Store system handle: one single-sited partition, exactly the
/// configuration the paper demonstrates.
pub type SStore = sstore_txn::Partition;

/// Re-export of the shared data model (values, schemas, batches, ids).
pub mod common {
    pub use sstore_common::*;
}

/// Re-export of the durability configuration and command-log machinery
/// (the log types are public for benches and durability tooling).
pub use sstore_txn::log::{read_log, CommandLog, LogConfig, LogRecord, LogRetention};
