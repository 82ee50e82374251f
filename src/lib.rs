//! # sstore — a streaming NewSQL system (S-Store, VLDB 2014)
//!
//! Umbrella crate for the S-Store reproduction: it re-exports the public
//! API of [`sstore_core`] so applications (and this repo's workspace-root
//! integration tests and examples) depend on a single crate.
//!
//! ```
//! use sstore::{SStoreBuilder, ProcSpec};
//! use sstore::common::Value;
//!
//! let mut db = SStoreBuilder::new().build().unwrap();
//! db.ddl("CREATE STREAM readings (celsius INT)").unwrap();
//! db.ddl("CREATE STREAM alerts (celsius INT)").unwrap();
//! db.register(
//!     ProcSpec::new("monitor", |ctx| {
//!         for row in ctx.input().rows.clone() {
//!             if row[0].as_int()? > 40 {
//!                 ctx.emit(row)?;
//!             }
//!         }
//!         Ok(())
//!     })
//!     .consumes("readings")
//!     .emits("alerts"),
//! ).unwrap();
//! db.submit_batch("monitor", vec![vec![Value::Int(55)]]).unwrap();
//! assert_eq!(db.drain_sink("alerts").unwrap().len(), 1);
//! ```
//!
//! See the repo README for the crate map and the paper-concept ↔ crate
//! correspondence.

/// The full public API crate (builder, client, cluster, metrics).
pub use sstore_core as core;

pub use sstore_core::{
    common, recover, Cluster, PeConfig, ProcSpec, RouteSpec, SStore, SStoreBuilder, TriggerEvent,
    TxnStatus,
};
