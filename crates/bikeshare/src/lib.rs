//! # sstore-bikeshare — BikeShare (paper §3.2)
//!
//! A city-scale bicycle-rental workload mixing the three kinds of work the
//! paper highlights:
//!
//! * **pure OLTP** — bike checkouts, returns, and discount acceptances are
//!   client requests ([`SStore::invoke`](sstore_core::SStore)) hitting
//!   shared state with full ACID semantics;
//! * **pure streaming** — every bike reports GPS at ~1 Hz; a border
//!   procedure ingests positions, maintains per-ride statistics (distance,
//!   max speed), and raises stolen-bike alerts (a bike moving at 60 mph is
//!   probably on a truck);
//! * **both at once** — real-time discounts: stations running out of bikes
//!   continuously offer discounts to riders nearby, computed from the
//!   streaming positions and *claimed transactionally* (an offer can only
//!   be granted to one rider; it expires after 15 minutes).
//!
//! [`sim::CitySim`] generates a deterministic virtual city: stations on a
//! grid, riders taking trips, GPS traces along the way — the stand-in for
//! the paper's live demo data (see DESIGN.md §1.5).

pub mod procs;
pub mod schema;
pub mod sim;

pub use procs::install;
pub use schema::BikeConfig;
pub use sim::{verify_invariants, CitySim};
