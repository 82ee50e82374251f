//! # sstore-voter — Voter with Leaderboard (paper §3.1)
//!
//! The "Canadian Dreamboat" demo: viewers vote by phone for one of 25
//! candidates; every 100 counted votes the candidate with the fewest votes
//! is eliminated and their votes are returned to the voters; three
//! leaderboards (top-3, bottom-3, trending over the last 100 votes) are
//! maintained continuously (Fig. 2).
//!
//! The workflow (Fig. 3) is three stored procedures:
//!
//! * **SP1 `validate`** — checks the contestant exists and the phone has
//!   not voted, records the vote, and forwards it downstream;
//! * **SP2 `leaderboard`** — updates per-candidate counts, feeds the
//!   trending window, and signals when the elimination threshold is hit;
//! * **SP3 `eliminate`** — removes the lowest candidate, their votes
//!   (freeing those phones), and their leaderboard entries.
//!
//! All three share writable tables, so S-Store runs the whole workflow
//! serially per input batch — exactly the guarantee H-Store lacks, and the
//! source of the demo's anomalies when the same workload is driven
//! client-side against H-Store mode ([`runner::run_hstore`]).

pub mod checker;
pub mod oracle;
pub mod procs;
pub mod runner;
pub mod schema;
pub mod workload;

pub use checker::{capture_state, diff_states, VoterState};
pub use oracle::Oracle;
pub use procs::{install, WindowImpl};
pub use runner::{run_hstore, run_sstore};
pub use schema::VoterConfig;
pub use workload::VoteGen;
