//! `voter_1p` — the paper's Voter with Leaderboard (§3.1) on one
//! in-memory partition, closed loop: the handle is `&mut`, so the caller
//! waits for each vote's whole workflow (validate → leaderboard →
//! eliminate) before sending the next. One operation is one border batch
//! of one vote.
//!
//! Nearly all time is in `txn` (scheduler, PE triggers), `engine`
//! (windows, EE triggers), row-at-a-time `sql` and `storage` (index,
//! undo). `core`, the command log, 2PC and `vexec` are bypassed, and the
//! run asserts it wrote no log record.

use crate::layers;
use crate::load::segment_throughput;
use crate::report::{Outcome, RunCfg};
use crate::spans::Recorder;
use crate::stats::Summary;
use sstore_common::{RowMetrics, Value};
use sstore_core::{PeStats, SStore, SStoreBuilder};
use sstore_voter::checker::oracle_state;
use sstore_voter::workload::Vote;
use sstore_voter::{capture_state, diff_states, install, Oracle, VoteGen, VoterConfig, WindowImpl};
use std::time::Instant;

/// Timed votes per second of `--seconds`, frozen at authoring time so the
/// timed loop takes about `--seconds` on the authoring machine.
const VOTES_PER_SECOND: f64 = 80_000.0;
/// The traced run times this share of the untraced vote count.
const TRACED_SHARE: f64 = 0.25;
/// Warm-up votes, as a share of the timed votes: fills the trending
/// window, grows the vote table past its first reallocations.
const WARMUP_SHARE: f64 = 0.05;

struct Ready {
    db: SStore,
    config: VoterConfig,
    votes: Vec<Vote>,
    warm: usize,
}

/// Build, deploy, generate the run's votes from the seed, and warm up.
/// The elimination interval is sized so the 25-candidate show spans the
/// whole run (24 eliminations whatever `--seconds` is): with the paper's
/// interval of 100 the show would be over after 2 400 votes and the rest
/// of the run would measure rejections.
fn setup(cfg: &RunCfg, timed: usize) -> Ready {
    let warm = ((timed as f64 * WARMUP_SHARE) as usize).max(200);
    let total = warm + timed;
    let config = VoterConfig {
        elimination_every: (total as i64 / 25).max(100),
        ..VoterConfig::default()
    };
    let mut db = SStoreBuilder::new().build().expect("build partition");
    install(&mut db, WindowImpl::Native, &config).expect("install voter");
    let votes = VoteGen::new(cfg.seed, config.num_contestants).take(total);
    for v in &votes[..warm] {
        submit(&mut db, v).expect("warm-up vote");
    }
    db.reset_stats();
    Ready {
        db,
        config,
        votes,
        warm,
    }
}

/// One operation: a border batch of one vote, then a millisecond of show
/// time. `Ok(true)` when every TE of the workflow committed.
fn submit(db: &mut SStore, v: &Vote) -> sstore_common::Result<bool> {
    let outcomes = db.submit_batch(
        "validate",
        vec![vec![Value::Int(v.phone), Value::Int(v.contestant)]],
    )?;
    db.advance_clock(1_000);
    Ok(outcomes.iter().all(|o| o.is_committed()))
}

/// Median of a power-of-two µs histogram, interpolated inside the bucket
/// (bucket `b ≥ 1` covers `[2^(b-1), 2^b)` µs, bucket 0 is below 1 µs).
fn hist_p50_us(stats: &PeStats) -> f64 {
    let total: u64 = stats.latency_hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = total as f64 / 2.0;
    let mut seen = 0.0;
    for (b, &n) in stats.latency_hist.iter().enumerate() {
        if n > 0 && seen + n as f64 >= target {
            let (lo, hi) = if b == 0 {
                (0.0, 1.0)
            } else {
                ((1u64 << (b - 1)) as f64, (1u64 << b) as f64)
            };
            return lo + (hi - lo) * (target - seen) / n as f64;
        }
        seen += n as f64;
    }
    0.0
}

/// Run the workload.
pub fn run(cfg: &RunCfg, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let share = if cfg.trace { TRACED_SHARE } else { 1.0 };
    let timed = cfg.count(VOTES_PER_SECOND * share, 500);

    let (ready, setups) = cfg.set_up(|| setup(cfg, timed), drop);
    let Ready {
        mut db,
        config,
        votes,
        warm,
    } = ready;

    // The timed loop: one clock read per operation boundary.
    let rows_before = RowMetrics::snapshot();
    let mut latency = Vec::with_capacity(timed);
    let mut done_at = Vec::with_capacity(timed);
    let mut failed = 0u64;
    let t0 = Instant::now();
    let mut prev = 0u64;
    for (i, v) in votes[warm..].iter().enumerate() {
        let s = rec.enter("txn.submit_batch", i as u64);
        let ok = submit(&mut db, v);
        rec.exit(s);
        let now = t0.elapsed().as_nanos() as u64;
        latency.push(now - prev);
        done_at.push(now);
        prev = now;
        if !matches!(ok, Ok(true)) {
            failed += 1;
        }
    }
    let rows = RowMetrics::snapshot().since(&rows_before);
    let pe = db.stats();
    let ee = *db.engine().stats();
    out.attempted = timed as u64;
    out.failed = failed;

    // Oracle: the plain-Rust game rules over the same votes.
    let mut oracle = Oracle::new(config);
    for v in &votes {
        oracle.feed(v.phone, v.contestant);
    }
    match capture_state(&mut db) {
        Ok(state) => {
            let d = diff_states(&oracle_state(&oracle), &state);
            if !d.is_clean() {
                out.mismatch(format!("voter state diverged from the oracle: {d:?}"));
            }
        }
        Err(e) => out.mismatch(format!("capture_state failed: {e}")),
    }
    if pe.log_records != 0 {
        out.mismatch(format!(
            "voter_1p wrote {} log records; it must bypass the command log",
            pe.log_records
        ));
    }
    out.notes.push(format!(
        "{timed} timed votes after {warm} warm-up votes; {} eliminations; {} rejected",
        oracle.eliminated.len(),
        oracle.rejected
    ));

    let summary = Summary::of(&mut latency);
    if cfg.trace {
        let ops = timed as f64;
        out.set("failed_share", out.failed_share());
        out.set_percentile("latency_p95_us", &summary, 95.0);
        out.set_percentile("latency_p99_us", &summary, 99.0);
        out.set_timed(
            "txn.submit_batch_us",
            rec.median_ns("txn.submit_batch") / 1e3,
            format!("(n={timed})"),
        );
        out.set_timed(
            "txn.te_p50_us",
            hist_p50_us(&pe),
            format!("(n={})", pe.total_tes()),
        );
        out.set(
            "txn.pe_trigger_firings_per_op",
            pe.pe_trigger_firings as f64 / ops,
        );
        out.set(
            "txn.abort_share",
            (pe.user_aborts + pe.failed) as f64 / pe.total_tes().max(1) as f64,
        );
        out.set("engine.pe_ee_trips_per_op", ee.pe_ee_trips as f64 / ops);
        out.set("engine.statements_per_op", ee.statements as f64 / ops);
        out.set(
            "common.row.deep_copies_per_op",
            rows.deep_copies as f64 / ops,
        );
        out.set("common.row.cow_breaks_per_op", rows.cow_breaks as f64 / ops);
        drop(db);
        layers::storage_ops(cfg, rec, &mut out);
        layers::sql_points(cfg, rec, &mut out);
        layers::engine_ops(cfg, rec, &mut out);
    } else {
        out.set_timed(
            "throughput_ops_s",
            segment_throughput(&done_at, 5),
            format!("(median of 5 segments, n={timed})"),
        );
        out.set_percentile("latency_p50_us", &summary, 50.0);
        out.set_process_metrics(&setups);
    }
    out
}
