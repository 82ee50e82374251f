//! The deterministic crash-fault-injection campaign.
//!
//! One trial = one seed. The seed expands into a [`FaultPlan`]: which
//! fault point to arm, on which hit it fires, and the exact telemetry
//! workload (partition count, batches, rows — see
//! [`crate::telemetry::gen_batches`]). A **child process** builds a
//! durable cluster, arms the point — `KILL_POINTS` in
//! [`sstore_common::fault::KillMode::Abort`] mode (the process dies
//! exactly as a crash would), `IO_POINTS` as a one-shot injected disk
//! error (the process survives and the affected batch must fail
//! cleanly) — and submits the batches serially, appending one
//! `"{i} ok|fail|unk"` verdict line per completed submission to
//! `acked.log`. The **parent** then recovers the durability directory
//! and checks the crash-consistency invariants:
//!
//! * **No lost acked batch** — every index in `acked.log` is reflected
//!   in recovered state.
//! * **No resurrected aborted fragment** — poison batches (whole-batch
//!   2PC aborts) contribute nothing, before or after the crash.
//! * **Edge exactly-once** — recovered `area_stats` (fed only through
//!   the cross-partition `area_feed` edge) matches the oracle exactly:
//!   re-forwarded envelopes were delivered once, never zero or twice.
//!
//! All three reduce to one comparison: recovered state must equal the
//! closed-form oracle of an *acked-covering prefix* of the submission
//! order. Serial submission + whole-process kill make the applied set a
//! prefix, so the only admissible states are "crash before the boundary
//! batch committed" and "crash after" — anything else is a bug, printed
//! with the seed that reproduces it.

use crate::telemetry::{
    deploy_telemetry, gen_batches, TelemetryOracle, POISON_TEMP, TELEMETRY_EDGES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstore_common::{fault, Row, Value};
use sstore_core::{Cluster, RouteSpec, SStoreBuilder, TxnStatus};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Every kill point the campaign can arm — the named 2PC/recovery/log
/// stage boundaries instrumented in `txn`, `core`, and `storage`. The
/// child process vaporizes (`KillMode::Abort`) exactly as a crash would.
pub(crate) const KILL_POINTS: &[&str] = &[
    "prepare-logged",
    "pre-commit-point-fsync",
    "post-commit-point-fsync",
    "decide-delivered",
    "forward-logged",
    "snapshot-mid-write",
    "delta-snapshot-mid-write",
    "log-mid-write",
    "worker-killed-live",
];

/// Disk-fault points: instead of killing the process, the child arms a
/// **one-shot injected IO error** (`fault::arm_io_error`) at the named
/// durability site and runs the whole workload. The affected batch must
/// fail with a typed error and zero partial state; everything after it
/// must proceed normally — the recovery check then accepts the recorded
/// applied set, with IO-failed batches of unknown fate tried both ways.
pub(crate) const IO_POINTS: &[&str] = &[
    "log-append-io-error",
    "snapshot-io-error",
    "coord-log-io-error",
];

/// Environment variable selecting the trial seed (replay a failure with
/// `SSTORE_FAULT_SEED=<seed> cargo run -p sstore-slt --bin crash_campaign`).
pub const SEED_ENV: &str = "SSTORE_FAULT_SEED";
/// Set in the child process (with [`SEED_ENV`] and [`DIR_ENV`]) to make
/// the campaign binary run the workload-and-die role.
pub const CHILD_ENV: &str = "SSTORE_FAULT_CHILD";
/// Durability directory handed to the child.
pub const DIR_ENV: &str = "SSTORE_FAULT_DIR";

/// Everything one seed determines.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed itself.
    pub seed: u64,
    /// Which kill point is armed.
    pub point: &'static str,
    /// 1-based hit index at which it fires (sticky from there on).
    pub nth: u64,
    /// Cluster width.
    pub partitions: usize,
    /// Border batches submitted.
    pub batches: usize,
    /// Rows per batch.
    pub batch_size: usize,
    /// Device key space (stage-1 routing).
    pub devices: i64,
    /// Area key space (cross-edge routing).
    pub areas: i64,
    /// Snapshot-retention trigger (commits between snapshots).
    pub snapshot_every: u64,
}

impl FaultPlan {
    /// Expand `seed` deterministically.
    pub(crate) fn from_seed(seed: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = rng.random_range(0..KILL_POINTS.len() + IO_POINTS.len());
        FaultPlan {
            seed,
            point: if idx < KILL_POINTS.len() {
                KILL_POINTS[idx]
            } else {
                IO_POINTS[idx - KILL_POINTS.len()]
            },
            nth: rng.random_range(1..9),
            partitions: rng.random_range(2..4),
            batches: rng.random_range(8..17),
            batch_size: rng.random_range(2..6),
            devices: rng.random_range(4..11),
            areas: rng.random_range(2..5),
            snapshot_every: rng.random_range(3..9),
        }
    }

    /// The trial's border batches (shared by child and parent).
    pub(crate) fn workload(&self) -> Vec<Vec<Row>> {
        gen_batches(
            self.seed,
            self.batches,
            self.batch_size,
            self.devices,
            self.areas,
        )
    }

    fn builder(&self, dir: &Path) -> SStoreBuilder {
        // group-commit 1: an acked batch is a synced batch, which is what
        // the no-lost-acked-batch invariant asserts. Retention triggers
        // mid-run snapshots so `snapshot-mid-write` gets real traffic.
        SStoreBuilder::new()
            .durability(dir, 1)
            .log_retention(self.snapshot_every)
    }
}

fn acked_log_path(dir: &Path) -> PathBuf {
    dir.join("acked.log")
}

fn is_poison(batch: &[Row]) -> bool {
    batch
        .iter()
        .any(|r| matches!(r[2], Value::Int(t) if t <= POISON_TEMP))
}

/// Child role: run the workload under the armed fault. Kill points abort
/// the process mid-protocol; IO points inject a one-shot disk error and
/// the child runs to completion. Returning at all is a legitimate trial
/// outcome (the point never fired, or the fault was survivable).
///
/// Each completed submission appends one `"{i} <verdict>"` line:
/// `ok` (acked — all fragments committed), `fail` (provably not applied:
/// a deliberate abort or a retryable refusal), or `unk` (an error of
/// unknown fate, e.g. an IO failure whose record may still replay).
pub fn run_child(seed: u64, dir: &Path) -> sstore_common::Result<()> {
    let plan = FaultPlan::from_seed(seed);
    let cluster = Cluster::with_edges(
        plan.partitions,
        RouteSpec::hash(0),
        64,
        &plan.builder(dir),
        deploy_telemetry,
        TELEMETRY_EDGES,
    )?;
    let mut acked = std::fs::File::create(acked_log_path(dir))?;
    if IO_POINTS.contains(&plan.point) {
        fault::arm_io_error(plan.point, plan.nth);
    } else {
        fault::arm(plan.point, plan.nth, fault::KillMode::Abort);
    }
    for (i, batch) in plan.workload().into_iter().enumerate() {
        let poison = is_poison(&batch);
        let Ok(ticket) = cluster.submit_batch_async("ingest", batch) else {
            break; // a worker died without tripping the whole process
        };
        let verdict = match ticket.wait() {
            Ok(outcomes)
                if outcomes
                    .iter()
                    .all(|po| po.outcomes.iter().all(|o| o.status == TxnStatus::Committed)) =>
            {
                "ok"
            }
            // Explicitly aborted outcomes, deliberate poison aborts, and
            // retryable refusals (shed / provably-unexecuted) all share
            // one property: the batch is provably absent from state.
            Ok(_) => "fail",
            Err(_) if poison => "fail",
            Err(e) if e.is_retryable() => "fail",
            Err(_) => "unk",
        };
        // The ack a client would see: only an `ok` batch may be counted
        // on to survive any crash.
        writeln!(acked, "{i} {verdict}")?;
        acked.flush()?;
    }
    let _ = cluster.quiesce();
    Ok(())
}

/// Result of one parent-side trial.
#[derive(Debug)]
pub struct TrialResult {
    /// The plan that ran.
    pub plan: FaultPlan,
    /// Whether the child actually died at the kill point (vs running to
    /// completion because `nth` exceeded the traffic).
    pub crashed: bool,
    /// `None` = invariants held; `Some(diff)` = what went wrong.
    pub failure: Option<String>,
    /// The durability directory (kept on failure for inspection).
    pub dir: PathBuf,
}

/// Parent role: spawn `child_exe` as the crash sandbox for `seed`, then
/// recover and check invariants. `dir` is created fresh (and removed on
/// success unless `keep_dir`).
pub fn run_trial(child_exe: &Path, seed: u64, keep_dir: bool) -> TrialResult {
    let plan = FaultPlan::from_seed(seed);
    let mut dir = std::env::temp_dir();
    dir.push(format!("sstore-campaign-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create trial dir");

    let status = std::process::Command::new(child_exe)
        .env(CHILD_ENV, "1")
        .env(SEED_ENV, seed.to_string())
        .env(DIR_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
    let crashed = match status {
        Ok(s) => !s.success(),
        Err(e) => {
            return TrialResult {
                plan,
                crashed: false,
                failure: Some(format!("child spawn failed: {e}")),
                dir,
            }
        }
    };

    let failure = drill_recovery_fault(&plan, &dir)
        .err()
        .or_else(|| check_recovery(&plan, &dir).err());
    if failure.is_none() && !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    TrialResult {
        plan,
        crashed,
        failure,
        dir,
    }
}

/// The mid-recovery drill: arm `recovery-mid-replay` in panic mode and
/// attempt a recovery. A partition thread panicking mid-replay must
/// surface as a clean per-partition [`sstore_common::Error::Recovery`]
/// from `Cluster::recover` — never a hang, never a process abort — and
/// must leave the durability directory untouched so the real recovery
/// that follows still works. An `Ok` recovery is also admissible: it
/// means the trial's log had nothing left to replay (the child died
/// before its first record survived), so the point never fired.
///
/// **Process-global**: arms a kill point, so only the campaign parent
/// (which runs trials serially) may call this — never in-process tests.
pub(crate) fn drill_recovery_fault(plan: &FaultPlan, dir: &Path) -> Result<(), String> {
    fault::disarm();
    fault::arm("recovery-mid-replay", 1, fault::KillMode::Panic);
    // The panic is expected; keep its backtrace off the campaign output.
    let prior = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let attempt = Cluster::recover(
        plan.partitions,
        RouteSpec::hash(0),
        64,
        &plan.builder(dir),
        deploy_telemetry,
        TELEMETRY_EDGES,
    );
    std::panic::set_hook(prior);
    fault::disarm();
    match attempt {
        Ok(_) => Ok(()), // nothing to replay: the point never fired
        Err(e) if e.kind() == "recovery" => Ok(()),
        Err(e) => Err(format!(
            "mid-replay panic surfaced as `{e}` instead of a recovery error"
        )),
    }
}

/// Recover the trial's durability directory and check the invariants.
///
/// The child's verdict lines pin each submitted batch to *applied*
/// (`ok`), *absent* (`fail`), or *uncertain* (`unk` — an IO error whose
/// record may still replay). A crash additionally leaves the one batch
/// in flight at the kill uncertain. Recovered state must equal the
/// oracle of the applied set plus **some subset** of the uncertain
/// batches — anything else (a lost ack, a resurrected abort, a doubled
/// edge delivery) matches no candidate and fails with the seed.
pub(crate) fn check_recovery(plan: &FaultPlan, dir: &Path) -> Result<(), String> {
    fault::disarm();
    let batches = plan.workload();
    let mut applied: Vec<usize> = Vec::new();
    let mut uncertain: Vec<usize> = Vec::new();
    let mut recorded = 0usize;
    for line in std::fs::read_to_string(acked_log_path(dir))
        .unwrap_or_default()
        .lines()
    {
        let mut parts = line.split_whitespace();
        let Some(i) = parts.next().and_then(|t| t.parse::<usize>().ok()) else {
            continue;
        };
        if i != recorded {
            return Err(format!(
                "verdict line for batch {i} out of order (expected {recorded}): \
                 child accounting broken"
            ));
        }
        recorded += 1;
        match parts.next().unwrap_or("ok") {
            "ok" => applied.push(i),
            "fail" => {}
            _ => uncertain.push(i),
        }
    }
    // Serial submission: the batch in flight when the child died (the
    // first one with no verdict) may or may not have committed; nothing
    // after it was ever submitted.
    if recorded < batches.len() {
        uncertain.push(recorded);
    }
    if uncertain.len() > 6 {
        return Err(format!(
            "{} uncertain batches {uncertain:?}: the one-shot faults can leave at \
             most a couple in doubt — child accounting broken",
            uncertain.len()
        ));
    }

    let cluster = Cluster::recover(
        plan.partitions,
        RouteSpec::hash(0),
        64,
        &plan.builder(dir),
        deploy_telemetry,
        TELEMETRY_EDGES,
    )
    .map_err(|e| format!("recovery failed: {e}"))?;
    cluster
        .quiesce()
        .map_err(|e| format!("post-recovery quiesce failed: {e}"))?;

    let got_device = sorted_rows(&cluster, "SELECT device, n, total, hot FROM device_stats")?;
    let got_area = sorted_rows(&cluster, "SELECT area, n, total, maxt FROM area_stats")?;
    let mut diffs = Vec::new();
    for mask in 0u32..(1 << uncertain.len()) {
        let mut set = applied.clone();
        for (bit, &i) in uncertain.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                set.push(i);
            }
        }
        set.sort_unstable();
        let oracle = TelemetryOracle::of_batches(&batches, set.iter().copied());
        if got_device == oracle.device_rows() && got_area == oracle.area_rows() {
            return Ok(());
        }
        diffs.push(format!(
            "  set {set:?}: expected devices {:?} / areas {:?}",
            oracle.device_rows(),
            oracle.area_rows()
        ));
    }
    Err(format!(
        "recovered state matches no admissible applied set \
         (ok {applied:?}, uncertain {uncertain:?})\n\
         got devices {got_device:?}\n got areas {got_area:?}\n{}",
        diffs.join("\n")
    ))
}

fn sorted_rows(cluster: &Cluster, sql: &str) -> Result<Vec<Vec<Value>>, String> {
    let mut rows: Vec<Vec<Value>> = cluster
        .query_all(sql, &[])
        .map_err(|e| format!("{sql}: {e}"))?
        .iter()
        .map(|r| r.to_values())
        .collect();
    rows.sort();
    Ok(rows)
}

/// Run trials for `seeds`, printing one line per trial and a summary.
/// Returns the failing results (empty = campaign passed).
pub fn run_campaign(child_exe: &Path, seeds: impl Iterator<Item = u64>) -> Vec<TrialResult> {
    let mut failures = Vec::new();
    let mut trials = 0usize;
    let mut crashes = 0usize;
    for seed in seeds {
        let r = run_trial(child_exe, seed, false);
        trials += 1;
        crashes += r.crashed as usize;
        if let Some(why) = &r.failure {
            println!(
                "FAIL seed={seed} point={} nth={} partitions={} — replay: {SEED_ENV}={seed} \
                 cargo run -p sstore-slt --bin crash_campaign\n{why}\n  (durable state kept at {})",
                r.plan.point,
                r.plan.nth,
                r.plan.partitions,
                r.dir.display()
            );
            failures.push(r);
        } else {
            println!(
                "ok   seed={seed} point={} nth={} {}",
                r.plan.point,
                r.plan.nth,
                if r.crashed {
                    "crashed+recovered"
                } else {
                    "ran to completion"
                }
            );
        }
    }
    println!(
        "campaign: {trials} trials, {crashes} injected crashes, {} failures",
        failures.len()
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_varied() {
        let a = FaultPlan::from_seed(9);
        let b = FaultPlan::from_seed(9);
        assert_eq!(a.point, b.point);
        assert_eq!(a.nth, b.nth);
        assert_eq!(a.workload(), b.workload());
        // Across a seed range, every kill and IO point gets picked
        // eventually.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..160 {
            seen.insert(FaultPlan::from_seed(seed).point);
        }
        assert_eq!(
            seen.len(),
            KILL_POINTS.len() + IO_POINTS.len(),
            "seen: {seen:?}"
        );
    }

    #[test]
    fn no_fault_trial_passes_invariants() {
        // Run the child role in-process with nothing armed: the recovery
        // check must accept the full-prefix state.
        let seed = 5u64;
        let plan = FaultPlan::from_seed(seed);
        let mut dir = std::env::temp_dir();
        dir.push(format!("sstore-campaign-inproc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        fault::disarm();
        run_child_unarmed(seed, &dir).unwrap();
        check_recovery(&plan, &dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The child role minus the arming (in-process tests must not arm
    /// process-global kill points).
    fn run_child_unarmed(seed: u64, dir: &Path) -> sstore_common::Result<()> {
        let plan = FaultPlan::from_seed(seed);
        let cluster = Cluster::with_edges(
            plan.partitions,
            RouteSpec::hash(0),
            64,
            &plan.builder(dir),
            deploy_telemetry,
            TELEMETRY_EDGES,
        )?;
        let mut acked = std::fs::File::create(acked_log_path(dir))?;
        for (i, batch) in plan.workload().into_iter().enumerate() {
            let committed = cluster
                .submit_batch_async("ingest", batch)?
                .wait()
                .is_ok_and(|outcomes| {
                    outcomes
                        .iter()
                        .all(|po| po.outcomes.iter().all(|o| o.status == TxnStatus::Committed))
                });
            writeln!(acked, "{i} {}", if committed { "ok" } else { "fail" })?;
        }
        cluster.quiesce()?;
        Ok(())
    }
}
