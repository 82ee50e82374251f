//! `ingest_durable_2p` — durable routed ingest on a 2-partition
//! [`Cluster`]: 64-row batches over 100k uniform keys, so every batch
//! spans both partitions, into a `count_events`-shape procedure (three
//! point statements per row). Flush policy, fixed and the same on every
//! commit measured: binary command log, one fsync per 8 records
//! (`durability(dir, 8)`), snapshot + log GC every 512 commits
//! (`log_retention(512)`), delta snapshots at their default chain cap.
//!
//! Phases (all fixed-count):
//! * **P1** closed-loop saturation: pipelined submissions, as many in
//!   flight as an ingest queue holds. Gives `throughput_ops_s`.
//! * **eight clients** (untraced): the same closed loop with eight
//!   batches in flight. Gives `latency_p50_us`. The gated latency is taken
//!   here and not from the open loop because the open loop's median sits
//!   on the edge between batches that pay an fsync and batches that do
//!   not, and moved 16 % between runs of the same code (README.md).
//! * **P2** (traced) open loop at three frozen absolute rates through
//!   `try_submit_batch_async`, each batch timed from its due time.
//! * **P3** (traced) a frozen 2× overload rung: what admission control
//!   sheds and what the admitted batches wait.
//! * **P4** (traced) a deterministic population, sequential submit+wait,
//!   copied five times and recovered with `Cluster::recover`.
//!
//! Most of the work is in `core` (router, ingest queue, tickets,
//! coalescing), `txn::log` (encode, append, fsync), `storage::snapshot`
//! and `txn::recovery`. 2PC is bypassed: the run asserts the coordinator
//! saw no transaction at all.

use crate::catalog::{Workload, PER_LAYER};
use crate::gen::{kv_batch, Rng, BATCH_ROWS};
use crate::layers;
use crate::load::{closed_loop, open_loop, segment_throughput, ClosedStats, OpenStats};
use crate::procs::deploy_ingest;
use crate::report::{copy_dir, dir_bytes, remove_dir, scratch_dir, Outcome, RunCfg};
use crate::spans::Recorder;
use crate::stats::{median, Summary};
use sstore_common::obs;
use sstore_common::{Result, Row, RowMetrics};
use sstore_core::cluster::DEFAULT_INGEST_QUEUE_DEPTH;
use sstore_core::{read_log, Cluster, LogConfig, PeStats, RouteSpec, SStoreBuilder};
use std::path::Path;
use std::time::Instant;

/// P1 batches per second of `--seconds`: about the saturation rate
/// measured at authoring time, so P1 lasts `P1_SHARE × --seconds`.
const P1_RATE: f64 = 4_500.0;
/// Share of `--seconds` P1 takes on the untraced run; the eight-client
/// phase takes the rest.
const P1_SHARE: f64 = 0.45;
/// Closed-loop clients of the untraced run's latency phase.
const CLIENTS: usize = 8;
/// Batches per second of `--seconds` in that phase: about the rate eight
/// clients reached at authoring time.
const CLIENTS_RATE: f64 = 4_500.0;
/// Frozen open-loop rates, ops/s: about 40 %, 70 % and 90 % of the P1
/// throughput measured at authoring time.
pub const RATE_LO: f64 = 1_800.0;
/// See [`RATE_LO`].
pub const RATE_MID: f64 = 3_200.0;
/// See [`RATE_LO`].
pub const RATE_HI: f64 = 4_100.0;
/// Frozen overload rung, ops/s: about twice the measured P1 throughput.
pub const RATE_OVERLOAD: f64 = 9_000.0;
/// Frozen latency limit on P2: an admitted batch slower than this from
/// its due time counts as failed. A full ingest queue drains in about
/// 56 ms and the host's disk stalls for up to 140 ms, so a batch over
/// 250 ms was failed by the system, not by a hiccup.
pub const LATENCY_LIMIT_US: f64 = 250_000.0;
/// A P2 rung whose generator-lateness p95 exceeds this share of the
/// rung's latency p95 marks the run's open-loop numbers invalid
/// (`gen.lateness_share`).
const LATENESS_SHARE_LIMIT: f64 = 0.1;
/// Distinct batches generated from the seed; operation `i` submits
/// `pool[i % POOL]`, which keeps row generation off the two cores the
/// partition workers need.
const POOL: usize = 2_048;
/// Warm-up batches of the untraced run, as a share of its P1 count.
const WARMUP_SHARE: f64 = 0.05;
/// P4 population, batches per second of `--seconds`.
const POPULATION_RATE: f64 = 150.0;
/// Copies of the populated directory P4 recovers.
const RECOVERIES: usize = 5;

/// The durability settings every cluster of this workload uses.
pub fn builder(dir: &Path) -> SStoreBuilder {
    SStoreBuilder::new().durability(dir, 8).log_retention(512)
}

fn build(dir: &Path) -> Result<Cluster> {
    Cluster::with_config(
        2,
        RouteSpec::hash(0),
        DEFAULT_INGEST_QUEUE_DEPTH,
        &builder(dir),
        deploy_ingest,
    )
}

/// `SUM(col)` over `table` across partitions.
pub fn sum_col(cluster: &Cluster, col: &str, table: &str) -> Result<i64> {
    Ok(cluster
        .query_all(&format!("SELECT SUM({col}) FROM {table}"), &[])?
        .iter()
        .map(|r| r[0].as_int().unwrap_or(0))
        .sum())
}

/// Every partition's counters, in partition order.
pub fn pe_stats(cluster: &Cluster) -> Result<Vec<PeStats>> {
    (0..cluster.len())
        .map(|i| cluster.with_partition(i, |db| db.stats()))
        .collect()
}

/// Record the `core.stage.<stage>_{p50,p95}_us` values `workload` owns,
/// read from the cluster's own observability report (cumulative time
/// since submit; adjacent differences give per-stage durations).
pub fn stage_waterfall(cluster: &Cluster, out: &mut Outcome, workload: Workload) {
    let report = cluster.observability_report();
    for def in PER_LAYER.iter().filter(|d| d.owners.contains(&workload)) {
        let Some((stage, pct)) = def
            .name
            .strip_prefix("core.stage.")
            .and_then(|rest| rest.split_once('_'))
        else {
            continue;
        };
        let h = report.stages.get(stage).cloned().unwrap_or_default();
        let value = if pct == "p50_us" { h.p50_us } else { h.p95_us };
        out.set_timed(def.name, value, format!("(n={})", h.count));
    }
}

/// Replay a traced closed loop's submit calls and ticket waits into the
/// span log, shifted to the recorder's clock (`base` = its time when the
/// loop began).
fn add_loop_spans(rec: &mut Recorder, base: u64, stats: &ClosedStats) {
    for (op, &(start, end)) in stats.submits.iter().enumerate() {
        rec.add("core.submit_call", op as u64, base + start, base + end);
    }
    for &(op, start, end) in &stats.waits {
        rec.add("core.ticket_wait", op, base + start, base + end);
    }
}

/// What [`abba`] measured.
pub struct Abba {
    /// The first traced pass (its spans are already in the recorder).
    pub on: ClosedStats,
    /// Operation latencies of every traced pass, ns.
    pub traced_latency_ns: Vec<u64>,
    /// `1 - traced / untraced` throughput, median over the rounds.
    pub overhead: f64,
    /// Failed operations over all passes.
    pub failed: u64,
    /// Every round's value, for the report.
    pub note: String,
}

/// Rounds of four passes [`abba`] makes.
const ABBA_ROUNDS: usize = 4;
/// Passes [`abba`] makes.
pub const ABBA_PASSES: usize = 4 * ABBA_ROUNDS;

/// Run a closed-loop `pass` [`ABBA_PASSES`] times, in rounds of tracing
/// off, on, on, off, and compare traced with untraced throughput (ops /
/// wall) inside each round. The order cancels a linear drift out of a
/// round; short rounds and the median over them keep a retention
/// snapshot or a slow second of the disk from deciding the result.
pub fn abba(rec: &mut Recorder, mut pass: impl FnMut() -> ClosedStats) -> Abba {
    let mut overheads = Vec::with_capacity(ABBA_ROUNDS);
    let mut first_on = None;
    let mut traced_latency_ns = Vec::new();
    let mut failed = 0;
    for _ in 0..ABBA_ROUNDS {
        let (mut traced, mut untraced) = (0.0, 0.0);
        for on in [false, true, true, false] {
            obs::set_enabled(on);
            let base = rec.now_ns();
            let stats = pass();
            let rate = stats.done_at_ns.len() as f64 / (stats.wall_ns as f64 / 1e9);
            failed += stats.failed;
            if on {
                traced += rate;
                traced_latency_ns.extend_from_slice(&stats.latency_ns);
                if first_on.is_none() {
                    add_loop_spans(rec, base, &stats);
                    first_on = Some(stats);
                }
            } else {
                untraced += rate;
            }
        }
        overheads.push(1.0 - traced / untraced);
    }
    let on = first_on.expect("every round has a traced pass");
    Abba {
        traced_latency_ns,
        overhead: median(&overheads),
        failed,
        note: format!(
            "(median of {ABBA_ROUNDS} off/on/on/off rounds {overheads:.3?}, n={} a pass)",
            on.done_at_ns.len()
        ),
        on,
    }
}

struct Ready {
    cluster: Cluster,
    dir: std::path::PathBuf,
    pool: Vec<Vec<Row>>,
}

fn setup(cfg: &RunCfg, warm: usize) -> Ready {
    let dir = scratch_dir("ingest");
    let cluster = build(&dir).expect("build cluster");
    let mut rng = Rng::new(cfg.seed, 0x1267);
    let pool: Vec<Vec<Row>> = (0..POOL).map(|_| kv_batch(&mut rng)).collect();
    let stats = p1(&cluster, &pool, warm);
    assert_eq!(stats.failed, 0, "warm-up batches must commit");
    Ready { cluster, dir, pool }
}

/// P1: `n` pipelined batches, a queue's depth in flight.
fn p1(cluster: &Cluster, pool: &[Vec<Row>], n: usize) -> ClosedStats {
    closed(cluster, pool, n, DEFAULT_INGEST_QUEUE_DEPTH)
}

/// `n` batches, closed loop, `window` in flight.
fn closed(cluster: &Cluster, pool: &[Vec<Row>], n: usize, window: usize) -> ClosedStats {
    closed_loop(
        n,
        window,
        |i| {
            cluster
                .submit_batch_async("count_events", pool[i % pool.len()].clone())
                .map(|t| vec![t])
        },
        || Ok(()),
    )
}

/// Failures of an open-loop rung: errors, sheds, and admitted batches
/// over the latency limit.
fn open_failed(s: &OpenStats) -> u64 {
    let late = s
        .latency_ns
        .iter()
        .filter(|&&ns| ns as f64 / 1e3 > LATENCY_LIMIT_US)
        .count() as u64;
    s.errors + s.sheds + late
}

fn committed_batches(s: &OpenStats) -> u64 {
    s.latency_ns.len() as u64
}

/// The oracle after the timed phases: every committed row counted once,
/// and the coordinator never involved.
fn check(cluster: &Cluster, out: &mut Outcome, committed_batches: u64) {
    let expect = committed_batches as i64 * BATCH_ROWS as i64;
    match sum_col(cluster, "n", "totals") {
        Ok(n) if n == expect => {}
        Ok(n) => out.mismatch(format!("totals count {n} rows, {expect} were committed")),
        Err(e) => out.mismatch(format!("query_all failed: {e}")),
    }
    let coord = cluster.coordinator_stats();
    if coord.multi_partition_txns + coord.single_partition_fast_path != 0 {
        out.mismatch(format!(
            "ingest_durable_2p must bypass the coordinator, saw {coord:?}"
        ));
    }
}

/// Run the workload.
pub fn run(cfg: &RunCfg, rec: &mut Recorder) -> Outcome {
    if cfg.trace {
        traced(cfg, rec)
    } else {
        untraced(cfg)
    }
}

fn untraced(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let n1 = cfg.count(P1_RATE * P1_SHARE, 64);
    let n2 = cfg.count(CLIENTS_RATE * (1.0 - P1_SHARE), 64);

    let warm = ((n1 as f64 * WARMUP_SHARE) as usize).max(16);
    let (ready, setups) = cfg.set_up(
        || setup(cfg, warm),
        |old| {
            drop(old.cluster);
            remove_dir(&old.dir);
        },
    );
    let Ready { cluster, dir, pool } = ready;

    let saturated = p1(&cluster, &pool, n1);
    let clients = closed(&cluster, &pool, n2, CLIENTS);
    out.attempted = (n1 + n2) as u64;
    out.failed = saturated.failed + clients.failed;
    let committed = (warm + n1 + n2) as u64 - out.failed;
    check(&cluster, &mut out, committed);
    drop(cluster);
    remove_dir(&dir);

    let mut latency = clients.latency_ns.clone();
    let summary = Summary::of(&mut latency);
    out.notes.push(format!(
        "P1 {n1} batches with {DEFAULT_INGEST_QUEUE_DEPTH} in flight; \
         then {n2} batches with {CLIENTS} in flight"
    ));
    out.set_timed(
        "throughput_ops_s",
        segment_throughput(&saturated.done_at_ns, 5),
        format!("(P1, median of 5 segments, n={n1})"),
    );
    out.set_percentile("latency_p50_us", &summary, 50.0);
    out.set_process_metrics(&setups);
    out
}

/// One open-loop rung of the traced run.
struct RungResult {
    rate: f64,
    summary: Summary,
    stats: OpenStats,
}

impl RungResult {
    /// p95 within the limit, at most 0.1 % failed, and no growing backlog:
    /// the second half of the schedule had at most twice as many batches
    /// outstanding as the first (or 16, whichever is more).
    fn sustained(&self) -> bool {
        self.summary.p95_us() <= LATENCY_LIMIT_US
            && open_failed(&self.stats) as f64 <= 0.001 * self.stats.attempted as f64
            && self.stats.backlog_late <= 2.0 * self.stats.backlog_early.max(16.0)
    }
}

fn traced(cfg: &RunCfg, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let n1 = cfg.count(P1_RATE * 0.4 / ABBA_PASSES as f64, 64);
    // Four passes' worth of warm-up: the passes compared below must all
    // run on a populated key space (98 % of the 100k keys exist by then),
    // or the first, untraced ones pay the inserts and the comparison
    // reads as negative tracing overhead.
    let warm = 4 * n1;
    let Ready { cluster, dir, pool } = setup(cfg, warm);
    let mut committed = warm as u64;

    // P1 in short passes on one cluster; the counter deltas cover them all.
    let rows_before = RowMetrics::snapshot();
    let pe_before = pe_stats(&cluster).expect("stats");
    let Abba {
        on,
        overhead,
        failed: p1_failed,
        note,
        ..
    } = abba(rec, || p1(&cluster, &pool, n1));
    let pe_after = pe_stats(&cluster).expect("stats");
    let rows = RowMetrics::snapshot().since(&rows_before);
    committed += (ABBA_PASSES * n1) as u64 - p1_failed;
    out.set_timed("obs.trace_overhead_share", overhead, note);
    let submit: Vec<f64> = on
        .submits
        .iter()
        .map(|&(s, e)| (e - s) as f64 / 1e3)
        .collect();
    let wait: Vec<f64> = on
        .waits
        .iter()
        .map(|&(_, s, e)| (e - s) as f64 / 1e3)
        .collect();
    out.set_timed("core.submit_call_us", median(&submit), format!("(n={n1})"));
    out.set_timed("core.ticket_wait_us", median(&wait), format!("(n={n1})"));
    stage_waterfall(&cluster, &mut out, Workload::IngestDurable2p);
    let ops = (ABBA_PASSES * n1) as f64;
    let delta = |f: fn(&PeStats) -> u64| -> f64 {
        pe_after
            .iter()
            .zip(&pe_before)
            .map(|(a, b)| (f(a) - f(b)) as f64)
            .sum()
    };
    out.set("txn.log.syncs_per_op", delta(|s| s.log_syncs) / ops);
    out.set(
        "core.coalesced_share",
        delta(|s| s.batches_coalesced) / delta(|s| s.batches_submitted).max(1.0),
    );
    out.set("core.skew", cluster.metrics().skew());
    out.set(
        "common.row.deep_copies_per_op",
        rows.deep_copies as f64 / ops,
    );
    out.set("common.row.cow_breaks_per_op", rows.cow_breaks as f64 / ops);

    // P2 at the three frozen rates, then the P3 overload rung.
    let mut rungs = Vec::new();
    for rate in [RATE_LO, RATE_MID, RATE_HI] {
        let n = cfg.count(rate * 0.2, 64);
        let stats = rec.time("ingest.p2", rate as u64, || {
            open_loop(&cluster, "count_events", &pool, rate, n)
        });
        committed += committed_batches(&stats);
        let mut latency = stats.latency_ns.clone();
        rungs.push(RungResult {
            rate,
            summary: Summary::of(&mut latency),
            stats,
        });
    }
    let (lo, mid, hi) = (&rungs[0], &rungs[1], &rungs[2]);
    out.set_percentile("core.rate_lo.p95_us", &lo.summary, 95.0);
    out.set_percentile("core.rate_hi.p95_us", &hi.summary, 95.0);
    out.set_percentile("core.rate_mid.p99_us", &mid.summary, 99.0);
    out.set_percentile("latency_p95_us", &mid.summary, 95.0);
    out.set_percentile("latency_p99_us", &mid.summary, 99.0);
    out.set(
        "core.sustained_rate_ops_s",
        rungs
            .iter()
            .filter(|r| r.sustained())
            .map(|r| r.rate)
            .fold(0.0, f64::max),
    );
    let mut lateness = mid.stats.lateness_ns.clone();
    out.set_percentile("gen.lateness_p95_us", &Summary::of(&mut lateness), 95.0);
    // The open loop reports p95 and p99 only, and a latency runs from the
    // due time, so it contains the generator's delay: what matters is how
    // much of a reported percentile that delay can be.
    let mut worst = 0.0f64;
    for r in &rungs {
        let mut lateness = r.stats.lateness_ns.clone();
        let late = Summary::of(&mut lateness);
        worst = worst.max(late.p95_us() / r.summary.p95_us().max(1e-3));
        out.notes.push(format!(
            "P2 at {} ops/s: latency {}; generator lateness {}; {} shed; median backlog {} then {}",
            r.rate,
            r.summary.describe(),
            late.describe(),
            r.stats.sheds,
            r.stats.backlog_early,
            r.stats.backlog_late
        ));
    }
    out.set("gen.lateness_share", worst);
    if worst > LATENESS_SHARE_LIMIT {
        out.notes.push(format!(
            "INVALID OPEN LOOP: generator lateness p95 is {:.0}% of latency p95 on one rung \
             (limit {:.0}%), so core.rate_*, latency_p95/p99_us and \
             core.sustained_rate_ops_s measure the generator",
            worst * 100.0,
            LATENESS_SHARE_LIMIT * 100.0
        ));
    }
    out.attempted = (ABBA_PASSES * n1) as u64 + mid.stats.attempted;
    out.failed = p1_failed + open_failed(&mid.stats);
    // Sheds and late batches are load behaviour; an operation that
    // returns an error on this workload is a wrong output.
    let errors = p1_failed + rungs.iter().map(|r| r.stats.errors).sum::<u64>();
    if errors > 0 {
        out.mismatch(format!("{errors} operations returned an error"));
    }

    let n3 = cfg.count(RATE_OVERLOAD * 0.08, 64);
    let over = rec.time("ingest.p3", 0, || {
        open_loop(&cluster, "count_events", &pool, RATE_OVERLOAD, n3)
    });
    committed += committed_batches(&over);
    let mut latency = over.latency_ns.clone();
    let admitted = Summary::of(&mut latency);
    out.set(
        "core.overload.shed_share",
        over.sheds as f64 / over.attempted as f64,
    );
    out.set_percentile("core.overload.admitted_p95_us", &admitted, 95.0);
    out.notes.push(format!(
        "P3 offered {n3} batches at {RATE_OVERLOAD} ops/s: {} shed, {} errors",
        over.sheds, over.errors
    ));

    check(&cluster, &mut out, committed);
    drop(cluster);
    remove_dir(&dir);

    if let Err(e) = recovery(cfg, rec, &mut out) {
        out.mismatch(format!("P4 recovery: {e}"));
        out.zero_unset(&[
            "recovery_ms",
            "disk_bytes_per_row",
            "txn.recover_replay_us_per_batch",
        ]);
    }
    out.set("failed_share", out.failed_share());

    layers::log_ops(cfg, rec, &mut out);
    layers::snapshot_ops(cfg, rec, &mut out);
    layers::core_micro(cfg, rec, &mut out);
    out
}

fn state(cluster: &Cluster) -> Result<Vec<Row>> {
    let mut rows = cluster.query_all("SELECT key, n, total FROM totals", &[])?;
    rows.sort();
    Ok(rows)
}

/// P4: populate deterministically (one batch in flight, so coalescing
/// cannot vary what reaches the disk), measure the directory, then
/// recover five copies of it and compare each with the pre-drop state.
fn recovery(cfg: &RunCfg, rec: &mut Recorder, out: &mut Outcome) -> Result<()> {
    let batches = cfg.count(POPULATION_RATE, 32);
    let dir = scratch_dir("ingest-p4");
    let mut rng = Rng::new(cfg.seed, 0x9471);
    let cluster = build(&dir)?;
    for _ in 0..batches {
        cluster
            .submit_batch_async("count_events", kv_batch(&mut rng))?
            .wait()?;
    }
    let before = state(&cluster)?;
    drop(cluster);
    out.set(
        "disk_bytes_per_row",
        dir_bytes(&dir) as f64 / (batches * BATCH_ROWS) as f64,
    );
    let replayed: usize = (0..2)
        .map(|p| {
            let log = LogConfig::new(dir.join(format!("p{p}"))).log_path();
            read_log(&log).map_or(0, |records| records.iter().filter(|r| r.is_input()).count())
        })
        .sum();

    let replay_hist = obs::histogram("recovery.log_replay");
    let replay_before = replay_hist.snapshot();
    let mut walls = Vec::with_capacity(RECOVERIES);
    for i in 0..RECOVERIES {
        let copy = scratch_dir(&format!("ingest-p4-copy{i}"));
        copy_dir(&dir, &copy)?;
        let s = rec.enter("txn.recover", i as u64);
        let t = Instant::now();
        let recovered = Cluster::recover(
            2,
            RouteSpec::hash(0),
            DEFAULT_INGEST_QUEUE_DEPTH,
            &builder(&copy),
            deploy_ingest,
            &[],
        );
        walls.push(t.elapsed().as_nanos() as f64 / 1e6);
        rec.exit(s);
        let recovered = recovered?;
        if state(&recovered)? != before {
            out.mismatch(format!(
                "recovered copy {i} differs from the pre-drop state"
            ));
        }
        drop(recovered);
        remove_dir(&copy);
    }
    remove_dir(&dir);
    out.set_timed(
        "recovery_ms",
        median(&walls),
        format!("(median of {RECOVERIES} recoveries, {batches} batches populated)"),
    );
    let replay = replay_hist.snapshot().since(&replay_before);
    out.set_timed(
        "txn.recover_replay_us_per_batch",
        replay.mean() * replay.count() as f64 / 1e3 / (RECOVERIES * replayed).max(1) as f64,
        format!("(n={replayed} replayed records per recovery)"),
    );
    Ok(())
}
