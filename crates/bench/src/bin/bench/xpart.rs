//! `xpart_2p` — the cross-partition machinery on a durable 2-partition
//! [`Cluster`] (same durability settings as `ingest_durable_2p`). One
//! operation is an **atomic** 64-row batch straddling both partitions
//! (`submit_batch_atomic`: prepare, vote, decision log, decide) plus one
//! 64-row `route_events` batch whose emitted tuples hop to the partition
//! owning their destination key over the `hand_off` edge. The operation
//! completes when both tickets resolve; four are in flight; the wall
//! includes the final `quiesce()`, when every edge ack is in.
//!
//! The only workload where the coordinator, prepare/decide logging, the
//! forward hub and edge dedupe carry the cost. It uses the same log and
//! queue layers as `ingest_durable_2p`, differently: extra fsyncs at the
//! commit points, forwards riding the ingest queues.

use crate::catalog::Workload;
use crate::gen::{kv_batch, route_batch, Rng, BATCH_ROWS};
use crate::ingest::{abba, builder, pe_stats, stage_waterfall, sum_col, Abba, ABBA_PASSES};
use crate::ladder;
use crate::load::{closed_loop, segment_throughput, ClosedStats};
use crate::procs::{deploy_xpart, XPART_EDGES};
use crate::report::{dir_bytes, remove_dir, scratch_dir, Outcome, RunCfg};
use crate::spans::Recorder;
use crate::stats::{median, Summary};
use sstore_common::{Result, Row, RowMetrics};
use sstore_core::cluster::DEFAULT_INGEST_QUEUE_DEPTH;
use sstore_core::{Cluster, PeStats, RouteSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Operations per second of `--seconds`, about the closed-loop rate
/// measured at authoring time.
const OPS_RATE: f64 = 520.0;
/// Operations in flight.
const WINDOW: usize = 4;
/// Distinct operations generated from the seed (see `ingest::POOL`).
const POOL: usize = 1_024;
/// Warm-up operations per second of `--seconds`: 5 % of the untraced
/// run's timed count, and the same on the traced run.
const WARMUP_RATE: f64 = 0.05 * OPS_RATE;
/// Operations of the sequential phase per second of `--seconds`. Kept
/// below the first retention point (512 commits per partition) so the
/// bytes on disk are an exact count.
const SEQUENTIAL_RATE: f64 = 10.0;

fn build(dir: &Path) -> Result<Cluster> {
    Cluster::with_edges(
        2,
        RouteSpec::hash(0),
        DEFAULT_INGEST_QUEUE_DEPTH,
        &builder(dir),
        deploy_xpart,
        XPART_EDGES,
    )
}

/// The two batches of one operation.
struct Op {
    atomic: Vec<Row>,
    routed: Vec<Row>,
}

/// `POOL` operations from the seed. An atomic batch must straddle both
/// partitions to be a 2PC transaction; 64 uniform keys all landing on one
/// partition is a 2⁻⁶³ event, but the generator checks and redraws.
fn pool(cfg: &RunCfg, cluster: &Cluster) -> Vec<Op> {
    let mut rng = Rng::new(cfg.seed, 0x2bc);
    (0..POOL)
        .map(|_| loop {
            let atomic = kv_batch(&mut rng);
            let first = cluster.router().route(&atomic[0]).expect("routable");
            if atomic
                .iter()
                .any(|r| cluster.router().route(r).expect("routable") != first)
            {
                break Op {
                    atomic,
                    routed: route_batch(&mut rng),
                };
            }
        })
        .collect()
}

struct Ready {
    cluster: Cluster,
    dir: PathBuf,
    pool: Vec<Op>,
    warm: usize,
}

fn setup(cfg: &RunCfg, warm: usize) -> Ready {
    let dir = scratch_dir("xpart");
    let cluster = build(&dir).expect("build cluster");
    let pool = pool(cfg, &cluster);
    let stats = run_loop(&cluster, &pool, warm);
    assert_eq!(stats.failed, 0, "warm-up operations must commit");
    Ready {
        cluster,
        dir,
        pool,
        warm,
    }
}

/// The closed loop: `n` operations, [`WINDOW`] in flight, then quiesce.
/// (`submit_batch_atomic` itself blocks through prepare, votes and the
/// decision; the window bounds what is outstanding beyond that.)
fn run_loop(cluster: &Cluster, pool: &[Op], n: usize) -> ClosedStats {
    closed_loop(
        n,
        WINDOW,
        |i| {
            let op = &pool[i % pool.len()];
            let atomic = cluster.submit_batch_atomic("count_events", op.atomic.clone())?;
            let routed = cluster.submit_batch_async("route_events", op.routed.clone())?;
            Ok(vec![atomic, routed])
        },
        || cluster.quiesce(),
    )
}

/// Throughput over five segments of completions, the last one ending at
/// the quiesced wall rather than at the last ticket.
fn throughput(stats: &ClosedStats) -> f64 {
    let mut done = stats.done_at_ns.clone();
    if let Some(last) = done.last_mut() {
        *last = stats.wall_ns;
    }
    segment_throughput(&done, 5)
}

/// The oracle: every row counted exactly once on both sides of the edge,
/// and one 2PC commit per atomic batch.
fn check(cluster: &Cluster, out: &mut Outcome, ops: u64) {
    let rows = ops as i64 * BATCH_ROWS as i64;
    for (col, table) in [("n", "totals"), ("n", "src_counts"), ("n", "dest_totals")] {
        match sum_col(cluster, col, table) {
            Ok(n) if n == rows => {}
            Ok(n) => out.mismatch(format!("{table} counts {n} rows, {rows} were sent")),
            Err(e) => out.mismatch(format!("query_all({table}) failed: {e}")),
        }
    }
    let coord = cluster.coordinator_stats();
    if coord.commits != ops || coord.multi_partition_txns != ops || coord.aborts != 0 {
        out.mismatch(format!(
            "expected {ops} 2PC commits, coordinator saw {coord:?}"
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
    let n = cfg.count(OPS_RATE, 32);
    let (ready, setups) = cfg.set_up(
        || setup(cfg, cfg.count(WARMUP_RATE, 8)),
        |old| {
            drop(old.cluster);
            remove_dir(&old.dir);
        },
    );
    let Ready {
        cluster,
        dir,
        pool,
        warm,
    } = ready;

    let stats = run_loop(&cluster, &pool, n);
    out.attempted = n as u64;
    out.failed = stats.failed;
    check(&cluster, &mut out, (warm + n) as u64 - stats.failed);
    drop(cluster);
    remove_dir(&dir);

    let mut latency = stats.latency_ns.clone();
    let summary = Summary::of(&mut latency);
    out.set_timed(
        "throughput_ops_s",
        throughput(&stats),
        format!("(median of 5 segments, n={n}, {WINDOW} in flight)"),
    );
    out.set_percentile("latency_p50_us", &summary, 50.0);
    out.set_process_metrics(&setups);
    out
}

fn traced(cfg: &RunCfg, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    // 0.7 s a pass: shorter passes of this fsync-bound loop differ by 10 %
    // among themselves and the overhead drowns.
    let n = cfg.count(OPS_RATE * 0.8 / ABBA_PASSES as f64, 8);
    let Ready {
        cluster,
        dir,
        pool,
        warm,
    } = setup(cfg, cfg.count(WARMUP_RATE, 8));

    // The closed loop in short passes; the counter deltas cover them all.
    let rows_before = RowMetrics::snapshot();
    let pe_before = pe_stats(&cluster).expect("stats");
    let Abba {
        traced_latency_ns: mut latency,
        overhead,
        failed,
        note,
        ..
    } = abba(rec, || run_loop(&cluster, &pool, n));
    let pe_after = pe_stats(&cluster).expect("stats");
    let rows = RowMetrics::snapshot().since(&rows_before);
    out.set_timed("obs.trace_overhead_share", overhead, note);
    stage_waterfall(&cluster, &mut out, Workload::Xpart2p);
    let ops = (ABBA_PASSES * n) as f64;
    let syncs: f64 = pe_after
        .iter()
        .zip(&pe_before)
        .map(|(a, b): (&PeStats, &PeStats)| (a.log_syncs - b.log_syncs) as f64)
        .sum();
    out.set("txn.log.syncs_per_op", syncs / ops);
    out.set(
        "common.row.deep_copies_per_op",
        rows.deep_copies as f64 / ops,
    );
    out.set("common.row.cow_breaks_per_op", rows.cow_breaks as f64 / ops);
    // Every traced pass together: one alone has too few operations for
    // ten samples beyond its p99.
    let summary = Summary::of(&mut latency);
    out.set_percentile("latency_p95_us", &summary, 95.0);
    out.set_percentile("latency_p99_us", &summary, 99.0);
    out.attempted = (ABBA_PASSES * n) as u64;
    out.failed = failed;
    let committed = (warm + ABBA_PASSES * n) as u64 - failed;
    check(&cluster, &mut out, committed);
    drop(cluster);
    remove_dir(&dir);

    if let Err(e) = sequential(cfg, rec, &mut out) {
        out.mismatch(format!("sequential phase: {e}"));
        out.zero_unset(&[
            "core.twopc_us_per_txn",
            "core.edge_forward_us",
            "disk_bytes_per_row",
        ]);
    }
    out.set("failed_share", out.failed_share());
    ladder::run(cfg, rec, &mut out);
    out
}

/// One operation in flight on a fresh cluster: what a 2PC transaction
/// costs its caller, how long the edge takes to settle after stage one
/// committed, and — since nothing coalesces or overlaps — an exact count
/// of the bytes the run leaves on disk.
fn sequential(cfg: &RunCfg, rec: &mut Recorder, out: &mut Outcome) -> Result<()> {
    let ops = cfg.count(SEQUENTIAL_RATE, 8).min(100);
    let dir = scratch_dir("xpart-seq");
    let cluster = build(&dir)?;
    let pool = pool(cfg, &cluster);
    let (mut twopc, mut edge) = (Vec::with_capacity(ops), Vec::with_capacity(ops));
    for (i, op) in pool.iter().cycle().take(ops).enumerate() {
        let s = rec.enter("core.twopc", i as u64);
        let t = Instant::now();
        cluster
            .submit_batch_atomic("count_events", op.atomic.clone())?
            .wait()?;
        twopc.push(t.elapsed().as_nanos() as f64 / 1e3);
        rec.exit(s);
        cluster
            .submit_batch_async("route_events", op.routed.clone())?
            .wait()?;
        let s = rec.enter("core.edge_forward", i as u64);
        let t = Instant::now();
        cluster.quiesce()?;
        edge.push(t.elapsed().as_nanos() as f64 / 1e3);
        rec.exit(s);
    }
    check(&cluster, out, ops as u64);
    drop(cluster);
    out.set(
        "disk_bytes_per_row",
        dir_bytes(&dir) as f64 / (ops * 2 * BATCH_ROWS) as f64,
    );
    remove_dir(&dir);
    out.set_timed(
        "core.twopc_us_per_txn",
        median(&twopc),
        format!("(n={ops})"),
    );
    out.set_timed("core.edge_forward_us", median(&edge), format!("(n={ops})"));
    Ok(())
}
