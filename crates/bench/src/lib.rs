//! Shared benchmark harness for the paper's experiments (DESIGN.md §3).
//!
//! Every experiment id (E1–E8) has a driver here; the criterion benches
//! and the `figures` binary both call into these so numbers line up.

use sstore_bikeshare::{BikeConfig, CitySim, SimReport};
use sstore_core::{recover, SStore, SStoreBuilder};
use sstore_voter::checker::oracle_state;
use sstore_voter::workload::Vote;
use sstore_voter::{
    capture_state, diff_states, install, run_hstore, run_sstore, Discrepancies, Oracle, RunReport,
    VoteGen, VoterConfig, WindowImpl,
};

/// Default Voter configuration for experiments (paper's parameters).
pub fn voter_config() -> VoterConfig {
    VoterConfig::default()
}

/// Deterministic vote stream shared by all experiments.
pub fn votes(n: usize) -> Vec<Vote> {
    VoteGen::new(2014, voter_config().num_contestants).take(n)
}

/// Build an installed S-Store Voter instance.
pub fn sstore_voter(window: WindowImpl, client_cost_us: u64, ee_cost_us: u64) -> SStore {
    let mut db = SStoreBuilder::new()
        .client_trip_cost(client_cost_us)
        .ee_trip_cost(ee_cost_us)
        .build()
        .expect("build");
    install(&mut db, window, &voter_config()).expect("install");
    db
}

/// Build an installed H-Store-mode Voter instance.
pub fn hstore_voter(window: WindowImpl, client_cost_us: u64, ee_cost_us: u64) -> SStore {
    let mut db = SStoreBuilder::new()
        .hstore_mode()
        .client_trip_cost(client_cost_us)
        .ee_trip_cost(ee_cost_us)
        .build()
        .expect("build");
    install(&mut db, window, &voter_config()).expect("install");
    db
}

/// E1: anomaly counts for both systems against the oracle.
pub fn exp_e1(n_votes: usize, inflight: usize) -> (Discrepancies, Discrepancies) {
    let vs = votes(n_votes);
    let mut oracle = Oracle::new(voter_config());
    for v in &vs {
        oracle.feed(v.phone, v.contestant);
    }
    let expected = oracle_state(&oracle);

    let mut s = sstore_voter(WindowImpl::Native, 0, 0);
    run_sstore(&mut s, &vs, 1).expect("sstore run");
    let ds = diff_states(&expected, &capture_state(&mut s).expect("state"));

    let mut h = hstore_voter(WindowImpl::Emulated, 0, 0);
    run_hstore(&mut h, &vs, inflight).expect("hstore run");
    let dh = diff_states(&expected, &capture_state(&mut h).expect("state"));
    (ds, dh)
}

/// E2 / E3a / E3b / E8 share this: run one configuration, return the report.
pub fn run_voter(
    sstore_mode: bool,
    window: WindowImpl,
    n_votes: usize,
    batch: usize,
    inflight: usize,
    client_cost_us: u64,
    ee_cost_us: u64,
) -> RunReport {
    let vs = votes(n_votes);
    if sstore_mode {
        let mut db = sstore_voter(window, client_cost_us, ee_cost_us);
        run_sstore(&mut db, &vs, batch).expect("run")
    } else {
        let mut db = hstore_voter(window, client_cost_us, ee_cost_us);
        run_hstore(&mut db, &vs, inflight).expect("run")
    }
}

/// E4: the BikeShare mixed workload.
pub fn exp_e4(ticks: u64, seed: u64) -> (SimReport, SStore) {
    let cfg = BikeConfig::default();
    let mut db = SStoreBuilder::new().build().expect("build");
    sstore_bikeshare::install(&mut db, &cfg).expect("install");
    let mut sim = CitySim::new(&mut db, cfg.clone(), seed).expect("sim");
    sim.p_start = 0.05;
    sim.p_theft = 0.005;
    let report = sim.run(&mut db, ticks).expect("run");
    sstore_bikeshare::verify_invariants(&mut db, &cfg).expect("invariants");
    (report, db)
}

/// E6 support: run `n` voter batches with durability under `dir`.
pub fn run_durable_voter(dir: &std::path::Path, n_votes: usize, group_commit: usize) -> RunReport {
    let vs = votes(n_votes);
    let mut db = SStoreBuilder::new()
        .durability(dir, group_commit)
        .build()
        .expect("build");
    install(&mut db, WindowImpl::Native, &voter_config()).expect("install");
    run_sstore(&mut db, &vs, 1).expect("run")
}

/// E6: measure recovery wall time for a log of `n_votes` border batches.
pub fn exp_e6_recovery(dir: &std::path::Path, n_votes: usize) -> (f64, bool) {
    // Populate durable state, capture the reference, then "crash".
    let vs = votes(n_votes);
    let reference = {
        let mut db = SStoreBuilder::new()
            .durability(dir, 8)
            .build()
            .expect("build");
        install(&mut db, WindowImpl::Native, &voter_config()).expect("install");
        run_sstore(&mut db, &vs, 1).expect("run");
        capture_state(&mut db).expect("state")
    };
    let t0 = std::time::Instant::now();
    let builder = SStoreBuilder::new().durability(dir, 8);
    let mut recovered = recover(builder.config().clone(), |db| {
        install(db, WindowImpl::Native, &voter_config())
    })
    .expect("recover");
    let secs = t0.elapsed().as_secs_f64();
    let matches =
        diff_states(&reference, &capture_state(&mut recovered).expect("state")).is_clean();
    (secs, matches)
}

/// E7: memory growth with and without stream/window GC is implicit in the
/// engine (GC always runs); we measure the *bound*: bytes after N tuples
/// for two N values — bounded memory means they are close.
pub fn exp_e7(n_tuples: usize) -> usize {
    let mut db = SStoreBuilder::new().build().expect("build");
    db.ddl("CREATE STREAM s_in (v INT)").expect("ddl");
    db.ddl("CREATE WINDOW w (v INT) ROWS 1000 SLIDE 10")
        .expect("ddl");
    db.register(
        sstore_core::ProcSpec::new("ingest", |ctx| {
            for row in ctx.input().rows.clone() {
                ctx.exec("win", &[row[0].clone()])?;
            }
            Ok(())
        })
        .consumes("s_in")
        .owns_window("w")
        .stmt("win", "INSERT INTO w VALUES (?)"),
    )
    .expect("register");
    use sstore_core::common::Value;
    for i in 0..n_tuples {
        db.submit_batch("ingest", vec![vec![Value::Int(i as i64)]])
            .expect("submit");
    }
    db.engine().db().approx_bytes()
}

/// E9 deployment: the `count_events` per-key counting workload —
/// embarrassingly partitionable, the shape the shared-nothing runtime is
/// built for. One definition for every consumer (bench, `figures`, core
/// tests): [`sstore_core::workloads::deploy_count_events`].
pub use sstore_core::workloads::deploy_count_events as count_events_deploy;

/// Deterministic `count_events` input rows (wide key space: 1024 keys).
pub fn count_events_rows(n: usize) -> Vec<sstore_core::common::Row> {
    sstore_core::workloads::count_events_rows(n, 1024, 97)
}

/// E9 reference: the single-partition blocking run. Returns the sorted
/// final `totals` state that every partitioned configuration must match.
pub fn exp_e9_reference(
    events: usize,
    batch: usize,
    ee_latency_us: u64,
) -> Vec<sstore_core::common::Row> {
    let mut db = SStoreBuilder::new()
        .ee_trip_latency(ee_latency_us)
        .build()
        .expect("build");
    count_events_deploy(&mut db).expect("deploy");
    for chunk in count_events_rows(events).chunks(batch) {
        db.submit_batch("count_events", chunk.to_vec())
            .expect("submit");
    }
    let mut rows = db.query("SELECT * FROM totals", &[]).expect("query").rows;
    rows.sort();
    rows
}

/// E9: push `events` rows through an `partitions`-way cluster in batches
/// of `batch`, blocking per submission (`asynchronous = false`) or
/// pipelining tickets through the bounded ingest queues
/// (`asynchronous = true`). The per-statement `ee_latency_us` sleep
/// models the round-trip latency of a remote EE — blocked time the
/// partition workers overlap, which is what lets a cluster scale past
/// the local core count. Returns the wall seconds spent ingesting and
/// the sorted final `totals` state.
pub fn exp_e9_run(
    partitions: usize,
    events: usize,
    batch: usize,
    asynchronous: bool,
    ee_latency_us: u64,
) -> (f64, Vec<sstore_core::common::Row>) {
    use sstore_core::Cluster;
    let builder = SStoreBuilder::new().ee_trip_latency(ee_latency_us);
    let cluster = Cluster::new(partitions, &builder, count_events_deploy).expect("cluster");
    let rows = count_events_rows(events);
    let t0 = std::time::Instant::now();
    if asynchronous {
        let mut tickets = Vec::new();
        for chunk in rows.chunks(batch) {
            tickets.push(
                cluster
                    .submit_batch_async("count_events", chunk.to_vec())
                    .expect("submit"),
            );
        }
        for t in tickets {
            t.wait().expect("ticket");
        }
    } else {
        for chunk in rows.chunks(batch) {
            cluster
                .submit_batch_partitioned("count_events", chunk.to_vec(), 0)
                .expect("submit");
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let mut state = cluster
        .query_all("SELECT * FROM totals", &[])
        .expect("query");
    state.sort();
    (secs, state)
}

/// A fresh scratch directory under the system temp dir.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!(
        "sstore-bench-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0)
    ));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("mkdir");
    p
}

// ---------------------------------------------------------------------------
// E10 — row-pipeline hot paths (zero-copy row refactor)
// ---------------------------------------------------------------------------

/// Build a visible row from owned values (`Row` is cheap-to-clone and
/// shares storage; this is the one place benches materialize fresh rows).
pub fn e10_row(vals: Vec<sstore_core::common::Value>) -> sstore_core::common::Row {
    vals.into()
}

/// E10 setup: an SStore with a `events(id, k, v)` table of `n` rows and a
/// tiny `dims(k, name)` dimension table (8 rows).
pub fn exp_e10_build(n: usize) -> SStore {
    use sstore_core::common::Value;
    let mut db = SStoreBuilder::new().build().expect("build");
    db.ddl(
        "CREATE TABLE events (id INT NOT NULL, k INT NOT NULL, v FLOAT NOT NULL, PRIMARY KEY (id))",
    )
    .expect("ddl");
    db.ddl("CREATE TABLE dims (k INT NOT NULL, name VARCHAR NOT NULL, PRIMARY KEY (k))")
        .expect("ddl");
    for k in 0..8i64 {
        db.setup_sql(
            "INSERT INTO dims VALUES (?, ?)",
            &[Value::Int(k), Value::Text(format!("dim-{k}"))],
        )
        .expect("seed dims");
    }
    // Seed in multi-row VALUES chunks: one parse per 500 rows.
    let mut i = 0usize;
    while i < n {
        let hi = (i + 500).min(n);
        let mut sql = String::from("INSERT INTO events VALUES ");
        for (j, id) in (i..hi).enumerate() {
            if j > 0 {
                sql.push(',');
            }
            sql.push_str(&format!("({}, {}, {}.5)", id, id % 8, id % 100));
        }
        db.setup_sql(&sql, &[]).expect("seed events");
        i = hi;
    }
    db
}

/// E10a: full scan + filter over `events`, materializing roughly half the
/// table — measures per-row handling cost through Scan/Filter/Project.
pub fn exp_e10_scan_filter(db: &mut SStore) -> usize {
    db.query("SELECT id, k, v FROM events WHERE v >= 50.0", &[])
        .expect("query")
        .rows
        .len()
}

/// E10b: nested-loop join + aggregate — measures row concatenation and
/// group-key handling.
pub fn exp_e10_join_agg(db: &mut SStore) -> usize {
    db.query(
        "SELECT d.name, COUNT(*) FROM events e JOIN dims d ON e.k = d.k GROUP BY d.name",
        &[],
    )
    .expect("query")
    .rows
    .len()
}

/// E10c: window-slide maintenance — `n` tuples through a ROWS 5000 SLIDE 10
/// window, the path that used to rescan the whole window table per slide
/// (cost grew with window size; the arrival deque makes it O(slide)).
pub fn exp_e10_window_slide(n: usize) -> usize {
    use sstore_core::common::Value;
    let mut db = SStoreBuilder::new().build().expect("build");
    db.ddl("CREATE STREAM s_in (v INT)").expect("ddl");
    db.ddl("CREATE WINDOW w (v INT) ROWS 5000 SLIDE 10")
        .expect("ddl");
    db.register(
        sstore_core::ProcSpec::new("ingest", |ctx| {
            for row in ctx.input().rows.clone() {
                ctx.exec("win", &[row[0].clone()])?;
            }
            Ok(())
        })
        .consumes("s_in")
        .owns_window("w")
        .stmt("win", "INSERT INTO w VALUES (?)"),
    )
    .expect("register");
    for chunk_start in (0..n).step_by(64) {
        let rows: Vec<sstore_core::common::Row> = (chunk_start..(chunk_start + 64).min(n))
            .map(|i| e10_row(vec![Value::Int(i as i64)]))
            .collect();
        db.submit_batch("ingest", rows).expect("submit");
    }
    db.engine().db().approx_bytes()
}

/// E10d setup: an SStore with a border `observe` procedure that consumes
/// its batch directly (no per-row SQL), plus `events` wide input rows
/// (three ints and a 64-byte payload string each).
pub fn exp_e10_handoff_build(events: usize) -> (SStore, Vec<sstore_core::common::Row>) {
    use sstore_core::common::Value;
    let mut db = SStoreBuilder::new().build().expect("build");
    db.ddl("CREATE STREAM s_in (k INT, a INT, b INT, payload VARCHAR)")
        .expect("ddl");
    db.register(
        sstore_core::ProcSpec::new("observe", |ctx| {
            // A consumer that reads every row of its batch; the hand-off
            // into this context is what's measured.
            let mut checksum = 0i64;
            for row in &ctx.input().rows {
                checksum += row[0].as_int()? + row[3].as_text()?.len() as i64;
            }
            std::hint::black_box(checksum);
            Ok(())
        })
        .consumes("s_in"),
    )
    .expect("register");
    let payload = "x".repeat(64);
    let rows: Vec<sstore_core::common::Row> = (0..events)
        .map(|i| {
            e10_row(vec![
                Value::Int(i as i64),
                Value::Int((i % 97) as i64),
                Value::Int((i % 7) as i64),
                Value::Text(payload.clone()),
            ])
        })
        .collect();
    (db, rows)
}

/// E10d: batch hand-off — push the prebuilt rows through the ingest path
/// in batches of `batch`. Exercises exactly the hand-off the zero-copy
/// refactor targets: client submission → command-log record construction →
/// scheduler queue → procedure-context input batch. Before the refactor
/// every stage deep-copied each row (including the payload string); now
/// each stage is a refcount bump.
pub fn exp_e10_batch_handoff(
    db: &mut SStore,
    rows: &[sstore_core::common::Row],
    batch: usize,
) -> u64 {
    for chunk in rows.chunks(batch) {
        db.submit_batch("observe", chunk.to_vec()).expect("submit");
    }
    db.stats().committed
}

// ---------------------------------------------------------------------------
// E13 — delta snapshots, parallel recovery, 2PC fast paths
// ---------------------------------------------------------------------------

/// E13 key-value workload: `load` bulk-inserts live rows, `touch` updates
/// a hot subset. Deterministic, so recovery can redeploy it.
pub fn deploy_e13_kv(p: &mut SStore) -> sstore_core::common::Result<()> {
    p.ddl("CREATE STREAM load_in (k INT, v INT)")?;
    p.ddl("CREATE STREAM upd_in (k INT, v INT)")?;
    p.ddl("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, PRIMARY KEY (k))")?;
    p.register(
        sstore_core::ProcSpec::new("load", |ctx| {
            for row in ctx.input().rows.clone() {
                ctx.exec("ins", &[row[0].clone(), row[1].clone()])?;
            }
            Ok(())
        })
        .consumes("load_in")
        .stmt("ins", "INSERT INTO kv VALUES (?, ?)"),
    )?;
    p.register(
        sstore_core::ProcSpec::new("touch", |ctx| {
            for row in ctx.input().rows.clone() {
                ctx.exec("upd", &[row[1].clone(), row[0].clone()])?;
            }
            Ok(())
        })
        .consumes("upd_in")
        .stmt("upd", "UPDATE kv SET v = v + ? WHERE k = ?"),
    )?;
    Ok(())
}

fn e13_config(dir: &std::path::Path, delta: bool) -> sstore_core::PeConfig {
    use sstore_core::LogConfig;
    // Cap 0 forces full images at every retention point — the pre-PR-8
    // behavior.
    let cap = if delta { 64 } else { 0 };
    sstore_core::PeConfig {
        log: Some(LogConfig::new(dir).with_delta_chain_cap(cap)),
        ..sstore_core::PeConfig::default()
    }
}

fn e13_rows(range: std::ops::Range<usize>) -> Vec<sstore_core::common::Row> {
    use sstore_core::common::{Row, Value};
    range
        .map(|i| Row::new(vec![Value::Int(i as i64), Value::Int((i % 97) as i64)]))
        .collect()
}

/// Populate a durable E13 partition: `live_rows` inserts, one base
/// snapshot, then `rounds` hot-key update rounds each followed by a
/// retention-style snapshot (deltas when `delta`, full rewrites when
/// not). Returns the partition (still open) and the per-snapshot wall
/// seconds of the post-base snapshots.
pub fn exp_e13_populate(
    dir: &std::path::Path,
    live_rows: usize,
    hot_keys: usize,
    rounds: usize,
    delta: bool,
) -> (SStore, Vec<f64>) {
    let mut p = SStore::new(e13_config(dir, delta)).expect("build");
    deploy_e13_kv(&mut p).expect("deploy");
    for chunk in e13_rows(0..live_rows).chunks(4096) {
        p.submit_batch("load", chunk.to_vec()).expect("load");
    }
    p.snapshot().expect("base snapshot");
    let mut snap_secs = Vec::new();
    for r in 0..rounds {
        let start = (r * hot_keys) % live_rows.saturating_sub(hot_keys).max(1);
        let upd = e13_rows(start..start + hot_keys);
        p.submit_batch("touch", upd).expect("touch");
        let t0 = std::time::Instant::now();
        p.snapshot().expect("snapshot");
        snap_secs.push(t0.elapsed().as_secs_f64());
    }
    (p, snap_secs)
}

/// E13 partition-level recovery leg: crash the populated partition and
/// time `recover`. Returns (recovery wall seconds, post-base snapshot
/// wall seconds, live-row checksum match).
pub fn exp_e13_recovery(
    dir: &std::path::Path,
    live_rows: usize,
    hot_keys: usize,
    rounds: usize,
    delta: bool,
) -> (f64, Vec<f64>, bool) {
    let (mut p, snap_secs) = exp_e13_populate(dir, live_rows, hot_keys, rounds, delta);
    let checksum = |p: &mut SStore| -> i64 {
        p.query("SELECT COUNT(*), SUM(v) FROM kv", &[])
            .expect("probe")
            .rows
            .first()
            .map(|r| {
                r.to_values()
                    .iter()
                    .map(|v| v.as_int().unwrap_or(0))
                    .sum::<i64>()
            })
            .unwrap_or(0)
    };
    let reference = checksum(&mut p);
    drop(p); // crash
    let t0 = std::time::Instant::now();
    let mut r = recover(e13_config(dir, delta), deploy_e13_kv).expect("recover");
    let secs = t0.elapsed().as_secs_f64();
    (secs, snap_secs, checksum(&mut r) == reference)
}

/// E13 cluster leg: populate a `partitions`-way durable cluster with
/// `count_events` traffic, crash it, and time `Cluster::recover`.
/// Returns (recovery wall seconds, recovered state matches).
pub fn exp_e13_cluster_recovery(
    dir: &std::path::Path,
    partitions: usize,
    events: usize,
) -> (f64, bool) {
    use sstore_core::{Cluster, RouteSpec};
    let builder = SStoreBuilder::new().durability(dir, 8).log_retention(512);
    let deploy = sstore_core::workloads::deploy_count_events;
    let reference = {
        let cluster = Cluster::with_edges(
            partitions,
            RouteSpec::hash(0),
            sstore_core::cluster::DEFAULT_INGEST_QUEUE_DEPTH,
            &builder,
            deploy,
            &[],
        )
        .expect("cluster");
        let rows = sstore_core::workloads::count_events_rows(events, 4096, 97);
        let mut tickets = Vec::new();
        for chunk in rows.chunks(256) {
            tickets.push(
                cluster
                    .submit_batch_async("count_events", chunk.to_vec())
                    .expect("submit"),
            );
        }
        for t in tickets {
            t.wait().expect("ticket");
        }
        cluster.quiesce().expect("quiesce");
        let mut state = cluster.query_all("SELECT * FROM totals", &[]).expect("ref");
        state.sort();
        state
    }; // crash: cluster dropped
    let t0 = std::time::Instant::now();
    let cluster = Cluster::recover(
        partitions,
        RouteSpec::hash(0),
        sstore_core::cluster::DEFAULT_INGEST_QUEUE_DEPTH,
        &builder,
        deploy,
        &[],
    )
    .expect("recover");
    let secs = t0.elapsed().as_secs_f64();
    let mut state = cluster
        .query_all("SELECT * FROM totals", &[])
        .expect("state");
    state.sort();
    (secs, state == reference)
}

/// Input rows of the E13 2PC leg: wide key space so unsharded batches
/// straddle every partition (forcing 2PC).
pub fn e11_rows(events: usize) -> Vec<sstore_core::common::Row> {
    sstore_core::workloads::count_events_rows(events, 1024, 97)
}

/// E13 mixed-traffic 2PC leg: multi-partition `count_events` batches
/// (each a global transaction under 2PC) from one thread, with a second
/// thread pumping disjoint single-partition `side` batches into the same
/// cluster. Side ingests that land while a participant is blocked
/// between its prepare vote and the coordinator's decision are executed
/// speculatively (early-prepare speculation).
///
/// Returns (wall seconds, speculative TEs executed, coordinator stats).
pub fn exp_e13_mixed_2pc(
    partitions: usize,
    events: usize,
    batch: usize,
) -> (f64, u64, sstore_core::CoordStats) {
    use sstore_core::Cluster;
    let deploy = |db: &mut SStore| -> sstore_core::common::Result<()> {
        sstore_core::workloads::deploy_count_events_multi(db)?;
        db.ddl("CREATE STREAM side_in (k INT, v INT)")?;
        db.ddl("CREATE TABLE side_totals (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")?;
        db.register(
            sstore_core::ProcSpec::new("side", |ctx| {
                for row in ctx.input().rows.clone() {
                    let k = row[0].clone();
                    let seen = ctx.exec("get", std::slice::from_ref(&k))?;
                    if seen.rows.is_empty() {
                        ctx.exec("init", &[k])?;
                    } else {
                        ctx.exec("bump", &[k])?;
                    }
                }
                Ok(())
            })
            .consumes("side_in")
            .stmt("get", "SELECT k FROM side_totals WHERE k = ?")
            .stmt("init", "INSERT INTO side_totals VALUES (?, 1)")
            .stmt("bump", "UPDATE side_totals SET n = n + 1 WHERE k = ?"),
        )?;
        Ok(())
    };
    let cluster = Cluster::new(partitions, &SStoreBuilder::new(), deploy).expect("cluster");
    let global_rows = e11_rows(events);
    let side_rows = e13_rows(0..events);
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        let c = &cluster;
        let atomic = s.spawn(move || {
            let mut tickets = Vec::new();
            for chunk in global_rows.chunks(batch.max(1)) {
                tickets.push(
                    c.submit_batch_atomic("count_events", chunk.to_vec())
                        .expect("atomic"),
                );
            }
            for t in tickets {
                t.wait().expect("atomic ticket");
            }
        });
        let mut tickets = Vec::new();
        for chunk in side_rows.chunks(batch.max(1)) {
            tickets.push(
                cluster
                    .submit_batch_async("side", chunk.to_vec())
                    .expect("side"),
            );
        }
        for t in tickets {
            t.wait().expect("side ticket");
        }
        atomic.join().expect("atomic thread");
    });
    let secs = t0.elapsed().as_secs_f64();
    let m = cluster.metrics();
    let spec: u64 = m.partitions.iter().map(|p| p.speculative_tes).sum();
    (secs, spec, m.coordinator)
}

// ---- E14: open-loop overload and admission control -------------------------

/// One open-loop overload leg's results (E14).
pub struct E14Leg {
    /// Batches/sec the load generator offered.
    pub offered_per_s: f64,
    /// Batches/sec admission control accepted.
    pub admitted_per_s: f64,
    /// Batches the cluster committed.
    pub committed: u64,
    /// Submissions refused by admission control (from `ClusterMetrics`).
    pub sheds: u64,
    /// Submission attempts.
    pub attempts: u64,
    /// Median submit→commit latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile submit→commit latency, milliseconds.
    pub p95_ms: f64,
    /// Wall time of the leg.
    pub secs: f64,
}

fn e14_cluster(partitions: usize, depth: usize, ee_latency_us: u64) -> sstore_core::Cluster {
    sstore_core::Cluster::with_config(
        partitions,
        sstore_core::RouteSpec::hash(0),
        depth,
        &SStoreBuilder::new().ee_trip_latency(ee_latency_us),
        sstore_core::workloads::deploy_count_events,
    )
    .expect("cluster")
}

/// Closed-loop capacity probe: pipelined blocking submissions for
/// roughly `secs`, returning sustained batches/sec. Blocking
/// `submit_batch_async` applies backpressure at full queues, so this
/// measures the cluster's own pace — the open-loop legs are then offered
/// fractions/multiples of it.
pub fn exp_e14_capacity(
    partitions: usize,
    depth: usize,
    ee_latency_us: u64,
    batch: usize,
    secs: f64,
) -> f64 {
    let cluster = e14_cluster(partitions, depth, ee_latency_us);
    let rows = count_events_rows(batch);
    let mut outstanding = std::collections::VecDeque::new();
    let t0 = std::time::Instant::now();
    let mut done = 0u64;
    while t0.elapsed().as_secs_f64() < secs {
        outstanding.push_back(
            cluster
                .submit_batch_async("count_events", rows.clone())
                .expect("submit"),
        );
        if outstanding.len() >= depth.max(2) {
            outstanding.pop_front().unwrap().wait().expect("wait");
            done += 1;
        }
    }
    for t in outstanding {
        t.wait().expect("wait");
        done += 1;
    }
    done as f64 / t0.elapsed().as_secs_f64()
}

/// One paced open-loop leg (E14): offer `rate` batches/sec for `secs`
/// via the non-blocking admission-control path
/// (`Cluster::try_submit_batch_async`). Refused submissions are dropped,
/// not retried — open-loop clients do not stall with the server — so
/// offered and admitted throughput diverge once the queues fill. A
/// waiter thread records submit→commit latency for admitted batches;
/// shedding keeps the queues (and therefore p50/p95) bounded no matter
/// how far the offered rate exceeds capacity.
pub fn exp_e14_open_loop(
    partitions: usize,
    depth: usize,
    ee_latency_us: u64,
    batch: usize,
    rate: f64,
    secs: f64,
) -> E14Leg {
    let cluster = e14_cluster(partitions, depth, ee_latency_us);
    let rows = count_events_rows(batch);
    let (tx, rx) = std::sync::mpsc::channel::<(std::time::Instant, sstore_core::Ticket)>();
    let (attempts, admitted, lat, committed, wall) = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut lat: Vec<f64> = Vec::new();
            let mut committed = 0u64;
            for (sent, ticket) in rx {
                if ticket.wait().is_ok() {
                    committed += 1;
                    lat.push(sent.elapsed().as_secs_f64() * 1e3);
                }
            }
            lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
            (lat, committed)
        });
        let t0 = std::time::Instant::now();
        let mut attempts = 0u64;
        let mut admitted = 0u64;
        loop {
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed >= secs {
                break;
            }
            // Open-loop pacing: submissions fall due on the offered
            // schedule regardless of how the cluster is keeping up.
            let due = (rate * elapsed) as u64;
            while attempts < due {
                attempts += 1;
                match cluster.try_submit_batch_async("count_events", rows.clone()) {
                    Ok(ticket) => {
                        admitted += 1;
                        tx.send((std::time::Instant::now(), ticket))
                            .expect("waiter alive");
                    }
                    // Shed: the batch is dropped on the floor, exactly
                    // what an overloaded open-loop source experiences.
                    Err(e) if e.kind() == "overloaded" => {}
                    Err(e) => panic!("unexpected submit error: {e}"),
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        drop(tx);
        let (lat, committed) = waiter.join().expect("waiter");
        (
            attempts,
            admitted,
            lat,
            committed,
            t0.elapsed().as_secs_f64(),
        )
    });
    let sheds = cluster.metrics().sheds;
    assert_eq!(
        sheds,
        attempts - admitted,
        "every refused submission must be counted as a shed"
    );
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            0.0
        } else {
            lat[((lat.len() - 1) as f64 * p) as usize]
        }
    };
    E14Leg {
        offered_per_s: attempts as f64 / wall,
        admitted_per_s: admitted as f64 / wall,
        committed,
        sheds,
        attempts,
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        secs: wall,
    }
}
