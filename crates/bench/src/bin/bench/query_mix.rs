//! `query_mix_1p` — reads beside writes on one in-memory partition: a
//! 256k-row `events` table (INT, FLOAT and TEXT columns), 256 `dims`, and
//! a 64k-row sliding window. One operation is one **round** of six read
//! shapes in fixed order — scan + filter + `COUNT/SUM`, grouped aggregate,
//! equi-join with `dims`, TEXT-equality filter, window aggregate, 16
//! primary-key lookups — and **between rounds one write batch** (64
//! updates on a 2 048-key hot set, 64 inserts that also enter the window)
//! goes through a border procedure.
//!
//! Reads are dominated by `sql::planner`/`vexec`, the `vector` kernels
//! and `Table::column_batch`, which rebuilds the column batch from rows
//! on every query. The writes are there so that a read-side cache or a
//! resident column store pays its maintenance where it shows:
//! `write_latency_p50_us` and `throughput_ops_s`. `core`, the command log
//! and triggers are bypassed.
//!
//! Every result is checked against a plain-Rust shadow of the tables that
//! applies the same write batches.

use crate::gen::Rng;
use crate::load::segment_throughput;
use crate::procs::{deploy_query_mix, QM_DIMS, QM_EVENTS, QM_TAGS, QM_WINDOW};
use crate::report::{Outcome, RunCfg};
use crate::spans::Recorder;
use crate::stats::{median, Summary};
use sstore_common::{Result, Row, RowMetrics, Value};
use sstore_core::{ExecPath, SStore, SStoreBuilder};
use std::collections::VecDeque;
use std::time::Instant;

/// Rounds per second of `--seconds`, frozen at authoring time.
const ROUNDS_PER_SECOND: f64 = 3.4;
/// Warm-up rounds before the first timed one.
const WARMUP_ROUNDS: usize = 2;
/// Keys the update half of a write batch draws from.
const HOT_KEYS: usize = 2_048;
/// Updates, and inserts, per write batch.
const HALF_BATCH: usize = 64;
/// Point lookups per round.
const POINTS: usize = 16;

const Q_SCAN: &str = "SELECT COUNT(*), SUM(w) FROM events WHERE v >= ?";
const Q_GROUP: &str = "SELECT k, COUNT(*), SUM(w) FROM events GROUP BY k";
const Q_JOIN: &str = "SELECT COUNT(*), SUM(events.w) FROM events JOIN dims \
                      ON events.k = dims.k WHERE dims.grp = ?";
const Q_TEXT: &str = "SELECT COUNT(*), SUM(w) FROM events WHERE tag = ?";
const Q_WINDOW: &str = "SELECT COUNT(*), SUM(w) FROM recent";
const Q_POINT: &str = "SELECT w FROM events WHERE id = ?";

/// Span and metric of each read shape, in round order.
const SHAPES: [(&str, &str, f64); 6] = [
    ("sql.q_scan_agg", "sql.q_scan_agg_ms", 1e6),
    ("sql.q_group_agg", "sql.q_group_agg_ms", 1e6),
    ("sql.q_join", "sql.q_join_ms", 1e6),
    ("sql.q_text_filter", "sql.q_text_filter_ms", 1e6),
    ("sql.q_window_agg", "sql.q_window_agg_us", 1e3),
    ("sql.q_point", "sql.q_point_us", 1e3),
];

/// One `events` row, as the shadow keeps it.
#[derive(Debug, Clone)]
struct Event {
    k: i64,
    v: f64,
    w: i64,
    tag: i64,
}

fn tag_text(tag: i64) -> Value {
    Value::Text(format!("t{tag:02}"))
}

fn draw_event(rng: &mut Rng) -> Event {
    Event {
        k: rng.below(QM_DIMS as u64),
        // Quarter steps are exact in binary floating point.
        v: rng.below(400) as f64 / 4.0,
        w: rng.below(1_000),
        tag: rng.below(QM_TAGS as u64),
    }
}

fn event_row(id: i64, e: &Event) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Int(e.k),
        Value::Float(e.v),
        Value::Int(e.w),
        tag_text(e.tag),
    ])
}

/// The plain-Rust model of `events` (dense ids, so a `Vec`) and `recent`.
#[derive(Clone)]
struct Shadow {
    events: Vec<Event>,
    window: VecDeque<i64>,
}

/// Parameters of one round, drawn from the seed.
struct RoundParams {
    threshold: f64,
    grp: i64,
    tag: i64,
    points: Vec<i64>,
}

/// What one round read.
#[derive(Debug, PartialEq)]
struct RoundResult {
    scan: (i64, i64),
    groups: Vec<(i64, i64, i64)>,
    join: (i64, i64),
    text: (i64, i64),
    window: (i64, i64),
    points: Vec<i64>,
}

impl Shadow {
    fn count_sum(&self, keep: impl Fn(&Event) -> bool) -> (i64, i64) {
        self.events
            .iter()
            .filter(|e| keep(e))
            .fold((0, 0), |(n, s), e| (n + 1, s + e.w))
    }

    fn round(&self, p: &RoundParams) -> RoundResult {
        let mut groups = vec![(0i64, 0i64); QM_DIMS as usize];
        for e in &self.events {
            groups[e.k as usize].0 += 1;
            groups[e.k as usize].1 += e.w;
        }
        RoundResult {
            scan: self.count_sum(|e| e.v >= p.threshold),
            groups: groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.0 > 0)
                .map(|(k, g)| (k as i64, g.0, g.1))
                .collect(),
            // dims.grp = k % 8, and every event's k has its dims row.
            join: self.count_sum(|e| e.k % 8 == p.grp),
            text: self.count_sum(|e| e.tag == p.tag),
            window: (self.window.len() as i64, self.window.iter().sum()),
            points: p
                .points
                .iter()
                .map(|&id| self.events[id as usize].w)
                .collect(),
        }
    }

    fn apply(&mut self, batch: &[Row]) {
        for row in batch {
            let id = row[1].as_int().expect("id") as usize;
            let (v, w) = (row[3].as_float().expect("v"), row[4].as_int().expect("w"));
            if row[0] == Value::Int(0) {
                self.events[id].v = v;
                self.events[id].w = w;
            } else {
                assert_eq!(id, self.events.len(), "inserted ids are dense");
                let tag = row[5].as_text().expect("tag")[1..]
                    .parse()
                    .expect("tag number");
                self.events.push(Event {
                    k: row[2].as_int().expect("k"),
                    v,
                    w,
                    tag,
                });
                self.window.push_back(w);
                self.window.pop_front();
            }
        }
    }
}

/// The engine under test and the generator state beside it.
struct Ready {
    db: SStore,
    shadow: Shadow,
    hot: Vec<i64>,
    rng: Rng,
}

/// Build, deploy, populate 256k events, 256 dims and a full window from
/// the seed, and run the warm-up rounds.
fn setup(cfg: &RunCfg) -> Ready {
    // A smoke run keeps the shapes and shrinks the tables sixteenfold.
    let n_events = cfg.sized(QM_EVENTS);
    let n_window = cfg.sized(QM_WINDOW);
    let mut rng = Rng::new(cfg.seed, 0x9e7);
    let mut db = SStoreBuilder::new().build().expect("build partition");
    deploy_query_mix(&mut db, n_window).expect("deploy");
    for k in 0..QM_DIMS {
        db.setup_sql(
            "INSERT INTO dims VALUES (?, ?, ?)",
            &[
                Value::Int(k),
                Value::Text(format!("dim-{k:03}")),
                Value::Int(k % 8),
            ],
        )
        .expect("seed dims");
    }
    let events: Vec<Event> = (0..n_events).map(|_| draw_event(&mut rng)).collect();
    // Base rows go straight into storage: population is set-up, and the
    // table mutator is the cheapest public way in.
    let tid = db.engine().db().resolve("events").expect("events");
    let table = db.engine_mut().db_mut().table_mut(tid).expect("events");
    for (id, e) in events.iter().enumerate() {
        table.insert(event_row(id as i64, e)).expect("populate");
    }
    // The window has to go through the engine, which maintains its
    // arrival order and aggregate cache.
    let first = n_events - n_window;
    for chunk in (first..n_events).collect::<Vec<_>>().chunks(512) {
        let values: Vec<String> = chunk
            .iter()
            .map(|&id| format!("({id}, {})", events[id].w))
            .collect();
        db.setup_sql(
            &format!("INSERT INTO recent VALUES {}", values.join(",")),
            &[],
        )
        .expect("prefill window");
    }
    let window = events[first..].iter().map(|e| e.w).collect();
    let hot = (0..HOT_KEYS).map(|_| rng.below(n_events as u64)).collect();
    let mut ready = Ready {
        db,
        shadow: Shadow { events, window },
        hot,
        rng,
    };
    let mut rec = Recorder::new(false);
    for _ in 0..WARMUP_ROUNDS {
        let params = draw_params(&mut ready);
        let got = read_round(&mut ready.db, &params, &mut rec, 0).expect("warm-up round");
        assert_eq!(
            got.0,
            ready.shadow.round(&params),
            "warm-up round is correct"
        );
        let batch = draw_writes(&mut ready);
        ready
            .db
            .submit_batch("apply_writes", batch.clone())
            .expect("warm-up writes");
        ready.shadow.apply(&batch);
    }
    ready
}

fn draw_params(r: &mut Ready) -> RoundParams {
    let rows = r.shadow.events.len() as u64;
    RoundParams {
        threshold: 45.0 + r.rng.below(41) as f64 / 4.0,
        grp: r.rng.below(8),
        tag: r.rng.below(QM_TAGS as u64),
        points: (0..POINTS).map(|_| r.rng.below(rows)).collect(),
    }
}

/// One write batch: `op, id, k, v, w, tag` rows, updates first.
fn draw_writes(r: &mut Ready) -> Vec<Row> {
    let mut batch = Vec::with_capacity(2 * HALF_BATCH);
    for _ in 0..HALF_BATCH {
        let id = r.hot[r.rng.below(HOT_KEYS as u64) as usize];
        let e = draw_event(&mut r.rng);
        let mut row = event_row(id, &e).to_values();
        row.insert(0, Value::Int(0));
        batch.push(Row::new(row));
    }
    let next = r.shadow.events.len() as i64;
    for i in 0..HALF_BATCH as i64 {
        let e = draw_event(&mut r.rng);
        let mut row = event_row(next + i, &e).to_values();
        row.insert(0, Value::Int(1));
        batch.push(Row::new(row));
    }
    batch
}

fn pair(rows: &[Row]) -> Result<(i64, i64)> {
    let row = &rows[0];
    // SUM over an empty selection is NULL; the shadow says 0.
    Ok((row[0].as_int()?, row[1].as_int().unwrap_or(0)))
}

/// Run the six shapes; returns the results and each shape's ns.
fn read_round(
    db: &mut SStore,
    p: &RoundParams,
    rec: &mut Recorder,
    op: u64,
) -> Result<(RoundResult, [u64; 6])> {
    let mut ns = [0u64; 6];
    let mut timed = |shape: usize, sql: &str, params: &[Value]| {
        let s = rec.enter(SHAPES[shape].0, op);
        let t = Instant::now();
        let r = db.query(sql, params);
        ns[shape] += t.elapsed().as_nanos() as u64;
        rec.exit(s);
        r.map(|r| r.rows)
    };
    let scan = pair(&timed(0, Q_SCAN, &[Value::Float(p.threshold)])?)?;
    let mut groups: Vec<(i64, i64, i64)> = timed(1, Q_GROUP, &[])?
        .iter()
        .map(|r| Ok((r[0].as_int()?, r[1].as_int()?, r[2].as_int()?)))
        .collect::<Result<_>>()?;
    groups.sort_unstable();
    let join = pair(&timed(2, Q_JOIN, &[Value::Int(p.grp)])?)?;
    let text = pair(&timed(3, Q_TEXT, &[tag_text(p.tag)])?)?;
    let window = pair(&timed(4, Q_WINDOW, &[])?)?;
    let mut points = Vec::with_capacity(p.points.len());
    for &id in &p.points {
        points.push(timed(5, Q_POINT, &[Value::Int(id)])?[0][0].as_int()?);
    }
    Ok((
        RoundResult {
            scan,
            groups,
            join,
            text,
            window,
            points,
        },
        ns,
    ))
}

/// Run the workload.
pub fn run(cfg: &RunCfg, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    // Half the rounds on a traced run: 25 at the frozen 15 s, enough for
    // the medians it reports (a round takes 0.3 s, so no percentile above
    // the median is within reach, and none is reported).
    let share = if cfg.trace { 0.5 } else { 1.0 };
    let rounds = cfg.count(ROUNDS_PER_SECOND * share, 4);

    let (mut ready, setups) = cfg.set_up(|| setup(cfg), drop);

    // Timed rounds. Parameters, results and write batches are kept and
    // checked against a copy of the shadow afterwards, outside the clock.
    let mut replay = ready.shadow.clone();
    let rows_before = RowMetrics::snapshot();
    let mut log = Vec::with_capacity(rounds);
    let mut read_ns = Vec::with_capacity(rounds);
    let mut write_ns = Vec::with_capacity(rounds);
    let mut shape_ns: [Vec<u64>; 6] = Default::default();
    let mut done_at = Vec::with_capacity(rounds);
    let mut failed = 0u64;
    let t0 = Instant::now();
    for i in 0..rounds {
        let params = draw_params(&mut ready);
        let batch = draw_writes(&mut ready);
        let s = rec.enter("query_mix.round", i as u64);
        let t = Instant::now();
        let got = read_round(&mut ready.db, &params, rec, i as u64);
        read_ns.push(t.elapsed().as_nanos() as u64);
        rec.exit(s);
        let s = rec.enter("query_mix.write_batch", i as u64);
        let t = Instant::now();
        let wrote = ready.db.submit_batch("apply_writes", batch.clone());
        write_ns.push(t.elapsed().as_nanos() as u64);
        rec.exit(s);
        done_at.push(t0.elapsed().as_nanos() as u64);
        let committed = matches!(&wrote, Ok(o) if o.iter().all(|te| te.is_committed()));
        match got {
            Ok((result, ns)) if committed => {
                for (all, one) in shape_ns.iter_mut().zip(ns) {
                    all.push(one);
                }
                log.push((params, result, batch.clone()));
            }
            _ => failed += 1,
        }
        // The next draw needs the new row count (inserted ids are dense);
        // results are compared after the clock stops.
        ready.shadow.apply(&batch);
    }
    let rows = RowMetrics::snapshot().since(&rows_before);
    out.attempted = rounds as u64;
    out.failed = failed;

    if log.len() != rounds {
        out.mismatch(format!("{} of {rounds} rounds failed", rounds - log.len()));
    }
    for (i, (params, got, batch)) in log.iter().enumerate() {
        let want = replay.round(params);
        if *got != want {
            out.mismatch(format!(
                "round {i}: engine read {got:?}, shadow says {want:?}"
            ));
            break;
        }
        replay.apply(batch);
    }
    let log_records = ready.db.stats().log_records;
    if log_records != 0 {
        out.mismatch(format!("query_mix_1p wrote {log_records} log records"));
    }

    let reads = Summary::of(&mut read_ns);
    let writes = Summary::of(&mut write_ns);
    if cfg.trace {
        out.set("failed_share", out.failed_share());
        out.set_percentile("write_latency_p50_us", &writes, 50.0);
        for ((_, metric, scale), ns) in SHAPES.iter().zip(&shape_ns) {
            let v: Vec<f64> = ns.iter().map(|&x| x as f64 / scale).collect();
            out.set_timed(metric, median(&v), format!("(n={} rounds)", v.len()));
        }
        out.set(
            "common.row.deep_copies_per_op",
            rows.deep_copies as f64 / rounds as f64,
        );
        out.set(
            "common.row.cow_breaks_per_op",
            rows.cow_breaks as f64 / rounds as f64,
        );
        direct(&mut ready.db, rec, &mut out);
    } else {
        out.set_timed(
            "throughput_ops_s",
            segment_throughput(&done_at, 5),
            format!("(rounds with their write batch, median of 5 segments, n={rounds})"),
        );
        out.set_percentile("latency_p50_us", &reads, 50.0);
        out.set_process_metrics(&setups);
    }
    out
}

/// The per-layer numbers no round shows on its own: `column_batch`
/// alone, the row path forced on the scan shape, and the vector path net
/// of batch materialisation.
fn direct(db: &mut SStore, rec: &mut Recorder, out: &mut Outcome) {
    const REPS: usize = 7;
    let ms = |t: Instant| t.elapsed().as_nanos() as f64 / 1e6;
    let tid = db.engine().db().resolve("events").expect("events");
    let (mut all, mut needed, mut row_path, mut vec_path) = (vec![], vec![], vec![], vec![]);
    for rep in 0..REPS as u64 {
        let table = db.engine().db().table(tid).expect("events");
        let t = Instant::now();
        std::hint::black_box(rec.time("storage.column_batch", rep, || table.column_batch(None)));
        all.push(ms(t));
        // The scan shape reads `v` and `w` only.
        let t = Instant::now();
        std::hint::black_box(table.column_batch(Some(&[2, 3])));
        needed.push(ms(t));
        let params = [Value::Float(50.0)];
        let t = Instant::now();
        let vector = db.query(Q_SCAN, &params).expect("vector path");
        vec_path.push(ms(t));
        db.engine_mut().set_exec_path(ExecPath::Row);
        let t = Instant::now();
        let row = rec.time("sql.row_path_scan_agg", rep, || db.query(Q_SCAN, &params));
        row_path.push(ms(t));
        db.engine_mut().set_exec_path(ExecPath::Vector);
        if row.expect("row path").rows != vector.rows {
            out.mismatch("row and vector paths disagree on the scan shape".into());
        }
    }
    let n = format!("(median of {REPS})");
    out.set_timed("storage.column_batch_ms", median(&all), n.clone());
    out.set_timed("sql.row_path_scan_agg_ms", median(&row_path), n.clone());
    out.set_timed(
        "vector.scan_agg_net_ms",
        (median(&vec_path) - median(&needed)).max(0.0),
        n,
    );
}
