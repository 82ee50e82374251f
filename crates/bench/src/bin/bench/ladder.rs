//! The layer ladder: one fixed seeded input — 64-row batches doing, per
//! row, a primary-key probe and then an insert or an update — reached
//! through one more layer per rung. What a layer charges is the
//! difference to the rung below, the paper's ablation method carried
//! downward:
//!
//! | rung        | reached through                                                    |
//! |-------------|--------------------------------------------------------------------|
//! | `storage`   | `Table::pk_lookup/insert/update` + `UndoLog`                       |
//! | `sql`       | `ExecutionEngine::prepare` once + `execute_planned`, triggers off  |
//! | `engine`    | + stream append, window insert, one EE slide trigger, stream GC   |
//! | `txn`       | `Partition::submit_batch`, in memory (scheduler, PE trigger)      |
//! | `txn_log`   | + command log, group commit 8                                      |
//! | `core`      | 1-partition durable `Cluster`, `submit_batch_async` + `wait`       |
//! | `core_2pc`  | 2 partitions, `submit_batch_atomic` (prepare / decide)             |
//! | `core_edge` | 2 partitions, the emitted tuples hop a cross-partition edge        |
//!
//! A rung's value is the median, over ten equal runs of consecutive
//! batches, of the mean µs per batch — group commit makes one batch in
//! eight pay the fsync, so a per-batch median would hide it.
//!
//! All eight rungs run back to back in one process — the traced run of
//! [`OWNER`] — so that every "added by rung" difference subtracts two
//! numbers taken under the same conditions.

use crate::catalog::Workload;
use crate::gen::{kv_batch, Rng, BATCH_ROWS};
use crate::procs::{
    deploy_ladder, ladder_schema, totals_schema, BUMP, GET, INIT, LADDER_EDGES, LADDER_TRIGGER_SQL,
};
use crate::report::{remove_dir, scratch_dir, Outcome, RunCfg};
use crate::spans::Recorder;
use crate::stats::median;
use sstore_common::{BatchId, Error, Result, Row, Value};
use sstore_core::cluster::DEFAULT_INGEST_QUEUE_DEPTH;
use sstore_core::{Cluster, RouteSpec, SStoreBuilder, TriggerEvent, TxnScratch};
use sstore_engine::ExecutionEngine;
use sstore_storage::{Database, UndoLog, UndoOp};
use std::time::Instant;

/// Ladder batches per second of `--seconds` (3 000 at the frozen 15 s).
const BATCHES_PER_SECOND: f64 = 200.0;

/// The workload whose traced run measures the ladder. The ladder's input
/// does not depend on the workload; `xpart_2p` has it because its
/// operations are the ones that pass through every layer the ladder has.
pub const OWNER: Workload = Workload::Xpart2p;

/// One rung of the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Storage mutators only.
    Storage,
    /// Plus SQL execution.
    Sql,
    /// Plus streams, windows and EE triggers.
    Engine,
    /// Plus the partition engine.
    Txn,
    /// Plus the command log.
    TxnLog,
    /// Plus router, ingest queue and tickets.
    Core,
    /// Plus two-phase commit.
    Core2pc,
    /// Plus a cross-partition workflow edge.
    CoreEdge,
}

impl Rung {
    /// Every rung, bottom up.
    pub const ALL: [Rung; 8] = [
        Rung::Storage,
        Rung::Sql,
        Rung::Engine,
        Rung::Txn,
        Rung::TxnLog,
        Rung::Core,
        Rung::Core2pc,
        Rung::CoreEdge,
    ];

    /// The rung's name inside its metric and span names.
    pub fn name(self) -> &'static str {
        &self.span()["ladder.".len()..]
    }

    /// The rung's metric.
    pub fn metric(self) -> &'static str {
        match self {
            Rung::Storage => "ladder.storage.us_per_batch",
            Rung::Sql => "ladder.sql.us_per_batch",
            Rung::Engine => "ladder.engine.us_per_batch",
            Rung::Txn => "ladder.txn.us_per_batch",
            Rung::TxnLog => "ladder.txn_log.us_per_batch",
            Rung::Core => "ladder.core.us_per_batch",
            Rung::Core2pc => "ladder.core_2pc.us_per_batch",
            Rung::CoreEdge => "ladder.core_edge.us_per_batch",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Rung::Storage => "ladder.storage",
            Rung::Sql => "ladder.sql",
            Rung::Engine => "ladder.engine",
            Rung::Txn => "ladder.txn",
            Rung::TxnLog => "ladder.txn_log",
            Rung::Core => "ladder.core",
            Rung::Core2pc => "ladder.core_2pc",
            Rung::CoreEdge => "ladder.core_edge",
        }
    }
}

/// Times each batch under a span and checks the rung's final row count.
struct Timer<'a> {
    rec: &'a mut Recorder,
    span: &'static str,
    batch_ns: Vec<u64>,
}

impl Timer<'_> {
    fn batch<R>(&mut self, i: usize, f: impl FnOnce() -> Result<R>) -> Result<R> {
        let s = self.rec.enter(self.span, i as u64);
        let t = Instant::now();
        let r = f();
        self.batch_ns.push(t.elapsed().as_nanos() as u64);
        self.rec.exit(s);
        r
    }

    /// Median over ten segments of the mean µs per batch.
    fn us_per_batch(&self) -> f64 {
        let n = self.batch_ns.len();
        if n == 0 {
            return 0.0;
        }
        let segments = n.min(10);
        let means: Vec<f64> = (0..segments)
            .map(|k| {
                let seg = &self.batch_ns[k * n / segments..(k + 1) * n / segments];
                seg.iter().sum::<u64>() as f64 / seg.len() as f64 / 1e3
            })
            .collect();
        median(&means)
    }
}

fn int(v: &Value) -> i64 {
    v.as_int().expect("ladder cells are INT")
}

fn storage(input: &[Vec<Row>], t: &mut Timer<'_>) -> Result<i64> {
    let mut db = Database::new();
    let tid = db.create_table("totals", totals_schema())?;
    for (i, batch) in input.iter().enumerate() {
        t.batch(i, || {
            let mut undo = UndoLog::new();
            let table = db.table_mut(tid)?;
            for row in batch {
                match table.pk_lookup(&row[..1]) {
                    Some(rid) => {
                        let cur = table.get(rid).expect("indexed row exists");
                        let new = Row::new(vec![
                            row[0].clone(),
                            Value::Int(int(&cur[1]) + 1),
                            Value::Int(int(&cur[2]) + int(&row[1])),
                        ]);
                        let old = table.update(rid, new)?;
                        undo.push(UndoOp::Update {
                            table: tid,
                            rid,
                            old,
                        });
                    }
                    None => {
                        let rid = table.insert(Row::new(vec![
                            row[0].clone(),
                            Value::Int(1),
                            row[1].clone(),
                        ]))?;
                        undo.push(UndoOp::Insert { table: tid, rid });
                    }
                }
            }
            undo.commit();
            Ok(())
        })?;
    }
    Ok(db.table(tid)?.scan().map(|(_, r)| int(&r[1])).sum())
}

const SUM_N: &str = "SELECT SUM(n) FROM totals";

/// The `sql` rung (`with_engine = false`) and the `engine` rung.
fn engine(input: &[Vec<Row>], t: &mut Timer<'_>, with_engine: bool) -> Result<i64> {
    let mut e = ExecutionEngine::new();
    ladder_schema(&mut |sql| e.ddl_sql(sql).map(|_| ()))?;
    let mut setup = TxnScratch::new(None, BatchId::new(0));
    e.execute_sql(
        "INSERT INTO ladder_slides VALUES (0, 0)",
        &[],
        &mut setup,
        0,
    )?;
    if with_engine {
        e.create_trigger(
            "ladder_slide",
            "ladder_w",
            TriggerEvent::OnSlide,
            &[LADDER_TRIGGER_SQL],
        )?;
    } else {
        e.set_ee_triggers_enabled(false);
    }
    let out_stream = e.db().resolve("ladder_out")?;
    let (get, init, bump) = (e.prepare(GET)?, e.prepare(INIT)?, e.prepare(BUMP)?);
    let win = e.prepare("INSERT INTO ladder_w VALUES (?)")?;
    let emit = e.prepare("INSERT INTO ladder_out VALUES (?, ?)")?;
    for (i, batch) in input.iter().enumerate() {
        t.batch(i, || {
            let id = BatchId::new(i as u64 + 1);
            let mut scratch = TxnScratch::new(None, id);
            for row in batch {
                let (key, amount) = (row[0].clone(), row[1].clone());
                let seen = e.execute_planned(&get, std::slice::from_ref(&key), &mut scratch, 0)?;
                if seen.rows.is_empty() {
                    e.execute_planned(&init, &[key, amount.clone()], &mut scratch, 0)?;
                } else {
                    e.execute_planned(&bump, &[amount.clone(), key], &mut scratch, 0)?;
                }
                if with_engine {
                    e.execute_planned(&win, std::slice::from_ref(&amount), &mut scratch, 0)?;
                    let hop = Value::Int(int(&row[0]) + 1);
                    e.execute_planned(&emit, &[hop, amount], &mut scratch, 0)?;
                }
            }
            scratch.undo.commit();
            if with_engine {
                e.gc_stream(out_stream, id)?;
            }
            Ok(())
        })?;
    }
    let mut scratch = TxnScratch::new(None, BatchId::new(0));
    e.execute_sql(SUM_N, &[], &mut scratch, 0)?.scalar_i64()
}

fn txn(input: &[Vec<Row>], t: &mut Timer<'_>, durable: bool) -> Result<i64> {
    let dir = durable.then(|| scratch_dir("ladder-txn_log"));
    let mut builder = SStoreBuilder::new();
    if let Some(dir) = &dir {
        builder = builder.durability(dir, 8);
    }
    let mut db = builder.build()?;
    deploy_ladder(&mut db)?;
    for (i, batch) in input.iter().enumerate() {
        t.batch(i, || db.submit_batch("ladder", batch.clone()))?;
    }
    let sum = db.query(SUM_N, &[])?.scalar_i64();
    drop(db);
    if let Some(dir) = &dir {
        remove_dir(dir);
    }
    sum
}

fn cluster(input: &[Vec<Row>], t: &mut Timer<'_>, rung: Rung) -> Result<i64> {
    let dir = scratch_dir(rung.span());
    let builder = SStoreBuilder::new().durability(&dir, 8);
    let partitions = if rung == Rung::Core { 1 } else { 2 };
    let edges = if rung == Rung::CoreEdge {
        LADDER_EDGES
    } else {
        &[]
    };
    let cluster = Cluster::with_edges(
        partitions,
        RouteSpec::hash(0),
        DEFAULT_INGEST_QUEUE_DEPTH,
        &builder,
        deploy_ladder,
        edges,
    )?;
    let n = input.len();
    for (i, batch) in input.iter().enumerate() {
        t.batch(i, || {
            let ticket = if rung == Rung::Core2pc {
                cluster.submit_batch_atomic("ladder", batch.clone())?
            } else {
                cluster.submit_batch_async("ladder", batch.clone())?
            };
            ticket.wait()?;
            // The edge rung is done when every forward has landed and
            // been acknowledged, which the last batch pays for.
            if rung == Rung::CoreEdge && i + 1 == n {
                cluster.quiesce()?;
            }
            Ok(())
        })?;
    }
    let sum = cluster
        .query_all(SUM_N, &[])?
        .iter()
        .map(|r| r[0].as_int().unwrap_or(0))
        .sum();
    if rung == Rung::Core2pc && cluster.coordinator_stats().commits == 0 {
        return Err(Error::Internal(
            "the 2PC rung ran no 2PC transaction".into(),
        ));
    }
    if rung == Rung::CoreEdge && cluster.metrics().total_forwards() == 0 {
        return Err(Error::Internal("the edge rung forwarded nothing".into()));
    }
    drop(cluster);
    remove_dir(&dir);
    Ok(sum)
}

/// Measure every rung on the run's ladder input, bottom up, and record
/// one metric each.
pub fn run(cfg: &RunCfg, rec: &mut Recorder, out: &mut Outcome) {
    let batches = cfg.count(BATCHES_PER_SECOND, 20);
    let mut rng = Rng::new(cfg.seed, 0x1adde2);
    let input: Vec<Vec<Row>> = (0..batches).map(|_| kv_batch(&mut rng)).collect();
    let rows = (batches * BATCH_ROWS) as i64;
    for rung in Rung::ALL {
        let mut t = Timer {
            rec,
            span: rung.span(),
            batch_ns: Vec::with_capacity(batches),
        };
        let counted = match rung {
            Rung::Storage => storage(&input, &mut t),
            Rung::Sql => engine(&input, &mut t, false),
            Rung::Engine => engine(&input, &mut t, true),
            Rung::Txn => txn(&input, &mut t, false),
            Rung::TxnLog => txn(&input, &mut t, true),
            Rung::Core | Rung::Core2pc | Rung::CoreEdge => cluster(&input, &mut t, rung),
        };
        match counted {
            Ok(n) if n == rows => {}
            Ok(n) => out.mismatch(format!("{}: counted {n} rows, sent {rows}", rung.span())),
            Err(e) => out.mismatch(format!("{}: {e}", rung.span())),
        }
        out.set_timed(
            rung.metric(),
            t.us_per_batch(),
            format!("(median of 10 segments, n={batches} batches)"),
        );
    }
}
