//! Direct per-layer timings: calls into one crate's public functions,
//! timed from outside, nothing else running. Each measurement repeats a
//! chunk of calls [`CHUNKS`] times under a span and reports the median
//! chunk's cost per call, so one preempted chunk does not move it. These
//! numbers are workload-independent; one workload's traced run owns each.

use crate::gen::{kv_batch, Rng, BATCH_ROWS};
use crate::procs::{
    deploy_ingest, ladder_schema, totals_schema, BUMP, GET, INIT, LADDER_TRIGGER_SQL, TOTALS_DDL,
};
use crate::report::{remove_dir, scratch_dir, Outcome, RunCfg};
use crate::spans::Recorder;
use crate::stats::median;
use sstore_common::{BatchId, Result, Row, Value};
use sstore_core::ingest::IngestQueue;
use sstore_core::{
    read_log, CommandLog, LogConfig, LogRecord, RouteSpec, Router, SStoreBuilder, TriggerEvent,
    TxnScratch,
};
use sstore_engine::ExecutionEngine;
use sstore_storage::snapshot::Snapshot;
use sstore_storage::{Database, UndoLog, UndoOp};
use std::time::{Duration, Instant};

/// Chunks per measurement.
const CHUNKS: usize = 9;
/// Calls per chunk per second of `--seconds`.
const CALLS_PER_SECOND: f64 = 2_000.0;
/// Rows the point-operation tables hold.
const TABLE_ROWS: usize = 100_000;

fn calls(cfg: &RunCfg) -> usize {
    cfg.count(CALLS_PER_SECOND, 100)
}

/// Run `chunk` [`CHUNKS`] times under span `name`. A chunk prepares its
/// inputs, clocks the calls under test with [`clocked`], and returns that
/// time with the number of units it covered. Returns the median ns per
/// unit.
fn per_unit(
    rec: &mut Recorder,
    name: &'static str,
    mut chunk: impl FnMut(usize) -> Result<(Duration, usize)>,
) -> Result<f64> {
    let mut costs = Vec::with_capacity(CHUNKS);
    for c in 0..CHUNKS {
        let s = rec.enter(name, c as u64);
        let r = chunk(c);
        rec.exit(s);
        let (spent, units) = r?;
        costs.push(spent.as_nanos() as f64 / units.max(1) as f64);
    }
    Ok(median(&costs))
}

fn clocked<R>(f: impl FnOnce() -> Result<R>) -> Result<(Duration, R)> {
    let t = Instant::now();
    let r = f()?;
    Ok((t.elapsed(), r))
}

fn record(out: &mut Outcome, name: &'static str, value: Result<f64>, scale: f64, units: usize) {
    match value {
        Ok(v) => out.set_timed(
            name,
            v / scale,
            format!("(median of {CHUNKS} chunks of {units})"),
        ),
        Err(e) => {
            out.mismatch(format!("{name}: {e}"));
            out.set(name, 0.0);
        }
    }
}

fn totals_row(key: i64) -> Row {
    Row::new(vec![Value::Int(key), Value::Int(1), Value::Int(key % 100)])
}

/// `storage.*`: the table mutators and the undo log, on a 100k-row table.
pub fn storage_ops(cfg: &RunCfg, rec: &mut Recorder, out: &mut Outcome) {
    let m = calls(cfg);
    let table_rows = cfg.sized(TABLE_ROWS) as i64;
    let mut rng = Rng::new(cfg.seed, 0x5707);
    let mut db = Database::new();
    let tid = db
        .create_table("totals", totals_schema())
        .expect("create table");
    for key in 0..table_rows {
        db.table_mut(tid)
            .and_then(|t| t.insert(totals_row(key)))
            .expect("populate");
    }

    let keys: Vec<[Value; 1]> = (0..m)
        .map(|_| [Value::Int(rng.below(table_rows as u64))])
        .collect();
    let v = per_unit(rec, "storage.pk_lookup", |_| {
        let t = db.table(tid)?;
        let (spent, hits) = clocked(|| {
            Ok(keys
                .iter()
                .filter(|k| t.pk_lookup(&k[..]).is_some())
                .count())
        })?;
        assert_eq!(hits, m, "every probed key exists");
        Ok((spent, m))
    });
    record(out, "storage.pk_lookup_ns", v, 1.0, m);

    let mut next_key = table_rows;
    let v = per_unit(rec, "storage.insert", |_| {
        let t = db.table_mut(tid)?;
        let rows: Vec<Row> = (0..m as i64).map(|i| totals_row(next_key + i)).collect();
        next_key += m as i64;
        let (spent, ()) = clocked(|| {
            for row in rows {
                t.insert(row)?;
            }
            Ok(())
        })?;
        Ok((spent, m))
    });
    record(out, "storage.insert_ns", v, 1.0, m);

    // Updates and rollbacks work on pre-resolved row ids and pre-built
    // images, so only the mutator itself is inside the timed chunk.
    let v = per_unit(rec, "storage.update", |c| {
        let t = db.table_mut(tid)?;
        let work: Vec<(u64, Row)> = keys
            .iter()
            .map(|k| {
                let rid = t.pk_lookup(&k[..]).expect("key exists");
                let key = k[0].as_int().expect("int key");
                (
                    rid,
                    Row::new(vec![k[0].clone(), Value::Int(c as i64), Value::Int(key)]),
                )
            })
            .collect();
        let (spent, ()) = clocked(|| {
            for (rid, row) in work {
                t.update(rid, row)?;
            }
            Ok(())
        })?;
        Ok((spent, m))
    });
    record(out, "storage.update_ns", v, 1.0, m);

    let v = per_unit(rec, "storage.undo_rollback", |c| {
        let mut undo = UndoLog::new();
        let t = db.table_mut(tid)?;
        for k in &keys {
            let rid = t.pk_lookup(&k[..]).expect("key exists");
            let old = t.update(
                rid,
                Row::new(vec![k[0].clone(), Value::Int(-(c as i64)), Value::Int(0)]),
            )?;
            undo.push(UndoOp::Update {
                table: tid,
                rid,
                old,
            });
        }
        let (spent, ()) = clocked(|| undo.rollback(&mut db))?;
        Ok((spent, m))
    });
    record(out, "storage.undo_rollback_ns", v, 1.0, m);
}

/// `sql.prepare_us` and the three point statements every ingest
/// procedure is made of, through `ExecutionEngine::execute_planned`.
pub fn sql_points(cfg: &RunCfg, rec: &mut Recorder, out: &mut Outcome) {
    let m = calls(cfg);
    let table_rows = cfg.sized(TABLE_ROWS) as i64;
    let mut rng = Rng::new(cfg.seed, 0x5091);
    let mut e = ExecutionEngine::new();
    e.ddl_sql(TOTALS_DDL).expect("ddl");
    let tid = e.db().resolve("totals").expect("totals");
    for key in 0..table_rows {
        e.db_mut()
            .table_mut(tid)
            .and_then(|t| t.insert(totals_row(key)))
            .expect("populate");
    }
    let keys: Vec<Value> = (0..m)
        .map(|_| Value::Int(rng.below(table_rows as u64)))
        .collect();

    let prepares = (m / 20).max(10);
    let v = per_unit(rec, "sql.prepare", |_| {
        let (spent, ()) = clocked(|| {
            for _ in 0..prepares {
                std::hint::black_box(e.prepare(BUMP)?);
            }
            Ok(())
        })?;
        Ok((spent, prepares))
    });
    record(out, "sql.prepare_us", v, 1e3, prepares);

    let (get, init, bump) = (
        e.prepare(GET).expect("prepare"),
        e.prepare(INIT).expect("prepare"),
        e.prepare(BUMP).expect("prepare"),
    );
    let v = per_unit(rec, "sql.exec_point_get", |c| {
        let mut scratch = TxnScratch::new(None, BatchId::new(c as u64 + 1));
        let (spent, ()) = clocked(|| {
            for k in &keys {
                e.execute_planned(&get, std::slice::from_ref(k), &mut scratch, 0)?;
            }
            Ok(())
        })?;
        Ok((spent, m))
    });
    record(out, "sql.exec_point_get_ns", v, 1.0, m);

    let v = per_unit(rec, "sql.exec_point_update", |c| {
        let mut scratch = TxnScratch::new(None, BatchId::new(c as u64 + 1));
        let (spent, ()) = clocked(|| {
            for k in &keys {
                e.execute_planned(&bump, &[Value::Int(1), k.clone()], &mut scratch, 0)?;
            }
            Ok(())
        })?;
        scratch.undo.commit();
        Ok((spent, m))
    });
    record(out, "sql.exec_point_update_ns", v, 1.0, m);

    let mut next_key = table_rows;
    let v = per_unit(rec, "sql.exec_insert", |c| {
        let mut scratch = TxnScratch::new(None, BatchId::new(c as u64 + 1));
        let (spent, ()) = clocked(|| {
            for _ in 0..m {
                let row = [Value::Int(next_key), Value::Int(1)];
                e.execute_planned(&init, &row, &mut scratch, 0)?;
                next_key += 1;
            }
            Ok(())
        })?;
        scratch.undo.commit();
        Ok((spent, m))
    });
    record(out, "sql.exec_insert_ns", v, 1.0, m);
}

/// `engine.*`: stream append and GC, window insert, and what one window
/// slide (evict 64, fire the EE trigger) adds to the insert that causes it.
pub fn engine_ops(cfg: &RunCfg, rec: &mut Recorder, out: &mut Outcome) {
    let m = calls(cfg);
    let mut e = ExecutionEngine::new();
    ladder_schema(&mut |sql| e.ddl_sql(sql).map(|_| ())).expect("ladder schema");
    let mut setup = TxnScratch::new(None, BatchId::new(0));
    e.execute_sql(
        "INSERT INTO ladder_slides VALUES (0, 0)",
        &[],
        &mut setup,
        0,
    )
    .expect("seed");
    e.create_trigger(
        "ladder_slide",
        "ladder_w",
        TriggerEvent::OnSlide,
        &[LADDER_TRIGGER_SQL],
    )
    .expect("trigger");
    let out_stream = e.db().resolve("ladder_out").expect("stream");
    let emit = e
        .prepare("INSERT INTO ladder_out VALUES (?, ?)")
        .expect("prepare");
    let win = e
        .prepare("INSERT INTO ladder_w VALUES (?)")
        .expect("prepare");

    // Append a chunk to the stream under one batch id, then collect it.
    let mut gc_costs = Vec::with_capacity(CHUNKS);
    let v = per_unit(rec, "engine.stream_append", |c| {
        let id = BatchId::new(c as u64 + 1);
        let mut scratch = TxnScratch::new(None, id);
        let (appending, ()) = clocked(|| {
            for i in 0..m {
                let row = [Value::Int(i as i64), Value::Int(1)];
                e.execute_planned(&emit, &row, &mut scratch, 0)?;
            }
            Ok(())
        })?;
        scratch.undo.commit();
        let (collecting, collected) = clocked(|| e.gc_stream(out_stream, id))?;
        gc_costs.push(collecting.as_nanos() as f64 / collected.max(1) as f64);
        Ok((appending, m))
    });
    record(out, "engine.stream_append_ns", v, 1.0, m);
    out.set_timed(
        "engine.gc_stream_ns_per_row",
        median(&gc_costs),
        format!("(median of {CHUNKS} chunks of {m})"),
    );

    // Per-insert clocks: every 64th insert slides the window.
    let mut plain = Vec::with_capacity(m * CHUNKS);
    let mut sliding = Vec::with_capacity(m * CHUNKS / 64 + 1);
    let s = rec.enter("engine.window_insert", 0);
    let mut scratch = TxnScratch::new(None, BatchId::new(1));
    let mut failed = None;
    for i in 0..m * CHUNKS {
        let t = Instant::now();
        let r = e.execute_planned(&win, &[Value::Int(i as i64)], &mut scratch, 0);
        let ns = t.elapsed().as_nanos() as f64;
        if let Err(err) = r {
            failed = Some(err);
            break;
        }
        if (i + 1) % 64 == 0 {
            sliding.push(ns);
        } else {
            plain.push(ns);
        }
    }
    scratch.undo.commit();
    rec.exit(s);
    if let Some(e) = failed {
        out.mismatch(format!("engine.window_insert: {e}"));
    }
    let insert = median(&plain);
    out.set_timed(
        "engine.window_insert_ns",
        insert,
        format!("(n={})", plain.len()),
    );
    out.set_timed(
        "engine.window_slide_trigger_ns",
        (median(&sliding) - insert).max(0.0),
        format!("(n={} slides)", sliding.len()),
    );
}

fn border_record(batch: u64, rows: Vec<Row>) -> LogRecord {
    LogRecord::BorderBatch {
        batch: BatchId::new(batch),
        proc: "count_events".into(),
        rows,
        ts: batch as i64,
    }
}

/// `txn.log.*`: encode, append, fsync and decode of 64-row border
/// records, against a real file under the benchmark's scratch directory.
pub fn log_ops(cfg: &RunCfg, rec: &mut Recorder, out: &mut Outcome) {
    let records = (calls(cfg) / 20).max(16);
    let rows = records * BATCH_ROWS;
    let mut rng = Rng::new(cfg.seed, 0x109);
    let input: Vec<LogRecord> = (0..records)
        .map(|i| border_record(i as u64 + 1, kv_batch(&mut rng)))
        .collect();

    let mut buf = Vec::new();
    let v = per_unit(rec, "txn.log.encode", |_| {
        buf.clear();
        let (spent, ()) = clocked(|| {
            for r in &input {
                r.encode_binary(&mut buf);
            }
            Ok(())
        })?;
        std::hint::black_box(&buf);
        Ok((spent, rows))
    });
    record(out, "txn.log.encode_ns_per_row", v, 1.0, rows);

    let dir = scratch_dir("layers-log");
    let result = (|| -> Result<()> {
        // Group size beyond reach: `append` never syncs on its own, so
        // append and sync are clocked apart.
        let config = LogConfig::with_group_commit(&dir, usize::MAX);
        let path = config.log_path();
        let mut log = CommandLog::open(config)?;
        let mut sync_us = Vec::with_capacity(CHUNKS * 8);
        let v = per_unit(rec, "txn.log.append", |_| {
            let (spent, ()) = clocked(|| {
                for r in &input {
                    log.append(r)?;
                }
                Ok(())
            })?;
            Ok((spent, rows))
        });
        record(out, "txn.log.append_ns_per_row", v, 1.0, rows);
        log.sync()?;
        // The flush policy of the durable workloads: one fsync per eight
        // 64-row records.
        for group in input.chunks(8).take(CHUNKS * 8) {
            for r in group {
                log.append(r)?;
            }
            let s = rec.enter("txn.log.sync", 0);
            let t = Instant::now();
            log.sync()?;
            sync_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            rec.exit(s);
        }
        out.set_timed(
            "txn.log.sync_us",
            median(&sync_us),
            format!("(n={} fsyncs of 8 records)", sync_us.len()),
        );
        let appended = log.records_written() as f64 * BATCH_ROWS as f64;
        out.set(
            "txn.log.bytes_per_row",
            log.bytes_written() as f64 / appended,
        );
        drop(log);
        let on_disk = read_log(&path)?.len() * BATCH_ROWS;
        let v = per_unit(rec, "txn.log.decode", |_| {
            let (spent, decoded) = clocked(|| read_log(&path))?;
            Ok((spent, decoded.len() * BATCH_ROWS))
        });
        record(out, "txn.log.decode_ns_per_row", v, 1.0, on_disk);
        Ok(())
    })();
    if let Err(e) = result {
        out.mismatch(format!("txn.log: {e}"));
        out.zero_unset(&[
            "txn.log.append_ns_per_row",
            "txn.log.sync_us",
            "txn.log.bytes_per_row",
            "txn.log.decode_ns_per_row",
        ]);
    }
    remove_dir(&dir);
}

/// `storage.snapshot_*`: a full image of a populated `totals` partition,
/// a delta after touching a slice of it, and reading the image back —
/// through `Partition::snapshot`, the way retention reaches them.
pub fn snapshot_ops(cfg: &RunCfg, rec: &mut Recorder, out: &mut Outcome) {
    let batches = cfg.count(80.0, 20);
    let touched = (batches / 20).max(2);
    let (mut full, mut delta, mut read, mut bytes_per_row) = (vec![], vec![], vec![], vec![]);
    for rep in 0..3u64 {
        let dir = scratch_dir("layers-snapshot");
        let result = (|| -> Result<()> {
            let mut rng = Rng::new(cfg.seed, 0x5a9 + rep);
            let mut db = SStoreBuilder::new().durability(&dir, 64).build()?;
            deploy_ingest(&mut db)?;
            for _ in 0..batches {
                db.submit_batch("count_events", kv_batch(&mut rng))?;
            }
            let rows = db.query("SELECT COUNT(*) FROM totals", &[])?.scalar_i64()?;
            let ms = |t: Instant| t.elapsed().as_nanos() as f64 / 1e6;
            let t = Instant::now();
            rec.time("storage.snapshot_full", rep, || db.snapshot())?;
            full.push(ms(t));
            for _ in 0..touched {
                db.submit_batch("count_events", kv_batch(&mut rng))?;
            }
            let t = Instant::now();
            rec.time("storage.snapshot_delta", rep, || db.snapshot())?;
            delta.push(ms(t));
            let stats = db.stats();
            if (stats.snapshots_full, stats.snapshots_delta) != (1, 1) {
                out.mismatch(format!(
                    "expected one full and one delta image, got {} and {}",
                    stats.snapshots_full, stats.snapshots_delta
                ));
            }
            let path = LogConfig::new(&dir).snapshot_path();
            let image_bytes = std::fs::metadata(&path)?.len();
            bytes_per_row.push(image_bytes as f64 / rows.max(1) as f64);
            let t = Instant::now();
            rec.time("storage.snapshot_read", rep, || Snapshot::read_from(&path))?;
            read.push(ms(t));
            Ok(())
        })();
        if let Err(e) = result {
            out.mismatch(format!("storage.snapshot: {e}"));
        }
        remove_dir(&dir);
    }
    let n = format!("(median of 3, {} rows)", batches * BATCH_ROWS);
    out.set_timed("storage.snapshot_full_ms", median(&full), n.clone());
    out.set_timed("storage.snapshot_delta_ms", median(&delta), n.clone());
    out.set_timed("storage.snapshot_read_ms", median(&read), n);
    out.set("storage.snapshot_bytes_per_row", median(&bytes_per_row));
}

/// `core.route_ns_per_row` and `core.queue_handoff_us`: the router's
/// sharding of a batch, and one ingest-queue hand-off between threads
/// (half a ping-pong round trip).
pub fn core_micro(cfg: &RunCfg, rec: &mut Recorder, out: &mut Outcome) {
    let m = (calls(cfg) / 20).max(10);
    let mut rng = Rng::new(cfg.seed, 0xc07e);
    let batches: Vec<Vec<Row>> = (0..m).map(|_| kv_batch(&mut rng)).collect();
    let router = Router::new(RouteSpec::hash(0), 2).expect("router");
    let v = per_unit(rec, "core.route", |_| {
        let owned = batches.clone();
        let (spent, ()) = clocked(|| {
            for b in owned {
                std::hint::black_box(router.shard(b)?);
            }
            Ok(())
        })?;
        Ok((spent, m * BATCH_ROWS))
    });
    record(out, "core.route_ns_per_row", v, 1.0, m * BATCH_ROWS);

    let trips = calls(cfg).max(200);
    let ping: IngestQueue<u64> = IngestQueue::new(4);
    let pong: IngestQueue<u64> = IngestQueue::new(4);
    let mut halves = Vec::with_capacity(trips);
    std::thread::scope(|s| {
        let (ping_rx, pong_tx) = (ping.clone(), pong.clone());
        let echo = s.spawn(move || {
            while let Some(v) = ping_rx.recv() {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let span = rec.enter("core.queue_handoff", 0);
        for i in 0..trips as u64 {
            let t = Instant::now();
            if ping.send(i).is_err() || pong.recv() != Some(i) {
                out.mismatch("core.queue_handoff: the echo thread went away".into());
                break;
            }
            halves.push(t.elapsed().as_nanos() as f64 / 2e3);
        }
        rec.exit(span);
        ping.close();
        echo.join().expect("echo thread");
    });
    out.set_timed(
        "core.queue_handoff_us",
        median(&halves),
        format!("(n={} round trips, halved)", halves.len()),
    );
}
