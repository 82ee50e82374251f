//! Allocation budgets on the TE hot path, and the durable layer's disk
//! work per batch, pinned as invariants.
//!
//! A counting global allocator tallies `alloc`, `alloc_zeroed` and
//! `realloc` calls per thread, so the test threads running beside a
//! measurement never count toward it. Each test reads the counter around
//! a steady-state region and fails when the per-operation figure exceeds
//! its budget, printing the measured value either way; run with
//! `--nocapture` to see every reading.
//!
//! Budgets are upper bounds with a little slack over the measured value.
//! A change that raises one says why.
//!
//! The tests that run the engine hold [`EXCLUSIVE`], so the process-wide
//! [`RowMetrics`] counters one of them reads see only its own work.

use sstore::common::{durable, BatchId, Row, RowMetrics, Value};
use sstore::core::workloads::{count_events_rows, deploy_count_events};
use sstore::{ProcSpec, SStore, SStoreBuilder};
use sstore_engine::{ExecutionEngine, TxnScratch};
use sstore_voter::{install, VoteGen, VoterConfig, WindowImpl};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

/// The system allocator, counting the calls that obtain memory.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// The only unsafe code in the workspace: a `GlobalAlloc` cannot be
// implemented without it. Every method forwards its arguments unchanged
// to `System`, and the counter it bumps is a `const` thread-local `Cell`,
// which neither allocates nor registers a destructor.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Held by every test that runs the engine (see the module docs).
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Print `what` per operation and fail when it exceeds `budget`.
fn check(what: &str, total: u64, ops: u64, budget: f64) {
    let per_op = total as f64 / ops as f64;
    println!("{what}: {per_op:.2} allocations (budget {budget})");
    assert!(
        per_op <= budget,
        "{what}: {per_op:.2} allocations per operation, over the budget of {budget}"
    );
}

/// Allocations `make` performs (its result is kept opaque to the
/// optimizer, which could otherwise elide an unused allocation).
fn allocations_of<T>(make: impl FnOnce() -> T) -> u64 {
    let before = allocs();
    drop(std::hint::black_box(make()));
    allocs() - before
}

#[test]
fn row_construction_allocates_as_documented() {
    let new = allocations_of(|| Row::new(vec![Value::Int(1), Value::Int(2)]));
    let array = allocations_of(|| Row::from([Value::Int(1), Value::Int(2)]));
    let cells = [Value::Int(1), Value::Int(2)];
    let collected = allocations_of(|| cells.iter().cloned().collect::<Row>());
    let row = Row::from(cells);
    let wider = allocations_of(|| row.with_appended([Value::Int(3), Value::Int(4)]));
    let joined = allocations_of(|| row.concat(&row));
    println!(
        "row: Row::new(vec![..]) {new}, Row::from([..]) {array}, collect {collected}, \
         with_appended {wider}, concat {joined}"
    );
    assert_eq!((new, array, collected, wider, joined), (2, 1, 1, 1, 1));
}

/// One Voter vote as the benchmark issues it: a one-row border batch
/// through the three-procedure workflow, then a millisecond of show time.
fn vote(db: &mut SStore, phone: i64, contestant: i64) {
    db.submit_batch(
        "validate",
        vec![vec![Value::Int(phone), Value::Int(contestant)]],
    )
    .unwrap();
    db.advance_clock(1_000);
}

#[test]
fn voter_vote_allocations_stay_within_budget() {
    const WARM: usize = 5_000;
    const TIMED: usize = 50_000;
    let config = VoterConfig {
        elimination_every: 4_000,
        trending_window: 100,
        trending_slide: 10,
        ..VoterConfig::default()
    };
    let _guard = exclusive();
    let mut db = SStoreBuilder::new().build().unwrap();
    install(&mut db, WindowImpl::Native, &config).unwrap();
    let votes = VoteGen::new(7, config.num_contestants).take(WARM + TIMED);
    for v in &votes[..WARM] {
        vote(&mut db, v.phone, v.contestant);
    }
    let before = allocs();
    for v in &votes[WARM..] {
        vote(&mut db, v.phone, v.contestant);
    }
    check("voter: per vote", allocs() - before, TIMED as u64, 13.3);
}

#[test]
fn count_events_allocations_per_row_stay_within_budget() {
    const KEYS: i64 = 1_000;
    const BATCH: usize = 64;
    const BATCHES: usize = 200;
    let _guard = exclusive();
    let mut db = SStoreBuilder::new().build().unwrap();
    deploy_count_events(&mut db).unwrap();
    // The first batch creates every key, so each timed row takes the
    // steady-state path: a point SELECT, then the bump UPDATE.
    db.submit_batch("count_events", count_events_rows(KEYS as usize, KEYS, 7))
        .unwrap();
    let batches: Vec<Vec<Row>> = (0..BATCHES)
        .map(|_| count_events_rows(BATCH, KEYS, 7))
        .collect();
    let before = allocs();
    for rows in batches {
        db.submit_batch("count_events", rows).unwrap();
    }
    check(
        "count_events: per row",
        allocs() - before,
        (BATCH * BATCHES) as u64,
        0.12,
    );
}

/// Rows in the point-statement table.
const TABLE_ROWS: i64 = 100_000;
/// Statements of each kind timed.
const PROBES: i64 = 2_000;

#[derive(Default)]
struct PointCosts {
    select: u64,
    update: u64,
    /// Copy-on-write breaks of the updated row, read through `RowMetrics`.
    update_cow_breaks: u64,
    insert: u64,
}

/// A point `SELECT`, a point `UPDATE` and a single-row `INSERT … VALUES`,
/// each issued from a procedure body on a table of [`TABLE_ROWS`] rows.
/// Only the `exec` call is counted. The SELECT's result is lent from the
/// TE's scratch and overwrites its last row in place; the UPDATE writes
/// its cell in place: no allocation and, since no handle shares the
/// stored row, no copy-on-write break.
#[test]
fn point_statement_allocations_stay_within_budget() {
    let _guard = exclusive();
    let mut db = SStoreBuilder::new().build().unwrap();
    db.ddl("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, PRIMARY KEY (k))")
        .unwrap();
    db.register(
        ProcSpec::new("load", |ctx| {
            for row in &ctx.input().rows {
                ctx.exec("put", &[row[0].clone(), row[1].clone()])?;
            }
            Ok(())
        })
        .stmt("put", "INSERT INTO kv VALUES (?, ?)"),
    )
    .unwrap();
    let costs = Arc::new(Mutex::new(PointCosts::default()));
    let out = Arc::clone(&costs);
    db.register(
        ProcSpec::new("probe", move |ctx| {
            let mut c = PointCosts::default();
            for i in 0..PROBES {
                let key = [Value::Int(i * 37 % TABLE_ROWS)];
                let before = allocs();
                ctx.exec("get", &key)?;
                c.select += allocs() - before;

                let (before, cow) = (allocs(), RowMetrics::snapshot());
                ctx.exec("bump", &key)?;
                c.update += allocs() - before;
                c.update_cow_breaks += RowMetrics::snapshot().since(&cow).cow_breaks;

                let row = [Value::Int(TABLE_ROWS + i), Value::Int(i)];
                let before = allocs();
                ctx.exec("put", &row)?;
                c.insert += allocs() - before;
            }
            *out.lock().unwrap() = c;
            Ok(())
        })
        .stmt("get", "SELECT v FROM kv WHERE k = ?")
        .stmt("bump", "UPDATE kv SET v = v + 1 WHERE k = ?")
        .stmt("put", "INSERT INTO kv VALUES (?, ?)"),
    )
    .unwrap();
    for start in (0..TABLE_ROWS).step_by(1_000) {
        let rows: Vec<Row> = (start..start + 1_000)
            .map(|k| Row::from([Value::Int(k), Value::Int(0)]))
            .collect();
        db.submit_batch("load", rows).unwrap();
    }
    db.submit_batch::<Row>("probe", vec![]).unwrap();

    let c = costs.lock().unwrap();
    let n = PROBES as u64;
    check("point SELECT", c.select, n, 0.1);
    check("point UPDATE", c.update, n, 0.1);
    check("single-row INSERT … VALUES", c.insert, n, 1.1);
    println!("point UPDATE: {} copy-on-write breaks", c.update_cow_breaks);
    assert_eq!(c.update_cow_breaks, 0, "a point UPDATE copied its row");
}

/// A point `SELECT` and a point `UPDATE` issued straight through
/// `ExecutionEngine::execute_planned`, the path the benchmark's
/// `sql.exec_point_get_ns` and `sql.exec_point_update_ns` time, on a table
/// of [`TABLE_ROWS`] rows: once warm, neither allocates. A `SELECT *`
/// lends the stored row's own handle; the next statement lets it go
/// before it runs, so the UPDATE of that row still writes in place.
#[test]
fn execute_planned_point_statements_allocate_nothing() {
    let _guard = exclusive();
    let mut e = ExecutionEngine::new();
    e.ddl_sql("CREATE TABLE kv (k INT NOT NULL, v INT NOT NULL, PRIMARY KEY (k))")
        .unwrap();
    let mut scratch = TxnScratch::new(None, BatchId::new(1));
    let put = e.prepare("INSERT INTO kv VALUES (?, 0)").unwrap();
    for k in 0..TABLE_ROWS {
        e.execute_planned(&put, &[Value::Int(k)], &mut scratch, 0)
            .unwrap();
    }
    scratch.undo.commit();
    let get = e.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let bump = e.prepare("UPDATE kv SET v = v + 1 WHERE k = ?").unwrap();
    let whole = e.prepare("SELECT * FROM kv WHERE k = ?").unwrap();
    let (mut select, mut update) = (0, 0);
    let cow = RowMetrics::snapshot();
    for i in 0..PROBES {
        let key = [Value::Int(i * 37 % TABLE_ROWS)];
        let before = allocs();
        let found = e.execute_planned(&get, &key, &mut scratch, 0).unwrap();
        select += allocs() - before;
        assert_eq!(found.rows.len(), 1);

        e.execute_planned(&whole, &key, &mut scratch, 0).unwrap();
        let before = allocs();
        e.execute_planned(&bump, &key, &mut scratch, 0).unwrap();
        update += allocs() - before;
        scratch.undo.commit();
    }
    let n = PROBES as u64;
    check("execute_planned point SELECT", select, n, 0.1);
    check("execute_planned point UPDATE", update, n, 0.1);
    let breaks = RowMetrics::snapshot().since(&cow).cow_breaks;
    println!("execute_planned point UPDATE after SELECT *: {breaks} copy-on-write breaks");
    assert_eq!(breaks, 0, "an UPDATE copied a row a lent result still held");
}

/// `INSERT INTO t SELECT k, COUNT(*) FROM w GROUP BY k` over a window,
/// deployed in a procedure: the window's grouped state answers the
/// aggregate, its one output row per group passes the identity projection
/// up, and the INSERT stores that row as it is, so each inserted group
/// costs one allocation (plus two per statement: the state's group list
/// and the result vector).
#[test]
fn grouped_window_insert_allocates_one_row_per_group() {
    const GROUPS: i64 = 50;
    const REFRESHES: u64 = 200;
    let _guard = exclusive();
    let mut db = SStoreBuilder::new().build().unwrap();
    db.ddl("CREATE WINDOW w (k INT) ROWS 200 SLIDE 10").unwrap();
    db.ddl("CREATE TABLE t (k INT NOT NULL, n INT NOT NULL)")
        .unwrap();
    for i in 0..200 {
        db.setup_sql("INSERT INTO w VALUES (?)", &[Value::Int(i % GROUPS)])
            .unwrap();
    }
    let spent = Arc::new(Mutex::new(0));
    let out = Arc::clone(&spent);
    db.register(
        ProcSpec::new("refresh", move |ctx| {
            let mut n = 0;
            for _ in 0..REFRESHES {
                ctx.exec("clear", &[])?;
                let before = allocs();
                let affected = ctx.exec("refresh", &[])?.rows_affected;
                n += allocs() - before;
                assert_eq!(affected, GROUPS as usize);
            }
            *out.lock().unwrap() = n;
            Ok(())
        })
        .owns_window("w")
        .stmt("clear", "DELETE FROM t")
        .stmt(
            "refresh",
            "INSERT INTO t SELECT k, COUNT(*) FROM w GROUP BY k",
        ),
    )
    .unwrap();
    db.submit_batch::<Row>("refresh", vec![]).unwrap();
    let n = *spent.lock().unwrap();
    check(
        "grouped window INSERT … SELECT: per group",
        n,
        REFRESHES * GROUPS as u64,
        1.1,
    );
}

/// The disk work behind a fixed run of 64-row `count_events` batches on
/// one durable partition, group commit 8, as `common::durable` counts it
/// on the submitting thread: the command log's `sync_data` calls per
/// batch, exactly; the writes that grow the log, at most one per 64 KiB
/// reserve chunk of the bytes it ends with, plus one (an append past the
/// end of the file would make every sync one); and one directory sync,
/// for creating the log.
#[test]
fn durable_partition_syncs_and_file_growth_stay_pinned() {
    const BATCHES: u64 = 400;
    /// `common::durable`'s reserve chunk.
    const CHUNK: u64 = 64 * 1024;
    let _guard = exclusive();
    let dir = std::env::temp_dir().join(format!("sstore-durable-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let before = durable::counts();
    let mut db = SStoreBuilder::new().durability(&dir, 8).build().unwrap();
    deploy_count_events(&mut db).unwrap();
    for _ in 0..BATCHES {
        db.submit_batch("count_events", count_events_rows(64, 1_000, 7))
            .unwrap();
    }
    drop(db);
    let after = durable::counts();
    let bytes = std::fs::metadata(dir.join("command.log")).unwrap().len();
    let syncs = after.syncs - before.syncs;
    let growths = after.size_changes - before.size_changes;
    let chunks = bytes.div_ceil(CHUNK);
    println!(
        "durable: {:.3} syncs per batch, {growths} size-changing writes for {bytes} log bytes \
         ({chunks} chunks), {} directory syncs",
        syncs as f64 / BATCHES as f64,
        after.dir_syncs - before.dir_syncs
    );
    assert_eq!(syncs, BATCHES / 4, "one sync per group of 8 records");
    assert!(growths <= chunks + 1, "{growths} writes grew the log");
    assert_eq!(after.dir_syncs - before.dir_syncs, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Copy-on-write breaks of 64-row `count_events` batches on a durable
/// partition whose retention points cut delta snapshots, so every table
/// keeps a change journal. Each bump UPDATE writes its row in place, and
/// the journal records that write as the row's slot id, not as a handle
/// of the row, so the next write of the row finds it unshared: breaks
/// stay near zero per batch. A journal that held a handle per written
/// row would make each row's next write copy it, once per write of a key
/// already written since the last cut. Allocations per row are printed
/// beside it.
#[test]
fn journaling_durable_partition_writes_rows_in_place() {
    const BATCHES: usize = 256;
    const BATCH: usize = 64;
    const KEYS: usize = 1_000;
    let _guard = exclusive();
    let dir = std::env::temp_dir().join(format!("sstore-cow-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = SStoreBuilder::new().durability(&dir, 8).log_retention(16);
    let mut db = builder.build().unwrap();
    deploy_count_events(&mut db).unwrap();
    // The first batch creates every key, so each timed row is a bump.
    db.submit_batch("count_events", count_events_rows(KEYS, KEYS as i64, 7))
        .unwrap();
    let batches: Vec<Vec<Row>> = (0..BATCHES)
        .map(|b| {
            let key = |i: usize| Value::Int(((b * BATCH + i) % KEYS) as i64);
            (0..BATCH)
                .map(|i| Row::from([key(i), Value::Int(i as i64 % 7)]))
                .collect()
        })
        .collect();
    let (before, cow) = (allocs(), RowMetrics::snapshot());
    for rows in batches {
        db.submit_batch("count_events", rows).unwrap();
    }
    let breaks = RowMetrics::snapshot().since(&cow).cow_breaks;
    let rows = (BATCH * BATCHES) as u64;
    let per_row = (allocs() - before) as f64 / rows as f64;
    let stats = db.stats();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    let per_batch = breaks as f64 / BATCHES as f64;
    println!(
        "journaling durable count_events: {per_batch:.2} copy-on-write breaks per batch \
         (budget 0.5), {per_row:.2} allocations per row, {} delta and {} full snapshots",
        stats.snapshots_delta, stats.snapshots_full
    );
    assert!(stats.snapshots_delta >= 1, "no delta was cut");
    assert!(
        per_batch <= 0.5,
        "{per_batch:.2} copy-on-write breaks per batch"
    );
}
