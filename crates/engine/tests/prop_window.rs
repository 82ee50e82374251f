//! Property tests: native window maintenance against a reference model,
//! for arbitrary (size, slide) and insert sequences; abort exactness; and
//! the window's grouped aggregate state against the model and against a
//! row-mode rescan, in rows and order, through inserts, aborted TEs and
//! ad-hoc `DELETE`/`UPDATE` on the window.

use proptest::prelude::*;
use sstore_common::{BatchId, Column, DataType, Row, Schema, TableId, Value};
use sstore_engine::windows::insert_into_window;
use sstore_engine::{ExecutionEngine, TxnScratch};
use sstore_sql::ExecPath;
use sstore_storage::catalog::{TableKind, WindowKind, WindowSpec};
use sstore_storage::{Database, UndoLog};
use std::collections::BTreeMap;

fn window_db(size: u64, slide: u64) -> (Database, TableId) {
    let mut db = Database::new();
    let schema = Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap();
    let w = db
        .create_window(
            "w",
            schema,
            WindowSpec {
                kind: WindowKind::Tuple { size, slide },
                owner: None,
            },
        )
        .unwrap();
    (db, w)
}

fn contents(db: &Database, w: TableId) -> Vec<i64> {
    let mut rows: Vec<(i64, i64)> = db
        .table(w)
        .unwrap()
        .scan()
        .map(|(_, r)| (r[1].as_int().unwrap(), r[0].as_int().unwrap()))
        .collect();
    rows.sort_unstable();
    rows.into_iter().map(|(_, v)| v).collect()
}

/// Reference model: keeps all inserted tuples; after every slide event the
/// window holds exactly the newest `size`. Between slides it may hold up
/// to `size + slide - 1` (documented eviction-at-slide behaviour).
struct Model {
    size: u64,
    slide: u64,
    all: Vec<i64>,
    pending: u64,
    slides: u64,
    evicted_upto: usize,
}

impl Model {
    fn new(size: u64, slide: u64) -> Model {
        Model {
            size,
            slide,
            all: vec![],
            pending: 0,
            slides: 0,
            evicted_upto: 0,
        }
    }
    fn insert(&mut self, v: i64) -> bool {
        self.all.push(v);
        self.pending += 1;
        if self.all.len() as u64 >= self.size && self.pending >= self.slide {
            self.pending = 0;
            self.slides += 1;
            self.evicted_upto = self.all.len() - self.size as usize;
            true
        } else {
            false
        }
    }
    fn contents(&self) -> Vec<i64> {
        self.all[self.evicted_upto..].to_vec()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_matches_model(
        size in 1u64..20,
        slide in 1u64..10,
        values in prop::collection::vec(any::<i64>(), 0..100),
    ) {
        let (mut db, w) = window_db(size, slide);
        let mut model = Model::new(size, slide);
        let mut undo = UndoLog::new();
        for (i, &v) in values.iter().enumerate() {
            let r = insert_into_window(&mut db, &mut undo, w, vec![Value::Int(v)], i as i64)
                .unwrap();
            let model_slid = model.insert(v);
            prop_assert_eq!(r.slid, model_slid, "slide mismatch at tuple {}", i);
            prop_assert_eq!(contents(&db, w), model.contents(), "contents diverged at {}", i);
        }
        // Lifecycle counters agree.
        match db.kind(w).unwrap() {
            TableKind::Window(m) => {
                prop_assert_eq!(m.total_inserted, values.len() as u64);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn aborted_window_txn_leaves_no_trace(
        size in 1u64..10,
        slide in 1u64..5,
        committed in prop::collection::vec(any::<i64>(), 0..40),
        aborted in prop::collection::vec(any::<i64>(), 1..40),
    ) {
        let (mut db, w) = window_db(size, slide);
        let mut undo = UndoLog::new();
        for (i, &v) in committed.iter().enumerate() {
            insert_into_window(&mut db, &mut undo, w, vec![Value::Int(v)], i as i64).unwrap();
        }
        undo.commit();
        let snapshot_rows = contents(&db, w);
        let snapshot_kind = db.kind(w).unwrap().clone();

        let mut undo = UndoLog::new();
        for (i, &v) in aborted.iter().enumerate() {
            insert_into_window(
                &mut db,
                &mut undo,
                w,
                vec![Value::Int(v)],
                (committed.len() + i) as i64,
            )
            .unwrap();
        }
        undo.rollback(&mut db).unwrap();

        prop_assert_eq!(contents(&db, w), snapshot_rows);
        prop_assert_eq!(db.kind(w).unwrap(), &snapshot_kind);
    }

    #[test]
    fn grouped_state_answers_as_the_rescan_does(
        size in 1u64..12,
        slide in 1u64..6,
        ops in prop::collection::vec((0u8..16, 0i64..6, -9i64..9, 0i64..6), 0..60),
    ) {
        let mut w = Windowed::new(size, slide);
        for (i, &(what, k, v, to)) in ops.iter().enumerate() {
            let key = (k > 0).then_some(k);
            let cell = (v != 0).then_some(v);
            match what {
                0..=8 => w.commit(|w| w.insert(key, cell)),
                9..=10 => w.commit(|w| w.delete(k)),
                11..=12 => w.commit(|w| w.update(k, to, v)),
                _ => w.abort(|w| {
                    w.insert(key, cell);
                    w.update(to, k, v);
                    w.insert(Some(to), None);
                    w.delete(to);
                }),
            }
            w.check(i)?;
        }
    }
}

/// A window of nullable `(k, v)` under the engine, beside its model.
struct Windowed {
    e: ExecutionEngine,
    scratch: TxnScratch,
    model: GroupModel,
}

/// The model: the window's live `(seq, k, v)` tuples in arrival order.
#[derive(Clone)]
struct GroupModel {
    size: u64,
    slide: u64,
    total: u64,
    pending: u64,
    live: Vec<(u64, Option<i64>, Option<i64>)>,
}

const GROUPED: &str = "SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(v) FROM w GROUP BY k";
const UNGROUPED: &str = "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v) FROM w";

fn cell(v: Option<i64>) -> Value {
    v.map_or(Value::Null, Value::Int)
}

impl Windowed {
    fn new(size: u64, slide: u64) -> Windowed {
        let mut e = ExecutionEngine::new();
        e.ddl_sql(&format!(
            "CREATE WINDOW w (k INT, v INT) ROWS {size} SLIDE {slide}"
        ))
        .unwrap();
        // Deploying the grouped query registers its state.
        e.prepare_deployed(GROUPED).unwrap();
        let model = GroupModel {
            size,
            slide,
            total: 0,
            pending: 0,
            live: Vec::new(),
        };
        let scratch = TxnScratch::new(None, BatchId::new(1));
        Windowed { e, scratch, model }
    }

    fn sql(&mut self, q: &str, params: &[Value]) -> Vec<Row> {
        let r = self.e.execute_sql(q, params, &mut self.scratch, 0);
        r.unwrap().rows
    }

    fn insert(&mut self, k: Option<i64>, v: Option<i64>) {
        self.sql("INSERT INTO w VALUES (?, ?)", &[cell(k), cell(v)]);
        let m = &mut self.model;
        m.total += 1;
        m.pending += 1;
        m.live.push((m.total, k, v));
        if m.total >= m.size && m.pending >= m.slide {
            m.pending = 0;
            let cutoff = m.total - m.size;
            m.live.retain(|t| t.0 > cutoff);
        }
    }

    fn delete(&mut self, k: i64) {
        self.sql("DELETE FROM w WHERE k = ?", &[Value::Int(k)]);
        self.model.live.retain(|t| t.1 != Some(k));
    }

    /// Move the rows keyed `k` to key `to`, adding `add` to their `v`.
    fn update(&mut self, k: i64, to: i64, add: i64) {
        let q = "UPDATE w SET k = ?, v = v + ? WHERE k = ?";
        self.sql(q, &[Value::Int(to), Value::Int(add), Value::Int(k)]);
        for t in self.model.live.iter_mut().filter(|t| t.1 == Some(k)) {
            t.1 = Some(to);
            t.2 = t.2.map(|v| v + add);
        }
    }

    fn commit(&mut self, te: impl FnOnce(&mut Self)) {
        te(self);
        self.scratch.undo.commit();
    }

    /// Run `te` and roll it back: the engine and the model end as before.
    fn abort(&mut self, te: impl FnOnce(&mut Self)) {
        let model = self.model.clone();
        te(self);
        self.scratch.undo.rollback(self.e.db_mut()).unwrap();
        self.model = model;
    }

    fn run(&mut self, q: &str, path: ExecPath) -> Vec<Row> {
        self.e.set_exec_path(path);
        let rows = self.sql(q, &[]);
        self.e.set_exec_path(ExecPath::Vector);
        rows
    }

    /// The state's answers equal a row-mode rescan, rows and order, and
    /// the model's counts and sums per key.
    fn check(&mut self, step: usize) -> Result<(), TestCaseError> {
        let w = self.e.db().resolve("w").unwrap();
        let tb = self.e.db().table(w).unwrap();
        prop_assert!(tb.group_state([0]).is_some() && tb.group_state([]).is_some());
        for q in [GROUPED, UNGROUPED] {
            let state = self.run(q, ExecPath::Vector);
            let rescan = self.run(q, ExecPath::Row);
            prop_assert_eq!(&state, &rescan, "{} at step {}", q, step);
        }
        let mut want: BTreeMap<Option<i64>, (i64, i64, i64)> = BTreeMap::new();
        for &(_, k, v) in &self.model.live {
            let g = want.entry(k).or_default();
            g.0 += 1;
            g.1 += i64::from(v.is_some());
            g.2 += v.unwrap_or(0);
        }
        let mut got: BTreeMap<Option<i64>, (i64, i64, i64)> = BTreeMap::new();
        for r in self.run(GROUPED, ExecPath::Vector) {
            let k = r[0].as_int().ok();
            let sum = r[3].as_int().unwrap_or(0);
            got.insert(k, (r[1].as_int().unwrap(), r[2].as_int().unwrap(), sum));
        }
        prop_assert_eq!(got, want, "groups at step {}", step);
        Ok(())
    }
}
