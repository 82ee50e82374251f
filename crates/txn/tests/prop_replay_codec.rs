//! Property tests for the binary command-log codec at the transaction
//! level:
//!
//! 1. `LogRecord` binary round-trip for arbitrary batches (all value
//!    types, empty procs/rows, extreme ids/timestamps);
//! 2. **replay equivalence** — a committed history written through the
//!    binary log recovers to byte-identical database state (including
//!    window contents, lifecycle counters, and index images).

use proptest::prelude::*;
use sstore_common::codec::Reader;
use sstore_common::{BatchId, Result, Row, Value};
use sstore_storage::snapshot::Snapshot;
use sstore_txn::log::LogRecord;
use sstore_txn::recovery::recover;
use sstore_txn::{LogConfig, Partition, PeConfig, ProcSpec};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Timestamp),
        ".{0,12}".prop_map(Value::Text),
        Just(Value::Text(String::new())),
    ]
}

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        prop::collection::vec(arb_value(), 0..5).prop_map(Row::new),
        0..4,
    )
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (any::<u64>(), ".{0,10}", arb_rows(), any::<i64>()).prop_map(|(batch, proc, rows, ts)| {
            LogRecord::BorderBatch {
                batch: BatchId::new(batch),
                proc,
                rows,
                ts,
            }
        }),
        (any::<u64>(), ".{0,10}", arb_rows(), any::<i64>()).prop_map(|(batch, proc, rows, ts)| {
            LogRecord::Invocation {
                batch: BatchId::new(batch),
                proc,
                rows,
                ts,
            }
        }),
        any::<u64>().prop_map(|b| LogRecord::Ack {
            batch: BatchId::new(b)
        }),
    ]
}

/// The window+table pipeline from the COW recovery suite: exercises
/// stream appends, window slides (arrival deques), aborts, and SQL
/// updates — everything a log record's replay can touch.
fn deploy(p: &mut Partition) -> Result<()> {
    p.ddl("CREATE STREAM w_in (v INT)")?;
    p.ddl("CREATE WINDOW w (v INT) ROWS 4 SLIDE 2")?;
    p.ddl("CREATE TABLE totals (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")?;
    p.setup_sql("INSERT INTO totals VALUES (0, 0)", &[])?;
    p.register(
        ProcSpec::new("keeper", |ctx| {
            for row in ctx.input().rows.clone() {
                let v = row[0].as_int()?;
                if v < 0 {
                    ctx.exec("win", &[Value::Int(v)])?;
                    return Err(ctx.abort("negative tuple"));
                }
                ctx.exec("win", &[Value::Int(v)])?;
                ctx.exec("bump", &[Value::Int(v)])?;
            }
            Ok(())
        })
        .consumes("w_in")
        .owns_window("w")
        .stmt("win", "INSERT INTO w VALUES (?)")
        .stmt("bump", "UPDATE totals SET n = n + ? WHERE k = 0"),
    )?;
    Ok(())
}

fn db_json(p: &Partition) -> String {
    let snap = Snapshot::capture(p.engine().db(), None, None, 0);
    serde_json::to_string(&snap.database).expect("serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Binary log records survive a round trip bit-exactly (the `PartialEq`
    /// here compares batch ids, proc names, row cells, and timestamps).
    #[test]
    fn log_record_binary_round_trip(record in arb_record()) {
        let mut buf = Vec::new();
        record.encode_binary(&mut buf);
        let mut r = Reader::new(&buf);
        let back = LogRecord::decode_binary(&mut r).unwrap();
        prop_assert!(r.is_empty(), "trailing bytes after record");
        // NaN payloads: PartialEq on Value uses total ordering, which
        // treats NaN == NaN — exactly what we want here.
        prop_assert_eq!(back, record);
    }

    /// A committed history, logged through the binary codec, recovers to
    /// byte-identical database state.
    #[test]
    fn binary_replay_reproduces_live_state(
        batches in prop::collection::vec(
            prop::collection::vec(-3i64..40, 1..5), 1..10),
        case in 0u64..1_000_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "sstore-prop-replaycodec-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PeConfig {
            log: Some(LogConfig::new(&dir)),
            ..PeConfig::default()
        };
        let live = {
            let mut p = Partition::new(config.clone()).unwrap();
            deploy(&mut p).unwrap();
            for batch in &batches {
                let rows: Vec<Row> = batch
                    .iter()
                    .map(|v| Row::new(vec![Value::Int(*v)]))
                    .collect();
                let _ = p.submit_batch("keeper", rows);
            }
            db_json(&p)
        };
        let recovered = recover(config, deploy).unwrap();
        prop_assert_eq!(&db_json(&recovered), &live, "recovery diverged from live state");
        std::fs::remove_dir_all(&dir).ok();
    }
}
