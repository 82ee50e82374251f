//! The IoT-telemetry workload and its closed-form oracle.
//!
//! A fleet of devices streams `(device, area, temp)` readings. Stage 1
//! (`ingest`, partitioned by device, declared multi-partition so
//! straddling batches run under 2PC) maintains per-device statistics,
//! pushes every temperature through a sliding window whose aggregate it
//! materializes into `gauge`, and re-emits each reading keyed by *area*
//! onto the `area_feed` cross-partition edge. Stage 2 (`area_agg`, on
//! the partition owning the area) maintains per-area statistics.
//!
//! Everything downstream of the input is a pure function of the input
//! batches, so expected state has a closed form ([`TelemetryOracle`]) —
//! the golden test checks full equality, and the crash campaign checks
//! that recovered state equals the oracle of an *acked-covering prefix*
//! of the submission order (atomicity + durability + exactly-once in one
//! comparison).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstore_core::common::{Result, Row, Value};
use sstore_core::{ProcSpec, SStore};
use std::collections::BTreeMap;

/// Readings at or below this temperature are poison: the ingest fragment
/// votes no and the whole batch aborts.
pub const POISON_TEMP: i64 = -1000;
/// Readings strictly above this temperature count as `hot` in
/// `device_stats`.
pub(crate) const HOT_TEMP: i64 = 90;

/// Cross-partition edge declarations for [`deploy_telemetry`]: the
/// `area_feed` stream routes by its area column.
pub const TELEMETRY_EDGES: &[(&str, usize)] = &[("area_feed", 0)];

/// Deploy the telemetry workload (schema + both procedures) on one
/// partition. Deterministic, so it doubles as the recovery redeploy.
pub fn deploy_telemetry(db: &mut SStore) -> Result<()> {
    db.ddl("CREATE STREAM readings (device INT, area INT, temp INT)")?;
    db.ddl(
        "CREATE TABLE device_stats (device INT NOT NULL, n INT NOT NULL, \
            total INT NOT NULL, hot INT NOT NULL, PRIMARY KEY (device))",
    )?;
    db.ddl("CREATE STREAM area_feed (area INT, temp INT)")?;
    db.ddl(
        "CREATE TABLE area_stats (area INT NOT NULL, n INT NOT NULL, \
            total INT NOT NULL, maxt INT NOT NULL, PRIMARY KEY (area))",
    )?;
    db.ddl("CREATE WINDOW recent (temp INT) ROWS 32 SLIDE 8")?;
    db.ddl("CREATE TABLE gauge (k INT NOT NULL, wcount INT NOT NULL, PRIMARY KEY (k))")?;
    db.setup_sql("INSERT INTO gauge VALUES (0, 0)", &[])?;

    db.register(
        ProcSpec::new("ingest", |ctx| {
            for row in ctx.input().rows.clone() {
                let device = row[0].clone();
                let area = row[1].clone();
                let temp = row[2].clone();
                if temp.as_int()? <= POISON_TEMP {
                    return Err(ctx.abort("poison reading"));
                }
                let hot = Value::Int((temp.as_int()? > HOT_TEMP) as i64);
                let seen = ctx.exec("get", std::slice::from_ref(&device))?;
                if seen.rows.is_empty() {
                    ctx.exec("init", &[device, temp.clone(), hot])?;
                } else {
                    ctx.exec("bump", &[temp.clone(), hot, device])?;
                }
                ctx.exec("observe", std::slice::from_ref(&temp))?;
                ctx.emit(vec![area, temp])?;
            }
            // Materialize the sliding-window aggregate the batch left
            // behind (window contents are partition-local state that
            // replay must reproduce exactly).
            ctx.exec("gauge", &[])?;
            Ok(())
        })
        .consumes("readings")
        .emits("area_feed")
        .owns_window("recent")
        .multi_partition()
        .stmt("get", "SELECT device FROM device_stats WHERE device = ?")
        .stmt("init", "INSERT INTO device_stats VALUES (?, 1, ?, ?)")
        .stmt(
            "bump",
            "UPDATE device_stats SET n = n + 1, total = total + ?, hot = hot + ? \
             WHERE device = ?",
        )
        .stmt("observe", "INSERT INTO recent VALUES (?)")
        .stmt(
            "gauge",
            "UPDATE gauge SET wcount = (SELECT COUNT(*) FROM recent) WHERE k = 0",
        ),
    )?;

    db.register(
        ProcSpec::new("area_agg", |ctx| {
            for row in ctx.input().rows.clone() {
                let area = row[0].clone();
                let temp = row[1].clone();
                let t = temp.as_int()?;
                let seen = ctx.exec("get", std::slice::from_ref(&area))?;
                match seen.scalar().map(Value::as_int).transpose()? {
                    None => {
                        ctx.exec("init", &[area, temp.clone(), temp])?;
                    }
                    Some(maxt) => {
                        ctx.exec("bump", &[temp.clone(), area.clone()])?;
                        if t > maxt {
                            ctx.exec("raise", &[temp, area])?;
                        }
                    }
                }
            }
            Ok(())
        })
        .consumes("area_feed")
        .stmt("get", "SELECT maxt FROM area_stats WHERE area = ?")
        .stmt("init", "INSERT INTO area_stats VALUES (?, 1, ?, ?)")
        .stmt(
            "bump",
            "UPDATE area_stats SET n = n + 1, total = total + ? WHERE area = ?",
        )
        .stmt("raise", "UPDATE area_stats SET maxt = ? WHERE area = ?"),
    )?;
    Ok(())
}

/// Generate the workload's border batches from a seed: `batches` batches
/// of `batch_size` readings over `devices` devices and `areas` areas.
/// Roughly one batch in eight carries a poison reading (whole-batch
/// abort under 2PC). Same seed → same batches, byte for byte.
pub fn gen_batches(
    seed: u64,
    batches: usize,
    batch_size: usize,
    devices: i64,
    areas: i64,
) -> Vec<Vec<Row>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e1e_3e7a_11ad_beef);
    (0..batches)
        .map(|_| {
            let mut rows: Vec<Row> = (0..batch_size)
                .map(|_| {
                    Row::new(vec![
                        Value::Int(rng.random_range(0..devices.max(1))),
                        Value::Int(rng.random_range(0..areas.max(1))),
                        Value::Int(rng.random_range(50..111)),
                    ])
                })
                .collect();
            if rng.random_range(0..8u32) == 0 {
                let victim = rng.random_range(0..rows.len());
                let mut poisoned = rows[victim].to_values();
                poisoned[2] = Value::Int(POISON_TEMP - 1);
                rows[victim] = Row::new(poisoned);
            }
            rows
        })
        .collect()
}

/// Closed-form expected state: per-device `(n, total, hot)` and per-area
/// `(n, total, maxt)` after applying a set of batches (poison batches
/// contribute nothing — they abort atomically).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TelemetryOracle {
    /// device → (n, total, hot).
    pub device: BTreeMap<i64, (i64, i64, i64)>,
    /// area → (n, total, maxt).
    pub area: BTreeMap<i64, (i64, i64, i64)>,
}

impl TelemetryOracle {
    /// Expected state after the first `k` batches of `batches`.
    pub fn of_prefix(batches: &[Vec<Row>], k: usize) -> TelemetryOracle {
        let mut o = TelemetryOracle::default();
        for batch in &batches[..k.min(batches.len())] {
            o.apply(batch);
        }
        o
    }

    /// Expected state after applying exactly the batches at `indices`
    /// (out-of-range indices are ignored). Every folded statistic is
    /// commutative, so any submission order yields the same oracle —
    /// which is what lets the crash campaign try "uncertain" batches
    /// both included and excluded.
    pub fn of_batches(
        batches: &[Vec<Row>],
        indices: impl IntoIterator<Item = usize>,
    ) -> TelemetryOracle {
        let mut o = TelemetryOracle::default();
        for i in indices {
            if let Some(batch) = batches.get(i) {
                o.apply(batch);
            }
        }
        o
    }

    /// Fold one batch in (no-op if it contains a poison reading).
    pub(crate) fn apply(&mut self, rows: &[Row]) {
        if rows.iter().any(|r| int(&r[2]) <= POISON_TEMP) {
            return;
        }
        for r in rows {
            let (device, area, temp) = (int(&r[0]), int(&r[1]), int(&r[2]));
            let d = self.device.entry(device).or_insert((0, 0, 0));
            d.0 += 1;
            d.1 += temp;
            d.2 += (temp > HOT_TEMP) as i64;
            let a = self.area.entry(area).or_insert((0, 0, i64::MIN));
            a.0 += 1;
            a.1 += temp;
            a.2 = a.2.max(temp);
        }
    }

    /// The expected `device_stats` rows, sorted by device.
    pub fn device_rows(&self) -> Vec<Vec<Value>> {
        self.device
            .iter()
            .map(|(k, (n, total, hot))| {
                vec![
                    Value::Int(*k),
                    Value::Int(*n),
                    Value::Int(*total),
                    Value::Int(*hot),
                ]
            })
            .collect()
    }

    /// The expected `area_stats` rows, sorted by area.
    pub fn area_rows(&self) -> Vec<Vec<Value>> {
        self.area
            .iter()
            .map(|(k, (n, total, maxt))| {
                vec![
                    Value::Int(*k),
                    Value::Int(*n),
                    Value::Int(*total),
                    Value::Int(*maxt),
                ]
            })
            .collect()
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("telemetry rows are all-int, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = gen_batches(42, 10, 4, 8, 3);
        let b = gen_batches(42, 10, 4, 8, 3);
        assert_eq!(a, b);
        let c = gen_batches(43, 10, 4, 8, 3);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn oracle_skips_poison_batches() {
        let clean = vec![Row::new(vec![Value::Int(1), Value::Int(0), Value::Int(60)])];
        let poison = vec![
            Row::new(vec![Value::Int(1), Value::Int(0), Value::Int(60)]),
            Row::new(vec![
                Value::Int(2),
                Value::Int(0),
                Value::Int(POISON_TEMP - 1),
            ]),
        ];
        let mut o = TelemetryOracle::default();
        o.apply(&clean);
        o.apply(&poison);
        assert_eq!(o.device.get(&1), Some(&(1, 60, 0)));
        assert!(!o.device.contains_key(&2), "aborted batch must not count");
        assert_eq!(o.area.get(&0), Some(&(1, 60, 60)));
    }

    #[test]
    fn single_partition_run_matches_oracle() {
        let mut db = sstore_core::SStoreBuilder::new().build().unwrap();
        deploy_telemetry(&mut db).unwrap();
        let batches = gen_batches(7, 12, 4, 6, 3);
        for batch in &batches {
            // Poison batches abort; that's the expected path.
            let _ = db.submit_batch("ingest", batch.clone());
        }
        let oracle = TelemetryOracle::of_prefix(&batches, batches.len());
        let got: Vec<Vec<Value>> = db
            .query(
                "SELECT device, n, total, hot FROM device_stats ORDER BY device",
                &[],
            )
            .unwrap()
            .rows
            .iter()
            .map(|r| r.to_values())
            .collect();
        assert_eq!(got, oracle.device_rows());
        let got: Vec<Vec<Value>> = db
            .query(
                "SELECT area, n, total, maxt FROM area_stats ORDER BY area",
                &[],
            )
            .unwrap()
            .rows
            .iter()
            .map(|r| r.to_values())
            .collect();
        assert_eq!(got, oracle.area_rows());
    }
}
