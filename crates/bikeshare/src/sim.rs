//! Deterministic city simulator.
//!
//! Stands in for the paper's live demo: virtual riders check bikes out,
//! ride straight-line trips with 1 Hz GPS reporting, accept nearby
//! discounts, and return bikes — while one in a while a "thief" moves a
//! bike at truck speed to exercise the anomaly detector. Everything is
//! seeded and clock-driven, so runs are exactly reproducible (a
//! prerequisite for the recovery experiments).

use crate::schema::{BikeConfig, SEC};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstore_common::{Result, Value};
use sstore_core::SStore;

/// Aggregate counts from a simulation run (experiment E4's row).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Simulated seconds.
    pub ticks: u64,
    /// Successful checkouts.
    pub checkouts: u64,
    /// Checkouts aborted (no bike / rider busy).
    pub checkout_aborts: u64,
    /// Successful returns.
    pub returns: u64,
    /// Returns aborted (station full) — trip diverts.
    pub return_aborts: u64,
    /// GPS tuples ingested.
    pub gps_pings: u64,
    /// Stolen-bike alerts raised.
    pub alerts: u64,
    /// Discount acceptances committed.
    pub accepts: u64,
    /// Acceptance attempts that lost the race / arrived late.
    pub accept_conflicts: u64,
    /// Cents charged across completed rides.
    pub total_charged: i64,
}

#[derive(Debug, Clone)]
struct Trip {
    rider: i64,
    bike: i64,
    x: f64,
    y: f64,
    dest_station: i64,
    dest_x: f64,
    dest_y: f64,
    speed: f64,
    stolen: bool,
}

/// The simulator (see module docs).
#[derive(Debug)]
pub struct CitySim {
    cfg: BikeConfig,
    rng: StdRng,
    trips: Vec<Trip>,
    stations: Vec<(f64, f64)>,
    report: SimReport,
    /// Probability an idle rider starts a trip each tick.
    pub p_start: f64,
    /// Probability a trip is a theft (truck speed, never returned).
    pub p_theft: f64,
}

impl CitySim {
    /// Build a simulator over an installed BikeShare database.
    pub fn new(db: &mut SStore, cfg: BikeConfig, seed: u64) -> Result<CitySim> {
        let q = db.query(
            "SELECT station_id, x, y FROM stations ORDER BY station_id",
            &[],
        )?;
        let stations = q
            .rows
            .iter()
            .map(|r| Ok((r[1].as_float()?, r[2].as_float()?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(CitySim {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            trips: Vec::new(),
            stations,
            report: SimReport::default(),
            p_start: 0.1,
            p_theft: 0.01,
        })
    }

    /// Run `ticks` simulated seconds.
    pub fn run(&mut self, db: &mut SStore, ticks: u64) -> Result<SimReport> {
        for _ in 0..ticks {
            self.step(db)?;
        }
        Ok(self.report.clone())
    }

    /// One simulated second.
    pub(crate) fn step(&mut self, db: &mut SStore) -> Result<()> {
        db.advance_clock(SEC);
        self.report.ticks += 1;

        self.maybe_start_trips(db)?;
        self.move_and_ping(db)?;
        self.maybe_accept_discounts(db)?;
        self.finish_arrivals(db)?;

        self.report.alerts += db.drain_sink("s_alerts")?.len() as u64;
        Ok(())
    }

    fn riding(&self, rider: i64) -> bool {
        self.trips.iter().any(|t| t.rider == rider)
    }

    fn maybe_start_trips(&mut self, db: &mut SStore) -> Result<()> {
        for rider in 0..self.cfg.riders {
            if self.riding(rider) || !self.rng.random_bool(self.p_start) {
                continue;
            }
            let from = self.rng.random_range(0..self.cfg.stations);
            let out = db.invoke("checkout", vec![vec![Value::Int(rider), Value::Int(from)]])?;
            if !out.is_committed() {
                self.report.checkout_aborts += 1;
                continue;
            }
            self.report.checkouts += 1;
            let bike = out.response.expect("checkout responds").rows[0][1].as_int()?;
            let mut dest = self.rng.random_range(0..self.cfg.stations);
            if dest == from {
                dest = (dest + 1) % self.cfg.stations;
            }
            let stolen = self.rng.random_bool(self.p_theft);
            let (sx, sy) = self.stations[from as usize];
            let (dx, dy) = self.stations[dest as usize];
            self.trips.push(Trip {
                rider,
                bike,
                x: sx,
                y: sy,
                dest_station: dest,
                dest_x: dx,
                dest_y: dy,
                speed: if stolen {
                    30.0
                } else {
                    4.0 + self.rng.random::<f64>() * 4.0
                },
                stolen,
            });
        }
        Ok(())
    }

    fn move_and_ping(&mut self, db: &mut SStore) -> Result<()> {
        let mut pings = Vec::new();
        for t in &mut self.trips {
            let (vx, vy) = (t.dest_x - t.x, t.dest_y - t.y);
            let dist = (vx * vx + vy * vy).sqrt();
            if dist > 0.0 {
                let step = t.speed.min(dist);
                t.x += vx / dist * step;
                t.y += vy / dist * step;
            }
            pings.push(vec![
                Value::Int(t.bike),
                Value::Float(t.x),
                Value::Float(t.y),
            ]);
        }
        if !pings.is_empty() {
            self.report.gps_pings += pings.len() as u64;
            db.submit_batch("gps_ingest", pings)?;
        }
        Ok(())
    }

    fn maybe_accept_discounts(&mut self, db: &mut SStore) -> Result<()> {
        // Riders close to their destination look for an offer there.
        let near: Vec<(i64, i64)> = self
            .trips
            .iter()
            .filter(|t| {
                let d = ((t.dest_x - t.x).powi(2) + (t.dest_y - t.y).powi(2)).sqrt();
                !t.stolen && d < self.cfg.discount_radius
            })
            .map(|t| (t.rider, t.dest_station))
            .collect();
        for (rider, station) in near {
            if !self.rng.random_bool(0.3) {
                continue;
            }
            let offers = db.query(
                "SELECT discount_id FROM discounts \
                 WHERE station_id = ? AND status = 0 ORDER BY discount_id LIMIT 1",
                &[Value::Int(station)],
            )?;
            if let Some(row) = offers.rows.first() {
                let did = row[0].clone();
                let out = db.invoke("accept_discount", vec![vec![Value::Int(rider), did]])?;
                if out.is_committed() {
                    self.report.accepts += 1;
                } else {
                    self.report.accept_conflicts += 1;
                }
            }
        }
        Ok(())
    }

    fn finish_arrivals(&mut self, db: &mut SStore) -> Result<()> {
        let mut still_riding = Vec::with_capacity(self.trips.len());
        for t in self.trips.drain(..) {
            let d = ((t.dest_x - t.x).powi(2) + (t.dest_y - t.y).powi(2)).sqrt();
            if t.stolen || d > 1.0 {
                still_riding.push(t);
                continue;
            }
            let out = db.invoke(
                "return_bike",
                vec![vec![Value::Int(t.rider), Value::Int(t.dest_station)]],
            )?;
            if out.is_committed() {
                self.report.returns += 1;
                self.report.total_charged +=
                    out.response.expect("return responds").rows[0][1].as_int()?;
            } else {
                // Station full: divert to the next station over.
                self.report.return_aborts += 1;
                let mut t = t;
                t.dest_station = (t.dest_station + 1) % self.cfg.stations;
                let (dx, dy) = self.stations[t.dest_station as usize];
                t.dest_x = dx;
                t.dest_y = dy;
                still_riding.push(t);
            }
        }
        self.trips = still_riding;
        Ok(())
    }
}

/// Check the invariants the demo's GUIs rely on. Panics with a
/// description on violation (used by the tests and the `bikeshare` example).
pub fn verify_invariants(db: &mut SStore, cfg: &BikeConfig) -> Result<()> {
    let docked = db
        .query("SELECT COUNT(*) FROM bikes WHERE status = 0", &[])?
        .scalar_i64()?;
    let riding = db
        .query("SELECT COUNT(*) FROM bikes WHERE status = 1", &[])?
        .scalar_i64()?;
    assert_eq!(docked + riding, cfg.bikes, "bikes lost or duplicated");

    let available = db
        .query("SELECT SUM(bikes_available) FROM stations", &[])?
        .scalar_i64()?;
    assert_eq!(available, docked, "station counters out of sync with bikes");

    let overfull = db
        .query(
            "SELECT COUNT(*) FROM stations WHERE bikes_available > docks OR bikes_available < 0",
            &[],
        )?
        .scalar_i64()?;
    assert_eq!(overfull, 0, "station over/under-filled");

    // Every accepted/redeemed discount names a rider; available ones don't.
    let bad_claims = db
        .query(
            "SELECT COUNT(*) FROM discounts WHERE status = 1 AND rider_id IS NULL",
            &[],
        )?
        .scalar_i64()?;
    assert_eq!(bad_claims, 0, "accepted discount without a rider");
    let bad_avail = db
        .query(
            "SELECT COUNT(*) FROM discounts WHERE status = 0 AND rider_id IS NOT NULL",
            &[],
        )?
        .scalar_i64()?;
    assert_eq!(bad_avail, 0, "available discount bound to a rider");

    // No rider has two open rides.
    let riders_open = db
        .query(
            "SELECT rider_id, COUNT(*) FROM rides WHERE end_ts IS NULL \
             GROUP BY rider_id HAVING COUNT(*) > 1",
            &[],
        )?
        .rows
        .len();
    assert_eq!(riders_open, 0, "rider with two open rides");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procs::install;
    use sstore_core::SStoreBuilder;

    fn city(seed: u64) -> (SStore, CitySim) {
        let mut db = SStoreBuilder::new().build().unwrap();
        let cfg = BikeConfig::tiny();
        install(&mut db, &cfg).unwrap();
        let sim = CitySim::new(&mut db, cfg, seed).unwrap();
        (db, sim)
    }

    #[test]
    fn simulation_is_deterministic() {
        let (mut db1, mut sim1) = city(9);
        let r1 = sim1.run(&mut db1, 120).unwrap();
        let (mut db2, mut sim2) = city(9);
        let r2 = sim2.run(&mut db2, 120).unwrap();
        assert_eq!(r1, r2);
        assert!(r1.checkouts > 0, "no trips started: {r1:?}");
        assert!(r1.gps_pings > 0);
    }

    #[test]
    fn invariants_hold_throughout() {
        let (mut db, mut sim) = city(4);
        for _ in 0..60 {
            sim.step(&mut db).unwrap();
            verify_invariants(&mut db, &BikeConfig::tiny()).unwrap();
        }
    }

    #[test]
    fn thefts_raise_alerts() {
        let (mut db, mut sim) = city(2);
        sim.p_theft = 0.5;
        sim.p_start = 0.5;
        let r = sim.run(&mut db, 60).unwrap();
        assert!(r.alerts > 0, "expected stolen-bike alerts: {r:?}");
    }

    #[test]
    fn completed_rides_are_charged() {
        let (mut db, mut sim) = city(12);
        sim.p_theft = 0.0;
        sim.p_start = 0.4;
        let r = sim.run(&mut db, 600).unwrap();
        assert!(r.returns > 0, "no completed trips: {r:?}");
        assert!(r.total_charged >= r.returns as i64 * BikeConfig::tiny().price_per_min);
        // The engine agrees with the client-side tally.
        let charged = db
            .query(
                "SELECT SUM(charged) FROM rides WHERE end_ts IS NOT NULL",
                &[],
            )
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(charged, r.total_charged);
    }

    #[test]
    fn mixed_workload_runs_in_one_system() {
        // The §3.2 headline: OLTP + streaming + hybrid in one engine.
        let (mut db, mut sim) = city(31);
        sim.p_start = 0.3;
        let r = sim.run(&mut db, 300).unwrap();
        assert!(r.checkouts > 10);
        assert!(r.gps_pings > 100);
        // Streaming side effects visible transactionally:
        let moved = db
            .query("SELECT COUNT(*) FROM rides WHERE distance > 0.0", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert!(moved > 0);
        verify_invariants(&mut db, &BikeConfig::tiny()).unwrap();
    }
}
