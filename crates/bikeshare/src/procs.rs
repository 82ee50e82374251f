//! BikeShare stored procedures: three OLTP request handlers and the
//! two-stage streaming workflow.

use crate::schema::{discount_status, install_schema, BikeConfig, SEC};
use sstore_common::{Result, Row, Value};
use sstore_core::{ExecMode, ProcContext, ProcSpec, QueryResult, SStore};
use std::sync::Arc;

/// Install the complete BikeShare application (schema + procedures).
///
/// OLTP procedures (`checkout`, `return_bike`, `accept_discount`) are
/// invoked directly by clients in either mode. The streaming workflow
/// (`gps_ingest` → `discount_calc`) is stream-wired in S-Store mode; in
/// H-Store mode the client must drive `discount_calc` itself.
pub fn install(db: &mut SStore, cfg: &BikeConfig) -> Result<()> {
    install_schema(db, cfg)?;
    let wired = db.mode() == ExecMode::SStore;
    register_checkout(db)?;
    register_return(db, cfg)?;
    register_accept_discount(db, cfg)?;
    register_gps_ingest(db, cfg, wired)?;
    register_discount_calc(db, cfg, wired)?;
    Ok(())
}

fn respond_row<const N: usize>(ctx: &mut ProcContext<'_>, cols: &Arc<[String]>, row: [Value; N]) {
    ctx.respond(QueryResult {
        columns: Arc::clone(cols),
        rows: vec![Row::from(row)],
        rows_affected: 0,
    });
}

/// OLTP: `checkout(rider_id, station_id)` — rent a bike.
fn register_checkout(db: &mut SStore) -> Result<()> {
    let columns: Arc<[String]> = ["ride_id", "bike_id"].map(String::from).into();
    db.register(
        ProcSpec::new("checkout", move |ctx| {
            let row = ctx
                .input()
                .rows
                .first()
                .ok_or_else(|| ctx.abort("checkout requires (rider_id, station_id)"))?;
            let rider = row[0].clone();
            let station = row[1].clone();
            if !ctx
                .exec("active_ride", std::slice::from_ref(&rider))?
                .rows
                .is_empty()
            {
                return Err(ctx.abort("rider already has a bike"));
            }
            let bike_q = ctx.exec("pick_bike", std::slice::from_ref(&station))?;
            let Some(bike) = bike_q.rows.first().map(|r| r[0].clone()) else {
                return Err(ctx.abort("no bikes available at station"));
            };
            ctx.exec("bump_ride", &[])?;
            let ride_id = ctx.exec("get_ride", &[])?.scalar_i64()?;
            ctx.exec(
                "new_ride",
                &[
                    Value::Int(ride_id),
                    rider.clone(),
                    bike.clone(),
                    station.clone(),
                ],
            )?;
            ctx.exec("bike_out", &[rider, bike.clone()])?;
            ctx.exec("station_minus", &[station])?;
            respond_row(ctx, &columns, [Value::Int(ride_id), bike]);
            Ok(())
        })
        .stmt(
            "active_ride",
            "SELECT ride_id FROM rides WHERE rider_id = ? AND end_ts IS NULL",
        )
        .stmt(
            "pick_bike",
            "SELECT bike_id FROM bikes WHERE station_id = ? AND status = 0 \
             ORDER BY bike_id LIMIT 1",
        )
        .stmt(
            "bump_ride",
            "UPDATE counters SET next_ride = next_ride + 1 WHERE k = 0",
        )
        .stmt("get_ride", "SELECT next_ride FROM counters WHERE k = 0")
        .stmt(
            "new_ride",
            "INSERT INTO rides VALUES (?, ?, ?, ?, NULL, NOW(), NULL, 0.0, 0.0, NULL)",
        )
        .stmt(
            "bike_out",
            "UPDATE bikes SET status = 1, station_id = NULL, rider_id = ?, last_ts = NOW() \
             WHERE bike_id = ?",
        )
        .stmt(
            "station_minus",
            "UPDATE stations SET bikes_available = bikes_available - 1 WHERE station_id = ?",
        ),
    )?;
    Ok(())
}

/// OLTP: `return_bike(rider_id, station_id)` — end the ride, charge the
/// card, redeem an accepted discount if one applies.
fn register_return(db: &mut SStore, cfg: &BikeConfig) -> Result<()> {
    let price = cfg.price_per_min;
    let columns: Arc<[String]> = ["ride_id", "charged", "discount_id"]
        .map(String::from)
        .into();
    db.register(
        ProcSpec::new("return_bike", move |ctx| {
            let row = ctx
                .input()
                .rows
                .first()
                .ok_or_else(|| ctx.abort("return_bike requires (rider_id, station_id)"))?;
            let rider = row[0].clone();
            let station = row[1].clone();
            let ride_q = ctx.exec("active_ride", std::slice::from_ref(&rider))?;
            let Some(ride) = ride_q.rows.first().cloned() else {
                return Err(ctx.abort("no active ride for rider"));
            };
            let (ride_id, bike, start_ts) = (ride[0].clone(), ride[1].clone(), ride[2].as_int()?);
            let cap = ctx.exec("station_room", std::slice::from_ref(&station))?;
            if cap.rows.is_empty() {
                return Err(ctx.abort("no free dock at station"));
            }
            // Charge per started minute.
            let minutes = ((ctx.now() - start_ts) + 60 * SEC - 1) / (60 * SEC);
            let mut charge = minutes.max(1) * price;
            // Redeem an accepted, unexpired discount for this station.
            let d = ctx.exec(
                "my_discount",
                &[rider.clone(), station.clone(), Value::Timestamp(ctx.now())],
            )?;
            let mut discount_applied = Value::Null;
            if let Some(drow) = d.rows.first() {
                let (did, pct) = (drow[0].clone(), drow[1].as_int()?);
                charge = charge * (100 - pct) / 100;
                ctx.exec("redeem", std::slice::from_ref(&did))?;
                discount_applied = did;
            }
            let coords = ctx.exec("station_coords", std::slice::from_ref(&station))?;
            let (sx, sy) = (coords.rows[0][0].clone(), coords.rows[0][1].clone());
            ctx.exec(
                "end_ride",
                &[station.clone(), Value::Int(charge), ride_id.clone()],
            )?;
            ctx.exec("dock_bike", &[station.clone(), sx, sy, bike])?;
            ctx.exec("station_plus", &[station])?;
            respond_row(
                ctx,
                &columns,
                [ride_id, Value::Int(charge), discount_applied],
            );
            Ok(())
        })
        .stmt(
            "active_ride",
            "SELECT ride_id, bike_id, start_ts FROM rides \
             WHERE rider_id = ? AND end_ts IS NULL",
        )
        .stmt(
            "station_room",
            "SELECT station_id FROM stations \
             WHERE station_id = ? AND bikes_available < docks",
        )
        .stmt(
            "my_discount",
            "SELECT discount_id, pct FROM discounts \
             WHERE rider_id = ? AND station_id = ? AND status = 1 AND expires_ts > ? \
             ORDER BY discount_id LIMIT 1",
        )
        .stmt(
            "redeem",
            "UPDATE discounts SET status = 3 WHERE discount_id = ?",
        )
        .stmt(
            "station_coords",
            "SELECT x, y FROM stations WHERE station_id = ?",
        )
        .stmt(
            "end_ride",
            "UPDATE rides SET end_station = ?, end_ts = NOW(), charged = ? WHERE ride_id = ?",
        )
        .stmt(
            "dock_bike",
            "UPDATE bikes SET status = 0, station_id = ?, rider_id = NULL, x = ?, y = ?, \
             last_ts = NOW() WHERE bike_id = ?",
        )
        .stmt(
            "station_plus",
            "UPDATE stations SET bikes_available = bikes_available + 1 WHERE station_id = ?",
        ),
    )?;
    Ok(())
}

/// OLTP: `accept_discount(rider_id, discount_id)` — claim an offer.
/// Exclusive: the first acceptance wins; later ones abort. This is the
/// §3.2 operation that *requires* transactional processing.
fn register_accept_discount(db: &mut SStore, cfg: &BikeConfig) -> Result<()> {
    let expiry = cfg.discount_expiry;
    let columns: Arc<[String]> = ["discount_id"].map(String::from).into();
    db.register(
        ProcSpec::new("accept_discount", move |ctx| {
            let row = ctx
                .input()
                .rows
                .first()
                .ok_or_else(|| ctx.abort("accept_discount requires (rider_id, discount_id)"))?;
            let rider = row[0].clone();
            let did = row[1].clone();
            let q = ctx.exec("get_discount", std::slice::from_ref(&did))?;
            let Some(drow) = q.rows.first() else {
                return Err(ctx.abort("no such discount"));
            };
            let status = drow[0].as_int()?;
            let expires = drow[1].as_int()?;
            if status != discount_status::AVAILABLE || expires <= ctx.now() {
                return Err(ctx.abort("discount no longer available"));
            }
            ctx.exec(
                "claim",
                &[rider, Value::Timestamp(ctx.now() + expiry), did.clone()],
            )?;
            respond_row(ctx, &columns, [did]);
            Ok(())
        })
        .stmt(
            "get_discount",
            "SELECT status, expires_ts FROM discounts WHERE discount_id = ?",
        )
        .stmt(
            "claim",
            "UPDATE discounts SET status = 1, rider_id = ?, expires_ts = ? \
             WHERE discount_id = ?",
        ),
    )?;
    Ok(())
}

/// Streaming BSP: `gps_ingest` — per-second positions from every riding
/// bike: update position, accumulate ride stats, raise stolen-bike alerts,
/// forward rider movements downstream.
fn register_gps_ingest(db: &mut SStore, cfg: &BikeConfig, wired: bool) -> Result<()> {
    let alert_speed = cfg.alert_speed;
    let mut spec = ProcSpec::new("gps_ingest", move |ctx| {
        for row in &ctx.input().rows {
            let bike = row[0].clone();
            let (x, y) = (row[1].as_float()?, row[2].as_float()?);
            let q = ctx.exec("bike_state", std::slice::from_ref(&bike))?;
            let Some(b) = q.rows.first() else {
                continue; // not riding (late ping after return)
            };
            let rider = b[0].clone();
            let last_ts = b[1].as_int()?;
            let (bx, by) = (b[2].as_float()?, b[3].as_float()?);
            let dist = ((x - bx).powi(2) + (y - by).powi(2)).sqrt();
            let dt = (ctx.now() - last_ts) as f64 / SEC as f64;
            let speed = if dt > 0.0 { dist / dt } else { 0.0 };
            ctx.exec(
                "move_bike",
                &[Value::Float(x), Value::Float(y), bike.clone()],
            )?;
            let ride_q = ctx.exec("ride_of", std::slice::from_ref(&rider))?;
            if let Some(r) = ride_q.rows.first() {
                let ride_id = r[0].clone();
                let max_speed = r[1].as_float()?;
                ctx.exec(
                    "ride_stats",
                    &[
                        Value::Float(dist),
                        Value::Float(speed.max(max_speed)),
                        ride_id,
                    ],
                )?;
            }
            if speed > alert_speed {
                ctx.exec("alert", &[bike, Value::Float(speed)])?;
            }
            if ctx.output_stream.is_some() {
                ctx.emit([rider, Value::Float(x), Value::Float(y)])?;
            }
        }
        Ok(())
    })
    .stmt(
        "bike_state",
        "SELECT rider_id, last_ts, x, y FROM bikes WHERE bike_id = ? AND status = 1",
    )
    .stmt(
        "move_bike",
        "UPDATE bikes SET x = ?, y = ?, last_ts = NOW() WHERE bike_id = ?",
    )
    .stmt(
        "ride_of",
        "SELECT ride_id, max_speed FROM rides WHERE rider_id = ? AND end_ts IS NULL",
    )
    .stmt(
        "ride_stats",
        "UPDATE rides SET distance = distance + ?, max_speed = ? WHERE ride_id = ?",
    )
    .stmt("alert", "INSERT INTO s_alerts VALUES (?, ?, NOW())");
    if wired {
        spec = spec.consumes("s_gps").emits("s_moves");
    }
    db.register(spec)?;
    Ok(())
}

/// Streaming ISP: `discount_calc` — expire stale offers, then create an
/// offer at every bike-starved station near a moving rider.
fn register_discount_calc(db: &mut SStore, cfg: &BikeConfig, wired: bool) -> Result<()> {
    let div = cfg.low_bike_div;
    let radius2 = cfg.discount_radius * cfg.discount_radius;
    let pct = cfg.discount_pct;
    let expiry = cfg.discount_expiry;
    let mut spec = ProcSpec::new("discount_calc", move |ctx| {
        ctx.exec("expire", &[Value::Timestamp(ctx.now())])?;
        for row in &ctx.input().rows {
            let (x, y) = (row[1].clone(), row[2].clone());
            // Kept across the statements below, which reuse the lent result.
            let needy = ctx
                .exec(
                    "needy_near",
                    &[
                        Value::Int(div),
                        x.clone(),
                        x.clone(),
                        y.clone(),
                        y.clone(),
                        Value::Float(radius2),
                    ],
                )?
                .rows
                .clone();
            for st in needy {
                let station = st[0].clone();
                let live = ctx
                    .exec(
                        "live_offers",
                        &[station.clone(), Value::Timestamp(ctx.now())],
                    )?
                    .scalar_i64()?;
                if live == 0 {
                    ctx.exec("bump_discount", &[])?;
                    let did = ctx.exec("get_discount_id", &[])?.scalar_i64()?;
                    ctx.exec(
                        "offer",
                        &[
                            Value::Int(did),
                            station,
                            Value::Int(pct),
                            Value::Timestamp(ctx.now() + expiry),
                        ],
                    )?;
                }
            }
        }
        Ok(())
    })
    .stmt(
        "expire",
        "UPDATE discounts SET status = 2 WHERE status <= 1 AND expires_ts <= ?",
    )
    .stmt(
        "needy_near",
        "SELECT station_id FROM stations \
         WHERE bikes_available * ? < docks \
         AND (x - ?) * (x - ?) + (y - ?) * (y - ?) <= ?",
    )
    .stmt(
        "live_offers",
        "SELECT COUNT(*) FROM discounts \
         WHERE station_id = ? AND status = 0 AND expires_ts > ?",
    )
    .stmt(
        "bump_discount",
        "UPDATE counters SET next_discount = next_discount + 1 WHERE k = 0",
    )
    .stmt(
        "get_discount_id",
        "SELECT next_discount FROM counters WHERE k = 0",
    )
    .stmt(
        "offer",
        "INSERT INTO discounts VALUES (?, ?, NULL, ?, 0, ?)",
    );
    if wired {
        spec = spec.consumes("s_moves");
    }
    db.register(spec)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_core::{SStoreBuilder, TxnStatus};

    fn city() -> SStore {
        let mut db = SStoreBuilder::new().build().unwrap();
        install(&mut db, &BikeConfig::tiny()).unwrap();
        db
    }

    fn bikes_at(db: &mut SStore, station: i64) -> i64 {
        db.query(
            "SELECT bikes_available FROM stations WHERE station_id = ?",
            &[Value::Int(station)],
        )
        .unwrap()
        .scalar_i64()
        .unwrap()
    }

    #[test]
    fn checkout_and_return_conserve_bikes() {
        let mut db = city();
        let before = bikes_at(&mut db, 0);
        let out = db
            .invoke("checkout", vec![vec![Value::Int(1), Value::Int(0)]])
            .unwrap();
        assert!(out.is_committed());
        assert_eq!(bikes_at(&mut db, 0), before - 1);

        db.advance_clock(5 * 60 * SEC); // a 5-minute ride
        let ret = db
            .invoke("return_bike", vec![vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        assert!(ret.is_committed());
        let charged = ret.response.unwrap().rows[0][1].as_int().unwrap();
        assert_eq!(charged, 5 * BikeConfig::tiny().price_per_min);
        assert_eq!(bikes_at(&mut db, 1), 3); // tiny: 2 bikes/station seeded
    }

    #[test]
    fn checkout_fails_cleanly_when_empty() {
        let mut db = city();
        // Station 0 holds 2 bikes in the tiny city; drain it.
        for rider in 0..2 {
            db.invoke("checkout", vec![vec![Value::Int(rider), Value::Int(0)]])
                .unwrap();
        }
        let out = db
            .invoke("checkout", vec![vec![Value::Int(5), Value::Int(0)]])
            .unwrap();
        assert_eq!(out.status, TxnStatus::Aborted);
        // Abort left no partial state behind.
        assert_eq!(bikes_at(&mut db, 0), 0);
        let rides = db
            .query("SELECT COUNT(*) FROM rides", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(rides, 2);
    }

    #[test]
    fn double_checkout_rejected() {
        let mut db = city();
        db.invoke("checkout", vec![vec![Value::Int(1), Value::Int(0)]])
            .unwrap();
        let again = db
            .invoke("checkout", vec![vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        assert_eq!(again.status, TxnStatus::Aborted);
    }

    #[test]
    fn gps_updates_ride_stats_and_alerts() {
        let mut db = city();
        let out = db
            .invoke("checkout", vec![vec![Value::Int(1), Value::Int(0)]])
            .unwrap();
        let bike = out.response.unwrap().rows[0][1].as_int().unwrap();

        // Normal pace: 5 m/s for two ticks.
        for (i, x) in [(1, 5.0f64), (2, 10.0)] {
            db.advance_clock(SEC);
            db.submit_batch(
                "gps_ingest",
                vec![vec![Value::Int(bike), Value::Float(x), Value::Float(0.0)]],
            )
            .unwrap();
            let _ = i;
        }
        let r = db
            .query(
                "SELECT distance, max_speed FROM rides WHERE end_ts IS NULL",
                &[],
            )
            .unwrap();
        assert_eq!(r.rows[0][0].as_float().unwrap(), 10.0);
        assert_eq!(r.rows[0][1].as_float().unwrap(), 5.0);
        assert!(db.drain_sink("s_alerts").unwrap().is_empty());

        // Truck-speed jump: 100 m in one second.
        db.advance_clock(SEC);
        db.submit_batch(
            "gps_ingest",
            vec![vec![
                Value::Int(bike),
                Value::Float(110.0),
                Value::Float(0.0),
            ]],
        )
        .unwrap();
        let alerts = db.drain_sink("s_alerts").unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0][0], Value::Int(bike));
        assert!(alerts[0][1].as_float().unwrap() > 26.8);
    }

    #[test]
    fn discounts_offered_near_starved_stations() {
        let mut db = city();
        // Drain station 0 (2 bikes) => 2*5 < 4? 0*5 < 4 yes, starved.
        for rider in 0..2 {
            db.invoke("checkout", vec![vec![Value::Int(rider), Value::Int(0)]])
                .unwrap();
        }
        // A rider moves right next to station 0 (grid origin).
        let bike = db
            .query("SELECT bike_id FROM bikes WHERE rider_id = 0", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        db.advance_clock(SEC);
        db.submit_batch(
            "gps_ingest",
            vec![vec![
                Value::Int(bike),
                Value::Float(10.0),
                Value::Float(10.0),
            ]],
        )
        .unwrap();
        let offers = db
            .query(
                "SELECT COUNT(*) FROM discounts WHERE station_id = 0 AND status = 0",
                &[],
            )
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(offers, 1);
        // Moving again doesn't duplicate the live offer.
        db.advance_clock(SEC);
        db.submit_batch(
            "gps_ingest",
            vec![vec![
                Value::Int(bike),
                Value::Float(12.0),
                Value::Float(12.0),
            ]],
        )
        .unwrap();
        let offers = db
            .query("SELECT COUNT(*) FROM discounts WHERE station_id = 0", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(offers, 1);
    }

    #[test]
    fn discount_acceptance_is_exclusive() {
        let mut db = city();
        // Manufacture an available offer.
        db.setup_sql(
            "INSERT INTO discounts VALUES (1, 0, NULL, 25, 0, ?)",
            &[Value::Timestamp(10 * 60 * SEC)],
        )
        .unwrap();
        let first = db
            .invoke("accept_discount", vec![vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        assert!(first.is_committed());
        let second = db
            .invoke("accept_discount", vec![vec![Value::Int(2), Value::Int(1)]])
            .unwrap();
        assert_eq!(second.status, TxnStatus::Aborted);
        // Holder recorded correctly.
        let holder = db
            .query("SELECT rider_id FROM discounts WHERE discount_id = 1", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(holder, 1);
    }

    #[test]
    fn accepted_discount_redeems_on_return() {
        let mut db = city();
        db.setup_sql(
            "INSERT INTO discounts VALUES (1, 2, NULL, 50, 0, ?)",
            &[Value::Timestamp(60 * 60 * SEC)],
        )
        .unwrap();
        db.invoke("checkout", vec![vec![Value::Int(1), Value::Int(0)]])
            .unwrap();
        db.invoke("accept_discount", vec![vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        db.advance_clock(10 * 60 * SEC);
        let ret = db
            .invoke("return_bike", vec![vec![Value::Int(1), Value::Int(2)]])
            .unwrap();
        let resp = ret.response.unwrap();
        let charged = resp.rows[0][1].as_int().unwrap();
        // 10 minutes at 10c = 100c, halved by the 50% discount.
        assert_eq!(charged, 50);
        let status = db
            .query("SELECT status FROM discounts WHERE discount_id = 1", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(status, 3, "redeemed");
    }

    #[test]
    fn expired_acceptance_does_not_discount() {
        let mut db = city();
        db.setup_sql(
            "INSERT INTO discounts VALUES (1, 2, NULL, 50, 0, ?)",
            &[Value::Timestamp(60 * 60 * SEC)],
        )
        .unwrap();
        db.invoke("checkout", vec![vec![Value::Int(1), Value::Int(0)]])
            .unwrap();
        db.invoke("accept_discount", vec![vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        // Ride far past the 15-minute acceptance window.
        db.advance_clock(30 * 60 * SEC);
        let ret = db
            .invoke("return_bike", vec![vec![Value::Int(1), Value::Int(2)]])
            .unwrap();
        let charged = ret.response.unwrap().rows[0][1].as_int().unwrap();
        assert_eq!(charged, 300); // 30 min * 10c, undiscounted
    }
}
