//! BikeShare schema and configuration.

use sstore_common::{Result, Value};
use sstore_core::SStore;

/// Microseconds per simulated second.
pub(crate) const SEC: i64 = 1_000_000;

/// Tunables for the BikeShare application.
#[derive(Debug, Clone)]
pub struct BikeConfig {
    /// Number of stations (grid-placed).
    pub stations: i64,
    /// Docks per station.
    pub docks_per_station: i64,
    /// Bikes initially docked (spread round-robin).
    pub bikes: i64,
    /// Registered riders.
    pub riders: i64,
    /// Speed above which a stolen-bike alert fires (m/s). 60 mph ≈ 26.8.
    pub alert_speed: f64,
    /// Stations offer discounts when `bikes_available * low_bike_div <
    /// docks` (paper: stations "in need of bikes").
    pub low_bike_div: i64,
    /// Radius within which riders see a station's discount (meters).
    pub discount_radius: f64,
    /// Discount percentage offered.
    pub discount_pct: i64,
    /// Offer/acceptance lifetime (µs). Paper: 15 minutes.
    pub discount_expiry: i64,
    /// Ride price per started minute (cents).
    pub price_per_min: i64,
}

impl Default for BikeConfig {
    fn default() -> Self {
        BikeConfig {
            stations: 50,
            docks_per_station: 10,
            bikes: 300,
            riders: 200,
            alert_speed: 26.8,
            low_bike_div: 5,
            discount_radius: 500.0,
            discount_pct: 25,
            discount_expiry: 15 * 60 * SEC,
            price_per_min: 10,
        }
    }
}

impl BikeConfig {
    /// A small city for unit tests.
    pub fn tiny() -> Self {
        BikeConfig {
            stations: 4,
            docks_per_station: 4,
            bikes: 8,
            riders: 6,
            ..BikeConfig::default()
        }
    }
}

/// Discount status codes (the `discounts.status` column): 0 offered, 1
/// accepted, 2 expired, 3 redeemed. Bikes (`bikes.status`) are 0 docked or
/// 1 riding. The procedures' SQL writes the codes as literals.
pub mod discount_status {
    /// Offered, unclaimed.
    pub(crate) const AVAILABLE: i64 = 0;
}

/// Install tables, streams, indexes, and seed the city.
///
/// Station coordinates form a √n×√n grid with 1 km spacing; bikes are
/// docked round-robin.
pub(crate) fn install_schema(db: &mut SStore, cfg: &BikeConfig) -> Result<()> {
    db.ddl(
        "CREATE TABLE stations (station_id INT NOT NULL, x FLOAT NOT NULL, y FLOAT NOT NULL, \
         docks INT NOT NULL, bikes_available INT NOT NULL, PRIMARY KEY (station_id))",
    )?;
    db.ddl(
        "CREATE TABLE bikes (bike_id INT NOT NULL, status INT NOT NULL, station_id INT, \
         rider_id INT, x FLOAT NOT NULL, y FLOAT NOT NULL, last_ts TIMESTAMP, \
         PRIMARY KEY (bike_id))",
    )?;
    db.create_index("bikes", "bikes_by_station", &["station_id"], false)?;
    db.create_index("bikes", "bikes_by_rider", &["rider_id"], false)?;
    db.ddl(
        "CREATE TABLE riders (rider_id INT NOT NULL, name VARCHAR(32) NOT NULL, \
         PRIMARY KEY (rider_id))",
    )?;
    db.ddl(
        "CREATE TABLE rides (ride_id INT NOT NULL, rider_id INT NOT NULL, bike_id INT NOT NULL, \
         start_station INT NOT NULL, end_station INT, start_ts TIMESTAMP NOT NULL, \
         end_ts TIMESTAMP, distance FLOAT NOT NULL, max_speed FLOAT NOT NULL, \
         charged INT, PRIMARY KEY (ride_id))",
    )?;
    db.create_index("rides", "rides_by_rider", &["rider_id"], false)?;
    db.ddl(
        "CREATE TABLE discounts (discount_id INT NOT NULL, station_id INT NOT NULL, \
         rider_id INT, pct INT NOT NULL, status INT NOT NULL, expires_ts TIMESTAMP NOT NULL, \
         PRIMARY KEY (discount_id))",
    )?;
    db.create_index("discounts", "discounts_by_station", &["station_id"], false)?;
    db.ddl(
        "CREATE TABLE counters (k INT NOT NULL, next_ride INT NOT NULL, \
         next_discount INT NOT NULL, PRIMARY KEY (k))",
    )?;
    // Streams: GPS input, rider movements (workflow edge), alert sink.
    db.ddl("CREATE STREAM s_gps (bike_id INT, x FLOAT, y FLOAT)")?;
    db.ddl("CREATE STREAM s_moves (rider_id INT, x FLOAT, y FLOAT)")?;
    db.ddl("CREATE STREAM s_alerts (bike_id INT, speed FLOAT, at_ts TIMESTAMP)")?;

    // Seed the city.
    let side = (cfg.stations as f64).sqrt().ceil() as i64;
    for s in 0..cfg.stations {
        let x = (s % side) as f64 * 1000.0;
        let y = (s / side) as f64 * 1000.0;
        db.setup_sql(
            "INSERT INTO stations VALUES (?, ?, ?, ?, 0)",
            &[
                Value::Int(s),
                Value::Float(x),
                Value::Float(y),
                Value::Int(cfg.docks_per_station),
            ],
        )?;
    }
    for b in 0..cfg.bikes {
        let station = b % cfg.stations;
        let sx = (station % side) as f64 * 1000.0;
        let sy = (station / side) as f64 * 1000.0;
        db.setup_sql(
            "INSERT INTO bikes VALUES (?, 0, ?, NULL, ?, ?, 0)",
            &[
                Value::Int(b),
                Value::Int(station),
                Value::Float(sx),
                Value::Float(sy),
            ],
        )?;
        db.setup_sql(
            "UPDATE stations SET bikes_available = bikes_available + 1 WHERE station_id = ?",
            &[Value::Int(station)],
        )?;
    }
    for r in 0..cfg.riders {
        db.setup_sql(
            "INSERT INTO riders VALUES (?, ?)",
            &[Value::Int(r), Value::Text(format!("Rider {r}"))],
        )?;
    }
    db.setup_sql("INSERT INTO counters VALUES (0, 0, 0)", &[])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_core::SStoreBuilder;

    #[test]
    fn seeds_city_consistently() {
        let mut db = SStoreBuilder::new().build().unwrap();
        let cfg = BikeConfig::tiny();
        install_schema(&mut db, &cfg).unwrap();
        let stations = db
            .query("SELECT COUNT(*) FROM stations", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(stations, 4);
        // Bike conservation at rest: all bikes docked and counted.
        let available = db
            .query("SELECT SUM(bikes_available) FROM stations", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(available, cfg.bikes);
        let docked = db
            .query("SELECT COUNT(*) FROM bikes WHERE status = 0", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(docked, cfg.bikes);
    }

    #[test]
    fn no_station_overfilled_at_seed() {
        let mut db = SStoreBuilder::new().build().unwrap();
        let cfg = BikeConfig::tiny();
        install_schema(&mut db, &cfg).unwrap();
        let over = db
            .query(
                "SELECT COUNT(*) FROM stations WHERE bikes_available > docks",
                &[],
            )
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(over, 0);
    }
}
