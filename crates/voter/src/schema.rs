//! Voter schema and configuration.

use sstore_common::{Result, Value};
use sstore_core::SStore;

/// Tunables for the Voter application.
#[derive(Debug, Clone)]
pub struct VoterConfig {
    /// Number of candidates at the start of the show (paper: 25).
    pub num_contestants: i64,
    /// Eliminate the lowest candidate every this many counted votes
    /// (paper: 100).
    pub elimination_every: i64,
    /// Trending leaderboard window size in votes (paper: last 100 votes).
    pub trending_window: i64,
    /// Trending window slide (votes between leaderboard refreshes).
    pub trending_slide: i64,
}

impl Default for VoterConfig {
    fn default() -> Self {
        VoterConfig {
            num_contestants: 25,
            elimination_every: 100,
            trending_window: 100,
            trending_slide: 10,
        }
    }
}

/// Create every table, stream, window, and index the Voter app needs, and
/// seed the contestants. Idempotence is not required (fresh partitions).
pub(crate) fn install_schema(db: &mut SStore, config: &VoterConfig) -> Result<()> {
    db.ddl(
        "CREATE TABLE contestants (contestant_number INT NOT NULL, \
         contestant_name VARCHAR(64) NOT NULL, PRIMARY KEY (contestant_number))",
    )?;
    db.ddl(
        "CREATE TABLE votes (vote_id INT NOT NULL, phone_number INT NOT NULL, \
         contestant_number INT NOT NULL, created TIMESTAMP, PRIMARY KEY (vote_id))",
    )?;
    db.create_index("votes", "votes_by_phone", &["phone_number"], false)?;
    db.create_index(
        "votes",
        "votes_by_contestant",
        &["contestant_number"],
        false,
    )?;
    db.ddl(
        "CREATE TABLE lb_counts (contestant_number INT NOT NULL, num_votes INT NOT NULL, \
         PRIMARY KEY (contestant_number))",
    )?;
    db.ddl(
        "CREATE TABLE lb_trending (contestant_number INT NOT NULL, num_votes INT NOT NULL, \
         PRIMARY KEY (contestant_number))",
    )?;
    db.ddl(
        "CREATE TABLE vote_totals (k INT NOT NULL, total INT NOT NULL, \
         since_elim INT NOT NULL, next_vote_id INT NOT NULL, rejected INT NOT NULL, \
         PRIMARY KEY (k))",
    )?;
    db.ddl(
        "CREATE TABLE eliminations (elim_order INT NOT NULL, contestant_number INT NOT NULL, \
         at_total INT NOT NULL, PRIMARY KEY (elim_order))",
    )?;
    // Streams connecting the workflow (Fig. 3).
    db.ddl("CREATE STREAM s_votes (phone_number INT, contestant_number INT)")?;
    db.ddl("CREATE STREAM s_validated (vote_id INT, phone_number INT, contestant_number INT)")?;
    db.ddl("CREATE STREAM s_elim (at_total INT)")?;
    // Trending window (native path). The emulated path uses this raw table:
    db.ddl(&format!(
        "CREATE WINDOW w_trending (contestant_number INT) ROWS {} SLIDE {}",
        config.trending_window, config.trending_slide
    ))?;
    db.ddl(
        "CREATE TABLE trending_raw (seq INT NOT NULL, contestant_number INT NOT NULL, \
         PRIMARY KEY (seq))",
    )?;

    // Seed contestants, counts, and counters (setup path — deterministic,
    // so recovery's redeployment reproduces it).
    for c in 1..=config.num_contestants {
        db.setup_sql(
            "INSERT INTO contestants VALUES (?, ?)",
            &[Value::Int(c), Value::Text(format!("Candidate {c}"))],
        )?;
        db.setup_sql("INSERT INTO lb_counts VALUES (?, 0)", &[Value::Int(c)])?;
    }
    db.setup_sql("INSERT INTO vote_totals VALUES (0, 0, 0, 0, 0)", &[])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_core::SStoreBuilder;

    #[test]
    fn schema_installs_and_seeds() {
        let mut db = SStoreBuilder::new().build().unwrap();
        install_schema(&mut db, &VoterConfig::default()).unwrap();
        let n = db
            .query("SELECT COUNT(*) FROM contestants", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(n, 25);
        let counts = db
            .query("SELECT COUNT(*) FROM lb_counts", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(counts, 25);
        assert!(db.engine().db().resolve("w_trending").is_ok());
    }

    #[test]
    fn custom_config_sizes() {
        let mut db = SStoreBuilder::new().build().unwrap();
        let cfg = VoterConfig {
            num_contestants: 5,
            elimination_every: 10,
            trending_window: 20,
            trending_slide: 2,
        };
        install_schema(&mut db, &cfg).unwrap();
        let n = db
            .query("SELECT COUNT(*) FROM contestants", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(n, 5);
    }
}
