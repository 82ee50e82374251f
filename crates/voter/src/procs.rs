//! The three Voter stored procedures (Fig. 3) and their registration.

use crate::schema::{install_schema, VoterConfig};
use sstore_common::{Result, Row, Value};
use sstore_core::{ExecMode, ProcSpec, QueryResult, SStore, TriggerEvent};
use std::sync::Arc;

/// How the trending window is maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowImpl {
    /// S-Store native window + EE slide trigger: SP2 issues one insert per
    /// vote; eviction and the `lb_trending` refresh happen inside the EE.
    Native,
    /// H-Store-style emulation: SP2 maintains a plain table with explicit
    /// insert/evict/refresh statements — several extra PE→EE round trips
    /// per vote (experiment E3b).
    Emulated,
}

/// Install the full Voter application: schema, seeds, (native-path) EE
/// trigger, and the three procedures. Wiring adapts to the partition's
/// mode: in S-Store mode the procedures are connected by streams and PE
/// triggers; in H-Store mode they stand alone and the client must drive
/// the workflow ([`crate::runner::run_hstore`]).
pub fn install(db: &mut SStore, window_impl: WindowImpl, config: &VoterConfig) -> Result<()> {
    install_schema(db, config)?;
    let wired = db.mode() == ExecMode::SStore;

    if window_impl == WindowImpl::Native {
        // Refresh the trending leaderboard inside the EE on every slide.
        db.create_ee_trigger(
            "trending_refresh",
            "w_trending",
            TriggerEvent::OnSlide,
            &[
                "DELETE FROM lb_trending",
                "INSERT INTO lb_trending SELECT contestant_number, COUNT(*) \
                 FROM w_trending GROUP BY contestant_number",
            ],
        )?;
    }

    register_sp1(db, wired)?;
    register_sp2(db, wired, window_impl, config)?;
    register_sp3(db, wired)?;
    Ok(())
}

/// SP1 — validate and record each vote; forward valid ones.
fn register_sp1(db: &mut SStore, wired: bool) -> Result<()> {
    let columns: Arc<[String]> = ["vote_id", "phone_number", "contestant_number"]
        .map(String::from)
        .into();
    let mut spec = ProcSpec::new("validate", move |ctx| {
        let mut validated = Vec::new();
        for row in &ctx.input().rows {
            let phone = row[0].clone();
            let contestant = row[1].clone();
            let exists = ctx.exec("contestant_exists", std::slice::from_ref(&contestant))?;
            if exists.rows.is_empty() {
                ctx.exec("reject", &[])?;
                continue;
            }
            let dup = ctx.exec("phone_voted", std::slice::from_ref(&phone))?;
            if !dup.rows.is_empty() {
                ctx.exec("reject", &[])?;
                continue;
            }
            ctx.exec("bump_vote_id", &[])?;
            let vid = ctx.exec("get_vote_id", &[])?.scalar_i64()?;
            ctx.exec(
                "record",
                &[Value::Int(vid), phone.clone(), contestant.clone()],
            )?;
            let out = Row::from([Value::Int(vid), phone, contestant]);
            if wired {
                ctx.emit(out)?;
            } else {
                validated.push(out);
            }
        }
        // Only the H-Store client reads a response: it forwards these to SP2.
        if !wired {
            ctx.respond(QueryResult {
                columns: Arc::clone(&columns),
                rows: validated,
                rows_affected: 0,
            });
        }
        Ok(())
    })
    .stmt(
        "contestant_exists",
        "SELECT contestant_number FROM contestants WHERE contestant_number = ?",
    )
    .stmt(
        "phone_voted",
        "SELECT vote_id FROM votes WHERE phone_number = ?",
    )
    .stmt(
        "bump_vote_id",
        "UPDATE vote_totals SET next_vote_id = next_vote_id + 1 WHERE k = 0",
    )
    .stmt(
        "get_vote_id",
        "SELECT next_vote_id FROM vote_totals WHERE k = 0",
    )
    .stmt("record", "INSERT INTO votes VALUES (?, ?, ?, NOW())")
    .stmt(
        "reject",
        "UPDATE vote_totals SET rejected = rejected + 1 WHERE k = 0",
    );
    if wired {
        spec = spec.consumes("s_votes").emits("s_validated");
    }
    db.register(spec)?;
    Ok(())
}

/// SP2 — maintain the leaderboards and signal eliminations.
fn register_sp2(
    db: &mut SStore,
    wired: bool,
    window_impl: WindowImpl,
    config: &VoterConfig,
) -> Result<()> {
    let every = config.elimination_every;
    let window = config.trending_window;
    let slide = config.trending_slide;
    // A native tuple window first slides once it has taken `window` votes
    // and `slide` of them since it began, then every `slide` votes.
    let first_slide = window.max(slide);
    let native = window_impl == WindowImpl::Native;
    let columns: Arc<[String]> = ["signals"].map(String::from).into();

    let mut spec = ProcSpec::new("leaderboard", move |ctx| {
        let mut signals = 0i64;
        for row in &ctx.input().rows {
            let contestant = row[2].clone();
            ctx.exec("bump_count", std::slice::from_ref(&contestant))?;
            ctx.exec("bump_total", &[])?;
            let total = ctx.exec("get_total", &[])?.scalar_i64()?;
            if native {
                // One statement; the EE window + slide trigger do the rest.
                ctx.exec("win_insert", std::slice::from_ref(&contestant))?;
            } else {
                // Emulated window: explicit insert, evict, and a refresh
                // on the votes the native window slides on.
                ctx.exec("raw_insert", &[Value::Int(total), contestant.clone()])?;
                ctx.exec("raw_evict", &[Value::Int(total - window)])?;
                if total >= first_slide && (total - first_slide) % slide == 0 {
                    ctx.exec("trend_clear", &[])?;
                    ctx.exec("trend_refresh", &[])?;
                }
            }
            let since = ctx.exec("get_since", &[])?.scalar_i64()?;
            if since >= every {
                ctx.exec("reset_since", &[])?;
                if wired {
                    ctx.emit([Value::Int(total)])?;
                }
                signals += 1;
            }
        }
        if !wired {
            ctx.respond(QueryResult {
                columns: Arc::clone(&columns),
                rows: vec![Row::from([Value::Int(signals)])],
                rows_affected: 0,
            });
        }
        Ok(())
    })
    .owns_window("w_trending")
    .stmt(
        "bump_count",
        "UPDATE lb_counts SET num_votes = num_votes + 1 WHERE contestant_number = ?",
    )
    .stmt(
        "bump_total",
        "UPDATE vote_totals SET total = total + 1, since_elim = since_elim + 1 WHERE k = 0",
    )
    .stmt("get_total", "SELECT total FROM vote_totals WHERE k = 0")
    .stmt(
        "get_since",
        "SELECT since_elim FROM vote_totals WHERE k = 0",
    )
    .stmt(
        "reset_since",
        "UPDATE vote_totals SET since_elim = 0 WHERE k = 0",
    )
    .stmt("win_insert", "INSERT INTO w_trending VALUES (?)")
    .stmt("raw_insert", "INSERT INTO trending_raw VALUES (?, ?)")
    .stmt("raw_evict", "DELETE FROM trending_raw WHERE seq <= ?")
    .stmt("trend_clear", "DELETE FROM lb_trending")
    .stmt(
        "trend_refresh",
        "INSERT INTO lb_trending SELECT contestant_number, COUNT(*) \
         FROM trending_raw GROUP BY contestant_number",
    );
    if wired {
        spec = spec.consumes("s_validated").emits("s_elim");
    }
    db.register(spec)?;
    Ok(())
}

/// SP3 — eliminate the lowest-vote candidate (once per signal tuple).
fn register_sp3(db: &mut SStore, wired: bool) -> Result<()> {
    let mut spec = ProcSpec::new("eliminate", move |ctx| {
        let signals = ctx.input().len().max(1);
        for _ in 0..signals {
            // The show runs until a single winner is declared (paper §3.1).
            if ctx.exec("remaining", &[])?.scalar_i64()? <= 1 {
                return Ok(());
            }
            let loser_q = ctx.exec("find_loser", &[])?;
            let Some(loser) = loser_q.rows.first().map(|r| r[0].clone()) else {
                return Ok(());
            };
            let at_total = ctx.exec("get_total", &[])?.scalar_i64()?;
            let order = ctx.exec("elim_count", &[])?.scalar_i64()? + 1;
            ctx.exec(
                "record_elim",
                &[Value::Int(order), loser.clone(), Value::Int(at_total)],
            )?;
            ctx.exec("delete_votes", std::slice::from_ref(&loser))?;
            ctx.exec("delete_count", std::slice::from_ref(&loser))?;
            ctx.exec("delete_trending", std::slice::from_ref(&loser))?;
            ctx.exec("delete_contestant", std::slice::from_ref(&loser))?;
        }
        Ok(())
    })
    .stmt("remaining", "SELECT COUNT(*) FROM contestants")
    .stmt(
        "find_loser",
        "SELECT contestant_number FROM lb_counts \
         ORDER BY num_votes ASC, contestant_number ASC LIMIT 1",
    )
    .stmt("get_total", "SELECT total FROM vote_totals WHERE k = 0")
    .stmt("elim_count", "SELECT COUNT(*) FROM eliminations")
    .stmt("record_elim", "INSERT INTO eliminations VALUES (?, ?, ?)")
    .stmt(
        "delete_votes",
        "DELETE FROM votes WHERE contestant_number = ?",
    )
    .stmt(
        "delete_count",
        "DELETE FROM lb_counts WHERE contestant_number = ?",
    )
    .stmt(
        "delete_trending",
        "DELETE FROM lb_trending WHERE contestant_number = ?",
    )
    .stmt(
        "delete_contestant",
        "DELETE FROM contestants WHERE contestant_number = ?",
    );
    if wired {
        spec = spec.consumes("s_elim");
    }
    db.register(spec)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_core::SStoreBuilder;

    fn small_config() -> VoterConfig {
        VoterConfig {
            num_contestants: 3,
            elimination_every: 5,
            trending_window: 10,
            trending_slide: 1,
        }
    }

    #[test]
    fn installs_in_both_modes() {
        let mut s = SStoreBuilder::new().build().unwrap();
        install(&mut s, WindowImpl::Native, &small_config()).unwrap();
        assert_eq!(s.workflow().len(), 3);
        assert!(s.workflow().has_shared_writables());

        let mut h = SStoreBuilder::new().hstore_mode().build().unwrap();
        install(&mut h, WindowImpl::Emulated, &small_config()).unwrap();
        assert_eq!(h.workflow().len(), 3);
    }

    #[test]
    fn single_vote_flows_through_workflow() {
        let mut db = SStoreBuilder::new().build().unwrap();
        install(&mut db, WindowImpl::Native, &small_config()).unwrap();
        let outcomes = db
            .submit_batch("validate", vec![vec![Value::Int(5551234), Value::Int(2)]])
            .unwrap();
        // SP1 then SP2; no elimination yet.
        assert_eq!(outcomes.len(), 2);
        let n = db
            .query(
                "SELECT num_votes FROM lb_counts WHERE contestant_number = 2",
                &[],
            )
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn elimination_fires_after_threshold() {
        let mut db = SStoreBuilder::new().build().unwrap();
        install(&mut db, WindowImpl::Native, &small_config()).unwrap();
        // 5 valid votes (distinct phones): all for contestant 1 except one
        // for contestant 2 -> contestant 3 has 0 votes and is eliminated.
        for i in 0..5i64 {
            let contestant = if i == 0 { 2 } else { 1 };
            db.submit_batch(
                "validate",
                vec![vec![Value::Int(100 + i), Value::Int(contestant)]],
            )
            .unwrap();
        }
        let elim = db
            .query("SELECT contestant_number FROM eliminations", &[])
            .unwrap();
        assert_eq!(elim.rows.len(), 1);
        assert_eq!(elim.rows[0][0], Value::Int(3));
        // Contestant 3 is gone; votes for it now rejected.
        db.submit_batch("validate", vec![vec![Value::Int(999), Value::Int(3)]])
            .unwrap();
        let rejected = db
            .query("SELECT rejected FROM vote_totals WHERE k = 0", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(rejected, 1);
    }

    #[test]
    fn duplicate_phone_rejected() {
        let mut db = SStoreBuilder::new().build().unwrap();
        install(&mut db, WindowImpl::Native, &small_config()).unwrap();
        db.submit_batch("validate", vec![vec![Value::Int(7), Value::Int(1)]])
            .unwrap();
        db.submit_batch("validate", vec![vec![Value::Int(7), Value::Int(2)]])
            .unwrap();
        let total = db
            .query("SELECT total FROM vote_totals WHERE k = 0", &[])
            .unwrap()
            .scalar_i64()
            .unwrap();
        assert_eq!(total, 1);
    }

    #[test]
    fn trending_leaderboard_refreshes_natively() {
        let mut db = SStoreBuilder::new().build().unwrap();
        let cfg = VoterConfig {
            num_contestants: 3,
            elimination_every: 1000,
            trending_window: 4,
            trending_slide: 1,
        };
        install(&mut db, WindowImpl::Native, &cfg).unwrap();
        for i in 0..6i64 {
            let c = if i < 4 { 1 } else { 2 };
            db.submit_batch("validate", vec![vec![Value::Int(100 + i), Value::Int(c)]])
                .unwrap();
        }
        // Window holds the last 4 votes: contestants [1,1,2,2].
        let r = db
            .query(
                "SELECT contestant_number, num_votes FROM lb_trending \
                 ORDER BY contestant_number",
                &[],
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn emulated_window_matches_native_trending() {
        let cfg = VoterConfig {
            num_contestants: 3,
            elimination_every: 1000,
            trending_window: 4,
            trending_slide: 1,
        };
        let mut native = SStoreBuilder::new().build().unwrap();
        install(&mut native, WindowImpl::Native, &cfg).unwrap();
        let mut emulated = SStoreBuilder::new().build().unwrap();
        install(&mut emulated, WindowImpl::Emulated, &cfg).unwrap();
        for i in 0..7i64 {
            let c = 1 + (i % 3);
            for db in [&mut native, &mut emulated] {
                db.submit_batch("validate", vec![vec![Value::Int(100 + i), Value::Int(c)]])
                    .unwrap();
            }
        }
        let q = "SELECT contestant_number, num_votes FROM lb_trending ORDER BY contestant_number";
        let a = native.query(q, &[]).unwrap();
        let b = emulated.query(q, &[]).unwrap();
        assert_eq!(a.rows, b.rows);
        // And the native path used fewer PE->EE dispatches.
        assert!(
            native.engine().stats().pe_ee_trips < emulated.engine().stats().pe_ee_trips,
            "native {} !< emulated {}",
            native.engine().stats().pe_ee_trips,
            emulated.engine().stats().pe_ee_trips
        );
    }
}
