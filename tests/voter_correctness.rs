//! Integration test for experiment E1 (paper §3.1): the Voter demo's
//! correctness claims, end to end across all crates.

use sstore_core::SStoreBuilder;
use sstore_storage::snapshot::Snapshot;
use sstore_voter::checker::oracle_state;
use sstore_voter::{
    capture_state, diff_states, install, run_hstore, run_sstore, Oracle, VoteGen, VoterConfig,
    WindowImpl,
};

fn config() -> VoterConfig {
    VoterConfig {
        num_contestants: 25,
        elimination_every: 100,
        trending_window: 100,
        trending_slide: 10,
    }
}

#[test]
fn sstore_is_exact_for_many_seeds_and_batch_sizes() {
    for seed in [1u64, 7, 42] {
        let cfg = config();
        let votes = VoteGen::new(seed, cfg.num_contestants).take(1_500);
        for batch in [1usize, 3, 25] {
            let mut db = SStoreBuilder::new().build().unwrap();
            install(&mut db, WindowImpl::Native, &cfg).unwrap();
            run_sstore(&mut db, &votes, batch).unwrap();

            let mut oracle = Oracle::new(cfg.clone());
            for chunk in votes.chunks(batch) {
                let pairs: Vec<(i64, i64)> =
                    chunk.iter().map(|v| (v.phone, v.contestant)).collect();
                oracle.feed_batch(&pairs);
            }
            let d = diff_states(&oracle_state(&oracle), &capture_state(&mut db).unwrap());
            assert!(d.is_clean(), "seed={seed} batch={batch} diverged: {d:?}");
        }
    }
}

#[test]
fn hstore_anomalies_grow_with_pipelining() {
    let cfg = config();
    let votes = VoteGen::new(11, cfg.num_contestants).take(3_000);
    let mut oracle = Oracle::new(cfg.clone());
    for v in &votes {
        oracle.feed(v.phone, v.contestant);
    }
    let expected = oracle_state(&oracle);

    let mut totals = Vec::new();
    for inflight in [1usize, 8, 64] {
        let mut db = SStoreBuilder::new().hstore_mode().build().unwrap();
        install(&mut db, WindowImpl::Emulated, &cfg).unwrap();
        run_hstore(&mut db, &votes, inflight).unwrap();
        let d = diff_states(&expected, &capture_state(&mut db).unwrap());
        totals.push(d.total());
    }
    assert_eq!(totals[0], 0, "serialized client must be exact");
    assert!(
        totals[2] > 0,
        "deep pipelining must produce anomalies: {totals:?}"
    );
    assert!(
        totals[2] >= totals[1],
        "anomalies should not shrink with deeper pipelines: {totals:?}"
    );
}

#[test]
fn eliminated_candidates_reject_new_votes_and_free_phones() {
    let cfg = VoterConfig {
        num_contestants: 3,
        elimination_every: 4,
        ..config()
    };
    let mut db = SStoreBuilder::new().build().unwrap();
    install(&mut db, WindowImpl::Native, &cfg).unwrap();
    use sstore_core::common::Value;
    // 4 votes -> contestant with fewest (3) eliminated.
    for (phone, c) in [(1i64, 1i64), (2, 1), (3, 2), (4, 3)] {
        db.submit_batch("validate", vec![vec![Value::Int(phone), Value::Int(c)]])
            .unwrap();
    }
    let elim = db
        .query("SELECT contestant_number FROM eliminations", &[])
        .unwrap();
    assert_eq!(elim.rows.len(), 1);
    let loser = elim.rows[0][0].as_int().unwrap();
    // The phone that voted for the loser can vote again...
    let freed_phone = if loser == 2 { 3 } else { 4 };
    db.submit_batch(
        "validate",
        vec![vec![Value::Int(freed_phone), Value::Int(1)]],
    )
    .unwrap();
    // ...while a vote for the loser is rejected.
    let rejected_before = db
        .query("SELECT rejected FROM vote_totals WHERE k = 0", &[])
        .unwrap()
        .scalar_i64()
        .unwrap();
    db.submit_batch("validate", vec![vec![Value::Int(99), Value::Int(loser)]])
        .unwrap();
    let rejected_after = db
        .query("SELECT rejected FROM vote_totals WHERE k = 0", &[])
        .unwrap()
        .scalar_i64()
        .unwrap();
    assert_eq!(rejected_after, rejected_before + 1);
}

#[test]
fn show_runs_to_single_winner_and_stops() {
    let cfg = VoterConfig {
        num_contestants: 5,
        elimination_every: 10,
        ..config()
    };
    let votes = VoteGen::with_mix(3, cfg.num_contestants, 1.2, 0.0, 0.0).take(2_000);
    let mut db = SStoreBuilder::new().build().unwrap();
    install(&mut db, WindowImpl::Native, &cfg).unwrap();
    run_sstore(&mut db, &votes, 1).unwrap();
    let remaining = db
        .query("SELECT COUNT(*) FROM contestants", &[])
        .unwrap()
        .scalar_i64()
        .unwrap();
    assert_eq!(remaining, 1, "exactly one winner must remain");
    let elims = db
        .query("SELECT COUNT(*) FROM eliminations", &[])
        .unwrap()
        .scalar_i64()
        .unwrap();
    assert_eq!(elims, 4);
}

/// The TE hot path may get cheaper per statement, never chattier: a fixed
/// Voter run pins the engine's PE→EE trip and statement counts (S-Store
/// push at two batch sizes, H-Store with a client-driven workflow).
#[test]
fn voter_ee_trip_and_statement_counts_are_pinned() {
    let cfg = config();
    let votes = VoteGen::new(5, cfg.num_contestants).take(1_500);
    let mut counts = Vec::new();
    for batch in [1usize, 25] {
        let mut db = SStoreBuilder::new().build().unwrap();
        install(&mut db, WindowImpl::Native, &cfg).unwrap();
        run_sstore(&mut db, &votes, batch).unwrap();
        let s = db.engine().stats();
        counts.push((s.pe_ee_trips, s.statements));
    }
    let mut db = SStoreBuilder::new().hstore_mode().build().unwrap();
    install(&mut db, WindowImpl::Emulated, &cfg).unwrap();
    run_hstore(&mut db, &votes, 4).unwrap();
    let s = db.engine().stats();
    counts.push((s.pe_ee_trips, s.statements));
    // The emulated window refreshes on the votes the native one slides
    // on: not at totals 10, 20, …, 90 before the window first fills.
    assert_eq!(
        counts,
        vec![(14_586, 14_820), (14_712, 14_950), (14_808, 14_808)]
    );
}

#[test]
fn trending_window_reflects_only_recent_votes() {
    let cfg = VoterConfig {
        num_contestants: 4,
        elimination_every: 10_000,
        trending_window: 10,
        trending_slide: 1,
    };
    let mut db = SStoreBuilder::new().build().unwrap();
    install(&mut db, WindowImpl::Native, &cfg).unwrap();
    use sstore_core::common::Value;
    // 20 votes for candidate 1, then 10 for candidate 2.
    for i in 0..20i64 {
        db.submit_batch("validate", vec![vec![Value::Int(100 + i), Value::Int(1)]])
            .unwrap();
    }
    for i in 0..10i64 {
        db.submit_batch("validate", vec![vec![Value::Int(200 + i), Value::Int(2)]])
            .unwrap();
    }
    let trending = db
        .query(
            "SELECT contestant_number, num_votes FROM lb_trending ORDER BY contestant_number",
            &[],
        )
        .unwrap();
    // Window of 10: only candidate 2 remains trending.
    assert_eq!(trending.rows.len(), 1);
    assert_eq!(trending.rows[0][0].as_int().unwrap(), 2);
    assert_eq!(trending.rows[0][1].as_int().unwrap(), 10);
    // But the all-time leaderboard still favours candidate 1.
    let top = db
        .query(
            "SELECT contestant_number FROM lb_counts ORDER BY num_votes DESC LIMIT 1",
            &[],
        )
        .unwrap();
    assert_eq!(top.rows[0][0].as_int().unwrap(), 1);
}

/// The snapshot bytes of a fixed Native Voter run: 3 000 votes at seed 7,
/// one vote per batch, eliminations every 300 votes. The slide trigger's
/// group order decides `lb_trending`'s slots, and every write decides the
/// bytes of its row, so an aggregate answered in any order but the scan's,
/// or a write that changes a cell it was not asked to, moves the digest:
/// the byte length and an FNV-1a over the bytes, pinned from the engine
/// that re-aggregated the window on every slide and copied every updated
/// row. Codec v4 moved only the header's version field; the body is the
/// v3 body byte for byte.
#[test]
fn native_voter_snapshot_bytes_match_their_golden() {
    let cfg = VoterConfig {
        elimination_every: 300,
        ..config()
    };
    let votes = VoteGen::new(7, cfg.num_contestants).take(3_000);
    let mut db = SStoreBuilder::new().build().unwrap();
    install(&mut db, WindowImpl::Native, &cfg).unwrap();
    run_sstore(&mut db, &votes, 1).unwrap();
    let bytes = Snapshot::capture(db.engine().db(), None, None, 0).encode_binary();
    let fnv = (bytes.iter()).fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    println!("snapshot: {} bytes, fnv1a {fnv:#018x}", bytes.len());
    assert_eq!((bytes.len(), fnv), (90_574, 0x43a9_af0f_c6c6_7dcf));
}

/// Native windows and their emulation in client SQL agree on
/// `lb_trending` after every batch, from the first vote, over seeded
/// random shows: 2–30 contestants, a window of 1–200 votes sliding by
/// 1 to 50 more than the window (so the slide need not divide it, and
/// may exceed it), eliminations every 5–400 votes, batches of 1–4 votes,
/// 150 votes past the first slide. The native path
/// answers the slide trigger's `GROUP BY` from the window's grouped state;
/// the emulation re-aggregates a plain table, on the votes the native
/// window slides on.
#[test]
fn emulated_and_native_trending_agree_on_random_shows() {
    use sstore_core::common::Value;
    let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
    let mut draw = |n: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed % n
    };
    let q = "SELECT contestant_number, num_votes FROM lb_trending ORDER BY contestant_number";
    for case in 0..32 {
        let window = 1 + draw(200) as i64;
        let cfg = VoterConfig {
            num_contestants: 2 + draw(29) as i64,
            elimination_every: 5 + draw(396) as i64,
            trending_window: window,
            trending_slide: 1 + draw(window as u64 + 50) as i64,
        };
        let mut native = SStoreBuilder::new().build().unwrap();
        install(&mut native, WindowImpl::Native, &cfg).unwrap();
        let mut emulated = SStoreBuilder::new().build().unwrap();
        install(&mut emulated, WindowImpl::Emulated, &cfg).unwrap();
        let first_slide = window.max(cfg.trending_slide) as usize;
        let votes = VoteGen::new(case, cfg.num_contestants).take(first_slide + 150);
        let mut at = 0;
        while at < votes.len() {
            let n = (1 + draw(4) as usize).min(votes.len() - at);
            let batch: Vec<Vec<Value>> = votes[at..at + n]
                .iter()
                .map(|v| vec![Value::Int(v.phone), Value::Int(v.contestant)])
                .collect();
            at += n;
            for db in [&mut native, &mut emulated] {
                db.submit_batch("validate", batch.clone()).unwrap();
            }
            let (a, b) = (
                native.query(q, &[]).unwrap(),
                emulated.query(q, &[]).unwrap(),
            );
            assert_eq!(a.rows, b.rows, "case {case}, {cfg:?}, after {at} votes");
        }
    }
}
