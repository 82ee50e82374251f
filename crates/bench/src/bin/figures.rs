//! `figures` — regenerate every experiment in the paper (DESIGN.md §3).
//!
//! Usage:
//!   cargo run -p sstore-bench --bin figures --release            # all
//!   cargo run -p sstore-bench --bin figures --release -- e1 e3a  # subset
//!   cargo run -p sstore-bench --bin figures --release -- --quick # small n
//!
//! Each experiment prints the table/series the corresponding claim or
//! figure in the paper reports; EXPERIMENTS.md records a captured run.

use sstore_bench::*;
use sstore_voter::WindowImpl;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let run = |id: &str| wanted.is_empty() || wanted.contains(&id);
    let scale = if quick { 1 } else { 5 };

    println!("S-Store reproduction — experiment harness");
    println!("(paper: Cetintemel et al., VLDB 2014, vol 7 no 13)\n");

    if args.iter().any(|a| a == "--inventory") {
        inventory();
        return;
    }

    if run("e1") {
        exp1(scale);
    }
    if run("e2") {
        exp2(scale);
    }
    if run("e3a") {
        exp3a(scale);
    }
    if run("e3b") {
        exp3b(scale);
    }
    if run("e4") {
        exp4(scale);
    }
    if run("e6") {
        exp6(scale);
    }
    if run("e7") {
        exp7(scale);
    }
    if run("e8") {
        exp8(scale);
    }
    if run("e9") {
        exp9(scale);
    }
    if run("e10") {
        exp10(scale);
    }
}

/// F1 — the paper's Fig. 1 (architecture): the system inventory, mapping
/// each architectural box to the crate/module implementing it.
fn inventory() {
    println!("== F1: architecture inventory (paper Fig. 1) ==\n");
    let rows: &[(&str, &str)] = &[
        (
            "client interface (push + OLTP)",
            "sstore-core::{SStore::submit_batch, invoke}",
        ),
        (
            "pipelined/polling client (H-Store demo driver)",
            "sstore-core::client::PipelinedClient",
        ),
        (
            "shared-nothing partition runtime (workers)",
            "sstore-core::cluster::Cluster",
        ),
        (
            "partition router (hash/range, async tickets)",
            "sstore-core::router",
        ),
        ("PE: stored procedures", "sstore-txn::procedure"),
        ("PE: stream txn model / scheduler", "sstore-txn::partition"),
        (
            "PE: workflows + PE triggers",
            "sstore-txn::workflow + partition::post_te",
        ),
        ("PE: command logging (group commit)", "sstore-txn::log"),
        ("PE: upstream-backup recovery", "sstore-txn::recovery"),
        ("EE: statement execution + undo", "sstore-engine::context"),
        (
            "EE: EE triggers (insert/slide)",
            "sstore-engine::triggers + engine",
        ),
        ("EE: native windows (tuple/time)", "sstore-engine::windows"),
        ("EE: stream GC", "sstore-engine::gc"),
        ("SQL: lexer/parser/planner/executor", "sstore-sql"),
        (
            "storage: heap tables + indexes",
            "sstore-storage::{table, index}",
        ),
        (
            "storage: catalog (table/stream/window)",
            "sstore-storage::catalog",
        ),
        ("storage: snapshots", "sstore-storage::snapshot"),
        ("apps: Voter w/ Leaderboard (Figs 2-3)", "sstore-voter"),
        ("apps: BikeShare (Figs 4-5)", "sstore-bikeshare"),
    ];
    for (what, where_) in rows {
        println!("   {what:<46} {where_}");
    }
    println!();
}

/// E1 — §3.1 correctness demo: anomalies vs the rules of the show.
fn exp1(scale: usize) {
    println!("== E1: correctness — S-Store vs naive H-Store (votes vs oracle) ==");
    println!("   (paper §3.1: wrong candidates removed, possibility of a false winner)\n");
    println!("   inflight | sys      | wrong elims | tally errs | false leader | total anomalies");
    for inflight in [1usize, 4, 16, 64] {
        let (ds, dh) = exp_e1(600 * scale, inflight);
        println!(
            "   {:>8} | S-Store  | {:>11} | {:>10} | {:>12} | {:>6}",
            inflight,
            ds.wrong_eliminations,
            ds.tally_mismatches,
            ds.false_leader,
            ds.total()
        );
        println!(
            "   {:>8} | H-Store  | {:>11} | {:>10} | {:>12} | {:>6}",
            inflight,
            dh.wrong_eliminations,
            dh.tally_mismatches,
            dh.false_leader,
            dh.total()
        );
    }
    println!();
}

/// E2 — §3.1 performance demo: transactions/votes per second side by side.
fn exp2(scale: usize) {
    let n = 2_000 * scale;
    println!("== E2: throughput — S-Store vs H-Store, full Voter workflow ==\n");
    println!("   system   | votes   | votes/s  | client trips | PE->EE trips");
    let rs = run_voter(true, WindowImpl::Native, n, 1, 0, 0, 0);
    println!(
        "   S-Store  | {:>7} | {:>8.0} | {:>12} | {:>12}",
        rs.votes, rs.votes_per_sec, rs.client_pe_trips, rs.pe_ee_trips
    );
    let rh = run_voter(false, WindowImpl::Emulated, n, 1, 8, 0, 0);
    println!(
        "   H-Store  | {:>7} | {:>8.0} | {:>12} | {:>12}",
        rh.votes, rh.votes_per_sec, rh.client_pe_trips, rh.pe_ee_trips
    );
    println!(
        "\n   S-Store/H-Store speedup: {:.2}x (trip ratio: client {:.2}x, PE-EE {:.2}x)\n",
        rs.votes_per_sec / rh.votes_per_sec,
        rh.client_pe_trips as f64 / rs.client_pe_trips as f64,
        rh.pe_ee_trips as f64 / rs.pe_ee_trips as f64
    );
}

/// E3a — client↔PE round-trip reduction via PE triggers (push vs poll).
fn exp3a(scale: usize) {
    let n = 400 * scale;
    println!("== E3a: push vs poll — client<->PE round trips, with per-trip cost ==\n");
    println!("   trip cost | mode | votes/s  | client trips/vote");
    for cost in [0u64, 50, 200] {
        let push = run_voter(true, WindowImpl::Native, n, 1, 0, cost, 0);
        let poll = run_voter(false, WindowImpl::Native, n, 1, 8, cost, 0);
        println!(
            "   {:>6} us | push | {:>8.0} | {:>6.2}",
            cost,
            push.votes_per_sec,
            push.client_pe_trips as f64 / n as f64
        );
        println!(
            "   {:>6} us | poll | {:>8.0} | {:>6.2}",
            cost,
            poll.votes_per_sec,
            poll.client_pe_trips as f64 / n as f64
        );
    }
    println!();
}

/// E3b — PE↔EE round-trip reduction via native windows + EE triggers.
fn exp3b(scale: usize) {
    let n = 400 * scale;
    println!("== E3b: native vs emulated windows — PE->EE dispatches ==\n");
    println!("   stmt cost | window   | votes/s  | PE->EE trips/vote");
    for cost in [0u64, 20] {
        let native = run_voter(true, WindowImpl::Native, n, 1, 0, 0, cost);
        let emu = run_voter(true, WindowImpl::Emulated, n, 1, 0, 0, cost);
        println!(
            "   {:>6} us | native   | {:>8.0} | {:>6.2}",
            cost,
            native.votes_per_sec,
            native.pe_ee_trips as f64 / n as f64
        );
        println!(
            "   {:>6} us | emulated | {:>8.0} | {:>6.2}",
            cost,
            emu.votes_per_sec,
            emu.pe_ee_trips as f64 / n as f64
        );
    }
    println!();
}

/// E4 — §3.2 BikeShare mixed workload.
fn exp4(scale: usize) {
    let ticks = 300 * scale as u64;
    println!("== E4: BikeShare — OLTP + streaming + hybrid in one system ==\n");
    let t0 = Instant::now();
    let (r, db) = exp_e4(ticks, 7);
    let secs = t0.elapsed().as_secs_f64();
    let pe = db.stats().clone();
    println!("   simulated seconds   {:>8}", r.ticks);
    println!("   checkouts/returns   {:>8} / {}", r.checkouts, r.returns);
    println!("   GPS pings           {:>8}", r.gps_pings);
    println!("   stolen-bike alerts  {:>8}", r.alerts);
    println!(
        "   discount accepts    {:>8} ({} conflicts, all serialized)",
        r.accepts, r.accept_conflicts
    );
    println!("   revenue (cents)     {:>8}", r.total_charged);
    println!("   TEs committed       {:>8}", pe.committed);
    println!("   TEs/s (wall)        {:>8.0}", pe.committed as f64 / secs);
    println!("   invariants          verified (bike conservation, dock capacity,");
    println!("                       discount exclusivity, one open ride per rider)\n");
}

/// E6 — durability and recovery.
fn exp6(scale: usize) {
    let n = 300 * scale;
    println!("== E6: command logging overhead + upstream-backup recovery ==\n");
    println!("   config            | votes/s");
    let off = run_voter(true, WindowImpl::Native, n, 1, 0, 0, 0);
    println!("   logging off       | {:>8.0}", off.votes_per_sec);
    for group in [1usize, 8, 64] {
        let dir = scratch_dir(&format!("fig-log-{group}"));
        let r = run_durable_voter(&dir, n, group);
        std::fs::remove_dir_all(&dir).ok();
        println!("   group commit {group:>3}  | {:>8.0}", r.votes_per_sec);
    }
    println!("\n   recovery: snapshot + log replay");
    for votes in [200 * scale, 1000 * scale] {
        let dir = scratch_dir(&format!("fig-rec-{votes}"));
        let (secs, ok) = exp_e6_recovery(&dir, votes);
        std::fs::remove_dir_all(&dir).ok();
        println!(
            "   {:>6} logged votes -> recovered in {:>7.1} ms (state match: {})",
            votes,
            secs * 1e3,
            ok
        );
    }
    println!();
}

/// E7 — bounded memory under unbounded streams (GC at work).
fn exp7(scale: usize) {
    println!("== E7: automatic GC — memory stays bounded on unbounded input ==\n");
    println!("   tuples ingested | resident bytes");
    let mut last = 0usize;
    for n in [2_000 * scale, 10_000 * scale, 20_000 * scale] {
        let bytes = exp_e7(n);
        println!("   {:>15} | {:>10}", n, bytes);
        last = bytes;
    }
    println!("   (window ROWS 1000 SLIDE 10: steady state ~1000 tuples resident; {last} bytes)\n");
}

/// E8 — batch size sweep.
fn exp8(scale: usize) {
    let n = 2_000 * scale;
    println!("== E8: batch size as the TE unit ==\n");
    println!("   batch | votes/s  | TEs      | mean TE latency (us)");
    for batch in [1usize, 4, 16, 64, 256, 1024] {
        let vs = votes(n);
        let mut db = sstore_voter_quiet();
        let r = sstore_voter::run_sstore(&mut db, &vs, batch).expect("run");
        println!(
            "   {:>5} | {:>8.0} | {:>8} | {:>8.1}",
            batch,
            r.votes_per_sec,
            db.stats().committed,
            db.stats().mean_latency_us()
        );
    }
    println!();
}

fn sstore_voter_quiet() -> sstore_core::SStore {
    sstore_voter(WindowImpl::Native, 0, 0)
}

/// E9 — shared-nothing cluster scaling: sync vs async routed ingest.
fn exp9(scale: usize) {
    let events = 300 * scale;
    let (batch, ee_latency_us) = (250usize, 50u64);
    println!("== E9: cluster scaling — 1/2/4 partitions, sync vs async ingest ==");
    println!(
        "   ({events} count_events rows, batches of {batch}, {ee_latency_us} us/statement EE latency)\n"
    );
    println!("   partitions | ingest | events/s | speedup vs 1p sync | state matches 1p");
    let reference = exp_e9_reference(events, batch, ee_latency_us);
    let mut base = 0.0f64;
    for n in [1usize, 2, 4] {
        for asynchronous in [false, true] {
            let (secs, state) = exp_e9_run(n, events, batch, asynchronous, ee_latency_us);
            if n == 1 && !asynchronous {
                base = secs;
            }
            println!(
                "   {:>10} | {:>6} | {:>8.0} | {:>18.2}x | {}",
                n,
                if asynchronous { "async" } else { "sync" },
                events as f64 / secs,
                base / secs,
                state == reference
            );
        }
    }
    println!();
}

/// E10 — zero-copy row pipeline: per-path timings plus the row-sharing
/// counters that prove where copies went.
fn exp10(scale: usize) {
    use sstore_core::common::RowMetrics;
    println!("== E10: zero-copy row pipeline — shared COW rows end-to-end ==\n");
    let n = 20_000 * scale;
    let mut db = exp_e10_build(n);
    println!("   path                  | elems   | ms      | M elem/s");
    let t0 = Instant::now();
    let kept = exp_e10_scan_filter(&mut db);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "   scan+filter ({kept:>6} kept) | {n:>7} | {ms:>7.2} | {:>8.2}",
        n as f64 / ms / 1e3
    );
    let t0 = Instant::now();
    let groups = exp_e10_join_agg(&mut db);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "   join+agg ({groups} groups)     | {n:>7} | {ms:>7.2} | {:>8.2}",
        n as f64 / ms / 1e3
    );
    let slide_n = 4_000 * scale;
    let t0 = Instant::now();
    exp_e10_window_slide(slide_n);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "   window slide          | {slide_n:>7} | {ms:>7.2} | {:>8.2}",
        slide_n as f64 / ms / 1e3
    );
    let before = RowMetrics::snapshot();
    let (mut hdb, hrows) = exp_e10_handoff_build(slide_n);
    let t0 = Instant::now();
    exp_e10_batch_handoff(&mut hdb, &hrows, 250);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "   batch hand-off        | {slide_n:>7} | {ms:>7.2} | {:>8.2}",
        slide_n as f64 / ms / 1e3
    );
    let delta = RowMetrics::snapshot().since(&before);
    println!(
        "\n   hand-off row metrics: {} shares, {} deep copies, {} COW breaks\n",
        delta.shares, delta.deep_copies, delta.cow_breaks
    );
}
