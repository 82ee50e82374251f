//! E13 — incremental delta snapshots, partition-parallel recovery, and
//! 2PC fast paths.
//!
//! Four legs, one JSON artifact (`target/BENCH_e13.json`):
//!
//! * **snapshot_write** — retention-snapshot wall time vs live rows, for
//!   the delta-chain policy (O(hot set) per image) against forced full
//!   images (O(live rows) per image). The hot set is fixed while live
//!   rows grow 10×, so delta cost should stay roughly flat while full
//!   cost grows linearly.
//! * **recovery** — single-partition recovery wall time over the same
//!   directories (base + delta chain vs full image). Recovery
//!   materializes every live row either way, so both curves track the
//!   live-row count; the leg proves the chain adds no replay penalty.
//! * **cluster_recovery** — `Cluster::recover` wall time at 1/2/4
//!   partitions (partition-parallel whenever there is more than one).
//! * **mixed_2pc** — multi-partition atomic batches interleaved with
//!   disjoint single-partition traffic: prepared participants executing
//!   queued non-conflicting work during the prepare→decide wait.
//!
//! Set `SSTORE_BENCH_SMOKE=1` for a tiny smoke run (CI uses this to
//! prove the bench executes, not to measure).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sstore_bench::{exp_e13_cluster_recovery, exp_e13_mixed_2pc, exp_e13_recovery, scratch_dir};
use sstore_common::obs;
use std::collections::BTreeMap;

fn smoke() -> bool {
    std::env::var_os("SSTORE_BENCH_SMOKE").is_some()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

struct E13Row {
    leg: &'static str,
    config: String,
    rows: usize,
    secs: f64,
    extra: String,
}

/// Legs 1+2: one populate+crash+recover run per (live_rows, policy);
/// snapshot-write cost and recovery wall both fall out of it.
fn sweep_snapshots(sizes: &[usize], hot_keys: usize, rounds: usize) -> Vec<E13Row> {
    let mut out = Vec::new();
    for &n in sizes {
        for delta in [false, true] {
            let dir = scratch_dir(&format!("e13-snap-{n}-{delta}"));
            let (rec_secs, snap_secs, ok) = exp_e13_recovery(&dir, n, hot_keys, rounds, delta);
            assert!(ok, "recovered state diverged (rows={n} delta={delta})");
            let policy = if delta { "delta" } else { "full" };
            out.push(E13Row {
                leg: "snapshot_write",
                config: policy.into(),
                rows: n,
                secs: median(snap_secs),
                extra: format!("\"hot_keys\": {hot_keys}, \"rounds\": {rounds}"),
            });
            out.push(E13Row {
                leg: "recovery",
                config: policy.into(),
                rows: n,
                secs: rec_secs,
                extra: format!("\"hot_keys\": {hot_keys}, \"rounds\": {rounds}"),
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    out
}

/// Leg 3: cluster recovery at growing partition counts.
fn sweep_cluster(partition_counts: &[usize], events: usize) -> Vec<E13Row> {
    let mut out = Vec::new();
    for &n in partition_counts {
        let dir = scratch_dir(&format!("e13-cluster-{n}"));
        let (secs, ok) = exp_e13_cluster_recovery(&dir, n, events);
        assert!(ok, "cluster recovery diverged (partitions={n})");
        out.push(E13Row {
            leg: "cluster_recovery",
            config: "parallel".into(),
            rows: events,
            secs,
            extra: format!("\"partitions\": {n}"),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

/// Leg 4: 2PC mixed traffic (early-prepare speculation).
fn sweep_2pc(partitions: usize, events: usize, batch: usize) -> E13Row {
    let (secs, spec_tes, coord) = exp_e13_mixed_2pc(partitions, events, batch);
    let te_count = (events / batch.max(1)) as f64 * partitions as f64;
    E13Row {
        leg: "mixed_2pc",
        config: "speculate".into(),
        rows: events,
        secs,
        extra: format!(
            "\"partitions\": {partitions}, \"batch\": {batch}, \
             \"per_te_us\": {:.2}, \"speculative_tes\": {spec_tes}, \
             \"twopc\": {}, \"fast_path\": {}",
            secs * 1e6 / te_count.max(1.0),
            coord.multi_partition_txns,
            coord.single_partition_fast_path,
        ),
    }
}

fn write_artifact(rows: &[E13Row]) {
    let mut json = String::from("{\n  \"experiment\": \"e13_delta_recovery\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"leg\": \"{}\", \"config\": \"{}\", \"rows\": {}, \"secs\": {:.6}, {}}}{}\n",
            r.leg,
            r.config,
            r.rows,
            r.secs,
            r.extra,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    // Recovery phase breakdown (base-image read, delta-chain apply, log
    // replay, partition-parallel join) from the obs phase timers — every
    // recovery the sweeps ran in this process contributes.
    let phases: BTreeMap<String, _> = obs::registry_snapshot()
        .histograms
        .into_iter()
        .filter(|(name, _)| name.starts_with("recovery."))
        .map(|(name, h)| (name, h.report()))
        .collect();
    json.push_str("  ],\n  \"recovery_phases\": {\n");
    let n = phases.len();
    for (i, (name, r)) in phases.into_iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{\"count\": {}, \"mean_us\": {:.1}, \"p95_us\": {:.1}, \
             \"max_us\": {:.1}}}{}\n",
            r.count,
            r.mean_us,
            r.p95_us,
            r.max_us,
            if i + 1 < n { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("BENCH_e13.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

fn delta_recovery(c: &mut Criterion) {
    let (sizes, hot, rounds, cluster_events, parts, mixed_events, batch): (
        &[usize],
        usize,
        usize,
        usize,
        &[usize],
        usize,
        usize,
    ) = if smoke() {
        (&[2_000], 200, 3, 2_000, &[1, 2], 1_000, 100)
    } else {
        (
            &[20_000, 60_000, 200_000],
            2_000,
            5,
            60_000,
            &[1, 2, 4],
            40_000,
            200,
        )
    };

    let mut rows = sweep_snapshots(sizes, hot, rounds);
    rows.extend(sweep_cluster(parts, cluster_events));
    rows.push(sweep_2pc(*parts.last().unwrap(), mixed_events, batch));

    println!("\n  leg              | config    |    rows |     secs | extra");
    for r in &rows {
        println!(
            "  {:<16} | {:<9} | {:>7} | {:>8.4} | {}",
            r.leg, r.config, r.rows, r.secs, r.extra
        );
    }
    write_artifact(&rows);

    // Criterion headline: one mid-size snapshot-write cycle per policy.
    let n = if smoke() { 2_000 } else { 60_000 };
    let mut g = c.benchmark_group("e13_delta_recovery");
    g.sample_size(if smoke() { 2 } else { 10 });
    for delta in [false, true] {
        g.bench_function(
            BenchmarkId::new(
                if delta {
                    "recover_delta"
                } else {
                    "recover_full"
                },
                n,
            ),
            |b| {
                b.iter(|| {
                    let dir = scratch_dir("e13-crit");
                    let out =
                        exp_e13_recovery(&dir, n, if smoke() { 200 } else { 2_000 }, 2, delta);
                    let _ = std::fs::remove_dir_all(&dir);
                    out.0
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, delta_recovery);
criterion_main!(benches);
