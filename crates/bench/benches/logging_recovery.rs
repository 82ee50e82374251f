//! E6 — durability costs and recovery: command-logging overhead across
//! group-commit sizes, and recovery wall time (snapshot + replay).
//!
//! Set `SSTORE_BENCH_SMOKE=1` for a reduced smoke run (CI uses this to
//! prove the bench executes, not to measure).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sstore_bench::{exp_e6_recovery, run_durable_voter, run_voter, scratch_dir};
use sstore_voter::WindowImpl;

fn smoke() -> bool {
    std::env::var_os("SSTORE_BENCH_SMOKE").is_some()
}

fn logging_overhead(c: &mut Criterion) {
    let votes = if smoke() { 100 } else { 500 };
    let mut g = c.benchmark_group("e6_logging");
    g.sample_size(if smoke() { 2 } else { 10 });
    g.throughput(Throughput::Elements(votes as u64));

    g.bench_function("no_logging", |b| {
        b.iter(|| run_voter(true, WindowImpl::Native, votes, 1, 0, 0, 0))
    });
    for group in [1usize, 8, 64] {
        g.bench_function(BenchmarkId::new("group_commit", group), |b| {
            b.iter_with_setup(
                || scratch_dir("log"),
                |dir| {
                    let r = run_durable_voter(&dir, votes, group);
                    std::fs::remove_dir_all(dir).ok();
                    r
                },
            )
        });
    }
    g.finish();
}

fn recovery_time(c: &mut Criterion) {
    let mut g = c.benchmark_group("e6_recovery");
    g.sample_size(if smoke() { 2 } else { 10 });

    let sizes: &[usize] = if smoke() { &[200] } else { &[200, 1000] };
    for &n in sizes {
        g.bench_function(BenchmarkId::new("replay_votes", n), |b| {
            b.iter_with_setup(
                || scratch_dir("rec"),
                |dir| {
                    let (secs, ok) = exp_e6_recovery(&dir, n);
                    assert!(ok, "recovered state must match");
                    std::fs::remove_dir_all(dir).ok();
                    secs
                },
            )
        });
    }
    g.finish();
}

criterion_group!(benches, logging_overhead, recovery_time);
criterion_main!(benches);
