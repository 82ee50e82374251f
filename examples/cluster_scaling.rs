//! Shared-nothing scaling on the persistent partition runtime: the same
//! partitionable stream workload on 1, 2, 4, and 8 partitions, blocking
//! vs async (ticketed) ingest. Each partition is a long-lived worker
//! thread running the paper's single-sited serial discipline and draining
//! a bounded ingest queue in submission order; the router shards each
//! border batch by the declared partition-key column. Partition workers
//! are CPU-bound threads, so the speedup column cannot exceed the host's
//! core count; past it, more partitions only add routing and hand-off.
//!
//! Run with: `cargo run --release --example cluster_scaling`

use sstore_core::common::{Result, Row, Value};
use sstore_core::{Cluster, ProcSpec, SStore, SStoreBuilder};
use std::time::Instant;

fn deploy(db: &mut SStore) -> Result<()> {
    db.ddl("CREATE STREAM meter (household INT, watts INT)")?;
    db.ddl(
        "CREATE TABLE usage_totals (household INT NOT NULL, readings INT NOT NULL, \
         watts_total INT NOT NULL, PRIMARY KEY (household))",
    )?;
    db.register(
        ProcSpec::new("meter_ingest", |ctx| {
            for row in ctx.input().rows.clone() {
                let household = row[0].clone();
                let watts = row[1].clone();
                let seen = ctx.exec("get", std::slice::from_ref(&household))?;
                if seen.rows.is_empty() {
                    ctx.exec("init", &[household, watts])?;
                } else {
                    ctx.exec("bump", &[watts, household])?;
                }
            }
            Ok(())
        })
        .consumes("meter")
        .stmt(
            "get",
            "SELECT household FROM usage_totals WHERE household = ?",
        )
        .stmt("init", "INSERT INTO usage_totals VALUES (?, 1, ?)")
        .stmt(
            "bump",
            "UPDATE usage_totals SET readings = readings + 1, watts_total = watts_total + ? \
             WHERE household = ?",
        ),
    )?;
    Ok(())
}

fn workload(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int((i % 10_000) as i64),
                Value::Int(100 + (i % 900) as i64),
            ])
        })
        .collect()
}

fn main() -> Result<()> {
    const READINGS: usize = 100_000;
    const BATCH: usize = 500;
    println!("smart-meter ingestion: {READINGS} readings, batches of {BATCH}\n");
    println!("partitions | ingest | wall ms | readings/s | speedup | coalesced");

    let mut base = 0.0f64;
    for n in [1usize, 2, 4, 8] {
        for asynchronous in [false, true] {
            let builder = SStoreBuilder::new();
            let cluster = Cluster::new(n, &builder, deploy)?;
            let rows = workload(READINGS);
            let t0 = Instant::now();
            if asynchronous {
                // Pipelined: enqueue everything, then resolve the tickets.
                let mut tickets = Vec::new();
                for chunk in rows.chunks(BATCH) {
                    tickets.push(cluster.submit_batch_async("meter_ingest", chunk.to_vec())?);
                }
                for t in tickets {
                    t.wait()?;
                }
            } else {
                // Blocking: one submission at a time.
                for chunk in rows.chunks(BATCH) {
                    cluster.submit_batch_partitioned("meter_ingest", chunk.to_vec(), 0)?;
                }
            }
            let secs = t0.elapsed().as_secs_f64();
            if n == 1 && !asynchronous {
                base = secs;
            }
            println!(
                "{:>10} | {:>6} | {:>7.1} | {:>10.0} | {:>6.2}x | {:>9}",
                n,
                if asynchronous { "async" } else { "sync" },
                secs * 1e3,
                READINGS as f64 / secs,
                base / secs,
                cluster.metrics().total_coalesced(),
            );
            // Sanity: every reading landed exactly once.
            let total: i64 = cluster
                .query_all("SELECT SUM(readings) FROM usage_totals", &[])?
                .iter()
                .map(|r| r[0].as_int().unwrap_or(0))
                .sum();
            assert_eq!(total, READINGS as i64);
        }
    }
    println!(
        "\n(each partition worker is single-sited and serial, per the paper; the\n          runtime runs partitions in parallel up to the host's core count, and\n          async ingest lets workers coalesce queued batches into one scheduler\n          pass — the PE-boundary saving)"
    );
    Ok(())
}
