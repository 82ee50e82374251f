//! The benchmark's vocabulary: the four workloads and every metric name,
//! with unit, direction, regression bound (end-to-end only) and the
//! workloads that measure it. `BENCHMARK.json` is generated from these
//! tables (`bench manifest`), and a test keeps the committed file equal
//! to them, so a name printed here is a name the driver knows.

use std::fmt::Write as _;

/// One set of inputs the benchmark runs. Names are fixed: later issues
/// refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Voter with Leaderboard on one in-memory partition.
    Voter1p,
    /// Durable routed ingest on a 2-partition cluster.
    IngestDurable2p,
    /// 2PC batches plus a cross-partition workflow edge on 2 partitions.
    Xpart2p,
    /// Read shapes beside a write stream on one in-memory partition.
    QueryMix1p,
}

use Workload::{IngestDurable2p as I, QueryMix1p as Q, Voter1p as V, Xpart2p as X};

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [V, I, X, Q];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            V => "voter_1p",
            I => "ingest_durable_2p",
            X => "xpart_2p",
            Q => "query_mix_1p",
        }
    }

    /// One line on why the workload exists (goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            V => "the paper's Voter with Leaderboard, closed loop on one in-memory partition: scheduler, PE/EE triggers, windows, row SQL, index and undo carry the cost; core, log, 2PC and vexec are bypassed",
            I => "durable 64-row batches routed over a 2-partition cluster, saturated closed loop then a paced open loop: router, ingest queues, tickets, coalescing, log append and fsync carry the cost; 2PC is bypassed",
            X => "atomic 2PC batches plus two-stage batches hopping a cross-partition edge, 4 in flight: coordinator, prepare/decide logging, forward hub and edge dedupe carry the cost",
            Q => "six read shapes over a 256k-row table beside a write batch per round: planner, vexec, vector kernels and column_batch carry the cost; core, log and triggers are bypassed",
        }
    }

    /// Parse a fixed name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

use Better::{Higher as Hi, Lower as Lo};

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, in the manifest's unit grammar (`us` stands for µs).
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics carry 0 and are not gated).
    pub bound: f64,
    /// Workloads that measure it. Every other workload prints 0 for it:
    /// the layer is not exercised there, or the measurement is
    /// workload-independent and taken once.
    pub owners: &'static [Workload],
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        owners: &Workload::ALL,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    owners: &'static [Workload],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        owners,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these on an untraced run. A bound is max(5 %, 2 × the spread measured
/// on the noisiest workload), capped at the 25 % the driver allows; the
/// measurements are in README.md.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_ops_s", "ops/s", Hi, 0.25),
    e2e("latency_p50_us", "us", Lo, 0.25),
    e2e("peak_rss_mb", "MB", Lo, 0.20),
    e2e("setup_s", "s", Lo, 0.25),
];

const ALL: &[Workload] = &Workload::ALL;

/// Single-layer metrics, measured on the traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end quantities only some workloads have (or that may be 0),
    // which the manifest therefore cannot gate; see README.md.
    layer("failed_share", "share", Lo, ALL),
    // Not on `query_mix_1p`: a round takes 0.3 s, a run has some 50 of
    // them, and a p95 needs 200 for ten samples beyond it.
    layer("latency_p95_us", "us", Lo, &[V, I, X]),
    layer("latency_p99_us", "us", Lo, &[V, I, X]),
    layer("write_latency_p50_us", "us", Lo, &[Q]),
    layer("recovery_ms", "ms", Lo, &[I]),
    layer("disk_bytes_per_row", "B/row", Lo, &[I, X]),
    // The layer ladder: one fixed input reached through one more layer
    // per rung, all eight in one process (`ladder::OWNER`).
    layer("ladder.storage.us_per_batch", "us", Lo, &[X]),
    layer("ladder.sql.us_per_batch", "us", Lo, &[X]),
    layer("ladder.engine.us_per_batch", "us", Lo, &[X]),
    layer("ladder.txn.us_per_batch", "us", Lo, &[X]),
    layer("ladder.txn_log.us_per_batch", "us", Lo, &[X]),
    layer("ladder.core.us_per_batch", "us", Lo, &[X]),
    layer("ladder.core_2pc.us_per_batch", "us", Lo, &[X]),
    layer("ladder.core_edge.us_per_batch", "us", Lo, &[X]),
    // storage
    layer("storage.pk_lookup_ns", "ns", Lo, &[V]),
    layer("storage.insert_ns", "ns", Lo, &[V]),
    layer("storage.update_ns", "ns", Lo, &[V]),
    layer("storage.undo_rollback_ns", "ns", Lo, &[V]),
    layer("storage.column_batch_ms", "ms", Lo, &[Q]),
    layer("storage.snapshot_full_ms", "ms", Lo, &[I]),
    layer("storage.snapshot_delta_ms", "ms", Lo, &[I]),
    layer("storage.snapshot_read_ms", "ms", Lo, &[I]),
    layer("storage.snapshot_bytes_per_row", "B/row", Lo, &[I]),
    // sql / vector
    layer("sql.prepare_us", "us", Lo, &[V]),
    layer("sql.exec_point_get_ns", "ns", Lo, &[V]),
    layer("sql.exec_point_update_ns", "ns", Lo, &[V]),
    layer("sql.exec_insert_ns", "ns", Lo, &[V]),
    layer("sql.q_scan_agg_ms", "ms", Lo, &[Q]),
    layer("sql.q_group_agg_ms", "ms", Lo, &[Q]),
    layer("sql.q_join_ms", "ms", Lo, &[Q]),
    layer("sql.q_text_filter_ms", "ms", Lo, &[Q]),
    layer("sql.q_window_agg_us", "us", Lo, &[Q]),
    layer("sql.q_point_us", "us", Lo, &[Q]),
    layer("sql.row_path_scan_agg_ms", "ms", Lo, &[Q]),
    layer("vector.scan_agg_net_ms", "ms", Lo, &[Q]),
    // engine
    layer("engine.stream_append_ns", "ns", Lo, &[V]),
    layer("engine.window_insert_ns", "ns", Lo, &[V]),
    layer("engine.window_slide_trigger_ns", "ns", Lo, &[V]),
    layer("engine.gc_stream_ns_per_row", "ns", Lo, &[V]),
    layer("engine.pe_ee_trips_per_op", "count", Lo, &[V]),
    layer("engine.statements_per_op", "count", Lo, &[V]),
    // txn
    layer("txn.submit_batch_us", "us", Lo, &[V]),
    layer("txn.te_p50_us", "us", Lo, &[V]),
    layer("txn.pe_trigger_firings_per_op", "count", Lo, &[V]),
    layer("txn.abort_share", "share", Lo, &[V]),
    layer("txn.log.encode_ns_per_row", "ns", Lo, &[I]),
    layer("txn.log.append_ns_per_row", "ns", Lo, &[I]),
    layer("txn.log.sync_us", "us", Lo, &[I]),
    layer("txn.log.syncs_per_op", "count", Lo, &[I, X]),
    layer("txn.log.bytes_per_row", "B/row", Lo, &[I]),
    layer("txn.log.decode_ns_per_row", "ns", Lo, &[I]),
    layer("txn.recover_replay_us_per_batch", "us", Lo, &[I]),
    // core
    layer("core.route_ns_per_row", "ns", Lo, &[I]),
    layer("core.queue_handoff_us", "us", Lo, &[I]),
    layer("core.submit_call_us", "us", Lo, &[I]),
    layer("core.ticket_wait_us", "us", Lo, &[I]),
    layer("core.coalesced_share", "share", Hi, &[I]),
    layer("core.skew", "share", Lo, &[I]),
    layer("core.twopc_us_per_txn", "us", Lo, &[X]),
    layer("core.edge_forward_us", "us", Lo, &[X]),
    layer("core.rate_lo.p95_us", "us", Lo, &[I]),
    layer("core.rate_hi.p95_us", "us", Lo, &[I]),
    layer("core.rate_mid.p99_us", "us", Lo, &[I]),
    layer("core.sustained_rate_ops_s", "ops/s", Hi, &[I]),
    layer("core.overload.shed_share", "share", Lo, &[I]),
    layer("core.overload.admitted_p95_us", "us", Lo, &[I]),
    // core: the nine-stage waterfall, cumulative since submit.
    layer("core.stage.routed_p50_us", "us", Lo, &[I]),
    layer("core.stage.routed_p95_us", "us", Lo, &[I]),
    layer("core.stage.queued_p50_us", "us", Lo, &[I]),
    layer("core.stage.queued_p95_us", "us", Lo, &[I]),
    layer("core.stage.logged_p50_us", "us", Lo, &[I]),
    layer("core.stage.logged_p95_us", "us", Lo, &[I]),
    layer("core.stage.executed_p50_us", "us", Lo, &[I]),
    layer("core.stage.executed_p95_us", "us", Lo, &[I]),
    layer("core.stage.fsynced_p50_us", "us", Lo, &[I]),
    layer("core.stage.fsynced_p95_us", "us", Lo, &[I]),
    layer("core.stage.prepared_p50_us", "us", Lo, &[X]),
    layer("core.stage.prepared_p95_us", "us", Lo, &[X]),
    layer("core.stage.decided_p50_us", "us", Lo, &[X]),
    layer("core.stage.decided_p95_us", "us", Lo, &[X]),
    layer("core.stage.forwarded_p50_us", "us", Lo, &[X]),
    layer("core.stage.forwarded_p95_us", "us", Lo, &[X]),
    layer("core.stage.acked_p50_us", "us", Lo, &[X]),
    layer("core.stage.acked_p95_us", "us", Lo, &[X]),
    // common / obs / generator
    layer("common.row.deep_copies_per_op", "count", Lo, ALL),
    layer("common.row.cow_breaks_per_op", "count", Lo, ALL),
    layer("obs.trace_overhead_share", "share", Lo, &[I, X]),
    layer("gen.lateness_p95_us", "us", Lo, &[I]),
    layer("gen.lateness_share", "share", Lo, &[I]),
];

/// Counts that must repeat exactly between two runs of the same seed,
/// with the workloads on which they do (`bench aa` checks identity, not a
/// bound). Row-sharing counts are exact only where one thread runs: on a
/// cluster, whether an update finds its row shared depends on where the
/// retention snapshot fell among the coalesced groups.
pub const EXACT_COUNTS: &[(&str, &[Workload])] = &[
    ("disk_bytes_per_row", &[I, X]),
    ("engine.pe_ee_trips_per_op", &[V]),
    ("engine.statements_per_op", &[V]),
    ("txn.pe_trigger_firings_per_op", &[V]),
    ("common.row.deep_copies_per_op", &[V, Q]),
    ("common.row.cow_breaks_per_op", &[V, Q]),
];

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 15;

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn better_str(b: Better) -> &'static str {
    match b {
        Hi => "higher",
        Lo => "lower",
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"crates/bench/src/bin/bench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/bench/src/bin/bench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_str(w.name()),
            json_str(w.why()),
            if i + 1 < Workload::ALL.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(better_str(m.better)),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(better_str(m.better)),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grammar_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_follow_the_manifest_grammar() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(grammar_ok(m.name, 64, "_.-"), "name {}", m.name);
            assert!(
                m.name.chars().next().unwrap().is_ascii_alphanumeric(),
                "name {} must start with a letter or digit",
                m.name
            );
            assert!(grammar_ok(m.unit, 16, "_/%.-"), "unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(!m.owners.is_empty(), "{} has no owner", m.name);
        }
        for w in Workload::ALL {
            assert!(grammar_ok(w.name(), 64, "_.-"));
            assert!(seen.insert(w.name()), "name {} used twice", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lo));
        for (name, on) in EXACT_COUNTS {
            let def = find(name).expect("an exact count is a metric");
            assert!(on.iter().all(|w| def.owners.contains(w)), "{name}");
        }
        assert!(manifest().len() < 64 * 1024);
    }

    /// The committed `BENCHMARK.json` is exactly what `bench manifest`
    /// prints. Looked up from the working directory upwards: `cargo test`
    /// runs in this directory, the file is at the root of the repository.
    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let mut dir = std::env::current_dir().expect("cwd");
        let path = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.is_file() {
                break candidate;
            }
            assert!(dir.pop(), "no BENCHMARK.json above the working directory");
        };
        let on_disk = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        assert_eq!(
            on_disk,
            manifest(),
            "{} is stale: regenerate it with `bench manifest`",
            path.display()
        );
    }
}
