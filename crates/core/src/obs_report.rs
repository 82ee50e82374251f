//! The structured telemetry export layer: [`Cluster::observability_report`]
//! assembles everything the `sstore_common::obs` substrate recorded —
//! per-stage dataflow latency histograms, registry counters and gauges,
//! named phase timers (recovery breakdown), the K slowest batch
//! timelines — together with a [`ClusterMetrics`] capture into one
//! plain-data [`ObsReport`], which [`ObsReport::to_json`] renders as the
//! JSON document benches and the CI observability smoke step dump.
//!
//! # Report window
//!
//! Stage histograms and trace spans are **windowed to this cluster**: a
//! baseline snapshot is captured when the cluster is built and
//! subtracted at report time ([`HistogramSnapshot::since`]), so several
//! clusters in one process (tests, benches) each report only their own
//! traffic. Registry counters, gauges, and phase histograms are
//! **process-wide absolutes** — deliberately, because this cluster's
//! own recovery phases run *before* its baseline exists and would
//! vanish from a windowed view.
//!
//! # Reconciliation
//!
//! With tracing on, every border batch this cluster logged records
//! exactly one `logged` stage passage, so in a single-cluster process
//! `stages["logged"].count` equals the cluster-wide
//! `batches_submitted` total of durable partitions (the standalone
//! `obs_report` smoke binary asserts this).

use crate::cluster::{Cluster, PartitionHealth};
use crate::coordinator::CoordStats;
use crate::metrics::{ClusterMetrics, PartitionMetrics};
use sstore_common::obs::{self, HistogramReport, HistogramSnapshot, SpanStage, TraceSpan, STAGES};
use sstore_common::{PartitionId, RowMetrics};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// How many of the slowest batch timelines a report embeds.
pub const SLOWEST_SPANS: usize = 8;

/// Observability state at cluster construction, subtracted from
/// process-wide totals at report time so a report is windowed to one
/// cluster's lifetime.
pub struct ObsBaseline {
    /// One snapshot per [`STAGES`] entry, in stage order.
    stages: Vec<HistogramSnapshot>,
    /// Traces minted before this id belong to earlier clusters.
    first_trace: u64,
    /// Construction instant (report `uptime_s` window).
    started: Instant,
}

impl ObsBaseline {
    /// Snapshot the current stage histograms and trace horizon.
    pub fn capture() -> ObsBaseline {
        ObsBaseline {
            stages: STAGES.iter().map(|s| obs::stage_snapshot(*s)).collect(),
            first_trace: obs::next_trace_id(),
            started: Instant::now(),
        }
    }
}

/// The exported telemetry document. Everything is plain data; the
/// schema is stable across runs (every key below is always present).
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Seconds from cluster construction to this report.
    pub uptime_s: f64,
    /// Committed TEs per second over the report window.
    pub committed_per_s: f64,
    /// Load imbalance across available partitions
    /// ([`ClusterMetrics::skew`]).
    pub skew: f64,
    /// Per-stage cumulative-since-submit latency histograms for traffic
    /// submitted through this cluster (`routed`, `queued`, `logged`,
    /// `executed`, `fsynced`, `prepared`, `decided`, `forwarded`,
    /// `acked`). Because each stage records time since submit, reading
    /// the p95 column down the pipeline gives a latency waterfall.
    pub stages: BTreeMap<String, HistogramReport>,
    /// Process-wide named counters (`log.warn`, …).
    pub counters: BTreeMap<String, u64>,
    /// Process-wide named gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Process-wide named phase timers (`recovery.base_image`,
    /// `recovery.delta_apply`, `recovery.log_replay`,
    /// `recovery.parallel_join`, …), one histogram each.
    pub phases: BTreeMap<String, HistogramReport>,
    /// The standard metrics capture (per-partition counters, health,
    /// coordinator stats, sheds, restarts), embedded verbatim so the
    /// report is the superset surface.
    pub metrics: ClusterMetrics,
    /// The slowest batch timelines observed in the trace rings since
    /// this cluster was built, slowest first (at most
    /// [`SLOWEST_SPANS`]).
    pub slowest_batches: Vec<TraceSpan>,
    /// Trace-ring events overwritten process-wide: non-zero means the
    /// slowest-batch list may miss older batches (raise
    /// `SSTORE_TRACE_RING`).
    pub trace_ring_overwrites: u64,
}

impl ObsReport {
    /// Render as one compact JSON object. Struct fields appear in
    /// declaration order under their Rust names, map keys in sorted
    /// order, [`PartitionHealth`] as its variant name, and non-finite
    /// floats as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// A value the report's JSON printer can render.
trait Json {
    fn write_json(&self, out: &mut String);
}

/// Write `items` comma-separated inside `brackets`, each after its key
/// when it has one (an object member) and bare otherwise (an array item).
fn seq<'a, I>(out: &mut String, brackets: [char; 2], items: I)
where
    I: IntoIterator<Item = (Option<&'a str>, &'a dyn Json)>,
{
    out.push(brackets[0]);
    for (i, (key, value)) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(key) = key {
            key.write_json(out);
            out.push(':');
        }
        value.write_json(out);
    }
    out.push(brackets[1]);
}

impl Json for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// Shortest round-tripping form, with `.0` added to an integral value so
/// it still reads back as a float.
impl Json for f64 {
    fn write_json(&self, out: &mut String) {
        if !self.is_finite() {
            out.push_str("null");
            return;
        }
        let start = out.len();
        let _ = write!(out, "{self}");
        if !out[start..].contains('.') {
            out.push_str(".0");
        }
    }
}

macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
json_display!(u64, i64, bool);

impl Json for PartitionId {
    fn write_json(&self, out: &mut String) {
        u64::from(self.raw()).write_json(out);
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        seq(out, ['[', ']'], self.iter().map(|v| (None, v as &dyn Json)));
    }
}

impl<T: Json> Json for BTreeMap<String, T> {
    fn write_json(&self, out: &mut String) {
        let members = self.iter().map(|(k, v)| (Some(k.as_str()), v as &dyn Json));
        seq(out, ['{', '}'], members);
    }
}

/// Implement [`Json`] for plain structs as an object of the listed
/// fields, in order. The destructuring pattern has no `..`, so a field
/// added to one of these structs fails to compile until it is listed.
macro_rules! json_object {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Json for $ty {
            fn write_json(&self, out: &mut String) {
                let $ty { $($field),* } = self;
                seq(out, ['{', '}'], [$((Some(stringify!($field)), $field as &dyn Json)),*]);
            }
        }
    )*};
}

json_object! {
    ObsReport {
        uptime_s, committed_per_s, skew, stages, counters, gauges, phases, metrics,
        slowest_batches, trace_ring_overwrites,
    }
    HistogramReport { count, mean_us, p50_us, p95_us, p99_us, max_us }
    ClusterMetrics { partitions, rows, coordinator, health, sheds, worker_restarts }
    PartitionMetrics {
        partition, committed, batches_submitted, batches_completed, group_submissions,
        batches_coalesced, client_pe_trips, twopc_prepares, twopc_commits, twopc_aborts,
        forwards_out, forwards_in, forwards_deduped, speculative_tes, snapshots_full,
        snapshots_delta, mean_latency_us, available,
    }
    RowMetrics { shares, deep_copies, cow_breaks }
    CoordStats {
        single_partition_fast_path, multi_partition_txns, prepares_sent, commits, aborts,
        log_compactions,
    }
    TraceSpan { trace, total_us, stages }
    SpanStage { stage, at_us }
}

/// The variant's name, which is what `Debug` prints for a unit variant.
impl Json for PartitionHealth {
    fn write_json(&self, out: &mut String) {
        format!("{self:?}").write_json(out);
    }
}

impl Cluster {
    /// Assemble the full telemetry export: per-stage dataflow latency
    /// since this cluster was built, registry counters/gauges/phase
    /// timers, a [`ClusterMetrics`] capture, and the slowest batch
    /// timelines. See the [module docs](self) for windowing semantics.
    pub fn observability_report(&self) -> ObsReport {
        let metrics = self.metrics();
        let uptime_s = self.obs_baseline.started.elapsed().as_secs_f64();
        let committed_per_s = if uptime_s > 0.0 {
            metrics.total_committed() as f64 / uptime_s
        } else {
            0.0
        };
        let mut stages = BTreeMap::new();
        for (stage, baseline) in STAGES.iter().zip(&self.obs_baseline.stages) {
            let delta = obs::stage_snapshot(*stage).since(baseline);
            stages.insert(stage.name().to_string(), delta.report());
        }
        let registry = obs::registry_snapshot();
        ObsReport {
            uptime_s,
            committed_per_s,
            skew: metrics.skew(),
            stages,
            counters: registry.counters,
            gauges: registry.gauges,
            phases: registry
                .histograms
                .into_iter()
                .map(|(name, h)| (name, h.report()))
                .collect(),
            metrics,
            slowest_batches: obs::slowest_spans(SLOWEST_SPANS, self.obs_baseline.first_trace),
            trace_ring_overwrites: obs::collect_events().1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed report exercising every rendering rule: integral,
    /// fractional, tiny, huge, negative-zero and non-finite floats; names
    /// with quotes, backslashes and control characters; empty and
    /// multi-entry maps; every health variant.
    fn golden_report() -> ObsReport {
        let hist = |count, mean_us, p50_us, p95_us, p99_us, max_us| HistogramReport {
            count,
            mean_us,
            p50_us,
            p95_us,
            p99_us,
            max_us,
        };
        let partition = |id, committed, mean_latency_us, available| PartitionMetrics {
            committed,
            batches_submitted: 11,
            batches_completed: 10,
            group_submissions: 3,
            batches_coalesced: 4,
            client_pe_trips: 5,
            twopc_prepares: 6,
            twopc_commits: 7,
            twopc_aborts: 8,
            forwards_out: 9,
            forwards_in: 10,
            forwards_deduped: 1,
            speculative_tes: 2,
            snapshots_full: 3,
            snapshots_delta: 4,
            mean_latency_us,
            available,
            ..PartitionMetrics::unavailable(PartitionId::new(id))
        };
        ObsReport {
            uptime_s: 12.0,
            committed_per_s: f64::NAN,
            skew: f64::INFINITY,
            stages: BTreeMap::from([
                ("acked".to_string(), hist(3, 1.5, 0.1, 1e-7, 1e21, 4.5e22)),
                ("routed".to_string(), HistogramReport::default()),
                (
                    "q\"uote\\d".to_string(),
                    hist(0, -0.0, f64::NEG_INFINITY, 2.5e-9, 123456.789, 7.0),
                ),
            ]),
            counters: BTreeMap::from([
                ("log.warn".to_string(), 7),
                ("max".to_string(), u64::MAX),
                ("tab\tnew\nret\r\u{1}\u{1f}é".to_string(), 0),
            ]),
            gauges: BTreeMap::from([("min".to_string(), i64::MIN), ("neg".to_string(), -5)]),
            phases: BTreeMap::new(),
            metrics: ClusterMetrics {
                partitions: vec![
                    partition(0, 100, 0.25, true),
                    partition(1, 0, f64::NAN, false),
                ],
                rows: RowMetrics {
                    shares: 1,
                    deep_copies: 2,
                    cow_breaks: 3,
                },
                coordinator: CoordStats {
                    single_partition_fast_path: 1,
                    multi_partition_txns: 2,
                    prepares_sent: 3,
                    commits: 4,
                    aborts: 5,
                    log_compactions: 6,
                },
                health: vec![
                    PartitionHealth::Healthy,
                    PartitionHealth::Restarting,
                    PartitionHealth::Down,
                ],
                sheds: 0,
                worker_restarts: 42,
            },
            slowest_batches: vec![
                TraceSpan {
                    trace: 9,
                    total_us: 1000.0,
                    stages: vec![
                        SpanStage {
                            stage: "routed".to_string(),
                            at_us: 0.0,
                        },
                        SpanStage {
                            stage: "a\u{7f}\"b".to_string(),
                            at_us: 999.999,
                        },
                    ],
                },
                TraceSpan {
                    trace: 10,
                    total_us: f64::NAN,
                    stages: Vec::new(),
                },
            ],
            trace_ring_overwrites: 3,
        }
    }

    /// `golden_report` as the derive-based serializer this printer
    /// replaced rendered it: readers of the report see the same bytes.
    const GOLDEN: &str = concat!(
        r#"{"uptime_s":12.0,"committed_per_s":null,"skew":null,"stages":{"acked":{"count":3,"#,
        r#""mean_us":1.5,"p50_us":0.1,"p95_us":0.0000001,"p99_us":1000000000000000000000.0,"#,
        r#""max_us":45000000000000000000000.0},"q\"uote\\d":{"count":0,"mean_us":-0.0,"#,
        r#""p50_us":null,"p95_us":0.0000000025,"p99_us":123456.789,"max_us":7.0},"#,
        r#""routed":{"count":0,"mean_us":0.0,"p50_us":0.0,"p95_us":0.0,"p99_us":0.0,"#,
        r#""max_us":0.0}},"counters":{"log.warn":7,"max":18446744073709551615,"#,
        r#""tab\tnew\nret\r\u0001\u001fé":0},"gauges":{"min":-9223372036854775808,"#,
        r#""neg":-5},"phases":{},"metrics":{"partitions":[{"partition":0,"#,
        r#""committed":100,"batches_submitted":11,"batches_completed":10,"#,
        r#""group_submissions":3,"batches_coalesced":4,"client_pe_trips":5,"#,
        r#""twopc_prepares":6,"twopc_commits":7,"twopc_aborts":8,"forwards_out":9,"#,
        r#""forwards_in":10,"forwards_deduped":1,"speculative_tes":2,"snapshots_full":3,"#,
        r#""snapshots_delta":4,"mean_latency_us":0.25,"available":true},"#,
        r#"{"partition":1,"committed":0,"batches_submitted":11,"batches_completed":10,"#,
        r#""group_submissions":3,"batches_coalesced":4,"client_pe_trips":5,"#,
        r#""twopc_prepares":6,"twopc_commits":7,"twopc_aborts":8,"forwards_out":9,"#,
        r#""forwards_in":10,"forwards_deduped":1,"speculative_tes":2,"snapshots_full":3,"#,
        r#""snapshots_delta":4,"mean_latency_us":null,"available":false}],"#,
        r#""rows":{"shares":1,"deep_copies":2,"cow_breaks":3},"coordinator":{"single_partition_fast_path":1,"#,
        r#""multi_partition_txns":2,"prepares_sent":3,"commits":4,"aborts":5,"#,
        r#""log_compactions":6},"health":["Healthy","Restarting","Down"],"#,
        r#""sheds":0,"worker_restarts":42},"slowest_batches":[{"trace":9,"#,
        r#""total_us":1000.0,"stages":[{"stage":"routed","at_us":0.0},{"stage":"a"#,
        "\u{7f}",
        r#"\"b","#,
        r#""at_us":999.999}]},{"trace":10,"total_us":null,"stages":[]}],"#,
        r#""trace_ring_overwrites":3}"#,
    );

    #[test]
    fn report_json_matches_golden_bytes() {
        assert_eq!(golden_report().to_json(), GOLDEN);
    }
}
