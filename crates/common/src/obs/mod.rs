//! `sstore_obs` — the observability substrate.
//!
//! Four cooperating pieces, all safe on hot paths:
//!
//! * **[`hist`]** — log-bucketed concurrent latency [`Histogram`]s:
//!   O(1) wait-free `record`, mergeable [`HistogramSnapshot`]s, p50/p95/
//!   p99/max with ≤ ~3% relative error.
//! * **[`registry`]** — a process-wide named-metric registry: sharded
//!   cache-padded [`Counter`]s, [`Gauge`]s, and named histograms.
//!   Registration is the cold path; recording is relaxed atomics only.
//! * **[`trace`]** — batch lifecycle tracing: a [`TraceCtx`] minted at
//!   submission and threaded through the pipeline, per-[`Stage`]
//!   cumulative-latency histograms, and bounded per-thread [`Ring`]
//!   buffers of timestamped events from which [`slowest_spans`]
//!   reconstructs the slowest batches' timelines.
//! * **[`log`]** — structured leveled logging via the
//!   [`slog!`](crate::slog) macro, filtered by `SSTORE_LOG`.
//!
//! The cluster layer assembles all of it into
//! `Cluster::observability_report()` (see `sstore-core`), a plain-data
//! report that renders itself as one JSON document for benches and CI
//! to dump as artifacts.
//!
//! # Environment
//!
//! | Variable            | Effect                                          |
//! |---------------------|-------------------------------------------------|
//! | `SSTORE_LOG`        | max log level: `error`\|`warn`\|`info`\|`debug` (default `warn`) |
//! | `SSTORE_TRACE`      | `off`/`0` disables stage tracing (default on)   |
//! | `SSTORE_TRACE_RING` | per-thread trace ring capacity (default 4096)   |

pub mod hist;
pub mod log;
pub mod registry;
pub mod trace;

pub use hist::{Histogram, HistogramReport, HistogramSnapshot};
pub use log::{log_enabled, log_event, set_max_level, Level};
pub use registry::{
    counter, gauge, histogram, record_phase_ns, registry_snapshot, timed_phase, Counter, Gauge,
    RegistrySnapshot,
};
pub use trace::{
    collect_events, enabled, next_trace_id, now_ns, record, set_enabled, slowest_spans,
    stage_snapshot, Ring, SpanStage, Stage, TraceCtx, TraceEvent, TraceSpan, STAGES,
};
