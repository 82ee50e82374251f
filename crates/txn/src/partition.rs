//! The partition executor — S-Store's stream-oriented transaction model.
//!
//! One [`Partition`] owns an [`ExecutionEngine`], a procedure registry, the
//! derived [`Workflow`], the command log, and the scheduling queue. The
//! paper demos the single-sited case; this is that site.
//!
//! **Scheduling invariants** (paper §2):
//! 1. *TE order*: the i-th TE of procedure SPk precedes its (i+1)-th —
//!    guaranteed because batches enter each procedure's pipeline in batch-id
//!    order and the queue is FIFO per procedure.
//! 2. *Workflow order*: for a given batch, upstream TEs commit before
//!    downstream TEs are even scheduled (PE triggers fire at commit).
//! 3. *Serial workflows*: when procedures share writable tables, the whole
//!    workflow for batch *b* runs before any TE of batch *b+1* (downstream
//!    work is scheduled ahead of queued border batches).
//!
//! **H-Store mode** disables PE triggers and workflow awareness: every
//! invocation comes from the client and executes in arrival order. That is
//! the paper's baseline; §3.1's anomalies come precisely from the client's
//! delayed polling racing with new input.

use crate::log::{CommandLog, LogConfig, LogRecord, LogRetention};
use crate::procedure::{stmt_effects, ProcContext, ProcSpec, Procedure};
use crate::stats::PeStats;
use crate::transaction::{Invocation, TxnOutcome, TxnStatus};
use crate::workflow::{CrossEdge, Workflow};
use sstore_common::fault;
use sstore_common::obs::{self, Stage, TraceCtx};
use sstore_common::{
    Batch, BatchId, Clock, Error, PartitionId, ProcId, Result, Row, TableId, TxnId, Value,
};
use sstore_engine::{ExecutionEngine, TxnScratch};
use sstore_sql::exec::QueryResult;
use sstore_storage::snapshot::{Snapshot, SnapshotDelta, SnapshotKey};
use std::collections::{HashMap, VecDeque};

/// A fragment of a multi-sited transaction, executed at *prepare* time
/// with its undo log held open until the coordinator's decision arrives.
/// Shared-nothing serial execution means at most one fragment is ever
/// prepared per partition — the worker blocks (deferring queued jobs)
/// between prepare and decide, so no other TE can observe the fragment's
/// uncommitted writes.
struct PreparedFragment {
    /// Coordinator-assigned global transaction id.
    gtid: u64,
    /// Local transaction id consumed by the fragment body.
    txn: TxnId,
    /// Local batch id assigned at prepare.
    batch: BatchId,
    /// The fragmented procedure.
    proc: ProcId,
    /// Wall-clock start, for commit latency accounting.
    start: std::time::Instant,
    /// The open undo log: dropped on commit, applied on abort.
    undo: sstore_storage::UndoLog,
    /// Stream rows the body emitted (released to PE triggers on commit).
    appended: Vec<(TableId, Row)>,
    /// Client response assembled by the body.
    response: Option<QueryResult>,
}

/// One batch bound for another partition over a cross-partition workflow
/// edge. Produced by [`Partition::take_outbox`] after a TE commits onto a
/// declared remote stream; the cluster runtime routes the rows by
/// `key_col` and delivers them as forwarded TEs.
#[derive(Debug, Clone)]
pub struct RemoteForward {
    /// Stream name (stream ids are deployment-deterministic, but names
    /// survive the trip between differently-built partitions).
    pub stream: String,
    /// Visible column routing each row to its owning partition.
    pub key_col: usize,
    /// The emitting partition's batch id (the edge-instance identity,
    /// together with the source partition and stream).
    pub batch: BatchId,
    /// The emitted rows (shared handles — no copies on the way out).
    pub rows: Vec<Row>,
    /// Lifecycle trace of the emitting border batch, when one was
    /// attached at submission (recovery-rebuilt envelopes carry `None`).
    pub trace: Option<TraceCtx>,
}

/// One shard of a cross-partition edge arriving at its receiver — a
/// member of the run [`Partition::accept_forwards`] logs under one sync.
/// `(src_partition, stream, src_batch)` is the edge-instance identity
/// the dedupe keys on.
#[derive(Debug, Clone)]
pub struct InboundForward {
    /// Stream name (see [`RemoteForward::stream`]).
    pub stream: String,
    /// The emitting partition.
    pub src_partition: u32,
    /// The emitting partition's batch id ([`RemoteForward::batch`]).
    pub src_batch: u64,
    /// The rows of this shard.
    pub rows: Vec<Row>,
}

/// A member of an [`Partition::accept_forwards`] run whose `Forward`
/// record is appended and waits for the run's sync.
struct StagedForward {
    /// `(source partition, stream)`: the edge the dedupe keys on.
    key: (u32, String),
    src_batch: u64,
    sid: TableId,
    batch: BatchId,
    rows: Vec<Row>,
    trace: Option<TraceCtx>,
}

/// Which system the partition behaves as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Full S-Store: PE triggers push batches through workflows; scheduling
    /// preserves the stream transaction model's ordering guarantees.
    SStore,
    /// The paper's baseline: no PE triggers, no workflow awareness; the
    /// client drives every invocation (polling), and invocations execute
    /// in client-arrival order.
    HStore,
}

/// Partition configuration.
#[derive(Debug, Clone)]
pub struct PeConfig {
    /// S-Store vs H-Store behaviour.
    pub mode: ExecMode,
    /// This partition's site id (p0 standalone; the cluster runtime
    /// assigns one id per worker so stats and metrics stay attributable).
    pub partition: PartitionId,
    /// Automatic snapshot-then-truncate policy (requires `log`). `None`
    /// leaves truncation manual, as before.
    pub retention: Option<LogRetention>,
    /// Override the serial-workflow decision (None = derive from shared
    /// writable tables, per the paper).
    pub serial_workflow: Option<bool>,
    /// Command logging (None = durability off).
    pub log: Option<LogConfig>,
}

impl Default for PeConfig {
    fn default() -> Self {
        PeConfig {
            mode: ExecMode::SStore,
            partition: PartitionId::new(0),
            retention: None,
            serial_workflow: None,
            log: None,
        }
    }
}

/// One partition: engine + procedures + workflow + scheduler + durability.
///
/// `Debug` prints a summary (procedures hold closures).
pub struct Partition {
    engine: ExecutionEngine,
    procs: Vec<Procedure>,
    by_name: HashMap<String, ProcId>,
    workflow: Workflow,
    clock: Clock,
    log: Option<CommandLog>,
    stats: PeStats,
    config: PeConfig,
    queue: VecDeque<Invocation>,
    next_txn: u64,
    next_batch: u64,
    /// Outstanding TEs per batch (for completion acks).
    batch_refs: HashMap<u64, usize>,
    /// Remaining consumers per (stream, batch) before GC may run.
    gc_pending: HashMap<(TableId, u64), usize>,
    /// Committed TEs since the last snapshot (drives `LogRetention`).
    commits_since_snapshot: u64,
    /// True while replaying the log (suppresses re-logging).
    replaying: bool,
    /// Output rows of the TE that just committed, handed from `run_te` to
    /// `post_te` without cloning.
    pending_outputs: Vec<(TableId, Row)>,
    /// The 2PC fragment currently held between prepare and decision.
    prepared: Option<PreparedFragment>,
    /// True while a verified-disjoint TE runs under early-prepare
    /// speculation ([`Partition::submit_batch_speculative`]) — the one
    /// case `drain` may run with a fragment held.
    speculating: bool,
    /// Declared cross-partition edges by stream name (re-applied to the
    /// workflow whenever it is rebuilt by `register`).
    cross_edges: Vec<(String, usize)>,
    /// Batches emitted onto remote streams, awaiting pickup by the
    /// cluster runtime ([`Partition::take_outbox`]).
    outbox: Vec<RemoteForward>,
    /// Exactly-once dedup state per incoming edge: highest source batch
    /// id already accepted from `(source partition, stream)`.
    edge_high_water: HashMap<(u32, String), u64>,
    /// Incoming edges with an unfilled hole: `(source partition, stream)
    /// → the lowest source batch whose forward was refused` (its log
    /// write failed). The high-water dedupe is sound only if forwards
    /// from a source are accepted in order with no holes — accepting a
    /// *younger* batch after a refusal would advance the mark past the
    /// hole, and the sender's eventual re-forward of the refused batch
    /// would then look like a duplicate and be dropped. Until the hole
    /// is refilled (the refused batch re-forwarded and durably logged),
    /// every younger forward on that edge is refused too; their acks
    /// stay withheld upstream, so recovery re-forwards them in order.
    edge_gaps: HashMap<(u32, String), u64>,
    /// Highest gtid this partition has ever prepared (live or replayed).
    /// The cluster's coordinator resumes *past* every partition's mark so
    /// a recovered cluster can never reuse an in-doubt gtid — reuse would
    /// let a later commit of the recycled id retroactively commit the
    /// old aborted fragment on the next recovery.
    max_gtid_seen: u64,
    /// During recovery: highest batch id the restored snapshot covers.
    /// Replay skips execution of covered batches, so a covered
    /// `ForwardOut` record must rebuild its envelope from the log.
    replay_covered: u64,
    /// Identity of the last snapshot image written or restored (base or
    /// delta); the next delta chains onto it. `None` until the first
    /// image exists.
    last_snapshot_key: Option<SnapshotKey>,
    /// Number of deltas chained onto the current base image.
    snapshot_chain_len: u64,
    /// Set when a durability write failed *after* a commit point (a 2PC
    /// decision record, a post-commit `ForwardOut` emission record): the
    /// failed record was dropped cleanly from the log buffer, but
    /// in-memory state now holds effects the log will never reflect. The
    /// only safe continuation is a rebuild from disk
    /// ([`Self::durability_poisoned`] tells a supervisor to do exactly
    /// that); anything else — including a retention snapshot — would
    /// capture the divergence.
    state_diverged: bool,
    /// Lifecycle traces handed in by [`Partition::push_pending_trace`],
    /// consumed FIFO by the next batch-creating entry points (border
    /// enqueue, 2PC prepare, accepted forward) — order matches batch-id
    /// assignment, including within a coalesced group.
    pending_traces: VecDeque<TraceCtx>,
    /// Live batch id → lifecycle trace, for attributing later stages
    /// (fsync, forward emission, edge ack) back to the submission.
    /// Entries die with the batch's last reference.
    batch_traces: HashMap<u64, TraceCtx>,
    /// Traces whose border/prepare record sits in the group-commit
    /// buffer: flushed to the `Fsynced` stage when a sync covers them.
    unsynced_traces: Vec<TraceCtx>,
}

impl std::fmt::Debug for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Partition")
            .field("mode", &self.config.mode)
            .field("procedures", &self.procs.len())
            .field("next_txn", &self.next_txn)
            .field("next_batch", &self.next_batch)
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl Partition {
    /// Create a partition. Opens the command log when configured.
    pub fn new(config: PeConfig) -> Result<Partition> {
        let log = match &config.log {
            Some(cfg) => Some(CommandLog::open(cfg.clone())?),
            None => None,
        };
        let stats = PeStats {
            partition: config.partition,
            ..PeStats::new()
        };
        Ok(Partition {
            engine: ExecutionEngine::new(),
            procs: Vec::new(),
            by_name: HashMap::new(),
            workflow: Workflow::default(),
            clock: Clock::new(),
            log,
            stats,
            config,
            queue: VecDeque::new(),
            next_txn: 1,
            next_batch: 0,
            batch_refs: HashMap::new(),
            gc_pending: HashMap::new(),
            commits_since_snapshot: 0,
            replaying: false,
            pending_outputs: Vec::new(),
            prepared: None,
            speculating: false,
            cross_edges: Vec::new(),
            outbox: Vec::new(),
            edge_high_water: HashMap::new(),
            edge_gaps: HashMap::new(),
            max_gtid_seen: 0,
            replay_covered: 0,
            last_snapshot_key: None,
            snapshot_chain_len: 0,
            state_diverged: false,
            pending_traces: VecDeque::new(),
            batch_traces: HashMap::new(),
            unsynced_traces: Vec::new(),
        })
    }

    // ---- setup ---------------------------------------------------------------

    /// Run DDL (CREATE TABLE/STREAM/WINDOW).
    pub fn ddl(&mut self, sql: &str) -> Result<TableId> {
        self.engine.ddl_sql(sql)
    }

    /// Create a secondary index.
    pub fn create_index(
        &mut self,
        table: &str,
        name: &str,
        columns: &[&str],
        unique: bool,
    ) -> Result<()> {
        self.engine.create_index(table, name, columns, unique)
    }

    /// Register an EE trigger (delegates to the engine).
    pub fn create_ee_trigger(
        &mut self,
        name: &str,
        on_table: &str,
        event: sstore_engine::TriggerEvent,
        statements: &[&str],
    ) -> Result<()> {
        self.engine
            .create_trigger(name, on_table, event, statements)
    }

    /// Register a stored procedure and rebuild the workflow.
    pub fn register(&mut self, spec: ProcSpec) -> Result<ProcId> {
        if self.by_name.contains_key(&spec.name) {
            return Err(Error::AlreadyExists(format!("procedure `{}`", spec.name)));
        }
        let id = ProcId::new(self.procs.len() as u32);
        let input_stream = spec
            .input_stream
            .as_deref()
            .map(|s| self.engine.db().resolve(s))
            .transpose()?;
        let output_stream = spec
            .output_stream
            .as_deref()
            .map(|s| self.engine.db().resolve(s))
            .transpose()?;
        for s in [input_stream, output_stream].into_iter().flatten() {
            if !self.engine.db().kind(s)?.is_stream() {
                return Err(Error::Constraint(format!(
                    "procedure `{}` endpoint {s} is not a stream",
                    spec.name
                )));
            }
        }
        let mut statements = HashMap::new();
        let mut read_set = std::collections::HashSet::new();
        let mut write_set = std::collections::HashSet::new();
        for (name, sql) in &spec.statements {
            let planned = self.engine.prepare(sql)?;
            let (r, w) = stmt_effects(&planned);
            read_set.extend(r);
            write_set.extend(w);
            if statements.insert(name.clone(), planned).is_some() {
                return Err(Error::AlreadyExists(format!(
                    "statement `{name}` in `{}`",
                    spec.name
                )));
            }
        }
        // Emissions write the output stream.
        if let Some(out) = output_stream {
            write_set.insert(out);
        }
        if let Some(inp) = input_stream {
            read_set.insert(inp);
        }
        for w in &spec.windows {
            self.engine.bind_window_owner(w, id)?;
            let wid = self.engine.db().resolve(w)?;
            read_set.insert(wid);
            write_set.insert(wid);
        }
        self.procs.push(Procedure {
            id,
            name: spec.name.clone(),
            input_stream,
            output_stream,
            statements,
            read_set,
            write_set,
            multi_partition: spec.multi_partition,
            handler: spec.handler,
        });
        self.by_name.insert(spec.name, id);
        self.workflow = Workflow::build(&self.procs)?;
        self.reapply_cross_edges()?;
        Ok(id)
    }

    /// Declare `stream` a cross-partition workflow edge: tuples emitted
    /// onto it are not consumed by this partition's PE triggers but
    /// buffered in the outbox ([`Partition::take_outbox`]) for the
    /// cluster runtime to route by `key_col` to the owning partitions.
    /// Survives workflow rebuilds; redeclaring a stream replaces its
    /// routing column.
    pub fn declare_cross_edge(&mut self, stream: &str, key_col: usize) -> Result<()> {
        let sid = self.engine.db().resolve(stream)?;
        if !self.engine.db().kind(sid)?.is_stream() {
            return Err(Error::Constraint(format!(
                "`{stream}` is not a stream; cross-partition edges ride streams"
            )));
        }
        let arity = self
            .engine
            .db()
            .catalog()
            .meta(sid)
            .map(|m| m.visible_schema.arity())
            .unwrap_or(0);
        if key_col >= arity {
            return Err(Error::Constraint(format!(
                "cross-edge key column {key_col} out of range for `{stream}` (arity {arity})"
            )));
        }
        self.cross_edges.retain(|(s, _)| s != stream);
        self.cross_edges.push((stream.to_string(), key_col));
        self.workflow.declare_remote(CrossEdge {
            stream: sid,
            key_col,
        });
        Ok(())
    }

    /// Re-apply declared cross edges after `Workflow::build` replaced the
    /// graph (registration order and edge declaration order commute).
    fn reapply_cross_edges(&mut self) -> Result<()> {
        for (name, key_col) in self.cross_edges.clone() {
            let sid = self.engine.db().resolve(&name)?;
            self.workflow.declare_remote(CrossEdge {
                stream: sid,
                key_col,
            });
        }
        Ok(())
    }

    // ---- accessors -----------------------------------------------------------

    /// The execution engine (read).
    pub fn engine(&self) -> &ExecutionEngine {
        &self.engine
    }

    /// The execution engine (setup/test mutation — not the txn path).
    pub fn engine_mut(&mut self) -> &mut ExecutionEngine {
        &mut self.engine
    }

    /// Partition counters (an owned snapshot; the row-sharing metrics in
    /// it are process-wide, captured at call time).
    pub fn stats(&self) -> PeStats {
        let mut s = self.stats.clone();
        s.rows = sstore_common::RowMetrics::snapshot();
        s
    }

    /// True when live state and the durable log can no longer be
    /// reconciled in place: either the command log was poisoned by a
    /// failed write rollback (the durable tail is of unknown length), or
    /// a post-commit-point record (2PC decision, emission envelope)
    /// failed to log while its effects are already applied in memory.
    /// The owning worker should take the partition down deliberately and
    /// recover it from disk — replay reconstructs the consistent state,
    /// including re-emitting lost cross-partition envelopes (destination
    /// dedupe keeps them exactly-once).
    pub fn durability_poisoned(&self) -> bool {
        self.state_diverged || self.log.as_ref().is_some_and(|l| l.poisoned())
    }

    /// Reset PE and EE counters (the partition id is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = PeStats {
            partition: self.config.partition,
            ..PeStats::new()
        };
        self.engine.reset_stats();
    }

    /// The logical clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Advance logical time by `micros`.
    pub fn advance_clock(&self, micros: i64) {
        self.clock.advance(micros);
    }

    /// The derived workflow.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// Which system this partition behaves as.
    pub fn mode(&self) -> ExecMode {
        self.config.mode
    }

    /// Resolve a procedure name.
    pub(crate) fn proc_id(&self, name: &str) -> Result<ProcId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::NotFound(format!("procedure `{name}`")))
    }

    /// Run one statement during deployment (seeding reference data).
    /// Commits immediately, is not logged, and must therefore only be used
    /// from deterministic setup code that recovery re-runs identically —
    /// the same contract as DDL.
    pub fn setup_sql(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let mut scratch = TxnScratch::new(None, BatchId::new(0));
        let now = self.clock.now();
        match self.engine.execute_sql(sql, params, &mut scratch, now) {
            Ok(result) => {
                scratch.undo.commit();
                Ok(result)
            }
            Err(e) => {
                // Statement atomicity: a failed statement (e.g. a
                // duplicate key midway through a multi-row INSERT) must
                // leave nothing behind.
                scratch.undo.rollback(self.engine.db_mut())?;
                Err(e)
            }
        }
    }

    /// Run a read-only query outside any transaction (dashboard/test path;
    /// one client↔PE round trip).
    pub fn query(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        self.stats.client_pe_trips += 1;
        let mut scratch = TxnScratch::new(None, BatchId::new(0));
        let now = self.clock.now();
        let result = self.engine.execute_sql(sql, params, &mut scratch, now)?;
        if !scratch.undo.is_empty() {
            // Must stay read-only: roll anything back and refuse.
            scratch.undo.rollback(self.engine.db_mut())?;
            return Err(Error::Txn(
                "query() is read-only; use a procedure for writes".into(),
            ));
        }
        Ok(result)
    }

    // ---- the transaction path -------------------------------------------------

    /// Submit one border input batch (S-Store mode's only client entry
    /// point). Runs the batch through the workflow to completion and
    /// returns every TE outcome, workflow order.
    pub fn submit_batch<R: Into<Row>>(
        &mut self,
        proc: &str,
        rows: Vec<R>,
    ) -> Result<Vec<TxnOutcome>> {
        self.submit_batch_async(proc, rows)?;
        self.run_queued()
    }

    /// Enqueue a border batch without draining (an asynchronous client:
    /// more input arrives before earlier batches finish). Pair with
    /// [`Partition::run_queued`]. With several batches queued, the
    /// scheduling policy becomes observable: serial workflows run
    /// batch-major; pipelined ones let batch *b+1*'s border TE run before
    /// batch *b*'s interior TEs.
    pub fn submit_batch_async<R: Into<Row>>(
        &mut self,
        proc: &str,
        rows: Vec<R>,
    ) -> Result<BatchId> {
        let pid = self.border_proc_id(proc)?;
        self.stats.client_pe_trips += 1;
        self.enqueue_border(pid, proc, rows.into_iter().map(Into::into).collect())
    }

    /// Submit a *group* of border batches for one procedure in a single
    /// scheduler pass: one client↔PE round trip for the whole group, all
    /// records logged back-to-back (group commit amortizes the fsyncs),
    /// then one drain. This is the PE-boundary saving the cluster runtime
    /// exploits when its ingest queue holds several batches for the same
    /// procedure.
    ///
    /// Returns one result **per submission**, in submission order: `Ok`
    /// with that batch's TEs (execution order) when it ran, `Err` when it
    /// was never enqueued (e.g. a log write failed). Earlier batches of a
    /// partially-failed group still execute — they are already durably
    /// logged, so running them keeps live state identical to what
    /// recovery would replay — and resolve `Ok` exactly as they would
    /// have uncoalesced. The outer `Err` is reserved for whole-group
    /// rejection (unknown/interior procedure, empty group is `Ok(vec![])`)
    /// and engine-level drain failures — the latter means an engine
    /// invariant broke mid-drain (rollback failure), the partition's
    /// state is indeterminate, and *every* member of the group reports
    /// the error even if its own TEs committed first.
    ///
    /// Determinism: batch ids are assigned in submission order and the
    /// scheduler sees exactly the state it would have seen under
    /// [`Partition::submit_batch_async`] calls followed by one
    /// [`Partition::run_queued`] — final state is identical to submitting
    /// the batches one by one.
    #[allow(clippy::type_complexity)]
    pub fn submit_batch_group<R: Into<Row>>(
        &mut self,
        proc: &str,
        batches: Vec<Vec<R>>,
    ) -> Result<Vec<Result<Vec<TxnOutcome>>>> {
        if batches.is_empty() {
            return Ok(Vec::new());
        }
        let pid = self.border_proc_id(proc)?;
        self.stats.client_pe_trips += 1;
        self.stats.group_submissions += 1;
        self.stats.batches_coalesced += batches.len() as u64;
        let n = batches.len();
        let mut ids = Vec::with_capacity(n);
        let mut enqueue_err: Option<Error> = None;
        for rows in batches {
            match self.enqueue_border(pid, proc, rows.into_iter().map(Into::into).collect()) {
                Ok(id) => ids.push(id),
                Err(e) => {
                    // This submission (and the rest of the group) was
                    // never enqueued; the already-enqueued prefix still
                    // runs below.
                    enqueue_err = Some(e);
                    break;
                }
            }
        }
        let outcomes = self.drain()?;
        // Attribute execution-order outcomes back to their border batch
        // (downstream TEs carry the border batch's id).
        let index: HashMap<u64, usize> =
            ids.iter().enumerate().map(|(i, b)| (b.raw(), i)).collect();
        let mut groups: Vec<Vec<TxnOutcome>> = ids.iter().map(|_| Vec::new()).collect();
        for o in outcomes {
            if let Some(&i) = index.get(&o.batch.raw()) {
                groups[i].push(o);
            }
        }
        let mut results: Vec<Result<Vec<TxnOutcome>>> = groups.into_iter().map(Ok).collect();
        while results.len() < n {
            results.push(Err(enqueue_err.clone().unwrap_or_else(|| {
                Error::Internal("group submission not enqueued".into())
            })));
        }
        Ok(results)
    }

    /// Resolve `proc`, enforcing the border-procedure rule in S-Store mode.
    fn border_proc_id(&self, proc: &str) -> Result<ProcId> {
        let pid = self.proc_id(proc)?;
        if self.config.mode == ExecMode::SStore && !self.workflow.is_border(pid) {
            return Err(Error::Schedule(format!(
                "`{proc}` is an interior procedure; only PE triggers may invoke it"
            )));
        }
        Ok(pid)
    }

    /// Assign the next batch id, log the border record, and enqueue the
    /// invocation. No round-trip accounting — callers decide how many
    /// client↔PE trips the submission cost.
    fn enqueue_border(&mut self, pid: ProcId, proc: &str, rows: Vec<Row>) -> Result<BatchId> {
        let trace = self.pending_traces.pop_front();
        self.next_batch += 1;
        let batch = BatchId::new(self.next_batch);
        let synced = self.logging()
            && self.log_record(&LogRecord::BorderBatch {
                batch,
                proc: proc.to_string(),
                rows: rows.clone(),
                ts: self.clock.now(),
            })?;
        self.note_batch_logged(batch, trace, synced);
        self.stats.batches_submitted += 1;
        self.batch_refs.insert(batch.raw(), 1);
        self.queue.push_back(Invocation {
            proc: pid,
            batch: Batch::new(batch, rows),
        });
        Ok(batch)
    }

    /// Run every queued TE (and the TEs their commits trigger) to
    /// completion, returning outcomes in execution order.
    pub fn run_queued(&mut self) -> Result<Vec<TxnOutcome>> {
        self.drain()
    }

    /// Directly invoke a procedure (H-Store mode requests, and OLTP-style
    /// requests in either mode). One TE; returns its outcome.
    pub fn invoke<R: Into<Row>>(&mut self, proc: &str, rows: Vec<R>) -> Result<TxnOutcome> {
        let pid = self.proc_id(proc)?;
        let rows: Vec<Row> = rows.into_iter().map(Into::into).collect();
        self.stats.client_pe_trips += 1;
        self.next_batch += 1;
        let batch = BatchId::new(self.next_batch);
        if self.logging() {
            self.log_record(&LogRecord::Invocation {
                batch,
                proc: proc.to_string(),
                rows: rows.clone(),
                ts: self.clock.now(),
            })?;
        }
        self.batch_refs.insert(batch.raw(), 1);
        self.queue.push_back(Invocation {
            proc: pid,
            batch: Batch::new(batch, rows),
        });
        let outcomes = self.drain()?;
        outcomes
            .into_iter()
            .next()
            .ok_or_else(|| Error::Internal("invoke produced no outcome".into()))
    }

    // ---- cross-partition transactions (2PC participant) ----------------------

    /// Phase 1 of two-phase commit: execute this partition's fragment of
    /// multi-sited transaction `gtid` and **hold its undo log open**.
    /// The fragment's input is logged (and fsynced) *before* the body
    /// runs, so a yes-vote is a durable promise: after a crash the
    /// fragment replays against the coordinator's decision.
    ///
    /// Returns the fragment's local batch id on a yes-vote. On `Err` the
    /// participant has voted no: the body's effects are already rolled
    /// back and a local abort [`LogRecord::Decision`] is appended (it
    /// rides the next sync; until then recovery presumes the same abort)
    /// — the coordinator's abort round is then a no-op here.
    ///
    /// Serial execution discipline: at most one fragment may be prepared
    /// at a time, and the caller (the partition worker) must not run any
    /// other TE between prepare and [`Partition::decide_fragment`] — the
    /// fragment's uncommitted writes are visible in storage.
    pub fn prepare_fragment<R: Into<Row>>(
        &mut self,
        gtid: u64,
        proc: &str,
        rows: Vec<R>,
    ) -> Result<BatchId> {
        let rows: Vec<Row> = rows.into_iter().map(Into::into).collect();
        if let Some(frag) = &self.prepared {
            return Err(Error::Txn(format!(
                "partition {} already holds prepared fragment gtid {}",
                self.config.partition, frag.gtid
            )));
        }
        let pid = self.border_proc_id(proc)?;
        let trace = self.pending_traces.pop_front();
        self.max_gtid_seen = self.max_gtid_seen.max(gtid);
        self.stats.twopc_prepares += 1;
        self.next_batch += 1;
        let batch = BatchId::new(self.next_batch);
        let synced = self.log_record(&LogRecord::PrepareMarker {
            gtid,
            batch,
            proc: proc.to_string(),
            rows: rows.clone(),
            ts: self.clock.now(),
        })?;
        self.note_batch_logged(batch, trace, synced);
        // The yes-vote must be durable before it is cast. This sync also
        // carries down whatever the last decision left in the buffer.
        self.sync_log()?;
        if !self.replaying {
            // Kill point: the durable promise exists, the vote has not
            // been cast. Recovery must resolve this fragment in doubt.
            fault::kill_point("prepare-logged");
        }
        self.stats.batches_submitted += 1;
        self.batch_refs.insert(batch.raw(), 1);

        let start = std::time::Instant::now();
        let txn = TxnId::new(self.next_txn);
        self.next_txn += 1;
        let now = self.clock.now();
        let p = &self.procs[pid.raw() as usize];
        let handler = p.handler.clone();
        let output_stream = p.output_stream;
        let input = Batch::new(batch, rows);
        let mut scratch = TxnScratch::new(Some(pid), batch);
        let mut ctx = ProcContext {
            engine: &mut self.engine,
            scratch: &mut scratch,
            statements: &p.statements,
            input: &input,
            now,
            output_stream,
            response: None,
        };
        let result = handler(&mut ctx);
        let response = ctx.response.take();
        match result {
            Ok(()) => {
                self.prepared = Some(PreparedFragment {
                    gtid,
                    txn,
                    batch,
                    proc: pid,
                    start,
                    undo: scratch.undo,
                    appended: scratch.appended,
                    response,
                });
                Ok(batch)
            }
            Err(e) => {
                // Vote no: unilateral abort, decided (and logged) locally.
                // Not synced: a lost record reads as presumed abort.
                scratch.undo.rollback(self.engine.db_mut())?;
                self.log_record(&LogRecord::Decision {
                    gtid,
                    batch,
                    commit: false,
                })?;
                self.stats.twopc_aborts += 1;
                if e.is_user_abort() {
                    self.stats.user_aborts += 1;
                } else {
                    self.stats.failed += 1;
                }
                self.complete_batch(batch)?;
                Err(e)
            }
        }
    }

    /// Phase 2 of two-phase commit: apply the coordinator's decision to
    /// the held fragment. Commit drops the undo log, fires PE triggers on
    /// the fragment's emissions (scheduling local downstream TEs and/or
    /// cross-partition forwards), and drains; abort applies the undo log.
    /// Returns the fragment's outcome followed by any downstream TEs'.
    ///
    /// The local [`LogRecord::Decision`] is appended, **not synced**: a
    /// commit is already durable as this partition's synced
    /// `PrepareMarker` plus the coordinator's decision record, and
    /// recovery resolves a marker without a local decision from the
    /// coordinator's log (presumed abort otherwise). The record rides the
    /// next sync — in steady state the next prepare's. Whoever wants to
    /// drop the coordinator's record must first [`Partition::sync_log`].
    pub fn decide_fragment(&mut self, gtid: u64, commit: bool) -> Result<Vec<TxnOutcome>> {
        let frag = match self.prepared.take() {
            Some(f) if f.gtid == gtid => f,
            Some(f) => {
                let held = f.gtid;
                self.prepared = Some(f);
                return Err(Error::Txn(format!(
                    "decision for gtid {gtid} but partition {} holds gtid {held}",
                    self.config.partition
                )));
            }
            None => {
                return Err(Error::Txn(format!(
                    "no prepared fragment for gtid {gtid} on partition {}",
                    self.config.partition
                )))
            }
        };
        if let Err(e) = self.log_record(&LogRecord::Decision {
            gtid,
            batch: frag.batch,
            commit,
        }) {
            // The failed record was dropped from the log buffer, so
            // nothing of the decision is logged here and nothing has
            // been applied — but the decision is already final at the
            // coordinator, and this partition's log can no longer be
            // trusted to carry it. Put the fragment back untouched and
            // mark the partition for a rebuild from disk: recovery
            // resolves the held fragment against the coordinator's
            // decision map and re-emits whatever the decision implies,
            // exactly once.
            self.prepared = Some(frag);
            self.state_diverged = true;
            return Err(e);
        }
        if !self.replaying {
            // Kill point: the decision reached this participant and sits
            // in its log buffer (on disk only at group-commit size 1),
            // but has not been applied. Replay must finish the job from
            // the local record if it made it down, from the coordinator's
            // log if not.
            fault::kill_point("decide-delivered");
        }
        let inv = Invocation {
            proc: frag.proc,
            batch: Batch::empty(frag.batch),
        };
        let outcome = if commit {
            frag.undo.commit();
            self.stats.committed += 1;
            self.stats.twopc_commits += 1;
            self.commits_since_snapshot += 1;
            self.stats.record_latency(frag.start.elapsed().as_nanos());
            self.pending_outputs = frag.appended;
            TxnOutcome {
                txn: frag.txn,
                proc: frag.proc,
                batch: frag.batch,
                status: TxnStatus::Committed,
                response: frag.response,
                error: None,
            }
        } else {
            frag.undo.rollback(self.engine.db_mut())?;
            self.stats.twopc_aborts += 1;
            self.pending_outputs = Vec::new();
            TxnOutcome {
                txn: frag.txn,
                proc: frag.proc,
                batch: frag.batch,
                status: TxnStatus::Aborted,
                response: None,
                error: Some(format!("aborted by 2PC coordinator (gtid {gtid})")),
            }
        };
        self.post_te(&inv, &outcome)?;
        let mut outcomes = vec![outcome];
        outcomes.extend(self.drain()?);
        Ok(outcomes)
    }

    /// The gtid of the currently held fragment, if any.
    pub fn prepared_gtid(&self) -> Option<u64> {
        self.prepared.as_ref().map(|f| f.gtid)
    }

    /// Highest gtid ever prepared here (live or during replay). Cluster
    /// recovery resumes the coordinator's sequence past every
    /// partition's mark — gtids are never reused.
    pub fn max_gtid_seen(&self) -> u64 {
        self.max_gtid_seen
    }

    /// True when `proc` may run to completion while the currently held
    /// 2PC fragment awaits its decision, without observing or disturbing
    /// the fragment's uncommitted writes: the transitive workflow
    /// closures of the two procedures (own read/write sets plus every
    /// procedure their emissions can trigger) touch **disjoint** table
    /// sets. Disjointness makes the interleaving serializable in either
    /// order and keeps the fragment's undo independent, so a later abort
    /// rolls back cleanly past the speculated commit — and replay, which
    /// applies the fragment's decision at its log marker *before* the
    /// speculated invocation, converges to the identical state.
    pub fn speculation_safe(&self, proc: &str) -> bool {
        let Some(frag) = &self.prepared else {
            return false;
        };
        let Some(&pid) = self.by_name.get(proc) else {
            return false;
        };
        if self.procs[pid.raw() as usize].multi_partition {
            return false;
        }
        self.closure_tables(pid)
            .is_disjoint(&self.closure_tables(frag.proc))
    }

    /// Every table in the transitive workflow closure of `root`: its own
    /// read/write sets plus those of every procedure reachable through
    /// PE triggers on the streams it writes.
    fn closure_tables(&self, root: ProcId) -> std::collections::HashSet<TableId> {
        let mut seen = vec![false; self.procs.len()];
        let mut stack = vec![root];
        let mut tables = std::collections::HashSet::new();
        while let Some(pid) = stack.pop() {
            let i = pid.raw() as usize;
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            let p = &self.procs[i];
            tables.extend(p.read_set.iter().copied());
            tables.extend(p.write_set.iter().copied());
            for &t in &p.write_set {
                stack.extend(self.workflow.consumers_of(t).iter().copied());
            }
        }
        tables
    }

    /// Early-prepare speculation: run a border batch verified
    /// [`Partition::speculation_safe`] against the held fragment while
    /// the 2PC decision is still in flight. The log orders the
    /// fragment's marker before this invocation, and replay resolves the
    /// marker (commit or abort) before replaying it — state convergence
    /// follows from the closure disjointness the safety check proved.
    /// Retention snapshots stay suppressed until the fragment resolves
    /// (an image must not capture uncommitted writes).
    pub fn submit_batch_speculative<R: Into<Row>>(
        &mut self,
        proc: &str,
        rows: Vec<R>,
    ) -> Result<Vec<TxnOutcome>> {
        if !self.speculation_safe(proc) {
            return Err(Error::Txn(format!(
                "`{proc}` conflicts with the prepared 2PC fragment; cannot speculate"
            )));
        }
        let pid = self.border_proc_id(proc)?;
        self.stats.client_pe_trips += 1;
        self.enqueue_border(pid, proc, rows.into_iter().map(Into::into).collect())?;
        self.speculating = true;
        let result = self.drain();
        self.speculating = false;
        let outcomes = result?;
        self.stats.speculative_tes += outcomes.len() as u64;
        Ok(outcomes)
    }

    // ---- cross-partition workflow edges ---------------------------------------

    /// Accept one batch forwarded over a cross-partition edge: the
    /// one-element case of [`Partition::accept_forwards`] (recovery
    /// replays `Forward` records through it one at a time). Returns the
    /// local batch id, or `None` when the forward was a duplicate. Call
    /// [`Partition::run_queued`] to execute.
    pub fn accept_forward(
        &mut self,
        stream: &str,
        src_partition: u32,
        src_batch: u64,
        rows: Vec<Row>,
    ) -> Result<Option<BatchId>> {
        self.accept_forwards(vec![InboundForward {
            stream: stream.to_string(),
            src_partition,
            src_batch,
            rows,
        }])
        .pop()
        .expect("one result per run member")
    }

    /// Accept a run of batches forwarded over cross-partition edges,
    /// paying **one** log sync for the whole run. Every member's
    /// [`LogRecord::Forward`] is appended first; only once all of them
    /// are durable are the dedupe high-water marks advanced and one TE
    /// per consuming procedure enqueued — so no forwarded batch can
    /// execute, and no edge ack (which releases the sender's upstream
    /// backup) can be sent, ahead of its record. Call
    /// [`Partition::run_queued`] to execute.
    ///
    /// One result per member, in order: the local batch id, `None` for a
    /// duplicate (of the `(src_partition, stream)` high-water mark — a
    /// replay or a re-forward after recovery — or of an earlier member of
    /// this run), or the error that keeps it un-acked. A member whose
    /// record did not reach the disk (its append failed, or the shared
    /// sync did) leaves the high-water untouched and marks a hole on its
    /// edge, so no younger batch can leapfrog it before the sender
    /// re-forwards; members made durable by a group commit earlier in
    /// the run are unaffected by a later failure.
    pub fn accept_forwards(&mut self, run: Vec<InboundForward>) -> Vec<Result<Option<BatchId>>> {
        /// What the append pass decided about one member.
        enum Slot {
            Done(Result<Option<BatchId>>),
            /// Appended as `staged[i]`; resolved by the sync.
            Staged(usize),
            /// Duplicate of `staged[i]`; shares its fate.
            DupOf(usize),
        }
        let mut slots = Vec::with_capacity(run.len());
        let mut staged: Vec<StagedForward> = Vec::new();
        // `staged[..durable]` are on disk (a group commit fired mid-run).
        let mut durable = 0;
        for fwd in run {
            // Consume the delivery's trace unconditionally: a dupe or a
            // refusal drops it (the re-forward brings a fresh push).
            let trace = self.pending_traces.pop_front();
            let sid = match self.stream_id(&fwd.stream) {
                Ok(sid) => sid,
                Err(e) => {
                    slots.push(Slot::Done(Err(e)));
                    continue;
                }
            };
            let InboundForward {
                stream,
                src_partition,
                src_batch,
                rows,
            } = fwd;
            let key = (src_partition, stream);
            if src_batch <= self.edge_high_water.get(&key).copied().unwrap_or(0) {
                self.stats.forwards_deduped += 1;
                slots.push(Slot::Done(Ok(None)));
                continue;
            }
            // The run's own members are not in the high-water yet.
            if let Some(i) = staged.iter().rposition(|s| s.key == key) {
                if src_batch <= staged[i].src_batch {
                    slots.push(Slot::DupOf(i));
                    continue;
                }
            }
            if let Some(&gap) = self.edge_gaps.get(&key) {
                if src_batch > gap {
                    // Accepting this younger batch would advance the
                    // high-water past the refused one and turn its eventual
                    // re-forward into a "duplicate" — a silently lost batch.
                    slots.push(Slot::Done(Err(Error::Io(format!(
                        "edge `{}` from partition {src_partition} has an unfilled \
                         hole at source batch {gap}; refusing younger batch {src_batch} \
                         to preserve in-order exactly-once delivery",
                        key.1
                    )))));
                    continue;
                }
            }
            self.next_batch += 1;
            let batch = BatchId::new(self.next_batch);
            match self.log_record(&LogRecord::Forward {
                batch,
                stream: key.1.clone(),
                src_partition,
                src_batch,
                rows: rows.clone(),
                ts: self.clock.now(),
            }) {
                Ok(synced) => {
                    // This member fills the hole (if any) unless the
                    // shared sync fails, which re-marks it below.
                    self.edge_gaps.remove(&key);
                    slots.push(Slot::Staged(staged.len()));
                    staged.push(StagedForward {
                        key,
                        src_batch,
                        sid,
                        batch,
                        rows,
                        trace,
                    });
                    if synced {
                        durable = staged.len();
                    }
                }
                Err(e) => {
                    self.mark_edge_gap(key, src_batch);
                    slots.push(Slot::Done(Err(e)));
                }
            }
        }
        let sync_err = if durable < staged.len() {
            self.sync_log().err()
        } else {
            None
        };
        if sync_err.is_none() {
            durable = staged.len();
        }
        if durable > 0 && !self.replaying {
            // Kill point: the forwards are durable here but no edge ack
            // has been sent — the senders must keep their upstream
            // backup and re-forward; dedupe makes that exactly-once.
            fault::kill_point("forward-logged");
        }
        // The error for a staged member the shared sync left off the disk.
        let lost = |i: usize| sync_err.as_ref().filter(|_| i >= durable);
        let mut staged = staged.into_iter();
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(result) => result,
                Slot::DupOf(i) => match lost(i) {
                    Some(e) => Err(e.clone()),
                    None => {
                        self.stats.forwards_deduped += 1;
                        Ok(None)
                    }
                },
                Slot::Staged(i) => {
                    let fwd = staged.next().expect("one staged entry per slot");
                    match lost(i) {
                        // Not durable here: leave the high-water untouched
                        // (the ack is withheld, the sender re-forwards) and
                        // mark the hole so no younger batch can leapfrog it.
                        Some(e) => {
                            self.mark_edge_gap(fwd.key, fwd.src_batch);
                            Err(e.clone())
                        }
                        None => self.admit_forward(fwd).map(Some),
                    }
                }
            })
            .collect()
    }

    /// Resolve `stream` by name, refusing anything that is not a stream.
    fn stream_id(&self, stream: &str) -> Result<TableId> {
        let sid = self.engine.db().resolve(stream)?;
        if !self.engine.db().kind(sid)?.is_stream() {
            return Err(Error::Constraint(format!("`{stream}` is not a stream")));
        }
        Ok(sid)
    }

    /// Record that the forward of `src_batch` on edge `key` was refused.
    fn mark_edge_gap(&mut self, key: (u32, String), src_batch: u64) {
        let gap = self.edge_gaps.entry(key).or_insert(src_batch);
        *gap = (*gap).min(src_batch);
    }

    /// A forward's record is durable: advance the edge's high-water mark
    /// and enqueue one TE per consuming procedure.
    fn admit_forward(&mut self, fwd: StagedForward) -> Result<BatchId> {
        let StagedForward {
            key,
            src_batch,
            sid,
            batch,
            rows,
            trace,
        } = fwd;
        self.edge_high_water.insert(key, src_batch);
        self.stats.forwards_in += 1;
        let consumers = self.workflow.consumers_of(sid).to_vec();
        if consumers.is_empty() {
            // No consumer deployed here: the forward is terminally
            // consumed on arrival (still logged + deduped, so replay and
            // the sender's upstream backup stay correct).
            self.stats.batches_completed += 1;
            self.log_record(&LogRecord::Ack { batch })?;
            return Ok(batch);
        }
        self.batch_refs.insert(batch.raw(), consumers.len());
        if let Some(t) = trace {
            // Keep the originating submission's trace attached to the
            // local batch so onward hops (forwards emitted by this
            // batch's TEs) stay attributable to it.
            self.batch_traces.insert(batch.raw(), t);
        }
        for consumer in consumers {
            self.stats.pe_trigger_firings += 1;
            self.queue.push_back(Invocation {
                proc: consumer,
                batch: Batch::new(batch, rows.clone()),
            });
        }
        Ok(batch)
    }

    /// The receiving partition durably logged a forward of `batch`:
    /// release the edge's share of the emitting batch's upstream backup.
    /// When the last reference drops, the batch is acked and its input
    /// record becomes GC-eligible.
    pub fn edge_acked(&mut self, batch: BatchId) -> Result<()> {
        if let Some(&t) = self.batch_traces.get(&batch.raw()) {
            obs::record(Stage::Acked, t);
        }
        self.complete_batch(batch)
    }

    /// Drain the outbox of batches bound for other partitions.
    pub fn take_outbox(&mut self) -> Vec<RemoteForward> {
        std::mem::take(&mut self.outbox)
    }

    /// True when `batch` still has outstanding references (e.g. an edge
    /// forward whose receiver has not acked). Recovery must not blanket-
    /// ack such batches.
    pub(crate) fn has_pending_refs(&self, batch: BatchId) -> bool {
        self.batch_refs.contains_key(&batch.raw())
    }

    /// Names of procedures declared `multi_partition` (the cluster
    /// coordinator routes their border submissions through 2PC).
    pub fn multi_partition_procs(&self) -> Vec<String> {
        self.procs
            .iter()
            .filter(|p| p.multi_partition)
            .map(|p| p.name.clone())
            .collect()
    }

    /// Decrement `batch`'s reference count; ack it at zero.
    fn complete_batch(&mut self, batch: BatchId) -> Result<()> {
        if let Some(refs) = self.batch_refs.get_mut(&batch.raw()) {
            *refs -= 1;
            if *refs == 0 {
                self.batch_refs.remove(&batch.raw());
                self.batch_traces.remove(&batch.raw());
                self.stats.batches_completed += 1;
                self.log_record(&LogRecord::Ack { batch })?;
            }
        }
        Ok(())
    }

    /// Drain the ready queue, running TEs serially. At quiescence (the
    /// queue is empty again) the retention policy may snapshot + truncate.
    fn drain(&mut self) -> Result<Vec<TxnOutcome>> {
        if let Some(frag) = &self.prepared {
            // Serial-execution invariant: the prepared fragment's
            // uncommitted writes are sitting in storage; running another
            // TE now could read them and make an abort un-rollbackable.
            // The one exception is a speculative TE whose workflow
            // closure was proven disjoint from the fragment's.
            if !self.speculating {
                return Err(Error::Txn(format!(
                    "cannot run TEs while 2PC fragment gtid {} awaits its decision",
                    frag.gtid
                )));
            }
        }
        let mut outcomes = Vec::new();
        while let Some(inv) = self.queue.pop_front() {
            let outcome = self.run_te(&inv)?;
            self.post_te(&inv, &outcome)?;
            outcomes.push(outcome);
        }
        self.maybe_snapshot_for_retention();
        Ok(outcomes)
    }

    /// Apply `LogRetention`: when enough commits accumulated since the
    /// last snapshot, write one and truncate the log. Only at quiescence
    /// (callers guarantee the queue is empty) and never during replay.
    /// A failed snapshot must not fail the batch that just committed —
    /// the log still covers everything, so durability is intact; the
    /// failure is counted and the policy retries at the next quiescent
    /// point (`commits_since_snapshot` keeps accumulating).
    fn maybe_snapshot_for_retention(&mut self) {
        // A held fragment's uncommitted writes must never reach an image
        // (reachable only via speculative drains); retry once resolved.
        if self.replaying || self.log.is_none() || self.prepared.is_some() {
            return;
        }
        let Some(retention) = self.config.retention else {
            return;
        };
        if self.commits_since_snapshot >= retention.every_n_commits && self.snapshot().is_err() {
            self.stats.retention_failures += 1;
        }
    }

    fn serial_workflow(&self) -> bool {
        self.config
            .serial_workflow
            .unwrap_or_else(|| self.workflow.has_shared_writables())
    }

    /// Run one TE: execute the procedure body over its batch, commit or
    /// roll back atomically.
    fn run_te(&mut self, inv: &Invocation) -> Result<TxnOutcome> {
        let start = std::time::Instant::now();
        let txn = TxnId::new(self.next_txn);
        self.next_txn += 1;
        let now = self.clock.now();

        let proc = &self.procs[inv.proc.raw() as usize];
        let handler = proc.handler.clone();
        let output_stream = proc.output_stream;

        let mut scratch = TxnScratch::new(Some(inv.proc), inv.batch.id);
        let mut ctx = ProcContext {
            engine: &mut self.engine,
            scratch: &mut scratch,
            statements: &proc.statements,
            input: &inv.batch,
            now,
            output_stream,
            response: None,
        };
        let result = handler(&mut ctx);
        let response = ctx.response.take();

        let outcome = match result {
            Ok(()) => {
                scratch.undo.commit();
                self.stats.committed += 1;
                self.commits_since_snapshot += 1;
                self.stats.record_latency(start.elapsed().as_nanos());
                TxnOutcome {
                    txn,
                    proc: inv.proc,
                    batch: inv.batch.id,
                    status: TxnStatus::Committed,
                    response,
                    error: None,
                }
            }
            Err(e) => {
                scratch.undo.rollback(self.engine.db_mut())?;
                scratch.appended.clear();
                let status = if e.is_user_abort() {
                    self.stats.user_aborts += 1;
                    TxnStatus::Aborted
                } else {
                    self.stats.failed += 1;
                    TxnStatus::Failed
                };
                TxnOutcome {
                    txn,
                    proc: inv.proc,
                    batch: inv.batch.id,
                    status,
                    response: None,
                    error: Some(e.to_string()),
                }
            }
        };

        // Stash outputs for post_te (committed TEs only).
        self.pending_outputs = if outcome.is_committed() {
            scratch.appended
        } else {
            Vec::new()
        };
        Ok(outcome)
    }

    /// Post-commit bookkeeping: PE triggers, GC, batch completion acks.
    fn post_te(&mut self, inv: &Invocation, outcome: &TxnOutcome) -> Result<()> {
        let appended = std::mem::take(&mut self.pending_outputs);
        let b = inv.batch.id;

        if outcome.is_committed() {
            // Group emitted rows by stream, preserving first-append order.
            let mut order: Vec<TableId> = Vec::new();
            let mut by_stream: HashMap<TableId, Vec<Row>> = HashMap::new();
            for (stream, row) in appended {
                if !by_stream.contains_key(&stream) {
                    order.push(stream);
                }
                by_stream.entry(stream).or_default().push(row);
            }

            if self.config.mode == ExecMode::SStore {
                let serial = self.serial_workflow();
                let mut to_schedule: Vec<Invocation> = Vec::new();
                for stream in &order {
                    let rows = &by_stream[stream];
                    // A declared cross-partition edge: buffer the batch in
                    // the outbox for the cluster router instead of firing
                    // local PE triggers. The emitting batch stays open
                    // (one extra ref) until the receiving partition has
                    // durably logged the forward — upstream backup across
                    // the edge.
                    if let Some(key_col) = self.workflow.remote_key_col(*stream) {
                        let name = self
                            .engine
                            .db()
                            .catalog()
                            .meta(*stream)
                            .map(|m| m.name.clone())
                            .ok_or_else(|| Error::NotFound(format!("stream {stream}")))?;
                        self.stats.forwards_out += 1;
                        *self.batch_refs.entry(b.raw()).or_insert(0) += 1;
                        // Source half of the edge's upstream backup: if a
                        // retention snapshot covers batch `b` before the
                        // edge ack arrives, replay will skip `b` — this
                        // record is then the only source of the envelope.
                        if let Err(e) = self.log_record(&LogRecord::ForwardOut {
                            batch: b,
                            stream: name.clone(),
                            key_col: key_col as u32,
                            rows: rows.clone(),
                        }) {
                            // Post-commit-point failure: the emitting
                            // batch is durable and applied, but its
                            // envelope can never be logged (the failed
                            // record was dropped from the buffer). Live
                            // state has diverged from what replay will
                            // produce — go down for a rebuild from disk,
                            // which re-runs the batch and re-creates the
                            // envelope.
                            self.state_diverged = true;
                            return Err(e);
                        }
                        self.outbox.push(RemoteForward {
                            stream: name,
                            key_col,
                            batch: b,
                            rows: rows.clone(),
                            trace: self.batch_traces.get(&b.raw()).copied(),
                        });
                        // The envelope holds shared row handles; the
                        // emitted tuples are terminally consumed locally.
                        self.engine.gc_stream(*stream, b)?;
                        continue;
                    }
                    let consumers = self.workflow.consumers_of(*stream).to_vec();
                    if !consumers.is_empty() {
                        self.gc_pending.insert((*stream, b.raw()), consumers.len());
                    }
                    for consumer in consumers {
                        self.stats.pe_trigger_firings += 1;
                        *self.batch_refs.entry(b.raw()).or_insert(0) += 1;
                        to_schedule.push(Invocation {
                            proc: consumer,
                            batch: Batch::new(b, rows.clone()),
                        });
                    }
                }
                if serial {
                    // Downstream of this batch runs before anything queued
                    // (whole-workflow serial execution).
                    for inv in to_schedule.into_iter().rev() {
                        self.queue.push_front(inv);
                    }
                } else {
                    self.queue.extend(to_schedule);
                }
            }
        }

        // GC this TE's *input* stream once all consumers are done. This
        // runs for aborted TEs too: the batch is terminally consumed either
        // way (upstream backup, not the stream table, is the replay source).
        if let Some(input) = self.procs[inv.proc.raw() as usize].input_stream {
            if let Some(remaining) = self.gc_pending.get_mut(&(input, b.raw())) {
                *remaining -= 1;
                if *remaining == 0 {
                    self.gc_pending.remove(&(input, b.raw()));
                    self.engine.gc_stream(input, b)?;
                }
            }
        }

        // Batch completion accounting.
        self.complete_batch(b)?;
        Ok(())
    }

    /// True when [`Self::log_record`] writes (a log is attached, no replay):
    /// hot paths check it before building a record that copies rows.
    fn logging(&self) -> bool {
        self.log.is_some() && !self.replaying
    }

    /// Append `record` to the command log. Returns whether the append
    /// triggered a group-commit fsync (so callers can resolve the
    /// `Fsynced` trace stage for everything the sync covered).
    fn log_record(&mut self, record: &LogRecord) -> Result<bool> {
        if self.replaying {
            return Ok(false);
        }
        if let Some(log) = &mut self.log {
            let synced = log.append(record)?;
            self.stats.log_records += 1;
            self.stats.log_syncs = log.syncs();
            return Ok(synced);
        }
        Ok(false)
    }

    /// Force the command log's buffered group down, once for everything
    /// buffered. Called where someone is about to act on durability: a
    /// yes-vote before it is cast, a run of forwards before any is
    /// executed or acked, the edge high-water marks after a log GC, and
    /// — from the cluster — every participant before the coordinator
    /// drops commit records its `Decision`s may still be buffered behind.
    pub fn sync_log(&mut self) -> Result<()> {
        if self.replaying {
            return Ok(());
        }
        if let Some(log) = &mut self.log {
            log.sync()?;
            self.stats.log_syncs = log.syncs();
            self.flush_fsynced_traces();
        }
        Ok(())
    }

    // ---- batch lifecycle tracing ----------------------------------------------

    /// Attach a lifecycle trace to the next batch this partition creates
    /// (border enqueue, 2PC prepare, or accepted forward). Traces are
    /// consumed FIFO, so pushing one per batch before a group submission
    /// attributes them in batch-id order.
    pub fn push_pending_trace(&mut self, trace: TraceCtx) {
        self.pending_traces.push_back(trace);
    }

    /// Bookkeeping after a batch's input record hit the log: record the
    /// `Logged` stage, remember the trace for the batch's later stages,
    /// and resolve `Fsynced` when the append triggered a group commit.
    fn note_batch_logged(&mut self, batch: BatchId, trace: Option<TraceCtx>, synced: bool) {
        if let Some(t) = trace {
            if self.logging() {
                obs::record(Stage::Logged, t);
                self.unsynced_traces.push(t);
            }
            self.batch_traces.insert(batch.raw(), t);
        }
        if synced {
            self.flush_fsynced_traces();
        }
    }

    /// A durable fsync just covered every buffered record: resolve the
    /// `Fsynced` stage for the traces that were waiting on it.
    fn flush_fsynced_traces(&mut self) {
        for t in self.unsynced_traces.drain(..) {
            obs::record(Stage::Fsynced, t);
        }
    }

    /// Read rows currently buffered in a sink stream (a stream with no
    /// consuming procedure), returning the visible columns and deleting the
    /// consumed tuples — the client-side tap of the demo dashboards.
    pub fn drain_sink(&mut self, stream: &str) -> Result<Vec<Row>> {
        self.stats.client_pe_trips += 1;
        let sid = self.stream_id(stream)?;
        if !self.workflow.consumers_of(sid).is_empty() {
            return Err(Error::Schedule(format!(
                "`{stream}` has workflow consumers; draining it would steal their input"
            )));
        }
        let meta = self
            .engine
            .db()
            .catalog()
            .meta(sid)
            .ok_or_else(|| Error::NotFound(format!("stream `{stream}`")))?;
        let visible_arity = meta.visible_schema.arity();
        let rows: Vec<Row> = self
            .engine
            .db()
            .table(sid)?
            .scan()
            .map(|(_, r)| r.prefix(visible_arity))
            .collect();
        // Everything in a sink stream is by definition consumed now.
        self.engine.gc_stream(sid, BatchId::new(self.next_batch))?;
        Ok(rows)
    }

    // ---- durability ------------------------------------------------------------

    /// Write a snapshot and garbage-collect the command log. Must be
    /// called at quiescence (drain() is synchronous, so any time between
    /// client calls).
    ///
    /// The log GC drops every record of a batch that is both acked and
    /// covered by the fresh snapshot (`CommandLog::gc_acked_through`);
    /// at quiescence that empties the log, but unacked records — possible
    /// once workflows span partitions — are always kept replayable.
    pub fn snapshot(&mut self) -> Result<()> {
        if self.durability_poisoned() {
            // Live state no longer matches what the log will replay; a
            // snapshot here would make the divergence durable.
            return Err(Error::Recovery(
                "cannot snapshot: durability is poisoned — rebuild the \
                 partition from disk first"
                    .into(),
            ));
        }
        if let Some(frag) = &self.prepared {
            return Err(Error::Txn(format!(
                "cannot snapshot while 2PC fragment gtid {} awaits its decision \
                 (uncommitted writes are in storage)",
                frag.gtid
            )));
        }
        let cfg = self
            .config
            .log
            .clone()
            .ok_or_else(|| Error::Io("snapshots require a log directory".into()))?;
        let last_txn = Some(TxnId::new(self.next_txn.saturating_sub(1)));
        let last_batch = Some(BatchId::new(self.next_batch));
        let clock_micros = self.clock.now();
        // An incremental delta is written when the previous image exists
        // (its key is the chain link) and the chain is under its cap.
        let delta_base = self
            .last_snapshot_key
            .filter(|_| self.snapshot_chain_len < cfg.delta_chain_cap);
        if let Some(base) = delta_base {
            let k = self.snapshot_chain_len + 1;
            let delta = SnapshotDelta::capture(
                self.engine.db(),
                base,
                k,
                last_txn,
                last_batch,
                clock_micros,
            );
            delta.write_to(&cfg.delta_snapshot_path(k))?;
            self.snapshot_chain_len = k;
            self.stats.snapshots_delta += 1;
        } else {
            let snap = Snapshot::capture(self.engine.db(), last_txn, last_batch, clock_micros);
            snap.write_to(&cfg.snapshot_path())?;
            // Deltas of the superseded chain are harmless (their base key
            // no longer matches) but delete them for disk hygiene. A
            // crash mid-deletion leaves strays the chain walk rejects.
            let mut k = 1;
            while std::fs::remove_file(cfg.delta_snapshot_path(k)).is_ok() {
                k += 1;
            }
            self.snapshot_chain_len = 0;
            self.stats.snapshots_full += 1;
        }
        self.last_snapshot_key = Some(SnapshotKey {
            last_txn,
            last_batch,
            clock_micros,
        });
        // Fresh journals: the next delta describes changes since *this*
        // image (works after both branches — a delta lands the full
        // current state in the chain too). Skipped entirely when deltas
        // can never be cut, so full-only configs pay no tracking cost.
        if cfg.delta_chain_cap > 0 {
            self.engine.db_mut().enable_change_tracking();
        }
        if let Some(log) = &mut self.log {
            self.stats.log_gc_dropped += log.gc_acked_through(BatchId::new(self.next_batch))?;
        }
        // Persist the edge high-water marks past the GC: a forwarded
        // batch's record may just have been dropped (acked + covered), and
        // without the marks a post-recovery re-forward from an upstream
        // partition would execute twice.
        if !self.edge_high_water.is_empty() {
            let mut entries: Vec<(u32, String, u64)> = self
                .edge_high_water
                .iter()
                .map(|((src, stream), &hw)| (*src, stream.clone(), hw))
                .collect();
            entries.sort();
            self.log_record(&LogRecord::EdgeHighWater { entries })?;
            self.sync_log()?;
        }
        self.commits_since_snapshot = 0;
        Ok(())
    }

    /// Internal: used by recovery to restore state and replay.
    /// `chain_len` is the number of deltas the loaded snapshot chain
    /// already carries: the next retention point extends the chain from
    /// there (the restored key is the link) instead of forcing a full
    /// rewrite.
    pub(crate) fn restore_for_recovery(&mut self, snap: Snapshot, chain_len: u64) {
        self.next_batch = snap.last_batch.map(BatchId::raw).unwrap_or(0);
        self.next_txn = snap.last_txn.map(|t| t.raw() + 1).unwrap_or(1);
        self.clock = Clock::starting_at(snap.clock_micros);
        self.replay_covered = self.next_batch;
        self.last_snapshot_key = Some(snap.key());
        self.snapshot_chain_len = chain_len;
        self.engine.restore_db(snap.database);
        // Track replayed mutations: they are exactly the changes since
        // the chain tail, so the next image can be a delta.
        if self
            .config
            .log
            .as_ref()
            .is_some_and(|c| c.delta_chain_cap > 0)
        {
            self.engine.db_mut().enable_change_tracking();
        }
    }

    /// Internal: append fresh Ack records for `batches` (recovery path).
    /// Replay suppresses re-logging, so a batch whose pre-crash Ack was
    /// lost in a torn tail would otherwise stay unacked forever and its
    /// input record would survive every retention GC.
    pub(crate) fn ack_batches(&mut self, batches: &[BatchId]) -> Result<()> {
        for &batch in batches {
            self.log_record(&LogRecord::Ack { batch })?;
        }
        Ok(())
    }

    /// Internal: replay one log record (recovery path). `decision` is the
    /// resolved global outcome for [`LogRecord::PrepareMarker`] records
    /// (from the local log's Decision records, or the coordinator's
    /// decision log) — `None` means in doubt, which aborts
    /// deterministically (presumed abort).
    pub(crate) fn replay_record(
        &mut self,
        record: LogRecord,
        decision: Option<bool>,
    ) -> Result<()> {
        match record {
            LogRecord::BorderBatch {
                batch,
                proc,
                rows,
                ts,
            } => {
                if batch.raw() <= self.next_batch {
                    return Ok(()); // covered by the snapshot
                }
                self.clock.advance_to(ts);
                self.replaying = true;
                self.next_batch = batch.raw() - 1; // submit_batch re-increments
                let r = self.submit_batch(&proc, rows);
                self.replaying = false;
                r.map(|_| ())
            }
            LogRecord::Invocation {
                batch,
                proc,
                rows,
                ts,
            } => {
                if batch.raw() <= self.next_batch {
                    return Ok(());
                }
                self.clock.advance_to(ts);
                self.replaying = true;
                self.next_batch = batch.raw() - 1;
                let r = self.invoke(&proc, rows);
                self.replaying = false;
                r.map(|_| ())
            }
            LogRecord::PrepareMarker {
                gtid,
                batch,
                proc,
                rows,
                ts,
            } => {
                self.max_gtid_seen = self.max_gtid_seen.max(gtid);
                if batch.raw() <= self.next_batch {
                    return Ok(());
                }
                self.clock.advance_to(ts);
                match decision {
                    Some(true) => {
                        // Re-run the fragment exactly as live execution
                        // did: prepare (undo held) then commit + triggers.
                        self.replaying = true;
                        self.next_batch = batch.raw() - 1;
                        let r = self
                            .prepare_fragment(gtid, &proc, rows)
                            .and_then(|_| self.decide_fragment(gtid, true));
                        self.replaying = false;
                        r.map(|_| ())
                    }
                    aborted => {
                        // Aborted (or in doubt → presumed abort): the
                        // pre-crash execution had zero net state effect;
                        // consume the same batch/txn ids and move on.
                        self.next_batch = batch.raw();
                        self.next_txn += 1;
                        if aborted.is_none() {
                            self.stats.twopc_in_doubt_aborts += 1;
                        }
                        self.stats.twopc_aborts += 1;
                        Ok(())
                    }
                }
            }
            // Effects of decisions are applied at their PrepareMarker
            // (the caller resolves them by lookahead); only the gtid
            // sequencing mark advances here.
            LogRecord::Decision { gtid, .. } => {
                self.max_gtid_seen = self.max_gtid_seen.max(gtid);
                Ok(())
            }
            LogRecord::Forward {
                batch,
                stream,
                src_partition,
                src_batch,
                rows,
                ts,
            } => {
                if batch.raw() <= self.next_batch {
                    // Snapshot-covered: the execution is in the image, but
                    // the dedup mark must still advance.
                    let hw = self
                        .edge_high_water
                        .entry((src_partition, stream))
                        .or_insert(0);
                    *hw = (*hw).max(src_batch);
                    return Ok(());
                }
                self.clock.advance_to(ts);
                self.replaying = true;
                self.next_batch = batch.raw() - 1;
                let r = self
                    .accept_forward(&stream, src_partition, src_batch, rows)
                    .and_then(|_| self.run_queued());
                self.replaying = false;
                r.map(|_| ())
            }
            LogRecord::EdgeHighWater { entries } => {
                for (src, stream, hw) in entries {
                    let mark = self.edge_high_water.entry((src, stream)).or_insert(0);
                    *mark = (*mark).max(hw);
                }
                Ok(())
            }
            LogRecord::ForwardOut {
                batch,
                stream,
                key_col,
                rows,
            } => {
                if batch.raw() > self.replay_covered {
                    // The emitting batch was replayed above and its
                    // execution already rebuilt this envelope (and its
                    // upstream-backup reference).
                    return Ok(());
                }
                // Snapshot-covered emitter: replay skipped it, so the
                // envelope exists only here. Rebuild it for the cluster
                // runtime to re-forward — the receiver's high-water
                // dedupe makes delivery exactly-once even if the
                // original send arrived. The reference keeps recovery
                // from blanket-acking the batch before the edge acks.
                *self.batch_refs.entry(batch.raw()).or_insert(0) += 1;
                self.outbox.push(RemoteForward {
                    stream,
                    key_col: key_col as usize,
                    batch,
                    rows,
                    trace: None,
                });
                Ok(())
            }
            LogRecord::Ack { .. } => Ok(()),
        }
    }

    /// Internal: append fresh Decision records (recovery path) for
    /// fragments whose outcome was resolved from the coordinator's
    /// decision log (or by presumed abort), so the next recovery is
    /// self-contained.
    pub(crate) fn append_decisions(&mut self, decisions: &[(u64, BatchId, bool)]) -> Result<()> {
        for &(gtid, batch, commit) in decisions {
            self.log_record(&LogRecord::Decision {
                gtid,
                batch,
                commit,
            })?;
        }
        self.sync_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::ProcSpec;
    use sstore_storage::TableKind;

    /// votes_in -> validate -> validated -> count
    /// `validate` drops negative values; `count` bumps a counter table.
    /// Deployment is a standalone function so recovery can redeploy it.
    fn deploy_pipeline(p: &mut Partition) -> Result<()> {
        p.ddl("CREATE STREAM votes_in (v INT)")?;
        p.ddl("CREATE STREAM validated (v INT)")?;
        p.ddl("CREATE TABLE totals (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")?;
        let mut sc = TxnScratch::new(None, BatchId::new(0));
        p.engine_mut()
            .execute_sql("INSERT INTO totals VALUES (1, 0)", &[], &mut sc, 0)?;

        p.register(
            ProcSpec::new("validate", |ctx| {
                let rows = ctx.input().rows.clone();
                for row in rows {
                    if row[0].as_int()? >= 0 {
                        ctx.emit(row)?;
                    }
                }
                Ok(())
            })
            .consumes("votes_in")
            .emits("validated"),
        )?;

        p.register(
            ProcSpec::new("count", |ctx| {
                let n = ctx.input().len() as i64;
                ctx.exec("bump", &[Value::Int(n)])?;
                Ok(())
            })
            .consumes("validated")
            .stmt("bump", "UPDATE totals SET n = n + ? WHERE k = 1"),
        )?;
        Ok(())
    }

    fn pipeline(config: PeConfig) -> Partition {
        let mut p = Partition::new(config).unwrap();
        deploy_pipeline(&mut p).unwrap();
        p
    }

    fn total(p: &mut Partition) -> i64 {
        p.query("SELECT n FROM totals WHERE k = 1", &[])
            .unwrap()
            .scalar_i64()
            .unwrap()
    }

    #[test]
    fn workflow_pushes_batches_downstream() {
        let mut p = pipeline(PeConfig::default());
        let outcomes = p
            .submit_batch(
                "validate",
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Int(-5)],
                    vec![Value::Int(2)],
                ],
            )
            .unwrap();
        // Two TEs: validate then count, same batch id.
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.is_committed()));
        assert_eq!(outcomes[0].batch, outcomes[1].batch);
        assert_eq!(total(&mut p), 2);
        assert_eq!(p.stats().pe_trigger_firings, 1);
        assert_eq!(p.stats().batches_completed, 1);
    }

    #[test]
    fn empty_output_skips_downstream() {
        let mut p = pipeline(PeConfig::default());
        let outcomes = p
            .submit_batch("validate", vec![vec![Value::Int(-1)]])
            .unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(total(&mut p), 0);
        assert_eq!(p.stats().batches_completed, 1);
    }

    #[test]
    fn interior_procs_rejected_from_clients_in_sstore_mode() {
        let mut p = pipeline(PeConfig::default());
        let err = p.submit_batch::<Row>("count", vec![]).unwrap_err();
        assert_eq!(err.kind(), "schedule");
    }

    #[test]
    fn hstore_mode_requires_client_driving() {
        let mut p = pipeline(PeConfig {
            mode: ExecMode::HStore,
            ..PeConfig::default()
        });
        // Client invokes validate; downstream does NOT fire.
        p.invoke("validate", vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(total(&mut p), 0);
        assert_eq!(p.stats().pe_trigger_firings, 0);
        // Client must poll/invoke downstream itself.
        p.invoke("count", vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(total(&mut p), 1);
        // That cost two extra client trips (one per invocation) plus the
        // query trips.
        assert!(p.stats().client_pe_trips >= 2);
    }

    #[test]
    fn aborted_te_has_no_effects_and_no_downstream() {
        let mut p = Partition::new(PeConfig::default()).unwrap();
        p.ddl("CREATE STREAM s_in (v INT)").unwrap();
        p.ddl("CREATE STREAM s_out (v INT)").unwrap();
        p.ddl("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))")
            .unwrap();
        p.register(
            ProcSpec::new("flaky", |ctx| {
                ctx.exec("ins", &[Value::Int(1)])?;
                ctx.emit(vec![Value::Int(9)])?;
                Err(ctx.abort("changed my mind"))
            })
            .consumes("s_in")
            .emits("s_out")
            .stmt("ins", "INSERT INTO t VALUES (?)"),
        )
        .unwrap();
        p.register(ProcSpec::new("sink_proc", |_ctx| Ok(())).consumes("s_out"))
            .unwrap();

        let outcomes = p.submit_batch("flaky", vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].status, TxnStatus::Aborted);
        // Table write rolled back; stream append rolled back; no trigger.
        assert_eq!(
            p.query("SELECT COUNT(*) FROM t", &[])
                .unwrap()
                .scalar_i64()
                .unwrap(),
            0
        );
        assert_eq!(p.stats().pe_trigger_firings, 0);
        assert_eq!(p.stats().user_aborts, 1);
    }

    #[test]
    fn emit_of_wrong_width_fails_te_cleanly() {
        let mut p = Partition::new(PeConfig::default()).unwrap();
        p.ddl("CREATE STREAM s_in (v INT)").unwrap();
        p.ddl("CREATE STREAM s_out (v INT)").unwrap();
        p.ddl("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))")
            .unwrap();
        p.register(
            ProcSpec::new("wide", |ctx| {
                ctx.exec("ins", &[Value::Int(1)])?;
                ctx.emit(vec![Value::Int(7)])?;
                ctx.emit(vec![Value::Int(8), Value::Int(9)])
            })
            .consumes("s_in")
            .emits("s_out")
            .stmt("ins", "INSERT INTO t VALUES (?)"),
        )
        .unwrap();
        p.register(ProcSpec::new("sink_proc", |_ctx| Ok(())).consumes("s_out"))
            .unwrap();

        let outcomes = p.submit_batch("wide", vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].status, TxnStatus::Failed);
        assert!(outcomes[0].error.as_deref().unwrap().contains("arity"));
        // The table write and the well-formed emit rolled back with it,
        // the stream's sequence rewound, and nothing went downstream.
        let count = |p: &mut Partition, sql: &str| p.query(sql, &[]).unwrap().scalar_i64().unwrap();
        assert_eq!(count(&mut p, "SELECT COUNT(*) FROM t"), 0);
        assert_eq!(count(&mut p, "SELECT COUNT(*) FROM s_out"), 0);
        assert_eq!(p.stats().pe_trigger_firings, 0);
        assert_eq!(p.stats().failed, 1);
        let s_out = p.engine().db().resolve("s_out").unwrap();
        match p.engine().db().kind(s_out).unwrap() {
            TableKind::Stream(s) => assert_eq!(s.next_seq, 0),
            other => panic!("s_out is {other:?}"),
        }
    }

    #[test]
    fn te_order_and_batch_order_preserved() {
        // Record (proc, batch) execution order via a table.
        let mut p = Partition::new(PeConfig::default()).unwrap();
        p.ddl("CREATE STREAM a_in (v INT)").unwrap();
        p.ddl("CREATE STREAM a_mid (v INT)").unwrap();
        p.ddl("CREATE TABLE trace (seq INT NOT NULL, tag VARCHAR, b INT, PRIMARY KEY (seq))")
            .unwrap();
        p.ddl("CREATE TABLE seqgen (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")
            .unwrap();
        let mut sc = TxnScratch::new(None, BatchId::new(0));
        p.engine_mut()
            .execute_sql("INSERT INTO seqgen VALUES (1, 0)", &[], &mut sc, 0)
            .unwrap();

        let trace = |tag: &'static str| {
            move |ctx: &mut ProcContext<'_>| {
                ctx.sql("UPDATE seqgen SET n = n + 1 WHERE k = 1", &[])?;
                let seq = ctx
                    .sql("SELECT n FROM seqgen WHERE k = 1", &[])?
                    .scalar_i64()?;
                let b = ctx.input().id.raw() as i64;
                ctx.sql(
                    "INSERT INTO trace VALUES (?, ?, ?)",
                    &[Value::Int(seq), Value::Text(tag.into()), Value::Int(b)],
                )?;
                if tag == "first" {
                    for row in ctx.input().rows.clone() {
                        ctx.emit(row)?;
                    }
                }
                Ok(())
            }
        };
        p.register(
            ProcSpec::new("first", trace("first"))
                .consumes("a_in")
                .emits("a_mid"),
        )
        .unwrap();
        p.register(ProcSpec::new("second", trace("second")).consumes("a_mid"))
            .unwrap();

        for i in 0..3 {
            p.submit_batch::<Row>("a_in_is_wrong", vec![]).err(); // wrong name ignored
            p.submit_batch("first", vec![vec![Value::Int(i)]]).unwrap();
        }
        let r = p
            .query("SELECT tag, b FROM trace ORDER BY seq", &[])
            .unwrap();
        // Workflow order per batch: first(b) before second(b); batch order
        // per proc: b strictly increasing for each tag.
        let mut first_batches = vec![];
        let mut second_batches = vec![];
        let mut seen_first: HashMap<i64, usize> = HashMap::new();
        for (i, row) in r.rows.iter().enumerate() {
            let tag = row[0].as_text().unwrap().to_string();
            let b = row[1].as_int().unwrap();
            if tag == "first" {
                seen_first.insert(b, i);
                first_batches.push(b);
            } else {
                assert!(seen_first[&b] < i, "workflow order violated");
                second_batches.push(b);
            }
        }
        let mut sorted = first_batches.clone();
        sorted.sort_unstable();
        assert_eq!(first_batches, sorted, "TE order violated for `first`");
        let mut sorted = second_batches.clone();
        sorted.sort_unstable();
        assert_eq!(second_batches, sorted, "TE order violated for `second`");
    }

    #[test]
    fn grouped_submission_matches_one_by_one_with_fewer_trips() {
        let batches: Vec<Vec<Row>> = (0..6)
            .map(|i| vec![vec![Value::Int(i)].into(), vec![Value::Int(-i)].into()])
            .collect();

        // Reference: one submission at a time.
        let mut one_by_one = pipeline(PeConfig::default());
        for b in batches.clone() {
            one_by_one.submit_batch("validate", b).unwrap();
        }
        let reference = total(&mut one_by_one);
        let reference_trips = one_by_one.stats().client_pe_trips;

        // Coalesced: the whole group in one scheduler pass.
        let mut grouped = pipeline(PeConfig::default());
        let results = grouped
            .submit_batch_group("validate", batches.clone())
            .unwrap();
        assert_eq!(results.len(), batches.len());
        // Each submission resolves to its own workflow TEs (validate +
        // count when anything passed validation), committed, same batch.
        for result in &results {
            let group = result.as_ref().unwrap();
            assert!(!group.is_empty());
            assert!(group.iter().all(|o| o.is_committed()));
            assert!(group.iter().all(|o| o.batch == group[0].batch));
        }
        assert_eq!(total(&mut grouped), reference);
        assert_eq!(grouped.stats().group_submissions, 1);
        assert_eq!(grouped.stats().batches_coalesced, 6);
        // The whole group cost ONE client trip; one-by-one cost six.
        // (Both also paid query trips from `total`.)
        assert_eq!(reference_trips - grouped.stats().client_pe_trips, 5);
    }

    #[test]
    fn grouped_submission_rejects_interior_procs_and_empty_is_noop() {
        let mut p = pipeline(PeConfig::default());
        let err = p
            .submit_batch_group("count", vec![vec![vec![Value::Int(1)]]])
            .unwrap_err();
        assert_eq!(err.kind(), "schedule");
        assert!(p
            .submit_batch_group::<Row>("validate", vec![])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn retention_truncates_log_and_recovery_still_works() {
        let _fault = crate::fault_lock();
        use crate::log::{read_log, LogRetention};
        use crate::recovery::recover;

        let dir = std::env::temp_dir().join(format!("sstore-retention-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let config = PeConfig {
            log: Some(LogConfig::new(&dir)),
            retention: Some(LogRetention::every_n_commits(4)),
            ..PeConfig::default()
        };
        let mut p = pipeline(config.clone());
        for i in 0..10 {
            p.submit_batch("validate", vec![vec![Value::Int(i)]])
                .unwrap();
        }
        let reference = total(&mut p);
        assert_eq!(reference, 10);

        // Each accepted batch commits 2 TEs (validate + count); the policy
        // fired multiple times, so the log holds far fewer than the 10
        // submitted border records, and a snapshot exists.
        let tail = read_log(&LogConfig::new(&dir).log_path()).unwrap();
        assert!(
            tail.len() < 10,
            "retention never truncated: {} records",
            tail.len()
        );
        assert!(LogConfig::new(&dir).snapshot_path().exists());

        // Crash + recover: snapshot + log tail reproduce the state. The
        // redeploy closure rebuilds the same schema and procedures.
        drop(p);
        let mut recovered = recover(config, deploy_pipeline).unwrap();
        assert_eq!(total(&mut recovered), reference);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn consumed_stream_batches_are_garbage_collected() {
        let mut p = pipeline(PeConfig::default());
        p.submit_batch("validate", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        // The intermediate stream is empty after consumption.
        let validated = p.engine().db().resolve("validated").unwrap();
        assert_eq!(p.engine().db().table(validated).unwrap().len(), 0);
        assert!(p.engine().stats().rows_gcd >= 2);
    }

    #[test]
    fn drain_sink_reads_and_clears() {
        let mut p = Partition::new(PeConfig::default()).unwrap();
        p.ddl("CREATE STREAM in_s (v INT)").unwrap();
        p.ddl("CREATE STREAM alerts (v INT)").unwrap();
        p.register(
            ProcSpec::new("alerting", |ctx| {
                for row in ctx.input().rows.clone() {
                    ctx.emit(row)?;
                }
                Ok(())
            })
            .consumes("in_s")
            .emits("alerts"),
        )
        .unwrap();
        p.submit_batch("alerting", vec![vec![Value::Int(7)]])
            .unwrap();
        let rows = p.drain_sink("alerts").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(7)]]);
        assert!(p.drain_sink("alerts").unwrap().is_empty());
        // Draining a consumed stream is refused.
        let mut p2 = pipeline(PeConfig::default());
        assert!(p2.drain_sink("validated").is_err());
    }

    #[test]
    fn prepared_fragment_commits_on_decision_and_fires_triggers() {
        let mut p = pipeline(PeConfig::default());
        let b = p
            .prepare_fragment(
                7,
                "validate",
                vec![vec![Value::Int(1)], vec![Value::Int(2)]],
            )
            .unwrap();
        // Held open: nothing committed yet, no downstream TE ran.
        assert_eq!(p.prepared_gtid(), Some(7));
        assert_eq!(p.stats().committed, 0);
        let outcomes = p.decide_fragment(7, true).unwrap();
        // Fragment TE + downstream count TE, same batch.
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.is_committed()));
        assert_eq!(outcomes[0].batch, b);
        assert_eq!(total(&mut p), 2);
        let s = p.stats();
        assert_eq!(s.twopc_prepares, 1);
        assert_eq!(s.twopc_commits, 1);
        assert_eq!(s.batches_completed, 1);
        assert_eq!(p.prepared_gtid(), None);
    }

    #[test]
    fn prepared_fragment_aborts_on_decision_with_no_effects() {
        let mut p = pipeline(PeConfig::default());
        p.prepare_fragment(9, "validate", vec![vec![Value::Int(5)]])
            .unwrap();
        let outcomes = p.decide_fragment(9, false).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].status, TxnStatus::Aborted);
        assert_eq!(total(&mut p), 0);
        assert_eq!(p.stats().twopc_aborts, 1);
        assert_eq!(p.stats().pe_trigger_firings, 0);
        // The partition keeps working normally afterwards.
        p.submit_batch("validate", vec![vec![Value::Int(1)]])
            .unwrap();
        assert_eq!(total(&mut p), 1);
    }

    #[test]
    fn failing_fragment_votes_no_and_rolls_back() {
        let mut p = Partition::new(PeConfig::default()).unwrap();
        p.ddl("CREATE STREAM s_in (v INT)").unwrap();
        p.ddl("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))")
            .unwrap();
        p.register(
            ProcSpec::new("boom", |ctx| {
                ctx.exec("ins", &[Value::Int(1)])?;
                Err(ctx.abort("no thanks"))
            })
            .consumes("s_in")
            .stmt("ins", "INSERT INTO t VALUES (?)"),
        )
        .unwrap();
        let err = p
            .prepare_fragment(3, "boom", vec![vec![Value::Int(1)]])
            .unwrap_err();
        assert!(err.is_user_abort());
        assert_eq!(p.prepared_gtid(), None);
        assert_eq!(
            p.query("SELECT COUNT(*) FROM t", &[])
                .unwrap()
                .scalar_i64()
                .unwrap(),
            0
        );
        // The abort is decided locally; a later coordinator abort round
        // has nothing to do.
        assert!(p.decide_fragment(3, false).is_err());
        assert_eq!(p.stats().twopc_aborts, 1);
    }

    #[test]
    fn mismatched_decision_is_rejected_and_fragment_survives() {
        let mut p = pipeline(PeConfig::default());
        p.prepare_fragment(1, "validate", vec![vec![Value::Int(1)]])
            .unwrap();
        assert!(p.decide_fragment(2, true).is_err());
        assert_eq!(p.prepared_gtid(), Some(1));
        // A second prepare while one is held is refused.
        assert!(p
            .prepare_fragment(3, "validate", vec![vec![Value::Int(1)]])
            .is_err());
        p.decide_fragment(1, true).unwrap();
        assert_eq!(total(&mut p), 1);
    }

    /// audit_in -> audit -> audit_log: a workflow whose closure is disjoint
    /// from the validate/count pipeline, so it can run speculatively while
    /// a `validate` fragment is prepared.
    fn deploy_audit(p: &mut Partition) -> Result<()> {
        p.ddl("CREATE STREAM audit_in (v INT)")?;
        p.ddl("CREATE TABLE audit_log (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")?;
        let mut sc = TxnScratch::new(None, BatchId::new(0));
        p.engine_mut()
            .execute_sql("INSERT INTO audit_log VALUES (1, 0)", &[], &mut sc, 0)?;
        p.register(
            ProcSpec::new("audit", |ctx| {
                let n = ctx.input().len() as i64;
                ctx.exec("bump", &[Value::Int(n)])?;
                Ok(())
            })
            .consumes("audit_in")
            .stmt("bump", "UPDATE audit_log SET n = n + ? WHERE k = 1"),
        )?;
        Ok(())
    }

    fn audit_total(p: &mut Partition) -> i64 {
        p.query("SELECT n FROM audit_log WHERE k = 1", &[])
            .unwrap()
            .scalar_i64()
            .unwrap()
    }

    #[test]
    fn speculation_requires_disjoint_closure() {
        let mut p = pipeline(PeConfig::default());
        deploy_audit(&mut p).unwrap();
        // No fragment prepared: nothing to speculate past.
        assert!(!p.speculation_safe("audit"));
        p.prepare_fragment(5, "validate", vec![vec![Value::Int(1)]])
            .unwrap();
        // Disjoint workflow may run; the fragment's own pipeline may not.
        assert!(p.speculation_safe("audit"));
        assert!(!p.speculation_safe("validate"));
        assert!(!p.speculation_safe("no_such_proc"));
        let err = p
            .submit_batch_speculative("validate", vec![vec![Value::Int(2)]])
            .unwrap_err();
        assert_eq!(err.kind(), "txn");
        // Plain submission stays refused while the fragment is held.
        assert!(p.submit_batch("audit", vec![vec![Value::Int(1)]]).is_err());
        p.decide_fragment(5, true).unwrap();
    }

    #[test]
    fn speculative_te_commits_and_survives_fragment_abort() {
        let mut p = pipeline(PeConfig::default());
        deploy_audit(&mut p).unwrap();
        p.prepare_fragment(8, "validate", vec![vec![Value::Int(3)]])
            .unwrap();
        let outcomes = p
            .submit_batch_speculative("audit", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .unwrap();
        assert!(outcomes.iter().all(|o| o.is_committed()));
        assert_eq!(audit_total(&mut p), 2);
        assert_eq!(p.stats().speculative_tes, 1);
        // The fragment is still held and aborts cleanly; the speculative
        // commit is unaffected (disjoint tables, so no cascade).
        assert_eq!(p.prepared_gtid(), Some(8));
        p.decide_fragment(8, false).unwrap();
        assert_eq!(audit_total(&mut p), 2);
        assert_eq!(total(&mut p), 0);
    }

    #[test]
    fn speculative_te_replays_equivalently_after_crash() {
        use crate::recovery::recover_with_decisions;

        let dir = std::env::temp_dir().join(format!("sstore-spec-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PeConfig {
            log: Some(LogConfig::new(&dir)),
            ..PeConfig::default()
        };
        let deploy = |p: &mut Partition| {
            deploy_pipeline(p)?;
            deploy_audit(p)
        };
        let mut p = Partition::new(config.clone()).unwrap();
        deploy(&mut p).unwrap();
        p.prepare_fragment(4, "validate", vec![vec![Value::Int(9)]])
            .unwrap();
        p.submit_batch_speculative("audit", vec![vec![Value::Int(1)]])
            .unwrap();
        p.decide_fragment(4, true).unwrap();
        let live = (total(&mut p), audit_total(&mut p));
        assert_eq!(live, (1, 1));

        // Crash + replay: the speculative batch was logged between the
        // prepare marker and the decision; replay resolves the fragment at
        // its marker, then the speculative record — same end state.
        drop(p);
        let decisions = std::collections::HashMap::from([(4u64, true)]);
        let mut r = recover_with_decisions(config, deploy, &decisions).unwrap();
        assert_eq!((total(&mut r), audit_total(&mut r)), live);
        assert_eq!(r.stats().twopc_commits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_snapshot_deferred_while_fragment_prepared() {
        let _fault = crate::fault_lock();
        let dir = std::env::temp_dir().join(format!("sstore-spec-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PeConfig {
            log: Some(LogConfig::new(&dir)),
            retention: Some(LogRetention::every_n_commits(1)),
            ..PeConfig::default()
        };
        let mut p = pipeline(config);
        deploy_audit(&mut p).unwrap();
        p.prepare_fragment(2, "validate", vec![vec![Value::Int(1)]])
            .unwrap();
        // Uncommitted fragment writes live in storage: snapshots refused.
        assert!(p.snapshot().is_err());
        p.submit_batch_speculative("audit", vec![vec![Value::Int(1)]])
            .unwrap();
        assert!(!LogConfig::new(&dir).snapshot_path().exists());
        // Once decided, the next retention point snapshots normally.
        p.decide_fragment(2, true).unwrap();
        p.submit_batch("validate", vec![vec![Value::Int(1)]])
            .unwrap();
        assert!(LogConfig::new(&dir).snapshot_path().exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cross_edge_emissions_buffer_in_outbox_not_local_triggers() {
        let mut p = pipeline(PeConfig::default());
        p.declare_cross_edge("validated", 0).unwrap();
        let outcomes = p
            .submit_batch("validate", vec![vec![Value::Int(4)], vec![Value::Int(-1)]])
            .unwrap();
        // Only the border TE ran; the emission went to the outbox.
        assert_eq!(outcomes.len(), 1);
        assert_eq!(p.stats().pe_trigger_firings, 0);
        assert_eq!(p.stats().forwards_out, 1);
        assert_eq!(total(&mut p), 0);
        let outbox = p.take_outbox();
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].stream, "validated");
        assert_eq!(outbox[0].rows, vec![Row::from(vec![Value::Int(4)])]);
        assert!(p.take_outbox().is_empty());
        // The batch stays open (upstream backup) until the edge is acked.
        assert!(p.has_pending_refs(outbox[0].batch));
        assert_eq!(p.stats().batches_completed, 0);
        p.edge_acked(outbox[0].batch).unwrap();
        assert!(!p.has_pending_refs(outbox[0].batch));
        assert_eq!(p.stats().batches_completed, 1);
        // The emitted rows were GC'd locally (terminally consumed).
        let validated = p.engine().db().resolve("validated").unwrap();
        assert_eq!(p.engine().db().table(validated).unwrap().len(), 0);
    }

    #[test]
    fn accept_forward_executes_consumers_and_dedupes() {
        let mut p = pipeline(PeConfig::default());
        let b = p
            .accept_forward("validated", 0, 5, vec![vec![Value::Int(1)].into()])
            .unwrap();
        assert!(b.is_some());
        p.run_queued().unwrap();
        assert_eq!(total(&mut p), 1);
        assert_eq!(p.stats().forwards_in, 1);
        // Same edge instance again (a re-forward after recovery): deduped.
        let dup = p
            .accept_forward("validated", 0, 5, vec![vec![Value::Int(1)].into()])
            .unwrap();
        assert!(dup.is_none());
        assert_eq!(p.stats().forwards_deduped, 1);
        assert_eq!(total(&mut p), 1);
        // A *newer* source batch is accepted; an older one from a
        // different source partition is independent.
        assert!(p
            .accept_forward("validated", 0, 6, vec![vec![Value::Int(1)].into()])
            .unwrap()
            .is_some());
        assert!(p
            .accept_forward("validated", 1, 2, vec![vec![Value::Int(1)].into()])
            .unwrap()
            .is_some());
        p.run_queued().unwrap();
        assert_eq!(total(&mut p), 3);
    }

    fn forward(src_partition: u32, src_batch: u64) -> InboundForward {
        InboundForward {
            stream: "validated".into(),
            src_partition,
            src_batch,
            rows: vec![vec![Value::Int(1)].into()],
        }
    }

    #[test]
    fn a_run_of_forwards_costs_one_log_sync() {
        let dir = std::env::temp_dir().join(format!("sstore-fwd-run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PeConfig {
            log: Some(LogConfig::with_group_commit(&dir, 8)),
            ..PeConfig::default()
        };
        let mut p = pipeline(config.clone());
        let before = p.stats().log_syncs;
        let logged = p.accept_forwards(vec![forward(0, 5), forward(0, 6), forward(1, 2)]);
        assert!(logged.iter().all(|r| matches!(r, Ok(Some(_)))));
        assert_eq!(p.stats().log_syncs, before + 1, "one sync for the run");
        assert_eq!(total(&mut p), 0, "logged, not yet executed");
        p.run_queued().unwrap();
        assert_eq!(total(&mut p), 3);
        assert_eq!(p.stats().log_syncs, before + 1, "executing syncs nothing");
        // The one-element wrapper is a run of one.
        p.accept_forward("validated", 0, 7, vec![vec![Value::Int(1)].into()])
            .unwrap();
        assert_eq!(p.stats().log_syncs, before + 2);
        p.run_queued().unwrap();
        drop(p);
        let mut r = crate::recovery::recover(config, deploy_pipeline).unwrap();
        assert_eq!(total(&mut r), 4, "every member replays exactly once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn accept_forwards_dedupes_within_the_run() {
        let mut p = pipeline(PeConfig::default());
        let logged = p.accept_forwards(vec![
            forward(0, 5),
            forward(0, 5),
            forward(0, 6),
            forward(0, 5),
        ]);
        assert!(
            matches!(logged[..], [Ok(Some(_)), Ok(None), Ok(Some(_)), Ok(None)]),
            "{logged:?}"
        );
        assert_eq!(p.stats().forwards_in, 2);
        assert_eq!(p.stats().forwards_deduped, 2);
        p.run_queued().unwrap();
        assert_eq!(total(&mut p), 2);
    }

    #[test]
    fn query_rejects_writes() {
        let mut p = pipeline(PeConfig::default());
        let err = p
            .query("INSERT INTO totals VALUES (2, 0)", &[])
            .unwrap_err();
        assert_eq!(err.kind(), "txn");
        // And the write was rolled back.
        assert_eq!(
            p.query("SELECT COUNT(*) FROM totals", &[])
                .unwrap()
                .scalar_i64()
                .unwrap(),
            1
        );
    }
}
