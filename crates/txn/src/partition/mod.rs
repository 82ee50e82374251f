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
//!
//! This module holds setup, border submission and the scheduler. The
//! site's other jobs live in child modules, each owning its state and its
//! rule: `participant` (the 2PC fragment held between prepare and
//! decision), `edges` (the cross-partition outbox and the exactly-once
//! inbox) and `durability` (the command log, snapshots and replay).

mod durability;
mod edges;
mod participant;

pub use edges::{InboundForward, RemoteForward};

use crate::log::{LogConfig, LogRecord, LogRetention};
use crate::procedure::{stmt_effects, ProcContext, ProcSpec, Procedure};
use crate::stats::PeStats;
use crate::transaction::{Invocation, TxnOutcome, TxnStatus};
use crate::workflow::Workflow;
use durability::Durability;
use edges::Edges;
use participant::Participant;
use sstore_common::hash::{HashMap, HashSet};
use sstore_common::obs::TraceCtx;
use sstore_common::{
    Batch, BatchId, Clock, Error, PartitionId, ProcId, Result, Row, TableId, TxnId, Value,
};
use sstore_engine::{ExecutionEngine, TxnScratch};
use sstore_sql::exec::QueryResult;
use std::collections::VecDeque;

/// Which system the partition behaves as.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Full S-Store: PE triggers push batches through workflows; scheduling
    /// preserves the stream transaction model's ordering guarantees.
    #[default]
    SStore,
    /// The paper's baseline: no PE triggers, no workflow awareness; the
    /// client drives every invocation (polling), and invocations execute
    /// in client-arrival order.
    HStore,
}

/// Partition configuration. The default is an S-Store partition p0
/// without durability.
#[derive(Debug, Clone, Default)]
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

/// One partition: engine + procedures + workflow + scheduler + durability.
///
/// `Debug` prints a summary (procedures hold closures).
pub struct Partition {
    engine: ExecutionEngine,
    procs: Vec<Procedure>,
    by_name: HashMap<String, ProcId>,
    workflow: Workflow,
    clock: Clock,
    stats: PeStats,
    config: PeConfig,
    queue: VecDeque<Invocation>,
    next_txn: u64,
    next_batch: u64,
    /// Outstanding TEs per batch (for completion acks).
    batch_refs: HashMap<u64, usize>,
    /// Remaining consumers per (stream, batch) before GC may run.
    gc_pending: HashMap<(TableId, u64), usize>,
    /// The 2PC participant's held fragment and gtid mark.
    participant: Participant,
    /// The cross-partition outbox and the inbound dedupe state.
    edges: Edges,
    /// The command log, the snapshot chain and the replay state.
    durable: Durability,
    /// Live batch id → lifecycle trace, for attributing later stages
    /// (fsync, forward emission, edge ack) back to the submission.
    /// Entries die with the batch's last reference.
    batch_traces: HashMap<u64, TraceCtx>,
    /// The undo and appended buffers the next TE runs in: `run_body`
    /// takes them, and `post_te` gives them back empty. A held 2PC
    /// fragment owns the scratch it ran in until its decision.
    spare: TxnScratch,
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
        let durable = Durability::open(config.log.as_ref())?;
        let stats = PeStats {
            partition: config.partition,
            ..PeStats::default()
        };
        Ok(Partition {
            engine: ExecutionEngine::new(),
            procs: Vec::new(),
            by_name: HashMap::default(),
            workflow: Workflow::default(),
            clock: Clock::new(),
            stats,
            config,
            queue: VecDeque::new(),
            next_txn: 1,
            next_batch: 0,
            batch_refs: HashMap::default(),
            gc_pending: HashMap::default(),
            participant: Participant::default(),
            edges: Edges::default(),
            durable,
            batch_traces: HashMap::default(),
            spare: TxnScratch::default(),
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
        let mut statements = Vec::new();
        let mut read_set = HashSet::default();
        let mut write_set = HashSet::default();
        for (name, sql) in &spec.statements {
            let planned = self.engine.prepare_deployed(sql)?;
            let (r, w) = stmt_effects(&planned);
            read_set.extend(r);
            write_set.extend(w);
            if statements.iter().any(|(n, _)| n == name) {
                return Err(Error::AlreadyExists(format!(
                    "statement `{name}` in `{}`",
                    spec.name
                )));
            }
            statements.push((name.clone(), planned));
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
        self.workflow = self.workflow.rebuild(&self.procs)?;
        Ok(id)
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

    /// Reset PE and EE counters (the partition id is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = PeStats {
            partition: self.config.partition,
            ..PeStats::default()
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
        self.enqueue(pid, proc, rows, None, true)
    }

    /// Submit a *group* of border batches for one procedure in a single
    /// scheduler pass: one client↔PE round trip for the whole group, all
    /// records logged back-to-back (group commit amortizes the fsyncs),
    /// then one drain. This is the PE-boundary saving the cluster runtime
    /// exploits when its ingest queue holds several batches for the same
    /// procedure. Each member carries its batch's lifecycle trace (`None`
    /// when tracing is off), attached to the batch id the member gets. A
    /// one-batch group is a plain submission: only groups of two or more
    /// count in `group_submissions` and `batches_coalesced`.
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
        batches: Vec<(Vec<R>, Option<TraceCtx>)>,
    ) -> Result<Vec<Result<Vec<TxnOutcome>>>> {
        if batches.is_empty() {
            return Ok(Vec::new());
        }
        let pid = self.border_proc_id(proc)?;
        self.stats.client_pe_trips += 1;
        let n = batches.len();
        if n > 1 {
            self.stats.group_submissions += 1;
            self.stats.batches_coalesced += n as u64;
        }
        // The group's batches take consecutive ids from `first` on.
        let first = self.next_batch + 1;
        let mut groups: Vec<Vec<TxnOutcome>> = Vec::with_capacity(n);
        let mut enqueue_err: Option<Error> = None;
        for (rows, trace) in batches {
            if let Err(e) = self.enqueue(pid, proc, rows, trace, true) {
                // This submission (and the rest of the group) was never
                // enqueued; the already-enqueued prefix still runs below.
                enqueue_err = Some(e);
                break;
            }
            groups.push(Vec::new());
        }
        // Attribute execution-order outcomes back to their border batch
        // (downstream TEs carry the border batch's id).
        for o in self.run_queued()? {
            if let Some(g) = groups.get_mut(o.batch.raw().wrapping_sub(first) as usize) {
                g.push(o);
            }
        }
        let mut results: Vec<Result<Vec<TxnOutcome>>> = groups.into_iter().map(Ok).collect();
        if let Some(e) = enqueue_err {
            results.resize(n, Err(e));
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

    /// Assign the next batch id, log the input record (`BorderBatch` for
    /// a border submission, `Invocation` for a direct invoke), attach
    /// `trace`, and enqueue the invocation. No round-trip accounting —
    /// callers decide how many client↔PE trips the submission cost.
    fn enqueue<R: Into<Row>>(
        &mut self,
        pid: ProcId,
        proc: &str,
        rows: Vec<R>,
        trace: Option<TraceCtx>,
        border: bool,
    ) -> Result<BatchId> {
        let rows: Vec<Row> = rows.into_iter().map(Into::into).collect();
        let ts = self.clock.now();
        let batch = self.open_batch(trace, |batch| {
            let (proc, rows) = (proc.to_string(), rows.clone());
            if border {
                LogRecord::BorderBatch {
                    batch,
                    proc,
                    rows,
                    ts,
                }
            } else {
                LogRecord::Invocation {
                    batch,
                    proc,
                    rows,
                    ts,
                }
            }
        })?;
        if border {
            self.stats.batches_submitted += 1;
        }
        self.batch_refs.insert(batch.raw(), 1);
        self.queue.push_back(Invocation {
            proc: pid,
            batch: Batch::new(batch, rows),
        });
        Ok(batch)
    }

    /// Directly invoke a procedure (H-Store mode requests, and OLTP-style
    /// requests in either mode). One TE; returns its outcome.
    pub fn invoke<R: Into<Row>>(&mut self, proc: &str, rows: Vec<R>) -> Result<TxnOutcome> {
        let pid = self.proc_id(proc)?;
        self.stats.client_pe_trips += 1;
        self.enqueue(pid, proc, rows, None, false)?;
        self.run_queued()?
            .into_iter()
            .next()
            .ok_or_else(|| Error::Internal("invoke produced no outcome".into()))
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

    /// Run every queued TE (and the TEs their commits trigger) to
    /// completion, serially, returning outcomes in execution order. At
    /// quiescence (the queue is empty again) the retention policy may
    /// snapshot + truncate.
    pub fn run_queued(&mut self) -> Result<Vec<TxnOutcome>> {
        if let Some(gtid) = self.prepared_gtid() {
            // Serial-execution invariant: the prepared fragment's
            // uncommitted writes are sitting in storage; running another
            // TE now could read them and make an abort un-rollbackable.
            return Err(Error::Txn(format!(
                "cannot run TEs while 2PC fragment gtid {gtid} awaits its decision"
            )));
        }
        let mut outcomes = Vec::new();
        while let Some(inv) = self.queue.pop_front() {
            let (outcome, scratch) = self.run_te(&inv)?;
            self.post_te(&inv, &outcome, scratch)?;
            outcomes.push(outcome);
        }
        self.maybe_snapshot_for_retention();
        Ok(outcomes)
    }

    fn serial_workflow(&self) -> bool {
        self.config
            .serial_workflow
            .unwrap_or_else(|| self.workflow.has_shared_writables())
    }

    /// Run `pid`'s body over `input` under the next transaction id, in
    /// the partition's spare scratch, leaving its undo log open: the
    /// caller commits or rolls back.
    fn run_body(
        &mut self,
        pid: ProcId,
        input: &Batch,
    ) -> (TxnId, TxnScratch, Option<QueryResult>, Result<()>) {
        let txn = TxnId::new(self.next_txn);
        self.next_txn += 1;
        let now = self.clock.now();
        let proc = &self.procs[pid.raw() as usize];
        let mut scratch = std::mem::take(&mut self.spare);
        scratch.proc = Some(pid);
        scratch.batch = input.id;
        let mut ctx = ProcContext {
            engine: &mut self.engine,
            scratch: &mut scratch,
            statements: &proc.statements,
            input,
            now,
            output_stream: proc.output_stream,
            response: None,
        };
        let result = (proc.handler)(&mut ctx);
        let response = ctx.response.take();
        (txn, scratch, response, result)
    }

    /// Run one TE: execute the procedure body over its batch, commit or
    /// roll back atomically. Returns the outcome and the scratch it ran
    /// in, its undo log empty again and its `appended` holding the stream
    /// rows the body emitted (which `post_te` drops unless it committed).
    fn run_te(&mut self, inv: &Invocation) -> Result<(TxnOutcome, TxnScratch)> {
        let start = std::time::Instant::now();
        let (txn, mut scratch, response, result) = self.run_body(inv.proc, &inv.batch);
        let (status, response, error) = match result {
            Ok(()) => {
                scratch.undo.commit();
                self.stats.committed += 1;
                self.durable.note_commit();
                self.stats.record_latency(start.elapsed().as_nanos());
                (TxnStatus::Committed, response, None)
            }
            Err(e) => {
                scratch.undo.rollback(self.engine.db_mut())?;
                let status = self.count_failure(&e);
                (status, None, Some(e.to_string()))
            }
        };
        let outcome = TxnOutcome {
            txn,
            proc: inv.proc,
            batch: inv.batch.id,
            status,
            response,
            error,
        };
        Ok((outcome, scratch))
    }

    /// Count a TE body's failure: an explicit abort, or an engine error.
    fn count_failure(&mut self, e: &Error) -> TxnStatus {
        if e.is_user_abort() {
            self.stats.user_aborts += 1;
            TxnStatus::Aborted
        } else {
            self.stats.failed += 1;
            TxnStatus::Failed
        }
    }

    /// Post-commit bookkeeping: PE triggers over the rows a committed TE
    /// appended (in `scratch`), GC, batch completion acks. The scratch,
    /// emptied, becomes the partition's spare again.
    fn post_te(
        &mut self,
        inv: &Invocation,
        outcome: &TxnOutcome,
        mut scratch: TxnScratch,
    ) -> Result<()> {
        let b = inv.batch.id;

        if outcome.is_committed() && self.config.mode == ExecMode::SStore {
            // One output batch per stream, streams in first-append order:
            // each pass moves the first stream's rows out and keeps the
            // rest, in order, for the next.
            let (scheduled, mut later) = (self.queue.len(), Vec::new());
            while let Some(&(stream, _)) = scratch.appended.first() {
                let mut rows = Vec::with_capacity(scratch.appended.len());
                for (s, row) in scratch.appended.drain(..) {
                    if s == stream {
                        rows.push(row);
                    } else {
                        later.push((s, row));
                    }
                }
                scratch.appended.append(&mut later);
                self.schedule_emitted(b, stream, rows)?;
            }
            if self.serial_workflow() {
                // Downstream of this batch runs before anything queued
                // (whole-workflow serial execution).
                let n = self.queue.len() - scheduled;
                self.queue.rotate_right(n);
            }
        }
        scratch.appended.clear();
        self.spare = scratch;

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

    /// Hand the `rows` a committed TE of batch `b` emitted on `stream` to
    /// its consumers, queued at the back: a declared cross-partition edge
    /// sends them to the outbox for the cluster router instead. The last
    /// consumer takes the rows; each other one gets a copy of the handles.
    fn schedule_emitted(&mut self, b: BatchId, stream: TableId, rows: Vec<Row>) -> Result<()> {
        if let Some(key_col) = self.workflow.remote_key_col(stream) {
            return self.emit_remote(b, stream, key_col, rows);
        }
        let consumers = self.workflow.consumers_of(stream);
        let Some((&last, others)) = consumers.split_last() else {
            return Ok(());
        };
        self.gc_pending.insert((stream, b.raw()), consumers.len());
        self.stats.pe_trigger_firings += consumers.len() as u64;
        *self.batch_refs.entry(b.raw()).or_insert(0) += consumers.len();
        for &proc in others {
            self.queue.push_back(Invocation {
                proc,
                batch: Batch::new(b, rows.clone()),
            });
        }
        self.queue.push_back(Invocation {
            proc: last,
            batch: Batch::new(b, rows),
        });
        Ok(())
    }

    /// Resolve `stream` by name, refusing anything that is not a stream.
    fn stream_id(&self, stream: &str) -> Result<TableId> {
        let sid = self.engine.db().resolve(stream)?;
        if !self.engine.db().kind(sid)?.is_stream() {
            return Err(Error::Constraint(format!("`{stream}` is not a stream")));
        }
        Ok(sid)
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
        let mut seen_first: HashMap<i64, usize> = HashMap::default();
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
        let untraced = |b: &Vec<Row>| (b.clone(), None);
        let results = grouped
            .submit_batch_group("validate", batches.iter().map(untraced).collect())
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

        // A one-batch group is a plain submission: it coalesces nothing.
        let mut single = pipeline(PeConfig::default());
        let results = single
            .submit_batch_group("validate", vec![untraced(&batches[1])])
            .unwrap();
        assert!(results[0]
            .as_ref()
            .unwrap()
            .iter()
            .all(|o| o.is_committed()));
        assert_eq!(single.stats().group_submissions, 0);
        assert_eq!(single.stats().batches_coalesced, 0);
        assert_eq!(single.stats().client_pe_trips, 1);
    }

    #[test]
    fn grouped_submission_rejects_interior_procs_and_empty_is_noop() {
        let mut p = pipeline(PeConfig::default());
        let err = p
            .submit_batch_group("count", vec![(vec![vec![Value::Int(1)]], None)])
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
                None,
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
        p.prepare_fragment(9, "validate", vec![vec![Value::Int(5)]], None)
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
            .prepare_fragment(3, "boom", vec![vec![Value::Int(1)]], None)
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
        p.prepare_fragment(1, "validate", vec![vec![Value::Int(1)]], None)
            .unwrap();
        assert!(p.decide_fragment(2, true).is_err());
        assert_eq!(p.prepared_gtid(), Some(1));
        // A second prepare while one is held is refused.
        assert!(p
            .prepare_fragment(3, "validate", vec![vec![Value::Int(1)]], None)
            .is_err());
        p.decide_fragment(1, true).unwrap();
        assert_eq!(total(&mut p), 1);
    }

    /// A retention snapshot that fails never fails the batch that reached
    /// the retention point: the batch commits, the failure is counted,
    /// and the next retention point writes the image.
    #[test]
    fn failed_retention_snapshot_is_counted_and_retried_at_the_next_point() {
        let _fault = crate::fault_lock();
        use crate::recovery::recover;
        use sstore_common::fault;
        let dir = std::env::temp_dir().join(format!("sstore-retry-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PeConfig {
            log: Some(LogConfig::new(&dir)),
            retention: Some(LogRetention::every_n_commits(2)),
            ..PeConfig::default()
        };
        let image = LogConfig::new(&dir).snapshot_path();
        let mut p = pipeline(config.clone());
        // The batch commits two TEs: a retention point, whose image
        // write fails.
        fault::arm_io_error("snapshot-io-error", 1);
        p.submit_batch("validate", vec![vec![Value::Int(1)]])
            .unwrap();
        fault::disarm();
        assert_eq!(total(&mut p), 1, "the batch committed");
        assert_eq!(p.stats().retention_failures, 1);
        assert!(!image.exists());
        // The next retention point writes the image.
        p.submit_batch("validate", vec![vec![Value::Int(1)]])
            .unwrap();
        assert_eq!(p.stats().retention_failures, 1);
        assert_eq!(p.stats().snapshots_full, 1);
        assert!(image.exists());
        drop(p);
        let mut recovered = recover(config, deploy_pipeline).unwrap();
        assert_eq!(total(&mut recovered), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retention_snapshot_deferred_while_fragment_prepared() {
        let _fault = crate::fault_lock();
        let dir = std::env::temp_dir().join(format!("sstore-prep-snap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = PeConfig {
            log: Some(LogConfig::new(&dir)),
            retention: Some(LogRetention::every_n_commits(1)),
            ..PeConfig::default()
        };
        let mut p = pipeline(config);
        p.prepare_fragment(2, "validate", vec![vec![Value::Int(1)]], None)
            .unwrap();
        // Uncommitted fragment writes live in storage: snapshots are
        // refused, and so is running any other TE.
        assert!(p.snapshot().is_err());
        let err = p
            .submit_batch("validate", vec![vec![Value::Int(1)]])
            .unwrap_err();
        assert_eq!(err.kind(), "txn");
        assert!(!LogConfig::new(&dir).snapshot_path().exists());
        // The decision drains the deferred batch, and that retention
        // point writes the image.
        p.decide_fragment(2, true).unwrap();
        assert_eq!(total(&mut p), 2);
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
            trace: None,
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
    fn each_forward_in_a_run_keeps_its_own_trace() {
        // A re-forward rebuilt by recovery carries no trace; a live one
        // does. In one run, each local batch gets its own member's trace.
        let mut p = pipeline(PeConfig::default());
        let traced = TraceCtx { id: 7, t0: 0 };
        let ids: Vec<BatchId> = p
            .accept_forwards(vec![
                forward(0, 5),
                InboundForward {
                    trace: Some(traced),
                    ..forward(0, 6)
                },
            ])
            .into_iter()
            .map(|r| r.unwrap().unwrap())
            .collect();
        assert_eq!(p.batch_traces.get(&ids[0].raw()), None);
        assert_eq!(p.batch_traces.get(&ids[1].raw()), Some(&traced));
        p.run_queued().unwrap();
        assert!(p.batch_traces.is_empty(), "traces die with their batches");
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
