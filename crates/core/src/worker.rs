//! The partition worker: one supervised thread per partition, owning its
//! [`SStore`] outright and draining its ingest queue in FIFO order.
//!
//! # Supervision
//!
//! The drain loop runs under `catch_unwind`, so a panic inside a
//! procedure, a test closure, or an injected fault does not silently
//! wedge the partition. The supervisor transitions the partition through
//! [`PartitionHealth`] states — `Healthy → Restarting → Healthy` when it
//! can re-run log + snapshot recovery and re-attach the *same* ingest
//! queue (exactly-once is preserved by the durable dedupe state: border
//! records replay, edge forwards dedupe by high-water mark, 2PC fragments
//! resolve against the coordinator's decision log), or `→ Down` when the
//! partition is non-durable, recovery fails, or the restart budget
//! ([`MAX_WORKER_RESTARTS`]) is spent. A down partition resolves
//! everything queued or subsequently sent with typed
//! [`Error::PartitionDown`] — clients never panic and never hang.
//!
//! In-flight work at the moment of the crash resolves by **provable
//! fate**: submissions the worker had not started are retryable
//! (`PartitionDown` while restarting); submissions that may already have
//! reached the command log resolve as non-retryable [`Error::Io`] — the
//! record replays at recovery, so a blind client resubmit would double
//! the batch ([`Error::is_retryable`] encodes exactly this split).
//!
//! # The 2PC participant's wait
//!
//! Between its vote and the decision a worker **defers** every other
//! queued job, whatever it is — the fragment's uncommitted writes are in
//! storage, and serial execution is what makes the rollback sound. Once
//! the decision is applied, the deferred jobs run in arrival order.
//!
//! A worker that dies *between its yes-vote and the decision* must not
//! lose the decision: its supervisor drains the queue for the matching
//! `Decide` (the coordinator always sends phase 2 once it collected the
//! vote) and folds it into the recovery decision map, so the restarted
//! partition resolves the in-doubt fragment exactly as the coordinator
//! did.

use crate::builder::SStoreBuilder;
use crate::cluster::{ClusterShared, PartitionHealth};
use crate::coordinator::CoordinatorLog;
use crate::hub::{EdgeKey, HubMsg};
use crate::ingest::IngestQueue;
use crate::SStore;
use sstore_common::obs::{self, Stage, TraceCtx};
use sstore_common::{fault, slog, BatchId, Error, PartitionId, Result, Row};
use sstore_txn::recovery::recover_with_decisions;
use sstore_txn::{InboundForward, TxnOutcome};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

/// One message on a partition worker's ingest queue.
pub(crate) enum WorkerMsg {
    /// A border-batch shard for this partition.
    Ingest {
        proc: String,
        rows: Vec<Row>,
        reply: ReplyTx,
        /// Dataflow trace minted at submission (None when tracing is off).
        trace: Option<TraceCtx>,
    },
    /// Arbitrary code against the owned partition (queries, clock
    /// advances, stats, snapshots, barriers, tests). The closure captures
    /// its own reply channel.
    Exec(Box<dyn FnOnce(&mut SStore) + Send>),
    /// 2PC phase 1: prepare a fragment of global transaction `gtid`.
    /// The worker votes on `vote`, then blocks (deferring other queued
    /// jobs) until the matching [`WorkerMsg::Decide`] arrives, and
    /// finally resolves `reply` with the fragment's outcomes.
    Prepare {
        gtid: u64,
        proc: String,
        rows: Vec<Row>,
        vote: mpsc::Sender<Result<()>>,
        reply: ReplyTx,
        /// Dataflow trace minted at submission (None when tracing is off).
        trace: Option<TraceCtx>,
    },
    /// 2PC phase 2: the coordinator's durable decision for `gtid`.
    Decide { gtid: u64, commit: bool },
    /// A shard of a cross-partition workflow edge, delivered by the hub.
    /// It carries the emitting batch's trace, so a multi-hop dataflow
    /// keeps one end-to-end trace id.
    Forward(InboundForward),
    /// Every receiver of `batch`'s edge forwards has durably logged its
    /// shard: release the emitting batch's upstream backup.
    EdgeAck { batch: BatchId },
}

pub(crate) type ReplyTx = mpsc::Sender<Result<Vec<TxnOutcome>>>;

/// The deterministic redeployment closure every worker's supervisor
/// re-runs to restart a crashed partition.
pub(crate) type SetupFn = Arc<dyn Fn(&mut SStore) -> Result<()> + Send + Sync>;

/// Everything a worker's supervisor needs to run — and re-run — the
/// drain loop: the partition's own site builder (durability already
/// redirected to its `p{i}` dir), the deterministic redeployment
/// closure, and the shared cluster plumbing.
pub(crate) struct WorkerCtx {
    pub(crate) id: PartitionId,
    pub(crate) builder: SStoreBuilder,
    pub(crate) setup: SetupFn,
    pub(crate) coord_dir: Option<PathBuf>,
    pub(crate) queue: IngestQueue<WorkerMsg>,
    pub(crate) hub: mpsc::Sender<HubMsg>,
    pub(crate) shared: Arc<ClusterShared>,
}

/// Crash bookkeeping the worker maintains *outside* `catch_unwind`, so
/// its supervisor can resolve in-flight work with the right error after
/// a panic instead of silently dropping reply channels.
#[derive(Default)]
struct CrashCtx {
    /// Reply channels of the submissions currently executing. Resolved
    /// by the supervisor: retryable [`Error::PartitionDown`] when the
    /// crash provably preceded execution (`uncertain == false`),
    /// non-retryable [`Error::Io`] otherwise (the border record may be
    /// durable and would replay — a blind resubmit would double it).
    ingest_replies: Vec<ReplyTx>,
    /// True from just before the submit call (which writes the border
    /// record) until its result is in hand.
    uncertain: bool,
    /// The run of edge shards being logged right now, not yet reported
    /// to the hub: the supervisor reports each failed
    /// (`Logged { ok: false }`) so the hub's ack bookkeeping never leaks
    /// an envelope.
    in_flight_forwards: Vec<EdgeKey>,
    /// Set between a yes-vote and the coordinator's decision. On a crash
    /// inside that window the supervisor fails the reply (in-doubt:
    /// non-retryable), then drains the queue for the decision and folds
    /// it into restart recovery.
    awaiting_decision: Option<(u64, ReplyTx)>,
    /// Messages deferred during a 2PC decision wait; survives a crash in
    /// that window so no queued work is lost.
    deferred: Vec<WorkerMsg>,
}

/// How many times one partition's supervisor will re-run recovery before
/// declaring the partition down — a deterministic crash must not restart
/// forever.
const MAX_WORKER_RESTARTS: u32 = 3;

/// Push every outbox envelope to the hub. Counted into `in_flight`
/// *before* the send so quiesce can never observe a gap.
fn flush_outbox(db: &mut SStore, ctx: &WorkerCtx) {
    for fwd in db.take_outbox() {
        ctx.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        if ctx.hub.send(HubMsg::Forward { src: ctx.id, fwd }).is_err() {
            // Hub already gone (shutdown): the batch stays unacked and
            // replays at the next recovery.
            ctx.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Why the drain loop returned (as opposed to panicking out of it).
enum LoopExit {
    /// The queue closed: the cluster is shutting down.
    Shutdown,
    /// The partition's command log is poisoned (a group write failed AND
    /// its rollback failed — the log tail has unknown durability). The
    /// in-memory state is ahead of an unknowable durable prefix, so the
    /// supervisor must rebuild from disk exactly as after a panic.
    Poisoned,
}

/// The supervision frame around one partition's drain loop.
///
/// The loop runs under `catch_unwind` with the [`SStore`] moved *into*
/// the guarded closure: a panic drops the partition during the unwind
/// (its command log's `Drop` skips the group-commit flush while
/// `std::thread::panicking()`, so a torn group is discarded, not
/// synced). The bookkeeping that must survive the panic — parked
/// messages and [`CrashCtx`] — lives out here and is only *borrowed* by
/// the loop.
///
/// After a crash the supervisor (1) reports every member of a
/// half-logged run of edge shards to the hub as failed, (2) resolves
/// in-flight submission replies by provable fate (see [`CrashCtx`]),
/// (3) re-parks deferred messages,
/// (4) if the worker died between a yes-vote and the decision, drains
/// the queue for that decision (the coordinator always sends phase 2),
/// and (5) either re-runs recovery and re-enters the loop on the same
/// queue, or — when the partition is non-durable, recovery fails, or
/// the restart budget is spent — marks the partition down and becomes a
/// tombstone that resolves all remaining work with
/// [`Error::PartitionDown`].
pub(crate) fn supervised_worker(ctx: WorkerCtx, first: SStore) {
    let mut db = first;
    let mut pending: VecDeque<WorkerMsg> = VecDeque::new();
    let mut crash = CrashCtx::default();
    let mut restarts_here = 0u32;
    loop {
        let exit = catch_unwind(AssertUnwindSafe(|| {
            worker_loop(&ctx, db, &mut pending, &mut crash)
        }));
        match exit {
            Ok(LoopExit::Shutdown) => return,
            Ok(LoopExit::Poisoned) => {
                slog!(
                    Warn, partition = ctx.id.raw();
                    "command log poisoned; rebuilding from disk"
                );
            }
            Err(_) => {
                slog!(Warn, partition = ctx.id.raw(); "worker panicked; supervising");
            }
        }
        ctx.shared.set_health(ctx.id, PartitionHealth::Restarting);

        // (1) Shards that were being logged when the worker died: report
        // them failed so the hub's envelope bookkeeping completes (the
        // acks are withheld; the emitters replay the batches at recovery).
        for edge in crash.in_flight_forwards.drain(..) {
            let _ = ctx.hub.send(HubMsg::Logged { edge, ok: false });
        }

        // (2) In-flight submission replies, resolved by provable fate.
        let err = if crash.uncertain {
            Error::Io(format!(
                "partition {} restarted mid-batch; the border record may be durable and \
                 would replay at recovery — do not resubmit blindly",
                ctx.id
            ))
        } else {
            Error::PartitionDown(format!(
                "partition {} is restarting; the submission was not executed (retryable)",
                ctx.id
            ))
        };
        for reply in crash.ingest_replies.drain(..) {
            let _ = reply.send(Err(err.clone()));
        }
        crash.uncertain = false;

        // (3) Messages deferred during a 2PC wait go back to the front,
        // oldest first.
        for m in crash.deferred.drain(..).rev() {
            pending.push_front(m);
        }

        // (4) Died between a yes-vote and the decision: the in-doubt
        // reply fails (outcome unknown to this client), and the decision
        // the coordinator will send — it has our vote, so phase 2 always
        // follows — must be learned before recovery, or the restarted
        // partition could resolve the fragment against a decision map
        // read *before* the coordinator logged its commit.
        let mut learned: Option<(u64, bool)> = None;
        let mut closed = false;
        if let Some((gtid, reply)) = crash.awaiting_decision.take() {
            let _ = reply.send(Err(Error::Io(format!(
                "partition {} restarted while gtid {gtid} was in doubt; the outcome \
                 resolves at recovery",
                ctx.id
            ))));
            loop {
                match ctx.queue.recv() {
                    Some(WorkerMsg::Decide { gtid: g, commit }) if g == gtid => {
                        learned = Some((gtid, commit));
                        break;
                    }
                    Some(other) => pending.push_back(other),
                    None => {
                        closed = true;
                        break;
                    }
                }
            }
        }

        // (5) Restart or go down.
        let durable = ctx.builder.config().log.is_some();
        if closed || !durable || restarts_here >= MAX_WORKER_RESTARTS {
            if !durable {
                slog!(
                    Error, partition = ctx.id.raw();
                    "partition is non-durable and cannot be restarted; down"
                );
            } else if restarts_here >= MAX_WORKER_RESTARTS {
                slog!(
                    Error, partition = ctx.id.raw();
                    "partition spent its restart budget ({MAX_WORKER_RESTARTS}); down"
                );
            }
            down_tombstone(&ctx, &mut pending);
            return;
        }
        match restart_partition(&ctx, learned) {
            Ok(p) => {
                restarts_here += 1;
                ctx.shared.restarts.fetch_add(1, Ordering::SeqCst);
                ctx.shared.set_health(ctx.id, PartitionHealth::Healthy);
                db = p;
            }
            Err(e) => {
                slog!(Error, partition = ctx.id.raw(); "restart failed ({e}); down");
                down_tombstone(&ctx, &mut pending);
                return;
            }
        }
    }
}

/// Re-run log + snapshot recovery for one partition, folding in a 2PC
/// decision the supervisor learned over the queue (it may be newer than
/// what `coord.log` held when read).
fn restart_partition(ctx: &WorkerCtx, learned: Option<(u64, bool)>) -> Result<SStore> {
    let dir = ctx
        .coord_dir
        .as_ref()
        .ok_or_else(|| Error::Recovery("a non-durable partition cannot be restarted".into()))?;
    let mut decisions = CoordinatorLog::read(dir)?.decisions;
    if let Some((gtid, commit)) = learned {
        decisions.insert(gtid, commit);
    }
    recover_with_decisions(ctx.builder.config().clone(), |p| (ctx.setup)(p), &decisions)
}

/// The terminal state of a down partition: resolve everything queued —
/// and everything that keeps arriving until the cluster drops — with
/// typed errors instead of letting reply channels dangle. Clients see
/// [`Error::PartitionDown`], never a panic or a hang.
fn down_tombstone(ctx: &WorkerCtx, pending: &mut VecDeque<WorkerMsg>) {
    ctx.shared.set_health(ctx.id, PartitionHealth::Down);
    ctx.queue.mark_dead();
    let down = || Error::PartitionDown(format!("partition {} is down", ctx.id));
    // Until the queue is closed and drained: shutdown.
    while let Some(msg) = pending.pop_front().or_else(|| ctx.queue.recv()) {
        match msg {
            WorkerMsg::Ingest { reply, .. } => {
                let _ = reply.send(Err(down()));
            }
            // Dropping the closure drops its captured reply sender; the
            // caller's recv error is mapped to PartitionDown.
            WorkerMsg::Exec(f) => drop(f),
            WorkerMsg::Prepare { vote, reply, .. } => {
                let _ = vote.send(Err(down()));
                let _ = reply.send(Err(down()));
            }
            WorkerMsg::Decide { .. } | WorkerMsg::EdgeAck { .. } => {}
            WorkerMsg::Forward(f) => {
                // Not logged here: withhold the ack so the emitter
                // replays the batch at the next recovery.
                let edge = (f.src_partition, f.src_batch, f.stream);
                let _ = ctx.hub.send(HubMsg::Logged { edge, ok: false });
            }
        }
    }
}

/// Take the run of messages at the head of the queue — what `pending`
/// holds, then whatever the queue yields without blocking — for as long
/// as `take` accepts them. The first message `take` hands back stays at
/// the head, so FIFO order holds.
fn take_run<T>(
    queue: &IngestQueue<WorkerMsg>,
    pending: &mut VecDeque<WorkerMsg>,
    mut take: impl FnMut(WorkerMsg) -> std::result::Result<T, WorkerMsg>,
) -> Vec<T> {
    let mut run = Vec::new();
    while let Some(m) = pending.pop_front().or_else(|| queue.try_recv()) {
        match take(m) {
            Ok(t) => run.push(t),
            Err(m) => {
                pending.push_front(m);
                break;
            }
        }
    }
    run
}

/// The partition worker: drain the ingest queue in FIFO order until the
/// cluster handle drops. Consecutive queued submissions for the same
/// procedure are coalesced into one PE scheduler pass
/// ([`sstore_txn::Partition::submit_batch_group`]) — per-submission order
/// is preserved, so the final state is byte-for-byte what one-at-a-time
/// execution would produce, minus the per-submission boundary overhead.
/// Consecutive queued edge shards are likewise logged as one run under
/// one sync ([`sstore_txn::Partition::accept_forwards`]).
///
/// 2PC discipline: after voting on a [`WorkerMsg::Prepare`], the worker
/// pulls messages looking only for the matching [`WorkerMsg::Decide`],
/// deferring everything else (order preserved) — the prepared fragment's
/// uncommitted writes must not be observed by other TEs.
///
/// Runs under the supervisor's `catch_unwind`; `pending` and `crash` are
/// borrowed from outside the unwind boundary (see [`supervised_worker`]).
fn worker_loop(
    ctx: &WorkerCtx,
    mut db: SStore,
    pending: &mut VecDeque<WorkerMsg>,
    crash: &mut CrashCtx,
) -> LoopExit {
    let id = ctx.id;
    let mut disconnected = false;
    // A recovered partition may come up with re-forwards already queued.
    flush_outbox(&mut db, ctx);
    loop {
        let msg = match pending.pop_front() {
            Some(m) => m,
            None if disconnected => return LoopExit::Shutdown,
            None => match ctx.queue.recv() {
                Some(m) => m,
                None => return LoopExit::Shutdown, // queue closed + drained
            },
        };
        match msg {
            WorkerMsg::Ingest {
                proc,
                rows,
                reply,
                trace,
            } => {
                // Coalesce the same-procedure submissions already
                // waiting. A message for a different procedure (or kind)
                // stays parked so FIFO order holds.
                let mut group = vec![(rows, reply, trace)];
                group.extend(take_run(&ctx.queue, pending, |m| match m {
                    WorkerMsg::Ingest {
                        proc: p,
                        rows,
                        reply,
                        trace,
                    } if p == proc => Ok((rows, reply, trace)),
                    other => Err(other),
                }));
                // Every group member leaves the queue at this instant;
                // each batch's trace travels with its rows.
                let mut batches = Vec::with_capacity(group.len());
                for (rows, reply, trace) in group {
                    if let Some(t) = trace {
                        obs::record(Stage::Queued, t);
                    }
                    crash.ingest_replies.push(reply);
                    batches.push((rows, trace));
                }
                let traces: Vec<_> = batches.iter().map(|(_, t)| *t).collect();
                // Kill point: the group is captured but nothing has been
                // logged or executed — a crash here resolves every reply
                // as retryable PartitionDown.
                fault::kill_point("worker-killed-live");
                crash.uncertain = true;
                // Per-submission results: a batch that committed resolves
                // Ok even when a later group member failed to enqueue —
                // the same answer it would have gotten uncoalesced.
                let results = db
                    .submit_batch_group(&proc, batches)
                    .unwrap_or_else(|e| traces.iter().map(|_| Err(e.clone())).collect());
                let replies = crash.ingest_replies.drain(..).zip(traces);
                for ((reply, trace), result) in replies.zip(results) {
                    if let (Some(t), Ok(_)) = (trace, &result) {
                        obs::record(Stage::Executed, t);
                    }
                    let _ = reply.send(result);
                }
                crash.uncertain = false;
            }
            WorkerMsg::Exec(f) => f(&mut db),
            WorkerMsg::Prepare {
                gtid,
                proc,
                rows,
                vote,
                reply,
                trace,
            } => {
                if let Some(t) = trace {
                    obs::record(Stage::Queued, t);
                }
                // The fragment log write makes the fate uncertain; a
                // crash before the vote is sent aborts the gtid anyway
                // (the coordinator reads the dropped vote channel as a
                // no), so the reply may simply drop.
                crash.uncertain = true;
                let prepared = db.prepare_fragment(gtid, &proc, rows, trace);
                crash.uncertain = false;
                if let (Some(t), true) = (trace, prepared.is_ok()) {
                    obs::record(Stage::Prepared, t);
                }
                let vote_err = prepared.as_ref().err().cloned();
                if vote_err.is_none() {
                    // From the yes-vote on, the coordinator may commit:
                    // a crash in this window must learn the decision
                    // (see supervised_worker step 4).
                    crash.awaiting_decision = Some((gtid, reply.clone()));
                }
                let _ = vote.send(prepared.map(|_| ()));
                // Block for the decision, deferring everything else in
                // arrival order.
                let decision = loop {
                    match pending.pop_front().or_else(|| ctx.queue.recv()) {
                        Some(WorkerMsg::Decide { gtid: g, commit }) if g == gtid => {
                            break Some(commit)
                        }
                        Some(other) => crash.deferred.push(other),
                        None => break None, // cluster dropped mid-2PC
                    }
                };
                for m in crash.deferred.drain(..).rev() {
                    pending.push_front(m);
                }
                match decision {
                    Some(commit) => {
                        // The decision is in hand: a crash below no
                        // longer needs the supervisor's decide-drain
                        // (commit is durable in coord.log; abort is
                        // presumed by absence).
                        crash.awaiting_decision = None;
                        let out = match vote_err {
                            // Voted no: the fragment is already rolled
                            // back and locally decided; surface the
                            // original error to the ticket.
                            Some(e) => Err(e),
                            None => {
                                let out = db.decide_fragment(gtid, commit);
                                if let Some(t) = trace {
                                    obs::record(Stage::Decided, t);
                                }
                                out
                            }
                        };
                        let _ = reply.send(out);
                    }
                    None => {
                        // No decision will ever come (shutdown): abort —
                        // identical to the crash story, where recovery
                        // presumes abort for the in-doubt fragment.
                        crash.awaiting_decision = None;
                        if vote_err.is_none() {
                            let _ = db.decide_fragment(gtid, false);
                        }
                        disconnected = true;
                    }
                }
            }
            WorkerMsg::Decide { gtid, commit } => {
                // A decision with no held fragment: the participant voted
                // no and already resolved locally (or a stale retry).
                if db.prepared_gtid() == Some(gtid) {
                    let _ = db.decide_fragment(gtid, commit);
                }
            }
            WorkerMsg::Forward(first) => {
                // Take the run of shards already waiting behind this one
                // (typically everything the hub delivered while this
                // worker sat in a 2PC decision wait): one log sync covers
                // them all. Each shard's trace follows its rows, and no
                // stage is recorded here — receiver-side batches would
                // double-count against the emitting submission.
                let mut run = vec![first];
                run.extend(take_run(&ctx.queue, pending, |m| match m {
                    WorkerMsg::Forward(f) => Ok(f),
                    other => Err(other),
                }));
                // A crash while the run is half-logged must complete the
                // hub's envelope bookkeeping: the supervisor reports every
                // member as a failed log (ack withheld, emitter replays).
                crash.in_flight_forwards = run
                    .iter()
                    .map(|f| (f.src_partition, f.src_batch, f.stream.clone()))
                    .collect();
                let logged = db.accept_forwards(run);
                if logged.iter().any(|r| matches!(r, Ok(Some(_)))) {
                    if let Err(e) = db.run_queued() {
                        slog!(
                            Error, partition = id.raw();
                            "forwarded batches failed to execute: {e}"
                        );
                    }
                }
                // A duplicate (`Ok(None)`) is already durable here.
                for (edge, result) in crash.in_flight_forwards.drain(..).zip(logged) {
                    if let Err(e) = &result {
                        slog!(
                            Warn, partition = id.raw();
                            "could not log forward on `{}`: {e}", edge.2
                        );
                    }
                    let ok = result.is_ok();
                    let _ = ctx.hub.send(HubMsg::Logged { edge, ok });
                }
            }
            WorkerMsg::EdgeAck { batch } => {
                if let Err(e) = db.edge_acked(batch) {
                    slog!(Warn, partition = id.raw(); "edge ack for {batch} failed: {e}");
                }
            }
        }
        // A group-commit write that failed AND failed to roll back left
        // the log tail with unknown durability: stop executing on top of
        // it and let the supervisor rebuild from disk.
        if db.durability_poisoned() {
            return LoopExit::Poisoned;
        }
        // Any of the above may have emitted onto a cross-partition edge
        // (Ingest and Decide through PE triggers, Exec through test
        // closures, Forward through cascading workflows).
        flush_outbox(&mut db, ctx);
    }
}
