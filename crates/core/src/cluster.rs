//! Persistent shared-nothing partition runtime.
//!
//! H-Store — and therefore S-Store — is "designed for shared-nothing
//! clusters": the database is partitioned so that most transactions run
//! **single-sited**, serially, on the partition owning their data (paper
//! §2, citing Pavlo et al. (ref. 8) for partition design). [`Cluster`]
//! realizes that shape as a *runtime*, not a per-call simulation:
//!
//! * **N long-lived worker threads**, one per partition, mirroring
//!   H-Store's one-execution-site-per-core layout. Each worker *owns* its
//!   [`SStore`] outright (shared-nothing: no locks, no shared state) and
//!   drains a bounded ingest queue in FIFO order — per-partition
//!   submission order is execution order, which keeps parallel runs
//!   deterministic.
//! * **Routed ingest** via [`Router`]: a declared partition-key column
//!   with hash or explicit range placement splits each border batch into
//!   per-partition shards. `NULL` keys are rejected, never silently
//!   hashed.
//! * **Async submission**: [`Cluster::submit_batch_async`] enqueues shards
//!   and returns a [`Ticket`] that later resolves to per-TE outcomes;
//!   [`Cluster::submit_batch_partitioned`] is the blocking wrapper
//!   preserving the original API. While a ticket is in flight the worker
//!   may **coalesce** queued batches for the same procedure into one
//!   scheduler pass ([`sstore_txn::Partition::submit_batch_group`]),
//!   cutting per-submission PE-boundary overhead exactly where the paper
//!   claims EE/PE round-trip savings.
//! * **Scatter-gather reads**: [`Cluster::query_all`] fans a read-only
//!   query out to every worker in parallel and concatenates rows in
//!   partition order (cross-partition aggregation stays the caller's job,
//!   as in any shared-nothing system).
//!
//! # Supervision and admission control
//!
//! Each worker thread is **supervised**: the drain loop runs under
//! `catch_unwind`, so a panic inside a procedure, a test closure, or an
//! injected fault does not silently wedge the partition. The supervisor
//! transitions the partition through [`PartitionHealth`] states —
//! `Healthy → Restarting → Healthy` when it can re-run log + snapshot
//! recovery and re-attach the *same* ingest queue (exactly-once is
//! preserved by the durable dedupe state: border records replay, edge
//! forwards dedupe by high-water mark, 2PC fragments resolve against the
//! coordinator's decision log), or `→ Down` when the partition is
//! non-durable, recovery fails, or the restart budget
//! (`MAX_WORKER_RESTARTS`, 3) is spent. A down partition resolves
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
//! Admission control is the other half of overload hardening:
//! [`Cluster::try_submit_batch_async`] refuses (rather than blocks) when
//! a target ingest queue is full, shedding with retryable
//! [`Error::Overloaded`] *before* anything is enqueued — the
//! all-or-nothing reservation (`crate::ingest::IngestQueue::try_send_all`)
//! guarantees a shed batch landed nowhere. [`crate::RetryPolicy`] is the
//! matching client loop (exponential backoff, deterministic jitter).
//!
//! # Cross-partition transactions (2PC)
//!
//! A border submission of a procedure declared `multi_partition` whose
//! rows route to more than one partition runs as **one global
//! transaction** under two-phase commit ([`crate::coordinator`]):
//!
//! 1. the coordinator fragments the batch and sends `WorkerMsg::Prepare`
//!    down each involved partition's ingest queue;
//! 2. each participant logs the fragment and fsyncs — one sync for the
//!    prepare record and everything still buffered behind it, the
//!    previous transaction's `Decision` included — executes it with the
//!    **undo log held open**, and votes;
//! 3. the coordinator makes the decision durable (`coord.log` — the
//!    commit point, one fsync) and sends `WorkerMsg::Decide`;
//! 4. participants append their local `Decision` record **without
//!    syncing** (the commit is already durable as synced prepare +
//!    `coord.log`; recovery resolves a prepare with no local decision
//!    from `coord.log`), commit (dropping the undo, firing PE triggers)
//!    or roll back, and resolve the [`Ticket`].
//!
//! The rule throughout is *fsync when someone is about to act on
//! durability, once for everything buffered*: three fsyncs per
//! two-participant transaction. The one reader that needs the local
//! `Decision`s on disk — `coord.log` compaction, which drops the commit
//! records — forces every participant's log down first.
//!
//! Between its vote and the decision a worker **defers** every other
//! queued job — the fragment's uncommitted writes are in storage, and
//! serial execution is what makes the rollback sound. Two fast paths
//! relax the protocol without weakening it:
//!
//! * **Presumed abort** — abort decisions are never logged; recovery
//!   reads a gtid's absence from `coord.log` as abort, so the abort
//!   round skips the coordinator fsync entirely.
//! * **Early-prepare speculation** — while the prepared fragment waits
//!   for its decision, queued single-partition submissions whose
//!   transitive workflow closure is provably disjoint from the
//!   fragment's keep executing (see
//!   [`sstore_txn::Partition::speculation_safe`]).
//!
//! A worker that dies *between its yes-vote and the decision* must not
//! lose the decision: its supervisor drains the queue for the matching
//! `Decide` (the coordinator always sends phase 2 once it collected the
//! vote) and folds it into the recovery decision map, so the restarted
//! partition resolves the in-doubt fragment exactly as the coordinator
//! did.
//!
//! A submission whose rows all land on one partition skips all of this:
//! the coordinator detects it and takes the PR 2 ingest path
//! byte-for-byte (the single-partition fast path).
//!
//! Recovery rebuilds the partitions **in parallel** — each replays its
//! own `p{i}` log on a scoped thread against the shared decision map —
//! and only wires the workers (whose startup re-forwards unacked edge
//! envelopes) once every partition is up.
//!
//! # Cross-partition workflow edges
//!
//! A stream declared a cross-partition edge ([`Cluster::with_edges`])
//! carries tuples from a committing TE on one partition to the consuming
//! procedures on the partitions owning the downstream keys: the emitting
//! worker buffers an envelope, the **forward hub** (a dedicated router
//! thread) shards it by the edge's key column, and each receiving worker
//! logs the forward durably (dedup'd by per-edge high-water mark) before
//! executing it — ordered, exactly-once dataflow across partitions. A
//! worker takes every shard already waiting at the head of its queue as
//! one run ([`sstore_txn::Partition::accept_forwards`]): all records
//! appended, **one** fsync, then execution and one ack per shard. The
//! emitting batch's input record stays replayable (unacked) until every
//! receiver has logged its shard: upstream backup spans the edge.
//! Workers never block on the hub (its queue is unbounded), and the hub
//! is the only thread that blocks on worker queues, so forward storms
//! cannot deadlock the worker set. An edge instance that permanently
//! fails delivery (a receiver down, an unroutable key, a failed forward
//! log write) withholds its ack and counts an **edge failure**;
//! [`Cluster::quiesce`] reports those instead of pretending the dataflow
//! settled — the unacked batches replay at the next recovery.

use crate::builder::SStoreBuilder;
use crate::coordinator::{CoordState, CoordStats, Coordinator, CoordinatorLog};
use crate::ingest::{IngestQueue, SendError, TrySendError};
use crate::metrics::{ClusterMetrics, PartitionMetrics};
use crate::router::{RouteSpec, Router, Ticket};
use crate::SStore;
use sstore_common::obs::{self, Stage, TraceCtx};
use sstore_common::{fault, slog, BatchId, Error, PartitionId, Result, Row, Value};
use sstore_txn::recovery::recover_with_decisions;
use sstore_txn::{InboundForward, TxnOutcome};
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Default bound of each worker's ingest queue, in queued submissions.
/// A full queue applies backpressure: `submit_batch_async` blocks until
/// the worker drains a slot ([`Cluster::try_submit_batch_async`] sheds
/// instead).
pub const DEFAULT_INGEST_QUEUE_DEPTH: usize = 256;

/// Supervision state of one partition worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionHealth {
    /// The worker is draining its queue normally. Encoded as 0 in the
    /// shared health cells (variant order is the encoding).
    Healthy,
    /// The worker died and its supervisor is re-running log + snapshot
    /// recovery; queued work waits (sends still succeed) and resolves
    /// once the partition is back. Encoded as 1.
    Restarting,
    /// The partition is permanently down (non-durable, recovery failed,
    /// or the restart budget is spent). All queued and future work
    /// resolves with [`Error::PartitionDown`]. Encoded as 2.
    Down,
}

/// Cluster-wide supervision state shared by the handle, the workers'
/// supervisors, and the forward hub.
struct ClusterShared {
    /// Per-partition [`PartitionHealth`] discriminants.
    health: Vec<AtomicU8>,
    /// Supervised worker restarts, cluster lifetime.
    restarts: AtomicU64,
    /// Submissions refused by admission control, cluster lifetime.
    sheds: AtomicU64,
    /// Edge instances whose ack was permanently withheld (failed forward
    /// log write, receiver down, unroutable rows). Non-zero means the
    /// cross-partition dataflow cannot quiesce: the unacked batches
    /// replay at the next recovery.
    edge_failures: AtomicU64,
    /// False once the hub thread exited (normally only at shutdown).
    hub_alive: AtomicBool,
}

impl ClusterShared {
    fn new(n: usize) -> ClusterShared {
        ClusterShared {
            health: (0..n).map(|_| AtomicU8::new(0)).collect(),
            restarts: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            edge_failures: AtomicU64::new(0),
            hub_alive: AtomicBool::new(true),
        }
    }

    fn health_of(&self, i: usize) -> PartitionHealth {
        match self.health[i].load(Ordering::SeqCst) {
            0 => PartitionHealth::Healthy,
            1 => PartitionHealth::Restarting,
            _ => PartitionHealth::Down,
        }
    }

    fn set_health(&self, id: PartitionId, h: PartitionHealth) {
        self.health[id.raw() as usize].store(h as u8, Ordering::SeqCst);
    }
}

/// One message on a partition worker's ingest queue.
enum WorkerMsg {
    /// A border-batch shard for this partition.
    Ingest {
        proc: String,
        rows: Vec<Row>,
        reply: ReplyTx,
        /// Dataflow trace minted at submission (None when tracing is off).
        trace: Option<TraceCtx>,
    },
    /// One leg of a scatter-gather read-only query.
    Query {
        sql: String,
        params: Vec<Value>,
        reply: mpsc::Sender<Result<Vec<Row>>>,
    },
    /// Arbitrary code against the owned partition (stats, snapshots,
    /// tests). The closure captures its own reply channel.
    Exec(Box<dyn FnOnce(&mut SStore) + Send>),
    /// Advance the partition's logical clock.
    AdvanceClock(i64),
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
    Forward {
        stream: String,
        src: PartitionId,
        src_batch: BatchId,
        rows: Vec<Row>,
        /// The emitting batch's trace, carried across the edge so a
        /// multi-hop dataflow keeps one end-to-end trace id.
        trace: Option<TraceCtx>,
    },
    /// Every receiver of `batch`'s edge forwards has durably logged its
    /// shard: release the emitting batch's upstream backup.
    EdgeAck { batch: BatchId },
}

/// Messages to the forward hub (the cross-edge router thread).
enum HubMsg {
    /// An emitted batch bound for the partitions owning its keys.
    Forward {
        src: PartitionId,
        fwd: sstore_txn::RemoteForward,
    },
    /// A receiver durably logged (or deduplicated) its shard of the
    /// identified edge instance. `ok = false` means the log write failed
    /// (or the receiver died holding the shard): the edge ack is
    /// withheld so the emitting batch stays replayable.
    Logged {
        src: PartitionId,
        src_batch: BatchId,
        stream: String,
        ok: bool,
    },
    /// Cluster shutdown: drain what is queued, then exit.
    Shutdown,
}

type ReplyTx = mpsc::Sender<Result<Vec<TxnOutcome>>>;

/// Handle to one partition worker: its supervised thread plus the
/// ingest queue, whose lifetime is independent of the thread so a
/// restarted worker resumes the same backlog.
struct Worker {
    id: PartitionId,
    queue: IngestQueue<WorkerMsg>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    fn send(&self, msg: WorkerMsg) -> Result<()> {
        self.queue.send(msg).map_err(|e| match e {
            SendError::Closed => Error::Internal(format!("partition {} is shut down", self.id)),
            SendError::Down => Error::PartitionDown(format!("partition {} is down", self.id)),
        })
    }
}

/// The deterministic redeployment closure every worker's supervisor
/// re-runs to restart a crashed partition.
type SetupFn = Arc<dyn Fn(&mut SStore) -> Result<()> + Send + Sync>;

/// Everything a worker's supervisor needs to run — and re-run — the
/// drain loop: the partition's own site builder (durability already
/// redirected to its `p{i}` dir), the deterministic redeployment
/// closure, and the shared cluster plumbing.
struct WorkerCtx {
    id: PartitionId,
    builder: SStoreBuilder,
    setup: SetupFn,
    coord_dir: Option<PathBuf>,
    queue: IngestQueue<WorkerMsg>,
    hub: mpsc::Sender<HubMsg>,
    in_flight: Arc<AtomicI64>,
    shared: Arc<ClusterShared>,
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
    in_flight_forwards: Vec<(PartitionId, BatchId, String)>,
    /// Set between a yes-vote and the coordinator's decision. On a crash
    /// inside that window the supervisor fails the reply (in-doubt:
    /// non-retryable), then drains the queue for the decision and folds
    /// it into restart recovery.
    awaiting_decision: Option<(u64, ReplyTx)>,
    /// Messages deferred during a 2PC decision wait; survives a crash in
    /// that window so no queued work is lost.
    deferred: Vec<WorkerMsg>,
}

/// A shared-nothing group of identically-deployed partitions, each run by
/// a supervised worker thread, plus the cross-partition machinery: the
/// 2PC coordinator and the forward hub (see module docs).
pub struct Cluster {
    workers: Vec<Worker>,
    router: Router,
    hub_tx: Option<mpsc::Sender<HubMsg>>,
    hub_handle: Option<JoinHandle<()>>,
    /// Outstanding cross-edge work units (envelopes + delivered shards);
    /// zero ⇔ the dataflow between partitions is quiescent.
    in_flight: Arc<AtomicI64>,
    shared: Arc<ClusterShared>,
    coordinator: Mutex<Coordinator>,
    /// Procedures declared `multi_partition` (identical on every
    /// partition; captured from partition 0 at build).
    multi_partition_procs: HashSet<String>,
    /// Stage-histogram snapshots, the next trace id, and the wall clock
    /// at construction time: [`Cluster::observability_report`] subtracts
    /// this baseline so a report covers only this cluster's traffic even
    /// when several clusters share the process (tests, benches).
    pub(crate) obs_baseline: crate::obs_report::ObsBaseline,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("partitions", &self.workers.len())
            .field("router", &self.router)
            .field("health", &self.health())
            .field("multi_partition_procs", &self.multi_partition_procs)
            .finish()
    }
}

impl Cluster {
    /// Build `n` partitions from one builder with the default routing
    /// (hash over column 0) and queue depth. See [`Cluster::with_config`].
    pub fn new(
        n: usize,
        builder: &SStoreBuilder,
        deploy: impl Fn(&mut SStore) -> Result<()> + Send + Sync + 'static,
    ) -> Result<Cluster> {
        Cluster::with_config(
            n,
            RouteSpec::hash(0),
            DEFAULT_INGEST_QUEUE_DEPTH,
            builder,
            deploy,
        )
    }

    /// Build `n` partitions from one builder, running the same `deploy`
    /// (DDL + procedure registration + seeding) on each — deterministic
    /// redeployment, exactly like the recovery contract. Each partition
    /// gets its own [`PartitionId`] (threaded into its stats) and, when
    /// durability is configured, its own `p{i}` subdirectory of the
    /// builder's log dir. The partitions are then moved onto long-lived
    /// worker threads owning them until the cluster drops. `deploy` is
    /// retained for the cluster's lifetime: a worker's supervisor re-runs
    /// it when restarting a crashed partition.
    pub fn with_config(
        n: usize,
        route: RouteSpec,
        queue_depth: usize,
        builder: &SStoreBuilder,
        deploy: impl Fn(&mut SStore) -> Result<()> + Send + Sync + 'static,
    ) -> Result<Cluster> {
        Cluster::build(n, route, queue_depth, builder, deploy, &[], false)
    }

    /// [`Cluster::with_config`] plus cross-partition workflow edge
    /// declarations: each `(stream, key_col)` pair is declared on every
    /// partition right after `deploy` runs, so emissions onto those
    /// streams route through the forward hub from the first batch.
    pub fn with_edges(
        n: usize,
        route: RouteSpec,
        queue_depth: usize,
        builder: &SStoreBuilder,
        deploy: impl Fn(&mut SStore) -> Result<()> + Send + Sync + 'static,
        edges: &[(&str, usize)],
    ) -> Result<Cluster> {
        Cluster::build(n, route, queue_depth, builder, deploy, edges, false)
    }

    /// Rebuild a cluster from its durable state: reads the coordinator's
    /// decision log, then recovers every partition from its `p{i}` dir —
    /// resolving prepared-but-undecided 2PC fragments against the
    /// coordinator's decisions (in-doubt fragments abort) — and finally
    /// re-forwards any unacknowledged cross-edge batches (receivers
    /// deduplicate by high-water mark, so the re-send is exactly-once).
    /// `deploy` and `edges` must match the pre-crash topology.
    pub fn recover(
        n: usize,
        route: RouteSpec,
        queue_depth: usize,
        builder: &SStoreBuilder,
        deploy: impl Fn(&mut SStore) -> Result<()> + Send + Sync + 'static,
        edges: &[(&str, usize)],
    ) -> Result<Cluster> {
        Cluster::build(n, route, queue_depth, builder, deploy, edges, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        n: usize,
        route: RouteSpec,
        queue_depth: usize,
        builder: &SStoreBuilder,
        deploy: impl Fn(&mut SStore) -> Result<()> + Send + Sync + 'static,
        edges: &[(&str, usize)],
        recover: bool,
    ) -> Result<Cluster> {
        if n == 0 {
            return Err(Error::Schedule(
                "a cluster needs at least 1 partition".into(),
            ));
        }
        let router = Router::new(route, n)?;
        let depth = queue_depth.max(1);

        // Coordinator durability rides the builder's log dir (the
        // partitions use `p{i}` subdirectories of it). The decision log
        // is read on EVERY durable build — not just recovery — because
        // the gtid sequence must never restart: a reused gtid whose old
        // incarnation aborted in doubt would be retroactively committed
        // by a later commit record on the next recovery.
        let coord_dir = builder.config().log.as_ref().map(|l| l.dir.clone());
        let coord_state = match &coord_dir {
            Some(dir) => CoordinatorLog::read(dir)?,
            None => CoordState {
                next_gtid: 1,
                ..CoordState::default()
            },
        };
        let decisions = if recover {
            coord_state.decisions
        } else {
            HashMap::new()
        };
        let mut next_gtid = coord_state.next_gtid;

        // Build (or recover) the partitions first, then wire the threads.
        // The decisions map is read once above and shared; each partition
        // replays only its own `p{i}` log, so recovery parallelizes
        // cleanly across scoped threads. Unacked edge envelopes are only
        // re-forwarded later, by the workers' startup `flush_outbox` —
        // i.e. after every partition is up and able to receive.
        //
        // The setup closure is `Arc`'d (not borrowed) because it outlives
        // this call: each worker's supervisor re-runs it to restart a
        // crashed partition.
        let edges_owned: Vec<(String, usize)> =
            edges.iter().map(|&(s, k)| (s.to_string(), k)).collect();
        let setup: SetupFn = Arc::new(move |p: &mut SStore| {
            deploy(p)?;
            for (stream, key_col) in &edges_owned {
                p.declare_cross_edge(stream, *key_col)?;
            }
            Ok(())
        });
        let site_builder = |i: usize| -> SStoreBuilder {
            let mut b = builder.clone().partition_id(PartitionId::new(i as u32));
            if let Some(log) = b.config().log.clone() {
                // Shared-nothing durability too: one log dir per site.
                b = b.durability(log.dir.join(format!("p{i}")), log.group_commit_n);
            }
            b
        };
        let build_one = |b: SStoreBuilder| -> Result<SStore> {
            if recover && b.config().log.is_some() {
                recover_with_decisions(b.config().clone(), |p| setup(p), &decisions)
            } else {
                let mut p = b.build()?;
                setup(&mut p)?;
                Ok(p)
            }
        };
        let partitions: Vec<SStore> = if recover && n > 1 {
            obs::timed_phase("recovery.parallel_join", || {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..n)
                        .map(|i| {
                            let b = site_builder(i);
                            let build_one = &build_one;
                            s.spawn(move || build_one(b))
                        })
                        .collect();
                    // Join every handle before surfacing the first error: a
                    // short-circuiting collect would leave panicked threads
                    // for the scope to auto-join, and the scope re-panics on
                    // those. A panicking replay (corrupt state tripping an
                    // assertion, an injected fault) must instead surface as
                    // a clean recovery error.
                    let joined: Vec<Result<SStore>> = handles
                        .into_iter()
                        .enumerate()
                        .map(|(i, h)| {
                            h.join().unwrap_or_else(|_| {
                                Err(Error::Recovery(format!(
                                    "partition {i} panicked during parallel recovery"
                                )))
                            })
                        })
                        .collect();
                    joined.into_iter().collect::<Result<Vec<_>>>()
                })
            })?
        } else {
            (0..n)
                .map(|i| build_one(site_builder(i)))
                .collect::<Result<Vec<_>>>()?
        };
        let mut multi_partition_procs = HashSet::new();
        for (i, p) in partitions.iter().enumerate() {
            if i == 0 {
                multi_partition_procs = p.multi_partition_procs().into_iter().collect();
            }
            // A partition may have prepared gtids the coordinator never
            // decided (in-doubt at the crash): sequence past those too.
            next_gtid = next_gtid.max(p.max_gtid_seen() + 1);
        }
        let coord_log = match &coord_dir {
            Some(dir) => Some(CoordinatorLog::open(dir)?),
            None => None,
        };
        let coordinator = Mutex::new(Coordinator::new(coord_log, next_gtid));

        // Worker queues, then the hub (it holds every queue), then the
        // supervised workers (each holds the hub's sender). The queues
        // are plain shared state — not channels tied to a receiver
        // thread — so a restarted worker resumes the same backlog.
        let shared = Arc::new(ClusterShared::new(n));
        let queues: Vec<IngestQueue<WorkerMsg>> = (0..n).map(|_| IngestQueue::new(depth)).collect();
        let in_flight = Arc::new(AtomicI64::new(0));
        let (hub_tx, hub_rx) = mpsc::channel::<HubMsg>();
        let hub_handle = {
            let queues = queues.clone();
            let in_flight = Arc::clone(&in_flight);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sstore-hub".into())
                .spawn(move || hub_loop(hub_rx, queues, n, in_flight, shared))
                .map_err(|e| Error::Internal(format!("spawn forward hub: {e}")))?
        };

        let mut workers = Vec::with_capacity(n);
        for (i, p) in partitions.into_iter().enumerate() {
            let id = PartitionId::new(i as u32);
            let ctx = WorkerCtx {
                id,
                builder: site_builder(i),
                setup: Arc::clone(&setup),
                coord_dir: coord_dir.clone(),
                queue: queues[i].clone(),
                hub: hub_tx.clone(),
                in_flight: Arc::clone(&in_flight),
                shared: Arc::clone(&shared),
            };
            let handle = std::thread::Builder::new()
                .name(format!("sstore-p{i}"))
                .spawn(move || supervised_worker(ctx, p))
                .map_err(|e| Error::Internal(format!("spawn partition worker: {e}")))?;
            workers.push(Worker {
                id,
                queue: queues[i].clone(),
                handle: Some(handle),
            });
        }

        Ok(Cluster {
            workers,
            router,
            hub_tx: Some(hub_tx),
            hub_handle: Some(hub_handle),
            in_flight,
            shared,
            coordinator,
            multi_partition_procs,
            obs_baseline: crate::obs_report::ObsBaseline::capture(),
        })
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when the cluster has no partitions (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The declared router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Supervision state of every partition worker, in partition order.
    pub fn health(&self) -> Vec<PartitionHealth> {
        (0..self.workers.len())
            .map(|i| self.shared.health_of(i))
            .collect()
    }

    /// Run `f` against one partition on its worker thread and return the
    /// result (dashboards, tests, snapshots). Blocks until the worker
    /// reaches this job in queue order. Returns [`Error::PartitionDown`]
    /// if the partition went (or was already) down — including when `f`
    /// itself panicked the worker: the panic is caught by the worker's
    /// supervisor, never propagated to the caller.
    pub fn with_partition<R, F>(&self, i: usize, f: F) -> Result<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut SStore) -> R + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        self.workers[i].send(WorkerMsg::Exec(Box::new(move |db| {
            let _ = tx.send(f(db));
        })))?;
        rx.recv().map_err(|_| {
            Error::PartitionDown(format!(
                "partition {} went down before answering",
                self.workers[i].id
            ))
        })
    }

    /// Submit a border batch asynchronously: shard by the declared route,
    /// enqueue each shard on its partition's ingest queue (blocking only
    /// if a queue is full — backpressure), and return a [`Ticket`] that
    /// resolves to per-partition TE outcomes. Rows with `NULL` partition
    /// keys are rejected before anything is enqueued.
    ///
    /// A procedure declared `multi_partition` whose rows route to more
    /// than one partition runs as one global transaction under 2PC (see
    /// the module docs); all other submissions keep the independent
    /// per-partition semantics.
    pub fn submit_batch_async<R: Into<Row>>(&self, proc: &str, rows: Vec<R>) -> Result<Ticket> {
        let trace = obs::enabled().then(TraceCtx::mint);
        let rows: Vec<Row> = rows.into_iter().map(Into::into).collect();
        let shards = self.router.shard(rows)?;
        if let Some(t) = trace {
            obs::record(Stage::Routed, t);
        }
        if self.multi_partition_procs.contains(proc) {
            return self.coordinate(proc, shards, trace);
        }
        self.submit_shards(proc, shards, trace)
    }

    /// [`Cluster::submit_batch_async`] with **admission control** instead
    /// of backpressure: if any target ingest queue is full the submission
    /// is shed with retryable [`Error::Overloaded`] — nothing is enqueued
    /// anywhere (the reservation across queues is all-or-nothing), so the
    /// client may back off and resubmit ([`crate::RetryPolicy`]).
    ///
    /// Global transactions (a `multi_partition` procedure straddling
    /// partitions) must take the coordinator's blocking prepare path, so
    /// their admission check is advisory: full queues shed up front, but
    /// a queue that fills between the check and the prepare applies
    /// backpressure as usual.
    pub fn try_submit_batch_async<R: Into<Row>>(&self, proc: &str, rows: Vec<R>) -> Result<Ticket> {
        let trace = obs::enabled().then(TraceCtx::mint);
        let rows: Vec<Row> = rows.into_iter().map(Into::into).collect();
        let shards = self.router.shard(rows)?;
        if let Some(t) = trace {
            obs::record(Stage::Routed, t);
        }
        if self.multi_partition_procs.contains(proc)
            && shards.iter().filter(|s| !s.is_empty()).count() > 1
        {
            for (worker, shard) in self.workers.iter().zip(&shards) {
                if !shard.is_empty() && worker.queue.is_full() {
                    self.shared.sheds.fetch_add(1, Ordering::SeqCst);
                    return Err(Error::Overloaded(format!(
                        "partition {} ingest queue is full; global transaction shed",
                        worker.id
                    )));
                }
            }
            return self.coordinate(proc, shards, trace);
        }
        let mut sends = Vec::new();
        let mut pending = Vec::new();
        for (worker, shard) in self.workers.iter().zip(shards) {
            if shard.is_empty() {
                continue;
            }
            let (tx, rx) = mpsc::channel();
            sends.push((
                &worker.queue,
                WorkerMsg::Ingest {
                    proc: proc.to_string(),
                    rows: shard,
                    reply: tx,
                    trace,
                },
            ));
            pending.push((worker.id, rx));
        }
        // Workers are iterated in ascending partition order, which is the
        // globally consistent lock order `try_send_all` requires.
        match IngestQueue::try_send_all(sends) {
            Ok(()) => Ok(Ticket { pending }),
            Err(TrySendError::Full) => {
                self.shared.sheds.fetch_add(1, Ordering::SeqCst);
                Err(Error::Overloaded(
                    "an ingest queue is full; submission shed (nothing enqueued)".into(),
                ))
            }
            Err(TrySendError::Down) => Err(Error::PartitionDown(
                "a target partition is down; submission refused (nothing enqueued)".into(),
            )),
            Err(TrySendError::Closed) => Err(Error::Internal("cluster is shutting down".into())),
        }
    }

    /// Submit a border batch as **one atomic global transaction**,
    /// regardless of the procedure's declaration: two-phase commit when
    /// the rows straddle partitions, the ordinary single-partition path
    /// when they don't. The returned [`Ticket`] resolves to every
    /// participant's outcomes; if any participant votes no, the whole
    /// transaction aborts everywhere and `wait()` surfaces the error.
    pub fn submit_batch_atomic<R: Into<Row>>(&self, proc: &str, rows: Vec<R>) -> Result<Ticket> {
        let trace = obs::enabled().then(TraceCtx::mint);
        let rows: Vec<Row> = rows.into_iter().map(Into::into).collect();
        let shards = self.router.shard(rows)?;
        if let Some(t) = trace {
            obs::record(Stage::Routed, t);
        }
        self.coordinate(proc, shards, trace)
    }

    /// Submit a border batch split by the declared route, and block for
    /// the results — the original synchronous API, now a wrapper over the
    /// async path. Returns per-partition outcomes (empty for partitions
    /// that received no rows).
    ///
    /// `key_col` must name the cluster's declared partition-key column
    /// (anything else is rejected — routing the same table by two
    /// different columns would silently split a key's state across
    /// partitions). The route is fixed when the cluster is built
    /// ([`Cluster::with_config`]).
    pub fn submit_batch_partitioned<R: Into<Row>>(
        &self,
        proc: &str,
        rows: Vec<R>,
        key_col: usize,
    ) -> Result<Vec<Vec<TxnOutcome>>> {
        let declared = self.router.spec().key_col();
        if declared != key_col {
            return Err(Error::Schedule(format!(
                "cluster routes on partition-key column {declared}; cannot route by \
                 column {key_col} (the route is fixed when the cluster is built)"
            )));
        }
        let ticket = self.submit_batch_async(proc, rows)?;
        let mut results: Vec<Vec<TxnOutcome>> =
            (0..self.workers.len()).map(|_| Vec::new()).collect();
        for po in ticket.wait()? {
            results[po.partition.raw() as usize] = po.outcomes;
        }
        Ok(results)
    }

    fn submit_shards(
        &self,
        proc: &str,
        shards: Vec<Vec<Row>>,
        trace: Option<TraceCtx>,
    ) -> Result<Ticket> {
        let mut pending = Vec::new();
        for (worker, shard) in self.workers.iter().zip(shards) {
            if shard.is_empty() {
                continue;
            }
            let (tx, rx) = mpsc::channel();
            worker.send(WorkerMsg::Ingest {
                proc: proc.to_string(),
                rows: shard,
                reply: tx,
                trace,
            })?;
            pending.push((worker.id, rx));
        }
        Ok(Ticket { pending })
    }

    /// Run one submission through the transaction coordinator: the
    /// single-partition fast path when at most one shard is non-empty
    /// (byte-identical to plain ingest — no 2PC messages, no extra log
    /// records), a full prepare/decide round otherwise. The coordinator
    /// mutex serializes multi-sited transactions (H-Store's discipline),
    /// which also rules out distributed deadlock between prepare rounds.
    fn coordinate(
        &self,
        proc: &str,
        shards: Vec<Vec<Row>>,
        trace: Option<TraceCtx>,
    ) -> Result<Ticket> {
        let involved = shards.iter().filter(|s| !s.is_empty()).count();
        let mut coordinator = self
            .coordinator
            .lock()
            .map_err(|_| Error::Internal("coordinator mutex poisoned".into()))?;
        if involved <= 1 {
            coordinator.note_fast_path();
            drop(coordinator);
            return self.submit_shards(proc, shards, trace);
        }

        let gtid = coordinator.begin();
        coordinator.note_multi_partition(involved);

        // Phase 1: prepare every involved partition.
        let mut votes = Vec::with_capacity(involved);
        let mut pending = Vec::with_capacity(involved);
        let mut participants = Vec::with_capacity(involved);
        let mut send_err: Option<Error> = None;
        for (worker, shard) in self.workers.iter().zip(shards) {
            if shard.is_empty() {
                continue;
            }
            let (vote_tx, vote_rx) = mpsc::channel();
            let (reply_tx, reply_rx) = mpsc::channel();
            match worker.send(WorkerMsg::Prepare {
                gtid,
                proc: proc.to_string(),
                rows: shard,
                vote: vote_tx,
                reply: reply_tx,
                trace,
            }) {
                Ok(()) => {
                    votes.push(vote_rx);
                    pending.push((worker.id, reply_rx));
                    participants.push(worker.id);
                }
                Err(e) => {
                    send_err = Some(e);
                    break;
                }
            }
        }

        // Collect votes; any no (or dead worker, or failed send) aborts.
        let mut commit = send_err.is_none();
        for rx in votes {
            match rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(_)) | Err(_) => commit = false,
            }
        }

        // Commit point: the decision is durable before any participant
        // may act on it. A failed commit write whose bytes were rolled
        // back is *provably absent*, so flipping to abort is safe; a
        // failure of UNKNOWN durability (kind "recovery") must release
        // no outcome at all — live participants and a later recovery
        // could otherwise resolve the gtid differently. The participants
        // stay blocked until the cluster drops (which aborts them the
        // same way a crash would) and the error surfaces to the caller.
        if commit {
            match coordinator.decide(gtid, true, &participants) {
                Ok(()) => {}
                Err(e) if e.kind() == "recovery" => {
                    drop(coordinator);
                    return Err(e);
                }
                Err(e) => {
                    slog!(Error; "coordinator decision log failed, aborting gtid {gtid}: {e}");
                    commit = false;
                    coordinator.decide(gtid, false, &participants).ok();
                }
            }
        } else {
            // Presumed abort: an absent record already means abort, so a
            // failed abort write cannot cause divergence.
            coordinator.decide(gtid, false, &participants).ok();
        }

        // Phase 2: release the participants.
        for id in &participants {
            self.workers[id.raw() as usize]
                .send(WorkerMsg::Decide { gtid, commit })
                .ok();
        }
        // Checkpoint compaction, still under the coordinator mutex (no
        // concurrent decide can interleave). The barrier drains every
        // worker queue — including the Decides just sent — so each
        // participant has appended its local Decision for every decided
        // gtid, and then forces its log down: decisions are not synced
        // on their own, and until they are on disk `coord.log` is the
        // only durable copy of a commit. Only then are the coordinator's
        // records redundant. A failed barrier (a down partition that may
        // never log its decision, a failed sync) skips the compaction:
        // correctness first.
        if coordinator.should_compact() && self.barrier(SStore::sync_log).is_ok() {
            if let Err(e) = coordinator.compact() {
                slog!(Warn; "coordinator log compaction failed (retained): {e}");
            }
        }
        drop(coordinator);
        if let Some(e) = send_err {
            return Err(e);
        }
        Ok(Ticket { pending })
    }

    /// The coordinator's counters (fast-path vs 2PC submissions, commit
    /// and abort decisions).
    pub fn coordinator_stats(&self) -> CoordStats {
        self.coordinator
            .lock()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Run a read-only query on every partition **in parallel** and
    /// concatenate the rows in partition order (a scatter-gather read;
    /// aggregation across partitions is the caller's job, as in any
    /// shared-nothing system).
    pub fn query_all(&self, sql: &str, params: &[Value]) -> Result<Vec<Row>> {
        let mut replies = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            let (tx, rx) = mpsc::channel();
            worker.send(WorkerMsg::Query {
                sql: sql.to_string(),
                params: params.to_vec(),
                reply: tx,
            })?;
            replies.push((worker.id, rx));
        }
        let mut out = Vec::new();
        for (id, rx) in replies {
            let rows = rx.recv().map_err(|_| {
                Error::PartitionDown(format!("partition {id} went down before answering"))
            })??;
            out.extend(rows);
        }
        Ok(out)
    }

    /// Advance every partition's logical clock in lockstep. The advance
    /// is queued FIFO like any other job, so it lands at a deterministic
    /// point relative to this caller's submissions.
    pub fn advance_clock(&self, micros: i64) -> Result<()> {
        for worker in &self.workers {
            worker.send(WorkerMsg::AdvanceClock(micros))?;
        }
        Ok(())
    }

    /// Block until the cross-partition dataflow is quiescent: every
    /// queued job processed, no edge forwards in flight anywhere (hub or
    /// worker queues), and every edge ack delivered. Call before reading
    /// cross-edge results or shutting down cleanly.
    ///
    /// Fails fast — never hangs — when quiescence is unreachable: a
    /// partition is permanently down ([`Error::PartitionDown`]), an edge
    /// instance permanently failed delivery or ack ([`Error::Io`]; the
    /// unacked batches replay at the next recovery), or the hub died
    /// with edge work in flight.
    pub fn quiesce(&self) -> Result<()> {
        loop {
            self.check_quiescible()?;
            self.barrier(|_| Ok(()))?;
            if self.in_flight.load(Ordering::SeqCst) == 0 {
                // Forwards enqueued before the barrier are processed; a
                // second barrier flushes the edge acks those sent.
                self.barrier(|_| Ok(()))?;
                if self.in_flight.load(Ordering::SeqCst) == 0 {
                    self.check_quiescible()?;
                    return Ok(());
                }
            }
            std::thread::yield_now();
        }
    }

    /// The fail-fast half of [`Cluster::quiesce`]: typed errors for the
    /// states from which the dataflow can never settle.
    fn check_quiescible(&self) -> Result<()> {
        for (i, worker) in self.workers.iter().enumerate() {
            if self.shared.health_of(i) == PartitionHealth::Down {
                return Err(Error::PartitionDown(format!(
                    "partition {} is down; the cluster cannot quiesce",
                    worker.id
                )));
            }
        }
        let failures = self.shared.edge_failures.load(Ordering::SeqCst);
        if failures > 0 {
            return Err(Error::Io(format!(
                "{failures} cross-edge instance(s) permanently failed delivery or ack; \
                 the emitting batches stay unacked and replay at the next recovery"
            )));
        }
        if !self.shared.hub_alive.load(Ordering::SeqCst)
            && self.in_flight.load(Ordering::SeqCst) != 0
        {
            return Err(Error::Internal(
                "forward hub exited with cross-edge work in flight".into(),
            ));
        }
        Ok(())
    }

    /// Enqueue `at` on every worker and wait for all of them — every
    /// job queued before the barrier has been processed, and `at` has
    /// run on every partition, when it returns `Ok`. The first `at` that
    /// failed is the barrier's error; a worker that goes down
    /// mid-barrier surfaces as [`Error::PartitionDown`] (its tombstone
    /// drops the job).
    fn barrier(&self, at: fn(&mut SStore) -> Result<()>) -> Result<()> {
        let mut replies = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            let (tx, rx) = mpsc::channel();
            worker.send(WorkerMsg::Exec(Box::new(move |db| {
                let _ = tx.send(at(db));
            })))?;
            replies.push((worker.id, rx));
        }
        for (id, rx) in replies {
            rx.recv().map_err(|_| {
                Error::PartitionDown(format!("partition {id} went down inside a barrier"))
            })??;
        }
        Ok(())
    }

    /// Capture per-partition counters. The capture jobs are enqueued on
    /// every worker first and then collected, so the wait is bounded by
    /// the slowest single worker (like [`Cluster::query_all`]), and each
    /// capture reflects everything queued on its partition before it.
    ///
    /// Never fails and never panics: a partition whose worker is down
    /// contributes an all-zero `PartitionMetrics::unavailable`
    /// placeholder (`available: false`) — dashboards keep rendering
    /// through an outage.
    pub fn metrics(&self) -> ClusterMetrics {
        let mut replies = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            let (tx, rx) = mpsc::channel();
            let sent = worker
                .send(WorkerMsg::Exec(Box::new(move |db| {
                    let _ = tx.send(PartitionMetrics::capture(db));
                })))
                .is_ok();
            replies.push((worker.id, sent, rx));
        }
        ClusterMetrics {
            partitions: replies
                .into_iter()
                .map(|(id, sent, rx)| {
                    if !sent {
                        return PartitionMetrics::unavailable(id);
                    }
                    rx.recv()
                        .unwrap_or_else(|_| PartitionMetrics::unavailable(id))
                })
                .collect(),
            rows: sstore_common::RowMetrics::snapshot(),
            coordinator: self.coordinator_stats(),
            health: self.health(),
            sheds: self.shared.sheds.load(Ordering::SeqCst),
            worker_restarts: self.shared.restarts.load(Ordering::SeqCst),
        }
    }

    /// Sum of committed TEs across partitions.
    pub fn total_committed(&self) -> u64 {
        self.metrics().total_committed()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Best-effort quiesce so in-flight cross-edge work lands before
        // the hub goes away (bounded; a down partition must not hang the
        // drop — recovery covers whatever is left).
        for _ in 0..64 {
            if self.barrier(|_| Ok(())).is_err() {
                break;
            }
            if self.in_flight.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::yield_now();
        }
        // The hub holds clones of every worker queue, so it must exit
        // before closing the queues can stop the workers.
        if let Some(tx) = self.hub_tx.take() {
            let _ = tx.send(HubMsg::Shutdown);
        }
        if let Some(h) = self.hub_handle.take() {
            let _ = h.join();
        }
        // Closing the queues lets each worker finish everything already
        // enqueued, then exit (a tombstone drain ends the same way).
        for w in &self.workers {
            w.queue.close();
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// How many times one partition's supervisor will re-run recovery before
/// declaring the partition down — a deterministic crash must not restart
/// forever.
const MAX_WORKER_RESTARTS: u32 = 3;

/// Push every outbox envelope to the hub. Counted into `in_flight`
/// *before* the send so quiesce can never observe a gap.
fn flush_outbox(
    db: &mut SStore,
    id: PartitionId,
    hub: &mpsc::Sender<HubMsg>,
    in_flight: &AtomicI64,
) {
    for fwd in db.take_outbox() {
        in_flight.fetch_add(1, Ordering::SeqCst);
        if hub.send(HubMsg::Forward { src: id, fwd }).is_err() {
            // Hub already gone (shutdown): the batch stays unacked and
            // replays at the next recovery.
            in_flight.fetch_sub(1, Ordering::SeqCst);
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
fn supervised_worker(ctx: WorkerCtx, first: SStore) {
    let mut db_slot = Some(first);
    let mut pending: VecDeque<WorkerMsg> = VecDeque::new();
    let mut crash = CrashCtx::default();
    let mut restarts_here = 0u32;
    loop {
        let db = match db_slot.take() {
            Some(db) => db,
            None => {
                // Unreachable by construction (every path below either
                // refills the slot or returns), but never panic here.
                down_tombstone(&ctx, &mut pending);
                return;
            }
        };
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
        for (src, src_batch, stream) in crash.in_flight_forwards.drain(..) {
            let _ = ctx.hub.send(HubMsg::Logged {
                src,
                src_batch,
                stream,
                ok: false,
            });
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
                db_slot = Some(p);
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
    loop {
        let msg = match pending.pop_front() {
            Some(m) => m,
            None => match ctx.queue.recv() {
                Some(m) => m,
                None => return, // queue closed and drained: shutdown
            },
        };
        match msg {
            WorkerMsg::Ingest { reply, .. } => {
                let _ = reply.send(Err(down()));
            }
            WorkerMsg::Query { reply, .. } => {
                let _ = reply.send(Err(down()));
            }
            // Dropping the closure drops its captured reply sender; the
            // caller's recv error is mapped to PartitionDown.
            WorkerMsg::Exec(f) => drop(f),
            WorkerMsg::AdvanceClock(_) => {}
            WorkerMsg::Prepare { vote, reply, .. } => {
                let _ = vote.send(Err(down()));
                let _ = reply.send(Err(down()));
            }
            WorkerMsg::Decide { .. } => {}
            WorkerMsg::Forward {
                stream,
                src,
                src_batch,
                ..
            } => {
                // Not logged here: withhold the ack so the emitter
                // replays the batch at the next recovery.
                let _ = ctx.hub.send(HubMsg::Logged {
                    src,
                    src_batch,
                    stream,
                    ok: false,
                });
            }
            WorkerMsg::EdgeAck { .. } => {}
        }
    }
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
    flush_outbox(&mut db, id, &ctx.hub, &ctx.in_flight);
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
                let mut group = vec![(rows, reply, trace)];
                // Opportunistically coalesce same-procedure submissions
                // already waiting. A message for a different procedure
                // (or kind) stays parked so FIFO order holds.
                loop {
                    if pending.is_empty() {
                        match ctx.queue.try_recv() {
                            Some(m) => pending.push_back(m),
                            None => break,
                        }
                    }
                    match pending.front() {
                        Some(WorkerMsg::Ingest { proc: p, .. }) if *p == proc => {
                            let Some(WorkerMsg::Ingest {
                                rows, reply, trace, ..
                            }) = pending.pop_front()
                            else {
                                unreachable!("front was a matching Ingest");
                            };
                            group.push((rows, reply, trace));
                        }
                        _ => break,
                    }
                }
                crash.ingest_replies = group.iter().map(|(_, r, _)| r.clone()).collect();
                // Every group member leaves the queue at this instant;
                // pending traces are pushed in submission order, which is
                // the order the partition mints the group's batch ids.
                for (_, _, t) in &group {
                    if let Some(t) = *t {
                        obs::record(Stage::Queued, t);
                        db.push_pending_trace(t);
                    }
                }
                let traces: Vec<Option<TraceCtx>> = group.iter().map(|(_, _, t)| *t).collect();
                // Kill point: the group is captured but nothing has been
                // logged or executed — a crash here resolves every reply
                // as retryable PartitionDown.
                fault::kill_point("worker-killed-live");
                crash.uncertain = true;
                if group.len() == 1 {
                    let (rows, reply, _) = group.pop().expect("one submission");
                    let _ = reply.send(db.submit_batch(&proc, rows));
                } else {
                    let (batches, replies): (Vec<_>, Vec<_>) = group
                        .into_iter()
                        .map(|(rows, reply, _)| (rows, reply))
                        .unzip();
                    match db.submit_batch_group(&proc, batches) {
                        // Per-submission results: a batch that committed
                        // resolves Ok even when a later group member
                        // failed to enqueue — the same answer it would
                        // have gotten uncoalesced.
                        Ok(results) => {
                            for (reply, result) in replies.into_iter().zip(results) {
                                let _ = reply.send(result);
                            }
                        }
                        Err(e) => {
                            for reply in replies {
                                let _ = reply.send(Err(e.clone()));
                            }
                        }
                    }
                }
                for t in traces.into_iter().flatten() {
                    obs::record(Stage::Executed, t);
                }
                crash.uncertain = false;
                crash.ingest_replies.clear();
            }
            WorkerMsg::Query { sql, params, reply } => {
                let _ = reply.send(db.query(&sql, &params).map(|r| r.rows));
            }
            WorkerMsg::Exec(f) => f(&mut db),
            WorkerMsg::AdvanceClock(micros) => {
                db.advance_clock(micros);
            }
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
                    db.push_pending_trace(t);
                }
                // The fragment log write makes the fate uncertain; a
                // crash before the vote is sent aborts the gtid anyway
                // (the coordinator reads the dropped vote channel as a
                // no), so the reply may simply drop.
                crash.uncertain = true;
                let prepared = db.prepare_fragment(gtid, &proc, rows);
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
                // Block for the decision, deferring everything else —
                // except, while nothing is deferred yet, single-partition
                // submissions provably disjoint from the prepared
                // fragment's workflow closure: those execute immediately
                // (early-prepare speculation). Once anything defers, all
                // later messages defer too, preserving FIFO order.
                let speculate = vote_err.is_none();
                let decision = loop {
                    let next = match pending.pop_front() {
                        Some(m) => Some(m),
                        None => ctx.queue.recv(),
                    };
                    match next {
                        Some(WorkerMsg::Decide { gtid: g, commit }) if g == gtid => {
                            break Some(commit)
                        }
                        Some(WorkerMsg::Ingest {
                            proc: sp,
                            rows,
                            reply,
                            trace: spec_trace,
                        }) if speculate
                            && crash.deferred.is_empty()
                            && db.speculation_safe(&sp) =>
                        {
                            if let Some(t) = spec_trace {
                                obs::record(Stage::Queued, t);
                                db.push_pending_trace(t);
                            }
                            crash.ingest_replies.push(reply.clone());
                            crash.uncertain = true;
                            let _ = reply.send(db.submit_batch_speculative(&sp, rows));
                            crash.uncertain = false;
                            if let Some(t) = spec_trace {
                                obs::record(Stage::Executed, t);
                            }
                            crash.ingest_replies.clear();
                            // Speculative emissions onto cross-partition
                            // edges must not wait out the 2PC round.
                            flush_outbox(&mut db, id, &ctx.hub, &ctx.in_flight);
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
            WorkerMsg::Forward {
                stream,
                src,
                src_batch,
                rows,
                trace,
            } => {
                // Take the run of shards already waiting behind this one
                // (typically everything the hub delivered while this
                // worker sat in a 2PC decision wait): one log sync covers
                // them all. Any other kind of message ends the run, so
                // FIFO order holds.
                let mut forwards = Vec::new();
                let mut take =
                    |stream: String, src: PartitionId, src_batch: BatchId, rows, trace| {
                        // The upstream batch's trace follows the rows so the
                        // receiver's batch maps back to the same end-to-end id
                        // (no stage is recorded here — receiver-side batches
                        // would double-count against the emitting submission).
                        if let Some(t) = trace {
                            db.push_pending_trace(t);
                        }
                        // A crash while the run is half-logged must complete
                        // the hub's envelope bookkeeping: the supervisor
                        // reports every member as a failed log (ack withheld,
                        // emitter replays).
                        crash
                            .in_flight_forwards
                            .push((src, src_batch, stream.clone()));
                        forwards.push(InboundForward {
                            stream,
                            src_partition: src.raw(),
                            src_batch: src_batch.raw(),
                            rows,
                        });
                    };
                take(stream, src, src_batch, rows, trace);
                loop {
                    if pending.is_empty() {
                        match ctx.queue.try_recv() {
                            Some(m) => pending.push_back(m),
                            None => break,
                        }
                    }
                    if !matches!(pending.front(), Some(WorkerMsg::Forward { .. })) {
                        break;
                    }
                    if let Some(WorkerMsg::Forward {
                        stream,
                        src,
                        src_batch,
                        rows,
                        trace,
                    }) = pending.pop_front()
                    {
                        take(stream, src, src_batch, rows, trace);
                    }
                }
                let logged = db.accept_forwards(forwards);
                if logged.iter().any(|r| matches!(r, Ok(Some(_)))) {
                    if let Err(e) = db.run_queued() {
                        slog!(
                            Error, partition = id.raw();
                            "forwarded batches failed to execute: {e}"
                        );
                    }
                }
                // A duplicate (`Ok(None)`) is already durable here.
                for ((src, src_batch, stream), result) in
                    crash.in_flight_forwards.drain(..).zip(logged)
                {
                    if let Err(e) = &result {
                        slog!(
                            Warn, partition = id.raw();
                            "could not log forward on `{stream}`: {e}"
                        );
                    }
                    let _ = ctx.hub.send(HubMsg::Logged {
                        src,
                        src_batch,
                        stream,
                        ok: result.is_ok(),
                    });
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
        flush_outbox(&mut db, id, &ctx.hub, &ctx.in_flight);
    }
}

/// The forward hub: the router thread carrying cross-partition workflow
/// edges. Workers push envelopes on an unbounded channel (never
/// blocking); the hub shards each envelope by its edge's key column and
/// delivers the shards to the receiving workers' bounded queues — the
/// hub is the only thread that blocks on worker queues, so edge cycles
/// between partitions cannot deadlock. When every shard of an envelope
/// is durably logged at its receiver, the hub sends the emitting worker
/// an edge ack, releasing that batch's upstream backup; an envelope with
/// any failed shard (log error, receiver down) withholds the ack and
/// counts an edge failure, which [`Cluster::quiesce`] reports.
fn hub_loop(
    rx: mpsc::Receiver<HubMsg>,
    workers: Vec<IngestQueue<WorkerMsg>>,
    partitions: usize,
    in_flight: Arc<AtomicI64>,
    shared: Arc<ClusterShared>,
) {
    // Whatever path exits this thread, record that the hub is gone so
    // quiesce can distinguish "settling" from "will never settle".
    struct HubAliveGuard(Arc<ClusterShared>);
    impl Drop for HubAliveGuard {
        fn drop(&mut self) {
            self.0.hub_alive.store(false, Ordering::SeqCst);
        }
    }
    let _alive = HubAliveGuard(Arc::clone(&shared));
    // Outstanding shard counts (and health) per edge instance.
    let mut pending_acks: HashMap<(u32, u64, String), (usize, bool)> = HashMap::new();
    // One router per edge key column, built on first use — the hot
    // forward path must not re-validate a Router per envelope. Hash
    // placement is total over any key, so construction cannot fail for
    // a positive partition count (validated at build).
    let mut routers: HashMap<usize, Router> = HashMap::new();
    let mut shutting_down = false;
    loop {
        let msg = if shutting_down {
            match rx.try_recv() {
                Ok(m) => m,
                Err(_) => break, // queue drained; exit
            }
        } else {
            match rx.recv() {
                Ok(m) => m,
                Err(_) => break,
            }
        };
        match msg {
            HubMsg::Forward { src, fwd } => {
                // Edges route by hash over the edge's own key column.
                // (The ingest route's range bounds apply to the ingest
                // key's value domain, which a re-keyed edge need not
                // share — hash placement is total over any key.)
                let router = match routers.entry(fwd.key_col) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        match Router::new(RouteSpec::hash(fwd.key_col), partitions) {
                            Ok(r) => e.insert(r),
                            Err(err) => {
                                slog!(Error; "edge router build failed: {err}");
                                shared.edge_failures.fetch_add(1, Ordering::SeqCst);
                                in_flight.fetch_sub(1, Ordering::SeqCst);
                                continue;
                            }
                        }
                    }
                };
                match router.shard(fwd.rows) {
                    Ok(shards) => {
                        // The emitting batch's forward left its partition:
                        // one Forwarded record per envelope, stamped at
                        // hub emission.
                        if let Some(t) = fwd.trace {
                            obs::record(Stage::Forwarded, t);
                        }
                        let k = shards.iter().filter(|s| !s.is_empty()).count();
                        if k == 0 {
                            // An empty envelope (cannot normally happen):
                            // nothing to deliver, release the sender.
                            let _ = workers[src.raw() as usize]
                                .send(WorkerMsg::EdgeAck { batch: fwd.batch });
                        } else {
                            let key = (src.raw(), fwd.batch.raw(), fwd.stream.clone());
                            pending_acks.insert(key.clone(), (k, true));
                            in_flight.fetch_add(k as i64, Ordering::SeqCst);
                            for (i, shard) in shards.into_iter().enumerate() {
                                if shard.is_empty() {
                                    continue;
                                }
                                let delivered = workers[i]
                                    .send(WorkerMsg::Forward {
                                        stream: fwd.stream.clone(),
                                        src,
                                        src_batch: fwd.batch,
                                        rows: shard,
                                        trace: fwd.trace,
                                    })
                                    .is_ok();
                                if !delivered {
                                    // Receiver down or closing: the shard
                                    // was never logged there. Complete the
                                    // envelope bookkeeping as a failure.
                                    if let Some((remaining, all_ok)) = pending_acks.get_mut(&key) {
                                        *remaining -= 1;
                                        *all_ok = false;
                                        if *remaining == 0 {
                                            pending_acks.remove(&key);
                                            shared.edge_failures.fetch_add(1, Ordering::SeqCst);
                                        }
                                    }
                                    in_flight.fetch_sub(1, Ordering::SeqCst);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        // Unroutable rows (e.g. NULL edge key): the edge
                        // ack is withheld, so the emitting batch stays
                        // replayable — loudly, not silently.
                        slog!(
                            Error, partition = src.raw();
                            "cross-edge `{}` unroutable: {e}", fwd.stream
                        );
                        shared.edge_failures.fetch_add(1, Ordering::SeqCst);
                    }
                }
                in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            HubMsg::Logged {
                src,
                src_batch,
                stream,
                ok,
            } => {
                let key = (src.raw(), src_batch.raw(), stream);
                if let Some((remaining, all_ok)) = pending_acks.get_mut(&key) {
                    *remaining -= 1;
                    *all_ok &= ok;
                    if *remaining == 0 {
                        let healthy = *all_ok;
                        pending_acks.remove(&key);
                        if healthy {
                            let acked = workers[src.raw() as usize]
                                .send(WorkerMsg::EdgeAck { batch: src_batch })
                                .is_ok();
                            if !acked {
                                // The emitter is down: its batch stays
                                // unacked and replays at recovery.
                                shared.edge_failures.fetch_add(1, Ordering::SeqCst);
                            }
                        } else {
                            // A failed shard withholds the ack: the
                            // emitting batch stays unacked and replays
                            // at recovery.
                            shared.edge_failures.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            HubMsg::Shutdown => {
                shutting_down = true;
            }
        }
    }
    // Dropping `workers` here releases the hub's queue clones; the
    // cluster's Drop closes the queues right after joining this thread.
}
