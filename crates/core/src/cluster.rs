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
//!   deterministic. The worker loop and its supervisor live in the
//!   `worker` module; cross-partition edges travel through the forward
//!   hub of the `hub` module.
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
//! # Admission control
//!
//! Admission control is the other half of overload hardening, beside
//! worker supervision:
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
//! records — forces every participant's log down first. **Presumed
//! abort**: abort decisions are never logged; recovery reads a gtid's
//! absence from `coord.log` as abort, so the abort round skips the
//! coordinator fsync entirely.
//!
//! A submission whose rows all land on one partition skips all of this:
//! the coordinator detects it and takes the plain ingest path
//! byte-for-byte (the single-partition fast path).
//!
//! Recovery rebuilds the partitions **in parallel** — each replays its
//! own `p{i}` log on a scoped thread against the shared decision map —
//! and only wires the workers (whose startup re-forwards unacked edge
//! envelopes) once every partition is up.

use crate::builder::SStoreBuilder;
use crate::coordinator::{CoordState, CoordStats, Coordinator, CoordinatorLog};
use crate::hub::{hub_loop, HubMsg};
use crate::ingest::{IngestQueue, SendError, TrySendError};
use crate::metrics::{ClusterMetrics, PartitionMetrics};
use crate::router::{RouteSpec, Router, Ticket};
use crate::worker::{supervised_worker, SetupFn, WorkerCtx, WorkerMsg};
use crate::SStore;
use sstore_common::hash::{HashMap, HashSet};
use sstore_common::obs::{self, Stage, TraceCtx};
use sstore_common::{slog, Error, PartitionId, Result, Row, Value};
use sstore_txn::recovery::recover_with_decisions;
use sstore_txn::TxnOutcome;
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
pub(crate) struct ClusterShared {
    /// Per-partition [`PartitionHealth`] discriminants.
    health: Vec<AtomicU8>,
    /// Supervised worker restarts, cluster lifetime.
    pub(crate) restarts: AtomicU64,
    /// Submissions refused by admission control, cluster lifetime.
    sheds: AtomicU64,
    /// Edge instances whose ack was permanently withheld (failed forward
    /// log write, receiver down, unroutable rows). Non-zero means the
    /// cross-partition dataflow cannot quiesce: the unacked batches
    /// replay at the next recovery.
    pub(crate) edge_failures: AtomicU64,
    /// False once the hub thread exited (normally only at shutdown).
    pub(crate) hub_alive: AtomicBool,
    /// Outstanding cross-edge work units (envelopes + delivered shards);
    /// zero ⇔ the dataflow between partitions is quiescent.
    pub(crate) in_flight: AtomicI64,
}

impl ClusterShared {
    fn new(n: usize) -> ClusterShared {
        ClusterShared {
            health: (0..n).map(|_| AtomicU8::new(0)).collect(),
            restarts: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            edge_failures: AtomicU64::new(0),
            hub_alive: AtomicBool::new(true),
            in_flight: AtomicI64::new(0),
        }
    }

    fn health_of(&self, i: usize) -> PartitionHealth {
        match self.health[i].load(Ordering::SeqCst) {
            0 => PartitionHealth::Healthy,
            1 => PartitionHealth::Restarting,
            _ => PartitionHealth::Down,
        }
    }

    pub(crate) fn set_health(&self, id: PartitionId, h: PartitionHealth) {
        self.health[id.raw() as usize].store(h as u8, Ordering::SeqCst);
    }
}

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

/// A shared-nothing group of identically-deployed partitions, each run by
/// a supervised worker thread, plus the cross-partition machinery: the
/// 2PC coordinator and the forward hub (see module docs).
pub struct Cluster {
    workers: Vec<Worker>,
    router: Router,
    hub_tx: Option<mpsc::Sender<HubMsg>>,
    hub_handle: Option<JoinHandle<()>>,
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
        // Refuses an empty cluster.
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
            HashMap::default()
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
        let multi_partition_procs = partitions[0].multi_partition_procs().into_iter().collect();
        for p in &partitions {
            // A partition may have prepared gtids the coordinator never
            // decided (in-doubt at the crash): sequence past those too.
            next_gtid = next_gtid.max(p.max_gtid_seen() + 1);
        }
        let coord_log = coord_dir.as_deref().map(CoordinatorLog::open).transpose()?;
        let coordinator = Mutex::new(Coordinator::new(coord_log, next_gtid));

        // Worker queues, then the hub (it holds every queue), then the
        // supervised workers (each holds the hub's sender). The queues
        // are plain shared state — not channels tied to a receiver
        // thread — so a restarted worker resumes the same backlog.
        let shared = Arc::new(ClusterShared::new(n));
        let queues: Vec<IngestQueue<WorkerMsg>> = (0..n).map(|_| IngestQueue::new(depth)).collect();
        let (hub_tx, hub_rx) = mpsc::channel::<HubMsg>();
        let hub_handle = {
            let queues = queues.clone();
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sstore-hub".into())
                .spawn(move || hub_loop(hub_rx, queues, shared))
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
        let mut replies = self.ask([(&self.workers[i], f)]);
        replies.pop().expect("one reply per job")
    }

    /// Send each `(worker, job)` as an `Exec` message, then collect the
    /// replies in order: the job's result, the send error for a worker
    /// that is down, or [`Error::PartitionDown`] for one that went down
    /// before answering (its tombstone drops the job). The wait is
    /// bounded by the slowest single worker.
    fn ask<'a, R, F>(&self, jobs: impl IntoIterator<Item = (&'a Worker, F)>) -> Vec<Result<R>>
    where
        R: Send + 'static,
        F: FnOnce(&mut SStore) -> R + Send + 'static,
    {
        let sent: Vec<_> = jobs
            .into_iter()
            .map(|(worker, job)| {
                let (tx, rx) = mpsc::channel();
                let exec = WorkerMsg::Exec(Box::new(move |db| {
                    let _ = tx.send(job(db));
                }));
                (worker.id, worker.send(exec).map(|()| rx))
            })
            .collect();
        sent.into_iter()
            .map(|(id, rx)| {
                rx?.recv().map_err(|_| {
                    Error::PartitionDown(format!("partition {id} went down before answering"))
                })
            })
            .collect()
    }

    /// Mint a submission's trace, shard its rows by the declared route
    /// (rejecting `NULL` keys before anything is enqueued), and record
    /// the `routed` stage.
    fn route<R: Into<Row>>(&self, rows: Vec<R>) -> Result<(Vec<Vec<Row>>, Option<TraceCtx>)> {
        let trace = obs::enabled().then(TraceCtx::mint);
        let rows = rows.into_iter().map(Into::into).collect();
        let shards = self.router.shard(rows)?;
        if let Some(t) = trace {
            obs::record(Stage::Routed, t);
        }
        Ok((shards, trace))
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
        let (shards, trace) = self.route(rows)?;
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
        let (shards, trace) = self.route(rows)?;
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
        let (ingests, ticket) = self.ingests(proc, shards, trace);
        // Workers are iterated in ascending partition order, which is the
        // globally consistent lock order `try_send_all` requires.
        let sends = ingests.into_iter().map(|(w, m)| (&w.queue, m)).collect();
        match IngestQueue::try_send_all(sends) {
            Ok(()) => Ok(ticket),
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
        let (shards, trace) = self.route(rows)?;
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

    /// One `Ingest` per partition that received rows, and the ticket
    /// their replies resolve.
    fn ingests(
        &self,
        proc: &str,
        shards: Vec<Vec<Row>>,
        trace: Option<TraceCtx>,
    ) -> (Vec<(&Worker, WorkerMsg)>, Ticket) {
        let mut ingests = Vec::new();
        let mut pending = Vec::new();
        for (worker, shard) in self.workers.iter().zip(shards) {
            if shard.is_empty() {
                continue;
            }
            let (tx, rx) = mpsc::channel();
            let msg = WorkerMsg::Ingest {
                proc: proc.to_string(),
                rows: shard,
                reply: tx,
                trace,
            };
            ingests.push((worker, msg));
            pending.push((worker.id, rx));
        }
        (ingests, Ticket { pending })
    }

    fn submit_shards(
        &self,
        proc: &str,
        shards: Vec<Vec<Row>>,
        trace: Option<TraceCtx>,
    ) -> Result<Ticket> {
        let (ingests, ticket) = self.ingests(proc, shards, trace);
        for (worker, msg) in ingests {
            worker.send(msg)?;
        }
        Ok(ticket)
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
            commit &= matches!(rx.recv(), Ok(Ok(())));
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
        let jobs = self.workers.iter().map(|worker| {
            let (sql, params) = (sql.to_string(), params.to_vec());
            (worker, move |db: &mut SStore| db.query(&sql, &params))
        });
        let mut out = Vec::new();
        for result in self.ask(jobs) {
            out.extend(result??.rows);
        }
        Ok(out)
    }

    /// Advance every partition's logical clock in lockstep. The advance
    /// is queued FIFO like any other job, so it lands at a deterministic
    /// point relative to this caller's submissions.
    pub fn advance_clock(&self, micros: i64) -> Result<()> {
        for worker in &self.workers {
            worker.send(WorkerMsg::Exec(Box::new(move |db| {
                db.advance_clock(micros)
            })))?;
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
            if self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                // Forwards enqueued before the barrier are processed; a
                // second barrier flushes the edge acks those sent.
                self.barrier(|_| Ok(()))?;
                if self.shared.in_flight.load(Ordering::SeqCst) == 0 {
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
            && self.shared.in_flight.load(Ordering::SeqCst) != 0
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
    /// failed is the barrier's error; a worker that is or goes down
    /// mid-barrier surfaces as [`Error::PartitionDown`].
    fn barrier(&self, at: fn(&mut SStore) -> Result<()>) -> Result<()> {
        let jobs = self.workers.iter().map(|worker| (worker, at));
        self.ask(jobs).into_iter().try_for_each(|r| r?)
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
        let jobs = self
            .workers
            .iter()
            .map(|worker| (worker, |db: &mut SStore| PartitionMetrics::capture(db)));
        let captures = self.ask(jobs).into_iter().zip(&self.workers);
        ClusterMetrics {
            partitions: captures
                .map(|(m, w)| m.unwrap_or_else(|_| PartitionMetrics::unavailable(w.id)))
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
            if self.barrier(|_| Ok(())).is_err()
                || self.shared.in_flight.load(Ordering::SeqCst) == 0
            {
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
