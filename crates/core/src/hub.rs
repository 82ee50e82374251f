//! The forward hub: the router thread carrying cross-partition workflow
//! edges.
//!
//! A stream declared a cross-partition edge ([`crate::Cluster::with_edges`])
//! carries tuples from a committing TE on one partition to the consuming
//! procedures on the partitions owning the downstream keys: the emitting
//! worker buffers an envelope, the hub shards it by the edge's key column,
//! and each receiving worker logs the forward durably (dedup'd by per-edge
//! high-water mark) before executing it — ordered, exactly-once dataflow
//! across partitions. A worker takes every shard already waiting at the
//! head of its queue as one run ([`sstore_txn::Partition::accept_forwards`]):
//! all records appended, **one** fsync, then execution and one ack per
//! shard. The emitting batch's input record stays replayable (unacked)
//! until every receiver has logged its shard: upstream backup spans the
//! edge.
//!
//! Workers never block on the hub (its queue is unbounded), and the hub is
//! the only thread that blocks on worker queues, so forward storms and
//! edge cycles between partitions cannot deadlock the worker set. An edge
//! instance that permanently fails delivery (a receiver down, an
//! unroutable key, a failed forward log write) withholds its ack and
//! counts an **edge failure**; [`crate::Cluster::quiesce`] reports those
//! instead of pretending the dataflow settled — the unacked batches replay
//! at the next recovery.

use crate::cluster::ClusterShared;
use crate::ingest::IngestQueue;
use crate::router::{RouteSpec, Router};
use crate::worker::WorkerMsg;
use sstore_common::obs::{self, Stage};
use sstore_common::{hash::HashMap, slog, BatchId, PartitionId};
use sstore_txn::InboundForward;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

/// One edge instance: `(source partition, source batch, stream)`.
pub(crate) type EdgeKey = (u32, u64, String);

/// Messages to the forward hub.
pub(crate) enum HubMsg {
    /// An emitted batch bound for the partitions owning its keys.
    Forward {
        src: PartitionId,
        fwd: sstore_txn::RemoteForward,
    },
    /// A receiver durably logged (or deduplicated) its shard of `edge`.
    /// `ok = false` means the log write failed (or the receiver died
    /// holding the shard): the edge ack is withheld so the emitting batch
    /// stays replayable.
    Logged { edge: EdgeKey, ok: bool },
    /// Cluster shutdown: drain what is queued, then exit.
    Shutdown,
}

/// The hub loop. Workers push envelopes on an unbounded channel (never
/// blocking); the hub shards each envelope by its edge's key column and
/// delivers the shards to the receiving workers' bounded queues. When
/// every shard of an envelope is durably logged at its receiver, the hub
/// sends the emitting worker an edge ack, releasing that batch's upstream
/// backup; an envelope with any failed shard (log error, receiver down)
/// withholds the ack and counts an edge failure.
pub(crate) fn hub_loop(
    rx: mpsc::Receiver<HubMsg>,
    workers: Vec<IngestQueue<WorkerMsg>>,
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
    let mut pending_acks: HashMap<EdgeKey, (usize, bool)> = HashMap::default();
    // One router per edge key column, built on first use — the hot
    // forward path must not re-validate a Router per envelope. Hash
    // placement is total over any key, so construction cannot fail for
    // a positive partition count (validated at build).
    let mut routers: HashMap<usize, Router> = HashMap::default();
    let mut shutting_down = false;
    loop {
        let next = if shutting_down {
            rx.try_recv().ok() // exit once the queue is drained
        } else {
            rx.recv().ok()
        };
        let Some(msg) = next else { break };
        match msg {
            HubMsg::Forward { src, fwd } => {
                // Edges route by hash over the edge's own key column.
                // (The ingest route's range bounds apply to the ingest
                // key's value domain, which a re-keyed edge need not
                // share — hash placement is total over any key.)
                let router = match routers.entry(fwd.key_col) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        match Router::new(RouteSpec::hash(fwd.key_col), workers.len()) {
                            Ok(r) => e.insert(r),
                            Err(err) => {
                                slog!(Error; "edge router build failed: {err}");
                                shared.edge_failures.fetch_add(1, Ordering::SeqCst);
                                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
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
                            shared.in_flight.fetch_add(k as i64, Ordering::SeqCst);
                            for (i, shard) in shards.into_iter().enumerate() {
                                if shard.is_empty() {
                                    continue;
                                }
                                let delivered = workers[i]
                                    .send(WorkerMsg::Forward(InboundForward {
                                        stream: fwd.stream.clone(),
                                        src_partition: src.raw(),
                                        src_batch: fwd.batch.raw(),
                                        rows: shard,
                                        trace: fwd.trace,
                                    }))
                                    .is_ok();
                                if !delivered {
                                    // Receiver down or closing: the shard
                                    // was never logged there.
                                    settle(&mut pending_acks, &workers, &shared, &key, false);
                                    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
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
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            HubMsg::Logged { edge, ok } => {
                settle(&mut pending_acks, &workers, &shared, &edge, ok);
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            HubMsg::Shutdown => {
                shutting_down = true;
            }
        }
    }
    // Dropping `workers` here releases the hub's queue clones; the
    // cluster's Drop closes the queues right after joining this thread.
}

/// One shard of `edge` settled at its receiver (`ok`: durably logged or
/// deduplicated). Once every shard has, ack the emitting batch — unless a
/// shard failed or the emitter is down, which withholds the ack and
/// counts an edge failure: the batch stays unacked and replays at the
/// next recovery.
fn settle(
    pending_acks: &mut HashMap<EdgeKey, (usize, bool)>,
    workers: &[IngestQueue<WorkerMsg>],
    shared: &ClusterShared,
    edge: &EdgeKey,
    ok: bool,
) {
    let Some((remaining, all_ok)) = pending_acks.get_mut(edge) else {
        return;
    };
    *remaining -= 1;
    *all_ok &= ok;
    if *remaining > 0 {
        return;
    }
    let healthy = *all_ok;
    pending_acks.remove(edge);
    let batch = BatchId::new(edge.1);
    if !healthy
        || workers[edge.0 as usize]
            .send(WorkerMsg::EdgeAck { batch })
            .is_err()
    {
        shared.edge_failures.fetch_add(1, Ordering::SeqCst);
    }
}
