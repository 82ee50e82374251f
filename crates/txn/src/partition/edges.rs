//! Cross-partition workflow edges: the outbox of envelopes a committed TE
//! emits onto a declared remote stream, and the exactly-once inbox that
//! logs arriving forwards and deduplicates them by per-edge high-water
//! mark.

use super::Partition;
use crate::log::LogRecord;
use crate::transaction::Invocation;
use crate::workflow::CrossEdge;
use sstore_common::obs::{self, Stage, TraceCtx};
use sstore_common::{hash::HashMap, Batch, BatchId, Error, Result, Row, TableId};

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
    /// The emitting batch's lifecycle trace ([`RemoteForward::trace`]),
    /// attached to the local batch so onward hops stay attributable.
    pub trace: Option<TraceCtx>,
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

/// The edges' state: what waits to leave, and what has arrived.
#[derive(Default)]
pub(super) struct Edges {
    /// Batches emitted onto remote streams, awaiting pickup by the
    /// cluster runtime ([`Partition::take_outbox`]).
    outbox: Vec<RemoteForward>,
    /// Exactly-once dedup state per incoming edge: highest source batch
    /// id already accepted from `(source partition, stream)`.
    high_water: HashMap<(u32, String), u64>,
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
    gaps: HashMap<(u32, String), u64>,
}

impl Edges {
    /// The admission rule for a forward of `src_batch` on edge `key`:
    /// `Ok(false)` for a duplicate of the high-water mark, `Ok(true)` for
    /// a batch to log, and an error while an older refused batch leaves
    /// a hole on the edge.
    fn admit(&self, key: &(u32, String), src_batch: u64) -> Result<bool> {
        if src_batch <= self.high_water.get(key).copied().unwrap_or(0) {
            return Ok(false);
        }
        match self.gaps.get(key) {
            Some(&gap) if src_batch > gap => Err(Error::Io(format!(
                "edge `{}` from partition {} has an unfilled hole at source batch {gap}; \
                 refusing younger batch {src_batch} to preserve in-order exactly-once delivery",
                key.1, key.0
            ))),
            _ => Ok(true),
        }
    }

    /// Record that the forward of `src_batch` on edge `key` was refused.
    fn mark_gap(&mut self, key: (u32, String), src_batch: u64) {
        let gap = self.gaps.entry(key).or_insert(src_batch);
        *gap = (*gap).min(src_batch);
    }

    /// Raise edge `key`'s high-water mark to at least `src_batch` (replay
    /// of a snapshot-covered forward, or a persisted mark).
    pub(super) fn raise(&mut self, key: (u32, String), src_batch: u64) {
        let mark = self.high_water.entry(key).or_insert(0);
        *mark = (*mark).max(src_batch);
    }

    /// Every high-water mark as `(source partition, stream, mark)`,
    /// sorted — the entries of an `EdgeHighWater` record.
    pub(super) fn high_water_entries(&self) -> Vec<(u32, String, u64)> {
        let mut entries: Vec<(u32, String, u64)> = self
            .high_water
            .iter()
            .map(|((src, stream), &hw)| (*src, stream.clone(), hw))
            .collect();
        entries.sort();
        entries
    }

    /// Queue an envelope for the cluster runtime.
    pub(super) fn push_out(&mut self, fwd: RemoteForward) {
        self.outbox.push(fwd);
    }
}

impl Partition {
    /// Declare `stream` a cross-partition workflow edge: tuples emitted
    /// onto it are not consumed by this partition's PE triggers but
    /// buffered in the outbox ([`Partition::take_outbox`]) for the
    /// cluster runtime to route by `key_col` to the owning partitions.
    /// Survives workflow rebuilds; redeclaring a stream replaces its
    /// routing column.
    pub fn declare_cross_edge(&mut self, stream: &str, key_col: usize) -> Result<()> {
        let sid = self.stream_id(stream)?;
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
        self.workflow.declare_remote(CrossEdge {
            stream: sid,
            key_col,
        });
        Ok(())
    }

    /// A committed TE of batch `b` emitted `rows` onto the remote stream
    /// `stream`: log the envelope and queue it in the outbox. The
    /// emitting batch stays open (one extra ref) until the receiving
    /// partition has durably logged the forward — upstream backup across
    /// the edge.
    pub(super) fn emit_remote(
        &mut self,
        b: BatchId,
        stream: TableId,
        key_col: usize,
        rows: Vec<Row>,
    ) -> Result<()> {
        let name = self
            .engine
            .db()
            .catalog()
            .meta(stream)
            .map(|m| m.name.clone())
            .ok_or_else(|| Error::NotFound(format!("stream {stream}")))?;
        self.stats.forwards_out += 1;
        *self.batch_refs.entry(b.raw()).or_insert(0) += 1;
        // Source half of the edge's upstream backup: if a retention
        // snapshot covers batch `b` before the edge ack arrives, replay
        // will skip `b` — this record is then the only source of the
        // envelope.
        if let Err(e) = self.log_record(&LogRecord::ForwardOut {
            batch: b,
            stream: name.clone(),
            key_col: key_col as u32,
            rows: rows.clone(),
        }) {
            // Post-commit-point failure: the emitting batch is durable
            // and applied, but its envelope can never be logged (the
            // failed record was dropped from the buffer). Live state has
            // diverged from what replay will produce — go down for a
            // rebuild from disk, which re-runs the batch and re-creates
            // the envelope.
            self.durable.diverge();
            return Err(e);
        }
        self.edges.push_out(RemoteForward {
            stream: name,
            key_col,
            batch: b,
            rows,
            trace: self.batch_traces.get(&b.raw()).copied(),
        });
        // The envelope holds shared row handles; the emitted tuples are
        // terminally consumed locally.
        self.engine.gc_stream(stream, b)?;
        Ok(())
    }

    /// Accept one untraced batch forwarded over a cross-partition edge:
    /// the one-element case of [`Partition::accept_forwards`] (recovery
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
            trace: None,
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
            let sid = match self.stream_id(&fwd.stream) {
                Ok(sid) => sid,
                Err(e) => {
                    slots.push(Slot::Done(Err(e)));
                    continue;
                }
            };
            let (src_batch, key) = (fwd.src_batch, (fwd.src_partition, fwd.stream));
            match self.edges.admit(&key, src_batch) {
                Ok(true) => {}
                Ok(false) => {
                    self.stats.forwards_deduped += 1;
                    slots.push(Slot::Done(Ok(None)));
                    continue;
                }
                Err(e) => {
                    slots.push(Slot::Done(Err(e)));
                    continue;
                }
            }
            // The run's own members are not in the high-water yet.
            if let Some(i) = staged.iter().rposition(|s| s.key == key) {
                if src_batch <= staged[i].src_batch {
                    slots.push(Slot::DupOf(i));
                    continue;
                }
            }
            self.next_batch += 1;
            let batch = BatchId::new(self.next_batch);
            match self.log_record(&LogRecord::Forward {
                batch,
                stream: key.1.clone(),
                src_partition: key.0,
                src_batch,
                rows: fwd.rows.clone(),
                ts: self.clock.now(),
            }) {
                Ok(synced) => {
                    // This member fills the hole (if any) unless the
                    // shared sync fails, which re-marks it below.
                    self.edges.gaps.remove(&key);
                    slots.push(Slot::Staged(staged.len()));
                    staged.push(StagedForward {
                        key,
                        src_batch,
                        sid,
                        batch,
                        rows: fwd.rows,
                        trace: fwd.trace,
                    });
                    if synced {
                        durable = staged.len();
                    }
                }
                Err(e) => {
                    self.edges.mark_gap(key, src_batch);
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
        if durable > 0 {
            // The forwards are durable here but no edge ack has been sent
            // — the senders must keep their upstream backup and
            // re-forward; dedupe makes that exactly-once.
            self.kill_point("forward-logged");
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
                            self.edges.mark_gap(fwd.key, fwd.src_batch);
                            Err(e.clone())
                        }
                        None => self.admit_forward(fwd).map(Some),
                    }
                }
            })
            .collect()
    }

    /// A forward's record is durable: advance the edge's high-water mark
    /// and enqueue one TE per consuming procedure.
    fn admit_forward(&mut self, fwd: StagedForward) -> Result<BatchId> {
        let batch = fwd.batch;
        self.edges.high_water.insert(fwd.key, fwd.src_batch);
        self.stats.forwards_in += 1;
        let consumers = self.workflow.consumers_of(fwd.sid).to_vec();
        if consumers.is_empty() {
            // No consumer deployed here: the forward is terminally
            // consumed on arrival (still logged + deduped, so replay and
            // the sender's upstream backup stay correct).
            self.stats.batches_completed += 1;
            self.log_record(&LogRecord::Ack { batch })?;
            return Ok(batch);
        }
        self.batch_refs.insert(batch.raw(), consumers.len());
        if let Some(t) = fwd.trace {
            // Keep the originating submission's trace attached to the
            // local batch so onward hops (forwards emitted by this
            // batch's TEs) stay attributable to it.
            self.batch_traces.insert(batch.raw(), t);
        }
        for consumer in consumers {
            self.stats.pe_trigger_firings += 1;
            self.queue.push_back(Invocation {
                proc: consumer,
                batch: Batch::new(batch, fwd.rows.clone()),
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
        std::mem::take(&mut self.edges.outbox)
    }
}
