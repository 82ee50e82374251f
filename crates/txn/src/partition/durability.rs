//! Durability: the command log with its group commit and the `Fsynced`
//! trace bookkeeping, snapshots with the full-vs-delta chain decision,
//! and recovery's side of the partition — restore, replay, and the
//! records recovery appends.

use super::{Partition, RemoteForward};
use crate::log::{CommandLog, LogConfig, LogRecord};
use sstore_common::obs::{self, Stage, TraceCtx};
use sstore_common::{fault, BatchId, Clock, Error, Result, TxnId};
use sstore_storage::snapshot::{Snapshot, SnapshotDelta, SnapshotKey};

/// The partition's durability state.
#[derive(Default)]
pub(super) struct Durability {
    /// The command log (`None` = durability off).
    log: Option<CommandLog>,
    /// True while replaying the log (suppresses re-logging).
    replaying: bool,
    /// During recovery: highest batch id the restored snapshot covers.
    /// Replay skips execution of covered batches, so a covered
    /// `ForwardOut` record must rebuild its envelope from the log.
    replay_covered: u64,
    /// Identity of the last snapshot image written or restored (base or
    /// delta) and the number of deltas chained onto its base; the next
    /// delta chains onto it. `None` until the first image exists.
    chain: Option<(SnapshotKey, u64)>,
    /// Committed TEs since the last snapshot (drives `LogRetention`).
    commits_since_snapshot: u64,
    /// Set when a durability write failed *after* a commit point (a 2PC
    /// decision record, a post-commit `ForwardOut` emission record): the
    /// failed record was dropped cleanly from the log buffer, but
    /// in-memory state now holds effects the log will never reflect. The
    /// only safe continuation is a rebuild from disk
    /// ([`Partition::durability_poisoned`] tells a supervisor to do
    /// exactly that); anything else — including a retention snapshot —
    /// would capture the divergence.
    state_diverged: bool,
    /// Traces whose border/prepare record sits in the group-commit
    /// buffer: flushed to the `Fsynced` stage when a sync covers them.
    unsynced_traces: Vec<TraceCtx>,
}

impl Durability {
    /// Open the command log when one is configured.
    pub(super) fn open(cfg: Option<&LogConfig>) -> Result<Durability> {
        Ok(Durability {
            log: cfg.map(|c| CommandLog::open(c.clone())).transpose()?,
            ..Durability::default()
        })
    }

    /// A TE committed (counts toward the retention policy).
    pub(super) fn note_commit(&mut self) {
        self.commits_since_snapshot += 1;
    }

    /// A record failed to log after its commit point: live state and
    /// the log have diverged until a rebuild from disk.
    pub(super) fn diverge(&mut self) {
        self.state_diverged = true;
    }
}

impl Partition {
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
        self.durable.state_diverged || self.durable.log.as_ref().is_some_and(|l| l.poisoned())
    }

    /// True when [`Self::log_record`] writes (a log is attached, no replay):
    /// hot paths check it before building a record that copies rows.
    pub(super) fn logging(&self) -> bool {
        self.durable.log.is_some() && !self.durable.replaying
    }

    /// A crash-test kill point on live execution only: replay runs the
    /// same code and must not die there.
    pub(super) fn kill_point(&self, name: &str) {
        if !self.durable.replaying {
            fault::kill_point(name);
        }
    }

    /// Append `record` to the command log. Returns whether the append
    /// triggered a group-commit fsync (so callers can resolve the
    /// `Fsynced` trace stage for everything the sync covered).
    pub(super) fn log_record(&mut self, record: &LogRecord) -> Result<bool> {
        if self.durable.replaying {
            return Ok(false);
        }
        if let Some(log) = &mut self.durable.log {
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
        if self.durable.replaying {
            return Ok(());
        }
        if let Some(log) = &mut self.durable.log {
            log.sync()?;
            self.stats.log_syncs = log.syncs();
            self.flush_fsynced_traces();
        }
        Ok(())
    }

    /// Open the next batch: assign its id, log its input record (built
    /// by `record` only when a log writes), and attach `trace` — the
    /// `Logged` stage now, `Fsynced` once a sync covers the record.
    pub(super) fn open_batch(
        &mut self,
        trace: Option<TraceCtx>,
        record: impl FnOnce(BatchId) -> LogRecord,
    ) -> Result<BatchId> {
        self.next_batch += 1;
        let batch = BatchId::new(self.next_batch);
        let synced = self.logging() && self.log_record(&record(batch))?;
        if let Some(t) = trace {
            if self.logging() {
                obs::record(Stage::Logged, t);
                self.durable.unsynced_traces.push(t);
            }
            self.batch_traces.insert(batch.raw(), t);
        }
        if synced {
            self.flush_fsynced_traces();
        }
        Ok(batch)
    }

    /// A durable fsync just covered every buffered record: resolve the
    /// `Fsynced` stage for the traces that were waiting on it.
    fn flush_fsynced_traces(&mut self) {
        for t in self.durable.unsynced_traces.drain(..) {
            obs::record(Stage::Fsynced, t);
        }
    }

    /// Apply `LogRetention`: when enough commits accumulated since the
    /// last snapshot, write one and truncate the log. Only at quiescence
    /// (callers guarantee the queue is empty) and never during replay.
    /// A failed snapshot must not fail the batch that just committed —
    /// the log still covers everything, so durability is intact; the
    /// failure is counted and the policy retries at the next quiescent
    /// point (`commits_since_snapshot` keeps accumulating).
    pub(super) fn maybe_snapshot_for_retention(&mut self) {
        // A held fragment's uncommitted writes must never reach an image.
        // `run_queued` already refuses to drain while one is held, so no
        // caller gets here with one; should that change, retention waits
        // for the decision instead of counting a failed snapshot.
        if !self.logging() || self.prepared_gtid().is_some() {
            return;
        }
        let Some(retention) = self.config.retention else {
            return;
        };
        if self.durable.commits_since_snapshot >= retention.every_n_commits
            && self.snapshot().is_err()
        {
            self.stats.retention_failures += 1;
        }
    }

    /// Write a snapshot and garbage-collect the command log. Must be
    /// called at quiescence (the scheduler is synchronous, so any time
    /// between client calls).
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
        if let Some(gtid) = self.prepared_gtid() {
            return Err(Error::Txn(format!(
                "cannot snapshot while 2PC fragment gtid {gtid} awaits its decision \
                 (uncommitted writes are in storage)"
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
            .durable
            .chain
            .filter(|&(_, len)| len < cfg.delta_chain_cap);
        let chain_len = if let Some((base, len)) = delta_base {
            let k = len + 1;
            let delta = SnapshotDelta::capture(
                self.engine.db(),
                base,
                k,
                last_txn,
                last_batch,
                clock_micros,
            );
            delta.write_to(&cfg.delta_snapshot_path(k))?;
            self.stats.snapshots_delta += 1;
            k
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
            self.stats.snapshots_full += 1;
            0
        };
        let key = SnapshotKey {
            last_txn,
            last_batch,
            clock_micros,
        };
        self.durable.chain = Some((key, chain_len));
        // Fresh journals: the next delta describes changes since *this*
        // image (works after both branches — a delta lands the full
        // current state in the chain too). Skipped entirely when deltas
        // can never be cut, so full-only configs pay no tracking cost.
        if cfg.delta_chain_cap > 0 {
            self.engine.db_mut().enable_change_tracking();
        }
        if let Some(log) = &mut self.durable.log {
            self.stats.log_gc_dropped += log.gc_acked_through(BatchId::new(self.next_batch))?;
        }
        // Persist the edge high-water marks past the GC: a forwarded
        // batch's record may just have been dropped (acked + covered), and
        // without the marks a post-recovery re-forward from an upstream
        // partition would execute twice.
        let entries = self.edges.high_water_entries();
        if !entries.is_empty() {
            self.log_record(&LogRecord::EdgeHighWater { entries })?;
            self.sync_log()?;
        }
        self.durable.commits_since_snapshot = 0;
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
        self.durable.replay_covered = self.next_batch;
        self.durable.chain = Some((snap.key(), chain_len));
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

    /// Re-run the logged call that created `batch` at its original time
    /// and batch id, with re-logging suppressed. A batch the restored
    /// snapshot covers is skipped: its effects are in the image.
    fn replay_batch<T>(
        &mut self,
        batch: BatchId,
        ts: i64,
        call: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<()> {
        if batch.raw() <= self.next_batch {
            return Ok(());
        }
        self.clock.advance_to(ts);
        self.durable.replaying = true;
        self.next_batch = batch.raw() - 1; // the call re-increments
        let r = call(self);
        self.durable.replaying = false;
        r.map(drop)
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
            } => self.replay_batch(batch, ts, |p| p.submit_batch(&proc, rows)),
            LogRecord::Invocation {
                batch,
                proc,
                rows,
                ts,
            } => self.replay_batch(batch, ts, |p| p.invoke(&proc, rows)),
            LogRecord::PrepareMarker {
                gtid,
                batch,
                proc,
                rows,
                ts,
            } => {
                self.participant.see_gtid(gtid);
                self.replay_batch(batch, ts, |p| match decision {
                    // Re-run the fragment exactly as live execution did:
                    // prepare (undo held) then commit + triggers.
                    Some(true) => p
                        .prepare_fragment(gtid, &proc, rows, None)
                        .and_then(|_| p.decide_fragment(gtid, true))
                        .map(drop),
                    aborted => {
                        // Aborted (or in doubt → presumed abort): the
                        // pre-crash execution had zero net state effect;
                        // consume the same batch/txn ids and move on.
                        p.next_batch += 1;
                        p.next_txn += 1;
                        if aborted.is_none() {
                            p.stats.twopc_in_doubt_aborts += 1;
                        }
                        p.stats.twopc_aborts += 1;
                        Ok(())
                    }
                })
            }
            // Effects of decisions are applied at their PrepareMarker
            // (the caller resolves them by lookahead); only the gtid
            // sequencing mark advances here.
            LogRecord::Decision { gtid, .. } => {
                self.participant.see_gtid(gtid);
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
                    self.edges.raise((src_partition, stream), src_batch);
                    return Ok(());
                }
                self.replay_batch(batch, ts, |p| {
                    p.accept_forward(&stream, src_partition, src_batch, rows)?;
                    p.run_queued()
                })
            }
            LogRecord::EdgeHighWater { entries } => {
                for (src, stream, hw) in entries {
                    self.edges.raise((src, stream), hw);
                }
                Ok(())
            }
            LogRecord::ForwardOut {
                batch,
                stream,
                key_col,
                rows,
            } => {
                if batch.raw() > self.durable.replay_covered {
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
                self.edges.push_out(RemoteForward {
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
