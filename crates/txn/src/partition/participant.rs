//! The 2PC participant: this partition's fragment of a multi-sited
//! transaction, executed at *prepare* with its undo log held open until
//! the coordinator's decision arrives. Nothing else runs meanwhile: every
//! queued job defers until the decision, so no TE can observe the
//! fragment's uncommitted writes and an abort always rolls back cleanly.

use super::Partition;
use crate::log::LogRecord;
use crate::transaction::{Invocation, TxnOutcome, TxnStatus};
use sstore_common::obs::TraceCtx;
use sstore_common::{Batch, BatchId, Error, ProcId, Result, Row, TxnId};
use sstore_engine::TxnScratch;
use sstore_sql::exec::QueryResult;

/// A fragment of a multi-sited transaction, executed at *prepare* time
/// with its undo log held open until the coordinator's decision arrives.
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
    /// The body's open undo log (dropped on commit, applied on abort)
    /// and the stream rows it emitted (released to PE triggers on commit).
    scratch: TxnScratch,
    /// Client response assembled by the body.
    response: Option<QueryResult>,
}

/// The participant's state. Shared-nothing serial execution means at
/// most one fragment is ever held per partition — the worker blocks
/// (deferring queued jobs) between prepare and decide, so no other TE can
/// observe the fragment's uncommitted writes. `prepare_fragment` is the
/// one place a fragment is taken on, and it refuses a second.
#[derive(Default)]
pub(super) struct Participant {
    /// The fragment held between prepare and decision.
    held: Option<PreparedFragment>,
    /// Highest gtid this partition has ever prepared (live or replayed).
    /// The cluster's coordinator resumes *past* every partition's mark so
    /// a recovered cluster can never reuse an in-doubt gtid — reuse would
    /// let a later commit of the recycled id retroactively commit the
    /// old aborted fragment on the next recovery.
    max_gtid_seen: u64,
}

impl Participant {
    /// Raise the gtid sequencing mark past `gtid`.
    pub(super) fn see_gtid(&mut self, gtid: u64) {
        self.max_gtid_seen = self.max_gtid_seen.max(gtid);
    }
}

impl Partition {
    /// Phase 1 of two-phase commit: execute this partition's fragment of
    /// multi-sited transaction `gtid` and **hold its undo log open**.
    /// The fragment's input is logged (and fsynced) *before* the body
    /// runs, so a yes-vote is a durable promise: after a crash the
    /// fragment replays against the coordinator's decision. `trace` is
    /// the submission's lifecycle trace, attached to the fragment's batch.
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
        trace: Option<TraceCtx>,
    ) -> Result<BatchId> {
        let rows: Vec<Row> = rows.into_iter().map(Into::into).collect();
        if let Some(frag) = &self.participant.held {
            return Err(Error::Txn(format!(
                "partition {} already holds prepared fragment gtid {}",
                self.config.partition, frag.gtid
            )));
        }
        let pid = self.border_proc_id(proc)?;
        self.participant.see_gtid(gtid);
        self.stats.twopc_prepares += 1;
        let ts = self.clock.now();
        let batch = self.open_batch(trace, |batch| LogRecord::PrepareMarker {
            gtid,
            batch,
            proc: proc.to_string(),
            rows: rows.clone(),
            ts,
        })?;
        // The yes-vote must be durable before it is cast. This sync also
        // carries down whatever the last decision left in the buffer.
        self.sync_log()?;
        // The durable promise exists, the vote has not been cast.
        // Recovery must resolve this fragment in doubt.
        self.kill_point("prepare-logged");
        self.stats.batches_submitted += 1;
        self.batch_refs.insert(batch.raw(), 1);

        let start = std::time::Instant::now();
        let (txn, mut scratch, response, result) = self.run_body(pid, &Batch::new(batch, rows));
        match result {
            Ok(()) => {
                self.participant.held = Some(PreparedFragment {
                    gtid,
                    txn,
                    batch,
                    proc: pid,
                    start,
                    scratch,
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
                self.count_failure(&e);
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
        let partition = self.config.partition;
        match self.prepared_gtid() {
            Some(held) if held == gtid => {}
            Some(held) => {
                return Err(Error::Txn(format!(
                    "decision for gtid {gtid} but partition {partition} holds gtid {held}"
                )))
            }
            None => {
                return Err(Error::Txn(format!(
                    "no prepared fragment for gtid {gtid} on partition {partition}"
                )))
            }
        }
        let mut frag = self.participant.held.take().expect("checked: gtid is held");
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
            self.participant.held = Some(frag);
            self.durable.diverge();
            return Err(e);
        }
        // The decision reached this participant and sits in its log
        // buffer (on disk only at group-commit size 1), but has not been
        // applied. Replay must finish the job from the local record if it
        // made it down, from the coordinator's log if not.
        self.kill_point("decide-delivered");
        let inv = Invocation {
            proc: frag.proc,
            batch: Batch::empty(frag.batch),
        };
        let (status, response, error) = if commit {
            frag.scratch.undo.commit();
            self.stats.committed += 1;
            self.stats.twopc_commits += 1;
            self.durable.note_commit();
            self.stats.record_latency(frag.start.elapsed().as_nanos());
            (TxnStatus::Committed, frag.response, None)
        } else {
            frag.scratch.undo.rollback(self.engine.db_mut())?;
            self.stats.twopc_aborts += 1;
            let error = format!("aborted by 2PC coordinator (gtid {gtid})");
            (TxnStatus::Aborted, None, Some(error))
        };
        let outcome = TxnOutcome {
            txn: frag.txn,
            proc: frag.proc,
            batch: frag.batch,
            status,
            response,
            error,
        };
        self.post_te(&inv, &outcome, frag.scratch)?;
        let mut outcomes = vec![outcome];
        outcomes.extend(self.run_queued()?);
        Ok(outcomes)
    }

    /// The gtid of the currently held fragment, if any.
    pub fn prepared_gtid(&self) -> Option<u64> {
        self.participant.held.as_ref().map(|f| f.gtid)
    }

    /// Highest gtid ever prepared here (live or during replay). Cluster
    /// recovery resumes the coordinator's sequence past every
    /// partition's mark — gtids are never reused.
    pub fn max_gtid_seen(&self) -> u64 {
        self.participant.max_gtid_seen
    }
}
