//! The cross-partition transaction coordinator.
//!
//! H-Store runs multi-sited transactions under a blocking two-phase
//! commit: the coordinator fragments the transaction across the owning
//! partitions, collects votes, and makes the global outcome durable
//! before any participant may commit. S-Store inherits that protocol for
//! TEs whose input batch routes to more than one partition (paper §2 —
//! the demo stays single-sited; this module is the piece that turns N
//! independent stores into one database).
//!
//! Division of labour:
//!
//! * [`Coordinator`] — gtid assignment, the decision step, and counters.
//!   Owned by `Cluster` behind a mutex: multi-sited transactions are
//!   serialized (as in H-Store, where a multi-partition transaction
//!   blocks the cluster), which also rules out distributed deadlock
//!   between concurrent prepare rounds.
//! * [`CoordinatorLog`] — the durable decision log (`coord.log` in the
//!   cluster's durability dir). `append_decision` fsyncs **before** any
//!   commit decision is sent: that write is the commit point of the
//!   protocol. Recovery reads it to resolve participants' in-doubt
//!   fragments; a gtid absent from it can never have committed anywhere,
//!   so presumed abort is safe — and therefore only *commit* decisions
//!   are ever written (an abort record would buy nothing but an fsync).
//!   It is also the **only** fsync a decision costs: a participant
//!   appends its local `Decision` record without syncing (the commit is
//!   durable as its synced prepare record plus this log), and the record
//!   reaches the disk with that partition's next sync.
//!
//! The log is kept short by **checkpoint compaction**. A commit record
//! is redundant only once every participant holds its own local
//! `Decision` on disk, and nothing on the decide path puts it there — so
//! the cluster runs a worker barrier that drains the decide fan-out and
//! then **forces every participant's command log down**
//! (`Partition::sync_log`); if any partition is down or its sync fails,
//! the compaction is skipped. Then the file is rewritten as a single
//! checkpoint frame carrying the gtid sequence floor, and startup reads
//! O(recent decisions) instead of O(all time).
//!
//! The participant half (prepare/decide, undo held open, in-doubt replay)
//! lives in `sstore_txn::partition`; the message plumbing over the worker
//! ingest queues lives in [`crate::cluster`].

use sstore_common::codec::{self, FrameRead};
use sstore_common::fault;
use sstore_common::{Error, PartitionId, Result};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Counters for the coordinator's view of the cluster's transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordStats {
    /// Submissions of multi-partition-declared procedures whose rows all
    /// routed to one partition: 2PC skipped entirely, the PR 2 ingest
    /// path ran byte-identically (no extra messages or log records).
    pub single_partition_fast_path: u64,
    /// Multi-sited transactions run under 2PC.
    pub multi_partition_txns: u64,
    /// Prepare messages sent across all 2PC rounds.
    pub prepares_sent: u64,
    /// Global commits decided.
    pub commits: u64,
    /// Global aborts decided (any participant voted no). Presumed abort
    /// makes these memory-only: no record is written, no fsync paid.
    pub aborts: u64,
    /// Checkpoint compactions of the decision log.
    pub log_compactions: u64,
}

/// Everything startup needs from `coord.log`: the decided outcomes still
/// on file and the gtid sequence resume point (already folded across
/// checkpoint frames and decision records).
#[derive(Debug, Clone, Default)]
pub struct CoordState {
    /// `gtid → commit?` for every decision record in the log.
    pub decisions: HashMap<u64, bool>,
    /// First gtid safe to allocate: past every checkpoint floor and every
    /// decided gtid (at least 1). Partitions may have prepared higher
    /// gtids that never reached a decision — the cluster folds those in
    /// via `max_gtid_seen`.
    pub next_gtid: u64,
}

// Record tags (one byte opening each frame payload).
const TAG_DECISION: u8 = 0;
const TAG_CHECKPOINT: u8 = 1;

/// Append-only durable decision log: `[SSCO magic + version]` then one
/// tagged CRC32 frame per decision (or compaction checkpoint), each
/// encoded straight into the frame buffer. A torn trailing frame is an
/// interrupted decision write — the decision was never acknowledged, so
/// dropping it (and presuming abort) is exactly correct.
#[derive(Debug)]
pub struct CoordinatorLog {
    file: File,
    path: PathBuf,
}

impl CoordinatorLog {
    /// Open (creating if absent) `coord.log` under `dir`. An existing file
    /// must begin with a valid `SSCO` v3 header; any other file is refused
    /// with [`Error::Recovery`] and left untouched.
    pub fn open(dir: &Path) -> Result<CoordinatorLog> {
        fs::create_dir_all(dir)?;
        let path = dir.join("coord.log");
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if file.metadata()?.len() == 0 {
            let mut header = Vec::new();
            codec::put_file_header(&mut header, codec::COORD_MAGIC);
            let mut f = &file;
            f.write_all(&header)?;
            file.sync_data()?;
        } else {
            let head = fs::read(&path)?;
            check_header(&mut codec::Reader::new(&head))?;
        }
        Ok(CoordinatorLog { file, path })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably record the global outcome of `gtid` — for a commit, this
    /// fsync IS the commit point: participants only learn a commit that
    /// is already on disk here.
    ///
    /// Failure atomicity: a 2PC decision must be *provably durable* or
    /// *provably absent* — a record of unknown durability would let live
    /// participants and a later recovery resolve the same gtid
    /// differently. On a write/sync failure the file is rolled back to
    /// its pre-append length (removing the maybe-persisted bytes) before
    /// `Err` is returned; if even that rollback fails, the error is
    /// [`Error::Recovery`]-grade fatal and the caller must not hand *any*
    /// outcome to participants.
    pub fn append_decision(
        &mut self,
        gtid: u64,
        commit: bool,
        participants: &[PartitionId],
    ) -> Result<()> {
        let mut buf = Vec::new();
        let frame = codec::begin_frame(&mut buf);
        buf.push(TAG_DECISION);
        codec::put_uvarint(&mut buf, gtid);
        buf.push(commit as u8);
        codec::put_uvarint(&mut buf, participants.len() as u64);
        for p in participants {
            codec::put_uvarint(&mut buf, p.raw() as u64);
        }
        codec::end_frame(&mut buf, frame);
        // Kill point: every participant voted, the decision exists only
        // in memory. A crash here leaves the gtid in doubt — recovery
        // presumes abort.
        fault::kill_point("pre-commit-point-fsync");
        let old_len = self.file.metadata()?.len();
        // Fault point `coord-log-io-error`: an injected write failure
        // takes the same rollback path as a real one — the decision must
        // end up provably absent, and the round aborts cleanly.
        let result: std::result::Result<(), String> = match fault::io_error("coord-log-io-error") {
            Some(e) => Err(e.to_string()),
            None => self
                .file
                .write_all(&buf)
                .and_then(|_| self.file.sync_data())
                .map_err(|e| e.to_string()),
        };
        match result {
            Ok(()) => {
                // Kill point: the fsync above IS the commit point — the
                // outcome is decided but no participant has heard it.
                // Recovery must finish the second phase from this log.
                fault::kill_point("post-commit-point-fsync");
                Ok(())
            }
            Err(write_err) => {
                let rolled_back = self
                    .file
                    .set_len(old_len)
                    .and_then(|_| self.file.sync_data());
                match rolled_back {
                    Ok(()) => Err(Error::Io(format!(
                        "decision for gtid {gtid} not recorded (rolled back): {write_err}"
                    ))),
                    Err(trunc_err) => Err(Error::Recovery(format!(
                        "decision for gtid {gtid} has UNKNOWN durability: write failed \
                         ({write_err}) and rollback failed ({trunc_err}); no outcome may \
                         be released until the log is inspected"
                    ))),
                }
            }
        }
    }

    /// Read `dir/coord.log`: every decision still on file plus the gtid
    /// resume floor (checkpoint frames fold in here — after a compaction
    /// the file is one checkpoint, so this is O(recent), not O(all
    /// time)). Missing or empty file reads empty; a torn trailing frame
    /// is dropped (an unacknowledged decision — presumed abort covers
    /// it); mid-file corruption is a recovery error.
    pub fn read(dir: &Path) -> Result<CoordState> {
        let path = dir.join("coord.log");
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(CoordState {
                    next_gtid: 1,
                    ..CoordState::default()
                })
            }
            Err(e) => return Err(e.into()),
        };
        if bytes.is_empty() {
            return Ok(CoordState {
                next_gtid: 1,
                ..CoordState::default()
            });
        }
        let mut r = codec::Reader::new(&bytes);
        check_header(&mut r)?;
        let mut decisions = HashMap::new();
        let mut floor = 0u64;
        loop {
            match codec::read_frame(&mut r) {
                FrameRead::Frame(payload) => {
                    let mut pr = codec::Reader::new(payload);
                    match pr.u8()? {
                        TAG_DECISION => {
                            let gtid = pr.uvarint()?;
                            let commit = pr.u8()? != 0;
                            // Participant list: present for operators, not
                            // needed for resolution.
                            decisions.insert(gtid, commit);
                        }
                        TAG_CHECKPOINT => {
                            floor = floor.max(pr.uvarint()?);
                        }
                        t => {
                            return Err(Error::Recovery(format!(
                                "coordinator log: unknown record tag {t}"
                            )))
                        }
                    }
                }
                FrameRead::Eof => break,
                FrameRead::Torn { offset } => {
                    sstore_common::slog!(
                        Warn;
                        "{}: dropping torn trailing decision at byte {offset} \
                         (never acknowledged; presumed abort applies)",
                        path.display()
                    );
                    break;
                }
                FrameRead::Corrupt { offset, detail } => {
                    return Err(Error::Recovery(format!(
                        "coordinator log corrupted at byte {offset}: {detail}"
                    )));
                }
            }
        }
        let past_decided = decisions.keys().max().map_or(0, |g| g + 1);
        Ok(CoordState {
            decisions,
            next_gtid: floor.max(past_decided).max(1),
        })
    }

    /// Rewrite the log as a single checkpoint frame carrying `next_gtid`.
    ///
    /// Safety contract: the caller must have proven that every
    /// participant of every gtid below `next_gtid` holds a durable local
    /// `Decision` record (the cluster runs a worker barrier after the
    /// decide fan-out that syncs every participant's command log) — only
    /// then are this log's records redundant.
    /// Write-temp-then-rename: a crash leaves either the old file or the
    /// new one, both complete.
    pub fn compact(&mut self, next_gtid: u64) -> Result<()> {
        let mut buf = Vec::new();
        codec::put_file_header(&mut buf, codec::COORD_MAGIC);
        let frame = codec::begin_frame(&mut buf);
        buf.push(TAG_CHECKPOINT);
        codec::put_uvarint(&mut buf, next_gtid);
        codec::end_frame(&mut buf, frame);
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &self.path)?;
        // The old handle points at the unlinked inode; reopen for append.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        Ok(())
    }
}

/// Validate the `SSCO` v3 file header, refusing anything else.
fn check_header(r: &mut codec::Reader<'_>) -> Result<()> {
    codec::check_file_header(r, codec::COORD_MAGIC)
        .map_err(|e| Error::Recovery(format!("coordinator log header: {e}")))
}

/// Coordinator state: the gtid sequence, the optional decision log, and
/// counters. One per [`crate::Cluster`], behind a mutex.
#[derive(Debug)]
pub struct Coordinator {
    next_gtid: u64,
    log: Option<CoordinatorLog>,
    stats: CoordStats,
    /// Decision records appended since the last compaction (commits only
    /// — aborts never hit the file).
    records_since_compaction: u64,
}

/// Appended decision records that trigger a checkpoint compaction of the
/// coordinator log (see [`Coordinator::should_compact`]).
pub const COORD_COMPACT_EVERY: u64 = 256;

impl Coordinator {
    /// Build a coordinator resuming after the highest previously-decided
    /// gtid.
    pub fn new(log: Option<CoordinatorLog>, next_gtid: u64) -> Coordinator {
        Coordinator {
            next_gtid: next_gtid.max(1),
            log,
            stats: CoordStats::default(),
            records_since_compaction: 0,
        }
    }

    /// Allocate the next global transaction id.
    pub fn begin(&mut self) -> u64 {
        let gtid = self.next_gtid;
        self.next_gtid += 1;
        gtid
    }

    /// Record the global outcome. A commit is written durably when a
    /// decision log is configured — that fsync is the commit point. An
    /// abort writes **nothing** (presumed abort): recovery treats a gtid
    /// absent from the log as aborted, so the record would buy nothing,
    /// and skipping it removes an fsync from every abort round.
    pub fn decide(&mut self, gtid: u64, commit: bool, participants: &[PartitionId]) -> Result<()> {
        if commit {
            if let Some(log) = &mut self.log {
                log.append_decision(gtid, true, participants)?;
                self.records_since_compaction += 1;
            }
            self.stats.commits += 1;
        } else {
            self.stats.aborts += 1;
        }
        Ok(())
    }

    /// True when enough decision records accumulated that the log is
    /// worth compacting. The cluster checks this after the decide
    /// fan-out and, when set, proves the records redundant (worker
    /// barrier + log sync) before calling [`Coordinator::compact`].
    pub fn should_compact(&self) -> bool {
        self.log.is_some() && self.records_since_compaction >= COORD_COMPACT_EVERY
    }

    /// Checkpoint-compact the decision log (see
    /// [`CoordinatorLog::compact`] for the caller's proof obligation).
    pub fn compact(&mut self) -> Result<()> {
        if let Some(log) = &mut self.log {
            log.compact(self.next_gtid)?;
            self.stats.log_compactions += 1;
        }
        self.records_since_compaction = 0;
        Ok(())
    }

    /// Count a single-partition fast-path submission.
    pub fn note_fast_path(&mut self) {
        self.stats.single_partition_fast_path += 1;
    }

    /// Count a multi-sited transaction and its prepare fan-out.
    pub fn note_multi_partition(&mut self, participants: usize) {
        self.stats.multi_partition_txns += 1;
        self.stats.prepares_sent += participants as u64;
    }

    /// Current counters.
    pub fn stats(&self) -> CoordStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sstore-coord-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn decisions_round_trip() {
        let dir = tempdir("rt");
        let mut log = CoordinatorLog::open(&dir).unwrap();
        log.append_decision(1, true, &[PartitionId::new(0), PartitionId::new(2)])
            .unwrap();
        log.append_decision(2, false, &[PartitionId::new(1)])
            .unwrap();
        drop(log);
        // Reopen appends after the existing header.
        let mut log = CoordinatorLog::open(&dir).unwrap();
        log.append_decision(3, true, &[]).unwrap();
        drop(log);
        let state = CoordinatorLog::read(&dir).unwrap();
        assert_eq!(state.decisions.len(), 3);
        assert_eq!(state.decisions.get(&1), Some(&true));
        assert_eq!(state.decisions.get(&2), Some(&false));
        assert_eq!(state.decisions.get(&3), Some(&true));
        assert_eq!(state.next_gtid, 4);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_log_reads_empty_and_torn_tail_drops() {
        let dir = tempdir("torn");
        let empty = CoordinatorLog::read(&dir).unwrap();
        assert!(empty.decisions.is_empty());
        assert_eq!(empty.next_gtid, 1);
        let mut log = CoordinatorLog::open(&dir).unwrap();
        log.append_decision(9, true, &[PartitionId::new(0)])
            .unwrap();
        drop(log);
        // Simulate a crash mid-way through the next decision's write.
        let path = dir.join("coord.log");
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[5, 0, 0, 0, 0xAB]); // half a frame header + garbage
        fs::write(&path, &bytes).unwrap();
        let state = CoordinatorLog::read(&dir).unwrap();
        assert_eq!(state.decisions.len(), 1);
        assert_eq!(state.decisions.get(&9), Some(&true));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checkpoint_compaction_keeps_floor_and_later_decisions() {
        let dir = tempdir("compact");
        let mut log = CoordinatorLog::open(&dir).unwrap();
        for g in 1..=40 {
            log.append_decision(g, true, &[PartitionId::new(0)])
                .unwrap();
        }
        let before = fs::metadata(dir.join("coord.log")).unwrap().len();
        log.compact(41).unwrap();
        let after = fs::metadata(dir.join("coord.log")).unwrap().len();
        assert!(after < before, "compaction must shrink the log");
        let state = CoordinatorLog::read(&dir).unwrap();
        assert!(state.decisions.is_empty(), "settled decisions are dropped");
        assert_eq!(state.next_gtid, 41, "sequence floor survives");
        // Appends keep working on the compacted file.
        log.append_decision(50, true, &[PartitionId::new(1)])
            .unwrap();
        drop(log);
        let state = CoordinatorLog::read(&dir).unwrap();
        assert_eq!(state.decisions.get(&50), Some(&true));
        assert_eq!(state.next_gtid, 51);
        fs::remove_dir_all(dir).ok();
    }

    /// A pre-compaction (v2) log — untagged decision payloads — is
    /// refused by both the reader and the writer, and its bytes are left
    /// unchanged.
    #[test]
    fn v2_log_is_refused_by_reader_and_writer() {
        let dir = tempdir("v2");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&codec::COORD_MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        let frame = codec::begin_frame(&mut bytes);
        codec::put_uvarint(&mut bytes, 7);
        bytes.push(1);
        codec::put_uvarint(&mut bytes, 0); // no participants
        codec::end_frame(&mut bytes, frame);
        fs::write(dir.join("coord.log"), &bytes).unwrap();

        let err = CoordinatorLog::read(&dir).unwrap_err();
        assert_eq!(err.kind(), "recovery");
        assert!(err.to_string().contains("version 2"), "{err}");
        let err = CoordinatorLog::open(&dir).unwrap_err();
        assert_eq!(err.kind(), "recovery");
        assert_eq!(fs::read(dir.join("coord.log")).unwrap(), bytes);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn coordinator_sequences_and_counts() {
        let mut c = Coordinator::new(None, 5);
        assert_eq!(c.begin(), 5);
        assert_eq!(c.begin(), 6);
        c.note_fast_path();
        c.note_multi_partition(3);
        c.decide(5, true, &[]).unwrap();
        c.decide(6, false, &[]).unwrap();
        let s = c.stats();
        assert_eq!(s.single_partition_fast_path, 1);
        assert_eq!(s.multi_partition_txns, 1);
        assert_eq!(s.prepares_sent, 3);
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
    }

    /// Presumed abort: abort decisions never touch the file — only
    /// commits pay the fsync.
    #[test]
    fn aborts_write_nothing() {
        let dir = tempdir("pa");
        let log = CoordinatorLog::open(&dir).unwrap();
        let len_empty = fs::metadata(dir.join("coord.log")).unwrap().len();
        let mut c = Coordinator::new(Some(log), 1);
        let g1 = c.begin();
        c.decide(g1, false, &[PartitionId::new(0), PartitionId::new(1)])
            .unwrap();
        assert_eq!(
            fs::metadata(dir.join("coord.log")).unwrap().len(),
            len_empty,
            "abort must not grow the log"
        );
        let g2 = c.begin();
        c.decide(g2, true, &[PartitionId::new(0), PartitionId::new(1)])
            .unwrap();
        let state = CoordinatorLog::read(&dir).unwrap();
        assert_eq!(state.decisions.get(&g1), None, "absent means abort");
        assert_eq!(state.decisions.get(&g2), Some(&true));
        fs::remove_dir_all(dir).ok();
    }
}
