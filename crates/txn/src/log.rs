//! Command logging with group commit.
//!
//! S-Store "leverages H-Store's command logging mechanism to provide an
//! upstream backup based fault tolerance technique" (paper §2; Malviya et
//! al., ICDE 2014). We log *inputs*, not effects: each border batch (and,
//! in H-Store mode, each client invocation) is one record. Replaying the
//! log through the deterministic procedures reconstructs the state.
//!
//! # On-disk format
//!
//! A `SSLG` magic + version (v4) header, then one **extent** per write:
//! `[len u32 LE][masked crc32 u32 LE]` over the write's CRC32 frames
//! `[len u32 LE][crc32 u32 LE][payload]`, one frame per record, with the
//! payload in the compact value codec (`sstore_common::codec`). Row
//! encoding borrows the batch's shared COW rows — appending a record
//! never deep-copies tuples. Past the last extent the file holds a
//! zero-filled reserve, which reads as the end of the log and which a
//! clean close truncates away. The crash rules — refusing another magic
//! or codec version, telling a torn tail from corruption, trimming a
//! torn tail, rolling back a failed write — are those of
//! `sstore_common::durable`; this module sees only frames.
//!
//! # Group commit
//!
//! Appends encode into an in-memory buffer; the buffer is flushed to the
//! file as **one extent, with one positional write + one fsync**, after
//! every `group_commit_n` records (1 = sync per record). A whole
//! coalesced batch group therefore costs a single write + fsync rather
//! than a line-sized write per record. The write lands in space the file
//! already holds (the reserve grows 64 KiB at a time), so the fsync
//! journals no change of file size.

use sstore_common::codec;
use sstore_common::durable::{self, AppendFile};
use sstore_common::fault;
use sstore_common::{hash::HashSet, BatchId, Error, Result, Row};
use std::path::{Path, PathBuf};

/// One durable record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A border input batch entering a workflow (S-Store mode).
    BorderBatch {
        /// Batch id assigned at submission.
        batch: BatchId,
        /// Border procedure name.
        proc: String,
        /// The input tuples.
        rows: Vec<Row>,
        /// Logical submission time (µs) — replay pins the clock to this.
        ts: i64,
    },
    /// A direct client invocation (H-Store mode / OLTP requests). Carries
    /// its batch id so replay stamps identical `__batch` values.
    Invocation {
        /// Batch id assigned at submission.
        batch: BatchId,
        /// Procedure name.
        proc: String,
        /// Parameters-as-rows.
        rows: Vec<Row>,
        /// Logical submission time (µs).
        ts: i64,
    },
    /// The workflow for `batch` fully committed (upstream backup may
    /// discard the batch; used for log GC and exactly-once checks).
    Ack {
        /// The completed batch.
        batch: BatchId,
    },
    /// This partition prepared its fragment of multi-sited transaction
    /// `gtid`: the fragment's input is durable and its undo log is held
    /// open until the coordinator's decision. Written (and fsynced)
    /// *before* the participant votes yes.
    PrepareMarker {
        /// Global transaction id assigned by the coordinator.
        gtid: u64,
        /// Local batch id assigned to the fragment.
        batch: BatchId,
        /// The fragmented procedure's name.
        proc: String,
        /// This partition's share of the input rows.
        rows: Vec<Row>,
        /// Logical prepare time (µs).
        ts: i64,
    },
    /// The participant learned the global outcome of prepared fragment
    /// `gtid`. A prepared fragment with no Decision record is *in doubt*:
    /// recovery consults the coordinator's decision log, and aborts
    /// deterministically when that is silent too (presumed abort).
    Decision {
        /// Global transaction id.
        gtid: u64,
        /// The fragment's local batch id.
        batch: BatchId,
        /// True = commit, false = abort.
        commit: bool,
    },
    /// A batch forwarded over a cross-partition workflow edge, logged on
    /// the **receiving** partition before execution — the edge's upstream
    /// backup. `(src_partition, stream, src_batch)` identifies the edge
    /// instance for exactly-once dedup.
    Forward {
        /// Local batch id assigned on this (receiving) partition.
        batch: BatchId,
        /// The workflow stream the rows travelled on.
        stream: String,
        /// The emitting partition.
        src_partition: u32,
        /// The emitting partition's batch id.
        src_batch: u64,
        /// The forwarded rows.
        rows: Vec<Row>,
        /// Logical arrival time on this partition (µs).
        ts: i64,
    },
    /// Per-(source partition, stream) forwarding high-water marks,
    /// appended at snapshot points so edge dedup survives log GC. A
    /// later record supersedes earlier ones (the marks are monotone).
    EdgeHighWater {
        /// `(src_partition, stream, highest src_batch executed)`.
        entries: Vec<(u32, String, u64)>,
    },
    /// A cross-partition edge envelope, logged on the **emitting**
    /// partition when the emission is buffered for the cluster router —
    /// the source half of the edge's upstream backup. Replay normally
    /// regenerates envelopes by re-running the emitting batch, but a
    /// retention snapshot may cover that batch while its edge ack is
    /// still outstanding; this record lets recovery re-forward the
    /// envelope without re-executing (receivers dedupe, so an extra
    /// re-forward is exactly-once either way).
    ForwardOut {
        /// The emitting batch (shares its upstream-backup lifetime).
        batch: BatchId,
        /// The workflow stream the rows travel on.
        stream: String,
        /// The edge's routing key column.
        key_col: u32,
        /// The emitted rows.
        rows: Vec<Row>,
    },
}

use sstore_common::codec::{
    REC_ACK, REC_BORDER, REC_DECISION, REC_EDGE_HW, REC_FORWARD, REC_FORWARD_OUT, REC_INVOKE,
    REC_PREPARE,
};

impl LogRecord {
    /// The batch this record belongs to. [`LogRecord::EdgeHighWater`] is
    /// batch-less bookkeeping and reports batch 0 (never acked, so GC
    /// handles it specially rather than through the acked set).
    pub(crate) fn batch(&self) -> BatchId {
        match self {
            LogRecord::BorderBatch { batch, .. }
            | LogRecord::Invocation { batch, .. }
            | LogRecord::PrepareMarker { batch, .. }
            | LogRecord::Decision { batch, .. }
            | LogRecord::Forward { batch, .. }
            | LogRecord::ForwardOut { batch, .. }
            | LogRecord::Ack { batch } => *batch,
            LogRecord::EdgeHighWater { .. } => BatchId::new(0),
        }
    }

    /// True for records that introduce *input* a workflow must process
    /// (the records upstream backup must keep until acked).
    pub fn is_input(&self) -> bool {
        matches!(
            self,
            LogRecord::BorderBatch { .. }
                | LogRecord::Invocation { .. }
                | LogRecord::PrepareMarker { .. }
                | LogRecord::Forward { .. }
        )
    }

    /// Append the binary encoding (frame payload). Rows are encoded by
    /// borrowing their shared cells — no copy.
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::BorderBatch {
                batch,
                proc,
                rows,
                ts,
            }
            | LogRecord::Invocation {
                batch,
                proc,
                rows,
                ts,
            } => {
                out.push(if matches!(self, LogRecord::BorderBatch { .. }) {
                    REC_BORDER
                } else {
                    REC_INVOKE
                });
                codec::put_uvarint(out, batch.raw());
                codec::put_str(out, proc);
                put_rows(out, rows);
                codec::put_ivarint(out, *ts);
            }
            LogRecord::Ack { batch } => {
                out.push(REC_ACK);
                codec::put_uvarint(out, batch.raw());
            }
            LogRecord::PrepareMarker {
                gtid,
                batch,
                proc,
                rows,
                ts,
            } => {
                out.push(REC_PREPARE);
                codec::put_uvarint(out, *gtid);
                codec::put_uvarint(out, batch.raw());
                codec::put_str(out, proc);
                put_rows(out, rows);
                codec::put_ivarint(out, *ts);
            }
            LogRecord::Decision {
                gtid,
                batch,
                commit,
            } => {
                out.push(REC_DECISION);
                codec::put_uvarint(out, *gtid);
                codec::put_uvarint(out, batch.raw());
                out.push(*commit as u8);
            }
            LogRecord::Forward {
                batch,
                stream,
                src_partition,
                src_batch,
                rows,
                ts,
            } => {
                out.push(REC_FORWARD);
                codec::put_uvarint(out, batch.raw());
                codec::put_str(out, stream);
                codec::put_uvarint(out, *src_partition as u64);
                codec::put_uvarint(out, *src_batch);
                put_rows(out, rows);
                codec::put_ivarint(out, *ts);
            }
            LogRecord::EdgeHighWater { entries } => {
                out.push(REC_EDGE_HW);
                codec::put_uvarint(out, entries.len() as u64);
                for (src, stream, hw) in entries {
                    codec::put_uvarint(out, *src as u64);
                    codec::put_str(out, stream);
                    codec::put_uvarint(out, *hw);
                }
            }
            LogRecord::ForwardOut {
                batch,
                stream,
                key_col,
                rows,
            } => {
                out.push(REC_FORWARD_OUT);
                codec::put_uvarint(out, batch.raw());
                codec::put_str(out, stream);
                codec::put_uvarint(out, *key_col as u64);
                put_rows(out, rows);
            }
        }
    }

    /// Decode one record from a frame payload.
    pub fn decode_binary(r: &mut codec::Reader<'_>) -> Result<LogRecord> {
        let tag = r.u8()?;
        match tag {
            REC_BORDER | REC_INVOKE => {
                let batch = BatchId::new(r.uvarint()?);
                let proc = r.str()?.to_string();
                let rows = read_rows(r)?;
                let ts = r.ivarint()?;
                Ok(if tag == REC_BORDER {
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
                })
            }
            REC_ACK => Ok(LogRecord::Ack {
                batch: BatchId::new(r.uvarint()?),
            }),
            REC_PREPARE => Ok(LogRecord::PrepareMarker {
                gtid: r.uvarint()?,
                batch: BatchId::new(r.uvarint()?),
                proc: r.str()?.to_string(),
                rows: read_rows(r)?,
                ts: r.ivarint()?,
            }),
            REC_DECISION => Ok(LogRecord::Decision {
                gtid: r.uvarint()?,
                batch: BatchId::new(r.uvarint()?),
                commit: r.u8()? != 0,
            }),
            REC_FORWARD => Ok(LogRecord::Forward {
                batch: BatchId::new(r.uvarint()?),
                stream: r.str()?.to_string(),
                src_partition: r.uvarint()? as u32,
                src_batch: r.uvarint()?,
                rows: read_rows(r)?,
                ts: r.ivarint()?,
            }),
            REC_EDGE_HW => {
                let n = r.uvarint()? as usize;
                let mut entries = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    let src = r.uvarint()? as u32;
                    let stream = r.str()?.to_string();
                    let hw = r.uvarint()?;
                    entries.push((src, stream, hw));
                }
                Ok(LogRecord::EdgeHighWater { entries })
            }
            REC_FORWARD_OUT => Ok(LogRecord::ForwardOut {
                batch: BatchId::new(r.uvarint()?),
                stream: r.str()?.to_string(),
                key_col: r.uvarint()? as u32,
                rows: read_rows(r)?,
            }),
            tag => Err(Error::Codec(format!("unknown log record tag {tag}"))),
        }
    }
}

/// Automatic snapshot-then-GC retention policy.
///
/// When configured (see `PeConfig::retention`), the partition writes a
/// snapshot and garbage-collects the command log after every
/// `every_n_commits` committed TEs, at the next quiescent point (the
/// scheduler queue is empty between client calls, so the snapshot captures
/// a workflow-consistent state). Replay-after-truncate recovers from the
/// snapshot plus whatever the log accumulated since.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRetention {
    /// Snapshot + GC after this many committed TEs (min 1).
    pub every_n_commits: u64,
}

impl LogRetention {
    /// Policy firing every `n` commits (clamped to at least 1).
    pub fn every_n_commits(n: u64) -> Self {
        LogRetention {
            every_n_commits: n.max(1),
        }
    }
}

/// Durability settings.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Directory holding `command.log` and snapshots.
    pub dir: PathBuf,
    /// fsync after this many records (group commit). 1 = every record.
    pub group_commit_n: usize,
    /// Maximum delta-snapshot chain length before the next retention
    /// point rewrites a full base image (0 disables deltas entirely). Bounds both recovery replay work and the stale
    /// log a long chain would otherwise pin.
    pub delta_chain_cap: u64,
}

/// Default [`LogConfig::delta_chain_cap`].
pub(crate) const DEFAULT_DELTA_CHAIN_CAP: u64 = 8;

impl LogConfig {
    /// Config with per-record sync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        LogConfig {
            dir: dir.into(),
            group_commit_n: 1,
            delta_chain_cap: DEFAULT_DELTA_CHAIN_CAP,
        }
    }

    /// Config with group commit every `n` records.
    pub fn with_group_commit(dir: impl Into<PathBuf>, n: usize) -> Self {
        LogConfig {
            group_commit_n: n.max(1),
            ..LogConfig::new(dir)
        }
    }

    /// Override the delta-snapshot chain cap (0 = full images only).
    pub fn with_delta_chain_cap(mut self, cap: u64) -> Self {
        self.delta_chain_cap = cap;
        self
    }

    /// Path of the command log file.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join("command.log")
    }

    /// Path of the base snapshot image.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.dat")
    }

    /// Path of the `k`-th delta snapshot (k ≥ 1) chained onto
    /// [`LogConfig::snapshot_path`]. Recovery applies `snapshot.d1.dat`,
    /// `snapshot.d2.dat`, … until a file is missing or names a
    /// superseded base.
    pub(crate) fn delta_snapshot_path(&self, k: u64) -> PathBuf {
        self.dir.join(format!("snapshot.d{k}.dat"))
    }
}

/// Append-only command log writer with group-commit buffering: appends
/// encode into an in-memory buffer, and a whole commit group reaches the
/// file as one write + one fsync.
#[derive(Debug)]
pub struct CommandLog {
    file: AppendFile,
    /// Encoded-but-unwritten records.
    pending: Vec<u8>,
    config: LogConfig,
    unsynced: usize,
    records_written: u64,
    syncs: u64,
    bytes_written: u64,
}

impl CommandLog {
    /// Open (creating or appending to) the log in `config.dir`, trimming
    /// a torn trailing record left by a crash. A file of another format
    /// or codec version is refused with [`Error::Recovery`] and left
    /// byte-identical.
    pub fn open(config: LogConfig) -> Result<CommandLog> {
        let (file, trimmed) = AppendFile::open(&config.log_path(), codec::LOG_MAGIC)?;
        if trimmed {
            fault::note("log-torn-tail-trimmed");
        }
        Ok(CommandLog {
            file,
            pending: Vec::new(),
            config,
            unsynced: 0,
            records_written: 0,
            syncs: 0,
            bytes_written: 0,
        })
    }

    /// Append a record; flushes per group-commit policy. Returns true if
    /// this append triggered an fsync.
    ///
    /// When the flush fails, the *failed record* is dropped from the
    /// buffer before the error surfaces: the caller reports its batch as
    /// failed, so the record must not linger and become durable at a
    /// later sync — a batch the client saw fail would otherwise
    /// resurrect at replay. Earlier buffered group members stay (their
    /// callers were told "accepted, not yet synced", which still holds)
    /// unless the log is poisoned (unknown tail durability).
    pub fn append(&mut self, record: &LogRecord) -> Result<bool> {
        let base = self.pending.len();
        encode_record_into(record, &mut self.pending);
        self.records_written += 1;
        self.unsynced += 1;
        if self.unsynced >= self.config.group_commit_n {
            if let Err(e) = self.sync() {
                if e.kind() != "recovery" {
                    self.pending.truncate(base);
                    self.unsynced -= 1;
                    self.records_written -= 1;
                }
                return Err(e);
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Force the buffered records down: one write + one fsync for the
    /// whole group; no-op when nothing is unsynced. A failed write keeps
    /// the records pending (`sstore_common::durable` rolls it back, or
    /// poisons the log). Fault points: `log-mid-write`,
    /// `log-append-io-error`.
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.bytes_written +=
            self.file
                .append(&self.pending, "log-mid-write", "log-append-io-error")?;
        self.pending.clear();
        self.unsynced = 0;
        self.syncs += 1;
        Ok(())
    }

    /// True once a failed write rollback left the file tail of unknown
    /// durability. A poisoned log accepts no further appends; the owning
    /// partition should go down deliberately and be recovered from disk.
    pub(crate) fn poisoned(&self) -> bool {
        self.file.poisoned()
    }

    /// Records appended over this log's lifetime.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// fsyncs issued.
    pub(crate) fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Bytes written to the file over this log's lifetime.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Upstream-backup garbage collection: rewrite the log dropping every
    /// record of a batch that is both **acked** (its workflow fully
    /// completed — no downstream work can still need the input) and
    /// **covered** by a snapshot (`batch <= covered` — replay skips it
    /// anyway). Unacked or newer records are kept verbatim, so the log
    /// stays replayable; at a quiescent point this degenerates to full
    /// truncation.
    ///
    /// Returns the number of records dropped.
    pub(crate) fn gc_acked_through(&mut self, covered: BatchId) -> Result<u64> {
        self.sync()?; // pending records must be visible to the reader
        let records = read_log(&self.config.log_path())?;
        let acked: HashSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Ack { batch } => Some(batch.raw()),
                _ => None,
            })
            .collect();
        // Keep only the newest EdgeHighWater record: each one dumps the
        // full (monotone) mark map, so later records supersede earlier
        // ones — without this, every snapshot would leak one more.
        let last_hw = records
            .iter()
            .rposition(|r| matches!(r, LogRecord::EdgeHighWater { .. }));
        let keep: Vec<&LogRecord> = records
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                if matches!(r, LogRecord::EdgeHighWater { .. }) {
                    return Some(*i) == last_hw;
                }
                let b = r.batch().raw();
                !(b <= covered.raw() && acked.contains(&b))
            })
            .map(|(_, r)| r)
            .collect();
        let dropped = (records.len() - keep.len()) as u64;
        if dropped == 0 {
            return Ok(0);
        }

        let mut buf = Vec::new();
        for record in keep {
            encode_record_into(record, &mut buf);
        }
        // Kill point `log-gc-mid-write`: the rewritten log is synced but
        // not yet renamed over the old one.
        self.file.rewrite(&buf, "log-gc-mid-write")?;
        Ok(dropped)
    }
}

impl Drop for CommandLog {
    /// Best-effort flush of the buffered group on clean shutdown, so a
    /// non-crash exit never loses the unsynced tail (crash durability is
    /// still bounded by `group_commit_n`, as before).
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A thread dying by panic (e.g. an injected kill) must not
            // flush the buffered group as if shutdown were clean — the
            // crash contract is that unsynced records are lost. (A
            // poisoned log refuses the flush by itself.)
            return;
        }
        let _ = self.sync();
    }
}

/// Encode a row list: its length, then each row (borrowing its cells).
fn put_rows(out: &mut Vec<u8>, rows: &[Row]) {
    codec::put_uvarint(out, rows.len() as u64);
    for row in rows {
        codec::encode_row(row, out);
    }
}

/// Decode a row list written by [`put_rows`].
fn read_rows(r: &mut codec::Reader<'_>) -> Result<Vec<Row>> {
    let n = r.uvarint()? as usize;
    let mut rows = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        rows.push(codec::decode_row(r)?);
    }
    Ok(rows)
}

/// Encode one record as a CRC32 frame. The single encoder behind both
/// the append path and the GC rewrite, so the two can never drift.
fn encode_record_into(record: &LogRecord, out: &mut Vec<u8>) {
    let frame = codec::begin_frame(out);
    record.encode_binary(out);
    codec::end_frame(out, frame);
}

/// Read every record in a command log, in append order. A missing file
/// reads empty; a torn trailing record is dropped with a warning; a
/// corrupt complete frame, or a file of another format or codec version,
/// is a recovery error (see `sstore_common::durable`).
pub fn read_log(path: &Path) -> Result<Vec<LogRecord>> {
    let mut out = Vec::new();
    let torn = durable::for_each_frame(path, codec::LOG_MAGIC, |payload| {
        let record = LogRecord::decode_binary(&mut codec::Reader::new(payload)).map_err(|e| {
            Error::Recovery(format!(
                "command log: undecodable record in checksum-valid frame (record {}): {e}",
                out.len()
            ))
        })?;
        out.push(record);
        Ok(())
    })?;
    if torn.is_some() {
        fault::note("log-torn-tail");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::Value;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn tempdir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sstore-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn batch_record(id: u64) -> LogRecord {
        LogRecord::BorderBatch {
            batch: BatchId::new(id),
            proc: "sp1".into(),
            rows: vec![vec![Value::Int(id as i64)].into()],
            ts: id as i64 * 10,
        }
    }

    #[test]
    fn append_and_read_round_trip_both_formats() {
        let dir = tempdir("rt");
        let cfg = LogConfig::new(&dir);
        let mut log = CommandLog::open(cfg.clone()).unwrap();
        for i in 1..=3 {
            let synced = log.append(&batch_record(i)).unwrap();
            assert!(synced); // group_commit_n = 1
        }
        log.append(&LogRecord::Ack {
            batch: BatchId::new(1),
        })
        .unwrap();
        drop(log);
        let records = read_log(&cfg.log_path()).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0], batch_record(1));
        assert!(matches!(records[3], LogRecord::Ack { .. }));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn binary_records_round_trip_all_value_types() {
        let record = LogRecord::Invocation {
            batch: BatchId::new(u64::MAX),
            proc: String::new(),
            rows: vec![
                Row::new(vec![
                    Value::Null,
                    Value::Int(i64::MIN),
                    Value::Float(-0.0),
                    Value::Text(String::new()),
                    Value::Bool(true),
                    Value::Timestamp(-1),
                ]),
                Row::new(vec![]),
            ],
            ts: i64::MIN,
        };
        let mut buf = Vec::new();
        record.encode_binary(&mut buf);
        let back = LogRecord::decode_binary(&mut codec::Reader::new(&buf)).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn group_commit_defers_syncs_and_batches_writes() {
        let dir = tempdir("gc");
        let cfg = LogConfig::with_group_commit(&dir, 3);
        let mut log = CommandLog::open(cfg.clone()).unwrap();
        assert!(!log.append(&batch_record(1)).unwrap());
        // Nothing reached the file yet: the group is buffered in memory.
        assert_eq!(std::fs::metadata(cfg.log_path()).unwrap().len(), 0);
        assert!(!log.append(&batch_record(2)).unwrap());
        assert!(log.append(&batch_record(3)).unwrap());
        assert_eq!(log.syncs(), 1);
        // The whole group (header, extent header and 3 frames) landed in
        // one write, and the file reads back the three records (the
        // reserve past them reads as the end).
        let mut frames = Vec::new();
        for b in 1..=3 {
            encode_record_into(&batch_record(b), &mut frames);
        }
        let one_write = (codec::FILE_HEADER_LEN + 8 + frames.len()) as u64;
        assert_eq!(log.bytes_written(), one_write);
        assert_eq!(read_log(&cfg.log_path()).unwrap().len(), 3);
        log.append(&batch_record(4)).unwrap();
        log.sync().unwrap();
        assert_eq!(log.syncs(), 2);
        // Unsynced-empty sync is a no-op.
        log.sync().unwrap();
        assert_eq!(log.syncs(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_tolerated_binary() {
        let dir = tempdir("torn-bin");
        let cfg = LogConfig::new(&dir);
        let mut log = CommandLog::open(cfg.clone()).unwrap();
        log.append(&batch_record(1)).unwrap();
        log.append(&batch_record(2)).unwrap();
        drop(log);
        // Simulate a torn write: a frame that never finished.
        let mut torn = Vec::new();
        let f = codec::begin_frame(&mut torn);
        batch_record(3).encode_binary(&mut torn);
        codec::end_frame(&mut torn, f);
        let mut file = OpenOptions::new()
            .append(true)
            .open(cfg.log_path())
            .unwrap();
        file.write_all(&torn[..torn.len() - 2]).unwrap();
        drop(file);
        let records = read_log(&cfg.log_path()).unwrap();
        assert_eq!(records.len(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_trims_torn_tail_before_appending() {
        let dir = tempdir("trim");
        let cfg = LogConfig::new(&dir);
        {
            let mut log = CommandLog::open(cfg.clone()).unwrap();
            log.append(&batch_record(1)).unwrap();
            log.append(&batch_record(2)).unwrap();
        }
        // Crash mid-append: a torn suffix after the intact records.
        let mut torn = Vec::new();
        encode_record_into(&batch_record(3), &mut torn);
        let mut file = OpenOptions::new()
            .append(true)
            .open(cfg.log_path())
            .unwrap();
        file.write_all(&torn[..torn.len() - 2]).unwrap();
        drop(file);
        // Reopen + append: the torn bytes must be trimmed first, or the
        // new record would be unreachable on the next recovery.
        {
            let mut log = CommandLog::open(cfg.clone()).unwrap();
            log.append(&batch_record(4)).unwrap();
        }
        let records = read_log(&cfg.log_path()).unwrap();
        assert_eq!(
            records,
            vec![batch_record(1), batch_record(2), batch_record(4)],
            "post-trim log must be prefix + new record"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_zero_filled_tail_is_the_end_and_the_next_append_overwrites_it() {
        // A power loss keeps the zeros of the reserve past the last
        // extent, and an append none of whose sectors persisted reads as
        // zeros too: the log ends there, with nothing torn to trim.
        let dir = tempdir("zero-tail");
        let cfg = LogConfig::new(&dir);
        let acks: Vec<LogRecord> = (1..=3)
            .map(|b| LogRecord::Ack {
                batch: BatchId::new(b),
            })
            .collect();
        {
            let mut log = CommandLog::open(cfg.clone()).unwrap();
            for ack in &acks {
                log.append(ack).unwrap();
            }
            log.sync().unwrap();
        }
        let intact = std::fs::metadata(cfg.log_path()).unwrap().len();
        let mut file = OpenOptions::new()
            .append(true)
            .open(cfg.log_path())
            .unwrap();
        file.write_all(&[0; 24]).unwrap();
        drop(file);
        assert_eq!(
            durable::for_each_frame(&cfg.log_path(), codec::LOG_MAGIC, |_| Ok(())).unwrap(),
            None,
            "a zero tail is not a torn one"
        );
        assert_eq!(read_log(&cfg.log_path()).unwrap(), acks);
        let mut log = CommandLog::open(cfg.clone()).unwrap();
        assert_eq!(
            std::fs::metadata(cfg.log_path()).unwrap().len(),
            intact + 24,
            "open keeps the zero tail"
        );
        let next = LogRecord::Ack {
            batch: BatchId::new(4),
        };
        log.append(&next).unwrap();
        let mut expected = acks.clone();
        expected.push(next);
        assert_eq!(read_log(&cfg.log_path()).unwrap(), expected);
        let written = log.bytes_written();
        drop(log);
        assert_eq!(
            std::fs::metadata(cfg.log_path()).unwrap().len(),
            intact + written,
            "the append landed at the durable end, over the zeros"
        );
        assert_eq!(read_log(&cfg.log_path()).unwrap(), expected);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_header_restarts_the_log_empty() {
        // The very first write tore inside the 8-byte file header: no
        // record was ever durable, so open() restarts the file from
        // scratch instead of appending after the partial header (which
        // would make the log permanently unreadable).
        let dir = tempdir("torn-header");
        let cfg = LogConfig::new(&dir);
        let mut partial = Vec::new();
        codec::put_file_header(&mut partial, codec::LOG_MAGIC);
        std::fs::write(cfg.log_path(), &partial[..6]).unwrap();

        let mut log = CommandLog::open(cfg.clone()).unwrap();
        log.append(&batch_record(1)).unwrap();
        drop(log);
        assert_eq!(read_log(&cfg.log_path()).unwrap(), vec![batch_record(1)]);
        std::fs::remove_dir_all(dir).ok();
    }

    /// A file of another codec version or another format altogether, or
    /// one holding a corrupt complete extent, is refused by both the
    /// writer and the reader, and never modified.
    #[test]
    fn other_versions_and_formats_are_refused_untouched() {
        let dir = tempdir("refuse");
        let cfg = LogConfig::new(&dir);
        let mut frames = Vec::new();
        encode_record_into(&batch_record(1), &mut frames);
        {
            let mut log = CommandLog::open(cfg.clone()).unwrap();
            log.append(&batch_record(1)).unwrap();
            log.append(&batch_record(2)).unwrap();
        }
        let v4 = std::fs::read(cfg.log_path()).unwrap();
        let mut files = vec![
            b"{\"Ack\":{\"batch\":1}}\n".to_vec(), // a JSON-lines log
        ];
        // v2 and v3 appended bare frames; v5 is from the future. A torn
        // tail too: refusal comes before any trimming.
        for (version, body) in [(2u32, &frames[..]), (3, &frames), (5, &v4[8..])] {
            let mut bytes = codec::LOG_MAGIC.to_vec();
            bytes.extend_from_slice(&version.to_le_bytes());
            bytes.extend_from_slice(body);
            bytes.extend_from_slice(&body[..body.len() - 2]);
            files.push(bytes);
        }
        // v4 with a flipped byte in its first extent, a valid one after.
        let mut corrupt = v4.clone();
        corrupt[codec::FILE_HEADER_LEN + 8 + codec::FRAME_HEADER_LEN + 2] ^= 0x20;
        files.push(corrupt);
        for contents in files {
            std::fs::write(cfg.log_path(), &contents).unwrap();
            let err = CommandLog::open(cfg.clone()).unwrap_err();
            assert_eq!(err.kind(), "recovery", "{err}");
            assert_eq!(read_log(&cfg.log_path()).unwrap_err().kind(), "recovery");
            assert_eq!(std::fs::read(cfg.log_path()).unwrap(), contents);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mid_log_corruption_is_a_clear_error_not_a_panic() {
        let dir = tempdir("corrupt");
        let cfg = LogConfig::new(&dir);
        let mut log = CommandLog::open(cfg.clone()).unwrap();
        for i in 1..=5 {
            log.append(&batch_record(i)).unwrap();
        }
        drop(log);
        // Flip one payload byte inside the FIRST record's frame — valid
        // frames follow it, so this must classify as corruption.
        let mut bytes = std::fs::read(cfg.log_path()).unwrap();
        let mid = codec::FILE_HEADER_LEN + codec::FRAME_HEADER_LEN + 2;
        bytes[mid] ^= 0x20;
        std::fs::write(cfg.log_path(), &bytes).unwrap();
        let err = read_log(&cfg.log_path()).unwrap_err();
        assert_eq!(err.kind(), "recovery");
        assert!(err.to_string().contains("corrupted"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_log_reads_empty() {
        let dir = tempdir("missing");
        let records = read_log(&dir.join("nope.log")).unwrap();
        assert!(records.is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn gc_drops_only_acked_covered_batches() {
        let _fault = crate::fault_lock();
        let dir = tempdir("gc-acked");
        let cfg = LogConfig::new(&dir);
        let mut log = CommandLog::open(cfg.clone()).unwrap();
        for i in 1..=4 {
            log.append(&batch_record(i)).unwrap();
        }
        // Batches 1 and 2 completed their workflows; 3 and 4 are still
        // in flight (no ack) — e.g. queued on another partition.
        for i in 1..=2 {
            log.append(&LogRecord::Ack {
                batch: BatchId::new(i),
            })
            .unwrap();
        }
        // A clean close truncates the reserve: the size is the logical end.
        drop(log);
        let before = std::fs::metadata(cfg.log_path()).unwrap().len();
        let mut log = CommandLog::open(cfg.clone()).unwrap();
        // A snapshot covers everything submitted so far...
        let dropped = log.gc_acked_through(BatchId::new(4)).unwrap();
        // ...but only the acked batches (and their acks) may go.
        assert_eq!(dropped, 4); // 2 batch records + 2 acks
        let after = std::fs::metadata(cfg.log_path()).unwrap().len();
        assert!(after < before, "log did not shrink: {before} -> {after}");
        let remaining = read_log(&cfg.log_path()).unwrap();
        assert_eq!(remaining, vec![batch_record(3), batch_record(4)]);
        // Idempotent: nothing more to drop.
        assert_eq!(log.gc_acked_through(BatchId::new(4)).unwrap(), 0);
        // The log keeps accepting appends after the rewrite.
        log.append(&batch_record(5)).unwrap();
        assert_eq!(read_log(&cfg.log_path()).unwrap().len(), 3);
        std::fs::remove_dir_all(dir).ok();
    }

    /// A crash between the GC rewrite's fsync and its rename leaves the
    /// old log, which reads back whole; a retry then collects it.
    #[test]
    fn gc_rewrite_crash_keeps_the_old_log() {
        let _fault = crate::fault_lock();
        let dir = tempdir("gc-crash");
        let cfg = LogConfig::new(&dir);
        let mut log = CommandLog::open(cfg.clone()).unwrap();
        log.append(&batch_record(1)).unwrap();
        log.append(&batch_record(2)).unwrap();
        log.append(&LogRecord::Ack {
            batch: BatchId::new(1),
        })
        .unwrap();
        let before = read_log(&cfg.log_path()).unwrap();

        fault::arm("log-gc-mid-write", 1, fault::KillMode::Panic);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            log.gc_acked_through(BatchId::new(2))
        }));
        fault::disarm();
        assert!(crashed.is_err(), "the armed kill point must fire");
        assert_eq!(read_log(&cfg.log_path()).unwrap(), before);

        assert_eq!(log.gc_acked_through(BatchId::new(2)).unwrap(), 2);
        log.append(&batch_record(3)).unwrap();
        assert_eq!(
            read_log(&cfg.log_path()).unwrap(),
            vec![batch_record(2), batch_record(3)]
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
