//! Whole-partition snapshots.
//!
//! H-Store's fault tolerance combines command logging with periodic
//! snapshots (Malviya et al., ICDE 2014 — the paper's reference 7).
//! S-Store inherits that machinery; the recovery module in `sstore-txn`
//! loads the latest snapshot and replays the command log from there.
//!
//! On disk a snapshot is a `SSNP` magic + version header, then CRC32
//! frames — one metadata frame (kind byte, envelope fields, catalog)
//! followed by one frame per table in the compact value codec
//! (`sstore_common::codec`). Row encoding borrows the shared COW cells, so
//! capturing + encoding never deep-copies tuples. The envelope records
//! enough metadata (`last_txn`, `last_batch`, `clock_micros`) for replay to
//! resume exactly. [`Snapshot::read_from`] refuses any file that is not
//! codec v4 (a snapshot's v4 layout is v3's; only the append files
//! changed).

use crate::catalog::Catalog;
use crate::database::Database;
use crate::journal::{SlotOp, TableDirt};
use crate::table::Table;
use sstore_common::codec;
use sstore_common::durable;
use sstore_common::{BatchId, Error, Result, TxnId};
use std::fs;
use std::path::{Path, PathBuf};

/// A consistent point-in-time image of one partition.
#[derive(Debug)]
pub struct Snapshot {
    /// Highest transaction id included in the image.
    pub last_txn: Option<TxnId>,
    /// Highest border-input batch id fully applied in the image.
    pub last_batch: Option<BatchId>,
    /// Logical clock at snapshot time.
    pub clock_micros: i64,
    /// The data.
    pub database: Database,
}

impl Snapshot {
    /// Capture the current state.
    pub fn capture(
        db: &Database,
        last_txn: Option<TxnId>,
        last_batch: Option<BatchId>,
        clock_micros: i64,
    ) -> Self {
        Snapshot {
            last_txn,
            last_batch,
            clock_micros,
            database: db.clone(),
        }
    }

    /// Write to `path` atomically (temp file + rename). A failure leaves
    /// recovery on the previous image (or none) plus the un-GC'd log.
    pub fn write_to(&self, path: &Path) -> Result<()> {
        let bytes = self.encode_binary();
        durable::write_atomic(path, &bytes, "snapshot-io-error", "snapshot-mid-write")
    }

    /// Load from `path`, verifying magic, version and checksums. Any
    /// failure — including a file of another format or codec version —
    /// surfaces as a recovery error: snapshots are written atomically
    /// (temp + rename), so unlike a command-log tail there is no benign
    /// torn-write case.
    pub fn read_from(path: &Path) -> Result<Snapshot> {
        let bytes = fs::read(path)?;
        Self::decode_binary(&bytes).map_err(|e| Error::Recovery(format!("snapshot decode: {e}")))
    }

    /// The chain-identity key of this image: the envelope triple. Every
    /// retention point is separated from the previous one by at least one
    /// commit, so the triple strictly advances between images — a delta
    /// carrying this key as its base provably chains onto exactly this
    /// state and no other.
    pub fn key(&self) -> SnapshotKey {
        SnapshotKey {
            last_txn: self.last_txn,
            last_batch: self.last_batch,
            clock_micros: self.clock_micros,
        }
    }

    /// The file bytes [`Snapshot::write_to`] writes: deterministic, so two
    /// captures hold the same state exactly when their bytes are equal.
    pub fn encode_binary(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_file_header(&mut out, codec::SNAPSHOT_MAGIC);
        // Metadata frame: kind byte (full image vs delta), envelope
        // fields, catalog, table count.
        let meta = codec::begin_frame(&mut out);
        out.push(KIND_FULL);
        encode_opt_u64(&mut out, self.last_txn.map(TxnId::raw));
        encode_opt_u64(&mut out, self.last_batch.map(BatchId::raw));
        codec::put_ivarint(&mut out, self.clock_micros);
        self.database.catalog().encode_binary(&mut out);
        codec::put_uvarint(&mut out, self.database.tables().len() as u64);
        codec::end_frame(&mut out, meta);
        // One frame per table, TableId order.
        for table in self.database.tables() {
            let f = codec::begin_frame(&mut out);
            table.encode_binary(&mut out);
            codec::end_frame(&mut out, f);
        }
        out
    }

    fn decode_binary(bytes: &[u8]) -> Result<Snapshot> {
        let mut r = codec::Reader::new(bytes);
        codec::check_file_header(&mut r, codec::SNAPSHOT_MAGIC)?;
        let meta = next_frame(&mut r)?;
        let mut m = codec::Reader::new(meta);
        let kind = m.u8()?;
        if kind != KIND_FULL {
            return Err(Error::Codec(format!(
                "expected a full snapshot image, found kind {kind} \
                 (a delta cannot load without its base)"
            )));
        }
        let last_txn = decode_opt_u64(&mut m)?.map(TxnId::new);
        let last_batch = decode_opt_u64(&mut m)?.map(BatchId::new);
        let clock_micros = m.ivarint()?;
        let catalog = Catalog::decode_binary(&mut m)?;
        let table_count = m.uvarint()? as usize;
        let mut tables = Vec::with_capacity(table_count.min(bytes.len()));
        for i in 0..table_count {
            let payload = next_frame(&mut r)
                .map_err(|e| Error::Codec(format!("table {i}/{table_count}: {e}")))?;
            let mut tr = codec::Reader::new(payload);
            tables.push(Table::decode_binary(&mut tr)?);
        }
        Ok(Snapshot {
            last_txn,
            last_batch,
            clock_micros,
            database: Database::from_parts(catalog, tables),
        })
    }
}

/// Meta-frame kind byte: a self-contained full image.
const KIND_FULL: u8 = 0;
/// Meta-frame kind byte: an incremental delta chained to a base.
const KIND_DELTA: u8 = 1;

/// Table-delta mode: replay a journaled op sequence against the base.
const MODE_OPS: u8 = 0;
/// Table-delta mode: the table is embedded as a full image (journal
/// unavailable, structural change, or op overflow).
const MODE_FULL: u8 = 1;

/// Identity of one image in a snapshot chain — see [`Snapshot::key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotKey {
    /// Highest transaction id in the image.
    pub last_txn: Option<TxnId>,
    /// Highest fully-applied border batch in the image.
    pub last_batch: Option<BatchId>,
    /// Logical clock at image time.
    pub clock_micros: i64,
}

/// Per-table payload inside a delta.
enum TableDelta {
    /// Replay these ops through the table mutators.
    Ops(Vec<SlotOp>),
    /// Replace (or append, for tables created since the base) wholesale.
    Full(Box<Table>),
}

/// An incremental snapshot: only what changed since the predecessor
/// image, chained to it by the predecessor's [`SnapshotKey`]. On disk it
/// shares the `SSNP` header with full images; the meta frame's kind byte
/// tells them apart, so a delta can never be mistaken for a base.
/// A changed table's ops end with the live row of each slot written in
/// place since that image (the journal keeps such a write as its slot
/// id; replaying it last is byte-identical, see `crate::journal`).
pub struct SnapshotDelta {
    /// Key of the image this delta chains onto.
    pub base: SnapshotKey,
    /// Position in the chain (1 = first delta after the base). Checked
    /// against the file name on load so a stray copy cannot splice in.
    pub chain_index: u64,
    /// Envelope of the state *after* applying this delta.
    pub last_txn: Option<TxnId>,
    /// See [`Snapshot::last_batch`].
    pub last_batch: Option<BatchId>,
    /// See [`Snapshot::clock_micros`].
    pub clock_micros: i64,
    /// Full catalog at delta time (small, and it carries mutable
    /// lifecycle state — stream/window counters — that must replace the
    /// base's wholesale).
    catalog: Catalog,
    /// Total table count after this delta (alignment check).
    table_count: usize,
    /// Changed tables only, by `TableId` position.
    tables: Vec<(u64, TableDelta)>,
}

impl SnapshotDelta {
    /// Capture the changes journaled in `db` since the image identified
    /// by `base`. Tables with no journal (created since the base) and
    /// tables whose journal overflowed embed as full images; clean tables
    /// are omitted entirely.
    pub fn capture(
        db: &Database,
        base: SnapshotKey,
        chain_index: u64,
        last_txn: Option<TxnId>,
        last_batch: Option<BatchId>,
        clock_micros: i64,
    ) -> Self {
        let mut tables = Vec::new();
        for (tid, t) in db.tables().iter().enumerate() {
            match t.dirt() {
                TableDirt::Clean => {}
                TableDirt::Ops(ops) => tables.push((tid as u64, TableDelta::Ops(ops))),
                TableDirt::Full => {
                    tables.push((tid as u64, TableDelta::Full(Box::new(t.clone()))));
                }
            }
        }
        SnapshotDelta {
            base,
            chain_index,
            last_txn,
            last_batch,
            clock_micros,
            catalog: db.catalog().clone(),
            table_count: db.tables().len(),
            tables,
        }
    }

    /// Write to `path` atomically; a failure leaves recovery on the
    /// intact chain prefix plus the un-GC'd log.
    pub fn write_to(&self, path: &Path) -> Result<()> {
        let bytes = self.encode_binary();
        durable::write_atomic(
            path,
            &bytes,
            "snapshot-io-error",
            "delta-snapshot-mid-write",
        )
    }

    /// Load a delta, verifying magic, version, checksums, and kind.
    pub(crate) fn read_from(path: &Path) -> Result<SnapshotDelta> {
        let bytes = fs::read(path)?;
        Self::decode_binary(&bytes)
            .map_err(|e| Error::Recovery(format!("snapshot delta decode: {e}")))
    }

    fn encode_binary(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_file_header(&mut out, codec::SNAPSHOT_MAGIC);
        let meta = codec::begin_frame(&mut out);
        out.push(KIND_DELTA);
        encode_opt_u64(&mut out, self.base.last_txn.map(TxnId::raw));
        encode_opt_u64(&mut out, self.base.last_batch.map(BatchId::raw));
        codec::put_ivarint(&mut out, self.base.clock_micros);
        codec::put_uvarint(&mut out, self.chain_index);
        encode_opt_u64(&mut out, self.last_txn.map(TxnId::raw));
        encode_opt_u64(&mut out, self.last_batch.map(BatchId::raw));
        codec::put_ivarint(&mut out, self.clock_micros);
        self.catalog.encode_binary(&mut out);
        codec::put_uvarint(&mut out, self.table_count as u64);
        codec::put_uvarint(&mut out, self.tables.len() as u64);
        codec::end_frame(&mut out, meta);
        // One frame per dirty table.
        for (tid, delta) in &self.tables {
            let f = codec::begin_frame(&mut out);
            codec::put_uvarint(&mut out, *tid);
            match delta {
                TableDelta::Ops(ops) => {
                    out.push(MODE_OPS);
                    codec::put_uvarint(&mut out, ops.len() as u64);
                    for op in ops {
                        op.encode_binary(&mut out);
                    }
                }
                TableDelta::Full(table) => {
                    out.push(MODE_FULL);
                    table.encode_binary(&mut out);
                }
            }
            codec::end_frame(&mut out, f);
        }
        out
    }

    fn decode_binary(bytes: &[u8]) -> Result<SnapshotDelta> {
        let mut r = codec::Reader::new(bytes);
        codec::check_file_header(&mut r, codec::SNAPSHOT_MAGIC)?;
        let meta = next_frame(&mut r)?;
        let mut m = codec::Reader::new(meta);
        let kind = m.u8()?;
        if kind != KIND_DELTA {
            return Err(Error::Codec(format!(
                "expected a snapshot delta, found kind {kind}"
            )));
        }
        let base = SnapshotKey {
            last_txn: decode_opt_u64(&mut m)?.map(TxnId::new),
            last_batch: decode_opt_u64(&mut m)?.map(BatchId::new),
            clock_micros: m.ivarint()?,
        };
        let chain_index = m.uvarint()?;
        let last_txn = decode_opt_u64(&mut m)?.map(TxnId::new);
        let last_batch = decode_opt_u64(&mut m)?.map(BatchId::new);
        let clock_micros = m.ivarint()?;
        let catalog = Catalog::decode_binary(&mut m)?;
        let table_count = m.uvarint()? as usize;
        let n_dirty = m.uvarint()? as usize;
        let mut tables = Vec::with_capacity(n_dirty.min(bytes.len()));
        for i in 0..n_dirty {
            let payload = next_frame(&mut r)
                .map_err(|e| Error::Codec(format!("table delta {i}/{n_dirty}: {e}")))?;
            let mut tr = codec::Reader::new(payload);
            let tid = tr.uvarint()?;
            let delta = match tr.u8()? {
                MODE_OPS => {
                    let n_ops = tr.uvarint()? as usize;
                    let mut ops = Vec::with_capacity(n_ops.min(payload.len()));
                    for _ in 0..n_ops {
                        ops.push(SlotOp::decode_binary(&mut tr)?);
                    }
                    TableDelta::Ops(ops)
                }
                MODE_FULL => TableDelta::Full(Box::new(Table::decode_binary(&mut tr)?)),
                mode => {
                    return Err(Error::Codec(format!(
                        "bad table-delta mode {mode} for table {tid}"
                    )))
                }
            };
            tables.push((tid, delta));
        }
        Ok(SnapshotDelta {
            base,
            chain_index,
            last_txn,
            last_batch,
            clock_micros,
            catalog,
            table_count,
            tables,
        })
    }
}

impl Snapshot {
    /// Apply one delta in place. The caller must already have verified
    /// `delta.base == self.key()` (the chain loader uses a mismatch as
    /// the benign end-of-prefix signal, so `apply_delta` treats it as a
    /// hard internal error).
    pub(crate) fn apply_delta(&mut self, delta: SnapshotDelta) -> Result<()> {
        if delta.base != self.key() {
            return Err(Error::Recovery(format!(
                "delta {} does not chain onto this image",
                delta.chain_index
            )));
        }
        let (_old_catalog, mut tables) = std::mem::take(&mut self.database).into_parts();
        for (tid, td) in delta.tables {
            let tid = tid as usize;
            match td {
                TableDelta::Ops(ops) => {
                    let table = tables.get_mut(tid).ok_or_else(|| {
                        Error::Recovery(format!("delta ops for unknown table {tid}"))
                    })?;
                    for op in &ops {
                        table.apply_slot_op(op).map_err(|e| {
                            Error::Recovery(format!("delta replay, table {tid}: {e}"))
                        })?;
                    }
                }
                TableDelta::Full(table) => {
                    if tid < tables.len() {
                        tables[tid] = *table;
                    } else if tid == tables.len() {
                        // Table created since the base image.
                        tables.push(*table);
                    } else {
                        return Err(Error::Recovery(format!(
                            "delta full image for out-of-order table {tid}"
                        )));
                    }
                }
            }
        }
        if tables.len() != delta.table_count {
            return Err(Error::Recovery(format!(
                "delta leaves {} tables, expected {}",
                tables.len(),
                delta.table_count
            )));
        }
        self.database = Database::from_parts(delta.catalog, tables);
        self.last_txn = delta.last_txn;
        self.last_batch = delta.last_batch;
        self.clock_micros = delta.clock_micros;
        Ok(())
    }

    /// Load a snapshot chain: the base image at `base_path` plus every
    /// delta `delta_path(1), delta_path(2), …` that chains onto it.
    /// Returns the materialized snapshot and the number of deltas applied.
    ///
    /// Chain-walk rules:
    /// * a **missing** delta file ends the chain (normal case);
    /// * a **stale** delta — wrong base key or wrong chain index, i.e. a
    ///   leftover from a superseded chain after a full-image rewrite —
    ///   ends the chain at the intact prefix (the envelope key makes this
    ///   detection exact, since keys strictly advance between images);
    /// * a **corrupt** delta is a loud recovery error: deltas become
    ///   visible only via atomic rename, and the command log may already
    ///   be GC'd against them, so silently dropping one would lose data.
    pub fn read_chain(
        base_path: &Path,
        delta_path: impl Fn(u64) -> PathBuf,
    ) -> Result<(Snapshot, u64)> {
        let mut snap = sstore_common::obs::timed_phase("recovery.base_image", || {
            Snapshot::read_from(base_path)
        })?;
        sstore_common::obs::timed_phase("recovery.delta_apply", || {
            let mut applied = 0u64;
            loop {
                let next = delta_path(applied + 1);
                if !next.exists() {
                    break;
                }
                let delta = SnapshotDelta::read_from(&next)?;
                if delta.chain_index != applied + 1 || delta.base != snap.key() {
                    break;
                }
                snap.apply_delta(delta)?;
                applied += 1;
            }
            Ok((snap, applied))
        })
    }
}

fn encode_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            codec::put_uvarint(out, v);
        }
    }
}

fn decode_opt_u64(r: &mut codec::Reader<'_>) -> Result<Option<u64>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.uvarint()?)),
        tag => Err(Error::Codec(format!("bad option tag {tag}"))),
    }
}

/// Read one frame that must be complete and valid (snapshot context).
fn next_frame<'a>(r: &mut codec::Reader<'a>) -> Result<&'a [u8]> {
    let frame =
        codec::read_frame(r).map_err(|e| Error::Codec(format!("snapshot corrupted: {e}")))?;
    frame.ok_or_else(|| Error::Codec("snapshot truncated (missing frame)".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{Column, DataType, Row, Schema, Value};

    fn tempdir() -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sstore-snap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        let schema = Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
            &["id"],
        )
        .unwrap();
        let t = db.create_table("t", schema).unwrap();
        for i in 0..10 {
            db.table_mut(t)
                .unwrap()
                .insert(vec![Value::Int(i), Value::Text(format!("row{i}"))])
                .unwrap();
        }
        db
    }

    #[test]
    fn snapshot_round_trip_both_formats() {
        let dir = tempdir();
        let path = dir.join("snap.dat");
        let db = sample_db();
        let snap = Snapshot::capture(&db, Some(TxnId::new(7)), Some(BatchId::new(3)), 123);
        snap.write_to(&path).unwrap();

        let loaded = Snapshot::read_from(&path).unwrap();
        assert_eq!(loaded.last_txn, Some(TxnId::new(7)));
        assert_eq!(loaded.last_batch, Some(BatchId::new(3)));
        assert_eq!(loaded.clock_micros, 123);
        let t = loaded.database.resolve("t").unwrap();
        assert_eq!(loaded.database.table(t).unwrap().len(), 10);
        // Indexes survive the round trip.
        assert!(loaded
            .database
            .table(t)
            .unwrap()
            .pk_lookup(&[Value::Int(5)])
            .is_some());
        fs::remove_dir_all(dir).ok();
    }

    /// Reading `bytes` as a snapshot fails with a recovery error that
    /// names `version`.
    fn assert_refused(bytes: &[u8], version: u32) {
        let dir = tempdir();
        let path = dir.join(format!("v{version}.dat"));
        fs::write(&path, bytes).unwrap();
        let err = Snapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), "recovery");
        assert!(
            err.to_string().contains(&format!("version {version}")),
            "{err}"
        );
        fs::remove_dir_all(dir).ok();
    }

    /// A v1 binary snapshot (the first binary layout: catalog, schemas,
    /// and index definitions as length-prefixed blobs of a generic value
    /// tree) is refused at its header. The image is written byte-by-byte
    /// in that layout; the blobs are empty, as the reader never gets past
    /// the header.
    #[test]
    fn v1_binary_snapshot_is_refused_at_its_header() {
        let mut v1 = Vec::new();
        v1.extend_from_slice(&codec::SNAPSHOT_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        // Meta frame: envelope + catalog blob + table count.
        let f = codec::begin_frame(&mut v1);
        encode_opt_u64(&mut v1, Some(7)); // last_txn
        encode_opt_u64(&mut v1, Some(3)); // last_batch
        codec::put_ivarint(&mut v1, 123); // clock
        codec::put_bytes(&mut v1, &[]); // catalog
        codec::put_uvarint(&mut v1, 1); // table count
        codec::end_frame(&mut v1, f);
        // Table frame: name, schema blob, slots, free list, pk index
        // (definition blob + entries), secondary count.
        let f = codec::begin_frame(&mut v1);
        codec::put_str(&mut v1, "t");
        codec::put_bytes(&mut v1, &[]); // schema
        codec::put_uvarint(&mut v1, 2); // slots
        for i in 1..=2i64 {
            v1.push(1);
            codec::encode_row(&Row::new(vec![Value::Int(i)]), &mut v1);
        }
        codec::put_uvarint(&mut v1, 0); // free list
        v1.push(1); // pk index present
        codec::put_bytes(&mut v1, &[]); // index definition
        codec::put_uvarint(&mut v1, 2); // entries
        for (key, rid) in [(1i64, 0u64), (2, 1)] {
            codec::put_uvarint(&mut v1, 1);
            codec::encode_value(&Value::Int(key), &mut v1);
            codec::put_uvarint(&mut v1, 1);
            codec::put_uvarint(&mut v1, rid);
        }
        codec::put_uvarint(&mut v1, 0); // secondary indexes
        codec::end_frame(&mut v1, f);
        assert_refused(&v1, 1);
    }

    #[test]
    fn corrupted_binary_snapshot_is_a_clear_error() {
        let dir = tempdir();
        let path = dir.join("snap.dat");
        let snap = Snapshot::capture(&sample_db(), None, None, 0);
        snap.write_to(&path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = Snapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), "recovery");
        assert!(err.to_string().contains("snapshot"), "{err}");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_snapshot_is_an_error() {
        let dir = tempdir();
        let err = Snapshot::read_from(&dir.join("nope.json")).unwrap_err();
        assert_eq!(err.kind(), "io");
        fs::remove_dir_all(dir).ok();
    }

    /// A v2 binary snapshot (pre-delta-chain: no kind byte in the meta
    /// frame) is refused at its header. The image is hand-assembled with
    /// an explicit v2 header and the current body encoders (the v2→v3
    /// body layout differs only by that byte).
    #[test]
    fn v2_binary_snapshot_is_refused_at_its_header() {
        let db = sample_db();
        let mut v2 = Vec::new();
        v2.extend_from_slice(&codec::SNAPSHOT_MAGIC);
        v2.extend_from_slice(&2u32.to_le_bytes());
        let f = codec::begin_frame(&mut v2);
        encode_opt_u64(&mut v2, Some(7)); // last_txn
        encode_opt_u64(&mut v2, None); // last_batch
        codec::put_ivarint(&mut v2, 42); // clock
        db.catalog().encode_binary(&mut v2);
        codec::put_uvarint(&mut v2, db.tables().len() as u64);
        codec::end_frame(&mut v2, f);
        for table in db.tables() {
            let f = codec::begin_frame(&mut v2);
            table.encode_binary(&mut v2);
            codec::end_frame(&mut v2, f);
        }
        assert_refused(&v2, 2);
    }

    #[test]
    fn delta_chain_roundtrip_matches_live_state() {
        let dir = tempdir();
        let base_path = dir.join("snapshot.dat");
        let delta_path = |k: u64| dir.join(format!("snapshot.d{k}.dat"));

        let mut db = sample_db();
        let t = db.resolve("t").unwrap();
        let base = Snapshot::capture(&db, Some(TxnId::new(10)), None, 100);
        base.write_to(&base_path).unwrap();
        db.enable_change_tracking();

        // Delta 1: mutate a handful of rows out of the 10.
        let rid = db.table(t).unwrap().pk_lookup(&[Value::Int(3)]).unwrap();
        db.table_mut(t)
            .unwrap()
            .update(rid, vec![Value::Int(3), Value::Text("updated".into())])
            .unwrap();
        db.table_mut(t)
            .unwrap()
            .insert(vec![Value::Int(100), Value::Text("new".into())])
            .unwrap();
        let d1 = SnapshotDelta::capture(&db, base.key(), 1, Some(TxnId::new(12)), None, 200);
        d1.write_to(&delta_path(1)).unwrap();
        db.enable_change_tracking();

        // Delta 2: delete + a table created since the base (full embed).
        let rid = db.table(t).unwrap().pk_lookup(&[Value::Int(0)]).unwrap();
        db.table_mut(t).unwrap().delete(rid).unwrap();
        let schema2 = Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap();
        let t2 = db.create_table("t2", schema2).unwrap();
        db.table_mut(t2)
            .unwrap()
            .insert(vec![Value::Int(9)])
            .unwrap();
        let key1 = SnapshotKey {
            last_txn: Some(TxnId::new(12)),
            last_batch: None,
            clock_micros: 200,
        };
        let d2 = SnapshotDelta::capture(&db, key1, 2, Some(TxnId::new(15)), None, 300);
        d2.write_to(&delta_path(2)).unwrap();

        let (loaded, applied) = Snapshot::read_chain(&base_path, delta_path).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(loaded.last_txn, Some(TxnId::new(15)));
        assert_eq!(loaded.clock_micros, 300);
        // Byte-identical to a fresh full capture of the live database.
        let live = Snapshot::capture(&db, Some(TxnId::new(15)), None, 300);
        assert_eq!(loaded.encode_binary(), live.encode_binary());
        fs::remove_dir_all(dir).ok();
    }

    /// Stale deltas left behind by a full-image rewrite (crash before
    /// cleanup) must not splice into the new chain: their base key names
    /// the superseded image.
    #[test]
    fn stale_delta_after_full_rewrite_is_ignored() {
        let dir = tempdir();
        let base_path = dir.join("snapshot.dat");
        let delta_path = |k: u64| dir.join(format!("snapshot.d{k}.dat"));

        let mut db = sample_db();
        let old_base = Snapshot::capture(&db, Some(TxnId::new(1)), None, 10);
        old_base.write_to(&base_path).unwrap();
        db.enable_change_tracking();
        let t = db.resolve("t").unwrap();
        db.table_mut(t)
            .unwrap()
            .insert(vec![Value::Int(50), Value::Text("x".into())])
            .unwrap();
        SnapshotDelta::capture(&db, old_base.key(), 1, Some(TxnId::new(2)), None, 20)
            .write_to(&delta_path(1))
            .unwrap();

        // Full rewrite at a later point; the old d1 is now stale.
        db.table_mut(t)
            .unwrap()
            .insert(vec![Value::Int(51), Value::Text("y".into())])
            .unwrap();
        let new_base = Snapshot::capture(&db, Some(TxnId::new(5)), None, 50);
        new_base.write_to(&base_path).unwrap();

        let (loaded, applied) = Snapshot::read_chain(&base_path, delta_path).unwrap();
        assert_eq!(applied, 0, "stale delta must not apply");
        assert_eq!(loaded.last_txn, Some(TxnId::new(5)));
        assert_eq!(loaded.database.table(t).unwrap().len(), 12);
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_delta_is_a_loud_error() {
        let dir = tempdir();
        let base_path = dir.join("snapshot.dat");
        let delta_path = |k: u64| dir.join(format!("snapshot.d{k}.dat"));
        let mut db = sample_db();
        let base = Snapshot::capture(&db, Some(TxnId::new(1)), None, 10);
        base.write_to(&base_path).unwrap();
        db.enable_change_tracking();
        let t = db.resolve("t").unwrap();
        db.table_mut(t)
            .unwrap()
            .insert(vec![Value::Int(77), Value::Text("z".into())])
            .unwrap();
        SnapshotDelta::capture(&db, base.key(), 1, Some(TxnId::new(2)), None, 20)
            .write_to(&delta_path(1))
            .unwrap();
        let mut bytes = fs::read(delta_path(1)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(delta_path(1), &bytes).unwrap();
        // The log may already be GC'd against this delta; dropping it
        // silently would lose data, so this must not fall back.
        let err = Snapshot::read_chain(&base_path, delta_path).unwrap_err();
        assert_eq!(err.kind(), "recovery");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn delta_where_full_expected_rejected() {
        let dir = tempdir();
        let db = sample_db();
        let key = SnapshotKey {
            last_txn: None,
            last_batch: None,
            clock_micros: 0,
        };
        let delta = SnapshotDelta::capture(&db, key, 1, Some(TxnId::new(1)), None, 5);
        let path = dir.join("masquerade.dat");
        delta.write_to(&path).unwrap();
        let err = Snapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), "recovery");
        assert!(err.to_string().contains("kind"), "{err}");
        fs::remove_dir_all(dir).ok();
    }

    /// A current image under any other header version — older or newer —
    /// is refused, and so is a file of another format altogether.
    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = Snapshot::capture(&sample_db(), None, None, 0).encode_binary();
        for version in [2u32, 3, 5] {
            bytes[4..codec::FILE_HEADER_LEN].copy_from_slice(&version.to_le_bytes());
            assert_refused(&bytes, version);
        }
        let dir = tempdir();
        let path = dir.join("snapshot.json");
        fs::write(&path, b"{\"version\":1,\"last_txn\":null}").unwrap();
        let err = Snapshot::read_from(&path).unwrap_err();
        assert_eq!(err.kind(), "recovery");
        fs::remove_dir_all(dir).ok();
    }
}
