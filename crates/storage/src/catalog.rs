//! The catalog: object names, schemas, and kinds.
//!
//! S-Store's "uniform state management" (paper §2) stores streams and
//! windows in ordinary tables; the catalog records which kind each table is
//! plus the kind-specific lifecycle metadata:
//!
//! * **streams** carry hidden `__batch`/`__seq` columns and a GC watermark;
//! * **windows** carry hidden `__seq`/`__ts` columns, a [`WindowSpec`], and
//!   an owner procedure for the paper's transaction-scope rule.

use crate::index::RowId;
use sstore_common::{codec, Column, DataType, Error, ProcId, Result, Schema, TableId, Value};
use std::collections::{HashMap, VecDeque};

/// Hidden column appended to streams/windows: batch id.
pub const COL_BATCH: &str = "__batch";
/// Hidden column appended to streams/windows: per-table sequence number.
pub const COL_SEQ: &str = "__seq";
/// Hidden column appended to windows: logical arrival timestamp (µs).
pub const COL_TS: &str = "__ts";

/// Sliding-window policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Tuple-based: keep the newest `size` tuples; downstream processing
    /// fires every `slide` insertions.
    Tuple {
        /// Window size in tuples.
        size: u64,
        /// Slide interval in tuples.
        slide: u64,
    },
    /// Time-based: keep tuples newer than `range` µs; fires every `slide` µs.
    Time {
        /// Window range in microseconds.
        range: i64,
        /// Slide interval in microseconds.
        slide: i64,
    },
}

/// Full window definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSpec {
    /// The slide policy.
    pub kind: WindowKind,
    /// Scope owner: only consecutive TEs of this procedure may read or
    /// write the window (paper §2, "scope of a transaction execution").
    /// `None` means the window is not yet bound to a procedure.
    pub owner: Option<ProcId>,
}

/// Stream lifecycle metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamMeta {
    /// Next sequence number to assign on append.
    pub next_seq: u64,
    /// All tuples with `__batch <= gc_watermark` may be garbage collected
    /// (their batch has been fully consumed downstream).
    pub gc_watermark: Option<u64>,
}

/// Incremental aggregate state for one visible window column: enough to
/// answer `COUNT(col)`, `SUM(col)`, and `AVG(col)` for INT columns without
/// scanning the window extent.
#[derive(Debug, Clone, Default)]
pub struct ColAgg {
    /// Non-NULL cells currently in the window.
    pub nonnull: u64,
    /// Running integer sum of the non-NULL cells (INT/TIMESTAMP lanes).
    pub overflow_sum: i64,
    /// Sticky: some add/remove over this column over- or underflowed `i64`,
    /// so `overflow_sum` is unusable (COUNT stays exact). Cleared only by a
    /// full rebuild.
    pub overflow: bool,
}

/// Running aggregates over a window's visible columns, maintained
/// incrementally on insert/evict/delete/update so sliding-window
/// `COUNT/SUM/AVG` queries are O(1) instead of O(window size).
///
/// This is **derived** state: `valid = false` means it must be rebuilt
/// from a scan before use (the state of affairs after snapshot decode,
/// or after a mutation path that does not carry undo information). It is
/// deliberately excluded from equality comparisons and from snapshots.
#[derive(Debug, Clone, Default)]
pub struct WindowAggState {
    /// False = state unknown; rebuild before trusting `rows`/`cols`.
    pub valid: bool,
    /// Live rows in the window.
    pub rows: u64,
    /// Per-visible-column accumulators.
    pub cols: Vec<ColAgg>,
}

impl WindowAggState {
    /// Fresh, trusted-empty state (for a newly created window).
    pub fn new_valid() -> Self {
        WindowAggState {
            valid: true,
            rows: 0,
            cols: Vec::new(),
        }
    }

    /// Drop all accumulated state and mark it unknown.
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.rows = 0;
        self.cols.clear();
    }

    fn ensure_width(&mut self, n: usize) {
        if self.cols.len() < n {
            // Widening after rows were accumulated would mean the new
            // columns never saw those rows; only trust a resize at zero.
            if self.rows > 0 && !self.cols.is_empty() {
                self.invalidate();
                return;
            }
            self.cols.resize_with(n, ColAgg::default);
        }
    }

    /// Fold one visible row into the state.
    pub fn add(&mut self, visible: &[Value]) {
        if !self.valid {
            return;
        }
        self.ensure_width(visible.len());
        if !self.valid {
            return;
        }
        self.rows += 1;
        for (c, v) in visible.iter().enumerate() {
            let agg = &mut self.cols[c];
            match v {
                Value::Null => {}
                Value::Int(i) | Value::Timestamp(i) => {
                    agg.nonnull += 1;
                    match agg.overflow_sum.checked_add(*i) {
                        Some(s) => agg.overflow_sum = s,
                        None => agg.overflow = true,
                    }
                }
                _ => agg.nonnull += 1,
            }
        }
    }

    /// Remove one visible row from the state (it must have been added).
    pub fn remove(&mut self, visible: &[Value]) {
        if !self.valid {
            return;
        }
        if self.rows == 0 || self.cols.len() < visible.len() {
            self.invalidate();
            return;
        }
        self.rows -= 1;
        for (c, v) in visible.iter().enumerate() {
            let agg = &mut self.cols[c];
            match v {
                Value::Null => {}
                Value::Int(i) | Value::Timestamp(i) => {
                    if agg.nonnull == 0 {
                        self.invalidate();
                        return;
                    }
                    agg.nonnull -= 1;
                    match agg.overflow_sum.checked_sub(*i) {
                        Some(s) => agg.overflow_sum = s,
                        None => agg.overflow = true,
                    }
                }
                _ => {
                    if agg.nonnull == 0 {
                        self.invalidate();
                        return;
                    }
                    agg.nonnull -= 1;
                }
            }
        }
    }

    /// Rebuild from a full scan of the window's visible rows.
    pub fn rebuild<'a>(&mut self, rows: impl Iterator<Item = &'a [Value]>) {
        self.valid = true;
        self.rows = 0;
        self.cols.clear();
        for r in rows {
            self.add(r);
        }
    }
}

/// Derived state compares equal to anything: two windows with the same
/// committed contents are the same window, whether or not a cache has
/// been warmed. This keeps `WindowMeta`'s undo-snapshot comparison and
/// codec round-trip tests meaningful.
impl PartialEq for WindowAggState {
    fn eq(&self, _: &WindowAggState) -> bool {
        true
    }
}
impl Eq for WindowAggState {}

/// Window lifecycle metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowMeta {
    /// The window definition.
    pub spec: WindowSpec,
    /// Next sequence number to assign on append.
    pub next_seq: u64,
    /// Tuples inserted since the window last slid (tuple windows) or the
    /// logical time of the last slide (time windows).
    pub pending: i64,
    /// Total tuples ever inserted (for slide arithmetic and stats).
    pub total_inserted: u64,
    /// Incremental `COUNT/SUM/AVG` cache over the visible columns.
    pub aggs: WindowAggState,
}

/// What kind of object a table is.
#[derive(Debug, Clone, PartialEq)]
pub enum TableKind {
    /// Regular OLTP table.
    Base,
    /// Unbounded stream (append-only, GC'd after consumption).
    Stream(StreamMeta),
    /// Bounded sliding window over a stream.
    Window(WindowMeta),
}

impl TableKind {
    /// True for `TableKind::Stream`.
    pub fn is_stream(&self) -> bool {
        matches!(self, TableKind::Stream(_))
    }
    /// True for `TableKind::Window`.
    pub fn is_window(&self) -> bool {
        matches!(self, TableKind::Window(_))
    }
}

/// Catalog entry for one table.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Dense id used everywhere else in the engine.
    pub id: TableId,
    /// Lower-cased object name.
    pub name: String,
    /// The *visible* schema (what SQL sees). The storage schema may append
    /// hidden lifecycle columns; see [`Catalog::storage_schema`].
    pub visible_schema: Schema,
    /// Object kind and lifecycle state.
    pub kind: TableKind,
    /// Window only: live row ids in arrival order (front = oldest).
    /// Because window timestamps/sequence numbers are assigned from a
    /// monotone per-partition clock, eviction is always a prefix of this
    /// deque — slide maintenance pops O(evicted) entries instead of
    /// rescanning the table. Kept outside [`TableKind`] so the per-insert
    /// undo snapshot of the lifecycle counters stays O(1); the undo log
    /// restores the deque through its own `WindowPushed`/`WindowPopped`/
    /// `WindowExcised` operations. Empty for base tables and streams.
    pub arrivals: VecDeque<RowId>,
}

/// Name → metadata registry for one partition.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    by_name: HashMap<String, TableId>,
    metas: Vec<TableMeta>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    fn register(&mut self, name: &str, visible_schema: Schema, kind: TableKind) -> Result<TableId> {
        let lname = name.to_ascii_lowercase();
        if self.by_name.contains_key(&lname) {
            return Err(Error::AlreadyExists(format!("table `{lname}`")));
        }
        let id = TableId::new(self.metas.len() as u32);
        self.by_name.insert(lname.clone(), id);
        self.metas.push(TableMeta {
            id,
            name: lname,
            visible_schema,
            kind,
            arrivals: VecDeque::new(),
        });
        Ok(id)
    }

    /// Register a base table.
    pub fn add_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        self.register(name, schema, TableKind::Base)
    }

    /// Register a stream.
    pub fn add_stream(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        self.register(name, schema, TableKind::Stream(StreamMeta::default()))
    }

    /// Register a window.
    pub fn add_window(&mut self, name: &str, schema: Schema, spec: WindowSpec) -> Result<TableId> {
        self.register(
            name,
            schema,
            TableKind::Window(WindowMeta {
                spec,
                next_seq: 0,
                pending: 0,
                total_inserted: 0,
                aggs: WindowAggState::new_valid(),
            }),
        )
    }

    /// The storage-level schema for a catalog entry: the visible schema
    /// plus any hidden lifecycle columns required by the kind.
    pub fn storage_schema(meta: &TableMeta) -> Result<Schema> {
        match &meta.kind {
            TableKind::Base => Ok(meta.visible_schema.clone()),
            TableKind::Stream(_) => meta.visible_schema.with_hidden(vec![
                Column::new(COL_BATCH, DataType::Int),
                Column::new(COL_SEQ, DataType::Int),
            ]),
            TableKind::Window(_) => meta.visible_schema.with_hidden(vec![
                Column::new(COL_SEQ, DataType::Int),
                Column::new(COL_TS, DataType::Timestamp),
            ]),
        }
    }

    /// Resolve a name (case-insensitive).
    pub fn resolve(&self, name: &str) -> Option<TableId> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Metadata by id.
    pub fn meta(&self, id: TableId) -> Option<&TableMeta> {
        self.metas.get(id.raw() as usize)
    }

    /// Mutable metadata by id (lifecycle updates: seq counters, watermarks).
    pub fn meta_mut(&mut self, id: TableId) -> Option<&mut TableMeta> {
        self.metas.get_mut(id.raw() as usize)
    }

    /// Metadata by name.
    pub fn meta_by_name(&self, name: &str) -> Option<&TableMeta> {
        self.resolve(name).and_then(|id| self.meta(id))
    }

    /// All registered objects.
    pub fn all(&self) -> &[TableMeta] {
        &self.metas
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Binary-encode the whole catalog straight into `out`. `by_name` is
    /// not serialized (it is derivable from the metas), so the encoding is
    /// deterministic regardless of hash-map iteration order.
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        codec::put_uvarint(out, self.metas.len() as u64);
        for m in &self.metas {
            codec::put_str(out, &m.name);
            m.visible_schema.encode_binary(out);
            match &m.kind {
                TableKind::Base => out.push(0),
                TableKind::Stream(s) => {
                    out.push(1);
                    codec::put_uvarint(out, s.next_seq);
                    match s.gc_watermark {
                        None => out.push(0),
                        Some(w) => {
                            out.push(1);
                            codec::put_uvarint(out, w);
                        }
                    }
                }
                TableKind::Window(w) => {
                    out.push(2);
                    match w.spec.kind {
                        WindowKind::Tuple { size, slide } => {
                            out.push(0);
                            codec::put_uvarint(out, size);
                            codec::put_uvarint(out, slide);
                        }
                        WindowKind::Time { range, slide } => {
                            out.push(1);
                            codec::put_ivarint(out, range);
                            codec::put_ivarint(out, slide);
                        }
                    }
                    match w.spec.owner {
                        None => out.push(0),
                        Some(p) => {
                            out.push(1);
                            codec::put_uvarint(out, p.raw() as u64);
                        }
                    }
                    codec::put_uvarint(out, w.next_seq);
                    codec::put_ivarint(out, w.pending);
                    codec::put_uvarint(out, w.total_inserted);
                }
            }
            codec::put_uvarint(out, m.arrivals.len() as u64);
            for &rid in &m.arrivals {
                codec::put_uvarint(out, rid);
            }
        }
    }

    /// Decode a catalog encoded by [`Catalog::encode_binary`]; `by_name`
    /// is rebuilt from the decoded metas.
    pub fn decode_binary(r: &mut codec::Reader<'_>) -> Result<Catalog> {
        let n = r.uvarint()? as usize;
        if n > r.remaining() {
            return Err(Error::Codec(format!(
                "catalog entry count {n} exceeds remaining input"
            )));
        }
        let mut cat = Catalog::new();
        for i in 0..n {
            let name = r.str()?.to_string();
            let visible_schema = Schema::decode_binary(r)?;
            let kind = match r.u8()? {
                0 => TableKind::Base,
                1 => {
                    let next_seq = r.uvarint()?;
                    let gc_watermark = match r.u8()? {
                        0 => None,
                        1 => Some(r.uvarint()?),
                        t => return Err(Error::Codec(format!("bad watermark tag {t}"))),
                    };
                    TableKind::Stream(StreamMeta {
                        next_seq,
                        gc_watermark,
                    })
                }
                2 => {
                    let kind = match r.u8()? {
                        0 => WindowKind::Tuple {
                            size: r.uvarint()?,
                            slide: r.uvarint()?,
                        },
                        1 => WindowKind::Time {
                            range: r.ivarint()?,
                            slide: r.ivarint()?,
                        },
                        t => return Err(Error::Codec(format!("bad window-kind tag {t}"))),
                    };
                    let owner = match r.u8()? {
                        0 => None,
                        1 => Some(ProcId::new(r.uvarint()? as u32)),
                        t => return Err(Error::Codec(format!("bad owner tag {t}"))),
                    };
                    TableKind::Window(WindowMeta {
                        spec: WindowSpec { kind, owner },
                        next_seq: r.uvarint()?,
                        pending: r.ivarint()?,
                        total_inserted: r.uvarint()?,
                        // The binary format does not carry the derived
                        // aggregate cache; rebuild lazily on first insert.
                        aggs: WindowAggState::default(),
                    })
                }
                t => return Err(Error::Codec(format!("bad table-kind tag {t}"))),
            };
            let n_arrivals = r.uvarint()? as usize;
            if n_arrivals > r.remaining() {
                return Err(Error::Codec(format!(
                    "arrival count {n_arrivals} exceeds remaining input"
                )));
            }
            let mut arrivals = VecDeque::with_capacity(n_arrivals);
            for _ in 0..n_arrivals {
                arrivals.push_back(r.uvarint()?);
            }
            let id = TableId::new(i as u32);
            cat.by_name.insert(name.clone(), id);
            cat.metas.push(TableMeta {
                id,
                name,
                visible_schema,
                kind,
                arrivals,
            });
        }
        Ok(cat)
    }

    /// Bind a window to its owning procedure (scope rule). Errors if the
    /// window is already owned by a different procedure.
    pub fn bind_window_owner(&mut self, id: TableId, owner: ProcId) -> Result<()> {
        let meta = self
            .meta_mut(id)
            .ok_or_else(|| Error::NotFound(format!("table {id}")))?;
        match &mut meta.kind {
            TableKind::Window(w) => match w.spec.owner {
                None => {
                    w.spec.owner = Some(owner);
                    Ok(())
                }
                Some(existing) if existing == owner => Ok(()),
                Some(existing) => Err(Error::Scope(format!(
                    "window `{}` is scoped to {existing}, cannot rebind to {owner}",
                    meta.name
                ))),
            },
            _ => Err(Error::Internal(format!("`{}` is not a window", meta.name))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::keyless(vec![Column::new("v", DataType::Int)]).unwrap()
    }

    #[test]
    fn register_and_resolve_case_insensitive() {
        let mut c = Catalog::new();
        let id = c.add_table("Votes", schema()).unwrap();
        assert_eq!(c.resolve("VOTES"), Some(id));
        assert_eq!(c.meta(id).unwrap().name, "votes");
        assert!(c.add_stream("votes", schema()).is_err());
    }

    #[test]
    fn stream_gets_hidden_columns() {
        let mut c = Catalog::new();
        let id = c.add_stream("s1", schema()).unwrap();
        let meta = c.meta(id).unwrap();
        assert!(meta.kind.is_stream());
        let storage = Catalog::storage_schema(meta).unwrap();
        assert_eq!(storage.arity(), 3);
        assert!(storage.column_index(COL_BATCH).is_some());
        assert!(storage.column_index(COL_SEQ).is_some());
    }

    #[test]
    fn window_gets_hidden_columns_and_owner_binding() {
        let mut c = Catalog::new();
        let spec = WindowSpec {
            kind: WindowKind::Tuple {
                size: 100,
                slide: 1,
            },
            owner: None,
        };
        let id = c.add_window("w1", schema(), spec).unwrap();
        let storage = Catalog::storage_schema(c.meta(id).unwrap()).unwrap();
        assert!(storage.column_index(COL_TS).is_some());

        c.bind_window_owner(id, ProcId::new(1)).unwrap();
        // Idempotent for the same owner.
        c.bind_window_owner(id, ProcId::new(1)).unwrap();
        // Different owner violates scope.
        let err = c.bind_window_owner(id, ProcId::new(2)).unwrap_err();
        assert_eq!(err.kind(), "scope");
    }

    #[test]
    fn bind_owner_on_base_table_fails() {
        let mut c = Catalog::new();
        let id = c.add_table("t", schema()).unwrap();
        assert!(c.bind_window_owner(id, ProcId::new(1)).is_err());
    }

    #[test]
    fn binary_codec_round_trips_all_kinds() {
        let mut c = Catalog::new();
        c.add_table(
            "base_t",
            Schema::new(vec![Column::new("id", DataType::Int)], &["id"]).unwrap(),
        )
        .unwrap();
        let sid = c.add_stream("s", schema()).unwrap();
        let wid = c
            .add_window(
                "w",
                schema(),
                WindowSpec {
                    kind: WindowKind::Time {
                        range: 1_000,
                        slide: -5,
                    },
                    owner: Some(ProcId::new(3)),
                },
            )
            .unwrap();
        // Dirty the lifecycle state so non-default fields round-trip.
        if let TableKind::Stream(s) = &mut c.meta_mut(sid).unwrap().kind {
            s.next_seq = 42;
            s.gc_watermark = Some(7);
        }
        c.meta_mut(wid).unwrap().arrivals.extend([9u64, 1, 4]);

        let mut buf = Vec::new();
        c.encode_binary(&mut buf);
        let back = Catalog::decode_binary(&mut codec::Reader::new(&buf)).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.resolve("base_t"), c.resolve("base_t"));
        assert_eq!(back.meta(sid).unwrap().kind, c.meta(sid).unwrap().kind);
        assert_eq!(back.meta(wid).unwrap().kind, c.meta(wid).unwrap().kind);
        assert_eq!(
            back.meta(wid).unwrap().arrivals,
            c.meta(wid).unwrap().arrivals
        );
        assert_eq!(
            back.meta(sid).unwrap().visible_schema,
            c.meta(sid).unwrap().visible_schema
        );
    }

    #[test]
    fn binary_codec_rejects_garbage_without_panic() {
        let garbage: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(73) ^ 0x5A).collect();
        assert!(Catalog::decode_binary(&mut codec::Reader::new(&garbage)).is_err());
    }

    #[test]
    fn meta_by_name_and_len() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.add_table("a", schema()).unwrap();
        c.add_stream("b", schema()).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.meta_by_name("b").unwrap().kind.is_stream());
        assert!(c.meta_by_name("missing").is_none());
    }
}
