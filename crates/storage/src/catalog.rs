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
use sstore_common::{codec, Column, DataType, Error, ProcId, Result, Schema, TableId};
use std::collections::VecDeque;

/// Hidden column appended to streams/windows: batch id.
pub const COL_BATCH: &str = "__batch";
/// Hidden column appended to streams/windows: per-table sequence number.
pub(crate) const COL_SEQ: &str = "__seq";
/// Hidden column appended to windows: logical arrival timestamp (µs).
pub(crate) const COL_TS: &str = "__ts";

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
    /// hidden lifecycle columns; see `Catalog::storage_schema`.
    pub visible_schema: Schema,
    /// Object kind and lifecycle state.
    pub kind: TableKind,
    /// Window only: live row ids in arrival order (front = oldest).
    /// Because window timestamps/sequence numbers are assigned from a
    /// monotone per-partition clock, eviction is always a prefix of this
    /// deque — slide maintenance pops O(evicted) entries instead of
    /// rescanning the table. The undo log restores the deque through its
    /// own `WindowPushed`/`WindowPopped`/`WindowExcised` operations, and
    /// the lifecycle counters by value (`UndoOp::Counters`). Empty for
    /// base tables and streams.
    pub arrivals: VecDeque<RowId>,
}

/// Name → metadata registry for one partition.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    by_name: sstore_common::hash::HashMap<String, TableId>,
    metas: Vec<TableMeta>,
}

impl Catalog {
    /// Empty catalog.
    pub(crate) fn new() -> Self {
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
    pub(crate) fn add_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        self.register(name, schema, TableKind::Base)
    }

    /// Register a stream.
    pub(crate) fn add_stream(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        self.register(name, schema, TableKind::Stream(StreamMeta::default()))
    }

    /// Register a window.
    pub(crate) fn add_window(
        &mut self,
        name: &str,
        schema: Schema,
        spec: WindowSpec,
    ) -> Result<TableId> {
        self.register(
            name,
            schema,
            TableKind::Window(WindowMeta {
                spec,
                next_seq: 0,
                pending: 0,
                total_inserted: 0,
            }),
        )
    }

    /// The storage-level schema for a catalog entry: the visible schema
    /// plus any hidden lifecycle columns required by the kind.
    pub(crate) fn storage_schema(meta: &TableMeta) -> Result<Schema> {
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

    /// Storage positions of a window's hidden `__seq` and `__ts`:
    /// `Catalog::storage_schema` appends them after the visible columns.
    pub fn window_hidden_positions(meta: &TableMeta) -> (usize, usize) {
        let n = meta.visible_schema.arity();
        (n, n + 1)
    }

    /// Resolve a name (case-insensitive).
    pub(crate) fn resolve(&self, name: &str) -> Option<TableId> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Metadata by id.
    #[inline]
    pub fn meta(&self, id: TableId) -> Option<&TableMeta> {
        self.metas.get(id.raw() as usize)
    }

    /// Mutable metadata by id (lifecycle updates: seq counters, watermarks).
    pub fn meta_mut(&mut self, id: TableId) -> Option<&mut TableMeta> {
        self.metas.get_mut(id.raw() as usize)
    }

    /// Binary-encode the whole catalog straight into `out`. `by_name` is
    /// not serialized (it is derivable from the metas), so the encoding is
    /// deterministic regardless of hash-map iteration order.
    pub(crate) fn encode_binary(&self, out: &mut Vec<u8>) {
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
    pub(crate) fn decode_binary(r: &mut codec::Reader<'_>) -> Result<Catalog> {
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
        let meta = c.meta(id).unwrap();
        let storage = Catalog::storage_schema(meta).unwrap();
        let (seq, ts) = Catalog::window_hidden_positions(meta);
        assert_eq!(storage.column_index(COL_SEQ), Some(seq));
        assert_eq!(storage.column_index(COL_TS), Some(ts));

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
        assert_eq!(back.metas.len(), 3);
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
        assert!(c.metas.is_empty());
        c.add_table("a", schema()).unwrap();
        c.add_stream("b", schema()).unwrap();
        assert_eq!(c.metas.len(), 2);
        let meta_by_name = |name| c.resolve(name).and_then(|id| c.meta(id));
        assert!(meta_by_name("b").unwrap().kind.is_stream());
        assert!(meta_by_name("missing").is_none());
    }
}
