//! Slot-based heap tables.
//!
//! A [`Table`] stores rows in slots addressed by stable [`RowId`]s, keeps
//! the primary-key index and any secondary indexes consistent on every
//! mutation, and exposes exactly the raw operations the undo log needs to
//! reverse: `insert` ↔ `delete`, `update` ↔ `update`, and `restore` (which
//! reinserts a deleted row into its original slot).

use crate::index::{Index, IndexDef, RowId};
use crate::mirror::Mirror;
use sstore_common::{codec, Error, Result, Row, Schema, Value};

/// One heap table (also the physical representation of streams and windows).
///
/// [`Table::encode_binary`] writes only the persistent fields: the
/// transient change journal (delta-snapshot support) and the column mirror
/// never reach the snapshot.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Slot array; `None` marks a free slot.
    slots: Vec<Option<Row>>,
    /// Free slot ids available for reuse.
    free: Vec<RowId>,
    /// Live row count (slots minus free).
    live: usize,
    /// Primary-key index (unique) when the schema has a PK.
    pk_index: Option<Index>,
    /// Secondary indexes.
    indexes: Vec<Index>,
    /// Change journal for delta snapshots; `None` = tracking off. Never
    /// encoded (runtime bookkeeping, not state).
    journal: Option<Journal>,
    /// Resident columns for vector scans, kept in step by the mutators.
    /// Derived from `slots`, so not state either: never encoded, and a
    /// clone starts without one.
    mirror: Mirror,
}

/// One journaled slot mutation — the exact physical operations the table
/// mutators perform, in execution order. Replaying a journal against the
/// base image drives the *same* mutators, so slot assignment, free-list
/// order, and index bucket order come out byte-identical to the live
/// table (a positional diff could not reproduce bucket order).
#[derive(Debug, Clone, PartialEq)]
pub enum SlotOp {
    /// `insert` filled `rid` with `row`.
    Insert {
        /// Slot the insert chose (replay asserts the same choice).
        rid: RowId,
        /// The validated row.
        row: Row,
    },
    /// `delete` emptied `rid`.
    Delete {
        /// Slot that was emptied.
        rid: RowId,
    },
    /// `update` replaced the row at `rid`.
    Update {
        /// Slot that was updated.
        rid: RowId,
        /// The new (validated) row.
        row: Row,
    },
    /// `restore` re-filled `rid` (undo path).
    Restore {
        /// Slot that was re-filled.
        rid: RowId,
        /// The restored row.
        row: Row,
    },
    /// `truncate` cleared the table (ops before it are superseded).
    Truncate,
}

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;
const OP_UPDATE: u8 = 2;
const OP_RESTORE: u8 = 3;
const OP_TRUNCATE: u8 = 4;

impl SlotOp {
    /// Append the compact binary encoding (delta snapshot frames): the
    /// tag, then the slot and the row where the op has them.
    pub(crate) fn encode_binary(&self, out: &mut Vec<u8>) {
        let (tag, rid, row) = match self {
            SlotOp::Insert { rid, row } => (OP_INSERT, rid, Some(row)),
            SlotOp::Delete { rid } => (OP_DELETE, rid, None),
            SlotOp::Update { rid, row } => (OP_UPDATE, rid, Some(row)),
            SlotOp::Restore { rid, row } => (OP_RESTORE, rid, Some(row)),
            SlotOp::Truncate => return out.push(OP_TRUNCATE),
        };
        out.push(tag);
        codec::put_uvarint(out, *rid);
        if let Some(row) = row {
            codec::encode_row(row, out);
        }
    }

    /// Decode one op from a delta frame.
    pub(crate) fn decode_binary(r: &mut codec::Reader<'_>) -> Result<SlotOp> {
        Ok(match r.u8()? {
            OP_INSERT => SlotOp::Insert {
                rid: r.uvarint()?,
                row: codec::decode_row(r)?,
            },
            OP_DELETE => SlotOp::Delete { rid: r.uvarint()? },
            OP_UPDATE => SlotOp::Update {
                rid: r.uvarint()?,
                row: codec::decode_row(r)?,
            },
            OP_RESTORE => SlotOp::Restore {
                rid: r.uvarint()?,
                row: codec::decode_row(r)?,
            },
            OP_TRUNCATE => SlotOp::Truncate,
            tag => return Err(Error::Codec(format!("unknown slot-op tag {tag}"))),
        })
    }
}

/// Accumulated changes since the last snapshot image.
#[derive(Debug, Clone, Default)]
struct Journal {
    ops: Vec<SlotOp>,
    /// Structural change (index DDL) or op overflow: the next delta must
    /// carry a full image of this table instead of an op replay.
    full: bool,
}

/// What the next delta image must carry for a table.
#[derive(Debug)]
pub enum TableDirt<'a> {
    /// Untouched since the last image — omit from the delta.
    Clean,
    /// Replay these ops against the base to reproduce the live state.
    Ops(&'a [SlotOp]),
    /// Journal unavailable (tracking started after the base, structural
    /// change, or overflow): embed a full image.
    Full,
}

impl Table {
    /// Create an empty table. Builds the PK index automatically.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let pk_index = schema.has_pk().then(|| {
            let def = IndexDef {
                name: "__pk".into(),
                key_cols: schema.pk_indices().to_vec(),
                unique: true,
            };
            Index::new(def, &schema)
        });
        Table {
            name: name.into(),
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            pk_index,
            indexes: Vec::new(),
            journal: None,
            mirror: Mirror::default(),
        }
    }

    /// Binary snapshot encoding of the whole table: the schema, then the
    /// slots and indexes in the compact value codec, with row encoding
    /// borrowing the shared COW cells. The free-slot stack is serialized in order:
    /// recovery must reuse slots in exactly the pre-crash order for
    /// replay to assign identical row ids.
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        codec::put_str(out, &self.name);
        self.schema.encode_binary(out);
        codec::put_uvarint(out, self.slots.len() as u64);
        for slot in &self.slots {
            match slot {
                None => out.push(0),
                Some(row) => {
                    out.push(1);
                    codec::encode_row(row, out);
                }
            }
        }
        codec::put_uvarint(out, self.free.len() as u64);
        for &rid in &self.free {
            codec::put_uvarint(out, rid);
        }
        match &self.pk_index {
            None => out.push(0),
            Some(pk) => {
                out.push(1);
                pk.encode_binary(true, out);
            }
        }
        codec::put_uvarint(out, self.indexes.len() as u64);
        for ix in &self.indexes {
            ix.encode_binary(false, out);
        }
    }

    /// Decode a table encoded by [`Table::encode_binary`]. An image the
    /// mutators could not have produced is refused with [`Error::Codec`]
    /// rather than left to panic or corrupt later: every row must have the
    /// schema's arity and only cells its columns hold as they are (checked
    /// by [`Column::holds`](sstore_common::Column::holds), never coerced),
    /// the free list must name each empty slot exactly once, every index
    /// key column must lie inside the row, and an index the schema keys by
    /// integer must hold only integer keys.
    pub fn decode_binary(r: &mut codec::Reader<'_>) -> Result<Table> {
        let name = r.str()?.to_string();
        let bad = |what: String| Error::Codec(format!("{what} in table `{name}`"));
        let schema = Schema::decode_binary(r)?;
        let arity = schema.arity();
        let n_slots = r.uvarint()? as usize;
        let mut slots = Vec::with_capacity(n_slots.min(r.remaining()));
        let mut live = 0usize;
        for _ in 0..n_slots {
            match r.u8()? {
                0 => slots.push(None),
                1 => {
                    let row = codec::decode_row(r)?;
                    if row.len() != arity {
                        return Err(bad(format!("a row of {} cells", row.len())));
                    }
                    let mut cells = schema.columns().iter().zip(row.iter());
                    if let Some((col, v)) = cells.find(|(c, v)| !c.holds(v)) {
                        return Err(bad(format!("cell {v} in column `{}`", col.name)));
                    }
                    slots.push(Some(row));
                    live += 1;
                }
                tag => return Err(bad(format!("bad slot tag {tag}"))),
            }
        }
        let n_free = r.uvarint()? as usize;
        let mut free = Vec::with_capacity(n_free.min(r.remaining()));
        for _ in 0..n_free {
            free.push(r.uvarint()?);
        }
        let mut sorted = free.clone();
        sorted.sort_unstable();
        let empty = (0..n_slots as RowId).filter(|&rid| slots[rid as usize].is_none());
        if !sorted.into_iter().eq(empty) {
            return Err(bad("a free list that is not the empty slots".into()));
        }
        let pk_index = match r.u8()? {
            0 => None,
            1 => Some(Index::decode_binary(r, &schema)?),
            tag => return Err(bad(format!("bad pk-index tag {tag}"))),
        };
        let n_indexes = r.uvarint()? as usize;
        let mut indexes = Vec::with_capacity(n_indexes.min(r.remaining()));
        for _ in 0..n_indexes {
            indexes.push(Index::decode_binary(r, &schema)?);
        }
        let mut all = pk_index.iter().chain(&indexes);
        if let Some(ix) = all.find(|ix| ix.def.key_cols.iter().any(|&c| c >= arity)) {
            return Err(bad(format!(
                "index `{}` keying a missing column",
                ix.def.name
            )));
        }
        Ok(Table {
            name,
            schema,
            slots,
            free,
            live,
            pk_index,
            indexes,
            journal: None,
            mirror: Mirror::default(),
        })
    }

    /// Table schema (including any hidden columns).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Add a secondary index over `key_cols`; backfills from existing rows.
    pub fn create_index(&mut self, def: IndexDef) -> Result<()> {
        if def.name == "__pk" || self.indexes.iter().any(|ix| ix.def.name == def.name) {
            return Err(Error::AlreadyExists(format!("index `{}`", def.name)));
        }
        if def.key_cols.iter().any(|&c| c >= self.schema.arity()) {
            return Err(Error::NotFound(format!(
                "index `{}` references a column outside the schema",
                def.name
            )));
        }
        let mut ix = Index::new(def, &self.schema);
        for (rid, slot) in self.slots.iter().enumerate() {
            if let Some(row) = slot {
                let key = ix.key_ref(row);
                ix.insert(&key, rid as RowId)?;
            }
        }
        self.indexes.push(ix);
        // Structural change: an op replay against a base without this
        // index cannot reproduce it, so force a full image next delta.
        if let Some(j) = &mut self.journal {
            j.ops.clear();
            j.full = true;
        }
        Ok(())
    }

    /// Look up a secondary index by name.
    pub(crate) fn index(&self, name: &str) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.def.name == name)
    }

    /// All secondary indexes.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Validate and insert a row; returns its stable row id.
    pub fn insert(&mut self, row: impl Into<Row>) -> Result<RowId> {
        let row = self.schema.validate(row)?;
        let rid = match self.free.pop() {
            Some(r) => r,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as RowId
            }
        };
        if let Err(e) = self.index_insert(&row, rid) {
            // Slot was not filled yet; return it to the free list.
            self.free.push(rid);
            self.mirror.grow(self.slots.len());
            return Err(e);
        }
        if self.journal.is_some() {
            self.journal_record(SlotOp::Insert {
                rid,
                row: row.clone(),
            });
        }
        self.mirror.write(rid, &row);
        self.slots[rid as usize] = Some(row);
        self.live += 1;
        Ok(rid)
    }

    /// Delete by row id; returns the removed row (needed for undo).
    pub fn delete(&mut self, rid: RowId) -> Result<Row> {
        let row = self
            .slots
            .get_mut(rid as usize)
            .and_then(Option::take)
            .ok_or_else(|| Error::Internal(format!("delete of missing row {rid}")))?;
        self.index_remove(&row, rid)?;
        self.free.push(rid);
        self.live -= 1;
        self.mirror.free(rid);
        self.journal_record(SlotOp::Delete { rid });
        Ok(row)
    }

    /// Replace the row at `rid`; returns the previous row (for undo).
    /// The returned old image is a shared handle (refcount bump, no copy).
    /// Indexes are touched only when some key changes (`Value`'s `Eq` is
    /// the relation every index map follows), so bucket order stays put.
    pub fn update(&mut self, rid: RowId, new_row: impl Into<Row>) -> Result<Row> {
        let new_row = self.schema.validate(new_row)?;
        let old = self
            .slots
            .get(rid as usize)
            .and_then(|s| s.as_ref())
            .cloned()
            .ok_or_else(|| Error::Internal(format!("update of missing row {rid}")))?;
        let rekey = self
            .pk_index
            .iter()
            .chain(&self.indexes)
            .any(|ix| *ix.key_ref(&old) != *ix.key_ref(&new_row));
        if rekey {
            self.index_remove(&old, rid)?;
            if let Err(e) = self.index_insert(&new_row, rid) {
                // Roll the index change back so the table stays consistent.
                self.index_insert(&old, rid)
                    .expect("reinserting old index entries cannot fail");
                return Err(e);
            }
        }
        if self.journal.is_some() {
            self.journal_record(SlotOp::Update {
                rid,
                row: new_row.clone(),
            });
        }
        self.mirror.write(rid, &new_row);
        self.slots[rid as usize] = Some(new_row);
        Ok(old)
    }

    /// Reinsert a deleted row into its original slot (undo path), validated as `insert` does.
    pub fn restore(&mut self, rid: RowId, row: Row) -> Result<()> {
        match self.slots.get(rid as usize) {
            None => {
                return Err(Error::Internal(format!(
                    "restore to out-of-range slot {rid}"
                )))
            }
            Some(Some(_)) => {
                return Err(Error::Internal(format!("restore to occupied slot {rid}")))
            }
            Some(None) => {}
        }
        let row = self.schema.validate(row)?;
        self.index_insert(&row, rid)?;
        if self.journal.is_some() {
            self.journal_record(SlotOp::Restore {
                rid,
                row: row.clone(),
            });
        }
        self.mirror.write(rid, &row);
        self.slots[rid as usize] = Some(row);
        // Undo restores in reverse delete order, so the slot is the free
        // stack's top: searching from the back makes a bulk undo linear.
        if let Some(pos) = self.free.iter().rposition(|&f| f == rid) {
            self.free.swap_remove(pos);
        }
        self.live += 1;
        Ok(())
    }

    /// Fetch a row by id.
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.slots.get(rid as usize).and_then(|s| s.as_ref())
    }

    /// Row ids matching a primary-key value.
    pub fn pk_lookup(&self, key: &[Value]) -> Option<RowId> {
        self.pk_index.as_ref()?.get(key).first().copied()
    }

    /// Row ids matching a secondary-index key. Returns a borrowed slice
    /// into the index bucket — no per-lookup allocation; callers that need
    /// to mutate while iterating must copy explicitly.
    pub fn index_lookup(&self, index_name: &str, key: &[Value]) -> Result<&[RowId]> {
        let ix = self
            .index(index_name)
            .ok_or_else(|| Error::NotFound(format!("index `{index_name}`")))?;
        Ok(ix.get(key))
    }

    /// Iterate over (row id, row) for all live rows, in slot order.
    /// Slot order equals insertion order for append-only tables (streams),
    /// which the stream layer relies on.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i as RowId, r)))
    }

    /// Collect all live row ids (used by mutating scans that cannot hold a
    /// borrow across mutations).
    pub fn row_ids(&self) -> Vec<RowId> {
        self.scan().map(|(rid, _)| rid).collect()
    }

    /// Pivot the table's live rows into a columnar batch, in slot order
    /// (the same order `scan()` feeds the row interpreter). `needed`
    /// restricts which columns are materialized (`None` = all); pruned
    /// columns stay `None` in the batch so indices keep lining up with
    /// the schema.
    ///
    /// This is the cold pivot: every call walks every row. Vector scans
    /// read the resident [`Table::column`]s instead, whose live lanes
    /// hold the same cells (property-tested in `tests/prop_columns.rs`).
    pub fn column_batch(&self, needed: Option<&[usize]>) -> sstore_vector::ColumnBatch {
        sstore_vector::build_batch(
            &self.schema,
            self.live,
            needed,
            self.scan().map(|(_, r)| r.as_ref()),
        )
    }

    /// Column `c` of the resident mirror: one lane per slot ([`Table::lanes`]
    /// of them), lane *i* holding slot *i*'s cell and a default where the
    /// slot is free. Built from the slots on first use, then kept in step
    /// by every mutator.
    pub fn column(&self, c: usize) -> &sstore_vector::Column {
        let col = self.mirror.column(&self.schema, &self.slots, c);
        debug_assert_eq!(col.len(), self.slots.len(), "mirror out of step");
        col
    }

    /// Number of lanes in every mirrored column (live and free slots).
    pub fn lanes(&self) -> usize {
        self.slots.len()
    }

    /// One flag per lane, set where the slot holds a live row — the mask
    /// a vector scan starts from. `None` = every lane is live. Kept by the
    /// mirror, so only the first call on a table walks its slots.
    pub fn live_mask(&self) -> Option<&[bool]> {
        if self.free.is_empty() {
            return None;
        }
        let live = self.mirror.live(&self.slots);
        debug_assert_eq!(live.len(), self.slots.len(), "mirror out of step");
        Some(live)
    }

    /// How many columns the mirror currently holds (0 for a table no
    /// vector scan has read a column of).
    pub fn mirrored_columns(&self) -> usize {
        self.mirror.built()
    }

    /// Remove every row. Keeps indexes defined but empty.
    pub fn truncate(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        if let Some(pk) = &mut self.pk_index {
            pk.clear();
        }
        for ix in &mut self.indexes {
            ix.clear();
        }
        self.mirror.truncate(&self.schema);
        self.journal_record(SlotOp::Truncate);
    }

    /// Record one op in the change journal (no-op when tracking is off).
    /// `Truncate` supersedes everything before it; an op count well past
    /// the slot count means replay would cost more than a full image, so
    /// the journal gives up and flags the table full.
    fn journal_record(&mut self, op: SlotOp) {
        let cap = self.slots.len() + 64;
        if let Some(j) = &mut self.journal {
            if j.full {
                return;
            }
            if matches!(op, SlotOp::Truncate) {
                j.ops.clear();
            }
            j.ops.push(op);
            if j.ops.len() > cap {
                j.ops.clear();
                j.full = true;
            }
        }
    }

    /// Turn change tracking on (fresh journal) or off.
    pub fn set_journaling(&mut self, on: bool) {
        self.journal = if on { Some(Journal::default()) } else { None };
    }

    /// Reset the journal after a successful image write; tracking stays on.
    pub fn clear_journal(&mut self) {
        if let Some(j) = &mut self.journal {
            j.ops.clear();
            j.full = false;
        }
    }

    /// What the next delta image must carry for this table.
    pub fn dirt(&self) -> TableDirt<'_> {
        match &self.journal {
            // Tracking never started for this table (e.g. created after
            // the chain base): only a full image is safe.
            None => TableDirt::Full,
            Some(j) if j.full => TableDirt::Full,
            Some(j) if j.ops.is_empty() => TableDirt::Clean,
            Some(j) => TableDirt::Ops(&j.ops),
        }
    }

    /// Re-execute one journaled op during delta replay. Drives the normal
    /// mutators so derived structures (indexes, free list) evolve exactly
    /// as they did live; `Insert` asserts the slot choice matches the
    /// journaled one (any divergence means the base image is wrong).
    pub fn apply_slot_op(&mut self, op: &SlotOp) -> Result<()> {
        match op {
            SlotOp::Insert { rid, row } => {
                let got = self.insert(row.clone())?;
                if got != *rid {
                    return Err(Error::Codec(format!(
                        "delta replay slot divergence in `{}`: journaled rid {rid}, got {got}",
                        self.name
                    )));
                }
            }
            SlotOp::Delete { rid } => {
                self.delete(*rid)?;
            }
            SlotOp::Update { rid, row } => {
                self.update(*rid, row.clone())?;
            }
            SlotOp::Restore { rid, row } => self.restore(*rid, row.clone())?,
            SlotOp::Truncate => self.truncate(),
        }
        Ok(())
    }

    fn index_insert(&mut self, row: &Row, rid: RowId) -> Result<()> {
        if let Some(pk) = &mut self.pk_index {
            let key = pk.key_ref(row);
            pk.insert(&key, rid).map_err(|_| {
                Error::Constraint(format!(
                    "duplicate primary key {:?} in table `{}`",
                    self.schema
                        .pk_indices()
                        .iter()
                        .map(|&i| row[i].to_string())
                        .collect::<Vec<_>>(),
                    self.name
                ))
            })?;
        }
        for i in 0..self.indexes.len() {
            let key = self.indexes[i].key_ref(row);
            if let Err(e) = self.indexes[i].insert(&key, rid) {
                // Unwind the partial index inserts.
                for j in 0..i {
                    let key = self.indexes[j].key_ref(row);
                    self.indexes[j]
                        .remove(&key, rid)
                        .expect("unwinding fresh index insert cannot fail");
                }
                if let Some(pk) = &mut self.pk_index {
                    let key = pk.key_ref(row);
                    pk.remove(&key, rid)
                        .expect("unwinding fresh pk insert cannot fail");
                }
                return Err(e);
            }
        }
        Ok(())
    }

    fn index_remove(&mut self, row: &Row, rid: RowId) -> Result<()> {
        if let Some(pk) = &mut self.pk_index {
            let key = pk.key_ref(row);
            pk.remove(&key, rid)?;
        }
        for ix in &mut self.indexes {
            let key = ix.key_ref(row);
            ix.remove(&key, rid)?;
        }
        Ok(())
    }

    /// Approximate memory footprint in bytes (rows, their column mirror
    /// and the indexes; used by the GC experiment E7 to show bounded
    /// memory on unbounded streams).
    pub(crate) fn approx_bytes(&self) -> usize {
        let mut total = self.slots.capacity() * std::mem::size_of::<Option<Row>>()
            + self.mirror.heap_bytes()
            + self
                .pk_index
                .iter()
                .chain(&self.indexes)
                .map(Index::heap_bytes)
                .sum::<usize>();
        for row in self.slots.iter().flatten() {
            total += row.len() * std::mem::size_of::<Value>();
            for v in row {
                if let Value::Text(s) = v {
                    total += s.capacity();
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{Column, DataType};

    fn table() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
            ],
            &["id"],
        )
        .unwrap();
        Table::new("t", schema)
    }

    fn row(id: i64, name: &str) -> Row {
        vec![Value::Int(id), Value::Text(name.into())].into()
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut t = table();
        let rid = t.insert(row(1, "a")).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(rid).unwrap()[1], Value::Text("a".into()));
        let deleted = t.delete(rid).unwrap();
        assert_eq!(deleted[0], Value::Int(1));
        assert!(t.get(rid).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut t = table();
        t.insert(row(1, "a")).unwrap();
        let err = t.insert(row(1, "b")).unwrap_err();
        assert_eq!(err.kind(), "constraint");
        // Failed insert must not leak a slot or index entry.
        assert_eq!(t.len(), 1);
        t.insert(row(2, "b")).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pk_lookup_finds_rows() {
        let mut t = table();
        let rid = t.insert(row(5, "x")).unwrap();
        assert_eq!(t.pk_lookup(&[Value::Int(5)]), Some(rid));
        assert_eq!(t.pk_lookup(&[Value::Int(6)]), None);
    }

    /// An INT pk and a TIMESTAMP index store bare integers, yet every probe
    /// cell finds exactly the rows a full scan finds under `Value`
    /// equality: an `Int`, `Timestamp` or integral `Float` its integer, and
    /// `-0.0`, a fractional `Float`, NULL, Text and Bool nothing.
    #[test]
    fn int_pk_probes_match_a_full_scan() {
        let schema = Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("at", DataType::Timestamp),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new("t", schema);
        t.create_index(IndexDef {
            name: "by_at".into(),
            key_cols: vec![1],
            unique: false,
        })
        .unwrap();
        const EDGE: i64 = 1 << 53;
        for k in [0, 1, 2, -2, 7, EDGE, -EDGE, EDGE - 1] {
            t.insert(vec![Value::Int(k), Value::Timestamp(k)]).unwrap();
        }
        let probes = [
            Value::Int(2),
            Value::Int(3),
            Value::Timestamp(7),
            Value::Float(2.0),
            Value::Float(-2.0),
            Value::Float(EDGE as f64),
            Value::Float(-(EDGE as f64)),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Null,
            Value::Text("2".into()),
            Value::Bool(true),
        ];
        for probe in probes {
            let scan = |c: usize| -> Vec<RowId> {
                t.scan()
                    .filter(|(_, r)| r[c] == probe)
                    .map(|(rid, _)| rid)
                    .collect()
            };
            let key = [probe.clone()];
            assert_eq!(t.pk_lookup(&key).into_iter().collect::<Vec<_>>(), scan(0));
            assert_eq!(t.index_lookup("by_at", &key).unwrap(), scan(1));
        }
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = table();
        let rid = t.insert(row(1, "a")).unwrap();
        let old = t.update(rid, row(2, "b")).unwrap();
        assert_eq!(old[0], Value::Int(1));
        assert_eq!(t.pk_lookup(&[Value::Int(1)]), None);
        assert_eq!(t.pk_lookup(&[Value::Int(2)]), Some(rid));
    }

    #[test]
    fn update_pk_collision_rolls_back() {
        let mut t = table();
        let r1 = t.insert(row(1, "a")).unwrap();
        t.insert(row(2, "b")).unwrap();
        let err = t.update(r1, row(2, "dup")).unwrap_err();
        assert_eq!(err.kind(), "constraint");
        // Old entry must still be findable.
        assert_eq!(t.pk_lookup(&[Value::Int(1)]), Some(r1));
        assert_eq!(t.get(r1).unwrap()[1], Value::Text("a".into()));
    }

    /// `t` plus a non-unique index on `name`, holding rows 1..=4 where
    /// rows 1, 2 and 4 share the name "a".
    fn indexed_table() -> Table {
        let mut t = table();
        t.create_index(IndexDef {
            name: "by_name".into(),
            key_cols: vec![1],
            unique: false,
        })
        .unwrap();
        for (id, name) in [(1, "a"), (2, "a"), (3, "b"), (4, "a")] {
            t.insert(row(id, name)).unwrap();
        }
        t
    }

    #[test]
    fn key_stable_update_keeps_bucket_order_and_raises_no_conflict() {
        let mut t = indexed_table();
        let a = [Value::Text("a".into())];
        assert_eq!(t.index_lookup("by_name", &a).unwrap(), &[0, 1, 3]);
        // Same pk, same name: a re-keying update would move rid 0 to the
        // bucket's tail; a key-stable one leaves it where it is.
        let old = t.update(0, row(1, "a")).unwrap();
        assert_eq!(old, row(1, "a"));
        assert_eq!(t.index_lookup("by_name", &a).unwrap(), &[0, 1, 3]);
        assert_eq!(t.pk_lookup(&[Value::Int(1)]), Some(0));
        // Updating a unique key to itself is no conflict either.
        t.update(2, row(3, "b")).unwrap();
        assert_eq!(t.pk_lookup(&[Value::Int(3)]), Some(2));
    }

    #[test]
    fn key_changing_update_moves_entry_and_unique_violation_rolls_back() {
        let mut t = indexed_table();
        let a = [Value::Text("a".into())];
        let b = [Value::Text("b".into())];
        t.update(0, row(1, "b")).unwrap();
        assert_eq!(t.index_lookup("by_name", &a).unwrap(), &[3, 1]);
        assert_eq!(t.index_lookup("by_name", &b).unwrap(), &[2, 0]);
        // A pk collision leaves every index as it was.
        let err = t.update(1, row(3, "c")).unwrap_err();
        assert_eq!(err.kind(), "constraint");
        assert_eq!(t.get(1).unwrap(), &row(2, "a"));
        assert_eq!(t.pk_lookup(&[Value::Int(2)]), Some(1));
        assert_eq!(t.pk_lookup(&[Value::Int(3)]), Some(2));
        assert!(t
            .index_lookup("by_name", &[Value::Text("c".into())])
            .unwrap()
            .is_empty());
        assert_eq!(t.index_lookup("by_name", &a).unwrap(), &[3, 1]);
    }

    #[test]
    fn restore_reuses_slot() {
        let mut t = table();
        let rid = t.insert(row(1, "a")).unwrap();
        let old = t.delete(rid).unwrap();
        t.restore(rid, old).unwrap();
        assert_eq!(t.pk_lookup(&[Value::Int(1)]), Some(rid));
        assert_eq!(t.len(), 1);
        // Restoring into an occupied slot is an internal error.
        assert!(t.restore(rid, row(9, "z")).is_err());
    }

    #[test]
    fn slots_are_reused_after_delete() {
        let mut t = table();
        let r1 = t.insert(row(1, "a")).unwrap();
        t.delete(r1).unwrap();
        let r2 = t.insert(row(2, "b")).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn secondary_index_backfill_and_lookup() {
        let mut t = table();
        t.insert(row(1, "a")).unwrap();
        t.insert(row(2, "a")).unwrap();
        t.create_index(IndexDef {
            name: "by_name".into(),
            key_cols: vec![1],
            unique: false,
        })
        .unwrap();
        let rids = t
            .index_lookup("by_name", &[Value::Text("a".into())])
            .unwrap();
        assert_eq!(rids.len(), 2);
        t.insert(row(3, "b")).unwrap();
        let rids = t
            .index_lookup("by_name", &[Value::Text("b".into())])
            .unwrap();
        assert_eq!(rids.len(), 1);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = table();
        let def = IndexDef {
            name: "ix".into(),
            key_cols: vec![1],
            unique: false,
        };
        t.create_index(def.clone()).unwrap();
        assert!(t.create_index(def).is_err());
    }

    #[test]
    fn scan_in_slot_order() {
        let mut t = table();
        t.insert(row(3, "c")).unwrap();
        t.insert(row(1, "a")).unwrap();
        let ids: Vec<i64> = t.scan().map(|(_, r)| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![3, 1]);
    }

    #[test]
    fn truncate_clears_everything() {
        let mut t = table();
        t.insert(row(1, "a")).unwrap();
        t.truncate();
        assert!(t.is_empty());
        assert_eq!(t.pk_lookup(&[Value::Int(1)]), None);
        // And the table remains usable.
        t.insert(row(1, "a")).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn validation_rejects_bad_rows() {
        let mut t = table();
        assert!(t.insert(vec![Value::Int(1)]).is_err()); // arity
        assert!(t
            .insert(vec![Value::Text("x".into()), Value::Text("y".into())])
            .is_err()); // type
    }

    #[test]
    fn approx_bytes_grows() {
        let mut t = table();
        let before = t.approx_bytes();
        for i in 0..100 {
            t.insert(row(i, "some name")).unwrap();
        }
        assert!(t.approx_bytes() > before);
    }

    #[test]
    fn approx_bytes_counts_index_entries_per_row() {
        let cols = || {
            vec![
                Column::new("id", DataType::Int),
                Column::new("phone", DataType::Int),
            ]
        };
        let mut keyed = Table::new("keyed", Schema::new(cols(), &["id"]).unwrap());
        keyed
            .create_index(IndexDef {
                name: "by_phone".into(),
                key_cols: vec![1],
                unique: false,
            })
            .unwrap();
        let mut bare = Table::new("bare", Schema::new(cols(), &[]).unwrap());
        const ROWS: i64 = 10_000;
        for i in 0..ROWS {
            // Near-unique: every 100th phone repeats the one before it.
            let r: Row = vec![Value::Int(i), Value::Int(i - (i % 100 == 1) as i64)].into();
            keyed.insert(r.clone()).unwrap();
            bare.insert(r).unwrap();
        }
        // Two integer-keyed 24 B entries per row, each map's spare
        // capacity (14 336 slots for 10 000 rows: 68.8 B), and 100 spilled
        // buckets: 69.2 B. A 32 B entry would read 91.7 B, a 40 B
        // cell-keyed one 114.7 B and the former 48 B one 137.6 B.
        let index_bytes = keyed.approx_bytes() - bare.approx_bytes();
        let per_row = index_bytes as f64 / ROWS as f64;
        assert!((64.0..=76.0).contains(&per_row), "{per_row} B/row");
    }

    #[test]
    fn mirror_follows_mutators_and_counts_in_approx_bytes() {
        let mut t = table();
        for i in 0..100 {
            t.insert(row(i, "some name")).unwrap();
        }
        assert_eq!(t.mirrored_columns(), 0);
        let rows_only = t.approx_bytes();
        assert_eq!(t.column(1).len(), 100);
        assert_eq!(t.mirrored_columns(), 1);
        fn lane(t: &Table) -> &sstore_vector::TextLane {
            match &t.column(1).data {
                sstore_vector::ColumnData::Text(l) => l,
                other => panic!("not a TEXT lane: {other:?}"),
            }
        }
        // 100 cells of one string: their 4 B codes and one dictionary
        // entry, on top of the rows; a lane of `String`s would hold
        // 100 × (24 + 9) B.
        assert_eq!(lane(&t).dict().len(), 1);
        let mirror = t.approx_bytes() - rows_only;
        assert!((100 * 4..100 * 4 + 256).contains(&mirror), "{mirror} B");
        assert!(t.live_mask().is_none());

        // Row 3's new string is unique, so replacing it releases its
        // entry, and the next new string takes its code.
        t.update(3, row(3, "renamed")).unwrap();
        let renamed = lane(&t).codes()[3];
        t.update(3, row(3, "again")).unwrap();
        assert_eq!(lane(&t).dict().len(), 2);
        t.update(4, row(4, "third")).unwrap();
        assert_eq!(lane(&t).codes()[4], renamed);
        // A freed lane releases its string the same way. It holds the
        // empty string, interned first under a fresh code; restoring the
        // row takes "third"'s released code again.
        let gone = t.delete(4).unwrap();
        assert_eq!(t.column(1).value_at(4), Value::Text(String::new()));
        assert!(!t.live_mask().unwrap()[4]);
        assert_eq!(lane(&t).dict().len(), 3);
        t.restore(4, gone).unwrap();
        assert_eq!(lane(&t).codes()[4], renamed);
        assert_eq!(t.column(1).value_at(4), Value::Text("third".into()));
        assert_eq!(t.column(1).value_at(3), Value::Text("again".into()));
        assert_eq!(lane(&t).dict().len(), 3);
        // A failed insert into the full slot array leaves a free lane.
        assert!(t.insert(row(7, "dup")).is_err());
        assert_eq!(t.column(1).len(), t.lanes());
        let live = t.live_mask().unwrap();
        assert_eq!(live.len(), t.lanes());
        assert_eq!(live.iter().filter(|&&l| l).count(), 100);

        t.truncate();
        assert_eq!((t.lanes(), t.column(1).len()), (0, 0));
        // Still mirrored, a copy is not.
        assert_eq!(t.mirrored_columns(), 1);
        assert_eq!(t.clone().mirrored_columns(), 0);
    }

    #[test]
    fn journal_replay_reproduces_state() {
        let mut base = table();
        base.insert(row(1, "a")).unwrap();
        base.insert(row(2, "b")).unwrap();
        let mut live = base.clone();
        live.set_journaling(true);
        let r3 = live.insert(row(3, "c")).unwrap();
        live.delete(live.pk_lookup(&[Value::Int(1)]).unwrap())
            .unwrap();
        live.update(r3, row(3, "c2")).unwrap();
        let r4 = live.insert(row(4, "d")).unwrap();
        let gone = live.delete(r4).unwrap();
        live.restore(r4, gone).unwrap();
        let ops: Vec<SlotOp> = match live.dirt() {
            TableDirt::Ops(ops) => ops.to_vec(),
            other => panic!("expected ops, got {other:?}"),
        };
        for op in &ops {
            base.apply_slot_op(op).unwrap();
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        base.encode_binary(&mut a);
        live.encode_binary(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn journal_truncate_supersedes_prior_ops() {
        let mut t = table();
        t.set_journaling(true);
        for i in 0..10 {
            t.insert(row(i, "x")).unwrap();
        }
        t.truncate();
        t.insert(row(99, "y")).unwrap();
        match t.dirt() {
            TableDirt::Ops(ops) => {
                assert_eq!(ops.len(), 2);
                assert!(matches!(ops[0], SlotOp::Truncate));
            }
            other => panic!("expected ops, got {other:?}"),
        }
    }

    #[test]
    fn journal_overflow_and_ddl_force_full() {
        let mut t = table();
        t.set_journaling(true);
        // Far more ops than live slots: delete/insert churn on one key.
        for i in 0..200 {
            let rid = t.insert(row(1, "a")).unwrap();
            if i < 199 {
                t.delete(rid).unwrap();
            }
        }
        assert!(matches!(t.dirt(), TableDirt::Full));
        t.clear_journal();
        assert!(matches!(t.dirt(), TableDirt::Clean));
        t.create_index(IndexDef {
            name: "ix".into(),
            key_cols: vec![1],
            unique: false,
        })
        .unwrap();
        assert!(matches!(t.dirt(), TableDirt::Full));
    }

    #[test]
    fn slot_op_codec_roundtrip() {
        let ops = vec![
            SlotOp::Insert {
                rid: 7,
                row: row(1, "a"),
            },
            SlotOp::Delete { rid: 7 },
            SlotOp::Update {
                rid: 3,
                row: row(2, "b"),
            },
            SlotOp::Restore {
                rid: 0,
                row: row(3, "c"),
            },
            SlotOp::Truncate,
        ];
        let mut buf = Vec::new();
        for op in &ops {
            op.encode_binary(&mut buf);
        }
        let mut r = codec::Reader::new(&buf);
        for op in &ops {
            assert_eq!(*op, SlotOp::decode_binary(&mut r).unwrap());
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn journal_not_serialized() {
        let mut t = table();
        t.set_journaling(true);
        t.insert(row(1, "a")).unwrap();
        let mut image = Vec::new();
        t.encode_binary(&mut image);
        let back = Table::decode_binary(&mut codec::Reader::new(&image)).unwrap();
        assert!(back.journal.is_none());
        assert_eq!(back.len(), 1);
    }

    /// A table image of `table()`'s schema assembled field by field in
    /// `encode_binary`'s layout: the slots, the free list, and a pk index
    /// over `pk_cols` holding one row id under each key in `pk_keys`.
    fn image(
        slots: &[Option<Row>],
        free: &[RowId],
        pk_cols: &[usize],
        pk_keys: &[(&[Value], RowId)],
    ) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_str(&mut out, "t");
        table().schema.encode_binary(&mut out);
        codec::put_uvarint(&mut out, slots.len() as u64);
        for slot in slots {
            match slot {
                None => out.push(0),
                Some(row) => {
                    out.push(1);
                    codec::encode_row(row, &mut out);
                }
            }
        }
        codec::put_uvarint(&mut out, free.len() as u64);
        for &rid in free {
            codec::put_uvarint(&mut out, rid);
        }
        out.push(1); // pk index present
        codec::put_str(&mut out, "__pk");
        codec::put_uvarint(&mut out, pk_cols.len() as u64);
        for &c in pk_cols {
            codec::put_uvarint(&mut out, c as u64);
        }
        out.extend([1, 1]); // unique, and the former B-tree flag
        codec::put_uvarint(&mut out, pk_keys.len() as u64);
        for &(key, rid) in pk_keys {
            codec::put_uvarint(&mut out, key.len() as u64);
            for v in key {
                codec::encode_value(v, &mut out);
            }
            codec::put_uvarint(&mut out, 1);
            codec::put_uvarint(&mut out, rid);
        }
        codec::put_uvarint(&mut out, 0); // secondary indexes
        out
    }

    fn decode(bytes: &[u8]) -> Result<Table> {
        Table::decode_binary(&mut codec::Reader::new(bytes))
    }

    /// Images the mutators could never write decode to a codec error, not
    /// to a table that panics or corrupts itself on its next use.
    #[test]
    fn inconsistent_images_are_refused_at_decode() {
        let a = Some(row(1, "a"));

        // The consistent baseline decodes and accepts an insert.
        let mut ok = decode(&image(&[a.clone(), None], &[1], &[0], &[])).unwrap();
        ok.insert(row(2, "b")).unwrap();
        assert_eq!(ok.len(), 2);

        let refused = [
            // A free id past the slot vector (the next insert would index
            // out of bounds).
            image(&[a.clone(), None], &[7], &[0], &[]),
            // A free id naming a live slot (the next insert would
            // overwrite it), and one listed twice.
            image(&[a.clone(), None], &[0], &[0], &[]),
            image(&[None, None], &[1, 1], &[0], &[]),
            // An empty slot the free list does not name.
            image(&[a.clone(), None], &[], &[0], &[]),
            // A row narrower than the schema.
            image(&[Some(vec![Value::Int(1)].into())], &[], &[0], &[]),
            // An index keyed on a column the rows do not have.
            image(&[a], &[], &[2], &[]),
        ];
        for bytes in refused {
            let err = decode(&bytes).unwrap_err();
            assert_eq!(err.kind(), "codec", "{err}");
        }

        // A cell its column does not hold as it is: a TEXT in the INT
        // column, and a NULL in the NOT NULL one. Refused, not coerced,
        // with the table and the column named.
        let misfits = [
            (vec![Value::Text("1".into()), Value::Text("a".into())], "id"),
            (vec![Value::Int(1), Value::Null], "name"),
        ];
        for (cells, col) in misfits {
            let err = decode(&image(&[Some(cells.into())], &[], &[0], &[])).unwrap_err();
            assert_eq!(err.kind(), "codec", "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("column `{col}` in table `t`")),
                "{msg}"
            );
        }
    }

    /// An index on one NOT NULL INT column stores bare integers, so an
    /// image whose entries for it hold anything but one integer cell is
    /// refused at decode rather than surfacing as a failed lookup later.
    #[test]
    fn integer_index_with_non_integer_key_is_refused() {
        use Value::{Bool, Float, Int, Null, Text};
        let slots = [Some(row(1, "a"))];
        let good = image(&slots, &[], &[0], &[(&[Int(1)], 0)]);
        let t = decode(&good).unwrap();
        assert_eq!(t.pk_lookup(&[Int(1)]), Some(0));
        let mut again = Vec::new();
        t.encode_binary(&mut again);
        assert_eq!(again, good);

        let bad_keys: [&[Value]; 7] = [
            &[Text("1".into())],
            &[Float(1.0)],
            &[Float(1.5)],
            &[Null],
            &[Bool(true)],
            &[Int(1), Int(2)],
            &[],
        ];
        for key in bad_keys {
            let err = decode(&image(&slots, &[], &[0], &[(key, 0)])).unwrap_err();
            assert_eq!(err.kind(), "codec", "{key:?}: {err}");
        }
        // A pk on the TEXT column keeps cell keys, loaded verbatim.
        let cells = image(&slots, &[], &[1], &[(&[Float(1.0)], 0)]);
        assert!(decode(&cells).is_ok());
    }

    /// A table with an INT pk, a TIMESTAMP-keyed index and a near-unique
    /// INT index with spilled buckets, after inserts, a delete, a re-keying
    /// update and a slot reuse.
    fn narrowed_table() -> Table {
        let schema = Schema::new(
            vec![
                Column::new("id", DataType::Int),
                Column::new("at", DataType::Timestamp),
                Column::new("phone", DataType::Int),
                Column::nullable("note", DataType::Text),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new("votes", schema);
        for (name, col) in [("by_at", 1), ("by_phone", 2)] {
            t.create_index(IndexDef {
                name: name.into(),
                key_cols: vec![col],
                unique: false,
            })
            .unwrap();
        }
        let r = |id: i64, at: i64, phone: i64| -> Row {
            vec![
                Value::Int(id),
                Value::Timestamp(at),
                Value::Int(phone),
                Value::Null,
            ]
            .into()
        };
        // Ids out of order and negative, so the encoder's sort shows; every
        // third phone repeats the one before it, so by_phone spills buckets.
        let ids = [40i64, -3, 7, 1 << 40, 12, 0, 99, -250, 5, 31];
        for (i, id) in ids.into_iter().enumerate() {
            let i = i as i64;
            let phone = 5_550_000 + i - (i % 3 == 2) as i64;
            t.insert(r(id, 1_000 * (i % 4), phone)).unwrap();
        }
        t.delete(2).unwrap();
        t.update(4, r(13, 9_000, 5_550_001)).unwrap();
        t.insert(r(-1, 0, 5_550_008)).unwrap();
        t
    }

    /// `narrowed_table()` encoded by the layout before integer keys, whose
    /// pk was a B-tree of cells: the on-disk bytes must not change.
    const NARROWED_GOLDEN: &[u8] = &[
        5, 118, 111, 116, 101, 115, 4, 2, 105, 100, 0, 0, 2, 97, 116, 4, 0, 5, 112, 104, 111, 110,
        101, 0, 0, 4, 110, 111, 116, 101, 2, 1, 1, 0, 10, 1, 4, 1, 80, 6, 0, 1, 224, 190, 165, 5,
        0, 1, 4, 1, 5, 6, 208, 15, 1, 226, 190, 165, 5, 0, 1, 4, 1, 1, 6, 0, 1, 240, 190, 165, 5,
        0, 1, 4, 1, 128, 128, 128, 128, 128, 64, 6, 240, 46, 1, 230, 190, 165, 5, 0, 1, 4, 1, 26,
        6, 208, 140, 1, 1, 226, 190, 165, 5, 0, 1, 4, 1, 0, 6, 208, 15, 1, 232, 190, 165, 5, 0, 1,
        4, 1, 198, 1, 6, 160, 31, 1, 236, 190, 165, 5, 0, 1, 4, 1, 243, 3, 6, 240, 46, 1, 238, 190,
        165, 5, 0, 1, 4, 1, 10, 6, 0, 1, 238, 190, 165, 5, 0, 1, 4, 1, 62, 6, 208, 15, 1, 242, 190,
        165, 5, 0, 0, 1, 4, 95, 95, 112, 107, 1, 0, 1, 1, 10, 1, 1, 243, 3, 1, 7, 1, 1, 5, 1, 1, 1,
        1, 1, 1, 2, 1, 1, 0, 1, 5, 1, 1, 10, 1, 8, 1, 1, 26, 1, 4, 1, 1, 62, 1, 9, 1, 1, 80, 1, 0,
        1, 1, 198, 1, 1, 6, 1, 1, 128, 128, 128, 128, 128, 64, 1, 3, 2, 5, 98, 121, 95, 97, 116, 1,
        1, 0, 0, 5, 1, 6, 0, 3, 0, 8, 2, 1, 6, 208, 15, 3, 1, 5, 9, 1, 6, 160, 31, 1, 6, 1, 6, 240,
        46, 2, 3, 7, 1, 6, 208, 140, 1, 1, 4, 8, 98, 121, 95, 112, 104, 111, 110, 101, 1, 2, 0, 0,
        8, 1, 1, 224, 190, 165, 5, 1, 0, 1, 1, 226, 190, 165, 5, 2, 1, 4, 1, 1, 230, 190, 165, 5,
        1, 3, 1, 1, 232, 190, 165, 5, 1, 5, 1, 1, 236, 190, 165, 5, 1, 6, 1, 1, 238, 190, 165, 5,
        2, 7, 8, 1, 1, 240, 190, 165, 5, 1, 2, 1, 1, 242, 190, 165, 5, 1, 9,
    ];

    #[test]
    fn narrowed_index_encoding_matches_golden_bytes_and_round_trips() {
        let mut out = Vec::new();
        narrowed_table().encode_binary(&mut out);
        assert_eq!(out, NARROWED_GOLDEN);
        let back = decode(&out).unwrap();
        let mut again = Vec::new();
        back.encode_binary(&mut again);
        assert_eq!(again, NARROWED_GOLDEN);
        // The decoded indexes answer like the live ones.
        assert_eq!(back.pk_lookup(&[Value::Int(1 << 40)]), Some(3));
        assert_eq!(back.pk_lookup(&[Value::Int(7)]), None);
        let at = |t: i64| back.index_lookup("by_at", &[Value::Timestamp(t)]).unwrap();
        assert_eq!(at(0), &[0, 8, 2]);
        assert_eq!(at(9_000), &[4]);
        let phone = |p: i64| back.index_lookup("by_phone", &[Value::Int(p)]).unwrap();
        assert_eq!(phone(5_550_001), &[1, 4]);
        assert_eq!(phone(5_550_007), &[7, 8]);
    }
}
