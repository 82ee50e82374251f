//! Secondary indexes: hash (point lookups) and ordered (range scans).
//!
//! Both index kinds map a key (one or more cells, composite keys
//! supported) to the row ids holding it; unique indexes additionally
//! reject duplicate keys at insert time. Lookups, inserts and removals
//! take the key as a borrowed `&[Value]`.
//!
//! An entry is stored compactly. A one-cell key sits inline in the map
//! (only a composite key is boxed), and so does a bucket of one row id (a
//! second id spills the bucket into a vector). Every entry of a one-column
//! primary key, and nearly every entry of a near-unique secondary index,
//! therefore costs no heap block of its own beyond a Text key's string.

use serde::{Deserialize, Serialize};
use sstore_common::{codec, Error, Result, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{btree_map, hash_map, BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Bound;

/// Stable identifier of a row slot within one table.
///
/// Row ids are never reused while a transaction that might undo is in
/// flight, and undo restores a deleted row into its original slot, so the
/// pair (table, row id) is a stable address for the lifetime of an undo log.
pub type RowId = u64;

/// Definition of a secondary index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexDef {
    /// Index name, unique within its table.
    pub name: String,
    /// Column positions forming the key, in key order.
    pub key_cols: Vec<usize>,
    /// Reject duplicate keys when true.
    pub unique: bool,
    /// Ordered (B-tree) index supporting range scans when true; hash
    /// otherwise.
    pub ordered: bool,
}

/// A stored key: one cell inline, or a boxed composite. Hash, equality and
/// order are those of the `[Value]` slice it stands for, which is the
/// `Borrow` contract that lets both maps be probed with a `&[Value]`.
#[derive(Debug, Clone)]
enum IndexKey {
    One(Value),
    Many(Box<[Value]>),
}

impl IndexKey {
    /// Owned copy of a borrowed key; allocates only for a composite key or
    /// a Text cell.
    fn of(key: &[Value]) -> IndexKey {
        match key {
            [v] => IndexKey::One(v.clone()),
            _ => IndexKey::Many(key.into()),
        }
    }

    fn from_vec(key: Vec<Value>) -> IndexKey {
        match <[Value; 1]>::try_from(key) {
            Ok([v]) => IndexKey::One(v),
            Err(key) => IndexKey::Many(key.into_boxed_slice()),
        }
    }

    fn as_slice(&self) -> &[Value] {
        match self {
            IndexKey::One(v) => std::slice::from_ref(v),
            IndexKey::Many(vs) => vs,
        }
    }

    fn heap_bytes(&self) -> usize {
        let text = |v: &Value| match v {
            Value::Text(s) => s.capacity(),
            _ => 0,
        };
        match self {
            IndexKey::One(v) => text(v),
            IndexKey::Many(vs) => {
                std::mem::size_of_val::<[Value]>(vs) + vs.iter().map(text).sum::<usize>()
            }
        }
    }
}

impl Borrow<[Value]> for IndexKey {
    fn borrow(&self) -> &[Value] {
        self.as_slice()
    }
}

// `One`/`One` skips the slice loop; comparing the one-cell slices would
// give the same answer. Sequential inserts compare against every key on
// the B-tree's right spine, so this is the insert path's inner loop.
impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (IndexKey::One(a), IndexKey::One(b)) => a == b,
            _ => self.as_slice() == other.as_slice(),
        }
    }
}
impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (IndexKey::One(a), IndexKey::One(b)) => a.cmp(b),
            _ => self.as_slice().cmp(other.as_slice()),
        }
    }
}

impl Hash for IndexKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

/// The row ids under one key: one inline, or a vector once a second id
/// arrives. The vector is kept until it drains, when the entry is removed.
#[derive(Debug, Clone)]
enum RowIds {
    One(RowId),
    Many(Vec<RowId>),
}

impl RowIds {
    fn from_vec(ids: Vec<RowId>) -> RowIds {
        match ids[..] {
            [rid] => RowIds::One(rid),
            _ => RowIds::Many(ids),
        }
    }

    fn as_slice(&self) -> &[RowId] {
        match self {
            RowIds::One(rid) => std::slice::from_ref(rid),
            RowIds::Many(ids) => ids,
        }
    }

    fn push(&mut self, rid: RowId) {
        match self {
            RowIds::One(first) => *self = RowIds::Many(vec![*first, rid]),
            RowIds::Many(ids) => ids.push(rid),
        }
    }

    /// Remove `rid`, searching from the tail and swap-removing it.
    /// `None` when absent, else whether the bucket is now empty.
    fn remove(&mut self, rid: RowId) -> Option<bool> {
        match self {
            RowIds::One(only) => (*only == rid).then_some(true),
            RowIds::Many(ids) => {
                let pos = ids.iter().rposition(|&r| r == rid)?;
                ids.swap_remove(pos);
                Some(ids.is_empty())
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            RowIds::One(_) => 0,
            RowIds::Many(ids) => ids.capacity() * std::mem::size_of::<RowId>(),
        }
    }
}

/// The index structure itself.
#[derive(Debug, Clone)]
enum IndexStore {
    /// Hash index: key -> row ids.
    Hash(HashMap<IndexKey, RowIds>),
    /// Ordered index: key -> row ids, range-scannable.
    Ordered(BTreeMap<IndexKey, RowIds>),
}

impl IndexStore {
    fn new(ordered: bool, entries: impl Iterator<Item = (IndexKey, RowIds)>) -> IndexStore {
        if ordered {
            IndexStore::Ordered(entries.collect())
        } else {
            IndexStore::Hash(entries.collect())
        }
    }
}

/// A live secondary index: definition plus data.
///
/// Serialized as `(def, entries)` pairs because JSON object keys must be
/// strings; rebuilt into the hash/btree form on deserialization.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(into = "IndexSerde", try_from = "IndexSerde")]
pub struct Index {
    /// The definition this index was created from.
    pub def: IndexDef,
    store: IndexStore,
}

/// Serde mirror of [`Index`]: entry list instead of a map.
#[derive(Serialize, Deserialize)]
struct IndexSerde {
    def: IndexDef,
    entries: Vec<(Vec<Value>, Vec<RowId>)>,
}

impl From<Index> for IndexSerde {
    fn from(ix: Index) -> Self {
        let entry =
            |(key, ids): (&IndexKey, &RowIds)| (key.as_slice().to_vec(), ids.as_slice().to_vec());
        let entries = match &ix.store {
            IndexStore::Hash(m) => m.iter().map(entry).collect(),
            IndexStore::Ordered(m) => m.iter().map(entry).collect(),
        };
        IndexSerde {
            def: ix.def,
            entries,
        }
    }
}

impl TryFrom<IndexSerde> for Index {
    type Error = String;
    fn try_from(s: IndexSerde) -> std::result::Result<Self, String> {
        let entries = s
            .entries
            .into_iter()
            .map(|(key, ids)| (IndexKey::from_vec(key), RowIds::from_vec(ids)));
        let store = IndexStore::new(s.def.ordered, entries);
        Ok(Index { def: s.def, store })
    }
}

/// A probe key for index lookups: borrowed straight out of a row when the
/// key columns form a contiguous run (the common single-column case), owned
/// only when a composite key has to be gathered from scattered columns.
/// Both index kinds accept `&[Value]`, so probing with a borrowed key never
/// allocates.
#[derive(Debug)]
pub enum KeyRef<'a> {
    /// Key cells borrowed from the row.
    Borrowed(&'a [Value]),
    /// Key cells gathered into a fresh vector (non-contiguous composite).
    Owned(Vec<Value>),
}

impl std::ops::Deref for KeyRef<'_> {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        match self {
            KeyRef::Borrowed(s) => s,
            KeyRef::Owned(v) => v,
        }
    }
}

impl Index {
    /// Binary snapshot encoding: the definition followed by the entries,
    /// all in the compact binary codec.
    /// Hash-index entries are sorted by key so the encoding is
    /// deterministic; within an entry the row-id list keeps its exact
    /// order (lookup results are order-sensitive).
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        codec::put_str(out, &self.def.name);
        codec::put_uvarint(out, self.def.key_cols.len() as u64);
        for &c in &self.def.key_cols {
            codec::put_uvarint(out, c as u64);
        }
        out.push(self.def.unique as u8);
        out.push(self.def.ordered as u8);
        let encode_entry = |(key, ids): (&IndexKey, &RowIds), out: &mut Vec<u8>| {
            let key = key.as_slice();
            codec::put_uvarint(out, key.len() as u64);
            for v in key {
                codec::encode_value(v, out);
            }
            let ids = ids.as_slice();
            codec::put_uvarint(out, ids.len() as u64);
            for &rid in ids {
                codec::put_uvarint(out, rid);
            }
        };
        match &self.store {
            IndexStore::Ordered(m) => {
                codec::put_uvarint(out, m.len() as u64);
                for entry in m {
                    encode_entry(entry, out);
                }
            }
            IndexStore::Hash(m) => {
                codec::put_uvarint(out, m.len() as u64);
                let mut entries: Vec<(&IndexKey, &RowIds)> = m.iter().collect();
                entries.sort_by(|a, b| a.0.cmp(b.0));
                for entry in entries {
                    encode_entry(entry, out);
                }
            }
        }
    }

    /// Decode an index encoded by [`Index::encode_binary`]. Entries are
    /// loaded verbatim (no uniqueness re-checks: the data already passed
    /// them when it was live).
    pub fn decode_binary(r: &mut codec::Reader<'_>) -> Result<Index> {
        let name = r.str()?.to_string();
        let n = r.uvarint()? as usize;
        if n > r.remaining() {
            return Err(Error::Codec(format!(
                "index key-column count {n} exceeds remaining input"
            )));
        }
        let mut key_cols = Vec::with_capacity(n);
        for _ in 0..n {
            key_cols.push(r.uvarint()? as usize);
        }
        let unique = r.u8()? != 0;
        let ordered = r.u8()? != 0;
        let def = IndexDef {
            name,
            key_cols,
            unique,
            ordered,
        };
        let n_entries = r.uvarint()? as usize;
        let mut entries = Vec::with_capacity(n_entries.min(r.remaining()));
        for _ in 0..n_entries {
            let key = match r.uvarint()? as usize {
                1 => IndexKey::One(codec::decode_value(r)?),
                key_len => {
                    let mut key = Vec::with_capacity(key_len.min(r.remaining()));
                    for _ in 0..key_len {
                        key.push(codec::decode_value(r)?);
                    }
                    IndexKey::Many(key.into_boxed_slice())
                }
            };
            let ids = match r.uvarint()? as usize {
                1 => RowIds::One(r.uvarint()?),
                n_ids => {
                    let mut ids = Vec::with_capacity(n_ids.min(r.remaining()));
                    for _ in 0..n_ids {
                        ids.push(r.uvarint()?);
                    }
                    RowIds::Many(ids)
                }
            };
            entries.push((key, ids));
        }
        let store = IndexStore::new(def.ordered, entries.into_iter());
        Ok(Index { def, store })
    }

    /// Create an empty index from a definition.
    pub fn new(def: IndexDef) -> Self {
        let store = IndexStore::new(def.ordered, std::iter::empty());
        Index { def, store }
    }

    /// Gather this index's key out of a full row into a fresh vector.
    fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.def.key_cols.iter().map(|&i| row[i].clone()).collect()
    }

    /// Borrow this index's key out of a full row without allocating when
    /// the key columns are contiguous (always true for single-column keys).
    pub fn key_ref<'a>(&self, row: &'a [Value]) -> KeyRef<'a> {
        match self.def.key_cols.as_slice() {
            [] => KeyRef::Borrowed(&[]),
            &[i] => KeyRef::Borrowed(std::slice::from_ref(&row[i])),
            cols if cols.windows(2).all(|w| w[1] == w[0] + 1) => {
                KeyRef::Borrowed(&row[cols[0]..=cols[cols.len() - 1]])
            }
            _ => KeyRef::Owned(self.key_of(row)),
        }
    }

    /// Insert a (key, row id) pair. Fails on unique violation, leaving
    /// the existing entry as it was.
    ///
    /// One map probe: a new key becomes an entry holding just `rid`, an
    /// existing one gets `rid` appended to its bucket. The key is copied
    /// into the map only for a new entry, and a one-cell key of a type
    /// other than Text copies without allocating.
    pub fn insert(&mut self, key: &[Value], rid: RowId) -> Result<()> {
        let ids = match &mut self.store {
            IndexStore::Hash(m) => match m.entry(IndexKey::of(key)) {
                hash_map::Entry::Occupied(e) => e.into_mut(),
                hash_map::Entry::Vacant(e) => {
                    e.insert(RowIds::One(rid));
                    return Ok(());
                }
            },
            IndexStore::Ordered(m) => match m.entry(IndexKey::of(key)) {
                btree_map::Entry::Occupied(e) => e.into_mut(),
                btree_map::Entry::Vacant(e) => {
                    e.insert(RowIds::One(rid));
                    return Ok(());
                }
            },
        };
        if self.def.unique && !ids.as_slice().is_empty() {
            return Err(Error::Constraint(format!(
                "unique index `{}` violated",
                self.def.name
            )));
        }
        ids.push(rid);
        Ok(())
    }

    /// Remove a (key, row id) pair; it must be present.
    ///
    /// Costs O(bucket): the row id is searched from the bucket's tail and
    /// swap-removed. Removing the tail is a pop that leaves the rest of
    /// the bucket in order, so a caller removing many rows under one key
    /// walks them in **reverse** bucket order; *k* removals then cost
    /// O(*k*), and re-inserting them in forward order (undo) restores the
    /// bucket exactly. Empty buckets are removed eagerly so `key_count`
    /// reflects live keys.
    pub fn remove(&mut self, key: &[Value], rid: RowId) -> Result<()> {
        let removed = match &mut self.store {
            IndexStore::Hash(m) => {
                let removed = m.get_mut(key).and_then(|ids| ids.remove(rid));
                if removed == Some(true) {
                    m.remove(key);
                }
                removed
            }
            IndexStore::Ordered(m) => {
                let removed = m.get_mut(key).and_then(|ids| ids.remove(rid));
                if removed == Some(true) {
                    m.remove(key);
                }
                removed
            }
        };
        match removed {
            Some(_) => Ok(()),
            None => Err(Error::Internal(format!(
                "index `{}` missing entry for row {rid}",
                self.def.name
            ))),
        }
    }

    /// Row ids for an exact key.
    pub fn get(&self, key: &[Value]) -> &[RowId] {
        let ids = match &self.store {
            IndexStore::Hash(m) => m.get(key),
            IndexStore::Ordered(m) => m.get(key),
        };
        ids.map_or(&[], RowIds::as_slice)
    }

    /// Range scan over an ordered index. Bounds are over full composite
    /// keys. Returns row ids in key order. Errors on hash indexes.
    pub fn range(&self, lo: Bound<Vec<Value>>, hi: Bound<Vec<Value>>) -> Result<Vec<RowId>> {
        match &self.store {
            IndexStore::Hash(_) => Err(Error::Internal(format!(
                "index `{}` is not ordered; range scan unsupported",
                self.def.name
            ))),
            IndexStore::Ordered(m) => {
                let bounds: (Bound<&[Value]>, Bound<&[Value]>) = (
                    lo.as_ref().map(Vec::as_slice),
                    hi.as_ref().map(Vec::as_slice),
                );
                let mut out = Vec::new();
                for (_, ids) in m.range::<[Value], _>(bounds) {
                    out.extend_from_slice(ids.as_slice());
                }
                Ok(out)
            }
        }
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        match &self.store {
            IndexStore::Hash(m) => m.len(),
            IndexStore::Ordered(m) => m.len(),
        }
    }

    /// Approximate heap footprint in bytes: one (key, bucket) slot per
    /// map entry, plus what entries point to (spilled buckets, boxed
    /// composite keys, Text key strings). A hash index counts its
    /// capacity; a B-tree counts its entries, without node slack.
    pub fn heap_bytes(&self) -> usize {
        const SLOT: usize = std::mem::size_of::<(IndexKey, RowIds)>();
        let pointed = |(key, ids): (&IndexKey, &RowIds)| key.heap_bytes() + ids.heap_bytes();
        match &self.store {
            IndexStore::Hash(m) => m.capacity() * SLOT + m.iter().map(pointed).sum::<usize>(),
            IndexStore::Ordered(m) => m.len() * SLOT + m.iter().map(pointed).sum::<usize>(),
        }
    }

    /// Drop all entries (used when truncating a table).
    pub fn clear(&mut self) {
        match &mut self.store {
            IndexStore::Hash(m) => m.clear(),
            IndexStore::Ordered(m) => m.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_idx(unique: bool) -> Index {
        Index::new(IndexDef {
            name: "ix".into(),
            key_cols: vec![0],
            unique,
            ordered: false,
        })
    }

    fn btree_idx() -> Index {
        Index::new(IndexDef {
            name: "ox".into(),
            key_cols: vec![1],
            unique: false,
            ordered: true,
        })
    }

    #[test]
    fn insert_get_remove() {
        let mut ix = hash_idx(false);
        ix.insert(&[Value::Int(1)], 10).unwrap();
        ix.insert(&[Value::Int(1)], 11).unwrap();
        assert_eq!(ix.get(&[Value::Int(1)]).len(), 2);
        ix.remove(&[Value::Int(1)], 10).unwrap();
        assert_eq!(ix.get(&[Value::Int(1)]), &[11]);
        assert!(ix.remove(&[Value::Int(1)], 99).is_err());
    }

    #[test]
    fn reverse_removal_pops_tail_and_forward_reinsert_restores_order() {
        let mut ix = hash_idx(false);
        let key = [Value::Int(1)];
        for rid in 0..6 {
            ix.insert(&key, rid).unwrap();
        }
        // Removing the tail leaves the rest of the bucket in order.
        for rid in (3..6).rev() {
            ix.remove(&key, rid).unwrap();
            assert_eq!(ix.get(&key), (0..rid).collect::<Vec<_>>());
        }
        for rid in 3..6 {
            ix.insert(&key, rid).unwrap();
        }
        assert_eq!(ix.get(&key), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn unique_violation() {
        let mut ix = hash_idx(true);
        ix.insert(&[Value::Int(1)], 10).unwrap();
        let err = ix.insert(&[Value::Int(1)], 11).unwrap_err();
        assert_eq!(err.kind(), "constraint");
    }

    #[test]
    fn key_extraction_composite() {
        let ix = Index::new(IndexDef {
            name: "c".into(),
            key_cols: vec![2, 0],
            unique: false,
            ordered: false,
        });
        let row = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(ix.key_of(&row), vec![Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn range_scan_ordered() {
        let mut ix = btree_idx();
        for (k, rid) in [(5, 1u64), (1, 2), (3, 3), (9, 4)] {
            ix.insert(&[Value::Int(k)], rid).unwrap();
        }
        let rids = ix
            .range(
                Bound::Included(vec![Value::Int(2)]),
                Bound::Excluded(vec![Value::Int(9)]),
            )
            .unwrap();
        assert_eq!(rids, vec![3, 1]);
        assert_eq!(ix.key_count(), 4);
    }

    #[test]
    fn range_on_hash_errors() {
        let ix = hash_idx(false);
        assert!(ix.range(Bound::Unbounded, Bound::Unbounded).is_err());
    }

    #[test]
    fn clear_empties() {
        let mut ix = btree_idx();
        ix.insert(&[Value::Int(1)], 1).unwrap();
        ix.clear();
        assert_eq!(ix.key_count(), 0);
    }

    #[test]
    fn index_entry_layout_is_inline() {
        assert_eq!(size_of::<IndexKey>(), size_of::<Value>());
        assert_eq!(size_of::<RowIds>(), size_of::<Vec<RowId>>());
    }

    /// The stored bucket for `key`, to check which form it is in.
    fn bucket<'a>(ix: &'a Index, key: &[Value]) -> Option<&'a RowIds> {
        match &ix.store {
            IndexStore::Hash(m) => m.get(key),
            IndexStore::Ordered(m) => m.get(key),
        }
    }

    #[test]
    fn index_bucket_goes_one_many_drained_gone() {
        for mut ix in [hash_idx(false), btree_idx()] {
            let key = [Value::Int(7)];
            ix.insert(&key, 4).unwrap();
            assert!(matches!(bucket(&ix, &key), Some(RowIds::One(4))));
            assert_eq!(ix.get(&key), &[4]);
            let inline = ix.heap_bytes();

            ix.insert(&key, 9).unwrap();
            assert!(matches!(bucket(&ix, &key), Some(RowIds::Many(_))));
            assert!(ix.heap_bytes() >= inline + 2 * size_of::<RowId>());
            assert_eq!(ix.get(&key), &[4, 9]);
            ix.insert(&key, 2).unwrap();
            assert_eq!(ix.get(&key), &[4, 9, 2]);

            // Removal swap-removes from the tail's side: the head leaves
            // its place to the last id.
            ix.remove(&key, 4).unwrap();
            assert_eq!(ix.get(&key), &[2, 9]);
            ix.remove(&key, 9).unwrap();
            assert_eq!(ix.get(&key), &[2]);
            // A bucket that spilled stays a vector until it drains.
            assert!(matches!(bucket(&ix, &key), Some(RowIds::Many(_))));
            assert!(ix.remove(&key, 9).is_err());
            ix.remove(&key, 2).unwrap();
            assert!(bucket(&ix, &key).is_none());
            assert_eq!(ix.get(&key), &[] as &[RowId]);
            assert_eq!(ix.key_count(), 0);
            assert!(ix.remove(&key, 2).is_err());
        }
    }

    #[test]
    fn index_unique_violation_leaves_entry_untouched() {
        for ordered in [false, true] {
            let mut ix = Index::new(IndexDef {
                name: "u".into(),
                key_cols: vec![0],
                unique: true,
                ordered,
            });
            let key = [Value::Text("k".into())];
            ix.insert(&key, 3).unwrap();
            let before = ix.heap_bytes();
            assert_eq!(ix.insert(&key, 8).unwrap_err().kind(), "constraint");
            assert!(matches!(bucket(&ix, &key), Some(RowIds::One(3))));
            assert_eq!(ix.get(&key), &[3]);
            assert_eq!((ix.key_count(), ix.heap_bytes()), (1, before));
        }
    }

    #[test]
    fn index_slice_lookups_for_text_and_composite_keys() {
        let row = [Value::Text("ann".into()), Value::Int(2), Value::Float(0.5)];
        let defs = [
            (vec![0], true),     // Text, one cell
            (vec![1, 2], true),  // contiguous composite
            (vec![2, 0], false), // non-contiguous composite
        ];
        for (key_cols, contiguous) in defs {
            for ordered in [false, true] {
                let mut ix = Index::new(IndexDef {
                    name: "k".into(),
                    key_cols: key_cols.clone(),
                    unique: false,
                    ordered,
                });
                let key = ix.key_ref(&row);
                assert_eq!(matches!(key, KeyRef::Borrowed(_)), contiguous);
                ix.insert(&key, 5).unwrap();
                let probe: Vec<Value> = key_cols.iter().map(|&c| row[c].clone()).collect();
                assert_eq!(ix.get(&probe), &[5]);
                assert_eq!(ix.get(&key), &[5]);
                if probe.len() > 1 {
                    // A key prefix is a different key.
                    assert!(ix.get(&probe[..1]).is_empty());
                }
                ix.remove(&probe, 5).unwrap();
                assert_eq!(ix.key_count(), 0);
            }
        }
    }

    /// Four indexes (ordered and hash, unique and not, one-cell and
    /// composite keys) built through a fixed insert/remove sequence.
    fn golden_indexes() -> Vec<Index> {
        use Value::{Float, Int, Null, Text};
        let t = |s: &str| Text(s.into());
        let def = |name: &str, key_cols: Vec<usize>, unique, ordered| IndexDef {
            name: name.into(),
            key_cols,
            unique,
            ordered,
        };
        // (insert?, key, row id)
        type Step = (bool, Vec<Value>, RowId);
        let plan: Vec<(IndexDef, Vec<Step>)> = vec![
            (
                def("pk", vec![0], true, true),
                vec![
                    (true, vec![Int(5)], 0),
                    (true, vec![Int(1)], 1),
                    (true, vec![Int(3)], 2),
                    (true, vec![Int(900)], 3),
                    (false, vec![Int(3)], 2),
                    (true, vec![Int(-7)], 2),
                ],
            ),
            (
                def("by_name", vec![1], false, false),
                vec![
                    (true, vec![t("a")], 0),
                    (true, vec![t("b")], 1),
                    (true, vec![t("a")], 2),
                    (true, vec![t("a")], 3),
                    (true, vec![t("c")], 4),
                    (false, vec![t("a")], 0),
                    (false, vec![t("c")], 4),
                    (true, vec![t("a")], 5),
                    (true, vec![t("b")], 6),
                    (false, vec![t("b")], 6),
                ],
            ),
            (
                def("uq_pair", vec![0, 1], true, false),
                vec![
                    (true, vec![Int(1), t("x")], 0),
                    (true, vec![Int(1), t("y")], 1),
                    (true, vec![Int(2), t("x")], 2),
                    (false, vec![Int(1), t("y")], 1),
                    (true, vec![Int(3), Null], 3),
                ],
            ),
            (
                def("by_pair", vec![2, 0], false, true),
                vec![
                    (true, vec![Int(1), Null], 0),
                    (true, vec![Int(1), Null], 1),
                    (true, vec![Int(0), Float(2.5)], 2),
                    (false, vec![Int(1), Null], 0),
                    (true, vec![Int(1), Null], 3),
                    (true, vec![Int(-1), Float(-0.5)], 4),
                    (true, vec![Int(0), Float(2.5)], 5),
                    (false, vec![Int(0), Float(2.5)], 5),
                    (false, vec![Int(0), Float(2.5)], 2),
                ],
            ),
        ];
        plan.into_iter()
            .map(|(def, steps)| {
                let mut ix = Index::new(def);
                for (insert, key, rid) in steps {
                    if insert {
                        ix.insert(&key, rid).unwrap();
                    } else {
                        ix.remove(&key, rid).unwrap();
                    }
                }
                ix
            })
            .collect()
    }

    /// `golden_indexes()` encoded by the `Vec`-keyed index this layout
    /// replaced: the on-disk bytes must not change.
    const GOLDEN: &[u8] = &[
        2, 112, 107, 1, 0, 1, 1, 4, 1, 1, 13, 1, 2, 1, 1, 2, 1, 1, 1, 1, 10, 1, 0, 1, 1, 136, 14,
        1, 3, 7, 98, 121, 95, 110, 97, 109, 101, 1, 1, 0, 0, 2, 1, 3, 1, 97, 3, 3, 2, 5, 1, 3, 1,
        98, 1, 1, 7, 117, 113, 95, 112, 97, 105, 114, 2, 0, 1, 1, 0, 3, 2, 1, 2, 3, 1, 120, 1, 0,
        2, 1, 4, 3, 1, 120, 1, 2, 2, 1, 6, 0, 1, 3, 7, 98, 121, 95, 112, 97, 105, 114, 2, 2, 0, 0,
        1, 2, 2, 1, 1, 2, 0, 0, 0, 0, 0, 0, 224, 191, 1, 4, 2, 1, 2, 0, 2, 1, 3,
    ];

    #[test]
    fn index_encoding_matches_golden_bytes_and_round_trips() {
        let mut out = Vec::new();
        for ix in golden_indexes() {
            ix.encode_binary(&mut out);
        }
        assert_eq!(out, GOLDEN);
        let mut r = codec::Reader::new(&out);
        let mut again = Vec::new();
        for ix in golden_indexes() {
            let back = Index::decode_binary(&mut r).unwrap();
            assert_eq!(back.def, ix.def);
            back.encode_binary(&mut again);
        }
        assert_eq!(r.remaining(), 0);
        assert_eq!(again, GOLDEN);
    }
}
