//! Secondary indexes: hash (point lookups) and ordered (range scans).
//!
//! Index keys are `Vec<Value>` (composite keys supported). Both index kinds
//! map a key to the set of row ids holding it; unique indexes additionally
//! reject duplicate keys at insert time.

use serde::{Deserialize, Serialize};
use sstore_common::{codec, Error, Result, Value};
use std::collections::{BTreeMap, HashMap};
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

/// The index structure itself.
#[derive(Debug, Clone)]
pub enum IndexStore {
    /// Hash index: key -> row ids.
    Hash(HashMap<Vec<Value>, Vec<RowId>>),
    /// Ordered index: key -> row ids, range-scannable.
    Ordered(BTreeMap<Vec<Value>, Vec<RowId>>),
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
        let entries = match ix.store {
            IndexStore::Hash(m) => m.into_iter().collect(),
            IndexStore::Ordered(m) => m.into_iter().collect(),
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
        let store = if s.def.ordered {
            IndexStore::Ordered(s.entries.into_iter().collect())
        } else {
            IndexStore::Hash(s.entries.into_iter().collect())
        };
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

impl KeyRef<'_> {
    /// The key as an owned vector (for map insertion).
    pub fn into_owned(self) -> Vec<Value> {
        match self {
            KeyRef::Borrowed(s) => s.to_vec(),
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
        let encode_entry = |key: &[Value], ids: &[RowId], out: &mut Vec<u8>| {
            codec::put_uvarint(out, key.len() as u64);
            for v in key {
                codec::encode_value(v, out);
            }
            codec::put_uvarint(out, ids.len() as u64);
            for &rid in ids {
                codec::put_uvarint(out, rid);
            }
        };
        match &self.store {
            IndexStore::Ordered(m) => {
                codec::put_uvarint(out, m.len() as u64);
                for (key, ids) in m {
                    encode_entry(key, ids, out);
                }
            }
            IndexStore::Hash(m) => {
                codec::put_uvarint(out, m.len() as u64);
                let mut entries: Vec<(&Vec<Value>, &Vec<RowId>)> = m.iter().collect();
                entries.sort_by(|a, b| a.0.cmp(b.0));
                for (key, ids) in entries {
                    encode_entry(key, ids, out);
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
            let key_len = r.uvarint()? as usize;
            let mut key = Vec::with_capacity(key_len.min(r.remaining()));
            for _ in 0..key_len {
                key.push(codec::decode_value(r)?);
            }
            let n_ids = r.uvarint()? as usize;
            let mut ids = Vec::with_capacity(n_ids.min(r.remaining()));
            for _ in 0..n_ids {
                ids.push(r.uvarint()?);
            }
            entries.push((key, ids));
        }
        let store = if def.ordered {
            IndexStore::Ordered(entries.into_iter().collect())
        } else {
            IndexStore::Hash(entries.into_iter().collect())
        };
        Ok(Index { def, store })
    }

    /// Create an empty index from a definition.
    pub fn new(def: IndexDef) -> Self {
        let store = if def.ordered {
            IndexStore::Ordered(BTreeMap::new())
        } else {
            IndexStore::Hash(HashMap::new())
        };
        Index { def, store }
    }

    /// Extract this index's key from a full row (always owned; prefer
    /// [`Index::key_ref`] for probes and removals).
    pub fn key_of(&self, row: &[Value]) -> Vec<Value> {
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

    /// Insert a (key, row id) pair. Fails on unique violation.
    pub fn insert(&mut self, key: Vec<Value>, rid: RowId) -> Result<()> {
        let ids = match &mut self.store {
            IndexStore::Hash(m) => m.entry(key).or_default(),
            IndexStore::Ordered(m) => m.entry(key).or_default(),
        };
        if self.def.unique && !ids.is_empty() {
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
                if Self::remove_from(m.get_mut(key), rid) {
                    if m.get(key).is_some_and(|v| v.is_empty()) {
                        m.remove(key);
                    }
                    true
                } else {
                    false
                }
            }
            IndexStore::Ordered(m) => {
                if Self::remove_from(m.get_mut(key), rid) {
                    if m.get(key).is_some_and(|v| v.is_empty()) {
                        m.remove(key);
                    }
                    true
                } else {
                    false
                }
            }
        };
        if removed {
            Ok(())
        } else {
            Err(Error::Internal(format!(
                "index `{}` missing entry for row {rid}",
                self.def.name
            )))
        }
    }

    fn remove_from(ids: Option<&mut Vec<RowId>>, rid: RowId) -> bool {
        if let Some(ids) = ids {
            if let Some(pos) = ids.iter().rposition(|&r| r == rid) {
                ids.swap_remove(pos);
                return true;
            }
        }
        false
    }

    /// Row ids for an exact key.
    pub fn get(&self, key: &[Value]) -> &[RowId] {
        match &self.store {
            IndexStore::Hash(m) => m.get(key).map(|v| v.as_slice()).unwrap_or(&[]),
            IndexStore::Ordered(m) => m.get(key).map(|v| v.as_slice()).unwrap_or(&[]),
        }
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
                let mut out = Vec::new();
                for (_, ids) in m.range((lo, hi)) {
                    out.extend_from_slice(ids);
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
        ix.insert(vec![Value::Int(1)], 10).unwrap();
        ix.insert(vec![Value::Int(1)], 11).unwrap();
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
            ix.insert(key.to_vec(), rid).unwrap();
        }
        // Removing the tail leaves the rest of the bucket in order.
        for rid in (3..6).rev() {
            ix.remove(&key, rid).unwrap();
            assert_eq!(ix.get(&key), (0..rid).collect::<Vec<_>>());
        }
        for rid in 3..6 {
            ix.insert(key.to_vec(), rid).unwrap();
        }
        assert_eq!(ix.get(&key), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn unique_violation() {
        let mut ix = hash_idx(true);
        ix.insert(vec![Value::Int(1)], 10).unwrap();
        let err = ix.insert(vec![Value::Int(1)], 11).unwrap_err();
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
            ix.insert(vec![Value::Int(k)], rid).unwrap();
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
        ix.insert(vec![Value::Int(1)], 1).unwrap();
        ix.clear();
        assert_eq!(ix.key_count(), 0);
    }
}
