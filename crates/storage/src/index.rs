//! Indexes, the primary key's and secondary ones: one hash-map shape.
//!
//! An index maps a key (one or more cells, composite keys supported) to
//! the row ids holding it; a unique index additionally rejects duplicate
//! keys at insert time. Lookups, inserts and removals take the key as a
//! borrowed `&[Value]`.
//!
//! The table's schema decides how an index stores its keys. A key of one
//! NOT NULL `INT` or `TIMESTAMP` column is a bare `i64`; every other key is
//! a cell key, one cell inline and only a composite boxed. A bucket of one
//! row id sits inline too (a second id spills it into a boxed vector). An
//! integer-keyed entry therefore costs 24 B and no heap block of its own,
//! and a cell-keyed one 40 B plus a Text key's string.

use sstore_common::{codec, hash::HashMap, DataType, Error, Result, Schema, Value};
use std::borrow::Borrow;
use std::collections::hash_map;
use std::hash::{Hash, Hasher};

/// Stable identifier of a row slot within one table.
///
/// Row ids are never reused while a transaction that might undo is in
/// flight, and undo restores a deleted row into its original slot, so the
/// pair (table, row id) is a stable address for the lifetime of an undo log.
pub type RowId = u64;

/// Definition of an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, unique within its table.
    pub name: String,
    /// Column positions forming the key, in key order.
    pub key_cols: Vec<usize>,
    /// Reject duplicate keys when true.
    pub unique: bool,
}

/// A stored cell key: one cell inline, or a boxed composite. Hash and
/// equality are those of the `[Value]` slice it stands for, which is the
/// `Borrow` contract that lets the map be probed with a `&[Value]`.
#[derive(Debug, Clone)]
pub(crate) enum IndexKey {
    One(Value),
    Many(Box<[Value]>),
}

impl IndexKey {
    /// Owned copy of a borrowed key; allocates only for a composite key or
    /// a Text cell.
    pub(crate) fn of(key: &[Value]) -> IndexKey {
        match key {
            [v] => IndexKey::One(v.clone()),
            _ => IndexKey::Many(key.into()),
        }
    }

    pub(crate) fn as_slice(&self) -> &[Value] {
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

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for IndexKey {}

impl Hash for IndexKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

/// The `i64` an integer-keyed index files `key` under. An `Int` or
/// `Timestamp` cell gives its value. A `Float` gives the integer it
/// truncates to when `Value`'s own comparison (`total_cmp` on the widened
/// integer) calls the two equal: `2.0` finds 2, while `2.5`, `-0.0` and
/// NaN find nothing. `None` for any other key, which no entry can equal.
fn int_key(key: &[Value]) -> Option<i64> {
    match *key {
        [Value::Int(k) | Value::Timestamp(k)] => Some(k),
        [Value::Float(f)] => {
            let k = f as i64;
            (k as f64).total_cmp(&f).is_eq().then_some(k)
        }
        _ => None,
    }
}

/// The row ids under one key: one inline, or a boxed vector once a second
/// id arrives. The vector is kept until it drains, when the entry is
/// removed.
///
/// The box costs a spilled bucket a second allocation, and buys every
/// entry 8 B: `RowIds` is 16 B with it and 24 B with a bare `Vec`. Nearly
/// every bucket of a pk or a near-unique index never spills.
#[allow(clippy::box_collection)]
#[derive(Debug, Clone)]
enum RowIds {
    One(RowId),
    Many(Box<Vec<RowId>>),
}

impl RowIds {
    fn as_slice(&self) -> &[RowId] {
        match self {
            RowIds::One(rid) => std::slice::from_ref(rid),
            RowIds::Many(ids) => ids,
        }
    }

    fn push(&mut self, rid: RowId) {
        match self {
            RowIds::One(first) => *self = RowIds::Many(Box::new(vec![*first, rid])),
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
            RowIds::Many(ids) => {
                std::mem::size_of::<Vec<RowId>>() + ids.capacity() * std::mem::size_of::<RowId>()
            }
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let ids = self.as_slice();
        codec::put_uvarint(out, ids.len() as u64);
        for &rid in ids {
            codec::put_uvarint(out, rid);
        }
    }

    fn decode(r: &mut codec::Reader<'_>) -> Result<RowIds> {
        Ok(match r.uvarint()? as usize {
            1 => RowIds::One(r.uvarint()?),
            n_ids => {
                let mut ids = Vec::with_capacity(n_ids.min(r.remaining()));
                for _ in 0..n_ids {
                    ids.push(r.uvarint()?);
                }
                RowIds::Many(Box::new(ids))
            }
        })
    }
}

/// Insert `rid` under `key`: one map probe, and a unique violation leaves
/// the existing entry as it was.
fn insert_in<K: Hash + Eq>(
    map: &mut HashMap<K, RowIds>,
    key: K,
    rid: RowId,
    def: &IndexDef,
) -> Result<()> {
    match map.entry(key) {
        hash_map::Entry::Vacant(e) => {
            e.insert(RowIds::One(rid));
            Ok(())
        }
        hash_map::Entry::Occupied(_) if def.unique => Err(Error::Constraint(format!(
            "unique index `{}` violated",
            def.name
        ))),
        hash_map::Entry::Occupied(mut e) => {
            e.get_mut().push(rid);
            Ok(())
        }
    }
}

/// Remove `rid` from under `key`, and the entry once its bucket drains.
/// `None` when the pair is absent.
fn remove_in<K, Q>(map: &mut HashMap<K, RowIds>, key: &Q, rid: RowId) -> Option<()>
where
    K: Borrow<Q> + Hash + Eq,
    Q: Hash + Eq + ?Sized,
{
    if map.get_mut(key)?.remove(rid)? {
        map.remove(key);
    }
    Some(())
}

/// Slots times slot size, plus what each entry points to.
fn map_heap_bytes<K>(map: &HashMap<K, RowIds>, key_heap: impl Fn(&K) -> usize) -> usize {
    map.capacity() * std::mem::size_of::<(K, RowIds)>()
        + map
            .iter()
            .map(|(k, ids)| key_heap(k) + ids.heap_bytes())
            .sum::<usize>()
}

/// The map behind an index, in the shape its schema picked.
#[derive(Debug, Clone)]
enum IndexStore {
    /// A key of one NOT NULL `INT` or `TIMESTAMP` column. `cell` is the
    /// column's constructor (`Value::Int` or `Value::Timestamp`), which
    /// turns a key back into the cell it is encoded as.
    Int {
        map: HashMap<i64, RowIds>,
        cell: fn(i64) -> Value,
    },
    /// Any other key.
    Cells(HashMap<IndexKey, RowIds>),
}

impl IndexStore {
    /// An empty map with room for `n` entries, in the shape `schema` gives
    /// a key over `key_cols`. A column outside the schema gets cell keys;
    /// the table refuses such an index anyway.
    fn new(key_cols: &[usize], schema: &Schema, n: usize) -> IndexStore {
        let cell: Option<fn(i64) -> Value> = match key_cols {
            &[c] => match schema.columns().get(c) {
                Some(col) if !col.nullable && col.ty == DataType::Int => Some(Value::Int),
                Some(col) if !col.nullable && col.ty == DataType::Timestamp => {
                    Some(Value::Timestamp)
                }
                _ => None,
            },
            _ => None,
        };
        match cell {
            Some(cell) => IndexStore::Int {
                map: HashMap::with_capacity_and_hasher(n, Default::default()),
                cell,
            },
            None => IndexStore::Cells(HashMap::with_capacity_and_hasher(n, Default::default())),
        }
    }
}

/// A live index: definition plus data.
#[derive(Debug, Clone)]
pub struct Index {
    /// The definition this index was created from.
    pub def: IndexDef,
    store: IndexStore,
}

/// A probe key for index lookups: borrowed straight out of a row when the
/// key columns form a contiguous run (the common single-column case), owned
/// only when a composite key has to be gathered from scattered columns.
/// Indexes accept `&[Value]`, so probing with a borrowed key never
/// allocates.
#[derive(Debug)]
pub(crate) enum KeyRef<'a> {
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
    /// all in the compact binary codec. Entries are sorted by key so the
    /// encoding is deterministic, and an integer key is written as the
    /// cell of its column's type; within an entry the row-id list keeps
    /// its exact order (lookup results are order-sensitive).
    ///
    /// `pk` fills the byte that once flagged a B-tree index: the primary
    /// key's was the only B-tree, so it writes 1 and every other index 0,
    /// and images keep their bytes. Decoding ignores the byte.
    pub(crate) fn encode_binary(&self, pk: bool, out: &mut Vec<u8>) {
        codec::put_str(out, &self.def.name);
        codec::put_uvarint(out, self.def.key_cols.len() as u64);
        for &c in &self.def.key_cols {
            codec::put_uvarint(out, c as u64);
        }
        out.push(self.def.unique as u8);
        out.push(pk as u8);
        match &self.store {
            IndexStore::Int { map, cell } => {
                codec::put_uvarint(out, map.len() as u64);
                let mut entries: Vec<(i64, &RowIds)> =
                    map.iter().map(|(&k, ids)| (k, ids)).collect();
                entries.sort_unstable_by_key(|&(k, _)| k);
                for (k, ids) in entries {
                    codec::put_uvarint(out, 1);
                    codec::encode_value(&cell(k), out);
                    ids.encode(out);
                }
            }
            IndexStore::Cells(map) => {
                codec::put_uvarint(out, map.len() as u64);
                let mut entries: Vec<(&IndexKey, &RowIds)> = map.iter().collect();
                entries.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
                for (key, ids) in entries {
                    let key = key.as_slice();
                    codec::put_uvarint(out, key.len() as u64);
                    for v in key {
                        codec::encode_value(v, out);
                    }
                    ids.encode(out);
                }
            }
        }
    }

    /// Decode an index encoded by [`Index::encode_binary`], into the shape
    /// `schema` gives its key. Entries are loaded verbatim (no uniqueness
    /// re-checks: the data already passed them when it was live), except
    /// that an integer-keyed index holding any key but one `Int` or
    /// `Timestamp` cell is refused with [`Error::Codec`].
    pub(crate) fn decode_binary(r: &mut codec::Reader<'_>, schema: &Schema) -> Result<Index> {
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
        r.u8()?; // the former B-tree flag
        let n_entries = r.uvarint()? as usize;
        let mut store = IndexStore::new(&key_cols, schema, n_entries.min(r.remaining()));
        match &mut store {
            IndexStore::Int { map, .. } => {
                for _ in 0..n_entries {
                    let key = match r.uvarint()? {
                        1 => Some(codec::decode_value(r)?),
                        _ => None,
                    };
                    let Some(Value::Int(k) | Value::Timestamp(k)) = key else {
                        return Err(Error::Codec(format!(
                            "index `{name}` on an integer column holds a non-integer key"
                        )));
                    };
                    map.insert(k, RowIds::decode(r)?);
                }
            }
            IndexStore::Cells(map) => {
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
                    map.insert(key, RowIds::decode(r)?);
                }
            }
        }
        let def = IndexDef {
            name,
            key_cols,
            unique,
        };
        Ok(Index { def, store })
    }

    /// Create an empty index from a definition, in the shape `schema`
    /// gives its key.
    pub(crate) fn new(def: IndexDef, schema: &Schema) -> Self {
        let store = IndexStore::new(&def.key_cols, schema, 0);
        Index { def, store }
    }

    /// Gather this index's key out of a full row into a fresh vector.
    fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.def.key_cols.iter().map(|&i| row[i].clone()).collect()
    }

    /// Borrow this index's key out of a full row without allocating when
    /// the key columns are contiguous (always true for single-column keys).
    pub(crate) fn key_ref<'a>(&self, row: &'a [Value]) -> KeyRef<'a> {
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
    /// existing one gets `rid` appended to its bucket. A cell key is
    /// copied for the probe, which allocates only for a composite or Text
    /// key; an integer key is not copied at all.
    pub(crate) fn insert(&mut self, key: &[Value], rid: RowId) -> Result<()> {
        match &mut self.store {
            IndexStore::Int { map, .. } => match int_key(key) {
                Some(k) => insert_in(map, k, rid, &self.def),
                None => Err(Error::Internal(format!(
                    "index `{}` on an integer column given key {key:?}",
                    self.def.name
                ))),
            },
            IndexStore::Cells(map) => insert_in(map, IndexKey::of(key), rid, &self.def),
        }
    }

    /// Remove a (key, row id) pair; it must be present.
    ///
    /// Costs O(bucket): the row id is searched from the bucket's tail and
    /// swap-removed. Removing the tail is a pop that leaves the rest of
    /// the bucket in order, so a caller removing many rows under one key
    /// walks them in **reverse** bucket order; *k* removals then cost
    /// O(*k*), and re-inserting them in forward order (undo) restores the
    /// bucket exactly. Empty buckets are removed eagerly, so the map holds
    /// only live keys.
    pub(crate) fn remove(&mut self, key: &[Value], rid: RowId) -> Result<()> {
        let removed = match &mut self.store {
            IndexStore::Int { map, .. } => int_key(key).and_then(|k| remove_in(map, &k, rid)),
            IndexStore::Cells(map) => remove_in(map, key, rid),
        };
        removed.ok_or_else(|| {
            Error::Internal(format!(
                "index `{}` missing entry for row {rid}",
                self.def.name
            ))
        })
    }

    /// Row ids for an exact key: those whose key equals it as a `Value`.
    pub(crate) fn get(&self, key: &[Value]) -> &[RowId] {
        let ids = match &self.store {
            IndexStore::Int { map, .. } => int_key(key).and_then(|k| map.get(&k)),
            IndexStore::Cells(map) => map.get(key),
        };
        ids.map_or(&[], RowIds::as_slice)
    }

    /// Approximate heap footprint in bytes: every slot of the map in use
    /// at its own size (24 B integer-keyed, 40 B cell-keyed), plus what
    /// entries point to (spilled buckets, boxed composite keys, Text key
    /// strings).
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.store {
            IndexStore::Int { map, .. } => map_heap_bytes(map, |_| 0),
            IndexStore::Cells(map) => map_heap_bytes(map, IndexKey::heap_bytes),
        }
    }

    /// Drop all entries (used when truncating a table).
    pub(crate) fn clear(&mut self) {
        match &mut self.store {
            IndexStore::Int { map, .. } => map.clear(),
            IndexStore::Cells(map) => map.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::Column;

    /// `id INT NOT NULL, name TEXT, score FLOAT, at TIMESTAMP NOT NULL`:
    /// an index on `id` alone or `at` alone is integer-keyed, any other
    /// is cell-keyed.
    fn schema() -> Schema {
        Schema::keyless(vec![
            Column::new("id", DataType::Int),
            Column::nullable("name", DataType::Text),
            Column::nullable("score", DataType::Float),
            Column::new("at", DataType::Timestamp),
        ])
        .unwrap()
    }

    fn index(name: &str, key_cols: Vec<usize>, unique: bool) -> Index {
        let def = IndexDef {
            name: name.into(),
            key_cols,
            unique,
        };
        Index::new(def, &schema())
    }

    fn hash_idx(unique: bool) -> Index {
        index("ix", vec![0], unique)
    }

    /// A cell-keyed index over the nullable `name` column.
    fn cell_idx() -> Index {
        index("ox", vec![1], false)
    }

    fn is_int_keyed(ix: &Index) -> bool {
        matches!(ix.store, IndexStore::Int { .. })
    }

    /// Number of distinct keys.
    fn key_count(ix: &Index) -> usize {
        match &ix.store {
            IndexStore::Int { map, .. } => map.len(),
            IndexStore::Cells(map) => map.len(),
        }
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
        // The integer-keyed map probes removals the way it probes lookups:
        // an integral Float is its integer, a Text key is in no entry.
        assert!(is_int_keyed(&ix));
        assert!(ix.remove(&[Value::Text("1".into())], 11).is_err());
        ix.remove(&[Value::Float(1.0)], 11).unwrap();
        assert!(ix.get(&[Value::Int(1)]).is_empty());
        // An insert needs a key that is an integer.
        assert_eq!(ix.insert(&[Value::Null], 9).unwrap_err().kind(), "internal");
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
        let ix = index("c", vec![2, 0], false);
        let row = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(ix.key_of(&row), vec![Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn clear_empties() {
        let mut ix = cell_idx();
        ix.insert(&[Value::Int(1)], 1).unwrap();
        ix.clear();
        assert_eq!(key_count(&ix), 0);
    }

    #[test]
    fn schema_picks_the_key_shape() {
        let shapes = [
            (vec![0], true),     // INT NOT NULL
            (vec![3], true),     // TIMESTAMP NOT NULL
            (vec![1], false),    // nullable TEXT
            (vec![2], false),    // nullable FLOAT
            (vec![0, 3], false), // composite of two integer columns
        ];
        for (key_cols, int_keyed) in shapes {
            assert_eq!(is_int_keyed(&index("s", key_cols, false)), int_keyed);
        }
        // A nullable INT column keeps cell keys: NULL is no `i64`.
        let nullable = Schema::keyless(vec![Column::nullable("n", DataType::Int)]).unwrap();
        let def = IndexDef {
            name: "n".into(),
            key_cols: vec![0],
            unique: false,
        };
        assert!(!is_int_keyed(&Index::new(def, &nullable)));
    }

    #[test]
    fn index_entry_layout_is_inline() {
        assert_eq!(size_of::<IndexKey>(), size_of::<Value>());
        assert_eq!(size_of::<RowIds>(), 16);
        assert_eq!(size_of::<(i64, RowIds)>(), 24);
    }

    /// The stored bucket for `key`, to check which form it is in.
    fn bucket<'a>(ix: &'a Index, key: &[Value]) -> Option<&'a RowIds> {
        match &ix.store {
            IndexStore::Int { map, .. } => map.get(&int_key(key)?),
            IndexStore::Cells(map) => map.get(key),
        }
    }

    #[test]
    fn index_bucket_goes_one_many_drained_gone() {
        for mut ix in [hash_idx(false), cell_idx()] {
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
            assert_eq!(key_count(&ix), 0);
            assert!(ix.remove(&key, 2).is_err());
        }
    }

    #[test]
    fn index_unique_violation_leaves_entry_untouched() {
        // An integer-keyed and a cell-keyed (Text) unique index.
        for (col, key) in [(0, Value::Int(42)), (1, Value::Text("k".into()))] {
            let mut ix = index("u", vec![col], true);
            let key = [key];
            ix.insert(&key, 3).unwrap();
            let before = ix.heap_bytes();
            assert_eq!(ix.insert(&key, 8).unwrap_err().kind(), "constraint");
            assert!(matches!(bucket(&ix, &key), Some(RowIds::One(3))));
            assert_eq!(ix.get(&key), &[3]);
            assert_eq!((key_count(&ix), ix.heap_bytes()), (1, before));
        }
    }

    #[test]
    fn index_slice_lookups_for_text_and_composite_keys() {
        let row = [
            Value::Int(2),
            Value::Text("ann".into()),
            Value::Float(0.5),
            Value::Timestamp(9),
        ];
        let defs = [
            (vec![1], true),     // Text, one cell
            (vec![1, 2], true),  // contiguous composite
            (vec![2, 1], false), // non-contiguous composite
        ];
        for (key_cols, contiguous) in defs {
            let mut ix = index("k", key_cols.clone(), false);
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
            assert_eq!(key_count(&ix), 0);
        }
    }

    /// A stored key hashes, under the engine's map hasher, as the slice
    /// it stands for, so the `Borrow` probe with a `KeyRef` (borrowed or
    /// gathered) lands in its bucket.
    #[test]
    fn stored_keys_hash_as_their_probe_slices() {
        use std::hash::BuildHasher;
        let state = sstore_common::hash::State::default();
        let row = [
            Value::Int(2),
            Value::Text("ann".into()),
            Value::Float(0.5),
            Value::Null,
        ];
        for key_cols in [vec![0], vec![1], vec![3], vec![1, 2], vec![2, 0]] {
            let ix = index("k", key_cols.clone(), false);
            let probe = ix.key_ref(&row);
            let stored = IndexKey::of(&probe);
            assert_eq!(
                state.hash_one(&stored),
                state.hash_one(&*probe),
                "{key_cols:?}"
            );
        }
    }

    /// Four indexes (unique and not, one-cell and composite keys, one of
    /// them integer-keyed under `schema()`) built through a fixed
    /// insert/remove sequence, each with the B-tree byte the parent's
    /// layout wrote for it.
    fn golden_indexes(schema: &Schema) -> Vec<(Index, bool)> {
        use Value::{Float, Int, Null, Text};
        let t = |s: &str| Text(s.into());
        let def = |name: &str, key_cols: Vec<usize>, unique| IndexDef {
            name: name.into(),
            key_cols,
            unique,
        };
        // (insert?, key, row id)
        type Step = (bool, Vec<Value>, RowId);
        let plan: Vec<(IndexDef, bool, Vec<Step>)> = vec![
            (
                def("pk", vec![0], true),
                true,
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
                def("by_name", vec![1], false),
                false,
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
                def("uq_pair", vec![0, 1], true),
                false,
                vec![
                    (true, vec![Int(1), t("x")], 0),
                    (true, vec![Int(1), t("y")], 1),
                    (true, vec![Int(2), t("x")], 2),
                    (false, vec![Int(1), t("y")], 1),
                    (true, vec![Int(3), Null], 3),
                ],
            ),
            (
                def("by_pair", vec![2, 0], false),
                true,
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
            .map(|(def, btree, steps)| {
                let mut ix = Index::new(def, schema);
                for (insert, key, rid) in steps {
                    if insert {
                        ix.insert(&key, rid).unwrap();
                    } else {
                        ix.remove(&key, rid).unwrap();
                    }
                }
                (ix, btree)
            })
            .collect()
    }

    /// `golden_indexes()` encoded by the `Vec`-keyed index that two
    /// layouts ago held them, B-trees included: the on-disk bytes must not
    /// change.
    const GOLDEN: &[u8] = &[
        2, 112, 107, 1, 0, 1, 1, 4, 1, 1, 13, 1, 2, 1, 1, 2, 1, 1, 1, 1, 10, 1, 0, 1, 1, 136, 14,
        1, 3, 7, 98, 121, 95, 110, 97, 109, 101, 1, 1, 0, 0, 2, 1, 3, 1, 97, 3, 3, 2, 5, 1, 3, 1,
        98, 1, 1, 7, 117, 113, 95, 112, 97, 105, 114, 2, 0, 1, 1, 0, 3, 2, 1, 2, 3, 1, 120, 1, 0,
        2, 1, 4, 3, 1, 120, 1, 2, 2, 1, 6, 0, 1, 3, 7, 98, 121, 95, 112, 97, 105, 114, 2, 2, 0, 0,
        1, 2, 2, 1, 1, 2, 0, 0, 0, 0, 0, 0, 224, 191, 1, 4, 2, 1, 2, 0, 2, 1, 3,
    ];

    #[test]
    fn index_encoding_matches_golden_bytes_and_round_trips() {
        // `schema()` narrows "pk" to integer keys; with `id` nullable no
        // index narrows. Both write the same bytes.
        let mut cols = schema().columns().to_vec();
        cols[0].nullable = true;
        let cells_only = Schema::keyless(cols).unwrap();
        for schema in [schema(), cells_only] {
            let indexes = golden_indexes(&schema);
            assert_eq!(is_int_keyed(&indexes[0].0), !schema.columns()[0].nullable);
            let mut out = Vec::new();
            for (ix, btree) in &indexes {
                ix.encode_binary(*btree, &mut out);
            }
            assert_eq!(out, GOLDEN);
            let mut r = codec::Reader::new(&out);
            let mut again = Vec::new();
            for (ix, btree) in &indexes {
                let back = Index::decode_binary(&mut r, &schema).unwrap();
                assert_eq!(back.def, ix.def);
                assert_eq!(is_int_keyed(&back), is_int_keyed(ix));
                back.encode_binary(*btree, &mut again);
            }
            assert_eq!(r.remaining(), 0);
            assert_eq!(again, GOLDEN);
        }
    }
}
