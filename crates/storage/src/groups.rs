//! Grouped aggregate state: what a window's table keeps so that
//! `SELECT k…, COUNT(*) | COUNT(c) | SUM(c) | AVG(c) FROM w GROUP BY k…`
//! is answered in O(groups) instead of a scan of the window.
//!
//! Per group of rows with equal key cells a state holds the row count
//! and, per visible column, the non-NULL count, the sum of the integer
//! cells and the sum of their magnitudes. Every one of them is
//! invertible, so a row leaving the window is subtracted exactly as it
//! was added (subtract-on-evict, Tangwongsan et al., "General
//! Incremental Sliding-Window Aggregation", PVLDB 2015). The magnitude
//! sum bounds every partial sum of the cells in any order, which tells a
//! reader when the sum it reads is the one a scan in slot order adds up
//! without overflow ([`GroupView::int_sum`]).
//!
//! A reader gets the groups **in order of first appearance in slot
//! order** — each group's smallest live slot — the order both the row
//! accumulator and the vector kernels emit groups in. Each group keeps
//! that slot; a row inserted below it lowers it, and when the row at it
//! leaves, the next slot of the group is found by walking the state's
//! slot → group lane forward.
//!
//! A table keeps one state per key set the engine registered
//! ([`Table::track_groups`](crate::Table::track_groups)); every window
//! keeps the zero-key state, which answers the ungrouped aggregate. The
//! table's change stream (`Table::commit`) folds rows in and out beside
//! the column mirror, so engine writes, undo rollback, delta replay and
//! direct writes keep a built state exact without doing anything
//! themselves.
//!
//! A state is **derived**, like the mirror: never encoded, so it is not
//! in snapshot bytes; a cloned or decoded table keeps the registered key
//! sets but not their states, and a state is built by one scan of the
//! slots on first use. Readers hold only `&Table`, hence the `OnceLock`.

use crate::index::{IndexKey, RowId};
use sstore_common::{hash::HashMap, Row, Value};
use std::sync::OnceLock;

/// The slot → group lane's mark for a free slot.
const NO_GROUP: u32 = u32::MAX;

/// One column's accumulators in one group.
#[derive(Debug, Clone, Copy, Default)]
struct ColAcc {
    /// Non-NULL cells.
    nonnull: u64,
    /// Sum of the INT/TIMESTAMP cells.
    sum: i128,
    /// Sum of their magnitudes.
    abs: u128,
}

#[derive(Debug)]
struct Group {
    key: IndexKey,
    rows: u64,
    /// The smallest slot holding a row of the group.
    first: usize,
}

/// The grouped aggregate state for one key set (see the module docs).
#[derive(Debug)]
pub struct GroupedAggs {
    /// Key columns, in key order.
    keys: Box<[usize]>,
    /// Columns accumulated: the visible prefix of the row.
    width: usize,
    ids: HashMap<IndexKey, u32>,
    /// By group id; a dead group's id waits in `free` for reuse.
    groups: Vec<Group>,
    free: Vec<u32>,
    /// `width` accumulators per group id.
    accs: Vec<ColAcc>,
    /// The group of each slot's row.
    slot_group: Vec<u32>,
}

/// One live group, as [`GroupedAggs::groups`] lists it.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    /// The key cells, in key-column order (none for the zero-key state).
    pub key: &'a [Value],
    /// Rows in the group.
    pub rows: u64,
    first: usize,
    accs: &'a [ColAcc],
}

impl GroupView<'_> {
    /// Non-NULL cells of column `c`; `None` for a column the state does
    /// not accumulate.
    pub fn count(&self, c: usize) -> Option<u64> {
        self.accs.get(c).map(|a| a.nonnull)
    }

    /// The sum of column `c`'s integer cells when their magnitudes add up
    /// to at most `bound`: then every partial sum, in whatever order the
    /// cells are added, is within `bound` too. `None` otherwise, and for
    /// a column the state does not accumulate.
    pub fn int_sum(&self, c: usize, bound: u128) -> Option<i128> {
        self.accs.get(c).filter(|a| a.abs <= bound).map(|a| a.sum)
    }
}

impl GroupedAggs {
    /// The state of `slots`' rows, folded in slot order.
    fn build(keys: &[usize], width: usize, slots: &[Option<Row>]) -> GroupedAggs {
        let mut state = GroupedAggs {
            keys: keys.into(),
            width,
            ids: HashMap::default(),
            groups: Vec::new(),
            free: Vec::new(),
            accs: Vec::new(),
            slot_group: vec![NO_GROUP; slots.len()],
        };
        for (rid, row) in slots.iter().enumerate() {
            if let Some(row) = row {
                state.add(rid as RowId, row);
            }
        }
        state
    }

    /// The live groups, in order of first appearance in slot order.
    pub fn groups(&self) -> Vec<GroupView<'_>> {
        let mut live = Vec::with_capacity(self.groups.len() - self.free.len());
        for (id, g) in self.groups.iter().enumerate().filter(|(_, g)| g.rows > 0) {
            live.push(GroupView {
                key: g.key.as_slice(),
                rows: g.rows,
                first: g.first,
                accs: &self.accs[id * self.width..(id + 1) * self.width],
            });
        }
        live.sort_unstable_by_key(|g| g.first);
        live
    }

    /// The id of the group keyed `key`, made live-ready if it is new.
    fn id(&mut self, key: &[Value]) -> usize {
        if let Some(&id) = self.ids.get(key) {
            return id as usize;
        }
        let group = Group {
            key: IndexKey::of(key),
            rows: 0,
            first: 0,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.groups[id as usize] = group;
                id as usize
            }
            None => {
                self.groups.push(group);
                let width = self.width;
                self.accs
                    .extend(std::iter::repeat_n(ColAcc::default(), width));
                self.groups.len() - 1
            }
        };
        self.ids.insert(IndexKey::of(key), id as u32);
        id
    }

    /// Slot `rid` now holds `row`.
    fn add(&mut self, rid: RowId, row: &[Value]) {
        let many: Vec<Value>;
        let key: &[Value] = match *self.keys {
            [] => &[],
            [k] => std::slice::from_ref(&row[k]),
            _ => {
                many = self.keys.iter().map(|&k| row[k].clone()).collect();
                &many
            }
        };
        let id = self.id(key);
        let slot = rid as usize;
        if slot >= self.slot_group.len() {
            self.slot_group.resize(slot + 1, NO_GROUP);
        }
        self.slot_group[slot] = id as u32;
        let g = &mut self.groups[id];
        if g.rows == 0 || slot < g.first {
            g.first = slot;
        }
        g.rows += 1;
        self.fold(id, row, true);
    }

    /// Add `row`'s cells to group `id`'s accumulators, or subtract them.
    fn fold(&mut self, id: usize, row: &[Value], add: bool) {
        let accs = &mut self.accs[id * self.width..(id + 1) * self.width];
        for (acc, v) in accs.iter_mut().zip(row) {
            let (n, sum, abs) = match v {
                Value::Null => continue,
                Value::Int(i) | Value::Timestamp(i) => (1, i128::from(*i), i.unsigned_abs().into()),
                _ => (1, 0, 0),
            };
            if add {
                (acc.nonnull, acc.sum, acc.abs) = (acc.nonnull + n, acc.sum + sum, acc.abs + abs);
            } else {
                (acc.nonnull, acc.sum, acc.abs) = (acc.nonnull - n, acc.sum - sum, acc.abs - abs);
            }
        }
    }

    /// Slot `rid`, which held `row`, was emptied.
    fn remove(&mut self, rid: RowId, row: &[Value]) {
        let slot = rid as usize;
        let id = match self.slot_group.get_mut(slot) {
            Some(id) if *id != NO_GROUP => std::mem::replace(id, NO_GROUP),
            _ => return,
        };
        let id = id as usize;
        self.fold(id, row, false);
        let g = &mut self.groups[id];
        g.rows -= 1;
        if g.rows == 0 {
            self.ids.remove(g.key.as_slice());
            self.free.push(id as u32);
        } else if g.first == slot {
            let after = &self.slot_group[slot + 1..];
            g.first = after
                .iter()
                .position(|&s| s == id as u32)
                .map_or(slot, |p| slot + 1 + p);
        }
    }
}

/// A table's grouped states, one per registered key set (see the module
/// docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupStates(Vec<Tracked>);

#[derive(Debug)]
struct Tracked {
    keys: Box<[usize]>,
    width: usize,
    state: OnceLock<GroupedAggs>,
}

/// A copy keeps the key set and drops the state.
impl Clone for Tracked {
    fn clone(&self) -> Self {
        let (keys, width) = (self.keys.clone(), self.width);
        Tracked {
            keys,
            width,
            state: OnceLock::new(),
        }
    }
}

impl GroupStates {
    /// Keep a state keyed by `keys` over the first `width` columns; a key
    /// set already kept is left as it is.
    pub(crate) fn track(&mut self, keys: &[usize], width: usize) {
        if !self.0.iter().any(|t| *t.keys == *keys) {
            self.0.push(Tracked {
                keys: keys.into(),
                width,
                state: OnceLock::new(),
            });
        }
    }

    /// The registered key sets with their widths.
    pub(crate) fn tracked(&self) -> impl Iterator<Item = (&[usize], usize)> {
        self.0.iter().map(|t| (&*t.keys, t.width))
    }

    /// The state keyed by exactly `keys`, built from `slots` on first use.
    pub(crate) fn get<I>(&self, keys: I, slots: &[Option<Row>]) -> Option<&GroupedAggs>
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: Clone,
    {
        let keys = keys.into_iter();
        let t = self
            .0
            .iter()
            .find(|t| t.keys.iter().copied().eq(keys.clone()))?;
        Some(
            t.state
                .get_or_init(|| GroupedAggs::build(&t.keys, t.width, slots)),
        )
    }

    /// The built states: nothing built is the one branch a table pays
    /// per mutation.
    #[inline]
    fn built_mut(&mut self) -> impl Iterator<Item = &mut GroupedAggs> {
        self.0.iter_mut().filter_map(|t| t.state.get_mut())
    }

    /// Slot `rid` now holds `row`.
    #[inline]
    pub(crate) fn add(&mut self, rid: RowId, row: &[Value]) {
        for s in self.built_mut() {
            s.add(rid, row);
        }
    }

    /// Slot `rid`, which held `row`, was emptied.
    #[inline]
    pub(crate) fn remove(&mut self, rid: RowId, row: &[Value]) {
        for s in self.built_mut() {
            s.remove(rid, row);
        }
    }

    /// Every slot is gone: the next read builds each state from no rows.
    pub(crate) fn clear(&mut self) {
        for t in &mut self.0 {
            t.state = OnceLock::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Table;
    use sstore_common::{Column, DataType, Row, Schema, Value};

    /// `(key, rows, [(count, sum)] per column)` for each live group, in
    /// first-slot order, recomputed from the slots.
    type Answer = Vec<(Vec<Value>, u64, Vec<(u64, i128)>)>;

    fn rescan(t: &Table, keys: &[usize], width: usize) -> Answer {
        let mut out: Answer = Vec::new();
        for (_, row) in t.scan() {
            let key: Vec<Value> = keys.iter().map(|&k| row[k].clone()).collect();
            let at = match out.iter().position(|g| g.0 == key) {
                Some(at) => at,
                None => {
                    out.push((key, 0, vec![(0, 0); width]));
                    out.len() - 1
                }
            };
            out[at].1 += 1;
            for (acc, v) in out[at].2.iter_mut().zip(row.iter()) {
                if !v.is_null() {
                    acc.0 += 1;
                    acc.1 += i128::from(v.as_int().unwrap_or(0));
                }
            }
        }
        out
    }

    fn answer(t: &Table, keys: &[usize], width: usize) -> Answer {
        let state = t.group_state(keys.iter().copied()).unwrap();
        (state.groups().iter())
            .map(|g| {
                let cols =
                    (0..width).map(|c| (g.count(c).unwrap(), g.int_sum(c, u128::MAX).unwrap()));
                (g.key.to_vec(), g.rows, cols.collect())
            })
            .collect()
    }

    /// Every mutator keeps a built state equal to a rescan, groups in
    /// first-slot order, through slot reuse, key moves, in-place writes,
    /// restores and truncation.
    #[test]
    fn mutators_keep_grouped_states_equal_to_a_rescan() {
        let schema = Schema::keyless(vec![
            Column::nullable("k", DataType::Int),
            Column::nullable("v", DataType::Int),
            Column::new("hidden", DataType::Int),
        ])
        .unwrap();
        let mut t = Table::new("w", schema);
        t.track_groups(&[], 2);
        t.track_groups(&[0], 2);
        t.track_groups(&[0, 1], 2);
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut deleted: Vec<(u64, Row)> = Vec::new();
        for step in 0..2_000 {
            let cell = |x: u64| {
                if x == 0 {
                    Value::Null
                } else {
                    Value::Int(x as i64 - 3)
                }
            };
            let live: Vec<u64> = t.scan().map(|(rid, _)| rid).collect();
            let pick = |x: u64| live[x as usize % live.len().max(1)];
            match draw(20) {
                0..=7 => {
                    let row = [cell(draw(6)), cell(draw(9)), Value::Int(step)];
                    t.insert(Row::from(row)).unwrap();
                }
                8..=10 if !live.is_empty() => {
                    let rid = pick(draw(1 << 20));
                    deleted.push((rid, t.delete(rid).unwrap()));
                }
                11..=12 if !deleted.is_empty() => {
                    // Undo restores in reverse delete order.
                    let (rid, row) = deleted.pop().unwrap();
                    if t.get(rid).is_none() {
                        t.restore(rid, row).unwrap();
                    }
                }
                13..=15 if !live.is_empty() => {
                    let rid = pick(draw(1 << 20));
                    let mut cells = [(0, cell(draw(6))), (1, cell(draw(9)))];
                    t.set_cells(rid, &mut cells[..1 + draw(2) as usize])
                        .unwrap();
                }
                16..=17 if !live.is_empty() => {
                    let rid = pick(draw(1 << 20));
                    let row = [cell(draw(6)), cell(draw(9)), Value::Int(-step)];
                    t.update(rid, Row::from(row)).unwrap();
                }
                18 if draw(50) == 0 => {
                    t.truncate();
                    deleted.clear();
                }
                _ => {}
            }
            for keys in [&[][..], &[0], &[0, 1]] {
                assert_eq!(
                    answer(&t, keys, 2),
                    rescan(&t, keys, 2),
                    "{keys:?} at step {step}"
                );
            }
        }
    }

    /// A cloned table keeps its key sets and builds their states anew.
    #[test]
    fn a_clone_keeps_key_sets_and_rebuilds_states() {
        let schema = Schema::keyless(vec![Column::new("k", DataType::Int)]).unwrap();
        let mut t = Table::new("w", schema);
        t.track_groups(&[0], 1);
        for k in [3, 1, 3, 2] {
            t.insert(Row::from([Value::Int(k)])).unwrap();
        }
        assert_eq!(answer(&t, &[0], 1).len(), 3);
        let copy = t.clone();
        assert_eq!(answer(&copy, &[0], 1), rescan(&t, &[0], 1));
        assert!(copy.group_state([1]).is_none());
    }
}
