//! The resident column mirror of a [`Table`](crate::Table).
//!
//! The vectorized executor reads columns, the table stores rows. Instead
//! of pivoting rows into a batch on every query, a table keeps, for each
//! column a vector scan has ever asked for, a [`Column`] whose lane *i*
//! is slot *i*: built once from the slots, then patched in O(1) per lane
//! by the table's five mutators — the ones that feed the slot-op journal,
//! so undo rollback and delta replay maintain it too. Lanes of free slots
//! hold defaults and are never selected (`Table::live_mask`). A lane has
//! its column's declared type, and so does every cell a slot holds: the
//! mutators store only rows `Schema::validate` passed, and
//! `Table::decode_binary` refuses an image holding any other cell. So
//! building and patching a lane ([`Column::set`]) cannot fail.
//!
//! The mirror is **not state**: it is never serialized, compared or
//! journaled, a cloned or decoded table starts without one, and it is
//! rebuilt on first use.
//!
//! Beside the columns it keeps a liveness mask, one `bool` per slot, that
//! the same mutators patch: a vector scan of a table with free slots
//! starts from it as its selection (`Table::live_mask`).
//!
//! Readers only hold `&Table` (every read path reaches storage through
//! `ExecContext::db`), so columns are built behind `OnceLock`s at the
//! point of use rather than in a `&mut` pass over the plan beforehand,
//! which would have to repeat the executor's column pruning and be
//! threaded through every entry point. Mutators hold `&mut Table` and go
//! through `get_mut`: no lock and no atomic write on the write path, and
//! a table no vector scan has touched pays one branch per mutation.

use crate::index::RowId;
use sstore_common::{Row, Schema, Value};
use sstore_vector::Column;
use std::sync::OnceLock;

/// See the module docs. The outer cell is set by the first vector scan
/// that reads a column; the inner ones, one per schema column, by the
/// first scan that reads that column; the mask by the first scan of a
/// table with a free slot.
#[derive(Default)]
pub(crate) struct Mirror {
    cols: OnceLock<Box<[OnceLock<Column>]>>,
    live: OnceLock<Vec<bool>>,
}

/// A copy of a table starts without a mirror.
impl Clone for Mirror {
    fn clone(&self) -> Self {
        Mirror::default()
    }
}

impl std::fmt::Debug for Mirror {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mirror({} built)", self.built())
    }
}

impl Mirror {
    /// Column `c` with one lane per slot, built on first use.
    pub(crate) fn column(&self, s: &Schema, slots: &[Option<Row>], c: usize) -> &Column {
        let cols = self
            .cols
            .get_or_init(|| (0..s.arity()).map(|_| OnceLock::new()).collect());
        cols[c].get_or_init(|| {
            let mut col = Column::typed(s.columns()[c].ty, slots.len());
            for (i, row) in slots.iter().enumerate() {
                if let Some(row) = row {
                    col.set(i, row.get(c).unwrap_or(&Value::Null));
                }
            }
            col
        })
    }

    /// One flag per slot, set where the slot holds a row; built on first
    /// use.
    pub(crate) fn live(&self, slots: &[Option<Row>]) -> &[bool] {
        self.live
            .get_or_init(|| slots.iter().map(Option::is_some).collect())
    }

    /// The built columns with their schema positions. Nothing built is
    /// the one branch an unmirrored table pays per mutation.
    #[inline]
    fn built_mut(&mut self) -> impl Iterator<Item = (usize, &mut Column)> {
        self.cols
            .get_mut()
            .into_iter()
            .flat_map(|cols| cols.iter_mut().enumerate())
            .filter_map(|(c, col)| col.get_mut().map(|col| (c, col)))
    }

    /// Slot `rid` now holds `row`.
    #[inline]
    pub(crate) fn write(&mut self, rid: RowId, row: &Row) {
        for (c, col) in self.built_mut() {
            col.set(rid as usize, row.get(c).unwrap_or(&Value::Null));
        }
        if let Some(live) = self.live.get_mut() {
            let i = rid as usize;
            if i >= live.len() {
                live.resize(i + 1, false);
            }
            live[i] = true;
        }
    }

    /// Slot `rid` was freed.
    #[inline]
    pub(crate) fn free(&mut self, rid: RowId) {
        for (_, col) in self.built_mut() {
            col.clear(rid as usize);
        }
        if let Some(live) = self.live.get_mut() {
            live[rid as usize] = false;
        }
    }

    /// The slot array now has `lanes` slots, the new ones free.
    pub(crate) fn grow(&mut self, lanes: usize) {
        for (_, col) in self.built_mut() {
            col.grow(lanes);
        }
        if let Some(live) = self.live.get_mut() {
            live.resize(lanes, false);
        }
    }

    /// Every slot is gone.
    pub(crate) fn truncate(&mut self, schema: &Schema) {
        for (c, col) in self.built_mut() {
            *col = Column::typed(schema.columns()[c].ty, 0);
        }
        if let Some(live) = self.live.get_mut() {
            live.clear();
        }
    }

    /// How many columns have been built.
    pub(crate) fn built(&self) -> usize {
        self.cols
            .get()
            .map_or(0, |cols| cols.iter().filter(|c| c.get().is_some()).count())
    }

    /// Heap bytes held by the built columns and the liveness mask.
    pub(crate) fn heap_bytes(&self) -> usize {
        let cols = self.cols.get().map_or(0, |cols| {
            cols.iter()
                .filter_map(OnceLock::get)
                .map(Column::heap_bytes)
                .sum()
        });
        cols + self.live.get().map_or(0, Vec::capacity)
    }
}
