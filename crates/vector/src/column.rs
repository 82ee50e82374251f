//! Typed column vectors, validity bitmaps, and the row → column pivot.
//!
//! A [`Column`] is written one lane at a time ([`Column::set`]): that one
//! writer serves both the cold row → column pivot ([`build_batch`]) and
//! the storage layer's resident column mirror, so a cell that does not
//! fit its lane demotes either of them the same way.
//!
//! A [`ColumnBatch`] is the unit of work between vectorized operators: a
//! set of equal-length columns plus an implicit row count. Columns the
//! planner proved unused are `None` (pruned) so the scan never pays for
//! them. Each [`Column`] stores one native lane (`Vec<i64>`, `Vec<f64>`,
//! …) plus an optional validity [`Bitmap`]; NULL cells hold a default in
//! the lane and a cleared validity bit. Cells whose runtime type does not
//! match the rest of the column (possible because table cells are dynamic
//! [`Value`]s) demote the whole column to a [`ColumnData::Generic`] lane of
//! boxed values — correctness is never lost, only the fast kernels.

use sstore_common::{DataType, Value};

/// Fixed-length bitmap, one bit per row. Used for column validity
/// (bit set = value present, clear = NULL).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` bits, all set.
    pub fn new_set(len: usize) -> Self {
        Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        }
    }

    /// A bitmap of `len` bits, all clear.
    pub fn new_clear(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Write bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Grow to `len` bits; the new bits are set.
    pub fn grow_set(&mut self, len: usize) {
        debug_assert!(len >= self.len);
        let old = self.len;
        self.words.resize(len.div_ceil(64), u64::MAX);
        self.len = len;
        // Bits of the old last word past `old` hold whatever the
        // constructor left there.
        for i in old..len.min(old.next_multiple_of(64)) {
            self.set(i, true);
        }
    }

    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

/// Reads bit `i` of an optional validity bitmap; absent bitmap = all valid.
#[inline]
pub fn valid_at(v: Option<&Bitmap>, i: usize) -> bool {
    v.is_none_or(|b| b.get(i))
}

/// The native lane behind a [`Column`].
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers (`Value::Int`).
    Int(Vec<i64>),
    /// 64-bit floats (`Value::Float`).
    Float(Vec<f64>),
    /// Booleans (`Value::Bool`).
    Bool(Vec<bool>),
    /// UTF-8 strings (`Value::Text`).
    Text(Vec<String>),
    /// Microsecond timestamps (`Value::Timestamp`), lane-compatible with Int.
    Timestamp(Vec<i64>),
    /// Mixed-type escape hatch: boxed values, no fast kernels.
    Generic(Vec<Value>),
}

impl ColumnData {
    /// An empty lane of the native type behind `ty`.
    fn empty(ty: DataType) -> ColumnData {
        match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Text => ColumnData::Text(Vec::new()),
            DataType::Timestamp => ColumnData::Timestamp(Vec::new()),
        }
    }

    /// Number of cells in the lane.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d.len(),
            ColumnData::Float(d) => d.len(),
            ColumnData::Bool(d) => d.len(),
            ColumnData::Text(d) => d.len(),
            ColumnData::Generic(d) => d.len(),
        }
    }

    /// True when the lane has zero cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserve room for `additional` more cells.
    fn reserve(&mut self, additional: usize) {
        match self {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d.reserve(additional),
            ColumnData::Float(d) => d.reserve(additional),
            ColumnData::Bool(d) => d.reserve(additional),
            ColumnData::Text(d) => d.reserve(additional),
            ColumnData::Generic(d) => d.reserve(additional),
        }
    }

    /// Resize to `len` cells; new cells hold the lane's default.
    fn resize(&mut self, len: usize) {
        match self {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d.resize(len, 0),
            ColumnData::Float(d) => d.resize(len, 0.0),
            ColumnData::Bool(d) => d.resize(len, false),
            ColumnData::Text(d) => d.resize(len, String::new()),
            ColumnData::Generic(d) => d.resize(len, Value::Null),
        }
    }
}

/// One column of a batch: a typed lane plus optional validity. A missing
/// validity bitmap means every cell is non-NULL.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// The typed cell storage.
    pub data: ColumnData,
    /// Per-cell validity; `None` = all valid.
    pub validity: Option<Bitmap>,
}

impl Column {
    /// A column of `len` default cells, all valid, typed for `ty`.
    pub fn typed(ty: DataType, len: usize) -> Column {
        let mut data = ColumnData::empty(ty);
        data.resize(len);
        Column {
            data,
            validity: None,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has zero cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True when cell `i` is NULL. Generic lanes may hold `Value::Null`
    /// directly, so both the bitmap and the cell are consulted.
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        if !valid_at(self.validity.as_ref(), i) {
            return true;
        }
        matches!(&self.data, ColumnData::Generic(d) if d[i] == Value::Null)
    }

    /// Materialize cell `i` back into a dynamic [`Value`].
    pub fn value_at(&self, i: usize) -> Value {
        if !valid_at(self.validity.as_ref(), i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(d) => Value::Int(d[i]),
            ColumnData::Float(d) => Value::Float(d[i]),
            ColumnData::Bool(d) => Value::Bool(d[i]),
            ColumnData::Text(d) => Value::Text(d[i].clone()),
            ColumnData::Timestamp(d) => Value::Timestamp(d[i]),
            ColumnData::Generic(d) => d[i].clone(),
        }
    }

    /// Grow to `len` cells; the new cells are valid defaults.
    pub fn grow(&mut self, len: usize) {
        self.data.resize(len);
        if let Some(v) = &mut self.validity {
            v.grow_set(len);
        }
    }

    /// Write `v` into cell `i`, growing the column when `i` is at or past
    /// its end. NULL clears the validity bit and leaves a default in the
    /// lane; a non-NULL cell whose type is not the lane's demotes the
    /// whole column to `Generic` first.
    pub fn set(&mut self, i: usize, v: &Value) {
        fn put<T>(d: &mut Vec<T>, i: usize, x: T) {
            if i == d.len() {
                d.push(x);
            } else {
                d[i] = x;
            }
        }
        if i > self.len() {
            self.grow(i);
        }
        match (&mut self.data, v) {
            (_, Value::Null) => {
                if i == self.len() {
                    self.grow(i + 1);
                } else {
                    self.clear(i);
                }
                let len = self.len();
                self.validity
                    .get_or_insert_with(|| Bitmap::new_set(len))
                    .set(i, false);
                return;
            }
            (ColumnData::Int(d), Value::Int(x)) => put(d, i, *x),
            (ColumnData::Float(d), Value::Float(x)) => put(d, i, *x),
            (ColumnData::Bool(d), Value::Bool(x)) => put(d, i, *x),
            (ColumnData::Text(d), Value::Text(x)) => put(d, i, x.clone()),
            (ColumnData::Timestamp(d), Value::Timestamp(x)) => put(d, i, *x),
            (ColumnData::Generic(d), v) => put(d, i, v.clone()),
            // Type drift within the column.
            (_, v) => {
                let mut vals: Vec<Value> = (0..self.len()).map(|j| self.value_at(j)).collect();
                put(&mut vals, i, v.clone());
                self.data = ColumnData::Generic(vals);
            }
        }
        if let Some(validity) = &mut self.validity {
            if i == validity.len() {
                validity.grow_set(i + 1);
            } else {
                validity.set(i, true);
            }
        }
    }

    /// Append one cell.
    pub fn push(&mut self, v: &Value) {
        self.set(self.len(), v);
    }

    /// Put the lane's default into cell `i`, releasing a string's heap.
    /// Validity is left alone: the caller no longer reads the cell.
    pub fn clear(&mut self, i: usize) {
        match &mut self.data {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d[i] = 0,
            ColumnData::Float(d) => d[i] = 0.0,
            ColumnData::Bool(d) => d[i] = false,
            ColumnData::Text(d) => d[i] = String::new(),
            ColumnData::Generic(d) => d[i] = Value::Null,
        }
    }

    /// The cells at `idx`, in that order, as a new column.
    pub fn gather(&self, idx: &[u32]) -> Column {
        fn pick<T: Clone>(d: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| d[i as usize].clone()).collect()
        }
        let data = match &self.data {
            ColumnData::Int(d) => ColumnData::Int(pick(d, idx)),
            ColumnData::Float(d) => ColumnData::Float(pick(d, idx)),
            ColumnData::Bool(d) => ColumnData::Bool(pick(d, idx)),
            ColumnData::Text(d) => ColumnData::Text(pick(d, idx)),
            ColumnData::Timestamp(d) => ColumnData::Timestamp(pick(d, idx)),
            ColumnData::Generic(d) => ColumnData::Generic(pick(d, idx)),
        };
        let validity = self.validity.as_ref().map(|v| {
            let mut out = Bitmap::new_set(idx.len());
            for (o, &i) in idx.iter().enumerate() {
                if !v.get(i as usize) {
                    out.set(o, false);
                }
            }
            out
        });
        Column { data, validity }
    }

    /// Heap bytes held by the lane, its strings and the validity bitmap.
    pub fn heap_bytes(&self) -> usize {
        let lane = match &self.data {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d.capacity() * 8,
            ColumnData::Float(d) => d.capacity() * 8,
            ColumnData::Bool(d) => d.capacity(),
            ColumnData::Text(d) => {
                d.capacity() * std::mem::size_of::<String>()
                    + d.iter().map(String::capacity).sum::<usize>()
            }
            ColumnData::Generic(d) => {
                d.capacity() * std::mem::size_of::<Value>()
                    + d.iter()
                        .map(|v| match v {
                            Value::Text(s) => s.capacity(),
                            _ => 0,
                        })
                        .sum::<usize>()
            }
        };
        lane + self.validity.as_ref().map_or(0, Bitmap::heap_bytes)
    }
}

/// A set of equal-length columns. `columns[i] = None` means column `i`
/// was pruned by the planner (never referenced downstream); the slot is
/// kept so column indices still line up with the table schema.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    /// Row count (authoritative even when every column is pruned).
    pub rows: usize,
    /// One entry per schema column; `None` = pruned.
    pub columns: Vec<Option<Column>>,
}

impl ColumnBatch {
    /// The column at position `i`; panics if it was pruned (a planner bug,
    /// not a data condition).
    pub fn column(&self, i: usize) -> &Column {
        self.columns[i]
            .as_ref()
            .expect("column was pruned but is referenced")
    }
}

/// Per-column pivot state. The lane adopts the type of the first non-NULL
/// cell; until then only the length of the NULL prefix is known.
enum ColBuilder {
    Nulls(usize),
    Typed(Column),
}

impl ColBuilder {
    fn push(&mut self, v: &Value, rows: usize) {
        match (&mut *self, v.data_type()) {
            (ColBuilder::Nulls(n), None) => *n += 1,
            (ColBuilder::Nulls(n), Some(ty)) => {
                let n = *n;
                let mut col = Column::typed(ty, n);
                if n > 0 {
                    col.validity = Some(Bitmap::new_clear(n));
                }
                col.data.reserve(rows.saturating_sub(n));
                col.push(v);
                *self = ColBuilder::Typed(col);
            }
            (ColBuilder::Typed(col), _) => col.push(v),
        }
    }

    fn finish(self) -> Column {
        match self {
            // All cells NULL: an Int lane of defaults with an all-clear
            // validity region is equivalent and keeps numeric kernels usable.
            ColBuilder::Nulls(n) => Column {
                data: ColumnData::Int(vec![0; n]),
                validity: (n > 0).then(|| Bitmap::new_clear(n)),
            },
            ColBuilder::Typed(col) => col,
        }
    }
}

/// Pivot rows into a [`ColumnBatch`]. `arity` is the full schema width;
/// `needed` restricts which columns are materialized (`None` = all). The
/// row count must be known up front so validity bitmaps allocate once.
///
/// Rows shorter than `arity` contribute NULL for their missing trailing
/// columns (matches how the row interpreter treats short rows: absent
/// cells never compare equal to anything).
pub fn build_batch<'a, I>(
    arity: usize,
    rows: usize,
    needed: Option<&[usize]>,
    iter: I,
) -> ColumnBatch
where
    I: Iterator<Item = &'a [Value]>,
{
    let want: Vec<bool> = match needed {
        None => vec![true; arity],
        Some(idx) => {
            let mut w = vec![false; arity];
            for &i in idx {
                if i < arity {
                    w[i] = true;
                }
            }
            w
        }
    };
    let mut builders: Vec<Option<ColBuilder>> = want
        .iter()
        .map(|&w| w.then_some(ColBuilder::Nulls(0)))
        .collect();
    let mut n = 0usize;
    for row in iter {
        for (c, b) in builders.iter_mut().enumerate() {
            if let Some(b) = b {
                b.push(row.get(c).unwrap_or(&Value::Null), rows);
            }
        }
        n += 1;
    }
    debug_assert_eq!(n, rows, "build_batch row count mismatch");
    ColumnBatch {
        rows,
        columns: builders
            .into_iter()
            .map(|b| b.map(|b| b.finish()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_across_word_boundary() {
        let mut b = Bitmap::new_set(130);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        b.set(64, false);
        b.set(129, false);
        assert!(!b.get(64) && !b.get(129) && b.get(63) && b.get(128));
    }

    #[test]
    fn bitmap_grows_with_set_bits() {
        let mut b = Bitmap::new_clear(3);
        b.grow_set(70);
        assert!(!b.get(0) && !b.get(2));
        assert!((3..70).all(|i| b.get(i)));
    }

    #[test]
    fn set_overwrites_grows_and_tracks_nulls() {
        let mut c = Column::typed(DataType::Text, 0);
        c.set(2, &Value::Text("x".into()));
        assert_eq!(c.len(), 3);
        assert!(c.validity.is_none());
        assert_eq!(c.value_at(0), Value::Text(String::new()));
        c.set(0, &Value::Null);
        assert!(c.is_null_at(0) && !c.is_null_at(1) && !c.is_null_at(2));
        c.push(&Value::Text("y".into()));
        assert_eq!(c.value_at(3), Value::Text("y".into()));
        c.set(0, &Value::Text("z".into()));
        assert_eq!(c.value_at(0), Value::Text("z".into()));
        c.clear(2);
        assert_eq!(c.value_at(2), Value::Text(String::new()));
    }

    #[test]
    fn set_of_a_misfit_demotes_like_the_pivot() {
        let mut c = Column::typed(DataType::Float, 0);
        c.push(&Value::Float(1.5));
        c.push(&Value::Null);
        c.push(&Value::Int(2));
        let rows = [
            vec![Value::Float(1.5)],
            vec![Value::Null],
            vec![Value::Int(2)],
        ];
        let b = build_batch(1, 3, None, rows.iter().map(|r| r.as_slice()));
        assert_eq!(&c, b.column(0));
        assert!(matches!(c.data, ColumnData::Generic(_)));
    }

    #[test]
    fn gather_picks_cells_and_validity() {
        let mut c = Column::typed(DataType::Int, 0);
        for v in [Value::Int(5), Value::Null, Value::Int(7)] {
            c.push(&v);
        }
        let g = c.gather(&[2, 1, 2]);
        assert_eq!(g.value_at(0), Value::Int(7));
        assert!(g.is_null_at(1));
        assert_eq!(g.value_at(2), Value::Int(7));
        assert!(c.heap_bytes() >= 3 * 8);
    }

    #[test]
    fn build_batch_types_lanes_and_nulls() {
        let rows = [
            vec![Value::Int(1), Value::Null, Value::Text("a".into())],
            vec![Value::Int(2), Value::Float(1.5), Value::Null],
        ];
        let b = build_batch(3, 2, None, rows.iter().map(|r| r.as_slice()));
        assert_eq!(b.rows, 2);
        assert!(matches!(b.column(0).data, ColumnData::Int(_)));
        assert!(matches!(b.column(1).data, ColumnData::Float(_)));
        assert!(b.column(1).is_null_at(0) && !b.column(1).is_null_at(1));
        assert_eq!(b.column(2).value_at(0), Value::Text("a".into()));
        assert_eq!(b.column(2).value_at(1), Value::Null);
    }

    #[test]
    fn build_batch_prunes_columns() {
        let rows = [vec![Value::Int(1), Value::Int(2)]];
        let b = build_batch(2, 1, Some(&[1]), rows.iter().map(|r| r.as_slice()));
        assert!(b.columns[0].is_none());
        assert_eq!(b.column(1).value_at(0), Value::Int(2));
    }

    #[test]
    fn mixed_types_demote_to_generic() {
        let rows = [
            vec![Value::Int(1)],
            vec![Value::Text("x".into())],
            vec![Value::Null],
        ];
        let b = build_batch(1, 3, None, rows.iter().map(|r| r.as_slice()));
        assert!(matches!(b.column(0).data, ColumnData::Generic(_)));
        assert_eq!(b.column(0).value_at(0), Value::Int(1));
        assert_eq!(b.column(0).value_at(1), Value::Text("x".into()));
        assert!(b.column(0).is_null_at(2));
    }

    #[test]
    fn all_null_column_reads_as_null() {
        let rows = [vec![Value::Null], vec![Value::Null]];
        let b = build_batch(1, 2, None, rows.iter().map(|r| r.as_slice()));
        assert!(b.column(0).is_null_at(0) && b.column(0).is_null_at(1));
        assert_eq!(b.column(0).value_at(1), Value::Null);
    }

    #[test]
    fn short_rows_pad_with_null() {
        let rows: [Vec<Value>; 2] = [vec![Value::Int(1)], vec![Value::Int(2), Value::Int(9)]];
        let b = build_batch(2, 2, None, rows.iter().map(|r| r.as_slice()));
        assert!(b.column(1).is_null_at(0));
        assert_eq!(b.column(1).value_at(1), Value::Int(9));
    }
}
