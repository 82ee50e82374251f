//! Typed column vectors, validity bitmaps, and the row → column pivot.
//!
//! A [`Column`] is written one lane at a time ([`Column::set`]): that one
//! writer serves both the cold row → column pivot ([`build_batch`]) and
//! the storage layer's resident column mirror.
//!
//! A [`ColumnBatch`] is the unit of work between vectorized operators: a
//! set of equal-length columns plus an implicit row count. Columns the
//! planner proved unused are `None` (pruned) so the scan never pays for
//! them. Each [`Column`] stores one native lane (`Vec<i64>`, `Vec<f64>`,
//! …) plus an optional validity [`Bitmap`]; NULL cells hold a default in
//! the lane and a cleared validity bit. A lane has its column's declared
//! type: storage checks each cell where it enters a table, and the SQL
//! executor each value it computes, so [`Column::set`] need not.
//!
//! A TEXT lane is a [`TextLane`]: one `u32` code per cell and a shared
//! [`Dict`] holding each distinct string once. The dictionary counts the
//! cells that hold each code; a code no cell holds any more is released
//! and handed to the next new string, so a lane's dictionary never has
//! more entries than the lane has cells, however many strings have passed
//! through it. Kernels decide a text predicate once per dictionary entry
//! and group by code. Two lanes may number the same strings differently,
//! so lanes compare by their decoded strings.

use sstore_common::{hash::HashMap, DataType, Schema, Value};
use std::sync::Arc;

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
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Read bit `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
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
    pub(crate) fn grow_set(&mut self, len: usize) {
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
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// The bitwise AND of two bitmaps of one length.
    pub(crate) fn and(&self, other: &Bitmap) -> Bitmap {
        debug_assert_eq!(self.len, other.len);
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a & b);
        Bitmap {
            words: words.collect(),
            len: self.len,
        }
    }

    /// Clear each `mask[i]` whose bit `i` is clear.
    pub(crate) fn and_into(&self, mask: &mut [bool]) {
        for (&w, chunk) in self.words.iter().zip(mask.chunks_mut(64)) {
            for (j, m) in chunk.iter_mut().enumerate() {
                *m &= (w >> j) & 1 == 1;
            }
        }
    }
}

/// Reads bit `i` of an optional validity bitmap; absent bitmap = all valid.
#[inline]
pub fn valid_at(v: Option<&Bitmap>, i: usize) -> bool {
    v.is_none_or(|b| b.get(i))
}

/// The distinct strings of a [`TextLane`], each stored once under a dense
/// `u32` code, with the number of cells that hold each code.
#[derive(Debug, Clone, Default)]
pub struct Dict {
    /// Code → its string (`None` once released) and the cells holding it.
    entries: Vec<(Option<Arc<str>>, u32)>,
    /// String → code over the live entries, keyed by the `Arc` that
    /// `entries` holds, so a string's bytes are stored once.
    codes: HashMap<Arc<str>, u32>,
    /// Released codes, handed out before new ones.
    free: Vec<u32>,
}

impl Dict {
    /// Number of live entries: the distinct strings some cell holds.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when no cell holds a string.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The string behind `code`, which some cell holds.
    #[inline]
    pub(crate) fn get(&self, code: u32) -> &str {
        self.entries[code as usize]
            .0
            .as_deref()
            .expect("a cell's code is live")
    }

    /// `f` of every live entry's string, indexed by code; a released code
    /// gets `false`.
    pub(crate) fn per_code(&self, f: impl Fn(&str) -> bool) -> Vec<bool> {
        self.entries
            .iter()
            .map(|(s, _)| s.as_deref().is_some_and(&f))
            .collect()
    }

    /// The code of `s`, now held by `n` more cells.
    fn intern(&mut self, s: &str, n: u32) -> u32 {
        if let Some(&c) = self.codes.get(s) {
            self.entries[c as usize].1 += n;
            return c;
        }
        let s: Arc<str> = Arc::from(s);
        let entry = (Some(Arc::clone(&s)), n);
        let c = match self.free.pop() {
            Some(c) => {
                self.entries[c as usize] = entry;
                c
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        self.codes.insert(s, c);
        c
    }

    /// One cell fewer holds `code`; the last one releases it.
    fn release(&mut self, code: u32) {
        let (s, refs) = &mut self.entries[code as usize];
        *refs -= 1;
        if *refs == 0 {
            let s = s.take().expect("a held code is live");
            self.codes.remove(&s);
            self.free.push(code);
        }
    }

    /// Heap bytes held: the tables and one allocation per live string.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.entries.capacity() * size_of::<(Option<Arc<str>>, u32)>()
            + self.codes.capacity() * (size_of::<(Arc<str>, u32)>() + 1)
            + self.free.capacity() * size_of::<u32>()
            + self
                .codes
                .keys()
                .map(|s| 2 * size_of::<usize>() + s.len())
                .sum::<usize>()
    }
}

/// A TEXT lane: one [`Dict`] code per cell. Only [`Column`]'s writers
/// change it, so the dictionary's counts stay those of the lane's cells.
#[derive(Debug, Clone, Default)]
pub struct TextLane {
    codes: Vec<u32>,
    dict: Arc<Dict>,
    /// Made by [`Column::gather`]: the shared dictionary counts the cells
    /// of the lane gathered from, so the first write recounts.
    gathered: bool,
}

impl TextLane {
    /// The code of each cell.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The strings the codes name.
    pub fn dict(&self) -> &Dict {
        &self.dict
    }

    /// The string in cell `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        self.dict.get(self.codes[i])
    }

    /// The dictionary for a write, counting this lane's cells: a gathered
    /// lane first re-interns its cells into one of its own, and one that
    /// another lane still shares is copied.
    fn dict_mut(&mut self) -> &mut Dict {
        if self.gathered {
            let mut own = TextLane::default();
            for &c in &self.codes {
                own.put(own.codes.len(), self.dict.get(c));
            }
            *self = own;
        }
        Arc::make_mut(&mut self.dict)
    }

    /// Write `s` into cell `i`, or append it when `i` is the length. The
    /// new string is interned before the old code is released, so
    /// rewriting a cell with its own string frees nothing.
    fn put(&mut self, i: usize, s: &str) {
        let c = self.dict_mut().intern(s, 1);
        match self.codes.get_mut(i) {
            Some(old) => {
                let old = std::mem::replace(old, c);
                Arc::make_mut(&mut self.dict).release(old);
            }
            None => self.codes.push(c),
        }
    }

    /// Grow to `len` cells holding the empty string.
    fn grow(&mut self, len: usize) {
        if len > self.codes.len() {
            let n = (len - self.codes.len()) as u32;
            let c = self.dict_mut().intern("", n);
            self.codes.resize(len, c);
        }
    }
}

/// Lanes are equal when their cells decode to the same strings, whatever
/// their codes.
impl PartialEq for TextLane {
    fn eq(&self, other: &Self) -> bool {
        self.codes.len() == other.codes.len()
            && (0..self.codes.len()).all(|i| self.get(i) == other.get(i))
    }
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
    /// UTF-8 strings (`Value::Text`), dictionary-coded.
    Text(TextLane),
    /// Microsecond timestamps (`Value::Timestamp`), lane-compatible with Int.
    Timestamp(Vec<i64>),
}

impl ColumnData {
    /// An empty lane of the native type behind `ty`.
    fn empty(ty: DataType) -> ColumnData {
        match ty {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Text => ColumnData::Text(TextLane::default()),
            DataType::Timestamp => ColumnData::Timestamp(Vec::new()),
        }
    }

    /// Number of cells in the lane.
    pub(crate) fn len(&self) -> usize {
        match self {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d.len(),
            ColumnData::Float(d) => d.len(),
            ColumnData::Bool(d) => d.len(),
            ColumnData::Text(l) => l.codes.len(),
        }
    }

    /// Reserve room for `additional` more cells.
    fn reserve(&mut self, additional: usize) {
        match self {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d.reserve(additional),
            ColumnData::Float(d) => d.reserve(additional),
            ColumnData::Bool(d) => d.reserve(additional),
            ColumnData::Text(l) => l.codes.reserve(additional),
        }
    }

    /// Grow to `len` cells; new cells hold the lane's default.
    fn grow(&mut self, len: usize) {
        match self {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d.resize(len, 0),
            ColumnData::Float(d) => d.resize(len, 0.0),
            ColumnData::Bool(d) => d.resize(len, false),
            ColumnData::Text(l) => l.grow(len),
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
        data.grow(len);
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
        self.data.len() == 0
    }

    /// True when cell `i` is NULL.
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        !valid_at(self.validity.as_ref(), i)
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
            ColumnData::Text(l) => Value::Text(l.get(i).to_owned()),
            ColumnData::Timestamp(d) => Value::Timestamp(d[i]),
        }
    }

    /// Grow to `len` cells; the new cells are valid defaults.
    pub fn grow(&mut self, len: usize) {
        self.data.grow(len);
        if let Some(v) = &mut self.validity {
            v.grow_set(len);
        }
    }

    /// Write `v` into cell `i`, growing the column when `i` is at or past
    /// its end. NULL clears the validity bit and leaves a default in the
    /// lane. Any other cell has the lane's type (see the module docs); a
    /// misfit fails a debug assertion, and a release build stores NULL.
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
            (ColumnData::Int(d), Value::Int(x)) => put(d, i, *x),
            (ColumnData::Float(d), Value::Float(x)) => put(d, i, *x),
            (ColumnData::Bool(d), Value::Bool(x)) => put(d, i, *x),
            (ColumnData::Text(l), Value::Text(x)) => l.put(i, x),
            (ColumnData::Timestamp(d), Value::Timestamp(x)) => put(d, i, *x),
            (_, v) => {
                debug_assert!(v.is_null(), "{v} does not fit its lane");
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
        }
        if let Some(validity) = &mut self.validity {
            if i == validity.len() {
                validity.grow_set(i + 1);
            } else {
                validity.set(i, true);
            }
        }
    }

    /// Put the lane's default into cell `i`, releasing a string's code.
    /// Validity is left alone: the caller no longer reads the cell.
    pub fn clear(&mut self, i: usize) {
        match &mut self.data {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d[i] = 0,
            ColumnData::Float(d) => d[i] = 0.0,
            ColumnData::Bool(d) => d[i] = false,
            ColumnData::Text(l) => l.put(i, ""),
        }
    }

    /// The cells at `idx`, in that order, as a new column. A TEXT lane
    /// copies its codes and shares its dictionary.
    pub fn gather(&self, idx: &[u32]) -> Column {
        fn pick<T: Clone>(d: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| d[i as usize].clone()).collect()
        }
        let data = match &self.data {
            ColumnData::Int(d) => ColumnData::Int(pick(d, idx)),
            ColumnData::Float(d) => ColumnData::Float(pick(d, idx)),
            ColumnData::Bool(d) => ColumnData::Bool(pick(d, idx)),
            ColumnData::Text(l) => ColumnData::Text(TextLane {
                codes: pick(&l.codes, idx),
                dict: Arc::clone(&l.dict),
                gathered: true,
            }),
            ColumnData::Timestamp(d) => ColumnData::Timestamp(pick(d, idx)),
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

    /// Heap bytes held by the lane, its dictionary or strings, and the
    /// validity bitmap.
    pub fn heap_bytes(&self) -> usize {
        let lane = match &self.data {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d.capacity() * 8,
            ColumnData::Float(d) => d.capacity() * 8,
            ColumnData::Bool(d) => d.capacity(),
            ColumnData::Text(l) => l.codes.capacity() * 4 + l.dict.heap_bytes(),
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

/// Pivot rows into a [`ColumnBatch`] with one lane per `schema` column
/// of its declared type. `needed` restricts which columns are materialized
/// (`None` = all). The row count must be known up front so lanes allocate
/// once.
///
/// Rows shorter than the schema contribute NULL for their missing trailing
/// columns (matches how the row interpreter treats short rows: absent
/// cells never compare equal to anything).
pub fn build_batch<'a, I>(
    schema: &Schema,
    rows: usize,
    needed: Option<&[usize]>,
    iter: I,
) -> ColumnBatch
where
    I: Iterator<Item = &'a [Value]>,
{
    let mut columns: Vec<Option<Column>> = vec![None; schema.arity()];
    for c in needed.map_or_else(|| (0..schema.arity()).collect(), <[usize]>::to_vec) {
        if let Some(decl) = schema.columns().get(c) {
            let mut col = Column::typed(decl.ty, 0);
            col.data.reserve(rows);
            columns[c] = Some(col);
        }
    }
    let mut n = 0usize;
    for row in iter {
        for (c, col) in columns.iter_mut().enumerate() {
            if let Some(col) = col {
                col.set(col.len(), row.get(c).unwrap_or(&Value::Null));
            }
        }
        n += 1;
    }
    debug_assert_eq!(n, rows, "build_batch row count mismatch");
    ColumnBatch { rows, columns }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A keyless schema of nullable columns of these types.
    fn schema(types: &[DataType]) -> Schema {
        let cols = types.iter().enumerate();
        let cols = cols.map(|(i, &ty)| sstore_common::Column::nullable(format!("c{i}"), ty));
        Schema::keyless(cols.collect()).unwrap()
    }

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
        c.set(c.len(), &Value::Text("y".into()));
        assert_eq!(c.value_at(3), Value::Text("y".into()));
        c.set(0, &Value::Text("z".into()));
        assert_eq!(c.value_at(0), Value::Text("z".into()));
        c.clear(2);
        assert_eq!(c.value_at(2), Value::Text(String::new()));
    }

    fn text(c: &Column) -> &TextLane {
        match &c.data {
            ColumnData::Text(l) => l,
            other => panic!("not a TEXT lane: {other:?}"),
        }
    }

    #[test]
    fn text_codes_are_released_and_reused() {
        let mut c = Column::typed(DataType::Text, 3);
        assert_eq!(text(&c).dict().len(), 1, "three empty strings, one entry");
        for (i, s) in ["a", "b", "a"].into_iter().enumerate() {
            c.set(i, &Value::Text(s.into()));
        }
        // The empty string lost its last cell.
        assert_eq!(text(&c).dict().len(), 2);
        assert_eq!(text(&c).codes(), &[1, 2, 1]);
        // Rewriting a cell with its own string keeps its code.
        c.set(1, &Value::Text("b".into()));
        assert_eq!(text(&c).codes()[1], 2);
        // "c" takes the empty string's released code, and "b" is released
        // after it is interned; the next new string reuses "b"'s code.
        c.set(1, &Value::Text("c".into()));
        assert_eq!(text(&c).codes(), &[1, 0, 1]);
        assert_eq!(text(&c).dict().len(), 2);
        c.set(0, &Value::Null);
        assert_eq!(text(&c).codes()[0], 2, "NULL's empty string");
        assert_eq!(c.value_at(0), Value::Null);
        c.clear(2);
        c.clear(1);
        assert_eq!(text(&c).dict().len(), 1);
        assert_eq!(text(&c).codes(), &[2, 2, 2]);
        assert_eq!(text(&c).get(1), "");
    }

    #[test]
    fn text_lanes_compare_by_strings_and_gathers_recount_before_a_write() {
        let mut a = Column::typed(DataType::Text, 0);
        let mut b = Column::typed(DataType::Text, 0);
        for s in ["x", "y", "x"] {
            a.set(a.len(), &Value::Text(s.into()));
        }
        for s in ["y", "x", "x", "y"] {
            b.set(b.len(), &Value::Text(s.into()));
        }
        assert_ne!(a, b);
        // The same strings under other codes.
        let b = b.gather(&[2, 0, 1]);
        assert_ne!(text(&a).codes(), text(&b).codes());
        assert_eq!(a, b);

        // The gathered lane shares `a`'s dictionary and its counts, which
        // are not its own: "x" is in two of `a`'s cells but four of `g`'s.
        let mut g = a.gather(&[0, 0, 2, 2, 1]);
        assert!(Arc::ptr_eq(&text(&g).dict, &text(&a).dict));
        for i in 0..4 {
            g.set(i, &Value::Text("z".into()));
        }
        let cells: Vec<Value> = (0..5).map(|i| g.value_at(i)).collect();
        let want = ["z", "z", "z", "z", "y"].map(|s| Value::Text(s.into()));
        assert_eq!(cells, want);
        assert_eq!(text(&g).dict().len(), 2);
        assert_eq!(a.value_at(0), Value::Text("x".into()));
        assert_eq!(text(&a).dict().len(), 2);
    }

    #[test]
    fn gather_picks_cells_and_validity() {
        let mut c = Column::typed(DataType::Int, 0);
        for v in [Value::Int(5), Value::Null, Value::Int(7)] {
            c.set(c.len(), &v);
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
        let b = build_batch(
            &schema(&[DataType::Int, DataType::Float, DataType::Text]),
            2,
            None,
            rows.iter().map(|r| r.as_slice()),
        );
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
        let b = build_batch(
            &schema(&[DataType::Int; 2]),
            1,
            Some(&[1]),
            rows.iter().map(|r| r.as_slice()),
        );
        assert!(b.columns[0].is_none());
        assert_eq!(b.column(1).value_at(0), Value::Int(2));
    }

    #[test]
    fn all_null_column_reads_as_null() {
        let rows = [vec![Value::Null], vec![Value::Null]];
        let b = build_batch(
            &schema(&[DataType::Bool]),
            2,
            None,
            rows.iter().map(|r| r.as_slice()),
        );
        assert!(b.column(0).is_null_at(0) && b.column(0).is_null_at(1));
        assert_eq!(b.column(0).value_at(1), Value::Null);
    }

    #[test]
    fn short_rows_pad_with_null() {
        let rows: [Vec<Value>; 2] = [vec![Value::Int(1)], vec![Value::Int(2), Value::Int(9)]];
        let b = build_batch(
            &schema(&[DataType::Int; 2]),
            2,
            None,
            rows.iter().map(|r| r.as_slice()),
        );
        assert!(b.column(1).is_null_at(0));
        assert_eq!(b.column(1).value_at(1), Value::Int(9));
    }
}
