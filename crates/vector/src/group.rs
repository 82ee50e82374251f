//! Grouping kernels: `GROUP BY` keys, and per-group reductions over
//! argument lanes.
//!
//! [`Groups::of`] groups the selected rows by one key column, in order of
//! first appearance over the selection — the order the row interpreter's
//! hash aggregate emits groups in — with NULL as a key of its own;
//! [`Groups::and`] refines by a further key column; [`Groups::all`] is the
//! ungrouped aggregate's single group. The reductions then run one typed
//! loop per aggregate, each bit-identical to the row path's accumulator
//! fed the group's rows in selection (= row) order: NULL cells are
//! skipped, `SUM` over ints is checked, floats accumulate sequentially,
//! `MIN`/`MAX` keep the first value on ties. `COUNT` and the int `SUM`
//! keep no `Option` and take no branch per row: an unselected or NULL
//! cell counts as nothing and adds zero, and `SUM`'s overflow check is a
//! flag tested once after the loop.
//!
//! An `Int` or `Timestamp` key lane whose valid selected keys span no more
//! values (`max − min + 1`) than there are selected rows — every row,
//! under a mask — is **dense**: each reduction keeps one accumulator per
//! key at `key − min`, plus one for NULL, and reads the key lane in the
//! same pass that adds. Grouping it is a pass that finds the range and a
//! pass that orders the keys by first appearance, which stops once every
//! key of the range has appeared. No group id is written per row, and no
//! key is hashed.
//!
//! Wider lanes, lanes with no valid selected key, and every other key type
//! (a TEXT lane by its dictionary codes) number their rows through a
//! `HashMap` into a row-aligned id lane. Both ways give the same groups.

use crate::column::{valid_at, Bitmap, Column, ColumnData};
use crate::compute::NumSrc;
use crate::Sel;
use sstore_common::{Error, Result};
use std::collections::HashMap;
use std::hash::Hash;

/// A partition of the selected rows into groups. A reduction must be
/// given the selection the groups were made over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Groups<'a> {
    by: By<'a>,
    /// The first selected row of each group, in group order.
    pub first: Vec<u32>,
}

/// How a row finds its accumulator, its *bucket*.
#[derive(Debug, Clone, PartialEq, Eq)]
enum By<'a> {
    /// One bucket: the ungrouped aggregate.
    One,
    /// Row-aligned: the group, and bucket, of each selected row.
    Ids(Vec<u32>),
    /// A dense key lane: bucket `key − min`, or `span` for a NULL key.
    Dense(Dense<'a>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Dense<'a> {
    keys: &'a [i64],
    validity: Option<&'a Bitmap>,
    min: i64,
    span: usize,
    /// The bucket of each group, in group order.
    order: Vec<u32>,
}

impl Dense<'_> {
    /// The bucket of row `i`. A key outside the range — only an
    /// unselected lane under a mask has one — lands in the NULL bucket,
    /// which it then adds nothing to.
    #[inline]
    fn bucket(&self, i: usize, valid: bool) -> usize {
        let at = self.keys[i].wrapping_sub(self.min) as u64;
        if valid {
            at.min(self.span as u64) as usize
        } else {
            self.span
        }
    }
}

/// SUM, its overflow flag and the row count of the cells of `d` under
/// `mask`, as [`Groups::sum_int`] defines them for one group without NULLs.
///
/// The mask is taken a block of lanes at a time. After a sparse block (one
/// lane in sixteen set, or fewer) the next is read sparsely: its set lanes
/// are found eight at a time from the set bytes of a word, and no other
/// cell is read. Otherwise the block is summed with no check per row, a
/// loop the compiler vectorizes, when no prefix sum inside it can leave
/// `i64`: every masked cell `v` has `|v| ≤ 2^b`, `b` the bit length of the
/// OR of `v ^ (v >> 63)` over the block, so its prefix sums stay within
/// `len · 2^b` of the total before it. A block that could overflow is
/// added again row by row.
fn masked_sum(d: &[i64], mask: &[bool]) -> (i64, bool, i64) {
    const BLOCK: usize = 256;
    let (mut total, mut overflow, mut n) = (0i64, false, 0i64);
    let mut sparse = false;
    for (xs, ks) in d.chunks(BLOCK).zip(mask.chunks(BLOCK)) {
        let mut set = 0i64;
        if sparse && xs.len() == BLOCK {
            for (xs, ks) in xs.chunks_exact(8).zip(ks.chunks_exact(8)) {
                let mut word = u64::from_le_bytes(std::array::from_fn(|j| ks[j] as u8));
                while word != 0 {
                    let o;
                    (total, o) = total.overflowing_add(xs[word.trailing_zeros() as usize / 8]);
                    overflow |= o;
                    set += 1;
                    word &= word - 1;
                }
            }
        } else {
            let (mut sum, mut bits) = (0i64, 0u64);
            for (&x, &k) in xs.iter().zip(ks) {
                let v = x & (k as i64).wrapping_neg();
                sum = sum.wrapping_add(v);
                bits |= (v ^ (v >> 63)) as u64;
                set += k as i64;
            }
            let reach = (xs.len() as i128) << (64 - bits.leading_zeros());
            let t = i128::from(total);
            if t - reach >= i128::from(i64::MIN) && t + reach <= i128::from(i64::MAX) {
                total = total.wrapping_add(sum);
            } else {
                for (&x, &k) in xs.iter().zip(ks) {
                    let (s, o) = total.overflowing_add(x);
                    total = if k { s } else { total };
                    overflow |= o & k;
                }
            }
        }
        n += set;
        sparse = set as usize * 16 <= BLOCK;
    }
    (total, overflow, n)
}

/// SUM and row count per bucket of every row of a dense lane without
/// NULLs — the common `GROUP BY` — or `None` when some prefix sum could
/// leave `i64`. Rows go to four tables in turn, so that consecutive rows
/// rarely wait on one bucket's store, and no add is checked: with every
/// `|cell| ≤ 2^b` (the bound of [`masked_sum`]), no sum of `d.len()` cells
/// leaves `i64` when `d.len() · 2^b` does not.
fn dense_sum(dk: &Dense, d: &[i64]) -> Option<Vec<(i64, i64)>> {
    let n = dk.span + 1;
    let mut acc = vec![(0i64, 0i64); 4 * n];
    let mut bits = 0u64;
    let (span, min) = (dk.span as u64, dk.min);
    let mut add = |t: usize, k: i64, x: i64| {
        let a = &mut acc[t * n + (k.wrapping_sub(min) as u64).min(span) as usize];
        *a = (a.0.wrapping_add(x), a.1 + 1);
        bits |= (x ^ (x >> 63)) as u64;
    };
    let (ks, xs) = (dk.keys[..d.len()].chunks_exact(4), d.chunks_exact(4));
    for (&k, &x) in ks.remainder().iter().zip(xs.remainder()) {
        add(0, k, x);
    }
    for (k4, x4) in ks.zip(xs) {
        for t in 0..4 {
            add(t, k4[t], x4[t]);
        }
    }
    if (d.len() as u128) << (64 - bits.leading_zeros()) > i64::MAX as u128 {
        return None;
    }
    let (first, rest) = acc.split_at_mut(n);
    for table in rest.chunks(n) {
        for (a, b) in first.iter_mut().zip(table) {
            *a = (a.0 + b.0, a.1 + b.1);
        }
    }
    acc.truncate(n);
    Some(acc)
}

/// Number the selected rows' keys in a `HashMap`, first appearance
/// first; rows without a valid key share one group.
fn hashed<K: Hash + Eq>(
    key: impl Fn(usize) -> K,
    validity: Option<&Bitmap>,
    sel: Sel,
    rows: usize,
) -> Groups<'static> {
    let mut seen: HashMap<K, u32> = HashMap::new();
    let mut ids = vec![0u32; rows];
    let mut first: Vec<u32> = Vec::new();
    let mut null_group: Option<u32> = None;
    for_sel!(sel, rows, i => {
        let next = first.len() as u32;
        let g = if valid_at(validity, i) {
            *seen.entry(key(i)).or_insert(next)
        } else {
            *null_group.get_or_insert(next)
        };
        if g == next {
            first.push(i as u32);
        }
        ids[i] = g;
    });
    Groups {
        by: By::Ids(ids),
        first,
    }
}

/// The smallest valid selected key of `d` and the span `max − min + 1`
/// of those keys, when the span is at most `bound`. `None` when it is
/// wider, or when no selected row has a valid key. The span is computed
/// in `i128`, so a lane holding both `i64::MIN` and `i64::MAX` does not
/// overflow it. A key `k` of the lane then sits at `k.wrapping_sub(min)`
/// in a table of `span` slots.
pub(crate) fn dense_range(
    d: &[i64],
    validity: Option<&Bitmap>,
    sel: Sel,
    rows: usize,
    bound: usize,
) -> Option<(i64, usize)> {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for_lanes!(sel, rows, (i, keep) => {
        // Select the bounds, not the cell: a load that only one side of
        // a select needs is compiled to a branch, which a mask
        // mispredicts on every other row.
        let k = keep & valid_at(validity, i);
        let (l, h) = (lo.min(d[i]), hi.max(d[i]));
        (lo, hi) = if k { (l, h) } else { (lo, hi) };
    });
    let span = i128::from(hi) - i128::from(lo) + 1;
    // No valid key leaves `lo > hi`, a span below one.
    (1..=bound as i128)
        .contains(&span)
        .then_some((lo, span as usize))
}

impl<'a> Groups<'a> {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// True when no row was selected.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// Every selected row in one group: the ungrouped aggregate.
    pub fn all(sel: Sel, rows: usize) -> Groups<'static> {
        let first = sel.first(rows).map(|i| i as u32);
        Groups {
            by: By::One,
            first: first.into_iter().collect(),
        }
    }

    /// Group the selected rows by `col`.
    pub fn of(col: &'a Column, sel: Sel, rows: usize) -> Groups<'a> {
        let v = col.validity.as_ref();
        match &col.data {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => {
                match dense_range(d, v, sel, rows, sel.bound(rows)) {
                    Some((min, span)) => Groups::dense(d, v, min, span, sel, rows),
                    None => hashed(|i| d[i], v, sel, rows),
                }
            }
            // `Value` equality on floats is `total_cmp`, i.e. bit equality.
            ColumnData::Float(d) => hashed(|i| d[i].to_bits(), v, sel, rows),
            ColumnData::Bool(d) => hashed(|i| d[i], v, sel, rows),
            // One code per distinct string within a lane.
            ColumnData::Text(l) => hashed(|i| l.codes()[i], v, sel, rows),
        }
    }

    /// The groups of a dense key lane with its valid selected keys in
    /// `min .. min + span`: its buckets in order of first appearance. The
    /// pass stops once every bucket has appeared (the NULL one too, when
    /// there is a validity bitmap), which a dense lane's keys tend to do
    /// early.
    fn dense(
        keys: &'a [i64],
        validity: Option<&'a Bitmap>,
        min: i64,
        span: usize,
        sel: Sel,
        rows: usize,
    ) -> Groups<'a> {
        let mut d = Dense {
            keys,
            validity,
            min,
            span,
            order: Vec::new(),
        };
        let every = span + validity.is_some() as usize;
        let (mut seen, mut first) = (vec![false; span + 1], Vec::new());
        for_sel!(sel, rows, i => {
            let b = d.bucket(i, valid_at(validity, i));
            if !seen[b] {
                seen[b] = true;
                d.order.push(b as u32);
                first.push(i as u32);
                if first.len() == every {
                    break;
                }
            }
        });
        Groups {
            by: By::Dense(d),
            first,
        }
    }

    /// The groups of the key pair (`self`'s key, `other`'s key).
    pub fn and(&self, other: &Groups, sel: Sel, rows: usize) -> Groups<'static> {
        let (a, b) = (self.ids(sel, rows), other.ids(sel, rows));
        hashed(|i| (a[i], b[i]), None, sel, rows)
    }

    /// Row-aligned: the group of each selected row. A dense or ungrouped
    /// `self` keeps no such lane and builds it here.
    pub(crate) fn ids(&self, sel: Sel, rows: usize) -> Vec<u32> {
        if let By::Ids(ids) = &self.by {
            return ids.clone();
        }
        let mut group = vec![0u32; self.buckets()];
        if let By::Dense(d) = &self.by {
            for (g, &b) in d.order.iter().enumerate() {
                group[b as usize] = g as u32;
            }
        }
        let mut ids = vec![0u32; rows];
        self.by.each(None, sel, rows, |b, i, keep| {
            if keep {
                ids[i] = group[b];
            }
        });
        ids
    }

    /// Number of accumulators a reduction keeps. An unselected lane under
    /// a mask still names one, the first, and adds nothing to it.
    fn buckets(&self) -> usize {
        match &self.by {
            By::One => 1,
            By::Ids(_) => self.len().max(1),
            By::Dense(d) => d.span + 1,
        }
    }

    /// Per-bucket accumulators → per-group ones, in group order.
    fn finish<A: Clone>(&self, mut acc: Vec<A>) -> Vec<A> {
        match &self.by {
            By::Dense(d) => d.order.iter().map(|&b| acc[b as usize].clone()).collect(),
            By::One | By::Ids(_) => {
                acc.truncate(self.len());
                acc
            }
        }
    }

    /// Fold the selected, valid rows into one accumulator per group.
    fn fold<A: Clone>(
        &self,
        init: A,
        validity: Option<&Bitmap>,
        sel: Sel,
        rows: usize,
        mut step: impl FnMut(&mut A, usize),
    ) -> Vec<A> {
        let mut acc = vec![init; self.buckets()];
        self.by.each(validity, sel, rows, |b, i, keep| {
            if keep {
                step(&mut acc[b], i);
            }
        });
        self.finish(acc)
    }

    /// COUNT of non-NULL cells per group (`validity = None` counts rows).
    pub fn count(&self, validity: Option<&Bitmap>, sel: Sel, rows: usize) -> Vec<i64> {
        let acc = match &self.by {
            // One group: counted in a register.
            By::One => {
                let mut n = 0i64;
                each_lane(validity, sel, rows, |_, keep| n += keep as i64);
                vec![n]
            }
            by => {
                let mut acc = vec![0i64; self.buckets()];
                by.each(validity, sel, rows, |b, _, keep| acc[b] += keep as i64);
                acc
            }
        };
        self.finish(acc)
    }

    /// SUM over an int lane per group, erroring with the row path's
    /// `integer overflow in SUM`, and the cells each sum added: its
    /// `COUNT` of the lane, or over a lane without NULLs its `COUNT(*)`.
    /// `None` = no non-NULL input in the group.
    ///
    /// Every add wraps and sets a sticky flag on overflow. Until a group's
    /// first overflow its wrapped sum is the true one, so the flag is set
    /// exactly when the row path's checked accumulator errors: when some
    /// prefix sum of some group leaves `i64`.
    ///
    /// No cell is loaded only when it is selected: a select whose operand
    /// is such a load is compiled to a branch, which a mask mispredicts
    /// on every other row. An unselected or NULL cell is added all the
    /// same, and then the sum before it is kept and its overflow ignored.
    pub fn sum_int(
        &self,
        d: &[i64],
        validity: Option<&Bitmap>,
        sel: Sel,
        rows: usize,
    ) -> Result<(Vec<Option<i64>>, Vec<i64>)> {
        let d = &d[..rows];
        let fast = match (&self.by, validity, sel) {
            (By::Dense(dk), None, Sel::All) if dk.validity.is_none() => dense_sum(dk, d),
            _ => None,
        };
        let (acc, overflow) = match (&self.by, validity, sel) {
            _ if fast.is_some() => (fast.unwrap_or_default(), false),
            (By::One, None, Sel::Mask(m)) => {
                let (total, overflow, n) = masked_sum(d, &m[..rows]);
                (vec![(total, n)], overflow)
            }
            // One group: the total, the count and the flag in registers.
            (By::One, _, _) => {
                let (mut total, mut n, mut overflow) = (0i64, 0i64, false);
                each_lane(validity, sel, rows, |i, keep| {
                    let (s, o) = total.overflowing_add(d[i]);
                    total = if keep { s } else { total };
                    overflow |= o & keep;
                    n += keep as i64;
                });
                (vec![(total, n)], overflow)
            }
            (by, _, _) => {
                // Each bucket's total beside its count and its own sticky
                // flag: one flag for all would be a store and a load
                // chained through every row.
                let mut acc = vec![(0i64, 0i64, false); self.buckets()];
                by.each(validity, sel, rows, |b, i, keep| {
                    let (sum, n, over) = acc[b];
                    let (s, o) = sum.overflowing_add(d[i]);
                    acc[b] = (
                        if keep { s } else { sum },
                        n + keep as i64,
                        over | (o & keep),
                    );
                });
                let overflow = acc.iter().any(|a| a.2);
                (acc.into_iter().map(|(s, n, _)| (s, n)).collect(), overflow)
            }
        };
        if overflow {
            return Err(Error::Constraint("integer overflow in SUM".into()));
        }
        let (sums, counts): (Vec<i64>, Vec<i64>) = acc.into_iter().unzip();
        let counts = self.finish(counts);
        let sums = self.finish(sums).into_iter().zip(&counts);
        Ok((sums.map(|(x, &n)| (n > 0).then_some(x)).collect(), counts))
    }

    /// SUM over a float lane per group, in row order.
    pub fn sum_float(
        &self,
        d: &[f64],
        validity: Option<&Bitmap>,
        sel: Sel,
        rows: usize,
    ) -> Vec<Option<f64>> {
        self.fold(None, validity, sel, rows, |acc, i| {
            *acc = Some(acc.map_or(d[i], |a| a + d[i]));
        })
    }

    /// AVG accumulators per group: sequential `f64` sum and non-NULL
    /// count; the caller divides.
    pub fn avg(
        &self,
        src: NumSrc,
        validity: Option<&Bitmap>,
        sel: Sel,
        rows: usize,
    ) -> Vec<(f64, i64)> {
        self.fold((0f64, 0i64), validity, sel, rows, |(sum, n), i| {
            *sum += src.float_at(i);
            *n += 1;
        })
    }

    /// MIN/MAX over an int lane per group.
    pub fn min_max_int(
        &self,
        d: &[i64],
        validity: Option<&Bitmap>,
        sel: Sel,
        rows: usize,
        want_max: bool,
    ) -> Vec<Option<i64>> {
        self.fold(None, validity, sel, rows, |best, i| {
            let better = best.is_none_or(|b| if want_max { d[i] > b } else { d[i] < b });
            if better {
                *best = Some(d[i]);
            }
        })
    }

    /// MIN/MAX over a float lane per group by `total_cmp`, keeping the
    /// first value on ties.
    pub fn min_max_float(
        &self,
        d: &[f64],
        validity: Option<&Bitmap>,
        sel: Sel,
        rows: usize,
        want_max: bool,
    ) -> Vec<Option<f64>> {
        self.fold(None, validity, sel, rows, |best: &mut Option<f64>, i| {
            let better = best.is_none_or(|b| {
                let o = d[i].total_cmp(&b);
                if want_max {
                    o.is_gt()
                } else {
                    o.is_lt()
                }
            });
            if better {
                *best = Some(d[i]);
            }
        })
    }
}

impl By<'_> {
    /// `f(bucket, i, keep)` for every lane `i` that `sel` may name, as
    /// [`each_lane`] does. The key's lane and validity are matched once
    /// per call, not per row.
    #[inline(always)]
    fn each(
        &self,
        validity: Option<&Bitmap>,
        sel: Sel,
        rows: usize,
        mut f: impl FnMut(usize, usize, bool),
    ) {
        match self {
            By::One => each_lane(validity, sel, rows, |i, keep| f(0, i, keep)),
            By::Ids(ids) => each_lane(validity, sel, rows, |i, keep| f(ids[i] as usize, i, keep)),
            By::Dense(d) => {
                // The key lane and its range by value: read through `d`,
                // they are read again on every row, as stores to the
                // accumulators might change them for all the compiler knows.
                let (keys, min, span) = (d.keys, d.min, d.span as u64);
                let at = move |i: usize| (keys[i].wrapping_sub(min) as u64).min(span) as usize;
                match d.validity {
                    None => each_lane(validity, sel, rows, |i, keep| f(at(i), i, keep)),
                    Some(kv) => each_lane(validity, sel, rows, |i, keep| {
                        let b = if kv.get(i) { at(i) } else { span as usize };
                        f(b, i, keep)
                    }),
                }
            }
        }
    }
}

/// `f(i, keep)` for every lane `i` that `sel` may name (see `for_lanes!`),
/// where `keep` says the lane is selected and, given a `validity`, its
/// cell is valid. The validity is matched once per call, not per row.
#[inline(always)]
pub(crate) fn each_lane(
    validity: Option<&Bitmap>,
    sel: Sel,
    rows: usize,
    mut f: impl FnMut(usize, bool),
) {
    match validity {
        None => for_lanes!(sel, rows, (i, keep) => { f(i, keep) }),
        Some(v) => for_lanes!(sel, rows, (i, keep) => { f(i, keep & v.get(i)) }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sel;
    use sstore_common::{DataType, Value};

    /// `sum_int`'s sums, without its counts.
    fn sums(r: Result<(Vec<Option<i64>>, Vec<i64>)>) -> Result<Vec<Option<i64>>> {
        r.map(|(sums, _)| sums)
    }

    fn col(ty: DataType, cells: &[Value]) -> Column {
        let mut c = Column::typed(ty, 0);
        for v in cells {
            c.set(c.len(), v);
        }
        c
    }

    #[test]
    fn ids_follow_first_appearance_and_null_is_a_group() {
        let c = col(
            DataType::Int,
            &[
                Value::Int(7),
                Value::Null,
                Value::Int(3),
                Value::Int(7),
                Value::Null,
            ],
        );
        let g = Groups::of(&c, Sel::All, 5);
        assert_eq!(g.ids(Sel::All, 5), vec![0, 1, 2, 0, 1]);
        assert_eq!(g.first, vec![0, 1, 2]);
    }

    #[test]
    fn selection_restricts_and_orders_groups() {
        let c = col(
            DataType::Text,
            &["a".into(), "b".into(), "a".into(), "c".into()],
        );
        // Positions need not ascend: groups follow the selection's order.
        let sel = Sel::Pos(&[3, 1, 2]);
        let g = Groups::of(&c, sel, 4);
        assert_eq!(g.first, vec![3, 1, 2]);
        let ids = g.ids(sel, 4);
        assert_eq!((ids[3], ids[1], ids[2]), (0, 1, 2));
        let mask = [false, true, true, true];
        for sel in [Sel::Pos(&[1, 2, 3]), Sel::Mask(&mask)] {
            let g = Groups::of(&c, sel, 4);
            assert_eq!(g.first, vec![1, 2, 3]);
            assert_eq!(g.ids(sel, 4)[1..], [0, 1, 2]);
        }
    }

    #[test]
    fn dense_keys_under_unordered_positions_follow_the_selection() {
        // Dense keys 5..=7 named out of row order: groups, and each
        // group's float sum, follow the positions' order.
        let c = col(DataType::Int, &[5, 6, 7, 5, 6, 5].map(Value::Int));
        let sel = Sel::Pos(&[5, 2, 0, 4, 3, 1]);
        let g = Groups::of(&c, sel, 6);
        assert!(matches!(g.by, By::Dense(_)));
        assert_eq!(g.first, vec![5, 2, 4]);
        assert_eq!(g.ids(sel, 6), vec![0, 2, 1, 0, 2, 0]);
        assert_eq!(g.count(None, sel, 6), vec![3, 1, 2]);
        let w = [1, 2, 3, 4, 5, 6];
        assert_eq!(
            g.sum_int(&w, None, sel, 6),
            Ok((vec![Some(11), Some(3), Some(7)], vec![3, 1, 2]))
        );
        // In selection order 1.0 + 1e16 rounds the 1.0 away and −1e16
        // then leaves 0.0; in row order the group would sum to 1.0.
        let f = [1e16, 2.0, 3.0, -1e16, 4.0, 1.0];
        assert_eq!(
            g.sum_float(&f, None, sel, 6),
            vec![Some(0.0), Some(3.0), Some(6.0)]
        );
    }

    #[test]
    fn pair_keys_refine() {
        let a = col(DataType::Int, &[1.into(), 1.into(), 2.into(), 1.into()]);
        let b = col(
            DataType::Bool,
            &[true.into(), false.into(), true.into(), true.into()],
        );
        let g = Groups::of(&a, Sel::All, 4).and(&Groups::of(&b, Sel::All, 4), Sel::All, 4);
        assert_eq!(g.ids(Sel::All, 4), vec![0, 1, 2, 0]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn span_equal_to_the_selection_is_dense_and_one_over_hashes() {
        assert_eq!(
            dense_range(&[0, 3, 1, 3], None, Sel::All, 4, 4),
            Some((0, 4))
        );
        assert_eq!(dense_range(&[0, 4, 1, 4], None, Sel::All, 4, 4), None);
        // Only selected keys count, and the bound is the selection's size.
        let sel = [1u32, 3];
        assert_eq!(
            dense_range(&[9, 0, -9, 1], None, Sel::Pos(&sel), 4, 2),
            Some((0, 2))
        );
        assert_eq!(
            dense_range(&[9, 0, -9, 2], None, Sel::Pos(&sel), 4, 2),
            None
        );
        for keys in [[0, 3, 1, 3], [0, 4, 1, 4]] {
            let c = col(DataType::Int, &keys.map(Value::Int));
            let g = Groups::of(&c, Sel::All, 4);
            assert_eq!(g.ids(Sel::All, 4), vec![0, 1, 2, 1]);
            assert_eq!(g.first, vec![0, 1, 2]);
        }
        for keys in [[9, 0, -9, 1], [9, 0, -9, 2]] {
            let c = col(DataType::Int, &keys.map(Value::Int));
            let g = Groups::of(&c, Sel::Pos(&sel), 4);
            let ids = g.ids(Sel::Pos(&sel), 4);
            assert_eq!((ids[1], ids[3]), (0, 1));
            assert_eq!(g.first, vec![1, 3]);
        }
    }

    #[test]
    fn extreme_keys_do_not_overflow_the_span() {
        let (min, max) = (i64::MIN, i64::MAX);
        assert_eq!(dense_range(&[min, max], None, Sel::All, 2, 2), None);
        assert_eq!(
            dense_range(&[max, min], None, Sel::All, 2, usize::MAX),
            None
        );
        assert_eq!(
            dense_range(&[min + 1, min], None, Sel::All, 2, 2),
            Some((min, 2))
        );
        assert_eq!(
            dense_range(&[max, max - 1], None, Sel::All, 2, 2),
            Some((max - 1, 2))
        );
        for keys in [
            [min, max, min],
            [min + 1, min, min + 1],
            [max, max - 1, max],
        ] {
            let c = col(DataType::Timestamp, &keys.map(Value::Timestamp));
            let g = Groups::of(&c, Sel::All, 3);
            assert_eq!(g.ids(Sel::All, 3), vec![0, 1, 0]);
            assert_eq!(g.first, vec![0, 1]);
        }
    }

    #[test]
    fn no_valid_selected_key_falls_back() {
        let nulls = col(DataType::Int, &[Value::Null, Value::Null, Value::Null]);
        let ColumnData::Int(d) = &nulls.data else {
            panic!()
        };
        assert_eq!(
            dense_range(d, nulls.validity.as_ref(), Sel::All, 3, 3),
            None
        );
        let g = Groups::of(&nulls, Sel::All, 3);
        assert_eq!((g.ids(Sel::All, 3), g.first), (vec![0, 0, 0], vec![0]));

        let c = col(
            DataType::Int,
            &[5.into(), Value::Null, 6.into(), Value::Null],
        );
        let ColumnData::Int(d) = &c.data else {
            panic!()
        };
        let sel = [1u32, 3];
        assert_eq!(
            dense_range(d, c.validity.as_ref(), Sel::Pos(&sel), 4, 2),
            None
        );
        let g = Groups::of(&c, Sel::Pos(&sel), 4);
        let ids = g.ids(Sel::Pos(&sel), 4);
        assert_eq!((ids[1], ids[3]), (0, 0));
        assert_eq!(g.first, vec![1]);
        assert!(Groups::of(&c, Sel::Pos(&[]), 4).is_empty());
    }

    #[test]
    fn reductions_skip_nulls_per_group() {
        let k = col(DataType::Int, &[1.into(), 2.into(), 1.into(), 2.into()]);
        let w = col(
            DataType::Int,
            &[10.into(), Value::Null, 30.into(), Value::Null],
        );
        let g = Groups::of(&k, Sel::All, 4);
        let ColumnData::Int(d) = &w.data else {
            panic!()
        };
        let v = w.validity.as_ref();
        assert_eq!(g.count(None, Sel::All, 4), vec![2, 2]);
        assert_eq!(g.count(v, Sel::All, 4), vec![2, 0]);
        assert_eq!(
            sums(g.sum_int(d, v, Sel::All, 4)).unwrap(),
            vec![Some(40), None]
        );
        assert_eq!(
            g.avg(NumSrc::I(d), v, Sel::All, 4),
            vec![(40.0, 2), (0.0, 0)]
        );
        assert_eq!(
            g.min_max_int(d, v, Sel::All, 4, false),
            vec![Some(10), None]
        );
        assert_eq!(g.min_max_int(d, v, Sel::All, 4, true), vec![Some(30), None]);
    }

    #[test]
    fn sum_overflow_inside_one_group_errors() {
        let k = col(DataType::Int, &[1.into(), 2.into(), 1.into()]);
        let d = [i64::MAX, i64::MAX, 1];
        let g = Groups::of(&k, Sel::All, 3);
        let err = sums(g.sum_int(&d, None, Sel::All, 3)).unwrap_err();
        assert_eq!(err, Error::Constraint("integer overflow in SUM".into()));
        // The same cells in different groups do not overflow.
        let k = col(DataType::Int, &[1.into(), 2.into(), 3.into()]);
        let g = Groups::of(&k, Sel::All, 3);
        assert!(sums(g.sum_int(&d, None, Sel::All, 3)).is_ok());
    }

    #[test]
    fn sum_overflow_is_sticky_in_every_loop() {
        let over = Err(Error::Constraint("integer overflow in SUM".into()));
        let sel = [0u32, 1, 2];
        // The last cell is NULL where a validity bitmap is given.
        let mut nul = Bitmap::new_set(4);
        nul.set(3, false);
        let one = col(DataType::Int, &vec![Value::Int(7); 4]);
        let split = col(DataType::Int, &[1.into(), 2.into(), 3.into(), 4.into()]);
        // The first total fits but a prefix does not; the second leaves
        // `i64` at its last add.
        for d in [[i64::MAX, 1, -2, 9], [i64::MIN, -1, 0, 9]] {
            let all = Groups::all(Sel::All, 3);
            assert_eq!(sums(all.sum_int(&d, None, Sel::All, 3)), over);
            let all = Groups::all(Sel::Pos(&sel), 4);
            assert_eq!(sums(all.sum_int(&d, None, Sel::Pos(&sel), 4)), over);
            let all = Groups::all(Sel::All, 4);
            assert_eq!(sums(all.sum_int(&d, Some(&nul), Sel::All, 4)), over);
            let g = Groups::of(&one, Sel::All, 3);
            assert_eq!(sums(g.sum_int(&d, None, Sel::All, 3)), over);
            let g = Groups::of(&one, Sel::All, 4);
            assert_eq!(sums(g.sum_int(&d, Some(&nul), Sel::All, 4)), over);
            // One cell per group: nothing overflows.
            let g = Groups::of(&split, Sel::All, 3);
            let want: Vec<_> = d[..3].iter().map(|&x| Some(x)).collect();
            assert_eq!(sums(g.sum_int(&d, None, Sel::All, 3)), Ok(want.clone()));
            let g = Groups::of(&split, Sel::All, 4);
            let mut with_null = want;
            with_null.push(None);
            assert_eq!(sums(g.sum_int(&d, Some(&nul), Sel::All, 4)), Ok(with_null));
        }
    }

    #[test]
    fn null_only_and_empty_selections_reduce_without_panicking() {
        let clear = Bitmap::new_clear(3);
        let d = [5i64, 6, 7];
        let all = Groups::all(Sel::All, 3);
        assert_eq!(all.count(Some(&clear), Sel::All, 3), vec![0]);
        assert_eq!(
            sums(all.sum_int(&d, Some(&clear), Sel::All, 3)),
            Ok(vec![None])
        );
        let k = col(DataType::Int, &[1.into(), 2.into(), 1.into()]);
        for g in [
            Groups::all(Sel::Pos(&[]), 3),
            Groups::of(&k, Sel::Pos(&[]), 3),
        ] {
            assert!(g.is_empty());
            for v in [None, Some(&clear)] {
                assert_eq!(g.count(v, Sel::Pos(&[]), 3), Vec::<i64>::new());
                assert_eq!(sums(g.sum_int(&d, v, Sel::Pos(&[]), 3)), Ok(vec![]));
            }
        }
    }

    #[test]
    fn float_lanes_group_by_bits_and_keep_first_on_ties() {
        let k = col(DataType::Float, &[0.0.into(), (-0.0).into(), 0.0.into()]);
        let g = Groups::of(&k, Sel::All, 3);
        assert_eq!(g.ids(Sel::All, 3), vec![0, 1, 0]);
        let d = [0.0f64, 5.0, -0.0];
        let m = g.min_max_float(&d, None, Sel::All, 3, false);
        assert!(m[0].unwrap().is_sign_negative());
        assert_eq!(
            g.sum_float(&d, None, Sel::All, 3),
            vec![Some(0.0), Some(5.0)]
        );
    }

    #[test]
    fn masked_sum_adds_nothing_for_a_masked_out_cell() {
        let over = Err(Error::Constraint("integer overflow in SUM".into()));
        // A masked-out `i64::MAX` sets no flag, in one group or in a
        // dense key's bucket.
        let d = [i64::MAX, 1, -1];
        let mask = [false, true, true];
        let keys = col(DataType::Int, &[1.into(), 1.into(), 1.into()]);
        let all = Groups::all(Sel::Mask(&mask), 3);
        let by_key = Groups::of(&keys, Sel::Mask(&mask), 3);
        for g in [&all, &by_key] {
            let got = g.sum_int(&d, None, Sel::Mask(&mask), 3);
            assert_eq!(got, Ok((vec![Some(0)], vec![2])));
            assert_eq!(g.count(None, Sel::Mask(&mask), 3), vec![2]);
        }
        // Masked in, `[i64::MAX, 1, -1]` leaves `i64` after its second
        // add and still errors, though the total fits.
        let every = [true; 3];
        let all = Groups::all(Sel::Mask(&every), 3);
        let by_key = Groups::of(&keys, Sel::Mask(&every), 3);
        // A validity bitmap with nothing cleared takes the NULL-aware loop.
        let nul = Bitmap::new_set(3);
        for g in [&all, &by_key] {
            assert_eq!(sums(g.sum_int(&d, None, Sel::Mask(&every), 3)), over);
            assert_eq!(sums(g.sum_int(&d, Some(&nul), Sel::Mask(&every), 3)), over);
        }
        // An all-false mask selects nothing: no group, and for an
        // ungrouped aggregate's one row, COUNT 0 and a NULL SUM.
        let none = [false; 3];
        assert!(Groups::all(Sel::Mask(&none), 3).is_empty());
        assert!(Groups::of(&keys, Sel::Mask(&none), 3).is_empty());
        let one = Groups {
            by: By::One,
            first: vec![0],
        };
        assert_eq!(one.count(None, Sel::Mask(&none), 3), vec![0]);
        let got = one.sum_int(&d, None, Sel::Mask(&none), 3);
        assert_eq!(got, Ok((vec![None], vec![0])));
        let clear = Bitmap::new_clear(3);
        assert_eq!(
            sums(one.sum_int(&d, Some(&clear), Sel::Mask(&every), 3)),
            Ok(vec![None])
        );
    }

    #[test]
    fn dense_groups_under_a_mask_ignore_masked_out_keys() {
        // Masked-out lanes hold keys far outside the selected range and a
        // NULL; they must neither widen the range nor land in a group.
        let c = col(
            DataType::Int,
            &[
                5.into(),
                i64::MAX.into(),
                6.into(),
                Value::Null,
                5.into(),
                i64::MIN.into(),
                Value::Null,
            ],
        );
        let ColumnData::Int(d) = &c.data else {
            panic!()
        };
        let v = c.validity.as_ref();
        let mask = [true, false, true, false, true, false, true];
        let sel = Sel::Mask(&mask);
        assert_eq!(dense_range(d, v, sel, 7, 7), Some((5, 2)));
        let g = Groups::of(&c, sel, 7);
        assert!(matches!(g.by, By::Dense(_)));
        assert_eq!(g.first, vec![0, 2, 6]);
        assert_eq!(g.count(None, sel, 7), vec![2, 1, 1]);
        assert_eq!(g.count(v, sel, 7), vec![2, 1, 0]);
        let w = [10, i64::MAX, 20, 7, 30, i64::MIN, 9];
        assert_eq!(
            sums(g.sum_int(&w, None, sel, 7)),
            Ok(vec![Some(40), Some(20), Some(9)])
        );
        assert_eq!(
            sums(g.sum_int(&w, v, sel, 7)),
            Ok(vec![Some(40), Some(20), None])
        );
        assert_eq!(
            g.min_max_int(&w, None, sel, 7, true),
            vec![Some(30), Some(20), Some(9)]
        );
        let ids = g.ids(sel, 7);
        assert_eq!((ids[0], ids[2], ids[4], ids[6]), (0, 1, 0, 2));
    }

    #[test]
    fn masked_sum_reads_sparse_and_dense_blocks_in_row_order() {
        // The row path's answer: a checked fold over the masked cells in
        // row order (`None` once a prefix sum leaves `i64`), and the count.
        let fold = |d: &[i64], m: &[bool]| {
            let mut cells = d.iter().zip(m).filter(|(_, &k)| k).map(|(&x, _)| x);
            let n = cells.clone().count() as i64;
            (cells.try_fold(0i64, i64::checked_add), n)
        };
        let rows = 256 * 6 + 5;
        let d: Vec<i64> = (0..rows as i64).map(|i| (i * 7919) % 2001 - 1000).collect();
        // Block by block: dense, sparse, sparse, dense, sparse, dense, and
        // a short tail. A sparse block is read sparsely after a sparse one.
        let density = [2, 40, 40, 3, 64, 2, 1];
        let mask: Vec<bool> = (0..rows).map(|i| i % density[i / 256] == 0).collect();
        let g = Groups::all(Sel::Mask(&mask), rows);
        let want = fold(&d, &mask);
        let got = g.sum_int(&d, None, Sel::Mask(&mask), rows);
        assert_eq!(got, Ok((vec![want.0], vec![want.1])));
        assert_eq!(g.count(None, Sel::Mask(&mask), rows), vec![want.1]);
        // An overflow inside a sparsely read block, one inside a dense
        // block, and a masked-out extreme in either: each is seen exactly
        // when the row path's fold fails.
        let over = Err(Error::Constraint("integer overflow in SUM".into()));
        for (at, x) in [
            (512, i64::MAX),
            (513, i64::MAX),
            (768, i64::MIN),
            (769, i64::MIN),
        ] {
            for (big, also) in [(at, at + 40), (at + 1, at + 41)] {
                let mut d = d.clone();
                d[big] = x;
                d[also] = x;
                let g = Groups::all(Sel::Mask(&mask), rows);
                let got = sums(g.sum_int(&d, None, Sel::Mask(&mask), rows));
                match fold(&d, &mask).0 {
                    Some(total) => assert_eq!(got, Ok(vec![Some(total)]), "{big} {x}"),
                    None => assert_eq!(got, over, "{big} {x}"),
                }
            }
        }
    }

    #[test]
    fn dense_sums_without_nulls_match_the_checked_fold() {
        // A dense key over 1 003 rows (four tables and a remainder of
        // three), then the same rows with cells large enough that the
        // magnitude bound fails: once with no prefix leaving `i64`, once
        // with one that does.
        let rows = 1003;
        let keys: Vec<Value> = (0..rows)
            .map(|i| Value::Int((i * 37 % 11) as i64))
            .collect();
        let c = col(DataType::Int, &keys);
        let g = Groups::of(&c, Sel::All, rows);
        assert!(matches!(g.by, By::Dense(_)));
        let fold = |d: &[i64]| -> Option<Vec<(Option<i64>, i64)>> {
            let ids = g.ids(Sel::All, rows);
            let mut acc = vec![(0i64, 0i64); g.len()];
            for (&id, &x) in ids.iter().zip(d) {
                let a = &mut acc[id as usize];
                *a = (a.0.checked_add(x)?, a.1 + 1);
            }
            Some(acc.into_iter().map(|(s, n)| (Some(s), n)).collect())
        };
        let small: Vec<i64> = (0..rows as i64).map(|i| i * 7 - 3000).collect();
        // Rows 5 and 16 share a key.
        let mut large = small.clone();
        large[5] = i64::MAX / 4;
        let mut over = small.clone();
        (over[5], over[16]) = (i64::MAX, i64::MAX);
        assert!(fold(&large).is_some() && fold(&over).is_none());
        for d in [small, large, over] {
            let got = g.sum_int(&d, None, Sel::All, rows);
            match fold(&d) {
                Some(want) => {
                    let sums: Vec<_> = want.iter().map(|w| w.0).collect();
                    let counts: Vec<_> = want.iter().map(|w| w.1).collect();
                    assert_eq!(g.count(None, Sel::All, rows), counts);
                    assert_eq!(got, Ok((sums, counts)));
                }
                None => assert_eq!(
                    got,
                    Err(Error::Constraint("integer overflow in SUM".into()))
                ),
            }
        }
    }
}
