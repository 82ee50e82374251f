//! Grouping kernels: dense group ids over key lanes, and per-group
//! reductions over argument lanes.
//!
//! [`Groups::of`] numbers the distinct keys of one column in order of
//! first appearance over the selection — the order the row interpreter's
//! hash aggregate emits groups in — with NULL as a key of its own;
//! [`Groups::and`] refines by a further key column; [`Groups::all`] is the
//! ungrouped aggregate's single group. The reductions then run one typed
//! loop per aggregate, each bit-identical to the row path's accumulator
//! fed the group's rows in selection (= row) order: NULL cells are
//! skipped, `SUM` over ints is checked, floats accumulate sequentially,
//! `MIN`/`MAX` keep the first value on ties. `COUNT` and the int `SUM`
//! keep no `Option` per row: the ungrouped total stays in a register,
//! and `SUM`'s overflow check is a flag tested once after the loop.
//!
//! A TEXT key lane is grouped by its dictionary codes.
//!
//! An `Int` or `Timestamp` key lane whose valid selected keys span no more
//! values (`max − min + 1`) than there are selected rows is numbered
//! through a slot table indexed by `key − min`, hashing nothing; the table
//! is then never longer than the id lane it fills. Wider lanes, lanes
//! with no valid selected key, and every other key type go through a
//! `HashMap`. Both ways give the same [`Groups`].

use crate::column::{valid_at, Bitmap, Column, ColumnData};
use crate::compute::NumSrc;
use sstore_common::{Error, Result};
use std::collections::HashMap;
use std::hash::Hash;

/// A partition of the selected rows into groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Groups {
    /// Row-aligned: the group of each selected row. Empty when there is
    /// only the one group of [`Groups::all`], which needs no id lane.
    pub ids: Vec<u32>,
    /// The first selected row of each group, in group order.
    pub first: Vec<u32>,
}

/// Number the selected rows' keys densely, first appearance first; rows
/// without a valid key share one group. `id(i, next)` is the group of
/// valid row `i`'s key: the one its key already has, else `next`.
fn assign(
    validity: Option<&Bitmap>,
    sel: Option<&[u32]>,
    rows: usize,
    mut id: impl FnMut(usize, u32) -> u32,
) -> Groups {
    let mut ids = vec![0u32; rows];
    let mut first: Vec<u32> = Vec::new();
    let mut null_group: Option<u32> = None;
    for_sel!(sel, rows, i => {
        let next = first.len() as u32;
        let g = if valid_at(validity, i) {
            id(i, next)
        } else {
            *null_group.get_or_insert(next)
        };
        if g == next {
            first.push(i as u32);
        }
        ids[i] = g;
    });
    Groups { ids, first }
}

/// [`assign`] with the keys `key(i)` remembered in a `HashMap`.
fn hashed<K: Hash + Eq>(
    key: impl Fn(usize) -> K,
    validity: Option<&Bitmap>,
    sel: Option<&[u32]>,
    rows: usize,
) -> Groups {
    let mut seen: HashMap<K, u32> = HashMap::new();
    assign(validity, sel, rows, |i, next| {
        *seen.entry(key(i)).or_insert(next)
    })
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
    sel: Option<&[u32]>,
    rows: usize,
    bound: usize,
) -> Option<(i64, usize)> {
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for_sel!(sel, rows, i => {
        if valid_at(validity, i) {
            lo = lo.min(d[i]);
            hi = hi.max(d[i]);
        }
    });
    let span = i128::from(hi) - i128::from(lo) + 1;
    // No valid key leaves `lo > hi`, a span below one.
    (1..=bound as i128)
        .contains(&span)
        .then_some((lo, span as usize))
}

impl Groups {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// True when no row was selected.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// Every selected row in one group: the ungrouped aggregate.
    pub fn all(sel: Option<&[u32]>, rows: usize) -> Groups {
        let first = match sel {
            None => (rows > 0).then_some(0),
            Some(s) => s.first().copied(),
        };
        Groups {
            ids: Vec::new(),
            first: first.into_iter().collect(),
        }
    }

    /// The group of selected row `i`.
    #[inline]
    fn id(&self, i: usize) -> u32 {
        self.ids.get(i).copied().unwrap_or(0)
    }

    /// Group the selected rows by `col`. `None` for a `Generic` lane,
    /// whose cells only compare as dynamic values.
    pub fn of(col: &Column, sel: Option<&[u32]>, rows: usize) -> Option<Groups> {
        let v = col.validity.as_ref();
        Some(match &col.data {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => {
                let selected = sel.map_or(rows, <[u32]>::len);
                match dense_range(d, v, sel, rows, selected) {
                    Some((min, span)) => {
                        // `u32::MAX` = no group yet; any id is below it.
                        let mut slot = vec![u32::MAX; span];
                        assign(v, sel, rows, |i, next| {
                            let g = &mut slot[d[i].wrapping_sub(min) as usize];
                            *g = (*g).min(next);
                            *g
                        })
                    }
                    None => hashed(|i| d[i], v, sel, rows),
                }
            }
            // `Value` equality on floats is `total_cmp`, i.e. bit equality.
            ColumnData::Float(d) => hashed(|i| d[i].to_bits(), v, sel, rows),
            ColumnData::Bool(d) => hashed(|i| d[i], v, sel, rows),
            // One code per distinct string within a lane.
            ColumnData::Text(l) => hashed(|i| l.codes()[i], v, sel, rows),
            ColumnData::Generic(_) => return None,
        })
    }

    /// The groups of the key pair (`self`'s key, `other`'s key).
    pub fn and(&self, other: &Groups, sel: Option<&[u32]>, rows: usize) -> Groups {
        hashed(|i| (self.id(i), other.id(i)), None, sel, rows)
    }

    /// Fold the selected, valid rows into one accumulator per group.
    fn fold<A: Clone>(
        &self,
        init: A,
        validity: Option<&Bitmap>,
        sel: Option<&[u32]>,
        rows: usize,
        mut step: impl FnMut(&mut A, usize),
    ) -> Vec<A> {
        let mut acc = vec![init; self.len()];
        if let ([], [one]) = (self.ids.as_slice(), acc.as_mut_slice()) {
            // The ungrouped aggregate: one accumulator, no id lane.
            for_sel!(sel, rows, i => {
                if valid_at(validity, i) {
                    step(one, i);
                }
            });
        } else {
            for_sel!(sel, rows, i => {
                if valid_at(validity, i) {
                    step(&mut acc[self.ids[i] as usize], i);
                }
            });
        }
        acc
    }

    /// COUNT of non-NULL cells per group (`validity = None` counts rows).
    pub fn count(&self, validity: Option<&Bitmap>, sel: Option<&[u32]>, rows: usize) -> Vec<i64> {
        if self.ids.is_empty() {
            // At most one group, counted in a register.
            let n = match validity {
                None => sel.map_or(rows, <[u32]>::len) as i64,
                Some(v) => {
                    let mut n = 0i64;
                    for_sel!(sel, rows, i => {
                        n += v.get(i) as i64;
                    });
                    n
                }
            };
            return self.first.iter().map(|_| n).collect();
        }
        let mut acc = vec![0i64; self.len()];
        for_sel!(sel, rows, i => {
            acc[self.ids[i] as usize] += valid_at(validity, i) as i64;
        });
        acc
    }

    /// SUM over an int lane per group, erroring with the row path's
    /// `integer overflow in SUM`. `None` = no non-NULL input in the group.
    ///
    /// Every add wraps and sets a sticky flag on overflow. Until a group's
    /// first overflow its wrapped sum is the true one, so the flag is set
    /// exactly when the row path's checked accumulator errors: when some
    /// prefix sum of some group leaves `i64`.
    pub fn sum_int(
        &self,
        d: &[i64],
        validity: Option<&Bitmap>,
        sel: Option<&[u32]>,
        rows: usize,
    ) -> Result<Vec<Option<i64>>> {
        let mut overflow = false;
        let mut add = |acc: &mut i64, x: i64| {
            let (s, o) = acc.overflowing_add(x);
            *acc = s;
            overflow |= o;
        };
        let sums = match (self.ids.is_empty(), validity, sel) {
            // No group; or the one group with no NULL to skip, its total
            // kept in a register.
            (true, _, _) if self.is_empty() => Vec::new(),
            (true, None, None) => {
                let mut total = 0i64;
                for &x in &d[..rows] {
                    add(&mut total, x);
                }
                vec![Some(total)]
            }
            (true, None, Some(s)) => {
                let mut total = 0i64;
                for &i in s {
                    add(&mut total, d[i as usize]);
                }
                vec![Some(total)]
            }
            // Every row: every group has a valid cell.
            (false, None, None) => {
                let mut sum = vec![0i64; self.len()];
                for (&g, &x) in self.ids[..rows].iter().zip(&d[..rows]) {
                    add(&mut sum[g as usize], x);
                }
                sum.into_iter().map(Some).collect()
            }
            _ => {
                let mut sum = vec![0i64; self.len()];
                let mut seen = vec![false; self.len()];
                for_sel!(sel, rows, i => {
                    if valid_at(validity, i) {
                        let g = self.id(i) as usize;
                        add(&mut sum[g], d[i]);
                        seen[g] = true;
                    }
                });
                seen.into_iter()
                    .zip(sum)
                    .map(|(s, x)| s.then_some(x))
                    .collect()
            }
        };
        if overflow {
            return Err(Error::Constraint("integer overflow in SUM".into()));
        }
        Ok(sums)
    }

    /// SUM over a float lane per group, in row order.
    pub fn sum_float(
        &self,
        d: &[f64],
        validity: Option<&Bitmap>,
        sel: Option<&[u32]>,
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
        sel: Option<&[u32]>,
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
        sel: Option<&[u32]>,
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
        sel: Option<&[u32]>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{DataType, Value};

    fn col(ty: DataType, cells: &[Value]) -> Column {
        let mut c = Column::typed(ty, 0);
        for v in cells {
            c.push(v);
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
        let g = Groups::of(&c, None, 5).unwrap();
        assert_eq!(g.ids, vec![0, 1, 2, 0, 1]);
        assert_eq!(g.first, vec![0, 1, 2]);
    }

    #[test]
    fn selection_restricts_and_orders_groups() {
        let c = col(
            DataType::Text,
            &["a".into(), "b".into(), "a".into(), "c".into()],
        );
        let sel = [3u32, 1, 2];
        let g = Groups::of(&c, Some(&sel), 4).unwrap();
        assert_eq!(g.first, vec![3, 1, 2]);
        assert_eq!((g.ids[3], g.ids[1], g.ids[2]), (0, 1, 2));
    }

    #[test]
    fn pair_keys_refine() {
        let a = col(DataType::Int, &[1.into(), 1.into(), 2.into(), 1.into()]);
        let b = col(
            DataType::Bool,
            &[true.into(), false.into(), true.into(), true.into()],
        );
        let g = Groups::of(&a, None, 4)
            .unwrap()
            .and(&Groups::of(&b, None, 4).unwrap(), None, 4);
        assert_eq!(g.ids, vec![0, 1, 2, 0]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn span_equal_to_the_selection_is_dense_and_one_over_hashes() {
        assert_eq!(dense_range(&[0, 3, 1, 3], None, None, 4, 4), Some((0, 4)));
        assert_eq!(dense_range(&[0, 4, 1, 4], None, None, 4, 4), None);
        // Only selected keys count, and the bound is the selection's size.
        let sel = [1u32, 3];
        assert_eq!(
            dense_range(&[9, 0, -9, 1], None, Some(&sel), 4, 2),
            Some((0, 2))
        );
        assert_eq!(dense_range(&[9, 0, -9, 2], None, Some(&sel), 4, 2), None);
        for keys in [[0, 3, 1, 3], [0, 4, 1, 4]] {
            let g = Groups::of(&col(DataType::Int, &keys.map(Value::Int)), None, 4).unwrap();
            assert_eq!(g.ids, vec![0, 1, 2, 1]);
            assert_eq!(g.first, vec![0, 1, 2]);
        }
        for keys in [[9, 0, -9, 1], [9, 0, -9, 2]] {
            let c = col(DataType::Int, &keys.map(Value::Int));
            let g = Groups::of(&c, Some(&sel), 4).unwrap();
            assert_eq!((g.ids[1], g.ids[3]), (0, 1));
            assert_eq!(g.first, vec![1, 3]);
        }
    }

    #[test]
    fn extreme_keys_do_not_overflow_the_span() {
        let (min, max) = (i64::MIN, i64::MAX);
        assert_eq!(dense_range(&[min, max], None, None, 2, 2), None);
        assert_eq!(dense_range(&[max, min], None, None, 2, usize::MAX), None);
        assert_eq!(
            dense_range(&[min + 1, min], None, None, 2, 2),
            Some((min, 2))
        );
        assert_eq!(
            dense_range(&[max, max - 1], None, None, 2, 2),
            Some((max - 1, 2))
        );
        for keys in [
            [min, max, min],
            [min + 1, min, min + 1],
            [max, max - 1, max],
        ] {
            let c = col(DataType::Timestamp, &keys.map(Value::Timestamp));
            let g = Groups::of(&c, None, 3).unwrap();
            assert_eq!(g.ids, vec![0, 1, 0]);
            assert_eq!(g.first, vec![0, 1]);
        }
    }

    #[test]
    fn no_valid_selected_key_falls_back() {
        let nulls = col(DataType::Int, &[Value::Null, Value::Null, Value::Null]);
        let ColumnData::Int(d) = &nulls.data else {
            panic!()
        };
        assert_eq!(dense_range(d, nulls.validity.as_ref(), None, 3, 3), None);
        let g = Groups::of(&nulls, None, 3).unwrap();
        assert_eq!((g.ids, g.first), (vec![0, 0, 0], vec![0]));

        let c = col(
            DataType::Int,
            &[5.into(), Value::Null, 6.into(), Value::Null],
        );
        let ColumnData::Int(d) = &c.data else {
            panic!()
        };
        let sel = [1u32, 3];
        assert_eq!(dense_range(d, c.validity.as_ref(), Some(&sel), 4, 2), None);
        let g = Groups::of(&c, Some(&sel), 4).unwrap();
        assert_eq!((g.ids[1], g.ids[3]), (0, 0));
        assert_eq!(g.first, vec![1]);
        assert!(Groups::of(&c, Some(&[]), 4).unwrap().is_empty());
    }

    #[test]
    fn generic_lanes_have_no_kernel() {
        let c = col(DataType::Int, &[1.into(), "x".into()]);
        assert!(Groups::of(&c, None, 2).is_none());
    }

    #[test]
    fn reductions_skip_nulls_per_group() {
        let k = col(DataType::Int, &[1.into(), 2.into(), 1.into(), 2.into()]);
        let w = col(
            DataType::Int,
            &[10.into(), Value::Null, 30.into(), Value::Null],
        );
        let g = Groups::of(&k, None, 4).unwrap();
        let ColumnData::Int(d) = &w.data else {
            panic!()
        };
        let v = w.validity.as_ref();
        assert_eq!(g.count(None, None, 4), vec![2, 2]);
        assert_eq!(g.count(v, None, 4), vec![2, 0]);
        assert_eq!(g.sum_int(d, v, None, 4).unwrap(), vec![Some(40), None]);
        assert_eq!(g.avg(NumSrc::I(d), v, None, 4), vec![(40.0, 2), (0.0, 0)]);
        assert_eq!(g.min_max_int(d, v, None, 4, false), vec![Some(10), None]);
        assert_eq!(g.min_max_int(d, v, None, 4, true), vec![Some(30), None]);
    }

    #[test]
    fn sum_overflow_inside_one_group_errors() {
        let k = col(DataType::Int, &[1.into(), 2.into(), 1.into()]);
        let d = [i64::MAX, i64::MAX, 1];
        let g = Groups::of(&k, None, 3).unwrap();
        let err = g.sum_int(&d, None, None, 3).unwrap_err();
        assert_eq!(err, Error::Constraint("integer overflow in SUM".into()));
        // The same cells in different groups do not overflow.
        let k = col(DataType::Int, &[1.into(), 2.into(), 3.into()]);
        let g = Groups::of(&k, None, 3).unwrap();
        assert!(g.sum_int(&d, None, None, 3).is_ok());
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
            let all = Groups::all(None, 3);
            assert_eq!(all.sum_int(&d, None, None, 3), over);
            let all = Groups::all(Some(&sel), 4);
            assert_eq!(all.sum_int(&d, None, Some(&sel), 4), over);
            let all = Groups::all(None, 4);
            assert_eq!(all.sum_int(&d, Some(&nul), None, 4), over);
            let g = Groups::of(&one, None, 3).unwrap();
            assert_eq!(g.sum_int(&d, None, None, 3), over);
            let g = Groups::of(&one, None, 4).unwrap();
            assert_eq!(g.sum_int(&d, Some(&nul), None, 4), over);
            // One cell per group: nothing overflows.
            let g = Groups::of(&split, None, 3).unwrap();
            let want: Vec<_> = d[..3].iter().map(|&x| Some(x)).collect();
            assert_eq!(g.sum_int(&d, None, None, 3), Ok(want.clone()));
            let g = Groups::of(&split, None, 4).unwrap();
            let mut with_null = want;
            with_null.push(None);
            assert_eq!(g.sum_int(&d, Some(&nul), None, 4), Ok(with_null));
        }
    }

    #[test]
    fn null_only_and_empty_selections_reduce_without_panicking() {
        let clear = Bitmap::new_clear(3);
        let d = [5i64, 6, 7];
        let all = Groups::all(None, 3);
        assert_eq!(all.count(Some(&clear), None, 3), vec![0]);
        assert_eq!(all.sum_int(&d, Some(&clear), None, 3), Ok(vec![None]));
        let k = col(DataType::Int, &[1.into(), 2.into(), 1.into()]);
        for g in [
            Groups::all(Some(&[]), 3),
            Groups::of(&k, Some(&[]), 3).unwrap(),
        ] {
            assert!(g.is_empty());
            for v in [None, Some(&clear)] {
                assert_eq!(g.count(v, Some(&[]), 3), Vec::<i64>::new());
                assert_eq!(g.sum_int(&d, v, Some(&[]), 3), Ok(vec![]));
            }
        }
    }

    #[test]
    fn float_lanes_group_by_bits_and_keep_first_on_ties() {
        let k = col(DataType::Float, &[0.0.into(), (-0.0).into(), 0.0.into()]);
        let g = Groups::of(&k, None, 3).unwrap();
        assert_eq!(g.ids, vec![0, 1, 0]);
        let d = [0.0f64, 5.0, -0.0];
        let m = g.min_max_float(&d, None, None, 3, false);
        assert!(m[0].unwrap().is_sign_negative());
        assert_eq!(g.sum_float(&d, None, None, 3), vec![Some(0.0), Some(5.0)]);
    }
}
