//! Build/probe kernel for equi-joins over `i64` key lanes.
//!
//! The generic (mixed-type / multi-key) hash join lives in
//! `sstore_sql::vexec` where dynamic [`Value`](sstore_common::Value) keys
//! are available; this kernel is the fast path for the common single
//! `INT = INT` join key, avoiding per-probe `Value` hashing.
//!
//! When the valid selected build keys span (`max − min + 1`) no more
//! values than there are selected build and probe rows together, and no
//! key occurs twice, the build side is addressed directly by `key − min`
//! through one slot per key, probed without a branch per row, and nothing
//! is hashed. Wider build sides, build sides with a duplicate key and
//! build sides with no valid selected key go through a `HashMap`. Both
//! ways yield the same pairs in the same order.

use crate::column::{valid_at, Bitmap};
use crate::group::dense_range;
use std::collections::HashMap;

/// Join two selections on `i64` equality. Returns the matches as two
/// parallel index vectors `(probe_idx, build_idx)` — the join's output
/// stays columnar, and the caller gathers only the columns it needs —
/// in probe-major order, with build matches in build-selection order:
/// exactly the iteration order of the row interpreter's nested loop when
/// the probe side is the outer relation. NULL keys never match (SQL `=`
/// is NULL-rejecting).
pub fn hash_join_i64(
    build: &[i64],
    build_validity: Option<&Bitmap>,
    build_sel: Option<&[u32]>,
    probe: &[i64],
    probe_validity: Option<&Bitmap>,
    probe_sel: Option<&[u32]>,
) -> (Vec<u32>, Vec<u32>) {
    let build = Side {
        keys: build,
        validity: build_validity,
        sel: build_sel,
    };
    let probe = Side {
        keys: probe,
        validity: probe_validity,
        sel: probe_sel,
    };
    let bound = build.selected() + probe.selected();
    if let Some((min, span)) = dense_range(
        build.keys,
        build.validity,
        build.sel,
        build.keys.len(),
        bound,
    ) {
        if let Some(pairs) = unique_join(build, probe, min, span) {
            return pairs;
        }
    }
    let mut table: HashMap<i64, Vec<u32>> = HashMap::new();
    build.each_valid(|i, k| table.entry(k).or_default().push(i as u32));
    let (mut probe_idx, mut build_idx) = (Vec::new(), Vec::new());
    probe.each_valid(|i, k| {
        if let Some(m) = table.get(&k) {
            probe_idx.extend(std::iter::repeat_n(i as u32, m.len()));
            build_idx.extend_from_slice(m);
        }
    });
    (probe_idx, build_idx)
}

/// One input of the join: a key lane, its validity and its selection.
#[derive(Clone, Copy)]
struct Side<'a> {
    keys: &'a [i64],
    validity: Option<&'a Bitmap>,
    sel: Option<&'a [u32]>,
}

impl Side<'_> {
    /// Number of selected rows.
    fn selected(self) -> usize {
        self.sel.map_or(self.keys.len(), <[u32]>::len)
    }

    /// `f(i, key)` for each selected row with a valid key, in selection
    /// order.
    fn each_valid(self, mut f: impl FnMut(usize, i64)) {
        for_sel!(self.sel, self.keys.len(), i => {
            if valid_at(self.validity, i) {
                f(i, self.keys[i]);
            }
        });
    }
}

/// [`hash_join_i64`] with every valid selected build key in
/// `min .. min + span`, through one slot per key at `key − min`. `None`
/// when some key has two build rows.
fn unique_join(build: Side, probe: Side, min: i64, span: usize) -> Option<(Vec<u32>, Vec<u32>)> {
    // Out-of-range keys wrap to offsets of `span` or more. Slot `span` is
    // the miss that out-of-range probes are clamped to, so the probe
    // writes every candidate pair and keeps it by advancing past it only
    // on a hit.
    const MISS: u32 = u32::MAX;
    let at = |k: i64| k.wrapping_sub(min) as u64 as usize;
    let mut slot = vec![MISS; span + 1];
    let mut dup = false;
    build.each_valid(|i, k| {
        let s = &mut slot[at(k)];
        dup |= *s != MISS;
        *s = i as u32;
    });
    if dup {
        return None;
    }
    let n = probe.selected();
    let (mut probe_idx, mut build_idx) = (vec![0u32; n], vec![0u32; n]);
    let mut kept = 0;
    for_sel!(probe.sel, probe.keys.len(), i => {
        let b = slot[at(probe.keys[i]).min(span)];
        probe_idx[kept] = i as u32;
        build_idx[kept] = b;
        kept += (valid_at(probe.validity, i) & (b != MISS)) as usize;
    });
    probe_idx.truncate(kept);
    build_idx.truncate(kept);
    Some((probe_idx, build_idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_in_probe_major_build_order() {
        // A span of 11 over three plus three rows: the `HashMap` path.
        let build = [10i64, 20, 10];
        let probe = [10i64, 30, 20];
        let pairs = hash_join_i64(&build, None, None, &probe, None, None);
        assert_eq!(pairs, (vec![0, 0, 2], vec![0, 2, 1]));
    }

    #[test]
    fn null_keys_never_match() {
        let build = [1i64, 1];
        let mut bv = Bitmap::new_set(2);
        bv.set(0, false);
        let probe = [1i64];
        let pairs = hash_join_i64(&build, Some(&bv), None, &probe, None, None);
        assert_eq!(pairs, (vec![0], vec![1]));
        // A NULL probe row's lane default must not hit, through one slot
        // per key or through the `HashMap` a duplicate key falls back to.
        let probe = [0i64, 0];
        let mut pv = Bitmap::new_set(2);
        pv.set(0, false);
        let unique = hash_join_i64(&[0], None, None, &probe, Some(&pv), None);
        assert_eq!(unique, (vec![1], vec![0]));
        let dup = hash_join_i64(&[0, 0], None, None, &probe, Some(&pv), None);
        assert_eq!(dup, (vec![1, 1], vec![0, 1]));
    }

    #[test]
    fn span_equal_to_both_selections_is_dense_and_one_over_hashes() {
        // Two build rows and two probe rows bound the span at four.
        assert_eq!(dense_range(&[0, 3], None, None, 2, 4), Some((0, 4)));
        assert_eq!(dense_range(&[0, 4], None, None, 2, 4), None);
        let dense = hash_join_i64(&[0, 3], None, None, &[3, 0], None, None);
        assert_eq!(dense, (vec![0, 1], vec![1, 0]));
        let hashed = hash_join_i64(&[0, 4], None, None, &[4, 0], None, None);
        assert_eq!(hashed, (vec![0, 1], vec![1, 0]));
        // Selected rows set the bound (two build rows and one probe row),
        // and an unselected build key far away does not widen the span.
        let (bsel, psel) = ([0u32, 2], [1u32]);
        assert_eq!(
            dense_range(&[0, 100, 2], None, Some(&bsel), 3, 3),
            Some((0, 3))
        );
        assert_eq!(dense_range(&[0, 100, 3], None, Some(&bsel), 3, 3), None);
        for build in [[0i64, 100, 2], [0, 100, 3]] {
            let probe = [100, build[2], 0];
            let got = hash_join_i64(&build, None, Some(&bsel), &probe, None, Some(&psel));
            assert_eq!(got, (vec![1], vec![2]));
        }
    }

    #[test]
    fn extreme_keys_join_without_overflow() {
        let (min, max) = (i64::MIN, i64::MAX);
        let hashed = hash_join_i64(&[min, max], None, None, &[max, 0, min], None, None);
        assert_eq!(hashed, (vec![0, 2], vec![1, 0]));
        // Dense at either end of the domain; probes far outside the
        // range, on both sides, miss.
        let low = hash_join_i64(
            &[min + 1, min],
            None,
            None,
            &[max, min, -1, min + 1],
            None,
            None,
        );
        assert_eq!(low, (vec![1, 3], vec![1, 0]));
        let high = hash_join_i64(&[max, max - 1], None, None, &[min, max, 0], None, None);
        assert_eq!(high, (vec![1], vec![0]));
    }

    #[test]
    fn no_valid_selected_build_key_matches_nothing() {
        let nulls = Bitmap::new_clear(2);
        let got = hash_join_i64(&[0, 0], Some(&nulls), None, &[0, 0], None, None);
        assert_eq!(got, (vec![], vec![]));
        let mut bv = Bitmap::new_set(3);
        bv.set(1, false);
        let got = hash_join_i64(&[5, 0, 6], Some(&bv), Some(&[1]), &[0, 5, 6], None, None);
        assert_eq!(got, (vec![], vec![]));
    }

    #[test]
    fn duplicate_keys_filling_the_span_fall_back() {
        // Three build ids over a span of three, yet key 0 occurs twice
        // and key 1 never: one slot per key would drop a match.
        let build = [0i64, 2, 0];
        assert_eq!(dense_range(&build, None, None, 3, 7), Some((0, 3)));
        let probe = [0i64, 1, 2, 0];
        assert_eq!(unique_join(side(&build), side(&probe), 0, 3), None);
        let got = hash_join_i64(&build, None, None, &probe, None, None);
        assert_eq!(got, (vec![0, 0, 2, 3, 3], vec![0, 2, 1, 0, 2]));
        // Unique keys over the same span take the slots.
        let unique = [0i64, 2, 1];
        let slots = unique_join(side(&unique), side(&probe), 0, 3);
        assert_eq!(slots, Some((vec![0, 1, 2, 3], vec![0, 2, 1, 0])));
    }

    fn side(keys: &[i64]) -> Side<'_> {
        Side {
            keys,
            validity: None,
            sel: None,
        }
    }

    #[test]
    fn selections_restrict_both_sides() {
        let build = [7i64, 7, 7];
        let probe = [7i64, 7];
        let bsel = [1u32];
        let psel = [0u32];
        let pairs = hash_join_i64(&build, None, Some(&bsel), &probe, None, Some(&psel));
        assert_eq!(pairs, (vec![0], vec![1]));
    }
}
