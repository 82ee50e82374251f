//! Build/probe kernel for equi-joins over `i64` key lanes.
//!
//! The generic (mixed-type / multi-key) hash join lives in
//! `sstore_sql::vexec` where dynamic [`Value`](sstore_common::Value) keys
//! are available; this kernel is the fast path for the common single
//! `INT = INT` join key, avoiding per-probe `Value` hashing.
//!
//! When the valid selected build keys span (`max − min + 1`) no more
//! values than the two sides have rows, and no key occurs twice, the
//! build side is addressed directly by `key − min` through one slot per
//! key, probed without a branch per row, and nothing is hashed. Each probe
//! row then matches at most once, so the join's output is the probe side
//! itself, filtered by a hit mask: [`Matches::Unique`]. Wider build sides,
//! build sides with a duplicate key and build sides with no valid
//! selected key go through a `HashMap` and yield index pairs,
//! [`Matches::Pairs`]. Both name the same matches in the same order.

use crate::column::{valid_at, Bitmap};
use crate::group::{dense_range, each_lane};
use crate::Sel;
use sstore_common::hash::HashMap;

/// The matches of [`hash_join_i64`], in probe-major order with build
/// matches in build-selection order: exactly the iteration order of the
/// row interpreter's nested loop when the probe side is the outer
/// relation. NULL keys never match (SQL `=` is NULL-rejecting).
#[derive(Debug, PartialEq, Eq)]
pub enum Matches {
    /// Each probe row matches at most one build row. `hit` is row-aligned
    /// with the probe side: selected, valid and matched. `build_rows[i]`
    /// is the build row probe row `i` matched, for each hit `i` (other
    /// lanes hold some valid build row); it is empty unless asked for.
    Unique {
        /// The probe rows that matched.
        hit: Vec<bool>,
        /// Row-aligned with the probe side: the build row of each hit.
        build_rows: Vec<u32>,
    },
    /// The matches as two parallel index vectors `(probe, build)` — the
    /// join's output stays columnar, and the caller gathers only the
    /// columns it needs.
    Pairs(Vec<u32>, Vec<u32>),
}

/// Join two selections on `i64` equality; see [`Matches`]. `build_rows`
/// says whether a unique join should also name each hit's build row,
/// which only a caller that reads build-side columns needs.
pub fn hash_join_i64(
    build: &[i64],
    build_validity: Option<&Bitmap>,
    build_sel: Sel,
    probe: &[i64],
    probe_validity: Option<&Bitmap>,
    probe_sel: Sel,
    build_rows: bool,
) -> Matches {
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
    let bound = build.sel.bound(build.keys.len()) + probe.sel.bound(probe.keys.len());
    if let Some((min, span)) = dense_range(
        build.keys,
        build.validity,
        build.sel,
        build.keys.len(),
        bound,
    ) {
        if let Some(m) = unique_join(build, probe, min, span, build_rows) {
            return m;
        }
    }
    let mut table: HashMap<i64, Vec<u32>> = HashMap::default();
    build.each_valid(|i, k| table.entry(k).or_default().push(i as u32));
    let (mut probe_idx, mut build_idx) = (Vec::new(), Vec::new());
    probe.each_valid(|i, k| {
        if let Some(m) = table.get(&k) {
            probe_idx.extend(std::iter::repeat_n(i as u32, m.len()));
            build_idx.extend_from_slice(m);
        }
    });
    Matches::Pairs(probe_idx, build_idx)
}

/// One input of the join: a key lane, its validity and its selection.
#[derive(Clone, Copy)]
struct Side<'a> {
    keys: &'a [i64],
    validity: Option<&'a Bitmap>,
    sel: Sel<'a>,
}

impl Side<'_> {
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
fn unique_join(
    build: Side,
    probe: Side,
    min: i64,
    span: usize,
    want_rows: bool,
) -> Option<Matches> {
    // Out-of-range keys wrap to offsets of `span` or more. Slot `span` is
    // the miss that out-of-range probes are clamped to, so the probe
    // reads a slot for every lane and keeps it only on a hit.
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
    let rows = probe.keys.len();
    let mut hit = vec![false; rows];
    let mut build_rows = vec![0u32; if want_rows { rows } else { 0 }];
    each_lane(probe.validity, probe.sel, rows, |i, keep| {
        let b = slot[at(probe.keys[i]).min(span)];
        let h = keep & (b != MISS);
        hit[i] = h;
        if want_rows {
            // A miss names build row 0, which exists: some key was valid.
            build_rows[i] = b & (h as u32).wrapping_neg();
        }
    });
    Some(Matches::Unique { hit, build_rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Matches {
        /// The matches as `(probe, build)` index pairs. A [`Matches::Unique`]
        /// must carry its `build_rows`.
        fn into_pairs(self) -> (Vec<u32>, Vec<u32>) {
            match self {
                Matches::Pairs(p, b) => (p, b),
                Matches::Unique { hit, build_rows } => (0..hit.len())
                    .filter(|&i| hit[i])
                    .map(|i| (i as u32, build_rows[i]))
                    .unzip(),
            }
        }
    }

    /// The matches as pairs, whichever way the kernel found them.
    fn join(
        build: &[i64],
        bv: Option<&Bitmap>,
        bsel: Sel,
        probe: &[i64],
        pv: Option<&Bitmap>,
        psel: Sel,
    ) -> (Vec<u32>, Vec<u32>) {
        hash_join_i64(build, bv, bsel, probe, pv, psel, true).into_pairs()
    }

    #[test]
    fn matches_in_probe_major_build_order() {
        // A span of 11 over three plus three rows: the `HashMap` path.
        let build = [10i64, 20, 10];
        let probe = [10i64, 30, 20];
        let pairs = join(&build, None, Sel::All, &probe, None, Sel::All);
        assert_eq!(pairs, (vec![0, 0, 2], vec![0, 2, 1]));
    }

    #[test]
    fn null_keys_never_match() {
        let build = [1i64, 1];
        let mut bv = Bitmap::new_set(2);
        bv.set(0, false);
        let probe = [1i64];
        let pairs = join(&build, Some(&bv), Sel::All, &probe, None, Sel::All);
        assert_eq!(pairs, (vec![0], vec![1]));
        // A NULL probe row's lane default must not hit, through one slot
        // per key or through the `HashMap` a duplicate key falls back to.
        let probe = [0i64, 0];
        let mut pv = Bitmap::new_set(2);
        pv.set(0, false);
        let unique = join(&[0], None, Sel::All, &probe, Some(&pv), Sel::All);
        assert_eq!(unique, (vec![1], vec![0]));
        let dup = join(&[0, 0], None, Sel::All, &probe, Some(&pv), Sel::All);
        assert_eq!(dup, (vec![1, 1], vec![0, 1]));
    }

    #[test]
    fn span_equal_to_both_selections_is_dense_and_one_over_hashes() {
        // Two build rows and two probe rows bound the span at four.
        assert_eq!(dense_range(&[0, 3], None, Sel::All, 2, 4), Some((0, 4)));
        assert_eq!(dense_range(&[0, 4], None, Sel::All, 2, 4), None);
        let dense = join(&[0, 3], None, Sel::All, &[3, 0], None, Sel::All);
        assert_eq!(dense, (vec![0, 1], vec![1, 0]));
        let hashed = join(&[0, 4], None, Sel::All, &[4, 0], None, Sel::All);
        assert_eq!(hashed, (vec![0, 1], vec![1, 0]));
        // Selected rows set the bound (two build rows and one probe row),
        // and an unselected build key far away does not widen the span.
        let (bsel, psel) = ([0u32, 2], [1u32]);
        assert_eq!(
            dense_range(&[0, 100, 2], None, Sel::Pos(&bsel), 3, 3),
            Some((0, 3))
        );
        assert_eq!(dense_range(&[0, 100, 3], None, Sel::Pos(&bsel), 3, 3), None);
        for build in [[0i64, 100, 2], [0, 100, 3]] {
            let probe = [100, build[2], 0];
            let got = join(&build, None, Sel::Pos(&bsel), &probe, None, Sel::Pos(&psel));
            assert_eq!(got, (vec![1], vec![2]));
        }
    }

    #[test]
    fn extreme_keys_join_without_overflow() {
        let (min, max) = (i64::MIN, i64::MAX);
        let hashed = join(&[min, max], None, Sel::All, &[max, 0, min], None, Sel::All);
        assert_eq!(hashed, (vec![0, 2], vec![1, 0]));
        // Dense at either end of the domain; probes far outside the
        // range, on both sides, miss.
        let low = join(
            &[min + 1, min],
            None,
            Sel::All,
            &[max, min, -1, min + 1],
            None,
            Sel::All,
        );
        assert_eq!(low, (vec![1, 3], vec![1, 0]));
        let high = join(
            &[max, max - 1],
            None,
            Sel::All,
            &[min, max, 0],
            None,
            Sel::All,
        );
        assert_eq!(high, (vec![1], vec![0]));
    }

    #[test]
    fn no_valid_selected_build_key_matches_nothing() {
        let nulls = Bitmap::new_clear(2);
        let got = join(&[0, 0], Some(&nulls), Sel::All, &[0, 0], None, Sel::All);
        assert_eq!(got, (vec![], vec![]));
        let mut bv = Bitmap::new_set(3);
        bv.set(1, false);
        let got = join(
            &[5, 0, 6],
            Some(&bv),
            Sel::Pos(&[1]),
            &[0, 5, 6],
            None,
            Sel::All,
        );
        assert_eq!(got, (vec![], vec![]));
    }

    #[test]
    fn duplicate_keys_filling_the_span_fall_back() {
        // Three build ids over a span of three, yet key 0 occurs twice
        // and key 1 never: one slot per key would drop a match.
        let build = [0i64, 2, 0];
        assert_eq!(dense_range(&build, None, Sel::All, 3, 7), Some((0, 3)));
        let probe = [0i64, 1, 2, 0];
        assert_eq!(unique_join(side(&build), side(&probe), 0, 3, true), None);
        let got = join(&build, None, Sel::All, &probe, None, Sel::All);
        assert_eq!(got, (vec![0, 0, 2, 3, 3], vec![0, 2, 1, 0, 2]));
        // Unique keys over the same span take the slots.
        let unique = [0i64, 2, 1];
        let slots = unique_join(side(&unique), side(&probe), 0, 3, true).map(Matches::into_pairs);
        assert_eq!(slots, Some((vec![0, 1, 2, 3], vec![0, 2, 1, 0])));
    }

    fn side(keys: &[i64]) -> Side<'_> {
        Side {
            keys,
            validity: None,
            sel: Sel::All,
        }
    }

    #[test]
    fn selections_restrict_both_sides() {
        let build = [7i64, 7, 7];
        let probe = [7i64, 7];
        let bsel = [1u32];
        let psel = [0u32];
        let pairs = join(&build, None, Sel::Pos(&bsel), &probe, None, Sel::Pos(&psel));
        assert_eq!(pairs, (vec![0], vec![1]));
    }
}
