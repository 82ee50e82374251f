//! Hash build/probe kernel for equi-joins over `i64` key lanes.
//!
//! The generic (mixed-type / multi-key) hash join lives in
//! `sstore_sql::vexec` where dynamic [`Value`](sstore_common::Value) keys
//! are available; this kernel is the fast path for the common single
//! `INT = INT` join key, avoiding per-probe `Value` hashing.

use crate::column::{valid_at, Bitmap};
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
    let mut table: HashMap<i64, Vec<u32>> = HashMap::new();
    let mut add = |i: usize| {
        if valid_at(build_validity, i) {
            table.entry(build[i]).or_default().push(i as u32);
        }
    };
    match build_sel {
        None => (0..build.len()).for_each(&mut add),
        Some(s) => s.iter().for_each(|&i| add(i as usize)),
    }
    let (mut probe_idx, mut build_idx) = (Vec::new(), Vec::new());
    let mut probe_one = |i: usize| {
        if valid_at(probe_validity, i) {
            if let Some(matches) = table.get(&probe[i]) {
                probe_idx.extend(std::iter::repeat_n(i as u32, matches.len()));
                build_idx.extend_from_slice(matches);
            }
        }
    };
    match probe_sel {
        None => (0..probe.len()).for_each(&mut probe_one),
        Some(s) => s.iter().for_each(|&i| probe_one(i as usize)),
    }
    (probe_idx, build_idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_in_probe_major_build_order() {
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
