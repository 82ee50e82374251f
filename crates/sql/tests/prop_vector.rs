//! Property tests for the vectorized executor: every compute kernel is
//! bit-identical to evaluating the scalar `expr` path per selected row
//! (same NULL propagation, same checked-overflow errors in the same
//! order), and whole queries return identical results through the plan
//! walker's row and vector modes.

use proptest::prelude::*;
use sstore_common::{Column as SchemaColumn, DataType, Result, Row, Schema, TableId, Value};
use sstore_sql::ast::BinOp;
use sstore_sql::exec::{run_sql, DirectContext, ExecContext, QueryResult};
use sstore_sql::expr::{eval, BoundExpr, EvalEnv};
use sstore_sql::ExecPath;
use sstore_storage::{Database, RowId};
use sstore_vector::column::valid_at;
use sstore_vector::compute::{arith_num, bool_to_sel, cmp_num, to_mask};
use sstore_vector::group::Groups;
use sstore_vector::join::{hash_join_i64, Matches};
use sstore_vector::{ArithOp, Bitmap, CmpOp, Column, ColumnData, NumSrc, Sel};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Generators and lane-building helpers.
// ---------------------------------------------------------------------------

/// Columns are generated as fixed-capacity vectors plus a live length
/// (the vendored proptest has no `prop_flat_map` to tie lengths
/// together); helpers slice to `n` before building lanes.
const CAP: usize = 32;

/// Integers biased toward small values but including the overflow edges.
fn arb_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        (-100i64..100).boxed(),
        (-100i64..100).boxed(),
        (-100i64..100).boxed(),
        any::<i64>().boxed(),
        Just(i64::MAX).boxed(),
        Just(i64::MIN).boxed(),
    ]
}

fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>().boxed(),
        any::<f64>().boxed(),
        Just(f64::NAN).boxed(),
        Just(-0.0f64).boxed(),
        Just(0.0f64).boxed(),
    ]
}

/// A nullable column: raw values + null mask (true = NULL).
fn arb_int_col() -> impl Strategy<Value = (Vec<i64>, Vec<bool>)> {
    (
        prop::collection::vec(arb_i64(), CAP..CAP + 1),
        prop::collection::vec(any::<bool>(), CAP..CAP + 1),
    )
}

fn arb_float_col() -> impl Strategy<Value = (Vec<f64>, Vec<bool>)> {
    (
        prop::collection::vec(arb_f64(), CAP..CAP + 1),
        prop::collection::vec(any::<bool>(), CAP..CAP + 1),
    )
}

/// A nullable GROUP BY key column over a small domain, so groups repeat.
fn arb_key_col() -> impl Strategy<Value = (Vec<i64>, Vec<bool>)> {
    (
        prop::collection::vec(-3i64..3, CAP..CAP + 1),
        prop::collection::vec(any::<bool>(), CAP..CAP + 1),
    )
}

/// Keys that are either all narrow or mixed with wide values, by case. A
/// narrow lane (`narrow` over at most `CAP` rows) keeps the key span small
/// enough for the direct-address kernels; a mixed one adds `any::<i64>()`,
/// `i64::MIN` and `i64::MAX`, which mostly sends them to the `HashMap`
/// fallback, while the narrow keys and the extremes still repeat.
fn arb_keys(narrow: std::ops::Range<i64>) -> impl Strategy<Value = Vec<i64>> {
    let mixed = prop_oneof![narrow.clone(), any::<i64>(), Just(i64::MIN), Just(i64::MAX)];
    prop_oneof![
        prop::collection::vec(narrow, CAP..CAP + 1),
        prop::collection::vec(mixed, CAP..CAP + 1),
    ]
}

/// Group the selected rows of the first `n` key cells with the kernel,
/// and — the reference — by a plain scan: the member rows of each group,
/// groups in order of first appearance, NULL a key like any other. Every
/// other case is the ungrouped aggregate instead (`nulls[CAP - 1]` says
/// which): one group holding every selected row.
fn grouped<'k>(
    keys: &(Vec<i64>, Vec<bool>),
    col: &'k mut Column,
    sel: Sel,
    n: usize,
) -> (Groups<'k>, Vec<Vec<usize>>) {
    if keys.1[CAP - 1] {
        let all = sel_indices(sel, n);
        let members = if all.is_empty() { vec![] } else { vec![all] };
        return (Groups::all(sel, n), members);
    }
    let cells = int_cells(keys, n);
    let (data, validity) = int_lane(&cells);
    *col = Column {
        data: ColumnData::Int(data),
        validity,
    };
    let groups = Groups::of(col, sel, n);
    let mut order: Vec<Option<i64>> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for i in sel_indices(sel, n) {
        let g = order
            .iter()
            .position(|k| *k == cells[i])
            .unwrap_or_else(|| {
                order.push(cells[i]);
                members.push(Vec::new());
                order.len() - 1
            });
        members[g].push(i);
        assert_eq!(
            group_of(&groups, sel, n, i),
            Some(g),
            "groups follow first appearance"
        );
    }
    assert_eq!(groups.len(), members.len());
    (groups, members)
}

/// The group of selected row `i`, read through `count`: a COUNT over a
/// bitmap with only row `i` set is 1 in `i`'s group and 0 in every other.
fn group_of(groups: &Groups, sel: Sel, n: usize, i: usize) -> Option<usize> {
    let mut only = Bitmap::new_clear(n);
    only.set(i, true);
    let counts = groups.count(Some(&only), sel, n);
    let g = counts.iter().position(|&c| c != 0)?;
    (counts[g] == 1 && counts.iter().sum::<i64>() == 1).then_some(g)
}

/// Materialize `Option` cells: NULL where the mask (damped to ~25%
/// nulls by pairing two bools) says so.
fn int_cells(col: &(Vec<i64>, Vec<bool>), n: usize) -> Vec<Option<i64>> {
    (0..n).map(|i| (!col.1[i]).then_some(col.0[i])).collect()
}

fn float_cells(col: &(Vec<f64>, Vec<bool>), n: usize) -> Vec<Option<f64>> {
    (0..n).map(|i| (!col.1[i]).then_some(col.0[i])).collect()
}

/// Build an i64 lane + validity bitmap from a nullable column. NULL slots
/// hold an arbitrary default that kernels must never read.
fn int_lane(vals: &[Option<i64>]) -> (Vec<i64>, Option<Bitmap>) {
    let data: Vec<i64> = vals.iter().map(|v| v.unwrap_or(0)).collect();
    if vals.iter().all(|v| v.is_some()) {
        return (data, None);
    }
    let mut bm = Bitmap::new_set(vals.len());
    for (i, v) in vals.iter().enumerate() {
        bm.set(i, v.is_some());
    }
    (data, Some(bm))
}

fn float_lane(vals: &[Option<f64>]) -> (Vec<f64>, Option<Bitmap>) {
    let data: Vec<f64> = vals.iter().map(|v| v.unwrap_or(0.0)).collect();
    if vals.iter().all(|v| v.is_some()) {
        return (data, None);
    }
    let mut bm = Bitmap::new_set(vals.len());
    for (i, v) in vals.iter().enumerate() {
        bm.set(i, v.is_some());
    }
    (data, Some(bm))
}

/// An owned selection of each form a kernel takes: every row, the
/// positions of a keep-mask, or the keep-mask itself.
enum TestSel {
    All,
    Pos(Vec<u32>),
    Mask(Vec<bool>),
}

impl TestSel {
    fn sel(&self) -> Sel<'_> {
        match self {
            TestSel::All => Sel::All,
            TestSel::Pos(p) => Sel::Pos(p),
            TestSel::Mask(m) => Sel::Mask(m),
        }
    }
}

/// The selection of form `form` (`0..3`) from a keep-mask.
fn selection(mask: &[bool], form: u8) -> TestSel {
    match form {
        0 => TestSel::All,
        1 => TestSel::Pos(bool_to_sel(mask)),
        _ => TestSel::Mask(mask.to_vec()),
    }
}

fn sel_indices(sel: Sel, rows: usize) -> Vec<usize> {
    match sel {
        Sel::All => (0..rows).collect(),
        Sel::Pos(s) => s.iter().map(|&i| i as usize).collect(),
        Sel::Mask(m) => (0..rows).filter(|&i| m[i]).collect(),
    }
}

/// The scalar reference: evaluate `col0 <op> col1` through the row
/// interpreter's expression evaluator.
fn scalar_binary(op: BinOp, a: Value, b: Value) -> Result<Value> {
    let e = BoundExpr::Binary {
        op,
        left: Box::new(BoundExpr::ColumnRef(0)),
        right: Box::new(BoundExpr::ColumnRef(1)),
    };
    let env = EvalEnv {
        params: &[],
        now: 0,
        subs: &[],
    };
    eval(&e, &[a, b], &env)
}

fn int_value(v: Option<i64>) -> Value {
    v.map(Value::Int).unwrap_or(Value::Null)
}

fn float_value(v: Option<f64>) -> Value {
    v.map(Value::Float).unwrap_or(Value::Null)
}

const CMP_OPS: [(CmpOp, BinOp); 6] = [
    (CmpOp::Eq, BinOp::Eq),
    (CmpOp::Ne, BinOp::Neq),
    (CmpOp::Lt, BinOp::Lt),
    (CmpOp::Le, BinOp::Le),
    (CmpOp::Gt, BinOp::Gt),
    (CmpOp::Ge, BinOp::Ge),
];

const ARITH_OPS: [(ArithOp, BinOp); 5] = [
    (ArithOp::Add, BinOp::Add),
    (ArithOp::Sub, BinOp::Sub),
    (ArithOp::Mul, BinOp::Mul),
    (ArithOp::Div, BinOp::Div),
    (ArithOp::Mod, BinOp::Mod),
];

// ---------------------------------------------------------------------------
// Kernel ≡ scalar interpreter, per selected row.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cmp_int_kernel_matches_scalar(
        a in arb_int_col(),
        b in arb_int_col(),
        shape in (0usize..CAP, prop::collection::vec(any::<bool>(), CAP..CAP + 1), 0u8..3),
        op_ix in 0usize..6,
    ) {
        let (n, mask, form) = shape;
        let (op, binop) = CMP_OPS[op_ix];
        let a = int_cells(&a, n);
        let b = int_cells(&b, n);
        let (ad, av) = int_lane(&a);
        let (bd, bv) = int_lane(&b);
        let sel = selection(&mask[..n], form);
        let (out, validity) = cmp_num(
            op, NumSrc::I(&ad), av.as_ref(), NumSrc::I(&bd), bv.as_ref(),
            sel.sel(), n,
        );
        for i in sel_indices(sel.sel(), n) {
            let expect = scalar_binary(binop, int_value(a[i]), int_value(b[i])).unwrap();
            match expect {
                Value::Null => prop_assert!(!valid_at(validity.as_ref(), i)),
                Value::Bool(want) => {
                    prop_assert!(valid_at(validity.as_ref(), i));
                    prop_assert_eq!(out[i], want);
                }
                other => prop_assert!(false, "scalar cmp returned {:?}", other),
            }
        }
    }

    #[test]
    fn cmp_mixed_kernel_matches_scalar(
        a in arb_int_col(),
        b in arb_float_col(),
        shape in (0usize..CAP, prop::collection::vec(any::<bool>(), CAP..CAP + 1), 0u8..3),
        op_ix in 0usize..6,
    ) {
        let (n, mask, form) = shape;
        let (op, binop) = CMP_OPS[op_ix];
        let a = int_cells(&a, n);
        let b = float_cells(&b, n);
        let (ad, av) = int_lane(&a);
        let (bd, bv) = float_lane(&b);
        let sel = selection(&mask[..n], form);
        let (out, validity) = cmp_num(
            op, NumSrc::I(&ad), av.as_ref(), NumSrc::F(&bd), bv.as_ref(),
            sel.sel(), n,
        );
        for i in sel_indices(sel.sel(), n) {
            let expect = scalar_binary(binop, int_value(a[i]), float_value(b[i])).unwrap();
            match expect {
                Value::Null => prop_assert!(!valid_at(validity.as_ref(), i)),
                Value::Bool(want) => {
                    prop_assert!(valid_at(validity.as_ref(), i));
                    prop_assert_eq!(out[i], want);
                }
                other => prop_assert!(false, "scalar cmp returned {:?}", other),
            }
        }
    }

    #[test]
    fn arith_int_kernel_matches_scalar_with_error_parity(
        a in arb_int_col(),
        b in arb_int_col(),
        shape in (0usize..CAP, prop::collection::vec(any::<bool>(), CAP..CAP + 1), 0u8..3),
        op_ix in 0usize..5,
    ) {
        let (n, mask, form) = shape;
        let (op, binop) = ARITH_OPS[op_ix];
        let a = int_cells(&a, n);
        let b = int_cells(&b, n);
        let (ad, av) = int_lane(&a);
        let (bd, bv) = int_lane(&b);
        let sel = selection(&mask[..n], form);
        let kernel = arith_num(
            op, NumSrc::I(&ad), av.as_ref(), NumSrc::I(&bd), bv.as_ref(),
            sel.sel(), n,
        );
        // The reference: scalar eval in selection (= row) order, stopping
        // at the first error exactly like the interpreter does.
        let mut reference: Vec<(usize, Value)> = Vec::new();
        let mut ref_err = None;
        for i in sel_indices(sel.sel(), n) {
            match scalar_binary(binop, int_value(a[i]), int_value(b[i])) {
                Ok(v) => reference.push((i, v)),
                Err(e) => { ref_err = Some(e); break; }
            }
        }
        match (kernel, ref_err) {
            (Err(ke), Some(re)) => prop_assert_eq!(ke, re),
            (Err(ke), None) => prop_assert!(false, "kernel errored ({ke}) but scalar path succeeded"),
            (Ok(_), Some(re)) => prop_assert!(false, "scalar path errored ({re}) but kernel succeeded"),
            (Ok((ColumnData::Int(out), validity)), None) => {
                for (i, want) in reference {
                    match want {
                        Value::Null => prop_assert!(!valid_at(validity.as_ref(), i)),
                        Value::Int(w) => {
                            prop_assert!(valid_at(validity.as_ref(), i));
                            prop_assert_eq!(out[i], w);
                        }
                        other => prop_assert!(false, "scalar arith returned {:?}", other),
                    }
                }
            }
            (Ok((other, _)), None) => prop_assert!(false, "int·int arith produced {:?}", other),
        }
    }

    #[test]
    fn sum_int_kernel_matches_scalar_fold(
        a in arb_int_col(),
        keys in arb_key_col(),
        shape in (0usize..CAP, prop::collection::vec(any::<bool>(), CAP..CAP + 1), 0u8..3),
    ) {
        let (n, mask, form) = shape;
        let a = int_cells(&a, n);
        let (ad, av) = int_lane(&a);
        let sel = selection(&mask[..n], form);
        let mut key_col = Column::typed(DataType::Int, 0);
        let (groups, members) = grouped(&keys, &mut key_col, sel.sel(), n);
        let kernel = groups.sum_int(&ad, av.as_ref(), sel.sel(), n);
        // Reference: per group, a checked fold in selection order, as the
        // row aggregate accumulator does.
        let want: Vec<Option<Option<i64>>> = members
            .iter()
            .map(|rows| {
                rows.iter().filter_map(|&i| a[i]).try_fold(None, |acc: Option<i64>, v| {
                    acc.map_or(Some(v), |s| s.checked_add(v)).map(Some)
                })
            })
            .collect();
        match kernel {
            Err(_) => prop_assert!(want.contains(&None), "kernel overflowed but reference did not"),
            Ok((got, counts)) => {
                let want: Option<Vec<Option<i64>>> = want.into_iter().collect();
                prop_assert_eq!(Some(got), want);
                // The cells each sum added: the group's COUNT of the lane.
                let valid: Vec<i64> = members
                    .iter()
                    .map(|rows| rows.iter().filter(|&&i| a[i].is_some()).count() as i64)
                    .collect();
                prop_assert_eq!(counts, valid);
            }
        }
    }

    #[test]
    fn float_and_minmax_aggregates_match_folds(
        ints in arb_int_col(),
        floats in arb_float_col(),
        keys in arb_key_col(),
        shape in (0usize..CAP, prop::collection::vec(any::<bool>(), CAP..CAP + 1), 0u8..3),
    ) {
        let (n, mask, form) = shape;
        let ints = int_cells(&ints, n);
        let floats = float_cells(&floats, n);
        let (id, iv) = int_lane(&ints);
        let (fd, fv) = float_lane(&floats);
        let sel = selection(&mask[..n], form);
        let sel = sel.sel();
        let mut key_col = Column::typed(DataType::Int, 0);
        let (groups, members) = grouped(&keys, &mut key_col, sel, n);

        let live_ints: Vec<Vec<i64>> = members
            .iter()
            .map(|rows| rows.iter().filter_map(|&i| ints[i]).collect())
            .collect();
        let sizes: Vec<i64> = members.iter().map(|rows| rows.len() as i64).collect();
        prop_assert_eq!(groups.count(None, sel, n), sizes);
        prop_assert_eq!(
            groups.count(iv.as_ref(), sel, n),
            live_ints.iter().map(|g| g.len() as i64).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            groups.min_max_int(&id, iv.as_ref(), sel, n, false),
            live_ints.iter().map(|g| g.iter().copied().min()).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            groups.min_max_int(&id, iv.as_ref(), sel, n, true),
            live_ints.iter().map(|g| g.iter().copied().max()).collect::<Vec<_>>()
        );
        let avg = groups.avg(NumSrc::I(&id), iv.as_ref(), sel, n);
        for (g, live) in live_ints.iter().enumerate() {
            let mut want_sum = 0f64;
            for &v in live { want_sum += v as f64; }
            prop_assert_eq!(avg[g].1, live.len() as i64);
            prop_assert_eq!(avg[g].0.to_bits(), want_sum.to_bits());
        }

        // Floats: the row accumulator starts from the first value, then
        // adds in order; MIN/MAX improve strictly under `total_cmp`.
        let sums = groups.sum_float(&fd, fv.as_ref(), sel, n);
        let mins = groups.min_max_float(&fd, fv.as_ref(), sel, n, false);
        let maxs = groups.min_max_float(&fd, fv.as_ref(), sel, n, true);
        for (g, rows) in members.iter().enumerate() {
            let live: Vec<f64> = rows.iter().filter_map(|&i| floats[i]).collect();
            let fsum = live.iter().copied().reduce(|a, b| a + b);
            prop_assert_eq!(sums[g].map(f64::to_bits), fsum.map(f64::to_bits));
            let fmin = live.iter().copied().reduce(|a, b| if b.total_cmp(&a).is_lt() { b } else { a });
            let fmax = live.iter().copied().reduce(|a, b| if b.total_cmp(&a).is_gt() { b } else { a });
            prop_assert_eq!(mins[g].map(f64::to_bits), fmin.map(f64::to_bits));
            prop_assert_eq!(maxs[g].map(f64::to_bits), fmax.map(f64::to_bits));
        }
    }

    #[test]
    fn bool_to_sel_matches_pred_semantics(
        a in arb_int_col(),
        b in arb_int_col(),
        shape in (0usize..CAP, prop::collection::vec(any::<bool>(), CAP..CAP + 1), 0u8..3),
    ) {
        // Derive a boolean column from a comparison, then check the
        // filter keeps exactly the rows where the scalar predicate says
        // true (NULL → dropped, as eval_pred maps NULL to false).
        let (n, mask, form) = shape;
        let a = int_cells(&a, n);
        let b = int_cells(&b, n);
        let (ad, av) = int_lane(&a);
        let (bd, bv) = int_lane(&b);
        let sel = selection(&mask[..n], form);
        let (vals, validity) = cmp_num(
            CmpOp::Lt, NumSrc::I(&ad), av.as_ref(), NumSrc::I(&bd), bv.as_ref(),
            sel.sel(), n,
        );
        let got = bool_to_sel(&to_mask(vals, validity.as_ref(), sel.sel()));
        let want: Vec<u32> = sel_indices(sel.sel(), n)
            .into_iter()
            .filter(|&i| matches!(
                scalar_binary(BinOp::Lt, int_value(a[i]), int_value(b[i])),
                Ok(Value::Bool(true))
            ))
            .map(|i| i as u32)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn hash_join_matches_nested_loop(
        build in (arb_keys(-8..8), prop::collection::vec(any::<bool>(), CAP..CAP + 1)),
        probe in (arb_keys(-8..8), prop::collection::vec(any::<bool>(), CAP..CAP + 1)),
        shape in (0usize..CAP, 0usize..CAP, 0u8..3, 0u8..3),
        masks in (prop::collection::vec(any::<bool>(), CAP..CAP + 1), prop::collection::vec(any::<bool>(), CAP..CAP + 1)),
    ) {
        let (bn, pn, bform, pform) = shape;
        let build = int_cells(&build, bn);
        let probe = int_cells(&probe, pn);
        let (bd, bv) = int_lane(&build);
        let (pd, pv) = int_lane(&probe);
        let bsel = selection(&masks.0[..bn], bform);
        let psel = selection(&masks.1[..pn], pform);
        let join = |build_rows| hash_join_i64(
            &bd, bv.as_ref(), bsel.sel(),
            &pd, pv.as_ref(), psel.sel(),
            build_rows,
        );
        // Asking for the build rows changes nothing else.
        let (with_rows, without) = (join(true), join(false));
        match (&with_rows, &without) {
            (Matches::Unique { hit, .. }, Matches::Unique { hit: bare, build_rows }) => {
                prop_assert_eq!(hit.len(), pn);
                prop_assert_eq!(hit, bare);
                prop_assert!(build_rows.is_empty());
            }
            (Matches::Pairs(..), Matches::Pairs(..)) => prop_assert_eq!(&with_rows, &without),
            _ => prop_assert!(false, "asking for build rows changed the path"),
        }
        let got: (Vec<u32>, Vec<u32>) = match with_rows {
            Matches::Pairs(p, b) => (p, b),
            Matches::Unique { hit, build_rows } => (0..pn)
                .filter(|&i| hit[i])
                .map(|i| (i as u32, build_rows[i]))
                .unzip(),
        };
        // Reference: the row interpreter's nested loop with the probe
        // side outer — probe-major, build matches in selection order,
        // NULL keys never matching.
        let mut want = (Vec::new(), Vec::new());
        for p in sel_indices(psel.sel(), pn) {
            let Some(pk) = probe[p] else { continue };
            for b in sel_indices(bsel.sel(), bn) {
                if build[b] == Some(pk) {
                    want.0.push(p as u32);
                    want.1.push(b as u32);
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn groups_match_reference(
        // Duplicate-heavy keys, or spans of up to 80 keys over at most
        // `CAP` rows: either side of the direct-address bound.
        keys in (prop_oneof![arb_keys(-3..3), arb_keys(-40..40)], prop::collection::vec(any::<bool>(), CAP..CAP + 1)),
        shape in (0usize..CAP + 1, prop::collection::vec(any::<bool>(), CAP..CAP + 1), 0u8..3, any::<bool>()),
    ) {
        let (n, mask, form, timestamp) = shape;
        let cells = int_cells(&keys, n);
        let (data, validity) = int_lane(&cells);
        let data = if timestamp { ColumnData::Timestamp(data) } else { ColumnData::Int(data) };
        let sel = selection(&mask[..n], form);
        let col = Column { data, validity };
        let got = Groups::of(&col, sel.sel(), n);
        let mut sizes: Vec<i64> = Vec::new();
        // Reference: ids from a `HashMap` in order of first appearance,
        // NULL (`None`) a key like any other.
        let mut seen: HashMap<Option<i64>, u32> = HashMap::new();
        let mut first = Vec::new();
        for i in sel_indices(sel.sel(), n) {
            let next = first.len() as u32;
            let g = *seen.entry(cells[i]).or_insert(next);
            if g == next {
                first.push(i as u32);
                sizes.push(0);
            }
            sizes[g as usize] += 1;
            prop_assert_eq!(group_of(&got, sel.sel(), n, i), Some(g as usize), "row {}", i);
        }
        prop_assert_eq!(got.count(None, sel.sel(), n), sizes);
        prop_assert_eq!(got.first, first);
    }
}

// ---------------------------------------------------------------------------
// End-to-end: whole queries agree between the plan walker's row mode and
// its vector mode.
// ---------------------------------------------------------------------------

/// Wraps [`DirectContext`] to pin the executor path (a bare
/// `DirectContext` always takes the default, vectorized one).
struct PathCtx<'a> {
    inner: DirectContext<'a>,
    path: ExecPath,
}

impl ExecContext for PathCtx<'_> {
    fn db(&self) -> &Database {
        self.inner.db()
    }
    fn now(&self) -> i64 {
        self.inner.now()
    }
    fn check_read(&self, table: TableId) -> Result<()> {
        self.inner.check_read(table)
    }
    fn check_write(&self, table: TableId) -> Result<()> {
        self.inner.check_write(table)
    }
    fn insert_visible(&mut self, table: TableId, row: Row) -> Result<RowId> {
        self.inner.insert_visible(table, row)
    }
    fn delete_row(&mut self, table: TableId, rid: RowId) -> Result<Row> {
        self.inner.delete_row(table, rid)
    }
    fn update_cells(
        &mut self,
        table: TableId,
        rid: RowId,
        cells: &mut [(usize, Value)],
    ) -> Result<()> {
        self.inner.update_cells(table, rid, cells)
    }
    fn exec_path(&self) -> ExecPath {
        self.path
    }
}

fn query_with(db: &mut Database, sql: &str, path: ExecPath) -> Result<QueryResult> {
    let mut ctx = PathCtx {
        inner: DirectContext { db, now_micros: 7 },
        path,
    };
    run_sql(sql, &mut ctx, &[])
}

/// Queries stressing every vectorized operator: scan+filter, projection
/// arithmetic, aggregates, text predicates, joins (both the i64 fast
/// path and the generic keyed path), sort/limit/distinct, grouped
/// aggregation, and IN/BETWEEN fallbacks that mix cellwise evaluation
/// into batches; then the nodes that always yield rows in either mode: a
/// point lookup, a theta join's nested loop over a filtered scan, a
/// scalar subquery, a table-less SELECT, and DISTINCT + ORDER BY over an
/// equi-join.
const E2E_QUERIES: &[&str] = &[
    "SELECT COUNT(*), COUNT(a), SUM(a), AVG(a), MIN(a), MAX(a) FROM t",
    "SELECT COUNT(*), SUM(f), MIN(f), MAX(f) FROM t WHERE a >= 0",
    "SELECT id, a + 1, a * 2, f * 0.5 FROM t WHERE a <> 3",
    "SELECT id, a FROM t WHERE a IS NULL",
    "SELECT s FROM t WHERE s >= 'f'",
    "SELECT id FROM t WHERE a IN (1, 2, 3) OR f > 10.0",
    "SELECT id FROM t WHERE a BETWEEN 0 AND 50 AND f < 100.0",
    "SELECT id, a FROM t WHERE a > 0 AND f > 0.0 ORDER BY a, id LIMIT 5",
    "SELECT id, a FROM t WHERE a > 0 LIMIT 3",
    "SELECT id FROM t LIMIT 2",
    "SELECT id FROM t LIMIT 1000",
    "SELECT DISTINCT a FROM t WHERE a IS NOT NULL",
    "SELECT t.id, d.name FROM t JOIN d ON t.k = d.k",
    "SELECT t.id, d.name FROM t JOIN d ON t.k = d.k AND t.a > 1",
    "SELECT COUNT(*) FROM t JOIN d ON t.s = d.name",
    "SELECT a, COUNT(*), SUM(f) FROM t GROUP BY a",
    "SELECT a FROM t WHERE id = 3",
    "SELECT t.id, d.name FROM t JOIN d ON t.k < d.k WHERE t.a > 1",
    "SELECT id FROM t WHERE a = (SELECT MAX(a) FROM t)",
    "SELECT 1 + 2",
    "SELECT DISTINCT d.name FROM t JOIN d ON t.k = d.k ORDER BY name",
    // INT with FLOAT and TIMESTAMP with INT, which the kernels mix as they
    // are, and a COALESCE the binder casts to one type.
    "SELECT id, a + f, a * f, f - a, a / 2.0 FROM t WHERE a < f",
    "SELECT id FROM t WHERE a > 1.5 OR f = 3 OR a BETWEEN 0.5 AND f",
    "SELECT id, NOW() + a, NOW() - 1, a - NOW() FROM t WHERE NOW() - a > 0",
    "SELECT id, COALESCE(a, 1.5), COALESCE(a, k) FROM t",
    "SELECT SUM(a + f), AVG(a * 2), MIN(a + 0.5) FROM t",
];

type E2eRow = (i64, Option<i64>, f64, String);

fn seed_db(rows: &[E2eRow]) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Schema::new(
            vec![
                SchemaColumn::new("id", DataType::Int),
                SchemaColumn::nullable("a", DataType::Int),
                SchemaColumn::new("f", DataType::Float),
                SchemaColumn::new("s", DataType::Text),
                SchemaColumn::new("k", DataType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "d",
        Schema::new(
            vec![
                SchemaColumn::new("k", DataType::Int),
                SchemaColumn::new("name", DataType::Text),
            ],
            &["k"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut ctx = DirectContext {
        db: &mut db,
        now_micros: 0,
    };
    for (id, a, f, s) in rows {
        run_sql(
            "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
            &mut ctx,
            &[
                Value::Int(*id),
                a.map(Value::Int).unwrap_or(Value::Null),
                Value::Float(*f),
                Value::Text(s.clone()),
                Value::Int(id.rem_euclid(6)),
            ],
        )
        .unwrap();
    }
    for k in 0..4 {
        run_sql(
            "INSERT INTO d VALUES (?, ?)",
            &mut ctx,
            &[Value::Int(k), Value::Text(format!("dim{k}"))],
        )
        .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn queries_agree_between_row_and_vector_paths(
        ids in prop::collection::vec(0i64..1000, 0..40),
        avals in prop::collection::vec(-5i64..100, 40..41),
        anulls in prop::collection::vec(any::<bool>(), 40..41),
        extra in (prop::collection::vec(any::<f64>(), 40..41), prop::collection::vec(".{0,6}", 40..41)),
    ) {
        // Dedup primary keys; keep first occurrence.
        let mut seen = std::collections::BTreeSet::new();
        let rows: Vec<E2eRow> = ids
            .iter()
            .enumerate()
            .filter(|(_, id)| seen.insert(**id))
            .map(|(i, id)| {
                let a = (!anulls[i]).then_some(avals[i]);
                (*id, a, extra.0[i], extra.1[i].clone())
            })
            .collect();
        let mut db = seed_db(&rows);
        for sql in E2E_QUERIES {
            let row = query_with(&mut db, sql, ExecPath::Row);
            let vec = query_with(&mut db, sql, ExecPath::Vector);
            match (row, vec) {
                (Ok(r), Ok(v)) => prop_assert_eq!(
                    r.rows, v.rows, "row/vector results differ for `{}`", sql
                ),
                (Err(re), Err(ve)) => prop_assert_eq!(
                    re.to_string(), ve.to_string(),
                    "row/vector errors differ for `{}`", sql
                ),
                (r, v) => prop_assert!(
                    false,
                    "row/vector outcome differs for `{}`: row={:?} vector={:?}",
                    sql, r.map(|q| q.rows.len()), v.map(|q| q.rows.len())
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Masks end to end: a `WHERE` feeding COUNT/SUM, a dense `GROUP BY`, a
// unique-key join filtered on its build side, and `LIMIT`s below and
// above the row count, on nullable lanes, on a
// table with free slots, with key spans of exactly the table's lane count
// (direct addressing) and of one more (the `HashMap`).
// ---------------------------------------------------------------------------

/// `f(id, k, w, v)` with `rows` rows, every `gap`-th deleted again so the
/// scan starts from a liveness mask, and `g(k, grp)` over the keys
/// `0 .. dims`. `f.k` spans `0 ..= span - 1` over the lanes.
fn masked_db(rows: usize, span: i64, dims: i64, cells: &[(i64, bool, i64, bool, f64)]) -> Database {
    let mut db = Database::new();
    db.create_table(
        "f",
        Schema::new(
            vec![
                SchemaColumn::new("id", DataType::Int),
                SchemaColumn::nullable("k", DataType::Int),
                SchemaColumn::nullable("w", DataType::Int),
                SchemaColumn::new("v", DataType::Float),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        "g",
        Schema::new(
            vec![
                SchemaColumn::new("k", DataType::Int),
                SchemaColumn::nullable("grp", DataType::Int),
            ],
            &["k"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut ctx = DirectContext {
        db: &mut db,
        now_micros: 0,
    };
    for (i, &(k, k_null, w, w_null, v)) in cells.iter().take(rows).enumerate() {
        // The first and last rows pin the span's ends; the rest fall inside.
        let k = match i {
            0 => 0,
            _ if i == rows - 1 => span - 1,
            _ => k.rem_euclid(span),
        };
        let null_ok = i != 0 && i != rows - 1;
        run_sql(
            "INSERT INTO f VALUES (?, ?, ?, ?)",
            &mut ctx,
            &[
                Value::Int(i as i64),
                if k_null && null_ok {
                    Value::Null
                } else {
                    Value::Int(k)
                },
                if w_null { Value::Null } else { Value::Int(w) },
                Value::Float(v),
            ],
        )
        .unwrap();
    }
    for k in 0..dims {
        let grp = if k % 5 == 4 {
            Value::Null
        } else {
            Value::Int(k % 3)
        };
        run_sql(
            "INSERT INTO g VALUES (?, ?)",
            &mut ctx,
            &[Value::Int(k), grp],
        )
        .unwrap();
    }
    db
}

const MASKED_QUERIES: &[&str] = &[
    "SELECT COUNT(*), COUNT(w), SUM(w) FROM f WHERE v >= ?",
    "SELECT COUNT(*), SUM(w), MIN(w), MAX(v) FROM f WHERE k = ?",
    "SELECT k, COUNT(*), COUNT(w), SUM(w) FROM f GROUP BY k",
    "SELECT k, COUNT(*), SUM(w), AVG(v) FROM f WHERE v >= ? GROUP BY k",
    "SELECT COUNT(*), SUM(f.w) FROM f JOIN g ON f.k = g.k WHERE g.grp = ?",
    "SELECT f.id, g.grp, f.w FROM f JOIN g ON f.k = g.k WHERE g.grp = ? AND f.v >= ?",
    "SELECT id, w FROM f WHERE v >= ? LIMIT 3",
    "SELECT id FROM f LIMIT 4",
    "SELECT id FROM f LIMIT 40",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn masked_aggregates_agree_between_row_and_vector_paths(
        cells in prop::collection::vec(
            ((0i64..64, any::<bool>()), (prop_oneof![-50i64..50, Just(i64::MAX)], any::<bool>()), 0i64..8),
            CAP..CAP + 1,
        ),
        shape in (2usize..CAP + 1, any::<bool>(), 2usize..6, 0i64..3),
        params in (0i64..8, 0i64..64),
    ) {
        let (rows, one_over, gap, grp) = shape;
        let cells: Vec<_> = cells
            .into_iter()
            .map(|((k, kn), (w, wn), v)| (k, kn, w, wn, v as f64 / 2.0))
            .collect();
        // Every lane stays a lane after the deletes, so the dense bound
        // is the table's row count before them.
        let span = rows as i64 + i64::from(one_over);
        let mut db = masked_db(rows, span, span, &cells);
        let mut ctx = DirectContext { db: &mut db, now_micros: 0 };
        for id in (1..rows - 1).step_by(gap) {
            run_sql("DELETE FROM f WHERE id = ?", &mut ctx, &[Value::Int(id as i64)]).unwrap();
        }
        let (threshold, key) = (Value::Float(params.0 as f64 / 2.0), Value::Int(params.1 % span));
        for sql in MASKED_QUERIES {
            let args: Vec<Value> = match sql.matches('?').count() {
                0 => vec![],
                1 if sql.contains("grp") => vec![Value::Int(grp)],
                1 if sql.contains("k = ?") => vec![key.clone()],
                1 => vec![threshold.clone()],
                _ => vec![Value::Int(grp), threshold.clone()],
            };
            let mut outcome = [ExecPath::Row, ExecPath::Vector].map(|path| {
                let mut ctx = PathCtx {
                    inner: DirectContext { db: &mut db, now_micros: 7 },
                    path,
                };
                run_sql(sql, &mut ctx, &args).map(|q| q.rows).map_err(|e| e.to_string())
            });
            let vector = outcome[1].clone();
            let row = std::mem::replace(&mut outcome[0], Ok(vec![]));
            prop_assert_eq!(row, vector, "row/vector differ for `{}` {:?}", sql, args);
        }
    }
}
