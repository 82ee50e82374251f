//! The golden suite: every `.slt` file under `tests/slt/` runs against
//! fresh engines; any drift from the expected results fails with per-file
//! diffs. Add coverage by adding files — no Rust required.
//!
//! Each file runs once, on a row-interpreter engine and a vectorized
//! engine in lockstep: every expectation is judged on both, and every
//! query's raw output must match across them before any `rowsort`
//! normalization.

use std::path::Path;

#[test]
fn golden_slt_suite_row_vector_parity() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/slt");
    let (files, failures) = sstore_slt::run_slt_dir_dual(&dir);
    assert!(
        files >= 15,
        "expected at least 15 .slt files under {}, found {files}",
        dir.display()
    );
    assert!(
        failures.is_empty(),
        "{} slt failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
