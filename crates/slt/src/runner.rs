//! Executes parsed `.slt` files against fresh engines.
//!
//! Each file runs on two fresh [`SStore`] instances in lockstep, one
//! pinned to the plan walker's row mode and one to its vector mode (no
//! state leaks between files). Every expectation is judged on both
//! engines, and every query's raw output must match row-for-row across
//! them before any `rowsort` normalization, a direct parity oracle for
//! the vectorized path. Each mismatch becomes one diff line, and a file's
//! failures are collected rather than stopping at the first, so a golden
//! run reports everything that drifted.

use crate::parser::{parse_slt, SltRecord, SortMode};
use sstore_common::{Result, Value};
use sstore_core::{ExecPath, SStore, SStoreBuilder};
use std::path::{Path, PathBuf};

/// Format one result row the way `.slt` expected blocks are written:
/// values joined by single spaces, `NULL` for NULL, `(empty)` for the
/// empty string.
pub(crate) fn format_row(values: &[Value]) -> String {
    values
        .iter()
        .map(|v| match v {
            Value::Null => "NULL".to_string(),
            Value::Text(s) if s.is_empty() => "(empty)".to_string(),
            other => other.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Run one statement through the right engine entry point: DDL goes to
/// the catalog path, anything else through immediate-commit SQL.
fn execute(db: &mut SStore, sql: &str) -> Result<Vec<String>> {
    let head = sql
        .split_whitespace()
        .next()
        .unwrap_or("")
        .to_ascii_uppercase();
    if head == "CREATE" {
        db.ddl(sql)?;
        return Ok(Vec::new());
    }
    let result = db.setup_sql(sql, &[])?;
    Ok(result.rows.iter().map(|r| format_row(r)).collect())
}

/// Build a fresh engine pinned to one executor path.
fn build_engine(path: &Path, exec: ExecPath) -> std::result::Result<SStore, String> {
    match SStoreBuilder::new().build() {
        Ok(mut db) => {
            db.engine_mut().set_exec_path(exec);
            Ok(db)
        }
        Err(e) => Err(format!("{}: engine build failed: {e}", path.display())),
    }
}

/// Run one `.slt` file through **both** walker modes in lockstep: a
/// row-mode engine and a vector-mode engine each execute every
/// record. Statements must agree on success vs. failure, and an expected
/// error's text must appear in each engine's message; queries are checked
/// against the expected block, and the vector engine's *raw* output —
/// before any `rowsort` normalization — must equal the row engine's raw
/// output. Any divergence is a parity failure.
pub(crate) fn run_slt_file_dual(path: &Path) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("{}: unreadable: {e}", path.display())],
    };
    let records = match parse_slt(path, &text) {
        Ok(f) => f,
        Err(e) => return vec![e],
    };
    let mut row_db = match build_engine(path, ExecPath::Row) {
        Ok(db) => db,
        Err(e) => return vec![e],
    };
    let mut vec_db = match build_engine(path, ExecPath::Vector) {
        Ok(db) => db,
        Err(e) => return vec![e],
    };
    let mut failures = Vec::new();
    for record in &records {
        match record {
            SltRecord::Clock { micros } => {
                row_db.advance_clock(*micros);
                vec_db.advance_clock(*micros);
            }
            SltRecord::Statement {
                sql,
                expect_error,
                line,
            } => {
                let row_res = execute(&mut row_db, sql);
                let vec_res = execute(&mut vec_db, sql);
                if row_res.is_ok() != vec_res.is_ok() {
                    failures.push(format!(
                        "{}:{line}: engines disagree on statement outcome (row: {}, vector: {})\n  {sql}",
                        path.display(),
                        outcome(&row_res),
                        outcome(&vec_res),
                    ));
                    continue;
                }
                match (&row_res, expect_error) {
                    (Ok(_), None) => {}
                    (Ok(_), Some(want)) => failures.push(format!(
                        "{}:{line}: expected error containing `{want}`, statement succeeded\n  {sql}",
                        path.display()
                    )),
                    (Err(e), None) => failures.push(format!(
                        "{}:{line}: statement failed: {e}\n  {sql}",
                        path.display()
                    )),
                    (Err(_), Some(want)) => {
                        // Both failed: the outcomes agree.
                        for (engine, res) in [("row", &row_res), ("vector", &vec_res)] {
                            let Err(e) = res else { continue };
                            let msg = e.to_string();
                            if !msg.to_lowercase().contains(&want.to_lowercase()) {
                                failures.push(format!(
                                    "{}:{line}: {engine} engine error `{msg}` does not contain `{want}`\n  {sql}",
                                    path.display()
                                ));
                            }
                        }
                    }
                }
            }
            SltRecord::Query {
                sql,
                expected,
                sort,
                line,
            } => {
                let row_res = execute(&mut row_db, sql);
                let vec_res = execute(&mut vec_db, sql);
                match (&row_res, &vec_res) {
                    (Err(e), Err(_)) => {
                        // Both engines reject the query; the expected
                        // block can't match either way, so report once.
                        failures.push(format!(
                            "{}:{line}: query failed: {e}\n  {sql}",
                            path.display()
                        ));
                    }
                    (Ok(row_raw), Ok(vec_raw)) => {
                        if row_raw != vec_raw {
                            failures.push(format!(
                                "{}:{line}: row/vector parity mismatch\n  {sql}\n  row engine:\n{}\n  vector engine:\n{}",
                                path.display(),
                                indent(row_raw),
                                indent(vec_raw)
                            ));
                        }
                        let mut actual = row_raw.clone();
                        let mut expected = expected.clone();
                        if *sort == SortMode::RowSort {
                            actual.sort();
                            expected.sort();
                        }
                        if actual != expected {
                            failures.push(format!(
                                "{}:{line}: result mismatch\n  {sql}\n  expected:\n{}\n  actual:\n{}",
                                path.display(),
                                indent(&expected),
                                indent(&actual)
                            ));
                        }
                    }
                    _ => failures.push(format!(
                        "{}:{line}: engines disagree on query outcome (row: {}, vector: {})\n  {sql}",
                        path.display(),
                        outcome(&row_res),
                        outcome(&vec_res),
                    )),
                }
            }
        }
    }
    failures
}

fn outcome(res: &Result<Vec<String>>) -> String {
    match res {
        Ok(rows) => format!("ok, {} row(s)", rows.len()),
        Err(e) => format!("error: {e}"),
    }
}

fn indent(lines: &[String]) -> String {
    if lines.is_empty() {
        return "    (no rows)".to_string();
    }
    lines
        .iter()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Recursively collect `*.slt` files under `dir`, sorted by path for a
/// stable run order.
pub(crate) fn discover_slt_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "slt") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Run every `.slt` file under `dir` in dual row/vector lockstep mode.
pub fn run_slt_dir_dual(dir: &Path) -> (usize, Vec<String>) {
    let files = discover_slt_files(dir);
    let mut failures = Vec::new();
    for f in &files {
        failures.extend(run_slt_file_dual(f));
    }
    (files.len(), failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_text(text: &str) -> Vec<String> {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sstore-slt-inline-{}-{:?}.slt",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&p, text).unwrap();
        let f = run_slt_file_dual(&p);
        std::fs::remove_file(&p).ok();
        f
    }

    #[test]
    fn passing_script_reports_nothing() {
        let f = run_text(
            "statement ok\nCREATE TABLE t (id INT, name TEXT, PRIMARY KEY (id))\n\n\
             statement ok\nINSERT INTO t VALUES (1, 'a'), (2, 'b')\n\n\
             query rowsort\nSELECT id, name FROM t\n----\n1 a\n2 b\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn mismatch_is_reported_with_location() {
        let f = run_text(
            "statement ok\nCREATE TABLE t (id INT, PRIMARY KEY (id))\n\n\
             query\nSELECT COUNT(*) FROM t\n----\n7\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].contains(":4:"), "{}", f[0]);
        assert!(f[0].contains("result mismatch"), "{}", f[0]);
    }

    #[test]
    fn expected_error_matches_substring() {
        let f = run_text(
            "statement ok\nCREATE TABLE t (id INT, PRIMARY KEY (id))\n\n\
             statement ok\nINSERT INTO t VALUES (1)\n\n\
             statement error duplicate\nINSERT INTO t VALUES (1)\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn error_text_is_judged_on_both_engines() {
        let f = run_text(
            "statement ok\nCREATE TABLE t (id INT, PRIMARY KEY (id))\n\n\
             statement ok\nINSERT INTO t VALUES (1)\n\n\
             statement error no such text\nINSERT INTO t VALUES (1)\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].contains("row engine error"), "{}", f[0]);
        assert!(f[1].contains("vector engine error"), "{}", f[1]);
    }

    #[test]
    fn unexpected_success_is_a_failure() {
        let f = run_text(
            "statement ok\nCREATE TABLE t (id INT, PRIMARY KEY (id))\n\n\
             statement error duplicate\nINSERT INTO t VALUES (1)\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].contains("statement succeeded"), "{}", f[0]);
    }
}
