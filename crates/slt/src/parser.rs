//! The `.slt` file format.
//!
//! A dialect of sqllogictest's script format, trimmed to what the engine
//! speaks. A file is a sequence of records separated by blank lines;
//! lines starting with `#` are comments. Records:
//!
//! ```text
//! statement ok
//! INSERT INTO t VALUES (1, 'a')
//!
//! statement error duplicate
//! INSERT INTO t VALUES (1, 'a')
//!
//! query rowsort
//! SELECT a, b FROM t
//! ----
//! 1 a
//! 2 b
//!
//! clock 5000000
//! ```
//!
//! * `statement ok` — run the SQL (DDL or DML), expect success.
//! * `statement error <substring>` — expect failure; the error's display
//!   must contain `<substring>` (case-insensitive).
//! * `query [nosort|rowsort]` — run the SQL, compare formatted rows to
//!   the lines after `----`. `rowsort` sorts actual and expected rows
//!   before comparing (for queries with no ORDER BY); `nosort` (default)
//!   compares in engine order.
//! * `clock <micros>` — advance the partition's logical clock (drives
//!   time-based `RANGE` windows).
//!
//! Result formatting: one line per row, columns joined by single spaces;
//! `NULL` for SQL NULL, `(empty)` for the empty string.

use std::path::Path;

/// How a `query` record's rows are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SortMode {
    /// Compare rows in the order the engine produced them.
    NoSort,
    /// Lexicographically sort actual and expected lines before comparing.
    RowSort,
}

/// One executable record of an `.slt` file.
#[derive(Debug, Clone)]
pub(crate) enum SltRecord {
    /// `statement ok` / `statement error <substring>`.
    Statement {
        /// The SQL text.
        sql: String,
        /// Expected error substring; `None` means the statement must
        /// succeed.
        expect_error: Option<String>,
        /// 1-based line of the directive (for diff messages).
        line: usize,
    },
    /// `query [sortmode]` with expected results.
    Query {
        /// The SQL text.
        sql: String,
        /// Expected result lines (post-`----`).
        expected: Vec<String>,
        /// Comparison mode.
        sort: SortMode,
        /// 1-based line of the directive.
        line: usize,
    },
    /// `clock <micros>`: advance logical time.
    Clock {
        /// Microseconds to advance by.
        micros: i64,
    },
}

/// Parse `text` (read from `path`, used only for messages) into records,
/// in file order.
pub(crate) fn parse_slt(path: &Path, text: &str) -> Result<Vec<SltRecord>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut records = Vec::new();
    let mut i = 0usize;
    while i < lines.len() {
        let raw = lines[i];
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            i += 1;
            continue;
        }
        let lineno = i + 1;
        let err = |msg: String| format!("{}:{lineno}: {msg}", path.display());
        if let Some(rest) = line.strip_prefix("statement") {
            let rest = rest.trim();
            let expect_error = if rest == "ok" {
                None
            } else if let Some(sub) = rest.strip_prefix("error") {
                Some(sub.trim().to_string())
            } else {
                return Err(err(format!(
                    "expected `statement ok` or `statement error <substring>`, got `{line}`"
                )));
            };
            i += 1;
            let (sql, next) = take_sql(&lines, i, |l| l.is_empty());
            if sql.is_empty() {
                return Err(err("statement directive with no SQL".into()));
            }
            records.push(SltRecord::Statement {
                sql,
                expect_error,
                line: lineno,
            });
            i = next;
        } else if let Some(rest) = line.strip_prefix("query") {
            let sort = match rest.trim() {
                "" | "nosort" => SortMode::NoSort,
                "rowsort" => SortMode::RowSort,
                other => {
                    return Err(err(format!(
                        "unknown query sort mode `{other}` (use nosort or rowsort)"
                    )))
                }
            };
            i += 1;
            let (sql, next) = take_sql(&lines, i, |l| l == "----" || l.is_empty());
            if sql.is_empty() {
                return Err(err("query directive with no SQL".into()));
            }
            i = next;
            let mut expected = Vec::new();
            if i < lines.len() && lines[i].trim() == "----" {
                i += 1;
                while i < lines.len() && !lines[i].trim().is_empty() {
                    expected.push(lines[i].trim().to_string());
                    i += 1;
                }
            } else {
                return Err(err("query directive without `----` result block".into()));
            }
            records.push(SltRecord::Query {
                sql,
                expected,
                sort,
                line: lineno,
            });
        } else if let Some(rest) = line.strip_prefix("clock") {
            let micros: i64 = rest
                .trim()
                .parse()
                .map_err(|e| err(format!("bad clock micros: {e}")))?;
            records.push(SltRecord::Clock { micros });
            i += 1;
        } else {
            return Err(err(format!(
                "unknown directive `{line}` (expected statement/query/clock)"
            )));
        }
    }
    Ok(records)
}

/// Collect SQL lines from `start` until `stop` matches (on the trimmed
/// line); returns the joined SQL and the index of the stopping line.
fn take_sql(lines: &[&str], start: usize, stop: impl Fn(&str) -> bool) -> (String, usize) {
    let mut sql_lines = Vec::new();
    let mut i = start;
    while i < lines.len() {
        let t = lines[i].trim();
        if stop(t) {
            break;
        }
        sql_lines.push(t);
        i += 1;
    }
    (sql_lines.join(" "), i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_record_kinds() {
        let text = "\
# a comment
statement ok
CREATE TABLE t (id INT,
  PRIMARY KEY (id))

statement error duplicate key
INSERT INTO t VALUES (1)

clock 250000

query rowsort
SELECT id FROM t
----
1
2
";
        let f = parse_slt(Path::new("x.slt"), text).unwrap();
        assert_eq!(f.len(), 4);
        match &f[0] {
            SltRecord::Statement {
                sql, expect_error, ..
            } => {
                assert!(sql.contains("CREATE TABLE t (id INT, PRIMARY KEY (id))"));
                assert!(expect_error.is_none());
            }
            r => panic!("unexpected {r:?}"),
        }
        match &f[1] {
            SltRecord::Statement { expect_error, .. } => {
                assert_eq!(expect_error.as_deref(), Some("duplicate key"));
            }
            r => panic!("unexpected {r:?}"),
        }
        assert!(matches!(f[2], SltRecord::Clock { micros: 250000 }));
        match &f[3] {
            SltRecord::Query { expected, sort, .. } => {
                assert_eq!(expected, &["1", "2"]);
                assert_eq!(*sort, SortMode::RowSort);
            }
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn query_without_result_block_is_an_error() {
        let text = "query\nSELECT 1\n";
        let e = parse_slt(Path::new("y.slt"), text).unwrap_err();
        assert!(e.contains("----"), "{e}");
    }

    #[test]
    fn unknown_directive_is_an_error() {
        let e = parse_slt(Path::new("z.slt"), "frobnicate\n").unwrap_err();
        assert!(e.contains("unknown directive"), "{e}");
    }
}
