//! Gates over library sources. Binaries (`src/bin/`, `crates/*/src/bin/`)
//! are exempt from both: they talk to a human terminal and own their
//! process environment by design.
//!
//! * Library code must log through `sstore_common::slog!` (leveled,
//!   structured, counted in the obs registry) — never raw `eprintln!`.
//!   Doc prose mentioning the macro name without the call's open paren
//!   is fine.
//! * Library code reads only the operator switches from the environment
//!   (logging, tracing) and never writes it: an engine behaviour that an
//!   environment variable can fork is a setting nobody can see in the code
//!   that builds the engine.
//! * Each crate keeps its `pub` items within a budget. An item no other
//!   crate names is `pub(crate)`, so rustc's dead-code lint sees it; a
//!   change that raises a budget says why.
//! * Each crate keeps its non-test source lines within a budget, and the
//!   test prints every crate's count beside its largest file. A change
//!   that raises a budget says why.
//! * Each crate keeps its panic sites (`.unwrap()`, `.expect(`, `panic!(`,
//!   `unreachable!(` outside comments and tests) within a budget: a
//!   condition the code can report is a typed error, not a panic.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            // Binary targets are allowed to print to stderr directly.
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every library source: the umbrella crate's and each crate's `src/`.
fn library_sources() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("src"), &mut sources);
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(
        sources.len() > 20,
        "walk looks broken: only {} sources found",
        sources.len()
    );
    sources
}

#[test]
fn library_sources_use_slog_not_eprintln() {
    let mut offenders = Vec::new();
    for path in library_sources() {
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            if line.contains("eprintln!(") {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "raw eprintln! in library code (use sstore_common::slog! instead):\n{}",
        offenders.join("\n")
    );
}

/// The environment variables library code may read.
const ALLOWED_ENV_VARS: [&str; 3] = ["SSTORE_LOG", "SSTORE_TRACE", "SSTORE_TRACE_RING"];

#[test]
fn library_sources_read_only_operator_env_vars() {
    let mut offenders = Vec::new();
    for path in library_sources() {
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            let mut bad = line.contains("set_var(") || line.contains("remove_var(");
            for call in ["env::var(", "env::var_os("] {
                for (at, _) in line.match_indices(call) {
                    let name = line[at + call.len()..]
                        .strip_prefix('"')
                        .and_then(|rest| rest.split('"').next());
                    bad |= !name.is_some_and(|n| ALLOWED_ENV_VARS.contains(&n));
                }
            }
            if bad {
                offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "library code may read only {ALLOWED_ENV_VARS:?} from the environment \
         and never write it:\n{}",
        offenders.join("\n")
    );
}

/// The crate a library source belongs to (`sstore` for the umbrella).
fn crate_of(path: &Path) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    match path.strip_prefix(root).unwrap().strip_prefix("crates") {
        Ok(inner) => inner.iter().next().unwrap().to_string_lossy().into_owned(),
        Err(_) => "sstore".to_string(),
    }
}

/// A source's non-test lines: those before its first line-start
/// `#[cfg(test)]`.
fn non_test_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
}

/// The most `pub` fn/struct/enum/trait/type/const/static items each crate
/// may declare in its library sources (`pub use`, `pub mod` and `pub(…)`
/// do not count, nor do lines from a file's first `#[cfg(test)]` on).
const PUB_ITEM_BUDGET: [(&str, usize); 11] = [
    ("sstore", 0),
    ("bikeshare", 8),
    ("common", 160),
    ("core", 76),
    ("engine", 27),
    ("slt", 18),
    ("sql", 35),
    ("storage", 92),
    ("txn", 87),
    ("vector", 54),
    ("voter", 22),
];

/// True for a line declaring a `pub` item (a `pub const fn` counts once).
fn declares_pub_item(line: &str) -> bool {
    const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];
    line.trim_start()
        .strip_prefix("pub ")
        .and_then(|rest| rest.split(|c: char| !c.is_alphanumeric()).next())
        .is_some_and(|word| KINDS.contains(&word))
}

#[test]
fn library_pub_items_stay_within_budget() {
    let mut counts = std::collections::BTreeMap::new();
    for path in library_sources() {
        let text = std::fs::read_to_string(&path).unwrap();
        let n = non_test_lines(&text)
            .filter(|line| declares_pub_item(line))
            .count();
        *counts.entry(crate_of(&path)).or_insert(0) += n;
    }
    let mut over = Vec::new();
    for (krate, n) in &counts {
        let budget = PUB_ITEM_BUDGET
            .iter()
            .find(|(k, _)| k == krate)
            .map(|b| b.1);
        println!("pub items: {krate:<10} {n:>4} (budget {budget:?})");
        if budget.is_none_or(|b| *n > b) {
            over.push(format!("{krate}: {n} pub items, budget {budget:?}"));
        }
    }
    let total: usize = counts.values().sum();
    println!("pub items: total      {total:>4}");
    assert!(
        over.is_empty(),
        "narrow what no other crate names to `pub(crate)`, or raise the budget \
         and say why:\n{}",
        over.join("\n")
    );
}

/// The most non-test lines ([`non_test_lines`]) each crate's library
/// sources may hold, pinned at today's counts.
const LINE_BUDGET: [(&str, usize); 11] = [
    ("bikeshare", 878),
    ("common", 3363),
    ("core", 3454),
    ("engine", 986),
    ("slt", 1138),
    ("sql", 5472),
    ("sstore", 39),
    ("storage", 3027),
    ("txn", 3384),
    ("vector", 1874),
    ("voter", 912),
];

#[test]
fn library_lines_stay_within_budget() {
    // crate → (lines, (largest file's lines, largest file))
    let mut counts = std::collections::BTreeMap::new();
    for path in library_sources() {
        let text = std::fs::read_to_string(&path).unwrap();
        let n = non_test_lines(&text).count();
        let (total, largest) = counts
            .entry(crate_of(&path))
            .or_insert((0, (0, PathBuf::new())));
        *total += n;
        if n > largest.0 {
            *largest = (n, path);
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut over = Vec::new();
    for (krate, (n, (largest_n, largest))) in &counts {
        let budget = LINE_BUDGET.iter().find(|(k, _)| k == krate).map(|b| b.1);
        let largest = largest.strip_prefix(root).unwrap().display();
        println!("lines: {krate:<10} {n:>5} (budget {budget:?}), largest {largest} ({largest_n})");
        if budget.is_none_or(|b| *n > b) {
            over.push(format!("{krate}: {n} lines, budget {budget:?}"));
        }
    }
    let total: usize = counts.values().map(|c| c.0).sum();
    println!("lines: total      {total:>5}");
    assert!(
        over.is_empty(),
        "a crate outgrew its line budget; delete what the change made \
         redundant, or raise the budget and say why:\n{}",
        over.join("\n")
    );
}

/// The most panic sites ([`panic_sites`]) each crate's non-test library
/// lines may hold, pinned at today's counts.
const PANIC_SITE_BUDGET: [(&str, usize); 11] = [
    ("bikeshare", 2),
    ("common", 10),
    ("core", 2),
    ("engine", 5),
    ("slt", 2),
    ("sql", 24),
    ("sstore", 0),
    ("storage", 3),
    ("txn", 4),
    ("vector", 4),
    ("voter", 3),
];

/// The panic sites on one line; a `//` comment line has none.
fn panic_sites(line: &str) -> usize {
    if line.trim_start().starts_with("//") {
        return 0;
    }
    [".unwrap()", ".expect(", "panic!(", "unreachable!("]
        .iter()
        .map(|site| line.matches(site).count())
        .sum()
}

#[test]
fn library_panic_sites_stay_within_budget() {
    let mut counts = std::collections::BTreeMap::new();
    for path in library_sources() {
        let text = std::fs::read_to_string(&path).unwrap();
        let n: usize = non_test_lines(&text).map(panic_sites).sum();
        *counts.entry(crate_of(&path)).or_insert(0) += n;
    }
    let mut over = Vec::new();
    for (krate, n) in &counts {
        let budget = PANIC_SITE_BUDGET
            .iter()
            .find(|(k, _)| k == krate)
            .map(|b| b.1);
        println!("panic sites: {krate:<10} {n:>4} (budget {budget:?})");
        if budget.is_none_or(|b| *n > b) {
            over.push(format!("{krate}: {n} panic sites, budget {budget:?}"));
        }
    }
    let total: usize = counts.values().sum();
    println!("panic sites: total      {total:>4}");
    assert!(
        over.is_empty(),
        "report the condition as a typed error instead, or raise the budget \
         and say why:\n{}",
        over.join("\n")
    );
}
