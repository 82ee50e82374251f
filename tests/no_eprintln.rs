//! Gates over library sources. Binaries (`src/bin/`, `crates/*/src/bin/`)
//! are exempt from both: they talk to a human terminal and own their
//! process environment by design.
//!
//! * Library code must log through `sstore_common::slog!` (leveled,
//!   structured, counted in the obs registry) — never raw `eprintln!`.
//!   Doc prose mentioning the macro name without the call's open paren
//!   is fine.
//! * Library code reads only the operator and harness switches from the
//!   environment (logging, tracing, fault injection) and never writes it:
//!   an engine behaviour that an environment variable can fork is a
//!   setting nobody can see in the code that builds the engine.

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
const ALLOWED_ENV_VARS: [&str; 6] = [
    "SSTORE_LOG",
    "SSTORE_TRACE",
    "SSTORE_TRACE_RING",
    "SSTORE_FAULT_POINT",
    "SSTORE_FAULT_NTH",
    "SSTORE_FAULT_MODE",
];

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
