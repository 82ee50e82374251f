//! `bench` — the repository's one benchmark: four named workloads,
//! end-to-end and per-layer metrics, a layer ladder. See `README.md` in
//! this directory for why each workload and metric exists.
//!
//! Built only from this directory's own manifest (`cargo run --release
//! --manifest-path crates/bench/src/bin/bench/Cargo.toml -- <mode>`).
//!
//! ```text
//! bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         one run of one workload (what the driver invokes). --trace 0
//!         measures the end-to-end metrics with tracing off; --trace 1
//!         measures the per-layer metrics and writes the span log. The
//!         last line of standard output is one JSON object.
//! bench all [--seed n] [--seconds s] [--smoke]
//!         every workload, untraced then traced, each in a child process
//!         so process-global counters and peak RSS start clean; prints
//!         every metric by name with its unit and checks the oracles.
//! bench run <workload> [...]   the same for one workload
//! bench traced [...]           traced runs only: the ladder table, the
//!                              stage waterfall, target/benchmark/trace.json
//! bench aa [...]               two full sets in alternating order; exits
//!                              non-zero past a bound (the noise floor)
//! bench manifest               print BENCHMARK.json
//! ```

mod catalog;
mod gen;
mod ingest;
mod ladder;
mod layers;
mod load;
mod procs;
mod query_mix;
mod report;
mod spans;
mod stats;
mod voter;
mod xpart;

use catalog::{Better, Workload, END_TO_END, EXACT_COUNTS, PER_LAYER, RUN_SECONDS};
use report::{bench_root, parse_line, render, Outcome, Parsed, RunCfg, SMOKE_SECONDS};
use spans::Recorder;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Run one workload in this process.
fn run_workload(workload: Workload, cfg: &RunCfg) -> (Outcome, Recorder) {
    // End-to-end numbers are always taken with tracing off; a traced run
    // switches the engine's stage recording on around the phases it reads
    // the waterfall from, and nowhere else.
    sstore_common::obs::set_enabled(false);
    let mut rec = Recorder::new(cfg.trace);
    let outcome = match workload {
        Workload::Voter1p => voter::run(cfg, &mut rec),
        Workload::IngestDurable2p => ingest::run(cfg, &mut rec),
        Workload::Xpart2p => xpart::run(cfg, &mut rec),
        Workload::QueryMix1p => query_mix::run(cfg, &mut rec),
    };
    (outcome, rec)
}

fn trace_path(workload: Workload) -> std::path::PathBuf {
    bench_root().join(format!("trace.{}.json", workload.name()))
}

/// Driver mode: one run, JSON on the last line, non-zero on a mismatch.
fn single(workload: Workload, cfg: &RunCfg) -> ExitCode {
    let (outcome, rec) = run_workload(workload, cfg);
    if cfg.trace {
        if let Err(e) = rec.write_json(&trace_path(workload), workload.name()) {
            eprintln!("could not write the span log: {e}");
            return ExitCode::FAILURE;
        }
        for (name, t) in rec.totals() {
            println!(
                "# span {name:<28} count={:<8} total={:.3}ms self={:.3}ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    let (lines, json) = render(workload, cfg, &outcome);
    for line in lines {
        println!("{line}");
    }
    println!("{json}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child process and parse its JSON line. The
/// child's report is passed through.
fn child(workload: Workload, cfg: &RunCfg) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if !cfg.trace {
        cmd.env("SSTORE_TRACE", "off");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("{line}");
    }
    let parsed = parse_line(last).ok_or_else(|| {
        format!(
            "{} (trace={}) printed no result; exit status {}",
            workload.name(),
            cfg.trace,
            output.status
        )
    })?;
    if !output.status.success() || !parsed.correct {
        return Err(format!(
            "{} (trace={}) failed its correctness check",
            workload.name(),
            cfg.trace
        ));
    }
    Ok(parsed)
}

/// Metric values of one set of runs: workload → metric → value.
type Set = BTreeMap<&'static str, BTreeMap<String, f64>>;

/// Run `workloads` in order, untraced and/or traced, merging each
/// workload's metrics into one map.
fn run_set(workloads: &[Workload], cfg: &RunCfg, modes: &[bool]) -> Result<Set, String> {
    let mut set = Set::new();
    for &w in workloads {
        for &trace in modes {
            let parsed = child(
                w,
                &RunCfg {
                    trace,
                    ..cfg.clone()
                },
            )?;
            let metrics = set.entry(w.name()).or_default();
            if !trace {
                // The end-to-end failed share, as the driver sees it.
                let share = parsed.failed as f64 / parsed.attempted.max(1) as f64;
                metrics.insert(UNTRACED_FAILED_SHARE.to_string(), share);
            }
            metrics.extend(parsed.metrics);
        }
    }
    Ok(set)
}

/// Key under which a set keeps `failed / attempted` of the untraced run.
const UNTRACED_FAILED_SHARE: &str = "untraced failed/attempted";

/// The share of the open loop's batches that may miss the latency limit
/// before the report says so (`ingest_durable_2p`, traced run).
const OPEN_LOOP_MISS_SHARE: f64 = 0.001;

/// Print every metric of `set`. Returns false when an operation failed
/// outright: untraced runs and the closed loops of traced runs count only
/// errors as failures, and an error is never noise. The traced
/// `failed_share` of `ingest_durable_2p` also counts open-loop batches
/// over the latency limit, a tail the README shows moving several-fold
/// between runs of the same code — that one is reported, not gated.
fn print_set(set: &Set, workloads: &[Workload]) -> bool {
    let mut ok = true;
    println!("\n== every metric, by workload ==");
    for &w in workloads {
        let Some(values) = set.get(w.name()) else {
            continue;
        };
        println!("\n[{}]", w.name());
        for def in END_TO_END.iter().chain(PER_LAYER) {
            if !def.owners.contains(&w) {
                continue;
            }
            if let Some(v) = values.get(def.name) {
                println!("  {:<36} {v:>16.4} {}", def.name, def.unit);
            }
        }
        if let Some(share) = values.get(UNTRACED_FAILED_SHARE) {
            println!("  {UNTRACED_FAILED_SHARE:<36} {share:>16.6} share");
            if *share > 0.0 {
                println!("  FAILED: operations of the untraced run returned errors");
                ok = false;
            }
        }
        match values.get("failed_share") {
            Some(&share) if w == Workload::IngestDurable2p => {
                let over = if share > OPEN_LOOP_MISS_SHARE {
                    " (reported, not gated)"
                } else {
                    ""
                };
                println!(
                    "  open loop: {share:.4} of the batches failed or missed the latency \
                     limit; expected at most {OPEN_LOOP_MISS_SHARE}{over}"
                );
            }
            Some(&share) if share > 0.0 => {
                println!("  FAILED: operations of the traced run returned errors");
                ok = false;
            }
            _ => {}
        }
    }
    ok
}

/// The ladder, rung by rung, with what each layer adds — the reference
/// table of README.md — and the ordering the rungs must keep. All eight
/// rungs come from one process, the traced run of [`ladder::OWNER`].
fn print_ladder(set: &Set) -> bool {
    let Some(values) = set.get(ladder::OWNER.name()) else {
        return true;
    };
    let rungs = ladder::Rung::ALL.map(|r| (r, values.get(r.metric()).copied().unwrap_or(0.0)));
    println!("\n== layer ladder: us per 64-row border batch ==");
    println!(
        "  {:<10} {:>12} {:>14}",
        "rung", "us/batch", "added by rung"
    );
    let core = rungs[5].1;
    let mut ok = true;
    for (i, (rung, v)) in rungs.iter().enumerate() {
        // Each rung is charged against the one below; the two 2-partition
        // rungs both stand on `core`.
        let below = match i {
            0 => 0.0,
            6 | 7 => core,
            _ => rungs[i - 1].1,
        };
        let name = rung.name();
        println!("  {name:<10} {v:>12.1} {:>14.1}", v - below);
        if *v <= 0.0 || *v < below {
            println!("  FAILED: rung {name} is not above the rung it stands on");
            ok = false;
        }
    }
    ok
}

fn merge_traces(workloads: &[Workload]) -> std::io::Result<()> {
    let mut merged = String::from("{\"traces\": [\n");
    for (i, &w) in workloads.iter().enumerate() {
        merged.push_str(std::fs::read_to_string(trace_path(w))?.trim_end());
        merged.push_str(if i + 1 < workloads.len() { ",\n" } else { "\n" });
    }
    merged.push_str("]}\n");
    let path = bench_root().join("trace.json");
    std::fs::write(&path, merged)?;
    println!("\nspan log: {}", path.display());
    Ok(())
}

/// `aa`: two sets of the same binary, the second in reverse workload
/// order. Every end-to-end metric but `setup_s` must agree within its
/// bound and every exact count must be identical.
fn aa(cfg: &RunCfg) -> Result<bool, String> {
    let forward = Workload::ALL;
    let mut backward = Workload::ALL;
    backward.reverse();
    let a = run_set(&forward, cfg, &[false, true])?;
    let b = run_set(&backward, cfg, &[false, true])?;
    let mut ok = true;
    println!("\n== A/A: relative difference of two runs of the same code ==");
    println!(
        "  {:<20} {:<28} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for w in Workload::ALL {
        let (ma, mb) = (&a[w.name()], &b[w.name()]);
        for def in END_TO_END {
            let (va, vb) = (ma[def.name], mb[def.name]);
            // Signed so that positive means B is worse than A.
            let diff = match def.better {
                Better::Higher => (va - vb) / va,
                Better::Lower => (vb - va) / va,
            };
            // A zero or non-finite reading is a broken measurement, never
            // an agreement.
            let broken = !(va > 0.0 && vb > 0.0 && diff.is_finite());
            let past = diff.abs() > def.bound;
            // The driver does not hold the spread of `setup_s` to its
            // bound, only the shift of its median over many runs; one
            // pair is a spread of two, so here it is shown, not gated.
            let gated = def.name != "setup_s";
            println!(
                "  {:<20} {:<28} {va:>14.4} {vb:>14.4} {:>7.1}% {:>6.0}%{}",
                w.name(),
                def.name,
                diff * 100.0,
                def.bound * 100.0,
                match (broken, past, gated) {
                    (true, _, _) => "  BROKEN: zero or not a number",
                    (_, true, true) => "  PAST BOUND",
                    (_, true, false) => "  past bound (not gated)",
                    _ => "",
                }
            );
            ok &= !(broken || past && gated);
        }
        for (name, on) in EXACT_COUNTS {
            if on.contains(&w) && ma[*name] != mb[*name] {
                println!(
                    "  {:<20} {name:<28} {:>14} {:>14}  NOT IDENTICAL",
                    w.name(),
                    ma[*name],
                    mb[*name]
                );
                ok = false;
            }
        }
    }
    Ok(ok)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         bench <all | run <workload> | traced | aa | manifest> \
         [--seed n] [--seconds s] [--smoke]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunCfg {
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
    };
    let mut workload = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match arg.as_str() {
            "--workload" => match value().and_then(Workload::parse) {
                Some(w) => workload = Some(w),
                None => return usage(),
            },
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => return usage(),
            },
            "--seconds" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v <= 600.0 => cfg.seconds = v,
                _ => return usage(),
            },
            "--trace" => match value() {
                Some("0") => cfg.trace = false,
                Some("1") => cfg.trace = true,
                _ => return usage(),
            },
            "--smoke" => cfg.seconds = SMOKE_SECONDS,
            other if !other.starts_with('-') => positional.push(other),
            _ => return usage(),
        }
    }
    if let Some(w) = workload {
        return if positional.is_empty() {
            single(w, &cfg)
        } else {
            usage()
        };
    }
    let result = match positional.as_slice() {
        ["manifest"] => {
            print!("{}", catalog::manifest());
            Ok(true)
        }
        ["all"] => {
            run_set(&Workload::ALL, &cfg, &[false, true]).map(|set| print_set(&set, &Workload::ALL))
        }
        ["run", name] => match Workload::parse(name) {
            Some(w) => run_set(&[w], &cfg, &[false, true]).map(|set| print_set(&set, &[w])),
            None => return usage(),
        },
        ["traced"] => run_set(&Workload::ALL, &cfg, &[true]).and_then(|set| {
            let ok = print_set(&set, &Workload::ALL) & print_ladder(&set);
            merge_traces(&Workload::ALL).map_err(|e| e.to_string())?;
            Ok(ok)
        }),
        ["aa"] => aa(&cfg),
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke run: every workload, both modes, in this process, about a
    /// second each in a release build. Checks what the driver will check:
    /// every name of `BENCHMARK.json` is emitted with its unit and a
    /// finite value, the oracles pass, and the JSON line parses back.
    #[test]
    fn smoke_emits_every_metric_of_the_manifest() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let cfg = RunCfg {
                    seed: 7,
                    seconds: SMOKE_SECONDS,
                    trace,
                };
                let (outcome, rec) = run_workload(workload, &cfg);
                assert!(
                    outcome.correct(),
                    "{} trace={trace}: {:?}",
                    workload.name(),
                    outcome.mismatches
                );
                let (_, json) = render(workload, &cfg, &outcome);
                let parsed = parse_line(&json).expect("the JSON line parses back");
                assert!(parsed.correct && parsed.attempted >= 1);
                let expected = report::expected(trace);
                assert_eq!(parsed.metrics.len(), expected.len());
                for def in expected {
                    let v = parsed.metrics[def.name];
                    assert!(v.is_finite(), "{} is not finite", def.name);
                    assert!(
                        json.contains(&format!("\"unit\": \"{}\"", def.unit)),
                        "{} lost its unit",
                        def.name
                    );
                    if !trace {
                        assert!(v > 0.0, "end-to-end {} must never be 0", def.name);
                    }
                }
                assert_eq!(!rec.totals().is_empty(), trace, "spans iff traced");
            }
        }
        let _ = std::fs::remove_dir_all(bench_root());
    }
}
