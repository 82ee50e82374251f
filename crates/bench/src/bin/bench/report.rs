//! What one workload run hands back, and how it is printed: a
//! human-readable line per metric (name, value, unit, sample count) and,
//! as the last line of standard output, the one JSON object the driver
//! reads. JSON is written by hand — the benchmark adds no dependency.

use crate::catalog::{self, MetricDef, Workload};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seed every input is drawn from.
    pub seed: u64,
    /// How long the timed phases should take on the authoring machine;
    /// every fixed op count is `frozen rate × seconds`.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// `--seconds` of a smoke run: every phase shrinks to a few operations.
pub const SMOKE_SECONDS: f64 = 0.3;

impl RunCfg {
    /// Set-ups an untraced run makes (`setup_s` is their median): five,
    /// or one on a smoke run, which has no time for more.
    pub fn setups(&self) -> usize {
        if self.trace || self.seconds < 1.0 {
            1
        } else {
            5
        }
    }

    /// Run `setup` [`RunCfg::setups`] times, clocking each; every result
    /// but the last goes to `teardown` before the next begins. Returns the
    /// last result and the set-up times in seconds.
    pub fn set_up<T>(
        &self,
        mut setup: impl FnMut() -> T,
        mut teardown: impl FnMut(T),
    ) -> (T, Vec<f64>) {
        let mut times = Vec::new();
        let mut ready = None;
        for _ in 0..self.setups() {
            if let Some(old) = ready.take() {
                teardown(old);
            }
            let t = std::time::Instant::now();
            ready = Some(setup());
            times.push(t.elapsed().as_secs_f64());
        }
        (ready.expect("at least one set-up"), times)
    }

    /// A table size: `full`, or a sixteenth of it on a smoke run. Sizes
    /// are otherwise fixed — they do not follow `--seconds`.
    pub fn sized(&self, full: usize) -> usize {
        if self.seconds < 1.0 {
            full / 16
        } else {
            full
        }
    }

    /// `per_second × seconds`, at least `min`.
    pub fn count(&self, per_second: f64, min: usize) -> usize {
        ((per_second * self.seconds) as usize).max(min)
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample descriptions for timings (`p50=… (n=…)`), by metric name.
    pub samples: BTreeMap<&'static str, String>,
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed: errors, sheds, timeouts, latency-limit
    /// misses.
    pub failed: u64,
    /// Oracle findings; empty means the outputs are correct.
    pub mismatches: Vec<String>,
    /// Free-form notes printed with the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(catalog::find(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Record a timing with its sample description.
    pub fn set_timed(&mut self, name: &'static str, value: f64, samples: String) {
        self.set(name, value);
        self.samples.insert(name, samples);
    }

    /// Record percentile `p` of a latency sample, with the sample
    /// description and a warning when the sample cannot carry `p`.
    pub fn set_percentile(&mut self, name: &'static str, summary: &Summary, p: f64) {
        self.set_timed(name, summary.percentile_us(p), summary.describe_at(p));
    }

    /// Record the two end-to-end metrics every workload takes the same
    /// way: `setup_s` (median of the run's set-ups) and `peak_rss_mb`.
    pub fn set_process_metrics(&mut self, setups: &[f64]) {
        self.set_timed(
            "setup_s",
            crate::stats::median(setups),
            format!("(median of {} set-ups: {setups:.3?})", setups.len()),
        );
        self.set("peak_rss_mb", peak_rss_mb());
    }

    /// Give every metric of `names` not measured (a phase failed) the
    /// value 0, so the run can still print its result line.
    pub fn zero_unset(&mut self, names: &[&'static str]) {
        for name in names {
            self.values.entry(name).or_insert(0.0);
        }
    }

    /// Record an oracle mismatch.
    pub fn mismatch(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Whether every oracle passed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// `failed / attempted`, or 1 when an oracle failed.
    pub fn failed_share(&self) -> f64 {
        if !self.correct() {
            1.0
        } else if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The metric table a run must fill: end-to-end untraced, per-layer traced.
pub fn expected(trace: bool) -> &'static [MetricDef] {
    if trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    }
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite");
    // Shortest representation that round-trips: every measured digit.
    format!("{v}")
}

/// Render the run: one human-readable line per owned metric, and the
/// driver's JSON object. A metric the workload does not own reads 0 (see
/// `MetricDef::owners`); an owned metric left unset is a bug and aborts.
pub fn render(workload: Workload, cfg: &RunCfg, outcome: &Outcome) -> (Vec<String>, String) {
    let mut lines = vec![format!(
        "# {} seed={} seconds={} trace={} threads_available={}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )];
    lines.extend(outcome.notes.iter().map(|n| format!("# {n}")));
    lines.extend(outcome.mismatches.iter().map(|m| format!("# MISMATCH {m}")));
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, def) in expected(cfg.trace).iter().enumerate() {
        let owned = def.owners.contains(&workload);
        let value = match outcome.values.get(def.name) {
            Some(v) => *v,
            None if owned => panic!("{} did not measure {}", workload.name(), def.name),
            None => 0.0,
        };
        if owned {
            let samples = outcome.samples.get(def.name).map_or("", String::as_str);
            lines.push(format!(
                "{:<36} {:>16.4} {:<6} {samples}",
                def.name, value, def.unit
            ));
        }
        json.push_str(&format!(
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            def.name,
            json_number(value),
            def.unit
        ));
    }
    json.push_str("}}");
    (lines, json)
}

/// A child run's JSON line, parsed back (by `all`, `traced` and `aa`).
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// The `correct` flag.
    pub correct: bool,
    /// Attempted operations.
    pub attempted: u64,
    /// Failed operations.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parse the JSON object [`render`] writes. Only that exact shape is
/// understood; anything else is `None`.
pub fn parse_line(line: &str) -> Option<Parsed> {
    let after = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))?;
        Some(&line[at + key.len() + 4..])
    };
    let number = |s: &str| -> Option<f64> {
        let end = s
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(s.len());
        s[..end].parse().ok()
    };
    let mut parsed = Parsed {
        correct: after("correct")?.starts_with("true"),
        attempted: number(after("attempted")?)? as u64,
        failed: number(after("failed")?)? as u64,
        metrics: BTreeMap::new(),
    };
    let mut rest = after("metrics")?;
    while let Some(q) = rest.find('"') {
        let tail = &rest[q + 1..];
        let name_end = tail.find('"')?;
        let name = &tail[..name_end];
        let value_at = tail.find("\"value\": ")?;
        let value = number(&tail[value_at + 9..])?;
        parsed.metrics.insert(name.to_string(), value);
        let close = tail.find('}')?;
        rest = &tail[close + 1..];
    }
    Some(parsed)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where runs write: `target/benchmark/` under the working directory
/// (the checkout root when the driver runs the benchmark).
pub fn bench_root() -> PathBuf {
    PathBuf::from("target").join("benchmark")
}

/// A fresh, empty durability directory for one phase of this process;
/// removed by [`remove_dir`] when the phase ends.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = bench_root().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create benchmark scratch directory");
    dir
}

/// Remove a scratch directory (best effort).
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copy a directory tree (the recovery phase recovers copies, so every
/// recovery reads the same bytes).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": \
                    {\"a.b\": {\"value\": 1.25, \"unit\": \"us\"}, \
                    \"c\": {\"value\": 3e-7, \"unit\": \"ops/s\"}}}";
        let p = parse_line(line).expect("parses");
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (12, 1));
        assert_eq!(p.metrics["a.b"], 1.25);
        assert_eq!(p.metrics["c"], 3e-7);
        assert!(parse_line("not json").is_none());
    }

    #[test]
    fn failed_share_counts_oracle_failures_as_total() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        assert_eq!(o.failed_share(), 0.1);
        o.mismatch("state differs".into());
        assert_eq!(o.failed_share(), 1.0);
    }
}
