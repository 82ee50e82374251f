//! The benchmark's own span recorder. Spans wrap the calls the benchmark
//! makes *into* a layer (no engine code is instrumented): name, start,
//! end, parent, and the id of the operation they belong to. They are kept
//! in memory and written out once, when the run ends. A span's self time
//! is its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept verbatim for the trace file; totals keep counting past it.
const KEEP: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent in the kept list, if it was kept.
    parent: Option<u32>,
    op: u64,
}

/// Per-name totals over every span, kept or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus child time, ns.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`]. Spans close in stack order.
#[must_use = "a span must be closed with Recorder::exit"]
pub struct Entered(usize);

/// An in-memory span log for one thread. When disabled every call is a
/// branch and nothing else, so untraced runs can share the code path.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, Total>,
    durations: BTreeMap<&'static str, Vec<u64>>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes it inert.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            durations: BTreeMap::new(),
        }
    }

    /// Nanoseconds since this recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span for operation `op`; the innermost open span becomes
    /// its parent.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Entered {
        if self.enabled {
            let start_ns = self.now_ns();
            self.stack.push(Open {
                name,
                start_ns,
                child_ns: 0,
                kept: None,
            });
            if self.spans.len() < KEEP {
                let parent = self.stack.iter().rev().skip(1).find_map(|o| o.kept);
                self.spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent,
                    op,
                });
                let idx = (self.spans.len() - 1) as u32;
                self.stack.last_mut().expect("just pushed").kept = Some(idx);
            }
        }
        Entered(self.stack.len())
    }

    /// Close the innermost span.
    pub fn exit(&mut self, entered: Entered) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            entered.0,
            self.stack.len(),
            "spans must close in stack order"
        );
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without enter");
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(idx) = open.kept {
            self.spans[idx as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        self.close(open.name, dur, open.child_ns);
    }

    /// Record a span measured elsewhere (another thread's wait), as a
    /// root span with no children.
    pub fn add(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        if self.spans.len() < KEEP {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                op,
            });
        }
        self.close(name, end_ns.saturating_sub(start_ns), 0);
    }

    fn close(&mut self, name: &'static str, dur: u64, child_ns: u64) {
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns);
        self.durations.entry(name).or_default().push(dur);
    }

    /// Time `f` under a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name, op);
        let r = f();
        self.exit(s);
        r
    }

    /// Median duration of the spans closed under `name`, ns (0 if none).
    pub fn median_ns(&self, name: &str) -> f64 {
        match self.durations.get(name) {
            Some(d) => {
                let v: Vec<f64> = d.iter().map(|&x| x as f64).collect();
                crate::stats::median(&v)
            }
            None => 0.0,
        }
    }

    /// Per-name totals, by name.
    pub fn totals(&self) -> &BTreeMap<&'static str, Total> {
        &self.totals
    }

    /// Write kept spans and per-name totals as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut s = String::with_capacity(64 * self.spans.len() + 1024);
        let _ = write!(s, "{{\"workload\": \"{workload}\", \"totals\": {{");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if i > 0 { ", " } else { "" },
                t.count,
                t.total_ns,
                t.self_ns
            );
        }
        s.push_str("}, \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = match sp.parent {
                Some(p) => p.to_string(),
                None => "null".into(),
            };
            let _ = writeln!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}{}",
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(true);
        let outer = r.enter("outer", 1);
        let inner = r.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.exit(inner);
        r.exit(outer);
        let outer = r.totals()["outer"];
        let inner = r.totals()["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(r.median_ns("inner") >= 2e6);
        assert_eq!(r.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let v = r.time("x", 0, || 7);
        r.add("y", 0, 1, 2);
        assert_eq!(v, 7);
        assert!(r.totals().is_empty() && r.spans.is_empty());
    }
}
