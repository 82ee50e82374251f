//! Structured leveled logging.
//!
//! The [`slog!`](crate::slog) macro replaces scattered `eprintln!`
//! diagnostics with one parseable line per event on stderr:
//!
//! ```text
//! ts=1754650000.123456 level=warn partition=2 trace=91 msg="command log: dropping torn tail"
//! ```
//!
//! Fields are fixed (absent partition/trace print as `-`) and `msg` is
//! `Debug`-quoted, so a line splitter on spaces outside quotes recovers
//! every field. The maximum emitted level comes from `SSTORE_LOG`
//! (`error|warn|info|debug`, default `warn`); filtering happens before
//! the message is formatted, so suppressed levels cost one relaxed
//! atomic load. Every emitted line also bumps a per-level counter in
//! the metrics registry (`log.error`, `log.warn`, …), so reports show
//! how noisy a run was even when stderr was discarded.
//!
//! ```
//! use sstore_common::slog;
//!
//! slog!(Warn, partition = 3; "restarting worker after {} failures", 2);
//! slog!(Info; "snapshot complete");
//! ```

use super::registry::{counter, Counter};
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first. `SSTORE_LOG=<level>` emits that
/// level and everything more severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-affecting conditions.
    Error = 0,
    /// Degraded but handled: torn tails, restarts, fallbacks.
    Warn = 1,
    /// Lifecycle milestones.
    Info = 2,
    /// High-volume diagnostics.
    Debug = 3,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Sentinel meaning "not yet read from the environment".
const UNSET: u8 = u8::MAX;

static MAX_LEVEL: AtomicU8 = AtomicU8::new(UNSET);

fn max_level() -> u8 {
    let v = MAX_LEVEL.load(Ordering::Relaxed);
    if v != UNSET {
        return v;
    }
    let parsed = std::env::var("SSTORE_LOG")
        .ok()
        .as_deref()
        .and_then(Level::parse)
        .unwrap_or(Level::Warn);
    MAX_LEVEL.store(parsed as u8, Ordering::Relaxed);
    parsed as u8
}

/// Would a message at `level` be emitted? The macro checks this before
/// formatting, so disabled levels are nearly free.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level as u8 <= max_level()
}

static LOG_COUNTERS: LazyLock<[Arc<Counter>; 4]> = LazyLock::new(|| {
    [
        counter("log.error"),
        counter("log.warn"),
        counter("log.info"),
        counter("log.debug"),
    ]
});

/// Emit one structured line to stderr. Called by the [`slog!`](crate::slog)
/// macro after its level check; not meant to be called directly.
pub fn log_event(
    level: Level,
    partition: Option<u32>,
    trace: Option<u64>,
    args: std::fmt::Arguments<'_>,
) {
    LOG_COUNTERS[level as usize].inc();
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    let mut line = format!(
        "ts={}.{:06} level={} ",
        ts.as_secs(),
        ts.subsec_micros(),
        level.name()
    );
    match partition {
        Some(p) => line.push_str(&format!("partition={p} ")),
        None => line.push_str("partition=- "),
    }
    match trace {
        Some(t) => line.push_str(&format!("trace={t} ")),
        None => line.push_str("trace=- "),
    }
    line.push_str(&format!("msg={:?}\n", std::fmt::format(args)));
    // One write call per line: concurrent loggers interleave whole
    // lines, never fragments. A failed stderr write is ignored.
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Structured leveled log line (see [`obs::log`](self) for the format).
///
/// ```
/// use sstore_common::slog;
///
/// slog!(Error; "plain message");
/// slog!(Warn, partition = 0; "formatted: {}", 42);
/// slog!(Debug, partition = 1, trace = 7; "full context");
/// ```
#[macro_export]
macro_rules! slog {
    ($lvl:ident, partition = $p:expr, trace = $t:expr; $($arg:tt)+) => {
        if $crate::obs::log_enabled($crate::obs::Level::$lvl) {
            $crate::obs::log_event(
                $crate::obs::Level::$lvl,
                Some($p),
                Some($t),
                format_args!($($arg)+),
            );
        }
    };
    ($lvl:ident, partition = $p:expr; $($arg:tt)+) => {
        if $crate::obs::log_enabled($crate::obs::Level::$lvl) {
            $crate::obs::log_event(
                $crate::obs::Level::$lvl,
                Some($p),
                None,
                format_args!($($arg)+),
            );
        }
    };
    ($lvl:ident; $($arg:tt)+) => {
        if $crate::obs::log_enabled($crate::obs::Level::$lvl) {
            $crate::obs::log_event(
                $crate::obs::Level::$lvl,
                None,
                None,
                format_args!($($arg)+),
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn emitted_lines_bump_the_level_counter() {
        MAX_LEVEL.store(Level::Debug as u8, Ordering::Relaxed);
        let before = counter("log.debug").get();
        slog!(Debug, partition = 9, trace = 123; "counted {}", "once");
        assert_eq!(counter("log.debug").get(), before + 1);
        MAX_LEVEL.store(Level::Warn as u8, Ordering::Relaxed);
        let before = counter("log.debug").get();
        slog!(Debug; "suppressed");
        assert_eq!(counter("log.debug").get(), before, "filtered out");
    }
}
