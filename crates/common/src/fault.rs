//! Deterministic fault injection.
//!
//! The durability and 2PC paths embed named **kill points** at the stage
//! boundaries that matter for crash consistency (`prepare-logged`,
//! `commit-point` pre/post fsync, `decide-delivered`, `forward-logged`).
//! Every write through [`crate::durable`] has one too: a torn append
//! (`log-mid-write`, `coord-log-mid-write`) or a death between a
//! replacement's fsync and its rename (`snapshot-mid-write`,
//! `delta-snapshot-mid-write`, `log-gc-mid-write`,
//! `coord-compact-mid-write`). In normal operation every kill
//! point is a single relaxed atomic load — effectively free. A test (or
//! the crash-campaign child process) *arms* one point with [`arm`]; from
//! the `nth` hit onward the process either panics (unwinding just the
//! thread that hit it — the in-process sandbox) or aborts outright (the
//! child-process sandbox, leaving the on-disk state exactly as a real
//! crash would).
//!
//! Nothing reads the environment: the crash campaign derives its plan from
//! a seed and arms the child process in place.
//!
//! Arming is process-global: tests that arm kill points must serialize
//! against other cluster-driving tests in the same test binary (each
//! integration-test *file* is its own process, so cross-file interference
//! is impossible). Always [`disarm`] before running recovery in the same
//! process — replayed protocol steps skip kill points, but live
//! post-recovery traffic does not.

use crate::error::Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// What firing a kill point does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// `panic!` — unwinds the hitting thread only. Cluster worker threads
    /// die in place; the main thread can catch with
    /// `std::panic::catch_unwind`.
    Panic,
    /// `std::process::abort()` — the whole process vanishes, exactly like
    /// a crash. Used by the campaign's child-process sandbox.
    Abort,
}

/// What an armed point injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FireAction {
    /// Die at the site (panic or abort) — consumed by [`should_fire`] /
    /// [`kill_point`].
    Kill(KillMode),
    /// Report a disk IO failure at the site — consumed by [`io_error`].
    /// The site must handle it exactly like a real failed write/fsync:
    /// no partial state, a typed `Err`, never a panic.
    IoError,
}

struct Armed {
    point: String,
    /// 1-based hit index at which the point starts firing. Every hit at
    /// or past `nth` fires (sticky, so concurrent workers all die) —
    /// unless `once` is set, in which case exactly the `nth` hit fires
    /// and the registry disarms itself.
    nth: u64,
    hits: u64,
    action: FireAction,
    once: bool,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static ARMED: Mutex<Option<Armed>> = Mutex::new(None);
static NOTES: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

/// Arm `point`: its `nth` hit (1-based) and every later hit fire with
/// `mode`. Replaces any previously armed point.
pub fn arm(point: &str, nth: u64, mode: KillMode) {
    arm_with(point, nth, FireAction::Kill(mode), false);
}

/// Arm `point` to fire with `mode` exactly once, on its `nth` hit
/// (1-based), then self-disarm. Used for supervised-restart drills: the
/// worker must die once and then come back cleanly, so the restarted
/// worker's traffic must not re-trip the point.
pub fn arm_once(point: &str, nth: u64, mode: KillMode) {
    arm_with(point, nth, FireAction::Kill(mode), true);
}

/// Arm `point` to inject a disk IO error ([`io_error`]) exactly once, on
/// its `nth` hit (1-based), then self-disarm. One-shot by design: the
/// site under test must fail cleanly and then succeed on retry.
pub fn arm_io_error(point: &str, nth: u64) {
    arm_with(point, nth, FireAction::IoError, true);
}

fn arm_with(point: &str, nth: u64, action: FireAction, once: bool) {
    let mut g = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    *g = Some(Armed {
        point: point.to_string(),
        nth: nth.max(1),
        hits: 0,
        action,
        once,
    });
    ANY_ARMED.store(true, Ordering::SeqCst);
}

/// Disarm whatever is armed. Call before recovering in the same process.
pub fn disarm() {
    let mut g = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    *g = None;
    ANY_ARMED.store(false, Ordering::SeqCst);
}

/// A kill point: dies here (per the armed mode) when `point` is armed and
/// due. The disarmed fast path is one atomic load.
pub fn kill_point(point: &str) {
    if let Some(mode) = should_fire(point) {
        die(point, mode);
    }
}

/// Like [`kill_point`] but gives the call site a chance to do damage
/// first (e.g. tear a half-written frame onto disk) before calling
/// [`die`] itself. Returns the mode to die with when the point is due.
pub fn should_fire(point: &str) -> Option<KillMode> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut g = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    let armed = g.as_mut()?;
    let FireAction::Kill(mode) = armed.action else {
        return None;
    };
    if armed.point != point {
        return None;
    }
    armed.hits += 1;
    if armed.hits < armed.nth {
        return None;
    }
    if armed.once {
        *g = None;
        ANY_ARMED.store(false, Ordering::SeqCst);
    }
    Some(mode)
}

/// An IO fault site: returns the injected error when `point` is armed
/// (via [`arm_io_error`]) and due, `None` otherwise. The disarmed fast
/// path is one atomic load. Firing self-disarms (one-shot), so the call
/// site's retry path sees a healthy disk.
pub fn io_error(point: &str) -> Option<Error> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let mut g = ARMED.lock().unwrap_or_else(|p| p.into_inner());
    let armed = g.as_mut()?;
    if armed.action != FireAction::IoError || armed.point != point {
        return None;
    }
    armed.hits += 1;
    if armed.hits < armed.nth {
        return None;
    }
    if armed.once {
        *g = None;
        ANY_ARMED.store(false, Ordering::SeqCst);
    }
    crate::slog!(Warn; "sstore-fault: injected io error at `{point}`");
    Some(Error::Io(format!("injected io fault at `{point}`")))
}

/// Die at `point` with `mode`. Diverges.
pub fn die(point: &str, mode: KillMode) -> ! {
    match mode {
        KillMode::Abort => {
            crate::slog!(Warn; "sstore-fault: injected crash at `{point}`");
            std::process::abort();
        }
        KillMode::Panic => panic!("sstore-fault: injected kill at `{point}`"),
    }
}

/// Record that a named (non-fatal) event happened — e.g. the command-log
/// reader surviving a torn tail. Tests assert on [`noted`].
pub fn note(event: &str) {
    let mut g = NOTES.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(e) = g.iter_mut().find(|(n, _)| n == event) {
        e.1 += 1;
    } else {
        g.push((event.to_string(), 1));
    }
}

/// How many times `event` was [`note`]d in this process.
pub fn noted(event: &str) -> u64 {
    let g = NOTES.lock().unwrap_or_else(|p| p.into_inner());
    g.iter().find(|(n, _)| n == event).map(|e| e.1).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test covers the whole lifecycle: the registry is process-global,
    // so splitting these into parallel #[test]s would race.
    #[test]
    fn arm_fire_disarm_lifecycle() {
        disarm();
        assert!(should_fire("p").is_none(), "disarmed points never fire");

        arm("p", 2, KillMode::Panic);
        assert!(should_fire("other").is_none(), "wrong point never fires");
        assert!(should_fire("p").is_none(), "hit 1 of nth=2 must not fire");
        assert_eq!(should_fire("p"), Some(KillMode::Panic), "hit 2 fires");
        assert_eq!(should_fire("p"), Some(KillMode::Panic), "sticky after nth");

        disarm();
        assert!(should_fire("p").is_none());

        arm("q", 1, KillMode::Panic);
        let err = std::panic::catch_unwind(|| kill_point("q")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected kill at `q`"), "{msg}");
        disarm();

        let before = noted("evt");
        note("evt");
        note("evt");
        assert_eq!(noted("evt"), before + 2);

        // One-shot kill: exactly the nth hit fires, then self-disarms.
        arm_once("w", 2, KillMode::Panic);
        assert!(should_fire("w").is_none(), "hit 1 of nth=2 must not fire");
        assert_eq!(should_fire("w"), Some(KillMode::Panic), "hit 2 fires");
        assert!(should_fire("w").is_none(), "once-armed self-disarms");

        // IO-error arming: invisible to kill points, one-shot, typed Err.
        arm_io_error("d", 2);
        assert!(should_fire("d").is_none(), "io arming never kills");
        assert!(io_error("other").is_none(), "wrong point never fires");
        assert!(io_error("d").is_none(), "hit 1 of nth=2 must not fire");
        let e = io_error("d").expect("hit 2 fires");
        assert_eq!(e.kind(), "io");
        assert!(e.to_string().contains("injected io fault at `d`"), "{e}");
        assert!(io_error("d").is_none(), "io faults are one-shot");

        // Kill arming is invisible to io sites.
        arm("k", 1, KillMode::Panic);
        assert!(io_error("k").is_none(), "kill arming never injects io");
        disarm();
    }
}
