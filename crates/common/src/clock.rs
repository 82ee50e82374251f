//! Logical clock.
//!
//! All time in the engine — tuple timestamps, time-based windows, discount
//! expirations in the BikeShare app — flows from this logical clock rather
//! than the wall clock, so every run is deterministic and command-log replay
//! reconstructs identical state (a prerequisite of the paper's upstream-
//! backup recovery scheme).

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Monotone logical clock in microseconds.
///
/// Cloning shares the underlying counter (`Arc`), so the partition engine,
/// execution engine, and workload generators all observe one timeline.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    micros: Arc<AtomicI64>,
}

impl Clock {
    /// A clock starting at 0 µs.
    pub fn new() -> Self {
        Clock::default()
    }

    /// A clock starting at an arbitrary point (used by recovery to resume
    /// the pre-crash timeline).
    pub fn starting_at(micros: i64) -> Self {
        Clock {
            micros: Arc::new(AtomicI64::new(micros)),
        }
    }

    /// Current logical time in microseconds.
    pub fn now(&self) -> i64 {
        self.micros.load(Ordering::Acquire)
    }

    /// Advance the clock by `delta_micros` and return the new time.
    pub fn advance(&self, delta_micros: i64) -> i64 {
        debug_assert!(delta_micros >= 0, "clock must be monotone");
        self.micros.fetch_add(delta_micros, Ordering::AcqRel) + delta_micros
    }

    /// Jump the clock forward to `target` if it is ahead of now (no-op
    /// otherwise). Returns the resulting time.
    pub fn advance_to(&self, target: i64) -> i64 {
        let mut cur = self.now();
        while target > cur {
            match self.micros.compare_exchange_weak(
                cur,
                target,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return target,
                Err(actual) => cur = actual,
            }
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let c = Clock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(5), 5);
        assert_eq!(c.now(), 5);
    }

    #[test]
    fn clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(10);
        assert_eq!(b.now(), 10);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = Clock::starting_at(100);
        assert_eq!(c.advance_to(50), 100); // no going back
        assert_eq!(c.advance_to(200), 200);
        assert_eq!(c.now(), 200);
    }
}
