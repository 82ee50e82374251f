//! Client-side retry with exponential backoff and deterministic jitter.
//!
//! Admission control ([`crate::Cluster::try_submit_batch_async`]) sheds
//! with [`Error::Overloaded`] and supervision resolves work against a
//! restarting partition with [`Error::PartitionDown`]; both are
//! *retryable* — the submission provably did not execute, so the right
//! client response is to back off and resubmit. [`RetryPolicy`]
//! packages the standard loop: exponential delay doubling from `base`
//! up to `cap`, with uniform jitter drawn from the vendored
//! deterministic `rand` (seeded per policy, so a test's backoff
//! schedule replays exactly).
//!
//! Non-retryable errors (constraint violations, parse errors, IO
//! failures of unknown effect, timeouts) surface immediately — blind
//! resubmission could duplicate work.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstore_common::{Error, Result};
use std::time::Duration;

/// Backoff-and-retry policy for retryable cluster errors.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 0 behaves as 1.
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each retry.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Seed for the jitter stream (deterministic per policy value).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_micros(200),
            cap: Duration::from_millis(50),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (1-based): exponential
    /// `base * 2^(attempt-1)` capped at `cap`, then jittered uniformly
    /// over `[delay/2, delay]` ("equal jitter" — keeps some spread
    /// without collapsing to zero sleep).
    pub(crate) fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(20));
        let capped = exp.min(self.cap).max(Duration::from_micros(1));
        let nanos = capped.as_nanos() as u64;
        let jittered = nanos / 2 + rng.random_range(0..nanos / 2 + 1);
        Duration::from_nanos(jittered)
    }

    /// Run `op` until it succeeds, fails non-retryably, or exhausts
    /// `max_attempts`. Sleeps the jittered backoff between attempts.
    pub fn run<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let attempts = self.max_attempts.max(1);
        let mut last: Option<Error> = None;
        for attempt in 1..=attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < attempts => {
                    std::thread::sleep(self.backoff(attempt, &mut rng));
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| Error::Internal("retry loop ran zero attempts".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(16),
            ..RetryPolicy::default()
        };
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let seq_a: Vec<_> = (1..=8).map(|n| p.backoff(n, &mut a)).collect();
        let seq_b: Vec<_> = (1..=8).map(|n| p.backoff(n, &mut b)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same jitter schedule");
        for (i, d) in seq_a.iter().enumerate() {
            let exp = p.base.saturating_mul(1 << i).min(p.cap);
            assert!(*d <= exp, "attempt {}: {d:?} > uncapped {exp:?}", i + 1);
            assert!(*d >= exp / 2, "attempt {}: {d:?} < half of {exp:?}", i + 1);
        }
        assert!(seq_a[5] >= seq_a[0], "later attempts back off further");
    }

    #[test]
    fn run_retries_retryable_until_success() {
        let p = RetryPolicy {
            base: Duration::from_micros(10),
            cap: Duration::from_micros(100),
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let out: Result<&str> = p.run(|| {
            calls += 1;
            if calls < 3 {
                Err(Error::Overloaded("queue full".into()))
            } else {
                Ok("done")
            }
        });
        assert_eq!(out.unwrap(), "done");
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_surfaces_non_retryable_immediately() {
        let p = RetryPolicy::default();
        let mut calls = 0;
        let out: Result<()> = p.run(|| {
            calls += 1;
            Err(Error::Constraint("pk dup".into()))
        });
        assert_eq!(out.unwrap_err().kind(), "constraint");
        assert_eq!(calls, 1, "non-retryable errors must not be retried");
    }

    #[test]
    fn run_exhausts_attempts_with_last_error() {
        let p = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(50),
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let out: Result<()> = p.run(|| {
            calls += 1;
            Err(Error::PartitionDown("p1 restarting".into()))
        });
        assert_eq!(out.unwrap_err().kind(), "partition_down");
        assert_eq!(calls, 3);
    }
}
