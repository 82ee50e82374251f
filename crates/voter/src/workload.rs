//! Vote workload generation.
//!
//! Deterministic, seeded vote streams with the statistical shape of the
//! demo: zipfian candidate popularity (reality shows have favourites),
//! occasional duplicate phone numbers (repeat voters), and occasional
//! invalid contestant numbers (typos).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated vote submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// Caller's phone number.
    pub phone: i64,
    /// Contestant voted for (may be invalid).
    pub contestant: i64,
}

/// Seeded vote generator.
#[derive(Debug, Clone)]
pub struct VoteGen {
    rng: StdRng,
    /// Zipf CDF over contestant ranks.
    cdf: Vec<f64>,
    num_contestants: i64,
    /// Probability a vote reuses an already-used phone.
    p_duplicate: f64,
    /// Probability a vote names a nonexistent contestant.
    p_invalid: f64,
    used_phones: Vec<i64>,
    next_phone: i64,
}

impl VoteGen {
    /// Generator with the demo's default mix: zipf skew 1.0, 5% duplicate
    /// phones, 2% invalid contestants.
    pub fn new(seed: u64, num_contestants: i64) -> Self {
        VoteGen::with_mix(seed, num_contestants, 1.0, 0.05, 0.02)
    }

    /// Fully parameterized generator.
    pub fn with_mix(
        seed: u64,
        num_contestants: i64,
        zipf_s: f64,
        p_duplicate: f64,
        p_invalid: f64,
    ) -> Self {
        assert!(num_contestants > 0);
        // Zipf CDF: P(rank k) proportional to 1 / k^s.
        let weights: Vec<f64> = (1..=num_contestants)
            .map(|k| 1.0 / (k as f64).powf(zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        VoteGen {
            rng: StdRng::seed_from_u64(seed),
            cdf,
            num_contestants,
            p_duplicate,
            p_invalid,
            used_phones: Vec::new(),
            next_phone: 10_000_000,
        }
    }

    /// Produce the next vote.
    pub(crate) fn next_vote(&mut self) -> Vote {
        let contestant = if self.rng.random_bool(self.p_invalid) {
            self.num_contestants + 1 + self.rng.random_range(0..100)
        } else {
            let u: f64 = self.rng.random();
            let rank = match self
                .cdf
                .binary_search_by(|p| p.partial_cmp(&u).expect("no NaN"))
            {
                Ok(i) | Err(i) => i,
            };
            (rank as i64 + 1).min(self.num_contestants)
        };
        let phone = if !self.used_phones.is_empty() && self.rng.random_bool(self.p_duplicate) {
            let i = self.rng.random_range(0..self.used_phones.len());
            self.used_phones[i]
        } else {
            self.next_phone += 1;
            self.used_phones.push(self.next_phone);
            self.next_phone
        };
        Vote { phone, contestant }
    }

    /// Produce `n` votes.
    pub fn take(&mut self, n: usize) -> Vec<Vote> {
        (0..n).map(|_| self.next_vote()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<Vote> = VoteGen::new(42, 25).take(100);
        let b: Vec<Vote> = VoteGen::new(42, 25).take(100);
        let c: Vec<Vote> = VoteGen::new(43, 25).take(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_skewed() {
        let votes = VoteGen::with_mix(1, 25, 1.0, 0.0, 0.0).take(5000);
        let top = votes.iter().filter(|v| v.contestant == 1).count();
        let bottom = votes.iter().filter(|v| v.contestant == 25).count();
        assert!(
            top > bottom * 3,
            "zipf should favor rank 1: top={top} bottom={bottom}"
        );
    }

    #[test]
    fn invalid_and_duplicate_mix() {
        let votes = VoteGen::with_mix(7, 10, 1.0, 0.5, 0.5).take(2000);
        let invalid = votes.iter().filter(|v| v.contestant > 10).count();
        assert!(invalid > 500, "expected many invalid votes, got {invalid}");
        let mut phones: Vec<i64> = votes.iter().map(|v| v.phone).collect();
        let total = phones.len();
        phones.sort_unstable();
        phones.dedup();
        assert!(phones.len() < total, "expected duplicate phones");
    }

    #[test]
    fn all_valid_when_mix_zero() {
        let votes = VoteGen::with_mix(7, 10, 1.0, 0.0, 0.0).take(500);
        assert!(votes.iter().all(|v| (1..=10).contains(&v.contestant)));
        let mut phones: Vec<i64> = votes.iter().map(|v| v.phone).collect();
        let n = phones.len();
        phones.sort_unstable();
        phones.dedup();
        assert_eq!(phones.len(), n);
    }
}
