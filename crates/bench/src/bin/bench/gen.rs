//! Seeded input generation. Every input of a run — keys, amounts, query
//! parameters — is drawn from one [`Rng`] seeded by `--seed`, so the same
//! seed gives the same inputs; the engine only ever sees generated rows.

use sstore_common::{Row, Value};

/// SplitMix64: tiny, fast, and good enough to draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so phases of one
    /// run draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> i64 {
        (self.next_u64() % n) as i64
    }
}

/// Rows per border batch in every cluster workload and the ladder.
pub const BATCH_ROWS: usize = 64;

/// Key space of the `count_events`-shape workloads.
pub const KEY_SPACE: u64 = 100_000;

/// One `(key, amount)` batch, keys uniform over [`KEY_SPACE`].
pub fn kv_batch(rng: &mut Rng) -> Vec<Row> {
    (0..BATCH_ROWS)
        .map(|_| {
            Row::new(vec![
                Value::Int(rng.below(KEY_SPACE)),
                Value::Int(rng.below(100)),
            ])
        })
        .collect()
}

/// One `(src, dest, amount)` batch for the two-stage workflow.
pub fn route_batch(rng: &mut Rng) -> Vec<Row> {
    (0..BATCH_ROWS)
        .map(|_| {
            Row::new(vec![
                Value::Int(rng.below(KEY_SPACE)),
                Value::Int(rng.below(KEY_SPACE)),
                Value::Int(rng.below(100)),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = kv_batch(&mut Rng::new(7, 1));
        let b = kv_batch(&mut Rng::new(7, 1));
        let c = kv_batch(&mut Rng::new(8, 1));
        let d = kv_batch(&mut Rng::new(7, 2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), BATCH_ROWS);
    }
}
