//! The engine's map hasher: every library `HashMap` and `HashSet` uses it.
//!
//! **Why not SipHash.** std's SipHash-1-3 spends a dozen rounds on a key
//! that is mostly one `i64` or a short string, and index probes, the
//! scheduler's per-batch maps and statement lookup by name pay it on every
//! transaction. This is the folded-multiply construction of foldhash and
//! ahash's fallback: each word is xored into an accumulator, which is
//! multiplied 64×64→128 and folded back to 64 bits by xoring the halves.
//! One multiply per word mixes low bits into high ones and back, which
//! hashbrown needs (bucket from the low bits, tag from the top seven).
//!
//! **Why keyed.** The accumulator and the finishing multiplier start from
//! two words drawn once per process from std's `RandomState`: iteration
//! order means nothing, as with std's maps, and a client cannot work out
//! offline which phone numbers or ids collide.
//!
//! **What does not use it.** Nothing durable: partition placement
//! (`sstore_core::Router`) keeps std's fixed-state `DefaultHasher`, since
//! a key's partition is where its logged rows live, and snapshot and
//! index images sort their hash entries, so no encoding sees this order.

use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` hashed with [`State`].
pub type HashMap<K, V> = std::collections::HashMap<K, V, State>;
/// A `HashSet` hashed with [`State`].
pub type HashSet<K> = std::collections::HashSet<K, State>;

/// The two halves of the 128-bit product `a * b`, xored.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The little-endian word of the `N` bytes of `b` from `at` on.
#[inline]
fn word<const N: usize>(b: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w[..N].copy_from_slice(&b[at..at + N]);
    u64::from_le_bytes(w)
}

/// Builds [`FoldHasher`]s from the process's key.
#[derive(Debug, Clone, Copy)]
pub struct State([u64; 2]);

impl Default for State {
    #[inline]
    fn default() -> State {
        static KEY: OnceLock<[u64; 2]> = OnceLock::new();
        State(*KEY.get_or_init(|| {
            let s = std::collections::hash_map::RandomState::new();
            [s.hash_one(1u64), s.hash_one(2u64) | 1]
        }))
    }
}

impl BuildHasher for State {
    type Hasher = FoldHasher;
    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0[0], self.0[1])
    }
}

/// A folded-multiply hasher: the accumulator and the finishing multiplier.
#[derive(Debug, Clone)]
pub struct FoldHasher(u64, u64);

impl Hasher for FoldHasher {
    /// Every whole word but the last, then the last one or two words,
    /// which may overlap, and the length in one keyed multiply.
    fn write(&mut self, b: &[u8]) {
        let n = b.len();
        let (lo, hi) = match n {
            0 => (0, 0),
            1..=3 => (
                u64::from(b[0]) | (u64::from(b[n / 2]) << 8) | (u64::from(b[n - 1]) << 16),
                0,
            ),
            4..=8 => (word::<4>(b, 0), word::<4>(b, n - 4)),
            _ => {
                for at in (0..n - 8).step_by(8) {
                    self.write_u64(word::<8>(b, at));
                }
                (word::<8>(b, n - 8), 0)
            }
        };
        self.0 = fold_mul(self.0 ^ lo, self.1 ^ hi ^ n as u64);
    }
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = fold_mul(self.0 ^ i, 0x5851_f42d_4c95_7f2d);
    }
    #[inline]
    fn finish(&self) -> u64 {
        fold_mul(self.0, self.1).rotate_left(self.0 as u32 & 63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use std::hash::Hash;
    use std::time::{Duration, Instant};

    const N: u64 = 1 << 16;

    /// SplitMix64: a fixed stream of well-spread words for the tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Chi-square over degrees of freedom, and the fullest bucket, of
    /// `hashes` counted into `buckets` bins by `bin`.
    fn spread(hashes: &[u64], buckets: usize, bin: impl Fn(u64) -> usize) -> (f64, usize) {
        let mut counts = vec![0usize; buckets];
        for &h in hashes {
            counts[bin(h)] += 1;
        }
        let mean = hashes.len() as f64 / buckets as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2) / mean)
            .sum();
        (
            chi2 / (buckets - 1) as f64,
            counts.into_iter().max().unwrap_or(0),
        )
    }

    /// hashbrown picks the bucket from the low bits and a tag from the top
    /// seven: both must look uniform. With 2^12 low-bit bins (mean 16) a
    /// uniform hash reads chi-square/df 1 ± 0.02 and a fullest bin near
    /// 32; with 128 tag bins (mean 512) it reads 1 ± 0.13. The bounds are
    /// more than six deviations out, so a fresh process key never trips
    /// them by chance.
    fn assert_uniform(shape: &str, hashes: &[u64]) {
        let (low, fullest) = spread(hashes, 1 << 12, |h| (h & 0xfff) as usize);
        let (tag, _) = spread(hashes, 128, |h| (h >> 57) as usize);
        assert!(
            low <= 1.25 && fullest <= 48 && tag <= 2.0,
            "{shape}: low-bit chi2/df {low:.3}, fullest bin {fullest}, tag chi2/df {tag:.3}"
        );
    }

    /// Each shape hashed both as an `i64` (the integer index) and as a
    /// `Value::Int` (cell keys, which hash the value's f64 bits).
    fn assert_shape(shape: &str, keys: impl Iterator<Item = i64> + Clone) {
        let s = State::default();
        let ints: Vec<u64> = keys.clone().map(|k| s.hash_one(k)).collect();
        assert_uniform(&format!("{shape} as i64"), &ints);
        let cells: Vec<u64> = keys.map(|k| s.hash_one(Value::Int(k))).collect();
        assert_uniform(&format!("{shape} as Value"), &cells);
    }

    #[test]
    fn buckets_spread_evenly_for_engine_key_shapes() {
        assert_shape("sequential", (0..N as i64).map(|i| i + 1));
        for k in 0..=20 {
            assert_shape(&format!("stride 2^{k}"), (0..N as i64).map(move |i| i << k));
        }
        let mut st = 7;
        let phones: Vec<i64> = (0..N)
            .map(|_| 1_000_000_000 + (splitmix(&mut st) % 9_000_000_000) as i64)
            .collect();
        assert_shape("10-digit phones", phones.iter().copied());
        // The keys partition placement (std's fixed-state `DefaultHasher`
        // over the cell, as `Router::route_key` does) sends to partition 0
        // of 2: one partition's maps hold only these.
        let routed = (0..).filter(|&k: &i64| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            Value::Int(k).hash(&mut h);
            h.finish() % 2 == 0
        });
        assert_shape("routed to 1 of 2", routed.take(N as usize));
        // Text keys along each of `write`'s length paths.
        let s = State::default();
        for prefix in ["", "t", "dim-", "user-name-", "a-much-longer-key-prefix-"] {
            let texts: Vec<u64> = (0..N)
                .map(|i| s.hash_one(Value::Text(format!("{prefix}{i}"))))
                .collect();
            assert_uniform(&format!("text `{prefix}`+i"), &texts);
        }
    }

    #[test]
    fn maps_built_apart_in_one_process_agree() {
        let keys: Vec<Value> = (0..1000)
            .map(|i| match i % 3 {
                0 => Value::Int(i),
                1 => Value::Text(format!("k{i}")),
                _ => Value::Timestamp(i),
            })
            .collect();
        let a: HashMap<Value, usize> = keys.iter().cloned().zip(0..).collect();
        let b: HashMap<Value, usize> = keys.iter().rev().cloned().zip(0..).collect();
        for k in &keys {
            assert_eq!(a[k] + b[k], keys.len() - 1, "{k:?}");
        }
        assert_eq!(
            State::default().hash_one("voter"),
            State::default().hash_one("voter")
        );
    }

    /// How many times faster `State` hashes `key(i)` for 2^20 values of
    /// `i` than std's `RandomState`: best of five alternating rounds each,
    /// so one slow moment of the host does not decide the ratio.
    fn speedup<K: Hash>(what: &str, key: impl Fn(i64) -> K) -> f64 {
        fn time<K: Hash>(build: &impl BuildHasher, key: &impl Fn(i64) -> K) -> Duration {
            let start = Instant::now();
            let mut acc = 0u64;
            for i in 0..N as i64 * 16 {
                acc ^= build.hash_one(key(std::hint::black_box(i)));
            }
            std::hint::black_box(acc);
            start.elapsed()
        }
        let sip = std::collections::hash_map::RandomState::new();
        let (mut t_sip, mut t_fold) = (Duration::MAX, Duration::MAX);
        for _ in 0..5 {
            t_sip = t_sip.min(time(&sip, &key));
            t_fold = t_fold.min(time(&State::default(), &key));
        }
        let ratio = t_sip.as_secs_f64() / t_fold.as_secs_f64();
        println!("2^20 {what} keys: RandomState {t_sip:?}, State {t_fold:?} (x{ratio:.1})");
        ratio
    }

    #[test]
    fn one_i64_key_hashes_at_least_four_times_faster_than_siphash() {
        let ratio = speedup("i64", |i| i);
        assert!(ratio >= 4.0, "only x{ratio:.2} faster than SipHash");
    }

    /// Short text keys (a dictionary's strings, a statement's name) take
    /// `write`'s one-multiply paths and must not fall behind SipHash.
    #[test]
    fn a_short_text_key_hashes_faster_than_siphash() {
        const WORDS: [&str; 4] = ["t7", "dim-042", "get_vote_id", "contestant_exists"];
        let ratio = speedup("text", |i| WORDS[i as usize & 3]);
        assert!(ratio >= 1.5, "only x{ratio:.2} faster than SipHash");
    }

    #[test]
    fn byte_strings_of_different_lengths_differ() {
        let s = State::default();
        let seen: HashSet<u64> = ["", "a", "a\0", "abcdefgh", "abcdefgh\0", "abcdefghi"]
            .iter()
            .map(|w| {
                let mut h = s.build_hasher();
                h.write(w.as_bytes());
                h.finish()
            })
            .collect();
        assert_eq!(seen.len(), 6);
    }
}
