//! Log-bucketed concurrent latency histograms.
//!
//! An HDR-style histogram over `u64` values (nanoseconds by convention):
//! each value lands in one of ~1,920 buckets arranged as 32 linear
//! sub-buckets per power-of-two "major" range, bounding the relative
//! error of any reconstructed quantile to ≤ 1/32 (~3%). Recording is a
//! single relaxed `fetch_add` on a fixed-size atomic array — O(1), lock
//! free, no allocation — so it is safe on the hottest paths.
//! [`HistogramSnapshot`]s are plain data: they merge by bucket-wise
//! addition, which makes per-thread or per-partition histograms
//! aggregate exactly (merge(a, b) and recording the union are the same
//! distribution).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-bucket resolution: 2^5 = 32 sub-buckets per major range.
const SUB_BITS: u32 = 5;
/// Sub-buckets per major range.
const SUB: usize = 1 << SUB_BITS;
/// Major ranges: values up to `u64::MAX` have bit length ≤ 64, so the
/// major index (bit length minus `SUB_BITS`, floored at 0) is ≤ 59.
const MAJORS: usize = 64 - SUB_BITS as usize;
/// Total bucket count (some low slots of each major > 0 are unused by
/// construction; the waste buys a branch-free index function).
pub(crate) const BUCKETS: usize = MAJORS * SUB;

/// Bucket index of `v`: `major` is the bit length above the linear
/// range, `sub` the top `SUB_BITS` bits below the leading one.
#[inline]
fn bucket_of(v: u64) -> usize {
    let bits = 64 - v.leading_zeros();
    let major = bits.saturating_sub(SUB_BITS);
    (major as usize) * SUB + ((v >> major) as usize & (SUB - 1))
}

/// Inclusive lower bound of bucket `idx` (the smallest value mapping
/// into it).
#[inline]
fn bucket_floor(idx: usize) -> u64 {
    let major = (idx / SUB) as u32;
    let sub = (idx % SUB) as u64;
    if major == 0 {
        sub
    } else {
        sub << major
    }
}

/// Representative value of bucket `idx`: the midpoint of its range,
/// which halves the worst-case quantile error versus the floor.
#[inline]
fn bucket_mid(idx: usize) -> u64 {
    let major = (idx / SUB) as u32;
    bucket_floor(idx) + (1u64 << major) / 2
}

/// A concurrent log-bucketed histogram. `record` is wait-free (relaxed
/// atomics only); `snapshot` may run at any time and observes a
/// near-consistent view (counts lag sums by at most the in-flight
/// recordings, which is harmless for reporting).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram (~15 KiB of buckets).
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. O(1), lock-free, allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`]: quantiles are computed here, and
/// snapshots from different threads/partitions merge exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (identity element of [`HistogramSnapshot::merge`]).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (exact: tracked as a running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) reconstructed from the buckets:
    /// the midpoint of the bucket holding the ⌈q·count⌉-th value, so
    /// within ~±1.6% of the true order statistic. `q = 1.0` returns the
    /// exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(idx).min(self.max);
            }
        }
        self.max
    }

    /// Add `other`'s distribution into this one. Merging snapshots is
    /// exact: the result equals a snapshot that recorded both inputs.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The distribution recorded between `earlier` and this snapshot
    /// (bucket-wise saturating subtraction — the inverse of
    /// [`HistogramSnapshot::merge`] for monotone histograms). The exact
    /// `max` of the delta window is unknowable from two snapshots, so
    /// the later max is kept when anything was recorded in between.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(b, e)| b.saturating_sub(*e))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: if self.count > earlier.count {
                self.max
            } else {
                0
            },
        }
    }

    /// Condense into the serializable per-stage report row, converting
    /// nanosecond recordings to microseconds.
    pub fn report(&self) -> HistogramReport {
        const NS_PER_US: f64 = 1_000.0;
        HistogramReport {
            count: self.count,
            mean_us: self.mean() / NS_PER_US,
            p50_us: self.quantile(0.50) as f64 / NS_PER_US,
            p95_us: self.quantile(0.95) as f64 / NS_PER_US,
            p99_us: self.quantile(0.99) as f64 / NS_PER_US,
            max_us: self.max as f64 / NS_PER_US,
        }
    }
}

/// Serializable summary of one histogram: count plus headline
/// percentiles in microseconds. This is the shape that appears per
/// stage in `Cluster::observability_report()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramReport {
    /// Number of recorded values.
    pub count: u64,
    /// Exact mean, µs.
    pub mean_us: f64,
    /// Median, µs (bucketed, ≤ ~1.6% relative error).
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Exact maximum, µs.
    pub max_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_in_linear_range() {
        // Values below 2^SUB_BITS each get their own bucket.
        for v in 0..SUB as u64 {
            assert_eq!(bucket_of(v), v as usize, "v={v}");
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn bucket_floor_is_inclusive_lower_bound() {
        // For a spread of values, the bucket's floor must be ≤ v and the
        // next bucket's floor must be > v (floors are monotone over the
        // occupied indices).
        for shift in 0..63u32 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift) + off;
                let idx = bucket_of(v);
                assert!(bucket_floor(idx) <= v, "floor(bucket({v})) > {v}");
                let upper = bucket_floor(idx) + (1u64 << (idx / SUB)) - 1;
                assert!(v <= upper, "{v} above bucket upper bound {upper}");
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = Histogram::new();
        for v in [1u64, 100, 999, 5_000, 123_456, 9_999_999, u32::MAX as u64] {
            h.record(v);
        }
        let s = h.snapshot();
        // Every recorded value reconstructs within 1/32 relative error
        // via its bucket midpoint.
        for v in [1u64, 100, 999, 5_000, 123_456, 9_999_999, u32::MAX as u64] {
            let mid = bucket_mid(bucket_of(v)) as f64;
            let err = (mid - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "v={v} mid={mid} err={err}");
        }
        assert_eq!(s.count(), 7);
        assert_eq!(s.max(), u32::MAX as u64);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10_000);
        for (q, want) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = s.quantile(q) as f64;
            let err = (got - want).abs() / want;
            assert!(err < 0.04, "q={q} got={got} want={want} err={err}");
        }
        assert_eq!(s.quantile(1.0), 10_000);
        let mean = s.mean();
        assert!((mean - 5_000.5).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.report(), HistogramReport::default());
    }

    #[test]
    fn merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let u = Histogram::new();
        for v in 0..1_000u64 {
            let x = v * 97 + 13;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            u.record(x);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, u.snapshot());
    }

    #[test]
    fn quantile_edge_ranks() {
        let h = Histogram::new();
        h.record(7);
        let s = h.snapshot();
        // A single sample is every quantile.
        assert_eq!(s.quantile(0.0), 7);
        assert_eq!(s.quantile(0.5), 7);
        assert_eq!(s.quantile(1.0), 7);
    }
}
