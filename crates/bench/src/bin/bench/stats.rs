//! Order statistics for the benchmark: medians, nearest-rank percentiles,
//! and the choice of the highest percentile a sample can support. Timings are never
//! reported as a bare mean; every summary carries its sample count.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice so a skipped phase reads as "not measured".
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentiles a summary may report, ascending.
const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it in a sample of `n` (`None` below 20 samples, where
/// not even the median qualifies).
pub fn top_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| supports(n, p))
}

/// Whether a sample of `n` has at least ten samples beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64) * (100.0 - p) / 100.0 >= 10.0
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summary of a latency sample taken in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median, ns.
    pub p50: u64,
    /// 95th percentile, ns.
    pub p95: u64,
    /// 99th percentile, ns.
    pub p99: u64,
    /// The highest supported percentile and its value, ns.
    pub top: Option<(f64, u64)>,
}

impl Summary {
    /// Summarize `samples` (sorted in place).
    pub fn of(samples: &mut [u64]) -> Summary {
        samples.sort_unstable();
        Summary {
            n: samples.len(),
            p50: percentile_sorted(samples, 50.0),
            p95: percentile_sorted(samples, 95.0),
            p99: percentile_sorted(samples, 99.0),
            top: top_percentile(samples.len()).map(|p| (p, percentile_sorted(samples, p))),
        }
    }

    /// Median in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.p50 as f64 / 1e3
    }

    /// 95th percentile in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.p95 as f64 / 1e3
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99 as f64 / 1e3
    }

    /// Percentile `p` — 50, 95 or 99, the ones a summary keeps — in µs.
    pub fn percentile_us(&self, p: f64) -> f64 {
        match p as u32 {
            50 => self.p50_us(),
            95 => self.p95_us(),
            99 => self.p99_us(),
            _ => panic!("a summary keeps p50, p95 and p99, not p{p}"),
        }
    }

    /// `p50 / top (n=…)` for the human-readable report: the median and
    /// the highest percentile the sample supports, nothing above it.
    pub fn describe(&self) -> String {
        let top = match self.top {
            Some((p, v)) if p > 50.0 => format!(" p{p}={:.1}us", v as f64 / 1e3),
            _ => String::new(),
        };
        format!("p50={:.1}us{top} (n={})", self.p50_us(), self.n)
    }

    /// [`Summary::describe`] for a metric whose value is percentile `p`
    /// of this sample; says so when the sample is too small to carry it
    /// (a smoke run — at the frozen run length every reported percentile
    /// is supported).
    pub fn describe_at(&self, p: f64) -> String {
        if supports(self.n, p) {
            self.describe()
        } else {
            format!(
                "{} UNSUPPORTED: fewer than 10 samples beyond p{p}",
                self.describe()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(199), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(1_000), Some(99.0));
        assert_eq!(top_percentile(100_000), Some(99.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.n, s.p50, s.p95, s.p99), (100, 50, 95, 99));
        assert_eq!(s.top, Some((90.0, 90)));
        assert_eq!(s.describe(), "p50=0.1us p90=0.1us (n=100)");
        assert!(s.describe_at(90.0) == s.describe() && s.describe_at(95.0).contains("UNSUPPORTED"));
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }
}
