//! A bounded-memory latency histogram with quantile queries.
//!
//! Serving engines need per-request latency percentiles (p50/p95/p99) that
//! can be recorded on the hot path and read at any time without storing one
//! sample per request. [`LatencyHistogram`] uses HdrHistogram-style
//! **log-linear buckets**: durations are bucketed by their power-of-two tier
//! and 16 linear sub-buckets within each tier, giving a fixed ≈1 KiB
//! footprint and a worst-case quantile error of one sub-bucket (≈6 % of the
//! value), which is far below the run-to-run noise of wall-clock latency.
//!
//! Histograms are mergeable, so per-worker histograms can be combined into a
//! server-wide view without cross-thread contention.

use std::time::Duration;

/// Sub-buckets per power-of-two tier: values within a tier resolve to
/// 1/16th of the tier width.
const SUBS: usize = 16;

/// Bucket count: nanosecond values up to 2⁶³ map into tiers `4..=63`, each
/// with [`SUBS`] sub-buckets, after the 16 exact single-nanosecond buckets.
const BUCKETS: usize = (64 - 4) * SUBS + SUBS;

/// Maps a nanosecond value to its bucket index.
///
/// Values below 16 ns get exact buckets; larger values use the top four
/// bits below the leading bit as the linear sub-index.
fn bucket_index(ns: u64) -> usize {
    if ns < SUBS as u64 {
        return ns as usize;
    }
    let tier = 63 - ns.leading_zeros() as u64; // ≥ 4 here
    let sub = (ns >> (tier - 4)) & (SUBS as u64 - 1);
    ((tier - 3) * SUBS as u64 + sub) as usize
}

/// Upper bound (inclusive) of a bucket, used as the conservative quantile
/// estimate.
fn bucket_upper_ns(index: usize) -> u64 {
    if index < SUBS {
        return index as u64;
    }
    let tier = (index / SUBS) as u64 + 3;
    let sub = (index % SUBS) as u64;
    // Lower bound of the next sub-bucket, minus one; saturating so the very
    // top tier (only reachable via absurd `record_ns` inputs) cannot wrap.
    (1u64 << tier)
        .saturating_add((sub + 1) << (tier - 4))
        .saturating_sub(1)
}

/// A fixed-size log-linear histogram of durations.
///
/// # Examples
///
/// ```
/// use ff_metrics::LatencyHistogram;
/// use std::time::Duration;
///
/// let mut hist = LatencyHistogram::new();
/// for micros in [100u64, 200, 300, 400, 10_000] {
///     hist.record(Duration::from_micros(micros));
/// }
/// assert_eq!(hist.count(), 5);
/// let p50 = hist.quantile(0.5);
/// assert!(p50 >= Duration::from_micros(180) && p50 <= Duration::from_micros(320));
/// assert!(hist.max() == Duration::from_micros(10_000));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.record_ns(ns);
    }

    /// Records one latency given in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean of all recorded durations (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Exact smallest recorded duration (zero when empty).
    pub fn min(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.min_ns)
    }

    /// Exact largest recorded duration (zero when empty).
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// containing that rank — conservative to within one sub-bucket (≈6 %).
    ///
    /// Returns zero when empty; `q ≥ 1.0` returns the exact maximum.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        if q >= 1.0 {
            return self.max();
        }
        let rank = ((q.max(0.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report beyond the exact observed extremes.
                return Duration::from_nanos(
                    bucket_upper_ns(index).clamp(self.min_ns, self.max_ns),
                );
            }
        }
        self.max()
    }

    /// Median latency.
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Duration {
        self.quantile(0.95)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// The histogram of samples recorded since `baseline`, where `baseline`
    /// is an earlier clone of this histogram (per-bucket saturating
    /// subtraction; count and sum are exact).
    ///
    /// The exact min/max of the *interval* are not recoverable from a
    /// subtraction, so they are re-estimated as the bounds of the first and
    /// last occupied diff buckets — the same one-sub-bucket precision the
    /// quantiles already have. Windowed metric views use this to turn
    /// lifetime histograms into per-window ones.
    ///
    /// # Examples
    ///
    /// ```
    /// use ff_metrics::LatencyHistogram;
    /// use std::time::Duration;
    ///
    /// let mut hist = LatencyHistogram::new();
    /// hist.record(Duration::from_micros(10));
    /// let baseline = hist.clone();
    /// hist.record(Duration::from_micros(500));
    /// let diff = hist.diff_since(&baseline);
    /// assert_eq!(diff.count(), 1);
    /// assert!(diff.min() >= Duration::from_micros(450));
    /// ```
    pub fn diff_since(&self, baseline: &LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for (o, (&now, &base)) in out
            .counts
            .iter_mut()
            .zip(self.counts.iter().zip(&baseline.counts))
        {
            *o = now.saturating_sub(base);
        }
        out.count = self.count.saturating_sub(baseline.count);
        out.sum_ns = self.sum_ns.saturating_sub(baseline.sum_ns);
        let first = out.counts.iter().position(|&c| c > 0);
        let last = out.counts.iter().rposition(|&c| c > 0);
        if let (Some(first), Some(last)) = (first, last) {
            out.min_ns = if first == 0 {
                0
            } else {
                bucket_upper_ns(first - 1).saturating_add(1)
            };
            out.max_ns = bucket_upper_ns(last);
        }
        out
    }

    /// A copyable snapshot of the headline statistics.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean: self.mean(),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
            max: self.max(),
        }
    }
}

/// Headline latency statistics extracted from a [`LatencyHistogram`].
///
/// # Examples
///
/// ```
/// use ff_metrics::LatencyHistogram;
/// use std::time::Duration;
///
/// let mut hist = LatencyHistogram::new();
/// hist.record(Duration::from_millis(2));
/// let s = hist.summary();
/// assert_eq!(s.count, 1);
/// assert!(s.to_string().contains("p99"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Exact maximum.
    pub max: Duration,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:?} p50={:?} p95={:?} p99={:?} max={:?}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let hist = LatencyHistogram::new();
        assert!(hist.is_empty());
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.mean(), Duration::ZERO);
        assert_eq!(hist.min(), Duration::ZERO);
        assert_eq!(hist.max(), Duration::ZERO);
        assert_eq!(hist.p99(), Duration::ZERO);
    }

    #[test]
    fn bucket_index_is_monotonic_and_in_range() {
        // Walk an increasing sequence of nanosecond values covering every
        // tier and sub-bucket; indices must never decrease or overflow.
        let mut values: Vec<u64> = (0..16).collect();
        for shift in 4..63u32 {
            let base = 1u64 << shift;
            for sub in 0..16u64 {
                values.push(base + sub * (base >> 4));
            }
        }
        values.push(u64::MAX);
        let mut last = 0usize;
        for &ns in &values {
            let idx = bucket_index(ns);
            assert!(idx < BUCKETS, "ns={ns} idx={idx}");
            assert!(idx >= last, "index must not decrease: ns={ns}");
            last = idx;
        }
    }

    #[test]
    fn bucket_upper_bound_brackets_every_value() {
        for ns in (0u64..100_000).step_by(37) {
            let idx = bucket_index(ns);
            assert!(bucket_upper_ns(idx) >= ns, "upper({idx}) < {ns}");
            if idx > 0 {
                assert!(bucket_upper_ns(idx - 1) < ns.max(1), "value below bucket");
            }
        }
    }

    #[test]
    fn quantiles_are_within_one_sub_bucket() {
        let mut hist = LatencyHistogram::new();
        // 1..=1000 µs uniformly.
        for us in 1..=1000u64 {
            hist.record(Duration::from_micros(us));
        }
        assert_eq!(hist.count(), 1000);
        let p50 = hist.quantile(0.5).as_nanos() as f64;
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.07, "p50={p50}");
        let p95 = hist.quantile(0.95).as_nanos() as f64;
        assert!((p95 / 950_000.0 - 1.0).abs() < 0.07, "p95={p95}");
        assert_eq!(hist.max(), Duration::from_micros(1000));
        assert_eq!(hist.min(), Duration::from_micros(1));
        let mean = hist.mean().as_nanos();
        assert_eq!(mean, 500_500); // exact: (1..=1000).sum() / 1000 µs
        let summary = hist.summary();
        assert_eq!(summary.count, 1000);
        assert!(summary.p50 <= summary.p95 && summary.p95 <= summary.p99);
        assert!(summary.to_string().contains("n=1000"));
    }

    #[test]
    fn quantile_never_exceeds_observed_extremes() {
        let mut hist = LatencyHistogram::new();
        hist.record_ns(1_000_003);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(hist.quantile(q), Duration::from_nanos(1_000_003));
        }
    }

    #[test]
    fn diff_since_isolates_the_interval() {
        let mut hist = LatencyHistogram::new();
        for us in 1..=100u64 {
            hist.record(Duration::from_micros(us));
        }
        let baseline = hist.clone();
        for us in 500..=600u64 {
            hist.record(Duration::from_micros(us));
        }
        let diff = hist.diff_since(&baseline);
        assert_eq!(diff.count(), 101);
        // Interval extremes are bucket bounds around the true 500..=600 µs.
        assert!(
            diff.min() >= Duration::from_micros(450),
            "min={:?}",
            diff.min()
        );
        assert!(
            diff.max() <= Duration::from_micros(700),
            "max={:?}",
            diff.max()
        );
        let p50 = diff.p50().as_nanos() as f64;
        assert!((p50 / 550_000.0 - 1.0).abs() < 0.1, "p50={p50}");
        // Empty interval: everything zero.
        let none = hist.diff_since(&hist.clone());
        assert!(none.is_empty());
        assert_eq!(none.max(), Duration::ZERO);
    }

    #[test]
    fn tiny_durations_use_exact_buckets() {
        let mut hist = LatencyHistogram::new();
        for ns in 0..16u64 {
            hist.record_ns(ns);
        }
        assert_eq!(hist.quantile(1.0), Duration::from_nanos(15));
        assert_eq!(hist.min(), Duration::ZERO);
    }
}
