//! Exact percentile collection.
//!
//! Experiments in this workspace report average and tail latencies
//! (P90–P99, like the paper's Figure 6). Sample counts are small enough
//! (thousands of requests) that exact percentiles over retained samples are
//! both affordable and more trustworthy than sketches.

/// Retains all samples and answers exact quantile queries.
///
/// # Example
///
/// ```
/// use simkit::Sampler;
/// let mut s = Sampler::new();
/// for i in 1..=100 {
///     s.record(i as f64);
/// }
/// assert_eq!(s.quantile(0.99), Some(99.0));
/// assert_eq!(s.quantile(0.5), Some(50.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    samples: Vec<f64>,
    sorted: bool,
}

impl Sampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        Sampler {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN — a NaN latency is always a bug upstream.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Exact q-quantile (nearest-rank, `0.0 <= q <= 1.0`), or `None` if empty.
    ///
    /// Uses the nearest-rank definition: the smallest sample such that at
    /// least `q·n` samples are ≤ it. `quantile(1.0)` is the maximum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
            self.sorted = true;
        }
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }

    /// Sample mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Summarizes into the percentile set the paper reports.
    pub fn percentiles(&mut self) -> Percentiles {
        Percentiles {
            count: self.count(),
            mean: self.mean().unwrap_or(0.0),
            p50: self.quantile(0.50).unwrap_or(0.0),
            p90: self.quantile(0.90).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            p96: self.quantile(0.96).unwrap_or(0.0),
            p97: self.quantile(0.97).unwrap_or(0.0),
            p98: self.quantile(0.98).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            max: self.quantile(1.0).unwrap_or(0.0),
        }
    }
}

impl FromIterator<f64> for Sampler {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Sampler::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

/// The percentile summary reported by the experiment harness
/// (matches the x-axis of the paper's Figure 6: Avg, P90…P99).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Percentiles {
    /// Number of samples summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 96th percentile.
    pub p96: f64,
    /// 97th percentile.
    pub p97: f64,
    /// 98th percentile.
    pub p98: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Percentiles {
    /// The metrics in Figure 6 order: `[Avg, P90, P95, P96, P97, P98, P99]`.
    pub fn figure6_row(&self) -> [f64; 7] {
        [
            self.mean, self.p90, self.p95, self.p96, self.p97, self.p98, self.p99,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_quantiles_exact() {
        let mut s: Sampler = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.001), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(500.0));
        assert_eq!(s.quantile(0.99), Some(990.0));
        assert_eq!(s.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn sampler_unordered_input() {
        let mut s = Sampler::new();
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.5), Some(3.0));
        // Interleave: record after querying.
        s.record(0.5);
        assert_eq!(s.quantile(0.0), Some(0.5));
    }

    #[test]
    fn empty_sampler() {
        let mut s = Sampler::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.9), None);
        assert_eq!(s.mean(), None);
        let p = s.percentiles();
        assert_eq!(p.count, 0);
        assert_eq!(p.p99, 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_panics() {
        Sampler::new().record(f64::NAN);
    }

    #[test]
    fn percentiles_monotone() {
        let mut s: Sampler = (0..500).map(|i| (i * 7 % 500) as f64).collect();
        let p = s.percentiles();
        let row = p.figure6_row();
        for w in row[1..].windows(2) {
            assert!(w[0] <= w[1], "percentiles must be monotone: {row:?}");
        }
        assert!(p.p50 <= p.p90 && p.p99 <= p.max);
    }
}
