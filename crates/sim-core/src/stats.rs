//! Statistics kernels used by the workload analyzer.
//!
//! * [`Histogram`] — power-of-two bucketed histograms for request sizes and
//!   per-request bandwidths (the paper's Figures 1a–6a),
//! * [`Summary`] — streaming central moments (std/skewness/kurtosis) and
//!   the minimum,
//! * [`TimeSeries`] — fixed-width time binning for I/O timelines
//!   (Figures 1c–6c),
//! * [`DistributionFit`] — moment-based classification of sample-value
//!   distributions into uniform/normal/gamma (Table VI's "Data dist" row).

use crate::time::{Dur, SimTime};

/// A histogram over power-of-two buckets: bucket `i` holds values in
/// `[2^i, 2^(i+1))`, with values of zero counted in bucket 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value.
    pub(crate) fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Lower bound of bucket `i`.
    pub(crate) fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Iterate `(bucket_lo, count)` over non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), c))
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

/// Streaming summary statistics over f64 samples (Welford-style central
/// moments up to order four).
#[derive(Debug, Clone)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
}

impl Summary {
    /// New empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4: 0.0,
            min: f64::INFINITY,
        }
    }

    /// Record a sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * (n - 1.0);
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
    }

    /// Number of samples.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// Population variance.
    pub(crate) fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Skewness (0 when degenerate).
    pub(crate) fn skewness(&self) -> f64 {
        let var = self.variance();
        if self.n < 2 || var <= 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        (self.m3 / n) / var.powf(1.5)
    }

    /// Kurtosis (3 = mesokurtic/normal; returns 0 when degenerate).
    pub(crate) fn kurtosis(&self) -> f64 {
        let var = self.variance();
        if self.n < 2 || var <= 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        (self.m4 / n) / (var * var)
    }

    /// Smallest sample (infinity when empty).
    pub(crate) fn min(&self) -> f64 {
        self.min
    }
}

/// Distribution families the analyzer recognizes (Table VI "Data dist").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistributionFit {
    /// Flat spread over a bounded range.
    Uniform,
    /// Symmetric, bell-shaped.
    Normal,
    /// Right-skewed, non-negative.
    Gamma,
    /// Not enough signal to classify.
    Unknown,
}

impl DistributionFit {
    /// Classify by moments: near-zero skew splits uniform from normal by
    /// kurtosis (uniform ≈ 1.8, normal ≈ 3); pronounced positive skew with
    /// non-negative support reads as gamma.
    pub fn classify(s: &Summary) -> DistributionFit {
        if s.count() < 16 || s.std() <= f64::EPSILON {
            return DistributionFit::Unknown;
        }
        let skew = s.skewness();
        let kurt = s.kurtosis();
        if skew >= 0.5 && s.min() >= 0.0 {
            DistributionFit::Gamma
        } else if skew.abs() < 0.5 {
            if kurt < 2.4 {
                DistributionFit::Uniform
            } else {
                DistributionFit::Normal
            }
        } else {
            DistributionFit::Unknown
        }
    }

    /// Short label used in table output.
    pub fn label(&self) -> &'static str {
        match self {
            DistributionFit::Uniform => "uniform",
            DistributionFit::Normal => "normal",
            DistributionFit::Gamma => "gamma",
            DistributionFit::Unknown => "unknown",
        }
    }
}

/// Synthesize `n` bytes whose u8 values follow the given distribution —
/// used to stage dataset prefixes so the analyzer's distribution fitting
/// (Table VI's "Data dist") has real signal to classify.
pub fn synth_bytes(dist: DistributionFit, seed: u64, n: usize) -> Vec<u8> {
    let mut rng = vani_rt::Rng::new(seed);
    (0..n)
        .map(|_| match dist {
            DistributionFit::Uniform => rng.uniform_f64(0.0, 256.0) as u8,
            DistributionFit::Normal => rng.normal(128.0, 20.0).clamp(0.0, 255.0) as u8,
            DistributionFit::Gamma => rng.gamma(2.0, 24.0).clamp(0.0, 255.0) as u8,
            DistributionFit::Unknown => 0,
        })
        .collect()
}

/// A fixed-bin time series accumulating a value (e.g. bytes moved) per bin;
/// used to render I/O timelines.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bin: Dur,
    bins: Vec<f64>,
}

impl TimeSeries {
    /// New series with the given bin width.
    pub fn new(bin: Dur) -> Self {
        assert!(bin > Dur::ZERO, "bin width must be positive");
        TimeSeries {
            bin,
            bins: Vec::new(),
        }
    }

    /// Bin width.
    pub fn bin_width(&self) -> Dur {
        self.bin
    }

    /// Add `amount` spread uniformly over `[start, end)`. Point events
    /// (`end <= start`) land entirely in `start`'s bin.
    pub fn add(&mut self, start: SimTime, end: SimTime, amount: f64) {
        let b0 = (start.as_nanos() / self.bin.as_nanos()) as usize;
        if end <= start {
            self.grow(b0 + 1);
            self.bins[b0] += amount;
            return;
        }
        let b1 = ((end.as_nanos().saturating_sub(1)) / self.bin.as_nanos()) as usize;
        self.grow(b1 + 1);
        let span = end.since(start).as_nanos() as f64;
        for b in b0..=b1 {
            let bin_start = (b as u64) * self.bin.as_nanos();
            let bin_end = bin_start + self.bin.as_nanos();
            let lo = bin_start.max(start.as_nanos());
            let hi = bin_end.min(end.as_nanos());
            self.bins[b] += amount * ((hi - lo) as f64 / span);
        }
    }

    fn grow(&mut self, n: usize) {
        if self.bins.len() < n {
            self.bins.resize(n, 0.0);
        }
    }

    /// The accumulated values per bin.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Total across all bins.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Peak bin value.
    pub fn peak(&self) -> f64 {
        self.bins.iter().cloned().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vani_rt::Rng;

    #[test]
    fn histogram_buckets_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(4095), 11);
        assert_eq!(Histogram::bucket_of(4096), 12);
        assert_eq!(Histogram::bucket_lo(12), 4096);
    }

    #[test]
    fn histogram_counts_and_mass() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(100);
        h.record(5000);
        assert_eq!(h.total(), 3);
        // 100 falls in [64,128), 5000 in [4096,8192).
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![(64, 2), (4096, 1)]);
        assert_eq!(h.sum(), 5200);
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(10);
        b.record(1 << 30);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(8, 2), (1 << 30, 1)]);
    }

    #[test]
    fn summary_matches_closed_form() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
    }

    #[test]
    fn new_summary_min_is_the_first_sample() {
        let mut s = Summary::new();
        s.record(5.0);
        assert_eq!(s.min(), 5.0);
    }

    #[test]
    fn classifier_recognizes_uniform() {
        let mut r = Rng::new(1);
        let mut s = Summary::new();
        for _ in 0..5000 {
            s.record(r.uniform_f64(0.0, 100.0));
        }
        assert_eq!(DistributionFit::classify(&s), DistributionFit::Uniform);
    }

    #[test]
    fn classifier_recognizes_normal() {
        let mut r = Rng::new(2);
        let mut s = Summary::new();
        for _ in 0..5000 {
            s.record(r.normal(50.0, 5.0));
        }
        assert_eq!(DistributionFit::classify(&s), DistributionFit::Normal);
    }

    #[test]
    fn classifier_recognizes_gamma() {
        let mut r = Rng::new(3);
        let mut s = Summary::new();
        for _ in 0..5000 {
            s.record(r.gamma(2.0, 3.0));
        }
        assert_eq!(DistributionFit::classify(&s), DistributionFit::Gamma);
    }

    #[test]
    fn synth_bytes_round_trip_classification() {
        for dist in [
            DistributionFit::Uniform,
            DistributionFit::Normal,
            DistributionFit::Gamma,
        ] {
            let bytes = synth_bytes(dist, 42, 8192);
            let mut s = Summary::new();
            for &b in &bytes {
                s.record(b as f64);
            }
            assert_eq!(DistributionFit::classify(&s), dist, "{dist:?}");
        }
    }

    #[test]
    fn classifier_defers_on_tiny_samples() {
        let mut s = Summary::new();
        s.record(1.0);
        s.record(2.0);
        assert_eq!(DistributionFit::classify(&s), DistributionFit::Unknown);
    }

    #[test]
    fn timeseries_spreads_across_bins() {
        let mut ts = TimeSeries::new(Dur::from_secs(1));
        // 4 units over [0.5s, 2.5s): 0.5s in bin 0, 1s in bin 1, 0.5s in bin 2.
        ts.add(
            SimTime::from_secs_f64(0.5),
            SimTime::from_secs_f64(2.5),
            4.0,
        );
        let b = ts.bins();
        assert_eq!(b.len(), 3);
        assert!((b[0] - 1.0).abs() < 1e-9);
        assert!((b[1] - 2.0).abs() < 1e-9);
        assert!((b[2] - 1.0).abs() < 1e-9);
        assert!((ts.total() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn timeseries_point_event_hits_one_bin() {
        let mut ts = TimeSeries::new(Dur::from_millis(100));
        ts.add(SimTime::from_secs(1), SimTime::from_secs(1), 7.0);
        assert!((ts.bins()[10] - 7.0).abs() < 1e-12);
    }

    // Deterministic randomized sweeps (seeded `vani_rt::Rng`, fixed case
    // counts) — converted from the original proptest suites.

    /// Histogram mass conservation: total == number of records, and
    /// iter() covers all of it, for random value sets.
    #[test]
    fn randomized_histogram_mass() {
        let mut r = vani_rt::Rng::new(0x5747_0001);
        for _ in 0..64 {
            let n = r.uniform_u64(0, 500) as usize;
            let values: Vec<u64> = (0..n).map(|_| r.uniform_u64(0, u64::MAX / 2)).collect();
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            assert_eq!(h.total(), values.len() as u64);
            let iter_total: u64 = h.iter().map(|(_, c)| c).sum();
            assert_eq!(iter_total, values.len() as u64);
            assert_eq!(h.sum(), values.iter().map(|&v| v as u128).sum::<u128>());
        }
    }

    /// TimeSeries conserves the amount added regardless of interval.
    #[test]
    fn randomized_timeseries_conserves() {
        let mut r = vani_rt::Rng::new(0x5747_0002);
        for _ in 0..256 {
            let start = r.uniform_u64(0, 10_000_000);
            let len = r.uniform_u64(0, 10_000_000);
            let amount = r.uniform_f64(0.0, 1e6);
            let mut ts = TimeSeries::new(Dur::from_micros(250));
            ts.add(SimTime(start), SimTime(start + len), amount);
            assert!((ts.total() - amount).abs() < 1e-6 * amount.max(1.0));
        }
    }

    /// Welford summary agrees with the naive two-pass computation.
    #[test]
    fn randomized_summary_matches_naive() {
        let mut r = vani_rt::Rng::new(0x5747_0003);
        for _ in 0..64 {
            let n = r.uniform_u64(2, 200) as usize;
            let values: Vec<f64> = (0..n).map(|_| r.uniform_f64(-1e3, 1e3)).collect();
            let mut s = Summary::new();
            for &v in &values {
                s.record(v);
            }
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
            assert!((s.mean - mean).abs() < 1e-6);
            assert!((s.variance() - var).abs() < 1e-4 * var.max(1.0));
        }
    }
}
