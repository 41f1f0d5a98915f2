//! Order statistics and association measures for fleet-scale
//! characterization.
//!
//! The fleet reports render per-attribute distributions (p50/p90/p99 in the
//! IO500 submission-study style) and cross-attribute Pearson correlations
//! over thousands of job records. The helpers here are deliberately
//! sequential and allocation-light: sorting a few thousand doubles is
//! microseconds, and keeping the arithmetic order fixed makes every
//! rendered percentile and correlation bit-stable regardless of worker
//! count (callers sort once, then index — no data-dependent reductions).

use std::sync::atomic::{AtomicU64, Ordering};

/// A high-water-mark byte gauge: threads `add` what they allocate and `sub`
/// what they release, and the gauge remembers the largest concurrent total it
/// ever saw. The streaming analyzer charges its chunk scratch buffers against
/// a process-wide instance of this so benches (and CI) can assert that peak
/// resident trace bytes stay bounded regardless of trace length.
///
/// All operations are lock-free atomics. `peak` is maintained with a
/// fetch-max loop on every `add`, so it is exact under concurrency (never an
/// under-count of the true simultaneous maximum of the tracked total).
#[derive(Debug, Default)]
pub struct PeakGauge {
    cur: AtomicU64,
    peak: AtomicU64,
}

impl PeakGauge {
    /// A fresh gauge at zero.
    pub const fn new() -> PeakGauge {
        PeakGauge {
            cur: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Charge `bytes` against the gauge, raising the peak if the new total
    /// exceeds it.
    pub fn add(&self, bytes: u64) {
        let now = self.cur.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Release `bytes` previously charged with [`add`](Self::add). Saturates
    /// at zero so a mismatched release can't wrap the counter.
    pub fn sub(&self, bytes: u64) {
        let mut cur = self.cur.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .cur
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Bytes currently charged.
    pub fn current(&self) -> u64 {
        self.cur.load(Ordering::Relaxed)
    }

    /// Largest concurrent total observed since construction or the last
    /// [`reset`](Self::reset).
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restart peak tracking from the current level (live charges persist;
    /// the high-water mark collapses onto them).
    pub fn reset(&self) {
        self.peak
            .store(self.cur.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Linearly interpolated percentile of an **ascending-sorted** slice.
/// `p` is in `[0, 100]`; out-of-range values clamp. Empty input returns
/// `f64::NAN`. Interpolation follows the common "linear between closest
/// ranks" definition (numpy's default): rank `h = (n - 1) * p / 100`.
pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
    let h = (sorted.len() - 1) as f64 * p / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        return sorted[lo];
    }
    let frac = h - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Five-point summary plus mean of a sample, computed in one pass over a
/// sorted copy. The struct is plain data so reports can format it any way
/// they like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Sample size.
    pub n: usize,
    /// Smallest observation (NAN when empty).
    pub min: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean, accumulated left-to-right in input order.
    pub mean: f64,
}

impl Quantiles {
    /// Summarize a sample. Sorting uses a total order (`total_cmp`), so
    /// NaNs — which indicate an upstream bug — sort to the end instead of
    /// panicking mid-report.
    pub fn of(xs: &[f64]) -> Quantiles {
        if xs.is_empty() {
            return Quantiles {
                n: 0,
                min: f64::NAN,
                p50: f64::NAN,
                p90: f64::NAN,
                p99: f64::NAN,
                max: f64::NAN,
                mean: f64::NAN,
            };
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Quantiles {
            n: xs.len(),
            min: sorted[0],
            p50: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: sorted[sorted.len() - 1],
            mean: xs.iter().sum::<f64>() / xs.len() as f64,
        }
    }
}

/// Pearson product-moment correlation of two equally long samples.
/// Returns `f64::NAN` when either sample is degenerate (fewer than two
/// points, or zero variance) — the renderer prints those cells as "-".
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: sample lengths differ");
    let n = xs.len();
    if n < 2 {
        return f64::NAN;
    }
    let mx = xs.iter().sum::<f64>() / n as f64;
    let my = ys.iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx, mut syy) = (0.0f64, 0.0f64, 0.0f64);
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return f64::NAN;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_gauge_tracks_high_water_mark() {
        let g = PeakGauge::new();
        g.add(100);
        g.add(50);
        assert_eq!(g.current(), 150);
        assert_eq!(g.peak(), 150);
        g.sub(120);
        assert_eq!(g.current(), 30);
        assert_eq!(g.peak(), 150); // peak survives release
        g.add(40);
        assert_eq!(g.peak(), 150); // 70 < 150: no new high-water mark
        g.reset();
        assert_eq!(g.peak(), 70); // reset collapses peak onto live charges
        g.sub(1_000_000);
        assert_eq!(g.current(), 0); // saturating release
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 100.0), 4.0);
        assert_eq!(percentile_sorted(&xs, 50.0), 2.5);
        assert!((percentile_sorted(&xs, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn percentile_edge_cases() {
        assert!(percentile_sorted(&[], 50.0).is_nan());
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        let xs = [1.0, 5.0];
        assert_eq!(percentile_sorted(&xs, -10.0), 1.0);
        assert_eq!(percentile_sorted(&xs, 250.0), 5.0);
        assert_eq!(percentile_sorted(&xs, f64::NAN), 1.0);
    }

    #[test]
    fn quantiles_summarize_uniform_ramp() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let q = Quantiles::of(&xs);
        assert_eq!(q.n, 101);
        assert_eq!(q.min, 0.0);
        assert_eq!(q.p50, 50.0);
        assert_eq!(q.p90, 90.0);
        assert_eq!(q.p99, 99.0);
        assert_eq!(q.max, 100.0);
        assert_eq!(q.mean, 50.0);
    }

    #[test]
    fn quantiles_of_empty_are_nan() {
        let q = Quantiles::of(&[]);
        assert_eq!(q.n, 0);
        assert!(q.p50.is_nan() && q.mean.is_nan());
    }

    #[test]
    fn pearson_detects_perfect_and_inverse_correlation() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 2.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let inv: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &inv) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_samples_are_nan() {
        assert!(pearson(&[1.0], &[2.0]).is_nan());
        assert!(pearson(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]).is_nan());
    }

    #[test]
    fn pearson_is_symmetric_and_scale_free() {
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0];
        let ys = [2.0, 3.0, 1.0, 9.0, 4.0];
        let a = pearson(&xs, &ys);
        let b = pearson(&ys, &xs);
        assert!((a - b).abs() < 1e-12);
        let scaled: Vec<f64> = ys.iter().map(|y| y * 100.0 - 7.0).collect();
        assert!((pearson(&xs, &scaled) - a).abs() < 1e-12);
    }
}
