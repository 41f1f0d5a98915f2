//! Small statistics helpers: tail percentiles, failure fractions and a
//! stable digest.

/// A tail percentile together with how many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen, e.g. 95.0.
    pub pct: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `pct` percentile of `sorted`, with the number of
/// samples ranked beyond it.
fn nearest_rank(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// The highest of `candidates` (percentiles, ascending or not) that has at
/// least [`MIN_BEYOND`] samples beyond it. `None` when even the lowest
/// candidate has too few samples behind it.
pub fn tail_percentile(samples: &[f64], candidates: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut best: Option<Tail> = None;
    for &pct in candidates {
        let (value, beyond) = nearest_rank(&sorted, pct);
        if beyond >= MIN_BEYOND && best.is_none_or(|b| pct > b.pct) {
            best = Some(Tail {
                pct,
                value,
                beyond,
                samples: sorted.len(),
            });
        }
    }
    best
}

/// Failed operations over attempted ones; 0 when nothing was attempted.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `num / den`, or 0 when the denominator is not positive (a layer that
/// did not run on this workload).
pub fn rate(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a 64-bit digest, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix a slice of integers, little-endian.
    pub fn write_u64s(&mut self, v: impl IntoIterator<Item = u64>) {
        for x in v {
            self.write(&x.to_le_bytes());
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot digest of a string.
pub fn digest_str(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.write(s.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&v, 10.0), (2.0, 18));
        assert_eq!(nearest_rank(&v, 90.0), (18.0, 2));
        assert_eq!(nearest_rank(&v, 0.0), (1.0, 19));
        assert_eq!(nearest_rank(&[1.0, 3.0, 5.0], 90.0), (5.0, 0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let t = tail_percentile(&v, &[50.0, 90.0, 95.0, 99.0]).expect("tail");
        // p99 ranks 198 of 200: only 2 beyond. p95 ranks 190: 10 beyond.
        assert_eq!(t.pct, 95.0);
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 200);

        let v: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let t = tail_percentile(&v, &[50.0, 95.0, 99.0]).expect("tail");
        assert_eq!((t.pct, t.beyond), (99.0, 10));
    }

    #[test]
    fn tail_is_absent_with_too_few_samples() {
        let v: Vec<f64> = (0..15).map(|i| i as f64).collect();
        // p50 ranks 8 of 15: 7 beyond, fewer than ten.
        assert_eq!(tail_percentile(&v, &[50.0, 95.0]), None);
        assert_eq!(tail_percentile(&[], &[50.0]), None);
        let v: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let t = tail_percentile(&v, &[95.0, 50.0]).expect("p50 has 10 beyond");
        assert_eq!((t.pct, t.beyond), (50.0, 10));
    }

    #[test]
    fn failed_frac_counts_against_attempts() {
        assert_eq!(failed_frac(0, 12), 0.0);
        assert_eq!(failed_frac(3, 12), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(digest_str(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_str("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
