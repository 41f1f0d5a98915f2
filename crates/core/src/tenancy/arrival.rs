//! The fleet's seeded arrival process.
//!
//! Jobs arrive as an open Poisson stream: an external population submits
//! at exponentially distributed inter-arrival gaps, and the stream never
//! reacts to the cluster's state, so every submit time is known when the
//! manifest is drawn.
//!
//! All randomness comes from the caller's [`Rng`] stream, drawn in job-id
//! order at manifest-build time, so the same fleet seed always produces
//! the same submission schedule regardless of worker count.

use vani_rt::Rng;

/// How jobs enter the fleet: an open Poisson stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    /// Mean gap between submissions, seconds.
    pub mean_interarrival: f64,
}

impl ArrivalProcess {
    /// Draw one exponential inter-arrival gap, in seconds (0 when the mean
    /// is not a positive finite number).
    pub(crate) fn gap(&self, rng: &mut Rng) -> f64 {
        let mean = self.mean_interarrival;
        if !mean.is_finite() || mean <= 0.0 {
            return 0.0;
        }
        rng.exponential(1.0 / mean)
    }

    /// One-line description for report headers.
    pub(crate) fn describe(&self) -> String {
        format!("open/exponential mean {:.3}s", self.mean_interarrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cumulative submit times of `n` jobs, drawn in job order. The first
    /// job submits after one gap (a stream, not a batch at t=0).
    fn open_submit_times(n: usize, mean: f64, rng: &mut Rng) -> Vec<f64> {
        let p = ArrivalProcess {
            mean_interarrival: mean,
        };
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                t += p.gap(rng);
                t
            })
            .collect()
    }

    #[test]
    fn open_submit_times_are_monotone_and_seeded() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let ta = open_submit_times(64, 2.0, &mut a);
        let tb = open_submit_times(64, 2.0, &mut b);
        assert_eq!(ta, tb, "same seed must give the same stream");
        for w in ta.windows(2) {
            assert!(w[1] >= w[0], "submit times must be non-decreasing");
        }
        let mut c = Rng::new(8);
        let tc = open_submit_times(64, 2.0, &mut c);
        assert_ne!(ta, tc, "different seeds should differ");
    }

    #[test]
    fn exponential_stream_matches_its_mean() {
        let mut rng = Rng::new(11);
        let ts = open_submit_times(4000, 3.0, &mut rng);
        let mean_gap = ts.last().unwrap() / ts.len() as f64;
        assert!((mean_gap - 3.0).abs() < 0.2, "mean gap {mean_gap}");
    }

    #[test]
    fn degenerate_mean_collapses_to_zero_gaps() {
        let mut rng = Rng::new(1);
        let ts = open_submit_times(4, 0.0, &mut rng);
        assert_eq!(ts, vec![0.0; 4]);
    }
}
