//! Seeded arrival processes for the fleet's job stream.
//!
//! Two classical regimes:
//!
//! * **Open**: jobs arrive from an external population at seeded random
//!   inter-arrival times (exponential for a Poisson stream, lognormal for
//!   the heavier-tailed submission gaps real schedulers see). The arrival
//!   stream never reacts to the cluster's state.
//! * **Closed**: a fixed population of `concurrency` users each submit a
//!   job, wait for it to finish, think for a fixed time, and submit the
//!   next one — arrival times are *derived* by the scheduler from job
//!   completions, so this module only carries the parameters.
//!
//! All randomness comes from the caller's [`Rng`] stream, drawn in job-id
//! order at manifest-build time, so the same fleet seed always produces
//! the same submission schedule regardless of worker count.

use vani_rt::Rng;

/// Inter-arrival distribution of the open arrival process.
#[derive(Debug, Clone, PartialEq)]
pub enum InterArrival {
    /// Exponential gaps: a Poisson arrival stream.
    Exponential,
    /// Lognormal gaps with the given shape `sigma`; `mu` is chosen so the
    /// distribution keeps the configured mean (`mu = ln(mean) - sigma²/2`).
    Lognormal {
        /// Shape parameter of the underlying normal.
        sigma: f64,
    },
}

impl InterArrival {
    /// Draw one inter-arrival gap with the given mean, in seconds.
    pub(crate) fn sample(&self, mean: f64, rng: &mut Rng) -> f64 {
        if !mean.is_finite() || mean <= 0.0 {
            return 0.0;
        }
        match self {
            InterArrival::Exponential => rng.exponential(1.0 / mean),
            InterArrival::Lognormal { sigma } => {
                let mu = mean.ln() - sigma * sigma / 2.0;
                rng.lognormal(mu, *sigma)
            }
        }
    }

    /// Stable name for manifests and reports.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            InterArrival::Exponential => "exponential",
            InterArrival::Lognormal { .. } => "lognormal",
        }
    }
}

/// How jobs enter the fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop stream: seeded random inter-arrival gaps.
    Open {
        /// Mean gap between submissions, seconds.
        mean_interarrival: f64,
        /// Gap distribution.
        dist: InterArrival,
    },
    /// Closed loop: `concurrency` jobs in flight; each completion (plus a
    /// fixed think time) admits the next job.
    Closed {
        /// Jobs in flight at any instant.
        concurrency: usize,
        /// Seconds between a completion and the next submission.
        think_time: f64,
    },
}

impl ArrivalProcess {
    /// One-line description for report headers.
    pub(crate) fn describe(&self) -> String {
        match self {
            ArrivalProcess::Open {
                mean_interarrival,
                dist,
            } => {
                format!("open/{} mean {mean_interarrival:.3}s", dist.name())
            }
            ArrivalProcess::Closed {
                concurrency,
                think_time,
            } => {
                format!("closed/{concurrency} think {think_time:.3}s")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cumulative submit times of `n` open-process jobs, drawn in job order.
    /// The first job submits after one gap (a stream, not a batch at t=0).
    fn open_submit_times(n: usize, mean: f64, dist: &InterArrival, rng: &mut Rng) -> Vec<f64> {
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                t += dist.sample(mean, rng);
                t
            })
            .collect()
    }

    #[test]
    fn open_submit_times_are_monotone_and_seeded() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let ta = open_submit_times(64, 2.0, &InterArrival::Exponential, &mut a);
        let tb = open_submit_times(64, 2.0, &InterArrival::Exponential, &mut b);
        assert_eq!(ta, tb, "same seed must give the same stream");
        for w in ta.windows(2) {
            assert!(w[1] >= w[0], "submit times must be non-decreasing");
        }
        let mut c = Rng::new(8);
        let tc = open_submit_times(64, 2.0, &InterArrival::Exponential, &mut c);
        assert_ne!(ta, tc, "different seeds should differ");
    }

    #[test]
    fn exponential_stream_matches_its_mean() {
        let mut rng = Rng::new(11);
        let ts = open_submit_times(4000, 3.0, &InterArrival::Exponential, &mut rng);
        let mean_gap = ts.last().unwrap() / ts.len() as f64;
        assert!((mean_gap - 3.0).abs() < 0.2, "mean gap {mean_gap}");
    }

    #[test]
    fn lognormal_is_mean_preserving() {
        let mut rng = Rng::new(13);
        let dist = InterArrival::Lognormal { sigma: 0.8 };
        let ts = open_submit_times(6000, 5.0, &dist, &mut rng);
        let mean_gap = ts.last().unwrap() / ts.len() as f64;
        assert!((mean_gap - 5.0).abs() < 0.4, "mean gap {mean_gap}");
    }

    #[test]
    fn degenerate_mean_collapses_to_zero_gaps() {
        let mut rng = Rng::new(1);
        let ts = open_submit_times(4, 0.0, &InterArrival::Exponential, &mut rng);
        assert_eq!(ts, vec![0.0; 4]);
    }
}
