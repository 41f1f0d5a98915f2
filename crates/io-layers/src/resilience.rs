//! Retry/backoff middleware: the resilience interceptor every interface
//! layer's storage calls route through.
//!
//! Real HPC middleware (MPI-IO hints, GPFS client recovery, HDF5 retry
//! plumbing) absorbs transient storage failures by retrying with backoff;
//! permanent errors surface to the application as typed errors. This module
//! reproduces that contract inside simulated time: a transient fault costs
//! a detection latency, then an exponential backoff (with deterministic
//! jitter drawn from a dedicated splittable [`vani_rt::Rng`] stream), then
//! a re-attempt — up to the policy's attempt budget. Every failed attempt
//! and every backoff wait is captured in the trace as `Middleware`-layer
//! [`OpKind::Fault`] / [`OpKind::Retry`] records, so the analyzer can
//! compute error rate, retry amplification, and time lost to faults.
//!
//! When no fault plan is active the interceptor never observes an error,
//! never draws from its RNG, and adds zero simulated time — faultless runs
//! stay bit-identical to a build without the middleware.

use crate::world::IoWorld;
use hpc_cluster::topology::RankId;
use recorder_sim::record::{FileId, Layer, OpKind};
use sim_core::{Dur, SimTime};
use storage_sim::IoErr;

/// Tunable retry/backoff policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). 1 disables
    /// retrying: transient faults surface immediately.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Dur,
    /// Multiplier applied to the backoff after each failed retry.
    pub multiplier: f64,
    /// Ceiling on a single backoff wait.
    pub max_backoff: Dur,
    /// Jitter amplitude as a fraction of the backoff (0 = none): each wait
    /// is scaled by a factor drawn uniformly from `[1-jitter, 1+jitter]`.
    pub jitter: f64,
    /// Simulated latency of *detecting* one failed attempt (the timeout or
    /// error round-trip before the middleware reacts).
    pub fault_latency: Dur,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Dur::from_millis(2),
            multiplier: 2.0,
            max_backoff: Dur::from_millis(250),
            jitter: 0.25,
            fault_latency: Dur::from_millis(1),
        }
    }
}

/// Counters the interceptor accumulates across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceStats {
    /// Failed attempts observed (each produced a `Fault` trace record).
    pub faults: u64,
    /// Re-attempts issued after backoff.
    pub retries: u64,
    /// Payload bytes re-submitted by retries.
    pub retried_bytes: u64,
    /// Operations whose attempt budget was exhausted (the transient error
    /// surfaced to the caller as a typed `IoErr`).
    pub exhausted: u64,
}

/// The per-world resilience interceptor state.
#[derive(Debug)]
pub struct Resilience {
    /// Active policy.
    pub policy: RetryPolicy,
    /// Accumulated counters.
    pub stats: ResilienceStats,
    /// Jitter stream — only advanced when a fault is actually absorbed.
    rng: vani_rt::Rng,
}

impl Resilience {
    /// Build the interceptor with its own seeded jitter stream.
    pub(crate) fn new(seed: u64) -> Self {
        Resilience {
            policy: RetryPolicy::default(),
            stats: ResilienceStats::default(),
            // Domain-separate from every other consumer of the run seed.
            rng: vani_rt::Rng::new(seed ^ 0x7265_7472_795f_6a69), // "retry_ji"
        }
    }

    /// The backoff before retry number `retry` (1-based), jittered.
    fn backoff(&mut self, retry: u32) -> Dur {
        let base = self.policy.base_backoff.as_secs_f64()
            * self.policy.multiplier.powi(retry.saturating_sub(1) as i32);
        let capped = base.min(self.policy.max_backoff.as_secs_f64());
        let j = self.policy.jitter.clamp(0.0, 1.0);
        let scale = if j > 0.0 {
            self.rng.uniform_f64(1.0 - j, 1.0 + j)
        } else {
            1.0
        };
        Dur::from_secs_f64(capped * scale)
    }
}

/// Run `attempt` under the world's retry policy. The closure performs one
/// storage attempt starting at the given instant and returns the value and
/// completion time, or a typed error. Transient errors are absorbed: the
/// middleware charges the detection latency, records a `Fault` span, waits
/// out a jittered exponential backoff recorded as a `Retry` span, and
/// re-attempts — until the policy's attempt budget runs out. Returns the
/// final result plus the instant the whole protected operation settled
/// (success end, or the moment the middleware gave up). Permanent errors
/// pass through untouched on the attempt that raised them.
pub fn with_retries<T>(
    w: &mut IoWorld,
    rank: RankId,
    file: Option<FileId>,
    offset: u64,
    bytes: u64,
    now: SimTime,
    mut attempt: impl FnMut(&mut IoWorld, SimTime) -> Result<(T, SimTime), IoErr>,
) -> (Result<T, IoErr>, SimTime) {
    let mut t = now;
    let mut attempts = 0u32;
    loop {
        match attempt(w, t) {
            Ok((value, end)) => return (Ok(value), end),
            Err(e) if e.is_transient() => {
                attempts += 1;
                w.resilience.stats.faults += 1;
                let detect = t + w.resilience.policy.fault_latency;
                let detect = w.trace_io(
                    rank,
                    Layer::Middleware,
                    OpKind::Fault,
                    t,
                    detect,
                    file,
                    offset,
                    bytes,
                );
                if attempts >= w.resilience.policy.max_attempts {
                    w.resilience.stats.exhausted += 1;
                    return (Err(e), detect);
                }
                let wait = w.resilience.backoff(attempts);
                let resume = detect + wait;
                let resume = w.trace_io(
                    rank,
                    Layer::Middleware,
                    OpKind::Retry,
                    detect,
                    resume,
                    file,
                    offset,
                    bytes,
                );
                w.resilience.stats.retries += 1;
                w.resilience.stats.retried_bytes += bytes;
                t = resume;
            }
            Err(e) => return (Err(e), t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn world() -> IoWorld {
        IoWorld::lassen(1, 1, Dur::from_secs(60), 9)
    }

    #[test]
    fn success_path_adds_no_time_and_no_records() {
        let mut w = world();
        let before = w.tracer.len();
        let (res, end) = with_retries(&mut w, RankId(0), None, 0, 0, SimTime::ZERO, |_w, t| {
            Ok(((), t + Dur::from_micros(5)))
        });
        res.unwrap();
        assert_eq!(end, SimTime::ZERO + Dur::from_micros(5));
        assert_eq!(w.tracer.len(), before);
    }

    #[test]
    fn transient_fault_is_absorbed_with_fault_and_retry_records() {
        let mut w = world();
        let failures = Cell::new(2u32);
        let (res, end) = with_retries(&mut w, RankId(0), None, 0, 4096, SimTime::ZERO, |_w, t| {
            if failures.get() > 0 {
                failures.set(failures.get() - 1);
                Err(IoErr::TransientIo)
            } else {
                Ok((7u64, t + Dur::from_micros(5)))
            }
        });
        assert_eq!(res.unwrap(), 7);
        assert!(
            end > SimTime::ZERO + Dur::from_millis(2),
            "backoff must cost time"
        );
        assert_eq!(w.resilience.stats.faults, 2);
        assert_eq!(w.resilience.stats.retries, 2);
        assert_eq!(w.resilience.stats.retried_bytes, 2 * 4096);
        let ops: Vec<OpKind> = w.tracer.columnar().op.clone();
        assert_eq!(
            ops,
            vec![OpKind::Fault, OpKind::Retry, OpKind::Fault, OpKind::Retry]
        );
        assert!(w
            .tracer
            .columnar()
            .to_records()
            .iter()
            .all(|r| r.layer == Layer::Middleware));
    }

    #[test]
    fn budget_exhaustion_surfaces_typed_error() {
        let mut w = world();
        w.resilience.policy.max_attempts = 3;
        let (res, _) = with_retries(&mut w, RankId(0), None, 0, 64, SimTime::ZERO, |_w, _t| {
            Err::<((), SimTime), _>(IoErr::ServerUnavailable)
        });
        assert_eq!(res.unwrap_err(), IoErr::ServerUnavailable);
        assert_eq!(w.resilience.stats.faults, 3);
        assert_eq!(w.resilience.stats.retries, 2);
        assert_eq!(w.resilience.stats.exhausted, 1);
    }

    #[test]
    fn permanent_errors_pass_through_without_retry() {
        let mut w = world();
        let before = w.tracer.len();
        let (res, end) = with_retries(&mut w, RankId(0), None, 0, 64, SimTime::ZERO, |_w, _t| {
            Err::<((), SimTime), _>(IoErr::NoSpace)
        });
        assert_eq!(res.unwrap_err(), IoErr::NoSpace);
        assert_eq!(end, SimTime::ZERO);
        assert_eq!(w.tracer.len(), before);
        assert_eq!(w.resilience.stats.faults, 0);
    }

    #[test]
    fn backoff_grows_and_respects_the_cap() {
        let mut w = world();
        w.resilience.policy.jitter = 0.0;
        let b1 = w.resilience.backoff(1);
        let b2 = w.resilience.backoff(2);
        let b3 = w.resilience.backoff(3);
        assert_eq!(b1, Dur::from_millis(2));
        assert_eq!(b2, Dur::from_millis(4));
        assert_eq!(b3, Dur::from_millis(8));
        let b_cap = w.resilience.backoff(30);
        assert_eq!(b_cap, Dur::from_millis(250));
    }

    #[test]
    fn retry_timing_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut w = IoWorld::lassen(1, 1, Dur::from_secs(60), seed);
            let failures = Cell::new(3u32);
            let (_, end) = with_retries(&mut w, RankId(0), None, 0, 512, SimTime::ZERO, |_w, t| {
                if failures.get() > 0 {
                    failures.set(failures.get() - 1);
                    Err(IoErr::TransientIo)
                } else {
                    Ok(((), t))
                }
            });
            end
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "jitter must depend on the seed");
    }
}
