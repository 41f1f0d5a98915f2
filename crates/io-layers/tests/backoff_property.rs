//! Seeded property test for the resilience backoff: across many seeds,
//! the jittered exponential waits the middleware actually charges (read
//! back from the `Retry` spans in the trace) must
//!
//! * stay inside the jitter envelope `nominal * [1-j, 1+j]` where
//!   `nominal = base * multiplier^(k-1)` capped at `max_backoff`,
//! * be monotone non-decreasing while the nominal backoff is still
//!   below the cap (the default policy guarantees this:
//!   `multiplier * (1-j) >= 1+j` for `multiplier = 2, j = 0.25`),
//! * never exceed the attempt budget: at most `max_attempts` faults and
//!   `max_attempts - 1` retries per protected operation.
//!
//! Deterministic sweep in the repo's randomized-test idiom: the seeded
//! [`vani_rt::Rng`] replaces proptest, so the exact same cases run on
//! every machine.

use hpc_cluster::topology::RankId;
use io_layers::resilience::with_retries;
use io_layers::world::IoWorld;
use recorder_sim::record::{Layer, OpKind};
use sim_core::SimTime;
use storage_sim::IoErr;

/// Exhaust the full retry budget against an always-transient fault and
/// return the backoff waits actually charged, in order.
fn charged_waits(w: &mut IoWorld) -> Vec<f64> {
    let before = w.tracer.len();
    let (res, _) = with_retries(&mut *w, RankId(0), None, 0, 512, SimTime::ZERO, |_w, _t| {
        Err::<((), SimTime), _>(IoErr::TransientIo)
    });
    assert!(res.is_err(), "an always-failing op must surface its error");
    w.tracer.columnar().to_records()[before..]
        .iter()
        .filter(|r| r.layer == Layer::Middleware && r.op == OpKind::Retry)
        .map(|r| r.end.as_secs_f64() - r.start.as_secs_f64())
        .collect()
}

#[test]
fn backoff_waits_respect_envelope_monotonicity_and_budget() {
    for seed in 0..64u64 {
        let mut w = IoWorld::lassen(1, 1, seed);
        let policy = w.resilience.policy.clone();
        let j = policy.jitter;
        assert!(
            policy.multiplier * (1.0 - j) >= 1.0 + j,
            "default policy must make pre-cap waits monotone"
        );

        let waits = charged_waits(&mut w);
        assert_eq!(
            waits.len(),
            (policy.max_attempts - 1) as usize,
            "seed {seed}: exactly budget-1 retries for an unrecoverable fault"
        );
        // Every attempt failed: one `Fault` record each, and the budget
        // ran out (`charged_waits` checked the surfaced error).
        let faults = w.tracer.columnar().op.iter();
        let faults = faults.filter(|&&op| op == OpKind::Fault).count();
        assert_eq!(faults, policy.max_attempts as usize);

        let base = policy.base_backoff.as_secs_f64();
        let cap = policy.max_backoff.as_secs_f64();
        // SimTime spans quantize to nanoseconds: allow one tick of slack.
        let tick = 1e-9;
        for (k, wait) in waits.iter().enumerate() {
            let nominal = (base * policy.multiplier.powi(k as i32)).min(cap);
            assert!(
                *wait >= nominal * (1.0 - j) - tick && *wait <= nominal * (1.0 + j) + tick,
                "seed {seed}: wait {k} = {wait} outside jitter envelope of {nominal}"
            );
        }
        for k in 1..waits.len() {
            let prev_nominal = base * policy.multiplier.powi(k as i32 - 1);
            if prev_nominal * policy.multiplier <= cap {
                assert!(
                    waits[k] + tick >= waits[k - 1],
                    "seed {seed}: pre-cap waits must be monotone non-decreasing \
                     ({} then {})",
                    waits[k - 1],
                    waits[k]
                );
            }
        }
    }
}

#[test]
fn capped_backoff_stays_inside_the_cap_envelope() {
    // Stretch the budget so the exponential actually reaches the cap:
    // 2ms * 2^(k-1) crosses 250ms at the 9th retry.
    for seed in [3u64, 11, 29] {
        let mut w = IoWorld::lassen(1, 1, seed);
        w.resilience.policy.max_attempts = 12;
        let policy = w.resilience.policy.clone();
        let waits = charged_waits(&mut w);
        assert_eq!(waits.len(), 11);

        let cap = policy.max_backoff.as_secs_f64();
        let j = policy.jitter;
        let capped: Vec<f64> = waits
            .iter()
            .enumerate()
            .filter(|(k, _)| {
                policy.base_backoff.as_secs_f64() * policy.multiplier.powi(*k as i32) >= cap
            })
            .map(|(_, w)| *w)
            .collect();
        assert!(
            !capped.is_empty(),
            "the stretched budget must reach the cap"
        );
        for w in capped {
            assert!(
                w >= cap * (1.0 - j) - 1e-9 && w <= cap * (1.0 + j) + 1e-9,
                "seed {seed}: capped wait {w} escapes the cap envelope"
            );
        }
    }
}

#[test]
fn zero_jitter_reproduces_the_exact_exponential_ladder() {
    let mut w = IoWorld::lassen(1, 1, 7);
    w.resilience.policy.jitter = 0.0;
    let waits = charged_waits(&mut w);
    let expected: Vec<f64> = (0..waits.len())
        .map(|k| (0.002 * 2f64.powi(k as i32)).min(0.25))
        .collect();
    for (got, want) in waits.iter().zip(&expected) {
        assert!(
            (got - want).abs() < 1e-9,
            "exact ladder without jitter: {got} vs {want}"
        );
    }
}
