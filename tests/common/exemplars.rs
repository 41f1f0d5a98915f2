//! The paper's exemplars at fast test scales, each launched through
//! `WorkloadKind::run` under one storage fault plan.

use vani_suite::sim::SimTime;
use vani_suite::storage::{FaultPlan, InterferenceSchedule};
use vani_suite::workloads::{WorkloadKind, WorkloadRun};

/// The scale `kind` runs at in the suites: CosmoFlow's sample corpus is
/// the largest, so it runs ten times smaller than the rest.
fn test_scale(kind: WorkloadKind) -> f64 {
    if kind == WorkloadKind::Cosmoflow {
        0.001
    } else {
        0.01
    }
}

/// A fault plan that exercises every mechanism at once: a server outage,
/// both brownout kinds, a straggler node and seeded transient errors, all
/// mild enough that the retry middleware absorbs everything. The
/// resilience counters then become part of whatever a suite compares.
pub fn stress_plan() -> FaultPlan {
    let end = SimTime::from_secs(1_000_000);
    FaultPlan::none()
        .with_nsd_outage(0, SimTime::from_secs(1), end)
        .with_mds_brownout(SimTime::ZERO, end, 3.0)
        .with_nsd_brownout(SimTime::from_secs(2), end, 1.5)
        .with_straggler(0, 1.2)
        .with_error_rates(0.03, 0.01)
}

/// Every kind in `kinds`, in order, at its test scale and `seed` under
/// `plan`, named by its id (followed by `+faults` under an active plan).
pub fn exemplars(
    kinds: &[WorkloadKind],
    seed: u64,
    plan: &FaultPlan,
) -> Vec<(String, WorkloadRun)> {
    let suffix = if *plan == FaultPlan::none() {
        ""
    } else {
        "+faults"
    };
    kinds
        .iter()
        .map(|k| {
            let scale = test_scale(*k);
            let run = k.run(scale, seed, plan.clone(), InterferenceSchedule::none());
            (format!("{}{suffix}", k.id()), run)
        })
        .collect()
}

/// The seven exemplars (six applications plus the IOR calibrator) at
/// seed 5, clean, then the seven again under [`stress_plan`].
pub fn clean_and_stressed_seven() -> Vec<(String, WorkloadRun)> {
    let mut runs = exemplars(&WorkloadKind::ALL, 5, &FaultPlan::none());
    runs.extend(exemplars(&WorkloadKind::ALL, 5, &stress_plan()));
    runs
}
