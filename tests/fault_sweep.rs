//! Integration: the deterministic fault plane, end to end.
//!
//! Exercises the `repro -- fault-sweep` report through the public API and
//! pins the paper-level claims: metadata-bound workloads are far more
//! brownout-sensitive than data-bound ones, a dead NSD server costs about
//! its capacity share plus contention, and the Figure 7 preload-to-shm
//! reconfiguration doubles as fault isolation.

use std::sync::OnceLock;
use vani_suite::sim::SimTime;
use vani_suite::storage::{FaultPlan, InterferenceSchedule};
use vani_suite::vani::analyzer::Analysis;
use vani_suite::vani::sweep::{fault_sweep, Driver, FaultSweepReport};
use vani_suite::vani::{tables, yaml};
use vani_suite::workloads as wl;
use vani_suite::workloads::WorkloadKind::{Cm1, Cosmoflow, MontageMpi};

/// The `repro -- fault-sweep` report at scale 0.02 and a 20x MDS brownout,
/// computed once per seed and shared by the tests that read it.
fn report(seed: u64) -> &'static FaultSweepReport {
    static SEED_7: OnceLock<FaultSweepReport> = OnceLock::new();
    static SEED_11: OnceLock<FaultSweepReport> = OnceLock::new();
    let cell = match seed {
        7 => &SEED_7,
        11 => &SEED_11,
        _ => unreachable!("no report cell for seed {seed}"),
    };
    cell.get_or_init(|| fault_sweep(0.02, seed, 20.0, Driver::Parallel))
}

#[test]
fn mds_brownout_hits_cosmoflow_at_least_twice_as_hard_as_hacc() {
    let (cosmo, hacc) = &report(7).brownout;
    assert!(
        cosmo.degradation() > 1.5,
        "the brownout must visibly slow CosmoFlow: {:.2}x",
        cosmo.degradation()
    );
    assert!(
        cosmo.degradation() >= 2.0 * hacc.degradation(),
        "metadata-bound CosmoFlow ({:.2}x) must degrade >= 2x more than data-bound HACC ({:.2}x)",
        cosmo.degradation(),
        hacc.degradation()
    );
}

#[test]
fn single_nsd_outage_costs_about_the_server_share() {
    let b = &report(11).outage;
    assert!(b.degradation() >= b.server_share() * 0.5);
    assert!(b.degradation() <= (b.server_share() * 3.0).min(0.95));
}

#[test]
fn preload_to_shm_is_a_fault_shield() {
    let s = &report(7).shield;
    assert!(
        s.baseline.degradation() > 1.5,
        "baseline: {:.2}x",
        s.baseline.degradation()
    );
    assert!(
        s.preloaded.degradation() < 1.0 + 0.5 * (s.baseline.degradation() - 1.0),
        "preload ({:.2}x) must shield at least half of the baseline's slowdown ({:.2}x)",
        s.preloaded.degradation(),
        s.baseline.degradation()
    );
    assert!(s.shielding() > 0.5);
    assert!(
        s.baseline.faults > 0,
        "the 2% error rate must trigger retries"
    );
}

/// Every fault kind at once on a representative workload mix: nothing may
/// panic, every run completes, and the analyzer surfaces the resilience
/// attributes in the entity emission.
#[test]
fn injected_faults_never_panic_and_surface_as_attributes() {
    let end = SimTime::from_secs(1_000_000);
    let plan = FaultPlan::none()
        .with_nsd_outage(1, SimTime::ZERO, end)
        .with_mds_brownout(SimTime::ZERO, end, 4.0)
        .with_nsd_brownout(SimTime::ZERO, end, 2.0)
        .with_straggler(0, 1.3)
        .with_error_rates(0.05, 0.02);

    let mut any_rerouted = false;
    for (kind, scale) in [(Cm1, 0.01), (Cosmoflow, 0.002), (MontageMpi, 0.01)] {
        let run = kind.run(scale, 13, plan.clone(), InterferenceSchedule::none());
        let a = Analysis::from_run(&run);
        assert!(
            a.profile.fault_events > 0,
            "{}: the 5% error rate must fire",
            run.kind.name()
        );
        assert_eq!(
            a.profile.fault_events,
            a.profile.retry_events,
            "{}: every absorbed fault is followed by exactly one retry",
            run.kind.name()
        );
        assert!(
            a.profile.retried_bytes > 0,
            "{}: retried data ops re-submit their payload",
            run.kind.name()
        );
        assert!(a.profile.fault_time.as_secs_f64() > 0.0);
        assert!(a.profile.error_rate() > 0.0 && a.profile.error_rate() < 1.0);
        assert!(a.profile.retry_amplification() > 0.0);
        // A faulted run's YAML carries the resilience attributes ...
        let y = yaml::emit(&tables::entities_for(&a));
        assert!(
            y.contains("error_rate"),
            "{}: YAML must carry error_rate",
            run.kind.name()
        );
        assert!(y.contains("retry_amplification"));
        assert!(y.contains("time_lost_to_faults"));
        // ... and, when the dead server's stripes were actually touched
        // (small cached writes may never reach it), names the rerouted
        // bytes per server.
        if a.rerouted_by_server.iter().sum::<u64>() > 0 {
            any_rerouted = true;
            assert!(y.contains("nsd_outage_impact"));
        }
    }
    assert!(
        any_rerouted,
        "at least one workload must hit the dead server's stripes"
    );

    // A fault-free run emits none of this: the attributes are strictly
    // additive and golden outputs stay byte-identical.
    let clean = Analysis::from_run(&wl::cm1::run(0.01, 13));
    let y = yaml::emit(&tables::entities_for(&clean));
    assert!(!y.contains("error_rate"));
    assert!(!y.contains("nsd_outage_impact"));
}

/// Same plan, same seed: the whole faulted stack is deterministic.
#[test]
fn faulted_runs_are_deterministic() {
    let end = SimTime::from_secs(1_000_000);
    let plan = FaultPlan::none()
        .with_nsd_brownout(SimTime::ZERO, end, 2.0)
        .with_error_rates(0.05, 0.02);
    let run = |seed: u64| {
        let r = Cm1.run(0.01, seed, plan.clone(), InterferenceSchedule::none());
        (r.runtime(), Analysis::from_run(&r))
    };
    let (t1, a1) = run(21);
    let (t2, a2) = run(21);
    assert_eq!(t1, t2, "same seed, same plan: identical makespan");
    assert_eq!(a1, a2, "same seed, same plan: identical analysis");
    let (t3, a3) = run(22);
    assert!(
        t3 != t1 || a3 != a1,
        "a different seed should perturb the faulted run"
    );
}
