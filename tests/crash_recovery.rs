//! Integration: the crash-recovery plane is deterministic and supervised.
//!
//! Whole-job crashes with checkpoint/restart must be invisible to the
//! scheduling substrate: analyses of crashed-and-recovered runs — with and
//! without an additional fault-plan degradation active — are byte-identical
//! between `Driver::Sequential` and `Driver::Parallel` at 1, 2, and 8
//! workers, and so is the full crash-sweep report. A supervised sweep
//! containing a deliberately panicking scenario still completes, returning
//! the healthy results plus a failure manifest.
//!
//! One `#[test]` on purpose: `rt::par::set_threads` is process-global, so
//! the worker-count sweep must not interleave with itself.

use sim_core::SimTime;
use std::path::Path;
use storage_sim::FaultPlan;
use vani_suite::recorder::spill::{load_spill_salvaged, spill_columnar};
use vani_suite::recorder::tracer::Tracer;
use vani_suite::recorder::SpillFaultPlan;
use vani_suite::vani::analyzer::Analysis;
use vani_suite::vani::crashsweep;
use vani_suite::vani::sweep::{Driver, ScenarioSet};
use vani_suite::vani::{figures, tables, yaml};
use vani_suite::workloads as wl;

const CM1_SCALE: f64 = 0.01;
const CF_SCALE: f64 = 0.02;
const SEED: u64 = 9;

/// Two crash-recovering workloads as a scenario fan-out, rendered over
/// the full output surface (attribute table, entity YAML, figure panel):
/// CM1 killed mid-run *while an MDS brownout is active* (crash plus
/// degradation in one plan), and CosmoFlow killed by a node crash with no
/// other faults.
fn crashed_pair(driver: Driver, cm1_at: SimTime, cf_at: SimTime) -> String {
    let mut set = ScenarioSet::new(31);
    set.add("cm1/crash+brownout", move |_| {
        let mut p = wl::cm1::Cm1Params::scaled(CM1_SCALE);
        p.faults = FaultPlan::none()
            .with_mds_brownout(SimTime::ZERO, SimTime::from_secs(1_000_000_000), 4.0)
            .with_rank_crash(1, cm1_at);
        Analysis::from_run(&wl::cm1::run_with(p, CM1_SCALE, SEED))
    });
    set.add("cosmoflow/node-crash", move |_| {
        let mut p = wl::cosmoflow::CosmoflowParams::scaled(CF_SCALE);
        p.faults = FaultPlan::none().with_node_crash(0, cf_at);
        Analysis::from_run(&wl::cosmoflow::run_with(p, CF_SCALE, SEED))
    });
    let analyses = set.run(driver);
    let cols: Vec<&Analysis> = analyses.iter().collect();
    let mut out = tables::table1(&cols).render();
    for a in &cols {
        out.push_str(&yaml::emit(&tables::entities_for(a)));
        out.push_str(&figures::figure(a));
    }
    out
}

/// Analyze the salvaged prefix of a deliberately truncated spill log of a
/// crashed CM1 run, rendered with its completeness annotation.
fn salvaged_analysis(log: &Path, cm1_at: SimTime) -> String {
    let (chunks, tc) = load_spill_salvaged(log).unwrap();
    let salvaged = chunks.to_columnar().unwrap();
    let mut p = wl::cm1::Cm1Params::scaled(CM1_SCALE);
    p.faults = FaultPlan::none().with_rank_crash(1, cm1_at);
    let mut run = wl::cm1::run_with(p, CM1_SCALE, SEED);
    run.world.tracer = Tracer::from_columnar(salvaged);
    let a = Analysis::from_run(&run);
    yaml::emit(&tables::entities_with_completeness(&a, Some(&tc)))
}

#[test]
fn crash_recovery_is_deterministic_and_supervised() {
    // Healthy baselines anchor the crash instants mid-run.
    let cm1_m = wl::cm1::run(CM1_SCALE, SEED).runtime();
    let cf_m = wl::cosmoflow::run(CF_SCALE, SEED).runtime();
    let cm1_at = SimTime::from_nanos(cm1_m.as_nanos() / 2);
    let cf_at = SimTime::from_nanos(cf_m.as_nanos() / 2);

    // Sequential references.
    let pair_ref = crashed_pair(Driver::Sequential, cm1_at, cf_at);
    assert!(
        pair_ref.contains("restart_count"),
        "recovered runs must carry resilience attributes:\n{pair_ref}"
    );
    assert!(pair_ref.contains("time_lost_to_crashes"));
    let sweep_ref = crashsweep::crash_sweep(CF_SCALE, 7, Driver::Sequential).render();
    assert!(sweep_ref.contains("time-to-solution"));

    // A spill log of a crashed run, cut two thirds in and shared by every
    // worker count below: the salvaged-prefix analysis must not depend on
    // the analyzer's parallelism either.
    let dir = std::env::temp_dir().join("vani_crash_recovery");
    std::fs::create_dir_all(&dir).unwrap();
    let crashed_capture = dir.join("cm1.crashed.vsp4");
    {
        let mut p = wl::cm1::Cm1Params::scaled(CM1_SCALE);
        p.faults = FaultPlan::none().with_rank_crash(1, cm1_at);
        let run = wl::cm1::run_with(p, CM1_SCALE, SEED);
        spill_columnar(
            run.world.tracer.columnar(),
            64,
            &crashed_capture,
            SpillFaultPlan::none(),
        )
        .unwrap();
        let bytes = std::fs::read(&crashed_capture).unwrap();
        std::fs::write(&crashed_capture, &bytes[..bytes.len() * 2 / 3]).unwrap();
    }
    let salvage_ref = salvaged_analysis(&crashed_capture, cm1_at);
    assert!(salvage_ref.contains("trace_completeness"), "{salvage_ref}");

    for workers in [1usize, 2, 8] {
        vani_rt::par::set_threads(workers);
        let pair = crashed_pair(Driver::Parallel, cm1_at, cf_at);
        assert_eq!(
            pair, pair_ref,
            "crash-recovery output diverged at {workers} workers"
        );
        let sweep = crashsweep::crash_sweep(CF_SCALE, 7, Driver::Parallel).render();
        assert_eq!(
            sweep, sweep_ref,
            "crash-sweep report diverged at {workers} workers"
        );
        let salvage = salvaged_analysis(&crashed_capture, cm1_at);
        assert_eq!(
            salvage, salvage_ref,
            "salvaged-trace YAML diverged at {workers} workers"
        );
        vani_rt::par::set_threads(0);
    }
    std::fs::remove_file(&crashed_capture).unwrap();

    // A supervised sweep mixing a panicking scenario with a
    // crash-recovering workload completes: the healthy result comes back,
    // the panic becomes a typed failure in the manifest.
    let mut set = ScenarioSet::new(23);
    set.add("boom", |_| -> String {
        panic!("synthetic scenario failure")
    });
    set.add("cm1/crash", move |_| {
        let mut p = wl::cm1::Cm1Params::scaled(CM1_SCALE);
        p.faults = FaultPlan::none().with_rank_crash(0, cm1_at);
        let a = Analysis::from_run(&wl::cm1::run_with(p, CM1_SCALE, SEED));
        yaml::emit(&tables::entities_for(&a))
    });
    let report = set.run_supervised(Driver::Parallel, 2);
    assert_eq!(report.results.len(), 2);
    let err = report.results[0].as_ref().expect_err("boom must fail");
    assert_eq!(err.id, "boom");
    assert_eq!(err.attempts, 2);
    assert!(err.message.contains("synthetic scenario failure"));
    let ok = report.results[1]
        .as_ref()
        .expect("the crashed CM1 run must recover");
    assert!(ok.contains("restart_count"));
    assert!(!report.is_clean());
    let manifest = report.manifest();
    assert!(
        manifest.contains("boom"),
        "manifest must name the failure:\n{manifest}"
    );
}
