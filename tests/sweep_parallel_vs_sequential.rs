//! Integration: the scenario-parallel driver is invisible in the output.
//!
//! Everything the repro harness renders — paper-six attribute tables,
//! entity YAML, the fault-sweep report — must be byte-identical between
//! `Driver::Sequential` and `Driver::Parallel` at 1, 2, and 8 workers,
//! with and without an active `FaultPlan`. Figures 7 and 8, which always
//! fan out in parallel, must render the same at 2 and 8 workers as at 1.
//!
//! One `#[test]` on purpose: `rt::par::set_threads` is process-global, so
//! the worker-count sweep must not interleave with itself.

use sim_core::SimTime;
use storage_sim::{FaultPlan, InterferenceSchedule};
use vani_suite::vani::analyzer::Analysis;
use vani_suite::vani::sweep::{self, Driver};
use vani_suite::vani::{reconfig, tables, yaml};
use vani_suite::workloads::WorkloadKind::{Cm1, Cosmoflow};

const SCALE: f64 = 0.01;
const FAULT_SCALE: f64 = 0.02;
const SEED: u64 = 5;

/// Tables + per-run entity YAML: the full rendered surface of a paper-six
/// fan-out.
fn render_six(analyses: &[Analysis]) -> String {
    let cols: Vec<&Analysis> = analyses.iter().collect();
    let mut out = String::new();
    out.push_str(&tables::table1(&cols).render());
    out.push_str(&tables::table3(&cols).render());
    out.push_str(&tables::table6(&cols).render());
    for a in &cols {
        out.push_str(&yaml::emit(&tables::entities_for(a)));
    }
    out
}

/// A faulted pair of workloads as a custom fan-out: covers the "active
/// FaultPlan" half outside the built-in fault sweep.
fn faulted_pair(driver: Driver) -> String {
    let plan = FaultPlan::none()
        .with_mds_brownout(SimTime::ZERO, SimTime::from_secs(1_000_000_000), 8.0)
        .with_error_rates(0.01, 0.0);
    driver
        .map(
            vec![(Cm1, SCALE), (Cosmoflow, FAULT_SCALE)],
            |(kind, scale)| {
                Analysis::from_run(&kind.run(
                    scale,
                    SEED,
                    plan.clone(),
                    InterferenceSchedule::none(),
                ))
            },
        )
        .iter()
        .map(|a| yaml::emit(&tables::entities_for(a)))
        .collect()
}

#[test]
fn parallel_driver_is_byte_identical_to_sequential() {
    // Sequential references.
    let six_ref = render_six(&sweep::paper_six(SCALE, SEED, Driver::Sequential));
    let sweep_ref = sweep::fault_sweep(FAULT_SCALE, 7, 20.0, Driver::Sequential).render();
    let faulted_ref = faulted_pair(Driver::Sequential);
    assert!(six_ref.contains("CM1"), "tables must render something");
    assert!(sweep_ref.contains("MDS brownout"));
    assert!(faulted_ref.contains("osmoflow"));

    // Figures 7 and 8 have no sequential driver: the 1-worker render is
    // the reference.
    let figures = || {
        reconfig::render_sweep("Figure 7", &reconfig::figure7(0.01, &[2, 4, 8], 7))
            + &reconfig::render_sweep("Figure 8", &reconfig::figure8(0.02, &[2, 4, 8], 7))
    };
    vani_rt::par::set_threads(1);
    let figures_ref = figures();
    assert!(figures_ref.contains("Figure 8"));

    for workers in [1usize, 2, 8] {
        vani_rt::par::set_threads(workers);
        let six = render_six(&sweep::paper_six(SCALE, SEED, Driver::Parallel));
        assert_eq!(
            six, six_ref,
            "paper-six output diverged at {workers} workers"
        );
        let fsw = sweep::fault_sweep(FAULT_SCALE, 7, 20.0, Driver::Parallel).render();
        assert_eq!(
            fsw, sweep_ref,
            "fault-sweep report diverged at {workers} workers"
        );
        let faulted = faulted_pair(Driver::Parallel);
        assert_eq!(
            faulted, faulted_ref,
            "faulted-pair YAML diverged at {workers} workers"
        );
        if workers > 1 {
            assert_eq!(
                figures(),
                figures_ref,
                "Figure 7/8 render diverged at {workers} workers"
            );
        }
        vani_rt::par::set_threads(0);
    }
}
