//! Integration: fleet-level failure domains (ISSUE 8 acceptance suite).
//!
//! * With an **active** `NodeFaultPlan`, the fully rendered fleet report
//!   and its JSON form are byte-identical between the sequential driver
//!   and the parallel driver at 1, 2, and 8 workers.
//! * With an **empty** plan, the report render and JSON are bit-identical
//!   to the pre-failure-domain fleet sweep, pinned by FNV-1a digests
//!   captured on the commit before this change landed. The degraded
//!   renders of the one-kill and abandon fleets are pinned the same way,
//!   captured before closed arrivals and backfill left the scheduler.
//! * A job killed by a node outage completes after requeue with its lost
//!   work accounted in the degraded-mode fleet statistics, and a job that
//!   exhausts its retry budget is abandoned and charged but never
//!   simulated.
//!
//! One worker-sweep `#[test]` on purpose: `rt::par::set_threads` is
//! process-global, so the sweep must not interleave with itself. The
//! other tests stay on the sequential driver.

use vani_suite::vani::sweep::Driver;
use vani_suite::vani::tenancy::{
    fleet_sweep, FleetConfig, JobOutcome, JobTemplate, JobVariant, NodeFaultPlan, NodeFaultSpec,
};

const SCALE: f64 = 0.02;
const SEED: u64 = 11;

/// The exact config the pre-change pin digests were captured with: the
/// heterogeneous mix of tests/fleet_sweep.rs including faulted and
/// crashy tenants, 8 jobs on a 4-node cluster.
fn pinned_cfg() -> FleetConfig {
    let mut cfg = FleetConfig::standard(8, SCALE, SEED);
    cfg.mix = vec![
        JobTemplate::new("cm1", JobVariant::Baseline, 3),
        JobTemplate::new("hacc", JobVariant::Baseline, 2),
        JobTemplate::new("ior", JobVariant::Baseline, 2),
        JobTemplate::new("hacc", JobVariant::Faulted, 2),
        JobTemplate::new("cm1", JobVariant::Crashy, 1),
    ];
    cfg
}

/// Same fleet with a hand-placed outage that lands on the long crashy
/// job (job 5, node 0, healthy span 21.765 s .. 55.287 s): killed at
/// t = 30 s, node repaired at t = 35 s, requeued with the 30 s base
/// backoff and restarted at t = 60 s.
fn one_kill_cfg() -> FleetConfig {
    let mut cfg = pinned_cfg();
    cfg.node_faults = NodeFaultSpec::Plan(NodeFaultPlan::none().with_outage(0, 30.0, 5.0));
    cfg
}

/// Outages timed to kill job 5's every attempt: restarts land at
/// kill + backoff (30, 60, 120 s doubling), so four kills exhaust the
/// default budget of 3 retries and abandon the job.
fn abandon_cfg() -> FleetConfig {
    let mut cfg = pinned_cfg();
    cfg.node_faults = NodeFaultSpec::Plan(
        NodeFaultPlan::none()
            .with_outage(0, 30.0, 5.0)
            .with_outage(0, 70.0, 5.0)
            .with_outage(0, 140.0, 5.0)
            .with_outage(0, 270.0, 5.0),
    );
    cfg
}

/// Same FNV-1a 64 as the report digests; local copy because the pin was
/// captured with exactly this fold.
fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Pre-change digest of `report.render()` for [`pinned_cfg`], captured at
/// commit f79efd7 (the last commit before the failure-domain change). An
/// empty fault plan must not move a byte.
const PIN_RENDER: u64 = 0x7d46_6fab_99ff_b9f5;

/// Digests of `report.render()` for [`one_kill_cfg`] and [`abandon_cfg`],
/// captured at commit c9bfa72 (the last commit with closed arrivals,
/// lognormal gaps and backfill in the scheduler). Removing them must not
/// move a byte of the degraded tables.
const PIN_ONE_KILL_RENDER: u64 = 0x39d2_67a6_e465_69fa;
const PIN_ABANDON_RENDER: u64 = 0x3ac5_5ab7_6cc5_4eb0;

#[test]
fn empty_plan_fleet_output_is_bit_identical_to_pre_change() {
    let cfg = pinned_cfg();
    assert_eq!(cfg.node_faults, NodeFaultSpec::None);
    let report = fleet_sweep(&cfg, Driver::Sequential).expect("valid config");
    assert!(!report.is_degraded());
    let render = report.render();
    assert!(
        !render.contains("Node outage timeline"),
        "healthy fleets must not grow degraded tables"
    );
    assert_eq!(
        fnv1a64(&render),
        PIN_RENDER,
        "empty-plan fleet render diverged from the pre-change output"
    );
}

#[test]
fn active_plan_report_is_byte_identical_at_any_worker_count() {
    let cfg = one_kill_cfg();
    let reference = fleet_sweep(&cfg, Driver::Sequential).expect("valid config");
    let render_ref = reference.render();
    assert!(render_ref.contains("Node outage timeline"));

    for workers in [1usize, 2, 8] {
        vani_suite::rt::par::set_threads(workers);
        let report = fleet_sweep(&cfg, Driver::Parallel).expect("valid config");
        assert_eq!(
            report.manifest.render(),
            reference.manifest.render(),
            "manifest diverged at {workers} workers"
        );
        assert_eq!(
            report.render(),
            render_ref,
            "degraded fleet report diverged at {workers} workers"
        );
        vani_suite::rt::par::set_threads(0);
    }
}

#[test]
fn killed_job_completes_after_requeue_with_lost_work_accounted() {
    let report = fleet_sweep(&one_kill_cfg(), Driver::Sequential).expect("valid config");
    assert!(report.is_degraded());

    // The schedule records the kill and the successful second attempt.
    let sched = &report.schedules[5];
    assert_eq!(sched.attempts.len(), 2, "one killed attempt plus the retry");
    assert_eq!(
        sched.attempts[0].killed_by,
        Some(0),
        "killed by the node-0 outage"
    );
    assert_eq!(sched.outcome, JobOutcome::CompletedAfterRetry(1));
    assert!(
        sched.attempts[1].start > sched.attempts[0].end,
        "the retry starts after the backoff, not at the kill instant"
    );

    // The simulated record carries the retry story and the charge.
    let rec = report
        .records
        .iter()
        .find(|r| r.job_id == 5)
        .expect("job 5 simulated");
    assert_eq!(rec.outcome, JobOutcome::CompletedAfterRetry(1));
    assert_eq!(rec.retries, 1);
    assert!(
        rec.lost_work_node_secs > 0.0,
        "the killed attempt's node-seconds are charged as lost work"
    );
    let (clean, retried, abandoned) = report.outcome_counts();
    assert_eq!((clean, retried, abandoned), (7, 1, 0));

    // Fleet-level degraded accounting: some work was lost, so goodput
    // dips below 1 and every degraded table is rendered.
    assert!(report.lost_work_node_secs() > 0.0);
    assert!(report.goodput_frac() < 1.0 && report.goodput_frac() > 0.0);
    assert!(report.retry_amplification() > 1.0);
    let render = report.render();
    assert_eq!(
        fnv1a64(&render),
        PIN_ONE_KILL_RENDER,
        "one-kill degraded render diverged from the pinned output"
    );
    for table in [
        "Node outage timeline",
        "Degraded-mode accounting (goodput vs offered load)",
        "Job outcomes under node failures",
        "Turnaround slowdown vs healthy fleet",
    ] {
        assert!(
            render.contains(table),
            "degraded report must include `{table}`"
        );
    }
}

#[test]
fn retry_budget_exhaustion_abandons_and_charges_but_never_simulates() {
    let report = fleet_sweep(&abandon_cfg(), Driver::Sequential).expect("valid config");
    let sched = &report.schedules[5];
    assert_eq!(sched.outcome, JobOutcome::Abandoned);
    assert_eq!(
        sched.attempts.len(),
        4,
        "initial attempt plus three budgeted retries"
    );
    assert!(sched.attempts.iter().all(|a| a.killed_by == Some(0)));

    // Abandoned jobs are charged but not simulated: 7 records for 8 jobs.
    assert_eq!(report.records.len(), 7);
    assert!(report.records.iter().all(|r| r.job_id != 5));
    assert_eq!(report.outcome_counts(), (7, 0, 1));
    assert!(report.lost_work_node_secs() > 0.0);
    assert!(report.goodput_frac() < 1.0);
    let render = report.render();
    assert!(render.contains("abandoned"));
    assert_eq!(
        fnv1a64(&render),
        PIN_ABANDON_RENDER,
        "abandon degraded render diverged from the pinned output"
    );
}
