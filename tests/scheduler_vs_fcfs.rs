//! Integration: on a healthy cluster the one production scheduler,
//! `resilient_schedule` with an empty `NodeFaultPlan` and strict FCFS,
//! places every job exactly where the sequential FCFS oracle in
//! `tests/common/fcfs.rs` does — same start and end, bit for bit — on
//! seeded tie-heavy open arrivals (zero runtimes included) and one
//! 10⁵-job open fleet.

mod common;

use common::fcfs::fcfs_schedule;
use vani_suite::rt::Rng;
use vani_suite::vani::tenancy::{
    resilient_schedule, JobDemand, JobOutcome, JobSchedule, NodeFaultPlan, Placement, SchedPolicy,
    ScheduleArrivals,
};

/// `resilient_schedule` on a never-failing pool, strict FCFS; every job
/// must run exactly once.
fn healthy(cluster_nodes: u32, demands: &[JobDemand], submits: &[f64]) -> Vec<Placement> {
    let plan = NodeFaultPlan::none();
    let schedules = resilient_schedule(
        cluster_nodes,
        demands,
        &ScheduleArrivals(submits),
        &plan,
        &SchedPolicy::standard(),
    );
    assert!(schedules
        .iter()
        .all(|s| s.outcome == JobOutcome::Completed && s.attempts.len() == 1));
    schedules.iter().map(JobSchedule::as_placement).collect()
}

/// Uniform integer in `[lo, hi]`.
fn int(r: &mut Rng, lo: u64, hi: u64) -> u64 {
    r.uniform_u64(lo, hi + 1)
}

/// A small random cluster and job list: widths up to the whole cluster,
/// integer runtimes in `[0, max_runtime]` so completions collide.
fn random_jobs(r: &mut Rng, max_runtime: u64) -> (u32, Vec<JobDemand>) {
    let cluster = int(r, 1, 8) as u32;
    let n = int(r, 1, 40) as usize;
    let demands = (0..n)
        .map(|_| JobDemand {
            nodes: int(r, 1, cluster as u64) as u32,
            est_runtime: int(r, 0, max_runtime) as f64,
        })
        .collect();
    (cluster, demands)
}

#[test]
fn healthy_open_arrivals_match_the_oracle() {
    let mut r = Rng::new(0xfcf5_0001);
    for case in 0..3000 {
        let (cluster, demands) = random_jobs(&mut r, 5);
        // Integer submit times on a short horizon: many equal instants.
        let mut submits: Vec<f64> = demands.iter().map(|_| int(&mut r, 0, 20) as f64).collect();
        submits.sort_by(f64::total_cmp);
        assert_eq!(
            healthy(cluster, &demands, &submits),
            fcfs_schedule(cluster, &demands, &submits),
            "case {case}: {cluster} nodes, {demands:?}, submits {submits:?}"
        );
    }
}

#[test]
fn a_hundred_thousand_job_open_fleet_matches_the_oracle() {
    let mut r = Rng::new(0xfcf5_0002);
    let (n, cluster) = (100_000usize, 64u32);
    let demands: Vec<JobDemand> = (0..n)
        .map(|_| JobDemand {
            nodes: int(&mut r, 1, 16) as u32,
            est_runtime: (int(&mut r, 0, 100) * 10) as f64,
        })
        .collect();
    // Offered load just under 1 (mean width 8.5 × mean runtime 500 s over
    // 64 nodes), with submits rounded to whole seconds.
    let gap = 8.5 * 500.0 / (64.0 * 0.95);
    let mut clock = 0.0f64;
    let submits: Vec<f64> = (0..n)
        .map(|_| {
            clock += r.exponential(1.0 / gap);
            clock.floor()
        })
        .collect();
    let got = healthy(cluster, &demands, &submits);
    let want = fcfs_schedule(cluster, &demands, &submits);
    assert!(
        got.iter().filter(|p| p.wait() > 0.0).count() > n / 10,
        "the fleet must queue for the comparison to mean anything"
    );
    assert!(got == want, "10⁵-job fleet diverges from the oracle");
}
