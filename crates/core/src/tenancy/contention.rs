//! Mean-field contention: turn a fleet schedule into per-job
//! [`InterferenceSchedule`]s.
//!
//! Simulating thousands of concurrent jobs inside one engine timeline is
//! infeasible (and unnecessary for fleet statistics). Instead each job is
//! simulated alone, with its neighbors summarized as *competing load* on
//! the shared servers — the mean-field approximation queueing theory uses
//! for large shared systems:
//!
//! 1. every job's dedicated profile run yields its mean data-bandwidth
//!    demand and metadata-op rate, expressed as fractions of the shared
//!    PFS's aggregate capacities ([`TenantDemand`]);
//! 2. for job J, every other job whose placement overlaps J's contributes
//!    its demand fractions over the overlap window;
//! 3. the overlap windows are swept breakpoint-by-breakpoint into a
//!    piecewise-constant schedule, shifted to J's own timeline (J's
//!    simulation starts at t = 0), and installed into J's PFS.
//!
//! A job with no overlapping neighbors gets an *empty* schedule, which the
//! PFS treats as bit-identical to never installing one — the single-tenant
//! fleet therefore reproduces dedicated-run results exactly. The windows
//! are built by a sequential sweep in job-id order, so schedules are
//! deterministic at any worker count.

use super::outage::NodeFaultPlan;
use super::scheduler::{JobSchedule, Placement};
use sim_core::SimTime;
use storage_sim::InterferenceSchedule;

/// One tenant's demand on the shared servers, as capacity fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantDemand {
    /// Mean data-path demand / aggregate NSD bandwidth.
    pub data_frac: f64,
    /// Mean metadata-op rate / aggregate MDS service rate.
    pub meta_frac: f64,
}

impl TenantDemand {
    /// No demand (an idle tenant).
    pub fn zero() -> Self {
        TenantDemand {
            data_frac: 0.0,
            meta_frac: 0.0,
        }
    }
}

/// Build job `job`'s interference schedule from the fleet placements and
/// per-job demands. Window times are relative to the job's own start. A
/// healthy pool: every window serves at full capacity.
pub fn interference_for(
    job: usize,
    placements: &[Placement],
    demands: &[TenantDemand],
) -> InterferenceSchedule {
    let me = &placements[job];
    let neighbors = placements
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != job)
        .map(|(j, p)| (p.start, p.end, j));
    // With no outages the pool size is never read.
    sweep(
        (me.start, me.end),
        neighbors,
        demands,
        &NodeFaultPlan::none(),
        0,
    )
}

/// Build job `job`'s interference schedule for its *final* attempt in a
/// fleet whose nodes may fail. Two extensions over [`interference_for`]:
///
/// * **every attempt interferes** — a neighbor's killed partial attempts
///   loaded the shared servers while they ran, so each attempt interval
///   of each other job contributes that job's demand fractions;
/// * **pool-coupled capacity** — while `down` of the fleet's
///   `cluster_nodes` are out, the rack-co-located storage serves with
///   `(cluster_nodes - down) / cluster_nodes` of its hardware, expressed
///   as [`storage_sim::LoadWindow::capacity`] windows.
///
/// With an empty plan and single-attempt schedules both builders run the
/// same sweep over the same intervals, so they build the same windows.
pub fn interference_for_degraded(
    job: usize,
    schedules: &[JobSchedule],
    demands: &[TenantDemand],
    plan: &NodeFaultPlan,
    cluster_nodes: u32,
) -> InterferenceSchedule {
    let me = schedules[job].final_attempt();
    let neighbors = schedules
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != job)
        .flat_map(|(j, s)| s.attempts.iter().map(move |a| (a.start, a.end, j)));
    sweep((me.start, me.end), neighbors, demands, plan, cluster_nodes)
}

/// The sweep both builders share. `neighbors` yields `(start, end, owner)`
/// busy intervals in (owner, attempt) order; those overlapping
/// `[my_start, my_end)` add their owner's demand fractions. Breakpoints
/// are my bounds, the neighbor edges and `plan`'s up/down boundaries
/// inside them; each window sums the load live at its midpoint and, while
/// nodes are down, serves with the surviving share of the pool.
fn sweep(
    (my_start, my_end): (f64, f64),
    neighbors: impl Iterator<Item = (f64, f64, usize)>,
    demands: &[TenantDemand],
    plan: &NodeFaultPlan,
    cluster_nodes: u32,
) -> InterferenceSchedule {
    if my_end <= my_start {
        return InterferenceSchedule::none();
    }
    let intervals: Vec<(f64, f64, usize)> = neighbors
        .filter(|&(s, e, _)| s < my_end && e > my_start)
        .collect();
    let edges = intervals.iter().flat_map(|&(s, e, _)| [s, e]);
    let mut cuts: Vec<f64> = vec![my_start, my_end];
    cuts.extend(
        edges
            .chain(plan.boundaries())
            .filter(|&c| c > my_start && c < my_end),
    );
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let mut schedule = InterferenceSchedule::none();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let mid = lo + (hi - lo) / 2.0;
        let (mut data, mut meta) = (0.0f64, 0.0f64);
        for &(s, e, j) in &intervals {
            if s <= mid && mid < e {
                data += demands[j].data_frac;
                meta += demands[j].meta_frac;
            }
        }
        // A dead pool still serves through survivors elsewhere in the
        // datacenter; floor the window instead of dividing by zero.
        let down = plan.down_count(mid).min(cluster_nodes);
        let capacity = if down == 0 {
            1.0
        } else {
            ((cluster_nodes - down) as f64 / cluster_nodes as f64).max(1e-3)
        };
        let (from, until) = (
            SimTime::from_secs_f64(lo - my_start),
            SimTime::from_secs_f64(hi - my_start),
        );
        if capacity < 1.0 {
            schedule = schedule.with_window_capacity(from, until, data, meta, capacity);
        } else if data > 0.0 || meta > 0.0 {
            schedule = schedule.with_window(from, until, data, meta);
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::super::scheduler::{JobAttempt, JobOutcome};
    use super::*;

    fn pl(id: usize, start: f64, end: f64) -> Placement {
        Placement {
            id,
            submit: start,
            start,
            end,
        }
    }

    #[test]
    fn lonely_job_gets_empty_schedule() {
        let placements = [pl(0, 0.0, 10.0), pl(1, 20.0, 30.0)];
        let demands = [TenantDemand {
            data_frac: 0.5,
            meta_frac: 0.5,
        }; 2];
        assert!(interference_for(0, &placements, &demands).is_empty());
        assert!(interference_for(1, &placements, &demands).is_empty());
    }

    #[test]
    fn overlap_becomes_a_job_relative_window() {
        // Job 1 runs [5, 15); job 0 runs [0, 10): they overlap on [5, 10).
        let placements = [pl(0, 0.0, 10.0), pl(1, 5.0, 15.0)];
        let demands = [
            TenantDemand {
                data_frac: 0.4,
                meta_frac: 0.1,
            },
            TenantDemand {
                data_frac: 0.2,
                meta_frac: 0.3,
            },
        ];
        let s0 = interference_for(0, &placements, &demands);
        // On job 0's own timeline the neighbor covers [5, 10).
        assert_eq!(s0.data_factor(SimTime::from_secs_f64(2.0)), 1.0);
        assert!((s0.data_factor(SimTime::from_secs_f64(7.0)) - 1.2).abs() < 1e-12);
        assert!((s0.meta_factor(SimTime::from_secs_f64(7.0)) - 1.3).abs() < 1e-12);
        // On job 1's timeline job 0 covers [0, 5).
        let s1 = interference_for(1, &placements, &demands);
        assert!((s1.data_factor(SimTime::from_secs_f64(1.0)) - 1.4).abs() < 1e-12);
        assert_eq!(s1.data_factor(SimTime::from_secs_f64(8.0)), 1.0);
    }

    #[test]
    fn concurrent_neighbors_add_loads() {
        let placements = [pl(0, 0.0, 10.0), pl(1, 0.0, 10.0), pl(2, 0.0, 10.0)];
        let demands = [TenantDemand {
            data_frac: 0.25,
            meta_frac: 0.0,
        }; 3];
        let s = interference_for(0, &placements, &demands);
        assert!((s.data_factor(SimTime::from_secs_f64(5.0)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn idle_neighbors_leave_the_schedule_empty() {
        let placements = [pl(0, 0.0, 10.0), pl(1, 0.0, 10.0)];
        let demands = [TenantDemand::zero(); 2];
        assert!(interference_for(0, &placements, &demands).is_empty());
    }

    fn js(id: usize, attempts: Vec<JobAttempt>) -> JobSchedule {
        let submit = attempts.first().map(|a| a.start).unwrap_or(0.0);
        JobSchedule {
            id,
            submit,
            attempts,
            outcome: JobOutcome::Completed,
        }
    }

    fn att(attempt: u32, start: f64, end: f64, killed_by: Option<u32>) -> JobAttempt {
        JobAttempt {
            attempt,
            start,
            end,
            killed_by,
        }
    }

    #[test]
    fn degraded_matches_legacy_on_healthy_single_attempt_fleets() {
        let placements = [pl(0, 0.0, 10.0), pl(1, 5.0, 15.0)];
        let schedules = [
            js(0, vec![att(0, 0.0, 10.0, None)]),
            js(1, vec![att(0, 5.0, 15.0, None)]),
        ];
        let demands = [
            TenantDemand {
                data_frac: 0.4,
                meta_frac: 0.1,
            },
            TenantDemand {
                data_frac: 0.2,
                meta_frac: 0.3,
            },
        ];
        let plan = NodeFaultPlan::none();
        for j in 0..2 {
            let legacy = interference_for(j, &placements, &demands);
            let degraded = interference_for_degraded(j, &schedules, &demands, &plan, 8);
            assert_eq!(legacy, degraded);
        }
    }

    #[test]
    fn killed_neighbor_attempts_still_interfere() {
        // Neighbor 1's first attempt [0, 4) was killed; its retry runs
        // [8, 12). Job 0 runs [0, 12) and sees load in both intervals.
        let schedules = [
            js(0, vec![att(0, 0.0, 12.0, None)]),
            js(1, vec![att(0, 0.0, 4.0, Some(3)), att(1, 8.0, 12.0, None)]),
        ];
        let demands = [
            TenantDemand::zero(),
            TenantDemand {
                data_frac: 0.5,
                meta_frac: 0.0,
            },
        ];
        let plan = NodeFaultPlan::none();
        let s = interference_for_degraded(0, &schedules, &demands, &plan, 8);
        assert!((s.data_factor(SimTime::from_secs_f64(2.0)) - 1.5).abs() < 1e-12);
        assert_eq!(s.data_factor(SimTime::from_secs_f64(6.0)), 1.0);
        assert!((s.data_factor(SimTime::from_secs_f64(10.0)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn node_outages_degrade_storage_capacity() {
        // 1 of 4 nodes down over [2, 6) of job 0's run: capacity 0.75.
        let schedules = [js(0, vec![att(0, 0.0, 10.0, None)])];
        let demands = [TenantDemand::zero()];
        let plan = NodeFaultPlan::none().with_outage(1, 2.0, 4.0);
        let s = interference_for_degraded(0, &schedules, &demands, &plan, 4);
        assert_eq!(s.data_factor(SimTime::from_secs_f64(1.0)), 1.0);
        assert!((s.data_factor(SimTime::from_secs_f64(3.0)) - 1.0 / 0.75).abs() < 1e-12);
        assert!((s.meta_factor(SimTime::from_secs_f64(3.0)) - 1.0 / 0.75).abs() < 1e-12);
        assert_eq!(s.data_factor(SimTime::from_secs_f64(8.0)), 1.0);
    }
}
