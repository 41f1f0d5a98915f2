//! The scenario fan-out driver and the built-in sweeps over it.
//!
//! The paper's methodology is a set of *independent* discrete-event
//! simulations: six workloads × configurations × fault scenarios. Every
//! sweep in this crate is a plain list of cells mapped through one
//! [`Driver`], and its output is **byte-identical to a sequential run at
//! any worker count**:
//!
//! * a cell's inputs (workload, fault plan, seed) are fixed by the list
//!   before anything runs, so they cannot depend on which worker runs what
//!   or in which order cells finish;
//! * [`Driver::map`] returns results in list order (`rt::par`'s merge is
//!   deterministic), so tables, YAML and figures rendered from them cannot
//!   observe the worker count;
//! * cells that feed other cells (the shield experiment's fault plan opens
//!   a quarter of the way into the healthy baseline run) are a second map
//!   over the first one's results: a barrier, not a lock.
//!
//! The built-in sweeps ([`paper_six`], [`fault_sweep`], and the
//! `reconfig::figure7`/`figure8` sweeps) also *de-duplicate* identical
//! baselines: the fault sweep needs the healthy CosmoFlow run for both the
//! MDS-brownout and the shm-shielding experiment, and simulates it once.

use crate::analyzer::{Analysis, TraceProfile};
use crate::faultsweep::{
    self, impact_from, mds_plan, nsd_bw, nsd_config, shield_plan, whole_run, FaultImpact,
    OutageBench, ShieldResult,
};
use exemplar_workloads::WorkloadKind::{self, Cosmoflow, Hacc};
use exemplar_workloads::WorkloadRun;
use sim_core::{Dur, SimTime};
use storage_sim::{FaultPlan, InterferenceSchedule};

/// How a sweep runs its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One after another, on the calling thread.
    Sequential,
    /// Fanned across `rt::par` workers (`rt::par::set_threads` controls
    /// the count). Results are identical to [`Driver::Sequential`].
    Parallel,
}

impl Driver {
    /// Map `f` over `items`; results come back in `items` order with
    /// either driver and at any worker count.
    pub fn map<T, R, F>(self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        match self {
            Driver::Sequential => items.into_iter().map(f).collect(),
            Driver::Parallel => vani_rt::par::par_map_owned(items, f),
        }
    }

    /// [`Self::map`] with each item under panic isolation: an item whose
    /// `f` panics becomes `Err("{name}: {panic message}")` in its slot,
    /// `name` naming the item, and the other items run and return as
    /// usual.
    pub fn try_map<T, R, F>(
        self,
        items: Vec<T>,
        name: impl Fn(&T) -> String + Sync,
        f: F,
    ) -> Vec<Result<R, String>>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        self.map(items, |item| {
            let name = name(&item);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))).map_err(|payload| {
                format!("{name}: {}", vani_rt::par::panic_message(payload.as_ref()))
            })
        })
    }
}

/// Seed of a job's `attempt`-th relaunch (0 = the job's own seed). Derived
/// deterministically, so a requeued fleet job re-rolls its stream the same
/// way on every machine and at every worker count.
pub fn retry_seed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        seed
    } else {
        seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(attempt as u64)
    }
}

/// What a what-if cell (a Figure 7/8 point, a fault-sweep or crash-sweep
/// cell) reads from one run. [`RunScalars::of`] folds the run's captured
/// columns in place, as a fleet job does, so a cell copies no trace and
/// keeps only these scalars once its run is dropped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunScalars {
    /// Mean per-rank I/O time, seconds.
    pub io_time: f64,
    /// Engine makespan.
    pub job_time: Dur,
    /// Transient-fault events absorbed by the retry middleware.
    pub faults: u64,
    /// Retry records emitted by the middleware.
    pub retries: u64,
    /// Wall time lost to fault detection and backoff, seconds.
    pub time_lost: f64,
    /// Restart epochs after fatal crashes.
    pub restarts: u64,
    /// Work thrown away by crashes (rollback to the last checkpoint),
    /// seconds.
    pub work_lost: f64,
    /// Wall time spent writing checkpoints, seconds.
    pub ckpt_overhead: f64,
    /// Scheduler requeue + relaunch latency across all restarts, seconds.
    pub recovery: f64,
}

impl RunScalars {
    pub(crate) fn of(run: &WorkloadRun) -> RunScalars {
        let job_time = run.runtime();
        let p = TraceProfile::fused(run.columnar_view(), job_time);
        RunScalars {
            io_time: p.io_time_frac * job_time.as_secs_f64(),
            job_time,
            faults: p.fault_events,
            retries: p.retry_events,
            time_lost: p.fault_time.as_secs_f64(),
            restarts: p.restart_events,
            work_lost: p.crash_lost_time.as_secs_f64(),
            ckpt_overhead: p.ckpt_time.as_secs_f64(),
            recovery: p.recovery_time.as_secs_f64(),
        }
    }
}

/// Run the six paper workloads as one fan-out and analyze them, in the
/// tables' column order. Byte-identical between drivers and at any worker
/// count: every workload keeps its caller-supplied seed.
pub fn paper_six(scale: f64, seed: u64, driver: Driver) -> Vec<Analysis> {
    driver.map(WorkloadKind::ALL[..6].to_vec(), |kind| {
        Analysis::from_run(&kind.run(scale, seed, FaultPlan::none(), InterferenceSchedule::none()))
    })
}

/// The complete fault sweep (experiments 1–3 of `faultsweep`), produced by
/// one de-duplicated fan-out.
#[derive(Debug, Clone)]
pub struct FaultSweepReport {
    /// MDS-brownout sensitivity: `(cosmoflow, hacc)`.
    pub brownout: (FaultImpact, FaultImpact),
    /// Single-NSD-outage bandwidth cost.
    pub outage: OutageBench,
    /// Preload-to-shm fault shielding.
    pub shield: ShieldResult,
}

impl FaultSweepReport {
    /// Render exactly as `repro -- fault-sweep` prints it.
    pub fn render(&self) -> String {
        faultsweep::render_fault_sweep(&self.brownout, &self.outage, &self.shield)
    }
}

/// A fault-sweep cell's workload: `(scale, seed, faults) -> run`.
type Launch = fn(f64, u64, FaultPlan) -> WorkloadRun;

/// Run all three fault-sweep experiments, sharing the distinct baselines:
/// the healthy CosmoFlow baseline feeds both the MDS-brownout comparison
/// and the shm-shielding experiment. Two waves: the shield fault plan
/// opens a quarter of the way into the healthy baseline makespan, so the
/// faulted shield cells wait for wave 1. By then the preload variant has
/// staged the dataset into shm, so its training reads never touch the
/// degraded PFS; the baseline is still streaming samples off GPFS and
/// takes the full hit. Each cell keeps only the scalars its report reads.
///
/// Output is identical at any worker count, with either driver.
pub fn fault_sweep(scale: f64, seed: u64, slowdown: f64, driver: Driver) -> FaultSweepReport {
    // Every workload cell runs without competing tenants.
    let cosmo: Launch = |s, seed, plan| Cosmoflow.run(s, seed, plan, InterferenceSchedule::none());
    let hacc: Launch = |s, seed, plan| Hacc.run(s, seed, plan, InterferenceSchedule::none());
    let preload: Launch = faultsweep::run_cosmo_preload;
    let measure = |(launch, plan): (Launch, FaultPlan)| RunScalars::of(&launch(scale, seed, plan));

    // Wave 1: everything that does not depend on another cell.
    let w1 = driver.map(
        vec![
            (cosmo, FaultPlan::none()),
            (cosmo, mds_plan(slowdown)),
            (hacc, FaultPlan::none()),
            (hacc, mds_plan(slowdown)),
            (preload, FaultPlan::none()),
        ],
        measure,
    );
    let [cosmo_ok, cosmo_mds, hacc_ok, hacc_mds, pre_ok] = w1[..] else {
        unreachable!("wave 1 has five cells")
    };
    let bw = driver.map(
        vec![
            FaultPlan::none(),
            FaultPlan::none().with_nsd_outage(0, SimTime::ZERO, whole_run()),
        ],
        |plan| nsd_bw(seed, plan),
    );

    // Wave 2: the shield cells, whose fault plan is anchored to the shared
    // healthy baseline's makespan (job_time = engine makespan).
    let plan = shield_plan(SimTime::from_nanos(cosmo_ok.job_time.as_nanos() / 4));
    let w2 = driver.map(vec![(cosmo, plan.clone()), (preload, plan)], measure);
    let [base_bad, pre_bad] = w2[..] else {
        unreachable!("wave 2 has two cells")
    };

    FaultSweepReport {
        brownout: (
            impact_from("Cosmoflow", &cosmo_ok, &cosmo_mds),
            impact_from("HACC (FPP)", &hacc_ok, &hacc_mds),
        ),
        outage: OutageBench {
            n_servers: nsd_config().n_data_servers as u32,
            healthy_bw: bw[0],
            degraded_bw: bw[1],
        },
        shield: ShieldResult {
            baseline: impact_from("Cosmoflow (GPFS)", &cosmo_ok, &base_bad),
            preloaded: impact_from("Cosmoflow (preload)", &pre_ok, &pre_bad),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_item_order_with_either_driver() {
        let items: Vec<u64> = (0..20).collect();
        let want: Vec<u64> = items.iter().map(|i| i * i).collect();
        for driver in [Driver::Sequential, Driver::Parallel] {
            assert_eq!(driver.map(items.clone(), |i| i * i), want);
        }
    }

    #[test]
    fn try_map_isolates_a_panicking_item() {
        for driver in [Driver::Sequential, Driver::Parallel] {
            let out = driver.try_map(
                vec![1u64, 2, 3],
                |i| format!("cell {i}"),
                |i| {
                    if i == 2 {
                        panic!("synthetic cell failure")
                    }
                    i * 10
                },
            );
            assert_eq!(out[0], Ok(10));
            assert_eq!(out[1], Err("cell 2: synthetic cell failure".to_string()));
            assert_eq!(out[2], Ok(30));
        }
    }
}
