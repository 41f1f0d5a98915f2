//! Crash sweep: the checkpoint-interval vs time-to-solution tradeoff.
//!
//! CosmoFlow is run over a grid of checkpoint counts × injected job
//! crashes. Each crash kills the whole job (MPI semantics); the recovery
//! supervisor in `exemplar_workloads::harness` relaunches it from the
//! last *durable* model checkpoint after a fixed restart delay. More
//! checkpoints cost more overhead while the job is healthy, but bound
//! the work a crash can destroy — the classic tradeoff this sweep's
//! figure renders, surfaced via `repro -- crash-sweep`.
//!
//! Determinism: scenario seeds are drawn at registration, crash times
//! are anchored to the *healthy* baseline makespan of the same
//! checkpoint configuration (computed in wave 1), and the grid is
//! assembled in registration order — the report is byte-identical at
//! any worker count with either driver.

use crate::analyzer::Analysis;
use crate::sweep::{Driver, ScenarioSet, SweepReport};
use exemplar_workloads::cosmoflow;
use sim_core::SimTime;
use storage_sim::FaultPlan;

/// Checkpoint counts swept (more checkpoints = shorter interval).
pub(crate) const CKPT_COUNTS: [u32; 4] = [1, 2, 4, 8];
/// Crash counts injected per checkpoint configuration.
pub(crate) const CRASH_COUNTS: [u32; 3] = [0, 1, 2];

/// CosmoFlow at `scale` writing `n_ckpts` model checkpoints, under
/// `faults` (which may include whole-job crash events).
pub(crate) fn run_cosmo_ckpt(
    scale: f64,
    seed: u64,
    n_ckpts: u32,
    faults: FaultPlan,
) -> exemplar_workloads::WorkloadRun {
    let mut p = cosmoflow::CosmoflowParams::scaled(scale);
    p.n_ckpts = n_ckpts;
    p.faults = faults;
    cosmoflow::run_with(p, scale, seed)
}

/// The crash plan for one grid cell: `crashes` rank-0 kills spread over
/// the healthy makespan `healthy_ns`, each shifted past the previous
/// crash's restart delay so every kill lands inside a live epoch.
pub(crate) fn crash_plan(crashes: u32, healthy_ns: u64) -> FaultPlan {
    let delay = exemplar_workloads::harness::restart_delay().as_nanos();
    let mut plan = FaultPlan::none();
    for k in 1..=crashes as u64 {
        let at = k * healthy_ns / (crashes as u64 + 1) + (k - 1) * delay;
        plan = plan.with_rank_crash(0, SimTime::from_nanos(at));
    }
    plan
}

/// One grid cell of the sweep.
#[derive(Debug, Clone)]
pub struct CrashPoint {
    /// Model checkpoints the run writes while healthy.
    pub n_ckpts: u32,
    /// Whole-job crashes injected.
    pub crashes: u32,
    /// Time to solution (engine makespan), seconds.
    pub makespan: f64,
    /// Restart epochs the job went through.
    pub restarts: u64,
    /// Work destroyed by crashes (rollback to last checkpoint), seconds.
    pub lost: f64,
    /// Wall time spent writing checkpoints, seconds.
    pub ckpt_overhead: f64,
    /// Wall time spent in restart delays, seconds.
    pub recovery: f64,
}

fn point(n_ckpts: u32, crashes: u32, a: &Analysis) -> CrashPoint {
    CrashPoint {
        n_ckpts,
        crashes,
        makespan: a.job_time.as_secs_f64(),
        restarts: a.restart_count(),
        lost: a.time_lost_to_crashes(),
        ckpt_overhead: a.checkpoint_overhead(),
        recovery: a.recovery_seconds(),
    }
}

/// The full grid plus the supervision manifest (empty when every
/// scenario succeeded, which the tests require).
#[derive(Debug, Clone)]
pub struct CrashSweepReport {
    /// Grid cells in `(n_ckpts, crashes)` registration order.
    pub points: Vec<CrashPoint>,
    /// Failure manifest from the supervised wave, if any scenario died.
    pub manifest: Option<String>,
}

impl CrashSweepReport {
    /// The cell for `(n_ckpts, crashes)`, if it survived supervision.
    pub(crate) fn cell(&self, n_ckpts: u32, crashes: u32) -> Option<&CrashPoint> {
        self.points
            .iter()
            .find(|p| p.n_ckpts == n_ckpts && p.crashes == crashes)
    }

    /// Render the tradeoff figure as `repro -- crash-sweep` prints it.
    pub fn render(&self) -> String {
        let mut out =
            String::from("== Crash sweep: checkpoint interval vs time-to-solution (CosmoFlow)\n");
        out.push_str(
            "ckpts | crashes | makespan (s) | restarts | work lost (s) | ckpt ovhd (s) | recovery (s)\n",
        );
        out.push_str(
            "------+---------+--------------+----------+---------------+---------------+-------------\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>5} | {:>7} | {:>12.3} | {:>8} | {:>13.3} | {:>13.3} | {:>12.3}\n",
                p.n_ckpts, p.crashes, p.makespan, p.restarts, p.lost, p.ckpt_overhead, p.recovery
            ));
        }

        // ASCII tradeoff figure: time to solution under the heaviest
        // crash load, one bar per checkpoint count. Sparse checkpoints
        // pay in rolled-back work, dense checkpoints in overhead.
        let worst = *CRASH_COUNTS.iter().max().unwrap();
        let bars: Vec<&CrashPoint> = CKPT_COUNTS
            .iter()
            .filter_map(|&n| self.cell(n, worst))
            .collect();
        let max = bars.iter().map(|p| p.makespan).fold(0.0_f64, f64::max);
        if max > 0.0 {
            out.push_str(&format!("\ntime to solution with {worst} crash(es):\n"));
            for p in bars {
                let w = ((p.makespan / max) * 50.0).round() as usize;
                out.push_str(&format!(
                    "{:>2} ckpts |{:<50}| {:.1} s\n",
                    p.n_ckpts,
                    "#".repeat(w.max(1)),
                    p.makespan
                ));
            }
        }
        if let Some(m) = &self.manifest {
            out.push_str("\n");
            out.push_str(m);
        }
        out
    }
}

/// Run the sweep: wave 1 measures the healthy baseline per checkpoint
/// count, wave 2 injects crashes anchored to those baselines. Wave 2
/// runs supervised so one pathological cell cannot poison the grid.
pub fn crash_sweep(scale: f64, seed: u64, driver: Driver) -> CrashSweepReport {
    // Wave 1: healthy baselines (the crashes = 0 column).
    let mut w1 = ScenarioSet::new(seed);
    for n in CKPT_COUNTS {
        w1.add(format!("cosmo/ckpts-{n}/healthy"), move |_| {
            Analysis::from_run(&run_cosmo_ckpt(scale, seed, n, FaultPlan::none()))
        });
    }
    let healthy = w1.run(driver);

    // Wave 2: the crashed cells, anchored to wave 1's makespans.
    let mut w2 = ScenarioSet::new(seed ^ 2);
    let mut cells = Vec::new();
    for (i, n) in CKPT_COUNTS.into_iter().enumerate() {
        let healthy_ns = healthy[i].job_time.as_nanos();
        for r in CRASH_COUNTS.into_iter().filter(|&r| r > 0) {
            cells.push((n, r));
            let plan = crash_plan(r, healthy_ns);
            w2.add(format!("cosmo/ckpts-{n}/crashes-{r}"), move |_| {
                Analysis::from_run(&run_cosmo_ckpt(scale, seed, n, plan.clone()))
            });
        }
    }
    let report: SweepReport<Analysis> = w2.run_supervised(driver, 2);

    let mut points = Vec::new();
    let mut crashed = report.results.iter();
    for (i, n) in CKPT_COUNTS.into_iter().enumerate() {
        points.push(point(n, 0, &healthy[i]));
        for r in CRASH_COUNTS.into_iter().filter(|&r| r > 0) {
            if let Ok(a) = crashed.next().expect("grid arity") {
                points.push(point(n, r, a));
            }
        }
    }
    let manifest = if report.is_clean() {
        None
    } else {
        Some(report.manifest())
    };
    CrashSweepReport { points, manifest }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep() -> CrashSweepReport {
        crash_sweep(0.02, 7, Driver::Parallel)
    }

    #[test]
    fn crashes_cost_time_and_checkpoints_bound_the_loss() {
        let r = quick_sweep();
        assert!(r.manifest.is_none(), "no cell may fail: {:?}", r.manifest);
        assert_eq!(r.points.len(), CKPT_COUNTS.len() * CRASH_COUNTS.len());

        for &n in &CKPT_COUNTS {
            let ok = r.cell(n, 0).unwrap();
            let bad = r.cell(n, 2).unwrap();
            assert_eq!(ok.restarts, 0);
            assert_eq!(bad.restarts, 2, "both kills must land (ckpts={n})");
            assert!(
                bad.makespan > ok.makespan,
                "crashes must cost wall time (ckpts={n}): {:.3} vs {:.3}",
                bad.makespan,
                ok.makespan
            );
            assert!(bad.recovery > 0.0 && bad.lost >= 0.0);
        }

        // Denser checkpoints bound the work a crash destroys.
        let sparse = r.cell(CKPT_COUNTS[0], 2).unwrap();
        let dense = r.cell(*CKPT_COUNTS.last().unwrap(), 2).unwrap();
        assert!(
            dense.lost <= sparse.lost,
            "8 ckpts must lose no more work than 1 ckpt: {:.3} vs {:.3}",
            dense.lost,
            sparse.lost
        );
    }

    #[test]
    fn sweep_is_identical_across_drivers() {
        let a = crash_sweep(0.02, 7, Driver::Sequential);
        let b = quick_sweep();
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn render_draws_the_tradeoff_figure() {
        let r = quick_sweep();
        let s = r.render();
        assert!(s.contains("checkpoint interval vs time-to-solution"));
        assert!(s.contains("time to solution with 2 crash(es):"));
        assert!(s.contains("8 ckpts |"));
    }

    #[test]
    fn crash_plan_spreads_kills_across_epochs() {
        let plan = crash_plan(2, 3_000_000_000);
        let ev = plan.crashes_sorted();
        assert_eq!(ev.len(), 2);
        assert!(ev[0].at < ev[1].at);
        // Second kill lands past the first restart delay.
        let delay = exemplar_workloads::harness::restart_delay().as_nanos();
        assert!(ev[1].at.as_nanos() >= ev[0].at.as_nanos() + delay);
    }
}
