//! Scenario-parallel simulation driver.
//!
//! The paper's methodology is a sweep: six workloads × configurations ×
//! fault scenarios, each an *independent* discrete-event simulation. This
//! module fans those scenarios across `rt::par` workers while keeping the
//! output **byte-identical to a sequential run at any worker count**:
//!
//! * every scenario gets a stable string id and a seed drawn from a
//!   splittable RNG stream at *registration* time, in registration order —
//!   so seeds depend only on the scenario list, never on which worker runs
//!   what or in which order scenarios finish;
//! * results are merged back in registration order (`rt::par`'s chunk
//!   merge is already deterministic), so tables/YAML/figures rendered from
//!   them cannot observe the worker count;
//! * scenarios that feed other scenarios (the shield experiment's fault
//!   plan opens a quarter of the way into the healthy baseline run) are
//!   expressed as a second wave that consumes the first wave's results —
//!   a barrier, not a lock.
//!
//! The built-in drivers ([`paper_six`], [`fault_sweep`], and the
//! `reconfig::figure7`/`figure8` sweeps) also *de-duplicate*
//! identical baselines: the fault sweep needs the healthy CosmoFlow run
//! for both the MDS-brownout and the shm-shielding experiment, and now
//! simulates and analyzes it exactly once.

use crate::analyzer::Analysis;
use crate::faultsweep::{
    self, impact_from, mds_plan, nsd_bw, nsd_config, shield_plan, whole_run, FaultImpact,
    OutageBench, ShieldResult,
};
use exemplar_workloads::WorkloadKind::{self, Cosmoflow, Hacc};
use sim_core::SimTime;
use storage_sim::{FaultPlan, InterferenceSchedule};
use vani_rt::rng::Rng;

/// How a [`ScenarioSet`] executes its scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One after another, on the calling thread.
    Sequential,
    /// Fanned across `rt::par` workers (`rt::par::set_threads` controls
    /// the count). Results are identical to [`Driver::Sequential`].
    Parallel,
}

/// Per-scenario context handed to the scenario closure.
#[derive(Debug, Clone)]
pub struct SweepCtx {
    /// Stable scenario id (unique within the set).
    pub id: String,
    /// Position in registration order (= position in the result vector).
    pub index: usize,
    /// Seed of this scenario's private RNG stream, split from the set's
    /// master seed at registration time. Independent across scenarios and
    /// independent of the worker count.
    pub seed: u64,
}

struct Scenario<T> {
    ctx: SweepCtx,
    run: Box<dyn Fn(&SweepCtx) -> T + Send + Sync>,
}

/// A scenario that failed under supervision: every attempt panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// The scenario's stable id.
    pub id: String,
    /// Its position in registration order (= its result slot).
    pub index: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Panic payload message of the final attempt.
    pub message: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario `{}` (index {}) failed after {} attempt{}: {}",
            self.id,
            self.index,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

impl std::error::Error for ScenarioError {}

/// Outcome of a supervised sweep: one slot per scenario, in registration
/// order, healthy results and failures side by side.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// Per-scenario outcomes, in registration order.
    pub results: Vec<Result<T, ScenarioError>>,
}

impl<T> SweepReport<T> {
    /// The failed scenarios, in registration order.
    pub(crate) fn failures(&self) -> Vec<&ScenarioError> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }

    /// Whether every scenario succeeded.
    pub fn is_clean(&self) -> bool {
        self.results.iter().all(|r| r.is_ok())
    }

    /// Human-readable failure manifest; empty string when clean.
    pub fn manifest(&self) -> String {
        let fails = self.failures();
        if fails.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "{} of {} scenarios failed:\n",
            fails.len(),
            self.results.len()
        );
        for e in fails {
            out.push_str(&format!("  - {e}\n"));
        }
        out
    }
}

/// Seed of retry attempt `attempt` (0 = the registered seed). Derived
/// deterministically so a retried scenario re-rolls its stream the same way
/// on every machine and at every worker count. Public because the fleet's
/// self-healing scheduler re-derives seeds for requeued jobs the same way.
pub fn retry_seed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        seed
    } else {
        seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(attempt as u64)
    }
}

/// Run one scenario under panic isolation with bounded, seeded retries.
fn supervise<T>(s: &Scenario<T>, max_attempts: u32) -> Result<T, ScenarioError> {
    let attempts = max_attempts.max(1);
    let mut message = String::new();
    for attempt in 0..attempts {
        let ctx = SweepCtx {
            id: s.ctx.id.clone(),
            index: s.ctx.index,
            seed: retry_seed(s.ctx.seed, attempt),
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (s.run)(&ctx))) {
            Ok(v) => return Ok(v),
            Err(payload) => message = vani_rt::par::panic_message(payload.as_ref()),
        }
    }
    Err(ScenarioError {
        id: s.ctx.id.clone(),
        index: s.ctx.index,
        attempts,
        message,
    })
}

/// An ordered set of independent simulation scenarios.
pub struct ScenarioSet<T> {
    master: Rng,
    scenarios: Vec<Scenario<T>>,
}

impl<T: Send> ScenarioSet<T> {
    /// New empty set; scenario seeds are split from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        ScenarioSet {
            master: Rng::new(master_seed),
            scenarios: Vec::new(),
        }
    }

    /// Register a scenario. Its seed is drawn *now*, from the master
    /// stream, so the schedule cannot influence it.
    pub fn add(
        &mut self,
        id: impl Into<String>,
        run: impl Fn(&SweepCtx) -> T + Send + Sync + 'static,
    ) {
        let mut child = self.master.split();
        self.scenarios.push(Scenario {
            ctx: SweepCtx {
                id: id.into(),
                index: self.scenarios.len(),
                seed: child.next_u64(),
            },
            run: Box::new(run),
        });
    }

    /// Execute every scenario; results come back in registration order
    /// regardless of the driver or worker count.
    pub fn run(self, driver: Driver) -> Vec<T> {
        let go = |s: Scenario<T>| (s.run)(&s.ctx);
        match driver {
            Driver::Sequential => self.scenarios.into_iter().map(go).collect(),
            Driver::Parallel => vani_rt::par::par_map_owned(self.scenarios, go),
        }
    }

    /// Execute every scenario under supervision: a panicking scenario is
    /// caught *inside* the worker, retried up to `max_attempts` times with
    /// deterministically derived seeds, and finally converted into a typed
    /// [`ScenarioError`] — one bad scenario never poisons the sweep. Healthy
    /// scenarios behave exactly as under [`Self::run`] (attempt 0 uses the
    /// registered seed), and outcomes come back in registration order at
    /// any worker count.
    pub fn run_supervised(self, driver: Driver, max_attempts: u32) -> SweepReport<T> {
        let go = move |s: Scenario<T>| supervise(&s, max_attempts);
        let results = match driver {
            Driver::Sequential => self.scenarios.into_iter().map(go).collect(),
            Driver::Parallel => vani_rt::par::par_map_owned(self.scenarios, go),
        };
        SweepReport { results }
    }
}

/// Run the six paper workloads as one scenario fan-out and analyze them,
/// in the tables' column order. Byte-identical between drivers and at any
/// worker count: every workload keeps its caller-supplied seed.
pub fn paper_six(scale: f64, seed: u64, driver: Driver) -> Vec<Analysis> {
    let mut set = ScenarioSet::new(seed);
    for &kind in &WorkloadKind::ALL[..6] {
        set.add(kind.id(), move |_| {
            Analysis::from_run(&kind.run(
                scale,
                seed,
                FaultPlan::none(),
                InterferenceSchedule::none(),
            ))
        });
    }
    set.run(driver)
}

/// The complete fault sweep (experiments 1–3 of `faultsweep`), produced by
/// one de-duplicated scenario fan-out.
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

/// Wave-1 scenario results are heterogeneous: workload analyses and raw
/// PFS bandwidth measurements.
enum W1 {
    A(Box<Analysis>),
    Bw(f64),
}

impl W1 {
    fn analysis(self) -> Analysis {
        match self {
            W1::A(a) => *a,
            W1::Bw(_) => unreachable!("scenario returned bandwidth, not an analysis"),
        }
    }
    fn bw(&self) -> f64 {
        match self {
            W1::Bw(b) => *b,
            W1::A(_) => unreachable!("scenario returned an analysis, not bandwidth"),
        }
    }
}

/// Run all three fault-sweep experiments as scenario fan-outs, sharing the
/// distinct baselines: the healthy CosmoFlow baseline feeds both the
/// MDS-brownout comparison and the shm-shielding experiment. Two waves: the
/// shield fault plan opens a quarter of the way into the healthy baseline
/// makespan, so the faulted shield scenarios wait for wave 1. By then the
/// preload variant has staged the dataset into shm, so its training reads
/// never touch the degraded PFS; the baseline is still streaming samples
/// off GPFS and takes the full hit.
///
/// Output is identical at any worker count, with either driver.
pub fn fault_sweep(scale: f64, seed: u64, slowdown: f64, driver: Driver) -> FaultSweepReport {
    // Every workload scenario runs without competing tenants.
    let analyze = move |kind: WorkloadKind, plan: FaultPlan| {
        W1::A(Box::new(Analysis::from_run(&kind.run(
            scale,
            seed,
            plan,
            InterferenceSchedule::none(),
        ))))
    };
    let preload = move |plan: FaultPlan| {
        W1::A(Box::new(Analysis::from_run(
            &faultsweep::run_cosmo_preload(scale, seed, plan),
        )))
    };
    // Wave 1: everything that does not depend on another scenario.
    let mut w1 = ScenarioSet::new(seed);
    w1.add("cosmo/healthy", move |_| {
        analyze(Cosmoflow, FaultPlan::none())
    });
    w1.add("cosmo/mds-brownout", move |_| {
        analyze(Cosmoflow, mds_plan(slowdown))
    });
    w1.add("hacc/healthy", move |_| analyze(Hacc, FaultPlan::none()));
    w1.add("hacc/mds-brownout", move |_| {
        analyze(Hacc, mds_plan(slowdown))
    });
    w1.add("cosmo-preload/healthy", move |_| preload(FaultPlan::none()));
    w1.add("nsd/healthy-bw", move |_| {
        W1::Bw(nsd_bw(seed, FaultPlan::none()))
    });
    w1.add("nsd/degraded-bw", move |_| {
        W1::Bw(nsd_bw(
            seed,
            FaultPlan::none().with_nsd_outage(0, SimTime::ZERO, whole_run()),
        ))
    });
    let mut r1 = w1.run(driver).into_iter();
    let cosmo_ok = r1.next().unwrap().analysis();
    let cosmo_mds = r1.next().unwrap().analysis();
    let hacc_ok = r1.next().unwrap().analysis();
    let hacc_mds = r1.next().unwrap().analysis();
    let pre_ok = r1.next().unwrap().analysis();
    let healthy_bw = r1.next().unwrap().bw();
    let degraded_bw = r1.next().unwrap().bw();

    // Wave 2: the shield scenarios, whose fault plan is anchored to the
    // shared healthy baseline's makespan (job_time = engine makespan).
    let plan = shield_plan(SimTime::from_nanos(cosmo_ok.job_time.as_nanos() / 4));
    let mut w2 = ScenarioSet::new(seed ^ 1);
    {
        let plan = plan.clone();
        w2.add("cosmo/shield-faulted", move |_| {
            analyze(Cosmoflow, plan.clone())
        });
    }
    w2.add("cosmo-preload/shield-faulted", move |_| {
        preload(plan.clone())
    });
    let mut r2 = w2.run(driver).into_iter();
    let base_bad = r2.next().unwrap().analysis();
    let pre_bad = r2.next().unwrap().analysis();

    FaultSweepReport {
        brownout: (
            impact_from("Cosmoflow", &cosmo_ok, &cosmo_mds),
            impact_from("HACC (FPP)", &hacc_ok, &hacc_mds),
        ),
        outage: OutageBench {
            n_servers: nsd_config().n_data_servers as u32,
            healthy_bw,
            degraded_bw,
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
    fn seeds_are_stable_and_distinct() {
        let mut a = ScenarioSet::<u64>::new(42);
        a.add("x", |c| c.seed);
        a.add("y", |c| c.seed);
        a.add("z", |c| c.seed);
        let mut b = ScenarioSet::<u64>::new(42);
        b.add("x", |c| c.seed);
        b.add("y", |c| c.seed);
        b.add("z", |c| c.seed);
        let ids: Vec<&str> = a.scenarios.iter().map(|s| s.ctx.id.as_str()).collect();
        assert_eq!(ids, vec!["x", "y", "z"]);
        let sa = a.run(Driver::Sequential);
        let sb = b.run(Driver::Parallel);
        // Same master seed -> same per-scenario seeds, either driver.
        assert_eq!(sa, sb);
        // Streams are pairwise distinct.
        assert_ne!(sa[0], sa[1]);
        assert_ne!(sa[1], sa[2]);
        // And a different master gives different streams.
        let mut c = ScenarioSet::<u64>::new(43);
        c.add("x", |c| c.seed);
        assert_ne!(c.run(Driver::Sequential)[0], sa[0]);
    }

    #[test]
    fn results_come_back_in_registration_order() {
        let mut set = ScenarioSet::new(1);
        for i in 0..20u64 {
            set.add(format!("s{i}"), move |ctx| (ctx.index, i));
        }
        let out = set.run(Driver::Parallel);
        for (i, (idx, v)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn scenario_rng_is_reproducible() {
        let mut set = ScenarioSet::new(9);
        set.add("a", |ctx| Rng::new(ctx.seed).next_u64());
        set.add("b", |ctx| Rng::new(ctx.seed).next_u64());
        let first = set.run(Driver::Sequential);
        let mut again = ScenarioSet::new(9);
        again.add("a", |ctx| Rng::new(ctx.seed).next_u64());
        again.add("b", |ctx| Rng::new(ctx.seed).next_u64());
        assert_eq!(first, again.run(Driver::Parallel));
    }

    #[test]
    fn supervised_sweep_isolates_a_panicking_scenario() {
        let build = || {
            let mut set = ScenarioSet::new(11);
            set.add("good-a", |ctx| ctx.index as u64);
            set.add("boom", |_| -> u64 { panic!("synthetic scenario failure") });
            set.add("good-b", |ctx| ctx.index as u64 * 10);
            set
        };
        for driver in [Driver::Sequential, Driver::Parallel] {
            let report = build().run_supervised(driver, 2);
            assert_eq!(report.results.len(), 3);
            assert!(!report.is_clean());
            let successes: Vec<u64> = report
                .results
                .iter()
                .filter_map(|r| r.as_ref().ok().copied())
                .collect();
            assert_eq!(successes, vec![0, 20]);
            let fails = report.failures();
            assert_eq!(fails.len(), 1);
            assert_eq!(fails[0].id, "boom");
            assert_eq!(fails[0].index, 1);
            assert_eq!(fails[0].attempts, 2);
            assert!(fails[0].message.contains("synthetic scenario failure"));
            assert!(report.manifest().contains("1 of 3 scenarios failed"));
            assert!(report.manifest().contains("`boom`"));
        }
    }

    #[test]
    fn supervised_retries_rederive_seeds_deterministically() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        // A scenario that panics on its first attempt and records the seed
        // it saw on the second: the retry must run, and the retry seed must
        // differ from the registered one but be reproducible.
        let run_once = || {
            let calls = Arc::new(AtomicU32::new(0));
            let mut set = ScenarioSet::new(5);
            let c = calls.clone();
            set.add("flaky", move |ctx| {
                if c.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first attempt dies");
                }
                ctx.seed
            });
            set.add("solid", |ctx| ctx.seed);
            set.run_supervised(Driver::Sequential, 3)
        };
        let a = run_once();
        let b = run_once();
        assert!(a.is_clean());
        let flaky_a = *a.results[0].as_ref().unwrap();
        let flaky_b = *b.results[0].as_ref().unwrap();
        assert_eq!(flaky_a, flaky_b, "retry seeds are machine-independent");
        // The solid scenario saw its registered (attempt-0) seed, and the
        // retried one saw a derived seed.
        let mut fresh = ScenarioSet::new(5);
        fresh.add("flaky", |ctx| ctx.seed);
        fresh.add("solid", |ctx| ctx.seed);
        let seeds = fresh.run(Driver::Sequential);
        assert_eq!(*a.results[1].as_ref().unwrap(), seeds[1]);
        assert_ne!(flaky_a, seeds[0], "retry must re-roll the seed");
    }

    #[test]
    fn supervision_leaves_healthy_sweeps_untouched() {
        let mut plain = ScenarioSet::new(3);
        let mut sup = ScenarioSet::new(3);
        for i in 0..8u64 {
            plain.add(format!("s{i}"), move |ctx| ctx.seed ^ i);
            sup.add(format!("s{i}"), move |ctx| ctx.seed ^ i);
        }
        let want = plain.run(Driver::Sequential);
        let got = sup.run_supervised(Driver::Parallel, 3);
        assert!(got.is_clean());
        assert!(got.manifest().is_empty());
        let got: Vec<u64> = got.results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, want);
    }
}
