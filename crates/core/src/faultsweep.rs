//! Fault-injection sweep: how resilience attributes separate workloads.
//!
//! Three experiments, driven by the deterministic fault plane in
//! `storage-sim::faults`, run by [`crate::sweep::fault_sweep`] and surfaced
//! via `repro -- fault-sweep`. This module holds their plans, runners and
//! result types:
//!
//! 1. **MDS brownout** — the same metadata-server slowdown applied to
//!    metadata-bound CosmoFlow (thousands of per-sample opens) and
//!    data-bound HACC (one file per process, bulk writes). CosmoFlow's
//!    I/O time degrades far more — the attribute-level signature
//!    (meta-op share) predicts fault sensitivity.
//! 2. **NSD outage** — a single data server down for the whole transfer,
//!    measured as aggregate-bandwidth degradation on the PFS directly.
//!    Survivors absorb the dead server's stripes, so the slowdown is
//!    roughly the server's capacity share plus contention.
//! 3. **Shm shielding** — CosmoFlow baseline vs preload-to-shm under the
//!    same PFS fault plan. Once the dataset is node-local, training reads
//!    no longer touch the faulted PFS, so the reconfiguration that wins
//!    Figure 7 also buys fault isolation.

use crate::sweep::RunScalars;
use exemplar_workloads::cosmoflow;
use hpc_cluster::topology::NodeId;
use sim_core::units::{GIB, MIB};
use sim_core::{Dur, SimTime};
use storage_sim::{FaultPlan, GpfsConfig, GpfsSim};

/// A brownout window long enough to cover any simulated run.
pub(crate) fn whole_run() -> SimTime {
    SimTime::from_secs(1_000_000_000)
}

/// The experiment-1 fault plan: `slowdown`× metadata service time for the
/// whole run.
pub(crate) fn mds_plan(slowdown: f64) -> FaultPlan {
    FaultPlan::none().with_mds_brownout(SimTime::ZERO, whole_run(), slowdown)
}

/// The experiment-3 fault plan: a 4× NSD brownout from `from` onward plus
/// a 2 % transient data-error rate throughout. The rate stays low enough
/// that the retry middleware (5 attempts) always absorbs it — no run may
/// fail.
pub(crate) fn shield_plan(from: SimTime) -> FaultPlan {
    FaultPlan::none()
        .with_nsd_brownout(from, whole_run(), 4.0)
        .with_error_rates(0.02, 0.0)
}

/// CosmoFlow preload-to-shm variant at `scale` under `faults`.
pub(crate) fn run_cosmo_preload(
    scale: f64,
    seed: u64,
    faults: FaultPlan,
) -> exemplar_workloads::WorkloadRun {
    let mut p = cosmoflow::CosmoflowParams::scaled(scale);
    p.preload_to_shm = true;
    p.faults = faults;
    cosmoflow::run_with(p, scale, seed)
}

/// The experiment-2 pool configuration (client cache disabled so the
/// measurement sees server bandwidth, not memory speed).
pub(crate) fn nsd_config() -> GpfsConfig {
    let mut cfg = GpfsConfig::tiny();
    cfg.client_cache_bytes = 0;
    cfg
}

/// Experiment-2 measurement: aggregate bandwidth of a 64 MiB streaming
/// write through the tiny pool under `plan`, bytes/second.
pub(crate) fn nsd_bw(seed: u64, plan: FaultPlan) -> f64 {
    let bytes = 64 * MIB;
    let mut fs = GpfsSim::new(nsd_config(), 4, 1 * GIB, Dur::from_micros(2), seed);
    fs.set_fault_plan(plan);
    let (k, t) = fs
        .open(NodeId(0), "/bench", true, false, SimTime::ZERO)
        .unwrap();
    let (_, end) = fs.write_pattern(NodeId(0), k, 0, bytes, 1, t).unwrap();
    bytes as f64 / end.since(t).as_secs_f64()
}

/// One workload measured healthy vs under a fault plan.
#[derive(Debug, Clone)]
pub struct FaultImpact {
    /// Workload display name.
    pub workload: &'static str,
    /// Mean per-rank I/O time without faults, seconds.
    pub healthy_io: f64,
    /// Mean per-rank I/O time under the fault plan, seconds.
    pub faulted_io: f64,
    /// Transient-fault events absorbed by the retry middleware.
    pub faults: u64,
    /// Retry records emitted by the middleware.
    pub retries: u64,
    /// Wall time the run lost to faults and backoff, seconds.
    pub time_lost: f64,
}

impl FaultImpact {
    /// I/O-time degradation factor (faulted / healthy); 1.0 = unaffected.
    pub fn degradation(&self) -> f64 {
        if self.healthy_io <= 0.0 {
            f64::INFINITY
        } else {
            self.faulted_io / self.healthy_io
        }
    }
}

/// Build a [`FaultImpact`] from a healthy and a faulted run's scalars. The
/// sweep simulates each distinct run once and shares baselines across
/// experiments, so impacts are assembled from references.
pub(crate) fn impact_from(
    workload: &'static str,
    healthy: &RunScalars,
    faulted: &RunScalars,
) -> FaultImpact {
    FaultImpact {
        workload,
        healthy_io: healthy.io_time,
        faulted_io: faulted.io_time,
        faults: faulted.faults,
        retries: faulted.retries,
        time_lost: faulted.time_lost,
    }
}

/// Experiment 2 result: aggregate PFS bandwidth with and without one NSD
/// server down.
#[derive(Debug, Clone)]
pub struct OutageBench {
    /// Data servers in the pool.
    pub n_servers: u32,
    /// Aggregate write bandwidth with all servers up, bytes/s.
    pub healthy_bw: f64,
    /// Aggregate write bandwidth with one server down, bytes/s.
    pub degraded_bw: f64,
}

impl OutageBench {
    /// Fractional bandwidth lost to the outage (0 = none, 1 = all).
    pub fn degradation(&self) -> f64 {
        if self.healthy_bw <= 0.0 {
            0.0
        } else {
            1.0 - self.degraded_bw / self.healthy_bw
        }
    }

    /// The dead server's nominal share of aggregate capacity.
    pub fn server_share(&self) -> f64 {
        1.0 / self.n_servers as f64
    }
}

/// Experiment 3 result: the same PFS fault plan hitting the baseline and
/// the preload-to-shm variant of CosmoFlow.
#[derive(Debug, Clone)]
pub struct ShieldResult {
    /// Baseline (reads from GPFS every epoch) under the fault plan.
    pub baseline: FaultImpact,
    /// Preload-to-shm variant under the same plan.
    pub preloaded: FaultImpact,
}

impl ShieldResult {
    /// How much of the baseline's degradation the preload avoids
    /// (1.0 = fully shielded, 0.0 = no protection).
    pub fn shielding(&self) -> f64 {
        let b = self.baseline.degradation() - 1.0;
        let p = self.preloaded.degradation() - 1.0;
        if b <= 0.0 {
            0.0
        } else {
            (1.0 - p / b).max(0.0)
        }
    }
}

/// Render the full sweep as the repro harness prints it.
pub(crate) fn render_fault_sweep(
    brownout: &(FaultImpact, FaultImpact),
    outage: &OutageBench,
    shield: &ShieldResult,
) -> String {
    let mut out = String::from("== Fault sweep: MDS brownout sensitivity\n");
    out.push_str("workload            | healthy I/O (s) | faulted I/O (s) | degradation\n");
    out.push_str("--------------------+-----------------+-----------------+------------\n");
    for i in [&brownout.0, &brownout.1] {
        out.push_str(&format!(
            "{:<19} | {:>15.3} | {:>15.3} | {:>10.2}x\n",
            i.workload,
            i.healthy_io,
            i.faulted_io,
            i.degradation()
        ));
    }
    out.push_str(&format!(
        "metadata-bound vs data-bound sensitivity ratio: {:.2}x\n\n",
        brownout.0.degradation() / brownout.1.degradation()
    ));

    out.push_str(&format!(
        "== Fault sweep: single NSD outage ({} data servers)\n",
        outage.n_servers
    ));
    out.push_str(&format!(
        "aggregate write bandwidth: {:.1} -> {:.1} MiB/s ({:.1}% lost; dead server's share {:.1}%)\n\n",
        outage.healthy_bw / MIB as f64,
        outage.degraded_bw / MIB as f64,
        100.0 * outage.degradation(),
        100.0 * outage.server_share()
    ));

    out.push_str("== Fault sweep: preload-to-shm shielding under PFS faults\n");
    out.push_str("variant             | degradation | faults absorbed | retries | time lost (s)\n");
    out.push_str("--------------------+-------------+-----------------+---------+--------------\n");
    for i in [&shield.baseline, &shield.preloaded] {
        out.push_str(&format!(
            "{:<19} | {:>10.2}x | {:>15} | {:>7} | {:>13.3}\n",
            i.workload,
            i.degradation(),
            i.faults,
            i.retries,
            i.time_lost
        ));
    }
    out.push_str(&format!(
        "preload shields {:.0}% of the fault-induced slowdown\n",
        100.0 * shield.shielding()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_renders_every_section() {
        let imp = |w| FaultImpact {
            workload: w,
            healthy_io: 1.0,
            faulted_io: 2.0,
            faults: 3,
            retries: 3,
            time_lost: 0.5,
        };
        let r = render_fault_sweep(
            &(imp("Cosmoflow"), imp("HACC (FPP)")),
            &OutageBench {
                n_servers: 4,
                healthy_bw: 4e8,
                degraded_bw: 3e8,
            },
            &ShieldResult {
                baseline: imp("base"),
                preloaded: imp("pre"),
            },
        );
        assert!(r.contains("MDS brownout"));
        assert!(r.contains("NSD outage"));
        assert!(r.contains("shielding"));
        assert!(r.contains("2.00x"));
    }
}
