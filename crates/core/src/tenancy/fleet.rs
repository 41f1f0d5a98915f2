//! The fleet sweep: thousands of heterogeneous jobs on one shared PFS.
//!
//! A fleet run proceeds in deterministic waves:
//!
//! 1. **Manifest** — a single sequential pass over the fleet seed draws
//!    each job's template (weighted pick from the mix), its private seed,
//!    and its submission time. The manifest exists before any simulation
//!    starts, so it cannot depend on worker count or scheduling order.
//! 2. **Profiles** — every distinct `(workload, variant)` combination in
//!    the mix runs once on a dedicated machine, one [`Driver::map`] over
//!    the combinations. Profiles provide the scheduler's runtime
//!    estimates, the contention model's demand fractions, and the
//!    noisy-neighbor table's dedicated baselines. Crashy profiles run in a
//!    second map because their crash instant is anchored to the baseline
//!    profile's makespan (the [`crate::crashsweep`] idiom).
//! 3. **Schedule** — FCFS placement of the whole manifest onto the shared
//!    cluster (requeueing jobs killed by node outages).
//! 4. **Jobs** — one [`Driver::map`] over the completed jobs' indices:
//!    each job builds its interference schedule from the overlapping
//!    attempts, simulates through [`WorkloadKind::run`] with its
//!    variant's fault plan at its manifest seed (re-derived by
//!    [`retry_seed`] for requeued jobs), and returns a compact
//!    [`JobRecord`]. Without a [`SpillSpec`] the record's trace fields
//!    come from [`TraceProfile::fused`] over the columns the job's tracer
//!    captured, borrowed in place: no copy, no sealed chunks, no decode
//!    buffer, so the trace gauge is never charged. The trace is dropped
//!    with the job, so a 1000-job fleet does not hold 1000 traces.
//!
//! Every wave returns results in list order and every reduction is a
//! sequential pass in job-id order — see the module docs of
//! [`super`] for the full determinism argument.

use super::arrival::ArrivalProcess;
use super::contention::{interference_for_degraded, TenantDemand};
use super::outage::{NodeFaultPlan, NodeFaultProfile};
use super::scheduler::{
    resilient_schedule, JobDemand, JobSchedule, Placement, SchedPolicy, ScheduleArrivals,
};
use super::stats::{FleetReport, ProfileSummary};
use super::FleetError;
use crate::analyzer::TraceProfile;
use crate::sweep::{retry_seed, Driver};
use exemplar_workloads::{WorkloadKind, WorkloadRun};
use recorder_sim::spill::{spill_columnar, SpillError, SpillFaultPlan, SpillSource};
use recorder_sim::{ColumnarTrace, FsckReport, DEFAULT_CHUNK_ROWS};
use sim_core::{Dur, SimTime};
use std::path::{Path, PathBuf};
use storage_sim::{FaultPlan, GpfsConfig, InterferenceSchedule};
use vani_rt::rng::Rng;

/// Workload ids the fleet mix may reference: the ids of
/// [`WorkloadKind::ALL`], in order.
pub const KNOWN_WORKLOADS: [&str; 7] = [
    "cm1",
    "hacc",
    "cosmoflow",
    "jag",
    "montage-mpi",
    "montage-pegasus",
    "ior",
];

/// Resolve a mix workload id, failing fast with a typed error.
pub fn parse_workload(id: &str) -> Result<WorkloadKind, FleetError> {
    WorkloadKind::ALL
        .into_iter()
        .find(|k| k.id() == id)
        .ok_or_else(|| FleetError::UnknownWorkload(id.to_string()))
}

/// How a fleet job perturbs its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobVariant {
    /// The workload exactly as the paper ran it.
    Baseline,
    /// A degraded-PFS tenant: constant MDS (4x) and NSD (1.5x) brownouts
    /// for the whole run — the kind of sick-but-alive job real fleets
    /// carry. Brownouts only; transient error injection would require
    /// retry middleware the exemplar skeletons do not mount.
    Faulted,
    /// A job that crashes halfway through its dedicated makespan and
    /// restarts from its last durable checkpoint (from its first step when
    /// the workload records no checkpoint markers). Every exemplar
    /// recovers through the shared crash/restart driver, so every
    /// workload runs it.
    Crashy,
}

impl JobVariant {
    /// Stable name for manifests, scenario ids, and reports.
    pub fn name(&self) -> &'static str {
        match self {
            JobVariant::Baseline => "baseline",
            JobVariant::Faulted => "faulted",
            JobVariant::Crashy => "crashy",
        }
    }
}

/// One entry of the fleet's workload mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTemplate {
    /// Workload id (see [`KNOWN_WORKLOADS`]).
    pub workload: String,
    /// Variant every job drawn from this template runs.
    pub variant: JobVariant,
    /// Relative draw weight (0 disables the template).
    pub weight: u32,
}

impl JobTemplate {
    /// Convenience constructor.
    pub fn new(workload: &str, variant: JobVariant, weight: u32) -> Self {
        JobTemplate {
            workload: workload.to_string(),
            variant,
            weight,
        }
    }
}

/// How a fleet run's node failure domain is specified.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeFaultSpec {
    /// A perfectly healthy node pool (the default; bit-identical to the
    /// pre-failure-domain fleet everywhere).
    None,
    /// Draw a seeded outage timeline from the manifest's fourth split RNG
    /// stream at manifest time.
    Profile(NodeFaultProfile),
    /// Use this exact timeline.
    Plan(NodeFaultPlan),
}

/// Where — and under what injected-fault plan — fleet jobs spill their
/// captured traces. With a spec installed, every simulated job seals its
/// captured columns into a crash-consistent segment log (`job-NNNNN.vsp3`
/// under `dir`), recovers it, and analyzes the recovered prefix straight
/// off disk chunk by chunk. The spill frame and decode buffers are the
/// only trace memory the trace gauge counts; the columns the job's
/// tracer holds are not gauged, with or without a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillSpec {
    /// Directory the per-job segment logs are written into.
    pub dir: PathBuf,
    /// Fault plan installed into every job's spill writer —
    /// [`SpillFaultPlan::none`] for a clean durable sweep; armed plans
    /// drive the torture-test fleets.
    pub fault: SpillFaultPlan,
}

impl SpillSpec {
    /// A clean (fault-free) spill into `dir`.
    pub fn clean(dir: &Path) -> Self {
        SpillSpec {
            dir: dir.to_path_buf(),
            fault: SpillFaultPlan::none(),
        }
    }
}

/// Everything that defines a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Jobs in the fleet.
    pub n_jobs: usize,
    /// Scale factor every job runs at (1.0 = paper scale).
    pub scale: f64,
    /// Fleet seed: manifests, scenario seeds, everything derives from it.
    pub seed: u64,
    /// Nodes in the shared cluster the scheduler places onto.
    pub cluster_nodes: u32,
    /// The shared PFS's capacity relative to the full Lassen system, used
    /// to turn profile demand into capacity fractions. Defaults to the job
    /// scale so a scaled-down fleet contends against a proportionally
    /// scaled-down datacenter.
    pub pfs_capacity_scale: f64,
    /// How jobs enter the system.
    pub arrival: ArrivalProcess,
    /// Weighted workload mix jobs are drawn from.
    pub mix: Vec<JobTemplate>,
    /// The fleet's node failure domain.
    pub node_faults: NodeFaultSpec,
    /// The self-healing scheduler's policy (retry budgets and backoff).
    /// Admission is always strict FCFS in `(submit, job id)` order; with
    /// [`NodeFaultSpec::None`] every job runs once.
    pub sched: SchedPolicy,
    /// Spill-to-disk capture (`None` = each job's captured columns are
    /// folded in place, bit-identical to the pre-spill fleet).
    pub spill: Option<SpillSpec>,
}

impl FleetConfig {
    /// The standard heterogeneous fleet: every exemplar workload at weight
    /// 3, its brownout-degraded twin at weight 1, and crashy CM1/CosmoFlow
    /// at weight 1 — jobs arriving as an open Poisson stream dense enough
    /// to keep the cluster contended.
    pub fn standard(n_jobs: usize, scale: f64, seed: u64) -> Self {
        let mut mix = Vec::new();
        for w in KNOWN_WORKLOADS {
            mix.push(JobTemplate::new(w, JobVariant::Baseline, 3));
            mix.push(JobTemplate::new(w, JobVariant::Faulted, 1));
        }
        mix.push(JobTemplate::new("cm1", JobVariant::Crashy, 1));
        mix.push(JobTemplate::new("cosmoflow", JobVariant::Crashy, 1));
        let widest = WorkloadKind::ALL
            .iter()
            .map(|k| k.nodes(scale))
            .max()
            .unwrap_or(1);
        FleetConfig {
            n_jobs,
            scale,
            seed,
            // Room for a handful of concurrent tenants, small enough that
            // the queue stays busy and neighbors actually overlap.
            cluster_nodes: widest * 4,
            pfs_capacity_scale: scale,
            arrival: ArrivalProcess {
                mean_interarrival: 120.0 * scale,
            },
            mix,
            node_faults: NodeFaultSpec::None,
            sched: SchedPolicy::standard(),
            spill: None,
        }
    }

    /// The standard fleet with the standard degraded-mode failure domain
    /// (what `repro -- fleet-sweep --node-faults` runs).
    pub fn standard_with_node_faults(n_jobs: usize, scale: f64, seed: u64) -> Self {
        let mut cfg = FleetConfig::standard(n_jobs, scale, seed);
        cfg.node_faults = NodeFaultSpec::Profile(NodeFaultProfile::standard(scale));
        cfg
    }
}

/// One admitted job, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestJob {
    /// Job id = manifest position.
    pub id: usize,
    /// Workload id from [`KNOWN_WORKLOADS`].
    pub workload: String,
    /// Variant the job runs.
    pub variant: JobVariant,
    /// The job's private simulation seed.
    pub seed: u64,
    /// Submission time, seconds, drawn from the fleet's arrival process.
    pub submit: f64,
    /// Nodes the job occupies.
    pub nodes: u32,
}

/// The full job manifest: drawn before any simulation starts.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetManifest {
    /// Jobs in job-id order.
    pub jobs: Vec<ManifestJob>,
    /// Arrival-process description (for the report header).
    pub arrival: String,
    /// Cluster size the manifest was validated against.
    pub cluster_nodes: u32,
    /// The node outage timeline the fleet runs under (empty = healthy).
    pub node_faults: NodeFaultPlan,
}

impl FleetManifest {
    /// Render the manifest as stable plain text (pinned by tests and
    /// digested into the fleet report). The outage section appears only
    /// when the plan is non-empty, so healthy manifests render — and
    /// digest — byte-identically to the pre-failure-domain fleet.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet manifest: {} jobs | arrival {} | cluster {} nodes\n",
            self.jobs.len(),
            self.arrival,
            self.cluster_nodes
        );
        out.push_str(
            "   id | workload        | variant  | seed             | submit (s) | nodes\n",
        );
        for j in &self.jobs {
            out.push_str(&format!(
                "{:>5} | {:<15} | {:<8} | {:016x} | {:>10.3} | {:>5}\n",
                j.id,
                j.workload,
                j.variant.name(),
                j.seed,
                j.submit,
                j.nodes
            ));
        }
        if !self.node_faults.is_empty() {
            out.push_str(&format!(
                "node fault plan: {} outages, {:.4} node-hours down\n",
                self.node_faults.outages.len(),
                self.node_faults.node_hours_down()
            ));
            out.push_str(&self.node_faults.render());
        }
        out
    }
}

/// Validate the mix and draw the manifest: one sequential pass over the
/// fleet seed, in job-id order. Worker-count independent by construction.
pub fn build_manifest(cfg: &FleetConfig) -> Result<FleetManifest, FleetError> {
    let live: Vec<&JobTemplate> = cfg.mix.iter().filter(|t| t.weight > 0).collect();
    let total_weight: u64 = live.iter().map(|t| t.weight as u64).sum();
    if total_weight == 0 {
        return Err(FleetError::EmptyMix);
    }
    for t in &live {
        let kind = parse_workload(&t.workload)?;
        let nodes = kind.nodes(cfg.scale);
        if nodes > cfg.cluster_nodes {
            return Err(FleetError::JobTooLarge {
                workload: t.workload.clone(),
                nodes,
                cluster_nodes: cfg.cluster_nodes,
            });
        }
    }
    // Four independent streams so adding a job never shifts another job's
    // seed relative to its template pick, and turning node faults on or
    // off never shifts any job stream: the fault stream is split fourth,
    // *unconditionally*, even when the plan is empty (pinned by
    // `vani_rt::rng::tests::fourth_split_stream_is_pinned`).
    let mut master = Rng::new(cfg.seed);
    let mut pick_rng = master.split();
    let mut seed_rng = master.split();
    let mut gap_rng = master.split();
    let mut fault_rng = master.split();
    let node_faults = match &cfg.node_faults {
        NodeFaultSpec::None => NodeFaultPlan::none(),
        NodeFaultSpec::Plan(p) => p.clone(),
        NodeFaultSpec::Profile(prof) => prof.draw(&mut fault_rng, cfg.cluster_nodes),
    };
    let mut jobs = Vec::with_capacity(cfg.n_jobs);
    let mut clock = 0.0f64;
    for id in 0..cfg.n_jobs {
        let mut w = pick_rng.uniform_u64(0, total_weight);
        let tpl = live
            .iter()
            .find(|t| {
                if w < t.weight as u64 {
                    true
                } else {
                    w -= t.weight as u64;
                    false
                }
            })
            .expect("weighted pick is within total weight");
        let kind = parse_workload(&tpl.workload).expect("validated above");
        clock += cfg.arrival.gap(&mut gap_rng);
        jobs.push(ManifestJob {
            id,
            workload: tpl.workload.clone(),
            variant: tpl.variant,
            seed: seed_rng.split().next_u64(),
            submit: clock,
            nodes: kind.nodes(cfg.scale),
        });
    }
    Ok(FleetManifest {
        jobs,
        arrival: cfg.arrival.describe(),
        cluster_nodes: cfg.cluster_nodes,
        node_faults,
    })
}

/// The constant degraded-PFS plan [`JobVariant::Faulted`] jobs run under.
fn faulted_plan() -> FaultPlan {
    let forever = SimTime::from_secs(30 * 24 * 3600);
    FaultPlan::none()
        .with_nsd_brownout(SimTime::ZERO, forever, 1.5)
        .with_mds_brownout(SimTime::ZERO, forever, 4.0)
}

/// The crash plan for a [`JobVariant::Crashy`] job: one rank-0 kill
/// halfway through the workload's *baseline* dedicated makespan.
fn crashy_plan(baseline: Dur) -> FaultPlan {
    FaultPlan::none().with_rank_crash(0, SimTime::from_nanos(baseline.as_nanos() / 2))
}

/// A dedicated profile run's contribution to the fleet: the scheduler's
/// runtime estimate and the contention model's demand fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Profile {
    runtime: Dur,
    demand: TenantDemand,
}

/// Profile a job's captured columns through the on-disk spill path: the
/// columns stream into a crash-consistent segment log at `path`, the log
/// is recovered (salvaging the longest committed prefix if `fault`
/// injected damage) and profiled chunk-at-a-time straight off disk.
///
/// Returns the profile alongside the recovery verdict. On a clean log the
/// profile equals [`TraceProfile::fused`] over `c`; on a damaged log it
/// matches the fused profile of the surviving records. A crash-class
/// injected fault is absorbed here (recovery proceeds from whatever the
/// simulated crash left on disk), while environmental failures (ENOSPC,
/// unwritable dir) surface as errors.
fn spilled_profile(
    c: &ColumnarTrace,
    job_time: Dur,
    path: &Path,
    fault: SpillFaultPlan,
) -> Result<(TraceProfile, FsckReport), SpillError> {
    let spill_path = match spill_columnar(c, DEFAULT_CHUNK_ROWS, path, fault) {
        Ok(sum) => sum.path,
        Err(SpillError::Injected { path, .. }) => path,
        Err(e) => return Err(e),
    };
    let src = SpillSource::open_salvaged(&spill_path)?;
    let profile = TraceProfile::streaming_source(&src, job_time)?;
    Ok((profile, src.report().clone()))
}

/// Demand fractions of one profile run against the (scaled) shared PFS.
/// Server-side counters, so client-cache hits do not count as demand.
fn profile_of(run: &WorkloadRun, pfs_capacity_scale: f64) -> Profile {
    let cfg = GpfsConfig::lassen();
    let cap = pfs_capacity_scale.max(1e-6);
    let data_capacity = cfg.n_data_servers as f64 * cfg.server_bw as f64 * cap;
    let meta_capacity = cfg.n_meta_servers as f64 / cfg.meta_op_cost.as_secs_f64() * cap;
    let s = run.world.storage.pfs().stats();
    let rt = run.runtime().as_secs_f64().max(1e-9);
    Profile {
        runtime: run.runtime(),
        demand: TenantDemand {
            // Cap: a tenant never presents more than 8x the shared
            // capacity, keeping pathological profiles from freezing the
            // fleet's service times.
            data_frac: ((s.bytes_read + s.bytes_written) as f64 / rt / data_capacity).min(8.0),
            meta_frac: (s.meta_ops as f64 / rt / meta_capacity).min(8.0),
        },
    }
}

/// One fleet job's compact outcome. Everything the statistics layer needs,
/// nothing it does not — the trace is dropped inside the scenario closure.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job id (manifest position).
    pub job_id: usize,
    /// Workload id.
    pub workload: String,
    /// Variant the job ran.
    pub variant: JobVariant,
    /// Submission time, seconds.
    pub submit: f64,
    /// Scheduled start, seconds.
    pub start: f64,
    /// Nodes occupied.
    pub nodes: u32,
    /// Total ranks.
    pub n_ranks: u32,
    /// Simulated runtime, seconds (with contention and faults).
    pub runtime: f64,
    /// Mean per-rank I/O-time fraction.
    pub io_time_frac: f64,
    /// Interface-layer bytes read.
    pub read_bytes: u64,
    /// Interface-layer bytes written.
    pub write_bytes: u64,
    /// Interface-layer data operations.
    pub data_ops: u64,
    /// Interface-layer metadata operations.
    pub meta_ops: u64,
    /// Aggregate bandwidth, bytes/second.
    pub agg_bw: f64,
    /// Duration-weighted mean competing data load the job saw.
    pub mean_neighbor_load: f64,
    /// Extra service time tenants cost this job, seconds.
    pub tenant_delay_secs: f64,
    /// PFS operations stretched by competing tenants.
    pub contended_ops: u64,
    /// Fault events absorbed or surfaced.
    pub fault_events: u64,
    /// Restart epochs after crashes.
    pub restart_events: u64,
    /// Runtime / dedicated same-variant profile runtime.
    pub slowdown: f64,
    /// How the job's fleet story ended (always `Completed` in a healthy
    /// fleet; abandoned jobs are not simulated and appear only in the
    /// report's schedules, never in its records).
    pub outcome: super::scheduler::JobOutcome,
    /// Node-outage kills absorbed before the simulated (final) attempt.
    pub retries: u32,
    /// Node-seconds of scheduler-estimated work the outages destroyed
    /// across this job's killed attempts.
    pub lost_work_node_secs: f64,
    /// Fraction of the job's captured trace that survived spill recovery
    /// (1.0 on the in-memory path and for fully durable spills).
    pub trace_complete_frac: f64,
    /// Captured trace records lost to spill faults (0 on the in-memory
    /// path).
    pub trace_lost_records: u64,
}

/// Run the whole fleet. See the module docs for the wave structure.
pub fn fleet_sweep(cfg: &FleetConfig, driver: Driver) -> Result<FleetReport, FleetError> {
    let manifest = build_manifest(cfg)?;

    // Distinct (workload, variant) combos, in `WorkloadKind::ALL` × variant
    // order. Baselines are also profiled for any workload with crashy
    // jobs: the crash instant anchors to the baseline makespan.
    let variants = [
        JobVariant::Baseline,
        JobVariant::Faulted,
        JobVariant::Crashy,
    ];
    let mut combos: Vec<(WorkloadKind, JobVariant)> = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = kind.id();
        for v in variants {
            let present = manifest
                .jobs
                .iter()
                .any(|j| j.workload == w && j.variant == v);
            let crash_anchor = v == JobVariant::Baseline
                && manifest
                    .jobs
                    .iter()
                    .any(|j| j.workload == w && j.variant == JobVariant::Crashy);
            if present || crash_anchor {
                combos.push((kind, v));
            }
        }
    }

    // Wave 1: baseline + faulted profiles on a dedicated machine.
    let (scale, seed, cap) = (cfg.scale, cfg.seed, cfg.pfs_capacity_scale);
    let profile = |kind: WorkloadKind, plan| {
        profile_of(
            &kind.run(scale, seed, plan, InterferenceSchedule::none()),
            cap,
        )
    };
    let w1_combos: Vec<(WorkloadKind, JobVariant)> = combos
        .iter()
        .copied()
        .filter(|(_, v)| *v != JobVariant::Crashy)
        .collect();
    let w1_profiles = driver.map(w1_combos.clone(), |(kind, v)| {
        let plan = match v {
            JobVariant::Faulted => faulted_plan(),
            _ => FaultPlan::none(),
        };
        profile(kind, plan)
    });
    let mut profiles: Vec<((WorkloadKind, JobVariant), Profile)> =
        w1_combos.into_iter().zip(w1_profiles).collect();

    let baseline_runtime = |profiles: &[((WorkloadKind, JobVariant), Profile)], kind| {
        profiles
            .iter()
            .find(|((k, v), _)| *k == kind && *v == JobVariant::Baseline)
            .map(|(_, p)| p.runtime)
            .expect("baseline profile exists for every crashy workload")
    };

    // Wave 1b: crashy profiles, crash instant anchored to wave 1.
    let crashy_combos: Vec<WorkloadKind> = combos
        .iter()
        .filter(|(_, v)| *v == JobVariant::Crashy)
        .map(|(k, _)| *k)
        .collect();
    let w1b_profiles = driver.map(crashy_combos.clone(), |kind| {
        profile(kind, crashy_plan(baseline_runtime(&profiles, kind)))
    });
    profiles.extend(
        crashy_combos
            .iter()
            .map(|&k| (k, JobVariant::Crashy))
            .zip(w1b_profiles),
    );

    let profile_for = |workload: &str, v: JobVariant| -> Profile {
        let kind = parse_workload(workload).expect("validated");
        profiles
            .iter()
            .find(|((k, pv), _)| *k == kind && *pv == v)
            .map(|(_, p)| *p)
            .expect("every manifest combo was profiled")
    };

    // Schedule the manifest onto the shared cluster. A healthy fleet is
    // the empty outage plan: the same event loop, with no kills.
    let submits: Vec<f64> = manifest.jobs.iter().map(|j| j.submit).collect();
    let arrivals = ScheduleArrivals::from_process(&cfg.arrival, &submits);
    let demands: Vec<JobDemand> = manifest
        .jobs
        .iter()
        .map(|j| JobDemand {
            nodes: j.nodes,
            est_runtime: profile_for(&j.workload, j.variant).runtime.as_secs_f64(),
        })
        .collect();
    let degraded = !manifest.node_faults.is_empty();
    let schedules: Vec<JobSchedule> = resilient_schedule(
        cfg.cluster_nodes,
        &demands,
        &arrivals,
        &manifest.node_faults,
        &cfg.sched,
    );
    let placements: Vec<Placement> = schedules.iter().map(JobSchedule::as_placement).collect();
    // The healthy-fleet counterfactual the degraded tables compare
    // against: the same demands scheduled onto a never-failing pool.
    let healthy_placements = if degraded {
        resilient_schedule(
            cfg.cluster_nodes,
            &demands,
            &arrivals,
            &NodeFaultPlan::none(),
            &cfg.sched,
        )
        .iter()
        .map(JobSchedule::as_placement)
        .collect()
    } else {
        placements.clone()
    };
    let tenant_demands: Vec<TenantDemand> = manifest
        .jobs
        .iter()
        .map(|j| profile_for(&j.workload, j.variant).demand)
        .collect();

    // Wave 2: the fleet itself. Abandoned jobs never produced a result,
    // so they are not simulated — their cost shows up in the schedules
    // (lost work, outcome counts), not the records. Killed-then-retried
    // jobs re-enter with deterministically re-derived seeds.
    let simulated: Vec<usize> = (0..manifest.jobs.len())
        .filter(|&i| schedules[i].outcome.completed())
        .collect();
    let records = driver.map(simulated, |i| {
        let job = &manifest.jobs[i];
        let kind = parse_workload(&job.workload).expect("validated");
        let plan = match job.variant {
            JobVariant::Baseline => FaultPlan::none(),
            JobVariant::Faulted => faulted_plan(),
            JobVariant::Crashy => crashy_plan(baseline_runtime(&profiles, kind)),
        };
        let schedule = interference_for_degraded(
            i,
            &schedules,
            &tenant_demands,
            &manifest.node_faults,
            cfg.cluster_nodes,
        );
        let retries = schedules[i].outcome.retries();
        let run = kind.run(
            cfg.scale,
            retry_seed(job.seed, retries),
            plan,
            schedule.clone(),
        );
        // The job's trace is folded where the tracer holds it: the
        // captured columns go to the analyzer as one borrowed batch, with
        // no copy, seal or decode, and are dropped with `run` at the end
        // of the job, so a 10⁴-job fleet holds at most one trace per
        // worker. Every JobRecord field is profile-level or read from the
        // allocation, and the fused profile equals the streaming one bit
        // for bit. With a spill spec the columns detour through an
        // on-disk segment log and the profile covers whatever prefix
        // recovery salvaged; an environmental spill failure (ENOSPC,
        // unwritable dir) falls back to the in-place fold with the trace
        // marked fully non-durable.
        let c = run.columnar_view();
        let captured = c.len() as u64;
        let (p, trace_complete_frac, trace_lost_records) = match &cfg.spill {
            Some(spec) => {
                let path = spec.dir.join(format!("job-{:05}.vsp3", job.id));
                match spilled_profile(c, run.runtime(), &path, spec.fault) {
                    Ok((p, fsck)) => {
                        let durable = fsck.committed_records.min(captured);
                        let frac = if captured == 0 {
                            1.0
                        } else {
                            durable as f64 / captured as f64
                        };
                        (p, frac, captured - durable)
                    }
                    Err(_) => (TraceProfile::fused(c, run.runtime()), 0.0, captured),
                }
            }
            None => (TraceProfile::fused(c, run.runtime()), 1.0, 0),
        };
        let s = run.world.storage.pfs().stats();
        let rt = run.runtime().as_secs_f64();
        let dedicated = profile_for(&job.workload, job.variant)
            .runtime
            .as_secs_f64();
        JobRecord {
            job_id: job.id,
            workload: job.workload.clone(),
            variant: job.variant,
            submit: placements[i].submit,
            start: placements[i].start,
            nodes: run.world.alloc.spec.nodes,
            n_ranks: run.world.alloc.total_ranks(),
            runtime: rt,
            io_time_frac: p.io_time_frac,
            read_bytes: p.read_bytes,
            write_bytes: p.write_bytes,
            data_ops: p.data_ops,
            meta_ops: p.meta_ops,
            agg_bw: (p.read_bytes + p.write_bytes) as f64 / rt.max(1e-9),
            mean_neighbor_load: schedule
                .mean_data_load(SimTime::from_nanos(run.runtime().as_nanos())),
            tenant_delay_secs: s.tenant_delay_nanos as f64 / 1e9,
            contended_ops: s.contended_data_ops + s.contended_meta_ops,
            fault_events: p.fault_events,
            restart_events: p.restart_events,
            slowdown: rt / dedicated.max(1e-9),
            outcome: schedules[i].outcome,
            retries,
            lost_work_node_secs: schedules[i].lost_node_secs(job.nodes),
            trace_complete_frac,
            trace_lost_records,
        }
    });

    let profile_summaries: Vec<ProfileSummary> = profiles
        .iter()
        .map(|((k, v), p)| ProfileSummary {
            workload: k.id().to_string(),
            variant: v.name().to_string(),
            runtime_s: p.runtime.as_secs_f64(),
            data_frac: p.demand.data_frac,
            meta_frac: p.demand.meta_frac,
        })
        .collect();

    let spill = cfg
        .spill
        .as_ref()
        .map(|_| super::stats::SpillFleetStats::from_records(&records));

    Ok(FleetReport {
        scale: cfg.scale,
        seed: cfg.seed,
        manifest,
        placements,
        profiles: profile_summaries,
        records,
        policy: cfg.sched,
        schedules,
        healthy_placements,
        spill,
    })
}
