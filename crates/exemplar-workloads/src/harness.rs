//! Shared machinery for running workload skeletons through the engine:
//! the job launcher [`WorkloadKind::run`], which turns a kind, scale, seed
//! and set of storage conditions into a run, and the crash-recovery
//! supervisor that relaunches a killed job from its last durable
//! checkpoint.

use crate::{cm1, cosmoflow, hacc, ior, jag, montage, montage_pegasus};
use hpc_cluster::engine::{Engine, EngineReport, RankScript, RunHalt};
use hpc_cluster::mpi::{Communicator, MpiCostModel};
use hpc_cluster::topology::{ClusterSpec, RankId};
use io_layers::world::IoWorld;
use recorder_sim::record::{Layer, OpKind};
use recorder_sim::ColumnarTrace;
use sim_core::{Dur, SimTime};
use storage_sim::faults::{CrashScope, FaultPlan};
use storage_sim::InterferenceSchedule;

/// The six exemplar workloads (plus the IOR calibrator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// CM1 atmospheric simulation.
    Cm1,
    /// HACC-IO checkpoint/restart kernel (file per process).
    Hacc,
    /// CosmoFlow deep-learning input pipeline.
    Cosmoflow,
    /// JAG ICF surrogate model.
    Jag,
    /// Montage mosaic workflow, MPI flavor.
    MontageMpi,
    /// Montage mosaic workflow, Pegasus flavor.
    MontagePegasus,
    /// IOR-like synthetic calibrator.
    Ior,
}

impl WorkloadKind {
    /// Every kind, in the order of the fleet's `KNOWN_WORKLOADS` ids.
    pub const ALL: [WorkloadKind; 7] = [
        WorkloadKind::Cm1,
        WorkloadKind::Hacc,
        WorkloadKind::Cosmoflow,
        WorkloadKind::Jag,
        WorkloadKind::MontageMpi,
        WorkloadKind::MontagePegasus,
        WorkloadKind::Ior,
    ];

    /// The id fleet mixes, manifests and sweep scenarios name the kind by.
    pub fn id(&self) -> &'static str {
        match self {
            WorkloadKind::Cm1 => "cm1",
            WorkloadKind::Hacc => "hacc",
            WorkloadKind::Cosmoflow => "cosmoflow",
            WorkloadKind::Jag => "jag",
            WorkloadKind::MontageMpi => "montage-mpi",
            WorkloadKind::MontagePegasus => "montage-pegasus",
            WorkloadKind::Ior => "ior",
        }
    }

    /// Nodes the kind occupies at `scale` (from its scaled parameter set).
    pub fn nodes(&self, scale: f64) -> u32 {
        match self {
            WorkloadKind::Cm1 => cm1::Cm1Params::scaled(scale).nodes,
            WorkloadKind::Hacc => hacc::HaccParams::scaled(scale).nodes,
            WorkloadKind::Cosmoflow => cosmoflow::CosmoflowParams::scaled(scale).nodes,
            WorkloadKind::Jag => jag::JagParams::scaled(scale).nodes,
            WorkloadKind::MontageMpi => montage::MontageParams::scaled(scale).nodes,
            WorkloadKind::MontagePegasus => montage_pegasus::PegasusParams::scaled(scale).nodes,
            WorkloadKind::Ior => ior::IorParams::scaled(scale).nodes,
        }
    }

    /// Launch one job: the kind's scaled parameter set at `scale` and
    /// `seed`, with the storage conditions `faults` and `interference`
    /// installed. With [`FaultPlan::none`] and
    /// [`InterferenceSchedule::none`] this is the module's own `run`.
    pub fn run(
        &self,
        scale: f64,
        seed: u64,
        faults: FaultPlan,
        interference: InterferenceSchedule,
    ) -> WorkloadRun {
        match self {
            WorkloadKind::Cm1 => {
                let mut p = cm1::Cm1Params::scaled(scale);
                p.faults = faults;
                p.interference = interference;
                cm1::run_with(p, scale, seed)
            }
            WorkloadKind::Hacc => {
                let mut p = hacc::HaccParams::scaled(scale);
                p.faults = faults;
                p.interference = interference;
                hacc::run_with(p, scale, seed)
            }
            WorkloadKind::Cosmoflow => {
                let mut p = cosmoflow::CosmoflowParams::scaled(scale);
                p.faults = faults;
                p.interference = interference;
                cosmoflow::run_with(p, scale, seed)
            }
            WorkloadKind::Jag => {
                let mut p = jag::JagParams::scaled(scale);
                p.faults = faults;
                p.interference = interference;
                jag::run_with(p, scale, seed)
            }
            WorkloadKind::MontageMpi => {
                let mut p = montage::MontageParams::scaled(scale);
                p.faults = faults;
                p.interference = interference;
                montage::run_with(p, scale, seed)
            }
            WorkloadKind::MontagePegasus => {
                let mut p = montage_pegasus::PegasusParams::scaled(scale);
                p.faults = faults;
                p.interference = interference;
                montage_pegasus::run_with(p, scale, seed)
            }
            WorkloadKind::Ior => {
                let mut p = ior::IorParams::scaled(scale);
                p.faults = faults;
                p.interference = interference;
                ior::run(p, seed)
            }
        }
    }

    /// Display name matching the paper's table headers.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Cm1 => "CM1",
            WorkloadKind::Hacc => "HACC (FPP)",
            WorkloadKind::Cosmoflow => "Cosmoflow",
            WorkloadKind::Jag => "JAG",
            WorkloadKind::MontageMpi => "Montage MPI",
            WorkloadKind::MontagePegasus => "Montage Pegasus",
            WorkloadKind::Ior => "IOR",
        }
    }

    /// The application name every rank of the job reports (the paper's
    /// application entity).
    pub fn app(&self) -> &'static str {
        match self {
            WorkloadKind::Cm1 => "cm1",
            WorkloadKind::Hacc => "hacc-io",
            WorkloadKind::Cosmoflow => "cosmoflow",
            WorkloadKind::Jag => "jag-icf",
            WorkloadKind::MontageMpi => "montage",
            WorkloadKind::MontagePegasus => "pegasus-mpi-cluster",
            WorkloadKind::Ior => "ior",
        }
    }
}

/// A completed workload execution: the run report plus the world holding
/// the captured trace and storage counters.
pub struct WorkloadRun {
    /// Which workload ran.
    pub kind: WorkloadKind,
    /// Scale factor it ran at (1.0 = paper scale).
    pub scale: f64,
    /// Engine report (makespan = job runtime).
    pub report: EngineReport,
    /// The world: trace, storage, allocation.
    pub world: IoWorld,
}

impl WorkloadRun {
    /// The job runtime.
    pub fn runtime(&self) -> Dur {
        self.report.makespan.since(SimTime::ZERO)
    }

    /// Owned copy of the captured columns. The tracer captures straight
    /// into columnar storage, so this is a per-column memcpy — no row
    /// materialization or transpose. Prefer [`Self::columnar_view`] when a
    /// borrow suffices.
    pub fn columnar(&self) -> ColumnarTrace {
        self.world.tracer.to_columnar()
    }

    /// Zero-copy borrow of the captured columns.
    pub fn columnar_view(&self) -> &ColumnarTrace {
        self.world.tracer.columnar()
    }
}

/// Wall-clock charged between a crash and the relaunched job's first event:
/// scheduler requeue plus application relaunch. Fixed so recovery latency is
/// deterministic.
pub fn restart_delay() -> Dur {
    Dur::from_secs(30)
}

/// Resolve a crash scope to the rank whose death kills the job (MPI
/// semantics: one fatal rank aborts every rank). `None` means the event
/// does not land inside this job's allocation and is a no-op.
fn crash_victim(world: &IoWorld, scope: CrashScope) -> Option<RankId> {
    let n = world.alloc.total_ranks();
    match scope {
        CrashScope::Rank(r) if r < n => Some(RankId(r)),
        CrashScope::Rank(_) => None,
        CrashScope::Node(nd) => (0..n).map(RankId).find(|&r| world.node_of(r).0 == nd),
    }
}

/// Count of durable checkpoints in the captured trace plus the instant the
/// most recent one became durable. A crashed epoch's in-flight checkpoint
/// never appears here: its `Checkpoint` marker is only recorded at close.
fn checkpoint_state(world: &IoWorld) -> (u64, Option<SimTime>) {
    let c = world.tracer.columnar();
    let mut count = 0u64;
    let mut last_end = None;
    for i in 0..c.op.len() {
        if c.op[i] == OpKind::Checkpoint {
            count += 1;
            last_end = Some(SimTime::from_nanos(c.end[i]));
        }
    }
    (count, last_end)
}

/// Drive a workload to completion, restarting the job after every crash.
///
/// The job's storage conditions are installed on the world first: the
/// fault plan and the competing-tenant schedule on the PFS, and
/// [`WorkloadKind::app`] as every rank's application name.
/// `make_scripts(ckpts_done, epoch)` builds the rank scripts for one launch:
/// `ckpts_done` is the number of durable checkpoints visible in the trace
/// (the resume point; a workload without checkpoints ignores it and starts
/// over) and `epoch` the zero-based launch attempt. Every launch gets a
/// fresh copy of `comms`. Each crash in `faults` appends a `Crash` record
/// spanning the work lost (last durable checkpoint → instant of death) and
/// a `RestartEpoch` record spanning the recovery latency, then relaunches
/// on the surviving world: the parallel file system — and the trace —
/// persist across job launches, while every per-process descriptor and
/// stdio stream table is torn down with the dead processes.
///
/// Without crash events this is one launch at `SimTime::ZERO`.
///
/// # Panics
/// Panics on a deadlock, which is a bug in the workload script rather than
/// a recoverable condition, with the rank → gate diagnostic.
pub fn execute(
    kind: WorkloadKind,
    scale: f64,
    mut world: IoWorld,
    faults: FaultPlan,
    interference: InterferenceSchedule,
    comms: Vec<Communicator>,
    make_scripts: impl Fn(u64, u32) -> Vec<Box<dyn RankScript<IoWorld>>>,
) -> WorkloadRun {
    let events = faults.crashes_sorted();
    world.storage.pfs_mut().set_fault_plan(faults);
    world.storage.pfs_mut().set_interference(interference);
    for r in world.alloc.ranks().collect::<Vec<_>>() {
        world.set_app(r, kind.app());
    }
    let mut next_event = 0usize;
    let mut epoch: u32 = 0;
    let mut launch_at = SimTime::ZERO;
    loop {
        // Arm the earliest crash that can still hit this launch. Events in
        // the past (inside a dead epoch or a recovery window) and events
        // outside the allocation are consumed without effect.
        let mut armed: Option<(RankId, SimTime)> = None;
        while next_event < events.len() {
            let ev = events[next_event];
            if ev.at < launch_at {
                next_event += 1;
                continue;
            }
            match crash_victim(&world, ev.scope) {
                Some(victim) => {
                    armed = Some((victim, ev.at));
                    break;
                }
                None => next_event += 1,
            }
        }
        let (ckpts_done, _) = checkpoint_state(&world);
        let scripts = make_scripts(ckpts_done, epoch);
        let cost = MpiCostModel::from_node(&ClusterSpec::lassen().node);
        let mut engine = Engine::new_at(world, scripts, cost, launch_at);
        for c in &comms {
            engine.add_comm(c.clone());
        }
        // A generous cap that still catches runaway scripts.
        engine.set_max_steps(200_000_000);
        if let Some((victim, at)) = armed {
            engine.set_crash(victim, at);
        }
        match engine.run() {
            Ok(report) => {
                return WorkloadRun {
                    kind,
                    scale,
                    report,
                    world: engine.into_world(),
                }
            }
            Err(RunHalt::Deadlock(d)) => panic!("{d}"),
            Err(RunHalt::Crashed { rank, at }) => {
                next_event += 1;
                world = engine.into_world();
                // Work lost: everything since the last durable checkpoint,
                // *including* checkpoints the crashed epoch itself made
                // durable, clamped to this launch (earlier epochs' work is
                // already checkpointed or already counted lost).
                let (_, last_ckpt_end) = checkpoint_state(&world);
                let lost_from = last_ckpt_end
                    .map_or(launch_at, |c| c.max(launch_at))
                    .min(at);
                world.trace_io(rank, Layer::App, OpKind::Crash, lost_from, at, None, 0, 0);
                let relaunch = at + restart_delay();
                world.trace_io(
                    rank,
                    Layer::App,
                    OpKind::RestartEpoch,
                    at,
                    relaunch,
                    None,
                    0,
                    0,
                );
                // The processes died with the job; open descriptors and
                // buffered stdio streams do not survive into the next epoch.
                for p in &mut world.procs {
                    p.fds.clear();
                }
                for s in &mut world.stdio_streams {
                    *s = io_layers::stdio::StreamTable::default();
                }
                launch_at = relaunch;
                epoch += 1;
            }
        }
    }
}

/// Scale a count, keeping at least `min`.
pub(crate) fn scaled(n: u64, scale: f64, min: u64) -> u64 {
    ((n as f64 * scale).round() as u64).max(min)
}

/// Scale a node count within the cluster's limits.
pub(crate) fn scaled_nodes(n: u32, scale: f64) -> u32 {
    ((n as f64 * scale.min(1.0)).round() as u32).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_clamps_to_minimum() {
        assert_eq!(scaled(1000, 0.5, 1), 500);
        assert_eq!(scaled(3, 0.001, 1), 1);
        assert_eq!(scaled(3, 0.001, 2), 2);
    }

    #[test]
    fn scaled_nodes_never_exceeds_full() {
        assert_eq!(scaled_nodes(32, 1.0), 32);
        assert_eq!(scaled_nodes(32, 2.0), 32);
        assert_eq!(scaled_nodes(32, 0.05), 2);
        assert_eq!(scaled_nodes(32, 0.0001), 1);
    }

    /// The launcher adds nothing to a healthy run: every kind launched
    /// with no faults and no competing tenants captures the columns and
    /// reaches the runtime of its module's own `run`, on the nodes
    /// [`WorkloadKind::nodes`] reports.
    #[test]
    fn launcher_matches_the_per_module_runs() {
        for k in WorkloadKind::ALL {
            let s = if k == WorkloadKind::Cosmoflow {
                0.001
            } else {
                0.01
            };
            let direct = match k {
                WorkloadKind::Cm1 => cm1::run(s, 3),
                WorkloadKind::Hacc => hacc::run(s, 3),
                WorkloadKind::Cosmoflow => cosmoflow::run(s, 3),
                WorkloadKind::Jag => jag::run(s, 3),
                WorkloadKind::MontageMpi => montage::run(s, 3),
                WorkloadKind::MontagePegasus => montage_pegasus::run(s, 3),
                WorkloadKind::Ior => ior::run(ior::IorParams::scaled(s), 3),
            };
            let launched = k.run(s, 3, FaultPlan::none(), InterferenceSchedule::none());
            assert_eq!(launched.kind, k);
            assert_eq!(launched.runtime(), direct.runtime(), "{}", k.id());
            assert_eq!(
                launched.columnar_view(),
                direct.columnar_view(),
                "{}",
                k.id()
            );
            assert_eq!(launched.world.alloc.spec.nodes, k.nodes(s), "{}", k.id());
        }
    }

    #[test]
    fn workload_names_match_paper_headers() {
        let names: Vec<&str> = WorkloadKind::ALL[..6].iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "CM1",
                "HACC (FPP)",
                "Cosmoflow",
                "JAG",
                "Montage MPI",
                "Montage Pegasus"
            ]
        );
    }
}
