//! Shared machinery for running workload skeletons through the engine,
//! including the crash-recovery supervisor that relaunches a killed job
//! from its last durable checkpoint.

use hpc_cluster::engine::{Engine, EngineReport, RankScript, RunHalt};
use hpc_cluster::mpi::MpiCostModel;
use hpc_cluster::topology::{ClusterSpec, RankId};
use io_layers::world::IoWorld;
use recorder_sim::record::{Layer, OpKind};
use recorder_sim::ColumnarTrace;
use sim_core::{Dur, SimTime};
use storage_sim::faults::{CrashEvent, CrashScope};

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

/// Drive a prepared world + scripts to completion.
pub fn execute(
    kind: WorkloadKind,
    scale: f64,
    world: IoWorld,
    scripts: Vec<Box<dyn RankScript<IoWorld>>>,
    comms: Vec<hpc_cluster::mpi::Communicator>,
) -> WorkloadRun {
    let cost = MpiCostModel::from_node(&ClusterSpec::lassen().node);
    let mut engine = Engine::new(world, scripts, cost);
    for c in comms {
        engine.add_comm(c);
    }
    // A generous cap that still catches runaway scripts.
    engine.set_max_steps(200_000_000);
    // A deadlock here is a bug in the workload script, not a recoverable
    // condition — surface the rank → gate diagnostic and abort.
    let report = engine.run().unwrap_or_else(|e| panic!("{e}"));
    WorkloadRun {
        kind,
        scale,
        report,
        world: engine.into_world(),
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

/// Drive a workload to completion under a crash plan, restarting the job
/// from its last durable checkpoint after every kill.
///
/// `make_scripts(ckpts_done, epoch)` builds the rank scripts for one launch:
/// `ckpts_done` is the number of durable checkpoints visible in the trace
/// (the resume point) and `epoch` the zero-based launch attempt. Each crash
/// appends a `Crash` record spanning the work lost (last durable checkpoint
/// → instant of death) and a `RestartEpoch` record spanning the recovery
/// latency, then relaunches on the surviving world: the parallel file
/// system — and the trace — persist across job launches, while every
/// per-process descriptor and stdio stream table is torn down with the
/// dead processes.
///
/// With no crash events this is exactly [`execute`]: one launch at
/// `SimTime::ZERO`, bit-identical output.
pub(crate) fn execute_with_recovery(
    kind: WorkloadKind,
    scale: f64,
    world: IoWorld,
    crashes: &[CrashEvent],
    make_scripts: impl Fn(u64, u32) -> Vec<Box<dyn RankScript<IoWorld>>>,
) -> WorkloadRun {
    let mut events = crashes.to_vec();
    events.sort_by_key(|e| (e.at, e.scope.order_key()));
    let mut world = world;
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
        engine.set_max_steps(200_000_000);
        if let Some((victim, at)) = armed {
            engine.set_crash(victim, at);
        }
        match engine.run_checked() {
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

    #[test]
    fn workload_names_match_paper_headers() {
        let names: Vec<&str> = [
            WorkloadKind::Cm1,
            WorkloadKind::Hacc,
            WorkloadKind::Cosmoflow,
            WorkloadKind::Jag,
            WorkloadKind::MontageMpi,
            WorkloadKind::MontagePegasus,
        ]
        .iter()
        .map(|w| w.name())
        .collect();
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
