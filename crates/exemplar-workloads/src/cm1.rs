//! CM1 — atmospheric simulation (paper §III-B1, §IV-A1, Figure 1).
//!
//! Observed behavior being reproduced:
//! * ~20 GiB of configuration reads: 16 MiB files, one per reader rank,
//!   read with large transfers (these achieve the high aggregate bandwidth
//!   of Fig. 1a) and re-read once (init + restart), then broadcast,
//! * ~1 GiB of simulation output written **only by rank 0** in sequential
//!   4 KiB transfers to shared step files that every node leader opens and
//!   closes (Fig. 1b) — the small transfers yield ~64 MiB/s and dominate
//!   I/O time (Fig. 1c),
//! * heavy metadata share: each small write is paired with a seek, and the
//!   leaders' open/close churn adds more (87.5 % of I/O time in metadata).

use crate::harness::{execute, scaled, scaled_nodes, WorkloadKind, WorkloadRun};
use hpc_cluster::engine::{Outcome, RankScript, StepEffect};
use hpc_cluster::mpi::{CollectiveKind, CommId};
use hpc_cluster::topology::RankId;
use io_layers::posix::{self, Fd, OpenFlags, Whence};
use io_layers::world::IoWorld;
use sim_core::units::{KIB, MIB};
use sim_core::{Dur, SimTime};
use storage_sim::{FaultPlan, InterferenceSchedule};

/// CM1 parameters; `default_paper()` matches the paper's run.
#[derive(Debug, Clone)]
pub struct Cm1Params {
    /// Nodes in the job.
    pub nodes: u32,
    /// Ranks per node.
    pub ranks_per_node: u32,
    /// Config files (FPP): the paper observed 737.
    pub n_config_files: u32,
    /// Bytes per config file (16 MiB).
    pub config_bytes: u64,
    /// Transfer size for config reads.
    pub config_xfer: u64,
    /// Shared simulation-output files (37).
    pub n_shared_files: u32,
    /// Total simulation output written by rank 0 (1 GiB).
    pub write_total: u64,
    /// Write transfer size (4 KiB).
    pub write_xfer: u64,
    /// Simulation steps with compute+write alternation.
    pub n_steps: u32,
    /// Compute time per step per rank.
    pub step_compute: Dur,
    /// Fault-injection plan applied to the PFS for this run (empty = none).
    pub faults: FaultPlan,
    /// Competing-tenant load on the shared PFS (empty = dedicated machine).
    pub interference: InterferenceSchedule,
}

impl Cm1Params {
    /// The paper's configuration: 32×40 ranks, 664 s job, 11 % I/O.
    pub(crate) fn paper() -> Self {
        Cm1Params {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: 32,
            ranks_per_node: 40,
            n_config_files: 737,
            config_bytes: 16 * MIB,
            config_xfer: 4 * MIB,
            n_shared_files: 37,
            write_total: 1024 * MIB,
            write_xfer: 4 * KIB,
            n_steps: 12,
            step_compute: Dur::from_secs_f64(49.0),
        }
    }

    /// Scaled-down variant for fast runs; scale 1.0 = paper.
    pub fn scaled(scale: f64) -> Self {
        let p = Self::paper();
        Cm1Params {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: scaled_nodes(p.nodes, scale),
            ranks_per_node: p
                .ranks_per_node
                .min(scaled(p.ranks_per_node as u64, scale.max(0.25), 2) as u32),
            n_config_files: scaled(p.n_config_files as u64, scale, 2) as u32,
            config_bytes: scaled(p.config_bytes, scale.sqrt(), 64 * KIB),
            config_xfer: p
                .config_xfer
                .min(scaled(p.config_bytes, scale.sqrt(), 64 * KIB)),
            n_shared_files: scaled(p.n_shared_files as u64, scale, 2) as u32,
            write_total: scaled(p.write_total, scale, 1 * MIB),
            write_xfer: p.write_xfer,
            n_steps: scaled(p.n_steps as u64, scale.max(0.25), 2) as u32,
            step_compute: Dur::from_secs_f64(p.step_compute.as_secs_f64() * scale.max(0.02)),
        }
    }
}

/// Small writes batched per engine step (rank 0 is the only writer of the
/// shared files, so coarser interleaving does not change contention).
const WRITE_BATCH: u64 = 32;

enum Phase {
    OpenConfig,
    ReadConfig { fd: Fd, pass: u8, off: u64 },
    CloseConfig { fd: Fd },
    Bcast,
    StepCompute { step: u32 },
    StepOpen { step: u32 },
    StepWrite { step: u32, fd: Fd, off: u64 },
    StepClose { step: u32, fd: Fd },
    StepBarrier { step: u32 },
    Done,
}

struct Cm1Script {
    p: Cm1Params,
    phase: Phase,
    /// First step to run: 0 on a cold start, the durable-checkpoint count
    /// when the harness relaunches after a crash (each completed step file
    /// is a durable checkpoint).
    start_step: u32,
    /// Start of the in-flight step-file write sequence (rank 0 only);
    /// closes the `Checkpoint` span when the step file goes durable.
    ckpt_begin: SimTime,
}

impl Cm1Script {
    fn shared_path(&self, step: u32) -> String {
        format!(
            "/p/gpfs1/cm1/out/cm1out_{:06}.dat",
            step % self.p.n_shared_files
        )
    }

    fn per_step_bytes(&self) -> u64 {
        (self.p.write_total / self.p.n_steps as u64).max(self.p.write_xfer)
    }
}

impl RankScript<IoWorld> for Cm1Script {
    fn next_step(&mut self, w: &mut IoWorld, rank: RankId, now: SimTime) -> StepEffect {
        let is_reader = (rank.0) < self.p.n_config_files;
        let is_leader = w.alloc.is_node_leader(rank);
        let is_writer = rank.0 == 0;
        loop {
            match self.phase {
                Phase::OpenConfig => {
                    if !is_reader {
                        self.phase = Phase::Bcast;
                        continue;
                    }
                    let path = format!("/p/gpfs1/cm1/config/input_{:04}.cfg", rank.0);
                    let (fd, t) = posix::open(w, rank, &path, OpenFlags::read_only(), now);
                    let fd = fd.expect("config file staged");
                    self.phase = Phase::ReadConfig {
                        fd,
                        pass: 0,
                        off: 0,
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::ReadConfig { fd, pass, off } => {
                    if off >= self.p.config_bytes {
                        if pass == 0 {
                            // Restart pass: re-read from the start.
                            let (_, t) = posix::lseek(w, rank, fd, 0, Whence::Set, now);
                            self.phase = Phase::ReadConfig {
                                fd,
                                pass: 1,
                                off: 0,
                            };
                            return StepEffect::busy_until(t);
                        }
                        self.phase = Phase::CloseConfig { fd };
                        continue;
                    }
                    let (n, t) = posix::read(w, rank, fd, self.p.config_xfer, now);
                    let n = n.expect("config read");
                    self.phase = Phase::ReadConfig {
                        fd,
                        pass,
                        off: off + n.max(1),
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::CloseConfig { fd } => {
                    let (_, t) = posix::close(w, rank, fd, now);
                    self.phase = Phase::Bcast;
                    return StepEffect::busy_until(t);
                }
                Phase::Bcast => {
                    self.phase = Phase::StepCompute {
                        step: self.start_step,
                    };
                    return StepEffect {
                        outcome: Outcome::Collective {
                            comm: CommId::WORLD,
                            kind: CollectiveKind::Bcast,
                            bytes: self.p.config_bytes.min(16 * MIB),
                        },
                        open_gates: vec![],
                    };
                }
                Phase::StepCompute { step } => {
                    if step >= self.p.n_steps {
                        self.phase = Phase::Done;
                        continue;
                    }
                    let t = w.compute(rank, self.p.step_compute, now);
                    self.phase = Phase::StepOpen { step };
                    return StepEffect::busy_until(t);
                }
                Phase::StepOpen { step } => {
                    if !is_leader {
                        self.phase = Phase::StepBarrier { step };
                        continue;
                    }
                    if is_writer {
                        self.ckpt_begin = now;
                    }
                    let path = self.shared_path(step);
                    let (fd, t) = posix::open(
                        w,
                        rank,
                        &path,
                        if is_writer {
                            OpenFlags::read_write()
                        } else {
                            OpenFlags {
                                create: true,
                                write: true,
                                ..Default::default()
                            }
                        },
                        now,
                    );
                    let fd = match fd {
                        Ok(f) => f,
                        Err(_) => {
                            // First opener creates it.
                            let (f2, t2) =
                                posix::open(w, rank, &path, OpenFlags::write_create(), now);
                            let f2 = f2.expect("create step file");
                            self.phase = if is_writer {
                                Phase::StepWrite {
                                    step,
                                    fd: f2,
                                    off: 0,
                                }
                            } else {
                                Phase::StepClose { step, fd: f2 }
                            };
                            return StepEffect::busy_until(t2);
                        }
                    };
                    self.phase = if is_writer {
                        Phase::StepWrite { step, fd, off: 0 }
                    } else {
                        Phase::StepClose { step, fd }
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::StepWrite { step, fd, off } => {
                    let total = self.per_step_bytes();
                    if off >= total {
                        self.phase = Phase::StepClose { step, fd };
                        continue;
                    }
                    // The 3D in-memory array is emitted as seek+4 KiB-write
                    // pairs; batch a few per engine step.
                    let mut t = now;
                    let mut o = off;
                    for _ in 0..WRITE_BATCH {
                        if o >= total {
                            break;
                        }
                        let (_, t2) = posix::lseek(w, rank, fd, o as i64, Whence::Set, t);
                        let (res, t3) =
                            posix::write_pattern(w, rank, fd, self.p.write_xfer, 11, t2);
                        res.expect("step write");
                        t = t3;
                        o += self.p.write_xfer;
                    }
                    self.phase = Phase::StepWrite { step, fd, off: o };
                    return StepEffect::busy_until(t);
                }
                Phase::StepClose { step, fd } => {
                    let (_, t) = posix::close(w, rank, fd, now);
                    if is_writer {
                        // The step file is durable: mark the checkpoint the
                        // harness restarts from (span = open → close).
                        use recorder_sim::record::{Layer, OpKind};
                        w.trace_io(
                            rank,
                            Layer::App,
                            OpKind::Checkpoint,
                            self.ckpt_begin,
                            t,
                            None,
                            0,
                            0,
                        );
                    }
                    self.phase = Phase::StepBarrier { step };
                    return StepEffect::busy_until(t);
                }
                Phase::StepBarrier { step } => {
                    self.phase = Phase::StepCompute { step: step + 1 };
                    return StepEffect {
                        outcome: Outcome::Collective {
                            comm: CommId::WORLD,
                            kind: CollectiveKind::Barrier,
                            bytes: 0,
                        },
                        open_gates: vec![],
                    };
                }
                Phase::Done => return StepEffect::done(),
            }
        }
    }
}

/// Stage the config files into the PFS (they pre-exist the job).
fn stage_inputs(world: &mut IoWorld, p: &Cm1Params) {
    let store = world.storage.pfs_mut().store_mut();
    // CM1's atmospheric state variables are normally distributed (Table VI);
    // stage a value prefix the analyzer's distribution fitting can sample.
    // Every config file shares one copy of it.
    let prefix = std::sync::Arc::new(sim_core::stats::synth_bytes(
        sim_core::stats::DistributionFit::Normal,
        0xC1,
        16384,
    ));
    for i in 0..p.n_config_files {
        let path = format!("/p/gpfs1/cm1/config/input_{i:04}.cfg");
        let key = store.create(&path, false).expect("stage config");
        store
            .write(
                key,
                0,
                storage_sim::file::Segment::Pattern {
                    seed: 0xC1 + i as u64,
                    len: p.config_bytes,
                },
            )
            .expect("stage config body");
        store
            .write(key, 1024, storage_sim::file::Segment::Bytes(prefix.clone()))
            .expect("stage config prefix");
    }
    store.mkdirs("/p/gpfs1/cm1/out").expect("mkdir out");
}

/// Run CM1 at the given scale (1.0 = paper run).
pub fn run(scale: f64, seed: u64) -> WorkloadRun {
    let p = Cm1Params::scaled(scale);
    run_with(p, scale, seed)
}

/// Run CM1 with explicit parameters.
pub fn run_with(p: Cm1Params, scale: f64, seed: u64) -> WorkloadRun {
    let mut world = IoWorld::lassen(p.nodes, p.ranks_per_node, seed);
    // Pre-size the capture columns: every rank opens/reads/closes one
    // config file, rank 0 streams write_total in write_xfer chunks across
    // the shared output files, plus one collective per step.
    let ranks = (p.nodes * p.ranks_per_node) as u64;
    world.tracer.reserve(
        (ranks * (4 + p.config_bytes / p.config_xfer.max(1))
            + p.write_total / p.write_xfer.max(1)
            + p.n_shared_files as u64 * 2
            + p.n_steps as u64) as usize,
    );
    stage_inputs(&mut world, &p);
    let n = world.alloc.total_ranks();
    // Every launch (cold start or post-crash relaunch) re-reads the config
    // and resumes at the first step without a durable step file.
    execute(
        WorkloadKind::Cm1,
        scale,
        world,
        p.faults.clone(),
        p.interference.clone(),
        vec![],
        move |ckpts_done, _epoch| {
            (0..n)
                .map(|_| {
                    Box::new(Cm1Script {
                        p: p.clone(),
                        phase: Phase::OpenConfig,
                        start_step: ckpts_done as u32,
                        ckpt_begin: SimTime::ZERO,
                    }) as Box<dyn RankScript<IoWorld>>
                })
                .collect()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder_sim::record::{Layer, OpKind};

    fn tiny() -> WorkloadRun {
        run(0.02, 42)
    }

    #[test]
    fn only_rank0_writes_simulation_data() {
        let run = tiny();
        let c = run.columnar();
        let writes = c.select(|i| c.op[i] == OpKind::Write && c.layer[i] == Layer::Posix);
        assert!(!writes.is_empty());
        assert!(writes.iter().all(|&i| c.rank[i as usize] == 0));
    }

    #[test]
    fn many_ranks_read_config() {
        let run = tiny();
        let c = run.columnar();
        let reads = c.select(|i| c.op[i] == OpKind::Read);
        let readers: std::collections::HashSet<u32> =
            reads.iter().map(|&i| c.rank[i as usize]).collect();
        assert!(readers.len() > 1, "multiple ranks read config files");
    }

    #[test]
    fn reads_dwarf_writes_in_bytes() {
        let run = tiny();
        let c = run.columnar();
        let rbytes = c.sum_bytes(&c.select(|i| c.op[i] == OpKind::Read));
        let wbytes = c.sum_bytes(&c.select(|i| c.op[i] == OpKind::Write));
        // At paper scale the ratio is 20:1; the scaled-down job keeps the
        // direction (reads dominate) even with far fewer reader ranks.
        assert!(
            2 * rbytes > 3 * wbytes,
            "reads {rbytes} should beat writes {wbytes}"
        );
    }

    #[test]
    fn writes_are_small_reads_are_large() {
        let run = tiny();
        let c = run.columnar();
        let writes = c.select(|i| c.op[i] == OpKind::Write && c.bytes[i] > 0);
        let reads = c.select(|i| c.op[i] == OpKind::Read && c.bytes[i] > 0);
        let avg_w = c.sum_bytes(&writes) / writes.len() as u64;
        let avg_r = c.sum_bytes(&reads) / reads.len() as u64;
        assert!(avg_w <= 4 * KIB, "write transfer {avg_w} should be 4 KiB");
        assert!(avg_r >= 32 * KIB, "read transfer {avg_r} should be large");
    }

    #[test]
    fn metadata_ops_dominate_op_mix() {
        let run = tiny();
        let c = run.columnar();
        let posix = c.select(|i| c.layer[i] == Layer::Posix && c.op[i].is_io());
        let meta = posix
            .iter()
            .filter(|&&i| c.op[i as usize].is_meta())
            .count();
        let frac = meta as f64 / posix.len() as f64;
        // Paper: ~70 % of CM1 operations are metadata (Table III).
        assert!(frac > 0.35, "metadata fraction {frac} too low");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(0.01, 7);
        let b = run(0.01, 7);
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.world.tracer.len(), b.world.tracer.len());
    }

    #[test]
    fn every_completed_step_marks_a_durable_checkpoint() {
        let run = tiny();
        let c = run.columnar();
        let ckpts = c.select(|i| c.op[i] == OpKind::Checkpoint);
        assert_eq!(ckpts.len() as u32, Cm1Params::scaled(0.02).n_steps);
        assert!(ckpts.iter().all(|&i| c.rank[i as usize] == 0));
    }

    #[test]
    fn rank_crash_restarts_from_last_step_checkpoint() {
        let healthy = run(0.02, 42);
        let mid = sim_core::SimTime::from_nanos(healthy.report.makespan.as_nanos() / 2);
        let crashed = || {
            let mut p = Cm1Params::scaled(0.02);
            p.faults = FaultPlan::none().with_rank_crash(3, mid);
            run_with(p, 0.02, 42)
        };
        let a = crashed();
        let c = a.columnar();
        let crash = c.select(|i| c.op[i] == OpKind::Crash);
        let restart = c.select(|i| c.op[i] == OpKind::RestartEpoch);
        assert_eq!(crash.len(), 1, "one crash event");
        assert_eq!(restart.len(), 1, "one restart epoch");
        assert_eq!(
            c.rank[crash[0] as usize], 3,
            "crash attributed to the dead rank"
        );
        // Lost work is re-run after a restart delay, so the job takes longer.
        assert!(a.report.makespan > healthy.report.makespan);
        // Every step still completed (checkpoints are cumulative; none re-run).
        let ckpts = c.select(|i| c.op[i] == OpKind::Checkpoint);
        assert_eq!(ckpts.len() as u32, Cm1Params::scaled(0.02).n_steps);
        // And the recovery path is bit-deterministic.
        let b = crashed();
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.columnar(), b.columnar());
    }

    #[test]
    fn node_crash_kills_and_recovers_too() {
        let mut p = Cm1Params::scaled(0.02);
        p.faults = FaultPlan::none().with_node_crash(0, sim_core::SimTime::from_secs(2));
        let run = run_with(p, 0.02, 42);
        let c = run.columnar();
        assert_eq!(c.select(|i| c.op[i] == OpKind::Crash).len(), 1);
        assert_eq!(c.select(|i| c.op[i] == OpKind::RestartEpoch).len(), 1);
    }
}
