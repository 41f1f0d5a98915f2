//! HACC-IO — cosmology checkpoint/restart kernel (paper §III-B2, §IV-A2,
//! Figure 2).
//!
//! File-per-process POSIX: every rank writes nine 1-D variables totalling
//! 632 MiB into its own file in 16 MiB sequential transfers, then reads the
//! checkpoint back to emulate restart. The file is opened and closed once
//! per variable per phase (the repeated open/close of Fig. 2b), and a seek
//! precedes every transfer — together that makes metadata ≈ 50 % of I/O
//! operations (4× more metadata ops than reads or writes alone). Per-rank
//! bandwidth varies under server contention (Fig. 2c).

use crate::harness::{execute, scaled, scaled_nodes, WorkloadKind, WorkloadRun};
use hpc_cluster::engine::{Outcome, RankScript, StepEffect};
use hpc_cluster::mpi::{CollectiveKind, CommId};
use hpc_cluster::topology::RankId;
use io_layers::posix::{self, Fd, OpenFlags, Whence};
use io_layers::world::IoWorld;
use sim_core::units::MIB;
use sim_core::{Dur, SimTime};
use storage_sim::{FaultPlan, InterferenceSchedule};

/// HACC-IO parameters.
#[derive(Debug, Clone)]
pub struct HaccParams {
    /// Nodes in the job.
    pub nodes: u32,
    /// Ranks per node.
    pub ranks_per_node: u32,
    /// Number of variables (9 in the benchmark).
    pub n_vars: u32,
    /// Bytes per rank across all variables (632 MiB).
    pub bytes_per_rank: u64,
    /// Transfer granularity (16 MiB).
    pub xfer: u64,
    /// In-memory data generation time before the checkpoint.
    pub gen_compute: Dur,
    /// Fault-injection plan applied to the PFS for this run (empty = none).
    pub faults: FaultPlan,
    /// Competing-tenant load on the shared PFS (empty = dedicated machine).
    pub interference: InterferenceSchedule,
}

impl HaccParams {
    /// Paper configuration: 1280 ranks, 33 s job, 75 % I/O time.
    pub(crate) fn paper() -> Self {
        HaccParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: 32,
            ranks_per_node: 40,
            n_vars: 9,
            bytes_per_rank: 632 * MIB,
            xfer: 16 * MIB,
            gen_compute: Dur::from_secs_f64(8.0),
        }
    }

    /// Scaled-down variant.
    pub fn scaled(scale: f64) -> Self {
        let p = Self::paper();
        HaccParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: scaled_nodes(p.nodes, scale),
            ranks_per_node: p
                .ranks_per_node
                .min(scaled(p.ranks_per_node as u64, scale.max(0.1), 2) as u32),
            n_vars: p.n_vars,
            bytes_per_rank: scaled(p.bytes_per_rank, scale, 2 * MIB),
            xfer: p
                .xfer
                .min(scaled(p.bytes_per_rank, scale, 2 * MIB) / 2)
                .max(MIB / 4),
            gen_compute: Dur::from_secs_f64(p.gen_compute.as_secs_f64() * scale.max(0.02)),
        }
    }

    fn var_bytes(&self) -> u64 {
        (self.bytes_per_rank / self.n_vars as u64).max(self.xfer.min(self.bytes_per_rank))
    }
}

enum Phase {
    Generate,
    /// Checkpoint (pass 0) then restart (pass 1): per variable, open →
    /// seek → transfers → close.
    VarOpen {
        pass: u8,
        var: u32,
    },
    VarIo {
        pass: u8,
        var: u32,
        fd: Fd,
        off: u64,
    },
    VarClose {
        pass: u8,
        var: u32,
        fd: Fd,
    },
    FinalBarrier,
    Done,
}

struct HaccScript {
    p: HaccParams,
    phase: Phase,
}

impl HaccScript {
    fn path(&self, rank: RankId) -> String {
        format!("/p/gpfs1/hacc/restart/ckpt.{:05}", rank.0)
    }
}

impl RankScript<IoWorld> for HaccScript {
    fn next_step(&mut self, w: &mut IoWorld, rank: RankId, now: SimTime) -> StepEffect {
        loop {
            match self.phase {
                Phase::Generate => {
                    let t = w.compute(rank, self.p.gen_compute, now);
                    self.phase = Phase::VarOpen { pass: 0, var: 0 };
                    return StepEffect::busy_until(t);
                }
                Phase::VarOpen { pass, var } => {
                    if var >= self.p.n_vars {
                        if pass == 0 {
                            self.phase = Phase::VarOpen { pass: 1, var: 0 };
                            continue;
                        }
                        self.phase = Phase::FinalBarrier;
                        continue;
                    }
                    let flags = if pass == 0 {
                        if var == 0 {
                            OpenFlags::write_create()
                        } else {
                            OpenFlags::read_write()
                        }
                    } else {
                        OpenFlags::read_only()
                    };
                    let (fd, t) = posix::open(w, rank, &self.path(rank), flags, now);
                    let fd = fd.expect("hacc fpp open");
                    // Seek to this variable's region (metadata op).
                    let off = var as u64 * self.p.var_bytes();
                    let (_, t2) = posix::lseek(w, rank, fd, off as i64, Whence::Set, t);
                    self.phase = Phase::VarIo {
                        pass,
                        var,
                        fd,
                        off: 0,
                    };
                    return StepEffect::busy_until(t2);
                }
                Phase::VarIo { pass, var, fd, off } => {
                    let total = self.p.var_bytes();
                    if off >= total {
                        self.phase = Phase::VarClose { pass, var, fd };
                        continue;
                    }
                    let this = (total - off).min(self.p.xfer);
                    let t = if pass == 0 {
                        let (res, t) =
                            posix::write_pattern(w, rank, fd, this, 0xAACC ^ rank.0 as u64, now);
                        res.expect("hacc write");
                        t
                    } else {
                        let (res, t) = posix::read(w, rank, fd, this, now);
                        assert_eq!(
                            res.expect("hacc read"),
                            this,
                            "restart must read back what was written"
                        );
                        t
                    };
                    self.phase = Phase::VarIo {
                        pass,
                        var,
                        fd,
                        off: off + this,
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::VarClose { pass, var, fd } => {
                    let (_, t) = posix::close(w, rank, fd, now);
                    self.phase = Phase::VarOpen { pass, var: var + 1 };
                    return StepEffect::busy_until(t);
                }
                Phase::FinalBarrier => {
                    self.phase = Phase::Done;
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

/// Run HACC-IO at the given scale.
pub fn run(scale: f64, seed: u64) -> WorkloadRun {
    let p = HaccParams::scaled(scale);
    run_with(p, scale, seed)
}

/// Run HACC-IO with explicit parameters.
pub fn run_with(p: HaccParams, scale: f64, seed: u64) -> WorkloadRun {
    let mut world = IoWorld::lassen(p.nodes, p.ranks_per_node, seed);
    // Pre-size the capture columns: file-per-process checkpoint — each rank
    // opens its file, streams bytes_per_rank in xfer-sized writes across
    // n_vars variables, syncs, and closes.
    let ranks = (p.nodes * p.ranks_per_node) as u64;
    world
        .tracer
        .reserve((ranks * (4 + p.n_vars as u64 + p.bytes_per_rank / p.xfer.max(1))) as usize);
    let n = world.alloc.total_ranks();
    // No checkpoint markers: a relaunch starts over from the first step.
    execute(
        WorkloadKind::Hacc,
        scale,
        world,
        p.faults.clone(),
        p.interference.clone(),
        vec![],
        move |_, _| {
            (0..n)
                .map(|_| {
                    Box::new(HaccScript {
                        p: p.clone(),
                        phase: Phase::Generate,
                    }) as Box<dyn RankScript<IoWorld>>
                })
                .collect()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder_sim::record::OpKind;

    fn tiny() -> WorkloadRun {
        run(0.02, 1)
    }

    #[test]
    fn every_rank_gets_its_own_file() {
        let run = tiny();
        let c = run.columnar();
        let data = c.select(|i| c.op[i].is_data());
        let by_file = c.group_by_file(&data);
        let n_ranks = run.world.alloc.total_ranks() as usize;
        assert_eq!(by_file.len(), n_ranks, "strict file-per-process");
        // Each file touched by exactly one rank.
        for (&file, _) in &by_file {
            let ranks: std::collections::HashSet<u32> = data
                .iter()
                .filter(|&&i| c.file[i as usize] == file)
                .map(|&i| c.rank[i as usize])
                .collect();
            assert_eq!(ranks.len(), 1);
        }
    }

    #[test]
    fn bytes_written_equal_bytes_read() {
        let run = tiny();
        let c = run.columnar();
        let w = c.sum_bytes(&c.select(|i| c.op[i] == OpKind::Write));
        let r = c.sum_bytes(&c.select(|i| c.op[i] == OpKind::Read));
        assert_eq!(w, r, "checkpoint is fully read back on restart");
        let p = HaccParams::scaled(0.02);
        let expected = p.var_bytes() * p.n_vars as u64 * run.world.alloc.total_ranks() as u64;
        assert_eq!(w, expected);
    }

    #[test]
    fn metadata_is_about_half_of_ops() {
        let run = tiny();
        let c = run.columnar();
        let io = c.io_ops();
        let meta = io.iter().filter(|&&i| c.op[i as usize].is_meta()).count();
        let frac = meta as f64 / io.len() as f64;
        // Paper Table I/III: 50 % data, 50 % metadata.
        assert!((0.3..=0.8).contains(&frac), "metadata fraction {frac}");
    }

    #[test]
    fn per_rank_bandwidth_varies_under_contention() {
        // Paper-sized transfers so the write-behind cache saturates and
        // writes go through the contended servers.
        let p = HaccParams {
            nodes: 2,
            ranks_per_node: 4,
            n_vars: 9,
            bytes_per_rank: 632 * MIB,
            xfer: 16 * MIB,
            gen_compute: Dur::from_secs_f64(0.1),
            ..HaccParams::paper()
        };
        let run = run_with(p, 1.0, 3);
        let c = run.columnar();
        let writes = c.select(|i| c.op[i] == OpKind::Write);
        let by_rank = c.group_by_rank(&writes);
        let bws: Vec<f64> = by_rank
            .values()
            .map(|g| g.bytes as f64 / g.time.as_secs_f64().max(1e-12))
            .collect();
        let max = bws.iter().cloned().fold(0.0, f64::max);
        let min = bws.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min > 1.05,
            "jitter+contention should spread bandwidth (max {max}, min {min})"
        );
    }

    #[test]
    fn io_dominates_runtime() {
        let run = tiny();
        let c = run.columnar();
        let io_time = c.sum_time(&c.select(|i| c.op[i].is_io() && c.rank[i] == 0));
        let frac = io_time.as_secs_f64() / run.runtime().as_secs_f64();
        // Paper: 75 % of HACC's job time is I/O.
        assert!(frac > 0.25, "I/O fraction {frac} should dominate");
    }

    #[test]
    fn rank_crash_relaunches_from_the_first_step_and_completes() {
        let healthy = tiny();
        let mid = SimTime::from_nanos(healthy.report.makespan.as_nanos() / 2);
        let mut p = HaccParams::scaled(0.02);
        p.faults = FaultPlan::none().with_rank_crash(1, mid);
        let run = run_with(p, 0.02, 1);
        let c = run.columnar();
        let crash = c.select(|i| c.op[i] == OpKind::Crash);
        let restart = c.select(|i| c.op[i] == OpKind::RestartEpoch);
        assert_eq!(crash.len(), 1, "one crash event");
        assert_eq!(restart.len(), 1, "one restart epoch");
        let (k, r) = (crash[0] as usize, restart[0] as usize);
        assert_eq!(c.rank[k], 1, "crash attributed to the dead rank");
        // No checkpoint markers: all work since launch is lost, and the
        // relaunch waits out the restart delay.
        assert_eq!((c.start[k], c.end[k]), (0, mid.as_nanos()));
        let relaunch = mid + crate::harness::restart_delay();
        assert_eq!(
            (c.start[r], c.end[r]),
            (mid.as_nanos(), relaunch.as_nanos())
        );
        assert!(run.report.makespan > relaunch);
        // The relaunch reads the whole checkpoint back.
        let p = HaccParams::scaled(0.02);
        let expected = p.var_bytes() * p.n_vars as u64 * run.world.alloc.total_ranks() as u64;
        let reads_after =
            c.select(|i| c.op[i] == OpKind::Read && c.start[i] >= relaunch.as_nanos());
        assert_eq!(c.sum_bytes(&reads_after), expected);
    }
}
