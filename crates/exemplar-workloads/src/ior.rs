//! IOR-like synthetic benchmark, used to calibrate and report the
//! shared-storage entity's "Max I/O BW" attribute the way the paper did
//! ("64GB/s using 32 node IOR", Table IX): every rank streams large
//! sequential transfers to its own file and the aggregate bandwidth is
//! measured at the job level.

use crate::harness::{execute, scaled, scaled_nodes, WorkloadKind, WorkloadRun};
use hpc_cluster::engine::{RankScript, StepEffect};
use hpc_cluster::topology::RankId;
use io_layers::posix::{self, Fd, OpenFlags};
use io_layers::world::IoWorld;
use sim_core::units::MIB;
use sim_core::SimTime;
use storage_sim::{FaultPlan, InterferenceSchedule};

/// IOR parameters.
#[derive(Debug, Clone)]
pub struct IorParams {
    /// Nodes in the job (32 in Table IX).
    pub nodes: u32,
    /// Ranks per node.
    pub ranks_per_node: u32,
    /// Bytes each rank writes.
    pub bytes_per_rank: u64,
    /// Transfer size (large, to hit the bandwidth ceiling).
    pub xfer: u64,
    /// Fault-injection plan applied to the PFS for this run (empty = none).
    pub faults: FaultPlan,
    /// Competing-tenant load on the shared PFS (empty = dedicated machine).
    pub interference: InterferenceSchedule,
}

impl IorParams {
    /// The Table IX measurement configuration.
    pub fn paper() -> Self {
        IorParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: 32,
            ranks_per_node: 8,
            bytes_per_rank: 512 * MIB,
            xfer: 16 * MIB,
        }
    }

    /// Scaled-down variant for fast runs; scale 1.0 = paper. Lets the
    /// benchmark join the fleet's workload mix at the same scale as the
    /// exemplar applications.
    pub fn scaled(scale: f64) -> Self {
        let p = Self::paper();
        IorParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: scaled_nodes(p.nodes, scale),
            ranks_per_node: p
                .ranks_per_node
                .min(scaled(p.ranks_per_node as u64, scale.max(0.25), 2) as u32),
            bytes_per_rank: scaled(p.bytes_per_rank, scale, 2 * MIB),
            xfer: p.xfer.min(scaled(p.bytes_per_rank, scale, 2 * MIB)),
        }
    }
}

enum Phase {
    Open,
    Write { fd: Fd, off: u64 },
    Sync { fd: Fd },
    Close { fd: Fd },
    Done,
}

struct IorScript {
    p: IorParams,
    phase: Phase,
}

impl RankScript<IoWorld> for IorScript {
    fn next_step(&mut self, w: &mut IoWorld, rank: RankId, now: SimTime) -> StepEffect {
        loop {
            match self.phase {
                Phase::Open => {
                    let path = format!("/p/gpfs1/ior/data.{:05}", rank.0);
                    let (fd, t) = posix::open(w, rank, &path, OpenFlags::write_create(), now);
                    self.phase = Phase::Write {
                        fd: fd.expect("ior open"),
                        off: 0,
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::Write { fd, off } => {
                    if off >= self.p.bytes_per_rank {
                        // IOR fsyncs at the end of the write phase so the
                        // measurement reflects stable storage, not the
                        // client write-behind cache.
                        self.phase = Phase::Sync { fd };
                        continue;
                    }
                    let (res, t) = posix::write_pattern(w, rank, fd, self.p.xfer, 0x10, now);
                    res.expect("ior write");
                    self.phase = Phase::Write {
                        fd,
                        off: off + self.p.xfer,
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::Sync { fd } => {
                    let (res, t) = posix::fsync(w, rank, fd, now);
                    res.expect("ior fsync");
                    self.phase = Phase::Close { fd };
                    return StepEffect::busy_until(t);
                }
                Phase::Close { fd } => {
                    let (_, t) = posix::close(w, rank, fd, now);
                    self.phase = Phase::Done;
                    return StepEffect::busy_until(t);
                }
                Phase::Done => return StepEffect::done(),
            }
        }
    }
}

/// Run IOR and return the run (aggregate write bandwidth =
/// total bytes / makespan).
pub fn run(p: IorParams, seed: u64) -> WorkloadRun {
    let mut world = IoWorld::lassen(p.nodes, p.ranks_per_node, seed);
    // Pre-size the capture columns: each rank opens, streams bytes_per_rank
    // in xfer-sized transfers, syncs, and closes.
    let ranks = (p.nodes * p.ranks_per_node) as u64;
    world
        .tracer
        .reserve((ranks * (4 + p.bytes_per_rank / p.xfer.max(1))) as usize);
    let n = world.alloc.total_ranks();
    // No checkpoint markers: a relaunch starts over from the first write.
    execute(
        WorkloadKind::Ior,
        1.0,
        world,
        p.faults.clone(),
        p.interference.clone(),
        vec![],
        move |_, _| {
            (0..n)
                .map(|_| {
                    Box::new(IorScript {
                        p: p.clone(),
                        phase: Phase::Open,
                    }) as Box<dyn RankScript<IoWorld>>
                })
                .collect()
        },
    )
}

/// Measured aggregate bandwidth of a completed IOR run, bytes/second.
pub fn aggregate_bw(run: &WorkloadRun) -> f64 {
    let total =
        run.world.storage.pfs().stats().bytes_written + run.world.storage.pfs().stats().bytes_read;
    total as f64 / run.runtime().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::units::GIB;

    #[test]
    fn small_ior_saturates_near_the_server_ceiling() {
        let p = IorParams {
            nodes: 32,
            ranks_per_node: 4,
            bytes_per_rank: 64 * MIB,
            xfer: 16 * MIB,
            ..IorParams::paper()
        };
        let run = run(p, 1);
        let bw = aggregate_bw(&run);
        let ceiling = run.world.storage.pfs().aggregate_bw() as f64;
        // Within an order of magnitude of the configured ceiling, and at
        // least a third of it (queueing + jitter keep it below peak).
        assert!(bw > ceiling * 0.3, "bw {bw} vs ceiling {ceiling}");
        assert!(
            bw <= ceiling * 1.05,
            "bw {bw} cannot exceed ceiling {ceiling}"
        );
        // Sanity: tens of GiB/s, the paper's 64 GB/s regime.
        assert!(bw > 10.0 * GIB as f64);
    }

    #[test]
    fn single_rank_is_far_from_aggregate_peak() {
        let p = IorParams {
            nodes: 1,
            ranks_per_node: 1,
            bytes_per_rank: 64 * MIB,
            xfer: 16 * MIB,
            ..IorParams::paper()
        };
        let run = run(p, 1);
        let bw = aggregate_bw(&run);
        let ceiling = run.world.storage.pfs().aggregate_bw() as f64;
        assert!(bw < ceiling * 0.1, "one rank cannot reach the ceiling");
    }
}
