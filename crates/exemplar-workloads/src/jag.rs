//! JAG ICF — semi-analytic AI surrogate model (paper §III-B4, §IV-A4,
//! Figure 4).
//!
//! A single 200 MB NumPy dataset of 100 K small samples is consumed through
//! the STDIO interface: each rank opens the file once, reads its ~2 MB
//! worth of samples in sub-4 KiB accesses during the first epoch, caches
//! them in memory for the remaining epochs (framework-level dataset cache),
//! runs GPU compute per epoch, writes a small checkpoint per epoch, and
//! performs a validation read pass at the end (the second I/O phase of
//! Fig. 4c). 70 % of operations are metadata.

use crate::harness::{execute, scaled, scaled_nodes, WorkloadKind, WorkloadRun};
use hpc_cluster::engine::{RankScript, StepEffect};
use hpc_cluster::topology::RankId;
use io_layers::npy::{self, NpyHeader};
use io_layers::posix::{self, OpenFlags};
use io_layers::world::IoWorld;
use sim_core::units::KIB;
use sim_core::{Dur, SimTime};
use storage_sim::file::Segment;
use storage_sim::{FaultPlan, InterferenceSchedule};

/// JAG parameters.
#[derive(Debug, Clone)]
pub struct JagParams {
    /// Nodes in the job.
    pub nodes: u32,
    /// Ranks per node (4: one per GPU).
    pub ranks_per_node: u32,
    /// Samples in the dataset (100 K).
    pub n_samples: u64,
    /// Bytes per sample (~2 KB: scalars + time series slices).
    pub sample_bytes: u64,
    /// Training epochs (100).
    pub epochs: u32,
    /// GPU compute per epoch per rank.
    pub gpu_per_epoch: Dur,
    /// Checkpoint bytes per epoch (20 KB).
    pub ckpt_bytes: u64,
    /// Samples each rank validates at the end.
    pub validation_samples: u64,
    /// Fault-injection plan applied to the PFS for this run (empty = none).
    pub faults: FaultPlan,
    /// Competing-tenant load on the shared PFS (empty = dedicated machine).
    pub interference: InterferenceSchedule,
}

impl JagParams {
    /// Paper configuration: 128 ranks, 1289 s job, 13 % I/O.
    pub(crate) fn paper() -> Self {
        JagParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: 32,
            ranks_per_node: 4,
            n_samples: 100_000,
            sample_bytes: 2 * KIB,
            epochs: 100,
            gpu_per_epoch: Dur::from_secs_f64(10.0),
            ckpt_bytes: 20 * KIB,
            validation_samples: 200,
        }
    }

    /// Scaled-down variant.
    pub fn scaled(scale: f64) -> Self {
        let p = Self::paper();
        JagParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: scaled_nodes(p.nodes, scale),
            ranks_per_node: p.ranks_per_node,
            n_samples: scaled(p.n_samples, scale, 64),
            sample_bytes: p.sample_bytes,
            epochs: scaled(p.epochs as u64, scale.max(0.05), 3) as u32,
            gpu_per_epoch: Dur::from_secs_f64(p.gpu_per_epoch.as_secs_f64() * scale.max(0.02)),
            ckpt_bytes: p.ckpt_bytes,
            validation_samples: scaled(p.validation_samples, scale, 8),
        }
    }

    /// Dataset path.
    pub(crate) fn dataset_path(&self) -> &'static str {
        "/p/gpfs1/jag/jag_samples.npy"
    }

    /// Elements per sample for a `<f4` dtype.
    fn elems_per_sample(&self) -> u64 {
        (self.sample_bytes / 4).max(1)
    }
}

/// Stage the npy dataset (real header + pattern payload).
pub(crate) fn stage_dataset(world: &mut IoWorld, p: &JagParams) {
    let header = NpyHeader {
        descr: "<f4".to_string(),
        shape: vec![p.n_samples, p.elems_per_sample()],
    };
    let enc = header.encode();
    let store = world.storage.pfs_mut().store_mut();
    let key = store
        .create(p.dataset_path(), false)
        .expect("stage jag dataset");
    let len = enc.len() as u64;
    store
        .write(key, 0, Segment::Bytes(std::sync::Arc::new(enc)))
        .expect("stage header");
    store
        .write(
            key,
            len,
            Segment::Pattern {
                seed: 0x1A6,
                len: header.nbytes(),
            },
        )
        .expect("stage payload");
    // JAG's implosion scalars are normally distributed (Table VI).
    let prefix =
        sim_core::stats::synth_bytes(sim_core::stats::DistributionFit::Normal, 0x1A6, 16384);
    store
        .write(key, 1024, Segment::Bytes(std::sync::Arc::new(prefix)))
        .expect("stage value prefix");
}

enum Phase {
    Open,
    FirstEpochRead { sample: u64 },
    EpochGpu { epoch: u32 },
    Ckpt { epoch: u32 },
    Validate { sample: u64 },
    Close,
    Done,
}

struct JagScript {
    p: JagParams,
    total_ranks: u32,
    phase: Phase,
    file: Option<npy::NpyFile>,
}

impl JagScript {
    /// Samples this rank consumes.
    fn my_range(&self, rank: RankId) -> (u64, u64) {
        let per = self.p.n_samples / self.total_ranks as u64;
        let start = rank.0 as u64 * per;
        (start, per.max(1))
    }
}

impl RankScript<IoWorld> for JagScript {
    fn next_step(&mut self, w: &mut IoWorld, rank: RankId, now: SimTime) -> StepEffect {
        loop {
            match self.phase {
                Phase::Open => {
                    let (f, t) = npy::open(w, rank, self.p.dataset_path(), now);
                    self.file = Some(f.expect("jag dataset staged"));
                    self.phase = Phase::FirstEpochRead { sample: 0 };
                    return StepEffect::busy_until(t);
                }
                Phase::FirstEpochRead { sample } => {
                    let (start, count) = self.my_range(rank);
                    if sample >= count {
                        self.phase = Phase::EpochGpu { epoch: 0 };
                        continue;
                    }
                    // Batch a handful of sample reads per engine step.
                    let f = self.file.as_ref().expect("opened");
                    let mut t = now;
                    let mut s = sample;
                    for _ in 0..8 {
                        if s >= count {
                            break;
                        }
                        let idx = (start + s) * self.p.elems_per_sample();
                        let (res, t2) = f.read_elements(w, rank, idx, self.p.elems_per_sample(), t);
                        res.expect("sample read");
                        t = t2;
                        s += 1;
                    }
                    self.phase = Phase::FirstEpochRead { sample: s };
                    return StepEffect::busy_until(t);
                }
                Phase::EpochGpu { epoch } => {
                    if epoch >= self.p.epochs {
                        self.phase = Phase::Validate { sample: 0 };
                        continue;
                    }
                    let t = w.gpu_compute(rank, self.p.gpu_per_epoch, now);
                    self.phase = Phase::Ckpt { epoch };
                    return StepEffect::busy_until(t);
                }
                Phase::Ckpt { epoch } => {
                    // Every rank writes its model shard checkpoint (small).
                    let path = format!("/p/gpfs1/jag/ckpt/e{epoch:03}_r{:04}.ckpt", rank.0);
                    let (fd, t) = posix::open(w, rank, &path, OpenFlags::write_create(), now);
                    let fd = fd.expect("ckpt open");
                    let mut t = t;
                    let mut left = self.p.ckpt_bytes;
                    while left > 0 {
                        let this = left.min(4 * KIB);
                        let (res, t2) = posix::write_pattern(w, rank, fd, this, 0x1A66, t);
                        res.expect("ckpt write");
                        left -= this;
                        t = t2;
                    }
                    let (_, t) = posix::close(w, rank, fd, t);
                    self.phase = Phase::EpochGpu { epoch: epoch + 1 };
                    return StepEffect::busy_until(t);
                }
                Phase::Validate { sample } => {
                    if sample >= self.p.validation_samples {
                        self.phase = Phase::Close;
                        continue;
                    }
                    let f = self.file.as_ref().expect("opened");
                    let (start, count) = self.my_range(rank);
                    let idx = (start + (sample % count.max(1))) * self.p.elems_per_sample();
                    let (res, t) = f.read_elements(w, rank, idx, self.p.elems_per_sample(), now);
                    res.expect("validation read");
                    self.phase = Phase::Validate { sample: sample + 1 };
                    return StepEffect::busy_until(t);
                }
                Phase::Close => {
                    let f = self.file.take().expect("opened");
                    let (_, t) = f.close(w, rank, now);
                    self.phase = Phase::Done;
                    return StepEffect::busy_until(t);
                }
                Phase::Done => return StepEffect::done(),
            }
        }
    }
}

/// Run JAG at the given scale.
pub fn run(scale: f64, seed: u64) -> WorkloadRun {
    let p = JagParams::scaled(scale);
    run_with(p, scale, seed)
}

/// Run JAG with explicit parameters.
pub fn run_with(p: JagParams, scale: f64, seed: u64) -> WorkloadRun {
    let mut world = IoWorld::lassen(p.nodes, p.ranks_per_node, Dur::from_secs(6 * 3600), seed);
    // Pre-size the capture columns: the first epoch reads every sample in
    // sub-4 KiB stdio accesses, each epoch checkpoints per rank, and the
    // validation pass re-reads a sample slice per rank.
    let ranks = (p.nodes * p.ranks_per_node) as u64;
    world.tracer.reserve(
        (p.n_samples * 2 + ranks * (4 + p.epochs as u64 * 2 + p.validation_samples)) as usize,
    );
    stage_dataset(&mut world, &p);
    world.storage.pfs_mut().set_fault_plan(p.faults.clone());
    world
        .storage
        .pfs_mut()
        .set_interference(p.interference.clone());
    for r in world.alloc.ranks().collect::<Vec<_>>() {
        world.set_app(r, "jag-icf");
    }
    let n = world.alloc.total_ranks();
    let scripts: Vec<Box<dyn RankScript<IoWorld>>> = (0..n)
        .map(|_| {
            Box::new(JagScript {
                p: p.clone(),
                total_ranks: n,
                phase: Phase::Open,
                file: None,
            }) as Box<dyn RankScript<IoWorld>>
        })
        .collect();
    execute(WorkloadKind::Jag, scale, world, scripts, vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder_sim::record::{Layer, OpKind};

    fn tiny() -> WorkloadRun {
        run(0.02, 9)
    }

    #[test]
    fn single_shared_dataset_file() {
        let run = tiny();
        let c = run.columnar();
        let reads = c.select(|i| c.layer[i] == Layer::HighLevel && c.op[i] == OpKind::Read);
        assert!(!reads.is_empty());
        // All ranks read; one dataset file.
        let readers: std::collections::HashSet<u32> =
            reads.iter().map(|&i| c.rank[i as usize]).collect();
        assert_eq!(readers.len(), run.world.alloc.total_ranks() as usize);
    }

    #[test]
    fn app_level_accesses_are_small() {
        let run = tiny();
        let c = run.columnar();
        let stdio_reads =
            c.select(|i| c.layer[i] == Layer::Stdio && c.op[i] == OpKind::Read && c.bytes[i] > 0);
        let max = stdio_reads
            .iter()
            .map(|&i| c.bytes[i as usize])
            .max()
            .unwrap();
        assert!(max <= 4 * KIB, "JAG accesses stay under 4 KiB, got {max}");
    }

    #[test]
    fn metadata_ops_dominate() {
        let run = tiny();
        let c = run.columnar();
        let io = c.select(|i| c.op[i].is_io() && matches!(c.layer[i], Layer::Stdio | Layer::Posix));
        let meta = io.iter().filter(|&&i| c.op[i as usize].is_meta()).count();
        let frac = meta as f64 / io.len() as f64;
        // Paper: ~70 % of operations are metadata.
        assert!(frac > 0.4, "metadata fraction {frac}");
    }

    #[test]
    fn two_read_phases_with_gpu_between() {
        let run = tiny();
        let c = run.columnar();
        let reads = c.select(|i| {
            c.layer[i] == Layer::HighLevel && c.op[i] == OpKind::Read && c.rank[i] == 0
        });
        let gpu = c.select(|i| c.op[i] == OpKind::GpuCompute && c.rank[i] == 0);
        let first_gpu_start = gpu.iter().map(|&i| c.start[i as usize]).min().unwrap();
        let last_gpu_end = gpu.iter().map(|&i| c.end[i as usize]).max().unwrap();
        let before = reads
            .iter()
            .filter(|&&i| c.end[i as usize] <= first_gpu_start)
            .count();
        let after = reads
            .iter()
            .filter(|&&i| c.start[i as usize] >= last_gpu_end)
            .count();
        assert!(before > 0, "initial input phase exists");
        assert!(after > 0, "validation phase exists after training");
    }

    #[test]
    fn later_epochs_do_no_dataset_io() {
        let run = tiny();
        let c = run.columnar();
        // Dataset reads (HighLevel) happen only in the first epoch and the
        // validation pass — count must be bounded by samples + validation.
        let p = JagParams::scaled(0.02);
        let reads = c.select(|i| c.layer[i] == Layer::HighLevel && c.op[i] == OpKind::Read);
        let per_rank = reads.len() as u64 / run.world.alloc.total_ranks() as u64;
        let per = p.n_samples / run.world.alloc.total_ranks() as u64;
        assert!(per_rank <= per + p.validation_samples + 2);
    }
}
