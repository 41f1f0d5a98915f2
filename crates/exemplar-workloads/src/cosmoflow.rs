//! CosmoFlow — deep-learning input pipeline over HDF5/MPI-IO (paper
//! §III-B3, §IV-A3, Figure 3, and the Figure 7 use case).
//!
//! The dataset is ~50 K HDF5 files of 32 MiB, unchunked. Each file is read
//! collectively by a 4-rank group through MPI-IO with 1 MiB transfers. The
//! groups *span nodes* (data-parallel training shards batches across all
//! GPUs), so the small superblock/header reads and the per-access header
//! validations of unchunked-over-MPI-IO land on a **shared file touched
//! from multiple nodes** — thrashing lock tokens and stacking up metadata
//! service time until 90 %+ of I/O time is metadata, which is exactly the
//! paper's finding. GPU compute dominates wall time (12 % I/O), and rank 0
//! writes periodic small checkpoints.
//!
//! The optimized variant (Figure 7) is in `vani-core::reconfig`: preload to
//! node-local shm and read locally.

use crate::harness::{execute, scaled, scaled_nodes, WorkloadKind, WorkloadRun};
use hpc_cluster::engine::{RankScript, StepEffect};
use hpc_cluster::topology::RankId;
use io_layers::hdf5::{self, H5Options};
use io_layers::posix::{self, OpenFlags};
use io_layers::world::IoWorld;
use sim_core::units::{KIB, MIB};
use sim_core::{Dur, SimTime};
use storage_sim::{FaultPlan, InterferenceSchedule};

/// CosmoFlow parameters.
#[derive(Debug, Clone)]
pub struct CosmoflowParams {
    /// Nodes in the job.
    pub nodes: u32,
    /// Ranks per node (4: one per GPU).
    pub ranks_per_node: u32,
    /// Number of HDF5 sample files (49 664 at paper scale).
    pub n_files: u32,
    /// Bytes per file (32 MiB: 512³ voxels × 4 channels × int16 / 16).
    pub file_bytes: u64,
    /// MPI-IO transfer size (1 MiB).
    pub xfer: u64,
    /// Ranks reading each file together.
    pub group_size: u32,
    /// GPU compute per file per rank (training time share).
    pub gpu_per_file: Dur,
    /// Checkpoint bytes written periodically by rank 0 (20 MiB total).
    pub ckpt_total: u64,
    /// Checkpoint transfer size (40 KiB).
    pub ckpt_xfer: u64,
    /// Number of checkpoints over the run.
    pub n_ckpts: u32,
    /// Run the Figure 7 optimization: preload the dataset from the PFS into
    /// node-local shm with a parallel copy job (MPIFileUtils-style), assign
    /// files to their home node, and read them from shm without MPI-IO.
    pub preload_to_shm: bool,
    /// Fault-injection plan applied to the PFS for this run (empty = none).
    pub faults: FaultPlan,
    /// Competing-tenant load on the shared PFS (empty = dedicated machine).
    pub interference: InterferenceSchedule,
}

impl CosmoflowParams {
    /// Paper configuration: 32 nodes × 4 ranks, 1.5 TiB dataset, 3567 s job.
    pub(crate) fn paper() -> Self {
        CosmoflowParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: 32,
            ranks_per_node: 4,
            n_files: 49_664,
            file_bytes: 32 * MIB,
            xfer: 1 * MIB,
            group_size: 4,
            gpu_per_file: Dur::from_secs_f64(8.0), // ~3100 s compute / 388 files per rank-group share
            ckpt_total: 20 * MIB,
            ckpt_xfer: 40 * KIB,
            n_ckpts: 10,
            preload_to_shm: false,
        }
    }

    /// Scaled-down variant.
    pub fn scaled(scale: f64) -> Self {
        let p = Self::paper();
        CosmoflowParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: scaled_nodes(p.nodes, scale),
            ranks_per_node: p.ranks_per_node,
            n_files: scaled(p.n_files as u64, scale, 8) as u32,
            file_bytes: scaled(p.file_bytes, scale.sqrt().max(0.2), 2 * MIB),
            xfer: p.xfer,
            group_size: p.group_size,
            gpu_per_file: Dur::from_secs_f64(p.gpu_per_file.as_secs_f64() * scale.max(0.02)),
            ckpt_total: scaled(p.ckpt_total, scale, 256 * KIB),
            ckpt_xfer: p.ckpt_xfer,
            n_ckpts: scaled(p.n_ckpts as u64, scale.max(0.2), 2) as u32,
            preload_to_shm: false,
        }
    }

    /// File path the training loop reads sample `i` from: shm after a
    /// preload, the PFS otherwise.
    pub(crate) fn file_path(&self, i: u32) -> String {
        if self.preload_to_shm {
            self.shm_file_path(i)
        } else {
            self.pfs_file_path(i)
        }
    }

    /// PFS path of sample `i`: where the dataset is staged.
    pub(crate) fn pfs_file_path(&self, i: u32) -> String {
        format!("/p/gpfs1/cosmoflow/2019_05_4parE/univ_{i:06}.h5", i = i)
    }

    /// Shm path of sample `i` (preload destination).
    pub(crate) fn shm_file_path(&self, i: u32) -> String {
        format!("/dev/shm/cosmoflow/univ_{i:06}.h5", i = i)
    }
}

/// Stage the dataset into the PFS (pattern-backed, cheap).
pub(crate) fn stage_dataset(world: &mut IoWorld, p: &CosmoflowParams) {
    let store = world.storage.pfs_mut().store_mut();
    let voxels = (p.file_bytes / 2).max(1); // int16 elements

    // Dark-matter density voxels are gamma-distributed (Table VI). Every
    // file shares one copy of this value prefix, its header and superblock.
    let prefix = std::sync::Arc::new(sim_core::stats::synth_bytes(
        sim_core::stats::DistributionFit::Gamma,
        0xC0,
        16384,
    ));
    let layout = hdf5::H5Layout::new(&[("universe", &[voxels, 1, 1], 2, None)]);
    for i in 0..p.n_files {
        layout
            .materialize(store, &p.pfs_file_path(i), 0xC0 + i as u64)
            .expect("stage cosmoflow file");
        let key = store.lookup(&p.pfs_file_path(i)).expect("just staged");
        store
            .write(key, 1024, storage_sim::file::Segment::Bytes(prefix.clone()))
            .expect("stage value prefix");
    }
}

/// The ranks that read file `f` together. Baseline: the group spans nodes
/// (data-parallel batches shard across all GPUs). Optimized (`preload_to_shm`):
/// the group is exactly the ranks of the file's home node — the paper's
/// "limit the aggregation of files using MPI-IO to a node".
fn group_of(p: &CosmoflowParams, total_ranks: u32, f: u32) -> Vec<u32> {
    if p.preload_to_shm {
        let nodes = (total_ranks / p.ranks_per_node).max(1);
        let node = f % nodes;
        return (0..p.group_size.min(p.ranks_per_node))
            .map(|k| node * p.ranks_per_node + k)
            .collect();
    }
    let stride = (total_ranks / p.group_size).max(1);
    (0..p.group_size)
        .map(|k| (f + k * stride) % total_ranks)
        .collect()
}

enum Phase {
    Preload {
        idx: u32,
    },
    PreloadRead {
        idx: u32,
        fd: io_layers::posix::Fd,
        left: u64,
    },
    PreloadInstall {
        idx: u32,
        fd: io_layers::posix::Fd,
    },
    PreloadBarrier,
    NextFile {
        idx: u32,
    },
    FileRead {
        idx: u32,
        off: u64,
        end_off: u64,
    },
    FileClose {
        idx: u32,
    },
    Gpu {
        idx: u32,
    },
    Ckpt {
        n: u32,
        off: u64,
    },
    Done,
}

struct CfScript {
    p: CosmoflowParams,
    total_ranks: u32,
    /// Files this rank participates in (precomputed).
    my_files: Vec<u32>,
    phase: Phase,
    files_done: u32,
    next_ckpt_at: u32,
    resume_idx: u32,
    ckpt_fd: Option<io_layers::posix::Fd>,
    /// Start of the in-flight checkpoint write sequence (rank 0 only);
    /// closes the `Checkpoint` span when the model file goes durable.
    ckpt_begin: SimTime,
    h5: Option<hdf5::H5File>,
    /// Files this rank copies PFS → shm before training (optimized mode).
    preload_files: Vec<u32>,
}

impl RankScript<IoWorld> for CfScript {
    fn next_step(&mut self, w: &mut IoWorld, rank: RankId, now: SimTime) -> StepEffect {
        loop {
            match self.phase {
                Phase::Preload { idx } => {
                    // One op per engine step so shared-queue arrivals stay
                    // in causal order across ranks.
                    let files = &self.preload_files;
                    if idx as usize >= files.len() {
                        self.phase = Phase::PreloadBarrier;
                        continue;
                    }
                    let f = files[idx as usize];
                    let src = self.p.pfs_file_path(f);
                    let (fd, t) = posix::open(w, rank, &src, OpenFlags::read_only(), now);
                    let fd = fd.expect("preload source staged");
                    self.phase = Phase::PreloadRead {
                        idx,
                        fd,
                        left: self.p.file_bytes + 4096,
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::PreloadRead { idx, fd, left } => {
                    if left == 0 {
                        self.phase = Phase::PreloadInstall { idx, fd };
                        continue;
                    }
                    // MPIFileUtils-style bulk sweep: 16 MiB per request.
                    let this = left.min(16 * MIB);
                    let (res, t) = posix::read(w, rank, fd, this, now);
                    let n = res.expect("preload read");
                    let left2 = if n < this { 0 } else { left - this };
                    self.phase = Phase::PreloadRead {
                        idx,
                        fd,
                        left: left2,
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::PreloadInstall { idx, fd } => {
                    let f = self.preload_files[idx as usize];
                    let src = self.p.pfs_file_path(f);
                    let dst = self.p.shm_file_path(f);
                    let (_, t) = posix::close(w, rank, fd, now);
                    // Install the identical content into this node's shm and
                    // charge the shm channel for the copy.
                    let node = w.node_of(rank);
                    let snap = {
                        let store = w.storage.pfs().store();
                        let key = store.lookup(&src).expect("preload source");
                        store.snapshot(key).expect("snapshot")
                    };
                    let bytes = snap.size();
                    w.storage
                        .shm_mut()
                        .store_mut(node)
                        .insert_snapshot(&dst, snap)
                        .expect("shm capacity fits 1/N of the dataset");
                    let t2 = w.storage.shm_mut().touch(node, bytes, t);
                    let dst_id = w.tracer.file_id(&dst);
                    let t3 = w.trace_io(
                        rank,
                        recorder_sim::record::Layer::Posix,
                        recorder_sim::record::OpKind::Write,
                        t,
                        t2,
                        Some(dst_id),
                        0,
                        bytes,
                    );
                    self.phase = Phase::Preload { idx: idx + 1 };
                    return StepEffect::busy_until(t3);
                }
                Phase::PreloadBarrier => {
                    self.phase = Phase::NextFile { idx: 0 };
                    return StepEffect {
                        outcome: hpc_cluster::engine::Outcome::Collective {
                            comm: hpc_cluster::mpi::CommId::WORLD,
                            kind: hpc_cluster::mpi::CollectiveKind::Barrier,
                            bytes: 0,
                        },
                        open_gates: vec![],
                    };
                }
                Phase::NextFile { idx } => {
                    if idx as usize >= self.my_files.len() {
                        // Final checkpoint by rank 0, then done.
                        if rank.0 == 0 && self.files_done > 0 && self.next_ckpt_at != u32::MAX {
                            self.next_ckpt_at = u32::MAX;
                            self.resume_idx = idx;
                            self.phase = Phase::Ckpt {
                                n: self.p.n_ckpts.max(1) - 1,
                                off: 0,
                            };
                            continue;
                        }
                        self.phase = Phase::Done;
                        continue;
                    }
                    let f = self.my_files[idx as usize];
                    let path = self.p.file_path(f);
                    // My slice of the file.
                    let share = self.p.file_bytes / self.p.group_size as u64;
                    let my_pos = group_of(&self.p, self.total_ranks, f)
                        .iter()
                        .position(|&r| r == rank.0)
                        .expect("rank is in its own group") as u64;
                    let opts = H5Options {
                        use_mpiio: !self.p.preload_to_shm,
                        chunk_cache_bytes: 4096,
                    };
                    // Open in this step; reads and close follow in later
                    // steps so the group's accesses to the shared file
                    // interleave (which is what thrashes lock tokens).
                    let (h5, t) = hdf5::open(w, rank, &path, opts, now);
                    let h5 = match h5 {
                        Ok(h) => h,
                        Err(e) => panic!("cosmoflow open {path}: {e}"),
                    };
                    self.h5 = Some(h5);
                    let off = my_pos * share;
                    self.phase = Phase::FileRead {
                        idx,
                        off,
                        end_off: off + share,
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::FileRead { idx, off, end_off } => {
                    if off >= end_off {
                        self.phase = Phase::FileClose { idx };
                        continue;
                    }
                    let this = (end_off - off).min(self.p.xfer);
                    let h5 = self.h5.as_mut().expect("file open");
                    let (res, t) = h5.read(w, rank, "universe", off, this, now);
                    res.expect("cosmoflow read");
                    self.phase = Phase::FileRead {
                        idx,
                        off: off + this,
                        end_off,
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::FileClose { idx } => {
                    let h5 = self.h5.take().expect("file open");
                    let (_, t) = h5.close(w, rank, now);
                    self.files_done += 1;
                    self.phase = Phase::Gpu { idx };
                    return StepEffect::busy_until(t);
                }
                Phase::Gpu { idx } => {
                    let t = w.gpu_compute(rank, self.p.gpu_per_file, now);
                    // Periodic checkpoint from rank 0.
                    let per = (self.my_files.len() as u32 / self.p.n_ckpts.max(1)).max(1);
                    if rank.0 == 0
                        && self.files_done >= self.next_ckpt_at
                        && self.next_ckpt_at != u32::MAX
                    {
                        self.next_ckpt_at += per;
                        let n = self.files_done / per;
                        self.resume_idx = idx + 1;
                        self.phase = Phase::Ckpt { n, off: 0 };
                    } else {
                        self.phase = Phase::NextFile { idx: idx + 1 };
                    }
                    return StepEffect::busy_until(t);
                }
                Phase::Ckpt { n, off } => {
                    let per_ckpt =
                        (self.p.ckpt_total / self.p.n_ckpts.max(1) as u64).max(self.p.ckpt_xfer);
                    if off == 0 {
                        self.ckpt_begin = now;
                        let path = format!("/p/gpfs1/cosmoflow/ckpt/model_{n:03}.ckpt");
                        let (fd, t) = posix::open(w, rank, &path, OpenFlags::write_create(), now);
                        let fd = fd.expect("ckpt create");
                        // Remember fd via the fd table: we just keep writing
                        // through it below by reopening state in off.
                        self.ckpt_fd = Some(fd);
                        self.phase = Phase::Ckpt { n, off: 1 };
                        return StepEffect::busy_until(t);
                    }
                    let fd = self.ckpt_fd.expect("ckpt fd set");
                    let written = (off - 1) * self.p.ckpt_xfer;
                    if written >= per_ckpt {
                        let (_, t) = posix::close(w, rank, fd, now);
                        // The model file is durable: mark the checkpoint the
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
                        self.ckpt_fd = None;
                        self.phase = Phase::NextFile {
                            idx: self.resume_idx,
                        };
                        return StepEffect::busy_until(t);
                    }
                    let (res, t) = posix::write_pattern(w, rank, fd, self.p.ckpt_xfer, 0xCF, now);
                    res.expect("ckpt write");
                    self.phase = Phase::Ckpt { n, off: off + 1 };
                    return StepEffect::busy_until(t);
                }
                Phase::Done => return StepEffect::done(),
            }
        }
    }
}

impl CfScript {
    /// Build a script resuming from durable checkpoint `start_ckpt` (0 = cold
    /// start). Training position rolls back to where that checkpoint fired;
    /// everything after it is re-run. `first_launch` gates the shm preload:
    /// relaunches skip it because node-local shm survives a job crash.
    fn resuming(
        p: CosmoflowParams,
        total_ranks: u32,
        rank: u32,
        start_ckpt: u32,
        first_launch: bool,
    ) -> Self {
        let my_files: Vec<u32> = (0..p.n_files)
            .filter(|&f| group_of(&p, total_ranks, f).contains(&rank))
            .collect();
        let preload_files: Vec<u32> = if p.preload_to_shm && first_launch {
            let nodes = (total_ranks / p.ranks_per_node).max(1);
            let node = rank / p.ranks_per_node;
            let local = rank % p.ranks_per_node;
            (0..p.n_files)
                .filter(|&f| f % nodes == node && (f / nodes) % p.ranks_per_node == local)
                .collect()
        } else {
            Vec::new()
        };
        // Checkpoint k fires when files_done reaches 1 + (k-1)·per (the
        // trigger in `Phase::Gpu`); restarting from it rolls this rank's
        // file cursor back to that point.
        let per = (my_files.len() as u32 / p.n_ckpts.max(1)).max(1);
        let start_idx = if start_ckpt == 0 {
            0
        } else {
            (1 + (start_ckpt - 1) * per).min(my_files.len() as u32)
        };
        let start_phase = if p.preload_to_shm && first_launch {
            Phase::Preload { idx: 0 }
        } else {
            Phase::NextFile { idx: start_idx }
        };
        CfScript {
            p,
            total_ranks,
            my_files,
            preload_files,
            phase: start_phase,
            files_done: start_idx,
            next_ckpt_at: 1 + start_ckpt * per,
            resume_idx: start_idx,
            ckpt_fd: None,
            ckpt_begin: SimTime::ZERO,
            h5: None,
        }
    }
}

/// Run CosmoFlow at the given scale over the PFS (the baseline of Fig. 7).
pub fn run(scale: f64, seed: u64) -> WorkloadRun {
    let p = CosmoflowParams::scaled(scale);
    run_with(p, scale, seed)
}

/// Run with explicit parameters (the Figure 7 harness sets
/// `preload_to_shm`).
pub fn run_with(p: CosmoflowParams, scale: f64, seed: u64) -> WorkloadRun {
    let mut world = IoWorld::lassen(p.nodes, p.ranks_per_node, seed);
    // Pre-size the capture columns: every sample file is opened by its
    // rank group (header + validation metadata per reader) and streamed in
    // xfer-sized pieces; rank 0 adds periodic checkpoints. Preload runs
    // touch each file twice (PFS copy-out + local read).
    let per_file = p.group_size as u64 * 4 + p.file_bytes / p.xfer.max(1);
    let preload_factor = if p.preload_to_shm { 2 } else { 1 };
    world.tracer.reserve(
        (p.n_files as u64 * per_file * preload_factor
            + p.n_ckpts as u64 * (2 + p.ckpt_total / p.ckpt_xfer.max(1))) as usize,
    );
    // The dataset pre-exists on the PFS; a preloading job copies it out.
    stage_dataset(&mut world, &p);
    let n = world.alloc.total_ranks();
    execute(
        WorkloadKind::Cosmoflow,
        scale,
        world,
        p.faults.clone(),
        p.interference.clone(),
        vec![],
        move |ckpts_done, epoch| {
            (0..n)
                .map(|r| {
                    Box::new(CfScript::resuming(
                        p.clone(),
                        n,
                        r,
                        ckpts_done as u32,
                        epoch == 0,
                    )) as Box<dyn RankScript<IoWorld>>
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
        run(0.002, 5)
    }

    #[test]
    fn every_file_is_shared_across_ranks() {
        let run = tiny();
        let c = run.columnar();
        let reads = c.select(|i| {
            c.op[i] == OpKind::Read && c.layer[i] == Layer::Posix && c.bytes[i] >= 64 * KIB
        });
        let by_file = c.group_by_file(&reads);
        for (&f, _) in by_file.iter() {
            let readers: std::collections::HashSet<u32> = reads
                .iter()
                .filter(|&&i| c.file[i as usize] == f)
                .map(|&i| c.rank[i as usize])
                .collect();
            assert!(readers.len() > 1, "file {f} should be read by a group");
        }
    }

    #[test]
    fn metadata_time_dominates_io_time() {
        let run = tiny();
        let c = run.columnar();
        // HighLevel layer: meta (open/stat/close) vs data (read/write) time.
        let hl_meta =
            c.sum_time(&c.select(|i| c.layer[i] == Layer::HighLevel && c.op[i].is_meta()));
        let hl_data =
            c.sum_time(&c.select(|i| c.layer[i] == Layer::HighLevel && c.op[i].is_data()));
        // Note: HighLevel read spans include the inner validation reads, so
        // compare meta records (open + per-access validation) directly.
        assert!(hl_meta.as_secs_f64() > 0.0, "metadata records must exist");
        let meta_ops = c.meta_ops(Some(Layer::HighLevel)).len();
        let data_ops = c.data_ops(Some(Layer::HighLevel)).len();
        assert!(
            meta_ops > data_ops,
            "HDF5-level metadata ops ({meta_ops}) should outnumber data ops ({data_ops})"
        );
        let _ = hl_data;
    }

    #[test]
    fn transfers_are_one_mib() {
        let run = tiny();
        let c = run.columnar();
        let hl_reads = c.select(|i| {
            c.layer[i] == Layer::HighLevel && c.op[i] == OpKind::Read && c.bytes[i] > 0
        });
        assert!(!hl_reads.is_empty());
        let max = hl_reads.iter().map(|&i| c.bytes[i as usize]).max().unwrap();
        assert!(
            max <= 1 * MIB,
            "HDF5 reads capped at the 1 MiB transfer size"
        );
    }

    #[test]
    fn rank0_writes_checkpoints() {
        let run = tiny();
        let c = run.columnar();
        let writes = c.select(|i| c.op[i] == OpKind::Write && c.layer[i] == Layer::Posix);
        assert!(!writes.is_empty(), "checkpoints must be written");
        assert!(writes.iter().all(|&i| c.rank[i as usize] == 0));
        let max = writes.iter().map(|&i| c.bytes[i as usize]).max().unwrap();
        assert!(max <= 40 * KIB);
    }

    #[test]
    fn metadata_service_is_stormed() {
        // The baseline's pain: collective metadata — MDS operations (opens,
        // closes, per-access validations) far outnumber data operations.
        let mut p = CosmoflowParams::scaled(0.002);
        p.nodes = 4;
        p.n_files = 32;
        let run = run_with(p, 0.002, 5);
        let s = run.world.storage.pfs().stats();
        // Every file costs opens + closes + per-access validations on the
        // MDS: at least ~10 MDS round trips per 32 MiB file.
        assert!(
            s.meta_ops > 10 * 32,
            "MDS ops {} should reflect the per-file metadata storm",
            s.meta_ops
        );
    }

    #[test]
    fn crash_rolls_back_to_last_model_checkpoint() {
        let healthy = tiny();
        let mid = sim_core::SimTime::from_nanos(healthy.report.makespan.as_nanos() * 3 / 4);
        let crashed = || {
            let mut p = CosmoflowParams::scaled(0.002);
            p.faults = FaultPlan::none().with_rank_crash(1, mid);
            run_with(p, 0.002, 5)
        };
        let a = crashed();
        let c = a.columnar();
        assert_eq!(c.select(|i| c.op[i] == OpKind::Crash).len(), 1);
        assert_eq!(c.select(|i| c.op[i] == OpKind::RestartEpoch).len(), 1);
        assert!(a.report.makespan > healthy.report.makespan);
        // Rolled-back samples are read again: total bytes read can only grow.
        let read = |r: &WorkloadRun| {
            let c = r.columnar();
            c.sum_bytes(&c.select(|i| c.layer[i] == Layer::HighLevel && c.op[i] == OpKind::Read))
        };
        assert!(read(&a) >= read(&healthy));
        let b = crashed();
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.columnar(), b.columnar());
    }

    #[test]
    fn whole_dataset_is_read_once() {
        let run = tiny();
        let p = CosmoflowParams::scaled(0.002);
        let c = run.columnar();
        let hl_reads = c.select(|i| c.layer[i] == Layer::HighLevel && c.op[i] == OpKind::Read);
        let total = c.sum_bytes(&hl_reads);
        let expect = p.n_files as u64 * (p.file_bytes / p.group_size as u64) * p.group_size as u64;
        assert_eq!(total, expect);
    }
}
