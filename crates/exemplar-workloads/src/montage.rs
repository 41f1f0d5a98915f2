//! Montage with MPI — the six-stage mosaic workflow (paper §III-B5,
//! §IV-A5, Figure 5, and the Figure 8 use case).
//!
//! Per node: a *sequential* leader process runs mProject → mImgTbl, every
//! rank joins the parallel mAddMPI stage, then the leader runs mShrink →
//! mViewer (the sequential/parallel/sequential structure of §III-B5).
//! Input FITS images are read with 64 KiB transfers; intermediate files are
//! written and re-read with small (≤4 KiB) transfers, which is where 95 %
//! of I/O time goes — the paper's Figure 8 optimization moves exactly these
//! files into `/dev/shm`, which this module supports via
//! [`MontageParams::workdir`].

use crate::harness::{execute, scaled, scaled_nodes, WorkloadKind, WorkloadRun};
use hpc_cluster::engine::{Outcome, RankScript, StepEffect};
use hpc_cluster::mpi::{CollectiveKind, CommId, Communicator};
use hpc_cluster::topology::RankId;
use io_layers::fits::{self, FitsHeader};
pub use io_layers::posix::Whence as SeekWhence;
use io_layers::stdio::{self, FileStream};
use io_layers::world::IoWorld;
use sim_core::units::{KIB, MIB};
use sim_core::{Dur, SimTime};
use storage_sim::file::Segment;
use storage_sim::{FaultPlan, InterferenceSchedule};

/// Montage-MPI parameters.
#[derive(Debug, Clone)]
pub struct MontageParams {
    /// Nodes in the job.
    pub nodes: u32,
    /// Ranks per node (40; only the leader runs sequential stages).
    pub ranks_per_node: u32,
    /// Input FITS images per node (30 → 960 total).
    pub inputs_per_node: u32,
    /// Image axes (880×880 int16 ≈ 1.5 MiB per image).
    pub image_axes: (u64, u64),
    /// Projected intermediate bytes per node (the mosaic segments bring
    /// the per-node intermediate total to the ~800 MiB of §V-B2).
    pub proj_bytes_per_node: u64,
    /// Intermediate write transfer size (≤4 KiB at the app level).
    pub inter_xfer: u64,
    /// mAddMPI read bytes per rank (~3 MiB).
    pub madd_read_per_rank: u64,
    /// mAddMPI write bytes per rank (~20 MiB).
    pub madd_write_per_rank: u64,
    /// mAddMPI write transfer size (32 KiB).
    pub madd_xfer: u64,
    /// mViewer read bytes per node (~750 MiB).
    pub mviewer_read_per_node: u64,
    /// mViewer read transfer size.
    pub mviewer_xfer: u64,
    /// Output PNG bytes per node (~3.6 MiB).
    pub png_bytes: u64,
    /// Compute time per stage for the leader.
    pub stage_compute: Dur,
    /// Where intermediates live: `/p/gpfs1/montage/work` (baseline) or
    /// `/dev/shm/montage` (the Figure 8 optimization).
    pub workdir: String,
    /// Fault-injection plan applied to the PFS for this run (empty = none).
    pub faults: FaultPlan,
    /// Competing-tenant load on the shared PFS (empty = dedicated machine).
    pub interference: InterferenceSchedule,
}

impl MontageParams {
    /// Paper configuration: 32 nodes, 247 s job, 12 % I/O, 53 GiB moved.
    pub(crate) fn paper() -> Self {
        MontageParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: 32,
            ranks_per_node: 40,
            inputs_per_node: 30,
            image_axes: (880, 880),
            proj_bytes_per_node: 60 * MIB,
            inter_xfer: 4 * KIB,
            madd_read_per_rank: 3 * MIB,
            madd_write_per_rank: 20 * MIB,
            madd_xfer: 24 * KIB,
            mviewer_read_per_node: 750 * MIB,
            mviewer_xfer: 24 * KIB,
            png_bytes: 3600 * KIB,
            stage_compute: Dur::from_secs_f64(30.0),
            workdir: "/p/gpfs1/montage/work".to_string(),
        }
    }

    /// Scaled-down variant.
    pub fn scaled(scale: f64) -> Self {
        let p = Self::paper();
        MontageParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: scaled_nodes(p.nodes, scale),
            ranks_per_node: p
                .ranks_per_node
                .min(scaled(p.ranks_per_node as u64, scale.max(0.1), 2) as u32),
            inputs_per_node: scaled(p.inputs_per_node as u64, scale.max(0.1), 2) as u32,
            image_axes: p.image_axes,
            proj_bytes_per_node: scaled(p.proj_bytes_per_node, scale, 1 * MIB),
            inter_xfer: p.inter_xfer,
            madd_read_per_rank: scaled(p.madd_read_per_rank, scale, 128 * KIB),
            madd_write_per_rank: scaled(p.madd_write_per_rank, scale, 512 * KIB),
            madd_xfer: p.madd_xfer,
            mviewer_read_per_node: scaled(p.mviewer_read_per_node, scale, 2 * MIB),
            mviewer_xfer: p.mviewer_xfer,
            png_bytes: scaled(p.png_bytes, scale.max(0.25), 256 * KIB),
            stage_compute: Dur::from_secs_f64(p.stage_compute.as_secs_f64() * scale.max(0.02)),
            workdir: p.workdir,
        }
    }

    /// Input image path (inputs live on the PFS in both variants).
    pub(crate) fn input_path(&self, node: u32, i: u32) -> String {
        format!("/p/gpfs1/montage/raw/n{node:02}/img_{i:04}.fits")
    }

    fn node_dir(&self, node: u32) -> String {
        format!("{}/n{node:02}", self.workdir)
    }
}

/// Stage the input FITS images (real headers + pattern payloads).
pub(crate) fn stage_inputs(world: &mut IoWorld, p: &MontageParams) {
    let header = FitsHeader {
        bitpix: 16,
        naxes: vec![p.image_axes.0, p.image_axes.1],
    };
    let enc = header.encode();
    let store = world.storage.pfs_mut().store_mut();
    for node in 0..p.nodes {
        for i in 0..p.inputs_per_node {
            let path = p.input_path(node, i);
            let key = store.create(&path, false).expect("stage fits");
            store
                .write(key, 0, Segment::Bytes(std::sync::Arc::new(enc.clone())))
                .expect("stage fits header");
            store
                .write(
                    key,
                    enc.len() as u64,
                    Segment::Pattern {
                        seed: (node as u64) << 32 | i as u64,
                        len: header.padded_data_bytes(),
                    },
                )
                .expect("stage fits body");
        }
    }
}

/// Batched small ops per engine step.
const BATCH: u64 = 32;

enum Phase {
    ProjectOpenInput { i: u32 },
    ProjectCompute { i: u32 },
    ProjectOpenOut { i: u32 },
    ProjectWrite { i: u32, out: FileStream, off: u64 },
    ImgTbl { i: u32 },
    PreAddBarrier,
    AddRead { fs: Option<FileStream>, off: u64 },
    AddWrite { fs: Option<FileStream>, off: u64 },
    PostAddBarrier,
    Shrink { fs: Option<FileStream>, off: u64 },
    ViewerRead { fs: Option<FileStream>, off: u64 },
    ViewerWritePng { fs: Option<FileStream>, off: u64 },
    Done,
}

struct MontageScript {
    p: MontageParams,
    phase: Phase,
}

impl MontageScript {
    fn node_comm(node: u32) -> CommId {
        CommId(1 + node)
    }
}

impl RankScript<IoWorld> for MontageScript {
    fn next_step(&mut self, w: &mut IoWorld, rank: RankId, now: SimTime) -> StepEffect {
        let node = w.alloc.node_of(rank).0;
        let leader = w.alloc.is_node_leader(rank);
        let dir = self.p.node_dir(node);
        loop {
            match &mut self.phase {
                Phase::ProjectOpenInput { i } => {
                    if !leader {
                        self.phase = Phase::PreAddBarrier;
                        continue;
                    }
                    w.set_app(rank, "mProject");
                    if *i >= self.p.inputs_per_node {
                        self.phase = Phase::ImgTbl { i: 0 };
                        continue;
                    }
                    let input = self.p.input_path(node, *i);
                    let (f, t) = fits::open(w, rank, &input, now);
                    let f = f.expect("input fits staged");
                    let (_, t) = f.read_image(w, rank, t);
                    let (_, t) = f.close(w, rank, t);
                    self.phase = Phase::ProjectCompute { i: *i };
                    return StepEffect::busy_until(t);
                }
                Phase::ProjectCompute { i } => {
                    // Compute gets its own step so the I/O that follows
                    // arrives at shared queues in causal order.
                    let t = w.compute(
                        rank,
                        self.p.stage_compute / (4 * self.p.inputs_per_node as u64).max(1),
                        now,
                    );
                    self.phase = Phase::ProjectOpenOut { i: *i };
                    return StepEffect::busy_until(t);
                }
                Phase::ProjectOpenOut { i } => {
                    let (out, t) =
                        stdio::fopen(w, rank, &format!("{dir}/proj_{:04}.dat", *i), "w", now);
                    let out = out.expect("proj create");
                    let idx = *i;
                    self.phase = Phase::ProjectWrite {
                        i: idx,
                        out,
                        off: 0,
                    };
                    return StepEffect::busy_until(t);
                }
                Phase::ProjectWrite { i, out, off } => {
                    let per_file = self.p.proj_bytes_per_node / self.p.inputs_per_node as u64;
                    if *off >= per_file {
                        let out = *out;
                        let i2 = *i + 1;
                        let (_, t) = stdio::fclose(w, rank, out, now);
                        self.phase = Phase::ProjectOpenInput { i: i2 };
                        return StepEffect::busy_until(t);
                    }
                    let mut t = now;
                    for _ in 0..BATCH {
                        if *off >= per_file {
                            break;
                        }
                        let (res, t2) =
                            stdio::fwrite_pattern(w, rank, *out, self.p.inter_xfer, 0x90, t);
                        res.expect("proj write");
                        t = t2;
                        *off += self.p.inter_xfer;
                    }
                    return StepEffect::busy_until(t);
                }
                Phase::ImgTbl { i } => {
                    w.set_app(rank, "mImgTbl");
                    if *i >= self.p.inputs_per_node {
                        // Write the table file (small).
                        let (fs, t) = stdio::fopen(w, rank, &format!("{dir}/images.tbl"), "w", now);
                        let fs = fs.expect("tbl create");
                        let (_, t) = stdio::fwrite_pattern(w, rank, fs, 16 * KIB, 0x7B, t);
                        let (_, t) = stdio::fclose(w, rank, fs, t);
                        self.phase = Phase::PreAddBarrier;
                        return StepEffect::busy_until(t);
                    }
                    // Header stats over projected files.
                    let (_, t) =
                        io_layers::posix::stat(w, rank, &format!("{dir}/proj_{:04}.dat", *i), now);
                    *i += 1;
                    return StepEffect::busy_until(t);
                }
                Phase::PreAddBarrier => {
                    self.phase = Phase::AddRead { fs: None, off: 0 };
                    return StepEffect {
                        outcome: Outcome::Collective {
                            comm: CommId::WORLD,
                            kind: CollectiveKind::Barrier,
                            bytes: 0,
                        },
                        open_gates: vec![],
                    };
                }
                Phase::AddRead { fs, off } => {
                    w.set_app(rank, "mAddMPI");
                    if fs.is_none() {
                        // Each rank scans a projected file of its node.
                        let local = w.alloc.local_rank(rank);
                        let which = local % self.p.inputs_per_node;
                        let (f, t) =
                            stdio::fopen(w, rank, &format!("{dir}/proj_{which:04}.dat"), "r", now);
                        *fs = Some(f.expect("proj exists"));
                        return StepEffect::busy_until(t);
                    }
                    if *off >= self.p.madd_read_per_rank {
                        let f = fs.take().expect("open");
                        let (_, t) = stdio::fclose(w, rank, f, now);
                        self.phase = Phase::AddWrite { fs: None, off: 0 };
                        return StepEffect::busy_until(t);
                    }
                    let mut t = now;
                    let f = (*fs).expect("open");
                    for _ in 0..BATCH {
                        if *off >= self.p.madd_read_per_rank {
                            break;
                        }
                        let (res, t2) = stdio::fread(w, rank, f, 3 * KIB / 2, t);
                        res.expect("madd read");
                        t = t2;
                        *off += 3 * KIB / 2;
                    }
                    return StepEffect::busy_until(t);
                }
                Phase::AddWrite { fs, off } => {
                    // mAddMPI is one MPI job writing a single shared mosaic
                    // file: every rank covers a disjoint region. On GPFS
                    // this is exactly the cross-node shared-write pattern
                    // whose lock-token traffic grows with node count; in
                    // shm each node's namespace holds its own region.
                    let my_base = rank.0 as u64 * self.p.madd_write_per_rank;
                    if fs.is_none() {
                        let mode = if w.alloc.local_rank(rank) == 0 && node == 0 {
                            "w"
                        } else {
                            "r+"
                        };
                        let (f, t) = stdio::fopen(
                            w,
                            rank,
                            &format!("{}/mosaic.dat", self.p.workdir),
                            mode,
                            now,
                        );
                        let f = match f {
                            Ok(f) => f,
                            Err(_) => {
                                // First accessor on this namespace creates it.
                                let (f2, t2) = stdio::fopen(
                                    w,
                                    rank,
                                    &format!("{}/mosaic.dat", self.p.workdir),
                                    "w",
                                    now,
                                );
                                *fs = Some(f2.expect("mosaic create"));
                                return StepEffect::busy_until(t2);
                            }
                        };
                        *fs = Some(f);
                        return StepEffect::busy_until(t);
                    }
                    if *off >= self.p.madd_write_per_rank {
                        let f = fs.take().expect("open");
                        let (_, t) = stdio::fclose(w, rank, f, now);
                        self.phase = Phase::PostAddBarrier;
                        return StepEffect::busy_until(t);
                    }
                    let mut t = now;
                    let f = (*fs).expect("open");
                    if *off == 0 {
                        let (_, t2) = stdio::fseek(
                            w,
                            rank,
                            f,
                            my_base as i64,
                            crate::montage::SeekWhence::Set,
                            t,
                        );
                        t = t2;
                    }
                    for _ in 0..8 {
                        if *off >= self.p.madd_write_per_rank {
                            break;
                        }
                        let (res, t2) =
                            stdio::fwrite_pattern(w, rank, f, self.p.madd_xfer, 0xADD, t);
                        res.expect("mosaic write");
                        t = t2;
                        *off += self.p.madd_xfer;
                    }
                    return StepEffect::busy_until(t);
                }
                Phase::PostAddBarrier => {
                    self.phase = Phase::Shrink { fs: None, off: 0 };
                    return StepEffect {
                        outcome: Outcome::Collective {
                            comm: CommId::WORLD,
                            kind: CollectiveKind::Barrier,
                            bytes: 0,
                        },
                        open_gates: vec![],
                    };
                }
                Phase::Shrink { fs, off } => {
                    if !leader {
                        self.phase = Phase::Done;
                        continue;
                    }
                    w.set_app(rank, "mShrink");
                    let budget = self.p.madd_write_per_rank; // sample one rank's region
                    if fs.is_none() {
                        let (f, t) = stdio::fopen(
                            w,
                            rank,
                            &format!("{}/mosaic.dat", self.p.workdir),
                            "r",
                            now,
                        );
                        let f = f.expect("mosaic exists");
                        let (_, t2) = stdio::fseek(
                            w,
                            rank,
                            f,
                            (rank.0 as u64 * budget) as i64,
                            crate::montage::SeekWhence::Set,
                            t,
                        );
                        *fs = Some(f);
                        return StepEffect::busy_until(t2);
                    }
                    if *off >= budget {
                        let f = fs.take().expect("open");
                        let (_, t) = stdio::fclose(w, rank, f, now);
                        // Write the shrunk image (small).
                        let (s, t) = stdio::fopen(w, rank, &format!("{dir}/shrunken.dat"), "w", t);
                        let s = s.expect("shrunken create");
                        let (_, t) = stdio::fwrite_pattern(w, rank, s, 512 * KIB, 0x5123, t);
                        let (_, t) = stdio::fclose(w, rank, s, t);
                        self.phase = Phase::ViewerRead { fs: None, off: 0 };
                        return StepEffect::busy_until(t);
                    }
                    let mut t = now;
                    let f = (*fs).expect("open");
                    for _ in 0..BATCH {
                        if *off >= budget {
                            break;
                        }
                        let (res, t2) = stdio::fread(w, rank, f, 4 * KIB, t);
                        res.expect("shrink read");
                        t = t2;
                        *off += 4 * KIB;
                    }
                    return StepEffect::busy_until(t);
                }
                Phase::ViewerRead { fs, off } => {
                    w.set_app(rank, "mViewer");
                    // The node's mosaic region: its ranks' concatenated
                    // output, wrapped if the viewer samples more.
                    let region = self.p.ranks_per_node as u64 * self.p.madd_write_per_rank;
                    let base =
                        (node as u64 * self.p.ranks_per_node as u64) * self.p.madd_write_per_rank;
                    if fs.is_none() {
                        let (f, t) = stdio::fopen(
                            w,
                            rank,
                            &format!("{}/mosaic.dat", self.p.workdir),
                            "r",
                            now,
                        );
                        let f = f.expect("mosaic exists");
                        let (_, t2) = stdio::fseek(
                            w,
                            rank,
                            f,
                            base as i64,
                            crate::montage::SeekWhence::Set,
                            t,
                        );
                        *fs = Some(f);
                        return StepEffect::busy_until(t2);
                    }
                    if *off >= self.p.mviewer_read_per_node {
                        let f = fs.take().expect("open");
                        let (_, t) = stdio::fclose(w, rank, f, now);
                        self.phase = Phase::ViewerWritePng { fs: None, off: 0 };
                        return StepEffect::busy_until(t);
                    }
                    let mut t = now;
                    let f = (*fs).expect("open");
                    for _ in 0..BATCH {
                        if *off >= self.p.mviewer_read_per_node {
                            break;
                        }
                        if (*off + self.p.mviewer_xfer) % region < self.p.mviewer_xfer {
                            // Wrap back to the region start.
                            let (_, t2) = stdio::fseek(
                                w,
                                rank,
                                f,
                                base as i64,
                                crate::montage::SeekWhence::Set,
                                t,
                            );
                            t = t2;
                        }
                        let (res, t2) = stdio::fread(w, rank, f, self.p.mviewer_xfer, t);
                        res.expect("viewer read");
                        t = t2;
                        *off += self.p.mviewer_xfer;
                    }
                    return StepEffect::busy_until(t);
                }
                Phase::ViewerWritePng { fs, off } => {
                    if fs.is_none() {
                        let (f, t) = stdio::fopen(
                            w,
                            rank,
                            &format!("{dir}/mosaic_n{node:02}.png"),
                            "w",
                            now,
                        );
                        *fs = Some(f.expect("png create"));
                        return StepEffect::busy_until(t);
                    }
                    if *off >= self.p.png_bytes {
                        let f = fs.take().expect("open");
                        let (_, t) = stdio::fclose(w, rank, f, now);
                        self.phase = Phase::Done;
                        return StepEffect::busy_until(t);
                    }
                    let (res, t) = stdio::fwrite_pattern(
                        w,
                        rank,
                        *fs.as_ref().expect("open"),
                        64 * KIB,
                        0x916,
                        now,
                    );
                    res.expect("png write");
                    *off += 64 * KIB;
                    return StepEffect::busy_until(t);
                }
                Phase::Done => return StepEffect::done(),
            }
        }
    }
}

/// Run Montage-MPI at the given scale over the PFS (the Fig. 8 baseline).
pub fn run(scale: f64, seed: u64) -> WorkloadRun {
    let p = MontageParams::scaled(scale);
    run_with(p, scale, seed)
}

/// Run with explicit parameters (the Figure 8 harness varies `nodes` and
/// `workdir`).
pub fn run_with(p: MontageParams, scale: f64, seed: u64) -> WorkloadRun {
    let mut world = IoWorld::lassen(p.nodes, p.ranks_per_node, Dur::from_secs(7200), seed);
    // Pre-size the capture columns: projection reads the per-node inputs,
    // intermediates stream in sub-4 KiB transfers, mAddMPI and mViewer add
    // per-rank/per-node streams.
    let ranks = (p.nodes * p.ranks_per_node) as u64;
    let per_node = p.inputs_per_node as u64 * 4
        + p.proj_bytes_per_node / p.inter_xfer.max(1)
        + p.mviewer_read_per_node / p.mviewer_xfer.max(1);
    world.tracer.reserve(
        (p.nodes as u64 * per_node
            + ranks * (4 + (p.madd_read_per_rank + p.madd_write_per_rank) / p.madd_xfer.max(1)))
            as usize,
    );
    stage_inputs(&mut world, &p);
    world.storage.pfs_mut().set_fault_plan(p.faults.clone());
    world
        .storage
        .pfs_mut()
        .set_interference(p.interference.clone());
    for r in world.alloc.ranks().collect::<Vec<_>>() {
        world.set_app(r, "montage");
    }
    let n = world.alloc.total_ranks();
    let comms: Vec<Communicator> = (0..p.nodes)
        .map(|node| {
            Communicator::new(
                MontageScript::node_comm(node),
                world.alloc.ranks_on(hpc_cluster::topology::NodeId(node)),
            )
        })
        .collect();
    let scripts: Vec<Box<dyn RankScript<IoWorld>>> = (0..n)
        .map(|_| {
            Box::new(MontageScript {
                p: p.clone(),
                phase: Phase::ProjectOpenInput { i: 0 },
            }) as Box<dyn RankScript<IoWorld>>
        })
        .collect();
    execute(WorkloadKind::MontageMpi, scale, world, scripts, comms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recorder_sim::record::{Layer, OpKind};

    fn tiny() -> WorkloadRun {
        run(0.02, 2)
    }

    #[test]
    fn leaders_do_most_io() {
        let run = tiny();
        let c = run.columnar();
        let io = c.select(|i| c.op[i].is_data() && c.layer[i] == Layer::Stdio);
        let by_rank = c.group_by_rank(&io);
        let leader_bytes: u64 = by_rank
            .iter()
            .filter(|(&r, _)| {
                run.world
                    .alloc
                    .is_node_leader(hpc_cluster::topology::RankId(r))
            })
            .map(|(_, g)| g.bytes)
            .sum();
        let other_bytes: u64 = by_rank
            .iter()
            .filter(|(&r, _)| {
                !run.world
                    .alloc
                    .is_node_leader(hpc_cluster::topology::RankId(r))
            })
            .map(|(_, g)| g.bytes)
            .sum();
        // The paper: first rank per node does ~40× more I/O than the rest
        // (per process); in bytes the leaders dominate heavily.
        let n_leaders = run.world.alloc.spec.nodes as u64;
        let n_others = run.world.alloc.total_ranks() as u64 - n_leaders;
        let per_leader = leader_bytes / n_leaders;
        let per_other = other_bytes / n_others.max(1);
        assert!(
            per_leader > 5 * per_other,
            "leader {per_leader} vs other {per_other}"
        );
    }

    #[test]
    fn five_apps_appear_in_the_trace() {
        let run = tiny();
        let names = run.world.tracer.app_names();
        for app in ["mProject", "mImgTbl", "mAddMPI", "mShrink", "mViewer"] {
            assert!(
                names.iter().any(|n| n == app),
                "{app} missing from {names:?}"
            );
        }
    }

    #[test]
    fn intermediate_transfers_are_small_inputs_are_larger() {
        let run = tiny();
        let c = run.columnar();
        // App-level (stdio) ops on intermediates ≤ 4 KiB dominate counts.
        let stdio_data =
            c.select(|i| c.layer[i] == Layer::Stdio && c.op[i].is_data() && c.bytes[i] > 0);
        let small = stdio_data
            .iter()
            .filter(|&&i| c.bytes[i as usize] <= 4 * KIB)
            .count();
        let frac = small as f64 / stdio_data.len() as f64;
        assert!(frac > 0.5, "small-transfer fraction {frac}");
    }

    #[test]
    fn data_ops_dominate_not_metadata() {
        let run = tiny();
        let c = run.columnar();
        let io = c.select(|i| c.op[i].is_io() && c.layer[i] == Layer::Stdio);
        let data = io.iter().filter(|&&i| c.op[i as usize].is_data()).count();
        let frac = data as f64 / io.len() as f64;
        // Paper Table III: Montage MPI is 99 % data ops.
        assert!(frac > 0.8, "data fraction {frac}");
    }

    #[test]
    fn reads_exceed_writes() {
        let run = tiny();
        let c = run.columnar();
        let reads = c.select(|i| c.op[i] == OpKind::Read && c.layer[i] == Layer::Stdio);
        let writes = c.select(|i| c.op[i] == OpKind::Write && c.layer[i] == Layer::Stdio);
        assert!(
            reads.len() > writes.len(),
            "paper: 4M reads vs 1M writes ({} vs {})",
            reads.len(),
            writes.len()
        );
    }

    #[test]
    fn shm_workdir_moves_intermediates_off_the_pfs() {
        let mut p = MontageParams::scaled(0.02);
        p.workdir = "/dev/shm/montage".to_string();
        let run = run_with(p, 0.02, 2);
        // The PFS should only have seen the inputs (reads), not the
        // intermediate churn.
        let pfs_written = run.world.storage.pfs().stats().bytes_written;
        assert_eq!(pfs_written, 0, "no intermediate bytes on the PFS");
        let (shm_r, shm_w) = run.world.storage.locals()[0].bytes_moved();
        assert!(shm_w > 0 && shm_r > 0, "intermediates moved through shm");
    }
}
