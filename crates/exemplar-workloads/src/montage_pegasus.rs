//! Montage with Pegasus — the nine-kernel planned workflow executed by a
//! pegasus-mpi-cluster worker pool (paper §III-B6, §IV-A6, Figure 6).
//!
//! Pegasus plans the abstract mosaic workflow into a concrete DAG
//! (dependencies inferred from file producer/consumer relations — see
//! `workflow-engine`), and pegasus-mpi-cluster executes it over the job's
//! MPI ranks: workers claim ready tasks, run their I/O, and completions
//! release dependents. mDiff dominates (≈60 % of the 138 GB moved, 5209 of
//! 6039 tasks), the first seconds are an I/O burst from mProject/mDiff
//! parallelism, and small-transfer intermediate access dominates time.

use crate::harness::{execute, scaled, scaled_nodes, WorkloadKind, WorkloadRun};
use hpc_cluster::engine::{GateId, Outcome, RankScript, StepEffect};
use hpc_cluster::topology::RankId;
use io_layers::fits::{self, FitsHeader};
use io_layers::stdio;
use io_layers::world::IoWorld;
use sim_core::units::{KIB, MIB};
use sim_core::{Dur, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use storage_sim::file::Segment;
use storage_sim::{FaultPlan, InterferenceSchedule};
use workflow_engine::dag::{Dag, Task, TaskId};
use workflow_engine::queue::WorkQueue;

/// Montage-Pegasus parameters.
#[derive(Debug, Clone)]
pub struct PegasusParams {
    /// Nodes in the job.
    pub nodes: u32,
    /// Worker ranks per node.
    pub ranks_per_node: u32,
    /// Projected images (mProject/mBackground tasks; ~800).
    pub n_images: u32,
    /// Overlap pairs (mDiff/mFitPlane tasks; ~5209 at paper scale).
    pub n_diffs: u32,
    /// Mosaic tiles (mAdd/mViewer tasks; the 5°×5° patches).
    pub n_tiles: u32,
    /// Raw input files per mProject task (4778 inputs / ~800 images ≈ 6).
    pub inputs_per_image: u32,
    /// Bytes per raw input file.
    pub input_bytes: u64,
    /// Projected image bytes.
    pub proj_bytes: u64,
    /// Bytes each mDiff reads from each of its two projected images.
    pub diff_read_bytes: u64,
    /// Mosaic bytes per tile (written by mAdd, read by mViewer).
    pub mosaic_bytes: u64,
    /// Final image bytes per tile (written by mViewer; 1.5 GB at scale).
    pub image_out_bytes: u64,
    /// CPU time per task.
    pub task_compute: Dur,
    /// Fault-injection plan applied to the PFS for this run (empty = none).
    pub faults: FaultPlan,
    /// Competing-tenant load on the shared PFS (empty = dedicated machine).
    pub interference: InterferenceSchedule,
}

/// Where the workflow's inputs, intermediates and outputs live (the PFS).
const WORKDIR: &str = "/p/gpfs1/pegasus/work";

impl PegasusParams {
    /// Paper configuration: 1038 s job, 21 % I/O, 138 GB moved, 6039 tasks.
    pub(crate) fn paper() -> Self {
        PegasusParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: 32,
            ranks_per_node: 40,
            n_images: 800,
            n_diffs: 5209,
            n_tiles: 4,
            inputs_per_image: 6,
            input_bytes: 1 * MIB,
            proj_bytes: 17 * MIB,
            diff_read_bytes: 8 * MIB,
            mosaic_bytes: 1024 * MIB,
            image_out_bytes: 1536 * MIB,
            task_compute: Dur::from_secs_f64(1.5),
        }
    }

    /// Scaled-down variant.
    pub fn scaled(scale: f64) -> Self {
        let p = Self::paper();
        PegasusParams {
            faults: FaultPlan::none(),
            interference: InterferenceSchedule::none(),
            nodes: scaled_nodes(p.nodes, scale),
            ranks_per_node: p
                .ranks_per_node
                .min(scaled(p.ranks_per_node as u64, scale.max(0.1), 2) as u32),
            // Counts and per-task sizes both scale as sqrt(scale) so every
            // kernel's *byte total* scales linearly and the paper's byte
            // ratios (mDiff ≈ 60 %) hold at any scale.
            n_images: scaled(p.n_images as u64, scale.sqrt(), 4) as u32,
            n_diffs: scaled(p.n_diffs as u64, scale.sqrt(), 8) as u32,
            n_tiles: p.n_tiles,
            inputs_per_image: p.inputs_per_image,
            input_bytes: scaled(p.input_bytes, scale.sqrt(), 16 * KIB),
            proj_bytes: scaled(p.proj_bytes, scale.sqrt(), 64 * KIB),
            diff_read_bytes: scaled(p.diff_read_bytes, scale.sqrt(), 64 * KIB),
            mosaic_bytes: scaled(p.mosaic_bytes, scale, 1 * MIB),
            image_out_bytes: scaled(p.image_out_bytes, scale, 1 * MIB),
            task_compute: Dur::from_secs_f64(p.task_compute.as_secs_f64() * scale.max(0.05)),
        }
    }
}

/// Build the nine-kernel DAG with file-inferred dependencies.
pub(crate) fn build_dag(p: &PegasusParams) -> Dag {
    let mut g = Dag::new();
    let wd = WORKDIR;
    let t = |name: String, app: &str, inputs: Vec<String>, outputs: Vec<String>| Task {
        name,
        app: app.to_string(),
        inputs,
        outputs,
    };
    // mProject: raw inputs → projected image.
    for i in 0..p.n_images {
        let inputs = (0..p.inputs_per_image)
            .map(|k| format!("{wd}/raw/raw_{i:04}_{k}.fits"))
            .collect();
        g.add(t(
            format!("mProject_{i:04}"),
            "mProject",
            inputs,
            vec![format!("{wd}/proj_{i:04}.fits")],
        ));
    }
    // mImgTbl over projected images.
    g.add(t(
        "mImgTbl_proj".to_string(),
        "mImgTbl",
        (0..p.n_images)
            .map(|i| format!("{wd}/proj_{i:04}.fits"))
            .collect(),
        vec![format!("{wd}/pimages.tbl")],
    ));
    // mDiff: pairs of projected images → difference fit.
    for d in 0..p.n_diffs {
        let a = d % p.n_images;
        let b = (d + 1 + d / p.n_images) % p.n_images;
        g.add(t(
            format!("mDiff_{d:05}"),
            "mDiff",
            vec![
                format!("{wd}/proj_{a:04}.fits"),
                format!("{wd}/proj_{b:04}.fits"),
            ],
            vec![format!("{wd}/diff_{d:05}.fits")],
        ));
    }
    // mFitPlane per diff.
    for d in 0..p.n_diffs {
        g.add(t(
            format!("mFitPlane_{d:05}"),
            "mFitPlane",
            vec![format!("{wd}/diff_{d:05}.fits")],
            vec![format!("{wd}/fit_{d:05}.txt")],
        ));
    }
    // mConcatFit over all fits.
    g.add(t(
        "mConcatFit".to_string(),
        "mConcatFit",
        (0..p.n_diffs)
            .map(|d| format!("{wd}/fit_{d:05}.txt"))
            .collect(),
        vec![format!("{wd}/fits.tbl")],
    ));
    // mBgModel.
    g.add(t(
        "mBgModel".to_string(),
        "mBgModel",
        vec![format!("{wd}/fits.tbl"), format!("{wd}/pimages.tbl")],
        vec![format!("{wd}/corrections.tbl")],
    ));
    // mBackground per image.
    for i in 0..p.n_images {
        g.add(t(
            format!("mBackground_{i:04}"),
            "mBackground",
            vec![
                format!("{wd}/proj_{i:04}.fits"),
                format!("{wd}/corrections.tbl"),
            ],
            vec![format!("{wd}/corr_{i:04}.fits")],
        ));
    }
    // Per tile: mImgTbl, mAdd, mViewer.
    for tile in 0..p.n_tiles {
        let members: Vec<u32> = (0..p.n_images).filter(|i| i % p.n_tiles == tile).collect();
        let corr: Vec<String> = members
            .iter()
            .map(|i| format!("{wd}/corr_{i:04}.fits"))
            .collect();
        let mut tbl_in = corr.clone();
        tbl_in.push(format!("{wd}/corrections.tbl"));
        g.add(t(
            format!("mImgTbl_tile{tile}"),
            "mImgTbl",
            tbl_in,
            vec![format!("{wd}/tile_{tile}.tbl")],
        ));
        let mut add_in = corr;
        add_in.push(format!("{wd}/tile_{tile}.tbl"));
        g.add(t(
            format!("mAdd_tile{tile}"),
            "mAdd",
            add_in,
            vec![format!("{wd}/mosaic_{tile}.fits")],
        ));
        g.add(t(
            format!("mViewer_tile{tile}"),
            "mViewer",
            vec![format!("{wd}/mosaic_{tile}.fits")],
            vec![format!("{wd}/image_{tile}.png")],
        ));
    }
    g.infer_edges_from_files();
    g
}

/// Stage raw input files.
fn stage_inputs(world: &mut IoWorld, p: &PegasusParams) {
    let store = world.storage.pfs_mut().store_mut();
    for i in 0..p.n_images {
        for k in 0..p.inputs_per_image {
            let path = format!("{WORKDIR}/raw/raw_{i:04}_{k}.fits");
            let key = store.create(&path, false).expect("stage raw");
            store
                .write(
                    key,
                    0,
                    Segment::Pattern {
                        seed: (i as u64) << 8 | k as u64,
                        len: p.input_bytes,
                    },
                )
                .expect("stage raw body");
        }
    }
}

const GATE_BASE: u64 = 1 << 32;

enum WState {
    Idle,
    /// Task claimed; burning its CPU time before the I/O step.
    Computing(TaskId),
    Finishing(TaskId),
}

struct PegasusWorker {
    p: PegasusParams,
    q: Rc<RefCell<WorkQueue>>,
    state: WState,
}

impl PegasusWorker {
    /// Run one task's I/O; returns its completion time.
    fn exec_task(&self, w: &mut IoWorld, rank: RankId, tid: TaskId, now: SimTime) -> SimTime {
        let (app, name) = {
            let q = self.q.borrow();
            let task = q.dag().task(tid);
            (task.app.clone(), task.name.clone())
        };
        w.set_app(rank, &app);
        let p = &self.p;
        let wd = WORKDIR;
        let t = now;
        match app.as_str() {
            "mProject" => {
                let i: u32 = name[9..].parse().expect("task index");
                let mut t = t;
                for k in 0..p.inputs_per_image {
                    let (fs, t2) = stdio::fopen_buffered(
                        w,
                        rank,
                        &format!("{wd}/raw/raw_{i:04}_{k}.fits"),
                        "r",
                        64 * KIB,
                        t,
                    );
                    let fs = fs.expect("raw staged");
                    let (_, t3) = stdio::fread(w, rank, fs, p.input_bytes, t2);
                    let (_, t4) = stdio::fclose(w, rank, fs, t3);
                    t = t4;
                }
                // Projected output written as a real FITS image.
                let axes = ((p.proj_bytes / 2) as f64).sqrt() as u64;
                let hdr = FitsHeader {
                    bitpix: 16,
                    naxes: vec![axes.max(8), axes.max(8)],
                };
                let (res, t2) = fits::save(
                    w,
                    rank,
                    &format!("{wd}/proj_{i:04}.fits"),
                    &hdr,
                    i as u64,
                    t,
                );
                res.expect("proj save");
                t2
            }
            "mDiff" => {
                let d: u32 = name[6..].parse().expect("task index");
                let a = d % p.n_images;
                let b = (d + 1 + d / p.n_images) % p.n_images;
                let mut t = t;
                for img in [a, b] {
                    let (fs, t2) = stdio::fopen_buffered(
                        w,
                        rank,
                        &format!("{wd}/proj_{img:04}.fits"),
                        "r",
                        64 * KIB,
                        t,
                    );
                    let fs = fs.expect("proj exists");
                    let (_, t3) = stdio::fread(w, rank, fs, p.diff_read_bytes, t2);
                    let (_, t4) = stdio::fclose(w, rank, fs, t3);
                    t = t4;
                }
                let (fs, t2) = stdio::fopen(w, rank, &format!("{wd}/diff_{d:05}.fits"), "w", t);
                let fs = fs.expect("diff create");
                let (_, t3) = stdio::fwrite_pattern(w, rank, fs, 96 * KIB, d as u64, t2);
                let (_, t4) = stdio::fclose(w, rank, fs, t3);
                t4
            }
            "mFitPlane" => {
                let d: u32 = name[10..].parse().expect("task index");
                let (fs, t2) = stdio::fopen(w, rank, &format!("{wd}/diff_{d:05}.fits"), "r", t);
                let fs = fs.expect("diff exists");
                let (_, t3) = stdio::fread(w, rank, fs, 96 * KIB, t2);
                let (_, t4) = stdio::fclose(w, rank, fs, t3);
                let (fs, t5) = stdio::fopen(w, rank, &format!("{wd}/fit_{d:05}.txt"), "w", t4);
                let fs = fs.expect("fit create");
                let (_, t6) = stdio::fwrite_pattern(w, rank, fs, 1 * KIB, d as u64, t5);
                let (_, t7) = stdio::fclose(w, rank, fs, t6);
                t7
            }
            "mConcatFit" => {
                let mut t = t;
                for d in 0..p.n_diffs {
                    let (fs, t2) = stdio::fopen(w, rank, &format!("{wd}/fit_{d:05}.txt"), "r", t);
                    let fs = fs.expect("fit exists");
                    let (_, t3) = stdio::fread(w, rank, fs, 1 * KIB, t2);
                    let (_, t4) = stdio::fclose(w, rank, fs, t3);
                    t = t4;
                }
                let (fs, t2) = stdio::fopen(w, rank, &format!("{wd}/fits.tbl"), "w", t);
                let fs = fs.expect("tbl create");
                let (_, t3) = stdio::fwrite_pattern(w, rank, fs, 5 * MIB, 0xF1, t2);
                let (_, t4) = stdio::fclose(w, rank, fs, t3);
                t4
            }
            "mBgModel" => {
                let mut t = t;
                for f in ["fits.tbl", "pimages.tbl"] {
                    let (fs, t2) = stdio::fopen(w, rank, &format!("{wd}/{f}"), "r", t);
                    let fs = fs.expect("tbl exists");
                    let (_, t3) = stdio::fread(w, rank, fs, 5 * MIB, t2);
                    let (_, t4) = stdio::fclose(w, rank, fs, t3);
                    t = t4;
                }
                let (fs, t2) = stdio::fopen(w, rank, &format!("{wd}/corrections.tbl"), "w", t);
                let fs = fs.expect("corrections create");
                let (_, t3) = stdio::fwrite_pattern(w, rank, fs, 1 * MIB, 0xB6, t2);
                let (_, t4) = stdio::fclose(w, rank, fs, t3);
                t4
            }
            "mBackground" => {
                let i: u32 = name[12..].parse().expect("task index");
                let (fs, t2) = stdio::fopen_buffered(
                    w,
                    rank,
                    &format!("{wd}/proj_{i:04}.fits"),
                    "r",
                    64 * KIB,
                    t,
                );
                let fs = fs.expect("proj exists");
                let (_, t3) = stdio::fread(w, rank, fs, p.proj_bytes, t2);
                let (_, t4) = stdio::fclose(w, rank, fs, t3);
                let (fs, t5) = stdio::fopen(w, rank, &format!("{wd}/corrections.tbl"), "r", t4);
                let fs = fs.expect("corrections exist");
                let (_, t6) = stdio::fread(w, rank, fs, 1 * MIB, t5);
                let (_, t7) = stdio::fclose(w, rank, fs, t6);
                let (fs, t8) = stdio::fopen(w, rank, &format!("{wd}/corr_{i:04}.fits"), "w", t7);
                let fs = fs.expect("corr create");
                let (_, t9) = stdio::fwrite_pattern(w, rank, fs, p.proj_bytes, i as u64, t8);
                let (_, t10) = stdio::fclose(w, rank, fs, t9);
                t10
            }
            "mImgTbl" => {
                // Header stats over inputs, small table out.
                let out = {
                    let q = self.q.borrow();
                    q.dag().task(tid).outputs[0].clone()
                };
                let mut t = t;
                let inputs = {
                    let q = self.q.borrow();
                    q.dag().task(tid).inputs.clone()
                };
                for f in inputs.iter().take(64) {
                    let (_, t2) = io_layers::posix::stat(w, rank, f, t);
                    t = t2;
                }
                let (fs, t2) = stdio::fopen(w, rank, &out, "w", t);
                let fs = fs.expect("tbl create");
                let (_, t3) = stdio::fwrite_pattern(w, rank, fs, 64 * KIB, 0x7B1, t2);
                let (_, t4) = stdio::fclose(w, rank, fs, t3);
                t4
            }
            "mAdd" => {
                let tile: u32 = name[9..].parse().expect("tile index");
                let members: Vec<u32> = (0..p.n_images).filter(|i| i % p.n_tiles == tile).collect();
                let mut t = t;
                // Read a strip of every corrected image.
                let strip = (p.mosaic_bytes / members.len().max(1) as u64).min(p.proj_bytes);
                for i in &members {
                    let (fs, t2) = stdio::fopen_buffered(
                        w,
                        rank,
                        &format!("{wd}/corr_{i:04}.fits"),
                        "r",
                        64 * KIB,
                        t,
                    );
                    let fs = fs.expect("corr exists");
                    let (_, t3) = stdio::fread(w, rank, fs, strip, t2);
                    let (_, t4) = stdio::fclose(w, rank, fs, t3);
                    t = t4;
                }
                let (fs, t2) = stdio::fopen_buffered(
                    w,
                    rank,
                    &format!("{wd}/mosaic_{tile}.fits"),
                    "w",
                    64 * KIB,
                    t,
                );
                let fs = fs.expect("mosaic create");
                let mut t = t2;
                let mut off = 0u64;
                while off < p.mosaic_bytes {
                    let this = (p.mosaic_bytes - off).min(4 * MIB);
                    let (res, t3) = stdio::fwrite_pattern(w, rank, fs, this, tile as u64, t);
                    res.expect("mosaic write");
                    t = t3;
                    off += this;
                }
                let (_, t3) = stdio::fclose(w, rank, fs, t);
                t3
            }
            "mViewer" => {
                let tile: u32 = name[12..].parse().expect("tile index");
                let (fs, t2) = stdio::fopen_buffered(
                    w,
                    rank,
                    &format!("{wd}/mosaic_{tile}.fits"),
                    "r",
                    64 * KIB,
                    t,
                );
                let fs = fs.expect("mosaic exists");
                let (_, t3) = stdio::fread(w, rank, fs, p.mosaic_bytes, t2);
                let (_, t4) = stdio::fclose(w, rank, fs, t3);
                // Two large output requests (>16 MiB each in the paper).
                let (fs, t5) = stdio::fopen_buffered(
                    w,
                    rank,
                    &format!("{wd}/image_{tile}.png"),
                    "w",
                    64 * KIB,
                    t4,
                );
                let fs = fs.expect("image create");
                let half = p.image_out_bytes / 2;
                let (_, t6) = stdio::fwrite_pattern(w, rank, fs, half, 0x1111, t5);
                let (_, t7) =
                    stdio::fwrite_pattern(w, rank, fs, p.image_out_bytes - half, 0x2222, t6);
                let (_, t8) = stdio::fclose(w, rank, fs, t7);
                t8
            }
            other => panic!("unknown kernel {other}"),
        }
    }
}

impl RankScript<IoWorld> for PegasusWorker {
    fn next_step(&mut self, w: &mut IoWorld, rank: RankId, now: SimTime) -> StepEffect {
        loop {
            match self.state {
                WState::Finishing(tid) => {
                    let (newly, all_done, gate) = {
                        let mut q = self.q.borrow_mut();
                        let newly = q.complete(tid);
                        let bumped = !newly.is_empty() || q.all_done();
                        let gate = bumped.then(|| q.gate_to_open_after_complete());
                        (newly, q.all_done(), gate)
                    };
                    let _ = (newly, all_done);
                    self.state = WState::Idle;
                    if let Some(g) = gate {
                        // Wake idlers, then continue claiming in this step.
                        let mut eff = StepEffect::busy_until(now);
                        eff.open_gates.push(GateId(g));
                        return eff;
                    }
                    continue;
                }
                WState::Computing(tid) => {
                    let t_end = self.exec_task(w, rank, tid, now);
                    self.state = WState::Finishing(tid);
                    return StepEffect::busy_until(t_end);
                }
                WState::Idle => {
                    let claim = self.q.borrow_mut().try_claim();
                    match claim {
                        Some(tid) => {
                            // CPU time first, in its own step, so the I/O
                            // arrives at shared queues in causal order.
                            let t = w.compute(rank, self.p.task_compute, now);
                            self.state = WState::Computing(tid);
                            return StepEffect::busy_until(t);
                        }
                        None => {
                            let (done, gate) = {
                                let q = self.q.borrow();
                                (q.all_done(), q.wake_gate())
                            };
                            if done {
                                return StepEffect::done();
                            }
                            return StepEffect {
                                outcome: Outcome::WaitGate(GateId(gate)),
                                open_gates: vec![],
                            };
                        }
                    }
                }
            }
        }
    }
}

/// Run Montage-Pegasus at the given scale.
pub fn run(scale: f64, seed: u64) -> WorkloadRun {
    let p = PegasusParams::scaled(scale);
    run_with(p, scale, seed)
}

/// Run with explicit parameters.
pub fn run_with(p: PegasusParams, scale: f64, seed: u64) -> WorkloadRun {
    let mut world = IoWorld::lassen(p.nodes, p.ranks_per_node, seed);
    // Pre-size the capture columns: each DAG task opens/reads/writes/closes
    // its staged files — mProject consumes inputs_per_image raw files,
    // mDiff touches two projected images, mAdd/mViewer stream per tile.
    world.tracer.reserve(
        (p.n_images as u64 * (p.inputs_per_image as u64 + 2) * 4
            + p.n_diffs as u64 * 8
            + p.n_tiles as u64 * 12) as usize,
    );
    stage_inputs(&mut world, &p);
    let n = world.alloc.total_ranks();
    // No checkpoint markers: a relaunch replans the whole DAG.
    execute(
        WorkloadKind::MontagePegasus,
        scale,
        world,
        p.faults.clone(),
        p.interference.clone(),
        vec![],
        move |_, _| {
            let q = Rc::new(RefCell::new(WorkQueue::new(build_dag(&p), GATE_BASE)));
            (0..n)
                .map(|_| {
                    Box::new(PegasusWorker {
                        p: p.clone(),
                        q: Rc::clone(&q),
                        state: WState::Idle,
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
        run(0.01, 3)
    }

    #[test]
    fn dag_has_nine_kernels_and_is_acyclic() {
        let p = PegasusParams::scaled(0.01);
        let g = build_dag(&p);
        assert!(g.is_acyclic());
        let apps = g.app_names();
        assert_eq!(apps.len(), 9);
        for k in [
            "mProject",
            "mImgTbl",
            "mDiff",
            "mFitPlane",
            "mConcatFit",
            "mBgModel",
            "mBackground",
            "mAdd",
            "mViewer",
        ] {
            assert!(apps.contains(&k), "{k} missing");
        }
    }

    #[test]
    fn all_tasks_complete() {
        let p = PegasusParams::scaled(0.01);
        let n_tasks = build_dag(&p).len();
        let run = tiny();
        // The final outputs exist on the PFS.
        for tile in 0..p.n_tiles {
            let path = format!("{WORKDIR}/image_{tile}.png");
            assert!(
                run.world.storage.pfs().store().lookup(&path).is_some(),
                "final image {path} missing ({n_tasks} tasks)"
            );
        }
    }

    #[test]
    fn mdiff_dominates_io_bytes() {
        let run = tiny();
        let c = run.columnar();
        let data =
            c.select(|i| c.op[i].is_data() && c.layer[i] == recorder_sim::record::Layer::Stdio);
        let by_app = c.group_by_app(&data);
        let bytes_of = |name: &str| {
            c.app_names
                .iter()
                .position(|n| n == name)
                .and_then(|id| by_app.get(&(id as u16)))
                .map(|g| g.bytes)
                .unwrap_or(0)
        };
        let mdiff = bytes_of("mDiff");
        let total: u64 = by_app.values().map(|g| g.bytes).sum();
        let frac = mdiff as f64 / total as f64;
        // Paper: 60 % of I/O is mDiff reading data.
        assert!(frac > 0.3, "mDiff fraction {frac}");
    }

    #[test]
    fn dependencies_execute_in_order() {
        let run = tiny();
        let c = run.columnar();
        // mViewer activity must start after the first mAdd write completes.
        let app_id = |name: &str| c.app_names.iter().position(|n| n == name).unwrap() as u16;
        let madd = app_id("mAdd");
        let mviewer = app_id("mViewer");
        let madd_writes = c.select(|i| c.app[i] == madd && c.op[i] == OpKind::Write);
        let mviewer_reads = c.select(|i| c.app[i] == mviewer && c.op[i] == OpKind::Read);
        assert!(!madd_writes.is_empty() && !mviewer_reads.is_empty());
        let first_viewer = mviewer_reads
            .iter()
            .map(|&i| c.start[i as usize])
            .min()
            .unwrap();
        let first_madd_write = madd_writes
            .iter()
            .map(|&i| c.start[i as usize])
            .min()
            .unwrap();
        assert!(first_viewer > first_madd_write);
    }

    #[test]
    fn early_burst_then_tail() {
        // The paper observes most I/O happens early (mProject/mDiff wave).
        let run = tiny();
        let c = run.columnar();
        let data = c.select(|i| c.op[i].is_data());
        let t_end = c.t_max().as_nanos().max(1);
        let first_half_bytes: u64 = data
            .iter()
            .filter(|&&i| c.start[i as usize] < t_end / 2)
            .map(|&i| c.bytes[i as usize])
            .sum();
        let total = c.sum_bytes(&data).max(1);
        assert!(
            first_half_bytes as f64 / total as f64 > 0.4,
            "I/O should be front-loaded: {first_half_bytes}/{total}"
        );
    }
}
