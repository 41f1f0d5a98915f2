//! The two §V use cases as experiment drivers.
//!
//! Each driver runs the baseline and the recommendation-applied variant of
//! a workload across a node-count sweep and reports per-rank I/O time —
//! the quantity Figures 7 and 8 plot ("improve I/O performance up to
//! 4.6×/8×"). The reconfiguration is exactly what the optimizer's rule
//! recommends: repoint the data path at the node-local tier.

use crate::sweep::{Driver, RunScalars};
use exemplar_workloads::{cosmoflow, montage};

/// One point of a Figure 7/8 sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Node count.
    pub nodes: u32,
    /// Baseline mean per-rank I/O time, seconds.
    pub baseline_io: f64,
    /// Optimized mean per-rank I/O time, seconds.
    pub optimized_io: f64,
    /// Baseline job runtime, seconds.
    pub baseline_runtime: f64,
    /// Optimized job runtime, seconds.
    pub optimized_runtime: f64,
}

impl SweepPoint {
    /// I/O-time speedup from the reconfiguration.
    pub fn speedup(&self) -> f64 {
        if self.optimized_io <= 0.0 {
            f64::INFINITY
        } else {
            self.baseline_io / self.optimized_io
        }
    }
}

/// Figure 7: CosmoFlow baseline (GPFS, cross-node MPI-IO groups) vs
/// optimized (preload to shm, node-local reads), strong-scaled over
/// `node_counts`. Sweep points are independent simulations and run in
/// parallel, and each runs its baseline to completion before the
/// optimized variant simulates.
pub fn figure7(scale: f64, node_counts: &[u32], seed: u64) -> Vec<SweepPoint> {
    Driver::Parallel.map(node_counts.to_vec(), |nodes| {
        let mut p = cosmoflow::CosmoflowParams::scaled(scale);
        p.nodes = nodes;
        // The baseline run is a temporary, dropped before the optimized
        // run simulates: a worker holds one world at a time.
        let base = RunScalars::of(&cosmoflow::run_with(p.clone(), scale, seed));
        p.preload_to_shm = true;
        let opt = RunScalars::of(&cosmoflow::run_with(p, scale, seed));
        SweepPoint {
            nodes,
            baseline_io: base.io_time,
            optimized_io: opt.io_time,
            baseline_runtime: base.job_time.as_secs_f64(),
            optimized_runtime: opt.job_time.as_secs_f64(),
        }
    })
}

/// Figure 8: Montage-MPI baseline (intermediates on GPFS) vs optimized
/// (intermediates in `/dev/shm`), strong-scaled over `node_counts`:
/// total work fixed at the `scale`-sized workload, divided per node.
/// Sweep points are independent simulations and run in parallel, one
/// world per worker at a time, as in [`figure7`].
pub fn figure8(scale: f64, node_counts: &[u32], seed: u64) -> Vec<SweepPoint> {
    let base_p = montage::MontageParams::scaled(scale);
    Driver::Parallel.map(node_counts.to_vec(), |nodes| {
        let f = base_p.nodes as f64 / nodes as f64;
        let mut p = base_p.clone();
        p.nodes = nodes;
        p.inputs_per_node = ((base_p.inputs_per_node as f64 * f).round() as u32).max(1);
        p.proj_bytes_per_node = (((base_p.proj_bytes_per_node as f64) * f) as u64).max(1 << 20);
        p.madd_read_per_rank = (((base_p.madd_read_per_rank as f64) * f) as u64).max(64 << 10);
        p.madd_write_per_rank = (((base_p.madd_write_per_rank as f64) * f) as u64).max(128 << 10);
        p.mviewer_read_per_node = (((base_p.mviewer_read_per_node as f64) * f) as u64).max(1 << 20);
        let base = RunScalars::of(&montage::run_with(p.clone(), scale, seed));
        p.workdir = "/dev/shm/montage".to_string();
        let opt = RunScalars::of(&montage::run_with(p, scale, seed));
        SweepPoint {
            nodes,
            baseline_io: base.io_time,
            optimized_io: opt.io_time,
            baseline_runtime: base.job_time.as_secs_f64(),
            optimized_runtime: opt.job_time.as_secs_f64(),
        }
    })
}

/// Render a sweep as the repro harness prints it.
pub fn render_sweep(title: &str, points: &[SweepPoint]) -> String {
    let mut out = format!("== {title}\n");
    out.push_str("nodes | baseline I/O (s) | optimized I/O (s) | speedup\n");
    out.push_str("------+------------------+-------------------+--------\n");
    for p in points {
        out.push_str(&format!(
            "{:>5} | {:>16.3} | {:>17.3} | {:>6.2}x\n",
            p.nodes,
            p.baseline_io,
            p.optimized_io,
            p.speedup()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_optimized_wins_and_trend_holds() {
        let pts = figure7(0.02, &[4, 8], 7);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(
                p.speedup() > 1.2,
                "preload must win at {} nodes: {:.2}x",
                p.nodes,
                p.speedup()
            );
        }
    }

    #[test]
    fn figure8_optimized_wins_big() {
        let pts = figure8(0.05, &[4, 8], 7);
        for p in &pts {
            assert!(
                p.speedup() > 3.0,
                "node-local intermediates must win at {} nodes: {:.2}x",
                p.nodes,
                p.speedup()
            );
        }
    }

    #[test]
    fn sweep_renders_as_table() {
        let pts = vec![SweepPoint {
            nodes: 32,
            baseline_io: 2.0,
            optimized_io: 0.5,
            baseline_runtime: 10.0,
            optimized_runtime: 9.0,
        }];
        let r = render_sweep("Figure 7", &pts);
        assert!(r.contains("4.00x"));
        assert!(r.contains("32"));
    }
}
