//! The paper's §V-A use case end to end: run CosmoFlow over GPFS, let the
//! analyzer find the metadata storm, let the optimizer recommend the
//! preload-to-shm reconfiguration, apply it, and measure the speedup.
//!
//! ```text
//! cargo run --release --example characterize_and_optimize
//! ```

use vani_suite::vani::analyzer::Analysis;
use vani_suite::vani::optimizer::{self, Recommendation};
use vani_suite::workloads::cosmoflow;

fn main() {
    let scale = 0.05;
    let mut params = cosmoflow::CosmoflowParams::scaled(scale);
    params.nodes = 16;

    // Baseline over GPFS.
    println!("running CosmoFlow baseline (HDF5 over MPI-IO on GPFS) ...");
    let baseline = cosmoflow::run_with(params.clone(), scale, 7);
    let base = Analysis::from_run(&baseline);
    println!(
        "baseline: runtime {:.1}s, per-rank I/O time {:.2}s, metadata ops {} vs data ops {}",
        base.job_time.as_secs_f64(),
        base.io_time(),
        base.profile.meta_ops,
        base.profile.data_ops
    );

    // Characterize → recommend.
    let advice = optimizer::recommend(&base);
    for a in &advice {
        println!("advice: {:<28} ({})", a.recommendation.name(), a.rationale);
    }
    let preload = advice
        .iter()
        .find(|a| matches!(a.recommendation, Recommendation::PreloadDatasetToShm { .. }))
        .expect("the analyzer should fire the §V-A rule on CosmoFlow");
    if let Recommendation::PreloadDatasetToShm { per_node_bytes } = preload.recommendation {
        println!(
            "applying preload: {} per node into /dev/shm",
            sim_core::units::fmt_bytes(per_node_bytes)
        );
    }

    // Apply the recommendation and re-run.
    let mut optimized_params = params;
    optimized_params.preload_to_shm = true;
    let optimized = cosmoflow::run_with(optimized_params, scale, 7);
    let opt = Analysis::from_run(&optimized);
    println!(
        "optimized: runtime {:.1}s, per-rank I/O time {:.2}s",
        opt.job_time.as_secs_f64(),
        opt.io_time()
    );
    println!(
        "I/O-time speedup: {:.2}x (the paper reports 2.2x-4.6x across 32-256 nodes)",
        base.io_time() / opt.io_time()
    );
}
