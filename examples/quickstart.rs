//! Quickstart: run one exemplar workload on the simulated Lassen stack,
//! characterize it with the Vani analyzer, and print its attributes and
//! the optimizer's recommendations.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vani_suite::vani::analyzer::Analysis;
use vani_suite::vani::{optimizer, tables, yaml};

fn main() {
    // 1. Run HACC-IO at 5 % of the paper's scale (seconds, not minutes).
    let run = vani_suite::workloads::hacc::run(0.05, 42);
    println!(
        "HACC-IO finished: simulated runtime {:.2}s, {} trace records",
        run.runtime().as_secs_f64(),
        run.world.tracer.len()
    );

    // 2. Characterize: extract the paper's entities and attributes.
    let analysis = Analysis::from_run(&run);
    let p = &analysis.profile;
    println!(
        "interface={}  files={} (shared {}, fpp {})  read={}  write={}  meta-op share={:.0}%",
        p.interface,
        p.files.len(),
        p.shared_files(),
        p.fpp_files(),
        sim_core::units::fmt_bytes(p.read_bytes),
        sim_core::units::fmt_bytes(p.write_bytes),
        (1.0 - p.data_frac()) * 100.0
    );

    // 3. Emit the machine-readable characterization (what a workload-aware
    //    storage system would consume).
    let entities = tables::entities_for(&analysis);
    println!("\n--- YAML characterization ---\n{}", yaml::emit(&entities));

    // 4. Ask the optimizer what the storage system should do.
    println!("--- recommendations ---");
    for advice in optimizer::recommend(&analysis) {
        println!(
            "* {:<28} because {}",
            advice.recommendation.name(),
            advice.rationale
        );
    }
}
