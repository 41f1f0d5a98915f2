//! Shared harness code for the table/figure reproduction binary and the
//! benches: runs the six exemplar workloads once at a chosen scale and
//! hands out their analyses.

use vani_core::analyzer::Analysis;
use vani_core::sweep::{self, Driver};

pub mod fleet;
pub mod fsck;
pub mod harness;
pub mod pipeline;

/// Default scale for the reproduction harness (`VANI_SCALE` overrides).
pub const DEFAULT_SCALE: f64 = 0.05;

/// Read the scale from the environment.
pub fn scale_from_env() -> f64 {
    std::env::var("VANI_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE)
}

/// Run all six exemplar workloads (in parallel) and analyze them, in the
/// paper's column order.
pub fn run_all_six(scale: f64, seed: u64) -> Vec<Analysis> {
    sweep::paper_six(scale, seed, Driver::Parallel)
}

/// Write a benchmark's JSON to `name` at the repository root. A `--short`
/// run is a smoke check: it runs every measurement and in-binary assert
/// but leaves the committed full-mode file untouched.
pub fn write_bench_json(name: &str, json: &vani_rt::Json, short: bool) {
    if short {
        eprintln!("--short: {name} left unchanged");
        return;
    }
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, format!("{}\n", json.render()))
        .unwrap_or_else(|e| panic!("write {name}: {e}"));
    eprintln!("wrote {path}");
}

/// Measured IOR peak bandwidth for Table IX.
pub fn ior_peak() -> f64 {
    let p = exemplar_workloads::ior::IorParams {
        nodes: 32,
        ranks_per_node: 4,
        bytes_per_rank: 64 << 20,
        xfer: 16 << 20,
        read_back: false,
        ..exemplar_workloads::ior::IorParams::paper()
    };
    let run = exemplar_workloads::ior::run(p, 1);
    exemplar_workloads::ior::aggregate_bw(&run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_analyses_have_io() {
        let analyses = run_all_six(0.01, 3);
        assert_eq!(analyses.len(), 6);
        for a in &analyses {
            assert!(a.io_bytes() > 0, "{} moved no bytes", a.kind.name());
            assert!(a.n_files() > 0);
        }
    }
}
