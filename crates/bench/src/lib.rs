//! Shared code for the table/figure reproduction binary: runs the six
//! exemplar workloads once at a chosen scale and hands out their
//! analyses.

use vani_core::analyzer::Analysis;
use vani_core::sweep::{self, Driver};

pub mod ablations;
pub mod fleet;
pub mod fsck;

/// Default scale for the reproduction harness (`VANI_SCALE` overrides).
pub(crate) const DEFAULT_SCALE: f64 = 0.05;

/// `VANI_SCALE` is set to something other than a finite number > 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleError {
    /// The offending value, as set.
    pub value: String,
}

impl std::fmt::Display for ScaleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VANI_SCALE must be a finite number > 0, got `{}`",
            self.value
        )
    }
}

impl std::error::Error for ScaleError {}

/// Read the scale from the environment: `DEFAULT_SCALE` when
/// `VANI_SCALE` is unset, otherwise its value, which must be a finite
/// number greater than zero.
pub fn scale_from_env() -> Result<f64, ScaleError> {
    let Some(v) = std::env::var_os("VANI_SCALE") else {
        return Ok(DEFAULT_SCALE);
    };
    let value = v.to_string_lossy().into_owned();
    match value.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(s),
        _ => Err(ScaleError { value }),
    }
}

/// Run all six exemplar workloads (in parallel) and analyze them, in the
/// paper's column order.
pub fn run_all_six(scale: f64, seed: u64) -> Vec<Analysis> {
    sweep::paper_six(scale, seed, Driver::Parallel)
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
