//! Fleet sweep driver: the multi-tenant datacenter mode, invoked as
//! `repro -- fleet-sweep [--short] [--jobs N] [--node-faults]
//! [--spill DIR]`. It runs the fleet once with the parallel driver and
//! prints the rendered report.
//!
//! With `--spill DIR` every job's captured trace streams into a
//! crash-consistent segment log under `DIR` (`job-NNNNN.vsp3`), is
//! recovered, and is analyzed straight off disk — the larger-than-RAM
//! fleet mode. The directory is validated up front with the typed
//! [`FleetError::InvalidSpillDir`] (exit 2), mirroring `--jobs`.
//!
//! The full run admits 1000 heterogeneous jobs (the short run 64; `--jobs`
//! overrides either, e.g. `--jobs 10000` for the bounded-memory fleet
//! demonstration) onto the shared cluster and renders the fleet's
//! statistical characterization. Each job's analysis folds the columns
//! its tracer captured in place, so no chunk or decode buffer is
//! allocated. That the report is byte-identical at any worker count, in
//! memory and with `--spill`, is held by `tests/fleet_sweep.rs`.
//!
//! Invalid fleet configurations (an unknown workload id in the mix, a
//! variant a workload cannot run, a job wider than the cluster) surface
//! as a typed [`FleetError`] so the binary can fail fast with a message
//! instead of a panic.

use std::path::PathBuf;

use vani_core::sweep::Driver;
use vani_core::tenancy::{fleet_sweep, FleetConfig, FleetError, SpillSpec};

/// Jobs in the full fleet (`--short` uses [`SHORT_JOBS`]).
pub(crate) const FULL_JOBS: usize = 1000;
/// Jobs in the short (CI) fleet.
pub(crate) const SHORT_JOBS: usize = 64;

/// Parse a `--jobs` argument: a positive integer, or a typed
/// [`FleetError::InvalidJobs`] — never a panic or a silent unwrap.
pub fn parse_jobs(arg: &str) -> Result<usize, FleetError> {
    match arg.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(FleetError::InvalidJobs {
            arg: arg.to_string(),
        }),
    }
}

/// Validate a `--spill` directory: it must exist, be a directory, and be
/// writable (probed by creating and removing a marker file). Failures are
/// the typed [`FleetError::InvalidSpillDir`] — the same exit-2 contract as
/// `--jobs` — never a panic or a mid-sweep I/O error.
pub fn validate_spill_dir(arg: &str) -> Result<PathBuf, FleetError> {
    let bad = |detail: &str| FleetError::InvalidSpillDir {
        dir: arg.to_string(),
        detail: detail.to_string(),
    };
    let dir = PathBuf::from(arg);
    let meta = std::fs::metadata(&dir).map_err(|e| bad(&format!("cannot stat ({e})")))?;
    if !meta.is_dir() {
        return Err(bad("not a directory"));
    }
    let probe = dir.join(".vani-spill-probe");
    std::fs::write(&probe, b"probe").map_err(|e| bad(&format!("not writable ({e})")))?;
    let _ = std::fs::remove_file(&probe);
    Ok(dir)
}

/// The fleet configuration the benchmark runs: the standard heterogeneous
/// mix at a fleet-friendly scale (hundreds of concurrent-ish jobs stay
/// tractable well below the interactive default scale). `node_faults`
/// arms the standard seeded outage profile — the degraded-mode fleet.
pub(crate) fn bench_config(
    short: bool,
    scale: f64,
    jobs: Option<usize>,
    node_faults: bool,
) -> FleetConfig {
    let n_jobs = jobs.unwrap_or(if short { SHORT_JOBS } else { FULL_JOBS });
    if node_faults {
        FleetConfig::standard_with_node_faults(n_jobs, scale, 7)
    } else {
        FleetConfig::standard(n_jobs, scale, 7)
    }
}

/// Run the fleet once with the parallel driver and return the rendered
/// report for stdout.
pub fn run_fleet(
    short: bool,
    scale: f64,
    jobs: Option<usize>,
    node_faults: bool,
    spill: Option<&str>,
) -> Result<String, FleetError> {
    let scale = scale.clamp(0.005, 0.05);
    let mut cfg = bench_config(short, scale, jobs, node_faults);
    if let Some(dir) = spill {
        cfg.spill = Some(SpillSpec::clean(&validate_spill_dir(dir)?));
    }
    eprintln!(
        "fleet sweep: {} jobs at scale {scale}, cluster {} nodes",
        cfg.n_jobs, cfg.cluster_nodes
    );
    Ok(fleet_sweep(&cfg, Driver::Parallel)?.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs("10000"), Ok(10000));
    }

    #[test]
    fn parse_jobs_rejects_zero_and_garbage_with_typed_errors() {
        for bad in ["0", "-3", "ten", "", "1.5", "1e3", "+ 4"] {
            match parse_jobs(bad) {
                Err(FleetError::InvalidJobs { arg }) => {
                    assert_eq!(arg, bad);
                    let msg = FleetError::InvalidJobs { arg }.to_string();
                    assert!(
                        msg.contains("--jobs"),
                        "usage message names the flag: {msg}"
                    );
                }
                other => panic!("`{bad}` must be InvalidJobs, got {other:?}"),
            }
        }
    }

    #[test]
    fn spill_dir_validation_rejects_missing_and_non_directory_paths() {
        match validate_spill_dir("/nonexistent/vani/spill/dir") {
            Err(FleetError::InvalidSpillDir { dir, detail }) => {
                assert_eq!(dir, "/nonexistent/vani/spill/dir");
                assert!(detail.contains("cannot stat"), "detail: {detail}");
            }
            other => panic!("missing dir must be InvalidSpillDir, got {other:?}"),
        }
        let file = std::env::temp_dir().join("vani-spill-not-a-dir.txt");
        std::fs::write(&file, b"x").expect("write probe file");
        match validate_spill_dir(file.to_str().expect("utf8 temp path")) {
            Err(FleetError::InvalidSpillDir { detail, .. }) => {
                assert_eq!(detail, "not a directory");
            }
            other => panic!("file path must be InvalidSpillDir, got {other:?}"),
        }
        std::fs::remove_file(&file).expect("cleanup");
    }

    #[test]
    fn spill_dir_validation_accepts_a_writable_directory() {
        let dir = std::env::temp_dir().join("vani-spill-ok");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ok = validate_spill_dir(dir.to_str().expect("utf8 temp path"))
            .expect("writable dir validates");
        assert_eq!(ok, dir);
        assert!(
            !dir.join(".vani-spill-probe").exists(),
            "probe file is removed after validation"
        );
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn spill_errors_render_with_the_flag_name() {
        let e = FleetError::InvalidSpillDir {
            dir: "/tmp/x".to_string(),
            detail: "not a directory".to_string(),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("--spill"),
            "usage message names the flag: {msg}"
        );
        assert!(msg.contains("/tmp/x"));
    }

    #[test]
    fn node_faults_flag_arms_an_active_plan_without_touching_the_mix() {
        let healthy = bench_config(true, 0.02, None, false);
        let degraded = bench_config(true, 0.02, None, true);
        assert_eq!(healthy.mix, degraded.mix);
        assert_eq!(healthy.node_faults, vani_core::tenancy::NodeFaultSpec::None);
        assert!(matches!(
            degraded.node_faults,
            vani_core::tenancy::NodeFaultSpec::Profile(_)
        ));
    }
}
