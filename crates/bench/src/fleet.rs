//! Fleet sweep driver: the multi-tenant datacenter mode, invoked as
//! `repro -- fleet-sweep [--short] [--jobs N] [--node-faults]
//! [--spill DIR]`; writes `BENCH_fleet.json` at the repository root
//! (`--short` runs and checks everything but writes no file).
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
//! allocated; `BENCH_fleet.json`'s `peak_resident_trace_bytes` is the
//! trace gauge's peak, which counts only such buffers (0 in memory; with
//! `--spill`, each running job's spill frame and decode buffers), never
//! the tracer's columns.
//! The same fleet is executed with the sequential
//! driver and the parallel driver at 1, 2, and 8 workers; every rendered
//! report is asserted **byte-identical** to the sequential reference
//! before anything is written — ci.sh relies on this, and a divergence
//! aborts with the offending worker count.
//!
//! Invalid fleet configurations (an unknown workload id in the mix, a
//! variant a workload cannot run, a job wider than the cluster) surface
//! as a typed [`FleetError`] so the binary can fail fast with a message
//! instead of a panic.

use std::path::PathBuf;
use std::time::Instant;

use vani_core::sweep::Driver;
use vani_core::tenancy::{fleet_sweep, FleetConfig, FleetError, FleetReport, SpillSpec};
use vani_rt::json::Json;
use vani_rt::par;

/// Jobs in the full fleet (`--short` uses [`SHORT_JOBS`]).
pub const FULL_JOBS: usize = 1000;
/// Jobs in the short (CI) fleet.
pub const SHORT_JOBS: usize = 64;

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
pub fn bench_config(
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

/// Run the fleet at every driver configuration, assert byte-identity,
/// write `BENCH_fleet.json` (full mode only), and return the rendered
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
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "fleet sweep: {} jobs at scale {scale}, cluster {} nodes, host has {host_cores} core(s)",
        cfg.n_jobs, cfg.cluster_nodes
    );

    recorder_sim::chunk::trace_gauge().reset();
    let t0 = Instant::now();
    let reference: FleetReport = fleet_sweep(&cfg, Driver::Sequential)?;
    let sequential_ns = t0.elapsed().as_nanos() as u64;
    let ref_render = reference.render();
    eprintln!(
        "  sequential            : {:>9.2} ms",
        sequential_ns as f64 / 1e6
    );

    let mut timings: Vec<(String, usize, u64)> = vec![("sequential".to_string(), 1, sequential_ns)];
    for workers in [1usize, 2, 8] {
        par::set_threads(workers);
        let t = Instant::now();
        let report = fleet_sweep(&cfg, Driver::Parallel)?;
        let ns = t.elapsed().as_nanos() as u64;
        par::set_threads(0);
        assert_eq!(
            report.render(),
            ref_render,
            "fleet report diverged from sequential at {workers} workers"
        );
        eprintln!(
            "  parallel-{workers} ({workers} workers): {:>9.2} ms",
            ns as f64 / 1e6
        );
        timings.push((format!("parallel-{workers}"), workers, ns));
    }
    eprintln!(
        "  8-worker speedup vs sequential: {:.2}x (reports byte-identical across all configs)",
        sequential_ns as f64 / timings.last().map(|(_, _, ns)| *ns).unwrap_or(1).max(1) as f64
    );

    // High-water mark of gauged trace bytes (spill frame and decode
    // buffers) across every job of every driver run above. An in-memory
    // fleet folds each job's captured columns in place and allocates no
    // such buffer, so this is 0; with `--spill` it is bounded by the
    // buffers of the jobs in flight, not by fleet size or trace length.
    // The tracer's own columns are not gauged on either path.
    let peak_trace = recorder_sim::chunk::trace_gauge().peak();
    eprintln!(
        "  peak resident trace bytes: {peak_trace} ({:.1} KiB/worker bound with {host_cores} cores)",
        peak_trace as f64 / 1024.0 / host_cores.max(1) as f64
    );

    // The `node_faults` config key appears only when the flag is armed,
    // keeping the healthy BENCH_fleet.json bit-identical to the
    // pre-failure-domain output (asserted by tests/fleet_resilience.rs).
    let mut config_members = vec![
        (
            "mode",
            Json::Str(if short { "short" } else { "full" }.into()),
        ),
        ("n_jobs", Json::Int(cfg.n_jobs as i128)),
        ("scale", Json::Float(scale)),
        ("host_cores", Json::Int(host_cores as i128)),
    ];
    if node_faults {
        config_members.push(("node_faults", Json::Bool(true)));
    }
    // Likewise the `spill` key: absent unless the fleet spilled, keeping
    // the in-memory BENCH_fleet.json byte-stable.
    if let Some(dir) = spill {
        config_members.push(("spill", Json::Str(dir.to_string())));
    }
    let json = Json::obj([
        ("config", Json::obj(config_members)),
        (
            "drivers",
            Json::Arr(
                timings
                    .iter()
                    .map(|(name, workers, ns)| {
                        Json::obj([
                            ("config", Json::Str(name.clone())),
                            ("workers", Json::Int(*workers as i128)),
                            ("total_ns", Json::Int(*ns as i128)),
                            (
                                "speedup_vs_sequential",
                                Json::Float(sequential_ns as f64 / (*ns).max(1) as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("byte_identical_across_configs", Json::Bool(true)),
        ("peak_resident_trace_bytes", Json::Int(peak_trace as i128)),
        ("report", reference.to_json()),
    ]);
    crate::write_bench_json("BENCH_fleet.json", &json, short);

    Ok(ref_render)
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
