//! Integration: the multi-tenant fleet sweep is deterministic, reduces to
//! dedicated runs for a single tenant, and fails fast on bad configs.
//!
//! * The fleet manifest, FCFS admission order, and the fully rendered
//!   statistics report must be **byte-identical** between the sequential
//!   driver and the parallel driver at 1, 2, and 8 workers — for an
//!   all-baseline mix, for a mix with active fault plans (faulted and
//!   crashy variants), and for the 64-job `repro -- fleet-sweep --short`
//!   fleet both in memory and spilled to disk.
//! * A fleet containing exactly one job must reproduce the dedicated run
//!   of that workload **byte-equal** on every extracted attribute, for
//!   each of the seven workloads: empty interference schedules are
//!   bit-identical to never installing one.
//! * A fleet spilling its traces to disk must report the in-memory
//!   fleet's records: equal on every field for a clean spill, equal on
//!   every trace-derived field with the whole capture reported lost when
//!   ENOSPC forces the in-memory fallback, and never complete after a
//!   crash before the first commit.
//! * A crashy tenant of any exemplar, HACC included, crashes once and
//!   restarts.
//! * A mix referencing an unknown workload, a job wider than the cluster
//!   or an empty mix must surface a typed `FleetError`, not a panic.
//!
//! The worker-sweep tests take [`serial`]: `rt::par::set_threads` is
//! process-global, so two sweeps must not interleave.

mod common;

use common::serial;
use std::path::{Path, PathBuf};

use vani_suite::recorder::spill::{load_spill, SpillFaultKind, SpillFaultPlan};
use vani_suite::rt::par;
use vani_suite::vani::analyzer::Analysis;
use vani_suite::vani::sweep::Driver;
use vani_suite::vani::tenancy::{
    build_manifest, fleet_sweep, parse_workload, ArrivalProcess, FleetConfig, FleetError,
    JobRecord, JobTemplate, JobVariant, NodeFaultSpec, SchedPolicy, SpillSpec, KNOWN_WORKLOADS,
};
use vani_suite::workloads as wl;
use vani_suite::workloads::{WorkloadKind, WorkloadRun};

const SCALE: f64 = 0.02;
const SEED: u64 = 11;

/// A small heterogeneous fleet; `with_faults` adds brownout-degraded and
/// crashy tenants to the mix (the "active FaultPlan" half of the matrix).
fn small_cfg(with_faults: bool) -> FleetConfig {
    let mut mix = vec![
        JobTemplate::new("cm1", JobVariant::Baseline, 3),
        JobTemplate::new("hacc", JobVariant::Baseline, 2),
        JobTemplate::new("ior", JobVariant::Baseline, 2),
    ];
    if with_faults {
        mix.push(JobTemplate::new("hacc", JobVariant::Faulted, 2));
        mix.push(JobTemplate::new("cm1", JobVariant::Crashy, 1));
    }
    let mut cfg = FleetConfig::standard(8, SCALE, SEED);
    cfg.mix = mix;
    cfg
}

/// The `repro -- fleet-sweep --short` fleet: 64 jobs of the standard mix
/// at the default `VANI_SCALE` (0.05) and seed 7, spilled into `spill`
/// when given.
fn short_cfg(spill: Option<&Path>) -> FleetConfig {
    let mut cfg = FleetConfig::standard(64, 0.05, 7);
    cfg.spill = spill.map(SpillSpec::clean);
    cfg
}

#[test]
fn fleet_report_is_byte_identical_at_any_worker_count() {
    let _serial = serial();
    let short_spill = spill_dir("short");
    let cases = [
        ("small", small_cfg(false)),
        ("small with faults", small_cfg(true)),
        ("short", short_cfg(None)),
        ("short spilled", short_cfg(Some(&short_spill))),
    ];
    for (label, cfg) in &cases {
        let manifest_ref = build_manifest(cfg).expect("valid config").render();
        let report_ref = fleet_sweep(cfg, Driver::Sequential).expect("valid config");
        let render_ref = report_ref.render();
        assert!(render_ref.contains("Fleet attribute distributions"));
        assert!(render_ref.contains("Noisy neighbor impact"));
        if cfg.mix.iter().any(|t| t.variant == JobVariant::Crashy) {
            assert!(
                render_ref.contains("crashy"),
                "{label}: crashy tenants must appear in the report"
            );
        }
        assert_eq!(
            render_ref.contains("Spill durability"),
            cfg.spill.is_some(),
            "{label}: the spill section appears exactly when the fleet spills"
        );

        for workers in [1usize, 2, 8] {
            par::set_threads(workers);
            let report = fleet_sweep(cfg, Driver::Parallel).expect("valid config");
            assert_eq!(
                report.manifest.render(),
                manifest_ref,
                "{label}: manifest diverged at {workers} workers"
            );
            assert_eq!(
                report.admission_digest(),
                report_ref.admission_digest(),
                "{label}: admission order diverged at {workers} workers"
            );
            assert_eq!(
                report.render(),
                render_ref,
                "{label}: fleet report diverged at {workers} workers"
            );
            par::set_threads(0);
        }
    }
    std::fs::remove_dir_all(&short_spill).expect("remove spill dir");
}

/// The dedicated run of `workload` at [`SCALE`]: its baseline parameter
/// set, with no fault plan and no interference schedule.
fn dedicated_run(workload: &str, seed: u64) -> WorkloadRun {
    match workload {
        "cm1" => wl::cm1::run(SCALE, seed),
        "hacc" => wl::hacc::run(SCALE, seed),
        "cosmoflow" => wl::cosmoflow::run(SCALE, seed),
        "jag" => wl::jag::run(SCALE, seed),
        "montage-mpi" => wl::montage::run(SCALE, seed),
        "montage-pegasus" => wl::montage_pegasus::run(SCALE, seed),
        "ior" => wl::ior::run(wl::ior::IorParams::scaled(SCALE), seed),
        other => panic!("no dedicated run for {other}"),
    }
}

#[test]
fn single_tenant_fleet_reproduces_the_dedicated_run_byte_equal() {
    // One job, a cluster far wider than it needs: its interference
    // schedule is empty, so the fleet job must be bit-identical to the
    // dedicated run with the same (manifest-assigned) seed. Every
    // workload runs, so each interface selection (POSIX, STDIO and
    // HDF5-MPI-IO with its POSIX fallback) feeds a checked record.
    let mut interfaces = Vec::new();
    for workload in KNOWN_WORKLOADS {
        let cfg = FleetConfig {
            n_jobs: 1,
            scale: SCALE,
            seed: SEED,
            cluster_nodes: 512,
            pfs_capacity_scale: SCALE,
            arrival: ArrivalProcess {
                mean_interarrival: 10.0,
            },
            mix: vec![JobTemplate::new(workload, JobVariant::Baseline, 1)],
            node_faults: NodeFaultSpec::None,
            sched: SchedPolicy::standard(),
            spill: None,
        };
        let manifest = build_manifest(&cfg).expect("valid config");
        let job_seed = manifest.jobs[0].seed;

        let report = fleet_sweep(&cfg, Driver::Sequential).expect("valid config");
        assert_eq!(report.records.len(), 1, "{workload}");
        let r = &report.records[0];
        assert_eq!(
            r.mean_neighbor_load, 0.0,
            "{workload}: a lonely tenant has no neighbors"
        );
        assert_eq!(r.tenant_delay_secs, 0.0, "{workload}");
        assert_eq!(r.contended_ops, 0, "{workload}");

        let dedicated = Analysis::from_run(&dedicated_run(workload, job_seed));
        assert_eq!(
            r.runtime,
            dedicated.job_time.as_secs_f64(),
            "{workload}: runtime must be byte-equal"
        );
        assert_eq!(r.io_time_frac, dedicated.profile.io_time_frac, "{workload}");
        assert_eq!(r.read_bytes, dedicated.profile.read_bytes, "{workload}");
        assert_eq!(r.write_bytes, dedicated.profile.write_bytes, "{workload}");
        assert_eq!(r.data_ops, dedicated.profile.data_ops, "{workload}");
        assert_eq!(r.meta_ops, dedicated.profile.meta_ops, "{workload}");
        assert_eq!(r.nodes, dedicated.nodes, "{workload}");
        assert_eq!(r.n_ranks, dedicated.n_ranks, "{workload}");
        assert_eq!(r.fault_events, dedicated.profile.fault_events, "{workload}");
        assert_eq!(
            r.restart_events, dedicated.profile.restart_events,
            "{workload}"
        );
        interfaces.push(dedicated.profile.interface);
    }
    for interface in ["POSIX", "STDIO", "HDF5-MPI-IO"] {
        assert!(
            interfaces.iter().any(|i| i == interface),
            "no workload selected {interface}: {interfaces:?}"
        );
    }
}

/// A fresh, empty spill directory for one fleet of the spill test.
fn spill_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vani_fleet_sweep_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create spill dir");
    dir
}

#[test]
fn spilled_fleet_records_match_the_in_memory_fleet() {
    let _serial = serial();
    let cfg = small_cfg(true);
    let in_memory = fleet_sweep(&cfg, Driver::Sequential)
        .expect("valid config")
        .records;
    assert!(!in_memory.is_empty());
    for workers in [1usize, 2] {
        par::set_threads(workers);
        let run = |name: &str, fault: SpillFaultPlan| {
            let dir = spill_dir(&format!("{name}_{workers}"));
            let mut spilled = cfg.clone();
            spilled.spill = Some(SpillSpec {
                dir: dir.clone(),
                fault,
            });
            let records = fleet_sweep(&spilled, Driver::Parallel)
                .expect("valid config")
                .records;
            (dir, records)
        };

        // A clean spill is the in-memory fleet, durability included. Its
        // logs give each job's captured record count.
        let (dir, clean) = run("clean", SpillFaultPlan::none());
        assert_eq!(clean, in_memory, "clean spill at {workers} workers");
        let captured: Vec<u64> = clean
            .iter()
            .map(|r| {
                let log = dir.join(format!("job-{:05}.vsp3", r.job_id));
                load_spill(&log).expect("a clean spill log loads").len() as u64
            })
            .collect();
        assert!(captured.iter().all(|&n| n > 0));
        std::fs::remove_dir_all(&dir).expect("remove spill dir");

        // ENOSPC on the first chunk takes the fallback: the profile is
        // folded in memory, and the whole capture is reported lost.
        let (dir, enospc) = run(
            "enospc",
            SpillFaultPlan::at_chunk(SpillFaultKind::Enospc, SEED, 0),
        );
        let trace_fields: Vec<JobRecord> = enospc
            .iter()
            .map(|r| JobRecord {
                trace_complete_frac: 1.0,
                trace_lost_records: 0,
                ..r.clone()
            })
            .collect();
        assert_eq!(
            trace_fields, in_memory,
            "ENOSPC fallback at {workers} workers"
        );
        for (r, &n) in enospc.iter().zip(&captured) {
            assert_eq!(r.trace_complete_frac, 0.0, "job {}", r.job_id);
            assert_eq!(r.trace_lost_records, n, "job {}", r.job_id);
        }
        std::fs::remove_dir_all(&dir).expect("remove spill dir");

        // A crash before the first commit leaves no durable record.
        let (dir, crashed) = run(
            "crash",
            SpillFaultPlan::at_chunk(SpillFaultKind::CrashBeforeCommit, SEED, 0),
        );
        assert_eq!(crashed.len(), in_memory.len());
        for r in &crashed {
            assert!(
                r.trace_complete_frac < 1.0,
                "job {} reported a complete trace after a crash before commit",
                r.job_id
            );
        }
        std::fs::remove_dir_all(&dir).expect("remove spill dir");
        par::set_threads(0);
    }
}

#[test]
fn unknown_workload_is_a_typed_error_not_a_panic() {
    let mut cfg = small_cfg(false);
    cfg.mix
        .push(JobTemplate::new("lammps", JobVariant::Baseline, 1));
    let err = fleet_sweep(&cfg, Driver::Sequential).unwrap_err();
    assert_eq!(err, FleetError::UnknownWorkload("lammps".to_string()));
    let msg = err.to_string();
    assert!(
        msg.contains("lammps") && msg.contains("cm1"),
        "message lists known ids: {msg}"
    );
}

#[test]
fn known_workload_ids_are_the_launcher_kinds_in_order() {
    let ids: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.id()).collect();
    assert_eq!(ids, KNOWN_WORKLOADS);
    for k in WorkloadKind::ALL {
        assert_eq!(parse_workload(k.id()), Ok(k));
    }
}

#[test]
fn crashy_hacc_jobs_crash_once_and_restart() {
    // Every exemplar recovers through the shared crash/restart driver, so
    // the crashy variant is not limited to CM1 and CosmoFlow.
    let mut cfg = small_cfg(false);
    cfg.mix = vec![JobTemplate::new("hacc", JobVariant::Crashy, 1)];
    let report = fleet_sweep(&cfg, Driver::Sequential).expect("valid config");
    assert_eq!(report.records.len(), cfg.n_jobs);
    for r in &report.records {
        assert_eq!(
            (r.workload.as_str(), r.variant),
            ("hacc", JobVariant::Crashy)
        );
        assert_eq!(r.restart_events, 1, "job {}", r.job_id);
    }
}

#[test]
fn oversized_jobs_and_empty_mixes_are_typed_errors() {
    // A zero-node cluster cannot hold any job.
    let mut cfg = small_cfg(false);
    cfg.cluster_nodes = 0;
    match fleet_sweep(&cfg, Driver::Sequential).unwrap_err() {
        FleetError::JobTooLarge { cluster_nodes, .. } => assert_eq!(cluster_nodes, 0),
        other => panic!("expected JobTooLarge, got {other:?}"),
    }

    // An all-zero-weight mix is empty.
    let mut cfg = small_cfg(false);
    for t in &mut cfg.mix {
        t.weight = 0;
    }
    assert_eq!(
        fleet_sweep(&cfg, Driver::Sequential).unwrap_err(),
        FleetError::EmptyMix
    );
}
