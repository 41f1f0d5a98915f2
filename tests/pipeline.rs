//! Integration: the full pipeline (simulate → trace → analyze) holds the
//! paper's Table I invariants for every exemplar workload, and the
//! columnar capture sink equals the row-major capture it replaced.

use recorder_sim::ColumnarTrace;
use vani_suite::vani::analyzer::Analysis;
use vani_suite::workloads as wl;

#[test]
fn table1_shape_invariants_hold_across_all_six() {
    let runs = vec![
        wl::cm1::run(0.02, 7),
        wl::hacc::run(0.02, 7),
        wl::cosmoflow::run(0.002, 7),
        wl::jag::run(0.02, 7),
        wl::montage::run(0.02, 7),
        wl::montage_pegasus::run(0.01, 7),
    ];
    // Direct capture equals the emulated row-major capture: materialize
    // every record as a row, transpose the rows back into columns.
    for run in &runs {
        let t = &run.world.tracer;
        let rows = t.columnar().to_records();
        let transposed =
            ColumnarTrace::from_records(&rows, t.file_paths().to_vec(), t.app_names().to_vec());
        assert_eq!(transposed, *t.columnar(), "{}", run.kind.name());
    }
    let analyses: Vec<Analysis> = runs.iter().map(Analysis::from_run).collect();
    let by_name = |n: &str| analyses.iter().find(|a| a.kind.name() == n).unwrap();

    // Interfaces (Table I's bottom row).
    assert_eq!(by_name("CM1").interface, "POSIX");
    assert_eq!(by_name("HACC (FPP)").interface, "POSIX");
    assert_eq!(by_name("Cosmoflow").interface, "HDF5-MPI-IO");
    assert_eq!(by_name("JAG").interface, "STDIO");
    assert_eq!(by_name("Montage MPI").interface, "STDIO");
    assert_eq!(by_name("Montage Pegasus").interface, "STDIO");

    // Sharing classification.
    assert_eq!(by_name("HACC (FPP)").shared_files(), 0);
    // The dataset itself is fully shared; only rank-0's few checkpoint
    // files register as FPP via the POSIX fallback.
    let cf0 = by_name("Cosmoflow");
    assert!(cf0.shared_files() > 10 * cf0.fpp_files().max(1));
    assert!(by_name("Montage Pegasus").shared_files() > 0);
    assert!(by_name("Montage Pegasus").fpp_files() > 0);

    // Byte-direction shapes.
    let cm1 = by_name("CM1");
    assert!(cm1.read_bytes > cm1.write_bytes);
    let hacc = by_name("HACC (FPP)");
    assert_eq!(hacc.read_bytes, hacc.write_bytes);
    let cf = by_name("Cosmoflow");
    assert!(cf.read_bytes > 100 * cf.write_bytes.max(1));

    // Metadata-heavy vs data-heavy op mixes.
    assert!(
        by_name("Cosmoflow").data_frac() < 0.5,
        "CosmoFlow is metadata-bound"
    );
    assert!(
        by_name("Montage MPI").data_frac() > 0.5,
        "Montage is data-bound"
    );

    // Every workload detected at least one I/O phase and one app.
    for a in &analyses {
        assert!(!a.phases.is_empty(), "{} has no phases", a.kind.name());
        assert!(!a.apps.is_empty(), "{} has no apps", a.kind.name());
        assert_eq!(
            a.access_pattern == "Seq",
            a.kind.name() != "Montage Pegasus"
        );
    }
}

#[test]
fn trace_round_trips_through_disk_and_reanalyzes() {
    use recorder_sim::spill::{load_spill, spill_columnar};
    use recorder_sim::{SpillFaultPlan, Tracer};

    let mut run = wl::hacc::run(0.02, 3);
    let dir = std::env::temp_dir().join("vani_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hacc_trace.vsp4");
    spill_columnar(
        run.world.tracer.columnar(),
        4096,
        &path,
        SpillFaultPlan::none(),
    )
    .unwrap();
    let loaded = Tracer::from_columnar(load_spill(&path).unwrap().to_columnar().unwrap());
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        loaded.columnar().to_records(),
        run.world.tracer.columnar().to_records()
    );
    assert_eq!(loaded.file_paths(), run.world.tracer.file_paths());
    assert_eq!(loaded.app_names(), run.world.tracer.app_names());

    let direct = Analysis::from_run(&run);
    run.world.tracer = loaded;
    assert_eq!(Analysis::from_run(&run), direct);
}

#[test]
fn optimizer_rules_fire_selectively() {
    use vani_suite::vani::optimizer::recommend;
    let cf = Analysis::from_run(&wl::cosmoflow::run(0.002, 7));
    let hc = Analysis::from_run(&wl::hacc::run(0.02, 7));
    let cf_names: Vec<&str> = recommend(&cf)
        .iter()
        .map(|a| a.recommendation.name())
        .collect::<Vec<_>>();
    let hc_names: Vec<&str> = recommend(&hc)
        .iter()
        .map(|a| a.recommendation.name())
        .collect::<Vec<_>>();
    assert!(cf_names.contains(&"preload-dataset-to-shm"));
    assert!(hc_names.contains(&"disable-locking"));
    assert!(!hc_names.contains(&"preload-dataset-to-shm"));
}
