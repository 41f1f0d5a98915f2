//! End-to-end pipeline benchmark: simulate + capture + analyze, driven by
//! the scenario-parallel sweep driver at several worker counts.
//!
//! Invoked as `repro -- bench-pipeline [--short]`; writes
//! `BENCH_pipeline.json` at the repository root (`--short` runs and
//! checks everything but writes no file). Two measurements:
//!
//! 1. **Scenario fan-out** — the paper-six characterization and the full
//!    fault sweep, run sequentially and with the parallel driver at 1, 2,
//!    and 8 workers. Every configuration's rendered tables, entity YAML,
//!    and fault report are asserted **byte-identical** to the sequential
//!    reference; any divergence aborts the benchmark (ci.sh relies on
//!    this). Wall-clock speedup is whatever the host's cores can deliver —
//!    the JSON records `host_cores` so single-core CI numbers are not
//!    mistaken for the architecture's ceiling.
//! 2. **Capture path** — the direct-to-columnar sink against an emulation
//!    of the old row-major path (materialize `TraceRecord` rows, then
//!    transpose into `ColumnarTrace`), on every paper workload's captured
//!    trace, with and without the fused analysis that consumes it.

use std::time::Instant;

use recorder_sim::ColumnarTrace;
use vani_core::analyzer::{Analysis, TraceProfile};
use vani_core::sweep::{self, Driver};
use vani_core::{tables, yaml};
use vani_rt::json::Json;
use vani_rt::par;

/// Render everything the paper-six fan-out feeds: the attribute tables
/// with the widest coverage plus the full entity YAML for all six runs.
fn render_paper_six(analyses: &[Analysis]) -> String {
    let cols: Vec<&Analysis> = analyses.iter().collect();
    let mut out = String::new();
    out.push_str(&tables::table1(&cols).render());
    out.push_str(&tables::table3(&cols).render());
    out.push_str(&tables::table6(&cols).render());
    for a in &cols {
        out.push_str(&yaml::emit(&tables::entities_for(a)));
    }
    out
}

/// One end-to-end configuration measurement.
struct ConfigResult {
    name: &'static str,
    workers: usize,
    paper_six_ns: u64,
    fault_sweep_ns: u64,
}

impl ConfigResult {
    fn total_ns(&self) -> u64 {
        self.paper_six_ns + self.fault_sweep_ns
    }
}

/// Run one configuration `samples` times (best-of) and return its timings
/// plus the rendered outputs for the byte-identity check.
fn measure_config(
    name: &'static str,
    driver: Driver,
    workers: usize,
    scale: f64,
    fault_scale: f64,
    samples: usize,
) -> (ConfigResult, String, String) {
    par::set_threads(workers.max(1));
    let mut best_six = u64::MAX;
    let mut best_sweep = u64::MAX;
    let mut six_render = String::new();
    let mut sweep_render = String::new();
    for s in 0..samples {
        let t0 = Instant::now();
        let analyses = sweep::paper_six(scale, 7, driver);
        let six_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let report = sweep::fault_sweep(fault_scale, 7, 20.0, driver);
        let sweep_ns = t1.elapsed().as_nanos() as u64;

        let six = render_paper_six(&analyses);
        let sw = report.render();
        if s == 0 {
            six_render = six;
            sweep_render = sw;
        } else {
            assert_eq!(
                six, six_render,
                "{name}: paper-six output changed between samples"
            );
            assert_eq!(
                sw, sweep_render,
                "{name}: fault-sweep output changed between samples"
            );
        }
        best_six = best_six.min(six_ns);
        best_sweep = best_sweep.min(sweep_ns);
    }
    par::set_threads(0);
    (
        ConfigResult {
            name,
            workers,
            paper_six_ns: best_six,
            fault_sweep_ns: best_sweep,
        },
        six_render,
        sweep_render,
    )
}

/// Best-of-`samples` wall time with one warm-up; returns (result, ns).
fn time_best<T: PartialEq + std::fmt::Debug, F: Fn() -> T>(samples: usize, f: F) -> (T, u64) {
    let reference = f();
    let mut best = u64::MAX;
    for _ in 0..samples {
        let t0 = Instant::now();
        let v = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_nanos() as u64);
        assert_eq!(v, reference, "result changed between samples");
    }
    (reference, best)
}

/// One workload's capture-path measurement.
struct CaptureResult {
    name: &'static str,
    records: usize,
    /// Emulated old path: materialize rows, transpose to columns.
    legacy_ns: u64,
    /// Direct sink: clone the already-columnar capture.
    direct_ns: u64,
    /// Old path + fused analysis of the result.
    legacy_analyze_ns: u64,
    /// Direct path + fused analysis of the result.
    direct_analyze_ns: u64,
}

fn measure_capture(
    name: &'static str,
    run: &exemplar_workloads::WorkloadRun,
    samples: usize,
) -> CaptureResult {
    let t = &run.world.tracer;
    let legacy = || {
        // What capture used to hand the analyzer: a row-major record
        // vector reshaped into columns.
        let rows = t.records();
        ColumnarTrace::from_records(&rows, t.file_paths().to_vec(), t.app_names().to_vec())
    };
    let direct = || t.to_columnar();
    let (c_legacy, legacy_ns) = time_best(samples, legacy);
    let (c_direct, direct_ns) = time_best(samples, direct);
    assert_eq!(
        c_legacy, c_direct,
        "{name}: legacy and direct capture paths diverged"
    );
    let rt = run.runtime();
    let (_, legacy_analyze_ns) = time_best(samples, || TraceProfile::fused(&legacy(), rt));
    let (_, direct_analyze_ns) = time_best(samples, || TraceProfile::fused(&direct(), rt));
    CaptureResult {
        name,
        records: t.len(),
        legacy_ns,
        direct_ns,
        legacy_analyze_ns,
        direct_analyze_ns,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Run the pipeline benchmark and write `BENCH_pipeline.json` (full mode
/// only).
pub fn run_bench(short: bool) {
    let samples = if short { 1 } else { 2 };
    let scale = if short { 0.01 } else { 0.05 };
    let fault_scale = 0.02;
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!(
        "pipeline bench: paper-six + fault sweep, scale {scale}/{fault_scale}, \
         {samples} sample(s), host has {host_cores} core(s)"
    );

    // End-to-end fan-out at each configuration; sequential is the
    // byte-identity reference.
    let configs: [(&'static str, Driver, usize); 4] = [
        ("sequential", Driver::Sequential, 1),
        ("parallel-1", Driver::Parallel, 1),
        ("parallel-2", Driver::Parallel, 2),
        ("parallel-8", Driver::Parallel, 8),
    ];
    let mut results: Vec<ConfigResult> = Vec::new();
    let mut ref_six = String::new();
    let mut ref_sweep = String::new();
    for (name, driver, workers) in configs {
        let (r, six, sw) = measure_config(name, driver, workers, scale, fault_scale, samples);
        if results.is_empty() {
            ref_six = six;
            ref_sweep = sw;
        } else {
            assert_eq!(
                six, ref_six,
                "{name}: paper-six output diverged from sequential"
            );
            assert_eq!(
                sw, ref_sweep,
                "{name}: fault-sweep output diverged from sequential"
            );
        }
        eprintln!(
            "  {:<11} ({} workers): paper-six {:>8.2} ms, fault-sweep {:>8.2} ms, total {:>8.2} ms",
            r.name,
            r.workers,
            r.paper_six_ns as f64 / 1e6,
            r.fault_sweep_ns as f64 / 1e6,
            r.total_ns() as f64 / 1e6,
        );
        results.push(r);
    }
    let seq_total = results[0].total_ns();
    let par8_total = results[3].total_ns();
    eprintln!(
        "  8-worker speedup vs sequential: {:.2}x (outputs byte-identical across all configs)",
        ratio(seq_total, par8_total)
    );

    // Capture path, single worker: the direct-to-columnar sink against the
    // emulated row-major path, per workload.
    par::set_threads(1);
    let cap_samples = if short { 3 } else { 5 };
    let runs: Vec<(&'static str, exemplar_workloads::WorkloadRun)> = vec![
        ("cm1", exemplar_workloads::cm1::run(scale, 7)),
        ("hacc", exemplar_workloads::hacc::run(scale, 7)),
        (
            "cosmoflow",
            exemplar_workloads::cosmoflow::run(scale / 10.0, 7),
        ),
        ("jag", exemplar_workloads::jag::run(scale, 7)),
        ("montage", exemplar_workloads::montage::run(scale, 7)),
        (
            "montage_pegasus",
            exemplar_workloads::montage_pegasus::run(scale, 7),
        ),
    ];
    let mut captures = Vec::new();
    for (name, run) in &runs {
        let c = measure_capture(name, run, cap_samples);
        eprintln!(
            "  capture {name:>16} ({:>7} records): rows+transpose {:>8.3} ms, direct {:>8.3} ms \
             ({:>5.2}x; with analysis {:>5.2}x)",
            c.records,
            c.legacy_ns as f64 / 1e6,
            c.direct_ns as f64 / 1e6,
            ratio(c.legacy_ns, c.direct_ns),
            ratio(c.legacy_analyze_ns, c.direct_analyze_ns),
        );
        captures.push(c);
    }
    par::set_threads(0);
    let legacy_total: u64 = captures.iter().map(|c| c.legacy_ns).sum();
    let direct_total: u64 = captures.iter().map(|c| c.direct_ns).sum();
    let legacy_an_total: u64 = captures.iter().map(|c| c.legacy_analyze_ns).sum();
    let direct_an_total: u64 = captures.iter().map(|c| c.direct_analyze_ns).sum();
    eprintln!(
        "  capture totals: materialization {:.2}x, capture+analysis {:.2}x",
        ratio(legacy_total, direct_total),
        ratio(legacy_an_total, direct_an_total),
    );

    let json = Json::obj([
        (
            "config",
            Json::obj([
                (
                    "mode",
                    Json::Str(if short { "short" } else { "full" }.into()),
                ),
                ("scale", Json::Float(scale)),
                ("fault_scale", Json::Float(fault_scale)),
                ("samples", Json::Int(samples as i128)),
                ("capture_samples", Json::Int(cap_samples as i128)),
                ("host_cores", Json::Int(host_cores as i128)),
                ("timing", Json::Str("best-of wall clock".into())),
            ]),
        ),
        (
            "end_to_end",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("config", Json::Str(r.name.into())),
                            ("workers", Json::Int(r.workers as i128)),
                            ("paper_six_ns", Json::Int(r.paper_six_ns as i128)),
                            ("fault_sweep_ns", Json::Int(r.fault_sweep_ns as i128)),
                            ("total_ns", Json::Int(r.total_ns() as i128)),
                            (
                                "speedup_vs_sequential",
                                Json::Float(ratio(seq_total, r.total_ns())),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("byte_identical_across_configs", Json::Bool(true)),
        (
            "capture",
            Json::obj([
                (
                    "workloads",
                    Json::Arr(
                        captures
                            .iter()
                            .map(|c| {
                                Json::obj([
                                    ("name", Json::Str(c.name.into())),
                                    ("records", Json::Int(c.records as i128)),
                                    ("legacy_ns", Json::Int(c.legacy_ns as i128)),
                                    ("direct_ns", Json::Int(c.direct_ns as i128)),
                                    ("speedup", Json::Float(ratio(c.legacy_ns, c.direct_ns))),
                                    ("legacy_analyze_ns", Json::Int(c.legacy_analyze_ns as i128)),
                                    ("direct_analyze_ns", Json::Int(c.direct_analyze_ns as i128)),
                                    (
                                        "analyze_speedup",
                                        Json::Float(ratio(
                                            c.legacy_analyze_ns,
                                            c.direct_analyze_ns,
                                        )),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("total_legacy_ns", Json::Int(legacy_total as i128)),
                ("total_direct_ns", Json::Int(direct_total as i128)),
                (
                    "materialization_speedup",
                    Json::Float(ratio(legacy_total, direct_total)),
                ),
                (
                    "capture_plus_analysis_speedup",
                    Json::Float(ratio(legacy_an_total, direct_an_total)),
                ),
            ]),
        ),
    ]);

    crate::write_bench_json("BENCH_pipeline.json", &json, short);
}
