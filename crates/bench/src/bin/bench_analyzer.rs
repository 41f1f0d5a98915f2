//! Analyzer throughput, four generations: the legacy one-scan-per-statistic
//! pipeline ([`TraceProfile::multipass`]), the fused single-pass scan
//! ([`TraceProfile::fused`]), the streaming bounded-memory path
//! ([`TraceProfile::streaming`] over compressed chunks), and the spill path
//! ([`TraceProfile::streaming_source`] over an on-disk segment log), on
//! synthetic traces from 10^4 to 10^7 records and on all six exemplar
//! workloads of the paper. Streaming and spill rows also report bytes per
//! record and the peak resident decoded-trace bytes (which must stay flat
//! across trace sizes and under the chunk-ring bound — asserted here for
//! both paths, so the CI smoke run fails if either ever holds more than
//! its ring; the full sweep proves the 10⁷-record larger-than-RAM claim).
//!
//! Writes `BENCH_analyzer.json` at the repository root (full mode only)
//! and prints a summary table. Run with:
//!
//! ```text
//! cargo run --release -p bench --bin bench_analyzer            # full sweep
//! cargo run --release -p bench --bin bench_analyzer -- --short # CI smoke
//! ```
//!
//! `--short` trims the synthetic sweep to 10^6 records and cuts the sample
//! count; both modes measure the same code paths, but a short run writes
//! no file. The 8-worker setting is the headline configuration; results
//! are bit-identical at any worker count (asserted here on every measured
//! trace, and exhaustively in the `analyzer_fused_vs_multipass`
//! integration suite).

use std::time::Instant;

use exemplar_workloads::{cm1, cosmoflow, hacc, jag, montage, montage_pegasus};
use recorder_sim::chunk::{
    resident_bound, trace_gauge, ChunkedTrace, DEFAULT_CHUNK_ROWS, RING_SLOTS,
};
use recorder_sim::record::{Layer, OpKind};
use recorder_sim::spill::{spill_columnar, SpillSource};
use recorder_sim::{ColumnarTrace, SpillFaultPlan};
use sim_core::Dur;
use vani_core::analyzer::TraceProfile;
use vani_rt::json::Json;
use vani_rt::{par, Rng};

/// Headline worker count for the parallel kernels.
const WORKERS: usize = 8;

/// One size point of the synthetic sweep.
struct SizeResult {
    records: usize,
    multipass_ns: u64,
    fused_ns: u64,
    streaming_ns: u64,
    spill_ns: u64,
    compressed_bytes: usize,
    spill_log_bytes: u64,
    peak_resident_bytes: u64,
    spill_peak_resident_bytes: u64,
}

/// One exemplar workload measurement.
struct WorkloadResult {
    name: &'static str,
    records: usize,
    multipass_ns: u64,
    fused_ns: u64,
    streaming_ns: u64,
}

fn speedup(multipass_ns: u64, fused_ns: u64) -> f64 {
    multipass_ns as f64 / fused_ns.max(1) as f64
}

fn records_per_sec(records: usize, ns: u64) -> f64 {
    records as f64 / (ns.max(1) as f64 / 1e9)
}

/// Build a synthetic trace that exercises every analyzer code path: POSIX
/// reads/writes with mostly-sequential per-(rank, file) offset chains, a
/// metadata tail per file, a handful of shared files next to
/// file-per-process ones, several apps, and a few quiet gaps so phase
/// detection has real work. Fully deterministic from the seed.
fn synthetic_trace(n: usize, seed: u64) -> (ColumnarTrace, Dur) {
    let ranks = 64u32;
    let shared_files = 8u32;
    let apps = 4u16;
    let mut rng = Rng::new(seed);

    let file_paths: Vec<String> = (0..ranks)
        .map(|r| format!("/scratch/fpp/part.{r:04}"))
        .chain((0..shared_files).map(|f| format!("/scratch/shared/step{f:02}.dat")))
        .collect();
    let app_names: Vec<String> = (0..apps).map(|a| format!("kernel{a}")).collect();

    let mut c = ColumnarTrace {
        file_paths,
        app_names,
        ..Default::default()
    };
    // Per-file write frontier keeps most chains sequential.
    let mut frontier = vec![0u64; (ranks + shared_files) as usize];
    let mut clock = 1_000u64;
    for i in 0..n {
        let rank = rng.uniform_u64(0, ranks as u64) as u32;
        let app = (rank % apps as u32) as u16;
        // Quiet gap roughly every n/6 records => ~6 I/O phases.
        if i > 0 && i % (n / 6).max(1) == 0 {
            clock += 400_000_000; // 0.4 s of silence
        }
        let roll = rng.uniform_u64(0, 100);
        let file = if roll < 70 {
            rank // FPP file
        } else {
            ranks + rng.uniform_u64(0, shared_files as u64) as u32
        };
        let (op, bytes) = if roll < 80 {
            let sz = 1u64 << rng.uniform_u64(12, 21); // 4 KiB .. 1 MiB
            (
                if roll < 40 {
                    OpKind::Write
                } else {
                    OpKind::Read
                },
                sz,
            )
        } else if roll < 90 {
            (OpKind::Open, 0)
        } else {
            (OpKind::Close, 0)
        };
        let offset = if op.is_data() {
            let f = &mut frontier[file as usize];
            let at = if rng.uniform_u64(0, 100) < 95 {
                *f // sequential continuation
            } else {
                rng.uniform_u64(0, (*f).max(1)) // occasional backward jump
            };
            *f = (*f).max(at + bytes);
            at
        } else {
            0
        };
        let dur = 2_000 + bytes / 4; // ~4 GB/s plus fixed latency, in ns
        clock += rng.uniform_u64(100, 2_000);
        c.rank.push(rank);
        c.node.push(rank / 8);
        c.app.push(app);
        c.layer.push(Layer::Posix);
        c.op.push(op);
        c.start.push(clock);
        c.end.push(clock + dur);
        c.file.push(file);
        c.offset.push(offset);
        c.bytes.push(bytes);
    }
    let job_time = Dur(c.end.last().copied().unwrap_or(1) + 1_000_000);
    (c, job_time)
}

/// Best-of-`samples` wall time for one profiling path, with one warm-up.
fn time_path<F: Fn() -> TraceProfile>(samples: usize, f: F) -> (TraceProfile, u64) {
    let reference = f();
    let mut best = u64::MAX;
    for _ in 0..samples {
        let t0 = Instant::now();
        let p = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_nanos() as u64);
        assert_eq!(p, reference, "profile changed between samples");
    }
    (reference, best)
}

/// What [`measure`] produced for one trace.
struct Measured {
    multipass_ns: u64,
    fused_ns: u64,
    streaming_ns: u64,
    spill_ns: u64,
    compressed_bytes: usize,
    spill_log_bytes: u64,
    peak_resident_bytes: u64,
    spill_peak_resident_bytes: u64,
}

/// Measure all four paths on one trace and cross-check them for equality.
/// Streaming is timed on a pre-sealed [`ChunkedTrace`] (seal cost belongs to
/// capture, not analysis) and its gauge peak is asserted under the ring
/// bound. The spill path writes the same chunks into an on-disk segment
/// log (once — the write is capture cost), then profiles straight off
/// disk; its gauge peak covers the writer's staging buffers *and* the
/// off-disk scan, and must also stay at the ring bound — the
/// larger-than-RAM claim, asserted on every run including the 10⁷-record
/// full sweep.
fn measure(c: &ColumnarTrace, job_time: Dur, samples: usize) -> Measured {
    let (multi, multipass_ns) = time_path(samples, || TraceProfile::multipass(c, job_time));
    let (fused, fused_ns) = time_path(samples, || TraceProfile::fused(c, job_time));
    assert_eq!(fused, multi, "fused profile diverged from multipass");

    let t = ChunkedTrace::from_columnar(c, DEFAULT_CHUNK_ROWS);
    trace_gauge().reset();
    let (streamed, streaming_ns) = time_path(samples, || TraceProfile::streaming(&t, job_time));
    let peak = trace_gauge().peak();
    assert_eq!(streamed, fused, "streaming profile diverged from fused");
    let bound = resident_bound(DEFAULT_CHUNK_ROWS, RING_SLOTS);
    assert!(
        peak <= bound,
        "streaming peak {peak} B exceeds resident_bound({DEFAULT_CHUNK_ROWS}, {RING_SLOTS}) = {bound} B"
    );

    let spill_path = std::env::temp_dir().join(format!("vani-bench-spill-{}.vsp3", c.len()));
    trace_gauge().reset();
    let summary = spill_columnar(c, DEFAULT_CHUNK_ROWS, &spill_path, SpillFaultPlan::none())
        .expect("clean spill capture");
    let src = SpillSource::open_strict(&spill_path).expect("clean log opens strict");
    let (spilled, spill_ns) = time_path(samples, || {
        TraceProfile::streaming_source(&src, job_time).expect("off-disk streaming")
    });
    let spill_peak = trace_gauge().peak();
    assert_eq!(spilled, fused, "off-disk spill profile diverged from fused");
    assert!(
        spill_peak <= bound,
        "spill peak {spill_peak} B exceeds resident_bound({DEFAULT_CHUNK_ROWS}, {RING_SLOTS}) = {bound} B"
    );
    std::fs::remove_file(&spill_path).expect("remove bench spill log");

    Measured {
        multipass_ns,
        fused_ns,
        streaming_ns,
        spill_ns,
        compressed_bytes: t.compressed_bytes(),
        spill_log_bytes: summary.bytes,
        peak_resident_bytes: peak,
        spill_peak_resident_bytes: spill_peak,
    }
}

fn main() {
    let short = std::env::args().any(|a| a == "--short");
    let samples = if short { 3 } else { 5 };
    par::set_threads(WORKERS);

    let sizes: &[usize] = if short {
        &[10_000, 100_000, 1_000_000]
    } else {
        &[10_000, 100_000, 1_000_000, 10_000_000]
    };

    eprintln!(
        "analyzer bench: fused vs multipass ({} workers, {} samples, best-of)",
        WORKERS, samples
    );
    let mut synthetic = Vec::new();
    for &n in sizes {
        let (c, job_time) = synthetic_trace(n, 0x5eed_0001 + n as u64);
        let m = measure(&c, job_time, samples);
        eprintln!(
            "  synthetic {:>9} records: multipass {:>9.3} ms, fused {:>9.3} ms ({:>6.1} Mrec/s), streaming {:>9.3} ms ({:>6.1} Mrec/s), spill {:>9.3} ms, {:>5.2} B/rec, peak {:>9} B (spill peak {:>9} B)",
            n,
            m.multipass_ns as f64 / 1e6,
            m.fused_ns as f64 / 1e6,
            records_per_sec(n, m.fused_ns) / 1e6,
            m.streaming_ns as f64 / 1e6,
            records_per_sec(n, m.streaming_ns) / 1e6,
            m.spill_ns as f64 / 1e6,
            m.compressed_bytes as f64 / n.max(1) as f64,
            m.peak_resident_bytes,
            m.spill_peak_resident_bytes,
        );
        synthetic.push(SizeResult {
            records: n,
            multipass_ns: m.multipass_ns,
            fused_ns: m.fused_ns,
            streaming_ns: m.streaming_ns,
            spill_ns: m.spill_ns,
            compressed_bytes: m.compressed_bytes,
            spill_log_bytes: m.spill_log_bytes,
            peak_resident_bytes: m.peak_resident_bytes,
            spill_peak_resident_bytes: m.spill_peak_resident_bytes,
        });
    }

    let scale = if short { 0.01 } else { 0.05 };
    let runs: Vec<(&'static str, exemplar_workloads::WorkloadRun)> = vec![
        ("cm1", cm1::run(scale, 7)),
        ("hacc", hacc::run(scale, 7)),
        ("cosmoflow", cosmoflow::run(scale / 10.0, 7)),
        ("jag", jag::run(scale, 7)),
        ("montage", montage::run(scale, 7)),
        ("montage_pegasus", montage_pegasus::run(scale, 7)),
    ];
    let mut workloads = Vec::new();
    for (name, run) in &runs {
        let c = run.columnar();
        let m = measure(&c, run.runtime(), samples);
        eprintln!(
            "  workload {name:>16} ({:>7} records): multipass {:>8.3} ms, fused {:>8.3} ms, streaming {:>8.3} ms, speedup {:>5.2}x",
            c.len(),
            m.multipass_ns as f64 / 1e6,
            m.fused_ns as f64 / 1e6,
            m.streaming_ns as f64 / 1e6,
            speedup(m.multipass_ns, m.fused_ns),
        );
        workloads.push(WorkloadResult {
            name,
            records: c.len(),
            multipass_ns: m.multipass_ns,
            fused_ns: m.fused_ns,
            streaming_ns: m.streaming_ns,
        });
    }
    par::set_threads(0);

    let json = Json::obj([
        (
            "config",
            Json::obj([
                (
                    "mode",
                    Json::Str(if short { "short" } else { "full" }.into()),
                ),
                ("workers", Json::Int(WORKERS as i128)),
                ("samples", Json::Int(samples as i128)),
                ("timing", Json::Str("best-of wall clock, 1 warm-up".into())),
            ]),
        ),
        (
            "synthetic",
            Json::Arr(
                synthetic
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("records", Json::Int(r.records as i128)),
                            ("multipass_ns", Json::Int(r.multipass_ns as i128)),
                            ("fused_ns", Json::Int(r.fused_ns as i128)),
                            ("streaming_ns", Json::Int(r.streaming_ns as i128)),
                            ("speedup", Json::Float(speedup(r.multipass_ns, r.fused_ns))),
                            (
                                "fused_records_per_sec",
                                Json::Float(records_per_sec(r.records, r.fused_ns)),
                            ),
                            (
                                "streaming_records_per_sec",
                                Json::Float(records_per_sec(r.records, r.streaming_ns)),
                            ),
                            (
                                "compressed_bytes_per_record",
                                Json::Float(r.compressed_bytes as f64 / r.records.max(1) as f64),
                            ),
                            (
                                "peak_resident_bytes",
                                Json::Int(r.peak_resident_bytes as i128),
                            ),
                            ("spill_ns", Json::Int(r.spill_ns as i128)),
                            (
                                "spill_records_per_sec",
                                Json::Float(records_per_sec(r.records, r.spill_ns)),
                            ),
                            (
                                "spill_log_bytes_per_record",
                                Json::Float(r.spill_log_bytes as f64 / r.records.max(1) as f64),
                            ),
                            (
                                "spill_peak_resident_bytes",
                                Json::Int(r.spill_peak_resident_bytes as i128),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::Str(r.name.into())),
                            ("records", Json::Int(r.records as i128)),
                            ("multipass_ns", Json::Int(r.multipass_ns as i128)),
                            ("fused_ns", Json::Int(r.fused_ns as i128)),
                            ("streaming_ns", Json::Int(r.streaming_ns as i128)),
                            ("speedup", Json::Float(speedup(r.multipass_ns, r.fused_ns))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);

    bench::write_bench_json("BENCH_analyzer.json", &json, short);
}
