//! Integration: the analyzer is bit-identical to the one-scan-per-statistic
//! oracle in `tests/common/multipass.rs` on every exemplar workload and on
//! a synthetic trace, at every worker count; its online phase and
//! access-pattern detectors match the oracle's sorted scans on shuffled
//! capture orders and at exact boundaries — and the rendered artifacts
//! (tables, figures, YAML) are byte-stable run to run.

mod common;

use common::exemplars::{exemplars, stress_plan};
use common::multipass::multipass;
use common::synthetic::synthetic_trace;
use vani_suite::recorder::record::{AppId, FileId, Layer, OpKind};
use vani_suite::recorder::spill::{spill_columnar, SpillSource};
use vani_suite::recorder::{ChunkedTrace, ColumnarTrace, SpillFaultPlan, DEFAULT_CHUNK_ROWS};
use vani_suite::rt::par;
use vani_suite::sim::{Dur, SimTime};
use vani_suite::storage::FaultPlan;
use vani_suite::vani::analyzer::{Analysis, TraceProfile};
use vani_suite::vani::{figures, tables, yaml};
use vani_suite::workloads::WorkloadKind;

/// One oracle-sweep input: a name, the trace and its job time.
struct Input {
    name: String,
    trace: ColumnarTrace,
    job_time: Dur,
    /// Also profile it chunked in memory and off disk.
    chunked: bool,
}

/// Profile `c` off an on-disk spill log.
fn off_disk(c: &ColumnarTrace, job_time: Dur, name: &str) -> TraceProfile {
    let path = std::env::temp_dir().join(format!("vani_oracle_{name}_{}.vsp4", std::process::id()));
    spill_columnar(c, DEFAULT_CHUNK_ROWS, &path, SpillFaultPlan::none()).expect("clean spill");
    let src = SpillSource::open_strict(&path).expect("a clean log opens strict");
    let p = TraceProfile::streaming_source(&src, job_time).expect("off-disk profile");
    std::fs::remove_file(&path).expect("remove spill log");
    p
}

/// The acceptance gate for the analyzer: every field of `TraceProfile`
/// (counters, f64 fractions, histograms, timelines, file/phase/app
/// profiles, dependency edges) is exactly equal between the analyzer and
/// the multi-pass oracle, for all six workloads of the paper and the
/// synthetic trace at 10⁴ and 10⁵ records, at 1, 2, and 8 workers — with
/// and without an active fault plan, since the resilience counters must
/// be just as merge-order invariant as everything else. On the synthetic
/// trace the chunked in-memory and off-disk profiles must match too.
/// Worker counts share one test so the global `par::set_threads` override
/// is never raced by a sibling test.
#[test]
fn fused_matches_multipass_on_all_workloads_and_worker_counts() {
    let mut runs = exemplars(&WorkloadKind::ALL[..6], 5, &FaultPlan::none());
    runs.extend(exemplars(&WorkloadKind::ALL[..6], 5, &stress_plan()));
    // The fault plan must actually fire, or the faulted half of this test
    // degenerates into a copy of the clean half.
    assert!(
        runs.iter().any(|(n, r)| n.ends_with("+faults") && {
            let a = Analysis::from_run(r);
            a.profile.fault_events > 0 && a.profile.retry_events > 0
        }),
        "stress_plan produced no absorbed faults on any workload"
    );
    let mut inputs: Vec<Input> = runs
        .iter()
        .map(|(name, run)| Input {
            name: name.to_string(),
            trace: run.columnar(),
            job_time: run.runtime(),
            chunked: false,
        })
        .collect();
    for n in [10_000usize, 100_000] {
        let (trace, job_time) = synthetic_trace(n, 0x5eed_0001 + n as u64);
        inputs.push(Input {
            name: format!("synthetic{n}"),
            trace,
            job_time,
            chunked: true,
        });
    }
    // The oracle at the default worker count is the reference point.
    let oracles: Vec<TraceProfile> = inputs
        .iter()
        .map(|x| multipass(&x.trace, x.job_time))
        .collect();
    for workers in [1u32, 2, 8] {
        par::set_threads(workers as usize);
        for (x, oracle) in inputs.iter().zip(&oracles) {
            let name = &x.name;
            let fused = TraceProfile::fused(&x.trace, x.job_time);
            assert_eq!(
                &fused, oracle,
                "{name}: fused profile diverged from the multipass oracle at {workers} workers"
            );
            // The oracle itself must also be worker-count invariant.
            assert_eq!(
                &multipass(&x.trace, x.job_time),
                oracle,
                "{name}: multipass profile changed with worker count {workers}"
            );
            if x.chunked {
                let chunked = ChunkedTrace::from_columnar(&x.trace, DEFAULT_CHUNK_ROWS);
                assert_eq!(
                    &TraceProfile::streaming(&chunked, x.job_time),
                    oracle,
                    "{name}: streaming profile diverged at {workers} workers"
                );
                assert_eq!(
                    &off_disk(&x.trace, x.job_time, name),
                    oracle,
                    "{name}: off-disk profile diverged at {workers} workers"
                );
            }
        }
    }
    par::set_threads(0); // back to auto
}

/// `c` with its rows permuted into `lanes` interleaved lanes: rows
/// `0, lanes, 2·lanes, …`, then `1, lanes + 1, …`, and so on — the
/// worst-case out-of-order arrival for the online detectors.
fn interleaved(c: &ColumnarTrace, lanes: usize) -> ColumnarTrace {
    let rows = c.to_records();
    let permuted: Vec<_> = (0..lanes)
        .flat_map(|lane| rows.iter().skip(lane).step_by(lanes).copied())
        .collect();
    ColumnarTrace::from_records(&permuted, c.file_paths.clone(), c.app_names.clone())
}

/// The online phase builder sees records far out of start order and must
/// still find exactly the sorted scan's phases.
#[test]
fn phase_builder_matches_sorted_scan_on_shuffled_input() {
    let (c, job_time) = synthetic_trace(10_000, 0xabcdef);
    let shuffled = interleaved(&c, 3);
    let oracle = multipass(&shuffled, job_time);
    assert!(
        oracle.phases.len() >= 6,
        "the synthetic trace has six quiet gaps: {} phases",
        oracle.phases.len()
    );
    // Phases are a property of the set of records, not their order.
    assert_eq!(oracle.phases, multipass(&c, job_time).phases);
    let fused = TraceProfile::fused(&shuffled, job_time);
    assert_eq!(fused.phases, oracle.phases);
    assert_eq!(fused, oracle);
}

/// Capture order deliberately violates the pattern tracker's per-cell
/// certificate — rank 0 writes file 0 with *decreasing* start times — so
/// it must fall back to the sorted replay and agree with the oracle.
#[test]
fn pattern_tracker_fallback_matches_sorted_scan() {
    let mut c = ColumnarTrace {
        file_paths: vec!["/data/f0".into()],
        app_names: vec!["w".into()],
        ..Default::default()
    };
    let n = 500usize;
    for i in 0..n {
        let start = (n - i) as u64 * 1_000_000;
        c.push_row(
            0,
            0,
            AppId(0),
            Layer::Posix,
            OpKind::Write,
            SimTime(start),
            SimTime(start + 1000),
            Some(FileId(0)),
            // Offsets ascend in *time* order → "Seq" under the sorted
            // scan, would look reversed in capture order.
            ((n - i) as u64) * 4096,
            4096,
        );
    }
    let job_time = Dur::from_secs(10);
    let oracle = multipass(&c, job_time);
    assert_eq!(oracle.access_pattern, "Seq");
    assert_eq!(TraceProfile::fused(&c, job_time), oracle);
    for chunk_rows in [64usize, 4096] {
        let t = ChunkedTrace::from_columnar(&c, chunk_rows);
        assert_eq!(
            TraceProfile::streaming(&t, job_time),
            oracle,
            "chunk_rows={chunk_rows}"
        );
    }
}

/// The detectors' comparisons at their exact boundaries: a gap of exactly
/// the phase threshold joins (only a longer one splits), and an op that
/// starts exactly at the previous op's end is sequential. Fed in capture
/// order and reversed, so the phase builder both joins to the left and
/// bridges to the right.
#[test]
fn boundary_gaps_and_contiguous_offsets_match_the_oracle() {
    let job_time = Dur::from_secs(100);
    let threshold = 2_000_000_000u64; // job_time / 50
    let s = 1_000_000_000u64;
    // (start, end): gap to the previous end exactly the threshold, then
    // one nanosecond over it.
    let spans = [
        (0, s),
        (s + threshold, 2 * s + threshold),
        (3 * s + 2 * threshold + 1, 4 * s + 2 * threshold + 1),
    ];
    let mut c = ColumnarTrace {
        file_paths: vec!["/data/f0".into()],
        app_names: vec!["w".into()],
        ..Default::default()
    };
    for (k, &(start, end)) in spans.iter().enumerate() {
        c.push_row(
            0,
            0,
            AppId(0),
            Layer::Posix,
            OpKind::Write,
            SimTime(start),
            SimTime(end),
            Some(FileId(0)),
            // Contiguous: each write starts where the previous one ended.
            k as u64 * 4096,
            4096,
        );
    }
    let mut rows = c.to_records();
    rows.reverse();
    let reversed = ColumnarTrace::from_records(&rows, c.file_paths.clone(), c.app_names.clone());
    for (order, trace) in [("capture", &c), ("reversed", &reversed)] {
        let oracle = multipass(trace, job_time);
        assert_eq!(oracle.phases.len(), 2, "{order}: {:?}", oracle.phases);
        assert_eq!(oracle.access_pattern, "Seq", "{order}");
        assert_eq!(TraceProfile::fused(trace, job_time), oracle, "{order}");
    }
}

/// Rendered artifacts are byte-stable: two independent analyses of
/// identically-seeded runs emit the exact same tables, figures, and YAML.
/// This pins the emission-order fixes (rank-sorted I/O fraction, files
/// sorted by (read_bytes, path), apps sorted by (first, name), sorted
/// dependency edges) against regressions that reintroduce HashMap order.
#[test]
fn rendered_artifacts_are_byte_stable() {
    let render = || {
        let runs = exemplars(&WorkloadKind::ALL[..6], 5, &FaultPlan::none());
        let analyses: Vec<Analysis> = runs.iter().map(|(_, r)| Analysis::from_run(r)).collect();
        let refs: Vec<&Analysis> = analyses.iter().collect();
        let mut out = String::new();
        for t in [
            tables::table1(&refs),
            tables::table2(&refs),
            tables::table3(&refs),
            tables::table4(&refs),
            tables::table5(&refs),
            tables::table6(&refs),
            tables::table7(&refs),
            tables::table8(&refs),
            tables::table9(&refs, 1.0),
            tables::table10(&refs),
            tables::table11(&refs),
        ] {
            out.push_str(&t.render());
            out.push('\n');
        }
        for a in &analyses {
            out.push_str(&figures::figure(a));
            let ents = tables::entities_for(a);
            out.push_str(&yaml::emit(&ents));
        }
        out
    };
    let first = render();
    let second = render();
    assert_eq!(
        first, second,
        "rendered artifacts changed between identical runs"
    );
}
