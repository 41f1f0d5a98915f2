//! Integration: the spill path is **bit-identical** to the in-memory
//! streaming analyzer. Every exemplar of the paper's corpus — the seven
//! workloads, clean and under an active storage fault plan — is captured
//! into an on-disk segment log, recovered, and profiled straight off
//! disk; the profile must equal `TraceProfile::fused` on the same capture,
//! cell for cell, at 1, 2, and 8 workers and across chunk sizes.
//!
//! Also pinned here: a spill log loads through every persistence entry
//! point, strict and salvaging, and off-disk profiling keeps the resident
//! trace footprint under the same ring bound as in-memory streaming.
//!
//! One worker-sweep `#[test]` on purpose: `rt::par::set_threads` is
//! process-global, so the sweep must not interleave with itself.
//! Every test also takes `common::serial`: the trace gauge is
//! process-wide too, and a peak measured while another test charges it
//! is not this test's.

mod common;

use common::exemplars::clean_and_stressed_seven;
use common::serial;
use std::path::PathBuf;

use vani_suite::recorder::chunk::{
    resident_bound, trace_gauge, ChunkedTrace, DEFAULT_CHUNK_ROWS, RING_SLOTS,
};
use vani_suite::recorder::spill::{
    load_spill, load_spill_salvaged, spill_columnar, SpillFaultPlan, SpillSource,
};
use vani_suite::recorder::ColumnarTrace;
use vani_suite::rt::par;
use vani_suite::sim::Dur;
use vani_suite::vani::analyzer::TraceProfile;
use vani_suite::workloads as wl;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vani_spill_identity");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// The acceptance gate of the spill store: for all fourteen runs (seven
/// workloads × {clean, faulted}), across a small and the default chunk
/// size, spill-capture → recover → off-disk streaming analysis equals
/// `TraceProfile::fused` on the same capture at 1, 2, and 8 workers.
#[test]
fn spilled_profile_matches_fused_on_all_workloads_and_worker_counts() {
    let _serial = serial();
    let runs = clean_and_stressed_seven();
    let captures: Vec<(&str, ColumnarTrace, Dur)> = runs
        .iter()
        .map(|(n, r)| (n.as_str(), r.columnar(), r.runtime()))
        .collect();
    let oracles: Vec<TraceProfile> = captures
        .iter()
        .map(|(_, c, rt)| TraceProfile::fused(c, *rt))
        .collect();

    // Spill every capture once per chunk size; the sources are re-scanned
    // from disk on every profiling pass below.
    let mut sources: Vec<(usize, usize, SpillSource)> = Vec::new();
    for (i, (name, c, _)) in captures.iter().enumerate() {
        for (j, chunk_rows) in [512usize, DEFAULT_CHUNK_ROWS].into_iter().enumerate() {
            let path = tmp(&format!("{name}-{chunk_rows}.vsp3"));
            spill_columnar(c, chunk_rows, &path, SpillFaultPlan::none())
                .unwrap_or_else(|e| panic!("{name}: clean spill failed: {e}"));
            let src = SpillSource::open_strict(&path)
                .unwrap_or_else(|e| panic!("{name}: clean log must open strict: {e}"));
            sources.push((i, j, src));
        }
    }

    for workers in [1usize, 2, 8] {
        par::set_threads(workers);
        for (i, _, src) in &sources {
            let (name, _, rt) = &captures[*i];
            let spilled = TraceProfile::streaming_source(src, *rt)
                .unwrap_or_else(|e| panic!("{name}: off-disk streaming failed: {e}"));
            assert_eq!(
                &spilled, &oracles[*i],
                "{name}: spilled profile diverged from fused at {workers} workers"
            );
        }
    }
    par::set_threads(0); // back to auto

    for (_, _, src) in &sources {
        std::fs::remove_file(src.path()).expect("remove spill log");
    }
}

/// A spill log loads through every persistence entry point — the strict
/// and salvaging whole-trace loaders and the strict and salvaging
/// sources — and each gives back exactly the captured chunks and columns.
#[test]
fn spill_logs_load_through_the_persistence_entry_points() {
    let _serial = serial();
    let run = wl::jag::run(0.01, 5);
    let c = run.columnar();
    let mem = ChunkedTrace::from_columnar(&c, DEFAULT_CHUNK_ROWS);
    let path = tmp("persist-entry.vsp4");
    spill_columnar(&c, DEFAULT_CHUNK_ROWS, &path, SpillFaultPlan::none()).expect("clean spill");

    let loaded = load_spill(&path).expect("strict load");
    assert_eq!(loaded, mem);
    assert_eq!(loaded.to_columnar().expect("decodes"), c);
    let (salvaged, comp) = load_spill_salvaged(&path).expect("salvaging load");
    assert_eq!(salvaged, mem);
    assert!(comp.is_complete());
    assert_eq!(comp.fraction(), 1.0);

    let strict = SpillSource::open_strict(&path).expect("strict source");
    assert_eq!(strict.len(), c.len() as u64);
    assert_eq!(strict.to_chunked().expect("strict chunks"), mem);
    let salvaging = SpillSource::open_salvaged(&path).expect("salvaging source");
    assert!(salvaging.report().is_clean());
    assert_eq!(salvaging.to_chunked().expect("salvaged chunks"), mem);
    std::fs::remove_file(&path).expect("remove spill log");
}

/// Off-disk profiling holds at most the same ring as in-memory streaming:
/// writer staging during capture and the read/decode buffers during
/// analysis both stay under `resident_bound`.
#[test]
fn spill_capture_and_analysis_stay_under_the_ring_bound() {
    let _serial = serial();
    let run = wl::hacc::run(0.02, 5);
    let c = run.columnar();
    let chunk_rows = (c.len() / 10).max(16);
    let path = tmp("ring-bound.vsp3");

    trace_gauge().reset();
    spill_columnar(&c, chunk_rows, &path, SpillFaultPlan::none()).expect("clean spill");
    let src = SpillSource::open_strict(&path).expect("clean log opens strict");
    assert!(src.len() >= 8, "trace too small to exercise the ring");
    let _ = TraceProfile::streaming_source(&src, run.runtime()).expect("off-disk streaming");
    let peak = trace_gauge().peak();
    assert!(peak > 0, "spill path never charged the trace gauge");
    assert!(
        peak <= resident_bound(chunk_rows, RING_SLOTS),
        "peak {peak} exceeds resident_bound({chunk_rows}, {RING_SLOTS}) = {}",
        resident_bound(chunk_rows, RING_SLOTS)
    );
    std::fs::remove_file(&path).expect("remove spill log");
}
