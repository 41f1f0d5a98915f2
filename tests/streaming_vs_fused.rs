//! Integration: the streaming bounded-memory analyzer is **bit-identical**
//! to the fused in-memory scan on every exemplar workload — the seven of
//! the paper's corpus (six applications plus IOR) — at 1, 2, and 8
//! workers, with and without an active fault plan, across chunk sizes.
//!
//! Also pinned here: chunked capture (sealing into a spill log during the
//! run) produces exactly the same compressed trace as batch capture
//! followed by `ChunkedTrace::from_columnar`; the streaming path's
//! resident trace memory stays under the ring bound while profiling a
//! trace far larger than one chunk.
//!
//! One worker-sweep `#[test]` on purpose: `rt::par::set_threads` is
//! process-global, so the sweep must not interleave with itself.
//! Every test also takes `common::serial`: the trace gauge is
//! process-wide too, and a peak measured while another test charges it
//! is not this test's.

mod common;

use common::exemplars::{clean_and_stressed_seven, exemplars};
use common::serial;
use vani_suite::recorder::chunk::{
    resident_bound, trace_gauge, ChunkedTrace, DEFAULT_CHUNK_ROWS, RING_SLOTS,
};
use vani_suite::recorder::spill::{load_spill, SpillFaultPlan};
use vani_suite::recorder::tracer::Tracer;
use vani_suite::recorder::ColumnarTrace;
use vani_suite::rt::par;
use vani_suite::sim::{Dur, SimTime};
use vani_suite::storage::FaultPlan;
use vani_suite::vani::analyzer::TraceProfile;
use vani_suite::workloads as wl;
use vani_suite::workloads::WorkloadKind;

/// The acceptance gate of the streaming analyzer: for all fourteen runs
/// (seven workloads × {clean, faulted}), at 1, 2, and 8 workers, across
/// small / misaligned / default chunk sizes, `TraceProfile::streaming` is
/// exactly equal — every counter, f64, histogram, timeline, phase list,
/// file/app profile, and dependency edge — to `TraceProfile::fused` on
/// the same capture.
#[test]
fn streaming_profile_matches_fused_on_all_workloads_and_worker_counts() {
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

    for workers in [1usize, 2, 8] {
        par::set_threads(workers);
        for ((name, c, rt), oracle) in captures.iter().zip(&oracles) {
            for chunk_rows in [512usize, 4095, DEFAULT_CHUNK_ROWS] {
                let t = ChunkedTrace::from_columnar(c, chunk_rows);
                let streamed = TraceProfile::streaming(&t, *rt);
                assert_eq!(
                    &streamed, oracle,
                    "{name}: streaming diverged from fused at {workers} workers, chunk_rows {chunk_rows}"
                );
            }
        }
    }
    par::set_threads(0); // back to auto
}

/// Replay a batch capture through a second tracer in chunked mode,
/// spilling to a log, and load the log back. The intern tables are seeded
/// in original order first, so every replayed record keeps its original
/// `FileId`/`AppId` and the two traces are comparable cell for cell.
fn replay_chunked(c: &ColumnarTrace, chunk_rows: usize) -> ChunkedTrace {
    let path = std::env::temp_dir().join(format!(
        "vani_replay_chunked_{chunk_rows}_{}.vsp4",
        std::process::id()
    ));
    let mut t = Tracer::with_chunked(chunk_rows);
    t.enable_spill(&path, SpillFaultPlan::none())
        .expect("spill on");
    for p in &c.file_paths {
        t.file_id(p);
    }
    for a in &c.app_names {
        t.app_id(a);
    }
    for i in 0..c.len() {
        t.record(
            c.rank[i],
            c.node[i],
            vani_suite::recorder::record::AppId(c.app[i]),
            c.layer[i],
            c.op[i],
            SimTime(c.start[i]),
            SimTime(c.end[i]),
            c.file_id(i),
            c.offset[i],
            c.bytes[i],
        );
    }
    t.into_spill().expect("seals");
    let live = load_spill(&path).expect("loads");
    let _ = std::fs::remove_file(&path);
    live
}

/// Sealing during capture and sealing after the fact are the same
/// operation: a tracer in chunked mode spills chunk-for-chunk,
/// byte-for-byte the trace that `ChunkedTrace::from_columnar` builds from
/// the equivalent batch capture — so every streaming guarantee proved on
/// converted traces transfers to live chunked capture.
#[test]
fn chunked_capture_equals_from_columnar() {
    let _serial = serial();
    for (name, run) in exemplars(&WorkloadKind::ALL, 5, &FaultPlan::none()) {
        let c = run.columnar();
        for chunk_rows in [1000usize, DEFAULT_CHUNK_ROWS] {
            let live = replay_chunked(&c, chunk_rows);
            let batch = ChunkedTrace::from_columnar(&c, chunk_rows);
            assert_eq!(live, batch, "{name}: chunk_rows {chunk_rows}");
        }
    }
}

/// Bounded memory, demonstrated: streaming a trace that is many chunks
/// long keeps the resident decoded-trace footprint under the ring bound,
/// while the fused path holds the entire capture.
#[test]
fn streaming_peak_memory_stays_under_the_ring_bound() {
    let _serial = serial();
    let run = wl::hacc::run(0.02, 5);
    let c = run.columnar();
    let chunk_rows = (c.len() / 10).max(16);
    let t = ChunkedTrace::from_columnar(&c, chunk_rows);
    assert!(t.chunks.len() >= 8, "trace too small to exercise the ring");
    trace_gauge().reset();
    let _ = TraceProfile::streaming(&t, run.runtime());
    let peak = trace_gauge().peak();
    assert!(peak > 0, "streaming never charged the trace gauge");
    assert!(
        peak <= resident_bound(chunk_rows, RING_SLOTS),
        "peak {peak} exceeds resident_bound({chunk_rows}, {RING_SLOTS}) = {}",
        resident_bound(chunk_rows, RING_SLOTS)
    );
}
