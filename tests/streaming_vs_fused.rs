//! Integration: the streaming bounded-memory analyzer is **bit-identical**
//! to the fused in-memory scan on every exemplar workload — the seven of
//! the paper's corpus (six applications plus IOR) — at 1, 2, and 8
//! workers, with and without an active fault plan, across chunk sizes.
//!
//! Also pinned here: chunked capture (sealing during the run) produces
//! exactly the same compressed trace as batch capture followed by
//! `ChunkedTrace::from_columnar`; the streaming path's resident trace
//! memory stays under the ring bound while profiling a trace far larger
//! than one chunk.
//!
//! One worker-sweep `#[test]` on purpose: `rt::par::set_threads` is
//! process-global, so the sweep must not interleave with itself.
//! Every test also takes [`serial`]: the trace gauge is process-wide too,
//! and a peak measured while another test charges it is not this test's.

use std::sync::{Mutex, MutexGuard};

use vani_suite::recorder::chunk::{
    resident_bound, trace_gauge, ChunkedTrace, DEFAULT_CHUNK_ROWS, RING_SLOTS,
};
use vani_suite::recorder::tracer::Tracer;
use vani_suite::recorder::ColumnarTrace;
use vani_suite::rt::par;
use vani_suite::sim::{Dur, SimTime};
use vani_suite::storage::FaultPlan;
use vani_suite::vani::analyzer::TraceProfile;
use vani_suite::workloads as wl;
use vani_suite::workloads::WorkloadRun;

/// Run the file's tests one at a time. The ring-bound test asserts a
/// peak of the process-wide `trace_gauge`, which every other test here
/// charges as it runs.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failing test poisons the lock; the tests after it still run.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The paper's seven exemplars: the six applications plus the IOR
/// calibration benchmark, at fast scales.
fn paper_seven() -> Vec<(&'static str, WorkloadRun)> {
    vec![
        ("cm1", wl::cm1::run(0.01, 5)),
        ("hacc", wl::hacc::run(0.01, 5)),
        ("cosmoflow", wl::cosmoflow::run(0.001, 5)),
        ("jag", wl::jag::run(0.01, 5)),
        ("montage", wl::montage::run(0.01, 5)),
        ("pegasus", wl::montage_pegasus::run(0.01, 5)),
        ("ior", wl::ior::run(wl::ior::IorParams::scaled(0.01), 5)),
    ]
}

/// Mild-but-active fault plan: everything fires, the retry middleware
/// absorbs everything, and the resilience counters become part of the
/// identity being checked.
fn stress_plan() -> FaultPlan {
    let end = SimTime::from_secs(1_000_000);
    FaultPlan::none()
        .with_nsd_outage(0, SimTime::from_secs(1), end)
        .with_mds_brownout(SimTime::ZERO, end, 3.0)
        .with_nsd_brownout(SimTime::from_secs(2), end, 1.5)
        .with_straggler(0, 1.2)
        .with_error_rates(0.03, 0.01)
}

/// The seven again, each under [`stress_plan`].
fn faulted_seven() -> Vec<(&'static str, WorkloadRun)> {
    let plan = stress_plan();
    let mut cm1 = wl::cm1::Cm1Params::scaled(0.01);
    cm1.faults = plan.clone();
    let mut hacc = wl::hacc::HaccParams::scaled(0.01);
    hacc.faults = plan.clone();
    let mut cosmo = wl::cosmoflow::CosmoflowParams::scaled(0.001);
    cosmo.faults = plan.clone();
    let mut jag = wl::jag::JagParams::scaled(0.01);
    jag.faults = plan.clone();
    let mut montage = wl::montage::MontageParams::scaled(0.01);
    montage.faults = plan.clone();
    let mut pegasus = wl::montage_pegasus::PegasusParams::scaled(0.01);
    pegasus.faults = plan.clone();
    let mut ior = wl::ior::IorParams::scaled(0.01);
    ior.faults = plan;
    vec![
        ("cm1+faults", wl::cm1::run_with(cm1, 0.01, 5)),
        ("hacc+faults", wl::hacc::run_with(hacc, 0.01, 5)),
        ("cosmoflow+faults", wl::cosmoflow::run_with(cosmo, 0.001, 5)),
        ("jag+faults", wl::jag::run_with(jag, 0.01, 5)),
        ("montage+faults", wl::montage::run_with(montage, 0.01, 5)),
        (
            "pegasus+faults",
            wl::montage_pegasus::run_with(pegasus, 0.01, 5),
        ),
        ("ior+faults", wl::ior::run(ior, 5)),
    ]
}

/// The acceptance gate of the streaming analyzer: for all fourteen runs
/// (seven workloads × {clean, faulted}), at 1, 2, and 8 workers, across
/// small / misaligned / default chunk sizes, `TraceProfile::streaming` is
/// exactly equal — every counter, f64, histogram, timeline, phase list,
/// file/app profile, and dependency edge — to `TraceProfile::fused` on
/// the same capture.
#[test]
fn streaming_profile_matches_fused_on_all_workloads_and_worker_counts() {
    let _serial = serial();
    let mut runs = paper_seven();
    runs.extend(faulted_seven());
    let captures: Vec<(&str, ColumnarTrace, Dur)> = runs
        .iter()
        .map(|(n, r)| (*n, r.columnar(), r.runtime()))
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

/// Replay a batch capture through a second tracer in chunked mode. The
/// intern tables are seeded in original order first, so every replayed
/// record keeps its original `FileId`/`AppId` and the two traces are
/// comparable cell for cell.
fn replay_chunked(c: &ColumnarTrace, chunk_rows: usize) -> ChunkedTrace {
    let mut t = Tracer::with_chunked(chunk_rows);
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
    t.into_chunked()
}

/// Sealing during capture and sealing after the fact are the same
/// operation: a tracer in chunked mode yields chunk-for-chunk,
/// byte-for-byte the trace that `ChunkedTrace::from_columnar` builds from
/// the equivalent batch capture — so every streaming guarantee proved on
/// converted traces transfers to live chunked capture.
#[test]
fn chunked_capture_equals_from_columnar() {
    let _serial = serial();
    for (name, run) in paper_seven() {
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
