//! The streaming analyzer's resident-memory contract, in a test binary of
//! its own: `trace_gauge` is process-wide, so its peak is only this test's
//! when nothing else in the process charges the gauge meanwhile.
//!
//! At 10⁶ records — far more than one chunk — profiling a chunked trace in
//! memory, and capturing it to a spill log then profiling it off disk,
//! each hold at most `resident_bound(chunk_rows, RING_SLOTS)` decoded
//! trace bytes, and both profiles equal the in-memory fused one.

mod common;

use common::synthetic::synthetic_trace;
use vani_suite::recorder::chunk::{resident_bound, trace_gauge};
use vani_suite::recorder::spill::{spill_columnar, SpillSource};
use vani_suite::recorder::{ChunkedTrace, SpillFaultPlan, DEFAULT_CHUNK_ROWS, RING_SLOTS};
use vani_suite::vani::analyzer::TraceProfile;

#[test]
fn streaming_peak_stays_under_the_ring_bound_in_memory_and_off_disk() {
    for (n, chunk_rows) in [(20_000usize, 1024usize), (1_000_000, DEFAULT_CHUNK_ROWS)] {
        let (c, job_time) = synthetic_trace(n, 0x5eed_0001 + n as u64);
        let fused = TraceProfile::fused(&c, job_time);
        let bound = resident_bound(chunk_rows, RING_SLOTS);

        let t = ChunkedTrace::from_columnar(&c, chunk_rows);
        trace_gauge().reset();
        let streamed = TraceProfile::streaming(&t, job_time);
        let peak = trace_gauge().peak();
        assert_eq!(streamed, fused, "n={n}: in-memory streaming diverged");
        assert!(peak > 0, "n={n}: the decode buffer was never charged");
        assert!(
            peak <= bound,
            "n={n}: streaming peak {peak} B exceeds resident_bound({chunk_rows}, {RING_SLOTS}) = {bound} B"
        );

        // The off-disk peak covers the writer's staging buffer and the
        // scan's decode buffer.
        let path =
            std::env::temp_dir().join(format!("vani_ring_bound_{n}_{}.vsp4", std::process::id()));
        trace_gauge().reset();
        spill_columnar(&c, chunk_rows, &path, SpillFaultPlan::none()).expect("clean spill");
        let src = SpillSource::open_strict(&path).expect("a clean log opens strict");
        let spilled = TraceProfile::streaming_source(&src, job_time).expect("off-disk profile");
        let spill_peak = trace_gauge().peak();
        std::fs::remove_file(&path).expect("remove spill log");
        assert_eq!(spilled, fused, "n={n}: off-disk streaming diverged");
        assert!(
            spill_peak <= bound,
            "n={n}: off-disk peak {spill_peak} B exceeds resident_bound({chunk_rows}, {RING_SLOTS}) = {bound} B"
        );
    }
}
