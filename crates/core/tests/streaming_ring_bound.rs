//! The streaming analyzer's resident-memory contract, in a test binary
//! of its own: `trace_gauge` is process-wide, so its peak is only this
//! test's when nothing else in the process charges the gauge meanwhile.

use recorder_sim::chunk::{resident_bound, trace_gauge};
use recorder_sim::record::{AppId, FileId, Layer, OpKind};
use recorder_sim::{ChunkedTrace, ColumnarTrace};
use sim_core::{Dur, SimTime};
use vani_core::analyzer::TraceProfile;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A messy synthetic trace: several ranks and files, POSIX + STDIO
/// layers, bursts separated by long gaps (multiple phases), occasional
/// resilience records.
fn synthetic(n: usize, seed: u64) -> ColumnarTrace {
    let mut c = ColumnarTrace::default();
    c.file_paths = (0..8).map(|f| format!("/data/f{f}")).collect();
    c.app_names = vec!["writer".into(), "reader".into()];
    let mut s = seed | 1;
    let mut t = 0u64;
    for i in 0..n {
        let r = xorshift(&mut s);
        // Long gap every ~200 records → phase boundaries.
        t += if r % 199 == 0 {
            3_000_000_000
        } else {
            r % 5_000
        };
        let rank = (r >> 8) % 6;
        let file = (r >> 16) % 8;
        let op = match (r >> 24) % 10 {
            0..=3 => OpKind::Write,
            4..=6 => OpKind::Read,
            7 => OpKind::Open,
            8 => OpKind::Close,
            _ => {
                if i % 97 == 0 {
                    OpKind::Fault
                } else {
                    OpKind::Stat
                }
            }
        };
        let layer = if (r >> 32) % 3 == 0 {
            Layer::Stdio
        } else {
            Layer::Posix
        };
        let bytes = (r >> 40) % 65536;
        c.push_row(
            rank as u32,
            rank as u32 / 2,
            AppId(((r >> 5) % 2) as u16),
            layer,
            op,
            SimTime(t),
            SimTime(t + 1_000 + r % 9_000),
            Some(FileId(file as u32)),
            (i as u64) * 4096 % (1 << 30),
            bytes,
        );
    }
    c
}

#[test]
fn streaming_holds_at_most_one_decoded_chunk() {
    let c = synthetic(20_000, 77);
    let chunk_rows = 1024usize;
    let t = ChunkedTrace::from_columnar(&c, chunk_rows);
    trace_gauge().reset();
    let _ = TraceProfile::streaming(&t, Dur::from_secs(120));
    let peak = trace_gauge().peak();
    assert!(
        peak <= resident_bound(chunk_rows, 2),
        "peak resident {peak} exceeds bound {}",
        resident_bound(chunk_rows, 2)
    );
}
