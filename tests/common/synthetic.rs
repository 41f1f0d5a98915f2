//! A synthetic trace that exercises every analyzer code path, with no
//! simulation behind it.

use vani_suite::recorder::record::{Layer, OpKind};
use vani_suite::recorder::ColumnarTrace;
use vani_suite::rt::Rng;
use vani_suite::sim::Dur;

/// `n` records over 64 ranks and 72 files (one file per rank plus eight
/// shared ones) from four apps: POSIX reads and writes with mostly
/// sequential per-file offset chains, a metadata tail, and six quiet gaps
/// so phase detection has real work. Returns the trace and a job time
/// just past its last record. Fully deterministic from the seed.
pub fn synthetic_trace(n: usize, seed: u64) -> (ColumnarTrace, Dur) {
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
