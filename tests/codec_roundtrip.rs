//! Integration: seeded property tests for the column codec (delta + RLE +
//! raw fallback) and the compressed-chunk layer built on top of it.
//!
//! The codec is the foundation of chunked capture, the version-2 row-group
//! format, and the streaming analyzer: a column that fails to round-trip
//! bit-exactly would silently corrupt every profile downstream, so these
//! tests hammer it with adversarial shapes (random, constant, runs,
//! monotone ramps, width-boundary values) across many seeds and widths.

use vani_suite::recorder::chunk::{ChunkedTrace, CompressedChunk, COLUMN_WIDTHS};
use vani_suite::recorder::codec::{
    decode_column, decode_column_into, encode_column, from_hex, to_hex,
};
use vani_suite::recorder::record::{AppId, FileId, Layer, OpKind};
use vani_suite::recorder::ColumnarTrace;
use vani_suite::sim::SimTime;

/// xorshift64* — the same tiny deterministic generator the unit tests use.
struct Rng(u64);
impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Clamp a value into a column width the way capture does (narrow columns
/// store narrow types; the codec must round-trip exactly at the boundary).
fn mask(v: u64, width: u8) -> u64 {
    match width {
        8 => v,
        w => v & ((1u64 << (8 * w as u32)) - 1),
    }
}

/// One seeded column of a given shape: 0 = uniform random, 1 = constant,
/// 2 = long runs (RLE-friendly), 3 = monotone ramp with small jitter
/// (delta-friendly), 4 = alternating extremes (worst case for both).
fn column(shape: u64, rng: &mut Rng, n: usize, width: u8) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    match shape {
        0 => {
            for _ in 0..n {
                out.push(mask(rng.next(), width));
            }
        }
        1 => {
            let v = mask(rng.next(), width);
            out.resize(n, v);
        }
        2 => {
            while out.len() < n {
                let v = mask(rng.next(), width);
                let run = 1 + rng.below(40) as usize;
                for _ in 0..run.min(n - out.len()) {
                    out.push(v);
                }
            }
        }
        3 => {
            let mut v = mask(rng.next(), width) / 2;
            for _ in 0..n {
                v = mask(v.wrapping_add(rng.below(1 << 12)), width);
                out.push(v);
            }
        }
        _ => {
            let hi = mask(u64::MAX, width);
            for i in 0..n {
                out.push(if i % 2 == 0 { 0 } else { hi });
            }
        }
    }
    out
}

/// Every (seed × shape × width × length) cell round-trips bit-exactly
/// through encode → decode, through the recycled-buffer decoder, and
/// through the hex transport used by the on-disk format.
#[test]
fn every_column_shape_round_trips_across_seeds_widths_and_lengths() {
    let mut scratch: Vec<u64> = Vec::new();
    for seed in 1..=10u64 {
        for shape in 0..5u64 {
            for &width in &[1u8, 2, 4, 8] {
                for &n in &[0usize, 1, 2, 63, 64, 65, 1000] {
                    let mut rng = Rng::new(seed * 1_000_003 + shape * 131 + width as u64);
                    let vals = column(shape, &mut rng, n, width);
                    let enc = encode_column(&vals, width);
                    let dec = decode_column(&enc, n, width).unwrap_or_else(|e| {
                        panic!(
                            "seed {seed} shape {shape} width {width} n {n}: decode failed: {e:?}"
                        )
                    });
                    assert_eq!(dec, vals, "seed {seed} shape {shape} width {width} n {n}");

                    // Recycled-buffer decode (the streaming path) agrees.
                    scratch.clear();
                    scratch.extend_from_slice(&[0xDEAD_BEEF; 7]); // stale garbage
                    scratch.clear();
                    decode_column_into(&enc, n, width, &mut scratch).expect("decode_into");
                    assert_eq!(scratch, vals);

                    // Hex transport (persistence) is lossless.
                    assert_eq!(from_hex(&to_hex(&enc)).as_deref(), Some(&enc[..]));
                }
            }
        }
    }
}

/// Truncated or tag-corrupted buffers must surface a typed `CodecError`,
/// never a panic and never a silently wrong column.
#[test]
fn corrupt_buffers_are_rejected_not_decoded() {
    let mut rng = Rng::new(42);
    let vals = column(3, &mut rng, 200, 8);
    let enc = encode_column(&vals, 8);
    assert!(
        decode_column(&enc[..enc.len() - 1], 200, 8).is_err(),
        "truncated payload"
    );
    assert!(
        decode_column(&[], 200, 8).is_err(),
        "empty buffer, nonzero rows"
    );
    let mut bad_tag = enc.clone();
    bad_tag[0] = 0xFF;
    assert!(
        decode_column(&bad_tag, 200, 8).is_err(),
        "unknown codec tag"
    );
    // Asking for a different row count than encoded must not panic either.
    let _ = decode_column(&enc, 199, 8);
    let _ = decode_column(&enc, 201, 8);
}

/// A seeded synthetic trace with every column population pattern the
/// workloads produce (interleaved ranks, a few hot files, metadata ops
/// without files, monotone timestamps, striding offsets).
fn synthetic_trace(n: usize, seed: u64) -> ColumnarTrace {
    let mut rng = Rng::new(seed);
    let mut c = ColumnarTrace::default();
    for r in 0..4 {
        c.file_paths.push(format!("/scratch/f{r}"));
    }
    c.app_names.push("app-a".into());
    c.app_names.push("app-b".into());
    let mut t = 1u64;
    for i in 0..n {
        t += 1_000 + rng.below(50_000);
        let rank = (i % 6) as u32;
        let (layer, op, file) = if i % 17 == 0 {
            (Layer::Posix, OpKind::Open, None)
        } else if i % 2 == 0 {
            (
                Layer::Posix,
                OpKind::Read,
                Some(FileId((rng.below(4)) as u32)),
            )
        } else {
            (
                Layer::Stdio,
                OpKind::Write,
                Some(FileId((rng.below(4)) as u32)),
            )
        };
        let bytes = 1 + rng.below(1 << 20);
        c.push_row(
            rank,
            rank / 2,
            AppId((i % 2) as u16),
            layer,
            op,
            SimTime(t),
            SimTime(t + 500 + rng.below(10_000)),
            file,
            (i as u64) * 4096 % (1 << 28),
            bytes,
        );
    }
    c
}

/// A sealed chunk round-trips all ten columns and its meta survives the
/// encode → `from_encoded` loop the loader uses, at several sizes.
#[test]
fn sealed_chunks_round_trip_and_revalidate() {
    for &n in &[1usize, 7, 256, 4096] {
        let c = synthetic_trace(n, 0xC0FFEE + n as u64);
        let mut scratch = Vec::new();
        let chunk = CompressedChunk::seal(&c, 0..c.len(), &mut scratch);
        assert_eq!(chunk.rows, n);

        let mut out = ColumnarTrace::default();
        out.file_paths = c.file_paths.clone();
        out.app_names = c.app_names.clone();
        chunk.decode_into(&mut out, true).expect("decode");
        assert_eq!(out, c, "n = {n}");

        // The loader path: encoded columns alone rebuild an equal chunk.
        let cols: [Vec<u8>; 10] = std::array::from_fn(|i| chunk.column(i).to_vec());
        let rebuilt = CompressedChunk::from_encoded(cols, n).expect("from_encoded");
        assert_eq!(rebuilt, chunk, "n = {n}");
    }
}

/// Chunking at any size is lossless and size-invariant: `to_columnar`
/// returns the original trace and the compressed footprint stays within a
/// sane envelope (strictly smaller than raw for these shapes).
#[test]
fn chunked_trace_is_lossless_at_every_chunk_size() {
    let c = synthetic_trace(5000, 9);
    let raw_bytes: usize = 5000
        * COLUMN_WIDTHS
            .iter()
            .map(|&(_, w)| w as usize)
            .sum::<usize>();
    for &rows in &[64usize, 1000, 4096, 1 << 20] {
        let t = ChunkedTrace::from_columnar(&c, rows);
        assert_eq!(t.len(), c.len());
        assert_eq!(t.chunks.len(), c.len().div_ceil(rows));
        assert_eq!(
            t.to_columnar().expect("to_columnar"),
            c,
            "chunk_rows = {rows}"
        );
        assert!(
            t.compressed_bytes() < raw_bytes,
            "chunk_rows = {rows}: {} compressed vs {raw_bytes} raw",
            t.compressed_bytes()
        );
    }
}

/// FNV-1a 64 over raw bytes, for pinning sealed output.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 over every encoded column of every chunk, in order.
fn sealed_fnv(t: &ChunkedTrace) -> u64 {
    let mut cols = Vec::new();
    for ch in &t.chunks {
        for i in 0..COLUMN_WIDTHS.len() {
            cols.extend_from_slice(ch.column(i));
        }
    }
    fnv1a64(&cols)
}

/// Golden pin on sealed bytes: the encoder's scheme choice, tie order and
/// payload layout are part of the v2 row-group and v3 spill formats, so a
/// seeded workload trace must seal and spill to exactly these bytes. A
/// change here is a format change and needs a version bump, not a re-pin.
#[test]
fn sealed_bytes_and_spill_log_are_pinned() {
    use vani_suite::recorder::spill::{spill_columnar, SpillFaultPlan};
    use vani_suite::workloads as wl;

    const CHUNK_ROWS: usize = 32;
    let c = wl::hacc::run(0.01, 5).columnar();
    let chunked = ChunkedTrace::from_columnar(&c, CHUNK_ROWS);

    let dir = std::env::temp_dir().join(format!("vani_codec_golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("hacc.vsp3");
    let summary =
        spill_columnar(&c, CHUNK_ROWS, &path, SpillFaultPlan::none()).expect("spill seals");
    let log = std::fs::read(&path).expect("read sealed log");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");

    // The synthetic trace mixes every scheme across chunk sizes.
    let synth = synthetic_trace(5000, 9);
    let synth_pins: Vec<(usize, u64)> = [64usize, 1000, 4096]
        .iter()
        .map(|&rows| {
            let t = ChunkedTrace::from_columnar(&synth, rows);
            (t.compressed_bytes(), sealed_fnv(&t))
        })
        .collect();

    assert_eq!((c.len(), chunked.chunks.len()), (292, 10));
    assert_eq!(chunked.compressed_bytes(), 4050);
    assert_eq!(sealed_fnv(&chunked), 0xf45d_fdbc_edf2_a90f);
    assert_eq!(summary.bytes, log.len() as u64);
    assert_eq!(log.len(), 6894);
    assert_eq!(fnv1a64(&log), 0x4a1c_c731_80dd_0750);
    assert_eq!(
        synth_pins,
        vec![
            (107_396, 0x2512_7298_bf5a_9e03),
            (104_194, 0x05cb_41aa_4957_e96c),
            (104_063, 0xa18d_e6b3_3a13_6ed4),
        ]
    );
}
