//! Randomized model tests across the interface layers: the buffered stdio
//! layer must be observationally equivalent to a plain byte-vector file
//! model, and format layers must round-trip arbitrary metadata.
//!
//! These were originally proptest properties; they are now deterministic
//! sweeps driven by the seeded [`vani_rt::Rng`], so the exact same cases run
//! on every machine. Failure cases proptest shrank in the past are pinned as
//! explicit regression tests below instead of living in a
//! `.proptest-regressions` sidecar.

use hpc_cluster::topology::RankId;
use io_layers::posix::Whence;
use io_layers::world::IoWorld;
use io_layers::{fits, npy, stdio};
use sim_core::{Dur, SimTime};
use storage_sim::file::pattern_byte;
use vani_rt::Rng;

/// A scripted stdio operation.
#[derive(Debug, Clone)]
enum Op {
    Write(Vec<u8>),
    /// `fwrite_pattern` of `len` synthetic bytes from `seed`.
    WritePattern {
        len: u16,
        seed: u64,
    },
    Read(u16),
    /// Timing-only `fread`: counts bytes, returns none.
    ReadTiming(u16),
    Seek(u16),
}

/// Draw one random operation (write with 1–599 random bytes, read of 1–599
/// bytes, or absolute seek to 0–2047).
fn random_op(r: &mut Rng) -> Op {
    match r.uniform_u64(0, 3) {
        0 => {
            let len = r.uniform_u64(1, 600) as usize;
            Op::Write((0..len).map(|_| r.uniform_u64(0, 256) as u8).collect())
        }
        1 => Op::Read(r.uniform_u64(1, 600) as u16),
        _ => Op::Seek(r.uniform_u64(0, 2048) as u16),
    }
}

/// Draw one operation from the wider mix: everything [`random_op`] draws,
/// plus pattern writes (below and above the 128-byte test buffer, so some
/// are buffered and some land as whole pattern segments) and timing-only
/// reads, so buffer refills cross byte and pattern segments and holes.
fn random_mixed_op(r: &mut Rng) -> Op {
    match r.uniform_u64(0, 5) {
        0 => Op::WritePattern {
            len: r.uniform_u64(1, 600) as u16,
            seed: r.next_u64(),
        },
        1 => Op::ReadTiming(r.uniform_u64(1, 600) as u16),
        _ => random_op(r),
    }
}

/// Run a scripted op sequence against the buffered stdio layer and a Vec<u8>
/// model, asserting observational equivalence after every step and after a
/// close + full re-read.
fn check_stdio_matches_vec_model(ops: &[Op]) {
    let mut w = IoWorld::lassen(1, 1, Dur::from_secs(3600), 1);
    let r = RankId(0);
    // Small buffer to force plenty of flush/fill boundary cases.
    let (h, mut t) =
        stdio::fopen_buffered(&mut w, r, "/p/gpfs1/prop.bin", "w+", 128, SimTime::ZERO);
    let h = h.unwrap();
    let mut model: Vec<u8> = Vec::new();
    let mut pos: usize = 0;
    for op in ops {
        match op {
            Op::Write(data) => {
                let (n, t2) = stdio::fwrite(&mut w, r, h, data, t);
                assert_eq!(n.unwrap(), data.len() as u64);
                t = t2;
                if model.len() < pos + data.len() {
                    model.resize(pos + data.len(), 0);
                }
                model[pos..pos + data.len()].copy_from_slice(data);
                pos += data.len();
            }
            Op::WritePattern { len, seed } => {
                let len = *len as usize;
                let (n, t2) = stdio::fwrite_pattern(&mut w, r, h, len as u64, *seed, t);
                assert_eq!(n.unwrap(), len as u64);
                t = t2;
                if model.len() < pos + len {
                    model.resize(pos + len, 0);
                }
                for (i, b) in model[pos..pos + len].iter_mut().enumerate() {
                    *b = pattern_byte(*seed, i as u64);
                }
                pos += len;
            }
            Op::Read(len) => {
                let (data, t2) = stdio::fread_data(&mut w, r, h, *len as u64, t);
                let data = data.unwrap();
                t = t2;
                let avail = model.len().saturating_sub(pos).min(*len as usize);
                assert_eq!(data.len(), avail);
                let expect = model.get(pos..pos + avail).unwrap_or(&[]);
                assert_eq!(&data[..], expect);
                pos += avail;
            }
            Op::ReadTiming(len) => {
                let (n, t2) = stdio::fread(&mut w, r, h, *len as u64, t);
                t = t2;
                let avail = model.len().saturating_sub(pos).min(*len as usize);
                assert_eq!(n.unwrap(), avail as u64);
                pos += avail;
            }
            Op::Seek(to) => {
                let (p, t2) = stdio::fseek(&mut w, r, h, *to as i64, Whence::Set, t);
                assert_eq!(p.unwrap(), *to as u64);
                t = t2;
                pos = *to as usize;
            }
        }
    }
    // Close and re-read the whole file: must equal the model.
    let (_, t) = stdio::fclose(&mut w, r, h, t);
    let (h2, t) = stdio::fopen(&mut w, r, "/p/gpfs1/prop.bin", "r", t);
    let h2 = h2.unwrap();
    let (full, _) = stdio::fread_data(&mut w, r, h2, model.len() as u64 + 64, t);
    assert_eq!(full.unwrap(), model);
}

/// Arbitrary interleavings of buffered writes, reads, and seeks produce
/// exactly the bytes a Vec<u8> file model predicts — buffering must be
/// invisible to the application.
#[test]
fn randomized_stdio_matches_vec_model() {
    let mut r = Rng::new(0x10_1a_0001);
    for _ in 0..48 {
        let n = r.uniform_u64(1, 40) as usize;
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut r)).collect();
        check_stdio_matches_vec_model(&ops);
    }
}

/// The same equivalence over the wider op mix: pattern writes and
/// timing-only reads interleaved with byte writes, reads and seeks.
#[test]
fn randomized_stdio_with_patterns_and_timing_reads_matches_vec_model() {
    let mut r = Rng::new(0x10_1a_0005);
    for _ in 0..48 {
        let n = r.uniform_u64(1, 40) as usize;
        let ops: Vec<Op> = (0..n).map(|_| random_mixed_op(&mut r)).collect();
        check_stdio_matches_vec_model(&ops);
    }
}

/// Pinned proptest shrink (formerly `proptests.proptest-regressions`): a
/// one-byte write, a 423-byte write that straddles several 128-byte buffer
/// flushes, a seek past EOF, and two reads that hit the EOF boundary.
#[test]
fn regression_buffered_write_seek_past_eof_then_read() {
    const BIG: &[u8] = &[
        139, 229, 195, 138, 227, 0, 190, 133, 108, 8, 227, 156, 6, 139, 199, 190, 186, 219, 51,
        170, 98, 40, 55, 65, 187, 220, 160, 198, 205, 240, 8, 193, 148, 153, 199, 48, 105, 120, 56,
        170, 156, 101, 80, 175, 205, 52, 67, 226, 102, 218, 229, 43, 197, 198, 106, 161, 33, 212,
        208, 115, 26, 17, 120, 142, 109, 4, 169, 96, 121, 77, 195, 22, 234, 88, 152, 111, 14, 194,
        138, 203, 230, 98, 246, 118, 136, 197, 146, 183, 236, 58, 171, 51, 16, 175, 216, 95, 69,
        193, 125, 189, 124, 0, 181, 57, 156, 254, 28, 101, 13, 33, 69, 66, 238, 251, 217, 65, 79,
        212, 221, 19, 193, 181, 93, 223, 139, 153, 232, 199, 169, 137, 207, 48, 171, 0, 216, 58,
        123, 204, 40, 74, 88, 42, 201, 13, 100, 141, 197, 203, 93, 26, 17, 240, 245, 205, 13, 253,
        224, 17, 68, 173, 182, 194, 2, 212, 123, 252, 110, 20, 144, 227, 108, 36, 239, 101, 31,
        210, 19, 10, 168, 91, 195, 79, 93, 172, 119, 42, 195, 250, 242, 202, 254, 248, 129, 157,
        98, 54, 75, 147, 80, 197, 152, 133, 30, 103, 10, 186, 67, 14, 240, 166, 84, 99, 113, 160,
        71, 203, 37, 126, 224, 118, 188, 250, 5, 95, 114, 82, 171, 26, 229, 87, 108, 92, 67, 141,
        239, 45, 79, 180, 228, 58, 161, 243, 83, 48, 13, 161, 201, 132, 229, 89, 183, 58, 161, 129,
        79, 78, 198, 244, 213, 83, 143, 16, 12, 28, 32, 180, 45, 151, 13, 133, 82, 80, 177, 159,
        18, 245, 167, 111, 50, 52, 132, 72, 122, 39, 160, 213, 195, 190, 214, 168, 104, 122, 90,
        30, 188, 168, 38, 201, 150, 8, 66, 38, 4, 118, 53, 51, 191, 197, 36, 63, 170, 154, 92, 27,
        133, 232, 199, 158, 6, 53, 242, 237, 24, 2, 152, 37, 19, 60, 216, 111, 131, 215, 240, 234,
        166, 108, 126, 125, 23, 28, 11, 233, 76, 150, 214, 142, 165, 120, 92, 125, 44, 227, 186, 5,
        175, 47, 123, 115, 140, 153, 116, 173, 54, 164, 199, 43, 82, 170, 121, 251, 223, 192, 215,
        197, 139, 62, 117, 108, 78, 239, 58, 6, 0, 64, 187, 87, 18, 90, 35, 185, 110, 91, 136, 202,
        107, 33, 212, 112, 82, 0, 104, 54, 163, 126, 226, 171, 1, 208, 88, 24, 111, 143, 89, 203,
        144, 42, 118, 117, 161, 141, 124, 108, 75, 89, 118, 186, 194, 69, 6, 221, 105, 87, 225,
        176, 190, 47, 55, 185, 77, 182, 226, 154, 186, 61,
    ];
    let ops = vec![
        Op::Write(vec![0]),
        Op::Write(BIG.to_vec()),
        Op::Seek(1033),
        Op::Read(248),
        Op::Read(456),
    ];
    check_stdio_matches_vec_model(&ops);
}

/// npy headers round-trip for arbitrary shapes and dtypes.
#[test]
fn randomized_npy_header_round_trips() {
    let mut r = Rng::new(0x10_1a_0002);
    const DTYPES: [&str; 4] = ["<f4", "<f8", "<i2", "<u1"];
    for _ in 0..64 {
        let ndims = r.uniform_u64(1, 4) as usize;
        let dims: Vec<u64> = (0..ndims).map(|_| r.uniform_u64(1, 10_000)).collect();
        let dtype = DTYPES[r.uniform_u64(0, DTYPES.len() as u64) as usize];
        let h = npy::NpyHeader {
            descr: dtype.to_string(),
            shape: dims.clone(),
        };
        let enc = h.encode();
        let (parsed, off) = npy::NpyHeader::parse(&enc).unwrap();
        assert_eq!(&parsed, &h);
        assert_eq!(off as usize, enc.len());
        assert_eq!(parsed.shape, dims);
    }
}

/// FITS headers round-trip for arbitrary axes and bitpix values.
#[test]
fn randomized_fits_header_round_trips() {
    let mut r = Rng::new(0x10_1a_0003);
    const BITPIX: [i32; 5] = [8, 16, 32, -32, -64];
    for _ in 0..64 {
        let naxes = r.uniform_u64(1, 4) as usize;
        let axes: Vec<u64> = (0..naxes).map(|_| r.uniform_u64(1, 5_000)).collect();
        let bitpix = BITPIX[r.uniform_u64(0, BITPIX.len() as u64) as usize];
        let h = fits::FitsHeader {
            bitpix,
            naxes: axes,
        };
        let enc = h.encode();
        assert_eq!(enc.len() as u64 % fits::BLOCK, 0);
        let (parsed, hlen) = fits::FitsHeader::parse(&enc).unwrap();
        assert_eq!(parsed, h);
        assert!(hlen as usize <= enc.len());
    }
}

/// Timed layer calls never travel backwards in time, whatever the op mix.
#[test]
fn randomized_time_is_monotonic_through_the_stack() {
    let mut rng = Rng::new(0x10_1a_0004);
    for _ in 0..48 {
        let n = rng.uniform_u64(1, 30) as usize;
        let ops: Vec<Op> = (0..n).map(|_| random_op(&mut rng)).collect();
        let mut w = IoWorld::lassen(1, 1, Dur::from_secs(3600), 1);
        let r = RankId(0);
        let (h, mut t) = stdio::fopen(&mut w, r, "/p/gpfs1/mono.bin", "w+", SimTime::ZERO);
        let h = h.unwrap();
        for op in &ops {
            let t2 = match op {
                Op::Write(data) => stdio::fwrite(&mut w, r, h, data, t).1,
                Op::WritePattern { len, seed } => {
                    stdio::fwrite_pattern(&mut w, r, h, *len as u64, *seed, t).1
                }
                Op::Read(len) | Op::ReadTiming(len) => stdio::fread(&mut w, r, h, *len as u64, t).1,
                Op::Seek(to) => stdio::fseek(&mut w, r, h, *to as i64, Whence::Set, t).1,
            };
            assert!(t2 >= t, "time went backwards: {t2} < {t}");
            t = t2;
        }
    }
}
