//! Seeded corruption property suite over the persisted trace format, the
//! binary spill log (`spill_columnar`, spill format v4).
//!
//! Property: for ANY random truncation or bit flip of a spill log, every
//! loader either returns a typed [`SpillError`] or salvages — it never
//! panics. When the salvaging loader succeeds, its [`TraceCompleteness`]
//! counts exactly what was loaded, the salvaged trace never contains more
//! records than the original, and every record it does contain is the
//! original record at the same position (salvage recovers a verified
//! prefix, it never invents or reorders data). A salvage that lost
//! records is never reported complete, and its `fraction()` stays below 1.
//!
//! A hand-crafted checksum-fixed corruption (flip a chunk's persisted
//! meta, then re-seal the frame checksum over the flipped payload) pins
//! the deep-verification path: the frame checksum passes, but the decode
//! disagrees with its seal-time meta and the chunk quarantines as
//! `Codec` — the class of damage an outer checksum alone cannot catch. A
//! second one breaks the codec tag of the `node` column, which the
//! analyzer never decodes, and must quarantine the same way.
//!
//! The strict open verifies frames without decoding chunks, and the
//! strict fold verifies each chunk as it decodes it. So the property
//! sweep also replays every mutant strictly (`open_strict` then
//! `streaming_source`), a resealed presence flip must stop that fold with
//! a typed `Codec` error although the open accepts the log, and resealed
//! metas that would size the fold's allocations or index its arrays out of
//! range must be refused at open.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vani_suite::recorder::spill::{
    frame_checksum, fsck, load_spill, load_spill_salvaged, spill_columnar, QuarantineReason,
    SpillFaultPlan, SpillSource, TraceCompleteness,
};
use vani_suite::recorder::{ColumnarTrace, Layer, OpKind, SpillError, Tracer};
use vani_suite::rt::Rng;
use vani_suite::sim::{Dur, SimTime};
use vani_suite::vani::analyzer::TraceProfile;

/// Chunk size: small enough that a ~900-row trace has many
/// independently-checksummed segments to damage.
const GROUP_ROWS: usize = 64;

/// Job time for the strict replays: longer than the sample trace's span.
const JOB_TIME: Dur = Dur(1_000_000);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vani_persist_corruption");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// A deterministic multi-file multi-app trace with variation in every
/// column, so damage anywhere in the encoding is observable.
fn sample_trace() -> ColumnarTrace {
    let mut t = Tracer::new();
    let files = [
        t.file_id("/p/gpfs1/ckpt/restart.0"),
        t.file_id("/p/gpfs1/out/data.h5"),
        t.file_id("/dev/shm/stage/tile.fits"),
    ];
    let apps = [t.app_id("cm1"), t.app_id("hacc")];
    let layers = [Layer::Posix, Layer::Stdio, Layer::MpiIo, Layer::HighLevel];
    let ops = [OpKind::Write, OpKind::Read, OpKind::Open, OpKind::Close];
    for i in 0..900u64 {
        t.record(
            (i % 8) as u32,
            (i % 3) as u32,
            apps[(i % 2) as usize],
            layers[(i % 4) as usize],
            ops[(i % 4) as usize],
            SimTime(i * 17),
            SimTime(i * 17 + 11),
            Some(files[(i % 3) as usize]),
            64 + (i % 512),
            4096 * i,
        );
    }
    t.to_columnar()
}

/// Assert `got` is a verified prefix of `want`: same records, in order,
/// from the start.
fn assert_prefix(label: &str, got: &ColumnarTrace, want: &ColumnarTrace) {
    let n = got.len();
    assert!(
        n <= want.len(),
        "{label}: salvage invented records ({n} > {})",
        want.len()
    );
    assert_eq!(got.rank, want.rank[..n], "{label}: rank prefix");
    assert_eq!(got.node, want.node[..n], "{label}: node prefix");
    assert_eq!(got.app, want.app[..n], "{label}: app prefix");
    assert_eq!(got.layer, want.layer[..n], "{label}: layer prefix");
    assert_eq!(got.op, want.op[..n], "{label}: op prefix");
    assert_eq!(got.start, want.start[..n], "{label}: start prefix");
    assert_eq!(got.end, want.end[..n], "{label}: end prefix");
    assert_eq!(got.file, want.file[..n], "{label}: file prefix");
    assert_eq!(got.offset, want.offset[..n], "{label}: offset prefix");
    assert_eq!(got.bytes, want.bytes[..n], "{label}: bytes prefix");
}

/// Run every loader against a (possibly damaged) file. Each call must
/// return — a typed error or a salvage — and salvages must be honest
/// prefixes with consistent completeness accounting. A strict replay that
/// succeeds must yield `clean`, the clean log's profile.
fn exercise(label: &str, path: &Path, original: &ColumnarTrace, clean: &TraceProfile) {
    // Strict loaders: Ok or typed error, never a panic.
    let _ = load_spill(path);
    let _ = SpillSource::open_strict(path);
    let _ = fsck(path);
    // Strict replay: the open checks frames and the fold checks each
    // chunk as it decodes it.
    if let Ok(src) = SpillSource::open_strict(path) {
        if let Ok(p) = TraceProfile::streaming_source(&src, JOB_TIME) {
            assert!(
                p == *clean,
                "{label}: a strict replay returned a profile other than the clean log's"
            );
        }
    }
    if let Ok((t, comp)) = load_spill_salvaged(path) {
        assert_eq!(
            comp.loaded_records,
            t.len() as u64,
            "{label}: completeness counts the salvaged records"
        );
        assert!(
            comp.fraction().is_finite() && comp.fraction() >= 0.0,
            "{label}: fraction must be a finite non-negative ratio"
        );
        if t.len() < original.len() {
            assert_lossy(label, &comp);
        }
        let c = t
            .to_columnar()
            .unwrap_or_else(|e| panic!("{label}: salvaged chunks must decode: {e}"));
        assert_prefix(label, &c, original);
    }
}

/// A salvage that lost records must say so: never complete, and a loaded
/// fraction strictly below 1.
fn assert_lossy(label: &str, comp: &TraceCompleteness) {
    assert!(
        !comp.is_complete(),
        "{label}: a lossy salvage reported complete: {comp:?}"
    );
    assert!(
        comp.fraction() < 1.0,
        "{label}: a lossy salvage reported fraction 1: {comp:?}"
    );
}

/// The property itself: 24 seeded truncations and 24 seeded bit flips,
/// every loader exercised on each mutant, no panics allowed.
#[test]
fn random_truncations_and_bit_flips_never_panic_any_loader() {
    let c = sample_trace();
    let clean_path = tmp("spill-clean.trace");
    spill_columnar(&c, GROUP_ROWS, &clean_path, SpillFaultPlan::none()).expect("clean spill");
    let bytes = std::fs::read(&clean_path).expect("read spill log");
    let clean = SpillSource::open_strict(&clean_path)
        .and_then(|src| TraceProfile::streaming_source(&src, JOB_TIME))
        .expect("the clean log replays strictly");
    // The pristine file itself round-trips completely.
    exercise("clean", &clean_path, &c, &clean);
    let (_, comp) = load_spill_salvaged(&clean_path).expect("clean salvage");
    assert!(comp.is_complete() && comp.fraction() == 1.0, "{comp:?}");

    let mut rng = Rng::new(0xc0_44u64 ^ b'3' as u64);
    let mutant_path = tmp("spill-mutant.trace");
    for trial in 0..24 {
        let cut = 1 + (rng.next_u64() as usize) % (bytes.len() - 1);
        std::fs::write(&mutant_path, &bytes[..cut]).expect("write truncation");
        let label = format!("trial {trial}: truncated to {cut}B");
        catch_unwind(AssertUnwindSafe(|| {
            exercise(&label, &mutant_path, &c, &clean)
        }))
        .unwrap_or_else(|_| panic!("{label}: a loader panicked"));
    }
    for trial in 0..24 {
        let pos = (rng.next_u64() as usize) % bytes.len();
        let bit = 1u8 << (rng.next_u64() % 8);
        let mut flipped = bytes.clone();
        flipped[pos] ^= bit;
        std::fs::write(&mutant_path, &flipped).expect("write bit flip");
        let label = format!("trial {trial}: bit {bit:#04x} flipped at {pos}");
        catch_unwind(AssertUnwindSafe(|| {
            exercise(&label, &mutant_path, &c, &clean)
        }))
        .unwrap_or_else(|_| panic!("{label}: a loader panicked"));
    }
    std::fs::remove_file(&clean_path).expect("cleanup");
    std::fs::remove_file(&mutant_path).expect("cleanup");
}

/// The payload (start, length) of the first CHUNK frame (kind 1) of a
/// spill log.
fn first_chunk_payload(bytes: &[u8]) -> (usize, usize) {
    nth_chunk_payload(bytes, 0)
}

/// The payload (start, length) of the `n`-th CHUNK frame (kind 1) of a
/// spill log, found by walking the frame stream past the preamble (11
/// magic bytes + chunk_rows u64).
fn nth_chunk_payload(bytes: &[u8], n: usize) -> (usize, usize) {
    let mut off = 19usize;
    let mut seen = 0;
    loop {
        let kind = bytes[off];
        let len =
            u64::from_le_bytes(bytes[off + 1..off + 9].try_into().expect("frame len")) as usize;
        if kind == 1 {
            if seen == n {
                return (off + 9, len);
            }
            seen += 1;
        }
        off += 9 + len + 8;
    }
}

/// Recompute a frame's checksum over its (mutated) payload, so the outer
/// integrity check passes.
fn reseal(bytes: &mut [u8], payload_start: usize, payload_len: usize) {
    let sum = frame_checksum(&bytes[payload_start..payload_start + payload_len]);
    bytes[payload_start + payload_len..payload_start + payload_len + 8]
        .copy_from_slice(&sum.to_le_bytes());
}

/// Checksum-fixed corruption: flip a byte inside the first chunk's
/// persisted seal-time meta (its `n_ranks` tally), then recompute the
/// frame checksum so the outer integrity check passes. Only the deep
/// verification pass — decode and recompute the meta from the rows —
/// can catch it, and it must quarantine the chunk as `Codec`.
#[test]
fn checksum_fixed_meta_corruption_is_caught_by_deep_verification() {
    let c = sample_trace();
    let path = tmp("codec-mutant.vsp3");
    spill_columnar(&c, GROUP_ROWS, &path, SpillFaultPlan::none()).expect("clean spill");
    let mut bytes = std::fs::read(&path).expect("read spill log");
    let (payload_start, payload_len) = first_chunk_payload(&bytes);
    // Payload layout: rows u64, meta_len u64, then the meta — whose own
    // layout is rows u64, 6 presence flags, n_ranks u64. Flip the low
    // byte of n_ranks: parses fine, disagrees with the rows.
    bytes[payload_start + 30] ^= 0x01;
    reseal(&mut bytes, payload_start, payload_len);
    std::fs::write(&path, &bytes).expect("write mutant");

    let report = fsck(&path).expect("fsck walks the mutant without failing");
    assert_eq!(report.committed_records, 0, "first chunk is quarantined");
    let q = report.quarantined.first().expect("damage is quarantined");
    assert_eq!(
        q.reason,
        QuarantineReason::Codec,
        "a checksum-passing meta mismatch is codec-class damage"
    );
    match load_spill(&path) {
        Err(SpillError::Codec { .. }) => {}
        other => panic!("strict load must fail typed Codec, got {other:?}"),
    }
    let (salvaged, comp) = load_spill_salvaged(&path).expect("salvage still succeeds");
    assert_eq!(salvaged.len(), 0, "nothing before the damaged chunk");
    assert_lossy("meta mutant", &comp);
    std::fs::remove_file(&path).expect("cleanup");
}

/// Checksum-fixed corruption of the one column the analyzer never decodes:
/// give the first chunk's `node` column an unknown codec tag and re-seal
/// the frame. Deep verification must still quarantine the chunk as
/// `Codec`, so `fsck`, the strict open and the strict loader all refuse
/// it although the analyzer would never decode `node`.
#[test]
fn checksum_fixed_node_column_corruption_is_caught_by_deep_verification() {
    let c = sample_trace();
    let path = tmp("node-mutant.vsp3");
    spill_columnar(&c, GROUP_ROWS, &path, SpillFaultPlan::none()).expect("clean spill");
    let mut bytes = std::fs::read(&path).expect("read spill log");
    let (payload_start, payload_len) = first_chunk_payload(&bytes);
    // Payload layout: rows u64, meta_len u64, the meta, ten column
    // lengths u64, then the columns; `node` is the second, and its first
    // byte is the codec tag.
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let meta_len = u64_at(payload_start + 8);
    let lens_at = payload_start + 16 + meta_len;
    let node_at = lens_at + 80 + u64_at(lens_at);
    bytes[node_at] = 9;
    reseal(&mut bytes, payload_start, payload_len);
    std::fs::write(&path, &bytes).expect("write mutant");

    let report = fsck(&path).expect("fsck walks the mutant without failing");
    assert_eq!(report.committed_records, 0, "first chunk is quarantined");
    let q = report.quarantined.first().expect("damage is quarantined");
    assert_eq!(q.reason, QuarantineReason::Codec);
    match SpillSource::open_strict(&path) {
        Err(SpillError::Codec { .. }) => {}
        other => panic!("strict open must fail typed Codec, got {:?}", other.err()),
    }
    match load_spill(&path) {
        Err(SpillError::Codec { .. }) => {}
        other => panic!("strict load must fail typed Codec, got {other:?}"),
    }
    let (salvaged, comp) = load_spill_salvaged(&path).expect("salvage still succeeds");
    assert_eq!(salvaged.len(), 0, "nothing before the damaged chunk");
    assert_lossy("node mutant", &comp);
    std::fs::remove_file(&path).expect("cleanup");
}

/// Checksum-fixed corruption the strict open cannot see: mark a layer
/// present in the second chunk's persisted meta that none of its rows
/// touch, then re-seal the frame. Frames, tallies and meta bounds all pass,
/// so `open_strict` succeeds; the strict fold decodes the chunk, finds
/// that the rows disagree with the meta and stops with a typed `Codec`
/// error naming chunk 1, without a panic. The decoding walks (`fsck`,
/// `load_spill`, salvage) quarantine the chunk and keep the first one.
#[test]
fn checksum_fixed_presence_flip_is_caught_by_the_strict_fold() {
    let c = sample_trace();
    let path = tmp("presence-mutant.vsp4");
    spill_columnar(&c, GROUP_ROWS, &path, SpillFaultPlan::none()).expect("clean spill");
    let mut bytes = std::fs::read(&path).expect("read spill log");
    let (payload_start, payload_len) = nth_chunk_payload(&bytes, 1);
    // Payload layout: rows u64, meta_len u64, then the meta: rows u64 and
    // the six presence flags.
    let absent = (payload_start + 24..payload_start + 30)
        .find(|&i| bytes[i] == 0)
        .expect("the sample trace leaves some layer absent");
    bytes[absent] = 1;
    reseal(&mut bytes, payload_start, payload_len);
    std::fs::write(&path, &bytes).expect("write mutant");

    let src = SpillSource::open_strict(&path).expect("the open walk cannot see the flip");
    let folded = catch_unwind(AssertUnwindSafe(|| {
        TraceProfile::streaming_source(&src, JOB_TIME)
    }))
    .expect("the strict fold must not panic");
    match folded {
        Err(SpillError::Codec { chunk: 1, .. }) => {}
        other => panic!(
            "strict fold must fail typed Codec at chunk 1, got {:?}",
            other.err()
        ),
    }

    let report = fsck(&path).expect("fsck walks the mutant without failing");
    let q = report.quarantined.first().expect("damage is quarantined");
    assert_eq!(q.reason, QuarantineReason::Codec);
    assert_eq!(
        q.offset,
        (payload_start - 9) as u64,
        "the second chunk frame"
    );
    assert_eq!(
        report.committed_records, GROUP_ROWS as u64,
        "the first chunk"
    );
    match load_spill(&path) {
        Err(SpillError::Codec { .. }) => {}
        other => panic!("strict load must fail typed Codec, got {other:?}"),
    }
    let (salvaged, comp) = load_spill_salvaged(&path).expect("salvage still succeeds");
    assert_eq!(salvaged.chunks.len(), 1, "exactly the first chunk");
    let got = salvaged.to_columnar().expect("salvaged chunk decodes");
    assert_eq!(got.len(), GROUP_ROWS);
    assert_prefix("presence mutant", &got, &c);
    assert_lossy("presence mutant", &comp);
    std::fs::remove_file(&path).expect("cleanup");
}

/// Checksum-fixed metas that would size the fold's allocations or index
/// its arrays out of range: `n_ranks = 1 << 40`, `n_files` one past the
/// interned files, and a per-layer file bit at `n_files`. Each is resealed
/// into the first chunk of a clean log, and `open_strict` and `fsck` must
/// each refuse it as typed `Codec` damage before anything is sized by the
/// bad field (an allocation of `1 << 40` rank slots would abort the test
/// binary).
#[test]
fn checksum_fixed_meta_bounds_are_refused_at_open() {
    let c = sample_trace();
    let path = tmp("bounds-mutant.vsp4");
    spill_columnar(&c, GROUP_ROWS, &path, SpillFaultPlan::none()).expect("clean spill");
    let clean = std::fs::read(&path).expect("read spill log");
    let (payload_start, payload_len) = first_chunk_payload(&clean);
    // Meta layout (after the payload's rows and meta_len u64s): rows u64,
    // six presence flags, n_ranks, n_apps and n_files u64s, then per layer
    // a word count u64 and that many u64 words.
    let meta = payload_start + 16;
    let (n_ranks_at, n_files_at) = (meta + 14, meta + 30);
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let n_files = u64_at(&clean, n_files_at);
    assert_eq!(n_files, c.file_paths.len() as u64, "every file is touched");
    let mut words_at = meta + 38;
    let first_word = loop {
        let n = u64_at(&clean, words_at) as usize;
        if n > 0 {
            break words_at + 8;
        }
        words_at += 8;
    };

    let put = |b: &mut Vec<u8>, at: usize, v: u64| b[at..at + 8].copy_from_slice(&v.to_le_bytes());
    let mutants: [(&str, Box<dyn Fn(&mut Vec<u8>)>); 3] = [
        (
            "n_ranks = 1 << 40",
            Box::new(|b| put(b, n_ranks_at, 1 << 40)),
        ),
        (
            "n_files past the intern table",
            Box::new(|b| put(b, n_files_at, c.file_paths.len() as u64 + 1)),
        ),
        (
            "layer file bit at n_files",
            Box::new(|b| {
                let word = u64_at(b, first_word);
                put(b, first_word, word | 1 << n_files);
            }),
        ),
    ];
    for (label, mutate) in mutants {
        let mut bytes = clean.clone();
        mutate(&mut bytes);
        reseal(&mut bytes, payload_start, payload_len);
        std::fs::write(&path, &bytes).expect("write mutant");
        let t = Instant::now();
        match SpillSource::open_strict(&path) {
            Err(SpillError::Codec { chunk: 0, .. }) => {}
            other => panic!(
                "{label}: strict open must fail typed Codec, got {:?}",
                other.err()
            ),
        }
        let report = fsck(&path).expect("fsck walks the mutant without failing");
        let q = report.quarantined.first().expect("damage is quarantined");
        assert_eq!(q.reason, QuarantineReason::Codec, "{label}");
        assert_eq!(report.committed_records, 0, "{label}");
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "{label}: refusing a 900-row log took {:?}",
            t.elapsed()
        );
    }
    std::fs::remove_file(&path).expect("cleanup");
}
