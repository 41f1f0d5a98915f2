//! `trace-roundtrip`: capture a seeded synthetic trace through the chunked
//! tracer into a spill log, then recover the log and fold it off disk. No
//! simulation: the same codec and spill layers run in both directions, so
//! an encode cost and a decode gain show up as two separate numbers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use recorder_sim::chunk::{columnar_capacity_bytes, ChunkMeta};
use recorder_sim::spill::{ChunkSource, SpillError, SpillSource, SpillSummary, SpillWriter};
use recorder_sim::{
    AppId, ColumnarTrace, CompressedChunk, FileId, Layer, OpKind, SpillFaultPlan, Tracer,
    DEFAULT_CHUNK_ROWS,
};
use sim_core::{Dur, SimTime};
use vani_core::analyzer::TraceProfile;
use vani_rt::{par, Rng};

use crate::spans::{SpanId, Spans};
use crate::stats::Fnv;
use crate::{Pass, Phase, Traced};

/// Records in the generated trace.
pub const RECORDS: usize = 4_000_000;
/// Ranks issuing them.
pub const RANKS: u32 = 64;
/// Worker threads.
pub const WORKERS: usize = 1;

/// A seeded synthetic POSIX trace: mostly sequential per-(rank, file)
/// offset chains, 70% file-per-process and 30% shared-file traffic, a
/// metadata tail, four apps, and a quiet gap every `n / 6` records so the
/// phase detector finds about six phases.
pub fn generate(n: usize, seed: u64) -> (ColumnarTrace, Dur) {
    let shared_files = 8u32;
    let apps = 4u16;
    let mut rng = Rng::new(seed);
    let mut c = ColumnarTrace::with_capacity(n);
    c.file_paths = (0..RANKS)
        .map(|r| format!("/scratch/fpp/part.{r:04}"))
        .chain((0..shared_files).map(|f| format!("/scratch/shared/step{f:02}.dat")))
        .collect();
    c.app_names = (0..apps).map(|a| format!("kernel{a}")).collect();
    let mut frontier = vec![0u64; (RANKS + shared_files) as usize];
    let mut clock = 1_000u64;
    for i in 0..n {
        let rank = rng.uniform_u64(0, RANKS as u64) as u32;
        if i > 0 && i % (n / 6).max(1) == 0 {
            clock += 400_000_000;
        }
        let roll = rng.uniform_u64(0, 100);
        let file = if roll < 70 {
            rank
        } else {
            RANKS + rng.uniform_u64(0, shared_files as u64) as u32
        };
        let (op, bytes) = match roll {
            0..=39 => (OpKind::Write, 1u64 << rng.uniform_u64(12, 21)),
            40..=79 => (OpKind::Read, 1u64 << rng.uniform_u64(12, 21)),
            80..=89 => (OpKind::Open, 0),
            _ => (OpKind::Close, 0),
        };
        let offset = if op.is_data() {
            let f = &mut frontier[file as usize];
            let at = if rng.uniform_u64(0, 100) < 95 {
                *f
            } else {
                rng.uniform_u64(0, (*f).max(1))
            };
            *f = (*f).max(at + bytes);
            at
        } else {
            0
        };
        clock += rng.uniform_u64(100, 2_000);
        c.push_row(
            rank,
            rank / 8,
            AppId((rank % apps as u32) as u16),
            Layer::Posix,
            op,
            SimTime::from_nanos(clock),
            SimTime::from_nanos(clock + 2_000 + bytes / 4),
            Some(FileId(file)),
            offset,
            bytes,
        );
    }
    let job_time = Dur(c.end.last().copied().unwrap_or(1) + 1_000_000);
    (c, job_time)
}

/// Digest of every column and intern table of `c`.
pub fn trace_digest(c: &ColumnarTrace) -> u64 {
    let mut h = Fnv::default();
    h.write_u64s(c.rank.iter().map(|&x| x as u64));
    h.write_u64s(c.node.iter().map(|&x| x as u64));
    h.write_u64s(c.app.iter().map(|&x| x as u64));
    h.write_u64s(c.layer.iter().map(|&x| x as u64));
    h.write_u64s(c.op.iter().map(|&x| x as u64));
    h.write_u64s(c.start.iter().copied());
    h.write_u64s(c.end.iter().copied());
    h.write_u64s(c.file.iter().map(|&x| x as u64));
    h.write_u64s(c.offset.iter().copied());
    h.write_u64s(c.bytes.iter().copied());
    for s in c.file_paths.iter().chain(&c.app_names) {
        h.write(s.as_bytes());
        h.write(&[0]);
    }
    h.finish()
}

/// Generated inputs, the reference profile and where logs go.
pub struct Setup {
    cols: ColumnarTrace,
    job_time: Dur,
    reference: TraceProfile,
    input_digest: u64,
    dir: PathBuf,
    /// Flip one byte of every log before replay (the mutation check).
    pub corrupt: bool,
    /// Size of the log an untraced pass wrote, once one has.
    log_bytes: Option<u64>,
}

/// Generate the trace and compute the reference profile with the fused
/// analyser over the generated columns.
pub fn setup(seed: u64, dir: &Path) -> Setup {
    par::set_threads(WORKERS);
    let (cols, job_time) = generate(RECORDS, seed);
    let reference = TraceProfile::fused(&cols, job_time);
    Setup {
        input_digest: trace_digest(&cols),
        cols,
        job_time,
        reference,
        dir: dir.to_path_buf(),
        corrupt: false,
        log_bytes: None,
    }
}

/// Digest of the generated inputs.
pub fn input_digest(s: &Setup) -> u64 {
    s.input_digest
}

/// Bytes of the generated columns, resident through every pass.
pub fn input_bytes(s: &Setup) -> u64 {
    columnar_capacity_bytes(&s.cols)
}

fn log_path(s: &Setup) -> PathBuf {
    s.dir.join(format!("roundtrip-{}.vsp3", std::process::id()))
}

fn remove_log(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let _ = std::fs::remove_file(PathBuf::from(tmp));
}

/// Flip one byte in the middle of the log: a chunk payload, so the
/// checksum no longer matches.
fn corrupt_log(path: &Path) {
    if let Ok(mut bytes) = std::fs::read(path) {
        let mid = bytes.len() / 2;
        if let Some(b) = bytes.get_mut(mid) {
            *b ^= 0x5a;
        }
        let _ = std::fs::write(path, bytes);
    }
}

/// A tracer that already holds every path and app name, in the order of
/// the generated intern tables, so the generated ids are the tracer's.
fn interned(c: &ColumnarTrace, tracer: &mut Tracer) {
    for p in &c.file_paths {
        tracer.file_id(p);
    }
    for a in &c.app_names {
        tracer.app_id(a);
    }
}

#[inline]
fn record_row(tracer: &mut Tracer, c: &ColumnarTrace, i: usize) {
    tracer.record(
        c.rank[i],
        c.node[i],
        AppId(c.app[i]),
        c.layer[i],
        c.op[i],
        SimTime::from_nanos(c.start[i]),
        SimTime::from_nanos(c.end[i]),
        Some(FileId(c.file[i])),
        c.offset[i],
        c.bytes[i],
    );
}

/// Capture: every record through `Tracer::record` into a chunked tracer
/// with a spill log attached, then `into_spill`.
fn capture(s: &Setup, path: &Path) -> Result<SpillSummary, SpillError> {
    let c = &s.cols;
    let mut tracer = Tracer::with_chunked(DEFAULT_CHUNK_ROWS);
    interned(c, &mut tracer);
    tracer.enable_spill(path, SpillFaultPlan::none())?;
    for i in 0..c.len() {
        record_row(&mut tracer, c, i);
    }
    tracer.into_spill()
}

/// Whether a replayed log is the clean, complete log of the generated
/// trace.
fn replay_ok(s: &Setup, got: &Result<(TraceProfile, bool), SpillError>) -> bool {
    matches!(got, Ok((p, clean)) if *clean && *p == s.reference)
}

/// One timed round trip, checked.
pub fn pass(s: &mut Setup) -> Pass {
    let path = log_path(s);
    let n = s.cols.len() as u64;
    let t0 = Instant::now();
    let summary = capture(s, &path);
    let capture_s = t0.elapsed().as_secs_f64();
    if s.corrupt {
        corrupt_log(&path);
    }
    let t1 = Instant::now();
    let replayed = SpillSource::open_strict(&path).and_then(|src| {
        let p = TraceProfile::streaming_source(&src, s.job_time)?;
        Ok((p, src.report().is_clean()))
    });
    let replay_s = t1.elapsed().as_secs_f64();
    let captured = matches!(&summary, Ok(sum) if sum.records == n);
    let ok = captured && replay_ok(s, &replayed);
    if ok && s.log_bytes.is_none() {
        s.log_bytes = summary.as_ref().ok().map(|sum| sum.bytes);
    }
    remove_log(&path);
    Pass {
        wall_s: capture_s + replay_s,
        jobs: 1.0,
        capture: Phase {
            records: n as f64,
            secs: capture_s,
        },
        replay: Phase {
            records: n as f64,
            secs: replay_s,
        },
        attempted: n,
        failed: if ok { 0 } else { n },
        trace_bytes: 0,
    }
}

/// A chunk source that measures how long its scans spend outside the
/// analyser's per-chunk callback: reading, checksumming and parsing frames.
struct TimedSource<'a> {
    inner: &'a dyn ChunkSource,
    outside_ns: AtomicU64,
}

impl ChunkSource for TimedSource<'_> {
    fn chunk_rows(&self) -> usize {
        self.inner.chunk_rows()
    }

    fn file_paths(&self) -> &[String] {
        self.inner.file_paths()
    }

    fn app_names(&self) -> &[String] {
        self.inner.app_names()
    }

    fn merged_meta(&self) -> ChunkMeta {
        self.inner.merged_meta()
    }

    fn total_records(&self) -> u64 {
        self.inner.total_records()
    }

    fn scan_chunks(&self, f: &mut dyn FnMut(&CompressedChunk)) -> Result<(), SpillError> {
        let t = Instant::now();
        let mut inside = 0u64;
        let r = self.inner.scan_chunks(&mut |ch| {
            let c = Instant::now();
            f(ch);
            inside += c.elapsed().as_nanos() as u64;
        });
        let outside = (t.elapsed().as_nanos() as u64).saturating_sub(inside);
        self.outside_ns.fetch_add(outside, Ordering::Relaxed);
        r
    }
}

/// The capture re-driven through its per-step public calls: the rows of
/// each chunk through `Tracer::record`, `CompressedChunk::seal`, and
/// `SpillWriter::append`, then the tail and `SpillWriter::finish` — the
/// same steps, in the same order, that `Tracer::record` and
/// `Tracer::into_spill` take internally.
fn traced_capture(
    s: &Setup,
    path: &Path,
    spans: &Spans,
    parent: SpanId,
    encoded: &mut usize,
) -> Result<SpillSummary, SpillError> {
    let c = &s.cols;
    let rows = DEFAULT_CHUNK_ROWS;
    let mut writer = spans.time("spill.append", Some(parent), |_| {
        SpillWriter::create(path, rows, SpillFaultPlan::none())
    })?;
    let mut tracer = Tracer::from_columnar(ColumnarTrace {
        file_paths: c.file_paths.clone(),
        app_names: c.app_names.clone(),
        ..ColumnarTrace::with_capacity(rows)
    });
    interned(c, &mut tracer);
    let mut scratch: Vec<u64> = Vec::with_capacity(rows);
    let mut at = 0;
    *encoded = 0;
    while at < c.len() {
        let end = (at + rows).min(c.len());
        spans.time("tracer.record", Some(parent), |_| {
            for i in at..end {
                record_row(&mut tracer, c, i);
            }
        });
        let full = end - at == rows;
        if !full {
            spans.time("spill.append", Some(parent), |_| {
                writer.intern(tracer.file_paths(), tracer.app_names())
            })?;
        }
        let chunk = spans.time("codec.seal", Some(parent), |_| {
            CompressedChunk::seal(tracer.columnar(), 0..end - at, &mut scratch)
        });
        *encoded += chunk.encoded_bytes();
        spans.time("spill.append", Some(parent), |_| {
            writer.append(&chunk, tracer.file_paths(), tracer.app_names())
        })?;
        tracer = spans.time("tracer.record", Some(parent), |_| {
            let mut cols = tracer.into_columnar();
            cols.clear_rows();
            Tracer::from_columnar(cols)
        });
        at = end;
    }
    spans.time("spill.append", Some(parent), |_| writer.finish())
}

/// One traced round trip. The log must commit every record, match the
/// size of the log the untraced passes wrote, recover fsck-clean, and
/// replay to the reference profile.
pub fn traced_pass(s: &Setup, spans: &Spans, root: SpanId) -> Traced {
    let path = log_path(s);
    let n = s.cols.len() as u64;
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut encoded = 0usize;
    let summary = spans.time("capture", Some(root), |id| {
        traced_capture(s, &path, spans, id, &mut encoded)
    });
    layers.insert("codec.bytes", encoded as f64);
    if s.corrupt {
        corrupt_log(&path);
    }
    let replayed = spans.time("replay", Some(root), |id| {
        let src = spans.time("spill.fsck", Some(id), |_| SpillSource::open_strict(&path))?;
        let timed = TimedSource {
            inner: &src,
            outside_ns: AtomicU64::new(0),
        };
        let p = spans.time("analyzer.fold", Some(id), |_| {
            TraceProfile::streaming_source(&timed, s.job_time)
        })?;
        let r = src.report();
        layers.insert("spill.read_s", timed.outside_ns.into_inner() as f64 / 1e9);
        layers.insert("spill.quarantined", r.quarantined.len() as f64);
        layers.insert("spill.committed", r.completeness.loaded_records as f64);
        layers.insert("spill.expected", r.completeness.expected_records as f64);
        Ok((p, r.is_clean()))
    });
    let same_log = matches!(
        (&summary, s.log_bytes),
        (Ok(sum), Some(bytes)) if sum.bytes == bytes && sum.records == n
    );
    let ok = same_log && replay_ok(s, &replayed);
    if let Ok(sum) = &summary {
        layers.insert("spill.fsync_points", sum.fsync_points as f64);
        layers.insert("spill.bytes", sum.bytes as f64);
        layers.insert("codec.chunks", sum.chunks as f64);
    }
    layers.insert("tracer.records", n as f64);
    layers.insert("codec.records", n as f64);
    layers.insert("analyzer.records", n as f64);
    let probe_path = path.clone();
    Traced {
        layers,
        attempted: n,
        failed: if ok { 0 } else { n },
        workers: WORKERS,
        probe: Box::new(move || {
            let secs = decode_probe(&probe_path);
            remove_log(&probe_path);
            secs
        }),
    }
}

/// Decode every committed chunk of the log once, timing only the decode:
/// the decode share of the off-disk fold.
fn decode_probe(path: &Path) -> f64 {
    let Ok(src) = SpillSource::open_salvaged(path) else {
        return 0.0;
    };
    let mut buf = ColumnarTrace::default();
    let mut ns = 0u64;
    let _ = src.scan_chunks(&mut |ch| {
        buf.clear_rows();
        let t = Instant::now();
        let _ = ch.decode_into(&mut buf, false);
        ns += t.elapsed().as_nanos() as u64;
    });
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_generates_byte_identical_inputs() {
        let (a, ja) = generate(50_000, 11);
        let (b, jb) = generate(50_000, 11);
        assert_eq!(a, b);
        assert_eq!(ja, jb);
        assert_eq!(trace_digest(&a), trace_digest(&b));
        let (c, _) = generate(50_000, 12);
        assert_ne!(trace_digest(&a), trace_digest(&c));
    }

    #[test]
    fn generated_trace_has_six_phases_and_shared_files() {
        let (c, job_time) = generate(60_000, 3);
        let p = TraceProfile::fused(&c, job_time);
        assert_eq!(p.phases.len(), 6);
        assert!(p.files.iter().any(|f| f.is_shared()));
    }

    fn small_setup(dir: &Path) -> Setup {
        let (cols, job_time) = generate(3 * DEFAULT_CHUNK_ROWS + 123, 5);
        Setup {
            reference: TraceProfile::fused(&cols, job_time),
            input_digest: trace_digest(&cols),
            cols,
            job_time,
            dir: dir.to_path_buf(),
            corrupt: false,
            log_bytes: None,
        }
    }

    /// Remove a test's directory, and the shared parent once it is empty.
    fn remove_test_dir(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        if let Some(parent) = dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }

    fn test_dir(name: &str) -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(crate::TMP_DIR)
            .join(name);
        std::fs::create_dir_all(&d).expect("create test dir");
        d
    }

    #[test]
    fn round_trip_passes_and_the_traced_log_is_identical() {
        let dir = test_dir("roundtrip-ok");
        let mut s = small_setup(&dir);
        let p = pass(&mut s);
        assert_eq!(p.failed, 0);
        assert!(s.log_bytes.is_some());
        let spans = Spans::new();
        let t = spans.time("pass", None, |root| traced_pass(&s, &spans, root));
        assert_eq!(t.failed, 0);
        assert_eq!(t.layers["spill.quarantined"], 0.0);
        assert_eq!(t.layers["codec.chunks"], 4.0);
        assert!((t.probe)() > 0.0);
        remove_test_dir(&dir);
    }

    #[test]
    fn a_flipped_log_byte_fails_every_record() {
        let dir = test_dir("roundtrip-corrupt");
        let mut s = small_setup(&dir);
        s.corrupt = true;
        let p = pass(&mut s);
        assert_eq!(p.failed, p.attempted);
        assert_eq!(p.attempted, s.cols.len() as u64);
        remove_test_dir(&dir);
    }
}
