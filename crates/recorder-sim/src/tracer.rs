//! The trace capture sink.
//!
//! During a run, every layer appends records here. Capture goes **directly
//! into struct-of-arrays storage** (an embedded [`ColumnarTrace`]): the
//! analyzer consumes columns, so materializing a row-major `TraceRecord`
//! per call only to transpose the whole trace afterwards was pure overhead
//! on the simulate → trace → analyze hot path. The row view survives as a
//! compat shim ([`Tracer::records`]) for tests and the Darshan-style
//! aggregator.
//!
//! The tracer also interns file paths and application names — lookups are
//! borrowed (`&str`), a `String` is allocated only on the first insert —
//! and can model Recorder's capture overhead (the paper measured 8 % of
//! workload runtime) by charging a fixed cost per captured record, which
//! the layers add to their completion times.

use crate::chunk::{columnar_capacity_bytes, ChunkedTrace, CompressedChunk, GaugeCharge};
use crate::columnar::ColumnarTrace;
use crate::record::{AppId, FileId, Layer, OpKind, TraceRecord};
use crate::spill::{SpillError, SpillFaultPlan, SpillSummary, SpillWriter};
use sim_core::{Dur, SimTime};
use std::collections::HashMap;
use std::path::Path;
use vani_rt::{FromJson, Json, JsonError, ToJson};

/// Records per adaptive-sampler feedback window.
const SAMPLER_WINDOW: u64 = 1024;

/// Largest admission stride the sampler will back off to.
const SAMPLER_MAX_STRIDE: u64 = 65536;

/// Overhead-budget admission control for capture (Recorder's "keep tracing
/// under X% of runtime" knob, here deterministic by construction).
///
/// Records are admitted every `stride`-th call. After each window of
/// [`SAMPLER_WINDOW`] offered records the sampler compares the capture
/// overhead it charged (`admitted × per_record_overhead`) against the
/// simulated time the window spanned: above budget the stride doubles
/// (up to [`SAMPLER_MAX_STRIDE`]), below half budget it halves (down to 1,
/// i.e. capture everything). All state advances on offered-record counts
/// and simulated timestamps only — never wall clock — so a given record
/// stream always samples identically.
#[derive(Debug, Clone)]
pub struct AdaptiveSampler {
    /// Target capture overhead as a fraction of simulated time.
    budget: f64,
    stride: u64,
    seen: u64,
    admitted_in_window: u64,
    window_start: SimTime,
}

impl AdaptiveSampler {
    /// Sampler targeting `budget` (fraction of simulated time, e.g. 0.08
    /// for the paper's 8%). Starts at stride 1 (admit everything) and
    /// backs off only if the stream proves too hot.
    pub fn new(budget: f64) -> AdaptiveSampler {
        assert!(budget > 0.0, "sampler budget must be positive");
        AdaptiveSampler {
            budget,
            stride: 1,
            seen: 0,
            admitted_in_window: 0,
            window_start: SimTime::ZERO,
        }
    }

    /// Admission decision for the next offered record starting at `start`.
    fn admit(&mut self, start: SimTime, per_record_overhead: Dur) -> bool {
        if self.seen == 0 {
            self.window_start = start;
        }
        let admit = self.seen % self.stride == 0;
        self.seen += 1;
        if admit {
            self.admitted_in_window += 1;
        }
        if self.seen % SAMPLER_WINDOW == 0 {
            let span = start.since(self.window_start).as_secs_f64();
            let spent = self.admitted_in_window as f64 * per_record_overhead.as_secs_f64();
            let frac = if span > 0.0 {
                spent / span
            } else if spent > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            if frac > self.budget {
                self.stride = (self.stride * 2).min(SAMPLER_MAX_STRIDE);
            } else if frac < self.budget / 2.0 {
                self.stride = (self.stride / 2).max(1);
            }
            self.admitted_in_window = 0;
            self.window_start = start;
        }
        admit
    }

    /// Current admission stride (1 = capturing everything).
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

/// Chunked-capture state: sealed chunks so far and the gauge charge
/// covering the live buffer. With a spill writer attached, sealed chunks
/// stream to disk instead of accumulating in `chunks` — the larger-than-RAM
/// capture path.
#[derive(Debug)]
struct ChunkState {
    chunk_rows: usize,
    chunks: Vec<CompressedChunk>,
    charge: GaugeCharge,
    writer: Option<SpillWriter>,
    /// First spill failure, surfaced at [`Tracer::into_spill`] — `record`
    /// returns a `Dur` and cannot propagate it. After a failure sealed
    /// chunks fall back to accumulating in memory so the capture itself
    /// is never lost.
    spill_error: Option<SpillError>,
}

impl Clone for ChunkState {
    /// A cloned tracer is a fresh in-memory capture: the spill writer
    /// holds an open file handle and an exclusive temp path, so it (and
    /// any stored spill error) stays with the original.
    fn clone(&self) -> ChunkState {
        ChunkState {
            chunk_rows: self.chunk_rows,
            chunks: self.chunks.clone(),
            charge: self.charge.clone(),
            writer: None,
            spill_error: None,
        }
    }
}

/// The trace capture sink for one workload run.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    /// Column-major storage, including the interned path/name tables
    /// (`cols.file_paths[id]` is the path of `FileId(id)`).
    cols: ColumnarTrace,
    file_ids: HashMap<String, FileId>,
    app_ids: HashMap<String, AppId>,
    /// Cost charged per captured record (0 disables overhead modelling).
    pub per_record_overhead: Dur,
    enabled: bool,
    /// `Some` once chunked capture is on: `cols` then holds only the
    /// unsealed tail, bounded by the chunk size.
    chunked: Option<ChunkState>,
    /// Overhead-budget admission control; `None` (the default) captures
    /// every record — required for the streaming == fused identity.
    sampler: Option<AdaptiveSampler>,
}

impl Tracer {
    /// New enabled tracer with no capture overhead.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            ..Default::default()
        }
    }

    /// New tracer charging `overhead` per record (Recorder's runtime cost).
    pub fn with_overhead(overhead: Dur) -> Self {
        Tracer {
            enabled: true,
            per_record_overhead: overhead,
            ..Default::default()
        }
    }

    /// Rebuild a tracer around already-captured columns — the loaders and
    /// the trace-salvage path turn a (possibly partial) [`ColumnarTrace`]
    /// back into a live capture sink this way.
    pub fn from_columnar(cols: ColumnarTrace) -> Self {
        let mut t = Tracer {
            cols,
            enabled: true,
            ..Default::default()
        };
        t.rebuild_index();
        t
    }

    /// New enabled tracer with room for `n` records pre-allocated.
    pub fn with_capacity(n: usize) -> Self {
        Tracer {
            cols: ColumnarTrace::with_capacity(n),
            enabled: true,
            ..Default::default()
        }
    }

    /// Switch this tracer to chunked capture: from now on, whenever the
    /// live columns reach `chunk_rows` records they are sealed into a
    /// compressed chunk (see [`crate::chunk`]) and recycled. Must be called
    /// before any record is captured — the live buffer is the first chunk.
    ///
    /// In chunked mode [`columnar`](Self::columnar), [`records`] and
    /// friends expose only the unsealed tail; consume the full trace with
    /// [`into_chunked`](Self::into_chunked).
    ///
    /// [`records`]: Self::records
    pub fn enable_chunked(&mut self, chunk_rows: usize) {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        assert!(
            self.cols.is_empty(),
            "enable_chunked before capturing records"
        );
        if self.chunked.is_some() {
            return;
        }
        self.cols.reserve(chunk_rows);
        self.chunked = Some(ChunkState {
            chunk_rows,
            chunks: Vec::new(),
            charge: GaugeCharge::new(columnar_capacity_bytes(&self.cols)),
            writer: None,
            spill_error: None,
        });
    }

    /// Attach a spill writer: from now on sealed chunks stream to the
    /// append-only log at `path` instead of accumulating in memory, so
    /// capture handles traces larger than RAM. Requires chunked mode and
    /// must be called before any chunk seals.
    pub fn enable_spill(&mut self, path: &Path, fault: SpillFaultPlan) -> Result<(), SpillError> {
        let cs = self
            .chunked
            .as_mut()
            .expect("enable_spill requires enable_chunked");
        assert!(
            cs.chunks.is_empty() && cs.writer.is_none(),
            "enable_spill before any chunk seals"
        );
        cs.writer = Some(SpillWriter::create(path, cs.chunk_rows, fault)?);
        Ok(())
    }

    /// Whether a spill writer is attached and healthy.
    pub fn is_spilling(&self) -> bool {
        self.chunked
            .as_ref()
            .is_some_and(|cs| cs.writer.is_some() && cs.spill_error.is_none())
    }

    /// Finish spill capture: seal the tail, append it, persist the intern
    /// tables, and seal the log. Returns the first spill failure if any
    /// append failed mid-run (the capture up to that point survives
    /// in-memory via [`into_chunked`](Self::into_chunked) semantics).
    pub fn into_spill(mut self) -> Result<SpillSummary, SpillError> {
        let mut cs = self
            .chunked
            .take()
            .expect("into_spill requires enable_chunked");
        if let Some(e) = cs.spill_error.take() {
            return Err(e);
        }
        let mut writer = cs.writer.take().expect("into_spill requires enable_spill");
        writer.intern(&self.cols.file_paths, &self.cols.app_names)?;
        if !self.cols.is_empty() {
            let chunk = CompressedChunk::seal_rows(&self.cols, 0..self.cols.len());
            writer.append(&chunk, &self.cols.file_paths, &self.cols.app_names)?;
        }
        writer.finish()
    }

    /// New chunked tracer (see [`enable_chunked`](Self::enable_chunked)).
    pub fn with_chunked(chunk_rows: usize) -> Self {
        let mut t = Tracer::new();
        t.enable_chunked(chunk_rows);
        t
    }

    /// Attach an [`AdaptiveSampler`] with the given overhead budget
    /// (fraction of simulated time). Sampling drops records, so profiles of
    /// a sampled trace are estimates — leave it off (the default) wherever
    /// the streaming == fused bit-identity contract applies.
    pub fn set_sampler_budget(&mut self, budget: Option<f64>) {
        self.sampler = budget.map(AdaptiveSampler::new);
    }

    /// The active sampler, if any (tests inspect the adapted stride).
    pub fn sampler(&self) -> Option<&AdaptiveSampler> {
        self.sampler.as_ref()
    }

    /// Whether chunked capture is on.
    pub fn is_chunked(&self) -> bool {
        self.chunked.is_some()
    }

    /// Chunks sealed so far (excludes the live tail in the capture buffer).
    pub fn sealed_chunks(&self) -> usize {
        self.chunked.as_ref().map_or(0, |cs| cs.chunks.len())
    }

    /// Finish chunked capture: seal the tail and yield the compressed
    /// trace. Panics if [`enable_chunked`](Self::enable_chunked) was never
    /// called — a batch tracer's columns convert via
    /// [`crate::chunk::ChunkedTrace::from_columnar`] instead.
    pub fn into_chunked(mut self) -> ChunkedTrace {
        let mut cs = self
            .chunked
            .take()
            .expect("into_chunked requires enable_chunked");
        if !self.cols.is_empty() {
            cs.chunks
                .push(CompressedChunk::seal_rows(&self.cols, 0..self.cols.len()));
        }
        ChunkedTrace {
            chunk_rows: cs.chunk_rows,
            chunks: std::mem::take(&mut cs.chunks),
            file_paths: std::mem::take(&mut self.cols.file_paths),
            app_names: std::mem::take(&mut self.cols.app_names),
        }
    }

    /// Reserve room for at least `additional` more records. Workloads call
    /// this with a params-derived estimate before the run so the capture
    /// columns grow once instead of doubling through the simulation.
    ///
    /// In chunked mode the hint is clamped to one chunk: the live buffer
    /// never holds more than `chunk_rows` records, so a million-record
    /// workload hint must not balloon the first-chunk allocation.
    pub fn reserve(&mut self, additional: usize) {
        let additional = match &self.chunked {
            Some(cs) => additional.min(cs.chunk_rows),
            None => additional,
        };
        self.cols.reserve(additional);
        if let Some(cs) = &mut self.chunked {
            cs.charge.resync(columnar_capacity_bytes(&self.cols));
        }
    }

    /// Enable/disable capture (a disabled tracer records nothing and costs
    /// nothing, like running without the profiler attached).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether capture is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Intern a file path. Known paths are found via a borrowed lookup;
    /// only the first occurrence of a path allocates.
    pub fn file_id(&mut self, path: &str) -> FileId {
        if let Some(&id) = self.file_ids.get(path) {
            return id;
        }
        let id = FileId(self.cols.file_paths.len() as u32);
        self.cols.file_paths.push(path.to_string());
        self.file_ids.insert(path.to_string(), id);
        id
    }

    /// Intern an application name (borrowed lookup, see [`Self::file_id`]).
    pub fn app_id(&mut self, name: &str) -> AppId {
        if let Some(&id) = self.app_ids.get(name) {
            return id;
        }
        let id = AppId(self.cols.app_names.len() as u16);
        self.cols.app_names.push(name.to_string());
        self.app_ids.insert(name.to_string(), id);
        id
    }

    /// The path of an interned file.
    pub fn path_of(&self, id: FileId) -> &str {
        &self.cols.file_paths[id.0 as usize]
    }

    /// The name of an interned application.
    pub fn app_name(&self, id: AppId) -> &str {
        &self.cols.app_names[id.0 as usize]
    }

    /// All interned paths (index = `FileId`).
    pub fn file_paths(&self) -> &[String] {
        &self.cols.file_paths
    }

    /// All interned app names (index = `AppId`).
    pub fn app_names(&self) -> &[String] {
        &self.cols.app_names
    }

    /// Capture a record; returns the capture overhead to add to the caller's
    /// completion time (zero when disabled or no overhead configured).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        rank: u32,
        node: u32,
        app: AppId,
        layer: Layer,
        op: OpKind,
        start: SimTime,
        end: SimTime,
        file: Option<FileId>,
        offset: u64,
        bytes: u64,
    ) -> Dur {
        if !self.enabled {
            return Dur::ZERO;
        }
        if let Some(s) = &mut self.sampler {
            if !s.admit(start, self.per_record_overhead) {
                return Dur::ZERO;
            }
        }
        self.cols
            .push_row(rank, node, app, layer, op, start, end, file, offset, bytes);
        if let Some(cs) = &mut self.chunked {
            if self.cols.len() >= cs.chunk_rows {
                let chunk = CompressedChunk::seal_rows(&self.cols, 0..self.cols.len());
                match &mut cs.writer {
                    Some(w) => {
                        if let Err(e) =
                            w.append(&chunk, &self.cols.file_paths, &self.cols.app_names)
                        {
                            // `record` returns a `Dur`, so stash the typed
                            // failure for `into_spill` and fall back to
                            // in-memory accumulation: the capture outlives
                            // the broken device.
                            cs.spill_error = Some(e);
                            cs.writer = None;
                            cs.chunks.push(chunk);
                        }
                    }
                    None => cs.chunks.push(chunk),
                }
                self.cols.clear_rows();
            }
        }
        self.per_record_overhead
    }

    /// Borrowed columnar view of the capture sink — the zero-copy input to
    /// the analyzer kernels.
    pub fn columnar(&self) -> &ColumnarTrace {
        &self.cols
    }

    /// Owned copy of the columns (one memcpy per column; no transpose).
    pub fn to_columnar(&self) -> ColumnarTrace {
        self.cols.clone()
    }

    /// Consume the tracer, yielding its columns without copying.
    pub fn into_columnar(self) -> ColumnarTrace {
        self.cols
    }

    /// Row-major view of the captured records, in capture order. Compat
    /// shim: rows are materialized on demand from the columns.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.cols.to_records()
    }

    /// Number of captured records.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Rebuild the intern maps after deserialization.
    pub fn rebuild_index(&mut self) {
        self.file_ids = self
            .cols
            .file_paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), FileId(i as u32)))
            .collect();
        self.app_ids = self
            .cols
            .app_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), AppId(i as u16)))
            .collect();
    }
}

// Serialized in the columnar layout (the capture format *is* the analysis
// format). The intern maps (`file_ids`, `app_ids`) are derived state and are
// not persisted; [`Tracer::rebuild_index`] reconstructs them after a load.
impl ToJson for Tracer {
    fn to_json(&self) -> Json {
        Json::obj([
            ("columns", self.cols.to_json()),
            ("per_record_overhead", self.per_record_overhead.to_json()),
            ("enabled", self.enabled.to_json()),
        ])
    }
}

impl FromJson for Tracer {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Tracer {
            cols: j.decode_field("columns")?,
            file_ids: HashMap::new(),
            app_ids: HashMap::new(),
            per_record_overhead: j.decode_field("per_record_overhead")?,
            enabled: j.decode_field("enabled")?,
            chunked: None,
            sampler: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut t = Tracer::new();
        let a = t.file_id("/p/gpfs1/a");
        let b = t.file_id("/p/gpfs1/b");
        assert_ne!(a, b);
        assert_eq!(t.file_id("/p/gpfs1/a"), a);
        assert_eq!(t.path_of(a), "/p/gpfs1/a");
        let m = t.app_id("mProject");
        assert_eq!(t.app_id("mProject"), m);
        assert_eq!(t.app_name(m), "mProject");
    }

    /// Re-interning a known path or app name performs no new insertions:
    /// the intern tables' lengths (and the path table's capacity) must not
    /// move, proving the hot path is a borrowed lookup.
    #[test]
    fn repeated_interning_inserts_nothing() {
        let mut t = Tracer::new();
        for i in 0..16 {
            t.file_id(&format!("/p/gpfs1/part.{i}"));
        }
        t.app_id("hacc");
        let paths_len = t.file_paths().len();
        let paths_cap = t.cols.file_paths.capacity();
        let map_len = t.file_ids.len();
        let apps_len = t.app_names().len();
        for _ in 0..1000 {
            t.file_id("/p/gpfs1/part.7");
            t.app_id("hacc");
        }
        assert_eq!(t.file_paths().len(), paths_len);
        assert_eq!(t.cols.file_paths.capacity(), paths_cap);
        assert_eq!(t.file_ids.len(), map_len);
        assert_eq!(t.app_names().len(), apps_len);
        assert_eq!(t.app_ids.len(), 1);
    }

    #[test]
    fn capture_is_columnar_with_row_shim() {
        let mut t = Tracer::new();
        let f = t.file_id("/f");
        let a = t.app_id("app");
        t.record(
            2,
            1,
            a,
            Layer::Posix,
            OpKind::Write,
            SimTime(5),
            SimTime(9),
            Some(f),
            64,
            128,
        );
        t.record(
            2,
            1,
            a,
            Layer::Posix,
            OpKind::Close,
            SimTime(9),
            SimTime(10),
            Some(f),
            0,
            0,
        );
        // Columns are filled directly ...
        assert_eq!(t.columnar().bytes, vec![128, 0]);
        assert_eq!(t.columnar().op, vec![OpKind::Write, OpKind::Close]);
        // ... and the row shim reconstructs the exact records.
        let rows = t.records();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].rank, 2);
        assert_eq!(rows[0].file, Some(f));
        assert_eq!(rows[0].bytes, 128);
        assert_eq!(rows[1].op, OpKind::Close);
    }

    #[test]
    fn reserve_presizes_all_columns() {
        let mut t = Tracer::with_capacity(100);
        assert!(t.cols.rank.capacity() >= 100);
        assert!(t.cols.bytes.capacity() >= 100);
        t.reserve(500);
        assert!(t.cols.op.capacity() >= 500);
        assert!(t.is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::with_overhead(Dur::from_micros(1));
        t.set_enabled(false);
        let f = t.file_id("/f");
        let ov = t.record(
            0,
            0,
            AppId(0),
            Layer::Posix,
            OpKind::Read,
            SimTime::ZERO,
            SimTime::from_secs(1),
            Some(f),
            0,
            100,
        );
        assert_eq!(ov, Dur::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn overhead_is_charged_per_record() {
        let mut t = Tracer::with_overhead(Dur::from_micros(2));
        let ov = t.record(
            1,
            0,
            AppId(0),
            Layer::Stdio,
            OpKind::Write,
            SimTime::ZERO,
            SimTime::from_secs(1),
            None,
            0,
            10,
        );
        assert_eq!(ov, Dur::from_micros(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.records()[0].rank, 1);
    }

    /// Drive `n` records through a tracer via the shared synthetic stream.
    fn feed(t: &mut Tracer, n: u64) {
        let f = t.file_id("/f");
        let g = t.file_id("/g");
        let a = t.app_id("app");
        for i in 0..n {
            t.record(
                (i % 4) as u32,
                0,
                a,
                if i % 3 == 0 {
                    Layer::Stdio
                } else {
                    Layer::Posix
                },
                if i % 5 == 0 {
                    OpKind::Open
                } else {
                    OpKind::Write
                },
                SimTime(i * 1000),
                SimTime(i * 1000 + 400),
                Some(if i % 2 == 0 { f } else { g }),
                i * 512,
                if i % 5 == 0 { 0 } else { 512 },
            );
        }
    }

    #[test]
    fn chunked_capture_equals_batch_capture() {
        let mut batch = Tracer::new();
        feed(&mut batch, 10_000);
        for chunk_rows in [64usize, 1024, 65536] {
            let mut chunked = Tracer::with_chunked(chunk_rows);
            feed(&mut chunked, 10_000);
            assert!(chunked.sealed_chunks() >= 10_000 / chunk_rows);
            let ct = chunked.into_chunked();
            assert_eq!(ct.len(), 10_000);
            assert_eq!(
                ct.to_columnar().expect("decodes"),
                batch.to_columnar(),
                "chunk_rows={chunk_rows}"
            );
        }
    }

    /// The satellite fix: in chunked mode, workload record-count hints are
    /// clamped to one chunk, so a huge hint cannot balloon the first-chunk
    /// allocation (capacity micro-assertion, as in the interning test).
    #[test]
    fn chunked_reserve_clamps_to_one_chunk() {
        let mut t = Tracer::with_chunked(1024);
        t.reserve(1_000_000);
        assert!(
            t.cols.rank.capacity() <= 2 * 1024,
            "capacity {}",
            t.cols.rank.capacity()
        );
        assert!(
            t.cols.bytes.capacity() <= 2 * 1024,
            "capacity {}",
            t.cols.bytes.capacity()
        );
        // Batch mode keeps honoring the full hint.
        let mut b = Tracer::new();
        b.reserve(100_000);
        assert!(b.cols.rank.capacity() >= 100_000);
    }

    #[test]
    fn chunked_capture_keeps_live_buffer_bounded() {
        let mut t = Tracer::with_chunked(256);
        feed(&mut t, 5_000);
        assert!(t.cols.len() < 256, "live tail only: {}", t.cols.len());
        assert!(
            t.cols.rank.capacity() <= 512,
            "buffer recycled, not regrown"
        );
        assert_eq!(t.sealed_chunks(), 5_000 / 256);
    }

    #[test]
    fn spill_capture_round_trips_through_the_log() {
        let dir = std::env::temp_dir().join(format!("vani-tracer-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.vsp3");
        let mut mem = Tracer::with_chunked(256);
        feed(&mut mem, 5_000);
        let mut sp = Tracer::with_chunked(256);
        sp.enable_spill(&path, SpillFaultPlan::none())
            .expect("spill on");
        feed(&mut sp, 5_000);
        assert!(sp.is_spilling());
        assert_eq!(sp.sealed_chunks(), 0, "sealed chunks stream to disk");
        let sum = sp.into_spill().expect("seals");
        assert_eq!(sum.records, 5_000);
        let loaded = crate::spill::load_spill(&path).expect("loads");
        assert_eq!(loaded, mem.into_chunked());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampler_off_is_exhaustive_and_deterministic() {
        let mut a = Tracer::new();
        let mut b = Tracer::new();
        feed(&mut a, 3_000);
        feed(&mut b, 3_000);
        assert_eq!(a.to_columnar(), b.to_columnar());
        assert_eq!(a.len(), 3_000);
    }

    #[test]
    fn sampler_throttles_hot_streams_and_stays_deterministic() {
        // 1 µs overhead per record, records 1 ns apart: overhead vastly
        // exceeds any budget, so the stride must back off hard.
        let run = || {
            let mut t = Tracer::with_overhead(Dur::from_micros(1));
            t.set_sampler_budget(Some(0.08));
            let a = t.app_id("app");
            for i in 0..100_000u64 {
                t.record(
                    0,
                    0,
                    a,
                    Layer::Posix,
                    OpKind::Write,
                    SimTime(i),
                    SimTime(i + 1),
                    None,
                    0,
                    64,
                );
            }
            (t.len(), t.sampler().unwrap().stride())
        };
        let (len1, stride1) = run();
        let (len2, stride2) = run();
        assert_eq!(
            (len1, stride1),
            (len2, stride2),
            "sampling is deterministic"
        );
        assert!(stride1 > 1, "hot stream must raise the stride");
        assert!(len1 < 100_000 / 4, "most records dropped: {len1}");
    }

    #[test]
    fn sampler_relaxes_on_cool_streams() {
        // Records 1 s apart with 1 µs overhead: far under budget, so the
        // stride stays at 1 and everything is captured.
        let mut t = Tracer::with_overhead(Dur::from_micros(1));
        t.set_sampler_budget(Some(0.08));
        let a = t.app_id("app");
        for i in 0..5_000u64 {
            t.record(
                0,
                0,
                a,
                Layer::Posix,
                OpKind::Write,
                SimTime::from_secs(i),
                SimTime::from_secs(i) + Dur::from_millis(1),
                None,
                0,
                64,
            );
        }
        assert_eq!(t.sampler().unwrap().stride(), 1);
        assert_eq!(t.len(), 5_000);
    }

    #[test]
    fn rebuild_index_restores_interning() {
        let mut t = Tracer::new();
        t.file_id("/x");
        t.file_id("/y");
        t.app_id("app");
        let json = vani_rt::json::to_string(&t);
        let mut back: Tracer = vani_rt::json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.file_id("/x"), FileId(0));
        assert_eq!(back.file_id("/y"), FileId(1));
        assert_eq!(back.file_id("/z"), FileId(2));
        assert_eq!(back.app_id("app"), AppId(0));
    }
}
