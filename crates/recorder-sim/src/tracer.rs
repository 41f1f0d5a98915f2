//! The trace capture sink.
//!
//! During a run, every layer appends records here. Capture goes **directly
//! into struct-of-arrays storage** (an embedded [`ColumnarTrace`]): the
//! analyzer consumes columns, so materializing a row-major `TraceRecord`
//! per call only to transpose the whole trace afterwards was pure overhead
//! on the simulate → trace → analyze hot path. A caller that wants rows
//! converts the columns (`tracer.columnar().to_records()`).
//!
//! The tracer also interns file paths and application names — lookups are
//! borrowed (`&str`), a `String` is allocated only on the first insert.

use crate::chunk::{columnar_capacity_bytes, CompressedChunk, GaugeCharge};
use crate::columnar::ColumnarTrace;
use crate::record::{AppId, FileId, Layer, OpKind};
use crate::spill::{SpillError, SpillFaultPlan, SpillSummary, SpillWriter};
use sim_core::SimTime;
use std::collections::HashMap;
use std::path::Path;

/// Chunked-capture state: the gauge charge covering the live buffer and
/// the spill writer that sealed chunks stream to — the larger-than-RAM
/// capture path. No sealed chunk stays in memory.
#[derive(Debug)]
struct ChunkState {
    chunk_rows: usize,
    charge: GaugeCharge,
    writer: Option<SpillWriter>,
    /// First spill failure, surfaced at [`Tracer::into_spill`] — `record`
    /// returns nothing and cannot propagate it. The failure drops the
    /// writer (its guard removes the temp file), and every later sealed
    /// chunk is dropped too: the log's front is gone, so the rest of the
    /// capture could only ever be an incomplete trace, and the live buffer
    /// stays at one chunk.
    spill_error: Option<SpillError>,
}

/// The trace capture sink for one workload run.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Column-major storage, including the interned path/name tables
    /// (`cols.file_paths[id]` is the path of `FileId(id)`).
    cols: ColumnarTrace,
    file_ids: HashMap<String, FileId>,
    app_ids: HashMap<String, AppId>,
    /// `Some` once chunked capture is on: `cols` then holds only the
    /// unsealed tail, bounded by the chunk size.
    chunked: Option<ChunkState>,
}

impl Tracer {
    /// New, empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a tracer around already-captured columns — the loaders and
    /// the trace-salvage path turn a (possibly partial) [`ColumnarTrace`]
    /// back into a live capture sink this way.
    pub fn from_columnar(cols: ColumnarTrace) -> Self {
        let mut t = Tracer {
            cols,
            ..Default::default()
        };
        t.rebuild_index();
        t
    }

    /// Attach a spill writer: sealed chunks stream to the append-only log
    /// at `path`, so capture handles traces larger than RAM. Requires
    /// chunked mode and must be called before any chunk seals.
    pub fn enable_spill(&mut self, path: &Path, fault: SpillFaultPlan) -> Result<(), SpillError> {
        let cs = self
            .chunked
            .as_mut()
            .expect("enable_spill requires a chunked tracer");
        assert!(
            cs.writer.is_none() && cs.spill_error.is_none(),
            "enable_spill before any chunk seals"
        );
        cs.writer = Some(SpillWriter::create(path, cs.chunk_rows, fault)?);
        Ok(())
    }

    /// Finish spill capture: seal the tail, append it, persist the intern
    /// tables, and seal the log. Returns the first spill failure if any
    /// append failed mid-run; the capture is then lost, and no temp file
    /// is left behind.
    pub fn into_spill(mut self) -> Result<SpillSummary, SpillError> {
        let mut cs = self
            .chunked
            .take()
            .expect("into_spill requires a chunked tracer");
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

    /// New chunked tracer: whenever the live columns reach `chunk_rows`
    /// records they are sealed into a compressed chunk (see
    /// [`crate::chunk`]), appended to the spill log that
    /// [`enable_spill`](Self::enable_spill) attaches, and recycled, so the
    /// live buffer is the first chunk. Sealing with no log attached
    /// panics.
    ///
    /// In chunked mode [`columnar`](Self::columnar) and friends expose
    /// only the unsealed tail; finish the capture with
    /// [`into_spill`](Self::into_spill).
    pub fn with_chunked(chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let mut t = Tracer::new();
        t.cols.reserve(chunk_rows);
        t.chunked = Some(ChunkState {
            chunk_rows,
            charge: GaugeCharge::new(columnar_capacity_bytes(&t.cols)),
            writer: None,
            spill_error: None,
        });
        t
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

    /// Capture a record.
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
    ) {
        self.cols
            .push_row(rank, node, app, layer, op, start, end, file, offset, bytes);
        if let Some(cs) = &mut self.chunked {
            if self.cols.len() >= cs.chunk_rows {
                // After a spill failure the rows are dropped unsealed.
                if cs.spill_error.is_none() {
                    let w = cs
                        .writer
                        .as_mut()
                        .expect("enable_spill before any chunk seals");
                    let chunk = CompressedChunk::seal_rows(&self.cols, 0..self.cols.len());
                    if let Err(e) = w.append(&chunk, &self.cols.file_paths, &self.cols.app_names) {
                        // `record` returns nothing, so stash the typed
                        // failure for `into_spill`.
                        cs.spill_error = Some(e);
                        cs.writer = None;
                    }
                }
                self.cols.clear_rows();
            }
        }
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

    /// Number of captured records.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Rebuild the intern maps from the path and name tables.
    fn rebuild_index(&mut self) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkedTrace;
    use crate::spill::SpillFaultKind;

    #[test]
    fn interning_is_stable() {
        let mut t = Tracer::new();
        let a = t.file_id("/p/gpfs1/a");
        let b = t.file_id("/p/gpfs1/b");
        assert_ne!(a, b);
        assert_eq!(t.file_id("/p/gpfs1/a"), a);
        assert_eq!(t.file_paths()[a.0 as usize], "/p/gpfs1/a");
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
    fn capture_fills_columns_that_convert_back_to_rows() {
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
        // ... and converting them back reconstructs the exact records.
        let rows = t.columnar().to_records();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].rank, 2);
        assert_eq!(rows[0].file, Some(f));
        assert_eq!(rows[0].bytes, 128);
        assert_eq!(rows[1].op, OpKind::Close);
    }

    #[test]
    fn reserve_presizes_all_columns() {
        let mut t = Tracer::new();
        t.reserve(500);
        assert!(t.cols.rank.capacity() >= 500);
        assert!(t.cols.bytes.capacity() >= 500);
        assert!(t.cols.op.capacity() >= 500);
        assert_eq!(t.len(), 0);
    }

    /// A chunked tracer spilling to a per-process log named `name` in the
    /// temp directory; returns the tracer and the log's path.
    fn spilling(chunk_rows: usize, name: &str) -> (Tracer, std::path::PathBuf) {
        let path = std::env::temp_dir().join(format!("vani-tracer-{}-{name}", std::process::id()));
        let mut t = Tracer::with_chunked(chunk_rows);
        t.enable_spill(&path, SpillFaultPlan::none())
            .expect("spill on");
        (t, path)
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
            let (mut chunked, path) = spilling(chunk_rows, &format!("batch-{chunk_rows}.vsp4"));
            feed(&mut chunked, 10_000);
            let sum = chunked.into_spill().expect("seals");
            assert!(sum.chunks as usize >= 10_000 / chunk_rows);
            let ct = crate::spill::load_spill(&path).expect("loads");
            let _ = std::fs::remove_file(&path);
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
        let (mut t, path) = spilling(256, "bounded.vsp4");
        feed(&mut t, 5_000);
        assert!(t.cols.len() < 256, "live tail only: {}", t.cols.len());
        assert!(
            t.cols.rank.capacity() <= 512,
            "buffer recycled, not regrown"
        );
        let sum = t.into_spill().expect("seals");
        let _ = std::fs::remove_file(&path);
        assert_eq!(sum.chunks as usize - 1, 5_000 / 256, "+1: the tail");
    }

    #[test]
    #[should_panic(expected = "enable_spill before any chunk seals")]
    fn sealing_without_a_spill_log_panics() {
        let mut t = Tracer::with_chunked(16);
        feed(&mut t, 16);
    }

    #[test]
    fn spill_capture_round_trips_through_the_log() {
        let mut mem = Tracer::new();
        feed(&mut mem, 5_000);
        let (mut sp, path) = spilling(256, "live.vsp4");
        feed(&mut sp, 5_000);
        let sum = sp.into_spill().expect("seals");
        assert_eq!(sum.records, 5_000);
        let loaded = crate::spill::load_spill(&path).expect("loads");
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded, ChunkedTrace::from_columnar(mem.columnar(), 256));
    }

    /// A failed append keeps the first error and holds no sealed chunk
    /// afterwards: the live buffer stays at one chunk for the rest of the
    /// run, and the temp file goes with the dropped writer.
    #[test]
    fn failed_spill_append_buffers_nothing_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("vani-tracer-enospc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.vsp4");
        let mut t = Tracer::with_chunked(256);
        let plan = SpillFaultPlan::at_chunk(SpillFaultKind::Enospc, 1, 2);
        t.enable_spill(&path, plan).expect("spill on");
        for block in 0..20 {
            feed(&mut t, 250);
            assert!(t.cols.len() < 256, "block {block} grew the live buffer");
        }
        let err = t.into_spill().expect_err("the third append fails");
        assert!(matches!(err, SpillError::Enospc { .. }), "{err}");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "files left behind: {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebuild_index_restores_interning() {
        let mut t = Tracer::new();
        t.file_id("/x");
        t.file_id("/y");
        t.app_id("app");
        let dir = std::env::temp_dir().join(format!("vani-tracer-index-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("interned.vsp3");
        crate::spill::spill_columnar(t.columnar(), 64, &path, SpillFaultPlan::none())
            .expect("spills");
        let loaded = crate::spill::load_spill(&path).expect("loads");
        let _ = std::fs::remove_dir_all(&dir);
        let mut back = Tracer::from_columnar(loaded.to_columnar().expect("decodes"));
        assert_eq!(back.file_id("/x"), FileId(0));
        assert_eq!(back.file_id("/y"), FileId(1));
        assert_eq!(back.file_id("/z"), FileId(2));
        assert_eq!(back.app_id("app"), AppId(0));
    }
}
