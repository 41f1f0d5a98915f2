//! Chunked trace capture: fixed-size row groups sealed and compressed as
//! the simulation emits records.
//!
//! The batch pipeline materializes a whole [`ColumnarTrace`] before any
//! analysis runs, so peak memory scales with trace length. The chunked
//! pipeline bounds it instead: records accumulate in one live column buffer
//! of [`DEFAULT_CHUNK_ROWS`] rows; when it fills, the buffer is *sealed* —
//! every column runs through [`crate::codec`] (delta for timestamps and
//! offsets, RLE for low-cardinality columns, raw as the floor) and the
//! compressed bytes join the chunk list while the buffer is recycled for
//! the next chunk. A streaming analyzer then decodes one chunk at a time
//! into a second recycled buffer, folds it, and moves on. At any instant at
//! most [`RING_SLOTS`] uncompressed chunk buffers exist (the capture slot
//! and the decode slot) regardless of how many records the run emits.
//!
//! Sealing encodes each column straight from its native-width slice, so
//! a slot is just its ten column vectors: there is no codec scratch. Every
//! uncompressed chunk buffer is charged against the process-wide
//! [`trace_gauge`], and [`resident_bound`] states the contract: peak gauge
//! bytes never exceed the per-slot budget times the slot count.
//! The root `streaming_ring_bound` test asserts it, in memory and off disk.
//!
//! Each sealed chunk carries a [`ChunkMeta`] — layer presence, id-space
//! bounds and per-layer file sets, folded column by column at seal time —
//! so the analyzer gets its global dims and interface selection by merging
//! metas instead of decoding every chunk twice. An in-memory trace gets
//! the same statistics from one [`ChunkMeta::of_rows`] over all its rows.

use crate::codec::{self, CodecError};
use crate::columnar::{ColumnarTrace, NO_FILE};
use crate::record::{Layer, OpKind};
use vani_rt::stats::PeakGauge;

/// Rows per sealed chunk unless a caller picks otherwise. 64 Ki rows is
/// ~3 MiB of uncompressed columns — large enough to amortize per-chunk
/// costs and feed every parallel worker, small enough that two live buffers
/// stay cache- and RAM-friendly.
pub const DEFAULT_CHUNK_ROWS: usize = 65536;

/// Uncompressed chunk buffers live at once: the capture slot and the
/// decode slot.
pub const RING_SLOTS: usize = 2;

/// Upper bound on peak [`trace_gauge`] bytes for a pipeline running with
/// `slots` live chunk buffers of `chunk_rows` rows. Each slot charges its
/// ten column vectors (48 bytes/row) and nothing else, since sealing needs
/// no codec scratch; the budget stays at 64 bytes/row for headroom.
pub fn resident_bound(chunk_rows: usize, slots: usize) -> u64 {
    (slots as u64) * (chunk_rows as u64) * 64
}

/// The process-wide gauge tracking live uncompressed trace bytes. Capture
/// and decode buffers charge it on allocation and release it on drop;
/// benches `reset()` it around a measurement and assert the peak against
/// [`resident_bound`].
pub fn trace_gauge() -> &'static PeakGauge {
    static GAUGE: PeakGauge = PeakGauge::new();
    &GAUGE
}

/// Capacity-derived bytes of a trace's ten column vectors (intern tables
/// excluded — they are id → name metadata, not per-record storage).
pub fn columnar_capacity_bytes(c: &ColumnarTrace) -> u64 {
    (c.rank.capacity() * 4
        + c.node.capacity() * 4
        + c.app.capacity() * 2
        + c.layer.capacity()
        + c.op.capacity()
        + c.start.capacity() * 8
        + c.end.capacity() * 8
        + c.file.capacity() * 4
        + c.offset.capacity() * 8
        + c.bytes.capacity() * 8) as u64
}

/// RAII charge against [`trace_gauge`]: add on construction, release on
/// drop, [`resync`](Self::resync) after a tracked buffer grows.
#[derive(Debug, Default)]
pub struct GaugeCharge {
    bytes: u64,
}

impl GaugeCharge {
    /// Charge `bytes` now; released when the guard drops.
    pub fn new(bytes: u64) -> GaugeCharge {
        trace_gauge().add(bytes);
        GaugeCharge { bytes }
    }

    /// Re-state the charge to `bytes` (after capacity growth or shrink).
    pub fn resync(&mut self, bytes: u64) {
        if bytes > self.bytes {
            trace_gauge().add(bytes - self.bytes);
        } else {
            trace_gauge().sub(self.bytes - bytes);
        }
        self.bytes = bytes;
    }
}

impl Drop for GaugeCharge {
    fn drop(&mut self) {
        trace_gauge().sub(self.bytes);
    }
}

/// The ten per-record columns in on-disk order, each with its native width
/// in bytes. Spill format v4 stores the columns in this order.
pub const COLUMN_WIDTHS: [(&str, u8); 10] = [
    ("rank", 4),
    ("node", 4),
    ("app", 2),
    ("layer", 1),
    ("op", 1),
    ("start", 8),
    ("end", 8),
    ("file", 4),
    ("offset", 8),
    ("bytes", 8),
];

/// A compact bitset over small dense ids: file ids within a chunk, and the
/// analyzer's rank, app and file sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWords {
    words: Vec<u64>,
}

impl BitWords {
    /// Insert `id`.
    #[inline]
    pub fn insert(&mut self, id: usize) {
        let w = id / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (id % 64);
    }

    /// Union `other` into `self`.
    pub fn merge(&mut self, other: &BitWords) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Whether no id is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of ids present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Set ids in ascending order: one `trailing_zeros` step per set bit,
    /// so sparse words cost nothing per clear bit.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            std::iter::successors((w != 0).then_some(w), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |bits| wi * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// The backing words (little-bit-endian), for byte serialization.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from backing words (the serialization inverse).
    pub(crate) fn from_words(words: Vec<u64>) -> BitWords {
        BitWords { words }
    }
}

/// Per-chunk statistics folded at seal time: the layer presence, id-space
/// bounds and per-layer file sets the analyzer sizes its accumulators and
/// picks its interface selection from. Merging the metas of all chunks
/// gives the statistics of the whole trace without a decode pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkMeta {
    /// Records in the chunk.
    pub rows: usize,
    /// Layer-presence table indexed by `Layer::code()`.
    pub present: [bool; 6],
    /// Files touched by I/O ops at each layer (interface-selection input).
    pub layer_files: [BitWords; 6],
    /// `max(rank) + 1` over the chunk (0 when empty).
    pub n_ranks: usize,
    /// `max(app) + 1` over the chunk.
    pub n_apps: usize,
    /// `max(file) + 1` over records that carry a file.
    pub n_files: usize,
}

impl ChunkMeta {
    /// Fold one record: the row-at-a-time oracle that
    /// [`of_rows`](Self::of_rows) is tested against.
    #[cfg(test)]
    pub(crate) fn absorb(&mut self, rank: u32, app: u16, layer: Layer, op: OpKind, file: u32) {
        self.rows += 1;
        let l = layer.code() as usize;
        self.present[l] = true;
        self.n_ranks = self.n_ranks.max(rank as usize + 1);
        self.n_apps = self.n_apps.max(app as usize + 1);
        if file != NO_FILE {
            self.n_files = self.n_files.max(file as usize + 1);
            if op.is_io() {
                self.layer_files[l].insert(file as usize);
            }
        }
    }

    /// The statistics of rows `range` of `c`, folded column by column:
    /// equal to absorbing each row in turn. Sealing, the decode-side
    /// recomputes (loaders, deep verification) and the analyzer's
    /// in-memory entry point all use it.
    pub fn of_rows(c: &ColumnarTrace, range: std::ops::Range<usize>) -> ChunkMeta {
        let mut meta = ChunkMeta {
            rows: range.len(),
            n_ranks: c.rank[range.clone()]
                .iter()
                .max()
                .map_or(0, |&v| v as usize + 1),
            n_apps: c.app[range.clone()]
                .iter()
                .max()
                .map_or(0, |&v| v as usize + 1),
            // `NO_FILE` is `u32::MAX`, so `file + 1` wraps it to zero.
            n_files: c.file[range.clone()]
                .iter()
                .map(|&f| f.wrapping_add(1))
                .max()
                .unwrap_or(0) as usize,
            ..ChunkMeta::default()
        };
        let mut words: [Vec<u64>; 6] = Default::default();
        let n_words = meta.n_files.div_ceil(64);
        let rows = c.layer[range.clone()]
            .iter()
            .zip(&c.op[range.clone()])
            .zip(&c.file[range]);
        for ((&layer, &op), &file) in rows {
            let l = layer.code() as usize;
            meta.present[l] = true;
            if file != NO_FILE && op.is_io() {
                let w = &mut words[l];
                if w.is_empty() {
                    w.resize(n_words, 0);
                }
                w[file as usize / 64] |= 1u64 << (file % 64);
            }
        }
        for (bits, mut w) in meta.layer_files.iter_mut().zip(words) {
            // `BitWords::insert` grows to the highest set word only.
            while w.last() == Some(&0) {
                w.pop();
            }
            *bits = BitWords::from_words(w);
        }
        meta
    }

    /// Merge another chunk's statistics (bitwise OR / max — associative and
    /// commutative, so merge order never matters).
    pub(crate) fn merge(&mut self, other: &ChunkMeta) {
        self.rows += other.rows;
        for l in 0..6 {
            self.present[l] |= other.present[l];
            self.layer_files[l].merge(&other.layer_files[l]);
        }
        self.n_ranks = self.n_ranks.max(other.n_ranks);
        self.n_apps = self.n_apps.max(other.n_apps);
        self.n_files = self.n_files.max(other.n_files);
    }
}

/// One sealed, compressed row group: ten independently encoded columns plus
/// the seal-time statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedChunk {
    /// Records in the chunk.
    pub rows: usize,
    /// Seal-time statistics (see [`ChunkMeta`]).
    pub meta: ChunkMeta,
    /// Encoded columns in [`COLUMN_WIDTHS`] order.
    cols: [Vec<u8>; 10],
}

impl CompressedChunk {
    /// Seal rows `range` of `c` into a compressed chunk. `_scratch` is
    /// unused: sealing encodes each column from its native-width slice and
    /// needs no `u64` staging vector any more. The parameter stays so
    /// callers written against the staging design still compile.
    pub fn seal(
        c: &ColumnarTrace,
        range: std::ops::Range<usize>,
        _scratch: &mut Vec<u64>,
    ) -> CompressedChunk {
        CompressedChunk::seal_rows(c, range)
    }

    /// [`seal`](Self::seal) without the unused scratch parameter.
    pub(crate) fn seal_rows(c: &ColumnarTrace, range: std::ops::Range<usize>) -> CompressedChunk {
        let rows = range.len();
        let meta = ChunkMeta::of_rows(c, range.clone());
        fn encode<T: codec::ColumnValue>(col: &[T], idx: usize, name: &str) -> Vec<u8> {
            debug_assert_eq!(COLUMN_WIDTHS[idx], (name, T::WIDTH), "column order");
            codec::encode_values(col)
        }
        macro_rules! enc {
            ($idx:expr, $col:ident) => {
                encode(&c.$col[range.clone()], $idx, stringify!($col))
            };
        }
        let cols = [
            enc!(0, rank),
            enc!(1, node),
            enc!(2, app),
            enc!(3, layer),
            enc!(4, op),
            enc!(5, start),
            enc!(6, end),
            enc!(7, file),
            enc!(8, offset),
            enc!(9, bytes),
        ];
        CompressedChunk { rows, meta, cols }
    }

    /// Decode the chunk, appending its rows to `out` (usually a recycled
    /// buffer cleared by the caller). Each column decodes straight into its
    /// native-width vector — no `u64` staging pass. With `decode_node`
    /// false the `node` column is skipped — nothing in the analyzer reads
    /// it, so the streaming path saves a tenth of the decode work
    /// (`out.node` is left empty; don't `validate` such a buffer).
    pub fn decode_into(
        &self,
        out: &mut ColumnarTrace,
        decode_node: bool,
    ) -> Result<(), CodecError> {
        let n = self.rows;
        // Each call monomorphizes `decode_column_each` for its closure, so
        // the per-value emit inlines into the codec's decode loops.
        macro_rules! dec {
            ($idx:expr, $emit:expr) => {
                codec::decode_column_each(&self.cols[$idx], n, COLUMN_WIDTHS[$idx].1, $emit)
            };
        }
        out.rank.reserve(n);
        dec!(0, |v| out.rank.push(v as u32))?;
        if decode_node {
            out.node.reserve(n);
            dec!(1, |v| out.node.push(v as u32))?;
        }
        out.app.reserve(n);
        dec!(2, |v| out.app.push(v as u16))?;
        // Enum columns: remember an out-of-range code (impossible for
        // chunks we sealed, possible for loaded bytes) and fail after the
        // scan — `out` may then hold a partial prefix, like the codec.
        let mut bad_code: Option<u64> = None;
        out.layer.reserve(n);
        dec!(3, |v| match Layer::from_code(v as u8) {
            Some(l) => out.layer.push(l),
            None => bad_code = bad_code.or(Some(v)),
        })?;
        out.op.reserve(n);
        dec!(4, |v| match OpKind::from_code(v as u8) {
            Some(o) => out.op.push(o),
            None => bad_code = bad_code.or(Some(v)),
        })?;
        if let Some(value) = bad_code {
            return Err(CodecError::ValueTooWide { value, width: 1 });
        }
        out.start.reserve(n);
        dec!(5, |v| out.start.push(v))?;
        out.end.reserve(n);
        dec!(6, |v| out.end.push(v))?;
        out.file.reserve(n);
        dec!(7, |v| out.file.push(v as u32))?;
        out.offset.reserve(n);
        dec!(8, |v| out.offset.push(v))?;
        out.bytes.reserve(n);
        dec!(9, |v| out.bytes.push(v))?;
        Ok(())
    }

    /// Total encoded bytes across the ten columns.
    pub fn encoded_bytes(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// The encoded bytes of column `idx` (in [`COLUMN_WIDTHS`] order) —
    /// the spill log stores these verbatim.
    pub fn column(&self, idx: usize) -> &[u8] {
        &self.cols[idx]
    }

    /// Rebuild a chunk from its encoded columns and a persisted seal-time
    /// meta without a decode pass. The spill reader uses this for every
    /// chunk frame it hands out. The meta is only as trusted as the open
    /// that read it: a salvaged source or `load_spill` decoded the chunk
    /// and checked the meta against a recompute, while a strict source
    /// checked frames and meta bounds and leaves the full check to the
    /// consumer's decode.
    pub(crate) fn from_parts(rows: usize, meta: ChunkMeta, cols: [Vec<u8>; 10]) -> CompressedChunk {
        CompressedChunk { rows, meta, cols }
    }
}

/// A whole trace as a list of sealed chunks plus the intern tables — the
/// streaming analyzer's input. Holds only compressed bytes; decoding is the
/// consumer's business, one chunk at a time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkedTrace {
    /// Rows per full chunk (the last chunk may be short).
    pub chunk_rows: usize,
    /// The sealed chunks, in capture order.
    pub chunks: Vec<CompressedChunk>,
    /// File id → path.
    pub file_paths: Vec<String>,
    /// App id → name.
    pub app_names: Vec<String>,
}

impl ChunkedTrace {
    /// Seal an existing columnar trace into `chunk_rows`-row chunks. This
    /// is the post-hoc entry (fleet jobs, benches); live capture goes
    /// through `Tracer::with_chunked` into a spill log.
    pub fn from_columnar(c: &ColumnarTrace, chunk_rows: usize) -> ChunkedTrace {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let mut chunks = Vec::with_capacity(c.len().div_ceil(chunk_rows));
        let mut at = 0usize;
        while at < c.len() {
            let end = (at + chunk_rows).min(c.len());
            chunks.push(CompressedChunk::seal_rows(c, at..end));
            at = end;
        }
        ChunkedTrace {
            chunk_rows,
            chunks,
            file_paths: c.file_paths.clone(),
            app_names: c.app_names.clone(),
        }
    }

    /// Total records across all chunks.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|ch| ch.rows).sum()
    }

    /// Total compressed bytes across all chunks' columns.
    pub fn compressed_bytes(&self) -> usize {
        self.chunks.iter().map(CompressedChunk::encoded_bytes).sum()
    }

    /// Merge of every chunk's seal-time statistics: the statistics of the
    /// whole trace, without a decode pass.
    pub(crate) fn merged_meta(&self) -> ChunkMeta {
        let mut meta = ChunkMeta::default();
        for ch in &self.chunks {
            meta.merge(&ch.meta);
        }
        meta
    }

    /// Decode everything back into one materialized trace (tests and the
    /// salvage path; defeats the memory bound by construction).
    pub fn to_columnar(&self) -> Result<ColumnarTrace, CodecError> {
        let mut out = ColumnarTrace::with_capacity(self.len());
        for ch in &self.chunks {
            ch.decode_into(&mut out, true)?;
        }
        out.file_paths = self.file_paths.clone();
        out.app_names = self.app_names.clone();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AppId, FileId};
    use sim_core::SimTime;

    fn synthetic(n: usize) -> ColumnarTrace {
        let mut c = ColumnarTrace::with_capacity(n);
        for i in 0..n as u64 {
            c.push_row(
                (i % 16) as u32,
                (i % 4) as u32,
                AppId((i % 3) as u16),
                if i % 5 == 0 {
                    Layer::Stdio
                } else {
                    Layer::Posix
                },
                if i % 7 == 0 {
                    OpKind::Open
                } else {
                    OpKind::Write
                },
                SimTime(i * 100),
                SimTime(i * 100 + 50),
                if i % 11 == 0 {
                    None
                } else {
                    Some(FileId((i % 9) as u32))
                },
                i * 4096,
                if i % 7 == 0 { 0 } else { 1 << 16 },
            );
        }
        c.file_paths = (0..9).map(|i| format!("/f{i}")).collect();
        c.app_names = vec!["a".into(), "b".into(), "c".into()];
        c
    }

    #[test]
    fn chunked_round_trip_is_identity() {
        for n in [0usize, 1, 63, 64, 65, 1000] {
            let c = synthetic(n);
            for chunk_rows in [1usize, 64, 4096] {
                let ct = ChunkedTrace::from_columnar(&c, chunk_rows);
                assert_eq!(ct.len(), n);
                assert_eq!(ct.chunks.len(), n.div_ceil(chunk_rows));
                let back = ct.to_columnar().expect("decodes");
                assert_eq!(back, c, "n={n} chunk_rows={chunk_rows}");
            }
        }
    }

    #[test]
    fn merged_meta_matches_whole_trace_scan() {
        let c = synthetic(777);
        let ct = ChunkedTrace::from_columnar(&c, 64);
        let merged = ct.merged_meta();
        let mut whole = ChunkMeta::default();
        for i in 0..c.len() {
            whole.absorb(c.rank[i], c.app[i], c.layer[i], c.op[i], c.file[i]);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.n_ranks, 16);
        assert_eq!(merged.n_apps, 3);
        assert_eq!(merged.n_files, 9);
        assert!(merged.present[Layer::Posix.code() as usize]);
        assert!(merged.present[Layer::Stdio.code() as usize]);
        assert!(!merged.present[Layer::MpiIo.code() as usize]);
    }

    #[test]
    fn of_rows_equals_absorbing_each_row() {
        let c = synthetic(1000);
        for range in [0..0, 0..1, 3..70, 64..128, 0..1000, 999..1000] {
            let mut want = ChunkMeta::default();
            for i in range.clone() {
                want.absorb(c.rank[i], c.app[i], c.layer[i], c.op[i], c.file[i]);
            }
            assert_eq!(ChunkMeta::of_rows(&c, range.clone()), want, "{range:?}");
        }
        // Rows without a file, and a file id in a later bitset word.
        let mut c = ColumnarTrace::default();
        for (rank, app, layer, op, file) in [
            (0, 0, Layer::Posix, OpKind::Open, None),
            (7, 2, Layer::MpiIo, OpKind::Compute, Some(FileId(200))),
            (1, 1, Layer::Stdio, OpKind::Read, Some(FileId(130))),
        ] {
            let (t0, t1) = (SimTime(0), SimTime(1));
            c.push_row(rank, 0, AppId(app), layer, op, t0, t1, file, 0, 8);
        }
        let mut want = ChunkMeta::default();
        for i in 0..c.len() {
            want.absorb(c.rank[i], c.app[i], c.layer[i], c.op[i], c.file[i]);
        }
        assert_eq!(ChunkMeta::of_rows(&c, 0..c.len()), want);
    }

    #[test]
    fn compression_beats_raw_on_regular_traces() {
        let c = synthetic(50_000);
        let ct = ChunkedTrace::from_columnar(&c, DEFAULT_CHUNK_ROWS);
        let raw = c.len() * 48;
        let packed = ct.compressed_bytes();
        assert!(packed * 4 < raw, "expected >4x: {packed} vs {raw}");
    }

    #[test]
    fn corrupt_column_fails_decode() {
        let c = synthetic(100);
        let ct = ChunkedTrace::from_columnar(&c, 128);
        let ch = &ct.chunks[0];
        // Flip the op column's tag to an invalid scheme.
        let mut cols: [Vec<u8>; 10] = std::array::from_fn(|i| ch.column(i).to_vec());
        cols[4][0] = 99;
        let bad = CompressedChunk::from_parts(ch.rows, ch.meta.clone(), cols);
        let mut out = ColumnarTrace::with_capacity(ch.rows);
        assert!(bad.decode_into(&mut out, false).is_err());
    }

    #[test]
    fn bitwords_set_semantics() {
        let mut b = BitWords::default();
        for id in [0usize, 1, 63, 64, 129, 129] {
            b.insert(id);
        }
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 1, 63, 64, 129]);
        assert_eq!(b.count(), 5);
        assert!(!b.is_empty());
        assert!(BitWords::default().is_empty());
        assert!(BitWords::from_words(vec![0, 0]).is_empty());
        assert_eq!(BitWords::from_words(vec![u64::MAX]).iter().count(), 64);
        let mut other = BitWords::default();
        other.insert(5);
        other.insert(200);
        b.merge(&other);
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            vec![0, 1, 5, 63, 64, 129, 200]
        );
    }

    #[test]
    fn gauge_charge_tracks_capacity() {
        let g = trace_gauge();
        let before = g.current();
        {
            let mut charge = GaugeCharge::new(1000);
            assert_eq!(g.current(), before + 1000);
            charge.resync(400);
            assert_eq!(g.current(), before + 400);
            charge.resync(2000);
            assert_eq!(g.current(), before + 2000);
        }
        assert_eq!(g.current(), before);
    }

    #[test]
    fn resident_bound_scales_with_slots_and_rows() {
        assert_eq!(
            resident_bound(DEFAULT_CHUNK_ROWS, RING_SLOTS),
            2 * 65536 * 64
        );
        assert!(resident_bound(1024, 2) < resident_bound(65536, 2));
    }
}
