//! Crash-consistent spill-to-disk trace store: an append-only segment log
//! that sealed [`CompressedChunk`]s stream into as they leave the capture
//! ring, so traces larger than RAM survive on disk and the streaming
//! analyzer folds chunks straight off the file.
//!
//! ## On-disk format (persistence v3)
//!
//! A spill file opens with an 19-byte preamble — the magic
//! [`SPILL_MAGIC`] (`vanispill3\n`) followed by `chunk_rows` as a `u64`
//! little-endian — and then a sequence of self-describing frames:
//!
//! ```text
//! [kind: u8][payload_len: u64 LE][payload][fnv1a64(payload): u64 LE]
//! ```
//!
//! Frame kinds:
//!
//! * `INTERN` (2) — a delta of newly interned file paths and app names,
//!   always appended *before* the first chunk that may reference them,
//! * `CHUNK` (1) — one sealed chunk: row count, the seal-time
//!   [`ChunkMeta`] (so recovery never decodes just to learn dims), and the
//!   ten encoded columns,
//! * `COMMIT` (3) — a durability marker carrying the running tallies
//!   (chunks, records, interned files, interned apps). The writer
//!   `fsync`s after every `COMMIT`: a commit frame on disk means
//!   everything before it is durable. This is the fsync-point model.
//! * `FOOTER` (4) — final tallies; its presence marks the log *sealed*.
//!   After the footer fsync the `*.tmp` file is renamed to its final
//!   name, so a file without the `.tmp` suffix is always sealed — unless
//!   a latent fault (bit rot) corrupted it afterwards, which the
//!   checksummed frames detect on open.
//!
//! ## Recovery invariants
//!
//! [`fsck`] walks frames from the front and stops at the first anomaly
//! (torn tail, checksum mismatch, malformed payload, codec failure or a
//! persisted meta that disagrees with a decode). The recovered trace is
//! the *longest committed prefix*: the chunks counted by the last valid
//! `COMMIT` (or the `FOOTER`, which acts as the final commit). Everything
//! after that point — readable-but-uncommitted chunks included — is
//! quarantined with a typed [`QuarantineReason`], never silently kept,
//! because without a commit marker there is no fsync ordering guarantee
//! that those bytes are the bytes the tracer wrote. Intern tables are
//! truncated to the adopted commit's tallies for the same reason.
//!
//! ## Fault injection
//!
//! [`SpillFaultPlan`] arms one deterministic, seeded fault in the writer:
//! torn final write, partial append, ENOSPC, latent bit-flip, or a crash
//! between a chunk and its commit. Crash-class faults disarm the RAII
//! temp-file guard (a real `kill -9` runs no destructors) and return
//! [`SpillError::Injected`] carrying the path of the mutilated file so
//! the torture suite can hand it to [`fsck`].

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::chunk::{
    columnar_capacity_bytes, BitWords, ChunkMeta, ChunkedTrace, CompressedChunk, GaugeCharge,
};
use crate::columnar::ColumnarTrace;
use crate::persist::TraceCompleteness;

/// First bytes of every version-3 spill file; the loaders in
/// [`crate::persist`] sniff this to route binary spill logs away from the
/// UTF-8 JSON paths of v1/v2.
pub const SPILL_MAGIC: &[u8; 11] = b"vanispill3\n";

const FRAME_CHUNK: u8 = 1;
const FRAME_INTERN: u8 = 2;
const FRAME_COMMIT: u8 = 3;
const FRAME_FOOTER: u8 = 4;

/// Frame head bytes: kind tag plus payload length.
const FRAME_HEAD: u64 = 9;
/// Trailing checksum bytes per frame.
const FRAME_SUM: u64 = 8;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 scramble — turns a small seed into well-mixed bits for
/// picking fault targets and tear offsets deterministically.
fn scramble(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Typed failures of the spill store — every corruption, crash, and
/// resource fault surfaces as one of these, never a panic.
#[derive(Debug)]
pub enum SpillError {
    /// The file could not be created, read, written, or renamed.
    Io(io::Error),
    /// The file does not start with [`SPILL_MAGIC`] or has a nonsense
    /// preamble — not a v3 spill log at all.
    NotSpill {
        /// What the preamble check saw.
        detail: String,
    },
    /// A frame ran off the end of the file (torn write / truncation).
    Torn {
        /// Byte offset where the torn frame starts.
        offset: u64,
        /// What was expected versus what remained.
        detail: String,
    },
    /// A frame's payload does not match its stored FNV-1a checksum.
    BadChecksum {
        /// Frame index from the front of the log.
        frame: u64,
        /// Byte offset of the frame.
        offset: u64,
    },
    /// A frame verified but its payload did not parse.
    Malformed {
        /// Frame index from the front of the log.
        frame: u64,
        /// Byte offset of the frame.
        offset: u64,
        /// What failed to parse.
        detail: String,
    },
    /// A chunk's columns verified and parsed but failed to decode, or the
    /// decode disagreed with the persisted seal-time meta.
    Codec {
        /// Chunk index (in capture order).
        chunk: u64,
        /// The codec's complaint.
        detail: String,
    },
    /// Strict open: readable chunks exist past the last commit marker.
    Uncommitted {
        /// Chunk frames present in the log.
        chunks: u64,
        /// Chunks covered by the last valid commit.
        committed: u64,
    },
    /// Strict open: the log has no footer (writer never finished).
    Unsealed {
        /// Chunks covered by the last valid commit.
        committed_chunks: u64,
    },
    /// The simulated device filled up mid-append.
    Enospc {
        /// Bytes written when the device filled.
        at_bytes: u64,
    },
    /// An armed [`SpillFaultPlan`] fired a crash-class fault; the
    /// mutilated file survives at `path` for recovery.
    Injected {
        /// Which fault fired.
        fault: SpillFaultKind,
        /// The surviving (torn / partial) file.
        path: PathBuf,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill I/O error: {e}"),
            SpillError::NotSpill { detail } => {
                write!(f, "not a v3 spill log: {detail}")
            }
            SpillError::Torn { offset, detail } => {
                write!(f, "torn frame at byte {offset}: {detail}")
            }
            SpillError::BadChecksum { frame, offset } => {
                write!(f, "frame {frame} at byte {offset}: checksum mismatch")
            }
            SpillError::Malformed {
                frame,
                offset,
                detail,
            } => {
                write!(
                    f,
                    "frame {frame} at byte {offset}: malformed payload: {detail}"
                )
            }
            SpillError::Codec { chunk, detail } => {
                write!(f, "chunk {chunk}: decode failed: {detail}")
            }
            SpillError::Uncommitted { chunks, committed } => {
                write!(
                    f,
                    "strict open: {chunks} chunk(s) present but only {committed} committed"
                )
            }
            SpillError::Unsealed { committed_chunks } => {
                write!(
                    f,
                    "strict open: log unsealed (no footer; {committed_chunks} chunk(s) committed)"
                )
            }
            SpillError::Enospc { at_bytes } => {
                write!(f, "no space left on device after {at_bytes} bytes")
            }
            SpillError::Injected { fault, path } => {
                write!(
                    f,
                    "injected fault {fault} fired; surviving file at {}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for SpillError {}

impl From<io::Error> for SpillError {
    fn from(e: io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// The fault classes an armed [`SpillFaultPlan`] can fire in the writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillFaultKind {
    /// The footer write tears partway through, then the process dies:
    /// every chunk committed, log unsealed.
    TornFinalWrite,
    /// A chunk frame's bytes are cut short mid-write, then the process
    /// dies: the torn chunk (and everything after) is lost.
    PartialAppend,
    /// The device fills at the target append; the writer surfaces a typed
    /// error and the RAII guard removes the temp file.
    Enospc,
    /// One payload byte flips *after* checksumming — the write completes
    /// and the file seals normally, but the corruption is latent until a
    /// reader verifies the frame.
    BitFlip,
    /// The process dies after appending the target chunk but before its
    /// commit marker: the chunk's bytes are on disk but not durable.
    CrashBeforeCommit,
}

impl SpillFaultKind {
    /// Stable lowercase name for diagnostics and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SpillFaultKind::TornFinalWrite => "torn-final-write",
            SpillFaultKind::PartialAppend => "partial-append",
            SpillFaultKind::Enospc => "enospc",
            SpillFaultKind::BitFlip => "bit-flip",
            SpillFaultKind::CrashBeforeCommit => "crash-before-commit",
        }
    }

    /// All five fault classes, for sweep-style torture loops.
    pub fn all() -> [SpillFaultKind; 5] {
        [
            SpillFaultKind::TornFinalWrite,
            SpillFaultKind::PartialAppend,
            SpillFaultKind::Enospc,
            SpillFaultKind::BitFlip,
            SpillFaultKind::CrashBeforeCommit,
        ]
    }
}

impl fmt::Display for SpillFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic, seeded plan for at most one injected fault per spill
/// file. The target chunk index and every tear/flip offset derive from
/// the seed, so a torture run replays bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillFaultPlan {
    armed: Option<(SpillFaultKind, u64, u64)>,
}

impl SpillFaultPlan {
    /// No fault: the writer behaves like a healthy device.
    pub fn none() -> SpillFaultPlan {
        SpillFaultPlan { armed: None }
    }

    /// Arm `kind` with a seed-derived target chunk in `0..chunks` (the
    /// caller's estimate of how many chunks the capture will seal; a
    /// target past the actual count simply never fires).
    pub fn seeded(kind: SpillFaultKind, seed: u64, chunks: u64) -> SpillFaultPlan {
        let target = if chunks == 0 {
            0
        } else {
            scramble(seed) % chunks
        };
        SpillFaultPlan {
            armed: Some((kind, seed, target)),
        }
    }

    /// Arm `kind` at an explicit target chunk index.
    pub fn at_chunk(kind: SpillFaultKind, seed: u64, target: u64) -> SpillFaultPlan {
        SpillFaultPlan {
            armed: Some((kind, seed, target)),
        }
    }

    /// Whether any fault is armed.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// The armed fault class, if any.
    pub fn kind(&self) -> Option<SpillFaultKind> {
        self.armed.map(|(k, _, _)| k)
    }

    fn fires_at(&self, kind: SpillFaultKind, chunk: u64) -> Option<u64> {
        match self.armed {
            Some((k, seed, target)) if k == kind && target == chunk => Some(seed),
            _ => None,
        }
    }
}

/// What a completed spill wrote, as reported by [`SpillWriter::finish`].
#[derive(Debug, Clone)]
pub struct SpillSummary {
    /// The sealed file's final path.
    pub path: PathBuf,
    /// Chunks appended.
    pub chunks: u64,
    /// Records appended.
    pub records: u64,
    /// Total file bytes.
    pub bytes: u64,
    /// fsync calls issued (one per commit, one for the footer).
    pub fsync_points: u64,
}

/// Append-only writer for one spill log. Bytes go to `<path>.tmp`; only
/// [`finish`](Self::finish) renames the temp to its final name, and the
/// RAII drop guard removes the temp on every panic or typed-error path —
/// crash-class injected faults excepted, because a killed process runs no
/// destructors either.
#[derive(Debug)]
pub struct SpillWriter {
    file: Option<File>,
    final_path: PathBuf,
    tmp_path: PathBuf,
    guard_armed: bool,
    chunk_rows: usize,
    written: u64,
    chunks_appended: u64,
    records_appended: u64,
    files_persisted: usize,
    apps_persisted: usize,
    fsync_points: u64,
    /// The frame being assembled: head, payload, then checksum, built in
    /// place and reused across frames.
    frame: Vec<u8>,
    charge: GaugeCharge,
    fault: SpillFaultPlan,
}

fn tmp_path_for(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".tmp");
    PathBuf::from(s)
}

impl SpillWriter {
    /// Open `<path>.tmp` for appending and write the v3 preamble.
    pub fn create(
        path: &Path,
        chunk_rows: usize,
        fault: SpillFaultPlan,
    ) -> Result<SpillWriter, SpillError> {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let tmp_path = tmp_path_for(path);
        let mut file = File::create(&tmp_path)?;
        let mut w = SpillWriter {
            file: None,
            final_path: path.to_path_buf(),
            tmp_path,
            guard_armed: true,
            chunk_rows,
            written: 0,
            chunks_appended: 0,
            records_appended: 0,
            files_persisted: 0,
            apps_persisted: 0,
            fsync_points: 0,
            frame: Vec::new(),
            charge: GaugeCharge::default(),
            fault,
        };
        if let Err(e) = file
            .write_all(SPILL_MAGIC)
            .and_then(|()| file.write_all(&(chunk_rows as u64).to_le_bytes()))
        {
            // `w` drops here and the guard removes the temp.
            return Err(e.into());
        }
        w.written = SPILL_MAGIC.len() as u64 + 8;
        w.file = Some(file);
        Ok(w)
    }

    /// Start a frame of `kind` in the reused frame buffer: the head with a
    /// placeholder length; the caller appends the payload after it.
    fn begin_frame(&mut self, kind: u8) {
        self.frame.clear();
        self.frame.push(kind);
        self.frame.extend_from_slice(&[0; FRAME_HEAD as usize - 1]);
    }

    /// Finish and append the frame begun by [`begin_frame`](Self::begin_frame):
    /// patch its length, checksum the payload, append the checksum. `flip`
    /// corrupts one payload byte after checksumming (latent fault); `cut`
    /// writes only a prefix of the frame (torn write).
    fn write_frame(&mut self, flip: Option<usize>, cut: Option<usize>) -> Result<(), SpillError> {
        let head = FRAME_HEAD as usize;
        let len = self.frame.len() - head;
        self.frame[1..head].copy_from_slice(&(len as u64).to_le_bytes());
        let sum = fnv1a(&self.frame[head..]);
        if let Some(i) = flip {
            if len > 0 {
                self.frame[head + i % len] ^= 0x40;
            }
        }
        self.frame.extend_from_slice(&sum.to_le_bytes());
        self.charge.resync(self.frame.capacity() as u64);
        let n = cut.unwrap_or(self.frame.len()).min(self.frame.len());
        self.file
            .as_mut()
            .expect("writer is open")
            .write_all(&self.frame[..n])?;
        self.written += n as u64;
        Ok(())
    }

    fn commit(&mut self) -> Result<(), SpillError> {
        self.begin_frame(FRAME_COMMIT);
        for v in [
            self.chunks_appended,
            self.records_appended,
            self.files_persisted as u64,
            self.apps_persisted as u64,
        ] {
            self.frame.extend_from_slice(&v.to_le_bytes());
        }
        self.write_frame(None, None)?;
        self.file.as_ref().expect("writer is open").sync_data()?;
        self.fsync_points += 1;
        Ok(())
    }

    /// Persist any intern-table entries past what the log already holds.
    /// Called by [`append`](Self::append) automatically; callers spilling
    /// a trace that might seal zero chunks call it once up front so the
    /// tables survive even an empty capture.
    pub fn intern(
        &mut self,
        file_paths: &[String],
        app_names: &[String],
    ) -> Result<(), SpillError> {
        if file_paths.len() <= self.files_persisted && app_names.len() <= self.apps_persisted {
            return Ok(());
        }
        self.begin_frame(FRAME_INTERN);
        let stage_delta = |frame: &mut Vec<u8>, all: &[String], from: usize| {
            frame.extend_from_slice(&((all.len() - from) as u64).to_le_bytes());
            for s in &all[from..] {
                frame.extend_from_slice(&(s.len() as u64).to_le_bytes());
                frame.extend_from_slice(s.as_bytes());
            }
        };
        stage_delta(&mut self.frame, file_paths, self.files_persisted);
        stage_delta(&mut self.frame, app_names, self.apps_persisted);
        self.write_frame(None, None)?;
        self.files_persisted = file_paths.len();
        self.apps_persisted = app_names.len();
        Ok(())
    }

    /// Append one sealed chunk: intern delta (if the tables grew), the
    /// chunk frame, then a commit marker followed by an fsync.
    pub fn append(
        &mut self,
        chunk: &CompressedChunk,
        file_paths: &[String],
        app_names: &[String],
    ) -> Result<(), SpillError> {
        let idx = self.chunks_appended;
        if self.fault.fires_at(SpillFaultKind::Enospc, idx).is_some() {
            // Typed resource fault: the caller drops the writer and the
            // guard removes the temp file.
            return Err(SpillError::Enospc {
                at_bytes: self.written,
            });
        }
        self.intern(file_paths, app_names)?;
        self.begin_frame(FRAME_CHUNK);
        let f = &mut self.frame;
        // Reserve the exact frame size (see `stage_meta` for the meta's),
        // so the one buffer never holds more than the largest frame.
        let meta_words: usize = chunk.meta.layer_files.iter().map(|b| b.words().len()).sum();
        let meta_len = 8 + 6 + 3 * 8 + 6 * 8 + 8 * meta_words;
        f.reserve_exact(16 + meta_len + 10 * 8 + chunk.encoded_bytes() + FRAME_SUM as usize);
        f.extend_from_slice(&(chunk.rows as u64).to_le_bytes());
        f.extend_from_slice(&(meta_len as u64).to_le_bytes());
        let meta_at = f.len();
        stage_meta(f, &chunk.meta);
        debug_assert_eq!(f.len() - meta_at, meta_len, "stage_meta layout");
        for c in 0..10 {
            f.extend_from_slice(&(chunk.column(c).len() as u64).to_le_bytes());
        }
        for c in 0..10 {
            f.extend_from_slice(chunk.column(c));
        }
        let flip = self
            .fault
            .fires_at(SpillFaultKind::BitFlip, idx)
            .map(|seed| scramble(seed ^ 0xb17f) as usize);
        if let Some(seed) = self.fault.fires_at(SpillFaultKind::PartialAppend, idx) {
            let frame_len = self.frame.len() as u64 + FRAME_SUM;
            let cut = 1 + (scramble(seed ^ 0x7ea2) % (frame_len - 1)) as usize;
            self.write_frame(None, Some(cut))?;
            return Err(self.crash(SpillFaultKind::PartialAppend));
        }
        self.write_frame(flip, None)?;
        self.chunks_appended += 1;
        self.records_appended += chunk.rows as u64;
        if self
            .fault
            .fires_at(SpillFaultKind::CrashBeforeCommit, idx)
            .is_some()
        {
            return Err(self.crash(SpillFaultKind::CrashBeforeCommit));
        }
        self.commit()
    }

    /// Simulate a process death: keep the mutilated temp file (a killed
    /// process runs no destructors), close the handle, and surface the
    /// surviving path in a typed error.
    fn crash(&mut self, fault: SpillFaultKind) -> SpillError {
        self.guard_armed = false;
        self.file = None;
        SpillError::Injected {
            fault,
            path: self.tmp_path.clone(),
        }
    }

    /// Bytes appended so far (the temp file's length).
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// Write the footer, fsync, and rename `<path>.tmp` to its final
    /// name. Only after this returns is the log sealed.
    pub fn finish(mut self) -> Result<SpillSummary, SpillError> {
        self.begin_frame(FRAME_FOOTER);
        for v in [
            self.chunks_appended,
            self.records_appended,
            self.chunk_rows as u64,
            self.files_persisted as u64,
            self.apps_persisted as u64,
        ] {
            self.frame.extend_from_slice(&v.to_le_bytes());
        }
        if let Some(seed) = self
            .fault
            .armed
            .and_then(|(k, seed, _)| (k == SpillFaultKind::TornFinalWrite).then_some(seed))
        {
            let frame_len = self.frame.len() as u64 + FRAME_SUM;
            let cut = 1 + (scramble(seed ^ 0xf007) % (frame_len - 1)) as usize;
            self.write_frame(None, Some(cut))?;
            return Err(self.crash(SpillFaultKind::TornFinalWrite));
        }
        self.write_frame(None, None)?;
        let file = self.file.take().expect("writer is open");
        file.sync_data()?;
        drop(file);
        self.fsync_points += 1;
        fs::rename(&self.tmp_path, &self.final_path)?;
        self.guard_armed = false;
        Ok(SpillSummary {
            path: self.final_path.clone(),
            chunks: self.chunks_appended,
            records: self.records_appended,
            bytes: self.written,
            fsync_points: self.fsync_points,
        })
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if self.guard_armed {
            self.file = None;
            let _ = fs::remove_file(&self.tmp_path);
        }
    }
}

/// Seal an existing columnar trace chunk-at-a-time straight into a spill
/// log (the post-hoc entry mirroring [`ChunkedTrace::from_columnar`]).
/// The full intern tables are persisted before the first chunk, so any
/// committed prefix resolves every id it can reference.
pub fn spill_columnar(
    c: &ColumnarTrace,
    chunk_rows: usize,
    path: &Path,
    fault: SpillFaultPlan,
) -> Result<SpillSummary, SpillError> {
    let mut w = SpillWriter::create(path, chunk_rows, fault)?;
    w.intern(&c.file_paths, &c.app_names)?;
    let mut at = 0usize;
    while at < c.len() {
        let end = (at + chunk_rows).min(c.len());
        let chunk = CompressedChunk::seal_rows(c, at..end);
        w.append(&chunk, &c.file_paths, &c.app_names)?;
        at = end;
    }
    w.finish()
}

fn stage_meta(buf: &mut Vec<u8>, meta: &ChunkMeta) {
    buf.extend_from_slice(&(meta.rows as u64).to_le_bytes());
    for l in 0..6 {
        buf.push(meta.present[l] as u8);
    }
    for v in [meta.n_ranks, meta.n_apps, meta.n_files] {
        buf.extend_from_slice(&(v as u64).to_le_bytes());
    }
    for l in 0..6 {
        let words = meta.layer_files[l].words();
        buf.extend_from_slice(&(words.len() as u64).to_le_bytes());
        for w in words {
            buf.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian cursor over a verified payload.
struct Cur<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Cur<'a> {
        Cur { b, at: 0 }
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        Some(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn u8(&mut self) -> Option<u8> {
        let s = self.take(1)?;
        Some(s[0])
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.at..end];
        self.at = end;
        Some(s)
    }

    fn done(&self) -> bool {
        self.at == self.b.len()
    }
}

fn parse_meta(cur: &mut Cur<'_>) -> Option<ChunkMeta> {
    let rows = cur.u64()? as usize;
    let mut present = [false; 6];
    for p in present.iter_mut() {
        *p = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
    }
    let n_ranks = cur.u64()? as usize;
    let n_apps = cur.u64()? as usize;
    let n_files = cur.u64()? as usize;
    let mut layer_files: [BitWords; 6] = Default::default();
    for lf in layer_files.iter_mut() {
        let n = cur.u64()? as usize;
        let bytes = cur.take(n.checked_mul(8)?)?;
        let words = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        *lf = BitWords::from_words(words);
    }
    Some(ChunkMeta {
        rows,
        present,
        layer_files,
        n_ranks,
        n_apps,
        n_files,
    })
}

/// A chunk frame's parsed payload: rows, persisted meta, encoded columns.
fn parse_chunk_payload(
    payload: &[u8],
    chunk_rows: usize,
) -> Result<(usize, ChunkMeta, [Vec<u8>; 10]), String> {
    let mut cur = Cur::new(payload);
    let rows = cur.u64().ok_or("missing row count")? as usize;
    if rows == 0 || rows > chunk_rows {
        return Err(format!("row count {rows} outside 1..={chunk_rows}"));
    }
    let meta_len = cur.u64().ok_or("missing meta length")? as usize;
    let meta_bytes = cur.take(meta_len).ok_or("meta runs past payload")?;
    let mut mc = Cur::new(meta_bytes);
    let meta = parse_meta(&mut mc).ok_or("meta does not parse")?;
    if !mc.done() {
        return Err("trailing bytes after meta".into());
    }
    if meta.rows != rows {
        return Err(format!("meta rows {} != frame rows {rows}", meta.rows));
    }
    let mut lens = [0usize; 10];
    for l in lens.iter_mut() {
        *l = cur.u64().ok_or("missing column length")? as usize;
    }
    let mut cols: [Vec<u8>; 10] = Default::default();
    for (c, len) in cols.iter_mut().zip(lens) {
        *c = cur.take(len).ok_or("column runs past payload")?.to_vec();
    }
    if !cur.done() {
        return Err("trailing bytes after columns".into());
    }
    Ok((rows, meta, cols))
}

fn parse_intern_payload(payload: &[u8]) -> Result<(Vec<String>, Vec<String>), String> {
    let mut cur = Cur::new(payload);
    let parse_list = |cur: &mut Cur<'_>| -> Result<Vec<String>, String> {
        let n = cur.u64().ok_or("missing entry count")? as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            let len = cur.u64().ok_or("missing string length")? as usize;
            let bytes = cur.take(len).ok_or("string runs past payload")?;
            out.push(
                std::str::from_utf8(bytes)
                    .map_err(|_| "intern entry is not UTF-8".to_string())?
                    .to_string(),
            );
        }
        Ok(out)
    };
    let files = parse_list(&mut cur)?;
    let apps = parse_list(&mut cur)?;
    if !cur.done() {
        return Err("trailing bytes after intern lists".into());
    }
    Ok((files, apps))
}

/// Why a segment (frame) was quarantined rather than recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// A readable chunk past the last commit marker — no fsync ordering
    /// guarantee covers it.
    Uncommitted,
    /// Stored checksum disagrees with the payload (bit rot / corruption).
    BadChecksum,
    /// The frame ran off the end of the file (torn write).
    Torn,
    /// Checksum passed but the payload did not parse, or a commit/footer
    /// carried tallies the log cannot support.
    Malformed,
    /// Columns parsed but failed to decode, or the decode disagreed with
    /// the persisted seal-time meta.
    Codec,
    /// An unknown frame kind (format corruption or a future version).
    UnknownKind,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QuarantineReason::Uncommitted => "uncommitted",
            QuarantineReason::BadChecksum => "bad-checksum",
            QuarantineReason::Torn => "torn",
            QuarantineReason::Malformed => "malformed",
            QuarantineReason::Codec => "codec",
            QuarantineReason::UnknownKind => "unknown-kind",
        })
    }
}

/// One quarantined segment in an [`FsckReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedSegment {
    /// Frame index from the front of the log.
    pub frame: u64,
    /// Byte offset of the frame.
    pub offset: u64,
    /// Why it was quarantined.
    pub reason: QuarantineReason,
}

/// What [`fsck`] recovered from a spill log.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// Recovered versus expected records and chunks. `expected` comes
    /// from the footer when the log is sealed, otherwise from every chunk
    /// frame observed (committed or not).
    pub completeness: TraceCompleteness,
    /// Whether a valid footer was found (the writer finished).
    pub sealed: bool,
    /// Chunks in the recovered (longest committed) prefix.
    pub committed_chunks: u64,
    /// Records in the recovered prefix.
    pub committed_records: u64,
    /// Durability points observed: one per valid commit, plus the footer.
    pub fsync_points: u64,
    /// Frames excluded from recovery, with typed reasons.
    pub quarantined: Vec<QuarantinedSegment>,
}

impl FsckReport {
    /// Whether the log is sealed, fully committed, and anomaly-free.
    pub fn is_clean(&self) -> bool {
        self.sealed && self.quarantined.is_empty() && self.completeness.is_complete()
    }
}

/// The result of walking a log front to back with deep verification.
struct Walk {
    chunk_rows: usize,
    sealed: bool,
    committed_chunks: u64,
    committed_records: u64,
    committed_files: u64,
    committed_apps: u64,
    /// Per observed chunk frame: (frame index, byte offset, seal meta).
    seen_chunks: Vec<(u64, u64, ChunkMeta)>,
    seen_records: u64,
    files: Vec<String>,
    apps: Vec<String>,
    commits_seen: u64,
    quarantined: Vec<QuarantinedSegment>,
}

/// Walk every frame, verifying checksums and (deeply) decoding each chunk
/// to cross-check its persisted meta. Stops at the first anomaly — the
/// longest-committed-prefix rule. Errors are returned only for files that
/// cannot be opened or are not spill logs at all; damage inside the log
/// is recovery data, not failure.
fn walk(path: &Path) -> Result<Walk, SpillError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut head = [0u8; 19];
    file.read_exact(&mut head)
        .map_err(|_| SpillError::NotSpill {
            detail: format!("file is {file_len} bytes, shorter than the preamble"),
        })?;
    if &head[..11] != SPILL_MAGIC {
        return Err(SpillError::NotSpill {
            detail: "bad magic".into(),
        });
    }
    let chunk_rows = u64::from_le_bytes(head[11..19].try_into().unwrap());
    if chunk_rows == 0 || chunk_rows > (1 << 32) {
        return Err(SpillError::NotSpill {
            detail: format!("preamble chunk_rows {chunk_rows} is not sane"),
        });
    }
    let mut w = Walk {
        chunk_rows: chunk_rows as usize,
        sealed: false,
        committed_chunks: 0,
        committed_records: 0,
        committed_files: 0,
        committed_apps: 0,
        seen_chunks: Vec::new(),
        seen_records: 0,
        files: Vec::new(),
        apps: Vec::new(),
        commits_seen: 0,
        quarantined: Vec::new(),
    };
    let mut pos = 19u64;
    let mut frame_idx = 0u64;
    let mut payload: Vec<u8> = Vec::new();
    let mut pcharge = GaugeCharge::default();
    let mut buf = ColumnarTrace::with_capacity(0);
    let mut bcharge = GaugeCharge::default();
    let quarantine = |w: &mut Walk, frame: u64, offset: u64, reason: QuarantineReason| {
        w.quarantined.push(QuarantinedSegment {
            frame,
            offset,
            reason,
        });
    };
    while pos < file_len {
        let at = pos;
        if file_len - pos < FRAME_HEAD + FRAME_SUM {
            quarantine(&mut w, frame_idx, at, QuarantineReason::Torn);
            break;
        }
        let mut fh = [0u8; 9];
        file.read_exact(&mut fh)?;
        let kind = fh[0];
        let payload_len = u64::from_le_bytes(fh[1..9].try_into().unwrap());
        if payload_len > file_len - pos - FRAME_HEAD - FRAME_SUM {
            quarantine(&mut w, frame_idx, at, QuarantineReason::Torn);
            break;
        }
        payload.resize(payload_len as usize, 0);
        pcharge.resync(payload.capacity() as u64);
        file.read_exact(&mut payload)?;
        let mut sum = [0u8; 8];
        file.read_exact(&mut sum)?;
        pos += FRAME_HEAD + payload_len + FRAME_SUM;
        if fnv1a(&payload) != u64::from_le_bytes(sum) {
            quarantine(&mut w, frame_idx, at, QuarantineReason::BadChecksum);
            break;
        }
        match kind {
            FRAME_CHUNK => {
                let (rows, meta, cols) = match parse_chunk_payload(&payload, w.chunk_rows) {
                    Ok(p) => p,
                    Err(_) => {
                        quarantine(&mut w, frame_idx, at, QuarantineReason::Malformed);
                        break;
                    }
                };
                // Deep verify: decode once and recompute the meta; a chunk
                // whose bytes decode to different statistics than its seal
                // recorded is corruption the checksum happened to miss.
                let chunk = CompressedChunk::from_parts(rows, meta.clone(), cols);
                buf.clear_rows();
                let ok = chunk.decode_into(&mut buf, false).is_ok() && {
                    let mut recomputed = ChunkMeta::default();
                    for i in 0..rows {
                        recomputed.absorb(
                            buf.rank[i],
                            buf.app[i],
                            buf.layer[i],
                            buf.op[i],
                            buf.file[i],
                        );
                    }
                    recomputed == meta
                };
                bcharge.resync(columnar_capacity_bytes(&buf));
                if !ok {
                    quarantine(&mut w, frame_idx, at, QuarantineReason::Codec);
                    break;
                }
                w.seen_records += rows as u64;
                w.seen_chunks.push((frame_idx, at, meta));
            }
            FRAME_INTERN => match parse_intern_payload(&payload) {
                Ok((mut files, mut apps)) => {
                    w.files.append(&mut files);
                    w.apps.append(&mut apps);
                }
                Err(_) => {
                    quarantine(&mut w, frame_idx, at, QuarantineReason::Malformed);
                    break;
                }
            },
            FRAME_COMMIT | FRAME_FOOTER => {
                let mut cur = Cur::new(&payload);
                let chunks = cur.u64();
                let records = cur.u64();
                let foot_rows = (kind == FRAME_FOOTER).then(|| cur.u64()).flatten();
                let files = cur.u64();
                let apps = cur.u64();
                let sane = match (chunks, records, files, apps) {
                    (Some(c), Some(r), Some(f), Some(a)) => {
                        cur.done()
                            && c == w.seen_chunks.len() as u64
                            && r == w.seen_records
                            && f <= w.files.len() as u64
                            && a <= w.apps.len() as u64
                            && (kind != FRAME_FOOTER || foot_rows == Some(w.chunk_rows as u64))
                    }
                    _ => false,
                };
                if !sane {
                    quarantine(&mut w, frame_idx, at, QuarantineReason::Malformed);
                    break;
                }
                w.committed_chunks = chunks.unwrap();
                w.committed_records = records.unwrap();
                w.committed_files = files.unwrap();
                w.committed_apps = apps.unwrap();
                if kind == FRAME_FOOTER {
                    w.sealed = true;
                    if pos < file_len {
                        // Bytes after a footer were never written by our
                        // writer; stop before misreading them.
                        quarantine(&mut w, frame_idx + 1, pos, QuarantineReason::Malformed);
                        break;
                    }
                } else {
                    w.commits_seen += 1;
                }
            }
            _ => {
                quarantine(&mut w, frame_idx, at, QuarantineReason::UnknownKind);
                break;
            }
        }
        frame_idx += 1;
    }
    // Readable chunks past the adopted commit point are not recoverable.
    for &(frame, offset, _) in w.seen_chunks.iter().skip(w.committed_chunks as usize) {
        w.quarantined.push(QuarantinedSegment {
            frame,
            offset,
            reason: QuarantineReason::Uncommitted,
        });
    }
    w.files.truncate(w.committed_files as usize);
    w.apps.truncate(w.committed_apps as usize);
    Ok(w)
}

impl Walk {
    fn completeness(&self) -> TraceCompleteness {
        // A damaged frame (torn / bad checksum / malformed / codec) hides
        // its own contents, so the walk cannot know how much followed it.
        // Count it as one expected-but-lost group: recovery from a
        // damaged log is never reported as provably complete.
        let damaged = self
            .quarantined
            .iter()
            .any(|q| q.reason != QuarantineReason::Uncommitted) as u64;
        let (expected_records, expected_groups) = if self.sealed {
            (self.committed_records, self.committed_chunks)
        } else {
            (self.seen_records, self.seen_chunks.len() as u64 + damaged)
        };
        TraceCompleteness {
            expected_records,
            loaded_records: self.committed_records,
            expected_groups,
            loaded_groups: self.committed_chunks,
        }
    }

    fn report(&self) -> FsckReport {
        FsckReport {
            completeness: self.completeness(),
            sealed: self.sealed,
            committed_chunks: self.committed_chunks,
            committed_records: self.committed_records,
            fsync_points: self.commits_seen + self.sealed as u64,
            quarantined: self.quarantined.clone(),
        }
    }
}

/// Recovery pass: walk a (possibly mutilated) spill log, verify every
/// frame, and report the longest committed prefix plus quarantined
/// segments. Never panics on damage; errors only when the file cannot be
/// opened or is not a spill log at all.
pub fn fsck(path: &Path) -> Result<FsckReport, SpillError> {
    Ok(walk(path)?.report())
}

/// A verified spill log the streaming analyzer folds straight off disk.
/// Holds only the committed prefix's metadata (dims, intern tables,
/// per-chunk seal metas are *not* retained — just their merge); each
/// [`scan_chunks`](ChunkSource::scan_chunks) pass re-reads the file one
/// frame at a time, so resident bytes stay bounded by one chunk
/// regardless of log size.
#[derive(Debug)]
pub struct SpillSource {
    path: PathBuf,
    chunk_rows: usize,
    committed_chunks: u64,
    committed_records: u64,
    file_paths: Vec<String>,
    app_names: Vec<String>,
    merged: ChunkMeta,
    report: FsckReport,
}

impl SpillSource {
    /// Open a log that must be sealed, fully committed, and anomaly-free;
    /// any damage is a typed error (the strict loader's contract).
    pub fn open_strict(path: &Path) -> Result<SpillSource, SpillError> {
        let src = SpillSource::open_salvaged(path)?;
        if let Some(q) = src.report.quarantined.first() {
            return Err(match q.reason {
                QuarantineReason::Uncommitted => SpillError::Uncommitted {
                    chunks: src.report.completeness.expected_groups,
                    committed: src.committed_chunks,
                },
                QuarantineReason::BadChecksum => SpillError::BadChecksum {
                    frame: q.frame,
                    offset: q.offset,
                },
                QuarantineReason::Torn => SpillError::Torn {
                    offset: q.offset,
                    detail: "frame runs past end of file".into(),
                },
                QuarantineReason::Codec => SpillError::Codec {
                    chunk: src.committed_chunks,
                    detail: "chunk failed deep verification".into(),
                },
                QuarantineReason::Malformed | QuarantineReason::UnknownKind => {
                    SpillError::Malformed {
                        frame: q.frame,
                        offset: q.offset,
                        detail: "frame payload did not parse".into(),
                    }
                }
            });
        }
        if !src.report.sealed {
            return Err(SpillError::Unsealed {
                committed_chunks: src.committed_chunks,
            });
        }
        Ok(src)
    }

    /// Open whatever the log holds: recover the longest committed prefix
    /// and keep the [`FsckReport`] for diagnostics. Errors only when the
    /// file cannot be opened or is not a spill log.
    pub fn open_salvaged(path: &Path) -> Result<SpillSource, SpillError> {
        let w = walk(path)?;
        let mut merged = ChunkMeta::default();
        for (_, _, meta) in w.seen_chunks.iter().take(w.committed_chunks as usize) {
            merged.merge(meta);
        }
        let report = w.report();
        Ok(SpillSource {
            path: path.to_path_buf(),
            chunk_rows: w.chunk_rows,
            committed_chunks: w.committed_chunks,
            committed_records: w.committed_records,
            file_paths: w.files,
            app_names: w.apps,
            merged,
            report,
        })
    }

    /// The recovery report from open time.
    pub fn report(&self) -> &FsckReport {
        &self.report
    }

    /// The log's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records in the committed prefix.
    pub fn len(&self) -> u64 {
        self.committed_records
    }

    /// Whether the committed prefix holds no records.
    pub fn is_empty(&self) -> bool {
        self.committed_records == 0
    }

    /// Materialize the committed prefix as an in-memory [`ChunkedTrace`]
    /// (the persist-compat path; defeats the memory bound by design).
    pub fn to_chunked(&self) -> Result<ChunkedTrace, SpillError> {
        let mut chunks = Vec::with_capacity(self.committed_chunks as usize);
        self.scan_chunks(&mut |ch: &CompressedChunk| chunks.push(ch.clone()))?;
        Ok(ChunkedTrace {
            chunk_rows: self.chunk_rows,
            chunks,
            file_paths: self.file_paths.clone(),
            app_names: self.app_names.clone(),
        })
    }
}

/// Anything the streaming analyzer can fold chunks out of, in capture
/// order: an in-memory [`ChunkedTrace`] or an on-disk [`SpillSource`].
/// Multi-pass by design — the analyzer's pattern fallback re-scans.
pub trait ChunkSource {
    /// Rows per full chunk.
    fn chunk_rows(&self) -> usize;
    /// File id → path.
    fn file_paths(&self) -> &[String];
    /// App id → name.
    fn app_names(&self) -> &[String];
    /// Merge of every chunk's seal-time statistics.
    fn merged_meta(&self) -> ChunkMeta;
    /// Total records.
    fn total_records(&self) -> u64;
    /// Visit every chunk in capture order. May be called repeatedly.
    fn scan_chunks(&self, f: &mut dyn FnMut(&CompressedChunk)) -> Result<(), SpillError>;
}

impl ChunkSource for ChunkedTrace {
    fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    fn file_paths(&self) -> &[String] {
        &self.file_paths
    }

    fn app_names(&self) -> &[String] {
        &self.app_names
    }

    fn merged_meta(&self) -> ChunkMeta {
        ChunkedTrace::merged_meta(self)
    }

    fn total_records(&self) -> u64 {
        self.len() as u64
    }

    fn scan_chunks(&self, f: &mut dyn FnMut(&CompressedChunk)) -> Result<(), SpillError> {
        for ch in &self.chunks {
            f(ch);
        }
        Ok(())
    }
}

impl ChunkSource for SpillSource {
    fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    fn file_paths(&self) -> &[String] {
        &self.file_paths
    }

    fn app_names(&self) -> &[String] {
        &self.app_names
    }

    fn merged_meta(&self) -> ChunkMeta {
        self.merged.clone()
    }

    fn total_records(&self) -> u64 {
        self.committed_records
    }

    /// Re-read the file one frame at a time, handing each committed chunk
    /// to `f`. Frames were verified at open; checksums are re-checked
    /// cheaply in case the file changed underneath us.
    fn scan_chunks(&self, f: &mut dyn FnMut(&CompressedChunk)) -> Result<(), SpillError> {
        let mut file = File::open(&self.path)?;
        let file_len = file.metadata()?.len();
        let mut head = [0u8; 19];
        file.read_exact(&mut head)?;
        let mut pos = 19u64;
        let mut frame_idx = 0u64;
        let mut payload: Vec<u8> = Vec::new();
        let mut pcharge = GaugeCharge::default();
        let mut handed = 0u64;
        while pos < file_len && handed < self.committed_chunks {
            let at = pos;
            if file_len - pos < FRAME_HEAD + FRAME_SUM {
                return Err(SpillError::Torn {
                    offset: at,
                    detail: "file shrank since open".into(),
                });
            }
            let mut fh = [0u8; 9];
            file.read_exact(&mut fh)?;
            let kind = fh[0];
            let payload_len = u64::from_le_bytes(fh[1..9].try_into().unwrap());
            if payload_len > file_len - pos - FRAME_HEAD - FRAME_SUM {
                return Err(SpillError::Torn {
                    offset: at,
                    detail: "frame runs past end of file".into(),
                });
            }
            payload.resize(payload_len as usize, 0);
            pcharge.resync(payload.capacity() as u64);
            file.read_exact(&mut payload)?;
            let mut sum = [0u8; 8];
            file.read_exact(&mut sum)?;
            pos += FRAME_HEAD + payload_len + FRAME_SUM;
            if fnv1a(&payload) != u64::from_le_bytes(sum) {
                return Err(SpillError::BadChecksum {
                    frame: frame_idx,
                    offset: at,
                });
            }
            if kind == FRAME_CHUNK {
                let (rows, meta, cols) =
                    parse_chunk_payload(&payload, self.chunk_rows).map_err(|detail| {
                        SpillError::Malformed {
                            frame: frame_idx,
                            offset: at,
                            detail,
                        }
                    })?;
                let chunk = CompressedChunk::from_parts(rows, meta, cols);
                f(&chunk);
                handed += 1;
            }
            frame_idx += 1;
        }
        if handed != self.committed_chunks {
            return Err(SpillError::Torn {
                offset: pos,
                detail: format!(
                    "expected {} committed chunk(s), found {handed}",
                    self.committed_chunks
                ),
            });
        }
        Ok(())
    }
}

/// Strict v3 load: the log must be sealed and anomaly-free.
pub fn load_spill(path: &Path) -> Result<ChunkedTrace, SpillError> {
    SpillSource::open_strict(path)?.to_chunked()
}

/// Salvage v3 load: recover the longest committed prefix and report how
/// much of the log survived.
pub fn load_spill_salvaged(path: &Path) -> Result<(ChunkedTrace, TraceCompleteness), SpillError> {
    let src = SpillSource::open_salvaged(path)?;
    let completeness = src.report.completeness;
    Ok((src.to_chunked()?, completeness))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AppId, FileId, Layer, OpKind};
    use sim_core::SimTime;

    fn synthetic(n: usize) -> ColumnarTrace {
        let mut c = ColumnarTrace::with_capacity(n);
        for i in 0..n as u64 {
            c.push_row(
                (i % 8) as u32,
                (i % 2) as u32,
                AppId((i % 2) as u16),
                Layer::Posix,
                if i % 9 == 0 {
                    OpKind::Read
                } else {
                    OpKind::Write
                },
                SimTime(i * 10),
                SimTime(i * 10 + 4),
                Some(FileId((i % 5) as u32)),
                i * 512,
                4096,
            );
        }
        c.file_paths = (0..5).map(|i| format!("/spill/f{i}")).collect();
        c.app_names = vec!["app0".into(), "app1".into()];
        c
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vani-spill-unit-{tag}-{}", std::process::id()));
        fs::create_dir_all(&d).expect("mkdir");
        d
    }

    #[test]
    fn round_trip_is_identity() {
        let dir = tmp_dir("rt");
        let c = synthetic(1000);
        let path = dir.join("t.vsp3");
        let sum = spill_columnar(&c, 128, &path, SpillFaultPlan::none()).expect("spills");
        assert_eq!(sum.chunks, 8);
        assert_eq!(sum.records, 1000);
        let direct = ChunkedTrace::from_columnar(&c, 128);
        let loaded = load_spill(&path).expect("loads");
        assert_eq!(loaded, direct);
        let report = fsck(&path).expect("fscks");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.fsync_points, 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_trace_seals_with_intern_tables() {
        let dir = tmp_dir("empty");
        let c = synthetic(0);
        let path = dir.join("e.vsp3");
        spill_columnar(&c, 64, &path, SpillFaultPlan::none()).expect("spills");
        let loaded = load_spill(&path).expect("loads");
        assert!(loaded.is_empty());
        assert_eq!(loaded.file_paths.len(), 5);
        assert_eq!(loaded.app_names.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_faults_leave_recoverable_prefix() {
        let dir = tmp_dir("crash");
        let c = synthetic(640);
        for (i, kind) in [
            SpillFaultKind::PartialAppend,
            SpillFaultKind::CrashBeforeCommit,
        ]
        .into_iter()
        .enumerate()
        {
            let path = dir.join(format!("c{i}.vsp3"));
            let plan = SpillFaultPlan::at_chunk(kind, 42, 3);
            let err = spill_columnar(&c, 64, &path, plan).expect_err("fault fires");
            let surviving = match err {
                SpillError::Injected { path, .. } => path,
                other => panic!("expected Injected, got {other}"),
            };
            let report = fsck(&surviving).expect("fsck never fails on damage");
            assert!(!report.sealed);
            assert_eq!(report.committed_chunks, 3, "{kind}");
            assert_eq!(report.committed_records, 192, "{kind}");
            assert!(!report.quarantined.is_empty(), "{kind}");
            let (trace, comp) = load_spill_salvaged(&surviving).expect("salvage");
            assert_eq!(trace.len(), 192);
            assert_eq!(comp.loaded_records, 192);
            assert!(!comp.is_complete());
            let _ = fs::remove_file(&surviving);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_is_typed_and_leaves_no_litter() {
        let dir = tmp_dir("enospc");
        let c = synthetic(640);
        let path = dir.join("n.vsp3");
        let plan = SpillFaultPlan::at_chunk(SpillFaultKind::Enospc, 7, 5);
        let err = spill_columnar(&c, 64, &path, plan).expect_err("device fills");
        assert!(matches!(err, SpillError::Enospc { .. }), "{err}");
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "guard must remove the temp file"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_latent_until_verified() {
        let dir = tmp_dir("flip");
        let c = synthetic(640);
        let path = dir.join("b.vsp3");
        let plan = SpillFaultPlan::at_chunk(SpillFaultKind::BitFlip, 11, 4);
        // The write completes and the log seals normally.
        spill_columnar(&c, 64, &path, plan).expect("latent fault");
        assert!(matches!(
            SpillSource::open_strict(&path),
            Err(SpillError::BadChecksum { .. })
        ));
        let report = fsck(&path).expect("fsck");
        assert_eq!(report.committed_chunks, 4);
        assert!(report
            .quarantined
            .iter()
            .any(|q| q.reason == QuarantineReason::BadChecksum));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_write_keeps_every_commit() {
        let dir = tmp_dir("torn");
        let c = synthetic(640);
        let path = dir.join("t.vsp3");
        let plan = SpillFaultPlan::at_chunk(SpillFaultKind::TornFinalWrite, 3, 0);
        let err = spill_columnar(&c, 64, &path, plan).expect_err("footer tears");
        let surviving = match err {
            SpillError::Injected { path, .. } => path,
            other => panic!("expected Injected, got {other}"),
        };
        let report = fsck(&surviving).expect("fsck");
        assert!(!report.sealed);
        assert_eq!(report.committed_chunks, 10);
        assert_eq!(report.committed_records, 640);
        let (trace, _) = load_spill_salvaged(&surviving).expect("salvage");
        assert_eq!(trace.to_columnar().expect("decodes"), c);
        let _ = fs::remove_file(&surviving);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_write_panic_leaves_directory_clean() {
        let dir = tmp_dir("panic");
        let path = dir.join("p.vsp3");
        let c = synthetic(100);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = SpillWriter::create(&path, 64, SpillFaultPlan::none()).expect("creates");
            let chunk = CompressedChunk::seal_rows(&c, 0..64);
            w.append(&chunk, &c.file_paths, &c.app_names)
                .expect("appends");
            panic!("simulated capture panic");
        }));
        assert!(result.is_err());
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "RAII guard must remove the temp file during unwind"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_on_nonexistent_and_non_spill_paths_is_typed() {
        let dir = tmp_dir("typed");
        assert!(matches!(
            fsck(&dir.join("missing.vsp3")),
            Err(SpillError::Io(_))
        ));
        let junk = dir.join("junk.bin");
        fs::write(&junk, b"not a spill log at all").expect("writes");
        assert!(matches!(fsck(&junk), Err(SpillError::NotSpill { .. })));
        let _ = fs::remove_dir_all(&dir);
    }
}
