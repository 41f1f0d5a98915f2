//! Crash-consistent spill-to-disk trace store: an append-only segment log
//! that sealed [`CompressedChunk`]s stream into as they leave the capture
//! ring, so traces larger than RAM survive on disk and the streaming
//! analyzer folds chunks straight off the file.
//!
//! ## On-disk format (spill format v4)
//!
//! A spill file opens with a 19-byte preamble — the magic
//! `SPILL_MAGIC` (`vanispill4\n`) followed by `chunk_rows` as a `u64`
//! little-endian — and then a sequence of self-describing frames:
//!
//! ```text
//! [kind: u8][payload_len: u64 LE][payload][xxh64(payload, seed 0): u64 LE]
//! ```
//!
//! The trailer is [`frame_checksum`]. Every frame is checksummed three
//! times per round trip (on write, in the [`fsck`] walk and on every
//! chunk scan), so the checksum is XXH64: four independent lanes consume
//! 8-byte words, where a byte-serial hash such as FNV-1a makes every byte
//! wait on the previous byte's multiply. v4 differs from v3 only in that
//! trailer and the magic; frame sizes and payload bytes are identical. A
//! v3 log is refused with a typed [`SpillError::NotSpill`] that says so.
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
//! That decoding walk serves [`fsck`], salvage and [`load_spill`]. The
//! strict open ([`SpillSource::open_strict`]) walks the same frames without
//! decoding chunks: it checks checksums, tallies, the `node` column and
//! the meta fields that size the analyzer's allocations, and leaves the
//! rest of each chunk to the one decode that consumes it.
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
    COLUMN_WIDTHS,
};
use crate::codec;
use crate::columnar::ColumnarTrace;

/// First bytes of every version-4 spill file.
pub(crate) const SPILL_MAGIC: &[u8; 11] = b"vanispill4\n";

const FRAME_CHUNK: u8 = 1;
const FRAME_INTERN: u8 = 2;
const FRAME_COMMIT: u8 = 3;
const FRAME_FOOTER: u8 = 4;

/// Frame head bytes: kind tag plus payload length.
const FRAME_HEAD: u64 = 9;
/// Trailing checksum bytes per frame.
const FRAME_SUM: u64 = 8;

/// First bytes of the retired version-3 log, recognized only to say why
/// it no longer opens.
const SPILL_MAGIC_V3: &[u8; 11] = b"vanispill3\n";

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// XXH64 of `bytes` under `seed`, per the xxHash specification: four
/// independent lanes over 32-byte stripes of little-endian words, then the
/// 8-, 4- and 1-byte tails and the final avalanche.
fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        for s in stripes {
            for (lane, w) in v.iter_mut().zip(s.chunks_exact(8)) {
                *lane = xxh_round(*lane, le64(w));
            }
        }
        let mut h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        for lane in v {
            h = (h ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = tail.chunks_exact(8);
    for w in &mut words {
        h = (h ^ xxh_round(0, le64(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let word = u32::from_le_bytes(rest[..4].try_into().unwrap()) as u64;
        h = (h ^ word.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The checksum every spill frame carries after its payload: XXH64 with
/// seed 0. The writer, [`fsck`] and every chunk scan call this one
/// function.
pub fn frame_checksum(payload: &[u8]) -> u64 {
    xxh64(payload, 0)
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
    /// The file does not start with `SPILL_MAGIC` or has a nonsense
    /// preamble — not a v4 spill log. A retired v3 log lands here too,
    /// with a detail saying so.
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
    /// A frame's payload does not match its stored [`frame_checksum`]
    /// (XXH64): bit rot or any other corruption of the payload or trailer
    /// bytes.
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
                write!(f, "not a v4 spill log: {detail}")
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

    /// Arm `kind` at an explicit target chunk index.
    pub fn at_chunk(kind: SpillFaultKind, seed: u64, target: u64) -> SpillFaultPlan {
        SpillFaultPlan {
            armed: Some((kind, seed, target)),
        }
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
    /// Open `<path>.tmp` for appending and write the v4 preamble.
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
        let sum = frame_checksum(&self.frame[head..]);
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

/// A chunk frame's parsed payload: rows, persisted meta, and the encoded
/// columns as slices of `payload`.
fn parse_chunk_payload(
    payload: &[u8],
    chunk_rows: usize,
) -> Result<(usize, ChunkMeta, [&[u8]; 10]), String> {
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
    let mut cols: [&[u8]; 10] = [&[]; 10];
    for (c, len) in cols.iter_mut().zip(lens) {
        *c = cur.take(len).ok_or("column runs past payload")?;
    }
    if !cur.done() {
        return Err("trailing bytes after columns".into());
    }
    Ok((rows, meta, cols))
}

/// Whether a persisted meta stays inside what the log can back: its file
/// and app id spaces within the intern tables read so far, and every
/// per-layer file bit below its `n_files`. The fold sizes allocations and
/// indexes arrays by these fields before it verifies any chunk.
fn meta_in_bounds(meta: &ChunkMeta, files: usize, apps: usize) -> bool {
    meta.n_files <= files
        && meta.n_apps <= apps
        && meta
            .layer_files
            .iter()
            .all(|bits| bits.iter().all(|f| f < meta.n_files))
}

/// Whether column `idx` (in [`COLUMN_WIDTHS`] order) of a parsed chunk
/// frame decodes to `rows` values of its width, handing each to `emit`
/// without building the column.
fn column_decodes(cols: &[&[u8]; 10], rows: usize, idx: usize, emit: impl FnMut(u64)) -> bool {
    codec::decode_column_each(cols[idx], rows, COLUMN_WIDTHS[idx].1, emit).is_ok()
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

/// How much of a spill log's capture survived loading. Records and
/// chunks ("groups") are counted separately; the walk that recovers the
/// log (`Walk::completeness`) defines the expected side, so a damaged or
/// unsealed log is never complete and its `fraction()` stays below 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCompleteness {
    /// Records the capture is known to have held.
    pub expected_records: u64,
    /// Records actually loaded.
    pub loaded_records: u64,
    /// Chunks the capture is known to have held.
    pub expected_groups: u64,
    /// Chunks that verified and loaded.
    pub loaded_groups: u64,
}

impl TraceCompleteness {
    /// Loaded fraction in [0, 1]; an empty-but-complete trace is 1.
    pub fn fraction(&self) -> f64 {
        if self.expected_records == 0 {
            1.0
        } else {
            self.loaded_records as f64 / self.expected_records as f64
        }
    }

    /// Whether every record and chunk of the capture loaded.
    pub fn is_complete(&self) -> bool {
        self.loaded_records == self.expected_records && self.loaded_groups == self.expected_groups
    }
}

/// What [`fsck`] recovered from a spill log.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// Recovered versus expected records and chunks. Only a sealed,
    /// anomaly-free log is complete; see [`TraceCompleteness`].
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

/// How far [`walk`] verifies each chunk frame past its checksum, parse
/// and meta bounds.
#[derive(Clone, Copy)]
enum Verify {
    /// Decode only the `rank` column (its maximum must match the meta's
    /// `n_ranks`) and the `node` column. The strict open uses this: the
    /// fold decodes every other column once anyway and rechecks the meta
    /// there.
    Frames,
    /// Decode the whole chunk and compare a recomputed meta with the
    /// persisted one. Salvage and the whole-trace loaders use this: the
    /// longest *verified* prefix is defined by decoding, and loaded chunks
    /// go to callers that may trust their metas.
    Decode,
}

/// The result of walking a log front to back.
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

/// Why the next frame could not be read. The walk turns these into
/// quarantine reasons, a chunk scan into typed errors.
enum FrameError {
    /// Fewer bytes remain than a frame head and checksum.
    Short,
    /// The head's payload length runs past the end of the file.
    PastEnd,
    /// The payload does not match its checksum.
    BadChecksum,
    /// Reading the file failed.
    Io(io::Error),
}

/// Reads a log's frames front to back, starting right after its 19-byte
/// preamble: three reads per frame (head, payload, checksum) into one
/// reused payload buffer, whose capacity is charged to the trace gauge.
struct Frames {
    file: File,
    file_len: u64,
    /// Offset of the next frame.
    pos: u64,
    /// The last frame's payload.
    payload: Vec<u8>,
    charge: GaugeCharge,
}

impl Frames {
    /// Frames of `file` (`file_len` bytes), read past its preamble.
    fn new(file: File, file_len: u64) -> Frames {
        Frames {
            file,
            file_len,
            pos: 19,
            payload: Vec::new(),
            charge: GaugeCharge::default(),
        }
    }

    /// Read the next frame into `payload` and verify its checksum.
    /// Returns the frame kind, or `None` at the end of the file.
    fn next(&mut self) -> Result<Option<u8>, FrameError> {
        if self.pos >= self.file_len {
            return Ok(None);
        }
        let left = self.file_len - self.pos;
        if left < FRAME_HEAD + FRAME_SUM {
            return Err(FrameError::Short);
        }
        let mut fh = [0u8; 9];
        self.file.read_exact(&mut fh).map_err(FrameError::Io)?;
        let payload_len = u64::from_le_bytes(fh[1..9].try_into().unwrap());
        if payload_len > left - FRAME_HEAD - FRAME_SUM {
            return Err(FrameError::PastEnd);
        }
        self.payload.resize(payload_len as usize, 0);
        self.charge.resync(self.payload.capacity() as u64);
        self.file
            .read_exact(&mut self.payload)
            .map_err(FrameError::Io)?;
        let mut sum = [0u8; 8];
        self.file.read_exact(&mut sum).map_err(FrameError::Io)?;
        self.pos += FRAME_HEAD + payload_len + FRAME_SUM;
        if frame_checksum(&self.payload) != u64::from_le_bytes(sum) {
            return Err(FrameError::BadChecksum);
        }
        Ok(Some(fh[0]))
    }
}

/// Walk every frame, verifying checksums, payloads, meta bounds and, to
/// `depth`, each chunk's columns against its persisted meta. Stops at the
/// first anomaly — the longest-committed-prefix rule. Errors are returned
/// only for files that cannot be opened or are not spill logs at all;
/// damage inside the log is recovery data, not failure.
fn walk(path: &Path, depth: Verify) -> Result<Walk, SpillError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut head = [0u8; 19];
    file.read_exact(&mut head)
        .map_err(|_| SpillError::NotSpill {
            detail: format!("file is {file_len} bytes, shorter than the preamble"),
        })?;
    if &head[..11] == SPILL_MAGIC_V3 {
        return Err(SpillError::NotSpill {
            detail: "spill format v3 is no longer read; this build reads v4 only".into(),
        });
    }
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
    let mut frames = Frames::new(file, file_len);
    let mut frame_idx = 0u64;
    let mut buf = ColumnarTrace::with_capacity(0);
    let mut bcharge = GaugeCharge::default();
    let quarantine = |w: &mut Walk, frame: u64, offset: u64, reason: QuarantineReason| {
        w.quarantined.push(QuarantinedSegment {
            frame,
            offset,
            reason,
        });
    };
    loop {
        let at = frames.pos;
        let kind = match frames.next() {
            Ok(Some(kind)) => kind,
            Ok(None) => break,
            Err(FrameError::Short | FrameError::PastEnd) => {
                quarantine(&mut w, frame_idx, at, QuarantineReason::Torn);
                break;
            }
            Err(FrameError::BadChecksum) => {
                quarantine(&mut w, frame_idx, at, QuarantineReason::BadChecksum);
                break;
            }
            Err(FrameError::Io(e)) => return Err(e.into()),
        };
        let payload = frames.payload.as_slice();
        match kind {
            FRAME_CHUNK => {
                let (rows, meta, cols) = match parse_chunk_payload(payload, w.chunk_rows) {
                    Ok(p) => p,
                    Err(_) => {
                        quarantine(&mut w, frame_idx, at, QuarantineReason::Malformed);
                        break;
                    }
                };
                // Bytes that fail these checks, or decode to different
                // statistics than the seal recorded, are corruption the
                // checksum happened to miss. The `node` column is checked
                // at both depths: the analyzer never decodes it.
                let ok = meta_in_bounds(&meta, w.files.len(), w.apps.len())
                    && column_decodes(&cols, rows, 1, |_| {})
                    && match depth {
                        Verify::Frames => {
                            let mut max_rank = 0u32;
                            column_decodes(&cols, rows, 0, |v| max_rank = max_rank.max(v as u32))
                                && meta.n_ranks == max_rank as usize + 1
                        }
                        Verify::Decode => {
                            let chunk = CompressedChunk::from_parts(
                                rows,
                                meta.clone(),
                                cols.map(<[u8]>::to_vec),
                            );
                            buf.clear_rows();
                            let ok = chunk.decode_into(&mut buf, false).is_ok()
                                && ChunkMeta::of_rows(&buf, 0..rows) == meta;
                            bcharge.resync(columnar_capacity_bytes(&buf));
                            ok
                        }
                    };
                if !ok {
                    quarantine(&mut w, frame_idx, at, QuarantineReason::Codec);
                    break;
                }
                w.seen_records += rows as u64;
                w.seen_chunks.push((frame_idx, at, meta));
            }
            FRAME_INTERN => match parse_intern_payload(payload) {
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
                let mut cur = Cur::new(payload);
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
                    if frames.pos < file_len {
                        // Bytes after a footer were never written by our
                        // writer; stop before misreading them.
                        quarantine(
                            &mut w,
                            frame_idx + 1,
                            frames.pos,
                            QuarantineReason::Malformed,
                        );
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
    /// Recovered versus expected records and chunks. A sealed log with no
    /// quarantined frame expects exactly what its footer counts, so it is
    /// complete. Any other log lost a tail the walk cannot see: its writer
    /// never finished, or a damaged frame hides what followed it. Such a
    /// log expects every chunk frame observed plus one more full chunk:
    ///
    /// ```text
    /// expected_groups  = seen_chunks + 1
    /// expected_records = seen_records + chunk_rows
    /// ```
    ///
    /// so `loaded_groups < expected_groups` and, because `chunk_rows >= 1`,
    /// `fraction() < 1.0`: a damaged or unsealed log is never reported
    /// complete, even when it was cut exactly at a commit boundary.
    fn completeness(&self) -> TraceCompleteness {
        let (expected_records, expected_groups) = if self.sealed && self.quarantined.is_empty() {
            (self.committed_records, self.committed_chunks)
        } else {
            (
                self.seen_records + self.chunk_rows as u64,
                self.seen_chunks.len() as u64 + 1,
            )
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
/// frame — decoding each chunk and checking its persisted meta against a
/// recompute — and report the longest committed prefix plus quarantined
/// segments. Never panics on damage; errors only when the file cannot be
/// opened or is not a spill log at all.
pub fn fsck(path: &Path) -> Result<FsckReport, SpillError> {
    Ok(walk(path, Verify::Decode)?.report())
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
    /// any damage found is a typed error (the strict loader's contract).
    ///
    /// The open walks frames without decoding chunks: magic, frame walk,
    /// checksums, payload parse, commit and footer tallies, the `node`
    /// column, and every meta field the fold sizes allocations or indexes
    /// arrays by (`n_files` and `n_apps` within the intern tables, every
    /// `layer_files` bit below `n_files`, `n_ranks` equal to the `rank`
    /// column's maximum plus one). The rest of each chunk's content is
    /// verified by the one decode that consumes it:
    /// `TraceProfile::streaming_source` recomputes every decoded chunk's
    /// meta and fails typed [`SpillError::Codec`] on a mismatch.
    pub fn open_strict(path: &Path) -> Result<SpillSource, SpillError> {
        SpillSource::open(path, Verify::Frames)?.strict()
    }

    /// Open whatever the log holds: recover the longest committed prefix,
    /// decoding every chunk to verify it, and keep the [`FsckReport`] for
    /// diagnostics. Errors only when the file cannot be opened or is not a
    /// spill log.
    pub fn open_salvaged(path: &Path) -> Result<SpillSource, SpillError> {
        SpillSource::open(path, Verify::Decode)
    }

    fn open(path: &Path, depth: Verify) -> Result<SpillSource, SpillError> {
        let w = walk(path, depth)?;
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

    /// Refuse a source whose walk found any damage, or whose log is
    /// unsealed, with the typed error for the first anomaly.
    fn strict(self) -> Result<SpillSource, SpillError> {
        if let Some(q) = self.report.quarantined.first() {
            return Err(match q.reason {
                // Uncommitted chunks are quarantined only after a clean
                // walk, so every quarantined frame here is one of them.
                QuarantineReason::Uncommitted => SpillError::Uncommitted {
                    chunks: self.committed_chunks + self.report.quarantined.len() as u64,
                    committed: self.committed_chunks,
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
                    chunk: self.committed_chunks,
                    detail: "chunk failed verification against its seal-time meta".into(),
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
        if !self.report.sealed {
            return Err(SpillError::Unsealed {
                committed_chunks: self.committed_chunks,
            });
        }
        Ok(self)
    }

    /// The recovery report from open time. On a strict source it covers
    /// what the open checked — frames, tallies, meta bounds and the `rank`
    /// and `node` columns; the rest of each chunk's content is verified by
    /// the decode that consumes it.
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

    /// Materialize the committed prefix as an in-memory [`ChunkedTrace`]
    /// (the whole-trace loaders' path; defeats the memory bound by design).
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
    /// cheaply (word-wise XXH64 costs a fraction of the read and decode)
    /// in case the file changed underneath us. Chunk content is not
    /// decoded here: on a strict source the consumer's decode verifies it
    /// (`TraceProfile::streaming_source` checks each decoded chunk against
    /// its meta).
    fn scan_chunks(&self, f: &mut dyn FnMut(&CompressedChunk)) -> Result<(), SpillError> {
        let mut file = File::open(&self.path)?;
        let file_len = file.metadata()?.len();
        let mut head = [0u8; 19];
        file.read_exact(&mut head)?;
        let mut frames = Frames::new(file, file_len);
        let mut frame_idx = 0u64;
        let mut handed = 0u64;
        while handed < self.committed_chunks {
            let at = frames.pos;
            let torn = |detail: &str| SpillError::Torn {
                offset: at,
                detail: detail.into(),
            };
            let kind = match frames.next() {
                Ok(Some(kind)) => kind,
                Ok(None) => break,
                Err(FrameError::Short) => return Err(torn("file shrank since open")),
                Err(FrameError::PastEnd) => return Err(torn("frame runs past end of file")),
                Err(FrameError::BadChecksum) => {
                    return Err(SpillError::BadChecksum {
                        frame: frame_idx,
                        offset: at,
                    })
                }
                Err(FrameError::Io(e)) => return Err(e.into()),
            };
            if kind == FRAME_CHUNK {
                let (rows, meta, cols) = parse_chunk_payload(&frames.payload, self.chunk_rows)
                    .map_err(|detail| SpillError::Malformed {
                        frame: frame_idx,
                        offset: at,
                        detail,
                    })?;
                let chunk = CompressedChunk::from_parts(rows, meta, cols.map(<[u8]>::to_vec));
                f(&chunk);
                handed += 1;
            }
            frame_idx += 1;
        }
        if handed != self.committed_chunks {
            return Err(SpillError::Torn {
                offset: frames.pos,
                detail: format!(
                    "expected {} committed chunk(s), found {handed}",
                    self.committed_chunks
                ),
            });
        }
        Ok(())
    }
}

/// Strict v4 load: the log must be sealed and anomaly-free. Every chunk
/// is decoded and checked against its meta before the trace is returned,
/// because callers may trust the metas of the chunks they get.
pub fn load_spill(path: &Path) -> Result<ChunkedTrace, SpillError> {
    SpillSource::open(path, Verify::Decode)?
        .strict()?
        .to_chunked()
}

/// Salvage v4 load: recover the longest committed prefix and report how
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
        assert_eq!(loaded.len(), 0);
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
    fn frame_checksum_matches_published_xxh64_vectors() {
        assert_eq!(frame_checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(frame_checksum(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(frame_checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            frame_checksum(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        assert_eq!(xxh64(b"xxhash", 20_141_025), 0xb559_b98d_844e_0635);
    }

    /// 103 bytes = three stripes + a 4-byte word + 3 bytes; 111 bytes adds
    /// an 8-byte word. Between them every bit of the stripe loop and of all
    /// three tail paths is flipped, and every flip must show.
    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        for (len, seed) in [(103usize, 1u64), (111, 2)] {
            let mut payload: Vec<u8> = (0..len as u64)
                .map(|i| scramble(seed << 32 | i) as u8)
                .collect();
            let clean = frame_checksum(&payload);
            for byte in 0..len {
                for bit in 0..8 {
                    payload[byte] ^= 1 << bit;
                    assert_ne!(
                        frame_checksum(&payload),
                        clean,
                        "len {len}: flip of bit {bit} in byte {byte} went unseen"
                    );
                    payload[byte] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn v3_log_is_refused_by_name() {
        let dir = tmp_dir("v3");
        let old = dir.join("old.vsp3");
        let mut preamble = b"vanispill3\n".to_vec();
        preamble.extend_from_slice(&64u64.to_le_bytes());
        assert_eq!(preamble.len(), 19);
        fs::write(&old, &preamble).expect("writes");
        for err in [
            fsck(&old).expect_err("v3 is not read"),
            SpillSource::open_salvaged(&old)
                .map(|_| ())
                .expect_err("v3 is not read"),
            load_spill(&old).map(|_| ()).expect_err("v3 is not read"),
            load_spill_salvaged(&old)
                .map(|_| ())
                .expect_err("v3 is not read"),
        ] {
            match err {
                SpillError::NotSpill { detail } => {
                    assert!(detail.contains("v3") && detail.contains("no longer read"))
                }
                other => panic!("expected NotSpill, got {other}"),
            }
        }
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
