//! # recorder-sim
//!
//! A Recorder-2.0-like multi-level tracer for the simulated stack.
//!
//! The paper chose Recorder over Darshan because it captures *multi-level*
//! traces — every I/O call at every interface layer, plus CPU, GPU, and MPI
//! events — rather than aggregate counters. This crate reproduces that
//! capture model:
//!
//! * [`record`] — the trace schema: one [`record::TraceRecord`] per call,
//!   tagged with rank, node, application, interface layer, operation kind,
//!   file, offset, byte count, and the simulated start/end instants,
//! * [`tracer`] — the row-major capture sink the layers write into during a
//!   run (with an optional per-record overhead model reproducing the 8 %
//!   runtime overhead the paper reports),
//! * [`columnar`] — the row-major → column-major conversion that mirrors the
//!   paper's Recorder-log → parquet step, with the filter/group-by kernels
//!   the Vani analyzer runs over the columns (parallel via `vani_rt::par`),
//! * [`codec`] — delta/RLE/raw column codecs for sealed row groups,
//! * [`chunk`] — chunked capture: fixed-size row groups sealed and
//!   compressed as the run emits records, so peak uncompressed trace bytes
//!   stay bounded regardless of trace length (tracked by a process-wide
//!   peak gauge),
//! * [`spill`] — the crash-consistent on-disk segment log (spill format
//!   v4), the one persisted trace format: sealed chunks stream to an
//!   append-only, checksummed, fsync-pointed file so traces larger than
//!   RAM survive capture, with strict and salvaging loaders, a seeded
//!   fault-injection plan and an fsck recovery pass.

pub mod chunk;
pub mod codec;
pub mod columnar;
pub mod record;
pub mod spill;
pub mod tracer;

pub use chunk::{ChunkMeta, ChunkedTrace, CompressedChunk, DEFAULT_CHUNK_ROWS, RING_SLOTS};
pub use columnar::ColumnarTrace;
pub use record::{AppId, FileId, Layer, OpKind, TraceRecord};
pub use spill::{
    ChunkSource, FsckReport, SpillError, SpillFaultKind, SpillFaultPlan, SpillSource, SpillSummary,
    SpillWriter, TraceCompleteness,
};
pub use tracer::Tracer;
