//! The trace schema: one record per intercepted call.

use sim_core::SimTime;

/// Interned file identifier; the tracer owns the id → path table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Interned application identifier (workflow step), id → name in the tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u16);

/// The interface layer a call was captured at — Recorder's "multi-level"
/// dimension. One logical application call may produce records at several
/// layers (HDF5 → MPI-IO → POSIX).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// Application-level events (compute, GPU, MPI).
    App,
    /// High-level I/O libraries: HDF5, npy, FITS.
    HighLevel,
    /// MPI-IO.
    MpiIo,
    /// Buffered C stdio.
    Stdio,
    /// POSIX syscalls.
    Posix,
    /// Middleware interceptors (buffering/prefetch/compression), when active.
    Middleware,
}

impl Layer {
    /// Dense integer code used by the columnar codec and the analyzer's
    /// per-layer presence tables. The numbering is part of the on-disk
    /// spill log format (v4): never reorder it.
    #[inline]
    pub fn code(&self) -> u8 {
        match self {
            Layer::App => 0,
            Layer::HighLevel => 1,
            Layer::MpiIo => 2,
            Layer::Stdio => 3,
            Layer::Posix => 4,
            Layer::Middleware => 5,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for out-of-range codes (a
    /// corrupt compressed column).
    pub(crate) fn from_code(code: u8) -> Option<Layer> {
        Some(match code {
            0 => Layer::App,
            1 => Layer::HighLevel,
            2 => Layer::MpiIo,
            3 => Layer::Stdio,
            4 => Layer::Posix,
            5 => Layer::Middleware,
            _ => return None,
        })
    }
}

/// The operation a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Open an existing file.
    Open,
    /// Create (open with creation).
    Create,
    /// Close.
    Close,
    /// Stat / size query.
    Stat,
    /// Seek (metadata: no data moves).
    Seek,
    /// fsync / flush to stable storage.
    Sync,
    /// Unlink.
    Unlink,
    /// Directory creation.
    Mkdir,
    /// CPU compute span.
    Compute,
    /// GPU compute span.
    GpuCompute,
    /// MPI collective (barrier/bcast/…).
    MpiColl,
    /// MPI point-to-point.
    MpiP2p,
    /// A failed I/O attempt absorbed by the resilience middleware; `bytes`
    /// is the payload the attempt carried. Classified as neither data nor
    /// metadata so fault records never perturb the I/O statistics.
    Fault,
    /// The backoff wait before re-submitting a faulted attempt; `bytes` is
    /// the payload re-submitted (feeds retry amplification).
    Retry,
    /// A durable checkpoint: the span covers the whole checkpoint write
    /// sequence (open → writes → close) on the emitting rank. The bytes
    /// moved are already accounted by the underlying write records, so the
    /// marker is neither data nor metadata.
    Checkpoint,
    /// A fatal job crash; the span covers the work lost (last durable
    /// checkpoint → instant of death).
    Crash,
    /// A job restart after a crash; the span covers the recovery latency
    /// (scheduler requeue + relaunch). One per restart epoch.
    RestartEpoch,
}

impl OpKind {
    /// Dense integer code (declaration order) used by the columnar codec.
    /// Part of the on-disk spill log format (v4): append-only.
    pub(crate) fn code(&self) -> u8 {
        match self {
            OpKind::Read => 0,
            OpKind::Write => 1,
            OpKind::Open => 2,
            OpKind::Create => 3,
            OpKind::Close => 4,
            OpKind::Stat => 5,
            OpKind::Seek => 6,
            OpKind::Sync => 7,
            OpKind::Unlink => 8,
            OpKind::Mkdir => 9,
            OpKind::Compute => 10,
            OpKind::GpuCompute => 11,
            OpKind::MpiColl => 12,
            OpKind::MpiP2p => 13,
            OpKind::Fault => 14,
            OpKind::Retry => 15,
            OpKind::Checkpoint => 16,
            OpKind::Crash => 17,
            OpKind::RestartEpoch => 18,
        }
    }

    /// Inverse of [`code`](Self::code); `None` for out-of-range codes.
    pub(crate) fn from_code(code: u8) -> Option<OpKind> {
        Some(match code {
            0 => OpKind::Read,
            1 => OpKind::Write,
            2 => OpKind::Open,
            3 => OpKind::Create,
            4 => OpKind::Close,
            5 => OpKind::Stat,
            6 => OpKind::Seek,
            7 => OpKind::Sync,
            8 => OpKind::Unlink,
            9 => OpKind::Mkdir,
            10 => OpKind::Compute,
            11 => OpKind::GpuCompute,
            12 => OpKind::MpiColl,
            13 => OpKind::MpiP2p,
            14 => OpKind::Fault,
            15 => OpKind::Retry,
            16 => OpKind::Checkpoint,
            17 => OpKind::Crash,
            18 => OpKind::RestartEpoch,
            _ => return None,
        })
    }

    /// Whether this is a data operation (moves file bytes).
    pub fn is_data(&self) -> bool {
        matches!(self, OpKind::Read | OpKind::Write)
    }

    /// Whether this is a file-metadata operation. The paper's "I/O ops dist
    /// (data, meta)" attribute is computed from this split.
    pub fn is_meta(&self) -> bool {
        matches!(
            self,
            OpKind::Open
                | OpKind::Create
                | OpKind::Close
                | OpKind::Stat
                | OpKind::Seek
                | OpKind::Sync
                | OpKind::Unlink
                | OpKind::Mkdir
        )
    }

    /// Whether this is any I/O operation (data or metadata).
    pub fn is_io(&self) -> bool {
        self.is_data() || self.is_meta()
    }
}

/// One captured call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Global rank of the caller.
    pub rank: u32,
    /// Node the caller ran on.
    pub node: u32,
    /// Application (workflow step) the caller belonged to.
    pub app: AppId,
    /// Interface layer of capture.
    pub layer: Layer,
    /// Operation.
    pub op: OpKind,
    /// Call start (simulated).
    pub start: SimTime,
    /// Call end (simulated).
    pub end: SimTime,
    /// File touched, for I/O ops.
    pub file: Option<FileId>,
    /// File offset, for data ops.
    pub offset: u64,
    /// Bytes moved, for data ops (0 for metadata).
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_meta_classification() {
        assert!(OpKind::Read.is_data());
        assert!(OpKind::Write.is_data());
        assert!(!OpKind::Open.is_data());
        assert!(OpKind::Open.is_meta());
        assert!(OpKind::Seek.is_meta());
        assert!(OpKind::Sync.is_meta());
        assert!(!OpKind::Compute.is_io());
        assert!(!OpKind::MpiColl.is_io());
        assert!(OpKind::Unlink.is_io());
        // Fault/retry records must never perturb the data/meta statistics.
        assert!(!OpKind::Fault.is_io());
        assert!(!OpKind::Retry.is_io());
        // Same for the crash-recovery markers: durable-checkpoint spans,
        // crash (work lost) spans, and restart-epoch (recovery) spans.
        assert!(!OpKind::Checkpoint.is_io());
        assert!(!OpKind::Crash.is_io());
        assert!(!OpKind::RestartEpoch.is_io());
    }

    #[test]
    fn layer_and_op_codes_round_trip_and_stay_dense() {
        let layers = [
            Layer::App,
            Layer::HighLevel,
            Layer::MpiIo,
            Layer::Stdio,
            Layer::Posix,
            Layer::Middleware,
        ];
        for (i, l) in layers.iter().enumerate() {
            assert_eq!(l.code() as usize, i, "layer codes are declaration-dense");
            assert_eq!(Layer::from_code(l.code()), Some(*l));
        }
        assert_eq!(Layer::from_code(6), None);
        let ops = [
            OpKind::Read,
            OpKind::Write,
            OpKind::Open,
            OpKind::Create,
            OpKind::Close,
            OpKind::Stat,
            OpKind::Seek,
            OpKind::Sync,
            OpKind::Unlink,
            OpKind::Mkdir,
            OpKind::Compute,
            OpKind::GpuCompute,
            OpKind::MpiColl,
            OpKind::MpiP2p,
            OpKind::Fault,
            OpKind::Retry,
            OpKind::Checkpoint,
            OpKind::Crash,
            OpKind::RestartEpoch,
        ];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.code() as usize, i, "op codes are declaration-dense");
            assert_eq!(OpKind::from_code(op.code()), Some(*op));
        }
        assert_eq!(OpKind::from_code(19), None);
    }
}
