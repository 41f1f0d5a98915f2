//! # io-layers
//!
//! Re-implementations of the I/O interface stack the paper's workloads use,
//! running over the simulated storage substrate and traced at every level:
//!
//! * [`world`] — [`world::IoWorld`], the engine world: job allocation,
//!   storage system, tracer, and per-process state (descriptor tables),
//! * [`posix`] — POSIX syscalls (open/read/write/lseek/fsync/stat/unlink)
//!   with per-process fd tables and fd exhaustion,
//! * [`stdio`] — buffered C stdio (`fopen`/`fread`/`fwrite`): user-space
//!   buffering that coalesces small calls into buffer-sized POSIX ops,
//! * [`mpiio`] — MPI-IO: independent and collective (two-phase, `cb_nodes`
//!   aggregators) file access with collective metadata amplification,
//! * [`hdf5`] — an HDF5-like self-describing container (superblock, object
//!   headers, contiguous or chunked datasets, per-process chunk cache),
//! * [`npy`] — the NumPy `.npy` array format over stdio,
//! * [`fits`] — FITS (2880-byte blocks, 80-byte header cards) over stdio,
//! * [`resilience`] — the retry/backoff interceptor that absorbs transient
//!   storage faults and records `Fault`/`Retry` middleware trace spans.
//!
//! Every call takes and returns simulated time and appends multi-level
//! trace records, so one `fwrite` may produce a `Stdio` record plus the
//! `Posix` record of the flush it triggered — exactly Recorder's view.

pub mod fits;
pub mod hdf5;
pub mod mpiio;
pub mod npy;
pub mod posix;
pub mod resilience;
pub mod stdio;
pub mod world;

pub use posix::{Fd, OpenFlags};
pub use resilience::{Resilience, RetryPolicy};
pub use world::IoWorld;
