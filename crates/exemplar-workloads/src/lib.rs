//! # exemplar-workloads
//!
//! Faithful I/O-skeleton re-implementations of the paper's six exemplar
//! workloads (§III-B), parameterized by a *scale factor* so tests can run
//! miniature versions while the benches run paper-scale ones:
//!
//! * [`cm1`] — atmospheric simulation: per-rank 16 MiB config reads, then
//!   compute/write steps where only rank 0 writes simulation data in 4 KiB
//!   sequential transfers to shared files (Fig. 1),
//! * [`hacc`] — cosmology checkpoint/restart: file-per-process POSIX, nine
//!   variables written in 16 MiB granularity then read back (Fig. 2),
//! * [`cosmoflow`] — deep-learning input pipeline: ~50 K shared 32 MiB
//!   HDF5 files read collectively through MPI-IO, unchunked, with periodic
//!   small checkpoint writes (Fig. 3),
//! * [`jag`] — AI surrogate over a single 200 MB npy dataset: sub-4 KiB
//!   sample reads through stdio, per-epoch checkpoints, GPU compute (Fig. 4),
//! * [`montage`] — the MPI-flavored mosaic workflow: six stages per node,
//!   FITS inputs at 64 KiB transfers, intermediates at <4 KiB (Fig. 5),
//! * [`montage_pegasus`] — the Pegasus-planned mosaic: nine kernels over a
//!   pegasus-mpi-cluster work queue (Fig. 6),
//! * [`ior`] — an IOR-like synthetic used to calibrate the PFS peak
//!   bandwidth (Table IX's "Max I/O BW using 32-node IOR").
//!
//! Every run returns a [`harness::WorkloadRun`]: the engine report plus the
//! world (trace, storage counters) the Vani analyzer consumes.
//! [`WorkloadKind::run`] launches any kind at a scale and seed under a
//! storage fault plan and a competing-tenant load.

pub mod cm1;
pub mod cosmoflow;
pub mod hacc;
pub mod harness;
pub mod ior;
pub mod jag;
pub mod montage;
pub mod montage_pegasus;

pub use harness::{WorkloadKind, WorkloadRun};
