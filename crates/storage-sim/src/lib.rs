//! # storage-sim
//!
//! The simulated storage substrate under every I/O interface in the suite:
//!
//! * [`err`] — error codes mirroring the POSIX failures the layers surface,
//! * [`faults`] — deterministic fault-injection plans (server outages,
//!   brownouts, stragglers, transient errors) applied by the PFS model,
//! * [`path`] — path normalization shared by all namespaces,
//! * [`file`](mod@file) — inodes, sparse segment maps (windows over immutable
//!   byte-backed or synthetic pattern-backed segments), zero-copy
//!   [`file::ContentView`] reads, and the flat namespace
//!   [`file::FileStore`],
//! * [`pfs`] — a GPFS-like parallel file system: striped data servers,
//!   metadata servers with queueing contention, per-file byte-range lock
//!   queues, and a per-node client write-behind cache,
//! * [`tenancy`] — competing-tenant load schedules the multi-tenant fleet
//!   plane installs so concurrent jobs contend for the shared NSD/MDS
//!   servers,
//! * [`node_local`] — node-local tiers (tmpfs `/dev/shm`, burst buffers),
//! * [`mounts`] — the [`mounts::StorageSystem`] that routes paths to tiers
//!   exactly as a compute node's mount table would.
//!
//! All operations are *timed*: they take the simulated instant at which the
//! calling rank issues the call and return the instant it completes, after
//! queueing on the shared resources. Contention between ranks therefore
//! emerges from call ordering, which the `hpc-cluster` engine guarantees is
//! causal.

pub mod err;
pub mod faults;
pub mod file;
pub mod mounts;
pub mod node_local;
pub mod path;
pub mod pfs;
pub mod tenancy;

pub use err::IoErr;
pub use faults::FaultPlan;
pub use file::{ContentView, FileKey, FileStore, Segment};
pub use mounts::{StorageSystem, Tier};
pub use node_local::{NodeLocalConfig, NodeLocalFs};
pub use pfs::{GpfsConfig, GpfsSim};
pub use tenancy::{InterferenceSchedule, LoadWindow};
