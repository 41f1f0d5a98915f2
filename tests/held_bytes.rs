//! The simulated file store holds each byte once: files staged with the
//! same header or value prefix share one buffer, and buffered STDIO writes
//! of synthetic data stay pattern windows. `FileStore::held_bytes` counts
//! the bytes that byte-backed segments keep, each buffer once, so these
//! pins are deterministic.

use vani_suite::storage::{FaultPlan, InterferenceSchedule};
use vani_suite::workloads::WorkloadKind;

const KIB: u64 = 1024;

/// Bytes the PFS store holds after a fault-free run of `kind`.
fn pfs_held_bytes(kind: WorkloadKind, scale: f64) -> u64 {
    let run = kind.run(scale, 7, FaultPlan::none(), InterferenceSchedule::none());
    run.world.storage.pfs().store().held_bytes()
}

/// CosmoFlow stages thousands of H5SIM files (4,966 at scale 0.1), each
/// with a 16 KiB value prefix, a superblock and an object header; one copy
/// of each serves them all. A copy per file would hold about 81 MiB.
#[test]
fn cosmoflow_stages_one_copy_of_its_shared_bytes() {
    let held = pfs_held_bytes(WorkloadKind::Cosmoflow, 0.1);
    assert!(held <= 1024 * KIB, "CosmoFlow holds {held} bytes");
}

/// Montage-MPI's intermediates are 4 KiB and 24 KiB synthetic records
/// written through STDIO buffers; they stay pattern windows, so the store
/// holds only FITS headers (2,880 bytes each, one shared by every staged
/// input).
#[test]
fn montage_mpi_holds_only_format_headers() {
    let held = pfs_held_bytes(WorkloadKind::MontageMpi, 0.1);
    assert!(held <= 64 * KIB, "Montage-MPI holds {held} bytes");
}
