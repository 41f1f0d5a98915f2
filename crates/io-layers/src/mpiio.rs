//! MPI-IO over POSIX: independent and collective file access.
//!
//! Collective ("two-phase") I/O is modeled with ROMIO's structure: a subset
//! of ranks act as aggregators (`cb_nodes`, settable via the
//! `cb_config_list`-style hint the paper cites in §II-B), each moving its
//! share of the collective extent in `cb_buffer_size` chunks, while every
//! participant pays the data-exchange cost. The caller synchronizes the
//! participants with an engine collective around the call — the layer
//! handles per-rank work, the engine handles meeting up.
//!
//! Opening a shared file through MPI-IO is a *collective metadata* event:
//! every rank performs the POSIX open, which is what turns 50 000 shared
//! HDF5 files into the metadata storm CosmoFlow suffers from (Fig. 3).

use crate::posix::{self, Fd, OpenFlags};
use crate::world::IoWorld;
use hpc_cluster::topology::RankId;
use recorder_sim::record::{Layer, OpKind};
use sim_core::units::MIB;
use sim_core::SimTime;
use storage_sim::IoErr;

/// ROMIO-style hints controlling collective buffering.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiIoHints {
    /// Number of aggregator ranks (`cb_nodes`); `None` = one per node.
    pub cb_nodes: Option<u32>,
    /// Collective buffer size per aggregator (`cb_buffer_size`).
    pub cb_buffer_size: u64,
}

impl Default for MpiIoHints {
    fn default() -> Self {
        MpiIoHints {
            cb_nodes: None,
            cb_buffer_size: 16 * MIB,
        }
    }
}

/// Open a file through MPI-IO. Call from every participating rank.
pub fn open(
    w: &mut IoWorld,
    rank: RankId,
    path: &str,
    flags: OpenFlags,
    now: SimTime,
) -> (Result<Fd, IoErr>, SimTime) {
    let t0 = now;
    let (fd, t) = posix::open(w, rank, path, flags, now);
    let path_id = w.tracer.file_id(path);
    let end = w.trace_io(rank, Layer::MpiIo, OpKind::Open, t0, t, Some(path_id), 0, 0);
    (fd, end)
}

/// Close an MPI-IO file.
pub(crate) fn close(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    now: SimTime,
) -> (Result<(), IoErr>, SimTime) {
    let path_id = w.fd(rank, fd).map(|of| of.path_id).ok();
    let (res, t) = posix::close(w, rank, fd, now);
    let end = w.trace_io(rank, Layer::MpiIo, OpKind::Close, now, t, path_id, 0, 0);
    (res, end)
}

/// Independent write at an explicit offset (`MPI_File_write_at`).
pub fn write_at(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    offset: u64,
    len: u64,
    seed: u64,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    let path_id = w.fd(rank, fd).map(|of| of.path_id).ok();
    let (res, t) = posix::write_pattern_at(w, rank, fd, offset, len, seed, now);
    let n = *res.as_ref().unwrap_or(&0);
    let end = w.trace_io(
        rank,
        Layer::MpiIo,
        OpKind::Write,
        now,
        t,
        path_id,
        offset,
        n,
    );
    (res, end)
}

/// The aggregator role a rank plays in a collective operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveRole {
    /// Whether this rank performs file I/O.
    pub is_aggregator: bool,
    /// Byte range of the collective extent this rank covers (aggregators).
    pub range: Option<(u64, u64)>,
}

/// Compute which part of a collective extent a rank serves.
///
/// `extent` is the union byte range `[start, start+len)` of the collective
/// access across `comm_size` ranks; `n_nodes` drives the default `cb_nodes`.
pub fn plan_collective(
    rank_index: u32,
    comm_size: u32,
    n_nodes: u32,
    extent: (u64, u64),
    hints: &MpiIoHints,
) -> CollectiveRole {
    let cb = hints.cb_nodes.unwrap_or(n_nodes).clamp(1, comm_size);
    // Aggregators are the first rank of each of `cb` equal groups.
    let group = comm_size / cb;
    let is_aggregator = group > 0 && rank_index % group == 0 && rank_index / group < cb;
    if !is_aggregator {
        return CollectiveRole {
            is_aggregator: false,
            range: None,
        };
    }
    let agg_index = rank_index / group;
    let (start, len) = extent;
    let share = len.div_ceil(cb as u64);
    let lo = start + agg_index as u64 * share;
    let hi = (lo + share).min(start + len);
    CollectiveRole {
        is_aggregator: true,
        range: (lo < hi).then_some((lo, hi)),
    }
}

/// Execute an aggregator's share of a collective read: issue POSIX reads of
/// `cb_buffer_size` chunks over the assigned range. Non-aggregators return
/// immediately. Returns bytes read and completion time.
pub fn collective_read_part(
    w: &mut IoWorld,
    rank: RankId,
    fd: Fd,
    role: &CollectiveRole,
    hints: &MpiIoHints,
    now: SimTime,
) -> (Result<u64, IoErr>, SimTime) {
    let Some((lo, hi)) = role.range else {
        return (Ok(0), now);
    };
    let path_id = w.fd(rank, fd).map(|of| of.path_id).ok();
    let mut t = now;
    let mut off = lo;
    let mut total = 0u64;
    while off < hi {
        let chunk = (hi - off).min(hints.cb_buffer_size);
        let (res, t2) = posix::read_at(w, rank, fd, off, chunk, t);
        match res {
            Ok(n) => {
                total += n;
                t = t2;
                off += chunk;
            }
            Err(e) => return (Err(e), t2),
        }
    }
    let end = w.trace_io(rank, Layer::MpiIo, OpKind::Read, now, t, path_id, lo, total);
    (Ok(total), end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_assigns_disjoint_covering_ranges() {
        let hints = MpiIoHints {
            cb_nodes: Some(4),
            cb_buffer_size: 1 * MIB,
        };
        let extent = (0u64, 100 * MIB);
        let mut covered = 0u64;
        let mut aggs = 0;
        for r in 0..16u32 {
            let role = plan_collective(r, 16, 4, extent, &hints);
            if let Some((lo, hi)) = role.range {
                assert!(role.is_aggregator);
                covered += hi - lo;
                aggs += 1;
            }
        }
        assert_eq!(aggs, 4);
        assert_eq!(covered, 100 * MIB);
    }

    #[test]
    fn default_cb_nodes_is_node_count() {
        let hints = MpiIoHints::default();
        let mut aggs = 0;
        for r in 0..8u32 {
            if plan_collective(r, 8, 2, (0, 1000), &hints).is_aggregator {
                aggs += 1;
            }
        }
        assert_eq!(aggs, 2);
    }

    #[test]
    fn cb_nodes_clamps_to_comm_size() {
        let hints = MpiIoHints {
            cb_nodes: Some(64),
            cb_buffer_size: MIB,
        };
        let mut aggs = 0;
        for r in 0..4u32 {
            if plan_collective(r, 4, 32, (0, 100), &hints).is_aggregator {
                aggs += 1;
            }
        }
        assert_eq!(aggs, 4);
    }

    #[test]
    fn collective_read_moves_the_assigned_bytes() {
        let mut w = IoWorld::lassen(2, 2, 3);
        let r = RankId(0);
        // Create a 4 MiB file first.
        let (fd, t) = open(
            &mut w,
            r,
            "/p/gpfs1/coll.dat",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let (res, t) = write_at(&mut w, r, fd, 0, 4 * MIB, 5, t);
        assert_eq!(res.unwrap(), 4 * MIB);
        let hints = MpiIoHints {
            cb_nodes: Some(2),
            cb_buffer_size: 1 * MIB,
        };
        let role = plan_collective(0, 4, 2, (0, 4 * MIB), &hints);
        let (n, t2) = collective_read_part(&mut w, r, fd, &role, &hints, t);
        assert_eq!(n.unwrap(), 2 * MIB); // half of the extent
        assert!(t2 > t);
        // Non-aggregator does nothing.
        let role3 = plan_collective(1, 4, 2, (0, 4 * MIB), &hints);
        let (n3, t3) = collective_read_part(&mut w, r, fd, &role3, &hints, t2);
        assert_eq!(n3.unwrap(), 0);
        assert_eq!(t3, t2);
    }

    #[test]
    fn mpiio_layer_records_are_captured() {
        let mut w = IoWorld::lassen(1, 1, 3);
        let r = RankId(0);
        let (fd, t) = open(
            &mut w,
            r,
            "/p/gpfs1/m.dat",
            OpenFlags::write_create(),
            SimTime::ZERO,
        );
        let fd = fd.unwrap();
        let (_, t) = write_at(&mut w, r, fd, 0, 1024, 1, t);
        let (_, _t) = close(&mut w, r, fd, t);
        let mpiio_ops: Vec<OpKind> = w
            .tracer
            .columnar()
            .to_records()
            .iter()
            .filter(|rec| rec.layer == Layer::MpiIo)
            .map(|rec| rec.op)
            .collect();
        assert_eq!(mpiio_ops, vec![OpKind::Open, OpKind::Write, OpKind::Close]);
        // POSIX records exist beneath.
        assert!(w
            .tracer
            .columnar()
            .to_records()
            .iter()
            .any(|rec| rec.layer == Layer::Posix));
    }
}
