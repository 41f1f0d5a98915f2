//! The node-local storage tier: tmpfs at `/dev/shm`.
//!
//! Each node owns an independent namespace — a file written to `/dev/shm`
//! on node 3 is invisible on node 5, exactly the property the paper's
//! Montage optimization exploits (intermediate files are produced and
//! consumed on the same node).
//!
//! Timing model: a per-node [`BandwidthChannel`] serializes access at the
//! tier's aggregate bandwidth with a per-op latency; there is no metadata
//! service, which is precisely why moving metadata-heavy workloads here wins
//! so dramatically in Figures 7 and 8.

use crate::err::IoErr;
use crate::file::{ContentView, FileKey, FileStore, Window};
use hpc_cluster::topology::NodeId;
use sim_core::units::GIB;
use sim_core::{BandwidthChannel, Dur, SimTime};

/// Mount point of the tier.
pub(crate) const MOUNT: &str = "/dev/shm";

/// Per-node bandwidth, bytes/second (Lassen `/dev/shm`, Table VIII).
const BW: u64 = 32 * GIB;

/// Per-operation latency: the VFS + tmpfs syscall path with first-touch
/// page faults, not a raw memcpy.
const LATENCY: Dur = Dur::from_micros(8);

/// One node's local file system instance.
#[derive(Debug)]
pub struct NodeLocalFs {
    stores: Vec<FileStore>,
    channels: Vec<BandwidthChannel>,
    bytes_read: u64,
    bytes_written: u64,
}

impl NodeLocalFs {
    /// Build the tier across `n_nodes` nodes with `memory_bytes` of RAM
    /// each; like tmpfs by default, each node's capacity is half of it.
    pub(crate) fn new(n_nodes: usize, memory_bytes: u64) -> Self {
        NodeLocalFs {
            stores: (0..n_nodes)
                .map(|_| FileStore::with_capacity(memory_bytes / 2))
                .collect(),
            channels: (0..n_nodes)
                .map(|_| BandwidthChannel::new(BW, LATENCY))
                .collect(),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Bytes read / written across nodes.
    pub fn bytes_moved(&self) -> (u64, u64) {
        (self.bytes_read, self.bytes_written)
    }

    /// The namespace of one node.
    pub(crate) fn store(&self, node: NodeId) -> &FileStore {
        &self.stores[node.0 as usize]
    }

    /// Mutable namespace of one node (for preload passes).
    pub fn store_mut(&mut self, node: NodeId) -> &mut FileStore {
        &mut self.stores[node.0 as usize]
    }

    /// Charge the node's channel for `bytes` without touching any file —
    /// used by preload passes that install content via snapshots but still
    /// need the transfer time accounted.
    pub fn touch(&mut self, node: NodeId, bytes: u64, now: SimTime) -> SimTime {
        self.bytes_written += bytes;
        self.charge(node, bytes, now)
    }

    fn charge(&mut self, node: NodeId, bytes: u64, now: SimTime) -> SimTime {
        self.channels[node.0 as usize].transfer(now, bytes)
    }

    /// Open or create; node-local metadata is a memory operation — the only
    /// cost is the channel latency.
    pub(crate) fn open(
        &mut self,
        node: NodeId,
        path: &str,
        create: bool,
        exclusive: bool,
        now: SimTime,
    ) -> Result<(FileKey, SimTime), IoErr> {
        let end = self.charge(node, 0, now);
        let store = &mut self.stores[node.0 as usize];
        let key = if create {
            store.create(path, exclusive)?
        } else {
            store.lookup(path).ok_or(IoErr::NotFound)?
        };
        if store.get(key)?.is_dir {
            return Err(IoErr::IsDir);
        }
        Ok((key, end))
    }

    /// Stat.
    pub(crate) fn stat(
        &mut self,
        node: NodeId,
        path: &str,
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        let end = self.charge(node, 0, now);
        let store = &self.stores[node.0 as usize];
        let key = store.lookup(path).ok_or(IoErr::NotFound)?;
        Ok((store.size_of(key)?, end))
    }

    /// Unlink.
    pub(crate) fn unlink(
        &mut self,
        node: NodeId,
        path: &str,
        now: SimTime,
    ) -> Result<SimTime, IoErr> {
        let end = self.charge(node, 0, now);
        self.stores[node.0 as usize].unlink(path)?;
        Ok(end)
    }

    /// Write a run of windows end to end as one operation.
    pub(crate) fn write(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        run: &[Window],
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        let n = self.stores[node.0 as usize].write_run(key, offset, run)?;
        self.bytes_written += n;
        let end = self.charge(node, n, now);
        Ok((n, end))
    }

    /// Read: a zero-copy view of the bytes read and the completion time.
    pub(crate) fn read_view(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(ContentView, SimTime), IoErr> {
        let view = self.stores[node.0 as usize].view(key, offset, len)?;
        self.bytes_read += view.len();
        let end = self.charge(node, view.len(), now);
        Ok((view, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::Segment;
    use sim_core::units::{KIB, MIB};

    fn shm() -> NodeLocalFs {
        NodeLocalFs::new(2, 256 * GIB)
    }

    #[test]
    fn namespaces_are_per_node() {
        let mut fs = shm();
        let (_, t) = fs
            .open(NodeId(0), "/dev/shm/x", true, false, SimTime::ZERO)
            .unwrap();
        // Node 1 cannot see node 0's file.
        assert_eq!(
            fs.open(NodeId(1), "/dev/shm/x", false, false, t)
                .unwrap_err(),
            IoErr::NotFound
        );
    }

    #[test]
    fn shm_is_orders_of_magnitude_faster_than_pfs_small_io() {
        let mut fs = shm();
        let (k, t) = fs
            .open(NodeId(0), "/dev/shm/f", true, false, SimTime::ZERO)
            .unwrap();
        let mut t = t;
        let start = t;
        for i in 0..1000u64 {
            let (_, e) = fs
                .write(NodeId(0), k, i * 4096, &[Window::pattern(1, 0, 4096)], t)
                .unwrap();
            t = e;
        }
        let bw = t.since(start).bandwidth(1000 * 4096);
        // 4 KiB per ~8 µs ≈ 480 MiB/s — versus ~40 MiB/s for the same
        // access pattern on the PFS (an order of magnitude apart).
        assert!(bw > 256.0 * MIB as f64, "bw {bw}");
    }

    #[test]
    fn capacity_is_per_node() {
        let mut fs = NodeLocalFs::new(2, 2 * MIB);
        let (k, t) = fs
            .open(NodeId(0), "/dev/shm/f", true, false, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            fs.write(NodeId(0), k, 0, &[Window::pattern(1, 0, 2 * MIB)], t)
                .unwrap_err(),
            IoErr::NoSpace
        );
        // Node 1 has its own budget.
        let (k1, t1) = fs.open(NodeId(1), "/dev/shm/f", true, false, t).unwrap();
        assert!(fs
            .write(NodeId(1), k1, 0, &[Window::pattern(1, 0, 512 * KIB)], t1)
            .is_ok());
    }

    #[test]
    fn read_back_what_was_written() {
        let mut fs = shm();
        let (k, t) = fs
            .open(NodeId(0), "/dev/shm/d", true, false, SimTime::ZERO)
            .unwrap();
        let (_, t2) = fs
            .write(
                NodeId(0),
                k,
                0,
                &[Segment::Bytes(std::sync::Arc::new(b"payload".to_vec())).into()],
                t,
            )
            .unwrap();
        let (view, _) = fs.read_view(NodeId(0), k, 0, 7, t2).unwrap();
        assert_eq!(view.to_vec(), b"payload");
    }

    #[test]
    fn stat_unlink_cycle() {
        let mut fs = shm();
        let (k, t) = fs
            .open(NodeId(0), "/dev/shm/s", true, false, SimTime::ZERO)
            .unwrap();
        let (_, t2) = fs
            .write(NodeId(0), k, 0, &[Window::pattern(9, 0, 123)], t)
            .unwrap();
        let (sz, t3) = fs.stat(NodeId(0), "/dev/shm/s", t2).unwrap();
        assert_eq!(sz, 123);
        let t4 = fs.unlink(NodeId(0), "/dev/shm/s", t3).unwrap();
        assert!(fs.stat(NodeId(0), "/dev/shm/s", t4).is_err());
    }
}
