//! Node-local storage tiers: tmpfs (`/dev/shm`) and burst buffers.
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
use crate::file::{ContentView, FileKey, FileStore, Segment};
use hpc_cluster::topology::NodeId;
use sim_core::units::GIB;
use sim_core::{BandwidthChannel, Dur, SimTime};

/// Parameters of a node-local tier.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLocalConfig {
    /// Mount point, e.g. "/dev/shm" or "/tmp".
    pub mount: String,
    /// Aggregate per-node bandwidth, bytes/second.
    pub bw: u64,
    /// Per-operation latency.
    pub latency: Dur,
    /// Per-node capacity in bytes.
    pub capacity: u64,
    /// Concurrent operations the controller sustains (reported in the
    /// node-local storage entity, Table VIII).
    pub parallel_ops: u32,
}

impl NodeLocalConfig {
    /// Lassen `/dev/shm`: 32 GiB/s, sub-µs latency, memory-backed
    /// (capacity bounded by node memory; Table VIII).
    pub(crate) fn lassen_shm(memory_bytes: u64) -> Self {
        NodeLocalConfig {
            mount: "/dev/shm".to_string(),
            bw: 32 * GIB,
            // Realistic VFS + tmpfs syscall path with first-touch page faults,
            // not raw memcpy: ~8 µs/op.
            latency: Dur::from_micros(8),
            capacity: memory_bytes / 2, // tmpfs default: half of RAM
            parallel_ops: 64,
        }
    }
}

/// One node's local file system instance.
#[derive(Debug)]
pub struct NodeLocalFs {
    cfg: NodeLocalConfig,
    stores: Vec<FileStore>,
    channels: Vec<BandwidthChannel>,
    bytes_read: u64,
    bytes_written: u64,
}

impl NodeLocalFs {
    /// Build the tier across `n_nodes` nodes.
    pub(crate) fn new(cfg: NodeLocalConfig, n_nodes: usize) -> Self {
        NodeLocalFs {
            stores: (0..n_nodes)
                .map(|_| FileStore::with_capacity(cfg.capacity))
                .collect(),
            channels: (0..n_nodes)
                .map(|_| BandwidthChannel::new(cfg.bw, cfg.latency))
                .collect(),
            bytes_read: 0,
            bytes_written: 0,
            cfg,
        }
    }

    /// The tier's configuration.
    pub(crate) fn config(&self) -> &NodeLocalConfig {
        &self.cfg
    }

    /// Bytes read / written across nodes.
    pub fn bytes_moved(&self) -> (u64, u64) {
        (self.bytes_read, self.bytes_written)
    }

    /// The namespace of one node.
    pub fn store(&self, node: NodeId) -> &FileStore {
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

    /// Close: free.
    pub(crate) fn close(&mut self, _node: NodeId, _key: FileKey, now: SimTime) -> SimTime {
        now
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

    /// Write a segment.
    pub(crate) fn write(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        seg: Segment,
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        let bytes = seg.len();
        let n = self.stores[node.0 as usize].write(key, offset, seg)?;
        self.bytes_written += bytes;
        let end = self.charge(node, bytes, now);
        Ok((n, end))
    }

    /// Timing-only read.
    pub(crate) fn read_len(
        &mut self,
        node: NodeId,
        key: FileKey,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        let got = self.stores[node.0 as usize].readable_len(key, offset, len)?;
        self.bytes_read += got;
        let end = self.charge(node, got, now);
        Ok((got, end))
    }

    /// Content read: a zero-copy view of the bytes read.
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
    use sim_core::units::{KIB, MIB};

    fn shm() -> NodeLocalFs {
        NodeLocalFs::new(NodeLocalConfig::lassen_shm(256 * GIB), 2)
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
                .write(
                    NodeId(0),
                    k,
                    i * 4096,
                    Segment::Pattern { seed: 1, len: 4096 },
                    t,
                )
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
        let mut cfg = NodeLocalConfig::lassen_shm(256 * GIB);
        cfg.capacity = 1 * MIB;
        let mut fs = NodeLocalFs::new(cfg, 2);
        let (k, t) = fs
            .open(NodeId(0), "/dev/shm/f", true, false, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            fs.write(
                NodeId(0),
                k,
                0,
                Segment::Pattern {
                    seed: 1,
                    len: 2 * MIB
                },
                t
            )
            .unwrap_err(),
            IoErr::NoSpace
        );
        // Node 1 has its own budget.
        let (k1, t1) = fs.open(NodeId(1), "/dev/shm/f", true, false, t).unwrap();
        assert!(fs
            .write(
                NodeId(1),
                k1,
                0,
                Segment::Pattern {
                    seed: 1,
                    len: 512 * KIB
                },
                t1
            )
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
                Segment::Bytes(std::sync::Arc::new(b"payload".to_vec())),
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
            .write(NodeId(0), k, 0, Segment::Pattern { seed: 9, len: 123 }, t)
            .unwrap();
        let (sz, t3) = fs.stat(NodeId(0), "/dev/shm/s", t2).unwrap();
        assert_eq!(sz, 123);
        let t4 = fs.unlink(NodeId(0), "/dev/shm/s", t3).unwrap();
        assert!(fs.stat(NodeId(0), "/dev/shm/s", t4).is_err());
    }
}
