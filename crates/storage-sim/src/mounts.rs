//! The per-job storage system: a mount table routing paths to tiers.
//!
//! A compute node sees the shared parallel file system (every path not
//! under `/dev/shm`) plus one node-local tier, tmpfs at `/dev/shm`.
//! [`StorageSystem`] owns both tier simulators and routes timed
//! operations to the right one, the way the kernel's mount table would.

use crate::err::IoErr;
use crate::file::{ContentView, FileKey, Window};
use crate::node_local::{self, NodeLocalFs};
use crate::path as vpath;
use crate::pfs::{GpfsConfig, GpfsSim};
use hpc_cluster::topology::NodeId;
use sim_core::{Dur, SimTime};

/// Which tier a path resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The shared parallel file system.
    Pfs,
    /// The node-local tmpfs at `/dev/shm`.
    Shm,
}

/// A file handle valid across the whole system: tier plus per-tier key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle {
    /// The tier the file lives on.
    pub tier: Tier,
    /// The key within that tier's store.
    pub key: FileKey,
}

/// The complete storage system visible to a job.
pub struct StorageSystem {
    pfs: GpfsSim,
    shm: NodeLocalFs,
}

impl StorageSystem {
    /// A Lassen-like system for `n_nodes`: GPFS at `/p/gpfs1` plus tmpfs at
    /// `/dev/shm` sized from node memory.
    pub fn lassen(n_nodes: usize, seed: u64) -> Self {
        let node = hpc_cluster::topology::NodeSpec::lassen();
        let pfs = GpfsSim::new(
            GpfsConfig::lassen(),
            n_nodes,
            node.nic_bw,
            node.nic_latency,
            seed,
        );
        let shm = NodeLocalFs::new(n_nodes, node.memory_bytes);
        StorageSystem { pfs, shm }
    }

    /// Resolve which tier a path belongs to.
    pub(crate) fn resolve(&self, path: &str) -> Tier {
        if vpath::starts_with_dir(path, node_local::MOUNT) {
            Tier::Shm
        } else {
            Tier::Pfs
        }
    }

    /// Access the PFS simulator.
    pub fn pfs(&self) -> &GpfsSim {
        &self.pfs
    }

    /// Mutable PFS access (reconfiguration, preloading).
    pub fn pfs_mut(&mut self) -> &mut GpfsSim {
        &mut self.pfs
    }

    /// The node-local `/dev/shm` tier.
    pub fn shm(&self) -> &NodeLocalFs {
        &self.shm
    }

    /// Mutable `/dev/shm` access (preloading).
    pub fn shm_mut(&mut self) -> &mut NodeLocalFs {
        &mut self.shm
    }

    /// Current size of the file behind a handle, as `node` sees it (0 when
    /// the key is gone).
    pub fn size_of(&self, node: NodeId, h: FileHandle) -> u64 {
        let store = match h.tier {
            Tier::Pfs => self.pfs.store(),
            Tier::Shm => self.shm.store(node),
        };
        store.size_of(h.key).unwrap_or(0)
    }

    /// Truncate the file behind a handle to zero bytes (`O_TRUNC`). A key
    /// that is already gone is left alone.
    pub fn truncate(&mut self, node: NodeId, h: FileHandle) {
        let store = match h.tier {
            Tier::Pfs => self.pfs.store_mut(),
            Tier::Shm => self.shm.store_mut(node),
        };
        let _ = store.truncate(h.key, 0);
    }

    /// Charge an `fstat` on an open handle: a metadata-server round trip
    /// on the PFS, a memory operation on shm.
    pub fn fstat(&mut self, h: FileHandle, now: SimTime) -> SimTime {
        match h.tier {
            Tier::Pfs => self.pfs.meta_op(now),
            Tier::Shm => now + Dur::from_nanos(400),
        }
    }

    /// Open (optionally create) `path` from `node`.
    pub fn open(
        &mut self,
        node: NodeId,
        path: &str,
        create: bool,
        exclusive: bool,
        now: SimTime,
    ) -> Result<(FileHandle, SimTime), IoErr> {
        let tier = self.resolve(path);
        let (key, end) = match tier {
            Tier::Pfs => self.pfs.open(node, path, create, exclusive, now)?,
            Tier::Shm => self.shm.open(node, path, create, exclusive, now)?,
        };
        Ok((FileHandle { tier, key }, end))
    }

    /// Close a handle.
    pub fn close(&mut self, node: NodeId, h: FileHandle, now: SimTime) -> SimTime {
        match h.tier {
            Tier::Pfs => self.pfs.close(node, h.key, now),
            // Closing a tmpfs file is free.
            Tier::Shm => now,
        }
    }

    /// Write a run of windows, end to end from `offset`, through a handle
    /// as one operation.
    pub fn write(
        &mut self,
        node: NodeId,
        h: FileHandle,
        offset: u64,
        run: &[Window],
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        match h.tier {
            Tier::Pfs => self.pfs.write(node, h.key, offset, run, now),
            Tier::Shm => self.shm.write(node, h.key, offset, run, now),
        }
    }

    /// Read through a handle: a zero-copy view of the bytes read.
    pub fn read_view(
        &mut self,
        node: NodeId,
        h: FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(ContentView, SimTime), IoErr> {
        match h.tier {
            Tier::Pfs => self.pfs.read_view(node, h.key, offset, len, now),
            Tier::Shm => self.shm.read_view(node, h.key, offset, len, now),
        }
    }

    /// Stat a path from a node.
    pub fn stat(
        &mut self,
        node: NodeId,
        path: &str,
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        match self.resolve(path) {
            Tier::Pfs => self.pfs.stat(path, now),
            Tier::Shm => self.shm.stat(node, path, now),
        }
    }

    /// Unlink a path from a node.
    pub fn unlink(&mut self, node: NodeId, path: &str, now: SimTime) -> Result<SimTime, IoErr> {
        match self.resolve(path) {
            Tier::Pfs => self.pfs.unlink(path, now),
            Tier::Shm => self.shm.unlink(node, path, now),
        }
    }

    /// Fsync a handle.
    pub fn fsync(&mut self, _node: NodeId, h: FileHandle, now: SimTime) -> SimTime {
        match h.tier {
            Tier::Pfs => self.pfs.fsync(h.key, now),
            // Node-local tmpfs has nothing to sync.
            Tier::Shm => now + Dur::from_nanos(200),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::Window;

    fn system() -> StorageSystem {
        StorageSystem::lassen(4, 11)
    }

    #[test]
    fn paths_route_to_the_right_tier() {
        let s = system();
        assert_eq!(s.resolve("/p/gpfs1/data/x.h5"), Tier::Pfs);
        assert_eq!(s.resolve("/dev/shm/x"), Tier::Shm);
        assert_eq!(s.resolve("/home/user/file"), Tier::Pfs);
        assert_eq!(s.resolve("/dev/shmmy"), Tier::Pfs); // component-wise match
    }

    #[test]
    fn shm_handle_ops_do_not_touch_pfs() {
        let mut s = system();
        let (h, t) = s
            .open(NodeId(0), "/dev/shm/tmp.dat", true, false, SimTime::ZERO)
            .unwrap();
        assert_eq!(h.tier, Tier::Shm);
        let meta_before = s.pfs().stats().meta_ops;
        let (_, t2) = s
            .write(NodeId(0), h, 0, &[Window::pattern(1, 0, 4096)], t)
            .unwrap();
        s.close(NodeId(0), h, t2);
        assert_eq!(s.pfs().stats().meta_ops, meta_before);
    }

    #[test]
    fn pfs_and_shm_same_basename_are_distinct_files() {
        let mut s = system();
        let (hp, t) = s
            .open(NodeId(0), "/p/gpfs1/f.bin", true, false, SimTime::ZERO)
            .unwrap();
        let (hs, t2) = s.open(NodeId(0), "/dev/shm/f.bin", true, false, t).unwrap();
        let (_, t3) = s
            .write(NodeId(0), hp, 0, &[Window::pattern(1, 0, 100)], t2)
            .unwrap();
        let (got_shm, _) = s.read_view(NodeId(0), hs, 0, 100, t3).unwrap();
        assert_eq!(got_shm.len(), 0, "shm file must be empty");
    }

    #[test]
    fn fsync_cost_differs_by_tier() {
        let mut s = system();
        let (hp, t) = s
            .open(NodeId(0), "/p/gpfs1/f", true, false, SimTime::ZERO)
            .unwrap();
        let (hs, t1) = s.open(NodeId(0), "/dev/shm/f", true, false, t).unwrap();
        let (_, t2) = s
            .write(NodeId(0), hp, 0, &[Window::pattern(1, 0, 1 << 20)], t1)
            .unwrap();
        let (_, t3) = s
            .write(NodeId(0), hs, 0, &[Window::pattern(1, 0, 1 << 20)], t2)
            .unwrap();
        let pfs_sync = s.fsync(NodeId(0), hp, t3).since(t3);
        let shm_sync = s.fsync(NodeId(0), hs, t3).since(t3);
        assert!(pfs_sync > shm_sync * 10);
    }
}
