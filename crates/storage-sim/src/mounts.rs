//! The per-job storage system: a mount table routing paths to tiers.
//!
//! A compute node sees the shared parallel file system (every path not
//! claimed by a node-local mount) plus zero or more node-local tiers
//! (`/dev/shm`, `/tmp`). [`StorageSystem`] owns all tier simulators and
//! routes timed operations to the right one, the way the kernel's mount
//! table would.

use crate::err::IoErr;
use crate::file::{ContentView, FileKey, Segment};
use crate::node_local::{NodeLocalConfig, NodeLocalFs};
use crate::path as vpath;
use crate::pfs::{GpfsConfig, GpfsSim};
use hpc_cluster::topology::NodeId;
use sim_core::{Dur, SimTime};

/// Which tier a path resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The shared parallel file system.
    Pfs,
    /// The `i`-th node-local tier in mount order.
    NodeLocal(u8),
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
    locals: Vec<NodeLocalFs>,
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
        let shm = NodeLocalFs::new(NodeLocalConfig::lassen_shm(node.memory_bytes), n_nodes);
        StorageSystem {
            pfs,
            locals: vec![shm],
        }
    }

    /// Resolve which tier a path belongs to.
    pub(crate) fn resolve(&self, path: &str) -> Tier {
        for (i, l) in self.locals.iter().enumerate() {
            if vpath::starts_with_dir(path, &l.config().mount) {
                return Tier::NodeLocal(i as u8);
            }
        }
        Tier::Pfs
    }

    /// Access the PFS simulator.
    pub fn pfs(&self) -> &GpfsSim {
        &self.pfs
    }

    /// Mutable PFS access (reconfiguration, preloading).
    pub fn pfs_mut(&mut self) -> &mut GpfsSim {
        &mut self.pfs
    }

    /// Node-local tiers in mount order.
    pub fn locals(&self) -> &[NodeLocalFs] {
        &self.locals
    }

    /// Mutable node-local access.
    pub fn locals_mut(&mut self) -> &mut [NodeLocalFs] {
        &mut self.locals
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
        match self.resolve(path) {
            Tier::Pfs => {
                let (key, end) = self.pfs.open(node, path, create, exclusive, now)?;
                Ok((
                    FileHandle {
                        tier: Tier::Pfs,
                        key,
                    },
                    end,
                ))
            }
            Tier::NodeLocal(i) => {
                let (key, end) =
                    self.locals[i as usize].open(node, path, create, exclusive, now)?;
                Ok((
                    FileHandle {
                        tier: Tier::NodeLocal(i),
                        key,
                    },
                    end,
                ))
            }
        }
    }

    /// Close a handle.
    pub fn close(&mut self, node: NodeId, h: FileHandle, now: SimTime) -> SimTime {
        match h.tier {
            Tier::Pfs => self.pfs.close(node, h.key, now),
            Tier::NodeLocal(i) => self.locals[i as usize].close(node, h.key, now),
        }
    }

    /// Write a segment through a handle.
    pub fn write(
        &mut self,
        node: NodeId,
        h: FileHandle,
        offset: u64,
        seg: Segment,
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        match h.tier {
            Tier::Pfs => self.pfs.write(node, h.key, offset, seg, now),
            Tier::NodeLocal(i) => self.locals[i as usize].write(node, h.key, offset, seg, now),
        }
    }

    /// Timing-only read through a handle.
    pub fn read_len(
        &mut self,
        node: NodeId,
        h: FileHandle,
        offset: u64,
        len: u64,
        now: SimTime,
    ) -> Result<(u64, SimTime), IoErr> {
        match h.tier {
            Tier::Pfs => self.pfs.read_len(node, h.key, offset, len, now),
            Tier::NodeLocal(i) => self.locals[i as usize].read_len(node, h.key, offset, len, now),
        }
    }

    /// Content read through a handle: a zero-copy view of the bytes read.
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
            Tier::NodeLocal(i) => self.locals[i as usize].read_view(node, h.key, offset, len, now),
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
            Tier::NodeLocal(i) => self.locals[i as usize].stat(node, path, now),
        }
    }

    /// Unlink a path from a node.
    pub fn unlink(&mut self, node: NodeId, path: &str, now: SimTime) -> Result<SimTime, IoErr> {
        match self.resolve(path) {
            Tier::Pfs => self.pfs.unlink(path, now),
            Tier::NodeLocal(i) => self.locals[i as usize].unlink(node, path, now),
        }
    }

    /// Fsync a handle.
    pub fn fsync(&mut self, _node: NodeId, h: FileHandle, now: SimTime) -> SimTime {
        match h.tier {
            Tier::Pfs => self.pfs.fsync(h.key, now),
            // Node-local tmpfs has nothing to sync.
            Tier::NodeLocal(_) => now + Dur::from_nanos(200),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> StorageSystem {
        StorageSystem::lassen(4, 11)
    }

    #[test]
    fn paths_route_to_the_right_tier() {
        let s = system();
        assert_eq!(s.resolve("/p/gpfs1/data/x.h5"), Tier::Pfs);
        assert_eq!(s.resolve("/dev/shm/x"), Tier::NodeLocal(0));
        assert_eq!(s.resolve("/home/user/file"), Tier::Pfs);
        assert_eq!(s.resolve("/dev/shmmy"), Tier::Pfs); // component-wise match
    }

    #[test]
    fn shm_handle_ops_do_not_touch_pfs() {
        let mut s = system();
        let (h, t) = s
            .open(NodeId(0), "/dev/shm/tmp.dat", true, false, SimTime::ZERO)
            .unwrap();
        assert_eq!(h.tier, Tier::NodeLocal(0));
        let meta_before = s.pfs().stats().meta_ops;
        let (_, t2) = s
            .write(NodeId(0), h, 0, Segment::Pattern { seed: 1, len: 4096 }, t)
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
            .write(NodeId(0), hp, 0, Segment::Pattern { seed: 1, len: 100 }, t2)
            .unwrap();
        let (got_shm, _) = s.read_len(NodeId(0), hs, 0, 100, t3).unwrap();
        assert_eq!(got_shm, 0, "shm file must be empty");
    }

    #[test]
    fn fsync_cost_differs_by_tier() {
        let mut s = system();
        let (hp, t) = s
            .open(NodeId(0), "/p/gpfs1/f", true, false, SimTime::ZERO)
            .unwrap();
        let (hs, t1) = s.open(NodeId(0), "/dev/shm/f", true, false, t).unwrap();
        let (_, t2) = s
            .write(
                NodeId(0),
                hp,
                0,
                Segment::Pattern {
                    seed: 1,
                    len: 1 << 20,
                },
                t1,
            )
            .unwrap();
        let (_, t3) = s
            .write(
                NodeId(0),
                hs,
                0,
                Segment::Pattern {
                    seed: 1,
                    len: 1 << 20,
                },
                t2,
            )
            .unwrap();
        let pfs_sync = s.fsync(NodeId(0), hp, t3).since(t3);
        let shm_sync = s.fsync(NodeId(0), hs, t3).since(t3);
        assert!(pfs_sync > shm_sync * 10);
    }
}
