//! Node and cluster hardware specifications.
//!
//! The default preset, [`ClusterSpec::lassen`], models the paper's testbed:
//! IBM Power9 nodes with 40 usable cores, 4 V100 GPUs, 256 GB of memory, a
//! 100 Gb/s EDR InfiniBand NIC, and `/dev/shm` as the node-local tier.

use sim_core::units::{GIB, MIB};
use sim_core::Dur;
use std::fmt;

/// Identifies a node within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a process (MPI rank) within a job, numbered globally from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RankId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Display for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// Hardware description of one compute node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Usable CPU cores per node.
    pub cpu_cores: u32,
    /// GPUs per node.
    pub gpus: u32,
    /// System memory in bytes.
    pub memory_bytes: u64,
    /// NIC bandwidth in bytes/second.
    pub nic_bw: u64,
    /// NIC per-message latency.
    pub nic_latency: Dur,
    /// Node-local shared-memory (tmpfs) bandwidth in bytes/second.
    pub shm_bw: u64,
    /// Node-local shared-memory access latency.
    pub shm_latency: Dur,
    /// Maximum concurrent operations the node-local storage controller
    /// sustains (Table VIII: "# parallel ops (controller)").
    pub shm_parallel_ops: u32,
}

impl NodeSpec {
    /// A Lassen-like Power9 node (paper §III-A1, Tables II/VIII).
    pub fn lassen() -> Self {
        NodeSpec {
            cpu_cores: 40,
            gpus: 4,
            memory_bytes: 256 * GIB,
            nic_bw: 12_500 * MIB, // 100 Gb/s EDR InfiniBand
            nic_latency: Dur::from_micros(5),
            shm_bw: 32 * GIB, // Table VIII: 32 GB/s max node-local I/O bandwidth
            shm_latency: Dur::from_nanos(400),
            shm_parallel_ops: 64, // Table VIII: 64 parallel controller ops
        }
    }
}

/// Description of an entire cluster: homogeneous nodes plus fabric limits.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable name ("lassen").
    pub name: String,
    /// Total nodes in the machine.
    pub total_nodes: u32,
    /// Per-node hardware.
    pub node: NodeSpec,
}

impl ClusterSpec {
    /// The paper's testbed: Lassen, 795 nodes (§III-A1).
    pub fn lassen() -> Self {
        ClusterSpec {
            name: "lassen".to_string(),
            total_nodes: 795,
            node: NodeSpec::lassen(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lassen_matches_paper_parameters() {
        let c = ClusterSpec::lassen();
        assert_eq!(c.total_nodes, 795);
        assert_eq!(c.node.cpu_cores, 40);
        assert_eq!(c.node.gpus, 4);
        assert_eq!(c.node.memory_bytes, 256 * GIB);
        assert_eq!(c.node.shm_parallel_ops, 64);
        assert_eq!(c.node.shm_bw, 32 * GIB);
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(RankId(1279).to_string(), "rank1279");
    }
}
