//! Node and cluster hardware specifications.
//!
//! The default preset, [`ClusterSpec::lassen`], models the paper's testbed:
//! IBM Power9 nodes with 40 usable cores, 4 V100 GPUs, 256 GB of memory, a
//! 100 Gb/s EDR InfiniBand NIC, and `/dev/shm` as the node-local tier.

use sim_core::units::{GIB, MIB};
use sim_core::Dur;
use std::fmt;
use vani_rt::{FromJson, Json, JsonError, ToJson};

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

impl ToJson for NodeSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cpu_cores", self.cpu_cores.to_json()),
            ("gpus", self.gpus.to_json()),
            ("memory_bytes", self.memory_bytes.to_json()),
            ("nic_bw", self.nic_bw.to_json()),
            ("nic_latency", self.nic_latency.to_json()),
            ("shm_bw", self.shm_bw.to_json()),
            ("shm_latency", self.shm_latency.to_json()),
            ("shm_parallel_ops", self.shm_parallel_ops.to_json()),
        ])
    }
}

impl FromJson for NodeSpec {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(NodeSpec {
            cpu_cores: j.decode_field("cpu_cores")?,
            gpus: j.decode_field("gpus")?,
            memory_bytes: j.decode_field("memory_bytes")?,
            nic_bw: j.decode_field("nic_bw")?,
            nic_latency: j.decode_field("nic_latency")?,
            shm_bw: j.decode_field("shm_bw")?,
            shm_latency: j.decode_field("shm_latency")?,
            shm_parallel_ops: j.decode_field("shm_parallel_ops")?,
        })
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

impl ToJson for ClusterSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("total_nodes", self.total_nodes.to_json()),
            ("node", self.node.to_json()),
        ])
    }
}

impl FromJson for ClusterSpec {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(ClusterSpec {
            name: j.decode_field("name")?,
            total_nodes: j.decode_field("total_nodes")?,
            node: j.decode_field("node")?,
        })
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

    #[test]
    fn spec_json_round_trip() {
        let c = ClusterSpec::lassen();
        let json = vani_rt::json::to_string(&c);
        let back: ClusterSpec = vani_rt::json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
