//! Job allocations: the scheduler-facing view of a workload.
//!
//! A [`JobSpec`] is what the user submits (node count, processes per
//! node); a [`JobAlloc`] is the concrete
//! placement the scheduler grants, providing the rank-to-node map every
//! other layer uses.

use crate::topology::{ClusterSpec, NodeId, RankId};

/// A job submission: the resources requested. The storage directories of
/// the paper's job-configuration entity (Table II) are Lassen's fixed
/// mounts, `/dev/shm` and `/p/gpfs1`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Nodes requested.
    pub nodes: u32,
    /// Processes (ranks) per node.
    pub ranks_per_node: u32,
}

impl JobSpec {
    /// A Lassen job of `nodes` × `ranks_per_node` ranks.
    pub fn lassen(nodes: u32, ranks_per_node: u32) -> Self {
        JobSpec {
            nodes,
            ranks_per_node,
        }
    }

    /// Total ranks in the job.
    pub(crate) fn total_ranks(&self) -> u32 {
        self.nodes * self.ranks_per_node
    }
}

/// A granted allocation: nodes held and the rank placement.
///
/// Ranks are placed block-wise: ranks `[i*rpn, (i+1)*rpn)` live on the job's
/// `i`-th node, matching typical `jsrun`/`srun` defaults and the paper's
/// observation that "every first rank per node (i.e. 40, 80, …, 1240)"
/// performs node-level duties in CM1.
#[derive(Debug, Clone, PartialEq)]
pub struct JobAlloc {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Nodes granted, in rank-placement order.
    pub nodes: Vec<NodeId>,
}

impl JobAlloc {
    /// Allocate the first `spec.nodes` nodes of the cluster.
    ///
    /// # Panics
    /// Panics if the cluster is smaller than the request — the caller sized
    /// the experiment wrong, which should fail loudly.
    pub fn allocate(cluster: &ClusterSpec, spec: JobSpec) -> Self {
        assert!(
            spec.nodes <= cluster.total_nodes,
            "job wants {} nodes but {} has {}",
            spec.nodes,
            cluster.name,
            cluster.total_nodes
        );
        assert!(
            spec.ranks_per_node <= cluster.node.cpu_cores,
            "job wants {} ranks/node but nodes have {} cores",
            spec.ranks_per_node,
            cluster.node.cpu_cores
        );
        let nodes = (0..spec.nodes).map(NodeId).collect();
        JobAlloc { spec, nodes }
    }

    /// Total ranks in the job.
    pub fn total_ranks(&self) -> u32 {
        self.spec.total_ranks()
    }

    /// The node a rank runs on.
    pub fn node_of(&self, rank: RankId) -> NodeId {
        let idx = (rank.0 / self.spec.ranks_per_node) as usize;
        self.nodes[idx]
    }

    /// The rank's index within its node (`0..ranks_per_node`).
    pub fn local_rank(&self, rank: RankId) -> u32 {
        rank.0 % self.spec.ranks_per_node
    }

    /// Whether this rank is the first on its node ("node leader").
    pub fn is_node_leader(&self, rank: RankId) -> bool {
        self.local_rank(rank) == 0
    }

    /// All ranks on a given node, in order.
    pub fn ranks_on(&self, node: NodeId) -> Vec<RankId> {
        let idx = self
            .nodes
            .iter()
            .position(|&n| n == node)
            .expect("node not in allocation");
        let rpn = self.spec.ranks_per_node;
        let base = idx as u32 * rpn;
        (base..base + rpn).map(RankId).collect()
    }

    /// Iterate all ranks in the job.
    pub fn ranks(&self) -> impl Iterator<Item = RankId> {
        (0..self.total_ranks()).map(RankId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc_32x40() -> JobAlloc {
        JobAlloc::allocate(&ClusterSpec::lassen(), JobSpec::lassen(32, 40))
    }

    #[test]
    fn block_placement_matches_paper() {
        let a = alloc_32x40();
        assert_eq!(a.total_ranks(), 1280);
        assert_eq!(a.node_of(RankId(0)), NodeId(0));
        assert_eq!(a.node_of(RankId(39)), NodeId(0));
        assert_eq!(a.node_of(RankId(40)), NodeId(1));
        assert_eq!(a.node_of(RankId(1279)), NodeId(31));
        // The paper's CM1 node leaders: ranks 0, 40, 80, ..., 1240.
        for leader in (0..1280).step_by(40) {
            assert!(a.is_node_leader(RankId(leader)));
        }
        assert!(!a.is_node_leader(RankId(41)));
    }

    #[test]
    fn ranks_on_node_are_contiguous() {
        let a = alloc_32x40();
        let r = a.ranks_on(NodeId(2));
        assert_eq!(r.len(), 40);
        assert_eq!(r[0], RankId(80));
        assert_eq!(r[39], RankId(119));
    }

    #[test]
    #[should_panic(expected = "job wants")]
    fn oversubscribed_cores_panic() {
        JobAlloc::allocate(
            &ClusterSpec {
                node: crate::topology::NodeSpec {
                    cpu_cores: 4,
                    ..crate::topology::NodeSpec::lassen()
                },
                ..ClusterSpec::lassen()
            },
            JobSpec::lassen(2, 8),
        );
    }
}
