//! Communicators and an analytic MPI collective cost model.
//!
//! The simulation does not move real messages; collectives are modeled with
//! the standard log-tree latency/bandwidth formulas (Hockney-style), which is
//! enough to reproduce the synchronization and aggregation delays the paper
//! attributes to collective I/O.

use crate::topology::{NodeSpec, RankId};
use sim_core::Dur;

/// Identifies a communicator. Communicator 0 is always `MPI_COMM_WORLD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommId(pub u32);

impl CommId {
    /// The world communicator.
    pub const WORLD: CommId = CommId(0);
}

/// A group of ranks that synchronize together.
#[derive(Debug, Clone, PartialEq)]
pub struct Communicator {
    /// This communicator's id.
    pub id: CommId,
    /// Member ranks (sorted, unique).
    pub ranks: Vec<RankId>,
}

impl Communicator {
    /// Build a communicator over the given ranks.
    pub fn new(id: CommId, mut ranks: Vec<RankId>) -> Self {
        ranks.sort_unstable();
        ranks.dedup();
        assert!(!ranks.is_empty(), "communicator must have members");
        Communicator { id, ranks }
    }

    /// Number of member ranks.
    pub(crate) fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Whether a rank belongs to this communicator.
    pub(crate) fn contains(&self, r: RankId) -> bool {
        self.ranks.binary_search(&r).is_ok()
    }
}

/// The collective operations the engine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Pure synchronization.
    Barrier,
    /// Root sends `bytes` to every member.
    Bcast,
    /// Every member sends `bytes` to the root.
    Gather,
    /// Reduction of `bytes` across members, result everywhere.
    AllReduce,
    /// Every member exchanges `bytes` with every other member.
    AllToAll,
}

/// Hockney-style analytic cost model for collectives.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiCostModel {
    /// Per-message fabric latency.
    pub latency: Dur,
    /// Per-link bandwidth in bytes/second.
    pub bandwidth: u64,
}

impl MpiCostModel {
    /// Derive the model from node hardware.
    pub fn from_node(node: &NodeSpec) -> Self {
        MpiCostModel {
            latency: node.nic_latency,
            bandwidth: node.nic_bw,
        }
    }

    fn log2_ceil(n: usize) -> u64 {
        debug_assert!(n >= 1);
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }

    /// Time from the moment the last rank arrives until the collective
    /// completes for all ranks.
    pub fn cost(&self, kind: CollectiveKind, comm_size: usize, bytes: u64) -> Dur {
        if comm_size <= 1 {
            return Dur::ZERO;
        }
        let rounds = Self::log2_ceil(comm_size);
        let hop = |b: u64| self.latency + Dur::for_transfer(b, self.bandwidth);
        match kind {
            CollectiveKind::Barrier => self.latency * rounds,
            CollectiveKind::Bcast => hop(bytes) * rounds,
            // Gather serializes (n-1) messages into the root's link.
            CollectiveKind::Gather => {
                self.latency * rounds
                    + Dur::for_transfer(bytes * (comm_size as u64 - 1), self.bandwidth)
            }
            CollectiveKind::AllReduce => hop(bytes) * (2 * rounds),
            // Pairwise exchange: n-1 rounds each moving `bytes`.
            CollectiveKind::AllToAll => hop(bytes) * (comm_size as u64 - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MpiCostModel {
        MpiCostModel {
            latency: Dur::from_micros(5),
            bandwidth: 1 << 30, // 1 GiB/s
        }
    }

    #[test]
    fn communicator_dedups_and_sorts() {
        let c = Communicator::new(CommId(1), vec![RankId(3), RankId(1), RankId(3)]);
        assert_eq!(c.ranks, vec![RankId(1), RankId(3)]);
        assert_eq!(c.size(), 2);
        assert!(c.contains(RankId(3)));
        assert!(!c.contains(RankId(2)));
    }

    #[test]
    fn singleton_collectives_are_free() {
        let m = model();
        for kind in [
            CollectiveKind::Barrier,
            CollectiveKind::Bcast,
            CollectiveKind::Gather,
            CollectiveKind::AllReduce,
            CollectiveKind::AllToAll,
        ] {
            assert_eq!(m.cost(kind, 1, 1 << 20), Dur::ZERO);
        }
    }

    #[test]
    fn barrier_scales_logarithmically() {
        let m = model();
        let b2 = m.cost(CollectiveKind::Barrier, 2, 0);
        let b1024 = m.cost(CollectiveKind::Barrier, 1024, 0);
        assert_eq!(b2, Dur::from_micros(5));
        assert_eq!(b1024, Dur::from_micros(50)); // log2(1024) = 10 rounds
    }

    #[test]
    fn bcast_moves_bytes_per_round() {
        let m = model();
        // 1 GiB over 1 GiB/s = 1 s per hop; 4 ranks = 2 rounds.
        let c = m.cost(CollectiveKind::Bcast, 4, 1 << 30);
        let expect = (Dur::from_micros(5) + Dur::from_secs(1)) * 2;
        assert_eq!(c, expect);
    }

    #[test]
    fn gather_serializes_at_root() {
        let m = model();
        // 8 ranks gathering 1 MiB each: root receives 7 MiB.
        let c = m.cost(CollectiveKind::Gather, 8, 1 << 20);
        let xfer = Dur::for_transfer(7 << 20, 1 << 30);
        assert_eq!(c, Dur::from_micros(15) + xfer);
    }

    #[test]
    fn allreduce_is_twice_bcast_shape() {
        let m = model();
        let ar = m.cost(CollectiveKind::AllReduce, 16, 4096);
        let bc = m.cost(CollectiveKind::Bcast, 16, 4096);
        assert_eq!(ar, bc * 2);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(MpiCostModel::log2_ceil(1), 0);
        assert_eq!(MpiCostModel::log2_ceil(2), 1);
        assert_eq!(MpiCostModel::log2_ceil(3), 2);
        assert_eq!(MpiCostModel::log2_ceil(1280), 11);
    }
}
