//! Deterministic fault-injection plans for the parallel file system.
//!
//! A [`FaultPlan`] is pure data: it *schedules* degradations — NSD server
//! outages, NSD/MDS brownout windows, straggler client nodes, and seeded
//! transient-error rates — but injects nothing by itself. The PFS service
//! model consults the plan at each operation and applies the degradations
//! inside its existing queueing math, so a faulted run is exactly as
//! deterministic as an unfaulted one: every random draw comes from a
//! dedicated `vani_rt::Rng::for_component` stream (`"faults"`) that is only advanced while a
//! plan with nonzero error rates is active. An empty plan is therefore
//! bit-identical to no plan at all.

use sim_core::SimTime;

/// A full outage of one NSD data server over `[from, until)`. Stripes that
/// would route to the server are absorbed by the surviving servers (at the
/// cost of queueing contention); if every server is down the operation
/// fails with [`crate::IoErr::ServerUnavailable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Index of the NSD server (modulo the pool size).
    pub server: u32,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl OutageWindow {
    /// Whether the window covers instant `t`.
    pub(crate) fn covers(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// A brownout: service within `[from, until)` is degraded by a
/// multiplicative `slowdown` (≥ 1). Applied to NSD stripe service or MDS
/// operation cost depending on which list the window sits in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutWindow {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Service-time multiplier while the window is active (≥ 1).
    pub slowdown: f64,
}

impl BrownoutWindow {
    /// Whether the window covers instant `t`.
    pub(crate) fn covers(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// A straggler client node: all of its PFS data transfers are slowed by a
/// constant factor for the whole run (degraded NIC, failing HBA, noisy
/// neighbor — the per-node bandwidth outliers of the paper's Fig. 2c made
/// persistent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Client node index.
    pub node: u32,
    /// Service-time multiplier for the node's transfers (≥ 1).
    pub slowdown: f64,
}

/// What a [`CrashEvent`] takes out: a single rank's process, or a whole
/// client node (every rank it hosts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashScope {
    /// One rank dies (OOM kill, segfault, corrupted process image).
    Rank(u32),
    /// A whole node dies (kernel panic, power loss); the harness resolves
    /// the node index to its hosted ranks.
    Node(u32),
}

impl CrashScope {
    /// Deterministic tie-break key for events at the same instant:
    /// rank crashes before node crashes, then by index.
    pub fn order_key(&self) -> (u8, u32) {
        match *self {
            CrashScope::Rank(r) => (0, r),
            CrashScope::Node(n) => (1, n),
        }
    }
}

/// A fatal crash at a simulated instant. MPI semantics apply: any rank
/// dying kills the whole job, and the harness restarts it from the last
/// durable checkpoint (the scope only attributes the failure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// What dies.
    pub scope: CrashScope,
    /// When it dies.
    pub at: SimTime,
}

/// The complete fault schedule for one run. Pure data; see the module docs
/// for the determinism contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Full NSD server outages.
    pub nsd_outages: Vec<OutageWindow>,
    /// NSD brownouts (degraded stripe service rate).
    pub nsd_brownouts: Vec<BrownoutWindow>,
    /// MDS brownouts (lengthened metadata queueing).
    pub mds_brownouts: Vec<BrownoutWindow>,
    /// Permanently slow client nodes.
    pub stragglers: Vec<Straggler>,
    /// Probability that one data operation attempt fails with
    /// [`crate::IoErr::TransientIo`] before touching the store.
    pub data_error_rate: f64,
    /// Probability that one metadata operation attempt fails with
    /// [`crate::IoErr::ServerUnavailable`] before touching the store.
    pub meta_error_rate: f64,
    /// Fatal rank/node crashes (each kills the job once; the harness
    /// restarts from the last durable checkpoint).
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no degradation at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.nsd_outages.is_empty()
            && self.nsd_brownouts.is_empty()
            && self.mds_brownouts.is_empty()
            && self.stragglers.is_empty()
            && self.data_error_rate <= 0.0
            && self.meta_error_rate <= 0.0
            && self.crashes.is_empty()
    }

    /// Builder: add an NSD server outage window.
    pub fn with_nsd_outage(mut self, server: u32, from: SimTime, until: SimTime) -> Self {
        self.nsd_outages.push(OutageWindow {
            server,
            from,
            until,
        });
        self
    }

    /// Builder: add an NSD brownout window.
    pub fn with_nsd_brownout(mut self, from: SimTime, until: SimTime, slowdown: f64) -> Self {
        self.nsd_brownouts.push(BrownoutWindow {
            from,
            until,
            slowdown,
        });
        self
    }

    /// Builder: add an MDS brownout window.
    pub fn with_mds_brownout(mut self, from: SimTime, until: SimTime, slowdown: f64) -> Self {
        self.mds_brownouts.push(BrownoutWindow {
            from,
            until,
            slowdown,
        });
        self
    }

    /// Builder: mark a client node as a straggler.
    pub fn with_straggler(mut self, node: u32, slowdown: f64) -> Self {
        self.stragglers.push(Straggler { node, slowdown });
        self
    }

    /// Builder: set transient error rates for data and metadata attempts.
    pub fn with_error_rates(mut self, data: f64, meta: f64) -> Self {
        self.data_error_rate = data;
        self.meta_error_rate = meta;
        self
    }

    /// Builder: schedule a single-rank crash at `at`.
    pub fn with_rank_crash(mut self, rank: u32, at: SimTime) -> Self {
        self.crashes.push(CrashEvent {
            scope: CrashScope::Rank(rank),
            at,
        });
        self
    }

    /// Builder: schedule a whole-node crash at `at`.
    pub fn with_node_crash(mut self, node: u32, at: SimTime) -> Self {
        self.crashes.push(CrashEvent {
            scope: CrashScope::Node(node),
            at,
        });
        self
    }

    /// Crash events in deterministic firing order: by instant, ties broken
    /// rank-before-node then by index. The order is a pure function of the
    /// plan, so restart sequences cannot depend on registration order.
    pub fn crashes_sorted(&self) -> Vec<CrashEvent> {
        let mut c = self.crashes.clone();
        c.sort_by_key(|e| (e.at, e.scope.order_key()));
        c
    }

    /// Whether NSD server `server` (already reduced modulo the pool size)
    /// is inside an outage window at `t`.
    pub(crate) fn server_down(&self, server: u32, t: SimTime) -> bool {
        self.nsd_outages
            .iter()
            .any(|o| o.server == server && o.covers(t))
    }

    /// Combined NSD service slowdown at `t` (product of active brownouts;
    /// 1.0 when none are active).
    pub(crate) fn data_slowdown(&self, t: SimTime) -> f64 {
        self.nsd_brownouts
            .iter()
            .filter(|b| b.covers(t))
            .fold(1.0, |acc, b| acc * b.slowdown.max(1.0))
    }

    /// Combined MDS service slowdown at `t`.
    pub(crate) fn mds_slowdown(&self, t: SimTime) -> f64 {
        self.mds_brownouts
            .iter()
            .filter(|b| b.covers(t))
            .fold(1.0, |acc, b| acc * b.slowdown.max(1.0))
    }

    /// Slowdown factor for client node `node` (1.0 when not a straggler).
    pub(crate) fn node_slowdown(&self, node: u32) -> f64 {
        self.stragglers
            .iter()
            .filter(|s| s.node == node)
            .fold(1.0, |acc, s| acc * s.slowdown.max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.server_down(0, t(1)));
        assert_eq!(p.data_slowdown(t(1)), 1.0);
        assert_eq!(p.mds_slowdown(t(1)), 1.0);
        assert_eq!(p.node_slowdown(3), 1.0);
    }

    #[test]
    fn windows_are_half_open() {
        let p = FaultPlan::none()
            .with_nsd_outage(2, t(10), t(20))
            .with_mds_brownout(t(5), t(15), 4.0);
        assert!(!p.is_empty());
        assert!(!p.server_down(2, t(9)));
        assert!(p.server_down(2, t(10)));
        assert!(p.server_down(2, t(19)));
        assert!(!p.server_down(2, t(20)));
        assert!(!p.server_down(1, t(15)));
        assert_eq!(p.mds_slowdown(t(4)), 1.0);
        assert_eq!(p.mds_slowdown(t(5)), 4.0);
        assert_eq!(p.mds_slowdown(t(15)), 1.0);
    }

    #[test]
    fn overlapping_brownouts_compound() {
        let p = FaultPlan::none()
            .with_nsd_brownout(t(0), t(100), 2.0)
            .with_nsd_brownout(t(50), t(100), 3.0);
        assert_eq!(p.data_slowdown(t(10)), 2.0);
        assert_eq!(p.data_slowdown(t(60)), 6.0);
        // Slowdowns below 1 never speed service up.
        let q = FaultPlan::none().with_nsd_brownout(t(0), t(10), 0.25);
        assert_eq!(q.data_slowdown(t(5)), 1.0);
    }

    #[test]
    fn crash_events_fire_in_deterministic_order() {
        let p = FaultPlan::none()
            .with_node_crash(3, t(10))
            .with_rank_crash(9, t(10))
            .with_rank_crash(2, t(5));
        assert!(!p.is_empty());
        let order = p.crashes_sorted();
        assert_eq!(order[0].scope, CrashScope::Rank(2));
        assert_eq!(
            order[1].scope,
            CrashScope::Rank(9),
            "rank crash sorts before node crash"
        );
        assert_eq!(order[2].scope, CrashScope::Node(3));
        // Registration order must not leak into firing order.
        let q = FaultPlan::none()
            .with_rank_crash(2, t(5))
            .with_rank_crash(9, t(10))
            .with_node_crash(3, t(10));
        assert_eq!(q.crashes_sorted(), order);
    }
}
