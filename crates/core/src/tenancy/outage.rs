//! Fleet-level failure domains: whole-node outages with repair times.
//!
//! PR 3/5 gave individual jobs fault and crash planes; this module gives
//! the *fleet* one. A [`NodeFaultPlan`] is a timeline of node outages on
//! the shared cluster, each with a repair instant: while a node is down it
//! leaves the schedulable pool (shrinking what the self-healing scheduler
//! can place onto, see [`super::scheduler::resilient_schedule`]), every
//! job holding the node at the outage instant is killed mid-run, and —
//! because the fleet's storage is rack-co-located with its nodes — the
//! shared PFS serves with proportionally less hardware
//! ([`storage_sim::LoadWindow::capacity`]).
//!
//! # Determinism contract
//!
//! A plan is **pure data**: times are f64 seconds on the fleet clock, the
//! outage list is normalized (sorted by `(at, node)`, zero-length outages
//! dropped) at construction, and every query is a sequential scan. Seeded
//! plans are drawn by `NodeFaultProfile::draw` from the manifest's
//! *fourth* split RNG stream — pick/seed/gap/fault, in that order — so
//! turning node faults on or off can never shift an existing job's
//! template, seed, or submit time (pinned by
//! `vani_rt::rng::tests::fourth_split_stream_is_pinned`). An empty plan is
//! bit-identical to the pre-failure-domain fleet everywhere.

use vani_rt::rng::Rng;
use vani_rt::{FromJson, Json, JsonError, ToJson};

/// One whole-node outage on the fleet clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeOutage {
    /// Node id in `[0, cluster_nodes)`.
    pub node: u32,
    /// Failure instant, seconds.
    pub at: f64,
    /// Repair instant, seconds (exclusive; the node is schedulable again
    /// at `until`). Always `> at` after normalization.
    pub until: f64,
}

/// A deterministic timeline of node outages. Pure data; see module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeFaultPlan {
    /// Outages, sorted by `(at, node)`.
    pub outages: Vec<NodeOutage>,
}

impl NodeFaultPlan {
    /// A perfectly healthy fleet.
    pub fn none() -> Self {
        NodeFaultPlan::default()
    }

    /// Whether the plan carries no outages at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }

    /// Add one outage (builder style): `node` fails at `at` and is
    /// repaired `repair` seconds later. Non-positive or non-finite repair
    /// times are dropped — a zero-length outage kills nothing and blocks
    /// nothing, so representing it would only perturb event ordering.
    pub fn with_outage(mut self, node: u32, at: f64, repair: f64) -> Self {
        if at.is_finite() && repair.is_finite() && at >= 0.0 && repair > 0.0 {
            self.outages.push(NodeOutage {
                node,
                at,
                until: at + repair,
            });
            self.normalize();
        }
        self
    }

    /// Restore the sorted-by-`(at, node)` invariant.
    fn normalize(&mut self) {
        self.outages.sort_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then(a.node.cmp(&b.node))
                .then(a.until.total_cmp(&b.until))
        });
    }

    /// How many *distinct* nodes are down at instant `t` (overlapping
    /// outages of the same node count once).
    pub(crate) fn down_count(&self, t: f64) -> u32 {
        let mut down: Vec<u32> = self
            .outages
            .iter()
            .filter(|o| o.at <= t && t < o.until)
            .map(|o| o.node)
            .collect();
        down.sort_unstable();
        down.dedup();
        down.len() as u32
    }

    /// Every instant the up/down state of some node can change, sorted
    /// ascending and deduplicated — the capacity breakpoints the degraded
    /// interference builder sweeps.
    pub(crate) fn boundaries(&self) -> Vec<f64> {
        let mut ts: Vec<f64> = Vec::with_capacity(self.outages.len() * 2);
        for o in &self.outages {
            ts.push(o.at);
            ts.push(o.until);
        }
        ts.sort_by(f64::total_cmp);
        ts.dedup();
        ts
    }

    /// Total node-hours of capacity the outages remove (per-outage
    /// durations; overlapping outages of one node double-charge, matching
    /// how repair crews bill).
    pub(crate) fn node_hours_down(&self) -> f64 {
        // `+ 0.0` normalizes the empty sum's negative zero so the
        // rendered manifest never shows `-0.0000 node-hours`.
        self.outages
            .iter()
            .map(|o| (o.until - o.at) / 3600.0)
            .sum::<f64>()
            + 0.0
    }

    /// Stable plain-text rendering, one line per outage (digested into the
    /// fleet manifest when non-empty).
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outages {
            out.push_str(&format!(
                "node {:>4} down {:>12.3} s .. {:>12.3} s ({:.3} s repair)\n",
                o.node,
                o.at,
                o.until,
                o.until - o.at
            ));
        }
        out
    }
}

impl ToJson for NodeOutage {
    fn to_json(&self) -> Json {
        Json::obj([
            ("node", Json::Int(self.node as i128)),
            ("at", Json::Float(self.at)),
            ("until", Json::Float(self.until)),
        ])
    }
}

impl FromJson for NodeOutage {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(NodeOutage {
            node: j.decode_field("node")?,
            at: j.decode_field("at")?,
            until: j.decode_field("until")?,
        })
    }
}

impl ToJson for NodeFaultPlan {
    fn to_json(&self) -> Json {
        Json::obj([("outages", self.outages.to_json())])
    }
}

impl FromJson for NodeFaultPlan {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let mut plan = NodeFaultPlan {
            outages: j.decode_field("outages")?,
        };
        plan.normalize();
        plan.outages.retain(|o| o.until > o.at);
        Ok(plan)
    }
}

/// A seeded outage generator: exponential time-between-failures across the
/// whole fleet, uniform victim pick, Weibull repair times (the classic
/// repair-crew distribution — shape < 1 gives the long tail real fleets
/// see). Drawing consumes only the manifest's fourth split stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFaultProfile {
    /// Mean seconds between node failures, fleet-wide.
    pub mean_time_between_failures: f64,
    /// Weibull scale of the repair time, seconds.
    pub mean_repair: f64,
    /// Weibull shape of the repair time (1.0 = exponential repairs).
    pub repair_shape: f64,
    /// Outages to draw.
    pub outages: usize,
}

impl NodeFaultProfile {
    /// The standard degraded fleet `repro -- fleet-sweep --node-faults`
    /// runs: failures arriving on the same order as job inter-arrivals so
    /// a busy fleet sees several, with heavy-tailed half-hour-scale
    /// repairs (scaled alongside the fleet clock by `scale`).
    pub(crate) fn standard(scale: f64) -> Self {
        NodeFaultProfile {
            mean_time_between_failures: 400.0 * scale,
            mean_repair: 1800.0 * scale,
            repair_shape: 0.7,
            outages: 6,
        }
    }

    /// Draw a concrete plan. One sequential pass over `rng` (the fourth
    /// manifest stream), so the same profile + seed always yields the same
    /// timeline regardless of worker count or fleet size.
    pub(crate) fn draw(&self, rng: &mut Rng, cluster_nodes: u32) -> NodeFaultPlan {
        if cluster_nodes == 0 || self.outages == 0 {
            return NodeFaultPlan::none();
        }
        let rate = if self.mean_time_between_failures > 0.0 {
            1.0 / self.mean_time_between_failures
        } else {
            0.0
        };
        let mut plan = NodeFaultPlan::none();
        let mut clock = 0.0f64;
        for _ in 0..self.outages {
            clock += rng.exponential(rate);
            let node = rng.uniform_u64(0, cluster_nodes as u64) as u32;
            let repair = rng.weibull(self.repair_shape, self.mean_repair).max(1.0);
            plan = plan.with_outage(node, clock, repair);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_all_up() {
        let p = NodeFaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.down_count(5.0), 0);
        assert!(p.boundaries().is_empty());
        assert_eq!(p.node_hours_down(), 0.0);
        assert_eq!(p.render(), "");
    }

    #[test]
    fn outage_window_is_half_open() {
        let p = NodeFaultPlan::none().with_outage(2, 10.0, 5.0);
        assert_eq!(p.down_count(9.999), 0);
        assert_eq!(p.down_count(10.0), 1);
        assert_eq!(p.down_count(14.999), 1);
        assert_eq!(p.down_count(15.0), 0);
        assert_eq!(p.boundaries(), vec![10.0, 15.0]);
    }

    #[test]
    fn overlapping_outages_of_one_node_count_once() {
        let p = NodeFaultPlan::none()
            .with_outage(1, 0.0, 10.0)
            .with_outage(1, 5.0, 10.0);
        assert_eq!(p.down_count(7.0), 1);
        assert_eq!(p.down_count(12.0), 1);
        assert_eq!(p.down_count(15.0), 0);
        // But node-hours double-charge by construction.
        assert!((p.node_hours_down() - 20.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn zero_length_and_invalid_outages_are_dropped() {
        let p = NodeFaultPlan::none()
            .with_outage(0, 5.0, 0.0)
            .with_outage(1, f64::NAN, 3.0)
            .with_outage(2, 5.0, f64::INFINITY);
        assert!(p.is_empty());
    }

    #[test]
    fn outages_normalize_to_time_order() {
        let p = NodeFaultPlan::none()
            .with_outage(3, 20.0, 1.0)
            .with_outage(1, 5.0, 1.0);
        assert_eq!(p.outages[0].node, 1);
        assert_eq!(p.outages[1].node, 3);
    }

    #[test]
    fn json_round_trip_preserves_plan() {
        let p = NodeFaultPlan::none()
            .with_outage(0, 1.5, 2.5)
            .with_outage(7, 9.0, 100.0);
        let back = NodeFaultPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn profile_draw_is_deterministic_and_bounded() {
        let prof = NodeFaultProfile::standard(1.0);
        let a = prof.draw(&mut Rng::new(99), 16);
        let b = prof.draw(&mut Rng::new(99), 16);
        assert_eq!(a, b);
        assert_eq!(a.outages.len(), prof.outages);
        for o in &a.outages {
            assert!(o.node < 16);
            assert!(o.until > o.at && o.at >= 0.0);
        }
        // A different seed draws a different timeline.
        assert_ne!(a, prof.draw(&mut Rng::new(100), 16));
    }
}
