//! The scheduler's test-only oracle: strict first-come-first-served
//! placement as one sequential fold over job ids, restated without the
//! production scheduler's event loop.
//!
//! Job `i` starts at the earliest instant at or after its submit time when
//! every earlier job has already started (admission order is job order)
//! and enough nodes are free. The production scheduler,
//! `resilient_schedule`, admits by `(submit, job id)` instead, so the two
//! agree only when the submits are pre-drawn in non-decreasing order.

use vani_suite::vani::tenancy::{JobDemand, Placement};

/// Place every job FCFS onto `cluster_nodes` nodes, job `i` submitting at
/// `submits[i]`. Panics if a job wants more nodes than the cluster has.
pub fn fcfs_schedule(cluster_nodes: u32, demands: &[JobDemand], submits: &[f64]) -> Vec<Placement> {
    let mut placements: Vec<Placement> = Vec::with_capacity(demands.len());
    // Running set: (estimated end, nodes). Small (bounded by concurrent
    // jobs), so linear scans beat a heap and keep tie-breaking explicit:
    // the earliest end wins, and among equal ends the lowest index (the
    // earliest-admitted job) releases first.
    let mut running: Vec<(f64, u32)> = Vec::new();
    let mut free = cluster_nodes;
    let mut prev_start = 0.0f64;
    for (i, d) in demands.iter().enumerate() {
        assert!(
            d.nodes <= cluster_nodes,
            "job {i} wants {} nodes on a {cluster_nodes}-node cluster",
            d.nodes
        );
        let submit = submits[i];
        // A job never starts before its predecessor.
        let mut t = if submit > prev_start {
            submit
        } else {
            prev_start
        };
        loop {
            // Release everything that has finished by `t`.
            let mut k = 0;
            while k < running.len() {
                if running[k].0 <= t {
                    free += running[k].1;
                    running.swap_remove(k);
                } else {
                    k += 1;
                }
            }
            if free >= d.nodes {
                break;
            }
            // Advance to the earliest outstanding completion.
            let mut next = f64::INFINITY;
            for &(end, _) in &running {
                if end < next {
                    next = end;
                }
            }
            assert!(
                next.is_finite(),
                "deadlock: nothing running but not enough nodes"
            );
            t = next;
        }
        free -= d.nodes;
        let end = t + d.est_runtime.max(0.0);
        running.push((end, d.nodes));
        placements.push(Placement {
            id: i,
            submit,
            start: t,
            end,
        });
        prev_start = t;
    }
    placements
}
