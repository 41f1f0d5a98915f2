//! A pegasus-mpi-cluster-style work queue.
//!
//! pegasus-mpi-cluster runs a whole Pegasus sub-workflow inside one MPI job:
//! a master hands ready tasks to a fixed pool of worker ranks, and task
//! completions release dependents. [`WorkQueue`] is that master's state,
//! designed to be driven from engine rank scripts:
//!
//! * workers call [`WorkQueue::try_claim`]; `None` means "no ready work",
//! * on completion, [`WorkQueue::complete`] releases dependents and bumps
//!   the *wake epoch* — idle workers park on the epoch's gate id and the
//!   completing worker opens it,
//! * [`WorkQueue::all_done`] tells idle workers when to exit.

use crate::dag::{Dag, TaskId};
use std::collections::VecDeque;

/// Task lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Blocked,
    Ready,
    Running,
    Done,
}

/// The scheduler state for one DAG execution.
#[derive(Debug)]
pub struct WorkQueue {
    dag: Dag,
    state: Vec<TaskState>,
    missing_deps: Vec<usize>,
    ready: VecDeque<TaskId>,
    done: usize,
    epoch: u64,
    /// Base value distinguishing this queue's gate ids from other gates.
    gate_base: u64,
}

impl WorkQueue {
    /// Build a queue over a DAG; roots start ready.
    ///
    /// `gate_base` namespaces the wake-gate ids (pick a value unique among
    /// the gates your scripts use).
    pub fn new(dag: Dag, gate_base: u64) -> Self {
        assert!(dag.is_acyclic(), "work queue requires an acyclic DAG");
        let n = dag.len();
        let missing_deps: Vec<usize> = (0..n)
            .map(|i| dag.deps_of(TaskId(i as u32)).len())
            .collect();
        let mut state = vec![TaskState::Blocked; n];
        let mut ready = VecDeque::new();
        for (i, &m) in missing_deps.iter().enumerate() {
            if m == 0 {
                state[i] = TaskState::Ready;
                ready.push_back(TaskId(i as u32));
            }
        }
        WorkQueue {
            dag,
            state,
            missing_deps,
            ready,
            done: 0,
            epoch: 0,
            gate_base,
        }
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Claim the next ready task, marking it running.
    pub fn try_claim(&mut self) -> Option<TaskId> {
        let t = self.ready.pop_front()?;
        debug_assert_eq!(self.state[t.0 as usize], TaskState::Ready);
        self.state[t.0 as usize] = TaskState::Running;
        Some(t)
    }

    /// Mark a task complete; returns the newly-ready tasks. Bumps the wake
    /// epoch when new work (or overall completion) appears.
    pub fn complete(&mut self, t: TaskId) -> Vec<TaskId> {
        assert_eq!(
            self.state[t.0 as usize],
            TaskState::Running,
            "completing a task that is not running"
        );
        self.state[t.0 as usize] = TaskState::Done;
        self.done += 1;
        let mut newly = Vec::new();
        for &c in self.dag.children_of(t) {
            let m = &mut self.missing_deps[c.0 as usize];
            *m -= 1;
            if *m == 0 {
                self.state[c.0 as usize] = TaskState::Ready;
                self.ready.push_back(c);
                newly.push(c);
            }
        }
        if !newly.is_empty() || self.all_done() {
            self.epoch += 1;
        }
        newly
    }

    /// Whether every task has completed.
    pub fn all_done(&self) -> bool {
        self.done == self.dag.len()
    }

    /// The gate id an idle worker should wait on *right now*. The id
    /// changes every time new work appears, so a worker that re-checks
    /// after waking never misses a wake-up.
    pub fn wake_gate(&self) -> u64 {
        self.gate_base + self.epoch
    }

    /// The gate id that must be opened after a `complete` call that changed
    /// the epoch: the gate idle workers were waiting on *before* the bump.
    pub fn gate_to_open_after_complete(&self) -> u64 {
        self.gate_base + self.epoch - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Task;

    fn chain(n: usize) -> Dag {
        let mut g = Dag::new();
        let ids: Vec<TaskId> = (0..n)
            .map(|i| {
                g.add(Task {
                    name: format!("t{i}"),
                    app: "A".into(),
                    inputs: vec![],
                    outputs: vec![],
                })
            })
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    fn fan(n: usize) -> Dag {
        // One root, n independent children, one sink.
        let mut g = Dag::new();
        let root = g.add(Task {
            name: "root".into(),
            app: "R".into(),
            inputs: vec![],
            outputs: vec![],
        });
        let sink = g.add(Task {
            name: "sink".into(),
            app: "S".into(),
            inputs: vec![],
            outputs: vec![],
        });
        for i in 0..n {
            let t = g.add(Task {
                name: format!("w{i}"),
                app: "W".into(),
                inputs: vec![],
                outputs: vec![],
            });
            g.add_edge(root, t);
            g.add_edge(t, sink);
        }
        g
    }

    #[test]
    fn chain_executes_in_order() {
        let mut q = WorkQueue::new(chain(4), 1000);
        let mut executed = Vec::new();
        while !q.all_done() {
            let t = q.try_claim().expect("chain always has one ready task");
            executed.push(t);
            q.complete(t);
        }
        assert_eq!(executed, (0..4).map(TaskId).collect::<Vec<_>>());
    }

    #[test]
    fn fan_exposes_parallelism() {
        let mut q = WorkQueue::new(fan(8), 1000);
        let root = q.try_claim().unwrap();
        assert_eq!(q.try_claim(), None, "only the root is ready initially");
        let newly = q.complete(root);
        assert_eq!(newly.len(), 8);
        assert_eq!(q.ready.len(), 8);
        // All eight can be claimed before any completes.
        let claimed: Vec<_> = (0..8).map(|_| q.try_claim().unwrap()).collect();
        assert_eq!(claimed.len(), 8);
        assert_eq!(q.try_claim(), None);
        for t in claimed {
            q.complete(t);
        }
        let sink = q.try_claim().unwrap();
        q.complete(sink);
        assert!(q.all_done());
    }

    #[test]
    fn epochs_bump_only_when_work_appears() {
        let mut q = WorkQueue::new(fan(2), 50);
        let g0 = q.wake_gate();
        let root = q.try_claim().unwrap();
        q.complete(root); // two workers become ready
        assert_eq!(q.wake_gate(), g0 + 1);
        assert_eq!(q.gate_to_open_after_complete(), g0);
        let a = q.try_claim().unwrap();
        let b = q.try_claim().unwrap();
        q.complete(a); // sink not ready yet (b still running): no bump
        assert_eq!(q.wake_gate(), g0 + 1);
        q.complete(b); // sink ready: bump
        assert_eq!(q.wake_gate(), g0 + 2);
    }

    #[test]
    fn final_completion_bumps_epoch_for_idle_workers() {
        let mut q = WorkQueue::new(chain(1), 7);
        let t = q.try_claim().unwrap();
        let before = q.wake_gate();
        q.complete(t);
        assert!(q.all_done());
        assert_eq!(q.wake_gate(), before + 1, "exit wake-up must fire");
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn completing_unclaimed_task_panics() {
        let mut q = WorkQueue::new(chain(2), 0);
        q.complete(TaskId(1));
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cyclic_dag_is_rejected() {
        let mut g = chain(2);
        g.add_edge(TaskId(1), TaskId(0));
        WorkQueue::new(g, 0);
    }
}
