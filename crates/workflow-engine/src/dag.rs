//! Task DAGs: structure, validation, and analysis.

use std::collections::{HashMap, HashSet, VecDeque};

/// Identifies a task within one DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// One schedulable task (a kernel invocation in Pegasus terms).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Instance name, e.g. `"mProject_0042"`.
    pub name: String,
    /// Executable/kernel name, e.g. `"mProject"` — the paper's app entity.
    pub app: String,
    /// Logical input files.
    pub inputs: Vec<String>,
    /// Logical output files.
    pub outputs: Vec<String>,
}

/// A directed acyclic graph of tasks.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    tasks: Vec<Task>,
    /// deps[t] = tasks that must finish before t starts.
    deps: Vec<Vec<TaskId>>,
    /// children[t] = tasks unlocked by t.
    children: Vec<Vec<TaskId>>,
}

impl Dag {
    /// Empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task; returns its id.
    pub fn add(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(task);
        self.deps.push(Vec::new());
        self.children.push(Vec::new());
        id
    }

    /// Declare that `before` must complete before `after` starts.
    pub fn add_edge(&mut self, before: TaskId, after: TaskId) {
        if !self.deps[after.0 as usize].contains(&before) {
            self.deps[after.0 as usize].push(before);
            self.children[before.0 as usize].push(after);
        }
    }

    /// Infer edges from file relations: a task consuming file `f` depends on
    /// the task producing `f`. This is how Pegasus turns an abstract
    /// workflow into a concrete plan.
    pub fn infer_edges_from_files(&mut self) {
        let mut producer: HashMap<&str, TaskId> = HashMap::new();
        for (i, t) in self.tasks.iter().enumerate() {
            for out in &t.outputs {
                producer.insert(out.as_str(), TaskId(i as u32));
            }
        }
        let mut edges = Vec::new();
        for (i, t) in self.tasks.iter().enumerate() {
            for input in &t.inputs {
                if let Some(&p) = producer.get(input.as_str()) {
                    if p.0 as usize != i {
                        edges.push((p, TaskId(i as u32)));
                    }
                }
            }
        }
        for (a, b) in edges {
            self.add_edge(a, b);
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Access a task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0 as usize]
    }

    /// Direct dependencies of a task.
    pub fn deps_of(&self, id: TaskId) -> &[TaskId] {
        &self.deps[id.0 as usize]
    }

    /// Direct dependents of a task.
    pub(crate) fn children_of(&self, id: TaskId) -> &[TaskId] {
        &self.children[id.0 as usize]
    }

    /// Topological order; `None` if the graph has a cycle.
    pub(crate) fn topo_order(&self) -> Option<Vec<TaskId>> {
        let n = self.tasks.len();
        let mut indeg: Vec<usize> = self.deps.iter().map(Vec::len).collect();
        let mut q: VecDeque<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| indeg[t.0 as usize] == 0)
            .collect();
        let mut out = Vec::with_capacity(n);
        while let Some(t) = q.pop_front() {
            out.push(t);
            for &c in &self.children[t.0 as usize] {
                indeg[c.0 as usize] -= 1;
                if indeg[c.0 as usize] == 0 {
                    q.push_back(c);
                }
            }
        }
        (out.len() == n).then_some(out)
    }

    /// Whether the DAG is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// Tasks grouped by topological level (level = longest path from a
    /// root); the "stages" of the workflow.
    pub fn levels(&self) -> Vec<Vec<TaskId>> {
        let order = self
            .topo_order()
            .expect("levels() requires an acyclic graph");
        let mut level = vec![0usize; self.tasks.len()];
        for &t in &order {
            for &d in &self.deps[t.0 as usize] {
                level[t.0 as usize] = level[t.0 as usize].max(level[d.0 as usize] + 1);
            }
        }
        let max = level.iter().copied().max().unwrap_or(0);
        let mut out = vec![Vec::new(); max + 1];
        for (i, &l) in level.iter().enumerate() {
            out[l].push(TaskId(i as u32));
        }
        out
    }

    /// Length (in tasks) of the longest dependency chain.
    pub fn critical_path_len(&self) -> usize {
        self.levels().len()
    }

    /// Distinct kernel (app) names, in first-appearance order.
    pub fn app_names(&self) -> Vec<&str> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for t in &self.tasks {
            if seen.insert(t.app.as_str()) {
                out.push(t.app.as_str());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(name: &str, app: &str, inputs: &[&str], outputs: &[&str]) -> Task {
        Task {
            name: name.into(),
            app: app.into(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn diamond() -> Dag {
        // a -> b, a -> c, b -> d, c -> d
        let mut g = Dag::new();
        let a = g.add(task("a", "A", &[], &["f1"]));
        let b = g.add(task("b", "B", &["f1"], &["f2"]));
        let c = g.add(task("c", "C", &["f1"], &["f3"]));
        let d = g.add(task("d", "D", &["f2", "f3"], &["f4"]));
        let _ = (a, b, c, d);
        g.infer_edges_from_files();
        g
    }

    #[test]
    fn file_inference_builds_the_diamond() {
        let g = diamond();
        assert!(g.deps_of(TaskId(0)).is_empty());
        assert_eq!(g.deps_of(TaskId(3)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.children_of(TaskId(0)), &[TaskId(1), TaskId(2)]);
        assert!(g.is_acyclic());
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        let pos: Vec<usize> = (0..4)
            .map(|i| order.iter().position(|t| t.0 == i).unwrap())
            .collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn levels_group_parallel_work() {
        let g = diamond();
        let levels = g.levels();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], vec![TaskId(0)]);
        assert_eq!(levels[1], vec![TaskId(1), TaskId(2)]);
        assert_eq!(levels[2], vec![TaskId(3)]);
        assert_eq!(g.critical_path_len(), 3);
    }

    #[test]
    fn cycles_are_detected() {
        let mut g = Dag::new();
        let a = g.add(task("a", "A", &[], &[]));
        let b = g.add(task("b", "B", &[], &[]));
        g.add_edge(a, b);
        g.add_edge(b, a);
        assert!(!g.is_acyclic());
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn app_names_collapse_instances() {
        let mut g = Dag::new();
        for i in 0..4 {
            g.add(task(
                &format!("p{i}"),
                "mProject",
                &["raw.fits"],
                &[&format!("proj{i}")],
            ));
        }
        let inputs: Vec<String> = (0..4).map(|i| format!("proj{i}")).collect();
        let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        g.add(task("add", "mAdd", &input_refs, &["mosaic.fits"]));
        g.infer_edges_from_files();
        assert_eq!(g.app_names(), vec!["mProject", "mAdd"]);
    }

    #[test]
    fn self_produced_inputs_do_not_create_self_edges() {
        let mut g = Dag::new();
        g.add(task("x", "X", &["f"], &["f"]));
        g.infer_edges_from_files();
        assert!(g.is_acyclic());
        assert!(g.deps_of(TaskId(0)).is_empty());
    }
}
