//! Using the substrate as a library: define a custom three-kernel
//! workflow, execute it with the pegasus-mpi-cluster-style work queue over
//! the simulated cluster, and characterize its I/O.
//!
//! ```text
//! cargo run --release --example custom_workflow
//! ```

use std::cell::RefCell;
use std::rc::Rc;
use vani_suite::cluster::engine::{GateId, Outcome, RankScript, StepEffect};
use vani_suite::cluster::topology::RankId;
use vani_suite::layers::posix::{self, OpenFlags};
use vani_suite::layers::world::IoWorld;
use vani_suite::sim::{Dur, SimTime};
use vani_suite::workflow::dag::{Dag, Task, TaskId};
use vani_suite::workflow::queue::WorkQueue;

/// Build a tiny "generate → transform → merge" workflow.
fn build_dag(n: u32) -> Dag {
    let mut g = Dag::new();
    for i in 0..n {
        g.add(Task {
            name: format!("gen_{i}"),
            app: "generator".into(),
            inputs: vec![],
            outputs: vec![format!("/p/gpfs1/wf/raw_{i}.bin")],
        });
    }
    for i in 0..n {
        g.add(Task {
            name: format!("xform_{i}"),
            app: "transform".into(),
            inputs: vec![format!("/p/gpfs1/wf/raw_{i}.bin")],
            outputs: vec![format!("/p/gpfs1/wf/cooked_{i}.bin")],
        });
    }
    g.add(Task {
        name: "merge".into(),
        app: "merge".into(),
        inputs: (0..n)
            .map(|i| format!("/p/gpfs1/wf/cooked_{i}.bin"))
            .collect(),
        outputs: vec!["/p/gpfs1/wf/result.bin".into()],
    });
    g.infer_edges_from_files();
    g
}

struct Worker {
    q: Rc<RefCell<WorkQueue>>,
    pending: Option<TaskId>,
}

impl RankScript<IoWorld> for Worker {
    fn next_step(&mut self, w: &mut IoWorld, rank: RankId, now: SimTime) -> StepEffect {
        if let Some(tid) = self.pending.take() {
            let mut q = self.q.borrow_mut();
            let newly = q.complete(tid);
            let bumped = !newly.is_empty() || q.all_done();
            let gate = q.gate_to_open_after_complete();
            drop(q);
            let mut eff = StepEffect::busy_until(now);
            if bumped {
                eff.open_gates.push(GateId(gate));
            }
            return eff;
        }
        let claim = self.q.borrow_mut().try_claim();
        match claim {
            Some(tid) => {
                let (app, inputs, outputs) = {
                    let q = self.q.borrow();
                    let t = q.dag().task(tid);
                    (t.app.clone(), t.inputs.clone(), t.outputs.clone())
                };
                w.set_app(rank, &app);
                let mut t = w.compute(rank, Dur::from_millis(50), now);
                for input in &inputs {
                    let (fd, t2) = posix::open(w, rank, input, OpenFlags::read_only(), t);
                    let (_, t3) = posix::read(w, rank, fd.unwrap(), 1 << 20, t2);
                    let (_, t4) = posix::close(w, rank, fd.unwrap(), t3);
                    t = t4;
                }
                for output in &outputs {
                    let (fd, t2) = posix::open(w, rank, output, OpenFlags::write_create(), t);
                    let (_, t3) = posix::write_pattern(w, rank, fd.unwrap(), 1 << 20, 7, t2);
                    let (_, t4) = posix::close(w, rank, fd.unwrap(), t3);
                    t = t4;
                }
                self.pending = Some(tid);
                StepEffect::busy_until(t)
            }
            None => {
                let q = self.q.borrow();
                if q.all_done() {
                    StepEffect::done()
                } else {
                    StepEffect {
                        outcome: Outcome::WaitGate(GateId(q.wake_gate())),
                        open_gates: vec![],
                    }
                }
            }
        }
    }
}

fn main() {
    let dag = build_dag(8);
    println!(
        "workflow: {} tasks across {} kernels, critical path {} levels",
        dag.len(),
        dag.app_names().len(),
        dag.critical_path_len()
    );
    let world = IoWorld::lassen(2, 4, 11);
    let q = Rc::new(RefCell::new(WorkQueue::new(dag, 1 << 40)));
    let scripts: Vec<Box<dyn RankScript<IoWorld>>> = (0..8)
        .map(|_| {
            Box::new(Worker {
                q: Rc::clone(&q),
                pending: None,
            }) as Box<_>
        })
        .collect();
    let cost = vani_suite::cluster::mpi::MpiCostModel::from_node(
        &vani_suite::cluster::topology::ClusterSpec::lassen().node,
    );
    let mut engine = vani_suite::cluster::engine::Engine::new(world, scripts, cost);
    let report = engine.run().expect("workflow must not deadlock");
    println!(
        "workflow completed in {:.3}s simulated",
        report.makespan.as_secs_f64()
    );
    let world = engine.into_world();
    println!("trace: {} records", world.tracer.len());
    assert!(world
        .storage
        .pfs()
        .store()
        .lookup("/p/gpfs1/wf/result.bin")
        .is_some());
    println!("final output exists on the PFS — workflow dependencies held.");
}
