//! The discrete-event engine.
//!
//! Each rank runs a *script* — a state machine that, when asked, performs its
//! next step against the shared world (compute, an I/O call into the storage
//! stack, a collective, or a wait) and reports when it will be ready again.
//! The engine advances ranks in global time order, so resource queues inside
//! the world observe arrivals in causal order, and handles synchronization:
//! collectives over communicators and one-shot *gates* used for cross-rank
//! signalling (task queues, stage completion).
//!
//! The engine is generic over the world type `W`; this crate knows nothing
//! about storage. `io-layers` provides the world used by real workloads.

use crate::mpi::{CollectiveKind, CommId, Communicator, MpiCostModel};
use crate::topology::RankId;
use sim_core::{EventQueue, SimTime};
use std::collections::HashMap;

/// Identifies a one-shot signalling gate. Scripts allocate their own ids;
/// the engine only requires that waiters and openers agree on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub u64);

/// What a rank does next, as reported by its script.
#[derive(Debug)]
pub enum Outcome {
    /// The step occupied the rank until the given instant (compute or I/O
    /// whose completion time the world already determined). Must be `>= now`.
    BusyUntil(SimTime),
    /// The rank entered a collective on `comm`; it resumes when every member
    /// has arrived plus the modeled collective cost.
    Collective {
        /// Communicator to synchronize on.
        comm: CommId,
        /// Which collective.
        kind: CollectiveKind,
        /// Per-member payload bytes.
        bytes: u64,
    },
    /// Park until the gate opens (immediately resumes if already open).
    WaitGate(GateId),
    /// The rank's program is complete.
    Done,
}

/// The full effect of one step: the rank's own outcome plus any gates it
/// opened for others. Gates open before the outcome is applied, so a rank
/// may open the very gate it then waits on.
#[derive(Debug)]
pub struct StepEffect {
    /// What happens to the stepping rank.
    pub outcome: Outcome,
    /// Gates opened by this step.
    pub open_gates: Vec<GateId>,
}

impl StepEffect {
    /// A step that keeps the rank busy until `t`.
    pub fn busy_until(t: SimTime) -> Self {
        StepEffect {
            outcome: Outcome::BusyUntil(t),
            open_gates: Vec::new(),
        }
    }

    /// A step that ends the rank's program.
    pub fn done() -> Self {
        StepEffect {
            outcome: Outcome::Done,
            open_gates: Vec::new(),
        }
    }
}

/// A per-rank program advanced by the engine.
pub trait RankScript<W> {
    /// Perform the rank's next step at time `now` against the world.
    fn next_step(&mut self, world: &mut W, rank: RankId, now: SimTime) -> StepEffect;
}

/// Adapter turning a closure into a [`RankScript`].
pub struct FnScript<F>(pub F);

impl<W, F> RankScript<W> for FnScript<F>
where
    F: FnMut(&mut W, RankId, SimTime) -> StepEffect,
{
    fn next_step(&mut self, world: &mut W, rank: RankId, now: SimTime) -> StepEffect {
        (self.0)(world, rank, now)
    }
}

#[derive(Debug)]
enum RankState {
    Runnable,
    /// Parked in a collective; the payload identifies it for diagnostics.
    InCollective(CommId),
    /// Parked on a gate; the payload identifies it for diagnostics.
    WaitingGate(GateId),
    Finished(SimTime),
}

/// What a deadlocked rank is stuck on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocker {
    /// Waiting on a gate no remaining rank will open.
    Gate(GateId),
    /// Parked in a collective the other members never joined.
    Collective(CommId),
}

/// The event queue drained while ranks were still blocked: a deadlock.
/// Carries each stuck rank and the gate or communicator it waits on, so
/// the failure names the exact synchronization object that never fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockError {
    /// The blocked ranks and what each is waiting on.
    pub blocked: Vec<(RankId, Blocker)>,
}

impl std::fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "deadlock: queue drained with {} rank(s) still blocked:",
            self.blocked.len()
        )?;
        for (rank, b) in &self.blocked {
            match b {
                Blocker::Gate(g) => write!(f, " {rank} waiting on gate {};", g.0)?,
                Blocker::Collective(c) => {
                    write!(f, " {rank} parked in collective on comm {};", c.0)?
                }
            }
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockError {}

/// Why a checked run ([`Engine::run_checked`]) stopped before completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunHalt {
    /// The event queue drained with ranks still blocked.
    Deadlock(DeadlockError),
    /// A scheduled crash fired: `rank` died at `at`. MPI semantics — one
    /// rank dying kills the whole job; the caller decides whether to
    /// restart from a checkpoint.
    Crashed {
        /// The rank whose death killed the job.
        rank: RankId,
        /// The instant of death.
        at: SimTime,
    },
}

impl std::fmt::Display for RunHalt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunHalt::Deadlock(d) => write!(f, "{d}"),
            RunHalt::Crashed { rank, at } => {
                write!(f, "job killed: {rank} crashed at {:.3}s", at.as_secs_f64())
            }
        }
    }
}

impl std::error::Error for RunHalt {}

#[derive(Debug)]
struct CollectiveState {
    kind: CollectiveKind,
    bytes: u64,
    arrived: Vec<RankId>,
    last_arrival: SimTime,
}

#[derive(Debug)]
enum GateState {
    Open(SimTime),
    Closed(Vec<RankId>),
}

/// Summary of a completed simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// When the last rank finished — the job runtime.
    pub makespan: SimTime,
    /// Per-rank completion times, indexed by rank.
    pub finish_times: Vec<SimTime>,
    /// Total script steps executed.
    pub steps: u64,
}

/// The discrete-event engine driving all rank scripts over a shared world.
pub struct Engine<W> {
    world: W,
    scripts: Vec<Box<dyn RankScript<W>>>,
    states: Vec<RankState>,
    comms: HashMap<CommId, Communicator>,
    collectives: HashMap<CommId, CollectiveState>,
    gates: HashMap<GateId, GateState>,
    queue: EventQueue<RankId>,
    cost: MpiCostModel,
    steps: u64,
    max_steps: u64,
    /// Earliest scheduled crash, as `(instant, victim)`; checked by
    /// [`Engine::run_checked`] before each dispatch.
    kill: Option<(SimTime, RankId)>,
}

impl<W> Engine<W> {
    /// Build an engine over `world` with one script per rank. A WORLD
    /// communicator spanning all ranks is created automatically.
    pub fn new(world: W, scripts: Vec<Box<dyn RankScript<W>>>, cost: MpiCostModel) -> Self {
        Engine::new_at(world, scripts, cost, SimTime::ZERO)
    }

    /// [`Engine::new`] with an explicit launch instant: every rank's first
    /// step fires at `start` instead of time zero. Restart epochs use this
    /// so a relaunched job continues on the same simulated clock (and the
    /// same world) as the crashed epoch it replaces.
    pub fn new_at(
        world: W,
        scripts: Vec<Box<dyn RankScript<W>>>,
        cost: MpiCostModel,
        start: SimTime,
    ) -> Self {
        let n = scripts.len() as u32;
        let world_comm = Communicator::new(CommId::WORLD, (0..n).map(RankId).collect());
        let mut comms = HashMap::new();
        comms.insert(CommId::WORLD, world_comm);
        let states = (0..n).map(|_| RankState::Runnable).collect();
        // Every rank keeps at most one wake-up event pending, so the heap
        // never outgrows the rank count.
        let mut queue = EventQueue::with_capacity(n as usize);
        for r in 0..n {
            queue.push(start, RankId(r));
        }
        Engine {
            world,
            scripts,
            states,
            comms,
            collectives: HashMap::new(),
            gates: HashMap::new(),
            queue,
            cost,
            steps: 0,
            max_steps: u64::MAX,
            kill: None,
        }
    }

    /// Schedule a fatal crash: `rank` dies at `at`, killing the job (the
    /// run halts with [`RunHalt::Crashed`] at the first dispatch at or after
    /// `at`). When called repeatedly the earliest crash wins, ties broken by
    /// rank, so the halt is a pure function of the schedule.
    pub fn set_crash(&mut self, rank: RankId, at: SimTime) {
        let cand = (at, rank);
        self.kill = Some(match self.kill {
            Some(prev) if (prev.0, prev.1 .0) <= (cand.0, cand.1 .0) => prev,
            _ => cand,
        });
    }

    /// Register an additional communicator (sub-groups such as per-node
    /// comms or CosmoFlow's GPU comm).
    pub fn add_comm(&mut self, comm: Communicator) {
        assert!(
            comm.id != CommId::WORLD,
            "communicator 0 is reserved for WORLD"
        );
        self.comms.insert(comm.id, comm);
    }

    /// Cap the number of script steps; exceeding it panics. Useful for
    /// catching livelocked scripts in tests.
    pub fn set_max_steps(&mut self, max: u64) {
        self.max_steps = max;
    }

    /// Consume the engine and return the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Run until every rank is done. Returns the run report.
    ///
    /// # Errors
    /// Returns [`DeadlockError`] when the event queue drains while some rank
    /// is still waiting on a gate or collective that can no longer complete;
    /// the error names each blocked rank and what it waits on.
    ///
    /// # Panics
    /// Panics when the step cap set via [`Engine::set_max_steps`] is
    /// exceeded (livelocked scripts), or when a crash scheduled via
    /// [`Engine::set_crash`] fires (use [`Engine::run_checked`] to handle
    /// crashes as values).
    pub fn run(&mut self) -> Result<EngineReport, DeadlockError> {
        self.run_checked().map_err(|halt| match halt {
            RunHalt::Deadlock(d) => d,
            RunHalt::Crashed { .. } => {
                panic!("{halt}; use run_checked() to recover from crash events")
            }
        })
    }

    /// [`Engine::run`] with crash events surfaced as values: a scheduled
    /// crash halts the run with [`RunHalt::Crashed`] instead of panicking,
    /// leaving the world (traces, durable storage) intact for a restart.
    pub fn run_checked(&mut self) -> Result<EngineReport, RunHalt> {
        while let Some(ev) = self.queue.pop() {
            if let Some((t_kill, victim)) = self.kill {
                if ev.time >= t_kill {
                    // The job dies at t_kill: nothing dispatched at or past
                    // that instant runs. World state up to the crash stays.
                    return Err(RunHalt::Crashed {
                        rank: victim,
                        at: t_kill,
                    });
                }
            }
            let rank = ev.payload;
            let now = ev.time;
            debug_assert!(
                matches!(self.states[rank.0 as usize], RankState::Runnable),
                "{rank} scheduled while not runnable"
            );
            self.steps += 1;
            assert!(
                self.steps <= self.max_steps,
                "engine exceeded max_steps = {}",
                self.max_steps
            );
            let effect = self.scripts[rank.0 as usize].next_step(&mut self.world, rank, now);
            for g in effect.open_gates {
                self.open_gate(g, now);
            }
            match effect.outcome {
                Outcome::BusyUntil(t) => {
                    assert!(t >= now, "{rank} reported completion in the past");
                    self.queue.push(t, rank);
                }
                Outcome::Collective { comm, kind, bytes } => {
                    self.arrive_collective(rank, comm, kind, bytes, now);
                }
                Outcome::WaitGate(g) => match self
                    .gates
                    .entry(g)
                    .or_insert_with(|| GateState::Closed(Vec::new()))
                {
                    GateState::Open(t_open) => {
                        let resume = now.max(*t_open);
                        self.queue.push(resume, rank);
                    }
                    GateState::Closed(waiters) => {
                        waiters.push(rank);
                        self.states[rank.0 as usize] = RankState::WaitingGate(g);
                    }
                },
                Outcome::Done => {
                    self.states[rank.0 as usize] = RankState::Finished(now);
                }
            }
        }
        let blocked: Vec<(RankId, Blocker)> = self
            .states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let rank = RankId(i as u32);
                match s {
                    RankState::Finished(_) => None,
                    RankState::WaitingGate(g) => Some((rank, Blocker::Gate(*g))),
                    RankState::InCollective(c) => Some((rank, Blocker::Collective(*c))),
                    // A runnable rank always holds a queue event, so it
                    // cannot outlive the queue.
                    RankState::Runnable => unreachable!("{rank} runnable after queue drain"),
                }
            })
            .collect();
        if !blocked.is_empty() {
            return Err(RunHalt::Deadlock(DeadlockError { blocked }));
        }
        let finish_times: Vec<SimTime> = self
            .states
            .iter()
            .map(|s| match s {
                RankState::Finished(t) => *t,
                _ => unreachable!(),
            })
            .collect();
        let makespan = finish_times.iter().copied().max().unwrap_or(SimTime::ZERO);
        Ok(EngineReport {
            makespan,
            finish_times,
            steps: self.steps,
        })
    }

    fn open_gate(&mut self, g: GateId, now: SimTime) {
        match self.gates.insert(g, GateState::Open(now)) {
            Some(GateState::Closed(waiters)) => {
                for r in waiters {
                    self.states[r.0 as usize] = RankState::Runnable;
                    self.queue.push(now, r);
                }
            }
            Some(GateState::Open(earlier)) => {
                // Re-opening is idempotent; keep the earliest open time.
                self.gates.insert(g, GateState::Open(earlier.min(now)));
            }
            None => {}
        }
    }

    fn arrive_collective(
        &mut self,
        rank: RankId,
        comm_id: CommId,
        kind: CollectiveKind,
        bytes: u64,
        now: SimTime,
    ) {
        let comm = self
            .comms
            .get(&comm_id)
            .unwrap_or_else(|| panic!("unknown communicator {comm_id:?}"))
            .clone();
        assert!(
            comm.contains(rank),
            "{rank} called a collective on {comm_id:?} it does not belong to"
        );
        let entry = self
            .collectives
            .entry(comm_id)
            .or_insert_with(|| CollectiveState {
                kind,
                bytes,
                arrived: Vec::new(),
                last_arrival: SimTime::ZERO,
            });
        assert!(
            entry.kind == kind,
            "collective mismatch on {comm_id:?}: {:?} vs {kind:?}",
            entry.kind
        );
        entry.bytes = entry.bytes.max(bytes);
        entry.arrived.push(rank);
        entry.last_arrival = entry.last_arrival.max(now);
        self.states[rank.0 as usize] = RankState::InCollective(comm_id);
        if entry.arrived.len() == comm.size() {
            let state = self.collectives.remove(&comm_id).expect("just inserted");
            let release = state.last_arrival + self.cost.cost(kind, comm.size(), state.bytes);
            for r in state.arrived {
                self.states[r.0 as usize] = RankState::Runnable;
                self.queue.push(release, r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Dur;

    /// A world counting how much "work" each rank did.
    #[derive(Default)]
    struct CounterWorld {
        work: Vec<u64>,
    }

    fn model() -> MpiCostModel {
        MpiCostModel {
            latency: Dur::from_micros(10),
            bandwidth: 1 << 30,
        }
    }

    /// Script: do `n` compute steps of 1 s each, then finish.
    struct ComputeScript {
        remaining: u32,
    }

    impl RankScript<CounterWorld> for ComputeScript {
        fn next_step(
            &mut self,
            world: &mut CounterWorld,
            rank: RankId,
            now: SimTime,
        ) -> StepEffect {
            if self.remaining == 0 {
                return StepEffect::done();
            }
            self.remaining -= 1;
            world.work[rank.0 as usize] += 1;
            StepEffect::busy_until(now + Dur::from_secs(1))
        }
    }

    #[test]
    fn independent_ranks_run_in_parallel_virtual_time() {
        let world = CounterWorld { work: vec![0; 4] };
        let scripts: Vec<Box<dyn RankScript<CounterWorld>>> = (0..4)
            .map(|_| Box::new(ComputeScript { remaining: 3 }) as Box<_>)
            .collect();
        let mut e = Engine::new(world, scripts, model());
        let report = e.run().unwrap();
        // Each rank computes 3 s independently: makespan 3 s, not 12 s.
        assert_eq!(report.makespan, SimTime::from_secs(3));
        assert_eq!(e.world.work, vec![3, 3, 3, 3]);
        assert_eq!(report.steps, 4 * 4); // 3 computes + 1 done per rank
    }

    #[test]
    fn scheduled_crash_halts_with_typed_info() {
        let world = CounterWorld { work: vec![0; 2] };
        let scripts: Vec<Box<dyn RankScript<CounterWorld>>> = (0..2)
            .map(|_| Box::new(ComputeScript { remaining: 10 }) as Box<_>)
            .collect();
        let mut e = Engine::new(world, scripts, model());
        e.set_crash(RankId(1), SimTime::from_secs(4));
        let halt = e.run_checked().unwrap_err();
        assert_eq!(
            halt,
            RunHalt::Crashed {
                rank: RankId(1),
                at: SimTime::from_secs(4)
            }
        );
        // Work completed strictly before the crash instant survives in the
        // world: dispatches at 0–3 s ran, the 4 s dispatch was killed.
        assert_eq!(e.world.work, vec![4, 4]);
    }

    #[test]
    fn earliest_crash_wins_regardless_of_registration_order() {
        let world = CounterWorld { work: vec![0; 2] };
        let scripts: Vec<Box<dyn RankScript<CounterWorld>>> = (0..2)
            .map(|_| Box::new(ComputeScript { remaining: 10 }) as Box<_>)
            .collect();
        let mut e = Engine::new(world, scripts, model());
        e.set_crash(RankId(0), SimTime::from_secs(9));
        e.set_crash(RankId(1), SimTime::from_secs(2));
        e.set_crash(RankId(0), SimTime::from_secs(5));
        let halt = e.run_checked().unwrap_err();
        assert_eq!(
            halt,
            RunHalt::Crashed {
                rank: RankId(1),
                at: SimTime::from_secs(2)
            }
        );
    }

    #[test]
    fn launch_offset_shifts_the_whole_run() {
        // A restart epoch launches mid-clock: everything, including the
        // makespan, continues from the offset.
        let world = CounterWorld { work: vec![0; 2] };
        let scripts: Vec<Box<dyn RankScript<CounterWorld>>> = (0..2)
            .map(|_| Box::new(ComputeScript { remaining: 3 }) as Box<_>)
            .collect();
        let mut e = Engine::new_at(world, scripts, model(), SimTime::from_secs(10));
        let report = e.run().unwrap();
        assert_eq!(report.makespan, SimTime::from_secs(13));
        assert_eq!(e.world.work, vec![3, 3]);
    }

    /// Script: compute `my_time`, barrier, then finish.
    struct BarrierScript {
        compute: Dur,
        phase: u8,
    }

    impl RankScript<CounterWorld> for BarrierScript {
        fn next_step(&mut self, _w: &mut CounterWorld, _r: RankId, now: SimTime) -> StepEffect {
            self.phase += 1;
            match self.phase {
                1 => StepEffect::busy_until(now + self.compute),
                2 => StepEffect {
                    outcome: Outcome::Collective {
                        comm: CommId::WORLD,
                        kind: CollectiveKind::Barrier,
                        bytes: 0,
                    },
                    open_gates: vec![],
                },
                _ => StepEffect::done(),
            }
        }
    }

    #[test]
    fn barrier_waits_for_slowest_rank() {
        let world = CounterWorld { work: vec![0; 3] };
        let scripts: Vec<Box<dyn RankScript<CounterWorld>>> = [1u64, 5, 2]
            .iter()
            .map(|&s| {
                Box::new(BarrierScript {
                    compute: Dur::from_secs(s),
                    phase: 0,
                }) as Box<_>
            })
            .collect();
        let mut e = Engine::new(world, scripts, model());
        let report = e.run().unwrap();
        // All finish at 5 s + barrier cost (2 rounds × 10 µs).
        let expect = SimTime::from_secs(5) + Dur::from_micros(20);
        assert!(report.finish_times.iter().all(|&t| t == expect));
    }

    /// Rank 0 computes 3 s then opens a gate; rank 1 waits on the gate.
    struct ProducerScript {
        phase: u8,
    }
    struct ConsumerScript {
        phase: u8,
    }

    impl RankScript<CounterWorld> for ProducerScript {
        fn next_step(&mut self, _w: &mut CounterWorld, _r: RankId, now: SimTime) -> StepEffect {
            self.phase += 1;
            match self.phase {
                1 => StepEffect::busy_until(now + Dur::from_secs(3)),
                _ => StepEffect {
                    outcome: Outcome::Done,
                    open_gates: vec![GateId(7)],
                },
            }
        }
    }

    impl RankScript<CounterWorld> for ConsumerScript {
        fn next_step(&mut self, w: &mut CounterWorld, _r: RankId, now: SimTime) -> StepEffect {
            self.phase += 1;
            match self.phase {
                1 => StepEffect {
                    outcome: Outcome::WaitGate(GateId(7)),
                    open_gates: vec![],
                },
                2 => {
                    w.work[1] = now.as_nanos();
                    StepEffect::busy_until(now + Dur::from_secs(1))
                }
                _ => StepEffect::done(),
            }
        }
    }

    #[test]
    fn gates_signal_across_ranks() {
        let world = CounterWorld { work: vec![0; 2] };
        let scripts: Vec<Box<dyn RankScript<CounterWorld>>> = vec![
            Box::new(ProducerScript { phase: 0 }),
            Box::new(ConsumerScript { phase: 0 }),
        ];
        let mut e = Engine::new(world, scripts, model());
        let report = e.run().unwrap();
        // Consumer resumed exactly when producer opened the gate (t = 3 s).
        assert_eq!(e.world.work[1], SimTime::from_secs(3).as_nanos());
        assert_eq!(report.makespan, SimTime::from_secs(4));
    }

    #[test]
    fn waiting_on_an_already_open_gate_resumes_immediately() {
        // Rank 0 opens the gate at t=0 and finishes; rank 1 waits at t=0 and
        // should proceed at t=0.
        struct Opener;
        impl RankScript<CounterWorld> for Opener {
            fn next_step(&mut self, _w: &mut CounterWorld, _r: RankId, _n: SimTime) -> StepEffect {
                StepEffect {
                    outcome: Outcome::Done,
                    open_gates: vec![GateId(1)],
                }
            }
        }
        struct Waiter {
            phase: u8,
        }
        impl RankScript<CounterWorld> for Waiter {
            fn next_step(&mut self, w: &mut CounterWorld, _r: RankId, now: SimTime) -> StepEffect {
                self.phase += 1;
                match self.phase {
                    1 => StepEffect::busy_until(now + Dur::from_secs(1)), // let rank 0 go first
                    2 => StepEffect {
                        outcome: Outcome::WaitGate(GateId(1)),
                        open_gates: vec![],
                    },
                    _ => {
                        w.work[1] = now.as_nanos();
                        StepEffect::done()
                    }
                }
            }
        }
        let world = CounterWorld { work: vec![0; 2] };
        let scripts: Vec<Box<dyn RankScript<CounterWorld>>> =
            vec![Box::new(Opener), Box::new(Waiter { phase: 0 })];
        let mut e = Engine::new(world, scripts, model());
        e.run().unwrap();
        assert_eq!(e.world.work[1], SimTime::from_secs(1).as_nanos());
    }

    #[test]
    fn subcommunicator_collectives_only_sync_members() {
        // Ranks 0,1 barrier on comm 1; rank 2 runs free.
        struct SubBarrier {
            phase: u8,
            in_comm: bool,
        }
        impl RankScript<CounterWorld> for SubBarrier {
            fn next_step(&mut self, w: &mut CounterWorld, r: RankId, now: SimTime) -> StepEffect {
                self.phase += 1;
                match (self.phase, self.in_comm) {
                    (1, true) => StepEffect {
                        outcome: Outcome::Collective {
                            comm: CommId(1),
                            kind: CollectiveKind::Barrier,
                            bytes: 0,
                        },
                        open_gates: vec![],
                    },
                    (1, false) => StepEffect::busy_until(now + Dur::from_secs(10)),
                    _ => {
                        w.work[r.0 as usize] = now.as_nanos();
                        StepEffect::done()
                    }
                }
            }
        }
        let world = CounterWorld { work: vec![0; 3] };
        let scripts: Vec<Box<dyn RankScript<CounterWorld>>> = vec![
            Box::new(SubBarrier {
                phase: 0,
                in_comm: true,
            }),
            Box::new(SubBarrier {
                phase: 0,
                in_comm: true,
            }),
            Box::new(SubBarrier {
                phase: 0,
                in_comm: false,
            }),
        ];
        let mut e = Engine::new(world, scripts, model());
        e.add_comm(Communicator::new(CommId(1), vec![RankId(0), RankId(1)]));
        let r = e.run().unwrap();
        // Ranks 0 and 1 finished long before rank 2's 10 s compute.
        assert!(e.world.work[0] < SimTime::from_secs(1).as_nanos());
        assert!(e.world.work[1] < SimTime::from_secs(1).as_nanos());
        assert_eq!(r.makespan, SimTime::from_secs(10));
    }

    #[test]
    fn unopened_gate_is_a_typed_deadlock() {
        struct Stuck;
        impl RankScript<CounterWorld> for Stuck {
            fn next_step(&mut self, _w: &mut CounterWorld, _r: RankId, _n: SimTime) -> StepEffect {
                StepEffect {
                    outcome: Outcome::WaitGate(GateId(99)),
                    open_gates: vec![],
                }
            }
        }
        let world = CounterWorld { work: vec![0; 1] };
        let mut e = Engine::new(world, vec![Box::new(Stuck) as Box<_>], model());
        let err = e.run().unwrap_err();
        assert_eq!(err.blocked, vec![(RankId(0), Blocker::Gate(GateId(99)))]);
        let msg = err.to_string();
        assert!(
            msg.contains("deadlock"),
            "message must name the failure: {msg}"
        );
        assert!(msg.contains("gate 99"), "message must name the gate: {msg}");
    }

    #[test]
    fn lone_collective_arrival_is_a_typed_deadlock() {
        // Rank 0 barriers on WORLD; rank 1 finishes without ever joining.
        struct Joins;
        impl RankScript<CounterWorld> for Joins {
            fn next_step(&mut self, _w: &mut CounterWorld, _r: RankId, _n: SimTime) -> StepEffect {
                StepEffect {
                    outcome: Outcome::Collective {
                        comm: CommId::WORLD,
                        kind: CollectiveKind::Barrier,
                        bytes: 0,
                    },
                    open_gates: vec![],
                }
            }
        }
        struct Bails;
        impl RankScript<CounterWorld> for Bails {
            fn next_step(&mut self, _w: &mut CounterWorld, _r: RankId, _n: SimTime) -> StepEffect {
                StepEffect::done()
            }
        }
        let world = CounterWorld { work: vec![0; 2] };
        let scripts: Vec<Box<dyn RankScript<CounterWorld>>> =
            vec![Box::new(Joins), Box::new(Bails)];
        let mut e = Engine::new(world, scripts, model());
        let err = e.run().unwrap_err();
        assert_eq!(
            err.blocked,
            vec![(RankId(0), Blocker::Collective(CommId::WORLD))]
        );
        assert!(err.to_string().contains("collective"), "diagnostic: {err}");
    }

    #[test]
    #[should_panic(expected = "max_steps")]
    fn livelock_is_caught_by_step_cap() {
        struct Spinner;
        impl RankScript<CounterWorld> for Spinner {
            fn next_step(&mut self, _w: &mut CounterWorld, _r: RankId, now: SimTime) -> StepEffect {
                StepEffect::busy_until(now + Dur::from_nanos(1))
            }
        }
        let world = CounterWorld { work: vec![0; 1] };
        let mut e = Engine::new(world, vec![Box::new(Spinner) as Box<_>], model());
        e.set_max_steps(1000);
        let _ = e.run();
    }

    #[test]
    fn fn_script_adapter_works() {
        let world = CounterWorld { work: vec![0; 1] };
        let mut fired = 0u32;
        let script = FnScript(move |_w: &mut CounterWorld, _r: RankId, now: SimTime| {
            fired += 1;
            if fired == 1 {
                StepEffect::busy_until(now + Dur::from_secs(2))
            } else {
                StepEffect::done()
            }
        });
        let mut e = Engine::new(world, vec![Box::new(script) as Box<_>], model());
        let r = e.run().unwrap();
        assert_eq!(r.makespan, SimTime::from_secs(2));
    }
}
