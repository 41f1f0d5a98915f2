//! Deterministic event-driven job scheduler for the shared cluster.
//!
//! [`resilient_schedule`] places jobs onto a fixed pool of nodes. Waiting
//! jobs are ordered by `(submit, job id)`; under strict FCFS (the default)
//! the first waiting job that does not fit blocks everyone behind it, and
//! with first-fit backfill smaller jobs flow around it. A job takes the
//! lowest-numbered free nodes. Runtimes are *estimates* from the dedicated
//! profile runs; the scheduler is a placement model, not a second
//! simulator, and its arithmetic is a sequential fold over events, so
//! placements are identical on every machine and at every worker count.
//!
//! The same loop carries the fleet's failure domains: under a
//! [`NodeFaultPlan`] the schedulable pool shrinks while nodes are down,
//! any job holding a failed node is killed mid-run, and the self-healing
//! policy requeues it with exponential backoff until its retry budget is
//! exhausted ([`JobOutcome::Abandoned`]). A healthy fleet is the empty
//! plan: the loop without outage events.

use super::arrival::ArrivalProcess;
use super::outage::NodeFaultPlan;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap};
use std::ops::Bound::{Excluded, Unbounded};

/// What one job asks of the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobDemand {
    /// Nodes the job occupies while running.
    pub nodes: u32,
    /// Estimated runtime, seconds (from the dedicated profile run).
    pub est_runtime: f64,
}

/// Where the scheduler put one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Job id (index into the manifest).
    pub id: usize,
    /// When the job was submitted.
    pub submit: f64,
    /// When it started (placement instant).
    pub start: f64,
    /// Estimated completion (`start + est_runtime`).
    pub end: f64,
}

impl Placement {
    /// Queueing delay between submission and start.
    pub fn wait(&self) -> f64 {
        self.start - self.submit
    }
}

/// Submission times handed to the scheduler.
pub enum ScheduleArrivals<'a> {
    /// Open process: pre-drawn submit times, one per job, non-decreasing.
    Open(&'a [f64]),
    /// Closed process: the first `concurrency` jobs submit at t = 0; job
    /// `i` (i ≥ concurrency) submits when job `i - concurrency` completes
    /// plus the think time.
    Closed {
        /// Jobs in flight.
        concurrency: usize,
        /// Seconds between a completion and the next submission.
        think_time: f64,
    },
}

impl<'a> ScheduleArrivals<'a> {
    /// Build from an [`ArrivalProcess`] plus the pre-drawn open submits.
    pub fn from_process(p: &ArrivalProcess, open_submits: &'a [f64]) -> Self {
        match p {
            ArrivalProcess::Open { .. } => ScheduleArrivals::Open(open_submits),
            ArrivalProcess::Closed {
                concurrency,
                think_time,
            } => ScheduleArrivals::Closed {
                concurrency: (*concurrency).max(1),
                think_time: *think_time,
            },
        }
    }
}

/// The self-healing scheduler's knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedPolicy {
    /// Allow small jobs to flow around a queue head that does not fit
    /// (first-fit backfill). Off reproduces strict FCFS admission order.
    pub backfill: bool,
    /// Requeues a killed job may consume before it is abandoned.
    pub max_retries: u32,
    /// Requeue delay after the first kill, seconds.
    pub base_backoff: f64,
    /// Backoff growth per further kill.
    pub backoff_multiplier: f64,
    /// Backoff ceiling, seconds.
    pub max_backoff: f64,
}

impl SchedPolicy {
    /// The fleet default: strict FCFS, three retries, 30 s → 60 s → 120 s
    /// exponential backoff capped at 480 s.
    pub fn standard() -> Self {
        SchedPolicy {
            backfill: false,
            max_retries: 3,
            base_backoff: 30.0,
            backoff_multiplier: 2.0,
            max_backoff: 480.0,
        }
    }

    /// Requeue delay after a job's `kills`-th kill (1-based).
    pub(crate) fn requeue_delay(&self, kills: u32) -> f64 {
        let exp = kills.saturating_sub(1).min(63);
        (self.base_backoff * self.backoff_multiplier.powi(exp as i32))
            .min(self.max_backoff)
            .max(0.0)
    }
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy::standard()
    }
}

/// How one job's fleet story ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran once, finished.
    Completed,
    /// Killed by node outages `n` times, finished on attempt `n + 1`.
    CompletedAfterRetry(u32),
    /// Retry budget exhausted; the job never finished.
    Abandoned,
}

impl JobOutcome {
    /// Stable name for tables and JSON.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::CompletedAfterRetry(_) => "completed-after-retry",
            JobOutcome::Abandoned => "abandoned",
        }
    }

    /// Kills the job absorbed before this outcome (0 for [`Completed`](JobOutcome::Completed),
    /// `n` for both `CompletedAfterRetry(n)` and the abandoned case).
    pub fn retries(&self) -> u32 {
        match self {
            JobOutcome::Completed => 0,
            JobOutcome::CompletedAfterRetry(n) => *n,
            JobOutcome::Abandoned => 0,
        }
    }

    /// Whether the job eventually produced its result.
    pub(crate) fn completed(&self) -> bool {
        !matches!(self, JobOutcome::Abandoned)
    }
}

/// One placement attempt of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobAttempt {
    /// Attempt index (0 = first placement).
    pub attempt: u32,
    /// Start instant, seconds.
    pub start: f64,
    /// End instant: estimated completion, or the kill instant.
    pub end: f64,
    /// The failed node that killed this attempt (`None` = ran to
    /// completion).
    pub killed_by: Option<u32>,
}

/// One job's full history under the self-healing scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSchedule {
    /// Job id (manifest position).
    pub id: usize,
    /// Submission instant, seconds.
    pub submit: f64,
    /// Every placement attempt, in time order (never empty: the pool
    /// always recovers, so every job starts at least once).
    pub attempts: Vec<JobAttempt>,
    /// How the story ended.
    pub outcome: JobOutcome,
}

impl JobSchedule {
    /// The job's last attempt (the completed one unless abandoned).
    pub(crate) fn final_attempt(&self) -> &JobAttempt {
        self.attempts
            .last()
            .expect("every scheduled job has at least one attempt")
    }

    /// The job's final interval as a legacy [`Placement`] (abandoned jobs
    /// report their last killed attempt).
    pub fn as_placement(&self) -> Placement {
        let a = self.final_attempt();
        Placement {
            id: self.id,
            submit: self.submit,
            start: a.start,
            end: a.end,
        }
    }

    /// Node-seconds of work the outages destroyed: killed attempts'
    /// occupancy, charged at the job's node width.
    pub fn lost_node_secs(&self, nodes: u32) -> f64 {
        self.attempts
            .iter()
            .filter(|a| a.killed_by.is_some())
            .map(|a| (a.end - a.start).max(0.0) * nodes as f64)
            .sum::<f64>()
            + 0.0
    }
}

/// An instant on the fleet clock, ordered by [`f64::total_cmp`] so it can
/// key the scheduler's ordered sets.
#[derive(Debug, Clone, Copy)]
struct Time(f64);

impl PartialEq for Time {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One job's attempt that currently holds nodes.
struct Running {
    attempt: u32,
    start: f64,
    end: f64,
    held: Vec<u32>,
}

/// Per-node state: active outages covering each node, who holds it, and
/// the nodes that are both up and unheld.
struct NodePool {
    down: Vec<u32>,
    holder: Vec<Option<usize>>,
    free: BTreeSet<u32>,
}

impl NodePool {
    fn new(nodes: u32) -> Self {
        NodePool {
            down: vec![0; nodes as usize],
            holder: vec![None; nodes as usize],
            free: (0..nodes).collect(),
        }
    }

    /// The `want` lowest-numbered free nodes, now held by `job`; `None`
    /// (and nothing taken) if fewer are free.
    fn take(&mut self, job: usize, want: usize) -> Option<Vec<u32>> {
        if self.free.len() < want {
            return None;
        }
        let held: Vec<u32> = (0..want).filter_map(|_| self.free.pop_first()).collect();
        for &nd in &held {
            self.holder[nd as usize] = Some(job);
        }
        Some(held)
    }

    /// Give nodes back; those without an active outage become free.
    fn release(&mut self, held: &[u32]) {
        for &nd in held {
            self.holder[nd as usize] = None;
            if self.down[nd as usize] == 0 {
                self.free.insert(nd);
            }
        }
    }

    /// One outage of `node` begins; returns the job holding it, if any.
    fn fail(&mut self, node: u32) -> Option<usize> {
        self.down[node as usize] += 1;
        self.free.remove(&node);
        self.holder[node as usize]
    }

    /// One outage of `node` ends; the node is free again once no outage
    /// covers it and nobody holds it.
    fn repair(&mut self, node: u32) {
        let nd = node as usize;
        self.down[nd] = self.down[nd].saturating_sub(1);
        if self.down[nd] == 0 && self.holder[nd].is_none() {
            self.free.insert(node);
        }
    }
}

/// Place every job onto a cluster whose nodes fail and are repaired per
/// `plan`, requeueing killed jobs per `policy`. Returns one
/// [`JobSchedule`] per job, in job-id order. Panics if a job wants more
/// nodes than the cluster has: callers validate that with a typed
/// [`super::FleetError::JobTooLarge`] before scheduling.
///
/// An event loop over three ordered structures: the waiting jobs keyed by
/// `(ready time, job id)`, a min-heap of running attempts keyed by
/// `(end, job id, attempt)` (a killed attempt's entry goes stale and is
/// skipped when it surfaces), and the set of free nodes. Events at equal
/// instants are processed in a fixed order — completions, then repairs,
/// then outage kills, then placements — so the schedule is a deterministic
/// sequential fold. A waiting job whose ready time has passed but that
/// does not fit is retried at every later event but does not itself move
/// the clock. The loop ends when nothing runs or waits, so outages that
/// start after the fleet drains change nothing.
pub fn resilient_schedule(
    cluster_nodes: u32,
    demands: &[JobDemand],
    arrivals: &ScheduleArrivals<'_>,
    plan: &NodeFaultPlan,
    policy: &SchedPolicy,
) -> Vec<JobSchedule> {
    let n = demands.len();
    for (i, d) in demands.iter().enumerate() {
        assert!(
            d.nodes <= cluster_nodes,
            "job {i} wants {} nodes on a {cluster_nodes}-node cluster",
            d.nodes
        );
    }
    // Outage starts in plan order, which is (at, node); repairs in
    // (until, node) order.
    let starts: Vec<(f64, u32)> = plan.outages.iter().map(|o| (o.at, o.node)).collect();
    let mut repairs: Vec<(f64, u32)> = plan.outages.iter().map(|o| (o.until, o.node)).collect();
    repairs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut si, mut ri) = (0usize, 0usize);
    let mut pool = NodePool::new(cluster_nodes);

    // Submission bookkeeping (closed processes derive submits from
    // terminal events of the job `concurrency` positions earlier). A
    // waiting job's next attempt index equals the kills it has absorbed.
    let mut submits: Vec<f64> = vec![f64::NAN; n];
    let mut waiting: BTreeSet<(Time, usize)> = BTreeSet::new();
    match arrivals {
        ScheduleArrivals::Open(ts) => {
            for (i, &s) in ts.iter().enumerate().take(n) {
                submits[i] = s;
                waiting.insert((Time(s), i));
            }
        }
        ScheduleArrivals::Closed { concurrency, .. } => {
            for (i, s) in submits.iter_mut().enumerate().take((*concurrency).max(1)) {
                *s = 0.0;
                waiting.insert((Time(0.0), i));
            }
        }
    }

    let mut running: Vec<Option<Running>> = (0..n).map(|_| None).collect();
    let mut ends: BinaryHeap<Reverse<(Time, usize, u32)>> = BinaryHeap::new();
    let mut kills: Vec<u32> = vec![0; n]; // kills absorbed so far
    let mut scheds: Vec<JobSchedule> = (0..n)
        .map(|id| JobSchedule {
            id,
            submit: 0.0,
            attempts: Vec::new(),
            outcome: JobOutcome::Completed,
        })
        .collect();
    let mut terminal: Vec<Option<f64>> = vec![None; n];
    let is_live = |running: &[Option<Running>], job: usize, attempt: u32| {
        running[job].as_ref().is_some_and(|r| r.attempt == attempt)
    };

    let mut t = f64::NEG_INFINITY;
    loop {
        while let Some(&Reverse((_, job, attempt))) = ends.peek() {
            if is_live(&running, job, attempt) {
                break;
            }
            ends.pop();
        }
        if ends.is_empty() && waiting.is_empty() {
            break; // drained: later outages change nothing
        }
        // Next event instant. Waiting entries whose ready time is ≤ t are
        // blocked: only ready times strictly ahead of the clock count.
        let mut next = ends
            .peek()
            .map_or(f64::INFINITY, |&Reverse((Time(end), _, _))| end);
        if ri < repairs.len() {
            next = next.min(repairs[ri].0);
        }
        if si < starts.len() {
            next = next.min(starts[si].0);
        }
        if let Some(&(Time(ready), _)) = waiting
            .range((Excluded((Time(t), usize::MAX)), Unbounded))
            .next()
        {
            next = next.min(ready);
        }
        if !next.is_finite() {
            break;
        }
        t = next;

        // (a) Completions at t. They commute: each touches only its own
        // job's state, and closed successors are released in job order.
        let mut newly_terminal: Vec<usize> = Vec::new();
        while let Some(&Reverse((Time(end), job, attempt))) = ends.peek() {
            if end > t {
                break;
            }
            ends.pop();
            if !is_live(&running, job, attempt) {
                continue;
            }
            let r = running[job].take().expect("live attempt");
            pool.release(&r.held);
            scheds[job].attempts.push(JobAttempt {
                attempt: r.attempt,
                start: r.start,
                end: r.end,
                killed_by: None,
            });
            scheds[job].outcome = if kills[job] == 0 {
                JobOutcome::Completed
            } else {
                JobOutcome::CompletedAfterRetry(kills[job])
            };
            terminal[job] = Some(r.end);
            newly_terminal.push(job);
        }

        // (b) Repairs at t (before kills: a node repaired and re-failed at
        // the same instant stays down via its new outage).
        while ri < repairs.len() && repairs[ri].0 <= t {
            pool.repair(repairs[ri].1);
            ri += 1;
        }

        // (c) Outage starts at t: take nodes down, kill their holders.
        while si < starts.len() && starts[si].0 <= t {
            let (at, node) = starts[si];
            si += 1;
            let Some(job) = pool.fail(node) else {
                continue;
            };
            // Kill: release every node the job held.
            let r = running[job]
                .take()
                .expect("the holder table tracks running jobs");
            pool.release(&r.held);
            scheds[job].attempts.push(JobAttempt {
                attempt: r.attempt,
                start: r.start,
                end: at,
                killed_by: Some(node),
            });
            kills[job] += 1;
            if kills[job] > policy.max_retries {
                scheds[job].outcome = JobOutcome::Abandoned;
                terminal[job] = Some(at);
                newly_terminal.push(job);
            } else {
                waiting.insert((Time(at + policy.requeue_delay(kills[job])), job));
            }
        }

        // Closed arrivals: terminal events release successors.
        if let ScheduleArrivals::Closed {
            concurrency,
            think_time,
        } = arrivals
        {
            newly_terminal.sort_unstable();
            for job in newly_terminal {
                let succ = job + (*concurrency).max(1);
                if succ < n && submits[succ].is_nan() {
                    let s = terminal[job].expect("terminal time recorded") + think_time;
                    submits[succ] = s;
                    waiting.insert((Time(s), succ));
                }
            }
        }

        // (d) Placement pass over the waiting jobs ready by t, in
        // (ready, id) order; without backfill the first job that does not
        // fit blocks the rest.
        let mut after: Option<(Time, usize)> = None;
        loop {
            let entry = match after {
                None => waiting.first(),
                Some(key) => waiting.range((Excluded(key), Unbounded)).next(),
            };
            let Some(&key) = entry else {
                break;
            };
            let (Time(ready), job) = key;
            if ready > t {
                break;
            }
            let Some(held) = pool.take(job, demands[job].nodes as usize) else {
                if !policy.backfill {
                    break;
                }
                after = Some(key); // flow around it
                continue;
            };
            waiting.remove(&key);
            let attempt = kills[job];
            let end = t + demands[job].est_runtime.max(0.0);
            running[job] = Some(Running {
                attempt,
                start: t,
                end,
                held,
            });
            ends.push(Reverse((Time(end), job, attempt)));
        }
    }

    // Record submits (closed processes may leave trailing NaNs only if a
    // predecessor was never terminal — impossible, the loop drains).
    for (i, s) in scheds.iter_mut().enumerate() {
        s.submit = submits[i];
        assert!(s.submit.is_finite(), "job {i} was never submitted");
        assert!(!s.attempts.is_empty(), "job {i} was never placed");
    }
    scheds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(nodes: u32, rt: f64) -> JobDemand {
        JobDemand {
            nodes,
            est_runtime: rt,
        }
    }

    /// A healthy fleet under the standard (strict FCFS) policy.
    fn healthy(
        cluster_nodes: u32,
        demands: &[JobDemand],
        arrivals: &ScheduleArrivals<'_>,
    ) -> Vec<Placement> {
        let plan = NodeFaultPlan::none();
        let s = resilient_schedule(
            cluster_nodes,
            demands,
            arrivals,
            &plan,
            &SchedPolicy::standard(),
        );
        assert!(s
            .iter()
            .all(|j| j.outcome == JobOutcome::Completed && j.attempts.len() == 1));
        s.iter().map(JobSchedule::as_placement).collect()
    }

    #[test]
    fn uncontended_jobs_start_at_submission() {
        let demands = [d(2, 10.0), d(2, 10.0), d(2, 10.0)];
        let submits = [0.0, 1.0, 2.0];
        let p = healthy(16, &demands, &ScheduleArrivals::Open(&submits));
        assert_eq!(p[0].start, 0.0);
        assert_eq!(p[1].start, 1.0);
        assert_eq!(p[2].start, 2.0);
    }

    #[test]
    fn saturated_cluster_queues_fcfs() {
        // 4 nodes; each job takes all of them: strict serialization.
        let demands = [d(4, 5.0), d(4, 5.0), d(4, 5.0)];
        let submits = [0.0, 0.0, 0.0];
        let p = healthy(4, &demands, &ScheduleArrivals::Open(&submits));
        assert_eq!(p[0].start, 0.0);
        assert_eq!(p[1].start, 5.0);
        assert_eq!(p[2].start, 10.0);
        assert!(
            p.windows(2).all(|w| w[1].start >= w[0].start),
            "admission order"
        );
    }

    #[test]
    fn no_backfill_small_job_waits_for_big_head() {
        // Job 1 wants the whole cluster and queues; job 2 would fit in the
        // leftover nodes but must not overtake it.
        let demands = [d(2, 10.0), d(4, 5.0), d(1, 1.0)];
        let submits = [0.0, 0.0, 0.0];
        let p = healthy(4, &demands, &ScheduleArrivals::Open(&submits));
        assert_eq!(p[1].start, 10.0);
        assert!(p[2].start >= p[1].start, "no backfill past the queue head");
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let demands: Vec<JobDemand> = (0..40)
            .map(|i| d(1 + (i % 3), 3.0 + i as f64 * 0.1))
            .collect();
        let submits: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        let cluster = 6u32;
        let p = healthy(cluster, &demands, &ScheduleArrivals::Open(&submits));
        // Check occupancy at every start instant.
        for probe in &p {
            let t = probe.start;
            let used: u32 = p
                .iter()
                .zip(&demands)
                .filter(|(pl, _)| pl.start <= t && t < pl.end)
                .map(|(_, dm)| dm.nodes)
                .sum();
            assert!(used <= cluster, "{used} nodes used at t={t}");
        }
    }

    #[test]
    fn closed_loop_keeps_concurrency_bounded() {
        let demands: Vec<JobDemand> = (0..12).map(|_| d(1, 10.0)).collect();
        let p = healthy(
            64,
            &demands,
            &ScheduleArrivals::Closed {
                concurrency: 3,
                think_time: 1.0,
            },
        );
        // First three at t=0; job 3 submits when job 0 ends (+1s think).
        assert_eq!(p[0].start, 0.0);
        assert_eq!(p[2].start, 0.0);
        assert_eq!(p[3].submit, 11.0);
        assert_eq!(p[3].start, 11.0);
        // At any start instant at most `concurrency` jobs are in flight.
        for probe in &p {
            let t = probe.start;
            let inflight = p.iter().filter(|pl| pl.start <= t && t < pl.end).count();
            assert!(inflight <= 3, "{inflight} jobs in flight at t={t}");
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let demands: Vec<JobDemand> = (0..30)
            .map(|i| d(1 + (i % 4), 2.0 + i as f64 * 0.3))
            .collect();
        let submits: Vec<f64> = (0..30)
            .map(|i| (i as f64 * 0.7) % 11.0 + i as f64 * 0.2)
            .collect();
        let a = healthy(8, &demands, &ScheduleArrivals::Open(&submits));
        let b = healthy(8, &demands, &ScheduleArrivals::Open(&submits));
        assert_eq!(a, b);
    }

    #[test]
    fn outage_after_the_fleet_drains_changes_no_closed_placement() {
        // Closed arrivals with mixed runtimes: job 3 submits when job 1
        // ends (t = 1), long before job 2 does (t = 10), so the queue
        // admits by (submit, id), not by job id. An outage that starts
        // after every job has finished must leave every placement as the
        // healthy fleet has it.
        let demands = [
            d(1, 10.0),
            d(1, 1.0),
            d(1, 4.0),
            d(1, 2.0),
            d(2, 3.0),
            d(1, 5.0),
        ];
        let arrivals = ScheduleArrivals::Closed {
            concurrency: 2,
            think_time: 0.0,
        };
        let pol = SchedPolicy::standard();
        let plan = NodeFaultPlan::none();
        let clean = resilient_schedule(2, &demands, &arrivals, &plan, &pol);
        assert_eq!(clean[3].submit, 1.0);
        assert_eq!(clean[3].final_attempt().start, 1.0, "admitted before job 2");
        let drained = clean
            .iter()
            .map(|s| s.final_attempt().end)
            .fold(0.0, f64::max);
        let late = NodeFaultPlan::none().with_outage(0, drained + 1.0, 5.0);
        let faulted = resilient_schedule(2, &demands, &arrivals, &late, &pol);
        assert_eq!(clean, faulted);
    }

    #[test]
    fn outage_kills_and_requeue_completes_with_backoff() {
        // One 2-node job on a 2-node cluster; node 0 fails at t=4 for 10 s.
        let demands = [d(2, 10.0)];
        let submits = [0.0];
        let plan = NodeFaultPlan::none().with_outage(0, 4.0, 10.0);
        let pol = SchedPolicy::standard();
        let s = &resilient_schedule(2, &demands, &ScheduleArrivals::Open(&submits), &plan, &pol)[0];
        assert_eq!(s.outcome, JobOutcome::CompletedAfterRetry(1));
        assert_eq!(s.attempts.len(), 2);
        assert_eq!(s.attempts[0].killed_by, Some(0));
        assert_eq!(s.attempts[0].end, 4.0);
        // Requeued at 4 + 30 s backoff, but node 0 is down until 14; both
        // nodes are only free at max(34, 14) = 34.
        assert_eq!(s.attempts[1].start, 34.0);
        assert_eq!(s.attempts[1].end, 44.0);
        assert_eq!(s.attempts[1].killed_by, None);
        assert!((s.lost_node_secs(2) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn retry_budget_exhaustion_abandons_the_job() {
        // The node the job needs fails every time it runs: first kill at
        // t=10; the requeue (30 s backoff → restart at 40) is killed again
        // at t=50, exhausting a budget of one retry.
        let demands = [d(1, 100.0)];
        let submits = [0.0];
        let plan = NodeFaultPlan::none()
            .with_outage(0, 10.0, 1.0)
            .with_outage(0, 50.0, 1.0);
        let pol = SchedPolicy {
            max_retries: 1,
            ..SchedPolicy::standard()
        };
        let s = &resilient_schedule(1, &demands, &ScheduleArrivals::Open(&submits), &plan, &pol)[0];
        assert_eq!(s.outcome, JobOutcome::Abandoned);
        assert_eq!(s.attempts.len(), 2, "first run + one retry, then abandoned");
        assert!(s.attempts.iter().all(|a| a.killed_by == Some(0)));
    }

    #[test]
    fn pool_shrinks_while_nodes_are_down() {
        // 2 nodes; node 1 is down [0, 50): two 1-node jobs serialize on
        // node 0 instead of running concurrently.
        let demands = [d(1, 10.0), d(1, 10.0)];
        let submits = [0.0, 0.0];
        let plan = NodeFaultPlan::none().with_outage(1, 0.0, 50.0);
        let pol = SchedPolicy::standard();
        let s = resilient_schedule(2, &demands, &ScheduleArrivals::Open(&submits), &plan, &pol);
        assert_eq!(s[0].attempts[0].start, 0.0);
        assert_eq!(
            s[1].attempts[0].start, 10.0,
            "second job waits for the only up node"
        );
        assert!(s.iter().all(|j| j.outcome == JobOutcome::Completed));
    }

    #[test]
    fn backfill_lets_small_jobs_flow_around_a_blocked_head() {
        // 4 nodes. Job 0 holds all 4 until t=10; job 1 (wants 4) blocks;
        // job 2 (wants 0 free... 1 node) — without backfill it waits behind
        // job 1, with backfill it cannot start either (0 free). Use a
        // 3-node head instead: job 0 takes 3, job 1 wants 3 (blocked),
        // job 2 wants 1 and can backfill into the free node.
        let demands = [d(3, 10.0), d(3, 5.0), d(1, 2.0)];
        let submits = [0.0, 1.0, 2.0];
        let plan = NodeFaultPlan::none();
        let fcfs_pol = SchedPolicy {
            backfill: false,
            ..SchedPolicy::standard()
        };
        let bf_pol = SchedPolicy {
            backfill: true,
            ..SchedPolicy::standard()
        };
        let arrivals = ScheduleArrivals::Open(&submits);
        let strict = resilient_schedule(4, &demands, &arrivals, &plan, &fcfs_pol);
        let backfilled = resilient_schedule(4, &demands, &arrivals, &plan, &bf_pol);
        assert_eq!(
            strict[2].attempts[0].start, 10.0,
            "strict: waits behind the 3-node head"
        );
        assert_eq!(
            backfilled[2].attempts[0].start, 2.0,
            "backfill: into the free node"
        );
        // The head itself is not delayed by the backfilled job.
        assert_eq!(strict[1].attempts[0].start, backfilled[1].attempts[0].start);
    }

    #[test]
    fn closed_arrivals_release_successors_on_terminal_events() {
        let demands: Vec<JobDemand> = (0..6).map(|_| d(1, 10.0)).collect();
        let plan = NodeFaultPlan::none().with_outage(0, 1e9, 1.0); // far-future: active plan, no effect
        let pol = SchedPolicy::standard();
        let s = resilient_schedule(
            4,
            &demands,
            &ScheduleArrivals::Closed {
                concurrency: 2,
                think_time: 1.0,
            },
            &plan,
            &pol,
        );
        assert_eq!(s[0].submit, 0.0);
        assert_eq!(s[1].submit, 0.0);
        assert_eq!(s[2].submit, 11.0);
        assert_eq!(s[3].submit, 11.0);
        assert_eq!(s[4].submit, 22.0);
        assert!(s.iter().all(|j| j.outcome == JobOutcome::Completed));
    }

    #[test]
    fn requeue_delay_is_monotone_and_capped() {
        let pol = SchedPolicy::standard();
        let mut prev = 0.0;
        for k in 1..20 {
            let d = pol.requeue_delay(k);
            assert!(d >= prev, "backoff must be non-decreasing");
            assert!(d <= pol.max_backoff);
            prev = d;
        }
        assert_eq!(pol.requeue_delay(1), 30.0);
        assert_eq!(pol.requeue_delay(2), 60.0);
        assert_eq!(pol.requeue_delay(20), 480.0);
    }
}
