//! Multi-tenant datacenter mode: a shared-PFS job scheduler plus
//! fleet-scale statistical characterization.
//!
//! The paper characterizes each exemplar workload on a *dedicated* machine.
//! Production clusters are nothing like that: many heterogeneous jobs run
//! concurrently and contend for the same NSD data servers and MDS metadata
//! servers. This module adds that missing regime:
//!
//! * [`arrival`] — the seeded open Poisson arrival process (exponential
//!   inter-arrival gaps);
//! * [`scheduler`] — one deterministic event-driven scheduler,
//!   [`scheduler::resilient_schedule`], placing jobs onto a fixed pool of
//!   cluster nodes in strict FCFS `(submit, job id)` order and requeueing
//!   jobs killed by node outages with retry budgets and exponential
//!   backoff;
//! * [`outage`] — fleet-level failure domains: seeded [`NodeFaultPlan`]
//!   timelines of whole-node outages with repair times, drawn from the
//!   manifest's fourth split RNG stream so existing job seeds never
//!   shift;
//! * [`contention`] — the mean-field contention model: each job's
//!   neighbors become a piecewise-constant
//!   [`storage_sim::InterferenceSchedule`] of competing data/metadata load
//!   installed into the job's own PFS simulation;
//! * [`fleet`] — the fleet sweep: manifest generation (workload mix,
//!   variants, seeds, arrivals), dedicated profile runs, scheduling,
//!   interference construction, and the job fan-out through
//!   [`crate::sweep::Driver::map`];
//! * [`stats`] — IO500-style fleet reports: per-attribute p50/p90/p99
//!   distributions, cross-attribute Pearson correlations, and the
//!   noisy-neighbor slowdown-vs-dedicated table.
//!
//! # Determinism contract
//!
//! The fleet manifest is generated sequentially from the fleet seed before
//! any simulation starts, and each job runs at its manifest seed (or its
//! [`crate::sweep::retry_seed`] when requeued); profile and job fan-outs
//! go through [`crate::sweep::Driver::map`], which returns results in
//! list order; scheduling is a sequential fold over events in a fixed order;
//! and every other post-processing reduction (interference windows,
//! quantiles, correlations) is a sequential pass in job-id order.
//! The rendered report is therefore **byte-identical at any worker
//! count**, and a fleet whose schedule produces no overlap (a single
//! tenant) installs empty interference schedules, which the PFS treats as
//! bit-identical to a dedicated run.

pub mod arrival;
pub mod contention;
pub mod fleet;
pub mod outage;
pub mod scheduler;
pub mod stats;

pub use arrival::ArrivalProcess;
pub use contention::TenantDemand;
pub use fleet::{
    build_manifest, fleet_sweep, parse_workload, FleetConfig, FleetManifest, JobRecord,
    JobTemplate, JobVariant, ManifestJob, NodeFaultSpec, SpillSpec, KNOWN_WORKLOADS,
};
pub use outage::{NodeFaultPlan, NodeFaultProfile, NodeOutage};
pub use scheduler::{
    resilient_schedule, JobAttempt, JobDemand, JobOutcome, JobSchedule, Placement, SchedPolicy,
    ScheduleArrivals,
};
pub use stats::{FleetReport, ProfileSummary, SpillFleetStats};

/// A fleet configuration that cannot be run. Surfaced as a typed error —
/// never a panic — so `repro -- fleet-sweep` can fail fast with a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// A job template references a workload id the suite does not know.
    UnknownWorkload(String),
    /// The workload mix is empty or has zero total weight.
    EmptyMix,
    /// A job needs more nodes than the shared cluster has.
    JobTooLarge {
        /// The workload id.
        workload: String,
        /// Nodes the job needs at the configured scale.
        nodes: u32,
        /// Nodes the shared cluster has.
        cluster_nodes: u32,
    },
    /// A `--jobs` argument that is not a positive integer.
    InvalidJobs {
        /// The argument as the user typed it.
        arg: String,
    },
    /// A `--spill` directory that does not exist, is not a directory, or
    /// is not writable.
    InvalidSpillDir {
        /// The directory as the user typed it.
        dir: String,
        /// Why it cannot be used.
        detail: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownWorkload(w) => {
                write!(
                    f,
                    "unknown workload `{w}` (known: {})",
                    fleet::KNOWN_WORKLOADS.join(", ")
                )
            }
            FleetError::EmptyMix => write!(f, "fleet mix is empty (or has zero total weight)"),
            FleetError::JobTooLarge {
                workload,
                nodes,
                cluster_nodes,
            } => write!(
                f,
                "job `{workload}` needs {nodes} nodes but the cluster has {cluster_nodes}"
            ),
            FleetError::InvalidJobs { arg } => {
                write!(
                    f,
                    "invalid --jobs value `{arg}`: expected a positive integer"
                )
            }
            FleetError::InvalidSpillDir { dir, detail } => {
                write!(f, "invalid --spill directory `{dir}`: {detail}")
            }
        }
    }
}

impl std::error::Error for FleetError {}
