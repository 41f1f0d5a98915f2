//! # vani-core
//!
//! The paper's primary contribution: a systematic characterization of HPC
//! workload I/O behavior into **entities** and **attributes**, automatic
//! extraction of those attributes from multi-level traces, and a mapping
//! from attributes to storage-stack reconfigurations.
//!
//! * [`entities`] — the entity/attribute model of §IV-B: Job entities
//!   (job-configuration, workflow, application, I/O-phase), Software
//!   entities (high-level I/O, middleware, node-local and shared storage),
//!   and Data entities (dataset, file),
//! * [`analyzer`] — the Vani Analyzer: turns a captured columnar trace into
//!   attributes (shared-vs-FPP classification, data/metadata splits,
//!   request-size and bandwidth histograms, timelines, phase detection,
//!   access-pattern detection, process/app data dependencies, value
//!   distribution fitting),
//! * [`tables`] — regenerates the paper's Tables I–XI from a set of runs,
//! * [`figures`] — regenerates the per-workload Figures 1–6 panels
//!   (request-size/bandwidth histograms, dependency summaries, timelines),
//! * [`yaml`] — the Analyzer's YAML emission of entities and attributes,
//! * [`optimizer`] — the §IV-D attribute → optimization mapping rules,
//! * [`reconfig`] — the two §V use cases: CosmoFlow preload-to-shm (Fig. 7)
//!   and Montage intermediates-to-node-local (Fig. 8), as experiment
//!   drivers that run baseline and optimized variants across node counts,
//! * [`faultsweep`] — the fault-injection sweep: MDS-brownout sensitivity
//!   (CosmoFlow vs HACC), single-NSD-outage bandwidth cost, and
//!   preload-to-shm fault shielding,
//! * [`crashsweep`] — the crash-recovery sweep: CosmoFlow over a grid of
//!   checkpoint counts × whole-job crashes, rendering the
//!   checkpoint-interval vs time-to-solution tradeoff figure,
//! * [`tenancy`] — the multi-tenant datacenter mode: seeded open Poisson
//!   job arrivals, a deterministic FCFS scheduler over a shared cluster,
//!   a mean-field shared-PFS contention model, and the fleet sweep that
//!   renders IO500-style distribution/correlation/noisy-neighbor
//!   statistics over thousands of jobs (`repro -- fleet-sweep`),
//! * [`sweep`] — the fan-out driver: every sweep (paper six, fault
//!   scenarios, reconfiguration points, crash grid, fleet waves) is a list
//!   of cells mapped through one [`sweep::Driver`], sequentially or across
//!   `rt::par` workers, with results in list order, so every table, YAML
//!   document, and figure is byte-identical to a sequential run at any
//!   worker count.

pub mod analyzer;
pub mod crashsweep;
pub mod entities;
pub mod faultsweep;
pub mod figures;
pub mod optimizer;
pub mod reconfig;
pub mod streaming;
pub mod sweep;
pub mod tables;
pub mod tenancy;
pub mod yaml;

pub use analyzer::Analysis;
pub use entities::{AttrValue, Entity, EntityType};
pub use optimizer::{recommend, Recommendation};
