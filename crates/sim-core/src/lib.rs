//! # sim-core
//!
//! Discrete-event simulation core for the vani-rs suite.
//!
//! This crate provides the substrate-independent building blocks used by the
//! cluster, storage, and workload simulators:
//!
//! * [`time`] — nanosecond-resolution virtual time ([`SimTime`]) and durations
//!   ([`Dur`]) with bandwidth/latency arithmetic,
//! * [`event`] — a deterministic event queue with stable FIFO tie-breaking,
//! * [`resource`] — queueing-theoretic resource models (single server, server
//!   pools, bandwidth channels) that produce contention effects,
//! * [`stats`] — histogram, summary-statistics, time-series binning, and
//!   distribution-fitting kernels used by the analyzer,
//! * [`units`] — byte/bandwidth constants and human-readable formatting.
//!
//! Everything here is deterministic: two runs with the same seeds produce
//! bit-identical schedules, which the test suite relies on.

pub mod event;
pub mod resource;
pub mod stats;
pub mod time;
pub mod units;

pub use event::{EventQueue, QueuedEvent};
pub use resource::{BandwidthChannel, ServerPool, ServerQueue};
pub use stats::{Histogram, Summary, TimeSeries};
pub use time::{Dur, SimTime};
