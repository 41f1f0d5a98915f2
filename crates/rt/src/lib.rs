//! `vani-rt`: the suite's zero-dependency runtime layer.
//!
//! Everything the workspace used to pull from crates.io for its hot paths
//! lives here, hermetically:
//!
//! * [`par`] — a scoped-thread parallel executor (`par_map_owned`,
//!   `par_reduce`, `par_fold_shards_sized`, `par_group_by`) with
//!   deterministic, thread-count-independent chunking, replacing `rayon`.
//! * [`rng`] — a splittable xoshiro256++ deterministic RNG with uniform,
//!   normal, gamma, and lognormal samplers and component-labelled seeding
//!   ([`Rng::for_component`], over the FNV-1a [`fnv1a64`]), replacing
//!   `rand`/`rand_distr`.
//! * [`json`] — a minimal JSON value type plus [`json::ToJson`]/
//!   [`json::FromJson`] traits with hand-written impls at the call sites,
//!   replacing `serde`/`serde_json`.
//! * [`stats`] — order statistics (interpolated percentiles, five-point
//!   [`stats::Quantiles`]) and Pearson correlation for the fleet-scale
//!   characterization reports.
//!
//! Design rule: nothing in this crate (or anywhere in the workspace) may
//! depend on a registry crate, so `cargo build --offline` works from a clean
//! checkout with no network and no vendored sources.

pub mod json;
pub mod par;
pub mod rng;
pub mod stats;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::{fnv1a64, Rng};
