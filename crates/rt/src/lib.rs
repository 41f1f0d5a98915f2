//! `vani-rt`: the suite's zero-dependency runtime layer.
//!
//! Everything the workspace used to pull from crates.io for its hot paths
//! lives here, hermetically:
//!
//! * [`par`] — a scoped-thread parallel executor with deterministic,
//!   thread-count-independent chunking, replacing `rayon`: `par_map_owned`
//!   fans out the sweeps' independent simulations and
//!   `par_fold_shards_sized` runs the analyzer's morsel fold.
//! * [`rng`] — a splittable xoshiro256++ deterministic RNG with uniform,
//!   normal, gamma, and exponential samplers and component-labelled seeding
//!   ([`Rng::for_component`], over the FNV-1a [`fnv1a64`]), replacing
//!   `rand`/`rand_distr`.
//! * [`json`] — a minimal JSON value type with a strict parser and a
//!   writer, for the one JSON document the suite reads back (the H5SIM
//!   object header), replacing `serde_json`.
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

pub use json::{Json, JsonError};
pub use rng::{fnv1a64, Rng};
