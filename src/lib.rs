//! Umbrella crate: re-exports every `trajshare` workspace crate under one
//! name so the root-level `examples/` and `tests/` (and downstream users)
//! can depend on a single package.
//!
//! The layering, client → aggregator → publisher:
//!
//! * [`model`] / [`geo`] / [`hierarchy`] — public external knowledge,
//! * [`mech`] / [`lp`] — mechanism and optimization substrates,
//! * [`core`] — the per-user NGram perturbation pipeline (PVLDB 2021),
//! * [`aggregate`] — population-scale report ingestion, unbiased frequency
//!   estimation, and Markov trajectory synthesis,
//! * [`query`] — utility measures,
//! * [`datagen`] / [`bench`](mod@crate::bench) — synthetic data and the
//!   evaluation harness.

pub use trajshare_aggregate as aggregate;
pub use trajshare_bench as bench;
pub use trajshare_core as core;
pub use trajshare_datagen as datagen;
pub use trajshare_geo as geo;
pub use trajshare_hierarchy as hierarchy;
pub use trajshare_lp as lp;
pub use trajshare_mech as mech;
pub use trajshare_model as model;
pub use trajshare_query as query;

/// Compiles the README's code blocks as doctests, so the README cannot
/// name an item the workspace no longer has.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
