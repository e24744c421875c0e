//! Red-team evaluation tier: attack what the pipeline *publishes*.
//!
//! The ledger tier proves the accounting (Σ spend ≤ ε over every
//! horizon); this crate measures what those numbers buy an adversary in
//! practice, in the spirit of the reconstruction attacks on DP trajectory
//! mechanisms (arXiv 2210.09375). Two instruments:
//!
//! * [`harness::reconstruction_attack`] — a whole-trajectory MAP decoder
//!   (`trajshare_core::TrajectoryAdversary`, Viterbi over the `W₂`
//!   lattice) run against the client *uploads* the collector sees on the
//!   wire, optionally sharpened with the published population model as a
//!   prior. Scored by exact-recovery rate and mean reconstruction
//!   distance.
//! * [`mi`] + [`harness::membership_eps_lower_bound`] — empirical ε via
//!   membership inference on *neighboring streams*: run the full pipeline
//!   twice on datasets differing in one user, score the target under each
//!   published model, and convert the attacker's distinguishing advantage
//!   into a DKW-corrected lower bound on the privacy loss. Sound: with
//!   probability ≥ 1−δ the reported bound does not exceed the true ε of
//!   the end-to-end channel, so `empirical ≤ theoretical` is a testable
//!   invariant, not a hope.
//!
//! Threat model discipline: every attack entry point consumes only
//! (a) the wire uploads — visible to the collector by definition,
//! (b) public knowledge (dataset, mechanism config, region universe), and
//! (c) [`trajshare_aggregate::PublishedStream`] — the released surface.
//! Ground truth appears exclusively on the *scoring* side. Nothing in
//! this crate reads mechanism-internal state.

pub mod harness;
pub mod mi;

pub use harness::{membership_eps_lower_bound, reconstruction_attack, ReconSummary};
pub use mi::{krr_empirical_eps, MiEstimate};
