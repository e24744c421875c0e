//! Local differential privacy mechanism substrate.
//!
//! Provides the randomized primitives the trajectory mechanism is built on:
//!
//! * [`ExponentialMechanism`] — the EM of McSherry & Talwar (Definition 4.3),
//!   with numerically-stable log-space sampling and exact probability
//!   computation for tests,
//! * [`permute_and_flip`] — the Permute-and-Flip selection mechanism
//!   discussed as a global-solution variant in §5.1,
//! * [`subsampled_em`] — the subsampled EM of Lantz et al., the other §5.1
//!   variant,
//! * [`k_randomized_response`] — classic k-ary randomized response, used as
//!   a reference mechanism in tests,
//! * [`PrivacyBudget`] — a sequential-composition accountant that enforces
//!   the ε′ = ε/(|τ|+n−1) split of Theorem 5.3 at runtime.
//!
//! All samplers take `&mut impl Rng` so callers control determinism.

pub mod budget;
pub mod em;
pub mod pf;
pub mod rr;
pub mod sampling;
pub mod ssem;

pub use budget::{BudgetError, PrivacyBudget};
pub use em::ExponentialMechanism;
pub use pf::permute_and_flip;
pub use rr::{k_randomized_response, rr_truth_probability};
pub use sampling::sample_from_weights;
pub use ssem::subsampled_em;
