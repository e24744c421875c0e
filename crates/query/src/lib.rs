//! Utility measures of §6.3: how well does a perturbed trajectory set
//! preserve the real one?
//!
//! * [`ne`] — normalized error (per-dimension distance between real and
//!   perturbed trajectories, normalized by |τ|),
//! * [`prq`] — preservation range queries (Eq. 17),
//! * [`hotspot`] — spatio-temporal hotspot extraction with the AHD (Eq. 18)
//!   and ACD measures.

pub mod hotspot;
pub mod ne;
pub mod od_matrix;
pub mod prq;

pub use hotspot::{acd, ahd, extract_hotspots, Hotspot, HotspotScope};
pub use ne::{normalized_error, NormalizedError};
pub use od_matrix::OdMatrix;
pub use prq::{preservation_range, prq_curve, PrqDimension};
