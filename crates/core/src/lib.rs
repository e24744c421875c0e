//! The n-gram LDP trajectory-perturbation mechanism of Cunningham et al.,
//! "Real-World Trajectory Sharing with Local Differential Privacy"
//! (PVLDB 14(11), 2021), plus every baseline the paper evaluates.
//!
//! # Pipeline (Figure 1)
//!
//! 1. [`decomposition`] — hierarchical decomposition of POIs into
//!    space-time-category (STC) regions over public knowledge, with
//!    κ-merging (§5.3),
//! 2. [`perturb`] — overlapping n-gram perturbation of the region-level
//!    trajectory via the Exponential Mechanism with per-window budget
//!    ε′ = ε/(|τ|+n−1) (§5.4),
//! 3. [`reconstruct`] — optimal region-level reconstruction as a bigram
//!    lattice (Eq. 10–14), solved by Viterbi or the paper-faithful ILP
//!    (§5.5),
//! 4. [`poi_level`] — POI-level rejection sampling with time smoothing
//!    (§5.6).
//!
//! [`NGramMechanism`] ties the stages together; [`baselines`] provides
//! `IndNoReach`, `IndReach`, `PhysDist`, `NGramNoH` (§5.9) and the global
//! solution (§5.1). All of them implement [`Mechanism`], so the evaluation
//! harness treats them uniformly. Beyond the paper's headline pipeline,
//! [`continuous`] implements the §8 streaming-point extension and
//! [`attack`] the §5.7 Bayesian-adversary analysis.
//!
//! # Quickstart
//!
//! ```
//! use trajshare_core::{MechanismConfig, NGramMechanism, Mechanism};
//! use trajshare_model::{Dataset, Trajectory};
//! # use trajshare_model::{Poi, PoiId, TimeDomain};
//! # use trajshare_geo::{GeoPoint, DistanceMetric};
//! # use rand::SeedableRng;
//! # let hierarchy = trajshare_hierarchy::builders::campus();
//! # let leaf = hierarchy.leaves()[0];
//! # let origin = GeoPoint::new(40.7, -74.0);
//! # let pois: Vec<Poi> = (0..20).map(|i| Poi::new(PoiId(i), format!("p{i}"),
//! #     origin.offset_m((i % 5) as f64 * 400.0, (i / 5) as f64 * 400.0), leaf)).collect();
//! # let dataset = Dataset::new(pois, hierarchy, TimeDomain::new(10), Some(8.0),
//! #     DistanceMetric::Haversine);
//! let config = MechanismConfig::default();
//! let mech = NGramMechanism::build(&dataset, &config);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let real = Trajectory::from_pairs(&[(0, 60), (1, 62), (2, 65)]);
//! let out = mech.perturb(&real, &mut rng);
//! assert_eq!(out.trajectory.len(), real.len());
//! ```

pub mod attack;
pub mod baselines;
pub mod blob;
pub mod config;
pub mod continuous;
pub mod crc;
pub mod decomposition;
pub mod distances;
pub mod graphcodec;
pub mod kernels;
pub mod mechanism;
pub mod ngram_mech;
pub mod perturb;
pub mod poi_level;
pub mod reconstruct;
pub mod region;
pub mod regiongraph;
pub mod vio;

pub use attack::{PathPrior, TrajectoryAdversary};
pub use blob::BlobError;
pub use config::{MechanismConfig, MergeDimension, ReconstructionSolver};
pub use continuous::ContinuousSharer;
pub use crc::{crc32, crc32_extend};
pub use decomposition::decompose;
pub use graphcodec::{
    decode_region_graph, encode_region_graph, read_region_graph_file, write_region_graph_file,
};
pub use mechanism::{Mechanism, MechanismOutput, StageTimings};
pub use ngram_mech::{NGramMechanism, PerturbedTrajectory};
pub use region::{RegionId, RegionSet, StcRegion};
pub use regiongraph::RegionGraph;
