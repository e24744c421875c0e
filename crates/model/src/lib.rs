//! Domain model for `trajshare`.
//!
//! Implements the paper's §4 definitions: POIs with location, category,
//! popularity and opening hours ([`Poi`]); the quantized time domain with
//! granularity `g_t` ([`TimeDomain`]); trajectories as time-ordered
//! (POI, timestep) sequences ([`Trajectory`]); and the reachability
//! constraint of Definition 4.1 ([`ReachabilityOracle`]).
//!
//! A [`Dataset`] bundles the POI table with the public external knowledge
//! (category hierarchy + distance, travel speed, distance metric) that the
//! mechanism and every baseline consume.

pub mod dataset;
pub mod opening;
pub mod poi;
pub mod reachability;
pub mod time;
pub mod trajectory;

pub use dataset::{Dataset, PoiTable};
pub use opening::OpeningHours;
pub use poi::{Poi, PoiId};
pub use reachability::{ReachabilityOracle, TravelSpeed};
pub use time::{TimeDomain, TimeInterval, Timestep};
pub use trajectory::{Trajectory, TrajectoryPoint, TrajectorySet, ValidationError};
