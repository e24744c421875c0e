//! Geometry substrate for `trajshare`.
//!
//! This crate provides the spatial primitives that the trajectory-sharing
//! mechanism of Cunningham et al. (VLDB 2021) relies on:
//!
//! * [`GeoPoint`] — a latitude/longitude pair with [Haversine](GeoPoint::haversine_m)
//!   and equirectangular-[Euclidean](GeoPoint::euclidean_m) distances,
//! * [`BoundingBox`] — axis-aligned boxes used for the minimum bounding
//!   rectangle (MBR) pruning step of §5.5,
//! * [`UniformGrid`] — the `g_s × g_s` uniform spatial decomposition of §6.2.
//!
//! All distances are in meters unless a function name says otherwise.

pub mod grid;
pub mod mbr;
pub mod point;

pub use grid::{CellId, UniformGrid};
pub use mbr::BoundingBox;
pub use point::{DistanceMetric, GeoPoint};
