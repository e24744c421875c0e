//! Geographic points and distance metrics.

use serde::{Deserialize, Serialize};

/// Mean Earth radius in meters (IUGG value), used by the Haversine formula.
pub(crate) const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Which physical distance function to use (paper §5.10: "any distance
/// measure (e.g., Euclidean, Haversine, road network)"; the experiments use
/// Haversine throughout, §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DistanceMetric {
    /// Great-circle distance on a spherical Earth. Paper default.
    #[default]
    Haversine,
    /// Equirectangular-projection Euclidean distance. Cheaper, accurate at
    /// city scale; useful for tests and micro-benchmarks.
    Euclidean,
}

/// A point on the Earth's surface, in decimal degrees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north. Valid range `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, positive east. Valid range `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a new point. Debug-asserts the coordinates are in range.
    #[inline]
    pub fn new(lat: f64, lon: f64) -> Self {
        debug_assert!(
            (-90.0..=90.0).contains(&lat),
            "latitude out of range: {lat}"
        );
        debug_assert!(
            (-180.0..=180.0).contains(&lon),
            "longitude out of range: {lon}"
        );
        Self { lat, lon }
    }

    /// Great-circle (Haversine) distance to `other`, in meters.
    pub fn haversine_m(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        // Clamp guards against tiny negative rounding before sqrt.
        2.0 * EARTH_RADIUS_M * a.max(0.0).sqrt().min(1.0).asin()
    }

    /// Equirectangular-projection Euclidean distance to `other`, in meters.
    ///
    /// Projects both points onto a plane tangent at their mean latitude; the
    /// error is negligible at city scale (< 0.1% under ~50 km).
    pub fn euclidean_m(&self, other: &GeoPoint) -> f64 {
        let mean_lat = ((self.lat + other.lat) / 2.0).to_radians();
        let dx = (other.lon - self.lon).to_radians() * mean_lat.cos() * EARTH_RADIUS_M;
        let dy = (other.lat - self.lat).to_radians() * EARTH_RADIUS_M;
        (dx * dx + dy * dy).sqrt()
    }

    /// Distance under the chosen metric, in meters.
    #[inline]
    pub fn distance_m(&self, other: &GeoPoint, metric: DistanceMetric) -> f64 {
        match metric {
            DistanceMetric::Haversine => self.haversine_m(other),
            DistanceMetric::Euclidean => self.euclidean_m(other),
        }
    }

    /// Arithmetic midpoint in coordinate space (adequate at city scale).
    #[inline]
    pub fn midpoint(&self, other: &GeoPoint) -> GeoPoint {
        GeoPoint {
            lat: (self.lat + other.lat) / 2.0,
            lon: (self.lon + other.lon) / 2.0,
        }
    }

    /// Coordinate-space centroid of a non-empty set of points.
    ///
    /// Returns `None` for an empty slice. Used to compute STC-region
    /// centroids (§5.10: "the distance between the centroids of the POIs in
    /// the two regions").
    pub fn centroid(points: &[GeoPoint]) -> Option<GeoPoint> {
        if points.is_empty() {
            return None;
        }
        let n = points.len() as f64;
        let (slat, slon) = points
            .iter()
            .fold((0.0, 0.0), |(a, b), p| (a + p.lat, b + p.lon));
        Some(GeoPoint {
            lat: slat / n,
            lon: slon / n,
        })
    }

    /// Returns the point displaced by `(east_m, north_m)` meters.
    ///
    /// Useful for synthetic-city generation: lay out POIs on a local tangent
    /// plane anchored at `self`.
    pub fn offset_m(&self, east_m: f64, north_m: f64) -> GeoPoint {
        let dlat = (north_m / EARTH_RADIUS_M).to_degrees();
        let dlon = (east_m / (EARTH_RADIUS_M * self.lat.to_radians().cos())).to_degrees();
        GeoPoint {
            lat: self.lat + dlat,
            lon: self.lon + dlon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NYC: GeoPoint = GeoPoint {
        lat: 40.7128,
        lon: -74.0060,
    };
    const LONDON: GeoPoint = GeoPoint {
        lat: 51.5074,
        lon: -0.1278,
    };

    #[test]
    fn haversine_zero_for_identical_points() {
        assert_eq!(NYC.haversine_m(&NYC), 0.0);
    }

    #[test]
    fn haversine_nyc_to_london_is_about_5570_km() {
        let d = NYC.haversine_m(&LONDON);
        assert!((d - 5_570_000.0).abs() < 20_000.0, "got {d}");
    }

    #[test]
    fn haversine_is_symmetric() {
        assert!((NYC.haversine_m(&LONDON) - LONDON.haversine_m(&NYC)).abs() < 1e-6);
    }

    #[test]
    fn euclidean_close_to_haversine_at_city_scale() {
        let a = GeoPoint::new(40.7128, -74.0060);
        let b = GeoPoint::new(40.7589, -73.9851); // Times Square-ish, ~5.4 km
        let h = a.haversine_m(&b);
        let e = a.euclidean_m(&b);
        assert!((h - e).abs() / h < 1e-3, "haversine {h} vs euclidean {e}");
    }

    #[test]
    fn metric_dispatch_matches_direct_calls() {
        assert_eq!(
            NYC.distance_m(&LONDON, DistanceMetric::Haversine),
            NYC.haversine_m(&LONDON)
        );
        assert_eq!(
            NYC.distance_m(&LONDON, DistanceMetric::Euclidean),
            NYC.euclidean_m(&LONDON)
        );
    }

    #[test]
    fn midpoint_is_halfway_in_coordinates() {
        let m = NYC.midpoint(&LONDON);
        assert!((m.lat - (NYC.lat + LONDON.lat) / 2.0).abs() < 1e-12);
        assert!((m.lon - (NYC.lon + LONDON.lon) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(GeoPoint::centroid(&[]).is_none());
    }

    #[test]
    fn centroid_of_singleton_is_the_point() {
        let c = GeoPoint::centroid(&[NYC]).unwrap();
        assert_eq!(c, NYC);
    }

    #[test]
    fn offset_roundtrip_distance() {
        let p = NYC.offset_m(1000.0, 0.0);
        let d = NYC.haversine_m(&p);
        assert!((d - 1000.0).abs() < 2.0, "got {d}");
        let q = NYC.offset_m(0.0, -2500.0);
        let d = NYC.haversine_m(&q);
        assert!((d - 2500.0).abs() < 2.0, "got {d}");
    }

    fn city_coord() -> impl Strategy<Value = GeoPoint> {
        // Points within a ~50 km box around NYC.
        (40.4f64..41.0, -74.5f64..-73.5).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
    }

    proptest! {
        #[test]
        fn prop_haversine_nonnegative_and_symmetric(a in city_coord(), b in city_coord()) {
            let d1 = a.haversine_m(&b);
            let d2 = b.haversine_m(&a);
            prop_assert!(d1 >= 0.0);
            prop_assert!((d1 - d2).abs() < 1e-6);
        }

        #[test]
        fn prop_haversine_triangle_inequality(
            a in city_coord(), b in city_coord(), c in city_coord()
        ) {
            let ab = a.haversine_m(&b);
            let bc = b.haversine_m(&c);
            let ac = a.haversine_m(&c);
            prop_assert!(ac <= ab + bc + 1e-6);
        }

        #[test]
        fn prop_identity_of_indiscernibles(a in city_coord()) {
            prop_assert_eq!(a.haversine_m(&a), 0.0);
            prop_assert_eq!(a.euclidean_m(&a), 0.0);
        }

        #[test]
        fn prop_offset_distance_matches(
            a in city_coord(), dx in -5_000.0f64..5_000.0, dy in -5_000.0f64..5_000.0
        ) {
            let p = a.offset_m(dx, dy);
            let expect = (dx * dx + dy * dy).sqrt();
            let got = a.haversine_m(&p);
            // 0.5% tolerance: offset uses a tangent-plane approximation.
            prop_assert!((got - expect).abs() <= expect * 5e-3 + 1.0);
        }
    }
}
