//! The multi-attribute semantic distance function (§5.10).
//!
//! Units (documented in DESIGN.md §6): physical distance in **kilometers**,
//! time distance in **hours** (capped at 12), category distance on the
//! Figure-5 scale (0–10). The combined distance is the Euclidean
//! combination of Eq. 15; n-gram distances are element-wise sums (Eq. 16).

use crate::region::{RegionId, RegionSet};
use trajshare_model::Dataset;

/// Cap on the time distance, in hours (§5.10).
pub const TIME_CAP_H: f64 = 12.0;

/// Precomputed pairwise combined distances between STC regions, plus the
/// sensitivity bound Δd.
#[derive(Debug, Clone)]
pub struct RegionDistance {
    n: usize,
    matrix: Vec<f32>,
    dmax: f64,
}

impl RegionDistance {
    /// Builds the full `|R|²` matrix. `O(|R|²)` time, 4 bytes per entry.
    pub fn build(dataset: &Dataset, regions: &RegionSet) -> Self {
        let n = regions.len();
        let mut matrix = vec![0.0f32; n * n];
        let mut dmax = 0.0f64;
        for a in 0..n {
            let ra = regions.get(RegionId(a as u32));
            for b in a..n {
                let rb = regions.get(RegionId(b as u32));
                let ds_km = ra.centroid.distance_m(&rb.centroid, dataset.metric) / 1000.0;
                let dt_h = ra.time.center_distance_capped_min(&rb.time) / 60.0;
                let dc = dataset.category_distance.get(ra.category, rb.category);
                // Store f32 but track the max of the *stored* values, so
                // dmax really bounds every `get` result despite rounding.
                let d = combine(ds_km, dt_h, dc) as f32;
                matrix[a * n + b] = d;
                matrix[b * n + a] = d;
                dmax = dmax.max(d as f64);
            }
        }
        Self { n, matrix, dmax }
    }

    /// Rebuilds a distance matrix from its serialized parts (the
    /// region-graph codec, [`crate::graphcodec`]). `matrix` is the
    /// row-major `n × n` stored-`f32` matrix; `dmax` is recomputed from
    /// the stored values, so the sensitivity bound holds by construction
    /// exactly as in [`RegionDistance::build`].
    pub fn from_parts(n: usize, matrix: Vec<f32>) -> Self {
        assert_eq!(matrix.len(), n * n, "matrix must be n x n");
        let dmax = matrix.iter().fold(0.0f64, |m, &d| m.max(d as f64));
        Self { n, matrix, dmax }
    }

    /// The raw stored `f32` matrix, row-major — what the codec writes.
    #[inline]
    pub fn raw_matrix(&self) -> &[f32] {
        &self.matrix
    }

    /// Combined distance between two regions.
    #[inline]
    pub fn get(&self, a: RegionId, b: RegionId) -> f64 {
        self.matrix[a.index() * self.n + b.index()] as f64
    }

    /// Number of regions covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Maximum pairwise region distance — the per-element sensitivity bound.
    #[inline]
    pub fn dmax(&self) -> f64 {
        self.dmax
    }

    /// Sensitivity Δd_w of the n-gram distance (Eq. 16): `n` elements, each
    /// bounded by [`Self::dmax`].
    #[inline]
    pub fn ngram_sensitivity(&self, n: usize) -> f64 {
        self.dmax * n as f64
    }
}

/// Eq. 15: Euclidean combination of the three dimension distances.
#[inline]
pub(crate) fn combine(ds_km: f64, dt_h: f64, dc: f64) -> f64 {
    (ds_km * ds_km + dt_h * dt_h + dc * dc).sqrt()
}

/// Point-level combined distance between two (POI, timestep) visits.
/// Used by the POI-level baselines and the global solution.
pub fn point_distance(
    dataset: &Dataset,
    a: (trajshare_model::PoiId, trajshare_model::Timestep),
    b: (trajshare_model::PoiId, trajshare_model::Timestep),
) -> f64 {
    let ds_km = dataset.poi_distance_m(a.0, b.0) / 1000.0;
    let dt_h = (dataset.time.gap_minutes(a.1, b.1) as f64 / 60.0).min(TIME_CAP_H);
    let ca = dataset.pois.get(a.0).category;
    let cb = dataset.pois.get(b.0).category;
    let dc = dataset.category_distance.get(ca, cb);
    combine(ds_km, dt_h, dc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MechanismConfig;
    use crate::decomposition::decompose;
    use trajshare_geo::{DistanceMetric, GeoPoint};
    use trajshare_hierarchy::builders::foursquare;
    use trajshare_model::{Poi, PoiId, TimeDomain, Timestep};

    fn dataset() -> Dataset {
        let h = foursquare();
        let leaves = h.leaves();
        let origin = GeoPoint::new(40.7, -74.0);
        let pois: Vec<Poi> = (0..120)
            .map(|i| {
                let loc = origin.offset_m((i % 12) as f64 * 400.0, (i / 12) as f64 * 400.0);
                Poi::new(
                    PoiId(i as u32),
                    format!("p{i}"),
                    loc,
                    leaves[i as usize % leaves.len()],
                )
            })
            .collect();
        Dataset::new(
            pois,
            h,
            TimeDomain::new(10),
            Some(8.0),
            DistanceMetric::Haversine,
        )
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let ds = dataset();
        let rs = decompose(&ds, &MechanismConfig::default());
        let rd = RegionDistance::build(&ds, &rs);
        for a in rs.ids() {
            assert_eq!(rd.get(a, a), 0.0);
            for b in rs.ids() {
                assert_eq!(rd.get(a, b), rd.get(b, a));
            }
        }
    }

    #[test]
    fn dmax_bounds_every_entry() {
        let ds = dataset();
        let rs = decompose(&ds, &MechanismConfig::default());
        let rd = RegionDistance::build(&ds, &rs);
        for a in rs.ids() {
            for b in rs.ids() {
                assert!(rd.get(a, b) <= rd.dmax() + 1e-9);
            }
        }
        // Sensitivity of bigrams is twice the element bound.
        assert_eq!(rd.ngram_sensitivity(2), 2.0 * rd.dmax());
    }

    #[test]
    fn combine_is_euclidean() {
        assert_eq!(combine(3.0, 4.0, 0.0), 5.0);
        assert_eq!(combine(0.0, 0.0, 10.0), 10.0);
        assert!(combine(1.0, 1.0, 1.0) > combine(1.0, 1.0, 0.0));
    }

    #[test]
    fn point_distance_components() {
        let ds = dataset();
        // Same POI, same time -> 0.
        let p = (PoiId(3), Timestep(60));
        assert_eq!(point_distance(&ds, p, p), 0.0);
        // Time-only difference: 60 min -> 1.0 h (categories/locations equal).
        let q = (PoiId(3), Timestep(66));
        assert!((point_distance(&ds, p, q) - 1.0).abs() < 1e-9);
        // Time cap at 12 h even for 23 h gaps.
        let r = (PoiId(3), Timestep(0));
        let far = (PoiId(3), Timestep(138));
        assert!((point_distance(&ds, r, far) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn dmax_reflects_caps() {
        let ds = dataset();
        let rs = decompose(&ds, &MechanismConfig::default());
        let rd = RegionDistance::build(&ds, &rs);
        // dmax cannot exceed sqrt(diam_km^2 + 12^2 + 10^2).
        let diam_km = ds.pois.bbox().diagonal_m() / 1000.0;
        let bound = combine(diam_km, TIME_CAP_H, 10.0);
        assert!(rd.dmax() <= bound + 1e-9);
        assert!(rd.dmax() > 0.0);
    }
}
