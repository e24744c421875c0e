//! Origin–destination (trip-chain) analytics — the §3 transit-planning
//! application: "if a city council can identify popular trip chains among
//! residents, they can improve the public transport infrastructure that
//! links these popular places".

use std::collections::HashMap;
use trajshare_geo::UniformGrid;
use trajshare_model::{Dataset, Trajectory};

/// Counts of directed cell→cell transitions over a trajectory set.
#[derive(Debug, Clone, Default)]
pub struct OdMatrix {
    counts: HashMap<(u32, u32), usize>,
    total: usize,
}

impl OdMatrix {
    /// Builds the OD matrix at grid granularity `gs`, skipping
    /// within-cell hops.
    pub fn build(dataset: &Dataset, trajectories: &[Trajectory], gs: u32) -> Self {
        let grid = UniformGrid::new(*dataset.pois.bbox(), gs);
        let mut counts = HashMap::new();
        let mut total = 0;
        for t in trajectories {
            for w in t.points().windows(2) {
                let a = grid.cell_of(dataset.pois.get(w[0].poi).location).0;
                let b = grid.cell_of(dataset.pois.get(w[1].poi).location).0;
                if a != b {
                    *counts.entry((a, b)).or_insert(0) += 1;
                    total += 1;
                }
            }
        }
        Self { counts, total }
    }

    /// Number of recorded transitions.
    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Count for one directed pair.
    pub fn get(&self, from: u32, to: u32) -> usize {
        self.counts.get(&(from, to)).copied().unwrap_or(0)
    }

    /// The `k` most frequent chains, ties broken by cell ids for
    /// determinism.
    pub fn top_k(&self, k: usize) -> Vec<((u32, u32), usize)> {
        let mut v: Vec<_> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// L1 distance between the two matrices' transition *distributions*
    /// (total-variation ×2); 0 = identical flow structure.
    pub fn l1_distance(&self, other: &OdMatrix) -> f64 {
        if self.total == 0 || other.total == 0 {
            return 2.0;
        }
        let mut keys: Vec<(u32, u32)> = self.counts.keys().copied().collect();
        keys.extend(other.counts.keys().copied());
        keys.sort_unstable();
        keys.dedup();
        keys.iter()
            .map(|&k| {
                let p = self.counts.get(&k).copied().unwrap_or(0) as f64 / self.total as f64;
                let q = other.counts.get(&k).copied().unwrap_or(0) as f64 / other.total as f64;
                (p - q).abs()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajshare_geo::{DistanceMetric, GeoPoint};
    use trajshare_hierarchy::builders::campus;
    use trajshare_model::{Poi, PoiId, TimeDomain};

    /// POIs at the four corners of a 2×2 grid.
    fn dataset() -> Dataset {
        let h = campus();
        let leaf = h.leaves()[0];
        let origin = GeoPoint::new(40.7, -74.0);
        let pois = vec![
            Poi::new(PoiId(0), "sw", origin, leaf),
            Poi::new(PoiId(1), "se", origin.offset_m(4000.0, 0.0), leaf),
            Poi::new(PoiId(2), "nw", origin.offset_m(0.0, 4000.0), leaf),
            Poi::new(PoiId(3), "ne", origin.offset_m(4000.0, 4000.0), leaf),
        ];
        Dataset::new(
            pois,
            h,
            TimeDomain::new(10),
            None,
            DistanceMetric::Haversine,
        )
    }

    #[test]
    fn counts_directed_transitions() {
        let ds = dataset();
        let ts = vec![
            Trajectory::from_pairs(&[(0, 10), (1, 20)]),
            Trajectory::from_pairs(&[(0, 10), (1, 20), (0, 30)]),
        ];
        let od = OdMatrix::build(&ds, &ts, 2);
        assert_eq!(od.total(), 3);
        // POI 0 in cell 0, POI 1 in cell 1 of the 2×2 grid.
        assert_eq!(od.get(0, 1), 2);
        assert_eq!(od.get(1, 0), 1);
        assert_eq!(od.get(0, 3), 0);
    }

    #[test]
    fn within_cell_hops_ignored() {
        let ds = dataset();
        let ts = vec![Trajectory::from_pairs(&[(0, 10), (0, 20)])];
        let od = OdMatrix::build(&ds, &ts, 2);
        assert_eq!(od.total(), 0);
    }

    #[test]
    fn top_k_ranks_by_count() {
        let ds = dataset();
        let ts = vec![
            Trajectory::from_pairs(&[(0, 10), (1, 20)]),
            Trajectory::from_pairs(&[(0, 11), (1, 21)]),
            Trajectory::from_pairs(&[(2, 10), (3, 20)]),
        ];
        let od = OdMatrix::build(&ds, &ts, 2);
        let top = od.top_k(1);
        assert_eq!(top, vec![((0, 1), 2)]);
    }

    #[test]
    fn overlap_of_identical_matrices_is_one() {
        let ds = dataset();
        let ts = vec![
            Trajectory::from_pairs(&[(0, 10), (1, 20)]),
            Trajectory::from_pairs(&[(2, 10), (3, 20)]),
        ];
        let od = OdMatrix::build(&ds, &ts, 2);
        assert_eq!(od.l1_distance(&od), 0.0);
    }

    #[test]
    fn disjoint_matrices_have_max_l1() {
        let ds = dataset();
        let a = OdMatrix::build(&ds, &[Trajectory::from_pairs(&[(0, 10), (1, 20)])], 2);
        let b = OdMatrix::build(&ds, &[Trajectory::from_pairs(&[(2, 10), (3, 20)])], 2);
        assert_eq!(a.l1_distance(&b), 2.0);
    }

    #[test]
    fn empty_matrix_edge_cases() {
        let ds = dataset();
        let empty = OdMatrix::build(&ds, &[], 2);
        assert_eq!(empty.total(), 0);
        assert!(empty.top_k(3).is_empty());
    }
}
