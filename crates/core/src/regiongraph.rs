//! Feasible n-gram sets over STC regions (§5.3, "n-gram Set Formation").
//!
//! A region bigram `(r_a, r_b)` belongs to `W₂` when it is *temporally
//! ordered* (some timestep in `r_b`'s interval strictly follows some
//! timestep in `r_a`'s) and *reachable*: at least one POI pair
//! `(p ∈ r_a, q ∈ r_b)` satisfies Definition 4.1 for the largest gap the two
//! intervals allow. Exact min-pair distances are used for small regions; a
//! centroid−radii lower bound (never under-approximating feasibility) is
//! used for large ones so that `W₂` construction stays `O(|R|²)`.
//!
//! Larger n-grams are represented implicitly through the bigram adjacency
//! (a trigram is feasible iff both of its bigrams are), which is what the
//! perturbation sampler exploits.

use crate::distances::RegionDistance;
use crate::region::{RegionId, RegionSet};
use trajshare_model::{Dataset, ReachabilityOracle};

/// Above this member-count product, min-pair distances fall back to the
/// centroid−radii bound.
const EXACT_PAIR_LIMIT: usize = 4096;

/// The region-level n-gram universe: distances, bigram list, adjacency.
#[derive(Debug, Clone)]
pub struct RegionGraph {
    /// Combined distance matrix and sensitivity source.
    pub distance: RegionDistance,
    /// All feasible bigrams `W₂` as `(tail, head)` region indices.
    pub bigrams: Vec<(u32, u32)>,
    /// CSR-style successor lists: `successors(r)` = feasible heads.
    succ: Vec<Vec<u32>>,
    /// CSR-style predecessor lists.
    pred: Vec<Vec<u32>>,
}

impl RegionGraph {
    /// Builds `W₂` for the region set.
    pub fn build(dataset: &Dataset, regions: &RegionSet) -> Self {
        let distance = RegionDistance::build(dataset, regions);
        let n = regions.len();
        let oracle = ReachabilityOracle::new(dataset);
        let gt = dataset.time.gt_minutes();

        let mut bigrams = Vec::new();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for a in 0..n {
            let ra = regions.get(RegionId(a as u32));
            for b in 0..n {
                let rb = regions.get(RegionId(b as u32));
                // Temporal order: need t_b >= t_a + g_t with t_a in
                // [start_a, end_a - g_t], t_b in [start_b, end_b - g_t].
                let latest_b = rb.time.end_min as i64 - gt as i64;
                let earliest_a = ra.time.start_min as i64;
                let max_gap_min = latest_b - earliest_a;
                if max_gap_min < gt as i64 {
                    continue;
                }
                // Reachability for the most permissive gap.
                let theta = oracle.threshold_m(max_gap_min as f64);
                if !regions_reachable(dataset, ra, rb, theta) {
                    continue;
                }
                bigrams.push((a as u32, b as u32));
                succ[a].push(b as u32);
                pred[b].push(a as u32);
            }
        }
        Self {
            distance,
            bigrams,
            succ,
            pred,
        }
    }

    /// Rebuilds a graph from its serialized parts (the region-graph
    /// codec, [`crate::graphcodec`]): a distance matrix plus the `W₂`
    /// bigram list, from which the adjacency lists are re-derived. Every
    /// bigram index must be within the distance matrix's universe.
    pub fn from_parts(distance: RegionDistance, bigrams: Vec<(u32, u32)>) -> Self {
        let n = distance.len();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for &(a, b) in &bigrams {
            assert!((a as usize) < n && (b as usize) < n, "bigram out of range");
            succ[a as usize].push(b);
            pred[b as usize].push(a);
        }
        Self {
            distance,
            bigrams,
            succ,
            pred,
        }
    }

    /// Number of regions.
    #[inline]
    pub fn num_regions(&self) -> usize {
        self.distance.len()
    }

    /// `|W₂|`.
    #[inline]
    pub fn num_bigrams(&self) -> usize {
        self.bigrams.len()
    }

    /// Feasible successor regions of `r`.
    #[inline]
    pub fn successors(&self, r: RegionId) -> &[u32] {
        &self.succ[r.index()]
    }

    /// Feasible predecessor regions of `r`.
    #[inline]
    pub fn predecessors(&self, r: RegionId) -> &[u32] {
        &self.pred[r.index()]
    }

    /// Whether `(a, b)` is a feasible bigram.
    pub fn is_feasible(&self, a: RegionId, b: RegionId) -> bool {
        self.succ[a.index()].contains(&(b.0))
    }

    /// Exports the successor adjacency (`W₂` rows = tails) in CSR form:
    /// `(row_ptr, cols)` with `cols[row_ptr[r]..row_ptr[r + 1]]` the
    /// feasible heads of region `r`. This is the zero-copy-friendly shape
    /// sparse estimation kernels consume
    /// (`trajshare_aggregate::linalg::CsrPattern`).
    pub fn successor_csr(&self) -> (Vec<usize>, Vec<u32>) {
        Self::adjacency_csr(&self.succ)
    }

    fn adjacency_csr(rows: &[Vec<u32>]) -> (Vec<usize>, Vec<u32>) {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut cols = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        row_ptr.push(0);
        for r in rows {
            cols.extend_from_slice(r);
            row_ptr.push(cols.len());
        }
        (row_ptr, cols)
    }
}

/// Whether any POI pair across the two regions is within `theta` meters.
///
/// Fast path: the centroid−radii lower bound
/// `min_pair ≥ d(c_a, c_b) − rad_a − rad_b`; when that bound already
/// certifies feasibility (or the exact scan is affordable) we answer
/// exactly, otherwise we accept — a permissive approximation that can only
/// *add* n-grams (never removes a genuinely feasible one), preserving the
/// mechanism's correctness.
fn regions_reachable(
    dataset: &Dataset,
    ra: &crate::region::StcRegion,
    rb: &crate::region::StcRegion,
    theta: f64,
) -> bool {
    if theta.is_infinite() {
        return true;
    }
    let centroid_d = ra.centroid.distance_m(&rb.centroid, dataset.metric);
    // Lower bound on the min pair distance.
    let lower = (centroid_d - ra.radius_m - rb.radius_m).max(0.0);
    if lower > theta {
        return false;
    }
    // Upper bound: if even the centroids are within theta the regions
    // certainly contain a pair within theta of each other only when radii
    // are zero; to be exact, scan when affordable.
    if ra.len() * rb.len() <= EXACT_PAIR_LIMIT {
        for &p in &ra.members {
            let lp = dataset.pois.get(p).location;
            for &q in &rb.members {
                if lp.distance_m(&dataset.pois.get(q).location, dataset.metric) <= theta {
                    return true;
                }
            }
        }
        false
    } else {
        // Large regions: accept on the (satisfied) lower bound.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MechanismConfig;
    use crate::decomposition::decompose;
    use trajshare_geo::{DistanceMetric, GeoPoint};
    use trajshare_hierarchy::builders::campus;
    use trajshare_model::{Poi, PoiId, TimeDomain};

    fn dataset(speed: Option<f64>) -> Dataset {
        let h = campus();
        let leaves = h.leaves();
        let origin = GeoPoint::new(40.7, -74.0);
        let pois: Vec<Poi> = (0..80)
            .map(|i| {
                let loc = origin.offset_m((i % 8) as f64 * 500.0, (i / 8) as f64 * 500.0);
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
            speed,
            DistanceMetric::Haversine,
        )
    }

    #[test]
    fn unlimited_speed_gives_all_time_ordered_pairs() {
        let ds = dataset(None);
        let rs = decompose(&ds, &MechanismConfig::default());
        let g = RegionGraph::build(&ds, &rs);
        // Every pair that is temporally orderable must be present.
        let gt = ds.time.gt_minutes() as i64;
        let mut expected = 0usize;
        for a in rs.ids() {
            for b in rs.ids() {
                let (ta, tb) = (rs.get(a).time, rs.get(b).time);
                if tb.end_min as i64 - gt - ta.start_min as i64 >= gt {
                    expected += 1;
                }
            }
        }
        assert_eq!(g.num_bigrams(), expected);
    }

    #[test]
    fn slow_speed_prunes_bigrams() {
        let ds_fast = dataset(Some(100.0));
        let ds_slow = dataset(Some(0.5));
        // Skip merging so regions stay spatially localized — merged 1×1
        // regions span the whole campus and are trivially inter-reachable.
        let mut cfg = MechanismConfig::default();
        cfg.merge_order.clear();
        cfg.kappa = 1;
        let rs_fast = decompose(&ds_fast, &cfg);
        let rs_slow = decompose(&ds_slow, &cfg);
        let g_fast = RegionGraph::build(&ds_fast, &rs_fast);
        let g_slow = RegionGraph::build(&ds_slow, &rs_slow);
        assert!(
            g_slow.num_bigrams() < g_fast.num_bigrams(),
            "slow {} vs fast {}",
            g_slow.num_bigrams(),
            g_fast.num_bigrams()
        );
    }

    #[test]
    fn adjacency_matches_bigram_list() {
        let ds = dataset(Some(8.0));
        let rs = decompose(&ds, &MechanismConfig::default());
        let g = RegionGraph::build(&ds, &rs);
        let total: usize = rs.ids().map(|r| g.successors(r).len()).sum();
        assert_eq!(total, g.num_bigrams());
        let total_pred: usize = rs.ids().map(|r| g.predecessors(r).len()).sum();
        assert_eq!(total_pred, g.num_bigrams());
        for &(a, b) in &g.bigrams {
            assert!(g.is_feasible(RegionId(a), RegionId(b)));
            assert!(g.successors(RegionId(a)).contains(&b));
            assert!(g.predecessors(RegionId(b)).contains(&a));
        }
    }

    #[test]
    fn csr_exports_match_adjacency_lists() {
        let ds = dataset(Some(8.0));
        let rs = decompose(&ds, &MechanismConfig::default());
        let g = RegionGraph::build(&ds, &rs);
        let n = g.num_regions();
        let (srow, scols) = g.successor_csr();
        assert_eq!(srow.len(), n + 1);
        assert_eq!(srow[0], 0);
        assert_eq!(*srow.last().unwrap(), g.num_bigrams());
        assert_eq!(scols.len(), g.num_bigrams());
        for r in rs.ids() {
            assert_eq!(
                &scols[srow[r.index()]..srow[r.index() + 1]],
                g.successors(r)
            );
        }
    }

    #[test]
    fn no_backwards_time_bigrams() {
        let ds = dataset(Some(8.0));
        let rs = decompose(&ds, &MechanismConfig::default());
        let g = RegionGraph::build(&ds, &rs);
        let gt = ds.time.gt_minutes();
        for &(a, b) in &g.bigrams {
            let ta = rs.get(RegionId(a)).time;
            let tb = rs.get(RegionId(b)).time;
            assert!(
                tb.end_min >= ta.start_min + 2 * gt,
                "bigram {a}->{b} cannot be traversed forward in time"
            );
        }
    }

    #[test]
    fn same_region_self_loop_exists_for_wide_intervals() {
        let ds = dataset(Some(8.0));
        let rs = decompose(&ds, &MechanismConfig::default());
        let g = RegionGraph::build(&ds, &rs);
        // Hourly (or wider) intervals with g_t = 10 min allow staying in the
        // same region across consecutive timesteps.
        let any_self_loop = rs.ids().any(|r| g.is_feasible(r, r));
        assert!(any_self_loop);
    }
}
