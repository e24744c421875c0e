//! Synthetic trajectory generation from the estimated mobility model.
//!
//! A synthetic trajectory is a Markov walk over the feasible bigram
//! universe: start region from the estimated start distribution, successors
//! from the estimated transition rows, length from the (public) length
//! model — then concretized into (POI, timestep) pairs by the *same*
//! POI-level machinery the mechanism itself uses
//! ([`trajshare_core::poi_level`]), so outputs respect opening hours,
//! monotone time, and reachability exactly like mechanism outputs do.
//! Region→POI draws are weighted by (public) POI popularity, matching how
//! population mass actually distributes inside a region.

use crate::markov::MobilityModel;
use rand::Rng;
use trajshare_core::poi_level::reconstruct_poi_level_weighted;
use trajshare_core::{RegionGraph, RegionId, RegionSet};
use trajshare_mech::sample_from_weights;
use trajshare_model::{Dataset, Trajectory, TrajectorySet};

/// Attempts at drawing a region path before giving up on a length.
const PATH_RETRIES: usize = 16;

/// Rejection-sampling cap for POI-level concretization (the paper's γ;
/// synthesis tolerates a much smaller cap than the mechanism because a
/// failed draw falls back to time smoothing, not to an error).
const GAMMA: usize = 200;

/// Generates synthetic trajectories from a [`MobilityModel`].
#[derive(Debug, Clone)]
pub struct Synthesizer<'a> {
    dataset: &'a Dataset,
    regions: &'a RegionSet,
    model: &'a MobilityModel,
}

impl<'a> Synthesizer<'a> {
    /// Builds a synthesizer over the mechanism's region universe.
    pub fn new(
        dataset: &'a Dataset,
        regions: &'a RegionSet,
        graph: &'a RegionGraph,
        model: &'a MobilityModel,
    ) -> Self {
        assert_eq!(regions.len(), model.num_regions, "universe mismatch");
        assert_eq!(
            graph.num_regions(),
            model.num_regions,
            "graph/model mismatch"
        );
        Synthesizer {
            dataset,
            regions,
            model,
        }
    }

    /// Draws one synthetic trajectory of exactly `len` points, or `None`
    /// when the model has no start mass / the walk keeps dead-ending.
    pub fn synthesize_one<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Option<Trajectory> {
        assert!(len >= 1);
        let path = self.sample_region_path(len, rng)?;
        let rec = reconstruct_poi_level_weighted(
            self.dataset,
            self.regions,
            &path,
            GAMMA,
            rng,
            |ds, p| ds.pois.get(p).popularity,
        );
        Some(rec.trajectory)
    }

    /// Draws one synthetic trajectory per requested length, index-paired
    /// with `lens` — the shape needed for paired utility measures (PRQ)
    /// against a real set. Lengths whose Markov walk fails after retries
    /// fall back to independent occupancy draws so the output stays
    /// index-aligned. A model with *no* mass at all (e.g. every report was
    /// rejected) yields an empty set rather than a fabricated one.
    pub fn synthesize_matching<R: Rng + ?Sized>(
        &self,
        lens: &[usize],
        rng: &mut R,
    ) -> TrajectorySet {
        if self.model.start.iter().all(|&p| p <= 0.0)
            && self.model.occupancy.iter().all(|&p| p <= 0.0)
        {
            return TrajectorySet::default();
        }
        lens.iter()
            .filter_map(|&len| {
                let len = len.max(1);
                self.synthesize_one(len, rng).or_else(|| {
                    // Occupancy fallback: independent draws, still from the
                    // debiased population model.
                    let path: Vec<RegionId> = (0..len)
                        .map(|_| {
                            sample_from_weights(&self.model.occupancy, rng)
                                .map(|i| RegionId(i as u32))
                        })
                        .collect::<Option<Vec<_>>>()?;
                    Some(
                        reconstruct_poi_level_weighted(
                            self.dataset,
                            self.regions,
                            &path,
                            GAMMA,
                            rng,
                            |ds, p| ds.pois.get(p).popularity,
                        )
                        .trajectory,
                    )
                })
            })
            .collect()
    }

    /// Markov walk over `W₂`: start ∝ start distribution, step ∝ the
    /// estimated transition row of the current region.
    fn sample_region_path<R: Rng + ?Sized>(
        &self,
        len: usize,
        rng: &mut R,
    ) -> Option<Vec<RegionId>> {
        'retry: for _ in 0..PATH_RETRIES {
            let start = sample_from_weights(&self.model.start, rng)
                .or_else(|| sample_from_weights(&self.model.occupancy, rng))?;
            let mut path = Vec::with_capacity(len);
            path.push(RegionId(start as u32));
            while path.len() < len {
                let tail = *path.last().expect("non-empty path");
                let row = self.model.transition_row(tail);
                match sample_from_weights(row, rng) {
                    Some(head) => path.push(RegionId(head as u32)),
                    // Dead end (no feasible successor): try a fresh walk.
                    None => continue 'retry,
                }
            }
            return Some(path);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Aggregator;
    use crate::report::Report;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajshare_core::{decompose, MechanismConfig, NGramMechanism};
    use trajshare_geo::{DistanceMetric, GeoPoint};
    use trajshare_hierarchy::builders::campus;
    use trajshare_model::{Poi, PoiId, TimeDomain};

    fn world() -> (Dataset, RegionSet, RegionGraph, MobilityModel) {
        let h = campus();
        let leaves = h.leaves();
        let origin = GeoPoint::new(40.7, -74.0);
        let pois: Vec<Poi> = (0..60)
            .map(|i| {
                let loc = origin.offset_m((i % 6) as f64 * 400.0, (i / 6) as f64 * 400.0);
                Poi::new(
                    PoiId(i as u32),
                    format!("p{i}"),
                    loc,
                    leaves[i as usize % leaves.len()],
                )
            })
            .collect();
        let ds = Dataset::new(
            pois,
            h,
            TimeDomain::new(10),
            Some(8.0),
            DistanceMetric::Haversine,
        );
        let rs = decompose(&ds, &MechanismConfig::default());
        let g = RegionGraph::build(&ds, &rs);

        let mech = NGramMechanism::build(&ds, &MechanismConfig::default().with_epsilon(4.0));
        let mut rng = StdRng::seed_from_u64(5);
        let trajs = [
            Trajectory::from_pairs(&[(0, 60), (7, 62), (14, 65)]),
            Trajectory::from_pairs(&[(20, 70), (27, 73), (34, 76)]),
        ];
        let reports: Vec<Report> = (0..200)
            .map(|i| Report::from_perturbed(&mech.perturb_raw(&trajs[i % 2], &mut rng)))
            .collect();
        let mut agg = Aggregator::new(&rs);
        agg.ingest_batch(&reports);
        let model = MobilityModel::estimate(agg.counts(), &g);
        (ds, rs, g, model)
    }

    #[test]
    fn synthetic_trajectories_have_requested_lengths_and_monotone_time() {
        let (ds, rs, g, model) = world();
        let synth = Synthesizer::new(&ds, &rs, &g, &model);
        let mut rng = StdRng::seed_from_u64(11);
        for len in [1usize, 2, 3, 5] {
            for _ in 0..10 {
                let t = synth
                    .synthesize_one(len, &mut rng)
                    .expect("model has start mass");
                assert_eq!(t.len(), len);
                for w in t.points().windows(2) {
                    assert!(w[1].t > w[0].t, "{t:?}");
                }
                for pt in t.points() {
                    assert!(pt.poi.index() < ds.pois.len());
                }
            }
        }
    }

    #[test]
    fn walks_stay_on_feasible_bigrams() {
        let (ds, rs, g, model) = world();
        let synth = Synthesizer::new(&ds, &rs, &g, &model);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..50 {
            let path = synth
                .sample_region_path(4, &mut rng)
                .expect("walk succeeds");
            for w in path.windows(2) {
                assert!(g.is_feasible(w[0], w[1]), "infeasible step {w:?}");
            }
        }
    }

    #[test]
    fn matching_synthesis_pairs_lengths() {
        let (ds, rs, g, model) = world();
        let synth = Synthesizer::new(&ds, &rs, &g, &model);
        let lens = [3usize, 2, 4, 1, 3];
        let set = synth.synthesize_matching(&lens, &mut StdRng::seed_from_u64(14));
        assert_eq!(set.len(), lens.len());
        for (t, &l) in set.all().iter().zip(&lens) {
            assert_eq!(t.len(), l);
        }
    }
}
