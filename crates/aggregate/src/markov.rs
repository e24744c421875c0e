//! The population mobility model estimated from aggregated reports.
//!
//! LDPTrace-style decomposition: a start distribution over regions, a
//! first-order Markov transition matrix restricted to the feasible bigram
//! universe `W₂`, an end distribution, and a (public) trajectory-length
//! model. Every frequency is debiased by IBU through the EM channel
//! ([`crate::estimate`]) and made consistent with
//! [`crate::estimate::norm_sub`].

use crate::estimate::{norm_sub, EmChannel, EstimatorBackend, IbuSolver};
use crate::ingest::AggregateCounts;
use crate::linalg::CsrPattern;
use trajshare_core::{RegionGraph, RegionId};

/// How population frequencies are recovered from the EM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrequencyEstimator {
    /// Iterative Bayesian Update (maximum likelihood): non-negative by
    /// construction and dramatically lower variance on flat channels —
    /// the right choice for driving a synthesizer.
    Ibu {
        /// EM iterations. Convergence is slow on flat channels, so this
        /// trades estimate sharpness against model-fit time; what one
        /// iteration *costs* is the backend's business.
        iters: usize,
        /// Which model runs the iterations, both serial: the `Dense`
        /// product channel, or the `W₂`-aware `SparseW2` model
        /// (`O(|W₂|·|R|)` per joint iteration, exact zeros on infeasible
        /// bigrams).
        backend: EstimatorBackend,
    },
}

impl FrequencyEstimator {
    /// The default IBU estimator on an explicit backend.
    pub fn ibu(backend: EstimatorBackend) -> Self {
        FrequencyEstimator::Ibu {
            iters: 600,
            backend,
        }
    }
}

impl Default for FrequencyEstimator {
    fn default() -> Self {
        // Sharp enough to recover cluster-level structure at ε′ ≈ 1 on
        // region universes in the low hundreds; 4·|R|³·iters multiply-adds
        // for the joint estimate (~2 s at |R| = 144 on one Xeon core). The
        // dense backend stays the default so historical results are
        // bit-stable; universes with `|W₂| ≪ |R|²` should flip to
        // `SparseW2`.
        FrequencyEstimator::ibu(EstimatorBackend::Dense)
    }
}

/// Debiased population statistics, ready to drive a synthesizer.
#[derive(Debug, Clone)]
pub struct MobilityModel {
    /// `|R|`.
    pub num_regions: usize,
    /// Start-region distribution (sums to 1 when any data arrived).
    pub start: Vec<f64>,
    /// End-region distribution.
    pub end: Vec<f64>,
    /// Overall region-occupancy distribution.
    pub occupancy: Vec<f64>,
    /// Row-stochastic transition matrix over `W₂`, row-major
    /// `tail * |R| + head`; infeasible bigrams carry exactly zero mass.
    /// A row may be all-zero when its tail has no feasible successor.
    pub transition: Vec<f64>,
    /// Trajectory-length distribution (index = |τ|).
    pub length: Vec<f64>,
    /// Whether the counts were debiased through the EM channel (`false` =
    /// no report carried a positive ε′, so raw frequencies were used —
    /// logged so experiments can tell the difference).
    pub debiased: bool,
}

impl MobilityModel {
    /// Estimates the model with the default estimator
    /// ([`FrequencyEstimator::Ibu`]).
    pub fn estimate(counts: &AggregateCounts, graph: &RegionGraph) -> Self {
        Self::estimate_with(counts, graph, FrequencyEstimator::default())
    }

    /// Estimates the model from counters, debiasing through the unigram EM
    /// channel at the counters' mean ε′ with the chosen estimator.
    pub fn estimate_with(
        counts: &AggregateCounts,
        graph: &RegionGraph,
        estimator: FrequencyEstimator,
    ) -> Self {
        assert_eq!(counts.num_regions, graph.num_regions(), "universe mismatch");
        let n = counts.num_regions;
        let eps = counts.mean_eps_prime();

        let channel = if eps > 0.0 {
            Some(EmChannel::unigram(graph, eps))
        } else {
            None
        };
        let debiased = channel.is_some();
        let FrequencyEstimator::Ibu { iters, backend } = estimator;
        // One solver serves all four estimates, so the kernel scratch is
        // allocated once per fit; the W₂ pattern is exported only when
        // the sparse backend will consume it.
        let mut solver = IbuSolver::new(backend);
        let w2 = (backend == EstimatorBackend::SparseW2).then(|| CsrPattern::from_graph(graph));

        let debias_vec = |solver: &mut IbuSolver, c: &[u64]| -> Vec<f64> {
            let mut est = match &channel {
                Some(ch) => solver.frequencies(ch, c, iters, None),
                None => normalize_counts(c),
            };
            norm_sub(&mut est);
            est
        };

        let start = debias_vec(&mut solver, &counts.starts);
        let end = debias_vec(&mut solver, &counts.ends);
        // Prefer the exact-channel occupancy; bigram-window observations
        // follow a successor-mass-weighted marginal the unigram channel
        // does not model, so they only feed the raw analytics counters.
        let occupancy = if counts.occupancy_exact.iter().any(|&c| c > 0) {
            debias_vec(&mut solver, &counts.occupancy_exact)
        } else {
            debias_vec(&mut solver, &counts.occupancy)
        };

        let mut joint = match &channel {
            Some(ch) => solver.joint(ch, &counts.transitions, iters, None, w2.as_ref()),
            None => normalize_counts(&counts.transitions),
        };
        norm_sub(&mut joint);
        let transition = joint_to_feasible_rows(&joint, graph);

        let total_len: u64 = counts.length_hist.iter().sum();
        let length = if total_len == 0 {
            Vec::new()
        } else {
            counts
                .length_hist
                .iter()
                .map(|&c| c as f64 / total_len as f64)
                .collect()
        };

        MobilityModel {
            num_regions: n,
            start,
            end,
            occupancy,
            transition,
            length,
            debiased,
        }
    }

    /// The transition row for a tail region.
    #[inline]
    pub fn transition_row(&self, tail: RegionId) -> &[f64] {
        let n = self.num_regions;
        &self.transition[tail.index() * n..(tail.index() + 1) * n]
    }
}

pub(crate) fn normalize_counts(c: &[u64]) -> Vec<f64> {
    let total: u64 = c.iter().sum();
    if total == 0 {
        return vec![0.0; c.len()];
    }
    c.iter().map(|&v| v as f64 / total as f64).collect()
}

/// Converts a (debiased, non-negative) joint transition estimate into
/// row-stochastic rows with support exactly on the feasible successor sets.
/// Rows that receive no estimated mass fall back to uniform over their
/// feasible successors, so the synthesizer never dead-ends on an artifact
/// of sampling noise.
pub(crate) fn joint_to_feasible_rows(joint: &[f64], graph: &RegionGraph) -> Vec<f64> {
    let n = graph.num_regions();
    let mut rows = vec![0.0; n * n];
    for tail in 0..n {
        let succ = graph.successors(RegionId(tail as u32));
        if succ.is_empty() {
            continue;
        }
        let mut mass = 0.0;
        for &h in succ {
            let v = joint[tail * n + h as usize].max(0.0);
            rows[tail * n + h as usize] = v;
            mass += v;
        }
        if mass > 0.0 {
            for &h in succ {
                rows[tail * n + h as usize] /= mass;
            }
        } else {
            let u = 1.0 / succ.len() as f64;
            for &h in succ {
                rows[tail * n + h as usize] = u;
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Aggregator;
    use crate::report::Report;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajshare_core::{decompose, MechanismConfig, NGramMechanism, RegionSet};
    use trajshare_geo::{DistanceMetric, GeoPoint};
    use trajshare_hierarchy::builders::campus;
    use trajshare_model::{Dataset, Poi, PoiId, TimeDomain, Trajectory};

    fn world() -> (Dataset, RegionSet, RegionGraph) {
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
        (ds, rs, g)
    }

    #[test]
    fn model_rows_are_stochastic_on_feasible_support() {
        let (ds, rs, g) = world();
        let mech = NGramMechanism::build(&ds, &MechanismConfig::default().with_epsilon(4.0));
        let mut rng = StdRng::seed_from_u64(1);
        let traj = Trajectory::from_pairs(&[(0, 60), (7, 62), (14, 65)]);
        let reports: Vec<Report> = (0..300)
            .map(|_| Report::from_perturbed(&mech.perturb_raw(&traj, &mut rng)))
            .collect();
        let mut agg = Aggregator::new(&rs);
        agg.ingest_batch(&reports);
        let model = MobilityModel::estimate(agg.counts(), &g);

        assert!(model.debiased, "EM channel should invert at ε'>0");
        assert!((model.start.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!((model.occupancy.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        for tail in rs.ids() {
            let row = model.transition_row(tail);
            let mass: f64 = row.iter().sum();
            if !g.successors(tail).is_empty() {
                assert!((mass - 1.0).abs() < 1e-9, "row {tail:?} mass {mass}");
            }
            for (h, &p) in row.iter().enumerate() {
                if p > 0.0 {
                    assert!(
                        g.is_feasible(tail, RegionId(h as u32)),
                        "mass {p} on infeasible bigram {tail:?}->{h}"
                    );
                }
            }
        }
        // Length model: all mass on |τ| = 3.
        assert!((model.length[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_backend_model_is_feasible_and_tracks_dense_marginals() {
        let (ds, rs, g) = world();
        let mut rng = StdRng::seed_from_u64(3);
        let traj = Trajectory::from_pairs(&[(0, 60), (7, 62), (14, 65)]);
        let mech = NGramMechanism::build(&ds, &MechanismConfig::default().with_epsilon(4.0));
        let reports: Vec<Report> = (0..400)
            .map(|_| Report::from_perturbed(&mech.perturb_raw(&traj, &mut rng)))
            .collect();
        let mut agg = Aggregator::new(&rs);
        agg.ingest_batch(&reports);
        let counts = agg.counts();

        let dense = MobilityModel::estimate_with(
            counts,
            &g,
            FrequencyEstimator::Ibu {
                iters: 150,
                backend: EstimatorBackend::Dense,
            },
        );
        let sparse = MobilityModel::estimate_with(
            counts,
            &g,
            FrequencyEstimator::Ibu {
                iters: 150,
                backend: EstimatorBackend::SparseW2,
            },
        );
        assert!(sparse.debiased);
        // Unigram marginals run the one serial loop on both backends:
        // they are bit-identical.
        assert_eq!(sparse.start, dense.start);
        assert_eq!(sparse.end, dense.end);
        assert_eq!(sparse.occupancy, dense.occupancy);
        // The W₂-normalized joint model yields row-stochastic transition
        // rows supported exactly on the feasible successor sets.
        for tail in rs.ids() {
            let row = sparse.transition_row(tail);
            let mass: f64 = row.iter().sum();
            if !g.successors(tail).is_empty() {
                assert!((mass - 1.0).abs() < 1e-9, "row {tail:?} mass {mass}");
            }
            for (h, &p) in row.iter().enumerate() {
                if p > 0.0 {
                    assert!(g.is_feasible(tail, RegionId(h as u32)));
                }
            }
        }
    }

    #[test]
    fn empty_counts_yield_empty_model() {
        let (_, rs, g) = world();
        let agg = Aggregator::new(&rs);
        let model = MobilityModel::estimate(agg.counts(), &g);
        assert!(!model.debiased, "no reports -> no channel");
        assert!(model.start.iter().all(|&p| p == 0.0));
        assert!(model.length.is_empty());
    }
}
