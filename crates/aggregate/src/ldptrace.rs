//! LDPTrace-style server: debias k-RR summary reports, fit a
//! [`MobilityModel`], publish a synthetic stream.
//!
//! The comparison baseline for the red-team tier (arXiv 2302.06180,
//! adapted to the STC region universe — see
//! `trajshare_core::baselines::LdpTraceClient` for the client half and the
//! adaptation notes). k-RR frequencies admit a closed-form unbiased
//! estimator, `f̂ᵢ = (cᵢ/N − q) / (p − q)` with `p = e^ε/(e^ε+k−1)` and
//! `q = (1−p)/(k−1)`, followed by [`norm_sub`] to restore simplex
//! consistency — no iterative estimation needed, which is exactly the
//! trade LDPTrace makes: a coarser model for a much cheaper channel.
//!
//! Caveats, surfaced again in the bench docs: the transition report is a
//! *single* hop per user, so the fitted transition matrix mixes hops from
//! all path positions; and the paired-utility row synthesizes with the
//! true per-user lengths (as the n-gram pipeline does — its `Report.len`
//! is also carried in the clear) while the privatized length model is
//! published for analytics.

use crate::estimate::norm_sub;
use crate::markov::{joint_to_feasible_rows, MobilityModel};
use crate::pipeline::user_seed;
use crate::publish::PublishedStream;
use crate::synthesize::Synthesizer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use trajshare_core::baselines::{LdpTraceClient, LdpTraceObservation};
use trajshare_core::{RegionGraph, RegionSet};
use trajshare_model::{Dataset, TrajectorySet};

/// Simulates one LDPTrace client per trajectory (rayon-parallel,
/// deterministic in `seed`, the same per-user derivation as
/// [`crate::pipeline::collect_reports`]). Trajectories that do not encode
/// into the region universe are skipped, like the n-gram pipeline skips
/// nothing only because encoding is total for valid data.
pub(crate) fn ldptrace_collect(
    dataset: &Dataset,
    regions: &RegionSet,
    graph: &RegionGraph,
    set: &TrajectorySet,
    epsilon: f64,
    max_len: usize,
    seed: u64,
) -> Vec<LdpTraceObservation> {
    let client = LdpTraceClient::new(graph, epsilon, max_len);
    let indices: Vec<usize> = (0..set.len()).collect();
    let per_user: Vec<Option<LdpTraceObservation>> = indices
        .par_iter()
        .map(|&i| {
            let path = regions.encode(dataset, &set.all()[i])?;
            let mut rng = StdRng::seed_from_u64(user_seed(seed, i as u64));
            Some(client.observe(&path, &mut rng))
        })
        .collect();
    per_user.into_iter().flatten().collect()
}

/// Closed-form unbiased k-RR frequency estimate from raw report counts,
/// made consistent with [`norm_sub`]. `eps_report` is the budget of the
/// *individual* randomized-response draw (ε/4 for LDPTrace clients).
pub(crate) fn debias_krr_counts(counts: &[u64], eps_report: f64) -> Vec<f64> {
    let k = counts.len();
    let n: u64 = counts.iter().sum();
    if k == 0 {
        return Vec::new();
    }
    if k == 1 {
        return vec![1.0];
    }
    if n == 0 {
        return vec![0.0; k];
    }
    let e = eps_report.exp();
    let p = e / (e + k as f64 - 1.0);
    let q = (1.0 - p) / (k as f64 - 1.0);
    let mut est: Vec<f64> = if (p - q).abs() > 1e-12 && p.is_finite() {
        counts
            .iter()
            .map(|&c| (c as f64 / n as f64 - q) / (p - q))
            .collect()
    } else {
        // Degenerate channel (ε ≈ 0 or overflow): raw frequencies.
        counts.iter().map(|&c| c as f64 / n as f64).collect()
    };
    norm_sub(&mut est);
    est
}

/// Fits a [`MobilityModel`] from LDPTrace observations: start/end over
/// `|R|`, the single-hop transition counts scattered over `W₂` and
/// row-normalized onto feasible successors, occupancy as the renormalized
/// start/end average (LDPTrace reports no interior points), and the
/// privatized length model.
pub(crate) fn ldptrace_model(
    graph: &RegionGraph,
    observations: &[LdpTraceObservation],
    epsilon: f64,
    max_len: usize,
) -> MobilityModel {
    let nr = graph.num_regions();
    let nw = graph.num_bigrams();
    let eps_report = epsilon / 4.0;

    let mut start_c = vec![0u64; nr];
    let mut end_c = vec![0u64; nr];
    let mut hop_c = vec![0u64; nw];
    let mut len_c = vec![0u64; max_len];
    for o in observations {
        start_c[o.start] += 1;
        end_c[o.end] += 1;
        if o.transition < nw {
            hop_c[o.transition] += 1;
        }
        len_c[o.len_bucket.min(max_len - 1)] += 1;
    }

    let start = debias_krr_counts(&start_c, eps_report);
    let end = debias_krr_counts(&end_c, eps_report);
    let hops = debias_krr_counts(&hop_c, eps_report);

    // Scatter the W₂ frequencies into the dense joint, then reuse the
    // n-gram pipeline's row conversion so infeasible bigrams stay exact
    // zeros and empty rows fall back to uniform-over-successors.
    let mut joint = vec![0.0; nr * nr];
    for (i, &(a, b)) in graph.bigrams.iter().enumerate() {
        joint[a as usize * nr + b as usize] = hops[i];
    }
    let transition = joint_to_feasible_rows(&joint, graph);

    let mut occupancy: Vec<f64> = start.iter().zip(&end).map(|(s, e)| s + e).collect();
    norm_sub(&mut occupancy);

    // MobilityModel indexes `length` by |τ|; bucket b ⇔ length b+1.
    let lens = debias_krr_counts(&len_c, eps_report);
    let mut length = vec![0.0; max_len + 1];
    length[1..].copy_from_slice(&lens);

    MobilityModel {
        num_regions: nr,
        start,
        end,
        occupancy,
        transition,
        length,
        debiased: true,
    }
}

/// The full LDPTrace baseline round: collect ε-LDP summary reports, fit
/// the model, synthesize index-paired with the real lengths, and return
/// the released surface as a [`PublishedStream`].
#[allow(clippy::too_many_arguments)]
pub fn ldptrace_publish_matching(
    dataset: &Dataset,
    regions: &RegionSet,
    graph: &RegionGraph,
    set: &TrajectorySet,
    epsilon: f64,
    max_len: usize,
    seed: u64,
) -> PublishedStream {
    let observations = ldptrace_collect(dataset, regions, graph, set, epsilon, max_len, seed);
    let model = ldptrace_model(graph, &observations, epsilon, max_len);
    let synthesizer = Synthesizer::new(dataset, regions, graph, &model);
    let lens: Vec<usize> = set.all().iter().map(|t| t.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let synthetic = synthesizer.synthesize_matching(&lens, &mut rng);
    PublishedStream {
        eps: epsilon,
        num_reports: observations.len(),
        model,
        synthetic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use trajshare_datagen::{
        generate_taxi_foursquare, CityConfig, SyntheticCity, TaxiFoursquareConfig,
    };
    use trajshare_hierarchy::builders::foursquare;
    use trajshare_mech::k_randomized_response;

    fn world() -> (Dataset, TrajectorySet) {
        let mut rng = StdRng::seed_from_u64(1);
        let city = SyntheticCity::generate(
            &CityConfig {
                num_pois: 120,
                speed_kmh: Some(8.0),
                ..Default::default()
            },
            foursquare(),
            &mut rng,
        );
        let set = generate_taxi_foursquare(
            &city.dataset,
            &TaxiFoursquareConfig {
                num_trajectories: 60,
                len_bounds: (3, 3),
                ..Default::default()
            },
            &mut rng,
        );
        (city.dataset, set)
    }

    fn universe(ds: &Dataset) -> (RegionSet, RegionGraph) {
        let cfg = trajshare_core::MechanismConfig::default();
        let rs = trajshare_core::decompose(ds, &cfg);
        let g = RegionGraph::build(ds, &rs);
        (rs, g)
    }

    #[test]
    fn debias_recovers_frequencies_at_large_samples() {
        let (k, eps) = (5usize, 1.0);
        let truth = [0.5, 0.3, 0.1, 0.1, 0.0];
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0u64; k];
        for _ in 0..60_000 {
            let x = {
                let r: f64 = rng.random();
                let mut acc = 0.0;
                let mut v = k - 1;
                for (i, &t) in truth.iter().enumerate() {
                    acc += t;
                    if r < acc {
                        v = i;
                        break;
                    }
                }
                v
            };
            counts[k_randomized_response(x, k, eps, &mut rng)] += 1;
        }
        let est = debias_krr_counts(&counts, eps);
        for (e, t) in est.iter().zip(&truth) {
            assert!((e - t).abs() < 0.02, "est {est:?} vs truth {truth:?}");
        }
        assert!((est.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn model_is_consistent_and_feasible() {
        let (ds, set) = world();
        let (rs, g) = universe(&ds);
        let obs = ldptrace_collect(&ds, &rs, &g, &set, 4.0, 8, 7);
        assert_eq!(obs.len(), set.len());
        let model = ldptrace_model(&g, &obs, 4.0, 8);
        assert_eq!(model.num_regions, g.num_regions());
        assert!((model.start.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        let n = model.num_regions;
        for tail in 0..n {
            for head in 0..n {
                let v = model.transition[tail * n + head];
                assert!(v >= 0.0);
                if v > 0.0 {
                    assert!(g.is_feasible(
                        trajshare_core::RegionId(tail as u32),
                        trajshare_core::RegionId(head as u32)
                    ));
                }
            }
        }
        assert_eq!(model.length.len(), 9);
        assert_eq!(model.length[0], 0.0);
    }

    #[test]
    fn publish_matching_pairs_lengths_and_is_deterministic() {
        let (ds, set) = world();
        let (rs, g) = universe(&ds);
        let a = ldptrace_publish_matching(&ds, &rs, &g, &set, 3.0, 8, 11);
        let b = ldptrace_publish_matching(&ds, &rs, &g, &set, 3.0, 8, 11);
        assert_eq!(a.num_reports, set.len());
        assert_eq!(a.synthetic.len(), set.len());
        for (s, r) in a.synthetic.all().iter().zip(set.all()) {
            assert_eq!(s.len(), r.len());
        }
        for (x, y) in a.synthetic.all().iter().zip(b.synthetic.all()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn collection_is_deterministic_in_seed() {
        let (ds, set) = world();
        let (rs, g) = universe(&ds);
        let a = ldptrace_collect(&ds, &rs, &g, &set, 2.0, 8, 5);
        let b = ldptrace_collect(&ds, &rs, &g, &set, 2.0, 8, 5);
        let c = ldptrace_collect(&ds, &rs, &g, &set, 2.0, 8, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
