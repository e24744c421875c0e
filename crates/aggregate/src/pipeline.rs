//! The end-to-end population pipeline: simulate clients → collect reports
//! → aggregate → estimate → synthesize.
//!
//! Client simulation fans out across rayon workers with per-user seeds
//! derived as `seed ⊕ mix(i)` (the same scheme as the bench runner), so the
//! report set is independent of worker count and scheduling.

use crate::ingest::{AggregateCounts, Aggregator};
use crate::markov::{FrequencyEstimator, MobilityModel};
use crate::report::Report;
use crate::synthesize::Synthesizer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use trajshare_core::NGramMechanism;
use trajshare_model::{Dataset, TrajectorySet};

/// Per-user deterministic seed derivation (golden-ratio mix, as in the
/// bench runner).
#[inline]
pub fn user_seed(seed: u64, user: u64) -> u64 {
    seed ^ user.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Perturbs every trajectory with `mech` (stage 1 only) and extracts its
/// report — one simulated client per trajectory, rayon-parallel,
/// deterministic in `seed`.
pub fn collect_reports(mech: &NGramMechanism, set: &TrajectorySet, seed: u64) -> Vec<Report> {
    let indices: Vec<usize> = (0..set.len()).collect();
    indices
        .par_iter()
        .map(|&i| {
            let mut rng = StdRng::seed_from_u64(user_seed(seed, i as u64));
            Report::from_perturbed(&mech.perturb_raw(&set.all()[i], &mut rng))
        })
        .collect()
}

/// Everything the server side produces for one publication round.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// The published synthetic trajectory set.
    pub synthetic: TrajectorySet,
    /// The estimated mobility model behind it.
    pub model: MobilityModel,
    /// The raw aggregation counters (for monitoring / further queries).
    pub counts: AggregateCounts,
}

/// Server-side half of the pipeline: aggregate `reports`, estimate the
/// mobility model, and synthesize one trajectory per report, index-paired
/// by length — the shape paired utility measures need. `mech` supplies
/// the public region universe — the server builds it from public
/// knowledge exactly as clients do.
pub fn aggregate_and_synthesize_matching(
    dataset: &Dataset,
    mech: &NGramMechanism,
    reports: &[Report],
    seed: u64,
) -> SynthesisOutcome {
    aggregate_and_synthesize_matching_with(
        dataset,
        mech,
        reports,
        seed,
        FrequencyEstimator::default(),
    )
}

/// [`aggregate_and_synthesize_matching`] with an explicit estimator.
pub fn aggregate_and_synthesize_matching_with(
    dataset: &Dataset,
    mech: &NGramMechanism,
    reports: &[Report],
    seed: u64,
    estimator: FrequencyEstimator,
) -> SynthesisOutcome {
    let mut aggregator = Aggregator::new(mech.regions());
    aggregator.ingest_batch(reports);
    let counts = aggregator.into_counts();
    let model = MobilityModel::estimate_with(&counts, mech.graph(), estimator);
    let synthesizer = Synthesizer::new(dataset, mech.regions(), mech.graph(), &model);
    let lens: Vec<usize> = reports.iter().map(|r| r.len as usize).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let synthetic = synthesizer.synthesize_matching(&lens, &mut rng);
    SynthesisOutcome {
        synthetic,
        model,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajshare_core::MechanismConfig;
    use trajshare_datagen::{
        generate_taxi_foursquare, CityConfig, SyntheticCity, TaxiFoursquareConfig,
    };
    use trajshare_hierarchy::builders::foursquare;

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

    #[test]
    fn report_collection_is_deterministic_and_parallel_order_free() {
        let (ds, set) = world();
        let mech = NGramMechanism::build(&ds, &MechanismConfig::default());
        let a = collect_reports(&mech, &set, 7);
        let b = collect_reports(&mech, &set, 7);
        assert_eq!(a.len(), set.len());
        assert_eq!(a, b);
        let c = collect_reports(&mech, &set, 8);
        assert_ne!(a, c, "different seed must change reports");
    }

    #[test]
    fn end_to_end_outcome_is_consistent() {
        let (ds, set) = world();
        let mech = NGramMechanism::build(&ds, &MechanismConfig::default().with_epsilon(3.0));
        let reports = collect_reports(&mech, &set, 3);
        let outcome = aggregate_and_synthesize_matching(&ds, &mech, &reports, 9);
        assert_eq!(outcome.counts.num_reports as usize, set.len());
        assert_eq!(outcome.synthetic.len(), set.len());
        for (synth, real) in outcome.synthetic.all().iter().zip(set.all()) {
            assert_eq!(synth.len(), real.len(), "matching synthesis pairs lengths");
            for w in synth.points().windows(2) {
                assert!(w[1].t > w[0].t);
            }
        }
        // Same seeds, same outcome.
        let again = aggregate_and_synthesize_matching(&ds, &mech, &reports, 9);
        for (x, y) in outcome.synthetic.all().iter().zip(again.synthetic.all()) {
            assert_eq!(x, y);
        }
    }
}
