//! The attack harness: drives the adversaries against collector-visible
//! artifacts and scores them against ground truth.
//!
//! Observability contract (the whole point of this tier):
//!
//! * the reconstruction attacker sees the **wire uploads** — each user's
//!   `PerturbedTrajectory.windows`, which the collector receives by
//!   definition — plus public knowledge (the mechanism config and the
//!   region universe derived from it) and, optionally, the **published**
//!   population model as a prior;
//! * the membership attacker sees only [`PublishedStream`]s — it scores
//!   the target's path under the released model and never touches
//!   reports, counters, or any server-internal state;
//! * ground truth (the victims' real trajectories) is used exclusively to
//!   *grade* the attacks.

use crate::mi::{eps_lower_bound, MiEstimate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use trajshare_aggregate::{user_seed, PublishedStream};
use trajshare_core::{NGramMechanism, PathPrior, RegionSet, TrajectoryAdversary};
use trajshare_model::{Dataset, Trajectory, TrajectorySet};

/// Aggregate score of one reconstruction-attack run.
#[derive(Debug, Clone, Copy)]
pub struct ReconSummary {
    /// Trajectories attacked (victims that encode into the universe).
    pub trials: usize,
    /// Fraction of victims whose full region path was recovered exactly.
    pub exact_rate: f64,
    /// Mean per-position haversine distance (meters) between the decoded
    /// and true region centroids.
    pub mean_distance_m: f64,
}

/// Runs the whole-trajectory MAP attack against every victim's wire
/// upload. `published` supplies the released model as a decoding prior
/// (`None` = uninformed attacker); `seed` reproduces the exact uploads
/// the collector would have seen from the simulated clients, via the same
/// per-user derivation as the pipeline.
pub fn reconstruction_attack(
    dataset: &Dataset,
    mech: &NGramMechanism,
    victims: &TrajectorySet,
    published: Option<&PublishedStream>,
    seed: u64,
) -> ReconSummary {
    let graph = mech.graph();
    let prior = published.map(|p| PathPrior {
        start: &p.model.start,
        transition: &p.model.transition,
    });
    // One adversary per trajectory length (ε′ depends on |τ|), built
    // lazily and reused across victims.
    let mut adversaries: HashMap<usize, TrajectoryAdversary<'_>> = HashMap::new();

    let mut trials = 0usize;
    let mut exact = 0usize;
    let mut dist_sum = 0.0f64;
    let mut dist_n = 0usize;
    for (i, traj) in victims.all().iter().enumerate() {
        let Some(truth) = mech.regions().encode(dataset, traj) else {
            continue;
        };
        let len = truth.len();
        let mut rng = StdRng::seed_from_u64(user_seed(seed, i as u64));
        let upload = mech.perturb_raw(traj, &mut rng);
        let adv = adversaries.entry(len).or_insert_with(|| {
            let n_eff = mech.config().n.min(len);
            let lengths: Vec<usize> = (1..=n_eff).collect();
            TrajectoryAdversary::new(graph, upload.eps_prime, &lengths)
        });
        let decoded = adv.map_trajectory(&upload.windows, len, prior);
        trials += 1;
        if decoded == truth {
            exact += 1;
        }
        for (d, t) in decoded.iter().zip(&truth) {
            let dc = mech.regions().get(*d).centroid;
            let tc = mech.regions().get(*t).centroid;
            dist_sum += dc.haversine_m(&tc);
            dist_n += 1;
        }
    }
    ReconSummary {
        trials,
        exact_rate: if trials == 0 {
            0.0
        } else {
            exact as f64 / trials as f64
        },
        mean_distance_m: if dist_n == 0 {
            0.0
        } else {
            dist_sum / dist_n as f64
        },
    }
}

/// Empirical ε of the end-to-end pipeline by membership inference on
/// neighboring streams.
///
/// Per trial the *same* per-trial seed drives two full publication runs
/// on neighboring inputs — `base ∪ {target}` vs `base ∪ {decoy}` — which
/// is a valid coupling: the two worlds differ in exactly one user's data,
/// the ε-LDP unit. The attacker's score is the target path's
/// log-likelihood under each published model
/// ([`PublishedStream::path_log_likelihood`]); the score pairs feed the
/// DKW-corrected estimator (`eps_lower_bound`).
///
/// `publish` abstracts the pipeline so the n-gram system and baselines
/// (LDPTrace) are measured by the *same* attacker: it must map
/// `(input set, seed)` to the released surface and nothing else.
#[allow(clippy::too_many_arguments)]
pub fn membership_eps_lower_bound<F>(
    dataset: &Dataset,
    regions: &RegionSet,
    base: &TrajectorySet,
    target: &Trajectory,
    decoy: &Trajectory,
    trials: usize,
    delta: f64,
    seed: u64,
    publish: F,
) -> MiEstimate
where
    F: Fn(&TrajectorySet, u64) -> PublishedStream,
{
    assert!(trials > 0);
    let target_path = regions
        .encode(dataset, target)
        .expect("target must encode into the region universe");

    let mut world_in: Vec<Trajectory> = base.all().to_vec();
    world_in.push(target.clone());
    let world_in = TrajectorySet::new(world_in);
    let mut world_out: Vec<Trajectory> = base.all().to_vec();
    world_out.push(decoy.clone());
    let world_out = TrajectorySet::new(world_out);

    let mut scores_in = Vec::with_capacity(trials);
    let mut scores_out = Vec::with_capacity(trials);
    for t in 0..trials {
        let trial_seed = user_seed(seed, t as u64);
        let pub_in = publish(&world_in, trial_seed);
        let pub_out = publish(&world_out, trial_seed);
        scores_in.push(pub_in.path_log_likelihood(&target_path));
        scores_out.push(pub_out.path_log_likelihood(&target_path));
    }
    eps_lower_bound(&scores_in, &scores_out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajshare_aggregate::{
        aggregate_and_synthesize_matching_with, collect_reports, EstimatorBackend,
        FrequencyEstimator,
    };
    use trajshare_core::MechanismConfig;
    use trajshare_datagen::{
        generate_taxi_foursquare, CityConfig, SyntheticCity, TaxiFoursquareConfig,
    };
    use trajshare_hierarchy::builders::foursquare;

    fn world() -> (Dataset, TrajectorySet) {
        let mut rng = StdRng::seed_from_u64(1);
        let city = SyntheticCity::generate(
            &CityConfig {
                num_pois: 60,
                speed_kmh: Some(8.0),
                ..Default::default()
            },
            foursquare(),
            &mut rng,
        );
        let set = generate_taxi_foursquare(
            &city.dataset,
            &TaxiFoursquareConfig {
                num_trajectories: 24,
                len_bounds: (3, 3),
                ..Default::default()
            },
            &mut rng,
        );
        (city.dataset, set)
    }

    fn mech(ds: &Dataset, eps: f64) -> NGramMechanism {
        let mut cfg = MechanismConfig::default().with_epsilon(eps);
        cfg.time_interval_min = 240;
        NGramMechanism::build(ds, &cfg)
    }

    #[test]
    fn huge_epsilon_reconstruction_is_near_total() {
        let (ds, set) = world();
        let m = mech(&ds, 400.0);
        let r = reconstruction_attack(&ds, &m, &set, None, 3);
        assert_eq!(r.trials, set.len());
        assert!(r.exact_rate > 0.9, "rate {}", r.exact_rate);
        assert!(r.mean_distance_m < 100.0, "dist {}", r.mean_distance_m);
    }

    #[test]
    fn tiny_epsilon_reconstruction_is_poor() {
        let (ds, set) = world();
        let m = mech(&ds, 0.05);
        let r = reconstruction_attack(&ds, &m, &set, None, 3);
        assert!(r.exact_rate < 0.3, "rate {}", r.exact_rate);
        assert!(r.mean_distance_m > 0.0);
    }

    #[test]
    fn reconstruction_is_deterministic_in_seed() {
        let (ds, set) = world();
        let m = mech(&ds, 2.0);
        let a = reconstruction_attack(&ds, &m, &set, None, 5);
        let b = reconstruction_attack(&ds, &m, &set, None, 5);
        assert_eq!(a.exact_rate, b.exact_rate);
        assert_eq!(a.mean_distance_m, b.mean_distance_m);
    }

    #[test]
    fn membership_bound_is_sound_on_the_real_pipeline() {
        let (ds, set) = world();
        let eps = 2.0;
        let m = mech(&ds, eps);
        let all = set.all();
        let base = TrajectorySet::new(all[..all.len() - 2].to_vec());
        let target = all[all.len() - 2].clone();
        let decoy = all[all.len() - 1].clone();
        let estimator = FrequencyEstimator::Ibu {
            iters: 10,
            backend: EstimatorBackend::SparseW2,
        };
        let est = membership_eps_lower_bound(
            &ds,
            m.regions(),
            &base,
            &target,
            &decoy,
            6,
            0.05,
            9,
            |input, s| {
                let reports = collect_reports(&m, input, s);
                let outcome =
                    aggregate_and_synthesize_matching_with(&ds, &m, &reports, s, estimator);
                PublishedStream::from_outcome(eps, &outcome)
            },
        );
        assert_eq!(est.trials_in, 6);
        assert!(est.eps_lower.is_finite());
        // 6 trials → the DKW band is so wide no leakage can be certified;
        // the sound answer is (well under) the theoretical ε.
        assert!(est.eps_lower <= eps, "empirical {} > ε", est.eps_lower);
    }
}
