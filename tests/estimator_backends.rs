//! Cross-layer backend equivalence on a *real* region universe: the same
//! reports estimated through every `EstimatorBackend` must agree where
//! the models coincide, and the `SparseW2` joint must carry exactly zero
//! infeasible mass *before* any row normalization — the regression the
//! W₂-aware refactor exists for.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajshare_aggregate::{
    aggregate_and_synthesize_matching_with, collect_reports, AggregateCounts, Aggregator,
    CsrPattern, EmChannel, EstimatorBackend, FrequencyEstimator, IbuSolver, MobilityModel,
    StreamingEstimator,
};
use trajshare_core::{MechanismConfig, NGramMechanism, RegionId};
use trajshare_datagen::{
    generate_taxi_foursquare, CityConfig, SyntheticCity, TaxiFoursquareConfig,
};
use trajshare_hierarchy::builders::foursquare;
use trajshare_model::{Dataset, TrajectorySet};

fn world() -> (Dataset, TrajectorySet) {
    let mut rng = StdRng::seed_from_u64(11);
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
            num_trajectories: 80,
            len_bounds: (3, 3),
            ..Default::default()
        },
        &mut rng,
    );
    (city.dataset, set)
}

#[test]
fn sparse_w2_joint_is_zero_on_infeasible_bigrams_pre_masking() {
    let (dataset, real) = world();
    let mech = NGramMechanism::build(&dataset, &MechanismConfig::default().with_epsilon(4.0));
    let graph = mech.graph();
    let n = graph.num_regions();
    assert!(
        graph.num_bigrams() < n * n,
        "universe must have infeasible bigrams for this regression to bite"
    );

    let reports = collect_reports(&mech, &real, 23);
    let mut agg = Aggregator::new(mech.regions());
    agg.ingest_batch(&reports);
    let counts = agg.counts();

    // The *raw* joint estimate, before markov.rs does anything with it.
    let channel = EmChannel::unigram(graph, counts.mean_eps_prime());
    let pattern = CsrPattern::from_graph(graph);
    let mut solver = IbuSolver::new(EstimatorBackend::SparseW2);
    let joint = solver.joint(&channel, &counts.transitions, 80, None, Some(&pattern));

    let mut feasible_mass = 0.0;
    for a in 0..n {
        for b in 0..n {
            let v = joint[a * n + b];
            if graph.is_feasible(RegionId(a as u32), RegionId(b as u32)) {
                assert!(v >= 0.0);
                feasible_mass += v;
            } else {
                assert_eq!(
                    v, 0.0,
                    "raw SparseW2 joint carries mass on infeasible ({a},{b})"
                );
            }
        }
    }
    assert!((feasible_mass - 1.0).abs() < 1e-9, "mass {feasible_mass}");

    // The dense product-channel estimate, by contrast, leaks mass onto
    // infeasible bigrams (that is the documented approximation the
    // sparse model closes) — if it ever stops leaking, the W₂ model and
    // this regression test are both moot.
    let dense_joint = solver_dense_joint(&channel, &counts.transitions);
    let leaked: f64 = (0..n * n)
        .filter(|i| !graph.is_feasible(RegionId((i / n) as u32), RegionId((i % n) as u32)))
        .map(|i| dense_joint[i])
        .sum();
    assert!(
        leaked > 0.0,
        "dense joint no longer leaks infeasible mass — re-examine the backends"
    );
}

fn solver_dense_joint(channel: &EmChannel, transitions: &[u64]) -> Vec<f64> {
    IbuSolver::new(EstimatorBackend::Dense).joint(channel, transitions, 80, None, None)
}

#[test]
fn all_backends_drive_the_full_pipeline_to_valid_synthesis() {
    let (dataset, real) = world();
    let mech = NGramMechanism::build(&dataset, &MechanismConfig::default().with_epsilon(4.0));
    let reports = collect_reports(&mech, &real, 29);

    let mut occupancies: Vec<Vec<f64>> = Vec::new();
    for backend in EstimatorBackend::ALL {
        let outcome = aggregate_and_synthesize_matching_with(
            &dataset,
            &mech,
            &reports,
            41,
            FrequencyEstimator::Ibu {
                iters: 120,
                backend,
            },
        );
        assert!(outcome.model.debiased, "{backend}: channel must invert");
        assert_eq!(outcome.synthetic.len(), real.len());
        for (synth, orig) in outcome.synthetic.all().iter().zip(real.all()) {
            assert_eq!(synth.len(), orig.len(), "{backend}: paired lengths");
            for w in synth.points().windows(2) {
                assert!(w[1].t > w[0].t, "{backend}: time must move forward");
            }
        }
        occupancies.push(outcome.model.occupancy.clone());
    }
    // Unigram marginals run the same model everywhere; all backends must
    // agree tightly on them even though the joints differ by design.
    let l1 = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
    assert!(
        l1(&occupancies[0], &occupancies[1]) < 1e-6,
        "dense vs sparse"
    );
}

#[test]
fn backend_choice_flips_estimation_cost_not_correctness() {
    // A coarse end-to-end sanity bound at a modest |R|: on the same
    // counters the sparse model must never be pathologically slower than
    // dense. Both run serially; at this universe's density (|W₂| ≈
    // 0.57·|R|²) neither is much faster. The per-iteration costs by
    // |R| and `W₂` density are measured in README's backend table; the
    // benchmark's `aggregate.estimate.iter_us.*` lines time each backend
    // at its own |R|.
    let (dataset, real) = world();
    let mech = NGramMechanism::build(&dataset, &MechanismConfig::default().with_epsilon(4.0));
    let reports = collect_reports(&mech, &real, 31);
    let mut agg = Aggregator::new(mech.regions());
    agg.ingest_batch(&reports);
    let counts = agg.counts();
    let time = |backend: EstimatorBackend| {
        let t0 = std::time::Instant::now();
        let m = MobilityModel::estimate_with(
            counts,
            mech.graph(),
            FrequencyEstimator::Ibu {
                iters: 150,
                backend,
            },
        );
        assert!(m.debiased);
        t0.elapsed()
    };
    let dense = time(EstimatorBackend::Dense);
    let sparse = time(EstimatorBackend::SparseW2);
    assert!(
        sparse <= dense * 2,
        "sparse backend pathologically slow: {sparse:?} vs dense {dense:?}"
    );
}

/// FNV-1a over the IEEE bit patterns of `estimates`, in order — equal
/// hashes mean bit-identical estimates.
fn bits_hash(estimates: &[&[f64]]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in estimates.iter().copied().flatten() {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// [`bits_hash`] of every estimate a model carries, in field order.
fn model_bits_hash(m: &MobilityModel) -> u64 {
    bits_hash(&[&m.start, &m.end, &m.occupancy, &m.transition, &m.length])
}

#[test]
fn dense_and_sparse_estimates_are_pinned_bit_for_bit() {
    // Golden hashes of the `Dense` estimates and of the raw `SparseW2`
    // joint on a real universe (|R| = 77). A kernel rewrite that reorders
    // one floating add changes them; the constants are never re-recorded
    // to follow a kernel change.
    let (dataset, real) = world();
    let mech = NGramMechanism::build(&dataset, &MechanismConfig::default().with_epsilon(4.0));
    let graph = mech.graph();
    assert_eq!(graph.num_regions(), 77);
    let mut agg = Aggregator::new(mech.regions());
    agg.ingest_batch(&collect_reports(&mech, &real, 37));
    let estimator = FrequencyEstimator::Ibu {
        iters: 30,
        backend: EstimatorBackend::Dense,
    };
    let dense = model_bits_hash(&MobilityModel::estimate_with(
        agg.counts(),
        graph,
        estimator,
    ));

    // The raw `SparseW2` joint, cold and then warm-started from the
    // cold posterior on the grown counts.
    let pattern = CsrPattern::from_graph(graph);
    let mut sparse = IbuSolver::new(EstimatorBackend::SparseW2);
    let sparse_joint =
        |solver: &mut IbuSolver, counts: &AggregateCounts, iters: usize, init: Option<&[f64]>| {
            let channel = EmChannel::unigram(graph, counts.mean_eps_prime());
            solver.joint(&channel, &counts.transitions, iters, init, Some(&pattern))
        };
    let sparse_cold = sparse_joint(&mut sparse, agg.counts(), 30, None);

    let mut stream = StreamingEstimator::with_backend(30, 6, EstimatorBackend::Dense);
    let cold = model_bits_hash(&stream.tick(agg.counts(), graph));
    assert!(stream.is_warm());
    agg.ingest_batch(&collect_reports(&mech, &real, 43));
    let warm = model_bits_hash(&stream.tick(agg.counts(), graph));
    let sparse_warm = sparse_joint(&mut sparse, agg.counts(), 6, Some(&sparse_cold));

    let got = [
        dense,
        cold,
        warm,
        bits_hash(&[&sparse_cold]),
        bits_hash(&[&sparse_warm]),
    ];
    let want = [
        0x60d2_52fe_9ae9_90d8,
        0x60d2_52fe_9ae9_90d8,
        0x81a8_2453_9543_5292,
        0x762b_6ce2_1c11_19d8,
        0x59a6_4faf_1108_1fa6,
    ];
    assert_eq!(
        got, want,
        "estimates moved: [dense, stream cold, stream warm, \
         sparse-w2 joint cold, sparse-w2 joint warm] = {got:#018x?}"
    );
}
