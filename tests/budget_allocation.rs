//! Uniform vs Adaptive per-window ε allocation at equal total budget.
//!
//! Simulates RetraSyn's continuous setting: 16 windows of 4 000 users
//! each report their region through a k-RR channel, the true occupancy
//! distribution is piecewise-constant with two shifts, and the collector
//! must honour a `w`-window budget (`WindowBudgetAccountant`: Σ spend
//! over any `w` consecutive windows ≤ ε). Per window the policy decides
//! the cohort's ε, the cohort reports at that ε, the estimate is debiased
//! with IBU, and utility is the total-variation error of the *published*
//! estimate against the window's true distribution.
//!
//! * **Uniform** spends `ε/w` every window — fresh but equally noisy
//!   estimates forever.
//! * **Adaptive** spends a probe floor while the stream is stable
//!   (republishing its last release, bought with a big grant) and spends
//!   the recycled pool the moment the distribution shifts.
//!
//! The low-budget regime is where allocation matters: at ε/w per window
//! the estimate is noise-dominated, while one recycled-pool grant buys a
//! usable release. Each policy runs twice. **Open loop**, the divergence
//! signal is the true inter-window TV distance (oracle change detection),
//! which isolates allocation quality. **Closed loop** is the grant
//! session in miniature: ε′ is announced before the window's first
//! report, the signal is significance-tested TV between the two previous
//! windows' *realized* estimates, the cohort randomizes at exactly the
//! announced rate, and settlement observes spend == grant — so refusals
//! must be exactly zero while the contract still holds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajshare_aggregate::{
    eps_to_nano, l1_divergence, nano_to_eps, norm_sub, significance_divergence, AllocationPolicy,
    EmChannel, EstimatorBackend, IbuSolver, WindowBudgetAccountant, WindowBudgetConfig,
};

const REGIONS: usize = 12;
const WINDOWS: usize = 16;
const USERS: usize = 4_000;
/// The `w` of the `w`-window contract.
const HORIZON: usize = 4;
/// Total ε over any `HORIZON` consecutive windows.
const TOTAL_EPS: f64 = 1.0;
/// Windows at which the true distribution shifts.
const SHIFTS: [usize; 2] = [6, 11];
const IBU_ITERS: usize = 200;

/// k-RR over `REGIONS` at budget `eps`: P(report truth), P(report any
/// one other region).
fn krr(eps: f64) -> (f64, f64) {
    let e = eps.exp();
    let denom = e + REGIONS as f64 - 1.0;
    (e / denom, 1.0 / denom)
}

/// The true occupancy distribution of `window` — distinct, peaked shapes
/// per phase, so a shift is a real distribution change (TV ≈ 0.4).
fn true_dist(window: usize) -> Vec<f64> {
    let phase = SHIFTS.iter().filter(|&&s| window >= s).count();
    let mut p: Vec<f64> = (0..REGIONS)
        .map(|r| {
            if (r + 3 * phase) % REGIONS < 3 {
                5.0
            } else {
                1.0
            }
        })
        .collect();
    let s: f64 = p.iter().sum();
    p.iter_mut().for_each(|v| *v /= s);
    p
}

/// One cohort's perturbed counts: each user draws a region from `p` and
/// pushes it through the k-RR channel at `eps`.
fn sample_counts(p: &[f64], eps: f64, users: usize, rng: &mut StdRng) -> Vec<u64> {
    let (keep, _) = krr(eps);
    let mut counts = vec![0u64; REGIONS];
    for _ in 0..users {
        let mut u: f64 = rng.random();
        let mut truth = REGIONS - 1;
        for (r, &pr) in p.iter().enumerate() {
            if u < pr {
                truth = r;
                break;
            }
            u -= pr;
        }
        let out = if rng.random_bool(keep) {
            truth
        } else {
            // Uniform over the other REGIONS − 1 outputs.
            let o = rng.random_range(0..REGIONS - 1);
            o + usize::from(o >= truth)
        };
        counts[out] += 1;
    }
    counts
}

/// Debiased, consistent estimate from one cohort's counts.
fn estimate(solver: &mut IbuSolver, counts: &[u64], eps: f64) -> Vec<f64> {
    let (keep, flip) = krr(eps);
    let cols: Vec<Vec<f64>> = (0..REGIONS)
        .map(|x| {
            (0..REGIONS)
                .map(|y| if y == x { keep } else { flip })
                .collect()
        })
        .collect();
    let mut est = solver.frequencies(&EmChannel::from_columns(&cols), counts, IBU_ITERS, None);
    norm_sub(&mut est);
    est
}

struct Run {
    mean_tv: f64,
    sliding_max_nano: u64,
    refusals: u64,
}

/// Runs one policy over the full window stream, enforcing the ledger.
fn run(policy: AllocationPolicy, seed: u64, closed_loop: bool) -> Run {
    let cfg = WindowBudgetConfig::new(eps_to_nano(TOTAL_EPS), HORIZON, policy);
    let mut acct = WindowBudgetAccountant::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut solver = IbuSolver::new(EstimatorBackend::Dense);
    let mut published: Option<Vec<f64>> = None;
    // The last two windows' realized (estimate, cohort size) — the
    // closed-loop allocator's only view of the stream.
    let mut realized: [Option<(Vec<f64>, u64)>; 2] = [None, None];
    let mut run = Run {
        mean_tv: 0.0,
        sliding_max_nano: 0,
        refusals: 0,
    };
    // Publish fresh when the grant is at least half the uniform share —
    // below that the policy is probing, and the previous release (bought
    // with a real grant) beats a floor-budget estimate.
    let publish_floor = (cfg.uniform_share() / 2).max(1);
    for w in 0..WINDOWS {
        let p = true_dist(w);
        let divergence = match (&realized, closed_loop) {
            ([Some((a, na)), Some((b, nb))], true) => significance_divergence(a, b, *na, *nb),
            // Blind allocator (bootstrap, or a dark window): spend.
            (_, true) => 1.0,
            (_, false) if w == 0 => 1.0,
            (_, false) => l1_divergence(&true_dist(w - 1), &p),
        };
        let grant = acct.allocate(w as u64, divergence);
        let eps = nano_to_eps(grant.granted_nano);
        let fresh = grant.granted_nano >= publish_floor;
        // A probe grant buys change detection from a quarter cohort; the
        // release stays (the floor is still spent — monitoring is not
        // free).
        let cur = (eps > 0.0).then(|| {
            let users = if fresh { USERS } else { USERS / 4 };
            let counts = sample_counts(&p, eps, users, &mut rng);
            (estimate(&mut solver, &counts, eps), users as u64)
        });
        if fresh {
            published = cur.as_ref().map(|(est, _)| est.clone());
        }
        run.mean_tv +=
            published.as_ref().map_or(1.0, |est| l1_divergence(est, &p)) / WINDOWS as f64;
        if closed_loop {
            // Honest cohort: observed worst-case spend == the grant.
            if let Some(decision) = acct.settle(w as u64, grant.granted_nano) {
                run.refusals += u64::from(decision.refused);
            }
        }
        run.sliding_max_nano = run.sliding_max_nano.max(acct.sliding_spend_nano());
        realized = [realized[1].take(), cur];
    }
    run
}

#[test]
fn adaptive_matches_or_beats_uniform_at_equal_total_epsilon() {
    for (seed, closed_loop) in [(0x5EED, false), (0xC105ED, true)] {
        let uniform = run(AllocationPolicy::Uniform, seed, closed_loop);
        let adaptive = run(AllocationPolicy::adaptive(), seed, closed_loop);
        for r in [&uniform, &adaptive] {
            assert!(
                r.sliding_max_nano <= eps_to_nano(TOTAL_EPS),
                "the w-window contract must hold (closed_loop={closed_loop})"
            );
            assert_eq!(
                r.refusals, 0,
                "honest grant-following cohorts are never refused"
            );
        }
        assert!(
            adaptive.mean_tv <= uniform.mean_tv,
            "adaptive ({:.3}) must match or beat uniform ({:.3}), closed_loop={closed_loop}",
            adaptive.mean_tv,
            uniform.mean_tv,
        );
    }
}
