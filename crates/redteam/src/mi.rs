//! Membership-inference empirical-ε estimation.
//!
//! The attacker plays the standard distinguishing game behind the ε-LDP
//! definition: two neighboring inputs (target present vs. a decoy in its
//! place), one observable channel output per trial, one real-valued score
//! per output. If any score threshold separates the two worlds with true
//! rates (TPR, FPR), the data-processing inequality forces
//! `TPR ≤ e^ε · FPR` and `(1−FPR) ≤ e^ε · (1−TPR)` — so
//! `ln(TPR/FPR)` and `ln((1−FPR)/(1−TPR))` are both lower bounds on ε.
//!
//! Empirical rates are not true rates, so the estimator debits each side
//! by a Dvoretzky–Kiefer–Wolfowitz band before taking the logarithm:
//! with `n` trials per world, `sup_t |F̂(t) − F(t)| ≤ √(ln(2/δ′)/2n)`
//! with probability ≥ 1 − δ′, *uniformly over thresholds* — which is what
//! licenses sweeping every threshold and keeping the best. Splitting δ
//! across the two worlds, the reported [`MiEstimate::eps_lower`] is a
//! valid ε lower bound with probability ≥ 1 − δ. Small trial counts make
//! the band wide and the bound conservative — the sound direction for a
//! `empirical ≤ theoretical` CI gate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trajshare_aggregate::user_seed;
use trajshare_mech::{k_randomized_response, rr_truth_probability};

/// One membership-inference measurement.
#[derive(Debug, Clone, Copy)]
pub struct MiEstimate {
    /// Best uncorrected distinguishing advantage `max_t (TPR − FPR)`.
    pub advantage: f64,
    /// DKW-corrected lower bound on ε; ≥ 0, and 0 when the trials cannot
    /// certify any leakage.
    pub eps_lower: f64,
    /// Trials in the target-present world.
    pub trials_in: usize,
    /// Trials in the target-absent world.
    pub trials_out: usize,
    /// Total failure probability of the bound.
    pub delta: f64,
}

/// Converts paired attacker scores (target present / absent) into a
/// sound empirical-ε lower bound. Higher scores must indicate "target
/// present"; any monotone score works, the bound is just weaker for bad
/// ones.
pub(crate) fn eps_lower_bound(scores_in: &[f64], scores_out: &[f64], delta: f64) -> MiEstimate {
    assert!(!scores_in.is_empty() && !scores_out.is_empty());
    assert!(delta > 0.0 && delta < 1.0);
    let n_in = scores_in.len();
    let n_out = scores_out.len();
    // δ split across the two empirical CDFs; DKW band per side.
    let half = delta / 2.0;
    let slack_in = (f64::ln(2.0 / half) / (2.0 * n_in as f64)).sqrt();
    let slack_out = (f64::ln(2.0 / half) / (2.0 * n_out as f64)).sqrt();

    let mut thresholds: Vec<f64> = scores_in.iter().chain(scores_out).copied().collect();
    thresholds.sort_by(f64::total_cmp);
    thresholds.dedup();

    let mut advantage: f64 = 0.0;
    let mut eps: f64 = 0.0;
    for &t in &thresholds {
        let tpr = scores_in.iter().filter(|&&s| s >= t).count() as f64 / n_in as f64;
        let fpr = scores_out.iter().filter(|&&s| s >= t).count() as f64 / n_out as f64;
        advantage = advantage.max(tpr - fpr);
        // Accept direction: TPR ≤ e^ε FPR.
        let num = tpr - slack_in;
        if num > 0.0 {
            eps = eps.max((num / (fpr + slack_out)).ln());
        }
        // Reject direction: 1−FPR ≤ e^ε (1−TPR).
        let num = (1.0 - fpr) - slack_out;
        if num > 0.0 {
            eps = eps.max((num / ((1.0 - tpr) + slack_in)).ln());
        }
    }
    MiEstimate {
        advantage,
        eps_lower: eps.max(0.0),
        trials_in: n_in,
        trials_out: n_out,
        delta,
    }
}

/// Calibration instrument: the membership game against *plain k-RR*,
/// whose exact ε is known, with the optimal (likelihood-ratio) attacker.
/// Pins the estimator sound before it judges the pipeline: for any
/// `(epsilon, k, trials)` the returned bound must not exceed `epsilon`
/// (up to probability `delta`).
pub fn krr_empirical_eps(
    epsilon: f64,
    k: usize,
    trials: usize,
    delta: f64,
    seed: u64,
) -> MiEstimate {
    assert!(k >= 2);
    let p = rr_truth_probability(k, epsilon);
    let q = (1.0 - p) / (k as f64 - 1.0);
    let (truth, decoy) = (0usize, 1usize);
    // Exact log-likelihood ratio of one report: ln P(z|truth)/P(z|decoy).
    let llr = |z: usize| -> f64 {
        if z == truth {
            (p / q).ln()
        } else if z == decoy {
            (q / p).ln()
        } else {
            0.0
        }
    };
    let mut scores_in = Vec::with_capacity(trials);
    let mut scores_out = Vec::with_capacity(trials);
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(user_seed(seed, t as u64));
        scores_in.push(llr(k_randomized_response(truth, k, epsilon, &mut rng)));
        scores_out.push(llr(k_randomized_response(decoy, k, epsilon, &mut rng)));
    }
    eps_lower_bound(&scores_in, &scores_out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_separation_is_bounded_by_the_dkw_band() {
        // Even perfectly separated scores cannot certify unbounded ε: the
        // band caps the claim at ln((1−s)/s).
        let scores_in = vec![1.0; 200];
        let scores_out = vec![0.0; 200];
        let est = eps_lower_bound(&scores_in, &scores_out, 0.05);
        let slack = (f64::ln(2.0 / 0.025) / 400.0).sqrt();
        let cap = ((1.0 - slack) / slack).ln();
        assert!(est.eps_lower > 0.0);
        assert!(est.eps_lower <= cap + 1e-9, "{} > {cap}", est.eps_lower);
        assert!((est.advantage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn identical_scores_certify_nothing() {
        let s = vec![0.3; 150];
        let est = eps_lower_bound(&s, &s, 0.05);
        assert_eq!(est.eps_lower, 0.0);
        assert_eq!(est.advantage, 0.0);
    }

    #[test]
    fn krr_bound_respects_theoretical_eps() {
        for &(eps, k) in &[(0.5, 4usize), (1.0, 8), (2.0, 4), (4.0, 16)] {
            let est = krr_empirical_eps(eps, k, 600, 0.05, 42);
            assert!(
                est.eps_lower <= eps + 1e-9,
                "ε={eps} k={k}: empirical {} exceeds theoretical",
                est.eps_lower
            );
        }
    }

    #[test]
    fn krr_bound_detects_leakage_at_moderate_eps() {
        // ε = 2 with 800 trials: the optimal attacker's advantage is
        // large enough that the certified bound must be strictly positive.
        let est = krr_empirical_eps(2.0, 4, 800, 0.05, 7);
        assert!(est.eps_lower > 0.3, "bound {} too weak", est.eps_lower);
        assert!(est.advantage > 0.2);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = krr_empirical_eps(1.0, 6, 200, 0.05, 11);
        let b = krr_empirical_eps(1.0, 6, 200, 0.05, 11);
        assert_eq!(a.eps_lower, b.eps_lower);
        assert_eq!(a.advantage, b.advantage);
    }
}
