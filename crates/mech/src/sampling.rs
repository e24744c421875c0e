//! Weighted-sampling utilities shared by the mechanisms.

use rand::Rng;

/// Samples an index proportionally to non-negative `weights`.
///
/// Returns `None` if the weights are empty, contain a negative/NaN entry, or
/// sum to zero. Linear scan over the cumulative sum — the candidate lists in
/// this codebase are built fresh per call, so a prefix-sum structure would
/// not amortize.
pub fn sample_from_weights<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> Option<usize> {
    if weights.is_empty() {
        return None;
    }
    let mut total = 0.0f64;
    for &w in weights {
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: also catches NaN
        if !(w >= 0.0) {
            return None;
        }
        total += w;
    }
    if total <= 0.0 || !total.is_finite() {
        return None;
    }
    let u = rng.random::<f64>() * total;
    sample_index_by_cumsum(weights, u)
}

/// Finds the first index where the running sum of `weights` exceeds `target`.
///
/// Falls back to the last strictly-positive weight when floating-point
/// rounding leaves `target` marginally above the final cumulative sum.
pub(crate) fn sample_index_by_cumsum(weights: &[f64], target: f64) -> Option<usize> {
    let mut acc = 0.0f64;
    let mut last_positive = None;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            last_positive = Some(i);
        }
        acc += w;
        if target < acc {
            return Some(i);
        }
    }
    last_positive
}

/// Gumbel-max sampling over *log*-weights: returns the argmax of
/// `log_w[i] + Gumbel(0,1)`, which is distributed as softmax(`log_w`).
///
/// Avoids overflow/underflow entirely, so it is the right tool when scores
/// span hundreds of nats (large ε′ · distance products). `-inf` entries are
/// never selected; returns `None` if all entries are `-inf` or the slice is
/// empty.
pub(crate) fn gumbel_argmax<R: Rng + ?Sized>(log_weights: &[f64], rng: &mut R) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &lw) in log_weights.iter().enumerate() {
        if lw == f64::NEG_INFINITY || lw.is_nan() {
            continue;
        }
        // Gumbel(0,1) = -ln(-ln U). Clamp U away from 0/1 endpoints.
        let u: f64 = rng.random::<f64>().clamp(1e-300, 1.0 - 1e-16);
        let g = -(-u.ln()).ln();
        let key = lw + g;
        if best.is_none_or(|(_, b)| key > b) {
            best = Some((i, key));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_weights_yield_none() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_from_weights(&[], &mut rng), None);
    }

    #[test]
    fn negative_or_nan_weights_yield_none() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_from_weights(&[1.0, -0.5], &mut rng), None);
        assert_eq!(sample_from_weights(&[1.0, f64::NAN], &mut rng), None);
    }

    #[test]
    fn all_zero_weights_yield_none() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_from_weights(&[0.0, 0.0], &mut rng), None);
    }

    #[test]
    fn deterministic_when_single_positive_weight() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(sample_from_weights(&[0.0, 3.0, 0.0], &mut rng), Some(1));
        }
    }

    #[test]
    fn cumsum_rounding_falls_back_to_last_positive() {
        // target exactly equal to the total (can happen with rounding).
        assert_eq!(sample_index_by_cumsum(&[0.25, 0.75, 0.0], 1.0), Some(1));
        assert_eq!(sample_index_by_cumsum(&[0.0, 0.0], 0.5), None);
    }

    #[test]
    fn frequencies_roughly_match_weights() {
        let mut rng = StdRng::seed_from_u64(42);
        let weights = [1.0, 2.0, 7.0];
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[sample_from_weights(&weights, &mut rng).unwrap()] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = w / total;
            let got = counts[i] as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.02,
                "idx {i}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn gumbel_skips_neg_infinity() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let idx = gumbel_argmax(&[f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY], &mut rng);
            assert_eq!(idx, Some(1));
        }
        assert_eq!(gumbel_argmax(&[f64::NEG_INFINITY], &mut rng), None);
        assert_eq!(gumbel_argmax(&[], &mut rng), None);
    }

    #[test]
    fn gumbel_matches_softmax_frequencies() {
        let mut rng = StdRng::seed_from_u64(11);
        let logw = [0.0f64, (2.0f64).ln(), (7.0f64).ln()];
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[gumbel_argmax(&logw, &mut rng).unwrap()] += 1;
        }
        for (i, &lw) in logw.iter().enumerate() {
            let expect = lw.exp() / 10.0;
            let got = counts[i] as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.02,
                "idx {i}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn gumbel_survives_extreme_log_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        // Scores that would overflow exp().
        let logw = [900.0, 850.0, -900.0];
        let mut saw0 = 0;
        for _ in 0..1000 {
            let i = gumbel_argmax(&logw, &mut rng).unwrap();
            assert!(i < 2, "the -900 entry should essentially never win");
            if i == 0 {
                saw0 += 1;
            }
        }
        assert!(saw0 > 990, "exp gap of 50 nats should dominate, got {saw0}");
    }
}
