//! Small sampling utilities (Zipf, categorical, uniform ranges).
//!
//! Implemented by hand so the workspace does not depend on `rand_distr`
//! (DESIGN.md §5).

use rand::Rng;

/// A Zipf(s) distribution over ranks `1..=n`: `P(k) ∝ k^{-s}`.
///
/// POI popularity is famously heavy-tailed; the city generator uses Zipf
/// weights so the synthetic data exhibits the hotspot structure the paper's
/// hotspot queries (§6.3.2) rely on.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution. Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Probability mass of rank `k` (0-based index = rank k+1).
    pub fn pmf(&self, idx: usize) -> f64 {
        if idx == 0 {
            self.cdf[0]
        } else {
            self.cdf[idx] - self.cdf[idx - 1]
        }
    }

    /// Samples a 0-based rank index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Samples an index from non-negative weights; panics if all weights are
/// zero/empty (generator inputs are validated upstream).
pub(crate) fn weighted_index<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weighted_index requires positive total weight");
    let mut u = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Uniform integer in `[lo, hi]` (inclusive).
pub(crate) fn uniform_incl<R: Rng + ?Sized>(lo: u32, hi: u32, rng: &mut R) -> u32 {
    assert!(lo <= hi);
    rng.random_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(100, 1.1);
        let total: f64 = (0..100).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let z = Zipf::new(50, 1.0);
        for i in 1..50 {
            assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_matches_pmf() {
        let z = Zipf::new(5, 1.5);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for i in 0..5 {
            let got = counts[i] as f64 / n as f64;
            assert!(
                (got - z.pmf(i)).abs() < 0.01,
                "rank {i}: {got} vs {}",
                z.pmf(i)
            );
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = 0;
        for _ in 0..1000 {
            if weighted_index(&[0.0, 1.0, 0.0], &mut rng) == 1 {
                hits += 1;
            }
        }
        assert_eq!(hits, 1000);
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn weighted_index_rejects_zero_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = weighted_index(&[0.0, 0.0], &mut rng);
    }

    #[test]
    fn uniform_incl_covers_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            let v = uniform_incl(3, 5, &mut rng);
            assert!((3..=5).contains(&v));
            saw_lo |= v == 3;
            saw_hi |= v == 5;
        }
        assert!(saw_lo && saw_hi);
    }
}
