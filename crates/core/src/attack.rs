//! Adversarial inference analysis (§5.7).
//!
//! The paper argues an adversary with full public knowledge "cannot use
//! this information to learn meaningful information with high probability".
//! This module makes that claim checkable: a Bayesian adversary who knows
//! the mechanism, the candidate universe and a prior over region paths
//! decodes the exact MAP path from an observed perturbed multiset `Z`.
//! ε-LDP bounds the posterior-to-prior odds update by `e^ε'` per window
//! (`tests/privacy.rs` audits that ratio on the sampler itself), and the
//! empirical recovery rate of the MAP attacker quantifies residual leakage.

use crate::perturb::PerturbedWindow;
use crate::region::RegionId;
use crate::regiongraph::RegionGraph;

/// Mass floor for prior probabilities: a published model's zeros are
/// estimation artifacts, not hard evidence, so the attacker never lets a
/// prior veto a feasible path outright.
const PRIOR_FLOOR: f64 = 1e-12;

/// A path-space prior for [`TrajectoryAdversary`]: typically the *published*
/// population model (start distribution + row-major `|R|²` transition
/// matrix), which an adversary is explicitly allowed to know — publications
/// are public. `None` entries of the model are handled by flooring, so a
/// sparse estimate never hard-forbids a feasible truth.
#[derive(Debug, Clone, Copy)]
pub struct PathPrior<'a> {
    /// Start-region distribution, `|R|` entries.
    pub start: &'a [f64],
    /// Row-major `|R|²` transition matrix (rows need not be normalized).
    pub transition: &'a [f64],
}

/// A whole-trajectory MAP adversary against the §5.4 n-gram EM.
///
/// Decodes the full perturbed multiset `Z`: the exact window likelihood
/// `P(z_w | x)` of the §5.4 EM factorizes into per-position distance
/// terms plus a per-window normalizer, so the joint posterior over region
/// *paths* is a chain model and exact MAP decoding is a Viterbi pass over
/// the `W₂` lattice — the attacker-side mirror of the §5.5 reconstruction
/// (which optimizes expected error, not recovery).
///
/// Per candidate fragment `x` the EM gives
/// `ln P(z_w | x) = Σ_j −s·d(x_j, z_j) − ln Z_k(x)` with
/// `s = ε′ / 2Δ_k`. The distance terms attach to lattice nodes; `ln Z₁(x)`
/// is a node term and `ln Z₂(x_a, x_b)` an edge term, both precomputed:
/// `Z₂(a, b) = Σ_{y} e^{−s·d(a,y)} · Σ_{y′ ∈ succ(y)} e^{−s·d(b,y′)}` in
/// `O(|R|·(|R|² + |W₂|))`. Trigram windows (n = 3) use the chained-bigram
/// surrogate `ln Z₃(a,b,c) ≈ ln Z₂(a,b) + ln Z₂(b,c) − ln Z₁(b)` — exact
/// normalizers for n ≤ 2 (the default configuration), a documented
/// approximation for n = 3.
#[derive(Debug, Clone)]
pub struct TrajectoryAdversary<'a> {
    graph: &'a RegionGraph,
    eps_prime: f64,
    /// Per window length k (index 1..=3): the EM scale ε′ / 2Δ_k.
    scale: [f64; 4],
    /// Per window length k: `ln Z₁` at that scale, `|R|` entries.
    log_z1: [Vec<f64>; 4],
    /// Per window length k: `ln Z₂` at that scale, row-major `|R|²`.
    log_z2: [Vec<f64>; 4],
}

impl<'a> TrajectoryAdversary<'a> {
    /// Builds the adversary for one per-window budget; `lengths` is the
    /// set of window lengths that will appear in `Z` (e.g. `&[1, 2]` for
    /// the default n = 2 schedule). Tables are only precomputed for the
    /// lengths actually used.
    pub fn new(graph: &'a RegionGraph, eps_prime: f64, lengths: &[usize]) -> Self {
        assert!(eps_prime > 0.0 && eps_prime.is_finite());
        let nr = graph.num_regions();
        let mut adv = TrajectoryAdversary {
            graph,
            eps_prime,
            scale: [0.0; 4],
            log_z1: Default::default(),
            log_z2: Default::default(),
        };
        for &k in lengths {
            assert!((1..=3).contains(&k), "window length {k} out of range");
            if !adv.log_z1[k].is_empty() {
                continue;
            }
            let scale = eps_prime / (2.0 * graph.distance.ngram_sensitivity(k));
            adv.scale[k] = scale;
            // elem[x][y] = e^{−s·d(x, y)}.
            let elem: Vec<f64> = (0..nr)
                .flat_map(|x| {
                    (0..nr).map(move |y| {
                        (-scale * graph.distance.get(RegionId(x as u32), RegionId(y as u32))).exp()
                    })
                })
                .collect();
            adv.log_z1[k] = (0..nr)
                .map(|x| elem[x * nr..(x + 1) * nr].iter().sum::<f64>().ln())
                .collect();
            // Z₂(a, b) = Σ_y elem[a][y] · S_b[y], S_b[y] = Σ_{y′∈succ(y)} elem[b][y′].
            let mut log_z2 = vec![f64::NEG_INFINITY; nr * nr];
            let mut succ_sum = vec![0.0f64; nr];
            for b in 0..nr {
                for (y, s) in succ_sum.iter_mut().enumerate() {
                    *s = graph
                        .successors(RegionId(y as u32))
                        .iter()
                        .map(|&y2| elem[b * nr + y2 as usize])
                        .sum();
                }
                for a in 0..nr {
                    let z: f64 = (0..nr).map(|y| elem[a * nr + y] * succ_sum[y]).sum();
                    if z > 0.0 {
                        log_z2[a * nr + b] = z.ln();
                    }
                }
            }
            adv.log_z2[k] = log_z2;
        }
        adv
    }

    /// The per-window budget this adversary was built for.
    pub fn eps_prime(&self) -> f64 {
        self.eps_prime
    }

    /// Exact log-likelihood `ln P(Z | path)` of the observed multiset
    /// under the EM (for n = 3 windows: the chained-bigram surrogate).
    /// `path.len()` must match the schedule that produced `Z`.
    pub fn log_likelihood(&self, z: &[PerturbedWindow], path: &[RegionId]) -> f64 {
        let (node, edge) = self.build_potentials(z, path.len(), None);
        let nr = self.graph.num_regions();
        let mut total = node[path[0].index()];
        for i in 1..path.len() {
            total += node[i * nr + path[i].index()];
            total += self.edge_score(&edge[i - 1], None, path[i - 1], path[i]);
        }
        total
    }

    /// Exact MAP decode of the whole trajectory from the observed window
    /// multiset `Z`, optionally sharpened by a published-model prior.
    ///
    /// Runs Viterbi over the `W₂` successor lattice in
    /// `O(len · |W₂|)` after table precompute. When no feasible path of
    /// the requested length exists (a degenerate universe), falls back to
    /// the per-position argmax of the node potentials.
    pub fn map_trajectory(
        &self,
        z: &[PerturbedWindow],
        len: usize,
        prior: Option<PathPrior<'_>>,
    ) -> Vec<RegionId> {
        assert!(len >= 1);
        let nr = self.graph.num_regions();
        let (node, edge) = self.build_potentials(z, len, prior);
        if len == 1 {
            return vec![argmax_region(&node[..nr])];
        }
        // Viterbi over feasible successors.
        let mut dp = node[..nr].to_vec();
        let mut back: Vec<Vec<u32>> = Vec::with_capacity(len - 1);
        for i in 1..len {
            let mut next = vec![f64::NEG_INFINITY; nr];
            let mut bp = vec![u32::MAX; nr];
            for x in 0..nr {
                if dp[x].is_infinite() {
                    continue;
                }
                for &y in self.graph.successors(RegionId(x as u32)) {
                    let cand = dp[x]
                        + self.edge_score(
                            &edge[i - 1],
                            prior.as_ref(),
                            RegionId(x as u32),
                            RegionId(y),
                        )
                        + node[i * nr + y as usize];
                    if cand > next[y as usize] {
                        next[y as usize] = cand;
                        bp[y as usize] = x as u32;
                    }
                }
            }
            dp = next;
            back.push(bp);
        }
        let (mut best, mut best_v) = (usize::MAX, f64::NEG_INFINITY);
        for (r, &v) in dp.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = r;
            }
        }
        if best == usize::MAX {
            // No feasible path at all: independent per-position argmax.
            return (0..len)
                .map(|i| argmax_region(&node[i * nr..(i + 1) * nr]))
                .collect();
        }
        let mut path = vec![RegionId(best as u32); len];
        for i in (1..len).rev() {
            best = back[i - 1][best] as usize;
            path[i - 1] = RegionId(best as u32);
        }
        path
    }

    /// Node potentials (`len × |R|`, row-major) and per-edge normalizer
    /// terms for the lattice implied by `Z`.
    fn build_potentials(
        &self,
        z: &[PerturbedWindow],
        len: usize,
        prior: Option<PathPrior<'_>>,
    ) -> (Vec<f64>, Vec<EdgePotential>) {
        let nr = self.graph.num_regions();
        let mut node = vec![0.0f64; len * nr];
        let mut edge = vec![EdgePotential::default(); len.saturating_sub(1)];
        for pw in z {
            let k = pw.window.len();
            assert!(
                !self.log_z1[k].is_empty(),
                "window length {k} not declared at construction"
            );
            assert!(pw.window.b < len, "window exceeds trajectory length");
            let scale = self.scale[k];
            // Distance evidence: separable onto the covered positions.
            for (j, &obs) in pw.regions.iter().enumerate() {
                let i = pw.window.a + j;
                for x in 0..nr {
                    node[i * nr + x] -= scale * self.graph.distance.get(RegionId(x as u32), obs);
                }
            }
            // Normalizer: node term (k = 1), edge term (k = 2), or the
            // chained-bigram surrogate (k = 3).
            match k {
                1 => {
                    let a = pw.window.a;
                    for x in 0..nr {
                        node[a * nr + x] -= self.log_z1[1][x];
                    }
                }
                2 => edge[pw.window.a].z2_weights.push(k),
                3 => {
                    edge[pw.window.a].z2_weights.push(k);
                    edge[pw.window.a + 1].z2_weights.push(k);
                    let mid = pw.window.a + 1;
                    for x in 0..nr {
                        node[mid * nr + x] += self.log_z1[3][x];
                    }
                }
                _ => unreachable!(),
            }
        }
        if let Some(p) = &prior {
            assert_eq!(p.start.len(), nr, "prior start must cover |R|");
            assert_eq!(p.transition.len(), nr * nr, "prior transition must be |R|²");
            for x in 0..nr {
                node[x] += p.start[x].max(PRIOR_FLOOR).ln();
            }
        }
        (node, edge)
    }

    /// The score of lattice edge `x → y`: every window normalizer charged
    /// to this edge, plus the (floored) prior transition log-mass.
    fn edge_score(
        &self,
        e: &EdgePotential,
        prior: Option<&PathPrior<'_>>,
        x: RegionId,
        y: RegionId,
    ) -> f64 {
        let nr = self.graph.num_regions();
        let cell = x.index() * nr + y.index();
        let mut t = 0.0;
        for &k in &e.z2_weights {
            t -= self.log_z2[k][cell];
        }
        if let Some(p) = prior {
            t += p.transition[cell].max(PRIOR_FLOOR).ln();
        }
        t
    }
}

/// Per-lattice-edge normalizer bookkeeping: which window lengths charge a
/// `−ln Z₂(x, y)` term on this edge.
#[derive(Debug, Clone, Default)]
struct EdgePotential {
    z2_weights: Vec<usize>,
}

fn argmax_region(scores: &[f64]) -> RegionId {
    let mut best = 0usize;
    for (i, &v) in scores.iter().enumerate() {
        if v > scores[best] {
            best = i;
        }
    }
    RegionId(best as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MechanismConfig;
    use crate::decomposition::decompose;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajshare_geo::{DistanceMetric, GeoPoint};
    use trajshare_hierarchy::builders::campus;
    use trajshare_model::{Dataset, Poi, PoiId, TimeDomain};

    fn graph() -> (Dataset, crate::region::RegionSet, RegionGraph) {
        let h = campus();
        let leaves = h.leaves();
        let origin = GeoPoint::new(40.7, -74.0);
        let pois: Vec<Poi> = (0..36)
            .map(|i| {
                Poi::new(
                    PoiId(i),
                    format!("p{i}"),
                    origin.offset_m((i % 6) as f64 * 400.0, (i / 6) as f64 * 400.0),
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
        let mut cfg = MechanismConfig::default();
        cfg.time_interval_min = 240; // coarse: keep W₂ small for exact sums
        let rs = decompose(&ds, &cfg);
        let g = RegionGraph::build(&ds, &rs);
        (ds, rs, g)
    }

    /// A length-3 feasible truth path in the toy graph.
    fn feasible_path3(g: &RegionGraph) -> Vec<RegionId> {
        for &(a, b) in &g.bigrams {
            if let Some(&c) = g.successors(RegionId(b)).first() {
                return vec![RegionId(a), RegionId(b), RegionId(c)];
            }
        }
        panic!("no length-3 feasible path in toy graph");
    }

    /// Exact EM log-probability of one window, by direct enumeration of
    /// the candidate universe — the reference the fast decoder must match.
    fn brute_window_logp(
        g: &RegionGraph,
        eps_prime: f64,
        truth: &[RegionId],
        obs: &[RegionId],
    ) -> f64 {
        let k = truth.len();
        let scale = eps_prime / (2.0 * g.distance.ngram_sensitivity(k));
        let w = |cand: &[RegionId]| -> f64 {
            let d: f64 = truth
                .iter()
                .zip(cand)
                .map(|(&t, &c)| g.distance.get(t, c))
                .sum();
            (-scale * d).exp()
        };
        let total: f64 = match k {
            1 => (0..g.num_regions() as u32).map(|r| w(&[RegionId(r)])).sum(),
            2 => g
                .bigrams
                .iter()
                .map(|&(a, b)| w(&[RegionId(a), RegionId(b)]))
                .sum(),
            _ => unreachable!("reference covers k <= 2"),
        };
        (w(obs) / total).ln()
    }

    #[test]
    fn trajectory_log_likelihood_matches_brute_force() {
        let (_, _, g) = graph();
        let truth = feasible_path3(&g);
        let eps_prime = 0.7;
        let mut rng = StdRng::seed_from_u64(11);
        let z = crate::perturb::perturb_region_sequence(&g, &truth, 2, eps_prime, &mut rng);
        let adv = TrajectoryAdversary::new(&g, eps_prime, &[1, 2]);
        // Against several candidate paths, the factorized lattice score
        // must equal the product of exact window probabilities.
        let mut cands = vec![truth.clone()];
        for &(a, b) in g.bigrams.iter().take(6) {
            if let Some(&c) = g.successors(RegionId(b)).first() {
                cands.push(vec![RegionId(a), RegionId(b), RegionId(c)]);
            }
        }
        for path in cands {
            let want: f64 = z
                .iter()
                .map(|pw| {
                    brute_window_logp(&g, eps_prime, &path[pw.window.a..=pw.window.b], &pw.regions)
                })
                .sum();
            let got = adv.log_likelihood(&z, &path);
            assert!(
                (got - want).abs() < 1e-9,
                "path {path:?}: lattice {got} vs brute {want}"
            );
        }
    }

    #[test]
    fn trajectory_map_is_exact_over_all_feasible_paths() {
        let (_, _, g) = graph();
        let truth = feasible_path3(&g);
        let eps_prime = 1.1;
        let mut rng = StdRng::seed_from_u64(13);
        let z = crate::perturb::perturb_region_sequence(&g, &truth, 2, eps_prime, &mut rng);
        let adv = TrajectoryAdversary::new(&g, eps_prime, &[1, 2]);
        let map = adv.map_trajectory(&z, truth.len(), None);
        let map_score = adv.log_likelihood(&z, &map);
        // Enumerate every feasible length-3 path and verify nothing beats
        // the Viterbi decode.
        let mut best = f64::NEG_INFINITY;
        for &(a, b) in &g.bigrams {
            for &c in g.successors(RegionId(b)) {
                let p = vec![RegionId(a), RegionId(b), RegionId(c)];
                best = best.max(adv.log_likelihood(&z, &p));
            }
        }
        assert!(
            (map_score - best).abs() < 1e-9,
            "Viterbi {map_score} vs exhaustive {best}"
        );
        // The decode is itself feasible.
        for w in map.windows(2) {
            assert!(g.is_feasible(w[0], w[1]));
        }
    }

    #[test]
    fn trajectory_map_recovers_truth_at_huge_epsilon() {
        let (_, _, g) = graph();
        let truth = feasible_path3(&g);
        let mut rng = StdRng::seed_from_u64(17);
        let z = crate::perturb::perturb_region_sequence(&g, &truth, 2, 600.0, &mut rng);
        let adv = TrajectoryAdversary::new(&g, 600.0, &[1, 2]);
        assert_eq!(adv.map_trajectory(&z, truth.len(), None), truth);
    }

    #[test]
    fn published_prior_decides_when_signal_is_flat() {
        let (_, _, g) = graph();
        let nr = g.num_regions();
        let truth = feasible_path3(&g);
        let mut rng = StdRng::seed_from_u64(19);
        // Essentially no signal in Z...
        let eps_prime = 1e-6;
        let z = crate::perturb::perturb_region_sequence(&g, &truth, 2, eps_prime, &mut rng);
        let adv = TrajectoryAdversary::new(&g, eps_prime, &[1, 2]);
        // ...and a published model spiked on one feasible path.
        let spike = feasible_path3(&g);
        let mut start = vec![PRIOR_FLOOR; nr];
        start[spike[0].index()] = 1.0;
        let mut transition = vec![PRIOR_FLOOR; nr * nr];
        for w in spike.windows(2) {
            transition[w[0].index() * nr + w[1].index()] = 1.0;
        }
        let map = adv.map_trajectory(
            &z,
            truth.len(),
            Some(PathPrior {
                start: &start,
                transition: &transition,
            }),
        );
        assert_eq!(map, spike, "with no signal the published prior decides");
    }

    #[test]
    fn single_point_and_trigram_windows_decode() {
        let (_, _, g) = graph();
        // len = 1 (one unigram window).
        let truth1 = vec![RegionId(g.bigrams[0].0)];
        let mut rng = StdRng::seed_from_u64(23);
        let z1 = crate::perturb::perturb_region_sequence(&g, &truth1, 1, 400.0, &mut rng);
        let adv1 = TrajectoryAdversary::new(&g, 400.0, &[1]);
        assert_eq!(adv1.map_trajectory(&z1, 1, None), truth1);
        // n = 3 windows go through the chained-bigram surrogate and must
        // still decode to a feasible, truth-like path at high ε′.
        let truth3 = feasible_path3(&g);
        let z3 = crate::perturb::perturb_region_sequence(&g, &truth3, 3, 400.0, &mut rng);
        let adv3 = TrajectoryAdversary::new(&g, 400.0, &[1, 2, 3]);
        let map = adv3.map_trajectory(&z3, truth3.len(), None);
        assert_eq!(map.len(), truth3.len());
        for w in map.windows(2) {
            assert!(g.is_feasible(w[0], w[1]));
        }
        assert_eq!(map, truth3, "near-lossless ε′ must recover the truth");
    }
}
