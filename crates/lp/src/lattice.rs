//! The trajectory-reconstruction lattice problem (Eq. 10–14).
//!
//! Section 5.5 reconstructs the region-level trajectory by selecting one
//! bigram per position `i ∈ 1..|τ|-1`, chained by continuity
//! (`w_i(2) = w_{i+1}(1)`), minimizing the total bigram error. That is a
//! shortest path in a layered graph whose layers are trajectory positions
//! and whose arcs are the feasible bigrams. We expose:
//!
//! * [`LatticeProblem::solve_viterbi`] — exact dynamic programming,
//!   `O(L · |arcs|)`; the production solver,
//! * [`LatticeProblem::to_ilp`] / [`LatticeProblem::solve_ilp`] — the
//!   paper-faithful ILP (binary `x_i^w`, assignment + flow-conservation
//!   continuity constraints), solved with our simplex + branch & bound.
//!
//! The ILP's LP relaxation is a path polytope (totally unimodular), so both
//! solvers agree; `tests` and the root `tests/reconstruction_equivalence.rs`
//! verify this, and the benchmark's `core.share_solve_us` layer line
//! measures the production solve.

use crate::branch_bound::solve_ilp;
use crate::problem::{LinearProgram, Relation, SolveStatus};

/// A layered arc-selection problem.
#[derive(Debug, Clone)]
pub struct LatticeProblem {
    /// Number of distinct nodes (STC regions in the MBR).
    pub num_nodes: usize,
    /// Shared arc set: `(tail, head)` node pairs (feasible bigrams).
    pub arcs: Vec<(usize, usize)>,
    /// `costs[pos][arc]` — bigram error `e(i, w)`; one row per position.
    pub costs: Vec<Vec<f64>>,
}

/// A solved lattice: the chosen arc per position, the induced node path
/// (length `positions + 1`), and the total cost.
#[derive(Debug, Clone, PartialEq)]
pub struct LatticeSolution {
    pub arcs: Vec<usize>,
    pub nodes: Vec<usize>,
    pub cost: f64,
}

impl LatticeProblem {
    /// Number of positions (bigram slots), i.e. `|τ| - 1`.
    #[inline]
    pub fn positions(&self) -> usize {
        self.costs.len()
    }

    /// Validates internal consistency; called by the solvers.
    fn validate(&self) {
        for &(u, v) in &self.arcs {
            assert!(
                u < self.num_nodes && v < self.num_nodes,
                "arc endpoint out of range"
            );
        }
        for row in &self.costs {
            assert_eq!(row.len(), self.arcs.len(), "cost row length mismatch");
        }
    }

    /// Exact DP solve. Returns `None` when no continuous arc chain exists
    /// (e.g. empty arc set or zero positions).
    pub fn solve_viterbi(&self) -> Option<LatticeSolution> {
        self.validate();
        let len = self.positions();
        if len == 0 || self.arcs.is_empty() {
            return None;
        }
        let n = self.num_nodes;
        const INF: f64 = f64::INFINITY;

        // f[v] = best cost with the last chosen arc's head == v.
        let mut f = vec![INF; n];
        // back[pos][v] = arc index chosen at `pos` achieving f.
        let mut back = vec![vec![usize::MAX; n]; len];

        for (a, &(_, v)) in self.arcs.iter().enumerate() {
            let c = self.costs[0][a];
            if c < f[v] {
                f[v] = c;
                back[0][v] = a;
            }
        }
        for pos in 1..len {
            let mut g = vec![INF; n];
            for (a, &(u, v)) in self.arcs.iter().enumerate() {
                if f[u] == INF {
                    continue;
                }
                let c = f[u] + self.costs[pos][a];
                if c < g[v] {
                    g[v] = c;
                    back[pos][v] = a;
                }
            }
            f = g;
        }

        // Best terminal node.
        let (mut v, &cost) = f.iter().enumerate().min_by(|x, y| x.1.total_cmp(y.1))?;
        if cost == INF {
            return None;
        }

        // Backtrack.
        let mut arcs = vec![usize::MAX; len];
        for pos in (0..len).rev() {
            let a = back[pos][v];
            debug_assert_ne!(a, usize::MAX);
            arcs[pos] = a;
            v = self.arcs[a].0;
        }
        let mut nodes = Vec::with_capacity(len + 1);
        nodes.push(self.arcs[arcs[0]].0);
        for &a in &arcs {
            nodes.push(self.arcs[a].1);
        }
        Some(LatticeSolution { arcs, nodes, cost })
    }

    /// Builds the ILP of Eq. 10–14: binary `x[pos][arc]`, one arc per
    /// position (Eq. 13–14), flow-conservation continuity (Eq. 11–12).
    ///
    /// Variable order: `x[pos][arc] = pos * arcs.len() + arc`.
    pub fn to_ilp(&self) -> LinearProgram {
        self.validate();
        let len = self.positions();
        let na = self.arcs.len();
        let mut lp = LinearProgram::new();
        for pos in 0..len {
            for a in 0..na {
                lp.add_binary_var(self.costs[pos][a]);
            }
        }
        let var = |pos: usize, a: usize| pos * na + a;
        // Eq. 14 (and 13 in aggregate): exactly one bigram per position.
        for pos in 0..len {
            lp.add_constraint(
                (0..na).map(|a| (var(pos, a), 1.0)).collect(),
                Relation::Eq,
                1.0,
            );
        }
        // Eq. 11–12 as flow conservation: for each position boundary and
        // node r, arcs entering r at `pos` equal arcs leaving r at `pos+1`.
        for pos in 0..len.saturating_sub(1) {
            for r in 0..self.num_nodes {
                let mut coeffs: Vec<(usize, f64)> = Vec::new();
                for (a, &(u, v)) in self.arcs.iter().enumerate() {
                    if v == r {
                        coeffs.push((var(pos, a), 1.0));
                    }
                    if u == r {
                        coeffs.push((var(pos + 1, a), -1.0));
                    }
                }
                if !coeffs.is_empty() {
                    lp.add_constraint(coeffs, Relation::Eq, 0.0);
                }
            }
        }
        lp
    }

    /// Solves via the ILP path and decodes the arc selection.
    pub fn solve_ilp(&self, max_nodes: usize) -> Option<LatticeSolution> {
        let len = self.positions();
        if len == 0 || self.arcs.is_empty() {
            return None;
        }
        let lp = self.to_ilp();
        let sol = solve_ilp(&lp, max_nodes);
        if sol.status != SolveStatus::Optimal {
            return None;
        }
        let na = self.arcs.len();
        let mut arcs = Vec::with_capacity(len);
        for pos in 0..len {
            let a = (0..na).find(|&a| sol.x[pos * na + a] > 0.5)?;
            arcs.push(a);
        }
        // Verify continuity (guards against a buggy model).
        for w in arcs.windows(2) {
            if self.arcs[w[0]].1 != self.arcs[w[1]].0 {
                return None;
            }
        }
        let mut nodes = Vec::with_capacity(len + 1);
        nodes.push(self.arcs[arcs[0]].0);
        for &a in &arcs {
            nodes.push(self.arcs[a].1);
        }
        Some(LatticeSolution {
            arcs,
            nodes,
            cost: sol.objective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 3 nodes, full arc set, 2 positions.
    fn small() -> LatticeProblem {
        let mut arcs = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                arcs.push((u, v));
            }
        }
        // costs such that path 0 -> 1 -> 2 is cheapest.
        let cost = |pos: usize, u: usize, v: usize| -> f64 {
            let want = [(0, 1), (1, 2)][pos];
            if (u, v) == want {
                0.0
            } else {
                5.0 + u as f64 + v as f64
            }
        };
        let costs: Vec<Vec<f64>> = (0..2)
            .map(|p| arcs.iter().map(|&(u, v)| cost(p, u, v)).collect())
            .collect();
        LatticeProblem {
            num_nodes: 3,
            arcs,
            costs,
        }
    }

    #[test]
    fn viterbi_finds_planted_path() {
        let p = small();
        let s = p.solve_viterbi().unwrap();
        assert_eq!(s.nodes, vec![0, 1, 2]);
        assert_eq!(s.cost, 0.0);
    }

    #[test]
    fn ilp_matches_viterbi_on_planted_path() {
        let p = small();
        let v = p.solve_viterbi().unwrap();
        let i = p.solve_ilp(10_000).unwrap();
        assert_eq!(v.nodes, i.nodes);
        assert!((v.cost - i.cost).abs() < 1e-6);
    }

    #[test]
    fn continuity_is_enforced_even_when_greedy_disagrees() {
        // Greedy per-position choice would pick arcs (0,1) then (2,0) —
        // discontinuous. The solvers must pay for continuity.
        let arcs = vec![(0, 1), (2, 0), (1, 0)];
        let costs = vec![vec![0.0, 10.0, 1.0], vec![10.0, 0.0, 1.0]];
        let p = LatticeProblem {
            num_nodes: 3,
            arcs,
            costs,
        };
        let s = p.solve_viterbi().unwrap();
        for w in s.arcs.windows(2) {
            assert_eq!(p.arcs[w[0]].1, p.arcs[w[1]].0);
        }
        // Best continuous chain: (0,1) then (1,0): 0 + 1 = 1.
        assert_eq!(s.cost, 1.0);
        let i = p.solve_ilp(10_000).unwrap();
        assert_eq!(i.cost, 1.0);
    }

    #[test]
    fn no_chain_returns_none() {
        // Arcs that can never chain across two positions.
        let arcs = vec![(0, 1)];
        let costs = vec![vec![1.0], vec![1.0]];
        let p = LatticeProblem {
            num_nodes: 2,
            arcs,
            costs,
        };
        assert!(p.solve_viterbi().is_none());
        assert!(p.solve_ilp(1000).is_none());
    }

    #[test]
    fn zero_positions_returns_none() {
        let p = LatticeProblem {
            num_nodes: 2,
            arcs: vec![(0, 1)],
            costs: vec![],
        };
        assert!(p.solve_viterbi().is_none());
    }

    #[test]
    fn single_position_picks_min_cost_arc() {
        let arcs = vec![(0, 1), (1, 0), (0, 0)];
        let costs = vec![vec![3.0, 1.0, 2.0]];
        let p = LatticeProblem {
            num_nodes: 2,
            arcs,
            costs,
        };
        let s = p.solve_viterbi().unwrap();
        assert_eq!(s.arcs, vec![1]);
        assert_eq!(s.nodes, vec![1, 0]);
    }

    #[test]
    fn self_loops_allowed() {
        let arcs = vec![(0, 0)];
        let costs = vec![vec![1.0]; 4];
        let p = LatticeProblem {
            num_nodes: 1,
            arcs,
            costs,
        };
        let s = p.solve_viterbi().unwrap();
        assert_eq!(s.nodes, vec![0; 5]);
        assert_eq!(s.cost, 4.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_viterbi_equals_ilp(
            n in 2usize..4,
            len in 1usize..4,
            seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Full arc set keeps the instance feasible.
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    arcs.push((u, v));
                }
            }
            let costs: Vec<Vec<f64>> = (0..len)
                .map(|_| arcs.iter().map(|_| (rng.random_range(0..100) as f64) / 10.0).collect())
                .collect();
            let p = LatticeProblem { num_nodes: n, arcs, costs };
            let v = p.solve_viterbi().unwrap();
            let i = p.solve_ilp(100_000).unwrap();
            prop_assert!((v.cost - i.cost).abs() < 1e-6,
                "viterbi {} vs ilp {}", v.cost, i.cost);
        }

        #[test]
        fn prop_viterbi_path_is_continuous_and_cost_consistent(
            n in 2usize..6,
            len in 1usize..6,
            seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if rng.random::<f64>() < 0.7 {
                        arcs.push((u, v));
                    }
                }
            }
            prop_assume!(!arcs.is_empty());
            let costs: Vec<Vec<f64>> = (0..len)
                .map(|_| arcs.iter().map(|_| rng.random::<f64>() * 10.0).collect())
                .collect();
            let p = LatticeProblem { num_nodes: n, arcs, costs };
            if let Some(s) = p.solve_viterbi() {
                // Continuity.
                for w in s.arcs.windows(2) {
                    prop_assert_eq!(p.arcs[w[0]].1, p.arcs[w[1]].0);
                }
                // Cost consistency.
                let recomputed: f64 = s.arcs.iter().enumerate()
                    .map(|(pos, &a)| p.costs[pos][a]).sum();
                prop_assert!((recomputed - s.cost).abs() < 1e-9);
            }
        }
    }
}
