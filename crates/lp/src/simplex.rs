//! Dense two-phase primal simplex.
//!
//! Design notes:
//! * General variable bounds are handled by shifting (`x = lb + x'`) and by
//!   materializing finite upper bounds as explicit `≤` rows — simple and
//!   robust, at the cost of extra rows. The reconstruction ILPs this crate
//!   exists for have 0/1 variables, so the overhead is one row per variable.
//! * All right-hand sides are normalized non-negative; `≤` rows get slacks,
//!   `≥` rows get a surplus plus an artificial, `=` rows get an artificial.
//! * Phase 1 minimizes the artificial sum; phase 2 the true objective.
//! * Bland's rule guarantees termination (no cycling); an iteration cap is
//!   kept as a belt-and-braces guard.

use crate::problem::{LinearProgram, Relation, Solution, SolveStatus};

const EPS: f64 = 1e-9;
/// Feasibility / integrality tolerance used across the crate.
pub(crate) const TOL: f64 = 1e-7;

/// Solves the LP relaxation of `lp` (integrality flags are ignored).
pub fn solve_lp(lp: &LinearProgram) -> Solution {
    let n = lp.num_vars();
    if n == 0 {
        return Solution {
            status: SolveStatus::Optimal,
            x: Vec::new(),
            objective: 0.0,
        };
    }

    // --- Build rows in shifted space (x' = x - lb >= 0). ---
    struct Row {
        coeffs: Vec<f64>, // dense over structural vars
        relation: Relation,
        rhs: f64,
    }
    let lb = lp.lower_bounds();
    let ub = lp.upper_bounds();
    let mut rows: Vec<Row> = Vec::with_capacity(lp.num_constraints() + n);
    for c in lp.constraints() {
        let mut dense = vec![0.0; n];
        let mut shift = 0.0;
        for &(i, a) in &c.coeffs {
            dense[i] += a;
            shift += a * lb[i];
        }
        rows.push(Row {
            coeffs: dense,
            relation: c.relation,
            rhs: c.rhs - shift,
        });
    }
    // Finite upper bounds become x'_i <= ub_i - lb_i.
    for i in 0..n {
        if ub[i].is_finite() {
            let mut dense = vec![0.0; n];
            dense[i] = 1.0;
            rows.push(Row {
                coeffs: dense,
                relation: Relation::Le,
                rhs: ub[i] - lb[i],
            });
        }
    }
    // Normalize rhs >= 0.
    for r in &mut rows {
        if r.rhs < 0.0 {
            for a in &mut r.coeffs {
                *a = -*a;
            }
            r.rhs = -r.rhs;
            r.relation = match r.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
    }

    let m = rows.len();
    // Column layout: [structural n][slack/surplus s][artificial a][rhs].
    let mut num_slack = 0;
    let mut num_art = 0;
    for r in &rows {
        match r.relation {
            Relation::Le => num_slack += 1,
            Relation::Ge => {
                num_slack += 1;
                num_art += 1;
            }
            Relation::Eq => num_art += 1,
        }
    }
    let total = n + num_slack + num_art;
    let rhs_col = total;
    let mut t = vec![vec![0.0f64; total + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut art_cols: Vec<usize> = Vec::with_capacity(num_art);

    let mut s_idx = n;
    let mut a_idx = n + num_slack;
    for (ri, r) in rows.iter().enumerate() {
        t[ri][..n].copy_from_slice(&r.coeffs);
        t[ri][rhs_col] = r.rhs;
        match r.relation {
            Relation::Le => {
                t[ri][s_idx] = 1.0;
                basis[ri] = s_idx;
                s_idx += 1;
            }
            Relation::Ge => {
                t[ri][s_idx] = -1.0;
                s_idx += 1;
                t[ri][a_idx] = 1.0;
                basis[ri] = a_idx;
                art_cols.push(a_idx);
                a_idx += 1;
            }
            Relation::Eq => {
                t[ri][a_idx] = 1.0;
                basis[ri] = a_idx;
                art_cols.push(a_idx);
                a_idx += 1;
            }
        }
    }

    let max_iters = 50 * (m + total).max(100);

    // --- Phase 1 ---
    if num_art > 0 {
        let mut cost = vec![0.0f64; total];
        for &c in &art_cols {
            cost[c] = 1.0;
        }
        let status = run_simplex(&mut t, &mut basis, &cost, total, rhs_col, max_iters, None);
        if status == InnerStatus::Unbounded {
            // Phase 1 objective is bounded below by 0; treat as failure.
            return Solution::infeasible();
        }
        let obj1: f64 = basis
            .iter()
            .enumerate()
            .filter(|(_, &b)| art_cols.contains(&b))
            .map(|(ri, _)| t[ri][rhs_col])
            .sum();
        if obj1 > 1e-6 {
            return Solution::infeasible();
        }
        // Pivot any artificial still in the basis (at value ~0) out, or drop
        // its row if degenerate with no eligible pivot.
        for ri in 0..m {
            if art_cols.contains(&basis[ri]) {
                let mut pivoted = false;
                for j in 0..n + num_slack {
                    if t[ri][j].abs() > EPS {
                        pivot(&mut t, &mut basis, ri, j, rhs_col);
                        pivoted = true;
                        break;
                    }
                }
                if !pivoted {
                    // Redundant row; zero it so it never constrains phase 2.
                    for v in t[ri].iter_mut() {
                        *v = 0.0;
                    }
                }
            }
        }
    }

    // --- Phase 2 ---
    let mut cost = vec![0.0f64; total];
    cost[..n].copy_from_slice(lp.objective());
    let banned = art_cols;
    let status = run_simplex(
        &mut t,
        &mut basis,
        &cost,
        total,
        rhs_col,
        max_iters,
        Some(&banned),
    );
    if status == InnerStatus::Unbounded {
        return Solution::unbounded();
    }

    // Extract solution, un-shift.
    let mut x = lb.to_vec();
    for ri in 0..m {
        let b = basis[ri];
        if b < n {
            x[b] = lb[b] + t[ri][rhs_col];
        }
    }
    let objective = lp.objective_value(&x);
    Solution {
        status: SolveStatus::Optimal,
        x,
        objective,
    }
}

#[derive(PartialEq)]
enum InnerStatus {
    Optimal,
    Unbounded,
}

/// Runs primal simplex on the tableau with the given cost vector.
/// `banned` columns (artificials in phase 2) are never chosen to enter.
fn run_simplex(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    total: usize,
    rhs_col: usize,
    max_iters: usize,
    banned: Option<&[usize]>,
) -> InnerStatus {
    let m = t.len();
    for iter in 0..max_iters {
        // Reduced costs: r_j = c_j - c_B · B^-1 A_j (computed from tableau).
        // Entering: Bland's rule after a Dantzig warm start (first iterations
        // use most-negative for speed, then Bland for anti-cycling).
        let use_bland = iter > 2 * m + 20;
        let mut enter: Option<usize> = None;
        let mut best = -EPS;
        'cols: for j in 0..total {
            if let Some(b) = banned {
                if b.contains(&j) {
                    continue;
                }
            }
            if basis.contains(&j) {
                continue;
            }
            let mut rj = cost[j];
            for ri in 0..m {
                let cb = cost[basis[ri]];
                if cb != 0.0 {
                    rj -= cb * t[ri][j];
                }
            }
            if rj < -1e-8 {
                if use_bland {
                    enter = Some(j);
                    break 'cols;
                }
                if rj < best {
                    best = rj;
                    enter = Some(j);
                }
            }
        }
        let Some(j) = enter else {
            return InnerStatus::Optimal;
        };
        // Ratio test (Bland tie-break on basis index).
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for ri in 0..m {
            let a = t[ri][j];
            if a > EPS {
                let ratio = t[ri][rhs_col] / a;
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leave.is_none_or(|l| basis[ri] < basis[l]))
                {
                    best_ratio = ratio;
                    leave = Some(ri);
                }
            }
        }
        let Some(ri) = leave else {
            return InnerStatus::Unbounded;
        };
        pivot(t, basis, ri, j, rhs_col);
    }
    // Iteration cap reached — with Bland's rule this is effectively
    // unreachable; report optimal-so-far rather than looping forever.
    InnerStatus::Optimal
}

/// Gauss-Jordan pivot on (row, col).
fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, rhs_col: usize) {
    let m = t.len();
    let p = t[row][col];
    debug_assert!(p.abs() > EPS, "pivot on ~zero element");
    for v in t[row].iter_mut() {
        *v /= p;
    }
    for ri in 0..m {
        if ri == row {
            continue;
        }
        let f = t[ri][col];
        if f.abs() > EPS {
            for j in 0..=rhs_col {
                t[ri][j] -= f * t[row][j];
            }
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, Relation, SolveStatus};

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn trivial_empty_problem() {
        let lp = LinearProgram::new();
        let s = solve_lp(&lp);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn textbook_maximization_as_min() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  => x=2, y=6, obj=36.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-3.0, 0.0, f64::INFINITY);
        let y = lp.add_var(-5.0, 0.0, f64::INFINITY);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = solve_lp(&lp);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_near(s.objective, -36.0);
        assert_near(s.x[x], 2.0);
        assert_near(s.x[y], 6.0);
    }

    #[test]
    fn equality_constraints_need_phase_one() {
        // min x + 2y s.t. x + y = 3, x - y = 1  => x=2, y=1, obj=4.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        let y = lp.add_var(2.0, 0.0, f64::INFINITY);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = solve_lp(&lp);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_near(s.x[x], 2.0);
        assert_near(s.x[y], 1.0);
        assert_near(s.objective, 4.0);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 => x=4,y=0 obj=8? cost x cheaper:
        // 2*4=8 vs x=1,y=3: 2+9=11. So x=4.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(2.0, 0.0, f64::INFINITY);
        let y = lp.add_var(3.0, 0.0, f64::INFINITY);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 1.0);
        let s = solve_lp(&lp);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_near(s.objective, 8.0);
        assert_near(s.x[x], 4.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve_lp(&lp).status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0, 0.0, f64::INFINITY);
        lp.add_constraint(vec![(x, -1.0)], Relation::Le, 0.0);
        assert_eq!(solve_lp(&lp).status, SolveStatus::Unbounded);
    }

    #[test]
    fn variable_bounds_respected() {
        // min -x with 0 <= x <= 7.5
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0, 0.0, 7.5);
        let s = solve_lp(&lp);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_near(s.x[x], 7.5);
    }

    #[test]
    fn nonzero_lower_bounds_shift_correctly() {
        // min x + y with x >= 2, y >= 3, x + y >= 6 -> obj 6 (e.g. x=3,y=3 or x=2,y=4).
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 2.0, f64::INFINITY);
        let y = lp.add_var(1.0, 3.0, f64::INFINITY);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 6.0);
        let s = solve_lp(&lp);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_near(s.objective, 6.0);
        assert!(s.x[x] >= 2.0 - 1e-9 && s.x[y] >= 3.0 - 1e-9);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y <= -1 with x,y in [0,5], min x+y -> x=0, y=1.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 5.0);
        let y = lp.add_var(1.0, 0.0, 5.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, -1.0);
        let s = solve_lp(&lp);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_near(s.x[y], 1.0);
        assert_near(s.objective, 1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate vertex: multiple constraints through origin.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-0.75, 0.0, f64::INFINITY);
        let y = lp.add_var(150.0, 0.0, f64::INFINITY);
        let z = lp.add_var(-0.02, 0.0, f64::INFINITY);
        let w = lp.add_var(6.0, 0.0, f64::INFINITY);
        // Beale's cycling example.
        lp.add_constraint(
            vec![(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(vec![(z, 1.0)], Relation::Le, 1.0);
        let s = solve_lp(&lp);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_near(s.objective, -0.05);
    }

    #[test]
    fn solution_is_feasible_for_random_like_instance() {
        let mut lp = LinearProgram::new();
        let v: Vec<usize> = (0..6)
            .map(|i| lp.add_var((i as f64) - 2.5, 0.0, 3.0))
            .collect();
        lp.add_constraint(v.iter().map(|&i| (i, 1.0)).collect(), Relation::Eq, 6.0);
        lp.add_constraint(vec![(v[0], 1.0), (v[5], 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(vec![(v[1], 2.0), (v[2], -1.0)], Relation::Le, 2.0);
        let s = solve_lp(&lp);
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(lp.is_feasible(&s.x, 1e-6), "x = {:?}", s.x);
    }
}
