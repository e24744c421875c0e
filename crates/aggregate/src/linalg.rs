//! The estimation subsystem's linear-algebra kernel layer.
//!
//! Everything the IBU estimators do per iteration is one of four shapes,
//! and this module owns all of them so [`crate::estimate`] can stay pure
//! orchestration. Every kernel runs on the calling thread:
//!
//! * the dense register-tiled matmul (`matmul`, for `Dense`), with
//!   per-element accumulation in ascending-`k` order so it reproduces
//!   the naive triple loop **bit for bit** (tiles partition output
//!   elements; they never re-associate a sum),
//! * sparse-times-dense products over an explicit sparsity pattern
//!   (`spmm`, `gather_nt`) — `O(nnz·n)` instead of `O(n³)`,
//! * pattern-restricted products (`restricted_nt`) that evaluate
//!   `A·Bᵀ` *only* at the cells of a [`CsrPattern`] — the kernel that
//!   makes `W₂`-aware joint IBU `O(|W₂|·|R|)` per iteration,
//! * the one-off feasibility normalizer `Z(x, x′)`
//!   (`w2_normalizers`).
//!
//! [`CsrPattern`] is the compressed-sparse-row face of
//! `RegionGraph::successor_csr` (LDPTrace's observation: real `W₂` sets
//! are sparse, so the estimator should never touch an infeasible cell),
//! but it can be built from any adjacency — the tests construct banded
//! patterns without building a dataset.

use trajshare_core::RegionGraph;

/// An `n×n` sparsity pattern in compressed-sparse-row form: row `i`'s
/// column indices are `cols[row_ptr[i]..row_ptr[i + 1]]`. Cell values
/// live outside the pattern as parallel `nnz`-length slices, so one
/// pattern can back any number of value vectors (estimate, observation,
/// normalizer, …) without re-allocating structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrPattern {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
}

impl CsrPattern {
    /// A pattern from raw CSR arrays (the `RegionGraph::successor_csr`
    /// shape). Validates structure: monotone `row_ptr` bracketing `cols`,
    /// and every column index inside the universe.
    pub fn new(n: usize, row_ptr: Vec<usize>, cols: Vec<u32>) -> Self {
        assert_eq!(row_ptr.len(), n + 1, "row_ptr must have n + 1 entries");
        assert_eq!(row_ptr.first(), Some(&0));
        assert_eq!(row_ptr.last(), Some(&cols.len()));
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr monotone");
        assert!(
            cols.iter().all(|&c| (c as usize) < n),
            "column index out of range"
        );
        CsrPattern { n, row_ptr, cols }
    }

    /// A pattern from per-row adjacency lists.
    pub fn from_rows(rows: &[Vec<u32>]) -> Self {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut cols = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        row_ptr.push(0);
        for r in rows {
            cols.extend_from_slice(r);
            row_ptr.push(cols.len());
        }
        Self::new(rows.len(), row_ptr, cols)
    }

    /// The `W₂` pattern of a region graph (rows = tails, columns =
    /// feasible heads).
    pub fn from_graph(graph: &RegionGraph) -> Self {
        let (row_ptr, cols) = graph.successor_csr();
        Self::new(graph.num_regions(), row_ptr, cols)
    }

    /// The complete `n×n` pattern (every cell feasible) — with it the
    /// sparse backend degenerates to the dense model, which is what the
    /// backend-equivalence tests exploit.
    pub fn full(n: usize) -> Self {
        let row_ptr = (0..=n).map(|i| i * n).collect();
        let cols = (0..n).flat_map(|_| 0..n as u32).collect();
        CsrPattern { n, row_ptr, cols }
    }

    /// Universe size `n` (the pattern is square).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of cells in the pattern.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// The `nnz`-index range of row `i`.
    #[inline]
    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i]..self.row_ptr[i + 1]
    }

    /// Whether cell `(i, j)` belongs to the pattern.
    pub fn contains(&self, i: usize, j: u32) -> bool {
        self.row(i).contains(&j)
    }

    /// Scatters `nnz`-indexed `vals` into a dense row-major `n×n` buffer;
    /// cells outside the pattern are written **exactly** `0.0` (the
    /// "zero mass on infeasible bigrams" guarantee is this line, not a
    /// tolerance).
    pub fn scatter(&self, vals: &[f64], out: &mut [f64]) {
        assert_eq!(vals.len(), self.nnz());
        assert_eq!(out.len(), self.n * self.n);
        out.fill(0.0);
        for i in 0..self.n {
            let row = &mut out[i * self.n..(i + 1) * self.n];
            for k in self.range(i) {
                row[self.cols[k] as usize] = vals[k];
            }
        }
    }

    /// Gathers a dense row-major `n×n` buffer down to the pattern's
    /// `nnz`-indexed values (the warm-start projection: a posterior from
    /// any backend is dense; the sparse backend keeps only its feasible
    /// cells).
    pub fn gather(&self, dense: &[f64], out: &mut Vec<f64>) {
        assert_eq!(dense.len(), self.n * self.n);
        out.clear();
        out.reserve(self.nnz());
        for i in 0..self.n {
            let row = &dense[i * self.n..(i + 1) * self.n];
            for k in self.range(i) {
                out.push(row[self.cols[k] as usize]);
            }
        }
    }
}

/// Writes `Aᵀ` into `out` (row-major `n×n`). The estimators transpose
/// the channel once per solve so every later kernel reads contiguous
/// rows instead of strided columns.
pub(crate) fn transpose(a: &[f64], n: usize, out: &mut [f64]) {
    assert_eq!(a.len(), n * n);
    assert_eq!(out.len(), n * n);
    for (x, row) in out.chunks_exact_mut(n).enumerate() {
        for (y, v) in row.iter_mut().enumerate() {
            *v = a[y * n + x];
        }
    }
}

/// Output rows × columns one [`matmul`] tile keeps in registers: 16
/// sums in 8 of the 16 SSE2 registers of the x86-64 baseline, which
/// leaves room for the `B` row and the broadcast `A` entries (a 4×8
/// tile spills sums to the stack).
const TILE_ROWS: usize = 2;
const TILE_COLS: usize = 8;

/// `out = A·B` (row-major `n×n`), serial: the `Dense` backend's one
/// product kernel.
///
/// Every output element starts from `+0.0` and adds `a[i][k]·b[k][j]`
/// for `k` ascending — a separate multiply and add, never a fused one —
/// so each element is the exact IEEE sequence of the naive triple loop.
/// Speed comes from keeping a `TILE_ROWS × TILE_COLS` block of
/// independent sums in registers and vectorising across output
/// elements, never inside one element's sum. Rows and columns past the
/// last full tile run the plain loop, in the same order.
///
/// Bit identity with the skip-zero loop (`if a[i][k] == 0 { continue }`)
/// holds on the domain the IBU solver stays in: every operand finite and
/// non-negative (channel probabilities, floored iterates, guarded
/// `obs/denom` ratios). There a zero multiplier adds `+0.0` to a sum
/// that is `+0.0` or positive, which leaves every bit as it was; so the
/// kernel does not branch on zeros.
pub(crate) fn matmul(a: &[f64], b: &[f64], n: usize, out: &mut [f64]) {
    matmul_rows(a, b, n, 0, out);
}

/// The kernel behind [`matmul`]: writes rows `first..first + out.len() / n`
/// of `A·B` into `out`.
fn matmul_rows(a: &[f64], b: &[f64], n: usize, first: usize, out: &mut [f64]) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    assert!(out.len().is_multiple_of(n) && first * n + out.len() <= n * n);
    let full_cols = n - n % TILE_COLS;
    for (t, tile_rows) in out.chunks_mut(TILE_ROWS * n).enumerate() {
        let i0 = first + t * TILE_ROWS;
        let rows = tile_rows.len() / n;
        if rows == TILE_ROWS {
            let arows: [&[f64]; TILE_ROWS] = std::array::from_fn(|r| &a[(i0 + r) * n..][..n]);
            for j0 in (0..full_cols).step_by(TILE_COLS) {
                let mut acc = [[0.0f64; TILE_COLS]; TILE_ROWS];
                for (k, brow) in b.chunks_exact(n).enumerate() {
                    let bk = &brow[j0..j0 + TILE_COLS];
                    for r in 0..TILE_ROWS {
                        let aik = arows[r][k];
                        for c in 0..TILE_COLS {
                            acc[r][c] += aik * bk[c];
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    tile_rows[r * n + j0..][..TILE_COLS].copy_from_slice(acc_r);
                }
            }
        }
        // The plain loop: remainder columns of a full tile, every column
        // of a short one.
        let from = if rows == TILE_ROWS { full_cols } else { 0 };
        for r in 0..rows {
            let arow = &a[(i0 + r) * n..(i0 + r + 1) * n];
            for j in from..n {
                let mut s = 0.0;
                for (k, &av) in arow.iter().enumerate() {
                    s += av * b[k * n + j];
                }
                tile_rows[r * n + j] = s;
            }
        }
    }
}

/// Output rows one [`spmm`] step updates together.
const SPMM_ROWS: usize = 4;

/// `out = M·G` where `G` is `pattern` carrying `vals` — dense `n×n`
/// output, `O(nnz·n)` work. Every element starts from `+0.0` and adds
/// `M[y][x]·G[x][j]` for `x` ascending, matching what a dense matmul
/// against the scattered `G` would do. Rows run `SPMM_ROWS` at a time,
/// so each pattern entry is loaded once per block, not once per row.
/// Like [`matmul`], it does not skip a zero `M[y][x]`: on the solver's
/// finite, non-negative operands adding `+0.0` leaves every bit as it was.
pub(crate) fn spmm(m: &[f64], pattern: &CsrPattern, vals: &[f64], out: &mut [f64]) {
    let n = pattern.len();
    assert_eq!(m.len(), n * n);
    assert_eq!(vals.len(), pattern.nnz());
    assert_eq!(out.len(), n * n);
    out.fill(0.0);
    let mut rows = out.chunks_exact_mut(SPMM_ROWS * n);
    let mut mrows = m.chunks_exact(SPMM_ROWS * n);
    for (o, a) in (&mut rows).zip(&mut mrows) {
        axpys::<SPMM_ROWS>(a, pattern, vals, o);
    }
    let rest = rows.into_remainder().chunks_exact_mut(n);
    for (o, a) in rest.zip(mrows.remainder().chunks_exact(n)) {
        axpys::<1>(a, pattern, vals, o);
    }
}

/// `R` rows of [`spmm`]: `out[r][j] += a[r][x]·G[x][j]` over `x`
/// ascending and `G`'s row-`x` entries, for all `R` rows per entry.
fn axpys<const R: usize>(a: &[f64], pattern: &CsrPattern, vals: &[f64], out: &mut [f64]) {
    let n = pattern.len();
    for x in 0..n {
        let c: [f64; R] = std::array::from_fn(|r| a[r * n + x]);
        let range = pattern.range(x);
        for (&j, &v) in pattern.cols[range.clone()].iter().zip(&vals[range]) {
            for r in 0..R {
                out[r * n + j as usize] += c[r] * v;
            }
        }
    }
}

/// `out[i][j] = Σ_{j′ ∈ pattern.row(j)} a[i][j′]` — `A·Pᵀ` for the 0/1
/// pattern matrix, `O(nnz·n)`. The building block of the `W₂`
/// normalizer.
pub(crate) fn gather_nt(a: &[f64], pattern: &CsrPattern, out: &mut [f64]) {
    let n = pattern.len();
    assert_eq!(a.len(), n * n);
    assert_eq!(out.len(), n * n);
    for (row, arow) in out.chunks_exact_mut(n).zip(a.chunks_exact(n)) {
        for (j, o) in row.iter_mut().enumerate() {
            let mut s = 0.0;
            for k in pattern.range(j) {
                s += arow[pattern.cols[k] as usize];
            }
            *o = s;
        }
    }
}

/// Pattern cells of one row that [`restricted_nt`] evaluates together.
const NT_CELLS: usize = 4;

/// The pattern-restricted `A·Bᵀ`: for every pattern cell `(i, j)`,
/// `out[k] = dot(a_row_i, b_row_j)`. This is the `O(|W₂|·|R|)` kernel —
/// it never evaluates a cell outside the pattern. A row's cells run
/// `NT_CELLS` at a time (see [`dots`]); the rest one by one.
pub(crate) fn restricted_nt(a: &[f64], b: &[f64], pattern: &CsrPattern, out: &mut [f64]) {
    let n = pattern.len();
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    assert_eq!(out.len(), pattern.nnz());
    for (i, arow) in a.chunks_exact(n).enumerate() {
        let mut heads = pattern.row(i).chunks_exact(NT_CELLS);
        let mut slots = out[pattern.range(i)].chunks_exact_mut(NT_CELLS);
        for (h, s) in (&mut heads).zip(&mut slots) {
            dots::<NT_CELLS>(arow, b, h, s);
        }
        let rest = heads.remainder().chunks(1);
        for (h, s) in rest.zip(slots.into_remainder().chunks_mut(1)) {
            dots::<1>(arow, b, h, s);
        }
    }
}

/// `slots[c] = dot(arow, b_row(heads[c]))` for `C` cells: `C`
/// independent sums, each from `+0.0` over `k` ascending — the plain dot
/// product's exact IEEE sequence, but no add waits on another cell's.
fn dots<const C: usize>(arow: &[f64], b: &[f64], heads: &[u32], slots: &mut [f64]) {
    let n = arow.len();
    let brows: [&[f64]; C] = std::array::from_fn(|c| &b[heads[c] as usize * n..][..n]);
    let mut acc = [0.0f64; C];
    for (k, &av) in arow.iter().enumerate() {
        for c in 0..C {
            acc[c] += av * brows[c][k];
        }
    }
    slots.copy_from_slice(&acc);
}

/// The feasibility normalizers of the `W₂`-restricted product channel:
/// `z[k] = Z(x, x′) = Σ_{(y,y′) ∈ W₂} M[y|x]·M[y′|x′]` for every pattern
/// cell `k = (x, x′)`. `mt` is the channel transpose (`mt[x][y] =
/// M[y|x]`), `ct` an `n²` scratch. `O(nnz·n)` — computed once per solve,
/// not per iteration. With the full pattern every `Z` is 1 (column
/// stochasticity), which is exactly why the dense model is the
/// full-product special case.
pub(crate) fn w2_normalizers(mt: &[f64], pattern: &CsrPattern, ct: &mut [f64], z: &mut [f64]) {
    // ct[x′][y] = Σ_{y′ ∈ succ(y)} M[y′|x′]
    gather_nt(mt, pattern, ct);
    // z[(x, x′)] = Σ_y M[y|x] · ct[x′][y]
    restricted_nt(mt, ct, pattern, z);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n * n).map(|_| rng.random::<f64>()).collect()
    }

    /// The naive loops the kernels must match bit for bit.
    fn naive_matmul(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += aik * b[k * n + j];
                }
            }
        }
        out
    }

    fn naive_nt(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += a[i * n + k] * b[j * n + k];
                }
                out[i * n + j] = s;
            }
        }
        out
    }

    /// A banded pattern with wraparound.
    fn band_pattern(n: usize, width: u32) -> CsrPattern {
        let rows: Vec<Vec<u32>> = (0..n as u32)
            .map(|i| (0..=width).map(|d| (i + d) % n as u32).collect())
            .collect();
        CsrPattern::from_rows(&rows)
    }

    #[test]
    fn matmul_kernels_match_serial_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1usize, 2, 7, 33] {
            let a = random_matrix(n, &mut rng);
            let b = random_matrix(n, &mut rng);
            let mut out = vec![1.0; n * n];
            matmul(&a, &b, n, &mut out);
            assert_eq!(out, naive_matmul(&a, &b, n), "matmul n={n}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(19))]
        /// The tiled kernel equals the naive skip-zero triple loop bit for
        /// bit at every size through 19 (every tile remainder), on
        /// non-negative operands with exact zeros.
        #[test]
        fn tiled_matmul_is_bit_identical_to_the_naive_loop(
            n in 1usize..=19,
            seed in 0u64..1000,
            zero_every in 2usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut operand = || -> Vec<f64> {
                (0..n * n)
                    .map(|i| if i % zero_every == 0 { 0.0 } else { rng.random::<f64>() })
                    .collect()
            };
            let (a, b) = (operand(), operand());
            let want = bits(&naive_matmul(&a, &b, n));
            let mut out = vec![f64::NAN; n * n];
            matmul(&a, &b, n, &mut out);
            prop_assert_eq!(bits(&out), want, "matmul n={}", n);
        }
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 13;
        let a = random_matrix(n, &mut rng);
        let mut t = vec![0.0; n * n];
        let mut back = vec![0.0; n * n];
        transpose(&a, n, &mut t);
        transpose(&t, n, &mut back);
        assert_eq!(a, back);
        assert_eq!(t[3 * n + 7], a[7 * n + 3]);
    }

    #[test]
    fn pattern_structure_and_scatter_gather() {
        let p = band_pattern(6, 2);
        assert_eq!(p.len(), 6);
        assert_eq!(p.nnz(), 18);
        assert!(p.contains(0, 2) && !p.contains(0, 3));
        assert_eq!(p.row(5), &[5, 0, 1]);
        let vals: Vec<f64> = (0..p.nnz()).map(|k| k as f64 + 1.0).collect();
        let mut dense = vec![f64::NAN; 36];
        p.scatter(&vals, &mut dense);
        for i in 0..6 {
            for j in 0..6u32 {
                if !p.contains(i, j) {
                    assert_eq!(dense[i * 6 + j as usize], 0.0, "exact zeros outside");
                }
            }
        }
        let mut back = Vec::new();
        p.gather(&dense, &mut back);
        assert_eq!(back, vals);

        let full = CsrPattern::full(4);
        assert_eq!(full.nnz(), 16);
        assert!((0..4).all(|i| (0..4u32).all(|j| full.contains(i, j))));
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn pattern_rejects_out_of_range_columns() {
        CsrPattern::from_rows(&[vec![0, 2]]);
    }

    #[test]
    fn spmm_matches_dense_matmul_of_scattered_operand() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 19;
        let p = band_pattern(n, 4);
        let m = random_matrix(n, &mut rng);
        let vals: Vec<f64> = (0..p.nnz()).map(|_| rng.random::<f64>()).collect();
        let mut g = vec![0.0; n * n];
        p.scatter(&vals, &mut g);
        let mut sparse = vec![0.0; n * n];
        spmm(&m, &p, &vals, &mut sparse);
        let dense = naive_matmul(&m, &g, n);
        for (s, d) in sparse.iter().zip(&dense) {
            assert!((s - d).abs() < 1e-12, "{s} vs {d}");
        }
    }

    #[test]
    fn restricted_nt_matches_dense_at_pattern_cells() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 17;
        let a = random_matrix(n, &mut rng);
        let b = random_matrix(n, &mut rng);
        let dense = naive_nt(&a, &b, n);
        // 4 and 6 cells a row: whole `NT_CELLS` groups, and a remainder.
        for width in [3, 5] {
            let p = band_pattern(n, width);
            let mut vals = vec![0.0; p.nnz()];
            restricted_nt(&a, &b, &p, &mut vals);
            for i in 0..n {
                for (k, &j) in p.range(i).zip(p.row(i)) {
                    assert_eq!(vals[k], dense[i * n + j as usize], "cell ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn gather_nt_matches_dense_definition() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 11;
        let p = band_pattern(n, 2);
        let a = random_matrix(n, &mut rng);
        let mut out = vec![0.0; n * n];
        gather_nt(&a, &p, &mut out);
        for i in 0..n {
            for j in 0..n {
                let expect: f64 = p.row(j).iter().map(|&c| a[i * n + c as usize]).sum();
                assert!((out[i * n + j] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn full_pattern_normalizers_are_one_for_stochastic_columns() {
        // Column-stochastic M ⇒ Z(x, x′) over the full product is 1·1.
        let mut rng = StdRng::seed_from_u64(10);
        let n = 9;
        let mut m = vec![0.0; n * n];
        for x in 0..n {
            let col: Vec<f64> = (0..n).map(|_| rng.random::<f64>() + 0.01).collect();
            let s: f64 = col.iter().sum();
            for y in 0..n {
                m[y * n + x] = col[y] / s;
            }
        }
        let mut mt = vec![0.0; n * n];
        transpose(&m, n, &mut mt);
        let full = CsrPattern::full(n);
        let mut ct = vec![0.0; n * n];
        let mut z = vec![0.0; full.nnz()];
        w2_normalizers(&mt, &full, &mut ct, &mut z);
        assert!(z.iter().all(|&v| (v - 1.0).abs() < 1e-12), "{z:?}");

        // And a brute-force check on a genuinely sparse pattern.
        let p = band_pattern(n, 2);
        let mut zp = vec![0.0; p.nnz()];
        w2_normalizers(&mt, &p, &mut ct, &mut zp);
        for x in 0..n {
            for (k, &xp) in p.range(x).zip(p.row(x)) {
                let mut expect = 0.0;
                for y in 0..n {
                    for &yp in p.row(y) {
                        expect += m[y * n + x] * m[yp as usize * n + xp as usize];
                    }
                }
                assert!((zp[k] - expect).abs() < 1e-12, "Z({x},{xp})");
            }
        }
    }
}
