//! Unbiased frequency estimation: inverting the Exponential-Mechanism
//! randomization.
//!
//! The 1-gram EM over the region universe is a fixed randomization channel
//! `M` with `M[y][x] = P(output = y | truth = x)` — column `x` is exactly
//! the EM's output distribution for truth `x`, which we compute with the
//! mech crate's exact probability tables
//! ([`trajshare_mech::ExponentialMechanism::probabilities`]). With observed
//! counts `c` over `n` reports, `E[c/n] = M f` for the true population
//! frequency vector `f`, so `f̂ = M⁻¹ c / n` is **unbiased**:
//! `E[f̂] = M⁻¹ M f = f`.
//!
//! Transition counts are debiased the same way on both sides:
//! `F̂ = M⁻¹ C (M⁻¹)ᵀ / n` — the Kronecker-structured ("Hadamard-style")
//! inverse of the product channel, exact when the bigram candidate set is
//! the full product `R × R` and a documented approximation when `W₂`
//! pruning skews the per-truth normalizers.
//!
//! `f̂` is unbiased but can be negative; [`norm_sub`] applies the standard
//! norm-sub post-processing (clip negatives, subtract the surplus uniformly
//! from the survivors) to restore a frequency vector without re-biasing
//! the large entries.

use crate::linalg::{matmul, restricted_nt, spmm, transpose, w2_normalizers, CsrPattern};
use trajshare_core::{RegionGraph, RegionId};
use trajshare_mech::ExponentialMechanism;

/// The randomization channel of the 1-gram EM over `|R|` regions,
/// row-major `m[y * n + x] = P(y | x)`.
#[derive(Debug, Clone)]
pub struct EmChannel {
    n: usize,
    m: Vec<f64>,
}

impl EmChannel {
    /// Builds the unigram channel for per-draw budget `eps` from the
    /// region graph's distance matrix (reusing the EM probability tables).
    pub fn unigram(graph: &RegionGraph, eps: f64) -> Self {
        let n = graph.num_regions();
        assert!(n > 0, "empty region universe");
        let em = ExponentialMechanism::new(eps, graph.distance.ngram_sensitivity(1));
        let mut m = vec![0.0; n * n];
        for x in 0..n {
            let qualities: Vec<f64> = (0..n)
                .map(|y| -graph.distance.get(RegionId(x as u32), RegionId(y as u32)))
                .collect();
            let col = em.probabilities(&qualities);
            for (y, p) in col.into_iter().enumerate() {
                m[y * n + x] = p;
            }
        }
        EmChannel { n, m }
    }

    /// A channel from an explicit column-stochastic matrix (tests and
    /// non-EM mechanisms). `columns[x][y] = P(y | x)`.
    pub fn from_columns(columns: &[Vec<f64>]) -> Self {
        let n = columns.len();
        assert!(n > 0 && columns.iter().all(|c| c.len() == n));
        let mut m = vec![0.0; n * n];
        for (x, col) in columns.iter().enumerate() {
            for (y, &p) in col.iter().enumerate() {
                m[y * n + x] = p;
            }
        }
        EmChannel { n, m }
    }

    /// Universe size `|R|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the channel is empty (never after construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `P(output = y | truth = x)`.
    #[inline]
    pub fn get(&self, y: usize, x: usize) -> f64 {
        self.m[y * self.n + x]
    }

    /// Inverts the channel (Gauss–Jordan with partial pivoting). Returns
    /// `None` when the channel is numerically singular — which happens for
    /// ε so small that all columns collapse toward uniform.
    pub fn inverse(&self) -> Option<ChannelInverse> {
        let n = self.n;
        let mut a = self.m.clone();
        let mut inv = vec![0.0; n * n];
        for i in 0..n {
            inv[i * n + i] = 1.0;
        }
        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > best {
                    best = v;
                    pivot = row;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot * n + k);
                    inv.swap(col * n + k, pivot * n + k);
                }
            }
            let d = a[col * n + col];
            for k in 0..n {
                a[col * n + k] /= d;
                inv[col * n + k] /= d;
            }
            for row in 0..n {
                if row == col {
                    continue;
                }
                let factor = a[row * n + col];
                if factor == 0.0 {
                    continue;
                }
                for k in 0..n {
                    a[row * n + k] -= factor * a[col * n + k];
                    inv[row * n + k] -= factor * inv[col * n + k];
                }
            }
        }
        Some(ChannelInverse { n, inv })
    }
}

/// `M⁻¹`, ready to debias observed counts.
#[derive(Debug, Clone)]
pub struct ChannelInverse {
    n: usize,
    inv: Vec<f64>,
}

impl ChannelInverse {
    /// Universe size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the inverse is empty (never after construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Unbiased frequency estimate `f̂ = M⁻¹ c / Σc`. May contain negative
    /// entries; post-process with [`norm_sub`] before sampling from it.
    pub fn debias_frequencies(&self, counts: &[u64]) -> Vec<f64> {
        assert_eq!(counts.len(), self.n);
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; self.n];
        }
        let obs: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
        (0..self.n)
            .map(|x| (0..self.n).map(|y| self.inv[x * self.n + y] * obs[y]).sum())
            .collect()
    }

    /// Unbiased joint-transition estimate `F̂ = M⁻¹ C (M⁻¹)ᵀ / ΣC` for a
    /// row-major `|R|×|R|` count matrix.
    pub fn debias_matrix(&self, counts: &[u64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(counts.len(), n * n);
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; n * n];
        }
        let c: Vec<f64> = counts.iter().map(|&v| v as f64 / total as f64).collect();
        // tmp = M⁻¹ C
        let mut tmp = vec![0.0; n * n];
        for x in 0..n {
            for y in 0..n {
                let a = self.inv[x * n + y];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    tmp[x * n + j] += a * c[y * n + j];
                }
            }
        }
        // out = tmp (M⁻¹)ᵀ, i.e. out[x][x'] = Σ_j tmp[x][j] inv[x'][j]
        let mut out = vec![0.0; n * n];
        for x in 0..n {
            for xp in 0..n {
                let mut s = 0.0;
                for j in 0..n {
                    s += tmp[x * n + j] * self.inv[xp * n + j];
                }
                out[x * n + xp] = s;
            }
        }
        out
    }
}

/// Which kernel implementation the IBU estimators run on. One flag flips
/// the whole estimate → markov → stream → service chain (see
/// [`IbuSolver`], `MobilityModel::estimate_with`, `StreamingEstimator`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorBackend {
    /// The separable product-channel model on one serial,
    /// register-tiled matmul kernel ([`crate::linalg`]), which starts no
    /// thread. Bit-for-bit the historical results — the baseline every
    /// other backend is validated against. `4·|R|³` multiply-adds per
    /// joint iteration: a 600-iteration cold solve at |R| = 144 takes
    /// ~2 s (1.4–2.2 s) on one core of a shared 2-vCPU Xeon, SSE2 build.
    #[default]
    Dense,
    /// The `W₂`-aware sparse model: the joint channel is the product
    /// channel *restricted to feasible bigrams and renormalized* by
    /// `Z(x, x′) = Σ_{(y,y′)∈W₂} M[y|x]·M[y′|x′]` — the importance
    /// reweighting that closes the separable-channel approximation the
    /// dense model documents. Joint iterations touch only `W₂` cells:
    /// `O(|W₂|·|R|)` instead of `O(|R|³)`, and the estimate carries
    /// **exactly zero** mass on infeasible bigrams by construction
    /// (no post-hoc masking). Unigram estimation (no bigram structure)
    /// runs the same serial loop as `Dense`. Its kernels run on the
    /// calling thread too.
    SparseW2,
}

impl EstimatorBackend {
    /// All backends, for sweeps.
    pub const ALL: [EstimatorBackend; 2] = [EstimatorBackend::Dense, EstimatorBackend::SparseW2];

    /// CLI name (`dense` / `sparse-w2`).
    pub fn name(self) -> &'static str {
        match self {
            EstimatorBackend::Dense => "dense",
            EstimatorBackend::SparseW2 => "sparse-w2",
        }
    }

    /// Parses a CLI name (accepts `sparse` for `sparse-w2`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dense" => Some(EstimatorBackend::Dense),
            "sparse-w2" | "sparse_w2" | "sparse" => Some(EstimatorBackend::SparseW2),
            _ => None,
        }
    }
}

impl std::fmt::Display for EstimatorBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reused kernel workspace. Every matrix-sized buffer the IBU
/// iterations need lives here once, sized lazily — iterations (and,
/// when the solver is owned by a streaming estimator, whole ticks)
/// allocate no `n²` memory.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Channel transpose `mt[x·n + y] = M[y|x]` (every joint solve).
    mt: Vec<f64>,
    /// `M·F` (dense joint) or `M·G` (sparse joint), `n²`.
    mf: Vec<f64>,
    /// Expected observation distribution (dense joint), `n²`.
    denom_m: Vec<f64>,
    /// `obs / denom` (dense joint), `n²`.
    ratio_m: Vec<f64>,
    /// `Mᵀ·ratio` (dense joint) or `Mᵀ·R` (sparse), `n²`.
    mt_ratio: Vec<f64>,
    /// Back-projection `B` (dense joint), `n²`.
    backproj: Vec<f64>,
    /// Normalized observations (`n` or `n²`).
    obs: Vec<f64>,
    /// Unigram expected-observation vector, `n`.
    denom_v: Vec<f64>,
    /// Unigram next iterate, `n`.
    next: Vec<f64>,
    /// Sparse-path `nnz`-indexed values.
    sv_obs: Vec<f64>,
    sv_g: Vec<f64>,
    sv_z: Vec<f64>,
    sv_denom: Vec<f64>,
    sv_ratio: Vec<f64>,
    sv_b: Vec<f64>,
    /// Warm-start projection onto the pattern, `nnz`.
    sv_init: Vec<f64>,
}

/// Sizes `buf` to `len` zeros unless it already has exactly that length
/// (stale content is fine — every user either assigns or zero-fills).
fn ensure(buf: &mut Vec<f64>, len: usize) {
    if buf.len() != len {
        buf.clear();
        buf.resize(len, 0.0);
    }
}

/// The IBU estimation engine: a chosen [`EstimatorBackend`] plus the
/// reused scratch space its kernels run in. One solver serves any number
/// of estimates (a `MobilityModel` fit runs four; a streaming estimator
/// keeps one across every tick) without re-allocating per iteration —
/// the `vec![0.0; n·n] × 4` per joint iteration the dense reference used
/// to burn is gone for all backends, including `Dense` itself.
#[derive(Debug, Clone, Default)]
pub struct IbuSolver {
    backend: EstimatorBackend,
    scratch: Scratch,
}

impl IbuSolver {
    /// A solver running on `backend`.
    pub fn new(backend: EstimatorBackend) -> Self {
        IbuSolver {
            backend,
            scratch: Scratch::default(),
        }
    }

    /// The backend this solver dispatches to.
    #[inline]
    pub fn backend(&self) -> EstimatorBackend {
        self.backend
    }

    /// Unigram Iterative Bayesian Update (Kairouz et al.): the
    /// EM-algorithm fixed point of the observation likelihood, i.e. the
    /// maximum-likelihood frequency estimate under channel `M`.
    /// Non-negative by construction and far lower-variance than plain
    /// inversion when the channel is nearly uniform (large universes /
    /// small ε), at the cost of the small-sample bias any MLE has. The
    /// mobility model estimates with IBU; [`ChannelInverse`] is the
    /// unbiased reference the tests check.
    ///
    /// `init` is the warm start for streaming estimation: seeding the EM
    /// iteration with the *previous* window's posterior means a handful
    /// of iterations per tick track a drifting population, where a cold
    /// solve needs hundreds. It is floored and renormalized exactly like
    /// the default observation-based start (so zero cells are never
    /// locked). The unigram channel has no `W₂` structure, so every
    /// backend runs this one serial loop.
    pub fn frequencies(
        &mut self,
        channel: &EmChannel,
        counts: &[u64],
        iters: usize,
        init: Option<&[f64]>,
    ) -> Vec<f64> {
        let n = channel.len();
        assert_eq!(counts.len(), n);
        if let Some(init) = init {
            assert_eq!(init.len(), n, "warm-start prior has the wrong universe");
        }
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; n];
        }
        let s = &mut self.scratch;
        ensure(&mut s.obs, n);
        ensure(&mut s.denom_v, n);
        ensure(&mut s.next, n);
        for (o, &c) in s.obs.iter_mut().zip(counts) {
            *o = c as f64 / total as f64;
        }
        let obs = &s.obs;
        let mut f = floored_start(init.unwrap_or(obs), n);
        let denom = &mut s.denom_v;
        let next = &mut s.next;
        for _ in 0..iters {
            // denom[y] = Σ_x M[y|x] f[x]
            for y in 0..n {
                let row = &channel.m[y * n..(y + 1) * n];
                denom[y] = row.iter().zip(&f).map(|(m, fx)| m * fx).sum();
            }
            // next[x] = f[x]·Σ_y obs[y]·M[y|x]/denom[y], summed y-outer
            // over contiguous channel rows (per x, the same adds in the
            // same y order as a column walk).
            next.fill(0.0);
            for y in 0..n {
                let (o, d) = (obs[y], denom[y]);
                if o > 0.0 && d > 0.0 {
                    let row = &channel.m[y * n..(y + 1) * n];
                    for (acc, &mv) in next.iter_mut().zip(row) {
                        *acc += o * mv / d;
                    }
                }
            }
            for (nx, &fx) in next.iter_mut().zip(&f) {
                *nx *= fx;
            }
            let mass: f64 = next.iter().sum();
            if mass <= 0.0 {
                break;
            }
            for (fx, nx) in f.iter_mut().zip(next.iter()) {
                *fx = nx / mass;
            }
        }
        f
    }

    /// Joint (transition) IBU on this solver's backend. `Dense` runs the
    /// separable product-channel model `M ⊗ M` on one serial kernel;
    /// `SparseW2` runs the `W₂`-normalized model over `w2` and
    /// **requires** the pattern. A warm-start `init` is always the dense
    /// `n²` layout, so posteriors survive backend changes (the sparse
    /// path projects onto its pattern).
    pub fn joint(
        &mut self,
        channel: &EmChannel,
        counts: &[u64],
        iters: usize,
        init: Option<&[f64]>,
        w2: Option<&CsrPattern>,
    ) -> Vec<f64> {
        let n = channel.len();
        assert_eq!(counts.len(), n * n);
        if let Some(init) = init {
            assert_eq!(init.len(), n * n, "warm-start prior has the wrong universe");
        }
        match self.backend {
            EstimatorBackend::Dense => self.joint_product(channel, counts, iters, init),
            EstimatorBackend::SparseW2 => {
                let pattern = w2.expect("SparseW2 backend requires a W₂ pattern");
                assert_eq!(pattern.len(), n, "W₂ pattern universe mismatch");
                self.joint_sparse(channel, counts, iters, init, pattern)
            }
        }
    }

    /// The separable product-channel joint IBU (`Dense`): four `n×n`
    /// [`matmul`] products per iteration.
    fn joint_product(
        &mut self,
        channel: &EmChannel,
        counts: &[u64],
        iters: usize,
        init: Option<&[f64]>,
    ) -> Vec<f64> {
        let n = channel.len();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return vec![0.0; n * n];
        }
        let s = &mut self.scratch;
        ensure(&mut s.obs, n * n);
        ensure(&mut s.mt, n * n);
        ensure(&mut s.mf, n * n);
        ensure(&mut s.denom_m, n * n);
        ensure(&mut s.ratio_m, n * n);
        ensure(&mut s.mt_ratio, n * n);
        ensure(&mut s.backproj, n * n);
        for (o, &c) in s.obs.iter_mut().zip(counts) {
            *o = c as f64 / total as f64;
        }
        let m = &channel.m;
        transpose(m, n, &mut s.mt);
        let obs = &s.obs;
        let mut f = floored_start(init.unwrap_or(obs), n * n);
        for _ in 0..iters {
            // denom = M F Mᵀ  (expected observation distribution under f)
            matmul(m, &f, n, &mut s.mf);
            matmul(&s.mf, &s.mt, n, &mut s.denom_m);
            // ratio = obs / denom (where defined)
            for i in 0..n * n {
                s.ratio_m[i] = if obs[i] > 0.0 && s.denom_m[i] > 0.0 {
                    obs[i] / s.denom_m[i]
                } else {
                    0.0
                };
            }
            // back-projection: B = Mᵀ · ratio · M, then f ← f ⊙ B
            matmul(&s.mt, &s.ratio_m, n, &mut s.mt_ratio);
            matmul(&s.mt_ratio, m, n, &mut s.backproj);
            let mut mass = 0.0;
            for (fv, bv) in f.iter_mut().zip(s.backproj.iter()) {
                *fv *= bv;
                mass += *fv;
            }
            if mass <= 0.0 {
                break;
            }
            for v in f.iter_mut() {
                *v /= mass;
            }
        }
        f
    }

    /// The `W₂`-aware joint model. The channel is
    /// `Q[(y,y′)|(x,x′)] = M[y|x]·M[y′|x′] / Z(x,x′)` on `W₂ × W₂` — the
    /// product channel restricted to feasible bigrams and renormalized
    /// per truth (the exponential mechanism's per-truth normalizers
    /// cancel, so this is *exact* for an EM that samples bigrams from
    /// `W₂`). With `g = f / Z` the EM update is
    ///
    /// ```text
    /// denom = (M·G·Mᵀ)|_{W₂}         observation likelihoods
    /// ratio = obs / denom            on observed W₂ cells
    /// B     = (Mᵀ·R·M)|_{W₂}         back-projection
    /// f′    ∝ g ⊙ B
    /// ```
    ///
    /// — four `O(|W₂|·|R|)` kernels per iteration, never touching an
    /// infeasible cell. Observed counts outside `W₂` (hostile or
    /// misrouted reports) are infeasible by definition and ignored.
    /// Returns the dense `n²` layout with **exact** zeros outside `W₂`.
    fn joint_sparse(
        &mut self,
        channel: &EmChannel,
        counts: &[u64],
        iters: usize,
        init: Option<&[f64]>,
        pattern: &CsrPattern,
    ) -> Vec<f64> {
        let n = channel.len();
        let nnz = pattern.nnz();
        let mut out = vec![0.0; n * n];
        if nnz == 0 {
            return out;
        }
        // Observations restricted to the feasible support.
        let mut total = 0u64;
        for x in 0..n {
            for &xp in pattern.row(x) {
                total += counts[x * n + xp as usize];
            }
        }
        if total == 0 {
            return out;
        }
        let s = &mut self.scratch;
        ensure(&mut s.mt, n * n);
        ensure(&mut s.mf, n * n);
        ensure(&mut s.mt_ratio, n * n);
        ensure(&mut s.denom_m, n * n); // `ct` scratch for the normalizer
        ensure(&mut s.sv_obs, nnz);
        ensure(&mut s.sv_z, nnz);
        ensure(&mut s.sv_g, nnz);
        ensure(&mut s.sv_denom, nnz);
        ensure(&mut s.sv_ratio, nnz);
        ensure(&mut s.sv_b, nnz);
        {
            let mut k = 0;
            for x in 0..n {
                for &xp in pattern.row(x) {
                    s.sv_obs[k] = counts[x * n + xp as usize] as f64 / total as f64;
                    k += 1;
                }
            }
        }
        let m = &channel.m;
        transpose(m, n, &mut s.mt);
        w2_normalizers(&s.mt, pattern, &mut s.denom_m, &mut s.sv_z);
        // Warm starts arrive in the dense layout from any backend;
        // project onto the feasible support before flooring.
        let mut f = match init {
            Some(dense) => {
                pattern.gather(dense, &mut s.sv_init);
                floored_start(&s.sv_init, nnz)
            }
            None => floored_start(&s.sv_obs, nnz),
        };
        for _ in 0..iters {
            // g = f / Z: the importance reweighting. A zero normalizer
            // (possible only for channels with exact-zero entries) means
            // the truth cell is unobservable; it receives no update mass.
            for ((g, &fv), &z) in s.sv_g.iter_mut().zip(f.iter()).zip(s.sv_z.iter()) {
                *g = if z > 0.0 { fv / z } else { 0.0 };
            }
            spmm(m, pattern, &s.sv_g, &mut s.mf); // T = M·G
            restricted_nt(&s.mf, m, pattern, &mut s.sv_denom); // (T·Mᵀ)|_{W₂}
            for ((r, &o), &d) in s
                .sv_ratio
                .iter_mut()
                .zip(s.sv_obs.iter())
                .zip(s.sv_denom.iter())
            {
                *r = if o > 0.0 && d > 0.0 { o / d } else { 0.0 };
            }
            spmm(&s.mt, pattern, &s.sv_ratio, &mut s.mt_ratio); // U = Mᵀ·R
            restricted_nt(&s.mt_ratio, &s.mt, pattern, &mut s.sv_b); // (U·M)|_{W₂}
            let mut mass = 0.0;
            for (fv, (&g, &b)) in f.iter_mut().zip(s.sv_g.iter().zip(s.sv_b.iter())) {
                *fv = g * b;
                mass += *fv;
            }
            if mass <= 0.0 {
                break;
            }
            for v in f.iter_mut() {
                *v /= mass;
            }
        }
        pattern.scatter(&f, &mut out);
        out
    }
}

/// The shared IBU seed: `start` floored by `1e-3 / cells` and
/// renormalized, so no cell is locked at zero by the multiplicative
/// update. Degenerate starts (non-positive mass) fall back to uniform.
fn floored_start(start: &[f64], cells: usize) -> Vec<f64> {
    debug_assert_eq!(start.len(), cells);
    let floor = 1e-3 / cells as f64;
    let mass: f64 = start.iter().map(|&s| s.max(0.0) + floor).sum();
    if mass > 0.0 && mass.is_finite() {
        start.iter().map(|&s| (s.max(0.0) + floor) / mass).collect()
    } else {
        vec![1.0 / cells as f64; cells]
    }
}

/// Norm-sub non-negativity post-processing: clips negative entries to zero
/// and subtracts the created surplus uniformly from the remaining positive
/// entries, iterating until the vector is non-negative with (approximately)
/// its original sum. The standard consistency step for LDP frequency
/// estimates (Wang et al., "Locally Differentially Private Frequency
/// Estimation with Consistency").
pub fn norm_sub(estimate: &mut [f64]) {
    let target: f64 = estimate.iter().sum::<f64>().max(0.0);
    for _ in 0..estimate.len().max(8) {
        let mut surplus = 0.0;
        let mut positives = 0usize;
        for e in estimate.iter_mut() {
            if *e < 0.0 {
                surplus += -*e;
                *e = 0.0;
            } else if *e > 0.0 {
                positives += 1;
            }
        }
        let current: f64 = estimate.iter().sum();
        if positives == 0 {
            break;
        }
        let excess = current - target;
        if excess.abs() < 1e-12 && surplus == 0.0 {
            return;
        }
        let share = excess / positives as f64;
        let mut any_negative = false;
        for e in estimate.iter_mut() {
            if *e > 0.0 {
                *e -= share;
                if *e < 0.0 {
                    any_negative = true;
                }
            }
        }
        if !any_negative {
            return;
        }
    }
    // Degenerate inputs (all mass clipped): fall back to zeros.
    for e in estimate.iter_mut() {
        if *e < 0.0 {
            *e = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajshare_mech::sample_from_weights;

    /// A small synthetic channel: 4 outcomes, EM-style with an arbitrary
    /// distance matrix.
    fn toy_channel() -> EmChannel {
        let d = [
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 0.0, 1.5, 2.0],
            [2.0, 1.5, 0.0, 1.0],
            [3.0, 2.0, 1.0, 0.0],
        ];
        // ε chosen so the channel is clearly non-uniform: a near-uniform
        // channel is near-singular and the inverse amplifies sampling noise
        // past anything a fixed-size test can average away.
        let em = ExponentialMechanism::new(4.0, 3.0);
        let columns: Vec<Vec<f64>> = (0..4)
            .map(|x| em.probabilities(&(0..4).map(|y| -d[x][y]).collect::<Vec<_>>()))
            .collect();
        EmChannel::from_columns(&columns)
    }

    #[test]
    fn channel_columns_are_stochastic() {
        let ch = toy_channel();
        for x in 0..ch.len() {
            let s: f64 = (0..ch.len()).map(|y| ch.get(y, x)).sum();
            assert!((s - 1.0).abs() < 1e-12, "column {x} sums to {s}");
            for y in 0..ch.len() {
                assert!(ch.get(y, x) > 0.0);
            }
        }
    }

    #[test]
    fn inverse_times_channel_is_identity() {
        let ch = toy_channel();
        let inv = ch.inverse().expect("invertible");
        let n = ch.len();
        for i in 0..n {
            for j in 0..n {
                let prod: f64 = (0..n).map(|k| inv.inv[i * n + k] * ch.get(k, j)).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod - expect).abs() < 1e-9, "({i},{j}) = {prod}");
            }
        }
    }

    #[test]
    fn estimator_is_unbiased_in_expectation() {
        // Simulate many LDP reports from a known f; the *mean* of the
        // estimator over repeated trials must converge to f.
        let ch = toy_channel();
        let inv = ch.inverse().unwrap();
        let f = [0.5, 0.25, 0.15, 0.1];
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 200;
        let reports_per_trial = 4000;
        let mut mean = [0.0f64; 4];
        for _ in 0..trials {
            let mut counts = [0u64; 4];
            for _ in 0..reports_per_trial {
                let truth = sample_from_weights(&f, &mut rng).unwrap();
                let col: Vec<f64> = (0..4).map(|y| ch.get(y, truth)).collect();
                let out = sample_from_weights(&col, &mut rng).unwrap();
                counts[out] += 1;
            }
            let est = inv.debias_frequencies(&counts);
            for (m, e) in mean.iter_mut().zip(est) {
                *m += e / trials as f64;
            }
        }
        // 800k total draws; the channel inverse amplifies sampling noise by
        // roughly ‖M⁻¹‖, so a ~0.01 band is the right order for the mean.
        for (m, truth) in mean.iter().zip(f) {
            assert!(
                (m - truth).abs() < 0.012,
                "estimator mean {m} deviates from truth {truth}: {mean:?}"
            );
        }
    }

    #[test]
    fn raw_counts_without_debiasing_are_biased() {
        // Sanity check that the inversion is doing real work: at this ε the
        // raw observed frequencies are visibly flattened toward uniform.
        let ch = toy_channel();
        let inv = ch.inverse().unwrap();
        let f = [0.7, 0.1, 0.1, 0.1];
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 4];
        for _ in 0..40_000 {
            let truth = sample_from_weights(&f, &mut rng).unwrap();
            let col: Vec<f64> = (0..4).map(|y| ch.get(y, truth)).collect();
            counts[sample_from_weights(&col, &mut rng).unwrap()] += 1;
        }
        let raw = counts[0] as f64 / 40_000.0;
        let est = inv.debias_frequencies(&counts);
        assert!(
            raw < 0.6,
            "raw top frequency {raw} should be flattened below truth 0.7"
        );
        assert!(
            (est[0] - 0.7).abs() < 0.05,
            "debiased {} should recover 0.7",
            est[0]
        );
    }

    #[test]
    fn matrix_debias_recovers_joint() {
        let ch = toy_channel();
        let inv = ch.inverse().unwrap();
        // Known joint over 4x4 with mass on (0,1) and (2,3).
        let joint = [
            [0.0, 0.4, 0.0, 0.0],
            [0.0, 0.0, 0.1, 0.0],
            [0.0, 0.0, 0.0, 0.4],
            [0.1, 0.0, 0.0, 0.0],
        ];
        let flat: Vec<f64> = joint.iter().flatten().copied().collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u64; 16];
        for _ in 0..400_000 {
            let cell = sample_from_weights(&flat, &mut rng).unwrap();
            let (x, xp) = (cell / 4, cell % 4);
            let cy: Vec<f64> = (0..4).map(|y| ch.get(y, x)).collect();
            let cyp: Vec<f64> = (0..4).map(|y| ch.get(y, xp)).collect();
            let y = sample_from_weights(&cy, &mut rng).unwrap();
            let yp = sample_from_weights(&cyp, &mut rng).unwrap();
            counts[y * 4 + yp] += 1;
        }
        // Compare the *raw* (unbiased) estimate; the two-sided inverse
        // squares the noise amplification, hence the wider band.
        let est = inv.debias_matrix(&counts);
        for x in 0..4 {
            for xp in 0..4 {
                assert!(
                    (est[x * 4 + xp] - joint[x][xp]).abs() < 0.05,
                    "cell ({x},{xp}): est {} vs truth {}",
                    est[x * 4 + xp],
                    joint[x][xp]
                );
            }
        }
        // And norm-sub keeps it a proper distribution with the two heavy
        // cells still dominant.
        let mut consistent = est.clone();
        norm_sub(&mut consistent);
        assert!((consistent.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(consistent.iter().all(|&v| v >= 0.0));
        let mut order: Vec<usize> = (0..16).collect();
        order.sort_by(|&a, &b| consistent[b].partial_cmp(&consistent[a]).unwrap());
        assert!(
            order[..2].contains(&1) && order[..2].contains(&11),
            "heavy cells (0,1) and (2,3) must rank on top: {consistent:?}"
        );
    }

    #[test]
    fn warm_start_none_is_bit_identical_and_fixed_point_is_stable() {
        let ch = toy_channel();
        let f = [0.55, 0.2, 0.15, 0.1];
        let mut rng = StdRng::seed_from_u64(21);
        let mut counts = [0u64; 4];
        let mut joint_counts = vec![0u64; 16];
        for _ in 0..20_000 {
            let truth = sample_from_weights(&f, &mut rng).unwrap();
            let col: Vec<f64> = (0..4).map(|y| ch.get(y, truth)).collect();
            counts[sample_from_weights(&col, &mut rng).unwrap()] += 1;
            let truth2 = sample_from_weights(&f, &mut rng).unwrap();
            let col2: Vec<f64> = (0..4).map(|y| ch.get(y, truth2)).collect();
            joint_counts[sample_from_weights(&col, &mut rng).unwrap() * 4
                + sample_from_weights(&col2, &mut rng).unwrap()] += 1;
        }
        // `None` seeds from the observed distribution itself — same floats.
        let mut dense = IbuSolver::new(EstimatorBackend::Dense);
        let total: u64 = counts.iter().sum();
        let observed: Vec<f64> = counts.iter().map(|&c| c as f64 / total as f64).collect();
        assert_eq!(
            dense.frequencies(&ch, &counts, 50, None),
            dense.frequencies(&ch, &counts, 50, Some(&observed))
        );
        // Warm-starting from a converged posterior of the same counts
        // stays at the fixed point: a few extra iterations barely move.
        let converged = dense.frequencies(&ch, &counts, 500, None);
        let warm = dense.frequencies(&ch, &counts, 5, Some(&converged));
        let drift: f64 = warm
            .iter()
            .zip(&converged)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(drift < 1e-3, "fixed point drifted by {drift}");
        let converged_j = dense.joint(&ch, &joint_counts, 300, None, None);
        let warm_j = dense.joint(&ch, &joint_counts, 3, Some(&converged_j), None);
        let drift_j: f64 = warm_j
            .iter()
            .zip(&converged_j)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(drift_j < 1e-2, "joint fixed point drifted by {drift_j}");
        // A warm start from an *empty* prior degrades gracefully to the
        // uniform seed rather than dividing by zero.
        let from_zero = dense.frequencies(&ch, &counts, 50, Some(&[0.0; 4]));
        assert!((from_zero.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    use proptest::prelude::*;

    /// L1 distance between two estimates.
    fn l1(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    /// A non-degenerate column-stochastic channel derived from integer
    /// seeds (the compat proptest sweeps strategies deterministically;
    /// deriving the channel keeps the parameter count small).
    fn channel_from_seed(n: usize, seed: &[u64]) -> EmChannel {
        let cols: Vec<Vec<f64>> = (0..n)
            .map(|x| {
                let col: Vec<f64> = (0..n)
                    .map(|y| 0.05 + (seed[(x * 7 + y) % seed.len()] % 97) as f64 / 97.0)
                    .collect();
                let s: f64 = col.iter().sum();
                col.into_iter().map(|v| v / s).collect()
            })
            .collect();
        EmChannel::from_columns(&cols)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The backend equivalence property: on any small channel and
        /// counts, a reused `Dense` solver is bit-identical to fresh
        /// ones, `SparseW2`'s unigram estimate is bit-identical to
        /// `Dense`'s (one serial loop), and its joint over the *full*
        /// pattern (where every `Z` is 1 and the restricted model
        /// degenerates to the product model) agrees within 1e-6 L1.
        #[test]
        fn backends_agree_on_random_channels(
            n in 2usize..6,
            chan_seed in proptest::collection::vec(1u64..1000, 36..37),
            vals in proptest::collection::vec(0u64..60, 36..37),
            iters in 1usize..40,
        ) {
            let channel = channel_from_seed(n, &chan_seed);
            let counts: Vec<u64> = vals[..n].to_vec();
            let joint_counts: Vec<u64> = (0..n * n)
                .map(|c| vals[c % vals.len()].wrapping_mul(c as u64 % 7 + 1) % 60)
                .collect();

            let dense_f = IbuSolver::new(EstimatorBackend::Dense)
                .frequencies(&channel, &counts, iters, None);
            let dense_j = IbuSolver::new(EstimatorBackend::Dense)
                .joint(&channel, &joint_counts, iters, None, None);

            let mut solver = IbuSolver::new(EstimatorBackend::Dense);
            prop_assert_eq!(&solver.frequencies(&channel, &counts, iters, None), &dense_f);
            prop_assert_eq!(&solver.joint(&channel, &joint_counts, iters, None, None), &dense_j);

            let full = CsrPattern::full(n);
            let mut sparse = IbuSolver::new(EstimatorBackend::SparseW2);
            prop_assert_eq!(&sparse.frequencies(&channel, &counts, iters, None), &dense_f);
            let sj = sparse.joint(&channel, &joint_counts, iters, None, Some(&full));
            prop_assert!(l1(&sj, &dense_j) < 1e-6, "sparse/full vs dense: {}", l1(&sj, &dense_j));
        }

        /// On a genuinely sparse pattern the `W₂`-normalized estimate is
        /// a distribution supported *exactly* on the pattern — infeasible
        /// cells are 0.0 by construction, with no post-hoc masking, even
        /// when hostile counts put mass there.
        #[test]
        fn sparse_w2_mass_is_exactly_feasible(
            n in 3usize..6,
            degree in 1usize..3,
            seed_joint in proptest::collection::vec(0u64..60, 36..37),
            iters in 1usize..30,
        ) {
            let channel = channel_from_seed(n, &seed_joint);
            let rows: Vec<Vec<u32>> = (0..n as u32)
                .map(|i| (1..=degree as u32).map(|d| (i + d) % n as u32).collect())
                .collect();
            let pattern = CsrPattern::from_rows(&rows);
            // Hostile counts: mass on *every* cell, feasible or not.
            let joint_counts: Vec<u64> = (0..n * n)
                .map(|i| seed_joint[i % seed_joint.len()] + 1)
                .collect();
            let mut solver = IbuSolver::new(EstimatorBackend::SparseW2);
            let est = solver.joint(&channel, &joint_counts, iters, None, Some(&pattern));
            let mut on_support = 0.0;
            for x in 0..n {
                for y in 0..n as u32 {
                    let v = est[x * n + y as usize];
                    if pattern.contains(x, y) {
                        on_support += v;
                        prop_assert!(v >= 0.0);
                    } else {
                        prop_assert_eq!(v, 0.0, "infeasible cell ({},{}) carries mass", x, y);
                    }
                }
            }
            prop_assert!((on_support - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn solver_scratch_survives_universe_changes() {
        // One solver re-used across different universe sizes must match
        // fresh solvers — stale scratch must never leak between solves.
        let ch4 = toy_channel();
        let cols3: Vec<Vec<f64>> = (0..3)
            .map(|x| {
                let c: Vec<f64> = (0..3).map(|y| 1.0 + ((x * 3 + y) % 5) as f64).collect();
                let s: f64 = c.iter().sum();
                c.into_iter().map(|v| v / s).collect()
            })
            .collect();
        let ch3 = EmChannel::from_columns(&cols3);
        let counts4 = [50u64, 10, 30, 10];
        let counts3 = [40u64, 25, 35];
        let joint4: Vec<u64> = (0..16).map(|i| (i as u64 * 7) % 13).collect();
        let joint3: Vec<u64> = (0..9).map(|i| (i as u64 * 5) % 11).collect();
        for backend in EstimatorBackend::ALL {
            let w2_4 = CsrPattern::full(4);
            let w2_3 = CsrPattern::full(3);
            let w2 = |n: usize| if n == 4 { &w2_4 } else { &w2_3 };
            let mut reused = IbuSolver::new(backend);
            let a4 = reused.frequencies(&ch4, &counts4, 25, None);
            let j4 = reused.joint(&ch4, &joint4, 10, None, Some(w2(4)));
            let a3 = reused.frequencies(&ch3, &counts3, 25, None);
            let j3 = reused.joint(&ch3, &joint3, 10, None, Some(w2(3)));
            // Back up to the larger universe again.
            let a4b = reused.frequencies(&ch4, &counts4, 25, None);
            assert_eq!(
                a4,
                IbuSolver::new(backend).frequencies(&ch4, &counts4, 25, None),
                "{backend} frequencies drifted with reuse"
            );
            assert_eq!(
                j4,
                IbuSolver::new(backend).joint(&ch4, &joint4, 10, None, Some(w2(4))),
                "{backend} joint drifted with reuse"
            );
            assert_eq!(
                a3,
                IbuSolver::new(backend).frequencies(&ch3, &counts3, 25, None)
            );
            assert_eq!(
                j3,
                IbuSolver::new(backend).joint(&ch3, &joint3, 10, None, Some(w2(3)))
            );
            assert_eq!(a4, a4b, "{backend} shrink-then-grow corrupted scratch");
        }
    }

    #[test]
    fn warm_starts_survive_backend_changes() {
        // A posterior produced by one backend must be a valid warm start
        // for any other: the dense n² layout is the interchange format.
        let ch = toy_channel();
        let joint_counts: Vec<u64> = (0..16).map(|i| 5 + (i as u64 * 11) % 40).collect();
        let full = CsrPattern::full(4);
        let mut dense = IbuSolver::new(EstimatorBackend::Dense);
        let converged = dense.joint(&ch, &joint_counts, 300, None, None);
        let mut sparse = IbuSolver::new(EstimatorBackend::SparseW2);
        let warm = sparse.joint(&ch, &joint_counts, 3, Some(&converged), Some(&full));
        let drift: f64 = warm
            .iter()
            .zip(&converged)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(drift < 1e-2, "sparse-w2: fixed point drifted by {drift}");
        // And a sparse posterior (zeros off-support) warm-starts the
        // dense backend without locking cells (the floor re-opens them).
        let band: Vec<Vec<u32>> = (0..4u32).map(|i| vec![(i + 1) % 4]).collect();
        let pattern = CsrPattern::from_rows(&band);
        let sparse_post = sparse.joint(&ch, &joint_counts, 50, None, Some(&pattern));
        let resumed = dense.joint(&ch, &joint_counts, 5, Some(&sparse_post), None);
        assert!((resumed.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(resumed.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn backend_names_round_trip_and_blocked_is_gone() {
        for b in EstimatorBackend::ALL {
            assert_eq!(EstimatorBackend::parse(b.name()), Some(b));
        }
        for alias in ["sparse", "sparse_w2"] {
            assert_eq!(
                EstimatorBackend::parse(alias),
                Some(EstimatorBackend::SparseW2)
            );
        }
        assert_eq!(EstimatorBackend::parse("blocked"), None);
    }

    #[test]
    fn norm_sub_restores_simplex() {
        let mut v = vec![0.6, -0.1, 0.4, 0.1];
        norm_sub(&mut v);
        assert!(v.iter().all(|&x| x >= 0.0), "{v:?}");
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{v:?}");
        // Order preserved for the dominant entries.
        assert!(v[0] > v[2] && v[2] > v[3]);

        let mut all_neg = vec![-0.5, -0.5];
        norm_sub(&mut all_neg);
        assert!(all_neg.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn empty_counts_give_zero_estimates() {
        let ch = toy_channel();
        let inv = ch.inverse().unwrap();
        assert_eq!(inv.debias_frequencies(&[0; 4]), vec![0.0; 4]);
        assert_eq!(inv.debias_matrix(&[0; 16]), vec![0.0; 16]);
    }
}
