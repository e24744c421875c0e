//! Streaming privacy-budget accounting for continuous publication.
//!
//! The paper's accountant ([`trajshare_mech::PrivacyBudget`]) covers the
//! one-shot setting: a user shares one trajectory, ε composes over its
//! n-gram windows, done. The streaming service is not one-shot — it
//! publishes sliding-window models forever, and a user who reports in
//! every window spends ε *per window*, without bound, unless someone
//! accounts for it. RetraSyn (Hu et al., 2024) frames the sound contract
//! for that setting as a **`w`-window budget**: over any `w` consecutive
//! windows, a participating user's total spend must stay within ε.
//!
//! [`WindowBudgetAccountant`] enforces exactly that invariant, in the
//! same integer nano-ε discipline as the wire format (`Report::eps_nano`)
//! — the ledger sums `u64` nano-ε, so no sequence of grants, settlements,
//! encodes, replays, or merges can drift the accounting by even one
//! nano-ε. Scope of the guarantee: in the local model ε is consumed at
//! **randomization** time, so the ledger bounds every user who
//! randomizes within the broadcast grants (a refused window keeps its
//! full grant on the books — refusing publication cannot un-spend it).
//! A reporter who self-randomizes *above* the grant has spent
//! off-contract ε no collector can retro-bound; the accountant's
//! guarantee for such cohorts is that the surplus is never published
//! (settlement is against the cohort's worst-case per-report ε′ and
//! refuses the window). Settlement also assumes the RetraSyn reporting
//! model of **at most one report per user per window**: reports are
//! anonymous by design, so a client that reports k times in one window
//! multiplies its own spend k-fold invisibly — deduplicating would
//! require authenticated identities the LDP threat model deliberately
//! excludes. The companion [`AllocationPolicy`] decides how much of the
//! window budget each new window may spend:
//!
//! * [`AllocationPolicy::Uniform`] — the static baseline: every window
//!   gets `total / w`.
//! * [`AllocationPolicy::Adaptive`] — RetraSyn-style: measure how much
//!   the published distribution *moved* since the previous window
//!   ([`window_divergence`]) and allocate
//!   proportionally — a stable stream gets a small probe share (its
//!   unspent budget is *recycled*, i.e. stays available inside the
//!   horizon), and a shifting stream gets the whole recycled pool when
//!   fresh data is actually worth buying.
//!
//! The accountant is the *decision* ledger; [`crate::PublicationEngine`]
//! is the pass that drives it and its one writer: the pass persists the
//! `TSBA` blob ([`WindowBudgetAccountant::encode`]) before it releases a
//! grant, and [`crate::read_ledger`] is its one reader, so the invariant
//! survives kill/restart. A node also mirrors settled spends onto its
//! window ring ([`crate::stream::WindowedAggregator::record_spend`]).

use crate::estimate::{EmChannel, IbuSolver};
use crate::ingest::AggregateCounts;
use std::collections::VecDeque;
use trajshare_core::blob::{open, BlobError, Sealer};
use trajshare_core::RegionGraph;

/// Nano-ε per ε — the integer grid shared with the report wire format.
pub(crate) const NANO_PER_EPS: u64 = 1_000_000_000;

/// Single rounding ε → nano-ε (the wire-format grid). Non-finite and
/// non-positive inputs map to 0.
#[inline]
pub fn eps_to_nano(eps: f64) -> u64 {
    if eps.is_finite() && eps > 0.0 {
        // `as` saturates at u64::MAX for absurdly large ε (rejected at
        // ingestion anyway, which caps ε′ at `MAX_EPS_PRIME`).
        (eps * NANO_PER_EPS as f64).round() as u64
    } else {
        0
    }
}

/// Exact nano-ε → ε (every nano-ε integer is representable in an `f64`
/// mantissa up to ~9.0e6 ε, far beyond any plausible budget).
#[inline]
pub fn nano_to_eps(nano: u64) -> f64 {
    nano as f64 / NANO_PER_EPS as f64
}

/// Total-variation distance `½·Σ|a−b|` between two distributions.
/// Slices must have equal length; mismatched lengths (a universe change)
/// count as a full shift (1.0).
pub fn l1_divergence(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return 1.0;
    }
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

/// RetraSyn-style *significance-tested* divergence between two debiased
/// per-window distributions. A raw count divergence is channel-dependent
/// — when consecutive cohorts randomize at different ε′ the occupancy
/// vectors differ even over a perfectly stationary population, so an
/// adaptive policy driven by it buys budget to chase its own noise. This
/// signal instead compares *estimates* (already normalized posteriors, or
/// any non-negative vectors — they are re-normalized defensively) and
/// subtracts the expected sampling noise floor for the reported cohort
/// sizes before anything counts as movement: for an empirical
/// distribution over `k` occupied cells from `n` reports,
/// `E[TV from truth] ≤ ½·√((k−1)/n)`, so two independent cohorts sit
/// `½·(√((k−1)/nₐ) + √((k−1)/n_b))` apart in expectation even when the
/// underlying stream has not moved at all. Only the excess above that
/// floor is returned (clamped to `[0, 1]`); a cohort too small to
/// distinguish anything reads as 0 — *not significant* — and an empty or
/// mismatched side reads as 1, a full shift. (A window with no
/// predecessor to compare against has no signal at all; see
/// [`WindowBudgetAccountant::allocate`] for what that grants.)
/// The channel inversion inflates variance beyond the multinomial floor;
/// the policy's `threshold` deadband absorbs that residue.
pub fn significance_divergence(prev: &[f64], cur: &[f64], n_prev: u64, n_cur: u64) -> f64 {
    if prev.len() != cur.len() || prev.is_empty() || n_prev == 0 || n_cur == 0 {
        return 1.0;
    }
    let sp: f64 = prev.iter().filter(|v| v.is_finite() && **v > 0.0).sum();
    let sc: f64 = cur.iter().filter(|v| v.is_finite() && **v > 0.0).sum();
    if sp <= 0.0 || sc <= 0.0 {
        return 1.0;
    }
    let mut tv = 0.0;
    let mut support = 0usize;
    for (&a, &b) in prev.iter().zip(cur) {
        let a = if a.is_finite() && a > 0.0 {
            a / sp
        } else {
            0.0
        };
        let b = if b.is_finite() && b > 0.0 {
            b / sc
        } else {
            0.0
        };
        if a > 0.0 || b > 0.0 {
            support += 1;
        }
        tv += (a - b).abs();
    }
    tv *= 0.5;
    let k = support.saturating_sub(1) as f64;
    let floor = 0.5 * ((k / n_prev as f64).sqrt() + (k / n_cur as f64).sqrt());
    (tv - floor).clamp(0.0, 1.0)
}

/// The allocator's change-detection signal between two consecutive
/// windows: RetraSyn-style significance testing, on *debiased*
/// per-window posteriors when a region graph is supplied, on normalized
/// raw occupancy otherwise. Either way the measured total-variation
/// distance is gated on the sampling-noise floor the two cohort sizes
/// imply ([`significance_divergence`]), so a quiet-but-small window no
/// longer reads as a population shift. Called from the one publication
/// pass ([`crate::PublicationEngine`]), so a deployment gets the same signal
/// at either enforcement point (node or coordinator).
///
/// Debiasing inverts the EM channel at the window's *mean* ε′ (a
/// cohort-level frequency correction — the max that settlement polices
/// would over-sharpen honest mixed cohorts) with a short fixed IBU run:
/// the signal needs ordering fidelity, not a converged estimate, and a
/// bounded iteration count keeps the per-tick cost O(|R|²)-ish.
pub fn window_divergence(
    graph: Option<&RegionGraph>,
    prev: &AggregateCounts,
    cur: &AggregateCounts,
) -> f64 {
    /// IBU iterations per window for the divergence signal only.
    const SIGNAL_ITERS: usize = 25;
    let debias = |graph: &RegionGraph, counts: &AggregateCounts| -> Option<Vec<f64>> {
        if counts.num_reports == 0 || counts.occupancy.len() != graph.num_regions() {
            return None;
        }
        let mean_eps = nano_to_eps(counts.eps_nano_sum / counts.num_reports);
        if mean_eps <= 0.0 {
            return None;
        }
        let channel = EmChannel::unigram(graph, mean_eps);
        Some(IbuSolver::default().frequencies(&channel, &counts.occupancy, SIGNAL_ITERS, None))
    };
    if let Some(graph) = graph {
        if let (Some(p), Some(c)) = (debias(graph, prev), debias(graph, cur)) {
            return significance_divergence(&p, &c, prev.num_reports, cur.num_reports);
        }
    }
    let p: Vec<f64> = prev.occupancy.iter().map(|&v| v as f64).collect();
    let c: Vec<f64> = cur.occupancy.iter().map(|&v| v as f64).collect();
    significance_divergence(&p, &c, prev.num_reports, cur.num_reports)
}

/// How the accountant allocates each window's share of the `w`-window
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocationPolicy {
    /// Every window gets `total / w` — the static baseline. Simple,
    /// oblivious, and wasteful when the distribution barely moves.
    Uniform,
    /// Divergence-proportional allocation with a probe floor. The grant
    /// for a window with divergence signal `d` is
    /// `floor + min(1, max(0, d − threshold) · gain) · (available −
    /// floor)` where `floor = (total/w)/4` is the always-on probe share
    /// (you need *some* fresh signal to detect the next shift) and
    /// `available` is everything the horizon allows — including budget
    /// recycled from quiet windows. A stable stream therefore banks
    /// `total/w − floor` per window, and the first shifting window can
    /// spend close to the whole total at once.
    Adaptive {
        /// Scales the divergence signal onto `[0, 1]`; larger = more
        /// trigger-happy. `d·gain ≥ 1` grants everything available.
        gain: f64,
        /// Divergence below this is treated as sampling noise (no
        /// allocation above the probe floor).
        threshold: f64,
    },
}

impl AllocationPolicy {
    /// Default adaptive gain.
    pub const DEFAULT_GAIN: f64 = 4.0;
    /// Default adaptive noise deadband.
    pub const DEFAULT_THRESHOLD: f64 = 0.05;

    /// The adaptive policy with default gain/threshold.
    pub fn adaptive() -> Self {
        AllocationPolicy::Adaptive {
            gain: Self::DEFAULT_GAIN,
            threshold: Self::DEFAULT_THRESHOLD,
        }
    }

    /// CLI / experiment-flag name.
    pub fn name(&self) -> &'static str {
        match self {
            AllocationPolicy::Uniform => "uniform",
            AllocationPolicy::Adaptive { .. } => "adaptive",
        }
    }

    /// Parses `uniform` / `adaptive` (default gain) — the `--budget-policy`
    /// flag vocabulary.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(AllocationPolicy::Uniform),
            "adaptive" => Some(AllocationPolicy::adaptive()),
            _ => None,
        }
    }
}

impl std::fmt::Display for AllocationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The `w`-window budget contract: over any `horizon` consecutive
/// windows, total recorded spend must stay ≤ `total_nano`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowBudgetConfig {
    /// Per-user budget over the horizon, in nano-ε.
    pub total_nano: u64,
    /// The `w` of "any `w` consecutive windows". Must be ≥ 1.
    pub horizon: usize,
    /// How each window's share is chosen.
    pub policy: AllocationPolicy,
}

impl WindowBudgetConfig {
    /// A validated config. Panics on a zero budget or horizon — both
    /// would make every allocation degenerate.
    pub fn new(total_nano: u64, horizon: usize, policy: AllocationPolicy) -> Self {
        assert!(total_nano > 0, "budget must be positive");
        assert!(horizon >= 1, "horizon must be >= 1");
        WindowBudgetConfig {
            total_nano,
            horizon,
            policy,
        }
    }

    /// The uniform per-window share `total / w` (integer division — the
    /// remainder is never granted, which keeps the invariant safe).
    #[inline]
    pub fn uniform_share(&self) -> u64 {
        self.total_nano / self.horizon as u64
    }

    /// The adaptive probe floor (a quarter of the uniform share).
    #[inline]
    pub fn probe_floor(&self) -> u64 {
        self.uniform_share() / 4
    }
}

/// One decided window in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowDecision {
    /// Absolute window id.
    pub window: u64,
    /// Nano-ε the policy granted the window.
    pub granted_nano: u64,
    /// Nano-ε actually recorded as spent (≤ granted; the *full grant*
    /// when refused — in the local model users randomize against the
    /// broadcast grant before the collector sees anything, so that ε is
    /// consumed at randomization time whether or not the window is ever
    /// published, and zeroing it would recycle budget users actually
    /// spent).
    pub spent_nano: u64,
    /// Whether the window's observed spend was refused as over-grant
    /// (its data must then be excluded from publication).
    pub refused: bool,
}

/// What [`WindowBudgetAccountant::allocate`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowGrant {
    /// The window the grant is for.
    pub window: u64,
    /// Allocation epoch of the decision (see [`GrantRecord::epoch`]); on
    /// an idempotent re-ask, the epoch originally assigned.
    pub epoch: u64,
    /// Nano-ε granted.
    pub granted_nano: u64,
    /// Nano-ε that was available before granting (total minus the
    /// horizon's recorded spends) — `granted ≤ available` always.
    pub available_nano: u64,
}

/// One entry of the accountant's **grant history** — the monitoring and
/// broadcast record, deliberately decoupled from both the enforcement
/// ledger (which trims at the horizon because older entries no longer
/// constrain anything) and the data ring (whose retention is a storage
/// choice): the history keeps the last [`WindowBudgetAccountant::GRANT_HISTORY_CAP`]
/// decisions regardless of either, so `--dump-counts` can show what was
/// granted and settled long after the windows themselves expired, and so
/// the budget horizon `w` may exceed the ring depth without the books
/// silently forgetting live spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantRecord {
    /// Absolute window id.
    pub window: u64,
    /// Allocation epoch: a counter that increments on every decision the
    /// ledger makes (wrapping at `u64::MAX`), stamped into `TSGB`
    /// broadcasts so clients can order grants without trusting arrival
    /// order.
    pub epoch: u64,
    /// Nano-ε granted at allocation.
    pub granted_nano: u64,
    /// Latest settled spend (the observed worst-case per-report ε′,
    /// clamped to the grant) — equals the grant until first settled.
    pub settled_nano: u64,
    /// Whether the window stands refused.
    pub refused: bool,
}

/// The sliding-window spend ledger.
///
/// Windows are decided in ascending order ([`WindowBudgetAccountant::allocate`]
/// is monotonic in the window id); each decision clamps its grant to what
/// the horizon still allows, and a later settlement
/// ([`WindowBudgetAccountant::settle`]) can only *reduce* a window's
/// recorded spend — so the invariant
///
/// > for every `w` consecutive window ids, Σ recorded spend ≤ `total_nano`
///
/// holds by construction at every point in time (property-tested below,
/// including across [`WindowBudgetAccountant::encode`] round-trips).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowBudgetAccountant {
    config: WindowBudgetConfig,
    /// Decided windows with id in `(decided − horizon, decided]`,
    /// ascending. Windows absent from the deque spent 0.
    ledger: VecDeque<WindowDecision>,
    /// Highest window id ever decided.
    decided: Option<u64>,
    /// Lifetime Σ granted (saturating; monitoring only).
    lifetime_granted_nano: u64,
    /// Lifetime Σ settled spend (saturating; monitoring only).
    lifetime_spent_nano: u64,
    /// Windows refused at settlement (observed spend exceeded the grant).
    refused_windows: u64,
    /// Epoch of the most recent decision (0 = none yet).
    epoch: u64,
    /// Trailing decision history for broadcast/monitoring
    /// ([`GrantRecord`]); capped at
    /// [`WindowBudgetAccountant::GRANT_HISTORY_CAP`], independent of the
    /// horizon and of any data-retention window.
    history: VecDeque<GrantRecord>,
}

impl WindowBudgetAccountant {
    /// Most recent grant-history entries kept (per accountant).
    pub const GRANT_HISTORY_CAP: usize = 1024;

    /// A fresh ledger under `config`.
    pub fn new(config: WindowBudgetConfig) -> Self {
        WindowBudgetAccountant {
            config,
            ledger: VecDeque::new(),
            decided: None,
            lifetime_granted_nano: 0,
            lifetime_spent_nano: 0,
            refused_windows: 0,
            epoch: 0,
            history: VecDeque::new(),
        }
    }

    /// The budget contract this ledger enforces.
    #[inline]
    pub fn config(&self) -> WindowBudgetConfig {
        self.config
    }

    /// Highest window id decided so far.
    #[inline]
    pub fn decided(&self) -> Option<u64> {
        self.decided
    }

    /// Windows refused at settlement so far.
    #[inline]
    pub fn refused_windows(&self) -> u64 {
        self.refused_windows
    }

    /// Lifetime Σ settled spend, nano-ε (saturating).
    #[inline]
    pub fn lifetime_spent_nano(&self) -> u64 {
        self.lifetime_spent_nano
    }

    /// Lifetime Σ granted minus Σ spent — the budget the adaptive policy
    /// left unspent ("recycled" back into later horizons), nano-ε.
    #[inline]
    pub fn recycled_nano(&self) -> u64 {
        self.lifetime_granted_nano
            .saturating_sub(self.lifetime_spent_nano)
    }

    /// Epoch of the most recent decision (0 when nothing is decided).
    #[inline]
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The trailing grant history, oldest first (see [`GrantRecord`]).
    pub fn grant_history(&self) -> impl Iterator<Item = &GrantRecord> {
        self.history.iter()
    }

    /// The newest grant on the books, as the broadcastable record.
    pub fn latest_grant(&self) -> Option<GrantRecord> {
        self.history.back().copied()
    }

    /// The decided windows still inside the horizon, ascending.
    pub fn decisions(&self) -> impl Iterator<Item = &WindowDecision> {
        self.ledger.iter()
    }

    /// The recorded decision for `window`, if it is still in the horizon.
    pub fn decision(&self, window: u64) -> Option<WindowDecision> {
        self.ledger.iter().find(|d| d.window == window).copied()
    }

    /// Σ recorded spend over the trailing horizon `(decided − w, decided]`.
    pub fn sliding_spend_nano(&self) -> u64 {
        self.ledger.iter().map(|d| d.spent_nano).sum()
    }

    /// Nano-ε still grantable to `window`: `total` minus every recorded
    /// spend in `[window − w + 1, window − 1]` — the rest of the worst
    /// `w`-window range containing `window`. Entries at or before
    /// `window − w` no longer constrain it.
    pub fn available_nano(&self, window: u64) -> u64 {
        let horizon = self.config.horizon as u64;
        let spent: u64 = self
            .ledger
            .iter()
            .filter(|d| d.window < window && window - d.window < horizon)
            .map(|d| d.spent_nano)
            .sum();
        self.config.total_nano.saturating_sub(spent)
    }

    /// Decides the grant for `window` given a divergence signal in
    /// `[0, 1]`, or `None` when there is nothing to compare against.
    /// **An unknown signal (`None`, or a non-finite value) grants the
    /// uniform share, `uniform_share().min(available)`, under either
    /// policy**: a cold start or a window after a gap neither spends the
    /// whole horizon on one window nor starves the windows after it.
    /// Re-asking for an already-decided window
    /// returns the recorded grant unchanged (idempotent, so publication
    /// retries cannot double-spend); asking for a window *older* than
    /// the ledger's horizon grants 0.
    ///
    /// The grant is recorded as the window's provisional spend — callers
    /// that observe a smaller actual spend settle it down with
    /// [`WindowBudgetAccountant::settle`]. Recording the full grant
    /// first keeps the invariant safe even if the caller never settles.
    pub fn allocate(&mut self, window: u64, divergence: impl Into<Option<f64>>) -> WindowGrant {
        if let Some(decided) = self.decided {
            if window <= decided {
                let granted = self.decision(window).map_or(0, |d| d.granted_nano);
                let epoch = self
                    .history
                    .iter()
                    .rev()
                    .find(|r| r.window == window)
                    .map_or(self.epoch, |r| r.epoch);
                return WindowGrant {
                    window,
                    epoch,
                    granted_nano: granted,
                    available_nano: self.available_nano(window),
                };
            }
        }
        let available = self.available_nano(window);
        let share = self.config.uniform_share();
        let signal = divergence.into().filter(|d| d.is_finite());
        let granted = match (self.config.policy, signal) {
            (AllocationPolicy::Uniform, _) | (_, None) => share.min(available),
            (AllocationPolicy::Adaptive { gain, threshold }, Some(divergence)) => {
                let floor = self.config.probe_floor().min(available);
                let d = ((divergence - threshold).max(0.0) * gain).clamp(0.0, 1.0);
                let extra = ((available - floor) as f64 * d).round() as u64;
                floor + extra.min(available - floor)
            }
        };
        debug_assert!(granted <= available);
        self.ledger.push_back(WindowDecision {
            window,
            granted_nano: granted,
            spent_nano: granted,
            refused: false,
        });
        self.decided = Some(window);
        self.lifetime_granted_nano = self.lifetime_granted_nano.saturating_add(granted);
        self.lifetime_spent_nano = self.lifetime_spent_nano.saturating_add(granted);
        let epoch = self.record_decision(window, granted);
        self.trim();
        WindowGrant {
            window,
            epoch,
            granted_nano: granted,
            available_nano: available,
        }
    }

    /// Stamps a fresh decision into the grant history under the next
    /// epoch, enforcing the history cap.
    fn record_decision(&mut self, window: u64, granted_nano: u64) -> u64 {
        self.epoch = self.epoch.wrapping_add(1);
        self.history.push_back(GrantRecord {
            window,
            epoch: self.epoch,
            granted_nano,
            settled_nano: granted_nano,
            refused: false,
        });
        while self.history.len() > Self::GRANT_HISTORY_CAP {
            self.history.pop_front();
        }
        self.epoch
    }

    /// Settles `window`'s actual observed per-user spend against its
    /// grant. `observed ≤ granted` records the observed value (the
    /// difference is recycled — it becomes available to later windows in
    /// the same horizon); `observed > granted` **refuses** the window:
    /// the caller must exclude the window's data from publication, and
    /// the *full grant* stays on the books — in the local model the
    /// cohort randomized against the broadcast grant before the
    /// collector saw a byte, so that ε was consumed at randomization
    /// time and refusing publication cannot un-spend it. (The surplus a
    /// rogue reporter claimed *above* the grant is off-contract: no
    /// server-side ledger can bound a user who self-randomizes at an ε′
    /// they were never granted; refusal keeps that surplus out of every
    /// release.) Settling is idempotent and may be repeated as a
    /// window's observation refines — but only the *newest* decided
    /// window may move freely within its grant: the caller decides a
    /// window before publishing anything from it, so the latest entry is
    /// pre-release and adjustable. Once a later window has been allocated,
    /// the entry **freezes**: its recorded spend is irrevocable — prior
    /// releases consumed it, and its recycled slack may already have
    /// been re-granted, so neither lowering (would recycle consumed
    /// budget) nor raising (would retro-violate grants computed from the
    /// old value) is sound. A frozen window whose observed worst-case
    /// (max) per-report ε′ *rises*
    /// above its recorded spend (late reports claiming more ε′) is
    /// refused — excluded from future releases — while its spend stays
    /// on the books; a frozen refusal is sticky. This is what makes the
    /// sliding invariant immune to settle/allocate/publish
    /// interleavings. Returns the resulting decision, or `None` if the
    /// window is not in the horizon.
    pub fn settle(&mut self, window: u64, observed_nano: u64) -> Option<WindowDecision> {
        let is_latest = self.decided == Some(window);
        let entry = self.ledger.iter_mut().find(|d| d.window == window)?;
        let was_refused = entry.refused;
        let old_spent = entry.spent_nano;
        if is_latest {
            if observed_nano > entry.granted_nano {
                entry.spent_nano = entry.granted_nano;
                entry.refused = true;
            } else {
                entry.spent_nano = observed_nano;
                entry.refused = false;
            }
        } else if !entry.refused && observed_nano > entry.spent_nano {
            // Frozen, and the cohort now claims more than the books
            // show: the unaccounted surplus must never be published.
            entry.refused = true;
        }
        debug_assert!(entry.spent_nano <= entry.granted_nano);
        let entry = *entry;
        self.lifetime_spent_nano = self
            .lifetime_spent_nano
            .saturating_sub(old_spent)
            .saturating_add(entry.spent_nano);
        if entry.refused && !was_refused {
            self.refused_windows += 1;
        } else if !entry.refused && was_refused {
            self.refused_windows = self.refused_windows.saturating_sub(1);
        }
        if let Some(r) = self.history.iter_mut().rev().find(|r| r.window == window) {
            r.settled_nano = entry.spent_nano;
            r.refused = entry.refused;
        }
        Some(entry)
    }

    /// Imports a historical spend (ring-recovered state from before this
    /// ledger existed). Monotonic like `allocate`; the spend is clamped
    /// to what the horizon allows, so a restored ledger can never start
    /// life in violation of the invariant.
    pub fn restore_spend(&mut self, window: u64, spent_nano: u64) {
        if self.decided.is_some_and(|d| window <= d) {
            return;
        }
        let spent = spent_nano.min(self.available_nano(window));
        self.ledger.push_back(WindowDecision {
            window,
            granted_nano: spent,
            spent_nano: spent,
            refused: false,
        });
        self.decided = Some(window);
        self.lifetime_granted_nano = self.lifetime_granted_nano.saturating_add(spent);
        self.lifetime_spent_nano = self.lifetime_spent_nano.saturating_add(spent);
        self.record_decision(window, spent);
        self.trim();
    }

    /// Drops ledger entries that can no longer constrain any future
    /// window: entry `v` constrains allocations up to `v + horizon`, and
    /// allocations are strictly above `decided`, so `v + horizon ≤
    /// decided` is dead weight.
    fn trim(&mut self) {
        let Some(decided) = self.decided else { return };
        let horizon = self.config.horizon as u64;
        while self
            .ledger
            .front()
            .is_some_and(|d| d.window.saturating_add(horizon) <= decided)
        {
            self.ledger.pop_front();
        }
    }

    // ---- persistence ----------------------------------------------------

    /// Ledger blob magic ("TrajShare Budget Accountant").
    pub const MAGIC: [u8; 4] = *b"TSBA";
    /// The one ledger blob version this build reads and writes.
    pub const VERSION: u16 = 2;

    /// Serializes the ledger (config, decided watermark, horizon
    /// entries, lifetime stats, grant history) into a sealed blob — what
    /// the ingestion service persists next to the window ring so the
    /// `w`-window invariant survives kill/restart.
    pub fn encode(&self) -> Vec<u8> {
        let body = 90 + 25 * self.ledger.len() + 33 * self.history.len();
        let mut s = Sealer::new(Self::MAGIC, Self::VERSION, body);
        s.u64(self.config.total_nano);
        s.u64(self.config.horizon as u64);
        let (tag, gain, threshold) = match self.config.policy {
            AllocationPolicy::Uniform => (0, 0.0, 0.0),
            AllocationPolicy::Adaptive { gain, threshold } => (1, gain, threshold),
        };
        s.u8(tag).f64(gain).f64(threshold);
        s.u8(self.decided.is_some() as u8);
        s.u64(self.decided.unwrap_or(0));
        s.u64(self.lifetime_granted_nano);
        s.u64(self.lifetime_spent_nano);
        s.u64(self.refused_windows);
        s.u64(self.ledger.len() as u64);
        for d in &self.ledger {
            s.u64(d.window).u64(d.granted_nano).u64(d.spent_nano);
            s.u8(d.refused as u8);
        }
        s.u64(self.epoch).u64(self.history.len() as u64);
        for r in &self.history {
            s.u64(r.window)
                .u64(r.epoch)
                .u64(r.granted_nano)
                .u64(r.settled_nano);
            s.u8(r.refused as u8);
        }
        s.seal()
    }

    /// Decodes [`WindowBudgetAccountant::encode`] output, refusing
    /// corruption and internal inconsistency (spend above grant,
    /// non-ascending ids, entries outside the horizon) rather than
    /// restoring a ledger that could over-grant.
    pub fn decode(buf: &[u8]) -> Result<WindowBudgetAccountant, BlobError> {
        let mut r = open(buf, Self::MAGIC, Self::VERSION)?;
        let flag = |b: u8| match b {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(BlobError::Inconsistent("flag byte not 0/1")),
        };
        let total_nano = r.u64()?;
        let horizon = r.u64()?;
        if total_nano == 0 || horizon == 0 {
            return Err(BlobError::Inconsistent("zero budget or horizon"));
        }
        let (adaptive, gain, threshold) = (flag(r.u8()?)?, r.f64()?, r.f64()?);
        let policy = match adaptive {
            false => AllocationPolicy::Uniform,
            true if gain.is_finite() && threshold.is_finite() => {
                AllocationPolicy::Adaptive { gain, threshold }
            }
            true => return Err(BlobError::Inconsistent("non-finite policy")),
        };
        let (has_decided, decided_raw) = (flag(r.u8()?)?, r.u64()?);
        let decided = has_decided.then_some(decided_raw);
        let lifetime_granted_nano = r.u64()?;
        let lifetime_spent_nano = r.u64()?;
        let refused_windows = r.u64()?;
        let n = r.count(horizon, 25)?;
        let mut ledger = VecDeque::with_capacity(n);
        for _ in 0..n {
            let (window, granted_nano, spent_nano) = (r.u64()?, r.u64()?, r.u64()?);
            let refused = flag(r.u8()?)?;
            let in_horizon = decided.is_some_and(|d| window <= d && d - window < horizon);
            let ascending = ledger
                .back()
                .is_none_or(|p: &WindowDecision| window > p.window);
            if spent_nano > granted_nano || !ascending || !in_horizon {
                return Err(BlobError::Inconsistent(
                    "ledger entry out of order or range",
                ));
            }
            ledger.push_back(WindowDecision {
                window,
                granted_nano,
                spent_nano,
                refused,
            });
        }
        let epoch = r.u64()?;
        let hn = r.count(Self::GRANT_HISTORY_CAP as u64, 33)?;
        let mut history = VecDeque::with_capacity(hn);
        for _ in 0..hn {
            let (window, r_epoch) = (r.u64()?, r.u64()?);
            let (granted_nano, settled_nano) = (r.u64()?, r.u64()?);
            let refused = flag(r.u8()?)?;
            // History is append-ordered by (monotonic) allocation,
            // and settlement only clamps within the grant.
            let ascending = history
                .back()
                .is_none_or(|p: &GrantRecord| window > p.window);
            if settled_nano > granted_nano || !ascending {
                return Err(BlobError::Inconsistent("history entry out of order"));
            }
            history.push_back(GrantRecord {
                window,
                epoch: r_epoch,
                granted_nano,
                settled_nano,
                refused,
            });
        }
        r.finish()?;
        let acct = WindowBudgetAccountant {
            config: WindowBudgetConfig {
                total_nano,
                horizon: horizon as usize,
                policy,
            },
            ledger,
            decided,
            lifetime_granted_nano,
            lifetime_spent_nano,
            refused_windows,
            epoch,
            history,
        };
        // Final gate: a ledger whose horizon already over-spends must
        // never be restored.
        if acct.sliding_spend_nano() > total_nano {
            return Err(BlobError::Inconsistent("horizon over-spent"));
        }
        Ok(acct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::crc32;
    use proptest::prelude::*;

    fn cfg(total: u64, horizon: usize, policy: AllocationPolicy) -> WindowBudgetConfig {
        WindowBudgetConfig::new(total, horizon, policy)
    }

    /// The invariant the tentpole is about: Σ spend over every `w`-window
    /// range of a full spend map never exceeds the total.
    fn assert_sliding_invariant(spends: &[(u64, u64)], total: u64, horizon: usize) {
        if spends.is_empty() {
            return;
        }
        let max_w = spends.iter().map(|&(w, _)| w).max().unwrap();
        // Half-open [start, start + w) so that start = 0 checks the
        // range containing window 0 — an exclusive lower bound would
        // leave every range with window 0 in it unverified.
        for start in 0..=max_w {
            let end = start + horizon as u64; // range [start, end)
            let sum: u64 = spends
                .iter()
                .filter(|&&(w, _)| w >= start && w < end)
                .map(|&(_, s)| s)
                .sum();
            assert!(
                sum <= total,
                "windows [{start}, {end}) spend {sum} > total {total}"
            );
        }
    }

    #[test]
    fn nano_conversions_roundtrip_on_the_grid() {
        for eps in [0.000_000_001, 0.5, 1.25, 5.0, 63.999_999_999] {
            let nano = eps_to_nano(eps);
            assert_eq!(eps_to_nano(nano_to_eps(nano)), nano, "eps={eps}");
        }
        assert_eq!(eps_to_nano(f64::NAN), 0);
        assert_eq!(eps_to_nano(-1.0), 0);
        assert_eq!(eps_to_nano(0.0), 0);
    }

    #[test]
    fn divergence_measures() {
        assert_eq!(l1_divergence(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert_eq!(l1_divergence(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert_eq!(l1_divergence(&[1.0], &[0.5, 0.5]), 1.0, "length mismatch");
    }

    #[test]
    fn uniform_grants_the_share_and_never_more_than_available() {
        let mut acct = WindowBudgetAccountant::new(cfg(900, 3, AllocationPolicy::Uniform));
        for w in 0..10 {
            let g = acct.allocate(w, 1.0);
            assert_eq!(g.granted_nano, 300, "window {w}");
        }
        assert_eq!(acct.sliding_spend_nano(), 900);
        // With every share spent, a horizon is exactly full — the next
        // window is only affordable because the oldest entry expires.
        assert_eq!(acct.available_nano(10), 300);
        // Settling one window down frees budget inside the horizon.
        acct.settle(9, 100).unwrap();
        assert_eq!(acct.available_nano(10), 500);
    }

    #[test]
    fn allocate_is_idempotent_and_monotonic() {
        let mut acct = WindowBudgetAccountant::new(cfg(1000, 4, AllocationPolicy::Uniform));
        let first = acct.allocate(5, 1.0);
        let again = acct.allocate(5, 0.0);
        assert_eq!(first.granted_nano, again.granted_nano);
        assert_eq!(acct.sliding_spend_nano(), 250, "no double record");
        // An older-than-decided window gets 0, not a fresh grant.
        assert_eq!(acct.allocate(3, 1.0).granted_nano, 0);
        assert_eq!(acct.decided(), Some(5));
    }

    #[test]
    fn settle_recycles_and_refuses() {
        let mut acct = WindowBudgetAccountant::new(cfg(1200, 3, AllocationPolicy::Uniform));
        let g = acct.allocate(0, 1.0);
        assert_eq!(g.granted_nano, 400);
        // Observed under grant: spend settles down, remainder recycled.
        let d = acct.settle(0, 150).unwrap();
        assert_eq!(d.spent_nano, 150);
        assert!(!d.refused);
        assert_eq!(acct.available_nano(1), 1050);
        assert_eq!(acct.recycled_nano(), 250);
        // Observed over grant: refused, but the full grant stays on the
        // books — the cohort randomized against the broadcast grant, so
        // that ε is spent whether or not the window is published.
        acct.allocate(1, 1.0);
        let d = acct.settle(1, 500).unwrap();
        assert!(d.refused);
        assert_eq!(d.spent_nano, 400, "refusal keeps the grant accounted");
        assert_eq!(acct.refused_windows(), 1);
        // Re-settling within grant un-refuses.
        let d = acct.settle(1, 399).unwrap();
        assert!(!d.refused);
        assert_eq!(d.spent_nano, 399);
        assert_eq!(acct.refused_windows(), 0);
        // Settling an expired/undecided window is a no-op.
        assert!(acct.settle(99, 1).is_none());
    }

    #[test]
    fn frozen_windows_keep_their_books() {
        let mut acct = WindowBudgetAccountant::new(cfg(1200, 3, AllocationPolicy::Uniform));
        acct.allocate(0, 1.0); // grant 400
        acct.settle(0, 300).unwrap(); // latest: settle to the observed 300
        acct.allocate(1, 1.0); // freezes window 0
                               // Lowering a frozen spend is ignored: the 300 was published and
                               // is irrevocable (recycling it could be re-granted and spent
                               // twice).
        let d = acct.settle(0, 100).unwrap();
        assert_eq!(d.spent_nano, 300);
        assert!(!d.refused);
        // An observation *above* the books refuses the window (the
        // surplus is unaccounted, so its data must stop being
        // published) while the spend stays on the ledger.
        let d = acct.settle(0, 350).unwrap();
        assert!(d.refused);
        assert_eq!(d.spent_nano, 300, "published spend is irrevocable");
        assert_eq!(acct.refused_windows(), 1);
        // A frozen refusal is sticky.
        let d = acct.settle(0, 300).unwrap();
        assert!(d.refused);
        // And the kept spend still constrains the horizon.
        assert_eq!(acct.available_nano(2), 1200 - 300 - 400);
    }

    #[test]
    fn adaptive_banks_quiet_windows_and_spends_on_shift() {
        let policy = AllocationPolicy::Adaptive {
            gain: 4.0,
            threshold: 0.05,
        };
        let total = 4_000u64;
        let mut acct = WindowBudgetAccountant::new(cfg(total, 4, policy));
        let share = acct.config().uniform_share(); // 1000
        let floor = acct.config().probe_floor(); // 250
                                                 // Quiet stream: only the probe floor is spent.
        for w in 0..4 {
            let g = acct.allocate(w, 0.01);
            assert_eq!(g.granted_nano, floor, "window {w}");
        }
        // Shift: the whole recycled pool is grantable at once — far more
        // than the uniform share.
        let g = acct.allocate(4, 0.9);
        assert_eq!(g.available_nano, total - 3 * floor);
        assert_eq!(g.granted_nano, g.available_nano, "full-shift grant");
        assert!(g.granted_nano > share);
        // Right after the burst the horizon is nearly exhausted: the next
        // quiet window still gets its (clamped) probe.
        let g = acct.allocate(5, 0.0);
        assert!(g.granted_nano <= floor);
    }

    #[test]
    fn significance_divergence_gates_on_sampling_noise() {
        let stationary = vec![0.25, 0.25, 0.25, 0.25];
        // Big cohorts, identical distributions: no significant movement.
        assert_eq!(
            significance_divergence(&stationary, &stationary, 10_000, 10_000),
            0.0
        );
        // A genuine shift with big cohorts clears the floor.
        let shifted = vec![0.70, 0.10, 0.10, 0.10];
        assert!(significance_divergence(&stationary, &shifted, 10_000, 10_000) > 0.3);
        // The same shift from cohorts of 3 reports is indistinguishable
        // from sampling noise: not significant.
        assert_eq!(significance_divergence(&stationary, &shifted, 3, 3), 0.0);
        // Nothing to compare against ⇒ full shift (buy data).
        assert_eq!(significance_divergence(&[], &[], 10, 10), 1.0);
        assert_eq!(significance_divergence(&stationary, &shifted, 0, 10), 1.0);
        assert_eq!(
            significance_divergence(&[0.0, 0.0], &[0.5, 0.5], 10, 10),
            1.0
        );
        // Non-finite mass is ignored, not propagated.
        let dirty = vec![f64::NAN, 0.5, 0.5, f64::INFINITY];
        let d = significance_divergence(&dirty, &stationary, 1000, 1000);
        assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn grant_history_records_epochs_and_settlements() {
        let mut acct = WindowBudgetAccountant::new(cfg(1200, 3, AllocationPolicy::Uniform));
        assert_eq!(acct.current_epoch(), 0);
        assert!(acct.latest_grant().is_none());
        let g0 = acct.allocate(0, 1.0);
        let g1 = acct.allocate(1, 1.0);
        assert_eq!((g0.epoch, g1.epoch), (1, 2));
        // Idempotent re-ask returns the original epoch, no new entry.
        assert_eq!(acct.allocate(0, 1.0).epoch, 1);
        assert_eq!(acct.grant_history().count(), 2);
        // Settlement updates the record in place.
        acct.settle(1, 123).unwrap();
        let latest = acct.latest_grant().unwrap();
        assert_eq!(latest.window, 1);
        assert_eq!(latest.granted_nano, 400);
        assert_eq!(latest.settled_nano, 123);
        assert!(!latest.refused);
        // History outlives the enforcement ledger's horizon: after many
        // more windows, window 0 is long out of the ledger but still in
        // the history with its settled books.
        for w in 2..20 {
            acct.allocate(w, 1.0);
        }
        assert!(acct.decision(0).is_none(), "ledger trimmed at horizon");
        assert!(acct.grant_history().any(|r| r.window == 0));
        // The cap bounds the history independently of the horizon.
        let mut acct = WindowBudgetAccountant::new(cfg(u64::MAX / 2, 2, AllocationPolicy::Uniform));
        for w in 0..(WindowBudgetAccountant::GRANT_HISTORY_CAP as u64 + 40) {
            acct.allocate(w, 0.5);
        }
        assert_eq!(
            acct.grant_history().count(),
            WindowBudgetAccountant::GRANT_HISTORY_CAP
        );
        assert_eq!(
            acct.current_epoch(),
            WindowBudgetAccountant::GRANT_HISTORY_CAP as u64 + 40
        );
    }

    #[test]
    fn codec_roundtrips_and_refuses_corruption() {
        let mut acct =
            WindowBudgetAccountant::new(cfg(5_000_000_000, 4, AllocationPolicy::adaptive()));
        for w in 0..7 {
            acct.allocate(w, if w == 3 { 1.0 } else { 0.02 });
            acct.settle(w, 300_000_000 * (w % 3)).unwrap();
        }
        let blob = acct.encode();
        let back = WindowBudgetAccountant::decode(&blob).unwrap();
        assert_eq!(back, acct);
        // Corruption is refused.
        let mut bad = blob.clone();
        bad[9] ^= 0x10;
        assert!(WindowBudgetAccountant::decode(&bad).is_err());
        assert!(WindowBudgetAccountant::decode(&blob[..20]).is_err());
        // Version 1 (never written by any deployment) is rejected.
        let mut v1 = blob[..blob.len() - 4].to_vec();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&crc32(&v1).to_le_bytes());
        assert_eq!(
            WindowBudgetAccountant::decode(&v1),
            Err(BlobError::UnsupportedVersion(1))
        );
        // A hand-built over-spent ledger is refused even with a valid CRC.
        let mut evil = WindowBudgetAccountant::new(cfg(100, 2, AllocationPolicy::Uniform));
        evil.allocate(0, 1.0);
        evil.allocate(1, 1.0);
        evil.ledger[0].spent_nano = 90;
        evil.ledger[0].granted_nano = 90;
        evil.ledger[1].spent_nano = 90;
        evil.ledger[1].granted_nano = 90;
        assert!(WindowBudgetAccountant::decode(&evil.encode()).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The tentpole property: under any interleaving of allocations
        /// (arbitrary divergences, arbitrary window gaps), settlements
        /// (arbitrary observed spends), policies, and encode/decode
        /// round-trips mid-stream, the full spend map never exceeds the
        /// total over ANY `w` consecutive windows.
        #[test]
        fn sliding_spend_never_exceeds_total(
            total in 1u64..5_000,
            horizon in 1usize..6,
            adaptive in 0u32..2,
            steps in proptest::collection::vec(
                (0u64..4, 0u64..2_000, 0u32..100, 0u32..2),
                1..60
            ),
        ) {
            let policy = if adaptive == 1 {
                AllocationPolicy::Adaptive { gain: 4.0, threshold: 0.05 }
            } else {
                AllocationPolicy::Uniform
            };
            let mut acct = WindowBudgetAccountant::new(cfg(total, horizon, policy));
            // The externally visible spend map: every window's final
            // recorded spend (expired entries keep their last value —
            // expiry only stops them constraining *future* windows, it
            // does not un-spend them).
            let mut spend_map: Vec<(u64, u64)> = Vec::new();
            let mut next_window = 0u64;
            for (gap, observed, div_pct, roundtrip) in steps {
                let w = next_window + gap;
                next_window = w + 1;
                let divergence = div_pct as f64 / 100.0;
                let grant = acct.allocate(w, divergence);
                prop_assert!(grant.granted_nano <= grant.available_nano);
                let settled = acct.settle(w, observed).map(|d| d.spent_nano);
                let spent = settled.unwrap_or(grant.granted_nano);
                spend_map.push((w, spent));
                assert_sliding_invariant(&spend_map, total, horizon);
                // Interleaved re-settle of a frozen window exercises the
                // only-downward rule — the re-granted slack of a settled
                // window must never be spendable twice.
                if let Some(d) = acct.settle(w.saturating_sub(2), observed) {
                    if let Some(e) = spend_map.iter_mut().find(|e| e.0 == w.saturating_sub(2)) {
                        e.1 = d.spent_nano;
                    }
                    assert_sliding_invariant(&spend_map, total, horizon);
                }
                if roundtrip == 1 {
                    let back = WindowBudgetAccountant::decode(&acct.encode()).unwrap();
                    prop_assert_eq!(&back, &acct, "codec must be lossless");
                    acct = back;
                }
            }
            // The ledger's own view agrees with the external map's tail.
            prop_assert!(acct.sliding_spend_nano() <= total);
        }
    }
}
