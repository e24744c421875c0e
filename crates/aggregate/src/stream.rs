//! Real-time sliding-window aggregation and synthesis (the RetraSyn
//! workload): a ring of per-window [`AggregateCounts`] keyed by the
//! report timestamp, an O(1)-per-advance eviction scheme that retires the
//! oldest window by *subtraction* (never by re-ingesting surviving
//! reports), and a warm-started incremental estimator so each publication
//! tick costs a few IBU iterations instead of a cold solve.
//!
//! ## Window semantics
//!
//! Report time is public metadata (wire v3 carries it; v2 reports decode
//! as window 0). Window `w` covers timestamps `[w·len, (w+1)·len)`. The
//! ring holds the `num_windows` most recent windows `(newest −
//! num_windows, newest]`; `newest` advances monotonically as newer
//! reports arrive (or via [`WindowedAggregator::advance_to`], e.g. from a
//! server clock). A report older than the ring's span is counted in
//! [`WindowedAggregator::late`] and otherwise ignored.
//!
//! The ring's content is **order-independent**: after any interleaving of
//! ingests and advances, the live windows hold exactly the reports whose
//! window lies in `(newest − num_windows, newest]` — what a from-scratch
//! aggregation of the surviving reports would produce, bit for bit
//! (property-tested below). That is also why crash recovery can rebuild
//! the ring from per-shard snapshots plus WAL tails in any merge order.
//!
//! Timestamps are *client-declared* at this layer: a hostile far-future
//! timestamp advances `newest` and evicts the ring early (bounded trust,
//! same as trusting a device clock). The ingestion service mitigates
//! both sides of that trust at the collector edge —
//! `StreamServerConfig::server_clock` stamps `t` from the server clock,
//! and `StreamServerConfig::max_conn_advance` budgets how many windows a
//! single connection may advance the watermark (see
//! `trajshare_service::server`).

use crate::batch::ReportBatch;
use crate::estimate::{norm_sub, EmChannel, EstimatorBackend, IbuSolver};
use crate::ingest::{accumulate, accumulate_columns, AggregateCounts, BatchCols};
use crate::linalg::CsrPattern;
use crate::markov::{joint_to_feasible_rows, normalize_counts, MobilityModel};
use crate::report::Report;
use trajshare_core::blob::{open, BlobError, Sealer};
use trajshare_core::RegionGraph;

/// Sliding-window shape: how long a window is (in the public timestamp
/// unit of `Report::t`) and how many trailing windows stay live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Timestamp units per window (e.g. seconds). Must be ≥ 1.
    pub window_len: u64,
    /// Ring capacity: windows kept live. Must be ≥ 1.
    pub num_windows: usize,
}

impl WindowConfig {
    /// The window index a timestamp falls in.
    #[inline]
    pub fn window_of(&self, t: u64) -> u64 {
        t / self.window_len.max(1)
    }
}

/// What [`WindowedAggregator::ingest`] did with a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowIngest {
    /// Counted into a live window (possibly advancing the ring first).
    Accepted,
    /// Older than the ring's span: counted in `late`, not aggregated.
    Late,
}

/// One ring slot: the absolute window id it holds (if any), that
/// window's counters, and the per-window privacy-budget spend recorded
/// by the accountant (see [`crate::budget`]). Counters are kept
/// allocated across evictions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Slot {
    id: Option<u64>,
    counts: AggregateCounts,
    /// Nano-ε the budget accountant recorded as this window's published
    /// per-user spend. Purely an annotation — it rides along through
    /// codec, merge, and recovery so `--dump-counts` and a restarted
    /// accountant can see it, but never affects the counters.
    spent_nano: u64,
}

/// A sliding window of [`AggregateCounts`] with exact, report-free
/// eviction.
///
/// * `ingest` is `O(report size)` — the report is accumulated into its
///   window's slot *and* into the running merged view.
/// * advancing by one window is `O(|R|²)` (one counter subtraction) and
///   `O(1)` in the number of reports ever ingested — the property the
///   `stream_tick` bench tracks.
/// * `merged` is always bit-identical to summing the live slots (and to
///   a from-scratch aggregation of the surviving reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedAggregator {
    region_tile: Vec<u16>,
    config: WindowConfig,
    slots: Vec<Slot>,
    /// Newest window id the ring has advanced to. Live range is
    /// `(newest − num_windows, newest]`.
    newest: u64,
    merged: AggregateCounts,
    /// Reports dropped as older than the ring span.
    late: u64,
    /// Windows retired by advance (for monitoring).
    evicted_windows: u64,
}

impl WindowedAggregator {
    /// An empty ring over the given public tile table (see
    /// `trajshare_aggregate::region_tiles`).
    pub fn new(region_tile: Vec<u16>, config: WindowConfig) -> Self {
        assert!(config.window_len >= 1, "window_len must be >= 1");
        assert!(config.num_windows >= 1, "num_windows must be >= 1");
        let num_regions = region_tile.len();
        let slots = (0..config.num_windows)
            .map(|_| Slot {
                id: None,
                counts: AggregateCounts::new(num_regions),
                spent_nano: 0,
            })
            .collect();
        WindowedAggregator {
            region_tile,
            config,
            slots,
            newest: 0,
            merged: AggregateCounts::new(num_regions),
            late: 0,
            evicted_windows: 0,
        }
    }

    /// The ring's window shape.
    #[inline]
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// Newest window id the ring has advanced to.
    #[inline]
    pub fn newest_window(&self) -> u64 {
        self.newest
    }

    /// Oldest window id still live.
    #[inline]
    pub fn oldest_window(&self) -> u64 {
        self.newest
            .saturating_sub(self.config.num_windows as u64 - 1)
    }

    /// Reports dropped as older than the ring span.
    #[inline]
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Windows retired by eviction so far.
    #[inline]
    pub fn evicted_windows(&self) -> u64 {
        self.evicted_windows
    }

    /// The merged current-window view: Σ of every live window's counters,
    /// maintained incrementally (adds on ingest, subtracts on eviction).
    #[inline]
    pub fn merged(&self) -> &AggregateCounts {
        &self.merged
    }

    /// The counters of one live window, if it holds data.
    pub fn window_counts(&self, id: u64) -> Option<&AggregateCounts> {
        let slot = &self.slots[(id % self.config.num_windows as u64) as usize];
        (slot.id == Some(id)).then_some(&slot.counts)
    }

    /// Records the privacy-budget spend the accountant settled for a
    /// live window (overwriting any earlier value — the accountant is
    /// the authority, the ring is its durable mirror). Returns `false`
    /// when the window is outside the live span or holds no data (a
    /// dataless window's settled spend is 0 anyway, and claiming an
    /// empty slot for an annotation would make phantom windows appear in
    /// publications).
    pub fn record_spend(&mut self, id: u64, nano: u64) -> bool {
        if id > self.newest || id < self.oldest_window() {
            return false;
        }
        let slot = &mut self.slots[(id % self.config.num_windows as u64) as usize];
        if slot.id != Some(id) {
            return false;
        }
        slot.spent_nano = nano;
        true
    }

    /// The recorded budget spend of one live window (0 when absent).
    pub fn window_spend(&self, id: u64) -> u64 {
        let slot = &self.slots[(id % self.config.num_windows as u64) as usize];
        if slot.id == Some(id) {
            slot.spent_nano
        } else {
            0
        }
    }

    /// Live `(window id, recorded spend)` pairs with a nonzero spend,
    /// ascending — what recovery feeds back into a fresh accountant.
    pub fn window_spends(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter_map(|s| s.id.map(|id| (id, s.spent_nano)))
            .filter(|&(_, spent)| spent > 0)
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Sums the counters of every live window whose id passes `keep` —
    /// the budget-filtered alternative to [`WindowedAggregator::merged`]:
    /// a window the accountant refused is excluded from the published
    /// estimate without touching the ring itself.
    pub fn merged_where(&self, keep: impl Fn(u64) -> bool) -> AggregateCounts {
        let mut total = AggregateCounts::new(self.region_tile.len());
        for (id, counts) in self.windows() {
            if keep(id) {
                total.merge(counts);
            }
        }
        total
    }

    /// Live `(window id, counters)` pairs in ascending window order.
    pub fn windows(&self) -> Vec<(u64, &AggregateCounts)> {
        let mut out: Vec<(u64, &AggregateCounts)> = self
            .slots
            .iter()
            .filter_map(|s| s.id.map(|id| (id, &s.counts)))
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Folds one report into its timestamp's window, advancing the ring
    /// if the report opens a newer window.
    pub fn ingest(&mut self, report: &Report) -> WindowIngest {
        let w = self.config.window_of(report.t);
        if w > self.newest {
            self.advance_to(w);
        } else if w < self.oldest_window() {
            self.late += 1;
            return WindowIngest::Late;
        }
        let slot = &mut self.slots[(w % self.config.num_windows as u64) as usize];
        debug_assert!(slot.id.is_none() || slot.id == Some(w), "stale slot");
        slot.id = Some(w);
        accumulate(&mut slot.counts, &self.region_tile, report);
        accumulate(&mut self.merged, &self.region_tile, report);
        WindowIngest::Accepted
    }

    /// Folds a decoded `TSR4` batch into the ring, column-wise: the
    /// batch is walked as runs of consecutive reports sharing a window
    /// id, and each run is accumulated with one pair of
    /// `accumulate_columns` calls (slot + merged view) instead of
    /// per-report dispatch. Bit-identical to
    /// `for r in batch.reports() { self.ingest(&r) }` — the ring
    /// advances at the same points, counters are order-insensitive
    /// sums, and late reports are dropped per run exactly as serial
    /// ingest drops them per report. Returns `(accepted, late)` report
    /// counts.
    pub fn ingest_batch(&mut self, batch: &ReportBatch) -> (u64, u64) {
        let n = batch.num_reports();
        let span = self.config.num_windows as u64;
        let (mut accepted, mut late) = (0u64, 0u64);
        let (mut i, mut u0, mut e0, mut t0) = (0usize, 0usize, 0usize, 0usize);
        while i < n {
            let w = self.config.window_of(batch.t_of(i));
            let (mut j, mut u1, mut e1, mut t1) = (i, u0, e0, t0);
            while j < n && self.config.window_of(batch.t_of(j)) == w {
                u1 += batch.n_uni[j] as usize;
                e1 += batch.n_exact[j] as usize;
                t1 += batch.n_trans[j] as usize;
                j += 1;
            }
            let run = (j - i) as u64;
            if w > self.newest {
                self.advance_to(w);
            } else if w < self.oldest_window() {
                self.late += run;
                late += run;
                (i, u0, e0, t0) = (j, u1, e1, t1);
                continue;
            }
            let cols = BatchCols {
                eps_nano: batch.eps_nano,
                len: batch.len,
                num_reports: run,
                uni_pos: &batch.uni_pos[u0..u1],
                uni_region: &batch.uni_region[u0..u1],
                exact_pos: &batch.exact_pos[e0..e1],
                exact_region: &batch.exact_region[e0..e1],
                trans_tail: &batch.trans_tail[t0..t1],
                trans_head: &batch.trans_head[t0..t1],
            };
            let slot = &mut self.slots[(w % span) as usize];
            debug_assert!(slot.id.is_none() || slot.id == Some(w), "stale slot");
            slot.id = Some(w);
            accumulate_columns(&mut slot.counts, &self.region_tile, &cols);
            accumulate_columns(&mut self.merged, &self.region_tile, &cols);
            accepted += run;
            (i, u0, e0, t0) = (j, u1, e1, t1);
        }
        (accepted, late)
    }

    /// Advances the ring to `newest = w`, retiring every window that
    /// falls out of the span by subtracting its counters from the merged
    /// view — cost is at most `num_windows` counter subtractions, and
    /// *zero* work proportional to report volume.
    pub fn advance_to(&mut self, w: u64) {
        if w <= self.newest {
            return;
        }
        let span = self.config.num_windows as u64;
        if w - self.newest >= span {
            // Jumped past the whole ring: everything live is evicted.
            for slot in &mut self.slots {
                if slot.id.take().is_some() {
                    self.merged.subtract(&slot.counts);
                    slot.counts.clear();
                    slot.spent_nano = 0;
                    self.evicted_windows += 1;
                }
            }
        } else {
            for id in (self.newest + 1)..=w {
                let slot = &mut self.slots[(id % span) as usize];
                if slot.id.take().is_some() {
                    self.merged.subtract(&slot.counts);
                    slot.counts.clear();
                    slot.spent_nano = 0;
                    self.evicted_windows += 1;
                }
            }
        }
        // `subtract` keeps eps_nano_max as a high-water mark (a max is
        // not invertible from counters); the live slots still hold their
        // exact per-window maxes, so the merged view's max is recomputed
        // here — keeping `merged` bit-identical to a from-scratch
        // aggregation of the surviving reports.
        self.merged.eps_nano_max = self
            .slots
            .iter()
            .filter(|s| s.id.is_some())
            .map(|s| s.counts.eps_nano_max)
            .max()
            .unwrap_or(0);
        self.newest = w;
    }

    /// Merges another window's counters in (the recovery / cross-shard
    /// publication primitive): advances to `id` if it is newer, drops it
    /// as *evicted* if it has already slid out of this ring's span, sums
    /// it into the live slot otherwise. A dropped window counts toward
    /// [`WindowedAggregator::evicted_windows`], **not** `late` — its
    /// reports were accepted on time on their shard and merely slid out
    /// of the merged view, exactly like an in-ring eviction. Window ids
    /// are absolute, so merging any number of per-shard rings in any
    /// order yields the same global ring.
    pub fn merge_window(&mut self, id: u64, counts: &AggregateCounts) {
        if id > self.newest {
            self.advance_to(id);
        } else if id < self.oldest_window() {
            self.evicted_windows += 1;
            return;
        }
        let slot = &mut self.slots[(id % self.config.num_windows as u64) as usize];
        debug_assert!(slot.id.is_none() || slot.id == Some(id), "stale slot");
        slot.id = Some(id);
        slot.counts.merge(counts);
        self.merged.merge(counts);
    }

    /// Merges every live window of `other` (plus its `newest` watermark,
    /// even when that window holds no data yet).
    pub fn merge_ring(&mut self, other: &WindowedAggregator) {
        assert_eq!(self.config, other.config, "window config mismatch");
        self.advance_to(other.newest);
        for (id, counts) in other.windows() {
            self.merge_window(id, counts);
        }
        // Spend annotations are global facts recorded by whichever rings
        // the budget-holder mirrored them to (the base ring and any
        // shard ring holding the window's data), so a merge takes the
        // max rather than summing.
        for (id, spent) in other.window_spends() {
            if id <= self.newest && id >= self.oldest_window() {
                let slot = &mut self.slots[(id % self.config.num_windows as u64) as usize];
                if slot.id == Some(id) {
                    slot.spent_nano = slot.spent_nano.max(spent);
                }
            }
        }
        self.late += other.late;
    }

    // ---- persistence ----------------------------------------------------

    /// Ring snapshot magic ("TrajShare Window Ring").
    pub const RING_MAGIC: [u8; 4] = *b"TSWR";

    /// The one ring snapshot format version this build reads and writes.
    pub const RING_VERSION: u16 = 2;

    /// Serializes the ring (config, watermark, live windows with their
    /// recorded budget spends) into a sealed blob: header fields, then
    /// one embedded counts snapshot per live window. The merged view is
    /// *not* stored — it is recomputed on decode as the sum of the live
    /// slots, which is bit-identical by construction.
    ///
    /// Body of `TSWR` version 2: `window_len`, `num_windows`, `newest`,
    /// `late`, `evicted_windows`, live-window count (each `u64`), then
    /// per live window `id u64 · spent_nano u64 · snapshot length u64 ·
    /// TSC1 blob`.
    pub fn encode_ring(&self) -> Vec<u8> {
        let live = self.windows();
        let mut s = Sealer::new(Self::RING_MAGIC, Self::RING_VERSION, 48);
        s.u64s(&[
            self.config.window_len,
            self.config.num_windows as u64,
            self.newest,
            self.late,
            self.evicted_windows,
            live.len() as u64,
        ]);
        for (id, counts) in live {
            let snap = counts.encode_snapshot();
            s.u64(id).u64(self.window_spend(id)).u64(snap.len() as u64);
            s.bytes(&snap);
        }
        s.seal()
    }

    /// Decodes [`WindowedAggregator::encode_ring`] output. The stored
    /// window shape must match `config` and every embedded snapshot must
    /// match the universe of `region_tile` — a mismatch is refused rather
    /// than silently re-bucketed.
    pub fn decode_ring(
        buf: &[u8],
        region_tile: &[u16],
        config: WindowConfig,
    ) -> Result<WindowedAggregator, BlobError> {
        let mut r = open(buf, Self::RING_MAGIC, Self::RING_VERSION)?;
        let (window_len, num_windows) = (r.u64()?, r.u64()?);
        let (newest, late, evicted) = (r.u64()?, r.u64()?, r.u64()?);
        if window_len != config.window_len || num_windows != config.num_windows as u64 {
            return Err(BlobError::Inconsistent("window shape mismatch"));
        }
        let n_live = r.count(num_windows, 24)?;
        let mut ring = WindowedAggregator::new(region_tile.to_vec(), config);
        ring.advance_to(newest);
        ring.late = late;
        ring.evicted_windows = evicted;
        for _ in 0..n_live {
            let (id, spent_nano, len) = (r.u64()?, r.u64()?, r.u64()?);
            let counts = AggregateCounts::decode_snapshot(r.bytes(len as usize)?)?;
            if counts.num_regions != region_tile.len() {
                return Err(BlobError::Inconsistent("region universe mismatch"));
            }
            if id > newest || id < ring.oldest_window() {
                return Err(BlobError::Inconsistent("window outside the ring"));
            }
            ring.merge_window(id, &counts);
            if spent_nano > 0 {
                ring.record_spend(id, spent_nano);
            }
        }
        r.finish()?;
        Ok(ring)
    }
}

/// The raw (pre-consistency) IBU posteriors a tick carries forward as
/// the next tick's warm start.
#[derive(Debug, Clone)]
struct Posterior {
    start: Vec<f64>,
    end: Vec<f64>,
    occupancy: Vec<f64>,
    joint: Vec<f64>,
}

/// Incremental per-tick model estimation: a cold IBU solve on the first
/// tick, then warm starts from the previous tick's posterior — so a tick
/// over a slowly drifting window costs `warm_iters` iterations (a few)
/// instead of a cold solve (hundreds).
///
/// Determinism: a tick's output depends only on the counter values, the
/// graph, and the estimator's posterior state — never on how the counters
/// were accumulated — so a recovered server's next publication matches an
/// uninterrupted one given the same tick sequence.
#[derive(Debug, Clone)]
pub struct StreamingEstimator {
    cold_iters: usize,
    warm_iters: usize,
    /// Backend dispatch plus the kernel scratch, which persists across
    /// ticks — a warm tick allocates no matrix-sized buffers beyond its
    /// outputs.
    solver: IbuSolver,
    /// Cached `W₂` pattern (SparseW₂ backend only), rebuilt when the
    /// universe size changes — same invalidation rule as the posterior.
    /// Like the posterior cache, a caller that swaps to a *different*
    /// graph of identical size must start a fresh estimator.
    w2: Option<CsrPattern>,
    posterior: Option<Posterior>,
}

impl StreamingEstimator {
    /// Default cold-solve iteration budget (first tick / after reset).
    pub const DEFAULT_COLD_ITERS: usize = 600;
    /// Default warm-tick iteration budget.
    pub const DEFAULT_WARM_ITERS: usize = 12;

    /// An estimator with the default iteration budgets.
    pub fn new() -> Self {
        Self::with_iters(Self::DEFAULT_COLD_ITERS, Self::DEFAULT_WARM_ITERS)
    }

    /// An estimator with explicit cold/warm iteration budgets on the
    /// default (dense) backend.
    pub fn with_iters(cold_iters: usize, warm_iters: usize) -> Self {
        Self::with_backend(cold_iters, warm_iters, EstimatorBackend::default())
    }

    /// An estimator with explicit iteration budgets on an explicit
    /// kernel backend. Warm starts survive the backend choice: the
    /// carried posterior is always the dense layout, and every backend
    /// both consumes and produces it (the sparse backend projects it
    /// onto `W₂`).
    pub fn with_backend(cold_iters: usize, warm_iters: usize, backend: EstimatorBackend) -> Self {
        assert!(cold_iters >= 1 && warm_iters >= 1);
        StreamingEstimator {
            cold_iters,
            warm_iters,
            solver: IbuSolver::new(backend),
            w2: None,
            posterior: None,
        }
    }

    /// The kernel backend ticks run on.
    pub fn backend(&self) -> EstimatorBackend {
        self.solver.backend()
    }

    /// Whether the next tick will warm-start.
    pub fn is_warm(&self) -> bool {
        self.posterior.is_some()
    }

    /// Estimates the mobility model for the current merged window,
    /// warm-starting from the previous tick's posterior when one exists.
    pub fn tick(&mut self, counts: &AggregateCounts, graph: &RegionGraph) -> MobilityModel {
        assert_eq!(counts.num_regions, graph.num_regions(), "universe mismatch");
        let n = counts.num_regions;
        let eps = counts.mean_eps_prime();
        let channel = (eps > 0.0).then(|| EmChannel::unigram(graph, eps));
        // A posterior carried across a region-universe change is useless
        // as a prior and would trip the warm-start length asserts; fall
        // back to a cold solve instead.
        let prior = self
            .posterior
            .take()
            .filter(|p| p.start.len() == n && p.joint.len() == n * n);
        let iters = if prior.is_some() {
            self.warm_iters
        } else {
            self.cold_iters
        };

        if matches!(self.solver.backend(), EstimatorBackend::SparseW2)
            && self.w2.as_ref().map(CsrPattern::len) != Some(n)
        {
            self.w2 = Some(CsrPattern::from_graph(graph));
        }
        let w2 = self.w2.as_ref();
        let solver = &mut self.solver;
        let mut raw_vec = |c: &[u64], p: Option<&[f64]>| match &channel {
            Some(ch) => solver.frequencies(ch, c, iters, p),
            None => normalize_counts(c),
        };
        let start = raw_vec(&counts.starts, prior.as_ref().map(|p| p.start.as_slice()));
        let end = raw_vec(&counts.ends, prior.as_ref().map(|p| p.end.as_slice()));
        let occ_counts = if counts.occupancy_exact.iter().any(|&c| c > 0) {
            &counts.occupancy_exact
        } else {
            &counts.occupancy
        };
        let occupancy = raw_vec(occ_counts, prior.as_ref().map(|p| p.occupancy.as_slice()));
        let joint = match &channel {
            Some(ch) => solver.joint(
                ch,
                &counts.transitions,
                iters,
                prior.as_ref().map(|p| p.joint.as_slice()),
                w2,
            ),
            None => normalize_counts(&counts.transitions),
        };
        self.posterior = Some(Posterior {
            start: start.clone(),
            end: end.clone(),
            occupancy: occupancy.clone(),
            joint: joint.clone(),
        });

        let consistent = |mut v: Vec<f64>| {
            norm_sub(&mut v);
            v
        };
        let mut joint_c = joint;
        norm_sub(&mut joint_c);
        let transition = joint_to_feasible_rows(&joint_c, graph);
        let total_len: u64 = counts.length_hist.iter().sum();
        let length = if total_len == 0 {
            Vec::new()
        } else {
            counts
                .length_hist
                .iter()
                .map(|&c| c as f64 / total_len as f64)
                .collect()
        };
        MobilityModel {
            num_regions: n,
            start: consistent(start),
            end: consistent(end),
            occupancy: consistent(occupancy),
            transition,
            length,
            debiased: channel.is_some(),
        }
    }
}

impl Default for StreamingEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::Aggregator;
    use crate::snapshot::crc32;
    use proptest::prelude::*;

    const REGIONS: usize = 5;

    fn cfg(window_len: u64, num_windows: usize) -> WindowConfig {
        WindowConfig {
            window_len,
            num_windows,
        }
    }

    fn toy_report(i: u32, t: u64) -> Report {
        let a = i % REGIONS as u32;
        let b = (a + 1) % REGIONS as u32;
        Report {
            t,
            eps_prime: 0.5 + (i % 4) as f64 * 0.25,
            len: 2,
            unigrams: vec![(0, a), (1, b)],
            exact: vec![(0, a)],
            transitions: vec![(a, b)],
        }
    }

    fn fresh(config: WindowConfig) -> WindowedAggregator {
        WindowedAggregator::new(vec![0u16; REGIONS], config)
    }

    /// From-scratch aggregation of the reports surviving in
    /// `(newest − W, newest]` — the reference the ring must match.
    fn recount(reports: &[Report], config: WindowConfig, newest: u64) -> AggregateCounts {
        let oldest = newest.saturating_sub(config.num_windows as u64 - 1);
        let mut agg = Aggregator::from_region_tiles(vec![0u16; REGIONS]);
        for r in reports {
            let w = config.window_of(r.t);
            if w >= oldest && w <= newest {
                agg.ingest(r);
            }
        }
        agg.into_counts()
    }

    #[test]
    fn merged_view_tracks_ingest_and_eviction() {
        let config = cfg(10, 3);
        let mut ring = fresh(config);
        let mut all = Vec::new();
        // Windows 0, 1, 2: all live.
        for i in 0..30u32 {
            let r = toy_report(i, (i as u64 % 3) * 10);
            ring.ingest(&r);
            all.push(r);
        }
        assert_eq!(ring.newest_window(), 2);
        assert_eq!(ring.merged(), &recount(&all, config, 2));
        assert_eq!(ring.windows().len(), 3);
        // Window 3 arrives: window 0 must be evicted exactly.
        let r = toy_report(99, 31);
        ring.ingest(&r);
        all.push(r);
        assert_eq!(ring.newest_window(), 3);
        assert_eq!(ring.oldest_window(), 1);
        assert_eq!(ring.merged(), &recount(&all, config, 3));
        assert_eq!(ring.evicted_windows(), 1);
        assert!(ring.window_counts(0).is_none());
        // A straggler from window 0 is late, and changes nothing.
        assert_eq!(ring.ingest(&toy_report(7, 5)), WindowIngest::Late);
        assert_eq!(ring.late(), 1);
        assert_eq!(ring.merged(), &recount(&all, config, 3));
    }

    #[test]
    fn batched_ring_ingest_is_bit_identical_to_serial() {
        // One batch mixing windows (with an in-batch advance), then a
        // far jump, then a batch whose first run is late: the batched
        // path must land byte-identically on the serial ring.
        let config = cfg(10, 3);
        let fixed = |i: u32, t: u64| {
            let mut r = toy_report(i, t);
            r.eps_prime = 0.75; // shared batch key
            r
        };
        let chunks: Vec<Vec<Report>> = vec![
            vec![
                fixed(0, 0),
                fixed(1, 5),
                fixed(2, 12),
                fixed(3, 25),
                fixed(4, 8),
            ],
            vec![fixed(5, 35), fixed(6, 40)],
            vec![fixed(7, 2), fixed(8, 41)],
        ];
        let mut serial = fresh(config);
        for r in chunks.iter().flatten() {
            serial.ingest(r);
        }
        let mut batched = fresh(config);
        let (mut accepted, mut late) = (0u64, 0u64);
        for chunk in &chunks {
            let batch = ReportBatch::from_reports(chunk).unwrap();
            let (a, l) = batched.ingest_batch(&batch);
            accepted += a;
            late += l;
        }
        assert_eq!(accepted, 8);
        assert_eq!(late, 1);
        assert_eq!(batched.late(), serial.late());
        assert_eq!(batched.evicted_windows(), serial.evicted_windows());
        assert_eq!(batched.merged(), serial.merged());
        assert_eq!(batched.encode_ring(), serial.encode_ring());
    }

    proptest! {
        #[test]
        fn batched_ring_ingest_matches_serial_on_random_streams(
            ts in proptest::collection::vec(0u64..120, 1..200),
            chunk in 1usize..9,
        ) {
            // Chunks are sorted so each satisfies the batch contract
            // (first report holds the minimum t); the serial reference
            // ingests the identical re-ordered stream.
            let config = cfg(10, 4);
            let mut serial = fresh(config);
            let mut batched = fresh(config);
            for (ci, ts) in ts.chunks(chunk).enumerate() {
                let mut ts = ts.to_vec();
                ts.sort_unstable();
                let reports: Vec<Report> = ts
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        let mut r = toy_report((ci * 31 + i) as u32, t);
                        r.eps_prime = 1.25;
                        r
                    })
                    .collect();
                for r in &reports {
                    serial.ingest(r);
                }
                let batch = ReportBatch::from_reports(&reports).unwrap();
                batched.ingest_batch(&batch);
            }
            prop_assert_eq!(batched.merged(), serial.merged());
            prop_assert_eq!(batched.late(), serial.late());
            prop_assert_eq!(batched.encode_ring(), serial.encode_ring());
        }
    }

    #[test]
    fn eviction_boundaries_are_exact() {
        let config = cfg(1, 2);
        let mut ring = fresh(config);
        // t = 0 and t = 1 are different windows; t = 1 vs t = 2 evicts 0.
        ring.ingest(&toy_report(1, 0));
        ring.ingest(&toy_report(2, 1));
        assert_eq!(ring.windows().len(), 2);
        ring.ingest(&toy_report(3, 2));
        assert_eq!(ring.oldest_window(), 1);
        assert_eq!(ring.window_counts(0), None);
        assert_eq!(ring.merged().num_reports, 2);
        // Advancing far past the ring clears everything in one step.
        ring.advance_to(1_000);
        assert_eq!(ring.merged().num_reports, 0);
        assert_eq!(ring.windows().len(), 0);
        assert_eq!(ring.evicted_windows(), 3);
        // And the cleared ring keeps working.
        ring.ingest(&toy_report(4, 1_000));
        assert_eq!(ring.merged().num_reports, 1);
    }

    #[test]
    fn ring_merge_is_shard_order_free() {
        let config = cfg(10, 4);
        let reports: Vec<Report> = (0..200u32)
            .map(|i| toy_report(i, (i as u64 * 7) % 60))
            .collect();
        // Shard by round-robin, as the service's worker pool would.
        let mut shards: Vec<WindowedAggregator> = (0..3).map(|_| fresh(config)).collect();
        for (i, r) in reports.iter().enumerate() {
            shards[i % 3].ingest(r);
        }
        let mut forward = fresh(config);
        for s in &shards {
            forward.merge_ring(s);
        }
        let mut backward = fresh(config);
        for s in shards.iter().rev() {
            backward.merge_ring(s);
        }
        assert_eq!(forward.merged(), backward.merged());
        assert_eq!(forward.newest_window(), backward.newest_window());
        let newest = forward.newest_window();
        assert_eq!(forward.merged(), &recount(&reports, config, newest));

        // A lagging shard whose windows have slid out of the merged span
        // is an *eviction* at merge time, never "late": its reports were
        // accepted on time on their own shard.
        let mut lagging = fresh(config);
        lagging.ingest(&toy_report(1, 0)); // window 0
        let mut advanced = fresh(config);
        advanced.advance_to(100);
        advanced.merge_ring(&lagging);
        assert_eq!(advanced.late(), 0, "slid-out windows are not late");
        assert_eq!(advanced.evicted_windows(), 1);
        assert_eq!(advanced.merged().num_reports, 0);
    }

    #[test]
    fn spend_annotations_follow_the_ring_lifecycle() {
        let config = cfg(10, 3);
        let mut ring = fresh(config);
        ring.ingest(&toy_report(1, 0)); // window 0
        ring.ingest(&toy_report(2, 10)); // window 1
        assert!(ring.record_spend(0, 500), "live window with data");
        assert!(ring.record_spend(1, 700));
        assert!(!ring.record_spend(2, 9), "window 2 holds no data");
        assert!(!ring.record_spend(99, 9), "future window");
        assert_eq!(ring.window_spend(0), 500);
        assert_eq!(ring.window_spends(), vec![(0, 500), (1, 700)]);
        // The budget-filtered view excludes refused windows exactly.
        let only_w1 = ring.merged_where(|id| id != 0);
        assert_eq!(&only_w1, ring.window_counts(1).unwrap());
        assert!(ring.merged_where(|_| true) == *ring.merged());
        // Eviction clears the annotation with the slot.
        ring.advance_to(3); // window 0 slides out
        assert_eq!(ring.window_spend(0), 0);
        assert_eq!(ring.window_spends(), vec![(1, 700)]);
        // Codec carries spends; merge takes the max (base ring is the
        // budget-holder, shard rings carry none).
        let blob = ring.encode_ring();
        let back = WindowedAggregator::decode_ring(&blob, &[0u16; REGIONS], config).unwrap();
        assert_eq!(back.window_spends(), vec![(1, 700)]);
        let mut shard = fresh(config);
        shard.ingest(&toy_report(3, 10));
        let mut total = fresh(config);
        total.merge_ring(&back);
        total.merge_ring(&shard);
        assert_eq!(total.window_spend(1), 700, "merge keeps the max spend");
    }

    #[test]
    fn ring_snapshot_roundtrips_bit_identically() {
        let config = cfg(10, 3);
        let mut ring = fresh(config);
        for i in 0..50u32 {
            ring.ingest(&toy_report(i, (i as u64 % 5) * 10));
        }
        ring.record_spend(ring.newest_window(), 1_250_000_000);
        let blob = ring.encode_ring();
        let back = WindowedAggregator::decode_ring(&blob, &[0u16; REGIONS], config).unwrap();
        assert_eq!(back.merged(), ring.merged());
        assert_eq!(back.newest_window(), ring.newest_window());
        assert_eq!(back.late(), ring.late());
        for (id, counts) in ring.windows() {
            assert_eq!(back.window_counts(id), Some(counts));
        }
        // Corruption, version 1 and config mismatches are refused.
        let mut bad = blob.clone();
        bad[10] ^= 0x20;
        assert!(WindowedAggregator::decode_ring(&bad, &[0u16; REGIONS], config).is_err());
        let mut v1 = blob[..blob.len() - 4].to_vec();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&crc32(&v1).to_le_bytes());
        assert_eq!(
            WindowedAggregator::decode_ring(&v1, &[0u16; REGIONS], config),
            Err(BlobError::UnsupportedVersion(1))
        );
        assert_eq!(
            WindowedAggregator::decode_ring(&blob, &[0u16; REGIONS], cfg(10, 4)),
            Err(BlobError::Inconsistent("window shape mismatch"))
        );
        assert_eq!(
            WindowedAggregator::decode_ring(&blob, &[0u16; 7], config),
            Err(BlobError::Inconsistent("region universe mismatch"))
        );
        assert!(WindowedAggregator::decode_ring(&blob[..20], &[0u16; REGIONS], config).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The tentpole property: after any sequence of ingests (random
        /// timestamps, random order) and advances, the ring's merged view
        /// equals a from-scratch aggregation of exactly the surviving
        /// reports — bit-identical counters.
        #[test]
        fn windowed_equals_recount_of_surviving_reports(
            window_len in 1u64..20,
            num_windows in 1usize..6,
            stamps in proptest::collection::vec(0u64..200, 1..120),
            extra_advance in 0u64..30,
        ) {
            let config = cfg(window_len, num_windows);
            let mut ring = fresh(config);
            let mut reports = Vec::new();
            for (i, &t) in stamps.iter().enumerate() {
                let r = toy_report(i as u32, t);
                ring.ingest(&r);
                reports.push(r);
            }
            let newest = ring.newest_window() + extra_advance;
            ring.advance_to(newest);
            let reference = recount(&reports, config, newest);
            prop_assert_eq!(ring.merged(), &reference);
            // Per-window slots are exact too.
            let mut live_total = AggregateCounts::new(REGIONS);
            for (_, counts) in ring.windows() {
                live_total.merge(counts);
            }
            // (length_hist length may differ from merged's high-water mark)
            prop_assert_eq!(live_total.num_reports, reference.num_reports);
            prop_assert_eq!(&live_total.occupancy, &reference.occupancy);
            prop_assert_eq!(&live_total.transitions, &reference.transitions);
            // Accepted + late covers every report.
            prop_assert_eq!(
                ring.merged().num_reports + ring.late() + ring.evicted_reports_check(&reports, newest),
                reports.len() as u64
            );
        }
    }

    impl WindowedAggregator {
        /// Test helper: how many of `reports` were accepted live but have
        /// since been evicted (everything not surviving and not late).
        fn evicted_reports_check(&self, reports: &[Report], newest: u64) -> u64 {
            let oldest = newest.saturating_sub(self.config.num_windows as u64 - 1);
            reports
                .iter()
                .filter(|r| self.config.window_of(r.t) < oldest)
                .count() as u64
                - self.late
        }
    }

    #[test]
    fn streaming_warm_starts_survive_backend_choice() {
        use trajshare_core::{decompose, MechanismConfig, RegionGraph};
        use trajshare_geo::{DistanceMetric, GeoPoint};
        use trajshare_hierarchy::builders::campus;
        use trajshare_model::{Dataset, Poi, PoiId, TimeDomain};

        let h = campus();
        let leaves = h.leaves();
        let origin = GeoPoint::new(40.7, -74.0);
        let pois: Vec<Poi> = (0..30)
            .map(|i| {
                Poi::new(
                    PoiId(i),
                    format!("p{i}"),
                    origin.offset_m((i % 5) as f64 * 400.0, (i / 5) as f64 * 400.0),
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
        let regions = decompose(&ds, &MechanismConfig::default());
        let graph = RegionGraph::build(&ds, &regions);
        let nr = regions.len();
        let window = |wseed: u32| -> AggregateCounts {
            let mut agg = Aggregator::new(&regions);
            for i in 0..300u32 {
                let a = ((i.wrapping_mul(17).wrapping_add(wseed)) % 5) % nr as u32;
                let b = (a + 1) % nr as u32;
                agg.ingest(&Report {
                    t: 0,
                    eps_prime: 2.0,
                    len: 2,
                    unigrams: vec![(0, a), (1, b)],
                    exact: vec![(0, a), (1, b)],
                    transitions: vec![(a, b)],
                });
            }
            agg.into_counts()
        };
        let w1 = window(1);
        let w2 = window(2);

        // Same tick sequence on every backend: all must be warm on tick
        // 2, produce feasible stochastic rows, and agree with the dense
        // reference on the unigram marginals. The sparse backend's joint
        // additionally carries exactly zero infeasible mass.
        let l1 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        let mut dense_est = StreamingEstimator::with_backend(200, 8, EstimatorBackend::Dense);
        let _ = dense_est.tick(&w1, &graph);
        let dense2 = dense_est.tick(&w2, &graph);
        for backend in EstimatorBackend::ALL {
            let mut est = StreamingEstimator::with_backend(200, 8, backend);
            assert_eq!(est.backend(), backend);
            let _ = est.tick(&w1, &graph);
            assert!(est.is_warm(), "{backend}: posterior must carry over");
            let m2 = est.tick(&w2, &graph);
            assert!(m2.debiased);
            assert!(
                l1(&m2.occupancy, &dense2.occupancy) < 1e-6,
                "{backend} occupancy diverged from dense"
            );
            for tail in 0..nr {
                let row = &m2.transition[tail * nr..(tail + 1) * nr];
                let mass: f64 = row.iter().sum();
                assert!(mass.abs() < 1e-9 || (mass - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn streaming_estimator_warm_ticks_track_the_cold_solve() {
        use trajshare_core::{decompose, MechanismConfig, RegionGraph};
        use trajshare_geo::{DistanceMetric, GeoPoint};
        use trajshare_hierarchy::builders::campus;
        use trajshare_model::{Dataset, Poi, PoiId, TimeDomain};

        let h = campus();
        let leaves = h.leaves();
        let origin = GeoPoint::new(40.7, -74.0);
        let pois: Vec<Poi> = (0..30)
            .map(|i| {
                Poi::new(
                    PoiId(i),
                    format!("p{i}"),
                    origin.offset_m((i % 5) as f64 * 400.0, (i / 5) as f64 * 400.0),
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
        let regions = decompose(&ds, &MechanismConfig::default());
        let graph = RegionGraph::build(&ds, &regions);
        let nr = regions.len();

        // Two consecutive windows with the same underlying population.
        let window = |wseed: u32| -> AggregateCounts {
            let mut agg = Aggregator::new(&regions);
            for i in 0..400u32 {
                let a = ((i.wrapping_mul(31).wrapping_add(wseed)) % 7) % nr as u32;
                let b = (a + 1) % nr as u32;
                agg.ingest(&Report {
                    t: 0,
                    eps_prime: 2.0,
                    len: 2,
                    unigrams: vec![(0, a), (1, b)],
                    exact: vec![(0, a), (1, b)],
                    transitions: vec![(a, b)],
                });
            }
            agg.into_counts()
        };
        let w1 = window(1);
        let w2 = window(2);

        let mut est = StreamingEstimator::with_iters(400, 10);
        assert!(!est.is_warm());
        let cold1 = est.tick(&w1, &graph);
        assert!(est.is_warm());
        assert!(cold1.debiased);
        let warm2 = est.tick(&w2, &graph);
        // Reference: a full cold solve on window 2.
        let cold2 = StreamingEstimator::with_iters(400, 10).tick(&w2, &graph);
        let l1 =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        assert!(
            l1(&warm2.occupancy, &cold2.occupancy) < 0.05,
            "warm occupancy diverged: {}",
            l1(&warm2.occupancy, &cold2.occupancy)
        );
        assert!(l1(&warm2.start, &cold2.start) < 0.05);
        // Row-stochastic transition rows on feasible support, like the
        // batch model.
        for tail in 0..nr {
            let row = &warm2.transition[tail * nr..(tail + 1) * nr];
            let mass: f64 = row.iter().sum();
            assert!(mass.abs() < 1e-9 || (mass - 1.0).abs() < 1e-9);
        }
        // A posterior from a different universe is discarded (cold solve)
        // rather than fed to the warm-start asserts.
        let small_pois: Vec<Poi> = (0..8)
            .map(|i| {
                Poi::new(
                    PoiId(i),
                    format!("q{i}"),
                    origin.offset_m(i as f64 * 500.0, 0.0),
                    leaves[i as usize % leaves.len()],
                )
            })
            .collect();
        let ds2 = Dataset::new(
            small_pois,
            campus(),
            TimeDomain::new(10),
            Some(8.0),
            DistanceMetric::Haversine,
        );
        let regions2 = decompose(&ds2, &MechanismConfig::default());
        let graph2 = RegionGraph::build(&ds2, &regions2);
        if regions2.len() != nr {
            let mut stale = StreamingEstimator::with_iters(50, 5);
            let _ = stale.tick(&w1, &graph);
            assert!(stale.is_warm());
            let other = stale.tick(&AggregateCounts::new(regions2.len()), &graph2);
            assert_eq!(other.num_regions, regions2.len());
            assert!(!other.debiased, "empty counts on the new universe");
        }
        // Empty counters yield an un-debiased empty model, no panic.
        let empty = StreamingEstimator::new().tick(&AggregateCounts::new(nr), &graph);
        assert!(!empty.debiased);
        assert!(empty.length.is_empty());
    }
}
