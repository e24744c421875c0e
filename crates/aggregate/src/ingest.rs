//! Sharded, parallel report ingestion.
//!
//! [`Aggregator`] folds millions of [`Report`]s into dense counters:
//! per-region occupancy, per-(region, hour-tile) occupancy, start/end
//! distributions, per-transition counts over the region universe, and the
//! (public) trajectory-length histogram. Batch ingestion shards the input
//! across rayon workers — each shard accumulates a private
//! [`AggregateCounts`] and the shards are merged with element-wise `u64`
//! sums, so the result is independent of worker count and scheduling.
//!
//! Memory is `O(|R|² + |R|·24)`; the decomposition keeps `|R|` in the
//! hundreds even for city-scale datasets, so the transition matrix is a few
//! MB — far cheaper than anything per-user.

use crate::batch::ReportBatch;
use crate::report::Report;
use rayon::prelude::*;
use trajshare_core::{kernels, RegionSet};

/// Hour tiles per day for the (region, timestep) view.
pub(crate) const TILES_PER_DAY: usize = 24;

/// Dense population counters. All fields are plain sums, so two counter
/// sets over disjoint report batches merge by addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateCounts {
    /// `|R|` at ingestion time.
    pub num_regions: usize,
    /// Unigram observations per region.
    pub occupancy: Vec<u64>,
    /// Unigram observations per `(region, hour tile)`, row-major
    /// `region * TILES_PER_DAY + tile`. The tile is derived from the
    /// *perturbed* region's own time interval (its midpoint hour), never
    /// from true client timestamps.
    pub tile_occupancy: Vec<u64>,
    /// Position-0 observations per region from *exact* 1-gram windows
    /// (start-distribution channel, unigram-EM exact).
    pub starts: Vec<u64>,
    /// Last-position observations per region from exact 1-gram windows.
    pub ends: Vec<u64>,
    /// All exact-channel observations per region (the occupancy channel
    /// the estimator can debias without approximation).
    pub occupancy_exact: Vec<u64>,
    /// Transition observations, row-major `tail * |R| + head`.
    pub transitions: Vec<u64>,
    /// Histogram of reported trajectory lengths (index = |τ|).
    pub length_hist: Vec<u64>,
    /// Reports folded in.
    pub num_reports: u64,
    /// Total unigram observations folded in.
    pub num_unigrams: u64,
    /// Observations dropped because their region id was out of range
    /// (malformed or hostile client).
    pub rejected: u64,
    /// Σ ε′ over reports, in nano-ε units (integer so that parallel merge
    /// order cannot perturb the value).
    pub eps_nano_sum: u64,
    /// Max per-report ε′ over reports, nano-ε — the worst single user's
    /// claimed spend, which is what the streaming budget accountant
    /// settles per window (the `w`-window contract is *per user*, so it
    /// must bound the worst reporter, not the cohort average). A max is
    /// not invertible, so [`AggregateCounts::subtract`] keeps it as a
    /// high-water mark; the window ring recomputes its merged view's max
    /// from the surviving slots after eviction.
    pub eps_nano_max: u64,
}

impl AggregateCounts {
    /// Zeroed counters for a universe of `num_regions` regions.
    pub fn new(num_regions: usize) -> Self {
        AggregateCounts {
            num_regions,
            occupancy: vec![0; num_regions],
            tile_occupancy: vec![0; num_regions * TILES_PER_DAY],
            starts: vec![0; num_regions],
            ends: vec![0; num_regions],
            occupancy_exact: vec![0; num_regions],
            transitions: vec![0; num_regions * num_regions],
            length_hist: Vec::new(),
            num_reports: 0,
            num_unigrams: 0,
            rejected: 0,
            eps_nano_sum: 0,
            eps_nano_max: 0,
        }
    }

    /// Element-wise merge of counters over a disjoint report batch. The
    /// array sums run on the dispatched vector kernels
    /// ([`trajshare_core::kernels`]) — this is the inner loop of the
    /// window ring's O(1) eviction, executed once per slot per tick over
    /// the `O(|R|²)` transition matrix.
    pub fn merge(&mut self, other: &AggregateCounts) {
        assert_eq!(self.num_regions, other.num_regions, "universe mismatch");
        kernels::add_assign_u64(&mut self.occupancy, &other.occupancy);
        kernels::add_assign_u64(&mut self.tile_occupancy, &other.tile_occupancy);
        kernels::add_assign_u64(&mut self.starts, &other.starts);
        kernels::add_assign_u64(&mut self.ends, &other.ends);
        kernels::add_assign_u64(&mut self.occupancy_exact, &other.occupancy_exact);
        kernels::add_assign_u64(&mut self.transitions, &other.transitions);
        if self.length_hist.len() < other.length_hist.len() {
            self.length_hist.resize(other.length_hist.len(), 0);
        }
        kernels::add_assign_u64(
            &mut self.length_hist[..other.length_hist.len()],
            &other.length_hist,
        );
        self.num_reports += other.num_reports;
        self.num_unigrams += other.num_unigrams;
        self.rejected += other.rejected;
        self.eps_nano_sum = self.eps_nano_sum.saturating_add(other.eps_nano_sum);
        self.eps_nano_max = self.eps_nano_max.max(other.eps_nano_max);
    }

    /// Element-wise retirement of counters previously [`AggregateCounts::merge`]d
    /// in — the sliding-window eviction primitive: subtracting a window's
    /// counts from a running total is exact (`u64` arithmetic), so the
    /// total never has to be recounted from surviving reports. Panics if
    /// `other` was never merged into `self` (a counter would underflow);
    /// that is a caller bug, not a data condition. `eps_nano_sum` uses
    /// saturating subtraction to mirror the saturating merge — exact
    /// until the accountant has actually saturated (~2.9×10⁸ maximal
    /// reports). `eps_nano_max` is **not** subtracted — a max cannot be
    /// undone from counters alone — so it survives as a conservative
    /// high-water mark; callers that need the exact max of a shrunken
    /// set recompute it from the surviving parts (the window ring does
    /// exactly that after eviction).
    pub fn subtract(&mut self, other: &AggregateCounts) {
        assert_eq!(self.num_regions, other.num_regions, "universe mismatch");
        // The checked subtractions run on the dispatched vector kernels;
        // an underflow verdict is raised here as the same panic the old
        // element-wise `checked_sub` produced (the counters are a lost
        // cause either way — this is a caller bug, not a data condition).
        let mut ok = kernels::sub_assign_u64_checked(&mut self.occupancy, &other.occupancy);
        ok &= kernels::sub_assign_u64_checked(&mut self.tile_occupancy, &other.tile_occupancy);
        ok &= kernels::sub_assign_u64_checked(&mut self.starts, &other.starts);
        ok &= kernels::sub_assign_u64_checked(&mut self.ends, &other.ends);
        ok &= kernels::sub_assign_u64_checked(&mut self.occupancy_exact, &other.occupancy_exact);
        ok &= kernels::sub_assign_u64_checked(&mut self.transitions, &other.transitions);
        assert!(ok, "subtracting counts never merged");
        assert!(
            other.length_hist.len() <= self.length_hist.len() || other.length_hist.is_empty(),
            "subtracting a longer length histogram than ever merged"
        );
        let hist_len = other.length_hist.len();
        assert!(
            kernels::sub_assign_u64_checked(&mut self.length_hist[..hist_len], &other.length_hist),
            "subtracting counts never merged"
        );
        // Trim trailing zeros so the result is bit-identical to counters
        // that never saw the retired lengths (merge only ever grows the
        // histogram to its last non-zero entry).
        while self.length_hist.last() == Some(&0) {
            self.length_hist.pop();
        }
        let take = |a: &mut u64, b: &u64| {
            *a = a.checked_sub(*b).expect("subtracting counts never merged");
        };
        take(&mut self.num_reports, &other.num_reports);
        take(&mut self.num_unigrams, &other.num_unigrams);
        take(&mut self.rejected, &other.rejected);
        self.eps_nano_sum = self.eps_nano_sum.saturating_sub(other.eps_nano_sum);
    }

    /// Resets every counter to zero in place, keeping allocations — how a
    /// ring slot is recycled on window eviction without reallocating the
    /// `O(|R|²)` transition matrix.
    pub fn clear(&mut self) {
        self.occupancy.fill(0);
        self.tile_occupancy.fill(0);
        self.starts.fill(0);
        self.ends.fill(0);
        self.occupancy_exact.fill(0);
        self.transitions.fill(0);
        self.length_hist.clear();
        self.num_reports = 0;
        self.num_unigrams = 0;
        self.rejected = 0;
        self.eps_nano_sum = 0;
        self.eps_nano_max = 0;
    }

    /// Mean ε′ across ingested reports — the debiasing channel parameter.
    ///
    /// The channel is *exact* only when every report shares one ε′ (i.e.
    /// one trajectory length); for mixed-length populations this is a
    /// mixture-channel approximation, and a deployment should run one
    /// aggregator per length bucket instead (tracked as a ROADMAP open
    /// item). Use [`AggregateCounts::mixed_lengths`] to detect the case.
    pub fn mean_eps_prime(&self) -> f64 {
        if self.num_reports == 0 {
            return 0.0;
        }
        self.eps_nano_sum as f64 * 1e-9 / self.num_reports as f64
    }

    /// Worst (maximum) per-report ε′ on the nano-ε grid — the observed
    /// per-user window spend the streaming budget accountant settles
    /// ([`crate::budget`]): no individual *report* in this counter set
    /// claimed more than this, which bounds the worst user under the
    /// one-report-per-user-per-window reporting model (reports carry no
    /// identity, so a repeat reporter multiplies its own spend
    /// invisibly — see the scope notes in [`crate::budget`]). 0 for
    /// empty counters.
    #[inline]
    pub fn max_eps_nano(&self) -> u64 {
        self.eps_nano_max
    }

    /// Whether reports with more than one trajectory length were ingested
    /// (in which case [`AggregateCounts::mean_eps_prime`] is approximate).
    pub fn mixed_lengths(&self) -> bool {
        self.length_hist.iter().filter(|&&c| c > 0).count() > 1
    }

    /// Mean reported trajectory length.
    pub fn mean_len(&self) -> f64 {
        if self.num_reports == 0 {
            return 0.0;
        }
        let total: u64 = self
            .length_hist
            .iter()
            .enumerate()
            .map(|(l, &c)| l as u64 * c)
            .sum();
        total as f64 / self.num_reports as f64
    }
}

/// Sharded ingestion front-end bound to one region universe.
#[derive(Debug, Clone)]
pub struct Aggregator {
    counts: AggregateCounts,
    /// Midpoint hour tile per region, precomputed from the region set.
    region_tile: Vec<u16>,
}

impl Aggregator {
    /// Reports per rayon shard in [`Aggregator::ingest_batch`].
    const SHARD_SIZE: usize = 4096;

    /// Builds an aggregator for the given decomposed region universe.
    pub fn new(regions: &RegionSet) -> Self {
        Self::from_region_tiles(region_tiles(regions))
    }

    /// Builds an aggregator from a bare tile table (one midpoint-hour tile
    /// per region). This is the constructor for deployments where the
    /// server does not hold the full dataset — e.g. the ingestion service,
    /// which is configured with the public universe size and tile map
    /// only. `Aggregator::new(regions)` is exactly
    /// `from_region_tiles(region_tiles(regions))`.
    pub fn from_region_tiles(region_tile: Vec<u16>) -> Self {
        Aggregator {
            counts: AggregateCounts::new(region_tile.len()),
            region_tile,
        }
    }

    /// The counters accumulated so far.
    #[inline]
    pub fn counts(&self) -> &AggregateCounts {
        &self.counts
    }

    /// Consumes the aggregator, yielding its counters.
    pub fn into_counts(self) -> AggregateCounts {
        self.counts
    }

    /// Folds one report into the counters.
    pub fn ingest(&mut self, report: &Report) {
        accumulate(&mut self.counts, &self.region_tile, report);
    }

    /// Folds a decoded `TSR4` batch column-wise — exactly equivalent to
    /// `for r in batch.reports() { self.ingest(&r) }` with the
    /// per-report work hoisted (see `accumulate_columns`). The hot path
    /// of the batched ingest service.
    pub fn ingest_columnar(&mut self, batch: &ReportBatch) {
        accumulate_columns(&mut self.counts, &self.region_tile, &BatchCols::full(batch));
    }

    /// Folds a batch of reports, sharded across rayon workers. Exactly
    /// equivalent to `for r in reports { self.ingest(r) }` — counters are
    /// `u64` sums, so the parallel merge is order-insensitive.
    pub fn ingest_batch(&mut self, reports: &[Report]) {
        let tiles = &self.region_tile;
        let num_regions = self.counts.num_regions;
        let batch = reports
            .par_chunks(Self::SHARD_SIZE)
            .map(|shard| {
                let mut local = AggregateCounts::new(num_regions);
                for report in shard {
                    accumulate(&mut local, tiles, report);
                }
                local
            })
            .reduce(
                || AggregateCounts::new(num_regions),
                |mut a, b| {
                    a.merge(&b);
                    a
                },
            );
        self.counts.merge(&batch);
    }
}

/// The public per-region midpoint-hour tile table used by
/// [`Aggregator::new`] — exposed so a dataset-less deployment (the
/// ingestion service) can compute it once and configure workers with the
/// plain table.
pub fn region_tiles(regions: &RegionSet) -> Vec<u16> {
    regions
        .all()
        .iter()
        .map(|r| {
            let mid_min = (r.time.start_min + r.time.end_min) / 2;
            ((mid_min / 60) as usize).min(TILES_PER_DAY - 1) as u16
        })
        .collect()
}

/// Largest per-window ε′ a report may claim. Anything above this is not a
/// plausible LDP deployment and is treated as hostile input: admitting an
/// arbitrary f64 here would let one client poison the channel mean every
/// estimate is debiased with.
pub(crate) const MAX_EPS_PRIME: f64 = 64.0;

/// The single-report accumulation kernel shared by serial and sharded
/// ingestion (and the sliding-window ring in [`crate::stream`]).
pub(crate) fn accumulate(counts: &mut AggregateCounts, region_tile: &[u16], report: &Report) {
    // Reject reports with an implausible channel parameter outright
    // (NaN/∞/non-positive/huge): every observation they carry would be
    // debiased through a corrupted channel.
    if !report.eps_prime.is_finite() || report.eps_prime <= 0.0 || report.eps_prime > MAX_EPS_PRIME
    {
        counts.rejected += 1
            + report.unigrams.len() as u64
            + report.exact.len() as u64
            + report.transitions.len() as u64;
        return;
    }
    let nr = counts.num_regions;
    let last_pos = report.len.saturating_sub(1);
    for &(pos, region) in &report.unigrams {
        let r = region as usize;
        if r >= nr || pos >= report.len {
            counts.rejected += 1;
            continue;
        }
        counts.occupancy[r] += 1;
        counts.tile_occupancy[r * TILES_PER_DAY + region_tile[r] as usize] += 1;
        counts.num_unigrams += 1;
    }
    for &(pos, region) in &report.exact {
        let r = region as usize;
        if r >= nr || pos >= report.len {
            counts.rejected += 1;
            continue;
        }
        counts.occupancy_exact[r] += 1;
        if pos == 0 {
            counts.starts[r] += 1;
        }
        if pos == last_pos {
            counts.ends[r] += 1;
        }
    }
    for &(tail, head) in &report.transitions {
        let (t, h) = (tail as usize, head as usize);
        if t >= nr || h >= nr {
            counts.rejected += 1;
            continue;
        }
        counts.transitions[t * nr + h] += 1;
    }
    let len = report.len as usize;
    if counts.length_hist.len() <= len {
        counts.length_hist.resize(len + 1, 0);
    }
    counts.length_hist[len] += 1;
    counts.num_reports += 1;
    // The accountant sums the report's *wire* nano-ε integer. Reports are
    // quantized onto the nano grid once, at extraction, so this conversion
    // is exact and the sum cannot drift however often reports are
    // re-encoded or replayed. (ε′ ≤ MAX_EPS_PRIME, so the sum saturates
    // only after ~2.9×10⁸ maximal reports; saturating keeps that sane.)
    counts.eps_nano_sum = counts.eps_nano_sum.saturating_add(report.eps_nano());
    counts.eps_nano_max = counts.eps_nano_max.max(report.eps_nano());
}

/// A view of a [`ReportBatch`]'s columns (or any contiguous sub-range of
/// reports within one — the window ring accumulates per-window runs).
/// The shared batch key (ε′, |τ|) is what makes column accumulation
/// report-independent: one ε-grid check and one length bound cover every
/// observation, so the loops below never dispatch per report.
pub(crate) struct BatchCols<'a> {
    pub eps_nano: u64,
    pub len: u16,
    pub num_reports: u64,
    pub uni_pos: &'a [u16],
    pub uni_region: &'a [u32],
    pub exact_pos: &'a [u16],
    pub exact_region: &'a [u32],
    pub trans_tail: &'a [u32],
    pub trans_head: &'a [u32],
}

impl<'a> BatchCols<'a> {
    /// The whole batch as one column view.
    pub fn full(batch: &'a ReportBatch) -> Self {
        BatchCols {
            eps_nano: batch.eps_nano,
            len: batch.len,
            num_reports: batch.num_reports() as u64,
            uni_pos: &batch.uni_pos,
            uni_region: &batch.uni_region,
            exact_pos: &batch.exact_pos,
            exact_region: &batch.exact_region,
            trans_tail: &batch.trans_tail,
            trans_head: &batch.trans_head,
        }
    }
}

/// The columnar accumulation kernel: exactly equivalent to calling
/// [`accumulate`] on each report of the batch in order, but with the
/// per-report work hoisted — one hostile-ε check, one `length_hist`
/// bump, one ε-sum multiply for the whole run, and tight per-column
/// loops over the observation arrays.
pub(crate) fn accumulate_columns(
    counts: &mut AggregateCounts,
    region_tile: &[u16],
    cols: &BatchCols<'_>,
) {
    if cols.num_reports == 0 {
        debug_assert!(cols.uni_pos.is_empty() && cols.exact_pos.is_empty());
        return;
    }
    // One shared-key check replaces the per-report hostile-ε test:
    // every report in the batch claimed the same ε′ by construction.
    let eps_prime = cols.eps_nano as f64 / 1e9;
    if !eps_prime.is_finite() || eps_prime <= 0.0 || eps_prime > MAX_EPS_PRIME {
        counts.rejected += cols.num_reports
            + cols.uni_pos.len() as u64
            + cols.exact_pos.len() as u64
            + cols.trans_tail.len() as u64;
        return;
    }
    let nr = counts.num_regions;
    let len = cols.len;
    let last_pos = len.saturating_sub(1);
    // Vectorized validity prescan: one SIMD max-reduce per column proves
    // (or disproves) that every element is in range. A clean column runs
    // a branch-free accumulation loop with the reject test hoisted out
    // entirely; any out-of-range element falls back to the original
    // branchy loop, so the counters (including `rejected`) are
    // bit-identical either way — rejects are the hostile-client
    // exception, not the common case.
    let n_uni = cols.uni_pos.len().min(cols.uni_region.len());
    let uni_clean = n_uni == 0
        || ((kernels::max_u32(&cols.uni_region[..n_uni]) as usize) < nr
            && kernels::max_u16(&cols.uni_pos[..n_uni]) < len);
    if uni_clean {
        for &region in &cols.uni_region[..n_uni] {
            let r = region as usize;
            counts.occupancy[r] += 1;
            counts.tile_occupancy[r * TILES_PER_DAY + region_tile[r] as usize] += 1;
        }
        counts.num_unigrams += n_uni as u64;
    } else {
        for (&pos, &region) in cols.uni_pos.iter().zip(cols.uni_region) {
            let r = region as usize;
            if r >= nr || pos >= len {
                counts.rejected += 1;
                continue;
            }
            counts.occupancy[r] += 1;
            counts.tile_occupancy[r * TILES_PER_DAY + region_tile[r] as usize] += 1;
            counts.num_unigrams += 1;
        }
    }
    let n_exact = cols.exact_pos.len().min(cols.exact_region.len());
    let exact_clean = n_exact == 0
        || ((kernels::max_u32(&cols.exact_region[..n_exact]) as usize) < nr
            && kernels::max_u16(&cols.exact_pos[..n_exact]) < len);
    if exact_clean {
        for (&pos, &region) in cols.exact_pos[..n_exact]
            .iter()
            .zip(&cols.exact_region[..n_exact])
        {
            let r = region as usize;
            counts.occupancy_exact[r] += 1;
            if pos == 0 {
                counts.starts[r] += 1;
            }
            if pos == last_pos {
                counts.ends[r] += 1;
            }
        }
    } else {
        for (&pos, &region) in cols.exact_pos.iter().zip(cols.exact_region) {
            let r = region as usize;
            if r >= nr || pos >= len {
                counts.rejected += 1;
                continue;
            }
            counts.occupancy_exact[r] += 1;
            if pos == 0 {
                counts.starts[r] += 1;
            }
            if pos == last_pos {
                counts.ends[r] += 1;
            }
        }
    }
    let n_trans = cols.trans_tail.len().min(cols.trans_head.len());
    let trans_clean = n_trans == 0
        || ((kernels::max_u32(&cols.trans_tail[..n_trans]) as usize) < nr
            && (kernels::max_u32(&cols.trans_head[..n_trans]) as usize) < nr);
    if trans_clean {
        for (&tail, &head) in cols.trans_tail[..n_trans]
            .iter()
            .zip(&cols.trans_head[..n_trans])
        {
            counts.transitions[tail as usize * nr + head as usize] += 1;
        }
    } else {
        for (&tail, &head) in cols.trans_tail.iter().zip(cols.trans_head) {
            let (t, h) = (tail as usize, head as usize);
            if t >= nr || h >= nr {
                counts.rejected += 1;
                continue;
            }
            counts.transitions[t * nr + h] += 1;
        }
    }
    let l = len as usize;
    if counts.length_hist.len() <= l {
        counts.length_hist.resize(l + 1, 0);
    }
    counts.length_hist[l] += cols.num_reports;
    counts.num_reports += cols.num_reports;
    // n repeated saturating adds of one nano-ε value e from s₀ give
    // min(s₀ + n·e, u64::MAX) (induction on n: once saturated, stays
    // saturated) — so the widened one-shot sum below is bit-identical
    // to the serial loop.
    let add = (cols.num_reports as u128) * (cols.eps_nano as u128);
    counts.eps_nano_sum = (counts.eps_nano_sum as u128 + add).min(u64::MAX as u128) as u64;
    counts.eps_nano_max = counts.eps_nano_max.max(cols.eps_nano);
}

/// A convenience: builds the aggregator and ingests in one call.
pub fn aggregate_reports(regions: &RegionSet, reports: &[Report]) -> AggregateCounts {
    let mut agg = Aggregator::new(regions);
    agg.ingest_batch(reports);
    agg.into_counts()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_report(regions: &[u32], eps: f64) -> Report {
        let unigrams: Vec<(u16, u32)> = regions
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as u16, r))
            .collect();
        let exact = unigrams.clone();
        let transitions = regions.windows(2).map(|w| (w[0], w[1])).collect();
        Report {
            t: 0,
            eps_prime: eps,
            len: regions.len() as u16,
            unigrams,
            exact,
            transitions,
        }
    }

    /// A fabricated counter universe without needing a full dataset.
    fn ingest_all(num_regions: usize, reports: &[Report]) -> AggregateCounts {
        // Region tiles are irrelevant for these tests; use tile 0.
        let region_tile = vec![0u16; num_regions];
        let mut counts = AggregateCounts::new(num_regions);
        for r in reports {
            accumulate(&mut counts, &region_tile, r);
        }
        counts
    }

    #[test]
    fn serial_accumulation_counts_everything() {
        let reports = vec![toy_report(&[0, 1, 2], 1.0), toy_report(&[2, 2], 0.5)];
        let c = ingest_all(4, &reports);
        assert_eq!(c.num_reports, 2);
        assert_eq!(c.num_unigrams, 5);
        assert_eq!(c.occupancy, vec![1, 1, 3, 0]);
        assert_eq!(c.starts, vec![1, 0, 1, 0]);
        assert_eq!(c.ends, vec![0, 0, 2, 0]);
        assert_eq!(c.transitions[4 + 2], 1);
        assert_eq!(c.transitions[2 * 4 + 2], 1);
        assert_eq!(c.length_hist, vec![0, 0, 1, 1]);
        assert!((c.mean_eps_prime() - 0.75).abs() < 1e-9);
        assert!((c.mean_len() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_regions_are_rejected_not_counted() {
        let c = ingest_all(2, &[toy_report(&[0, 9], 1.0)]);
        assert_eq!(c.rejected, 3, "bad unigram + bad exact + bad transition");
        assert_eq!(c.occupancy, vec![1, 0]);
        assert_eq!(c.transitions, vec![0; 4]);
    }

    #[test]
    fn tile_occupancy_lands_on_each_regions_midpoint_hour() {
        use trajshare_core::{decompose, MechanismConfig};
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

        let mut agg = Aggregator::new(&regions);
        for r in 0..regions.len() as u32 {
            agg.ingest(&toy_report(&[r, r], 1.0));
        }
        let counts = agg.counts();
        assert_eq!(
            counts.occupancy.iter().sum::<u64>(),
            counts.tile_occupancy.iter().sum::<u64>()
        );
        for (r, region) in regions.all().iter().enumerate() {
            let expected_tile = ((region.time.start_min + region.time.end_min) / 2 / 60)
                .min(TILES_PER_DAY as u32 - 1) as usize;
            let row = &counts.tile_occupancy[r * TILES_PER_DAY..(r + 1) * TILES_PER_DAY];
            assert_eq!(row[expected_tile], counts.occupancy[r], "region {r}");
            assert_eq!(
                row.iter().sum::<u64>(),
                counts.occupancy[r],
                "region {r} has off-tile mass"
            );
        }
    }

    #[test]
    fn hostile_eps_prime_reports_are_rejected_wholesale() {
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0, MAX_EPS_PRIME * 2.0] {
            let c = ingest_all(4, &[toy_report(&[0, 1], bad)]);
            assert_eq!(c.num_reports, 0, "eps={bad}");
            assert_eq!(c.occupancy, vec![0; 4], "eps={bad}");
            assert!(c.rejected > 0, "eps={bad}");
            assert_eq!(c.mean_eps_prime(), 0.0, "eps={bad}");
        }
        // Sane values still pass.
        let c = ingest_all(4, &[toy_report(&[0, 1], 1.25)]);
        assert_eq!(c.num_reports, 1);
        assert!(!c.mixed_lengths());
    }

    #[test]
    fn subtract_undoes_merge_exactly() {
        let a = ingest_all(3, &[toy_report(&[0, 1], 1.0), toy_report(&[2, 0], 0.5)]);
        let b = ingest_all(3, &[toy_report(&[1, 2, 2], 2.0)]);
        let mut merged = a.clone();
        merged.merge(&b);
        merged.subtract(&b);
        // Every counter is restored exactly; eps_nano_max alone stays at
        // its high-water mark (a max cannot be un-merged — see the
        // subtract docs).
        let mut expected = a.clone();
        expected.eps_nano_max = b.eps_nano_max;
        assert_eq!(merged, expected, "merge then subtract is the identity");
        merged.subtract(&a);
        let mut pristine = AggregateCounts::new(3);
        pristine.eps_nano_max = b.eps_nano_max;
        assert_eq!(
            merged, pristine,
            "subtracting everything leaves pristine zeros (modulo the max high-water mark)"
        );
        let mut cleared = a.clone();
        cleared.clear();
        assert_eq!(cleared, AggregateCounts::new(3), "clear zeroes in place");
    }

    #[test]
    fn eps_nano_max_tracks_the_worst_reporter() {
        // One high-ε′ report hiding among low ones: the mean stays low,
        // the max pins the worst user — which is what budget settlement
        // must see.
        let mut reports: Vec<Report> = (0..100).map(|_| toy_report(&[0, 1], 0.01)).collect();
        reports.push(toy_report(&[1, 2], 32.0));
        let c = ingest_all(3, &reports);
        assert_eq!(c.eps_nano_max, 32_000_000_000);
        assert_eq!(c.max_eps_nano(), 32_000_000_000);
        assert!(c.mean_eps_prime() < 1.0, "mean hides the outlier");
        // Merge takes the max of maxes; rejected reports never touch it.
        let clean = ingest_all(3, &[toy_report(&[0, 1], 0.5)]);
        let hostile = ingest_all(3, &[toy_report(&[0, 1], MAX_EPS_PRIME * 2.0)]);
        assert_eq!(hostile.eps_nano_max, 0, "rejected report leaves no max");
        let mut m = clean.clone();
        m.merge(&c);
        assert_eq!(m.eps_nano_max, 32_000_000_000);
    }

    #[test]
    fn columnar_accumulation_equals_serial() {
        // Shared-key batch including out-of-range observations: the
        // columnar kernel must reject exactly what serial rejects.
        let reports: Vec<Report> = (0..50u32)
            .map(|i| {
                let mut r = toy_report(&[i % 5, (i + 1) % 5, i % 9], 1.25);
                r.t = 100 + i as u64;
                r
            })
            .collect();
        let batch = ReportBatch::from_reports(&reports).unwrap();
        let serial = ingest_all(5, &reports);
        let mut agg = Aggregator::from_region_tiles(vec![0u16; 5]);
        agg.ingest_columnar(&batch);
        assert_eq!(agg.counts(), &serial);
    }

    #[test]
    fn columnar_accumulation_rejects_hostile_eps_wholesale() {
        let reports = vec![toy_report(&[0, 1], MAX_EPS_PRIME * 2.0)];
        let batch = ReportBatch::from_reports(&reports).unwrap();
        let serial = ingest_all(4, &reports);
        let mut agg = Aggregator::from_region_tiles(vec![0u16; 4]);
        agg.ingest_columnar(&batch);
        assert_eq!(agg.counts(), &serial);
        assert_eq!(agg.counts().num_reports, 0);
        assert!(agg.counts().rejected > 0);
    }

    #[test]
    fn columnar_eps_sum_saturates_like_serial() {
        // Near the u64 ceiling the widened multiply must clamp exactly
        // where the serial saturating loop does.
        let reports: Vec<Report> = (0..4).map(|_| toy_report(&[0], MAX_EPS_PRIME)).collect();
        let batch = ReportBatch::from_reports(&reports).unwrap();
        let mut serial = ingest_all(2, &reports);
        let mut agg = Aggregator::from_region_tiles(vec![0u16; 2]);
        agg.ingest_columnar(&batch);
        assert_eq!(agg.counts(), &serial);
        // Force saturation: pre-load both sides to the brink.
        serial.eps_nano_sum = u64::MAX - 1;
        let mut col = serial.clone();
        for r in &reports {
            accumulate(&mut serial, &[0u16, 0], r);
        }
        accumulate_columns(&mut col, &[0u16, 0], &BatchCols::full(&batch));
        assert_eq!(col, serial);
        assert_eq!(col.eps_nano_sum, u64::MAX);
    }

    #[test]
    fn merge_is_addition() {
        let a = ingest_all(3, &[toy_report(&[0, 1], 1.0)]);
        let b = ingest_all(3, &[toy_report(&[1, 2, 2], 2.0)]);
        let mut merged = a.clone();
        merged.merge(&b);
        let direct = ingest_all(3, &[toy_report(&[0, 1], 1.0), toy_report(&[1, 2, 2], 2.0)]);
        assert_eq!(merged, direct);
    }
}
