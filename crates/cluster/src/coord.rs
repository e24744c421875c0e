//! The snapshot-shipping coordinator: pull, merge exactly, publish.
//!
//! Every tick the coordinator connects to each worker's export
//! endpoint, sends a `TSCL` `SnapshotPull`, and receives the worker's
//! *complete* counter + ring state. The latest validated snapshot per
//! worker is then folded into a **fresh** global view:
//!
//! ```text
//!   counts  = Σ  decode(worker i's TSC1 blob)          (u64 sums)
//!   ring    = ⊕  decode(worker i's TSWR blob)          (merge_ring)
//! ```
//!
//! Rebuilding from scratch each tick is the central correctness rule:
//! `merge_window`/`merge` are *sums*, so folding two successive pulls
//! of the same worker into one accumulator would double-count. Full
//! replacement makes the merged view a pure function of the worker
//! snapshot set — and because counters are exact sums over absolute
//! window ids, the result is bit-identical to what a single node
//! ingesting the same reports would hold, under any partition and any
//! merge order (`tests/` and the root proptest pin both).
//!
//! **Watermark.** The cluster watermark is the minimum over the worker
//! ring watermarks, each tagged with the worker's epoch (= file
//! generation, which bumps on recovery/compaction). Budget decisions
//! and estimation only consume windows at or below the watermark, so a
//! straggling worker can delay but never *revise* a published window.
//! A worker that fails a pull keeps its last good snapshot in the fold:
//! stale data is conservative (it only undercounts reports not yet
//! shipped) and its frozen watermark holds the cluster watermark back
//! until the worker returns — exactly the behavior a min() gives for
//! free.
//!
//! **Epochs.** An epoch change is a legal restart: the worker replayed
//! its WAL, so its fresh snapshot *replaces* the cached one and remains
//! exact. A same-epoch report-count regression can only mean lost state
//! and is surfaced as [`WorkerStatus::regressions`].
//!
//! **Publication and ε-budget.** Every tick runs the same
//! [`PublicationEngine`] pass as a single-node server, over the merged
//! view and below the cluster watermark — a single node is a cluster of
//! one, so both number, record, filter and (with
//! [`CoordConfig::budget`]) decide by one rule set, and the tick's
//! [`ClusterView`] embeds the pass's [`Publication`]. With
//! [`CoordConfig::ledger_path`] set the ledger is durable: the engine
//! restores it at startup (a corrupt blob, or one written under a
//! different contract, is a hard error — the coordinator holds no ring
//! to reseed it from, and restoring nothing would re-grant spent
//! budget) and rewrites it atomically inside the pass whenever it
//! moved, *before* the grant is released into the view. That ordering
//! is the cluster's persist-before-broadcast rule: a grant `routerd`
//! ever relayed is already on disk, so a coordinator killed and
//! restarted mid-horizon re-announces the same ε′ instead of
//! re-deciding it. A deployment picks one enforcement point —
//! cluster-level accounting on the coordinator (the single allocator
//! for the grant session), or per-worker accounting with no coordinator
//! budget — and the docs recommend the former for exact global
//! `w`-window guarantees.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use trajshare_aggregate::clusterproto::{
    read_cluster_frame, write_cluster_frame, ClusterFrame, WorkerSnapshot,
};
use trajshare_aggregate::{
    crc32, AggregateCounts, EstimatorBackend, GrantRecord, MobilityModel, Publication,
    PublicationEngine, StreamingEstimator, WindowBudgetConfig, WindowConfig, WindowedAggregator,
};
use trajshare_core::RegionGraph;

/// Coordinator deployment shape.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// Worker export endpoints (each worker's `ingestd --export-addr`).
    pub exports: Vec<SocketAddr>,
    /// The cluster's public region universe (tile per region) — must
    /// match the workers'.
    pub region_tiles: Vec<u16>,
    /// Window shape when the cluster streams; `None` for batch-archive
    /// clusters (counts only, watermark stays 0).
    pub window: Option<WindowConfig>,
    /// Per-pull connect/read timeout.
    pub pull_timeout: Duration,
    /// Cluster-level ε-budget (requires `window`).
    pub budget: Option<WindowBudgetConfig>,
    /// Estimator kernel backend.
    pub backend: EstimatorBackend,
    /// Durable `TSBA` ledger blob for the cluster accountant. `None`
    /// keeps the ledger in-memory (tests, ephemeral clusters); set, the
    /// coordinator restores it in [`Coordinator::new`] and the
    /// publication pass persists it atomically in every tick that moved
    /// it, so a restarted coordinator can never re-grant budget an
    /// earlier incarnation already spent.
    pub ledger_path: Option<PathBuf>,
    /// Region universe graph for the debiased divergence signal; `None`
    /// falls back to significance-testing raw occupancy.
    pub graph: Option<Arc<RegionGraph>>,
}

impl CoordConfig {
    /// Defaults for loopback clusters and tests: no budget, dense
    /// backend, 5 s pulls.
    pub fn new(exports: Vec<SocketAddr>, region_tiles: Vec<u16>) -> Self {
        CoordConfig {
            exports,
            region_tiles,
            window: None,
            pull_timeout: Duration::from_secs(5),
            budget: None,
            backend: EstimatorBackend::default(),
            ledger_path: None,
            graph: None,
        }
    }
}

/// One worker as the coordinator last saw it.
#[derive(Debug, Clone)]
pub struct WorkerStatus {
    /// The worker's export address.
    pub addr: SocketAddr,
    /// Whether the most recent pull succeeded.
    pub up: bool,
    /// Last seen epoch (worker file generation); 0 before first contact.
    pub epoch: u64,
    /// Last seen ring watermark.
    pub watermark: u64,
    /// Last seen total report count.
    pub reports: u64,
    /// Epoch changes observed (legal worker restarts).
    pub restarts: u64,
    /// Same-epoch report-count regressions observed (lost state —
    /// should stay 0).
    pub regressions: u64,
    /// Snapshots that failed to decode (shipping corruption — the
    /// previous good snapshot stays in the fold).
    pub decode_failures: u64,
}

/// Per-worker slot: status plus the last *validated* snapshot, kept
/// decoded so a failed pull can keep folding it at zero cost.
struct WorkerSlot {
    status: WorkerStatus,
    counts: Option<AggregateCounts>,
    ring: Option<WindowedAggregator>,
}

/// One tick's published cluster view: what only a cluster has, plus
/// the publication record the shared engine pass produced.
#[derive(Debug, Clone)]
pub struct ClusterView {
    /// Workers whose pull succeeded this tick.
    pub workers_up: usize,
    /// Total workers.
    pub workers_total: usize,
    /// Each worker's last-seen epoch, in `exports` order — the
    /// watermark's epoch tag (a consumer comparing two views must treat
    /// the watermark as advancing only while the epoch vector is
    /// unchanged or legally bumped).
    pub epochs: Vec<u64>,
    /// Total reports in the merged counts.
    pub merged_reports: u64,
    /// Bit-exact fingerprint of the merged *total* counts: CRC-32 of
    /// the `TSC1` encoding minus its trailing CRC (the
    /// `CountsSummary::of` idiom).
    pub counts_crc32: u32,
    /// Same fingerprint over the merged ring's window sum (`None` when
    /// not streaming). This is the value the CI smoke compares across
    /// worker kill/restart.
    pub ring_crc32: Option<u32>,
    /// The tick's publication: sequence number, cluster watermark
    /// (min over worker watermarks), merged windows, budget books and the
    /// standing grant — already durable, so relaying it is always safe.
    pub publication: Publication,
}

/// Pulls one snapshot from a worker export endpoint: connect, send
/// `SnapshotPull`, read the `Snapshot` reply.
pub fn pull_snapshot(addr: SocketAddr, timeout: Duration) -> std::io::Result<WorkerSnapshot> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_cluster_frame(&mut stream, &ClusterFrame::SnapshotPull)?;
    match read_cluster_frame(&mut stream) {
        Ok(ClusterFrame::Snapshot(snap)) => Ok(snap),
        Ok(_) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "worker answered a pull with a non-snapshot frame",
        )),
        Err(e) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("bad snapshot frame: {e}"),
        )),
    }
}

/// The coordinator: owns the worker slots, the merged view, the
/// warm-started estimator, and the publication engine (with the cluster
/// budget ledger when one runs).
pub struct Coordinator {
    config: CoordConfig,
    slots: Vec<WorkerSlot>,
    estimator: StreamingEstimator,
    engine: PublicationEngine,
    /// Last tick's merged state, for [`Coordinator::estimate`].
    merged_counts: AggregateCounts,
    merged_ring: Option<WindowedAggregator>,
    watermark: u64,
}

impl Coordinator {
    /// Builds a coordinator; no network traffic until the first
    /// [`Coordinator::tick`]. With [`CoordConfig::ledger_path`] set and
    /// the file present, the accountant is restored from it — and a
    /// blob that fails to decode or was written under a different
    /// budget contract is a **panic**, not a silent fresh start, because
    /// a coordinator that forgot its spends would re-grant them.
    pub fn new(config: CoordConfig) -> Self {
        assert!(!config.exports.is_empty(), "need at least one worker");
        assert!(
            config.budget.is_none() || config.window.is_some(),
            "a cluster budget requires a window config"
        );
        assert!(
            config.ledger_path.is_none() || config.budget.is_some(),
            "a ledger path requires a cluster budget"
        );
        let slots = config
            .exports
            .iter()
            .map(|&addr| WorkerSlot {
                status: WorkerStatus {
                    addr,
                    up: false,
                    epoch: 0,
                    watermark: 0,
                    reports: 0,
                    restarts: 0,
                    regressions: 0,
                    decode_failures: 0,
                },
                counts: None,
                ring: None,
            })
            .collect();
        let num_regions = config.region_tiles.len();
        // The coordinator is the cluster's single allocator, so the grant
        // session is always on; it holds no ring at startup, so a ledger
        // under a changed contract cannot be reseeded (`None`).
        let engine = match config.budget {
            Some(budget) => PublicationEngine::budgeted(
                budget,
                config.graph.clone(),
                true,
                config.ledger_path.clone(),
                None,
            )
            .unwrap_or_else(|e| panic!("cannot restore the cluster ledger: {e}")),
            None => PublicationEngine::default(),
        };
        Coordinator {
            estimator: StreamingEstimator::with_backend(
                StreamingEstimator::DEFAULT_COLD_ITERS,
                StreamingEstimator::DEFAULT_WARM_ITERS,
                config.backend,
            ),
            engine,
            merged_counts: AggregateCounts::new(num_regions),
            merged_ring: None,
            watermark: 0,
            slots,
            config,
        }
    }

    /// Per-worker status, in `exports` order.
    pub fn worker_status(&self) -> Vec<WorkerStatus> {
        self.slots.iter().map(|s| s.status.clone()).collect()
    }

    /// The merged totals from the last tick.
    pub fn merged_counts(&self) -> &AggregateCounts {
        &self.merged_counts
    }

    /// The merged ring from the last tick (`None` until a streaming
    /// worker ships one).
    pub fn merged_ring(&self) -> Option<&WindowedAggregator> {
        self.merged_ring.as_ref()
    }

    /// One coordinator round: pull every worker, rebuild the merged
    /// view from scratch, agree on the watermark, run budget decisions,
    /// and return the published view.
    pub fn tick(&mut self) -> ClusterView {
        // Phase 1: pull. Only a snapshot whose blobs fully decode
        // replaces a slot's cached state.
        for slot in &mut self.slots {
            match pull_snapshot(slot.status.addr, self.config.pull_timeout) {
                Ok(snap) => Self::install_snapshot(
                    slot,
                    snap,
                    &self.config.region_tiles,
                    self.config.window,
                ),
                Err(_) => slot.status.up = false,
            }
        }

        // Phase 2: fold every cached snapshot into a FRESH view —
        // never into last tick's (merges are sums; accumulating
        // successive pulls would double-count).
        let mut counts = AggregateCounts::new(self.config.region_tiles.len());
        let mut ring = self
            .config
            .window
            .map(|w| WindowedAggregator::new(self.config.region_tiles.clone(), w));
        for slot in &self.slots {
            if let Some(c) = &slot.counts {
                counts.merge(c);
            }
            if let (Some(total), Some(r)) = (&mut ring, &slot.ring) {
                total.merge_ring(r);
            }
        }

        // Phase 3: watermark = min over workers we have state for.
        // Workers never contacted don't vote (they contribute nothing
        // to the fold either); workers with cached state vote their
        // frozen watermark, holding the cluster back until they return.
        let watermark = self
            .slots
            .iter()
            .filter(|s| s.counts.is_some())
            .map(|s| s.status.watermark)
            .min()
            .unwrap_or(0);

        // Phase 4: the shared publication pass over merged windows at or
        // below the watermark. It persists the ledger before it releases
        // the grant into the record: a coordinator that cannot persist
        // must not announce — failing fast beats over-granting after a
        // restart.
        let pass = self.engine.publish(ring.as_ref(), watermark);
        if let Err(e) = pass.persisted {
            panic!("cannot persist the cluster ledger: {e}");
        }
        let counts_crc32 = snapshot_fingerprint(&counts);
        let ring_crc32 = ring.as_ref().map(|r| snapshot_fingerprint(r.merged()));

        self.merged_counts = counts;
        self.merged_ring = ring;
        self.watermark = watermark;

        ClusterView {
            workers_up: self.slots.iter().filter(|s| s.status.up).count(),
            workers_total: self.slots.len(),
            epochs: self.slots.iter().map(|s| s.status.epoch).collect(),
            merged_reports: self.merged_counts.num_reports,
            counts_crc32,
            ring_crc32,
            publication: pass.publication,
        }
    }

    /// Validates and installs one pulled snapshot into its slot.
    fn install_snapshot(
        slot: &mut WorkerSlot,
        snap: WorkerSnapshot,
        region_tiles: &[u16],
        window: Option<WindowConfig>,
    ) {
        let counts = match snap.decode_counts() {
            Ok(c) if c.num_regions == region_tiles.len() => c,
            _ => {
                slot.status.decode_failures += 1;
                slot.status.up = false;
                return;
            }
        };
        let ring = match window {
            Some(w) => match snap.decode_ring(region_tiles, w) {
                Ok(r) => r,
                Err(_) => {
                    slot.status.decode_failures += 1;
                    slot.status.up = false;
                    return;
                }
            },
            // Coordinator not streaming: ignore any shipped ring.
            None => None,
        };
        if slot.counts.is_some() {
            if snap.epoch != slot.status.epoch {
                // Legal restart: WAL replay rebuilt the state; replace.
                slot.status.restarts += 1;
            } else if snap.reports < slot.status.reports {
                // Same epoch, fewer reports: lost state. Install anyway
                // (the worker is the source of truth) but surface it.
                slot.status.regressions += 1;
            }
        }
        slot.status.up = true;
        slot.status.epoch = snap.epoch;
        slot.status.watermark = snap.watermark;
        slot.status.reports = snap.reports;
        slot.counts = Some(counts);
        slot.ring = ring;
    }

    /// Estimates the cluster mobility model from the last tick's merged
    /// view, warm-starting from the previous call. Streaming clusters
    /// estimate over the engine's one filter
    /// ([`PublicationEngine::published_counts`] at the cluster
    /// watermark); batch clusters estimate over the totals. Returns
    /// `None` when the view holds no reports to estimate from.
    pub fn estimate(&mut self, graph: &RegionGraph) -> Option<MobilityModel> {
        let published;
        let counts = match &self.merged_ring {
            Some(ring) => {
                published = self.engine.published_counts(ring, self.watermark)?;
                &published
            }
            None if self.merged_counts.num_reports > 0 => &self.merged_counts,
            None => return None,
        };
        Some(self.estimator.tick(counts, graph))
    }

    /// Windows currently accepted for publication (ascending). Without
    /// a budget this is empty — every window ≤ watermark publishes.
    pub fn accepted_windows(&self) -> Vec<u64> {
        self.engine.accepted_windows()
    }

    /// The cluster budget's epoch-stamped grant history, oldest first —
    /// empty without a budget. Each allocation gets exactly one record,
    /// so a restart that re-announces instead of re-deciding leaves
    /// this log's length unchanged (the no-double-grant assertion).
    pub fn grant_history(&self) -> Vec<GrantRecord> {
        self.engine
            .accountant()
            .map(|a| a.grant_history().copied().collect())
            .unwrap_or_default()
    }

    /// The cluster budget's decision log, `window → (granted, spent,
    /// refused)` — empty without a budget.
    pub fn budget_decisions(&self) -> BTreeMap<u64, (u64, u64, bool)> {
        self.engine
            .accountant()
            .map(|a| {
                a.decisions()
                    .map(|d| (d.window, (d.granted_nano, d.spent_nano, d.refused)))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// The workspace's bit-exact counts fingerprint: CRC-32 of the `TSC1`
/// encoding *excluding* its trailing CRC (including it would collapse
/// every input to the constant CRC residue).
pub fn snapshot_fingerprint(counts: &AggregateCounts) -> u32 {
    let snapshot = counts.encode_snapshot();
    crc32(&snapshot[..snapshot.len() - 4])
}
