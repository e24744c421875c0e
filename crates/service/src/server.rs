//! The long-running ingestion server.
//!
//! Architecture (all `std::net` + OS threads — no async runtime is
//! reachable offline, and a thread-per-worker accept/worker pool is the
//! right shape for a CPU-light, syscall-bound byte funnel anyway):
//!
//! ```text
//!            ┌────────────┐   bounded channel    ┌──────────────────┐
//!  clients ─▶│  acceptor  │──(conns; try_send)──▶│ worker 0..N-1    │
//!            └────────────┘     full ⇒ refuse    │  shard Aggregator│
//!                                                │  shard WAL       │
//!                                                └──────────────────┘
//! ```
//!
//! * **Backpressure** is explicit at two levels: the bounded connection
//!   queue (a full queue means new connections are closed immediately —
//!   shed, not buffered), and TCP itself (a worker busy ingesting stops
//!   reading, so the client's sends block). A client that stalls
//!   mid-frame past `read_timeout` is disconnected (slow-reader guard).
//! * **Sharding**: each worker owns one [`Aggregator`] shard and one
//!   write-ahead log; totals are merged on demand ([`ServerHandle::counts`])
//!   — counters are plain sums, so shard count and scheduling never
//!   change the result.
//! * **Durability**: every validated report frame is appended to the
//!   worker's WAL before it is counted, and the WAL is flushed once per
//!   read round, before the round's ack, so an acked report survives any
//!   process kill (OS-crash durability is a [`SyncPolicy`] choice — see
//!   [`crate::storage::SyncPolicy`]). Workers snapshot their counters
//!   every `snapshot_every` reports; restart recovery = base + shard
//!   snapshots + log tails, replayed through the same fold the live
//!   path uses (see [`crate::storage`]).
//! * **Streaming** (optional, [`ServerConfig::stream`]): each shard also
//!   maintains a sliding-window ring over report timestamps; a
//!   maintenance thread publishes the merged window view every
//!   `publish_every` and the ring is persisted/recovered alongside the
//!   totals.
//! * **Bounded disk**: the same maintenance thread compacts online when
//!   any shard's WAL passes `wal_max_bytes` — current totals become the
//!   next generation's base, fresh logs are started, the manifest flip
//!   commits, and the old generation is deleted; WAL disk usage between
//!   restarts is therefore bounded instead of unbounded.
//! * **Publication and budget accounting**: the maintenance thread runs
//!   the shared [`trajshare_aggregate::PublicationEngine`] pass over the
//!   merged shard rings, with the newest window as its watermark. With
//!   [`StreamServerConfig::budget`] every window gets an ε grant under
//!   the configured allocation policy, over-claiming windows are refused
//!   (excluded from [`ServerHandle::estimate_window_model`]), and the
//!   pass persists the `BUDGET` ledger whenever it moves, so *"Σ
//!   published spend over any `w` consecutive windows ≤ ε"* holds across
//!   kill/restart.
//!
//! Module map: this file keeps configuration, stats, startup
//! ([`IngestServer::start`]) and the [`ServerHandle`]; the connection
//! path (acceptor, workers, per-connection handler) is in `conn.rs`, the
//! maintenance thread (publication, budget pass, online compaction) in
//! `maintenance.rs`, and the `TSCL` export listener in `export.rs`.
//!
//! Protocol: the client streams single-report frames
//! ([`trajshare_aggregate::Report::encode_frame`]) and/or `TSR4` batch
//! frames ([`trajshare_aggregate::batch`]), mixed freely, then shuts
//! down its write half. Every frame takes one path — decoded into
//! columns, appended to the WAL, folded — and every read round ends with
//! one WAL flush followed by at most one cumulative `u64` LE ack
//! (reports accepted so far), so an ack never covers an unflushed record
//! and a client that dies mid-stream re-sends at most one read round.
//! EOF is the last round: its ack is the durable total. Mid-stream acks
//! start with a connection's first `TSR4` frame; a connection of
//! single-report frames only sees exactly one ack, at EOF.

use crate::conn::{acceptor_loop, worker_loop};
use crate::export::export_loop;
use crate::maintenance::{maintenance_loop, merged_ring};
use crate::storage::{self, Recovery, SyncPolicy, WalWriter};
use crossbeam::channel;
use serde::Serialize;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use trajshare_aggregate::grant::wake_acceptor;
use trajshare_aggregate::snapshot::crc32;
use trajshare_aggregate::{
    AggregateCounts, Aggregator, EstimatorBackend, GrantBoard, GrantFrame, GrantRecord,
    MobilityModel, PublicationEngine, ReportBatch, StreamingEstimator, WindowBudgetAccountant,
    WindowBudgetConfig, WindowConfig, WindowedAggregator,
};
pub use trajshare_aggregate::{BudgetPublication, Publication};
use trajshare_core::RegionGraph;

/// Streaming (sliding-window) options for a server instance.
#[derive(Debug, Clone)]
pub struct StreamServerConfig {
    /// Window length / ring depth over `Report::t`.
    pub window: WindowConfig,
    /// How often the maintenance thread publishes the merged window view.
    pub publish_every: Duration,
    /// Stamp report timestamps at the collector edge (server clock,
    /// seconds since the Unix epoch) instead of trusting the
    /// client-declared `t`. The stamped encoding is what reaches the WAL,
    /// so recovery reproduces the stamped windows. For deployments that
    /// cannot trust device clocks; `window_len` is then in seconds.
    pub server_clock: bool,
    /// How many windows a single connection may advance the shard's
    /// watermark in total. A hostile far-future timestamp would otherwise
    /// evict every live window in one report; with a budget, reports that
    /// would overdraw it are refused (counted in
    /// [`ServerStats::watermark_throttled`], never acked, never logged).
    /// `u64::MAX` (the historical behavior) disables the limit. Polices
    /// *client-declared* timestamps only — with `server_clock` the stamp
    /// is the server's own and bypasses the budget — and only while the
    /// shard's ring holds live reports: advancing an empty ring evicts
    /// nothing and is free, so epoch-stamping clients can reach "now"
    /// from a cold start. The budget bounds eviction of live data; it
    /// cannot authenticate absolute time (that is `server_clock`'s job).
    pub max_conn_advance: u64,
    /// Kernel backend for window-model estimation
    /// ([`ServerHandle::estimate_window_model`]); embedded deployments
    /// with a region graph flip the whole estimation chain here.
    pub backend: EstimatorBackend,
    /// Streaming privacy-budget enforcement: a `w`-window ε contract the
    /// publication thread accounts per window
    /// ([`trajshare_aggregate::WindowBudgetAccountant`]). Each window is
    /// granted a share under the configured allocation policy; a window
    /// whose cohort's worst (max) per-report ε′ exceeds its grant is
    /// **refused** — excluded from [`ServerHandle::estimate_window_model`] and
    /// counted in [`ServerStats::budget_refusals`]. The ledger is
    /// persisted (`BUDGET` file) on every decision, so the invariant
    /// *"over any `w` consecutive windows, published spend ≤ ε"*
    /// survives kill/restart. `None` (the historical behavior) publishes
    /// without accounting.
    pub budget: Option<WindowBudgetConfig>,
    /// Close the budget loop: run the **grant session**. The maintenance
    /// thread pre-allocates the *next* window's ε′ at every publication
    /// tick and broadcasts it as a `TSGB` frame down every connection
    /// that opted in with a `TSGH` hello (late joiners get the current
    /// grant the moment they subscribe). Honest clients then randomize
    /// at exactly the granted ε′, so settlement observes spend == grant
    /// and refusals become the exception path. Requires `budget` on a
    /// single node (a cluster worker instead relays the coordinator's
    /// grants arriving over the `TSCL` export listener, so `grants`
    /// without `budget` is meaningful there). Off by default — existing
    /// deployments keep the one-way protocol byte for byte.
    pub grants: bool,
    /// Region universe for the divergence signal. With a graph, the
    /// allocator's change detector runs RetraSyn-style significance
    /// testing over *debiased* per-window posteriors (invert the EM
    /// channel at the window's mean ε′, then compare IBU frequency
    /// estimates) instead of raw perturbed occupancy — raw counts are
    /// flattened toward uniform by the channel, which mutes real shifts
    /// at small ε and can hallucinate shifts when ε′ itself changes
    /// between windows. Without a graph the significance test runs on
    /// normalized raw occupancy (noise-floor-gated, but channel-biased).
    pub graph: Option<Arc<RegionGraph>>,
}

impl StreamServerConfig {
    /// Streaming options with the historical defaults: client-declared
    /// timestamps, no advance limit, dense estimation, no budget
    /// accounting.
    pub fn new(window: WindowConfig, publish_every: Duration) -> Self {
        StreamServerConfig {
            window,
            publish_every,
            server_clock: false,
            max_conn_advance: u64::MAX,
            backend: EstimatorBackend::default(),
            budget: None,
            grants: false,
            graph: None,
        }
    }
}

/// The per-connection slice of the streaming options `handle_conn`
/// enforces (everything else is the maintenance thread's business).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamIngestPolicy {
    pub(crate) server_clock: bool,
    pub(crate) max_conn_advance: u64,
}

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: SocketAddr,
    /// Directory for logs, counter snapshots, and the manifest.
    pub data_dir: PathBuf,
    /// Public per-region hour tiles; its length is the universe size
    /// (`trajshare_aggregate::region_tiles` derives it from a
    /// `RegionSet`).
    pub region_tiles: Vec<u16>,
    /// Worker threads = ingestion shards.
    pub workers: usize,
    /// Pending-connection queue depth; a full queue refuses connections.
    pub queue_depth: usize,
    /// Reports a shard ingests between counter-snapshot writes.
    pub snapshot_every: u64,
    /// WAL records buffered between automatic flushes.
    pub wal_flush_every: u32,
    /// When the WAL forces data to stable storage (OS-crash durability);
    /// the default, [`SyncPolicy::Never`], matches the original
    /// kernel-flush-only behavior.
    pub sync_policy: SyncPolicy,
    /// Online-compaction trigger: when any shard's WAL exceeds this many
    /// bytes, the maintenance thread folds everything into a fresh
    /// generation and truncates the logs. `u64::MAX` disables.
    pub wal_max_bytes: u64,
    /// Sliding-window streaming; `None` runs the batch-archive shape.
    pub stream: Option<StreamServerConfig>,
    /// Socket read timeout — a client stalling longer is disconnected.
    pub read_timeout: Duration,
    /// Cluster snapshot-export listener (`TSCL` protocol): a coordinator
    /// connects here and pulls the worker's merged counter + ring state
    /// (see `trajshare_aggregate::clusterproto`). `None` (the default)
    /// runs no export listener — single-node deployments ship nothing.
    pub export_addr: Option<SocketAddr>,
    /// Per-stage cost profiling of the ingest hot path
    /// ([`ServerHandle::ingest_profile`]). Off (the default) costs
    /// nothing: the hot path never reads a clock — every timing call
    /// sits behind this flag's `Option`.
    pub profile: bool,
}

impl ServerConfig {
    /// Sensible defaults for loopback deployments and tests.
    pub fn new(data_dir: impl Into<PathBuf>, region_tiles: Vec<u16>) -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            data_dir: data_dir.into(),
            region_tiles,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            queue_depth: 64,
            snapshot_every: 10_000,
            wal_flush_every: 64,
            sync_policy: SyncPolicy::Never,
            wal_max_bytes: 1 << 30,
            stream: None,
            read_timeout: Duration::from_secs(30),
            export_addr: None,
            profile: false,
        }
    }
}

/// Monotonic event counters, shared across all server threads.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections handed to a worker.
    pub accepted: AtomicU64,
    /// Connections closed immediately because the queue was full.
    pub refused: AtomicU64,
    /// Connections that streamed to EOF and were acked.
    pub completed: AtomicU64,
    /// Connections dropped by the slow-reader timeout.
    pub disconnected_slow: AtomicU64,
    /// Connections dropped for protocol violations (bad magic, oversized
    /// or inconsistent frames, trailing garbage).
    pub disconnected_protocol: AtomicU64,
    /// Reports validated, logged, and counted.
    pub reports_ingested: AtomicU64,
    /// Reports refused because accepting them would advance the window
    /// watermark past the connection's advance budget (streaming only;
    /// see [`StreamServerConfig::max_conn_advance`]). Not logged, not
    /// counted, not acked.
    pub watermark_throttled: AtomicU64,
    /// Read rounds committed: one WAL flush, ahead of the round's ack,
    /// for every socket read that appended at least one record
    /// (`reports_ingested / wal_commits` is the commit size).
    pub wal_commits: AtomicU64,
    /// Connections dropped by I/O errors (socket or WAL).
    pub io_errors: AtomicU64,
    /// Sliding-window publications emitted by the maintenance thread.
    /// This and the two budget counters move only after the publication
    /// that reflects them is stored (with `Release` ordering), so a
    /// reader who sees one move finds that publication behind
    /// [`ServerHandle::latest_publication`].
    pub publications: AtomicU64,
    /// Per-window budget allocations decided by the publication thread
    /// (streaming deployments with [`StreamServerConfig::budget`]).
    pub budget_decisions: AtomicU64,
    /// Windows refused by the budget accountant (observed cohort spend
    /// exceeded the window's grant); their data is excluded from
    /// published model estimates.
    pub budget_refusals: AtomicU64,
    /// Cluster snapshots served over the `TSCL` export listener
    /// ([`ServerConfig::export_addr`]).
    pub snapshots_shipped: AtomicU64,
    /// Distinct `TSGB` grants announced on this node's grant board —
    /// allocated locally by the maintenance thread
    /// ([`StreamServerConfig::grants`]) or relayed by a coordinator over
    /// the `TSCL` export listener.
    pub grants_published: AtomicU64,
    /// Connections that opted into the grant session with a `TSGH`
    /// subscribe hello.
    pub grant_subscriptions: AtomicU64,
    /// Online WAL compactions (generation bumps while live).
    pub compactions: AtomicU64,
    /// Online compactions that failed (retried after a backoff).
    pub compaction_failures: AtomicU64,
}

impl ServerStats {
    pub(crate) fn bump(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Announces `grant` on the node's board (when it runs a grant
    /// session) and counts it in `grants_published` when it was new.
    pub(crate) fn announce(&self, board: Option<&GrantBoard>, grant: GrantFrame) {
        if board.is_some_and(|board| board.announce(grant)) {
            self.bump(&self.grants_published);
        }
    }
}

/// Per-stage wall-clock accounting of the ingest hot path — every report
/// frame, whichever kind — summed across all workers. Only allocated
/// when [`ServerConfig::profile`] is set — with it off the connection
/// handlers never read a clock, so profiling support costs the hot path
/// nothing. `validate_ns`/`decode_ns` are timed per frame inside the
/// decoder; the other clocks are read once per read round.
#[derive(Debug, Default)]
pub(crate) struct IngestProfile {
    /// See [`IngestProfileSnapshot::decode_ns`].
    pub decode_ns: AtomicU64,
    /// See [`IngestProfileSnapshot::validate_ns`].
    pub validate_ns: AtomicU64,
    /// See [`IngestProfileSnapshot::wal_ns`].
    pub wal_ns: AtomicU64,
    /// See [`IngestProfileSnapshot::accumulate_ns`].
    pub accumulate_ns: AtomicU64,
    /// See [`IngestProfileSnapshot::ack_ns`].
    pub ack_ns: AtomicU64,
    /// See [`IngestProfileSnapshot::batches`].
    pub batches: AtomicU64,
    /// See [`IngestProfileSnapshot::reports`].
    pub reports: AtomicU64,
}

impl IngestProfile {
    /// A consistent-enough copy of the live counters (each field is read
    /// atomically; the set is not a snapshot of one instant, which is
    /// fine for a monotonically growing profile).
    pub fn snapshot(&self) -> IngestProfileSnapshot {
        IngestProfileSnapshot {
            decode_ns: self.decode_ns.load(Ordering::Relaxed),
            validate_ns: self.validate_ns.load(Ordering::Relaxed),
            wal_ns: self.wal_ns.load(Ordering::Relaxed),
            accumulate_ns: self.accumulate_ns.load(Ordering::Relaxed),
            ack_ns: self.ack_ns.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            reports: self.reports.load(Ordering::Relaxed),
        }
    }
}

/// Plain-number view of the server's per-stage ingest profile (see
/// [`ServerConfig::profile`]), serializable for bench reports and CLI
/// dumps.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct IngestProfileSnapshot {
    /// Filling column scratch from validated payload bytes.
    pub decode_ns: u64,
    /// Frame CRC + header + column-structure validation.
    pub validate_ns: u64,
    /// The WAL commit that ends each read round: the flush `write` (and
    /// any group-commit sync).
    pub wal_ns: u64,
    /// The rest of a round's frame loop: counter accumulation (shard
    /// totals plus the window ring), the buffered WAL append in front of
    /// it, and any counter snapshot that came due.
    pub accumulate_ns: u64,
    /// Writing cumulative acks back to clients.
    pub ack_ns: u64,
    /// Report frames profiled.
    pub batches: u64,
    /// Reports inside those frames.
    pub reports: u64,
}

/// One worker's mutable state: its counter shard, its window ring (when
/// streaming), and its WAL. The mutex is held per read round by the
/// owning worker and briefly by merge-on-demand readers
/// ([`ServerHandle::counts`]), the maintenance thread, and shutdown.
pub(crate) struct Shard {
    pub(crate) agg: Aggregator,
    pub(crate) ring: Option<WindowedAggregator>,
    pub(crate) wal: WalWriter,
    pub(crate) counts_path: PathBuf,
    pub(crate) since_snapshot: u64,
    pub(crate) snapshot_every: u64,
}

impl Shard {
    /// WAL-then-count ingestion of one validated report frame, decoded
    /// into `batch`: `payload` (CRC-32 `payload_crc`, which the decode
    /// returned) becomes one buffered WAL record, the counters are fed
    /// column-wise, and a counter snapshot is written when one is due.
    /// The record is **not** flushed here — the connection handler
    /// commits once per read round, before it acks.
    pub(crate) fn ingest_frame(
        &mut self,
        batch: &ReportBatch,
        payload: &[u8],
        payload_crc: u32,
    ) -> std::io::Result<()> {
        self.wal.append_with_crc(payload, payload_crc)?;
        storage::fold_frame(&mut self.agg, self.ring.as_mut(), batch);
        self.since_snapshot += batch.num_reports() as u64;
        if self.since_snapshot >= self.snapshot_every {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Flushes the WAL and atomically persists the shard counters (and
    /// window ring) with the log offset they cover.
    fn snapshot(&mut self) -> std::io::Result<()> {
        self.wal.flush()?;
        let ring_blob = self.ring.as_ref().map(|r| r.encode_ring());
        storage::write_shard_counts(
            &self.counts_path,
            self.agg.counts(),
            self.wal.offset(),
            ring_blob.as_deref(),
        )?;
        self.since_snapshot = 0;
        Ok(())
    }
}

/// The recovered-and-compacted state every live total builds on. `gen`
/// moves when the maintenance thread compacts online; lock order is
/// always base → shards (in index order) → publication engine for any
/// multi-lock path (only compaction nests all three; the publication
/// pass holds the engine lock alone).
pub(crate) struct BaseState {
    pub(crate) counts: AggregateCounts,
    pub(crate) ring: Option<WindowedAggregator>,
    pub(crate) gen: u64,
}

/// The running server: owns its threads; query or stop it through this.
pub struct ServerHandle {
    addr: SocketAddr,
    export_addr: Option<SocketAddr>,
    stats: Arc<ServerStats>,
    base: Arc<Mutex<BaseState>>,
    shards: Vec<Arc<Mutex<Shard>>>,
    latest_publication: Arc<Mutex<Option<Publication>>>,
    /// Warm-started window-model estimator on the configured backend
    /// (streaming servers only).
    estimator: Option<Mutex<StreamingEstimator>>,
    /// The publication engine: the publication counter and, with a
    /// budget config, the ledger and its accept/refuse books.
    engine: Arc<Mutex<PublicationEngine>>,
    /// The TSGB grant board ([`StreamServerConfig::grants`] only).
    board: Option<Arc<GrantBoard>>,
    /// Per-stage hot-path profile ([`ServerConfig::profile`] only).
    profile: Option<Arc<IngestProfile>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    recovery: RecoverySummary,
    /// Exclusive data-dir lock, held for the server's lifetime so no
    /// other process can recover/compact the directory underneath it.
    _dir_lock: std::fs::File,
}

/// What recovery found at startup (surfaced for operators and tests).
#[derive(Debug, Clone, Serialize)]
pub struct RecoverySummary {
    /// The file generation this run writes.
    pub generation: u64,
    /// Reports recovered by log replay (beyond snapshots).
    pub replayed_reports: u64,
    /// Shards whose previous log ended in a torn record.
    pub torn_tails: u64,
    /// Total reports in the recovered base counters.
    pub recovered_reports: u64,
    /// Live windows in the restored ring (0 when not streaming).
    pub restored_windows: u64,
}

/// Marker type for [`IngestServer::start`].
pub struct IngestServer;

impl IngestServer {
    /// Recovers durable state from `config.data_dir`, binds the listener,
    /// and spawns the acceptor and worker threads.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        assert!(config.workers > 0, "need at least one worker");
        assert!(!config.region_tiles.is_empty(), "empty region universe");
        let dir_lock = storage::lock_dir(&config.data_dir)?;
        let window = config.stream.as_ref().map(|s| s.window);
        let Recovery {
            counts: base_counts,
            ring: base_ring,
            gen,
            replayed_reports,
            torn_tails,
            ..
        } = storage::recover_locked(&config.data_dir, &config.region_tiles, window)?;
        let recovery = RecoverySummary {
            generation: gen,
            replayed_reports,
            torn_tails,
            recovered_reports: base_counts.num_reports,
            restored_windows: base_ring
                .as_ref()
                .map(|r| r.windows().len() as u64)
                .unwrap_or(0),
        };

        // The node's ledger lives in `BUDGET`; the restored ring (already
        // stamped with the ledger's spends) can reseed it when the
        // contract changed.
        let engine = match config.stream.as_ref().and_then(|s| Some((s, s.budget?))) {
            Some((s, budget)) => PublicationEngine::budgeted(
                budget,
                s.graph.clone(),
                s.grants,
                Some(storage::budget_path(&config.data_dir)),
                Some(
                    &base_ring
                        .as_ref()
                        .map_or_else(Vec::new, |r| r.window_spends()),
                ),
            )?,
            None => PublicationEngine::default(),
        };
        let engine = Arc::new(Mutex::new(engine));

        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;

        let stats = Arc::new(ServerStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = channel::bounded::<TcpStream>(config.queue_depth);

        // Fresh shard rings start at the recovered watermark, so late
        // reports are judged against where the stream actually is. A
        // server-clock deployment additionally starts at *now*: its
        // window key is wall time, and a fresh ring at window 0 would
        // make the first stamped report look like a multi-million-window
        // jump.
        let fresh_ring = |base_ring: &Option<WindowedAggregator>| {
            window.map(|w| {
                let mut ring = WindowedAggregator::new(config.region_tiles.clone(), w);
                if let Some(base) = base_ring {
                    ring.advance_to(base.newest_window());
                }
                if config.stream.as_ref().is_some_and(|s| s.server_clock) {
                    ring.advance_to(w.window_of(server_clock_now()));
                }
                ring
            })
        };

        // The grant board: fan-out point of the TSGB grant session
        // ([`StreamServerConfig::grants`]). Fed by the maintenance
        // thread's allocator when this node holds the budget ledger, or
        // by a coordinator's `GrantAnnounce` relays over the export
        // listener when it doesn't (cluster workers). Connection
        // handlers register subscribers on hello.
        let board = config
            .stream
            .as_ref()
            .filter(|s| s.grants)
            .map(|_| Arc::new(GrantBoard::new()));

        let profile = config.profile.then(|| Arc::new(IngestProfile::default()));

        let mut shards = Vec::with_capacity(config.workers);
        let mut threads = Vec::with_capacity(config.workers + 2);
        for i in 0..config.workers {
            let shard = Arc::new(Mutex::new(Shard {
                agg: Aggregator::from_region_tiles(config.region_tiles.clone()),
                ring: fresh_ring(&base_ring),
                wal: WalWriter::create_with_policy(
                    &storage::wal_path(&config.data_dir, gen, i),
                    config.wal_flush_every,
                    config.sync_policy,
                )?,
                counts_path: storage::shard_counts_path(&config.data_dir, gen, i),
                since_snapshot: 0,
                snapshot_every: config.snapshot_every.max(1),
            }));
            shards.push(Arc::clone(&shard));
            let rx = rx.clone();
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let read_timeout = config.read_timeout;
            let policy = config.stream.as_ref().map(|s| StreamIngestPolicy {
                server_clock: s.server_clock,
                max_conn_advance: s.max_conn_advance,
            });
            let board = board.clone();
            let profile = profile.clone();
            threads.push(std::thread::spawn(move || {
                worker_loop(rx, shard, stats, stop, read_timeout, policy, board, profile)
            }));
        }
        drop(rx);

        {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                acceptor_loop(listener, tx, stats, stop)
            }));
        }

        let base = Arc::new(Mutex::new(BaseState {
            counts: base_counts,
            ring: base_ring,
            gen,
        }));
        let latest_publication = Arc::new(Mutex::new(None));

        // The cluster snapshot-export listener: a coordinator pulls the
        // worker's merged counter + ring state over the TSCL protocol.
        // One serving thread is enough — the only legitimate client is
        // a coordinator polling every publication interval.
        let export_addr = match config.export_addr {
            Some(requested) => {
                let listener = TcpListener::bind(requested)?;
                let bound = listener.local_addr()?;
                let base = Arc::clone(&base);
                let shards = shards.clone();
                let stats = Arc::clone(&stats);
                let stop = Arc::clone(&stop);
                let read_timeout = config.read_timeout;
                let board = board.clone();
                threads.push(std::thread::spawn(move || {
                    export_loop(listener, base, shards, stats, stop, read_timeout, board)
                }));
                Some(bound)
            }
            None => None,
        };

        // Maintenance thread: periodic window publication, size-triggered
        // online WAL compaction, and the group-commit time bound (a WAL
        // receiving no appends gets no flushes, so the max_delay half of
        // the policy needs a periodic driver). Spawned only when at
        // least one job exists.
        let group_commit = matches!(config.sync_policy, SyncPolicy::GroupCommit { .. });
        if config.stream.is_some() || config.wal_max_bytes != u64::MAX || group_commit {
            let base = Arc::clone(&base);
            let shards = shards.clone();
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let latest = Arc::clone(&latest_publication);
            let cfg = config.clone();
            let engine = Arc::clone(&engine);
            let board = board.clone();
            threads.push(std::thread::spawn(move || {
                maintenance_loop(cfg, base, shards, stats, stop, latest, engine, board)
            }));
        }

        let estimator = config.stream.as_ref().map(|s| {
            Mutex::new(StreamingEstimator::with_backend(
                StreamingEstimator::DEFAULT_COLD_ITERS,
                StreamingEstimator::DEFAULT_WARM_ITERS,
                s.backend,
            ))
        });

        Ok(ServerHandle {
            addr,
            export_addr,
            stats,
            base,
            shards,
            latest_publication,
            estimator,
            engine,
            board,
            profile,
            stop,
            threads,
            recovery,
            _dir_lock: dir_lock,
        })
    }
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound cluster snapshot-export address (resolves port 0);
    /// `None` when [`ServerConfig::export_addr`] was not set.
    pub fn export_addr(&self) -> Option<SocketAddr> {
        self.export_addr
    }

    /// Live event counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// What startup recovery reconstructed.
    pub fn recovery(&self) -> &RecoverySummary {
        &self.recovery
    }

    /// The live per-stage ingest profile; `None` unless
    /// [`ServerConfig::profile`] was set.
    pub fn ingest_profile(&self) -> Option<IngestProfileSnapshot> {
        self.profile.as_deref().map(IngestProfile::snapshot)
    }

    /// Merge-on-demand total: recovered base plus every live shard. The
    /// base lock is held across the shard merges (lock order base →
    /// shards, same as compaction) so an online compaction — which moves
    /// shard counts into the base — cannot make the total transiently
    /// lose the shard-held reports.
    pub fn counts(&self) -> AggregateCounts {
        let base = self.base.lock().unwrap();
        let mut total = base.counts.clone();
        for shard in &self.shards {
            total.merge(shard.lock().unwrap().agg.counts());
        }
        total
    }

    /// Merge-on-demand sliding-window view: the recovered base ring plus
    /// every live shard ring, merged per absolute window id. `None` when
    /// the server was not configured for streaming. Holds the base lock
    /// across the shard merges for the same reason as
    /// [`ServerHandle::counts`].
    pub fn windowed_counts(&self) -> Option<WindowedAggregator> {
        merged_ring(&self.base, &self.shards)
    }

    /// The most recent sliding-window publication, if any.
    pub fn latest_publication(&self) -> Option<Publication> {
        self.latest_publication.lock().unwrap().clone()
    }

    /// Estimates the mobility model over the merged live window on the
    /// configured [`StreamServerConfig::backend`], warm-starting from the
    /// previous call's posterior — the embedded-deployment hook that
    /// makes the backend flag flip the whole service-side estimation
    /// chain. The windows come through the engine's one filter
    /// ([`PublicationEngine::published_counts`], with the newest window
    /// as watermark): with a budget configured, only windows the
    /// accountant has *accepted* contribute — refused, not-yet-decided,
    /// and unaccountable gap windows are excluded, so publication only
    /// ever uses data whose spend the ledger accounts. `None` when the
    /// server is not streaming, `graph` does not match the server's
    /// region universe (a graph-less `ingestd` has no graph to offer —
    /// see `--region-graph`), or the filtered view is empty.
    pub fn estimate_window_model(&self, graph: &RegionGraph) -> Option<MobilityModel> {
        let estimator = self.estimator.as_ref()?;
        let view = self.windowed_counts()?;
        if view.merged().num_regions != graph.num_regions() {
            return None;
        }
        // The engine lock is released before the solve: a publication
        // pass must never wait on an IBU run.
        let counts = self
            .engine
            .lock()
            .unwrap()
            .published_counts(&view, view.newest_window())?;
        Some(estimator.lock().unwrap().tick(&counts, graph))
    }

    /// A snapshot of the privacy-budget ledger, when the server runs
    /// with [`StreamServerConfig::budget`].
    pub fn budget_ledger(&self) -> Option<WindowBudgetAccountant> {
        self.engine.lock().unwrap().accountant().cloned()
    }

    /// The accountant's grant history — (window, epoch, granted ε′,
    /// settled max ε′) per decision, oldest first. Outlives both the
    /// ledger horizon and the ring retention (see
    /// [`trajshare_aggregate::GrantRecord`]); empty when no budget is
    /// configured.
    pub fn budget_grant_history(&self) -> Vec<GrantRecord> {
        let engine = self.engine.lock().unwrap();
        engine
            .accountant()
            .map(|acct| acct.grant_history().copied().collect())
            .unwrap_or_default()
    }

    /// The latest grant on this node's grant board — what a subscribing
    /// client connecting right now would be caught up with. `None` when
    /// the grant session is disabled or nothing has been announced yet.
    pub fn latest_grant(&self) -> Option<GrantFrame> {
        self.board.as_ref().and_then(|b| b.current())
    }

    /// The live windows currently excluded from published estimates by
    /// the budget accountant (empty when no budget is configured).
    pub fn budget_refused_windows(&self) -> Vec<u64> {
        self.engine.lock().unwrap().refused_windows()
    }

    /// The current file generation (bumps on online compaction).
    pub fn generation(&self) -> u64 {
        self.base.lock().unwrap().gen
    }

    /// Graceful stop: refuse new connections, join all threads, persist a
    /// final snapshot of every shard, and return the final counters.
    pub fn shutdown(mut self) -> std::io::Result<AggregateCounts> {
        self.stop_threads();
        for shard in &self.shards {
            shard.lock().unwrap().snapshot()?;
        }
        Ok(self.counts())
    }

    /// Abrupt stop for crash-recovery tests: threads are stopped but *no*
    /// final snapshot is written — recovery must reconstruct the tail
    /// from the WAL alone, exactly as after a SIGKILL.
    pub fn crash(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Both listeners block in `accept`; a throwaway connection each
        // lets them see the flag.
        wake_acceptor(self.addr);
        if let Some(export) = self.export_addr {
            wake_acceptor(export);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The collector-edge clock: seconds since the Unix epoch (saturating
/// at 0 on a pre-epoch system clock rather than panicking).
pub(crate) fn server_clock_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// A compact, JSON-serializable fingerprint of a counter set — what the
/// `ingestd --dump-counts` CLI prints so operators (and the CI smoke
/// test) can verify restored state. `snapshot_crc32` covers every counter
/// byte, so two equal fingerprints mean bit-identical counters.
#[derive(Debug, Clone, Serialize)]
pub struct CountsSummary {
    /// Universe size.
    pub num_regions: usize,
    /// Reports folded in.
    pub num_reports: u64,
    /// Unigram observations folded in.
    pub num_unigrams: u64,
    /// Observations rejected as malformed/hostile.
    pub rejected: u64,
    /// Σ ε′ over reports, nano-ε.
    pub eps_nano_sum: u64,
    /// Max per-report ε′, nano-ε (what budget settlement bounds).
    pub eps_nano_max: u64,
    /// Σ occupancy counters.
    pub total_occupancy: u64,
    /// Σ transition counters.
    pub total_transitions: u64,
    /// CRC-32 of the full snapshot encoding — a bit-exact fingerprint.
    pub snapshot_crc32: u32,
}

impl CountsSummary {
    /// Fingerprints `counts`.
    pub fn of(counts: &AggregateCounts) -> Self {
        // The fingerprint is the snapshot's own embedded CRC — i.e. the
        // CRC over the encoded counters. (CRC-ing the whole encoding
        // *including* its trailing CRC would collapse to the constant
        // CRC residue for every input — the bug this replaces.)
        let snapshot = counts.encode_snapshot();
        let payload = &snapshot[..snapshot.len() - 4];
        CountsSummary {
            num_regions: counts.num_regions,
            num_reports: counts.num_reports,
            num_unigrams: counts.num_unigrams,
            rejected: counts.rejected,
            eps_nano_sum: counts.eps_nano_sum,
            eps_nano_max: counts.eps_nano_max,
            total_occupancy: counts.occupancy.iter().sum(),
            total_transitions: counts.transitions.iter().sum(),
            snapshot_crc32: crc32(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_fingerprint_distinguishes_different_counters() {
        // Regression: the fingerprint used to CRC the snapshot *with*
        // its trailing CRC, which is the constant CRC-32 residue
        // (0x2144DF1C reflected) for every message — all states
        // "matched". It must vary with content and be stable across
        // encode/decode.
        let empty = AggregateCounts::new(16);
        let mut one = AggregateCounts::new(16);
        one.num_reports = 1;
        one.occupancy[3] = 1;
        let mut two = one.clone();
        two.occupancy[3] = 2;
        let f = |c: &AggregateCounts| CountsSummary::of(c).snapshot_crc32;
        assert_ne!(f(&empty), f(&one));
        assert_ne!(f(&one), f(&two));
        let roundtrip = AggregateCounts::decode_snapshot(&one.encode_snapshot()).unwrap();
        assert_eq!(f(&one), f(&roundtrip), "fingerprint stable across codec");
    }
}
