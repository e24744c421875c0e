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
//! * **Durability**: every validated report is appended to the worker's
//!   WAL before it is counted, and the WAL is flushed before a
//!   connection is acked, so an acked report survives any process kill
//!   (OS-crash durability is a [`SyncPolicy`] choice — see
//!   [`crate::storage::SyncPolicy`]). Workers snapshot their counters
//!   every `snapshot_every` reports; restart recovery = base + shard
//!   snapshots + log tails (see [`crate::storage`]).
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
//! * **Budget accounting** (optional, [`StreamServerConfig::budget`]):
//!   the maintenance thread runs the shared
//!   [`trajshare_aggregate::PublicationEngine`] over the merged shard
//!   rings — every window gets an ε grant under the configured
//!   allocation policy, over-claiming windows are refused (excluded from
//!   [`ServerHandle::estimate_window_model`]), and the ledger is
//!   persisted on every decision so *"Σ published spend over any `w`
//!   consecutive windows ≤ ε"* holds across kill/restart.
//!
//! Protocol: the client streams [`Report::encode_frame`] frames (and/or
//! `TSR4` batch frames, [`trajshare_aggregate::batch`]), then shuts down
//! its write half; the server ingests to EOF, flushes the WAL, and
//! replies with the number of accepted reports as a `u64` LE ack before
//! closing. Batch frames are additionally acked mid-stream with the
//! same cumulative `u64` — one ack per drained read round, written
//! after every batch in the round flushed its WAL record, so an acked
//! batch is durable and a client that dies mid-stream re-sends at most
//! one read round's worth of batches. Connections carrying only
//! single-report frames stay byte-identical to the pre-batch protocol:
//! one ack, at EOF.

use crate::storage::{self, Recovery, SyncPolicy, WalWriter};
use crossbeam::channel::{self, RecvTimeoutError, TrySendError};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trajshare_aggregate::clusterproto::{
    read_cluster_frame, write_cluster_frame, ClusterFrame, WorkerSnapshot,
};
use trajshare_aggregate::grant;
use trajshare_aggregate::snapshot::{crc32, write_blob_atomic};
pub use trajshare_aggregate::BudgetPublication;
use trajshare_aggregate::{
    AggregateCounts, Aggregator, EstimatorBackend, GrantBoard, GrantFrame, GrantRecord,
    GrantSubscriber, MobilityModel, PublicationEngine, Report, ReportBatch, StreamDecoder,
    StreamingEstimator, WindowBudgetAccountant, WindowBudgetConfig, WindowConfig,
    WindowedAggregator, WireFrame,
};
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
struct StreamIngestPolicy {
    server_clock: bool,
    max_conn_advance: u64,
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
    /// Per-stage cost profiling of the batched ingest hot path
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
    /// Connections dropped by I/O errors (socket or WAL).
    pub io_errors: AtomicU64,
    /// Sliding-window publications emitted by the maintenance thread.
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
    fn bump(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-stage wall-clock accounting of the batched (`TSR4`) ingest hot
/// path, summed across all workers. Only allocated when
/// [`ServerConfig::profile`] is set — with it off the connection
/// handlers never read a clock, so profiling support costs the hot path
/// nothing (one `Option` test per batch, resolved by branch prediction).
#[derive(Debug, Default)]
pub struct IngestProfile {
    /// Filling column scratch from validated payload bytes.
    pub decode_ns: AtomicU64,
    /// Frame CRC + header + column-structure validation.
    pub validate_ns: AtomicU64,
    /// WAL append + flush (and any counter-snapshot writes they force).
    pub wal_ns: AtomicU64,
    /// Counter accumulation: shard totals plus the window ring.
    pub accumulate_ns: AtomicU64,
    /// Writing cumulative acks back to clients.
    pub ack_ns: AtomicU64,
    /// Batch frames profiled.
    pub batches: AtomicU64,
    /// Reports inside those batches.
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

/// Plain-number view of [`IngestProfile`], serializable for bench
/// reports and CLI dumps.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct IngestProfileSnapshot {
    /// See [`IngestProfile::decode_ns`].
    pub decode_ns: u64,
    /// See [`IngestProfile::validate_ns`].
    pub validate_ns: u64,
    /// See [`IngestProfile::wal_ns`].
    pub wal_ns: u64,
    /// See [`IngestProfile::accumulate_ns`].
    pub accumulate_ns: u64,
    /// See [`IngestProfile::ack_ns`].
    pub ack_ns: u64,
    /// See [`IngestProfile::batches`].
    pub batches: u64,
    /// See [`IngestProfile::reports`].
    pub reports: u64,
}

/// One worker's mutable state: its counter shard, its window ring (when
/// streaming), and its WAL. The mutex is held per report by the owning
/// worker and briefly by merge-on-demand readers
/// ([`ServerHandle::counts`]), the maintenance thread, and shutdown.
struct Shard {
    agg: Aggregator,
    ring: Option<WindowedAggregator>,
    wal: WalWriter,
    counts_path: PathBuf,
    since_snapshot: u64,
    snapshot_every: u64,
}

impl Shard {
    /// WAL-then-count ingestion of one validated report. `payload` is the
    /// exact wire payload (already validated by decode), logged verbatim.
    fn ingest(&mut self, report: &Report, payload: &[u8]) -> std::io::Result<()> {
        self.wal.append(payload)?;
        self.agg.ingest(report);
        if let Some(ring) = &mut self.ring {
            ring.ingest(report);
        }
        self.since_snapshot += 1;
        if self.since_snapshot >= self.snapshot_every {
            self.snapshot()?;
        }
        Ok(())
    }

    /// WAL-then-count ingestion of one validated `TSR4` batch: the whole
    /// batch payload becomes a single group-commit-aligned WAL record
    /// (reusing the CRC frame validation already computed), the counters
    /// are fed column-wise, and the WAL is flushed before returning —
    /// the caller acks the batch right after, and an acked batch must be
    /// durable.
    fn ingest_batch(
        &mut self,
        batch: &ReportBatch,
        payload: &[u8],
        payload_crc: u32,
        profile: Option<&IngestProfile>,
    ) -> std::io::Result<()> {
        let t0 = profile.map(|_| Instant::now());
        self.wal.append_with_crc(payload, payload_crc)?;
        let t1 = profile.map(|_| Instant::now());
        self.agg.ingest_columnar(batch);
        if let Some(ring) = &mut self.ring {
            ring.ingest_batch(batch);
        }
        let t2 = profile.map(|_| Instant::now());
        self.since_snapshot += batch.num_reports() as u64;
        if self.since_snapshot >= self.snapshot_every {
            self.snapshot()?;
        }
        let flushed = self.wal.flush();
        if let (Some(p), Some(t0), Some(t1), Some(t2)) = (profile, t0, t1, t2) {
            // WAL time = append + flush (+ any snapshot the flush rode
            // with); accumulate time = the counter/ring window between.
            let wal = t1.duration_since(t0) + t2.elapsed();
            p.wal_ns.fetch_add(wal.as_nanos() as u64, Ordering::Relaxed);
            p.accumulate_ns
                .fetch_add(t2.duration_since(t1).as_nanos() as u64, Ordering::Relaxed);
        }
        flushed
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
/// always base → shards (in index order) → budget engine for any
/// multi-lock path (only compaction nests all three; the decision pass
/// holds the engine lock alone).
struct BaseState {
    counts: AggregateCounts,
    ring: Option<WindowedAggregator>,
    gen: u64,
}

/// One sliding-window publication (what `ingestd` prints per tick).
#[derive(Debug, Clone, Serialize)]
pub struct StreamPublication {
    /// Publication sequence number (1-based, monotonic).
    pub seq: u64,
    /// Newest window id the merged ring has advanced to.
    pub newest_window: u64,
    /// Oldest window id still live.
    pub oldest_window: u64,
    /// `(window id, reports)` for every live window, ascending.
    pub windows: Vec<(u64, u64)>,
    /// Reports in the merged current-window view.
    pub merged_reports: u64,
    /// Reports dropped as older than the ring span.
    pub late_reports: u64,
    /// Budget accounting for this publication (deployments with
    /// [`StreamServerConfig::budget`] only).
    pub budget: Option<BudgetPublication>,
}

/// The running server: owns its threads; query or stop it through this.
pub struct ServerHandle {
    addr: SocketAddr,
    export_addr: Option<SocketAddr>,
    stats: Arc<ServerStats>,
    base: Arc<Mutex<BaseState>>,
    shards: Vec<Arc<Mutex<Shard>>>,
    latest_publication: Arc<Mutex<Option<StreamPublication>>>,
    /// Warm-started window-model estimator on the configured backend
    /// (streaming servers only).
    estimator: Option<Mutex<StreamingEstimator>>,
    /// The privacy-budget engine: ledger + accept/refuse books
    /// (streaming servers with a budget config only).
    engine: Option<Arc<Mutex<PublicationEngine>>>,
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
            budget: stored_budget,
            gen,
            replayed_reports,
            torn_tails,
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

        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
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

        let engine = config.stream.as_ref().and_then(|s| {
            let ring_spends = base_ring.as_ref().map(|r| r.window_spends());
            Some(Arc::new(Mutex::new(PublicationEngine::restore(
                s.budget?,
                s.graph.clone(),
                s.grants,
                stored_budget,
                &ring_spends.unwrap_or_default(),
            ))))
        });

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
                listener.set_nonblocking(true)?;
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
            let engine = engine.clone();
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
    pub fn latest_publication(&self) -> Option<StreamPublication> {
        self.latest_publication.lock().unwrap().clone()
    }

    /// Estimates the mobility model over the merged live window on the
    /// configured [`StreamServerConfig::backend`], warm-starting from the
    /// previous call's posterior — the embedded-deployment hook that
    /// makes the backend flag flip the whole service-side estimation
    /// chain. With a budget configured, only windows the accountant has
    /// *accepted* contribute — refused, not-yet-decided, and
    /// unaccountable gap windows are excluded, so publication only ever
    /// uses data whose spend the ledger accounts. `None` when the
    /// server is not streaming, `graph` does not match the server's
    /// region universe (a graph-less `ingestd` has no graph to offer —
    /// see `--region-graph`), or the budget-filtered view is empty — a
    /// tick over zero counts would both publish a meaningless model and
    /// poison the warm-start posterior for the next real tick.
    pub fn estimate_window_model(&self, graph: &RegionGraph) -> Option<MobilityModel> {
        let estimator = self.estimator.as_ref()?;
        let view = self.windowed_counts()?;
        if view.merged().num_regions != graph.num_regions() {
            return None;
        }
        // The engine lock is released before the solve: a decision pass
        // must never wait on an IBU run.
        let published = self.engine.as_ref().map(|engine| {
            let engine = engine.lock().unwrap();
            engine.published_counts(&view, view.newest_window())
        });
        let counts = published.as_ref().unwrap_or(view.merged());
        if counts.num_reports == 0 {
            return None;
        }
        Some(estimator.lock().unwrap().tick(counts, graph))
    }

    /// A snapshot of the privacy-budget ledger, when the server runs
    /// with [`StreamServerConfig::budget`].
    pub fn budget_ledger(&self) -> Option<WindowBudgetAccountant> {
        self.engine
            .as_ref()
            .map(|engine| engine.lock().unwrap().accountant().clone())
    }

    /// The accountant's grant history — (window, epoch, granted ε′,
    /// settled max ε′) per decision, oldest first. Outlives both the
    /// ledger horizon and the ring retention (see
    /// [`trajshare_aggregate::GrantRecord`]); empty when no budget is
    /// configured.
    pub fn budget_grant_history(&self) -> Vec<GrantRecord> {
        self.engine
            .as_ref()
            .map(|engine| {
                let engine = engine.lock().unwrap();
                engine.accountant().grant_history().copied().collect()
            })
            .unwrap_or_default()
    }

    /// The latest grant on this node's grant board — what a subscribing
    /// client connecting right now would be caught up with. `None` when
    /// the grant session is disabled or nothing has been announced yet.
    pub fn latest_grant(&self) -> Option<GrantFrame> {
        self.board.as_ref().and_then(|b| b.current())
    }

    /// Announces a grant on this node's board, pushing it to every
    /// subscribed connection — the embedding hook a coordinator-driven
    /// deployment uses when it relays grants by means other than the
    /// `TSCL` export listener. No-op when the grant session is disabled.
    pub fn announce_grant(&self, grant: GrantFrame) {
        if let Some(board) = &self.board {
            if board.current() != Some(grant) {
                self.stats.bump(&self.stats.grants_published);
            }
            board.announce(grant);
        }
    }

    /// The live windows currently excluded from published estimates by
    /// the budget accountant (empty when no budget is configured).
    pub fn budget_refused_windows(&self) -> Vec<u64> {
        self.engine
            .as_ref()
            .map(|engine| engine.lock().unwrap().refused_windows())
            .unwrap_or_default()
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
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn acceptor_loop(
    listener: TcpListener,
    tx: channel::Sender<TcpStream>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => match tx.try_send(stream) {
                Ok(()) => stats.bump(&stats.accepted),
                // Queue full: shed the connection immediately (the stream
                // drops ⇒ RST/close) instead of buffering unboundedly.
                Err(TrySendError::Full(_)) => stats.bump(&stats.refused),
                Err(TrySendError::Disconnected(_)) => break,
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    rx: channel::Receiver<TcpStream>,
    shard: Arc<Mutex<Shard>>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
    policy: Option<StreamIngestPolicy>,
    board: Option<Arc<GrantBoard>>,
    profile: Option<Arc<IngestProfile>>,
) {
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(stream) => handle_conn(
                stream,
                &shard,
                &stats,
                &stop,
                read_timeout,
                policy,
                board.as_deref(),
                profile.as_deref(),
            ),
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// What the maintenance thread remembers between budget passes.
#[derive(Default)]
struct BudgetPassState {
    /// Spends already mirrored onto the shard rings *this process
    /// lifetime* — starts empty so the first pass after a restart
    /// re-annotates recovered windows, then gates the mirror writes so
    /// the steady state (no spend moved) takes no shard locks.
    mirrored: BTreeMap<u64, u64>,
    /// Ledger bytes last persisted, to skip no-op `BUDGET` rewrites.
    persisted: Vec<u8>,
}

/// One budget pass of the maintenance thread: the shared engine decides
/// over the merged view (a node's watermark is simply its newest
/// window), then the node does what only a node has — bump
/// [`ServerStats`], mirror the settled spends onto its rings, and write
/// `BUDGET` when the ledger moved. The persist happens before the caller
/// can broadcast the returned grant, so a grant a client ever saw is
/// always on disk and a restart can never re-decide it differently.
///
/// The mirror goes to the base ring *and* every shard ring holding the
/// window: base-ring slots hold no data until compaction, so the shard
/// mirrors are what persist (with the next shard snapshot) and what
/// recovery's `window_spends()` reseeds the books from. The engine lock
/// is never held across another lock here.
fn run_budget_pass(
    config: &ServerConfig,
    view: &WindowedAggregator,
    engine: &Mutex<PublicationEngine>,
    base: &Mutex<BaseState>,
    shards: &[Arc<Mutex<Shard>>],
    stats: &ServerStats,
    local: &mut BudgetPassState,
) -> std::io::Result<Option<GrantFrame>> {
    let (decisions, ledger) = {
        let mut engine = engine.lock().unwrap();
        let decisions = engine.decide(view, view.newest_window());
        (decisions, engine.ledger_bytes())
    };
    stats
        .budget_decisions
        .fetch_add(decisions.new_decisions, Ordering::Relaxed);
    stats
        .budget_refusals
        .fetch_add(decisions.new_refusals, Ordering::Relaxed);
    // Unconditional on the base ring: a window settled down to 0 must
    // overwrite any stale nonzero annotation.
    if let Some(ring) = &mut base.lock().unwrap().ring {
        for &(id, spent) in &decisions.settled {
            ring.record_spend(id, spent);
        }
    }
    let moved: Vec<(u64, u64)> = decisions
        .settled
        .iter()
        .copied()
        .filter(|&(id, spent)| local.mirrored.insert(id, spent) != Some(spent))
        .collect();
    local.mirrored.retain(|&id, _| id >= view.oldest_window());
    if !moved.is_empty() {
        for shard in shards {
            if let Some(ring) = &mut shard.lock().unwrap().ring {
                for &(id, spent) in &moved {
                    ring.record_spend(id, spent);
                }
            }
        }
    }
    if ledger != local.persisted {
        write_blob_atomic(&storage::budget_path(&config.data_dir), &ledger)?;
        local.persisted = ledger;
    }
    Ok(decisions.grant)
}

/// The maintenance thread: publishes the merged sliding-window view
/// every `publish_every`, runs the per-window budget decisions, and
/// runs size-triggered online WAL compaction.
#[allow(clippy::too_many_arguments)]
fn maintenance_loop(
    config: ServerConfig,
    base: Arc<Mutex<BaseState>>,
    shards: Vec<Arc<Mutex<Shard>>>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    latest: Arc<Mutex<Option<StreamPublication>>>,
    engine: Option<Arc<Mutex<PublicationEngine>>>,
    board: Option<Arc<GrantBoard>>,
) {
    let mut budget_pass = BudgetPassState::default();
    let publish_every = config.stream.as_ref().map(|s| s.publish_every);
    let group_commit = matches!(config.sync_policy, SyncPolicy::GroupCommit { .. });
    let mut last_publish = Instant::now();
    let mut seq = 0u64;
    let mut next_compact_attempt = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        if group_commit {
            // Enforce the time half of the group-commit bound during
            // lulls: acked-but-unsynced records older than max_delay are
            // fdatasync'ed here, not at the next (possibly never) ack.
            for shard in &shards {
                if shard.lock().unwrap().wal.sync_if_due().is_err() {
                    stats.bump(&stats.io_errors);
                }
            }
        }
        if let Some(every) = publish_every {
            if last_publish.elapsed() >= every {
                last_publish = Instant::now();
                if let Some(view) = merged_ring(&base, &shards) {
                    // Budget decisions run against the same view the
                    // publication describes, so the published accounting
                    // is never ahead of or behind the window list.
                    let budget_pub = engine.as_ref().map(|engine| {
                        match run_budget_pass(
                            &config,
                            &view,
                            engine,
                            &base,
                            &shards,
                            &stats,
                            &mut budget_pass,
                        ) {
                            // The grant is broadcast only after the
                            // decision behind it is persisted (see
                            // run_budget_pass): no client ever
                            // randomizes against a grant a restart
                            // could re-decide.
                            Ok(Some(grant)) => {
                                if let Some(board) = &board {
                                    if board.current() != Some(grant) {
                                        stats.bump(&stats.grants_published);
                                    }
                                    board.announce(grant);
                                }
                            }
                            Ok(None) => {}
                            Err(_) => stats.bump(&stats.io_errors),
                        }
                        engine.lock().unwrap().summary()
                    });
                    seq += 1;
                    let publication = StreamPublication {
                        seq,
                        newest_window: view.newest_window(),
                        oldest_window: view.oldest_window(),
                        windows: view
                            .windows()
                            .iter()
                            .map(|(id, c)| (*id, c.num_reports))
                            .collect(),
                        merged_reports: view.merged().num_reports,
                        late_reports: view.late(),
                        budget: budget_pub,
                    };
                    *latest.lock().unwrap() = Some(publication);
                    stats.bump(&stats.publications);
                }
            }
        }
        if config.wal_max_bytes != u64::MAX && Instant::now() >= next_compact_attempt {
            let over_limit = shards
                .iter()
                .any(|s| s.lock().unwrap().wal.offset() >= config.wal_max_bytes);
            if over_limit {
                match compact_online(&config, &base, &shards, engine.as_deref()) {
                    Ok(()) => stats.bump(&stats.compactions),
                    // A failing compaction (e.g. disk full) pauses every
                    // shard for its duration; back off instead of
                    // re-freezing ingestion every tick in a doomed loop.
                    Err(_) => {
                        stats.bump(&stats.compaction_failures);
                        next_compact_attempt = Instant::now() + Duration::from_secs(5);
                    }
                }
            }
        }
    }
}

/// The merged sliding-window view (base ring + every shard ring), or
/// `None` when not streaming. Lock order: base (held across the shard
/// merges, so a concurrent compaction cannot be observed mid-move),
/// then shards in index order — the same order every multi-lock path
/// uses.
fn merged_ring(
    base: &Mutex<BaseState>,
    shards: &[Arc<Mutex<Shard>>],
) -> Option<WindowedAggregator> {
    let base = base.lock().unwrap();
    let mut total = base.ring.clone()?;
    for shard in shards {
        if let Some(ring) = &shard.lock().unwrap().ring {
            total.merge_ring(ring);
        }
    }
    Some(total)
}

/// Builds the worker's shippable snapshot: merged totals, merged ring,
/// and the current generation as the epoch — all captured under one
/// base-then-shards lock pass (the standard order), so the counts and
/// the ring describe the *same* instant and a concurrent compaction
/// cannot be observed mid-move.
fn export_snapshot(base: &Mutex<BaseState>, shards: &[Arc<Mutex<Shard>>]) -> WorkerSnapshot {
    let base = base.lock().unwrap();
    let mut counts = base.counts.clone();
    let mut ring = base.ring.clone();
    for shard in shards {
        let guard = shard.lock().unwrap();
        counts.merge(guard.agg.counts());
        if let (Some(total), Some(shard_ring)) = (&mut ring, &guard.ring) {
            total.merge_ring(shard_ring);
        }
    }
    WorkerSnapshot {
        epoch: base.gen,
        watermark: ring.as_ref().map_or(0, |r| r.newest_window()),
        reports: counts.num_reports,
        counts: counts.encode_snapshot(),
        ring: ring.map(|r| r.encode_ring()),
    }
}

/// The cluster snapshot-export listener: serves `TSCL` `SnapshotPull`
/// requests with the worker's current merged state, and — when the
/// grant session is on — installs `GrantAnnounce` relays from the
/// coordinator onto the worker's grant board, fanning each one out to
/// this worker's subscribed client connections. Connections are
/// handled serially (the only expected clients are one coordinator and
/// its router's relay); a connection may issue any number of frames
/// before closing.
#[allow(clippy::too_many_arguments)]
fn export_loop(
    listener: TcpListener,
    base: Arc<Mutex<BaseState>>,
    shards: Vec<Arc<Mutex<Shard>>>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
    board: Option<Arc<GrantBoard>>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if stream.set_read_timeout(Some(read_timeout)).is_err()
                    || stream.set_nodelay(true).is_err()
                {
                    stats.bump(&stats.io_errors);
                    continue;
                }
                loop {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match read_cluster_frame(&mut stream) {
                        Ok(ClusterFrame::SnapshotPull) => {
                            let snapshot = export_snapshot(&base, &shards);
                            if write_cluster_frame(&mut stream, &ClusterFrame::Snapshot(snapshot))
                                .is_err()
                            {
                                stats.bump(&stats.io_errors);
                                break;
                            }
                            stats.bump(&stats.snapshots_shipped);
                        }
                        // The coordinator's allocation, relayed down to
                        // this worker's subscribed clients. Fire-and-
                        // forget (no reply). A worker running no grant
                        // session ignores the relay — dropping the
                        // coordinator's connection over it would cost a
                        // snapshot pull cycle for nothing.
                        Ok(ClusterFrame::GrantAnnounce(grant)) => {
                            if let Some(board) = &board {
                                if board.current() != Some(grant) {
                                    stats.bump(&stats.grants_published);
                                }
                                board.announce(grant);
                            }
                        }
                        // A worker never accepts snapshots; anything but
                        // a pull or a grant relay is a protocol
                        // violation.
                        Ok(_) => {
                            stats.bump(&stats.disconnected_protocol);
                            break;
                        }
                        // EOF shows up as an Io error from read_exact —
                        // the normal end of a pull session. Real socket
                        // errors land here too; either way the next
                        // coordinator connect starts clean.
                        Err(_) => break,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Online WAL compaction: fold the base and every live shard into the
/// next generation's base snapshot (and ring), start fresh logs, commit
/// with the manifest flip, sweep the old generation. Ingestion pauses
/// for the duration (all shard locks are held), which is what makes the
/// fold exact; the sequencing makes a crash at any point safe — until
/// the flip lands, the old generation (whose logs are complete, since
/// they are flushed first) remains authoritative, and the half-built
/// next generation is swept by the next recovery.
fn compact_online(
    config: &ServerConfig,
    base: &Mutex<BaseState>,
    shards: &[Arc<Mutex<Shard>>],
    engine: Option<&Mutex<PublicationEngine>>,
) -> std::io::Result<()> {
    let mut base_guard = base.lock().unwrap();
    let mut guards: Vec<_> = shards.iter().map(|s| s.lock().unwrap()).collect();
    // 1. Complete the old logs: every acked report must be on disk (in
    //    the kernel at least) before the old generation becomes the
    //    recovery source of record for a mid-compaction crash.
    for g in guards.iter_mut() {
        g.wal.flush()?;
    }
    // 2. Fold totals and rings.
    let mut total = base_guard.counts.clone();
    for g in guards.iter() {
        total.merge(g.agg.counts());
    }
    let ring_total = base_guard.ring.clone().map(|mut ring| {
        for g in guards.iter() {
            if let Some(shard_ring) = &g.ring {
                ring.merge_ring(shard_ring);
            }
        }
        // Stamp the ledger's settled spends onto the folded ring: the
        // per-window data only just arrived here from the shard rings
        // (which never carry spend annotations), and the compacted ring
        // file is what recovery seeds a fresh accountant from when the
        // BUDGET ledger is absent or superseded.
        if let Some(engine) = engine {
            // Unconditional: a window settled to 0 must overwrite any
            // stale nonzero annotation merged in from the old base ring.
            for d in engine.lock().unwrap().accountant().decisions() {
                ring.record_spend(d.window, d.spent_nano);
            }
        }
        ring
    });
    // 3. Write the next generation's base (and ring), then fresh logs.
    let old_gen = base_guard.gen;
    let new_gen = old_gen + 1;
    trajshare_aggregate::write_snapshot_file(
        &storage::base_path(&config.data_dir, new_gen),
        &total,
    )?;
    if let Some(ring) = &ring_total {
        write_blob_atomic(
            &storage::ring_path(&config.data_dir, new_gen),
            &ring.encode_ring(),
        )?;
    }
    let mut new_wals = Vec::with_capacity(guards.len());
    for i in 0..guards.len() {
        new_wals.push(WalWriter::create_with_policy(
            &storage::wal_path(&config.data_dir, new_gen, i),
            config.wal_flush_every,
            config.sync_policy,
        )?);
    }
    // 4. Commit: the manifest flip makes the new generation (whose base
    //    already contains everything) authoritative.
    storage::write_manifest(&config.data_dir, new_gen)?;
    // 5. Swap live state onto the new generation.
    let watermark = ring_total.as_ref().map(|r| r.newest_window());
    for (i, g) in guards.iter_mut().enumerate() {
        g.agg = Aggregator::from_region_tiles(config.region_tiles.clone());
        g.ring = config.stream.as_ref().map(|s| {
            let mut ring = WindowedAggregator::new(config.region_tiles.clone(), s.window);
            if let Some(w) = watermark {
                ring.advance_to(w);
            }
            ring
        });
        g.wal = new_wals.remove(0);
        g.counts_path = storage::shard_counts_path(&config.data_dir, new_gen, i);
        g.since_snapshot = 0;
    }
    base_guard.counts = total;
    base_guard.ring = ring_total;
    base_guard.gen = new_gen;
    drop(guards);
    drop(base_guard);
    // 6. Cleanup outside the locks: delete the old generation.
    storage::sweep_stale_generations(&config.data_dir, new_gen);
    Ok(())
}

/// The collector-edge clock: seconds since the Unix epoch (saturating
/// at 0 on a pre-epoch system clock rather than panicking).
fn server_clock_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Writes one cumulative ack to the client: the classic raw `u64` LE
/// until a `TSGH` hello upgraded the connection, a framed `TSAK`
/// through the shared writer afterwards — serialized against the grant
/// board's pushes by the writer's own lock, so an ack and a pushed
/// grant can never interleave mid-frame.
fn write_ack(stream: &mut TcpStream, framed: &Option<GrantSubscriber>, acked: u64) -> bool {
    match framed {
        Some(writer) => {
            // Stack payload + one writev: no per-ack heap allocation,
            // and the (prefix, payload) pair leaves in a single syscall.
            let payload = grant::ack_payload(acked);
            match writer.lock() {
                Ok(mut w) => grant::write_control_frame(&mut *w, &payload)
                    .and_then(|()| w.flush())
                    .is_ok(),
                Err(_) => false,
            }
        }
        None => stream.write_all(&acked.to_le_bytes()).is_ok(),
    }
}

/// Reads one client stream to EOF, ingesting every framed report, then
/// flushes the WAL and acks. Any protocol violation or stall drops the
/// connection without an ack. A `TSGH` hello upgrades the server→client
/// direction to control frames (framed acks, pushed grants — see
/// [`StreamServerConfig::grants`]); connections that never send one
/// keep the classic raw-ack exchange byte for byte.
#[allow(clippy::too_many_arguments)]
fn handle_conn(
    mut stream: TcpStream,
    shard: &Mutex<Shard>,
    stats: &ServerStats,
    stop: &AtomicBool,
    read_timeout: Duration,
    policy: Option<StreamIngestPolicy>,
    board: Option<&GrantBoard>,
    profile: Option<&IngestProfile>,
) {
    if stream.set_read_timeout(Some(read_timeout)).is_err() || stream.set_nodelay(true).is_err() {
        stats.bump(&stats.io_errors);
        return;
    }
    let mut decoder = StreamDecoder::new();
    // Per-connection scratch for `TSR4` batch frames: decoded column
    // storage is reused across batches, so the hot path allocates
    // nothing per report once the columns have grown to working size.
    let mut batch_scratch = ReportBatch::new();
    let mut accepted = 0u64;
    // `Some` once a hello upgraded this connection: the shared writer
    // the grant board pushes through and every ack goes through.
    let mut framed: Option<GrantSubscriber> = None;
    // Windows this connection may still advance the shard watermark.
    let mut advance_budget = policy.map_or(u64::MAX, |p| p.max_conn_advance);
    loop {
        if stop.load(Ordering::SeqCst) {
            let _ = shard.lock().unwrap().wal.flush();
            return;
        }
        // The decoder reads the socket directly into its own buffer
        // (≥ [`StreamDecoder::READ_CHUNK`] spare per read), so a whole
        // kernel receive buffer lands in one syscall + one copy instead
        // of bouncing through a fixed stack chunk.
        match decoder.read_from(&mut stream) {
            Ok(0) => {
                // EOF: make everything durable first (already-validated
                // reports stand regardless of how the stream ended).
                if shard.lock().unwrap().wal.flush().is_err() {
                    stats.bump(&stats.io_errors);
                    return;
                }
                // A stream that ends mid-frame is a protocol violation,
                // not a completed upload: no ack, so the client cannot
                // mistake a truncated send for full durability.
                if decoder.pending() > 0 {
                    stats.bump(&stats.disconnected_protocol);
                    return;
                }
                if !write_ack(&mut stream, &framed, accepted) {
                    stats.bump(&stats.io_errors);
                    return;
                }
                let _ = stream.shutdown(Shutdown::Both);
                stats.bump(&stats.completed);
                return;
            }
            Ok(_) => {
                // One cumulative ack per drained read round (not per
                // batch): every batch's WAL flush happens inside
                // `ingest_batch`, so the deferred ack still only covers
                // durable reports — coalescing trades "re-send at most
                // one batch after a crash" for "at most one read round"
                // and removes an ack syscall per batch. TSR2/TSR3-only
                // clients never see mid-stream acks either way — their
                // connections stay byte-identical to the pre-batch
                // protocol (final ack at EOF only).
                let mut ack_due = false;
                loop {
                    match decoder.next_wire_frame() {
                        Ok(Some(WireFrame::Batch { payload })) => {
                            let decoded = match profile {
                                Some(p) => {
                                    let (mut validate_ns, mut fill_ns) = (0u64, 0u64);
                                    let r = batch_scratch.decode_payload_timed(
                                        payload,
                                        &mut validate_ns,
                                        &mut fill_ns,
                                    );
                                    p.validate_ns.fetch_add(validate_ns, Ordering::Relaxed);
                                    p.decode_ns.fetch_add(fill_ns, Ordering::Relaxed);
                                    r
                                }
                                None => batch_scratch.decode_payload_into(payload),
                            };
                            let Ok(mut payload_crc) = decoded else {
                                stats.bump(&stats.disconnected_protocol);
                                return;
                            };
                            let n = batch_scratch.num_reports() as u64;
                            let stamped;
                            let payload: &[u8] = if policy.is_some_and(|p| p.server_clock) {
                                // Edge-stamp the whole batch; the stamped
                                // encoding is what the WAL persists.
                                batch_scratch.stamp_t(server_clock_now());
                                stamped = batch_scratch.encode_payload();
                                payload_crc = crc32(&stamped);
                                &stamped
                            } else {
                                payload
                            };
                            let mut guard = shard.lock().unwrap();
                            if !policy.is_some_and(|p| p.server_clock) {
                                if let Some(ring) = &guard.ring {
                                    // Police the batch's furthest window:
                                    // window_of is monotone in t, so this
                                    // is the full advance the batch would
                                    // cause. Refusal is batch-wide — one
                                    // frame, one decision, one ack.
                                    let w = ring.config().window_of(batch_scratch.max_t());
                                    let newest = ring.newest_window();
                                    let has_live = ring.merged().num_reports > 0;
                                    if w > newest && has_live {
                                        let delta = w - newest;
                                        if delta > advance_budget {
                                            drop(guard);
                                            stats
                                                .watermark_throttled
                                                .fetch_add(n, Ordering::Relaxed);
                                            // The round's unchanged
                                            // cumulative ack tells the
                                            // client the batch was not
                                            // accepted.
                                            ack_due = true;
                                            continue;
                                        }
                                        advance_budget -= delta;
                                    }
                                }
                            }
                            if guard
                                .ingest_batch(&batch_scratch, payload, payload_crc, profile)
                                .is_err()
                            {
                                stats.bump(&stats.io_errors);
                                return;
                            }
                            drop(guard);
                            accepted += n;
                            stats.reports_ingested.fetch_add(n, Ordering::Relaxed);
                            if let Some(p) = profile {
                                p.batches.fetch_add(1, Ordering::Relaxed);
                                p.reports.fetch_add(n, Ordering::Relaxed);
                            }
                            ack_due = true;
                        }
                        Ok(Some(WireFrame::Single {
                            mut report,
                            payload,
                        })) => {
                            // Collector-edge stamping: the *stamped*
                            // encoding is what the WAL persists, so a
                            // replayed report lands in the same window.
                            let stamped;
                            let payload: &[u8] = if policy.is_some_and(|p| p.server_clock) {
                                report.t = server_clock_now();
                                stamped = report.encode();
                                &stamped
                            } else {
                                payload
                            };
                            let mut guard = shard.lock().unwrap();
                            // The advance budget polices *client-declared*
                            // timestamps; an edge-stamped `t` is the
                            // server's own clock and is trusted by
                            // construction (it can only advance the
                            // watermark at wall-time rate).
                            if !policy.is_some_and(|p| p.server_clock) {
                                if let Some(ring) = &guard.ring {
                                    let w = ring.config().window_of(report.t);
                                    let newest = ring.newest_window();
                                    // The budget protects *live data* from
                                    // eviction; advancing an empty ring
                                    // evicts nothing and is free — which is
                                    // also what lets clients stamping
                                    // epoch seconds reach "now" from a
                                    // cold start's watermark 0.
                                    let has_live = ring.merged().num_reports > 0;
                                    if w > newest && has_live {
                                        let delta = w - newest;
                                        if delta > advance_budget {
                                            // Refusing (not clamping) keeps
                                            // the report's LDP payload intact
                                            // and the watermark honest; the
                                            // client sees a smaller ack.
                                            drop(guard);
                                            stats.bump(&stats.watermark_throttled);
                                            continue;
                                        }
                                        advance_budget -= delta;
                                    }
                                }
                            }
                            if guard.ingest(&report, payload).is_err() {
                                stats.bump(&stats.io_errors);
                                return;
                            }
                            drop(guard);
                            accepted += 1;
                            stats.bump(&stats.reports_ingested);
                        }
                        Ok(Some(WireFrame::Hello { hello })) => {
                            // Upgrade to the grant session. From here
                            // the server→client direction is framed
                            // (TSAK acks, pushed TSGB grants). A
                            // repeated hello is idempotent.
                            if framed.is_none() {
                                if hello.subscribes() && board.is_none() {
                                    // Subscribing against a server that
                                    // runs no grant session would leave
                                    // the client waiting forever for a
                                    // grant; refuse loudly instead.
                                    stats.bump(&stats.disconnected_protocol);
                                    return;
                                }
                                let Ok(clone) = stream.try_clone() else {
                                    stats.bump(&stats.io_errors);
                                    return;
                                };
                                // Bound how long a stalled subscriber
                                // can hold the grant board's push loop
                                // (the fd is shared with `stream`, so
                                // this also bounds ack writes — fine,
                                // they are tens of bytes).
                                let _ = clone.set_write_timeout(Some(Duration::from_secs(1)));
                                let writer: GrantSubscriber = Arc::new(Mutex::new(clone));
                                if hello.subscribes() {
                                    if let Some(board) = board {
                                        // Registers *and* writes the
                                        // current grant to this
                                        // connection atomically — the
                                        // late-joiner catch-up.
                                        board.subscribe(&writer);
                                        stats.bump(&stats.grant_subscriptions);
                                    }
                                }
                                framed = Some(writer);
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Hostile or corrupt stream: drop it. Reports
                            // already ingested stay — each frame is an
                            // independent, validated LDP message.
                            stats.bump(&stats.disconnected_protocol);
                            return;
                        }
                    }
                }
                if ack_due {
                    let t0 = profile.map(|_| Instant::now());
                    // Written after every batch in the round flushed its
                    // WAL record, so the ack only ever covers durable
                    // reports.
                    if !write_ack(&mut stream, &framed, accepted) {
                        stats.bump(&stats.io_errors);
                        return;
                    }
                    if let (Some(p), Some(t0)) = (profile, t0) {
                        p.ack_ns
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                stats.bump(&stats.disconnected_slow);
                return;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                stats.bump(&stats.io_errors);
                return;
            }
        }
    }
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
