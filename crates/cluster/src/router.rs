//! `routerd`'s front door: report frames (TSR3/TSR4) in, re-packed
//! `TSR4` frames out over persistent, pipelined per-worker uplinks.
//!
//! ```text
//!            ┌──────────┐ conn queue ┌──────────────┐ per-worker ┌─────────┐ one open
//!  clients ─▶│ acceptor │──(bounded)▶│ client       │─(bounded)─▶│ uplink  │═conn═══▶ ingestd w
//!            └──────────┘  full ⇒    │ handlers     │  frame     │ threads │◀─ cumulative
//!                          refuse    │ scatter rows │  queues    └─────────┘   acks
//!                                    │ by hash ring,│  full ⇒ shed
//!                                    │ encode TSR4  │
//!                                    └──────────────┘
//! ```
//!
//! Clients speak the unchanged single-node protocol: stream
//! `Report::encode_frame` frames (or `TSR4` batch frames), half-close,
//! read `u64` acks — the last one is the durable total. The router
//! routes **frames, not reports**. A client handler decodes each frame
//! into column scratch, computes every report's placement key straight
//! from the columns (`column_key` — no `Report`, no re-encode) and
//! appends the row to a per-connection staging batch per
//! (worker, ε′, |τ|); a single-report frame decodes as a batch of one,
//! so there is one path. Staging re-bases timestamps instead of splitting on an
//! earlier one, so interleaved windows and lengths still pack. At the
//! end of each read round (or at `batch_max` reports) every non-empty
//! staging batch is encoded once into a pooled buffer and queued to its
//! worker's uplink as one item: frame bytes, report count, and the
//! connection's tally.
//!
//! Each uplink keeps **one connection open while it has work**. It
//! gathers everything queued into as few vectored writes as the
//! iovec/byte caps allow, never waits for an ack before the next write,
//! and settles a FIFO of in-flight frames from the worker's cumulative
//! acks (the worker writes one per drained read round). With nothing
//! queued for `IDLE_CLOSE` (20 ms) it half-closes, reads the final ack
//! and reconnects lazily on the next frame, so an idle router holds no
//! worker thread and trips no worker read timeout. Worker acks
//! propagate back to the originating client connections in write order.
//! A client's ack therefore certifies exactly what the single-node ack
//! certifies: that many reports validated, logged, and flushed by a
//! worker.
//!
//! A connection that sends `TSR4` frames additionally receives
//! *cumulative* acks opportunistically mid-stream (written between
//! reads, whenever more of its reports have settled durable), so a
//! batching client that loses the router mid-upload still holds a
//! worker-certified floor — a crash costs it the in-flight frames, not
//! the whole connection's progress. Connections that only ever send
//! single-report frames see the classic wire exchange, byte for byte:
//! one ack at EOF.
//!
//! **Failure semantics — the double-count rule.** A worker keeps every
//! report it ingested from a stream that later failed (each frame is an
//! independent LDP message), so the router must never resend a frame
//! whose write already started. The rule is per uplink connection:
//! when a connection fails, every frame written on it and not yet
//! covered by a cumulative ack is reported un-acked
//! ([`RouterStats::routed_failed`]) and the client decides, as it would
//! against a single node. Frames still queued were never written and go
//! out on the next connection. Only *connecting* retries: with
//! exponential backoff on the home worker, then failover to the next
//! live worker on the ring — placement is a balance decision, not a
//! correctness one, because the cluster merge is exact under any
//! partition.

use crate::hash::{column_key, HashRing};
use crossbeam::channel::{self, RecvTimeoutError, SendTimeoutError, TryRecvError, TrySendError};
use std::collections::{BTreeMap, VecDeque};
use std::io::{IoSlice, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use trajshare_aggregate::grant::wake_acceptor;
use trajshare_aggregate::{
    GrantBoard, GrantFrame, ReportBatch, ServerSession, SessionFault, StreamDecoder, WireFrame,
};
use trajshare_core::vio;

/// How long an uplink with nothing queued keeps its worker connection
/// before half-closing it (also the wait for an overdue ack before the
/// connection is cycled). Far below any worker `read_timeout`, so an
/// idle router never holds a worker thread.
const IDLE_CLOSE: Duration = Duration::from_millis(20);

/// Written-but-unacked bytes one uplink allows before it stops writing
/// and waits for acks: a stalled worker back-pressures through the
/// queue instead of growing router memory.
const MAX_IN_FLIGHT_BYTES: usize = 2 << 20;

/// Caps of one vectored uplink write (`IOV_MAX` is 1024 on Linux).
const MAX_WRITE_FRAMES: usize = 1024;
const MAX_WRITE_BYTES: usize = 256 * 1024;

/// Distinct (ε′, |τ|) staging keys a connection keeps column capacity
/// for between read rounds; past it (hostile key churn) the staging map
/// is dropped and rebuilt.
const MAX_STAGING_KEYS: usize = 64;

/// Router deployment shape.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Client-facing listen address; port 0 picks a free port.
    pub addr: SocketAddr,
    /// Worker ingest addresses (the `ingestd --addr` of each worker).
    pub workers: Vec<SocketAddr>,
    /// Client-handler threads.
    pub client_threads: usize,
    /// Pending-connection queue depth; full ⇒ connections refused.
    pub conn_queue_depth: usize,
    /// Bound on *reports* queued per worker: the uplink queue admits
    /// `worker_queue_depth / batch_max` frames (at least one) of at most
    /// `batch_max` reports each; full past `enqueue_timeout` ⇒ the
    /// frame is shed (un-acked).
    pub worker_queue_depth: usize,
    /// Max reports per uplink frame.
    pub batch_max: usize,
    /// How long a client handler waits for queue room before shedding.
    pub enqueue_timeout: Duration,
    /// How long a client connection waits at EOF for its routed
    /// reports' worker acks before acking what it has.
    pub ack_timeout: Duration,
    /// Socket read timeout (client reads and an uplink's final ack
    /// read).
    pub read_timeout: Duration,
    /// Uplink reconnect backoff: first retry delay, doubling per
    /// failure up to `reconnect_backoff_max`.
    pub reconnect_backoff: Duration,
    /// Backoff ceiling; also how long an uplink stays on a failover
    /// worker before it probes its home worker again.
    pub reconnect_backoff_max: Duration,
    /// Connect attempts per candidate worker per connection (1 when the
    /// worker is already marked down — fast failover).
    pub connect_attempts: u32,
    /// Virtual nodes per worker on the hash ring.
    pub vnodes: usize,
    /// Run the TSGB grant session at the router's front door: client
    /// connections may subscribe with a `TSGH` hello and receive the
    /// coordinator's epoch-tagged ε′ announcements
    /// ([`RouterHandle::announce_grant`], fed by `routerd`'s tick loop)
    /// pushed mid-stream, with their acks switching to framed `TSAK`.
    /// Off by default; a subscribe hello is then a protocol violation
    /// (the client would wait forever for a grant that never comes).
    pub grants: bool,
}

impl RouterConfig {
    /// Sensible defaults for loopback clusters and tests.
    pub fn new(addr: SocketAddr, workers: Vec<SocketAddr>) -> Self {
        RouterConfig {
            addr,
            workers,
            client_threads: 4,
            conn_queue_depth: 64,
            worker_queue_depth: 8192,
            batch_max: 512,
            enqueue_timeout: Duration::from_secs(2),
            ack_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(30),
            reconnect_backoff: Duration::from_millis(50),
            reconnect_backoff_max: Duration::from_secs(1),
            connect_attempts: 3,
            vnodes: 64,
            grants: false,
        }
    }
}

/// Monotonic event counters, shared across all router threads.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Client connections handed to a handler.
    pub accepted: AtomicU64,
    /// Client connections shed because the conn queue was full.
    pub refused: AtomicU64,
    /// Client connections that streamed to EOF and were acked.
    pub completed: AtomicU64,
    /// Client connections dropped for protocol violations.
    pub disconnected_protocol: AtomicU64,
    /// Socket errors (client or uplink side).
    pub io_errors: AtomicU64,
    /// Reports routed to a worker **and** worker-acked durable.
    pub cluster_routed: AtomicU64,
    /// Reports shed (queue full) or lost to an uplink failure —
    /// un-acked toward their clients, never silently retried.
    pub routed_failed: AtomicU64,
    /// Uplink frames written to a non-home worker because the home
    /// worker was unreachable.
    pub rerouted_batches: AtomicU64,
    /// Uplink connect failures (each marks the worker down until a
    /// connect succeeds again).
    pub worker_down: AtomicU64,
    /// `TSR4` frames written to workers (`cluster_routed / uplink_frames`
    /// is the re-packing ratio).
    pub uplink_frames: AtomicU64,
    /// Vectored writes those frames left in.
    pub uplink_writes: AtomicU64,
    /// Worker connections opened.
    pub uplink_connects: AtomicU64,
}

impl RouterStats {
    fn bump(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-client-connection ack bookkeeping, shared with every uplink
/// frame that carries one of the connection's reports.
#[derive(Debug, Default)]
struct ConnTally {
    state: Mutex<TallyState>,
    /// Wakes the handler's EOF wait; notified only while it waits.
    settled: Condvar,
}

#[derive(Debug, Default)]
struct TallyState {
    /// Reports worker-acked durable.
    acked: u64,
    /// Reports whose fate is decided (acked or failed).
    done: u64,
    /// The handler is parked in [`ConnTally::wait_done`].
    waiting: bool,
}

impl ConnTally {
    fn lock(&self) -> std::sync::MutexGuard<'_, TallyState> {
        self.state.lock().expect("tally updates cannot panic")
    }

    /// Records the fate of `acked + failed` of the connection's reports.
    fn settle(&self, acked: u64, failed: u64) {
        let mut st = self.lock();
        st.acked += acked;
        st.done += acked + failed;
        if st.waiting {
            self.settled.notify_one();
        }
    }

    fn acked(&self) -> u64 {
        self.lock().acked
    }

    /// Parks until `sent` reports are settled, `deadline` passes or
    /// `stop` is raised (noticed within 50 ms — nothing notifies on
    /// shutdown); returns the acked count.
    fn wait_done(&self, sent: u64, deadline: Instant, stop: &AtomicBool) -> u64 {
        let mut st = self.lock();
        st.waiting = true;
        while st.done < sent && !stop.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let wait = (deadline - now).min(Duration::from_millis(50));
            st = self
                .settled
                .wait_timeout(st, wait)
                .expect("tally updates cannot panic")
                .0;
        }
        st.waiting = false;
        st.acked
    }
}

/// One re-packed `TSR4` frame on its way to a worker: the queue element.
struct UplinkFrame {
    /// The length-prefixed frame, in a [`BufPool`] buffer.
    bytes: Vec<u8>,
    /// Reports it carries.
    reports: u64,
    /// The originating connection's tally.
    tally: Arc<ConnTally>,
}

/// Frame buffers cycle handler → queue → uplink → back here, so the
/// steady state encodes into already-grown storage.
#[derive(Default)]
struct BufPool(Mutex<Vec<Vec<u8>>>);

impl BufPool {
    /// Buffers kept, and the largest capacity worth keeping (a hostile
    /// 16 MiB frame must not pin 16 MiB per slot).
    const KEEP: usize = 256;
    const KEEP_CAPACITY: usize = 1 << 20;

    fn take(&self) -> Vec<u8> {
        let mut pool = self.0.lock().expect("pool updates cannot panic");
        pool.pop().unwrap_or_default()
    }

    fn give(&self, bufs: impl Iterator<Item = Vec<u8>>) {
        let mut pool = self.0.lock().expect("pool updates cannot panic");
        for mut buf in bufs {
            if pool.len() < Self::KEEP && buf.capacity() <= Self::KEEP_CAPACITY {
                buf.clear();
                pool.push(buf);
            }
        }
    }
}

/// Marker type for [`Router::start`].
pub struct Router;

/// The running router: owns its threads; query or stop it through this.
pub struct RouterHandle {
    addr: SocketAddr,
    stats: Arc<RouterStats>,
    workers_up: Arc<Vec<AtomicBool>>,
    /// The TSGB grant board ([`RouterConfig::grants`] only).
    board: Option<Arc<GrantBoard>>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Router {
    /// Binds the client listener and spawns the acceptor, client
    /// handlers, and one uplink thread per worker.
    pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
        assert!(!config.workers.is_empty(), "need at least one worker");
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;

        let stats = Arc::new(RouterStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let workers_up: Arc<Vec<AtomicBool>> = Arc::new(
            config
                .workers
                .iter()
                .map(|_| AtomicBool::new(true))
                .collect(),
        );
        let ring = Arc::new(HashRing::new(config.workers.len(), config.vnodes));
        let pool = Arc::new(BufPool::default());
        // The grant board: subscribed client connections hang off it;
        // routerd's tick loop feeds it the coordinator's allocation
        // through [`RouterHandle::announce_grant`].
        let board = config.grants.then(|| Arc::new(GrantBoard::new()));

        let mut threads = Vec::new();
        let mut uplink_txs = Vec::with_capacity(config.workers.len());
        // Frames of at most `batch_max` reports: this many of them keep
        // the queued report total within `worker_queue_depth`.
        let queue_frames = (config.worker_queue_depth / config.batch_max.max(1)).max(1);
        for home in 0..config.workers.len() {
            let (tx, rx) = channel::bounded::<UplinkFrame>(queue_frames);
            uplink_txs.push(tx);
            let uplink = Uplink {
                home,
                rx,
                pool: Arc::clone(&pool),
                config: config.clone(),
                stats: Arc::clone(&stats),
                stop: Arc::clone(&stop),
                workers_up: Arc::clone(&workers_up),
            };
            threads.push(std::thread::spawn(move || uplink.run()));
        }

        let (conn_tx, conn_rx) = channel::bounded::<TcpStream>(config.conn_queue_depth.max(1));
        for _ in 0..config.client_threads.max(1) {
            let rx = conn_rx.clone();
            let txs = uplink_txs.clone();
            let ring = Arc::clone(&ring);
            let pool = Arc::clone(&pool);
            let cfg = config.clone();
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            let board = board.clone();
            threads.push(std::thread::spawn(move || {
                client_loop(rx, txs, ring, pool, cfg, stats, stop, board)
            }));
        }
        drop(conn_rx);
        drop(uplink_txs);

        {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                acceptor_loop(listener, conn_tx, stats, stop)
            }));
        }

        Ok(RouterHandle {
            addr,
            stats,
            workers_up,
            board,
            stop,
            threads,
        })
    }
}

impl RouterHandle {
    /// The bound client-facing address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live event counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Announces the coordinator's grant to every subscribed client
    /// connection (no-op unless [`RouterConfig::grants`]). `routerd`
    /// calls this each tick with the cluster's single-allocator
    /// decision, which is what makes every client behind the router
    /// randomize at one consistent ε′ per window.
    pub fn announce_grant(&self, grant: GrantFrame) {
        if let Some(board) = &self.board {
            board.announce(grant);
        }
    }

    /// The latest grant announced at this router's front door.
    pub fn latest_grant(&self) -> Option<GrantFrame> {
        self.board.as_ref().and_then(|b| b.current())
    }

    /// Per-worker up/down flags as last observed by the uplinks (a
    /// worker is "down" after a failed connect, until one succeeds).
    pub fn workers_up(&self) -> Vec<bool> {
        self.workers_up
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Stops accepting, drains the uplink queues, joins all threads.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept`; a throwaway connection wakes
        // it to see the flag.
        wake_acceptor(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

fn acceptor_loop(
    listener: TcpListener,
    tx: channel::Sender<TcpStream>,
    stats: Arc<RouterStats>,
    stop: Arc<AtomicBool>,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            // Includes the shutdown wake-up connection itself.
            return;
        }
        match accepted {
            Ok((stream, _)) => match tx.try_send(stream) {
                Ok(()) => stats.bump(&stats.accepted),
                // Full queue: shed, exactly like ingestd's front door.
                Err(TrySendError::Full(_)) => stats.bump(&stats.refused),
                Err(TrySendError::Disconnected(_)) => return,
            },
            // Transient (EMFILE, ECONNABORTED): back off, keep serving.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    rx: channel::Receiver<TcpStream>,
    txs: Vec<channel::Sender<UplinkFrame>>,
    ring: Arc<HashRing>,
    pool: Arc<BufPool>,
    config: RouterConfig,
    stats: Arc<RouterStats>,
    stop: Arc<AtomicBool>,
    board: Option<Arc<GrantBoard>>,
) {
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(stream) => {
                let outbox = Outbox {
                    txs: &txs,
                    ring: &ring,
                    pool: &pool,
                    config: &config,
                    stats: &stats,
                    tally: Arc::new(ConnTally::default()),
                    sent: 0,
                };
                handle_client(stream, outbox, &stop, board.as_deref());
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Per-connection staging: for each (ε′ nano, |τ|) key, one batch per
/// worker. Ordered, so a read round's frames are queued in the same
/// order on every run.
type Staging = BTreeMap<(u64, u16), Vec<ReportBatch>>;

/// A client connection's way out: where its staged batches are encoded
/// and queued toward the workers.
struct Outbox<'a> {
    txs: &'a [channel::Sender<UplinkFrame>],
    ring: &'a HashRing,
    pool: &'a BufPool,
    config: &'a RouterConfig,
    stats: &'a RouterStats,
    tally: Arc<ConnTally>,
    /// Reports queued toward workers (the denominator the EOF wait
    /// compares the tally's `done` against).
    sent: u64,
}

impl Outbox<'_> {
    /// Scatters every report of `batch` to its worker's staging batch,
    /// shipping a staging batch whenever it is full.
    fn scatter(&mut self, batch: &ReportBatch, staging: &mut Staging) {
        let batch_max = self.config.batch_max.max(1);
        let per_worker = staging
            .entry((batch.eps_nano, batch.len))
            .or_insert_with(|| vec![ReportBatch::new(); self.txs.len()]);
        for row in batch.rows() {
            let worker = self.ring.worker_for(column_key(batch, &row));
            let staged = &mut per_worker[worker];
            if staged.num_reports() >= batch_max || !staged.append_row(batch, &row) {
                self.ship(worker, staged);
                let appended = staged.append_row(batch, &row);
                debug_assert!(appended, "a row always fits an empty batch");
            }
        }
    }

    /// End of a read round: everything staged goes out.
    fn flush(&mut self, staging: &mut Staging) {
        for per_worker in staging.values_mut() {
            for (worker, staged) in per_worker.iter_mut().enumerate() {
                self.ship(worker, staged);
            }
        }
        if staging.len() > MAX_STAGING_KEYS {
            staging.clear();
        }
    }

    /// Encodes `staged` once and queues it to `worker`'s uplink as one
    /// item; blocks for queue room up to `enqueue_timeout`, then sheds.
    fn ship(&mut self, worker: usize, staged: &mut ReportBatch) {
        let reports = staged.num_reports() as u64;
        if reports == 0 {
            return;
        }
        let mut bytes = self.pool.take();
        staged.encode_frame_into(&mut bytes);
        staged.clear();
        let frame = UplinkFrame {
            bytes,
            reports,
            tally: Arc::clone(&self.tally),
        };
        match self.txs[worker].send_timeout(frame, self.config.enqueue_timeout) {
            Ok(()) => self.sent += reports,
            // Shed: the queue stayed full past the timeout (worker
            // stalled and its queue backed up). Not counted in `sent`,
            // so the client sees the shortfall.
            Err(SendTimeoutError::Timeout(frame) | SendTimeoutError::Disconnected(frame)) => {
                self.stats
                    .routed_failed
                    .fetch_add(reports, Ordering::Relaxed);
                self.pool.give(std::iter::once(frame.bytes));
            }
        }
    }
}

/// Reads one client stream to EOF, scattering every validated frame
/// toward its reports' workers, then waits for the worker acks and acks
/// the client. A `TSGH` hello upgrades the server→client direction to
/// control frames (framed acks, pushed grants) exactly as at a worker's
/// front door — the grant session is transparent to whether a router
/// sits in between.
fn handle_client(
    mut stream: TcpStream,
    mut outbox: Outbox<'_>,
    stop: &AtomicBool,
    board: Option<&GrantBoard>,
) {
    let (config, stats) = (outbox.config, outbox.stats);
    if stream.set_read_timeout(Some(config.read_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        stats.bump(&stats.io_errors);
        return;
    }
    let mut session = ServerSession::default();
    let mut decoder = StreamDecoder::new();
    // Decode scratch, reused across frames.
    let mut scratch = ReportBatch::new();
    let mut staging = Staging::new();
    // Batch-frame connections get cumulative acks opportunistically
    // mid-stream; single-frame connections keep the classic one-ack-at-
    // EOF exchange byte for byte.
    let mut saw_batch = false;
    let mut last_ack = 0u64;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match decoder.read_from(&mut stream) {
            Ok(0) => {
                // Mid-frame EOF is a protocol violation: no ack (routed
                // reports stand — each is an independent LDP message,
                // same rule as the single-node server).
                if decoder.pending() > 0 {
                    stats.bump(&stats.disconnected_protocol);
                    return;
                }
                // Wait for every routed report's fate, then ack the
                // worker-confirmed count. On timeout, ack what is
                // confirmed so far — under-acking is safe (the client
                // treats it as a shortfall), over-acking never happens.
                let deadline = Instant::now() + config.ack_timeout;
                let acked = outbox.tally.wait_done(outbox.sent, deadline, stop);
                if !session.ack(&mut stream, acked) {
                    stats.bump(&stats.io_errors);
                    return;
                }
                let _ = stream.shutdown(Shutdown::Both);
                stats.bump(&stats.completed);
                return;
            }
            Ok(_) => {
                // `Some(counter)`: the stream must be dropped, counted there.
                let fault = loop {
                    match decoder.next_wire_frame() {
                        Ok(Some(WireFrame::Reports { payload, batch })) => {
                            saw_batch |= batch;
                            if scratch.decode_payload_into(payload).is_err() {
                                break Some(&stats.disconnected_protocol);
                            }
                            outbox.scatter(&scratch, &mut staging);
                        }
                        // Upgrade to the grant session: framed acks from
                        // here, and — when subscribing — the current
                        // grant immediately plus every future
                        // announcement pushed mid-stream.
                        Ok(Some(WireFrame::Hello { hello })) => {
                            match session.upgrade(&hello, &stream, board) {
                                Ok(_) => {}
                                Err(SessionFault::NoGrantSession) => {
                                    break Some(&stats.disconnected_protocol)
                                }
                                Err(SessionFault::Io) => break Some(&stats.io_errors),
                            }
                        }
                        Ok(None) => break None,
                        Err(_) => break Some(&stats.disconnected_protocol),
                    }
                };
                // End of the read round: everything staged goes out —
                // also ahead of a fault, since the frames before it
                // stand (each is an independent LDP message).
                outbox.flush(&mut staging);
                if let Some(counter) = fault {
                    stats.bump(counter);
                    return;
                }
                // Opportunistic mid-stream ack for batching clients:
                // cumulative, monotone, never ahead of worker acks —
                // the client takes the last one it reads.
                if saw_batch {
                    let acked = outbox.tally.acked();
                    if acked > last_ack {
                        last_ack = acked;
                        if !session.ack(&mut stream, acked) {
                            stats.bump(&stats.io_errors);
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                stats.bump(&stats.io_errors);
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

/// One worker's uplink thread: everything it needs to drain its queue.
struct Uplink {
    home: usize,
    rx: channel::Receiver<UplinkFrame>,
    pool: Arc<BufPool>,
    config: RouterConfig,
    stats: Arc<RouterStats>,
    stop: Arc<AtomicBool>,
    workers_up: Arc<Vec<AtomicBool>>,
}

/// A frame off the queue, without its bytes: gathered for the next
/// write, then in flight on a [`Link`] until a worker ack covers it.
struct InFlight {
    tally: Arc<ConnTally>,
    reports: u64,
    bytes: usize,
}

impl InFlight {
    /// Un-acked toward its client (counted before the client can see it).
    fn fail(self, stats: &RouterStats) {
        stats
            .routed_failed
            .fetch_add(self.reports, Ordering::Relaxed);
        self.tally.settle(0, self.reports);
    }
}

/// One open worker connection and what it still owes acks for.
struct Link {
    stream: TcpStream,
    /// The worker it reached (the home worker, or a failover).
    worker: usize,
    opened: Instant,
    /// Written frames in write order: the worker ingests in that order
    /// and its cumulative ack counts the stream prefix it made durable,
    /// so acks settle this FIFO from the front.
    in_flight: VecDeque<InFlight>,
    in_flight_bytes: usize,
    /// The worker's latest cumulative ack on this connection.
    acked: u64,
    /// Reassembles 8-byte acks from however the socket fragments them.
    partial: [u8; 8],
    have: usize,
}

impl Link {
    /// Feeds ack bytes: each complete cumulative ack settles the frames
    /// (or part of one) it newly covers.
    fn feed(&mut self, bytes: &[u8], stats: &RouterStats) {
        for &b in bytes {
            self.partial[self.have] = b;
            self.have += 1;
            if self.have == 8 {
                self.have = 0;
                let cum = u64::from_le_bytes(self.partial);
                let mut newly = cum.saturating_sub(self.acked);
                self.acked = self.acked.max(cum);
                while newly > 0 {
                    let Some(front) = self.in_flight.front_mut() else {
                        break;
                    };
                    let take = newly.min(front.reports);
                    // Counted before the client can see the ack.
                    stats.cluster_routed.fetch_add(take, Ordering::Relaxed);
                    front.tally.settle(take, 0);
                    front.reports -= take;
                    newly -= take;
                    if front.reports == 0 {
                        self.in_flight_bytes -= front.bytes;
                        self.in_flight.pop_front();
                    }
                }
            }
        }
    }

    /// One blocking read of worker acks (bounded by the socket's read
    /// timeout); `Ok(false)` is the worker's EOF.
    fn read_acks(&mut self, stats: &RouterStats) -> std::io::Result<bool> {
        let mut buf = [0u8; 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.feed(&buf[..n], stats);
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes whatever acks have already arrived, without blocking —
    /// once per vectored write, so settled reports reach their clients
    /// while the queue stays busy.
    fn poll_acks(&mut self, stats: &RouterStats) -> std::io::Result<()> {
        self.stream.set_nonblocking(true)?;
        let mut buf = [0u8; 1024];
        let res = loop {
            match self.stream.read(&mut buf) {
                // Early close surfaces on the next write or blocking read.
                Ok(0) => break Ok(()),
                Ok(n) => self.feed(&buf[..n], stats),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.stream.set_nonblocking(false)?;
        res
    }

    /// Everything written and still unacked is un-acked toward its
    /// clients — never resent (the double-count rule).
    fn fail_in_flight(&mut self, stats: &RouterStats) {
        self.in_flight.drain(..).for_each(|f| f.fail(stats));
        self.in_flight_bytes = 0;
    }
}

impl Uplink {
    /// Drains the queue until every client handler is gone (channel
    /// disconnected, which on shutdown follows the handlers' exit).
    fn run(self) {
        let mut link: Option<Link> = None;
        // The next write, gathered: frame buffers and their bookkeeping.
        let mut bufs: Vec<Vec<u8>> = Vec::new();
        let mut batch: Vec<InFlight> = Vec::new();
        loop {
            // A failover link is temporary: let go of it periodically so
            // the next connect probes the home worker first.
            if link.as_ref().is_some_and(|l| {
                l.worker != self.home && l.opened.elapsed() >= self.config.reconnect_backoff_max
            }) {
                self.close(link.take());
            }
            // What to wait on depends on what the connection still owes.
            let first = match &link {
                // No connection: nothing to do until a frame arrives.
                None => match self.rx.recv() {
                    Ok(f) => Some(f),
                    Err(_) => return,
                },
                // Too much unacked: stop writing, go read acks.
                Some(l) if l.in_flight_bytes >= MAX_IN_FLIGHT_BYTES => None,
                // Acks outstanding: write on if there is work, else read.
                Some(l) if !l.in_flight.is_empty() => match self.rx.try_recv() {
                    Ok(f) => Some(f),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => return self.close(link),
                },
                // Fully acked: keep the connection a moment for more work.
                Some(_) => match self.rx.recv_timeout(IDLE_CLOSE) {
                    Ok(f) => Some(f),
                    Err(RecvTimeoutError::Timeout) => {
                        self.close(link.take());
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => return self.close(link),
                },
            };
            let Some(first) = first else {
                // Block for the worker's next ack. None within
                // IDLE_CLOSE (or its EOF): cycle the connection — the
                // half-close makes the worker finish and send its final
                // count, which decides what is still in flight.
                let l = link.as_mut().expect("only a link waits for acks");
                match l.read_acks(&self.stats) {
                    Ok(true) => {}
                    Ok(false) => self.close(link.take()),
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        self.close(link.take())
                    }
                    Err(_) => self.fail(link.take()),
                }
                continue;
            };

            // Gather everything queued into one vectored write.
            let mut bytes = 0;
            let mut next = Some(first);
            while let Some(f) = next {
                bytes += f.bytes.len();
                batch.push(InFlight {
                    tally: f.tally,
                    reports: f.reports,
                    bytes: f.bytes.len(),
                });
                bufs.push(f.bytes);
                next = (bufs.len() < MAX_WRITE_FRAMES && bytes < MAX_WRITE_BYTES)
                    .then(|| self.rx.try_recv().ok())
                    .flatten();
            }
            if link.is_none() {
                link = self.connect();
            }
            let Some(l) = link.as_mut() else {
                // Every worker unreachable: these frames were never
                // written, but there is nowhere to send them.
                batch.drain(..).for_each(|f| f.fail(&self.stats));
                self.pool.give(bufs.drain(..));
                continue;
            };
            // In flight from the moment the write begins: a failed
            // write may still have delivered any prefix.
            let n = batch.len() as u64;
            l.in_flight.extend(batch.drain(..));
            l.in_flight_bytes += bytes;
            let mut io: Vec<IoSlice<'_>> = bufs.iter().map(|b| IoSlice::new(b)).collect();
            let written = vio::write_all_vectored(&mut l.stream, &mut io);
            self.stats.uplink_writes.fetch_add(1, Ordering::Relaxed);
            self.stats.uplink_frames.fetch_add(n, Ordering::Relaxed);
            if l.worker != self.home {
                self.stats.rerouted_batches.fetch_add(n, Ordering::Relaxed);
            }
            let ok = written.and_then(|()| l.poll_acks(&self.stats)).is_ok();
            self.pool.give(bufs.drain(..));
            if !ok {
                self.fail(link.take());
            }
        }
    }

    /// Opens a connection for the next write: home worker first
    /// (reconnect with exponential backoff), then failover around the
    /// ring. `None` when every worker is unreachable.
    fn connect(&self) -> Option<Link> {
        // Candidate order: home, then the rest by index (any
        // deterministic order works — placement does not affect the
        // merged result).
        let n = self.config.workers.len();
        for i in 0..n {
            let w = (self.home + i) % n;
            let up = &self.workers_up[w];
            // A worker already marked down gets one quick probe; one
            // presumed up gets the full backoff sequence.
            let attempts = if up.load(Ordering::Relaxed) {
                self.config.connect_attempts.max(1)
            } else {
                1
            };
            let stream =
                connect_with_backoff(self.config.workers[w], attempts, &self.config, &self.stop)
                    .filter(|s| {
                        // The short read timeout paces the ack wait in `run`.
                        s.set_nodelay(true).is_ok() && s.set_read_timeout(Some(IDLE_CLOSE)).is_ok()
                    });
            match stream {
                Some(stream) => {
                    up.store(true, Ordering::Relaxed);
                    self.stats.bump(&self.stats.uplink_connects);
                    return Some(Link {
                        stream,
                        worker: w,
                        opened: Instant::now(),
                        in_flight: VecDeque::new(),
                        in_flight_bytes: 0,
                        acked: 0,
                        partial: [0; 8],
                        have: 0,
                    });
                }
                None => {
                    if up.swap(false, Ordering::Relaxed) {
                        self.stats.bump(&self.stats.worker_down);
                    }
                }
            }
        }
        None
    }

    /// Lets go of a connection in order: half-close, read the worker's
    /// acks to EOF (its last one is the durable total of the stream),
    /// and settle — whatever the final count leaves uncovered was
    /// refused by the worker and is un-acked toward its clients.
    fn close(&self, link: Option<Link>) {
        let Some(mut link) = link else { return };
        let drained = (|| {
            link.stream.shutdown(Shutdown::Write)?;
            link.stream
                .set_read_timeout(Some(self.config.read_timeout))?;
            while link.read_acks(&self.stats)? {}
            Ok::<(), std::io::Error>(())
        })();
        match drained {
            Ok(()) => link.fail_in_flight(&self.stats),
            Err(_) => self.fail(Some(link)),
        }
    }

    /// The connection broke: its unacked frames are failed, and the
    /// worker is marked down so the next connect probes it once.
    fn fail(&self, link: Option<Link>) {
        let Some(mut link) = link else { return };
        self.stats.bump(&self.stats.io_errors);
        if self.workers_up[link.worker].swap(false, Ordering::Relaxed) {
            self.stats.bump(&self.stats.worker_down);
        }
        link.fail_in_flight(&self.stats);
    }
}

/// Tries to connect up to `attempts` times with doubling backoff.
fn connect_with_backoff(
    addr: SocketAddr,
    attempts: u32,
    config: &RouterConfig,
    stop: &AtomicBool,
) -> Option<TcpStream> {
    let mut backoff = config.reconnect_backoff;
    for attempt in 0..attempts.max(1) {
        if stop.load(Ordering::SeqCst) && attempt > 0 {
            return None;
        }
        match TcpStream::connect_timeout(&addr, config.read_timeout) {
            Ok(stream) => return Some(stream),
            Err(_) => {
                if attempt + 1 < attempts {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(config.reconnect_backoff_max);
                }
            }
        }
    }
    None
}
