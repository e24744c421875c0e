//! The connection path: the acceptor, the per-shard worker loop, and the
//! per-connection handler that decodes frames, appends them to the WAL,
//! counts them and acks. See [`crate::server`] for the architecture.

use crate::server::{server_clock_now, IngestProfile, ServerStats, Shard, StreamIngestPolicy};
use crossbeam::channel::{self, RecvTimeoutError, TrySendError};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trajshare_aggregate::grant;
use trajshare_aggregate::snapshot::crc32;
use trajshare_aggregate::{GrantBoard, GrantSubscriber, ReportBatch, StreamDecoder, WireFrame};

pub(crate) fn acceptor_loop(
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
pub(crate) fn worker_loop(
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
