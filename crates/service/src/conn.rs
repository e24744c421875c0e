//! The connection path: the acceptor, the per-shard worker loop, and the
//! per-connection handler. Every report frame — one `TSR3` report or a
//! `TSR4` batch — takes one path: decode into the connection's column
//! scratch, stamp or police its timestamps, append the payload to the
//! WAL and fold the columns ([`Shard::ingest_frame`]). Every read round
//! ends with one WAL flush followed by at most one cumulative ack. See
//! [`crate::server`] for the architecture.

use crate::server::{server_clock_now, IngestProfile, ServerStats, Shard, StreamIngestPolicy};
use crossbeam::channel::{self, RecvTimeoutError, TrySendError};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trajshare_aggregate::snapshot::crc32;
use trajshare_aggregate::{
    GrantBoard, ReportBatch, ServerSession, SessionFault, StreamDecoder, WireFrame,
};

pub(crate) fn acceptor_loop(
    listener: TcpListener,
    tx: channel::Sender<TcpStream>,
    stats: Arc<ServerStats>,
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
                // Queue full: shed the connection immediately (the stream
                // drops ⇒ RST/close) instead of buffering unboundedly.
                Err(TrySendError::Full(_)) => stats.bump(&stats.refused),
                Err(TrySendError::Disconnected(_)) => return,
            },
            // Transient (EMFILE, ECONNABORTED): back off, keep serving.
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

/// Reads one client stream to EOF in read rounds: each socket read's
/// complete frames are ingested under one hold of the shard lock, then
/// the round commits — one WAL flush, then at most one cumulative ack —
/// so an ack never covers an unflushed record. EOF is the last round,
/// and its ack is the durable total. Any protocol violation or stall
/// ends the connection without a further ack; the frames before the
/// fault stand (each is an independent, validated LDP message) and are
/// flushed. A `TSGH` hello upgrades the server→client direction to
/// control frames (framed acks, pushed grants — see
/// [`crate::StreamServerConfig::grants`]); connections that never send
/// one keep the classic raw-ack exchange byte for byte.
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
    // Per-connection scratch, reused across frames: decoded columns and
    // the edge-stamped re-encoding, so the hot path allocates nothing
    // per report once they have grown to working size.
    let mut scratch = ReportBatch::new();
    let mut stamped = Vec::new();
    let mut session = ServerSession::default();
    let mut accepted = 0u64;
    // The one thing the frame kind decides: mid-stream acks start with
    // the connection's first `TSR4` frame, so a connection of single
    // frames only keeps the pre-batch exchange (one ack, at EOF).
    let mut mid_stream_acks = false;
    let server_clock = policy.is_some_and(|p| p.server_clock);
    // Windows this connection may still advance the shard watermark.
    let mut advance_budget = policy.map_or(u64::MAX, |p| p.max_conn_advance);
    while !stop.load(Ordering::SeqCst) {
        // The decoder reads the socket directly into its own buffer
        // (≥ [`StreamDecoder::READ_CHUNK`] spare per read), so a whole
        // kernel receive buffer lands in one syscall + one copy.
        let eof = match decoder.read_from(&mut stream) {
            Ok(n) => n == 0,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                stats.bump(match e.kind() {
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        &stats.disconnected_slow
                    }
                    _ => &stats.io_errors,
                });
                return;
            }
        };
        let t0 = profile.map(|_| Instant::now());
        // Taken at the round's first report frame, held to its commit.
        let mut guard = None;
        let (mut frames, mut reports) = (0u64, 0u64);
        let (mut validate_ns, mut fill_ns) = (0u64, 0u64);
        // `Some(counter)`: the connection ends after this round's commit.
        let fault: Option<&AtomicU64> = loop {
            match decoder.next_wire_frame() {
                Ok(Some(WireFrame::Reports { mut payload, batch })) => {
                    mid_stream_acks |= batch;
                    let decoded = match profile {
                        Some(_) => {
                            scratch.decode_payload_timed(payload, &mut validate_ns, &mut fill_ns)
                        }
                        None => scratch.decode_payload_into(payload),
                    };
                    let Ok(mut payload_crc) = decoded else {
                        break Some(&stats.disconnected_protocol);
                    };
                    frames += 1;
                    let n = scratch.num_reports() as u64;
                    let shard = guard.get_or_insert_with(|| shard.lock().unwrap());
                    if server_clock {
                        // Collector-edge stamping: the *stamped* encoding
                        // is what the WAL persists, so a replayed frame
                        // lands in the same window.
                        scratch.stamp_t(server_clock_now());
                        stamped.clear();
                        scratch.encode_payload_into(&mut stamped);
                        payload = &stamped;
                        payload_crc = crc32(payload);
                    } else if let Some(ring) = &shard.ring {
                        // The advance budget polices *client-declared*
                        // timestamps (an edge-stamped `t` can only move
                        // the watermark at wall-time rate). `window_of`
                        // is monotone in t, so the frame's furthest
                        // window is the full advance it would cause.
                        let w = ring.config().window_of(scratch.max_t());
                        let newest = ring.newest_window();
                        // The budget protects *live data* from eviction;
                        // advancing an empty ring evicts nothing and is
                        // free — which is also what lets clients
                        // stamping epoch seconds reach "now" from a cold
                        // start's watermark 0.
                        if w > newest && ring.merged().num_reports > 0 {
                            let delta = w - newest;
                            if delta > advance_budget {
                                // Refusing (not clamping) keeps the LDP
                                // payload intact and the watermark
                                // honest. Frame-wide — one frame, one
                                // decision — and the round's unchanged
                                // cumulative ack tells the client.
                                stats.watermark_throttled.fetch_add(n, Ordering::Relaxed);
                                continue;
                            }
                            advance_budget -= delta;
                        }
                    }
                    if shard.ingest_frame(&scratch, payload, payload_crc).is_err() {
                        break Some(&stats.io_errors);
                    }
                    reports += n;
                }
                Ok(Some(WireFrame::Hello { hello })) => {
                    match session.upgrade(&hello, &stream, board) {
                        Ok(true) => stats.bump(&stats.grant_subscriptions),
                        Ok(false) => {}
                        Err(SessionFault::NoGrantSession) => {
                            break Some(&stats.disconnected_protocol)
                        }
                        Err(SessionFault::Io) => break Some(&stats.io_errors),
                    }
                }
                // A stream that ends mid-frame is a protocol violation,
                // not a completed upload: no ack, so the client cannot
                // mistake a truncated send for full durability.
                Ok(None) => {
                    break (eof && decoder.pending() > 0).then_some(&stats.disconnected_protocol)
                }
                // Hostile or corrupt stream: drop it.
                Err(_) => break Some(&stats.disconnected_protocol),
            }
        };
        accepted += reports;
        stats.reports_ingested.fetch_add(reports, Ordering::Relaxed);
        let t1 = profile.map(|_| Instant::now());
        // The commit: everything the round appended reaches the kernel
        // before anything below can ack it.
        if let Some(mut shard) = guard {
            if shard.wal.flush().is_err() {
                stats.bump(&stats.io_errors);
                return;
            }
            stats.bump(&stats.wal_commits);
        }
        let t2 = profile.map(|_| Instant::now());
        if let Some(counter) = fault {
            stats.bump(counter);
            return;
        }
        let ack_due = eof || (mid_stream_acks && frames > 0);
        if ack_due && !session.ack(&mut stream, accepted) {
            stats.bump(&stats.io_errors);
            return;
        }
        if let (Some(p), Some(t0), Some(t1), Some(t2)) = (profile, t0, t1, t2) {
            let ns = |d: Duration| d.as_nanos() as u64;
            let fold = ns(t1 - t0).saturating_sub(validate_ns + fill_ns);
            p.validate_ns.fetch_add(validate_ns, Ordering::Relaxed);
            p.decode_ns.fetch_add(fill_ns, Ordering::Relaxed);
            p.accumulate_ns.fetch_add(fold, Ordering::Relaxed);
            p.wal_ns.fetch_add(ns(t2 - t1), Ordering::Relaxed);
            if ack_due {
                p.ack_ns.fetch_add(ns(t2.elapsed()), Ordering::Relaxed);
            }
            p.batches.fetch_add(frames, Ordering::Relaxed);
            p.reports.fetch_add(reports, Ordering::Relaxed);
        }
        if eof {
            let _ = stream.shutdown(Shutdown::Both);
            stats.bump(&stats.completed);
            return;
        }
    }
}
