//! Client-side streaming: connect, frame, send, await the ack.
//!
//! Used by the `loadgen` binary, the `service_ingest` bench, and the
//! end-to-end tests. The ack protocol makes completion *durable*: the
//! returned count only covers reports the server has validated, counted,
//! and flushed to its write-ahead log, so a caller that sees all acks may
//! kill the server and still expect exact recovery.

use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use trajshare_aggregate::{
    BatchEncoder, ControlDecoder, ControlFrame, GrantFrame, HelloFrame, Report,
};
use trajshare_core::vio;

/// Streams one report slice over a single connection as single-report
/// frames and returns the server's ack (reports accepted and made
/// durable) — the one a single-frame connection gets, at EOF.
pub fn stream_once(addr: SocketAddr, reports: &[Report]) -> std::io::Result<u64> {
    stream_bytes_once(addr, &encode_wire(reports, 1))
}

/// Streams `reports` across `connections` parallel connections
/// (contiguous slices, one thread each) and returns the summed acks.
/// With a healthy server the sum equals `reports.len()`; a shortfall
/// means connections were refused (backpressure) or dropped.
pub fn stream_reports(
    addr: SocketAddr,
    reports: &[Report],
    connections: usize,
) -> std::io::Result<u64> {
    stream_reports_multi(&[addr], reports, connections)
}

/// Streams `reports` across `connections` parallel connections spread
/// round-robin over `addrs` (connection `i` targets `addrs[i % N]`) and
/// returns the summed acks. With one address this is exactly
/// [`stream_reports`]; with several it drives N workers directly — the
/// no-router baseline a cluster soak compares `routerd` against. At
/// least one connection per address is opened so every target sees
/// traffic even when `connections < addrs.len()`.
pub fn stream_reports_multi(
    addrs: &[SocketAddr],
    reports: &[Report],
    connections: usize,
) -> std::io::Result<u64> {
    assert!(!addrs.is_empty(), "need at least one target address");
    let connections = connections
        .max(addrs.len())
        .clamp(1, reports.len().max(1))
        .max(1);
    let per = reports.len().div_ceil(connections);
    std::thread::scope(|scope| {
        let handles: Vec<_> = reports
            .chunks(per.max(1))
            .enumerate()
            .map(|(i, slice)| {
                let addr = addrs[i % addrs.len()];
                scope.spawn(move || stream_once(addr, slice))
            })
            .collect();
        let mut total = 0u64;
        for h in handles {
            total += h.join().expect("client thread panicked")?;
        }
        Ok(total)
    })
}

/// Pre-encodes `reports` as wire bytes: `TSR4` batch frames of up to
/// `batch` reports when `batch > 1` (a frame flushes early whenever the
/// next report's ε′/|τ| key differs — see
/// `trajshare_aggregate::BatchEncoder`), plain single-report frames when
/// `batch <= 1`. Encoding once up front keeps serialization out of the
/// timed send path entirely.
pub fn encode_wire(reports: &[Report], batch: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(reports.len() * 64);
    if batch <= 1 {
        for r in reports {
            r.encode_frame_into(&mut out);
        }
    } else {
        let mut enc = BatchEncoder::new(batch);
        for r in reports {
            enc.push(r, &mut out);
        }
        enc.flush(&mut out);
    }
    out
}

/// Streams pre-encoded wire bytes over one connection, half-closes, and
/// returns the server's *last* cumulative ack (the total accepted and
/// durable). Half-closing tells the server "stream complete"; it
/// replies with the accepted count once everything is logged.
/// Batch-frame acks arriving mid-stream are drained opportunistically
/// between writes — they are cumulative, so the last one wins — which
/// also keeps a long upload from deadlocking against the server's
/// per-round ack writes on a full socket buffer.
pub fn stream_bytes_once(addr: SocketAddr, wire: &[u8]) -> std::io::Result<u64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut acks = AckReader::default();
    for chunk in wire.chunks(256 * 1024) {
        stream.write_all(chunk)?;
        acks.drain_nonblocking(&mut stream)?;
    }
    stream.shutdown(Shutdown::Write)?;
    acks.read_to_eof(&mut stream)
}

/// [`stream_once`] with `TSR4` batch frames: one connection, batches of
/// up to `batch` reports, returns the server's final cumulative ack.
pub fn stream_once_batched(
    addr: SocketAddr,
    reports: &[Report],
    batch: usize,
) -> std::io::Result<u64> {
    stream_bytes_once(addr, &encode_wire(reports, batch))
}

/// [`stream_reports`] with `TSR4` batch frames.
pub fn stream_reports_batched(
    addr: SocketAddr,
    reports: &[Report],
    connections: usize,
    batch: usize,
) -> std::io::Result<u64> {
    stream_reports_multi_batched(&[addr], reports, connections, batch)
}

/// [`stream_reports_multi`] with `TSR4` batch frames: each connection's
/// slice is pre-encoded once (off the socket), then streamed, taking
/// the last cumulative ack. `batch <= 1` sends classic single-report
/// frames (still pre-encoded). Callers that want serialization out of
/// their timing entirely use [`encode_wire_multi`] + [`stream_wires`]
/// directly — this is just the two glued together.
pub fn stream_reports_multi_batched(
    addrs: &[SocketAddr],
    reports: &[Report],
    connections: usize,
    batch: usize,
) -> std::io::Result<u64> {
    stream_wires(&encode_wire_multi(addrs, reports, connections, batch))
}

/// One pre-encoded wire frame with its 4-byte length prefix kept
/// separate from the payload — the scatter-gather unit of
/// [`stream_frames_once`], which hands (prefix, payload) pairs straight
/// to `write_vectored` without ever concatenating them.
pub struct EncodedFrame {
    prefix: [u8; 4],
    payload: Vec<u8>,
}

/// Pre-encodes `reports` exactly like [`encode_wire`] but keeps each
/// frame as its own [`EncodedFrame`] instead of one contiguous byte
/// run, so the send path can scatter-gather them. The split reuses
/// [`encode_wire`]'s bytes, so both paths are byte-identical on the
/// wire by construction.
pub fn encode_frames(reports: &[Report], batch: usize) -> Vec<EncodedFrame> {
    let wire = encode_wire(reports, batch);
    let mut frames = Vec::new();
    let mut i = 0;
    while i < wire.len() {
        let prefix: [u8; 4] = wire[i..i + 4].try_into().unwrap();
        let len = u32::from_le_bytes(prefix) as usize;
        frames.push(EncodedFrame {
            prefix,
            payload: wire[i + 4..i + 4 + len].to_vec(),
        });
        i += 4 + len;
    }
    frames
}

/// Streams pre-encoded frames over one connection with vectored writes
/// — each syscall gathers whole (prefix, payload) pairs up to an iovec
/// and byte budget — half-closes, and returns the server's last
/// cumulative ack. Wire bytes and ack handling are identical to
/// [`stream_bytes_once`]; only the syscall shape differs (no
/// concatenated send buffer is ever built).
pub fn stream_frames_once(addr: SocketAddr, frames: &[EncodedFrame]) -> std::io::Result<u64> {
    // writev caps: stay well under IOV_MAX (1024 on Linux) and keep
    // rounds around the same ~256 KiB granularity as the contiguous
    // path so ack drains stay as frequent.
    const MAX_IOVECS: usize = 1024;
    const GROUP_BYTES: usize = 256 * 1024;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut acks = AckReader::default();
    let mut i = 0;
    while i < frames.len() {
        let mut io: Vec<IoSlice> = Vec::with_capacity(64);
        let mut bytes = 0usize;
        while i < frames.len() && io.len() + 2 <= MAX_IOVECS && bytes < GROUP_BYTES {
            let f = &frames[i];
            io.push(IoSlice::new(&f.prefix));
            io.push(IoSlice::new(&f.payload));
            bytes += 4 + f.payload.len();
            i += 1;
        }
        vio::write_all_vectored(&mut stream, &mut io)?;
        acks.drain_nonblocking(&mut stream)?;
    }
    stream.shutdown(Shutdown::Write)?;
    acks.read_to_eof(&mut stream)
}

/// Splits `reports` into one contiguous slice per connection (round-
/// robin over `addrs`, at least one connection per address) and
/// pre-encodes each slice into [`EncodedFrame`]s. The returned
/// `(target, frames)` pairs are everything [`stream_wires`] needs, so
/// the one-time serialization cost is fully separated from the send
/// path — `loadgen` and the ingest bench encode first, start the
/// clock, then stream.
pub fn encode_wire_multi(
    addrs: &[SocketAddr],
    reports: &[Report],
    connections: usize,
    batch: usize,
) -> Vec<(SocketAddr, Vec<EncodedFrame>)> {
    assert!(!addrs.is_empty(), "need at least one target address");
    let connections = connections
        .max(addrs.len())
        .clamp(1, reports.len().max(1))
        .max(1);
    let per = reports.len().div_ceil(connections);
    reports
        .chunks(per.max(1))
        .enumerate()
        .map(|(i, slice)| (addrs[i % addrs.len()], encode_frames(slice, batch)))
        .collect()
}

/// Streams pre-encoded wires ([`encode_wire_multi`]) in parallel, one
/// connection per entry (scatter-gather writes —
/// [`stream_frames_once`]), and returns the summed final cumulative
/// acks.
pub fn stream_wires(wires: &[(SocketAddr, Vec<EncodedFrame>)]) -> std::io::Result<u64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter()
            .map(|(addr, frames)| scope.spawn(move || stream_frames_once(*addr, frames)))
            .collect();
        let mut total = 0u64;
        for h in handles {
            total += h.join().expect("client thread panicked")?;
        }
        Ok(total)
    })
}

/// A grant-session connection: the closed-loop client side of the
/// adaptive ε-budget protocol.
///
/// On connect it sends the `TSGH` subscribe hello, which switches the
/// server→client direction to length-prefixed control frames: framed
/// `TSAK` cumulative acks interleaved with pushed `TSGB` grants. The
/// client then alternates [`GrantClient::wait_grant`] (block until the
/// allocator announces ε′ for the window it wants to fill) with
/// [`GrantClient::send`] (stream reports randomized at exactly that
/// ε′), and [`GrantClient::finish`] half-closes and returns the durable
/// total — the same completion contract as [`stream_bytes_once`].
///
/// Works identically against a single grant-running `ingestd` and
/// against `routerd` (which relays the cluster coordinator's grants),
/// because the wire protocol is the same at both front doors.
pub struct GrantClient {
    stream: TcpStream,
    decoder: ControlDecoder,
    last_ack: u64,
    seen_ack: bool,
    eof: bool,
    latest: Option<GrantFrame>,
    grants_seen: Vec<GrantFrame>,
}

impl GrantClient {
    /// Connects, subscribes to the grant session, and returns the live
    /// client. The server's current grant (if any) arrives immediately
    /// — the late-joiner catch-up — and is visible through
    /// [`GrantClient::latest_grant`] after the first `wait_grant`/pump.
    pub fn connect(addr: SocketAddr) -> std::io::Result<GrantClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.write_all(&HelloFrame::subscribe().encode_frame())?;
        Ok(GrantClient {
            stream,
            decoder: ControlDecoder::new(),
            last_ack: 0,
            seen_ack: false,
            eof: false,
            latest: None,
            grants_seen: Vec::new(),
        })
    }

    /// The newest grant received so far.
    pub fn latest_grant(&self) -> Option<GrantFrame> {
        self.latest
    }

    /// Every distinct grant received, in arrival order.
    pub fn grants_seen(&self) -> &[GrantFrame] {
        &self.grants_seen
    }

    /// The last cumulative durable ack received so far.
    pub fn acked(&self) -> u64 {
        self.last_ack
    }

    fn absorb(&mut self, frame: ControlFrame) {
        match frame {
            // Cumulative, so the newest wins.
            ControlFrame::Ack(acked) => {
                self.last_ack = acked;
                self.seen_ack = true;
            }
            ControlFrame::Grant(g) => {
                // The board dedupes, but a reconnecting relay may
                // replay — keep `grants_seen` distinct by epoch.
                if self.grants_seen.last().map(|p| p.epoch) != Some(g.epoch) {
                    self.grants_seen.push(g);
                }
                self.latest = Some(g);
            }
        }
    }

    /// Decodes every complete buffered control frame.
    fn drain_decoder(&mut self) -> std::io::Result<()> {
        loop {
            match self.decoder.next_control() {
                Ok(Some(frame)) => self.absorb(frame),
                Ok(None) => return Ok(()),
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("corrupt control frame from server: {e:?}"),
                    ))
                }
            }
        }
    }

    /// Reads whatever the server has already pushed, without blocking.
    fn pump_nonblocking(&mut self) -> std::io::Result<()> {
        self.stream.set_nonblocking(true)?;
        let mut buf = [0u8; 4096];
        let res = loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    break Ok(());
                }
                Ok(n) => self.decoder.extend(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.stream.set_nonblocking(false)?;
        res?;
        self.drain_decoder()
    }

    /// Blocks until a grant for window ≥ `min_window` arrives (the
    /// announced grant covers exactly one window, so "at least" is the
    /// right wait — the allocator never re-grants an older window with
    /// a newer epoch). Returns `None` on timeout with the loop still
    /// healthy; the caller decides whether to fall back to
    /// [`GrantClient::latest_grant`] or give up.
    pub fn wait_grant(
        &mut self,
        min_window: u64,
        timeout: Duration,
    ) -> std::io::Result<Option<GrantFrame>> {
        let deadline = Instant::now() + timeout;
        loop {
            self.pump_nonblocking()?;
            match self.latest {
                Some(g) if g.window >= min_window => return Ok(Some(g)),
                _ => {}
            }
            if self.eof {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the grant session",
                ));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // Short blocking reads so a pushed grant wakes us promptly
            // without spinning.
            self.stream
                .set_read_timeout(Some((deadline - now).min(Duration::from_millis(50))))?;
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => self.eof = true,
                Ok(n) => self.decoder.extend(&buf[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.stream
                        .set_read_timeout(Some(Duration::from_secs(30)))?;
                    return Err(e);
                }
            }
            self.stream
                .set_read_timeout(Some(Duration::from_secs(30)))?;
            self.drain_decoder()?;
        }
    }

    /// Streams pre-encoded report/batch wire bytes ([`encode_wire`]),
    /// draining pushed control frames between chunks so a long upload
    /// cannot deadlock against the server's ack/grant writes.
    pub fn send(&mut self, wire: &[u8]) -> std::io::Result<()> {
        for chunk in wire.chunks(256 * 1024) {
            self.stream.write_all(chunk)?;
            self.pump_nonblocking()?;
        }
        Ok(())
    }

    /// Half-closes and reads the session to EOF, returning the final
    /// cumulative durable ack. Same contract as [`stream_bytes_once`]:
    /// a server that closes without ever acking is an error.
    pub fn finish(mut self) -> std::io::Result<(u64, Vec<GrantFrame>)> {
        self.stream.shutdown(Shutdown::Write)?;
        let mut buf = [0u8; 4096];
        while !self.eof {
            match self.stream.read(&mut buf) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.decoder.extend(&buf[..n]);
                    self.drain_decoder()?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.drain_decoder()?;
        if !self.seen_ack {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before any ack",
            ));
        }
        Ok((self.last_ack, self.grants_seen))
    }
}

/// Reassembles the server's 8-byte cumulative acks from however the
/// socket fragments them, remembering the last complete one.
#[derive(Default)]
struct AckReader {
    partial: [u8; 8],
    have: usize,
    last: u64,
    seen: bool,
}

impl AckReader {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.partial[self.have] = b;
            self.have += 1;
            if self.have == 8 {
                self.have = 0;
                self.last = u64::from_le_bytes(self.partial);
                self.seen = true;
            }
        }
    }

    /// Reads whatever acks are already buffered, without blocking.
    fn drain_nonblocking(&mut self, stream: &mut TcpStream) -> std::io::Result<()> {
        stream.set_nonblocking(true)?;
        let mut buf = [0u8; 1024];
        let res = loop {
            match stream.read(&mut buf) {
                // Early close surfaces on the next write or final read.
                Ok(0) => break Ok(()),
                Ok(n) => self.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        stream.set_nonblocking(false)?;
        res
    }

    /// Blocks to EOF and returns the last cumulative ack; a connection
    /// the server closed without ever acking is an error (the client
    /// must not mistake a refused upload for zero durable reports).
    fn read_to_eof(mut self, stream: &mut TcpStream) -> std::io::Result<u64> {
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if !self.seen {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before any ack",
            ));
        }
        Ok(self.last)
    }
}
