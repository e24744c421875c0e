//! Client-side streaming: connect, frame, send, await the ack.
//!
//! Used by the `loadgen` binary and the end-to-end tests (the benchmark
//! in `benchmark/` drives the same protocol from its own `load.rs`). The
//! ack protocol makes completion *durable*: the returned count only
//! covers reports the server has validated, counted, and flushed to its
//! write-ahead log, so a caller that sees all acks may kill the server
//! and still expect exact recovery.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use trajshare_aggregate::{
    BatchEncoder, ControlDecoder, ControlFrame, GrantFrame, HelloFrame, Report,
};

/// Streams `reports` as single-report frames across `connections`
/// parallel connections (contiguous slices, one thread each) and returns
/// the summed acks. With a healthy server the sum equals
/// `reports.len()`; a shortfall means connections were refused
/// (backpressure) or dropped.
pub fn stream_reports(
    addr: SocketAddr,
    reports: &[Report],
    connections: usize,
) -> std::io::Result<u64> {
    stream_reports_batched(addr, reports, connections, 1)
}

/// [`stream_reports`] with `TSR4` batch frames of up to `batch` reports.
pub fn stream_reports_batched(
    addr: SocketAddr,
    reports: &[Report],
    connections: usize,
    batch: usize,
) -> std::io::Result<u64> {
    stream_wires(&encode_wire_multi(&[addr], reports, connections, batch))
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

/// Splits `reports` into one contiguous slice per connection and
/// pre-encodes each with [`encode_wire`]. Connection `i` targets
/// `addrs[i % N]`, and at least one connection per address is opened so
/// every target sees traffic even when `connections < addrs.len()` —
/// several addresses drive N workers directly, with no router in front.
/// The returned `(target, wire)` pairs are everything [`stream_wires`]
/// needs, so `loadgen` encodes first, starts its clock, then streams.
pub fn encode_wire_multi(
    addrs: &[SocketAddr],
    reports: &[Report],
    connections: usize,
    batch: usize,
) -> Vec<(SocketAddr, Vec<u8>)> {
    assert!(!addrs.is_empty(), "need at least one target address");
    let connections = connections.max(addrs.len()).min(reports.len().max(1));
    let per = reports.len().div_ceil(connections).max(1);
    reports
        .chunks(per)
        .enumerate()
        .map(|(i, slice)| (addrs[i % addrs.len()], encode_wire(slice, batch)))
        .collect()
}

/// Streams pre-encoded wires ([`encode_wire_multi`]) in parallel, one
/// connection and one thread per entry, and returns the summed final
/// cumulative acks.
pub fn stream_wires(wires: &[(SocketAddr, Vec<u8>)]) -> std::io::Result<u64> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter()
            .map(|(addr, wire)| scope.spawn(move || stream_bytes_once(*addr, wire)))
            .collect();
        let mut total = 0u64;
        for h in handles {
            total += h.join().expect("client thread panicked")?;
        }
        Ok(total)
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use trajshare_aggregate::{ReportBatch, StreamDecoder, WireFrame};

    /// Mixed (ε′, |τ|) keys in runs of five, so batch frames flush both
    /// on key changes and on the `batch` cap.
    fn toy_reports(n: u64) -> Vec<Report> {
        (0..n)
            .map(|i| {
                let len = 2 + (i / 5 % 3) as u16;
                let unigrams: Vec<(u16, u32)> = (0..len)
                    .map(|p| (p, (i as u32 * 7 + p as u32) % 40))
                    .collect();
                Report {
                    t: 100 + i,
                    eps_prime: if i / 5 % 2 == 0 { 0.75 } else { 1.5 },
                    len,
                    exact: unigrams.clone(),
                    transitions: unigrams.windows(2).map(|w| (w[0].1, w[1].1)).collect(),
                    unigrams,
                }
            })
            .collect()
    }

    fn decode(wire: &[u8]) -> Vec<Report> {
        let mut dec = StreamDecoder::new();
        dec.extend(wire);
        let mut scratch = ReportBatch::new();
        let mut got = Vec::new();
        while let Some(frame) = dec.next_wire_frame().unwrap() {
            let WireFrame::Reports { payload, .. } = frame else {
                panic!("no hello on a report wire");
            };
            scratch.decode_payload_into(payload).unwrap();
            got.extend(scratch.reports());
        }
        assert_eq!(dec.pending(), 0);
        got
    }

    #[test]
    fn partitioned_wires_carry_every_report_in_order_to_every_address() {
        let reports = toy_reports(50);
        let addrs: Vec<SocketAddr> = (1..=3)
            .map(|p| format!("127.0.0.1:{p}").parse().unwrap())
            .collect();
        for connections in [1, 3, reports.len() + 5] {
            for addrs in [&addrs[..1], &addrs[..]] {
                for batch in [1, 256] {
                    let wires = encode_wire_multi(addrs, &reports, connections, batch);
                    let case = format!("{connections} conns, {} addrs, batch {batch}", addrs.len());
                    for (i, (addr, _)) in wires.iter().enumerate() {
                        assert_eq!(*addr, addrs[i % addrs.len()], "{case}");
                    }
                    assert!(wires.len() >= addrs.len(), "an address got no wire: {case}");
                    assert!(wires.len() >= connections.min(reports.len()), "{case}");
                    let joined: Vec<u8> = wires.iter().flat_map(|(_, w)| w).copied().collect();
                    assert_eq!(decode(&joined), reports, "{case}");
                    if connections == 1 && addrs.len() == 1 {
                        assert_eq!(wires[0].1, encode_wire(&reports, batch), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_empty_slice_opens_no_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        assert_eq!(stream_reports(addr, &[], 4).unwrap(), 0);
        let pending = listener.accept().map(|_| ()).unwrap_err();
        assert_eq!(pending.kind(), std::io::ErrorKind::WouldBlock);
    }
}
