//! The grant-session control plane: `TSGB` / `TSGH` / `TSAK` frames.
//!
//! PR 5's budget accountant was one-way: clients perturbed at whatever
//! ε′ they liked and the collector refused over-claiming cohorts after
//! the fact. RetraSyn's online protocol is cooperative — the collector
//! *broadcasts* each window's granted ε′ and honest clients randomize
//! at it, making refusal the exception path. These frames are that
//! broadcast channel, carried *inside* the existing ingest connection
//! so a session needs no second socket:
//!
//! * `TSGH` (client → server) — the **hello**: opts the connection into
//!   the grant session. From the server's first post-hello byte, the
//!   server→client direction switches from raw cumulative `u64` acks to
//!   length-prefixed control frames (`TSAK` acks interleaved with
//!   `TSGB` grants). Connections that never send a hello keep the
//!   classic raw-ack exchange byte for byte.
//! * `TSGB` (server → client) — one epoch-tagged **grant**: "window `w`
//!   may be perturbed at up to `ε′` (nano-ε)". Epochs increase with
//!   every allocation the ledger makes, so a late joiner receiving the
//!   current grant immediately (the hello reply) can order it against
//!   anything it heard elsewhere.
//! * `TSAK` (server → client) — the framed form of the cumulative
//!   durability ack, same meaning as the raw `u64`.
//!
//! All three are length-prefixed with a trailing CRC-32 and decoded
//! under the same hostile-header discipline as `TSR2`–`TSR4`: sizes are
//! validated in `u64` arithmetic before a byte is trusted, truncation
//! is [`DecodeError::Truncated`], excess is [`DecodeError::TrailingBytes`],
//! and no input — adversarial or torn — may panic the decoder
//! (fuzz/property-tested below, mirroring the batch-frame suite).
//!
//! ```text
//! TSGB payload (32 bytes)            TSGH payload (9)   TSAK payload (16)
//! [ 0.. 4) magic "TSGB"              [0..4) "TSGH"      [0.. 4) "TSAK"
//! [ 4..12) epoch        u64 LE       [4..5) flags u8    [4..12) acked u64 LE
//! [12..20) window       u64 LE       [5..9) CRC-32      [12..16) CRC-32
//! [20..28) granted ε′   u64 nano-ε
//! [28..32) CRC-32 of [0..28)
//! ```
//!
//! Each frame travels as `u32 LE payload length` + payload, the same
//! framing every other wire format here uses.

use crate::report::DecodeError;
use crate::snapshot::crc32;

/// Largest declared control-frame payload a decoder will buffer. Control
/// payloads are tens of bytes; anything bigger is a corrupt or hostile
/// length header and is rejected before allocation.
pub(crate) const MAX_CONTROL_FRAME_LEN: u32 = 64;

/// One epoch-tagged per-window ε′ announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantFrame {
    /// Allocation epoch: strictly increases with every grant the ledger
    /// issues, wrapping at `u64::MAX` (tested; a deployment would need
    /// ~10^19 windows to get there). A client keeps the highest-epoch
    /// grant it has seen.
    pub epoch: u64,
    /// Absolute window id the grant covers.
    pub window: u64,
    /// Granted per-report ε′ ceiling, nano-ε.
    pub granted_nano: u64,
}

impl GrantFrame {
    /// Grant-frame magic ("TrajShare Grant Broadcast").
    pub const MAGIC: [u8; 4] = *b"TSGB";
    /// Exact payload length (fixed-size frame).
    pub const PAYLOAD_LEN: usize = 4 + 8 + 8 + 8 + 4;

    /// Appends the length-prefixed frame to `out`.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(Self::PAYLOAD_LEN as u32).to_le_bytes());
        out.extend_from_slice(&self.payload());
    }

    /// The length-prefixed frame as a fresh vector.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + Self::PAYLOAD_LEN);
        self.encode_frame_into(&mut out);
        out
    }

    /// The frame payload (no length prefix) as a stack array — what
    /// `write_control_frame` scatter-gathers onto a socket without a
    /// heap allocation.
    pub fn payload(&self) -> [u8; Self::PAYLOAD_LEN] {
        let mut p = [0u8; Self::PAYLOAD_LEN];
        p[0..4].copy_from_slice(&Self::MAGIC);
        p[4..12].copy_from_slice(&self.epoch.to_le_bytes());
        p[12..20].copy_from_slice(&self.window.to_le_bytes());
        p[20..28].copy_from_slice(&self.granted_nano.to_le_bytes());
        let crc = crc32(&p[..28]);
        p[28..32].copy_from_slice(&crc.to_le_bytes());
        p
    }

    /// Decodes one payload (no length prefix). Validation order: magic,
    /// exact size, CRC — corruption never yields a frame.
    pub fn decode_payload(buf: &[u8]) -> Result<GrantFrame, DecodeError> {
        let f = open_control(buf, Self::MAGIC, Self::PAYLOAD_LEN)?;
        let u64_at = |i: usize| u64::from_le_bytes(f[i..i + 8].try_into().unwrap());
        Ok(GrantFrame {
            epoch: u64_at(0),
            window: u64_at(8),
            granted_nano: u64_at(16),
        })
    }
}

impl From<crate::budget::WindowGrant> for GrantFrame {
    /// A fresh allocation, as broadcast.
    fn from(g: crate::budget::WindowGrant) -> Self {
        GrantFrame {
            epoch: g.epoch,
            window: g.window,
            granted_nano: g.granted_nano,
        }
    }
}

impl From<crate::budget::GrantRecord> for GrantFrame {
    /// A standing decision, re-announced under its original epoch.
    fn from(r: crate::budget::GrantRecord) -> Self {
        GrantFrame {
            epoch: r.epoch,
            window: r.window,
            granted_nano: r.granted_nano,
        }
    }
}

/// The client hello that opens a grant session on an ingest connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HelloFrame {
    /// Option bits; unknown bits must be zero (a decoder refuses them,
    /// so the flag space can grow without silent misinterpretation).
    pub flags: u8,
}

impl HelloFrame {
    /// Hello magic ("TrajShare Grant Hello").
    pub const MAGIC: [u8; 4] = *b"TSGH";
    /// Exact payload length.
    pub const PAYLOAD_LEN: usize = 4 + 1 + 4;
    /// Flag bit: subscribe this connection to `TSGB` grant pushes (and
    /// switch its acks to framed `TSAK`).
    pub const SUBSCRIBE_GRANTS: u8 = 0b0000_0001;

    /// A subscribing hello.
    pub fn subscribe() -> Self {
        HelloFrame {
            flags: Self::SUBSCRIBE_GRANTS,
        }
    }

    /// Whether the hello subscribes to grant pushes.
    pub fn subscribes(&self) -> bool {
        self.flags & Self::SUBSCRIBE_GRANTS != 0
    }

    /// Appends the length-prefixed frame to `out`.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(Self::PAYLOAD_LEN as u32).to_le_bytes());
        let start = out.len();
        out.extend_from_slice(&Self::MAGIC);
        out.push(self.flags);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// The length-prefixed frame as a fresh vector.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + Self::PAYLOAD_LEN);
        self.encode_frame_into(&mut out);
        out
    }

    /// Decodes one payload (no length prefix); unknown flag bits are
    /// refused as inconsistent rather than silently ignored.
    pub fn decode_payload(buf: &[u8]) -> Result<HelloFrame, DecodeError> {
        let flags = open_control(buf, Self::MAGIC, Self::PAYLOAD_LEN)?[0];
        if flags & !HelloFrame::SUBSCRIBE_GRANTS != 0 {
            return Err(DecodeError::FrameMismatch);
        }
        Ok(HelloFrame { flags })
    }
}

/// Framed-ack magic ("TrajShare AcK").
pub(crate) const ACK_MAGIC: [u8; 4] = *b"TSAK";
/// Exact `TSAK` payload length.
pub const ACK_PAYLOAD_LEN: usize = 4 + 8 + 4;

/// Appends a length-prefixed framed cumulative ack to `out`.
pub fn encode_ack_frame_into(acked: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&(ACK_PAYLOAD_LEN as u32).to_le_bytes());
    out.extend_from_slice(&ack_payload(acked));
}

/// The `TSAK` payload for a cumulative ack as a stack array — the hot
/// ack path builds this and [`write_control_frame`]s it: no heap
/// allocation, one scatter-gather write.
pub(crate) fn ack_payload(acked: u64) -> [u8; ACK_PAYLOAD_LEN] {
    let mut p = [0u8; ACK_PAYLOAD_LEN];
    p[0..4].copy_from_slice(&ACK_MAGIC);
    p[4..12].copy_from_slice(&acked.to_le_bytes());
    let crc = crc32(&p[..12]);
    p[12..16].copy_from_slice(&crc.to_le_bytes());
    p
}

/// Writes one length-prefixed control frame (`TSAK`/`TSGB`) as a single
/// vectored write — the (length-prefix, payload) iovec pair, replacing
/// the assemble-then-`write_all` copy on every control-frame writer
/// (server acks, router client acks, grant broadcasts).
pub(crate) fn write_control_frame<W: std::io::Write + ?Sized>(
    w: &mut W,
    payload: &[u8],
) -> std::io::Result<()> {
    let prefix = (payload.len() as u32).to_le_bytes();
    let mut io = [
        std::io::IoSlice::new(&prefix),
        std::io::IoSlice::new(payload),
    ];
    trajshare_core::vio::write_all_vectored(w, &mut io)
}

/// Decodes one `TSAK` payload (no length prefix) into the cumulative
/// acked count.
pub fn decode_ack_payload(buf: &[u8]) -> Result<u64, DecodeError> {
    let f = open_control(buf, ACK_MAGIC, ACK_PAYLOAD_LEN)?;
    Ok(u64::from_le_bytes(f.try_into().unwrap()))
}

/// Opens one fixed-size control payload of `len` bytes, checking in
/// order: at least the 4 magic bytes, the magic, the exact length, the
/// tail CRC-32. Returns the fields between magic and CRC.
fn open_control(buf: &[u8], magic: [u8; 4], len: usize) -> Result<&[u8], DecodeError> {
    if buf.len() < 4 {
        return Err(DecodeError::Truncated { needed: 4 });
    }
    if buf[..4] != magic {
        return Err(DecodeError::BadMagic);
    }
    if buf.len() < len {
        return Err(DecodeError::Truncated { needed: len as u64 });
    }
    if buf.len() > len {
        return Err(DecodeError::TrailingBytes);
    }
    let (fields, crc) = buf.split_at(len - 4);
    if crc32(fields) != u32::from_le_bytes(crc.try_into().unwrap()) {
        return Err(DecodeError::BadCrc);
    }
    Ok(&fields[4..])
}

/// One server→client control frame on a grant session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlFrame {
    /// Cumulative durability ack (the framed `u64`).
    Ack(u64),
    /// An ε′ grant announcement.
    Grant(GrantFrame),
}

/// Incremental decoder for the framed server→client direction of a
/// grant session — the control-plane sibling of
/// [`crate::report::StreamDecoder`]. Feed raw socket bytes with
/// [`ControlDecoder::extend`], pull frames with
/// [`ControlDecoder::next_control`].
#[derive(Debug, Default)]
pub struct ControlDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl ControlDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete control frame, if buffered. `Ok(None)`
    /// means "feed more bytes"; any `Err` means the stream is corrupt
    /// and the connection must be dropped.
    pub fn next_control(&mut self) -> Result<Option<ControlFrame>, DecodeError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().unwrap());
        if len > MAX_CONTROL_FRAME_LEN {
            return Err(DecodeError::FrameTooLarge { len: len as u64 });
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &avail[4..total];
        let frame = if payload.starts_with(&GrantFrame::MAGIC) {
            ControlFrame::Grant(GrantFrame::decode_payload(payload).map_err(complete_frame_err)?)
        } else if payload.starts_with(&ACK_MAGIC) {
            ControlFrame::Ack(decode_ack_payload(payload).map_err(complete_frame_err)?)
        } else {
            return Err(DecodeError::BadMagic);
        };
        self.pos += total;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Within a *complete* frame, in-payload incompleteness or excess is
/// corruption, not "read more" — mirror `Report::decode_frame`.
fn complete_frame_err(e: DecodeError) -> DecodeError {
    match e {
        DecodeError::Truncated { .. } | DecodeError::TrailingBytes => DecodeError::FrameMismatch,
        e => e,
    }
}

/// The server-side fan-out point of the grant session: one current
/// grant plus the writer half of every subscribed connection.
///
/// Connection handlers register on hello (`TSGH` with the subscribe
/// flag) and the allocator (`ingestd`'s maintenance thread, or `routerd`
/// relaying the coordinator's decision) pushes each new grant with
/// [`GrantBoard::announce`]. Registration and announcement both happen
/// under the board lock, so a late joiner gets exactly one copy of the
/// current grant — never zero, never a duplicate from a racing
/// announce. Subscribers are held weakly: a handler dropping its writer
/// (connection closed) unregisters it implicitly, and a subscriber
/// whose socket errors on push is pruned on the spot.
///
/// Writers are `dyn Write` so the board lives here with the codec
/// rather than once per binary: the worker (`trajshare_service`) and
/// the router (`trajshare_cluster`) fan out to `TcpStream`s, tests to
/// `Vec<u8>`.
pub struct GrantBoard {
    inner: std::sync::Mutex<BoardInner>,
}

/// A subscriber handle: the shared, lockable writer half of one
/// grant-session connection. The connection's own handler writes its
/// `TSAK` acks through the same lock, so acks and pushed grants never
/// interleave mid-frame.
pub(crate) type GrantSubscriber = std::sync::Arc<std::sync::Mutex<dyn std::io::Write + Send>>;

struct BoardInner {
    current: Option<GrantFrame>,
    subs: Vec<std::sync::Weak<std::sync::Mutex<dyn std::io::Write + Send>>>,
}

impl GrantBoard {
    /// An empty board: no grant yet, no subscribers.
    pub fn new() -> Self {
        GrantBoard {
            inner: std::sync::Mutex::new(BoardInner {
                current: None,
                subs: Vec::new(),
            }),
        }
    }

    /// The latest announced grant, if any.
    pub fn current(&self) -> Option<GrantFrame> {
        self.inner.lock().unwrap().current
    }

    /// Registers a subscriber and immediately writes it the current
    /// grant (the late-joiner catch-up). Returns that grant. A write
    /// error here is left to surface on the connection's own path — the
    /// subscriber is registered regardless and will be pruned on the
    /// next failed push.
    pub fn subscribe(&self, sub: &GrantSubscriber) -> Option<GrantFrame> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(g) = inner.current {
            if let Ok(mut w) = sub.lock() {
                let _ = write_control_frame(&mut *w, &g.payload());
                let _ = w.flush();
            }
        }
        inner.subs.push(std::sync::Arc::downgrade(sub));
        inner.current
    }

    /// Installs `grant` as current and pushes it to every live
    /// subscriber, pruning the dead (dropped or erroring) ones. An
    /// identical re-announcement is a no-op, so callers may announce on
    /// every maintenance tick without re-flooding subscribers. Returns
    /// whether the grant was new, decided under the board lock, so
    /// concurrent announcers count each grant once.
    pub fn announce(&self, grant: GrantFrame) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if inner.current == Some(grant) {
            return false;
        }
        inner.current = Some(grant);
        let payload = grant.payload();
        inner.subs.retain(|weak| match weak.upgrade() {
            Some(sub) => match sub.lock() {
                Ok(mut w) => write_control_frame(&mut *w, &payload)
                    .and_then(|()| w.flush())
                    .is_ok(),
                Err(_) => false,
            },
            None => false,
        });
        true
    }

    /// How many subscribers are currently registered (live or not yet
    /// pruned).
    #[cfg(test)]
    fn subscriber_count(&self) -> usize {
        self.inner.lock().unwrap().subs.len()
    }
}

impl Default for GrantBoard {
    fn default() -> Self {
        GrantBoard::new()
    }
}

/// Why a `TSGH` hello could not upgrade its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionFault {
    /// A subscribing hello reached a front door that runs no grant
    /// session: the client would wait forever for a grant, so the
    /// connection is refused loudly (a protocol violation).
    NoGrantSession,
    /// The socket could not be cloned for the shared writer.
    Io,
}

/// The server→client half of one ingest connection, as both front doors
/// (`ingestd` and `routerd`) run it: raw cumulative `u64` acks until a
/// `TSGH` hello upgrades the connection, framed `TSAK` acks through the
/// writer the grant board pushes `TSGB` grants down afterwards.
#[derive(Default)]
pub struct ServerSession {
    /// `Some` once a hello upgraded the connection.
    framed: Option<GrantSubscriber>,
}

impl ServerSession {
    /// Applies a hello: from here the server→client direction is framed,
    /// and a subscribing hello also registers the connection on `board`
    /// — which writes it the current grant atomically, the late-joiner
    /// catch-up. A repeated hello is idempotent. Returns whether this
    /// call subscribed the connection.
    pub fn upgrade(
        &mut self,
        hello: &HelloFrame,
        stream: &std::net::TcpStream,
        board: Option<&GrantBoard>,
    ) -> Result<bool, SessionFault> {
        if self.framed.is_some() {
            return Ok(false);
        }
        if hello.subscribes() && board.is_none() {
            return Err(SessionFault::NoGrantSession);
        }
        let clone = stream.try_clone().map_err(|_| SessionFault::Io)?;
        // Bound how long a stalled subscriber can hold the grant board's
        // push loop (the fd is shared with `stream`, so this also bounds
        // ack writes — fine, they are tens of bytes).
        let _ = clone.set_write_timeout(Some(std::time::Duration::from_secs(1)));
        let writer: GrantSubscriber = std::sync::Arc::new(std::sync::Mutex::new(clone));
        let subscribed = match board {
            Some(board) if hello.subscribes() => {
                board.subscribe(&writer);
                true
            }
            _ => false,
        };
        self.framed = Some(writer);
        Ok(subscribed)
    }

    /// Writes one cumulative ack; `false` when the write failed. Framed
    /// acks go through the shared writer's lock, so an ack and a pushed
    /// grant never interleave mid-frame, and leave as a stack payload in
    /// one vectored write.
    pub fn ack(&self, stream: &mut std::net::TcpStream, acked: u64) -> bool {
        use std::io::Write;
        match &self.framed {
            Some(writer) => match writer.lock() {
                Ok(mut w) => write_control_frame(&mut *w, &ack_payload(acked))
                    .and_then(|()| w.flush())
                    .is_ok(),
                Err(_) => false,
            },
            None => stream.write_all(&acked.to_le_bytes()).is_ok(),
        }
    }
}

/// Wakes a thread blocked in `accept` on the listener bound to `addr`
/// with a throwaway connection, so it can observe its stop flag (a
/// wildcard bind is reached over loopback).
pub fn wake_acceptor(mut addr: std::net::SocketAddr) {
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grant(epoch: u64, window: u64, granted_nano: u64) -> GrantFrame {
        GrantFrame {
            epoch,
            window,
            granted_nano,
        }
    }

    #[test]
    fn grant_roundtrip_including_epoch_wraparound() {
        for g in [
            grant(0, 0, 0),
            grant(1, 7, 250_000_000),
            grant(u64::MAX, u64::MAX, u64::MAX),
            // Epoch wraparound: MAX and MAX+1 (=0) both survive the wire.
            grant(u64::MAX.wrapping_add(1), 3, 42),
        ] {
            let frame = g.encode_frame();
            assert_eq!(frame.len(), 4 + GrantFrame::PAYLOAD_LEN);
            let back = GrantFrame::decode_payload(&frame[4..]).unwrap();
            assert_eq!(back, g);
        }
    }

    #[test]
    fn hello_and_ack_roundtrip() {
        let hello = HelloFrame::subscribe();
        assert!(hello.subscribes());
        let frame = hello.encode_frame();
        assert_eq!(HelloFrame::decode_payload(&frame[4..]).unwrap(), hello);
        assert!(!HelloFrame::default().subscribes());
        for acked in [0u64, 1, 123_456, u64::MAX] {
            let mut out = Vec::new();
            encode_ack_frame_into(acked, &mut out);
            assert_eq!(decode_ack_payload(&out[4..]).unwrap(), acked);
        }
    }

    #[test]
    fn stack_payloads_match_the_vec_encoders() {
        for acked in [0u64, 1, 123_456, u64::MAX] {
            let mut want = Vec::new();
            encode_ack_frame_into(acked, &mut want);
            let payload = ack_payload(acked);
            assert_eq!(&want[4..], &payload[..]);
            let mut got = Vec::new();
            write_control_frame(&mut got, &payload).unwrap();
            assert_eq!(got, want);
        }
        let g = grant(3, 9, 250_000_000);
        let mut want = Vec::new();
        g.encode_frame_into(&mut want);
        let payload = g.payload();
        assert_eq!(&want[4..], &payload[..]);
        let mut got = Vec::new();
        write_control_frame(&mut got, &payload).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn board_catches_up_late_joiners_and_prunes_dead_subscribers() {
        use std::sync::{Arc, Mutex};

        let board = GrantBoard::new();
        assert_eq!(board.current(), None);

        // Early joiner: nothing to catch up on.
        let early: GrantSubscriber = Arc::new(Mutex::new(Vec::new()));
        assert_eq!(board.subscribe(&early), None);

        let g1 = grant(1, 0, 500_000_000);
        assert!(board.announce(g1), "a new grant is counted");
        // Re-announcing the identical grant is a no-op (no duplicate push).
        assert!(!board.announce(g1), "a repeat is not");

        // Late joiner: gets g1 immediately on subscribe.
        let late: GrantSubscriber = Arc::new(Mutex::new(Vec::new()));
        assert_eq!(board.subscribe(&late), Some(g1));

        board.announce(grant(2, 1, 250_000_000));
        assert_eq!(board.subscriber_count(), 2);

        // Dead subscriber pruning: drop `late`, announce, count shrinks.
        drop(late);
        board.announce(grant(3, 2, 125_000_000));
        assert_eq!(board.subscriber_count(), 1);
    }

    #[test]
    fn board_pushes_decodable_frames_in_order() {
        use std::io::Write;
        use std::sync::{Arc, Mutex};

        // A writer that tees into a shared buffer we keep a concrete
        // handle to, so the pushed bytes can be decoded back.
        struct Tee(Arc<Mutex<Vec<u8>>>);
        impl Write for Tee {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let board = GrantBoard::new();
        let g1 = grant(1, 0, 500_000_000);
        board.announce(g1);

        let bytes = Arc::new(Mutex::new(Vec::new()));
        let sub: GrantSubscriber = Arc::new(Mutex::new(Tee(bytes.clone())));
        assert_eq!(board.subscribe(&sub), Some(g1));
        let g2 = grant(2, 1, 250_000_000);
        board.announce(g2);

        let mut dec = ControlDecoder::new();
        dec.extend(&bytes.lock().unwrap());
        assert_eq!(
            dec.next_control().unwrap(),
            Some(ControlFrame::Grant(g1)),
            "late-joiner catch-up comes first"
        );
        assert_eq!(dec.next_control().unwrap(), Some(ControlFrame::Grant(g2)));
        assert_eq!(dec.next_control().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn truncation_at_every_length_and_crc_flip_rejected() {
        let g = grant(9, 12, 500_000_000);
        let payload = &g.encode_frame()[4..];
        for cut in 0..payload.len() {
            assert!(
                GrantFrame::decode_payload(&payload[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // Every single-byte corruption is rejected (flips in the CRC
        // field itself included).
        for i in 0..payload.len() {
            let mut bad = payload.to_vec();
            bad[i] ^= 0x01;
            assert!(
                GrantFrame::decode_payload(&bad).is_err(),
                "flip at {i} must not decode"
            );
        }
        // Excess bytes after a valid payload are trailing garbage.
        let mut long = payload.to_vec();
        long.push(0);
        assert_eq!(
            GrantFrame::decode_payload(&long),
            Err(DecodeError::TrailingBytes)
        );
        // Same discipline for hello and ack.
        let hello = HelloFrame::subscribe().encode_frame();
        for cut in 0..hello.len() - 4 {
            assert!(HelloFrame::decode_payload(&hello[4..4 + cut]).is_err());
        }
        let mut bad_hello = hello[4..].to_vec();
        bad_hello[4] = 0xFF; // unknown flag bits
        let crc = crate::snapshot::crc32(&bad_hello[..5]);
        bad_hello[5..9].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            HelloFrame::decode_payload(&bad_hello),
            Err(DecodeError::FrameMismatch),
            "unknown flags refused even with a recomputed CRC"
        );
        let mut ack = Vec::new();
        encode_ack_frame_into(77, &mut ack);
        for i in 4..ack.len() {
            let mut bad = ack[4..].to_vec();
            bad[i - 4] ^= 0x80;
            assert!(decode_ack_payload(&bad).is_err(), "ack flip at {i}");
        }
    }

    #[test]
    fn control_decoder_interleaves_acks_and_grants_across_fragments() {
        let mut wire = Vec::new();
        encode_ack_frame_into(10, &mut wire);
        grant(1, 0, 111).encode_frame_into(&mut wire);
        encode_ack_frame_into(20, &mut wire);
        grant(2, 1, 222).encode_frame_into(&mut wire);

        // Feed one byte at a time: reassembly must be exact.
        let mut dec = ControlDecoder::new();
        let mut got = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            while let Some(f) = dec.next_control().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(
            got,
            vec![
                ControlFrame::Ack(10),
                ControlFrame::Grant(grant(1, 0, 111)),
                ControlFrame::Ack(20),
                ControlFrame::Grant(grant(2, 1, 222)),
            ]
        );
        assert_eq!(dec.pending(), 0);

        // An oversized declared length is rejected before buffering.
        let mut dec = ControlDecoder::new();
        dec.extend(&(MAX_CONTROL_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(
            dec.next_control(),
            Err(DecodeError::FrameTooLarge { .. })
        ));

        // A complete frame whose payload length disagrees with its
        // format is corruption, not incompleteness.
        let mut dec = ControlDecoder::new();
        let mut short = Vec::new();
        short.extend_from_slice(&8u32.to_le_bytes());
        short.extend_from_slice(&GrantFrame::MAGIC);
        short.extend_from_slice(&[0; 4]);
        dec.extend(&short);
        assert_eq!(dec.next_control(), Err(DecodeError::FrameMismatch));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Arbitrary bytes never panic any grant-plane decoder, and only
        // a bit-exact frame decodes (magic-spliced corpus, mirroring the
        // TSR4 fuzz suite).
        #[test]
        fn decoders_never_panic_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..128),
        ) {
            let _ = GrantFrame::decode_payload(&bytes);
            let _ = HelloFrame::decode_payload(&bytes);
            let _ = decode_ack_payload(&bytes);
            let mut dec = ControlDecoder::new();
            dec.extend(&bytes);
            while let Ok(Some(_)) = dec.next_control() {}
            // Adversarial prefix splice: each valid magic, random rest.
            for magic in [GrantFrame::MAGIC, HelloFrame::MAGIC, ACK_MAGIC] {
                let mut spliced = magic.to_vec();
                spliced.extend_from_slice(&bytes);
                let _ = GrantFrame::decode_payload(&spliced);
                let _ = HelloFrame::decode_payload(&spliced);
                let _ = decode_ack_payload(&spliced);
                let mut dec = ControlDecoder::new();
                dec.extend(&spliced);
                while let Ok(Some(_)) = dec.next_control() {}
            }
        }

        // Grant roundtrip over the full u64 space (epoch wraparound
        // values included: the sweep touches both ends of the range).
        #[test]
        fn grant_roundtrip_property(
            epoch in 0u64..=u64::MAX,
            window in 0u64..=u64::MAX,
            granted in 0u64..=u64::MAX,
        ) {
            let g = grant(epoch, window, granted);
            let frame = g.encode_frame();
            prop_assert_eq!(GrantFrame::decode_payload(&frame[4..]).unwrap(), g);
            // And through the stream decoder, fragmented.
            let mut dec = ControlDecoder::new();
            dec.extend(&frame[..5]);
            prop_assert_eq!(dec.next_control().unwrap(), None);
            dec.extend(&frame[5..]);
            prop_assert_eq!(
                dec.next_control().unwrap(),
                Some(ControlFrame::Grant(g))
            );
        }
    }
}
