//! The client→server message of the aggregation pipeline.
//!
//! A [`Report`] is the compact, serializable form of one user's perturbed
//! output: the region-level observations extracted from the NGram
//! mechanism's window multiset `Z` ([`Report::from_perturbed`]) or from a
//! single continuous-sharing draw ([`Report::from_region_point`]). It
//! carries *only* ε-LDP-protected data plus public mechanism parameters
//! (ε′ and |τ| — the mechanism preserves trajectory length, so |τ| is part
//! of the released message in the paper's setting too) and, since wire v3,
//! a public report timestamp used as the streaming-window key.

use serde::Serialize;
use trajshare_core::{PerturbedTrajectory, RegionId};

/// One user's region-level upload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// Client-declared report timestamp in public time units (the
    /// streaming window key; batch uploads leave it 0). Like ε′ and |τ|
    /// this is released metadata, not protected data: in the continuous
    /// setting each timestamp's report is itself an independent ε-LDP
    /// message, and *when* a device reports is observable by the
    /// collector anyway.
    pub t: u64,
    /// Per-window EM budget ε′ the client used (public parameter; the
    /// server needs it to build the debiasing channel matrix).
    pub eps_prime: f64,
    /// Trajectory length |τ| (1 for continuous single-point reports).
    pub len: u16,
    /// `(position, region)` observations — one per window element, so each
    /// position appears `n` times for an n-gram client.
    pub unigrams: Vec<(u16, u32)>,
    /// The subset of observations coming from *1-gram* windows (the
    /// supplementary windows of Figure 3). These are draws from the exact
    /// unigram EM channel — the only observations the debiasing matrix
    /// models without approximation — so start/end/occupancy estimation
    /// uses them exclusively.
    pub exact: Vec<(u16, u32)>,
    /// Within-window consecutive region transitions `(tail, head)`.
    pub transitions: Vec<(u32, u32)>,
}

/// Why decoding a serialized report failed.
///
/// The variants deliberately separate *recoverable* incompleteness from
/// *fatal* corruption: a streaming decoder that hits
/// [`DecodeError::Truncated`] should wait for more bytes, while every
/// other variant means the input can never become a valid report and the
/// connection (or file tail) should be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer holds a prefix of a (possibly) valid encoding: at least
    /// `needed` total bytes are required before decoding can succeed.
    /// `needed` is a lower bound — it grows once the fixed header is
    /// available and the declared counts are known. Kept as `u64` because
    /// hostile headers can declare sizes that overflow `usize` on 32-bit
    /// targets; the value must survive un-truncated so callers can reject
    /// it against their frame limit.
    Truncated {
        /// Total bytes (from the start of the buffer) needed to proceed.
        needed: u64,
    },
    /// Magic bytes do not match [`Report::MAGIC`] (wrong protocol or an
    /// unsupported wire-format version).
    BadMagic,
    /// The buffer is longer than the encoding it starts with: the declared
    /// counts were consistent but bytes follow the last field.
    TrailingBytes,
    /// A frame header declared a length above [`MAX_FRAME_LEN`]; reading
    /// on would let a hostile client make the server buffer arbitrarily.
    FrameTooLarge {
        /// The declared frame payload length.
        len: u64,
    },
    /// A frame's declared payload length disagrees with the report's own
    /// declared counts (payload too short or trailing garbage inside the
    /// frame).
    FrameMismatch,
    /// A `TSR4` batch frame's trailing CRC-32 does not match its payload
    /// (see [`crate::batch`]); single-report frames carry no checksum.
    BadCrc,
}

impl DecodeError {
    /// True when the error means "wait for more bytes" rather than
    /// "corrupt input" — the streaming-decoder dispatch test.
    #[inline]
    pub fn is_incomplete(&self) -> bool {
        matches!(self, DecodeError::Truncated { .. })
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed } => {
                write!(f, "report buffer truncated ({needed} total bytes needed)")
            }
            DecodeError::BadMagic => write!(f, "report magic bytes invalid"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after report"),
            DecodeError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds MAX_FRAME_LEN")
            }
            DecodeError::FrameMismatch => {
                write!(f, "frame length disagrees with report's declared counts")
            }
            DecodeError::BadCrc => write!(f, "batch frame CRC-32 mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on a framed report's payload (16 MiB). A genuine report is
/// bounded by `|τ| ≤ u16::MAX` positions (a few hundred KB); anything near
/// this limit is hostile, and the limit keeps a length-prefix of
/// `u32::MAX` from turning into a 4 GiB buffering obligation.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Rounds ε′ once onto the nano-ε integer grid used on the wire and in
/// the accountant. Doing this at extraction (rather than per ingestion)
/// means every later `ε ↔ nano-ε` conversion is exact, so the budget
/// accountant cannot drift however many times a report is re-encoded,
/// shipped, logged, replayed, and re-ingested.
#[inline]
fn quantize_eps(eps: f64) -> f64 {
    eps_to_nano(eps) as f64 / 1e9
}

// The single-rounding ε → nano-ε conversion lives next to the
// streaming-budget accountant now that both share the grid.
use crate::budget::eps_to_nano;

impl Report {
    /// Wire-format magic ("TrajShare Report v3": a `u64` report
    /// timestamp — the streaming-window key — then nano-ε, |τ| and the
    /// three observation lists). The only single-report version: `TSR1`
    /// and `TSR2` buffers are rejected with [`DecodeError::BadMagic`].
    pub const MAGIC: [u8; 4] = *b"TSR3";

    /// Fixed header size: magic + timestamp + nano-ε + |τ| + three
    /// counts.
    pub const HEADER_LEN: usize = 4 + 8 + 8 + 2 + 4 + 4 + 4;

    /// Extracts the aggregation observations from a stage-1 mechanism
    /// output (see `NGramMechanism::perturb_raw`).
    pub fn from_perturbed(p: &PerturbedTrajectory) -> Self {
        let mut unigrams = Vec::new();
        let mut exact = Vec::new();
        let mut transitions = Vec::new();
        for w in &p.windows {
            for (off, &r) in w.regions.iter().enumerate() {
                unigrams.push(((w.window.a + off) as u16, r.0));
            }
            if w.regions.len() == 1 {
                exact.push((w.window.a as u16, w.regions[0].0));
            }
            for pair in w.regions.windows(2) {
                transitions.push((pair[0].0, pair[1].0));
            }
        }
        Report {
            t: 0,
            eps_prime: quantize_eps(p.eps_prime),
            len: p.len as u16,
            unigrams,
            exact,
            transitions,
        }
    }

    /// Wraps a continuous single-point region draw (see
    /// `ContinuousSharer::share_region`).
    pub fn from_region_point(region: RegionId, eps: f64) -> Self {
        Report {
            t: 0,
            eps_prime: quantize_eps(eps),
            len: 1,
            unigrams: vec![(0, region.0)],
            exact: vec![(0, region.0)],
            transitions: Vec::new(),
        }
    }

    /// Stamps the report with its (public) report timestamp — the
    /// streaming-window key the windowed aggregator buckets by.
    pub fn at(mut self, t: u64) -> Self {
        self.t = t;
        self
    }

    /// ε′ as integer nano-ε — the exact value carried on the wire and
    /// summed by the budget accountant.
    #[inline]
    pub fn eps_nano(&self) -> u64 {
        eps_to_nano(self.eps_prime)
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        Self::HEADER_LEN
            + self.unigrams.len() * 6
            + self.exact.len() * 6
            + self.transitions.len() * 8
    }

    /// Compact little-endian binary encoding (always the v3 layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the [`Report::encode`] bytes to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&Self::MAGIC);
        out.extend_from_slice(&self.t.to_le_bytes());
        out.extend_from_slice(&self.eps_nano().to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.unigrams.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.exact.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.transitions.len() as u32).to_le_bytes());
        for &(pos, region) in self.unigrams.iter().chain(&self.exact) {
            out.extend_from_slice(&pos.to_le_bytes());
            out.extend_from_slice(&region.to_le_bytes());
        }
        for &(a, b) in &self.transitions {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
    }

    /// The length-prefixed wire frame the ingestion service speaks:
    /// `u32 LE payload length` followed by [`Report::encode`] bytes.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.encoded_len());
        self.encode_frame_into(&mut out);
        out
    }

    /// Appends the length-prefixed frame to `out` (client batching):
    /// encoded in place, so a reused buffer sees no allocation.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        let len = self.encoded_len();
        out.reserve(4 + len);
        out.extend_from_slice(&(len as u32).to_le_bytes());
        self.encode_into(out);
    }

    /// Decodes [`Report::encode`] output. The buffer must hold exactly one
    /// report: a shorter buffer yields [`DecodeError::Truncated`] (with
    /// the total size needed), a longer one [`DecodeError::TrailingBytes`].
    ///
    /// Safe on hostile bytes: all size arithmetic is done in `u64` (the
    /// worst-case declared size ≈ 2³⁶ cannot overflow), and nothing is
    /// allocated until the declared counts have been proven consistent
    /// with the buffer length — so allocation is bounded by the input
    /// size, not by attacker-chosen headers.
    pub fn decode(buf: &[u8]) -> Result<Report, DecodeError> {
        let h = ReportHeader::validate(buf)?;
        // Counts are now bounded by buf.len(), so the allocations below
        // cannot exceed the input size.
        let mut off = Self::HEADER_LEN;
        let read_pairs = |count: usize, off: &mut usize| {
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                let pos = u16::from_le_bytes(buf[*off..*off + 2].try_into().unwrap());
                let region = u32::from_le_bytes(buf[*off + 2..*off + 6].try_into().unwrap());
                v.push((pos, region));
                *off += 6;
            }
            v
        };
        let unigrams = read_pairs(h.n_uni, &mut off);
        let exact = read_pairs(h.n_exact, &mut off);
        let mut transitions = Vec::with_capacity(h.n_trans);
        for _ in 0..h.n_trans {
            let a = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
            let b = u32::from_le_bytes(buf[off + 4..off + 8].try_into().unwrap());
            transitions.push((a, b));
            off += 8;
        }
        Ok(Report {
            t: h.t,
            eps_prime: h.eps_nano as f64 / 1e9,
            len: h.len,
            unigrams,
            exact,
            transitions,
        })
    }

    /// Consumes exactly one length-prefixed frame (see
    /// [`Report::encode_frame`]) from the front of `buf`, returning the
    /// report and the number of bytes consumed (`4 + payload length`).
    ///
    /// This is the streaming entry point: [`DecodeError::Truncated`]
    /// means "read more bytes and retry", every other error means the
    /// stream is corrupt and must be dropped. A declared payload above
    /// [`MAX_FRAME_LEN`] is rejected *before* the caller buffers it.
    pub fn decode_frame(buf: &[u8]) -> Result<(Report, usize), DecodeError> {
        if buf.len() < 4 {
            return Err(DecodeError::Truncated { needed: 4 });
        }
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(DecodeError::FrameTooLarge { len: len as u64 });
        }
        let total = 4 + len as usize;
        if buf.len() < total {
            return Err(DecodeError::Truncated {
                needed: total as u64,
            });
        }
        match Report::decode(&buf[4..total]) {
            Ok(report) => Ok((report, total)),
            Err(DecodeError::BadMagic) => Err(DecodeError::BadMagic),
            // The frame is complete (we have all `len` bytes), so a
            // payload that claims to need more — or fewer — bytes than
            // the frame carries is corruption, not incompleteness.
            Err(DecodeError::Truncated { .. }) | Err(DecodeError::TrailingBytes) => {
                Err(DecodeError::FrameMismatch)
            }
            Err(e) => Err(e),
        }
    }
}

/// The fixed header of a `TSR3` payload whose declared counts have been
/// proven to match the buffer length exactly — the one validator behind
/// both decoders of the format, [`Report::decode`] (row form) and
/// [`crate::batch::ReportBatch::decode_payload_into`] (a batch of one),
/// so the two cannot disagree on what a valid payload is.
pub(crate) struct ReportHeader {
    pub t: u64,
    pub eps_nano: u64,
    pub len: u16,
    pub n_uni: usize,
    pub n_exact: usize,
    pub n_trans: usize,
}

impl ReportHeader {
    pub(crate) fn validate(buf: &[u8]) -> Result<ReportHeader, DecodeError> {
        let truncated = DecodeError::Truncated {
            needed: Report::HEADER_LEN as u64,
        };
        if buf.len() < 4 {
            return Err(truncated);
        }
        if buf[0..4] != Report::MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if buf.len() < Report::HEADER_LEN {
            return Err(truncated);
        }
        let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let h = ReportHeader {
            t: u64::from_le_bytes(buf[4..12].try_into().unwrap()),
            eps_nano: u64::from_le_bytes(buf[12..20].try_into().unwrap()),
            len: u16::from_le_bytes(buf[20..22].try_into().unwrap()),
            n_uni: u32_at(22),
            n_exact: u32_at(26),
            n_trans: u32_at(30),
        };
        let expect = Report::HEADER_LEN as u64
            + (h.n_uni as u64 + h.n_exact as u64) * 6
            + h.n_trans as u64 * 8;
        match (buf.len() as u64).cmp(&expect) {
            std::cmp::Ordering::Less => Err(DecodeError::Truncated { needed: expect }),
            std::cmp::Ordering::Greater => Err(DecodeError::TrailingBytes),
            std::cmp::Ordering::Equal => Ok(h),
        }
    }
}

/// One complete wire frame pulled off a connection by
/// [`StreamDecoder::next_wire_frame`]. The stream decoder only checks
/// framing and magic; the one full validation of a report frame (sizes,
/// CRC, column sums) happens in
/// [`crate::batch::ReportBatch::decode_payload_into`], which decodes
/// either kind into columns.
#[derive(Debug)]
pub enum WireFrame<'a> {
    /// A frame of reports — one `TSR3` report or a `TSR4` batch —
    /// framing-checked but not yet validated.
    Reports {
        /// The frame payload, without the length prefix (what a
        /// write-ahead log persists verbatim).
        payload: &'a [u8],
        /// Whether this is a `TSR4` batch frame. The one thing the kind
        /// still decides: a connection gets mid-stream acks from its
        /// first batch frame on.
        batch: bool,
    },
    /// A `TSGH` grant-session hello (fully validated here — it is nine
    /// bytes). A subscribing hello switches the connection's
    /// server→client direction to framed control frames
    /// ([`crate::grant`]).
    Hello {
        /// The validated hello.
        hello: crate::grant::HelloFrame,
    },
}

/// Incremental decoder over a length-prefixed frame stream: feed it raw
/// socket (or log) bytes with [`StreamDecoder::extend`] — or let it read
/// the socket itself with [`StreamDecoder::read_from`], which lands
/// whole socket reads directly in the decode buffer with no
/// intermediate stack-chunk copy. Pull complete reports with
/// [`StreamDecoder::next_report`] (single-report streams) or mixed
/// single/batch frames with [`StreamDecoder::next_wire_frame`].
/// Consumed bytes are compacted away lazily, so the buffer stays
/// proportional to one frame plus one read chunk.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// Working storage; only `buf[pos..filled]` is meaningful. The
    /// vector's *length* is the high-water working size and never
    /// shrinks, so [`StreamDecoder::read_from`] re-zeroes nothing on the
    /// steady state — it just hands `buf[filled..]` to the socket.
    buf: Vec<u8>,
    filled: usize,
    pos: usize,
}

impl StreamDecoder {
    /// Read granularity of [`StreamDecoder::read_from`]: the buffer
    /// always offers the socket at least this much spare room.
    pub const READ_CHUNK: usize = 256 * 1024;

    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the unconsumed tail to the front of the buffer.
    fn compact(&mut self) {
        self.buf.copy_within(self.pos..self.filled, 0);
        self.filled -= self.pos;
        self.pos = 0;
    }

    /// Appends freshly read bytes to the pending buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 && (self.pos >= self.filled || self.pos >= 64 * 1024) {
            self.compact();
        }
        let end = self.filled + bytes.len();
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        self.buf[self.filled..end].copy_from_slice(bytes);
        self.filled = end;
    }

    /// Reads once from `r` straight into the decode buffer and returns
    /// the byte count (0 = EOF) — the zero-intermediate-copy ingest
    /// read: the socket writes where the decoder parses. Offers `r` all
    /// spare buffered capacity, at least [`StreamDecoder::READ_CHUNK`].
    pub fn read_from<R: std::io::Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        if self.pos > 0 {
            self.compact();
        }
        let want = self.filled + Self::READ_CHUNK;
        if self.buf.len() < want {
            // One-time zero-fill per high-water mark; steady-state calls
            // skip this entirely because `buf.len()` never shrinks.
            self.buf.resize(want, 0);
        }
        let n = r.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Decodes the next complete frame, if one is buffered, returning the
    /// report together with its raw payload bytes (what a write-ahead log
    /// wants to persist verbatim).
    ///
    /// `Ok(Some(_))` — a frame was consumed; call again, more may be
    /// buffered. `Ok(None)` — the buffer holds only a partial frame; feed
    /// more bytes. `Err(_)` — the stream is corrupt (the decoder is left
    /// positioned at the bad frame; the caller should drop the stream).
    pub fn next_frame(&mut self) -> Result<Option<(Report, &[u8])>, DecodeError> {
        match Report::decode_frame(&self.buf[self.pos..self.filled]) {
            Ok((report, used)) => {
                let (start, end) = (self.pos + 4, self.pos + used);
                self.pos += used;
                Ok(Some((report, &self.buf[start..end])))
            }
            Err(e) if e.is_incomplete() => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// [`StreamDecoder::next_frame`] without the payload bytes.
    pub fn next_report(&mut self) -> Result<Option<Report>, DecodeError> {
        self.next_frame().map(|f| f.map(|(report, _)| report))
    }

    /// Pulls the next complete frame of *any* kind: a report frame
    /// (`TSR3` or `TSR4`, returned as raw payload for the caller's
    /// scratch [`crate::batch::ReportBatch`] — an unknown magic fails
    /// there) or a `TSGH` hello. Same contract as
    /// [`StreamDecoder::next_frame`] otherwise.
    pub fn next_wire_frame(&mut self) -> Result<Option<WireFrame<'_>>, DecodeError> {
        let avail = &self.buf[self.pos..self.filled];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(DecodeError::FrameTooLarge { len: len as u64 });
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &self.buf[self.pos + 4..self.pos + total];
        if payload.starts_with(&crate::grant::HelloFrame::MAGIC) {
            // Hellos are tiny and fixed-size: validate in place. Within
            // a complete frame, wrong-size payloads are corruption.
            let hello = crate::grant::HelloFrame::decode_payload(payload).map_err(|e| match e {
                DecodeError::Truncated { .. } | DecodeError::TrailingBytes => {
                    DecodeError::FrameMismatch
                }
                e => e,
            })?;
            self.pos += total;
            return Ok(Some(WireFrame::Hello { hello }));
        }
        self.pos += total;
        Ok(Some(WireFrame::Reports {
            payload,
            batch: payload.starts_with(&crate::batch::ReportBatch::MAGIC),
        }))
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending(&self) -> usize {
        self.filled - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajshare_core::{MechanismConfig, NGramMechanism};
    use trajshare_geo::{DistanceMetric, GeoPoint};
    use trajshare_hierarchy::builders::campus;
    use trajshare_model::{Dataset, Poi, PoiId, TimeDomain, Trajectory};

    fn dataset() -> Dataset {
        let h = campus();
        let leaves = h.leaves();
        let origin = GeoPoint::new(40.7, -74.0);
        let pois: Vec<Poi> = (0..60)
            .map(|i| {
                let loc = origin.offset_m((i % 6) as f64 * 400.0, (i / 6) as f64 * 400.0);
                Poi::new(
                    PoiId(i as u32),
                    format!("p{i}"),
                    loc,
                    leaves[i as usize % leaves.len()],
                )
            })
            .collect();
        Dataset::new(
            pois,
            h,
            TimeDomain::new(10),
            Some(8.0),
            DistanceMetric::Haversine,
        )
    }

    #[test]
    fn extraction_counts_match_window_schedule() {
        let ds = dataset();
        let mech = NGramMechanism::build(&ds, &MechanismConfig::default());
        let traj = Trajectory::from_pairs(&[(0, 60), (7, 62), (14, 65), (21, 68)]);
        let raw = mech.perturb_raw(&traj, &mut StdRng::seed_from_u64(1));
        let report = Report::from_perturbed(&raw);
        // n = 2, |τ| = 4: 5 windows — 3 bigrams + 2 unigrams = 8 elements,
        // and one transition per bigram window.
        assert_eq!(report.len, 4);
        assert_eq!(report.unigrams.len(), 8);
        assert_eq!(report.transitions.len(), 3);
        // Every position in range, covered exactly n = 2 times.
        let mut cover = [0usize; 4];
        for &(pos, _) in &report.unigrams {
            cover[pos as usize] += 1;
        }
        assert_eq!(cover, [2, 2, 2, 2]);
        // Exactly the two supplementary 1-gram windows: positions 0 and 3.
        let mut exact_pos: Vec<u16> = report.exact.iter().map(|&(p, _)| p).collect();
        exact_pos.sort_unstable();
        assert_eq!(exact_pos, vec![0, 3]);
        // ε′ is quantized once onto the nano-ε grid at extraction.
        assert!((report.eps_prime - mech.eps_prime(4)).abs() < 1e-9);
        assert_eq!(report.eps_nano(), (mech.eps_prime(4) * 1e9).round() as u64);
    }

    #[test]
    fn perturb_raw_is_deterministic_and_matches_budget() {
        let ds = dataset();
        let mech = NGramMechanism::build(&ds, &MechanismConfig::default());
        let traj = Trajectory::from_pairs(&[(0, 60), (7, 62), (14, 65)]);
        let a = Report::from_perturbed(&mech.perturb_raw(&traj, &mut StdRng::seed_from_u64(9)));
        let b = Report::from_perturbed(&mech.perturb_raw(&traj, &mut StdRng::seed_from_u64(9)));
        assert_eq!(a, b);
    }

    #[test]
    fn codec_roundtrip() {
        let r = Report {
            t: 86_400,
            eps_prime: 0.625,
            len: 3,
            unigrams: vec![(0, 5), (1, 2), (2, 9)],
            exact: vec![(0, 5), (2, 9)],
            transitions: vec![(5, 2), (2, 9)],
        };
        let buf = r.encode();
        assert_eq!(buf.len(), r.encoded_len());
        assert_eq!(Report::decode(&buf).unwrap(), r);
    }

    #[test]
    fn decode_rejects_corruption() {
        let r = Report::from_region_point(RegionId(3), 1.0);
        let buf = r.encode();
        assert_eq!(
            Report::decode(&buf[..10]),
            Err(DecodeError::Truncated {
                needed: Report::HEADER_LEN as u64
            })
        );
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert_eq!(Report::decode(&bad_magic), Err(DecodeError::BadMagic));
        bad_magic[..4].copy_from_slice(b"TSR2");
        assert_eq!(Report::decode(&bad_magic), Err(DecodeError::BadMagic));
        // One byte short of the declared counts: incomplete, not garbage —
        // and the error names the exact size needed.
        let mut short = buf.clone();
        short.pop();
        assert_eq!(
            Report::decode(&short),
            Err(DecodeError::Truncated {
                needed: buf.len() as u64
            })
        );
        // One byte past the declared counts: trailing garbage.
        let mut long = buf.clone();
        long.push(0);
        assert_eq!(Report::decode(&long), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn every_strict_prefix_is_truncated_never_a_panic() {
        let r = Report {
            t: 3,
            eps_prime: 1.5,
            len: 4,
            unigrams: vec![(0, 1), (1, 2), (2, 3), (3, 1)],
            exact: vec![(0, 1), (3, 1)],
            transitions: vec![(1, 2), (2, 3)],
        };
        let buf = r.encode();
        for i in 0..buf.len() {
            match Report::decode(&buf[..i]) {
                Err(DecodeError::Truncated { needed }) => {
                    assert!(needed as usize > i, "prefix {i}: needed {needed}")
                }
                other => panic!("prefix {i}: expected Truncated, got {other:?}"),
            }
        }
        // Frames behave the same way through the streaming entry point.
        let frame = r.encode_frame();
        for i in 0..frame.len() {
            assert!(
                Report::decode_frame(&frame[..i])
                    .unwrap_err()
                    .is_incomplete(),
                "frame prefix {i}"
            );
        }
        assert_eq!(Report::decode_frame(&frame).unwrap(), (r, frame.len()));
    }

    #[test]
    fn hostile_counts_cannot_overflow_or_allocate() {
        // Header declaring u32::MAX of everything: expected size ≈ 2³⁶
        // must be computed without overflow and reported as Truncated —
        // with no allocation proportional to the counts.
        let mut evil = Vec::new();
        evil.extend_from_slice(&Report::MAGIC);
        evil.extend_from_slice(&0u64.to_le_bytes()); // timestamp
        evil.extend_from_slice(&1_000_000_000u64.to_le_bytes());
        evil.extend_from_slice(&3u16.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        let expected =
            Report::HEADER_LEN as u64 + 2 * (u32::MAX as u64) * 6 + (u32::MAX as u64) * 8;
        assert_eq!(
            Report::decode(&evil),
            Err(DecodeError::Truncated { needed: expected })
        );
        // Padding the buffer to "match" a smaller forged count mix must
        // yield TrailingBytes / Truncated, never a slice panic.
        evil.extend_from_slice(&[0u8; 64]);
        assert!(Report::decode(&evil).unwrap_err().is_incomplete());
    }

    #[test]
    fn oversized_frame_prefix_is_rejected_before_buffering() {
        let mut frame = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        frame.extend_from_slice(&[0u8; 32]);
        assert_eq!(
            Report::decode_frame(&frame),
            Err(DecodeError::FrameTooLarge {
                len: MAX_FRAME_LEN as u64 + 1
            })
        );
    }

    #[test]
    fn frame_payload_disagreeing_with_counts_is_mismatch_not_wait() {
        let r = Report::from_region_point(RegionId(1), 1.0);
        let payload = r.encode();
        // Frame claims one byte more than the report's own counts.
        let mut frame = ((payload.len() + 1) as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        frame.push(0xAB);
        assert_eq!(
            Report::decode_frame(&frame),
            Err(DecodeError::FrameMismatch)
        );
        // Frame claims one byte fewer.
        let mut frame = ((payload.len() - 1) as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload[..payload.len() - 1]);
        assert_eq!(
            Report::decode_frame(&frame),
            Err(DecodeError::FrameMismatch)
        );
    }

    #[test]
    fn stream_decoder_reassembles_byte_dribble() {
        let reports: Vec<Report> = (0..17)
            .map(|i| Report {
                t: i as u64 * 60,
                eps_prime: 0.25 + i as f64 * 1e-3,
                len: 3,
                unigrams: vec![(0, i), (1, i + 1), (2, i + 2)],
                exact: vec![(0, i)],
                transitions: vec![(i, i + 1), (i + 1, i + 2)],
            })
            .collect();
        let mut wire = Vec::new();
        for r in &reports {
            r.encode_frame_into(&mut wire);
        }
        // Feed one byte at a time — worst-case fragmentation.
        let mut dec = StreamDecoder::new();
        let mut out = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            while let Some(r) = dec.next_report().expect("valid stream") {
                out.push(r);
            }
        }
        assert_eq!(out, reports);
        assert_eq!(dec.pending(), 0);
        // A corrupt byte mid-stream surfaces as a fatal error.
        let mut dec = StreamDecoder::new();
        let mut corrupt = wire.clone();
        corrupt[6] ^= 0xFF; // inside the first frame's magic
        dec.extend(&corrupt);
        assert!(dec.next_report().is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..160),
            forged_uni in 0u32..=u32::MAX,
            forged_trans in 0u32..=u32::MAX,
        ) {
            // Raw fuzz bytes.
            let _ = Report::decode(&bytes);
            let _ = Report::decode_frame(&bytes);
            // Same bytes behind a valid magic + forged header — the
            // adversarial shape the length check must survive.
            let mut forged = Vec::with_capacity(Report::HEADER_LEN + bytes.len());
            forged.extend_from_slice(&Report::MAGIC);
            forged.extend_from_slice(&u64::MAX.to_le_bytes()); // timestamp
            forged.extend_from_slice(&u64::MAX.to_le_bytes()); // nano-ε
            forged.extend_from_slice(&u16::MAX.to_le_bytes());
            forged.extend_from_slice(&forged_uni.to_le_bytes());
            forged.extend_from_slice(&forged_uni.wrapping_mul(31).to_le_bytes());
            forged.extend_from_slice(&forged_trans.to_le_bytes());
            forged.extend_from_slice(&bytes);
            if let Ok(r) = Report::decode(&forged) {
                // Anything that decodes is bounded by the input size.
                prop_assert!(r.encoded_len() == forged.len());
            }
            let mut framed = (forged.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&forged);
            if let Ok((r, used)) = Report::decode_frame(&framed) {
                prop_assert_eq!(used, framed.len());
                prop_assert!(r.encoded_len() + 4 == framed.len());
            }
        }

        #[test]
        fn encode_frame_into_appends_exactly_encode_frame(
            t in 0u64..=u64::MAX,
            nano in 0u64..64_000_000_000u64,
            len in 0u16..=u16::MAX,
            unigrams in proptest::collection::vec((0u16..=u16::MAX, 0u32..=u32::MAX), 0..12),
            exact in proptest::collection::vec((0u16..=u16::MAX, 0u32..=u32::MAX), 0..4),
            transitions in proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..12),
        ) {
            let r = Report {
                t,
                eps_prime: nano as f64 / 1e9,
                len,
                unigrams,
                exact,
                transitions,
            };
            // The frame is the length prefix plus `encode()`, whichever
            // entry point built it.
            let payload = r.encode();
            prop_assert_eq!(payload.len(), r.encoded_len());
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&payload);
            prop_assert_eq!(&r.encode_frame(), &frame);
            // Appended to a reused, non-empty buffer: earlier bytes stay,
            // the new bytes are the frame.
            let mut out = vec![0xA5u8; 7];
            r.encode_frame_into(&mut out);
            prop_assert_eq!(&out[..7], &[0xA5u8; 7][..]);
            prop_assert_eq!(&out[7..], &frame[..]);
        }

        #[test]
        fn quantized_eps_survives_any_number_of_roundtrips(
            nano in 1u64..64_000_000_000u64,
        ) {
            let r = Report {
                t: nano % 4096,
                eps_prime: nano as f64 / 1e9,
                len: 1,
                unigrams: vec![(0, 1)],
                exact: vec![(0, 1)],
                transitions: vec![],
            };
            prop_assert_eq!(r.eps_nano(), nano);
            let once = Report::decode(&r.encode()).unwrap();
            prop_assert_eq!(once.eps_nano(), nano);
            let twice = Report::decode(&once.encode()).unwrap();
            prop_assert_eq!(&twice, &once);
        }
    }

    #[test]
    fn encode_frame_into_reuses_the_buffer_byte_for_byte() {
        let reports = [
            Report::from_region_point(RegionId(3), 1.0).at(42),
            Report {
                t: 86_400,
                eps_prime: 0.625,
                len: 3,
                unigrams: vec![(0, 5), (1, 2), (2, 9)],
                exact: vec![(0, 5), (2, 9)],
                transitions: vec![(5, 2), (2, 9)],
            },
        ];
        let mut want = Vec::new();
        let mut got = Vec::new();
        for r in &reports {
            want.extend_from_slice(&r.encode_frame());
            r.encode_frame_into(&mut got);
        }
        assert_eq!(got, want);
        // A buffer already at working size is written in place.
        let cap = got.capacity();
        got.clear();
        for r in &reports {
            r.encode_frame_into(&mut got);
        }
        assert_eq!(got, want);
        assert_eq!(got.capacity(), cap, "no reallocation on reuse");
    }

    #[test]
    fn continuous_report_shape() {
        let r = Report::from_region_point(RegionId(7), 0.5);
        assert_eq!(r.len, 1);
        assert_eq!(r.unigrams, vec![(0, 7)]);
        assert_eq!(r.exact, vec![(0, 7)]);
        assert!(r.transitions.is_empty());
    }

    #[test]
    fn read_from_decodes_like_extend_at_any_read_granularity() {
        // A mixed wire of several frames, delivered by readers that
        // return 1..=N bytes per call — read_from must land the same
        // frame sequence extend does, across compactions.
        let reports: Vec<Report> = (0..9u64)
            .map(|i| Report {
                t: i,
                eps_prime: 0.5,
                len: 4,
                unigrams: (0..4u16).map(|p| (p, (i as u32 + p as u32) % 5)).collect(),
                exact: vec![(0, i as u32 % 5)],
                transitions: vec![(i as u32 % 5, (i as u32 + 1) % 5)],
            })
            .collect();
        let mut wire = Vec::new();
        for r in &reports {
            r.encode_frame_into(&mut wire);
        }
        struct Dribble<'a> {
            data: &'a [u8],
            at: usize,
            step: usize,
        }
        impl std::io::Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.step.min(self.data.len() - self.at).min(buf.len());
                buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
                self.at += n;
                Ok(n)
            }
        }
        for step in [1usize, 3, 7, 64, wire.len()] {
            let mut reader = Dribble {
                data: &wire,
                at: 0,
                step,
            };
            let mut dec = StreamDecoder::new();
            let mut got = Vec::new();
            loop {
                let n = dec.read_from(&mut reader).unwrap();
                while let Some(r) = dec.next_report().unwrap() {
                    got.push(r);
                }
                if n == 0 {
                    break;
                }
            }
            assert_eq!(dec.pending(), 0, "step {step}");
            assert_eq!(got, reports, "step {step}");
        }
    }
}
