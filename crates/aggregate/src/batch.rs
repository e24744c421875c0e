//! Columnar report batches and the `TSR4` batch wire frame.
//!
//! The single-report frame (`TSR3`, [`crate::report`]) spends most of
//! the ingest path's cycles on per-report overhead: one frame header,
//! one decode dispatch, one aggregation call, and — behind a router or
//! a durable server — one WAL record per report. `TSR4` amortises all
//! of it. One frame carries N reports with the
//! header fields every report in the batch shares hoisted out once:
//!
//! ```text
//! magic                   4B    "TSR4"
//! count                   u32   N >= 1 reports
//! base_t                  u64   timestamp base (per-report t = base_t + delta)
//! eps_nano                u64   shared per-report ε′ in nano-ε (the ε′ grid)
//! len                     u16   shared declared |τ| (the report kind)
//! total_uni               u32   Σ per-report unigram counts
//! total_exact             u32   Σ per-report exact-position counts
//! total_trans             u32   Σ per-report transition counts
//! t_delta                 u32 × N
//! n_uni                   u32 × N
//! n_exact                 u32 × N
//! n_trans                 u32 × N
//! uni_pos                 u16 × total_uni
//! uni_region              u32 × total_uni
//! exact_pos               u16 × total_exact
//! exact_region            u32 × total_exact
//! trans_tail              u32 × total_trans
//! trans_head              u32 × total_trans
//! crc32                   u32   (IEEE, over every preceding payload byte)
//! ```
//!
//! all little-endian, framed exactly like a single report: `u32`
//! payload length, then the payload above. Because ε′ and `len` are
//! shared by construction, column accumulation needs **one** ε-grid
//! check and **one** length bound per batch instead of per report — see
//! `accumulate_columns` in [`crate::ingest`] — and the decoded form,
//! [`ReportBatch`], is struct-of-arrays so a server can decode into
//! per-connection scratch with zero per-report allocation. A `TSR3`
//! payload decodes into the same scratch as a batch of one
//! ([`ReportBatch::decode_payload_into`] takes either kind), so nothing
//! behind the decoder knows which frame a report arrived in.
//!
//! The decoder obeys the same hostile-input contract as
//! [`Report::decode`]: all size arithmetic in `u64`, nothing written to
//! the scratch columns until the declared counts are proven consistent
//! with the buffer length, the CRC, and each other. A frame that fails
//! any check must never be acked.

use crate::report::{DecodeError, Report, ReportHeader, MAX_FRAME_LEN};
use crate::snapshot::crc32;
use std::time::Instant;
use trajshare_core::crc32_extend;

/// A decoded `TSR4` batch: N reports in columnar (struct-of-arrays)
/// form, with the shared header fields hoisted. Reusable as scratch:
/// [`ReportBatch::clear`] keeps column capacity, so a long-lived
/// connection decodes every frame with zero per-report allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportBatch {
    /// Timestamp base; report `i` has `t = base_t + t_delta[i]`.
    pub base_t: u64,
    /// Shared per-report privacy parameter, nano-ε (`eps_to_nano`).
    pub eps_nano: u64,
    /// Shared declared trajectory length |τ|.
    pub len: u16,
    /// Per-report timestamp deltas (length N).
    pub t_delta: Vec<u32>,
    /// Per-report unigram counts (length N).
    pub n_uni: Vec<u32>,
    /// Per-report exact-position counts (length N).
    pub n_exact: Vec<u32>,
    /// Per-report transition counts (length N).
    pub n_trans: Vec<u32>,
    /// Unigram positions, all reports concatenated.
    pub uni_pos: Vec<u16>,
    /// Unigram regions, parallel to `uni_pos`.
    pub uni_region: Vec<u32>,
    /// Exact-position positions, all reports concatenated.
    pub exact_pos: Vec<u16>,
    /// Exact-position regions, parallel to `exact_pos`.
    pub exact_region: Vec<u32>,
    /// Transition tails, all reports concatenated.
    pub trans_tail: Vec<u32>,
    /// Transition heads, parallel to `trans_tail`.
    pub trans_head: Vec<u32>,
}

/// One report's extent inside a [`ReportBatch`]: its index in the
/// per-report columns and its ranges in the concatenated ones (what
/// [`ReportBatch::rows`] yields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRow {
    /// Index into `t_delta` / `n_uni` / `n_exact` / `n_trans`.
    pub index: usize,
    /// Range in `uni_pos` / `uni_region`.
    pub uni: std::ops::Range<usize>,
    /// Range in `exact_pos` / `exact_region`.
    pub exact: std::ops::Range<usize>,
    /// Range in `trans_tail` / `trans_head`.
    pub trans: std::ops::Range<usize>,
}

impl ReportBatch {
    /// Frame magic for the batch format.
    pub const MAGIC: [u8; 4] = *b"TSR4";
    /// Fixed payload header: magic + count + base_t + eps_nano + len +
    /// three column totals.
    pub const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 2 + 4 + 4 + 4;

    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of reports currently in the batch.
    pub fn num_reports(&self) -> usize {
        self.t_delta.len()
    }

    /// True when the batch holds no reports.
    pub fn is_empty(&self) -> bool {
        self.t_delta.is_empty()
    }

    /// Empties the batch but keeps column capacity (scratch reuse).
    pub fn clear(&mut self) {
        self.base_t = 0;
        self.eps_nano = 0;
        self.len = 0;
        self.t_delta.clear();
        self.n_uni.clear();
        self.n_exact.clear();
        self.n_trans.clear();
        self.uni_pos.clear();
        self.uni_region.clear();
        self.exact_pos.clear();
        self.exact_region.clear();
        self.trans_tail.clear();
        self.trans_head.clear();
    }

    /// Timestamp of report `i` (saturating: a hostile `base_t` near
    /// `u64::MAX` must not panic).
    pub fn t_of(&self, i: usize) -> u64 {
        self.base_t.saturating_add(self.t_delta[i] as u64)
    }

    /// Largest timestamp in the batch (`base_t` when empty).
    pub fn max_t(&self) -> u64 {
        self.base_t
            .saturating_add(self.t_delta.iter().copied().max().unwrap_or(0) as u64)
    }

    /// Re-stamps every report in the batch to timestamp `t` (the
    /// server-clock ingest policy applied batch-wide).
    pub fn stamp_t(&mut self, t: u64) {
        self.base_t = t;
        self.t_delta.fill(0);
    }

    /// Encoded payload size (without the 4-byte frame length prefix).
    pub fn encoded_len(&self) -> usize {
        Self::HEADER_LEN
            + self.t_delta.len() * 16
            + self.uni_pos.len() * 6
            + self.exact_pos.len() * 6
            + self.trans_tail.len() * 8
            + 4
    }

    /// Appends `report` if it is key-compatible with the batch: same
    /// ε′, same declared length, and a timestamp representable as
    /// `base_t + u32` (the first report fixes the key). Returns `false`
    /// without modifying the batch when it is not — the caller flushes
    /// the batch and retries, which always succeeds on an empty batch.
    pub fn try_push(&mut self, report: &Report) -> bool {
        let nano = report.eps_nano();
        if self.is_empty() {
            self.base_t = report.t;
            self.eps_nano = nano;
            self.len = report.len;
        } else if nano != self.eps_nano
            || report.len != self.len
            || report.t < self.base_t
            || report.t - self.base_t > u32::MAX as u64
            || self.t_delta.len() >= u32::MAX as usize
            || self.encoded_len()
                + 16
                + report.unigrams.len() * 6
                + report.exact.len() * 6
                + report.transitions.len() * 8
                > MAX_FRAME_LEN as usize
        {
            return false;
        }
        self.t_delta.push((report.t - self.base_t) as u32);
        self.n_uni.push(report.unigrams.len() as u32);
        self.n_exact.push(report.exact.len() as u32);
        self.n_trans.push(report.transitions.len() as u32);
        for &(pos, region) in &report.unigrams {
            self.uni_pos.push(pos);
            self.uni_region.push(region);
        }
        for &(pos, region) in &report.exact {
            self.exact_pos.push(pos);
            self.exact_region.push(region);
        }
        for &(tail, head) in &report.transitions {
            self.trans_tail.push(tail);
            self.trans_head.push(head);
        }
        true
    }

    /// Appends report `row` of `src` — same ε′ and |τ| as this batch,
    /// which the first row fixes — **re-basing instead of refusing**
    /// when its timestamp is below `base_t`: the base drops to the new
    /// minimum and every stored delta shifts up, so interleaved windows
    /// share one frame in any arrival order. Returns `false` without
    /// modifying the batch when the key differs, the timestamp spread
    /// no longer fits `u32` deltas, or the frame would pass
    /// [`MAX_FRAME_LEN`] — the caller flushes and retries, which always
    /// succeeds on an empty batch.
    pub fn append_row(&mut self, src: &ReportBatch, row: &BatchRow) -> bool {
        let t = src.t_of(row.index);
        if self.is_empty() {
            self.base_t = t;
            self.eps_nano = src.eps_nano;
            self.len = src.len;
        } else if src.eps_nano != self.eps_nano
            || src.len != self.len
            || self.t_delta.len() >= u32::MAX as usize
            || self.encoded_len()
                + 16
                + row.uni.len() * 6
                + row.exact.len() * 6
                + row.trans.len() * 8
                > MAX_FRAME_LEN as usize
        {
            return false;
        } else if t < self.base_t {
            let shift = self.base_t - t;
            let widest = self.t_delta.iter().copied().max().unwrap_or(0);
            if shift + widest as u64 > u32::MAX as u64 {
                return false;
            }
            for d in &mut self.t_delta {
                *d += shift as u32;
            }
            self.base_t = t;
        } else if t - self.base_t > u32::MAX as u64 {
            return false;
        }
        self.t_delta.push((t - self.base_t) as u32);
        self.n_uni.push(row.uni.len() as u32);
        self.n_exact.push(row.exact.len() as u32);
        self.n_trans.push(row.trans.len() as u32);
        self.uni_pos
            .extend_from_slice(&src.uni_pos[row.uni.clone()]);
        self.uni_region
            .extend_from_slice(&src.uni_region[row.uni.clone()]);
        self.exact_pos
            .extend_from_slice(&src.exact_pos[row.exact.clone()]);
        self.exact_region
            .extend_from_slice(&src.exact_region[row.exact.clone()]);
        self.trans_tail
            .extend_from_slice(&src.trans_tail[row.trans.clone()]);
        self.trans_head
            .extend_from_slice(&src.trans_head[row.trans.clone()]);
        true
    }

    /// Walks the batch once, yielding each report's extent in the
    /// shared columns — the allocation-free way to visit every report.
    pub fn rows(&self) -> impl Iterator<Item = BatchRow> + '_ {
        let (mut u0, mut e0, mut t0) = (0usize, 0usize, 0usize);
        (0..self.num_reports()).map(move |index| {
            let row = BatchRow {
                index,
                uni: u0..u0 + self.n_uni[index] as usize,
                exact: e0..e0 + self.n_exact[index] as usize,
                trans: t0..t0 + self.n_trans[index] as usize,
            };
            (u0, e0, t0) = (row.uni.end, row.exact.end, row.trans.end);
            row
        })
    }

    /// Iterates the batch as allocated row-form [`Report`]s, in order.
    /// Cold paths only (the row-form `replay_wal` adapter, tests); hot
    /// paths, recovery included, stay columnar.
    pub fn reports(&self) -> impl Iterator<Item = Report> + '_ {
        self.rows().map(|row| {
            let pair = |pos: &[u16], region: &[u32]| {
                pos.iter().zip(region).map(|(&p, &r)| (p, r)).collect()
            };
            Report {
                t: self.t_of(row.index),
                eps_prime: self.eps_nano as f64 / 1e9,
                len: self.len,
                unigrams: pair(&self.uni_pos[row.uni.clone()], &self.uni_region[row.uni]),
                exact: pair(
                    &self.exact_pos[row.exact.clone()],
                    &self.exact_region[row.exact],
                ),
                transitions: self.trans_tail[row.trans.clone()]
                    .iter()
                    .zip(&self.trans_head[row.trans])
                    .map(|(&t, &h)| (t, h))
                    .collect(),
            }
        })
    }

    /// Batches `reports` wholesale; `None` if any report is not
    /// key-compatible with the first.
    pub fn from_reports(reports: &[Report]) -> Option<Self> {
        let mut batch = Self::new();
        for r in reports {
            if !batch.try_push(r) {
                return None;
            }
        }
        Some(batch)
    }

    /// Encodes the `TSR4` payload (no frame length prefix).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_payload_into(&mut out);
        out
    }

    /// Appends the `TSR4` payload to `out`.
    pub fn encode_payload_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.reserve(self.encoded_len());
        out.extend_from_slice(&Self::MAGIC);
        out.extend_from_slice(&(self.t_delta.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.base_t.to_le_bytes());
        out.extend_from_slice(&self.eps_nano.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.uni_pos.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.exact_pos.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.trans_tail.len() as u32).to_le_bytes());
        put_u32s(out, &self.t_delta);
        put_u32s(out, &self.n_uni);
        put_u32s(out, &self.n_exact);
        put_u32s(out, &self.n_trans);
        put_u16s(out, &self.uni_pos);
        put_u32s(out, &self.uni_region);
        put_u16s(out, &self.exact_pos);
        put_u32s(out, &self.exact_region);
        put_u32s(out, &self.trans_tail);
        put_u32s(out, &self.trans_head);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Appends the length-prefixed `TSR4` frame to `out`.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.encoded_len() as u32).to_le_bytes());
        self.encode_payload_into(out);
    }

    /// Decodes one report-frame payload — a `TSR4` batch or a single
    /// `TSR3` report, which becomes a batch of one — into this batch,
    /// reusing column capacity. The one place the frame kind is told
    /// apart. On any error the batch is left empty and nothing must be
    /// acked. `TSR4` validation order: header completeness, exact
    /// declared-size match (in `u64`, so hostile counts cannot overflow
    /// or force an allocation), CRC, and per-report count columns
    /// summing to the declared totals; a `TSR3` payload goes through
    /// the validator [`Report::decode`] uses, so both decoders accept
    /// and reject exactly the same bytes.
    ///
    /// On success returns the CRC-32 of the **entire** `buf` — exactly
    /// what a WAL record header over the payload needs. For `TSR4`
    /// (whose payload ends in its own checksum) it is continued from
    /// the state the validation pass already computed, so durable
    /// callers never rescan the bytes; for `TSR3` it is computed here.
    pub fn decode_payload_into(&mut self, buf: &[u8]) -> Result<u32, DecodeError> {
        self.decode_payload_impl(buf, None)
    }

    /// [`ReportBatch::decode_payload_into`] with the server's per-stage
    /// ingest profile hooked in: nanoseconds spent *validating* the
    /// frame (header checks, CRC, count-column consistency) and
    /// *decoding* it (column fills) are added to the two counters. Early
    /// validation failures add nothing — hostile frames are the
    /// exception path, and the profile measures the accepted-frame cost.
    pub fn decode_payload_timed(
        &mut self,
        buf: &[u8],
        validate_ns: &mut u64,
        fill_ns: &mut u64,
    ) -> Result<u32, DecodeError> {
        self.decode_payload_impl(buf, Some((validate_ns, fill_ns)))
    }

    fn decode_payload_impl(
        &mut self,
        buf: &[u8],
        timing: Option<(&mut u64, &mut u64)>,
    ) -> Result<u32, DecodeError> {
        let t0 = timing.as_ref().map(|_| Instant::now());
        self.clear();
        let (whole_crc, t1) = if buf.starts_with(&Self::MAGIC) {
            self.fill_from_batch(buf, timing.is_some())?
        } else {
            self.fill_from_single(buf, timing.is_some())?
        };
        if let (Some((validate_ns, fill_ns)), Some(t0), Some(t1)) = (timing, t0, t1) {
            *validate_ns += t1.duration_since(t0).as_nanos() as u64;
            *fill_ns += t1.elapsed().as_nanos() as u64;
        }
        Ok(whole_crc)
    }

    /// One `TSR3` report — or bytes of neither kind, which its validator
    /// rejects — as a batch of one. Returns the payload CRC and, when
    /// `timed`, the instant validation ended and the column fill began.
    fn fill_from_single(
        &mut self,
        buf: &[u8],
        timed: bool,
    ) -> Result<(u32, Option<Instant>), DecodeError> {
        let h = ReportHeader::validate(buf)?;
        let whole_crc = crc32(buf);
        let t1 = timed.then(Instant::now);
        self.base_t = h.t;
        self.eps_nano = h.eps_nano;
        self.len = h.len;
        self.t_delta.push(0);
        self.n_uni.push(h.n_uni as u32);
        self.n_exact.push(h.n_exact as u32);
        self.n_trans.push(h.n_trans as u32);
        let (uni, rest) = buf[Report::HEADER_LEN..].split_at(h.n_uni * 6);
        let (exact, trans) = rest.split_at(h.n_exact * 6);
        fill_pairs(&mut self.uni_pos, &mut self.uni_region, uni);
        fill_pairs(&mut self.exact_pos, &mut self.exact_region, exact);
        for c in trans.chunks_exact(8) {
            self.trans_tail
                .push(u32::from_le_bytes(c[..4].try_into().unwrap()));
            self.trans_head
                .push(u32::from_le_bytes(c[4..].try_into().unwrap()));
        }
        Ok((whole_crc, t1))
    }

    /// A `TSR4` payload (magic already matched); same return as
    /// [`ReportBatch::fill_from_single`].
    fn fill_from_batch(
        &mut self,
        buf: &[u8],
        timed: bool,
    ) -> Result<(u32, Option<Instant>), DecodeError> {
        if buf.len() < Self::HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: Self::HEADER_LEN as u64 + 4,
            });
        }
        let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        let count = u32_at(4) as u64;
        let base_t = u64_at(8);
        let eps_nano = u64_at(16);
        let len = u16::from_le_bytes(buf[24..26].try_into().unwrap());
        let total_uni = u32_at(26) as u64;
        let total_exact = u32_at(30) as u64;
        let total_trans = u32_at(34) as u64;
        let expect = Self::HEADER_LEN as u64
            + count * 16
            + total_uni * 6
            + total_exact * 6
            + total_trans * 8
            + 4;
        match (buf.len() as u64).cmp(&expect) {
            std::cmp::Ordering::Less => return Err(DecodeError::Truncated { needed: expect }),
            std::cmp::Ordering::Greater => return Err(DecodeError::TrailingBytes),
            std::cmp::Ordering::Equal => {}
        }
        if count == 0 {
            return Err(DecodeError::FrameMismatch);
        }
        let (payload, crc_bytes) = buf.split_at(buf.len() - 4);
        let prefix_crc = crc32(payload);
        if prefix_crc != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
            return Err(DecodeError::BadCrc);
        }
        let whole_crc = crc32_extend(prefix_crc, crc_bytes);
        let n = count as usize;
        let mut off = Self::HEADER_LEN;
        let mut take = |bytes: usize| {
            let s = &buf[off..off + bytes];
            off += bytes;
            s
        };
        let t_delta = take(n * 4);
        let n_uni = take(n * 4);
        let n_exact = take(n * 4);
        let n_trans = take(n * 4);
        let sum_u32 = |bytes: &[u8]| -> u64 {
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as u64)
                .sum()
        };
        if sum_u32(n_uni) != total_uni
            || sum_u32(n_exact) != total_exact
            || sum_u32(n_trans) != total_trans
        {
            return Err(DecodeError::FrameMismatch);
        }
        let t1 = timed.then(Instant::now);
        self.base_t = base_t;
        self.eps_nano = eps_nano;
        self.len = len;
        fill_u32(&mut self.t_delta, t_delta);
        fill_u32(&mut self.n_uni, n_uni);
        fill_u32(&mut self.n_exact, n_exact);
        fill_u32(&mut self.n_trans, n_trans);
        let tu = total_uni as usize;
        let te = total_exact as usize;
        let tt = total_trans as usize;
        fill_u16(&mut self.uni_pos, take(tu * 2));
        fill_u32(&mut self.uni_region, take(tu * 4));
        fill_u16(&mut self.exact_pos, take(te * 2));
        fill_u32(&mut self.exact_region, take(te * 4));
        fill_u32(&mut self.trans_tail, take(tt * 4));
        fill_u32(&mut self.trans_head, take(tt * 4));
        debug_assert_eq!(off, payload.len());
        Ok((whole_crc, t1))
    }
}

/// `TSR3`'s interleaved `(u16 position, u32 region)` pairs, split into
/// the two columns.
fn fill_pairs(pos: &mut Vec<u16>, region: &mut Vec<u32>, bytes: &[u8]) {
    for c in bytes.chunks_exact(6) {
        pos.push(u16::from_le_bytes([c[0], c[1]]));
        region.push(u32::from_le_bytes([c[2], c[3], c[4], c[5]]));
    }
}

fn fill_u32(dst: &mut Vec<u32>, bytes: &[u8]) {
    dst.extend(
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
    );
}

fn fill_u16(dst: &mut Vec<u16>, bytes: &[u8]) {
    dst.extend(
        bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().unwrap())),
    );
}

fn put_u32s(out: &mut Vec<u8>, vals: &[u32]) {
    let start = out.len();
    out.resize(start + vals.len() * 4, 0);
    for (dst, v) in out[start..].chunks_exact_mut(4).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

fn put_u16s(out: &mut Vec<u8>, vals: &[u16]) {
    let start = out.len();
    out.resize(start + vals.len() * 2, 0);
    for (dst, v) in out[start..].chunks_exact_mut(2).zip(vals) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Streams reports into length-prefixed `TSR4` frames, flushing a
/// frame whenever the current batch reaches `max_reports` or the next
/// report is not key-compatible (different ε′ or |τ|, or a timestamp
/// delta that no longer fits). The client's batched sender; the router
/// re-frames with [`ReportBatch::append_row`] instead, which re-bases
/// rather than flushing on an earlier timestamp.
#[derive(Debug)]
pub struct BatchEncoder {
    batch: ReportBatch,
    max_reports: usize,
}

impl BatchEncoder {
    /// An encoder emitting at most `max_reports` reports per frame.
    pub fn new(max_reports: usize) -> Self {
        Self {
            batch: ReportBatch::new(),
            max_reports: max_reports.max(1),
        }
    }

    /// Adds `report`, appending any completed frame to `out`.
    pub fn push(&mut self, report: &Report, out: &mut Vec<u8>) {
        if self.batch.num_reports() >= self.max_reports {
            self.flush(out);
        }
        if !self.batch.try_push(report) {
            self.flush(out);
            let pushed = self.batch.try_push(report);
            debug_assert!(pushed, "a report always fits an empty batch");
        }
    }

    /// Appends the in-progress frame (if any) to `out`.
    pub fn flush(&mut self, out: &mut Vec<u8>) {
        if !self.batch.is_empty() {
            self.batch.encode_frame_into(out);
            self.batch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::StreamDecoder;

    fn toy_report(t: u64, eps: f64, len: u16, seed: u32) -> Report {
        Report {
            t,
            eps_prime: eps,
            len,
            unigrams: (0..len).map(|p| (p, (seed + p as u32) % 7)).collect(),
            exact: (0..len.min(2))
                .map(|p| (p, (seed + p as u32) % 7))
                .collect(),
            transitions: if len >= 2 {
                vec![(seed % 7, (seed + 1) % 7)]
            } else {
                vec![]
            },
        }
    }

    #[test]
    fn payload_roundtrips() {
        let reports: Vec<Report> = (0..37)
            .map(|i| toy_report(100 + i, 1.25, 3, i as u32))
            .collect();
        let batch = ReportBatch::from_reports(&reports).unwrap();
        assert_eq!(batch.num_reports(), reports.len());
        let payload = batch.encode_payload();
        assert_eq!(payload.len(), batch.encoded_len());
        let mut decoded = ReportBatch::new();
        decoded.decode_payload_into(&payload).unwrap();
        assert_eq!(decoded, batch);
        let back: Vec<Report> = decoded.reports().collect();
        assert_eq!(back, reports);
    }

    #[test]
    fn scratch_reuse_is_exact() {
        let mut scratch = ReportBatch::new();
        let big: Vec<Report> = (0..64).map(|i| toy_report(i, 2.0, 4, i as u32)).collect();
        let small = vec![toy_report(9, 0.5, 2, 3)];
        for reports in [&big, &small, &big] {
            let batch = ReportBatch::from_reports(reports).unwrap();
            scratch
                .decode_payload_into(&batch.encode_payload())
                .unwrap();
            assert_eq!(scratch, batch);
        }
    }

    #[test]
    fn try_push_flushes_on_key_change() {
        let mut batch = ReportBatch::new();
        assert!(batch.try_push(&toy_report(10, 1.0, 3, 0)));
        assert!(batch.try_push(&toy_report(12, 1.0, 3, 1)));
        // Different ε′.
        assert!(!batch.try_push(&toy_report(12, 2.0, 3, 2)));
        // Different |τ|.
        assert!(!batch.try_push(&toy_report(12, 1.0, 4, 2)));
        // Timestamp below the base.
        assert!(!batch.try_push(&toy_report(9, 1.0, 3, 2)));
        // Delta beyond u32.
        assert!(!batch.try_push(&toy_report(10 + (1 << 33), 1.0, 3, 2)));
        assert_eq!(batch.num_reports(), 2);
        // The rejects left the batch untouched.
        let payload = batch.encode_payload();
        let mut decoded = ReportBatch::new();
        decoded.decode_payload_into(&payload).unwrap();
        assert_eq!(decoded.reports().count(), 2);
    }

    #[test]
    fn encoder_splits_mixed_keys_and_caps_batches() {
        let mut reports: Vec<Report> = (0..10).map(|i| toy_report(i, 1.0, 3, i as u32)).collect();
        reports.push(toy_report(20, 0.5, 3, 1)); // key change -> new frame
        reports.push(toy_report(21, 0.5, 3, 2));
        let mut wire = Vec::new();
        let mut enc = BatchEncoder::new(4);
        for r in &reports {
            enc.push(r, &mut wire);
        }
        enc.flush(&mut wire);

        // Walk the frames: 4 + 4 + 2 (cap) then 2 (key change).
        let mut sizes = Vec::new();
        let mut rest = &wire[..];
        let mut scratch = ReportBatch::new();
        let mut decoded = Vec::new();
        while !rest.is_empty() {
            let plen = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
            scratch.decode_payload_into(&rest[4..4 + plen]).unwrap();
            sizes.push(scratch.num_reports());
            decoded.extend(scratch.reports());
            rest = &rest[4 + plen..];
        }
        assert_eq!(sizes, vec![4, 4, 2, 2]);
        assert_eq!(decoded, reports);
    }

    #[test]
    fn hostile_payloads_never_panic_and_never_decode() {
        let good = ReportBatch::from_reports(
            &(0..5)
                .map(|i| toy_report(i, 1.0, 3, i as u32))
                .collect::<Vec<_>>(),
        )
        .unwrap()
        .encode_payload();
        let mut scratch = ReportBatch::new();

        // Truncations at every boundary.
        for cut in 0..good.len() {
            assert!(scratch.decode_payload_into(&good[..cut]).is_err());
            assert!(scratch.is_empty());
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert_eq!(
            scratch.decode_payload_into(&long),
            Err(DecodeError::TrailingBytes)
        );
        // Every single-byte corruption either flips the CRC or breaks a
        // structural check — none may panic, none may decode.
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x41;
            assert!(scratch.decode_payload_into(&bad).is_err(), "byte {at}");
        }
        // Overflowing counts: huge totals with a valid CRC still fail
        // the u64 size check before any allocation.
        let mut huge = good.clone();
        huge[26..30].copy_from_slice(&u32::MAX.to_le_bytes());
        let n = huge.len();
        let crc = crc32(&huge[..n - 4]);
        huge[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            scratch.decode_payload_into(&huge),
            Err(DecodeError::Truncated { .. })
        ));
        // Count columns disagreeing with the declared totals.
        let batch = ReportBatch::from_reports(
            &(0..2)
                .map(|i| toy_report(i, 1.0, 3, i as u32))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let mut skew = batch.encode_payload();
        let base = ReportBatch::HEADER_LEN + 2 * 4; // first n_uni entry
        skew[base..base + 4].copy_from_slice(&2u32.to_le_bytes());
        let hdr = ReportBatch::HEADER_LEN + 2 * 4 * 4; // second entry balances the sum? no: force mismatch
        let _ = hdr;
        let n = skew.len();
        let crc = crc32(&skew[..n - 4]);
        skew[n - 4..].copy_from_slice(&crc.to_le_bytes());
        // Sum is now totals+(-1): 3+3 declared vs 2+3 actual -> mismatch.
        assert_eq!(
            scratch.decode_payload_into(&skew),
            Err(DecodeError::FrameMismatch)
        );
        // Zero-report batches are not a thing.
        let mut empty = ReportBatch::new().encode_payload();
        let n = empty.len();
        let crc = crc32(&empty[..n - 4]);
        empty[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            scratch.decode_payload_into(&empty),
            Err(DecodeError::FrameMismatch)
        );
    }

    #[test]
    fn hostile_base_t_saturates() {
        let mut batch = ReportBatch::from_reports(&[toy_report(0, 1.0, 3, 1)]).unwrap();
        batch.base_t = u64::MAX - 1;
        batch.t_delta[0] = 1000;
        let payload = batch.encode_payload();
        let mut scratch = ReportBatch::new();
        scratch.decode_payload_into(&payload).unwrap();
        assert_eq!(scratch.max_t(), u64::MAX);
        assert_eq!(scratch.reports().next().unwrap().t, u64::MAX);
    }

    #[test]
    fn stream_decoder_interleaves_both_frame_kinds() {
        use crate::report::WireFrame;
        let singles: Vec<Report> = (0..2).map(|i| toy_report(i, 0.75, 3, i as u32)).collect();
        let batched: Vec<Report> = (0..5)
            .map(|i| toy_report(50 + i, 1.5, 2, i as u32))
            .collect();
        let mut wire = Vec::new();
        singles[0].encode_frame_into(&mut wire); // TSR3
        ReportBatch::from_reports(&batched)
            .unwrap()
            .encode_frame_into(&mut wire); // TSR4
        singles[1].encode_frame_into(&mut wire); // TSR3
        ReportBatch::from_reports(&batched[..2])
            .unwrap()
            .encode_frame_into(&mut wire); // TSR4 again

        // Dribble it in byte by byte; collect what comes out.
        let mut dec = StreamDecoder::new();
        let mut scratch = ReportBatch::new();
        let mut got: Vec<Report> = Vec::new();
        let mut kinds = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            loop {
                match dec.next_wire_frame().unwrap() {
                    None => break,
                    Some(WireFrame::Reports { payload, batch }) => {
                        kinds.push(batch);
                        scratch.decode_payload_into(payload).unwrap();
                        got.extend(scratch.reports());
                    }
                    Some(WireFrame::Hello { .. }) => panic!("no hello on this wire"),
                }
            }
        }
        assert_eq!(dec.pending(), 0);
        assert_eq!(kinds, [false, true, false, true]);
        let mut want = vec![singles[0].clone()];
        want.extend(batched.iter().cloned());
        want.push(singles[1].clone());
        want.extend(batched[..2].iter().cloned());
        assert_eq!(got, want);
    }

    #[test]
    fn append_row_rebases_instead_of_refusing_earlier_timestamps() {
        // Eight interleaved windows in arrival order: `try_push` would
        // refuse every report below the first one's timestamp.
        let reports: Vec<Report> = (0..64u32)
            .map(|i| toy_report(70 - u64::from(i * 37 % 8) * 10, 1.0, 3, i))
            .collect();
        let mut staged = ReportBatch::new();
        for r in &reports {
            let one = ReportBatch::from_reports(std::slice::from_ref(r)).unwrap();
            let row = one.rows().next().unwrap();
            assert!(staged.append_row(&one, &row));
        }
        assert_eq!(staged.base_t, 0, "the base is the minimum timestamp");
        assert_eq!(staged.num_reports(), reports.len());
        // Same reports, same order, through the wire.
        let mut decoded = ReportBatch::new();
        decoded
            .decode_payload_into(&staged.encode_payload())
            .unwrap();
        assert_eq!(decoded.reports().collect::<Vec<_>>(), reports);

        // A multi-row source appends row by row, from its own offsets.
        assert!(
            ReportBatch::from_reports(&reports[..8]).is_none(),
            "try_push refuses the same interleaving"
        );
        let mut sorted = reports[..8].to_vec();
        sorted.sort_by_key(|r| r.t);
        let src = ReportBatch::from_reports(&sorted).unwrap();
        let mut copy = ReportBatch::new();
        for row in src.rows().collect::<Vec<_>>().iter().rev() {
            assert!(copy.append_row(&src, row));
        }
        sorted.reverse();
        assert_eq!(copy.reports().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn append_row_refuses_what_one_frame_cannot_hold() {
        let one = |r: Report| ReportBatch::from_reports(&[r]).unwrap();
        let push = |dst: &mut ReportBatch, src: &ReportBatch| {
            let before = dst.clone();
            let ok = dst.append_row(src, &src.rows().next().unwrap());
            if !ok {
                assert_eq!(*dst, before, "a refusal leaves the batch untouched");
            }
            ok
        };
        let mut staged = ReportBatch::new();
        assert!(push(&mut staged, &one(toy_report(1 << 33, 1.0, 3, 0))));
        assert!(push(
            &mut staged,
            &one(toy_report((1 << 33) + 5, 1.0, 3, 1))
        ));
        // Different ε′ / |τ|.
        assert!(!push(&mut staged, &one(toy_report(1 << 33, 2.0, 3, 2))));
        assert!(!push(&mut staged, &one(toy_report(1 << 33, 1.0, 4, 2))));
        // Later than `u32` deltas reach, and earlier than a re-base can
        // carry the stored deltas (5 + shift > u32::MAX).
        assert!(!push(&mut staged, &one(toy_report(1 << 34, 1.0, 3, 2))));
        assert!(!push(
            &mut staged,
            &one(toy_report((1 << 33) - u64::from(u32::MAX), 1.0, 3, 2))
        ));
        // The widest re-base that still fits is taken.
        assert!(push(
            &mut staged,
            &one(toy_report((1 << 33) + 5 - u64::from(u32::MAX), 1.0, 3, 2))
        ));
        assert_eq!(staged.t_delta, vec![u32::MAX - 5, u32::MAX, 0]);
        // A hostile saturating timestamp is carried as its saturated value.
        let mut hostile = one(toy_report(0, 1.0, 3, 3));
        hostile.base_t = u64::MAX - 1;
        hostile.t_delta[0] = 1000;
        let mut fresh = ReportBatch::new();
        assert!(push(&mut fresh, &hostile));
        assert_eq!(fresh.max_t(), u64::MAX);
    }

    #[test]
    fn timed_decode_matches_untimed() {
        let reports: Vec<Report> = (0..12).map(|i| toy_report(i, 0.5, 4, i as u32)).collect();
        let batch = ReportBatch::from_reports(&reports).unwrap();
        let payload = batch.encode_payload();
        let mut a = ReportBatch::new();
        let mut b = ReportBatch::new();
        let (mut validate_ns, mut fill_ns) = (0u64, 0u64);
        let crc_a = a.decode_payload_into(&payload).unwrap();
        let crc_b = b
            .decode_payload_timed(&payload, &mut validate_ns, &mut fill_ns)
            .unwrap();
        assert_eq!(crc_a, crc_b);
        assert_eq!(a, b);
    }

    proptest::proptest! {
        #[test]
        fn a_tsr3_payload_decodes_to_the_same_report_in_columns_as_in_rows(
            t in 0u64..=u64::MAX,
            nano in 0u64..=u64::MAX,
            len in 0u16..=u16::MAX,
            unigrams in proptest::collection::vec((0u16..=u16::MAX, 0u32..=u32::MAX), 0..12),
            exact in proptest::collection::vec((0u16..=u16::MAX, 0u32..=u32::MAX), 0..4),
            transitions in proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..12),
            forged_uni in 0u32..24,
            forged_exact in 0u32..8,
            forged_trans in 0u32..=u32::MAX,
        ) {
            let report = Report { t, eps_prime: 0.5, len, unigrams, exact, transitions };
            let mut payload = report.encode();
            payload[12..20].copy_from_slice(&nano.to_le_bytes()); // any ε′, hostile ones too
            let row = Report::decode(&payload).unwrap();
            let mut cols = ReportBatch::new();
            proptest::prop_assert_eq!(cols.decode_payload_into(&payload), Ok(crc32(&payload)));
            proptest::prop_assert_eq!(cols.eps_nano, nano);
            proptest::prop_assert_eq!(cols.reports().collect::<Vec<_>>(), vec![row.clone()]);
            // The row-form batch builder lands on the same columns
            // (whenever ε′ survives its trip through `f64`).
            if row.eps_nano() == nano {
                proptest::prop_assert_eq!(&cols, &ReportBatch::from_reports(&[row]).unwrap());
            }
            // Both decoders reject the same bytes with the same error:
            // every strict prefix, a trailing byte, forged count headers.
            let mut same_verdict = |bytes: &[u8]| {
                let want = Report::decode(bytes).map(|_| ());
                let got = cols.decode_payload_into(bytes).map(|_| ());
                assert_eq!(got, want);
                assert!(got.is_ok() || cols.is_empty());
                got
            };
            for cut in 0..payload.len() {
                proptest::prop_assert!(same_verdict(&payload[..cut]).unwrap_err().is_incomplete());
            }
            payload.push(0);
            proptest::prop_assert_eq!(same_verdict(&payload), Err(DecodeError::TrailingBytes));
            payload.pop();
            for (at, count) in [(22, forged_uni), (26, forged_exact), (30, forged_trans)] {
                payload[at..at + 4].copy_from_slice(&count.to_le_bytes());
            }
            let _ = same_verdict(&payload);
        }

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..2048),
        ) {
            let mut scratch = ReportBatch::new();
            let _ = scratch.decode_payload_into(&bytes);
            // Adversarial prefix splice: valid magic, random rest.
            let mut spliced = ReportBatch::MAGIC.to_vec();
            spliced.extend_from_slice(&bytes);
            let _ = scratch.decode_payload_into(&spliced);
        }
    }
}
