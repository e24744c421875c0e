//! `TSCL` — the cluster snapshot-shipping RPC frames.
//!
//! A distributed deployment runs N independent `ingestd` workers behind
//! a router; the coordinator periodically pulls each worker's counter
//! and window-ring state and merges the snapshots bit-exactly into a
//! global view (counters are plain `u64` sums and window ids are
//! absolute, so the merge is the same re-sharding primitive as
//! [`crate::merge_snapshot_files`] and
//! [`crate::WindowedAggregator::merge_ring`]). This module defines the
//! *wire* unit of that exchange: a length-prefixed, CRC-validated frame
//! that embeds the existing `TSC1` counts snapshot and `TSWR` ring
//! blobs verbatim — the cluster protocol adds framing and identity
//! (epoch, watermark), never a second serialization of the counters.
//!
//! On the socket each frame is a `u32` payload length (≤
//! `MAX_CLUSTER_FRAME_LEN`) followed by the payload, a sealed blob
//! (magic, version, body, CRC-32 — see [`trajshare_core::blob`]). Body
//! of `TSCL` version 1 (all integers little-endian):
//!
//! ```text
//! kind                    u8    (0 = SnapshotPull, 1 = Snapshot,
//!                                2 = GrantAnnounce)
//! [GrantAnnounce only]
//!   epoch                 u64   · window u64 · granted ε′ u64 (nano-ε)
//!                               (the coordinator's `TSGB` grant, relayed
//!                                worker-ward so directly-connected
//!                                clients hear the same ε′ the router
//!                                fans out; fire-and-forget, no reply)
//! [Snapshot only]
//!   epoch                 u64   (worker file generation — bumps on
//!                                recovery and online compaction, so a
//!                                restart is visible to the coordinator)
//!   watermark             u64   (newest window id of the worker's
//!                                merged ring; 0 when not streaming)
//!   reports               u64   (total reports in the counts blob,
//!                                duplicated here so monitors need not
//!                                decode the snapshot)
//!   counts length         u64   · TSC1 blob (embedded verbatim)
//!   ring flag             u8    · if 1: ring length u64 · TSWR blob
//! ```
//!
//! Every length field is checked against the bytes actually held (a
//! forged `counts length` cannot overflow or over-allocate), and the
//! embedded blobs re-validate themselves on decode, so a corrupt
//! snapshot is refused twice before a single counter is trusted.

use crate::ingest::AggregateCounts;
use crate::stream::{WindowConfig, WindowedAggregator};
use std::io::{Read, Write};
use trajshare_core::blob::{open, BlobError, Reader, Sealer};

/// Cluster frame magic ("TrajShare CLuster").
pub(crate) const CLUSTER_MAGIC: [u8; 4] = *b"TSCL";

/// Current cluster protocol version.
pub(crate) const CLUSTER_VERSION: u16 = 1;

/// Ceiling on one frame's payload. A worker snapshot embeds one counts
/// blob plus one ring (≤ `num_windows` counts blobs), each `O(|R|²)`
/// u64s — generous headroom for real universes while keeping a hostile
/// length prefix from sizing a giant allocation.
pub(crate) const MAX_CLUSTER_FRAME_LEN: usize = 256 * 1024 * 1024;

const KIND_SNAPSHOT_PULL: u8 = 0;
const KIND_SNAPSHOT: u8 = 1;
const KIND_GRANT_ANNOUNCE: u8 = 2;

/// One worker's shipped state: identity (epoch, watermark) plus the
/// embedded counter blobs. The blobs stay encoded here — the
/// coordinator decodes them against *its* region universe and window
/// config via [`WorkerSnapshot::decode_counts`] /
/// [`WorkerSnapshot::decode_ring`], which is where a universe mismatch
/// between cluster members is caught.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The worker's file generation. Bumps on every recovery and online
    /// compaction, so a coordinator seeing `epoch` move knows the
    /// worker restarted (and must replace, never diff, its cached
    /// snapshot); a *regressing* counter at the same epoch would mean
    /// lost reports.
    pub epoch: u64,
    /// Newest window id of the worker's merged ring (0 when the worker
    /// is not streaming). The cluster watermark is the minimum over
    /// workers.
    pub watermark: u64,
    /// Total reports in `counts` (convenience duplicate).
    pub reports: u64,
    /// `TSC1` counts snapshot, embedded verbatim.
    pub counts: Vec<u8>,
    /// `TSWR` ring blob, embedded verbatim; `None` when not streaming.
    pub ring: Option<Vec<u8>>,
}

impl WorkerSnapshot {
    /// Decodes the embedded counts blob (CRC + universe validated).
    pub fn decode_counts(&self) -> Result<AggregateCounts, BlobError> {
        AggregateCounts::decode_snapshot(&self.counts)
    }

    /// Decodes the embedded ring blob against the coordinator's
    /// universe and window shape; `Ok(None)` when the worker shipped no
    /// ring (batch-archive worker in a streaming cluster — the
    /// coordinator treats it as an empty ring at watermark 0).
    pub fn decode_ring(
        &self,
        region_tile: &[u16],
        config: WindowConfig,
    ) -> Result<Option<WindowedAggregator>, BlobError> {
        self.ring
            .as_deref()
            .map(|blob| WindowedAggregator::decode_ring(blob, region_tile, config))
            .transpose()
    }
}

/// One cluster RPC frame. The exchange is strictly pull-based: the
/// coordinator sends `SnapshotPull`, the worker answers with one
/// `Snapshot` — no subscriptions, no deltas (deltas would reintroduce
/// the double-count hazards exact full-state merge was built to avoid).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterFrame {
    /// Coordinator → worker: "ship me your current state".
    SnapshotPull,
    /// Worker → coordinator: the full current state.
    Snapshot(WorkerSnapshot),
    /// Coordinator → worker: the cluster's current ε′ grant, to be
    /// installed on the worker's grant board (and pushed to any clients
    /// subscribed directly to the worker). Fire-and-forget: the sender
    /// closes after writing, the worker sends no reply.
    GrantAnnounce(crate::grant::GrantFrame),
}

/// Encodes one frame's *payload* (everything after the u32 length
/// prefix, including the trailing CRC).
pub fn encode_cluster_frame(frame: &ClusterFrame) -> Vec<u8> {
    let body = match frame {
        ClusterFrame::SnapshotPull => 1,
        ClusterFrame::GrantAnnounce(_) => 1 + 3 * 8,
        ClusterFrame::Snapshot(s) => {
            1 + 4 * 8 + s.counts.len() + 1 + s.ring.as_ref().map_or(0, |r| 8 + r.len())
        }
    };
    let mut out = Sealer::new(CLUSTER_MAGIC, CLUSTER_VERSION, body);
    match frame {
        ClusterFrame::SnapshotPull => out.u8(KIND_SNAPSHOT_PULL),
        ClusterFrame::GrantAnnounce(g) => out
            .u8(KIND_GRANT_ANNOUNCE)
            .u64(g.epoch)
            .u64(g.window)
            .u64(g.granted_nano),
        ClusterFrame::Snapshot(s) => {
            out.u8(KIND_SNAPSHOT)
                .u64(s.epoch)
                .u64(s.watermark)
                .u64(s.reports);
            out.u64(s.counts.len() as u64).bytes(&s.counts);
            match &s.ring {
                None => out.u8(0),
                Some(ring) => out.u8(1).u64(ring.len() as u64).bytes(ring),
            }
        }
    };
    out.seal()
}

/// Takes one `u64`-length-prefixed embedded blob.
fn embedded(r: &mut Reader<'_>) -> Result<Vec<u8>, BlobError> {
    let len = r.count(u64::MAX, 1)?;
    Ok(r.bytes(len)?.to_vec())
}

/// Decodes one frame payload (the bytes after the u32 length prefix).
/// Every length field is validated against the buffer actually held
/// before anything is sliced; trailing garbage is refused.
pub fn decode_cluster_frame(buf: &[u8]) -> Result<ClusterFrame, BlobError> {
    let mut r = open(buf, CLUSTER_MAGIC, CLUSTER_VERSION)?;
    let frame = match r.u8()? {
        KIND_SNAPSHOT_PULL => ClusterFrame::SnapshotPull,
        KIND_GRANT_ANNOUNCE => ClusterFrame::GrantAnnounce(crate::grant::GrantFrame {
            epoch: r.u64()?,
            window: r.u64()?,
            granted_nano: r.u64()?,
        }),
        KIND_SNAPSHOT => ClusterFrame::Snapshot(WorkerSnapshot {
            epoch: r.u64()?,
            watermark: r.u64()?,
            reports: r.u64()?,
            counts: embedded(&mut r)?,
            ring: match r.u8()? {
                0 => None,
                1 => Some(embedded(&mut r)?),
                _ => return Err(BlobError::Inconsistent("ring flag not 0/1")),
            },
        }),
        _ => return Err(BlobError::Inconsistent("unknown frame kind")),
    };
    r.finish()?;
    Ok(frame)
}

/// Writes one frame to a stream: u32 length prefix, then the payload.
pub fn write_cluster_frame(w: &mut impl Write, frame: &ClusterFrame) -> std::io::Result<()> {
    let payload = encode_cluster_frame(frame);
    debug_assert!(payload.len() <= MAX_CLUSTER_FRAME_LEN);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)
}

/// Reads one length-prefixed frame from a stream. A declared length of
/// zero, or above `MAX_CLUSTER_FRAME_LEN`, is refused *before* any
/// buffer is sized from it.
pub fn read_cluster_frame(r: &mut impl Read) -> Result<ClusterFrame, BlobError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_CLUSTER_FRAME_LEN {
        return Err(BlobError::Inconsistent("frame length out of range"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    decode_cluster_frame(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use crate::snapshot::crc32;
    use crate::Aggregator;

    fn toy_snapshot(with_ring: bool) -> WorkerSnapshot {
        let tiles = vec![0u16, 3, 7, 11];
        let mut agg = Aggregator::from_region_tiles(tiles.clone());
        let mut ring = WindowedAggregator::new(
            tiles.clone(),
            WindowConfig {
                window_len: 60,
                num_windows: 4,
            },
        );
        for i in 0..25u32 {
            let a = i % 4;
            let b = (a + 1) % 4;
            let report = Report {
                t: 60 * (i as u64 % 3),
                eps_prime: 0.25 + (i % 4) as f64 * 0.5,
                len: 2,
                unigrams: vec![(0, a), (1, b)],
                exact: vec![(0, a), (1, b)],
                transitions: vec![(a, b)],
            };
            agg.ingest(&report);
            ring.ingest(&report);
        }
        let counts = agg.into_counts();
        WorkerSnapshot {
            epoch: 3,
            watermark: ring.newest_window(),
            reports: counts.num_reports,
            counts: counts.encode_snapshot(),
            ring: with_ring.then(|| ring.encode_ring()),
        }
    }

    #[test]
    fn pull_roundtrips() {
        let buf = encode_cluster_frame(&ClusterFrame::SnapshotPull);
        assert_eq!(
            decode_cluster_frame(&buf).unwrap(),
            ClusterFrame::SnapshotPull
        );
    }

    #[test]
    fn grant_announce_roundtrips_and_rejects_truncation() {
        let frame = ClusterFrame::GrantAnnounce(crate::grant::GrantFrame {
            epoch: u64::MAX,
            window: 42,
            granted_nano: 1_250_000_000,
        });
        let buf = encode_cluster_frame(&frame);
        assert_eq!(decode_cluster_frame(&buf).unwrap(), frame);
        for i in 0..buf.len() {
            assert!(decode_cluster_frame(&buf[..i]).is_err(), "prefix {i}");
        }
        let mut bad = buf.clone();
        bad[9] ^= 0x04;
        assert_eq!(decode_cluster_frame(&bad), Err(BlobError::BadCrc));
    }

    #[test]
    fn snapshot_roundtrips_with_and_without_ring() {
        for with_ring in [false, true] {
            let snap = toy_snapshot(with_ring);
            let frame = ClusterFrame::Snapshot(snap.clone());
            let buf = encode_cluster_frame(&frame);
            let back = decode_cluster_frame(&buf).unwrap();
            assert_eq!(back, frame);
            // The embedded blobs decode to the originals.
            let ClusterFrame::Snapshot(back) = back else {
                unreachable!()
            };
            let counts = back.decode_counts().unwrap();
            assert_eq!(counts.num_reports, 25);
            assert_eq!(counts.num_reports, back.reports);
            let ring = back
                .decode_ring(
                    &[0, 3, 7, 11],
                    WindowConfig {
                        window_len: 60,
                        num_windows: 4,
                    },
                )
                .unwrap();
            assert_eq!(ring.is_some(), with_ring);
            if let Some(ring) = ring {
                assert_eq!(ring.newest_window(), back.watermark);
                assert_eq!(ring.merged().num_reports, 25);
            }
        }
    }

    #[test]
    fn stream_roundtrip() {
        let frames = [
            ClusterFrame::SnapshotPull,
            ClusterFrame::Snapshot(toy_snapshot(true)),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_cluster_frame(&mut wire, f).unwrap();
        }
        let mut cursor = &wire[..];
        for f in &frames {
            assert_eq!(&read_cluster_frame(&mut cursor).unwrap(), f);
        }
        assert!(cursor.is_empty());
        // A truncated stream is an Io error (read_exact fails), never a
        // panic or a partial frame.
        let mut short = &wire[..wire.len() - 3];
        assert!(read_cluster_frame(&mut short).is_ok());
        assert!(matches!(
            read_cluster_frame(&mut short),
            Err(BlobError::Io(_))
        ));
    }

    #[test]
    fn corruption_is_rejected() {
        let good = encode_cluster_frame(&ClusterFrame::Snapshot(toy_snapshot(true)));
        for i in (0..good.len() - 4).step_by(19) {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            assert_eq!(
                decode_cluster_frame(&bad),
                Err(BlobError::BadCrc),
                "flipped byte {i}"
            );
        }
        for i in (0..good.len()).step_by(23) {
            assert!(decode_cluster_frame(&good[..i]).is_err());
        }
        // Trailing garbage with a recomputed CRC: size accounting must
        // object even though the CRC matches.
        let mut padded = good[..good.len() - 4].to_vec();
        padded.extend_from_slice(&[0u8; 7]);
        let crc = crc32(&padded);
        padded.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_cluster_frame(&padded),
            Err(BlobError::Inconsistent("trailing bytes"))
        );
    }

    #[test]
    fn hostile_headers_are_refused() {
        let recrc = |mut buf: Vec<u8>| {
            let n = buf.len();
            let crc = crc32(&buf[..n - 4]);
            buf[n - 4..].copy_from_slice(&crc.to_le_bytes());
            buf
        };
        let good = encode_cluster_frame(&ClusterFrame::Snapshot(toy_snapshot(false)));

        let mut wrong_magic = good.clone();
        wrong_magic[0..4].copy_from_slice(b"NOPE");
        assert_eq!(
            decode_cluster_frame(&recrc(wrong_magic)),
            Err(BlobError::BadMagic)
        );

        let mut wrong_version = good.clone();
        wrong_version[4..6].copy_from_slice(&9u16.to_le_bytes());
        assert_eq!(
            decode_cluster_frame(&recrc(wrong_version)),
            Err(BlobError::UnsupportedVersion(9))
        );

        let mut wrong_kind = good.clone();
        wrong_kind[6] = 7;
        assert_eq!(
            decode_cluster_frame(&recrc(wrong_kind)),
            Err(BlobError::Inconsistent("unknown frame kind"))
        );

        // Forged counts length (after magic, version, kind and three u64
        // fields) far beyond the buffer: refused by the explicit bound
        // check, with no allocation sized from it.
        let mut forged = good.clone();
        forged[31..39].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode_cluster_frame(&recrc(forged)),
            Err(BlobError::Inconsistent("declared count vs length"))
        );

        // A zero or oversized socket length prefix is refused before
        // any read is sized from it.
        let mut zero = &[0u8, 0, 0, 0][..];
        assert_eq!(
            read_cluster_frame(&mut zero),
            Err(BlobError::Inconsistent("frame length out of range"))
        );
        let huge = (MAX_CLUSTER_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut huge = &huge[..];
        assert_eq!(
            read_cluster_frame(&mut huge),
            Err(BlobError::Inconsistent("frame length out of range"))
        );
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        // A worker that has ingested nothing still ships a valid frame:
        // zero reports, an empty-universe counts blob, no ring — and an
        // empty ring variant too.
        let agg = Aggregator::from_region_tiles(vec![0u16, 3, 7, 11]);
        let counts = agg.into_counts();
        let ring = WindowedAggregator::new(
            vec![0u16, 3, 7, 11],
            WindowConfig {
                window_len: 60,
                num_windows: 4,
            },
        );
        for ring_blob in [None, Some(ring.encode_ring())] {
            let snap = WorkerSnapshot {
                epoch: 0,
                watermark: 0,
                reports: 0,
                counts: counts.encode_snapshot(),
                ring: ring_blob,
            };
            let frame = ClusterFrame::Snapshot(snap.clone());
            let back = decode_cluster_frame(&encode_cluster_frame(&frame)).unwrap();
            assert_eq!(back, frame);
            let ClusterFrame::Snapshot(back) = back else {
                unreachable!()
            };
            assert_eq!(back.decode_counts().unwrap().num_reports, 0);
        }
    }
}
