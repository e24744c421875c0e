//! Durable, versioned binary snapshots of [`AggregateCounts`].
//!
//! A snapshot is the unit of persistence for the ingestion service: a
//! restarted (or re-sharded) server recovers exact counters by loading
//! the latest snapshot and replaying the report-log tail over it, and a
//! sharded deployment merges per-shard counter files with
//! [`merge_snapshot_files`]. The format is fully self-validating — magic,
//! version, size-consistency checks on every length field, and a trailing
//! CRC-32 over the whole payload — because counter files sit on disk
//! across restarts and a silently corrupt counter is worse than a missing
//! one (it would skew every estimate debiased from it).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "TSC1"            4 bytes
//! version                 u16   (currently 2)
//! num_regions             u64
//! length_hist length      u64
//! num_reports             u64
//! num_unigrams            u64
//! rejected                u64
//! eps_nano_sum            u64
//! eps_nano_max            u64
//! occupancy               num_regions × u64
//! tile_occupancy          num_regions × 24 × u64
//! starts                  num_regions × u64
//! ends                    num_regions × u64
//! occupancy_exact         num_regions × u64
//! transitions             num_regions² × u64
//! length_hist             hist_len × u64
//! crc32                   u32   (IEEE, over every preceding byte)
//! ```

use crate::ingest::{AggregateCounts, TILES_PER_DAY};
use std::io::Write;
use std::path::Path;

/// Snapshot magic ("TrajShare Counts v1").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TSC1";

/// The one snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u16 = 2;

/// Fixed-size portion of a snapshot: magic + version + seven u64
/// scalars.
const SNAPSHOT_HEADER_LEN: usize = 4 + 2 + 7 * 8;

/// Why reading a snapshot failed. As with report decoding, every variant
/// other than `Io` means the bytes can never become a valid snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Buffer shorter than the minimum self-describing snapshot.
    Truncated,
    /// Magic bytes do not match [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Version field is not one this build reads.
    UnsupportedVersion(u16),
    /// The trailing CRC-32 does not match the payload.
    BadCrc,
    /// Declared sizes disagree with the buffer length (including sizes so
    /// large their byte count overflows).
    Inconsistent,
    /// Underlying filesystem error (message-only, for test comparability).
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "snapshot magic invalid"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot version {v} not supported")
            }
            SnapshotError::BadCrc => write!(f, "snapshot CRC mismatch"),
            SnapshotError::Inconsistent => write!(f, "snapshot size fields inconsistent"),
            SnapshotError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// The workspace-shared IEEE CRC-32 (defined once in
/// [`trajshare_core::crc`], re-exported here for snapshots, the window
/// ring, the budget ledger, and the service's write-ahead log records).
pub use trajshare_core::crc32;

fn push_u64s(out: &mut Vec<u8>, values: &[u64]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reads `n` little-endian u64s starting at `*off`, advancing it. The
/// caller has already proven the buffer long enough.
fn read_u64s(buf: &[u8], off: &mut usize, n: usize) -> Vec<u64> {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(u64::from_le_bytes(buf[*off..*off + 8].try_into().unwrap()));
        *off += 8;
    }
    v
}

impl AggregateCounts {
    /// Serializes the counters into the self-validating snapshot format.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        let nr = self.num_regions as u64;
        let words = 7
            + self.occupancy.len()
            + self.tile_occupancy.len()
            + self.starts.len()
            + self.ends.len()
            + self.occupancy_exact.len()
            + self.transitions.len()
            + self.length_hist.len();
        let mut out = Vec::with_capacity(6 + words * 8 + 4);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        push_u64s(
            &mut out,
            &[
                nr,
                self.length_hist.len() as u64,
                self.num_reports,
                self.num_unigrams,
                self.rejected,
                self.eps_nano_sum,
                self.eps_nano_max,
            ],
        );
        push_u64s(&mut out, &self.occupancy);
        push_u64s(&mut out, &self.tile_occupancy);
        push_u64s(&mut out, &self.starts);
        push_u64s(&mut out, &self.ends);
        push_u64s(&mut out, &self.occupancy_exact);
        push_u64s(&mut out, &self.transitions);
        push_u64s(&mut out, &self.length_hist);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes [`AggregateCounts::encode_snapshot`] output, validating
    /// CRC, magic, version, and size consistency before any allocation is
    /// sized from the declared fields.
    pub fn decode_snapshot(buf: &[u8]) -> Result<AggregateCounts, SnapshotError> {
        if buf.len() < SNAPSHOT_HEADER_LEN + 4 {
            return Err(SnapshotError::Truncated);
        }
        let (payload, crc_bytes) = buf.split_at(buf.len() - 4);
        let stored_crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32(payload) != stored_crc {
            return Err(SnapshotError::BadCrc);
        }
        if payload[0..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes(payload[4..6].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let mut off = 6;
        let header = read_u64s(payload, &mut off, 7);
        let (nr, hist_len) = (header[0], header[1]);
        // Expected payload size, computed with checked arithmetic so a
        // hostile num_regions cannot overflow (nr² alone can exceed u64).
        let vec_words = nr
            .checked_mul(nr)
            .and_then(|sq| {
                nr.checked_mul(4 + TILES_PER_DAY as u64)
                    .map(|lin| (sq, lin))
            })
            .and_then(|(sq, lin)| sq.checked_add(lin))
            .and_then(|w| w.checked_add(hist_len));
        let expect = vec_words
            .and_then(|w| w.checked_mul(8))
            .and_then(|b| b.checked_add(SNAPSHOT_HEADER_LEN as u64));
        match expect {
            Some(e) if e == payload.len() as u64 => {}
            _ => return Err(SnapshotError::Inconsistent),
        }
        // Sizes are now proven consistent with the buffer we hold.
        let nr = nr as usize;
        let hist_len = hist_len as usize;
        let counts = AggregateCounts {
            num_regions: nr,
            num_reports: header[2],
            num_unigrams: header[3],
            rejected: header[4],
            eps_nano_sum: header[5],
            eps_nano_max: header[6],
            occupancy: read_u64s(payload, &mut off, nr),
            tile_occupancy: read_u64s(payload, &mut off, nr * TILES_PER_DAY),
            starts: read_u64s(payload, &mut off, nr),
            ends: read_u64s(payload, &mut off, nr),
            occupancy_exact: read_u64s(payload, &mut off, nr),
            transitions: read_u64s(payload, &mut off, nr * nr),
            length_hist: read_u64s(payload, &mut off, hist_len),
        };
        Ok(counts)
    }
}

/// The workspace's one atomic small-file write: `bytes` go to a sibling
/// `.tmp` file, are fsynced, and are renamed over `path`. A crash
/// mid-write leaves either the old file or none — never a torn one (and
/// every blob written this way self-validates with a CRC anyway).
pub fn write_blob_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Writes `counts` to `path` atomically ([`write_blob_atomic`]).
pub fn write_snapshot_file(path: &Path, counts: &AggregateCounts) -> std::io::Result<()> {
    write_blob_atomic(path, &counts.encode_snapshot())
}

/// Reads and validates one snapshot file.
pub fn read_snapshot_file(path: &Path) -> Result<AggregateCounts, SnapshotError> {
    let bytes = std::fs::read(path)?;
    AggregateCounts::decode_snapshot(&bytes)
}

/// Loads every file and merges the counters — the re-sharding primitive:
/// per-shard counter files from any number of machines or workers fold
/// into one exact population total, provided they share a region
/// universe. Returns `Inconsistent` on a universe mismatch and `Io` if
/// `paths` is empty (there is no universe to size an empty result by).
pub fn merge_snapshot_files<P: AsRef<Path>>(paths: &[P]) -> Result<AggregateCounts, SnapshotError> {
    let mut iter = paths.iter();
    let first = iter
        .next()
        .ok_or_else(|| SnapshotError::Io("no snapshot files to merge".into()))?;
    let mut total = read_snapshot_file(first.as_ref())?;
    for path in iter {
        let next = read_snapshot_file(path.as_ref())?;
        if next.num_regions != total.num_regions {
            return Err(SnapshotError::Inconsistent);
        }
        total.merge(&next);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;
    use crate::Aggregator;

    fn toy_counts(seed: u64) -> AggregateCounts {
        let mut agg = Aggregator::from_region_tiles(vec![0, 3, 7, 11]);
        for i in 0..40u32 {
            let a = (i.wrapping_mul(7).wrapping_add(seed as u32)) % 4;
            let b = (a + 1) % 4;
            agg.ingest(&Report {
                t: 0,
                eps_prime: 0.5 + (i % 5) as f64 * 0.125,
                len: 2,
                unigrams: vec![(0, a), (1, b)],
                exact: vec![(0, a), (1, b)],
                transitions: vec![(a, b)],
            });
        }
        agg.into_counts()
    }

    #[test]
    fn snapshot_roundtrip_is_exact() {
        let counts = toy_counts(1);
        let buf = counts.encode_snapshot();
        assert_eq!(AggregateCounts::decode_snapshot(&buf).unwrap(), counts);
        // Empty counters roundtrip too (fresh server snapshotting early).
        let empty = AggregateCounts::new(0);
        let buf = empty.encode_snapshot();
        assert_eq!(AggregateCounts::decode_snapshot(&buf).unwrap(), empty);
    }

    #[test]
    fn corruption_is_rejected() {
        let counts = toy_counts(2);
        let good = counts.encode_snapshot();
        // Any single flipped bit anywhere fails the CRC (sampled stride
        // to keep the test fast).
        for i in (0..good.len() - 4).step_by(17) {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                AggregateCounts::decode_snapshot(&bad),
                Err(SnapshotError::BadCrc),
                "flipped byte {i}"
            );
        }
        // Truncation at every sampled prefix is rejected without panics.
        for i in (0..good.len()).step_by(13) {
            assert!(AggregateCounts::decode_snapshot(&good[..i]).is_err());
        }
        // Wrong version (with a recomputed CRC, so only the version check
        // can object) — the never-shipped version 1 included.
        let n = good.len();
        for v in [1u16, 9] {
            let mut wrong_version = good.clone();
            wrong_version[4..6].copy_from_slice(&v.to_le_bytes());
            let crc = crc32(&wrong_version[..n - 4]);
            wrong_version[n - 4..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(
                AggregateCounts::decode_snapshot(&wrong_version),
                Err(SnapshotError::UnsupportedVersion(v))
            );
        }
        // Wrong magic, same treatment.
        let mut wrong_magic = good.clone();
        wrong_magic[0..4].copy_from_slice(b"NOPE");
        let crc = crc32(&wrong_magic[..n - 4]);
        wrong_magic[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            AggregateCounts::decode_snapshot(&wrong_magic),
            Err(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn hostile_num_regions_cannot_overflow() {
        // Forge a minimal buffer claiming u64::MAX regions with a valid
        // CRC: the checked size arithmetic must reject it rather than
        // overflow or attempt a galactic allocation.
        let mut forged = Vec::new();
        forged.extend_from_slice(&SNAPSHOT_MAGIC);
        forged.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        for v in [u64::MAX, 0, 0, 0, 0, 0, 0] {
            forged.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&forged);
        forged.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            AggregateCounts::decode_snapshot(&forged),
            Err(SnapshotError::Inconsistent)
        );
    }

    #[test]
    fn file_roundtrip_and_merge() {
        let dir = std::env::temp_dir().join(format!("trajshare-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = toy_counts(1);
        let b = toy_counts(5);
        let pa = dir.join("a.counts");
        let pb = dir.join("b.counts");
        write_snapshot_file(&pa, &a).unwrap();
        write_snapshot_file(&pb, &b).unwrap();
        assert_eq!(read_snapshot_file(&pa).unwrap(), a);

        let merged = merge_snapshot_files(&[&pa, &pb]).unwrap();
        let mut direct = a.clone();
        direct.merge(&b);
        assert_eq!(merged, direct);

        // Universe mismatch is detected.
        let other = AggregateCounts::new(9);
        let pc = dir.join("c.counts");
        write_snapshot_file(&pc, &other).unwrap();
        assert_eq!(
            merge_snapshot_files(&[&pa, &pc]),
            Err(SnapshotError::Inconsistent)
        );
        assert!(merge_snapshot_files::<&Path>(&[]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
