//! Durable, versioned binary snapshots of [`AggregateCounts`].
//!
//! A snapshot is the unit of persistence for the ingestion service: a
//! restarted (or re-sharded) server recovers exact counters by loading
//! the latest snapshot and replaying the report-log tail over it, and a
//! sharded deployment merges per-shard counter files with
//! [`merge_snapshot_files`]. A snapshot is a sealed blob — magic,
//! version, body, CRC-32, see [`trajshare_core::blob`] — and every
//! length field is checked against the body, because counter files sit
//! on disk across restarts and a silently corrupt counter is worse than
//! a missing one (it would skew every estimate debiased from it).
//!
//! Body of `TSC1` version 2 (all integers little-endian):
//!
//! ```text
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
//! ```

use crate::ingest::{AggregateCounts, TILES_PER_DAY};
use std::path::Path;
use trajshare_core::blob::{open, write_blob_atomic, BlobError, Sealer};

/// Snapshot magic ("TrajShare Counts v1").
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"TSC1";

/// The one snapshot format version this build reads and writes.
pub(crate) const SNAPSHOT_VERSION: u16 = 2;

/// The workspace-shared IEEE CRC-32 (defined once in
/// [`trajshare_core::crc`], re-exported here for the service's
/// write-ahead log records and the benchmark's oracles).
pub use trajshare_core::crc32;

impl AggregateCounts {
    /// Serializes the counters into a sealed `TSC1` blob.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        let vectors = [
            &self.occupancy,
            &self.tile_occupancy,
            &self.starts,
            &self.ends,
            &self.occupancy_exact,
            &self.transitions,
            &self.length_hist,
        ];
        let words = 7 + vectors.iter().map(|v| v.len()).sum::<usize>();
        let mut s = Sealer::new(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, words * 8);
        s.u64s(&[
            self.num_regions as u64,
            self.length_hist.len() as u64,
            self.num_reports,
            self.num_unigrams,
            self.rejected,
            self.eps_nano_sum,
            self.eps_nano_max,
        ]);
        for v in vectors {
            s.u64s(v);
        }
        s.seal()
    }

    /// Decodes [`AggregateCounts::encode_snapshot`] output, validating
    /// the envelope and size consistency before any allocation is sized
    /// from the declared fields.
    pub fn decode_snapshot(buf: &[u8]) -> Result<AggregateCounts, BlobError> {
        let mut r = open(buf, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let header = r.u64s(7)?;
        let (nr, hist_len) = (header[0], header[1]);
        // Expected body size, computed with checked arithmetic so a
        // hostile num_regions cannot overflow (nr² alone can exceed u64).
        let expect = nr
            .checked_mul(nr)
            .zip(nr.checked_mul(4 + TILES_PER_DAY as u64))
            .and_then(|(sq, lin)| sq.checked_add(lin))
            .and_then(|w| w.checked_add(hist_len))
            .and_then(|w| w.checked_mul(8));
        if expect != Some(r.remaining() as u64) {
            return Err(BlobError::Inconsistent("declared sizes vs length"));
        }
        // Sizes are now proven consistent with the buffer we hold.
        let nr = nr as usize;
        Ok(AggregateCounts {
            num_regions: nr,
            num_reports: header[2],
            num_unigrams: header[3],
            rejected: header[4],
            eps_nano_sum: header[5],
            eps_nano_max: header[6],
            occupancy: r.u64s(nr)?,
            tile_occupancy: r.u64s(nr * TILES_PER_DAY)?,
            starts: r.u64s(nr)?,
            ends: r.u64s(nr)?,
            occupancy_exact: r.u64s(nr)?,
            transitions: r.u64s(nr * nr)?,
            length_hist: r.u64s(hist_len as usize)?,
        })
    }
}

/// Writes `counts` to `path` atomically ([`write_blob_atomic`]).
pub fn write_snapshot_file(path: &Path, counts: &AggregateCounts) -> std::io::Result<()> {
    write_blob_atomic(path, &counts.encode_snapshot())
}

/// Reads and validates one snapshot file.
pub fn read_snapshot_file(path: &Path) -> Result<AggregateCounts, BlobError> {
    let bytes = std::fs::read(path)?;
    AggregateCounts::decode_snapshot(&bytes)
}

/// Loads every file and merges the counters — the re-sharding primitive:
/// per-shard counter files from any number of machines or workers fold
/// into one exact population total, provided they share a region
/// universe. Returns `Inconsistent` on a universe mismatch and `Io` if
/// `paths` is empty (there is no universe to size an empty result by).
pub fn merge_snapshot_files<P: AsRef<Path>>(paths: &[P]) -> Result<AggregateCounts, BlobError> {
    let mut iter = paths.iter();
    let first = iter
        .next()
        .ok_or_else(|| BlobError::Io("no snapshot files to merge".into()))?;
    let mut total = read_snapshot_file(first.as_ref())?;
    for path in iter {
        let next = read_snapshot_file(path.as_ref())?;
        if next.num_regions != total.num_regions {
            return Err(BlobError::Inconsistent("region universe mismatch"));
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
                Err(BlobError::BadCrc),
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
                Err(BlobError::UnsupportedVersion(v))
            );
        }
        // Wrong magic, same treatment.
        let mut wrong_magic = good.clone();
        wrong_magic[0..4].copy_from_slice(b"NOPE");
        let crc = crc32(&wrong_magic[..n - 4]);
        wrong_magic[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            AggregateCounts::decode_snapshot(&wrong_magic),
            Err(BlobError::BadMagic)
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
            Err(BlobError::Inconsistent("declared sizes vs length"))
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
            Err(BlobError::Inconsistent("region universe mismatch"))
        );
        assert!(merge_snapshot_files::<&Path>(&[]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
