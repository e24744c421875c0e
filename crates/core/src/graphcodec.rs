//! Serialization of the region-level n-gram universe.
//!
//! A deployed collector does not hold the dataset: it is configured with
//! *public* mechanism outputs only. Until now that meant the per-region
//! hour-tile table (`--regions N` on the daemon, everything else
//! degraded), which was enough to aggregate but not to **estimate** — the
//! debiasing channel needs the region distance matrix, and the mobility
//! model needs `W₂`. This module gives the full [`RegionGraph`] (distance
//! matrix, `dmax`, feasible-bigram adjacency) plus the tile table a
//! self-validating wire form, so a dataset-less daemon can be handed one
//! file and run the entire estimation chain live.
//!
//! Everything in the blob is public knowledge in the paper's threat model
//! (the decomposition and `W₂` are derived from public POI data, §5.3),
//! so shipping it to an untrusted collector leaks nothing.
//!
//! ## Format (`TSRG` version 1, a [`crate::blob`] sealed blob)
//!
//! | body field | bytes |
//! |---|---|
//! | `n` = number of regions (`u64`) | 8 |
//! | `b` = number of `W₂` bigrams (`u64`) | 8 |
//! | hour tile per region (`u16` × n) | 2·n |
//! | distance matrix row-major (`f32` × n²) | 4·n² |
//! | bigram pairs `(tail, head)` (`u32`+`u32` × b) | 8·b |
//!
//! Decoding validates the exact length, tile range (< 24), matrix
//! finiteness/non-negativity, and bigram bounds before any graph is
//! built — a corrupt or hostile file is refused, never mis-indexed.

use crate::blob::{open, write_blob_atomic, BlobError, Sealer};
use crate::distances::RegionDistance;
use crate::regiongraph::RegionGraph;
use std::path::Path;

/// Region-graph blob magic ("TrajShare Region Graph").
pub(crate) const GRAPH_MAGIC: [u8; 4] = *b"TSRG";
/// Region-graph blob version.
pub(crate) const GRAPH_VERSION: u16 = 1;
/// Hour tiles per day — tile values must stay below this (the aggregate
/// layer indexes a 24-slot row per region with them).
const TILES_PER_DAY: u16 = 24;

/// Serializes a region graph plus its public hour-tile table into the
/// `TSRG` blob. `region_tiles` must cover the graph's universe (one tile
/// per region, each < 24).
pub fn encode_region_graph(graph: &RegionGraph, region_tiles: &[u16]) -> Vec<u8> {
    let n = graph.num_regions();
    assert_eq!(region_tiles.len(), n, "one tile per region");
    assert!(
        region_tiles.iter().all(|&t| t < TILES_PER_DAY),
        "hour tiles must be < 24"
    );
    let mut s = Sealer::new(
        GRAPH_MAGIC,
        GRAPH_VERSION,
        16 + 2 * n + 4 * n * n + 8 * graph.num_bigrams(),
    );
    s.u64(n as u64).u64(graph.num_bigrams() as u64);
    for &t in region_tiles {
        s.u16(t);
    }
    for &d in graph.distance.raw_matrix() {
        s.f32(d);
    }
    for &(a, b) in &graph.bigrams {
        s.u32(a).u32(b);
    }
    s.seal()
}

/// Decodes [`encode_region_graph`] output back into a usable graph and
/// tile table, refusing anything corrupt, hostile, or inconsistent.
pub fn decode_region_graph(buf: &[u8]) -> Result<(RegionGraph, Vec<u16>), BlobError> {
    let mut r = open(buf, GRAPH_MAGIC, GRAPH_VERSION)?;
    let (n, b) = (r.u64()?, r.u64()?);
    // Exact-size check before any allocation: the declared counts must
    // account for every remaining byte, so a hostile header cannot make
    // us allocate beyond the input we already hold. Bounding the counts
    // first keeps even the u128 size arithmetic overflow-free.
    let sizes = Err(BlobError::Inconsistent("declared sizes vs length"));
    if n > u32::MAX as u64 || b > u32::MAX as u64 {
        return sizes;
    }
    let (n, b) = (n as u128, b as u128);
    if 2 * n + 4 * n * n + 8 * b != r.remaining() as u128 {
        return sizes;
    }
    let (n, b) = (n as usize, b as usize);
    if n == 0 {
        return Err(BlobError::Inconsistent("empty region universe"));
    }
    let mut tiles = Vec::with_capacity(n);
    for _ in 0..n {
        let t = r.u16()?;
        if t >= TILES_PER_DAY {
            return Err(BlobError::Inconsistent("hour tile out of range"));
        }
        tiles.push(t);
    }
    let mut matrix = Vec::with_capacity(n * n);
    for _ in 0..n * n {
        let d = r.f32()?;
        if !d.is_finite() || d < 0.0 {
            return Err(BlobError::Inconsistent("non-finite distance"));
        }
        matrix.push(d);
    }
    let mut bigrams = Vec::with_capacity(b);
    for _ in 0..b {
        let (tail, head) = (r.u32()?, r.u32()?);
        if tail as usize >= n || head as usize >= n {
            return Err(BlobError::Inconsistent("bigram out of range"));
        }
        // `W₂` is a *set*: require strictly ascending lexicographic
        // order (what `RegionGraph::build` emits), which rules out
        // duplicates — a duplicated bigram would double-weight its
        // transition in every downstream consumer (uniform-fallback
        // rows, CSR kernels, W₂ normalizers) with no error anywhere.
        if bigrams.last().is_some_and(|&prev| prev >= (tail, head)) {
            return Err(BlobError::Inconsistent("bigrams not sorted-unique"));
        }
        bigrams.push((tail, head));
    }
    r.finish()?;
    let distance = RegionDistance::from_parts(n, matrix);
    Ok((RegionGraph::from_parts(distance, bigrams), tiles))
}

/// Writes the blob to `path` atomically
/// ([`crate::blob::write_blob_atomic`]), so a crashed write never leaves
/// a torn file where a daemon would look for its universe.
pub fn write_region_graph_file(
    path: &Path,
    graph: &RegionGraph,
    region_tiles: &[u16],
) -> std::io::Result<()> {
    write_blob_atomic(path, &encode_region_graph(graph, region_tiles))
}

/// Reads and validates a region-graph file — the `ingestd
/// --region-graph` loader.
pub fn read_region_graph_file(path: &Path) -> std::io::Result<(RegionGraph, Vec<u16>)> {
    let bytes = std::fs::read(path)?;
    decode_region_graph(&bytes)
        .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MechanismConfig;
    use crate::crc::crc32;
    use crate::decomposition::decompose;
    use crate::region::RegionId;
    use trajshare_geo::{DistanceMetric, GeoPoint};
    use trajshare_hierarchy::builders::campus;
    use trajshare_model::{Dataset, Poi, PoiId, TimeDomain};

    fn world() -> (RegionGraph, Vec<u16>) {
        let h = campus();
        let leaves = h.leaves();
        let origin = GeoPoint::new(40.7, -74.0);
        let pois: Vec<Poi> = (0..40)
            .map(|i| {
                Poi::new(
                    PoiId(i),
                    format!("p{i}"),
                    origin.offset_m((i % 8) as f64 * 400.0, (i / 8) as f64 * 400.0),
                    leaves[i as usize % leaves.len()],
                )
            })
            .collect();
        let ds = Dataset::new(
            pois,
            h,
            TimeDomain::new(10),
            Some(8.0),
            DistanceMetric::Haversine,
        );
        let regions = decompose(&ds, &MechanismConfig::default());
        let graph = RegionGraph::build(&ds, &regions);
        let tiles: Vec<u16> = regions
            .all()
            .iter()
            .map(|r| (((r.time.start_min + r.time.end_min) / 2 / 60) as u16).min(23))
            .collect();
        (graph, tiles)
    }

    #[test]
    fn roundtrip_preserves_distances_tiles_and_w2() {
        let (graph, tiles) = world();
        let blob = encode_region_graph(&graph, &tiles);
        let (back, back_tiles) = decode_region_graph(&blob).unwrap();
        assert_eq!(back_tiles, tiles);
        assert_eq!(back.num_regions(), graph.num_regions());
        assert_eq!(back.num_bigrams(), graph.num_bigrams());
        assert_eq!(back.bigrams, graph.bigrams);
        let n = graph.num_regions();
        for a in 0..n {
            for b in 0..n {
                let (ra, rb) = (RegionId(a as u32), RegionId(b as u32));
                assert_eq!(back.distance.get(ra, rb), graph.distance.get(ra, rb));
            }
            assert_eq!(
                back.successors(RegionId(a as u32)),
                graph.successors(RegionId(a as u32))
            );
            assert_eq!(
                back.predecessors(RegionId(a as u32)),
                graph.predecessors(RegionId(a as u32))
            );
        }
        assert_eq!(back.distance.dmax(), graph.distance.dmax());
        // The CSR exports the estimation kernels consume agree too.
        assert_eq!(back.successor_csr(), graph.successor_csr());
    }

    #[test]
    fn corruption_and_hostile_headers_are_refused() {
        let (graph, tiles) = world();
        let blob = encode_region_graph(&graph, &tiles);
        // Any flipped payload byte fails the CRC.
        let mut bad = blob.clone();
        bad[30] ^= 0x40;
        assert_eq!(decode_region_graph(&bad).unwrap_err(), BlobError::BadCrc);
        // Truncation.
        assert!(decode_region_graph(&blob[..10]).is_err());
        // Declared sizes must cover the buffer exactly (re-CRC'd so the
        // size check itself is what fires).
        let mut hostile = blob[..blob.len() - 4].to_vec();
        hostile[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crc32(&hostile);
        hostile.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_region_graph(&hostile).unwrap_err(),
            BlobError::Inconsistent("declared sizes vs length")
        );
        // Out-of-range tile.
        let mut bad_tile = blob[..blob.len() - 4].to_vec();
        bad_tile[22..24].copy_from_slice(&99u16.to_le_bytes());
        let crc = crc32(&bad_tile);
        bad_tile.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_region_graph(&bad_tile).unwrap_err(),
            BlobError::Inconsistent("hour tile out of range")
        );
        // A duplicated W₂ bigram (would double-weight its transition in
        // every consumer) is refused, not silently accepted.
        let n = graph.num_regions();
        let pair_base = blob.len() - 4 - 8 * graph.num_bigrams();
        let mut dup = blob[..blob.len() - 4].to_vec();
        let first_pair: [u8; 8] = dup[pair_base..pair_base + 8].try_into().unwrap();
        dup[pair_base + 8..pair_base + 16].copy_from_slice(&first_pair);
        let crc = crc32(&dup);
        dup.extend_from_slice(&crc.to_le_bytes());
        assert!(n > 1 && graph.num_bigrams() > 1);
        assert_eq!(
            decode_region_graph(&dup).unwrap_err(),
            BlobError::Inconsistent("bigrams not sorted-unique")
        );
    }

    #[test]
    fn file_roundtrip() {
        let (graph, tiles) = world();
        let dir = std::env::temp_dir().join(format!("trajshare-graphcodec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campus.graph");
        write_region_graph_file(&path, &graph, &tiles).unwrap();
        let (back, back_tiles) = read_region_graph_file(&path).unwrap();
        assert_eq!(back.num_bigrams(), graph.num_bigrams());
        assert_eq!(back_tiles, tiles);
        assert!(read_region_graph_file(&dir.join("absent.graph")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
