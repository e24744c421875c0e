//! Golden bytes for every sealed blob and fixed-size control frame the
//! workspace writes: `TSC1` counts, `TSWR` window ring, `TSBA` budget
//! ledger, `TSCL` cluster frames, `TSMF` manifest, `TSSH` shard header,
//! `TSRG` region graph, and the `TSGB` / `TSGH` / `TSAK` grant-session
//! frames.
//!
//! Each blob is built from fixed inputs and compared byte for byte with
//! its file under `tests/golden/`, and each golden file decodes back to
//! those inputs. A golden file changes only together with its format's
//! version constant: a codec refactor that moves a single byte fails
//! here.

use std::path::{Path, PathBuf};
use trajshare_aggregate::{
    decode_cluster_frame, encode_cluster_frame, AggregateCounts, Aggregator, AllocationPolicy,
    ClusterFrame, GrantFrame, HelloFrame, Report, WindowBudgetAccountant, WindowBudgetConfig,
    WindowConfig, WindowedAggregator, WorkerSnapshot,
};
use trajshare_core::distances::RegionDistance;
use trajshare_core::{decode_region_graph, encode_region_graph, RegionGraph};
use trajshare_service::storage::{
    read_manifest, read_shard_counts, write_manifest, write_shard_counts,
};

const TILES: [u16; 2] = [3, 17];
const WINDOW: WindowConfig = WindowConfig {
    window_len: 60,
    num_windows: 3,
};

fn report(i: u32) -> Report {
    let a = i % 2;
    let b = 1 - a;
    Report {
        t: 60 * (i as u64 % 2),
        eps_prime: 0.5 + (i % 3) as f64 * 0.25,
        len: 2,
        unigrams: vec![(0, a), (1, b)],
        exact: vec![(0, a)],
        transitions: vec![(a, b)],
    }
}

fn counts() -> AggregateCounts {
    let mut agg = Aggregator::from_region_tiles(TILES.to_vec());
    for i in 0..5 {
        agg.ingest(&report(i));
    }
    agg.into_counts()
}

fn ring() -> WindowedAggregator {
    let mut ring = WindowedAggregator::new(TILES.to_vec(), WINDOW);
    for i in 0..5 {
        ring.ingest(&report(i));
    }
    ring.record_spend(1, 750_000_000);
    ring
}

fn accountant(policy: AllocationPolicy) -> WindowBudgetAccountant {
    let mut acct = WindowBudgetAccountant::new(WindowBudgetConfig::new(4_000_000_000, 3, policy));
    for w in 0..4 {
        acct.allocate(w, if w == 2 { 0.9 } else { 0.01 });
        acct.settle(w, 250_000_000 * (w % 2 + 1));
    }
    acct
}

fn worker_snapshot(with_ring: bool) -> WorkerSnapshot {
    let counts = counts();
    WorkerSnapshot {
        epoch: 4,
        watermark: 1,
        reports: counts.num_reports,
        counts: counts.encode_snapshot(),
        ring: with_ring.then(|| ring().encode_ring()),
    }
}

fn grant() -> GrantFrame {
    GrantFrame {
        epoch: 9,
        window: 1,
        granted_nano: 1_250_000_000,
    }
}

fn region_graph() -> RegionGraph {
    let matrix = vec![0.0, 1.5, 2.25, 1.5, 0.0, 0.75, 2.25, 0.75, 0.0];
    RegionGraph::from_parts(
        RegionDistance::from_parts(3, matrix),
        vec![(0, 1), (1, 0), (1, 2), (2, 2)],
    )
}

const GRAPH_TILES: [u16; 3] = [0, 9, 23];

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.bin"))
}

fn golden(name: &str) -> Vec<u8> {
    std::fs::read(golden_path(name)).unwrap_or_else(|e| panic!("golden {name}: {e}"))
}

fn assert_golden(name: &str, encoded: &[u8]) -> Vec<u8> {
    let want = golden(name);
    assert_eq!(encoded, &want[..], "{name}: encoding moved");
    want
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trajshare-blob-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn tsc1_counts_golden() {
    for (name, input) in [("tsc1", counts()), ("tsc1_empty", AggregateCounts::new(0))] {
        let bytes = assert_golden(name, &input.encode_snapshot());
        assert_eq!(AggregateCounts::decode_snapshot(&bytes).unwrap(), input);
    }
}

#[test]
fn tswr_ring_golden() {
    let input = ring();
    let bytes = assert_golden("tswr", &input.encode_ring());
    let back = WindowedAggregator::decode_ring(&bytes, &TILES, WINDOW).unwrap();
    assert_eq!(back, input);
    assert_eq!(back.window_spend(1), 750_000_000);
}

#[test]
fn tsba_ledger_golden() {
    for (name, policy) in [
        ("tsba_uniform", AllocationPolicy::Uniform),
        ("tsba_adaptive", AllocationPolicy::adaptive()),
    ] {
        let input = accountant(policy);
        assert!(input.decisions().count() > 0 && input.grant_history().count() > 0);
        let bytes = assert_golden(name, &input.encode());
        assert_eq!(WindowBudgetAccountant::decode(&bytes).unwrap(), input);
    }
}

#[test]
fn tscl_frames_golden() {
    for (name, input) in [
        ("tscl_pull", ClusterFrame::SnapshotPull),
        ("tscl_grant", ClusterFrame::GrantAnnounce(grant())),
        (
            "tscl_snapshot",
            ClusterFrame::Snapshot(worker_snapshot(false)),
        ),
        (
            "tscl_snapshot_ring",
            ClusterFrame::Snapshot(worker_snapshot(true)),
        ),
    ] {
        let bytes = assert_golden(name, &encode_cluster_frame(&input));
        assert_eq!(decode_cluster_frame(&bytes).unwrap(), input);
    }
}

#[test]
fn tsmf_manifest_golden() {
    let dir = scratch_dir("tsmf");
    write_manifest(&dir, 7).unwrap();
    let bytes = assert_golden("tsmf", &std::fs::read(dir.join("MANIFEST")).unwrap());
    std::fs::write(dir.join("MANIFEST"), &bytes).unwrap();
    assert_eq!(read_manifest(&dir).unwrap(), Some(7));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tssh_shard_golden() {
    let dir = scratch_dir("tssh");
    let path = dir.join("shard.counts");
    let (input, ring_blob) = (counts(), ring().encode_ring());
    write_shard_counts(&path, &input, 4096, Some(&ring_blob)).unwrap();
    let bytes = assert_golden("tssh", &std::fs::read(&path).unwrap());
    std::fs::write(&path, &bytes).unwrap();
    let (back, offset, back_ring) = read_shard_counts(&path).unwrap();
    assert_eq!((back, offset, back_ring), (input, 4096, Some(ring_blob)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tsrg_graph_golden() {
    let input = region_graph();
    let bytes = assert_golden("tsrg", &encode_region_graph(&input, &GRAPH_TILES));
    let (back, tiles) = decode_region_graph(&bytes).unwrap();
    assert_eq!(tiles, GRAPH_TILES);
    assert_eq!(back.bigrams, input.bigrams);
    assert_eq!(back.distance.raw_matrix(), input.distance.raw_matrix());
}

#[test]
fn control_frames_golden() {
    let bytes = assert_golden("tsgb", &grant().encode_frame());
    assert_eq!(&bytes[..4], &(GrantFrame::PAYLOAD_LEN as u32).to_le_bytes());
    assert_eq!(GrantFrame::decode_payload(&bytes[4..]).unwrap(), grant());

    let hello = HelloFrame::subscribe();
    let bytes = assert_golden("tsgh", &hello.encode_frame());
    assert_eq!(&bytes[..4], &(HelloFrame::PAYLOAD_LEN as u32).to_le_bytes());
    assert_eq!(HelloFrame::decode_payload(&bytes[4..]).unwrap(), hello);

    let mut ack = Vec::new();
    trajshare_aggregate::grant::encode_ack_frame_into(123_456_789, &mut ack);
    let bytes = assert_golden("tsak", &ack);
    assert_eq!(
        &bytes[..4],
        &(trajshare_aggregate::grant::ACK_PAYLOAD_LEN as u32).to_le_bytes()
    );
    assert_eq!(
        trajshare_aggregate::grant::decode_ack_payload(&bytes[4..]).unwrap(),
        123_456_789
    );
}

// ---- one never-panic suite for every envelope ---------------------------

/// One golden blob plus what the generic checks need to know about its
/// format.
struct Envelope {
    name: &'static str,
    bytes: Vec<u8>,
    /// Valid leading bytes the fuzz check keeps: magic + version for a
    /// sealed blob, the magic alone for a control payload.
    head: usize,
    /// Where the envelope's CRC ends: the whole buffer, except for the
    /// `TSSH` header, which seals only its first 26 bytes.
    sealed: Option<usize>,
    /// Offsets of the declared length and count fields (`u64` LE).
    lengths: Vec<usize>,
    decode: Box<dyn Fn(&[u8]) -> bool>,
}

impl Envelope {
    fn crc_end(&self, len: usize) -> usize {
        self.sealed.unwrap_or(len).min(len)
    }

    fn reseal(&self, buf: &mut [u8]) {
        reseal(buf, self.crc_end(buf.len()));
    }
}

/// Recomputes the CRC that ends at `end`, so only the decoder's own
/// checks can object to the bytes.
fn reseal(buf: &mut [u8], end: usize) {
    let crc = trajshare_core::crc32(&buf[..end - 4]);
    buf[end - 4..end].copy_from_slice(&crc.to_le_bytes());
}

fn u64_at(buf: &[u8], off: usize) -> usize {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()) as usize
}

/// Every golden blob with its decoder. File-based formats decode
/// through `dir`.
fn envelopes(dir: &Path) -> Vec<Envelope> {
    let blob =
        |name: &'static str, lengths: Vec<usize>, decode: Box<dyn Fn(&[u8]) -> bool>| Envelope {
            name,
            bytes: golden(name),
            head: 6,
            sealed: None,
            lengths,
            decode,
        };
    let control = |name: &'static str, decode: Box<dyn Fn(&[u8]) -> bool>| Envelope {
        name,
        bytes: golden(name)[4..].to_vec(),
        head: 4,
        sealed: None,
        lengths: vec![],
        decode,
    };
    let counts = || -> Box<dyn Fn(&[u8]) -> bool> {
        Box::new(|b| AggregateCounts::decode_snapshot(b).is_ok())
    };
    let tswr = golden("tswr");
    let second_window = 70 + 8 + u64_at(&tswr, 70) + 16;
    let ledger = |name| {
        let g = golden(name);
        let history = 80 + 25 * u64_at(&g, 72) + 8;
        blob(
            name,
            vec![72, history],
            Box::new(|b| WindowBudgetAccountant::decode(b).is_ok()),
        )
    };
    // Cluster frames decode through the socket reader, length prefix
    // included.
    let frame = || -> Box<dyn Fn(&[u8]) -> bool> {
        Box::new(|b| {
            let mut wire = (b.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(b);
            trajshare_aggregate::read_cluster_frame(&mut &wire[..]).is_ok()
        })
    };
    let manifest_dir = dir.to_path_buf();
    let shard = dir.join("shard.counts");
    let all = vec![
        blob("tsc1", vec![6, 14], counts()),
        blob("tsc1_empty", vec![6, 14], counts()),
        blob(
            "tswr",
            vec![46, 70, second_window],
            Box::new(|b| WindowedAggregator::decode_ring(b, &TILES, WINDOW).is_ok()),
        ),
        ledger("tsba_uniform"),
        ledger("tsba_adaptive"),
        blob("tscl_pull", vec![], frame()),
        blob("tscl_grant", vec![], frame()),
        blob("tscl_snapshot", vec![31], frame()),
        blob(
            "tscl_snapshot_ring",
            vec![31, 40 + u64_at(&golden("tscl_snapshot_ring"), 31)],
            frame(),
        ),
        blob(
            "tsmf",
            vec![],
            Box::new(move |b| {
                std::fs::write(manifest_dir.join("MANIFEST"), b).unwrap();
                read_manifest(&manifest_dir).is_ok()
            }),
        ),
        // The shard file was written with a ring, so a reader that finds
        // none (a prefix cut at the end of the counts) has lost data.
        Envelope {
            sealed: Some(26),
            ..blob(
                "tssh",
                vec![14],
                Box::new(move |b| {
                    std::fs::write(&shard, b).unwrap();
                    read_shard_counts(&shard).is_ok_and(|(_, _, ring)| {
                        ring.is_some_and(|r| {
                            WindowedAggregator::decode_ring(&r, &TILES, WINDOW).is_ok()
                        })
                    })
                }),
            )
        },
        blob(
            "tsrg",
            vec![6, 14],
            Box::new(|b| decode_region_graph(b).is_ok()),
        ),
        control("tsgb", Box::new(|b| GrantFrame::decode_payload(b).is_ok())),
        control("tsgh", Box::new(|b| HelloFrame::decode_payload(b).is_ok())),
        control(
            "tsak",
            Box::new(|b| trajshare_aggregate::grant::decode_ack_payload(b).is_ok()),
        ),
    ];
    for e in &all {
        assert!((e.decode)(&e.bytes), "{}: golden must decode", e.name);
    }
    all
}

#[test]
fn every_strict_prefix_is_refused() {
    let dir = scratch_dir("prefix");
    for e in envelopes(&dir) {
        for i in 0..e.bytes.len() {
            assert!(!(e.decode)(&e.bytes[..i]), "{}: prefix {i} decoded", e.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flip_at_every_byte_is_refused() {
    let dir = scratch_dir("flip");
    for e in envelopes(&dir) {
        for i in 0..e.bytes.len() {
            let mut bad = e.bytes.clone();
            bad[i] ^= 0x01;
            assert!(!(e.decode)(&bad), "{}: flip at byte {i} decoded", e.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_lengths_with_valid_crcs_are_refused() {
    let dir = scratch_dir("lengths");
    for e in envelopes(&dir) {
        for &off in &e.lengths {
            let truth = u64_at(&e.bytes, off) as u64;
            for v in [0, truth + 1, u32::MAX as u64, u64::MAX] {
                if v == truth {
                    continue;
                }
                let mut bad = e.bytes.clone();
                bad[off..off + 8].copy_from_slice(&v.to_le_bytes());
                e.reseal(&mut bad);
                assert!(!(e.decode)(&bad), "{}: length {v} at {off} decoded", e.name);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
    /// Random bytes, then valid magic and version with a random body and
    /// the CRC recomputed, so the input gets past the envelope to the
    /// field parsing, which must refuse or accept but never panic.
    #[test]
    fn random_bodies_behind_a_valid_envelope_never_panic(
        body in proptest::collection::vec(0u8..=255, 0..600),
    ) {
        let dir = scratch_dir("fuzz");
        for e in envelopes(&dir) {
            let _ = (e.decode)(&body);
            let mut forged = e.bytes[..e.head].to_vec();
            forged.extend_from_slice(&body);
            let at = e.crc_end(forged.len() + 4) - 4;
            forged.splice(at..at, [0u8; 4]);
            e.reseal(&mut forged);
            let _ = (e.decode)(&forged);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn forged_ring_window_length_is_refused() {
    // A `TSWR` ring whose first embedded snapshot claims u64::MAX bytes,
    // with a valid CRC: the length must be bounds-checked, not added to
    // the read offset.
    let mut ring = golden("tswr");
    ring[70..78].copy_from_slice(&u64::MAX.to_le_bytes());
    let end = ring.len();
    reseal(&mut ring, end);
    assert_eq!(
        WindowedAggregator::decode_ring(&ring, &TILES, WINDOW),
        Err(trajshare_core::blob::BlobError::Truncated)
    );
}

#[test]
fn budget_ledger_count_beyond_its_bytes_is_refused() {
    // A `TSBA` ledger with horizon = u64::MAX (so no count exceeds it)
    // declaring 2^58 entries, with a valid CRC: the count must be
    // checked against the bytes left before anything is allocated.
    let mut ledger = golden("tsba_uniform");
    ledger[14..22].copy_from_slice(&u64::MAX.to_le_bytes());
    ledger[72..80].copy_from_slice(&(1u64 << 58).to_le_bytes());
    let end = ledger.len();
    reseal(&mut ledger, end);
    assert_eq!(
        WindowBudgetAccountant::decode(&ledger),
        Err(trajshare_core::blob::BlobError::Inconsistent(
            "declared count vs length"
        ))
    );
}
