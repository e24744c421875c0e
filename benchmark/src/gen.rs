//! The seeded workload generator. The programs under test receive only
//! what this module produces: a fixed public city, trajectories and
//! ε-LDP reports derived from `--seed`, pre-encoded wires in arrival
//! order, and send-time timestamp stamping. Nothing here touches
//! `results/` or any path outside the benchmark's own directory.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use trajshare_aggregate::{collect_reports, region_tiles, BatchEncoder, Report, ReportBatch};
use trajshare_core::{crc, MechanismConfig, NGramMechanism, RegionGraph};
use trajshare_datagen::{
    generate_taxi_foursquare, CityConfig, SyntheticCity, TaxiFoursquareConfig,
};
use trajshare_hierarchy::builders::foursquare;
use trajshare_model::{Dataset, TrajectorySet};

/// The city is public knowledge (POIs, regions, `W₂`), not an input the
/// seed varies: every run and every seed measures the same universe
/// (|R| = 144, |W₂| = 12 142), so timings compare across seeds. The
/// seed drives everything private — trajectories, perturbation, order.
pub const CITY_SEED: u64 = 7;
pub const NUM_POIS: usize = 300;
pub const EPSILON: f64 = 5.0;
/// Reports per `TSR4` frame the batching encoder aims for.
pub const BATCH_MAX: usize = 256;
/// Natural trajectory-length mix of the Taxi-Foursquare generator.
pub const MIXED_LENGTHS: (u32, u32) = (3, 8);
/// The all-one-length traffic the committed bench rows were built on.
pub const UNIFORM_LENGTHS: (u32, u32) = (3, 3);

/// splitmix64 finalizer: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The public side of the workload: dataset, mechanism (which owns the
/// region universe), and the server-side views of both.
pub struct World {
    pub dataset: Dataset,
    pub mech: NGramMechanism,
    pub tiles: Vec<u16>,
    pub graph: Arc<RegionGraph>,
    /// Wall time of the city generation, ms (`datagen.generate_ms`
    /// adds the trajectory generation on top).
    pub city_ms: f64,
    /// Wall time of `NGramMechanism::build`, ms.
    pub mech_build_ms: f64,
}

pub fn build_world() -> World {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(CITY_SEED);
    let city = SyntheticCity::generate(
        &CityConfig {
            num_pois: NUM_POIS,
            speed_kmh: Some(8.0),
            ..Default::default()
        },
        foursquare(),
        &mut rng,
    );
    let city_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let mech = NGramMechanism::build(
        &city.dataset,
        &MechanismConfig::default().with_epsilon(EPSILON),
    );
    let mech_build_ms = t1.elapsed().as_secs_f64() * 1e3;
    World {
        tiles: region_tiles(mech.regions()),
        graph: Arc::new(mech.graph().clone()),
        dataset: city.dataset,
        mech,
        city_ms,
        mech_build_ms,
    }
}

/// Trajectories per generation chunk; chunks are seeded independently
/// so the result does not depend on how many threads generated them.
const GEN_CHUNK: usize = 2048;

/// Generates about `n` trajectories (the generator filters invalid
/// walks, so slightly fewer may come back) with lengths in `lens`, in
/// arrival order — lengths interleave exactly as the generator draws
/// them, which is what makes mixed traffic flush batch frames early.
pub fn gen_trajectories(world: &World, n: usize, lens: (u32, u32), seed: u64) -> TrajectorySet {
    let chunks: Vec<(usize, usize)> = (0..n.div_ceil(GEN_CHUNK))
        .map(|c| (c, GEN_CHUNK.min(n - c * GEN_CHUNK)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let per_thread = chunks.len().div_ceil(threads).max(1);
    let parts: Vec<Vec<TrajectorySet>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .chunks(per_thread)
            .map(|mine| {
                scope.spawn(move || {
                    mine.iter()
                        .map(|&(c, want)| {
                            let mut rng = StdRng::seed_from_u64(mix(seed, 0x7261_6a00 + c as u64));
                            generate_taxi_foursquare(
                                &world.dataset,
                                &TaxiFoursquareConfig {
                                    num_trajectories: want,
                                    len_bounds: lens,
                                    ..Default::default()
                                },
                                &mut rng,
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut all = TrajectorySet::default();
    for set in parts.into_iter().flatten() {
        for t in set.all() {
            all.push(t.clone());
        }
    }
    all
}

/// One simulated device per trajectory: stage-1 perturbation and report
/// extraction (`collect_reports`), deterministic in `seed`.
pub fn report_pool(world: &World, set: &TrajectorySet, seed: u64) -> Vec<Report> {
    collect_reports(&world.mech, set, mix(seed, 0x7265_706f))
}

/// One frame of a pre-encoded wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef {
    /// Byte range in [`Wire::bytes`], length prefix included.
    pub start: usize,
    pub end: usize,
    /// Reports carried by all frames up to and including this one.
    pub cum_reports: u64,
}

/// A connection's pre-encoded traffic: length-prefixed frames, laid
/// out contiguously so a send group is one slice and one `write`.
pub struct Wire {
    pub bytes: Vec<u8>,
    pub frames: Vec<FrameRef>,
}

impl Wire {
    /// `TSR4` batch frames of up to `batch` reports (the encoder
    /// flushes early whenever ε′ or |τ| changes), or one `TSR3` frame
    /// per report when `batch <= 1`.
    pub fn encode(reports: &[Report], batch: usize) -> Wire {
        let mut bytes = Vec::with_capacity(reports.len() * 96);
        if batch <= 1 {
            for r in reports {
                r.encode_frame_into(&mut bytes);
            }
        } else {
            let mut enc = BatchEncoder::new(batch);
            for r in reports {
                enc.push(r, &mut bytes);
            }
            enc.flush(&mut bytes);
        }
        let mut frames = Vec::new();
        let (mut at, mut cum) = (0usize, 0u64);
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("prefix")) as usize;
            let payload = &bytes[at + 4..at + 4 + len];
            cum += if payload.starts_with(&ReportBatch::MAGIC) {
                u64::from(u32::from_le_bytes(payload[4..8].try_into().expect("count")))
            } else {
                1
            };
            frames.push(FrameRef {
                start: at,
                end: at + 4 + len,
                cum_reports: cum,
            });
            at += 4 + len;
        }
        assert_eq!(cum, reports.len() as u64, "wire lost or invented reports");
        Wire { bytes, frames }
    }

    pub fn reports(&self) -> u64 {
        self.frames.last().map_or(0, |f| f.cum_reports)
    }

    /// Reports in frame `i`.
    pub fn frame_reports(&self, i: usize) -> u64 {
        let before = if i == 0 {
            0
        } else {
            self.frames[i - 1].cum_reports
        };
        self.frames[i].cum_reports - before
    }

    /// Splits the wire into send groups of whole frames, each at most
    /// `max_bytes` (a single larger frame is its own group). Returns
    /// `(first frame, one past last frame)` pairs.
    pub fn groups(&self, max_bytes: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut first = 0;
        while first < self.frames.len() {
            let mut last = first + 1;
            while last < self.frames.len()
                && self.frames[last].end - self.frames[first].start <= max_bytes
            {
                last += 1;
            }
            out.push((first, last));
            first = last;
        }
        out
    }
}

/// FNV-1a (64-bit) over every connection's wire, in connection order:
/// two runs that print the same value replayed the same byte stream.
/// Not a CRC-32 on purpose — every `TSR4` frame ends in its own
/// CRC-32, and a CRC over such frames depends on their lengths only.
pub fn wire_fingerprint(wires: &[Wire]) -> u64 {
    wires
        .iter()
        .flat_map(|w| w.bytes.iter())
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Byte offset of the base timestamp inside a `TSR4` payload (magic 4 +
/// count 4).
const TSR4_T_OFFSET: usize = 8;

/// Re-stamps one length-prefixed `TSR4` frame with base timestamp `t`
/// and repairs its trailing CRC-32 — the send-time stamping of the
/// open-loop workload. Per-report deltas are relative to the base, so
/// a frame encoded at `t = 0` lands wholly at `t`.
pub fn stamp_frame(frame: &mut [u8], t: u64) {
    let payload = &mut frame[4..];
    debug_assert!(payload.starts_with(&ReportBatch::MAGIC));
    payload[TSR4_T_OFFSET..TSR4_T_OFFSET + 8].copy_from_slice(&t.to_le_bytes());
    let body = payload.len() - 4;
    let crc = crc::crc32(&payload[..body]);
    payload[body..].copy_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(len: u16, eps: f64, seed: u32) -> Report {
        Report {
            t: 0,
            eps_prime: eps,
            len,
            unigrams: (0..len).map(|p| (p, (seed + u32::from(p)) % 5)).collect(),
            exact: vec![(0, seed % 5)],
            transitions: vec![(seed % 5, (seed + 1) % 5)],
        }
    }

    #[test]
    fn wire_frames_cover_every_report_and_flush_on_key_change() {
        // Same key throughout: one frame per BATCH of 4.
        let same: Vec<Report> = (0..10).map(|i| toy(3, 1.0, i)).collect();
        let w = Wire::encode(&same, 4);
        assert_eq!(w.frames.len(), 3);
        assert_eq!(w.reports(), 10);
        assert_eq!((w.frame_reports(0), w.frame_reports(2)), (4, 2));
        // Alternating lengths: the key changes on every report.
        let alt: Vec<Report> = (0..10).map(|i| toy(3 + (i % 2) as u16, 1.0, i)).collect();
        let w = Wire::encode(&alt, 4);
        assert_eq!(w.frames.len(), 10);
        // Single-report frames.
        let w = Wire::encode(&same, 1);
        assert_eq!(w.frames.len(), 10);
        assert_eq!(w.frames.last().unwrap().end, w.bytes.len());
    }

    #[test]
    fn groups_are_whole_frames_within_the_byte_cap() {
        let reports: Vec<Report> = (0..50).map(|i| toy(3 + (i % 3) as u16, 1.0, i)).collect();
        let w = Wire::encode(&reports, 8);
        let groups = w.groups(300);
        assert_eq!(groups.first().unwrap().0, 0);
        assert_eq!(groups.last().unwrap().1, w.frames.len());
        for pair in groups.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "groups tile the wire");
        }
        for &(a, b) in &groups {
            let bytes = w.frames[b - 1].end - w.frames[a].start;
            assert!(bytes <= 300 || b - a == 1);
        }
    }

    #[test]
    fn stamped_frames_still_validate_and_carry_the_new_time() {
        let reports: Vec<Report> = (0..6).map(|i| toy(4, 0.5, i)).collect();
        let mut w = Wire::encode(&reports, 256);
        assert_eq!(w.frames.len(), 1);
        let f = w.frames[0];
        stamp_frame(&mut w.bytes[f.start..f.end], 12_345);
        let mut batch = ReportBatch::new();
        batch
            .decode_payload_into(&w.bytes[f.start + 4..f.end])
            .expect("stamped frame passes CRC and structure checks");
        assert_eq!(batch.num_reports(), 6);
        assert!((0..6).all(|i| batch.t_of(i) == 12_345));
    }

    #[test]
    fn wire_fingerprint_sees_content_behind_frame_checksums() {
        let a: Vec<Report> = (0..6).map(|i| toy(4, 0.5, i)).collect();
        let b: Vec<Report> = (0..6).map(|i| toy(4, 0.5, i + 1)).collect();
        let (wa, wb) = (Wire::encode(&a, 256), Wire::encode(&b, 256));
        assert_eq!(
            wa.bytes.len(),
            wb.bytes.len(),
            "same shape, different regions"
        );
        assert_ne!(wire_fingerprint(&[wa]), wire_fingerprint(&[wb]));
    }

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(mix(3, 1), mix(3, 1));
        assert_ne!(mix(3, 1), mix(3, 2));
        assert_ne!(mix(3, 1), mix(4, 1));
    }
}
