//! The single-threaded layer replay of a traced run: the workload's own
//! trajectories, reports and frames pushed through each layer's public
//! functions in isolation, one cost line per layer. Nothing here runs
//! in an untraced run.

use crate::gen::{mix, Wire, World, BATCH_MAX};
use crate::metrics::Outcome;
use crate::stats;
use crate::sys;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::IoSlice;
use std::time::{Duration, Instant};
use trajshare_aggregate::{
    decode_cluster_frame, encode_cluster_frame, read_snapshot_file, window_divergence,
    write_snapshot_file, AggregateCounts, Aggregator, AllocationPolicy, BatchEncoder, ClusterFrame,
    EstimatorBackend, EvalConfig, MobilityModel, Report, ReportBatch, StreamDecoder,
    StreamingEstimator, Synthesizer, WindowBudgetAccountant, WindowBudgetConfig, WindowConfig,
    WindowedAggregator, WorkerSnapshot,
};
use trajshare_cluster::{report_key, HashRing};
use trajshare_core::{crc, vio, Mechanism, RegionId};
use trajshare_mech::ExponentialMechanism;
use trajshare_model::{Trajectory, TrajectorySet};
use trajshare_query::{ahd, extract_hotspots, preservation_range, OdMatrix, PrqDimension};
use trajshare_service::{replay_wal, WalWriter};

/// Trajectories the publication step synthesizes and queries.
pub const PUBLISH_TRAJECTORIES: usize = 2_000;
/// Wall time each replayed layer is given, at least.
const LAYER_BUDGET: Duration = Duration::from_millis(40);

pub struct ReplayInput<'a> {
    pub world: &'a World,
    /// The workload's trajectories, index-paired with `reports`.
    pub set: &'a TrajectorySet,
    pub reports: &'a [Report],
    /// The workload's own pre-encoded traffic.
    pub wires: &'a [Wire],
    pub seed: u64,
    /// Trajectories the full mechanism is timed on (Table 3 columns).
    pub share_samples: usize,
    /// A model and its cold-solve time when the workload already paid
    /// for one; otherwise the replay solves cold itself.
    pub model: Option<(MobilityModel, f64)>,
}

/// Mean ns per unit of `pass`, which handles `units` units per call:
/// one warm-up call, then calls until the layer's budget is spent.
fn ns_per_unit(units: u64, mut pass: impl FnMut()) -> f64 {
    pass();
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls < 2 || t0.elapsed() < LAYER_BUDGET {
        pass();
        calls += 1;
    }
    t0.elapsed().as_nanos() as f64 / (calls * units.max(1)) as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The first `n` real trajectories and a synthetic set paired with them
/// by length, plus the per-trajectory synthesis cost, µs.
pub fn synthesize_sample(
    world: &World,
    set: &TrajectorySet,
    model: &MobilityModel,
    n: usize,
    seed: u64,
) -> (TrajectorySet, TrajectorySet, f64) {
    let real: TrajectorySet = set.all().iter().take(n).cloned().collect();
    let lens: Vec<usize> = real.all().iter().map(Trajectory::len).collect();
    let synthesizer = Synthesizer::new(
        &world.dataset,
        world.mech.regions(),
        world.mech.graph(),
        model,
    );
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x7379_6e74));
    let t0 = Instant::now();
    let synthetic = synthesizer.synthesize_matching(&lens, &mut rng);
    let us = t0.elapsed().as_secs_f64() * 1e6 / lens.len().max(1) as f64;
    (real, synthetic, us)
}

/// The §6 queries one publication answers, timed one by one; returns
/// `(prq_ms, hotspot_ms, od_ms)` and records the utility scores.
pub fn answer_queries(
    world: &World,
    real: &TrajectorySet,
    synthetic: &TrajectorySet,
    out: Option<&mut Outcome>,
) -> (f64, f64, f64) {
    let cfg = EvalConfig::default();
    let ds = &world.dataset;
    let t0 = Instant::now();
    let prq = [
        PrqDimension::Space(cfg.space_delta_m),
        PrqDimension::Time(cfg.time_delta_min),
        PrqDimension::Category(cfg.category_delta),
    ]
    .map(|dim| preservation_range(ds, real.all(), synthetic.all(), dim));
    let prq_ms = ms(t0.elapsed());
    let t1 = Instant::now();
    let real_hot = extract_hotspots(ds, real, cfg.hotspot_scope, cfg.hotspot_eta);
    let synth_hot = extract_hotspots(ds, synthetic, cfg.hotspot_scope, cfg.hotspot_eta);
    let hotspot_ahd = ahd(&real_hot, &synth_hot);
    let hotspot_ms = ms(t1.elapsed());
    let t2 = Instant::now();
    let od_l1 = OdMatrix::build(ds, real.all(), cfg.od_gs).l1_distance(&OdMatrix::build(
        ds,
        synthetic.all(),
        cfg.od_gs,
    ));
    let od_ms = ms(t2.elapsed());
    if let Some(out) = out {
        out.set("quality.prq_space", prq[0]);
        out.set("quality.prq_time", prq[1]);
        out.set("quality.prq_category", prq[2]);
        // No hotspots on either side: the paper's exclusion rule,
        // resolved as the worst distance (24 h).
        out.set("quality.hotspot_ahd", hotspot_ahd.unwrap_or(24.0));
        out.set("quality.od_l1", od_l1);
    }
    (prq_ms, hotspot_ms, od_ms)
}

/// Table 3's columns on the paper's full mechanism: per-trajectory
/// totals (ms) for the caller's percentiles, stage means into `out`.
pub fn share_sample(
    world: &World,
    set: &TrajectorySet,
    n: usize,
    seed: u64,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x7368_6172));
    let mut totals = Vec::with_capacity(n);
    let (mut perturb, mut prep, mut solve, mut other) = (0.0, 0.0, 0.0, 0.0);
    for t in set.all().iter().take(n) {
        let t0 = Instant::now();
        let shared = world.mech.perturb(t, &mut rng);
        totals.push(ms(t0.elapsed()));
        perturb += shared.timings.perturb.as_secs_f64();
        prep += shared.timings.reconstruct_prep.as_secs_f64();
        solve += shared.timings.optimal_reconstruct.as_secs_f64();
        other += shared.timings.other.as_secs_f64();
        std::hint::black_box(shared.trajectory);
    }
    let per = 1e6 / totals.len().max(1) as f64;
    out.set("core.share_perturb_us", perturb * per);
    out.set("core.share_prep_us", prep * per);
    out.set("core.share_solve_us", solve * per);
    out.set("core.share_other_us", other * per);
    totals
}

fn device_layers(input: &ReplayInput, out: &mut Outcome) {
    let world = input.world;
    let sample: Vec<&Trajectory> = input.set.all().iter().take(512).collect();
    let mut rng = StdRng::seed_from_u64(mix(input.seed, 0x7261_7700));
    let raw_ns = ns_per_unit(sample.len() as u64, || {
        for t in &sample {
            std::hint::black_box(world.mech.perturb_raw(t, &mut rng));
        }
    });
    out.set("core.perturb_raw_us", raw_ns / 1e3);

    // One EM draw over a region's distance row at the smallest ε′ the
    // traffic uses (|τ| = 8).
    let n = world.graph.num_regions();
    let em = ExponentialMechanism::new(world.mech.eps_prime(8), world.graph.distance.dmax());
    let rows: Vec<Vec<f64>> = (0..n.min(16))
        .map(|a| {
            (0..n)
                .map(|b| {
                    world
                        .graph
                        .distance
                        .get(RegionId(a as u32), RegionId(b as u32))
                })
                .collect()
        })
        .collect();
    out.set(
        "mech.em_sample_ns",
        ns_per_unit(rows.len() as u64, || {
            for row in &rows {
                std::hint::black_box(em.sample_by_distance(row, &mut rng));
            }
        }),
    );
    // A workload that times the full mechanism itself passes 0.
    if input.share_samples > 0 {
        share_sample(world, input.set, input.share_samples, input.seed, out);
    }
}

fn codec_layers(input: &ReplayInput, out: &mut Outcome) -> Vec<ReportBatch> {
    let reports = input.reports;
    let n = reports.len() as u64;
    let wire_bytes: usize = input.wires.iter().map(|w| w.bytes.len()).sum();
    out.set(
        "core.crc_ns_per_kib",
        ns_per_unit(1, || {
            for w in input.wires {
                std::hint::black_box(crc::crc32(&w.bytes));
            }
        }) / (wire_bytes as f64 / 1024.0),
    );

    // Scatter-gather submission as the client does it: a (prefix,
    // payload) pair per frame, 512 frames per call, into memory.
    let frames: u64 = input.wires.iter().map(|w| w.frames.len() as u64).sum();
    let mut sink = Vec::with_capacity(wire_bytes);
    out.set(
        "core.vio_writev_ns_per_frame",
        ns_per_unit(frames, || {
            sink.clear();
            for w in input.wires {
                for chunk in w.frames.chunks(512) {
                    let mut io: Vec<IoSlice> = chunk
                        .iter()
                        .flat_map(|f| {
                            [
                                IoSlice::new(&w.bytes[f.start..f.start + 4]),
                                IoSlice::new(&w.bytes[f.start + 4..f.end]),
                            ]
                        })
                        .collect();
                    vio::write_all_vectored(&mut sink, &mut io).expect("write to memory");
                }
            }
        }),
    );

    let mut buf = Vec::with_capacity(reports.len() * 128);
    out.set(
        "aggregate.report.encode_ns",
        ns_per_unit(n, || {
            buf.clear();
            for r in reports {
                r.encode_frame_into(&mut buf);
            }
        }),
    );
    let single_wire = buf.clone();
    out.set(
        "aggregate.report.decode_ns",
        ns_per_unit(n, || {
            let mut dec = StreamDecoder::new();
            dec.extend(&single_wire);
            while let Some(r) = dec.next_report().expect("own encoding decodes") {
                std::hint::black_box(r);
            }
        }),
    );

    out.set(
        "aggregate.batch.encode_ns",
        ns_per_unit(n, || {
            buf.clear();
            let mut enc = BatchEncoder::new(BATCH_MAX);
            for r in reports {
                enc.push(r, &mut buf);
            }
            enc.flush(&mut buf);
        }),
    );
    // The same reports, in the same order, as the batch encoder frames
    // them (for single-frame workloads this is the road not taken).
    let batched = Wire::encode(reports, BATCH_MAX);
    let mut scratch = ReportBatch::new();
    out.set(
        "aggregate.batch.decode_ns",
        ns_per_unit(n, || {
            for f in &batched.frames {
                scratch
                    .decode_payload_into(&batched.bytes[f.start + 4..f.end])
                    .expect("own encoding decodes");
            }
        }),
    );
    batched
        .frames
        .iter()
        .map(|f| {
            let mut b = ReportBatch::new();
            b.decode_payload_into(&batched.bytes[f.start + 4..f.end])
                .expect("own encoding decodes");
            b
        })
        .collect()
}

/// Ring depth the replay (and the cluster and city workloads) use.
pub const RING_WINDOWS: usize = 8;

fn counter_layers(
    input: &ReplayInput,
    batches: &[ReportBatch],
    out: &mut Outcome,
) -> AggregateCounts {
    let tiles = &input.world.tiles;
    let reports = input.reports;
    let n = reports.len() as u64;
    let mut agg = Aggregator::from_region_tiles(tiles.clone());
    out.set(
        "aggregate.ingest.columnar_ns",
        ns_per_unit(n, || {
            for b in batches {
                agg.ingest_columnar(b);
            }
        }),
    );
    out.set(
        "aggregate.ingest.single_ns",
        ns_per_unit(n, || {
            for r in reports {
                agg.ingest(r);
            }
        }),
    );
    let counts = {
        let mut once = Aggregator::from_region_tiles(tiles.clone());
        once.ingest_batch(reports);
        once.into_counts()
    };
    let mut acc = counts.clone();
    out.set(
        "core.kernels_merge_us",
        ns_per_unit(1, || acc.merge(&counts)) / 1e3,
    );

    let window = WindowConfig {
        window_len: 1,
        num_windows: RING_WINDOWS,
    };
    let mut ring = WindowedAggregator::new(tiles.clone(), window);
    out.set(
        "aggregate.stream.ingest_batch_ns",
        ns_per_unit(n, || {
            for b in batches {
                ring.ingest_batch(b);
            }
        }),
    );
    // A ring with every window live: the pool spread over the span.
    let mut full = WindowedAggregator::new(tiles.clone(), window);
    for (i, r) in reports.iter().enumerate() {
        full.ingest(&r.clone().at((i % RING_WINDOWS) as u64));
    }
    let mut advance_us = Vec::new();
    let mut merge_us = Vec::new();
    for _ in 0..16 {
        let mut ring = full.clone();
        let t0 = Instant::now();
        ring.advance_to(ring.newest_window() + 1);
        advance_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let mut ring = full.clone();
        let t0 = Instant::now();
        ring.merge_ring(&full);
        merge_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out.set("aggregate.stream.advance_us", stats::median(&advance_us));
    out.set("aggregate.stream.merge_ring_us", stats::median(&merge_us));
    let blob = full.encode_ring();
    out.set("aggregate.stream.ring_bytes", blob.len() as f64);
    out.set(
        "aggregate.stream.ring_codec_ms",
        ns_per_unit(1, || {
            let blob = full.encode_ring();
            std::hint::black_box(
                WindowedAggregator::decode_ring(&blob, tiles, window).expect("own ring decodes"),
            );
        }) / 1e6,
    );

    // One window's budget decision as the maintenance thread makes it:
    // debiased divergence against the previous window, allocate, settle.
    let windows = full.windows();
    let (prev, cur) = (windows[windows.len() - 2].1, windows[windows.len() - 1].1);
    let mut decision_us = Vec::new();
    for round in 0..5u64 {
        let mut acct = WindowBudgetAccountant::new(WindowBudgetConfig::new(
            trajshare_aggregate::eps_to_nano(crate::gen::EPSILON * RING_WINDOWS as f64),
            RING_WINDOWS,
            AllocationPolicy::Uniform,
        ));
        let t0 = Instant::now();
        let divergence = window_divergence(Some(&input.world.graph), prev, cur);
        acct.allocate(round, divergence);
        std::hint::black_box(acct.settle(round, cur.max_eps_nano()));
        decision_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out.set("aggregate.budget.decision_us", stats::median(&decision_us));

    // Snapshot file and cluster frame round trips.
    let dir = sys::fresh_dir("replay");
    let path = dir.join("counts.snapshot");
    out.set(
        "aggregate.snapshot.codec_ms",
        ns_per_unit(1, || {
            write_snapshot_file(&path, &counts).expect("write snapshot under benchmark/out");
            std::hint::black_box(read_snapshot_file(&path).expect("own snapshot reads"));
        }) / 1e6,
    );
    out.set(
        "aggregate.snapshot.bytes",
        std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64),
    );
    let frame = ClusterFrame::Snapshot(WorkerSnapshot {
        epoch: 1,
        watermark: full.newest_window(),
        reports: counts.num_reports,
        counts: counts.encode_snapshot(),
        ring: Some(blob),
    });
    out.set(
        "aggregate.clusterproto.frame_bytes",
        encode_cluster_frame(&frame).len() as f64,
    );
    out.set(
        "aggregate.clusterproto.codec_ms",
        ns_per_unit(1, || {
            let bytes = encode_cluster_frame(&frame);
            std::hint::black_box(decode_cluster_frame(&bytes).expect("own frame decodes"));
        }) / 1e6,
    );

    // The write-ahead log on the workload's own frames: append + flush,
    // then replay.
    let wal_path = dir.join("replay.log");
    let mut appended = 0u64;
    let mut wal_bytes = 0u64;
    let append_ns = ns_per_unit(1, || {
        let mut wal = WalWriter::create(&wal_path, 1024).expect("create WAL under benchmark/out");
        appended = 0;
        for w in input.wires {
            for f in &w.frames {
                let payload = &w.bytes[f.start + 4..f.end];
                wal.append_with_crc(payload, crc::crc32(payload))
                    .expect("append to WAL");
            }
            appended += w.reports();
        }
        wal.flush().expect("flush WAL");
        wal_bytes = wal.offset();
    });
    out.set(
        "service.storage.wal_append_ns",
        append_ns / appended.max(1) as f64,
    );
    out.set(
        "service.storage.wal_bytes_per_report",
        wal_bytes as f64 / appended.max(1) as f64,
    );
    let mut replayed = Aggregator::from_region_tiles(tiles.clone());
    let replay_ns = ns_per_unit(appended, || {
        replay_wal(&wal_path, 0, |r| replayed.ingest(&r)).expect("replay own WAL");
    });
    out.set("service.storage.replay_reports_per_s", 1e9 / replay_ns);
    let _ = std::fs::remove_dir_all(&dir);

    // Placement: routing key and ring lookup per report, and how evenly
    // two workers share the pool.
    let hash_ring = HashRing::new(2, 64);
    let mut key_buf = Vec::new();
    let mut per_worker = [0u64; 2];
    out.set(
        "cluster.hash.key_ns",
        ns_per_unit(n, || {
            per_worker = [0; 2];
            for r in reports {
                key_buf.clear();
                r.encode_frame_into(&mut key_buf);
                per_worker[hash_ring.worker_for(report_key(r, &key_buf[4..]))] += 1;
            }
        }),
    );
    let busiest = per_worker.iter().copied().max().unwrap_or(0) as f64;
    out.set("cluster.hash.skew", busiest / (n as f64 / 2.0).max(1.0));
    counts
}

/// Seconds per IBU iteration on `backend`: the difference between a
/// long and a short cold solve, so channel construction cancels out.
fn iteration_us(counts: &AggregateCounts, world: &World, backend: EstimatorBackend) -> f64 {
    const SHORT: usize = 4;
    const LONG: usize = 24;
    let solve = |iters: usize| {
        let mut est = StreamingEstimator::with_backend(iters, iters, backend);
        let t0 = Instant::now();
        std::hint::black_box(est.tick(counts, &world.graph));
        t0.elapsed().as_secs_f64() * 1e6
    };
    (solve(LONG) - solve(SHORT)).max(0.0) / (LONG - SHORT) as f64
}

fn publication_layers(input: &mut ReplayInput, counts: &AggregateCounts, out: &mut Outcome) {
    let world = input.world;
    let mut est = StreamingEstimator::new();
    let (model, cold_ms) = match input.model.take() {
        Some(paid) => paid,
        None => {
            let t0 = Instant::now();
            let model = est.tick(counts, &world.graph);
            (model, ms(t0.elapsed()))
        }
    };
    out.set("aggregate.estimate.cold_ms", cold_ms);
    if !est.is_warm() {
        est.tick(counts, &world.graph);
    }
    let t0 = Instant::now();
    std::hint::black_box(est.tick(counts, &world.graph));
    out.set("aggregate.estimate.warm_ms", ms(t0.elapsed()));
    for backend in EstimatorBackend::ALL {
        out.set(
            &format!("aggregate.estimate.iter_us.{}", backend.name()),
            iteration_us(counts, world, backend),
        );
    }
    out.note("estimate.regions", world.graph.num_regions());
    out.note("estimate.feasible_bigrams", world.graph.num_bigrams());

    let (real, synthetic, us) =
        synthesize_sample(world, input.set, &model, PUBLISH_TRAJECTORIES, input.seed);
    out.set("aggregate.synthesize.us_per_traj", us);
    // Workloads that publish for real already scored their own output.
    let scored = out.metrics.contains_key("quality.od_l1");
    let (prq, hotspot, od) =
        answer_queries(world, &real, &synthetic, (!scored).then_some(&mut *out));
    out.set("query.prq_ms", prq);
    out.set("query.hotspot_ms", hotspot);
    out.set("query.od_ms", od);
}

/// Runs every replayed layer and records its cost line.
pub fn layers(mut input: ReplayInput, out: &mut Outcome) {
    device_layers(&input, out);
    let batches = codec_layers(&input, out);
    let counts = counter_layers(&input, &batches, out);
    publication_layers(&mut input, &counts, out);
    let frames: u64 = input.wires.iter().map(|w| w.frames.len() as u64).sum();
    let reports: u64 = input.wires.iter().map(Wire::reports).sum();
    out.set("aggregate.batch.frames", frames as f64);
    out.set(
        "aggregate.batch.reports_per_frame",
        reports as f64 / frames.max(1) as f64,
    );
}
