//! `cluster-routed`: the deployment shape — clients → `routerd` → two
//! `ingestd` workers with export listeners, a coordinator pulling and
//! estimating once a second. Three daemons' worth of threads share two
//! cores here, so the numbers are rates and counts, not a scaling claim.

use super::{Pool, RunArgs};
use crate::gen::{World, BATCH_MAX, MIXED_LENGTHS};
use crate::harness::{self, CONNECTIONS, UPLOAD_REPORTS};
use crate::load::{self, Clock, ConnLog, Stop};
use crate::metrics::Outcome;
use crate::oracle;
use crate::replay::{self, ReplayInput, RING_WINDOWS};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trajshare_aggregate::{WindowConfig, WindowedAggregator};
use trajshare_cluster::{
    pull_snapshot, snapshot_fingerprint, CoordConfig, Coordinator, Router, RouterConfig,
    RouterHandle,
};
use trajshare_service::{IngestServer, ServerConfig, ServerHandle, StreamServerConfig};

const POOL_TRAJECTORIES: usize = 8_192;
const RECOVERY_REPORTS: u64 = 1_000_000;
const CLUSTER_WORKERS: usize = 2;
/// Timestamp units per window; pool report `i` carries `t = (i mod 8) ×
/// WINDOW_LEN`, so all eight windows of the ring stay live.
const WINDOW_LEN: u64 = 10;
const WINDOW: WindowConfig = WindowConfig {
    window_len: WINDOW_LEN,
    num_windows: RING_WINDOWS,
};

fn worker_config(dir: &Path, world: &World, profile: bool) -> ServerConfig {
    let stream = StreamServerConfig::new(WINDOW, Duration::from_millis(200));
    harness::server_config(dir, world, Some(stream), profile)
}

fn start_workers(root: &Path, world: &World, profile: bool) -> Vec<ServerHandle> {
    (0..CLUSTER_WORKERS)
        .map(|i| {
            let cfg = worker_config(&root.join(format!("worker-{i}")), world, profile);
            IngestServer::start(cfg).expect("start worker")
        })
        .collect()
}

fn start_router(workers: &[ServerHandle]) -> RouterHandle {
    let mut cfg = RouterConfig::new(
        ([127, 0, 0, 1], 0).into(),
        workers.iter().map(ServerHandle::addr).collect(),
    );
    cfg.client_threads = CONNECTIONS;
    Router::start(cfg).expect("start router")
}

/// Closed loop of uploads through `addr`, one connection per wire. (The
/// router writes acks only between reads, so a windowed long-lived
/// stream would deadlock against it; whole uploads cannot.)
fn drive(addr: SocketAddr, pool: &Pool, clock: Clock, stop: Stop) -> Vec<ConnLog> {
    load::drive(&pool.wires, |_, wire| {
        load::stream_uploads(addr, wire, clock, stop, UPLOAD_REPORTS)
    })
}

/// One coordinator round per second while `loading`: `(tick ms, tick +
/// estimate ms, reached every worker and produced a model)` per round.
fn coordinate(
    coord: &mut Coordinator,
    world: &World,
    tracer: &Tracer,
    loading: &AtomicBool,
) -> Vec<(f64, f64, bool)> {
    let mut rounds = Vec::new();
    let mut next = Instant::now() + Duration::from_secs(1);
    while loading.load(Ordering::Acquire) {
        let wait = next.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait.min(Duration::from_millis(20)));
            continue;
        }
        next += Duration::from_secs(1);
        let t0 = Instant::now();
        rounds.push(tracer.span_id("cluster.coord.round", None, |parent| {
            let view = tracer.span("cluster.coord.tick", parent, || coord.tick());
            let tick_ms = t0.elapsed().as_secs_f64() * 1e3;
            let model = tracer.span("cluster.coord.estimate", parent, || {
                coord.estimate(&world.graph)
            });
            let ok = model.is_some() && view.workers_up == view.workers_total;
            (tick_ms, t0.elapsed().as_secs_f64() * 1e3, ok)
        }));
    }
    rounds
}

/// Router counters as layer metrics and as failed operations.
fn router_metrics(out: &mut Outcome, router: &RouterHandle) {
    let stats = router.stats();
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    out.set("cluster.router.routed", load(&stats.cluster_routed) as f64);
    out.set("cluster.router.failed", load(&stats.routed_failed) as f64);
    out.set(
        "cluster.router.rerouted",
        load(&stats.rerouted_batches) as f64,
    );
    out.set(
        "cluster.router.worker_down",
        load(&stats.worker_down) as f64,
    );
    out.failed += load(&stats.routed_failed)
        + load(&stats.refused)
        + load(&stats.disconnected_protocol)
        + load(&stats.io_errors)
        + load(&stats.worker_down);
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let tracer = args.tracer;

    let (pool, world_s) = harness::timed_setup(|| {
        Pool::build_stamped(
            POOL_TRAJECTORIES,
            MIXED_LENGTHS,
            BATCH_MAX,
            args.seed,
            |i, r| r.at((i % RING_WINDOWS) as u64 * WINDOW_LEN),
        )
    });
    let world = &pool.world;
    let t_once = Instant::now();
    let root = sys::fresh_dir("cluster-routed");
    let workers = start_workers(&root, world, tracer.enabled());
    let router = start_router(&workers);
    let exports: Vec<SocketAddr> = workers
        .iter()
        .map(|w| w.export_addr().expect("workers run export listeners"))
        .collect();
    let mut coord_cfg = CoordConfig::new(exports.clone(), world.tiles.clone());
    coord_cfg.window = Some(WINDOW);
    let mut coord = Coordinator::new(coord_cfg);

    // Warm-up, before the clock: one upload per connection, then the
    // coordinator's one cold solve.
    let clock = Clock::start();
    let warm_logs = drive(router.addr(), &pool, clock, Stop::after(1));
    coord.tick();
    let t_cold = Instant::now();
    let cold_model = coord.estimate(&world.graph);
    let cold_ms = t_cold.elapsed().as_secs_f64() * 1e3;
    out.check(
        "warm-up estimate",
        cold_model.is_some(),
        format!("{cold_ms:.0} ms cold"),
    );
    out.set("setup_s", world_s + t_once.elapsed().as_secs_f64());
    pool.describe(&mut out);

    // Measured phase: uploads through the router; one coordinator round
    // (tick + estimate) per second beside them.
    let from_ns = clock.now_ns();
    let until_ns = from_ns + args.seconds * 1_000_000_000;
    let loading = AtomicBool::new(true);
    let cpu0 = sys::cpu_time_ns();
    let counts_probe = || workers[0].counts().num_reports;
    let (logs, rounds) =
        harness::with_sampler(tracer, &[(harness::COUNTS_SPAN, &counts_probe)], || {
            std::thread::scope(|scope| {
                let coordinator = scope.spawn(|| coordinate(&mut coord, world, tracer, &loading));
                let logs = drive(router.addr(), &pool, clock, Stop::at(until_ns));
                loading.store(false, Ordering::Release);
                (logs, coordinator.join().expect("coordinator panicked"))
            })
        });
    let phase_cpu_ns = sys::cpu_time_ns() - cpu0;
    let pass = Some(pool.wire_bytes_per_report());
    harness::load_metrics(&mut out, &logs, from_ns, until_ns, pass);
    let round_ms: Vec<f64> = rounds.iter().map(|r| r.1).collect();
    let tick_ms: Vec<f64> = rounds.iter().map(|r| r.0).collect();
    let estimate_ms: Vec<f64> = rounds.iter().map(|r| r.1 - r.0).collect();
    out.set("cluster_publish_p50_ms", stats::median(&round_ms));
    out.note("cluster_publish.samples", round_ms.len());
    out.set("cluster.coord.tick_ms", stats::median(&tick_ms));
    out.set("cluster.coord.estimate_ms", stats::median(&estimate_ms));
    out.eq(
        "every coordinator round reached both workers and produced a model",
        rounds.iter().filter(|r| r.2).count(),
        rounds.len(),
    );
    out.check(
        "coordinator ran under load",
        !rounds.is_empty(),
        format!("{} rounds", rounds.len()),
    );

    // Oracles: the merged cluster view equals a single node fed the
    // same multiset.
    let (warm_sent, warm_acked) = load::totals(&warm_logs);
    let (sent, _) = load::totals(&logs);
    out.eq("warm-up: every report acked", warm_acked, warm_sent);
    out.attempted += warm_sent;
    let view = coord.tick();
    out.eq(
        "cluster holds every acked report",
        view.merged_reports,
        warm_sent + sent,
    );
    let mut reference = WindowedAggregator::new(world.tiles.clone(), WINDOW);
    for ((warm, log), slice) in warm_logs.iter().zip(&logs).zip(pool.slices()) {
        for sent in [warm.sent_reports, log.sent_reports] {
            reference.merge_ring(&oracle::expected_ring(&world.tiles, WINDOW, slice, sent));
        }
    }
    out.eq(
        "cluster ring_crc32 equals the single-node reference",
        view.ring_crc32,
        Some(snapshot_fingerprint(reference.merged())),
    );
    out.eq(
        "cluster ring windows equal the single-node reference",
        coord.merged_ring().map(oracle::ring_data_crc),
        Some(oracle::ring_data_crc(&reference)),
    );
    router_metrics(&mut out, &router);
    let server_stats: Vec<_> = workers.iter().map(ServerHandle::stats).collect();
    out.failed += server_stats
        .iter()
        .map(|s| harness::server_failures(s))
        .sum::<u64>();
    harness::server_stats_metrics(&mut out, &server_stats);
    let profiles: Vec<_> = workers
        .iter()
        .filter_map(ServerHandle::ingest_profile)
        .collect();
    if !profiles.is_empty() {
        harness::profile_metrics(&mut out, &profiles);
    }
    if tracer.enabled() {
        let mut pulls = Vec::new();
        for &addr in exports.iter().cycle().take(3 * exports.len()) {
            let t0 = Instant::now();
            let snap = tracer.span("cluster.coord.pull", None, || {
                pull_snapshot(addr, Duration::from_secs(5))
            });
            pulls.push(t0.elapsed().as_secs_f64() * 1e3);
            out.check("snapshot pull", snap.is_ok(), format!("{addr}"));
        }
        out.set("cluster.coord.pull_ms", stats::median(&pulls));
        out.set(
            "service.server.counts_call_us",
            harness::span_median_us(tracer, harness::COUNTS_SPAN),
        );
    }
    router.shutdown();
    for w in workers {
        w.crash();
    }
    let _ = std::fs::remove_dir_all(&root);

    // Fixed-work recovery: both workers filled through a router,
    // crashed, restarted side by side.
    harness::measure_recovery(
        "cluster-routed",
        CLUSTER_WORKERS,
        &|d| worker_config(d, world, false),
        &|servers| {
            let router = start_router(servers);
            let stop = Stop::after(RECOVERY_REPORTS / CONNECTIONS as u64);
            let logs = drive(router.addr(), &pool, Clock::start(), stop);
            router.shutdown();
            load::totals(&logs)
        },
        tracer,
        &mut out,
    );

    if tracer.enabled() {
        let routed_rate = out.metrics.get("reports_per_s").copied().unwrap_or(0.0);
        let direct_rate = direct_two_worker_rate(&pool, &mut out);
        out.note("direct_2w_reports_per_s", format!("{direct_rate:.0}"));
        if routed_rate > 0.0 && direct_rate > 0.0 {
            out.set(
                "cluster.router.overhead_ns",
                1e9 / routed_rate - 1e9 / direct_rate,
            );
        }
        replay::layers(
            ReplayInput {
                world,
                set: &pool.set,
                reports: &pool.reports,
                wires: &pool.wires,
                seed: args.seed,
                share_samples: super::SHARE_SAMPLES_TRACED,
                model: cold_model.map(|m| (m, cold_ms)),
            },
            &mut out,
        );
        // Router: decode, place, re-frame; worker: the batched path.
        let mut path = super::BATCHED_PATH.to_vec();
        path.extend([
            ("aggregate.batch.decode_ns", 1.0),
            ("cluster.hash.key_ns", 1.0),
            ("aggregate.batch.encode_ns", 1.0),
            ("aggregate.stream.ingest_batch_ns", 1.0),
        ]);
        super::unattributed(&mut out, &path, sent, phase_cpu_ns);
    }
    out
}

/// The no-router baseline: the same two wires, each streamed straight
/// at its own fresh worker for two seconds.
fn direct_two_worker_rate(pool: &Pool, out: &mut Outcome) -> f64 {
    let root = sys::fresh_dir("direct-2w");
    let workers = start_workers(&root, &pool.world, false);
    let (clock, stop) = (Clock::start(), Stop::at(2_000_000_000));
    let logs = load::drive(&pool.wires, |i, wire| {
        load::stream_closed(workers[i].addr(), wire, clock, stop)
    });
    let (sent, acked) = load::totals(&logs);
    out.eq("direct-2w: every report acked", acked, sent);
    let wall_ns = logs
        .iter()
        .filter_map(|l| l.acks.last())
        .map(|a| a.t_ns)
        .max()
        .unwrap_or(1);
    for w in workers {
        w.crash();
    }
    let _ = std::fs::remove_dir_all(&root);
    acked as f64 * 1e9 / wall_ns as f64
}
