//! `e2e-city`: the whole path as one batch job, input to complete
//! result — N device trajectories → live `perturb_raw` on two device
//! threads → `Report` → `TSR4` → socket → WAL and ring → cold estimate
//! → N synthetic trajectories → the §6 queries — followed by the
//! paper's Table 3 measurement of the full mechanism.

use super::RunArgs;
use crate::acks::Group;
use crate::gen::{self, mix, Wire, World, BATCH_MAX, MIXED_LENGTHS};
use crate::harness::{self, CONNECTIONS};
use crate::load::{self, Clock, ConnLog, Stop};
use crate::metrics::Outcome;
use crate::oracle;
use crate::replay::{self, ReplayInput, RING_WINDOWS};
use crate::stats;
use crate::sys;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};
use trajshare_aggregate::{
    user_seed, Aggregator, BatchEncoder, MobilityModel, Report, WindowConfig, WindowedAggregator,
};
use trajshare_model::TrajectorySet;
use trajshare_service::{IngestServer, StreamServerConfig};

/// Device trajectories per second of `--seconds`: the job's input size
/// is fixed by the argument (40 000 users at the contract's 10 s), and
/// takes about that long end to end on the reference box.
const USERS_PER_SECOND: usize = 4_000;
/// T-Drive's shape (232 640 users over 886 timestamps): this many
/// users report per public timestamp.
const USERS_PER_TIMESTAMP: u64 = 262;
/// Full-mechanism trajectories timed for `share_p50_ms`/`share_p99_ms`.
const SHARE_SAMPLES: usize = 1_000;
/// Reports the recovery phase logs: the job's own reports, cycled (the
/// job alone is too small a log to time a restart on).
const RECOVERY_REPORTS: u64 = 1_000_000;

/// One device thread: every `CONNECTIONS`-th user from `first`, each
/// perturbed live and framed by the batch encoder. A send group is one
/// public timestamp's cohort on this thread, uploaded in one write: its
/// clock starts when its first device starts perturbing and stops at
/// the ack covering its last report. Returns the log and the reports
/// produced (the oracle's input).
fn device_thread(
    world: &World,
    set: &TrajectorySet,
    first: usize,
    seed: u64,
    addr: SocketAddr,
    clock: Clock,
) -> (ConnLog, Vec<Report>) {
    let mut reports = Vec::with_capacity(set.len() / CONNECTIONS + 1);
    let acked = AtomicU64::new(0);
    let log = load::with_connection(addr, clock, &acked, |stream, log, _done| {
        let mut enc = BatchEncoder::new(BATCH_MAX);
        let mut frames = Vec::with_capacity(64 * 1024);
        let mut cohort_start = clock.now_ns();
        let mut users = (first..set.len()).step_by(CONNECTIONS).peekable();
        while let Some(user) = users.next() {
            let t = user as u64 / USERS_PER_TIMESTAMP;
            let mut rng = StdRng::seed_from_u64(user_seed(seed, user as u64));
            let perturbed = world.mech.perturb_raw(&set.all()[user], &mut rng);
            let report = Report::from_perturbed(&perturbed).at(t);
            enc.push(&report, &mut frames);
            reports.push(report);
            let cohort_ends = users
                .peek()
                .is_none_or(|&next| next as u64 / USERS_PER_TIMESTAMP != t);
            if cohort_ends {
                enc.flush(&mut frames);
                if stream.write_all(&frames).is_err() {
                    log.failures += 1;
                    return;
                }
                log.sent_reports = reports.len() as u64;
                log.sent_bytes += frames.len() as u64;
                log.groups.push(Group {
                    t_ns: cohort_start,
                    cum_end: log.sent_reports,
                });
                frames.clear();
                cohort_start = clock.now_ns();
            }
        }
    });
    (log, reports)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let tracer = args.tracer;
    let users = USERS_PER_SECOND * args.seconds as usize;

    let ((world, set), world_s) = harness::timed_setup(|| {
        let world = gen::build_world();
        let set = gen::gen_trajectories(&world, users, MIXED_LENGTHS, args.seed);
        (world, set)
    });
    let t_once = Instant::now();
    // A ring wide enough that no timestamp of the job is evicted.
    let timestamps = set.len() as u64 / USERS_PER_TIMESTAMP + 1;
    let window = WindowConfig {
        window_len: timestamps.div_ceil(RING_WINDOWS as u64),
        num_windows: RING_WINDOWS,
    };
    let dir = sys::fresh_dir("e2e-city");
    let make_cfg = |d: &std::path::Path| {
        let stream = StreamServerConfig::new(window, Duration::from_millis(200));
        harness::server_config(d, &world, Some(stream), tracer.enabled())
    };
    let handle = IngestServer::start(make_cfg(&dir)).expect("start city collector");
    out.set("setup_s", world_s + t_once.elapsed().as_secs_f64());
    out.note("users", set.len());
    out.note("timestamps", timestamps);
    out.set("core.mech_build_ms", world.mech_build_ms);

    // The job.
    let device_seed = mix(args.seed, 0x6465_7669);
    let clock = Clock::start();
    let from_ns = clock.now_ns();
    let cpu0 = sys::cpu_time_ns();
    let (logs, reports): (Vec<ConnLog>, Vec<Vec<Report>>) =
        tracer.span("city.devices", None, || {
            std::thread::scope(|scope| {
                let devices: Vec<_> = (0..CONNECTIONS)
                    .map(|k| {
                        let (world, set, addr) = (&world, &set, handle.addr());
                        scope.spawn(move || device_thread(world, set, k, device_seed, addr, clock))
                    })
                    .collect();
                devices
                    .into_iter()
                    .map(|d| d.join().expect("device thread panicked"))
                    .unzip()
            })
        });
    let devices_done_ns = clock.now_ns();
    let device_cpu_ns = sys::cpu_time_ns() - cpu0;
    let counts = tracer.span(harness::COUNTS_SPAN, None, || handle.counts());
    let t_cold = Instant::now();
    let model = tracer.span("aggregate.estimate.cold", None, || {
        MobilityModel::estimate(&counts, &world.graph)
    });
    let cold_ms = t_cold.elapsed().as_secs_f64() * 1e3;
    let (real, synthetic, synth_us) = tracer.span("aggregate.synthesize", None, || {
        replay::synthesize_sample(&world, &set, &model, set.len(), args.seed)
    });
    let (prq_ms, hotspot_ms, od_ms) = tracer.span("query.answer", None, || {
        replay::answer_queries(&world, &real, &synthetic, Some(&mut out))
    });
    let pipeline_s = (clock.now_ns() - from_ns) as f64 / 1e9;
    out.set("pipeline_s", pipeline_s);
    out.note(
        "pipeline.devices_s",
        format!("{:.3}", (devices_done_ns - from_ns) as f64 / 1e9),
    );
    out.note("pipeline.cold_estimate_s", format!("{:.3}", cold_ms / 1e3));
    out.note("pipeline.synthesize_us_per_traj", format!("{synth_us:.2}"));
    out.note(
        "pipeline.queries_ms",
        format!("{:.2}", prq_ms + hotspot_ms + od_ms),
    );
    harness::load_metrics(&mut out, &logs, from_ns, devices_done_ns, None);
    // A batch job's rate is its input over the time to the complete
    // result; the device phase alone (about a second) is kept as a note.
    let device_rate = out.metrics.get("reports_per_s").copied().unwrap_or(0.0);
    out.note("device_phase.reports_per_s", format!("{device_rate:.0}"));
    out.set("reports_per_s", set.len() as f64 / pipeline_s);

    // Oracles.
    let all: Vec<Report> = reports.into_iter().flatten().collect();
    let mut want = Aggregator::from_region_tiles(world.tiles.clone());
    want.ingest_batch(&all);
    out.check(
        "counts() bit-identical to the reports the devices produced",
        &counts == want.counts(),
        format!("{} held, {} produced", counts.num_reports, all.len()),
    );
    let mut want_ring = WindowedAggregator::new(world.tiles.clone(), window);
    for r in &all {
        want_ring.ingest(r);
    }
    out.eq(
        "ring windows equal an in-process ring fed the same reports",
        handle.windowed_counts().as_ref().map(oracle::ring_data_crc),
        Some(oracle::ring_data_crc(&want_ring)),
    );
    out.eq(
        "one synthetic trajectory per user",
        synthetic.len(),
        set.len(),
    );
    out.failed += harness::server_failures(handle.stats());
    harness::server_stats_metrics(&mut out, &[handle.stats()]);
    if let Some(profile) = handle.ingest_profile() {
        harness::profile_metrics(&mut out, &[profile]);
    }
    handle.crash();
    let _ = std::fs::remove_dir_all(&dir);

    // Table 3: the full mechanism, outside the pipeline clock.
    let mut share_ms = tracer.span("core.share_sample", None, || {
        replay::share_sample(&world, &set, SHARE_SAMPLES, args.seed, &mut out)
    });
    stats::sort(&mut share_ms);
    out.set("share_p50_ms", stats::percentile(&share_ms, 50.0));
    out.set("share_p99_ms", stats::percentile(&share_ms, 99.0));
    out.note("share.samples", share_ms.len());

    // Fixed-work recovery: the job's reports, pre-encoded and cycled.
    let per = all.len().div_ceil(CONNECTIONS);
    let wires: Vec<Wire> = all
        .chunks(per)
        .map(|s| Wire::encode(s, BATCH_MAX))
        .collect();
    out.note(
        "wire_fingerprint",
        format!("{:016x}", gen::wire_fingerprint(&wires)),
    );
    harness::measure_recovery(
        "e2e-city",
        1,
        &make_cfg,
        &|servers| {
            let (addr, fill_clock) = (servers[0].addr(), Clock::start());
            let stop = Stop::after(RECOVERY_REPORTS / CONNECTIONS as u64);
            load::totals(&load::drive(&wires, |_, wire| {
                load::stream_closed(addr, wire, fill_clock, stop)
            }))
        },
        tracer,
        &mut out,
    );

    if tracer.enabled() {
        out.set(
            "service.server.counts_call_us",
            harness::span_median_us(tracer, harness::COUNTS_SPAN),
        );
        out.set("datagen.generate_ms", world.city_ms + world_s * 1e3);
        replay::layers(
            ReplayInput {
                world: &world,
                set: &set,
                reports: &all,
                wires: &wires,
                seed: args.seed,
                share_samples: 0,
                model: Some((model, cold_ms)),
            },
            &mut out,
        );
        // Device side per report plus the collector's batched path,
        // against the device phase's CPU.
        let mut path = super::BATCHED_PATH.to_vec();
        path.extend([
            ("core.perturb_raw_us", 1e3),
            ("aggregate.batch.encode_ns", 1.0),
            ("aggregate.stream.ingest_batch_ns", 1.0),
        ]);
        super::unattributed(&mut out, &path, all.len() as u64, device_cpu_ns);
    }
    out
}
