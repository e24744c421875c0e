//! `stream-publish`: an open loop at a fixed rate whose send-time
//! stamps close a window every 400 ms, against a collector running the
//! whole streaming stack (ring, budget ledger, debiased divergence),
//! while a publisher thread turns every closed window into a model, a
//! synthetic set and query answers.

use super::{Pool, RunArgs};
use crate::acks::{self, Group};
use crate::gen::{self, stamp_frame, Wire, BATCH_MAX, EPSILON, MIXED_LENGTHS};
use crate::harness::{self, CONNECTIONS};
use crate::load::{self, Clock, ConnLog, PlannedGroup, Stop};
use crate::metrics::Outcome;
use crate::oracle;
use crate::replay::{self, ReplayInput, PUBLISH_TRAJECTORIES, RING_WINDOWS};
use crate::sched::OpenLoop;
use crate::stats;
use crate::sys;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trajshare_aggregate::{
    eps_to_nano, AggregateCounts, AllocationPolicy, ReportBatch, WindowBudgetConfig, WindowConfig,
    WindowedAggregator,
};
use trajshare_service::{IngestServer, ServerHandle, StreamServerConfig};

/// Offered load, reports/s over both connections: about a sixth of
/// what `ingest-mixed` sustains on the reference box, so ingest idles
/// and the publication path is what is measured.
const RATE: f64 = 400_000.0;
/// Send groups are due every millisecond and stamped in milliseconds.
const GROUP_NS: u64 = 1_000_000;
/// A window closes every 400 ms: one publication (warm estimate,
/// 2 000 synthetic trajectories, three queries ≈ 200 ms of one core
/// here) fits twice, so a healthy publisher never queues.
const WINDOW_MS: u64 = 400;
const POOL_TRAJECTORIES: usize = 8_192;
const RECOVERY_REPORTS: u64 = 2_000_000;
/// Span name of the traced run's `windowed_counts()` probe.
const RING_SPAN: &str = "service.server.windowed_counts";

const WINDOW: WindowConfig = WindowConfig {
    window_len: WINDOW_MS,
    num_windows: RING_WINDOWS,
};

fn stream_config(world: &gen::World) -> StreamServerConfig {
    let mut cfg = StreamServerConfig::new(WINDOW, Duration::from_millis(50));
    // ε per window for every window of the horizon: no honest report
    // (ε′ ≤ ε/4 here) is ever refused, so refusals must read 0.
    cfg.budget = Some(WindowBudgetConfig::new(
        eps_to_nano(EPSILON * RING_WINDOWS as f64),
        RING_WINDOWS,
        AllocationPolicy::Uniform,
    ));
    cfg.graph = Some(world.graph.clone());
    cfg
}

/// One open-loop pass over both connections, every group stamped from
/// `t_base`; returns the logs and when group 0 was due.
fn open_pass(
    handle: &ServerHandle,
    pool: &Pool,
    plans: &[Vec<PlannedGroup>],
    sched: OpenLoop,
    clock: Clock,
    t_base: u64,
    acked: &[AtomicU64],
) -> (Vec<ConnLog>, u64) {
    let start_ns = clock.now_ns() + 20_000_000;
    let addr = handle.addr();
    let logs = load::drive(&pool.wires, |i, wire| {
        load::stream_open(
            addr, wire, &plans[i], sched, clock, start_ns, t_base, &acked[i],
        )
    });
    (logs, start_ns)
}

/// Reports the plans put into the window that ends with group `last`.
fn window_reports(plans: &[Vec<PlannedGroup>], first: usize, last: usize) -> u64 {
    plans
        .iter()
        .map(|p| p[last].cum_end - if first == 0 { 0 } else { p[first - 1].cum_end })
        .sum()
}

/// Waits (up to 5 s) until the maintenance thread has published a view
/// in which window `id` holds all `want` of its reports — the budget
/// decision pass that produced it then covered the complete window.
fn decision_covers(handle: &ServerHandle, id: u64, want: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let covered = handle
            .latest_publication()
            .is_some_and(|p| p.windows.iter().any(|&(wid, n)| wid == id && n == want));
        if covered || Instant::now() > deadline {
            return covered;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What the publisher did for one closed window.
struct Published {
    decided_ns: u64,
    estimated_ns: u64,
    done_ns: u64,
    observed_closed_ns: u64,
}

/// The publisher: for every window of the measured phase, in order —
/// wait for the acks that close it, wait for the maintenance thread's
/// budget decision to cover it, estimate, synthesize, answer queries.
#[allow(clippy::too_many_arguments)]
fn publish_windows(
    handle: &ServerHandle,
    pool: &Pool,
    plans: &[Vec<PlannedGroup>],
    acked: &[AtomicU64],
    senders_done: &AtomicBool,
    clock: Clock,
    first_window: u64,
    args: &RunArgs,
) -> Vec<Option<Published>> {
    let per_window = WINDOW_MS as usize;
    let windows = plans[0].len() / per_window;
    let mut published = Vec::with_capacity(windows);
    for w in 0..windows {
        let (first, last) = (w * per_window, (w + 1) * per_window - 1);
        let closed = |acked: &[AtomicU64]| {
            acked
                .iter()
                .zip(plans)
                .all(|(a, p)| a.load(Ordering::Acquire) >= p[last].cum_end)
        };
        while !closed(acked) {
            if senders_done.load(Ordering::Acquire) && !closed(acked) {
                // A sender failed: this window never closes.
                published.push(None);
                return published;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let observed_closed_ns = clock.now_ns();
        let want = window_reports(plans, first, last);
        let decided = decision_covers(handle, first_window + w as u64, want);
        let decided_ns = clock.now_ns();
        // One parent span per publication, its three steps as children.
        let steps = args.tracer.span_id("publish.window", None, |parent| {
            let model = args
                .tracer
                .span("service.server.estimate_window_model", parent, || {
                    handle.estimate_window_model(&pool.world.graph)
                });
            let estimated_ns = clock.now_ns();
            let model = model.filter(|_| decided)?;
            let (real, synthetic, _) = args.tracer.span("aggregate.synthesize", parent, || {
                replay::synthesize_sample(
                    &pool.world,
                    &pool.set,
                    &model,
                    PUBLISH_TRAJECTORIES,
                    args.seed,
                )
            });
            args.tracer.span("query.answer", parent, || {
                std::hint::black_box(replay::answer_queries(&pool.world, &real, &synthetic, None))
            });
            Some(estimated_ns)
        });
        let Some(estimated_ns) = steps else {
            published.push(None);
            continue;
        };
        published.push(Some(Published {
            decided_ns,
            estimated_ns,
            done_ns: clock.now_ns(),
            observed_closed_ns,
        }));
    }
    published
}

/// Replays the groups `from..` of one pass — both connections, in time
/// order, stamped as the sender stamped them — through the library's
/// own decoder into `ring`.
fn replay_pass(
    ring: &mut WindowedAggregator,
    pool: &Pool,
    plans: &[Vec<PlannedGroup>],
    from: usize,
    t_base: u64,
) {
    let mut batch = ReportBatch::new();
    let mut frame = Vec::new();
    for g in from..plans[0].len() {
        for (wire, plan) in pool.wires.iter().zip(plans) {
            let group = plan[g];
            for k in 0..group.frames {
                let f = wire.frames[(group.first_frame + k) % wire.frames.len()];
                frame.clear();
                frame.extend_from_slice(&wire.bytes[f.start..f.end]);
                stamp_frame(&mut frame, t_base + g as u64);
                batch
                    .decode_payload_into(&frame[4..])
                    .expect("stamped frame decodes");
                ring.ingest_batch(&batch);
            }
        }
    }
}

/// The live windows a collector must hold after the warm-up and the
/// measured pass: the warm-up window (evicted again unless the run was
/// short), then the measured groups of the last ring-span of windows.
fn reference_ring(
    pool: &Pool,
    warm_plans: &[Vec<PlannedGroup>],
    plans: &[Vec<PlannedGroup>],
) -> WindowedAggregator {
    let mut ring = WindowedAggregator::new(pool.world.tiles.clone(), WINDOW);
    replay_pass(&mut ring, pool, warm_plans, 0, 0);
    let tail = plans[0]
        .len()
        .saturating_sub(RING_WINDOWS * WINDOW_MS as usize);
    replay_pass(&mut ring, pool, plans, tail, WINDOW_MS);
    ring
}

/// Copies of the wires whose frames walk through every window of the
/// ring span once per pass, for the recovery phase.
fn spread_over_ring(wires: &[Wire]) -> Vec<Wire> {
    wires
        .iter()
        .map(|w| {
            let mut bytes = w.bytes.clone();
            let n = w.frames.len();
            for (i, f) in w.frames.iter().enumerate() {
                let window = (i * RING_WINDOWS / n) as u64;
                stamp_frame(&mut bytes[f.start..f.end], window * WINDOW_MS);
            }
            Wire {
                bytes,
                frames: w.frames.clone(),
            }
        })
        .collect()
}

/// Publish lag per published window: from the ack that covered the
/// window's last report (the later of the two connections') to its
/// answers; plus the publisher's own step timings.
fn publish_metrics(
    out: &mut Outcome,
    published: &[Option<Published>],
    logs: &[ConnLog],
    plans: &[Vec<PlannedGroup>],
) {
    let per_window = WINDOW_MS as usize;
    let mut lag_ms = Vec::new();
    let (mut wait_ms, mut estimate_ms, mut notice_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (w, p) in published.iter().enumerate() {
        let Some(p) = p else { continue };
        let last = (w + 1) * per_window - 1;
        let closed_ns = logs
            .iter()
            .zip(plans)
            .filter_map(|(log, plan)| {
                let probe = [Group {
                    t_ns: 0,
                    cum_end: plan[last].cum_end,
                }];
                acks::attribute(&probe, &log.acks).0.first().copied()
            })
            .max()
            .unwrap_or(p.observed_closed_ns);
        lag_ms.push(p.done_ns.saturating_sub(closed_ns) as f64 / 1e6);
        notice_ms.push(p.observed_closed_ns.saturating_sub(closed_ns) as f64 / 1e6);
        wait_ms.push((p.decided_ns - p.observed_closed_ns) as f64 / 1e6);
        estimate_ms.push((p.estimated_ns - p.decided_ns) as f64 / 1e6);
    }
    out.eq(
        "every closed window published",
        lag_ms.len(),
        published.len(),
    );
    out.eq(
        "windows in the measured phase",
        published.len(),
        plans[0].len() / per_window,
    );
    stats::sort(&mut lag_ms);
    out.set("publish_lag_p50_ms", stats::percentile(&lag_ms, 50.0));
    out.set("publish_lag_p90_ms", stats::percentile(&lag_ms, 90.0));
    out.note("publish_lag.samples", lag_ms.len());
    out.note(
        "publish_lag.highest_supported_percentile",
        stats::highest_supported(lag_ms.len()).map_or("none".to_string(), |p| format!("p{p}")),
    );
    out.note(
        "publish_lag.notice_p50_ms",
        format!("{:.3}", stats::median(&notice_ms)),
    );
    out.set("service.server.decision_wait_ms", stats::median(&wait_ms));
    out.set(
        "service.server.estimate_call_ms",
        stats::median(&estimate_ms),
    );
}

/// Σ ledger spend ≤ ε over every run of 8 consecutive windows (a
/// refused window keeps its full grant on the books), and nothing
/// refused.
fn check_ledger(out: &mut Outcome, handle: &ServerHandle) {
    let total_nano = eps_to_nano(EPSILON * RING_WINDOWS as f64);
    let history = handle.budget_grant_history();
    let worst_horizon = history
        .windows(RING_WINDOWS)
        .filter(|run| run[RING_WINDOWS - 1].window - run[0].window == RING_WINDOWS as u64 - 1)
        .map(|run| {
            run.iter()
                .map(|r| {
                    if r.refused {
                        r.granted_nano
                    } else {
                        r.settled_nano
                    }
                })
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    out.check(
        "ledger spend within ε over every 8 consecutive windows",
        worst_horizon <= total_nano && !history.is_empty(),
        format!(
            "worst {worst_horizon} of {total_nano} nano-ε over {} decisions",
            history.len()
        ),
    );
    out.eq(
        "no window refused",
        handle.budget_refused_windows().len(),
        0,
    );
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let tracer = args.tracer;

    let (pool, world_s) = harness::timed_setup(|| {
        Pool::build(POOL_TRAJECTORIES, MIXED_LENGTHS, BATCH_MAX, args.seed)
    });
    let world = &pool.world;
    let t_once = Instant::now();
    let dir = sys::fresh_dir("stream-publish");
    let make_cfg = |d: &std::path::Path| {
        harness::server_config(d, world, Some(stream_config(world)), tracer.enabled())
    };
    let handle = IngestServer::start(make_cfg(&dir)).expect("start streaming server");
    let sched = OpenLoop::new(RATE / CONNECTIONS as f64, GROUP_NS);
    let clock = Clock::start();
    let plan = |groups: u64| -> Vec<Vec<PlannedGroup>> {
        pool.wires
            .iter()
            .map(|w| load::plan_open_loop(w, sched, groups))
            .collect()
    };
    let ack_counters =
        || -> Vec<AtomicU64> { (0..CONNECTIONS).map(|_| AtomicU64::new(0)).collect() };

    // Warm-up, before the clock: fill window 0 and pay the one cold IBU
    // solve (600 iterations) so every measured publication is the warm
    // 12-iteration tick a running collector does.
    let warm_plans = plan(WINDOW_MS);
    let (warm_logs, _) = open_pass(
        &handle,
        &pool,
        &warm_plans,
        sched,
        clock,
        0,
        &ack_counters(),
    );
    decision_covers(
        &handle,
        0,
        window_reports(&warm_plans, 0, WINDOW_MS as usize - 1),
    );
    let t_cold = Instant::now();
    // Estimated on exactly window 0, so unlike the later ticks (which
    // see whatever of the open window has arrived) this model repeats
    // for a seed: the replay's quality lines are scored on it.
    let cold_model = tracer.span("service.server.estimate_window_model.cold", None, || {
        handle.estimate_window_model(&world.graph)
    });
    let cold_ms = t_cold.elapsed().as_secs_f64() * 1e3;
    out.check(
        "warm-up window estimated",
        cold_model.is_some(),
        format!("{cold_ms:.0} ms cold"),
    );
    out.set("setup_s", world_s + t_once.elapsed().as_secs_f64());
    pool.describe(&mut out);
    out.note("offered_reports_per_s", RATE);

    // Measured phase: windows 1..; one publication per closed window.
    let groups = args.seconds * 1_000 / WINDOW_MS * WINDOW_MS;
    let plans = plan(groups);
    let acked = ack_counters();
    let senders_done = AtomicBool::new(false);
    let cpu0 = sys::cpu_time_ns();
    let counts_probe = || handle.counts().num_reports;
    let ring_probe = || handle.windowed_counts().map_or(0, |r| r.newest_window());
    let probes: [harness::Probe; 2] = [
        (harness::COUNTS_SPAN, &counts_probe),
        (RING_SPAN, &ring_probe),
    ];
    let (logs, published, start_ns) = harness::with_sampler(tracer, &probes, || {
        std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                publish_windows(
                    &handle,
                    &pool,
                    &plans,
                    &acked,
                    &senders_done,
                    clock,
                    1,
                    args,
                )
            });
            let (logs, start_ns) =
                open_pass(&handle, &pool, &plans, sched, clock, WINDOW_MS, &acked);
            senders_done.store(true, Ordering::Release);
            let published = publisher.join().expect("publisher panicked");
            (logs, published, start_ns)
        })
    });
    let phase_cpu_ns = sys::cpu_time_ns() - cpu0;
    let until_ns = start_ns + groups * GROUP_NS;
    harness::load_metrics(&mut out, &logs, start_ns, until_ns, None);
    publish_metrics(&mut out, &published, &logs, &plans);
    let mut late_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.lateness_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    stats::sort(&mut late_ms);
    out.set("loadgen.lateness_p99_ms", stats::percentile(&late_ms, 99.0));

    // Oracles.
    let mut want_counts = AggregateCounts::new(world.tiles.len());
    for ((warm, log), slice) in warm_logs.iter().zip(&logs).zip(pool.slices()) {
        for sent in [warm.sent_reports, log.sent_reports] {
            want_counts.merge(&oracle::expected_counts(&world.tiles, slice, sent));
        }
    }
    let got = handle.counts();
    out.check(
        "counts() bit-identical to the sent multiset",
        got == want_counts,
        format!(
            "{} held, {} expected",
            got.num_reports, want_counts.num_reports
        ),
    );
    let live = handle
        .windowed_counts()
        .expect("streaming server has a ring");
    out.eq(
        "ring windows equal an in-process ring fed the same frames",
        oracle::ring_data_crc(&live),
        oracle::ring_data_crc(&reference_ring(&pool, &warm_plans, &plans)),
    );
    check_ledger(&mut out, &handle);
    let (warm_sent, warm_acked) = load::totals(&warm_logs);
    out.eq("warm-up: every report acked", warm_acked, warm_sent);
    out.attempted += warm_sent;
    out.failed += harness::server_failures(handle.stats());
    harness::server_stats_metrics(&mut out, &[handle.stats()]);
    if let Some(profile) = handle.ingest_profile() {
        harness::profile_metrics(&mut out, &[profile]);
    }
    let (_, acked_total) = load::totals(&logs);
    handle.crash();
    let _ = std::fs::remove_dir_all(&dir);

    // Fixed-work recovery: the same stack, frames spread over the ring.
    let spread = spread_over_ring(&pool.wires);
    harness::measure_recovery(
        "stream-publish",
        1,
        &make_cfg,
        &|servers| {
            let (addr, fill_clock) = (servers[0].addr(), Clock::start());
            let stop = Stop::after(RECOVERY_REPORTS / CONNECTIONS as u64);
            load::totals(&load::drive(&spread, |_, wire| {
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
        out.set(
            "service.server.windowed_counts_call_us",
            harness::span_median_us(tracer, RING_SPAN),
        );
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
        let mut path = super::BATCHED_PATH.to_vec();
        path.push(("aggregate.stream.ingest_batch_ns", 1.0));
        super::unattributed(&mut out, &path, acked_total, phase_cpu_ns);
    }
    out
}
