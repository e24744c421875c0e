//! `ingest-uniform`, `ingest-mixed`, `ingest-single`: one collector,
//! two connections in a closed loop, three shapes of the same traffic.

use super::{Pool, RunArgs};
use crate::gen::{self, Wire, BATCH_MAX};
use crate::harness::{self, CONNECTIONS, UPLOAD_REPORTS};
use crate::load::{self, Clock, ConnLog, Stop};
use crate::metrics::Outcome;
use crate::oracle;
use crate::replay::{self, ReplayInput};
use crate::sys;
use std::net::SocketAddr;
use std::time::Instant;
use trajshare_aggregate::AggregateCounts;
use trajshare_service::{IngestServer, ServerHandle};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `TSR4`@256, every trajectory of length 3.
    Uniform,
    /// `TSR4`@256, lengths 3–8 in arrival order.
    Mixed,
    /// `TSR3`, one report per frame, one connection per upload.
    Single,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Uniform => "ingest-uniform",
            Shape::Mixed => "ingest-mixed",
            Shape::Single => "ingest-single",
        }
    }

    fn lengths(self) -> (u32, u32) {
        match self {
            Shape::Uniform => gen::UNIFORM_LENGTHS,
            Shape::Mixed | Shape::Single => gen::MIXED_LENGTHS,
        }
    }

    fn batch(self) -> usize {
        match self {
            Shape::Uniform | Shape::Mixed => BATCH_MAX,
            Shape::Single => 1,
        }
    }

    /// Reports the fixed-work recovery phase logs before the crash.
    fn recovery_reports(self) -> u64 {
        match self {
            Shape::Uniform => 4_000_000,
            Shape::Mixed | Shape::Single => 2_000_000,
        }
    }
}

/// Distinct reports in the cycled pool.
const POOL_TRAJECTORIES: usize = 8_192;

/// One closed-loop pass of `shape` against `addr`, one connection per
/// wire, until `stop`.
fn drive(shape: Shape, addr: SocketAddr, wires: &[Wire], clock: Clock, stop: Stop) -> Vec<ConnLog> {
    load::drive(wires, |_, wire| match shape {
        Shape::Single => load::stream_uploads(addr, wire, clock, stop, UPLOAD_REPORTS),
        _ => load::stream_closed(addr, wire, clock, stop),
    })
}

/// `counts()` must hold exactly what the connections were acked for.
fn check_counts(out: &mut Outcome, handle: &ServerHandle, pool: &Pool, logs: &[ConnLog]) {
    let tiles = &pool.world.tiles;
    let mut want = AggregateCounts::new(tiles.len());
    for (log, slice) in logs.iter().zip(pool.slices()) {
        want.merge(&oracle::expected_counts(tiles, slice, log.sent_reports));
    }
    let got = handle.counts();
    out.check(
        "counts() bit-identical to the sent multiset",
        got == want,
        format!(
            "{} reports held, {} expected",
            got.num_reports, want.num_reports
        ),
    );
}

pub fn run(shape: Shape, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let tracer = args.tracer;

    let (pool, world_s) = harness::timed_setup(|| {
        Pool::build(POOL_TRAJECTORIES, shape.lengths(), shape.batch(), args.seed)
    });
    let world = &pool.world;
    let dir = sys::fresh_dir(shape.name());
    let make_cfg = |d: &std::path::Path| harness::server_config(d, world, None, tracer.enabled());
    let t_start = Instant::now();
    let handle = IngestServer::start(make_cfg(&dir)).expect("start ingest server");
    out.set("setup_s", world_s + t_start.elapsed().as_secs_f64());
    pool.describe(&mut out);

    // Measured phase.
    let clock = Clock::start();
    let from_ns = clock.now_ns();
    let until_ns = from_ns + args.seconds * 1_000_000_000;
    let cpu0 = sys::cpu_time_ns();
    let counts_probe = || handle.counts().num_reports;
    let logs = harness::with_sampler(tracer, &[(harness::COUNTS_SPAN, &counts_probe)], || {
        drive(shape, handle.addr(), &pool.wires, clock, Stop::at(until_ns))
    });
    let phase_cpu_ns = sys::cpu_time_ns() - cpu0;
    let pass = Some(pool.wire_bytes_per_report());
    harness::load_metrics(&mut out, &logs, from_ns, until_ns, pass);
    check_counts(&mut out, &handle, &pool, &logs);
    out.failed += harness::server_failures(handle.stats());
    harness::server_stats_metrics(&mut out, &[handle.stats()]);
    if let Some(profile) = handle.ingest_profile() {
        harness::profile_metrics(&mut out, &[profile]);
    }
    let (_, acked) = load::totals(&logs);
    handle.crash();
    let _ = std::fs::remove_dir_all(&dir);

    // Fixed-work recovery phase, in the workload's own wire shape.
    harness::measure_recovery(
        shape.name(),
        1,
        &make_cfg,
        &|servers| {
            let per_conn = shape.recovery_reports() / CONNECTIONS as u64;
            let stop = Stop::after(per_conn);
            load::totals(&drive(
                shape,
                servers[0].addr(),
                &pool.wires,
                Clock::start(),
                stop,
            ))
        },
        tracer,
        &mut out,
    );

    if tracer.enabled() {
        out.set(
            "service.server.counts_call_us",
            harness::span_median_us(tracer, harness::COUNTS_SPAN),
        );
        single_thread_baseline(shape, &pool, &mut out);
        replay::layers(
            ReplayInput {
                world,
                set: &pool.set,
                reports: &pool.reports,
                wires: &pool.wires,
                seed: args.seed,
                share_samples: super::SHARE_SAMPLES_TRACED,
                model: None,
            },
            &mut out,
        );
        let path = if shape.batch() > 1 {
            super::BATCHED_PATH
        } else {
            super::SINGLE_PATH
        };
        super::unattributed(&mut out, path, acked, phase_cpu_ns);
    }
    out
}

/// The single-threaded run of the same job: one shard, one connection,
/// two seconds — the baseline the two-shard rate is read against.
fn single_thread_baseline(shape: Shape, pool: &Pool, out: &mut Outcome) {
    let dir = sys::fresh_dir("baseline");
    let mut cfg = harness::server_config(&dir, &pool.world, None, false);
    cfg.workers = 1;
    let handle = IngestServer::start(cfg).expect("start baseline server");
    let stop = Stop::at(2_000_000_000);
    let logs = drive(shape, handle.addr(), &pool.wires[..1], Clock::start(), stop);
    let (sent, acked) = load::totals(&logs);
    out.eq("baseline: every report acked", acked, sent);
    let wall_ns = logs[0].acks.last().map_or(1, |a| a.t_ns).max(1);
    out.set(
        "service.server.single_thread_reports_per_s",
        acked as f64 * 1e9 / wall_ns as f64,
    );
    handle.crash();
    let _ = std::fs::remove_dir_all(&dir);
}
