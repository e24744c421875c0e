//! What the six workloads share: the server shape, turning connection
//! logs into the end-to-end metrics, server counters into layer
//! metrics, and the fixed-work crash-recovery phase.

use crate::acks::{self, Ack};
use crate::gen::World;
use crate::load::ConnLog;
use crate::metrics::Outcome;
use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;
use trajshare_service::{
    IngestProfileSnapshot, IngestServer, ServerConfig, ServerHandle, ServerStats,
    StreamServerConfig,
};

/// Connections the load generator drives, and worker shards per server:
/// one per core of the 2-core reference box. `available_parallelism`
/// is recorded with every result; the shape is fixed so that results
/// compare.
pub const CONNECTIONS: usize = 2;
pub const WORKERS: usize = 2;
/// Reports per upload where every upload is its own connection.
pub const UPLOAD_REPORTS: u64 = 20_000;
/// How often each world is built to take `setup_s` as a median.
pub const SETUP_REPEATS: usize = 3;

/// The server shape every workload uses: no periodic snapshots (the
/// streaming path is what is measured), group flushes of 1 024 records,
/// online compaction at 256 MiB per shard (part of sustained
/// behaviour), an export listener (idle unless a coordinator pulls).
pub fn server_config(
    dir: &Path,
    world: &World,
    stream: Option<StreamServerConfig>,
    profile: bool,
) -> ServerConfig {
    let mut cfg = ServerConfig::new(dir, world.tiles.clone());
    cfg.workers = WORKERS;
    cfg.snapshot_every = u64::MAX;
    cfg.wal_flush_every = 1024;
    cfg.wal_max_bytes = 256 << 20;
    cfg.stream = stream;
    cfg.export_addr = Some(([127, 0, 0, 1], 0).into());
    cfg.profile = profile;
    cfg
}

/// Runs `build` [`SETUP_REPEATS`] times, keeps the last world and
/// returns the median build time, s. A world build is deterministic
/// CPU work, so the repeats are the same world each time.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one setup repeat"),
        stats::median(&times),
    )
}

/// A named lock-pass probe for [`with_sampler`].
pub type Probe<'a> = (&'static str, &'a (dyn Fn() -> u64 + Sync));

/// Runs `phase`; in a traced run, beside it, every probe (a `counts()`-
/// style lock pass, the call an operator's monitor would make) once a
/// second, each inside a span of its own name. Untraced runs get no
/// sampler thread.
pub fn with_sampler<T>(tracer: &Tracer, probes: &[Probe], phase: impl FnOnce() -> T) -> T {
    if !tracer.enabled() {
        return phase();
    }
    let running = std::sync::atomic::AtomicBool::new(true);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            while running.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_secs(1));
                for (name, probe) in probes {
                    tracer.span(name, None, || std::hint::black_box(probe()));
                }
            }
        });
        let result = tracer.span("load.measured_phase", None, phase);
        running.store(false, Ordering::Release);
        sampler.join().expect("sampler panicked");
        result
    })
}

/// Span name of the `ServerHandle::counts()` probe.
pub const COUNTS_SPAN: &str = "service.server.counts";

/// Median duration of the spans called `name`, µs.
pub fn span_median_us(tracer: &Tracer, name: &str) -> f64 {
    stats::median(&tracer.durations_ms(name)) * 1e3
}

/// Seconds at the start of a measured phase that rates and latencies
/// ignore: connection ramp-up, first WAL growth, cold caches.
pub fn warmup_ns(phase_ns: u64) -> u64 {
    (2_000_000_000).min(phase_ns / 5)
}

/// Fills in `reports_per_s`, the ack latencies, `wire_bytes_per_report`
/// and the attempted/failed tallies from the connections' logs over the
/// measured phase `[from_ns, to_ns)`. `wire_pass` is the bytes per
/// report of one whole pass over a cycled wire: a time-bound run stops
/// mid-pass, so its measured ratio wobbles in the fifth digit, while
/// the pass ratio — what the sockets carry in the long run — is exact
/// for a seed. Fixed-work runs pass `None` and report what they sent.
pub fn load_metrics(
    out: &mut Outcome,
    logs: &[ConnLog],
    from_ns: u64,
    to_ns: u64,
    wire_pass: Option<f64>,
) {
    let phase_ns = to_ns - from_ns;
    let from = from_ns + warmup_ns(phase_ns);
    let ack_logs: Vec<&[Ack]> = logs.iter().map(|l| l.acks.as_slice()).collect();
    // Per-second deltas; a phase of a few seconds (the city job's
    // device side) is cut into twelfths instead.
    let step_ns = if phase_ns >= 6_000_000_000 {
        1_000_000_000
    } else {
        (phase_ns / 12).max(1)
    };
    let rates = acks::interval_rates(&ack_logs, from, to_ns, step_ns);
    let rate = if rates.len() >= 3 {
        stats::median(&rates)
    } else {
        // A phase too short for per-second deltas: fixed work over the
        // time it took.
        let first = logs
            .iter()
            .filter_map(|l| l.groups.first())
            .map(|g| g.t_ns)
            .min();
        let last = logs
            .iter()
            .filter_map(|l| l.acks.last())
            .map(|a| a.t_ns)
            .max();
        let acked: u64 = logs.iter().map(|l| l.acked_reports).sum();
        match (first, last) {
            (Some(a), Some(b)) if b > a => acked as f64 * 1e9 / (b - a) as f64,
            _ => 0.0,
        }
    };
    out.set("reports_per_s", rate);
    out.note("reports_per_s.intervals", rates.len());

    let mut lat_ms = Vec::new();
    let mut unacked = 0usize;
    for log in logs {
        let (lat, missing) = acks::attribute(&log.groups, &log.acks);
        unacked += missing;
        lat_ms.extend(
            lat.iter()
                .zip(&log.groups)
                .filter(|(_, g)| g.t_ns >= from)
                .map(|(&ns, _)| ns as f64 / 1e6),
        );
    }
    stats::sort(&mut lat_ms);
    out.set("ack_p50_ms", stats::percentile(&lat_ms, 50.0));
    out.set("ack_p90_ms", stats::percentile(&lat_ms, 90.0));
    out.set("ack_p99_ms", stats::percentile(&lat_ms, 99.0));
    out.note("ack.samples", lat_ms.len());
    out.note(
        "ack.highest_supported_percentile",
        stats::highest_supported(lat_ms.len()).map_or("none".to_string(), |p| format!("p{p}")),
    );
    out.note("ack.unacked_groups", unacked);

    let (sent, acked) = crate::load::totals(logs);
    let bytes: u64 = logs.iter().map(|l| l.sent_bytes).sum();
    let measured = bytes as f64 / acked.max(1) as f64;
    out.set("wire_bytes_per_report", wire_pass.unwrap_or(measured));
    out.note("wire_bytes_per_report.measured", format!("{measured:.6}"));
    out.note("reports.sent", sent);
    out.note("reports.acked", acked);
    let connects: u64 = logs.iter().map(|l| l.connects).sum();
    out.attempted += sent + connects;
    out.failed += sent.saturating_sub(acked) + logs.iter().map(|l| l.failures).sum::<u64>();

    let connect: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.connect_us.iter().copied())
        .collect();
    let eof: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.eof_ack_ms.iter().copied())
        .collect();
    out.set("service.client.connect_us", stats::median(&connect));
    out.set("service.client.eof_ack_ms", stats::median(&eof));
}

/// Failure and activity counters of one or more servers, summed.
pub fn server_stats_metrics(out: &mut Outcome, servers: &[&ServerStats]) {
    let sum = |f: fn(&ServerStats) -> u64| servers.iter().map(|s| f(s)).sum::<u64>() as f64;
    out.set(
        "service.server.refused",
        sum(|s| s.refused.load(Ordering::Relaxed)),
    );
    out.set(
        "service.server.disconnected_protocol",
        sum(|s| s.disconnected_protocol.load(Ordering::Relaxed)),
    );
    out.set(
        "service.server.io_errors",
        sum(|s| s.io_errors.load(Ordering::Relaxed)),
    );
    out.set(
        "service.server.compactions",
        sum(|s| s.compactions.load(Ordering::Relaxed)),
    );
    out.set(
        "service.server.publications",
        sum(|s| s.publications.load(Ordering::Relaxed)),
    );
    out.set(
        "service.server.budget_decisions",
        sum(|s| s.budget_decisions.load(Ordering::Relaxed)),
    );
    out.set(
        "service.server.budget_refusals",
        sum(|s| s.budget_refusals.load(Ordering::Relaxed)),
    );
}

/// Connections a server refused, dropped or lost count as failed
/// operations of the run.
pub fn server_failures(stats: &ServerStats) -> u64 {
    stats.refused.load(Ordering::Relaxed)
        + stats.disconnected_protocol.load(Ordering::Relaxed)
        + stats.disconnected_slow.load(Ordering::Relaxed)
        + stats.io_errors.load(Ordering::Relaxed)
        + stats.compaction_failures.load(Ordering::Relaxed)
}

/// Per-report stage costs from the server's opt-in `IngestProfile`
/// (summed over servers). The profile covers the `TSR4` batch path
/// only: on single-frame traffic every line reads 0.
pub fn profile_metrics(out: &mut Outcome, profiles: &[IngestProfileSnapshot]) {
    let sum = |f: fn(&IngestProfileSnapshot) -> u64| profiles.iter().map(f).sum::<u64>() as f64;
    let reports = sum(|p| p.reports).max(1.0);
    out.set("service.server.decode_ns", sum(|p| p.decode_ns) / reports);
    out.set(
        "service.server.validate_ns",
        sum(|p| p.validate_ns) / reports,
    );
    out.set("service.server.wal_ns", sum(|p| p.wal_ns) / reports);
    out.set(
        "service.server.accumulate_ns",
        sum(|p| p.accumulate_ns) / reports,
    );
    out.set("service.server.ack_ns", sum(|p| p.ack_ns) / reports);
    out.set("service.server.batches", sum(|p| p.batches));
}

/// Copies a crashed data directory: write-ahead logs by hard link
/// (recovery only reads them, then unlinks its own name), everything
/// else — manifest, ledger, snapshots — by value.
fn clone_data_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let name = entry.file_name();
        if name == "LOCK" {
            continue;
        }
        let target = to.join(&name);
        if name.to_string_lossy().ends_with(".log") {
            std::fs::hard_link(entry.path(), target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Restarts measured per recovery phase; `recovery_s` is their median.
const RECOVERY_REPEATS: usize = 3;

/// The fixed-work recovery phase: fresh directories ← exactly the
/// reports `fill` sends (no compaction, no snapshots) → `crash()` →
/// wall time of `IngestServer::start` on the same state, with the
/// recovered counters (and ring) required bit-identical. `servers`
/// collectors are filled and restarted together (two for the cluster).
pub fn measure_recovery(
    label: &str,
    servers: usize,
    make_cfg: &dyn Fn(&Path) -> ServerConfig,
    fill: &dyn Fn(&[ServerHandle]) -> (u64, u64),
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let root = sys::fresh_dir(&format!("recovery-{label}"));
    let dirs: Vec<PathBuf> = (0..servers)
        .map(|i| root.join(format!("orig-{i}")))
        .collect();
    let no_compaction = |dir: &Path| {
        let mut cfg = make_cfg(dir);
        cfg.wal_max_bytes = u64::MAX;
        cfg.profile = false;
        cfg
    };
    let handles: Vec<ServerHandle> = dirs
        .iter()
        .map(|d| IngestServer::start(no_compaction(d)).expect("start recovery-phase server"))
        .collect();
    let (sent, acked) = tracer.span("recovery.fill", None, || fill(&handles));
    out.eq("recovery: every filled report acked", acked, sent);
    out.attempted += sent;
    out.failed += sent.saturating_sub(acked);
    let before: Vec<_> = handles
        .iter()
        .map(|h| (h.counts(), h.windowed_counts().map(|r| r.encode_ring())))
        .collect();
    for h in handles {
        h.crash();
    }
    // Push the crashed logs out of the page cache's dirty list before
    // any restart is timed: recovery fsyncs its manifest and snapshot,
    // and on a journalling filesystem that fsync would otherwise wait
    // for hundreds of MB of unrelated dirty log pages — the device's
    // time, not the program's.
    for dir in &dirs {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            if let Ok(file) = std::fs::File::open(entry.path()) {
                let _ = file.sync_all();
            }
        }
    }

    let mut times = Vec::with_capacity(RECOVERY_REPEATS);
    let (mut recovered, mut torn) = (0u64, 0u64);
    for round in 0..RECOVERY_REPEATS {
        let clones: Vec<PathBuf> = (0..servers)
            .map(|i| root.join(format!("round-{round}-{i}")))
            .collect();
        for (from, to) in dirs.iter().zip(&clones) {
            clone_data_dir(from, to).expect("clone crashed data directory");
        }
        let t0 = Instant::now();
        let restarted: Vec<ServerHandle> = tracer.span("recovery.restart", None, || {
            // Configs are built here; only the starts run side by side.
            let cfgs: Vec<ServerConfig> = clones.iter().map(|d| no_compaction(d)).collect();
            std::thread::scope(|scope| {
                let starts: Vec<_> = cfgs
                    .into_iter()
                    .map(|cfg| scope.spawn(|| IngestServer::start(cfg)))
                    .collect();
                starts
                    .into_iter()
                    .map(|s| {
                        s.join()
                            .expect("restart panicked")
                            .expect("restart on crashed dir")
                    })
                    .collect()
            })
        });
        times.push(t0.elapsed().as_secs_f64());
        (recovered, torn) = (0, 0);
        for (h, (counts, ring)) in restarted.iter().zip(&before) {
            out.check(
                "recovery: counters bit-identical after crash",
                &h.counts() == counts,
                format!("round {round}, {} reports", counts.num_reports),
            );
            out.check(
                "recovery: ring bit-identical after crash",
                &h.windowed_counts().map(|r| r.encode_ring()) == ring,
                format!("round {round}"),
            );
            recovered += h.recovery().recovered_reports;
            torn += h.recovery().torn_tails;
        }
        for h in restarted {
            h.crash();
        }
        for d in &clones {
            let _ = std::fs::remove_dir_all(d);
        }
    }
    out.eq("recovery: recovered every acked report", recovered, acked);
    out.set("recovery_s", stats::median(&times));
    out.set("service.storage.recovered_reports", recovered as f64);
    out.set("service.storage.torn_tails", torn as f64);
    out.note("recovery.reports", sent);
    let _ = std::fs::remove_dir_all(&root);
}
