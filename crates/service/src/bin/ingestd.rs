//! The ingestion daemon.
//!
//! ```text
//! ingestd --data-dir DIR (--regions N | --region-graph FILE)
//!         [--addr 127.0.0.1:7070]
//!         [--workers W] [--snapshot-every K] [--wal-flush-every F]
//!         [--read-timeout-ms MS]
//!         [--fsync-records N] [--fsync-ms MS]         # group-commit fsync
//!         [--wal-max-bytes B]                         # online compaction
//!         [--window-len U --windows W]                # streaming windows
//!         [--publish-every-ms MS] [--server-clock]
//!         [--max-conn-advance N] [--backend dense|sparse-w2]
//!         [--budget-eps E] [--budget-window W]        # w-window ε budget
//!         [--budget-policy uniform|adaptive]
//!         [--grants]                                  # TSGB grant session
//!         [--export-addr HOST:PORT]                   # cluster snapshot export
//!         [--dump-counts]
//! ```
//!
//! The region universe comes from either `--regions N` (bare universe,
//! tiles default to hour 0 — aggregation only) or `--region-graph FILE`
//! (a `TSRG` blob from `trajshare_core::write_region_graph_file`,
//! carrying the public distance matrix, hour tiles, and `W₂`). With a
//! graph the daemon is a *complete* dataset-less deployment: every
//! publication tick it also runs `ServerHandle::estimate_window_model`
//! on the configured `--backend` and prints one `model …` line with the
//! live per-window estimate summary.
//!
//! With `--window-len`/`--windows` the server runs the streaming
//! workload: timestamped reports land in a sliding window ring and every
//! `--publish-every-ms` the daemon prints one `published ...` line with
//! the merged window view. `--server-clock` stamps timestamps at the
//! collector edge, and `--max-conn-advance N` bounds how many windows a
//! single connection may advance the watermark.
//!
//! `--budget-eps E` enforces the continuous-publication privacy budget:
//! over any `--budget-window` (default: the ring depth) consecutive
//! windows, published per-user spend stays ≤ E, with per-window shares
//! chosen by `--budget-policy` (RetraSyn-style `adaptive` reallocates
//! unspent budget from quiet windows to shifting ones). Refused windows
//! are excluded from model estimates and visible in the `published`
//! lines.
//!
//! `--grants` closes that loop: the maintenance thread pre-allocates the
//! *next* window's ε′ every publication tick and pushes it as a `TSGB`
//! frame down every connection that subscribed with a `TSGH` hello
//! (`loadgen --follow-grants`, `GrantClient`). Honest clients randomize
//! at exactly the granted rate, so settlement observes spend == grant
//! and refusals become the asserted-near-zero exception path. With a
//! `--region-graph` the allocator's change detector also upgrades from
//! raw occupancy to significance-tested *debiased* per-window
//! posteriors. A cluster worker runs `--grants` without `--budget-eps`:
//! its grants arrive from the coordinator, relayed by `routerd` over
//! the `TSCL` export listener.
//!
//! `--export-addr` opens the cluster snapshot-export listener: a
//! `routerd` coordinator connects there and pulls this worker's merged
//! counter + ring state over the `TSCL` protocol
//! (`trajshare_aggregate::clusterproto`), which is what lets N workers
//! behind a router publish as one exactly-merged cluster.
//!
//! `--dump-counts` runs recovery only and prints a JSON fingerprint of
//! the restored state: counters, the window ring (with per-window budget
//! spends), and the restored budget ledger. Windows and budget decisions
//! are sorted by window id, so two workers' dumps (or one worker's dump
//! before and after a restart) diff cleanly.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::time::Duration;
use trajshare_aggregate::{
    eps_to_nano, nano_to_eps, AllocationPolicy, EstimatorBackend, WindowBudgetConfig, WindowConfig,
};
use trajshare_core::{read_region_graph_file, RegionGraph};
use trajshare_service::{
    CountsSummary, IngestServer, ServerConfig, StreamServerConfig, SyncPolicy,
};

fn usage() -> ! {
    eprintln!(
        "usage: ingestd --data-dir DIR (--regions N | --region-graph FILE) [--addr HOST:PORT] \
         [--workers W] [--snapshot-every K] [--wal-flush-every F] [--read-timeout-ms MS] \
         [--fsync-records N] [--fsync-ms MS] [--wal-max-bytes B] \
         [--window-len U --windows W] [--publish-every-ms MS] [--server-clock] \
         [--max-conn-advance N] [--backend dense|sparse-w2] \
         [--budget-eps E] [--budget-window W] [--budget-policy uniform|adaptive] \
         [--grants] [--export-addr HOST:PORT] [--profile] [--dump-counts]"
    );
    std::process::exit(2)
}

/// Strict flag-value parsing: a value that does not parse is a usage
/// error, never a silent fallback to a default.
fn parsed<T: std::str::FromStr>(v: String) -> T {
    v.parse().unwrap_or_else(|_| usage())
}

/// The recovered-state fingerprint `--dump-counts` prints.
#[derive(serde::Serialize)]
struct DumpSummary {
    counts: CountsSummary,
    /// Restored live windows (streaming deployments only).
    windows: Option<Vec<WindowSummary>>,
    newest_window: Option<u64>,
    /// Restored budget ledger (budgeted deployments only).
    budget: Option<BudgetDump>,
}

#[derive(serde::Serialize)]
struct WindowSummary {
    window: u64,
    reports: u64,
    /// Budget spend recorded for the window, ε (0 when unbudgeted).
    spent_eps: f64,
}

#[derive(serde::Serialize)]
struct BudgetDump {
    total_eps: f64,
    horizon: usize,
    policy: String,
    sliding_spent_eps: f64,
    refused_windows: u64,
    recycled_eps: f64,
    /// Refused decisions over the whole grant *history* (outlives the
    /// ledger horizon) — the closed-loop health number the CI smoke
    /// asserts stays 0 under `--grants` + `loadgen --follow-grants`.
    budget_refusals: u64,
    /// The allocation epoch the next grant will carry.
    current_epoch: u64,
    decisions: Vec<DecisionDump>,
    /// The trailing grant history — every allocation the ledger made
    /// (window, epoch, granted ε′, settled max ε′), oldest first,
    /// retained past both the ledger horizon and the ring depth.
    grants: Vec<GrantDump>,
}

#[derive(serde::Serialize)]
struct DecisionDump {
    window: u64,
    granted_eps: f64,
    spent_eps: f64,
    refused: bool,
}

#[derive(serde::Serialize)]
struct GrantDump {
    window: u64,
    epoch: u64,
    granted_eps: f64,
    settled_eps: f64,
    refused: bool,
}

/// One-line live summary of a freshly estimated window model: the top
/// occupancy regions plus how much feasible transition mass the model
/// carries — enough for an operator (or the CI smoke) to see estimation
/// working end to end without a dataset anywhere near the daemon.
fn model_summary(model: &trajshare_aggregate::MobilityModel) -> String {
    let mut top: Vec<(usize, f64)> = model
        .occupancy
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, p)| p > 0.0)
        .collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    top.truncate(3);
    let top: Vec<String> = top.iter().map(|(r, p)| format!("{r}:{:.3}", p)).collect();
    let trans_nnz = model.transition.iter().filter(|&&p| p > 0.0).count();
    format!(
        "debiased={} occ_top=[{}] trans_nnz={trans_nnz}",
        model.debiased,
        top.join(" ")
    )
}

fn main() {
    let mut data_dir: Option<String> = None;
    let mut regions: Option<usize> = None;
    let mut region_graph: Option<String> = None;
    let mut addr: SocketAddr = "127.0.0.1:7070".parse().unwrap();
    let mut workers: Option<usize> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut wal_flush_every: Option<u32> = None;
    let mut read_timeout_ms: Option<u64> = None;
    let mut fsync_records: Option<u32> = None;
    let mut fsync_ms: Option<u64> = None;
    let mut wal_max_bytes: Option<u64> = None;
    let mut window_len: Option<u64> = None;
    let mut windows: Option<usize> = None;
    let mut publish_every_ms: u64 = 1_000;
    let mut server_clock = false;
    let mut max_conn_advance: Option<u64> = None;
    let mut backend = EstimatorBackend::default();
    let mut budget_eps: Option<f64> = None;
    let mut budget_window: Option<usize> = None;
    let mut budget_policy = AllocationPolicy::Uniform;
    let mut grants = false;
    let mut export_addr: Option<SocketAddr> = None;
    let mut profile = false;
    let mut dump_counts = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| match args.next() {
            Some(v) => v,
            None => usage(),
        };
        match flag.as_str() {
            "--data-dir" => data_dir = Some(value(&mut args)),
            "--regions" => regions = Some(parsed(value(&mut args))),
            "--region-graph" => region_graph = Some(value(&mut args)),
            "--addr" => addr = parsed(value(&mut args)),
            "--workers" => workers = Some(parsed(value(&mut args))),
            "--snapshot-every" => snapshot_every = Some(parsed(value(&mut args))),
            "--wal-flush-every" => wal_flush_every = Some(parsed(value(&mut args))),
            "--read-timeout-ms" => read_timeout_ms = Some(parsed(value(&mut args))),
            "--fsync-records" => fsync_records = Some(parsed(value(&mut args))),
            "--fsync-ms" => fsync_ms = Some(parsed(value(&mut args))),
            "--wal-max-bytes" => wal_max_bytes = Some(parsed(value(&mut args))),
            "--window-len" => window_len = Some(parsed(value(&mut args))),
            "--windows" => windows = Some(parsed(value(&mut args))),
            "--publish-every-ms" => publish_every_ms = parsed(value(&mut args)),
            "--server-clock" => server_clock = true,
            "--max-conn-advance" => max_conn_advance = Some(parsed(value(&mut args))),
            "--backend" => {
                backend = EstimatorBackend::parse(&value(&mut args)).unwrap_or_else(|| usage())
            }
            "--budget-eps" => budget_eps = Some(parsed(value(&mut args))),
            "--budget-window" => budget_window = Some(parsed(value(&mut args))),
            "--budget-policy" => {
                budget_policy =
                    AllocationPolicy::parse(&value(&mut args)).unwrap_or_else(|| usage())
            }
            "--grants" => grants = true,
            "--export-addr" => export_addr = Some(parsed(value(&mut args))),
            "--profile" => profile = true,
            "--dump-counts" => dump_counts = true,
            _ => usage(),
        }
    }
    let Some(data_dir) = data_dir else { usage() };

    // The public universe: a bare `--regions N` (tiles default to hour
    // 0), or the full region-graph file, which also enables live model
    // estimation. Given both, they must agree.
    let graph: Option<std::sync::Arc<RegionGraph>>;
    let tiles: Vec<u16>;
    match &region_graph {
        Some(path) => {
            let (g, t) = read_region_graph_file(std::path::Path::new(path)).unwrap_or_else(|e| {
                eprintln!("ingestd: cannot load region graph: {e}");
                std::process::exit(1)
            });
            if regions.is_some_and(|n| n != t.len()) {
                eprintln!(
                    "ingestd: --regions {} disagrees with the graph's universe of {}",
                    regions.unwrap(),
                    t.len()
                );
                std::process::exit(1)
            }
            tiles = t;
            graph = Some(std::sync::Arc::new(g));
        }
        None => {
            let Some(n) = regions else { usage() };
            if n == 0 {
                usage()
            }
            tiles = vec![0u16; n];
            graph = None;
        }
    }

    let window = match (window_len, windows) {
        (Some(len), Some(n)) if len >= 1 && n >= 1 => Some(WindowConfig {
            window_len: len,
            num_windows: n,
        }),
        (None, None) => None,
        _ => usage(), // both or neither
    };
    let budget = match (budget_eps, window) {
        (Some(eps), Some(w)) => {
            let total_nano = eps_to_nano(eps);
            if total_nano == 0 {
                usage()
            }
            Some(WindowBudgetConfig::new(
                total_nano,
                budget_window.unwrap_or(w.num_windows).max(1),
                budget_policy,
            ))
        }
        (Some(_), None) => usage(), // budget needs the streaming workload
        (None, _) => None,
    };

    if dump_counts {
        // Read-only reconstruction: inspecting a data directory must
        // never compact it (and the dir lock refuses to race a live
        // server at all).
        let rec = trajshare_service::load(std::path::Path::new(&data_dir), &tiles, window)
            .unwrap_or_else(|e| {
                eprintln!("ingestd: cannot load {data_dir}: {e}");
                std::process::exit(1)
            });
        let summary = DumpSummary {
            counts: CountsSummary::of(&rec.counts),
            windows: rec.ring.as_ref().map(|r| {
                // Sorted by window id here, not by trusting the ring's
                // internal iteration order: cluster CI diffs worker
                // dumps, so the output ordering is part of the contract.
                let mut rows: Vec<WindowSummary> = r
                    .windows()
                    .iter()
                    .map(|(id, c)| WindowSummary {
                        window: *id,
                        reports: c.num_reports,
                        spent_eps: nano_to_eps(r.window_spend(*id)),
                    })
                    .collect();
                rows.sort_by_key(|w| w.window);
                rows
            }),
            newest_window: rec.ring.as_ref().map(|r| r.newest_window()),
            budget: rec.budget.as_ref().map(|acct| BudgetDump {
                total_eps: nano_to_eps(acct.config().total_nano),
                horizon: acct.config().horizon,
                policy: acct.config().policy.name().to_string(),
                sliding_spent_eps: nano_to_eps(acct.sliding_spend_nano()),
                refused_windows: acct.refused_windows(),
                recycled_eps: nano_to_eps(acct.recycled_nano()),
                budget_refusals: acct.grant_history().filter(|r| r.refused).count() as u64,
                current_epoch: acct.current_epoch(),
                grants: acct
                    .grant_history()
                    .map(|r| GrantDump {
                        window: r.window,
                        epoch: r.epoch,
                        granted_eps: nano_to_eps(r.granted_nano),
                        settled_eps: nano_to_eps(r.settled_nano),
                        refused: r.refused,
                    })
                    .collect(),
                decisions: {
                    // Same contract as the window list: sorted by
                    // window id regardless of ledger iteration order.
                    let mut rows: Vec<DecisionDump> = acct
                        .decisions()
                        .map(|d| DecisionDump {
                            window: d.window,
                            granted_eps: nano_to_eps(d.granted_nano),
                            spent_eps: nano_to_eps(d.spent_nano),
                            refused: d.refused,
                        })
                        .collect();
                    rows.sort_by_key(|d| d.window);
                    rows
                },
            }),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).expect("serialize summary")
        );
        return;
    }

    let mut config = ServerConfig::new(&data_dir, tiles);
    config.addr = addr;
    if let Some(w) = workers {
        config.workers = w.max(1);
    }
    if let Some(k) = snapshot_every {
        config.snapshot_every = k.max(1);
    }
    if let Some(f) = wal_flush_every {
        config.wal_flush_every = f.max(1);
    }
    if let Some(ms) = read_timeout_ms {
        config.read_timeout = Duration::from_millis(ms.max(1));
    }
    if fsync_records.is_some() || fsync_ms.is_some() {
        config.sync_policy = SyncPolicy::GroupCommit {
            records: fsync_records.unwrap_or(64).max(1),
            max_delay: Duration::from_millis(fsync_ms.unwrap_or(50)),
        };
    }
    if let Some(b) = wal_max_bytes {
        config.wal_max_bytes = b.max(1);
    }
    config.export_addr = export_addr;
    config.profile = profile;
    config.stream = window.map(|w| StreamServerConfig {
        window: w,
        publish_every: Duration::from_millis(publish_every_ms.max(10)),
        server_clock,
        max_conn_advance: max_conn_advance.unwrap_or(u64::MAX),
        backend,
        budget,
        grants,
        graph: graph.clone(),
    });

    let streaming = config.stream.is_some();
    let stream_desc = config.stream.as_ref().map(|s| {
        let budget_desc = s.budget.map_or("off".to_string(), |b| {
            format!("{}ε/{}w {}", nano_to_eps(b.total_nano), b.horizon, b.policy)
        });
        format!(
            ", streaming: clock={} advance-budget={} backend={} budget={} grants={}",
            if s.server_clock { "server" } else { "client" },
            if s.max_conn_advance == u64::MAX {
                "unlimited".to_string()
            } else {
                s.max_conn_advance.to_string()
            },
            s.backend,
            budget_desc,
            if s.grants { "on" } else { "off" },
        )
    });
    let handle = IngestServer::start(config).unwrap_or_else(|e| {
        eprintln!("ingestd: cannot start: {e}");
        std::process::exit(1)
    });
    let rec = handle.recovery();
    println!(
        "ingestd listening on {} (gen {}, recovered {} reports, {} replayed from log, {} windows restored{}{})",
        handle.addr(),
        rec.generation,
        rec.recovered_reports,
        rec.replayed_reports,
        rec.restored_windows,
        stream_desc.as_deref().unwrap_or(""),
        if graph.is_some() {
            ", region graph loaded"
        } else {
            ""
        },
    );
    if let Some(export) = handle.export_addr() {
        println!("ingestd exporting cluster snapshots on {export}");
    }
    // Park; SIGTERM/SIGKILL is the stop signal, and recovery is the
    // restart path — that asymmetry is exactly what the durability
    // design is for. When streaming, relay each publication to stdout
    // so operators (and the CI smoke test) see the live window view —
    // and, with a region graph, the live model estimate. With
    // `--profile`, a per-stage cost line every couple of seconds while
    // frames keep arriving.
    let mut printed_seq = 0u64;
    let mut profiled_batches = 0u64;
    let mut profile_tick = std::time::Instant::now();
    loop {
        if profile && profile_tick.elapsed() >= Duration::from_secs(2) {
            profile_tick = std::time::Instant::now();
            if let Some(p) = handle.ingest_profile() {
                if p.batches > profiled_batches && p.reports > 0 {
                    profiled_batches = p.batches;
                    println!(
                        "profile reports={} batches={} per-report ns: decode={} validate={} wal={} accumulate={} ack={} commits={}",
                        p.reports,
                        p.batches,
                        p.decode_ns / p.reports,
                        p.validate_ns / p.reports,
                        p.wal_ns / p.reports,
                        p.accumulate_ns / p.reports,
                        p.ack_ns / p.reports,
                        handle.stats().wal_commits.load(Ordering::Relaxed),
                    );
                }
            }
        }
        if streaming {
            if let Some(p) = handle.latest_publication() {
                if p.seq > printed_seq {
                    printed_seq = p.seq;
                    let windows: Vec<String> = p
                        .windows
                        .iter()
                        .map(|(id, n)| format!("{id}:{n}"))
                        .collect();
                    let budget_desc = p.budget.as_ref().map_or(String::new(), |b| {
                        format!(
                            " budget[spent={:.3}/{}ε grant={:.3} refused={}]",
                            nano_to_eps(b.sliding_spent_nano),
                            nano_to_eps(b.total_nano),
                            nano_to_eps(b.newest_granted_nano),
                            b.refused_windows,
                        )
                    });
                    println!(
                        "published seq={} newest={} oldest={} merged_reports={} late={} windows=[{}]{}",
                        p.seq,
                        p.watermark,
                        p.oldest_window,
                        p.merged_reports,
                        p.late_reports,
                        windows.join(" "),
                        budget_desc,
                    );
                    if let Some(g) = handle.latest_grant() {
                        println!(
                            "grant seq={} epoch={} window={} eps={:.3}",
                            p.seq,
                            g.epoch,
                            g.window,
                            nano_to_eps(g.granted_nano),
                        );
                    }
                    if let Some(graph) = &graph {
                        if let Some(model) = handle.estimate_window_model(graph) {
                            println!(
                                "model seq={} newest={} {}",
                                p.seq,
                                p.watermark,
                                model_summary(&model)
                            );
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        } else if profile {
            std::thread::sleep(Duration::from_millis(500));
        } else {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}
