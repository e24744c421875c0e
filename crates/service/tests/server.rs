//! Live-server behavior tests over loopback: correct ingestion, the ack
//! durability contract, slow-reader and hostile-client handling,
//! queue-full backpressure, and crash → restart recovery (toy universe;
//! the full 10k-report mechanism-driven run lives in the root
//! `tests/service_e2e.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use trajshare_aggregate::{
    eps_to_nano, Aggregator, AllocationPolicy, Report, ReportBatch, WindowBudgetConfig,
    WindowConfig, WindowedAggregator,
};
use trajshare_service::{
    encode_wire, stream_bytes_once, stream_reports, stream_reports_batched, IngestServer,
    ServerConfig, StreamServerConfig, SyncPolicy,
};

const REGIONS: usize = 6;

fn toy_report(i: u32) -> Report {
    toy_report_at(i, 0)
}

fn toy_report_at(i: u32, t: u64) -> Report {
    toy_report_eps(i, t, 0.75)
}

fn toy_report_eps(i: u32, t: u64, eps_prime: f64) -> Report {
    let a = i % REGIONS as u32;
    let b = (a + 1) % REGIONS as u32;
    Report {
        t,
        eps_prime,
        len: 2,
        unigrams: vec![(0, a), (1, b)],
        exact: vec![(0, a), (1, b)],
        transitions: vec![(a, b)],
    }
}

fn direct_counts(reports: &[Report]) -> trajshare_aggregate::AggregateCounts {
    let mut agg = Aggregator::from_region_tiles(vec![0; REGIONS]);
    for r in reports {
        agg.ingest(r);
    }
    agg.into_counts()
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trajshare-svc-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(tag: &str) -> (ServerConfig, PathBuf) {
    let dir = test_dir(tag);
    let mut cfg = ServerConfig::new(&dir, vec![0u16; REGIONS]);
    cfg.workers = 3;
    cfg.snapshot_every = 500;
    cfg.wal_flush_every = 16;
    cfg.read_timeout = Duration::from_secs(5);
    (cfg, dir)
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn streamed_reports_match_direct_ingestion() {
    let (cfg, dir) = config("stream");
    let server = IngestServer::start(cfg).unwrap();
    let reports: Vec<Report> = (0..2_000).map(toy_report).collect();
    let acked = stream_reports(server.addr(), &reports, 5).unwrap();
    assert_eq!(acked, reports.len() as u64);
    // Acked ⇒ already counted: no waiting, no sleep.
    assert_eq!(server.counts(), direct_counts(&reports));
    let final_counts = server.shutdown().unwrap();
    assert_eq!(final_counts, direct_counts(&reports));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_then_restart_recovers_exact_counters_across_reshard() {
    let (cfg, dir) = config("crash");
    let reports: Vec<Report> = (0..3_000).map(toy_report).collect();
    let expected = direct_counts(&reports);

    let server = IngestServer::start(cfg.clone()).unwrap();
    let acked = stream_reports(server.addr(), &reports, 4).unwrap();
    assert_eq!(acked, 3_000);
    server.crash(); // no final snapshot — recovery works from WAL tails

    // Restart with a *different* shard count: per-shard counter files and
    // logs from the old layout must merge exactly.
    let mut cfg2 = cfg.clone();
    cfg2.workers = 1;
    let server2 = IngestServer::start(cfg2).unwrap();
    assert_eq!(server2.counts(), expected);
    assert_eq!(server2.recovery().recovered_reports, 3_000);

    // The restarted server keeps ingesting on top of recovered state.
    let more: Vec<Report> = (0..500).map(|i| toy_report(i + 7)).collect();
    let acked = stream_reports(server2.addr(), &more, 2).unwrap();
    assert_eq!(acked, 500);
    let mut expected2 = expected.clone();
    expected2.merge(&direct_counts(&more));
    let final_counts = server2.shutdown().unwrap();
    assert_eq!(final_counts, expected2);

    // Third start after a *clean* shutdown sees the same totals.
    let server3 = IngestServer::start(cfg).unwrap();
    assert_eq!(server3.counts(), expected2);
    server3.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn data_dir_lock_refuses_second_server_and_load_is_read_only() {
    let (cfg, dir) = config("lock");
    let server = IngestServer::start(cfg.clone()).unwrap();
    // A second server (or any recovery) on a live directory must be
    // refused — compacting under a running server would unlink its WALs.
    assert!(IngestServer::start(cfg.clone()).is_err());
    assert!(trajshare_service::load(&dir, &[0u16; REGIONS], None).is_err());

    let reports: Vec<Report> = (0..100).map(toy_report).collect();
    assert_eq!(stream_reports(server.addr(), &reports, 2).unwrap(), 100);
    let expected = server.shutdown().unwrap();

    // After shutdown the lock is free; load() reconstructs without
    // advancing the generation (read-only inspection).
    let loaded = trajshare_service::load(&dir, &[0u16; REGIONS], None).unwrap();
    assert_eq!(loaded.counts, expected);
    let again = trajshare_service::load(&dir, &[0u16; REGIONS], None).unwrap();
    assert_eq!(again.gen, loaded.gen, "load must not compact or advance");

    let server2 = IngestServer::start(cfg).unwrap();
    assert_eq!(server2.counts(), expected);
    server2.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_reader_is_disconnected() {
    let (mut cfg, dir) = config("slow");
    cfg.read_timeout = Duration::from_millis(150);
    let server = IngestServer::start(cfg).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // A partial frame, then silence: the server must not wait forever.
    stream.write_all(&[0x10, 0x00]).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || {
            server.stats().disconnected_slow.load(Ordering::Relaxed) >= 1
        }),
        "stalled client was not disconnected"
    );
    // The dropped connection must not poison subsequent ingestion.
    let reports: Vec<Report> = (0..50).map(toy_report).collect();
    assert_eq!(stream_reports(server.addr(), &reports, 1).unwrap(), 50);
    server.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_frames_drop_the_connection_but_keep_prior_reports() {
    let (cfg, dir) = config("hostile");
    let server = IngestServer::start(cfg).unwrap();

    // One valid frame followed by garbage on the same connection.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let good = toy_report(1);
    stream.write_all(&good.encode_frame()).unwrap();
    let mut evil = 12u32.to_le_bytes().to_vec();
    evil.extend_from_slice(b"NOT A REPORT");
    stream.write_all(&evil).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || {
            server.stats().disconnected_protocol.load(Ordering::Relaxed) >= 1
        }),
        "hostile client was not dropped"
    );
    // No ack arrives; the socket just closes.
    let mut byte = [0u8; 1];
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(matches!(stream.read(&mut byte), Ok(0) | Err(_)));

    // An oversized length prefix is rejected before any buffering.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        server.stats().disconnected_protocol.load(Ordering::Relaxed) >= 2
    }));

    // The valid report that preceded the garbage was still counted.
    assert!(wait_until(Duration::from_secs(5), || {
        server.counts().num_reports == 1
    }));
    assert_eq!(server.counts(), direct_counts(&[good]));
    server.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eof_mid_frame_gets_no_ack_but_keeps_complete_reports() {
    let (cfg, dir) = config("eof");
    let server = IngestServer::start(cfg).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let good = toy_report(2);
    stream.write_all(&good.encode_frame()).unwrap();
    // First half of a second frame, then a clean write-side close: the
    // upload is incomplete, so no ack may be sent.
    let partial = toy_report(3).encode_frame();
    stream.write_all(&partial[..partial.len() / 2]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut ack = [0u8; 8];
    assert!(
        matches!(stream.read(&mut ack), Ok(0) | Err(_)),
        "truncated stream must not be acked"
    );
    assert!(wait_until(Duration::from_secs(5), || {
        server.stats().disconnected_protocol.load(Ordering::Relaxed) >= 1
    }));
    // The complete frame before the truncation still counts.
    assert!(wait_until(Duration::from_secs(5), || {
        server.counts().num_reports == 1
    }));
    assert_eq!(server.counts(), direct_counts(&[good]));
    server.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn windowed_server_publishes_and_recovers_the_ring() {
    let (mut cfg, dir) = config("window");
    let window = WindowConfig {
        window_len: 60,
        num_windows: 3,
    };
    cfg.stream = Some(StreamServerConfig::new(window, Duration::from_millis(50)));
    let server = IngestServer::start(cfg.clone()).unwrap();

    // Windows 0, 1, 2 live; then window 3 evicts window 0.
    let reports: Vec<Report> = (0..800)
        .map(|i| toy_report_at(i, (i as u64 % 4) * 60))
        .collect();
    assert_eq!(
        stream_reports(server.addr(), &reports, 4).unwrap(),
        reports.len() as u64
    );
    // Reference ring: serial ingestion of the same reports.
    let mut expected = WindowedAggregator::new(vec![0u16; REGIONS], window);
    for r in &reports {
        expected.ingest(r);
    }
    let view = server.windowed_counts().expect("streaming enabled");
    assert_eq!(
        view.merged(),
        expected.merged(),
        "bit-identical window view"
    );
    assert_eq!(view.newest_window(), 3);
    assert!(view.window_counts(0).is_none(), "window 0 evicted");
    for (id, counts) in expected.windows() {
        assert_eq!(view.window_counts(id), Some(counts), "window {id}");
    }
    // The publication thread reports the same shape.
    assert!(
        wait_until(Duration::from_secs(5), || server
            .latest_publication()
            .map(|p| p.merged_reports == expected.merged().num_reports)
            .unwrap_or(false)),
        "no publication with the full merged view arrived"
    );
    let p = server.latest_publication().unwrap();
    assert_eq!(p.watermark, 3);
    assert_eq!(p.windows.len(), expected.windows().len());

    // Crash (no final snapshot); the restarted, re-sharded server must
    // restore the ring bit-identically from ring blobs + WAL tails.
    server.crash();
    let mut cfg2 = cfg.clone();
    cfg2.workers = 1;
    let server2 = IngestServer::start(cfg2).unwrap();
    let restored = server2.windowed_counts().unwrap();
    assert_eq!(restored.merged(), expected.merged(), "ring survives crash");
    for (id, counts) in expected.windows() {
        assert_eq!(restored.window_counts(id), Some(counts));
    }
    // And it keeps sliding after the restart.
    let more: Vec<Report> = (0..100).map(|i| toy_report_at(i, 4 * 60)).collect();
    assert_eq!(stream_reports(server2.addr(), &more, 2).unwrap(), 100);
    for r in &more {
        expected.ingest(r);
    }
    let after = server2.windowed_counts().unwrap();
    assert_eq!(after.merged(), expected.merged());
    assert_eq!(after.newest_window(), 4);
    server2.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn online_compaction_bounds_wal_size_and_keeps_counters_exact() {
    let (mut cfg, dir) = config("compact");
    cfg.workers = 2;
    // Tiny WAL budget: a few dozen records trip compaction.
    cfg.wal_max_bytes = 2_048;
    cfg.stream = Some(StreamServerConfig::new(
        WindowConfig {
            window_len: 60,
            num_windows: 3,
        },
        Duration::from_millis(100),
    ));
    let server = IngestServer::start(cfg.clone()).unwrap();
    let start_gen = server.recovery().generation;
    let reports: Vec<Report> = (0..3_000)
        .map(|i| toy_report_at(i, (i as u64 / 1_500) * 60))
        .collect();
    assert_eq!(
        stream_reports(server.addr(), &reports, 4).unwrap(),
        reports.len() as u64
    );
    assert!(
        wait_until(Duration::from_secs(10), || {
            server.stats().compactions.load(Ordering::Relaxed) >= 1
        }),
        "no online compaction despite a tiny WAL budget"
    );
    // Quiesce before listing the directory: the generation moves before
    // a compaction sweeps the old files and counts itself, so wait until
    // every generation bump is a counted (swept) compaction and no live
    // WAL is over the limit (no further compaction is due).
    let wal_over_limit = || {
        std::fs::read_dir(&dir).unwrap().flatten().any(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with(&format!("shard-{}-", server.generation()))
                && name.ends_with(".log")
                && e.metadata().is_ok_and(|m| m.len() >= cfg.wal_max_bytes)
        })
    };
    assert!(
        wait_until(Duration::from_secs(10), || {
            server.generation() == start_gen + server.stats().compactions.load(Ordering::Relaxed)
                && !wal_over_limit()
        }),
        "online compaction never settled"
    );
    let gen_after = server.generation();
    assert!(gen_after > 1, "generation must bump on compaction");
    // Totals and window view stay exact through any number of folds.
    assert_eq!(server.counts(), direct_counts(&reports));
    let mut expected_ring =
        WindowedAggregator::new(vec![0u16; REGIONS], cfg.stream.as_ref().unwrap().window);
    for r in &reports {
        expected_ring.ingest(r);
    }
    assert_eq!(
        server.windowed_counts().unwrap().merged(),
        expected_ring.merged()
    );
    // Old-generation files are deleted: disk usage is bounded.
    let gen_of = |name: &str| -> Option<u64> {
        let rest = name
            .strip_prefix("shard-")
            .or_else(|| name.strip_prefix("base-"))
            .or_else(|| name.strip_prefix("ring-"))?;
        rest.split(['-', '.']).next()?.parse().ok()
    };
    let stale: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().to_str().map(String::from))
        .filter(|n| matches!(gen_of(n), Some(g) if g != gen_after))
        .collect();
    assert!(stale.is_empty(), "stale generation files remain: {stale:?}");

    // Crash right after compactions; recovery must still be exact.
    server.crash();
    let server2 = IngestServer::start(cfg.clone()).unwrap();
    assert_eq!(server2.counts(), direct_counts(&reports));
    assert_eq!(
        server2.windowed_counts().unwrap().merged(),
        expected_ring.merged()
    );
    server2.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_commit_sync_policy_keeps_the_ack_contract() {
    let (mut cfg, dir) = config("fsync");
    cfg.sync_policy = SyncPolicy::GroupCommit {
        records: 32,
        max_delay: Duration::from_millis(20),
    };
    let server = IngestServer::start(cfg.clone()).unwrap();
    let reports: Vec<Report> = (0..500).map(toy_report).collect();
    assert_eq!(stream_reports(server.addr(), &reports, 3).unwrap(), 500);
    assert_eq!(server.counts(), direct_counts(&reports));
    server.crash();
    let server2 = IngestServer::start(cfg).unwrap();
    assert_eq!(server2.counts(), direct_counts(&reports));
    server2.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_refuses_connections_instead_of_buffering() {
    let (mut cfg, dir) = config("backpressure");
    cfg.workers = 1;
    cfg.queue_depth = 1;
    cfg.read_timeout = Duration::from_secs(2);
    let server = IngestServer::start(cfg).unwrap();

    // Occupy the only worker with a half-open stream, fill the queue
    // with a second connection, then pile on more: the acceptor must
    // shed them immediately rather than queueing without bound.
    let mut busy = TcpStream::connect(server.addr()).unwrap();
    busy.write_all(&[0x01]).unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        server.stats().accepted.load(Ordering::Relaxed) >= 1
    }));
    let _queued = TcpStream::connect(server.addr()).unwrap();
    let _spill: Vec<_> = (0..5)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    assert!(
        wait_until(Duration::from_secs(5), || {
            server.stats().refused.load(Ordering::Relaxed) >= 1
        }),
        "no connection was refused under a full queue"
    );
    server.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watermark_advance_is_rate_limited_per_connection() {
    let (mut cfg, dir) = config("throttle");
    cfg.workers = 1; // one shard: the ring watermark is global
    let mut stream_cfg = StreamServerConfig::new(
        WindowConfig {
            window_len: 60,
            num_windows: 3,
        },
        Duration::from_millis(50),
    );
    stream_cfg.max_conn_advance = 2;
    cfg.stream = Some(stream_cfg);
    let server = IngestServer::start(cfg.clone()).unwrap();

    // One connection: windows 0, 1, 2 (advance budget 2 consumed), then
    // a hostile far-future jump that would wipe the whole ring — the
    // budget is spent, so the jump is refused and the ring stands.
    let reports = vec![
        toy_report_at(0, 0),
        toy_report_at(1, 60),
        toy_report_at(2, 120),
        toy_report_at(3, 1_000_000),
        toy_report_at(4, 125), // still in-window: accepted after the refusal
    ];
    let acked = stream_reports(server.addr(), &reports, 1).unwrap();
    assert_eq!(acked, 4, "the far-future report must not be acked");
    assert_eq!(
        server.stats().watermark_throttled.load(Ordering::Relaxed),
        1
    );
    let view = server.windowed_counts().unwrap();
    assert_eq!(view.newest_window(), 2, "watermark must not jump");
    assert_eq!(view.merged().num_reports, 4);

    // A fresh connection gets a fresh budget: it may advance (by ≤ 2).
    assert_eq!(
        stream_reports(server.addr(), &[toy_report_at(5, 180)], 1).unwrap(),
        1
    );
    let view = server.windowed_counts().unwrap();
    assert_eq!(view.newest_window(), 3);

    // Restart: throttled reports never reached the WAL, so recovery
    // reproduces exactly the accepted set.
    server.crash();
    let server2 = IngestServer::start(cfg).unwrap();
    assert_eq!(server2.counts().num_reports, 5);
    server2.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_clock_stamps_reports_at_the_collector_edge() {
    let (mut cfg, dir) = config("server-clock");
    let mut stream_cfg = StreamServerConfig::new(
        WindowConfig {
            window_len: 60,
            num_windows: 4,
        },
        Duration::from_millis(50),
    );
    stream_cfg.server_clock = true;
    // Regression: a tight advance budget must not refuse edge-stamped
    // reports — the stamp is the server's own clock, trusted by
    // construction (a fresh ring starts at the "now" window, and the
    // budget only polices client-declared timestamps).
    stream_cfg.max_conn_advance = 2;
    cfg.stream = Some(stream_cfg);
    let before = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_secs()
        / 60;
    let server = IngestServer::start(cfg.clone()).unwrap();

    // Clients declare absurd timestamps in both directions; the collector
    // overrides them all with its own clock, so everything lands in the
    // "now" window and nothing is late or evicted.
    let reports = vec![
        toy_report_at(0, 0),
        toy_report_at(1, u64::MAX / 2),
        toy_report_at(2, 7),
    ];
    assert_eq!(stream_reports(server.addr(), &reports, 1).unwrap(), 3);
    assert_eq!(
        server.stats().watermark_throttled.load(Ordering::Relaxed),
        0,
        "server-clock stamps must bypass the advance budget"
    );
    let view = server.windowed_counts().unwrap();
    assert_eq!(view.merged().num_reports, 3);
    assert_eq!(view.late(), 0);
    assert!(
        view.newest_window() >= before,
        "stamped window {} must be the server's clock, not the client's",
        view.newest_window()
    );
    assert!(view.windows().len() <= 2, "all reports land around now");

    // The *stamped* timestamps are what the WAL holds: recovery lands
    // the reports back in the server-clock windows, not window 0.
    server.crash();
    let server2 = IngestServer::start(cfg).unwrap();
    let restored = server2.windowed_counts().unwrap();
    assert_eq!(restored.merged().num_reports, 3);
    assert!(restored.newest_window() >= before);
    server2.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn advance_budget_is_free_on_an_empty_ring() {
    // Clients stamping epoch seconds must be able to reach "now" from a
    // cold start's watermark 0 even under a tight budget: advancing an
    // empty ring evicts nothing, so it costs nothing. Once live data
    // exists, the budget bites.
    let (mut cfg, dir) = config("cold-start-budget");
    cfg.workers = 1;
    let mut stream_cfg = StreamServerConfig::new(
        WindowConfig {
            window_len: 60,
            num_windows: 3,
        },
        Duration::from_millis(50),
    );
    stream_cfg.max_conn_advance = 1;
    cfg.stream = Some(stream_cfg);
    let server = IngestServer::start(cfg).unwrap();

    let epoch = 1_700_000_000u64;
    assert_eq!(
        stream_reports(server.addr(), &[toy_report_at(0, epoch)], 1).unwrap(),
        1,
        "first epoch-stamped report must be free on the empty ring"
    );
    let view = server.windowed_counts().unwrap();
    assert_eq!(view.newest_window(), epoch / 60);
    // Now the ring holds live data: a 100-window jump overdraws budget 1.
    assert_eq!(
        stream_reports(server.addr(), &[toy_report_at(1, epoch + 6_000)], 1).unwrap(),
        0
    );
    assert_eq!(
        server.stats().watermark_throttled.load(Ordering::Relaxed),
        1
    );
    assert_eq!(
        server.windowed_counts().unwrap().newest_window(),
        epoch / 60
    );
    server.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_accountant_enforces_the_sliding_invariant_across_restart() {
    let (mut cfg, dir) = config("budget");
    let window = WindowConfig {
        window_len: 60,
        num_windows: 4,
    };
    let mut stream_cfg = StreamServerConfig::new(window, Duration::from_millis(30));
    // Reports claim ε′ = 0.75; a 3ε / 3-window contract grants each
    // window 1.0ε uniform, so every window is accepted with 0.25ε
    // recycled.
    let budget_cfg = WindowBudgetConfig::new(eps_to_nano(3.0), 3, AllocationPolicy::Uniform);
    stream_cfg.budget = Some(budget_cfg);
    cfg.stream = Some(stream_cfg);
    let server = IngestServer::start(cfg.clone()).unwrap();

    // Four windows of reports: the 3-window sliding sum must stay ≤ 3ε
    // while windows enter and leave the horizon.
    for w in 0..4u64 {
        let reports: Vec<Report> = (0..200).map(|i| toy_report_at(i, w * 60)).collect();
        assert_eq!(stream_reports(server.addr(), &reports, 2).unwrap(), 200);
        assert!(
            wait_until(Duration::from_secs(5), || server
                .budget_ledger()
                .and_then(|a| a.decided())
                .is_some_and(|d| d >= w)),
            "window {w} never decided"
        );
    }
    let ledger = server.budget_ledger().unwrap();
    let per_window = eps_to_nano(0.75);
    // Every live decision settled to the observed worst-case (max)
    // per-report ε′ — here every report claims 0.75, so max == mean;
    // nothing refused; the sliding sum is within the contract.
    for d in ledger.decisions() {
        assert!(!d.refused, "window {} refused", d.window);
        assert_eq!(d.spent_nano, per_window, "window {}", d.window);
    }
    assert!(ledger.sliding_spend_nano() <= budget_cfg.total_nano);
    assert_eq!(ledger.sliding_spend_nano(), 3 * per_window);
    assert!(server.budget_refused_windows().is_empty());
    let p = server.latest_publication().unwrap();
    let b = p.budget.expect("budgeted publication");
    assert_eq!(b.sliding_spent_nano, 3 * per_window);
    assert_eq!(b.newest_spent_nano, per_window);
    assert!(!b.newest_refused);

    // Kill (no graceful snapshot) → restart: the ledger must come back
    // from the BUDGET blob with the same decisions and sliding sum.
    server.crash();
    let server2 = IngestServer::start(cfg.clone()).unwrap();
    let restored = server2.budget_ledger().unwrap();
    assert_eq!(restored.decided(), ledger.decided());
    assert_eq!(restored.sliding_spend_nano(), ledger.sliding_spend_nano());
    assert!(restored.sliding_spend_nano() <= budget_cfg.total_nano);
    // The restored ring carries the spend annotations too.
    let view = server2.windowed_counts().unwrap();
    for d in restored.decisions() {
        if d.window >= view.oldest_window() && view.window_counts(d.window).is_some() {
            assert_eq!(
                view.window_spend(d.window),
                d.spent_nano,
                "window {}",
                d.window
            );
        }
    }
    // A fifth window keeps the invariant rolling post-restart.
    let reports: Vec<Report> = (0..200).map(|i| toy_report_at(i, 4 * 60)).collect();
    assert_eq!(stream_reports(server2.addr(), &reports, 2).unwrap(), 200);
    assert!(wait_until(Duration::from_secs(5), || server2
        .budget_ledger()
        .and_then(|a| a.decided())
        == Some(4)));
    let after = server2.budget_ledger().unwrap();
    assert!(after.sliding_spend_nano() <= budget_cfg.total_nano);
    server2.crash();

    // Read-only inspection surfaces the ledger as well.
    let rec = trajshare_service::load(&dir, &[0u16; REGIONS], Some(window)).unwrap();
    let dumped = rec.budget.expect("BUDGET blob restored");
    assert_eq!(dumped.decided(), after.decided());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn over_budget_windows_are_refused_and_excluded_from_estimates() {
    let (mut cfg, dir) = config("budget-refuse");
    let window = WindowConfig {
        window_len: 60,
        num_windows: 3,
    };
    let mut stream_cfg = StreamServerConfig::new(window, Duration::from_millis(30));
    // 1ε over 2 windows ⇒ 0.5ε per-window grant, but the cohort claims
    // ε′ = 0.75 — every decided window must be refused.
    let budget_cfg = WindowBudgetConfig::new(eps_to_nano(1.0), 2, AllocationPolicy::Uniform);
    stream_cfg.budget = Some(budget_cfg);
    cfg.stream = Some(stream_cfg);
    let server = IngestServer::start(cfg).unwrap();

    let reports: Vec<Report> = (0..300)
        .map(|i| toy_report_at(i, (i as u64 % 2) * 60))
        .collect();
    assert_eq!(stream_reports(server.addr(), &reports, 3).unwrap(), 300);
    assert!(
        wait_until(Duration::from_secs(5), || server
            .stats()
            .budget_refusals
            .load(Ordering::Relaxed)
            >= 2),
        "refusals never recorded"
    );
    let refused = server.budget_refused_windows();
    assert_eq!(refused, vec![0, 1], "both windows over budget");
    let ledger = server.budget_ledger().unwrap();
    // Refusal keeps the full grant on the books: the cohort randomized
    // against the broadcast grant, so that ε is consumed whether or not
    // the window is published — zeroing it would recycle spent budget.
    let grant = eps_to_nano(0.5);
    for d in ledger.decisions() {
        assert!(d.refused);
        assert_eq!(d.spent_nano, grant, "refused windows keep their grant");
    }
    assert_eq!(ledger.sliding_spend_nano(), 2 * grant);
    assert!(ledger.sliding_spend_nano() <= eps_to_nano(1.0));
    let p = server.latest_publication().unwrap();
    let b = p.budget.unwrap();
    assert!(b.newest_refused);
    assert_eq!(b.refused_windows, 2);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn counters_never_run_ahead_of_the_publication_they_describe() {
    let (mut cfg, dir) = config("counter-order");
    // A ring deep enough that no refused window slides out mid-test, so
    // the live refused set only grows.
    let window = WindowConfig {
        window_len: 60,
        num_windows: 4,
    };
    let mut stream_cfg = StreamServerConfig::new(window, Duration::from_millis(1));
    // 0.5ε grants against 0.75ε cohorts: every window is refused.
    stream_cfg.budget = Some(WindowBudgetConfig::new(
        eps_to_nano(1.0),
        2,
        AllocationPolicy::Uniform,
    ));
    cfg.stream = Some(stream_cfg);
    let server = IngestServer::start(cfg).unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        // A reader that sees a counter move must find the publication
        // behind it: never an older record, never none at all.
        let reader = scope.spawn(|| {
            let mut checked = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let stats = server.stats();
                let refusals = stats.budget_refusals.load(Ordering::Acquire);
                let publications = stats.publications.load(Ordering::Acquire);
                let latest = server.latest_publication();
                if publications == 0 && refusals == 0 {
                    continue;
                }
                let p = latest.expect("a counter moved before its publication was stored");
                assert!(p.seq >= publications, "seq {} < {publications}", p.seq);
                assert!(
                    p.refused_windows.len() as u64 >= refusals,
                    "publication {} shows {:?} after {refusals} refusals",
                    p.seq,
                    p.refused_windows
                );
                checked += 1;
            }
            checked
        });
        for w in 0..3u64 {
            let reports: Vec<Report> = (0..200).map(|i| toy_report_eps(i, w * 60, 0.75)).collect();
            assert_eq!(stream_reports(server.addr(), &reports, 2).unwrap(), 200);
            assert!(
                wait_until(Duration::from_secs(5), || {
                    server.stats().budget_refusals.load(Ordering::Relaxed) > w
                }),
                "window {w} never refused"
            );
        }
        stop.store(true, Ordering::Relaxed);
        assert!(
            reader.join().unwrap() > 0,
            "the reader never saw a counter move"
        );
    });
    assert_eq!(server.budget_refused_windows(), vec![0, 1, 2]);
    server.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_over_claiming_reporter_refuses_the_window_despite_a_low_mean() {
    let (mut cfg, dir) = config("budget-max");
    let window = WindowConfig {
        window_len: 60,
        num_windows: 3,
    };
    let mut stream_cfg = StreamServerConfig::new(window, Duration::from_millis(30));
    // 1ε over 2 windows ⇒ 0.5ε grant. 200 reports at ε′ = 0.01 keep the
    // cohort mean ≈ 0.014 — far under the grant — but one reporter
    // claims ε′ = 0.9: that user alone blows the per-user contract, so
    // the window must be refused. (Settling against the mean would have
    // accepted it.)
    let budget_cfg = WindowBudgetConfig::new(eps_to_nano(1.0), 2, AllocationPolicy::Uniform);
    stream_cfg.budget = Some(budget_cfg);
    cfg.stream = Some(stream_cfg);
    let server = IngestServer::start(cfg).unwrap();

    let mut reports: Vec<Report> = (0..200).map(|i| toy_report_eps(i, 0, 0.01)).collect();
    reports.push(toy_report_eps(7, 0, 0.9));
    assert_eq!(stream_reports(server.addr(), &reports, 2).unwrap(), 201);
    assert!(
        wait_until(Duration::from_secs(5), || server
            .budget_refused_windows()
            .contains(&0)),
        "the over-claiming reporter's window was never refused"
    );
    let d = server.budget_ledger().unwrap().decision(0).unwrap();
    assert!(d.refused);
    assert_eq!(d.spent_nano, eps_to_nano(0.5), "grant stays on the books");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expired_but_live_windows_stay_frozen_against_late_over_claims() {
    let (mut cfg, dir) = config("budget-expired");
    // Ring deeper than the budget horizon: window 0 is still live when
    // its ledger entry expires from the 3-window horizon.
    let window = WindowConfig {
        window_len: 60,
        num_windows: 5,
    };
    let mut stream_cfg = StreamServerConfig::new(window, Duration::from_millis(30));
    let budget_cfg = WindowBudgetConfig::new(eps_to_nano(3.0), 3, AllocationPolicy::Uniform);
    stream_cfg.budget = Some(budget_cfg);
    cfg.stream = Some(stream_cfg);
    let server = IngestServer::start(cfg.clone()).unwrap();

    // Windows 0..=3 at ε′ = 0.75 against a 1ε uniform grant: all
    // accepted. Once window 3 is decided, window 0's ledger entry has
    // expired (3 − 0 ≥ horizon 3) while the 5-deep ring keeps it live.
    for w in 0..4u64 {
        let reports: Vec<Report> = (0..50).map(|i| toy_report_at(i, w * 60)).collect();
        assert_eq!(stream_reports(server.addr(), &reports, 2).unwrap(), 50);
        assert!(
            wait_until(Duration::from_secs(5), || server
                .budget_ledger()
                .and_then(|a| a.decided())
                .is_some_and(|d| d >= w)),
            "window {w} never decided"
        );
    }
    assert!(wait_until(Duration::from_secs(5), || !server
        .budget_refused_windows()
        .contains(&0)));
    assert!(
        server.budget_ledger().unwrap().decision(0).is_none(),
        "window 0 must have expired from the ledger for this test to bite"
    );
    // Late reports raise window 0's worst-case ε′ above its settled
    // 0.75: the surplus is unaccounted (the entry is gone, so nothing
    // can re-settle it), and the frozen-window rule must refuse the
    // window instead of letting it keep publishing.
    let late: Vec<Report> = (0..5).map(|i| toy_report_eps(i, 0, 0.9)).collect();
    assert_eq!(stream_reports(server.addr(), &late, 1).unwrap(), 5);
    assert!(
        wait_until(Duration::from_secs(5), || server
            .budget_refused_windows()
            .contains(&0)),
        "expired-but-live window escaped the frozen-refusal guard"
    );
    assert!(
        !server.budget_refused_windows().contains(&3),
        "in-horizon windows unaffected"
    );

    // Restart (graceful, so shard snapshots persist the spend mirrors):
    // the recovered books must re-refuse window 0 — its over-claiming
    // cohort is still in the ring — while in-horizon windows come back
    // unrefused.
    server.shutdown().unwrap();
    let server2 = IngestServer::start(cfg).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || server2
            .budget_refused_windows()
            .contains(&0)),
        "recovered books lost the frozen refusal across restart"
    );
    assert!(!server2.budget_refused_windows().contains(&3));
    server2.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_frames_match_single_ingestion_and_recover_from_the_wal() {
    let (mut cfg, dir) = config("batched");
    let window = WindowConfig {
        window_len: 60,
        num_windows: 4,
    };
    cfg.stream = Some(StreamServerConfig::new(window, Duration::from_millis(50)));
    let server = IngestServer::start(cfg.clone()).unwrap();

    // Timestamps cycle across windows so TSR4 frames straddle window
    // boundaries; the batched path must still aggregate bit-identically
    // to serial ingestion of the same stream.
    let reports: Vec<Report> = (0..2_000)
        .map(|i| toy_report_at(i, (i as u64 % 3) * 60))
        .collect();
    let acked = stream_reports_batched(server.addr(), &reports, 4, 128).unwrap();
    assert_eq!(acked, reports.len() as u64);
    assert_eq!(server.counts(), direct_counts(&reports));
    let mut expected = WindowedAggregator::new(vec![0u16; REGIONS], window);
    for r in &reports {
        expected.ingest(r);
    }
    assert_eq!(
        server.windowed_counts().unwrap().merged(),
        expected.merged()
    );

    // Crash without a final snapshot: recovery replays whole-batch WAL
    // records (one record per TSR4 frame) across a reshard.
    server.crash();
    let mut cfg2 = cfg.clone();
    cfg2.workers = 1;
    let server2 = IngestServer::start(cfg2).unwrap();
    assert_eq!(server2.recovery().recovered_reports, 2_000);
    assert_eq!(server2.counts(), direct_counts(&reports));
    assert_eq!(
        server2.windowed_counts().unwrap().merged(),
        expected.merged()
    );

    // And the recovered server keeps taking batches.
    let more: Vec<Report> = (0..300).map(|i| toy_report_at(i, 3 * 60)).collect();
    assert_eq!(
        stream_reports_batched(server2.addr(), &more, 2, 64).unwrap(),
        300
    );
    for r in &more {
        expected.ingest(r);
    }
    assert_eq!(
        server2.windowed_counts().unwrap().merged(),
        expected.merged()
    );
    server2.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_batch_frames_get_no_ack_and_keep_prior_batches() {
    let (cfg, dir) = config("batch-hostile");
    let server = IngestServer::start(cfg.clone()).unwrap();

    // A valid TSR4 frame is acked per-frame (cumulative count)...
    let good: Vec<Report> = (0..10).map(toy_report).collect();
    let batch = ReportBatch::from_reports(&good).unwrap();
    let mut frame = Vec::new();
    batch.encode_frame_into(&mut frame);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&frame).unwrap();
    let mut ack = [0u8; 8];
    stream.read_exact(&mut ack).unwrap();
    assert_eq!(u64::from_le_bytes(ack), 10, "per-frame cumulative ack");

    // ...then the same frame with one flipped column byte: the CRC (or
    // column-sum) check rejects it, the connection drops, and no ack —
    // not even a repeated cumulative one — follows.
    let mut evil = frame.clone();
    let mid = evil.len() / 2;
    evil[mid] ^= 0x41;
    stream.write_all(&evil).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || {
            server.stats().disconnected_protocol.load(Ordering::Relaxed) >= 1
        }),
        "corrupt batch frame did not drop the connection"
    );
    let mut byte = [0u8; 1];
    assert!(matches!(stream.read(&mut byte), Ok(0) | Err(_)));

    // A batch frame truncated by a clean half-close is mid-frame EOF:
    // protocol violation, no ack.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&frame[..frame.len() / 2]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert!(matches!(stream.read(&mut ack), Ok(0) | Err(_)));
    assert!(wait_until(Duration::from_secs(5), || {
        server.stats().disconnected_protocol.load(Ordering::Relaxed) >= 2
    }));

    // The acked batch survived both hostile connections, exactly.
    assert_eq!(server.counts(), direct_counts(&good));
    server.crash();
    // The WAL holds exactly the acked batch (corrupt frames were never
    // appended): recovery reproduces it.
    let server2 = IngestServer::start(cfg).unwrap();
    assert_eq!(server2.recovery().recovered_reports, 10);
    assert_eq!(server2.counts(), direct_counts(&good));
    server2.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gap_windows_behind_the_watermark_are_unaccountable() {
    let (mut cfg, dir) = config("budget-gap");
    let window = WindowConfig {
        window_len: 60,
        num_windows: 6,
    };
    let mut stream_cfg = StreamServerConfig::new(window, Duration::from_millis(30));
    let budget_cfg = WindowBudgetConfig::new(eps_to_nano(3.0), 3, AllocationPolicy::Uniform);
    stream_cfg.budget = Some(budget_cfg);
    cfg.stream = Some(stream_cfg);
    let server = IngestServer::start(cfg).unwrap();

    // Window 3 arrives first and is decided...
    let ahead: Vec<Report> = (0..100).map(|i| toy_report_at(i, 3 * 60)).collect();
    assert_eq!(stream_reports(server.addr(), &ahead, 2).unwrap(), 100);
    assert!(wait_until(Duration::from_secs(5), || server
        .budget_ledger()
        .and_then(|a| a.decided())
        == Some(3)));
    // ...then reports land in the still-live gap window 1. It can never
    // be granted retroactively (allocation is monotonic), so its spend
    // is unaccountable: it must be refused, never silently published.
    let behind: Vec<Report> = (0..100).map(|i| toy_report_at(i, 60)).collect();
    assert_eq!(stream_reports(server.addr(), &behind, 2).unwrap(), 100);
    assert!(
        wait_until(Duration::from_secs(5), || server
            .budget_refused_windows()
            .contains(&1)),
        "gap window was never refused"
    );
    let ledger = server.budget_ledger().unwrap();
    assert!(ledger.decision(1).is_none(), "no retroactive grant");
    assert!(!ledger.decision(3).unwrap().refused, "window 3 unaffected");
    assert!(server.stats().budget_refusals.load(Ordering::Relaxed) >= 1);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grant_session_closes_the_loop_with_zero_refusals() {
    let (mut cfg, dir) = config("grant-loop");
    let window = WindowConfig {
        window_len: 60,
        num_windows: 8,
    };
    let mut stream_cfg = StreamServerConfig::new(window, Duration::from_millis(30));
    // Uniform keeps every grant at the deterministic total/horizon
    // share; the adaptive bootstrap would legally grant window 0 the
    // whole budget (cold start = full divergence) and the loop would
    // then follow ε′ = 0 windows — sound, but a weaker assertion.
    stream_cfg.budget = Some(WindowBudgetConfig::new(
        eps_to_nano(4.0),
        4,
        AllocationPolicy::Uniform,
    ));
    stream_cfg.grants = true;
    cfg.stream = Some(stream_cfg);
    let server = IngestServer::start(cfg).unwrap();

    // Closed loop: wait for each window's announced ε′, randomize the
    // cohort at exactly that rate, stream it, move to the next window.
    let mut client = trajshare_service::GrantClient::connect(server.addr()).unwrap();
    let mut sent = 0u64;
    let mut min_window = 0u64;
    let mut granted = Vec::new();
    for _ in 0..3 {
        let g = client
            .wait_grant(min_window, Duration::from_secs(10))
            .unwrap()
            .expect("grant before timeout");
        assert_eq!(
            g.granted_nano,
            eps_to_nano(4.0) / 4,
            "uniform grants are exactly the per-window share"
        );
        let g_eps = trajshare_aggregate::nano_to_eps(g.granted_nano);
        let slice: Vec<Report> = (0..40)
            .map(|i| toy_report_eps(i, g.window * 60 + (i as u64 % 60), g_eps))
            .collect();
        client
            .send(&trajshare_service::encode_wire(&slice, 8))
            .unwrap();
        sent += 40;
        granted.push(g);
        min_window = g.window + 1;
    }
    let (acked, grants_seen) = client.finish().unwrap();
    assert_eq!(acked, sent, "framed TSAK acks certify the same durability");
    assert!(grants_seen.len() >= 3);
    for pair in grants_seen.windows(2) {
        assert!(pair[1].epoch > pair[0].epoch, "epochs strictly increase");
        assert!(pair[1].window > pair[0].window, "windows strictly increase");
    }

    // Settlement observes spend == grant for every filled window: the
    // refusal path is the exception path, asserted exactly zero.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let h = server.budget_grant_history();
            granted
                .iter()
                .all(|g| h.iter().any(|r| r.window == g.window && !r.refused))
        }),
        "filled windows never settled cleanly"
    );
    assert!(server.budget_refused_windows().is_empty());
    assert_eq!(server.stats().budget_refusals.load(Ordering::Relaxed), 0);
    assert_eq!(
        server.stats().grant_subscriptions.load(Ordering::Relaxed),
        1
    );
    assert!(server.stats().grants_published.load(Ordering::Relaxed) >= 3);
    for g in &granted {
        let r = server
            .budget_grant_history()
            .into_iter()
            .rev()
            .find(|r| r.window == g.window)
            .expect("history holds every announced grant");
        assert_eq!(r.granted_nano, g.granted_nano);
        assert!(r.settled_nano <= r.granted_nano, "spend bounded by grant");
    }
    let ledger = server.budget_ledger().unwrap();
    assert!(ledger.sliding_spend_nano() <= eps_to_nano(4.0));
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn late_joiner_catches_up_on_the_standing_grant() {
    let (mut cfg, dir) = config("grant-late");
    let window = WindowConfig {
        window_len: 60,
        num_windows: 4,
    };
    let mut stream_cfg = StreamServerConfig::new(window, Duration::from_millis(20));
    stream_cfg.budget = Some(WindowBudgetConfig::new(
        eps_to_nano(2.0),
        4,
        AllocationPolicy::Uniform,
    ));
    stream_cfg.grants = true;
    cfg.stream = Some(stream_cfg);
    let server = IngestServer::start(cfg).unwrap();

    // Let the maintenance thread publish the bootstrap grant before any
    // client exists.
    assert!(wait_until(Duration::from_secs(5), || server
        .latest_grant()
        .is_some()));
    let standing = server.latest_grant().unwrap();

    // A connection subscribing *after* the announcement still gets the
    // current grant immediately (the board's catch-up write), not at
    // the next rollover.
    let mut client = trajshare_service::GrantClient::connect(server.addr()).unwrap();
    let g = client
        .wait_grant(0, Duration::from_secs(5))
        .unwrap()
        .expect("late joiner sees the standing grant");
    assert_eq!(g, standing);

    // A grant session that streams nothing still gets the framed EOF
    // ack (cumulative 0) on half-close.
    let (acked, grants_seen) = client.finish().unwrap();
    assert_eq!(acked, 0);
    assert!(!grants_seen.is_empty());
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hello_to_a_grantless_server_is_a_protocol_violation() {
    // Subscribing against a server that runs no grant session must be
    // refused by dropping the connection — not silently accepted with
    // grants that will never come.
    let (cfg, dir) = config("grant-off");
    let server = IngestServer::start(cfg).unwrap();
    let mut client = trajshare_service::GrantClient::connect(server.addr()).unwrap();
    let err = match client.wait_grant(0, Duration::from_secs(5)) {
        Err(e) => e,
        Ok(g) => panic!("grantless server produced {g:?}"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_frame_kind_takes_one_path() {
    let window = WindowConfig {
        window_len: 60,
        num_windows: 4,
    };
    // Twelve windows of 500 reports; every seventh report is stamped
    // five windows back, so once the ring has moved on it arrives late.
    let reports: Vec<Report> = (0..6_000u32)
        .map(|i| {
            let w = u64::from(i / 500);
            let w = if i % 7 == 0 { w.saturating_sub(5) } else { w };
            toy_report_at(i, w * 60 + u64::from(i % 60))
        })
        .collect();
    let singles = encode_wire(&reports, 1);
    let batched = encode_wire(&reports, 64);
    // One connection alternating a `TSR3` frame with `TSR4` frames of up
    // to five reports.
    let mut alternating = Vec::new();
    for chunk in reports.chunks(6) {
        alternating.extend_from_slice(&encode_wire(&chunk[..1], 1));
        alternating.extend_from_slice(&encode_wire(&chunk[1..], 5));
    }

    let mut outcomes = Vec::new();
    for (tag, wire) in [
        ("kinds-tsr3", &singles),
        ("kinds-tsr4", &batched),
        ("kinds-mixed", &alternating),
    ] {
        let (mut cfg, dir) = config(tag);
        cfg.workers = 1;
        cfg.profile = true;
        cfg.stream = Some(StreamServerConfig::new(window, Duration::from_millis(50)));
        let server = IngestServer::start(cfg.clone()).unwrap();
        assert_eq!(stream_bytes_once(server.addr(), wire).unwrap(), 6_000);
        assert_eq!(server.ingest_profile().unwrap().reports, 6_000, "{tag}");
        let live = (
            server.counts(),
            server.windowed_counts().unwrap().encode_ring(),
        );
        server.crash();
        let server2 = IngestServer::start(cfg).unwrap();
        assert_eq!(server2.recovery().recovered_reports, 6_000, "{tag}");
        let restored = (
            server2.counts(),
            server2.windowed_counts().unwrap().encode_ring(),
        );
        server2.crash();
        let _ = std::fs::remove_dir_all(&dir);
        outcomes.push((live, restored));
    }
    assert_eq!(outcomes[0].0 .0, direct_counts(&reports));
    assert!(
        WindowedAggregator::decode_ring(&outcomes[0].0 .1, &[0u16; REGIONS], window)
            .unwrap()
            .late()
            > 0,
        "the stream must exercise late reports"
    );
    assert_eq!(
        outcomes[0].1 .0, outcomes[0].0 .0,
        "restart keeps the counts"
    );
    assert_eq!(outcomes[1], outcomes[0], "TSR4 only vs TSR3 only");
    assert_eq!(outcomes[2], outcomes[0], "alternating vs TSR3 only");
}

/// Reads raw cumulative acks until one reaches `target`.
fn read_acks_until(stream: &mut TcpStream, target: u64) -> u64 {
    let mut ack = [0u8; 8];
    loop {
        stream.read_exact(&mut ack).unwrap();
        let acked = u64::from_le_bytes(ack);
        assert!(acked <= target, "ack {acked} overshoots {target}");
        if acked == target {
            return acked;
        }
    }
}

#[test]
fn a_read_round_is_one_commit() {
    let (cfg, dir) = config("round-commit");
    let server = IngestServer::start(cfg).unwrap();
    // 4 000 one-report `TSR4` frames handed to the kernel in one write:
    // the server sees them in socket-buffer-sized read rounds and must
    // commit (and ack) per round, not per frame.
    let reports: Vec<Report> = (0..4_000).map(toy_report).collect();
    let mut wire = Vec::new();
    for r in &reports {
        ReportBatch::from_reports(std::slice::from_ref(r))
            .unwrap()
            .encode_frame_into(&mut wire);
    }
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&wire).unwrap();
    assert_eq!(read_acks_until(&mut stream, 4_000), 4_000);
    let commits = server.stats().wal_commits.load(Ordering::Relaxed);
    assert!(
        (1..=500).contains(&commits),
        "{commits} commits for 4000 frames"
    );
    assert_eq!(server.counts(), direct_counts(&reports));
    server.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_stream_acks_start_with_the_first_batch_frame() {
    let (cfg, dir) = config("ack-rule");
    let server = IngestServer::start(cfg).unwrap();

    // A connection of single-report frames only: however many rounds it
    // takes, exactly one 8-byte ack, at EOF.
    let reports: Vec<Report> = (0..50_000).map(toy_report).collect();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&encode_wire(&reports, 1)).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut acks = Vec::new();
    stream.read_to_end(&mut acks).unwrap();
    assert_eq!(acks, 50_000u64.to_le_bytes());
    assert!(server.stats().wal_commits.load(Ordering::Relaxed) >= 2);

    // First frame `TSR3`: committed, but not acked mid-stream...
    let commits = server.stats().wal_commits.load(Ordering::Relaxed);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&toy_report(1).encode_frame()).unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        server.stats().wal_commits.load(Ordering::Relaxed) > commits
    }));
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut ack = [0u8; 8];
    assert!(
        stream.read(&mut ack).is_err(),
        "a single-frame round must not be acked mid-stream"
    );
    // ...cumulative acks start with the first `TSR4` round and then
    // cover every later round, whichever kind its frames are.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let batch: Vec<Report> = (2..5).map(toy_report).collect();
    stream.write_all(&encode_wire(&batch, 8)).unwrap();
    assert_eq!(read_acks_until(&mut stream, 4), 4);
    stream.write_all(&toy_report(5).encode_frame()).unwrap();
    assert_eq!(read_acks_until(&mut stream, 5), 5);
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert_eq!(rest, 5u64.to_le_bytes(), "EOF is the last round");
    assert_eq!(server.counts().num_reports, 50_005);
    server.crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_server_stops_without_waiting_out_a_poll_tick() {
    // Both acceptors block in `accept` and are woken by a connection;
    // best of three, so a scheduling hiccup is not a failure.
    let mut best = [Duration::MAX; 2];
    for _ in 0..3 {
        for (i, graceful) in [true, false].into_iter().enumerate() {
            let (mut cfg, dir) = config(if graceful {
                "stop-shutdown"
            } else {
                "stop-crash"
            });
            cfg.export_addr = Some("127.0.0.1:0".parse().unwrap());
            let server = IngestServer::start(cfg).unwrap();
            let t0 = Instant::now();
            if graceful {
                server.shutdown().unwrap();
            } else {
                server.crash();
            }
            best[i] = best[i].min(t0.elapsed());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(
        best.iter().all(|&d| d < Duration::from_millis(100)),
        "shutdown/crash took {best:?}"
    );
}
