//! Cluster-tier integration over loopback: router partitioning with
//! worker-confirmed acks, the coordinator's bit-exact merge against a
//! single-node ground truth, stale-snapshot behavior while a worker is
//! down, epoch-bumping re-merge after a worker restart, batch failover
//! to a live worker, and the router's frame path: full uplink frames
//! from mixed traffic, never over-acking across a worker kill, idle
//! uplinks letting go, and the single-frame ack exchange. (The full
//! mechanism-driven run lives in the root `tests/cluster_e2e.rs`.)

use std::sync::atomic::Ordering;
use std::time::Duration;
use trajshare_aggregate::{EstimatorBackend, Report, WindowConfig};
use trajshare_cluster::{snapshot_fingerprint, CoordConfig, Coordinator, Router, RouterConfig};
use trajshare_service::{stream_reports, IngestServer, ServerConfig, StreamServerConfig};

const REGIONS: usize = 24;
const WINDOW: WindowConfig = WindowConfig {
    window_len: 10,
    num_windows: 8,
};

/// Toy report `i`: a two-point trajectory whose regions and window both
/// derive from `i`. Timestamps stay inside the ring depth
/// (`i % 70 → windows 0..=6`), so no report is ever dropped as late and
/// the merged ring must account for every single one.
fn toy_report(i: u32) -> Report {
    let a = i % REGIONS as u32;
    let b = (a + 1) % REGIONS as u32;
    Report {
        t: (i % 70) as u64,
        eps_prime: 0.5 + f64::from(i % 5) * 0.25,
        len: 2,
        unigrams: vec![(0, a), (1, b)],
        exact: vec![(0, a), (1, b)],
        transitions: vec![(a, b)],
    }
}

fn worker_config(tag: &str) -> (ServerConfig, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "trajshare-cluster-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServerConfig::new(&dir, vec![0u16; REGIONS]);
    cfg.workers = 2;
    cfg.read_timeout = Duration::from_secs(5);
    cfg.export_addr = Some("127.0.0.1:0".parse().unwrap());
    cfg.stream = Some(StreamServerConfig {
        window: WINDOW,
        publish_every: Duration::from_millis(50),
        server_clock: false,
        max_conn_advance: u64::MAX,
        backend: EstimatorBackend::default(),
        budget: None,
        grants: false,
        graph: None,
    });
    (cfg, dir)
}

fn router_config(workers: Vec<std::net::SocketAddr>) -> RouterConfig {
    let mut cfg = RouterConfig::new("127.0.0.1:0".parse().unwrap(), workers);
    cfg.connect_attempts = 2;
    cfg.reconnect_backoff = Duration::from_millis(10);
    cfg.read_timeout = Duration::from_secs(5);
    cfg
}

fn ring_summary(ring: &trajshare_aggregate::WindowedAggregator) -> Vec<(u64, u64)> {
    ring.windows()
        .into_iter()
        .map(|(id, c)| (id, c.num_reports))
        .collect()
}

#[test]
fn cluster_merge_is_bit_identical_and_survives_worker_restart() {
    let reports: Vec<Report> = (0..4_000).map(toy_report).collect();
    let n = reports.len() as u64;

    let (cfg_a, dir_a) = worker_config("merge-a");
    let (cfg_b, dir_b) = worker_config("merge-b");
    let (cfg_s, dir_s) = worker_config("merge-single");
    let a = IngestServer::start(cfg_a.clone()).unwrap();
    let b = IngestServer::start(cfg_b).unwrap();
    let single = IngestServer::start(cfg_s).unwrap();

    // Same stream through the router (partitioned) and into the single
    // node (unpartitioned ground truth).
    let router = Router::start(router_config(vec![a.addr(), b.addr()])).unwrap();
    assert_eq!(stream_reports(router.addr(), &reports, 6).unwrap(), n);
    assert_eq!(stream_reports(single.addr(), &reports, 6).unwrap(), n);

    // The partition is real (both workers own a share) and lossless.
    let (na, nb) = (a.counts().num_reports, b.counts().num_reports);
    assert!(na > 0 && nb > 0, "degenerate partition: {na}/{nb}");
    assert_eq!(na + nb, n);
    assert_eq!(
        router.stats().cluster_routed.load(Ordering::Relaxed),
        n,
        "every report must be worker-acked"
    );

    // Coordinator pull + merge: bit-identical to the single node.
    let mut ccfg = CoordConfig::new(
        vec![a.export_addr().unwrap(), b.export_addr().unwrap()],
        vec![0u16; REGIONS],
    );
    ccfg.window = Some(WINDOW);
    let mut coord = Coordinator::new(ccfg);
    let view = coord.tick();
    assert_eq!((view.workers_up, view.workers_total), (2, 2));
    assert_eq!(view.merged_reports, n);

    let single_ring = single.windowed_counts().unwrap();
    assert_eq!(view.publication.watermark, single_ring.newest_window());
    assert_eq!(view.counts_crc32, snapshot_fingerprint(&single.counts()));
    assert_eq!(
        view.ring_crc32.unwrap(),
        snapshot_fingerprint(single_ring.merged()),
        "merged ring must fingerprint identically to the single node"
    );
    assert_eq!(
        ring_summary(coord.merged_ring().unwrap()),
        ring_summary(&single_ring)
    );

    // Kill worker A. The coordinator keeps publishing from its cached
    // snapshot — stale is conservative (nothing unshipped existed), so
    // the merged view must not move.
    let export_a = a.export_addr().unwrap();
    a.crash();
    let down = coord.tick();
    assert_eq!((down.workers_up, down.workers_total), (1, 2));
    assert_eq!(down.merged_reports, n);
    assert_eq!(down.ring_crc32, view.ring_crc32);
    let status = coord.worker_status();
    assert!(!status[0].up && status[1].up);

    // Restart A on the same data dir (WAL replay) and the same export
    // port. The re-pulled snapshot replaces the cached one under a
    // bumped epoch, and the merged view is bit-identical again.
    let mut cfg_a2 = cfg_a;
    cfg_a2.export_addr = Some(export_a);
    let a2 = IngestServer::start(cfg_a2).unwrap();
    assert_eq!(a2.recovery().recovered_reports, na);
    let back = coord.tick();
    assert_eq!((back.workers_up, back.workers_total), (2, 2));
    assert_eq!(back.merged_reports, n);
    assert_eq!(back.ring_crc32, view.ring_crc32);
    assert_eq!(back.counts_crc32, view.counts_crc32);
    assert!(
        back.epochs[0] > view.epochs[0],
        "recovery must bump the worker epoch ({} → {})",
        view.epochs[0],
        back.epochs[0]
    );
    assert_eq!(coord.worker_status()[0].restarts, 1);
    assert_eq!(coord.worker_status()[0].regressions, 0);

    drop(router);
    let _ = (a2.shutdown(), b.shutdown(), single.shutdown());
    for d in [dir_a, dir_b, dir_s] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn router_fails_over_batches_to_a_live_worker() {
    let (cfg_a, dir_a) = worker_config("fo-a");
    let (cfg_b, dir_b) = worker_config("fo-b");
    let a = IngestServer::start(cfg_a).unwrap();
    let b = IngestServer::start(cfg_b).unwrap();

    let router = Router::start(router_config(vec![a.addr(), b.addr()])).unwrap();

    // Warm both paths, then kill B.
    let warm: Vec<Report> = (0..200).map(toy_report).collect();
    assert_eq!(stream_reports(router.addr(), &warm, 2).unwrap(), 200);
    let warm_a = a.counts().num_reports;
    assert!(warm_a > 0 && warm_a < 200, "warm split degenerate");
    b.crash();

    // Every report still gets durably acked: batches homed on the dead
    // worker fail their connect (never a write) and move to A — exact
    // merge makes placement free.
    let reports: Vec<Report> = (0..1_000).map(|i| toy_report(i + 7)).collect();
    assert_eq!(stream_reports(router.addr(), &reports, 4).unwrap(), 1_000);
    assert_eq!(a.counts().num_reports, warm_a + 1_000);
    let stats = router.stats();
    assert_eq!(stats.cluster_routed.load(Ordering::Relaxed), 1_200);
    assert_eq!(stats.routed_failed.load(Ordering::Relaxed), 0);
    assert!(stats.worker_down.load(Ordering::Relaxed) > 0);
    assert!(stats.rerouted_batches.load(Ordering::Relaxed) > 0);
    assert_eq!(router.workers_up(), vec![true, false]);

    drop(router);
    let _ = a.shutdown();
    for d in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn router_refuses_malformed_streams_without_acking() {
    use std::io::{Read, Write};

    let (cfg_a, dir_a) = worker_config("hostile");
    let a = IngestServer::start(cfg_a).unwrap();
    let router = Router::start(router_config(vec![a.addr()])).unwrap();

    // Garbage that parses as an oversized length prefix: the router
    // must drop the connection without an ack (same contract as
    // ingestd's front door).
    let mut conn = std::net::TcpStream::connect(router.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    conn.write_all(&u32::MAX.to_le_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut buf = [0u8; 8];
    assert!(
        conn.read_exact(&mut buf).is_err(),
        "hostile stream must not be acked"
    );

    // A mid-frame EOF is a protocol violation too: routed frames stand,
    // but no ack is issued for the truncated stream.
    let good = toy_report(3).encode();
    let mut conn = std::net::TcpStream::connect(router.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    conn.write_all(&(good.len() as u32).to_le_bytes()).unwrap();
    conn.write_all(&good).unwrap();
    conn.write_all(&(good.len() as u32).to_le_bytes()).unwrap();
    conn.write_all(&good[..good.len() / 2]).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    assert!(
        conn.read_exact(&mut buf).is_err(),
        "truncated stream must not be acked"
    );

    // The router still serves well-formed clients afterwards.
    let reports: Vec<Report> = (0..50).map(toy_report).collect();
    assert_eq!(stream_reports(router.addr(), &reports, 1).unwrap(), 50);
    assert!(router.stats().disconnected_protocol.load(Ordering::Relaxed) >= 2);

    drop(router);
    let _ = a.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
}

/// Mixed traffic in arrival order: 3 ε′ values × 4 lengths × 8 live
/// windows, interleaved so consecutive reports almost never share a
/// frame key or a non-decreasing timestamp.
fn mixed_report(i: u32) -> Report {
    let len = 2 + (i % 4) as u16;
    let region = |p: u16| (i + u32::from(p)) % REGIONS as u32;
    Report {
        t: u64::from(i * 5 % 8) * 10 + u64::from(i % 10),
        eps_prime: 0.5 + f64::from(i % 3) * 0.25,
        len,
        unigrams: (0..len).map(|p| (p, region(p))).collect(),
        exact: vec![(0, region(0)), (len - 1, region(len - 1))],
        transitions: (1..len).map(|p| (region(p - 1), region(p))).collect(),
    }
}

#[test]
fn mixed_traffic_leaves_the_router_in_full_frames() {
    use trajshare_service::stream_reports_batched;

    let reports: Vec<Report> = (0..4_000).map(mixed_report).collect();
    let n = reports.len() as u64;
    let (cfg_a, dir_a) = worker_config("full-a");
    let (cfg_b, dir_b) = worker_config("full-b");
    let (cfg_s, dir_s) = worker_config("full-single");
    let a = IngestServer::start(cfg_a).unwrap();
    let b = IngestServer::start(cfg_b).unwrap();
    let single = IngestServer::start(cfg_s).unwrap();
    let router = Router::start(router_config(vec![a.addr(), b.addr()])).unwrap();

    // `TSR4` in: the client's encoder flushes on every key change, so
    // these arrive at about one report per frame.
    assert_eq!(
        stream_reports_batched(router.addr(), &reports, 2, 256).unwrap(),
        n,
        "every client acked in full"
    );
    assert_eq!(
        stream_reports_batched(single.addr(), &reports, 2, 256).unwrap(),
        n
    );

    // What left the router: frames of many reports over a couple of
    // connections, not a frame per report and a connection per 512.
    let stats = router.stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    assert_eq!(load(&stats.cluster_routed), n);
    assert_eq!(load(&stats.routed_failed), 0);
    let (frames, writes, connects) = (
        load(&stats.uplink_frames),
        load(&stats.uplink_writes),
        load(&stats.uplink_connects),
    );
    assert!(frames > 0 && frames <= n / 16, "{frames} frames for {n}");
    assert!(writes > 0 && writes <= frames, "{writes} writes");
    assert!((2..=6).contains(&connects), "{connects} connects");

    // Re-packing is invisible in the merge: counters and ring equal the
    // single node's, bit for bit.
    let (na, nb) = (a.counts().num_reports, b.counts().num_reports);
    assert!(na > 0 && nb > 0, "degenerate partition: {na}/{nb}");
    let mut ccfg = CoordConfig::new(
        vec![a.export_addr().unwrap(), b.export_addr().unwrap()],
        vec![0u16; REGIONS],
    );
    ccfg.window = Some(WINDOW);
    let mut coord = Coordinator::new(ccfg);
    let view = coord.tick();
    assert_eq!(view.merged_reports, n);
    let single_ring = single.windowed_counts().unwrap();
    assert_eq!(view.counts_crc32, snapshot_fingerprint(&single.counts()));
    assert_eq!(
        view.ring_crc32.unwrap(),
        snapshot_fingerprint(single_ring.merged())
    );
    assert_eq!(
        ring_summary(coord.merged_ring().unwrap()),
        ring_summary(&single_ring)
    );
    assert_eq!(single.counts().rejected, 0, "the traffic is well-formed");

    drop(router);
    let _ = (a.shutdown(), b.shutdown(), single.shutdown());
    for d in [dir_a, dir_b, dir_s] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Reads a raw-ack stream to EOF and returns every complete `u64`.
fn read_acks_to_eof(conn: &mut std::net::TcpStream) -> Vec<u64> {
    use std::io::Read;
    let mut bytes = Vec::new();
    conn.read_to_end(&mut bytes).unwrap();
    assert_eq!(bytes.len() % 8, 0, "acks are whole u64s");
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn a_dying_worker_never_makes_the_router_over_ack() {
    use std::io::Write;
    use std::sync::Barrier;
    use trajshare_service::{encode_wire, stream_reports_batched};

    const CLIENTS: usize = 4;
    const PER_CLIENT: u32 = 12_000;
    let (cfg_a, dir_a) = worker_config("overack-a");
    let (cfg_b, dir_b) = worker_config("overack-b");
    let a = IngestServer::start(cfg_a).unwrap();
    let b = IngestServer::start(cfg_b.clone()).unwrap();
    let router = Router::start(router_config(vec![a.addr(), b.addr()])).unwrap();
    let addr = router.addr();

    // Each client writes the first half of its upload, meets the main
    // thread at the barrier, and writes on: worker B dies with all four
    // mid-upload and frames for it queued, in flight and still to come.
    let barrier = Barrier::new(CLIENTS + 1);
    let acks: Vec<u64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS as u32)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let reports: Vec<Report> = (0..PER_CLIENT)
                        .map(|i| mixed_report(c * PER_CLIENT + i))
                        .collect();
                    let wire = encode_wire(&reports, 64);
                    let (head, tail) = wire.split_at(wire.len() / 2);
                    let mut conn = std::net::TcpStream::connect(addr).unwrap();
                    conn.set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    conn.write_all(head).unwrap();
                    barrier.wait();
                    conn.write_all(tail).unwrap();
                    conn.shutdown(std::net::Shutdown::Write).unwrap();
                    // Cumulative and monotone; the last one is the claim.
                    let acks = read_acks_to_eof(&mut conn);
                    assert!(acks.windows(2).all(|w| w[0] <= w[1]), "{acks:?}");
                    acks.last().copied().unwrap_or(0)
                })
            })
            .collect();
        barrier.wait();
        b.crash();
        clients.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let sent = u64::from(PER_CLIENT) * CLIENTS as u64;

    // Every report the router took in has exactly one fate.
    let stats = router.stats();
    let routed = stats.cluster_routed.load(Ordering::Relaxed);
    let failed = stats.routed_failed.load(Ordering::Relaxed);
    assert_eq!(routed + failed, sent, "routed {routed} + failed {failed}");
    assert_eq!(acks.iter().sum::<u64>(), routed);

    // The next upload finds B down before any write: fails over, acked
    // in full.
    let next: Vec<Report> = (0..500).map(mixed_report).collect();
    assert_eq!(
        stream_reports_batched(router.addr(), &next, 2, 64).unwrap(),
        500
    );
    assert_eq!(router.workers_up(), vec![true, false]);
    assert!(stats.rerouted_batches.load(Ordering::Relaxed) > 0);

    // What clients were told is durable never exceeds what the workers
    // hold — B's share counted from its WAL, as after a real kill.
    let b2 = IngestServer::start(cfg_b).unwrap();
    let durable = a.counts().num_reports + b2.counts().num_reports;
    let told = acks.iter().sum::<u64>() + 500;
    assert!(told <= durable, "acked {told} > durable {durable}");
    // And nothing was written twice: no worker holds more than was sent.
    assert!(durable <= sent + 500, "durable {durable} > sent");

    drop(router);
    let _ = (a.shutdown(), b2.shutdown());
    for d in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn idle_uplinks_let_go_of_their_worker() {
    use trajshare_service::stream_reports_batched;

    let (mut cfg, dir) = worker_config("idle");
    cfg.read_timeout = Duration::from_millis(300);
    let worker = IngestServer::start(cfg).unwrap();
    let router = Router::start(router_config(vec![worker.addr()])).unwrap();
    let burst: Vec<Report> = (0..600).map(mixed_report).collect();

    // Burst, silence well past the worker's read timeout, burst: an
    // uplink that sat on its connection would be cut off as a slow
    // client and lose the second burst's first frames.
    assert_eq!(
        stream_reports_batched(router.addr(), &burst, 2, 64).unwrap(),
        600
    );
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!(
        stream_reports_batched(router.addr(), &burst, 2, 64).unwrap(),
        600
    );
    let stats = worker.stats();
    assert_eq!(stats.disconnected_slow.load(Ordering::Relaxed), 0);
    assert_eq!(stats.io_errors.load(Ordering::Relaxed), 0);
    assert_eq!(router.stats().routed_failed.load(Ordering::Relaxed), 0);
    assert!(router.stats().uplink_connects.load(Ordering::Relaxed) >= 2);

    // Stopping a worker joins its connection threads: right after a
    // burst that must not take the read timeout an open uplink would
    // hold it for.
    let t0 = std::time::Instant::now();
    worker.crash();
    assert!(
        t0.elapsed() < Duration::from_millis(200),
        "crash() waited {:?} on a router uplink",
        t0.elapsed()
    );

    drop(router);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_frame_connections_see_one_ack_at_eof() {
    use std::io::Write;
    use trajshare_service::encode_wire;

    let (cfg, dir) = worker_config("tsr3");
    let worker = IngestServer::start(cfg).unwrap();
    let router = Router::start(router_config(vec![worker.addr()])).unwrap();
    let reports: Vec<Report> = (0..400).map(mixed_report).collect();
    let (head, tail) = reports.split_at(200);

    // Two read rounds, the second only after the first is worker-acked:
    // a router that acked single-frame connections mid-stream would have
    // an ack to write before EOF.
    let mut conn = std::net::TcpStream::connect(router.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn.write_all(&encode_wire(head, 1)).unwrap();
    let t0 = std::time::Instant::now();
    while router.stats().cluster_routed.load(Ordering::Relaxed) < 200 {
        assert!(t0.elapsed() < Duration::from_secs(10), "first half stuck");
        std::thread::sleep(Duration::from_millis(2));
    }
    conn.write_all(&encode_wire(tail, 1)).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(read_acks_to_eof(&mut conn), vec![400]);
    assert_eq!(worker.counts().num_reports, 400);

    drop(router);
    let _ = worker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Toy report at an explicit timestamp and ε′ — the grant-following
/// cohort member.
fn grant_report(i: u32, t: u64, eps: f64) -> Report {
    let a = i % REGIONS as u32;
    let b = (a + 1) % REGIONS as u32;
    Report {
        t,
        eps_prime: eps,
        len: 2,
        unigrams: vec![(0, a), (1, b)],
        exact: vec![(0, a), (1, b)],
        transitions: vec![(a, b)],
    }
}

/// A toy region graph over the test universe (line distances, ring
/// adjacency — matches `grant_report`'s a → a+1 transitions).
fn toy_graph() -> trajshare_core::RegionGraph {
    let n = REGIONS;
    let matrix: Vec<f32> = (0..n * n)
        .map(|k| ((k / n) as f32 - (k % n) as f32).abs())
        .collect();
    let distance = trajshare_core::distances::RegionDistance::from_parts(n, matrix);
    let bigrams: Vec<(u32, u32)> = (0..n as u32).map(|a| (a, (a + 1) % n as u32)).collect();
    trajshare_core::RegionGraph::from_parts(distance, bigrams)
}

#[test]
fn closed_loop_grants_are_durable_across_coordinator_restart() {
    use trajshare_aggregate::clusterproto::{write_cluster_frame, ClusterFrame};
    use trajshare_aggregate::{eps_to_nano, nano_to_eps, AllocationPolicy, WindowBudgetConfig};
    use trajshare_service::{encode_wire, GrantClient};

    const TOTAL_EPS: f64 = 4.0;
    const HORIZON: usize = 4;
    const PER_WINDOW: u32 = 120;

    let (mut cfg_a, dir_a) = worker_config("grant-a");
    let (cfg_b, dir_b) = worker_config("grant-b");
    // Worker A runs a grant session of its own (board only, no local
    // budget): relayed coordinator grants must reach clients connected
    // straight to it. Worker B stays grant-less: a `GrantAnnounce`
    // relay must be ignored there, never fatal.
    cfg_a.stream.as_mut().unwrap().grants = true;
    let a = IngestServer::start(cfg_a).unwrap();
    let b = IngestServer::start(cfg_b).unwrap();

    let mut rcfg = router_config(vec![a.addr(), b.addr()]);
    rcfg.grants = true;
    let router = Router::start(rcfg).unwrap();

    let ledger_path = std::env::temp_dir().join(format!(
        "trajshare-cluster-test-{}-grant.tsba",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ledger_path);
    let mut ccfg = CoordConfig::new(
        vec![a.export_addr().unwrap(), b.export_addr().unwrap()],
        vec![0u16; REGIONS],
    );
    ccfg.window = Some(WINDOW);
    ccfg.budget = Some(WindowBudgetConfig::new(
        eps_to_nano(TOTAL_EPS),
        HORIZON,
        AllocationPolicy::Uniform,
    ));
    ccfg.ledger_path = Some(ledger_path.clone());
    let mut coord = Coordinator::new(ccfg.clone());

    // What routerd's tick loop does with a view's grant: one allocator,
    // every front door.
    let exports = [a.export_addr().unwrap(), b.export_addr().unwrap()];
    let relay = |g: trajshare_aggregate::GrantFrame| {
        router.announce_grant(g);
        for export in exports {
            let _ = std::net::TcpStream::connect(export)
                .and_then(|mut s| write_cluster_frame(&mut s, &ClusterFrame::GrantAnnounce(g)));
        }
    };

    // The closed loop, through the router: wait for each window's
    // announced ε′, randomize the cohort at exactly that rate, stream.
    let mut client = GrantClient::connect(router.addr()).unwrap();
    let mut sent = 0u64;
    let share = eps_to_nano(TOTAL_EPS) / HORIZON as u64;
    for k in 0..3u64 {
        let mut grant = None;
        for _ in 0..250 {
            let view = coord.tick();
            // The sliding-sum invariant holds by construction on every
            // single tick, and refusal stays the never-taken exception
            // path.
            assert!(
                view.publication.budget.as_ref().unwrap().sliding_spent_nano
                    <= eps_to_nano(TOTAL_EPS)
            );
            assert!(
                view.publication.refused_windows.is_empty(),
                "refusals must stay the exception path: {:?}",
                view.publication.refused_windows
            );
            if let Some(g) = view.publication.grant {
                relay(g);
                if g.window >= k {
                    grant = Some(g);
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let g = grant.unwrap_or_else(|| panic!("window {k} never granted"));
        assert_eq!(g.window, k);
        assert_eq!(
            g.granted_nano, share,
            "uniform grants are the per-window share"
        );

        let got = client
            .wait_grant(k, Duration::from_secs(5))
            .unwrap()
            .expect("router never pushed the relayed grant");
        assert_eq!(got, g);
        let eps = nano_to_eps(g.granted_nano);
        let slice: Vec<Report> = (0..PER_WINDOW)
            .map(|i| grant_report(i, g.window * 10 + u64::from(i % 10), eps))
            .collect();
        client.send(&encode_wire(&slice, 16)).unwrap();
        sent += u64::from(PER_WINDOW);

        // Drive ticks until the cohort is merged and the window settles
        // cleanly (spend == grant, not refused).
        let settled = (0..250).any(|_| {
            let view = coord.tick();
            if let Some(g) = view.publication.grant {
                relay(g);
            }
            let ok =
                view.merged_reports == sent
                    && coord.budget_decisions().get(&k).is_some_and(
                        |&(granted, spent, refused)| granted == share && spent == share && !refused,
                    );
            if !ok {
                std::thread::sleep(Duration::from_millis(10));
            }
            ok
        });
        assert!(settled, "window {k} never settled cleanly");
    }
    let (acked, client_grants) = client.finish().unwrap();
    assert_eq!(acked, sent, "every grant-following report worker-acked");
    assert!(client_grants.len() >= 3);

    // The partition was real, and the grant-less worker B ignored the
    // TSCL announcements without dropping its export connections.
    assert!(a.counts().num_reports > 0 && b.counts().num_reports > 0);

    // A late joiner connected straight to grant-running worker A gets
    // the standing grant from its board (TSCL relay → board catch-up).
    let mut direct = GrantClient::connect(a.addr()).unwrap();
    let dg = direct
        .wait_grant(0, Duration::from_secs(5))
        .unwrap()
        .expect("worker board never served the relayed grant");
    assert!(dg.window >= 2);
    let (dacked, _) = direct.finish().unwrap();
    assert_eq!(dacked, 0);

    // ---- kill → restart mid-horizon ----------------------------------
    // Window 3 is pre-allocated (the standing grant) but unfilled: the
    // most dangerous restart point — a coordinator that forgot the
    // ledger would re-decide it under a fresh epoch.
    let decisions_before = coord.budget_decisions();
    let history_before = coord.grant_history();
    let accepted_before = coord.accepted_windows();
    assert_eq!(decisions_before.len(), 4, "window 3 pre-allocated");
    assert_eq!(accepted_before, vec![0, 1, 2]);
    let graph = toy_graph();
    let model_before = format!(
        "{:?}",
        coord.estimate(&graph).expect("model before restart")
    );
    drop(coord);

    let mut coord2 = Coordinator::new(ccfg);
    let view2 = coord2.tick();
    // Restored, not re-decided: identical history (same epochs — not
    // one new record), identical decisions, and the same standing
    // grant re-announced.
    assert_eq!(coord2.grant_history(), history_before);
    assert_eq!(coord2.budget_decisions(), decisions_before);
    assert_eq!(
        view2
            .publication
            .grant
            .map(|g| (g.window, g.epoch, g.granted_nano)),
        history_before
            .last()
            .map(|r| (r.window, r.epoch, r.granted_nano)),
        "restart must re-announce the standing grant, not re-grant it"
    );
    assert!(view2.publication.refused_windows.is_empty());
    assert!(
        view2
            .publication
            .budget
            .as_ref()
            .unwrap()
            .sliding_spent_nano
            <= eps_to_nano(TOTAL_EPS)
    );
    let accepted_after: Vec<u64> = coord2
        .accepted_windows()
        .into_iter()
        .filter(|&w| w <= view2.publication.watermark)
        .collect();
    assert_eq!(accepted_after, accepted_before);
    // Same merged view, same accepted set, deterministic cold solve:
    // the published model is bit-identical across the restart.
    let model_after = format!(
        "{:?}",
        coord2.estimate(&graph).expect("model after restart")
    );
    assert_eq!(model_before, model_after);

    drop(router);
    let _ = (a.shutdown(), b.shutdown());
    let _ = std::fs::remove_file(&ledger_path);
    for d in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// A ring deeper than the budget horizon, so a window's ledger entry can
/// expire while the window is still live: 5 windows against `w` = 3.
const DEEP_WINDOW: WindowConfig = WindowConfig {
    window_len: 10,
    num_windows: 5,
};

fn deep_ring_worker(tag: &str) -> (ServerConfig, std::path::PathBuf) {
    let (mut cfg, dir) = worker_config(tag);
    cfg.stream.as_mut().unwrap().window = DEEP_WINDOW;
    (cfg, dir)
}

fn uniform_budget(total_eps: f64, horizon: usize) -> trajshare_aggregate::WindowBudgetConfig {
    trajshare_aggregate::WindowBudgetConfig::new(
        trajshare_aggregate::eps_to_nano(total_eps),
        horizon,
        trajshare_aggregate::AllocationPolicy::Uniform,
    )
}

/// The coordinator-side mirror of
/// `expired_but_live_windows_stay_frozen_against_late_over_claims` in
/// `crates/service/tests/server.rs`: the node and the coordinator run
/// one engine, so the coordinator holds expired-but-live windows to the
/// same frozen rule.
#[test]
fn coordinator_refuses_late_over_claims_into_expired_but_live_windows() {
    let (cfg, dir) = deep_ring_worker("expired");
    let worker = IngestServer::start(cfg).unwrap();
    let mut ccfg = CoordConfig::new(vec![worker.export_addr().unwrap()], vec![0u16; REGIONS]);
    ccfg.window = Some(DEEP_WINDOW);
    ccfg.budget = Some(uniform_budget(3.0, 3));
    let mut coord = Coordinator::new(ccfg);

    // Windows 0..=3 at ε′ = 0.75 against 1ε uniform grants: all accepted.
    // Deciding window 3 expires window 0's ledger entry (3 − 0 ≥ w).
    for w in 0..4u64 {
        let cohort: Vec<Report> = (0..50).map(|i| grant_report(i, w * 10, 0.75)).collect();
        assert_eq!(stream_reports(worker.addr(), &cohort, 2).unwrap(), 50);
        let view = coord.tick();
        assert_eq!(view.publication.watermark, w);
        assert!(view.publication.refused_windows.is_empty());
    }
    assert_eq!(coord.accepted_windows(), vec![0, 1, 2, 3]);
    assert!(
        !coord.budget_decisions().contains_key(&0),
        "window 0 must have expired from the ledger for this test to bite"
    );

    // Late reports raise window 0's worst-case ε′ above its settled 0.75.
    let late: Vec<Report> = (0..5).map(|i| grant_report(i, 0, 0.9)).collect();
    assert_eq!(stream_reports(worker.addr(), &late, 1).unwrap(), 5);
    let view = coord.tick();
    assert_eq!(view.publication.refused_windows, vec![0]);
    assert_eq!(coord.accepted_windows(), vec![1, 2, 3], "window 3 stays");

    // And window 0 is out of what the coordinator estimates from: its
    // first (cold) solve equals a cold solve over windows 1..=3 alone.
    let graph = toy_graph();
    let published = coord
        .merged_ring()
        .unwrap()
        .merged_where(|id| (1..=3).contains(&id));
    assert_eq!(published.num_reports, 150);
    let expected = trajshare_aggregate::StreamingEstimator::new().tick(&published, &graph);
    let model = coord.estimate(&graph).expect("windows 1..=3 publish");
    assert_eq!(format!("{model:?}"), format!("{expected:?}"));

    let _ = worker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A single node is a cluster of one: the same report stream through a
/// budgeted node and through a budgeted coordinator over one un-budgeted
/// worker ends in the same ledger, on disk as in memory, the same
/// refusals — accepted, over-grant, pre-granted and expired-but-live
/// windows included — and the same published model.
#[test]
fn a_budgeted_node_and_a_coordinator_over_one_worker_decide_identically() {
    let budget = uniform_budget(3.0, 3);
    let graph = std::sync::Arc::new(toy_graph());

    let (mut node_cfg, node_dir) = deep_ring_worker("one-node");
    {
        let stream = node_cfg.stream.as_mut().unwrap();
        stream.publish_every = Duration::from_millis(10);
        stream.budget = Some(budget);
        stream.grants = true;
        stream.graph = Some(graph.clone());
    }
    node_cfg.export_addr = None;
    let node = IngestServer::start(node_cfg).unwrap();

    let (worker_cfg, worker_dir) = deep_ring_worker("one-worker");
    let worker = IngestServer::start(worker_cfg).unwrap();
    let mut ccfg = CoordConfig::new(vec![worker.export_addr().unwrap()], vec![0u16; REGIONS]);
    ccfg.window = Some(DEEP_WINDOW);
    ccfg.budget = Some(budget);
    ccfg.graph = Some(graph.clone());
    let ledger_path = worker_dir.with_extension("tsba");
    let _ = std::fs::remove_file(&ledger_path);
    ccfg.ledger_path = Some(ledger_path.clone());
    let mut coord = Coordinator::new(ccfg);

    // Whole cohorts, one window at a time, each at a single ε′: a pass
    // that catches a cohort mid-arrival still sees its final worst case,
    // so the node's timer-driven passes and the coordinator's
    // caller-driven ticks walk through the same ledger states. Window 2
    // over-claims its 1ε grant; the last cohort lands late in window 0,
    // whose ledger entry expired when window 3 was decided.
    let cohorts = [(0, 0.75), (1, 0.75), (2, 1.5), (3, 0.75), (0, 0.9)];
    let mut view = coord.tick();
    let wait = Duration::from_secs(10);
    for (step, &(window, eps)) in cohorts.iter().enumerate() {
        // Both sides must have pre-granted the next window before its
        // data arrives (the bootstrap grant before the first cohort).
        let standing = view
            .publication
            .grant
            .expect("the coordinator always grants");
        let caught_up = std::time::Instant::now();
        while node.latest_grant() != Some(standing) {
            assert!(
                caught_up.elapsed() < wait,
                "step {step}: node never granted"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let cohort: Vec<Report> = (0..40).map(|i| grant_report(i, window * 10, eps)).collect();
        assert_eq!(stream_reports(node.addr(), &cohort, 2).unwrap(), 40);
        assert_eq!(stream_reports(worker.addr(), &cohort, 2).unwrap(), 40);
        view = coord.tick();
    }
    assert_eq!(view.publication.refused_windows, vec![0, 2]);

    let settled = std::time::Instant::now();
    while node.budget_refused_windows() != view.publication.refused_windows {
        assert!(settled.elapsed() < wait, "node never refused window 0");
        std::thread::sleep(Duration::from_millis(5));
    }
    let ledger = node.budget_ledger().unwrap();
    assert_eq!(node.budget_grant_history(), coord.grant_history());
    assert_eq!(
        Some(ledger.sliding_spend_nano()),
        view.publication.budget.map(|b| b.sliding_spent_nano),
        "same sliding spend"
    );
    assert_eq!(node.latest_grant(), view.publication.grant);
    // One ledger writer: the node's `BUDGET` file and the coordinator's
    // ledger file hold the same accountant, which is the node's live one.
    let on_disk = |path: &std::path::Path| {
        trajshare_aggregate::read_ledger(path)
            .unwrap()
            .expect("ledger persisted")
    };
    let node_file = on_disk(&node_dir.join("BUDGET"));
    assert_eq!(node_file, on_disk(&ledger_path));
    assert_eq!(node_file, ledger);
    // One estimate filter: fresh (cold) estimators over the two sides'
    // published windows land on the same bits.
    let node_model = node.estimate_window_model(&graph).expect("node publishes");
    let coord_model = coord.estimate(&graph).expect("coordinator publishes");
    assert_eq!(format!("{node_model:?}"), format!("{coord_model:?}"));

    let _ = (node.shutdown(), worker.shutdown());
    let _ = std::fs::remove_file(&ledger_path);
    for d in [node_dir, worker_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
