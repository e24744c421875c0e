//! End-to-end distributed ingestion (ISSUE 6 acceptance): genuine
//! NGram-mechanism reports streamed through `routerd`'s router across
//! two `ingestd` workers, pulled and merged by the coordinator over the
//! `TSCL` snapshot protocol, and the merged sliding-window state
//! compared **bit-identically** against a single node that ingested the
//! same stream — including across a worker kill → WAL-replay restart,
//! which must re-merge to the identical fingerprint under a bumped
//! epoch. The live cluster model estimate must also match the single
//! node's float-for-float (same counts, same deterministic estimator).
//! A fourth node ingests the identical stream over `TSR4` batch frames
//! and must land on the same counts, ring bytes, and model floats —
//! the batched path is an encoding, not a different aggregation. A
//! direct topology — clients partitioned across two further workers with
//! no router, one coordinator over both — must merge to the same
//! fingerprints too.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use trajshare_aggregate::{collect_reports, region_tiles, EstimatorBackend, Report, WindowConfig};
use trajshare_cluster::{snapshot_fingerprint, CoordConfig, Coordinator, Router, RouterConfig};
use trajshare_core::{MechanismConfig, NGramMechanism};
use trajshare_datagen::{
    generate_taxi_foursquare, CityConfig, SyntheticCity, TaxiFoursquareConfig,
};
use trajshare_hierarchy::builders::foursquare;
use trajshare_model::{Dataset, TrajectorySet};
use trajshare_service::{
    encode_wire_multi, stream_reports, stream_reports_batched, stream_wires, IngestServer,
    ServerConfig, StreamServerConfig,
};

const NUM_USERS: usize = 4_000;
const EPSILON: f64 = 5.0;
const WINDOW: WindowConfig = WindowConfig {
    window_len: 10,
    num_windows: 8,
};

fn world() -> (Dataset, TrajectorySet) {
    let mut rng = StdRng::seed_from_u64(20_260_807);
    let city = SyntheticCity::generate(
        &CityConfig {
            num_pois: 80,
            num_clusters: 5,
            extent_m: 20_000.0,
            speed_kmh: Some(20.0),
            ..Default::default()
        },
        foursquare(),
        &mut rng,
    );
    let set = generate_taxi_foursquare(
        &city.dataset,
        &TaxiFoursquareConfig {
            num_trajectories: NUM_USERS,
            len_bounds: (3, 3),
            ..Default::default()
        },
        &mut rng,
    );
    (city.dataset, set)
}

fn node_config(tiles: Vec<u16>, tag: &str) -> (ServerConfig, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "trajshare-e2e-cluster-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServerConfig::new(&dir, tiles);
    cfg.workers = 2;
    cfg.snapshot_every = 1_000;
    cfg.wal_flush_every = 32;
    cfg.read_timeout = Duration::from_secs(10);
    cfg.export_addr = Some("127.0.0.1:0".parse().unwrap());
    cfg.stream = Some(StreamServerConfig {
        window: WINDOW,
        publish_every: Duration::from_millis(100),
        server_clock: false,
        max_conn_advance: u64::MAX,
        backend: EstimatorBackend::default(),
        budget: None,
        grants: false,
        graph: None,
    });
    (cfg, dir)
}

#[test]
fn routed_two_worker_cluster_merges_bit_identical_to_single_node() {
    let (dataset, real) = world();
    let mech = NGramMechanism::build(&dataset, &MechanismConfig::default().with_epsilon(EPSILON));
    let mut reports: Vec<Report> = collect_reports(&mech, &real, 61);
    // Spread the cohort across live windows (client-declared t): every
    // window 0..=6 stays inside the depth-8 ring, so the merged ring
    // must account for every report.
    for (i, r) in reports.iter_mut().enumerate() {
        r.t = (i % 70) as u64;
    }
    let n = reports.len() as u64;
    assert!(n >= NUM_USERS as u64 * 9 / 10, "datagen produced {n} users");

    let tiles = region_tiles(mech.regions());
    let (cfg_a, dir_a) = node_config(tiles.clone(), "worker-a");
    let (cfg_b, dir_b) = node_config(tiles.clone(), "worker-b");
    let (cfg_s, dir_s) = node_config(tiles.clone(), "single");
    let a = IngestServer::start(cfg_a.clone()).unwrap();
    let b = IngestServer::start(cfg_b).unwrap();
    let single = IngestServer::start(cfg_s).unwrap();

    let router = Router::start(RouterConfig::new(
        "127.0.0.1:0".parse().unwrap(),
        vec![a.addr(), b.addr()],
    ))
    .unwrap();
    assert_eq!(stream_reports(router.addr(), &reports, 8).unwrap(), n);
    assert_eq!(stream_reports(single.addr(), &reports, 8).unwrap(), n);

    let (na, nb) = (a.counts().num_reports, b.counts().num_reports);
    assert!(na > 0 && nb > 0, "degenerate partition: {na}/{nb}");
    assert_eq!(na + nb, n, "router must not lose or duplicate reports");

    // Coordinator: pull both workers over TSCL and merge.
    let mut ccfg = CoordConfig::new(
        vec![a.export_addr().unwrap(), b.export_addr().unwrap()],
        tiles.clone(),
    );
    ccfg.window = Some(WINDOW);
    let mut coord = Coordinator::new(ccfg);
    let view = coord.tick();
    assert_eq!((view.workers_up, view.workers_total), (2, 2));
    assert_eq!(view.merged_reports, n);

    // Bit-identical to the single node: totals and the full window ring.
    let single_counts = single.counts();
    let single_ring = single.windowed_counts().unwrap();
    assert_eq!(view.publication.watermark, single_ring.newest_window());
    assert_eq!(view.counts_crc32, snapshot_fingerprint(&single_counts));
    assert_eq!(
        view.ring_crc32.unwrap(),
        snapshot_fingerprint(single_ring.merged())
    );
    assert_eq!(coord.merged_counts(), &single_counts);
    assert_eq!(
        coord.merged_ring().unwrap().encode_ring(),
        single_ring.encode_ring(),
        "merged ring must be bit-identical on the wire"
    );

    // The merged view is a working model input: the cluster estimate
    // equals the single node's float-for-float (identical counts into
    // the same deterministic cold solve).
    let model_cluster = coord.estimate(mech.graph()).expect("cluster model");
    let model_single = single
        .estimate_window_model(mech.graph())
        .expect("single-node model");
    assert_eq!(model_cluster.debiased, model_single.debiased);
    assert_eq!(model_cluster.occupancy, model_single.occupancy);
    assert_eq!(model_cluster.transition, model_single.transition);

    // Batched-frame ingestion is equivalence-checked against the
    // single-report path: a fourth node takes the same stream as TSR4
    // batch frames (batches straddle the t-wrap at i % 70, so frames
    // split across ε′/|τ|-key runs and windows) and must reproduce the
    // single node's counts, ring bytes, and model floats exactly.
    let (cfg_q, dir_q) = node_config(tiles.clone(), "batched");
    let batched = IngestServer::start(cfg_q).unwrap();
    assert_eq!(
        stream_reports_batched(batched.addr(), &reports, 8, 256).unwrap(),
        n
    );
    let batched_counts = batched.counts();
    let batched_ring = batched.windowed_counts().unwrap();
    assert_eq!(batched_counts, single_counts);
    assert_eq!(
        batched_ring.encode_ring(),
        single_ring.encode_ring(),
        "batched-path ring must be bit-identical to the single-report path"
    );
    let model_batched = batched
        .estimate_window_model(mech.graph())
        .expect("batched-node model");
    assert_eq!(model_batched.debiased, model_single.debiased);
    assert_eq!(model_batched.occupancy, model_single.occupancy);
    assert_eq!(model_batched.transition, model_single.transition);
    let _ = batched.shutdown();
    let _ = std::fs::remove_dir_all(&dir_q);

    // Direct topology: the client partitions the stream across two
    // workers itself (connections alternate between the addresses), and
    // a coordinator over both must land on the single node's bits.
    let (cfg_c, dir_c) = node_config(tiles.clone(), "direct-c");
    let (cfg_d, dir_d) = node_config(tiles.clone(), "direct-d");
    let c = IngestServer::start(cfg_c).unwrap();
    let d = IngestServer::start(cfg_d).unwrap();
    let wires = encode_wire_multi(&[c.addr(), d.addr()], &reports, 8, 1);
    assert_eq!(stream_wires(&wires).unwrap(), n);
    let (nc, nd) = (c.counts().num_reports, d.counts().num_reports);
    assert!(nc > 0 && nd > 0, "degenerate partition: {nc}/{nd}");
    let mut dcfg = CoordConfig::new(
        vec![c.export_addr().unwrap(), d.export_addr().unwrap()],
        tiles.clone(),
    );
    dcfg.window = Some(WINDOW);
    let direct = Coordinator::new(dcfg).tick();
    assert_eq!((direct.workers_up, direct.workers_total), (2, 2));
    assert_eq!(direct.merged_reports, n);
    assert_eq!(direct.counts_crc32, snapshot_fingerprint(&single_counts));
    assert_eq!(
        direct.ring_crc32.unwrap(),
        snapshot_fingerprint(single_ring.merged())
    );
    let _ = (c.shutdown(), d.shutdown());
    for dir in [dir_c, dir_d] {
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Kill worker A without a clean shutdown; the coordinator keeps
    // publishing the cached snapshot (stale is conservative — nothing
    // unshipped existed), then the restarted worker WAL-replays and
    // re-merges to the identical fingerprint under a bumped epoch.
    let export_a = a.export_addr().unwrap();
    a.crash();
    let down = coord.tick();
    assert_eq!((down.workers_up, down.workers_total), (1, 2));
    assert_eq!(down.ring_crc32, view.ring_crc32);
    assert_eq!(down.merged_reports, n);

    let mut cfg_a2 = cfg_a;
    cfg_a2.export_addr = Some(export_a);
    cfg_a2.workers = 3; // re-shard on restart: recovery must still be exact
    let a2 = IngestServer::start(cfg_a2).unwrap();
    assert_eq!(a2.recovery().recovered_reports, na);
    let back = coord.tick();
    assert_eq!((back.workers_up, back.workers_total), (2, 2));
    assert_eq!(back.merged_reports, n);
    assert_eq!(back.ring_crc32, view.ring_crc32);
    assert_eq!(back.counts_crc32, view.counts_crc32);
    assert!(
        back.epochs[0] > view.epochs[0],
        "restart must bump the epoch"
    );
    assert_eq!(coord.merged_counts(), &single_counts);

    drop(router);
    let _ = (a2.shutdown(), b.shutdown(), single.shutdown());
    for d in [dir_a, dir_b, dir_s] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
