//! The maintenance thread: periodic window publication through the
//! shared engine pass plus the node's ring mirror, the group-commit time
//! bound, and size-triggered online WAL compaction. See
//! [`crate::server`] for the architecture.

use crate::server::{BaseState, ServerConfig, ServerStats, Shard};
use crate::storage::{self, SyncPolicy, WalWriter};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trajshare_aggregate::{
    Aggregator, GrantBoard, Publication, PublicationEngine, WindowedAggregator,
};
use trajshare_core::blob::write_blob_atomic;

/// One publication of the maintenance thread: the shared engine pass
/// over the merged view (a node's watermark is simply its newest window)
/// decides, persists `BUDGET` when the ledger moved, and releases the
/// grant; then the node does what only a node has — mirror the settled
/// spends onto its rings, announce the grant, store the record, and only
/// then move the counters that describe it.
///
/// The mirror goes to the base ring *and* every shard ring holding the
/// window: base-ring slots hold no data until compaction, so the shard
/// mirrors are what persist (with the next shard snapshot) and what
/// recovery's `window_spends()` reseeds the books from. `mirrored`
/// holds the spends already mirrored onto the shard rings *this process
/// lifetime* — it starts empty so the first pass after a restart
/// re-annotates recovered windows, then gates the shard writes so the
/// steady state (no spend moved) takes no shard locks. The engine lock
/// is never held across another lock here.
#[allow(clippy::too_many_arguments)]
fn publish(
    view: &WindowedAggregator,
    engine: &Mutex<PublicationEngine>,
    base: &Mutex<BaseState>,
    shards: &[Arc<Mutex<Shard>>],
    stats: &ServerStats,
    board: Option<&GrantBoard>,
    latest: &Mutex<Option<Publication>>,
    mirrored: &mut BTreeMap<u64, u64>,
) {
    let pass = engine
        .lock()
        .unwrap()
        .publish(Some(view), view.newest_window());
    if !pass.settled.is_empty() {
        // Unconditional on the base ring: a window settled down to 0
        // must overwrite any stale nonzero annotation.
        if let Some(ring) = &mut base.lock().unwrap().ring {
            for &(id, spent) in &pass.settled {
                ring.record_spend(id, spent);
            }
        }
    }
    let mut moved = Vec::new();
    for &(id, spent) in &pass.settled {
        if mirrored.insert(id, spent) != Some(spent) {
            moved.push((id, spent));
        }
    }
    mirrored.retain(|&id, _| id >= view.oldest_window());
    if !moved.is_empty() {
        for shard in shards {
            if let Some(ring) = &mut shard.lock().unwrap().ring {
                for &(id, spent) in &moved {
                    ring.record_spend(id, spent);
                }
            }
        }
    }
    // A ledger that could not be persisted released no grant: no client
    // ever randomizes against a grant a restart could re-decide.
    if pass.persisted.is_err() {
        stats.bump(&stats.io_errors);
    }
    if let Some(grant) = pass.publication.grant {
        stats.announce(board, grant);
    }
    *latest.lock().unwrap() = Some(pass.publication);
    stats
        .budget_decisions
        .fetch_add(pass.new_decisions, Ordering::Release);
    stats
        .budget_refusals
        .fetch_add(pass.new_refusals, Ordering::Release);
    stats.publications.fetch_add(1, Ordering::Release);
}

/// The maintenance thread: publishes the merged sliding-window view
/// every `publish_every` (budget decisions included), keeps the
/// group-commit time bound, and runs size-triggered online WAL
/// compaction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn maintenance_loop(
    config: ServerConfig,
    base: Arc<Mutex<BaseState>>,
    shards: Vec<Arc<Mutex<Shard>>>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    latest: Arc<Mutex<Option<Publication>>>,
    engine: Arc<Mutex<PublicationEngine>>,
    board: Option<Arc<GrantBoard>>,
) {
    let mut mirrored = BTreeMap::new();
    let publish_every = config.stream.as_ref().map(|s| s.publish_every);
    let group_commit = matches!(config.sync_policy, SyncPolicy::GroupCommit { .. });
    let mut last_publish = Instant::now();
    let mut next_compact_attempt = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        if group_commit {
            // Enforce the time half of the group-commit bound during
            // lulls: acked-but-unsynced records older than max_delay are
            // fdatasync'ed here, not at the next (possibly never) ack.
            for shard in &shards {
                if shard.lock().unwrap().wal.sync_if_due().is_err() {
                    stats.bump(&stats.io_errors);
                }
            }
        }
        if let Some(every) = publish_every {
            if last_publish.elapsed() >= every {
                last_publish = Instant::now();
                if let Some(view) = merged_ring(&base, &shards) {
                    publish(
                        &view,
                        &engine,
                        &base,
                        &shards,
                        &stats,
                        board.as_deref(),
                        &latest,
                        &mut mirrored,
                    );
                }
            }
        }
        if config.wal_max_bytes != u64::MAX && Instant::now() >= next_compact_attempt {
            let over_limit = shards
                .iter()
                .any(|s| s.lock().unwrap().wal.offset() >= config.wal_max_bytes);
            if over_limit {
                match compact_online(&config, &base, &shards, &engine) {
                    Ok(()) => stats.bump(&stats.compactions),
                    // A failing compaction (e.g. disk full) pauses every
                    // shard for its duration; back off instead of
                    // re-freezing ingestion every tick in a doomed loop.
                    Err(_) => {
                        stats.bump(&stats.compaction_failures);
                        next_compact_attempt = Instant::now() + Duration::from_secs(5);
                    }
                }
            }
        }
    }
}

/// The merged sliding-window view (base ring + every shard ring), or
/// `None` when not streaming. Lock order: base (held across the shard
/// merges, so a concurrent compaction cannot be observed mid-move),
/// then shards in index order — the same order every multi-lock path
/// uses.
pub(crate) fn merged_ring(
    base: &Mutex<BaseState>,
    shards: &[Arc<Mutex<Shard>>],
) -> Option<WindowedAggregator> {
    let base = base.lock().unwrap();
    let mut total = base.ring.clone()?;
    for shard in shards {
        if let Some(ring) = &shard.lock().unwrap().ring {
            total.merge_ring(ring);
        }
    }
    Some(total)
}

/// Online WAL compaction: fold the base and every live shard into the
/// next generation's base snapshot (and ring), start fresh logs, commit
/// with the manifest flip, sweep the old generation. Ingestion pauses
/// for the duration (all shard locks are held), which is what makes the
/// fold exact; the sequencing makes a crash at any point safe — until
/// the flip lands, the old generation (whose logs are complete, since
/// they are flushed first) remains authoritative, and the half-built
/// next generation is swept by the next recovery.
fn compact_online(
    config: &ServerConfig,
    base: &Mutex<BaseState>,
    shards: &[Arc<Mutex<Shard>>],
    engine: &Mutex<PublicationEngine>,
) -> std::io::Result<()> {
    let mut base_guard = base.lock().unwrap();
    let mut guards: Vec<_> = shards.iter().map(|s| s.lock().unwrap()).collect();
    // 1. Complete the old logs: every acked report must be on disk (in
    //    the kernel at least) before the old generation becomes the
    //    recovery source of record for a mid-compaction crash.
    for g in guards.iter_mut() {
        g.wal.flush()?;
    }
    // 2. Fold totals and rings.
    let mut total = base_guard.counts.clone();
    for g in guards.iter() {
        total.merge(g.agg.counts());
    }
    let ring_total = base_guard.ring.clone().map(|mut ring| {
        for g in guards.iter() {
            if let Some(shard_ring) = &g.ring {
                ring.merge_ring(shard_ring);
            }
        }
        // Stamp the ledger's settled spends onto the folded ring: the
        // per-window data only just arrived here from the shard rings
        // (which never carry spend annotations), and the compacted ring
        // file is what recovery seeds a fresh accountant from when the
        // BUDGET ledger is absent or superseded.
        if let Some(acct) = engine.lock().unwrap().accountant() {
            // Unconditional: a window settled to 0 must overwrite any
            // stale nonzero annotation merged in from the old base ring.
            for d in acct.decisions() {
                ring.record_spend(d.window, d.spent_nano);
            }
        }
        ring
    });
    // 3. Write the next generation's base (and ring), then fresh logs.
    let old_gen = base_guard.gen;
    let new_gen = old_gen + 1;
    trajshare_aggregate::write_snapshot_file(
        &storage::base_path(&config.data_dir, new_gen),
        &total,
    )?;
    if let Some(ring) = &ring_total {
        write_blob_atomic(
            &storage::ring_path(&config.data_dir, new_gen),
            &ring.encode_ring(),
        )?;
    }
    let mut new_wals = Vec::with_capacity(guards.len());
    for i in 0..guards.len() {
        new_wals.push(WalWriter::create_with_policy(
            &storage::wal_path(&config.data_dir, new_gen, i),
            config.wal_flush_every,
            config.sync_policy,
        )?);
    }
    // 4. Commit: the manifest flip makes the new generation (whose base
    //    already contains everything) authoritative.
    storage::write_manifest(&config.data_dir, new_gen)?;
    // 5. Swap live state onto the new generation.
    let watermark = ring_total.as_ref().map(|r| r.newest_window());
    for (i, g) in guards.iter_mut().enumerate() {
        g.agg = Aggregator::from_region_tiles(config.region_tiles.clone());
        g.ring = config.stream.as_ref().map(|s| {
            let mut ring = WindowedAggregator::new(config.region_tiles.clone(), s.window);
            if let Some(w) = watermark {
                ring.advance_to(w);
            }
            ring
        });
        g.wal = new_wals.remove(0);
        g.counts_path = storage::shard_counts_path(&config.data_dir, new_gen, i);
        g.since_snapshot = 0;
    }
    base_guard.counts = total;
    base_guard.ring = ring_total;
    base_guard.gen = new_gen;
    drop(guards);
    drop(base_guard);
    // 6. Cleanup outside the locks: delete the old generation.
    storage::sweep_stale_generations(&config.data_dir, new_gen);
    Ok(())
}
