//! The cluster snapshot-export listener (`TSCL`): what a coordinator
//! pulls from a worker. See [`crate::server`] for the architecture.

use crate::server::{BaseState, ServerStats, Shard};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use trajshare_aggregate::clusterproto::{
    read_cluster_frame, write_cluster_frame, ClusterFrame, WorkerSnapshot,
};
use trajshare_aggregate::GrantBoard;

/// Builds the worker's shippable snapshot: merged totals, merged ring,
/// and the current generation as the epoch — all captured under one
/// base-then-shards lock pass (the standard order), so the counts and
/// the ring describe the *same* instant and a concurrent compaction
/// cannot be observed mid-move.
fn export_snapshot(base: &Mutex<BaseState>, shards: &[Arc<Mutex<Shard>>]) -> WorkerSnapshot {
    let base = base.lock().unwrap();
    let mut counts = base.counts.clone();
    let mut ring = base.ring.clone();
    for shard in shards {
        let guard = shard.lock().unwrap();
        counts.merge(guard.agg.counts());
        if let (Some(total), Some(shard_ring)) = (&mut ring, &guard.ring) {
            total.merge_ring(shard_ring);
        }
    }
    WorkerSnapshot {
        epoch: base.gen,
        watermark: ring.as_ref().map_or(0, |r| r.newest_window()),
        reports: counts.num_reports,
        counts: counts.encode_snapshot(),
        ring: ring.map(|r| r.encode_ring()),
    }
}

/// The cluster snapshot-export listener: serves `TSCL` `SnapshotPull`
/// requests with the worker's current merged state, and — when the
/// grant session is on — installs `GrantAnnounce` relays from the
/// coordinator onto the worker's grant board, fanning each one out to
/// this worker's subscribed client connections. Connections are
/// handled serially (the only expected clients are one coordinator and
/// its router's relay); a connection may issue any number of frames
/// before closing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn export_loop(
    listener: TcpListener,
    base: Arc<Mutex<BaseState>>,
    shards: Vec<Arc<Mutex<Shard>>>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    read_timeout: Duration,
    board: Option<Arc<GrantBoard>>,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            // Includes the shutdown wake-up connection itself.
            return;
        }
        match accepted {
            Ok((mut stream, _)) => {
                if stream.set_read_timeout(Some(read_timeout)).is_err()
                    || stream.set_nodelay(true).is_err()
                {
                    stats.bump(&stats.io_errors);
                    continue;
                }
                loop {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match read_cluster_frame(&mut stream) {
                        Ok(ClusterFrame::SnapshotPull) => {
                            let snapshot = export_snapshot(&base, &shards);
                            if write_cluster_frame(&mut stream, &ClusterFrame::Snapshot(snapshot))
                                .is_err()
                            {
                                stats.bump(&stats.io_errors);
                                break;
                            }
                            stats.bump(&stats.snapshots_shipped);
                        }
                        // The coordinator's allocation, relayed down to
                        // this worker's subscribed clients. Fire-and-
                        // forget (no reply). A worker running no grant
                        // session ignores the relay — dropping the
                        // coordinator's connection over it would cost a
                        // snapshot pull cycle for nothing.
                        Ok(ClusterFrame::GrantAnnounce(grant)) => {
                            stats.announce(board.as_deref(), grant)
                        }
                        // A worker never accepts snapshots; anything but
                        // a pull or a grant relay is a protocol
                        // violation.
                        Ok(_) => {
                            stats.bump(&stats.disconnected_protocol);
                            break;
                        }
                        // EOF shows up as an Io error from read_exact —
                        // the normal end of a pull session. Real socket
                        // errors land here too; either way the next
                        // coordinator connect starts clean.
                        Err(_) => break,
                    }
                }
            }
            // Transient (EMFILE, ECONNABORTED): back off, keep serving.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}
