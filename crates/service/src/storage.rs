//! The durability layer: per-shard append-only report logs, per-shard
//! counter files, a generation manifest, and the recovery procedure that
//! folds them back into exact counters after a crash or re-shard.
//!
//! ## On-disk layout (all integers little-endian)
//!
//! Inside one data directory:
//!
//! `MANIFEST` and the shard-counts header are sealed blobs (magic,
//! version, body, CRC-32 — see [`trajshare_core::blob`]).
//!
//! * `MANIFEST` — `"TSMF"` version 1, body `u64` generation. Names the
//!   authoritative file generation; everything else is garbage from
//!   interrupted runs and is swept on recovery.
//! * `base-<gen>.counts` — a plain [`AggregateCounts`] snapshot (see
//!   `trajshare_aggregate::snapshot`): everything compacted by the last
//!   recovery.
//! * `shard-<gen>-<i>.log` — shard `i`'s write-ahead log. Each record is
//!   `u32` payload length, `u32` CRC-32 of the payload, then the payload
//!   — one accepted report frame's payload, verbatim ([`Report::encode`]
//!   bytes or a whole `TSR4` batch payload). Replay decodes every record
//!   into columns and folds it through the same function the live path
//!   uses. A torn tail (crash mid-write) is detected by the length/CRC
//!   pair and cleanly ignored.
//! * `shard-<gen>-<i>.counts` — shard `i`'s periodic counter snapshot: a
//!   26-byte `"TSSH"` version 2 header whose body is the `u64` WAL byte
//!   offset covered and the `u64` counts-snapshot length, then the
//!   embedded counts snapshot and, when streaming, the shard's window
//!   ring. Reports logged past the offset are recovered by replaying the
//!   log tail.
//!
//! ## Recovery = snapshot + log tail, then compaction
//!
//! Recovery (`recover_locked`) merges `base-<g>.counts`, every
//! `shard-<g>-*.counts`, and each shard's log tail past its covered
//! offset, producing counters bit-identical to an uninterrupted run (all
//! counters are plain `u64` sums, so merge order is immaterial). It then *compacts*: writes the
//! merged result as `base-<g+1>.counts`, atomically flips `MANIFEST` to
//! generation `g+1`, and deletes generation-`g` files. A crash anywhere
//! inside recovery is safe — until the manifest rename lands, generation
//! `g` remains authoritative and the half-built `g+1` files are swept by
//! the next attempt. The same sequencing (new base + new logs first,
//! manifest flip as the commit point, sweep last) backs the server's
//! *online* compaction, which bounds WAL disk usage between restarts.
//!
//! ## Streaming state
//!
//! When the deployment runs the sliding-window workload, each shard's
//! counter file additionally embeds the shard's window ring (see
//! `trajshare_aggregate::stream`) covering the same WAL offset as the
//! total counters, and recovery writes the merged ring as
//! `ring-<gen>.bin` next to the compacted base. Per-shard ring blobs +
//! timestamped WAL-tail replay restore the global ring bit-identically
//! (ring content is order-independent — see the stream module docs).
//!
//! ## Budget ledger
//!
//! Deployments enforcing a streaming privacy budget additionally keep a
//! generation-free `BUDGET` file: the
//! [`trajshare_aggregate::WindowBudgetAccountant`] ledger, which the
//! publication pass ([`trajshare_aggregate::PublicationEngine`])
//! rewrites atomically whenever a decision moves it. Recovery reads it
//! back with [`trajshare_aggregate::read_ledger`] and stamps its spends
//! onto the restored ring's per-window annotations; a corrupt ledger
//! aborts recovery rather than risk over-granting past the `w`-window
//! invariant.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trajshare_aggregate::snapshot::{crc32, read_snapshot_file, write_snapshot_file};
use trajshare_aggregate::{
    read_ledger, AggregateCounts, Aggregator, Report, ReportBatch, WindowBudgetAccountant,
    WindowConfig, WindowedAggregator,
};
use trajshare_core::blob::{open, write_blob_atomic, BlobError, Sealer};

/// Manifest magic ("TrajShare ManiFest").
const MANIFEST_MAGIC: [u8; 4] = *b"TSMF";
/// Shard-counts header magic ("TrajShare SHard").
const SHARD_MAGIC: [u8; 4] = *b"TSSH";
/// Version of the manifest header.
const STORAGE_VERSION: u16 = 1;
/// The one shard-counts header version this build reads and writes: the
/// counts snapshot's length is explicit, and an embedded window ring
/// (possibly empty) follows it.
const SHARD_VERSION: u16 = 2;
/// WAL record header: payload length + payload CRC.
const WAL_RECORD_HEADER: usize = 8;

/// Path of shard `i`'s write-ahead log in generation `gen`.
pub fn wal_path(dir: &Path, gen: u64, shard: usize) -> PathBuf {
    dir.join(format!("shard-{gen}-{shard}.log"))
}

/// Path of shard `i`'s counter snapshot in generation `gen`.
pub(crate) fn shard_counts_path(dir: &Path, gen: u64, shard: usize) -> PathBuf {
    dir.join(format!("shard-{gen}-{shard}.counts"))
}

/// Path of the compacted base snapshot of generation `gen`.
pub(crate) fn base_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("base-{gen}.counts"))
}

/// Path of the compacted window-ring snapshot of generation `gen`
/// (streaming deployments only).
pub(crate) fn ring_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("ring-{gen}.bin"))
}

/// Path of the persisted privacy-budget ledger (streaming deployments
/// with a [`trajshare_aggregate::WindowBudgetConfig`] only). Generation-
/// free on purpose: the ledger is tiny, rewritten atomically on every
/// decision, and must survive compaction sweeps — forgetting spends
/// across a generation bump could over-grant.
pub(crate) fn budget_path(dir: &Path) -> PathBuf {
    dir.join("BUDGET")
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// Reads the authoritative generation, `None` when no manifest exists
/// (fresh directory). A manifest that exists but fails validation is a
/// hard error — guessing a generation could silently double-count.
pub fn read_manifest(dir: &Path) -> std::io::Result<Option<u64>> {
    let bytes = match std::fs::read(manifest_path(dir)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let invalid = |e: BlobError| std::io::Error::other(format!("MANIFEST invalid: {e}"));
    let mut r = open(&bytes, MANIFEST_MAGIC, STORAGE_VERSION).map_err(invalid)?;
    let gen = r.u64().map_err(invalid)?;
    r.finish().map_err(invalid)?;
    Ok(Some(gen))
}

/// Atomically points the manifest at `gen` (tmp + fsync + rename): a
/// sealed blob whose body is the generation `u64`.
pub fn write_manifest(dir: &Path, gen: u64) -> std::io::Result<()> {
    let mut s = Sealer::new(MANIFEST_MAGIC, STORAGE_VERSION, 8);
    s.u64(gen);
    write_blob_atomic(&manifest_path(dir), &s.seal())
}

/// When (if ever) the WAL forces data onto stable storage.
///
/// [`WalWriter::flush`] always pushes buffered records to the kernel —
/// that is what makes an ack survive a *process* kill. What it does
/// **not** do, under the default [`SyncPolicy::Never`], is call
/// `fdatasync`: an **operating-system** crash or power loss can still
/// drop acked records that only the page cache held. Deployments that
/// need OS-crash durability opt into group commit, which bounds the
/// exposure to `records` acks or `max_delay` of wall time — whichever
/// comes first — at the cost of periodic `sync_data` calls on the ack
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Flush to the kernel only (the explicit default): acked reports
    /// survive any process kill, but *not* an OS crash.
    #[default]
    Never,
    /// Group commit: `fdatasync` whenever `records` records have been
    /// appended since the last sync, or `max_delay` has elapsed since
    /// it. The record bound is checked at every flush (= every ack and
    /// snapshot); the time bound additionally needs a periodic caller of
    /// [`WalWriter::sync_if_due`] during lulls — the ingestion server's
    /// maintenance thread does this — because a writer that receives no
    /// appends gets no flushes. Together they bound OS-crash loss to one
    /// group.
    GroupCommit {
        /// Records between forced syncs (≥ 1).
        records: u32,
        /// Wall-clock bound between forced syncs.
        max_delay: Duration,
    },
}

/// Append-only writer for one shard's report log.
///
/// Writes are buffered; [`WalWriter::offset`] counts *appended* bytes
/// (including still-buffered ones), which is the correct coverage value
/// for a counter snapshot taken after [`WalWriter::flush`] — and still
/// safe if buffered bytes are later lost, because the snapshot already
/// accounts for every report up to the offset it records.
pub struct WalWriter {
    inner: BufWriter<File>,
    offset: u64,
    pending: u32,
    flush_every: u32,
    sync_policy: SyncPolicy,
    /// Records appended since the last forced sync.
    since_sync: u32,
    last_sync: Instant,
    /// Set after any I/O failure. A failed write can leave a partial
    /// record in the stream; appending more records after it would put
    /// acked reports *behind* a torn record, where replay cannot reach
    /// them. Poisoning the writer keeps the ack-means-durable contract:
    /// the shard stops accepting instead of acking into a corrupt log.
    failed: bool,
}

/// The error every operation on a poisoned [`WalWriter`] returns.
fn wal_poisoned() -> std::io::Error {
    std::io::Error::other("WAL poisoned by an earlier write failure")
}

impl WalWriter {
    /// Creates (or truncates) the log at `path`; `flush_every` bounds how
    /// many records may sit in the userspace buffer before an automatic
    /// flush. Uses [`SyncPolicy::Never`] — kernel-flush durability only.
    pub fn create(path: &Path, flush_every: u32) -> std::io::Result<Self> {
        Self::create_with_policy(path, flush_every, SyncPolicy::Never)
    }

    /// [`WalWriter::create`] with an explicit [`SyncPolicy`].
    pub fn create_with_policy(
        path: &Path,
        flush_every: u32,
        sync_policy: SyncPolicy,
    ) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(WalWriter {
            inner: BufWriter::with_capacity(64 * 1024, file),
            offset: 0,
            pending: 0,
            flush_every: flush_every.max(1),
            sync_policy,
            since_sync: 0,
            last_sync: Instant::now(),
            failed: false,
        })
    }

    /// Appends one report payload as a length+CRC framed record. After
    /// any failure the writer is poisoned and every later call fails —
    /// see the `failed` field for why continuing would be worse.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.append_with_crc(payload, crc32(payload))
    }

    /// [`WalWriter::append`] with the payload's CRC-32 already in hand.
    /// The batch ingest path gets it for free from frame validation
    /// ([`trajshare_aggregate::ReportBatch::decode_payload_into`]), so
    /// the WAL never rescans a multi-kilobyte batch payload it just
    /// checksummed. `crc` must equal `crc32(payload)` — a wrong value
    /// writes a record replay will reject.
    pub fn append_with_crc(&mut self, payload: &[u8], crc: u32) -> std::io::Result<()> {
        debug_assert_eq!(crc, crc32(payload));
        if self.failed {
            return Err(wal_poisoned());
        }
        let write = (|| {
            self.inner
                .write_all(&(payload.len() as u32).to_le_bytes())?;
            self.inner.write_all(&crc.to_le_bytes())?;
            self.inner.write_all(payload)
        })();
        if let Err(e) = write {
            self.failed = true;
            return Err(e);
        }
        self.offset += (WAL_RECORD_HEADER + payload.len()) as u64;
        self.pending += 1;
        self.since_sync = self.since_sync.saturating_add(1);
        if self.pending >= self.flush_every {
            self.flush()?;
        }
        Ok(())
    }

    /// Pushes buffered records to the kernel, then applies the
    /// [`SyncPolicy`]: under `Never` that is all (acked reports survive
    /// process kills but **not** OS crashes); under `GroupCommit` the
    /// file is additionally `fdatasync`ed once the record- or time-bound
    /// is due, which is what turns an ack into an OS-crash-durable one
    /// (within one group of the policy's bounds). A failed flush or sync
    /// poisons the writer like a failed append.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.failed {
            return Err(wal_poisoned());
        }
        if let Err(e) = self.inner.flush() {
            self.failed = true;
            return Err(e);
        }
        self.pending = 0;
        if let SyncPolicy::GroupCommit { records, max_delay } = self.sync_policy {
            if self.since_sync >= records.max(1)
                || (self.since_sync > 0 && self.last_sync.elapsed() >= max_delay)
            {
                return self.sync();
            }
        }
        Ok(())
    }

    /// The time-based half of [`SyncPolicy::GroupCommit`], for periodic
    /// callers outside the ack path (the server's maintenance thread):
    /// if unsynced records have waited longer than `max_delay`, flush
    /// and `fdatasync` them now. Returns `Ok(false)` without touching
    /// the file under [`SyncPolicy::Never`], when nothing is pending,
    /// when the delay has not elapsed, or when the writer is already
    /// poisoned (the ack path surfaces that failure).
    pub fn sync_if_due(&mut self) -> std::io::Result<bool> {
        if self.failed {
            return Ok(false);
        }
        let SyncPolicy::GroupCommit { max_delay, .. } = self.sync_policy else {
            return Ok(false);
        };
        if self.since_sync == 0 || self.last_sync.elapsed() < max_delay {
            return Ok(false);
        }
        self.sync().map(|()| true)
    }

    /// Forces buffered *and* kernel-held data onto stable storage
    /// (`fdatasync`), regardless of policy. The caller must have flushed
    /// or accept that this flushes first.
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.failed {
            return Err(wal_poisoned());
        }
        let res = self
            .inner
            .flush()
            .and_then(|()| self.inner.get_ref().sync_data());
        match res {
            Ok(()) => {
                self.pending = 0;
                self.since_sync = 0;
                self.last_sync = Instant::now();
                Ok(())
            }
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    /// Bytes appended so far (including buffered).
    pub fn offset(&self) -> u64 {
        self.offset
    }
}

/// What a log replay found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayStats {
    /// Reports successfully replayed.
    pub reports: u64,
    /// Bytes of valid records consumed (from the starting offset).
    pub bytes: u64,
    /// Whether the log ended in a torn/corrupt record that was dropped.
    pub torn_tail: bool,
}

/// The one fold of a frame of reports into a shard's counters. The live
/// connection path (`Shard::ingest_frame`) and crash recovery
/// ([`reconstruct`]) both count through these two calls, so a recovered
/// shard equals the live one by construction.
pub(crate) fn fold_frame(
    agg: &mut Aggregator,
    ring: Option<&mut WindowedAggregator>,
    batch: &ReportBatch,
) {
    agg.ingest_columnar(batch);
    if let Some(ring) = ring {
        ring.ingest_batch(batch);
    }
}

/// Streams the log at `path`, starting `from` bytes in, invoking
/// `on_frame` with each valid record decoded into columns (a record is
/// one report frame's payload, whichever kind). Stops cleanly at a torn
/// or corrupt tail — the expected end state after a crash mid-append. A
/// missing file or an offset at/past EOF replays nothing (both legal:
/// the covering snapshot already accounts for everything).
fn replay_frames(
    path: &Path,
    from: u64,
    mut on_frame: impl FnMut(&ReportBatch),
) -> std::io::Result<ReplayStats> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ReplayStats::default()),
        Err(e) => return Err(e),
    };
    let len = file.metadata()?.len();
    let mut stats = ReplayStats::default();
    if from >= len {
        return Ok(stats);
    }
    let mut reader = BufReader::with_capacity(256 * 1024, file);
    reader.seek(SeekFrom::Start(from))?;
    let mut remaining = len - from;
    let mut header = [0u8; WAL_RECORD_HEADER];
    let mut payload = Vec::new();
    let mut batch = ReportBatch::new();
    loop {
        if remaining < WAL_RECORD_HEADER as u64 {
            stats.torn_tail = remaining != 0;
            return Ok(stats);
        }
        reader.read_exact(&mut header)?;
        let plen = u32::from_le_bytes(header[0..4].try_into().unwrap()) as u64;
        let stored_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if plen > u64::from(trajshare_aggregate::MAX_FRAME_LEN)
            || (remaining - WAL_RECORD_HEADER as u64) < plen
        {
            stats.torn_tail = true;
            return Ok(stats);
        }
        payload.resize(plen as usize, 0);
        reader.read_exact(&mut payload)?;
        // The decode returns the CRC-32 of the whole payload, so one
        // pass both validates the frame and checks the record. (A
        // CRC-valid but undecodable record should not happen — the
        // server validates before logging; it is a tail to drop rather
        // than a reason to poison recovery.)
        if batch.decode_payload_into(&payload) != Ok(stored_crc) {
            stats.torn_tail = true;
            return Ok(stats);
        }
        on_frame(&batch);
        stats.reports += batch.num_reports() as u64;
        let consumed = WAL_RECORD_HEADER as u64 + plen;
        stats.bytes += consumed;
        remaining -= consumed;
    }
}

/// Row-form view of the same walk: `on_report` sees every logged report
/// in log order as a heap [`Report`]. For tools and reference folds;
/// recovery itself stays columnar.
pub fn replay_wal(
    path: &Path,
    from: u64,
    mut on_report: impl FnMut(Report),
) -> std::io::Result<ReplayStats> {
    replay_frames(path, from, |batch| batch.reports().for_each(&mut on_report))
}

/// Atomically writes shard counters plus the WAL byte offset they cover,
/// and — in streaming deployments — the shard's window ring as of the
/// same offset (`ring` is the blob from
/// `WindowedAggregator::encode_ring`).
pub fn write_shard_counts(
    path: &Path,
    counts: &AggregateCounts,
    wal_offset: u64,
    ring: Option<&[u8]>,
) -> std::io::Result<()> {
    let counts_snap = counts.encode_snapshot();
    let ring = ring.unwrap_or_default();
    // The header is its own sealed blob: the embedded snapshots carry
    // their own CRCs, this one guards the covered-offset field, where a
    // silent flip would shift what recovery replays (double count or
    // drop), and the counts length that makes the ring's start explicit.
    // Its buffer is sized for the blobs appended after the seal.
    let mut s = Sealer::new(
        SHARD_MAGIC,
        SHARD_VERSION,
        16 + counts_snap.len() + ring.len(),
    );
    s.u64(wal_offset).u64(counts_snap.len() as u64);
    let mut bytes = s.seal();
    bytes.extend_from_slice(&counts_snap);
    bytes.extend_from_slice(ring);
    write_blob_atomic(path, &bytes)
}

/// Reads a shard counter file back as `(counts, covered WAL offset, raw
/// ring blob)`, validating the header CRC before trusting the offset.
pub fn read_shard_counts(
    path: &Path,
) -> Result<(AggregateCounts, u64, Option<Vec<u8>>), BlobError> {
    const HEADER: usize = 4 + 2 + 8 + 8 + 4;
    let bytes = std::fs::read(path)?;
    let header = bytes.get(..HEADER).ok_or(BlobError::Truncated)?;
    let mut r = open(header, SHARD_MAGIC, SHARD_VERSION)?;
    let (offset, counts_len) = (r.u64()?, r.u64()?);
    let body = &bytes[HEADER..];
    let counts = body
        .get(..counts_len as usize)
        .ok_or(BlobError::Truncated)?;
    let ring = &body[counts.len()..];
    let counts = AggregateCounts::decode_snapshot(counts)?;
    Ok((counts, offset, (!ring.is_empty()).then(|| ring.to_vec())))
}

/// Everything recovery (or [`load`]) reconstructed.
#[derive(Debug)]
pub struct Recovery {
    /// Exact counters as of the last durable byte.
    pub counts: AggregateCounts,
    /// The restored sliding-window ring (streaming deployments only):
    /// merged from the base ring, every shard's ring blob, and the
    /// timestamped log tails — bit-identical to the pre-crash ring.
    pub ring: Option<WindowedAggregator>,
    /// The restored privacy-budget ledger, when a `BUDGET` file exists.
    /// A corrupt ledger aborts recovery — restoring a guessed ledger
    /// could over-grant past the `w`-window invariant.
    pub budget: Option<WindowBudgetAccountant>,
    /// The fresh generation new server files must use.
    pub gen: u64,
    /// Reports replayed from log tails (not covered by any snapshot).
    pub replayed_reports: u64,
    /// Shards whose log ended in a torn record (normal after a crash).
    pub torn_tails: u64,
}

/// Scans `dir` for the current generation's files and returns the shard
/// indices present (from either a log or a counts file).
fn shard_indices(dir: &Path, gen: u64) -> std::io::Result<Vec<usize>> {
    let log_prefix = format!("shard-{gen}-");
    let mut indices = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&log_prefix) else {
            continue;
        };
        let idx = rest
            .strip_suffix(".log")
            .or_else(|| rest.strip_suffix(".counts"));
        if let Some(i) = idx.and_then(|s| s.parse::<usize>().ok()) {
            if !indices.contains(&i) {
                indices.push(i);
            }
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

/// Deletes every service file in `dir` that does not belong to
/// generation `keep` (best-effort; leftovers are retried next recovery).
/// Also the post-commit cleanup step of the server's online compaction.
pub(crate) fn sweep_stale_generations(dir: &Path, keep: u64) {
    let keep_base = format!("base-{keep}.");
    let keep_shard = format!("shard-{keep}-");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let keep_ring = format!("ring-{keep}.");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = (name.starts_with("base-") && !name.starts_with(&keep_base))
            || (name.starts_with("shard-") && !name.starts_with(&keep_shard))
            || (name.starts_with("ring-") && !name.starts_with(&keep_ring))
            || name.ends_with(".tmp");
        if stale {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Takes the data directory's exclusive advisory lock (a `LOCK` file).
/// Held by a running server and for the duration of [`load`], so a
/// second server — or an operator command — cannot compact or sweep
/// files out from under a live instance. The lock releases when the
/// returned handle drops.
pub(crate) fn lock_dir(dir: &Path) -> std::io::Result<File> {
    std::fs::create_dir_all(dir)?;
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(dir.join("LOCK"))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            format!("data dir {} is locked by another process", dir.display()),
        )),
        Err(std::fs::TryLockError::Error(e)) => Err(e),
    }
}

/// [`recover_locked`] under its own directory lock, for tests that
/// recover a directory no server holds.
#[cfg(test)]
pub(crate) fn recover(
    dir: &Path,
    region_tiles: &[u16],
    window: Option<WindowConfig>,
) -> std::io::Result<Recovery> {
    let _lock = lock_dir(dir)?;
    recover_locked(dir, region_tiles, window)
}

/// Read-only reconstruction: merges the same base + shard counters + log
/// tails as recovery does but writes nothing — no compaction, no manifest
/// flip, no sweep. This is what inspection commands (`ingestd
/// --dump-counts`) use, so that *looking* at a data directory can never
/// delete a live server's logs.
pub fn load(
    dir: &Path,
    region_tiles: &[u16],
    window: Option<WindowConfig>,
) -> std::io::Result<Recovery> {
    let _lock = lock_dir(dir)?;
    reconstruct(dir, region_tiles, window)
}

/// Rebuilds exact counters from whatever the previous run left behind,
/// then compacts into a fresh generation (see the module docs for the
/// crash-safety argument). `region_tiles` defines the public universe;
/// a snapshot recorded under a different universe size aborts recovery
/// rather than mis-indexing counters. `window` enables the streaming
/// workload: the sliding-window ring is restored alongside the totals
/// (a persisted ring with a different window shape aborts recovery).
/// The caller must hold the directory lock (see [`lock_dir`]);
/// [`crate::server::IngestServer`] holds it for its whole life.
pub(crate) fn recover_locked(
    dir: &Path,
    region_tiles: &[u16],
    window: Option<WindowConfig>,
) -> std::io::Result<Recovery> {
    let rec = reconstruct(dir, region_tiles, window)?;
    // Compact: the merged state becomes the next generation's base, the
    // manifest flip makes it authoritative, and only then is the old
    // generation swept.
    write_snapshot_file(&base_path(dir, rec.gen), &rec.counts)?;
    match &rec.ring {
        Some(ring) => write_blob_atomic(&ring_path(dir, rec.gen), &ring.encode_ring())?,
        // Not streaming: make sure no stale ring file (e.g. from a
        // crashed online compaction into this same generation number)
        // survives into the generation we are about to commit.
        None => {
            let _ = std::fs::remove_file(ring_path(dir, rec.gen));
        }
    }
    write_manifest(dir, rec.gen)?;
    sweep_stale_generations(dir, rec.gen);
    Ok(rec)
}

/// The shared reconstruction pass behind [`recover_locked`] and [`load`]:
/// returns the merged counters (and ring) and the *next* generation
/// number without touching the directory.
fn reconstruct(
    dir: &Path,
    region_tiles: &[u16],
    window: Option<WindowConfig>,
) -> std::io::Result<Recovery> {
    let num_regions = region_tiles.len();
    let gen = read_manifest(dir)?.unwrap_or(0);
    let mut total = AggregateCounts::new(num_regions);
    let mut ring_total = window.map(|w| WindowedAggregator::new(region_tiles.to_vec(), w));
    let universe_check = |c: &AggregateCounts, what: &str| {
        if c.num_regions == num_regions {
            Ok(())
        } else {
            Err(std::io::Error::other(format!(
                "{what}: universe {} != configured {num_regions}",
                c.num_regions
            )))
        }
    };

    let base = base_path(dir, gen);
    if base.exists() {
        let counts = read_snapshot_file(&base).map_err(std::io::Error::other)?;
        universe_check(&counts, "base snapshot")?;
        total.merge(&counts);
    }
    if let (Some(ring_total), Some(w)) = (&mut ring_total, window) {
        let ring_file = ring_path(dir, gen);
        if ring_file.exists() {
            let blob = std::fs::read(&ring_file)?;
            let ring = WindowedAggregator::decode_ring(&blob, region_tiles, w)
                .map_err(|e| std::io::Error::other(format!("base ring: {e}")))?;
            ring_total.merge_ring(&ring);
        }
    }

    let budget = read_ledger(&budget_path(dir))?;

    let mut replayed_reports = 0u64;
    let mut torn_tails = 0u64;
    for shard in shard_indices(dir, gen)? {
        let counts_file = shard_counts_path(dir, gen, shard);
        let (covered, ring_blob) = if counts_file.exists() {
            let (counts, offset, ring_blob) =
                read_shard_counts(&counts_file).map_err(std::io::Error::other)?;
            universe_check(&counts, "shard snapshot")?;
            total.merge(&counts);
            (offset, ring_blob)
        } else {
            (0, None)
        };
        // The shard's ring as of `covered`; the tail replay below feeds
        // the same ring, preserving the shard's own ingestion order (the
        // WAL is that order), so the rebuilt shard ring is bit-identical
        // to the pre-crash one.
        let mut shard_ring = match (&ring_total, window, ring_blob) {
            (Some(_), Some(w), Some(blob)) => Some(
                WindowedAggregator::decode_ring(&blob, region_tiles, w)
                    .map_err(|e| std::io::Error::other(format!("shard {shard} ring: {e}")))?,
            ),
            (Some(_), Some(w), None) => Some(WindowedAggregator::new(region_tiles.to_vec(), w)),
            _ => None,
        };
        let mut tail = Aggregator::from_region_tiles(region_tiles.to_vec());
        let stats = replay_frames(&wal_path(dir, gen, shard), covered, |batch| {
            fold_frame(&mut tail, shard_ring.as_mut(), batch)
        })?;
        total.merge(tail.counts());
        if let (Some(ring_total), Some(shard_ring)) = (&mut ring_total, &shard_ring) {
            ring_total.merge_ring(shard_ring);
        }
        replayed_reports += stats.reports;
        torn_tails += stats.torn_tail as u64;
    }

    // The ledger is authoritative over the ring's spend annotations: the
    // ring mirror is only stamped at compaction, while the BUDGET file is
    // rewritten on every decision, so after a kill the ledger is ahead.
    // Unconditional overwrite: a window the ledger settled to 0 must not
    // keep a stale nonzero ring annotation (recovery after a budget
    // config change would seed a phantom spend from it).
    if let (Some(ring), Some(acct)) = (&mut ring_total, &budget) {
        for d in acct.decisions() {
            ring.record_spend(d.window, d.spent_nano);
        }
    }

    Ok(Recovery {
        counts: total,
        ring: ring_total,
        budget,
        gen: gen + 1,
        replayed_reports,
        torn_tails,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_report(i: u32) -> Report {
        let r = i % 5;
        Report {
            t: (i as u64 / 40) * 60, // a new window every 40 reports
            eps_prime: 1.25,
            len: 2,
            unigrams: vec![(0, r), (1, (r + 1) % 5)],
            exact: vec![(0, r)],
            transitions: vec![(r, (r + 1) % 5)],
        }
    }

    const WINDOW: WindowConfig = WindowConfig {
        window_len: 60,
        num_windows: 4,
    };

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("trajshare-storage-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wal_roundtrip_and_torn_tail() {
        let dir = tmp_dir("wal");
        let path = wal_path(&dir, 1, 0);
        let reports: Vec<Report> = (0..50).map(toy_report).collect();
        let mut wal = WalWriter::create(&path, 8).unwrap();
        for r in &reports {
            wal.append(&r.encode()).unwrap();
        }
        wal.flush().unwrap();
        let full_len = wal.offset();

        let mut got = Vec::new();
        let stats = replay_wal(&path, 0, |r| got.push(r)).unwrap();
        assert_eq!(got, reports);
        assert_eq!(stats.reports, 50);
        assert_eq!(stats.bytes, full_len);
        assert!(!stats.torn_tail);

        // Replay from a mid-log offset yields exactly the tail.
        let skip = stats.bytes / 50 * 10; // records are equal-sized here
        let mut tail = Vec::new();
        replay_wal(&path, skip, |r| tail.push(r)).unwrap();
        assert_eq!(tail, reports[10..]);

        // Truncate mid-record: the torn tail is dropped, the prefix kept.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full_len - 5).unwrap();
        let mut cut = Vec::new();
        let stats = replay_wal(&path, 0, |r| cut.push(r)).unwrap();
        assert_eq!(cut, reports[..49]);
        assert!(stats.torn_tail);

        // Corrupt a payload byte: replay stops at the bad record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[WAL_RECORD_HEADER + 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut none = Vec::new();
        let stats = replay_wal(&path, 0, |r| none.push(r)).unwrap();
        assert!(none.is_empty());
        assert!(stats.torn_tail);

        // Offset past EOF and a missing file both replay nothing.
        assert_eq!(
            replay_wal(&path, 1 << 40, |_| {}).unwrap(),
            ReplayStats::default()
        );
        assert_eq!(
            replay_wal(&dir.join("absent.log"), 0, |_| {}).unwrap(),
            ReplayStats::default()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_policy_syncs_on_the_flush_path() {
        let dir = tmp_dir("group-commit");
        let path = wal_path(&dir, 0, 0);
        let mut wal = WalWriter::create_with_policy(
            &path,
            4,
            SyncPolicy::GroupCommit {
                records: 8,
                max_delay: Duration::from_secs(3600),
            },
        )
        .unwrap();
        for r in (0..20).map(toy_report) {
            wal.append(&r.encode()).unwrap();
        }
        wal.flush().unwrap();
        wal.sync().unwrap();
        // Replay sees every record regardless of sync cadence.
        let mut got = 0u32;
        let stats = replay_wal(&path, 0, |_| got += 1).unwrap();
        assert_eq!(got, 20);
        assert!(!stats.torn_tail);
        // A zero max_delay forces a sync at every flush; still exact.
        let path2 = wal_path(&dir, 0, 1);
        let mut wal2 = WalWriter::create_with_policy(
            &path2,
            1,
            SyncPolicy::GroupCommit {
                records: u32::MAX,
                max_delay: Duration::from_millis(0),
            },
        )
        .unwrap();
        for r in (0..5).map(toy_report) {
            wal2.append(&r.encode()).unwrap();
        }
        let mut got2 = 0u32;
        replay_wal(&path2, 0, |_| got2 += 1).unwrap();
        assert_eq!(got2, 5);

        // The time bound works without further appends: sync_if_due is
        // a no-op until max_delay elapses, then syncs the pending tail.
        let path3 = wal_path(&dir, 0, 2);
        let mut wal3 = WalWriter::create_with_policy(
            &path3,
            1_000, // never auto-flush by count
            SyncPolicy::GroupCommit {
                records: u32::MAX,
                max_delay: Duration::from_millis(30),
            },
        )
        .unwrap();
        wal3.append(&toy_report(1).encode()).unwrap();
        assert!(!wal3.sync_if_due().unwrap(), "delay not elapsed yet");
        std::thread::sleep(Duration::from_millis(40));
        assert!(wal3.sync_if_due().unwrap(), "overdue tail must sync");
        assert!(!wal3.sync_if_due().unwrap(), "nothing pending after");
        let mut got3 = 0u32;
        replay_wal(&path3, 0, |_| got3 += 1).unwrap();
        assert_eq!(got3, 1, "the synced record is on disk");
        // Never-policy writers report no work, never an error.
        let mut wal4 = WalWriter::create(&wal_path(&dir, 0, 3), 4).unwrap();
        wal4.append(&toy_report(2).encode()).unwrap();
        assert!(!wal4.sync_if_due().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_roundtrip_and_validation() {
        let dir = tmp_dir("manifest");
        assert_eq!(read_manifest(&dir).unwrap(), None);
        write_manifest(&dir, 7).unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), Some(7));
        // A corrupted manifest is a hard error, not a silent gen 0.
        let mut bytes = std::fs::read(manifest_path(&dir)).unwrap();
        bytes[8] ^= 0x01;
        std::fs::write(manifest_path(&dir), &bytes).unwrap();
        assert!(read_manifest(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_counts_carry_their_wal_offset() {
        let dir = tmp_dir("shardcounts");
        let mut agg = Aggregator::from_region_tiles(vec![0; 5]);
        for i in 0..20 {
            agg.ingest(&toy_report(i));
        }
        let path = shard_counts_path(&dir, 3, 1);
        write_shard_counts(&path, agg.counts(), 1234, None).unwrap();
        let (counts, offset, ring) = read_shard_counts(&path).unwrap();
        assert_eq!(&counts, agg.counts());
        assert_eq!(offset, 1234);
        assert!(ring.is_none());
        // A flipped bit in the covered-offset field must fail the header
        // CRC, not silently shift what recovery replays.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_shard_counts(&path).unwrap_err(), BlobError::BadCrc);

        // Version 1 (never written by any deployment) is rejected like
        // any other unknown version (header CRC re-sealed, so only the
        // version check can object).
        bytes[8] ^= 0x04;
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let crc = crc32(&bytes[..22]);
        bytes[22..26].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_shard_counts(&path).unwrap_err(),
            BlobError::UnsupportedVersion(1)
        );

        // An embedded ring roundtrips alongside the counts.
        let mut ring = WindowedAggregator::new(vec![0; 5], WINDOW);
        for i in 0..20 {
            ring.ingest(&toy_report(i));
        }
        write_shard_counts(&path, agg.counts(), 99, Some(&ring.encode_ring())).unwrap();
        let (counts, offset, blob) = read_shard_counts(&path).unwrap();
        assert_eq!(&counts, agg.counts());
        assert_eq!(offset, 99);
        let back = WindowedAggregator::decode_ring(&blob.unwrap(), &[0u16; 5], WINDOW).unwrap();
        assert_eq!(back.merged(), ring.merged());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_merges_snapshot_and_log_tail_exactly() {
        let dir = tmp_dir("recover");
        let tiles = vec![0u16; 5];
        let reports: Vec<Report> = (0..200).map(toy_report).collect();

        // Simulate a crashed generation-0 run with two shards: shard 0
        // snapshotted after 60 reports then logged 40 more; shard 1 never
        // snapshotted, logged 100.
        let mut s0 = Aggregator::from_region_tiles(tiles.clone());
        let mut wal0 = WalWriter::create(&wal_path(&dir, 0, 0), 4).unwrap();
        for r in &reports[..100] {
            wal0.append(&r.encode()).unwrap();
            s0.ingest(r);
            if s0.counts().num_reports == 60 {
                wal0.flush().unwrap();
                write_shard_counts(
                    &shard_counts_path(&dir, 0, 0),
                    s0.counts(),
                    wal0.offset(),
                    None,
                )
                .unwrap();
            }
        }
        wal0.flush().unwrap();
        let mut wal1 = WalWriter::create(&wal_path(&dir, 0, 1), 4).unwrap();
        for r in &reports[100..] {
            wal1.append(&r.encode()).unwrap();
        }
        wal1.flush().unwrap();

        let rec = recover(&dir, &tiles, None).unwrap();
        let mut direct = Aggregator::from_region_tiles(tiles.clone());
        for r in &reports {
            direct.ingest(r);
        }
        assert_eq!(&rec.counts, direct.counts(), "bit-identical recovery");
        assert_eq!(rec.gen, 1);
        assert!(rec.ring.is_none(), "no window config, no ring");
        assert_eq!(rec.replayed_reports, 140, "40 tail + 100 unsnapshotted");
        assert_eq!(read_manifest(&dir).unwrap(), Some(1));
        // Old generation swept, compacted base present.
        assert!(!wal_path(&dir, 0, 0).exists());
        assert!(!shard_counts_path(&dir, 0, 0).exists());
        assert!(base_path(&dir, 1).exists());

        // A second recovery (nothing new) is idempotent.
        let rec2 = recover(&dir, &tiles, None).unwrap();
        assert_eq!(rec2.counts, rec.counts);
        assert_eq!(rec2.gen, 2);
        assert_eq!(rec2.replayed_reports, 0);

        // Universe mismatch is refused outright.
        assert!(recover(&dir, &[0u16; 9], None).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_restores_the_window_ring_bit_identically() {
        let dir = tmp_dir("ring-recover");
        let tiles = vec![0u16; 5];
        let reports: Vec<Report> = (0..300).map(toy_report).collect();

        // Two shards, round-robin. Shard 0 snapshots (counts + ring)
        // mid-stream, leaving a tail; shard 1 has log only.
        let mut rings = [
            WindowedAggregator::new(tiles.clone(), WINDOW),
            WindowedAggregator::new(tiles.clone(), WINDOW),
        ];
        let mut aggs = [
            Aggregator::from_region_tiles(tiles.clone()),
            Aggregator::from_region_tiles(tiles.clone()),
        ];
        let mut wals = [
            WalWriter::create(&wal_path(&dir, 0, 0), 4).unwrap(),
            WalWriter::create(&wal_path(&dir, 0, 1), 4).unwrap(),
        ];
        for (i, r) in reports.iter().enumerate() {
            let s = i % 2;
            wals[s].append(&r.encode()).unwrap();
            aggs[s].ingest(r);
            rings[s].ingest(r);
            if i == 149 {
                wals[0].flush().unwrap();
                write_shard_counts(
                    &shard_counts_path(&dir, 0, 0),
                    aggs[0].counts(),
                    wals[0].offset(),
                    Some(&rings[0].encode_ring()),
                )
                .unwrap();
            }
        }
        wals[0].flush().unwrap();
        wals[1].flush().unwrap();

        // Reference: the global ring an uninterrupted run would hold.
        let mut expected_ring = WindowedAggregator::new(tiles.clone(), WINDOW);
        for r in &reports {
            expected_ring.ingest(r);
        }

        let rec = recover(&dir, &tiles, Some(WINDOW)).unwrap();
        let ring = rec.ring.expect("window config requested a ring");
        assert_eq!(ring.merged(), expected_ring.merged(), "bit-identical ring");
        assert_eq!(ring.newest_window(), expected_ring.newest_window());
        for (id, counts) in expected_ring.windows() {
            assert_eq!(ring.window_counts(id), Some(counts), "window {id}");
        }
        // The compacted generation persists the ring; a second recovery
        // reads it back identically with nothing to replay.
        assert!(ring_path(&dir, 1).exists());
        let rec2 = recover(&dir, &tiles, Some(WINDOW)).unwrap();
        assert_eq!(rec2.replayed_reports, 0);
        assert_eq!(
            rec2.ring.unwrap().merged(),
            expected_ring.merged(),
            "ring survives compaction"
        );
        // A mismatched window shape is refused, not re-bucketed.
        assert!(recover(
            &dir,
            &tiles,
            Some(WindowConfig {
                window_len: 30,
                num_windows: 4
            })
        )
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_folds_both_record_kinds_exactly_like_the_row_form_reference() {
        // One log interleaving `TSR3` and `TSR4` records. The second
        // batch straddles a window advance and carries a row that is
        // late by the time the fold reaches it; the last record is a
        // `TSR4` batch torn mid-write. Recovery's columnar fold must
        // land exactly where folding the surviving reports one at a
        // time, in log order, lands — `late()` included.
        let dir = tmp_dir("mixed-records");
        let tiles = vec![0u16; 5];
        let at = |i: u32, t: u64| Report { t, ..toy_report(i) };
        let records: Vec<Vec<Report>> = vec![
            vec![at(0, 10)],
            (1..40).map(|i| at(i, 60 + u64::from(i))).collect(),
            vec![at(40, 130)],
            // Window 3, a jump to window 11 (ring span 4: window 3 is
            // evicted), back to window 3 (late), then window 11 again.
            vec![at(41, 200), at(42, 660), at(43, 210), at(44, 670)],
            vec![at(45, 615)],
            vec![at(46, 5)], // a late single
            (47..60).map(|i| at(i, 700)).collect(),
        ];
        let torn: Vec<Report> = (60..90).map(|i| at(i, 720)).collect();

        let path = wal_path(&dir, 0, 0);
        let mut wal = WalWriter::create(&path, 4).unwrap();
        for reports in &records {
            match reports.as_slice() {
                [one] => wal.append(&one.encode()).unwrap(),
                many => wal
                    .append(&ReportBatch::from_reports(many).unwrap().encode_payload())
                    .unwrap(),
            }
        }
        let intact = wal.offset();
        wal.append(&ReportBatch::from_reports(&torn).unwrap().encode_payload())
            .unwrap();
        wal.flush().unwrap();
        let torn_len = wal.offset() - intact;
        drop(wal);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(intact + torn_len / 2).unwrap();

        let mut agg = Aggregator::from_region_tiles(tiles.clone());
        let mut ring = WindowedAggregator::new(tiles.clone(), WINDOW);
        for r in records.iter().flatten() {
            agg.ingest(r);
            ring.ingest(r);
        }
        assert!(ring.late() >= 2, "the reference itself must see late rows");

        // The row-form adapter walks the same records in the same order.
        let mut rows = Vec::new();
        let stats = replay_wal(&path, 0, |r| rows.push(r)).unwrap();
        assert_eq!(rows, records.concat());
        assert_eq!(stats.bytes, intact);
        assert!(stats.torn_tail);

        let rec = recover(&dir, &tiles, Some(WINDOW)).unwrap();
        assert_eq!(rec.torn_tails, 1);
        assert_eq!(rec.replayed_reports, rows.len() as u64);
        assert_eq!(&rec.counts, agg.counts());
        let got = rec.ring.unwrap();
        assert_eq!(got.merged(), ring.merged());
        assert_eq!(got.late(), ring.late());
        assert_eq!(got.newest_window(), ring.newest_window());
        assert_eq!(got.windows(), ring.windows());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_during_online_compaction_recovers_from_the_old_generation() {
        // Simulates a crash *between* writing the next generation's files
        // and flipping the manifest — the window online compaction opens.
        // Until the flip, generation g stays authoritative and the
        // half-built g+1 files must be swept, never merged.
        let dir = tmp_dir("compaction-crash");
        let tiles = vec![0u16; 5];
        let reports: Vec<Report> = (0..120).map(toy_report).collect();

        let mut agg = Aggregator::from_region_tiles(tiles.clone());
        let mut wal = WalWriter::create(&wal_path(&dir, 0, 0), 4).unwrap();
        for r in &reports {
            wal.append(&r.encode()).unwrap();
            agg.ingest(r);
        }
        wal.flush().unwrap();
        write_manifest(&dir, 0).unwrap();

        // "Crashed compaction": base-1 written with *partial* state (as
        // if counters were still being merged), a fresh empty gen-1 WAL
        // created — but no manifest flip.
        let mut partial = Aggregator::from_region_tiles(tiles.clone());
        for r in &reports[..30] {
            partial.ingest(r);
        }
        write_snapshot_file(&base_path(&dir, 1), partial.counts()).unwrap();
        WalWriter::create(&wal_path(&dir, 1, 0), 4).unwrap();

        let rec = recover(&dir, &tiles, None).unwrap();
        assert_eq!(
            &rec.counts,
            agg.counts(),
            "gen 0 stays authoritative; half-built gen 1 ignored"
        );
        assert_eq!(rec.replayed_reports, 120);
        assert_eq!(read_manifest(&dir).unwrap(), Some(1));
        // Recovery overwrote the half-built base with the full state (a
        // crashed compaction's new logs are always still *empty* — acks
        // only land in them after the manifest flip — so the leftover
        // gen-1 WAL replays nothing).
        assert_eq!(
            read_snapshot_file(&base_path(&dir, 1)).unwrap(),
            rec.counts,
            "base-1 now holds the full recovered state"
        );
        let rec2 = recover(&dir, &tiles, None).unwrap();
        assert_eq!(&rec2.counts, agg.counts(), "idempotent after the sweep");
        assert_eq!(rec2.replayed_reports, 0);
        // Same crash shape with a stale *ring* leftover: a non-streaming
        // recovery must not let it leak into the committed generation.
        std::fs::write(ring_path(&dir, 3), b"stale").unwrap();
        let rec3 = recover(&dir, &tiles, None).unwrap();
        assert_eq!(rec3.gen, 3);
        assert!(
            !ring_path(&dir, 3).exists(),
            "stale ring file must not survive into the committed generation"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
