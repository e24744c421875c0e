//! Durable streaming ingestion for population-scale LDP reports.
//!
//! `trajshare_aggregate` answers *"how do millions of ε-LDP reports fold
//! into counters?"* for in-memory batches; this crate puts a network and
//! a disk in front of it, following the collector architecture of
//! LDPTrace and RetraSyn: the aggregator is a long-running server on an
//! untrusted machine, fed by millions of devices it must assume are
//! adversarial, and it must survive restarts without losing or double
//! counting a single report.
//!
//! * [`server`] — the TCP ingestion server: length-prefixed frames of
//!   `Report::encode`, a thread-pool over bounded channels, explicit
//!   backpressure, per-shard aggregation, WAL-then-count durability,
//!   and (optionally) the real-time sliding-window workload: per-shard
//!   window rings over timestamped reports, a publication thread, and
//!   size-triggered online WAL compaction.
//! * [`storage`] — write-ahead logs (with a configurable fsync policy),
//!   per-shard counter + ring files, the generation manifest, and
//!   snapshot + log-tail recovery that restores totals *and* the window
//!   ring bit-identically.
//! * [`client`] — the streaming client used by `loadgen` and tests; its
//!   ack protocol certifies durability, not just delivery.
//!
//! Binaries: `ingestd` (the server; `--dump-counts` prints a recovered
//! state fingerprint) and `loadgen` (deterministic report generator +
//! streamer for smoke tests and load measurements).

pub mod client;
mod conn;
mod export;
mod maintenance;
pub mod server;
pub mod storage;

pub use client::{
    encode_wire, encode_wire_multi, stream_bytes_once, stream_reports, stream_reports_batched,
    stream_wires, GrantClient,
};
pub use server::{
    BudgetPublication, CountsSummary, IngestProfileSnapshot, IngestServer, Publication,
    RecoverySummary, ServerConfig, ServerHandle, ServerStats, StreamServerConfig,
};
pub use storage::{load, replay_wal, Recovery, ReplayStats, SyncPolicy, WalWriter};
