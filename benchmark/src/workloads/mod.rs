//! The six workloads and what they share: the seeded report pool and
//! the arithmetic behind `loadgen.unattributed_frac`.

pub mod city;
pub mod cluster;
pub mod ingest;
pub mod stream;

use crate::gen::{self, Wire, World};
use crate::harness::CONNECTIONS;
use crate::metrics::Outcome;
use crate::trace::Tracer;
use std::time::Instant;
use trajshare_aggregate::Report;
use trajshare_model::TrajectorySet;

pub struct RunArgs<'a> {
    pub seed: u64,
    pub seconds: u64,
    pub tracer: &'a Tracer,
}

/// Full-mechanism trajectories a traced run times for the Table 3
/// stage columns (the `e2e-city` workload times 1 000, traced or not).
pub const SHARE_SAMPLES_TRACED: usize = 32;

/// Runs the named workload; `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        "ingest-uniform" => ingest::run(ingest::Shape::Uniform, args),
        "ingest-mixed" => ingest::run(ingest::Shape::Mixed, args),
        "ingest-single" => ingest::run(ingest::Shape::Single, args),
        "stream-publish" => stream::run(args),
        "cluster-routed" => cluster::run(args),
        "e2e-city" => city::run(args),
        _ => return None,
    })
}

/// The world plus the cycled pool: trajectories, their reports (index
/// paired), and one pre-encoded wire per connection over a contiguous
/// slice of the pool.
pub struct Pool {
    pub world: World,
    pub set: TrajectorySet,
    pub reports: Vec<Report>,
    pub wires: Vec<Wire>,
    /// City + trajectory generation wall time, ms.
    pub generate_ms: f64,
}

impl Pool {
    /// `n` trajectories with lengths in `lens`, reports stamped by
    /// `stamp(index, report)`, framed at up to `batch` reports.
    pub fn build_stamped(
        n: usize,
        lens: (u32, u32),
        batch: usize,
        seed: u64,
        stamp: impl Fn(usize, Report) -> Report,
    ) -> Pool {
        let world = gen::build_world();
        let t0 = Instant::now();
        let set = gen::gen_trajectories(&world, n, lens, seed);
        let generate_ms = world.city_ms + t0.elapsed().as_secs_f64() * 1e3;
        let reports: Vec<Report> = gen::report_pool(&world, &set, seed)
            .into_iter()
            .enumerate()
            .map(|(i, r)| stamp(i, r))
            .collect();
        let per = reports.len().div_ceil(CONNECTIONS);
        let wires = reports
            .chunks(per)
            .map(|s| Wire::encode(s, batch))
            .collect();
        Pool {
            world,
            set,
            reports,
            wires,
            generate_ms,
        }
    }

    pub fn build(n: usize, lens: (u32, u32), batch: usize, seed: u64) -> Pool {
        Self::build_stamped(n, lens, batch, seed, |_, r| r)
    }

    /// The report slice behind each connection's wire.
    pub fn slices(&self) -> impl Iterator<Item = &[Report]> {
        self.reports
            .chunks(self.reports.len().div_ceil(CONNECTIONS))
    }

    pub fn frames(&self) -> usize {
        self.wires.iter().map(|w| w.frames.len()).sum()
    }

    /// Bytes per report of one pass over every connection's wire.
    pub fn wire_bytes_per_report(&self) -> f64 {
        let bytes: usize = self.wires.iter().map(|w| w.bytes.len()).sum();
        let reports: u64 = self.wires.iter().map(Wire::reports).sum();
        bytes as f64 / reports.max(1) as f64
    }

    /// The facts every pool-driven run records about its inputs.
    pub fn describe(&self, out: &mut Outcome) {
        out.note(
            "wire_fingerprint",
            format!("{:016x}", gen::wire_fingerprint(&self.wires)),
        );
        out.note("pool.reports", self.reports.len());
        out.note("pool.frames", self.frames());
        out.set("datagen.generate_ms", self.generate_ms);
        out.set("core.mech_build_ms", self.world.mech_build_ms);
    }
}

/// `loadgen.unattributed_frac`: the share of the measured phase's CPU
/// time (wall × cores busy) that the replayed per-report layer costs
/// named in `layers` do not explain — syscalls, locks, scheduling, the
/// load generator itself.
pub fn unattributed(out: &mut Outcome, layers: &[Layer], reports: u64, phase_cpu_ns: u64) {
    let per_report: f64 = layers
        .iter()
        .map(|(name, to_ns)| out.metrics.get(*name).copied().unwrap_or(0.0) * to_ns)
        .sum();
    let explained = per_report * reports as f64 / phase_cpu_ns.max(1) as f64;
    out.set("loadgen.unattributed_frac", 1.0 - explained);
    let names: Vec<&str> = layers.iter().map(|l| l.0).collect();
    out.note("unattributed.layers", names.join(" + "));
}

/// A per-report layer cost line and the factor that turns it into ns.
pub type Layer = (&'static str, f64);

/// Server-side layers a `TSR4` frame crosses, per report.
pub const BATCHED_PATH: &[Layer] = &[
    ("aggregate.batch.decode_ns", 1.0),
    ("service.storage.wal_append_ns", 1.0),
    ("aggregate.ingest.columnar_ns", 1.0),
];
/// Server-side layers a `TSR3` frame crosses, per report.
pub const SINGLE_PATH: &[Layer] = &[
    ("aggregate.report.decode_ns", 1.0),
    ("service.storage.wal_append_ns", 1.0),
    ("aggregate.ingest.single_ns", 1.0),
];
