//! The metric names, units, directions and bounds — the names later
//! performance and simplicity claims are stated against, so they are
//! part of the deliverable. `BENCHMARK.json` at the repository root
//! repeats the `END_TO_END` and `PER_LAYER` tables; a unit test keeps
//! the two in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `--compare` (and the driver) calls it a regression;
    /// `None` for diagnostics that are reported but not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by every workload's untraced run, and gated.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("reports_per_s", "1/s", Higher, 0.25),
    gated("ack_p50_ms", "ms", Lower, 0.25),
    gated("recovery_s", "s", Lower, 0.25),
    gated("peak_rss_mb", "MiB", Lower, 0.25),
    gated("wire_bytes_per_report", "B", Lower, 0.02),
];

/// Metrics that exist on some workloads only. Every run of a listed
/// workload prints them and stores them in its result file; the gated
/// ones (the workload's own end-to-end numbers, from the untraced run)
/// are checked by `--repeat` and `--compare` with the bound shown. The
/// driver's contract wants every metric in `BENCHMARK.json` from every
/// workload, measured, so these are not listed there.
pub const SPECIFIC: &[(MetricDef, &[&str])] = &[
    (
        gated("publish_lag_p50_ms", "ms", Lower, 0.25),
        &["stream-publish"],
    ),
    (
        layer("publish_lag_p90_ms", "ms", Lower),
        &["stream-publish"],
    ),
    (
        gated("cluster_publish_p50_ms", "ms", Lower, 0.25),
        &["cluster-routed"],
    ),
    (gated("pipeline_s", "s", Lower, 0.15), &["e2e-city"]),
    (gated("share_p50_ms", "ms", Lower, 0.25), &["e2e-city"]),
    (gated("share_p99_ms", "ms", Lower, 0.25), &["e2e-city"]),
    (
        layer("loadgen.lateness_p99_ms", "ms", Lower),
        &["stream-publish"],
    ),
    (
        layer("service.server.decision_wait_ms", "ms", Lower),
        &["stream-publish"],
    ),
    (
        layer("service.server.estimate_call_ms", "ms", Lower),
        &["stream-publish"],
    ),
    (
        layer("service.server.windowed_counts_call_us", "us", Lower),
        &["stream-publish"],
    ),
    (
        layer("service.server.single_thread_reports_per_s", "1/s", Higher),
        &["ingest-uniform", "ingest-mixed", "ingest-single"],
    ),
    (
        layer("cluster.router.overhead_ns", "ns/report", Lower),
        &["cluster-routed"],
    ),
    (
        layer("cluster.coord.pull_ms", "ms", Lower),
        &["cluster-routed"],
    ),
    (
        layer("cluster.coord.tick_ms", "ms", Lower),
        &["cluster-routed"],
    ),
    (
        layer("cluster.coord.estimate_ms", "ms", Lower),
        &["cluster-routed"],
    ),
];

/// Single-layer diagnostics every workload's traced run measures. No
/// bound. The `service.server.*_ns` stage lines come from the server's
/// `IngestProfile`, which covers the `TSR4` path only: they read 0 on
/// `ingest-single`. The `cluster.router.*` counts read 0 without a
/// router.
pub const LAYERS: &[MetricDef] = &[
    layer("datagen.generate_ms", "ms", Lower),
    layer("core.mech_build_ms", "ms", Lower),
    layer("core.perturb_raw_us", "us", Lower),
    layer("mech.em_sample_ns", "ns", Lower),
    layer("core.share_perturb_us", "us", Lower),
    layer("core.share_prep_us", "us", Lower),
    layer("core.share_solve_us", "us", Lower),
    layer("core.share_other_us", "us", Lower),
    layer("core.crc_ns_per_kib", "ns/KiB", Lower),
    layer("core.kernels_merge_us", "us", Lower),
    layer("core.vio_writev_ns_per_frame", "ns/frame", Lower),
    layer("aggregate.report.encode_ns", "ns/report", Lower),
    layer("aggregate.report.decode_ns", "ns/report", Lower),
    layer("aggregate.batch.encode_ns", "ns/report", Lower),
    layer("aggregate.batch.decode_ns", "ns/report", Lower),
    layer("aggregate.batch.reports_per_frame", "reports/frame", Higher),
    layer("aggregate.batch.frames", "count", Lower),
    layer("aggregate.ingest.columnar_ns", "ns/report", Lower),
    layer("aggregate.ingest.single_ns", "ns/report", Lower),
    layer("aggregate.stream.ingest_batch_ns", "ns/report", Lower),
    layer("aggregate.stream.advance_us", "us", Lower),
    layer("aggregate.stream.merge_ring_us", "us", Lower),
    layer("aggregate.stream.ring_codec_ms", "ms", Lower),
    layer("aggregate.stream.ring_bytes", "B", Lower),
    layer("aggregate.budget.decision_us", "us", Lower),
    layer("aggregate.estimate.cold_ms", "ms", Lower),
    layer("aggregate.estimate.warm_ms", "ms", Lower),
    layer("aggregate.estimate.iter_us.dense", "us", Lower),
    layer("aggregate.estimate.iter_us.blocked", "us", Lower),
    layer("aggregate.estimate.iter_us.sparse-w2", "us", Lower),
    layer("aggregate.synthesize.us_per_traj", "us", Lower),
    layer("query.prq_ms", "ms", Lower),
    layer("query.hotspot_ms", "ms", Lower),
    layer("query.od_ms", "ms", Lower),
    layer("aggregate.snapshot.codec_ms", "ms", Lower),
    layer("aggregate.snapshot.bytes", "B", Lower),
    layer("aggregate.clusterproto.codec_ms", "ms", Lower),
    layer("aggregate.clusterproto.frame_bytes", "B", Lower),
    layer("service.storage.wal_append_ns", "ns/report", Lower),
    layer("service.storage.wal_bytes_per_report", "B", Lower),
    layer("service.storage.replay_reports_per_s", "1/s", Higher),
    layer("service.storage.recovered_reports", "count", Higher),
    layer("service.storage.torn_tails", "count", Lower),
    layer("service.server.decode_ns", "ns/report", Lower),
    layer("service.server.validate_ns", "ns/report", Lower),
    layer("service.server.wal_ns", "ns/report", Lower),
    layer("service.server.accumulate_ns", "ns/report", Lower),
    layer("service.server.ack_ns", "ns/report", Lower),
    layer("service.server.batches", "count", Lower),
    layer("service.server.refused", "count", Lower),
    layer("service.server.disconnected_protocol", "count", Lower),
    layer("service.server.io_errors", "count", Lower),
    layer("service.server.compactions", "count", Lower),
    layer("service.server.publications", "count", Higher),
    layer("service.server.budget_decisions", "count", Higher),
    layer("service.server.budget_refusals", "count", Lower),
    layer("service.server.counts_call_us", "us", Lower),
    layer("service.client.connect_us", "us", Lower),
    layer("service.client.eof_ack_ms", "ms", Lower),
    layer("cluster.hash.key_ns", "ns/report", Lower),
    layer("cluster.hash.skew", "ratio", Lower),
    layer("cluster.router.routed", "count", Higher),
    layer("cluster.router.failed", "count", Lower),
    layer("cluster.router.rerouted", "count", Lower),
    layer("cluster.router.worker_down", "count", Lower),
    layer("quality.prq_space", "%", Higher),
    layer("quality.prq_time", "%", Higher),
    layer("quality.prq_category", "%", Higher),
    layer("quality.hotspot_ahd", "h", Lower),
    layer("quality.od_l1", "ratio", Lower),
    layer("loadgen.trace_overhead_frac", "ratio", Lower),
    layer("loadgen.unattributed_frac", "ratio", Lower),
    // The ack tail, demoted from the gated set: see the README.
    layer("ack_p90_ms", "ms", Lower),
    layer("ack_p99_ms", "ms", Lower),
];

/// Every definition, for looking a unit up by name.
pub fn all_metrics() -> impl Iterator<Item = MetricDef> {
    END_TO_END
        .iter()
        .chain(LAYERS)
        .copied()
        .chain(SPECIFIC.iter().map(|(m, _)| *m))
}

/// Every gated metric with the workloads it is gated on (`None` = all).
pub fn gated_metrics() -> Vec<(MetricDef, Option<&'static [&'static str]>)> {
    END_TO_END
        .iter()
        .map(|m| (*m, None))
        .chain(
            SPECIFIC
                .iter()
                .filter(|(m, _)| m.bound.is_some())
                .map(|(m, w)| (*m, Some(*w))),
        )
        .collect()
}

/// The workload-specific layer lines of `workload`'s traced run.
pub fn specific_layers(workload: &str) -> impl Iterator<Item = MetricDef> + '_ {
    SPECIFIC
        .iter()
        .filter(move |(m, ws)| m.bound.is_none() && ws.contains(&workload))
        .map(|(m, _)| *m)
}

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "ingest-uniform",
        "closed loop, TSR4 frames of one trajectory length (~253 reports/frame): batching fully engaged, so CRC, counter kernels and WAL bandwidth do the work",
    ),
    (
        "ingest-mixed",
        "closed loop, same encoder on lengths 3-8 in arrival order (~1.2 reports/frame): per-frame overhead dominates and the traffic itself bypasses batching",
    ),
    (
        "ingest-single",
        "closed loop, TSR3 one report per frame, a new connection and one EOF ack per 20000-report upload: per-report decode, Aggregator::ingest, accept and EOF-ack paths",
    ),
    (
        "stream-publish",
        "open loop at a fixed rate with send-time stamps closing a window every 400 ms while a publisher estimates, synthesizes and queries: ingest idles, stream/budget/estimate/synthesize/query work",
    ),
    (
        "cluster-routed",
        "closed loop through routerd to two in-process workers with a coordinator tick and estimate at 1 Hz: router decode, hash, re-frame, uplink and TSCL pull/fold do the work",
    ),
    (
        "e2e-city",
        "batch job from live perturb_raw on two device threads through socket, WAL, cold estimate, synthesis and the section-6 queries: client and estimation code dominate, ingest idles",
    ),
];

/// One workload run's measurements and verdict.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted: reports sent, connections opened, oracle
    /// checks made.
    pub attempted: u64,
    /// Operations failed: reports sent but never acked, connections
    /// refused or dropped, oracle mismatches.
    pub failed: u64,
    /// `(check, passed, detail)` for every oracle.
    pub checks: Vec<(String, bool, String)>,
    /// Facts that are not metrics: wire CRC, percentile support, the
    /// kernels dispatched.
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, name: &str, value: impl ToString) {
        self.notes.insert(name.to_string(), value.to_string());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Records an oracle verdict: one attempted operation, and one
    /// failed operation when it did not hold.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// [`Outcome::check`] that `got == want`, showing both on mismatch.
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, got: T, want: T) {
        let ok = got == want;
        let detail = if ok {
            format!("{got:?}")
        } else {
            format!("got {got:?}, want {want:?}")
        };
        self.check(name, ok, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn a_failed_check_is_one_failed_operation() {
        let mut o = Outcome::default();
        o.eq("acked", 5u64, 5);
        o.eq("counts", 1u64, 2);
        o.check("ring", true, "ok");
        assert_eq!((o.attempted, o.failed, o.correct()), (3, 1, false));
        assert!(o.checks[1].2.contains("want 2"));
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in all_metrics() {
            assert!(name_ok(m.name), "bad name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            if let Some(b) = m.bound {
                assert!(b > 0.0 && b <= 0.25, "bound of {} out of range", m.name);
            }
        }
        for (w, why) in WORKLOADS {
            assert!(
                name_ok(w) && seen.insert(w),
                "bad or duplicate workload {w}"
            );
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why of {w} too long"
            );
        }
        assert!(END_TO_END.len() <= 16 && LAYERS.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let rows = |key: &str| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(json::Value::as_arr)
                .unwrap()
                .iter()
                .map(|row| {
                    row.as_obj()
                        .unwrap()
                        .iter()
                        .map(|(k, v)| match v {
                            json::Value::Num(n) => format!("{k}={n}"),
                            json::Value::Str(text) => format!("{k}={text}"),
                            other => panic!("unexpected value {other:?} under {k}"),
                        })
                        .collect()
                })
                .collect()
        };
        let want_e2e: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| {
                vec![
                    format!("better={}", m.better.name()),
                    format!("bound={}", m.bound.unwrap()),
                    format!("name={}", m.name),
                    format!("unit={}", m.unit),
                ]
            })
            .collect();
        assert_eq!(rows("end_to_end"), want_e2e);
        let want_layers: Vec<Vec<String>> = LAYERS
            .iter()
            .map(|m| {
                vec![
                    format!("better={}", m.better.name()),
                    format!("name={}", m.name),
                    format!("unit={}", m.unit),
                ]
            })
            .collect();
        assert_eq!(rows("per_layer"), want_layers);
        let want_workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|(n, why)| vec![format!("name={n}"), format!("why={why}")])
            .collect();
        assert_eq!(rows("workloads"), want_workloads);
        assert_eq!(
            doc.get("run_seconds").and_then(json::Value::as_f64),
            Some(crate::RUN_SECONDS as f64)
        );
    }
}
