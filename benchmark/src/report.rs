//! Running workloads and reporting on them: the single-workload run the
//! driver calls, the full suite (one child process per workload), the
//! `--repeat` spread check and the `--compare` regression gate.

use crate::json::{self, Value};
use crate::metrics::{self, Better, MetricDef, Outcome, END_TO_END, WORKLOADS};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, RunArgs};
use crate::Args;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The text of `BENCHMARK.json`, generated from the tables in
/// [`crate::metrics`] (`trajbench --print-benchmark-json`).
pub fn benchmark_json() -> String {
    let quote = |s: &str| Value::str(s).encode();
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let rows = |lines: Vec<String>| lines.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|(n, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(n), quote(why)))
            .collect(),
    );
    let e2e = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.name()),
                    m.bound.expect("end-to-end metrics are gated")
                )
            })
            .collect(),
    );
    let layers = rows(
        metrics::LAYERS
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.name())
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{e2e}\n  ],\n  \
         \"per_layer\": [\n{layers}\n  ]\n}}",
        command.map(quote).join(", "),
        crate::RUN_SECONDS,
    )
}

fn result_path(workload: &str, trace: bool) -> PathBuf {
    sys::out_dir().join(format!("result-{workload}-t{}.json", u8::from(trace)))
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The driver contract's result object for one run.
fn contract_line(outcome: &Outcome, names: &[MetricDef]) -> String {
    let metrics = names.iter().map(|m| {
        let value = finite(outcome.metrics.get(m.name).copied().unwrap_or(0.0));
        (
            m.name,
            Value::obj([("value", Value::Num(value)), ("unit", Value::str(m.unit))]),
        )
    });
    Value::obj([
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
    .encode()
}

fn unit_of(name: &str) -> &'static str {
    metrics::all_metrics()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// Runs one workload in this process. Prints every metric by name with
/// its unit, the oracle verdicts, and — last — the contract's JSON
/// line; also leaves the full result under `benchmark/out/`.
pub fn run_one(workload: &str, args: &Args) -> bool {
    let tracer = Tracer::new(args.trace);
    let t0 = Instant::now();
    let run = RunArgs {
        seed: args.seed,
        seconds: args.seconds,
        tracer: &tracer,
    };
    let Some(mut outcome) = workloads::run(workload, &run) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!("unknown workload {workload}; known: {}", names.join(", "));
        return false;
    };
    outcome.set("peak_rss_mb", sys::peak_rss_mib());
    let wall_s = t0.elapsed().as_secs_f64();

    // The traced run's rate against the last untraced run of the same
    // workload is what tracing costs.
    let last_untraced = result_path(workload, false);
    if args.trace {
        let untraced_rate = std::fs::read_to_string(&last_untraced)
            .ok()
            .and_then(|text| json::parse(&text).ok())
            .and_then(|doc| doc.get("metrics")?.get("reports_per_s")?.as_f64());
        let traced_rate = outcome.metrics.get("reports_per_s").copied().unwrap_or(0.0);
        let overhead = match untraced_rate {
            Some(base) if base > 0.0 => 1.0 - traced_rate / base,
            _ => 0.0,
        };
        outcome.set("loadgen.trace_overhead_frac", overhead);
        let trace_path = sys::out_dir().join(format!("trace-{workload}.json"));
        if let Err(e) = std::fs::write(&trace_path, tracer.to_json(workload).encode()) {
            eprintln!("cannot write {}: {e}", trace_path.display());
        }
    }

    println!(
        "workload {workload}  seed {}  seconds {}  trace {}  wall {wall_s:.2} s",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value) in &outcome.metrics {
        println!("  metric {name:<46} {value:>18.6} {}", unit_of(name));
    }
    for (name, value) in &outcome.notes {
        println!("  note   {name:<46} {value}");
    }
    for (name, ok, detail) in &outcome.checks {
        println!(
            "  check  {} {name} ({detail})",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    println!(
        "  operations attempted {} failed {}",
        outcome.attempted, outcome.failed
    );

    let full = Value::obj([
        ("workload", Value::str(workload)),
        ("trace", Value::Bool(args.trace)),
        ("seconds", Value::Num(args.seconds as f64)),
        ("wall_s", Value::Num(wall_s)),
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("environment", sys::environment(args.seed)),
        (
            "metrics",
            Value::obj(
                outcome
                    .metrics
                    .iter()
                    .map(|(k, v)| (k.as_str(), Value::Num(finite(*v)))),
            ),
        ),
        (
            "notes",
            Value::obj(
                outcome
                    .notes
                    .iter()
                    .map(|(k, v)| (k.as_str(), Value::str(v.as_str()))),
            ),
        ),
        (
            "failed_checks",
            Value::Arr(
                outcome
                    .checks
                    .iter()
                    .filter(|c| !c.1)
                    .map(|c| Value::str(format!("{}: {}", c.0, c.2)))
                    .collect(),
            ),
        ),
    ]);
    let path = result_path(workload, args.trace);
    if let Err(e) =
        std::fs::create_dir_all(sys::out_dir()).and_then(|()| std::fs::write(&path, full.encode()))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }

    let names = if args.trace {
        metrics::LAYERS
    } else {
        END_TO_END
    };
    println!("{}", contract_line(&outcome, names));
    outcome.correct()
}

/// One workload's result as the suite keeps it.
struct ChildResult {
    correct: bool,
    wall_s: f64,
    metrics: BTreeMap<String, f64>,
    doc: Value,
}

/// Runs one workload in a child process of this same binary and reads
/// back the result file it leaves.
fn run_child(workload: &str, args: &Args, trace: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let status = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .ok()?;
    let doc = json::parse(&std::fs::read_to_string(result_path(workload, trace)).ok()?).ok()?;
    let metrics = doc
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    Some(ChildResult {
        correct: status.success() && doc.get("correct") == Some(&Value::Bool(true)),
        wall_s: doc.get("wall_s")?.as_f64()?,
        metrics,
        doc,
    })
}

fn applies(def_workloads: Option<&[&str]>, workload: &str) -> bool {
    def_workloads.is_none_or(|ws| ws.contains(&workload))
}

/// Spread of a metric over the sets of a `--repeat` run, as a share of
/// its median: the driver's quartile distance from four sets up, the
/// full range below that (two or three values have no quartiles worth
/// the name).
fn spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        stats::relative_spread(values)
    } else {
        let med = stats::median(values);
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        if med == 0.0 {
            0.0
        } else {
            (hi - lo) / med.abs()
        }
    }
}

/// The full suite: every workload in its own child process, `repeat`
/// times; prints each set, then (from two sets up) every gated
/// metric's spread against its bound. False when any run was incorrect
/// or any spread exceeded its bound.
pub fn run_suite(args: &Args) -> bool {
    let env = sys::environment(args.seed);
    println!("environment {}", env.encode());
    let mut ok = true;
    let mut sets: Vec<BTreeMap<String, BTreeMap<String, f64>>> = Vec::new();
    let mut docs: Vec<Value> = Vec::new();
    for set in 0..args.repeat {
        let mut this_set = BTreeMap::new();
        for (workload, _) in WORKLOADS {
            let traces: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &trace in traces {
                let Some(result) = run_child(workload, args, trace) else {
                    println!("set {set} {workload}: run failed without a result");
                    ok = false;
                    continue;
                };
                ok &= result.correct;
                println!(
                    "set {set} {workload} trace {} wall {:.1} s {}",
                    u8::from(trace),
                    result.wall_s,
                    if result.correct {
                        "correct"
                    } else {
                        "INCORRECT"
                    }
                );
                let shown: Vec<MetricDef> = if trace {
                    metrics::LAYERS
                        .iter()
                        .copied()
                        .chain(metrics::specific_layers(workload))
                        .collect()
                } else {
                    metrics::gated_metrics()
                        .into_iter()
                        .filter(|(_, ws)| applies(*ws, workload))
                        .map(|(m, _)| m)
                        .collect()
                };
                for m in shown {
                    if let Some(v) = result.metrics.get(m.name) {
                        println!("    {:<46} {v:>18.6} {}", m.name, m.unit);
                    }
                }
                if !trace {
                    this_set.insert(workload.to_string(), result.metrics);
                }
                docs.push(result.doc);
            }
        }
        sets.push(this_set);
    }

    if sets.len() >= 2 {
        println!("repeatability over {} sets (spread / bound):", sets.len());
        for (workload, _) in WORKLOADS {
            for (m, ws) in metrics::gated_metrics() {
                if !applies(ws, workload) {
                    continue;
                }
                let values: Vec<f64> = sets
                    .iter()
                    .filter_map(|s| s.get(*workload)?.get(m.name).copied())
                    .collect();
                if values.len() < 2 {
                    continue;
                }
                let (s, bound) = (spread(&values), m.bound.expect("gated"));
                let verdict = if s <= bound { "ok" } else { "EXCEEDED" };
                println!(
                    "    {workload:<16} {:<24} {s:>8.4} / {bound:<5} {verdict}",
                    m.name
                );
                // Set-up time is reported but, as in the driver, its
                // spread does not fail the run.
                ok &= s <= bound || m.name == "setup_s";
            }
        }
    }

    if let Some(path) = &args.out {
        let sets_json = Value::Arr(
            sets.iter()
                .map(|set| {
                    Value::obj(set.iter().map(|(w, ms)| {
                        (
                            w.as_str(),
                            Value::obj(ms.iter().map(|(k, v)| (k.as_str(), Value::Num(*v)))),
                        )
                    }))
                })
                .collect(),
        );
        let doc = Value::obj([
            ("environment", env),
            ("seconds", Value::Num(args.seconds as f64)),
            ("sets", sets_json),
            ("runs", Value::Arr(docs)),
        ]);
        if let Err(e) = std::fs::write(path, doc.encode()) {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

/// Per workload and metric, the median over a result file's sets.
fn medians(path: &Path) -> Result<BTreeMap<(String, String), f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let sets = doc
        .get("sets")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no \"sets\" (write one with --out)", path.display()))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for set in sets {
        for (workload, ms) in set.as_obj().into_iter().flatten() {
            for (metric, v) in ms.as_obj().into_iter().flatten() {
                if let Some(v) = v.as_f64() {
                    values
                        .entry((workload.clone(), metric.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(values
        .into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect())
}

/// How much worse `candidate` is than `base`, as a share of `base`
/// (negative when better).
fn worsening(better: Better, base: f64, candidate: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

/// `--compare BASE CANDIDATE`: every gated metric × workload, candidate
/// median against baseline median; false when any worsened by more than
/// its bound.
pub fn compare_files(base: &Path, candidate: &Path) -> bool {
    let (a, b) = match (medians(base), medians(candidate)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return false;
        }
    };
    let mut ok = true;
    println!(
        "{:<16} {:<24} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "base", "candidate", "worse by", "bound"
    );
    for (workload, _) in WORKLOADS {
        for (m, ws) in metrics::gated_metrics() {
            if !applies(ws, workload) {
                continue;
            }
            let key = (workload.to_string(), m.name.to_string());
            let (Some(&x), Some(&y)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<16} {:<24} missing on one side", m.name);
                ok = false;
                continue;
            };
            let (w, bound) = (worsening(m.better, x, y), m.bound.expect("gated"));
            let verdict = if w <= bound { "" } else { "  REGRESSION" };
            println!(
                "{workload:<16} {:<24} {x:>16.4} {y:>16.4} {:>8.2}% {:>5.0}%{verdict}",
                m.name,
                w * 100.0,
                bound * 100.0
            );
            ok &= w <= bound;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn spread_uses_range_for_few_sets_and_quartiles_for_many() {
        assert!((spread(&[100.0, 104.0]) - 4.0 / 102.0).abs() < 1e-12);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contract_line_has_exactly_the_named_metrics() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.81);
        o.set("not_listed", 3.0);
        o.attempted = 10;
        let line = contract_line(&o, &END_TO_END[..2]);
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let ms = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms["setup_s"].get("value").unwrap().as_f64(), Some(0.81));
        assert_eq!(ms["setup_s"].get("unit"), Some(&Value::str("s")));
        assert_eq!(
            ms["reports_per_s"].get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert!(benchmark_json().contains("\"run_seconds\": 10"));
        assert!(json::parse(&benchmark_json()).is_ok());
    }
}
