//! `trajbench` — the repository's one benchmark. See `README.md` next
//! to the manifest for the metric definitions and how to run it.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   in this process and prints its result; the last line of standard
//!   output is the driver contract's JSON object.
//! * Without `--workload`, every workload runs in its own child
//!   process (so `peak_rss_mb` is per workload), `--repeat K` runs K
//!   such sets and checks each metric's spread against its bound, and
//!   `--compare A.json B.json` gates a candidate set against a
//!   baseline set.

mod acks;
mod gen;
mod harness;
mod json;
mod load;
mod metrics;
mod oracle;
mod replay;
mod report;
mod sched;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Length of one measured phase, s — `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeat: usize,
    pub compare: Option<(PathBuf, PathBuf)>,
    pub out: Option<PathBuf>,
    pub print_benchmark_json: bool,
}

const USAGE: &str = "usage: trajbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--repeat K] [--out SET.json] [--compare BASE.json CANDIDATE.json]
                 [--print-benchmark-json]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        repeat: 1,
        compare: None,
        out: None,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, &flag)?),
            "--seed" => {
                args.seed = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                args.repeat = value(&mut it, &flag)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut it, &flag)?)),
            "--compare" => {
                let base = PathBuf::from(value(&mut it, &flag)?);
                let candidate = PathBuf::from(value(&mut it, &flag)?);
                args.compare = Some((base, candidate));
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.seconds == 0 || args.seconds > 60 {
        return Err("--seconds must be between 1 and 60".into());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(64);
        }
    };
    let ok = if args.print_benchmark_json {
        println!("{}", report::benchmark_json());
        true
    } else if let Some((base, candidate)) = &args.compare {
        report::compare_files(base, candidate)
    } else if let Some(workload) = &args.workload {
        report::run_one(workload, &args)
    } else {
        report::run_suite(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
