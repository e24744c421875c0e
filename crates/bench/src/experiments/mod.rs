//! One function per paper table/figure, shared by the thin binaries in
//! `src/bin/` and by `run_all`.

pub mod ablation;
pub mod aggregation;
pub mod attack;
pub mod fig10;
pub mod fig7;
pub mod fig89;
pub mod streaming;
pub mod table2;
pub mod table3;
pub mod table4;

use crate::report::Reported;
use trajshare_aggregate::{AllocationPolicy, EstimatorBackend};

/// Common experiment knobs (scaled-down defaults; see DESIGN.md §3).
#[derive(Debug, Clone)]
pub struct ExpParams {
    /// `|P|` for city scenarios.
    pub num_pois: usize,
    /// Trajectories per scenario.
    pub num_trajectories: usize,
    /// Privacy budget ε (paper default 5).
    pub epsilon: f64,
    /// Worker threads.
    pub workers: usize,
    /// Seed.
    pub seed: u64,
    /// Estimation backend for the streaming experiment
    /// (`--backend dense|sparse-w2`; the aggregation experiment runs
    /// both).
    pub backend: EstimatorBackend,
    /// Per-window budget allocation policy for the streaming experiment
    /// (`--policy uniform|adaptive`).
    pub policy: AllocationPolicy,
}

impl Default for ExpParams {
    fn default() -> Self {
        Self {
            num_pois: 400,
            num_trajectories: 60,
            epsilon: 5.0,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: 7,
            backend: EstimatorBackend::default(),
            policy: AllocationPolicy::Uniform,
        }
    }
}

impl ExpParams {
    /// Builds params from CLI args (`--pois`, `--trajectories`,
    /// `--epsilon`, `--workers`, `--seed`, `--backend`, `--policy`); an
    /// unknown `--backend` or `--policy` ends the process with a message
    /// naming the accepted values.
    pub fn from_args(args: &crate::Args) -> Self {
        Self::try_from_args(args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// [`ExpParams::from_args`], returning the refusal instead of exiting.
    fn try_from_args(args: &crate::Args) -> Result<Self, String> {
        let d = Self::default();
        let backends = EstimatorBackend::ALL.map(EstimatorBackend::name).join("|");
        Ok(Self {
            num_pois: args.get_or("pois", d.num_pois),
            num_trajectories: args.get_or("trajectories", d.num_trajectories),
            epsilon: args.get_or("epsilon", d.epsilon),
            workers: args.get_or("workers", d.workers),
            seed: args.get_or("seed", d.seed),
            backend: choice(args, "backend", EstimatorBackend::parse, &backends)?
                .unwrap_or(d.backend),
            policy: choice(args, "policy", AllocationPolicy::parse, "uniform|adaptive")?
                .unwrap_or(d.policy),
        })
    }
}

/// `--key`'s value through `parse`, `None` when the key is absent; a
/// value `parse` does not know is refused, naming the `accepted` ones.
fn choice<T>(
    args: &crate::Args,
    key: &str,
    parse: fn(&str) -> Option<T>,
    accepted: &str,
) -> Result<Option<T>, String> {
    args.get(key)
        .map(|v| parse(v).ok_or_else(|| format!("unknown --{key} `{v}` (accepted: {accepted})")))
        .transpose()
}

/// Prints and persists a batch of reports.
pub fn emit(reports: &[Reported]) {
    let dir = crate::report::results_dir();
    for r in reports {
        r.print();
        if let Err(e) = crate::report::write_json(r, &dir) {
            eprintln!("warning: could not write results JSON: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(argv: &[&str]) -> Result<ExpParams, String> {
        ExpParams::try_from_args(&crate::Args::parse(argv.iter().map(|a| a.to_string())))
    }

    #[test]
    fn unknown_backend_or_policy_is_refused_not_defaulted() {
        let p = params(&["--backend", "sparse-w2", "--policy", "adaptive"]).unwrap();
        assert_eq!(p.backend, EstimatorBackend::SparseW2);
        assert_eq!(p.policy.name(), "adaptive");
        assert_eq!(params(&[]).unwrap().backend, EstimatorBackend::Dense);
        let e = params(&["--backend", "blocked"]).unwrap_err();
        assert!(
            e.contains("`blocked`") && e.contains("dense|sparse-w2"),
            "{e}"
        );
        let e = params(&["--policy", "greedy"]).unwrap_err();
        assert!(e.contains("uniform|adaptive"), "{e}");
    }
}
