//! Evaluation harness shared by the table/figure binaries (§6–7).
//!
//! Provides the three §6.1 dataset scenarios, the five §5.9/§5.4 methods,
//! parallel per-trajectory perturbation, and table formatting / JSON result
//! persistence. Every binary in `src/bin/` regenerates one table or figure
//! of the paper; `run_all` chains them.

pub mod args;
pub mod report;
pub mod runner;
pub mod scenario;

pub use args::Args;
pub use report::Reported;
pub use runner::{build_methods, run_method, MethodRun};
pub use scenario::{build_scenario, Scenario, ScenarioConfig};

pub mod experiments;
