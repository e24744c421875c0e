//! The population-scale aggregation scenario: simulate N users uploading
//! stage-1 NGram reports, aggregate + estimate + synthesize with
//! `trajshare_aggregate`, and score the published synthetic set against
//! ground truth next to the per-user baselines — the server-side
//! counterpart of the per-user tables.
//!
//! Runs on **all three** dataset families (Taxi-Foursquare, Safegraph,
//! and the fixed-size Campus — closing the cross-dataset roadmap item)
//! and publishes one synthetic row per estimator backend (`dense`
//! product-channel IBU vs the `sparse-w2` feasibility-normalized IBU),
//! so the backend comparison is not tied to a single hierarchy.

use super::ExpParams;
use crate::report::Reported;
use crate::runner::run_method;
use crate::scenario::{build_scenario, Scenario, ScenarioConfig};
use std::time::Instant;
use trajshare_aggregate::{
    aggregate_and_synthesize_matching_with, collect_reports, score_paired, EstimatorBackend,
    EvalConfig, FrequencyEstimator, UtilityScores,
};
use trajshare_core::baselines::IndependentMechanism;
use trajshare_core::{MechanismConfig, NGramMechanism};

fn fmt_scores(s: &UtilityScores) -> Vec<String> {
    vec![
        format!("{:.1}", s.prq_space),
        format!("{:.1}", s.prq_time),
        format!("{:.1}", s.prq_category),
        s.hotspot_ahd.map_or("—".into(), |v| format!("{v:.2}")),
        format!("{:.3}", s.od_l1),
    ]
}

/// Runs the aggregation-synthesis experiment on every §6.1 scenario
/// (Taxi-Foursquare, Safegraph, Campus): one synthetic row per estimator
/// backend, one row per per-user baseline, per dataset.
pub fn run(params: &ExpParams) -> Reported {
    let eval = EvalConfig::default();
    let mech_cfg = MechanismConfig::default().with_epsilon(params.epsilon);
    let mut rows = Vec::new();
    let mut settings_bits = Vec::new();

    for scenario in Scenario::all() {
        let cfg = ScenarioConfig {
            num_pois: params.num_pois,
            num_trajectories: params.num_trajectories,
            traj_len: Some(3),
            seed: params.seed,
            ..Default::default()
        };
        let (dataset, real) = build_scenario(scenario, &cfg);
        let mech = NGramMechanism::build(&dataset, &mech_cfg);
        let reports = collect_reports(&mech, &real, params.seed ^ 0xA66);
        let bytes: usize = reports.iter().map(|r| r.encoded_len()).sum();
        settings_bits.push(format!(
            "{}: {} users, |R| = {}, |W₂| = {}, {} report bytes",
            scenario.name(),
            real.len(),
            mech.regions().len(),
            mech.graph().num_bigrams(),
            bytes,
        ));

        // Always compare the dense reference against the W₂-aware model.
        for backend in EstimatorBackend::ALL {
            let t0 = Instant::now();
            let outcome = aggregate_and_synthesize_matching_with(
                &dataset,
                &mech,
                &reports,
                params.seed ^ 0x517,
                FrequencyEstimator::ibu(backend),
            );
            let fit_s = t0.elapsed().as_secs_f64();
            let mut row = vec![
                scenario.name().to_string(),
                format!("Synthetic (IBU {backend})"),
            ];
            row.extend(fmt_scores(&score_paired(
                &dataset,
                &real,
                outcome.synthetic.all(),
                &eval,
            )));
            row.push(format!("{fit_s:.2}"));
            rows.push(row);
        }
        for (name, baseline) in [
            (
                "IndNoReach",
                IndependentMechanism::build(&dataset, params.epsilon, false),
            ),
            (
                "IndReach",
                IndependentMechanism::build(&dataset, params.epsilon, true),
            ),
        ] {
            let run = run_method(&baseline, &real, params.seed ^ 0xB0, params.workers);
            let mut row = vec![scenario.name().to_string(), name.to_string()];
            row.extend(fmt_scores(&score_paired(
                &dataset,
                &real,
                &run.perturbed,
                &eval,
            )));
            row.push("—".into());
            rows.push(row);
        }
    }

    Reported {
        id: "aggregation_synthesis".into(),
        settings: format!("ε = {}; {}", params.epsilon, settings_bits.join("; ")),
        headers: vec![
            "Dataset".into(),
            "Method".into(),
            "PRQ space %".into(),
            "PRQ time %".into(),
            "PRQ category %".into(),
            "Hotspot AHD (h)".into(),
            "OD L1".into(),
            "fit+synthesis s".into(),
        ],
        rows,
    }
}
