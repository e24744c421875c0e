//! Mechanism configuration (§6.2 experimental settings as defaults).

use serde::{Deserialize, Serialize};

/// Which dimension a merge pass coarsens (§5.3 STC region merging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeDimension {
    /// Coarsen the spatial grid one level (4×4 → 2×2 → 1×1).
    Space,
    /// Double the time-interval width (1 h → 2 h → 4 h ...).
    Time,
    /// Lift categories one hierarchy level (leaf → mid → root).
    Category,
}

/// How to solve the region-level reconstruction (§5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReconstructionSolver {
    /// Exact dynamic programming over the bigram lattice (default; the
    /// LP relaxation of Eq. 10–14 is integral, so this is equivalent).
    #[default]
    Viterbi,
    /// The paper-faithful ILP via our simplex + branch & bound.
    Ilp,
}

/// Full configuration of the n-gram mechanism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MechanismConfig {
    /// Privacy budget ε (§6.2 default: 5, "in line with real-world LDP
    /// deployments").
    pub epsilon: f64,
    /// n-gram length (§6.2 default: 2; §5.8 recommends bigrams).
    pub n: usize,
    /// Finest spatial grid granularity `g_s` (cells per side; default 4).
    pub gs: u32,
    /// STC time-interval width in minutes (default 60 = hourly).
    pub time_interval_min: u32,
    /// Minimum POIs per STC region, κ (default 10).
    pub kappa: usize,
    /// Merge passes in order (§6.2 default: spatial first, then time, then
    /// category).
    pub merge_order: Vec<MergeDimension>,
    /// Popularity guard: regions whose most popular member is in the top
    /// `popularity_guard_quantile` of all POIs are never merged (Figure 2c).
    /// `None` disables the guard.
    pub popularity_guard_quantile: Option<f64>,
    /// Rejection-sampling cap γ for POI-level reconstruction (§5.6 default
    /// 50 000).
    pub gamma: usize,
    /// Reconstruction solver.
    pub solver: ReconstructionSolver,
}

impl Default for MechanismConfig {
    fn default() -> Self {
        Self {
            epsilon: 5.0,
            n: 2,
            gs: 4,
            time_interval_min: 60,
            kappa: 10,
            merge_order: vec![
                MergeDimension::Space,
                MergeDimension::Space,
                MergeDimension::Time,
                MergeDimension::Time,
                MergeDimension::Category,
                MergeDimension::Category,
            ],
            popularity_guard_quantile: Some(0.99),
            gamma: 50_000,
            solver: ReconstructionSolver::Viterbi,
        }
    }
}

impl MechanismConfig {
    /// Validates parameter ranges; call before building a mechanism.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(format!("epsilon must be positive, got {}", self.epsilon));
        }
        if !(1..=3).contains(&self.n) {
            return Err(format!(
                "n must be 1, 2 or 3 (got {}); §5.8 recommends 2",
                self.n
            ));
        }
        if self.gs == 0 {
            return Err("gs must be positive".into());
        }
        if self.time_interval_min == 0 || 1440 % self.time_interval_min != 0 {
            return Err(format!(
                "time_interval_min {} must divide 1440",
                self.time_interval_min
            ));
        }
        if self.kappa == 0 {
            return Err("kappa must be at least 1".into());
        }
        if let Some(q) = self.popularity_guard_quantile {
            if !(0.0..=1.0).contains(&q) {
                return Err(format!("popularity_guard_quantile {q} must be in [0, 1]"));
            }
        }
        if self.gamma == 0 {
            return Err("gamma must be positive".into());
        }
        Ok(())
    }

    /// Builder-style setter for ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builder-style setter for n.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = MechanismConfig::default();
        assert_eq!(c.epsilon, 5.0);
        assert_eq!(c.n, 2);
        assert_eq!(c.gs, 4);
        assert_eq!(c.time_interval_min, 60);
        assert_eq!(c.kappa, 10);
        assert_eq!(c.gamma, 50_000);
        assert!(c.validate().is_ok());
        // Default merge order: space first, then time, then category (§6.2).
        assert_eq!(c.merge_order[0], MergeDimension::Space);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(MechanismConfig::default()
            .with_epsilon(0.0)
            .validate()
            .is_err());
        assert!(MechanismConfig::default().with_n(4).validate().is_err());
        assert!(MechanismConfig::default().with_n(0).validate().is_err());
        let mut c = MechanismConfig::default();
        c.time_interval_min = 7;
        assert!(c.validate().is_err());
        let mut c = MechanismConfig::default();
        c.kappa = 0;
        assert!(c.validate().is_err());
        let mut c = MechanismConfig::default();
        c.popularity_guard_quantile = Some(1.5);
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_chain() {
        let c = MechanismConfig::default().with_epsilon(1.0).with_n(3);
        assert_eq!(c.epsilon, 1.0);
        assert_eq!(c.n, 3);
        assert!(c.validate().is_ok());
    }
}
