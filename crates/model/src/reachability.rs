//! The reachability constraint (Definition 4.1).
//!
//! A POI `p_b` is reachable from `p_a` over a gap of `Δt` minutes when
//! `d_s(p_a, p_b) ≤ θ(Δt)` with `θ(Δt) = speed × Δt`. The constraint can be
//! disabled (θ = ∞), matching the "Inf" travel-speed setting of §7.2.4.

use crate::dataset::Dataset;
use crate::poi::PoiId;
use crate::time::Timestep;
use serde::{Deserialize, Serialize};

/// Assumed travel speed, or unconstrained.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TravelSpeed {
    /// Kilometers per hour; must be positive.
    Kmh(f64),
    /// θ = ∞ — every POI pair is reachable.
    Unlimited,
}

impl TravelSpeed {
    /// Maximum distance coverable in `minutes`, in meters.
    #[inline]
    pub fn threshold_m(&self, minutes: f64) -> f64 {
        match *self {
            TravelSpeed::Kmh(kmh) => kmh * 1000.0 / 60.0 * minutes,
            TravelSpeed::Unlimited => f64::INFINITY,
        }
    }
}

/// Reachability oracle over a dataset.
#[derive(Debug, Clone, Copy)]
pub struct ReachabilityOracle<'a> {
    dataset: &'a Dataset,
    speed: TravelSpeed,
}

impl<'a> ReachabilityOracle<'a> {
    /// Builds the oracle from the dataset's configured speed.
    pub fn new(dataset: &'a Dataset) -> Self {
        let speed = match dataset.speed_kmh {
            Some(kmh) => TravelSpeed::Kmh(kmh),
            None => TravelSpeed::Unlimited,
        };
        Self { dataset, speed }
    }

    /// The configured speed.
    #[inline]
    pub fn speed(&self) -> TravelSpeed {
        self.speed
    }

    /// θ(Δt) in meters for a gap in minutes.
    #[inline]
    pub fn threshold_m(&self, minutes: f64) -> f64 {
        self.speed.threshold_m(minutes)
    }

    /// Definition 4.1: whether `to` is reachable from `from` in `minutes`.
    #[inline]
    pub fn is_reachable_m(&self, from: PoiId, to: PoiId, minutes: f64) -> bool {
        match self.speed {
            TravelSpeed::Unlimited => true,
            _ => self.dataset.poi_distance_m(from, to) <= self.threshold_m(minutes),
        }
    }

    /// Reachability between two trajectory points (uses the time-domain
    /// gap between their timesteps).
    #[inline]
    pub fn is_reachable(&self, from: (PoiId, Timestep), to: (PoiId, Timestep)) -> bool {
        let minutes = self.dataset.time.gap_minutes(from.1, to.1) as f64;
        self.is_reachable_m(from.0, to.0, minutes)
    }

    /// All POIs reachable from `from` within `minutes` (including itself).
    pub fn reachable_set(&self, from: PoiId, minutes: f64) -> Vec<PoiId> {
        match self.speed {
            TravelSpeed::Unlimited => self.dataset.pois.ids().collect(),
            _ => {
                let r = self.threshold_m(minutes);
                self.dataset.pois.within_radius(
                    self.dataset.pois.get(from).location,
                    r,
                    self.dataset.metric,
                )
            }
        }
    }

    /// Fraction of POI pairs reachable within one timestep — the paper's
    /// `μ` (§5.1). Computed by sampling when the table is large.
    pub fn mu_estimate(&self, max_pairs: usize) -> f64 {
        let n = self.dataset.pois.len();
        let gt = self.dataset.time.gt_minutes() as f64;
        if matches!(self.speed, TravelSpeed::Unlimited) {
            return 1.0;
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        let stride = ((n * n) / max_pairs.max(1)).max(1);
        let mut k = 0usize;
        for i in 0..n {
            for j in 0..n {
                if k.is_multiple_of(stride) {
                    total += 1;
                    if self.is_reachable_m(PoiId(i as u32), PoiId(j as u32), gt) {
                        hits += 1;
                    }
                }
                k += 1;
            }
        }
        hits as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::poi::Poi;
    use crate::time::TimeDomain;
    use trajshare_geo::{DistanceMetric, GeoPoint};
    use trajshare_hierarchy::builders::campus;

    /// POIs spaced 500 m apart along a line.
    fn line_dataset(speed: Option<f64>) -> Dataset {
        let origin = GeoPoint::new(40.7, -74.0);
        let h = campus();
        let leaf = h.leaves()[0];
        let pois: Vec<Poi> = (0..10)
            .map(|i| {
                Poi::new(
                    PoiId(i),
                    format!("p{i}"),
                    origin.offset_m(i as f64 * 500.0, 0.0),
                    leaf,
                )
            })
            .collect();
        Dataset::new(
            pois,
            h,
            TimeDomain::new(10),
            speed,
            DistanceMetric::Haversine,
        )
    }

    #[test]
    fn threshold_scales_linearly() {
        let s = TravelSpeed::Kmh(8.0);
        assert!((s.threshold_m(60.0) - 8000.0).abs() < 1e-9);
        assert!((s.threshold_m(10.0) - 8000.0 / 6.0).abs() < 1e-9);
        assert_eq!(TravelSpeed::Unlimited.threshold_m(1.0), f64::INFINITY);
    }

    #[test]
    fn reachability_with_8kmh_over_10min_is_1333m() {
        // 8 km/h over 10 min = 1333 m -> neighbors at 500 m and 1000 m are
        // reachable, 1500 m is not.
        let ds = line_dataset(Some(8.0));
        let o = ReachabilityOracle::new(&ds);
        assert!(o.is_reachable_m(PoiId(0), PoiId(1), 10.0));
        assert!(o.is_reachable_m(PoiId(0), PoiId(2), 10.0));
        assert!(!o.is_reachable_m(PoiId(0), PoiId(3), 10.0));
    }

    #[test]
    fn unlimited_speed_reaches_everything() {
        let ds = line_dataset(None);
        let o = ReachabilityOracle::new(&ds);
        assert!(o.is_reachable_m(PoiId(0), PoiId(9), 0.0));
        assert_eq!(o.reachable_set(PoiId(0), 0.0).len(), 10);
        assert_eq!(o.mu_estimate(1000), 1.0);
    }

    #[test]
    fn reachable_set_matches_definition() {
        let ds = line_dataset(Some(8.0));
        let o = ReachabilityOracle::new(&ds);
        let mut set = o.reachable_set(PoiId(5), 10.0);
        set.sort();
        // 1333 m covers indices 3..=7 around 5.
        assert_eq!(set, vec![PoiId(3), PoiId(4), PoiId(5), PoiId(6), PoiId(7)]);
    }

    #[test]
    fn timestep_based_reachability() {
        let ds = line_dataset(Some(8.0));
        let o = ReachabilityOracle::new(&ds);
        use crate::time::Timestep;
        // Gap of 3 timesteps = 30 min -> 4 km reach; POI 0 -> POI 8 (4 km) ok.
        assert!(o.is_reachable((PoiId(0), Timestep(0)), (PoiId(8), Timestep(3))));
        // Gap of 1 timestep -> only 1333 m.
        assert!(!o.is_reachable((PoiId(0), Timestep(0)), (PoiId(8), Timestep(1))));
    }

    #[test]
    fn mu_estimate_between_zero_and_one() {
        let ds = line_dataset(Some(8.0));
        let o = ReachabilityOracle::new(&ds);
        let mu = o.mu_estimate(10_000);
        assert!(mu > 0.0 && mu < 1.0, "mu = {mu}");
    }
}
