//! Synthetic city generator.
//!
//! Produces a [`Dataset`] with clustered POI placement (cities are not
//! uniform), Zipf-distributed popularity (check-in counts are heavy-
//! tailed), leaf categories from a supplied hierarchy, and per-root-category
//! opening hours — exactly the external knowledge the paper assigns
//! manually in §6.1.1 ("we manually specify opening hours for each broad
//! category").

use crate::distributions::Zipf;
use rand::Rng;
use trajshare_geo::{DistanceMetric, GeoPoint};
use trajshare_hierarchy::{CategoryHierarchy, CategoryId};
use trajshare_model::{Dataset, OpeningHours, Poi, PoiId, TimeDomain};

/// Configuration of the synthetic city.
#[derive(Debug, Clone)]
pub struct CityConfig {
    /// `|P|` — number of POIs (§6.2 default 2 000).
    pub num_pois: usize,
    /// Number of density clusters (neighbourhoods).
    pub num_clusters: usize,
    /// Side length of the (square) city, meters.
    pub extent_m: f64,
    /// Zipf exponent for POI popularity.
    pub popularity_s: f64,
    /// Time granularity `g_t`, minutes (§6.2 default 10).
    pub gt_minutes: u32,
    /// Assumed travel speed, km/h; `None` = unconstrained.
    pub speed_kmh: Option<f64>,
    /// §8 extension: jitter each POI's opening hours by up to this many
    /// hours around its category default ("POI-specific opening hours can
    /// be incorporated easily"). 0 = category-uniform hours as in §6.1.1.
    pub opening_jitter_h: u32,
}

impl Default for CityConfig {
    fn default() -> Self {
        Self {
            num_pois: 2000,
            num_clusters: 12,
            extent_m: 8000.0,
            popularity_s: 1.0,
            gt_minutes: 10,
            speed_kmh: Some(8.0),
            opening_jitter_h: 0,
        }
    }
}

/// A generated city (currently just the dataset; kept as a struct so later
/// extensions — road networks, transit schedules — have a home).
#[derive(Debug, Clone)]
pub struct SyntheticCity {
    pub dataset: Dataset,
}

impl SyntheticCity {
    /// Generates a city over the given category hierarchy.
    pub fn generate<R: Rng + ?Sized>(
        config: &CityConfig,
        hierarchy: CategoryHierarchy,
        rng: &mut R,
    ) -> Self {
        assert!(config.num_pois >= 2, "need at least two POIs");
        assert!(config.num_clusters >= 1);
        let origin = GeoPoint::new(40.70, -74.02); // anchor; location is arbitrary
        let leaves = hierarchy.leaves();
        assert!(!leaves.is_empty(), "hierarchy has no leaf categories");

        // Cluster centers, uniform over the city square.
        let centers: Vec<(f64, f64)> = (0..config.num_clusters)
            .map(|_| {
                (
                    rng.random::<f64>() * config.extent_m,
                    rng.random::<f64>() * config.extent_m,
                )
            })
            .collect();
        // Clusters themselves have Zipf-ish sizes: downtown is denser.
        let cluster_dist = Zipf::new(config.num_clusters, 0.8);
        let popularity = Zipf::new(config.num_pois, config.popularity_s);

        let std_m = config.extent_m / (config.num_clusters as f64).sqrt() / 4.0;
        let pois: Vec<Poi> = (0..config.num_pois)
            .map(|i| {
                let c = cluster_dist.sample(rng);
                let (gx, gy) = gaussian_pair(rng);
                let x = (centers[c].0 + gx * std_m).clamp(0.0, config.extent_m);
                let y = (centers[c].1 + gy * std_m).clamp(0.0, config.extent_m);
                let leaf = leaves[rng.random_range(0..leaves.len())];
                // Popularity: Zipf mass of a random rank, scaled so values
                // are comfortably > 0 and heavy-tailed.
                let pop =
                    popularity.pmf(rng.random_range(0..config.num_pois)) * config.num_pois as f64;
                let opening = jitter_opening(
                    opening_for_root(&hierarchy, leaf),
                    config.opening_jitter_h,
                    rng,
                );
                Poi::new(
                    PoiId(i as u32),
                    format!("poi-{i}"),
                    origin.offset_m(x, y),
                    leaf,
                )
                .with_popularity(pop.max(1e-6))
                .with_opening(opening)
            })
            .collect();

        let dataset = Dataset::new(
            pois,
            hierarchy,
            TimeDomain::new(config.gt_minutes),
            config.speed_kmh,
            DistanceMetric::Haversine,
        );
        Self { dataset }
    }
}

/// Opening hours chosen by the POI's level-1 (root) category, mirroring the
/// paper's manual per-broad-category assignment.
pub(crate) fn opening_for_root(hierarchy: &CategoryHierarchy, leaf: CategoryId) -> OpeningHours {
    let root = hierarchy.ancestor_at(leaf, 1).expect("leaf has a root");
    let name = hierarchy.node(root).name.as_str();
    match name {
        n if n.contains("Food") || n.contains("Accommodation") => OpeningHours::between(7, 23),
        n if n.contains("Nightlife") => OpeningHours::between(18, 3),
        n if n.contains("Shop") || n.contains("Retail") => OpeningHours::between(9, 19),
        n if n.contains("Arts") || n.contains("Entertainment") => OpeningHours::between(10, 23),
        n if n.contains("Outdoors") || n.contains("Recreation") => OpeningHours::always(),
        n if n.contains("Professional") || n.contains("Health") || n.contains("Finance") => {
            OpeningHours::between(7, 19)
        }
        n if n.contains("Travel") || n.contains("Transport") => OpeningHours::always(),
        n if n.contains("Residence") || n.contains("Student") => OpeningHours::always(),
        n if n.contains("Educational") || n.contains("Academic") => OpeningHours::between(7, 22),
        n if n.contains("Event") => OpeningHours::between(9, 23),
        _ => OpeningHours::between(8, 20),
    }
}

/// Shifts an hour-range opening mask by up to ±`jitter_h` hours (wrapping),
/// giving each POI individual hours while preserving the category's daily
/// duration. Always-open and never-open masks are returned unchanged.
pub(crate) fn jitter_opening<R: Rng + ?Sized>(
    base: OpeningHours,
    jitter_h: u32,
    rng: &mut R,
) -> OpeningHours {
    if jitter_h == 0 {
        return base;
    }
    let open: Vec<u32> = (0..24).filter(|&h| base.is_open_hour(h)).collect();
    if open.is_empty() || open.len() == 24 {
        return base;
    }
    let shift = rng.random_range(0..=2 * jitter_h) as i32 - jitter_h as i32;
    let shifted: Vec<u32> = open
        .iter()
        .map(|&h| ((h as i32 + shift).rem_euclid(24)) as u32)
        .collect();
    OpeningHours::from_hours(&shifted)
}

/// One standard-normal pair via Box–Muller.
fn gaussian_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    let r = (-2.0 * u1.ln()).sqrt();
    let th = 2.0 * std::f64::consts::PI * u2;
    (r * th.cos(), r * th.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trajshare_hierarchy::builders::foursquare;

    #[test]
    fn generates_requested_poi_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let city = SyntheticCity::generate(&CityConfig::default(), foursquare(), &mut rng);
        assert_eq!(city.dataset.pois.len(), 2000);
    }

    #[test]
    fn pois_stay_within_the_city_extent() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = CityConfig {
            num_pois: 500,
            extent_m: 4000.0,
            ..Default::default()
        };
        let city = SyntheticCity::generate(&cfg, foursquare(), &mut rng);
        let diag = city.dataset.pois.bbox().diagonal_m();
        assert!(diag <= 4000.0 * 1.5 + 100.0, "diagonal {diag} too large");
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(3);
        let city = SyntheticCity::generate(&CityConfig::default(), foursquare(), &mut rng);
        let mut pops: Vec<f64> = city
            .dataset
            .pois
            .all()
            .iter()
            .map(|p| p.popularity)
            .collect();
        pops.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top_decile: f64 = pops[..200].iter().sum();
        let total: f64 = pops.iter().sum();
        assert!(
            top_decile / total > 0.3,
            "top 10% hold {:.2} of mass — not heavy-tailed",
            top_decile / total
        );
    }

    #[test]
    fn nightlife_wraps_midnight_and_food_does_not() {
        let h = foursquare();
        let nightlife_leaf = h
            .leaves()
            .into_iter()
            .find(|&l| h.path_name(l).contains("Nightlife"))
            .unwrap();
        let o = opening_for_root(&h, nightlife_leaf);
        assert!(o.is_open_hour(23) && o.is_open_hour(1) && !o.is_open_hour(12));
        let food_leaf = h
            .leaves()
            .into_iter()
            .find(|&l| h.path_name(l).contains("Food"))
            .unwrap();
        let o = opening_for_root(&h, food_leaf);
        assert!(o.is_open_hour(12) && !o.is_open_hour(3));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = SyntheticCity::generate(
            &CityConfig::default(),
            foursquare(),
            &mut StdRng::seed_from_u64(7),
        );
        let b = SyntheticCity::generate(
            &CityConfig::default(),
            foursquare(),
            &mut StdRng::seed_from_u64(7),
        );
        for (x, y) in a.dataset.pois.all().iter().zip(b.dataset.pois.all()) {
            assert_eq!(x.location, y.location);
            assert_eq!(x.popularity, y.popularity);
        }
    }

    #[test]
    fn clustering_produces_nonuniform_density() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = CityConfig {
            num_pois: 1000,
            num_clusters: 4,
            ..Default::default()
        };
        let city = SyntheticCity::generate(&cfg, foursquare(), &mut rng);
        // Split the bbox into a 4x4 grid and check occupancy is skewed.
        let grid = trajshare_geo::UniformGrid::new(*city.dataset.pois.bbox(), 4);
        let mut counts = [0usize; 16];
        for p in city.dataset.pois.all() {
            counts[grid.cell_of(p.location).0 as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(max > 1000 / 16 * 2, "max cell {max} not dense enough");
        assert!(nonzero >= 4);
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_jitter_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = OpeningHours::between(9, 17);
        assert_eq!(jitter_opening(base, 0, &mut rng), base);
    }

    #[test]
    fn jitter_preserves_open_duration() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = OpeningHours::between(9, 17);
        for _ in 0..50 {
            let j = jitter_opening(base, 3, &mut rng);
            assert_eq!(j.open_hours_count(), base.open_hours_count());
        }
    }

    #[test]
    fn jitter_leaves_always_open_alone() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            jitter_opening(OpeningHours::always(), 5, &mut rng),
            OpeningHours::always()
        );
    }

    #[test]
    fn jittered_city_has_varied_hours_within_a_category() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = CityConfig {
            num_pois: 300,
            opening_jitter_h: 2,
            ..Default::default()
        };
        let city =
            SyntheticCity::generate(&cfg, trajshare_hierarchy::builders::foursquare(), &mut rng);
        // Pick one category with bounded hours and check variation exists.
        use std::collections::HashMap;
        let mut by_cat: HashMap<_, Vec<OpeningHours>> = HashMap::new();
        for p in city.dataset.pois.all() {
            if p.opening.open_hours_count() < 24 {
                by_cat.entry(p.category).or_default().push(p.opening);
            }
        }
        let varied = by_cat
            .values()
            .any(|v| v.len() >= 3 && v.iter().any(|o| o != &v[0]));
        assert!(
            varied,
            "expected POI-specific hours to differ within categories"
        );
    }
}
