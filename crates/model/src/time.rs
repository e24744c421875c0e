//! The quantized time domain.
//!
//! §4: "We quantize the time domain into a series of timesteps t, the size
//! of which is controlled by the time granularity g_t." The experiments use
//! a single generic day with `g_t = 10` minutes, i.e. 144 timesteps; STC
//! regions use coarser [`TimeInterval`]s (one hour by default).

use serde::{Deserialize, Serialize};

/// Minutes in one day.
pub const MINUTES_PER_DAY: u32 = 24 * 60;

/// Index of a timestep within the day (`0 .. TimeDomain::num_timesteps()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Timestep(pub u16);

impl Timestep {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The quantized day: timesteps of `g_t` minutes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeDomain {
    gt_minutes: u32,
}

impl TimeDomain {
    /// Creates a domain with granularity `g_t` (minutes). Panics unless
    /// `g_t` divides the day evenly and is positive.
    pub fn new(gt_minutes: u32) -> Self {
        assert!(gt_minutes > 0, "g_t must be positive");
        assert!(
            MINUTES_PER_DAY.is_multiple_of(gt_minutes),
            "g_t = {gt_minutes} must divide {MINUTES_PER_DAY} minutes"
        );
        Self { gt_minutes }
    }

    /// The granularity `g_t` in minutes.
    #[inline]
    pub fn gt_minutes(&self) -> u32 {
        self.gt_minutes
    }

    /// `|T|` — number of timesteps in the day.
    #[inline]
    pub fn num_timesteps(&self) -> usize {
        (MINUTES_PER_DAY / self.gt_minutes) as usize
    }

    /// Start minute-of-day of a timestep.
    #[inline]
    pub fn minute_of(&self, t: Timestep) -> u32 {
        t.0 as u32 * self.gt_minutes
    }

    /// The timestep containing `minute` (clamped into the day).
    #[inline]
    pub fn timestep_at(&self, minute: u32) -> Timestep {
        let m = minute.min(MINUTES_PER_DAY - 1);
        Timestep((m / self.gt_minutes) as u16)
    }

    /// Absolute gap between two timesteps, in minutes.
    #[inline]
    pub fn gap_minutes(&self, a: Timestep, b: Timestep) -> u32 {
        (a.0 as i32 - b.0 as i32).unsigned_abs() * self.gt_minutes
    }

    /// Iterator over all timesteps.
    pub fn timesteps(&self) -> impl Iterator<Item = Timestep> {
        (0..self.num_timesteps() as u16).map(Timestep)
    }

    /// Formats a timestep as `HH:MM` for display.
    pub fn format(&self, t: Timestep) -> String {
        let m = self.minute_of(t);
        format!("{:02}:{:02}", m / 60, m % 60)
    }
}

/// A coarse, half-open time interval `[start_min, end_min)` within the day.
/// Used for STC-region time dimensions (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TimeInterval {
    pub start_min: u32,
    pub end_min: u32,
}

impl TimeInterval {
    /// Creates an interval; panics if empty/inverted or past midnight.
    pub fn new(start_min: u32, end_min: u32) -> Self {
        assert!(
            start_min < end_min,
            "empty interval [{start_min}, {end_min})"
        );
        assert!(end_min <= MINUTES_PER_DAY, "interval exceeds the day");
        Self { start_min, end_min }
    }

    /// Whether the timestep's start minute falls in the interval.
    #[inline]
    pub fn contains(&self, domain: &TimeDomain, t: Timestep) -> bool {
        let m = domain.minute_of(t);
        m >= self.start_min && m < self.end_min
    }

    /// Center of the interval in minutes (§5.10: merged time regions use
    /// interval centroids).
    #[inline]
    pub fn center_min(&self) -> f64 {
        (self.start_min + self.end_min) as f64 / 2.0
    }

    /// Width in minutes.
    #[inline]
    pub fn width_min(&self) -> u32 {
        self.end_min - self.start_min
    }

    /// The union of two touching-or-overlapping intervals, or `None` when
    /// they are disjoint (used by time-dimension merging).
    pub fn merge(&self, other: &TimeInterval) -> Option<TimeInterval> {
        if self.end_min < other.start_min || other.end_min < self.start_min {
            return None;
        }
        Some(TimeInterval::new(
            self.start_min.min(other.start_min),
            self.end_min.max(other.end_min),
        ))
    }

    /// Time distance between interval centers, in minutes, capped at 12 h
    /// (§5.10: "no time distance is greater than 12 hours").
    pub fn center_distance_capped_min(&self, other: &TimeInterval) -> f64 {
        let d = (self.center_min() - other.center_min()).abs();
        d.min(12.0 * 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_paper_domain_has_144_steps() {
        let d = TimeDomain::new(10);
        assert_eq!(d.num_timesteps(), 144);
        assert_eq!(d.minute_of(Timestep(0)), 0);
        assert_eq!(d.minute_of(Timestep(143)), 1430);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn non_dividing_granularity_rejected() {
        let _ = TimeDomain::new(7);
    }

    #[test]
    fn timestep_at_rounds_down_and_clamps() {
        let d = TimeDomain::new(10);
        assert_eq!(d.timestep_at(0), Timestep(0));
        assert_eq!(d.timestep_at(9), Timestep(0));
        assert_eq!(d.timestep_at(10), Timestep(1));
        assert_eq!(d.timestep_at(5000), Timestep(143));
    }

    #[test]
    fn gap_is_symmetric() {
        let d = TimeDomain::new(10);
        assert_eq!(d.gap_minutes(Timestep(3), Timestep(9)), 60);
        assert_eq!(d.gap_minutes(Timestep(9), Timestep(3)), 60);
        assert_eq!(d.gap_minutes(Timestep(5), Timestep(5)), 0);
    }

    #[test]
    fn format_renders_hhmm() {
        let d = TimeDomain::new(10);
        assert_eq!(d.format(Timestep(65)), "10:50");
    }

    #[test]
    fn contains_uses_half_open_bounds() {
        let d = TimeDomain::new(10);
        let iv = TimeInterval::new(600, 660); // 10:00-11:00
        assert!(iv.contains(&d, d.timestep_at(600)));
        assert!(iv.contains(&d, d.timestep_at(650)));
        assert!(!iv.contains(&d, d.timestep_at(660)));
        assert!(!iv.contains(&d, d.timestep_at(599)));
    }

    #[test]
    fn merge_adjacent_and_reject_disjoint() {
        let a = TimeInterval::new(60, 120);
        let b = TimeInterval::new(120, 180);
        let c = TimeInterval::new(300, 360);
        assert_eq!(a.merge(&b), Some(TimeInterval::new(60, 180)));
        assert_eq!(b.merge(&a), Some(TimeInterval::new(60, 180)));
        assert_eq!(a.merge(&c), None);
    }

    #[test]
    fn center_distance_capped_at_12_hours() {
        let a = TimeInterval::new(0, 60); // center 00:30
        let b = TimeInterval::new(23 * 60, 24 * 60); // center 23:30
        assert_eq!(a.center_distance_capped_min(&b), 12.0 * 60.0);
        let c = TimeInterval::new(120, 240); // center 03:00
        let d = TimeInterval::new(300, 420); // center 06:00
        assert_eq!(c.center_distance_capped_min(&d), 180.0);
    }

    #[test]
    fn paper_example_merged_interval_distance() {
        // §5.10: regions covering 2-4pm and 5-7pm -> |3pm - 6pm| = 3 hours.
        let a = TimeInterval::new(14 * 60, 16 * 60);
        let b = TimeInterval::new(17 * 60, 19 * 60);
        assert_eq!(a.center_distance_capped_min(&b), 180.0);
    }
}
