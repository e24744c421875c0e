//! Open-loop scheduling: send groups are due on a fixed grid whatever
//! the system under test does, latency is counted from the *due* time,
//! and how late the generator itself ran is reported alongside.

/// A fixed-rate schedule of send groups for one connection.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Grid spacing, ns (1 ms groups in `stream-publish`).
    pub period_ns: u64,
    /// Reports due per group; fractional rates carry over, so the
    /// long-run rate is exact.
    pub reports_per_group: f64,
}

impl OpenLoop {
    pub fn new(reports_per_s: f64, period_ns: u64) -> Self {
        OpenLoop {
            period_ns,
            reports_per_group: reports_per_s * period_ns as f64 / 1e9,
        }
    }

    /// When group `g` is due, ns after the schedule's start.
    pub fn due_ns(&self, g: u64) -> u64 {
        g * self.period_ns
    }

    /// Reports that must have left by the end of group `g`.
    pub fn target_reports(&self, g: u64) -> u64 {
        ((g + 1) as f64 * self.reports_per_group).floor() as u64
    }

    /// How late the generator started group `g`, ns (0 when on time or
    /// early — an early generator sleeps until the due time).
    pub fn lateness_ns(&self, g: u64, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.due_ns(g))
    }

    /// How long to sleep before group `g`, ns; 0 once it is due.
    pub fn wait_ns(&self, g: u64, now_ns: u64) -> u64 {
        self.due_ns(g).saturating_sub(now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_sit_on_the_grid_and_lateness_counts_from_them() {
        let s = OpenLoop::new(200_000.0, 1_000_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(7), 7_000_000);
        // Early: wait, no lateness.
        assert_eq!(s.wait_ns(7, 6_400_000), 600_000);
        assert_eq!(s.lateness_ns(7, 6_400_000), 0);
        // A 2.5 ms stall: group 7 starts late and so do 8 and 9, each
        // measured from its own due time, not from when it was sent.
        assert_eq!(s.lateness_ns(7, 9_500_000), 2_500_000);
        assert_eq!(s.lateness_ns(8, 9_600_000), 1_600_000);
        assert_eq!(s.lateness_ns(9, 9_700_000), 700_000);
        assert_eq!(s.wait_ns(9, 9_700_000), 0);
        assert_eq!(s.wait_ns(10, 9_800_000), 200_000);
    }

    #[test]
    fn fractional_rates_carry_over_exactly() {
        // 1 500 reports/s on a 1 ms grid: 1.5 per group.
        let s = OpenLoop::new(1_500.0, 1_000_000);
        let targets: Vec<u64> = (0..4).map(|g| s.target_reports(g)).collect();
        assert_eq!(targets, vec![1, 3, 4, 6]);
        assert_eq!(s.target_reports(999), 1_500);
    }
}
