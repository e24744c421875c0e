//! Sequential-composition privacy accounting.
//!
//! LDP composes sequentially: running `k` mechanisms with budgets `ε_i`
//! yields `Σ ε_i`-LDP (§4.2). [`PrivacyBudget`] enforces this at runtime —
//! the trajectory pipeline draws `ε′ = ε/(|τ|+n−1)` per n-gram window and
//! the accountant guarantees the total never exceeds the user's ε
//! (Theorem 5.3).

use std::fmt;

/// Error returned when a draw would exceed the remaining budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetError {
    pub requested: f64,
    pub remaining: f64,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "privacy budget exhausted: requested ε={}, remaining ε={}",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for BudgetError {}

/// Tracks ε consumption under sequential composition.
#[derive(Debug, Clone)]
pub struct PrivacyBudget {
    total: f64,
    spent: f64,
    /// Absolute slack for floating-point accumulation when splitting the
    /// budget into many equal shares.
    tolerance: f64,
}

impl PrivacyBudget {
    /// Creates an accountant with `total` budget. Panics on non-positive ε.
    pub fn new(total: f64) -> Self {
        assert!(
            total > 0.0 && total.is_finite(),
            "total budget must be positive"
        );
        Self {
            total,
            spent: 0.0,
            tolerance: total * 1e-9,
        }
    }

    /// Total budget.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Budget consumed so far.
    #[inline]
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Budget still available.
    #[inline]
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Consumes `epsilon` from the budget, or fails without side effects.
    pub fn consume(&mut self, epsilon: f64) -> Result<(), BudgetError> {
        assert!(
            epsilon > 0.0 && epsilon.is_finite(),
            "consumed ε must be positive"
        );
        if self.spent + epsilon > self.total + self.tolerance {
            return Err(BudgetError {
                requested: epsilon,
                remaining: self.remaining(),
            });
        }
        self.spent += epsilon;
        Ok(())
    }

    /// Whether the whole budget has been used (within tolerance).
    pub fn is_exhausted(&self) -> bool {
        self.remaining() <= self.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_up_to_total() {
        let mut b = PrivacyBudget::new(1.0);
        assert!(b.consume(0.4).is_ok());
        assert!(b.consume(0.6).is_ok());
        assert!(b.is_exhausted());
        assert!((b.spent() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overdraw_fails_and_leaves_state_unchanged() {
        let mut b = PrivacyBudget::new(1.0);
        b.consume(0.9).unwrap();
        let err = b.consume(0.2).unwrap_err();
        assert!((err.remaining - 0.1).abs() < 1e-12);
        assert!(
            (b.spent() - 0.9).abs() < 1e-12,
            "failed draw must not consume"
        );
    }

    #[test]
    fn equal_shares_compose_back_to_total() {
        // |τ| = 5, n = 2 -> 6 windows, each ε/6; composition = ε exactly.
        let mut b = PrivacyBudget::new(5.0);
        let parts = 6;
        let share = 5.0 / parts as f64;
        for _ in 0..parts {
            b.consume(share).unwrap();
        }
        assert!(b.is_exhausted());
        assert!(b.consume(share).is_err());
    }

    #[test]
    fn many_tiny_shares_tolerate_fp_accumulation() {
        let mut b = PrivacyBudget::new(1.0);
        let parts = 10_000;
        let share = 1.0 / parts as f64;
        for i in 0..parts {
            b.consume(share)
                .unwrap_or_else(|e| panic!("failed at {i}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_total_rejected() {
        let _ = PrivacyBudget::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_consume_rejected() {
        let mut b = PrivacyBudget::new(1.0);
        let _ = b.consume(0.0);
    }

    #[test]
    fn display_is_informative() {
        let mut b = PrivacyBudget::new(1.0);
        b.consume(0.75).unwrap();
        let e = b.consume(0.5).unwrap_err();
        let s = e.to_string();
        assert!(s.contains("0.5") && s.contains("0.25"), "{s}");
    }
}
