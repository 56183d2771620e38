//! Retention duration management (§3.4) and the Equation-1 GC cost model
//! (§3.8).
//!
//! The garbage collector counts its flash reads, programs, erases, and delta
//! compressions over a period of `N_fixed` user page writes. Equation 1 of
//! the paper turns those counts into an average GC overhead per user write:
//!
//! ```text
//! (N_read·C_read + N_write·C_write + N_erase·C_erase + N_delta·C_delta) / N_fixed
//! ```
//!
//! When the estimate exceeds `TH × C_write` (TH = 20% by default), the
//! retention duration manager reclaims the oldest invalid data by dropping
//! the oldest Bloom filter — but never shrinks the window below the
//! guaranteed minimum (three days by default).

use almanac_flash::{LatencyConfig, Nanos};

/// GC operation counts within the current estimation period.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PeriodCounters {
    /// User page writes observed this period.
    pub user_writes: u64,
    /// Flash page reads by GC/compression (`N_read`).
    pub reads: u64,
    /// Flash page programs by GC/compression (`N_write`).
    pub programs: u64,
    /// Block erases by GC (`N_erase`).
    pub erases: u64,
    /// Delta compressions (`N_delta`).
    pub compressions: u64,
}

impl PeriodCounters {
    /// Left-hand side of Equation 1: average GC overhead (ns) per user write
    /// over `n_fixed` writes.
    pub(crate) fn overhead_per_write(&self, lat: &LatencyConfig, n_fixed: u64) -> f64 {
        let cost = self.reads as f64 * lat.read_ns as f64
            + self.programs as f64 * lat.program_ns as f64
            + self.erases as f64 * lat.erase_ns as f64
            + self.compressions as f64 * lat.compress_ns as f64;
        cost / n_fixed as f64
    }

    /// True when Equation 1 exceeds its threshold `TH × C_write`.
    pub(crate) fn over_threshold(&self, lat: &LatencyConfig, n_fixed: u64, th: f64) -> bool {
        self.overhead_per_write(lat, n_fixed) > th * lat.program_ns as f64
    }

    /// Resets all counters for the next period.
    pub(crate) fn reset(&mut self) {
        *self = PeriodCounters::default();
    }
}

/// Decision helper: may the oldest Bloom filter be dropped at time `now`
/// without violating the minimum retention guarantee?
///
/// Dropping the oldest filter moves the window start to the creation time of
/// the second-oldest filter, so the post-drop window must still span at
/// least `min_retention`. The comparison is strict: the paper's "3-day
/// guaranteed lower bound" (§3.4) means a version invalidated exactly
/// `min_retention` ago must *still* be queryable, so the post-drop window
/// has to strictly exceed the bound before the drop is allowed.
pub(crate) fn may_drop_oldest(
    now: Nanos,
    second_oldest_created: Option<Nanos>,
    min_retention: Nanos,
) -> bool {
    match second_oldest_created {
        Some(created) => now.saturating_sub(created) > min_retention,
        None => false, // never drop the only filter via the threshold path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_one_matches_hand_computation() {
        let lat = LatencyConfig::default();
        let p = PeriodCounters {
            user_writes: 4096,
            reads: 100,
            programs: 50,
            erases: 2,
            compressions: 80,
        };
        let expected = (100.0 * lat.read_ns as f64
            + 50.0 * lat.program_ns as f64
            + 2.0 * lat.erase_ns as f64
            + 80.0 * lat.compress_ns as f64)
            / 4096.0;
        assert!((p.overhead_per_write(&lat, 4096) - expected).abs() < 1e-9);
    }

    #[test]
    fn threshold_comparison() {
        let lat = LatencyConfig::default();
        let idle = PeriodCounters::default();
        assert!(!idle.over_threshold(&lat, 4096, 0.2));
        let busy = PeriodCounters {
            programs: 4096, // one GC program per user write = 100% overhead
            ..Default::default()
        };
        assert!(busy.over_threshold(&lat, 4096, 0.2));
    }

    #[test]
    fn drop_respects_minimum_window() {
        let day = 86_400_000_000_000u64;
        assert!(may_drop_oldest(10 * day, Some(5 * day), 3 * day));
        assert!(!may_drop_oldest(10 * day, Some(9 * day), 3 * day));
        assert!(!may_drop_oldest(10 * day, None, 3 * day));
    }

    #[test]
    fn drop_boundary_is_strict() {
        // §3.4: a version aged *exactly* the guaranteed bound is still
        // inside the guarantee and must remain queryable. Only strictly
        // older windows may be dropped.
        let day = 86_400_000_000_000u64;
        let min = 3 * day;
        let created = 4 * day;
        // age == min_retention - 1: inside the guarantee.
        assert!(!may_drop_oldest(created + min - 1, Some(created), min));
        // age == min_retention exactly: still guaranteed, may NOT drop.
        assert!(!may_drop_oldest(created + min, Some(created), min));
        // age == min_retention + 1: strictly past the bound, may drop.
        assert!(may_drop_oldest(created + min + 1, Some(created), min));
    }

    #[test]
    fn reset_clears_counts() {
        let mut p = PeriodCounters {
            reads: 5,
            ..Default::default()
        };
        p.reset();
        assert_eq!(p, PeriodCounters::default());
    }
}
