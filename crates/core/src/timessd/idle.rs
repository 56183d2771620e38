//! Idle-time prediction for background delta compression (§3.6).
//!
//! TimeSSD predicts the next idle interval with exponential smoothing over
//! inter-arrival times: `t_pred = α·t_interval + (1−α)·t_pred_prev` with
//! α = 0.5. When the prediction exceeds a threshold (10 ms by default), the
//! firmware compresses retained pages in the background, suspending
//! immediately when the next request arrives.
//!
//! The simulator accounts this retroactively but causally: the *decision* to
//! compress uses only the prediction available at the previous completion,
//! while the amount of work performed is bounded by the *actual* idle gap —
//! exactly the work a real device would have completed before suspension.

use almanac_flash::Nanos;

/// Exponential-smoothing idle predictor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdlePredictor {
    alpha: f64,
    threshold: Nanos,
    predicted: f64,
    last_arrival: Option<Nanos>,
}

impl IdlePredictor {
    /// Creates a predictor with smoothing factor `alpha` and the idle
    /// threshold above which background work is allowed.
    pub(crate) fn new(alpha: f64, threshold: Nanos) -> Self {
        IdlePredictor {
            alpha,
            threshold,
            predicted: 0.0,
            last_arrival: None,
        }
    }

    /// Current predicted idle length in nanoseconds.
    pub(crate) fn predicted(&self) -> Nanos {
        self.predicted as Nanos
    }

    /// Instant of the most recent request arrival (`None` before any I/O).
    /// This is the device's notion of "now" between requests — the last
    /// time the maintenance path had a chance to run.
    pub(crate) fn last_arrival(&self) -> Option<Nanos> {
        self.last_arrival
    }

    /// True when the prediction clears the background-compression threshold.
    pub(crate) fn worth_compressing(&self) -> bool {
        self.predicted() >= self.threshold
    }

    /// Records a request arrival, updating the smoothed inter-arrival
    /// estimate.
    pub(crate) fn on_arrival(&mut self, now: Nanos) {
        if let Some(last) = self.last_arrival {
            let interval = now.saturating_sub(last) as f64;
            self.predicted = self.alpha * interval + (1.0 - self.alpha) * self.predicted;
        }
        self.last_arrival = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_flash::MS_NS;

    #[test]
    fn smoothing_follows_intervals() {
        let mut p = IdlePredictor::new(0.5, 10 * MS_NS);
        p.on_arrival(0);
        p.on_arrival(100);
        assert_eq!(p.predicted(), 50); // 0.5·100 + 0.5·0
        p.on_arrival(300);
        assert_eq!(p.predicted(), 125); // 0.5·200 + 0.5·50
    }

    #[test]
    fn threshold_gates_background_work() {
        let mut p = IdlePredictor::new(0.5, 10 * MS_NS);
        p.on_arrival(0);
        p.on_arrival(MS_NS);
        assert!(!p.worth_compressing());
        p.on_arrival(MS_NS + 100 * MS_NS);
        assert!(p.worth_compressing());
    }

    #[test]
    fn first_arrival_sets_baseline_only() {
        let mut p = IdlePredictor::new(0.5, 1);
        p.on_arrival(1_000_000);
        assert_eq!(p.predicted(), 0);
    }
}
