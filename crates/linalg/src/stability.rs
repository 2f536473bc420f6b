//! Numerical-stability monitoring of training loss curves.
//!
//! Every iterative trainer in the workspace produces a per-epoch loss
//! curve. Two silent failure modes poison results without crashing: the
//! loss turns NaN/∞ (an exploded learning rate) and the model keeps
//! "training" on garbage, or the loss climbs away from its best value
//! (divergence) and the final parameters are worse than an early epoch's.
//!
//! [`LossMonitor`] detects both online. Trainers feed it one loss per
//! epoch and act on the returned [`LossVerdict`]: stop (and roll back to
//! the last healthy snapshot) on [`LossVerdict::NonFinite`] or
//! [`LossVerdict::Diverging`], keep going on [`LossVerdict::Healthy`].
//! The `kgrec-core` training supervisor converts verdicts into typed
//! errors and drives retries with learning-rate backoff.

/// When a loss curve counts as diverging.
#[derive(Debug, Clone)]
pub struct DivergencePolicy {
    /// The loss is "bad" when it exceeds `factor ×` the best loss seen so
    /// far (best is tracked as the running minimum of finite losses).
    pub factor: f32,
    /// Number of *consecutive* bad epochs before the verdict flips to
    /// [`LossVerdict::Diverging`]. Tolerates transient SGD noise.
    pub patience: usize,
    /// Absolute ceiling: any finite loss above this is bad regardless of
    /// the running minimum (catches curves that explode before a
    /// meaningful minimum exists).
    pub max_loss: f32,
}

impl Default for DivergencePolicy {
    fn default() -> Self {
        Self { factor: 4.0, patience: 3, max_loss: 1e6 }
    }
}

/// Per-epoch verdict of a [`LossMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossVerdict {
    /// Loss is finite and not diverging; keep training.
    Healthy,
    /// Loss is NaN or ±∞; stop immediately, the parameters are garbage.
    NonFinite,
    /// Loss has exceeded the divergence policy's tolerance for
    /// `patience` consecutive epochs; stop and roll back.
    Diverging,
}

/// Online divergence detector over a training loss curve.
///
/// ```
/// use kgrec_linalg::stability::{DivergencePolicy, LossMonitor, LossVerdict};
///
/// let mut m = LossMonitor::new(DivergencePolicy { factor: 2.0, patience: 2, max_loss: 1e6 });
/// assert_eq!(m.observe(1.0), LossVerdict::Healthy);
/// assert_eq!(m.observe(0.5), LossVerdict::Healthy);
/// assert_eq!(m.observe(1.5), LossVerdict::Healthy); // 1st bad epoch
/// assert_eq!(m.observe(2.0), LossVerdict::Diverging); // 2nd in a row
/// assert_eq!(m.observe(f32::NAN), LossVerdict::NonFinite);
/// ```
#[derive(Debug, Clone)]
pub struct LossMonitor {
    policy: DivergencePolicy,
    best: Option<f32>,
    bad_streak: usize,
}

impl LossMonitor {
    /// Creates a monitor with the given policy.
    pub fn new(policy: DivergencePolicy) -> Self {
        Self { policy, best: None, bad_streak: 0 }
    }

    /// Feeds one epoch's loss and returns the verdict.
    pub fn observe(&mut self, loss: f32) -> LossVerdict {
        if !loss.is_finite() {
            return LossVerdict::NonFinite;
        }
        let bad = loss > self.policy.max_loss
            || self.best.is_some_and(|b| loss > self.policy.factor * b.max(f32::EPSILON));
        if bad {
            self.bad_streak += 1;
            if self.bad_streak >= self.policy.patience {
                return LossVerdict::Diverging;
            }
        } else {
            self.bad_streak = 0;
            self.best = Some(self.best.map_or(loss, |b| b.min(loss)));
        }
        LossVerdict::Healthy
    }

    /// Best (minimum) finite loss observed so far, if any epoch was
    /// healthy.
    pub fn best_loss(&self) -> Option<f32> {
        self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_decreasing_curve() {
        let mut m = LossMonitor::new(DivergencePolicy::default());
        for i in 0..50 {
            let loss = 1.0 / (1.0 + i as f32);
            assert_eq!(m.observe(loss), LossVerdict::Healthy);
        }
        assert!(m.best_loss().unwrap() < 0.03);
    }

    #[test]
    fn nan_detected_immediately() {
        let mut m = LossMonitor::new(DivergencePolicy::default());
        assert_eq!(m.observe(0.5), LossVerdict::Healthy);
        assert_eq!(m.observe(f32::NAN), LossVerdict::NonFinite);
        assert_eq!(m.observe(f32::INFINITY), LossVerdict::NonFinite);
    }

    #[test]
    fn divergence_needs_consecutive_bad_epochs() {
        let p = DivergencePolicy { factor: 2.0, patience: 3, max_loss: 1e6 };
        let mut m = LossMonitor::new(p);
        assert_eq!(m.observe(1.0), LossVerdict::Healthy);
        // Two bad epochs, then recovery: streak resets.
        assert_eq!(m.observe(5.0), LossVerdict::Healthy);
        assert_eq!(m.observe(5.0), LossVerdict::Healthy);
        assert_eq!(m.observe(0.9), LossVerdict::Healthy);
        // Three bad in a row now trips.
        assert_eq!(m.observe(5.0), LossVerdict::Healthy);
        assert_eq!(m.observe(5.0), LossVerdict::Healthy);
        assert_eq!(m.observe(5.0), LossVerdict::Diverging);
    }

    #[test]
    fn absolute_ceiling_trips_without_a_minimum() {
        let p = DivergencePolicy { factor: 4.0, patience: 2, max_loss: 100.0 };
        let mut m = LossMonitor::new(p);
        // First epochs already above the ceiling: no best yet, still bad.
        assert_eq!(m.observe(1e4), LossVerdict::Healthy);
        assert_eq!(m.observe(1e5), LossVerdict::Diverging);
        assert_eq!(m.best_loss(), None);
    }

    #[test]
    fn zero_best_does_not_divide_away_divergence() {
        // A perfect 0.0 loss followed by any positive loss must be able to
        // trip (guarded by the EPSILON floor).
        let p = DivergencePolicy { factor: 2.0, patience: 1, max_loss: 1e6 };
        let mut m = LossMonitor::new(p);
        assert_eq!(m.observe(0.0), LossVerdict::Healthy);
        assert_eq!(m.observe(1.0), LossVerdict::Diverging);
    }
}
