//! Momentum-based dynamic adjustment algorithm (paper Eq. 14–15).
//!
//! The adjuster trades off the unbiased teacher (adversarial de-biasing
//! distillation weight `ω_ADD`) against the clean teacher (domain knowledge
//! distillation weight `ω_DKD = 1 − ω_ADD`) based on how the student's
//! validation performance and bias changed in the previous epoch.

/// State of the dynamic adjustment algorithm.
#[derive(Debug, Clone)]
pub struct DynamicAdjuster {
    momentum: f32,
    w_add: f32,
}

impl DynamicAdjuster {
    /// Create an adjuster with momentum coefficient `momentum ∈ [0, 1)` and an
    /// initial adversarial-de-biasing weight.
    ///
    /// # Panics
    /// Panics if the momentum is outside `[0, 1)` or the initial weight is
    /// outside `[0, 1]`.
    pub fn new(momentum: f32, w_add: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        assert!(
            (0.0..=1.0).contains(&w_add),
            "initial weight must be in [0, 1]"
        );
        Self { momentum, w_add }
    }

    /// Current `(ω_ADD, ω_DKD)` pair.
    pub fn weights(&self) -> (f32, f32) {
        (self.w_add, 1.0 - self.w_add)
    }

    /// Update the weights from the epoch-over-epoch changes of the student's
    /// validation metrics (Eq. 14–15).
    ///
    /// * `delta_f1` — improvement in validation macro-F1 (`F1_r − F1_{r−1}`).
    /// * `delta_bias` — improvement in the bias metric, i.e. the *reduction*
    ///   of `Total = FNED + FPED` (`Total_{r−1} − Total_r`).
    ///
    /// Interpretation: when the bias improved much more than the performance
    /// (`ΔBias − ΔF1 > 0`), the unbiased teacher has been dominating, so its
    /// weight is lowered in favour of the clean teacher — and vice versa.
    /// The result is clamped to `[0, 1]` so both weights stay valid convex
    /// coefficients.
    pub fn update(&mut self, delta_f1: f32, delta_bias: f32) -> (f32, f32) {
        let raw = self.momentum * self.w_add - (1.0 - self.momentum) * (delta_bias - delta_f1);
        self.w_add = raw.clamp(0.0, 1.0);
        self.weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_complementary_and_clamped() {
        let mut adj = DynamicAdjuster::new(0.9, 0.5);
        let (a, d) = adj.weights();
        assert!((a + d - 1.0).abs() < 1e-6);
        // Extreme updates cannot push the weight outside [0, 1].
        let (a, d) = adj.update(-10.0, 10.0);
        assert!((0.0..=1.0).contains(&a));
        assert!((a + d - 1.0).abs() < 1e-6);
        let (a, _) = adj.update(10.0, -10.0);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn bias_improvement_without_f1_gain_shifts_weight_to_clean_teacher() {
        let mut adj = DynamicAdjuster::new(0.5, 0.6);
        // Bias improved a lot, F1 slightly dropped -> rely more on the clean
        // teacher (w_add decreases).
        let before = adj.weights().0;
        let (after, _) = adj.update(-0.01, 0.3);
        assert!(after < before, "{after} should be < {before}");
    }

    #[test]
    fn f1_gain_without_bias_improvement_shifts_weight_to_unbiased_teacher() {
        // Relative to a neutral update (no metric change), an F1 gain with a
        // slight bias regression must push more weight onto the unbiased
        // teacher.
        let mut neutral = DynamicAdjuster::new(0.5, 0.4);
        let (baseline, _) = neutral.update(0.0, 0.0);
        let mut adj = DynamicAdjuster::new(0.5, 0.4);
        let (after, _) = adj.update(0.3, -0.05);
        assert!(after > baseline, "{after} should be > {baseline}");
    }

    #[test]
    fn momentum_damps_the_update() {
        let mut slow = DynamicAdjuster::new(0.95, 0.5);
        let mut fast = DynamicAdjuster::new(0.1, 0.5);
        let (s, _) = slow.update(0.0, 0.2);
        let (f, _) = fast.update(0.0, 0.2);
        // Same signal; the low-momentum adjuster reacts more strongly
        // (both decrease, the fast one decreases further).
        assert!(s > f);
    }

    #[test]
    fn neutral_update_keeps_weights_near_momentum_decay() {
        let mut adj = DynamicAdjuster::new(0.9, 0.5);
        let (a, _) = adj.update(0.0, 0.0);
        assert!((a - 0.45).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn invalid_momentum_is_rejected() {
        let _ = DynamicAdjuster::new(1.5, 0.5);
    }
}
