//! Accuracy-proxy model for the dynamic-pruning trade-off study.
//!
//! The paper's accuracy numbers (Table I, Fig. 13(a)) come from models trained
//! on KITTI/nuScenes with vector-sparsity regularisation and pruning-aware
//! fine-tuning. Training is out of scope for this reproduction, so we model
//! accuracy with a *coverage-retention proxy*: detection accuracy degrades in
//! proportion to how much foreground evidence (active pillars inside
//! ground-truth boxes) the sparsification step discards, with a tolerance knee
//! that reflects the robustness added by regularised fine-tuning.
//!
//! The proxy reproduces the qualitative shape the paper reports: accuracy is
//! flat while pruning removes only background pillars (up to roughly 26 %
//! extra sparsity with fine-tuning), then degrades increasingly steeply.

use serde::{Deserialize, Serialize};

/// Accuracy-proxy parameters.
///
/// # Example
///
/// ```
/// use spade_pointcloud::AccuracyProxy;
///
/// let tuned = AccuracyProxy::with_finetuning(87.4);
/// let raw = AccuracyProxy::without_finetuning(87.4);
/// // With full foreground coverage, both retain the baseline.
/// assert!((tuned.estimate_map(1.0) - 87.4).abs() < 1e-9);
/// // Losing 20% of foreground coverage hurts the un-finetuned model more.
/// assert!(tuned.estimate_map(0.8) > raw.estimate_map(0.8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyProxy {
    /// Dense-baseline mAP (percentage points, e.g. 87.4 for PP BEV on KITTI).
    pub baseline_map: f64,
    /// Coverage loss tolerated with no accuracy impact (fraction in `[0, 1)`).
    pub tolerance: f64,
    /// Accuracy lost (percentage points) per unit of coverage loss beyond the
    /// tolerance knee.
    pub slope: f64,
    /// Curvature of the post-knee degradation (1.0 = linear; >1 = accelerating).
    pub curvature: f64,
}

impl AccuracyProxy {
    /// Proxy for a model trained with vector-sparsity regularisation and
    /// pruning-aware fine-tuning (the paper's SpConv-P recipe).
    #[must_use]
    pub fn with_finetuning(baseline_map: f64) -> Self {
        Self {
            baseline_map,
            tolerance: 0.26,
            slope: 28.0,
            curvature: 1.6,
        }
    }

    /// Proxy for naive magnitude pruning without regularised fine-tuning.
    #[must_use]
    pub fn without_finetuning(baseline_map: f64) -> Self {
        Self {
            baseline_map,
            tolerance: 0.05,
            slope: 40.0,
            curvature: 1.3,
        }
    }

    /// Estimates mAP (percentage points) given the fraction of foreground
    /// (in-box) pillar evidence retained after sparsification.
    ///
    /// `foreground_coverage` is clamped to `[0, 1]`; `1.0` means no foreground
    /// pillar was discarded.
    #[must_use]
    pub fn estimate_map(&self, foreground_coverage: f64) -> f64 {
        let coverage = foreground_coverage.clamp(0.0, 1.0);
        let loss = 1.0 - coverage;
        if loss <= self.tolerance {
            return self.baseline_map;
        }
        let excess = (loss - self.tolerance) / (1.0 - self.tolerance).max(1e-9);
        let drop = self.slope * excess.powf(self.curvature);
        (self.baseline_map - drop).max(0.0)
    }
}

/// Fraction of foreground evidence retained: the ratio of kept in-box pillars
/// to all in-box pillars.
///
/// Returns `1.0` when there is no foreground at all (nothing to lose).
#[must_use]
pub fn foreground_coverage(kept_in_box: usize, total_in_box: usize) -> f64 {
    if total_in_box == 0 {
        1.0
    } else {
        kept_in_box as f64 / total_in_box as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_coverage_retains_baseline() {
        let p = AccuracyProxy::with_finetuning(77.3);
        assert_eq!(p.estimate_map(1.0), 77.3);
    }

    #[test]
    fn accuracy_is_flat_within_tolerance() {
        let p = AccuracyProxy::with_finetuning(87.4);
        assert_eq!(p.estimate_map(0.80), 87.4);
        assert_eq!(p.estimate_map(0.74), 87.4);
        assert!(p.estimate_map(0.5) < 87.4);
    }

    #[test]
    fn finetuning_dominates_naive_pruning() {
        let tuned = AccuracyProxy::with_finetuning(87.4);
        let naive = AccuracyProxy::without_finetuning(87.4);
        for cov in [0.9, 0.8, 0.7, 0.5, 0.3] {
            assert!(
                tuned.estimate_map(cov) >= naive.estimate_map(cov),
                "coverage {cov}"
            );
        }
    }

    #[test]
    fn degradation_is_monotone_in_coverage_loss() {
        let p = AccuracyProxy::with_finetuning(87.4);
        let mut prev = p.estimate_map(1.0);
        for i in 1..=20 {
            let cov = 1.0 - i as f64 * 0.05;
            let m = p.estimate_map(cov);
            assert!(m <= prev + 1e-12);
            prev = m;
        }
    }

    #[test]
    fn map_never_goes_negative() {
        let p = AccuracyProxy::without_finetuning(50.0);
        assert!(p.estimate_map(0.0) >= 0.0);
    }

    #[test]
    fn coverage_helper_handles_empty_foreground() {
        assert_eq!(foreground_coverage(0, 0), 1.0);
        assert_eq!(foreground_coverage(5, 10), 0.5);
        assert_eq!(foreground_coverage(10, 10), 1.0);
    }

    #[test]
    fn out_of_range_coverage_is_clamped() {
        let p = AccuracyProxy::with_finetuning(80.0);
        assert_eq!(p.estimate_map(1.5), 80.0);
        assert!(p.estimate_map(-0.5) >= 0.0);
    }
}
