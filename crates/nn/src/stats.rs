//! Table-level accounting helpers (GOPs, sparsity, IOPR series).

use crate::graph::NetworkTrace;
use serde::{Deserialize, Serialize};

/// One row of the paper's Table I, produced from a measured network trace and
/// the accuracy proxy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableOneRow {
    /// Model name (e.g. "SPP2").
    pub model: String,
    /// Backbone convolution description.
    pub backbone: String,
    /// Head convolution description.
    pub head: String,
    /// Average GOPs per frame.
    pub avg_gops: f64,
    /// Computation savings vs. the dense baseline (the paper's "Sparsity").
    pub sparsity: f64,
    /// Primary accuracy metric (mAP BEV for KITTI-like, mAP for nuScenes-like).
    pub accuracy_primary: f64,
    /// Secondary accuracy metric (mAP 3D for KITTI-like, NDS for
    /// nuScenes-like).
    pub accuracy_secondary: f64,
}

/// Averages computation statistics over several per-frame traces of the same
/// model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AveragedStats {
    /// Mean GOPs per frame.
    pub mean_gops: f64,
    /// Mean dense-equivalent GOPs per frame.
    pub mean_dense_gops: f64,
    /// Mean computation savings.
    pub mean_savings: f64,
    /// Mean foreground coverage (if traced).
    pub mean_foreground_coverage: Option<f64>,
    /// Number of frames averaged.
    pub frames: usize,
}

impl AveragedStats {
    /// Averages a set of traces.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[must_use]
    pub fn from_traces(traces: &[NetworkTrace]) -> Self {
        assert!(!traces.is_empty(), "at least one trace is required");
        let n = traces.len() as f64;
        let mean_gops = traces.iter().map(NetworkTrace::total_gops).sum::<f64>() / n;
        let mean_dense_gops = traces.iter().map(NetworkTrace::dense_gops).sum::<f64>() / n;
        let mean_savings = traces
            .iter()
            .map(NetworkTrace::computation_savings)
            .sum::<f64>()
            / n;
        let coverages: Vec<f64> = traces
            .iter()
            .filter_map(|t| t.foreground_coverage)
            .collect();
        let mean_foreground_coverage = if coverages.is_empty() {
            None
        } else {
            Some(coverages.iter().sum::<f64>() / coverages.len() as f64)
        };
        Self {
            mean_gops,
            mean_dense_gops,
            mean_savings,
            mean_foreground_coverage,
            frames: traces.len(),
        }
    }
}

/// Extracts the per-layer IOPR series of a trace, restricted to the backbone
/// convolution layers (the Fig. 2(d–f) curves).
#[must_use]
pub fn iopr_series(trace: &NetworkTrace) -> Vec<(String, f64)> {
    trace
        .layers
        .iter()
        .filter(|l| l.stage >= 1 && l.stage <= 3)
        .map(|l| (l.name.clone(), l.iopr))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvKind;
    use crate::graph::{execute_pattern, ExecutionContext, LayerInput, NetworkLayer, NetworkSpec};
    use crate::{ExecutionArena, LayerSpec};
    use spade_tensor::{GridShape, PillarCoord};

    fn tiny_trace(kind: ConvKind) -> NetworkTrace {
        let spec = NetworkSpec {
            name: "t".into(),
            encoder_channels: 2,
            layers: vec![NetworkLayer {
                spec: LayerSpec::new("B1C1", kind, 2, 2),
                input: LayerInput::Previous,
                stage: 1,
                densify_input: false,
            }],
        };
        let coords = vec![PillarCoord::new(1, 1), PillarCoord::new(5, 5)];
        execute_pattern(
            &spec,
            &coords,
            GridShape::new(16, 16),
            0,
            &ExecutionContext::default(),
            &mut ExecutionArena::new(),
            None,
        )
        .0
    }

    #[test]
    fn averaged_stats_over_identical_traces() {
        let t = tiny_trace(ConvKind::SpConvS);
        let stats = AveragedStats::from_traces(&[t.clone(), t.clone()]);
        assert_eq!(stats.frames, 2);
        assert!((stats.mean_gops - t.total_gops()).abs() < 1e-12);
        assert!(stats.mean_savings > 0.9);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn averaged_stats_requires_traces() {
        let _ = AveragedStats::from_traces(&[]);
    }

    #[test]
    fn iopr_series_covers_backbone_layers() {
        let t = tiny_trace(ConvKind::SpConv);
        let series = iopr_series(&t);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].0, "B1C1");
        assert!(series[0].1 > 1.0);
    }
}
