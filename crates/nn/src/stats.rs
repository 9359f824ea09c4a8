//! Per-layer IOPR series (the Fig. 2(d–f) curves).

use crate::graph::NetworkTrace;

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
    fn iopr_series_covers_backbone_layers() {
        let t = tiny_trace(ConvKind::SpConv);
        let series = iopr_series(&t);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].0, "B1C1");
        assert!(series[0].1 > 1.0);
    }
}
