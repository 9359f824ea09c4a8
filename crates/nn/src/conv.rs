//! Sparse convolution variants and layer shapes.

use crate::kernel::KernelShape;
use serde::{Deserialize, Serialize};
use spade_tensor::GridShape;
use std::fmt;

/// The sparse-convolution variants studied by the paper (Fig. 1(c–e)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvKind {
    /// Dense Conv2D over the full grid (the PointPillars baseline).
    Dense,
    /// Standard sparse convolution: outputs dilate around active inputs.
    SpConv,
    /// Submanifold sparse convolution: outputs restricted to active inputs.
    SpConvS,
    /// Sparse convolution with dynamic vector pruning of the dilated outputs.
    SpConvP,
    /// Strided (stride-2) sparse convolution for downsampling.
    SpStConv,
    /// Stride-2 sparse deconvolution (transposed convolution) for upsampling.
    SpDeconv,
}

impl ConvKind {
    /// Whether the output active set can grow beyond the input active set.
    #[must_use]
    pub const fn dilates(self) -> bool {
        matches!(self, ConvKind::SpConv | ConvKind::SpConvP | ConvKind::Dense)
    }

    /// The stride this variant applies to the spatial grid.
    #[must_use]
    pub const fn stride(self) -> u32 {
        match self {
            ConvKind::SpStConv => 2,
            _ => 1,
        }
    }

    /// The upsampling factor this variant applies (1 for everything except
    /// deconvolution).
    #[must_use]
    pub const fn upsample(self) -> u32 {
        match self {
            ConvKind::SpDeconv => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for ConvKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConvKind::Dense => "Conv2D",
            ConvKind::SpConv => "SpConv",
            ConvKind::SpConvS => "SpConv-S",
            ConvKind::SpConvP => "SpConv-P",
            ConvKind::SpStConv => "SpStConv",
            ConvKind::SpDeconv => "SpDeconv",
        };
        f.write_str(s)
    }
}

/// Specification of a single convolution layer.
///
/// # Example
///
/// ```
/// use spade_nn::{ConvKind, LayerSpec};
/// let l = LayerSpec::new("B1C1", ConvKind::SpStConv, 64, 64);
/// assert_eq!(l.stride(), 2);
/// assert_eq!(l.macs_per_rule(), 64 * 64);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Layer label, following the paper's `BxCy` convention where possible.
    pub name: String,
    /// Convolution variant.
    pub kind: ConvKind,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel shape.
    pub kernel: KernelShape,
}

impl LayerSpec {
    /// Creates a 3×3 layer (2×2 for deconvolution) of the given kind.
    #[must_use]
    pub fn new(name: &str, kind: ConvKind, in_channels: usize, out_channels: usize) -> Self {
        let kernel = match kind {
            ConvKind::SpDeconv => KernelShape::k2x2(),
            _ => KernelShape::k3x3(),
        };
        Self {
            name: name.to_owned(),
            kind,
            in_channels,
            out_channels,
            kernel,
        }
    }

    /// Creates a layer with an explicit kernel shape (e.g. 1×1 head layers).
    #[must_use]
    pub fn with_kernel(
        name: &str,
        kind: ConvKind,
        in_channels: usize,
        out_channels: usize,
        kernel: KernelShape,
    ) -> Self {
        Self {
            name: name.to_owned(),
            kind,
            in_channels,
            out_channels,
            kernel,
        }
    }

    /// Spatial stride of the layer.
    #[must_use]
    pub fn stride(&self) -> u32 {
        self.kind.stride()
    }

    /// Multiply-accumulates performed per rule (per input-output pair per
    /// kernel tap): `C_in × C_out`.
    #[must_use]
    pub fn macs_per_rule(&self) -> usize {
        self.in_channels * self.out_channels
    }

    /// The output grid shape for a given input grid
    /// ([`crate::rulegen::output_grid`] of the layer's kind).
    #[must_use]
    #[inline]
    pub fn output_grid(&self, input: GridShape) -> GridShape {
        crate::rulegen::output_grid(input, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_kind_properties() {
        assert!(ConvKind::SpConv.dilates());
        assert!(!ConvKind::SpConvS.dilates());
        assert_eq!(ConvKind::SpStConv.stride(), 2);
        assert_eq!(ConvKind::SpDeconv.upsample(), 2);
        assert_eq!(ConvKind::SpConv.to_string(), "SpConv");
        assert_eq!(ConvKind::SpConvS.to_string(), "SpConv-S");
    }

    #[test]
    fn output_grid_follows_kind() {
        let g = GridShape::new(10, 10);
        assert_eq!(
            LayerSpec::new("a", ConvKind::SpConv, 1, 1).output_grid(g),
            g
        );
        assert_eq!(
            LayerSpec::new("b", ConvKind::SpStConv, 1, 1).output_grid(g),
            GridShape::new(5, 5)
        );
        assert_eq!(
            LayerSpec::new("c", ConvKind::SpDeconv, 1, 1).output_grid(g),
            GridShape::new(20, 20)
        );
    }
}
