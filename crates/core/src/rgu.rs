//! The Rule Generation Unit (RGU).
//!
//! The RGU is a three-stage streaming pipeline (alignment, row merge,
//! column-wise dilation) that converts CPR-encoded input coordinates into the
//! per-tap rule buffers. Functionally it produces the same rule book as the
//! algorithm in [`spade_nn::rulegen::streaming`], whose per-tap input and
//! output indices stay monotone (the ordering the hardware relies on); this
//! module models the unit's cycle cost.

use spade_nn::rulegen::RuleGenMethod;

/// The RGU model: the cycle count of generating a layer's rule book.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleGenerationUnit;

impl RuleGenerationUnit {
    /// Creates an RGU model.
    #[must_use]
    pub const fn new() -> Self {
        Self
    }

    /// Pipeline cycles for a layer with `inputs` active inputs, `outputs`
    /// active outputs, and `rules` rules.
    #[must_use]
    pub fn cycles_for(&self, inputs: usize, outputs: usize, rules: u64) -> u64 {
        RuleGenMethod::StreamingRgu
            .cost(inputs, outputs, rules as usize)
            .cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_track_the_larger_of_inputs_and_outputs() {
        // The streaming pipeline consumes one coordinate per cycle plus a
        // short fill/drain, whatever the rule count.
        let rgu = RuleGenerationUnit::new();
        assert_eq!(rgu.cycles_for(50, 120, 400), 120 + 16);
        assert_eq!(rgu.cycles_for(120, 50, 400), 120 + 16);
        assert_eq!(rgu.cycles_for(120, 50, 4), 120 + 16);
    }

    #[test]
    fn cycles_scale_linearly_with_pillars() {
        let rgu = RuleGenerationUnit::new();
        let small = rgu.cycles_for(1_000, 1_800, 9_000);
        let large = rgu.cycles_for(10_000, 18_000, 90_000);
        let ratio = large as f64 / small as f64;
        assert!(ratio > 8.0 && ratio < 12.0, "ratio {ratio}");
    }
}
