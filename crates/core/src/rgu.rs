//! The Rule Generation Unit (RGU).
//!
//! The RGU is a three-stage streaming pipeline (alignment, row merge,
//! column-wise dilation) that converts CPR-encoded input coordinates into the
//! per-tap rule buffers. Functionally it produces the same rule book as the
//! algorithm in [`spade_nn::rulegen::streaming`]; this module wraps that
//! algorithm with the unit's cycle cost and verifies the hardware-relevant
//! ordering invariant (monotone input and output indices per rule buffer).

use spade_nn::rule::RuleBook;
use spade_nn::rulegen::RuleGenMethod;
use spade_nn::{ConvKind, KernelShape};
use spade_sim::units::Cycles;
use spade_tensor::{CprTensor, GridShape, PillarCoord};

/// The RGU model: produces rule books and their generation cycle counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleGenerationUnit;

/// The result of running the RGU on one layer.
#[derive(Debug, Clone)]
pub struct RuleGenResult {
    /// The generated rule book.
    pub rules: RuleBook,
    /// Cycles the streaming pipeline needs to produce it.
    pub cycles: Cycles,
}

impl RuleGenerationUnit {
    /// Creates an RGU model.
    #[must_use]
    pub const fn new() -> Self {
        Self
    }

    /// Generates the rule book for a layer and reports the pipeline cycles.
    ///
    /// `input_coords` is the CPR-ordered active set of a [`LayerWorkload`]
    /// (unsorted input is tolerated and normalised first, but the fast path —
    /// like the hardware — expects CPR order).
    ///
    /// [`LayerWorkload`]: spade_nn::graph::LayerWorkload
    #[must_use]
    pub fn generate(
        &self,
        input_coords: &[PillarCoord],
        input_grid: GridShape,
        kind: ConvKind,
        kernel: KernelShape,
    ) -> RuleGenResult {
        // `from_coords` takes the sort-free `from_sorted_coords` path when
        // the input is already CPR-ordered.
        let tensor = CprTensor::from_coords(input_grid, 1, input_coords);
        let rules = spade_nn::rulegen::generate_rules(&tensor, kind, kernel);
        let cost = RuleGenMethod::StreamingRgu.cost(
            input_coords.len(),
            rules.num_outputs(),
            rules.num_rules(),
        );
        debug_assert!(
            rules.check_monotone(),
            "RGU output must keep per-tap indices monotone"
        );
        RuleGenResult {
            rules,
            cycles: Cycles::new(cost.cycles),
        }
    }

    /// Cycle cost without materialising the rule book (used when only counts
    /// are known).
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
    fn generate_produces_monotone_rules_and_linear_cycles() {
        let coords: Vec<PillarCoord> = (0..50)
            .map(|i| PillarCoord::new(i / 8, (i % 8) * 3))
            .collect();
        let rgu = RuleGenerationUnit::new();
        let res = rgu.generate(
            &coords,
            GridShape::new(32, 32),
            ConvKind::SpConv,
            KernelShape::k3x3(),
        );
        assert!(res.rules.check_monotone());
        assert!(res.rules.num_outputs() >= coords.len());
        // Streaming cost is linear-ish in the larger of inputs/outputs.
        assert!(res.cycles.get() as usize >= res.rules.num_outputs());
        assert!(res.cycles.get() as usize <= res.rules.num_outputs() + coords.len() + 64);
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
