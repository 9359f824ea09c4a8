//! Rule generation: mapping active inputs to active outputs.
//!
//! Three algorithms produce the *same* rule book but at very different cost,
//! which is the comparison of Fig. 5(b):
//!
//! * [`streaming`] — the paper's CPR-streaming algorithm (alignment → row
//!   merge → column-wise dilation), `O(P)`; this is the algorithm SPADE's
//!   Rule Generation Unit implements.
//! * [`hash`] — hash-table rule generation as used by the SpConv GPU library.
//! * [`sort`] — merge-sort rule generation as used by the PointAcc
//!   accelerator (64-element bitonic merge sorter).
//!
//! The streaming algorithm is one sweep core, `streaming::sweep_output_row`,
//! with one driver: [`generate_rules`] runs it over every output row to
//! build a [`RuleBook`] (the functional convolution kernels, `fig05b` and
//! the oracle tests use it). Pattern-level execution needs only each
//! layer's output set and rule count, so `ExecutionArena::sweep_layer`
//! computes those on occupancy bitmaps instead, pinned equal to this
//! module's generators; the temporal [`delta`] path only counts, beside
//! that sweep, the rows an RGU would re-sweep from frame to frame. The hash
//! and sort generators exist to verify equivalence and to model their cycle
//! costs.

pub mod delta;
pub mod hash;
pub mod sort;
pub mod streaming;

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rule::RuleBook;
use serde::{Deserialize, Serialize};
use spade_tensor::{CprTensor, GridShape};

/// Which rule-generation algorithm (and therefore cost model) to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RuleGenMethod {
    /// SPADE's streaming RGU algorithm (`O(P)`).
    StreamingRgu,
    /// Hash-table mapping (SpConv library style).
    HashTable,
    /// Bitonic merge-sort mapping (PointAcc style).
    MergeSort,
}

impl std::fmt::Display for RuleGenMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleGenMethod::StreamingRgu => f.write_str("RGU"),
            RuleGenMethod::HashTable => f.write_str("hash table"),
            RuleGenMethod::MergeSort => f.write_str("merge sorter"),
        }
    }
}

/// The modelled cost of generating a rule book with a particular method.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuleGenCost {
    /// Modelled mapping cycles.
    pub cycles: u64,
    /// Number of active input pillars.
    pub inputs: usize,
    /// Number of active output pillars.
    pub outputs: usize,
    /// Number of rules (input-output pairs across taps).
    pub rules: usize,
}

impl RuleGenMethod {
    /// Models the mapping cycles needed to produce a rule book with
    /// `inputs` active input pillars, `outputs` active outputs, and `rules`
    /// total input-output pairs.
    ///
    /// The constants are calibrated so that, on SpConv-like workloads, the
    /// streaming RGU is roughly 5.9× faster than the hash table and 3.7×
    /// faster than the merge sorter, matching the paper's Fig. 5(b).
    #[must_use]
    pub fn cost(self, inputs: usize, outputs: usize, rules: usize) -> RuleGenCost {
        let p = inputs as f64;
        let q = outputs as f64;
        let r = rules as f64;
        let cycles = match self {
            // The streaming pipeline consumes one input coordinate per cycle
            // and emits output mappings in the same pass; a short pipeline
            // fill/drain is added.
            RuleGenMethod::StreamingRgu => p.max(q) + 16.0,
            // Each candidate mapping performs a hash probe plus (on average)
            // a short chain traversal to resolve collisions between the many
            // inputs that contribute to a common output; limited insertion
            // parallelism makes this effectively serial per rule.
            RuleGenMethod::HashTable => r * 1.30 + 64.0,
            // A 64-lane bitonic merge sorter processes rules in blocks of 64:
            // cycles ≈ (R/N) · log2(N) · log2(R/N) plus the intersection pass.
            RuleGenMethod::MergeSort => {
                let n = 64.0f64;
                let blocks = (r / n).max(1.0);
                blocks * n.log2() * blocks.log2().max(1.0) + r / 8.0 + 64.0
            }
        };
        RuleGenCost {
            cycles: cycles.round() as u64,
            inputs,
            outputs,
            rules,
        }
    }
}

/// The output grid shape induced by a convolution kind.
#[must_use]
pub fn output_grid(input: GridShape, kind: ConvKind) -> GridShape {
    match kind {
        ConvKind::SpStConv => input.downsample(2),
        ConvKind::SpDeconv => input.upsample(2),
        _ => input,
    }
}

/// Generates the rule book for a sparse convolution using the streaming
/// (reference) algorithm.
#[must_use]
pub fn generate_rules(input: &CprTensor, kind: ConvKind, kernel: KernelShape) -> RuleBook {
    streaming::generate(input, kind, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_tensor::PillarCoord;

    fn sample() -> CprTensor {
        CprTensor::from_coords(
            GridShape::new(8, 8),
            1,
            &[
                PillarCoord::new(1, 1),
                PillarCoord::new(1, 2),
                PillarCoord::new(4, 6),
                PillarCoord::new(7, 0),
            ],
        )
    }

    #[test]
    fn spconv_output_superset_of_input() {
        let t = sample();
        let book = generate_rules(&t, ConvKind::SpConv, KernelShape::k3x3());
        let out = book.output_coords();
        for c in t.coords() {
            assert!(out.contains(&c));
        }
        assert!(out.len() > t.num_active());
        assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "output must be CPR sorted"
        );
    }

    #[test]
    fn submanifold_output_equals_input() {
        let t = sample();
        let book = generate_rules(&t, ConvKind::SpConvS, KernelShape::k3x3());
        assert_eq!(book.output_coords(), t.coords());
    }

    #[test]
    fn strided_output_lands_on_half_grid() {
        let t = sample();
        let book = generate_rules(&t, ConvKind::SpStConv, KernelShape::k3x3());
        let out = book.output_coords();
        let g = output_grid(t.grid(), ConvKind::SpStConv);
        assert_eq!(g, GridShape::new(4, 4));
        assert!(out.iter().all(|c| c.in_bounds(g)));
        assert!(!out.is_empty());
    }

    #[test]
    fn deconv_output_is_4x_input_count() {
        let t = sample();
        let book = generate_rules(&t, ConvKind::SpDeconv, KernelShape::k2x2());
        assert_eq!(book.num_outputs(), t.num_active() * 4);
    }

    #[test]
    fn dense_output_covers_grid() {
        let t = sample();
        let book = generate_rules(&t, ConvKind::Dense, KernelShape::k3x3());
        assert_eq!(book.num_outputs(), 64);
    }

    #[test]
    fn cost_ordering_matches_paper() {
        // On an SpConv-like workload (rules ≈ 9 × inputs) the RGU must be the
        // fastest, the hash table the slowest, and the merge sorter between.
        let inputs = 10_000;
        let outputs = 18_000;
        let rules = 9 * inputs;
        let rgu = RuleGenMethod::StreamingRgu
            .cost(inputs, outputs, rules)
            .cycles;
        let hashc = RuleGenMethod::HashTable.cost(inputs, outputs, rules).cycles;
        let sortc = RuleGenMethod::MergeSort.cost(inputs, outputs, rules).cycles;
        assert!(
            rgu < sortc && sortc < hashc,
            "rgu={rgu} sort={sortc} hash={hashc}"
        );
        let hash_ratio = hashc as f64 / rgu as f64;
        let sort_ratio = sortc as f64 / rgu as f64;
        assert!(
            hash_ratio > 3.0 && hash_ratio < 10.0,
            "hash ratio {hash_ratio}"
        );
        assert!(
            sort_ratio > 2.0 && sort_ratio < 7.0,
            "sort ratio {sort_ratio}"
        );
    }

    #[test]
    fn method_display() {
        assert_eq!(RuleGenMethod::StreamingRgu.to_string(), "RGU");
        assert_eq!(RuleGenMethod::HashTable.to_string(), "hash table");
        assert_eq!(RuleGenMethod::MergeSort.to_string(), "merge sorter");
    }
}
