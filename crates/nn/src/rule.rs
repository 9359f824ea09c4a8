//! The rule book: explicit `(input, weight-tap, output)` index mappings.
//!
//! A *rule* records that active input pillar `p` contributes to active output
//! pillar `q` through kernel tap `i`; the rule book groups rules by tap so the
//! accelerator can run weight-stationary (all rules of one tap share a loaded
//! weight slice). Output coordinates are kept in CPR (row-major) order, which
//! is what the Gather-Scatter Unit's active-tile management relies on.

use serde::{Deserialize, Serialize};
use spade_tensor::{GridShape, PillarCoord};

/// One input-output mapping entry: input pillar index → output pillar index
/// through a specific kernel tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rule {
    /// Index of the active input pillar (CPR order of the input tensor).
    pub input: usize,
    /// Index of the active output pillar (CPR order of the output tensor).
    pub output: usize,
}

/// The complete mapping for one sparse convolution layer.
///
/// # Example
///
/// ```
/// use spade_nn::rule::RuleBook;
/// use spade_tensor::{GridShape, PillarCoord};
///
/// let mut rb = RuleBook::new(9, GridShape::new(4, 4), vec![PillarCoord::new(1, 1)]);
/// rb.push(4, 0, 0);
/// assert_eq!(rb.num_rules(), 1);
/// assert_eq!(rb.rules_for_tap(4).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleBook {
    /// Rules grouped by kernel tap index.
    per_tap: Vec<Vec<Rule>>,
    /// Output grid shape.
    output_grid: GridShape,
    /// Active output coordinates in CPR (row-major) order.
    output_coords: Vec<PillarCoord>,
}

impl RuleBook {
    /// Creates an empty rule book for a kernel with `num_taps` taps and the
    /// given active output coordinates (must already be sorted row-major).
    ///
    /// # Panics
    ///
    /// Panics if the output coordinates are not strictly sorted row-major.
    #[must_use]
    pub fn new(num_taps: usize, output_grid: GridShape, output_coords: Vec<PillarCoord>) -> Self {
        assert!(
            output_coords.windows(2).all(|w| w[0] < w[1]),
            "output coordinates must be strictly sorted in CPR (row-major) order"
        );
        Self {
            per_tap: vec![Vec::new(); num_taps],
            output_grid,
            output_coords,
        }
    }

    /// Creates an empty rule book whose output coordinates are streamed in
    /// ascending CPR order via [`RuleBook::push_output`] *while* rules are
    /// pushed — the construction mode of the fused streaming generator, which
    /// discovers outputs and rules in the same pass.
    #[must_use]
    pub fn streamed(num_taps: usize, output_grid: GridShape) -> Self {
        Self {
            per_tap: vec![Vec::new(); num_taps],
            output_grid,
            output_coords: Vec::new(),
        }
    }

    /// Appends the next active output coordinate and returns its index.
    /// Coordinates must arrive in strictly ascending CPR order (checked with
    /// a debug assertion — streamed construction maintains it by design).
    pub fn push_output(&mut self, coord: PillarCoord) -> usize {
        debug_assert!(
            self.output_coords.last().is_none_or(|&last| last < coord),
            "streamed output coordinates must be strictly ascending"
        );
        self.output_coords.push(coord);
        self.output_coords.len() - 1
    }

    /// Adds a rule: input pillar `input` contributes to output pillar `output`
    /// through kernel tap `tap`.
    ///
    /// # Panics
    ///
    /// Panics if `tap` or `output` is out of range.
    pub fn push(&mut self, tap: usize, input: usize, output: usize) {
        assert!(tap < self.per_tap.len(), "tap {tap} out of range");
        assert!(
            output < self.output_coords.len(),
            "output index {output} out of range ({} outputs)",
            self.output_coords.len()
        );
        self.per_tap[tap].push(Rule { input, output });
    }

    /// Number of kernel taps.
    #[must_use]
    pub fn num_taps(&self) -> usize {
        self.per_tap.len()
    }

    /// Total number of rules across all taps. Each rule corresponds to
    /// `C_in × C_out` multiply-accumulates.
    #[must_use]
    pub fn num_rules(&self) -> usize {
        self.per_tap.iter().map(Vec::len).sum()
    }

    /// Rules associated with one kernel tap.
    ///
    /// # Panics
    ///
    /// Panics if `tap` is out of range.
    #[must_use]
    pub fn rules_for_tap(&self, tap: usize) -> &[Rule] {
        &self.per_tap[tap]
    }

    /// The output grid shape.
    #[must_use]
    pub const fn output_grid(&self) -> GridShape {
        self.output_grid
    }

    /// Number of active output pillars.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.output_coords.len()
    }

    /// Active output coordinates in CPR order.
    #[must_use]
    pub fn output_coords(&self) -> &[PillarCoord] {
        &self.output_coords
    }

    /// Checks the monotonicity property the paper's hardware relies on: within
    /// each tap, rules generated from CPR-ordered inputs have non-decreasing
    /// input *and* output indices.
    #[must_use]
    pub fn check_monotone(&self) -> bool {
        self.per_tap.iter().all(|rules| {
            rules
                .windows(2)
                .all(|w| w[0].input <= w[1].input && w[0].output <= w[1].output)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coords(v: &[(u32, u32)]) -> Vec<PillarCoord> {
        v.iter().map(|&(r, c)| PillarCoord::new(r, c)).collect()
    }

    #[test]
    fn push_and_count_rules() {
        let mut rb = RuleBook::new(9, GridShape::new(4, 4), coords(&[(0, 0), (1, 1)]));
        rb.push(0, 0, 0);
        rb.push(0, 1, 1);
        rb.push(8, 0, 1);
        assert_eq!(rb.num_rules(), 3);
        assert_eq!(rb.rules_for_tap(0).len(), 2);
        assert_eq!(rb.rules_for_tap(4).len(), 0);
        assert_eq!(rb.num_outputs(), 2);
    }

    #[test]
    fn streamed_construction_matches_upfront_outputs() {
        let outs = coords(&[(0, 1), (1, 0), (2, 2)]);
        let mut up = RuleBook::new(2, GridShape::new(4, 4), outs.clone());
        up.push(0, 0, 0);
        up.push(1, 1, 2);
        let mut st = RuleBook::streamed(2, GridShape::new(4, 4));
        assert_eq!(st.push_output(outs[0]), 0);
        st.push(0, 0, 0);
        assert_eq!(st.push_output(outs[1]), 1);
        assert_eq!(st.push_output(outs[2]), 2);
        st.push(1, 1, 2);
        assert_eq!(up, st);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_outputs_are_rejected() {
        let _ = RuleBook::new(9, GridShape::new(4, 4), coords(&[(1, 1), (0, 0)]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_output_is_rejected() {
        let mut rb = RuleBook::new(9, GridShape::new(4, 4), coords(&[(0, 0)]));
        rb.push(0, 0, 3);
    }

    #[test]
    fn monotonicity_check() {
        let mut rb = RuleBook::new(1, GridShape::new(4, 4), coords(&[(0, 0), (1, 1), (2, 2)]));
        rb.push(0, 0, 0);
        rb.push(0, 1, 1);
        rb.push(0, 2, 2);
        assert!(rb.check_monotone());
        let mut bad = RuleBook::new(1, GridShape::new(4, 4), coords(&[(0, 0), (1, 1)]));
        bad.push(0, 1, 1);
        bad.push(0, 0, 0);
        assert!(!bad.check_monotone());
    }
}
