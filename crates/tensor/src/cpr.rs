//! Compressed-pillar-row (CPR) sparse tensors.
//!
//! CPR is the sparse encoding SPADE's hardware consumes: active pillar
//! coordinates are stored row by row with strictly increasing column indices
//! inside each row (analogous to CSR for sparse matrices). The monotone
//! coordinate ordering is the invariant the Rule Generation Unit relies on to
//! produce input-output mappings in `O(P)` time without hashing or sorting.
//! The accelerator model prices layers from active-set counts alone, so a
//! [`CprTensor`] holds coordinates only, never channel values.

use crate::coord::{GridShape, PillarCoord};
use serde::{Deserialize, Serialize};

/// A vector-sparse BEV active set in compressed-pillar-row (CPR) format.
///
/// Invariants (maintained by both constructors):
///
/// * coordinates are sorted row-major and are unique;
/// * `row_ptr` has `height + 1` entries delimiting each grid row's pillars.
///
/// # Example
///
/// ```
/// use spade_tensor::{CprTensor, GridShape, PillarCoord};
///
/// let t = CprTensor::from_coords(
///     GridShape::new(8, 8),
///     &[PillarCoord::new(1, 2), PillarCoord::new(3, 0)],
/// );
/// assert_eq!(t.num_active(), 2);
/// assert_eq!(t.pillars_in_row(1).len(), 1);
/// assert_eq!(t.pillars_in_row(2).len(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CprTensor {
    grid: GridShape,
    /// Row pointer array of length `grid.height + 1`.
    row_ptr: Vec<usize>,
    /// Column index of each active pillar, grouped by row.
    cols: Vec<u32>,
}

impl CprTensor {
    /// Builds a tensor from a list of coordinates (in any order). Duplicate
    /// and out-of-bounds coordinates are dropped.
    ///
    /// Inputs that are already strictly CPR-sorted and in bounds skip the
    /// sort/dedup pass entirely; callers that can *guarantee* that ordering
    /// should use [`CprTensor::from_sorted_coords`] directly.
    #[must_use]
    pub fn from_coords(grid: GridShape, coords: &[PillarCoord]) -> Self {
        let cpr_ready =
            coords.windows(2).all(|w| w[0] < w[1]) && coords.iter().all(|c| c.in_bounds(grid));
        if cpr_ready {
            return Self::from_sorted_coords(grid, coords);
        }
        let mut sorted: Vec<PillarCoord> = coords
            .iter()
            .copied()
            .filter(|c| c.in_bounds(grid))
            .collect();
        sorted.sort();
        sorted.dedup();
        Self::from_sorted_coords(grid, &sorted)
    }

    /// Builds a tensor from coordinates that are **already** strictly
    /// CPR-sorted (row-major, unique) and in bounds, such as pillarised
    /// frames or another layer's outputs.
    ///
    /// Skips the sort and dedup of [`CprTensor::from_coords`]; the ordering
    /// contract is checked with debug assertions only.
    #[must_use]
    pub fn from_sorted_coords(grid: GridShape, coords: &[PillarCoord]) -> Self {
        debug_assert!(
            coords.windows(2).all(|w| w[0] < w[1]),
            "from_sorted_coords requires strictly CPR-sorted coordinates"
        );
        debug_assert!(
            coords.iter().all(|c| c.in_bounds(grid)),
            "from_sorted_coords requires in-bounds coordinates"
        );
        let mut row_ptr = vec![0usize; grid.height as usize + 1];
        for c in coords {
            row_ptr[c.row as usize + 1] += 1;
        }
        for i in 1..row_ptr.len() {
            row_ptr[i] += row_ptr[i - 1];
        }
        CprTensor {
            grid,
            row_ptr,
            cols: coords.iter().map(|c| c.col).collect(),
        }
    }

    /// The BEV grid shape.
    #[must_use]
    pub const fn grid(&self) -> GridShape {
        self.grid
    }

    /// Number of active pillars.
    #[must_use]
    pub fn num_active(&self) -> usize {
        self.cols.len()
    }

    /// Returns the column indices of active pillars in the given grid row.
    #[must_use]
    pub fn pillars_in_row(&self, row: u32) -> &[u32] {
        if row >= self.grid.height {
            return &[];
        }
        let start = self.row_ptr[row as usize];
        let end = self.row_ptr[row as usize + 1];
        &self.cols[start..end]
    }

    /// Returns the global pillar index range `[start, end)` of the given row.
    #[must_use]
    pub fn row_range(&self, row: u32) -> (usize, usize) {
        if row >= self.grid.height {
            let n = self.num_active();
            return (n, n);
        }
        (self.row_ptr[row as usize], self.row_ptr[row as usize + 1])
    }

    /// Iterates over active pillar coordinates in CPR order.
    pub fn iter_coords(&self) -> impl Iterator<Item = PillarCoord> + '_ {
        (0..self.grid.height).flat_map(move |row| {
            let (start, end) = self.row_range(row);
            self.cols[start..end]
                .iter()
                .map(move |&col| PillarCoord::new(row, col))
        })
    }

    /// Collects all active coordinates into a vector (CPR order).
    #[must_use]
    pub fn coords(&self) -> Vec<PillarCoord> {
        self.iter_coords().collect()
    }

    /// Verifies internal invariants; useful for property-based tests.
    ///
    /// Returns `true` when row pointers are monotone and cover all pillars and
    /// columns are strictly increasing within each row.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        if self.row_ptr.len() != self.grid.height as usize + 1 {
            return false;
        }
        if *self.row_ptr.last().unwrap() != self.cols.len() {
            return false;
        }
        for w in self.row_ptr.windows(2) {
            if w[0] > w[1] {
                return false;
            }
        }
        for row in 0..self.grid.height {
            let cols = self.pillars_in_row(row);
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return false;
                }
            }
            if cols.iter().any(|&c| c >= self.grid.width) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tensor() -> CprTensor {
        CprTensor::from_coords(
            GridShape::new(4, 5),
            &[
                PillarCoord::new(3, 2),
                PillarCoord::new(0, 1),
                PillarCoord::new(2, 4),
                PillarCoord::new(2, 0),
            ],
        )
    }

    #[test]
    fn row_ranges_and_lookup() {
        let t = sample_tensor();
        assert_eq!(t.num_active(), 4);
        assert_eq!(t.pillars_in_row(0), &[1]);
        assert_eq!(t.pillars_in_row(1), &[] as &[u32]);
        assert_eq!(t.pillars_in_row(2), &[0, 4]);
        assert_eq!(t.pillars_in_row(3), &[2]);
        assert_eq!(t.pillars_in_row(99), &[] as &[u32]);
        assert_eq!(t.row_range(2), (1, 3));
        assert_eq!(t.row_range(99), (4, 4));
    }

    #[test]
    fn from_sorted_coords_matches_from_coords() {
        let grid = GridShape::new(6, 6);
        let coords = [
            PillarCoord::new(0, 2),
            PillarCoord::new(1, 0),
            PillarCoord::new(1, 5),
            PillarCoord::new(4, 4),
        ];
        let fast = CprTensor::from_sorted_coords(grid, &coords);
        let slow = CprTensor::from_coords(grid, &coords);
        assert_eq!(fast, slow);
        assert!(fast.check_invariants());
        assert_eq!(fast.coords(), coords);
    }

    #[test]
    fn from_coords_dedups_and_filters() {
        let grid = GridShape::new(4, 4);
        let t = CprTensor::from_coords(
            grid,
            &[
                PillarCoord::new(3, 3),
                PillarCoord::new(1, 1),
                PillarCoord::new(1, 1),
                PillarCoord::new(10, 10), // out of bounds, dropped
            ],
        );
        assert_eq!(t.num_active(), 2);
        assert!(t.check_invariants());
    }

    #[test]
    fn empty_tensor_is_consistent() {
        let t = CprTensor::from_coords(GridShape::new(8, 8), &[]);
        assert_eq!(t.num_active(), 0);
        assert!(t.check_invariants());
        assert_eq!(t.coords().len(), 0);
    }

    #[test]
    fn invariants_hold_for_sample() {
        assert!(sample_tensor().check_invariants());
    }
}
