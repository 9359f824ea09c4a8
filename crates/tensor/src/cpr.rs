//! Compressed-pillar-row (CPR) sparse tensors.
//!
//! CPR is the sparse encoding SPADE's hardware consumes: active pillar
//! coordinates are stored row by row with strictly increasing column indices
//! inside each row (analogous to CSR for sparse matrices), and each active
//! pillar carries a dense vector of `C` channel elements. The monotone
//! coordinate ordering is the invariant the Rule Generation Unit relies on to
//! produce input-output mappings in `O(P)` time without hashing or sorting.

use crate::coord::{GridShape, PillarCoord};
use crate::dense::DenseTensor;
use crate::error::TensorError;
use serde::{Deserialize, Serialize};

/// A vector-sparse BEV tensor in compressed-pillar-row (CPR) format.
///
/// Invariants (maintained by [`CprBuilder`] and all constructors):
///
/// * coordinates are sorted row-major and are unique;
/// * `row_ptr` has `height + 1` entries delimiting each grid row's pillars;
/// * every active pillar stores exactly `channels` feature values, laid out
///   contiguously in `features`.
///
/// # Example
///
/// ```
/// use spade_tensor::{CprTensor, GridShape, PillarCoord};
///
/// let t = CprTensor::from_coords(
///     GridShape::new(8, 8),
///     4,
///     &[PillarCoord::new(1, 2), PillarCoord::new(3, 0)],
/// );
/// assert_eq!(t.num_active(), 2);
/// assert_eq!(t.pillars_in_row(1).len(), 1);
/// assert_eq!(t.pillars_in_row(2).len(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CprTensor {
    grid: GridShape,
    channels: usize,
    /// Row pointer array of length `grid.height + 1`.
    row_ptr: Vec<usize>,
    /// Column index of each active pillar, grouped by row.
    cols: Vec<u32>,
    /// Channel data, `num_active * channels` values.
    features: Vec<f32>,
}

impl CprTensor {
    /// Returns a builder that accepts pillars in CPR (row-major) order.
    #[must_use]
    pub fn builder(grid: GridShape, channels: usize) -> CprBuilder {
        CprBuilder::new(grid, channels)
    }

    /// Builds a tensor from a list of coordinates (in any order), filling all
    /// channel values with `1.0`. Duplicate coordinates are collapsed.
    ///
    /// This is the common entry point for workload generation where only the
    /// *pattern* of active pillars matters. Inputs that are already strictly
    /// CPR-sorted and in bounds skip the sort/dedup pass entirely; callers
    /// that can *guarantee* that ordering should use
    /// [`CprTensor::from_sorted_coords`] directly.
    #[must_use]
    pub fn from_coords(grid: GridShape, channels: usize, coords: &[PillarCoord]) -> Self {
        let cpr_ready =
            coords.windows(2).all(|w| w[0] < w[1]) && coords.iter().all(|c| c.in_bounds(grid));
        if cpr_ready {
            return Self::from_sorted_coords(grid, channels, coords);
        }
        let mut sorted: Vec<PillarCoord> = coords
            .iter()
            .copied()
            .filter(|c| c.in_bounds(grid))
            .collect();
        sorted.sort();
        sorted.dedup();
        Self::from_sorted_coords(grid, channels, &sorted)
    }

    /// Builds a pattern-only tensor (all features `1.0`) from coordinates
    /// that are **already** strictly CPR-sorted (row-major, unique) and in
    /// bounds — the fast path for data that is CPR-ordered by construction,
    /// such as rule-generation outputs or pillarised frames.
    ///
    /// Skips the sort, dedup, and per-pillar feature allocations of
    /// [`CprTensor::from_coords`]; the ordering contract is checked with
    /// debug assertions only.
    #[must_use]
    pub fn from_sorted_coords(grid: GridShape, channels: usize, coords: &[PillarCoord]) -> Self {
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
            channels,
            row_ptr,
            cols: coords.iter().map(|c| c.col).collect(),
            features: vec![1.0; coords.len() * channels],
        }
    }

    /// Builds a tensor from `(coordinate, feature-vector)` pairs given in any
    /// order.
    ///
    /// # Errors
    ///
    /// Returns an error if a coordinate is out of bounds, duplicated, or a
    /// feature vector has the wrong number of channels.
    pub fn from_entries(
        grid: GridShape,
        channels: usize,
        entries: Vec<(PillarCoord, Vec<f32>)>,
    ) -> Result<Self, TensorError> {
        let mut entries = entries;
        entries.sort_by_key(|(c, _)| *c);
        let mut builder = CprBuilder::new(grid, channels);
        for (coord, feat) in entries {
            builder.push(coord, feat)?;
        }
        Ok(builder.build())
    }

    /// Creates an empty tensor (no active pillars).
    #[must_use]
    pub fn empty(grid: GridShape, channels: usize) -> Self {
        CprBuilder::new(grid, channels).build()
    }

    /// The BEV grid shape.
    #[must_use]
    pub const fn grid(&self) -> GridShape {
        self.grid
    }

    /// Number of channels per pillar.
    #[must_use]
    pub const fn channels(&self) -> usize {
        self.channels
    }

    /// Number of active pillars.
    #[must_use]
    pub fn num_active(&self) -> usize {
        self.cols.len()
    }

    /// Fraction of grid cells that are active (`P / (H*W)`).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.num_active() as f64 / self.grid.num_cells() as f64
    }

    /// Vector sparsity: fraction of grid cells that are *inactive*.
    #[must_use]
    pub fn sparsity(&self) -> f64 {
        1.0 - self.occupancy()
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

    /// Returns the coordinate of the `i`-th active pillar (CPR order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_active()`.
    #[must_use]
    pub fn coord(&self, i: usize) -> PillarCoord {
        assert!(i < self.num_active(), "pillar index {i} out of range");
        // Binary search over row_ptr to find the row containing index i.
        let row = match self.row_ptr.binary_search(&i) {
            Ok(mut r) => {
                // row_ptr may contain repeated values for empty rows; advance
                // to the last row whose start equals i and that is non-empty.
                while r + 1 < self.row_ptr.len() && self.row_ptr[r + 1] == i {
                    r += 1;
                }
                r
            }
            Err(r) => r - 1,
        };
        PillarCoord::new(row as u32, self.cols[i])
    }

    /// Returns the index of the active pillar at `coord`, if it is active.
    #[must_use]
    pub fn index_of(&self, coord: PillarCoord) -> Option<usize> {
        if !coord.in_bounds(self.grid) {
            return None;
        }
        let (start, end) = self.row_range(coord.row);
        self.cols[start..end]
            .binary_search(&coord.col)
            .ok()
            .map(|offset| start + offset)
    }

    /// Returns the feature vector of the `i`-th active pillar.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_active()`.
    #[must_use]
    pub fn features(&self, i: usize) -> &[f32] {
        assert!(i < self.num_active(), "pillar index {i} out of range");
        &self.features[i * self.channels..(i + 1) * self.channels]
    }

    /// Returns all feature data as a flat slice (`num_active * channels`).
    #[must_use]
    pub fn feature_data(&self) -> &[f32] {
        &self.features
    }

    /// Iterates over `(coordinate, feature-slice)` pairs in CPR order.
    pub fn iter(&self) -> impl Iterator<Item = (PillarCoord, &[f32])> + '_ {
        self.iter_coords()
            .enumerate()
            .map(move |(i, c)| (c, self.features(i)))
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

    /// L2 magnitude of each pillar's feature vector, in CPR order.
    ///
    /// Used as the importance score for dynamic vector pruning.
    #[must_use]
    pub fn pillar_magnitudes(&self) -> Vec<f32> {
        (0..self.num_active())
            .map(|i| self.features(i).iter().map(|v| v * v).sum::<f32>().sqrt())
            .collect()
    }

    /// Densifies into a `C × H × W` pseudo-image.
    #[must_use]
    pub fn to_dense(&self) -> DenseTensor {
        let mut dense = DenseTensor::zeros(self.channels, self.grid);
        for (i, coord) in self.iter_coords().enumerate() {
            for (ch, &v) in self.features(i).iter().enumerate() {
                dense.set(ch, coord.row, coord.col, v);
            }
        }
        dense
    }

    /// Returns a copy retaining only the pillars whose indices are listed in
    /// `keep` (indices refer to CPR order; they may be unsorted).
    #[must_use]
    pub fn select(&self, keep: &[usize]) -> Self {
        let mut keep: Vec<usize> = keep
            .iter()
            .copied()
            .filter(|&i| i < self.num_active())
            .collect();
        keep.sort_unstable();
        keep.dedup();
        let coords = self.coords();
        let mut builder = CprBuilder::new(self.grid, self.channels);
        for &i in &keep {
            builder
                .push(coords[i], self.features(i).to_vec())
                .expect("selected pillars keep CPR order");
        }
        builder.build()
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
        if self.features.len() != self.cols.len() * self.channels {
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

/// Incremental builder for [`CprTensor`] that enforces CPR ordering.
///
/// # Example
///
/// ```
/// use spade_tensor::{CprTensor, GridShape, PillarCoord};
/// let mut b = CprTensor::builder(GridShape::new(4, 4), 1);
/// b.push(PillarCoord::new(0, 0), vec![1.0]).unwrap();
/// assert!(b.push(PillarCoord::new(0, 0), vec![2.0]).is_err()); // duplicate
/// ```
#[derive(Debug, Clone)]
pub struct CprBuilder {
    grid: GridShape,
    channels: usize,
    coords: Vec<PillarCoord>,
    features: Vec<f32>,
}

impl CprBuilder {
    /// Creates a new builder for the given grid and channel count.
    #[must_use]
    pub fn new(grid: GridShape, channels: usize) -> Self {
        Self {
            grid,
            channels,
            coords: Vec::new(),
            features: Vec::new(),
        }
    }

    /// Appends an active pillar. Pillars must be pushed in row-major order.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinate is out of bounds, out of order,
    /// duplicated, or the feature vector length does not match the channel
    /// count.
    pub fn push(&mut self, coord: PillarCoord, features: Vec<f32>) -> Result<(), TensorError> {
        if !coord.in_bounds(self.grid) {
            return Err(TensorError::CoordOutOfBounds {
                row: coord.row,
                col: coord.col,
                height: self.grid.height,
                width: self.grid.width,
            });
        }
        if features.len() != self.channels {
            return Err(TensorError::ChannelMismatch {
                expected: self.channels,
                found: features.len(),
            });
        }
        if let Some(&prev) = self.coords.last() {
            if coord == prev {
                return Err(TensorError::DuplicateCoord {
                    row: coord.row,
                    col: coord.col,
                });
            }
            if coord < prev {
                return Err(TensorError::OutOfOrder {
                    previous: (prev.row, prev.col),
                    current: (coord.row, coord.col),
                });
            }
        }
        self.coords.push(coord);
        self.features.extend_from_slice(&features);
        Ok(())
    }

    /// Number of pillars pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Returns `true` if no pillars have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Finalizes the tensor.
    #[must_use]
    pub fn build(self) -> CprTensor {
        let mut row_ptr = vec![0usize; self.grid.height as usize + 1];
        for c in &self.coords {
            row_ptr[c.row as usize + 1] += 1;
        }
        for i in 1..row_ptr.len() {
            row_ptr[i] += row_ptr[i - 1];
        }
        let cols = self.coords.iter().map(|c| c.col).collect();
        CprTensor {
            grid: self.grid,
            channels: self.channels,
            row_ptr,
            cols,
            features: self.features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tensor() -> CprTensor {
        CprTensor::from_entries(
            GridShape::new(4, 5),
            2,
            vec![
                (PillarCoord::new(0, 1), vec![1.0, 2.0]),
                (PillarCoord::new(2, 0), vec![3.0, 4.0]),
                (PillarCoord::new(2, 4), vec![5.0, 6.0]),
                (PillarCoord::new(3, 2), vec![7.0, 8.0]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn builder_enforces_order_and_bounds() {
        let grid = GridShape::new(4, 4);
        let mut b = CprBuilder::new(grid, 1);
        b.push(PillarCoord::new(1, 2), vec![1.0]).unwrap();
        assert!(matches!(
            b.push(PillarCoord::new(0, 0), vec![1.0]),
            Err(TensorError::OutOfOrder { .. })
        ));
        assert!(matches!(
            b.push(PillarCoord::new(1, 2), vec![1.0]),
            Err(TensorError::DuplicateCoord { .. })
        ));
        assert!(matches!(
            b.push(PillarCoord::new(9, 0), vec![1.0]),
            Err(TensorError::CoordOutOfBounds { .. })
        ));
        assert!(matches!(
            b.push(PillarCoord::new(2, 0), vec![1.0, 2.0]),
            Err(TensorError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn row_ranges_and_lookup() {
        let t = sample_tensor();
        assert_eq!(t.num_active(), 4);
        assert_eq!(t.pillars_in_row(0), &[1]);
        assert_eq!(t.pillars_in_row(1), &[] as &[u32]);
        assert_eq!(t.pillars_in_row(2), &[0, 4]);
        assert_eq!(t.pillars_in_row(3), &[2]);
        assert_eq!(t.index_of(PillarCoord::new(2, 4)), Some(2));
        assert_eq!(t.index_of(PillarCoord::new(2, 3)), None);
        assert_eq!(t.index_of(PillarCoord::new(99, 0)), None);
    }

    #[test]
    fn coord_and_features_round_trip() {
        let t = sample_tensor();
        for i in 0..t.num_active() {
            let c = t.coord(i);
            assert_eq!(t.index_of(c), Some(i));
        }
        assert_eq!(t.features(2), &[5.0, 6.0]);
    }

    #[test]
    fn dense_round_trip() {
        let t = sample_tensor();
        let d = t.to_dense();
        assert_eq!(d.get(0, 2, 4), 5.0);
        assert_eq!(d.get(1, 3, 2), 8.0);
        assert_eq!(d.get(0, 1, 1), 0.0);
        // Count non-zero vectors in the dense image.
        let mut active = 0;
        for r in 0..4 {
            for c in 0..5 {
                if (0..2).any(|ch| d.get(ch, r, c) != 0.0) {
                    active += 1;
                }
            }
        }
        assert_eq!(active, t.num_active());
    }

    #[test]
    fn occupancy_and_sparsity() {
        let t = sample_tensor();
        assert!((t.occupancy() - 4.0 / 20.0).abs() < 1e-12);
        assert!((t.sparsity() - 0.8).abs() < 1e-12);
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
        let fast = CprTensor::from_sorted_coords(grid, 3, &coords);
        let slow = CprTensor::from_coords(grid, 3, &coords);
        assert_eq!(fast, slow);
        assert!(fast.check_invariants());
        assert_eq!(fast.features(2), &[1.0, 1.0, 1.0]);
        // Empty input round-trips too.
        assert_eq!(
            CprTensor::from_sorted_coords(grid, 2, &[]),
            CprTensor::empty(grid, 2)
        );
    }

    #[test]
    fn from_coords_dedups_and_filters() {
        let grid = GridShape::new(4, 4);
        let t = CprTensor::from_coords(
            grid,
            3,
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
    fn select_keeps_subset() {
        let t = sample_tensor();
        let s = t.select(&[3, 0, 3, 99]);
        assert_eq!(s.num_active(), 2);
        assert_eq!(
            s.coords(),
            vec![PillarCoord::new(0, 1), PillarCoord::new(3, 2)]
        );
        assert_eq!(s.features(1), &[7.0, 8.0]);
        assert!(s.check_invariants());
    }

    #[test]
    fn magnitudes_match_l2_norm() {
        let t = sample_tensor();
        let mags = t.pillar_magnitudes();
        assert!((mags[0] - (1.0f32 + 4.0).sqrt()).abs() < 1e-6);
        assert!((mags[3] - (49.0f32 + 64.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn empty_tensor_is_consistent() {
        let t = CprTensor::empty(GridShape::new(8, 8), 16);
        assert_eq!(t.num_active(), 0);
        assert_eq!(t.sparsity(), 1.0);
        assert!(t.check_invariants());
        assert_eq!(t.coords().len(), 0);
    }

    #[test]
    fn invariants_hold_for_sample() {
        assert!(sample_tensor().check_invariants());
    }

    #[test]
    fn iter_pairs_coords_with_features() {
        let t = sample_tensor();
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs[1].0, PillarCoord::new(2, 0));
        assert_eq!(pairs[1].1, &[3.0, 4.0]);
    }
}
