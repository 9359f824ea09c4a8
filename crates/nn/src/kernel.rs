//! Convolution kernel geometry, weights, and stride-pattern weight groups.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The spatial shape of a convolution kernel (square, odd-sized for standard
/// convs; 2×2 for the deconvolutions used by the detection necks).
///
/// # Example
///
/// ```
/// use spade_nn::KernelShape;
/// let k = KernelShape::k3x3();
/// assert_eq!(k.num_taps(), 9);
/// assert_eq!(k.offsets().len(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelShape {
    /// Kernel height (rows).
    pub kh: u32,
    /// Kernel width (columns).
    pub kw: u32,
}

impl KernelShape {
    /// A 3×3 kernel (the backbone convolutions).
    #[must_use]
    pub const fn k3x3() -> Self {
        Self { kh: 3, kw: 3 }
    }

    /// A 2×2 kernel (stride-2 deconvolutions).
    #[must_use]
    pub const fn k2x2() -> Self {
        Self { kh: 2, kw: 2 }
    }

    /// A 1×1 kernel (head projections).
    #[must_use]
    pub const fn k1x1() -> Self {
        Self { kh: 1, kw: 1 }
    }

    /// Number of kernel taps (`kh * kw`).
    #[must_use]
    pub const fn num_taps(self) -> usize {
        (self.kh * self.kw) as usize
    }

    /// The `(row, col)` tap that sits on the output position: the middle of
    /// an odd side, index 0 of an even one.
    #[must_use]
    pub(crate) fn centre(self) -> (u32, u32) {
        let half = |k: u32| if k % 2 == 1 { k / 2 } else { 0 };
        (half(self.kh), half(self.kw))
    }

    /// Spatial offsets `(d_row, d_col)` of each tap relative to the output
    /// position, in row-major tap order. Odd kernels are centred; even kernels
    /// (deconv) use offsets `0..k`.
    #[must_use]
    pub fn offsets(self) -> Vec<(i32, i32)> {
        let (centre_r, centre_c) = self.centre();
        let (centre_r, centre_c) = (centre_r as i32, centre_c as i32);
        let mut out = Vec::with_capacity(self.num_taps());
        for r in 0..self.kh as i32 {
            for c in 0..self.kw as i32 {
                out.push((r - centre_r, c - centre_c));
            }
        }
        out
    }

    /// Tap index of the offset `(d_row, d_col)`, if it belongs to the kernel.
    #[must_use]
    pub fn tap_index(self, d_row: i32, d_col: i32) -> Option<usize> {
        self.offsets()
            .iter()
            .position(|&(r, c)| r == d_row && c == d_col)
    }
}

/// Weight-grouping of kernel taps for strided sparse convolution.
///
/// With stride 2 on a 3×3 kernel, an input pillar at parity `(pr, pc)` only
/// ever meets the taps whose offsets share that parity, so taps fall into four
/// groups `{0,2,6,8}`, `{1,7}`, `{3,5}`, `{4}` (row-major tap indices), which
/// the paper's weight-grouping optimisation schedules together to maximise
/// input reuse (Fig. 8(a)).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightGroup {
    /// Tap indices belonging to this group (row-major order).
    pub taps: Vec<usize>,
    /// The row/column parity `(row_parity, col_parity)` of the input pillars
    /// that use this group under stride 2.
    pub parity: (u32, u32),
}

impl WeightGroup {
    /// Computes the stride-pattern groups of a kernel for the given stride.
    ///
    /// For stride 1 there is a single group holding every tap.
    #[must_use]
    pub fn for_stride(kernel: KernelShape, stride: u32) -> Vec<WeightGroup> {
        if stride <= 1 {
            return vec![WeightGroup {
                taps: (0..kernel.num_taps()).collect(),
                parity: (0, 0),
            }];
        }
        let offsets = kernel.offsets();
        let mut groups: Vec<WeightGroup> = Vec::new();
        for (tap, &(dr, dc)) in offsets.iter().enumerate() {
            let parity = (
                dr.rem_euclid(stride as i32) as u32,
                dc.rem_euclid(stride as i32) as u32,
            );
            if let Some(g) = groups.iter_mut().find(|g| g.parity == parity) {
                g.taps.push(tap);
            } else {
                groups.push(WeightGroup {
                    taps: vec![tap],
                    parity,
                });
            }
        }
        groups
    }
}

/// Int8 convolution weights in `[out_channel][in_channel][tap]` layout,
/// generated from a seed (the reproduction uses structurally faithful but
/// untrained weights; see DESIGN.md).
///
/// # Example
///
/// ```
/// use spade_nn::{KernelShape, Weights};
/// let w = Weights::seeded(4, 8, KernelShape::k3x3(), 1);
/// assert_eq!(w.out_channels(), 4);
/// assert_eq!(w.get(3, 7, 8), w.get(3, 7, 8));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    out_channels: usize,
    in_channels: usize,
    kernel: KernelShape,
    data: Vec<i8>,
}

impl Weights {
    /// Generates seeded pseudo-random int8 weights.
    #[must_use]
    pub fn seeded(out_channels: usize, in_channels: usize, kernel: KernelShape, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = out_channels * in_channels * kernel.num_taps();
        let data = (0..n).map(|_| rng.gen_range(-64i32..=64) as i8).collect();
        Self {
            out_channels,
            in_channels,
            kernel,
            data,
        }
    }

    /// Number of output channels.
    #[must_use]
    pub const fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Number of input channels.
    #[must_use]
    pub const fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Kernel shape.
    #[must_use]
    pub const fn kernel(&self) -> KernelShape {
        self.kernel
    }

    /// Weight value for `(out_channel, in_channel, tap)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn get(&self, out_ch: usize, in_ch: usize, tap: usize) -> i8 {
        assert!(
            out_ch < self.out_channels && in_ch < self.in_channels && tap < self.kernel.num_taps(),
            "weight index ({out_ch}, {in_ch}, {tap}) out of range"
        );
        self.data[(out_ch * self.in_channels + in_ch) * self.kernel.num_taps() + tap]
    }

    /// Total number of weight values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the weight tensor is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the weight payload in bytes (one byte per int8 value).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_of_3x3_are_centred() {
        let offs = KernelShape::k3x3().offsets();
        assert_eq!(offs.len(), 9);
        assert_eq!(offs[0], (-1, -1));
        assert_eq!(offs[4], (0, 0));
        assert_eq!(offs[8], (1, 1));
    }

    #[test]
    fn offsets_of_2x2_are_non_negative() {
        let offs = KernelShape::k2x2().offsets();
        assert_eq!(offs, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn tap_index_round_trip() {
        let k = KernelShape::k3x3();
        for (i, (dr, dc)) in k.offsets().into_iter().enumerate() {
            assert_eq!(k.tap_index(dr, dc), Some(i));
        }
        assert_eq!(k.tap_index(2, 2), None);
    }

    #[test]
    fn stride2_groups_match_paper() {
        // The paper's weight grouping for stride 2 on 3x3: {0,2,6,8}, {1,7},
        // {3,5}, {4} (Fig. 8(a)).
        let groups = WeightGroup::for_stride(KernelShape::k3x3(), 2);
        assert_eq!(groups.len(), 4);
        let mut sets: Vec<Vec<usize>> = groups.iter().map(|g| g.taps.clone()).collect();
        sets.sort_by_key(|s| std::cmp::Reverse(s.len()));
        assert_eq!(sets[0], vec![0, 2, 6, 8]);
        assert!(sets.contains(&vec![1, 7]));
        assert!(sets.contains(&vec![3, 5]));
        assert!(sets.contains(&vec![4]));
    }

    #[test]
    fn stride1_is_a_single_group() {
        let groups = WeightGroup::for_stride(KernelShape::k3x3(), 1);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].taps.len(), 9);
    }

    #[test]
    fn groups_partition_all_taps() {
        for stride in [1u32, 2, 3] {
            let k = KernelShape::k3x3();
            let groups = WeightGroup::for_stride(k, stride);
            let mut all: Vec<usize> = groups.iter().flat_map(|g| g.taps.clone()).collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..k.num_taps()).collect::<Vec<_>>(),
                "stride {stride}"
            );
        }
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let a = Weights::seeded(8, 16, KernelShape::k3x3(), 7);
        let b = Weights::seeded(8, 16, KernelShape::k3x3(), 7);
        let c = Weights::seeded(8, 16, KernelShape::k3x3(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 8 * 16 * 9);
        assert_eq!(a.payload_bytes(), a.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn weight_get_panics_out_of_range() {
        let w = Weights::seeded(2, 2, KernelShape::k1x1(), 0);
        let _ = w.get(2, 0, 0);
    }
}
