//! Convolution kernel geometry.

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
}
