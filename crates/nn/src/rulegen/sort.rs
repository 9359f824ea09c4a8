//! Merge-sort rule generation (PointAcc style).
//!
//! PointAcc maps sparse convolutions by sorting all candidate output
//! coordinates (one per input × kernel offset) with a bitonic merge sorter and
//! then intersecting adjacent runs to find unique outputs. This module
//! reimplements that algorithm so its rule book can be checked against the
//! streaming reference, and exposes the number of sort passes a 64-element
//! bitonic merger would need (used by the PointAcc baseline model).

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rule::RuleBook;
use crate::rulegen::{output_grid, streaming};
use spade_tensor::{CprTensor, PillarCoord};

/// Statistics of the sort-based construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortStats {
    /// Number of candidate entries that were sorted.
    pub sorted_entries: usize,
    /// Number of 64-element bitonic merge passes modelled.
    pub merge_passes: usize,
    /// Number of unique outputs after intersection.
    pub unique_outputs: usize,
}

/// Generates a rule book via coordinate sorting and reports sort statistics.
#[must_use]
pub fn generate_with_stats(
    input: &CprTensor,
    kind: ConvKind,
    kernel: KernelShape,
) -> (RuleBook, SortStats) {
    let out_grid = output_grid(input.grid(), kind);
    // Enumerate candidates, then sort them by output coordinate — this is the
    // work the bitonic merge network performs in hardware.
    let mut candidates: Vec<(PillarCoord, usize, usize)> = Vec::new();
    for (p_idx, p) in input.iter_coords().enumerate() {
        for (tap, (dr, dc)) in kernel.offsets().into_iter().enumerate() {
            let q = match kind {
                ConvKind::SpDeconv => {
                    // Odd kernels have negative offsets, so map in i64.
                    let qr = 2 * i64::from(p.row) + i64::from(dr);
                    let qc = 2 * i64::from(p.col) + i64::from(dc);
                    (qr >= 0 && qc >= 0)
                        .then(|| PillarCoord::new(qr as u32, qc as u32))
                        .filter(|q| q.in_bounds(out_grid))
                }
                ConvKind::SpStConv => {
                    let qr2 = i64::from(p.row) - i64::from(dr);
                    let qc2 = i64::from(p.col) - i64::from(dc);
                    if qr2 < 0 || qc2 < 0 || qr2 % 2 != 0 || qc2 % 2 != 0 {
                        None
                    } else {
                        let q = PillarCoord::new((qr2 / 2) as u32, (qc2 / 2) as u32);
                        q.in_bounds(out_grid).then_some(q)
                    }
                }
                _ => p.offset(-dr, -dc, out_grid),
            };
            if let Some(q) = q {
                candidates.push((q, tap, p_idx));
            }
        }
    }
    candidates.sort_by_key(|&(q, tap, p)| (q, tap, p));

    let restrict_to_input = matches!(kind, ConvKind::SpConvS);
    let input_set: std::collections::BTreeSet<PillarCoord> = if restrict_to_input {
        input.iter_coords().collect()
    } else {
        std::collections::BTreeSet::new()
    };

    let mut output_coords: Vec<PillarCoord> = if restrict_to_input {
        input.coords()
    } else if matches!(kind, ConvKind::Dense) {
        out_grid.all_cells()
    } else {
        let mut v: Vec<PillarCoord> = candidates.iter().map(|&(q, _, _)| q).collect();
        v.dedup();
        v
    };
    output_coords.sort();
    output_coords.dedup();

    let n = 64usize;
    let blocks = candidates.len().div_ceil(n).max(1);
    let merge_passes = blocks * (usize::BITS - (blocks.max(1)).leading_zeros()).max(1) as usize;
    let stats = SortStats {
        sorted_entries: candidates.len(),
        merge_passes,
        unique_outputs: output_coords.len(),
    };

    let mut book = RuleBook::new(kernel.num_taps(), out_grid, output_coords);
    let sorted_outputs = book.output_coords().to_vec();
    // Re-emit rules in (input, tap) order so monotonicity matches streaming.
    candidates.sort_by_key(|&(q, tap, p)| (p, tap, q));
    for (q, tap, p_idx) in candidates {
        if restrict_to_input && !input_set.contains(&q) {
            continue;
        }
        if let Ok(q_idx) = sorted_outputs.binary_search(&q) {
            book.push(tap, p_idx, q_idx);
        }
    }
    (book, stats)
}

/// Generates a rule book via coordinate sorting (statistics dropped).
#[must_use]
pub fn generate(input: &CprTensor, kind: ConvKind, kernel: KernelShape) -> RuleBook {
    generate_with_stats(input, kind, kernel).0
}

/// Checks agreement with the streaming reference.
#[must_use]
pub fn equivalent_to_streaming(input: &CprTensor, kind: ConvKind, kernel: KernelShape) -> bool {
    let a = generate(input, kind, kernel);
    let b = streaming::generate(input, kind, kernel);
    if a.output_coords() != b.output_coords() {
        return false;
    }
    for tap in 0..kernel.num_taps() {
        let mut ra: Vec<_> = a.rules_for_tap(tap).to_vec();
        let mut rb: Vec<_> = b.rules_for_tap(tap).to_vec();
        ra.sort_by_key(|r| (r.input, r.output));
        rb.sort_by_key(|r| (r.input, r.output));
        if ra != rb {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_tensor::GridShape;

    fn sample() -> CprTensor {
        CprTensor::from_coords(
            GridShape::new(12, 12),
            1,
            &[
                PillarCoord::new(0, 0),
                PillarCoord::new(3, 3),
                PillarCoord::new(3, 4),
                PillarCoord::new(10, 11),
            ],
        )
    }

    #[test]
    fn sort_matches_streaming_for_all_kinds() {
        let t = sample();
        for kind in [
            ConvKind::SpConv,
            ConvKind::SpConvS,
            ConvKind::SpConvP,
            ConvKind::SpStConv,
        ] {
            assert!(
                equivalent_to_streaming(&t, kind, KernelShape::k3x3()),
                "mismatch for {kind}"
            );
        }
        assert!(equivalent_to_streaming(
            &t,
            ConvKind::SpDeconv,
            KernelShape::k2x2()
        ));
    }

    #[test]
    fn stats_scale_with_candidates() {
        let t = sample();
        let (_, stats) = generate_with_stats(&t, ConvKind::SpConv, KernelShape::k3x3());
        assert!(stats.sorted_entries > 0);
        assert!(stats.merge_passes >= 1);
        assert!(stats.unique_outputs > t.num_active());
    }
}
