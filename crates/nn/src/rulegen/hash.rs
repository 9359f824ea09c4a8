//! Hash-table rule generation (SpConv GPU library style).
//!
//! The SpConv library builds the input-output mapping by hashing output
//! coordinates: every `(input, tap)` candidate output is inserted into a hash
//! table to discover the unique active outputs, and each insertion may need
//! to traverse a collision chain because many inputs contribute to the same
//! output. This module reimplements that algorithm (so its result can be
//! checked against the streaming reference) and exposes a collision-counting
//! probe useful for the cost analysis of Fig. 5(b).

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rule::RuleBook;
use crate::rulegen::{output_grid, streaming};
use spade_tensor::{CprTensor, PillarCoord};
use std::collections::HashMap;

/// Statistics of the hash-table construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashStats {
    /// Number of insert/probe operations performed (= number of candidate
    /// rules).
    pub probes: usize,
    /// Number of probes that hit an already-occupied slot (collisions with
    /// the chained layout the SpConv library uses).
    pub collisions: usize,
    /// Number of unique output coordinates discovered.
    pub unique_outputs: usize,
}

/// Generates a rule book via the hash-table algorithm and reports probe
/// statistics.
///
/// The resulting rule book is *identical* (same outputs, same rules per tap,
/// though discovered in hash order and then re-sorted) to the streaming
/// reference; only the construction cost differs.
#[must_use]
pub fn generate_with_stats(
    input: &CprTensor,
    kind: ConvKind,
    kernel: KernelShape,
) -> (RuleBook, HashStats) {
    let out_grid = output_grid(input.grid(), kind);
    // First pass: discover unique outputs by hashing candidate coordinates.
    let mut table: HashMap<PillarCoord, usize> = HashMap::new();
    let mut probes = 0usize;
    let mut collisions = 0usize;
    let mut candidates: Vec<(usize, usize, PillarCoord)> = Vec::new();
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
            let Some(q) = q else { continue };
            probes += 1;
            let next_id = table.len();
            match table.entry(q) {
                std::collections::hash_map::Entry::Occupied(_) => collisions += 1,
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(next_id);
                }
            }
            candidates.push((p_idx, tap, q));
        }
    }
    // For submanifold convolution, outputs are restricted to active inputs.
    let restrict_to_input = matches!(kind, ConvKind::SpConvS);
    let input_coords: std::collections::BTreeSet<PillarCoord> = if restrict_to_input {
        input.iter_coords().collect()
    } else {
        std::collections::BTreeSet::new()
    };

    let mut output_coords: Vec<PillarCoord> = if restrict_to_input {
        input.coords()
    } else if matches!(kind, ConvKind::Dense) {
        out_grid.all_cells()
    } else {
        // lint:allow(hash-iter): the collected keys are sorted immediately
        // below, so the hash iteration order never reaches the rule book.
        table.keys().copied().collect()
    };
    output_coords.sort();

    let stats = HashStats {
        probes,
        collisions,
        unique_outputs: output_coords.len(),
    };

    let mut book = RuleBook::new(kernel.num_taps(), out_grid, output_coords);
    let out_sorted = book.output_coords().to_vec();
    for (p_idx, tap, q) in candidates {
        if restrict_to_input && !input_coords.contains(&q) {
            continue;
        }
        if let Ok(q_idx) = out_sorted.binary_search(&q) {
            book.push(tap, p_idx, q_idx);
        }
    }
    (book, stats)
}

/// Generates a rule book via the hash-table algorithm (statistics dropped).
#[must_use]
pub fn generate(input: &CprTensor, kind: ConvKind, kernel: KernelShape) -> RuleBook {
    generate_with_stats(input, kind, kernel).0
}

/// Checks that the hash-based and streaming rule books agree (same outputs and
/// the same multiset of rules per tap).
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
            GridShape::new(10, 10),
            1,
            &[
                PillarCoord::new(1, 1),
                PillarCoord::new(1, 2),
                PillarCoord::new(2, 1),
                PillarCoord::new(7, 8),
            ],
        )
    }

    #[test]
    fn hash_matches_streaming_for_all_kinds() {
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
    fn clustered_inputs_cause_collisions() {
        let t = sample();
        let (_, stats) = generate_with_stats(&t, ConvKind::SpConv, KernelShape::k3x3());
        assert!(stats.collisions > 0, "clustered pillars share outputs");
        assert!(stats.probes >= stats.unique_outputs);
    }

    #[test]
    fn isolated_input_has_no_collisions() {
        let t = CprTensor::from_coords(GridShape::new(10, 10), 1, &[PillarCoord::new(5, 5)]);
        let (_, stats) = generate_with_stats(&t, ConvKind::SpConv, KernelShape::k3x3());
        assert_eq!(stats.collisions, 0);
        assert_eq!(stats.unique_outputs, 9);
    }
}
