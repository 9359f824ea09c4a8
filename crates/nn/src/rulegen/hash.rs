//! Hash-table rule generation (SpConv GPU library style).
//!
//! The SpConv library builds the input-output mapping by hashing output
//! coordinates: every `(input, tap)` candidate output is inserted into a hash
//! table to discover the unique active outputs. This module reimplements that
//! algorithm as an independent reference: it shares no logic with the
//! streaming sweep, and the tests require the two to build identical rule
//! books. Its cycle cost for Fig. 5(b) is [`RuleGenMethod::HashTable`]'s
//! model.
//!
//! [`RuleGenMethod::HashTable`]: crate::rulegen::RuleGenMethod::HashTable

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rule::RuleBook;
use crate::rulegen::output_grid;
use spade_tensor::{CprTensor, PillarCoord};
use std::collections::HashSet;

/// Generates a rule book via the hash-table algorithm.
///
/// The resulting rule book is *identical* (same outputs, same rules per tap,
/// though discovered in hash order and then re-sorted) to the streaming
/// reference; only the construction cost differs.
#[must_use]
pub fn generate(input: &CprTensor, kind: ConvKind, kernel: KernelShape) -> RuleBook {
    let out_grid = output_grid(input.grid(), kind);
    // First pass: discover unique outputs by hashing candidate coordinates.
    let mut table: HashSet<PillarCoord> = HashSet::new();
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
            table.insert(q);
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
        table.iter().copied().collect()
    };
    output_coords.sort();

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
    book
}
