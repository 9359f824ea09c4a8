//! The paper's streaming rule-generation algorithm (Sec. III-B), implemented
//! as one row sweep.
//!
//! Because the input is CPR-encoded (rows in order, columns sorted within a
//! row), every output row can be produced by looking only at the `kh` input
//! rows that overlap its receptive field:
//!
//! 1. **Alignment** — the `kh` relevant input rows are walked simultaneously.
//! 2. **Row merge** — each (input row, kernel column) pair forms one sorted
//!    stream of candidate output columns; the `kh·kw` streams are merged with
//!    a k-way comparator scan.
//! 3. **Column-wise dilation** — the merged stream yields the active output
//!    columns in ascending order, so the output coordinate set, the rule
//!    book, and the rule count all fall out of the *same* pass: a monotone
//!    output counter assigns output indices exactly as the RGU hardware does,
//!    with no hash table, no sort, and no binary search.
//!
//! Each active pillar is touched a constant number of times (once per kernel
//! tap), giving the `O(P·K)` complexity the RGU exploits; the k-way head
//! comparison is a fixed `K ≤ 9`-wide scan that hardware evaluates in
//! parallel.
//!
//! The private `sweep_output_row` is the sweep core and [`generate`] its one
//! driver: it runs the core over every output row to build a full
//! [`RuleBook`], which the oracle tests read. Pattern-level execution does
//! not merge at all: the RGU's cost is modelled from per-layer counts, so
//! `ExecutionArena::sweep_layer` computes the same output sets and rule
//! counts on occupancy bitmaps, and its tests pin it to this module. Both
//! align kernel rows to input rows through `input_row`; `input_row_band` is
//! the receptive field the delta accounting checks for dirty rows.

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rule::RuleBook;
use crate::rulegen::output_grid;
use spade_tensor::{CprTensor, GridShape, PillarCoord};

/// Sentinel head value for a drained merge stream.
const EXHAUSTED: u32 = u32::MAX;

/// One merge stream: a single (input row, kernel tap) pair emitting candidate
/// output columns in ascending order.
#[derive(Debug, Clone, Copy)]
struct StreamState {
    /// Input row this stream reads.
    row: u32,
    /// Cursor within the row's column slice.
    cursor: usize,
    /// Global CPR index of the row's first pillar.
    base: usize,
    /// Column offset (`dc`) of the tap.
    dc: i32,
    /// Kernel tap index this stream feeds.
    tap: u32,
    /// Current candidate output column ([`EXHAUSTED`] when drained).
    head: u32,
}

/// Advances `s` to its next valid candidate output column. All three column
/// maps are monotone in the input column, so candidates past the right grid
/// edge drain the stream outright.
fn settle(input: &CprTensor, s: &mut StreamState, kind: ConvKind, out_w: u32) {
    let cols = input.pillars_in_row(s.row);
    while s.cursor < cols.len() {
        let col = i64::from(cols[s.cursor]);
        let cand = match kind {
            ConvKind::SpStConv => {
                // q.col = (p.col - dc) / 2, parity permitting.
                let v = col - i64::from(s.dc);
                if v < 0 || v % 2 != 0 {
                    s.cursor += 1;
                    continue;
                }
                v / 2
            }
            ConvKind::SpDeconv => 2 * col + i64::from(s.dc),
            // Stride-1: q.col = p.col - dc.
            _ => col - i64::from(s.dc),
        };
        if cand < 0 {
            s.cursor += 1;
            continue;
        }
        if cand >= i64::from(out_w) {
            break;
        }
        s.head = cand as u32;
        return;
    }
    s.head = EXHAUSTED;
}

/// Sweeps a single output row `o`, appending its outputs (in CPR order) and
/// rules to `book`. The sweep is row-independent: each output row only
/// reads its own overlapping input rows and emits a contiguous run of output
/// indices, so a full layer is this function applied to every row in order.
///
/// For [`ConvKind::SpConvS`] the output set is the input set, so no output is
/// appended and rule output indices refer to the *input* ordering.
/// [`ConvKind::Dense`] has no sparse structure to stream and is handled by
/// [`generate`] directly.
fn sweep_output_row(
    input: &CprTensor,
    out_grid: GridShape,
    kind: ConvKind,
    kernel: KernelShape,
    streams: &mut Vec<StreamState>,
    book: &mut RuleBook,
    o: u32,
) {
    debug_assert!(kind != ConvKind::Dense, "dense layers bypass the sweep");
    let (kh, kw) = (i64::from(kernel.kh), i64::from(kernel.kw));
    let (centre_r, centre_c) = kernel.centre();
    let (centre_r, centre_c) = (i64::from(centre_r), i64::from(centre_c));
    let in_grid = input.grid();
    let submanifold = kind == ConvKind::SpConvS;
    let out_index_base = book.num_outputs();
    let mut num_outputs = 0usize;

    // Alignment: one stream per (overlapping input row, kernel column).
    streams.clear();
    for kr in 0..kh {
        let Some(p_row) = input_row(o, kr - centre_r, kind, in_grid.height) else {
            continue;
        };
        let (base, end) = input.row_range(p_row);
        if base == end {
            continue;
        }
        for kc in 0..kw {
            let mut s = StreamState {
                row: p_row,
                cursor: 0,
                base,
                dc: (kc - centre_c) as i32,
                tap: (kr * kw + kc) as u32,
                head: EXHAUSTED,
            };
            settle(input, &mut s, kind, out_grid.width);
            if s.head != EXHAUSTED {
                streams.push(s);
            }
        }
    }
    if streams.is_empty() {
        return;
    }
    // For submanifold convolution the active outputs of this row are the
    // active inputs of the same row; a forward cursor intersects the
    // merged candidate stream with them in the same pass.
    let (out_base, out_cols) = if submanifold {
        (input.row_range(o).0, input.pillars_in_row(o))
    } else {
        (0, &[][..])
    };
    let mut oc = 0usize;
    let mut last_emitted = EXHAUSTED;

    // Row merge + column-wise dilation.
    loop {
        let mut best = EXHAUSTED;
        for s in streams.iter() {
            if s.head < best {
                best = s.head;
            }
        }
        if best == EXHAUSTED {
            break;
        }
        let q_idx = if submanifold {
            while oc < out_cols.len() && out_cols[oc] < best {
                oc += 1;
            }
            (oc < out_cols.len() && out_cols[oc] == best).then(|| out_base + oc)
        } else {
            if last_emitted != best {
                book.push_output(PillarCoord::new(o, best));
                num_outputs += 1;
            }
            Some(out_index_base + num_outputs - 1)
        };
        last_emitted = best;
        for s in streams.iter_mut() {
            if s.head == best {
                if let Some(q) = q_idx {
                    book.push(s.tap as usize, s.base + s.cursor, q);
                }
                s.cursor += 1;
                settle(input, s, kind, out_grid.width);
            }
        }
    }
}

/// The input row that kernel row offset `dr` reads for output row `o`, if
/// it lies inside the input's `in_height` rows.
pub(crate) fn input_row(o: u32, dr: i64, kind: ConvKind, in_height: u32) -> Option<u32> {
    let p = match kind {
        ConvKind::SpStConv => 2 * i64::from(o) + dr,
        ConvKind::SpDeconv => {
            // q.row = 2·p.row + dr ⇒ p.row = (o − dr) / 2.
            let v = i64::from(o) - dr;
            if v < 0 || v % 2 != 0 {
                return None;
            }
            v / 2
        }
        _ => i64::from(o) + dr,
    };
    (0..i64::from(in_height)).contains(&p).then_some(p as u32)
}

/// The input rows the sweep of output row `o` reads, as an inclusive range
/// clipped to the input grid — the receptive-field ("halo") row band. Any
/// change confined to input rows outside this band cannot affect output row
/// `o`, which is the row-granular invariant the delta accounting relies on.
pub(crate) fn input_row_band(
    o: u32,
    in_grid: GridShape,
    kind: ConvKind,
    kernel: KernelShape,
) -> Option<(u32, u32)> {
    let centre_r = i64::from(kernel.centre().0);
    let rows = (0..i64::from(kernel.kh))
        .filter_map(|kr| input_row(o, kr - centre_r, kind, in_grid.height))
        // Submanifold sweeps additionally intersect with the *output* row's
        // own input set, which sits at input row `o` — inside the band
        // already for odd kernels, but include it defensively.
        .chain((kind == ConvKind::SpConvS && o < in_grid.height).then_some(o));
    rows.fold(None, |band, r| match band {
        None => Some((r, r)),
        Some((lo, hi)) => Some((r.min(lo), r.max(hi))),
    })
}

/// Generates a rule book with the streaming sweep: output coordinates,
/// per-tap rules, and the rule count are produced in one `O(P·K)` pass.
#[must_use]
pub fn generate(input: &CprTensor, kind: ConvKind, kernel: KernelShape) -> RuleBook {
    let in_grid = input.grid();
    let out_grid = output_grid(in_grid, kind);
    let taps = kernel.num_taps();
    let mut book = match kind {
        ConvKind::Dense => {
            // Every grid cell is an active output, so the output index is the
            // linear cell index — no lookup of any kind.
            let mut book = RuleBook::new(taps, out_grid, out_grid.all_cells());
            for (p_idx, p) in input.iter_coords().enumerate() {
                for (tap, (dr, dc)) in kernel.offsets().into_iter().enumerate() {
                    if let Some(q) = p.offset(-dr, -dc, out_grid) {
                        book.push(tap, p_idx, q.linear_index(out_grid));
                    }
                }
            }
            return book;
        }
        // Submanifold outputs are the inputs; indices coincide.
        ConvKind::SpConvS => RuleBook::new(taps, out_grid, input.coords()),
        _ => RuleBook::streamed(taps, out_grid),
    };
    let mut streams: Vec<StreamState> = Vec::with_capacity(taps);
    for o in 0..out_grid.height {
        sweep_output_row(input, out_grid, kind, kernel, &mut streams, &mut book, o);
    }
    book
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CprTensor {
        CprTensor::from_coords(
            GridShape::new(6, 6),
            &[
                PillarCoord::new(1, 1),
                PillarCoord::new(1, 4),
                PillarCoord::new(3, 3),
            ],
        )
    }

    #[test]
    fn spconv_rules_cover_all_input_tap_pairs_in_bounds() {
        let t = sample();
        let book = generate(&t, ConvKind::SpConv, KernelShape::k3x3());
        // Every (input, tap) pair whose output is in bounds yields a rule.
        // Input (1,1): all 9 in bounds. (1,4): all 9. (3,3): all 9.
        assert_eq!(book.num_rules(), 27);
        assert!(book.check_monotone());
    }

    #[test]
    fn edge_inputs_lose_out_of_bounds_rules() {
        let t = CprTensor::from_coords(GridShape::new(6, 6), &[PillarCoord::new(0, 0)]);
        let book = generate(&t, ConvKind::SpConv, KernelShape::k3x3());
        // The corner input can only produce the 4 in-bounds outputs.
        assert_eq!(book.num_rules(), 4);
        assert_eq!(book.num_outputs(), 4);
    }

    #[test]
    fn submanifold_rules_only_target_active_outputs() {
        let t = sample();
        let book = generate(&t, ConvKind::SpConvS, KernelShape::k3x3());
        assert_eq!(book.num_outputs(), 3);
        // (1,1) and (1,4) are not neighbours, (3,3) is diagonal to neither
        // within a 3x3 window, so each output only sees its own centre tap.
        assert_eq!(book.num_rules(), 3);
        for tap in 0..9 {
            if tap == 4 {
                assert_eq!(book.rules_for_tap(tap).len(), 3);
            } else {
                assert_eq!(book.rules_for_tap(tap).len(), 0);
            }
        }
    }

    #[test]
    fn deconv_rules_have_no_output_overlap() {
        let t = sample();
        let book = generate(&t, ConvKind::SpDeconv, KernelShape::k2x2());
        let mut seen = std::collections::HashSet::new();
        for tap in 0..book.num_taps() {
            for r in book.rules_for_tap(tap) {
                assert!(seen.insert(r.output), "deconv outputs must not overlap");
            }
        }
        assert_eq!(book.num_rules(), 12);
    }

    #[test]
    fn strided_rules_match_parity() {
        let t = sample();
        let book = generate(&t, ConvKind::SpStConv, KernelShape::k3x3());
        assert!(book.num_rules() > 0);
        assert_eq!(book.output_grid(), GridShape::new(3, 3));
        assert!(book.check_monotone());
    }

    #[test]
    fn output_sets_follow_the_kind() {
        let t = sample();
        let strided = generate(&t, ConvKind::SpStConv, KernelShape::k3x3());
        let half = GridShape::new(3, 3);
        assert!(!strided.output_coords().is_empty());
        assert!(strided.output_coords().iter().all(|c| c.in_bounds(half)));
        // A 2x2 stride-2 kernel gives each input four outputs of its own.
        let deconv = generate(&t, ConvKind::SpDeconv, KernelShape::k2x2());
        assert_eq!(deconv.num_outputs(), t.num_active() * 4);
        let dense = generate(&t, ConvKind::Dense, KernelShape::k3x3());
        assert_eq!(dense.output_coords(), t.grid().all_cells());
    }

    #[test]
    fn one_by_one_kernels_stream_correctly() {
        let t = sample();
        let book = generate(&t, ConvKind::SpConv, KernelShape::k1x1());
        // A 1x1 SpConv maps each input onto itself.
        assert_eq!(book.num_rules(), t.num_active());
        assert_eq!(book.num_outputs(), t.num_active());
        assert_eq!(book.output_coords(), &t.coords()[..]);
        assert!(book.check_monotone());
    }

    #[test]
    fn empty_input_yields_empty_book() {
        let t = CprTensor::from_coords(GridShape::new(8, 8), &[]);
        for kind in [ConvKind::SpConv, ConvKind::SpConvS, ConvKind::SpStConv] {
            let book = generate(&t, kind, KernelShape::k3x3());
            assert_eq!(book.num_rules(), 0, "kind {kind}");
            assert_eq!(book.num_outputs(), 0, "kind {kind}");
        }
    }
}
