//! The paper's streaming rule-generation algorithm (Sec. III-B), implemented
//! as a single fused sweep.
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
//! parallel. The crate-internal `sweep_output_row` is the shared core:
//! [`generate`] drives it over every row to build a full [`RuleBook`], while
//! the pattern-level executor (`ExecutionArena::sweep_layer`)
//! drives it row by row to produce output coordinates and rule counts
//! without materialising rules, splicing clean rows on the delta path.

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rule::RuleBook;
use crate::rulegen::output_grid;
use spade_tensor::{CprTensor, GridShape, PillarCoord};

/// Sentinel head value for a drained merge stream.
const EXHAUSTED: u32 = u32::MAX;

/// Row-indexed access to a CPR-ordered coordinate set: the global index of a
/// row's first pillar plus the row's sorted column indices.
pub(crate) trait RowSource {
    /// Returns `(global index of the first pillar in row r, columns of row r)`.
    fn row(&self, r: u32) -> (usize, &[u32]);
}

impl RowSource for &CprTensor {
    fn row(&self, r: u32) -> (usize, &[u32]) {
        (self.row_range(r).0, self.pillars_in_row(r))
    }
}

/// A [`RowSource`] over scratch `row_ptr`/`cols` buffers built from a sorted
/// coordinate slice (see [`crate::arena::ExecutionArena`]).
pub(crate) struct SliceRows<'a> {
    /// Row pointer array, `height + 1` entries.
    pub row_ptr: &'a [usize],
    /// Column index of every pillar, grouped by row.
    pub cols: &'a [u32],
}

impl RowSource for SliceRows<'_> {
    fn row(&self, r: u32) -> (usize, &[u32]) {
        let start = self.row_ptr[r as usize];
        let end = self.row_ptr[r as usize + 1];
        (start, &self.cols[start..end])
    }
}

/// One merge stream: a single (input row, kernel tap) pair emitting candidate
/// output columns in ascending order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamState {
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
fn settle<R: RowSource>(rows: &R, s: &mut StreamState, kind: ConvKind, out_w: u32) {
    let (_, cols) = rows.row(s.row);
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

/// Receiver of the fused sweep's two interleaved emission feeds. All rules
/// targeting an output arrive immediately after that output's
/// [`SweepSink::output`] call (candidate streams are strictly increasing, so
/// an output column is never revisited).
pub(crate) trait SweepSink {
    /// A new active output coordinate, in ascending CPR order.
    fn output(&mut self, coord: PillarCoord);
    /// A rule `(tap, input index, output index)`.
    fn rule(&mut self, tap: usize, input: usize, output: usize);
}

/// A sink that only collects output coordinates (pattern-level execution;
/// a submanifold sweep emits no outputs, so it only counts rules).
pub(crate) struct CoordSink<'a>(pub &'a mut Vec<PillarCoord>);

impl SweepSink for CoordSink<'_> {
    fn output(&mut self, coord: PillarCoord) {
        self.0.push(coord);
    }
    fn rule(&mut self, _tap: usize, _input: usize, _output: usize) {}
}

/// Streams both feeds into a [`RuleBook`].
pub(crate) struct BookSink<'a>(pub(crate) &'a mut RuleBook);

impl SweepSink for BookSink<'_> {
    fn output(&mut self, coord: PillarCoord) {
        self.0.push_output(coord);
    }
    fn rule(&mut self, tap: usize, input: usize, output: usize) {
        self.0.push(tap, input, output);
    }
}

/// The fused streaming sweep: walks every output row once, k-way-merging the
/// overlapping input rows, and emits output coordinates (in CPR order),
/// rules (`(tap, input index, output index)`), and the rule count together
/// through a single [`SweepSink`].
///
/// For [`ConvKind::SpConvS`] the output set is the input set, so
/// [`SweepSink::output`] is never called and emitted output indices refer to
/// the *input* ordering. [`ConvKind::Dense`] has no sparse structure to
/// stream and is handled by the callers directly.
///
/// Returns `(number of outputs emitted, number of rules)`.
pub(crate) fn fused_sweep<R: RowSource>(
    rows: &R,
    in_grid: GridShape,
    out_grid: GridShape,
    kind: ConvKind,
    kernel: KernelShape,
    streams: &mut Vec<StreamState>,
    sink: &mut impl SweepSink,
) -> (usize, u64) {
    let mut num_outputs = 0usize;
    let mut num_rules = 0u64;
    for o in 0..out_grid.height {
        let (row_outputs, row_rules) = sweep_output_row(
            rows,
            in_grid,
            out_grid,
            kind,
            kernel,
            streams,
            sink,
            o,
            num_outputs,
        );
        num_outputs += row_outputs;
        num_rules += row_rules;
    }
    (num_outputs, num_rules)
}

/// Sweeps a single output row `o`, emitting its outputs and rules through the
/// sink with output indices starting at `out_index_base`. Because the fused
/// sweep is row-independent (each output row only reads its own overlapping
/// input rows and emits a contiguous run of output indices), a full frame is
/// just this function applied to every row in order — and the delta path
/// ([`crate::rulegen::delta`]) applies it to *dirty* rows only, splicing the
/// results between untouched spans of the previous frame.
///
/// Returns `(outputs emitted for this row, rules emitted for this row)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_output_row<R: RowSource>(
    rows: &R,
    in_grid: GridShape,
    out_grid: GridShape,
    kind: ConvKind,
    kernel: KernelShape,
    streams: &mut Vec<StreamState>,
    sink: &mut impl SweepSink,
    o: u32,
    out_index_base: usize,
) -> (usize, u64) {
    debug_assert!(kind != ConvKind::Dense, "dense layers bypass the sweep");
    let (kh, kw) = (i64::from(kernel.kh), i64::from(kernel.kw));
    // Same centring convention as `KernelShape::offsets`.
    let centre_r = if kernel.kh % 2 == 1 {
        i64::from(kernel.kh / 2)
    } else {
        0
    };
    let centre_c = if kernel.kw % 2 == 1 {
        i64::from(kernel.kw / 2)
    } else {
        0
    };
    let submanifold = kind == ConvKind::SpConvS;
    let mut num_outputs = 0usize;
    let mut num_rules = 0u64;

    // Alignment: one stream per (overlapping input row, kernel column).
    streams.clear();
    for kr in 0..kh {
        let dr = kr - centre_r;
        let p_row: i64 = match kind {
            ConvKind::SpStConv => 2 * i64::from(o) + dr,
            ConvKind::SpDeconv => {
                // q.row = 2·p.row + dr ⇒ p.row = (o − dr) / 2.
                let v = i64::from(o) - dr;
                if v < 0 || v % 2 != 0 {
                    continue;
                }
                v / 2
            }
            _ => i64::from(o) + dr,
        };
        if p_row < 0 || p_row >= i64::from(in_grid.height) {
            continue;
        }
        let (base, cols) = rows.row(p_row as u32);
        if cols.is_empty() {
            continue;
        }
        for kc in 0..kw {
            let mut s = StreamState {
                row: p_row as u32,
                cursor: 0,
                base,
                dc: (kc - centre_c) as i32,
                tap: (kr * kw + kc) as u32,
                head: EXHAUSTED,
            };
            settle(rows, &mut s, kind, out_grid.width);
            if s.head != EXHAUSTED {
                streams.push(s);
            }
        }
    }
    if streams.is_empty() {
        return (0, 0);
    }
    // For submanifold convolution the active outputs of this row are the
    // active inputs of the same row; a forward cursor intersects the
    // merged candidate stream with them in the same pass.
    let (out_base, out_cols) = if submanifold {
        rows.row(o)
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
                sink.output(PillarCoord::new(o, best));
                num_outputs += 1;
            }
            Some(out_index_base + num_outputs - 1)
        };
        last_emitted = best;
        for s in streams.iter_mut() {
            if s.head == best {
                if let Some(q) = q_idx {
                    sink.rule(s.tap as usize, s.base + s.cursor, q);
                    num_rules += 1;
                }
                s.cursor += 1;
                settle(rows, s, kind, out_grid.width);
            }
        }
    }
    (num_outputs, num_rules)
}

/// The input rows the sweep of output row `o` reads, as an inclusive range
/// clipped to the input grid — the receptive-field ("halo") row band. Any
/// change confined to input rows outside this band cannot affect output row
/// `o`, which is the row-granular invariant the delta patcher relies on.
pub(crate) fn input_row_band(
    o: u32,
    in_grid: GridShape,
    kind: ConvKind,
    kernel: KernelShape,
) -> Option<(u32, u32)> {
    let centre_r = if kernel.kh % 2 == 1 {
        i64::from(kernel.kh / 2)
    } else {
        0
    };
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for kr in 0..i64::from(kernel.kh) {
        let dr = kr - centre_r;
        let p_row: i64 = match kind {
            ConvKind::SpStConv => 2 * i64::from(o) + dr,
            ConvKind::SpDeconv => {
                let v = i64::from(o) - dr;
                if v < 0 || v % 2 != 0 {
                    continue;
                }
                v / 2
            }
            _ => i64::from(o) + dr,
        };
        if p_row < 0 || p_row >= i64::from(in_grid.height) {
            continue;
        }
        lo = lo.min(p_row);
        hi = hi.max(p_row);
    }
    // Submanifold sweeps additionally intersect with the *output* row's own
    // input set, which sits at input row `o` — inside [lo, hi] already for
    // odd kernels, but include it defensively.
    if kind == ConvKind::SpConvS && (o as usize) < in_grid.height as usize {
        lo = lo.min(i64::from(o));
        hi = hi.max(i64::from(o));
    }
    (lo <= hi).then_some((lo as u32, hi as u32))
}

/// Generates a rule book with the fused streaming sweep: output coordinates,
/// per-tap rules, and the rule count are produced in one `O(P·K)` pass.
#[must_use]
pub fn generate(input: &CprTensor, kind: ConvKind, kernel: KernelShape) -> RuleBook {
    let out_grid = output_grid(input.grid(), kind);
    let mut streams: Vec<StreamState> = Vec::with_capacity(kernel.num_taps());
    match kind {
        ConvKind::Dense => {
            // Every grid cell is an active output, so the output index is the
            // linear cell index — no lookup of any kind.
            let mut book = RuleBook::new(kernel.num_taps(), out_grid, out_grid.all_cells());
            for (p_idx, p) in input.iter_coords().enumerate() {
                for (tap, (dr, dc)) in kernel.offsets().into_iter().enumerate() {
                    if let Some(q) = p.offset(-dr, -dc, out_grid) {
                        book.push(tap, p_idx, q.linear_index(out_grid));
                    }
                }
            }
            book
        }
        ConvKind::SpConvS => {
            // Submanifold outputs are the inputs; indices coincide.
            let mut book = RuleBook::new(kernel.num_taps(), out_grid, input.coords());
            fused_sweep(
                &input,
                input.grid(),
                out_grid,
                kind,
                kernel,
                &mut streams,
                &mut BookSink(&mut book),
            );
            book
        }
        _ => {
            let mut book = RuleBook::streamed(kernel.num_taps(), out_grid);
            fused_sweep(
                &input,
                input.grid(),
                out_grid,
                kind,
                kernel,
                &mut streams,
                &mut BookSink(&mut book),
            );
            book
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_tensor::GridShape;

    fn sample() -> CprTensor {
        CprTensor::from_coords(
            GridShape::new(6, 6),
            1,
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
        let t = CprTensor::from_coords(GridShape::new(6, 6), 1, &[PillarCoord::new(0, 0)]);
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
    fn fused_outputs_match_output_coords_helper() {
        let t = sample();
        for kind in [ConvKind::SpConv, ConvKind::SpStConv] {
            let book = generate(&t, kind, KernelShape::k3x3());
            let outs = crate::rulegen::output_coords(&t, kind, KernelShape::k3x3());
            assert_eq!(book.output_coords(), &outs[..], "kind {kind}");
        }
        let book = generate(&t, ConvKind::SpDeconv, KernelShape::k2x2());
        let outs = crate::rulegen::output_coords(&t, ConvKind::SpDeconv, KernelShape::k2x2());
        assert_eq!(book.output_coords(), &outs[..]);
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
        let t = CprTensor::empty(GridShape::new(8, 8), 1);
        for kind in [ConvKind::SpConv, ConvKind::SpConvS, ConvKind::SpStConv] {
            let book = generate(&t, kind, KernelShape::k3x3());
            assert_eq!(book.num_rules(), 0, "kind {kind}");
            assert_eq!(book.num_outputs(), 0, "kind {kind}");
        }
    }
}
