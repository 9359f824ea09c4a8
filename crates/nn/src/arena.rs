//! Reusable scratch buffers and the one row sweep of pattern-level execution.
//!
//! [`crate::graph::execute_pattern`] — the single executor entry point —
//! runs every sparse layer through `ExecutionArena::sweep_layer`, which
//! works on occupancy bitmaps: the layer's input is indexed as one row of
//! `width.div_ceil(64)` `u64` words per grid row, and each output row is
//! computed word by word from the input rows its receptive field covers.
//! Every sparse kind is word-parallel:
//!
//! - SpConv / SpConv-P dilation is the OR of the covered input rows, each
//!   shifted by its tap's column offset `dc`;
//! - the rule count is the popcount of every in-bounds shifted tap row —
//!   for SpConv-S AND'd first with the layer's own input row, since its
//!   outputs are its inputs;
//! - SpStConv compacts the shifted row's even bits, SpDeconv spreads the
//!   input row onto even bits before shifting.
//!
//! Output coordinates come out of the finished row by walking its set bits
//! (`trailing_zeros`), so they are in CPR order. The counts and sets equal
//! what the RGU's streaming merge ([`crate::rulegen::streaming`]) produces,
//! pinned by this module's tests against `generate_rules` and the hash/sort
//! oracles. Every path runs this one sweep; the temporal delta path only
//! compares the input bitmap it leaves behind with the previous frame's
//! ([`crate::rulegen::delta`]). The arena holds the scratch the sweep needs —
//! the input bitmap (also the neck union's), the output row words, the
//! output-coordinate buffer, and a cache of dense all-cells sets — so
//! consecutive layers (and consecutive `execute_pattern` calls that share one
//! arena) reuse the same capacity instead of reallocating.

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rulegen::output_grid;
use crate::rulegen::streaming::input_row;
use spade_tensor::{GridShape, PillarCoord};
use std::sync::Arc;

/// Scratch buffers threaded through pattern-level execution. Create one and
/// reuse it across layers and frames; every buffer retains its capacity.
#[derive(Debug, Default)]
pub struct ExecutionArena {
    /// Row bitmap of the current layer's input, or of the union being
    /// built: bit `c % 64` of word `c / 64` of a row is column `c`.
    bits: Vec<u64>,
    /// The output row being accumulated (one row's words).
    row: Vec<u64>,
    /// SpDeconv: one input row spread onto even bits at output width.
    spread: Vec<u64>,
    /// Output coordinates of the current sweep.
    out_coords: Vec<PillarCoord>,
    /// General coordinate scratch (union output, input normalisation).
    pub(crate) scratch: Vec<PillarCoord>,
    /// Cached all-cells coordinate sets, one per dense grid seen.
    dense_cells: Vec<(GridShape, Arc<[PillarCoord]>)>,
}

/// Words per bitmap row of a grid `width` columns wide.
fn row_words(width: u32) -> usize {
    width.div_ceil(64) as usize
}

/// Clears `bits` to a `grid`-sized bitmap and sets the bit of every
/// coordinate inside `grid`.
fn set_bits<'a>(
    bits: &mut Vec<u64>,
    grid: GridShape,
    sets: impl IntoIterator<Item = &'a [PillarCoord]>,
) {
    let words = row_words(grid.width);
    bits.clear();
    bits.resize(grid.height as usize * words, 0);
    for c in sets.into_iter().flatten().filter(|c| c.in_bounds(grid)) {
        bits[c.row as usize * words + c.col as usize / 64] |= 1u64 << (c.col % 64);
    }
}

/// Appends the set bits of row `o`'s words as coordinates, in column order.
fn push_row(words: &[u64], o: u32, out: &mut Vec<PillarCoord>) {
    for (w, &word) in (0u32..).zip(words) {
        let mut rest = word;
        while rest != 0 {
            out.push(PillarCoord::new(o, w * 64 + rest.trailing_zeros()));
            rest &= rest - 1;
        }
    }
}

/// Word `w` of `row` shifted so that bit `b` of the result is bit `b + s` of
/// `row`; bits outside `row` read as zero. `|s|` must stay below 64.
fn shifted_word(row: &[u64], w: usize, s: i32) -> u64 {
    let word = |i: usize| row.get(i).copied().unwrap_or(0);
    let t = s.unsigned_abs();
    debug_assert!(t < 64, "bitmap shifts stay inside one word");
    match s.signum() {
        1 => (word(w) >> t) | (word(w + 1) << (64 - t)),
        -1 => (word(w) << t) | w.checked_sub(1).map_or(0, |v| word(v) >> (64 - t)),
        _ => word(w),
    }
}

/// Gathers bits 0, 2, …, 62 of `x` into its low 32 bits (stride-2 columns).
fn compact_even(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    (x | (x >> 16)) & 0x0000_0000_ffff_ffff
}

/// Spreads the low 32 bits of `x` onto bits 0, 2, …, 62 (the inverse of
/// [`compact_even`]: input column `c` lands on output column `2c`).
fn spread_even(x: u64) -> u64 {
    let mut x = x & 0x0000_0000_ffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

/// The word geometry of one sparse layer's bitmap sweep.
struct BitmapLayer {
    kind: ConvKind,
    kernel: KernelShape,
    in_grid: GridShape,
    /// Words per input row.
    in_words: usize,
    /// Words per output row.
    out_words: usize,
    /// Valid bits of an output row's last word.
    tail: u64,
}

impl BitmapLayer {
    fn new(in_grid: GridShape, kind: ConvKind, kernel: KernelShape) -> Self {
        debug_assert!(kind != ConvKind::Dense, "dense layers bypass the sweep");
        // Column offsets span at most `kw - 1`, so every shift stays below
        // one word.
        assert!(
            kernel.kw <= 64,
            "bitmap sweeps support kernels up to 64 columns wide, got {}",
            kernel.kw
        );
        let out_width = output_grid(in_grid, kind).width;
        let out_words = row_words(out_width);
        Self {
            kind,
            kernel,
            in_grid,
            in_words: row_words(in_grid.width),
            out_words,
            tail: u64::MAX >> (out_words * 64 - out_width as usize),
        }
    }

    /// Input row `r`'s words.
    fn in_row<'b>(&self, bits: &'b [u64], r: usize) -> &'b [u64] {
        &bits[r * self.in_words..(r + 1) * self.in_words]
    }

    /// Sweeps output row `o` over the input bitmap `bits`: leaves the row's
    /// active output columns in `row` (left zero for SpConv-S, whose outputs
    /// are its inputs) and returns the row's rule count. `spread` is
    /// SpDeconv's scratch row.
    fn sweep_row(&self, bits: &[u64], o: u32, row: &mut [u64], spread: &mut [u64]) -> u64 {
        row.fill(0);
        let own = (self.kind == ConvKind::SpConvS).then(|| self.in_row(bits, o as usize));
        if own.is_some_and(|own| own.iter().all(|&w| w == 0)) {
            return 0;
        }
        let last = self.out_words - 1;
        let (cr, cc) = self.kernel.centre();
        let (cr, cc) = (i64::from(cr), i64::from(cc));
        let mut rules = 0u64;
        for kr in 0..i64::from(self.kernel.kh) {
            let Some(p) = input_row(o, kr - cr, self.kind, self.in_grid.height) else {
                continue;
            };
            let src = self.in_row(bits, p as usize);
            if src.iter().all(|&w| w == 0) {
                continue;
            }
            if self.kind == ConvKind::SpDeconv {
                for (j, w) in spread.iter_mut().enumerate() {
                    *w = spread_even(src[j / 2] >> (32 * (j % 2)));
                }
            }
            for kc in 0..i64::from(self.kernel.kw) {
                let dc = (kc - cc) as i32;
                for w in 0..self.out_words {
                    // Output column q of this tap reads input column q + dc
                    // (stride 1), 2q + dc (SpStConv), or (q − dc) / 2
                    // (SpDeconv, via the spread row).
                    let mut v = match self.kind {
                        ConvKind::SpStConv => {
                            compact_even(shifted_word(src, 2 * w, dc))
                                | compact_even(shifted_word(src, 2 * w + 1, dc)) << 32
                        }
                        ConvKind::SpDeconv => shifted_word(spread, w, -dc),
                        _ => shifted_word(src, w, dc),
                    };
                    if w == last {
                        v &= self.tail;
                    }
                    if let Some(own) = own {
                        v &= own[w];
                    } else {
                        row[w] |= v;
                    }
                    rules += u64::from(v.count_ones());
                }
            }
        }
        rules
    }
}

impl ExecutionArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sweeps one sparse layer (any kind but [`ConvKind::Dense`]): indexes
    /// the input as a row bitmap once, then computes the output rows word by
    /// word, producing the active output coordinates (CPR order, in an
    /// internal buffer) and the rule count together. [`ConvKind::SpConvS`]
    /// keeps its input set as its output set, so the sweep emits no outputs
    /// for it and the returned slice is empty.
    pub(crate) fn sweep_layer(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kind: ConvKind,
        kernel: KernelShape,
    ) -> (&[PillarCoord], u64) {
        debug_assert!(
            coords.iter().all(|c| c.in_bounds(in_grid)),
            "layer inputs lie inside their grid"
        );
        let out_grid = output_grid(in_grid, kind);
        let layer = BitmapLayer::new(in_grid, kind, kernel);
        set_bits(&mut self.bits, in_grid, [coords]);
        let Self {
            bits,
            row,
            spread,
            out_coords,
            ..
        } = self;
        row.clear();
        row.resize(layer.out_words, 0);
        spread.clear();
        spread.resize(layer.out_words, 0);
        out_coords.clear();
        let mut rules = 0u64;
        for o in 0..out_grid.height {
            rules += layer.sweep_row(bits, o, row, spread);
            push_row(row, o, out_coords);
        }
        (out_coords, rules)
    }

    /// The row bitmap of the input the last [`Self::sweep_layer`] read:
    /// `width.div_ceil(64)` words per grid row, bit `c % 64` of word `c / 64`
    /// set for an active column `c`.
    pub(crate) fn input_bits(&self) -> &[u64] {
        &self.bits
    }

    /// Capacities of the arena's scratch buffers — pinned by the test that
    /// asserts the scratch stops growing on the steady-state delta path.
    #[must_use]
    pub fn scratch_capacities(&self) -> [usize; 5] {
        [
            self.bits.capacity(),
            self.row.capacity(),
            self.spread.capacity(),
            self.out_coords.capacity(),
            self.scratch.capacity(),
        ]
    }

    /// The all-cells coordinate set of a grid, cached per grid shape so the
    /// dense layers of a network share one allocation.
    pub fn dense_cells(&mut self, grid: GridShape) -> Arc<[PillarCoord]> {
        if let Some((_, cells)) = self.dense_cells.iter().find(|(g, _)| *g == grid) {
            return Arc::clone(cells);
        }
        let cells: Arc<[PillarCoord]> = Arc::from(grid.all_cells());
        self.dense_cells.push((grid, Arc::clone(&cells)));
        cells
    }

    /// Union of several coordinate sets, cropped to `grid` — the
    /// concatenation semantics of [`crate::graph::LayerInput::Union`].
    ///
    /// The union is the OR of the inputs' bits in the arena's row bitmap,
    /// read back row by row in CPR order.
    pub(crate) fn union_coords<'a>(
        &mut self,
        sets: impl Iterator<Item = &'a [PillarCoord]>,
        grid: GridShape,
    ) -> Arc<[PillarCoord]> {
        set_bits(&mut self.bits, grid, sets);
        self.scratch.clear();
        let words = row_words(grid.width);
        for (o, row) in (0u32..).zip(self.bits.chunks_exact(words)) {
            push_row(row, o, &mut self.scratch);
        }
        Arc::from(&self.scratch[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rulegen;
    use spade_tensor::CprTensor;

    fn coords() -> Vec<PillarCoord> {
        vec![
            PillarCoord::new(1, 1),
            PillarCoord::new(1, 2),
            PillarCoord::new(4, 6),
            PillarCoord::new(7, 0),
        ]
    }

    #[test]
    fn dilate_and_count_matches_reference_passes() {
        let grid = GridShape::new(8, 8);
        let cs = coords();
        let t = CprTensor::from_sorted_coords(grid, 1, &cs);
        let mut arena = ExecutionArena::new();
        for (kind, kernel) in [
            (ConvKind::SpConv, KernelShape::k3x3()),
            (ConvKind::SpConvP, KernelShape::k3x3()),
            (ConvKind::SpStConv, KernelShape::k3x3()),
            (ConvKind::SpDeconv, KernelShape::k2x2()),
        ] {
            let (out, rules) = arena.sweep_layer(&cs, grid, kind, kernel);
            let book = rulegen::generate_rules(&t, kind, kernel);
            assert_eq!(out, book.output_coords(), "outputs for {kind}");
            assert_eq!(rules, book.num_rules() as u64, "rules for {kind}");
        }
    }

    #[test]
    fn submanifold_count_matches_rulebook() {
        let grid = GridShape::new(8, 8);
        let cs = coords();
        let t = CprTensor::from_sorted_coords(grid, 1, &cs);
        let mut arena = ExecutionArena::new();
        let (out, rules) = arena.sweep_layer(&cs, grid, ConvKind::SpConvS, KernelShape::k3x3());
        assert!(out.is_empty(), "submanifold layers keep their input set");
        let book = rulegen::generate_rules(&t, ConvKind::SpConvS, KernelShape::k3x3());
        assert_eq!(rules, book.num_rules() as u64);
    }

    /// The bitmap kernel against the rule-book generators on grids whose
    /// rows end before, on and after `u64` word boundaries, for every sparse
    /// kind and kernel size, with pillars on all four grid edges.
    #[test]
    fn bitmap_sweeps_match_rule_books_across_word_boundaries() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        let mut arena = ExecutionArena::new();
        let kernels = [1, 2, 3, 5].map(|k| KernelShape { kh: k, kw: k });
        let kinds = [
            ConvKind::SpConv,
            ConvKind::SpConvS,
            ConvKind::SpConvP,
            ConvKind::SpStConv,
            ConvKind::SpDeconv,
        ];
        for width in [1, 63, 64, 65, 127, 128, 129, 130] {
            for height in [1, 3, 7] {
                let grid = GridShape::new(height, width);
                let density = rng.gen_range(0.02..0.5);
                let mut cs: Vec<PillarCoord> = grid
                    .all_cells()
                    .into_iter()
                    .filter(|_| rng.gen_bool(density))
                    .collect();
                cs.extend([
                    PillarCoord::new(0, rng.gen_range(0..width)),
                    PillarCoord::new(height - 1, rng.gen_range(0..width)),
                    PillarCoord::new(rng.gen_range(0..height), 0),
                    PillarCoord::new(rng.gen_range(0..height), width - 1),
                ]);
                cs.sort_unstable();
                cs.dedup();
                let t = CprTensor::from_sorted_coords(grid, 1, &cs);
                for kind in kinds {
                    for kernel in kernels {
                        let (out, rules) = arena.sweep_layer(&cs, grid, kind, kernel);
                        let case = format!("{kind} {kernel:?} on {height}x{width}");
                        let book = rulegen::generate_rules(&t, kind, kernel);
                        if kind == ConvKind::SpConvS {
                            assert!(out.is_empty(), "{case}");
                        } else {
                            assert_eq!(out, book.output_coords(), "outputs of {case}");
                        }
                        assert_eq!(rules, book.num_rules() as u64, "rules of {case}");
                        for oracle in [
                            rulegen::hash::generate(&t, kind, kernel),
                            rulegen::sort::generate(&t, kind, kernel),
                        ] {
                            assert_eq!(oracle.output_coords(), book.output_coords(), "{case}");
                            assert_eq!(oracle.num_rules(), book.num_rules(), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dense_cells_are_cached_and_row_major() {
        let mut arena = ExecutionArena::new();
        let a = arena.dense_cells(GridShape::new(3, 2));
        let b = arena.dense_cells(GridShape::new(3, 2));
        assert!(Arc::ptr_eq(&a, &b), "same grid must share one allocation");
        assert_eq!(a.len(), 6);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn delta_path_stops_allocating_after_warm_up() {
        use crate::conv::LayerSpec;
        use crate::graph::{
            execute_pattern, ExecutionContext, LayerInput, NetworkLayer, NetworkSpec,
        };
        let grid = GridShape::new(32, 32);
        let spec = NetworkSpec {
            name: "warm".into(),
            encoder_channels: 4,
            layers: vec![
                NetworkLayer {
                    spec: LayerSpec::new("sub", ConvKind::SpConvS, 4, 4),
                    input: LayerInput::Previous,
                    stage: 1,
                    densify_input: false,
                },
                NetworkLayer {
                    spec: LayerSpec::new("conv", ConvKind::SpConv, 4, 4),
                    input: LayerInput::Previous,
                    stage: 1,
                    densify_input: false,
                },
                NetworkLayer {
                    spec: LayerSpec::new("down", ConvKind::SpStConv, 4, 4),
                    input: LayerInput::Previous,
                    stage: 2,
                    densify_input: false,
                },
            ],
        };
        // Two alternating frames differing by one moved pillar: every frame
        // after the first takes the delta path.
        let a: Vec<PillarCoord> = (0..30)
            .map(|i| PillarCoord::new((i * 7) % 32, (i * 11) % 32))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut b = a.clone();
        b.retain(|c| *c != a[4]);
        b.push(PillarCoord::new(a[4].row, (a[4].col + 1) % 32));
        b.sort();
        b.dedup();
        let ctx = ExecutionContext::default();
        let mut arena = ExecutionArena::new();
        let mut state = crate::rulegen::delta::FrameDeltaState::default();
        let state_caps = |state: &crate::rulegen::delta::FrameDeltaState| {
            let mut caps: Vec<usize> = state.prev_bits.iter().map(Vec::capacity).collect();
            caps.push(state.dirty_before.capacity());
            caps
        };
        // Warm-up: one full frame plus one delta frame of each flavour.
        for coords in [&a, &b, &a] {
            let _ = execute_pattern(&spec, coords, grid, 0, &ctx, &mut arena, Some(&mut state));
        }
        let arena_caps = arena.scratch_capacities();
        let delta_caps = state_caps(&state);
        // Steady state: the sweep's scratch and the delta accounting's
        // cached bitmaps and row-diff scratch are reused as-is.
        for coords in [&b, &a, &b, &a, &b] {
            let _ = execute_pattern(&spec, coords, grid, 0, &ctx, &mut arena, Some(&mut state));
            assert_eq!(arena.scratch_capacities(), arena_caps);
            assert_eq!(state_caps(&state), delta_caps);
        }
        assert_eq!(state.stats().frames_total, 8);
        assert_eq!(state.stats().frames_delta, 7);
    }

    #[test]
    fn union_crops_and_dedups() {
        let mut arena = ExecutionArena::new();
        let a = [PillarCoord::new(0, 0), PillarCoord::new(2, 2)];
        let b = [PillarCoord::new(0, 0), PillarCoord::new(5, 5)];
        let grid = GridShape::new(3, 3);
        let u = arena.union_coords([&a[..], &b[..]].into_iter(), grid);
        assert_eq!(&u[..], &[PillarCoord::new(0, 0), PillarCoord::new(2, 2)]);
    }

    #[test]
    fn union_merge_matches_concat_sort_dedup() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        // Crops odd and smaller than the inputs on both axes, so they drop
        // whole trailing rows and the tail columns of every row; the second
        // spans three bitmap words per row and ends inside the third.
        let cases = [
            (GridShape::new(20, 22), GridShape::new(13, 17)),
            (GridShape::new(9, 150), GridShape::new(7, 131)),
        ];
        let mut arena = ExecutionArena::new();
        for trial in 0..200 {
            let (input, grid) = cases[trial / 100];
            let k = rng.gen_range(1..=4usize);
            // Odd trials draw disjoint sets (cells dealt round-robin), even
            // trials independent, overlapping ones.
            let disjoint = trial % 2 == 1;
            let sets: Vec<Vec<PillarCoord>> = (0..k)
                .map(|s| {
                    let density = rng.gen_range(0.0..0.7);
                    input
                        .all_cells()
                        .into_iter()
                        .enumerate()
                        .filter(|&(i, _)| !disjoint || i % k == s)
                        .filter(|_| rng.gen_bool(density))
                        .map(|(_, c)| c)
                        .collect()
                })
                .collect();
            let mut oracle: Vec<PillarCoord> = sets
                .concat()
                .into_iter()
                .filter(|c| c.in_bounds(grid))
                .collect();
            oracle.sort_unstable();
            oracle.dedup();
            let merged = arena.union_coords(sets.iter().map(Vec::as_slice), grid);
            assert_eq!(&merged[..], &oracle[..], "trial {trial}: {k} sets");
        }
    }
}
