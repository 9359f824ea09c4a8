//! Reusable scratch buffers and the one row sweep of pattern-level execution.
//!
//! [`crate::graph::execute_pattern`] — the single executor entry point —
//! runs every sparse layer through `ExecutionArena::sweep_layer`: the
//! paper's streaming RGU row merge, applied output row by output row over a
//! row index of the layer's input. On the temporal delta path the same loop
//! copies clean rows from the previous frame instead of re-sweeping them.
//! The arena holds the scratch that sweep needs — the row index, the merge
//! streams, the output-coordinate buffer, the delta path's dirty-row flags
//! and staged row structure, and a cache of dense all-cells sets — so
//! consecutive layers (and consecutive `execute_pattern` calls that share one
//! arena) reuse the same capacity instead of reallocating.

use crate::conv::ConvKind;
use crate::kernel::KernelShape;
use crate::rulegen::delta::LayerDeltaCache;
use crate::rulegen::output_grid;
use crate::rulegen::streaming::{
    input_row_band, sweep_output_row, CoordSink, SliceRows, StreamState,
};
use spade_tensor::{GridShape, PillarCoord};
use std::sync::Arc;

/// Scratch buffers threaded through pattern-level execution. Create one and
/// reuse it across layers and frames; every buffer retains its capacity.
#[derive(Debug, Default)]
pub struct ExecutionArena {
    /// Row pointer array over the current input slice (`height + 1` entries).
    row_ptr: Vec<usize>,
    /// Column index of each input pillar, grouped by row.
    cols: Vec<u32>,
    /// Merge-stream state of the fused sweep (`kh·kw` entries at most).
    streams: Vec<StreamState>,
    /// Output coordinates of the current sweep.
    out_coords: Vec<PillarCoord>,
    /// General coordinate scratch (union merging, input normalisation).
    pub(crate) scratch: Vec<PillarCoord>,
    /// Delta path: dirty flag per input row of the current layer.
    dirty_in: Vec<bool>,
    /// Delta path: output row pointer being staged for the layer cache.
    staged_row_ptr: Vec<usize>,
    /// Delta path: per-row rule counts being staged for the layer cache.
    staged_row_rules: Vec<u64>,
    /// Cached all-cells coordinate sets, one per dense grid seen.
    dense_cells: Vec<(GridShape, Arc<[PillarCoord]>)>,
}

impl ExecutionArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the row index (`row_ptr` + `cols`) over a CPR-sorted slice.
    fn index_rows(&mut self, coords: &[PillarCoord], grid: GridShape) {
        debug_assert!(
            coords.windows(2).all(|w| w[0] < w[1]),
            "arena sweeps require strictly CPR-sorted coordinates"
        );
        self.row_ptr.clear();
        self.row_ptr.resize(grid.height as usize + 1, 0);
        for c in coords {
            self.row_ptr[c.row as usize + 1] += 1;
        }
        for i in 1..self.row_ptr.len() {
            self.row_ptr[i] += self.row_ptr[i - 1];
        }
        self.cols.clear();
        self.cols.extend(coords.iter().map(|c| c.col));
    }

    /// Sweeps one sparse layer (any kind but [`ConvKind::Dense`]): indexes
    /// the input rows once, then walks the output rows, producing the active
    /// output coordinates (CPR order, in an internal buffer) and the rule
    /// count together. [`ConvKind::SpConvS`] keeps its input set as its
    /// output set, so the sweep emits no outputs for it and the returned
    /// slice is empty.
    ///
    /// `delta` is `(cache, splice)` on the temporal delta path. The sweep
    /// then records this frame's row structure — input row pointer, output
    /// row spans, per-row rule counts — into `cache` for the next frame, and
    /// with `splice` set, each output row whose receptive-field band saw no
    /// input change since the cached frame is copied from the cache instead
    /// of swept. Dirty rows are swept exactly as on the full path, so the
    /// result is byte-identical either way. The cache's coordinate sets
    /// (`input`, `dilated`) are the caller's to re-point.
    ///
    /// Returns the output slice, the rule count, and the number of output
    /// rows actually swept.
    pub(crate) fn sweep_layer(
        &mut self,
        coords: &[PillarCoord],
        in_grid: GridShape,
        kind: ConvKind,
        kernel: KernelShape,
        delta: Option<(&mut LayerDeltaCache, bool)>,
    ) -> (&[PillarCoord], u64, u64) {
        let out_grid = output_grid(in_grid, kind);
        self.index_rows(coords, in_grid);
        let Self {
            row_ptr,
            cols,
            streams,
            out_coords,
            dirty_in,
            staged_row_ptr,
            staged_row_rules,
            ..
        } = self;
        // On the delta path, stage the new row structure; when splicing, a
        // dirty input row is one whose column set differs between the cached
        // previous input and the current one.
        let record = delta.is_some();
        let splice = delta.as_ref().filter(|(_, s)| *s).map(|(c, _)| &**c);
        if record {
            staged_row_ptr.clear();
            staged_row_ptr.push(0);
            staged_row_rules.clear();
        }
        if let Some(cache) = splice {
            let prev = cache
                .input
                .as_deref()
                .expect("splicing requires a recorded layer input");
            dirty_in.clear();
            dirty_in.extend((0..in_grid.height as usize).map(|r| {
                let prev = &prev[cache.in_row_ptr[r]..cache.in_row_ptr[r + 1]];
                let next = &cols[row_ptr[r]..row_ptr[r + 1]];
                prev.len() != next.len() || prev.iter().zip(next).any(|(p, &n)| p.col != n)
            }));
        }
        let rows = SliceRows { row_ptr, cols };
        out_coords.clear();
        let mut rules = 0u64;
        let mut swept = 0u64;
        for o in 0..out_grid.height {
            let clean = splice.filter(|_| {
                !input_row_band(o, in_grid, kind, kernel)
                    .is_some_and(|(lo, hi)| dirty_in[lo as usize..=hi as usize].contains(&true))
            });
            let row_rules = if let Some(cache) = clean {
                let prev_dilated = cache
                    .dilated
                    .as_deref()
                    .expect("splicing requires a recorded dilation");
                let span = cache.out_row_ptr[o as usize]..cache.out_row_ptr[o as usize + 1];
                out_coords.extend_from_slice(&prev_dilated[span]);
                cache.row_rules[o as usize]
            } else {
                swept += 1;
                let base = out_coords.len();
                let sink = &mut CoordSink(out_coords);
                sweep_output_row(
                    &rows, in_grid, out_grid, kind, kernel, streams, sink, o, base,
                )
                .1
            };
            if record {
                staged_row_ptr.push(out_coords.len());
                staged_row_rules.push(row_rules);
            }
            rules += row_rules;
        }
        // Commit this frame into the cache, swapping the staged row
        // structures in so their capacity is reused next frame.
        if let Some((cache, _)) = delta {
            std::mem::swap(&mut cache.out_row_ptr, staged_row_ptr);
            std::mem::swap(&mut cache.row_rules, staged_row_rules);
            cache.in_row_ptr.clear();
            cache.in_row_ptr.extend_from_slice(row_ptr);
            cache.rules = rules;
        }
        (out_coords, rules, swept)
    }

    /// Capacities of the arena's scratch buffers — pinned by the test that
    /// asserts the steady-state delta path stops allocating.
    #[must_use]
    pub fn scratch_capacities(&self) -> [usize; 8] {
        [
            self.row_ptr.capacity(),
            self.cols.capacity(),
            self.streams.capacity(),
            self.out_coords.capacity(),
            self.scratch.capacity(),
            self.dirty_in.capacity(),
            self.staged_row_ptr.capacity(),
            self.staged_row_rules.capacity(),
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

    /// Union of several CPR-sorted coordinate sets, cropped to `grid` —
    /// the concatenation semantics of [`crate::graph::LayerInput::Union`].
    pub(crate) fn union_coords<'a>(
        &mut self,
        sets: impl Iterator<Item = &'a [PillarCoord]>,
        grid: GridShape,
    ) -> Arc<[PillarCoord]> {
        self.scratch.clear();
        for s in sets {
            self.scratch
                .extend(s.iter().copied().filter(|c| c.in_bounds(grid)));
        }
        self.scratch.sort_unstable();
        self.scratch.dedup();
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
            let (out, rules, _) = arena.sweep_layer(&cs, grid, kind, kernel, None);
            assert_eq!(
                out,
                &rulegen::output_coords(&t, kind, kernel)[..],
                "outputs for {kind}"
            );
            let book = rulegen::generate_rules(&t, kind, kernel);
            assert_eq!(rules, book.num_rules() as u64, "rules for {kind}");
        }
    }

    #[test]
    fn submanifold_count_matches_rulebook() {
        let grid = GridShape::new(8, 8);
        let cs = coords();
        let t = CprTensor::from_sorted_coords(grid, 1, &cs);
        let mut arena = ExecutionArena::new();
        let (out, rules, _) =
            arena.sweep_layer(&cs, grid, ConvKind::SpConvS, KernelShape::k3x3(), None);
        assert!(out.is_empty(), "submanifold layers keep their input set");
        let book = rulegen::generate_rules(&t, ConvKind::SpConvS, KernelShape::k3x3());
        assert_eq!(rules, book.num_rules() as u64);
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
    fn delta_splice_methods_match_full_sweeps() {
        let grid = GridShape::new(16, 16);
        let prev: Vec<PillarCoord> = vec![
            PillarCoord::new(1, 1),
            PillarCoord::new(1, 2),
            PillarCoord::new(4, 6),
            PillarCoord::new(7, 0),
            PillarCoord::new(12, 9),
        ];
        // Move one pillar: rows 4 and 5 become dirty, the rest splice.
        let next: Vec<PillarCoord> = vec![
            PillarCoord::new(1, 1),
            PillarCoord::new(1, 2),
            PillarCoord::new(5, 6),
            PillarCoord::new(7, 0),
            PillarCoord::new(12, 9),
        ];
        let prev_arc: Arc<[PillarCoord]> = Arc::from(&prev[..]);
        // Submanifold counts splice row-wise through the same loop.
        for (kind, kernel) in [
            (ConvKind::SpConv, KernelShape::k3x3()),
            (ConvKind::SpStConv, KernelShape::k3x3()),
            (ConvKind::SpDeconv, KernelShape::k2x2()),
            (ConvKind::SpConvS, KernelShape::k3x3()),
        ] {
            let full = |coords: &[PillarCoord]| {
                let mut arena = ExecutionArena::new();
                let (o, r, _) = arena.sweep_layer(coords, grid, kind, kernel, None);
                (o.to_vec(), r)
            };
            let mut arena = ExecutionArena::new();
            let mut cache = LayerDeltaCache::default();
            let (out, rules, swept) =
                arena.sweep_layer(&prev, grid, kind, kernel, Some((&mut cache, false)));
            let recorded: Arc<[PillarCoord]> = Arc::from(out);
            let out_rows = u64::from(output_grid(grid, kind).height);
            assert_eq!(swept, out_rows, "recording sweeps every row for {kind}");
            cache.dilated = Some(Arc::clone(&recorded));
            cache.input = Some(Arc::clone(&prev_arc));
            let (full_out, full_rules) = full(&prev);
            assert_eq!(&recorded[..], &full_out[..], "record diverged for {kind}");
            assert_eq!(rules, full_rules, "record rules diverged for {kind}");
            let (patched, rules, swept) =
                arena.sweep_layer(&next, grid, kind, kernel, Some((&mut cache, true)));
            let (oracle, oracle_rules) = full(&next);
            assert_eq!(patched, &oracle[..], "splice diverged for {kind}");
            assert_eq!(rules, oracle_rules, "splice rules diverged for {kind}");
            assert!(swept > 0 && swept < out_rows, "kind {kind}: swept {swept}");
        }
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
        // Warm-up: one full frame plus one delta frame of each flavour.
        for coords in [&a, &b, &a] {
            let _ = execute_pattern(&spec, coords, grid, 0, &ctx, &mut arena, Some(&mut state));
        }
        let arena_caps = arena.scratch_capacities();
        // Steady state: the coord-diff and halo-row scratch buffers must be
        // reused as-is — zero reallocation on the delta path.
        for coords in [&b, &a, &b, &a, &b] {
            let _ = execute_pattern(&spec, coords, grid, 0, &ctx, &mut arena, Some(&mut state));
            assert_eq!(arena.scratch_capacities(), arena_caps);
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
}
