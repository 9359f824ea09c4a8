//! Temporal delta execution: counting the rule-generation work SPADE's RGU
//! would redo on consecutive frames of one drive.
//!
//! Consecutive frames of a persistent drive share most of their active
//! pillars (~0.88 consecutive-frame overlap on scripted scenarios). A layer
//! sweep is row-independent: output row `o` reads only the input rows inside
//! its receptive-field band (`input_row_band`), so a frame-to-frame change
//! confined to a few input rows can only affect the output rows whose band
//! touches them. An RGU that kept the previous frame's rules would re-sweep
//! just those rows.
//!
//! The host does not: every layer on every path runs the same full
//! `ExecutionArena::sweep_layer`, so the delta path's results are the plain
//! path's by construction. `--delta` is accounting beside that sweep. For
//! each sparse layer of a delta frame:
//!
//! 1. **Row diff** — a *dirty* input row is one whose bitmap words differ
//!    from the layer's cached bitmap of the previous frame.
//! 2. **Halo rows** — an output row counts as re-swept iff any input row in
//!    its receptive-field band is dirty (a running count of dirty input rows
//!    answers each band in O(1)); no dirty row counts the layer as reused.
//! 3. **Fallback** — when the frame's [`changed_fraction`] exceeds the
//!    [`DeltaPolicy`] threshold (always for frame 0 and i.i.d. drives, where
//!    overlap is near zero), every layer counts as a full re-sweep.
//!
//! Either way the layer's input bitmap is cached for the next frame.
//! [`FrameDeltaState`] carries those bitmaps and the counters for the one
//! pattern-level executor entry point, [`crate::graph::execute_pattern`]
//! (pass `Some(&mut state)`); once warm, its buffers stop growing.

use crate::conv::ConvKind;
use crate::graph::LayerInput;
use crate::kernel::KernelShape;
use crate::rulegen::output_grid;
use crate::rulegen::streaming::input_row_band;
use serde::{Deserialize, Serialize};
use spade_tensor::{GridShape, PillarCoord};
use std::sync::Arc;

/// When to take the delta path instead of a full sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaPolicy {
    /// Maximum changed fraction (see [`changed_fraction`]) at which a frame
    /// is counted as a delta frame; above it every layer counts as a full
    /// re-sweep, as most rows would be dirty anyway. Frames *at* the
    /// threshold take the delta path.
    pub threshold: f64,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        // Persistent scripted drives measure ~0.1 changed fraction between
        // consecutive frames; i.i.d. drives measure ~1.0. Anything near the
        // middle means most rows are dirty and re-sweeping them saves little.
        Self { threshold: 0.35 }
    }
}

impl DeltaPolicy {
    /// Whether a frame with the given changed fraction takes the delta path.
    #[must_use]
    pub fn accepts(&self, fraction: f64) -> bool {
        fraction <= self.threshold
    }
}

/// The fraction of active pillars that changed between two sorted coord
/// sets: `|symmetric difference| / max(|prev|, |next|, 1)`, a single merge
/// walk over the two CPR-ordered slices. Ranges over `[0, 2]` (a fully
/// disjoint pair counts both its additions and removals).
#[must_use]
pub fn changed_fraction(prev: &[PillarCoord], next: &[PillarCoord]) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < prev.len() && j < next.len() {
        match prev[i].cmp(&next[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let changed = (prev.len() - inter) + (next.len() - inter);
    changed as f64 / prev.len().max(next.len()).max(1) as f64
}

/// Deterministic counters of the rule-generation work the delta path
/// models over a drive. The host sweeps every row of every layer either
/// way; these count what an RGU keeping the previous frame would redo.
///
/// `modelled_speedup` is the rulegen-row ratio (rows a full per-frame sweep
/// would walk over rows counted as re-swept) — a pure function of the frame
/// stream, so it is identical across `--jobs` settings, unlike wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeltaStats {
    /// Frames executed through a delta-capable entry point.
    pub frames_total: usize,
    /// Frames that passed the [`DeltaPolicy`] gate (vs full-sweep fallback).
    pub frames_delta: usize,
    /// Sparse layer executions on delta frames whose input was unchanged
    /// since the previous frame: no row counted as re-swept.
    pub layers_reused: usize,
    /// Sparse layer executions on delta frames whose input changed: only the
    /// output rows whose band touches a changed input row count as re-swept.
    pub layers_patched: usize,
    /// Sparse layer executions on fallback frames (first frame, too much
    /// change, network or grid switch): every output row counts.
    pub layers_full: usize,
    /// Output rows a from-scratch sweep of every frame would have walked.
    pub rows_full_equivalent: u64,
    /// Output rows counted as re-swept.
    pub rows_swept: u64,
}

impl DeltaStats {
    /// Rulegen work ratio: rows a full sweep would walk over rows swept.
    /// `1.0` when nothing ran.
    #[must_use]
    pub fn modelled_speedup(&self) -> f64 {
        if self.rows_full_equivalent == 0 {
            return 1.0;
        }
        self.rows_full_equivalent as f64 / self.rows_swept.max(1) as f64
    }

    /// Folds another drive's counters into this one (per-model aggregation
    /// in the DSE sweep).
    pub fn merge(&mut self, other: &DeltaStats) {
        self.frames_total += other.frames_total;
        self.frames_delta += other.frames_delta;
        self.layers_reused += other.layers_reused;
        self.layers_patched += other.layers_patched;
        self.layers_full += other.layers_full;
        self.rows_full_equivalent += other.rows_full_equivalent;
        self.rows_swept += other.rows_swept;
    }
}

/// Cross-frame state for [`crate::graph::execute_pattern`]: one drive's
/// delta counters and the previous frame's per-layer input bitmaps. Feed
/// frames of **one** drive in order through a single state; the executor
/// resets the bitmaps automatically if the network or grid changes
/// underneath it.
#[derive(Debug)]
pub struct FrameDeltaState {
    /// Fallback policy.
    pub(crate) policy: DeltaPolicy,
    /// Running counters (never reset by cache invalidation).
    pub(crate) stats: DeltaStats,
    /// The previous frame's normalised initial coords.
    pub(crate) prev_initial: Option<Arc<[PillarCoord]>>,
    /// Grid the caches were recorded on.
    pub(crate) grid: Option<GridShape>,
    /// What each cached layer's rows depend on besides its input coords:
    /// `(kind, kernel, input source, densify_input)`. Two networks can share
    /// a grid and a layer count (SPP1 and SPP3 both have 23 layers) and still
    /// differ here, so the executor compares these per layer.
    pub(crate) network: Vec<(ConvKind, KernelShape, LayerInput, bool)>,
    /// Row bitmap of each layer's input last frame (the arena's layout:
    /// `width.div_ceil(64)` words per row), indexed like the pattern's layer
    /// list; empty until recorded, and always empty for dense layers.
    pub(crate) prev_bits: Vec<Vec<u64>>,
    /// Scratch of the row diff: entry `r` counts the dirty input rows among
    /// rows `0..r`. Reused across layers and frames.
    pub(crate) dirty_before: Vec<u32>,
}

impl FrameDeltaState {
    /// A fresh state with the given fallback policy.
    #[must_use]
    pub fn new(policy: DeltaPolicy) -> Self {
        Self {
            policy,
            stats: DeltaStats::default(),
            prev_initial: None,
            grid: None,
            network: Vec::new(),
            prev_bits: Vec::new(),
            dirty_before: Vec::new(),
        }
    }

    /// The fallback policy.
    #[must_use]
    pub fn policy(&self) -> DeltaPolicy {
        self.policy
    }

    /// The counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Returns the counters accumulated since the last take and resets
    /// them (the frame caches are untouched). This is the hand-off a
    /// long-lived owner uses to fold one state's recent activity into an
    /// aggregate — e.g. `spade-serve` keeps one state per (drive, model)
    /// stream and drains each state's counters into its service-wide
    /// [`DeltaStats`] after every frame, without double counting and
    /// without giving up the state's warm caches.
    pub fn take_stats(&mut self) -> DeltaStats {
        std::mem::take(&mut self.stats)
    }

    /// Drops the cached previous frame (the counters survive). The next
    /// frame counts as a full re-sweep and re-records.
    pub fn invalidate(&mut self) {
        self.prev_initial = None;
        self.grid = None;
        self.network.clear();
        self.prev_bits.iter_mut().for_each(Vec::clear);
    }

    /// Counts sparse layer `li`'s execution, beside the sweep that just read
    /// the input bitmap `bits` (the arena's layout) on `in_grid`, and caches
    /// `bits` for the next frame. On a delta frame (`delta_frame`), the
    /// output rows whose band touches a dirty input row count as re-swept;
    /// otherwise every output row does.
    pub(crate) fn count_layer(
        &mut self,
        li: usize,
        bits: &[u64],
        in_grid: GridShape,
        kind: ConvKind,
        kernel: KernelShape,
        delta_frame: bool,
    ) {
        let out_rows = output_grid(in_grid, kind).height;
        let prev = &mut self.prev_bits[li];
        let stats = &mut self.stats;
        stats.rows_full_equivalent += u64::from(out_rows);
        if !delta_frame {
            stats.layers_full += 1;
            stats.rows_swept += u64::from(out_rows);
            prev.clear();
            prev.extend_from_slice(bits);
            return;
        }
        debug_assert_eq!(prev.len(), bits.len(), "recorded on this grid");
        // Row diff, recording this frame's rows over the cached ones as it
        // goes: entry `r` of `dirty_before` counts the dirty rows in `0..r`.
        let words = in_grid.width.div_ceil(64) as usize;
        let dirty_before = &mut self.dirty_before;
        dirty_before.clear();
        dirty_before.push(0);
        let mut dirty = 0u32;
        for (p, b) in prev.chunks_exact_mut(words).zip(bits.chunks_exact(words)) {
            if p != b {
                p.copy_from_slice(b);
                dirty += 1;
            }
            dirty_before.push(dirty);
        }
        if dirty == 0 {
            stats.layers_reused += 1;
            return;
        }
        stats.layers_patched += 1;
        stats.rows_swept += (0..out_rows)
            .filter(|&o| {
                input_row_band(o, in_grid, kind, kernel).is_some_and(|(lo, hi)| {
                    dirty_before[hi as usize + 1] > dirty_before[lo as usize]
                })
            })
            .count() as u64;
    }
}

impl Default for FrameDeltaState {
    fn default() -> Self {
        Self::new(DeltaPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_stats_drains_counters_but_keeps_the_frame_cache() {
        let mut state = FrameDeltaState::default();
        state.stats.frames_total = 3;
        state.stats.frames_delta = 2;
        state.prev_initial = Some(Arc::from(&[PillarCoord::new(1, 1)][..]));
        let taken = state.take_stats();
        assert_eq!(taken.frames_total, 3);
        assert_eq!(taken.frames_delta, 2);
        // Counters reset; the cached previous frame survives, so the next
        // frame can still take the delta path.
        assert_eq!(state.stats(), DeltaStats::default());
        assert!(state.prev_initial.is_some());
    }

    #[test]
    fn changed_fraction_is_a_merge_walk_symdiff() {
        let a = [
            PillarCoord::new(0, 0),
            PillarCoord::new(1, 1),
            PillarCoord::new(2, 2),
        ];
        let b = [
            PillarCoord::new(0, 0),
            PillarCoord::new(1, 2),
            PillarCoord::new(2, 2),
        ];
        // One removed + one added over max size 3.
        assert!((changed_fraction(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(changed_fraction(&a, &a), 0.0);
        assert_eq!(changed_fraction(&[], &[]), 0.0);
        assert_eq!(changed_fraction(&a, &[]), 1.0);
        // Fully disjoint sets count both sides of the symmetric difference.
        let c = [PillarCoord::new(5, 5)];
        assert!((changed_fraction(&a, &c) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn policy_boundary_is_inclusive() {
        let policy = DeltaPolicy { threshold: 0.25 };
        assert!(policy.accepts(0.25), "exactly at threshold takes delta");
        assert!(!policy.accepts(0.25 + 1e-9));
    }

    #[test]
    fn stats_speedup_is_the_row_ratio() {
        let mut s = DeltaStats::default();
        assert_eq!(s.modelled_speedup(), 1.0);
        s.rows_full_equivalent = 100;
        s.rows_swept = 10;
        assert!((s.modelled_speedup() - 10.0).abs() < 1e-12);
        let mut t = DeltaStats {
            frames_total: 2,
            frames_delta: 1,
            ..DeltaStats::default()
        };
        t.merge(&s);
        assert_eq!(t.rows_full_equivalent, 100);
        assert_eq!(t.frames_total, 2);
    }

    #[test]
    fn delta_state_invalidation_keeps_counters() {
        let mut state = FrameDeltaState::default();
        state.stats.frames_total = 3;
        state.prev_bits.push(vec![1]);
        state.invalidate();
        assert!(state.prev_bits[0].is_empty());
        assert_eq!(state.stats().frames_total, 3);
    }
}
