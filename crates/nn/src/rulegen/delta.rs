//! Temporal delta execution: the cross-frame state that lets the one row
//! sweep splice the previous frame's output rows instead of re-sweeping them.
//!
//! Consecutive frames of a persistent drive share most of their active
//! pillars (~0.88 consecutive-frame overlap on scripted scenarios), yet a
//! full sweep rebuilds every output row of every layer each frame. A layer
//! sweep is row-independent: output row `o` reads only the input rows inside
//! its receptive-field band (`input_row_band`) and emits a contiguous run of
//! output coordinates. A frame-to-frame change confined to a few input rows
//! can therefore only affect the output rows whose halo band touches them.
//!
//! `ExecutionArena::sweep_layer`, the executor's bitmap sweep, is also the
//! splice. On a delta frame:
//!
//! 1. **Row diff** — a *dirty* input row is one whose bitmap words differ
//!    from the layer's cached bitmap of the previous frame.
//! 2. **Halo rows** — an output row is dirty iff any input row in its
//!    receptive-field band is dirty.
//! 3. **Splice** — dirty output rows are re-swept; clean rows copy their
//!    output coordinates and rule count from the layer's `LayerDeltaCache`.
//! 4. **Fallback** — when the frame's [`changed_fraction`] exceeds the
//!    [`DeltaPolicy`] threshold (always for frame 0 and i.i.d. drives,
//!    where overlap is near zero), every row is swept and recorded instead.
//!
//! Byte-identity with the full sweep is structural: each output row's
//! coordinates and rules depend only on its input band, so splicing clean
//! rows between freshly swept dirty rows reproduces the full sweep exactly.
//! The property tests pin `execute_pattern(.., Some(&mut state))` against
//! `execute_pattern(.., None)` on every frame of every named drive scenario.
//!
//! [`FrameDeltaState`] carries the cross-frame caches for the one
//! pattern-level executor entry point, [`crate::graph::execute_pattern`]
//! (pass `Some(&mut state)`): the previous frame's per-layer inputs and
//! their row bitmaps, dilated outputs, per-row rule counts, and row spans.
//! The splice runs in the arena's scratch and swaps its staged row structure
//! into the cache, so once warm that scratch stops growing; each frame still
//! allocates the coordinate sets it produces.

use crate::conv::ConvKind;
use crate::graph::LayerInput;
use crate::kernel::KernelShape;
use serde::{Deserialize, Serialize};
use spade_tensor::{GridShape, PillarCoord};
use std::sync::Arc;

/// When to take the delta path instead of a full sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaPolicy {
    /// Maximum changed fraction (see [`changed_fraction`]) at which the
    /// delta path still runs; above it the full sweep is cheaper than
    /// patching. Frames *at* the threshold take the delta path.
    pub threshold: f64,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        // Persistent scripted drives measure ~0.1 changed fraction between
        // consecutive frames; i.i.d. drives measure ~1.0. Anything near the
        // middle means most rows are dirty and the splice saves little.
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

/// Deterministic counters of what the delta path did over a drive.
///
/// `modelled_speedup` is the rulegen-row ratio (rows a full per-frame sweep
/// would walk over rows actually swept) — a pure function of the frame
/// stream, so it is identical across `--jobs` settings, unlike wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DeltaStats {
    /// Frames executed through a delta-capable entry point.
    pub frames_total: usize,
    /// Frames that took the delta path (vs full-sweep fallback).
    pub frames_delta: usize,
    /// Layer executions served wholesale from the previous frame (input
    /// unchanged).
    pub layers_reused: usize,
    /// Layer executions row-spliced (some rows re-swept, the rest copied).
    pub layers_patched: usize,
    /// Layer executions that ran the full sweep (fallback or first frame).
    pub layers_full: usize,
    /// Output rows a from-scratch sweep of every frame would have walked.
    pub rows_full_equivalent: u64,
    /// Output rows actually re-swept.
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

/// Per-layer cross-frame cache: the previous frame's inputs and outputs of
/// one layer, with the row structure needed to splice rows.
#[derive(Debug, Default)]
pub(crate) struct LayerDeltaCache {
    /// The layer's input coords last frame.
    pub(crate) input: Option<Arc<[PillarCoord]>>,
    /// Row bitmap of `input` (the arena's layout: `width.div_ceil(64)`
    /// words per row), compared row by row to find dirty input rows.
    pub(crate) in_bits: Vec<u64>,
    /// The dilated (pre-pruning) output coords last frame.
    pub(crate) dilated: Option<Arc<[PillarCoord]>>,
    /// Row pointer over `dilated` (`out height + 1` entries).
    pub(crate) out_row_ptr: Vec<usize>,
    /// Rule count of each output row last frame.
    pub(crate) row_rules: Vec<u64>,
    /// Total rule count last frame.
    pub(crate) rules: u64,
}

impl LayerDeltaCache {
    /// Whether the cache holds a complete previous-frame snapshot.
    pub(crate) fn is_populated(&self) -> bool {
        self.input.is_some()
    }
}

/// Cross-frame state for [`crate::graph::execute_pattern`]: one drive's
/// rolling cache of the previous frame. Feed frames of **one** drive in order
/// through a single state; the executor resets the caches automatically if
/// the network or grid changes underneath it. The row splice's scratch
/// buffers live in the [`crate::ExecutionArena`].
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
    /// Per-layer caches, indexed like the pattern's layer list.
    pub(crate) layers: Vec<LayerDeltaCache>,
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
            layers: Vec::new(),
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
    /// frame runs the full path and re-records.
    pub fn invalidate(&mut self) {
        self.prev_initial = None;
        self.grid = None;
        self.network.clear();
        for layer in &mut self.layers {
            *layer = LayerDeltaCache::default();
        }
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
        state.layers.push(LayerDeltaCache {
            input: Some(Arc::from(&[PillarCoord::new(0, 0)][..])),
            ..LayerDeltaCache::default()
        });
        assert!(state.layers[0].is_populated());
        state.invalidate();
        assert!(!state.layers[0].is_populated());
        assert_eq!(state.stats().frames_total, 3);
    }
}
