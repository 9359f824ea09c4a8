//! Layer graphs and pattern-level network execution.
//!
//! Network-scale evaluation (Table I, Fig. 2, Fig. 9–12) does not need actual
//! feature values — it needs, per layer, the set of active pillars, the number
//! of input-output rules, and the operation counts. The executor in this
//! module propagates active-coordinate sets through the layer graph (including
//! dynamic pruning for SpConv-P layers), producing a [`NetworkTrace`] with
//! per-layer statistics and a list of [`LayerWorkload`]s that the accelerator
//! models consume.
//!
//! This is the repository's hottest path (every bench and DSE cell funnels
//! through it), so each layer runs one word-parallel sweep over an occupancy
//! bitmap in [`ExecutionArena`] scratch — output dilation and rule counting
//! together, equal to what the RGU's streaming merge
//! ([`crate::rulegen::streaming`]) produces — and a layer's output set is
//! shared (`Arc`) with the layers that read it rather than cloned.
//! Coordinate sets never leave the executor: the emitted workloads carry
//! only active counts, as the RGU makes the coordinates on chip.
//!
//! A submanifold layer keeps its input set, so consecutive layers over one
//! set have identical rule books and identical Top-K selections (SCP3's
//! SpConv-S stages, and the three 1×1 heads that read one concatenated
//! set). Within one call, [`execute_pattern`] remembers the last sparse
//! layer's sweep, keyed by its input set (compared by allocation, with
//! `Arc::ptr_eq`), input grid, kind and kernel, and the last SpConv-P
//! selection, keyed by its dilated set (by allocation) and downsample
//! factor. A layer whose key matches reuses the dilated set and rule count,
//! or the kept set and foreground ratio, instead of sweeping, scoring and
//! selecting again. It still emits its own trace, workload and
//! foreground-ratio entry, and still runs the delta accounting on the
//! arena's input bitmap, which holds its input because the only other
//! writer of that bitmap, a `Union` merge, drops the sweep memo. Nothing is
//! kept across calls.
//!
//! Where full-scale time goes per frame, before the reuse above, as measured
//! with temporary stage timers on a copy of the code (2-vCPU VM, release,
//! milliseconds):
//!
//! | Stage | SPP2 | SCP3 |
//! |---|---|---|
//! | SpConv-P scoring | 1.9 | 2.2 |
//! | Top-K and gather | 2.6 | 3.2 |
//! | Bitmap sweeps | 1.5 | 2.4 |
//! | Base raster (now skipped) | 0.3 | 0.55 |
//!
//! SPP2 never repeats a layer. It scores 200k coordinates per frame, of
//! which 63.6k are distinct, so its SpConv-P scoring and selection is the
//! next target.

use crate::arena::ExecutionArena;
use crate::conv::{ConvKind, LayerSpec};
use crate::kernel::KernelShape;
use crate::pruning::{ImportanceModel, PruningConfig, VectorPruner};
use crate::rulegen::delta::{changed_fraction, FrameDeltaState};
use serde::{Deserialize, Serialize};
use spade_pointcloud::pillarize::{PillarizationConfig, PillarizedCloud};
use spade_pointcloud::Scene;
use spade_tensor::stats::iopr;
use spade_tensor::{GridShape, PillarCoord};
use std::collections::HashMap;
use std::sync::Arc;

/// Where a layer's input activations come from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerInput {
    /// The previous layer's output (or the encoder output for the first layer).
    Previous,
    /// The output of an earlier layer, by index.
    Layer(usize),
    /// The channel-wise concatenation of several earlier layers' outputs
    /// (active set = union of their active sets; all must share a grid).
    Union(Vec<usize>),
}

/// One layer in a network: its convolution spec, where its input comes from,
/// which backbone stage it belongs to, and whether its input is densified
/// first (the PointPillars pseudo-image path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkLayer {
    /// The convolution specification.
    pub spec: LayerSpec,
    /// The input source.
    pub input: LayerInput,
    /// Backbone stage index (1-based; 0 for encoder-level layers).
    pub stage: usize,
    /// If `true`, the input active set is replaced by the full grid before the
    /// layer executes (dense pseudo-image processing).
    pub densify_input: bool,
}

/// A complete network specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Network name (e.g. "SPP2").
    pub name: String,
    /// Number of channels produced by the pillar feature encoder.
    pub encoder_channels: usize,
    /// The layers in execution order.
    pub layers: Vec<NetworkLayer>,
}

impl NetworkSpec {
    /// Number of layers.
    #[must_use]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Per-layer execution trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// Convolution kind.
    pub kind: ConvKind,
    /// Backbone stage.
    pub stage: usize,
    /// Input grid shape.
    pub in_grid: GridShape,
    /// Output grid shape.
    pub out_grid: GridShape,
    /// Active input pillars.
    pub in_active: usize,
    /// Active output pillars before pruning.
    pub dilated_active: usize,
    /// Active output pillars after pruning (equals `dilated_active` for
    /// non-pruning layers).
    pub out_active: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Number of input-output rules (kernel-tap pairs).
    pub rules: u64,
    /// Multiply-accumulates executed by this layer.
    pub macs: u64,
    /// Multiply-accumulates of the dense equivalent of this layer.
    pub dense_macs: u64,
    /// Input-output pillar ratio (Fig. 2(d–f)).
    pub iopr: f64,
}

/// Whole-network execution trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkTrace {
    /// Network name.
    pub name: String,
    /// Per-layer traces.
    pub layers: Vec<LayerTrace>,
    /// Encoder MACs (pillar feature encoder).
    pub encoder_macs: u64,
    /// Fraction of foreground (in-box) pillars retained after all pruning, if
    /// a scene was supplied (drives the accuracy proxy).
    pub foreground_coverage: Option<f64>,
}

impl NetworkTrace {
    /// Total MACs including the encoder.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.encoder_macs + self.layers.iter().map(|l| l.macs).sum::<u64>()
    }

    /// Dense-equivalent MACs including the encoder.
    #[must_use]
    pub fn dense_macs(&self) -> u64 {
        self.encoder_macs + self.layers.iter().map(|l| l.dense_macs).sum::<u64>()
    }

    /// Total giga-operations (2 ops per MAC), the paper's GOPs metric.
    #[must_use]
    pub fn total_gops(&self) -> f64 {
        self.total_macs() as f64 * 2.0 / 1e9
    }

    /// Computation savings relative to the dense equivalent (Table I's
    /// "Sparsity" column): `1 − ops / dense_ops`.
    #[must_use]
    pub fn computation_savings(&self) -> f64 {
        1.0 - self.total_macs() as f64 / self.dense_macs().max(1) as f64
    }
}

/// One layer's workload handed to the accelerator models: the layer spec,
/// its grids, its active input and output counts, and its rule count.
///
/// SPADE prices a layer by how many active vectors go in and come out and
/// by its rules; its RGU generates the coordinates on chip. So no model
/// reads a coordinate set, and the workloads a sweep keeps for every frame
/// hold none.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWorkload {
    /// The layer specification.
    pub spec: LayerSpec,
    /// Backbone stage index.
    pub stage: usize,
    /// Input grid shape.
    pub input_grid: GridShape,
    /// Active input pillars.
    pub input_active: usize,
    /// Output grid shape.
    pub output_grid: GridShape,
    /// Active output pillars (after pruning).
    pub output_active: usize,
    /// Number of input-output rules.
    pub rules: u64,
}

/// Execution context: pruning configuration and (optionally) the scene that
/// drives the importance model and foreground-coverage accounting.
#[derive(Debug, Clone, Default)]
pub struct ExecutionContext<'a> {
    /// Pruning configuration for SpConv-P layers.
    pub pruning: PruningConfig,
    /// The scene providing ground-truth boxes for the importance model.
    pub scene: Option<&'a Scene>,
    /// The pillarisation configuration of the base grid.
    pub pillar_config: Option<&'a PillarizationConfig>,
    /// Seed for the deterministic importance noise.
    pub seed: u64,
}

/// Executes a network at pattern level — the one executor entry point.
///
/// `initial_coords` are the active pillars produced by the pillar encoder on
/// the base grid `grid`. Every sparse layer's dilation, rule count, and
/// output set come from one bitmap sweep over `arena`'s reusable buffers;
/// loops that execute many networks or frames should keep one arena so
/// scratch capacity carries over.
///
/// With `delta: None` (the plain path) nothing is recorded or compared.
/// With a [`FrameDeltaState`], consecutive frames of **one** drive, fed in
/// order, also run the temporal delta accounting
/// ([`crate::rulegen::delta`]): every layer still runs the same sweep, so
/// the result equals the plain path's on every frame, and beside each sweep
/// the state counts the output rows SPADE's RGU would re-sweep — those whose
/// halo band touches an input row that changed since the previous frame.
/// Frames that changed too much (per
/// [`crate::rulegen::delta::DeltaPolicy`]), the first frame, and
/// network/grid switches count every row while still recording the bitmaps
/// for the next frame. [`FrameDeltaState::stats`] reports the counts.
#[must_use]
pub fn execute_pattern(
    spec: &NetworkSpec,
    initial_coords: &[PillarCoord],
    grid: GridShape,
    encoder_macs: u64,
    ctx: &ExecutionContext<'_>,
    arena: &mut ExecutionArena,
    mut delta: Option<&mut FrameDeltaState>,
) -> (NetworkTrace, Vec<LayerWorkload>) {
    let pruner = VectorPruner::new(ctx.pruning);
    // Layers always produce CPR-ordered in-bounds sets, but the encoder
    // output arrives from the caller: normalise it once up front (the common
    // case — already sorted, unique, in bounds — is a zero-copy check).
    let initial: Arc<[PillarCoord]> = if initial_coords.windows(2).all(|w| w[0] < w[1])
        && initial_coords.iter().all(|c| c.in_bounds(grid))
    {
        Arc::from(initial_coords)
    } else {
        arena.scratch.clear();
        arena
            .scratch
            .extend(initial_coords.iter().copied().filter(|c| c.in_bounds(grid)));
        arena.scratch.sort_unstable();
        arena.scratch.dedup();
        Arc::from(&arena.scratch[..])
    };
    // Frame-level delta gate: a frame counts as a delta frame only when the
    // cached bitmaps come from the same network (layer by layer) on the same
    // grid and the frame-to-frame change stays within the policy threshold.
    // Anything else (first frame, i.i.d. drive, scene cut, model switch)
    // counts as full sweeps — which still *record* the bitmaps so the next
    // frame can count incrementally.
    let mut frame_delta = false;
    if let Some(state) = delta.as_deref_mut() {
        state.stats.frames_total += 1;
        let compatible = state.grid == Some(grid)
            && state
                .network
                .iter()
                .map(|(kind, kernel, input, densify)| (*kind, *kernel, input, *densify))
                .eq(spec
                    .layers
                    .iter()
                    .map(|l| (l.spec.kind, l.spec.kernel, &l.input, l.densify_input)));
        if !compatible {
            state.invalidate();
            state.grid = Some(grid);
            state.network = spec
                .layers
                .iter()
                .map(|l| (l.spec.kind, l.spec.kernel, l.input.clone(), l.densify_input))
                .collect();
            state.prev_bits.resize_with(spec.layers.len(), Vec::new);
        }
        // `prev_initial` is set only once a frame has recorded every sparse
        // layer's bitmap, and invalidation clears it.
        if let Some(prev) = &state.prev_initial {
            if compatible && state.policy.accepts(changed_fraction(prev, &initial)) {
                frame_delta = true;
                state.stats.frames_delta += 1;
            }
        }
    }
    let mut outputs: Vec<(GridShape, Arc<[PillarCoord]>)> = Vec::with_capacity(spec.layers.len());
    let mut traces = Vec::with_capacity(spec.layers.len());
    let mut workloads = Vec::with_capacity(spec.layers.len());
    // One importance model per downsample factor, built when a SpConv-P
    // layer first asks for it. The encoder output's foreground needs none:
    // it only decides whether coverage is measured against any foreground.
    let mut importance_cache: HashMap<u32, ImportanceModel> = HashMap::new();
    let initial_has_foreground = match (ctx.scene, ctx.pillar_config) {
        (Some(scene), Some(cfg)) => {
            Some(ImportanceModel::any_foreground(scene, cfg, grid, &initial))
        }
        _ => None,
    };
    let mut pruned_foreground_ratio: Vec<f64> = Vec::new();
    let mut unions = HashMap::new();
    // A layer that repeats the previous sweep's input set, grid, kind and
    // kernel, or the previous SpConv-P selection's dilated set and
    // downsample, reuses that result (see the module docs).
    let mut last_sweep: Option<SweepMemo> = None;
    let mut last_selection: Option<SelectionMemo> = None;

    for (li, layer) in spec.layers.iter().enumerate() {
        let (in_grid, mut in_coords): (GridShape, Arc<[PillarCoord]>) = match &layer.input {
            LayerInput::Previous => outputs
                .last()
                .map(|(g, c)| (*g, Arc::clone(c)))
                .unwrap_or_else(|| (grid, Arc::clone(&initial))),
            LayerInput::Layer(i) => (outputs[*i].0, Arc::clone(&outputs[*i].1)),
            // Layers that concatenate the same branches (the detection
            // heads) share one merged set.
            LayerInput::Union(indices) => {
                let (g, merged) = unions.entry(indices).or_insert_with(|| {
                    // Concatenated branches may differ by a row/column when
                    // odd grid sizes round up through stride-2 / deconv
                    // chains; crop to the smallest grid, as real detection
                    // necks do.
                    let g = indices
                        .iter()
                        .map(|&i| outputs[i].0)
                        .min_by_key(|g| (g.height, g.width))
                        .expect("union must reference at least one layer");
                    // The merge overwrites the arena's input bitmap, which
                    // a reused sweep hands to the delta accounting.
                    last_sweep = None;
                    (
                        g,
                        arena.union_coords(indices.iter().map(|&i| &*outputs[i].1), g),
                    )
                });
                (*g, Arc::clone(merged))
            }
        };
        if layer.densify_input {
            in_coords = arena.dense_cells(in_grid);
        }
        let sp = &layer.spec;
        let out_grid = sp.output_grid(in_grid);
        // Dense layers need no sweep: their output set is the whole grid and
        // their rule count is closed-form. Every other kind runs one bitmap
        // sweep (submanifold layers keep their input set as the output set),
        // or reuses the previous one, with the delta accounting beside it.
        let (dilated, rules): (Arc<[PillarCoord]>, u64) = if sp.kind == ConvKind::Dense {
            (
                arena.dense_cells(out_grid),
                out_grid.num_cells() as u64 * sp.kernel.num_taps() as u64,
            )
        } else {
            let key = (in_grid, sp.kind, sp.kernel);
            let reused = last_sweep
                .as_ref()
                .filter(|m| Arc::ptr_eq(&m.input, &in_coords) && m.key == key)
                .map(|m| (Arc::clone(&m.dilated), m.rules));
            let (dilated, rules) = reused.unwrap_or_else(|| {
                let (out, rules) = arena.sweep_layer(&in_coords, in_grid, sp.kind, sp.kernel);
                let dilated = if sp.kind == ConvKind::SpConvS {
                    Arc::clone(&in_coords)
                } else {
                    Arc::from(out)
                };
                last_sweep = Some(SweepMemo {
                    input: Arc::clone(&in_coords),
                    key,
                    dilated: Arc::clone(&dilated),
                    rules,
                });
                (dilated, rules)
            });
            if let Some(state) = delta.as_deref_mut() {
                // Still this layer's input: only a sweep or a union writes
                // the bitmap, and a union drops the memo.
                let bits = arena.input_bits();
                state.count_layer(li, bits, in_grid, sp.kind, sp.kernel, frame_delta);
            }
            (dilated, rules)
        };
        // Dynamic pruning for SpConv-P layers.
        let out_coords: Arc<[PillarCoord]> = if sp.kind == ConvKind::SpConvP {
            let downsample = (grid.height / out_grid.height).max(1);
            let reused = last_selection
                .as_ref()
                .filter(|m| Arc::ptr_eq(&m.dilated, &dilated) && m.downsample == downsample)
                .map(|m| (Arc::clone(&m.kept), m.foreground_ratio));
            let (kept, foreground_ratio) = reused.unwrap_or_else(|| {
                let (scores, foreground) = match (ctx.scene, ctx.pillar_config) {
                    (Some(scene), Some(cfg)) => {
                        let model = importance_cache.entry(downsample).or_insert_with(|| {
                            // At downsample 1 the model covers the base grid,
                            // even where an upsampled grid outgrows it.
                            let model_grid = if downsample == 1 { grid } else { out_grid };
                            ImportanceModel::for_scene(
                                scene,
                                cfg,
                                model_grid,
                                downsample,
                                ctx.seed,
                                ctx.pruning.finetuned,
                            )
                        });
                        model.scores(&dilated)
                    }
                    // Deterministic pseudo-importance when no scene is given
                    // (and no foreground to account for).
                    _ => (
                        dilated
                            .iter()
                            .map(|c| {
                                let h = (u64::from(c.row) << 32) ^ u64::from(c.col) ^ ctx.seed;
                                (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as f64
                            })
                            .collect(),
                        Vec::new(),
                    ),
                };
                let keep = pruner.keep_indices(&scores);
                let fg_before = foreground.iter().filter(|&&f| f).count();
                let foreground_ratio = (fg_before > 0).then(|| {
                    let fg_after = keep.iter().filter(|&&i| foreground[i]).count();
                    fg_after as f64 / fg_before as f64
                });
                let kept: Arc<[PillarCoord]> = keep.into_iter().map(|i| dilated[i]).collect();
                last_selection = Some(SelectionMemo {
                    dilated: Arc::clone(&dilated),
                    downsample,
                    kept: Arc::clone(&kept),
                    foreground_ratio,
                });
                (kept, foreground_ratio)
            });
            pruned_foreground_ratio.extend(foreground_ratio);
            kept
        } else {
            // Non-pruning layers pass the dilated set through unchanged — an
            // `Arc` clone, not a coordinate copy.
            Arc::clone(&dilated)
        };
        let macs = match sp.kind {
            ConvKind::Dense => {
                out_grid.num_cells() as u64
                    * sp.kernel.num_taps() as u64
                    * sp.macs_per_rule() as u64
            }
            _ => rules * sp.macs_per_rule() as u64,
        };
        let dense_macs = dense_macs_for(sp, in_grid, out_grid);
        traces.push(LayerTrace {
            name: sp.name.clone(),
            kind: sp.kind,
            stage: layer.stage,
            in_grid,
            out_grid,
            in_active: in_coords.len(),
            dilated_active: dilated.len(),
            out_active: out_coords.len(),
            in_channels: sp.in_channels,
            out_channels: sp.out_channels,
            rules,
            macs,
            dense_macs,
            iopr: iopr(in_coords.len(), out_coords.len()),
        });
        workloads.push(LayerWorkload {
            spec: sp.clone(),
            stage: layer.stage,
            input_grid: in_grid,
            input_active: in_coords.len(),
            output_grid: out_grid,
            output_active: out_coords.len(),
            rules,
        });
        outputs.push((out_grid, out_coords));
    }

    if let Some(state) = delta {
        state.prev_initial = Some(initial);
    }

    // Foreground coverage: fraction retained through all pruning stages,
    // relative to the foreground evidence present in the encoder output.
    let foreground_coverage = initial_has_foreground.map(|any| {
        if !any {
            1.0
        } else {
            pruned_foreground_ratio
                .iter()
                .product::<f64>()
                .clamp(0.0, 1.0)
        }
    });

    (
        NetworkTrace {
            name: spec.name.clone(),
            layers: traces,
            encoder_macs,
            foreground_coverage,
        },
        workloads,
    )
}

/// The last sparse layer's sweep within one [`execute_pattern`] call.
struct SweepMemo {
    /// The input set (compared by allocation, not by content).
    input: Arc<[PillarCoord]>,
    /// The input grid, kind and kernel.
    key: (GridShape, ConvKind, KernelShape),
    /// The dilated output set (the input itself for SpConv-S).
    dilated: Arc<[PillarCoord]>,
    /// The rule count.
    rules: u64,
}

/// The last SpConv-P selection within one [`execute_pattern`] call.
struct SelectionMemo {
    /// The dilated set it selected from (compared by allocation).
    dilated: Arc<[PillarCoord]>,
    /// The downsample factor of its importance model.
    downsample: u32,
    /// The kept set.
    kept: Arc<[PillarCoord]>,
    /// The foreground ratio it pushed, if its input held foreground.
    foreground_ratio: Option<f64>,
}

/// Dense-equivalent MAC count for a layer (what an ideal dense accelerator or
/// GPU computes for the same layer shape).
#[must_use]
pub fn dense_macs_for(spec: &LayerSpec, in_grid: GridShape, out_grid: GridShape) -> u64 {
    let cells = match spec.kind {
        ConvKind::SpDeconv => in_grid.num_cells(),
        _ => out_grid.num_cells(),
    } as u64;
    cells * spec.kernel.num_taps() as u64 * spec.macs_per_rule() as u64
}

/// MACs of the pillar feature encoder on a pillarised frame: PointPillars'
/// PointNet-lite layer maps each retained point's 9 augmented features
/// (`x, y, z, intensity`, offsets from the pillar's point mean and from its
/// centre) to 64 channels. Every model is charged 64 channels.
#[must_use]
pub fn encoder_macs(pillars: &PillarizedCloud) -> u64 {
    let points: u64 = pillars.point_counts.iter().map(|&n| u64::from(n)).sum();
    points * 9 * 64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain path on a fresh arena.
    fn run_plain(
        spec: &NetworkSpec,
        coords: &[PillarCoord],
        grid: GridShape,
        encoder_macs: u64,
        ctx: &ExecutionContext<'_>,
    ) -> (NetworkTrace, Vec<LayerWorkload>) {
        execute_pattern(
            spec,
            coords,
            grid,
            encoder_macs,
            ctx,
            &mut ExecutionArena::new(),
            None,
        )
    }

    fn simple_spec(kind: ConvKind) -> NetworkSpec {
        NetworkSpec {
            name: "test".into(),
            encoder_channels: 4,
            layers: vec![
                NetworkLayer {
                    spec: LayerSpec::new("L1", kind, 4, 4),
                    input: LayerInput::Previous,
                    stage: 1,
                    densify_input: false,
                },
                NetworkLayer {
                    spec: LayerSpec::new("L2", kind, 4, 4),
                    input: LayerInput::Previous,
                    stage: 1,
                    densify_input: false,
                },
            ],
        }
    }

    fn initial() -> (Vec<PillarCoord>, GridShape) {
        let grid = GridShape::new(16, 16);
        let coords = vec![
            PillarCoord::new(2, 2),
            PillarCoord::new(2, 3),
            PillarCoord::new(8, 8),
            PillarCoord::new(12, 5),
        ];
        (coords, grid)
    }

    #[test]
    fn submanifold_network_preserves_active_count() {
        let (coords, grid) = initial();
        let (trace, workloads) = run_plain(
            &simple_spec(ConvKind::SpConvS),
            &coords,
            grid,
            100,
            &ExecutionContext::default(),
        );
        assert_eq!(trace.layers.len(), 2);
        for l in &trace.layers {
            assert_eq!(l.in_active, 4);
            assert_eq!(l.out_active, 4);
            assert!((l.iopr - 1.0).abs() < 1e-12);
        }
        assert_eq!(workloads.len(), 2);
        assert_eq!(trace.encoder_macs, 100);
    }

    #[test]
    fn spconv_network_dilates_layer_by_layer() {
        let (coords, grid) = initial();
        let (trace, _) = run_plain(
            &simple_spec(ConvKind::SpConv),
            &coords,
            grid,
            0,
            &ExecutionContext::default(),
        );
        assert!(trace.layers[0].out_active > trace.layers[0].in_active);
        assert!(trace.layers[1].out_active > trace.layers[1].in_active);
        assert!(trace.layers[0].iopr > 1.0);
    }

    #[test]
    fn sparse_network_saves_computation_vs_dense() {
        let (coords, grid) = initial();
        let ctx = ExecutionContext::default();
        let (sparse, _) = run_plain(&simple_spec(ConvKind::SpConvS), &coords, grid, 0, &ctx);
        let (dense, _) = run_plain(&simple_spec(ConvKind::Dense), &coords, grid, 0, &ctx);
        assert!(sparse.total_macs() < dense.total_macs());
        assert!(sparse.computation_savings() > 0.5);
        assert!(dense.computation_savings().abs() < 1e-9);
    }

    #[test]
    fn pruning_layers_reduce_dilated_outputs() {
        let (coords, grid) = initial();
        let ctx = ExecutionContext {
            pruning: PruningConfig {
                keep_ratio: 0.5,
                min_keep: 1,
                finetuned: true,
            },
            ..Default::default()
        };
        let (trace, _) = run_plain(&simple_spec(ConvKind::SpConvP), &coords, grid, 0, &ctx);
        for l in &trace.layers {
            assert!(l.out_active < l.dilated_active);
        }
    }

    #[test]
    fn densify_flag_fills_grid() {
        let (coords, grid) = initial();
        let mut spec = simple_spec(ConvKind::Dense);
        spec.layers[0].densify_input = true;
        let (trace, workloads) = run_plain(&spec, &coords, grid, 0, &ExecutionContext::default());
        assert_eq!(trace.layers[0].in_active, grid.num_cells());
        assert_eq!(workloads[0].input_active, grid.num_cells());
    }

    #[test]
    fn union_input_merges_active_sets() {
        let spec = NetworkSpec {
            name: "u".into(),
            encoder_channels: 2,
            layers: vec![
                NetworkLayer {
                    spec: LayerSpec::new("A", ConvKind::SpConvS, 2, 2),
                    input: LayerInput::Previous,
                    stage: 1,
                    densify_input: false,
                },
                NetworkLayer {
                    spec: LayerSpec::new("B", ConvKind::SpConv, 2, 2),
                    input: LayerInput::Layer(0),
                    stage: 1,
                    densify_input: false,
                },
                NetworkLayer {
                    spec: LayerSpec::new("C", ConvKind::SpConvS, 4, 2),
                    input: LayerInput::Union(vec![0, 1]),
                    stage: 2,
                    densify_input: false,
                },
            ],
        };
        let (coords, grid) = initial();
        let (trace, _) = run_plain(&spec, &coords, grid, 0, &ExecutionContext::default());
        // The union contains at least as many pillars as the submanifold branch.
        assert!(trace.layers[2].in_active >= trace.layers[0].out_active);
        assert_eq!(trace.layers[2].in_active, trace.layers[1].out_active);
    }

    fn mixed_spec() -> NetworkSpec {
        let mk = |name: &str, kind, input| NetworkLayer {
            spec: LayerSpec::new(name, kind, 4, 4),
            input,
            stage: 1,
            densify_input: false,
        };
        NetworkSpec {
            name: "mixed".into(),
            encoder_channels: 4,
            layers: vec![
                mk("sub", ConvKind::SpConvS, LayerInput::Previous),
                mk("conv", ConvKind::SpConv, LayerInput::Previous),
                mk("down", ConvKind::SpStConv, LayerInput::Previous),
                mk("prune", ConvKind::SpConvP, LayerInput::Previous),
                mk("up", ConvKind::SpDeconv, LayerInput::Previous),
                mk("merge", ConvKind::SpConvS, LayerInput::Union(vec![1, 4])),
            ],
        }
    }

    /// A drifting frame sequence: a few pillars move each frame, the rest
    /// persist — the temporal shape of a persistent drive.
    fn drifting_frames(grid: GridShape, frames: usize) -> Vec<Vec<PillarCoord>> {
        let mut s = 0x1234_5678_u64;
        let mut step = |m: u32| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u32 % m
        };
        let mut current: Vec<PillarCoord> = (0..70)
            .map(|_| PillarCoord::new(step(grid.height), step(grid.width)))
            .collect();
        let mut out = Vec::with_capacity(frames);
        for _ in 0..frames {
            let mut f = current.clone();
            f.sort();
            f.dedup();
            out.push(f);
            for _ in 0..4 {
                let idx = step(current.len() as u32) as usize;
                current[idx] = PillarCoord::new(step(grid.height), step(grid.width));
            }
        }
        out
    }

    #[test]
    fn delta_execution_is_byte_identical_to_full() {
        let grid = GridShape::new(32, 32);
        let spec = mixed_spec();
        let ctx = ExecutionContext {
            pruning: PruningConfig {
                keep_ratio: 0.5,
                min_keep: 1,
                finetuned: true,
            },
            seed: 7,
            ..Default::default()
        };
        let mut delta_arena = ExecutionArena::new();
        let mut full_arena = ExecutionArena::new();
        let mut state = FrameDeltaState::default();
        for (i, coords) in drifting_frames(grid, 8).iter().enumerate() {
            let incremental = execute_pattern(
                &spec,
                coords,
                grid,
                50,
                &ctx,
                &mut delta_arena,
                Some(&mut state),
            );
            let full = execute_pattern(&spec, coords, grid, 50, &ctx, &mut full_arena, None);
            assert_eq!(incremental, full, "frame {i} diverged");
        }
        let stats = state.stats();
        assert_eq!(stats.frames_total, 8);
        assert!(stats.frames_delta >= 6, "drifting frames should go delta");
        assert!(
            stats.layers_patched > 0,
            "some layers must count as patched"
        );
        assert!(
            stats.rows_swept < stats.rows_full_equivalent,
            "the delta path must count fewer rows than the full path"
        );
        assert!(stats.modelled_speedup() > 1.0);
    }

    #[test]
    fn delta_state_survives_network_and_grid_switches() {
        let ctx = ExecutionContext::default();
        let mut arena = ExecutionArena::new();
        let mut state = FrameDeltaState::default();
        let grid_a = GridShape::new(24, 24);
        let grid_b = GridShape::new(16, 16);
        let frames = drifting_frames(grid_b, 3);
        // Interleave two specs and two grids through one state: every switch
        // must invalidate and fall back, never produce stale results.
        for (spec, grid) in [
            (mixed_spec(), grid_a),
            (simple_spec(ConvKind::SpConv), grid_a),
            (mixed_spec(), grid_b),
            (mixed_spec(), grid_b),
            // Same grid and layer count, different layer kinds: the caches
            // must not carry over (as between SPP1 and SPP3).
            (simple_spec(ConvKind::SpConv), grid_b),
            (simple_spec(ConvKind::SpConvS), grid_b),
        ] {
            for coords in &frames {
                let incremental =
                    execute_pattern(&spec, coords, grid, 0, &ctx, &mut arena, Some(&mut state));
                let full = run_plain(&spec, coords, grid, 0, &ctx);
                assert_eq!(incremental, full);
            }
        }
    }

    #[test]
    fn iid_frames_fall_back_to_full_sweeps() {
        let grid = GridShape::new(24, 24);
        let spec = simple_spec(ConvKind::SpConv);
        let ctx = ExecutionContext::default();
        let mut arena = ExecutionArena::new();
        let mut state = FrameDeltaState::default();
        // Disjoint coordinate sets per frame: changed fraction ~2.0.
        for base in [0u32, 8, 16] {
            let coords = vec![
                PillarCoord::new(base, 1),
                PillarCoord::new(base + 2, 3),
                PillarCoord::new(base + 4, 5),
            ];
            let incremental =
                execute_pattern(&spec, &coords, grid, 0, &ctx, &mut arena, Some(&mut state));
            let full = run_plain(&spec, &coords, grid, 0, &ctx);
            assert_eq!(incremental, full);
        }
        let stats = state.stats();
        assert_eq!(stats.frames_total, 3);
        assert_eq!(stats.frames_delta, 0, "i.i.d. frames must not go delta");
        assert_eq!(stats.rows_swept, stats.rows_full_equivalent);
        assert_eq!(stats.modelled_speedup(), 1.0);
    }

    #[test]
    fn identical_frames_reuse_whole_layers() {
        let grid = GridShape::new(24, 24);
        let spec = mixed_spec();
        let ctx = ExecutionContext::default();
        let mut arena = ExecutionArena::new();
        let mut state = FrameDeltaState::default();
        let coords = drifting_frames(grid, 1).pop().unwrap();
        let first = execute_pattern(&spec, &coords, grid, 0, &ctx, &mut arena, Some(&mut state));
        let second = execute_pattern(&spec, &coords, grid, 0, &ctx, &mut arena, Some(&mut state));
        assert_eq!(first, second);
        let stats = state.stats();
        assert_eq!(stats.frames_delta, 1);
        // Frame 2's non-dense layers all count as reused: every layer's
        // input equals last frame's, so no row counts as re-swept.
        assert_eq!(stats.layers_patched, 0);
        assert_eq!(stats.layers_reused, spec.layers.len());
        assert_eq!(stats.rows_swept, stats.rows_full_equivalent / 2);
    }

    #[test]
    fn strided_layer_halves_grid_in_trace() {
        let spec = NetworkSpec {
            name: "s".into(),
            encoder_channels: 2,
            layers: vec![NetworkLayer {
                spec: LayerSpec::new("down", ConvKind::SpStConv, 2, 4),
                input: LayerInput::Previous,
                stage: 1,
                densify_input: false,
            }],
        };
        let (coords, grid) = initial();
        let (trace, _) = run_plain(&spec, &coords, grid, 0, &ExecutionContext::default());
        assert_eq!(trace.layers[0].out_grid, GridShape::new(8, 8));
    }
}
