//! Shared workload construction for the experiments.

use spade_core::{Accelerator, NetworkPerf};
use spade_nn::graph::{
    encoder_macs, execute_pattern, ExecutionContext, LayerWorkload, NetworkTrace,
};
use spade_nn::{ExecutionArena, FrameDeltaState, Model, ModelKind, PruningConfig};
use spade_pointcloud::dataset::{DatasetPreset, Frame};
use spade_tensor::GridShape;
use std::cell::RefCell;

/// How large a workload to build: `Full` uses the paper-scale BEV grids
/// (432×496 / 512×512); `Reduced` crops the frame to a quarter-size grid so
/// unit tests and quick runs stay fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadScale {
    /// Paper-scale grids (use for `cargo bench` / the experiments binary).
    Full,
    /// Quarter-scale grids (use for tests).
    Reduced,
}

/// The result of running one model on one frame: the network trace and the
/// per-layer accelerator workloads.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// Which model ran.
    pub kind: ModelKind,
    /// Pattern-level execution trace.
    pub trace: NetworkTrace,
    /// Per-layer workloads for the accelerator models.
    pub workloads: Vec<LayerWorkload>,
    /// Encoder MAC count.
    pub encoder_macs: u64,
}

/// Generates the frame a model is evaluated on.
#[must_use]
pub fn frame_for(kind: ModelKind, seed: u64) -> (DatasetPreset, Frame) {
    let preset = kind.dataset().preset();
    let frame = preset.generate_frame(seed);
    (preset, frame)
}

/// Runs a model on a synthetic frame at the requested scale.
#[must_use]
pub fn model_run(kind: ModelKind, seed: u64, scale: WorkloadScale) -> ModelRun {
    let (preset, frame) = frame_for(kind, seed);
    model_run_on_frame(kind, &preset, &frame, seed, scale, PruningConfig::default())
}

/// Runs a model on an externally generated frame (e.g. one frame of a
/// [`spade_pointcloud::DriveScenario`]), so multi-frame workloads can build
/// each frame once and re-run it under many accelerator configurations.
#[must_use]
pub fn model_run_on_frame(
    kind: ModelKind,
    preset: &DatasetPreset,
    frame: &Frame,
    seed: u64,
    scale: WorkloadScale,
    pruning: PruningConfig,
) -> ModelRun {
    model_run_on_frame_inner(kind, preset, frame, seed, scale, pruning, None)
}

/// Like [`model_run_on_frame`], but executes the network through the
/// temporal delta path: `state` carries the previous frame's per-layer input
/// bitmaps and counts, beside each layer's sweep, the output rows SPADE's
/// RGU would re-sweep (see [`spade_nn::rulegen::delta`]).
///
/// The result is byte-identical to [`model_run_on_frame`] on the same frame
/// — every layer runs the same sweep; only `state`'s counters differ. Feed
/// one `state` the frames of **one** drive, in order; an incompatible or
/// low-overlap frame counts as a full sweep automatically.
#[must_use]
pub fn model_run_on_frame_delta(
    kind: ModelKind,
    preset: &DatasetPreset,
    frame: &Frame,
    seed: u64,
    scale: WorkloadScale,
    pruning: PruningConfig,
    state: &mut FrameDeltaState,
) -> ModelRun {
    model_run_on_frame_inner(kind, preset, frame, seed, scale, pruning, Some(state))
}

fn model_run_on_frame_inner(
    kind: ModelKind,
    preset: &DatasetPreset,
    frame: &Frame,
    seed: u64,
    scale: WorkloadScale,
    pruning: PruningConfig,
    delta: Option<&mut FrameDeltaState>,
) -> ModelRun {
    let pillar_cfg = preset.pillar_config();
    let base_grid = preset.grid_shape();
    let (grid, coords) = match scale {
        WorkloadScale::Full => (base_grid, frame.pillars.active_coords.clone()),
        WorkloadScale::Reduced => {
            // Crop a quarter-size window from the mid-range road corridor so
            // the cropped frame keeps the few-percent occupancy of the full
            // frame (the near-sensor corner would be unrepresentatively dense).
            let grid = GridShape::new(base_grid.height / 4, base_grid.width / 4);
            let row0 = base_grid.height / 4;
            let col0 = base_grid.width * 3 / 8;
            let coords = frame
                .pillars
                .active_coords
                .iter()
                .filter(|c| {
                    c.row >= row0
                        && c.row < row0 + grid.height
                        && c.col >= col0
                        && c.col < col0 + grid.width
                })
                .map(|c| spade_tensor::PillarCoord::new(c.row - row0, c.col - col0))
                .collect();
            (grid, coords)
        }
    };
    let encoder_macs = encoder_macs(&frame.pillars);
    let model = Model::build(kind);
    let ctx = ExecutionContext {
        pruning,
        scene: Some(&frame.scene),
        pillar_config: Some(&pillar_cfg),
        seed,
    };
    let (trace, workloads) = ARENA.with_borrow_mut(|arena| {
        execute_pattern(
            model.spec(),
            &coords,
            grid,
            encoder_macs,
            &ctx,
            arena,
            delta,
        )
    });
    ModelRun {
        kind,
        trace,
        workloads,
        encoder_macs,
    }
}

thread_local! {
    /// Per-thread execution scratch: consecutive model runs on the same
    /// thread — bench iterations, experiment loops, and each DSE worker's
    /// share of a sweep — reuse one arena's buffers. Results are unaffected
    /// (the arena is pure scratch), so parallel sweeps stay bit-identical.
    static ARENA: RefCell<ExecutionArena> = RefCell::new(ExecutionArena::new());
}

/// Simulates a model run on any accelerator model through the common
/// [`Accelerator`] API — the entry point every experiment uses, so adding a
/// backend means implementing the trait, not editing each figure.
#[must_use]
pub fn simulate_on(acc: &dyn Accelerator, run: &ModelRun) -> NetworkPerf {
    acc.simulate_network(&run.workloads, run.encoder_macs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_core::{SpadeAccelerator, SpadeConfig};

    #[test]
    fn reduced_runs_are_sparser_than_dense_baseline() {
        // At quarter scale the later backbone stages saturate (their grids are
        // only a few hundred cells), so the savings are compressed relative to
        // the paper-scale run; regenerate the full-scale numbers with the
        // `spade-experiments` binary (`table1`).
        let sparse = model_run(ModelKind::Spp3, 1, WorkloadScale::Reduced);
        let dense = model_run(ModelKind::Pp, 1, WorkloadScale::Reduced);
        assert!(sparse.trace.total_macs() < dense.trace.total_macs());
        assert!(sparse.trace.computation_savings() > 0.2);
    }

    #[test]
    fn sparse_variants_are_ordered_by_savings() {
        let spp1 = model_run(ModelKind::Spp1, 2, WorkloadScale::Reduced);
        let spp3 = model_run(ModelKind::Spp3, 2, WorkloadScale::Reduced);
        assert!(
            spp3.trace.computation_savings() > spp1.trace.computation_savings(),
            "SPP3 ({}) should save more than SPP1 ({})",
            spp3.trace.computation_savings(),
            spp1.trace.computation_savings()
        );
    }

    #[test]
    fn spade_simulation_produces_positive_fps() {
        let run = model_run(ModelKind::Spp2, 3, WorkloadScale::Reduced);
        let perf = simulate_on(&SpadeAccelerator::new(SpadeConfig::high_end()), &run);
        assert!(perf.fps > 0.0);
        assert_eq!(perf.layers.len(), run.workloads.len());
    }
}
