//! Quickstart: run a sparse pillar-based detector on the SPADE accelerator
//! model and compare it against the ideal dense accelerator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spade::baselines::DenseAccelerator;
use spade::core::{Accelerator, SpadeAccelerator, SpadeConfig};
use spade::nn::graph::{execute_pattern, ExecutionContext};
use spade::nn::{ExecutionArena, Model, ModelKind};
use spade::pointcloud::DatasetPreset;

fn main() {
    // 1. Generate a synthetic KITTI-like LiDAR frame.
    let preset = DatasetPreset::kitti_like();
    let frame = preset.generate_frame(42);
    println!(
        "frame: {} points, {} active pillars ({:.1}% of the {} BEV grid)",
        frame.num_points,
        frame.pillars.num_active(),
        frame.pillars.occupancy() * 100.0,
        preset.grid_shape(),
    );

    // 2. Run the SPP2 model (SpConv-P backbone with dynamic vector pruning).
    let model = Model::build(ModelKind::Spp2);
    let pillar_cfg = preset.pillar_config();
    let ctx = ExecutionContext {
        scene: Some(&frame.scene),
        pillar_config: Some(&pillar_cfg),
        ..Default::default()
    };
    let encoder_macs = (frame.num_points * 9 * 64) as u64;
    let (trace, workloads) = execute_pattern(
        model.spec(),
        &frame.pillars.active_coords,
        preset.grid_shape(),
        encoder_macs,
        &ctx,
        &mut ExecutionArena::new(),
        None,
    );
    println!(
        "SPP2: {:.1} GOPs per frame, {:.1}% computation savings vs dense",
        trace.total_gops(),
        trace.computation_savings() * 100.0
    );

    // 3. Simulate on SPADE.HE and on the ideal dense accelerator, both
    //    through the common `Accelerator` API so the comparison uses the same
    //    per-layer model as the experiments suite.
    let config = SpadeConfig::high_end();
    let spade = SpadeAccelerator::new(config).simulate_network(&workloads, trace.encoder_macs);
    let dense: &dyn Accelerator = &DenseAccelerator::new(config);
    let dense_perf = dense.simulate_network(&workloads, trace.encoder_macs);
    println!(
        "SPADE.HE: {:.3} ms/frame ({:.0} FPS), {:.2} mJ",
        spade.latency_ms,
        spade.fps,
        spade.energy.total_mj()
    );
    println!(
        "vs DenseAcc.HE: {:.2}x speedup, {:.2}x energy savings",
        dense_perf.total_cycles as f64 / spade.total_cycles.max(1) as f64,
        dense_perf.energy.total_pj() / spade.energy.total_pj().max(1e-9)
    );
}
