//! Sparsity exploration: sweep the dynamic-pruning keep ratio of SpConv-P and
//! report the accuracy/computation trade-off the paper's Fig. 13(a) studies.
//!
//! ```text
//! cargo run --release --example sparsity_explorer
//! ```

use spade::nn::graph::{execute_pattern, ExecutionContext};
use spade::nn::{ExecutionArena, Model, ModelKind, PruningConfig};
use spade::pointcloud::{AccuracyProxy, DatasetPreset};

fn main() {
    let preset = DatasetPreset::kitti_like();
    let frame = preset.generate_frame(7);
    let pillar_cfg = preset.pillar_config();
    let model = Model::build(ModelKind::Spp2);
    let dense = Model::build(ModelKind::Pp);
    let encoder_macs = (frame.num_points * 9 * 64) as u64;

    // Dense reference for the savings computation.
    let (dense_trace, _) = execute_pattern(
        dense.spec(),
        &frame.pillars.active_coords,
        preset.grid_shape(),
        encoder_macs,
        &ExecutionContext::default(),
        &mut ExecutionArena::new(),
        None,
    );
    let (base_map, _) = ModelKind::Spp2.baseline_accuracy();
    let proxy = AccuracyProxy::with_finetuning(base_map);

    println!("keep_ratio | GOPs    | savings | foreground coverage | proxy mAP (BEV)");
    for keep in [1.0, 0.8, 0.65, 0.5, 0.35, 0.2] {
        let ctx = ExecutionContext {
            pruning: PruningConfig::with_keep_ratio(keep),
            scene: Some(&frame.scene),
            pillar_config: Some(&pillar_cfg),
            seed: 7,
        };
        let (trace, _) = execute_pattern(
            model.spec(),
            &frame.pillars.active_coords,
            preset.grid_shape(),
            encoder_macs,
            &ctx,
            &mut ExecutionArena::new(),
            None,
        );
        let savings = 1.0 - trace.total_macs() as f64 / dense_trace.total_macs() as f64;
        let coverage = trace.foreground_coverage.unwrap_or(1.0);
        println!(
            "{:>10.2} | {:>7.2} | {:>6.1}% | {:>19.2} | {:>10.2}",
            keep,
            trace.total_gops(),
            savings * 100.0,
            coverage,
            proxy.estimate_map(coverage)
        );
    }
}
