//! Accelerator comparison: run every sparse model of the paper's zoo on the
//! full Fig. 9/14 comparison set — SPADE, the ideal dense accelerator, the
//! conventional element-sparse Conv2D accelerator, and the PointAcc model —
//! entirely through the common [`Accelerator`] trait, then add the GPU/Jetson
//! platform models for reference.
//!
//! ```text
//! cargo run --release --example accelerator_comparison
//! ```

use spade::baselines::{
    DenseAccelerator, Platform, PlatformKind, PointAccModel, SpConv2dAccelerator,
};
use spade::core::{Accelerator, SpadeAccelerator, SpadeConfig};
use spade::nn::graph::{execute_pattern, ExecutionContext};
use spade::nn::{ExecutionArena, Model, ModelKind};
use spade::pointcloud::dataset::DatasetKind;
use spade::pointcloud::DatasetPreset;

fn main() {
    let cfg = SpadeConfig::high_end();
    let spade = SpadeAccelerator::new(cfg);
    let dense = DenseAccelerator::new(cfg);
    let spconv2d = SpConv2dAccelerator::default();
    let pointacc = PointAccModel::new(cfg);
    // Every accelerator is driven through the same trait object — adding a
    // backend to this comparison means implementing `Accelerator`, nothing
    // else changes.
    let accelerators: [&dyn Accelerator; 4] = [&spade, &dense, &spconv2d, &pointacc];

    for kind in ModelKind::SPARSE {
        let preset = match kind.dataset() {
            DatasetKind::KittiLike => DatasetPreset::kitti_like(),
            DatasetKind::NuscenesLike => DatasetPreset::nuscenes_like(),
        };
        let frame = preset.generate_frame(3);
        let pillar_cfg = preset.pillar_config();
        let model = Model::build(kind);
        let encoder_macs = (frame.num_points * 9 * 64) as u64;
        let ctx = ExecutionContext {
            scene: Some(&frame.scene),
            pillar_config: Some(&pillar_cfg),
            ..Default::default()
        };
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
            "{} (computation savings {:.1}%):",
            kind.name(),
            trace.computation_savings() * 100.0
        );
        let perfs: Vec<_> = accelerators
            .iter()
            .map(|acc| acc.simulate_network(&workloads, trace.encoder_macs))
            .collect();
        let reference = &perfs[0];
        for (acc, perf) in accelerators.iter().zip(&perfs) {
            println!(
                "  {:<12} | {:>10.3} ms | {:>8.2} Mcycles | {:>8.2} MiB DRAM | {:>8.3} mJ | {:>6.2}x vs SPADE",
                acc.name(),
                perf.latency_ms,
                perf.total_cycles as f64 / 1e6,
                perf.total_dram_bytes as f64 / (1024.0 * 1024.0),
                perf.energy.total_mj(),
                perf.total_cycles as f64 / reference.total_cycles.max(1) as f64,
            );
        }
        for platform in [PlatformKind::Gpu2080Ti, PlatformKind::JetsonXavierNx] {
            let lat = Platform::new(platform).run(&trace);
            println!(
                "  {:<12} | {:>10.3} ms | {:>32} | {:>6.2}x vs SPADE",
                platform.to_string(),
                lat.total_ms(),
                "(platform latency model)",
                lat.total_ms() / reference.latency_ms,
            );
        }
    }
}
