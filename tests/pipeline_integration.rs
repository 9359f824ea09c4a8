//! End-to-end integration tests spanning the workspace crates: synthetic
//! frame → pillarisation → model execution → accelerator simulation →
//! baseline comparisons.

use spade::baselines::{
    DenseAccelerator, Platform, PlatformKind, PointAccModel, SpConv2dAccelerator,
};
use spade::core::{Accelerator, SpadeAccelerator, SpadeConfig};
use spade::nn::graph::{execute_pattern, ExecutionContext};
use spade::nn::{ExecutionArena, Model, ModelKind};
use spade::pointcloud::DatasetPreset;
use spade::tensor::GridShape;

/// Builds a reduced-scale (quarter-grid) run of one model so the integration
/// tests stay fast in debug builds.
fn reduced_run(
    kind: ModelKind,
    seed: u64,
) -> (
    spade::nn::graph::NetworkTrace,
    Vec<spade::nn::graph::LayerWorkload>,
) {
    let preset = DatasetPreset::kitti_like();
    let frame = preset.generate_frame(seed);
    let base = preset.grid_shape();
    // Quarter-size window over the mid-range road corridor, so the cropped
    // frame keeps the occupancy statistics of a full frame.
    let grid = GridShape::new(base.height / 4, base.width / 4);
    let (row0, col0) = (base.height / 4, base.width * 3 / 8);
    let coords: Vec<_> = frame
        .pillars
        .active_coords
        .iter()
        .filter(|c| {
            c.row >= row0
                && c.row < row0 + grid.height
                && c.col >= col0
                && c.col < col0 + grid.width
        })
        .map(|c| spade::tensor::PillarCoord::new(c.row - row0, c.col - col0))
        .collect();
    let pillar_cfg = preset.pillar_config();
    let ctx = ExecutionContext {
        scene: Some(&frame.scene),
        pillar_config: Some(&pillar_cfg),
        seed,
        ..Default::default()
    };
    execute_pattern(
        Model::build(kind).spec(),
        &coords,
        grid,
        500_000,
        &ctx,
        &mut ExecutionArena::new(),
        None,
    )
}

#[test]
fn full_pipeline_runs_for_every_sparse_model_on_every_accelerator() {
    let cfg = SpadeConfig::high_end();
    let spade = SpadeAccelerator::new(cfg);
    let dense = DenseAccelerator::new(cfg);
    let spconv2d = SpConv2dAccelerator::default();
    let pointacc = PointAccModel::new(cfg);
    let accelerators: [&dyn Accelerator; 4] = [&spade, &dense, &spconv2d, &pointacc];
    for kind in ModelKind::SPARSE {
        let (trace, workloads) = reduced_run(kind, 5);
        assert_eq!(trace.layers.len(), workloads.len());
        assert!(trace.total_macs() > 0, "{kind} produced no work");
        assert!(
            trace.computation_savings() > 0.0,
            "{kind} should save computation vs dense"
        );
        for acc in accelerators {
            let perf = acc.simulate_network(&workloads, trace.encoder_macs);
            assert_eq!(
                perf.layers.len(),
                workloads.len(),
                "{} on {kind}",
                acc.name()
            );
            assert!(perf.fps > 0.0, "{} on {kind}", acc.name());
            assert!(perf.total_cycles > 0, "{} on {kind}", acc.name());
            assert!(perf.energy.total_pj() > 0.0, "{} on {kind}", acc.name());
        }
    }
}

#[test]
fn sparse_variants_order_matches_table_one() {
    // SPP1 (standard SpConv, unconstrained dilation) saves the least; both
    // SPP2 (SpConv-P) and SPP3 (submanifold) save substantially more. The
    // SPP3-vs-SPP2 gap only shows at paper-scale grids (quarter-scale stages
    // saturate), so it is left to full-scale `spade-experiments table1` runs
    // rather than asserted here.
    let s1 = reduced_run(ModelKind::Spp1, 9).0.computation_savings();
    let s2 = reduced_run(ModelKind::Spp2, 9).0.computation_savings();
    let s3 = reduced_run(ModelKind::Spp3, 9).0.computation_savings();
    assert!(s2 > s1, "SPP2 ({s2}) should exceed SPP1 ({s1})");
    assert!(s3 > s1, "SPP3 ({s3}) should exceed SPP1 ({s1})");
}

#[test]
fn spade_speedup_over_dense_acc_grows_with_sparsity() {
    let cfg = SpadeConfig::high_end();
    let spade: &dyn Accelerator = &SpadeAccelerator::new(cfg);
    let dense: &dyn Accelerator = &DenseAccelerator::new(cfg);
    // SPP1's savings at quarter scale (~15%) are close to SPADE's scheduling
    // overhead, so only the moderately and highly sparse variants are asserted
    // to beat DenseAcc here; regenerate the full-scale SPP1 numbers with
    // `spade-experiments fig10`.
    let mut results = Vec::new();
    for kind in [ModelKind::Spp2, ModelKind::Spp3] {
        let (trace, workloads) = reduced_run(kind, 13);
        let perf = spade.simulate_network(&workloads, trace.encoder_macs);
        let dense_perf = dense.simulate_network(&workloads, trace.encoder_macs);
        let speedup = dense_perf.total_cycles as f64 / perf.total_cycles.max(1) as f64;
        assert!(speedup > 1.0, "{kind}: speedup {speedup}");
        results.push((trace.computation_savings(), speedup));
    }
    // The model with the highest computation savings must also see the
    // highest speedup over DenseAcc (sparsity-proportional gains).
    let best_savings = results
        .iter()
        .cloned()
        .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
        .unwrap();
    let worst_savings = results
        .iter()
        .cloned()
        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
        .unwrap();
    assert!(
        best_savings.1 >= worst_savings.1,
        "speedup should track savings: {results:?}"
    );
}

#[test]
fn spade_outperforms_pointacc_and_platforms() {
    let cfg = SpadeConfig::high_end();
    let (trace, workloads) = reduced_run(ModelKind::Spp2, 17);
    let spade_acc: &dyn Accelerator = &SpadeAccelerator::new(cfg);
    let pointacc: &dyn Accelerator = &PointAccModel::new(cfg);
    let spade = spade_acc.simulate_network(&workloads, trace.encoder_macs);
    let pacc = pointacc.simulate_network(&workloads, trace.encoder_macs);
    assert!(pacc.total_cycles > spade.total_cycles);
    assert!(pacc.total_dram_bytes >= spade.total_dram_bytes);
    let gpu = Platform::new(PlatformKind::Gpu2080Ti).run(&trace);
    assert!(gpu.total_ms() > spade.latency_ms);
}

#[test]
fn foreground_coverage_is_tracked_for_pruning_models() {
    let (trace, _) = reduced_run(ModelKind::Spp2, 23);
    let coverage = trace.foreground_coverage.expect("scene was provided");
    assert!(coverage > 0.0 && coverage <= 1.0);
}

#[test]
fn zoo_traces_match_the_committed_golden() {
    // Every zoo model's per-layer active counts, rules and MACs, its encoder
    // MACs and the bits of its foreground coverage, over the first three
    // frames of the default drive at reduced scale. Frame 0 also runs at
    // full scale for the models whose layers repeat an input (SpConv-S
    // stacks and the heads that read one concatenated set), and under a
    // harsh pruning configuration for the pruning models, whose default
    // keeps every foreground pillar (coverage 1.0).
    use spade::nn::PruningConfig;
    use spade::pointcloud::dataset::DatasetKind;
    use spade::pointcloud::{DriveScenario, DriveScenarioConfig};
    use spade_bench::workload::model_run_on_frame;
    use spade_bench::WorkloadScale::{Full, Reduced};
    use std::fmt::Write;

    let cfg = DriveScenarioConfig {
        num_frames: 3,
        ..DriveScenarioConfig::default()
    };
    let drive = |preset: DatasetPreset| {
        let frames = DriveScenario::new(preset.clone(), cfg.clone()).frames();
        (preset, frames)
    };
    let kitti = drive(DatasetPreset::kitti_like());
    let nuscenes = drive(DatasetPreset::nuscenes_like());
    let default = PruningConfig::default();
    let harsh = PruningConfig {
        keep_ratio: 0.02,
        min_keep: 1,
        finetuned: false,
    };
    let mut actual = String::new();
    for model in ModelKind::ALL {
        let (preset, frames) = match model.dataset() {
            DatasetKind::KittiLike => &kitti,
            DatasetKind::NuscenesLike => &nuscenes,
        };
        let mut runs: Vec<_> = frames.iter().map(|f| (Reduced, f, default)).collect();
        if matches!(
            model,
            ModelKind::Spp3 | ModelKind::Scp2 | ModelKind::Scp3 | ModelKind::Spn
        ) {
            runs.push((Full, &frames[0], default));
        }
        if matches!(model, ModelKind::Spp2 | ModelKind::Scp2 | ModelKind::Scp3) {
            runs.extend([(Reduced, &frames[0], harsh), (Full, &frames[0], harsh)]);
        }
        for (scale, f, pruning) in runs {
            let run = model_run_on_frame(
                model,
                preset,
                &f.frame,
                cfg.pruning_seed(f.index),
                scale,
                pruning,
            );
            let tag = format!("{model} {scale:?} f{} keep{}", f.index, pruning.keep_ratio);
            let coverage = run
                .trace
                .foreground_coverage
                .map_or_else(|| "none".to_owned(), |c| format!("{:016x}", c.to_bits()));
            writeln!(
                actual,
                "{tag} encoder_macs {} coverage {coverage}",
                run.trace.encoder_macs
            )
            .unwrap();
            for l in &run.trace.layers {
                writeln!(
                    actual,
                    "{tag} {} {} {} {} {} {}",
                    l.name, l.in_active, l.dilated_active, l.out_active, l.rules, l.macs
                )
                .unwrap();
            }
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/zoo_traces.txt");
    let golden = std::fs::read_to_string(path).expect("tests/golden/zoo_traces.txt is committed");
    let expected: String = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        actual == expected,
        "zoo traces drifted from tests/golden/zoo_traces.txt; now:\n{actual}"
    );
}
