//! Benchmarks every paper experiment at reduced scale, one representative
//! model run, and the temporal delta rule-generation path against the full
//! streaming sweep on consecutive frames of the stop-and-go scenario.
//!
//! Run with `cargo bench -p spade-bench`; the experiment outputs themselves
//! come from the `spade-experiments` binary.
use criterion::{criterion_group, criterion_main, Criterion};
use spade_bench::experiments::all_experiment_ids;
use spade_bench::{run_experiment, workload, WorkloadScale};
use spade_nn::rulegen::delta::patch_rule_book;
use spade_nn::rulegen::generate_rules;
use spade_nn::{ConvKind, KernelShape, ModelKind};
use spade_pointcloud::{DatasetPreset, DriveScenario, NamedScenario};
use spade_tensor::{CprTensor, GridShape, PillarCoord};

fn experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    for id in all_experiment_ids() {
        group.bench_function(id, |b| {
            b.iter(|| run_experiment(id, WorkloadScale::Reduced))
        });
    }
    group.bench_function("model_run_spp2_reduced", |b| {
        b.iter(|| workload::model_run(ModelKind::Spp2, 7, WorkloadScale::Reduced))
    });
    group.finish();
}

fn fig05b_delta(c: &mut Criterion) {
    // Two consecutive frames of the persistent stop-and-go drive, full-
    // sweeping the second frame vs. patching the first frame's book. The gap
    // is the rule-generation work temporal coherence saves. The frames are
    // cropped to the quarter-scale road-corridor window the reduced sweep
    // runs (full-scale frames scatter per-frame LiDAR sampling noise across
    // nearly every row, dirtying the whole halo).
    let preset = DatasetPreset::kitti_like();
    let drive = DriveScenario::named(preset.clone(), NamedScenario::StopAndGo, 2, 2024);
    let base = preset.grid_shape();
    let grid = GridShape::new(base.height / 4, base.width / 4);
    let (row0, col0) = (base.height / 4, base.width * 3 / 8);
    let tensors: Vec<CprTensor> = drive
        .frames()
        .iter()
        .map(|f| {
            let coords: Vec<PillarCoord> = f
                .frame
                .pillars
                .active_coords
                .iter()
                .filter(|c| {
                    c.row >= row0
                        && c.row < row0 + grid.height
                        && c.col >= col0
                        && c.col < col0 + grid.width
                })
                .map(|c| PillarCoord::new(c.row - row0, c.col - col0))
                .collect();
            CprTensor::from_coords(grid, 1, &coords)
        })
        .collect();
    let (kind, kernel) = (ConvKind::SpConv, KernelShape::k3x3());
    let prev_book = generate_rules(&tensors[0], kind, kernel);
    let mut group = c.benchmark_group("fig05b");
    group.sample_size(10);
    group.bench_function("full_sweep_next_frame", |b| {
        b.iter(|| generate_rules(&tensors[1], kind, kernel))
    });
    group.bench_function("delta_patch_next_frame", |b| {
        b.iter(|| patch_rule_book(&tensors[0], &prev_book, &tensors[1], kind, kernel))
    });
    group.finish();
}

criterion_group!(benches, experiments, fig05b_delta);
criterion_main!(benches);
