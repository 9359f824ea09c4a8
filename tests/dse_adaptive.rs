//! Integration tests of the adaptive design-space explorer: exact frontier
//! equivalence with the exhaustive sweep (the screen's whole contract),
//! soundness of the roofline lower bound it prunes on, the budget counters,
//! and worker-count determinism of the halving loop.

use spade::core::{DataflowOptions, SpadeAccelerator, SpadeConfig};
use spade::nn::{ModelKind, PruningConfig};
use spade::pointcloud::{DatasetPreset, DriveScenario, NamedScenario};
use spade_bench::dse::{adaptive, run_dse_on_pool, DseCell, DseParams, SweepAxes};
use spade_bench::workload::{model_run_on_frame, simulate_on};
use spade_bench::{WorkerPool, WorkloadScale};
use std::collections::BTreeSet;

/// A small grid that still sweeps both of the new axes, so the screen has
/// dominated buffer-split / banking points to discard.
fn small_params() -> DseParams {
    let mut params = DseParams::default_for(WorkloadScale::Reduced);
    params.axes = SweepAxes {
        pe_dims: vec![(16, 16), (64, 64)],
        sram_scales: vec![0.5, 1.0],
        freq_ghz: vec![1.0],
        dram_bytes_per_cycle: vec![25.6],
        buffer_splits: vec![0.0, 0.25, 0.75],
        sram_banks: vec![spade::core::GATHER_SCATTER_LANES, 4],
        dataflow: vec![DataflowOptions::all_enabled()],
    };
    params.num_frames = 3;
    params
}

/// The frontier cells by value: the adaptive explorer must reproduce these
/// byte-for-byte, not merely hit the same design points.
fn frontier_cells(result: &spade_bench::dse::DseResult) -> Vec<DseCell> {
    result.frontier().into_iter().cloned().collect()
}

#[test]
fn adaptive_frontier_is_byte_identical_to_exhaustive() {
    let exhaustive_params = small_params();
    let mut adaptive_params = exhaustive_params.clone();
    adaptive_params.adaptive = true;

    let exhaustive = run_dse_on_pool(&exhaustive_params, &WorkerPool::new(4));
    let adaptive_run = run_dse_on_pool(&adaptive_params, &WorkerPool::new(4));

    assert_eq!(exhaustive.cells.len(), adaptive_run.cells.len());
    assert_eq!(
        frontier_cells(&exhaustive),
        frontier_cells(&adaptive_run),
        "adaptive frontier drifted from the exhaustive frontier"
    );
    // Every fully simulated adaptive cell matches its exhaustive twin
    // exactly; screened cells carry bounds, which can only undercut.
    for (e, a) in exhaustive.cells.iter().zip(&adaptive_run.cells) {
        if a.simulated {
            assert_eq!(e, a, "simulated cell drifted: {}", a.design);
        } else {
            assert!(!a.on_frontier, "screened cell on frontier: {}", a.design);
            assert!(a.mean_latency_ms <= e.mean_latency_ms);
            assert!(a.mean_energy_mj <= e.mean_energy_mj);
        }
    }

    // Counter invariants, and the screen actually saves work on this grid.
    assert!(adaptive_run.adaptive);
    assert_eq!(
        adaptive_run.cells_screened + adaptive_run.cells_simulated,
        adaptive_run.cells.len()
    );
    assert!(
        adaptive_run.cells_screened > 0,
        "screen discarded nothing on a grid with dominated bank/split points"
    );
    assert!(adaptive_run.frames_saved >= adaptive_run.cells_screened);
    assert_eq!(exhaustive.cells_screened, 0);
    assert_eq!(exhaustive.cells_simulated, exhaustive.cells.len());
    assert_eq!(exhaustive.frames_saved, 0);

    // The budget columns ride along only on adaptive exports, so default
    // exports stay byte-identical.
    let adaptive_header = adaptive_run.to_csv().lines().next().unwrap().to_owned();
    for column in [
        "simulated",
        "cells_screened",
        "cells_simulated",
        "frames_saved",
    ] {
        assert!(adaptive_header.contains(column), "missing column {column}");
    }
    // Extension columns only append to the golden legacy header, once each.
    let legacy_header = include_str!("golden/dse_legacy_reduced.csv").lines().next();
    assert!(
        adaptive_header.starts_with(&format!("{},", legacy_header.unwrap())),
        "{adaptive_header}"
    );
    let columns: Vec<&str> = adaptive_header.split(',').collect();
    let unique: BTreeSet<&str> = columns.iter().copied().collect();
    assert_eq!(
        unique.len(),
        columns.len(),
        "duplicate column: {adaptive_header}"
    );
    let exhaustive_header = exhaustive.to_csv().lines().next().unwrap().to_owned();
    assert!(!exhaustive_header.contains("simulated"));
    assert!(adaptive_run.summary().contains("adaptive exploration"));
    assert!(!exhaustive.summary().contains("adaptive exploration"));
}

#[test]
fn adaptive_frontier_equality_holds_for_scenarios_and_delta() {
    // The screen composes with the scripted-scenario and delta-execution
    // paths (both only change how stage 1 builds the per-frame workloads):
    // frontier equality must survive the combination.
    for delta in [false, true] {
        let mut exhaustive_params = small_params();
        exhaustive_params.scenario = Some(NamedScenario::StopAndGo);
        exhaustive_params.delta = delta;
        let mut adaptive_params = exhaustive_params.clone();
        adaptive_params.adaptive = true;

        let exhaustive = run_dse_on_pool(&exhaustive_params, &WorkerPool::new(4));
        let adaptive_run = run_dse_on_pool(&adaptive_params, &WorkerPool::new(4));
        assert_eq!(
            frontier_cells(&exhaustive),
            frontier_cells(&adaptive_run),
            "frontier drifted (stop-and-go, delta={delta})"
        );
    }
}

#[test]
fn adaptive_sweep_is_bit_identical_across_worker_counts() {
    // Halving rungs fan out over the pool but decide serially, so the whole
    // result — screened bounds included — must not depend on `--jobs`.
    let mut params = small_params();
    params.adaptive = true;
    let serial = run_dse_on_pool(&params, &WorkerPool::new(1));
    let parallel = run_dse_on_pool(&params, &WorkerPool::new(4));
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_json(), parallel.to_json());
}

#[test]
fn roofline_bound_never_exceeds_simulation() {
    // The exactness argument rests on `bound ≤ simulated` per frame, for
    // every configuration and dataflow setting. Exercise every named
    // scenario, both dataflow extremes, and configurations that stress the
    // new axes (skewed buffer split, conflicted banking) plus the clock and
    // array-shape axes the bound's arithmetic folds in. Both benchmark
    // workloads run: SPP2 on the KITTI-like preset, SCP3 on nuScenes.
    let configs = [
        SpadeConfig::high_end(),
        SpadeConfig::low_end(),
        SpadeConfig::high_end()
            .with_buffer_split(0.9)
            .with_sram_banks(1),
        SpadeConfig::high_end()
            .with_freq_ghz(1.5)
            .with_buffer_split(0.25)
            .with_sram_banks(4),
        SpadeConfig::low_end()
            .with_buffer_split(0.1)
            .with_sram_banks(2),
    ];
    let inputs = [
        (ModelKind::Spp2, DatasetPreset::kitti_like()),
        (ModelKind::Scp3, DatasetPreset::nuscenes_like()),
    ];
    for ((model, preset), scenario) in inputs
        .iter()
        .flat_map(|input| NamedScenario::ALL.into_iter().map(move |s| (input, s)))
    {
        let cfg = scenario.config(2, 2024);
        let drive = DriveScenario::new(preset.clone(), cfg.clone());
        let runs: Vec<_> = drive
            .frames()
            .iter()
            .map(|f| {
                model_run_on_frame(
                    *model,
                    preset,
                    &f.frame,
                    cfg.pruning_seed(f.index),
                    WorkloadScale::Reduced,
                    PruningConfig::default(),
                )
            })
            .collect();
        for config in &configs {
            let bounds = adaptive::roofline_bound(config, &runs);
            assert_eq!(bounds.len(), runs.len());
            for dataflow in [
                DataflowOptions::all_enabled(),
                DataflowOptions::all_disabled(),
            ] {
                let acc = SpadeAccelerator::with_options(*config, dataflow);
                for (run, &(bound_lat, bound_energy)) in runs.iter().zip(&bounds) {
                    let perf = simulate_on(&acc, run);
                    assert!(
                        bound_lat <= perf.latency_ms,
                        "{}/{scenario}: latency bound {bound_lat} > simulated {} \
                         (config {}, dataflow {dataflow:?})",
                        model.name(),
                        perf.latency_ms,
                        config.label(),
                    );
                    assert!(
                        bound_energy <= perf.energy.total_mj(),
                        "{}/{scenario}: energy bound {bound_energy} > simulated {} \
                         (config {}, dataflow {dataflow:?})",
                        model.name(),
                        perf.energy.total_mj(),
                        config.label(),
                    );
                }
            }
        }
    }
}
