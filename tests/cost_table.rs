//! SPADE's cost table against the trait path it tabulates: for every
//! configuration of the enlarged DSE grid, both dataflow extremes, and every
//! frame of a drive, `SpadeCostTable::frame_cost` must equal
//! `SpadeAccelerator::simulate_network` bit for bit, and
//! `SpadeCostTable::frame_bound` must equal `SpadeAccelerator::roofline_bound`
//! exactly. The sweep builds every SPADE cell, halving rung, and roofline
//! screen from the table, so these equalities are what keep its exports
//! byte-identical to a per-cell simulation.

use spade::core::{DataflowOptions, FrameCost, SpadeAccelerator, SpadeCostTable};
use spade::nn::{ModelKind, PruningConfig};
use spade::pointcloud::{DriveScenario, NamedScenario};
use spade_bench::dse::{adaptive, DseParams, SweepAxes};
use spade_bench::workload::{model_run_on_frame, simulate_on, ModelRun};
use spade_bench::WorkloadScale;

/// The reduced-scale drive of the default sweep (or of `scenario`), run
/// through `model`.
fn drive(model: ModelKind, scenario: Option<NamedScenario>) -> Vec<ModelRun> {
    let params = DseParams {
        scenario,
        ..DseParams::default_for(WorkloadScale::Reduced)
    };
    let cfg = params.drive_config();
    let preset = model.dataset().preset();
    DriveScenario::new(preset.clone(), cfg.clone())
        .frames()
        .iter()
        .map(|f| {
            model_run_on_frame(
                model,
                &preset,
                &f.frame,
                cfg.pruning_seed(f.index),
                WorkloadScale::Reduced,
                PruningConfig::default(),
            )
        })
        .collect()
}

fn assert_table_matches_trait_path(model: ModelKind, scenario: Option<NamedScenario>) {
    let runs = drive(model, scenario);
    let configs = SweepAxes::enlarged().expand_configs();
    let dataflows = [
        DataflowOptions::all_enabled(),
        DataflowOptions::all_disabled(),
    ];
    let table = SpadeCostTable::new(
        &configs,
        &dataflows,
        [runs
            .iter()
            .map(|run| (run.workloads.as_slice(), run.encoder_macs))],
    );
    let drive = format!("{}/{scenario:?}", model.name());
    let bits = |c: FrameCost| (c.latency_ms.to_bits(), c.energy_mj.to_bits(), c.dram_bytes);
    for (ci, config) in configs.iter().enumerate() {
        for (di, &opts) in dataflows.iter().enumerate() {
            let acc = SpadeAccelerator::with_options(*config, opts);
            for (f, run) in runs.iter().enumerate() {
                let simulated = FrameCost::from(&simulate_on(&acc, run));
                assert_eq!(table.frame_dram_bytes(0, f), simulated.dram_bytes);
                assert_eq!(
                    bits(table.frame_cost(0, ci, di, f)),
                    bits(simulated),
                    "{drive}: config {}, {opts:?}, frame {f}",
                    config.label(),
                );
            }
        }
        let bounds = adaptive::roofline_bound(config, &runs);
        for (f, &(lat, energy)) in bounds.iter().enumerate() {
            let (table_lat, table_energy) = table.frame_bound(0, ci, f);
            assert_eq!(
                (table_lat.to_bits(), table_energy.to_bits()),
                (lat.to_bits(), energy.to_bits()),
                "{drive}: bound of config {}, frame {f}",
                config.label(),
            );
        }
    }
}

#[test]
fn spp2_table_matches_the_trait_path() {
    assert_table_matches_trait_path(ModelKind::Spp2, None);
}

#[test]
fn scp3_table_matches_the_trait_path() {
    assert_table_matches_trait_path(ModelKind::Scp3, None);
}

#[test]
fn stop_and_go_table_matches_the_trait_path() {
    assert_table_matches_trait_path(ModelKind::Spp2, Some(NamedScenario::StopAndGo));
    assert_table_matches_trait_path(ModelKind::Scp3, Some(NamedScenario::StopAndGo));
}
