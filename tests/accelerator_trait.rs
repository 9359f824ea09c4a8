//! Unit tests for the [`Accelerator`] trait: all four implementors — SPADE,
//! DenseAcc, SpConv2D-Acc, and PointAcc — must return consistent, nonzero
//! [`spade::core::NetworkPerf`] results on a shared SPP2 workload fixture.

use spade::baselines::{DenseAccelerator, PointAccModel, SpConv2dAccelerator};
use spade::core::{Accelerator, NetworkPerf, SpadeAccelerator, SpadeConfig};
use spade::nn::graph::{execute_pattern, ExecutionContext, LayerWorkload};
use spade::nn::{ExecutionArena, Model, ModelKind};
use spade::tensor::{GridShape, PillarCoord};

/// The shared fixture: SPP2 executed at pattern level on a 96×96 grid with
/// clustered active pillars (LiDAR-like occupancy).
fn spp2_fixture() -> (Vec<LayerWorkload>, u64) {
    let grid = GridShape::new(96, 96);
    let mut coords: Vec<PillarCoord> = Vec::new();
    for (br, bc) in [(8u32, 8u32), (40, 56), (72, 24)] {
        for r in 0..10 {
            for c in 0..10 {
                coords.push(PillarCoord::new(br + r, bc + c));
            }
        }
    }
    let encoder_macs = 250_000u64;
    let model = Model::build(ModelKind::Spp2);
    let (_, workloads) = execute_pattern(
        model.spec(),
        &coords,
        grid,
        encoder_macs,
        &ExecutionContext::default(),
        &mut ExecutionArena::new(),
        None,
    );
    (workloads, encoder_macs)
}

/// The four implementors, boxed so the tests iterate over them uniformly.
fn all_accelerators() -> Vec<Box<dyn Accelerator>> {
    let cfg = SpadeConfig::high_end();
    vec![
        Box::new(SpadeAccelerator::new(cfg)),
        Box::new(DenseAccelerator::new(cfg)),
        Box::new(SpConv2dAccelerator::default()),
        Box::new(PointAccModel::new(cfg)),
    ]
}

fn assert_nonzero(name: &str, perf: &NetworkPerf, num_layers: usize) {
    assert_eq!(perf.layers.len(), num_layers, "{name}: layer count");
    assert!(perf.total_cycles > 0, "{name}: zero cycles");
    assert!(perf.total_macs > 0, "{name}: zero MACs");
    assert!(perf.total_dram_bytes > 0, "{name}: zero DRAM traffic");
    assert!(perf.latency_ms > 0.0, "{name}: zero latency");
    assert!(perf.fps > 0.0, "{name}: zero fps");
    assert!(perf.energy.total_pj() > 0.0, "{name}: zero energy");
    assert!(perf.average_power_w() > 0.0, "{name}: zero power");
}

#[test]
fn there_are_at_least_four_implementors() {
    let names: Vec<String> = all_accelerators()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    assert!(names.len() >= 4);
    for expected in ["SPADE", "DenseAcc", "SpConv2D-Acc", "PointAcc"] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing {expected} in {names:?}"
        );
    }
}

#[test]
fn every_implementor_returns_nonzero_network_perf_on_spp2() {
    let (workloads, encoder_macs) = spp2_fixture();
    for acc in all_accelerators() {
        let perf = acc.simulate_network(&workloads, encoder_macs);
        assert_nonzero(acc.name(), &perf, workloads.len());
    }
}

#[test]
fn network_perf_is_consistent_with_per_layer_results() {
    let (workloads, encoder_macs) = spp2_fixture();
    for acc in all_accelerators() {
        let perf = acc.simulate_network(&workloads, encoder_macs);
        let layer_cycles: u64 = workloads
            .iter()
            .map(|w| acc.simulate_layer(w).total_cycles)
            .sum();
        assert_eq!(
            perf.total_cycles,
            layer_cycles + perf.encoder_cycles,
            "{}: network cycles must equal layer cycles + encoder cycles",
            acc.name()
        );
        let layer_dram: u64 = workloads
            .iter()
            .map(|w| acc.simulate_layer(w).dram_bytes)
            .sum();
        assert_eq!(
            perf.total_dram_bytes,
            layer_dram,
            "{}: network DRAM must equal summed layer DRAM",
            acc.name()
        );
    }
}

#[test]
fn per_layer_results_are_nonzero_and_named() {
    let (workloads, _) = spp2_fixture();
    for acc in all_accelerators() {
        for w in &workloads {
            let perf = acc.simulate_layer(w);
            assert_eq!(perf.name, w.spec.name, "{}: layer name", acc.name());
            assert_eq!(perf.kind, w.spec.kind, "{}: layer kind", acc.name());
            assert!(perf.total_cycles > 0, "{}: zero layer cycles", acc.name());
            assert!(perf.macs > 0, "{}: zero layer MACs", acc.name());
            assert!(
                perf.total_cycles >= perf.mxu_cycles,
                "{}: total below compute",
                acc.name()
            );
        }
    }
}

#[test]
fn implementors_are_deterministic() {
    let (workloads, encoder_macs) = spp2_fixture();
    for acc in all_accelerators() {
        let a = acc.simulate_network(&workloads, encoder_macs);
        let b = acc.simulate_network(&workloads, encoder_macs);
        assert_eq!(a, b, "{}: nondeterministic result", acc.name());
    }
}

#[test]
fn spade_beats_the_dense_baseline_on_the_sparse_fixture() {
    let (workloads, encoder_macs) = spp2_fixture();
    let cfg = SpadeConfig::high_end();
    let spade = SpadeAccelerator::new(cfg);
    let dense = DenseAccelerator::new(cfg);
    let s = Accelerator::simulate_network(&spade, &workloads, encoder_macs);
    let d = Accelerator::simulate_network(&dense, &workloads, encoder_macs);
    assert!(
        s.total_cycles < d.total_cycles,
        "SPADE ({}) should beat DenseAcc ({}) on a sparse workload",
        s.total_cycles,
        d.total_cycles
    );
}
