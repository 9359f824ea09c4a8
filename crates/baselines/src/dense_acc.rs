//! DenseAcc: the ideal dense accelerator baseline.
//!
//! DenseAcc is SPADE without the RGU, GSU, and pruning support: it densifies
//! sparse pillars into the full pseudo-image and runs every layer as dense
//! convolution on the same weight-stationary systolic array. It is the
//! "ideal dense accelerator design" reference of the abstract and Fig. 9–12.

use spade_core::{simulate_network_via_layers, Accelerator, LayerPerf, NetworkPerf, SpadeConfig};
use spade_nn::graph::{dense_macs_for, LayerWorkload};
use spade_sim::EnergyModel;

/// The dense accelerator model.
#[derive(Debug, Clone)]
pub struct DenseAccelerator {
    config: SpadeConfig,
    energy: EnergyModel,
    /// Achievable utilisation on dense convolution (weight-load overheads are
    /// amortised over full feature maps).
    utilization: f64,
}

impl DenseAccelerator {
    /// Creates a DenseAcc instance with the same form factor as a SPADE
    /// configuration.
    #[must_use]
    pub fn new(config: SpadeConfig) -> Self {
        Self {
            config,
            energy: EnergyModel::asic_32nm(),
            utilization: 0.92,
        }
    }

    /// The hardware configuration.
    #[must_use]
    pub const fn config(&self) -> &SpadeConfig {
        &self.config
    }
}

impl Accelerator for DenseAccelerator {
    fn name(&self) -> &str {
        "DenseAcc"
    }

    /// Executes the layer's dense equivalent: the full input and output grids
    /// move through DRAM and every grid cell is computed, regardless of which
    /// pillars are active.
    fn simulate_layer(&self, workload: &LayerWorkload) -> LayerPerf {
        let spec = &workload.spec;
        let c = spec.in_channels as u64;
        let m = spec.out_channels as u64;
        let macs = dense_macs_for(spec, workload.input_grid, workload.output_grid);
        let compute_cycles =
            (macs as f64 / (self.config.num_pes() as f64 * self.utilization)).ceil() as u64;
        let dram_bytes = workload.input_grid.num_cells() as u64 * c
            + workload.output_grid.num_cells() as u64 * m
            + spec.kernel.num_taps() as u64 * c * m;
        let dram_cycles = (dram_bytes as f64 / self.config.dram_bytes_per_cycle).ceil() as u64;
        let total_cycles = compute_cycles.max(dram_cycles);
        let sram_bytes = macs / self.config.pe_rows as u64 + dram_bytes;
        LayerPerf {
            name: spec.name.clone(),
            kind: spec.kind,
            mxu_cycles: compute_cycles,
            load_wgt_cycles: 0,
            copy_psum_cycles: 0,
            scatter_cycles: 0,
            rulegen_cycles: 0,
            total_cycles,
            macs,
            dram_bytes,
            sram_bytes,
        }
    }

    fn simulate_network(&self, workloads: &[LayerWorkload], encoder_macs: u64) -> NetworkPerf {
        // The encoder runs at DenseAcc's dense-conv utilisation, not the
        // shared sparse-encoder figure.
        simulate_network_via_layers(
            self,
            workloads,
            encoder_macs,
            self.config.num_pes(),
            self.utilization,
            self.config.freq_ghz,
            &self.energy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_core::SpadeAccelerator;
    use spade_nn::graph::{execute_pattern, ExecutionContext, NetworkTrace};
    use spade_nn::{ExecutionArena, Model, ModelKind};
    use spade_tensor::{GridShape, PillarCoord};

    fn run(kind: ModelKind) -> (NetworkTrace, Vec<LayerWorkload>) {
        // A 128x128 grid with a few clustered blocks of active pillars keeps
        // the sparsity in the realistic few-percent regime even after
        // dilation, like a real LiDAR frame does.
        let grid = GridShape::new(128, 128);
        let mut coords: Vec<PillarCoord> = Vec::new();
        for (br, bc) in [(10u32, 10u32), (60, 70), (100, 30)] {
            for r in 0..12 {
                for c in 0..12 {
                    coords.push(PillarCoord::new(br + r, bc + c));
                }
            }
        }
        execute_pattern(
            Model::build(kind).spec(),
            &coords,
            grid,
            10_000,
            &ExecutionContext::default(),
            &mut ExecutionArena::new(),
            None,
        )
    }

    #[test]
    fn dense_cycles_track_dense_macs() {
        let (trace, workloads) = run(ModelKind::Spp2);
        let acc = DenseAccelerator::new(SpadeConfig::high_end());
        let perf = acc.simulate_network(&workloads, trace.encoder_macs);
        assert_eq!(perf.total_macs, trace.dense_macs());
        assert!(perf.total_cycles > 0);
    }

    #[test]
    fn spade_beats_dense_acc_on_sparse_models_and_savings_scale_with_sparsity() {
        let spade = SpadeAccelerator::new(SpadeConfig::high_end());
        let dense = DenseAccelerator::new(SpadeConfig::high_end());
        let mut speedups = Vec::new();
        for kind in [ModelKind::Spp1, ModelKind::Spp3] {
            let (trace, workloads) = run(kind);
            let perf = spade.simulate_network(&workloads, trace.encoder_macs);
            let base = dense.simulate_network(&workloads, trace.encoder_macs);
            let s = base.total_cycles as f64 / perf.total_cycles as f64;
            assert!(s > 1.0, "{kind}: speedup {s}");
            assert!(base.energy.total_pj() > perf.energy.total_pj());
            speedups.push((trace.computation_savings(), s));
        }
        // The sparser model (SPP3) gains more than SPP1.
        assert!(speedups[1].0 > speedups[0].0);
        assert!(speedups[1].1 > speedups[0].1);
    }

    #[test]
    fn high_end_dense_is_faster_than_low_end_dense() {
        let (trace, workloads) = run(ModelKind::Pp);
        let he = DenseAccelerator::new(SpadeConfig::high_end())
            .simulate_network(&workloads, trace.encoder_macs);
        let le = DenseAccelerator::new(SpadeConfig::low_end())
            .simulate_network(&workloads, trace.encoder_macs);
        assert!(he.total_cycles < le.total_cycles);
        assert!(he.average_power_w() > 0.0);
    }
}
