//! Whole-network simulation on SPADE and the [`Accelerator`] abstraction all
//! accelerator models implement.

use crate::config::{DataflowOptions, SpadeConfig};
use crate::dataflow::{schedule_layer, LayerCounts, LayerPerf};
use serde::{Deserialize, Serialize};
use spade_nn::graph::LayerWorkload;
use spade_sim::{EnergyBreakdown, EnergyModel};

/// A simulated accelerator that executes sparse pillar-based detection
/// networks layer by layer.
///
/// This is the common API of the paper's Fig. 9/14 comparison set — SPADE,
/// the ideal dense accelerator, the conventional element-sparse Conv2D
/// accelerator, and the PointAcc model — so experiments, benches, and future
/// backends can be written once against `&dyn Accelerator` instead of
/// hand-calling each model.
///
/// Every implementor consumes the [`LayerWorkload`]s produced by
/// [`spade_nn::graph::execute_pattern`] and reports its results in the shared
/// [`LayerPerf`] / [`NetworkPerf`] vocabulary, which makes the models directly
/// comparable (cycles, DRAM traffic, and energy mean the same thing for each).
pub trait Accelerator {
    /// Human-readable model name (e.g. `"SPADE"`, `"DenseAcc"`).
    fn name(&self) -> &str;

    /// Simulates a single layer.
    fn simulate_layer(&self, workload: &LayerWorkload) -> LayerPerf;

    /// Simulates a whole network given its layer workloads and the pillar
    /// feature encoder's MAC count.
    fn simulate_network(&self, workloads: &[LayerWorkload], encoder_macs: u64) -> NetworkPerf;
}

/// MXU utilisation assumed when the pillar feature encoder is mapped onto a
/// systolic array (shared by every accelerator model so encoder accounting
/// never diverges between implementors).
pub const ENCODER_MXU_UTILIZATION: f64 = 0.8;

/// Runs `acc`'s layer model over every workload and aggregates the results
/// with the shared accounting — the one `simulate_network` body every
/// [`Accelerator`] implementor delegates to.
pub fn simulate_network_via_layers<A: Accelerator + ?Sized>(
    acc: &A,
    workloads: &[LayerWorkload],
    encoder_macs: u64,
    num_pes: usize,
    encoder_utilization: f64,
    freq_ghz: f64,
    energy: &EnergyModel,
) -> NetworkPerf {
    let layers: Vec<LayerPerf> = workloads.iter().map(|w| acc.simulate_layer(w)).collect();
    let encoder_cycles = encoder_cycles(encoder_macs, num_pes, encoder_utilization);
    NetworkPerf::from_layers(layers, encoder_cycles, encoder_macs, freq_ghz, energy)
}

/// Cycles the pillar feature encoder's `encoder_macs` take on `num_pes`
/// processing elements at `utilization` — the one encoder formula every
/// model and the roofline bound use.
#[must_use]
pub fn encoder_cycles(encoder_macs: u64, num_pes: usize, utilization: f64) -> u64 {
    (encoder_macs as f64 / (num_pes.max(1) as f64 * utilization)).ceil() as u64
}

/// Latency (ms) and energy of a network run from its cycle count and its
/// activity totals — the one cycles→latency/energy assembly, shared by
/// [`NetworkPerf::from_layers`], [`SpadeAccelerator::roofline_bound`], and
/// [`crate::SpadeCostTable`].
pub(crate) fn latency_and_energy(
    total_cycles: u64,
    total_macs: u64,
    total_sram: u64,
    total_dram: u64,
    freq_ghz: f64,
    energy: &EnergyModel,
) -> (f64, EnergyBreakdown) {
    let latency_ms = total_cycles as f64 / (freq_ghz * 1e9) * 1e3;
    let energy = energy.breakdown(total_macs, total_sram, total_dram, total_cycles, freq_ghz);
    (latency_ms, energy)
}

/// The SPADE accelerator model.
#[derive(Debug, Clone)]
pub struct SpadeAccelerator {
    config: SpadeConfig,
    options: DataflowOptions,
    energy: EnergyModel,
}

/// Whole-network performance and energy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkPerf {
    /// Per-layer performance.
    pub layers: Vec<LayerPerf>,
    /// Encoder cycles (pillar feature encoder mapped onto the MXU).
    pub encoder_cycles: u64,
    /// Total cycles.
    pub total_cycles: u64,
    /// End-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// Frames per second.
    pub fps: f64,
    /// Total multiply-accumulates executed.
    pub total_macs: u64,
    /// Total DRAM bytes moved.
    pub total_dram_bytes: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl NetworkPerf {
    /// Average power in watts.
    #[must_use]
    pub fn average_power_w(&self) -> f64 {
        if self.latency_ms <= 0.0 {
            return 0.0;
        }
        self.energy.total_mj() / self.latency_ms
    }

    /// Effective throughput in GOPS relative to an arbitrary operation count
    /// (e.g. the dense-equivalent operation count, to compute *effective*
    /// GOPS as the paper's Fig. 10(a) does).
    #[must_use]
    pub fn effective_gops(&self, ops: f64) -> f64 {
        if self.latency_ms <= 0.0 {
            return 0.0;
        }
        ops / (self.latency_ms * 1e-3) / 1e9
    }

    /// Aggregates per-layer results plus the encoder contribution into a
    /// whole-network result. This is the shared accounting every
    /// [`Accelerator`] implementor uses, which keeps cycles, DRAM traffic,
    /// latency, and energy directly comparable across models.
    #[must_use]
    pub fn from_layers(
        layers: Vec<LayerPerf>,
        encoder_cycles: u64,
        encoder_macs: u64,
        freq_ghz: f64,
        energy: &EnergyModel,
    ) -> Self {
        let layer_cycles: u64 = layers.iter().map(|l| l.total_cycles).sum();
        let total_cycles = layer_cycles + encoder_cycles;
        let total_macs: u64 = encoder_macs + layers.iter().map(|l| l.macs).sum::<u64>();
        let total_dram: u64 = layers.iter().map(|l| l.dram_bytes).sum();
        let total_sram: u64 = layers.iter().map(|l| l.sram_bytes).sum();
        let (latency_ms, energy) = latency_and_energy(
            total_cycles,
            total_macs,
            total_sram,
            total_dram,
            freq_ghz,
            energy,
        );
        NetworkPerf {
            layers,
            encoder_cycles,
            total_cycles,
            latency_ms,
            fps: if latency_ms > 0.0 {
                1000.0 / latency_ms
            } else {
                0.0
            },
            total_macs,
            total_dram_bytes: total_dram,
            energy,
        }
    }
}

impl SpadeAccelerator {
    /// Creates an accelerator with default (all-enabled) dataflow options.
    #[must_use]
    pub fn new(config: SpadeConfig) -> Self {
        Self {
            config,
            options: DataflowOptions::all_enabled(),
            energy: EnergyModel::asic_32nm(),
        }
    }

    /// Creates an accelerator with explicit dataflow options.
    #[must_use]
    pub fn with_options(config: SpadeConfig, options: DataflowOptions) -> Self {
        Self {
            config,
            options,
            energy: EnergyModel::asic_32nm(),
        }
    }

    /// The hardware configuration.
    #[must_use]
    pub const fn config(&self) -> &SpadeConfig {
        &self.config
    }

    /// The dataflow options.
    #[must_use]
    pub const fn options(&self) -> &DataflowOptions {
        &self.options
    }

    /// Simulates a single layer.
    #[must_use]
    pub fn simulate_layer(&self, workload: &LayerWorkload) -> LayerPerf {
        schedule_layer(workload, &self.config, &self.options)
    }

    /// Simulates a whole network given its layer workloads and the encoder's
    /// MAC count.
    #[must_use]
    pub fn simulate_network(&self, workloads: &[LayerWorkload], encoder_macs: u64) -> NetworkPerf {
        simulate_network_via_layers(
            self,
            workloads,
            encoder_macs,
            self.config.num_pes(),
            ENCODER_MXU_UTILIZATION,
            self.config.freq_ghz,
            &self.energy,
        )
    }

    /// Lower bound on [`SpadeAccelerator::simulate_network`]'s
    /// `(latency_ms, energy_mj)` for this configuration under *every*
    /// [`DataflowOptions`]: each layer at its roofline floor
    /// ([`LayerCounts::floor_cycles`]). The MAC/SRAM/DRAM activity is
    /// workload-exact, and only leakage sees the floor cycle count; leakage
    /// grows with cycles, so the energy is a lower bound too.
    #[must_use]
    pub fn roofline_bound(&self, workloads: &[LayerWorkload], encoder_macs: u64) -> (f64, f64) {
        let mut cycles = 0u64;
        let (mut macs, mut sram, mut dram) = (encoder_macs, 0u64, 0u64);
        for w in workloads {
            let counts = LayerCounts::of(w);
            cycles += counts.floor_cycles(&self.config);
            macs += counts.macs;
            sram += counts.sram_bytes;
            dram += counts.dram_bytes;
        }
        let total_cycles =
            cycles + encoder_cycles(encoder_macs, self.config.num_pes(), ENCODER_MXU_UTILIZATION);
        let (latency_ms, energy) = latency_and_energy(
            total_cycles,
            macs,
            sram,
            dram,
            self.config.freq_ghz,
            &self.energy,
        );
        (latency_ms, energy.total_mj())
    }
}

impl Accelerator for SpadeAccelerator {
    fn name(&self) -> &str {
        "SPADE"
    }

    fn simulate_layer(&self, workload: &LayerWorkload) -> LayerPerf {
        SpadeAccelerator::simulate_layer(self, workload)
    }

    fn simulate_network(&self, workloads: &[LayerWorkload], encoder_macs: u64) -> NetworkPerf {
        SpadeAccelerator::simulate_network(self, workloads, encoder_macs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_nn::graph::{execute_pattern, ExecutionContext};
    use spade_nn::{ExecutionArena, Model, ModelKind};
    use spade_tensor::{GridShape, PillarCoord};

    fn small_workloads(kind: ModelKind) -> (Vec<LayerWorkload>, u64) {
        // A reduced 64x64 grid keeps the unit test fast; network-scale runs
        // live in the bench crate.
        let grid = GridShape::new(64, 64);
        let coords: Vec<PillarCoord> = (0..200)
            .map(|i| PillarCoord::new((i / 20) as u32 * 3, (i % 20) as u32 * 3))
            .collect();
        let model = Model::build(kind);
        let (_, workloads) = execute_pattern(
            model.spec(),
            &coords,
            grid,
            50_000,
            &ExecutionContext::default(),
            &mut ExecutionArena::new(),
            None,
        );
        (workloads, 50_000)
    }

    #[test]
    fn sparse_model_runs_faster_than_dense_model() {
        let acc = SpadeAccelerator::new(SpadeConfig::high_end());
        let (sparse_w, enc) = small_workloads(ModelKind::Spp3);
        let (dense_w, _) = small_workloads(ModelKind::Pp);
        let sparse = acc.simulate_network(&sparse_w, enc);
        let dense = acc.simulate_network(&dense_w, enc);
        assert!(sparse.total_cycles < dense.total_cycles);
        assert!(sparse.energy.total_pj() < dense.energy.total_pj());
        assert!(sparse.fps > dense.fps);
    }

    #[test]
    fn network_perf_aggregates_layers() {
        let acc = SpadeAccelerator::new(SpadeConfig::high_end());
        let (w, enc) = small_workloads(ModelKind::Spp2);
        let perf = acc.simulate_network(&w, enc);
        assert_eq!(perf.layers.len(), w.len());
        let sum: u64 = perf.layers.iter().map(|l| l.total_cycles).sum();
        assert_eq!(perf.total_cycles, sum + perf.encoder_cycles);
        assert!(perf.latency_ms > 0.0);
        assert!(perf.average_power_w() > 0.0);
    }

    #[test]
    fn high_end_outperforms_low_end() {
        let (w, enc) = small_workloads(ModelKind::Spp1);
        let he = SpadeAccelerator::new(SpadeConfig::high_end()).simulate_network(&w, enc);
        let le = SpadeAccelerator::new(SpadeConfig::low_end()).simulate_network(&w, enc);
        assert!(he.total_cycles < le.total_cycles);
    }

    #[test]
    fn dataflow_optimisations_help_end_to_end() {
        let (w, enc) = small_workloads(ModelKind::Spp2);
        let on =
            SpadeAccelerator::with_options(SpadeConfig::high_end(), DataflowOptions::all_enabled())
                .simulate_network(&w, enc);
        let off = SpadeAccelerator::with_options(
            SpadeConfig::high_end(),
            DataflowOptions::all_disabled(),
        )
        .simulate_network(&w, enc);
        assert!(on.total_cycles <= off.total_cycles);
    }
}
