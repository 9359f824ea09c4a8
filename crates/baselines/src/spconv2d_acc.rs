//! Conventional element-sparse Conv2D accelerator (SpConv2D-Acc).
//!
//! These accelerators (SCNN-style outer-product, output-stationary) handle
//! *element-wise* activation sparsity well, but under the *vector* sparsity of
//! pillars they suffer two compounding problems (Sec. II-C, Fig. 2(a–b)):
//!
//! 1. **Underutilisation** — the condensed matrix of non-zero elements does
//!    not fill the PE rows because whole channel vectors are missing.
//! 2. **Bank conflicts** — partial sums of different output coordinates
//!    collide in the multi-banked output buffer, and the collision rate grows
//!    as the condensed indices become more irregular with sparsity.

use serde::{Deserialize, Serialize};
use spade_core::{
    simulate_network_via_layers, Accelerator, LayerPerf, NetworkPerf, ENCODER_MXU_UTILIZATION,
};
use spade_nn::graph::LayerWorkload;
use spade_sim::EnergyModel;

/// Clock assumed when the behaviour model is lifted into cycle-level results
/// via the [`Accelerator`] trait — the same 1 GHz as both SPADE design points,
/// so latency comparisons are apples-to-apples.
const SPCONV2D_FREQ_GHZ: f64 = 1.0;

/// The utilisation / bank-conflict model of a conventional sparse accelerator
/// processing vector-sparse pillars.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpConv2dAccelerator {
    /// PE array rows.
    pub pe_rows: usize,
    /// PE array columns.
    pub pe_cols: usize,
    /// Number of output-buffer banks.
    pub output_banks: usize,
}

/// Modelled behaviour of SpConv2D-Acc at one sparsity point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpConv2dBehaviour {
    /// Fraction of PE slots doing useful work.
    pub utilization: f64,
    /// Fraction of partial-sum writebacks that collide on a bank.
    pub bank_conflict_rate: f64,
    /// Effective throughput relative to the dense peak.
    pub effective_throughput: f64,
}

impl Default for SpConv2dAccelerator {
    fn default() -> Self {
        Self {
            pe_rows: 64,
            pe_cols: 64,
            output_banks: 16,
        }
    }
}

impl SpConv2dAccelerator {
    /// Creates a model with the given array and banking.
    #[must_use]
    pub fn new(pe_rows: usize, pe_cols: usize, output_banks: usize) -> Self {
        Self {
            pe_rows,
            pe_cols,
            output_banks,
        }
    }

    /// Models utilisation and bank conflicts at a given computation sparsity
    /// (fraction of pillar vectors that are zero, in `[0, 1)`).
    ///
    /// At low sparsity the condensed matrix still fills the array and output
    /// indices stay regular; as sparsity grows, whole rows go idle
    /// (utilisation falls towards the active fraction) and scattered output
    /// coordinates make bank collisions increasingly likely.
    #[must_use]
    pub fn behaviour(&self, sparsity: f64) -> SpConv2dBehaviour {
        let s = sparsity.clamp(0.0, 0.999);
        let density = 1.0 - s;
        // Rows are occupied in proportion to the active fraction of the
        // condensed matrix, with a floor from im2col packing.
        let utilization = (0.95 * (density + 0.08 * s)).clamp(0.05, 0.95);
        // Birthday-style collision probability among the irregular output
        // indices drained concurrently each cycle.
        let concurrent = (self.pe_cols as f64 / 8.0).clamp(2.0, 16.0);
        let spread = (self.output_banks as f64) * (0.2 + 0.8 * density);
        let bank_conflict_rate = (1.0 - (-concurrent / spread).exp()).clamp(0.0, 0.95);
        let effective_throughput = utilization * (1.0 - 0.6 * bank_conflict_rate);
        SpConv2dBehaviour {
            utilization,
            bank_conflict_rate,
            effective_throughput,
        }
    }

    /// Sweeps sparsity and returns `(sparsity, behaviour)` pairs — the data
    /// series of Fig. 2(b).
    #[must_use]
    pub fn sweep(&self, points: usize) -> Vec<(f64, SpConv2dBehaviour)> {
        (0..points)
            .map(|i| {
                let s = i as f64 / points as f64 * 0.95;
                (s, self.behaviour(s))
            })
            .collect()
    }
}

impl Accelerator for SpConv2dAccelerator {
    fn name(&self) -> &str {
        "SpConv2D-Acc"
    }

    /// Lifts the utilisation / bank-conflict behaviour model to cycle level:
    /// the layer's vector sparsity determines the effective throughput, and
    /// the gap between occupancy-limited and conflict-limited cycles shows up
    /// as exposed scatter (output-writeback) stalls.
    fn simulate_layer(&self, workload: &LayerWorkload) -> LayerPerf {
        let spec = &workload.spec;
        let a = workload.input_active.max(1) as u64;
        let q = workload.output_active.max(1) as u64;
        let c = spec.in_channels as u64;
        let m = spec.out_channels as u64;
        let sparsity = 1.0 - a as f64 / workload.input_grid.num_cells().max(1) as f64;
        let b = self.behaviour(sparsity);
        let num_pes = (self.pe_rows * self.pe_cols) as f64;
        // The condensed matrix skips zero vectors, so useful work matches the
        // sparse MAC count.
        let macs = workload.rules.max(1) * c * m;
        let ideal_cycles = (macs as f64 / num_pes).ceil() as u64;
        let mxu_cycles = (ideal_cycles as f64 / b.utilization.max(1e-6)).ceil() as u64;
        let total_cycles = (ideal_cycles as f64 / b.effective_throughput.max(1e-6)).ceil() as u64;
        let scatter_cycles = total_cycles.saturating_sub(mxu_cycles);
        let dram_bytes = a * c + q * m + spec.kernel.num_taps() as u64 * c * m;
        LayerPerf {
            name: spec.name.clone(),
            kind: spec.kind,
            mxu_cycles,
            load_wgt_cycles: 0,
            copy_psum_cycles: 0,
            scatter_cycles,
            rulegen_cycles: 0,
            total_cycles,
            macs,
            dram_bytes,
            sram_bytes: macs / self.pe_rows.max(1) as u64 + dram_bytes,
        }
    }

    fn simulate_network(&self, workloads: &[LayerWorkload], encoder_macs: u64) -> NetworkPerf {
        simulate_network_via_layers(
            self,
            workloads,
            encoder_macs,
            self.pe_rows * self.pe_cols,
            ENCODER_MXU_UTILIZATION,
            SPCONV2D_FREQ_GHZ,
            &EnergyModel::asic_32nm(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_degrades_with_sparsity() {
        let acc = SpConv2dAccelerator::default();
        let low = acc.behaviour(0.1);
        let high = acc.behaviour(0.9);
        assert!(low.utilization > high.utilization);
        assert!(high.utilization < 0.5);
    }

    #[test]
    fn bank_conflicts_grow_with_sparsity() {
        let acc = SpConv2dAccelerator::default();
        let low = acc.behaviour(0.1);
        let high = acc.behaviour(0.9);
        assert!(high.bank_conflict_rate > low.bank_conflict_rate);
    }

    #[test]
    fn effective_throughput_collapses_at_high_sparsity() {
        let acc = SpConv2dAccelerator::default();
        assert!(acc.behaviour(0.95).effective_throughput < 0.3);
        assert!(acc.behaviour(0.0).effective_throughput > 0.6);
    }

    #[test]
    fn sweep_is_monotone_in_utilization() {
        let acc = SpConv2dAccelerator::default();
        let sweep = acc.sweep(20);
        assert_eq!(sweep.len(), 20);
        for w in sweep.windows(2) {
            assert!(w[1].1.utilization <= w[0].1.utilization + 1e-9);
        }
    }

    #[test]
    fn more_banks_reduce_conflicts() {
        let few = SpConv2dAccelerator::new(64, 64, 8).behaviour(0.8);
        let many = SpConv2dAccelerator::new(64, 64, 64).behaviour(0.8);
        assert!(many.bank_conflict_rate < few.bank_conflict_rate);
    }
}
