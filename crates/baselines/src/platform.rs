//! Analytic CPU / GPU / Jetson platform models.
//!
//! The paper measures PP/CP/PN with dense Conv2D (cuDNN / MKL-DNN) and the
//! sparse variants with the SpConv library (hash-table rule generation +
//! cache-based gather/scatter) on five platforms. The models here capture the
//! structure those measurements exhibit: dense convolution runs near each
//! platform's effective throughput, while sparse execution gains little
//! because the mapping and gather/scatter overheads absorb the computation
//! savings (Fig. 2(c), Fig. 11(a–b)).

use serde::{Deserialize, Serialize};
use spade_nn::graph::NetworkTrace;

/// The comparison platforms of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// NVIDIA A6000 (server GPU, high-end comparison).
    GpuA6000,
    /// NVIDIA RTX 2080 Ti (server GPU, high-end comparison).
    Gpu2080Ti,
    /// NVIDIA Jetson Xavier NX (edge, high-end comparison).
    JetsonXavierNx,
    /// Intel Xeon 5115 (CPU, low-end comparison).
    CpuXeon5115,
    /// NVIDIA Jetson Nano (edge, low-end comparison).
    JetsonNano,
}

impl std::fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlatformKind::GpuA6000 => "A6000",
            PlatformKind::Gpu2080Ti => "2080Ti",
            PlatformKind::JetsonXavierNx => "Jetson-NX",
            PlatformKind::CpuXeon5115 => "Xeon-5115",
            PlatformKind::JetsonNano => "Jetson-NN",
        };
        f.write_str(s)
    }
}

/// Latency breakdown of one network on one platform (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformLatency {
    /// Dense/sparse convolution (matrix-multiply) time.
    pub conv_ms: f64,
    /// Input-output mapping (rule generation) time; zero for dense execution.
    pub mapping_ms: f64,
    /// Gather/scatter and other sparse-bookkeeping time.
    pub gather_ms: f64,
    /// Framework and memory-management overhead.
    pub other_ms: f64,
}

impl PlatformLatency {
    /// Total latency (ms).
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.conv_ms + self.mapping_ms + self.gather_ms + self.other_ms
    }
}

/// An analytic platform model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Which platform this models.
    pub kind: PlatformKind,
    /// Effective dense-convolution throughput (GOPS achieved, not peak).
    pub effective_dense_gops: f64,
    /// Effective sparse-convolution throughput with the SpConv library
    /// (lower: gather/scatter-bound kernels).
    pub effective_sparse_gops: f64,
    /// Hash-table mapping cost per million rules (ms) — limited parallelism
    /// makes this roughly constant per rule.
    pub mapping_ms_per_mrule: f64,
    /// Gather/scatter cost per million rules (ms).
    pub gather_ms_per_mrule: f64,
    /// Fixed per-frame framework overhead (ms).
    pub framework_overhead_ms: f64,
    /// Board/device power while running the workload (W).
    pub power_w: f64,
}

impl Platform {
    /// Builds the model for a platform kind.
    #[must_use]
    pub fn new(kind: PlatformKind) -> Self {
        match kind {
            PlatformKind::GpuA6000 => Self {
                kind,
                effective_dense_gops: 9_000.0,
                effective_sparse_gops: 2_200.0,
                mapping_ms_per_mrule: 0.55,
                gather_ms_per_mrule: 0.35,
                framework_overhead_ms: 1.2,
                power_w: 300.0,
            },
            PlatformKind::Gpu2080Ti => Self {
                kind,
                effective_dense_gops: 7_500.0,
                effective_sparse_gops: 1_800.0,
                mapping_ms_per_mrule: 0.65,
                gather_ms_per_mrule: 0.40,
                framework_overhead_ms: 1.2,
                power_w: 250.0,
            },
            PlatformKind::JetsonXavierNx => Self {
                kind,
                effective_dense_gops: 900.0,
                effective_sparse_gops: 260.0,
                mapping_ms_per_mrule: 3.2,
                gather_ms_per_mrule: 2.0,
                framework_overhead_ms: 2.5,
                power_w: 15.0,
            },
            PlatformKind::CpuXeon5115 => Self {
                kind,
                effective_dense_gops: 350.0,
                effective_sparse_gops: 120.0,
                mapping_ms_per_mrule: 2.4,
                gather_ms_per_mrule: 1.6,
                framework_overhead_ms: 2.0,
                power_w: 85.0,
            },
            PlatformKind::JetsonNano => Self {
                kind,
                effective_dense_gops: 120.0,
                effective_sparse_gops: 40.0,
                mapping_ms_per_mrule: 8.0,
                gather_ms_per_mrule: 5.0,
                framework_overhead_ms: 4.0,
                power_w: 10.0,
            },
        }
    }

    /// The high-end comparison set (GPUs and Jetson Xavier NX).
    #[must_use]
    pub fn high_end_set() -> Vec<Platform> {
        vec![
            Platform::new(PlatformKind::GpuA6000),
            Platform::new(PlatformKind::Gpu2080Ti),
            Platform::new(PlatformKind::JetsonXavierNx),
        ]
    }

    /// The low-end comparison set (CPU and Jetson Nano).
    #[must_use]
    pub fn low_end_set() -> Vec<Platform> {
        vec![
            Platform::new(PlatformKind::CpuXeon5115),
            Platform::new(PlatformKind::JetsonNano),
        ]
    }

    /// Runs a network trace on this platform. Dense-baseline networks (no
    /// sparse layers) run entirely through the dense path; sparse networks pay
    /// the SpConv-library mapping and gather overheads for their sparse layers
    /// while their dense layers still run densely.
    #[must_use]
    pub fn run(&self, trace: &NetworkTrace) -> PlatformLatency {
        use spade_nn::ConvKind;
        let mut dense_ops = 2.0 * trace.encoder_macs as f64;
        let mut sparse_ops = 0.0;
        let mut sparse_rules = 0.0f64;
        for l in &trace.layers {
            // A layer runs through the dense (cuDNN / MKL-DNN) path when it is
            // declared dense or when its input is already a full pseudo-image
            // (the strided and deconvolution layers of the dense baselines).
            let runs_dense = l.kind == ConvKind::Dense || l.in_active == l.in_grid.num_cells();
            if runs_dense {
                dense_ops += 2.0 * l.dense_macs as f64;
            } else {
                sparse_ops += 2.0 * l.macs as f64;
                sparse_rules += l.rules as f64;
            }
        }
        let conv_ms = dense_ops / (self.effective_dense_gops * 1e9) * 1e3
            + sparse_ops / (self.effective_sparse_gops * 1e9) * 1e3;
        let mapping_ms = sparse_rules / 1e6 * self.mapping_ms_per_mrule;
        let gather_ms = sparse_rules / 1e6 * self.gather_ms_per_mrule;
        PlatformLatency {
            conv_ms,
            mapping_ms,
            gather_ms,
            other_ms: self.framework_overhead_ms,
        }
    }

    /// Energy (millijoules) for one frame of the given latency.
    #[must_use]
    pub fn energy_mj(&self, latency: &PlatformLatency) -> f64 {
        self.power_w * latency.total_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_nn::graph::{execute_pattern, ExecutionContext};
    use spade_nn::{ExecutionArena, Model, ModelKind};
    use spade_tensor::{GridShape, PillarCoord};

    fn trace(kind: ModelKind) -> NetworkTrace {
        let grid = GridShape::new(96, 96);
        let coords: Vec<PillarCoord> = (0..500)
            .map(|i| PillarCoord::new((i / 25) as u32 * 2, (i % 25) as u32 * 2))
            .collect();
        execute_pattern(
            Model::build(kind).spec(),
            &coords,
            grid,
            200_000,
            &ExecutionContext::default(),
            &mut ExecutionArena::new(),
            None,
        )
        .0
    }

    #[test]
    fn sparse_networks_gain_little_on_gpus() {
        // The core observation of Fig. 2(c): SPP's total platform time does
        // not drop in proportion to its computation savings, because mapping
        // and gather overheads appear.
        let gpu = Platform::new(PlatformKind::Gpu2080Ti);
        let dense = gpu.run(&trace(ModelKind::Pp));
        let sparse = gpu.run(&trace(ModelKind::Spp3));
        let latency_gain = dense.total_ms() / sparse.total_ms();
        let t = trace(ModelKind::Spp3);
        let ops_gain = 1.0 / (1.0 - t.computation_savings());
        assert!(
            latency_gain < ops_gain,
            "latency gain {latency_gain} should trail ops gain {ops_gain}"
        );
        assert!(sparse.mapping_ms > 0.0 && dense.mapping_ms == 0.0);
    }

    #[test]
    fn faster_platforms_have_lower_latency() {
        let t = trace(ModelKind::Pp);
        let a6000 = Platform::new(PlatformKind::GpuA6000).run(&t).total_ms();
        let nano = Platform::new(PlatformKind::JetsonNano).run(&t).total_ms();
        assert!(a6000 < nano);
    }

    #[test]
    fn a6000_gains_little_over_2080ti_on_sparse_models() {
        // 2.5x peak throughput but only a modest gain end to end (the paper
        // reports ~20%): mapping overheads do not scale with GPU FLOPS.
        let t = trace(ModelKind::Spp2);
        let a6000 = Platform::new(PlatformKind::GpuA6000).run(&t).total_ms();
        let ti = Platform::new(PlatformKind::Gpu2080Ti).run(&t).total_ms();
        let gain = ti / a6000;
        assert!(gain > 1.0 && gain < 1.5, "gain {gain}");
    }

    #[test]
    fn energy_follows_power_and_latency() {
        let t = trace(ModelKind::Pp);
        let gpu = Platform::new(PlatformKind::Gpu2080Ti);
        let jetson = Platform::new(PlatformKind::JetsonXavierNx);
        let e_gpu = gpu.energy_mj(&gpu.run(&t));
        let e_jet = jetson.energy_mj(&jetson.run(&t));
        // The GPU is faster but burns far more power; both energies positive.
        assert!(e_gpu > 0.0 && e_jet > 0.0);
    }

    #[test]
    fn platform_sets_cover_the_paper() {
        assert_eq!(Platform::high_end_set().len(), 3);
        assert_eq!(Platform::low_end_set().len(), 2);
        assert_eq!(PlatformKind::JetsonXavierNx.to_string(), "Jetson-NX");
    }
}
