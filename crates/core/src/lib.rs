//! # spade-core
//!
//! The SPADE accelerator model (HPCA 2024): a weight-stationary 2D systolic
//! array (MXU) augmented with a streaming Rule Generation Unit (RGU), a
//! Gather-Scatter Unit (GSU) with an Active Tile Manager (ATM), and a
//! configurable seven-instruction dataflow with the paper's two optimisation
//! techniques (weight grouping for strided sparse convolution and ganged
//! scatter for sparse deconvolution).
//!
//! The model is a cycle-level performance/energy simulator: it consumes the
//! per-layer workloads produced by [`spade_nn::graph::execute_pattern`] —
//! the one pattern-level executor entry point, on both the plain and the
//! temporal delta path — and reports cycles, MXU utilisation, DRAM traffic,
//! and an energy breakdown per layer and per network — the quantities behind
//! Fig. 6–12 and 14–15 of the paper.
//!
//! ## Example
//!
//! ```
//! use spade_core::{SpadeAccelerator, SpadeConfig};
//! use spade_nn::graph::LayerWorkload;
//! use spade_nn::{ConvKind, LayerSpec};
//! use spade_tensor::GridShape;
//!
//! let workload = LayerWorkload {
//!     spec: LayerSpec::new("B1C1", ConvKind::SpConv, 16, 16),
//!     stage: 1,
//!     input_grid: GridShape::new(64, 64),
//!     input_active: 2,
//!     output_grid: GridShape::new(64, 64),
//!     output_active: 2,
//!     rules: 18,
//! };
//! let acc = SpadeAccelerator::new(SpadeConfig::high_end());
//! let perf = acc.simulate_layer(&workload);
//! assert!(perf.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod config;
pub mod cost_table;
pub mod dataflow;
pub mod gsu;
pub mod report;
pub mod rgu;

pub use accelerator::{
    encoder_cycles, simulate_network_via_layers, Accelerator, NetworkPerf, SpadeAccelerator,
    ENCODER_MXU_UTILIZATION,
};
pub use config::{DataflowOptions, SpadeConfig, GATHER_SCATTER_LANES};
pub use cost_table::{FrameCost, SpadeCostTable};
pub use dataflow::{LayerCounts, LayerPerf};
pub use gsu::ActiveTileManager;
pub use report::{AcceleratorReport, ReportTable, ReportValue};
pub use rgu::RuleGenerationUnit;
