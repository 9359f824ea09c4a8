//! # spade
//!
//! Facade crate of the SPADE reproduction (HPCA 2024, "SPADE: Sparse
//! Pillar-based 3D Object Detection Accelerator for Autonomous Driving").
//! It re-exports the workspace crates so applications can depend on a single
//! crate:
//!
//! * [`tensor`] — BEV coordinates, CPR sparse active sets.
//! * [`pointcloud`] — synthetic LiDAR scenes, dataset presets, accuracy
//!   proxy.
//! * [`nn`] — sparse convolution variants, rule generation, dynamic vector
//!   pruning, the PointPillars/CenterPoint/PillarNet model zoo.
//! * [`sim`] — DRAM/SRAM/cache/energy/area models.
//! * [`core`] — the SPADE accelerator (RGU, GSU, MXU, dataflow).
//! * [`baselines`] — DenseAcc, SpConv2D-Acc, PointAcc, CPU/GPU/Jetson models.
//!
//! ## Quickstart
//!
//! ```
//! use spade::pointcloud::DatasetPreset;
//! use spade::nn::graph::{execute_pattern, ExecutionContext};
//! use spade::nn::{ExecutionArena, Model, ModelKind};
//! use spade::core::{SpadeAccelerator, SpadeConfig};
//!
//! // Generate a synthetic KITTI-like frame and run SPP2 on SPADE.HE. The
//! // arena is reusable scratch; `None` takes the plain (non-delta) path.
//! let preset = DatasetPreset::kitti_like();
//! let frame = preset.generate_frame(7);
//! let model = Model::build(ModelKind::Spp2);
//! let ctx = ExecutionContext::default();
//! let (trace, workloads) = execute_pattern(
//!     model.spec(),
//!     &frame.pillars.active_coords,
//!     preset.grid_shape(),
//!     1_000_000,
//!     &ctx,
//!     &mut ExecutionArena::new(),
//!     None,
//! );
//! let perf = SpadeAccelerator::new(SpadeConfig::high_end())
//!     .simulate_network(&workloads, trace.encoder_macs);
//! assert!(perf.fps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spade_baselines as baselines;
pub use spade_core as core;
pub use spade_nn as nn;
pub use spade_pointcloud as pointcloud;
pub use spade_sim as sim;
pub use spade_tensor as tensor;
