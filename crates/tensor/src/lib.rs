//! # spade-tensor
//!
//! Sparse and dense tensor data structures for the SPADE reproduction
//! (HPCA 2024, "SPADE: Sparse Pillar-based 3D Object Detection Accelerator").
//!
//! Pillar-based 3D object detection aggregates LiDAR points into a 2D
//! bird's-eye-view (BEV) grid. Each *active* grid cell (a "pillar") carries a
//! dense vector of `C` channel elements; inactive cells are entirely zero.
//! This *vector sparsity* is the central object of the paper, and this crate
//! provides its canonical representations:
//!
//! * [`PillarCoord`] — a `(row, col)` coordinate on the BEV grid.
//! * [`CprTensor`] — the **compressed-pillar-row** (CPR) sparse tensor: a
//!   row-wise, column-sorted encoding of active pillars plus their channel
//!   data, analogous to CSR for matrices. CPR ordering is what SPADE's Rule
//!   Generation Unit exploits for `O(P)` input-output mapping.
//! * [`DenseTensor`] — a dense `C × H × W` pseudo-image, the densified form
//!   used by GPU-friendly PointPillars baselines.
//! * [`stats`] — the input-output pillar ratio (IOPR) of a layer.
//!
//! ## Example
//!
//! ```
//! use spade_tensor::{CprTensor, PillarCoord, GridShape};
//!
//! // A 4x4 BEV grid with 2 channels and three active pillars.
//! let grid = GridShape::new(4, 4);
//! let mut builder = CprTensor::builder(grid, 2);
//! builder.push(PillarCoord::new(0, 1), vec![1.0, 2.0]).unwrap();
//! builder.push(PillarCoord::new(2, 0), vec![3.0, 4.0]).unwrap();
//! builder.push(PillarCoord::new(2, 3), vec![5.0, 6.0]).unwrap();
//! let t = builder.build();
//!
//! assert_eq!(t.num_active(), 3);
//! assert!((t.occupancy() - 3.0 / 16.0).abs() < 1e-9);
//! let dense = t.to_dense();
//! assert_eq!(dense.get(1, 2, 3), 6.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coord;
pub mod cpr;
pub mod dense;
pub mod error;
pub mod stats;

pub use coord::{GridShape, PillarCoord};
pub use cpr::{CprBuilder, CprTensor};
pub use dense::DenseTensor;
pub use error::TensorError;
