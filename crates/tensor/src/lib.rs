//! # spade-tensor
//!
//! Sparse BEV coordinates for the SPADE reproduction (HPCA 2024, "SPADE:
//! Sparse Pillar-based 3D Object Detection Accelerator").
//!
//! Pillar-based 3D object detection aggregates LiDAR points into a 2D
//! bird's-eye-view (BEV) grid. Each *active* grid cell (a "pillar") carries a
//! dense vector of `C` channel elements; inactive cells are entirely zero.
//! This *vector sparsity* is the central object of the paper. The
//! reproduction models it at pattern level (which cells are active, never
//! their channel values), and this crate provides its representations:
//!
//! * [`PillarCoord`] and [`GridShape`] — a `(row, col)` coordinate and the
//!   BEV grid it lies on.
//! * [`CprTensor`] — the **compressed-pillar-row** (CPR) active set: a
//!   row-wise, column-sorted encoding of active pillars, analogous to CSR
//!   for matrices. CPR ordering is what SPADE's Rule Generation Unit
//!   exploits for `O(P)` input-output mapping.
//! * [`stats`] — the input-output pillar ratio (IOPR) of a layer.
//!
//! ## Example
//!
//! ```
//! use spade_tensor::{CprTensor, GridShape, PillarCoord};
//!
//! // A 4x4 BEV grid with three active pillars, given in any order.
//! let grid = GridShape::new(4, 4);
//! let t = CprTensor::from_coords(
//!     grid,
//!     &[PillarCoord::new(2, 3), PillarCoord::new(0, 1), PillarCoord::new(2, 0)],
//! );
//!
//! assert_eq!(t.num_active(), 3);
//! assert_eq!(t.pillars_in_row(2), &[0, 3]);
//! assert_eq!(t.coords()[0], PillarCoord::new(0, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coord;
pub mod cpr;
pub mod stats;

pub use coord::{GridShape, PillarCoord};
pub use cpr::CprTensor;
