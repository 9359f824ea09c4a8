//! # spade-nn
//!
//! Sparse-convolution algorithms, rule generation, dynamic vector pruning, and
//! the pillar-based 3D-object-detection model zoo for the SPADE reproduction
//! (HPCA 2024).
//!
//! This crate is the *algorithm* half of the paper:
//!
//! * [`kernel`] — convolution kernel geometry, seeded int8 weights, and the
//!   stride-pattern weight groups used by the weight-grouping dataflow
//!   optimisation.
//! * [`rule`] — the *rule book*: the explicit `(input, weight, output)` index
//!   mapping that sparse convolution executes from.
//! * [`rulegen`] — three rule-generation algorithms: the paper's streaming
//!   CPR-based algorithm (the RGU's algorithmic reference, `O(P)`), a
//!   hash-table algorithm (as used by the SpConv GPU library), and a
//!   merge-sort algorithm (as used by the PointAcc accelerator), each with a
//!   cycle-cost model for Fig. 5(b) — plus [`rulegen::delta`], the
//!   cross-frame state with which the executor counts, beside each sweep,
//!   the output rows an RGU would re-sweep when consecutive frames of a
//!   drive overlap (temporal delta execution).
//! * [`conv`] — sparse convolution variants (SpConv, SpConv-S, SpConv-P,
//!   strided SpConv, SpDeconv) and a dense reference, executed functionally on
//!   CPR tensors.
//! * [`encoder`] — the PointNet-lite pillar feature encoder.
//! * [`pruning`] — dynamic vector pruning (Top-K per layer) and its
//!   importance model.
//! * [`graph`] — layer graphs, network execution traces (active pillars,
//!   operation counts, IOPR per layer).
//! * [`arena`] — the pattern-level executor's layer sweep, word-parallel on
//!   occupancy bitmaps, and its reusable scratch buffers (zero per-layer
//!   reallocation).
//! * [`zoo`] — the paper's model zoo: PP, SPP1–3, CP, SCP1–3, PN, SPN.
//! * [`stats`] — GOPs/sparsity accounting helpers (Table I).
//!
//! ## Example
//!
//! ```
//! use spade_nn::zoo::{Model, ModelKind};
//!
//! let spp2 = Model::build(ModelKind::Spp2);
//! assert_eq!(spp2.kind(), ModelKind::Spp2);
//! assert!(spp2.spec().num_layers() > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod conv;
pub mod encoder;
pub mod graph;
pub mod kernel;
pub mod pruning;
pub mod rule;
pub mod rulegen;
pub mod stats;
pub mod zoo;

pub use arena::ExecutionArena;
pub use conv::{ConvKind, LayerSpec};
pub use graph::{LayerTrace, NetworkSpec, NetworkTrace};
pub use kernel::{KernelShape, WeightGroup, Weights};
pub use pruning::{PruningConfig, VectorPruner};
pub use rule::{Rule, RuleBook};
pub use rulegen::delta::{DeltaPolicy, DeltaStats, FrameDeltaState};
pub use rulegen::{RuleGenCost, RuleGenMethod};
pub use zoo::{Model, ModelKind};
