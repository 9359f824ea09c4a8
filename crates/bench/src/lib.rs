//! # spade-bench
//!
//! The experiment harness of the SPADE reproduction: one function per table
//! and figure of the paper's evaluation, all driven by the synthetic KITTI-
//! like / nuScenes-like workloads. The `spade-experiments` binary and the
//! Criterion benches print the same series.
//!
//! Beyond the paper's figures, [`dse`] sweeps the hardware configuration
//! space against multi-frame drive scenarios and extracts latency/energy/area
//! Pareto frontiers (the `dse` experiment). The sweep fans out across the
//! dependency-free scoped-thread [`pool::WorkerPool`], with results
//! reassembled in index order so parallel runs are bit-identical to serial.
//!
//! The [`serve`] module turns the sweep into a long-running TCP service
//! (`spade-serve`): requests travel as [`protocol`] frames, duplicate
//! sweeps are deduped in flight, completed results are cached, and
//! persistent-world drives stream frame-by-frame through the temporal
//! delta path. [`loadgen`] (`spade-loadgen`) replays seeded Zipfian
//! request mixes against it and reports throughput, latency percentiles,
//! and cache hit-rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dse;
pub mod experiments;
pub mod loadgen;
pub mod pool;
pub mod protocol;
pub mod serve;
pub mod workload;

pub use dse::{run_dse_on_pool, DseParams, DseResult, SweepAxes};
pub use experiments::run_experiment;
pub use loadgen::{expected_hit_rate, run_loadgen, LoadgenConfig, LoadgenReport};
pub use pool::{default_jobs, ConcurrencyBudget, WorkerPool};
pub use protocol::{cache_key, canonicalize_params, FrameRequest, Request, Response};
pub use serve::{ServeConfig, Server};
pub use workload::{model_run, model_run_on_frame, ModelRun, WorkloadScale};
