//! # spade-sim
//!
//! Cycle-level hardware-simulation substrate for the SPADE reproduction:
//! DRAM timing/energy (a Ramulator substitute), SRAM energy/area (a CACTI
//! substitute), a direct-mapped cache model (used by the cache-based
//! baselines), and the technology constants shared by every accelerator
//! model in the workspace.
//!
//! All constants approximate a 32 nm-class ASIC at 1 GHz, the paper's
//! implementation technology; they are documented where defined and only
//! *relative* comparisons between configurations are meaningful.
//!
//! ## Example
//!
//! ```
//! use spade_sim::{DramModel, EnergyModel};
//!
//! let mut dram = DramModel::lpddr4();
//! dram.read_sequential(4096);
//! assert!(dram.stats().total_bytes == 4096);
//!
//! let e = EnergyModel::asic_32nm();
//! assert!(e.mac_energy_pj() < e.dram_energy_per_byte_pj());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod cache;
pub mod dram;
pub mod energy;
pub mod units;

pub use area::AreaModel;
pub use cache::{CacheStats, DirectMappedCache};
pub use dram::{DramModel, DramStats};
pub use energy::{EnergyBreakdown, EnergyModel};
