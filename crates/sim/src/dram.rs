//! Off-chip DRAM timing and traffic model (Ramulator substitute).
//!
//! The model captures the two effects the paper's DRAM comparisons rely on:
//! sequential (streaming) accesses run at full bandwidth with rare row
//! activations, while random accesses pay a row-miss penalty on most requests
//! (Fig. 6(c), Fig. 14).

use crate::units::Cycles;
use serde::{Deserialize, Serialize};

/// Cumulative DRAM activity statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Total bytes transferred.
    pub total_bytes: u64,
    /// Bytes transferred by sequential (streaming) requests.
    pub sequential_bytes: u64,
    /// Bytes transferred by random requests.
    pub random_bytes: u64,
    /// Number of row activations modelled.
    pub row_activations: u64,
    /// Accumulated access cycles (at the accelerator clock).
    pub cycles: Cycles,
}

/// A bandwidth/row-buffer DRAM model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramModel {
    /// Peak bandwidth in bytes per accelerator cycle.
    bytes_per_cycle: f64,
    /// DRAM row (page) size in bytes.
    row_bytes: u64,
    /// Extra cycles charged per row activation.
    row_activation_cycles: u64,
    /// Fraction of random requests that miss the open row.
    random_row_miss_rate: f64,
    stats: DramStats,
}

impl DramModel {
    /// An LPDDR4-class interface: ~25.6 GB/s at a 1 GHz accelerator clock.
    #[must_use]
    pub fn lpddr4() -> Self {
        Self {
            bytes_per_cycle: 25.6,
            row_bytes: 2048,
            row_activation_cycles: 28,
            random_row_miss_rate: 0.8,
            stats: DramStats::default(),
        }
    }

    /// Records a sequential (streaming) transfer of `bytes`.
    /// Returns the cycles this transfer occupies the DRAM interface.
    pub fn read_sequential(&mut self, bytes: u64) -> Cycles {
        let cycles = self.ideal_cycles(bytes);
        self.stats.total_bytes += bytes;
        self.stats.sequential_bytes += bytes;
        self.stats.row_activations += bytes.div_ceil(self.row_bytes);
        self.stats.cycles += cycles;
        cycles
    }

    /// Records `count` random transfers of `granule` bytes each (e.g. cache
    /// line fills). Most of them pay a row activation.
    pub fn read_random(&mut self, count: u64, granule: u64) -> Cycles {
        let bytes = count * granule;
        let misses = (count as f64 * self.random_row_miss_rate).round() as u64;
        let cycles = Cycles::new(
            (bytes as f64 / self.bytes_per_cycle).ceil() as u64
                + misses * self.row_activation_cycles,
        );
        self.stats.total_bytes += bytes;
        self.stats.random_bytes += bytes;
        self.stats.row_activations += misses;
        self.stats.cycles += cycles;
        cycles
    }

    /// The accumulated statistics.
    #[must_use]
    pub const fn stats(&self) -> DramStats {
        self.stats
    }

    /// The minimum cycles needed to move `bytes` at peak bandwidth with a
    /// single row activation per row — the "ideal DRAM latency" reference of
    /// Fig. 6(c).
    #[must_use]
    pub fn ideal_cycles(&self, bytes: u64) -> Cycles {
        Cycles::new(
            (bytes as f64 / self.bytes_per_cycle).ceil() as u64
                + bytes.div_ceil(self.row_bytes) * self.row_activation_cycles,
        )
    }

    /// Resets the statistics.
    pub fn reset(&mut self) {
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_matches_ideal() {
        let mut d = DramModel::lpddr4();
        let c = d.read_sequential(64 * 1024);
        assert_eq!(c, d.ideal_cycles(64 * 1024));
    }

    #[test]
    fn random_costs_more_than_sequential_for_same_bytes() {
        let mut a = DramModel::lpddr4();
        let mut b = DramModel::lpddr4();
        let seq = a.read_sequential(64 * 1024);
        let rnd = b.read_random(1024, 64);
        assert_eq!(a.stats().total_bytes, b.stats().total_bytes);
        assert!(rnd > seq, "random {rnd:?} should exceed sequential {seq:?}");
    }

    #[test]
    fn stats_accumulate() {
        let mut d = DramModel::lpddr4();
        d.read_sequential(1000);
        d.read_sequential(500);
        d.read_random(10, 64);
        let s = d.stats();
        assert_eq!(s.total_bytes, 1000 + 500 + 640);
        assert_eq!(s.sequential_bytes, 1500);
        assert_eq!(s.random_bytes, 640);
        assert!(s.cycles > Cycles::default());
        d.reset();
        assert_eq!(d.stats(), DramStats::default());
    }
}
