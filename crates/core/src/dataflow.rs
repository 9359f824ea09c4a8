//! The configurable seven-instruction dataflow and its cycle model.
//!
//! SPADE executes a layer as a sequence of `RuleGen`, `Gather_inp`,
//! `Gather_wgt`, `Load_wgt`, `MXU`, `Copy_psum`, and `Scatter_out`
//! instructions (Fig. 7). `RuleGen` and the gathers are double-buffered and
//! hide behind MXU computation after the first tile; `Load_wgt` and
//! `Copy_psum` cannot overlap computation and are the utilisation-limiting
//! overheads that the weight-grouping and ganged-scatter optimisations attack
//! (Fig. 8).

use crate::config::{DataflowOptions, SpadeConfig, GATHER_SCATTER_LANES};
use crate::gsu::{ActiveTileManager, TilePlan};
use crate::rgu::RuleGenerationUnit;
use serde::{Deserialize, Serialize};
use spade_nn::graph::LayerWorkload;
use spade_nn::ConvKind;

/// Per-layer performance result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPerf {
    /// Layer name.
    pub name: String,
    /// Convolution kind.
    pub kind: ConvKind,
    /// MXU (compute) cycles.
    pub mxu_cycles: u64,
    /// Exposed weight-load cycles.
    pub load_wgt_cycles: u64,
    /// Exposed partial-sum copy cycles.
    pub copy_psum_cycles: u64,
    /// Exposed scatter cycles (non-zero only when scatter cannot hide).
    pub scatter_cycles: u64,
    /// Exposed rule-generation cycles (first tile only; the rest is hidden).
    pub rulegen_cycles: u64,
    /// Total cycles including memory-bound stalls.
    pub total_cycles: u64,
    /// Multiply-accumulates actually executed.
    pub macs: u64,
    /// DRAM bytes moved (inputs + weights + outputs).
    pub dram_bytes: u64,
    /// SRAM bytes moved.
    pub sram_bytes: u64,
}

impl LayerPerf {
    /// MXU utilisation: useful MACs over the MAC slots available during the
    /// layer's execution.
    #[must_use]
    pub fn mxu_utilization(&self, config: &SpadeConfig) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.total_cycles as f64 * config.num_pes() as f64)
    }
}

/// Rule generation overlaps computation after the first tile, but at least
/// this many cycles of it are always exposed.
const MIN_EXPOSED_RULEGEN_CYCLES: u64 = 16;

/// The configuration-independent work of one layer: every count SPADE's layer
/// cost is built from. [`schedule_layer`] and the roofline floor
/// ([`LayerCounts::floor_cycles`]) both start from this record, and its
/// methods are the configuration-dependent terms they share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCounts {
    /// Active input pillars, as the workload holds them (may be 0).
    inputs: usize,
    /// Active output pillars, as the workload holds them (may be 0).
    outputs: usize,
    /// Rules, clamped to ≥ 1: every layer streams at least one.
    rules: u64,
    /// Input channels.
    in_channels: usize,
    /// Output channels.
    out_channels: usize,
    /// Kernel taps.
    taps: usize,
    /// Multiply-accumulates executed.
    pub(crate) macs: u64,
    /// SRAM bytes moved: the input vector and the int32 partial sums of
    /// every rule, plus tile fills and drains.
    pub(crate) sram_bytes: u64,
    /// DRAM bytes moved ([`LayerCounts::dram_bytes`]).
    pub(crate) dram_bytes: u64,
}

impl LayerCounts {
    /// Counts the work of `workload`.
    #[must_use]
    pub fn of(workload: &LayerWorkload) -> Self {
        let spec = &workload.spec;
        let (inputs, outputs) = (workload.input_active, workload.output_active);
        let a = inputs.max(1) as u64;
        let q = outputs.max(1) as u64;
        let r = workload.rules.max(1);
        let c = spec.in_channels as u64;
        let m = spec.out_channels as u64;
        let taps = spec.kernel.num_taps();
        // DRAM traffic moves at least one byte per element.
        let (cp, mp) = (c.max(1), m.max(1));
        Self {
            inputs,
            outputs,
            rules: r,
            in_channels: spec.in_channels,
            out_channels: spec.out_channels,
            taps,
            macs: r * c * m,
            sram_bytes: r * (c + 4 * m) + a * c + q * m,
            dram_bytes: a * cp + taps as u64 * cp * mp + q * mp,
        }
    }

    /// DRAM bytes the layer moves: the ATM moves every input, weight, and
    /// output element exactly once.
    #[must_use]
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }

    /// Channel tiles `(⌈C / pe_rows⌉, ⌈M / pe_cols⌉)`: how many passes the
    /// input and output channels need through the array.
    fn channel_tiles(&self, config: &SpadeConfig) -> (u64, u64) {
        (
            self.in_channels.div_ceil(config.pe_rows) as u64,
            self.out_channels.div_ceil(config.pe_cols) as u64,
        )
    }

    /// The ATM's tile plan under `config`'s buffers.
    fn tile_plan(&self, config: &SpadeConfig) -> TilePlan {
        ActiveTileManager::new(config.buf_in_kib, config.buf_out_kib).plan_for_counts(
            self.inputs,
            self.outputs,
            self.in_channels,
            self.out_channels,
        )
    }

    /// Gather/scatter bank-conflict stall. Banking below the lane count
    /// serialises conflicting accesses: each rule loses (lanes - banks)/lanes
    /// of a cycle to conflict arbitration, integer-folded so the default
    /// banking adds zero cycles.
    fn bank_stall(&self, config: &SpadeConfig) -> u64 {
        let lanes = u64::from(GATHER_SCATTER_LANES);
        let banks = u64::from(config.sram_banks).min(lanes);
        self.rules * (lanes - banks) / lanes
    }

    /// Cycles the DRAM interface needs to move [`LayerCounts::dram_bytes`];
    /// it bounds throughput for thin layers.
    fn dram_cycles(&self, config: &SpadeConfig) -> u64 {
        (self.dram_bytes as f64 / config.dram_bytes_per_cycle).ceil() as u64
    }

    /// The layer's roofline floor under `config`: [`schedule_layer`]'s total
    /// with every dataflow surcharge dropped, so it is a lower bound on the
    /// scheduled cycles for every [`DataflowOptions`].
    #[must_use]
    pub fn floor_cycles(&self, config: &SpadeConfig) -> u64 {
        let (ch_in, ch_out) = self.channel_tiles(config);
        let num_tiles = self.tile_plan(config).num_tiles as u64;
        self.compute_floor(config, ch_in * ch_out, num_tiles)
            .max(self.dram_cycles(config))
    }

    /// The dataflow-independent compute cycles: each rule streams one pillar
    /// through the array per channel tile, the bank stall, one weight load
    /// (`pe_rows` cycles) per tap per channel tile per ATM tile, and the
    /// minimum exposed rule generation.
    fn compute_floor(&self, config: &SpadeConfig, ch_tiles: u64, num_tiles: u64) -> u64 {
        self.rules * ch_tiles
            + self.bank_stall(config)
            + self.taps as u64 * ch_tiles * num_tiles * config.pe_rows as u64
            + MIN_EXPOSED_RULEGEN_CYCLES
    }
}

/// Schedules one layer on SPADE and returns its performance: the roofline
/// floor ([`LayerCounts::floor_cycles`]) plus the dataflow's surcharges.
#[must_use]
pub fn schedule_layer(
    workload: &LayerWorkload,
    config: &SpadeConfig,
    opts: &DataflowOptions,
) -> LayerPerf {
    let spec = &workload.spec;
    let counts = LayerCounts::of(workload);
    let a = counts.inputs.max(1);
    let q = counts.outputs.max(1) as u64;
    let r = counts.rules;
    let k = counts.taps as u64;
    let pe_rows = config.pe_rows as u64;

    let plan = counts.tile_plan(config);
    let floor_tiles = plan.num_tiles as u64;
    // Fixed conservative tile (half the buffer) when adaptive sizing is
    // disabled.
    let num_tiles = if opts.adaptive_tiling {
        plan.num_tiles
    } else {
        a.div_ceil((plan.input_tile / 2).max(1))
    };

    // How effectively a gathered input tile is reused by the loaded weights.
    // Strided convolution without weight grouping and deconvolution without
    // ganged scatter both waste most of the gathered tile (Fig. 8).
    let reuse_eff = match spec.kind {
        ConvKind::SpStConv if !opts.weight_grouping => 0.30,
        ConvKind::SpStConv => 0.95,
        ConvKind::SpDeconv if !opts.ganged_scatter => 0.30,
        ConvKind::SpDeconv => 0.95,
        _ => 1.0,
    };
    let effective_tiles = ((num_tiles as f64) / reuse_eff).ceil() as u64;

    let (ch_tiles_in, ch_tiles_out) = counts.channel_tiles(config);
    let ch_tiles = ch_tiles_in * ch_tiles_out;
    let floor = counts.compute_floor(config, ch_tiles, floor_tiles);

    // Surcharges over the floor, each non-negative, so the total never drops
    // below `counts.floor_cycles(config)`.
    // Weight loads: one per tap per channel tile per *effective* input tile;
    // reuse inefficiency and conservative tiling only ever add tiles.
    let extra_tiles = effective_tiles - floor_tiles;
    // Partial-sum copies between consecutive overlapping input tiles.
    let copy_psum_cycles = if matches!(spec.kind, ConvKind::SpDeconv) {
        0
    } else {
        (effective_tiles.saturating_sub(1)) * config.pe_cols as u64
    };
    // Scatter is double-buffered; it only becomes exposed for deconvolution
    // without ganged scatter, where every kernel's outputs are flushed densely.
    let exposed_scatter = if matches!(spec.kind, ConvKind::SpDeconv) && !opts.ganged_scatter {
        q * ch_tiles_out / 4
    } else {
        0
    };
    // Rule generation overlaps computation after the first tile.
    let rulegen_total = RuleGenerationUnit::new().cycles_for(a, q as usize, r);
    let rulegen_cycles = (rulegen_total / num_tiles.max(1) as u64).max(MIN_EXPOSED_RULEGEN_CYCLES);
    let surcharges = k * ch_tiles * extra_tiles * pe_rows
        + copy_psum_cycles
        + exposed_scatter
        + (rulegen_cycles - MIN_EXPOSED_RULEGEN_CYCLES);

    LayerPerf {
        name: spec.name.clone(),
        kind: spec.kind,
        mxu_cycles: r * ch_tiles,
        load_wgt_cycles: k * ch_tiles * effective_tiles * pe_rows,
        copy_psum_cycles,
        scatter_cycles: counts.bank_stall(config) + exposed_scatter,
        rulegen_cycles,
        total_cycles: (floor + surcharges).max(counts.dram_cycles(config)),
        macs: counts.macs,
        dram_bytes: counts.dram_bytes,
        sram_bytes: counts.sram_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_nn::LayerSpec;
    use spade_tensor::{CprTensor, GridShape, PillarCoord};

    fn workload(kind: ConvKind, active: usize, channels: usize) -> LayerWorkload {
        let grid = GridShape::new(256, 256);
        // Clustered pillars (adjacent columns), as LiDAR object returns are.
        let coords: Vec<PillarCoord> = (0..active)
            .map(|i| PillarCoord::new((i / 128) as u32, (i % 128) as u32))
            .collect();
        let spec = LayerSpec::new("L", kind, channels, channels);
        let out_grid = spec.output_grid(grid);
        let output_active = coords.iter().filter(|c| c.in_bounds(out_grid)).count();
        let tensor = CprTensor::from_coords(grid, 1, &coords);
        let rules =
            spade_nn::rulegen::generate_rules(&tensor, kind, spec.kernel).num_rules() as u64;
        LayerWorkload {
            spec,
            stage: 1,
            input_grid: grid,
            input_active: active,
            output_grid: out_grid,
            output_active,
            rules,
        }
    }

    #[test]
    fn spconv_utilization_is_high() {
        let w = workload(ConvKind::SpConvS, 8_000, 64);
        let cfg = SpadeConfig::high_end();
        let perf = schedule_layer(&w, &cfg, &DataflowOptions::all_enabled());
        let util = perf.mxu_utilization(&cfg);
        assert!(util > 0.85, "utilization {util}");
    }

    #[test]
    fn weight_grouping_improves_strided_utilization() {
        let w = workload(ConvKind::SpStConv, 8_000, 64);
        let cfg = SpadeConfig::high_end();
        let base = schedule_layer(&w, &cfg, &DataflowOptions::all_disabled());
        let opt = schedule_layer(&w, &cfg, &DataflowOptions::all_enabled());
        assert!(opt.total_cycles < base.total_cycles);
        assert!(opt.load_wgt_cycles < base.load_wgt_cycles);
    }

    #[test]
    fn ganged_scatter_removes_exposed_scatter() {
        let w = workload(ConvKind::SpDeconv, 4_000, 64);
        let cfg = SpadeConfig::high_end();
        let base = schedule_layer(&w, &cfg, &DataflowOptions::all_disabled());
        let opt = schedule_layer(&w, &cfg, &DataflowOptions::all_enabled());
        assert!(base.scatter_cycles > 0);
        assert_eq!(opt.scatter_cycles, 0);
        assert!(opt.total_cycles < base.total_cycles);
    }

    #[test]
    fn reduced_banking_adds_exposed_stall_cycles() {
        let w = workload(ConvKind::SpConv, 8_000, 64);
        let base_cfg = SpadeConfig::high_end();
        let base = schedule_layer(&w, &base_cfg, &DataflowOptions::all_enabled());
        assert_eq!(base.scatter_cycles, 0);
        let banked_cfg = base_cfg.with_sram_banks(8);
        let banked = schedule_layer(&w, &banked_cfg, &DataflowOptions::all_enabled());
        assert_eq!(banked.scatter_cycles, w.rules.max(1) / 2);
        assert!(banked.total_cycles >= base.total_cycles);
        // Banking above the lane count cannot help (every lane already has a
        // private bank).
        let over = schedule_layer(
            &w,
            &base_cfg.with_sram_banks(64),
            &DataflowOptions::all_enabled(),
        );
        assert_eq!(over.total_cycles, base.total_cycles);
    }

    #[test]
    fn floor_never_exceeds_any_schedule() {
        let configs = [
            SpadeConfig::high_end(),
            SpadeConfig::low_end().with_sram_banks(2),
        ];
        for kind in [
            ConvKind::SpConv,
            ConvKind::SpConvS,
            ConvKind::SpStConv,
            ConvKind::SpDeconv,
        ] {
            let w = workload(kind, 6_000, 64);
            let counts = LayerCounts::of(&w);
            for cfg in &configs {
                for mask in 0..8u8 {
                    let opts = DataflowOptions {
                        weight_grouping: mask & 1 != 0,
                        ganged_scatter: mask & 2 != 0,
                        adaptive_tiling: mask & 4 != 0,
                    };
                    let perf = schedule_layer(&w, cfg, &opts);
                    assert!(
                        counts.floor_cycles(cfg) <= perf.total_cycles,
                        "{kind} {opts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cycles_scale_with_work() {
        let cfg = SpadeConfig::high_end();
        let small = schedule_layer(
            &workload(ConvKind::SpConv, 1_000, 64),
            &cfg,
            &DataflowOptions::all_enabled(),
        );
        let large = schedule_layer(
            &workload(ConvKind::SpConv, 8_000, 64),
            &cfg,
            &DataflowOptions::all_enabled(),
        );
        assert!(large.total_cycles > small.total_cycles * 4);
        assert!(large.macs > small.macs * 4);
    }

    #[test]
    fn low_end_is_slower_than_high_end() {
        let w = workload(ConvKind::SpConv, 8_000, 64);
        let he = schedule_layer(
            &w,
            &SpadeConfig::high_end(),
            &DataflowOptions::all_enabled(),
        );
        let le = schedule_layer(&w, &SpadeConfig::low_end(), &DataflowOptions::all_enabled());
        assert!(le.total_cycles > he.total_cycles);
    }

    #[test]
    fn dram_traffic_counts_each_tensor_once() {
        let w = workload(ConvKind::SpConvS, 2_000, 32);
        let perf = schedule_layer(
            &w,
            &SpadeConfig::high_end(),
            &DataflowOptions::all_enabled(),
        );
        let expected = 2_000 * 32 + 9 * 32 * 32 + w.output_active as u64 * 32;
        assert_eq!(perf.dram_bytes, expected);
    }
}
