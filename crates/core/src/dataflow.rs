//! The configurable seven-instruction dataflow and its cycle model.
//!
//! SPADE executes a layer as a sequence of `RuleGen`, `Gather_inp`,
//! `Gather_wgt`, `Load_wgt`, `MXU`, `Copy_psum`, and `Scatter_out`
//! instructions (Fig. 7). `RuleGen` and the gathers are double-buffered and
//! hide behind MXU computation after the first tile; `Load_wgt` and
//! `Copy_psum` cannot overlap computation and are the utilisation-limiting
//! overheads that the weight-grouping and ganged-scatter optimisations attack
//! (Fig. 8).
//!
//! A layer's cost is split into terms named by the configuration fields each
//! one reads ([`LayerCounts`]): the array term (PE shape, input/output
//! buffers — an `ArrayClass` — and the [`DataflowOptions`]), its
//! surcharge-free floor (the `ArrayClass` alone), the bank stall
//! (`sram_banks`), and the DRAM cycles (`dram_bytes_per_cycle`).
//! `layer_cycles` combines them. A sweep whose configurations share those
//! fields computes each term once per class ([`crate::SpadeCostTable`]).

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

/// The configuration fields the array terms read: the PE-array shape and
/// the input/output buffers the ATM tiles into. Configurations that share
/// an `ArrayClass` share every layer's [`LayerCounts::array_cycles`] and
/// [`LayerCounts::array_floor_cycles`], whatever their clock, banking, or
/// DRAM bandwidth — which is what lets a sweep tabulate them
/// ([`crate::SpadeCostTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ArrayClass {
    /// PE array rows (input-channel dimension).
    pe_rows: usize,
    /// PE array columns (output-channel dimension).
    pe_cols: usize,
    /// Input activation buffer capacity (KiB).
    buf_in_kib: u64,
    /// Output/partial-sum buffer capacity (KiB).
    buf_out_kib: u64,
}

impl ArrayClass {
    /// The array fields of `config`.
    #[must_use]
    pub(crate) const fn of(config: &SpadeConfig) -> Self {
        Self {
            pe_rows: config.pe_rows,
            pe_cols: config.pe_cols,
            buf_in_kib: config.buf_in_kib,
            buf_out_kib: config.buf_out_kib,
        }
    }

    /// Number of processing elements.
    #[must_use]
    pub(crate) const fn num_pes(&self) -> usize {
        self.pe_rows * self.pe_cols
    }
}

/// A layer's total cycles from its three terms: the array's instructions
/// and the gather/scatter bank stall serialise, and the DRAM interface,
/// which overlaps both, bounds thin layers. [`schedule_layer`],
/// [`LayerCounts::floor_cycles`], and [`crate::SpadeCostTable`] all
/// combine their terms here.
#[must_use]
pub(crate) fn layer_cycles(array: u64, bank_stall: u64, dram: u64) -> u64 {
    (array + bank_stall).max(dram)
}

/// The configuration-independent work of one layer: every count SPADE's layer
/// cost is built from. Its methods are the configuration-dependent terms,
/// each taking only the configuration fields it reads; `layer_cycles`
/// combines them into [`schedule_layer`]'s total and the roofline floor
/// ([`LayerCounts::floor_cycles`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCounts {
    /// Convolution kind.
    kind: ConvKind,
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
    /// RGU pipeline cycles for the whole layer (before overlap).
    rulegen_cycles: u64,
    /// Multiply-accumulates executed.
    pub(crate) macs: u64,
    /// SRAM bytes moved: the input vector and the int32 partial sums of
    /// every rule, plus tile fills and drains.
    pub(crate) sram_bytes: u64,
    /// DRAM bytes moved: the ATM moves every input, weight, and output
    /// element exactly once.
    pub(crate) dram_bytes: u64,
}

/// The array's exposed cycles for one layer, split into the instructions
/// [`LayerPerf`] reports.
struct ArrayCycles {
    mxu: u64,
    load_wgt: u64,
    copy_psum: u64,
    exposed_scatter: u64,
    rulegen: u64,
}

impl ArrayCycles {
    fn total(&self) -> u64 {
        self.mxu + self.load_wgt + self.copy_psum + self.exposed_scatter + self.rulegen
    }
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
            kind: spec.kind,
            inputs,
            outputs,
            rules: r,
            in_channels: spec.in_channels,
            out_channels: spec.out_channels,
            taps,
            rulegen_cycles: RuleGenerationUnit::new().cycles_for(a as usize, q as usize, r),
            macs: r * c * m,
            sram_bytes: r * (c + 4 * m) + a * c + q * m,
            dram_bytes: a * cp + taps as u64 * cp * mp + q * mp,
        }
    }

    /// Channel tiles `(⌈C / pe_rows⌉, ⌈M / pe_cols⌉)`: how many passes the
    /// input and output channels need through the array.
    fn channel_tiles(&self, class: &ArrayClass) -> (u64, u64) {
        (
            self.in_channels.div_ceil(class.pe_rows) as u64,
            self.out_channels.div_ceil(class.pe_cols) as u64,
        )
    }

    /// The ATM's tile plan under `class`'s buffers.
    fn tile_plan(&self, class: &ArrayClass) -> TilePlan {
        ActiveTileManager::new(class.buf_in_kib, class.buf_out_kib).plan_for_counts(
            self.inputs,
            self.outputs,
            self.in_channels,
            self.out_channels,
        )
    }

    /// The array's cycles under `class` and `opts`, instruction by
    /// instruction: each rule streams one pillar through the array per
    /// channel tile (MXU), one weight load (`pe_rows` cycles) per tap per
    /// channel tile per *effective* input tile, the partial-sum copies
    /// between overlapping tiles, the scatter a deconvolution without ganged
    /// scatter exposes, and the rule generation the first tile exposes.
    fn array_terms(&self, class: &ArrayClass, opts: &DataflowOptions) -> ArrayCycles {
        let a = self.inputs.max(1);
        let q = self.outputs.max(1) as u64;
        let plan = self.tile_plan(class);
        // Fixed conservative tile (half the buffer) when adaptive sizing is
        // disabled.
        let num_tiles = if opts.adaptive_tiling {
            plan.num_tiles
        } else {
            a.div_ceil((plan.input_tile / 2).max(1))
        };

        // How effectively a gathered input tile is reused by the loaded
        // weights. Strided convolution without weight grouping and
        // deconvolution without ganged scatter both waste most of the
        // gathered tile (Fig. 8).
        let reuse_eff = match self.kind {
            ConvKind::SpStConv if !opts.weight_grouping => 0.30,
            ConvKind::SpStConv => 0.95,
            ConvKind::SpDeconv if !opts.ganged_scatter => 0.30,
            ConvKind::SpDeconv => 0.95,
            _ => 1.0,
        };
        // Reuse inefficiency and conservative tiling only ever add tiles
        // over the ATM's plan, so the weight loads never drop below the
        // floor's.
        let effective_tiles = ((num_tiles as f64) / reuse_eff).ceil() as u64;

        let (ch_tiles_in, ch_tiles_out) = self.channel_tiles(class);
        let ch_tiles = ch_tiles_in * ch_tiles_out;
        let deconv = matches!(self.kind, ConvKind::SpDeconv);
        ArrayCycles {
            mxu: self.rules * ch_tiles,
            load_wgt: self.taps as u64 * ch_tiles * effective_tiles * class.pe_rows as u64,
            // Partial-sum copies between consecutive overlapping input tiles.
            copy_psum: if deconv {
                0
            } else {
                (effective_tiles.saturating_sub(1)) * class.pe_cols as u64
            },
            // Scatter is double-buffered; it only becomes exposed for
            // deconvolution without ganged scatter, where every kernel's
            // outputs are flushed densely.
            exposed_scatter: if deconv && !opts.ganged_scatter {
                q * ch_tiles_out / 4
            } else {
                0
            },
            // Rule generation overlaps computation after the first tile.
            rulegen: (self.rulegen_cycles / num_tiles.max(1) as u64)
                .max(MIN_EXPOSED_RULEGEN_CYCLES),
        }
    }

    /// The array term: every cycle of the layer's seven-instruction
    /// schedule under `class` and `opts` except the bank stall, which
    /// serialises with it, and the DRAM interface, which overlaps it.
    #[must_use]
    pub(crate) fn array_cycles(&self, class: &ArrayClass, opts: &DataflowOptions) -> u64 {
        self.array_terms(class, opts).total()
    }

    /// The array floor: [`LayerCounts::array_cycles`] with every dataflow
    /// surcharge dropped — MXU streaming, one weight load per tap per
    /// channel tile per ATM tile, and the minimum exposed rule generation.
    /// Every surcharge (reuse inefficiency, conservative tiling, partial-sum
    /// copies, exposed scatter, rule generation above the minimum) is
    /// non-negative, so this is ≤ the array term for every
    /// [`DataflowOptions`].
    #[must_use]
    pub(crate) fn array_floor_cycles(&self, class: &ArrayClass) -> u64 {
        let (ch_in, ch_out) = self.channel_tiles(class);
        let ch_tiles = ch_in * ch_out;
        let num_tiles = self.tile_plan(class).num_tiles as u64;
        self.rules * ch_tiles
            + self.taps as u64 * ch_tiles * num_tiles * class.pe_rows as u64
            + MIN_EXPOSED_RULEGEN_CYCLES
    }

    /// The bank-stall term: gather/scatter bank conflicts under
    /// `sram_banks` banks. Banking below the lane count serialises
    /// conflicting accesses: each rule loses (lanes - banks)/lanes of a cycle
    /// to conflict arbitration, integer-folded so the default banking adds
    /// zero cycles.
    #[must_use]
    pub(crate) fn bank_stall_cycles(&self, sram_banks: u32) -> u64 {
        let lanes = u64::from(GATHER_SCATTER_LANES);
        let banks = u64::from(sram_banks).min(lanes);
        self.rules * (lanes - banks) / lanes
    }

    /// The DRAM term: cycles the DRAM interface needs to move
    /// the layer's DRAM bytes at `dram_bytes_per_cycle`; it bounds
    /// throughput for thin layers.
    #[must_use]
    pub(crate) fn dram_cycles(&self, dram_bytes_per_cycle: f64) -> u64 {
        (self.dram_bytes as f64 / dram_bytes_per_cycle).ceil() as u64
    }

    /// The layer's roofline floor under `config`: [`schedule_layer`]'s total
    /// with the array term at its floor, so it is a lower bound on the
    /// scheduled cycles for every [`DataflowOptions`].
    #[must_use]
    pub fn floor_cycles(&self, config: &SpadeConfig) -> u64 {
        layer_cycles(
            self.array_floor_cycles(&ArrayClass::of(config)),
            self.bank_stall_cycles(config.sram_banks),
            self.dram_cycles(config.dram_bytes_per_cycle),
        )
    }
}

/// Schedules one layer on SPADE and returns its performance: the array
/// term plus the bank stall, maxed with the DRAM term.
#[must_use]
pub fn schedule_layer(
    workload: &LayerWorkload,
    config: &SpadeConfig,
    opts: &DataflowOptions,
) -> LayerPerf {
    let counts = LayerCounts::of(workload);
    let array = counts.array_terms(&ArrayClass::of(config), opts);
    let bank_stall = counts.bank_stall_cycles(config.sram_banks);
    LayerPerf {
        name: workload.spec.name.clone(),
        kind: counts.kind,
        mxu_cycles: array.mxu,
        load_wgt_cycles: array.load_wgt,
        copy_psum_cycles: array.copy_psum,
        scatter_cycles: bank_stall + array.exposed_scatter,
        rulegen_cycles: array.rulegen,
        total_cycles: layer_cycles(
            array.total(),
            bank_stall,
            counts.dram_cycles(config.dram_bytes_per_cycle),
        ),
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
        let tensor = CprTensor::from_coords(grid, &coords);
        let rules =
            spade_nn::rulegen::streaming::generate(&tensor, kind, spec.kernel).num_rules() as u64;
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
