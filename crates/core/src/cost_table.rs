//! SPADE's layer cost tabulated per configuration class, for sweeps.
//!
//! [`crate::dataflow::schedule_layer`] prices a layer from four terms, each
//! reading only a few configuration fields ([`LayerCounts`]): the array term
//! (an `ArrayClass` — PE shape and input/output buffers — plus the
//! [`DataflowOptions`]), its floor (the `ArrayClass`), the bank stall (`sram_banks`), and the DRAM cycles
//! (`dram_bytes_per_cycle`). A sweep's configurations share far fewer values
//! of those fields than there are configurations — the 2,184 configurations
//! of the enlarged DSE grid have 78 array classes, 7 bank counts, and 2
//! bandwidths — so [`SpadeCostTable`] computes every term once per class
//! and layer. A `(configuration, dataflow, frame)` is then priced by summing
//! each layer's `layer_cycles` of three lookups and handing the total to
//! the same latency/energy assembly [`SpadeAccelerator::simulate_network`]
//! and [`SpadeAccelerator::roofline_bound`] end in, so the table's figures
//! equal theirs bit for bit (`tests/cost_table.rs` pins it).
//!
//! [`SpadeAccelerator::simulate_network`]: crate::SpadeAccelerator::simulate_network
//! [`SpadeAccelerator::roofline_bound`]: crate::SpadeAccelerator::roofline_bound

use crate::accelerator::{
    encoder_cycles, latency_and_energy, NetworkPerf, ENCODER_MXU_UTILIZATION,
};
use crate::config::{DataflowOptions, SpadeConfig};
use crate::dataflow::{layer_cycles, ArrayClass, LayerCounts};
use spade_nn::graph::LayerWorkload;
use spade_sim::EnergyModel;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

/// What a sweep keeps of one simulated frame: the fields a DSE cell
/// averages over its drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameCost {
    /// End-to-end latency (ms).
    pub latency_ms: f64,
    /// Total energy (mJ).
    pub energy_mj: f64,
    /// DRAM bytes moved.
    pub dram_bytes: u64,
}

impl From<&NetworkPerf> for FrameCost {
    fn from(perf: &NetworkPerf) -> Self {
        Self {
            latency_ms: perf.latency_ms,
            energy_mj: perf.energy.total_mj(),
            dram_bytes: perf.total_dram_bytes,
        }
    }
}

/// The class indices of one configuration, plus the clock the latency and
/// energy assembly reads.
#[derive(Debug, Clone, Copy)]
struct ConfigClasses {
    array: usize,
    bank: usize,
    dram: usize,
    freq_ghz: f64,
}

/// The configuration-independent totals of one frame.
#[derive(Debug, Clone)]
struct FrameTotals {
    /// The frame's span of every term row of its drive.
    layers: Range<usize>,
    /// Encoder plus layer MACs.
    macs: u64,
    sram_bytes: u64,
    dram_bytes: u64,
}

/// Every term of one drive's layers, one row per class. Rows are
/// `layers`-long and index the drive's layers frame after frame.
#[derive(Debug, Clone)]
struct DriveTerms {
    frames: Vec<FrameTotals>,
    /// Layers over every frame: the row length.
    layers: usize,
    /// `[array class][dataflow]` rows of [`LayerCounts::array_cycles`].
    array: Vec<u64>,
    /// `[array class]` rows of [`LayerCounts::array_floor_cycles`].
    floor: Vec<u64>,
    /// `[bank class]` rows of [`LayerCounts::bank_stall_cycles`].
    bank: Vec<u64>,
    /// `[DRAM class]` rows of [`LayerCounts::dram_cycles`].
    dram: Vec<u64>,
    /// `[array class][frame]` encoder cycles (the PE count is an array
    /// field).
    encoder: Vec<u64>,
}

/// SPADE's cost over a sweep's configurations, dataflow settings, and
/// drives, tabulated per configuration class (see the module docs).
///
/// Configurations, dataflow settings, drives, and frames are addressed by
/// their index in the slices [`SpadeCostTable::new`] was given.
#[derive(Debug, Clone)]
pub struct SpadeCostTable {
    configs: Vec<ConfigClasses>,
    num_dataflows: usize,
    drives: Vec<DriveTerms>,
    energy: EnergyModel,
}

/// The index of `key` among `keys` in first-appearance order, appending it
/// when new. The map is only probed, never iterated, so the order is the
/// caller's.
fn class_of<K: Copy + Eq + Hash>(key: K, ids: &mut HashMap<K, usize>, keys: &mut Vec<K>) -> usize {
    *ids.entry(key).or_insert_with(|| {
        keys.push(key);
        keys.len() - 1
    })
}

impl SpadeCostTable {
    /// Tabulates every term of every drive's layers for `configs` under
    /// each of `dataflows`. A drive is its frames in order, each frame its
    /// layer workloads and its encoder's MAC count.
    #[must_use]
    pub fn new<'a, D, F>(configs: &[SpadeConfig], dataflows: &[DataflowOptions], drives: D) -> Self
    where
        D: IntoIterator<Item = F>,
        F: IntoIterator<Item = (&'a [LayerWorkload], u64)>,
    {
        let (mut array_ids, mut bank_ids, mut dram_ids) =
            (HashMap::new(), HashMap::new(), HashMap::new());
        let mut array_classes: Vec<ArrayClass> = Vec::new();
        let mut banks: Vec<u32> = Vec::new();
        let mut bandwidth_bits: Vec<u64> = Vec::new();
        let classes = configs
            .iter()
            .map(|c| ConfigClasses {
                array: class_of(ArrayClass::of(c), &mut array_ids, &mut array_classes),
                bank: class_of(c.sram_banks, &mut bank_ids, &mut banks),
                dram: class_of(
                    c.dram_bytes_per_cycle.to_bits(),
                    &mut dram_ids,
                    &mut bandwidth_bits,
                ),
                freq_ghz: c.freq_ghz,
            })
            .collect();
        let drives = drives
            .into_iter()
            .map(|frames| {
                let mut counts: Vec<LayerCounts> = Vec::new();
                let mut encoder_macs: Vec<u64> = Vec::new();
                let frames: Vec<FrameTotals> = frames
                    .into_iter()
                    .map(|(workloads, encoder)| {
                        let start = counts.len();
                        counts.extend(workloads.iter().map(LayerCounts::of));
                        let layers = &counts[start..];
                        encoder_macs.push(encoder);
                        FrameTotals {
                            layers: start..counts.len(),
                            macs: encoder + layers.iter().map(|l| l.macs).sum::<u64>(),
                            sram_bytes: layers.iter().map(|l| l.sram_bytes).sum(),
                            dram_bytes: layers.iter().map(|l| l.dram_bytes).sum(),
                        }
                    })
                    .collect();
                let counts = &counts;
                DriveTerms {
                    layers: counts.len(),
                    array: array_classes
                        .iter()
                        .flat_map(|class| {
                            dataflows.iter().flat_map(move |opts| {
                                counts.iter().map(move |l| l.array_cycles(class, opts))
                            })
                        })
                        .collect(),
                    floor: array_classes
                        .iter()
                        .flat_map(|class| counts.iter().map(move |l| l.array_floor_cycles(class)))
                        .collect(),
                    bank: banks
                        .iter()
                        .flat_map(|&b| counts.iter().map(move |l| l.bank_stall_cycles(b)))
                        .collect(),
                    dram: bandwidth_bits
                        .iter()
                        .flat_map(|&bits| {
                            counts
                                .iter()
                                .map(move |l| l.dram_cycles(f64::from_bits(bits)))
                        })
                        .collect(),
                    encoder: array_classes
                        .iter()
                        .flat_map(|class| {
                            encoder_macs.iter().map(move |&m| {
                                encoder_cycles(m, class.num_pes(), ENCODER_MXU_UTILIZATION)
                            })
                        })
                        .collect(),
                    frames,
                }
            })
            .collect();
        Self {
            configs: classes,
            num_dataflows: dataflows.len(),
            drives,
            // The energy model every `SpadeAccelerator` prices with.
            energy: EnergyModel::asic_32nm(),
        }
    }

    /// DRAM bytes `frame` of `drive` moves — the same under every
    /// configuration.
    #[must_use]
    pub fn frame_dram_bytes(&self, drive: usize, frame: usize) -> u64 {
        self.drives[drive].frames[frame].dram_bytes
    }

    /// `frame` of `drive` on `config` under `dataflow`: what
    /// `SpadeAccelerator::with_options(configs[config], dataflows[dataflow])
    /// .simulate_network(..)` reports for it.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn frame_cost(
        &self,
        drive: usize,
        config: usize,
        dataflow: usize,
        frame: usize,
    ) -> FrameCost {
        assert!(
            dataflow < self.num_dataflows,
            "dataflow {dataflow} out of range"
        );
        let d = &self.drives[drive];
        let array_row = self.configs[config].array * self.num_dataflows + dataflow;
        let (latency_ms, energy_mj) = self.assemble(d, config, frame, &d.array, array_row);
        FrameCost {
            latency_ms,
            energy_mj,
            dram_bytes: d.frames[frame].dram_bytes,
        }
    }

    /// The roofline lower bound `(latency_ms, energy_mj)` of `frame` of
    /// `drive` on `config`, for every dataflow setting: what
    /// `SpadeAccelerator::roofline_bound` reports for it.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn frame_bound(&self, drive: usize, config: usize, frame: usize) -> (f64, f64) {
        let d = &self.drives[drive];
        self.assemble(d, config, frame, &d.floor, self.configs[config].array)
    }

    /// Sums the frame's [`layer_cycles`] over row `array_row` of
    /// `array_rows` and the configuration's bank and DRAM rows, adds the
    /// encoder, and assembles latency and energy.
    fn assemble(
        &self,
        d: &DriveTerms,
        config: usize,
        frame: usize,
        array_rows: &[u64],
        array_row: usize,
    ) -> (f64, f64) {
        let c = &self.configs[config];
        let f = &d.frames[frame];
        let (len, layers) = (d.layers, &f.layers);
        let at = |class: usize| class * len + layers.start..class * len + layers.end;
        let cycles: u64 = array_rows[at(array_row)]
            .iter()
            .zip(&d.bank[at(c.bank)])
            .zip(&d.dram[at(c.dram)])
            .map(|((&a, &b), &m)| layer_cycles(a, b, m))
            .sum::<u64>()
            + d.encoder[c.array * d.frames.len() + frame];
        let (latency_ms, energy) = latency_and_energy(
            cycles,
            f.macs,
            f.sram_bytes,
            f.dram_bytes,
            c.freq_ghz,
            &self.energy,
        );
        (latency_ms, energy.total_mj())
    }
}
