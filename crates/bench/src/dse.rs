//! Design-space exploration (DSE) over hardware configurations and
//! multi-frame drive scenarios.
//!
//! The paper evaluates two fixed design points (SPADE.HE and SPADE.LE) on
//! single synthetic frames. This module sweeps a grid over [`SpadeConfig`]
//! axes — PE-array shape, on-chip SRAM capacity, clock frequency, DRAM
//! bandwidth, and the dataflow optimisations — crossed with the frames of a
//! [`DriveScenario`], runs every `(configuration, accelerator, frame)` cell
//! through the common [`Accelerator`] trait, and extracts the
//! latency/energy/area Pareto frontier per workload. The output answers
//! questions the paper's two points cannot: where does the sparsity hardware
//! stop paying for itself as the array shrinks, and how does the win move as
//! a drive passes through denser traffic.
//!
//! Every cell is an independent simulation, so the sweep fans out across a
//! [`WorkerPool`]: [`run_dse_on_pool`] builds an indexed work-list of
//! cells, distributes it over the pool's scoped threads, and reassembles the
//! results in index order — parallel output is bit-identical to a serial
//! run (`tests/dse_integration.rs` asserts it).
//!
//! The drive itself is selectable: the legacy i.i.d. density-profile drive
//! (the default, byte-stable across releases) or a scripted
//! [`NamedScenario`] — a persistent world with events (stopped traffic,
//! tunnels, crossing waves) whose consecutive frames share most active
//! pillars. The sweep measures that temporal locality and exports it as the
//! `mean_pillar_overlap` column.
//!
//! Entry points: [`run_dse`] / [`run_dse_on_pool`] with [`DseParams`],
//! surfaced as the `dse` experiment of the `spade-experiments` binary
//! (which can also export the full grid as CSV/JSON via [`ReportTable`] and
//! takes `--jobs N` / `--scenario <name>` flags).
//!
//! Grids an order of magnitude larger than the defaults (the
//! [`SweepAxes::enlarged`] buffer-split × banking cross) are explored
//! through the [`adaptive`] submodule — roofline lower-bound screening plus
//! successive halving over growing frame prefixes — which produces the
//! exact same Pareto frontier as an exhaustive sweep while simulating a
//! fraction of the cells (`DseParams::adaptive`).

#[path = "adaptive.rs"]
pub mod adaptive;

use crate::pool::WorkerPool;
use crate::workload::{
    model_run_on_frame, model_run_on_frame_delta, simulate_on, ModelRun, WorkloadScale,
};
use spade_baselines::{DenseAccelerator, PointAccModel, SpConv2dAccelerator};
use spade_core::{
    Accelerator, AcceleratorReport, DataflowOptions, NetworkPerf, ReportTable, SpadeAccelerator,
    SpadeConfig,
};
use spade_nn::{DeltaPolicy, DeltaStats, FrameDeltaState, ModelKind, PruningConfig};
use spade_pointcloud::dataset::{DatasetKind, DatasetPreset};
use spade_pointcloud::{
    DensityProfile, DriveFrame, DriveScenario, DriveScenarioConfig, NamedScenario,
};
use std::fmt::Write as _;

/// The swept hardware axes. Every combination of the configuration axes
/// (PE dims × SRAM scale × clock frequency × DRAM bandwidth) yields one
/// [`SpadeConfig`]; the dataflow axis applies to the SPADE model only (the
/// baselines have no dataflow optimisations to toggle).
///
/// Duplicate values within an axis are ignored: [`SweepAxes::expand_configs`]
/// dedupes each axis (first occurrence wins) so a repeated entry — e.g.
/// `sram_scales: [1.0, 1.0]` — cannot mint duplicate cells that would
/// survive Pareto extraction as fake exact ties.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxes {
    /// PE-array shapes `(rows, cols)` to sweep.
    pub pe_dims: Vec<(usize, usize)>,
    /// Multipliers applied to the base configuration's buffer capacities.
    pub sram_scales: Vec<f64>,
    /// Clock frequencies in GHz. Higher clocks cut latency but pay a DVFS
    /// energy premium (dynamic energy scales with the square of the supply
    /// voltage — see `EnergyModel::voltage_factor`), so this axis trades
    /// latency against energy rather than being a free win. Note that
    /// `dram_bytes_per_cycle` is expressed per *core* cycle (a
    /// same-PLL memory interface), so absolute DRAM bandwidth co-scales
    /// with the clock.
    pub freq_ghz: Vec<f64>,
    /// DRAM bandwidths in bytes per cycle.
    pub dram_bytes_per_cycle: Vec<f64>,
    /// Input/output buffer-pool splits (fraction of the pool given to the
    /// input buffer; `0.0` keeps the base design's split — see
    /// [`SpadeConfig::with_buffer_split`]). Total SRAM and area are
    /// invariant along this axis.
    pub buffer_splits: Vec<f64>,
    /// SRAM bank counts behind the GSU crossbar (see
    /// [`SpadeConfig::with_sram_banks`]; the default
    /// [`spade_core::GATHER_SCATTER_LANES`] is conflict-free).
    pub sram_banks: Vec<u32>,
    /// Dataflow-optimisation settings (SPADE cells only).
    pub dataflow: Vec<DataflowOptions>,
}

/// Dedupes an axis in place-order: keeps the first occurrence of every
/// value, so a sloppy axis spec cannot emit duplicate sweep cells.
fn dedup_axis<T: PartialEq + Clone>(values: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(values.len());
    for v in values {
        if !out.contains(v) {
            out.push(v.clone());
        }
    }
    out
}

impl SweepAxes {
    /// The default grid around the paper's two design points: three array
    /// shapes from LE (16×16) to HE (64×64), two SRAM budgets, two clock
    /// frequencies (the paper's 1 GHz and an overclocked 1.5 GHz), two DRAM
    /// bandwidths, and dataflow optimisations on/off — a 5-axis sweep with
    /// 48 SPADE cells per workload.
    #[must_use]
    pub fn paper_neighbourhood() -> Self {
        Self {
            pe_dims: vec![(16, 16), (32, 32), (64, 64)],
            sram_scales: vec![0.5, 1.0],
            freq_ghz: vec![1.0, 1.5],
            dram_bytes_per_cycle: vec![12.8, 25.6],
            buffer_splits: vec![0.0],
            sram_banks: vec![spade_core::GATHER_SCATTER_LANES],
            dataflow: vec![
                DataflowOptions::all_disabled(),
                DataflowOptions::all_enabled(),
            ],
        }
    }

    /// The enlarged grid the adaptive explorer exists for: the paper
    /// neighbourhood crossed with the buffer-split and banking axes deferred
    /// from PR 3 — 13 pool splits (the base split plus a dozen
    /// redistributions) × 7 bank counts, multiplying the 24 base
    /// configurations ~91× to 2184 SPADE configurations. Exhaustively
    /// sweeping this grid is what the roofline screen + successive halving
    /// make affordable (`BENCH_PR9.json` records the measured ratio).
    #[must_use]
    pub fn enlarged() -> Self {
        Self {
            buffer_splits: vec![
                0.0, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9,
            ],
            sram_banks: vec![16, 12, 8, 6, 4, 2, 1],
            ..Self::paper_neighbourhood()
        }
    }

    /// A smaller grid for tests and smoke runs: still four multi-valued
    /// configuration axes, but only two values per axis and a single
    /// dataflow setting.
    #[must_use]
    pub fn reduced() -> Self {
        Self {
            pe_dims: vec![(16, 16), (64, 64)],
            sram_scales: vec![0.5, 1.0],
            freq_ghz: vec![1.0, 1.5],
            dram_bytes_per_cycle: vec![12.8, 25.6],
            buffer_splits: vec![0.0],
            sram_banks: vec![spade_core::GATHER_SCATTER_LANES],
            dataflow: vec![DataflowOptions::all_enabled()],
        }
    }

    /// Number of axes being swept (those with more than one *distinct*
    /// value — duplicates within an axis do not count).
    #[must_use]
    pub fn num_swept_axes(&self) -> usize {
        [
            dedup_axis(&self.pe_dims).len(),
            dedup_axis(&self.sram_scales).len(),
            dedup_axis(&self.freq_ghz).len(),
            dedup_axis(&self.dram_bytes_per_cycle).len(),
            dedup_axis(&self.buffer_splits).len(),
            dedup_axis(&self.sram_banks).len(),
            dedup_axis(&self.dataflow).len(),
        ]
        .iter()
        .filter(|&&n| n > 1)
        .count()
    }

    /// Expands the configuration axes (everything except dataflow) into
    /// concrete [`SpadeConfig`]s derived from the high-end base point.
    /// Each axis is deduped first, so repeated axis values cannot produce
    /// duplicate configurations.
    #[must_use]
    pub fn expand_configs(&self) -> Vec<SpadeConfig> {
        let base = SpadeConfig::high_end();
        let mut out = Vec::new();
        for &(rows, cols) in &dedup_axis(&self.pe_dims) {
            for &scale in &dedup_axis(&self.sram_scales) {
                for &freq in &dedup_axis(&self.freq_ghz) {
                    for &bpc in &dedup_axis(&self.dram_bytes_per_cycle) {
                        for &split in &dedup_axis(&self.buffer_splits) {
                            for &banks in &dedup_axis(&self.sram_banks) {
                                out.push(
                                    base.with_pe_array(rows, cols)
                                        .with_sram_scale(scale)
                                        .with_freq_ghz(freq)
                                        .with_dram_bytes_per_cycle(bpc)
                                        .with_buffer_split(split)
                                        .with_sram_banks(banks),
                                );
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Parameters of one DSE run.
#[derive(Debug, Clone, PartialEq)]
pub struct DseParams {
    /// Workload scale (full paper grids or quarter-scale for smoke runs).
    pub scale: WorkloadScale,
    /// The hardware grid.
    pub axes: SweepAxes,
    /// Which networks to sweep (each is one workload of the result).
    pub models: Vec<ModelKind>,
    /// Frames per drive scenario (the paper's evaluation is 1 static frame;
    /// the DSE default drives through ≥5).
    pub num_frames: usize,
    /// Base seed of the drive scenario.
    pub base_seed: u64,
    /// Density profile of the drive (used by the legacy i.i.d. drive when
    /// no named scenario is selected).
    pub profile: DensityProfile,
    /// Scripted drive scenario. `None` keeps the legacy i.i.d. drive over
    /// `profile` (byte-identical to pre-scenario sweeps); `Some` replaces
    /// profile and persistence with the named preset's (see
    /// [`NamedScenario::config`]), still over `num_frames`/`base_seed`.
    pub scenario: Option<NamedScenario>,
    /// Execute each drive through the temporal delta path
    /// ([`model_run_on_frame_delta`]): the same sweeps, plus a count of the
    /// output rows SPADE's RGU would re-sweep on each frame instead of
    /// regenerating every rule. The per-frame workloads — and therefore
    /// every simulated cell — are byte-identical to a full-sweep run. Adds
    /// the `frames_delta_executed` / `delta_speedup` columns to the exported
    /// grid.
    pub delta: bool,
    /// Explore the grid adaptively ([`adaptive`]): a roofline lower bound
    /// per SPADE cell screens provably dominated cells before simulation,
    /// and successive halving refines the survivors on growing frame
    /// prefixes. The Pareto frontier is byte-identical to an exhaustive run
    /// (screening only ever discards cells a simulated cell strictly
    /// dominates); screened cells are exported with their bound values and
    /// `simulated=0`, and the `cells_screened` / `cells_simulated` /
    /// `frames_saved` counters are appended to the export. `false` (the
    /// default everywhere) simulates every cell.
    pub adaptive: bool,
}

impl DseParams {
    /// Defaults for a given scale: the full grid over a 6-frame
    /// suburb-to-downtown drive for `Full`, and the reduced grid over a
    /// 5-frame drive for `Reduced`.
    #[must_use]
    pub fn default_for(scale: WorkloadScale) -> Self {
        match scale {
            WorkloadScale::Full => Self {
                scale,
                axes: SweepAxes::paper_neighbourhood(),
                models: vec![ModelKind::Spp2, ModelKind::Scp3],
                num_frames: 6,
                base_seed: 2024,
                profile: DensityProfile::Ramp {
                    start: 0.5,
                    end: 2.0,
                },
                scenario: None,
                delta: false,
                adaptive: false,
            },
            WorkloadScale::Reduced => Self {
                scale,
                axes: SweepAxes::reduced(),
                models: vec![ModelKind::Spp2],
                num_frames: 5,
                base_seed: 2024,
                profile: DensityProfile::Ramp {
                    start: 0.5,
                    end: 2.0,
                },
                scenario: None,
                delta: false,
                adaptive: false,
            },
        }
    }

    /// The drive configuration the sweep runs over: the named scenario's
    /// when one is selected, otherwise the legacy i.i.d. drive over
    /// `profile`. A zero-frame drive would make every cell's mean 0.0 and
    /// fill the frontier with fake perfect designs, so at least one frame is
    /// always simulated.
    #[must_use]
    pub fn drive_config(&self) -> DriveScenarioConfig {
        let num_frames = self.num_frames.max(1);
        match self.scenario {
            Some(scenario) => scenario.config(num_frames, self.base_seed),
            None => DriveScenarioConfig {
                num_frames,
                base_seed: self.base_seed,
                profile: self.profile,
                ..DriveScenarioConfig::default()
            },
        }
    }
}

/// One cell of the sweep: an accelerator at a design point, aggregated over
/// every frame of the drive scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DseCell {
    /// Workload (network) name.
    pub workload: &'static str,
    /// Accelerator model name.
    pub accelerator: String,
    /// Design-point label (config plus `+df`/`-df` for SPADE cells).
    pub design: String,
    /// PE-array rows of the cell's configuration.
    pub pe_rows: usize,
    /// PE-array columns of the cell's configuration.
    pub pe_cols: usize,
    /// Total on-chip SRAM (KiB).
    pub sram_kib: u64,
    /// Clock frequency (GHz). For the frequency-insensitive SpConv2D-Acc
    /// behaviour model one cell stands for every swept frequency; this field
    /// then records the value of the configuration the cell was simulated
    /// under.
    pub freq_ghz: f64,
    /// DRAM bandwidth (bytes per cycle). For the bandwidth-insensitive
    /// baselines (SpConv2D-Acc, PointAcc) one cell stands for every swept
    /// bandwidth; this field then records the value of the configuration the
    /// cell was simulated under.
    pub dram_bytes_per_cycle: f64,
    /// Whether the dataflow optimisations were enabled (always `true` for
    /// non-SPADE cells, which have no such switches).
    pub dataflow_enabled: bool,
    /// Mean end-to-end latency over the drive's frames (ms).
    pub mean_latency_ms: f64,
    /// Mean energy per frame (mJ).
    pub mean_energy_mj: f64,
    /// Die area of the instance (mm²).
    pub area_mm2: f64,
    /// Mean DRAM traffic per frame (MiB).
    pub mean_dram_mib: f64,
    /// Mean consecutive-frame active-pillar overlap (Jaccard) of the drive
    /// this cell's workload ran over — the temporal locality a caching
    /// backend could exploit. A property of the drive, so every cell of the
    /// same workload shares the value; `0.0` for single-frame drives.
    pub mean_pillar_overlap: f64,
    /// Frames of this cell's workload that passed the delta path's gate
    /// (counted incrementally against the previous frame) rather than as a
    /// full sweep. A property of the drive run, so every cell of the same
    /// workload shares the value; `0` when delta execution is off.
    pub frames_delta_executed: usize,
    /// Modelled rule-generation speedup of the delta run over a full-sweep
    /// run ([`DeltaStats::modelled_speedup`]): full-equivalent output rows
    /// divided by rows counted as re-swept. `1.0` when delta execution is off.
    pub delta_speedup: f64,
    /// Whether this cell was fully simulated. `false` only for cells the
    /// adaptive explorer screened out, whose latency/energy columns then
    /// hold the roofline *lower bound* (provably ≤ the simulated value) at
    /// which a fully simulated cell dominated them; screened cells never
    /// join the frontier (their true values are provably dominated too).
    pub simulated: bool,
    /// Whether this cell survives Pareto extraction for its workload.
    pub on_frontier: bool,
}

/// The result of a DSE run: every cell, with the per-workload Pareto
/// frontier marked, plus the SPADE-vs-DenseAcc dominance tally.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// Every `(workload, accelerator, design point)` cell.
    pub cells: Vec<DseCell>,
    /// Number of hardware configurations swept (excluding the dataflow axis).
    pub num_configs: usize,
    /// Frames per drive scenario.
    pub num_frames: usize,
    /// Number of axes with more than one value.
    pub num_swept_axes: usize,
    /// Cells (same workload, same configuration) where SPADE beats DenseAcc
    /// on both latency and energy.
    pub spade_dense_wins: usize,
    /// Number of `(workload, configuration)` comparisons made for the tally.
    pub spade_dense_comparisons: usize,
    /// Whether the drives were executed through the temporal delta path.
    pub delta: bool,
    /// Delta-execution statistics merged across every model's drive (all
    /// zeros when `delta` is off).
    pub delta_stats: DeltaStats,
    /// Whether the grid was explored adaptively ([`adaptive`]).
    pub adaptive: bool,
    /// Cells the adaptive explorer screened out without full simulation
    /// (their exported metrics are roofline lower bounds). `0` when
    /// exhaustive.
    pub cells_screened: usize,
    /// Cells fully simulated. Equals `cells.len()` when exhaustive;
    /// `cells_screened + cells_simulated == cells.len()` always.
    pub cells_simulated: usize,
    /// Drive frames the adaptive explorer never had to simulate, summed
    /// over the screened cells. `0` when exhaustive.
    pub frames_saved: usize,
}

/// Marks the Pareto-optimal points among `points` (minimising every
/// dimension). A point is kept iff it is finite in every dimension and no
/// other point is at least as good in all dimensions and strictly better in
/// at least one — so exact ties are all kept, and dominated points are
/// dropped.
///
/// Non-finite points are excluded outright: NaN comparisons are always
/// false, so without the finiteness guard a single NaN latency or energy
/// cell would be "undominated" and stick to the frontier forever (and a
/// `-inf` garbage cell would knock every real point off it). Such points
/// neither join the frontier nor dominate anything.
///
/// Runs in `O(n log n + n·F)` (`F` = frontier size) instead of the naïve
/// all-pairs scan: a dominator is ≤ its victim in every dimension and
/// strictly < in one, so it sorts lexicographically *strictly before* the
/// victim — scanning in sorted order, a point's dominators are all behind
/// it, and by transitivity it suffices to test against the frontier built
/// so far (a discarded dominator is itself dominated by a frontier point,
/// which then dominates the victim too). The output is the definitional
/// dominated-by-nobody set, independent of scan order.
#[must_use]
pub fn pareto_frontier(points: &[[f64; 3]]) -> Vec<bool> {
    let finite = |p: &[f64; 3]| p.iter().all(|v| v.is_finite());
    let dominates = |a: &[f64; 3], b: &[f64; 3]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    let mut order: Vec<usize> = (0..points.len()).filter(|&i| finite(&points[i])).collect();
    // Finite values make `total_cmp` coincide with the partial order; the
    // index tiebreak pins the scan order of exact ties (the result does not
    // depend on it — ties never dominate each other).
    order.sort_unstable_by(|&a, &b| {
        points[a]
            .iter()
            .zip(&points[b])
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(a.cmp(&b))
    });
    let mut keep = vec![false; points.len()];
    let mut frontier: Vec<usize> = Vec::new();
    for &i in &order {
        if !frontier.iter().any(|&f| dominates(&points[f], &points[i])) {
            frontier.push(i);
            keep[i] = true;
        }
    }
    keep
}

fn preset_for(kind: ModelKind) -> DatasetPreset {
    match kind.dataset() {
        DatasetKind::KittiLike => DatasetPreset::kitti_like(),
        DatasetKind::NuscenesLike => DatasetPreset::nuscenes_like(),
    }
}

#[allow(clippy::too_many_arguments)]
fn mean_cell(
    workload: &'static str,
    accelerator: &str,
    design: String,
    config: &SpadeConfig,
    dataflow_enabled: bool,
    area_mm2: f64,
    perfs: &[NetworkPerf],
    mean_pillar_overlap: f64,
) -> DseCell {
    let n = perfs.len().max(1) as f64;
    DseCell {
        workload,
        accelerator: accelerator.to_owned(),
        design,
        pe_rows: config.pe_rows,
        pe_cols: config.pe_cols,
        sram_kib: config.total_sram_kib(),
        freq_ghz: config.freq_ghz,
        dram_bytes_per_cycle: config.dram_bytes_per_cycle,
        dataflow_enabled,
        mean_latency_ms: perfs.iter().map(|p| p.latency_ms).sum::<f64>() / n,
        mean_energy_mj: perfs.iter().map(|p| p.energy.total_mj()).sum::<f64>() / n,
        area_mm2,
        mean_dram_mib: perfs
            .iter()
            .map(|p| p.total_dram_bytes as f64 / (1024.0 * 1024.0))
            .sum::<f64>()
            / n,
        mean_pillar_overlap,
        frames_delta_executed: 0,
        delta_speedup: 1.0,
        simulated: true,
        on_frontier: false,
    }
}

/// Which accelerator a work-list item simulates.
enum CellKind {
    /// SPADE with one dataflow setting.
    Spade(DataflowOptions),
    /// The dense-only ablation at the same form factor (one cell per
    /// PE-array × SRAM × frequency × bandwidth form factor — its behaviour
    /// model is insensitive to the buffer-split and banking axes, which
    /// only reshape SPADE's gather/scatter machinery).
    Dense { label: String },
    /// SpConv2D-Acc (one cell per PE-array × SRAM form factor — its
    /// behaviour model is insensitive to both DRAM bandwidth and clock).
    SpConv2d { label: String },
    /// PointAcc (one cell per PE-array × SRAM × frequency form factor —
    /// insensitive to DRAM bandwidth only).
    PointAcc { label: String },
}

/// One independent cell of the sweep's indexed work-list.
struct CellItem {
    model_idx: usize,
    config_idx: usize,
    kind: CellKind,
}

/// Builds the [`DseCell`] of a SPADE design point from its per-frame
/// simulation results (in frame order). Shared by the exhaustive path
/// ([`compute_cell`]) and the adaptive explorer's halving rungs, so a cell
/// that survives screening is byte-identical however it was reached.
fn spade_cell(
    kind: ModelKind,
    config: &SpadeConfig,
    opts: DataflowOptions,
    perfs: &[NetworkPerf],
    overlap: f64,
) -> DseCell {
    let enabled = opts.weight_grouping || opts.ganged_scatter || opts.adaptive_tiling;
    let design = format!("{}/{}", config.label(), if enabled { "+df" } else { "-df" });
    mean_cell(
        kind.name(),
        "SPADE",
        design,
        config,
        enabled,
        AcceleratorReport::for_spade("SPADE", config).total_mm2(),
        perfs,
        overlap,
    )
}

/// Simulates one work-list item into its [`DseCell`]. Pure w.r.t. the
/// shared inputs, so items can run on any worker in any order.
fn compute_cell(
    item: &CellItem,
    models: &[ModelKind],
    configs: &[SpadeConfig],
    runs_by_model: &[Vec<ModelRun>],
    overlap_by_model: &[f64],
    delta_by_model: &[(usize, f64)],
) -> DseCell {
    let kind = models[item.model_idx];
    let config = &configs[item.config_idx];
    let runs = &runs_by_model[item.model_idx];
    let overlap = overlap_by_model[item.model_idx];
    let (frames_delta, delta_speedup) = delta_by_model[item.model_idx];
    let sim_all = |acc: &dyn Accelerator| -> Vec<NetworkPerf> {
        runs.iter().map(|r| simulate_on(acc, r)).collect()
    };
    let spade_area = || AcceleratorReport::for_spade("SPADE", config).total_mm2();
    let mut cell = match &item.kind {
        CellKind::Spade(opts) => {
            let acc = SpadeAccelerator::with_options(*config, *opts);
            spade_cell(kind, config, *opts, &sim_all(&acc), overlap)
        }
        CellKind::Dense { label } => {
            let dense = DenseAccelerator::new(*config);
            let area = AcceleratorReport::for_dense("DenseAcc", config).total_mm2();
            mean_cell(
                kind.name(),
                dense.name(),
                label.clone(),
                config,
                true,
                area,
                &sim_all(&dense),
                overlap,
            )
        }
        // SpConv2D-Acc and PointAcc carry their own sparsity hardware
        // (condensing logic, sorter + cache); model their area like SPADE's
        // sparsity-support overhead on the same datapath.
        CellKind::SpConv2d { label } => {
            let spconv = SpConv2dAccelerator::new(config.pe_rows, config.pe_cols, 16);
            mean_cell(
                kind.name(),
                Accelerator::name(&spconv),
                label.clone(),
                config,
                true,
                spade_area(),
                &sim_all(&spconv),
                overlap,
            )
        }
        CellKind::PointAcc { label } => {
            let pacc = PointAccModel::new(*config);
            mean_cell(
                kind.name(),
                pacc.name(),
                label.clone(),
                config,
                true,
                spade_area(),
                &sim_all(&pacc),
                overlap,
            )
        }
    };
    cell.frames_delta_executed = frames_delta;
    cell.delta_speedup = delta_speedup;
    cell
}

/// Runs the sweep serially — shorthand for [`run_dse_on_pool`] with a
/// one-worker pool. Parallel runs produce bit-identical results, so this is
/// also the reference the pool path is tested against.
#[must_use]
pub fn run_dse(params: &DseParams) -> DseResult {
    run_dse_on_pool(params, &WorkerPool::new(1))
}

/// Runs the sweep on a [`WorkerPool`]: every configuration × accelerator ×
/// drive frame, then Pareto extraction per workload.
///
/// The sweep is decomposed into an indexed work-list of independent cells,
/// fanned out over the pool, and reassembled in index order — the result is
/// bit-identical for any pool width (`WorkerPool::new(0)` is clamped to one
/// worker) or budget, including a zero-token
/// [`crate::pool::ConcurrencyBudget`], which degrades to a serial run on the
/// calling thread. The serving layer passes one budgeted pool so many
/// concurrent sweeps share it instead of each spawning its own threads.
#[must_use]
pub fn run_dse_on_pool(params: &DseParams, pool: &WorkerPool) -> DseResult {
    let plan = SweepPlan::build(params, pool);
    let (cells, screen) = if params.adaptive {
        adaptive::explore(params, pool, &plan)
    } else {
        let cells = pool.run(plan.items.len(), |i| {
            compute_cell(
                &plan.items[i],
                &params.models,
                &plan.configs,
                &plan.runs_by_model,
                &plan.overlap_by_model,
                &plan.delta_by_model,
            )
        });
        let simulated = cells.len();
        (
            cells,
            adaptive::ScreenCounters {
                cells_screened: 0,
                cells_simulated: simulated,
                frames_saved: 0,
            },
        )
    };
    finish_result(params, plan, cells, screen)
}

/// Everything the sweep shares between the exhaustive and adaptive paths:
/// the expanded configurations, the per-model drive workloads (stage 1),
/// and the canonical indexed work-list with its duel pairs and per-workload
/// ranges (stage 2). Building the plan is identical for both paths, so an
/// adaptive run starts from byte-identical inputs.
struct SweepPlan {
    configs: Vec<SpadeConfig>,
    num_frames: usize,
    runs_by_model: Vec<Vec<ModelRun>>,
    overlap_by_model: Vec<f64>,
    delta_by_model: Vec<(usize, f64)>,
    delta_stats: DeltaStats,
    items: Vec<CellItem>,
    duels: Vec<(Vec<usize>, usize)>,
    workload_ranges: Vec<std::ops::Range<usize>>,
}

impl SweepPlan {
    fn build(params: &DseParams, pool: &WorkerPool) -> Self {
        let configs = params.axes.expand_configs();
        let dataflow = dedup_axis(&params.axes.dataflow);
        let drive_cfg = params.drive_config();
        let num_frames = drive_cfg.num_frames;

        // Stage 1 — per-frame workload construction, parallel over frames.
        // Drive frames depend only on the dataset preset, so models sharing a
        // dataset share one generated frame vector (built once per sweep); the
        // per-model `ModelRun`s are configuration-independent, so every design
        // point downstream reuses them. Each worker thread reuses one
        // `ExecutionArena` across its frames (thread-local in
        // `workload::model_run_on_frame`), so pattern execution allocates no
        // per-layer scratch anywhere in the sweep.
        let mut frames_by_dataset: Vec<(DatasetKind, Vec<DriveFrame>, f64)> = Vec::new();
        let mut delta_stats_by_model: Vec<DeltaStats> = Vec::new();
        let runs_by_model: Vec<Vec<ModelRun>> = params
            .models
            .iter()
            .map(|&kind| {
                let preset = preset_for(kind);
                let dataset = kind.dataset();
                if !frames_by_dataset.iter().any(|(d, ..)| *d == dataset) {
                    let scenario = DriveScenario::new(preset.clone(), drive_cfg.clone());
                    // A persistent world evolves frame by frame, so its drive is
                    // generated sequentially (one pass, identical for any worker
                    // count); independent frames fan out across the pool and get
                    // their overlap metric annotated afterwards.
                    let frames = if drive_cfg.persistence.is_persistent() {
                        scenario.frames()
                    } else {
                        let mut frames = pool.run(num_frames, |i| scenario.generate_frame(i));
                        DriveScenario::annotate_overlap(&mut frames);
                        frames
                    };
                    let mean_overlap = DriveScenario::mean_overlap_of(&frames);
                    frames_by_dataset.push((dataset, frames, mean_overlap));
                }
                let frames = &frames_by_dataset
                    .iter()
                    .find(|(d, ..)| *d == dataset)
                    .expect("frames generated above")
                    .1;
                // A model run's RNG (pruning noise) is seeded distinctly from the
                // frame-generation stream — it must not replay the scene
                // randomness of the frame it runs on — and held drive-stable on
                // persistent worlds (`pruning_seed`) so the pruned layers inherit
                // the scene's temporal coherence.
                if params.delta {
                    // The delta counts are stateful across a drive's frames, so one
                    // model's frames run sequentially in order; models (and the
                    // design-point fan-out of stage 3) still parallelise, and the
                    // per-frame results are byte-identical to the pooled full
                    // sweeps either way.
                    let mut state = FrameDeltaState::new(DeltaPolicy::default());
                    let runs = frames
                        .iter()
                        .map(|f| {
                            model_run_on_frame_delta(
                                kind,
                                &preset,
                                &f.frame,
                                drive_cfg.pruning_seed(f.index),
                                params.scale,
                                PruningConfig::default(),
                                &mut state,
                            )
                        })
                        .collect();
                    delta_stats_by_model.push(state.stats());
                    runs
                } else {
                    delta_stats_by_model.push(DeltaStats::default());
                    pool.run(num_frames, |i| {
                        model_run_on_frame(
                            kind,
                            &preset,
                            &frames[i].frame,
                            drive_cfg.pruning_seed(frames[i].index),
                            params.scale,
                            PruningConfig::default(),
                        )
                    })
                }
            })
            .collect();
        let overlap_by_model: Vec<f64> = params
            .models
            .iter()
            .map(|&kind| {
                frames_by_dataset
                    .iter()
                    .find(|(d, ..)| *d == kind.dataset())
                    .expect("frames generated above")
                    .2
            })
            .collect();
        let delta_by_model: Vec<(usize, f64)> = delta_stats_by_model
            .iter()
            .map(|s| (s.frames_delta, s.modelled_speedup()))
            .collect();
        let mut delta_stats = DeltaStats::default();
        for s in &delta_stats_by_model {
            delta_stats.merge(s);
        }

        // Stage 2 — build the indexed work-list. Cell order is canonical
        // (model, then configuration, then SPADE/Dense/SpConv2D/PointAcc), so
        // reassembly by index reproduces the serial layout exactly. The
        // bandwidth- and frequency-insensitive baselines collapse the axes they
        // cannot observe: one SpConv2D-Acc cell per (PE array, SRAM) form
        // factor, one PointAcc cell per (PE array, SRAM, frequency) — sweeping
        // those axes for them would only emit duplicate cells differing in
        // label, polluting the frontier with fake ties.
        let mut items: Vec<CellItem> = Vec::new();
        // Per (model, config): indices of the SPADE cells and the DenseAcc cell,
        // for the Fig. 9 dominance tally after the fan-out.
        let mut duels: Vec<(Vec<usize>, usize)> = Vec::new();
        // Per model: the range of `items` holding its cells (Pareto extraction
        // is per workload).
        let mut workload_ranges: Vec<std::ops::Range<usize>> = Vec::new();
        for model_idx in 0..params.models.len() {
            let first_item = items.len();
            let mut dense_seen: std::collections::HashMap<(usize, usize, u64, u64, u64), usize> =
                Default::default();
            let mut spconv_seen: std::collections::HashSet<(usize, usize, u64)> =
                Default::default();
            let mut pointacc_seen: std::collections::HashSet<(usize, usize, u64, u64)> =
                Default::default();
            for (config_idx, config) in configs.iter().enumerate() {
                let spade_idxs: Vec<usize> = dataflow
                    .iter()
                    .map(|&opts| {
                        items.push(CellItem {
                            model_idx,
                            config_idx,
                            kind: CellKind::Spade(opts),
                        });
                        items.len() - 1
                    })
                    .collect();
                // DenseAcc has no gather/scatter machinery, so the buffer-split
                // and banking axes cannot change its results: collapse it to one
                // cell per (PE array, SRAM, frequency, bandwidth) form factor
                // with the axis-free legacy label. On grids without the new
                // axes every configuration is its own form factor and the cell
                // set (and item order) is exactly the legacy one.
                let dense_key = (
                    config.pe_rows,
                    config.pe_cols,
                    config.total_sram_kib(),
                    config.freq_ghz.to_bits(),
                    config.dram_bytes_per_cycle.to_bits(),
                );
                let dense_idx = match dense_seen.get(&dense_key) {
                    Some(&idx) => idx,
                    None => {
                        items.push(CellItem {
                            model_idx,
                            config_idx,
                            kind: CellKind::Dense {
                                label: format!(
                                    "{}x{}/{}KiB/{}GHz/{}Bpc",
                                    config.pe_rows,
                                    config.pe_cols,
                                    config.total_sram_kib(),
                                    config.freq_ghz,
                                    config.dram_bytes_per_cycle
                                ),
                            },
                        });
                        dense_seen.insert(dense_key, items.len() - 1);
                        items.len() - 1
                    }
                };
                // SPADE vs DenseAcc at the same form factor (areas within the
                // ~4.5% sparsity-support overhead of each other): Fig. 9's
                // claim, checked in every configuration cell of the sweep. A
                // cell wins if any of its dataflow variants dominates DenseAcc.
                if !spade_idxs.is_empty() {
                    duels.push((spade_idxs, dense_idx));
                }
                let form_factor = (config.pe_rows, config.pe_cols, config.total_sram_kib());
                if spconv_seen.insert(form_factor) {
                    // Label without the bandwidth and frequency tokens: the
                    // SpConv2D-Acc behaviour model's results hold for every
                    // swept value of both.
                    items.push(CellItem {
                        model_idx,
                        config_idx,
                        kind: CellKind::SpConv2d {
                            label: format!(
                                "{}x{}/{}KiB",
                                config.pe_rows,
                                config.pe_cols,
                                config.total_sram_kib()
                            ),
                        },
                    });
                }
                let freq_form_factor = (
                    config.pe_rows,
                    config.pe_cols,
                    config.total_sram_kib(),
                    config.freq_ghz.to_bits(),
                );
                if pointacc_seen.insert(freq_form_factor) {
                    // PointAcc's no-overlap cycle model never bounds on DRAM
                    // bandwidth, but its latency does scale with the clock —
                    // keep the frequency token, drop the bandwidth one.
                    items.push(CellItem {
                        model_idx,
                        config_idx,
                        kind: CellKind::PointAcc {
                            label: format!(
                                "{}x{}/{}KiB/{}GHz",
                                config.pe_rows,
                                config.pe_cols,
                                config.total_sram_kib(),
                                config.freq_ghz
                            ),
                        },
                    });
                }
            }
            workload_ranges.push(first_item..items.len());
        }

        SweepPlan {
            configs,
            num_frames,
            runs_by_model,
            overlap_by_model,
            delta_by_model,
            delta_stats,
            items,
            duels,
            workload_ranges,
        }
    }
}

/// Serial post-processing on the assembled grid — the Fig. 9 dominance
/// tally and per-workload Pareto extraction — shared by the exhaustive and
/// adaptive paths. Screened (unsimulated) cells hold lower bounds rather
/// than true values, so they are excluded from both the tally and the
/// frontier point set: a bound may undercut a simulated value, but it
/// proves nothing about domination in either direction. Excluding them is
/// exact, not approximate — a cell is only ever screened when a fully
/// simulated cell dominates its bound, which (bound ≤ truth, domination is
/// transitive) dominates its true value and anything that true value would
/// have dominated.
fn finish_result(
    params: &DseParams,
    plan: SweepPlan,
    mut cells: Vec<DseCell>,
    screen: adaptive::ScreenCounters,
) -> DseResult {
    let mut wins = 0usize;
    for (spade_idxs, dense_idx) in &plan.duels {
        let dense = &cells[*dense_idx];
        if spade_idxs.iter().any(|&i| {
            cells[i].simulated
                && cells[i].mean_latency_ms < dense.mean_latency_ms
                && cells[i].mean_energy_mj < dense.mean_energy_mj
        }) {
            wins += 1;
        }
    }
    for range in plan.workload_ranges {
        // Unsimulated cells map to NaN metrics, which `pareto_frontier`
        // neither admits to the frontier nor lets dominate anything.
        let metrics: Vec<[f64; 3]> = cells[range.clone()]
            .iter()
            .map(|c| {
                if c.simulated {
                    [c.mean_latency_ms, c.mean_energy_mj, c.area_mm2]
                } else {
                    [f64::NAN; 3]
                }
            })
            .collect();
        for (cell, keep) in cells[range].iter_mut().zip(pareto_frontier(&metrics)) {
            cell.on_frontier = keep;
        }
    }

    DseResult {
        cells,
        num_configs: plan.configs.len(),
        num_frames: plan.num_frames,
        num_swept_axes: params.axes.num_swept_axes(),
        spade_dense_wins: wins,
        spade_dense_comparisons: plan.duels.len(),
        delta: params.delta,
        delta_stats: plan.delta_stats,
        adaptive: params.adaptive,
        cells_screened: screen.cells_screened,
        cells_simulated: screen.cells_simulated,
        frames_saved: screen.frames_saved,
    }
}

impl DseResult {
    /// The cells that survived Pareto extraction.
    #[must_use]
    pub fn frontier(&self) -> Vec<&DseCell> {
        self.cells.iter().filter(|c| c.on_frontier).collect()
    }

    /// The full grid as a [`ReportTable`] (one row per cell). Delta-enabled
    /// runs append the `frames_delta_executed` / `delta_speedup` columns and
    /// adaptive runs the `simulated` flag plus the `cells_screened` /
    /// `cells_simulated` / `frames_saved` counters; default runs keep the
    /// legacy column set, so pre-existing exports stay byte-identical.
    #[must_use]
    pub fn to_table(&self) -> ReportTable {
        let mut headers = vec![
            "workload",
            "accelerator",
            "design",
            "pe_rows",
            "pe_cols",
            "sram_kib",
            "freq_ghz",
            "dram_bytes_per_cycle",
            "dataflow",
            "mean_latency_ms",
            "mean_energy_mj",
            "area_mm2",
            "mean_dram_mib",
            "mean_pillar_overlap",
            "on_frontier",
        ];
        if self.delta {
            headers.push("frames_delta_executed");
            headers.push("delta_speedup");
        }
        if self.adaptive {
            headers.push("simulated");
            headers.push("cells_screened");
            headers.push("cells_simulated");
            headers.push("frames_saved");
        }
        let mut t = ReportTable::new(headers);
        for c in &self.cells {
            let mut row: Vec<spade_core::ReportValue> = vec![
                c.workload.into(),
                c.accelerator.clone().into(),
                c.design.clone().into(),
                c.pe_rows.into(),
                c.pe_cols.into(),
                (c.sram_kib as i64).into(),
                c.freq_ghz.into(),
                c.dram_bytes_per_cycle.into(),
                c.dataflow_enabled.into(),
                c.mean_latency_ms.into(),
                c.mean_energy_mj.into(),
                c.area_mm2.into(),
                c.mean_dram_mib.into(),
                c.mean_pillar_overlap.into(),
                c.on_frontier.into(),
            ];
            if self.delta {
                row.push(c.frames_delta_executed.into());
                row.push(c.delta_speedup.into());
            }
            if self.adaptive {
                row.push(c.simulated.into());
                // Run-level counters, repeated per row like the other
                // run-level columns (e.g. `mean_pillar_overlap`) so the
                // export stays one flat table.
                row.push(self.cells_screened.into());
                row.push(self.cells_simulated.into());
                row.push(self.frames_saved.into());
            }
            t.push_row(row);
        }
        t
    }

    /// CSV export of the full grid.
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.to_table().to_csv()
    }

    /// JSON export of the full grid.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_table().to_json()
    }

    /// Human-readable summary: the sweep shape, the Pareto frontier per
    /// workload, and the SPADE-vs-DenseAcc dominance tally.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "DSE — {} configs x {} accelerator cells over a {}-frame drive ({} swept axes)\n",
            self.num_configs,
            self.cells.len(),
            self.num_frames,
            self.num_swept_axes,
        );
        // Temporal locality of the drive each workload ran over (one value
        // per workload — it is a property of the drive, not of the cell).
        let mut seen: Vec<&str> = Vec::new();
        let _ = write!(s, "drive temporal locality (mean pillar overlap):");
        for c in &self.cells {
            if !seen.contains(&c.workload) {
                seen.push(c.workload);
                let _ = write!(s, " {}={:.3}", c.workload, c.mean_pillar_overlap);
            }
        }
        s.push('\n');
        if self.adaptive {
            let _ = writeln!(
                s,
                "adaptive exploration: {} cells screened by roofline bound, {} simulated, {} drive frames saved",
                self.cells_screened, self.cells_simulated, self.frames_saved,
            );
        }
        if self.delta {
            let _ = writeln!(
                s,
                "delta execution: {}/{} frames patched, {}/{}/{} layers reused/patched/full, modelled rulegen speedup {:.2}x",
                self.delta_stats.frames_delta,
                self.delta_stats.frames_total,
                self.delta_stats.layers_reused,
                self.delta_stats.layers_patched,
                self.delta_stats.layers_full,
                self.delta_stats.modelled_speedup(),
            );
        }
        let _ = writeln!(
            s,
            "Pareto frontier (latency/energy/area, {} of {} cells):",
            self.frontier().len(),
            self.cells.len()
        );
        let _ = writeln!(
            s,
            "workload | accelerator  | design                     | latency ms | energy mJ | area mm2"
        );
        for c in self.frontier() {
            let _ = writeln!(
                s,
                "{:<8} | {:<12} | {:<26} | {:>10.3} | {:>9.3} | {:>8.2}",
                c.workload,
                c.accelerator,
                c.design,
                c.mean_latency_ms,
                c.mean_energy_mj,
                c.area_mm2
            );
        }
        let _ = writeln!(
            s,
            "SPADE dominates DenseAcc (same form factor, latency & energy) in {}/{} config cells",
            self.spade_dense_wins, self.spade_dense_comparisons
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_drops_dominated_points() {
        let points = [
            [1.0, 1.0, 1.0], // frontier
            [2.0, 2.0, 2.0], // dominated by the first
            [0.5, 3.0, 1.0], // frontier (best latency)
            [1.0, 1.0, 2.0], // dominated by the first (tie on two dims)
        ];
        let keep = pareto_frontier(&points);
        assert_eq!(keep, vec![true, false, true, false]);
    }

    #[test]
    fn pareto_keeps_exact_ties() {
        let points = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]];
        let keep = pareto_frontier(&points);
        assert_eq!(keep, vec![true, true, false]);
    }

    #[test]
    fn pareto_of_empty_and_single() {
        assert!(pareto_frontier(&[]).is_empty());
        assert_eq!(pareto_frontier(&[[1.0, 1.0, 1.0]]), vec![true]);
    }

    #[test]
    fn pareto_excludes_non_finite_points() {
        // Regression: NaN comparisons are all false, so a NaN cell used to be
        // "undominated" and stuck to the frontier permanently.
        let keep = pareto_frontier(&[
            [1.0, 1.0, 1.0],
            [f64::NAN, 0.5, 0.5],
            [f64::INFINITY, 0.5, 0.5],
            [2.0, 2.0, 2.0],
        ]);
        assert_eq!(keep, vec![true, false, false, false]);
        // A -inf garbage point neither joins the frontier nor knocks real
        // points off it.
        let keep = pareto_frontier(&[[f64::NEG_INFINITY, 0.0, 0.0], [1.0, 1.0, 1.0]]);
        assert_eq!(keep, vec![false, true]);
        // All-non-finite input yields an empty frontier, not a full one.
        assert_eq!(
            pareto_frontier(&[[f64::NAN; 3], [f64::INFINITY; 3]]),
            vec![false, false]
        );
    }

    #[test]
    fn axes_expand_to_the_cross_product() {
        let axes = SweepAxes::paper_neighbourhood();
        assert_eq!(axes.expand_configs().len(), 3 * 2 * 2 * 2);
        assert_eq!(axes.num_swept_axes(), 5);
        assert!(SweepAxes::reduced().num_swept_axes() >= 3);
    }

    #[test]
    fn expanded_configs_carry_the_swept_frequency() {
        let axes = SweepAxes::paper_neighbourhood();
        let configs = axes.expand_configs();
        for &freq in &axes.freq_ghz {
            assert!(
                configs.iter().any(|c| (c.freq_ghz - freq).abs() < 1e-12),
                "no config at {freq} GHz"
            );
        }
        // The label names the frequency so design points stay distinguishable.
        assert!(configs[0].label().contains("GHz"));
    }

    #[test]
    fn duplicate_axis_values_are_deduped() {
        // Regression: duplicate axis entries used to emit duplicate cells
        // that survived Pareto extraction as fake exact ties.
        let axes = SweepAxes {
            pe_dims: vec![(16, 16), (16, 16), (64, 64)],
            sram_scales: vec![1.0, 1.0],
            freq_ghz: vec![1.0, 1.0, 1.0],
            dram_bytes_per_cycle: vec![25.6, 25.6],
            buffer_splits: vec![0.0, 0.0],
            sram_banks: vec![16, 16],
            dataflow: vec![
                DataflowOptions::all_enabled(),
                DataflowOptions::all_enabled(),
            ],
        };
        assert_eq!(axes.expand_configs().len(), 2);
        // Every duplicated axis collapses to one distinct value, so only the
        // PE-dim axis counts as swept.
        assert_eq!(axes.num_swept_axes(), 1);

        // End-to-end: the duplicated dataflow axis must not mint twin SPADE
        // cells either.
        let mut params = DseParams::default_for(WorkloadScale::Reduced);
        params.axes = axes;
        params.num_frames = 2;
        let result = run_dse(&params);
        let spade_cells = result
            .cells
            .iter()
            .filter(|c| c.accelerator == "SPADE")
            .count();
        assert_eq!(spade_cells, 2, "one SPADE cell per deduped config");
        // No two cells of the grid are exact duplicates.
        for (i, a) in result.cells.iter().enumerate() {
            for b in &result.cells[i + 1..] {
                assert!(
                    !(a.accelerator == b.accelerator && a.design == b.design),
                    "duplicate cell {}/{}",
                    a.accelerator,
                    a.design
                );
            }
        }
    }

    #[test]
    fn sweep_covers_all_four_accelerators_and_finds_a_frontier() {
        let mut params = DseParams::default_for(WorkloadScale::Reduced);
        // Smallest grid that still crosses three axes.
        params.axes = SweepAxes {
            pe_dims: vec![(16, 16), (64, 64)],
            sram_scales: vec![1.0],
            freq_ghz: vec![1.0],
            dram_bytes_per_cycle: vec![12.8, 25.6],
            buffer_splits: vec![0.0],
            sram_banks: vec![spade_core::GATHER_SCATTER_LANES],
            dataflow: vec![
                DataflowOptions::all_disabled(),
                DataflowOptions::all_enabled(),
            ],
        };
        params.num_frames = 3;
        let result = run_dse(&params);
        for name in ["SPADE", "DenseAcc", "SpConv2D-Acc", "PointAcc"] {
            assert!(
                result.cells.iter().any(|c| c.accelerator == name),
                "missing {name}"
            );
        }
        // The DRAM-bandwidth-insensitive baselines collapse that axis: one
        // cell per (PE array, SRAM) form factor — here 2 form factors despite
        // 4 configs — and their labels carry no bandwidth token.
        let spconv_cells: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.accelerator == "SpConv2D-Acc")
            .collect();
        assert_eq!(spconv_cells.len(), 2);
        assert!(spconv_cells.iter().all(|c| !c.design.contains("Bpc")));
        // SpConv2D-Acc is clock-insensitive too; PointAcc keeps the
        // frequency token (its cycle model scales with the clock).
        assert!(spconv_cells.iter().all(|c| !c.design.contains("GHz")));
        let pacc_cells: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.accelerator == "PointAcc")
            .collect();
        assert_eq!(pacc_cells.len(), 2);
        assert!(pacc_cells
            .iter()
            .all(|c| c.design.contains("GHz") && !c.design.contains("Bpc")));
        let frontier = result.frontier();
        assert!(!frontier.is_empty());
        // Fig. 9 consistency: SPADE beats the dense design of the same form
        // factor somewhere in the grid.
        assert!(result.spade_dense_wins >= 1);
        // Every frontier cell is genuinely non-dominated.
        for f in &frontier {
            assert!(!result.cells.iter().any(|c| {
                c.workload == f.workload
                    && c.mean_latency_ms <= f.mean_latency_ms
                    && c.mean_energy_mj <= f.mean_energy_mj
                    && c.area_mm2 <= f.area_mm2
                    && (c.mean_latency_ms < f.mean_latency_ms
                        || c.mean_energy_mj < f.mean_energy_mj
                        || c.area_mm2 < f.area_mm2)
            }));
        }
    }

    #[test]
    fn frequency_axis_scales_spade_latency() {
        let mut params = DseParams::default_for(WorkloadScale::Reduced);
        params.axes = SweepAxes {
            pe_dims: vec![(32, 32)],
            sram_scales: vec![1.0],
            freq_ghz: vec![1.0, 2.0],
            dram_bytes_per_cycle: vec![25.6],
            buffer_splits: vec![0.0],
            sram_banks: vec![spade_core::GATHER_SCATTER_LANES],
            dataflow: vec![DataflowOptions::all_enabled()],
        };
        params.num_frames = 2;
        let result = run_dse(&params);
        let spade: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.accelerator == "SPADE")
            .collect();
        assert_eq!(spade.len(), 2);
        let slow = spade.iter().find(|c| c.freq_ghz == 1.0).unwrap();
        let fast = spade.iter().find(|c| c.freq_ghz == 2.0).unwrap();
        assert!(
            fast.mean_latency_ms < slow.mean_latency_ms,
            "doubling the clock should cut latency: {} vs {}",
            fast.mean_latency_ms,
            slow.mean_latency_ms
        );
        // ...but not for free: the DVFS voltage premium makes the faster
        // clock spend more energy per frame, so neither design point
        // dominates the other and the axis adds real frontier diversity.
        assert!(
            fast.mean_energy_mj > slow.mean_energy_mj,
            "overclocking should cost energy: {} vs {}",
            fast.mean_energy_mj,
            slow.mean_energy_mj
        );
    }
}
