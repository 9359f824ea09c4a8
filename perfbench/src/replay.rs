//! Stage-by-stage replay of a DSE sweep through the layers' public calls.
//!
//! `run_dse_on_pool` is one opaque call. To attribute its time, the traced
//! run re-executes the sweep's stages in the same order and on the same
//! inputs — drive generation, pattern execution, roofline screening,
//! accelerator simulation, Pareto extraction — with a span around every
//! call. The cells simulated mirror the sweep's canonical work-list; for an
//! adaptive sweep, the cells the explorer fully simulated (its halving
//! rungs on frame prefixes are not replayed). Whatever the sweep spends
//! outside these calls shows up as `dse.unattributed_ms`.

use crate::trace::Tracer;
use spade_baselines::{DenseAccelerator, PointAccModel, SpConv2dAccelerator};
use spade_bench::dse::adaptive::roofline_bound;
use spade_bench::dse::{pareto_frontier, DseParams, DseResult};
use spade_bench::workload::{model_run_on_frame, ModelRun};
use spade_core::{Accelerator, DataflowOptions, SpadeAccelerator, SpadeConfig};
use spade_nn::{ConvKind, ModelKind, PruningConfig};
use spade_pointcloud::dataset::{DatasetKind, DatasetPreset};
use spade_pointcloud::{DriveFrame, DriveScenario};
use std::collections::HashSet;
use std::hint::black_box;

/// Work counts of one replayed sweep (deterministic for given params).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub frames: u64,
    pub active_pillars: u64,
    pub rules: u64,
    pub macs: u64,
    pub spconv_p_dilated: u64,
    pub spconv_p_kept: u64,
    pub core_calls: u64,
    pub baseline_calls: u64,
    /// Whether the replayed work-list matched the sweep's cells one to one.
    pub worklist_matches: bool,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.frames += o.frames;
        self.active_pillars += o.active_pillars;
        self.rules += o.rules;
        self.macs += o.macs;
        self.spconv_p_dilated += o.spconv_p_dilated;
        self.spconv_p_kept += o.spconv_p_kept;
        self.core_calls += o.core_calls;
        self.baseline_calls += o.baseline_calls;
    }

    /// Adds one model run's rule, MAC and SpConv-P pruning counts.
    pub fn add_run(&mut self, run: &ModelRun) {
        for layer in &run.trace.layers {
            self.rules += layer.rules;
            if layer.kind == ConvKind::SpConvP {
                self.spconv_p_dilated += layer.dilated_active as u64;
                self.spconv_p_kept += layer.out_active as u64;
            }
        }
        self.macs += run.trace.total_macs();
    }
}

pub fn preset_for(kind: ModelKind) -> DatasetPreset {
    match kind.dataset() {
        DatasetKind::KittiLike => DatasetPreset::kitti_like(),
        DatasetKind::NuscenesLike => DatasetPreset::nuscenes_like(),
    }
}

enum Kind {
    Spade(DataflowOptions),
    Dense,
    SpConv2d,
    PointAcc,
}

struct Item {
    model: usize,
    config: usize,
    kind: Kind,
}

fn dedup<T: PartialEq + Clone>(values: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::new();
    for v in values {
        if !out.contains(v) {
            out.push(v.clone());
        }
    }
    out
}

/// The sweep's canonical work-list: per model, per configuration, the SPADE
/// cells (one per dataflow setting) and the baselines collapsed onto the
/// axes their models can observe.
fn worklist(params: &DseParams, configs: &[SpadeConfig]) -> Vec<Item> {
    let dataflow = dedup(&params.axes.dataflow);
    let mut items = Vec::new();
    for model in 0..params.models.len() {
        let mut dense = HashSet::new();
        let mut spconv = HashSet::new();
        let mut pacc = HashSet::new();
        for (config, c) in configs.iter().enumerate() {
            for &opts in &dataflow {
                items.push(Item {
                    model,
                    config,
                    kind: Kind::Spade(opts),
                });
            }
            let form = (c.pe_rows, c.pe_cols, c.total_sram_kib());
            let (freq, bpc) = (c.freq_ghz.to_bits(), c.dram_bytes_per_cycle.to_bits());
            if dense.insert((form, freq, bpc)) {
                items.push(Item {
                    model,
                    config,
                    kind: Kind::Dense,
                });
            }
            if spconv.insert(form) {
                items.push(Item {
                    model,
                    config,
                    kind: Kind::SpConv2d,
                });
            }
            if pacc.insert((form, freq)) {
                items.push(Item {
                    model,
                    config,
                    kind: Kind::PointAcc,
                });
            }
        }
    }
    items
}

/// Replays `params` (whose real result is `result`) under spans tagged
/// `req`, and returns the work counts.
pub fn replay(params: &DseParams, result: &DseResult, tr: &mut Tracer, req: u64) -> Counts {
    let mut counts = Counts::default();
    let configs = params.axes.expand_configs();
    let drive_cfg = params.drive_config();

    // Drive generation: once per dataset, shared by the models on it.
    let mut drives: Vec<(DatasetKind, Vec<DriveFrame>)> = Vec::new();
    for &kind in &params.models {
        if drives.iter().any(|(d, _)| *d == kind.dataset()) {
            continue;
        }
        let scenario = DriveScenario::new(preset_for(kind), drive_cfg.clone());
        let frames = if drive_cfg.persistence.is_persistent() {
            tr.span("pointcloud.frames", req, || scenario.frames())
        } else {
            let mut frames: Vec<DriveFrame> = (0..drive_cfg.num_frames)
                .map(|i| {
                    tr.span("pointcloud.generate_frame", req, || {
                        scenario.generate_frame(i)
                    })
                })
                .collect();
            tr.span("pointcloud.annotate_overlap", req, || {
                DriveScenario::annotate_overlap(&mut frames);
            });
            frames
        };
        counts.frames += frames.len() as u64;
        counts.active_pillars += frames
            .iter()
            .map(|f| f.frame.pillars.active_coords.len() as u64)
            .sum::<u64>();
        drives.push((kind.dataset(), frames));
    }

    // Pattern execution: every model on every frame of its drive.
    let runs: Vec<Vec<ModelRun>> = params
        .models
        .iter()
        .map(|&kind| {
            let preset = preset_for(kind);
            let frames = &drives
                .iter()
                .find(|(d, _)| *d == kind.dataset())
                .expect("drive generated above")
                .1;
            frames
                .iter()
                .map(|f| {
                    let run = tr.span("nn.model_run_on_frame", req, || {
                        model_run_on_frame(
                            kind,
                            &preset,
                            &f.frame,
                            drive_cfg.pruning_seed(f.index),
                            params.scale,
                            PruningConfig::default(),
                        )
                    });
                    counts.add_run(&run);
                    run
                })
                .collect()
        })
        .collect();

    let items = worklist(params, &configs);
    counts.worklist_matches = items.len() == result.cells.len()
        && items.iter().zip(&result.cells).all(|(item, cell)| {
            let name = match item.kind {
                Kind::Spade(_) => "SPADE",
                Kind::Dense => "DenseAcc",
                Kind::SpConv2d => "SpConv2D-Acc",
                Kind::PointAcc => "PointAcc",
            };
            cell.accelerator == name
        });

    // Roofline screening: one bound per (configuration, model) pair.
    if params.adaptive {
        let mut seen = HashSet::new();
        for item in &items {
            if matches!(item.kind, Kind::Spade(_)) && seen.insert((item.config, item.model)) {
                black_box(tr.span("adaptive.roofline_bound", req, || {
                    roofline_bound(&configs[item.config], &runs[item.model])
                }));
            }
        }
    }

    // Accelerator simulation of every cell the sweep fully simulated.
    for (i, item) in items.iter().enumerate() {
        let simulated = result.cells.get(i).is_none_or(|c| c.simulated);
        if !simulated {
            continue;
        }
        let config = configs[item.config];
        let (acc, span): (Box<dyn Accelerator>, &'static str) = match item.kind {
            Kind::Spade(opts) => (
                Box::new(SpadeAccelerator::with_options(config, opts)),
                "core.simulate_network",
            ),
            Kind::Dense => (
                Box::new(DenseAccelerator::new(config)),
                "baselines.simulate_network",
            ),
            Kind::SpConv2d => (
                Box::new(SpConv2dAccelerator::new(config.pe_rows, config.pe_cols, 16)),
                "baselines.simulate_network",
            ),
            Kind::PointAcc => (
                Box::new(PointAccModel::new(config)),
                "baselines.simulate_network",
            ),
        };
        for run in &runs[item.model] {
            black_box(tr.span(span, req, || {
                acc.simulate_network(&run.workloads, run.encoder_macs)
            }));
        }
        let calls = runs[item.model].len() as u64;
        if matches!(item.kind, Kind::Spade(_)) {
            counts.core_calls += calls;
        } else {
            counts.baseline_calls += calls;
        }
    }

    // Pareto extraction per workload, over the sweep's simulated cells.
    for model in 0..params.models.len() {
        let points: Vec<[f64; 3]> = items
            .iter()
            .zip(&result.cells)
            .filter(|(item, _)| item.model == model)
            .map(|(_, c)| {
                if c.simulated {
                    [c.mean_latency_ms, c.mean_energy_mj, c.area_mm2]
                } else {
                    [f64::NAN; 3]
                }
            })
            .collect();
        black_box(tr.span("dse.pareto_frontier", req, || pareto_frontier(&points)));
    }
    counts
}
