//! Adaptive design-space exploration: roofline lower-bound screening plus
//! successive halving over growing drive-frame prefixes.
//!
//! The exhaustive sweep simulates every `(configuration, dataflow, frame)`
//! cell. On the enlarged buffer-split × banking grid
//! ([`super::SweepAxes::enlarged`]) that is ~100× the legacy cell count, and
//! almost all of it is provably wasted: most configurations are dominated by
//! a handful of good designs before a single cycle is simulated. This module
//! spends that insight in two stages:
//!
//! 1. **Roofline screen.** For every SPADE cell a per-frame *lower bound* on
//!    latency and energy is read from the sweep's cost table
//!    ([`spade_core::SpadeCostTable::frame_bound`], equal bit for bit to
//!    [`SpadeAccelerator::roofline_bound`]): each layer's array term at its
//!    floor — MXU streaming, one weight load per ATM tile, and the 16-cycle
//!    rule-generation minimum, without the dataflow surcharges — plus the
//!    bank stall, maxed against the DRAM-interface cycles. Energy is the
//!    exact MAC/SRAM/DRAM activity energy plus leakage at the bound cycle
//!    count (leakage is monotone in cycles, so the bound is sound).
//!    A small *seed* set — the Pareto frontier of the bounds — plus every
//!    baseline cell is fully simulated; any cell whose bound is dominated
//!    by a simulated cell is screened out.
//! 2. **Successive halving.** Survivors are priced on a 1-frame prefix of
//!    the drive (cost-table lookups, equal to a simulation), their bound
//!    refined (exact prefix + bound suffix), and re-screened; the prefix
//!    doubles until the full drive is reached. Cheap frames kill most
//!    survivors early; the few that reach the last rung have every frame
//!    priced and are emitted through the sweep's one cell constructor, as
//!    on the exhaustive path.
//!
//! **Exactness.** The screen only ever discards a cell `c` when a *fully
//! simulated* cell `s` dominates `bound(c)`. Since `bound(c) ≤ true(c)`
//! componentwise and domination is transitive, `s` also dominates `true(c)`
//! — so `c` is not on the exhaustive frontier, and anything `true(c)` would
//! have dominated is dominated by `s` too. Surviving cells are built from
//! per-frame simulations in frame order through the shared constructor, so
//! the adaptive frontier is *byte-identical* to the exhaustive one — pinned
//! by `tests/dse_adaptive.rs` across scenarios, `--jobs`, and `--delta`.
//! Exact frontier ties are never screened (domination requires a strict
//! inequality), exactly as [`super::pareto_frontier`] keeps them all.
//!
//! **Determinism.** Every pool fan-out is indexed over a canonically ordered
//! work-list and reassembled by index; all screening decisions are made
//! serially on the assembled vectors. No map iteration, no wall clock: the
//! result is bit-identical for any worker count.

use super::{compute_cell, pareto_frontier, CellKind, DseCell, SweepPlan};
use crate::pool::WorkerPool;
use crate::workload::ModelRun;
use spade_core::{SpadeAccelerator, SpadeConfig};

/// How the adaptive explorer spent its cell budget. The exhaustive path
/// reports `cells_screened = 0` and every cell simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScreenCounters {
    /// Cells discarded on a roofline bound (stage 0) or a refined bound
    /// (a halving rung) without simulating their full drive.
    pub cells_screened: usize,
    /// Cells whose full drive was simulated.
    pub cells_simulated: usize,
    /// Drive frames the screened cells never simulated, summed.
    pub frames_saved: usize,
}

/// Per-frame roofline lower bounds `(latency_ms, energy_mj)` of `config`
/// over a drive's model runs — the quantity the adaptive screen prunes on.
/// Each frame is [`SpadeAccelerator::roofline_bound`]: every layer with its
/// array term at the floor `schedule_layer` adds its dataflow surcharges
/// to, so the bound holds for every dataflow setting. The explorer reads
/// the same figures from the sweep's [`spade_core::SpadeCostTable`]; this
/// is the trait path they are tested against. Public so the soundness
/// property (`bound ≤ simulated`, for every frame, configuration, dataflow
/// setting, and scenario) is testable from outside the explorer.
#[must_use]
pub fn roofline_bound(config: &SpadeConfig, runs: &[ModelRun]) -> Vec<(f64, f64)> {
    let acc = SpadeAccelerator::new(*config);
    runs.iter()
        .map(|run| acc.roofline_bound(&run.workloads, run.encoder_macs))
        .collect()
}

/// Roofline bound of one SPADE cell: per-frame `(latency, energy)` lower
/// bounds plus their drive mean alongside the cell's exact area.
struct CellBound {
    per_frame: Vec<(f64, f64)>,
    mean: [f64; 3],
}

/// A SPADE cell still alive in the halving loop, with the number of frames
/// priced so far (in frame order) and their exact running sums.
struct Survivor {
    /// Position into the `spade` item-index list.
    pos: usize,
    frames_done: usize,
    prefix_lat: f64,
    prefix_energy: f64,
}

/// At most this many bound-frontier cells are seeded (fully simulated up
/// front) per workload; seeding is an efficiency lever only — an unseeded
/// frontier cell simply survives the halving rungs to full simulation.
const SEED_CAP: usize = 64;

/// Explores the planned grid adaptively. Returns the assembled cell vector
/// in the plan's canonical item order — fully simulated cells byte-identical
/// to [`super::compute_cell`]'s output, screened cells carrying their bound
/// values with `simulated = false` — plus the budget counters.
pub(super) fn explore(pool: &WorkerPool, plan: &SweepPlan) -> (Vec<DseCell>, ScreenCounters) {
    let n_frames = plan.num_frames.max(1);
    let n_models = plan.workloads.len();
    let run_cell = |item_idx: usize| compute_cell(plan, &plan.items[item_idx]);

    // Split the canonical work-list: SPADE cells are screened adaptively,
    // every baseline cell is simulated outright (they are a small minority
    // — the insensitive-axis collapses already shrank them — and they seed
    // the reference set).
    let mut spade: Vec<usize> = Vec::new();
    let mut others: Vec<usize> = Vec::new();
    for (i, item) in plan.items.iter().enumerate() {
        match item.kind {
            CellKind::Spade { .. } => spade.push(i),
            _ => others.push(i),
        }
    }
    let spade_dataflow = |pos: usize| match plan.items[spade[pos]].kind {
        CellKind::Spade { dataflow } => dataflow,
        _ => unreachable!("`spade` holds only SPADE items"),
    };

    let mut cells: Vec<Option<DseCell>> = (0..plan.items.len()).map(|_| None).collect();
    let mut refs_by_model: Vec<Vec<[f64; 3]>> = vec![Vec::new(); n_models];

    let baseline_cells = pool.run(others.len(), |i| run_cell(others[i]));
    for (&item_idx, cell) in others.iter().zip(baseline_cells) {
        refs_by_model[plan.items[item_idx].model_idx].push([
            cell.mean_latency_ms,
            cell.mean_energy_mj,
            cell.area_mm2,
        ]);
        cells[item_idx] = Some(cell);
    }

    // Stage 0a — per-frame roofline bounds, computed once per
    // (configuration, model) pair: the bound is dataflow-independent, so
    // the dataflow variants of a design point share one `CellBound`.
    // `pair_of` maps each SPADE position to its pair slot (first-appearance
    // order, so the fan-out below is canonically indexed).
    let mut pair_slot: Vec<usize> = vec![usize::MAX; plan.configs.len() * n_models];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let pair_of: Vec<usize> = spade
        .iter()
        .map(|&i| {
            let item = &plan.items[i];
            let key = item.model_idx * plan.configs.len() + item.config_idx;
            if pair_slot[key] == usize::MAX {
                pair_slot[key] = pairs.len();
                pairs.push((item.config_idx, item.model_idx));
            }
            pair_slot[key]
        })
        .collect();
    let pair_bounds: Vec<CellBound> = pool.run(pairs.len(), |i| {
        let (config_idx, model_idx) = pairs[i];
        let per_frame: Vec<(f64, f64)> = (0..n_frames)
            .map(|f| plan.costs.frame_bound(model_idx, config_idx, f))
            .collect();
        let n = per_frame.len().max(1) as f64;
        let mean = [
            per_frame.iter().map(|b| b.0).sum::<f64>() / n,
            per_frame.iter().map(|b| b.1).sum::<f64>() / n,
            plan.spade_area[config_idx],
        ];
        CellBound { per_frame, mean }
    });
    let bound_of = |p: usize| &pair_bounds[pair_of[p]];

    // Stage 0b — seed the reference set with the Pareto frontier of the
    // bounds (per workload: cells of different models never compete), fully
    // simulated. A cell can only be screened by a *simulated* reference, so
    // without seeds nothing SPADE-shaped could ever prune SPADE cells.
    let mut is_seed = vec![false; spade.len()];
    for model_idx in 0..n_models {
        let members: Vec<usize> = (0..spade.len())
            .filter(|&p| plan.items[spade[p]].model_idx == model_idx)
            .collect();
        let points: Vec<[f64; 3]> = members.iter().map(|&p| bound_of(p).mean).collect();
        let mut seeded = 0usize;
        for (&p, keep) in members.iter().zip(pareto_frontier(&points)) {
            if keep && seeded < SEED_CAP {
                is_seed[p] = true;
                seeded += 1;
            }
        }
    }
    let seeds: Vec<usize> = (0..spade.len()).filter(|&p| is_seed[p]).collect();
    let seed_cells = pool.run(seeds.len(), |i| run_cell(spade[seeds[i]]));
    for (&p, cell) in seeds.iter().zip(seed_cells) {
        refs_by_model[plan.items[spade[p]].model_idx].push([
            cell.mean_latency_ms,
            cell.mean_energy_mj,
            cell.area_mm2,
        ]);
        cells[spade[p]] = Some(cell);
    }

    // Simulated references are always finite, so the plain domination test
    // (no finiteness guard) matches `pareto_frontier`'s exactly.
    let dominates = |a: &[f64; 3], b: &[f64; 3]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    let mut cells_screened = 0usize;
    let mut frames_saved = 0usize;
    // Builds the exported cell of a screened design point: the refined
    // bound for the latency and energy columns, SPADE's exact mean DRAM,
    // and `simulated = false` so the frontier and the duel tally skip it.
    let mut screen = |cells: &mut Vec<Option<DseCell>>,
                      pos: usize,
                      frames_done: usize,
                      bound_lat: f64,
                      bound_energy: f64| {
        let item = &plan.items[spade[pos]];
        let dram = plan.workloads[item.model_idx].spade_mean_dram_mib;
        cells[spade[pos]] = Some(plan.cell(item, "SPADE", [bound_lat, bound_energy, dram], false));
        cells_screened += 1;
        frames_saved += n_frames - frames_done;
    };

    // Stage 0c — the screen itself: discard every non-seed cell whose bound
    // is dominated by a simulated reference.
    let mut active: Vec<Survivor> = Vec::new();
    for p in 0..spade.len() {
        if is_seed[p] {
            continue;
        }
        let model_idx = plan.items[spade[p]].model_idx;
        if refs_by_model[model_idx]
            .iter()
            .any(|r| dominates(r, &bound_of(p).mean))
        {
            screen(&mut cells, p, 0, bound_of(p).mean[0], bound_of(p).mean[1]);
        } else {
            active.push(Survivor {
                pos: p,
                frames_done: 0,
                prefix_lat: 0.0,
                prefix_energy: 0.0,
            });
        }
    }

    // Stage 1 — successive halving: price survivors on a growing frame
    // prefix, re-screen with the refined bound (exact prefix + bound
    // suffix), double the prefix. Each frame is a cost-table lookup, so the
    // rungs run serially in canonical (survivor, frame) order.
    let mut prefix = 1usize;
    while !active.is_empty() {
        let rung = prefix.min(n_frames);
        for surv in &mut active {
            let item = &plan.items[spade[surv.pos]];
            for f in surv.frames_done..rung {
                let cost = plan.costs.frame_cost(
                    item.model_idx,
                    item.config_idx,
                    spade_dataflow(surv.pos),
                    f,
                );
                surv.prefix_lat += cost.latency_ms;
                surv.prefix_energy += cost.energy_mj;
            }
            surv.frames_done = rung;
        }
        let n = n_frames as f64;
        if rung == n_frames {
            // Every surviving cell has priced the full drive: its running
            // sums are the exhaustive path's frame-order sums, so the cell
            // is byte-identical to `compute_cell`'s.
            for surv in active.drain(..) {
                let item = &plan.items[spade[surv.pos]];
                let means = [
                    surv.prefix_lat / n,
                    surv.prefix_energy / n,
                    plan.workloads[item.model_idx].spade_mean_dram_mib,
                ];
                cells[spade[surv.pos]] = Some(plan.cell(item, "SPADE", means, true));
            }
            break;
        }
        let mut still = Vec::with_capacity(active.len());
        for surv in active.drain(..) {
            let bound = bound_of(surv.pos);
            let suffix_lat: f64 = bound.per_frame[rung..].iter().map(|b| b.0).sum();
            let suffix_energy: f64 = bound.per_frame[rung..].iter().map(|b| b.1).sum();
            let refined = [
                (surv.prefix_lat + suffix_lat) / n,
                (surv.prefix_energy + suffix_energy) / n,
                bound.mean[2],
            ];
            let model_idx = plan.items[spade[surv.pos]].model_idx;
            if refs_by_model[model_idx]
                .iter()
                .any(|r| dominates(r, &refined))
            {
                screen(
                    &mut cells,
                    surv.pos,
                    surv.frames_done,
                    refined[0],
                    refined[1],
                );
            } else {
                still.push(surv);
            }
        }
        active = still;
        prefix *= 2;
    }

    let cells: Vec<DseCell> = cells
        .into_iter()
        .map(|c| c.expect("every work-list item is either simulated or screened"))
        .collect();
    let counters = ScreenCounters {
        cells_screened,
        cells_simulated: cells.len() - cells_screened,
        frames_saved,
    };
    (cells, counters)
}
