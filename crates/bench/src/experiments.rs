//! One function per table / figure of the paper's evaluation, plus the
//! cross-cutting `accelerators` comparison and the `dse` design-space sweep.
//!
//! Each function returns the formatted series it regenerates (and is also
//! printed by the `spade-experiments` binary and the Criterion benches).
//! `ARCHITECTURE.md` maps every paper figure/table to its experiment and
//! bench file.

use crate::workload::{frame_for, model_run, model_run_on_frame, simulate_on, WorkloadScale};
use spade_baselines::{DenseAccelerator, Platform, PointAccModel, SpConv2dAccelerator};
use spade_core::{Accelerator, AcceleratorReport, DataflowOptions, SpadeAccelerator, SpadeConfig};
use spade_nn::rulegen::RuleGenMethod;
use spade_nn::{ModelKind, PruningConfig};
use spade_pointcloud::AccuracyProxy;
use std::fmt::Write as _;

/// Runs one experiment by its identifier (e.g. `"table1"`, `"fig09"`).
/// Returns the formatted output, or `None` for an unknown identifier.
#[must_use]
pub fn run_experiment(id: &str, scale: WorkloadScale) -> Option<String> {
    let out = match id {
        "table1" => table1(scale),
        "fig02b" => fig02b(),
        "fig02c" => fig02c(scale),
        "fig02def" => fig02def(scale),
        "fig05b" => fig05b(),
        "fig06c" => fig06c(),
        "fig08c" => fig08c(scale),
        "fig09" => fig09(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "fig13" => fig13(scale),
        "fig14_15" => fig14_15(scale),
        "accelerators" => accelerators(scale),
        // Parallel output is bit-identical to serial, so the dispatcher can
        // safely use every core; the binary's `--jobs` flag overrides this
        // through its dedicated `dse` path.
        "dse" => dse(scale, crate::pool::default_jobs()),
        _ => return None,
    };
    Some(out)
}

/// All experiment identifiers.
#[must_use]
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "table1",
        "fig02b",
        "fig02c",
        "fig02def",
        "fig05b",
        "fig06c",
        "fig08c",
        "fig09",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14_15",
        "accelerators",
        "dse",
    ]
}

/// Design-space exploration: the default configuration sweep (PE dims ×
/// SRAM × frequency × DRAM bandwidth × dataflow) across a multi-frame drive
/// scenario, fanned out over `jobs` worker threads and printed as the
/// Pareto-frontier summary. The output is identical for every `jobs` value
/// (the pool reassembles cells in index order). Use the `spade-experiments`
/// binary's `--jobs`/`--frames`/`--drive-seed`/`--scenario`/`--csv`/`--json`
/// flags to set the worker count, reshape the drive, pick a scripted
/// persistent scenario, or export the full grid.
#[must_use]
pub fn dse(scale: WorkloadScale, jobs: usize) -> String {
    crate::dse::run_dse_on_pool(
        &crate::dse::DseParams::default_for(scale),
        &crate::pool::WorkerPool::new(jobs),
    )
    .summary()
}

/// The full accelerator comparison set of Fig. 9/14 — SPADE, DenseAcc,
/// SpConv2D-Acc, and PointAcc — run on every sparse model through the common
/// [`Accelerator`] API. Adding a backend to this table means implementing the
/// trait; the experiment itself never changes.
#[must_use]
pub fn accelerators(scale: WorkloadScale) -> String {
    let cfg = SpadeConfig::high_end();
    let spade = SpadeAccelerator::new(cfg);
    let dense = DenseAccelerator::new(cfg);
    let spconv2d = SpConv2dAccelerator::default();
    let pointacc = PointAccModel::new(cfg);
    let models: [&dyn Accelerator; 4] = [&spade, &dense, &spconv2d, &pointacc];
    let mut s = String::from(
        "Accelerator comparison (HE form factor, all models via the Accelerator trait)\n\
         model | accelerator  | latency ms | Mcycles | DRAM MiB | energy mJ | vs SPADE\n",
    );
    for kind in ModelKind::SPARSE {
        let run = model_run(kind, 111, scale);
        let perfs: Vec<_> = models.iter().map(|acc| simulate_on(*acc, &run)).collect();
        let reference_cycles = perfs[0].total_cycles.max(1);
        for (acc, perf) in models.iter().zip(&perfs) {
            let _ = writeln!(
                s,
                "{:<5} | {:<12} | {:>10.3} | {:>7.2} | {:>8.2} | {:>9.3} | {:>7.2}x",
                kind.name(),
                acc.name(),
                perf.latency_ms,
                perf.total_cycles as f64 / 1e6,
                perf.total_dram_bytes as f64 / (1024.0 * 1024.0),
                perf.energy.total_mj(),
                perf.total_cycles as f64 / reference_cycles as f64,
            );
        }
    }
    s
}

/// Table I: GOPs, computation savings, and proxy accuracy for every model.
#[must_use]
pub fn table1(scale: WorkloadScale) -> String {
    let mut s = String::from(
        "Table I — model zoo (avg GOPs, savings vs dense, proxy accuracy)\n\
         model       | GOPs    | savings | acc-primary | acc-secondary\n",
    );
    for kind in ModelKind::ALL {
        let run = model_run(kind, 11, scale);
        let dense = model_run(kind.dense_baseline(), 11, scale);
        let savings = 1.0 - run.trace.total_macs() as f64 / dense.trace.total_macs() as f64;
        let (base_p, base_s) = kind.baseline_accuracy();
        let coverage = run.trace.foreground_coverage.unwrap_or(1.0);
        let proxy_p = AccuracyProxy::with_finetuning(base_p).estimate_map(coverage);
        let proxy_s = AccuracyProxy::with_finetuning(base_s).estimate_map(coverage);
        let _ = writeln!(
            s,
            "{:<11} | {:>7.2} | {:>6.1}% | {:>11.2} | {:>12.2}",
            kind.name(),
            run.trace.total_gops(),
            savings * 100.0,
            proxy_p,
            proxy_s
        );
    }
    s
}

/// Fig. 2(b): utilisation and bank-conflict rate of a conventional sparse
/// Conv2D accelerator as vector sparsity grows.
#[must_use]
pub fn fig02b() -> String {
    let acc = SpConv2dAccelerator::default();
    let mut s = String::from("Fig 2(b) — SpConv2D-Acc under vector sparsity\nsparsity | utilization | bank-conflict rate\n");
    for (sp, b) in acc.sweep(10) {
        let _ = writeln!(
            s,
            "{:>7.2} | {:>11.3} | {:>18.3}",
            sp, b.utilization, b.bank_conflict_rate
        );
    }
    s
}

/// Fig. 2(c): latency breakdown of PP / SPP1-3 on a GPU platform.
#[must_use]
pub fn fig02c(scale: WorkloadScale) -> String {
    let gpu = Platform::new(spade_baselines::PlatformKind::Gpu2080Ti);
    let mut s = String::from("Fig 2(c) — 2080Ti latency breakdown (ms)\nmodel | conv | mapping | gather | other | total\n");
    for kind in [
        ModelKind::Pp,
        ModelKind::Spp1,
        ModelKind::Spp2,
        ModelKind::Spp3,
    ] {
        let run = model_run(kind, 21, scale);
        let lat = gpu.run(&run.trace);
        let _ = writeln!(
            s,
            "{:<5} | {:>5.2} | {:>7.2} | {:>6.2} | {:>5.2} | {:>5.2}",
            kind.name(),
            lat.conv_ms,
            lat.mapping_ms,
            lat.gather_ms,
            lat.other_ms,
            lat.total_ms()
        );
    }
    s
}

/// Fig. 2(d–f): IOPR per backbone layer for SPP1 / SPP2 / SPP3.
#[must_use]
pub fn fig02def(scale: WorkloadScale) -> String {
    let mut s = String::from("Fig 2(d-f) — IOPR per backbone layer\n");
    for kind in [ModelKind::Spp1, ModelKind::Spp2, ModelKind::Spp3] {
        let run = model_run(kind, 31, scale);
        let _ = write!(s, "{}:", kind.name());
        for (name, iopr) in spade_nn::stats::iopr_series(&run.trace) {
            let _ = write!(s, " {name}={iopr:.2}");
        }
        s.push('\n');
    }
    s
}

/// Fig. 5(b): rule-generation cycles of hash table, merge sorter, and RGU as
/// the number of active pillars grows.
#[must_use]
pub fn fig05b() -> String {
    let mut s = String::from("Fig 5(b) — mapping cycles vs active pillars\npillars | hash | sorter | RGU | hash/RGU | sorter/RGU\n");
    for pillars in [1_000usize, 5_000, 10_000, 25_000, 50_000, 100_000] {
        let outputs = pillars * 18 / 10;
        let rules = pillars * 9;
        let hash = RuleGenMethod::HashTable
            .cost(pillars, outputs, rules)
            .cycles;
        let sort = RuleGenMethod::MergeSort
            .cost(pillars, outputs, rules)
            .cycles;
        let rgu = RuleGenMethod::StreamingRgu
            .cost(pillars, outputs, rules)
            .cycles;
        let _ = writeln!(
            s,
            "{:>7} | {:>8} | {:>8} | {:>8} | {:>7.2}x | {:>7.2}x",
            pillars,
            hash,
            sort,
            rgu,
            hash as f64 / rgu as f64,
            sort as f64 / rgu as f64
        );
    }
    s
}

/// Fig. 6(c): DRAM latency of cache-based gather vs. the ATM (RGU+GSU) vs. the
/// ideal, as active pillars grow.
#[must_use]
pub fn fig06c() -> String {
    use spade_sim::{DirectMappedCache, DramModel};
    let mut s = String::from("Fig 6(c) — normalised DRAM latency vs active pillars\npillars | cache-based | RGU+GSU | ideal\n");
    let channels = 64u64;
    for pillars in [2_000u64, 5_000, 10_000, 20_000, 50_000] {
        let bytes = pillars * channels;
        // Ideal: stream everything once.
        let mut ideal_dram = DramModel::lpddr4();
        let ideal = ideal_dram.read_sequential(bytes);
        // SPADE (ATM): also a single sequential pass per tensor.
        let mut spade_dram = DramModel::lpddr4();
        let spade = spade_dram.read_sequential(bytes);
        // Cache-based: 3 passes over the window (one per kernel row) through a
        // 32 KiB direct-mapped cache; misses become random line fills.
        let mut cache = DirectMappedCache::new(32, 64);
        let mut misses = 0u64;
        for pass in 0..3u64 {
            for i in 0..pillars {
                misses += cache.access_range(i * channels + pass * 7 * 64, channels);
            }
        }
        let mut cache_dram = DramModel::lpddr4();
        let cache_cycles = cache_dram.read_random(misses, 64);
        let _ = writeln!(
            s,
            "{:>7} | {:>11.2} | {:>7.2} | {:>5.2}",
            pillars,
            cache_cycles.get() as f64 / ideal.get() as f64,
            spade.get() as f64 / ideal.get() as f64,
            1.0
        );
    }
    s
}

/// Fig. 8(c): overhead reduction from weight grouping (strided conv) and
/// ganged scatter (deconv), measured on SPP2's layers.
#[must_use]
pub fn fig08c(scale: WorkloadScale) -> String {
    let run = model_run(ModelKind::Spp2, 41, scale);
    let cfg = SpadeConfig::high_end();
    let mut s = String::from("Fig 8(c) — dataflow optimisation overhead reduction (SPP2)\nlayer | kind | overhead w/o opt | overhead w/ opt\n");
    for w in &run.workloads {
        if !matches!(
            w.spec.kind,
            spade_nn::ConvKind::SpStConv | spade_nn::ConvKind::SpDeconv
        ) {
            continue;
        }
        let base = spade_core::dataflow::schedule_layer(w, &cfg, &DataflowOptions::all_disabled());
        let opt = spade_core::dataflow::schedule_layer(w, &cfg, &DataflowOptions::all_enabled());
        let ovh = |p: &spade_core::LayerPerf| {
            (p.total_cycles - p.mxu_cycles.min(p.total_cycles)) as f64 / p.total_cycles as f64
        };
        let _ = writeln!(
            s,
            "{:<5} | {:<9} | {:>15.1}% | {:>14.1}%",
            w.spec.name,
            w.spec.kind.to_string(),
            ovh(&base) * 100.0,
            ovh(&opt) * 100.0
        );
    }
    s
}

/// Fig. 9: speedup and energy savings of SPADE (HE and LE) over the platform
/// baselines for every sparse model.
#[must_use]
pub fn fig09(scale: WorkloadScale) -> String {
    let mut s = String::from("Fig 9 — SPADE speedup / energy savings vs platforms\nconfig | model | platform | speedup | energy savings\n");
    for (cfg_name, cfg, platforms) in [
        ("HE", SpadeConfig::high_end(), Platform::high_end_set()),
        ("LE", SpadeConfig::low_end(), Platform::low_end_set()),
    ] {
        for kind in ModelKind::SPARSE {
            let run = model_run(kind, 51, scale);
            let spade = simulate_on(&SpadeAccelerator::new(cfg), &run);
            for p in &platforms {
                let lat = p.run(&run.trace);
                let speedup = lat.total_ms() / spade.latency_ms;
                let energy_savings = p.energy_mj(&lat) / spade.energy.total_mj();
                let _ = writeln!(
                    s,
                    "{:<6} | {:<5} | {:<9} | {:>6.1}x | {:>9.1}x",
                    cfg_name,
                    kind.name(),
                    p.kind.to_string(),
                    speedup,
                    energy_savings
                );
            }
        }
    }
    s
}

/// Fig. 10: accelerator comparison (area, SRAM, efficiency) and energy savings
/// over the ideal dense accelerator.
#[must_use]
pub fn fig10(scale: WorkloadScale) -> String {
    let mut s = String::from("Fig 10 — hardware comparison and energy savings vs DenseAcc\n");
    for (name, cfg) in [
        ("HE", SpadeConfig::high_end()),
        ("LE", SpadeConfig::low_end()),
    ] {
        let spade_rep = AcceleratorReport::for_spade(&format!("SPADE.{name}"), &cfg);
        let dense_rep = AcceleratorReport::for_dense(&format!("DenseAcc.{name}"), &cfg);
        let run = model_run(ModelKind::Spp2, 61, scale);
        let spade_perf = simulate_on(&SpadeAccelerator::new(cfg), &run);
        let dense_acc: &dyn Accelerator = &DenseAccelerator::new(cfg);
        let dense_ops = run.trace.dense_macs() as f64 * 2.0;
        let _ = writeln!(
            s,
            "{}: area {:.1} mm2 (dense {:.1}, sparsity support {:.1}%), SRAM {} KiB, peak {:.0} GOPS, {:.0} GOPS/mm2, eff GOPS/W {:.0}",
            spade_rep.name,
            spade_rep.total_mm2(),
            dense_rep.total_mm2(),
            spade_rep.sparsity_support_fraction() * 100.0,
            spade_rep.sram_kib,
            spade_rep.peak_gops,
            spade_rep.peak_gops_per_mm2(),
            spade_rep.effective_gops_per_w(&spade_perf, dense_ops),
        );
        for kind in ModelKind::SPARSE {
            let run = model_run(kind, 61, scale);
            let spade_perf = simulate_on(&SpadeAccelerator::new(cfg), &run);
            let dense_perf = simulate_on(dense_acc, &run);
            let speedup = dense_perf.total_cycles as f64 / spade_perf.total_cycles.max(1) as f64;
            let savings = dense_perf.energy.total_pj() / spade_perf.energy.total_pj().max(1e-9);
            let _ = writeln!(
                s,
                "  {} on {}: speedup vs DenseAcc {:.2}x, energy savings {:.2}x (ops savings {:.1}%)",
                spade_rep.name,
                kind.name(),
                speedup,
                savings,
                run.trace.computation_savings() * 100.0
            );
        }
    }
    s
}

/// Fig. 11: latency breakdown vs. platforms, per-sparse-conv-type speedup, and
/// MXU utilisation with and without dataflow optimisation.
#[must_use]
pub fn fig11(scale: WorkloadScale) -> String {
    let mut s = String::from("Fig 11 — latency breakdown and utilisation\n");
    let cfg = SpadeConfig::high_end();
    for kind in [ModelKind::Spp1, ModelKind::Spp2, ModelKind::Spp3] {
        let run = model_run(kind, 71, scale);
        let spade = simulate_on(&SpadeAccelerator::new(cfg), &run);
        let gpu = Platform::new(spade_baselines::PlatformKind::Gpu2080Ti);
        let lat = gpu.run(&run.trace);
        let _ = writeln!(
            s,
            "{}: SPADE.HE {:.2} ms vs 2080Ti {:.2} ms (mapping {:.2} ms)",
            kind.name(),
            spade.latency_ms,
            lat.total_ms(),
            lat.mapping_ms
        );
    }
    // (c)/(d): utilisation per sparse conv type with/without optimisation.
    let run = model_run(ModelKind::Spp2, 71, scale);
    for opts in [
        DataflowOptions::all_disabled(),
        DataflowOptions::all_enabled(),
    ] {
        let acc = SpadeAccelerator::with_options(cfg, opts);
        let mut per_kind: std::collections::BTreeMap<String, (f64, usize)> = Default::default();
        for w in &run.workloads {
            let perf = acc.simulate_layer(w);
            let e = per_kind.entry(w.spec.kind.to_string()).or_insert((0.0, 0));
            e.0 += perf.mxu_utilization(&cfg);
            e.1 += 1;
        }
        let label = if opts.weight_grouping {
            "with opt"
        } else {
            "no opt"
        };
        let _ = write!(s, "MXU utilisation ({label}):");
        for (k, (sum, n)) in per_kind {
            let _ = write!(s, " {k}={:.0}%", sum / n as f64 * 100.0);
        }
        s.push('\n');
    }
    s
}

/// Fig. 12: energy-savings breakdown (compute / SRAM / DRAM) of SPADE vs.
/// DenseAcc for every sparse model.
#[must_use]
pub fn fig12(scale: WorkloadScale) -> String {
    let mut s = String::from("Fig 12 — energy savings breakdown vs DenseAcc (HE)\nmodel | compute | sram | dram | total\n");
    let cfg = SpadeConfig::high_end();
    let dense_acc: &dyn Accelerator = &DenseAccelerator::new(cfg);
    for kind in ModelKind::SPARSE {
        let run = model_run(kind, 81, scale);
        let spade = simulate_on(&SpadeAccelerator::new(cfg), &run);
        let dense = simulate_on(dense_acc, &run);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { f64::INFINITY };
        let _ = writeln!(
            s,
            "{:<5} | {:>6.1}x | {:>5.1}x | {:>5.1}x | {:>5.1}x",
            kind.name(),
            ratio(dense.energy.compute_pj, spade.energy.compute_pj),
            ratio(dense.energy.sram_pj, spade.energy.sram_pj),
            ratio(dense.energy.dram_pj, spade.energy.dram_pj),
            ratio(dense.energy.total_pj(), spade.energy.total_pj()),
        );
    }
    s
}

/// Fig. 13(a): accuracy–sparsity trade-off of dynamic pruning, with and
/// without regularised fine-tuning.
#[must_use]
pub fn fig13(scale: WorkloadScale) -> String {
    let mut s = String::from("Fig 13(a) — accuracy vs computation savings (SPP2 pruning sweep)\nkeep_ratio | savings | mAP (finetuned) | mAP (naive)\n");
    let (base_map, _) = ModelKind::Spp2.baseline_accuracy();
    let (preset, frame) = frame_for(ModelKind::Spp2, 91);
    for keep in [1.0, 0.8, 0.65, 0.5, 0.4, 0.3, 0.2] {
        let mut tuned_cfg = PruningConfig::with_keep_ratio(keep);
        tuned_cfg.finetuned = true;
        let mut naive_cfg = tuned_cfg;
        naive_cfg.finetuned = false;
        let tuned = model_run_on_frame(ModelKind::Spp2, &preset, &frame, 91, scale, tuned_cfg);
        let naive = model_run_on_frame(ModelKind::Spp2, &preset, &frame, 91, scale, naive_cfg);
        let dense = model_run(ModelKind::Pp, 91, scale);
        let savings = 1.0 - tuned.trace.total_macs() as f64 / dense.trace.total_macs() as f64;
        let tuned_map = AccuracyProxy::with_finetuning(base_map)
            .estimate_map(tuned.trace.foreground_coverage.unwrap_or(1.0));
        let naive_map = AccuracyProxy::without_finetuning(base_map)
            .estimate_map(naive.trace.foreground_coverage.unwrap_or(1.0));
        let _ = writeln!(
            s,
            "{:>10.2} | {:>6.1}% | {:>15.2} | {:>11.2}",
            keep,
            savings * 100.0,
            tuned_map,
            naive_map
        );
    }
    s
}

/// Fig. 14 & 15: DRAM access volume and latency of SPADE vs. the PointAcc
/// model on the sparse PointPillars variants.
#[must_use]
pub fn fig14_15(scale: WorkloadScale) -> String {
    let mut s = String::from("Fig 14/15 — SPADE vs PointAcc\nmodel | DRAM ratio (PointAcc/SPADE) | speedup (PointAcc/SPADE cycles)\n");
    let cfg = SpadeConfig::high_end();
    let spade_acc = SpadeAccelerator::new(cfg);
    let pointacc = PointAccModel::new(cfg);
    for kind in [ModelKind::Spp1, ModelKind::Spp2, ModelKind::Spp3] {
        let run = model_run(kind, 101, scale);
        let spade = simulate_on(&spade_acc, &run);
        let pacc = simulate_on(&pointacc, &run);
        let _ = writeln!(
            s,
            "{:<5} | {:>27.2} | {:>31.2}",
            kind.name(),
            pacc.total_dram_bytes as f64 / spade.total_dram_bytes.max(1) as f64,
            pacc.total_cycles as f64 / spade.total_cycles.max(1) as f64
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_runs_at_reduced_scale() {
        for id in all_experiment_ids() {
            let out = run_experiment(id, WorkloadScale::Reduced).unwrap();
            assert!(!out.is_empty(), "{id} produced no output");
        }
        assert!(run_experiment("nonexistent", WorkloadScale::Reduced).is_none());
        assert_eq!(all_experiment_ids().len(), 15);
    }

    #[test]
    fn accelerators_experiment_reports_all_four_models() {
        let out = accelerators(WorkloadScale::Reduced);
        for name in ["SPADE", "DenseAcc", "SpConv2D-Acc", "PointAcc"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }

    #[test]
    fn fig05b_shows_rgu_fastest() {
        let out = fig05b();
        assert!(out.contains("hash/RGU"));
        // Every ratio column should be > 1 (RGU fastest): check one line.
        let line = out.lines().nth(3).unwrap();
        assert!(line.contains('x'));
    }

    #[test]
    fn fig02def_reports_iopr_for_three_models() {
        let out = fig02def(WorkloadScale::Reduced);
        assert!(out.contains("SPP1:"));
        assert!(out.contains("SPP2:"));
        assert!(out.contains("SPP3:"));
    }

    #[test]
    fn fig09_reports_speedups_above_one() {
        let out = fig09(WorkloadScale::Reduced);
        assert!(out.contains("SPP2"));
        assert!(out.contains("Jetson"));
    }
}
