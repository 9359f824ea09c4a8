//! Integration tests of the design-space exploration subsystem: the drive
//! scenario feeding the sweep, determinism of the whole pipeline (serial and
//! parallel), legacy byte-stability (golden CSV + pre-PR frame
//! fingerprints), the scripted persistent scenarios' temporal locality, and
//! the paper-consistency property (SPADE dominating DenseAcc at equal form
//! factor, Fig. 9).

use spade::core::DataflowOptions;
use spade::pointcloud::{
    DatasetPreset, DensityProfile, DriveScenario, DriveScenarioConfig, NamedScenario,
};
use spade_bench::dse::{run_dse, run_dse_on_pool, DseParams, SweepAxes};
use spade_bench::{WorkerPool, WorkloadScale};
use std::collections::BTreeSet;

fn small_params() -> DseParams {
    let mut params = DseParams::default_for(WorkloadScale::Reduced);
    params.axes = SweepAxes {
        pe_dims: vec![(16, 16), (64, 64)],
        sram_scales: vec![0.5, 1.0],
        freq_ghz: vec![1.0],
        dram_bytes_per_cycle: vec![25.6],
        buffer_splits: vec![0.0],
        sram_banks: vec![spade::core::GATHER_SCATTER_LANES],
        dataflow: vec![DataflowOptions::all_enabled()],
    };
    params.num_frames = 3;
    params
}

#[test]
fn dse_sweep_is_deterministic_for_a_seed() {
    let params = small_params();
    let a = run_dse(&params);
    let b = run_dse(&params);
    assert_eq!(a.cells.len(), b.cells.len());
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    // The worker pool reassembles cells in index order, so the full
    // `DseResult` — every cell, the frontier marks, the dominance tally —
    // must be *equal*, not just equivalent, for any worker count.
    let params = small_params();
    let serial = run_dse_on_pool(&params, &WorkerPool::new(1));
    let parallel = run_dse_on_pool(&params, &WorkerPool::new(4));
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_json(), parallel.to_json());
    // More workers than cells degrades gracefully to the same result too.
    let overprovisioned = run_dse_on_pool(&params, &WorkerPool::new(64));
    assert_eq!(serial, overprovisioned);
    // run_dse is the jobs=1 shorthand.
    assert_eq!(serial, run_dse(&params));
}

#[test]
fn dse_covers_the_grid_and_marks_a_frontier() {
    let params = small_params();
    let result = run_dse(&params);
    // 4 configs x 4 accelerator cells (1 SPADE dataflow setting + 3
    // baselines) x 1 workload.
    assert_eq!(result.num_configs, 4);
    assert_eq!(result.cells.len(), 16);
    assert!(result.num_swept_axes >= 2);
    let frontier = result.frontier();
    assert!(!frontier.is_empty());
    assert!(
        frontier.len() < result.cells.len(),
        "everything on frontier"
    );
    // Fig. 9 consistency: SPADE beats the same-form-factor dense design in
    // at least one configuration cell.
    assert!(result.spade_dense_wins >= 1);
}

#[test]
fn dse_export_matches_cell_count() {
    let result = run_dse(&small_params());
    let csv = result.to_csv();
    // Header + one line per cell.
    assert_eq!(csv.lines().count(), result.cells.len() + 1);
    assert!(csv.starts_with("workload,accelerator,design,"));
    let json = result.to_json();
    assert_eq!(
        json.matches("\"workload\"").count(),
        result.cells.len(),
        "one JSON object per cell"
    );
}

#[test]
fn drive_scenario_feeds_distinct_frames_into_the_sweep() {
    let scenario = DriveScenario::new(
        DatasetPreset::kitti_like(),
        DriveScenarioConfig {
            num_frames: 5,
            base_seed: 11,
            profile: DensityProfile::Ramp {
                start: 0.5,
                end: 2.0,
            },
            ..DriveScenarioConfig::default()
        },
    );
    let frames = scenario.frames();
    assert_eq!(frames.len(), 5);
    // Frames differ (the drive moves) and density rises along the ramp.
    assert_ne!(
        frames[0].frame.pillars.active_coords,
        frames[4].frame.pillars.active_coords
    );
    assert!(frames[4].frame.pillars.num_active() > frames[0].frame.pillars.num_active());
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Order-sensitive FNV fingerprint of a frame's active pillar coordinates.
fn coord_fingerprint(frame: &spade::pointcloud::DriveFrame) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in &frame.frame.pillars.active_coords {
        for v in [u64::from(c.row), u64::from(c.col)] {
            h ^= v;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn legacy_frames_match_pre_pr_fingerprints() {
    // Frame generation for Constant/Ramp/Peak drives without events must be
    // byte-identical to the pre-scenario-layer generator. The expected
    // values were captured by running the pre-PR code (`num_points`,
    // `num_active`, coordinate fingerprint per frame at seed 2024).
    type FrameFingerprints = [(usize, usize, u64); 4];
    let expected: [(&str, DensityProfile, FrameFingerprints); 3] = [
        (
            "ramp",
            DensityProfile::Ramp {
                start: 0.5,
                end: 2.0,
            },
            [
                (8239, 6670, 0x8a34_bb9f_a465_5e2c),
                (10855, 6829, 0x1e58_0ff7_aba8_48d2),
                (12892, 7392, 0xfe5e_c63a_1479_5965),
                (14201, 8123, 0xc0ef_fb4a_ea2e_868a),
            ],
        ),
        (
            "constant",
            DensityProfile::Constant,
            [
                (9881, 7157, 0xe406_ef59_95eb_37e3),
                (10855, 6829, 0x1e58_0ff7_aba8_48d2),
                (9792, 6758, 0xd6b8_c557_5368_df8f),
                (12099, 7307, 0x0321_7755_d702_5a53),
            ],
        ),
        (
            "peak",
            DensityProfile::Peak {
                base: 1.0,
                peak: 2.0,
            },
            [
                (9881, 7157, 0xe406_ef59_95eb_37e3),
                (13049, 7456, 0xbda7_35e8_9c17_df2c),
                (13106, 7507, 0x6331_4822_6155_f50f),
                (12099, 7307, 0x0321_7755_d702_5a53),
            ],
        ),
    ];
    for (name, profile, frames_expected) in expected {
        let scenario = DriveScenario::new(
            DatasetPreset::kitti_like(),
            DriveScenarioConfig {
                num_frames: 4,
                base_seed: 2024,
                profile,
                ..DriveScenarioConfig::default()
            },
        );
        for (f, (points, active, fp)) in scenario.frames().iter().zip(frames_expected) {
            assert_eq!(f.frame.num_points, points, "{name} frame {}", f.index);
            assert_eq!(
                f.frame.pillars.num_active(),
                active,
                "{name} frame {}",
                f.index
            );
            assert_eq!(coord_fingerprint(f), fp, "{name} frame {}", f.index);
        }
    }
}

#[test]
fn legacy_dse_csv_matches_committed_golden() {
    // The full legacy sweep pipeline (i.i.d. Ramp drive, no scenario) is
    // pinned byte-for-byte to a committed golden CSV, so neither the
    // scenario machinery nor future refactors can silently perturb legacy
    // output. The golden reflects one deliberate post-capture change vs. the
    // literal pre-PR bytes: model runs now derive their RNG from a stream
    // decorrelated from frame generation (the `model_seed` bugfix), which
    // shifts the pruning noise and therefore the mean metric columns; frame
    // generation itself is pinned to pre-PR bytes by
    // `legacy_frames_match_pre_pr_fingerprints`, and the grid structure to
    // the pre-PR CSV by `legacy_dse_grid_structure_matches_pre_pr`.
    let csv = run_dse(&small_params()).to_csv();
    let golden = std::fs::read_to_string(golden_path("dse_legacy_reduced.csv"))
        .expect("tests/golden/dse_legacy_reduced.csv is committed");
    assert_eq!(csv, golden, "legacy DSE CSV drifted from the golden file");
}

#[test]
fn legacy_dse_grid_structure_matches_pre_pr() {
    // Identity columns (workload, accelerator, design point, hardware axes)
    // of the legacy sweep, compared against the CSV captured from the
    // pre-PR code: the scenario layer must not add, drop, reorder, or
    // relabel any cell of a legacy sweep.
    let golden = std::fs::read_to_string(golden_path("dse_legacy_pre_pr.csv"))
        .expect("tests/golden/dse_legacy_pre_pr.csv is committed");
    let result = run_dse(&small_params());
    let csv = result.to_csv();
    let identity = |line: &str| {
        line.split(',')
            .take(9) // workload..dataflow — everything value-independent
            .collect::<Vec<_>>()
            .join(",")
    };
    let ours: Vec<String> = csv.lines().map(identity).collect();
    let pre_pr: Vec<String> = golden.lines().map(identity).collect();
    assert_eq!(ours, pre_pr, "legacy grid structure drifted from pre-PR");
}

#[test]
fn scripted_scenario_raises_temporal_locality_over_iid_baseline() {
    // The acceptance bar of the scenario layer: a persistent scripted drive
    // shows mean consecutive-frame active-pillar overlap >= 0.5, while the
    // legacy i.i.d. drive sits far below it, and the metric reaches the CSV
    // as the `mean_pillar_overlap` column.
    let mut params = small_params();
    params.scenario = Some(NamedScenario::StopAndGo);
    let scripted = run_dse(&params);
    params.scenario = Some(NamedScenario::Constant);
    let baseline = run_dse(&params);
    let overlap_of = |r: &spade_bench::dse::DseResult| {
        let v = r.cells[0].mean_pillar_overlap;
        assert!(r.cells.iter().all(|c| c.mean_pillar_overlap == v));
        v
    };
    let scripted_overlap = overlap_of(&scripted);
    let baseline_overlap = overlap_of(&baseline);
    assert!(
        scripted_overlap >= 0.5,
        "persistent drive overlap {scripted_overlap} below 0.5"
    );
    assert!(
        scripted_overlap > baseline_overlap + 0.2,
        "scripted {scripted_overlap} should clearly beat i.i.d. {baseline_overlap}"
    );
    let header = scripted.to_csv().lines().next().unwrap().to_owned();
    assert!(header.contains("mean_pillar_overlap"));
    assert!(scripted.summary().contains("temporal locality"));
}

#[test]
fn scripted_scenario_sweep_is_deterministic_and_parallel_safe() {
    // Persistent drives are generated sequentially inside the sweep, so the
    // whole result must stay bit-identical for any worker count, like the
    // legacy path.
    let mut params = small_params();
    params.scenario = Some(NamedScenario::Tunnel);
    let serial = run_dse_on_pool(&params, &WorkerPool::new(1));
    let parallel = run_dse_on_pool(&params, &WorkerPool::new(4));
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_csv(), run_dse(&params).to_csv());
}

#[test]
fn delta_sweep_simulates_the_same_cells_as_the_full_sweep() {
    // The delta path changes how the per-frame workloads are computed —
    // never what they contain — so every simulated metric of every cell must
    // be identical with delta on and off; only the delta bookkeeping columns
    // may differ.
    for scenario in [NamedScenario::StopAndGo, NamedScenario::Urban] {
        let mut params = small_params();
        params.scenario = Some(scenario);
        let full = run_dse(&params);
        params.delta = true;
        let delta = run_dse(&params);
        assert_eq!(full.cells.len(), delta.cells.len());
        for (f, d) in full.cells.iter().zip(&delta.cells) {
            let mut d_masked = d.clone();
            d_masked.frames_delta_executed = f.frames_delta_executed;
            d_masked.delta_speedup = f.delta_speedup;
            assert_eq!(*f, d_masked, "{scenario}: cell metrics drifted");
        }
        // A temporally coherent drive actually exercises the delta path and
        // wins: at least one frame patches (frame 0 always full-sweeps, and
        // an eventful transition may trip the fallback threshold), and fewer
        // rows are swept than a from-scratch run would walk.
        assert!(
            delta.delta_stats.frames_delta >= 1
                && delta.delta_stats.frames_delta < delta.delta_stats.frames_total,
            "{scenario}: delta stats {:?}",
            delta.delta_stats
        );
        assert!(
            delta.cells[0].delta_speedup > 1.0,
            "{scenario}: modelled speedup {} not > 1",
            delta.cells[0].delta_speedup
        );
        assert!(delta.cells[0].frames_delta_executed > 0);
        // The bookkeeping columns appear only on delta runs, so legacy
        // exports stay byte-identical.
        let delta_header = delta.to_csv().lines().next().unwrap().to_owned();
        assert!(delta_header.contains("frames_delta_executed"));
        assert!(delta_header.contains("delta_speedup"));
        // Extension columns only append to the golden legacy header, once each.
        let legacy_header = include_str!("golden/dse_legacy_reduced.csv").lines().next();
        assert!(
            delta_header.starts_with(&format!("{},", legacy_header.unwrap())),
            "{delta_header}"
        );
        let columns: Vec<&str> = delta_header.split(',').collect();
        let unique: BTreeSet<&str> = columns.iter().copied().collect();
        assert_eq!(
            unique.len(),
            columns.len(),
            "duplicate column: {delta_header}"
        );
        let full_header = full.to_csv().lines().next().unwrap().to_owned();
        assert!(!full_header.contains("delta"));
        assert!(delta.summary().contains("delta execution"));
    }
}

#[test]
fn delta_sweep_is_bit_identical_across_worker_counts() {
    // Delta drives run stage 1 sequentially per model, but the design-point
    // fan-out still parallelises — the whole result must stay bit-identical
    // for any worker count, like the full-sweep path.
    let mut params = small_params();
    params.scenario = Some(NamedScenario::StopAndGo);
    params.delta = true;
    let serial = run_dse_on_pool(&params, &WorkerPool::new(1));
    let parallel = run_dse_on_pool(&params, &WorkerPool::new(4));
    assert_eq!(serial, parallel);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_json(), parallel.to_json());
}

#[test]
fn per_frame_delta_runs_match_full_runs_exactly() {
    // Below the sweep: model_run_on_frame_delta must reproduce
    // model_run_on_frame byte-for-byte on every frame of a scripted drive.
    use spade::nn::{DeltaPolicy, FrameDeltaState, ModelKind, PruningConfig};
    use spade_bench::workload::{model_run_on_frame, model_run_on_frame_delta};

    let preset = DatasetPreset::kitti_like();
    let cfg = NamedScenario::StopAndGo.config(5, 2024);
    let scenario = DriveScenario::new(preset.clone(), cfg.clone());
    let mut state = FrameDeltaState::new(DeltaPolicy::default());
    for f in &scenario.frames() {
        let seed = cfg.pruning_seed(f.index);
        let full = model_run_on_frame(
            ModelKind::Spp2,
            &preset,
            &f.frame,
            seed,
            WorkloadScale::Reduced,
            PruningConfig::default(),
        );
        let delta = model_run_on_frame_delta(
            ModelKind::Spp2,
            &preset,
            &f.frame,
            seed,
            WorkloadScale::Reduced,
            PruningConfig::default(),
            &mut state,
        );
        assert_eq!(full.trace, delta.trace, "frame {}", f.index);
        assert_eq!(full.workloads, delta.workloads, "frame {}", f.index);
        assert_eq!(full.encoder_macs, delta.encoder_macs, "frame {}", f.index);
    }
    let stats = state.stats();
    assert_eq!(stats.frames_total, 5);
    assert!(stats.frames_delta >= 3, "stats: {stats:?}");
    assert!(stats.rows_swept < stats.rows_full_equivalent);
}

#[test]
fn delta_stats_match_the_committed_golden() {
    // Every `DeltaStats` counter of the delta path, per named scenario and
    // sparse zoo model, over a 5-frame reduced-scale drive (seed 1), pinned
    // exactly: which frames take the delta path, which layers count as
    // reused, patched or full, and how many rows a patched layer re-sweeps.
    use spade::nn::{DeltaPolicy, FrameDeltaState, ModelKind, PruningConfig};
    use spade_bench::workload::model_run_on_frame_delta;
    use std::fmt::Write;

    let preset = DatasetPreset::kitti_like();
    let mut actual = String::new();
    for scenario in NamedScenario::ALL {
        let cfg = scenario.config(5, 1);
        let frames = DriveScenario::new(preset.clone(), cfg.clone()).frames();
        for model in ModelKind::SPARSE {
            let mut state = FrameDeltaState::new(DeltaPolicy::default());
            for f in &frames {
                let _ = model_run_on_frame_delta(
                    model,
                    &preset,
                    &f.frame,
                    cfg.pruning_seed(f.index),
                    WorkloadScale::Reduced,
                    PruningConfig::default(),
                    &mut state,
                );
            }
            let s = state.stats();
            writeln!(
                actual,
                "{scenario} {model} {} {} {} {} {} {} {}",
                s.frames_total,
                s.frames_delta,
                s.layers_reused,
                s.layers_patched,
                s.layers_full,
                s.rows_full_equivalent,
                s.rows_swept
            )
            .unwrap();
        }
    }
    let golden = std::fs::read_to_string(golden_path("delta_stats.txt"))
        .expect("tests/golden/delta_stats.txt is committed");
    let expected: String = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        actual == expected,
        "delta counters drifted from tests/golden/delta_stats.txt; now:\n{actual}"
    );
}

#[test]
fn denser_traffic_narrows_spades_win() {
    // Run the sparse model on the sparse and dense ends of the drive via the
    // sweep machinery: the SPADE-vs-DenseAcc latency gap should be wider on
    // the sparse (early) frame than on the dense (late) frame, which is why
    // single-frame evaluation misstates the benefit over a whole drive.
    use spade::baselines::DenseAccelerator;
    use spade::core::{SpadeAccelerator, SpadeConfig};
    use spade::nn::{ModelKind, PruningConfig};
    use spade_bench::workload::{model_run_on_frame, simulate_on};

    let preset = DatasetPreset::kitti_like();
    let scenario = DriveScenario::new(
        preset.clone(),
        DriveScenarioConfig {
            num_frames: 5,
            base_seed: 2024,
            profile: DensityProfile::Ramp {
                start: 0.5,
                end: 2.0,
            },
            ..DriveScenarioConfig::default()
        },
    );
    let frames = scenario.frames();
    let cfg = SpadeConfig::high_end();
    let spade = SpadeAccelerator::new(cfg);
    let dense = DenseAccelerator::new(cfg);
    let gap_at = |idx: usize| {
        let run = model_run_on_frame(
            ModelKind::Spp3,
            &preset,
            &frames[idx].frame,
            idx as u64,
            WorkloadScale::Reduced,
            PruningConfig::default(),
        );
        simulate_on(&dense, &run).latency_ms / simulate_on(&spade, &run).latency_ms
    };
    let sparse_gap = gap_at(0);
    let dense_gap = gap_at(4);
    assert!(sparse_gap > 1.0 && dense_gap > 1.0);
    assert!(
        sparse_gap > dense_gap,
        "speedup should shrink as occupancy grows: sparse {sparse_gap:.2}x vs dense {dense_gap:.2}x"
    );
}
