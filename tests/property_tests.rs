//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spade::nn::graph::{execute_pattern, ExecutionContext, LayerInput, NetworkLayer};
use spade::nn::pruning::importance_noise;
use spade::nn::rulegen::delta::changed_fraction;
use spade::nn::rulegen::{self, RuleGenMethod};
use spade::nn::{
    ConvKind, DeltaPolicy, DeltaStats, ExecutionArena, FrameDeltaState, KernelShape, LayerSpec,
    NetworkSpec, PruningConfig, VectorPruner,
};
use spade::pointcloud::{
    DatasetPreset, DriveScenario, NamedScenario, PersistentWorld, SceneConfig, WorldObject,
    WorldStep,
};
use spade::tensor::{CprTensor, GridShape, PillarCoord};
use std::collections::BTreeSet;

fn arb_coords(max: usize) -> impl Strategy<Value = Vec<PillarCoord>> {
    prop::collection::vec(
        (0u32..24, 0u32..24).prop_map(|(r, c)| PillarCoord::new(r, c)),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CPR construction from arbitrary coordinates always satisfies the
    /// format invariants and preserves the deduplicated coordinate set.
    #[test]
    fn cpr_invariants_hold(coords in arb_coords(80)) {
        let grid = GridShape::new(24, 24);
        let t = CprTensor::from_coords(grid, 4, &coords);
        prop_assert!(t.check_invariants());
        let mut expected: Vec<PillarCoord> = coords.clone();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(t.coords(), expected);
    }

    /// Dense round trip preserves the sparse tensor exactly.
    #[test]
    fn dense_round_trip(coords in arb_coords(60)) {
        let grid = GridShape::new(24, 24);
        let t = CprTensor::from_coords(grid, 3, &coords);
        prop_assert_eq!(t.to_dense().to_cpr(), t);
    }

    /// All three rule-generation algorithms agree on outputs and rule counts
    /// for every sparse convolution kind.
    #[test]
    fn rulegen_algorithms_agree(coords in arb_coords(40)) {
        let grid = GridShape::new(24, 24);
        let t = CprTensor::from_coords(grid, 1, &coords);
        for kind in [ConvKind::SpConv, ConvKind::SpConvS, ConvKind::SpStConv] {
            prop_assert!(spade::nn::rulegen::hash::equivalent_to_streaming(&t, kind, KernelShape::k3x3()));
            prop_assert!(spade::nn::rulegen::sort::equivalent_to_streaming(&t, kind, KernelShape::k3x3()));
        }
        prop_assert!(spade::nn::rulegen::hash::equivalent_to_streaming(&t, ConvKind::SpDeconv, KernelShape::k2x2()));
    }

    /// The fused streaming pass is pinned to the hash-table and merge-sort
    /// reference generators for every convolution kind and kernel shape the
    /// zoo uses: the rule books must be *identical* (same outputs, same
    /// per-tap rule sequences).
    #[test]
    fn fused_streaming_is_pinned_to_reference_generators(coords in arb_coords(48)) {
        let grid = GridShape::new(24, 24);
        let t = CprTensor::from_coords(grid, 1, &coords);
        let cases = [
            (ConvKind::SpConv, KernelShape::k3x3()),
            (ConvKind::SpConvS, KernelShape::k3x3()),
            (ConvKind::SpConvP, KernelShape::k3x3()),
            (ConvKind::SpStConv, KernelShape::k3x3()),
            (ConvKind::SpDeconv, KernelShape::k2x2()),
            (ConvKind::Dense, KernelShape::k3x3()),
            (ConvKind::SpConv, KernelShape::k1x1()),
            (ConvKind::SpConvS, KernelShape::k1x1()),
            (ConvKind::SpStConv, KernelShape::k1x1()),
        ];
        for (kind, kernel) in cases {
            let fused = spade::nn::rulegen::streaming::generate(&t, kind, kernel);
            let hashed = spade::nn::rulegen::hash::generate(&t, kind, kernel);
            let sorted = spade::nn::rulegen::sort::generate(&t, kind, kernel);
            prop_assert_eq!(&fused, &hashed, "hash mismatch for {} {:?}", kind, kernel);
            prop_assert_eq!(&fused, &sorted, "sort mismatch for {} {:?}", kind, kernel);
            prop_assert!(fused.check_monotone(), "monotonicity lost for {} {:?}", kind, kernel);
        }
    }

    /// Submanifold convolution never changes the active set; standard sparse
    /// convolution never shrinks it; and the streaming rule book stays
    /// monotone (the property SPADE's hardware depends on).
    #[test]
    fn sparse_conv_active_set_properties(coords in arb_coords(40)) {
        let grid = GridShape::new(24, 24);
        let t = CprTensor::from_coords(grid, 1, &coords);
        let sub = rulegen::generate_rules(&t, ConvKind::SpConvS, KernelShape::k3x3());
        prop_assert_eq!(sub.output_coords(), t.coords());
        let book = rulegen::generate_rules(&t, ConvKind::SpConv, KernelShape::k3x3());
        prop_assert!(book.num_outputs() >= t.num_active());
        prop_assert!(book.check_monotone());
    }

    /// The sparse functional convolution matches the dense reference at every
    /// grid position for random sparse inputs.
    #[test]
    fn spconv_matches_dense_reference(coords in arb_coords(12)) {
        let grid = GridShape::new(10, 10);
        let t = CprTensor::from_coords(grid, 2, &coords);
        let layer = LayerSpec::new("p", ConvKind::SpConv, 2, 2);
        let w = layer.seeded_weights(3);
        let sparse = layer.execute(&t, &w, false).to_dense();
        let dense = spade::nn::conv::dense_conv2d_reference(&t.to_dense(), &w, false);
        for ch in 0..2 {
            for r in 0..10 {
                for c in 0..10 {
                    let a = sparse.get(ch, r, c);
                    let b = dense.get(ch, r, c);
                    prop_assert!((a - b).abs() < 1e-3, "mismatch at ({}, {}, {})", ch, r, c);
                }
            }
        }
    }

    /// The streaming RGU cost model is never slower than the hash-table or
    /// merge-sort models on dilating workloads.
    #[test]
    fn rgu_cost_is_minimal(pillars in 100usize..50_000) {
        let outputs = pillars * 2;
        let rules = pillars * 9;
        let rgu = RuleGenMethod::StreamingRgu.cost(pillars, outputs, rules).cycles;
        let hash = RuleGenMethod::HashTable.cost(pillars, outputs, rules).cycles;
        let sort = RuleGenMethod::MergeSort.cost(pillars, outputs, rules).cycles;
        prop_assert!(rgu <= hash);
        prop_assert!(rgu <= sort);
    }

    /// Persistent-world objects never teleport: between consecutive frames a
    /// surviving object's displacement is bounded by its class's maximum
    /// speed times the frame interval, under arbitrary target-count
    /// sequences (spawning, thinning, and emptying included) and arbitrary
    /// speed multipliers.
    #[test]
    fn persistent_world_objects_never_teleport(
        (seed, targets) in (0u64..100_000, prop::collection::vec((0usize..26, 0u8..=2), 3..9))
    ) {
        let dt = 0.1;
        let mut world = PersistentWorld::new(SceneConfig::kitti_like(), dt);
        let mut prev: Vec<WorldObject> = Vec::new();
        for (i, &(target, speed_tier)) in targets.iter().enumerate() {
            let speed_multiplier = f64::from(speed_tier) / 2.0; // 0, 0.5, 1
            world.step(&WorldStep {
                target_count: target,
                speed_multiplier,
                crossing_spawns: usize::from(i % 3 == 0),
                seed: seed.wrapping_add(i as u64),
            });
            for o in world.objects() {
                if let Some(p) = prev.iter().find(|p| p.id == o.id) {
                    let dx = o.object.bbox.cx - p.object.bbox.cx;
                    let dy = o.object.bbox.cy - p.object.bbox.cy;
                    let bound = o.object.class.max_speed_mps() * dt * speed_multiplier;
                    prop_assert!(
                        (dx * dx + dy * dy).sqrt() <= bound + 1e-9,
                        "object {} moved {} > {}", o.id, (dx * dx + dy * dy).sqrt(), bound
                    );
                }
            }
            prev = world.objects().to_vec();
        }
    }
}

/// The Top-K selection `VectorPruner::keep_indices` replaced: a full stable
/// sort by descending score, then the first `keep` indices in CPR order.
fn stable_sort_keep_indices(config: PruningConfig, scores: &[f64]) -> Vec<usize> {
    let n = scores.len();
    if n == 0 {
        return Vec::new();
    }
    let keep = ((config.keep_ratio * n as f64).ceil() as usize)
        .max(config.min_keep)
        .min(n);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut kept: Vec<usize> = order.into_iter().take(keep).collect();
    kept.sort_unstable();
    kept
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The importance model's inlined noise is bit-for-bit the first
    /// `gen_range` draw of a `StdRng` seeded per coordinate, at both noise
    /// scales (fine-tuned 0.2, naive 1.5).
    #[test]
    fn importance_noise_is_the_first_std_rng_draw(
        (seed, row, col) in (0u64..u64::MAX, 0u32..u32::MAX, 0u32..u32::MAX)
    ) {
        for scale in [0.2, 1.5] {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (u64::from(row) << 32) ^ u64::from(col));
            let expected: f64 = rng.gen_range(0.0..scale);
            prop_assert_eq!(
                importance_noise(seed, row, col, scale).to_bits(),
                expected.to_bits(),
                "seed {} row {} col {} scale {}", seed, row, col, scale
            );
        }
    }

    /// Top-K selection keeps exactly the set the stable sort kept, under
    /// heavy ties (at most four distinct scores, signed zeros included) and
    /// with the `min_keep` floor above, at and below the input size.
    #[test]
    fn keep_indices_matches_the_stable_sort(
        (picks, palette, ratio_milli, (floor_mode, floor_offset)) in (
            prop::collection::vec(0usize..4, 0..300),
            (0usize..6, 0usize..6, 0usize..6, 0usize..6),
            1u32..=1000,
            (0u32..3, 0usize..40),
        )
    ) {
        const VALUES: [f64; 6] = [-0.0, 0.0, 0.2, 1.5, 3.0, 3.2];
        let palette = [palette.0, palette.1, palette.2, palette.3].map(|i| VALUES[i]);
        let scores: Vec<f64> = picks.iter().map(|&i| palette[i]).collect();
        let n = scores.len();
        let min_keep = match floor_mode {
            0 => n + 1 + floor_offset,
            1 => n,
            _ => n.saturating_sub(1 + floor_offset),
        };
        let config = PruningConfig {
            keep_ratio: f64::from(ratio_milli) / 1000.0,
            min_keep,
            finetuned: true,
        };
        prop_assert_eq!(
            VectorPruner::new(config).keep_indices(&scores),
            stable_sort_keep_indices(config, &scores)
        );
    }
}

proptest! {
    // Drive-level properties regenerate whole frames (LiDAR sampling +
    // pillarisation), so they run a handful of seeds rather than the
    // default case count.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same seed reproduces an identical drive, for both the legacy
    /// i.i.d. mode and the persistent scripted scenarios.
    #[test]
    fn same_seed_gives_identical_drives(seed in 0u64..100_000) {
        for scenario in [NamedScenario::Constant, NamedScenario::StopAndGo] {
            let build = || DriveScenario::named(DatasetPreset::kitti_like(), scenario, 4, seed);
            let (a, b) = (build().frames(), build().frames());
            prop_assert_eq!(a.len(), b.len());
            for (fa, fb) in a.iter().zip(&b) {
                prop_assert_eq!(fa.frame.num_points, fb.frame.num_points);
                prop_assert_eq!(
                    &fa.frame.pillars.active_coords,
                    &fb.frame.pillars.active_coords
                );
                prop_assert_eq!(fa.pillar_overlap, fb.pillar_overlap);
            }
        }
    }

    /// Consecutive-frame active-pillar overlap is high for persistent
    /// scenarios (the temporal locality the scenario layer exists to
    /// create) and near the i.i.d. baseline for legacy `Constant` drives.
    #[test]
    fn persistent_drives_have_temporal_locality_iid_drives_do_not(seed in 0u64..100_000) {
        let persistent = DriveScenario::named(
            DatasetPreset::kitti_like(), NamedScenario::Urban, 4, seed);
        let iid = DriveScenario::named(
            DatasetPreset::kitti_like(), NamedScenario::Constant, 4, seed);
        let persistent_overlap = DriveScenario::mean_overlap_of(&persistent.frames());
        let iid_overlap = DriveScenario::mean_overlap_of(&iid.frames());
        prop_assert!(persistent_overlap >= 0.5, "persistent {persistent_overlap}");
        prop_assert!(iid_overlap < 0.2, "i.i.d. baseline {iid_overlap}");
    }

    /// Row soundness of the delta accounting on real drive data. Over
    /// consecutive frames of every named scenario, for every convolution
    /// kind and kernel the zoo uses, every output row of layer 0 whose
    /// coordinates or rule count differ between the two frames (per row,
    /// from `rulegen::generate_rules`) must be reached by a changed input
    /// row — have a rule from it on a fully active grid — and the delta
    /// path must count exactly the output rows those changed input rows
    /// reach as re-swept. Every frame after the first also runs the
    /// two-layer network (layer 0 plus its probe) through the delta path
    /// and matches the plain path.
    #[test]
    fn delta_patching_matches_full_sweeps_on_every_named_scenario(seed in 0u64..100_000) {
        // Downsample the BEV coordinates 8x so a whole scenario sweep of
        // 9 kind/kernel cases stays fast while preserving the drive's
        // change structure (moved pillars, appearing/vanishing rows).
        let base = DatasetPreset::kitti_like().grid_shape();
        let grid = GridShape::new(base.height / 8, base.width / 8);
        let networks = one_layer_networks();
        let reaches: Vec<_> = networks
            .iter()
            .map(|spec| rows_reached(grid, spec.layers[0].spec.kind, spec.layers[0].spec.kernel))
            .collect();
        for scenario in NamedScenario::ALL {
            let drive = DriveScenario::named(DatasetPreset::kitti_like(), scenario, 3, seed);
            let frames: Vec<Vec<PillarCoord>> = drive
                .frames()
                .iter()
                .map(|f| {
                    let mut coords: Vec<PillarCoord> = f
                        .frame
                        .pillars
                        .active_coords
                        .iter()
                        .map(|c| PillarCoord::new(c.row / 8, c.col / 8))
                        .collect();
                    coords.sort_unstable();
                    coords.dedup();
                    coords
                })
                .collect();
            for (spec, reach) in networks.iter().zip(&reaches) {
                let stats = delta_matches_plain(spec, grid, &frames, DeltaPolicy { threshold: 2.0 });
                prop_assert_eq!(
                    stats.frames_delta, stats.frames_total - 1,
                    "{}: a frame of {} fell back", scenario, spec.name
                );
                let l0 = &spec.layers[0].spec;
                if l0.kind == ConvKind::Dense {
                    continue;
                }
                let layer0 = NetworkSpec { layers: spec.layers[..1].to_vec(), ..spec.clone() };
                for pair in frames.windows(2) {
                    let (prev, next) = (&pair[0], &pair[1]);
                    let row = |coords: &[PillarCoord], r: u32| -> Vec<PillarCoord> {
                        coords.iter().copied().filter(|c| c.row == r).collect()
                    };
                    let reached: BTreeSet<u32> = (0..grid.height)
                        .filter(|&r| row(prev, r) != row(next, r))
                        .flat_map(|r| reach[r as usize].iter().copied())
                        .collect();
                    let before = output_rows(prev, grid, l0.kind, l0.kernel);
                    let after = output_rows(next, grid, l0.kind, l0.kernel);
                    let changed: Vec<u32> = (0u32..)
                        .zip(before.iter().zip(&after))
                        .filter(|(_, (a, b))| a != b)
                        .map(|(o, _)| o)
                        .collect();
                    prop_assert!(
                        changed.iter().all(|o| reached.contains(o)),
                        "{}: {}: output rows {:?} changed, changed input rows reach {:?}",
                        scenario, spec.name, changed, reached
                    );
                    prop_assert_eq!(
                        rows_counted(&layer0, grid, prev, next),
                        reached.len() as u64,
                        "{}: {} counted other rows than the changed input rows reach",
                        scenario, spec.name
                    );
                }
            }
        }
    }
}

/// Each output row of a `kind`/`kernel` layer on `coords`: its output
/// coordinates and its rule count, read off the rule book.
fn output_rows(
    coords: &[PillarCoord],
    grid: GridShape,
    kind: ConvKind,
    kernel: KernelShape,
) -> Vec<(Vec<PillarCoord>, usize)> {
    let book = rulegen::generate_rules(
        &CprTensor::from_sorted_coords(grid, 1, coords),
        kind,
        kernel,
    );
    let outputs = book.output_coords();
    let mut rows = vec![(Vec::new(), 0); rulegen::output_grid(grid, kind).height as usize];
    for &c in outputs {
        rows[c.row as usize].0.push(c);
    }
    for tap in 0..book.num_taps() {
        for rule in book.rules_for_tap(tap) {
            rows[outputs[rule.output].row as usize].1 += 1;
        }
    }
    rows
}

/// For each input row of a `kind`/`kernel` layer, the output rows that
/// have a rule from it when every cell of `grid` is active.
fn rows_reached(grid: GridShape, kind: ConvKind, kernel: KernelShape) -> Vec<BTreeSet<u32>> {
    let cells = grid.all_cells();
    let book = rulegen::generate_rules(
        &CprTensor::from_sorted_coords(grid, 1, &cells),
        kind,
        kernel,
    );
    let mut reach = vec![BTreeSet::new(); grid.height as usize];
    for tap in 0..book.num_taps() {
        for rule in book.rules_for_tap(tap) {
            reach[cells[rule.input].row as usize].insert(book.output_coords()[rule.output].row);
        }
    }
    reach
}

/// The rows the delta path counts as re-swept when `next` follows `prev`
/// through a fresh state that admits any change.
fn rows_counted(
    spec: &NetworkSpec,
    grid: GridShape,
    prev: &[PillarCoord],
    next: &[PillarCoord],
) -> u64 {
    let ctx = ExecutionContext::default();
    let mut arena = ExecutionArena::new();
    let mut state = FrameDeltaState::new(DeltaPolicy { threshold: 2.0 });
    for coords in [prev, next] {
        let _ = execute_pattern(spec, coords, grid, 0, &ctx, &mut arena, Some(&mut state));
    }
    let stats = state.stats();
    assert_eq!(
        stats.frames_delta, 1,
        "{}: the second frame takes the delta path",
        spec.name
    );
    stats.rows_swept - stats.rows_full_equivalent / 2
}

/// The (kind, kernel) cases the zoo uses, each as a one-layer network
/// followed by a 3×3 submanifold probe that reads layer 0. Workloads carry
/// only counts, so the probe's rule count — a function of which neighbours
/// are active — is what makes a count-preserving coordinate error in layer
/// 0's output set visible to the delta-vs-plain comparison.
fn one_layer_networks() -> Vec<NetworkSpec> {
    [
        (ConvKind::SpConv, KernelShape::k3x3()),
        (ConvKind::SpConvS, KernelShape::k3x3()),
        (ConvKind::SpConvP, KernelShape::k3x3()),
        (ConvKind::SpStConv, KernelShape::k3x3()),
        (ConvKind::SpDeconv, KernelShape::k2x2()),
        (ConvKind::Dense, KernelShape::k3x3()),
        (ConvKind::SpConv, KernelShape::k1x1()),
        (ConvKind::SpConvS, KernelShape::k1x1()),
        (ConvKind::SpStConv, KernelShape::k1x1()),
    ]
    .into_iter()
    .map(|(kind, kernel)| NetworkSpec {
        name: format!("{kind} {kernel:?}"),
        encoder_channels: 1,
        layers: vec![
            NetworkLayer {
                spec: LayerSpec::with_kernel("l0", kind, 1, 1, kernel),
                input: LayerInput::Previous,
                stage: 1,
                densify_input: false,
            },
            NetworkLayer {
                spec: LayerSpec::new("probe", ConvKind::SpConvS, 1, 1),
                input: LayerInput::Layer(0),
                stage: 1,
                densify_input: false,
            },
        ],
    })
    .collect()
}

/// Executes `frames` in order through one delta state, asserts that every
/// frame's trace and workloads equal the plain path's, and returns the
/// state's counters.
fn delta_matches_plain(
    spec: &NetworkSpec,
    grid: GridShape,
    frames: &[Vec<PillarCoord>],
    policy: DeltaPolicy,
) -> DeltaStats {
    let ctx = ExecutionContext::default();
    let mut delta_arena = ExecutionArena::new();
    let mut plain_arena = ExecutionArena::new();
    let mut state = FrameDeltaState::new(policy);
    for (i, coords) in frames.iter().enumerate() {
        let delta = execute_pattern(
            spec,
            coords,
            grid,
            0,
            &ctx,
            &mut delta_arena,
            Some(&mut state),
        );
        let plain = execute_pattern(spec, coords, grid, 0, &ctx, &mut plain_arena, None);
        assert_eq!(delta, plain, "{}: frame {i} drifted", spec.name);
    }
    state.stats()
}

#[test]
fn delta_fallback_boundaries_are_exact() {
    // The fallback decision is inclusive at the threshold and conservative at
    // the extremes — and whichever path runs, every frame matches the plain
    // path. The first frame of a state never takes the delta path.
    let grid = GridShape::new(24, 24);
    let coords_of = |cells: &[(u32, u32)]| -> Vec<PillarCoord> {
        cells.iter().map(|&(r, c)| PillarCoord::new(r, c)).collect()
    };
    // 4 shared + 1 changed coordinate: |symdiff| = 2, max size = 5, so the
    // changed fraction is exactly 0.4 — at a 0.4 threshold the delta path
    // must still run (the policy is inclusive).
    let prev = coords_of(&[(2, 2), (2, 3), (5, 5), (9, 1), (12, 7)]);
    let next = coords_of(&[(2, 2), (2, 3), (5, 5), (9, 1), (20, 20)]);
    assert_eq!(changed_fraction(&prev, &next), 0.4);
    let empty = Vec::new();
    let moved = coords_of(&[(15, 15), (16, 16), (17, 17), (18, 18), (19, 19)]);
    // A threshold of 2.0 admits any change: disjoint, emptied, refilled and
    // unchanged frames all take the delta path.
    let any = DeltaPolicy { threshold: 2.0 };
    let cases = [
        (&prev, &next, DeltaPolicy { threshold: 0.4 }, 1),
        (&prev, &next, DeltaPolicy { threshold: 0.39 }, 0),
        // An empty next frame (fraction 1.0) and a fully changed frame
        // (fraction 2.0) both force the full-sweep fallback by default.
        (&prev, &empty, DeltaPolicy::default(), 0),
        (&prev, &moved, DeltaPolicy::default(), 0),
        (&prev, &moved, any, 1),
        (&prev, &empty, any, 1),
        (&empty, &prev, any, 1),
        (&empty, &empty, any, 1),
        (&prev, &prev, any, 1),
    ];
    for spec in &one_layer_networks() {
        for (a, b, policy, patched) in cases {
            let stats = delta_matches_plain(spec, grid, &[a.clone(), b.clone()], policy);
            assert_eq!(
                (stats.frames_total, stats.frames_delta),
                (2, patched),
                "{} at threshold {}",
                spec.name,
                policy.threshold
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-protocol properties (PR 7): the spade-serve request encoding must
// round-trip every expressible sweep exactly, and the service cache key
// must not care how the client ordered (or duplicated) its axes.

mod protocol_props {
    use super::*;
    use spade::core::DataflowOptions;
    use spade::nn::ModelKind;
    use spade::pointcloud::DensityProfile;
    use spade_bench::dse::{DseParams, SweepAxes};
    use spade_bench::protocol::{cache_key, canonicalize_params, decode_params, encode_params};
    use spade_bench::WorkloadScale;

    /// A tiny deterministic stream (splitmix64) that expands one seed into a
    /// whole `DseParams` — the vendored proptest stub only samples scalar
    /// ranges, so structured values are derived from a sampled seed.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Positive grid-step float: k/16 for k in 1..=64 (round-trips are
        /// exact for *any* finite f64; the grid just keeps values readable).
        fn step(&mut self) -> f64 {
            (self.below(64) + 1) as f64 / 16.0
        }

        fn vec<T>(&mut self, max_len: u64, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let n = self.below(max_len) + 1;
            (0..n).map(|_| f(self)).collect()
        }
    }

    fn params_from_seed(seed: u64) -> DseParams {
        let mut s = Stream(seed);
        let axes = SweepAxes {
            pe_dims: s.vec(3, |s| {
                ((s.below(96) + 1) as usize, (s.below(96) + 1) as usize)
            }),
            sram_scales: s.vec(3, Stream::step),
            freq_ghz: s.vec(3, Stream::step),
            dram_bytes_per_cycle: s.vec(3, Stream::step),
            buffer_splits: s.vec(3, |s| s.below(10) as f64 / 10.0),
            sram_banks: s.vec(3, |s| (s.below(16) + 1) as u32),
            dataflow: s.vec(3, |s| {
                let mask = s.below(8);
                DataflowOptions {
                    weight_grouping: mask & 1 != 0,
                    ganged_scatter: mask & 2 != 0,
                    adaptive_tiling: mask & 4 != 0,
                }
            }),
        };
        let models = s.vec(3, |s| ModelKind::ALL[s.below(11) as usize]);
        let profile = match s.below(3) {
            0 => DensityProfile::Constant,
            1 => DensityProfile::Ramp {
                start: s.step(),
                end: s.step(),
            },
            _ => DensityProfile::Peak {
                base: s.step(),
                peak: s.step(),
            },
        };
        let scenario = {
            let all = spade::pointcloud::NamedScenario::ALL;
            match s.below(all.len() as u64 + 1) {
                0 => None,
                k => Some(all[(k - 1) as usize]),
            }
        };
        DseParams {
            scale: if s.below(2) == 0 {
                WorkloadScale::Full
            } else {
                WorkloadScale::Reduced
            },
            axes,
            models,
            num_frames: (s.below(5) + 1) as usize,
            base_seed: s.next(),
            profile,
            scenario,
            delta: s.below(2) == 0,
            adaptive: s.below(2) == 0,
        }
    }

    /// Rotates and (optionally) reverses every axis: a pure reordering that
    /// must not change what the sweep means.
    fn reorder(params: &DseParams, rot: usize, rev: bool) -> DseParams {
        fn scramble<T>(v: &mut [T], rot: usize, rev: bool) {
            if v.is_empty() {
                return;
            }
            let k = rot % v.len();
            v.rotate_left(k);
            if rev {
                v.reverse();
            }
        }
        let mut out = params.clone();
        scramble(&mut out.models, rot, rev);
        scramble(&mut out.axes.pe_dims, rot, rev);
        scramble(&mut out.axes.sram_scales, rot, rev);
        scramble(&mut out.axes.freq_ghz, rot, rev);
        scramble(&mut out.axes.dram_bytes_per_cycle, rot, rev);
        scramble(&mut out.axes.buffer_splits, rot, rev);
        scramble(&mut out.axes.sram_banks, rot, rev);
        scramble(&mut out.axes.dataflow, rot, rev);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Arbitrary params encode → decode to the identical value: the wire
        /// form loses nothing (floats travel via shortest-round-trip
        /// formatting, so fractional values survive exactly).
        #[test]
        fn params_encode_decode_is_the_identity(seed in 0u64..u64::MAX) {
            let params = params_from_seed(seed);
            let encoded = encode_params(&params);
            let decoded = decode_params(&encoded).expect("decode of own encoding");
            prop_assert_eq!(decoded, params);
        }

        /// Params differing only in axis order — or in duplicated axis
        /// values, which the sweep ignores — canonicalize to the same cache
        /// key and the same executable form, so the server answers every
        /// spelling of a sweep with one cached, byte-identical result.
        #[test]
        fn cache_key_ignores_axis_order_and_duplicates(seed in 0u64..u64::MAX) {
            let params = params_from_seed(seed);
            let rot = (seed >> 7) as usize % 8;
            let rev = seed & 1 == 1;
            let reordered = reorder(&params, rot, rev);
            prop_assert_eq!(cache_key(&params), cache_key(&reordered));
            prop_assert_eq!(
                canonicalize_params(&params),
                canonicalize_params(&reordered)
            );
            // Duplicating an axis value changes the encoding but not the key.
            let mut duplicated = params.clone();
            duplicated.models.push(duplicated.models[0]);
            duplicated.axes.sram_scales.push(duplicated.axes.sram_scales[0]);
            duplicated.axes.pe_dims.push(duplicated.axes.pe_dims[0]);
            assert_ne!(encode_params(&params), encode_params(&duplicated));
            prop_assert_eq!(cache_key(&params), cache_key(&duplicated));
            // Canonicalisation is idempotent: a canonical form is its own key.
            let canonical = canonicalize_params(&params);
            prop_assert_eq!(encode_params(&canonical), cache_key(&params));
        }
    }
}
