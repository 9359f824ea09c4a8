//! Dynamic vector pruning (SpConv-P).
//!
//! The paper trains models with vector-sparsity regularisation so that the
//! channel magnitude of unimportant background pillars is driven towards zero,
//! then fine-tunes with Top-K pruning per layer so a fixed sparsity target can
//! be met at inference time. Here the *inference-time* mechanism is
//! reproduced exactly (Top-K selection on importance scores, never dropping
//! below a floor), and the *training-time* effect is modelled by an
//! importance function that scores foreground pillars (those inside or near a
//! ground-truth box) higher than background pillars — which is precisely what
//! the regularised training achieves.

use serde::{Deserialize, Serialize};
use spade_pointcloud::pillarize::PillarizationConfig;
use spade_pointcloud::Scene;
use spade_tensor::{GridShape, PillarCoord};

/// Configuration of the dynamic vector pruner.
///
/// # Example
///
/// ```
/// use spade_nn::PruningConfig;
/// let cfg = PruningConfig::default();
/// assert!(cfg.keep_ratio > 0.0 && cfg.keep_ratio <= 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruningConfig {
    /// Fraction of the dilated output pillars to keep (Top-K ratio).
    pub keep_ratio: f64,
    /// Never prune below this many pillars.
    pub min_keep: usize,
    /// Whether the importance model reflects regularised fine-tuning
    /// (foreground-aware) or naive magnitude pruning.
    pub finetuned: bool,
}

impl Default for PruningConfig {
    fn default() -> Self {
        Self {
            keep_ratio: 0.55,
            min_keep: 64,
            finetuned: true,
        }
    }
}

impl PruningConfig {
    /// A configuration with an explicit keep ratio.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep_ratio <= 1`.
    #[must_use]
    pub fn with_keep_ratio(keep_ratio: f64) -> Self {
        assert!(
            keep_ratio > 0.0 && keep_ratio <= 1.0,
            "keep_ratio must be in (0, 1], got {keep_ratio}"
        );
        Self {
            keep_ratio,
            ..Self::default()
        }
    }
}

/// The dynamic vector pruner: Top-K selection over importance scores.
#[derive(Debug, Clone, Copy, Default)]
pub struct VectorPruner {
    config: PruningConfig,
}

impl VectorPruner {
    /// Creates a pruner with the given configuration.
    #[must_use]
    pub const fn new(config: PruningConfig) -> Self {
        Self { config }
    }

    /// The pruner's configuration.
    #[must_use]
    pub const fn config(&self) -> PruningConfig {
        self.config
    }

    /// Selects the indices (into `scores`) of the pillars to keep.
    ///
    /// Keeps `max(min_keep, ceil(keep_ratio * n))` pillars with the highest
    /// scores; ties at the cut go to the lowest indices, as a stable sort by
    /// descending score would order them. Returned indices are sorted
    /// ascending, so selecting them from a CPR-ordered set keeps CPR order.
    ///
    /// Scores must be finite and non-negative (importance scores are);
    /// `-0.0` ties with `0.0`. On such scores the IEEE bit pattern orders
    /// like the value, so the cut is a selection over plain `u64` keys.
    #[must_use]
    pub fn keep_indices(&self, scores: &[f64]) -> Vec<usize> {
        debug_assert!(
            scores.iter().all(|s| s.is_finite() && *s >= 0.0),
            "keep_indices scores must be finite and non-negative"
        );
        let n = scores.len();
        let keep = ((self.config.keep_ratio * n as f64).ceil() as usize)
            .max(self.config.min_keep)
            .min(n);
        if keep == n {
            return (0..n).collect();
        }
        if keep == 0 {
            return Vec::new();
        }
        // `+ 0.0` turns `-0.0` into `0.0`, so equal scores get equal keys.
        let key = |s: f64| (s + 0.0).to_bits();
        let mut keys: Vec<u64> = scores.iter().map(|&s| key(s)).collect();
        let (above, &mut cut, _) = keys.select_nth_unstable_by(keep - 1, |a, b| b.cmp(a));
        // Everything above the cut is kept; the rest of the quota goes to
        // the lowest-indexed scores equal to it.
        let mut ties = keep - above.iter().filter(|&&k| k > cut).count();
        let mut kept = Vec::with_capacity(keep);
        for (i, &s) in scores.iter().enumerate() {
            let k = key(s);
            if k > cut || (k == cut && ties > 0) {
                ties -= usize::from(k == cut);
                kept.push(i);
            }
        }
        kept
    }
}

/// Deterministic importance noise of one coordinate, uniform in
/// `[0, scale)`: a pure function of `(seed, row, col, scale)`.
///
/// It is the first draw of the workspace's `StdRng` (xoshiro256++ seeded by
/// splitmix64) seeded with `seed ^ (row << 32) ^ col`, computed directly:
/// that draw reads only splitmix64 outputs 1 and 4 (the generator's first
/// and last state words) and one xoshiro256++ output step, so the other two
/// state words and the generator itself are never built.
#[must_use]
pub fn importance_noise(seed: u64, row: u32, col: u32, scale: f64) -> f64 {
    let key = seed ^ (u64::from(row) << 32) ^ u64::from(col);
    let splitmix = |i: u64| {
        let mut z = key.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let (s0, s3) = (splitmix(1), splitmix(4));
    let bits = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
    let unit = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let v = scale * unit;
    // Rounding can land on the excluded end bound; the half-open range
    // nudges it back in, as the generator's `gen_range` does.
    if v >= scale {
        scale.next_down().max(0.0)
    } else {
        v
    }
}

/// Cell class of the importance model. Classes are ordered so that the
/// strongest claim on a cell wins when objects overlap.
const BACKGROUND: u8 = 0;
const NEAR: u8 = 1;
const FOREGROUND: u8 = 2;

/// Cell-centre geometry of a grid at some downsample factor of the
/// pillarisation grid.
struct CellGeometry {
    grid: GridShape,
    sx: f64,
    sy: f64,
    x0: f64,
    y0: f64,
}

/// One object's reach on a grid: the rows and columns whose cell centres
/// its box or its near radius can touch, and the object's class tests with
/// the box rotation hoisted out of the cell loop.
struct ObjectReach {
    rows: std::ops::RangeInclusive<u32>,
    cols: std::ops::RangeInclusive<u32>,
    cx: f64,
    cy: f64,
    r: f64,
    sin: f64,
    cos: f64,
    half_l: f64,
    half_w: f64,
}

impl CellGeometry {
    fn new(pillar_cfg: &PillarizationConfig, grid: GridShape, downsample: u32) -> Self {
        Self {
            grid,
            sx: pillar_cfg.pillar_size_x * f64::from(downsample),
            sy: pillar_cfg.pillar_size_y * f64::from(downsample),
            x0: pillar_cfg.x_range.0,
            y0: pillar_cfg.y_range.0,
        }
    }

    /// X of row `row`'s cell centres.
    fn x(&self, row: u32) -> f64 {
        self.x0 + (f64::from(row) + 0.5) * self.sx
    }

    /// Y of column `col`'s cell centres.
    fn y(&self, col: u32) -> f64 {
        self.y0 + (f64::from(col) + 0.5) * self.sy
    }

    /// Every object's reach on this grid, in scene order.
    ///
    /// A cell can only be foreground (centre inside a box) or near (centre
    /// within `max(length, width)` of an object centre) if it lies within
    /// that radius of the object: a box-contained centre is within
    /// `hypot(l, w) / 2` of it. The ranges are conservative and cropped to
    /// the grid.
    fn reaches<'s>(&'s self, scene: &'s Scene) -> impl Iterator<Item = ObjectReach> + 's {
        // Conservative cell range covering [centre - reach, centre + reach]
        // along one axis (cell centres sit at origin + (i + 0.5) * step).
        let cell_range = |centre: f64, reach: f64, origin: f64, step: f64, len: u32| {
            let lo = ((centre - reach - origin) / step - 1.5).floor().max(0.0) as u32;
            let hi = ((centre + reach - origin) / step + 0.5)
                .ceil()
                .min(f64::from(len) - 1.0);
            let (lo, hi) = if hi < 0.0 {
                (1, 0) // empty range
            } else {
                (lo, (hi as u32).min(len.saturating_sub(1)))
            };
            lo..=hi
        };
        scene.objects().iter().map(move |obj| {
            let b = &obj.bbox;
            let r = b.length.max(b.width);
            let (sin, cos) = b.yaw.sin_cos();
            ObjectReach {
                rows: cell_range(b.cx, r, self.x0, self.sx, self.grid.height),
                cols: cell_range(b.cy, r, self.y0, self.sy, self.grid.width),
                cx: b.cx,
                cy: b.cy,
                r,
                sin,
                cos,
                half_l: b.length / 2.0 + 1e-12,
                half_w: b.width / 2.0 + 1e-12,
            }
        })
    }
}

impl ObjectReach {
    /// The class this object claims for a cell centre at offset `(dx, dy)`
    /// from its centre: `BoundingBox3::contains_bev` and the near test, in
    /// the same expressions, so the same classes.
    fn class(&self, dx: f64, dy: f64) -> u8 {
        let lx = dx * self.cos + dy * self.sin;
        let ly = -dx * self.sin + dy * self.cos;
        if lx.abs() <= self.half_l && ly.abs() <= self.half_w {
            FOREGROUND
        } else if (dx * dx + dy * dy).sqrt() < self.r {
            NEAR
        } else {
            BACKGROUND
        }
    }
}

/// An importance model for pattern-level pruning: scores each BEV coordinate
/// by its proximity to ground-truth objects, emulating the magnitude profile
/// a regularised, fine-tuned model produces.
#[derive(Debug, Clone)]
pub struct ImportanceModel {
    /// The grid the classes are laid out on (row-major).
    grid: GridShape,
    /// One class byte per cell of `grid`.
    classes: Vec<u8>,
    noise_seed: u64,
    finetuned: bool,
}

impl ImportanceModel {
    /// Builds the importance model for a scene at a given BEV resolution.
    ///
    /// `downsample` is the stride factor between the base pillarisation grid
    /// and the grid the scores are requested at (1 for stage 1, 2 for stage 2,
    /// and so on).
    ///
    /// Cells are rasterised object by object rather than by scanning the
    /// whole grid against every object: only the cells inside each object's
    /// reach are tested — the resulting classes are identical to a full-grid
    /// scan at a fraction of the cost. Cells outside `grid` are background.
    ///
    /// Known defect: objects are placed from the pillarisation range's
    /// origin, so on a grid cropped from inside the base grid (reduced-scale
    /// runs crop one) the foreground lands on the wrong cells.
    #[must_use]
    pub fn for_scene(
        scene: &Scene,
        pillar_cfg: &PillarizationConfig,
        grid: GridShape,
        downsample: u32,
        noise_seed: u64,
        finetuned: bool,
    ) -> Self {
        let mut classes = vec![BACKGROUND; grid.num_cells()];
        let geometry = CellGeometry::new(pillar_cfg, grid, downsample);
        for obj in geometry.reaches(scene) {
            for row in obj.rows.clone() {
                let dx = geometry.x(row) - obj.cx;
                let cells = &mut classes[row as usize * grid.width as usize..];
                for col in obj.cols.clone() {
                    // A cell inside one object's box but merely near another
                    // is foreground, exactly as in the per-cell scan.
                    let cell = &mut cells[col as usize];
                    *cell = (*cell).max(obj.class(dx, geometry.y(col) - obj.cy));
                }
            }
        }
        Self {
            grid,
            classes,
            noise_seed,
            finetuned,
        }
    }

    /// Whether any of `coords` is foreground at the base resolution — what
    /// `for_scene(scene, pillar_cfg, grid, 1, ..)` answers through
    /// [`Self::is_foreground`] for some coordinate — without rasterising the
    /// grid: each object's reach is looked up in `coords`, stopping at the
    /// first foreground hit.
    ///
    /// `coords` must be in CPR order (sorted, as [`PillarCoord`] orders).
    #[must_use]
    pub fn any_foreground(
        scene: &Scene,
        pillar_cfg: &PillarizationConfig,
        grid: GridShape,
        coords: &[PillarCoord],
    ) -> bool {
        debug_assert!(coords.windows(2).all(|w| w[0] <= w[1]), "CPR order");
        let geometry = CellGeometry::new(pillar_cfg, grid, 1);
        let mut reaches = geometry.reaches(scene);
        reaches.any(|obj| {
            obj.rows.clone().any(|row| {
                let dx = geometry.x(row) - obj.cx;
                let start =
                    coords.partition_point(|&c| c < PillarCoord::new(row, *obj.cols.start()));
                coords[start..]
                    .iter()
                    .take_while(|c| c.row == row && c.col <= *obj.cols.end())
                    .any(|c| obj.class(dx, geometry.y(c.col) - obj.cy) == FOREGROUND)
            })
        })
    }

    /// The class of a cell; cells outside the model's grid are background.
    fn class(&self, c: PillarCoord) -> u8 {
        if c.in_bounds(self.grid) {
            self.classes[c.row as usize * self.grid.width as usize + c.col as usize]
        } else {
            BACKGROUND
        }
    }

    /// Scores a list of coordinates: foreground ≫ near-object ≫ background,
    /// with deterministic per-coordinate noise ([`importance_noise`]). A
    /// model without fine-tuning has much noisier scores, so pruning removes
    /// foreground evidence sooner.
    ///
    /// Returns the scores and, for each coordinate, whether it is foreground
    /// (what [`Self::is_foreground`] answers), from the same class lookup.
    #[must_use]
    pub fn scores(&self, coords: &[PillarCoord]) -> (Vec<f64>, Vec<bool>) {
        let noise_scale = if self.finetuned { 0.2 } else { 1.5 };
        coords
            .iter()
            .map(|&c| {
                let class = self.class(c);
                let base = match class {
                    FOREGROUND => 3.0,
                    NEAR => 1.5,
                    _ => 0.2,
                };
                let noise = importance_noise(self.noise_seed, c.row, c.col, noise_scale);
                (base + noise, class == FOREGROUND)
            })
            .unzip()
    }

    /// Number of foreground (in-box) cells at this resolution.
    #[must_use]
    pub fn num_foreground_cells(&self) -> usize {
        self.classes.iter().filter(|&&c| c == FOREGROUND).count()
    }

    /// Returns `true` if the coordinate lies inside a ground-truth box.
    #[must_use]
    pub fn is_foreground(&self, coord: PillarCoord) -> bool {
        self.class(coord) == FOREGROUND
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_pointcloud::{ObjectClass, SceneConfig, SceneObject};

    #[test]
    fn keep_indices_respects_ratio_and_floor() {
        let pruner = VectorPruner::new(PruningConfig {
            keep_ratio: 0.5,
            min_keep: 2,
            finetuned: true,
        });
        let scores: Vec<f64> = (0..10).map(f64::from).collect();
        let kept = pruner.keep_indices(&scores);
        assert_eq!(kept.len(), 5);
        // Highest-scoring indices are 5..10.
        assert_eq!(kept, vec![5, 6, 7, 8, 9]);
        // Floor applies for tiny inputs.
        let kept = pruner.keep_indices(&[1.0, 2.0, 3.0]);
        assert_eq!(kept.len(), 2);
        assert!(pruner.keep_indices(&[]).is_empty());
    }

    #[test]
    fn keep_indices_are_sorted_for_cpr_select() {
        let pruner = VectorPruner::new(PruningConfig::with_keep_ratio(0.4));
        let scores = vec![0.1, 5.0, 0.2, 4.0, 3.0, 0.3, 2.0, 1.0, 0.5, 0.6];
        let kept = pruner.keep_indices(&scores);
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "keep_ratio")]
    fn zero_keep_ratio_is_rejected() {
        let _ = PruningConfig::with_keep_ratio(0.0);
    }

    #[test]
    fn importance_prefers_foreground() {
        let cfg = PillarizationConfig::kitti_like();
        let scene = spade_pointcloud::Scene::from_objects(
            SceneConfig::kitti_like(),
            vec![SceneObject::at(ObjectClass::Car, 20.0, 0.0, 0.0)],
        );
        let grid = cfg.grid_shape();
        let model = ImportanceModel::for_scene(&scene, &cfg, grid, 1, 7, true);
        assert!(model.num_foreground_cells() > 0);
        // A pillar at the car centre scores higher than one far away.
        let car_coord = cfg
            .coord_of(&spade_pointcloud::Point3::new(20.0, 0.0, 0.0))
            .unwrap();
        let far_coord = cfg
            .coord_of(&spade_pointcloud::Point3::new(60.0, 30.0, 0.0))
            .unwrap();
        let (scores, foreground) = model.scores(&[car_coord, far_coord]);
        assert_eq!(foreground, [true, false]);
        assert!(scores[0] > scores[1]);
        assert!(model.is_foreground(car_coord));
        assert!(!model.is_foreground(far_coord));
    }

    #[test]
    fn importance_raster_matches_a_per_cell_scan() {
        // Overlapping boxes at several yaws, one straddling the grid's top
        // edge, so foreground, near and background cells all meet.
        let objects = vec![
            SceneObject::at(ObjectClass::Car, 20.0, 0.0, 0.0),
            SceneObject::at(ObjectClass::Truck, 21.5, 1.5, 0.6),
            SceneObject::at(ObjectClass::Cyclist, 19.0, -1.2, -1.1),
            SceneObject::at(ObjectClass::Pedestrian, 20.4, 0.8, 2.5),
            SceneObject::at(ObjectClass::Car, 45.0, 12.0, std::f64::consts::FRAC_PI_2),
            SceneObject::at(ObjectClass::Truck, 0.5, -20.0, 3.0),
        ];
        let scene = spade_pointcloud::Scene::from_objects(SceneConfig::kitti_like(), objects);
        let cfg = PillarizationConfig::kitti_like();
        for downsample in [1, 2, 4] {
            let grid = cfg.grid_shape().downsample(downsample);
            let model = ImportanceModel::for_scene(&scene, &cfg, grid, downsample, 7, true);
            let sx = cfg.pillar_size_x * f64::from(downsample);
            let sy = cfg.pillar_size_y * f64::from(downsample);
            let scan: Vec<u8> = grid
                .all_cells()
                .into_iter()
                .map(|c| {
                    let x = cfg.x_range.0 + (f64::from(c.row) + 0.5) * sx;
                    let y = cfg.y_range.0 + (f64::from(c.col) + 0.5) * sy;
                    let boxes = scene.objects().iter().map(|o| &o.bbox);
                    if boxes.clone().any(|b| b.contains_bev(x, y)) {
                        FOREGROUND
                    } else if boxes.into_iter().any(|b| {
                        let (dx, dy) = (x - b.cx, y - b.cy);
                        (dx * dx + dy * dy).sqrt() < b.length.max(b.width)
                    }) {
                        NEAR
                    } else {
                        BACKGROUND
                    }
                })
                .collect();
            assert_eq!(model.classes, scan, "downsample {downsample}");
            assert!(scan.contains(&FOREGROUND) && scan.contains(&NEAR));
        }
    }

    #[test]
    fn any_foreground_matches_the_base_raster() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use spade_pointcloud::SceneGenerator;
        let cfg = PillarizationConfig::kitti_like();
        let base = cfg.grid_shape();
        let (mut hits, mut misses) = (0, 0);
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let scene = SceneGenerator::new(SceneConfig::kitti_like(), seed).generate();
            // The whole grid, and crops anchored at the origin as small as a
            // few cells (objects placed beyond a crop's edge fall outside).
            let grid = if seed % 4 == 0 {
                base
            } else {
                GridShape::new(
                    rng.gen_range(1..=base.height),
                    rng.gen_range(1..=base.width),
                )
            };
            let raster = ImportanceModel::for_scene(&scene, &cfg, grid, 1, 0, true);
            for _ in 0..8 {
                let n = rng.gen_range(0..400usize);
                let mut coords: Vec<PillarCoord> = (0..n)
                    .map(|_| {
                        PillarCoord::new(
                            rng.gen_range(0..grid.height),
                            rng.gen_range(0..grid.width),
                        )
                    })
                    .collect();
                // Seed some coordinates on foreground cells so hits occur.
                if rng.gen_bool(0.5) {
                    let fg = grid
                        .all_cells()
                        .into_iter()
                        .filter(|&c| raster.is_foreground(c));
                    coords.extend(fg.step_by(rng.gen_range(1..50usize)).take(3));
                }
                coords.sort_unstable();
                coords.dedup();
                let expected = coords.iter().any(|&c| raster.is_foreground(c));
                let actual = ImportanceModel::any_foreground(&scene, &cfg, grid, &coords);
                assert_eq!(actual, expected, "seed {seed}, grid {grid:?}, {coords:?}");
                if expected {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        assert!(hits > 20 && misses > 20, "{hits} hits, {misses} misses");
    }

    #[test]
    fn finetuned_importance_is_less_noisy() {
        let cfg = PillarizationConfig::kitti_like();
        let scene = spade_pointcloud::Scene::from_objects(
            SceneConfig::kitti_like(),
            vec![SceneObject::at(ObjectClass::Car, 20.0, 0.0, 0.0)],
        );
        let grid = cfg.grid_shape();
        let tuned = ImportanceModel::for_scene(&scene, &cfg, grid, 1, 7, true);
        let naive = ImportanceModel::for_scene(&scene, &cfg, grid, 1, 7, false);
        // Score a batch of background coordinates; the naive model's spread is larger.
        let coords: Vec<PillarCoord> = (0..50).map(|i| PillarCoord::new(400, i)).collect();
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread(&naive.scores(&coords).0) > spread(&tuned.scores(&coords).0));
    }
}
