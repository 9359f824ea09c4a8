//! Scene composition: object placement and ground-truth generation.

use crate::geometry::Point3;
use crate::lidar::{self, LidarConfig};
use crate::object::{ObjectClass, SceneObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic scene generator.
///
/// The defaults approximate a KITTI-like urban frame: ~10–30 agents inside a
/// forward-facing detection range, placed on a road corridor so that active
/// pillars cluster the way real LiDAR frames do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneConfig {
    /// Detection range along X: `[x_min, x_max)` metres.
    pub x_range: (f64, f64),
    /// Detection range along Y: `[y_min, y_max)` metres.
    pub y_range: (f64, f64),
    /// Minimum number of objects per scene.
    pub min_objects: usize,
    /// Maximum number of objects per scene.
    pub max_objects: usize,
    /// Probability weights over `[car, pedestrian, cyclist, truck]`.
    pub class_weights: [f64; 4],
    /// Minimum BEV centre distance between two placed objects (m).
    pub min_separation: f64,
}

impl SceneConfig {
    /// A KITTI-like forward-facing configuration (0–70 m × ±40 m).
    #[must_use]
    pub fn kitti_like() -> Self {
        Self {
            x_range: (0.0, 69.12),
            y_range: (-39.68, 39.68),
            min_objects: 8,
            max_objects: 24,
            class_weights: [0.55, 0.25, 0.15, 0.05],
            min_separation: 2.5,
        }
    }

    /// A nuScenes-like full-surround configuration (±51.2 m in both axes).
    #[must_use]
    pub fn nuscenes_like() -> Self {
        Self {
            x_range: (-51.2, 51.2),
            y_range: (-51.2, 51.2),
            min_objects: 20,
            max_objects: 50,
            class_weights: [0.45, 0.25, 0.10, 0.20],
            min_separation: 2.5,
        }
    }

    /// Samples an object class from `class_weights` (one `gen_range` draw).
    ///
    /// Shared by the i.i.d. [`SceneGenerator`] and the persistent
    /// [`crate::world::PersistentWorld`], so the two drive modes keep an
    /// identical class mix.
    pub(crate) fn sample_class(&self, rng: &mut StdRng) -> ObjectClass {
        let total: f64 = self.class_weights.iter().sum();
        let mut x = rng.gen_range(0.0..total);
        for (i, w) in self.class_weights.iter().enumerate() {
            if x < *w {
                return ObjectClass::ALL[i];
            }
            x -= w;
        }
        ObjectClass::Car
    }

    /// Draws a y position, biased towards a road corridor around y = 0 for
    /// half of the samples so pillars cluster like a driving scene (one
    /// `gen_bool` plus one `gen_range` draw). The corridor clamp keeps the
    /// half-open `y < y_max` contract even when the range is narrower than
    /// the corridor (`next_down`, not the `- EPSILON` no-op it replaces).
    pub(crate) fn corridor_biased_y(&self, rng: &mut StdRng) -> f64 {
        if rng.gen_bool(0.5) {
            rng.gen_range(-8.0f64..8.0)
                .clamp(self.y_range.0, self.y_range.1.next_down())
        } else {
            rng.gen_range(self.y_range.0..self.y_range.1)
        }
    }

    /// Whether a candidate centre at `(x, y)` clears `min_separation` from
    /// every centre in `others`.
    pub(crate) fn clears_separation(
        &self,
        others: impl Iterator<Item = (f64, f64)>,
        x: f64,
        y: f64,
    ) -> bool {
        let mut others = others;
        !others.any(|(ox, oy)| {
            let (dx, dy) = (ox - x, oy - y);
            (dx * dx + dy * dy).sqrt() < self.min_separation
        })
    }
}

impl Default for SceneConfig {
    fn default() -> Self {
        Self::kitti_like()
    }
}

/// A composed scene: the placed objects (ground truth) and the detection
/// range they live in.
///
/// # Example
///
/// ```
/// use spade_pointcloud::{SceneConfig, SceneGenerator};
/// let mut gen = SceneGenerator::new(SceneConfig::kitti_like(), 7);
/// let scene = gen.generate();
/// assert!(scene.objects().len() >= 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scene {
    config: SceneConfig,
    objects: Vec<SceneObject>,
}

impl Scene {
    /// Creates a scene from explicit objects (useful for targeted tests).
    #[must_use]
    pub fn from_objects(config: SceneConfig, objects: Vec<SceneObject>) -> Self {
        Self { config, objects }
    }

    /// The scene's configuration (detection range etc.).
    #[must_use]
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// The ground-truth objects.
    #[must_use]
    pub fn objects(&self) -> &[SceneObject] {
        &self.objects
    }

    /// Samples a LiDAR-style point cloud from this scene.
    ///
    /// Deterministic for a given `(scene, config, seed)` triple.
    #[must_use]
    pub fn sample_lidar(&self, lidar: &LidarConfig, seed: u64) -> Vec<Point3> {
        lidar::sample_scene(self, lidar, seed)
    }
}

/// Seeded generator of random scenes.
#[derive(Debug, Clone)]
pub struct SceneGenerator {
    config: SceneConfig,
    rng: StdRng,
}

impl SceneGenerator {
    /// Creates a generator with the given configuration and seed.
    #[must_use]
    pub fn new(config: SceneConfig, seed: u64) -> Self {
        Self {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates the next random scene.
    pub fn generate(&mut self) -> Scene {
        let n = self
            .rng
            .gen_range(self.config.min_objects..=self.config.max_objects);
        let mut objects: Vec<SceneObject> = Vec::with_capacity(n);
        let mut attempts = 0;
        while objects.len() < n && attempts < n * 50 {
            attempts += 1;
            let class = self.config.sample_class(&mut self.rng);
            let x = self
                .rng
                .gen_range(self.config.x_range.0..self.config.x_range.1);
            let y = self.config.corridor_biased_y(&mut self.rng);
            let yaw = self
                .rng
                .gen_range(-std::f64::consts::PI..std::f64::consts::PI);
            let candidate = SceneObject::at(class, x, y, yaw);
            if self.config.clears_separation(
                objects.iter().map(|o| (o.bbox.cx, o.bbox.cy)),
                candidate.bbox.cx,
                candidate.bbox.cy,
            ) {
                objects.push(candidate);
            }
        }
        Scene {
            config: self.config.clone(),
            objects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let cfg = SceneConfig::kitti_like();
        let a = SceneGenerator::new(cfg.clone(), 123).generate();
        let b = SceneGenerator::new(cfg, 123).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_scenes() {
        let cfg = SceneConfig::kitti_like();
        let a = SceneGenerator::new(cfg.clone(), 1).generate();
        let b = SceneGenerator::new(cfg, 2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn objects_respect_range_and_count() {
        let cfg = SceneConfig::kitti_like();
        let scene = SceneGenerator::new(cfg.clone(), 9).generate();
        assert!(scene.objects().len() >= cfg.min_objects);
        assert!(scene.objects().len() <= cfg.max_objects);
        for o in scene.objects() {
            assert!(o.bbox.cx >= cfg.x_range.0 && o.bbox.cx < cfg.x_range.1);
            assert!(o.bbox.cy >= cfg.y_range.0 && o.bbox.cy < cfg.y_range.1);
        }
    }

    #[test]
    fn objects_respect_min_separation() {
        let cfg = SceneConfig::kitti_like();
        let scene = SceneGenerator::new(cfg.clone(), 11).generate();
        let objs = scene.objects();
        for i in 0..objs.len() {
            for j in (i + 1)..objs.len() {
                let dx = objs[i].bbox.cx - objs[j].bbox.cx;
                let dy = objs[i].bbox.cy - objs[j].bbox.cy;
                assert!((dx * dx + dy * dy).sqrt() >= cfg.min_separation);
            }
        }
    }

    #[test]
    fn nuscenes_config_allows_negative_x() {
        let cfg = SceneConfig::nuscenes_like();
        let mut generator = SceneGenerator::new(cfg, 3);
        assert!((0..5)
            .flat_map(|_| generator.generate().objects)
            .any(|o| o.bbox.cx < 0.0));
    }

    #[test]
    fn from_objects_preserves_input() {
        let obj = SceneObject::at(ObjectClass::Car, 10.0, 0.0, 0.0);
        let scene = Scene::from_objects(SceneConfig::kitti_like(), vec![obj]);
        assert_eq!(scene.objects().len(), 1);
        assert_eq!(scene.objects()[0], obj);
    }
}
