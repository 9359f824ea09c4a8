//! LiDAR-style point sampling from a scene.
//!
//! Real LiDAR frames contain three kinds of returns that matter for pillar
//! occupancy statistics: (1) dense clusters of points on object surfaces,
//! (2) a broad carpet of ground returns whose density falls with range, and
//! (3) sparse clutter (vegetation, poles, walls). The sampler reproduces all
//! three so that the active-pillar count and clustering match the few-percent
//! occupancy the paper reports for KITTI/nuScenes.
//!
//! Every sampler draws into a [`PointSink`]. Frame generation passes a
//! [`crate::PillarCounter`], which bins each point as it is drawn, so no
//! point vector is built; [`sample_scene`] is the `Vec` wrapper for
//! callers that want the points themselves.

use crate::geometry::Point3;
use crate::scene::Scene;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// LiDAR sampling configuration.
///
/// # Example
///
/// ```
/// use spade_pointcloud::LidarConfig;
/// let cfg = LidarConfig::kitti_like();
/// assert!(cfg.ground_points > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LidarConfig {
    /// Number of ground-return points to scatter over the detection range.
    pub ground_points: usize,
    /// Number of clutter points (walls, poles, vegetation).
    pub clutter_points: usize,
    /// Number of clutter clusters the clutter points are grouped into.
    pub clutter_clusters: usize,
    /// Scale factor on per-object surface point counts.
    pub object_density_scale: f64,
    /// Range (m) beyond which object point counts fall off quadratically.
    pub reference_range: f64,
    /// Gaussian noise applied to each point coordinate (metres, std dev).
    pub position_noise: f64,
}

impl LidarConfig {
    /// A KITTI-like (64-beam, forward-facing crop) configuration.
    #[must_use]
    pub fn kitti_like() -> Self {
        Self {
            ground_points: 14_000,
            clutter_points: 4_000,
            clutter_clusters: 40,
            object_density_scale: 1.0,
            reference_range: 10.0,
            position_noise: 0.02,
        }
    }

    /// A nuScenes-like (32-beam, full-surround) configuration: fewer points
    /// over a larger area, hence sparser pillars.
    #[must_use]
    pub fn nuscenes_like() -> Self {
        Self {
            ground_points: 18_000,
            clutter_points: 6_000,
            clutter_clusters: 60,
            object_density_scale: 0.6,
            reference_range: 10.0,
            position_noise: 0.03,
        }
    }
}

impl Default for LidarConfig {
    fn default() -> Self {
        Self::kitti_like()
    }
}

/// Receives points as a LiDAR sampler draws them: a `Vec<Point3>` keeps
/// them, a [`crate::PillarCounter`] bins them on arrival.
pub trait PointSink {
    /// Takes one sampled point.
    fn push(&mut self, point: Point3);
}

impl PointSink for Vec<Point3> {
    fn push(&mut self, point: Point3) {
        Vec::push(self, point);
    }
}

/// Samples a point cloud from a scene. Deterministic for a given seed.
///
/// Object surface, ground, and clutter returns are all drawn from one RNG
/// stream, so the output is a function of `(scene, config, seed)` alone.
#[must_use]
pub fn sample_scene(scene: &Scene, config: &LidarConfig, seed: u64) -> Vec<Point3> {
    let mut points = Vec::new();
    sample_scene_into(scene, config, seed, &mut points);
    points
}

/// [`sample_scene`] into a sink, in the same RNG order.
pub fn sample_scene_into(
    scene: &Scene,
    config: &LidarConfig,
    seed: u64,
    sink: &mut impl PointSink,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bad_c0de);
    draw_object_returns(scene, config, &mut rng, sink);
    draw_background(
        scene.config().x_range,
        scene.config().y_range,
        config,
        &mut rng,
        sink,
    );
}

/// Samples only the object surface returns of a scene into a sink, on
/// their own seed stream. A persistent drive re-samples these every frame
/// (objects move) while reusing one fixed background for the whole drive.
pub fn sample_object_returns_into(
    scene: &Scene,
    config: &LidarConfig,
    seed: u64,
    sink: &mut impl PointSink,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b1e_c7ed);
    draw_object_returns(scene, config, &mut rng, sink);
}

/// Samples only the static background (ground carpet + clutter clusters) of
/// a detection range into a sink, on its own seed stream. Deterministic for
/// a given `(ranges, config, seed)`; a persistent drive counts this once
/// so consecutive frames share their background pillars.
pub fn sample_background_into(
    x_range: (f64, f64),
    y_range: (f64, f64),
    config: &LidarConfig,
    seed: u64,
    sink: &mut impl PointSink,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba5e_11e5);
    draw_background(x_range, y_range, config, &mut rng, sink);
}

/// Object surface returns, drawn from the caller's RNG into `sink`.
fn draw_object_returns(
    scene: &Scene,
    config: &LidarConfig,
    rng: &mut StdRng,
    sink: &mut impl PointSink,
) {
    let (x_min, x_max) = scene.config().x_range;
    let (y_min, y_max) = scene.config().y_range;
    for obj in scene.objects() {
        let bbox = obj.bbox;
        let range = (bbox.cx * bbox.cx + bbox.cy * bbox.cy).sqrt().max(1.0);
        let falloff = (config.reference_range / range).powi(2).min(1.0);
        let surface_area = 2.0 * (bbox.length + bbox.width) * bbox.height;
        let count =
            (obj.class.point_density() * surface_area * falloff * config.object_density_scale)
                .round()
                .max(3.0) as usize;
        for _ in 0..count {
            // Sample on the box surface facing the sensor: pick one of the
            // four vertical faces weighted by its area, then jitter.
            let on_length_face = rng.gen_bool(bbox.length / (bbox.length + bbox.width));
            let (lx, ly) = if on_length_face {
                (
                    rng.gen_range(-bbox.length / 2.0..bbox.length / 2.0),
                    if rng.gen_bool(0.5) {
                        bbox.width / 2.0
                    } else {
                        -bbox.width / 2.0
                    },
                )
            } else {
                (
                    if rng.gen_bool(0.5) {
                        bbox.length / 2.0
                    } else {
                        -bbox.length / 2.0
                    },
                    rng.gen_range(-bbox.width / 2.0..bbox.width / 2.0),
                )
            };
            let (s, c) = bbox.yaw.sin_cos();
            let x = bbox.cx + lx * c - ly * s + rng.gen_range(-1.0..1.0) * config.position_noise;
            let y = bbox.cy + lx * s + ly * c + rng.gen_range(-1.0..1.0) * config.position_noise;
            let z = bbox.cz + rng.gen_range(-bbox.height / 2.0..bbox.height / 2.0);
            if x >= x_min && x < x_max && y >= y_min && y < y_max {
                sink.push(Point3::with_intensity(x, y, z, rng.gen_range(0.2..0.9)));
            }
        }
    }
}

/// Ground and clutter returns, drawn from the caller's RNG into `sink`.
fn draw_background(
    x_range: (f64, f64),
    y_range: (f64, f64),
    config: &LidarConfig,
    rng: &mut StdRng,
    sink: &mut impl PointSink,
) {
    let (x_min, x_max) = x_range;
    let (y_min, y_max) = y_range;
    // 2. Ground returns: density falls with range from the sensor, which sits
    //    at the origin. Sample ranges with a decaying distribution.
    for _ in 0..config.ground_points {
        let x = rng.gen_range(x_min..x_max);
        let y = rng.gen_range(y_min..y_max);
        let range = (x * x + y * y).sqrt().max(1.0);
        // Keep the point with probability proportional to 1/range, emulating
        // ring spacing that grows with distance.
        let keep_prob = (8.0 / range).min(1.0);
        if rng.gen_bool(keep_prob) {
            let z = -1.6 + rng.gen_range(-0.05..0.05);
            sink.push(Point3::with_intensity(x, y, z, rng.gen_range(0.05..0.3)));
        }
    }

    // 3. Clutter clusters.
    for _ in 0..config.clutter_clusters {
        let cx = rng.gen_range(x_min..x_max);
        let cy = rng.gen_range(y_min..y_max);
        let cluster_size = config.clutter_points / config.clutter_clusters.max(1);
        for _ in 0..cluster_size {
            let x = cx + rng.gen_range(-1.5..1.5);
            let y = cy + rng.gen_range(-1.5..1.5);
            let z = rng.gen_range(-1.6..1.5);
            if x >= x_min && x < x_max && y >= y_min && y < y_max {
                sink.push(Point3::with_intensity(x, y, z, rng.gen_range(0.1..0.6)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectClass, SceneObject};
    use crate::scene::{Scene, SceneConfig, SceneGenerator};

    fn test_scene() -> Scene {
        SceneGenerator::new(SceneConfig::kitti_like(), 5).generate()
    }

    #[test]
    fn sampling_is_deterministic() {
        let scene = test_scene();
        let cfg = LidarConfig::kitti_like();
        let a = sample_scene(&scene, &cfg, 99);
        let b = sample_scene(&scene, &cfg, 99);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn points_stay_inside_detection_range() {
        let scene = test_scene();
        let cfg = LidarConfig::kitti_like();
        let pts = sample_scene(&scene, &cfg, 1);
        let (x_min, x_max) = scene.config().x_range;
        let (y_min, y_max) = scene.config().y_range;
        for p in &pts {
            assert!(p.x >= x_min && p.x < x_max);
            assert!(p.y >= y_min && p.y < y_max);
        }
    }

    #[test]
    fn object_surfaces_receive_points() {
        let obj = SceneObject::at(ObjectClass::Car, 10.0, 0.0, 0.3);
        let scene = Scene::from_objects(SceneConfig::kitti_like(), vec![obj]);
        let cfg = LidarConfig::kitti_like();
        let pts = sample_scene(&scene, &cfg, 3);
        // Expand the box slightly to tolerate surface jitter.
        let near_object = pts
            .iter()
            .filter(|p| (p.x - 10.0).abs() < 3.0 && p.y.abs() < 3.0 && p.z > -1.7 && p.z < 1.0)
            .count();
        assert!(
            near_object > 50,
            "expected dense car returns, got {near_object}"
        );
    }

    #[test]
    fn nearby_ground_is_denser_than_far_ground() {
        let scene = Scene::from_objects(SceneConfig::kitti_like(), vec![]);
        let cfg = LidarConfig::kitti_like();
        let pts = sample_scene(&scene, &cfg, 17);
        // Compare equal-area corridors (10 m x 10 m) so the test measures
        // density rather than total annulus area.
        let near = pts
            .iter()
            .filter(|p| p.y.abs() < 5.0 && p.x >= 5.0 && p.x < 15.0)
            .count();
        let far = pts
            .iter()
            .filter(|p| p.y.abs() < 5.0 && p.x >= 55.0 && p.x < 65.0)
            .count();
        assert!(near > far, "near={near} far={far}");
    }

    #[test]
    fn split_samplers_are_deterministic_and_disjoint_streams() {
        let scene = test_scene();
        let cfg = LidarConfig::kitti_like();
        let objects = || {
            let mut points = Vec::new();
            sample_object_returns_into(&scene, &cfg, 5, &mut points);
            points
        };
        let (a, b) = (objects(), objects());
        assert_eq!(a, b);
        let (xr, yr) = (scene.config().x_range, scene.config().y_range);
        let background = || {
            let mut points = Vec::new();
            sample_background_into(xr, yr, &cfg, 5, &mut points);
            points
        };
        let (g, h) = (background(), background());
        assert_eq!(g, h);
        assert!(!a.is_empty() && !g.is_empty());
        // The split samplers run on their own salted streams, so neither
        // reproduces the head of the combined `sample_scene` stream.
        let combined = sample_scene(&scene, &cfg, 5);
        assert_ne!(combined[0], a[0]);
    }

    #[test]
    fn frame_point_count_is_realistic() {
        let scene = test_scene();
        let pts = sample_scene(&scene, &LidarConfig::kitti_like(), 7);
        assert!(pts.len() > 5_000, "got {}", pts.len());
        assert!(pts.len() < 120_000, "got {}", pts.len());
    }
}
