//! Dataset presets bundling scene, LiDAR, and pillarisation configurations.

use crate::lidar::{self, LidarConfig};
use crate::pillarize::{PillarCounter, PillarizationConfig, PillarizedCloud};
use crate::scene::{Scene, SceneConfig, SceneGenerator};
use serde::{Deserialize, Serialize};
use spade_tensor::GridShape;

/// Which benchmark a preset approximates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// KITTI-like: forward-facing 432×496 grid, used by PointPillars (PP/SPP).
    KittiLike,
    /// nuScenes-like: surround 512×512 grid, used by CenterPoint and PillarNet.
    NuscenesLike,
}

impl DatasetKind {
    /// The preset that approximates this benchmark.
    #[must_use]
    pub fn preset(self) -> DatasetPreset {
        match self {
            DatasetKind::KittiLike => DatasetPreset::kitti_like(),
            DatasetKind::NuscenesLike => DatasetPreset::nuscenes_like(),
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetKind::KittiLike => f.write_str("KITTI-like"),
            DatasetKind::NuscenesLike => f.write_str("nuScenes-like"),
        }
    }
}

/// A complete synthetic-dataset preset: scene statistics, LiDAR model, and
/// pillarisation grid.
///
/// # Example
///
/// ```
/// use spade_pointcloud::DatasetPreset;
/// let kitti = DatasetPreset::kitti_like();
/// let frame = kitti.generate_frame(0);
/// assert!(frame.pillars.occupancy() > 0.005 && frame.pillars.occupancy() < 0.25);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetPreset {
    kind: DatasetKind,
    scene: SceneConfig,
    lidar: LidarConfig,
    pillar: PillarizationConfig,
}

/// One generated frame: the scene (ground truth), the raw point cloud size,
/// and the pillarised BEV occupancy.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The generated scene with ground-truth objects.
    pub scene: Scene,
    /// Number of LiDAR points sampled.
    pub num_points: usize,
    /// The pillarised point cloud.
    pub pillars: PillarizedCloud,
}

impl DatasetPreset {
    /// The KITTI-like preset (PointPillars grid).
    #[must_use]
    pub fn kitti_like() -> Self {
        Self {
            kind: DatasetKind::KittiLike,
            scene: SceneConfig::kitti_like(),
            lidar: LidarConfig::kitti_like(),
            pillar: PillarizationConfig::kitti_like(),
        }
    }

    /// The nuScenes-like preset (CenterPoint / PillarNet grid).
    #[must_use]
    pub fn nuscenes_like() -> Self {
        Self {
            kind: DatasetKind::NuscenesLike,
            scene: SceneConfig::nuscenes_like(),
            lidar: LidarConfig::nuscenes_like(),
            pillar: PillarizationConfig::nuscenes_like(),
        }
    }

    /// Which benchmark this preset approximates.
    #[must_use]
    pub const fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// The scene-generation configuration.
    #[must_use]
    pub fn scene_config(&self) -> SceneConfig {
        self.scene.clone()
    }

    /// The LiDAR sampling configuration.
    #[must_use]
    pub fn lidar_config(&self) -> LidarConfig {
        self.lidar.clone()
    }

    /// The pillarisation configuration.
    #[must_use]
    pub fn pillar_config(&self) -> PillarizationConfig {
        self.pillar.clone()
    }

    /// The BEV grid shape of this preset.
    #[must_use]
    pub fn grid_shape(&self) -> GridShape {
        self.pillar.grid_shape()
    }

    /// Generates one complete frame (scene → LiDAR → pillars), seeded.
    #[must_use]
    pub fn generate_frame(&self, seed: u64) -> Frame {
        self.generate_frame_with_scene_config(self.scene.clone(), seed)
    }

    /// Generates a frame from an explicit scene configuration while keeping
    /// this preset's LiDAR and pillarisation settings — the one i.i.d.
    /// frame-construction path, shared with [`crate::drive::DriveScenario`],
    /// which modulates scene density per frame. The sampler bins each LiDAR
    /// return into a [`PillarCounter`] as it draws it; no point vector is
    /// built.
    #[must_use]
    pub fn generate_frame_with_scene_config(&self, scene_cfg: SceneConfig, seed: u64) -> Frame {
        let scene = SceneGenerator::new(scene_cfg, seed).generate();
        let mut counter = PillarCounter::new(&self.pillar);
        lidar::sample_scene_into(&scene, &self.lidar, seed.wrapping_add(1), &mut counter);
        Frame {
            scene,
            num_points: counter.points(),
            pillars: counter.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kitti_frame_occupancy_is_a_few_percent() {
        let frame = DatasetPreset::kitti_like().generate_frame(1);
        let occ = frame.pillars.occupancy();
        assert!(occ > 0.005, "occupancy {occ} too low");
        assert!(occ < 0.25, "occupancy {occ} too high");
    }

    #[test]
    fn both_presets_have_realistic_occupancy() {
        // The paper reports that only roughly 3-5% of BEV cells hold an active
        // pillar; both presets should land in that few-percent regime.
        for preset in [DatasetPreset::kitti_like(), DatasetPreset::nuscenes_like()] {
            let occ: f64 = [0, 1000, 2000]
                .map(|seed| preset.generate_frame(seed).pillars.occupancy())
                .iter()
                .sum::<f64>()
                / 3.0;
            assert!(occ > 0.005, "{:?} occupancy {occ} too low", preset.kind());
            assert!(occ < 0.15, "{:?} occupancy {occ} too high", preset.kind());
        }
    }

    #[test]
    fn frame_generation_is_deterministic() {
        let p = DatasetPreset::kitti_like();
        let a = p.generate_frame(33);
        let b = p.generate_frame(33);
        assert_eq!(a.num_points, b.num_points);
        assert_eq!(a.pillars.active_coords, b.pillars.active_coords);
    }

    #[test]
    fn grid_shapes_match_presets() {
        assert_eq!(
            DatasetPreset::kitti_like().grid_shape(),
            GridShape::new(432, 496)
        );
        assert_eq!(
            DatasetPreset::nuscenes_like().grid_shape(),
            GridShape::new(512, 512)
        );
    }

    #[test]
    fn distinct_seeds_give_distinct_frames() {
        let p = DatasetPreset::kitti_like();
        assert_ne!(
            p.generate_frame(7).pillars.active_coords,
            p.generate_frame(1007).pillars.active_coords
        );
    }

    #[test]
    fn kind_display() {
        assert_eq!(DatasetKind::KittiLike.to_string(), "KITTI-like");
        assert_eq!(DatasetKind::NuscenesLike.to_string(), "nuScenes-like");
    }
}
