//! # spade-pointcloud
//!
//! Synthetic LiDAR point-cloud workloads for the SPADE reproduction (HPCA
//! 2024).
//!
//! The paper evaluates on KITTI and nuScenes LiDAR frames. Those datasets are
//! not redistributable here, so this crate provides a **synthetic scene and
//! LiDAR generator** whose output matches the *spatial statistics* that the
//! accelerator's behaviour depends on: a handful of percent of the BEV grid
//! active, with active pillars clustered around road agents (cars,
//! pedestrians, cyclists) plus scattered ground/clutter returns. Everything is
//! seeded and deterministic.
//!
//! Modules:
//!
//! * [`geometry`] — points and oriented 3D boxes.
//! * [`object`] — road-agent classes and per-class size models.
//! * [`scene`] — scene composition (object placement, ground truth).
//! * [`lidar`] — LiDAR-style point sampling from a scene, into any
//!   [`lidar::PointSink`].
//! * [`dataset`] — KITTI-like and nuScenes-like presets (detection range,
//!   pillar size, BEV grid shape, frame statistics).
//! * [`drive`] — multi-frame drive scenarios with evolving object density,
//!   scripted events (stopped traffic, tunnels, crossing waves), and a
//!   consecutive-frame pillar-overlap metric (the workload axis of the
//!   design-space exploration engine); [`DriveCursor`] builds a drive's
//!   frames on demand, in any order.
//! * [`world`] — frame-to-frame persistent world state: objects carry
//!   per-class velocities, advance between frames, despawn out of range,
//!   and spawn at scripted rates.
//! * [`pillarize`] — point cloud → active pillar coordinates + per-pillar
//!   retained point counts, through one [`PillarCounter`] that the LiDAR
//!   samplers feed point by point.
//! * [`proxy`] — the accuracy-proxy model used to reproduce the paper's
//!   accuracy-vs-sparsity trade-off curves without GPU training.
//!
//! ## Example
//!
//! ```
//! use spade_pointcloud::{DatasetPreset, SceneGenerator};
//!
//! let preset = DatasetPreset::kitti_like();
//! let mut gen = SceneGenerator::new(preset.scene_config(), 42);
//! let scene = gen.generate();
//! let cloud = scene.sample_lidar(&preset.lidar_config(), 42);
//! assert!(cloud.len() > 1_000);
//! let pillars = spade_pointcloud::pillarize::pillarize(&cloud, &preset.pillar_config());
//! // Typical occupancy is a few percent of the BEV grid.
//! assert!(pillars.active_coords.len() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod drive;
pub mod geometry;
pub mod lidar;
pub mod object;
pub mod pillarize;
pub mod proxy;
pub mod scene;
pub mod world;

pub use dataset::DatasetPreset;
pub use drive::{
    DensityProfile, DriveCursor, DriveEvent, DriveFrame, DriveScenario, DriveScenarioConfig,
    EventTimeline, NamedScenario, ScenePersistence, TimedEvent,
};
pub use geometry::{BoundingBox3, Point3};
pub use lidar::LidarConfig;
pub use object::{ObjectClass, SceneObject};
pub use pillarize::{PillarCounter, PillarizationConfig, PillarizedCloud};
pub use proxy::AccuracyProxy;
pub use scene::{Scene, SceneConfig, SceneGenerator};
pub use world::{PersistentWorld, WorldObject, WorldStep};
