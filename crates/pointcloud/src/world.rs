//! Frame-to-frame persistent world state for drive scenarios.
//!
//! The legacy [`crate::drive::DriveScenario`] samples an independent scene
//! for every frame, so consecutive frames share no objects and no temporal
//! locality exists for caching or serving backends to exploit. This module
//! models the world the way a real drive sees it: objects persist across
//! frames, advance by per-class velocities, despawn when they leave the
//! detection range, and spawn at scripted or profile-driven rates — so most
//! active pillars of frame `i` are still active in frame `i + 1`.
//!
//! [`PersistentWorld`] is deliberately independent of the event/profile
//! machinery in [`crate::drive`]: each [`PersistentWorld::step`] takes the
//! already-resolved per-frame control inputs ([`WorldStep`]), which keeps the
//! world itself a pure deterministic function of its step sequence.

use crate::object::{ObjectClass, SceneObject};
use crate::scene::{Scene, SceneConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One object of the persistent world: its scene object plus the identity
/// and velocity that let it be tracked across frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldObject {
    /// Stable identity across frames (unique within one world).
    pub id: u64,
    /// The object's class and ground-truth box at the current frame.
    pub object: SceneObject,
    /// Ground velocity `(vx, vy)` in m/s, aligned with the object's yaw.
    pub velocity: (f64, f64),
}

impl WorldObject {
    /// Ground speed in m/s.
    #[must_use]
    pub fn speed(&self) -> f64 {
        let (vx, vy) = self.velocity;
        (vx * vx + vy * vy).sqrt()
    }
}

/// Resolved per-frame control inputs for one [`PersistentWorld::step`].
///
/// The drive layer computes these from its density profile and event
/// timeline; the world only consumes the resolved numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldStep {
    /// Object count the world should settle at after this step. When the
    /// current population exceeds it (tunnel, thinning traffic), the objects
    /// furthest from the sensor despawn first; when it falls short, new
    /// objects spawn at profile-driven positions.
    pub target_count: usize,
    /// Scale factor on every object's displacement this frame (`0.0` freezes
    /// traffic, `1.0` is free flow). Clamped to `[0, 1]`.
    pub speed_multiplier: f64,
    /// Extra pedestrians/cyclists spawned crossing the road corridor
    /// laterally this frame (a crossing wave), on top of `target_count`.
    pub crossing_spawns: usize,
    /// Seed of this step's spawn RNG; the world's evolution is a pure
    /// function of its initial state and the step sequence.
    pub seed: u64,
}

/// A persistent traffic world evolving over the frames of a drive.
///
/// # Example
///
/// ```
/// use spade_pointcloud::{PersistentWorld, SceneConfig, WorldStep};
///
/// let mut world = PersistentWorld::new(SceneConfig::kitti_like(), 0.1);
/// world.step(&WorldStep { target_count: 12, speed_multiplier: 1.0, crossing_spawns: 0, seed: 7 });
/// let before: Vec<_> = world.objects().iter().map(|o| (o.id, o.object.bbox.cx)).collect();
/// world.step(&WorldStep { target_count: 12, speed_multiplier: 1.0, crossing_spawns: 0, seed: 8 });
/// // Surviving objects moved by at most their speed × dt.
/// for o in world.objects() {
///     if let Some((_, x0)) = before.iter().find(|(id, _)| *id == o.id) {
///         assert!((o.object.bbox.cx - x0).abs() <= o.speed() * 0.1 + 1e-9);
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PersistentWorld {
    config: SceneConfig,
    dt_s: f64,
    next_id: u64,
    objects: Vec<WorldObject>,
}

impl PersistentWorld {
    /// Creates an empty world over a detection range, with `dt_s` seconds
    /// between consecutive frames (LiDAR sweeps at 10 Hz → `0.1`).
    #[must_use]
    pub fn new(config: SceneConfig, dt_s: f64) -> Self {
        Self {
            config,
            dt_s: dt_s.max(0.0),
            next_id: 0,
            objects: Vec::new(),
        }
    }

    /// Seconds between consecutive frames.
    #[must_use]
    pub const fn dt_s(&self) -> f64 {
        self.dt_s
    }

    /// The current world population.
    #[must_use]
    pub fn objects(&self) -> &[WorldObject] {
        &self.objects
    }

    /// Snapshot of the current population as a [`Scene`] (ground truth for
    /// frame generation and the pruning importance model).
    #[must_use]
    pub fn scene(&self) -> Scene {
        Scene::from_objects(
            self.config.clone(),
            self.objects.iter().map(|w| w.object).collect(),
        )
    }

    /// Advances the world by one frame: move, despawn, then spawn.
    ///
    /// 1. Every object advances by `velocity × dt × speed_multiplier` along
    ///    its heading (an object never teleports further than
    ///    [`ObjectClass::max_speed_mps`]` × dt` in one step).
    /// 2. Objects whose centre leaves the detection range despawn; if the
    ///    population still exceeds `target_count`, the objects furthest from
    ///    the sensor despawn first (traffic thins from the horizon inward —
    ///    and a tunnel's near-zero target empties the frame).
    /// 3. New objects spawn until `target_count` is met, plus any crossing
    ///    wave, all from this step's seeded RNG.
    pub fn step(&mut self, step: &WorldStep) {
        let dt = self.dt_s * step.speed_multiplier.clamp(0.0, 1.0);
        for w in &mut self.objects {
            w.object.bbox.cx += w.velocity.0 * dt;
            w.object.bbox.cy += w.velocity.1 * dt;
        }
        let (x_min, x_max) = self.config.x_range;
        let (y_min, y_max) = self.config.y_range;
        self.objects.retain(|w| {
            let (x, y) = (w.object.bbox.cx, w.object.bbox.cy);
            x >= x_min && x < x_max && y >= y_min && y < y_max
        });
        if self.objects.len() > step.target_count {
            // Deterministic thinning: keep the objects closest to the sensor.
            self.objects.sort_by(|a, b| {
                let d = |w: &WorldObject| {
                    let (x, y) = (w.object.bbox.cx, w.object.bbox.cy);
                    x * x + y * y
                };
                d(a).total_cmp(&d(b)).then(a.id.cmp(&b.id))
            });
            self.objects.truncate(step.target_count);
            // Restore spawn order so downstream iteration stays stable.
            self.objects.sort_by_key(|w| w.id);
        }
        let mut rng = StdRng::seed_from_u64(step.seed ^ 0x57e9_0b1d);
        let deficit = step.target_count.saturating_sub(self.objects.len());
        for _ in 0..deficit {
            self.spawn_profile_driven(&mut rng);
        }
        for _ in 0..step.crossing_spawns {
            self.spawn_crossing(&mut rng);
        }
    }

    /// Spawns one object at a profile-driven position (uniform over the
    /// range with the same road-corridor bias as the i.i.d. scene
    /// generator), respecting `min_separation`. Gives up silently after a
    /// bounded number of placement attempts, like the scene generator.
    fn spawn_profile_driven(&mut self, rng: &mut StdRng) {
        for _ in 0..50 {
            // Class mix and corridor bias are the shared `SceneConfig`
            // helpers, so the persistent and i.i.d. drive modes cannot
            // drift apart.
            let class = self.config.sample_class(rng);
            let x = rng.gen_range(self.config.x_range.0..self.config.x_range.1);
            let y = self.config.corridor_biased_y(rng);
            let yaw = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
            if self.try_spawn(class, x, y, yaw, rng) {
                return;
            }
        }
    }

    /// Spawns one pedestrian or cyclist entering the road corridor
    /// laterally — the building block of a crossing wave.
    fn spawn_crossing(&mut self, rng: &mut StdRng) {
        for _ in 0..50 {
            let class = if rng.gen_bool(0.7) {
                ObjectClass::Pedestrian
            } else {
                ObjectClass::Cyclist
            };
            // Cross somewhere in the mid-range band of the detection range.
            let (x_min, x_max) = self.config.x_range;
            let x = x_min + (x_max - x_min) * rng.gen_range(0.3f64..0.7);
            // Enter from one corridor edge, heading across to the other.
            // `next_down` keeps the entry point inside the half-open
            // `y < y_max` retention range even for a narrow custom range
            // (`- f64::EPSILON` is a no-op at these magnitudes and would
            // let the crosser despawn on its first step).
            let from_left = rng.gen_bool(0.5);
            let edge = 8.0f64.min(self.config.y_range.1.next_down());
            let y = if from_left { -edge } else { edge };
            let yaw = if from_left {
                std::f64::consts::FRAC_PI_2
            } else {
                -std::f64::consts::FRAC_PI_2
            };
            if self.try_spawn(class, x, y.max(self.config.y_range.0), yaw, rng) {
                return;
            }
        }
    }

    /// Places the object if it clears `min_separation`; returns success.
    fn try_spawn(
        &mut self,
        class: ObjectClass,
        x: f64,
        y: f64,
        yaw: f64,
        rng: &mut StdRng,
    ) -> bool {
        let candidate = SceneObject::at(class, x, y, yaw);
        if !self.config.clears_separation(
            self.objects
                .iter()
                .map(|w| (w.object.bbox.cx, w.object.bbox.cy)),
            candidate.bbox.cx,
            candidate.bbox.cy,
        ) {
            return false;
        }
        let (lo, hi) = class.typical_speed_mps();
        let speed = rng.gen_range(lo..hi);
        let (s, c) = yaw.sin_cos();
        self.objects.push(WorldObject {
            id: self.next_id,
            object: candidate,
            velocity: (speed * c, speed * s),
        });
        self.next_id += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(target: usize, seed: u64) -> WorldStep {
        WorldStep {
            target_count: target,
            speed_multiplier: 1.0,
            crossing_spawns: 0,
            seed,
        }
    }

    #[test]
    fn world_evolution_is_deterministic() {
        let run = || {
            let mut w = PersistentWorld::new(SceneConfig::kitti_like(), 0.1);
            for i in 0..6 {
                w.step(&step(14, 100 + i));
            }
            w.objects().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn objects_persist_and_never_teleport() {
        let mut w = PersistentWorld::new(SceneConfig::kitti_like(), 0.1);
        w.step(&step(16, 1));
        for i in 0..8u64 {
            let before: Vec<WorldObject> = w.objects().to_vec();
            w.step(&step(16, 2 + i));
            let mut survivors = 0;
            for o in w.objects() {
                if let Some(prev) = before.iter().find(|p| p.id == o.id) {
                    survivors += 1;
                    let dx = o.object.bbox.cx - prev.object.bbox.cx;
                    let dy = o.object.bbox.cy - prev.object.bbox.cy;
                    let dist = (dx * dx + dy * dy).sqrt();
                    let bound = o.object.class.max_speed_mps() * w.dt_s();
                    assert!(dist <= bound + 1e-9, "id {} moved {dist} > {bound}", o.id);
                    assert_eq!(o.velocity, prev.velocity, "velocity changed mid-flight");
                }
            }
            assert!(
                survivors > 0,
                "the world should carry objects across frames"
            );
        }
    }

    #[test]
    fn speed_zero_freezes_traffic() {
        let mut w = PersistentWorld::new(SceneConfig::kitti_like(), 0.1);
        w.step(&step(12, 5));
        let before = w.objects().to_vec();
        w.step(&WorldStep {
            target_count: 12,
            speed_multiplier: 0.0,
            crossing_spawns: 0,
            seed: 6,
        });
        for o in w.objects() {
            if let Some(prev) = before.iter().find(|p| p.id == o.id) {
                assert_eq!(o.object.bbox.cx, prev.object.bbox.cx);
                assert_eq!(o.object.bbox.cy, prev.object.bbox.cy);
            }
        }
    }

    #[test]
    fn low_target_empties_the_world_far_objects_first() {
        let mut w = PersistentWorld::new(SceneConfig::kitti_like(), 0.1);
        w.step(&step(20, 9));
        assert!(w.objects().len() >= 15);
        let nearest_before = w
            .objects()
            .iter()
            .map(|o| o.object.bbox.cx.hypot(o.object.bbox.cy))
            .fold(f64::INFINITY, f64::min);
        w.step(&WorldStep {
            target_count: 2,
            speed_multiplier: 0.0,
            crossing_spawns: 0,
            seed: 10,
        });
        assert_eq!(w.objects().len(), 2);
        // The survivors are near-sensor objects.
        for o in w.objects() {
            let d = o.object.bbox.cx.hypot(o.object.bbox.cy);
            assert!(d <= nearest_before + 40.0);
        }
    }

    #[test]
    fn crossing_spawns_add_lateral_small_agents() {
        let mut w = PersistentWorld::new(SceneConfig::kitti_like(), 0.1);
        w.step(&step(8, 3));
        let ids_before: Vec<u64> = w.objects().iter().map(|o| o.id).collect();
        w.step(&WorldStep {
            target_count: 8,
            speed_multiplier: 1.0,
            crossing_spawns: 4,
            seed: 4,
        });
        let crossers: Vec<&WorldObject> = w
            .objects()
            .iter()
            .filter(|o| !ids_before.contains(&o.id))
            .collect();
        assert!(!crossers.is_empty());
        for c in crossers {
            assert!(matches!(
                c.object.class,
                ObjectClass::Pedestrian | ObjectClass::Cyclist
            ));
            // Lateral heading: |vy| dominates |vx|.
            assert!(c.velocity.1.abs() > c.velocity.0.abs());
        }
    }

    #[test]
    fn objects_respect_min_separation_at_spawn() {
        let mut w = PersistentWorld::new(SceneConfig::kitti_like(), 0.1);
        w.step(&step(24, 77));
        let objs = w.objects();
        // Separation holds at spawn time (it can erode later as objects
        // move, which mirrors real traffic closing gaps).
        for i in 0..objs.len() {
            for j in (i + 1)..objs.len() {
                let dx = objs[i].object.bbox.cx - objs[j].object.bbox.cx;
                let dy = objs[i].object.bbox.cy - objs[j].object.bbox.cy;
                assert!((dx * dx + dy * dy).sqrt() >= 2.5 - 1e-9);
            }
        }
    }
}
