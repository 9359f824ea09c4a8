//! Multi-frame drive scenarios: deterministic sequences of frames whose
//! object density evolves over time, with optional scripted events and a
//! persistent frame-to-frame world.
//!
//! The paper evaluates single synthetic frames; a real deployment sees a
//! *drive* — tens of consecutive LiDAR sweeps whose occupancy rises and falls
//! as the vehicle moves between empty road and dense intersections. Because
//! SPADE's benefit tracks activation sparsity (and the per-layer IOPR drifts
//! with occupancy), sweeping hardware configurations against a single frame
//! over- or under-states the win. [`DriveScenario`] generates a seeded frame
//! sequence with a controllable density profile so design-space exploration
//! can aggregate over a whole drive instead of one static frame.
//!
//! Two generation modes exist, selected by
//! [`DriveScenarioConfig::persistence`]:
//!
//! * [`ScenePersistence::Independent`] (the legacy default) samples an
//!   independent scene per frame — consecutive frames share no objects, so
//!   inter-frame pillar overlap is near the random baseline.
//! * [`ScenePersistence::Persistent`] evolves one
//!   [`crate::world::PersistentWorld`] across the drive: objects carry
//!   per-class velocities, advance frame-to-frame, despawn when they leave
//!   the detection range, and spawn at scripted/profile-driven rates, while
//!   the static background (ground + clutter returns) is sampled and
//!   counted into pillars once per drive — so consecutive frames share most
//!   of their active pillars. The [`DriveFrame::pillar_overlap`] metric
//!   quantifies exactly that temporal locality.
//!
//! [`DriveCursor`] is the one generator of both modes. It steps a drive
//! frame by frame, restarting a persistent world from frame 0 when asked
//! for an earlier frame; [`DriveScenario::frames`] and
//! [`DriveScenario::generate_frame`] run a cursor, and `spade-serve` keeps
//! one per stream so each FRAME builds only the frame it asks for.
//!
//! Scripted [`DriveEvent`]s on an [`EventTimeline`] layer traffic context
//! over the [`DensityProfile`]: stopped traffic freezes and swells the
//! scene, a tunnel empties it, and a crossing wave sends pedestrians and
//! cyclists across the road corridor. [`NamedScenario`] bundles curated
//! profile + timeline + persistence combinations behind the CLI names the
//! `dse` experiment accepts (`--scenario stop-and-go`).

use crate::dataset::{DatasetPreset, Frame};
use crate::lidar;
use crate::pillarize::{PillarCounter, SparseCounts};
use crate::scene::SceneConfig;
use crate::world::{PersistentWorld, WorldStep};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How scene density (object count) evolves across the frames of a drive.
///
/// The factor returned by [`DensityProfile::factor`] scales the preset's
/// `min_objects`/`max_objects` bounds for each frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DensityProfile {
    /// Density stays at the preset's baseline for every frame.
    Constant,
    /// Density ramps linearly from `start` to `end` across the drive —
    /// e.g. `start: 0.5, end: 2.0` models leaving an empty suburb and
    /// arriving downtown.
    Ramp {
        /// Density factor at the first frame.
        start: f64,
        /// Density factor at the last frame.
        end: f64,
    },
    /// Density rises from `base` to `peak` at the midpoint and falls back —
    /// passing through a busy intersection.
    Peak {
        /// Density factor at the first and last frames.
        base: f64,
        /// Density factor at the midpoint of the drive.
        peak: f64,
    },
}

impl DensityProfile {
    /// The density factor for frame `index` of a drive of `num_frames`.
    ///
    /// Factors are clamped to `[0.05, 10.0]` so a misconfigured profile can
    /// never produce an empty or absurdly dense scene, and the drive
    /// position `t` is clamped to `[0, 1]` so an `index` beyond the drive
    /// end (reachable through the public out-of-order
    /// [`DriveScenario::generate_frame`]) holds the profile's end value
    /// instead of extrapolating a `Ramp` past `end`.
    #[must_use]
    pub fn factor(&self, index: usize, num_frames: usize) -> f64 {
        let t = if num_frames <= 1 {
            0.0
        } else {
            (index as f64 / (num_frames - 1) as f64).min(1.0)
        };
        let raw = match self {
            DensityProfile::Constant => 1.0,
            DensityProfile::Ramp { start, end } => start + (end - start) * t,
            DensityProfile::Peak { base, peak } => {
                // Triangle profile: base -> peak at t = 0.5 -> base.
                let up = 1.0 - (2.0 * t - 1.0).abs();
                base + (peak - base) * up
            }
        };
        raw.clamp(0.05, 10.0)
    }
}

/// A scripted traffic event overriding the ambient density profile while it
/// is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriveEvent {
    /// Traffic halts: object displacement freezes and the queue swells the
    /// scene density.
    StoppedTraffic,
    /// The drive enters a tunnel: the frame empties down to the density
    /// floor (the background road returns remain).
    Tunnel,
    /// A wave of pedestrians and cyclists crosses the road corridor
    /// laterally.
    CrossingWave,
}

impl DriveEvent {
    /// Multiplier the event applies to the profile's density factor.
    #[must_use]
    pub const fn density_multiplier(self) -> f64 {
        match self {
            DriveEvent::StoppedTraffic => 1.6,
            DriveEvent::Tunnel => 0.02,
            DriveEvent::CrossingWave => 1.0,
        }
    }

    /// Multiplier the event applies to object displacement per frame.
    #[must_use]
    pub const fn speed_multiplier(self) -> f64 {
        match self {
            DriveEvent::StoppedTraffic => 0.0,
            DriveEvent::Tunnel | DriveEvent::CrossingWave => 1.0,
        }
    }

    /// Extra lateral pedestrian/cyclist spawns per active frame.
    #[must_use]
    pub const fn crossing_spawns_per_frame(self) -> usize {
        match self {
            DriveEvent::CrossingWave => 3,
            DriveEvent::StoppedTraffic | DriveEvent::Tunnel => 0,
        }
    }

    /// Short display label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            DriveEvent::StoppedTraffic => "stopped-traffic",
            DriveEvent::Tunnel => "tunnel",
            DriveEvent::CrossingWave => "crossing-wave",
        }
    }
}

/// An event active over the half-open frame range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// The scripted event.
    pub event: DriveEvent,
    /// First frame (inclusive) the event is active at.
    pub start: usize,
    /// First frame (exclusive) after the event ends.
    pub end: usize,
}

impl TimedEvent {
    /// Whether the event is active at `index`.
    #[must_use]
    pub const fn active_at(&self, index: usize) -> bool {
        index >= self.start && index < self.end
    }
}

/// The scripted events of a drive, layered over its [`DensityProfile`].
///
/// Multipliers of simultaneously active events compose: density multipliers
/// multiply, the slowest speed multiplier wins, crossing spawns add up.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EventTimeline {
    events: Vec<TimedEvent>,
}

impl EventTimeline {
    /// A timeline with no scripted events (the legacy behaviour).
    #[must_use]
    pub const fn empty() -> Self {
        Self { events: Vec::new() }
    }

    /// A timeline over explicit timed events.
    #[must_use]
    pub fn new(events: Vec<TimedEvent>) -> Self {
        Self { events }
    }

    /// Whether the timeline holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every scripted event.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// The events active at a frame.
    pub fn active_at(&self, index: usize) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter().filter(move |e| e.active_at(index))
    }

    /// Product of the active events' density multipliers (1.0 when idle).
    #[must_use]
    pub fn density_multiplier(&self, index: usize) -> f64 {
        self.active_at(index)
            .map(|e| e.event.density_multiplier())
            .product()
    }

    /// Minimum of the active events' speed multipliers (1.0 when idle).
    #[must_use]
    pub fn speed_multiplier(&self, index: usize) -> f64 {
        self.active_at(index)
            .map(|e| e.event.speed_multiplier())
            .fold(1.0, f64::min)
    }

    /// Sum of the active events' lateral crossing spawns.
    #[must_use]
    pub fn crossing_spawns(&self, index: usize) -> usize {
        self.active_at(index)
            .map(|e| e.event.crossing_spawns_per_frame())
            .sum()
    }

    /// Labels of the events active at a frame.
    #[must_use]
    pub fn labels_at(&self, index: usize) -> Vec<&'static str> {
        self.active_at(index).map(|e| e.event.label()).collect()
    }
}

/// Whether frames of a drive share world state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScenePersistence {
    /// Every frame samples an independent scene (the legacy behaviour):
    /// consecutive frames share no objects.
    Independent,
    /// One [`PersistentWorld`] evolves across the drive and the static
    /// background is sampled once, so consecutive frames share most active
    /// pillars.
    Persistent {
        /// Seconds between consecutive frames (LiDAR sweeps at 10 Hz → 0.1).
        frame_interval_s: f64,
    },
}

impl ScenePersistence {
    /// The default inter-frame interval: a 10 Hz LiDAR sweep.
    pub const DEFAULT_FRAME_INTERVAL_S: f64 = 0.1;

    /// The persistent mode at the default 10 Hz frame interval.
    #[must_use]
    pub const fn persistent() -> Self {
        Self::Persistent {
            frame_interval_s: Self::DEFAULT_FRAME_INTERVAL_S,
        }
    }

    /// Whether frames share world state.
    #[must_use]
    pub const fn is_persistent(&self) -> bool {
        matches!(self, Self::Persistent { .. })
    }
}

/// Configuration of a [`DriveScenario`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveScenarioConfig {
    /// Number of frames in the drive.
    pub num_frames: usize,
    /// Base seed; each frame derives its own seed from it, so the whole
    /// drive is reproducible from this one value.
    pub base_seed: u64,
    /// How ambient density evolves over the drive.
    pub profile: DensityProfile,
    /// Scripted events layered over the profile (empty by default).
    ///
    /// Under [`ScenePersistence::Independent`] only the events' *density*
    /// multipliers apply (each frame is a fresh scene, so there is no
    /// motion to freeze and no world for crossing agents to persist in);
    /// the speed and crossing-spawn effects need
    /// [`ScenePersistence::Persistent`]. [`DriveFrame::active_events`]
    /// reports scripted activity in either mode.
    pub events: EventTimeline,
    /// Whether frames share world state (independent by default, which
    /// preserves the legacy byte-exact frame stream).
    pub persistence: ScenePersistence,
}

impl Default for DriveScenarioConfig {
    fn default() -> Self {
        Self {
            num_frames: 5,
            base_seed: 0,
            profile: DensityProfile::Constant,
            events: EventTimeline::empty(),
            persistence: ScenePersistence::Independent,
        }
    }
}

impl DriveScenarioConfig {
    /// A short drive with the given frame count and seed at constant density.
    #[must_use]
    pub fn constant(num_frames: usize, base_seed: u64) -> Self {
        Self {
            num_frames,
            base_seed,
            ..Self::default()
        }
    }

    /// The seed frame `index` is generated from.
    ///
    /// This is the single definition of the per-frame seed stream (a large
    /// odd stride); the DSE sweep reuses it instead of duplicating the
    /// constant.
    #[must_use]
    pub const fn frame_seed(&self, index: usize) -> u64 {
        self.base_seed.wrapping_add(index as u64 * 7919)
    }

    /// The seed model runs on frame `index` derive their RNG from.
    ///
    /// A SplitMix64 finalizer decorrelates this stream from
    /// [`DriveScenarioConfig::frame_seed`]: the model-run RNG (pruning
    /// noise, importance scores) must not replay the exact frame-generation
    /// stream, or scene randomness and model randomness move in lockstep
    /// across the sweep.
    #[must_use]
    pub const fn model_seed(&self, index: usize) -> u64 {
        let mut z = self.frame_seed(index) ^ 0x9e37_79b9_7f4a_7c15;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The seed the *pruning/importance* randomness of a model run on frame
    /// `index` uses.
    ///
    /// On a persistent drive consecutive frames share most of their active
    /// pillars, and the temporal delta path exploits exactly that — but a
    /// per-frame pruning seed would re-randomise the SpConv-P importance
    /// noise every frame, churning the pruned sets (and everything
    /// downstream) far more than the scene itself changes. Persistent drives
    /// therefore hold the pruning seed fixed at frame 0's
    /// [`DriveScenarioConfig::model_seed`] (the noise models a property of
    /// the deployed network, not of the sweep), while independent drives
    /// keep the historical per-frame stream byte-for-byte.
    #[must_use]
    pub const fn pruning_seed(&self, index: usize) -> u64 {
        if self.persistence.is_persistent() {
            self.model_seed(0)
        } else {
            self.model_seed(index)
        }
    }

    /// The combined density factor at a frame: the profile's factor times
    /// the active events' multipliers, clamped to the same `[0.05, 10.0]`
    /// guard band as [`DensityProfile::factor`].
    #[must_use]
    pub fn density_factor(&self, index: usize) -> f64 {
        let profile = self.profile.factor(index, self.num_frames.max(1));
        (profile * self.events.density_multiplier(index)).clamp(0.05, 10.0)
    }
}

/// Curated scenario presets selectable by name from the `dse` experiment's
/// command line (`--scenario stop-and-go`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NamedScenario {
    /// The legacy i.i.d. baseline: constant density, no events, no
    /// persistence — consecutive frames share no objects.
    Constant,
    /// A persistent suburb-to-downtown drive: density ramps from half to
    /// double the preset baseline while the world persists across frames.
    Urban,
    /// Persistent traffic that halts twice (queues swell, displacement
    /// freezes) with a pedestrian crossing wave during the first stop.
    StopAndGo,
    /// A persistent drive through a tunnel that empties the mid-drive
    /// frames down to the density floor.
    Tunnel,
}

impl NamedScenario {
    /// Every named scenario, in CLI listing order.
    pub const ALL: [NamedScenario; 4] = [
        NamedScenario::Constant,
        NamedScenario::Urban,
        NamedScenario::StopAndGo,
        NamedScenario::Tunnel,
    ];

    /// The CLI name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            NamedScenario::Constant => "constant",
            NamedScenario::Urban => "urban",
            NamedScenario::StopAndGo => "stop-and-go",
            NamedScenario::Tunnel => "tunnel",
        }
    }

    /// Parses a CLI name (`constant | urban | stop-and-go | tunnel`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The scenario's drive configuration over `num_frames` frames.
    #[must_use]
    pub fn config(self, num_frames: usize, base_seed: u64) -> DriveScenarioConfig {
        let n = num_frames.max(1);
        let (profile, events, persistence) = match self {
            NamedScenario::Constant => (
                DensityProfile::Constant,
                EventTimeline::empty(),
                ScenePersistence::Independent,
            ),
            NamedScenario::Urban => (
                DensityProfile::Ramp {
                    start: 0.5,
                    end: 2.0,
                },
                EventTimeline::empty(),
                ScenePersistence::persistent(),
            ),
            NamedScenario::StopAndGo => {
                // Two stops with free flow between them; pedestrians cross
                // while the first queue is held.
                let first = TimedEvent {
                    event: DriveEvent::StoppedTraffic,
                    start: n / 4,
                    end: (n / 2).max(n / 4 + 1),
                };
                let crossing = TimedEvent {
                    event: DriveEvent::CrossingWave,
                    start: first.start,
                    end: first.end,
                };
                let second = TimedEvent {
                    event: DriveEvent::StoppedTraffic,
                    start: n * 3 / 4,
                    end: n,
                };
                (
                    DensityProfile::Constant,
                    EventTimeline::new(vec![first, crossing, second]),
                    ScenePersistence::persistent(),
                )
            }
            NamedScenario::Tunnel => (
                DensityProfile::Constant,
                EventTimeline::new(vec![TimedEvent {
                    event: DriveEvent::Tunnel,
                    start: n / 3,
                    end: (n * 2 / 3).max(n / 3 + 1),
                }]),
                ScenePersistence::persistent(),
            ),
        };
        DriveScenarioConfig {
            num_frames,
            base_seed,
            profile,
            events,
            persistence,
        }
    }
}

impl std::fmt::Display for NamedScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One frame of a drive: the generated [`Frame`] plus where in the drive it
/// sits, the density factor it was generated with, the events active at it,
/// and its temporal-locality metric.
#[derive(Debug, Clone)]
pub struct DriveFrame {
    /// Position in the drive (0-based).
    pub index: usize,
    /// Density factor applied to the preset's object-count bounds (profile ×
    /// active event multipliers).
    pub density_factor: f64,
    /// Labels of the scripted events active at this frame (what the
    /// timeline scheduled — on an independent drive only their density
    /// multipliers take effect, see [`DriveScenarioConfig::events`]).
    pub active_events: Vec<&'static str>,
    /// Active-pillar overlap (Jaccard) with the *previous* frame of the
    /// drive — the temporal locality a caching backend could exploit.
    /// `None` for the first frame and for frames generated out of order via
    /// [`DriveScenario::generate_frame`].
    pub pillar_overlap: Option<f64>,
    /// The generated frame.
    pub frame: Frame,
}

/// A deterministic multi-frame drive over one dataset preset.
///
/// # Example
///
/// ```
/// use spade_pointcloud::{DatasetPreset, DensityProfile, DriveScenario, DriveScenarioConfig};
///
/// let scenario = DriveScenario::new(
///     DatasetPreset::kitti_like(),
///     DriveScenarioConfig {
///         num_frames: 5,
///         base_seed: 42,
///         profile: DensityProfile::Ramp { start: 0.5, end: 2.0 },
///         ..DriveScenarioConfig::default()
///     },
/// );
/// let frames = scenario.frames();
/// assert_eq!(frames.len(), 5);
/// // Density factors are strictly increasing along the ramp.
/// assert!(frames[4].density_factor > frames[0].density_factor);
/// ```
#[derive(Debug, Clone)]
pub struct DriveScenario {
    preset: DatasetPreset,
    config: DriveScenarioConfig,
}

impl DriveScenario {
    /// Creates a scenario over `preset` with an explicit configuration.
    #[must_use]
    pub fn new(preset: DatasetPreset, config: DriveScenarioConfig) -> Self {
        Self { preset, config }
    }

    /// A named scenario preset over `preset`.
    #[must_use]
    pub fn named(
        preset: DatasetPreset,
        scenario: NamedScenario,
        num_frames: usize,
        base_seed: u64,
    ) -> Self {
        Self::new(preset, scenario.config(num_frames, base_seed))
    }

    /// A suburb-to-downtown drive: density ramps from half to double the
    /// preset baseline. Legacy i.i.d. sampling (for the persistent variant
    /// use [`DriveScenario::named`] with [`NamedScenario::Urban`]).
    #[must_use]
    pub fn urban_approach(preset: DatasetPreset, num_frames: usize, base_seed: u64) -> Self {
        Self::new(
            preset,
            DriveScenarioConfig {
                num_frames,
                base_seed,
                profile: DensityProfile::Ramp {
                    start: 0.5,
                    end: 2.0,
                },
                ..DriveScenarioConfig::default()
            },
        )
    }

    /// The dataset preset the drive runs over.
    #[must_use]
    pub const fn preset(&self) -> &DatasetPreset {
        &self.preset
    }

    /// The scenario configuration.
    #[must_use]
    pub const fn config(&self) -> &DriveScenarioConfig {
        &self.config
    }

    /// The seed frame `index` is generated from (see
    /// [`DriveScenarioConfig::frame_seed`]).
    #[must_use]
    pub const fn frame_seed(&self, index: usize) -> u64 {
        self.config.frame_seed(index)
    }

    /// The decorrelated seed model runs on frame `index` use (see
    /// [`DriveScenarioConfig::model_seed`]).
    #[must_use]
    pub const fn model_seed(&self, index: usize) -> u64 {
        self.config.model_seed(index)
    }

    /// The pruning seed of frame `index` (see
    /// [`DriveScenarioConfig::pruning_seed`]).
    #[must_use]
    pub const fn pruning_seed(&self, index: usize) -> u64 {
        self.config.pruning_seed(index)
    }

    /// Generates frame `index` of the drive with a fresh [`DriveCursor`].
    ///
    /// Independent (legacy) frames derive their seed from the base seed and
    /// the index, so they are built directly, in any order. A persistent
    /// drive's world must be evolved from frame 0, so this pays `index`
    /// world steps (cheap) and one frame's LiDAR sampling and pillar
    /// counting; keep a [`DriveCursor`] to build many frames of one drive.
    /// Frames returned by this method carry no
    /// [`DriveFrame::pillar_overlap`] (the metric needs the previous frame).
    #[must_use]
    pub fn generate_frame(&self, index: usize) -> DriveFrame {
        DriveCursor::new(self.clone()).frame(index)
    }

    /// Generates every frame of the drive in order, with
    /// [`DriveFrame::pillar_overlap`] filled in for frames 1..n.
    #[must_use]
    pub fn frames(&self) -> Vec<DriveFrame> {
        let mut cursor = DriveCursor::new(self.clone());
        let mut frames: Vec<DriveFrame> = (0..self.config.num_frames)
            .map(|i| cursor.frame(i))
            .collect();
        Self::annotate_overlap(&mut frames);
        frames
    }

    /// One legacy i.i.d. frame: an independent scene sampled at the frame's
    /// density factor. Byte-identical to the pre-event-timeline generator
    /// for configurations without events.
    fn independent_frame(&self, index: usize) -> DriveFrame {
        let factor = self.config.density_factor(index);
        let mut scene_cfg = self.preset.scene_config();
        (scene_cfg.min_objects, scene_cfg.max_objects) = object_bounds(&scene_cfg, factor);
        let seed = self.config.frame_seed(index);
        DriveFrame {
            index,
            density_factor: factor,
            active_events: self.config.events.labels_at(index),
            pillar_overlap: None,
            frame: self
                .preset
                .generate_frame_with_scene_config(scene_cfg, seed),
        }
    }

    /// Fills [`DriveFrame::pillar_overlap`] from consecutive pairs of an
    /// already-generated frame sequence (a pure function of the frames, so
    /// it applies to any generation mode — the DSE sweep calls it after
    /// fanning frame generation across its worker pool).
    pub fn annotate_overlap(frames: &mut [DriveFrame]) {
        for i in 1..frames.len() {
            let overlap = frames[i - 1]
                .frame
                .pillars
                .pillar_overlap(&frames[i].frame.pillars);
            frames[i].pillar_overlap = Some(overlap);
        }
    }

    /// Mean consecutive-frame active-pillar overlap of a drive — the single
    /// temporal-locality number the sweep exports per workload. `0.0` for
    /// drives shorter than two frames.
    #[must_use]
    pub fn mean_overlap_of(frames: &[DriveFrame]) -> f64 {
        let overlaps: Vec<f64> = frames.iter().filter_map(|f| f.pillar_overlap).collect();
        if overlaps.is_empty() {
            0.0
        } else {
            overlaps.iter().sum::<f64>() / overlaps.len() as f64
        }
    }
}

/// Builds the frames of one drive on demand, in any order.
///
/// On a persistent drive the cursor owns the stepping: the evolving
/// [`PersistentWorld`], the background's pillar counts and the index of the
/// next frame the world has not reached. The background is sampled and
/// counted once, on the first frame built; each frame adds those counts to
/// its own object returns, and the per-pillar cap applies to the sum.
/// Asking for a later frame steps the world forward to it; asking for an
/// earlier one restarts the world from frame 0, paying world steps only —
/// LiDAR sampling and pillar counting happen for the requested frame alone.
/// An independent drive's frames share nothing, so each is built directly.
///
/// Every frame equals the same index of [`DriveScenario::frames`], except
/// that it carries no [`DriveFrame::pillar_overlap`].
///
/// # Example
///
/// ```
/// use spade_pointcloud::{DatasetPreset, DriveCursor, DriveScenario, NamedScenario};
///
/// let scenario =
///     DriveScenario::named(DatasetPreset::kitti_like(), NamedScenario::StopAndGo, 6, 7);
/// let mut cursor = DriveCursor::new(scenario.clone());
/// let late = cursor.frame(4);
/// let early = cursor.frame(1); // restarts the world, samples one frame
/// let all = scenario.frames();
/// assert_eq!(late.frame.pillars, all[4].frame.pillars);
/// assert_eq!(early.frame.pillars, all[1].frame.pillars);
/// ```
#[derive(Debug, Clone)]
pub struct DriveCursor {
    scenario: DriveScenario,
    walk: Option<WorldWalk>,
}

/// A persistent drive's stepping state: the world after `next` steps and
/// the drive's background counts.
#[derive(Debug, Clone)]
struct WorldWalk {
    world: PersistentWorld,
    next: usize,
    background: SparseCounts,
}

impl DriveCursor {
    /// A cursor before the first frame of `scenario`. Nothing is sampled
    /// until a frame is asked for.
    #[must_use]
    pub const fn new(scenario: DriveScenario) -> Self {
        Self {
            scenario,
            walk: None,
        }
    }

    /// The drive the cursor walks.
    #[must_use]
    pub const fn scenario(&self) -> &DriveScenario {
        &self.scenario
    }

    /// Builds frame `index` of the drive (see the type docs for what that
    /// costs on each kind of drive).
    pub fn frame(&mut self, index: usize) -> DriveFrame {
        let ScenePersistence::Persistent { frame_interval_s } = self.scenario.config.persistence
        else {
            return self.scenario.independent_frame(index);
        };
        let scenario = &self.scenario;
        let scene_cfg = scenario.preset.scene_config();
        let lidar_cfg = scenario.preset.lidar_config();
        let pillar_cfg = scenario.preset.pillar_config();
        let walk = self.walk.get_or_insert_with(|| {
            // The static world (ground carpet + clutter) does not move
            // between sweeps: count it once per drive, on the base seed's
            // stream.
            let mut background = PillarCounter::new(&pillar_cfg);
            lidar::sample_background_into(
                scene_cfg.x_range,
                scene_cfg.y_range,
                &lidar_cfg,
                scenario.config.base_seed,
                &mut background,
            );
            WorldWalk {
                world: PersistentWorld::new(scene_cfg.clone(), frame_interval_s),
                next: 0,
                background: background.into_sparse(),
            }
        });
        if index < walk.next {
            walk.world = PersistentWorld::new(scene_cfg.clone(), frame_interval_s);
            walk.next = 0;
        }
        let config = &scenario.config;
        while walk.next <= index {
            let step = walk.next;
            let (min, max) = object_bounds(&scene_cfg, config.density_factor(step));
            let seed = config.frame_seed(step);
            // Mirror the i.i.d. generator's per-frame object-count draw.
            let mut count_rng = StdRng::seed_from_u64(seed ^ 0x7a26_e701);
            walk.world.step(&WorldStep {
                target_count: count_rng.gen_range(min..=max),
                speed_multiplier: config.events.speed_multiplier(step),
                crossing_spawns: config.events.crossing_spawns(step),
                seed,
            });
            walk.next += 1;
        }
        let scene = walk.world.scene();
        let mut counter = PillarCounter::new(&pillar_cfg);
        let seed = config.frame_seed(index).wrapping_add(1);
        lidar::sample_object_returns_into(&scene, &lidar_cfg, seed, &mut counter);
        counter.add(&walk.background);
        DriveFrame {
            index,
            density_factor: config.density_factor(index),
            active_events: config.events.labels_at(index),
            pillar_overlap: None,
            frame: Frame {
                scene,
                num_points: counter.points(),
                pillars: counter.finish(),
            },
        }
    }
}

/// The `(min_objects, max_objects)` bounds of a frame at density `factor`:
/// the scene's bounds scaled and rounded, with at least one object and
/// `max ≥ min`.
fn object_bounds(scene_cfg: &SceneConfig, factor: f64) -> (usize, usize) {
    let min = ((scene_cfg.min_objects as f64 * factor).round() as usize).max(1);
    let max = ((scene_cfg.max_objects as f64 * factor).round() as usize).max(min);
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_is_deterministic_for_a_seed() {
        let scenario = DriveScenario::urban_approach(DatasetPreset::kitti_like(), 4, 9);
        let a = scenario.frames();
        let b = scenario.frames();
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.frame.num_points, fb.frame.num_points);
            assert_eq!(
                fa.frame.pillars.active_coords,
                fb.frame.pillars.active_coords
            );
        }
    }

    #[test]
    fn ramp_profile_grows_object_count() {
        // With a 0.5 -> 2.0 ramp the object-count ranges of the first and
        // last frames are disjoint (KITTI-like 8..=24 becomes 4..=12 vs.
        // 16..=48), so the comparison holds for every seed.
        let scenario = DriveScenario::urban_approach(DatasetPreset::kitti_like(), 6, 3);
        let frames = scenario.frames();
        let first = frames.first().unwrap().frame.scene.objects().len();
        let last = frames.last().unwrap().frame.scene.objects().len();
        assert!(last > first, "last {last} should exceed first {first}");
    }

    #[test]
    fn occupancy_drifts_with_density() {
        let scenario = DriveScenario::urban_approach(DatasetPreset::kitti_like(), 5, 17);
        let occ: Vec<f64> = scenario
            .frames()
            .iter()
            .map(|f| f.frame.pillars.occupancy())
            .collect();
        assert_eq!(occ.len(), 5);
        assert!(occ.iter().all(|&o| o > 0.0));
        // The dense end of the drive occupies more of the BEV grid.
        assert!(occ[4] > occ[0], "occupancy should rise: {occ:?}");
    }

    #[test]
    fn profile_factors_are_clamped_and_shaped() {
        assert_eq!(DensityProfile::Constant.factor(3, 10), 1.0);
        let ramp = DensityProfile::Ramp {
            start: 1.0,
            end: 3.0,
        };
        assert!((ramp.factor(0, 5) - 1.0).abs() < 1e-12);
        assert!((ramp.factor(4, 5) - 3.0).abs() < 1e-12);
        let peak = DensityProfile::Peak {
            base: 1.0,
            peak: 2.0,
        };
        assert!(peak.factor(2, 5) > peak.factor(0, 5));
        assert!((peak.factor(0, 5) - peak.factor(4, 5)).abs() < 1e-12);
        // Clamping guards absurd profiles.
        let wild = DensityProfile::Ramp {
            start: -5.0,
            end: 100.0,
        };
        assert!(wild.factor(0, 2) >= 0.05);
        assert!(wild.factor(1, 2) <= 10.0);
    }

    #[test]
    fn factor_clamps_indices_beyond_the_drive_end() {
        // Regression: `factor(index, num_frames)` with `index >= num_frames`
        // (reachable via the public out-of-order `generate_frame`) used to
        // extrapolate a Ramp beyond `end`.
        let ramp = DensityProfile::Ramp {
            start: 0.5,
            end: 2.0,
        };
        assert_eq!(ramp.factor(5, 5), ramp.factor(4, 5));
        assert_eq!(ramp.factor(500, 5), ramp.factor(4, 5));
        let peak = DensityProfile::Peak {
            base: 1.0,
            peak: 2.0,
        };
        assert_eq!(peak.factor(10, 5), peak.factor(4, 5));
    }

    #[test]
    fn single_frame_drive_uses_start_of_profile() {
        let p = DensityProfile::Ramp {
            start: 0.5,
            end: 2.0,
        };
        assert!((p.factor(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn frames_can_be_generated_out_of_order() {
        let scenario = DriveScenario::urban_approach(DatasetPreset::kitti_like(), 4, 21);
        let all = scenario.frames();
        let third = scenario.generate_frame(2);
        assert_eq!(
            all[2].frame.pillars.active_coords,
            third.frame.pillars.active_coords
        );
    }

    #[test]
    fn frame_and_model_seed_streams_are_distinct() {
        let cfg = DriveScenarioConfig::constant(8, 2024);
        // The frame stream keeps the historical derivation exactly.
        for i in 0..8 {
            assert_eq!(cfg.frame_seed(i), 2024u64.wrapping_add(i as u64 * 7919));
            assert_ne!(cfg.model_seed(i), cfg.frame_seed(i));
        }
        // The two streams stay disjoint across a realistic index range.
        let frame_seeds: Vec<u64> = (0..1000).map(|i| cfg.frame_seed(i)).collect();
        assert!((0..1000).all(|i| !frame_seeds.contains(&cfg.model_seed(i))));
    }

    #[test]
    fn pruning_seed_is_drive_stable_only_when_persistent() {
        // Independent drives keep the historical per-frame stream exactly
        // (the legacy golden CSVs depend on it)…
        let iid = DriveScenarioConfig::constant(6, 99);
        for i in 0..6 {
            assert_eq!(iid.pruning_seed(i), iid.model_seed(i));
        }
        // …while persistent drives pin pruning randomness to frame 0, so
        // frame-to-frame churn reflects the scene, not re-rolled noise.
        let sng = NamedScenario::StopAndGo.config(6, 99);
        for i in 0..6 {
            assert_eq!(sng.pruning_seed(i), sng.model_seed(0));
        }
        assert_ne!(sng.pruning_seed(3), sng.model_seed(3));
    }

    #[test]
    fn event_timeline_composes_multipliers() {
        let tl = EventTimeline::new(vec![
            TimedEvent {
                event: DriveEvent::StoppedTraffic,
                start: 2,
                end: 4,
            },
            TimedEvent {
                event: DriveEvent::CrossingWave,
                start: 3,
                end: 5,
            },
        ]);
        assert_eq!(tl.density_multiplier(0), 1.0);
        assert_eq!(tl.speed_multiplier(0), 1.0);
        assert_eq!(tl.crossing_spawns(0), 0);
        assert_eq!(tl.density_multiplier(2), 1.6);
        assert_eq!(tl.speed_multiplier(2), 0.0);
        // Both active at frame 3.
        assert_eq!(tl.density_multiplier(3), 1.6);
        assert_eq!(tl.speed_multiplier(3), 0.0);
        assert_eq!(tl.crossing_spawns(3), 3);
        assert_eq!(tl.labels_at(3), vec!["stopped-traffic", "crossing-wave"]);
        // Crossing wave alone neither slows nor swells traffic.
        assert_eq!(tl.density_multiplier(4), 1.0);
        assert_eq!(tl.speed_multiplier(4), 1.0);
        assert_eq!(tl.crossing_spawns(4), 3);
        assert!(EventTimeline::empty().is_empty());
    }

    #[test]
    fn named_scenarios_parse_and_shape_their_configs() {
        for s in NamedScenario::ALL {
            assert_eq!(NamedScenario::parse(s.name()), Some(s));
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(NamedScenario::parse("warp-drive"), None);
        let constant = NamedScenario::Constant.config(10, 1);
        assert!(!constant.persistence.is_persistent());
        assert!(constant.events.is_empty());
        let urban = NamedScenario::Urban.config(10, 1);
        assert!(urban.persistence.is_persistent());
        assert!(matches!(urban.profile, DensityProfile::Ramp { .. }));
        let sng = NamedScenario::StopAndGo.config(12, 1);
        assert!(sng.persistence.is_persistent());
        assert!(sng.events.events().len() == 3);
        assert_eq!(sng.events.speed_multiplier(3), 0.0, "first stop holds");
        let tunnel = NamedScenario::Tunnel.config(12, 1);
        assert!(tunnel.density_factor(5) < 0.1, "tunnel empties the frame");
        assert!(
            tunnel.density_factor(0) > 0.9,
            "open road before the tunnel"
        );
    }

    #[test]
    fn persistent_drive_is_deterministic_and_annotates_overlap() {
        let scenario =
            DriveScenario::named(DatasetPreset::kitti_like(), NamedScenario::Urban, 4, 2024);
        let a = scenario.frames();
        let b = scenario.frames();
        assert_eq!(a.len(), 4);
        for (fa, fb) in a.iter().zip(&b) {
            assert_eq!(fa.frame.num_points, fb.frame.num_points);
            assert_eq!(
                fa.frame.pillars.active_coords,
                fb.frame.pillars.active_coords
            );
            assert_eq!(fa.pillar_overlap, fb.pillar_overlap);
        }
        assert!(a[0].pillar_overlap.is_none());
        assert!(a[1..].iter().all(|f| f.pillar_overlap.is_some()));
        assert!(DriveScenario::mean_overlap_of(&a) > 0.5);
    }

    #[test]
    fn persistent_out_of_order_frame_matches_the_sequential_drive() {
        let scenario =
            DriveScenario::named(DatasetPreset::kitti_like(), NamedScenario::StopAndGo, 5, 7);
        let all = scenario.frames();
        let third = scenario.generate_frame(2);
        assert_eq!(
            all[2].frame.pillars.active_coords,
            third.frame.pillars.active_coords
        );
        assert!(
            third.pillar_overlap.is_none(),
            "out-of-order carries no overlap"
        );
    }

    #[test]
    fn tunnel_scenario_empties_the_mid_drive_frames() {
        let scenario =
            DriveScenario::named(DatasetPreset::kitti_like(), NamedScenario::Tunnel, 9, 2024);
        let frames = scenario.frames();
        let objects_at = |i: usize| frames[i].frame.scene.objects().len();
        let mid = 4; // inside [3, 6)
        assert!(frames[mid].active_events.contains(&"tunnel"));
        assert!(
            objects_at(mid) < objects_at(0),
            "tunnel frame {} objects vs open road {}",
            objects_at(mid),
            objects_at(0)
        );
        assert!(objects_at(mid) <= 2);
        // Traffic returns after the tunnel.
        assert!(objects_at(8) > objects_at(mid));
    }

    #[test]
    fn stopped_traffic_freezes_the_scene() {
        let scenario =
            DriveScenario::named(DatasetPreset::kitti_like(), NamedScenario::StopAndGo, 8, 11);
        let frames = scenario.frames();
        // Frames 2 and 3 sit inside the first stop ([2, 4) for n = 8): held
        // traffic means near-total overlap between them.
        assert!(frames[3].active_events.contains(&"stopped-traffic"));
        let overlap = frames[3].pillar_overlap.unwrap();
        assert!(overlap > 0.9, "frozen traffic overlap {overlap}");
    }
}
