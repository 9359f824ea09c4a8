//! Point cloud → pillar discretisation.

use crate::geometry::Point3;
use serde::{Deserialize, Serialize};
use spade_tensor::{GridShape, PillarCoord};

/// Configuration of the BEV pillarisation grid.
///
/// # Example
///
/// ```
/// use spade_pointcloud::PillarizationConfig;
/// let cfg = PillarizationConfig::kitti_like();
/// let grid = cfg.grid_shape();
/// assert_eq!(grid.height, 432);
/// assert_eq!(grid.width, 496);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PillarizationConfig {
    /// X range covered by the grid (m).
    pub x_range: (f64, f64),
    /// Y range covered by the grid (m).
    pub y_range: (f64, f64),
    /// Z range of points that are kept (m).
    pub z_range: (f64, f64),
    /// Pillar size along X (m).
    pub pillar_size_x: f64,
    /// Pillar size along Y (m).
    pub pillar_size_y: f64,
    /// Maximum points retained per pillar (PointPillars keeps 32–100).
    pub max_points_per_pillar: usize,
}

impl PillarizationConfig {
    /// KITTI-like PointPillars grid: 0.16 m pillars over 69.12 × 79.36 m,
    /// giving a 432 × 496 BEV grid.
    #[must_use]
    pub fn kitti_like() -> Self {
        Self {
            x_range: (0.0, 69.12),
            y_range: (-39.68, 39.68),
            z_range: (-3.0, 1.0),
            pillar_size_x: 0.16,
            pillar_size_y: 0.16,
            max_points_per_pillar: 32,
        }
    }

    /// nuScenes-like grid: 0.2 m pillars over ±51.2 m, giving 512 × 512.
    #[must_use]
    pub fn nuscenes_like() -> Self {
        Self {
            x_range: (-51.2, 51.2),
            y_range: (-51.2, 51.2),
            z_range: (-5.0, 3.0),
            pillar_size_x: 0.2,
            pillar_size_y: 0.2,
            max_points_per_pillar: 20,
        }
    }

    /// The BEV grid shape induced by the ranges and pillar sizes. Rows bin X
    /// and columns bin Y.
    #[must_use]
    pub fn grid_shape(&self) -> GridShape {
        let height = ((self.x_range.1 - self.x_range.0) / self.pillar_size_x).round() as u32;
        let width = ((self.y_range.1 - self.y_range.0) / self.pillar_size_y).round() as u32;
        GridShape::new(height.max(1), width.max(1))
    }

    /// Maps a point to its pillar coordinate, or `None` if it falls outside
    /// the grid or the Z crop.
    #[must_use]
    pub fn coord_of(&self, p: &Point3) -> Option<PillarCoord> {
        if p.z < self.z_range.0 || p.z >= self.z_range.1 {
            return None;
        }
        if p.x < self.x_range.0 || p.x >= self.x_range.1 {
            return None;
        }
        if p.y < self.y_range.0 || p.y >= self.y_range.1 {
            return None;
        }
        let row = ((p.x - self.x_range.0) / self.pillar_size_x) as u32;
        let col = ((p.y - self.y_range.0) / self.pillar_size_y) as u32;
        let grid = self.grid_shape();
        let coord = PillarCoord::new(row.min(grid.height - 1), col.min(grid.width - 1));
        Some(coord)
    }
}

impl Default for PillarizationConfig {
    fn default() -> Self {
        Self::kitti_like()
    }
}

/// The result of pillarising a point cloud: active coordinates (CPR order)
/// and how many points each pillar retains.
///
/// Only the point counts are kept, not the points: the pillar feature
/// encoder is modelled by its operation count, which depends on nothing
/// else.
#[derive(Debug, Clone, PartialEq)]
pub struct PillarizedCloud {
    /// Grid shape of the pillarisation.
    pub grid: GridShape,
    /// Active pillar coordinates, sorted row-major (CPR order).
    pub active_coords: Vec<PillarCoord>,
    /// Retained points per active pillar, parallel to `active_coords`: the
    /// number of points that fell into the pillar, capped at
    /// `max_points_per_pillar`.
    pub point_counts: Vec<u32>,
}

impl PillarizedCloud {
    /// Number of active pillars.
    #[must_use]
    pub fn num_active(&self) -> usize {
        self.active_coords.len()
    }

    /// Occupancy: active pillars / total grid cells.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.num_active() as f64 / self.grid.num_cells() as f64
    }

    /// Active-pillar overlap with another pillarisation: the Jaccard index
    /// `|A ∩ B| / |A ∪ B|` of the two active-coordinate sets. Two clouds
    /// with no active pillars are identical (1.0). Both coordinate lists are
    /// CPR-sorted by construction, so the intersection is one linear merge.
    ///
    /// This is the temporal-locality metric of a drive: the overlap between
    /// consecutive frames is the fraction of the working set a caching
    /// backend could reuse frame to frame.
    #[must_use]
    pub fn pillar_overlap(&self, other: &PillarizedCloud) -> f64 {
        let (a, b) = (&self.active_coords, &other.active_coords);
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let mut inter = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = a.len() + b.len() - inter;
        inter as f64 / union as f64
    }
}

/// Discretises a point cloud onto the BEV grid: the active pillars in CPR
/// order and each one's point count, capped at `max_points_per_pillar`.
/// Points outside the grid or the Z crop are dropped.
#[must_use]
pub fn pillarize(points: &[Point3], config: &PillarizationConfig) -> PillarizedCloud {
    let grid = config.grid_shape();
    // One counter per grid cell; a row-major scan then yields CPR order.
    let mut cell_points = vec![0u32; grid.num_cells()];
    for p in points {
        if let Some(coord) = config.coord_of(p) {
            cell_points[coord.linear_index(grid)] += 1;
        }
    }
    let cap = u32::try_from(config.max_points_per_pillar).unwrap_or(u32::MAX);
    let mut active_coords = Vec::new();
    let mut point_counts = Vec::new();
    for (row, cells) in (0..grid.height).zip(cell_points.chunks_exact(grid.width as usize)) {
        for (col, &n) in (0..grid.width).zip(cells) {
            if n > 0 {
                active_coords.push(PillarCoord::new(row, col));
                point_counts.push(n.min(cap));
            }
        }
    }
    PillarizedCloud {
        grid,
        active_coords,
        point_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kitti_grid_shape_matches_pointpillars() {
        let cfg = PillarizationConfig::kitti_like();
        assert_eq!(cfg.grid_shape(), GridShape::new(432, 496));
        let cfg = PillarizationConfig::nuscenes_like();
        assert_eq!(cfg.grid_shape(), GridShape::new(512, 512));
    }

    #[test]
    fn coord_of_filters_out_of_range_points() {
        let cfg = PillarizationConfig::kitti_like();
        assert!(cfg.coord_of(&Point3::new(-1.0, 0.0, 0.0)).is_none());
        assert!(cfg.coord_of(&Point3::new(10.0, 100.0, 0.0)).is_none());
        assert!(cfg.coord_of(&Point3::new(10.0, 0.0, 5.0)).is_none());
        assert!(cfg.coord_of(&Point3::new(10.0, 0.0, 0.0)).is_some());
    }

    #[test]
    fn coord_mapping_is_consistent_with_pillar_size() {
        let cfg = PillarizationConfig::kitti_like();
        let c = cfg.coord_of(&Point3::new(0.0, -39.68, 0.0)).unwrap();
        assert_eq!(c, PillarCoord::new(0, 0));
        let c = cfg.coord_of(&Point3::new(0.17, -39.50, 0.0)).unwrap();
        assert_eq!(c, PillarCoord::new(1, 1));
    }

    #[test]
    fn pillarize_groups_points_and_sorts_coords() {
        let cfg = PillarizationConfig::kitti_like();
        let pts = vec![
            Point3::new(5.0, 5.0, 0.0),
            Point3::new(5.01, 5.01, 0.1),
            Point3::new(30.0, -20.0, 0.0),
        ];
        let pc = pillarize(&pts, &cfg);
        assert_eq!(pc.num_active(), 2);
        // CPR order: sorted row-major.
        assert!(pc.active_coords.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(pc.point_counts.iter().sum::<u32>(), 3);
    }

    #[test]
    fn max_points_per_pillar_is_enforced() {
        let mut cfg = PillarizationConfig::kitti_like();
        cfg.max_points_per_pillar = 4;
        let pts: Vec<Point3> = (0..20)
            .map(|i| Point3::new(5.0, 5.0, -1.0 + i as f64 * 0.05))
            .collect();
        let pc = pillarize(&pts, &cfg);
        assert_eq!(pc.num_active(), 1);
        assert_eq!(pc.point_counts, vec![4]);
    }

    #[test]
    fn empty_cloud_gives_empty_pillars() {
        let pc = pillarize(&[], &PillarizationConfig::kitti_like());
        assert_eq!(pc.num_active(), 0);
        assert_eq!(pc.occupancy(), 0.0);
    }

    #[test]
    fn pillar_overlap_is_the_jaccard_of_active_sets() {
        let cfg = PillarizationConfig::kitti_like();
        let a = pillarize(
            &[Point3::new(5.0, 5.0, 0.0), Point3::new(30.0, -20.0, 0.0)],
            &cfg,
        );
        let b = pillarize(
            &[Point3::new(5.0, 5.0, 0.0), Point3::new(50.0, 10.0, 0.0)],
            &cfg,
        );
        // One shared pillar, three in the union.
        assert!((a.pillar_overlap(&b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.pillar_overlap(&a), 1.0);
        // Symmetric; disjoint clouds overlap 0; empty-vs-empty is identical.
        assert_eq!(a.pillar_overlap(&b), b.pillar_overlap(&a));
        let empty = pillarize(&[], &cfg);
        assert_eq!(a.pillar_overlap(&empty), 0.0);
        assert_eq!(empty.pillar_overlap(&empty), 1.0);
    }
}
