//! Points and oriented boxes.

use serde::{Deserialize, Serialize};

/// A point in 3D space with an intensity value, as produced by a LiDAR.
///
/// # Example
///
/// ```
/// use spade_pointcloud::Point3;
/// let p = Point3::new(1.0, 2.0, 0.5);
/// assert_eq!(p.intensity, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point3 {
    /// Forward (X) coordinate in metres.
    pub x: f64,
    /// Lateral (Y) coordinate in metres.
    pub y: f64,
    /// Vertical (Z) coordinate in metres.
    pub z: f64,
    /// Reflectance intensity in `[0, 1]`.
    pub intensity: f64,
}

impl Point3 {
    /// Creates a point with zero intensity.
    #[must_use]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self {
            x,
            y,
            z,
            intensity: 0.0,
        }
    }

    /// Creates a point with an intensity value.
    #[must_use]
    pub const fn with_intensity(x: f64, y: f64, z: f64, intensity: f64) -> Self {
        Self { x, y, z, intensity }
    }
}

/// An oriented 3D bounding box: centre, dimensions, and yaw about the Z axis.
///
/// This is the standard 7-DoF box parameterisation used by KITTI/nuScenes
/// 3D object detection.
///
/// # Example
///
/// ```
/// use spade_pointcloud::BoundingBox3;
/// let b = BoundingBox3::new(10.0, 0.0, 0.0, 4.0, 2.0, 1.6, 0.0);
/// assert!(b.contains_bev(10.5, 0.5));
/// assert!(!b.contains_bev(13.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox3 {
    /// Centre X (m).
    pub cx: f64,
    /// Centre Y (m).
    pub cy: f64,
    /// Centre Z (m).
    pub cz: f64,
    /// Length along the box's local X axis (m).
    pub length: f64,
    /// Width along the box's local Y axis (m).
    pub width: f64,
    /// Height along Z (m).
    pub height: f64,
    /// Yaw angle about Z (radians).
    pub yaw: f64,
}

impl BoundingBox3 {
    /// Creates a box from centre, dimensions, and yaw.
    #[must_use]
    pub const fn new(
        cx: f64,
        cy: f64,
        cz: f64,
        length: f64,
        width: f64,
        height: f64,
        yaw: f64,
    ) -> Self {
        Self {
            cx,
            cy,
            cz,
            length,
            width,
            height,
            yaw,
        }
    }

    /// Returns `true` if the BEV point `(x, y)` lies inside the box footprint.
    #[must_use]
    pub fn contains_bev(&self, x: f64, y: f64) -> bool {
        let (s, c) = self.yaw.sin_cos();
        let dx = x - self.cx;
        let dy = y - self.cy;
        // Rotate into the box frame.
        let lx = dx * c + dy * s;
        let ly = -dx * s + dy * c;
        lx.abs() <= self.length / 2.0 + 1e-12 && ly.abs() <= self.width / 2.0 + 1e-12
    }

    /// Returns `true` if the 3D point lies inside the box.
    #[must_use]
    pub fn contains(&self, p: &Point3) -> bool {
        self.contains_bev(p.x, p.y) && (p.z - self.cz).abs() <= self.height / 2.0 + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_bev_respects_rotation() {
        let b = BoundingBox3::new(0.0, 0.0, 0.0, 4.0, 1.0, 1.0, std::f64::consts::FRAC_PI_2);
        // After 90° rotation the long axis points along Y.
        assert!(b.contains_bev(0.0, 1.8));
        assert!(!b.contains_bev(1.8, 0.0));
    }

    #[test]
    fn contains_checks_height() {
        let b = BoundingBox3::new(0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 0.0);
        assert!(b.contains(&Point3::new(0.0, 0.0, 1.9)));
        assert!(!b.contains(&Point3::new(0.0, 0.0, 2.5)));
    }
}
