//! Pinhole depth-camera renderer.
//!
//! Renders Kinect-style normalized depth frames of the corridor scene: a
//! floor plane, a back wall behind the BS, and every active pedestrian as
//! a camera-facing billboard (a depth-image silhouette — the same visual
//! content the paper's Fig. 2(a) raw frames show). Depth is z-depth along
//! the optical axis, normalized to `[0, 1]` between `near_m` and `far_m`.

use sl_tensor::Tensor;

use crate::config::CameraConfig;
use crate::pedestrian::Pedestrian;

/// A depth camera fixed at the UE, looking down the LoS path at the BS.
///
/// Coordinate frame (the one [`crate::Pedestrian`] walks in): BS at the origin, UE at
/// `(link_distance, 0)`; the camera sits at the UE at `height_m` above the
/// floor and looks in the `-x` direction, with `+y` to image-right and
/// `+z` up.
#[derive(Debug, Clone)]
pub struct DepthCamera {
    config: CameraConfig,
    /// BS–UE distance: the camera's x-coordinate.
    link_distance_m: f64,
    /// Focal length in pixel units.
    focal_px: f64,
    /// Distance from the camera to the back wall behind the BS.
    wall_depth_m: f64,
}

impl DepthCamera {
    /// Creates a camera for a link of `link_distance_m` metres.
    pub fn new(config: CameraConfig, link_distance_m: f64) -> Self {
        assert!(
            link_distance_m > 0.0,
            "DepthCamera: link distance must be positive"
        );
        let focal_px = (config.image_width as f64 / 2.0) / (config.horizontal_fov_rad / 2.0).tan();
        DepthCamera {
            // Back wall 3 m behind the BS (far enough that the floor
            // stays visible in the bottom rows of the ROI-cropped view).
            wall_depth_m: link_distance_m + 3.0,
            config,
            link_distance_m,
            focal_px,
        }
    }

    /// The camera configuration.
    pub fn config(&self) -> &CameraConfig {
        &self.config
    }

    /// Normalizes a z-depth in metres to `[0, 1]`.
    pub fn normalize_depth(&self, depth_m: f64) -> f32 {
        let d = (depth_m - self.config.near_m) / (self.config.far_m - self.config.near_m);
        d.clamp(0.0, 1.0) as f32
    }

    /// Renders the scene at time `t` into a `[H, W]` tensor of normalized
    /// depth. Only pedestrians active at `t` appear.
    pub fn render(&self, pedestrians: &[Pedestrian], t: f64) -> Tensor {
        let (h, w) = (self.config.image_height, self.config.image_width);
        let cx = w as f64 / 2.0 - 0.5;
        let cy = h as f64 / 2.0 - 0.5;

        // Background: back wall everywhere, floor where it is nearer.
        let mut depth = vec![self.wall_depth_m; h * w];
        for row in 0..h {
            let v_slope = (cy - row as f64) / self.focal_px; // >0 above axis
            if v_slope < 0.0 {
                // Ray descends: hits the floor at z-depth cam_h / |slope|.
                let d_floor = self.config.height_m / (-v_slope);
                if d_floor < self.wall_depth_m {
                    for col in 0..w {
                        depth[row * w + col] = d_floor;
                    }
                }
            }
        }

        // Pedestrians as billboards, z-buffered.
        for p in pedestrians {
            let Some(y) = p.y_at(t) else { continue };
            let d = self.link_distance_m - p.cross_x; // z-depth from camera
            if d <= self.config.near_m {
                continue;
            }
            // Horizontal extent: body centre at lateral offset y.
            let u_lo = (y - p.width_m / 2.0) / d * self.focal_px + cx;
            let u_hi = (y + p.width_m / 2.0) / d * self.focal_px + cx;
            // Vertical extent: feet at z = 0, head at z = height.
            let v_feet = (0.0 - self.config.height_m) / d * self.focal_px;
            let v_head = (p.height_m - self.config.height_m) / d * self.focal_px;
            let row_top = (cy - v_head).ceil().max(0.0) as usize;
            let row_bot = (cy - v_feet).floor().min(h as f64 - 1.0);
            let col_lo = u_lo.ceil().max(0.0) as usize;
            let col_hi = u_hi.floor().min(w as f64 - 1.0);
            if row_bot < 0.0 || col_hi < 0.0 {
                continue;
            }
            let (row_bot, col_hi) = (row_bot as usize, col_hi as usize);
            for row in row_top..=row_bot.min(h - 1) {
                for col in col_lo..=col_hi.min(w - 1) {
                    let cell = &mut depth[row * w + col];
                    if d < *cell {
                        *cell = d;
                    }
                }
            }
        }

        // Fill a pre-shaped tensor instead of round-tripping through the
        // fallible constructor: the buffer is h*w by construction, so
        // there is no length-mismatch path to handle.
        let mut img = Tensor::zeros([h, w]);
        for (px, &d) in img.data_mut().iter_mut().zip(&depth) {
            *px = self.normalize_depth(d);
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SceneConfig;

    fn camera() -> DepthCamera {
        DepthCamera::new(CameraConfig::paper(), 4.0)
    }

    fn pedestrian_at(cross_x: f64, y_now: f64) -> Pedestrian {
        // A walker positioned so that y_at(0) == y_now.
        Pedestrian {
            cross_x,
            spawn_time_s: -(y_now + 3.0), // speed 1, dir +1, start -3
            speed_mps: 1.0,
            direction: 1.0,
            width_m: 0.5,
            height_m: 1.8,
            start_y_m: -3.0,
            corridor_half_m: 3.0,
        }
    }

    #[test]
    fn empty_scene_is_floor_and_wall() {
        let cam = camera();
        let img = cam.render(&[], 0.0);
        assert_eq!(img.dims(), &[40, 40]);
        // Top half: back wall at 7 m, clamped to the far plane.
        let wall = cam.normalize_depth(7.0);
        assert!((img.at(&[0, 20]) - wall).abs() < 1e-6);
        // Bottom rows: floor, nearer than the wall.
        assert!(img.at(&[39, 20]) < wall);
        // Depth increases (floor recedes) toward the image centre.
        assert!(img.at(&[39, 20]) < img.at(&[30, 20]));
    }

    #[test]
    fn pedestrian_on_los_appears_centred() {
        let cam = camera();
        let p = pedestrian_at(2.0, 0.0); // 2 m from camera, on the LoS line
        let img = cam.render(&[p], 0.0);
        let person_depth = cam.normalize_depth(2.0);
        // Centre column, mid height: the body.
        assert!((img.at(&[20, 20]) - person_depth).abs() < 1e-6);
        // Far edges: background.
        assert!(img.at(&[20, 0]) > person_depth);
        assert!(img.at(&[20, 39]) > person_depth);
    }

    #[test]
    fn nearer_pedestrian_occludes_farther() {
        let cam = camera();
        let near = pedestrian_at(3.0, 0.0); // 1 m from camera
        let far = pedestrian_at(1.0, 0.0); // 3 m from camera
        let img = cam.render(&[far.clone(), near.clone()], 0.0);
        assert!((img.at(&[20, 20]) - cam.normalize_depth(1.0)).abs() < 1e-6);
        // Order independence.
        let img2 = cam.render(&[near, far], 0.0);
        assert_eq!(img, img2);
    }

    #[test]
    fn off_axis_pedestrian_appears_off_centre() {
        let cam = camera();
        let p = pedestrian_at(2.0, 0.6); // 0.6 m to image-right at 2 m
        let img = cam.render(&[p], 0.0);
        let person = cam.normalize_depth(2.0);
        // Present on the right side, absent at the centre.
        let right_cols: Vec<f32> = (25..40).map(|c| img.at(&[20, c])).collect();
        assert!(right_cols.iter().any(|&v| (v - person).abs() < 1e-6));
        assert!((img.at(&[20, 18]) - person).abs() > 1e-3);
    }

    #[test]
    fn pedestrian_outside_fov_invisible() {
        let cam = camera();
        let p = pedestrian_at(2.0, 2.5); // far outside the 57° FoV at 2 m
        let img = cam.render(&[p], 0.0);
        let empty = cam.render(&[], 0.0);
        assert_eq!(img, empty);
    }

    #[test]
    fn approaching_pedestrian_grows_then_crosses() {
        // The cross-modal timing property: the silhouette appears before
        // the body reaches the LoS line.
        let cam = camera();
        let cfg = SceneConfig::paper();
        let p = Pedestrian {
            cross_x: 2.0,
            spawn_time_s: 0.0,
            speed_mps: 1.0,
            direction: 1.0,
            width_m: 0.5,
            height_m: 1.8,
            start_y_m: -cfg.corridor_half_m,
            corridor_half_m: cfg.corridor_half_m,
        };
        let person = cam.normalize_depth(2.0);
        let count_person = |t: f64| {
            cam.render(std::slice::from_ref(&p), t)
                .data()
                .iter()
                .filter(|&&v| (v - person).abs() < 1e-6)
                .count()
        };
        let early = count_person(1.0); // y = -2: outside FoV
        let nearly = count_person(2.6); // y = -0.4: inside FoV, off the line
        let crossing = count_person(3.0); // y = 0: on the line
        assert_eq!(early, 0);
        assert!(nearly > 0, "camera must see the pedestrian before crossing");
        assert!(crossing > nearly);
    }

    #[test]
    fn depth_normalization_clamps() {
        let cam = camera();
        assert_eq!(cam.normalize_depth(0.1), 0.0);
        assert_eq!(cam.normalize_depth(100.0), 1.0);
        let mid = cam.normalize_depth(3.25); // (3.25-0.5)/5.5 = 0.5
        assert!((mid - 0.5).abs() < 1e-6);
    }
}
