//! Scene and camera configuration.

/// Pinhole depth-camera parameters.
///
/// The camera sits at the UE, at `height_m` above the floor, looking
/// straight down the line-of-sight path toward the BS. Depth values are
/// normalized Kinect-style: `0` at `near_m`, `1` at `far_m` and beyond
/// (background).
#[derive(Debug, Clone, PartialEq)]
pub struct CameraConfig {
    /// Image height in pixels (`N_H`).
    pub image_height: usize,
    /// Image width in pixels (`N_W`).
    pub image_width: usize,
    /// Horizontal field of view in radians.
    pub horizontal_fov_rad: f64,
    /// Camera height above the floor in metres.
    pub height_m: f64,
    /// Nearest representable depth in metres.
    pub near_m: f64,
    /// Depth mapped to 1.0 (background) in metres.
    pub far_m: f64,
}

impl CameraConfig {
    /// A Kinect-like camera producing the paper's 40×40 CNN-input frames.
    ///
    /// The raw Kinect has a 57° horizontal FoV, but the source dataset
    /// (Nishio et al. \[4\]) preprocesses frames to a region of interest
    /// around the link before feeding the CNN; we model that ROI crop as
    /// an effective 24° FoV. This matters for the one-pixel result: with
    /// the crop, "pedestrian in view" is tightly coupled to "blockage
    /// imminent", which is what a single globally-averaged pixel can
    /// encode.
    pub fn paper() -> Self {
        CameraConfig {
            image_height: 40,
            image_width: 40,
            horizontal_fov_rad: 24f64.to_radians(),
            height_m: 1.0,
            near_m: 0.5,
            far_m: 6.0,
        }
    }
}

/// Full synthetic-scene configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    /// Camera intrinsics and placement.
    pub camera: CameraConfig,
    /// Frame interval in seconds (the paper's `γ = 33 ms`).
    pub frame_interval_s: f64,
    /// Number of (image, power) samples to generate (paper: 13,228).
    pub num_frames: usize,
    /// BS–UE distance in metres (`r = 4 m`).
    pub distance_m: f64,
    /// Received power under unobstructed line of sight, in dBm.
    pub los_power_dbm: f64,
    /// Maximum human-body shadowing depth in dB (60 GHz measurements
    /// report 15–25 dB; we default to 22 dB).
    pub blockage_depth_db: f64,
    /// Half-width of the shadowing transition zone around the body edge,
    /// in metres (models the Fresnel-zone ramp as the body enters the
    /// first Fresnel zone).
    pub transition_margin_m: f64,
    /// Mean pedestrian spawn rate in pedestrians per second (Poisson).
    pub pedestrian_rate_hz: f64,
    /// Where trajectories may cross the LoS line, as distances from the
    /// BS in metres. The source testbed \[3\] funnels pedestrians through
    /// a fixed crossing region near the middle of the link; a narrow
    /// band is also what makes a *one-pixel* image a sufficient
    /// statistic for time-to-blockage.
    pub crossing_band_m: (f64, f64),
    /// Pedestrian walking speed range in m/s.
    pub speed_range_mps: (f64, f64),
    /// Pedestrian shoulder width range in metres.
    pub body_width_range_m: (f64, f64),
    /// Pedestrian height range in metres.
    pub body_height_range_m: (f64, f64),
    /// Corridor half-width: pedestrians walk from `±corridor_half_m` to
    /// the opposite side, crossing the LoS line.
    pub corridor_half_m: f64,
    /// Standard deviation of the slow (AR(1)-correlated) shadowing term,
    /// in dB.
    pub shadowing_sigma_db: f64,
    /// AR(1) coefficient of the slow shadowing term per frame.
    pub shadowing_rho: f64,
    /// Standard deviation of the i.i.d. fast-fading term, in dB.
    pub fading_sigma_db: f64,
}

impl SceneConfig {
    /// The full-scale configuration matching the paper's dataset: 13,228
    /// frames at 33 ms (≈ 7.3 minutes), 40×40 images, 4 m link.
    pub fn paper() -> Self {
        SceneConfig {
            camera: CameraConfig::paper(),
            frame_interval_s: 0.033,
            num_frames: 13_228,
            distance_m: 4.0,
            los_power_dbm: -18.0,
            blockage_depth_db: 22.0,
            // ~2 frames of ramp at walking speed: sharp enough that the
            // RF history alone gives almost no warning of an onset (the
            // paper's premise), while the camera sees the pedestrian
            // approach ~1 s earlier.
            transition_margin_m: 0.05,
            pedestrian_rate_hz: 1.0 / 5.0,
            crossing_band_m: (1.6, 2.4),
            speed_range_mps: (0.6, 1.4),
            body_width_range_m: (0.40, 0.55),
            body_height_range_m: (1.55, 1.90),
            corridor_half_m: 3.0,
            shadowing_sigma_db: 0.4,
            shadowing_rho: 0.95,
            fading_sigma_db: 0.8,
        }
    }

    /// A reduced configuration for fast unit/integration tests: 16×16
    /// frames, a few hundred samples, denser pedestrian traffic so short
    /// traces still contain blockage events.
    pub fn tiny() -> Self {
        SceneConfig {
            camera: CameraConfig {
                image_height: 16,
                image_width: 16,
                ..CameraConfig::paper()
            },
            num_frames: 600,
            pedestrian_rate_hz: 1.0 / 2.5,
            ..SceneConfig::paper()
        }
    }

    /// Total trace duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.num_frames as f64 * self.frame_interval_s
    }

    /// Validates internal consistency; called by the generators.
    pub fn validate(&self) {
        assert!(self.camera.image_height > 0 && self.camera.image_width > 0);
        assert!(self.camera.near_m > 0.0 && self.camera.far_m > self.camera.near_m);
        assert!(
            self.frame_interval_s > 0.0,
            "frame interval must be positive"
        );
        assert!(self.num_frames > 0, "trace must contain frames");
        assert!(self.distance_m > 0.0, "link distance must be positive");
        assert!(self.blockage_depth_db >= 0.0);
        assert!(self.transition_margin_m >= 0.0);
        assert!(self.pedestrian_rate_hz >= 0.0);
        assert!(
            self.crossing_band_m.0 > 0.0
                && self.crossing_band_m.1 > self.crossing_band_m.0
                && self.crossing_band_m.1 < self.distance_m,
            "crossing band must lie strictly between the BS and the UE"
        );
        assert!(self.speed_range_mps.0 > 0.0 && self.speed_range_mps.1 >= self.speed_range_mps.0);
        assert!(self.body_width_range_m.0 > 0.0);
        assert!(self.body_height_range_m.0 > 0.0);
        assert!(self.corridor_half_m > 0.0);
        assert!((0.0..1.0).contains(&self.shadowing_rho));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_dataset() {
        let cfg = SceneConfig::paper();
        cfg.validate();
        assert_eq!(cfg.num_frames, 13_228);
        assert_eq!(cfg.camera.image_height, 40);
        assert_eq!(cfg.camera.image_width, 40);
        // ≈ 7.3 minutes of trace.
        assert!((cfg.duration_s() - 436.5).abs() < 1.0);
    }

    #[test]
    fn tiny_config_is_valid_and_small() {
        let cfg = SceneConfig::tiny();
        cfg.validate();
        assert!(cfg.num_frames <= 1000);
        assert!(cfg.camera.image_height <= 16);
    }

    #[test]
    #[should_panic(expected = "frames")]
    fn empty_trace_rejected() {
        SceneConfig {
            num_frames: 0,
            ..SceneConfig::tiny()
        }
        .validate();
    }
}
