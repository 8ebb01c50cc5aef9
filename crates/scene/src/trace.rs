//! Scene assembly and measurement-trace generation.

use sl_rng::Rng;

use sl_tensor::Tensor;

use crate::camera::DepthCamera;
use crate::config::SceneConfig;
use crate::pedestrian::Pedestrian;
use crate::power::{blockage_attenuation_db, PowerModel};

/// A fully-instantiated scene: the configuration plus every pedestrian
/// that will walk through the corridor during the trace.
#[derive(Debug, Clone)]
pub struct Scene {
    config: SceneConfig,
    pedestrians: Vec<Pedestrian>,
}

impl Scene {
    /// Generates a scene: pedestrian spawns follow a Poisson process of
    /// rate `config.pedestrian_rate_hz` over the trace duration (plus a
    /// lead-in so the trace can *start* mid-blockage).
    pub fn generate(config: SceneConfig, rng: &mut impl Rng) -> Self {
        config.validate();
        let mut pedestrians = Vec::new();
        if config.pedestrian_rate_hz > 0.0 {
            // Lead-in long enough for a spawned pedestrian to reach the
            // corridor centre before t = 0.
            let lead_in = config.corridor_half_m / config.speed_range_mps.0;
            let mut t = -lead_in;
            loop {
                // Exponential inter-arrival times.
                let u: f64 = 1.0 - rng.random::<f64>();
                t += -u.ln() / config.pedestrian_rate_hz;
                if t >= config.duration_s() {
                    break;
                }
                pedestrians.push(Pedestrian::sample(&config, t, rng));
            }
        }
        Scene {
            config,
            pedestrians,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// All pedestrians (including not-yet-spawned ones).
    pub fn pedestrians(&self) -> &[Pedestrian] {
        &self.pedestrians
    }

    /// The timestamp of frame `k`.
    pub fn frame_time(&self, k: usize) -> f64 {
        k as f64 * self.config.frame_interval_s
    }

    /// The deterministic blockage attenuation at frame `k`, in dB.
    pub fn blockage_at_frame(&self, k: usize) -> f64 {
        blockage_attenuation_db(&self.config, &self.pedestrians, self.frame_time(k))
    }

    /// Renders and samples the whole trace.
    pub fn simulate(&self, rng: &mut impl Rng) -> MeasurementTrace {
        let camera = DepthCamera::new(self.config.camera.clone(), self.config.distance_m);
        let mut power = PowerModel::new(self.config.clone());
        let mut frames = Vec::with_capacity(self.config.num_frames);
        let mut powers = Vec::with_capacity(self.config.num_frames);
        for k in 0..self.config.num_frames {
            let t = self.frame_time(k);
            frames.push(camera.render(&self.pedestrians, t));
            powers.push(power.sample_dbm(&self.pedestrians, t, rng) as f32);
        }
        MeasurementTrace {
            frames,
            powers_dbm: powers,
            frame_interval_s: self.config.frame_interval_s,
        }
    }
}

/// A time-aligned trace of depth frames and received powers — the
/// synthetic stand-in for the paper's `s_k = (x_k, P_k), k ∈ K` dataset.
#[derive(Debug, Clone)]
pub struct MeasurementTrace {
    /// Normalized `[H, W]` depth frames, one per time index.
    pub frames: Vec<Tensor>,
    /// Received power in dBm, aligned with `frames`.
    pub powers_dbm: Vec<f32>,
    /// Frame interval in seconds (the paper's `γ`).
    pub frame_interval_s: f64,
}

impl MeasurementTrace {
    /// Number of samples `|K|`.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Fraction of samples whose power is more than `threshold_db` below
    /// the trace maximum — a crude blockage-duty-cycle diagnostic.
    pub fn deep_fade_fraction(&self, threshold_db: f32) -> f64 {
        if self.powers_dbm.is_empty() {
            return 0.0;
        }
        let max = self
            .powers_dbm
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        let n = self
            .powers_dbm
            .iter()
            .filter(|&&p| p < max - threshold_db)
            .count();
        n as f64 / self.powers_dbm.len() as f64
    }
}

/// Renders a normalized depth frame as ASCII art (dark = near), for the
/// examples and the Fig. 2 harness.
pub fn ascii_frame(frame: &Tensor) -> String {
    const RAMP: &[u8] = b"@%#*+=-:. "; // near .. far
    assert_eq!(frame.shape().rank(), 2, "ascii_frame: frame must be rank-2");
    let (h, w) = (frame.dims()[0], frame.dims()[1]);
    let mut out = String::with_capacity(h * (w + 1));
    for r in 0..h {
        for c in 0..w {
            let v = frame.at(&[r, c]).clamp(0.0, 1.0);
            let idx = (v * (RAMP.len() - 1) as f32).round() as usize;
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_rng::rngs::StdRng;

    #[test]
    fn generate_is_deterministic_per_seed() {
        let a = Scene::generate(SceneConfig::tiny(), &mut StdRng::seed_from_u64(1));
        let b = Scene::generate(SceneConfig::tiny(), &mut StdRng::seed_from_u64(1));
        assert_eq!(a.pedestrians(), b.pedestrians());
        let c = Scene::generate(SceneConfig::tiny(), &mut StdRng::seed_from_u64(2));
        assert_ne!(a.pedestrians(), c.pedestrians());
    }

    #[test]
    fn poisson_spawn_count_matches_rate() {
        let cfg = SceneConfig {
            num_frames: 30_000, // ~990 s
            ..SceneConfig::tiny()
        };
        let scene = Scene::generate(cfg.clone(), &mut StdRng::seed_from_u64(3));
        let expect = cfg.duration_s() * cfg.pedestrian_rate_hz;
        let got = scene.pedestrians().len() as f64;
        assert!(
            (got / expect - 1.0).abs() < 0.15,
            "spawned {got}, expected ≈{expect}"
        );
    }

    #[test]
    fn trace_has_configured_length_and_finite_values() {
        let cfg = SceneConfig::tiny();
        let mut rng = StdRng::seed_from_u64(4);
        let scene = Scene::generate(cfg.clone(), &mut rng);
        let trace = scene.simulate(&mut rng);
        assert_eq!(trace.len(), cfg.num_frames);
        assert!(!trace.is_empty());
        for f in &trace.frames {
            assert_eq!(f.dims(), &[16, 16]);
            assert!(f.all_finite());
            assert!(f.min() >= 0.0 && f.max() <= 1.0);
        }
        assert!(trace.powers_dbm.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn trace_contains_blockage_events() {
        let cfg = SceneConfig::tiny();
        let mut rng = StdRng::seed_from_u64(5);
        let scene = Scene::generate(cfg.clone(), &mut rng);
        let trace = scene.simulate(&mut rng);
        // With one crossing every ~2.5 s over ~20 s, fades must exist.
        let fades = trace.deep_fade_fraction(10.0);
        assert!(fades > 0.0, "no deep fades in the trace");
        assert!(fades < 0.8, "trace almost always blocked: {fades}");
    }

    #[test]
    fn power_drop_lags_camera_sighting() {
        // The core cross-modal property: at the moment the power first
        // drops 3 dB, the pedestrian must already be visible in the
        // *noiseless* geometry (the camera saw them earlier).
        let cfg = SceneConfig::paper();
        let walker = Pedestrian {
            cross_x: 2.0,
            spawn_time_s: 0.0,
            speed_mps: 1.0,
            direction: 1.0,
            width_m: 0.5,
            height_m: 1.8,
            start_y_m: -cfg.corridor_half_m,
            corridor_half_m: cfg.corridor_half_m,
        };
        let cam = DepthCamera::new(cfg.camera.clone(), cfg.distance_m);
        let scene = Scene {
            config: SceneConfig {
                num_frames: 200,
                ..cfg.clone()
            },
            pedestrians: vec![walker.clone()],
        };
        let mut first_visible = None;
        let mut first_fade = None;
        let empty = cam.render(&[], 0.0);
        for k in 0..200 {
            let t = scene.frame_time(k);
            if first_visible.is_none() && cam.render(scene.pedestrians(), t) != empty {
                first_visible = Some(k);
            }
            if first_fade.is_none() && scene.blockage_at_frame(k) > 3.0 {
                first_fade = Some(k);
            }
        }
        let (vis, fade) = (first_visible.unwrap(), first_fade.unwrap());
        assert!(
            vis + 4 <= fade,
            "camera must lead the fade by ≥ the prediction horizon: visible at {vis}, fade at {fade}"
        );
    }

    #[test]
    fn ascii_frame_renders_grid() {
        let frame = Tensor::from_vec([2, 3], vec![0.0, 0.5, 1.0, 1.0, 0.5, 0.0]).unwrap();
        let art = ascii_frame(&frame);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].len(), 3);
        assert_eq!(lines[0].chars().next(), Some('@')); // near
        assert_eq!(lines[0].chars().last(), Some(' ')); // far
    }

    #[test]
    fn zero_rate_scene_is_static() {
        let cfg = SceneConfig {
            pedestrian_rate_hz: 0.0,
            num_frames: 50,
            ..SceneConfig::tiny()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let scene = Scene::generate(cfg, &mut rng);
        assert!(scene.pedestrians().is_empty());
        let trace = scene.simulate(&mut rng);
        assert_eq!(trace.deep_fade_fraction(10.0), 0.0);
        // All frames identical (static background).
        for f in &trace.frames[1..] {
            assert_eq!(f, &trace.frames[0]);
        }
    }
}
