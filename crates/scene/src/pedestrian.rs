//! Pedestrian trajectories.
//!
//! The scene's coordinate frame: the BS stands at the origin, the UE at
//! `(r, 0)`; the line-of-sight path is the segment of the x-axis between
//! them. Pedestrians walk parallel to the y-axis (perpendicular to the
//! link), crossing it at a fixed `cross_x` somewhere between the
//! endpoints — the geometry of the corridor experiment in the paper's
//! source dataset [3, 4].

use sl_rng::Rng;

use crate::config::SceneConfig;

/// One pedestrian: a vertical box of `width × width × height` metres
/// moving along the y-axis at constant speed.
#[derive(Debug, Clone, PartialEq)]
pub struct Pedestrian {
    /// Where the trajectory crosses the LoS line (distance from the BS,
    /// metres).
    pub cross_x: f64,
    /// Time at which the pedestrian is spawned at `±corridor_half`.
    pub spawn_time_s: f64,
    /// Walking speed in m/s (always positive).
    pub speed_mps: f64,
    /// `+1` walks from `-corridor_half` to `+corridor_half`, `-1` the
    /// reverse.
    pub direction: f64,
    /// Shoulder width in metres (the blocking cross-section).
    pub width_m: f64,
    /// Body height in metres.
    pub height_m: f64,
    /// y-coordinate at spawn (±corridor_half, opposite to `direction`).
    pub start_y_m: f64,
    /// Corridor half-width; the pedestrian despawns on reaching the far
    /// side.
    pub corridor_half_m: f64,
}

impl Pedestrian {
    /// Samples a pedestrian spawning at `spawn_time_s` with geometry and
    /// kinematics drawn from `config`.
    pub fn sample(config: &SceneConfig, spawn_time_s: f64, rng: &mut impl Rng) -> Self {
        let direction = if rng.random::<bool>() { 1.0 } else { -1.0 };
        let (s_lo, s_hi) = config.speed_range_mps;
        let (w_lo, w_hi) = config.body_width_range_m;
        let (h_lo, h_hi) = config.body_height_range_m;
        let (x_lo, x_hi) = config.crossing_band_m;
        Pedestrian {
            cross_x: rng.random_range(x_lo..x_hi),
            spawn_time_s,
            speed_mps: rng.random_range(s_lo..=s_hi),
            direction,
            width_m: rng.random_range(w_lo..=w_hi),
            height_m: rng.random_range(h_lo..=h_hi),
            start_y_m: -direction * config.corridor_half_m,
            corridor_half_m: config.corridor_half_m,
        }
    }

    /// The pedestrian's y-coordinate at absolute time `t`, or `None`
    /// before spawn / after despawn.
    pub fn y_at(&self, t: f64) -> Option<f64> {
        if t < self.spawn_time_s {
            return None;
        }
        let y = self.start_y_m + self.direction * self.speed_mps * (t - self.spawn_time_s);
        if y.abs() > self.corridor_half_m {
            None
        } else {
            Some(y)
        }
    }

    /// Time at which the body *centre* crosses the LoS line (y = 0).
    pub fn crossing_time_s(&self) -> f64 {
        self.spawn_time_s + self.corridor_half_m / self.speed_mps
    }

    /// Shortest distance from the body's blocking edge to the LoS line at
    /// time `t`: `max(0, |y| − width/2)`. Zero means the body straddles
    /// the line. `None` when inactive.
    pub fn edge_distance_to_los(&self, t: f64) -> Option<f64> {
        self.y_at(t)
            .map(|y| (y.abs() - self.width_m / 2.0).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_rng::rngs::StdRng;

    fn walker() -> Pedestrian {
        Pedestrian {
            cross_x: 2.0,
            spawn_time_s: 10.0,
            speed_mps: 1.0,
            direction: 1.0,
            width_m: 0.5,
            height_m: 1.8,
            start_y_m: -3.0,
            corridor_half_m: 3.0,
        }
    }

    #[test]
    fn inactive_before_spawn_and_after_exit() {
        let p = walker();
        assert!(p.y_at(9.9).is_none());
        assert!(p.y_at(10.0).is_some());
        assert!(p.y_at(15.9).is_some()); // 6 m at 1 m/s
        assert!(p.y_at(16.1).is_none());
    }

    #[test]
    fn crosses_los_at_predicted_time() {
        let p = walker();
        let tc = p.crossing_time_s();
        assert!((tc - 13.0).abs() < 1e-9);
        assert!(p.y_at(tc).unwrap().abs() < 1e-9);
    }

    #[test]
    fn edge_distance_reaches_zero_during_crossing() {
        let p = walker();
        // At crossing time the centre is on the line -> edge distance 0.
        assert_eq!(p.edge_distance_to_los(p.crossing_time_s()), Some(0.0));
        // 1 s before crossing the centre is 1 m away -> edge 0.75 m.
        let d = p.edge_distance_to_los(p.crossing_time_s() - 1.0).unwrap();
        assert!((d - 0.75).abs() < 1e-9);
        assert_eq!(p.edge_distance_to_los(0.0), None);
    }

    #[test]
    fn sampled_pedestrians_respect_config_ranges() {
        let cfg = SceneConfig::paper();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..200 {
            let p = Pedestrian::sample(&cfg, 5.0, &mut rng);
            assert!(p.cross_x >= cfg.crossing_band_m.0 && p.cross_x <= cfg.crossing_band_m.1);
            assert!(p.speed_mps >= cfg.speed_range_mps.0 && p.speed_mps <= cfg.speed_range_mps.1);
            assert!(p.width_m >= cfg.body_width_range_m.0 && p.width_m <= cfg.body_width_range_m.1);
            assert!(
                p.height_m >= cfg.body_height_range_m.0 && p.height_m <= cfg.body_height_range_m.1
            );
            assert_eq!(p.start_y_m, -p.direction * cfg.corridor_half_m);
        }
    }

    #[test]
    fn reverse_direction_walker_mirrors() {
        let mut p = walker();
        p.direction = -1.0;
        p.start_y_m = 3.0;
        assert!((p.y_at(12.0).unwrap() - 1.0).abs() < 1e-9);
        assert!((p.crossing_time_s() - 13.0).abs() < 1e-9);
    }
}
