//! The simulated training clock.
//!
//! Fig. 3a's x-axis is *elapsed wall-clock training time*, which in split
//! learning is compute time **plus** the airtime of the cut-layer
//! transfers. Both components are modelled deterministically: compute as
//! FLOP counts over configurable device rates, airtime as slot counts
//! from the `sl-channel` simulator. This keeps the learning curves
//! reproducible and independent of the host machine.

/// Modelled device throughputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// UE-side sustained throughput in FLOP/s.
    pub ue_flops_per_s: f64,
    /// BS-side sustained throughput in FLOP/s.
    pub bs_flops_per_s: f64,
}

impl ComputeModel {
    /// Defaults sized like the paper's setup (an embedded-GPU-class UE
    /// and a server-class BS): fast enough that communication dominates
    /// for bulky payloads, slow enough that compute is not free.
    pub fn paper() -> Self {
        ComputeModel {
            ue_flops_per_s: 200e9,
            bs_flops_per_s: 1e12,
        }
    }

    /// Seconds the UE needs for `flops`.
    pub fn ue_seconds(&self, flops: f64) -> f64 {
        assert!(
            self.ue_flops_per_s > 0.0,
            "ComputeModel: UE rate must be positive"
        );
        flops / self.ue_flops_per_s
    }

    /// Seconds the BS needs for `flops`.
    pub fn bs_seconds(&self, flops: f64) -> f64 {
        assert!(
            self.bs_flops_per_s > 0.0,
            "ComputeModel: BS rate must be positive"
        );
        flops / self.bs_flops_per_s
    }
}

/// Accumulates simulated elapsed time, split by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimClock {
    compute_s: f64,
    airtime_s: f64,
}

impl SimClock {
    /// A clock at zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Rebuilds a clock from checkpointed components (the exact values
    /// previously read through [`SimClock::compute_s`] /
    /// [`SimClock::airtime_s`]).
    pub fn from_parts(compute_s: f64, airtime_s: f64) -> Self {
        assert!(
            compute_s >= 0.0 && compute_s.is_finite(),
            "SimClock: bad compute time"
        );
        assert!(
            airtime_s >= 0.0 && airtime_s.is_finite(),
            "SimClock: bad airtime"
        );
        SimClock {
            compute_s,
            airtime_s,
        }
    }

    /// Adds compute time.
    pub fn add_compute(&mut self, seconds: f64) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "SimClock: bad compute time"
        );
        self.compute_s += seconds;
    }

    /// Adds channel airtime.
    pub fn add_airtime(&mut self, seconds: f64) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "SimClock: bad airtime"
        );
        self.airtime_s += seconds;
    }

    /// Total elapsed simulated seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.compute_s + self.airtime_s
    }

    /// Seconds spent computing.
    pub fn compute_s(&self) -> f64 {
        self.compute_s
    }

    /// Seconds spent on the air.
    pub fn airtime_s(&self) -> f64 {
        self.airtime_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_components() {
        let mut c = SimClock::new();
        c.add_compute(0.5);
        c.add_airtime(1.5);
        c.add_compute(0.25);
        assert!((c.elapsed_s() - 2.25).abs() < 1e-12);
        assert!((c.compute_s() - 0.75).abs() < 1e-12);
        assert!((c.airtime_s() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn zero_clock() {
        let c = SimClock::new();
        assert_eq!(c.elapsed_s(), 0.0);
    }

    #[test]
    fn compute_model_rates() {
        let m = ComputeModel::paper();
        assert!((m.ue_seconds(200e9) - 1.0).abs() < 1e-12);
        assert!((m.bs_seconds(1e12) - 1.0).abs() < 1e-12);
        assert!(
            m.ue_seconds(1e9) > m.bs_seconds(1e9),
            "BS is the faster device"
        );
    }

    #[test]
    #[should_panic(expected = "bad compute time")]
    fn rejects_negative_time() {
        SimClock::new().add_compute(-1.0);
    }
}
