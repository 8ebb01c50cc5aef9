//! A scope timer for simulated time.
//!
//! Two clocks matter in this workspace: the **host** clock (how long the
//! process actually takes, recorded by [`crate::host`]) and the
//! **simulated** clock (`sl-core`'s modelled compute seconds plus
//! slot-accurate airtime — Fig. 3a's x-axis). [`SimSpan`] scopes the
//! latter by bracketing the caller's compute/airtime totals, so any
//! crate can bridge its own simulated clock into the metrics registry
//! without `sl-telemetry` depending on it.

use crate::Telemetry;

/// Brackets a span of *simulated* time, split by cause.
///
/// Capture the simulated clock's compute/airtime totals at scope entry;
/// at exit, pass the new totals and the deltas are recorded into the
/// histograms `{name}.compute_s` and `{name}.airtime_s`.
#[derive(Debug, Clone, Copy)]
pub struct SimSpan {
    compute0_s: f64,
    airtime0_s: f64,
}

impl SimSpan {
    /// Opens a span at the given simulated-clock totals.
    pub fn begin(compute_s: f64, airtime_s: f64) -> Self {
        SimSpan {
            compute0_s: compute_s,
            airtime0_s: airtime_s,
        }
    }

    /// Closes the span at the given totals, recording both deltas.
    /// Returns `(compute_delta_s, airtime_delta_s)`.
    pub fn observe(
        &self,
        tele: &mut Telemetry,
        name: &str,
        compute_s: f64,
        airtime_s: f64,
    ) -> (f64, f64) {
        let dc = compute_s - self.compute0_s;
        let da = airtime_s - self.airtime0_s;
        assert!(
            dc >= 0.0 && da >= 0.0,
            "SimSpan: simulated clock ran backwards ({dc}, {da})"
        );
        tele.observe(&format!("{name}.compute_s"), dc);
        tele.observe(&format!("{name}.airtime_s"), da);
        (dc, da)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_span_records_deltas() {
        let mut tele = Telemetry::summary();
        let span = SimSpan::begin(1.0, 0.5);
        let (dc, da) = span.observe(&mut tele, "step", 1.25, 0.75);
        assert!((dc - 0.25).abs() < 1e-12);
        assert!((da - 0.25).abs() < 1e-12);
        let hc = tele.registry().histogram("step.compute_s").unwrap();
        assert!((hc.sum() - 0.25).abs() < 1e-12);
        let ha = tele.registry().histogram("step.airtime_s").unwrap();
        assert!((ha.sum() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ran backwards")]
    fn sim_span_rejects_backwards_clock() {
        let mut tele = Telemetry::summary();
        SimSpan::begin(1.0, 0.0).observe(&mut tele, "x", 0.5, 0.0);
    }
}
