//! Training-health watchdog.
//!
//! Long simulated-training runs can silently go bad: a NaN loss, an
//! exploding gradient, or a loss that quietly diverges while the run
//! keeps burning compute. The [`HealthMonitor`] watches what the UE
//! half of each step already has in hand — the loss the BS sent back
//! (tracked as an EMA) and both halves' pre-clip gradient norms — and
//! raises a [`HealthVerdict`] when training is demonstrably diverging.
//! It sends nothing across the split. What happens then is the
//! configured [`HealthAction`]:
//!
//! * `Warn` (default) — emit a `health.diverged` event and keep going;
//! * `Abort` — stop the run with [`crate::StopReason::HealthAborted`]
//!   and a readable report.

use std::fmt;

/// What to do when the watchdog trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthAction {
    /// Emit a diagnostic event and continue training (default).
    #[default]
    Warn,
    /// Stop the run with [`crate::StopReason::HealthAborted`].
    Abort,
}

/// Watchdog thresholds. The defaults are deliberately loose: the goal is
/// to catch *demonstrable* divergence (NaNs, loss exploding past many
/// multiples of its best value), not to second-guess a noisy optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// What to do when the watchdog trips.
    pub action: HealthAction,
    /// EMA smoothing factor for the per-step loss.
    pub ema_alpha: f64,
    /// A step is "divergent" when the loss EMA exceeds
    /// `divergence_factor × best_ema`.
    pub divergence_factor: f64,
    /// Consecutive divergent steps before tripping.
    pub patience: usize,
    /// Steps before the best-EMA baseline starts updating (lets the
    /// early transient settle).
    pub warmup_steps: usize,
    /// Total non-finite observations (loss or gradient norms) before
    /// tripping outright.
    pub nonfinite_tolerance: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            action: HealthAction::Warn,
            ema_alpha: 0.1,
            divergence_factor: 8.0,
            patience: 25,
            warmup_steps: 10,
            nonfinite_tolerance: 3,
        }
    }
}

/// Per-step statistics fed to the monitor by the trainer.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// Raw (pre-clip) batch loss.
    pub loss: f64,
    /// UE-side global gradient norm (0 for RF-only).
    pub grad_norm_ue: f64,
    /// BS-side global gradient norm.
    pub grad_norm_bs: f64,
}

/// Why the watchdog tripped.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthVerdict {
    /// Too many NaN/inf observations.
    NonFinite {
        /// The metric whose observation pushed the count over the
        /// tolerance (e.g. `loss`, `grad_norm.ue`).
        metric: String,
        /// Total non-finite observations so far.
        count: u64,
    },
    /// Sustained divergence of the loss EMA.
    Diverged {
        /// The metric that kept the divergence streak alive.
        metric: String,
        /// Current loss EMA.
        ema: f64,
        /// Best (lowest) post-warmup loss EMA.
        best_ema: f64,
        /// Length of the divergent streak.
        streak: usize,
    },
}

impl HealthVerdict {
    /// The offending metric name.
    pub fn metric(&self) -> &str {
        match self {
            HealthVerdict::NonFinite { metric, .. } => metric,
            HealthVerdict::Diverged { metric, .. } => metric,
        }
    }
}

impl fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthVerdict::NonFinite { metric, count } => {
                write!(f, "{count} non-finite observations (last: {metric})")
            }
            HealthVerdict::Diverged {
                metric,
                ema,
                best_ema,
                streak,
            } => write!(
                f,
                "{metric} diverged for {streak} consecutive steps \
                 (loss EMA {ema:.3e} vs best {best_ema:.3e})"
            ),
        }
    }
}

/// Tracks per-step training statistics and trips on demonstrable
/// divergence. One verdict per run: after tripping, the monitor goes
/// quiet (the caller decides whether to abort).
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    step: u64,
    ema: Option<f64>,
    best_ema: f64,
    streak: usize,
    nonfinite_loss: u64,
    nonfinite_grad: u64,
    tripped: bool,
    last_stats: Option<StepStats>,
}

impl HealthMonitor {
    /// A monitor with the given thresholds.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            step: 0,
            ema: None,
            best_ema: f64::INFINITY,
            streak: 0,
            nonfinite_loss: 0,
            nonfinite_grad: 0,
            tripped: false,
            last_stats: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// `true` once the watchdog has tripped.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Total non-finite loss observations so far.
    pub fn nonfinite_loss(&self) -> u64 {
        self.nonfinite_loss
    }

    /// Total non-finite gradient-norm observations so far.
    pub fn nonfinite_grad(&self) -> u64 {
        self.nonfinite_grad
    }

    /// Current loss EMA, when at least one finite loss was seen.
    pub fn loss_ema(&self) -> Option<f64> {
        self.ema
    }

    /// Feeds one step's statistics. Returns a verdict the first time the
    /// watchdog trips, `None` otherwise.
    pub fn observe_step(&mut self, stats: StepStats) -> Option<HealthVerdict> {
        if self.tripped {
            return None;
        }
        self.step += 1;
        self.last_stats = Some(stats);

        // Non-finite bookkeeping. Each non-finite observation counts
        // toward one shared tolerance: a single NaN is survivable (the
        // trainer skips the step), a stream of them is divergence.
        let mut last_nonfinite = None;
        if !stats.loss.is_finite() {
            self.nonfinite_loss += 1;
            last_nonfinite = Some("loss");
        }
        if !stats.grad_norm_ue.is_finite() {
            self.nonfinite_grad += 1;
            last_nonfinite = Some("grad_norm.ue");
        }
        if !stats.grad_norm_bs.is_finite() {
            self.nonfinite_grad += 1;
            last_nonfinite = Some("grad_norm.bs");
        }
        let nonfinite_total = self.nonfinite_loss + self.nonfinite_grad;
        if let Some(metric) = last_nonfinite {
            if nonfinite_total >= self.cfg.nonfinite_tolerance {
                self.tripped = true;
                return Some(HealthVerdict::NonFinite {
                    metric: metric.to_string(),
                    count: nonfinite_total,
                });
            }
            // A non-finite step contributes no EMA update but keeps the
            // divergence streak alive.
            self.streak += 1;
        }

        // Loss EMA tracking (finite losses only).
        if stats.loss.is_finite() {
            let a = self.cfg.ema_alpha;
            let ema = match self.ema {
                Some(prev) => a * stats.loss + (1.0 - a) * prev,
                None => stats.loss,
            };
            self.ema = Some(ema);
            if self.step <= self.cfg.warmup_steps as u64 {
                self.best_ema = self.best_ema.min(ema);
                return None;
            }
            if ema > self.cfg.divergence_factor * self.best_ema.max(f64::EPSILON) {
                self.streak += 1;
            } else {
                self.streak = 0;
                self.best_ema = self.best_ema.min(ema);
            }
            if self.streak >= self.cfg.patience {
                self.tripped = true;
                return Some(HealthVerdict::Diverged {
                    metric: "loss_ema".to_string(),
                    ema,
                    best_ema: self.best_ema,
                    streak: self.streak,
                });
            }
        } else if self.streak >= self.cfg.patience {
            // All-non-finite streams can also exhaust patience.
            self.tripped = true;
            return Some(HealthVerdict::Diverged {
                metric: "loss".to_string(),
                ema: self.ema.unwrap_or(f64::NAN),
                best_ema: self.best_ema,
                streak: self.streak,
            });
        }
        None
    }

    /// A multi-line human-readable state dump, used for the abort report.
    pub fn report(&self) -> String {
        let mut out = String::from("training-health report:\n");
        out.push_str(&format!("  steps observed: {}\n", self.step));
        match self.ema {
            Some(e) => out.push_str(&format!(
                "  loss EMA: {e:.6e} (best {:.6e})\n",
                self.best_ema
            )),
            None => out.push_str("  loss EMA: no finite losses observed\n"),
        }
        out.push_str(&format!("  divergent streak: {}\n", self.streak));
        out.push_str(&format!(
            "  non-finite: loss {} / grad {}\n",
            self.nonfinite_loss, self.nonfinite_grad
        ));
        if let Some(s) = self.last_stats {
            out.push_str(&format!(
                "  last step: loss {:.6e}, grad_norm ue {:.3e} bs {:.3e}",
                s.loss, s.grad_norm_ue, s.grad_norm_bs
            ));
        }
        out
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor::new(HealthConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_stats(loss: f64) -> StepStats {
        StepStats {
            loss,
            grad_norm_ue: 1.0,
            grad_norm_bs: 1.0,
        }
    }

    #[test]
    fn healthy_stream_never_trips() {
        let mut m = HealthMonitor::default();
        for i in 0..500 {
            let loss = 1.0 / (1.0 + i as f64 * 0.01); // steadily improving
            assert_eq!(m.observe_step(ok_stats(loss)), None);
        }
        assert!(!m.tripped());
    }

    #[test]
    fn noisy_but_bounded_stream_never_trips() {
        let mut m = HealthMonitor::default();
        for i in 0..500 {
            // Oscillates ×2 around 1.0 — inside the 8× divergence factor.
            let loss = if i % 2 == 0 { 2.0 } else { 0.5 };
            assert_eq!(m.observe_step(ok_stats(loss)), None);
        }
    }

    #[test]
    fn nonfinite_observations_trip_after_tolerance() {
        let mut m = HealthMonitor::default();
        assert_eq!(m.observe_step(ok_stats(f64::NAN)), None);
        assert_eq!(m.observe_step(ok_stats(f64::INFINITY)), None);
        let v = m.observe_step(ok_stats(f64::NAN)).expect("must trip");
        assert_eq!(
            v,
            HealthVerdict::NonFinite {
                metric: "loss".to_string(),
                count: 3
            }
        );
        assert!(m.tripped());
        assert_eq!(m.nonfinite_loss(), 3);
        // After tripping the monitor goes quiet.
        assert_eq!(m.observe_step(ok_stats(f64::NAN)), None);

        // A step whose loss and both gradient norms are NaN is three
        // observations at once, so it trips on that step.
        let mut m = HealthMonitor::default();
        let all_nan = StepStats {
            loss: f64::NAN,
            grad_norm_ue: f64::NAN,
            grad_norm_bs: f64::NAN,
        };
        let v = m
            .observe_step(all_nan)
            .expect("must trip on the first step");
        assert_eq!(
            v,
            HealthVerdict::NonFinite {
                metric: "grad_norm.bs".to_string(),
                count: 3
            }
        );
        assert_eq!((m.nonfinite_loss(), m.nonfinite_grad()), (1, 2));
    }

    #[test]
    fn sustained_divergence_trips_with_patience() {
        let cfg = HealthConfig {
            patience: 5,
            warmup_steps: 3,
            ..HealthConfig::default()
        };
        let mut m = HealthMonitor::new(cfg);
        for _ in 0..10 {
            assert_eq!(m.observe_step(ok_stats(1.0)), None);
        }
        // Loss explodes; EMA needs a few steps to cross 8× best, then
        // 5 more consecutive divergent steps to trip.
        let mut verdict = None;
        for _ in 0..40 {
            verdict = m.observe_step(ok_stats(1e6));
            if verdict.is_some() {
                break;
            }
        }
        match verdict.expect("must trip") {
            HealthVerdict::Diverged {
                metric,
                streak,
                ema,
                best_ema,
            } => {
                assert_eq!(metric, "loss_ema");
                assert!(streak >= 5);
                assert!(ema > 8.0 * best_ema);
            }
            v => panic!("unexpected verdict {v:?}"),
        }
    }

    #[test]
    fn recovery_resets_the_streak() {
        // A fast EMA so recovery shows up within a step or two.
        let cfg = HealthConfig {
            patience: 6,
            warmup_steps: 2,
            ema_alpha: 0.9,
            ..HealthConfig::default()
        };
        let mut m = HealthMonitor::new(cfg);
        for _ in 0..5 {
            m.observe_step(ok_stats(1.0));
        }
        // Bursts of three divergent steps followed by recoveries: the
        // EMA drops back under the divergence threshold before the
        // streak reaches 6, so the watchdog never trips.
        for _ in 0..20 {
            for _ in 0..3 {
                assert_eq!(m.observe_step(ok_stats(100.0)), None);
            }
            for _ in 0..3 {
                assert_eq!(m.observe_step(ok_stats(1.0)), None);
            }
        }
        assert!(!m.tripped());
    }

    #[test]
    fn report_is_readable() {
        let mut m = HealthMonitor::default();
        m.observe_step(ok_stats(2.0));
        m.observe_step(ok_stats(f64::NAN));
        let r = m.report();
        assert!(r.contains("steps observed: 2"), "{r}");
        assert!(r.contains("loss EMA"), "{r}");
        assert!(r.contains("non-finite: loss 1"), "{r}");
    }
}
