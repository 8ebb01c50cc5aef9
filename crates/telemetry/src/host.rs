//! The host-time recorder: the one place the workspace times its own
//! work on the host clock.
//!
//! Code deep in the stack has no [`Telemetry`] handle — the tensor
//! kernels, each `sl-nn::Sequential` layer — so it records here:
//!
//! * [`time`] runs a closure and adds its host seconds to histogram
//!   `<key>.host_s`;
//! * [`add`] accumulates and [`set`] overwrites an `f64` gauge beside
//!   them (per-layer FLOPs and parameter counts).
//!
//! Recording is per thread and off by default. A run switches it on
//! with [`Recording::start`] and drains the thread's samples into its
//! handle with [`Recording::finish`], so a UE trainer and a BS session
//! served from another thread of the same process never mix their
//! numbers. Off, each call is one thread-local flag test: no clock read,
//! no key formatted.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::{Display, Write};
use std::time::Instant;

use crate::metrics::Histogram;
use crate::Telemetry;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static SAMPLES: RefCell<Samples> = RefCell::new(Samples::default());
}

/// One thread's recorded samples.
#[derive(Default)]
struct Samples {
    histograms: BTreeMap<String, Histogram>,
    /// Gauges drained with `gauge_add`.
    totals: BTreeMap<String, f64>,
    /// Gauges drained with `gauge_set`.
    values: BTreeMap<String, f64>,
    /// Key scratch, so a key already present costs no allocation.
    key: String,
}

/// Applies `apply` to `map[<key><suffix>]`, inserting a default entry
/// first.
fn update<T: Default>(
    map: &mut BTreeMap<String, T>,
    scratch: &mut String,
    key: impl Display,
    suffix: &str,
    apply: impl FnOnce(&mut T),
) {
    scratch.clear();
    // Writing into a `String` cannot fail.
    let _ = write!(scratch, "{key}{suffix}");
    match map.get_mut(scratch.as_str()) {
        Some(entry) => apply(entry),
        None => apply(map.entry(scratch.clone()).or_default()),
    }
}

/// `true` while the calling thread records. Callers guard work that
/// only feeds the recorder (a FLOP model, say) on it.
pub fn is_recording() -> bool {
    ON.get()
}

/// Runs `f`; while the calling thread records, adds its host seconds to
/// histogram `<key>.host_s`.
pub fn time<R>(key: impl Display, f: impl FnOnce() -> R) -> R {
    if !is_recording() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let seconds = t0.elapsed().as_secs_f64();
    SAMPLES.with_borrow_mut(|s| {
        update(&mut s.histograms, &mut s.key, key, ".host_s", |h| {
            h.record(seconds)
        })
    });
    out
}

/// While the calling thread records, adds `v` to gauge `key`; the total
/// is added to the handle's gauge when drained.
pub fn add(key: impl Display, v: f64) {
    if is_recording() {
        SAMPLES.with_borrow_mut(|s| update(&mut s.totals, &mut s.key, key, "", |t| *t += v));
    }
}

/// While the calling thread records, sets gauge `key` to `v`; the last
/// value overwrites the handle's gauge when drained.
pub fn set(key: impl Display, v: f64) {
    if is_recording() {
        SAMPLES.with_borrow_mut(|s| update(&mut s.values, &mut s.key, key, "", |t| *t = v));
    }
}

/// Recording on the calling thread, from [`Recording::start`] to
/// [`Recording::finish`] (or drop, which discards the samples).
#[must_use = "recording stops when the guard drops"]
pub struct Recording {
    /// Whether this guard switched recording on; a nested guard leaves
    /// the outer one's samples alone.
    owner: bool,
}

impl Recording {
    /// Switches recording on for the calling thread when `on` (pass
    /// [`Telemetry::is_enabled`]).
    pub fn start(on: bool) -> Recording {
        let owner = on && !is_recording();
        if owner {
            ON.set(true);
        }
        Recording { owner }
    }

    /// Drains the thread's samples into `tele` and switches recording
    /// off: histograms merge, [`add`] gauges add, [`set`] gauges
    /// overwrite.
    pub fn finish(self, tele: &mut Telemetry) {
        if !self.owner {
            return;
        }
        let s = SAMPLES.take();
        for (k, h) in &s.histograms {
            tele.merge_histogram(k, h);
        }
        for (k, v) in s.totals {
            tele.gauge_add(&k, v);
        }
        for (k, v) in s.values {
            tele.gauge_set(&k, v);
        }
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        if self.owner {
            // Never panics, also while the thread's locals are torn down.
            let _ = ON.try_with(|on| on.set(false));
            let _ = SAMPLES.try_with(|s| s.try_borrow_mut().map(|mut s| *s = Samples::default()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemorySink, TelemetryMode};

    fn enabled() -> Telemetry {
        Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(MemorySink::new().0))
    }

    #[test]
    fn off_records_nothing() {
        assert!(!is_recording());
        assert_eq!(time("k", || 7), 7);
        add("k.flops", 1.0);
        set("k.params", 2.0);
        let mut tele = enabled();
        Recording::start(true).finish(&mut tele);
        assert!(tele.snapshot().is_empty());
        // A disabled handle never switches recording on.
        let rec = Recording::start(Telemetry::disabled().is_enabled());
        assert!(!is_recording());
        time("k", || ());
        rec.finish(&mut tele);
        assert!(tele.snapshot().is_empty());
    }

    #[test]
    fn finish_publishes_and_resets() {
        let mut tele = enabled();
        for _ in 0..2 {
            let rec = Recording::start(true);
            time("nn.ue.layer.1.dense.fwd", || ());
            time(format_args!("nn.ue.layer.{}.dense.bwd", 1), || ());
            add("nn.ue.layer.1.dense.flops", 8.0);
            add("nn.ue.layer.1.dense.flops", 16.0);
            set("nn.ue.layer.1.dense.params", 33.0);
            rec.finish(&mut tele);
            assert!(!is_recording());
        }
        let s = tele.snapshot();
        assert_eq!(s.histograms["nn.ue.layer.1.dense.fwd.host_s"].count(), 2);
        assert_eq!(s.histograms["nn.ue.layer.1.dense.bwd.host_s"].count(), 2);
        // Totals add across runs; values are overwritten.
        assert_eq!(s.gauge("nn.ue.layer.1.dense.flops"), Some(48.0));
        assert_eq!(s.gauge("nn.ue.layer.1.dense.params"), Some(33.0));
    }

    #[test]
    fn nested_recordings_drain_once() {
        let mut tele = enabled();
        let outer = Recording::start(true);
        let inner = Recording::start(true);
        time("train.model", || ());
        inner.finish(&mut tele);
        assert!(is_recording());
        assert!(tele.snapshot().is_empty());
        outer.finish(&mut tele);
        assert_eq!(tele.snapshot().histograms["train.model.host_s"].count(), 1);
    }

    #[test]
    fn dropped_recording_discards_its_samples() {
        let rec = Recording::start(true);
        time("train.step", || ());
        drop(rec);
        assert!(!is_recording());
        let mut tele = enabled();
        Recording::start(true).finish(&mut tele);
        assert!(tele.snapshot().is_empty());
    }

    #[test]
    fn threads_drain_only_their_own_samples() {
        // Both threads record under one key before either drains.
        let both_recorded = std::sync::Barrier::new(2);
        let counts: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = [3usize, 5]
                .into_iter()
                .map(|n| {
                    let both_recorded = &both_recorded;
                    scope.spawn(move || {
                        let mut tele = enabled();
                        let rec = Recording::start(true);
                        for _ in 0..n {
                            time("tensor.kernel.matmul", || ());
                        }
                        both_recorded.wait();
                        rec.finish(&mut tele);
                        tele.snapshot().histograms["tensor.kernel.matmul.host_s"].count()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("recording thread panicked"))
                .collect()
        });
        assert_eq!(counts, vec![3, 5]);
    }
}
