//! # `sl-telemetry` — metrics and structured events, on std alone
//!
//! The paper's headline result (Fig. 3a) is a *time* claim: one-pixel
//! pooling wins because cheaper cut-layer transfers buy more SGD steps
//! per second. Proving that — and proving that future optimizations
//! don't regress it — needs observability: where do simulated and host
//! time actually go? This crate provides the substrate every other
//! workspace crate instruments against:
//!
//! * [`MetricsRegistry`] — named counters, gauges and log-bucketed
//!   [`Histogram`]s (count/sum/min/max/p50/p90/p99).
//! * [`host`] — the one host timer: a per-thread recorder of
//!   `<key>.host_s` histograms (per step, model pass, layer and kernel)
//!   plus the per-layer FLOP/parameter gauges, drained into a
//!   [`Telemetry`] handle by the run that switched it on.
//! * [`SimSpan`] — a scope timer for `sl-core`'s simulated
//!   compute/airtime split.
//! * [`Event`] journal with pluggable [`Sink`]s — dropped, summarized on
//!   stderr, or appended as JSON lines — selected by the
//!   `SLM_TELEMETRY` environment variable (`off` | `summary` | `jsonl`,
//!   default `summary`); `SLM_TELEMETRY_PATH` picks the JSONL directory.
//! * [`Snapshot`] — a serializable (hand-rolled JSON, no serde) copy of
//!   all metrics; snapshots merge losslessly.
//!
//! Everything funnels through one owned [`Telemetry`] value — the host
//! recorder's per-thread samples drain into it; no locks, no external
//! crates — and every recording call no-ops when the mode is `off`, so
//! instrumented hot loops cost one branch when observability is
//! disabled.

mod events;
pub mod host;
pub mod json;
mod metrics;
pub mod registry;
mod series;
mod snapshot;
mod timer;
pub mod trace;

pub use events::{Event, EventBuilder, JsonlSink, MemorySink, NullSink, Sink, StderrSink, Value};
pub use metrics::{Histogram, MetricsRegistry, BUCKETS_PER_OCTAVE};
pub use series::{Series, SeriesStore, DEFAULT_SERIES_CAPACITY};
pub use snapshot::Snapshot;
pub use timer::SimSpan;
pub use trace::{
    check_spans, chrome_trace_json, latency_breakdown, sim_us, spans_from_jsonl, trace_env_enabled,
    LatencyRow, OpenSpan, SpanRecord, TraceStats, Tracer, BS_SPAN_NAMESPACE,
};

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which observability mode the process runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Record nothing, emit nothing (hot paths skip instrumentation).
    Off,
    /// Record metrics; progress and end-of-run events go to stderr.
    Summary,
    /// Record metrics; every event appends to a JSONL journal file.
    Jsonl,
}

impl TelemetryMode {
    /// Parses an `SLM_TELEMETRY` value; `None` for unrecognized input.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(TelemetryMode::Off),
            "summary" => Some(TelemetryMode::Summary),
            "jsonl" => Some(TelemetryMode::Jsonl),
            _ => None,
        }
    }
}

/// Sampling cadence: one time-series sample every 8 training steps.
pub const SAMPLE_EVERY: u64 = 8;

/// The telemetry handle: one metrics registry plus one event sink.
pub struct Telemetry {
    mode: TelemetryMode,
    origin: Instant,
    registry: MetricsRegistry,
    series: SeriesStore,
    sink: Box<dyn Sink>,
    events_path: Option<PathBuf>,
    tracing: bool,
    /// Warn rate-limiting: the last warned message plus how many exact
    /// repeats arrived since it was printed. Flushed (as one collapsed
    /// event with a `repeats` count) at the next sample-window boundary,
    /// at the next different warning, or at `flush()`.
    pending_warn: Option<(String, u64)>,
}

impl Telemetry {
    /// A disabled handle: every call is a cheap no-op.
    pub fn disabled() -> Self {
        Telemetry::with_sink(TelemetryMode::Off, Box::new(NullSink))
    }

    /// A summary-mode handle (metrics in memory, progress on stderr).
    pub fn summary() -> Self {
        Telemetry::with_sink(TelemetryMode::Summary, Box::new(StderrSink))
    }

    /// A handle with an explicit mode and sink (tests use [`MemorySink`]).
    pub fn with_sink(mode: TelemetryMode, sink: Box<dyn Sink>) -> Self {
        Telemetry {
            mode,
            origin: Instant::now(),
            registry: MetricsRegistry::new(),
            series: SeriesStore::default(),
            sink,
            events_path: None,
            tracing: false,
            pending_warn: None,
        }
    }

    /// Builds a handle from `SLM_TELEMETRY` / `SLM_TELEMETRY_PATH`.
    ///
    /// * unset → `summary`;
    /// * `off` / `summary` / `jsonl` → that mode;
    /// * anything else → `summary`, plus a `warn` event (silent
    ///   misconfiguration is an observability bug);
    /// * `jsonl` journals to `<SLM_TELEMETRY_PATH>/<stream>.jsonl`
    ///   (default directory `results/telemetry`). If the journal file
    ///   cannot be created the handle falls back to `summary` with a
    ///   warning rather than aborting the run.
    pub fn from_env(stream: &str) -> Self {
        let raw = std::env::var("SLM_TELEMETRY").ok();
        let dir = std::env::var("SLM_TELEMETRY_PATH")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results/telemetry"));
        let mut tele = Telemetry::from_settings(raw.as_deref(), &dir, stream);
        tele.set_tracing(trace::trace_env_enabled());
        tele
    }

    /// [`Telemetry::from_env`] with the environment made explicit (so it
    /// is testable without mutating process state).
    pub fn from_settings(mode_value: Option<&str>, jsonl_dir: &Path, stream: &str) -> Self {
        let (mode, bad_mode) = match mode_value {
            None => (TelemetryMode::Summary, None),
            Some(s) => match TelemetryMode::parse(s) {
                Some(m) => (m, None),
                None => (TelemetryMode::Summary, Some(s.to_string())),
            },
        };
        let mut tele = match mode {
            TelemetryMode::Off => Telemetry::disabled(),
            TelemetryMode::Summary => Telemetry::summary(),
            TelemetryMode::Jsonl => {
                let path = jsonl_dir.join(format!("{stream}.jsonl"));
                match JsonlSink::create(&path) {
                    Ok(sink) => {
                        let mut t = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
                        t.events_path = Some(path);
                        t
                    }
                    Err(e) => {
                        let mut t = Telemetry::summary();
                        t.warn(&format!(
                            "cannot create event journal {}: {e}; falling back to summary",
                            path.display()
                        ));
                        t
                    }
                }
            }
        };
        if let Some(bad) = bad_mode {
            tele.warn(&format!(
                "unrecognized SLM_TELEMETRY value {bad:?} (expected off|summary|jsonl); \
                 using summary"
            ));
        }
        tele
    }

    /// The active mode.
    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// `false` only in [`TelemetryMode::Off`] — callers guard hot-loop
    /// instrumentation on this.
    pub fn is_enabled(&self) -> bool {
        self.mode != TelemetryMode::Off
    }

    /// Requests (or drops) span tracing. [`Telemetry::from_env`] reads
    /// the request from `SLM_TRACE`; tests set it directly.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// `true` when span tracing was requested *and* events have
    /// somewhere to go — trainers create a [`Tracer`] only then.
    pub fn trace_enabled(&self) -> bool {
        self.tracing && self.is_enabled()
    }

    /// The JSONL journal path, when journaling to a file.
    pub fn events_path(&self) -> Option<&Path> {
        self.events_path.as_deref()
    }

    /// Seconds since this handle was created (the event timestamp base).
    pub fn uptime_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Read access to the metrics.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    // ---- metric recording (no-ops when off) -----------------------------

    /// Increments counter `name`.
    pub fn inc(&mut self, name: &str) {
        if self.is_enabled() {
            self.registry.inc(name);
        }
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &str, n: u64) {
        if self.is_enabled() {
            self.registry.add(name, n);
        }
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        if self.is_enabled() {
            self.registry.gauge_set(name, v);
        }
    }

    /// Adds `dv` to gauge `name`.
    pub fn gauge_add(&mut self, name: &str, dv: f64) {
        if self.is_enabled() {
            self.registry.gauge_add(name, dv);
        }
    }

    /// Records `v` into histogram `name`.
    pub fn observe(&mut self, name: &str, v: f64) {
        if self.is_enabled() {
            self.registry.observe(name, v);
        }
    }

    /// Merges a standalone histogram into histogram `name`.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        if self.is_enabled() {
            self.registry.merge_histogram(name, h);
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    // ---- time series (no-ops when off) -----------------------------------

    /// `true` when 1-based step `step` falls on the [`SAMPLE_EVERY`]
    /// cadence. Keyed to the deterministic step counter — never wall
    /// clock — so two runs of the same config sample identical steps at
    /// any thread count.
    pub fn should_sample(&self, step: u64) -> bool {
        self.is_enabled() && step.is_multiple_of(SAMPLE_EVERY)
    }

    /// Appends one `(sim_time_s, value)` sample to time series `name`.
    /// Also a sample-window boundary: any rate-limited warning repeats
    /// collapse into their summary event here.
    pub fn series_point(&mut self, name: &str, sim_time_s: f64, value: f64) {
        if self.is_enabled() {
            self.flush_pending_warn();
            self.series.push(name, sim_time_s, value);
        }
    }

    /// Read access to the time-series store.
    pub fn series(&self) -> &SeriesStore {
        &self.series
    }

    // ---- event journal ---------------------------------------------------

    /// Emits a structured event (timestamped now).
    pub fn emit(&mut self, event: EventBuilder) {
        if !self.is_enabled() {
            return;
        }
        let e = event.build(self.uptime_s());
        self.sink.emit(&e);
    }

    /// Emits a progress message (chatter that must stay off stdout).
    pub fn progress(&mut self, msg: &str) {
        self.emit(EventBuilder::new("progress").str("msg", msg));
    }

    /// Emits a warning. Warnings are always printed to stderr — even in
    /// `off` mode — because they signal misconfiguration; they enter the
    /// journal like any other event when a sink is active.
    ///
    /// Repeats are rate-limited: the same message warned again before
    /// the next sample-window boundary (the next [`series_point`],
    /// different warning, or [`flush`]) is counted, not re-printed — a
    /// lossy link retrying every step collapses to one `warn` event
    /// plus one summary event carrying the `repeats` count.
    ///
    /// [`series_point`]: Telemetry::series_point
    /// [`flush`]: Telemetry::flush
    pub fn warn(&mut self, msg: &str) {
        if let Some((pending, repeats)) = &mut self.pending_warn {
            if pending == msg {
                *repeats += 1;
                return;
            }
        }
        self.flush_pending_warn();
        eprintln!("[sl][warn] {msg}");
        self.emit(EventBuilder::new("warn").str("msg", msg));
        self.pending_warn = Some((msg.to_string(), 0));
    }

    /// Emits the collapsed repeat count for the pending warning, if any
    /// repeats accumulated since it was printed.
    fn flush_pending_warn(&mut self) {
        if let Some((msg, repeats)) = self.pending_warn.take() {
            if repeats > 0 {
                eprintln!("[sl][warn] {msg} (repeated {repeats} more times)");
                self.emit(
                    EventBuilder::new("warn.repeated")
                        .str("msg", &msg)
                        .u64("repeats", repeats),
                );
            }
        }
    }

    /// Flushes the event sink (and any pending rate-limited warning).
    pub fn flush(&mut self) {
        self.flush_pending_warn();
        self.sink.flush();
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("mode", &self.mode)
            .field("events_path", &self.events_path)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut tele = Telemetry::disabled();
        assert!(!tele.is_enabled());
        tele.inc("c");
        tele.add("c", 5);
        tele.gauge_set("g", 1.0);
        tele.gauge_add("g", 1.0);
        tele.observe("h", 2.0);
        tele.emit(EventBuilder::new("e"));
        assert!(tele.registry().is_empty());
        assert!(tele.snapshot().is_empty());
    }

    #[test]
    fn enabled_records_metrics_and_events() {
        let (sink, events) = MemorySink::new();
        let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
        tele.inc("steps");
        tele.observe("loss", 1.5);
        tele.gauge_set("rate", 0.5);
        tele.progress("working");
        tele.emit(EventBuilder::new("epoch").u64("epoch", 1));
        let s = tele.snapshot();
        assert_eq!(s.counter("steps"), 1);
        assert_eq!(s.gauge("rate"), Some(0.5));
        let evs = events.borrow();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, "progress");
        assert_eq!(evs[0].message(), Some("working"));
        assert_eq!(evs[1].kind, "epoch");
        assert!(evs[1].t_host_s >= evs[0].t_host_s);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(TelemetryMode::parse("off"), Some(TelemetryMode::Off));
        assert_eq!(
            TelemetryMode::parse("summary"),
            Some(TelemetryMode::Summary)
        );
        assert_eq!(TelemetryMode::parse("jsonl"), Some(TelemetryMode::Jsonl));
        assert_eq!(TelemetryMode::parse("verbose"), None);
        assert_eq!(TelemetryMode::parse("OFF"), None);
    }

    #[test]
    fn from_settings_selects_modes() {
        let dir = std::env::temp_dir().join("sl_telemetry_test_settings");
        let t = Telemetry::from_settings(None, &dir, "s");
        assert_eq!(t.mode(), TelemetryMode::Summary);
        let t = Telemetry::from_settings(Some("off"), &dir, "s");
        assert_eq!(t.mode(), TelemetryMode::Off);
        // Unknown value falls back to summary (and warns, which we can't
        // capture here — the warn path is covered via MemorySink tests).
        let t = Telemetry::from_settings(Some("bogus"), &dir, "s");
        assert_eq!(t.mode(), TelemetryMode::Summary);
        // jsonl creates the journal file under the directory.
        let t = Telemetry::from_settings(Some("jsonl"), &dir, "stream");
        assert_eq!(t.mode(), TelemetryMode::Jsonl);
        let path = t.events_path().unwrap().to_path_buf();
        assert!(path.ends_with("stream.jsonl"));
        assert!(path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sampling_cadence_is_step_keyed() {
        let (sink, _events) = MemorySink::new();
        let tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
        let sampled: Vec<u64> = (1..3 * SAMPLE_EVERY)
            .filter(|&s| tele.should_sample(s))
            .collect();
        assert_eq!(sampled, vec![SAMPLE_EVERY, 2 * SAMPLE_EVERY]);
        // Disabled handles never sample and record no points.
        let mut off = Telemetry::disabled();
        assert!(!off.should_sample(4));
        off.series_point("train.loss", 0.5, 3.5);
        assert!(off.series().is_empty());
    }

    #[test]
    fn series_points_are_recorded_in_sim_time() {
        let (sink, _events) = MemorySink::new();
        let mut tele = Telemetry::with_sink(TelemetryMode::Summary, Box::new(sink));
        tele.series_point("train.loss", 0.125, 3.5);
        tele.series_point("train.loss", 0.25, 3.25);
        let s = tele.series().get("train.loss").unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some((0.25, 3.25)));
    }

    #[test]
    fn repeated_warns_collapse_to_one_event_with_repeats() {
        let (sink, events) = MemorySink::new();
        let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
        tele.warn("retry storm");
        tele.warn("retry storm");
        tele.warn("retry storm");
        // Window boundary: a series sample flushes the repeats.
        tele.series_point("train.loss", 0.5, 3.5);
        tele.warn("something else");
        tele.flush();
        let evs = events.borrow();
        let kinds: Vec<&str> = evs.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["warn", "warn.repeated", "warn"]);
        assert_eq!(evs[0].message(), Some("retry storm"));
        assert_eq!(evs[1].message(), Some("retry storm"));
        assert_eq!(evs[2].message(), Some("something else"));
    }

    #[test]
    fn single_warns_never_gain_a_repeat_event() {
        let (sink, events) = MemorySink::new();
        let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
        tele.warn("a");
        tele.warn("b"); // different message flushes "a" with 0 repeats
        tele.flush();
        let evs = events.borrow();
        let kinds: Vec<&str> = evs.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, vec!["warn", "warn"]);
    }

    #[test]
    fn jsonl_journal_round_trip() {
        let dir = std::env::temp_dir().join("sl_telemetry_test_roundtrip");
        let mut tele = Telemetry::from_settings(Some("jsonl"), &dir, "run");
        tele.progress("phase 1");
        tele.emit(EventBuilder::new("epoch").u64("epoch", 2).f64("rmse", 3.5));
        tele.flush();
        let text = std::fs::read_to_string(tele.events_path().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"progress\""));
        assert!(lines[0].contains("\"msg\":\"phase 1\""));
        assert!(lines[1].contains("\"epoch\":2"));
        assert!(lines[1].contains("\"rmse\":3.5"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
