//! Deterministic distributed span tracing (DESIGN.md §10).
//!
//! A [`Tracer`] produces causally linked [`SpanRecord`]s: every span
//! carries a trace id, a span id, its parent's span id, a category, a
//! start and duration on **both** clocks (host wall time for humans,
//! simulated microseconds for the determinism gates) and typed
//! key/value attributes. Span ids come from a per-run counter — never
//! from wall clocks or ambient RNG — so two runs of the same
//! configuration produce bit-identical ids, and the exported timeline
//! (which carries only simulated time) is byte-identical under the
//! `SLM_THREADS=1` double-run verify gate.
//!
//! Spans journal losslessly through the existing JSONL event stream as
//! `"span"` events and can be parsed back ([`SpanRecord::from_json`]),
//! merged across processes (the UE and BS sides journal independently;
//! BS span ids live in [`BS_SPAN_NAMESPACE`] so the merged id space
//! stays collision-free), checked for well-formedness ([`check_spans`])
//! and exported as Chrome trace-event JSON ([`chrome_trace_json`]) that
//! loads directly in Perfetto or `chrome://tracing`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use sl_rng::fnv1a_64;

use crate::events::{Event, Value};
use crate::json::{JsonArray, JsonObject, JsonValue};
use crate::{EventBuilder, Telemetry};

/// High bit OR-ed into every BS-side span id so UE (counter from 1) and
/// BS (counter from `BS_SPAN_NAMESPACE | 1`) ids never collide inside
/// one merged trace.
pub const BS_SPAN_NAMESPACE: u64 = 1 << 63;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The run this span belongs to (shared across the wire).
    pub trace_id: u64,
    /// This span's id (unique within the trace).
    pub span_id: u64,
    /// Parent span id; `0` marks a root span.
    pub parent_id: u64,
    /// Span name, e.g. `"train.step"`, `"uplink.transfer"`.
    pub name: String,
    /// Category (`"step"`, `"ue"`, `"bs"`, `"link"`, `"net"`).
    pub cat: String,
    /// Timeline track: which side recorded it (`"ue"` / `"bs"`).
    pub track: String,
    /// Host start, seconds since the recording [`Tracer`] was created.
    pub t_host_s: f64,
    /// Host duration in seconds (0 for spans recorded after the fact).
    pub host_dur_s: f64,
    /// Simulated-clock start, microseconds.
    pub sim_start_us: u64,
    /// Simulated-clock duration, microseconds.
    pub sim_dur_us: u64,
    /// Typed attributes, in insertion order.
    pub attrs: Vec<(String, Value)>,
}

/// Prefix distinguishing attribute fields inside a `"span"` event.
const ATTR_PREFIX: &str = "a.";

impl SpanRecord {
    /// Simulated end, microseconds.
    pub fn sim_end_us(&self) -> u64 {
        self.sim_start_us.saturating_add(self.sim_dur_us)
    }

    /// The attribute `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&Value> {
        self.attrs.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Renders the span as a `"span"` journal event. Ids are serialized
    /// as fixed-width hex strings: the JSON number path would round-trip
    /// them through `f64` and corrupt ids above 2^53.
    pub fn to_event(&self) -> EventBuilder {
        let mut b = EventBuilder::new("span")
            .str("trace", &format!("{:016x}", self.trace_id))
            .str("span", &format!("{:016x}", self.span_id))
            .str("parent", &format!("{:016x}", self.parent_id))
            .str("name", &self.name)
            .str("cat", &self.cat)
            .str("track", &self.track)
            .f64("t_start_s", self.t_host_s)
            .f64("host_s", self.host_dur_s)
            .u64("sim_us", self.sim_start_us)
            .u64("sim_dur_us", self.sim_dur_us);
        for (k, v) in &self.attrs {
            let key = format!("{ATTR_PREFIX}{k}");
            b = match v {
                Value::U64(x) => b.u64(&key, *x),
                Value::I64(x) => b.i64(&key, *x),
                Value::F64(x) => b.f64(&key, *x),
                Value::Bool(x) => b.bool(&key, *x),
                Value::Str(x) => b.str(&key, x),
            };
        }
        b
    }

    /// Parses a span back out of an in-memory journal [`Event`];
    /// `None` when the event is not a well-formed `"span"` event.
    pub fn from_event(event: &Event) -> Option<SpanRecord> {
        if event.kind != "span" {
            return None;
        }
        let hex = |name: &str| match event.field(name) {
            Some(Value::Str(s)) => u64::from_str_radix(s, 16).ok(),
            _ => None,
        };
        let text = |name: &str| match event.field(name) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let num = |name: &str| match event.field(name) {
            Some(Value::U64(x)) => Some(*x),
            _ => None,
        };
        let float = |name: &str| match event.field(name) {
            Some(Value::F64(x)) => Some(*x),
            _ => None,
        };
        let attrs = event
            .fields
            .iter()
            .filter_map(|(k, v)| {
                k.strip_prefix(ATTR_PREFIX)
                    .map(|name| (name.to_string(), v.clone()))
            })
            .collect();
        Some(SpanRecord {
            trace_id: hex("trace")?,
            span_id: hex("span")?,
            parent_id: hex("parent")?,
            name: text("name")?,
            cat: text("cat")?,
            track: text("track")?,
            t_host_s: float("t_start_s")?,
            host_dur_s: float("host_s")?,
            sim_start_us: num("sim_us")?,
            sim_dur_us: num("sim_dur_us")?,
            attrs,
        })
    }

    /// Parses a span out of one parsed JSONL journal line; `None` when
    /// the line is not a `"span"` event.
    pub fn from_json(v: &JsonValue) -> Option<SpanRecord> {
        if v.get("event").and_then(JsonValue::as_str) != Some("span") {
            return None;
        }
        let obj = v.as_obj()?;
        let hex = |name: &str| {
            obj.get(name)
                .and_then(JsonValue::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        let text = |name: &str| {
            obj.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        // BTreeMap iteration is key-sorted, which is stable enough for
        // attributes (they are compared and rendered by name anyway).
        let attrs = obj
            .iter()
            .filter_map(|(k, v)| {
                let name = k.strip_prefix(ATTR_PREFIX)?;
                let value = match v {
                    JsonValue::Bool(b) => Value::Bool(*b),
                    JsonValue::Str(s) => Value::Str(s.clone()),
                    JsonValue::Num(n) => Value::F64(*n),
                    _ => return None,
                };
                Some((name.to_string(), value))
            })
            .collect();
        Some(SpanRecord {
            trace_id: hex("trace")?,
            span_id: hex("span")?,
            parent_id: hex("parent")?,
            name: text("name")?,
            cat: text("cat")?,
            track: text("track")?,
            t_host_s: obj.get("t_start_s").and_then(JsonValue::as_f64)?,
            host_dur_s: obj.get("host_s").and_then(JsonValue::as_f64)?,
            sim_start_us: obj.get("sim_us").and_then(JsonValue::as_u64)?,
            sim_dur_us: obj.get("sim_dur_us").and_then(JsonValue::as_u64)?,
            attrs,
        })
    }
}

/// Every span parsed out of a JSONL journal's text (non-span events and
/// unparseable lines are skipped — the journal may interleave freely).
pub fn spans_from_jsonl(text: &str) -> Vec<SpanRecord> {
    text.lines()
        .filter_map(|line| crate::json::parse(line).ok())
        .filter_map(|v| SpanRecord::from_json(&v))
        .collect()
}

/// An open span handle returned by [`Tracer::begin`]; close it with
/// [`Tracer::end`] / [`Tracer::end_with`].
#[derive(Debug)]
pub struct OpenSpan {
    span_id: u64,
    parent_id: u64,
    name: String,
    cat: String,
    host_t0: f64,
    sim_start_us: u64,
}

impl OpenSpan {
    /// The span's id (pass as the parent of remote or out-of-band
    /// children).
    pub fn id(&self) -> u64 {
        self.span_id
    }
}

/// Produces causally linked spans with deterministic counter-derived
/// ids, buffering them until [`Tracer::drain_into`] hands them to a
/// [`Telemetry`] journal (so recording needs no `&mut Telemetry` in
/// scope — the net client records retry spans deep inside its
/// request loop).
#[derive(Debug)]
pub struct Tracer {
    trace_id: u64,
    track: String,
    namespace: u64,
    next: u64,
    origin: Instant,
    stack: Vec<u64>,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// A tracer for trace `trace_id` recording on `track` (`"ue"`).
    pub fn new(trace_id: u64, track: &str) -> Self {
        Self::with_namespace(trace_id, track, 0)
    }

    /// A tracer whose span ids are all OR-ed with `namespace` (the BS
    /// side passes [`BS_SPAN_NAMESPACE`]).
    pub fn with_namespace(trace_id: u64, track: &str, namespace: u64) -> Self {
        Tracer {
            trace_id,
            track: track.to_string(),
            namespace,
            next: 0,
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer whose trace id is the FNV-1a hash of `key` (e.g. the
    /// `Debug` rendering of an experiment config) — deterministic, and
    /// identical for the in-process and networked run of one config.
    /// The id is forced nonzero because `0` means "tracing off" on the
    /// wire.
    pub fn for_run(key: &str, track: &str) -> Self {
        let h = fnv1a_64(key.as_bytes());
        Self::new(if h == 0 { 1 } else { h }, track)
    }

    /// The trace id (crosses the wire in the session handshake).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Closed spans buffered so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when no closed spans are buffered.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.namespace | self.next
    }

    /// Opens a span starting at simulated time `sim_start_us`. Its
    /// parent is the innermost span still open (`0` → root). Nested
    /// `begin`/`end` pairs must close innermost-first.
    pub fn begin(&mut self, name: &str, cat: &str, sim_start_us: u64) -> OpenSpan {
        let span_id = self.next_id();
        let parent_id = self.stack.last().copied().unwrap_or(0);
        self.stack.push(span_id);
        OpenSpan {
            span_id,
            parent_id,
            name: name.to_string(),
            cat: cat.to_string(),
            host_t0: self.origin.elapsed().as_secs_f64(),
            sim_start_us,
        }
    }

    /// Closes `open` at simulated time `sim_end_us`.
    pub fn end(&mut self, open: OpenSpan, sim_end_us: u64) {
        self.end_with(open, sim_end_us, Vec::new());
    }

    /// Closes `open` at simulated time `sim_end_us` with attributes.
    pub fn end_with(&mut self, open: OpenSpan, sim_end_us: u64, attrs: Vec<(String, Value)>) {
        assert!(
            sim_end_us >= open.sim_start_us,
            "Tracer: span {:?} ends before it starts ({} < {})",
            open.name,
            sim_end_us,
            open.sim_start_us
        );
        debug_assert_eq!(
            self.stack.last().copied(),
            Some(open.span_id),
            "Tracer: spans must close innermost-first"
        );
        self.stack.pop();
        let t_host_s = open.host_t0;
        let host_dur_s = (self.origin.elapsed().as_secs_f64() - open.host_t0).max(0.0);
        self.spans.push(SpanRecord {
            trace_id: self.trace_id,
            span_id: open.span_id,
            parent_id: open.parent_id,
            name: open.name,
            cat: open.cat,
            track: self.track.clone(),
            t_host_s,
            host_dur_s,
            sim_start_us: open.sim_start_us,
            sim_dur_us: sim_end_us - open.sim_start_us,
            attrs,
        });
    }

    /// Records a complete span under the innermost open span (`0` →
    /// root) without host bracketing; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        cat: &str,
        sim_start_us: u64,
        sim_dur_us: u64,
        attrs: Vec<(String, Value)>,
    ) -> u64 {
        let parent = self.stack.last().copied().unwrap_or(0);
        self.record_under(parent, name, cat, sim_start_us, sim_dur_us, attrs)
    }

    /// Records a complete span under an explicit parent id (the BS side
    /// parents its spans to ids received over the wire; the client
    /// parents retry spans to the transfer spans that caused them).
    pub fn record_under(
        &mut self,
        parent_id: u64,
        name: &str,
        cat: &str,
        sim_start_us: u64,
        sim_dur_us: u64,
        attrs: Vec<(String, Value)>,
    ) -> u64 {
        let span_id = self.next_id();
        self.spans.push(SpanRecord {
            trace_id: self.trace_id,
            span_id,
            parent_id,
            name: name.to_string(),
            cat: cat.to_string(),
            track: self.track.clone(),
            t_host_s: self.origin.elapsed().as_secs_f64(),
            host_dur_s: 0.0,
            sim_start_us,
            sim_dur_us,
            attrs,
        });
        span_id
    }

    /// Takes every buffered closed span.
    pub fn drain(&mut self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans)
    }

    /// Journals and clears every buffered span as `"span"` events.
    pub fn drain_into(&mut self, tele: &mut Telemetry) {
        for span in self.drain() {
            tele.emit(span.to_event());
        }
    }
}

/// Summary statistics returned by a passing [`check_spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total spans checked.
    pub spans: usize,
    /// Distinct trace ids.
    pub traces: usize,
    /// Root spans (parent id 0).
    pub roots: usize,
}

/// Well-formedness check over a (merged) span set:
///
/// * span ids unique within each trace;
/// * no orphan parents — every nonzero parent id resolves within the
///   same trace;
/// * no negative or non-finite host durations;
/// * every child's simulated window is contained in its parent's;
/// * per `(trace, track)`, spans in id order have monotone
///   non-decreasing simulated starts (ids are recording order).
pub fn check_spans(spans: &[SpanRecord]) -> Result<TraceStats, Vec<String>> {
    let mut errors = Vec::new();
    let mut ids: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut by_id: BTreeMap<(u64, u64), &SpanRecord> = BTreeMap::new();
    for s in spans {
        if !ids.insert((s.trace_id, s.span_id)) {
            errors.push(format!(
                "duplicate span id {:016x} in trace {:016x}",
                s.span_id, s.trace_id
            ));
        }
        by_id.insert((s.trace_id, s.span_id), s);
        if !s.host_dur_s.is_finite() || s.host_dur_s < 0.0 {
            errors.push(format!(
                "span {} ({:016x}) has invalid host duration {}",
                s.name, s.span_id, s.host_dur_s
            ));
        }
    }
    let mut roots = 0usize;
    for s in spans {
        if s.parent_id == 0 {
            roots += 1;
            continue;
        }
        match by_id.get(&(s.trace_id, s.parent_id)) {
            None => errors.push(format!(
                "span {} ({:016x}) has orphan parent {:016x} in trace {:016x}",
                s.name, s.span_id, s.parent_id, s.trace_id
            )),
            Some(p) => {
                if s.sim_start_us < p.sim_start_us || s.sim_end_us() > p.sim_end_us() {
                    errors.push(format!(
                        "span {} [{}, {}] us escapes parent {} [{}, {}] us",
                        s.name,
                        s.sim_start_us,
                        s.sim_end_us(),
                        p.name,
                        p.sim_start_us,
                        p.sim_end_us()
                    ));
                }
            }
        }
    }
    let mut tracks: BTreeMap<(u64, &str), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        tracks
            .entry((s.trace_id, s.track.as_str()))
            .or_default()
            .push((s.span_id, s.sim_start_us));
    }
    for ((trace, track), mut items) in tracks {
        items.sort_unstable();
        for w in items.windows(2) {
            if w[1].1 < w[0].1 {
                errors.push(format!(
                    "trace {trace:016x} track {track}: sim time not monotone \
                     (span {:016x} at {} us after span {:016x} at {} us)",
                    w[1].0, w[1].1, w[0].0, w[0].1
                ));
            }
        }
    }
    if errors.is_empty() {
        let traces: BTreeSet<u64> = spans.iter().map(|s| s.trace_id).collect();
        Ok(TraceStats {
            spans: spans.len(),
            traces: traces.len(),
            roots,
        })
    } else {
        Err(errors)
    }
}

/// Renders a merged span set as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` form Perfetto and `chrome://tracing` load
/// directly).
///
/// The export is **deterministic**: only simulated-clock microseconds
/// appear as timestamps (host wall times stay in the JSONL journal),
/// spans are sorted by `(track, trace, sim start, span id)`, and
/// track/session numbering is derived by sorting — so a double run at
/// `SLM_THREADS=1` produces byte-identical files.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut tracks: Vec<&str> = spans.iter().map(|s| s.track.as_str()).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let pid_of = |track: &str| -> u64 {
        tracks
            .iter()
            .position(|t| *t == track)
            .map_or(0, |i| i as u64 + 1)
    };
    let mut traces: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
    traces.sort_unstable();
    traces.dedup();
    let tid_of = |trace: u64| -> u64 {
        traces
            .iter()
            .position(|t| *t == trace)
            .map_or(0, |i| i as u64 + 1)
    };

    let mut events = JsonArray::new();
    for track in &tracks {
        events.push_raw(
            &JsonObject::new()
                .str("ph", "M")
                .str("name", "process_name")
                .u64("pid", pid_of(track))
                .u64("tid", 0)
                .raw("args", &JsonObject::new().str("name", track).finish())
                .finish(),
        );
    }
    for (i, trace) in traces.iter().enumerate() {
        // Thread name: the session label when any span carries one,
        // else the trace id.
        let label = spans
            .iter()
            .filter(|s| s.trace_id == *trace)
            .find_map(|s| match s.attr("session") {
                Some(Value::Str(l)) => Some(l.clone()),
                _ => None,
            })
            .unwrap_or_else(|| format!("trace {trace:016x}"));
        for track in &tracks {
            events.push_raw(
                &JsonObject::new()
                    .str("ph", "M")
                    .str("name", "thread_name")
                    .u64("pid", pid_of(track))
                    .u64("tid", i as u64 + 1)
                    .raw("args", &JsonObject::new().str("name", &label).finish())
                    .finish(),
            );
        }
    }

    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by(|a, b| {
        (a.track.as_str(), a.trace_id, a.sim_start_us, a.span_id).cmp(&(
            b.track.as_str(),
            b.trace_id,
            b.sim_start_us,
            b.span_id,
        ))
    });
    for s in ordered {
        let mut args = JsonObject::new()
            .str("trace", &format!("{:016x}", s.trace_id))
            .str("span", &format!("{:016x}", s.span_id))
            .str("parent", &format!("{:016x}", s.parent_id));
        for (k, v) in &s.attrs {
            args = match v {
                Value::U64(x) => args.u64(k, *x),
                Value::I64(x) => args.i64(k, *x),
                Value::F64(x) => args.f64(k, *x),
                Value::Bool(x) => args.bool(k, *x),
                Value::Str(x) => args.str(k, x),
            };
        }
        events.push_raw(
            &JsonObject::new()
                .str("ph", "X")
                .str("name", &s.name)
                .str("cat", &s.cat)
                .u64("ts", s.sim_start_us)
                .u64("dur", s.sim_dur_us)
                .u64("pid", pid_of(&s.track))
                .u64("tid", tid_of(s.trace_id))
                .raw("args", &args.finish())
                .finish(),
        );
    }
    JsonObject::new()
        .raw("traceEvents", &events.finish())
        .finish()
}

/// One row of the per-step latency breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total simulated microseconds.
    pub total_us: u64,
    /// Maximum simulated microseconds of one span.
    pub max_us: u64,
}

impl LatencyRow {
    /// Mean simulated microseconds per span.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// Aggregates a span set by name into latency rows, ordered by total
/// simulated time descending (name as tie-break, so the table is
/// deterministic).
pub fn latency_breakdown(spans: &[SpanRecord]) -> Vec<LatencyRow> {
    let mut by_name: BTreeMap<&str, LatencyRow> = BTreeMap::new();
    for s in spans {
        let row = by_name
            .entry(s.name.as_str())
            .or_insert_with(|| LatencyRow {
                name: s.name.clone(),
                count: 0,
                total_us: 0,
                max_us: 0,
            });
        row.count += 1;
        row.total_us += s.sim_dur_us;
        row.max_us = row.max_us.max(s.sim_dur_us);
    }
    let mut rows: Vec<LatencyRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    rows
}

/// Converts simulated seconds (the `SimClock` unit) to the trace's
/// microsecond grid. Rounding makes the mapping deterministic for any
/// given `f64` bit pattern.
pub fn sim_us(seconds: f64) -> u64 {
    (seconds * 1e6).round() as u64
}

/// `true` when `SLM_TRACE` requests tracing (`on` / `1` / `true`).
pub fn trace_env_enabled() -> bool {
    matches!(
        std::env::var("SLM_TRACE").ok().as_deref(),
        Some("on" | "1" | "true")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spans() -> Vec<SpanRecord> {
        let mut tr = Tracer::new(0xabc, "ue");
        let root = tr.begin("train.step", "step", 0);
        tr.record("ue.forward", "ue", 0, 40, vec![]);
        tr.record(
            "uplink.transfer",
            "link",
            40,
            60,
            vec![("bits".into(), Value::U64(4096))],
        );
        tr.end_with(root, 100, vec![("step".into(), Value::U64(0))]);
        tr.drain()
    }

    #[test]
    fn ids_are_counter_derived_and_parented() {
        let spans = sample_spans();
        assert_eq!(spans.len(), 3);
        // record() children got ids 2 and 3 under root id 1.
        assert_eq!(spans[0].span_id, 2);
        assert_eq!(spans[0].parent_id, 1);
        assert_eq!(spans[1].span_id, 3);
        assert_eq!(spans[2].span_id, 1);
        assert_eq!(spans[2].parent_id, 0);
        assert_eq!(spans[2].sim_dur_us, 100);
    }

    #[test]
    fn namespaced_ids_carry_the_high_bit() {
        let mut tr = Tracer::with_namespace(7, "bs", BS_SPAN_NAMESPACE);
        let id = tr.record_under(42, "bs.step", "bs", 10, 5, vec![]);
        assert_eq!(id, BS_SPAN_NAMESPACE | 1);
        let spans = tr.drain();
        assert_eq!(spans[0].parent_id, 42);
        assert_eq!(spans[0].track, "bs");
    }

    #[test]
    fn trace_id_for_run_is_stable_and_nonzero() {
        let a = Tracer::for_run("cfg-a", "ue");
        let b = Tracer::for_run("cfg-a", "ue");
        let c = Tracer::for_run("cfg-b", "ue");
        assert_eq!(a.trace_id(), b.trace_id());
        assert_ne!(a.trace_id(), c.trace_id());
        assert_ne!(a.trace_id(), 0);
    }

    #[test]
    fn event_round_trip_preserves_ids_and_attrs() {
        let spans = sample_spans();
        for s in &spans {
            let event = s.to_event().build(1.0);
            let back = SpanRecord::from_event(&event).expect("span event parses");
            assert_eq!(&back, s);
        }
    }

    #[test]
    fn jsonl_round_trip_survives_big_ids() {
        let mut tr = Tracer::with_namespace(u64::MAX - 3, "bs", BS_SPAN_NAMESPACE);
        tr.record("x", "bs", 1, 2, vec![("k".into(), Value::Str("v".into()))]);
        let spans = tr.drain();
        let line = spans[0].to_event().build(0.5).to_json();
        let parsed = spans_from_jsonl(&line);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].trace_id, u64::MAX - 3);
        assert_eq!(parsed[0].span_id, BS_SPAN_NAMESPACE | 1);
        assert_eq!(parsed[0].attr("k"), Some(&Value::Str("v".into())));
    }

    #[test]
    fn checker_accepts_well_formed_spans() {
        let spans = sample_spans();
        let stats = check_spans(&spans).expect("well-formed");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.traces, 1);
        assert_eq!(stats.roots, 1);
    }

    #[test]
    fn checker_flags_orphans_escapes_and_nonmonotone() {
        let mut spans = sample_spans();
        spans[0].parent_id = 999; // orphan
        let errs = check_spans(&spans).expect_err("orphan parent");
        assert!(errs.iter().any(|e| e.contains("orphan")), "{errs:?}");

        let mut spans = sample_spans();
        spans[1].sim_dur_us = 10_000; // escapes the root window
        let errs = check_spans(&spans).expect_err("escaping child");
        assert!(errs.iter().any(|e| e.contains("escapes")), "{errs:?}");

        let mut spans = sample_spans();
        spans[1].sim_start_us = 0;
        spans[0].sim_start_us = 50; // id 2 at 50, id 3 at 0: not monotone
        let errs = check_spans(&spans).expect_err("nonmonotone");
        assert!(errs.iter().any(|e| e.contains("monotone")), "{errs:?}");
    }

    #[test]
    fn chrome_export_is_deterministic_and_host_free() {
        let spans = sample_spans();
        let a = chrome_trace_json(&spans);
        let b = chrome_trace_json(&spans);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"train.step\""));
        assert!(a.contains("\"ts\":40"));
        // Host times never reach the export.
        assert!(!a.contains("host"));
        let parsed = crate::json::parse(&a).expect("export is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        // 1 process_name + 1 thread_name + 3 spans.
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn export_reorders_to_a_stable_order() {
        let mut spans = sample_spans();
        spans.reverse();
        assert_eq!(
            chrome_trace_json(&spans),
            chrome_trace_json(&sample_spans())
        );
    }

    #[test]
    fn latency_rows_aggregate_by_name() {
        let mut spans = sample_spans();
        spans.extend(sample_spans());
        let rows = latency_breakdown(&spans);
        assert_eq!(rows[0].name, "train.step");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_us, 200);
        assert_eq!(rows[0].max_us, 100);
        assert!((rows[0].mean_us() - 100.0).abs() < 1e-12);
        let uplink = rows.iter().find(|r| r.name == "uplink.transfer").unwrap();
        assert_eq!(uplink.total_us, 120);
    }

    #[test]
    fn sim_us_rounds_deterministically() {
        assert_eq!(sim_us(0.0), 0);
        assert_eq!(sim_us(1.25), 1_250_000);
        assert_eq!(sim_us(0.000_000_4), 0);
        assert_eq!(sim_us(0.000_000_6), 1);
    }

    #[test]
    fn drain_into_journals_span_events() {
        let (sink, events) = crate::MemorySink::new();
        let mut tele = Telemetry::with_sink(crate::TelemetryMode::Jsonl, Box::new(sink));
        let mut tr = Tracer::new(5, "ue");
        tr.record("x", "ue", 0, 1, vec![]);
        tr.drain_into(&mut tele);
        assert!(tr.is_empty());
        let evs = events.borrow();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, "span");
        assert!(SpanRecord::from_event(&evs[0]).is_some());
    }
}
