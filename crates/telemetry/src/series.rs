//! Deterministic time-series store: fixed-capacity ring buffers of
//! `(sim_time, value)` samples per metric.
//!
//! The store is the live half of the observability stack: where the
//! [`crate::MetricsRegistry`] keeps end-of-run totals, the series store
//! keeps a bounded time-resolved record of how each metric evolved. Two
//! properties make it reproducible:
//!
//! * **Simulated-time axis.** Sample timestamps are the trainer's
//!   [`SimClock`](../sl_core) seconds, never host wall clock, so two
//!   runs of the same config produce identical `(t, v)` pairs at any
//!   thread count.
//! * **Step-keyed cadence.** Callers sample on a step-count cadence
//!   (`Telemetry::should_sample`, `SLM_SAMPLE_EVERY`) — a property of
//!   the deterministic training loop, not of elapsed host time.
//!
//! The export is a one-line-per-metric `series.jsonl` (byte-stable:
//! `verify.sh` literally `cmp`s two runs).

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::Path;

use crate::json::{self, JsonArray, JsonObject, JsonValue};

/// Default ring capacity per metric: enough for every step of a smoke
/// or quick run at the default cadence, bounded for long-running
/// servers.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// One metric's ring buffer of `(sim_time_s, value)` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    samples: VecDeque<(f64, f64)>,
    dropped: u64,
}

impl Series {
    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted by the ring (oldest-first) since the start.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.samples.back().copied()
    }

    /// Smallest retained value.
    pub fn min_value(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    /// Largest retained value.
    pub fn max_value(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }
}

/// A set of named [`Series`] rings sharing one capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesStore {
    capacity: usize,
    series: BTreeMap<String, Series>,
}

impl SeriesStore {
    /// An empty store; each metric retains at most `capacity` samples
    /// (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        SeriesStore {
            capacity: capacity.max(1),
            series: BTreeMap::new(),
        }
    }

    /// Per-metric ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one sample to metric `name`, evicting the oldest sample
    /// once the ring is full. Timestamps and values must be finite —
    /// the time axis is simulated seconds and non-finite training
    /// values are counted separately (`train.nonfinite.*`), never
    /// sampled.
    pub fn push(&mut self, name: &str, sim_time_s: f64, value: f64) {
        assert!(
            sim_time_s.is_finite() && value.is_finite(),
            "SeriesStore: bad sample ({sim_time_s}, {value})"
        );
        let s = self.series.entry(name.to_string()).or_default();
        if s.samples.len() == self.capacity {
            s.samples.pop_front();
            s.dropped += 1;
        }
        s.samples.push_back((sim_time_s, value));
    }

    /// `true` when no metric has any sample.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Metric names, sorted (BTreeMap order).
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// The series for `name`, `None` when never sampled.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// Serializes the store as JSONL: one line per metric, metrics in
    /// sorted order, no host timestamps — byte-identical across runs of
    /// the same config.
    ///
    /// ```json
    /// {"metric":"train.loss","dropped":0,"samples":[[0.125,3.5],...]}
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, s) in &self.series {
            let mut samples = JsonArray::new();
            for (t, v) in s.iter() {
                let mut pair = String::from("[");
                json::push_f64(t, &mut pair);
                pair.push(',');
                json::push_f64(v, &mut pair);
                pair.push(']');
                samples.push_raw(&pair);
            }
            out.push_str(
                &JsonObject::new()
                    .str("metric", name)
                    .u64("dropped", s.dropped)
                    .raw("samples", &samples.finish())
                    .finish(),
            );
            out.push('\n');
        }
        out
    }

    /// Parses a store serialized by [`SeriesStore::to_jsonl`]. The
    /// result has `capacity` = max(retained length, 1) per the whole
    /// store — enough for tools (`slm-top --series`) that only read.
    pub fn from_jsonl(text: &str) -> Result<SeriesStore, String> {
        let mut cap = 1;
        let mut series = BTreeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("series line {}: {e}", lineno + 1))?;
            let name = v
                .get("metric")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("series line {}: no metric name", lineno + 1))?
                .to_string();
            let dropped = v.get("dropped").and_then(JsonValue::as_u64).unwrap_or(0);
            let mut s = Series {
                samples: VecDeque::new(),
                dropped,
            };
            let samples = v
                .get("samples")
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| format!("series line {}: no samples array", lineno + 1))?;
            for pair in samples {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("series {name:?}: bad sample pair"))?;
                let t = pair[0]
                    .as_f64()
                    .ok_or_else(|| format!("series {name:?}: bad timestamp"))?;
                let val = pair[1]
                    .as_f64()
                    .ok_or_else(|| format!("series {name:?}: bad value"))?;
                s.samples.push_back((t, val));
            }
            cap = cap.max(s.samples.len());
            series.insert(name, s);
        }
        Ok(SeriesStore {
            capacity: cap,
            series,
        })
    }

    /// Writes the JSONL export to `path`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

impl Default for SeriesStore {
    fn default() -> Self {
        SeriesStore::new(DEFAULT_SERIES_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> SeriesStore {
        let mut s = SeriesStore::new(8);
        for i in 0..5 {
            s.push("train.loss", 0.125 * i as f64, 3.5 - 0.25 * i as f64);
        }
        s.push("net.retries", 0.5, 2.0);
        s
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut s = SeriesStore::new(3);
        for i in 0..5 {
            s.push("m", i as f64, (10 + i) as f64);
        }
        let m = s.get("m").unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.dropped(), 2);
        let kept: Vec<(f64, f64)> = m.iter().collect();
        assert_eq!(kept, vec![(2.0, 12.0), (3.0, 13.0), (4.0, 14.0)]);
        assert_eq!(m.last(), Some((4.0, 14.0)));
        assert_eq!(m.min_value(), Some(12.0));
        assert_eq!(m.max_value(), Some(14.0));
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut s = SeriesStore::new(0);
        s.push("m", 0.0, 1.0);
        s.push("m", 1.0, 2.0);
        assert_eq!(s.get("m").unwrap().len(), 1);
        assert_eq!(s.get("m").unwrap().dropped(), 1);
    }

    #[test]
    fn jsonl_is_sorted_and_round_trips() {
        let s = sample_store();
        let text = s.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // BTreeMap order: net.* before train.*.
        assert!(lines[0].starts_with("{\"metric\":\"net.retries\""));
        assert!(lines[1].starts_with("{\"metric\":\"train.loss\""));
        let back = SeriesStore::from_jsonl(&text).unwrap();
        assert_eq!(back.series, s.series);
        // Empty stores serialize to nothing and parse back empty.
        assert_eq!(SeriesStore::new(4).to_jsonl(), "");
        assert!(SeriesStore::from_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        assert!(SeriesStore::from_jsonl("not json").is_err());
        assert!(SeriesStore::from_jsonl("{\"metric\":\"m\"}").is_err());
        assert!(SeriesStore::from_jsonl("{\"samples\":[[0,1]]}").is_err());
        assert!(SeriesStore::from_jsonl("{\"metric\":\"m\",\"samples\":[[0]]}").is_err());
    }

    #[test]
    #[should_panic(expected = "bad sample")]
    fn rejects_non_finite_samples() {
        SeriesStore::new(4).push("m", 0.0, f64::NAN);
    }
}
