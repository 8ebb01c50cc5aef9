//! Counters, gauges and log-bucketed histograms.
//!
//! The registry is a plain name → metric map with no locking or global
//! state: whoever owns the [`crate::Telemetry`] owns its metrics. All
//! recording paths are allocation-free once a metric name exists, so the
//! instrumented trainer hot loop pays one `BTreeMap` lookup per metric
//! update.

use std::collections::BTreeMap;

use crate::snapshot::Snapshot;

/// Log-spaced sub-buckets per factor-of-two of value range. Eight per
/// octave bounds the relative quantile-estimation error by
/// `2^(1/8) − 1 ≈ 9.1 %`.
pub const BUCKETS_PER_OCTAVE: usize = 8;

/// Smallest tracked value: `2^MIN_EXP` (≈ 1 ns when values are seconds).
const MIN_EXP: i32 = -30;

/// Largest tracked value: `2^MAX_EXP` (≈ 1.7e10). Values beyond land in
/// the overflow bucket.
const MAX_EXP: i32 = 34;

/// Tracked octaves.
const OCTAVES: usize = (MAX_EXP - MIN_EXP) as usize;

/// Bucket 0 is the underflow bucket (`v < 2^MIN_EXP`, including zero);
/// the last bucket is the overflow bucket (`v ≥ 2^MAX_EXP`).
const NUM_BUCKETS: usize = OCTAVES * BUCKETS_PER_OCTAVE + 2;

/// Lower bound of bucket `i ∈ [1, NUM_BUCKETS-1]`.
fn bucket_lower(i: usize) -> f64 {
    debug_assert!((1..NUM_BUCKETS).contains(&i));
    let octaves = (i - 1) as f64 / BUCKETS_PER_OCTAVE as f64;
    (octaves + MIN_EXP as f64).exp2()
}

/// The bucket index for `v` (non-negative, finite).
fn bucket_index(v: f64) -> usize {
    let min = (MIN_EXP as f64).exp2();
    if v < min {
        return 0;
    }
    let i = 1 + ((v.log2() - MIN_EXP as f64) * BUCKETS_PER_OCTAVE as f64).floor() as usize;
    i.min(NUM_BUCKETS - 1)
}

/// A log-bucketed histogram of non-negative values.
///
/// Tracks exact `count`, `sum`, `min` and `max`; quantiles are estimated
/// from the buckets with ≤ 9.1 % relative error (and are exact when all
/// recorded values are equal, since estimates are clamped to
/// `[min, max]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one value. Values must be finite and non-negative (the
    /// telemetry layer records durations, sizes and counts).
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite() && v >= 0.0, "Histogram: bad value {v}");
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum / self.count as f64)
    }

    /// Estimated `q`-quantile (`0 ≤ q ≤ 1`), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "Histogram: quantile {q} out of range"
        );
        if self.count == 0 {
            return None;
        }
        // The extremes are tracked exactly.
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        // 1-based rank of the order statistic the quantile falls on.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let (lo, hi) = self.bucket_bounds(i);
                // Midpoint-convention interpolation within the bucket,
                // clamped to the exactly-tracked extrema.
                let frac = ((rank - cum) as f64 - 0.5) / c as f64;
                return Some((lo + (hi - lo) * frac).clamp(self.min, self.max));
            }
            cum += c;
        }
        Some(self.max)
    }

    /// Value range covered by bucket `i`, clamped to observed extrema at
    /// the open ends.
    fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        if i == 0 {
            (0.0, bucket_lower(1))
        } else if i == NUM_BUCKETS - 1 {
            (bucket_lower(i), self.max.max(bucket_lower(i)))
        } else {
            (bucket_lower(i), bucket_lower(i + 1))
        }
    }

    /// Folds `other` into `self`. Equivalent (up to float-summation
    /// rounding in `sum`) to having recorded both value streams into one
    /// histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs. Together with
    /// `sum`/`min`/`max` this is the histogram's full state, so snapshots
    /// can serialize it and [`Histogram::from_parts`] can rebuild the
    /// exact histogram (same quantile estimates) on the way back in.
    pub fn indexed_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Rebuilds a histogram from serialized parts: the sparse
    /// `(bucket_index, count)` pairs plus the exactly-tracked `sum`,
    /// `min` and `max`. The inverse of [`Histogram::indexed_buckets`];
    /// `count` is recovered as the bucket total. Returns `Err` on
    /// out-of-range bucket indices or stats inconsistent with emptiness.
    pub fn from_parts(
        buckets: &[(usize, u64)],
        sum: f64,
        min: Option<f64>,
        max: Option<f64>,
    ) -> Result<Histogram, String> {
        let mut h = Histogram::new();
        for &(i, c) in buckets {
            if i >= NUM_BUCKETS {
                return Err(format!(
                    "Histogram::from_parts: bucket index {i} out of range"
                ));
            }
            h.buckets[i] += c;
            h.count += c;
        }
        if h.count == 0 {
            return Ok(h);
        }
        let (min, max) = match (min, max) {
            (Some(lo), Some(hi)) if lo.is_finite() && hi.is_finite() && lo <= hi => (lo, hi),
            _ => {
                return Err("Histogram::from_parts: non-empty histogram needs min ≤ max".into());
            }
        };
        h.sum = sum;
        h.min = min;
        h.max = max;
        Ok(h)
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs (for debugging
    /// and tests; JSON snapshots serialize the summary statistics plus
    /// the sparse indexed buckets).
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0.0 } else { bucket_lower(i) }, c))
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Named counters, gauges and histograms.
///
/// * **Counters** are monotone `u64` totals (steps, slots, misses).
/// * **Gauges** are last-written / accumulated `f64` values (rates,
///   simulated-seconds totals).
/// * **Histograms** are value distributions (per-step loss, slot counts,
///   host-time scopes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        assert!(v.is_finite(), "MetricsRegistry: bad gauge value {v}");
        self.gauges.insert(name.to_string(), v);
    }

    /// Adds `dv` to gauge `name` (creating it at zero). Used for `f64`
    /// totals that must accumulate across runs, e.g. simulated seconds.
    pub fn gauge_add(&mut self, name: &str, dv: f64) {
        assert!(dv.is_finite(), "MetricsRegistry: bad gauge delta {dv}");
        if let Some(g) = self.gauges.get_mut(name) {
            *g += dv;
        } else {
            self.gauges.insert(name.to_string(), dv);
        }
    }

    /// Records `v` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: f64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(v);
        } else {
            let mut h = Histogram::new();
            h.record(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Merges a standalone histogram into histogram `name`.
    pub fn merge_histogram(&mut self, name: &str, other: &Histogram) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.merge(other);
        } else {
            self.histograms.insert(name.to_string(), other.clone());
        }
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, `None` when absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, `None` when absent.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Exact powers of two sit on bucket lower bounds: bucket index
        // advances by BUCKETS_PER_OCTAVE per octave.
        let i1 = bucket_index(1.0);
        let i2 = bucket_index(2.0);
        let i4 = bucket_index(4.0);
        assert_eq!(i2 - i1, BUCKETS_PER_OCTAVE);
        assert_eq!(i4 - i2, BUCKETS_PER_OCTAVE);
        // The lower bound of the bucket holding 1.0 is exactly 1.0.
        assert_eq!(bucket_lower(i1), 1.0);
        // A value epsilon below a boundary lands one bucket lower.
        assert_eq!(bucket_index(2.0 - 1e-12), i2 - 1);
        // Zero and sub-minimum values land in the underflow bucket.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1e-12), 0);
        // The minimum tracked value is the first real bucket.
        assert_eq!(bucket_index((MIN_EXP as f64).exp2()), 1);
        // Huge values land in (and never exceed) the overflow bucket.
        assert_eq!(bucket_index(1e300), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_exact_stats() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10.0);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.mean(), Some(2.5));
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let tol = (1.0f64 / BUCKETS_PER_OCTAVE as f64).exp2() - 1.0; // ≈ 0.091
        for (q, expect) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let est = h.quantile(q).unwrap();
            let rel = (est - expect).abs() / expect;
            assert!(rel <= tol + 1e-9, "q{q}: est {est} vs {expect} (rel {rel})");
        }
        // Extremes are exact thanks to min/max clamping.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn constant_stream_has_exact_quantiles() {
        let mut h = Histogram::new();
        for _ in 0..57 {
            h.record(0.125);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(0.125), "q = {q}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = [0.001, 0.5, 3.0, 3.0, 100.0];
        let b = [0.25, 7.5, 0.0];
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hab = Histogram::new();
        for &v in &a {
            ha.record(v);
            hab.record(v);
        }
        for &v in &b {
            hb.record(v);
            hab.record(v);
        }
        ha.merge(&hb);
        assert_eq!(ha.count(), hab.count());
        assert_eq!(ha.min(), hab.min());
        assert_eq!(ha.max(), hab.max());
        assert!((ha.sum() - hab.sum()).abs() < 1e-9);
        assert_eq!(ha.nonzero_buckets(), hab.nonzero_buckets());
    }

    #[test]
    #[should_panic(expected = "bad value")]
    fn rejects_negative_values() {
        Histogram::new().record(-1.0);
    }

    #[test]
    fn from_parts_round_trips_exactly() {
        let mut h = Histogram::new();
        for v in [0.0, 1e-12, 0.25, 3.0, 3.0, 1e300] {
            h.record(v);
        }
        let rebuilt =
            Histogram::from_parts(&h.indexed_buckets(), h.sum(), h.min(), h.max()).unwrap();
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.quantile(0.5), h.quantile(0.5));
        // Empty histograms round-trip too.
        let empty = Histogram::new();
        let rebuilt = Histogram::from_parts(&[], 0.0, None, None).unwrap();
        assert_eq!(rebuilt, empty);
    }

    #[test]
    fn from_parts_rejects_bad_input() {
        assert!(Histogram::from_parts(&[(usize::MAX, 1)], 0.0, Some(0.0), Some(0.0)).is_err());
        assert!(Histogram::from_parts(&[(1, 1)], 1.0, None, None).is_err());
        assert!(Histogram::from_parts(&[(1, 1)], 1.0, Some(2.0), Some(1.0)).is_err());
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.inc("steps");
        r.add("steps", 4);
        assert_eq!(r.counter("steps"), 5);
        assert_eq!(r.counter("absent"), 0);
        r.gauge_set("rate", 0.5);
        r.gauge_set("rate", 0.75); // last write wins
        assert_eq!(r.gauge("rate"), Some(0.75));
        r.gauge_add("sim_s", 1.5);
        r.gauge_add("sim_s", 0.25);
        assert_eq!(r.gauge("sim_s"), Some(1.75));
        r.observe("loss", 2.0);
        r.observe("loss", 4.0);
        assert_eq!(r.histogram("loss").unwrap().count(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn registry_merge_histogram() {
        let mut r = MetricsRegistry::new();
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(2.0);
        r.merge_histogram("slots", &h);
        r.merge_histogram("slots", &h);
        assert_eq!(r.histogram("slots").unwrap().count(), 4);
    }
}
