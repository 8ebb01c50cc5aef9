//! Property-based tests of the telemetry substrate: snapshot merging is
//! equivalent to recording the combined stream, counters are monotone,
//! and histogram quantile estimates stay within the log-bucket error
//! bound.

use sl_rng::rngs::StdRng;
use sl_rng::{cases, Rng};

use sl_telemetry::{Histogram, MetricsRegistry, SeriesStore, Snapshot, BUCKETS_PER_OCTAVE};

const CASES: usize = 64;

/// Up to 199 positive, finite values spanning the histogram's tracked
/// range.
fn any_values(rng: &mut StdRng) -> Vec<f64> {
    let len = rng.random_range(0usize..200);
    (0..len).map(|_| rng.random_range(1e-6f64..1e6)).collect()
}

fn record_all(values: &[f64]) -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    for &v in values {
        r.observe("h", v);
        r.inc("n");
        r.gauge_set("last", v);
    }
    r
}

#[test]
fn merging_snapshots_equals_recording_combined_stream() {
    cases(
        "merging_snapshots_equals_recording_combined_stream",
        CASES,
        |rng| {
            let a = any_values(rng);
            let b = any_values(rng);
            let sa = record_all(&a).snapshot();
            let sb = record_all(&b).snapshot();
            let combined: Vec<f64> = a.iter().chain(&b).copied().collect();
            let sc = record_all(&combined).snapshot();

            let mut merged = sa.clone();
            merged.merge(&sb);

            assert_eq!(merged.counters, sc.counters);
            // Gauges: last write wins, which is b's last value when b is
            // non-empty, else a's.
            assert_eq!(merged.gauges, sc.gauges);
            // Histograms: exact equality up to float summation order in `sum`.
            assert_eq!(merged.histograms.len(), sc.histograms.len());
            for (name, hm) in &merged.histograms {
                let hc = &sc.histograms[name];
                assert_eq!(hm.count(), hc.count());
                assert_eq!(hm.min(), hc.min());
                assert_eq!(hm.max(), hc.max());
                assert_eq!(hm.nonzero_buckets(), hc.nonzero_buckets());
                let scale = hc.sum().abs().max(1.0);
                assert!((hm.sum() - hc.sum()).abs() <= 1e-9 * scale);
            }
        },
    );
}

#[test]
fn counters_are_monotone() {
    cases("counters_are_monotone", CASES, |rng| {
        let len = rng.random_range(1usize..100);
        let increments: Vec<u64> = (0..len).map(|_| rng.random_range(0u64..1_000)).collect();
        let mut r = MetricsRegistry::new();
        let mut last = 0u64;
        let mut total = 0u64;
        for &n in &increments {
            r.add("c", n);
            let now = r.counter("c");
            assert!(now >= last, "counter decreased: {last} -> {now}");
            last = now;
            total += n;
        }
        assert_eq!(r.counter("c"), total);
    });
}

#[test]
fn quantile_estimates_within_bucket_error() {
    cases("quantile_estimates_within_bucket_error", CASES, |rng| {
        let values = any_values(rng);
        let q = rng.random_range(0.0f64..=1.0);
        if values.is_empty() {
            return;
        }
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];
        let est = h.quantile(q).unwrap();
        // The estimate lies in the recorded range…
        assert!(est >= h.min().unwrap() && est <= h.max().unwrap());
        // …and within one log-bucket of the true order statistic.
        let tol = (1.0f64 / BUCKETS_PER_OCTAVE as f64).exp2() - 1.0;
        let rel = (est - truth).abs() / truth;
        assert!(
            rel <= tol + 1e-9,
            "q={q}: est {est} vs true {truth} (rel {rel})"
        );
    });
}

#[test]
fn merge_order_is_insensitive_at_bucket_level() {
    cases("merge_order_is_insensitive_at_bucket_level", CASES, |rng| {
        let n = rng.random_range(3usize..7);
        let parts: Vec<MetricsRegistry> = (0..n)
            .map(|_| {
                let values = any_values(rng);
                let mut r = MetricsRegistry::new();
                r.add("steps", values.len() as u64);
                for &v in &values {
                    r.observe("latency", v);
                }
                r
            })
            .collect();
        // A deterministic permutation derived from the case's stream.
        let mut shuffled: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            shuffled.swap(i, rng.random_range(0..i + 1));
        }
        // Merging the same registries in two orders: the counters and
        // the histogram's buckets must not depend on the order.
        let merge_in = |order: &[usize]| {
            let mut total = MetricsRegistry::new();
            for &i in order {
                total.merge_from(&parts[i]);
            }
            total.snapshot()
        };
        let fwd = merge_in(&(0..n).collect::<Vec<_>>());
        let rev = merge_in(&shuffled);
        assert_eq!(fwd.counters, rev.counters);
        let buckets = |s: &Snapshot| {
            s.histograms
                .get("latency")
                .map(|h| (h.count(), h.min(), h.max(), h.nonzero_buckets()))
        };
        assert_eq!(buckets(&fwd), buckets(&rev));

        // And the merged snapshot round-trips through its JSON form.
        let back = Snapshot::from_json(&fwd.to_json()).unwrap();
        assert_eq!(back, fwd);
    });
}

#[test]
fn series_exports_round_trip() {
    cases("series_exports_round_trip", CASES, |rng| {
        let n = rng.random_range(0usize..300);
        let samples: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.random_range(0.0f64..1e6),
                    rng.random_range(-1e6f64..1e6),
                )
            })
            .collect();
        let capacity = rng.random_range(1usize..64);
        let mut store = SeriesStore::new(capacity);
        for (i, &(t, v)) in samples.iter().enumerate() {
            store.push(if i % 3 == 0 { "a" } else { "b" }, t, v);
        }
        // JSONL re-parses to the same sample stream (shortest-roundtrip
        // float formatting is lossless).
        let text = SeriesStore::from_jsonl(&store.to_jsonl()).unwrap();
        assert_eq!(text.to_jsonl(), store.to_jsonl());
    });
}

#[test]
fn histogram_merge_is_commutative_in_counts() {
    cases("histogram_merge_is_commutative_in_counts", CASES, |rng| {
        let a = any_values(rng);
        let b = any_values(rng);
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        for &v in &b {
            hb.record(v);
        }
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        assert_eq!(ab.count(), ba.count());
        assert_eq!(ab.min(), ba.min());
        assert_eq!(ab.max(), ba.max());
        assert_eq!(ab.nonzero_buckets(), ba.nonzero_buckets());
    });
}
