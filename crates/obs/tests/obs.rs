//! Unit tests for the observability primitives: histogram bucket
//! geometry, merge algebra, concurrent recording, flight-recorder ring
//! semantics, and the JSON serializers (every payload must pass the
//! strict `json::validate` parser the CLI smoke tests also use).

use rankhow_obs::json;
use rankhow_obs::{Event, FlightRecorder, Histogram, MetricsRegistry, SolveTelemetry};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- hist

#[test]
fn bucket_boundaries_are_powers_of_two() {
    // Bucket i covers [2^i, 2^(i+1)); bucket 0 also absorbs 0 ns.
    assert_eq!(Histogram::bucket_index(0), 0);
    assert_eq!(Histogram::bucket_index(1), 0);
    for k in 1..63usize {
        let edge = 1u64 << k;
        assert_eq!(Histogram::bucket_index(edge), k, "2^{k} opens bucket {k}");
        assert_eq!(
            Histogram::bucket_index(edge - 1),
            k - 1,
            "2^{k}-1 closes bucket {}",
            k - 1
        );
        assert_eq!(Histogram::bucket_floor(k), edge);
    }
    assert_eq!(Histogram::bucket_index(u64::MAX), 63);
}

#[test]
fn record_updates_count_total_min_max() {
    let h = Histogram::new();
    for ns in [5u64, 1000, 70, 5] {
        h.record_nanos(ns);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 4);
    assert_eq!(snap.total, 1080);
    assert_eq!(snap.min(), 5);
    assert_eq!(snap.max(), 1000);
    assert!((snap.mean() - 270.0).abs() < 1e-9);
    // Quantiles interpolate inside buckets but clamp to [min, max].
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        let v = snap.quantile(q);
        assert!((5..=1000).contains(&v), "q{q} = {v} outside [min, max]");
    }
    assert_eq!(snap.quantile(1.0), 1000);
}

#[test]
fn empty_histogram_snapshot_is_all_zero() {
    let snap = Histogram::new().snapshot();
    assert_eq!(snap.count, 0);
    assert_eq!(
        snap.min(),
        0,
        "empty min reads 0, not the u64::MAX sentinel"
    );
    assert_eq!(snap.max(), 0);
    assert_eq!(snap.mean(), 0.0);
    assert_eq!(snap.p50(), 0);
    assert_eq!(snap.quantile(1.0), 0);
}

#[test]
fn merge_is_associative_and_commutative() {
    let fill = |values: &[u64]| {
        let h = Histogram::new();
        for &v in values {
            h.record_nanos(v);
        }
        h
    };
    let a = fill(&[1, 2, 3, 1 << 20]);
    let b = fill(&[7, 7, 7]);
    let c = fill(&[0, u64::MAX, 1 << 40]);

    // left = (a ⊕ b) ⊕ c, right = a ⊕ (b ⊕ c), swapped = c ⊕ b ⊕ a.
    let left = Histogram::new();
    left.merge(&a);
    left.merge(&b);
    left.merge(&c);
    let bc = Histogram::new();
    bc.merge(&b);
    bc.merge(&c);
    let right = Histogram::new();
    right.merge(&a);
    right.merge(&bc);
    let swapped = Histogram::new();
    swapped.merge(&c);
    swapped.merge(&b);
    swapped.merge(&a);

    let (l, r, s) = (left.snapshot(), right.snapshot(), swapped.snapshot());
    for other in [&r, &s] {
        assert_eq!(l.buckets, other.buckets);
        assert_eq!(l.count, other.count);
        assert_eq!(l.total, other.total);
        assert_eq!(l.min(), other.min());
        assert_eq!(l.max(), other.max());
    }
    assert_eq!(l.count, 10);
    assert_eq!(l.min(), 0);
    assert_eq!(l.max(), u64::MAX);
}

#[test]
fn concurrent_recording_loses_nothing() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 5_000;
    let h = Arc::new(Histogram::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Spread across many buckets from every thread.
                    h.record_nanos((i % 32) * 1000 + t as u64);
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS as u64 * PER_THREAD);
    assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    let expected_total: u64 = (0..THREADS as u64)
        .map(|t| (0..PER_THREAD).map(|i| (i % 32) * 1000 + t).sum::<u64>())
        .sum();
    assert_eq!(snap.total, expected_total);
}

// ------------------------------------------------------------ recorder

#[test]
fn ring_keeps_the_newest_events_and_counts_drops() {
    let rec = FlightRecorder::new(4);
    for pool in 0..10usize {
        rec.record(Event::Placed { pool });
    }
    let trace = rec.drain("overflow");
    assert_eq!(trace.capacity, 4);
    assert_eq!(trace.dropped, 6);
    assert_eq!(trace.events.len(), 4);
    // The survivors are the last four records, in sequence order.
    let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![6, 7, 8, 9]);
    for (e, pool) in trace.events.iter().zip(6usize..) {
        assert_eq!(e.event, Event::Placed { pool });
    }
    // Timestamps are monotone in sequence order.
    assert!(trace.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
}

#[test]
fn ring_below_capacity_preserves_order_and_drops_nothing() {
    let rec = FlightRecorder::new(64);
    rec.record(Event::Admitted);
    rec.record(Event::Dequeued);
    rec.record(Event::Incumbent { error: 3.0 });
    rec.record(Event::Completed { status: "optimal" });
    let trace = rec.drain("ordered");
    assert_eq!(trace.dropped, 0);
    let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3]);
    let names: Vec<&str> = trace.events.iter().map(|e| e.event.name()).collect();
    assert_eq!(
        names,
        vec!["admitted", "dequeued", "incumbent", "completed"]
    );
    // Draining is non-destructive: a later drain sees the same ring.
    assert_eq!(rec.drain("again").events.len(), 4);
}

// ------------------------------------------------------------ registry

#[test]
fn registry_merge_and_pool_gauges() {
    let a = MetricsRegistry::new();
    a.latency.record(Duration::from_millis(2));
    a.set_pool_depth(0, 3);
    a.set_pool_depth(0, 1); // last falls, max holds
    let b = MetricsRegistry::new();
    b.latency.record(Duration::from_millis(8));
    b.set_pool_depth(2, 5); // gauge vector grows on first sight
    a.merge(&b);
    assert_eq!(a.latency.snapshot().count, 2);
    let depths = a.pool_depths();
    assert_eq!(depths.len(), 3);
    assert_eq!((depths[0].last, depths[0].max), (1, 3));
    assert_eq!((depths[2].last, depths[2].max), (5, 5));
}

#[test]
fn phase_sampling_fires_every_nth_tick() {
    let tel = SolveTelemetry::new(Arc::new(MetricsRegistry::new()));
    assert!(!tel.sample_phase(), "sampling defaults off");
    let every = SolveTelemetry::new(Arc::new(MetricsRegistry::new())).with_phase_sample(1);
    assert!((0..5).all(|_| every.sample_phase()));
    let third = SolveTelemetry::new(Arc::new(MetricsRegistry::new())).with_phase_sample(3);
    let fired: Vec<bool> = (0..6).map(|_| third.sample_phase()).collect();
    assert_eq!(fired, vec![true, false, false, true, false, false]);
}

// ---------------------------------------------------------------- json

#[test]
fn serialized_payloads_pass_the_strict_parser() {
    let reg = MetricsRegistry::new();
    reg.lp_solve.record(Duration::from_micros(17));
    reg.set_pool_depth(1, 4);
    assert!(json::validate(&reg.snapshot_json()), "metrics snapshot");
    assert!(
        json::validate(&reg.lp_solve.snapshot().to_json()),
        "histogram"
    );

    let rec = FlightRecorder::new(8);
    rec.record(Event::Admitted);
    rec.record(Event::Placed { pool: 1 });
    rec.record(Event::SliceEnd { lane: 0, nodes: 64 });
    rec.record(Event::Incumbent { error: 2.0 });
    rec.record(Event::Retried { attempt: 2 });
    rec.record(Event::Completed { status: "optimal" });
    assert!(
        json::validate(&rec.drain("q \"quoted\"\n").to_json()),
        "trace"
    );
}

#[test]
fn validate_rejects_malformed_json() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\":1,}",
        "{'a':1}",
        "nan",
        "01",
        "1 2",
        "\"unterminated",
        "{\"a\":1}trailing",
    ] {
        assert!(!json::validate(bad), "accepted malformed: {bad:?}");
    }
    for good in ["0", "-1.5e3", "null", "true", "[]", "{}", "{\"a\":[1,{}]}"] {
        assert!(json::validate(good), "rejected well-formed: {good:?}");
    }
}

#[test]
fn f64_formatting_stays_json_safe() {
    assert_eq!(json::fmt_f64(f64::NAN), "null");
    assert_eq!(json::fmt_f64(f64::INFINITY), "null");
    assert_eq!(json::fmt_f64(-0.0), "0");
    let mut obj = json::Obj::new();
    obj.field_f64("x", f64::NAN);
    obj.field_str("s", "a\"b\\c\nd");
    assert!(json::validate(&obj.finish()));
}
