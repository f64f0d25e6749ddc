//! Lock-free log-bucketed latency histogram.
//!
//! 64 power-of-two nanosecond buckets: bucket `i` covers
//! `[2^i, 2^(i+1))` ns (bucket 0 also absorbs 0 ns). Recording is a
//! handful of relaxed atomic adds, so many worker threads can share
//! one histogram without contention; snapshots walk the buckets and
//! interpolate quantiles, clamped to the exact observed min/max.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 64;

/// Concurrent histogram of nanosecond durations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a nanosecond value: `floor(log2(max(v, 1)))`.
    #[inline]
    pub fn bucket_index(nanos: u64) -> usize {
        nanos.max(1).ilog2() as usize
    }

    /// Inclusive lower edge of bucket `i` in nanoseconds.
    #[inline]
    pub fn bucket_floor(i: usize) -> u64 {
        1u64 << i
    }

    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.record_nanos(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[Self::bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(nanos, Ordering::Relaxed);
        self.min.fetch_min(nanos, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Fold another histogram's observations into this one. Merging is
    /// associative and commutative: bucket counts and totals add,
    /// min/max take the extremes.
    pub fn merge(&self, other: &Histogram) {
        for i in 0..BUCKETS {
            let n = other.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.total
            .fetch_add(other.total.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile estimation.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub total: u64,
    min: u64,
    max: u64,
}

impl HistogramSnapshot {
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) in nanoseconds by
    /// linear interpolation inside the bucket holding the target rank,
    /// clamped to the exact observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = Histogram::bucket_floor(i) as f64;
                let frac = (rank - seen) as f64 / n as f64;
                let est = (lo + lo * frac) as u64;
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Serialize as a JSON object (counts plus the derived quantiles;
    /// schema documented in README § Observability).
    pub fn to_json(&self) -> String {
        let mut obj = crate::json::Obj::new();
        obj.field_u64("count", self.count);
        obj.field_u64("total_ns", self.total);
        obj.field_u64("min_ns", self.min());
        obj.field_u64("max_ns", self.max());
        obj.field_f64("mean_ns", self.mean());
        obj.field_u64("p50_ns", self.p50());
        obj.field_u64("p90_ns", self.p90());
        obj.field_u64("p99_ns", self.p99());
        let mut arr = crate::json::Arr::new();
        // Sparse bucket encoding: [index, count] pairs, low to high.
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                arr.push_raw(&format!("[{i},{n}]"));
            }
        }
        obj.field_raw("buckets", &arr.finish());
        obj.finish()
    }
}
