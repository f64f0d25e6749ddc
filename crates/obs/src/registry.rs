//! Aggregate metrics registry and the per-query telemetry handle.
//!
//! One [`MetricsRegistry`] is shared by every query of a run; each
//! query carries an `Arc<SolveTelemetry>` in its `SolverConfig` that
//! points at the registry plus (optionally) that query's private
//! [`FlightRecorder`]. Phase-level histograms (tighten A/C, child
//! feasibility, LP load) sit behind a sampling knob so hot-path
//! overhead stays bounded.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::Histogram;
use crate::json::{Arr, Obj};
use crate::recorder::{Event, FlightRecorder};

/// Last/high-water depth of one scheduler pool's queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolDepth {
    pub last: u64,
    pub max: u64,
}

/// All cross-query histograms and gauges for one serving run.
///
/// Histogram taxonomy (all values nanoseconds):
/// * `latency` — admission → completion, one entry per finished query
/// * `queue_wait` — admission → first scheduler dequeue
/// * `slice` — one node-budget slice of `SolveJob::step`
/// * `lp_solve` — every LP solve; count reconciles with
///   `SolverStats::lp_solves`
/// * `lp_load` — warm-start install / snapshot restore inside
///   `expand` (sampled)
/// * `tighten_a` / `tighten_c` — box tightening outside its probe
///   LPs, one entry each per tightening (sampled): phase A is the
///   skip-rule and witness checks, phase C the bound resolution,
///   witness copies and numerical guard
/// * `child_feas` — child feasibility checks in `expand` (sampled)
/// * `cache_lookup` — router solution-cache lookups
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    pub latency: Histogram,
    pub queue_wait: Histogram,
    pub slice: Histogram,
    pub lp_solve: Histogram,
    pub lp_load: Histogram,
    pub tighten_a: Histogram,
    pub tighten_c: Histogram,
    pub child_feas: Histogram,
    pub cache_lookup: Histogram,
    pool_depth: Mutex<Vec<PoolDepth>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the instantaneous queue depth of pool `pool` (grows the
    /// gauge vector on first sight of a pool index).
    pub fn set_pool_depth(&self, pool: usize, depth: u64) {
        let mut gauges = rankhow_sync::lock(&self.pool_depth);
        if gauges.len() <= pool {
            gauges.resize(pool + 1, PoolDepth::default());
        }
        gauges[pool].last = depth;
        gauges[pool].max = gauges[pool].max.max(depth);
    }

    pub fn pool_depths(&self) -> Vec<PoolDepth> {
        rankhow_sync::lock(&self.pool_depth).clone()
    }

    fn histograms(&self) -> [(&'static str, &Histogram); 9] {
        [
            ("latency", &self.latency),
            ("queue_wait", &self.queue_wait),
            ("slice", &self.slice),
            ("lp_solve", &self.lp_solve),
            ("lp_load", &self.lp_load),
            ("tighten_a", &self.tighten_a),
            ("tighten_c", &self.tighten_c),
            ("child_feas", &self.child_feas),
            ("cache_lookup", &self.cache_lookup),
        ]
    }

    /// Fold another registry's observations into this one.
    pub fn merge(&self, other: &MetricsRegistry) {
        for ((_, a), (_, b)) in self.histograms().into_iter().zip(other.histograms()) {
            a.merge(b);
        }
        for (pool, depth) in other.pool_depths().into_iter().enumerate() {
            if depth.last == 0 && depth.max == 0 {
                // A default entry: `other`'s gauge vector grew past a
                // pool it never sighted — don't clobber ours with it.
                continue;
            }
            let mut gauges = rankhow_sync::lock(&self.pool_depth);
            if gauges.len() <= pool {
                gauges.resize(pool + 1, PoolDepth::default());
            }
            gauges[pool].last = depth.last;
            gauges[pool].max = gauges[pool].max.max(depth.max);
        }
    }

    /// Serialize every histogram snapshot plus the pool-depth gauges
    /// as one JSON object (the `--metrics-out` payload).
    pub fn snapshot_json(&self) -> String {
        let mut hists = Obj::new();
        for (name, h) in self.histograms() {
            hists.field_raw(name, &h.snapshot().to_json());
        }
        let mut pools = Arr::new();
        for (i, g) in self.pool_depths().into_iter().enumerate() {
            let mut p = Obj::new();
            p.field_u64("pool", i as u64);
            p.field_u64("last_depth", g.last);
            p.field_u64("max_depth", g.max);
            pools.push_raw(&p.finish());
        }
        let mut obj = Obj::new();
        obj.field_raw("histograms", &hists.finish());
        obj.field_raw("pool_depth", &pools.finish());
        obj.finish()
    }
}

/// Per-query telemetry handle carried in `SolverConfig::telemetry`
/// (and consulted by the scheduler and router layers). Holds the
/// shared registry, this query's optional flight recorder, and the
/// phase-sampling knob.
#[derive(Debug)]
pub struct SolveTelemetry {
    pub metrics: Arc<MetricsRegistry>,
    pub recorder: Option<Arc<FlightRecorder>>,
    phase_sample: u64,
    tick: AtomicU64,
}

impl SolveTelemetry {
    pub fn new(metrics: Arc<MetricsRegistry>) -> Self {
        SolveTelemetry {
            metrics,
            recorder: None,
            phase_sample: 0,
            tick: AtomicU64::new(0),
        }
    }

    /// Attach a private flight recorder with the given ring capacity.
    pub fn with_recorder(mut self, capacity: usize) -> Self {
        self.recorder = Some(Arc::new(FlightRecorder::new(capacity)));
        self
    }

    /// Enable phase profiling: record the detailed engine-phase
    /// histograms on every `n`-th sampling opportunity (0 = off).
    pub fn with_phase_sample(mut self, n: u64) -> Self {
        self.phase_sample = n;
        self
    }

    /// Record an event on this query's flight recorder, if any.
    #[inline]
    pub fn event(&self, event: Event) {
        if let Some(rec) = &self.recorder {
            rec.record(event);
        }
    }

    /// Returns true when this call lands on a phase-profiling sample.
    /// Each call advances the sampling tick.
    #[inline]
    pub fn sample_phase(&self) -> bool {
        if self.phase_sample == 0 {
            return false;
        }
        self.tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.phase_sample)
    }
}
