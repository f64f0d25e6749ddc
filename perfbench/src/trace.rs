//! Outside-in span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions: a name, start and end (nanoseconds since
//! the tracer's epoch), the enclosing span, and the query id. They stay
//! in memory and are written out once, when the run ends. A layer's self
//! time is its span minus the time its child spans cover; per query the
//! self times must add back up to the query's measured latency.

use rankhow_obs::json::{Arr, Obj};
use std::collections::BTreeMap;
use std::time::Instant;

/// Largest gap allowed between a query's latency and the sum of its
/// spans' self times: 2% of the latency, but never below 50 µs (the
/// cost of the clock reads and bookkeeping between two spans).
pub const RECONCILE_SHARE: f64 = 0.02;
/// Absolute floor of the reconciliation bound, in nanoseconds.
pub const RECONCILE_FLOOR_NS: u64 = 50_000;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub query: u32,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// The in-memory span store; `None` in an untraced pass, where every
/// call is a no-op.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Measured latency per query, in nanoseconds.
    latency: BTreeMap<u32, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            latency: BTreeMap::new(),
        }
    }

    /// Nanoseconds of `t` since the epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index (to parent children).
    pub fn span(
        &mut self,
        name: &'static str,
        query: u32,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            query,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Open a span whose end is set later by [`Tracer::close`] (for
    /// parents whose children are recorded first).
    pub fn open(&mut self, name: &'static str, query: u32, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.span(name, query, parent, now, now)
    }

    /// Set the start and end of an opened span.
    pub fn close(&mut self, id: usize, start: Instant, end: Instant) {
        self.spans[id].start = self.ns(start);
        self.spans[id].end = self.ns(end);
    }

    /// Record the query's end-to-end latency as the workload measured it.
    pub fn latency(&mut self, query: u32, nanos: u64) {
        self.latency.insert(query, nanos);
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals (children of one span never overlap here —
    /// every layer call the benchmark makes is sequential).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Per query, `(latency, Σ self times)`, for queries with a
    /// recorded latency.
    pub fn reconcile(&self) -> Vec<(u64, u64)> {
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *sums.entry(s.query).or_insert(0) += t;
        }
        self.latency
            .iter()
            .map(|(q, &lat)| (lat, sums.get(q).copied().unwrap_or(0)))
            .collect()
    }

    /// Whether one query's spans add back up to its latency.
    pub fn reconciles(latency: u64, self_sum: u64) -> bool {
        let bound = ((latency as f64 * RECONCILE_SHARE) as u64).max(RECONCILE_FLOOR_NS);
        latency.abs_diff(self_sum) <= bound
    }

    /// All spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut spans = Arr::new();
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let mut o = Obj::new();
            o.field_u64("id", i as u64);
            o.field_str("name", s.name);
            o.field_u64("query", s.query as u64);
            match s.parent {
                Some(p) => o.field_u64("parent", p as u64),
                None => o.field_raw("parent", "null"),
            };
            o.field_u64("start_ns", s.start);
            o.field_u64("end_ns", s.end);
            o.field_u64("self_ns", t);
            spans.push_raw(&o.finish());
        }
        let mut lat = Arr::new();
        for (q, l) in &self.latency {
            let mut o = Obj::new();
            o.field_u64("query", *q as u64);
            o.field_u64("latency_ns", *l);
            lat.push_raw(&o.finish());
        }
        let mut o = Obj::new();
        o.field_raw("spans", &spans.finish());
        o.field_raw("latency", &lat.finish());
        o.finish()
    }
}
