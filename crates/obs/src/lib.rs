//! Solve-path observability for the rankhow serving stack.
//!
//! Three layers, all optional:
//!
//! * [`Histogram`] / [`MetricsRegistry`] — lock-free log-bucketed
//!   latency histograms and per-pool depth gauges, merge-able and
//!   snapshot-able (p50/p90/p99/max), aggregated across every query a
//!   registry is attached to.
//! * [`FlightRecorder`] / [`SolveTrace`] — a fixed-capacity ring of
//!   timestamped [`Event`]s recording one query's path through
//!   router → scheduler → engine → LP, drained into a serializable
//!   trace on join.
//! * [`json`] — a dependency-free JSON writer (and a validating parser
//!   for tests) shared by `--metrics-out`, `--trace-out`, and
//!   `--stats-json`.
//!
//! Gating is at run time only: a query records only when its
//! `SolverConfig` carries an `Arc<SolveTelemetry>`; the router layer
//! additionally honours `RouterConfig::telemetry`. With telemetry off,
//! the hot paths pay one `Option` check per record site.

pub mod hist;
pub mod json;
pub mod recorder;
pub mod registry;

pub use hist::{Histogram, HistogramSnapshot};
pub use recorder::{Event, FlightRecorder, SolveTrace, TimedEvent};
pub use registry::{MetricsRegistry, PoolDepth, SolveTelemetry};
