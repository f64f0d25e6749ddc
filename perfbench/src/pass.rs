//! What one measured pass of a workload hands back to the reporter.

use crate::engine::EngineAcc;

/// End-to-end results of one pass plus its per-layer accumulators
/// (filled only when the pass was traced).
#[derive(Default)]
pub struct Pass {
    /// Per-query (per-chain) latency, nanoseconds, of every measured
    /// query (all but the open loop's warm-up).
    pub latencies_ns: Vec<u64>,
    /// Wall time of the measured queries: closed loop, the first
    /// submission to the last answer; open loop, the end of the warm-up
    /// to the last measured answer.
    pub wall_ns: u64,
    /// Closed loop: the catalog instance of each latency (empty on the
    /// open loop).
    pub instances: Vec<usize>,
    /// `opt-exact`: the machine-speed probe's samples (empty elsewhere).
    pub probe_ns: Vec<u64>,
    /// Queries offered, warm-up included.
    pub attempted: u64,
    /// Queries that errored, came back with a wrong status, or failed a
    /// check.
    pub failed: u64,
    /// Measured queries answered correctly within the workload's latency
    /// limit.
    pub within_limit: u64,
    /// Sum of the final position errors over the distinct queries
    /// answered.
    pub position_error: u64,
    pub layers: Layers,
}

/// Per-layer accumulators of a traced pass.
#[derive(Default)]
pub struct Layers {
    pub engine: EngineAcc,
    pub seeding_ns: u64,
    pub chains: u64,
    pub cells: u64,
    pub iterations: u64,
    pub cell_growths: u64,
    pub cell_ns: u64,
    pub recenter_ns: u64,
    pub queue_wait_p50_ns: u64,
    pub queue_wait_p90_ns: u64,
    pub slices: u64,
    pub slice_mean_ns: f64,
    pub spawn_ns: Vec<u64>,
    pub cache_lookup_mean_ns: f64,
    pub cache_exact_hits: u64,
    pub cache_near_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub repeats: u64,
    pub variants: u64,
    pub fresh: u64,
    pub inflight_dups: u64,
    pub rejections: u64,
    pub retries: u64,
    pub pool_max_depth: u64,
    pub offered_qps: f64,
    pub late_max_ns: u64,
}
