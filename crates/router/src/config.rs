//! Router configuration: pool shape, placement policy, admission caps,
//! retry/quarantine policy.

use rankhow_serve::{DEFAULT_RESPAWN_CAP, DEFAULT_SLICE_NODES};
use std::time::Duration;

/// Retry policy for refused and failed spawns
/// ([`RouterConfig::retry`]).
///
/// Two failure classes are re-admitted, both transparently behind the
/// returned [`SolveHandle`](rankhow_serve::SolveHandle):
///
/// - a spawn *shed by admission control* (pool or global cap, without
///   backpressure) is retried from the submitting thread after an
///   exponential backoff (`backoff`, `2 * backoff`, `4 * backoff`, …);
/// - a job that completed
///   [`SolveStatus::Failed`](rankhow_core::SolveStatus) (its step
///   panicked) is respawned by the router's delivery hook — without
///   sleeping on the pool worker — warm-started from the failed
///   attempt's best-so-far incumbent, and preferring non-quarantined
///   pools.
///
/// `budget` bounds the *total* time spent on re-admissions, measured
/// from the original admission; retries stop when it runs out even if
/// `max_retries` remain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-admissions allowed per query (0 = retries disabled; refused
    /// spawns shed immediately and `Failed` results are delivered
    /// as-is).
    pub max_retries: u32,
    /// Base backoff between admission-shed retries; doubles per
    /// attempt. Failure respawns never sleep — backoff applies to the
    /// submitting thread only.
    pub backoff: Duration,
    /// Optional cap on total retry time per query, from original
    /// admission. `None` = bounded only by `max_retries`.
    pub budget: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::from_millis(10),
            budget: None,
        }
    }
}

/// How the router picks a pool for a new query.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Placement {
    /// Deterministic hash of the query (dataset feature bits + given
    /// ranking) modulo the pool count. The same query always lands on
    /// the same pool — cache/workspace affinity, and the whole routing
    /// decision is reproducible run-to-run. A SYM-GD chain's cells all
    /// share one fingerprint, so a chain stays on one pool.
    #[default]
    QueryHash,
    /// The pool with the lowest load score (run-queue depth plus
    /// in-flight jobs, see
    /// [`PoolLoad::score`](rankhow_serve::PoolLoad::score)) at spawn
    /// time; ties break to the lowest pool index.
    LeastLoaded,
}

/// Configuration of a [`Router`](crate::Router).
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Number of independent scheduler pools (≥ 1). One pool makes the
    /// router a thin wrapper over a single
    /// [`Scheduler`](rankhow_serve::Scheduler).
    pub pools: usize,
    /// Worker threads per pool (≥ 1).
    pub threads_per_pool: usize,
    /// Fairness slice (nodes per job turn) for every pool.
    pub slice_nodes: usize,
    /// Per-pool admission cap: a pool refusing to own more than this
    /// many live jobs sheds (or delays, under
    /// [`RouterConfig::backpressure`]) further spawns placed on it.
    /// `0` = unbounded.
    pub queue_cap: usize,
    /// Global high-water mark across all pools: once the router-wide
    /// live-job count reaches it, every new spawn is shed (or delayed)
    /// regardless of per-pool headroom. `0` = no global mark.
    pub global_cap: usize,
    /// Placement policy for new queries.
    pub placement: Placement,
    /// What happens to an over-capacity spawn: `false` (default) sheds
    /// it — the returned handle completes immediately with
    /// [`SolveStatus::Rejected`](rankhow_core::SolveStatus) and no
    /// incumbent; `true` blocks the spawning thread until the placed
    /// pool has capacity again.
    pub backpressure: bool,
    /// Run an automatic rebalancing load tick every this many
    /// admissions (see [`Router::rebalance`](crate::Router::rebalance)).
    /// `0` disables automatic ticks — rebalancing is then explicit.
    pub rebalance_every: u64,
    /// Whether the cross-query solution cache sits in front of
    /// placement (default `true`): exact fingerprint matches return the
    /// stored solution without touching a pool, and same-shape queries
    /// with different weight constraints warm-start from the cached
    /// root. Disable for strictly independent re-solves (e.g. when
    /// measuring cold-solve throughput, or when admission counters must
    /// see every duplicate).
    pub cache: bool,
    /// Capacity of the solution cache in entries, LRU-evicted and
    /// sharded across pools. `0` disables the cache just like
    /// [`RouterConfig::cache`]` = false`.
    pub cache_cap: usize,
    /// Whether the router records its layer of solve-path telemetry —
    /// admission/placement/rejection flight-recorder events, cache
    /// lookup timing, and per-pool queue-depth gauges — for queries
    /// that carry a telemetry handle
    /// (`SolverConfig::telemetry`). Default `true`; queries without a
    /// handle record nothing either way.
    pub telemetry: bool,
    /// Retry policy for refused and failed spawns (see [`RetryPolicy`];
    /// retries are off by default).
    pub retry: RetryPolicy,
    /// Quarantine threshold: a pool whose sliding window of recent
    /// completions (last 16) accumulates this many `Failed` results is
    /// excluded from placement for [`RouterConfig::quarantine_cooldown`]
    /// — failure respawns and new queries prefer healthy pools, and a
    /// query-hash-pinned query remaps to the next healthy pool. `0`
    /// (default) disables quarantining. When *every* pool is
    /// quarantined, placement ignores quarantine rather than refusing
    /// service.
    pub quarantine_after: u32,
    /// How long a tripped pool stays out of placement before being
    /// re-admitted with a clean window.
    pub quarantine_cooldown: Duration,
    /// Supervisor respawn cap per pool (see
    /// [`Scheduler::with_options`](rankhow_serve::Scheduler::with_options)):
    /// worker threads that die are replaced up to this many times per
    /// pool before the pool is allowed to go dead.
    pub worker_respawn_cap: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            pools: 1,
            threads_per_pool: rankhow_core::default_threads(),
            slice_nodes: DEFAULT_SLICE_NODES,
            queue_cap: 0,
            global_cap: 0,
            placement: Placement::QueryHash,
            backpressure: false,
            rebalance_every: 64,
            cache: true,
            cache_cap: 512,
            telemetry: true,
            retry: RetryPolicy::default(),
            quarantine_after: 0,
            quarantine_cooldown: Duration::from_millis(250),
            worker_respawn_cap: DEFAULT_RESPAWN_CAP,
        }
    }
}
