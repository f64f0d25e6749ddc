//! The router: P scheduler pools behind one `spawn` surface.

use crate::cache::{Lookup, SolutionCache};
use crate::config::{Placement, RouterConfig};
use crate::key::{self, query_key, QueryKey};
use crate::stats::{PoolSnapshot, RouterStats};
use rankhow_core::{
    CellScheduler, OptProblem, RootSeed, Solution, SolveStatus, SolverConfig, SolverError,
    SolverStats,
};
use rankhow_serve::{CompletionHook, RetryRelay, Scheduler, SolveHandle, SpawnOptions};
use rankhow_sync as sync;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// How long a backpressured spawner parks on a pool's capacity condvar
/// before rechecking admission (a completion on *another* pool does not
/// wake it, so the wait must time out and re-poll).
const BACKPRESSURE_POLL: Duration = Duration::from_millis(2);

/// Sliding window of recent per-pool completions the quarantine
/// threshold ([`RouterConfig::quarantine_after`]) counts failures over.
const HEALTH_WINDOW: usize = 16;

/// A load-aware router over `P` independent [`Scheduler`] pools.
///
/// The router keeps the scheduler's serving surface —
/// `spawn -> SolveHandle` — and adds the missing multi-pool layer:
///
/// - **placement** ([`Placement`]): deterministic query-hash or
///   least-loaded pool selection;
/// - **admission control**: a per-pool run-queue cap and a global
///   high-water mark. Over-capacity spawns *complete* immediately with
///   [`SolveStatus::Rejected`](rankhow_core::SolveStatus) (no panic, no
///   error, no incumbent) — or block until capacity when
///   [`RouterConfig::backpressure`] is set;
/// - **retry** ([`RetryPolicy`](crate::RetryPolicy)): admission-shed
///   spawns re-place after an exponential backoff, and jobs that
///   complete [`SolveStatus::Failed`](rankhow_core::SolveStatus) (a
///   worker caught their panic) are respawned — warm-started from the
///   failed attempt's incumbent — transparently behind the same
///   [`SolveHandle`];
/// - **quarantine** ([`RouterConfig::quarantine_after`]): a pool whose
///   recent completions keep failing is taken out of placement for a
///   cooldown, and a pool whose workers all died (supervision respawn
///   cap exhausted, see
///   [`Scheduler::is_dead`](rankhow_serve::Scheduler::is_dead)) is
///   skipped permanently;
/// - **rebalancing** ([`Router::rebalance`]): on a load tick,
///   not-yet-started jobs migrate from the deepest run queue to the
///   shallowest. Un-started jobs have no root state, so a migration
///   moves nothing but the queue entry;
/// - **observability** ([`Router::stats`]): per-pool and aggregate
///   engine statistics plus admission/rejection/retry/migration
///   counters;
/// - a **cross-query solution cache** ([`RouterConfig::cache`],
///   counters in [`CacheStats`](crate::CacheStats)): exact repeats of a
///   proved-optimal query complete from the cache without ever
///   reaching a pool, and same-shape queries with different weight
///   constraints warm-start from the cached root.
///
/// Dropping the router drops every pool: outstanding jobs are cancelled
/// cooperatively and their joiners unblock with best-so-far results.
/// Completion hooks hold only a [`Weak`] reference back to the router,
/// so a query delivered during (or after) teardown resolves its handle
/// without retrying.
pub struct Router {
    inner: Arc<RouterInner>,
}

/// The router's shared state. `Router` is a thin `Arc` wrapper so the
/// delivery hooks of in-flight jobs can reach the retry/quarantine
/// bookkeeping through a [`Weak`] edge without keeping the pools alive.
struct RouterInner {
    pools: Vec<Scheduler>,
    config: RouterConfig,
    /// The cross-query solution cache, `None` when disabled. Shared
    /// with the completion hooks of every admitted cache-eligible job.
    cache: Option<Arc<SolutionCache>>,
    /// Per-pool failure windows driving quarantine (same indexing as
    /// `pools`; unused when quarantining is disabled).
    health: Vec<Mutex<PoolHealth>>,
    admissions: AtomicU64,
    rejections: AtomicU64,
    migrations: AtomicU64,
    retries: AtomicU64,
    retries_exhausted: AtomicU64,
    completions: AtomicU64,
    quarantines: AtomicU64,
    /// Admissions since the last automatic rebalancing tick.
    tick: AtomicU64,
}

/// Recent completion outcomes of one pool, and whether the pool is
/// currently benched.
struct PoolHealth {
    /// Last [`HEALTH_WINDOW`] deliveries, `true` = `Failed`.
    window: VecDeque<bool>,
    /// Failures currently in `window`.
    fails: u32,
    /// Quarantined until this instant (`None` = serving). Cleared
    /// lazily by the next placement that observes the cooldown expired.
    until: Option<Instant>,
}

impl PoolHealth {
    fn new() -> Self {
        PoolHealth {
            window: VecDeque::with_capacity(HEALTH_WINDOW),
            fails: 0,
            until: None,
        }
    }
}

/// Everything one admitted query's delivery hook needs to settle it:
/// the ledger counters (through `router`), the retry policy inputs, and
/// the relay the caller's handle parks on. One `RetryState` spans all
/// attempts of a query; each attempt's `SpawnOptions` carries a fresh
/// closure over the same state.
struct RetryState {
    /// Weak so in-flight hooks never keep the pools alive; a hook that
    /// fires during router teardown skips retrying and just resolves.
    router: Weak<RouterInner>,
    /// `None` when retries are disabled — the caller then holds the
    /// attempt's own handle and the hook only keeps the ledger/cache.
    relay: Option<Arc<RetryRelay>>,
    problem: Arc<OptProblem>,
    fingerprint: Option<u64>,
    /// Cache to record the final result into (cache-eligible queries
    /// only). Failed finals invalidate rather than populate.
    cache: Option<(Arc<SolutionCache>, QueryKey)>,
    /// The admitted solver config, kept for respawns (`None` when
    /// retries are disabled). Respawn attempts clone it and graft the
    /// failed attempt's incumbent as a warm start.
    retry_config: Option<SolverConfig>,
    tel: Option<Arc<rankhow_obs::SolveTelemetry>>,
    /// Retry slots consumed (shed retries and failure respawns share
    /// the one `max_retries` budget).
    attempt: AtomicU32,
    /// Pool of the current attempt — the quarantine window the next
    /// delivery debits.
    pool: AtomicUsize,
    /// Original admission instant: latency baseline and retry-budget
    /// anchor across all attempts.
    admitted: Instant,
}

/// Build the completion hook for one attempt of `state`'s query. Runs
/// on the finalizing worker with no scheduler locks held (the scheduler
/// guarantees hook-before-wakeup), so it may spawn the next attempt —
/// even onto the same pool — without deadlocking.
fn delivery_hook(state: Arc<RetryState>) -> CompletionHook {
    Arc::new(move |result, artifacts| state.deliver(result, artifacts))
}

impl RetryState {
    /// Settle one attempt's result: debit the pool's health window,
    /// respawn if this was a retryable failure, otherwise count the
    /// final delivery, record it into the cache, and resolve the relay.
    fn deliver(
        self: &Arc<Self>,
        result: &Result<Solution, SolverError>,
        artifacts: Option<rankhow_core::RootArtifacts>,
    ) {
        let failed = matches!(result, Ok(sol) if sol.status == SolveStatus::Failed);
        let router = self.router.upgrade();
        if let Some(inner) = &router {
            inner.note_outcome(self.pool.load(Ordering::Acquire), failed);
            if failed && inner.try_respawn(self, result) {
                // Re-admitted: a later attempt's delivery settles the
                // query. Nothing is counted yet — retries was bumped by
                // the respawn itself.
                return;
            }
            let ledger = if failed {
                &inner.retries_exhausted
            } else {
                &inner.completions
            };
            ledger.fetch_add(1, Ordering::AcqRel);
        }
        if let (Some((cache, query)), Ok(solution)) = (&self.cache, result) {
            cache.record(query, &self.problem, solution, artifacts.map(Arc::new));
        }
        if let Some(relay) = &self.relay {
            relay.resolve(result.clone());
        }
    }
}

impl Router {
    /// A router over `config.pools` fresh scheduler pools.
    pub fn new(config: RouterConfig) -> Self {
        let pools = config.pools.max(1);
        let threads = config.threads_per_pool.max(1);
        let slice = config.slice_nodes.max(1);
        let cache = (config.cache && config.cache_cap > 0)
            .then(|| Arc::new(SolutionCache::new(config.cache_cap, pools)));
        Router {
            inner: Arc::new(RouterInner {
                pools: (0..pools)
                    .map(|_| Scheduler::with_options(threads, slice, config.worker_respawn_cap))
                    .collect(),
                config: RouterConfig {
                    pools,
                    threads_per_pool: threads,
                    slice_nodes: slice,
                    ..config
                },
                cache,
                health: (0..pools).map(|_| Mutex::new(PoolHealth::new())).collect(),
                admissions: AtomicU64::new(0),
                rejections: AtomicU64::new(0),
                migrations: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                retries_exhausted: AtomicU64::new(0),
                completions: AtomicU64::new(0),
                quarantines: AtomicU64::new(0),
                tick: AtomicU64::new(0),
            }),
        }
    }

    /// Number of pools.
    pub fn pools(&self) -> usize {
        self.inner.pools.len()
    }

    /// The (normalized) configuration the router runs with.
    pub fn config(&self) -> &RouterConfig {
        &self.inner.config
    }

    /// Route one query. Same contract as
    /// [`Scheduler::spawn`](rankhow_serve::Scheduler::spawn): returns
    /// immediately with a handle; root setup happens on a pool worker.
    /// Over-capacity spawns resolve through the handle with
    /// [`SolveStatus::Rejected`](rankhow_core::SolveStatus) (or are
    /// delayed under [`RouterConfig::backpressure`], or retried under
    /// [`RouterConfig::retry`]) — the surface never panics or errors on
    /// load, and even a router whose every pool died completes the
    /// handle ([`SolveStatus::Failed`](rankhow_core::SolveStatus))
    /// rather than hanging it.
    pub fn spawn(&self, problem: OptProblem, config: SolverConfig) -> SolveHandle {
        self.spawn_shared(Arc::new(problem), config)
    }

    /// [`Router::spawn`] without copying the problem.
    pub fn spawn_shared(&self, problem: Arc<OptProblem>, config: SolverConfig) -> SolveHandle {
        self.inner
            .submit(problem, config, self.inner.config.backpressure)
    }

    /// Which pool a query lands on under the configured placement,
    /// including the health remap: a quarantined or dead pool forwards
    /// to the next healthy one (scan order from the pinned index), so
    /// with all pools healthy this is the plain query-hash /
    /// least-loaded answer. Exposed so callers (and tests) can predict
    /// routing.
    pub fn place(&self, problem: &OptProblem) -> usize {
        let pinned = match self.inner.config.placement {
            Placement::QueryHash => {
                Some((key::fingerprint(problem) % self.inner.pools.len() as u64) as usize)
            }
            Placement::LeastLoaded => None,
        };
        self.inner.route(pinned).unwrap_or(0)
    }

    /// Pools currently benched by the failure-window quarantine, in
    /// index order (never includes dead pools — those are skipped by
    /// placement unconditionally, see
    /// [`Scheduler::is_dead`](rankhow_serve::Scheduler::is_dead)).
    pub fn quarantined_pools(&self) -> Vec<usize> {
        (0..self.inner.pools.len())
            .filter(|&p| self.inner.is_quarantined(p))
            .collect()
    }

    /// One rebalancing load tick: repeatedly migrate the youngest
    /// not-yet-started job from the deepest run queue to the shallowest
    /// until the depths differ by at most one (or nothing migratable
    /// remains). Returns the number of jobs moved. Safe to call
    /// concurrently with spawns and with itself; migration never
    /// changes a job's result — an un-started job has no root state,
    /// and lane ids map onto any pool size.
    pub fn rebalance(&self) -> usize {
        self.inner.rebalance()
    }

    /// A point-in-time observability snapshot: per-pool engine stats
    /// and loads, the merged aggregate, the admission and retry
    /// counters, and the solution-cache counters.
    pub fn stats(&self) -> RouterStats {
        self.inner.stats()
    }
}

impl RouterInner {
    fn submit(
        self: &Arc<Self>,
        mut problem: Arc<OptProblem>,
        mut config: SolverConfig,
        backpressure: bool,
    ) -> SolveHandle {
        // Router-layer telemetry: only for queries that carry a handle,
        // and only when the router's own gate is open. The admission
        // stamp always rides the spawn options — queue-wait must
        // survive placement retries and rebalance migrations, so it is
        // taken once, here.
        let admitted_at = Instant::now();
        let tel = if self.config.telemetry {
            config.telemetry.clone()
        } else {
            None
        };
        if let Some(tel) = &tel {
            tel.event(rankhow_obs::Event::Admitted);
        }
        // One canonical-key pass per admission: placement, the cache
        // lookup, and the queued-job fingerprint all reuse it —
        // placement retries and rebalancing never re-walk the feature
        // matrix.
        let keyed = (self.cache.is_some() || self.config.placement == Placement::QueryHash)
            .then(|| query_key(&problem));
        let mut opts = SpawnOptions {
            fingerprint: keyed.map(|k| k.full),
            admitted: Some(admitted_at),
            ..SpawnOptions::default()
        };
        let mut cache_entry: Option<(Arc<SolutionCache>, QueryKey)> = None;
        if let (Some(cache), Some(query)) = (&self.cache, keyed) {
            // Only plain spawns go through the cache. A query that
            // arrives with its own region or seed (a SYM-GD cell mid
            // chain, a caller-narrowed re-solve) is not the whole-simplex
            // instance the key describes — serving it a cached answer
            // would answer a different question.
            if config.initial_box.is_none() && config.root_seed.is_none() {
                let lookup_t0 = tel.as_ref().map(|_| Instant::now());
                let looked_up = cache.lookup(&query, &problem);
                if let (Some(tel), Some(t0)) = (&tel, lookup_t0) {
                    tel.metrics.cache_lookup.record(t0.elapsed());
                }
                match looked_up {
                    Lookup::Exact(solution) => {
                        // An exact hit still completes the query: keep
                        // the latency histogram's "one entry per
                        // completed query" invariant. Exact hits never
                        // reach a pool, so they sit outside the
                        // admissions == completions + retries_exhausted
                        // ledger entirely.
                        if let Some(tel) = &tel {
                            tel.event(rankhow_obs::Event::CacheExactHit);
                            tel.event(rankhow_obs::Event::Completed { status: "optimal" });
                            tel.metrics.latency.record(admitted_at.elapsed());
                        }
                        return SolveHandle::completed(*solution);
                    }
                    Lookup::Near {
                        incumbents,
                        artifacts,
                    } => {
                        config.root_seed = Some(Arc::new(RootSeed {
                            incumbents,
                            artifacts,
                        }));
                    }
                    Lookup::Miss => {}
                }
                cache_entry = Some((Arc::clone(cache), query));
            }
        }
        // Every admitted job carries a delivery hook: it keeps the
        // completion ledger, debits the pool's quarantine window, and —
        // when a relay exists — orchestrates failure respawns. With
        // retries on, the caller's handle observes the relay, not any
        // one attempt.
        let retrying = self.config.retry.max_retries > 0;
        let (mut shell, relay) = if retrying {
            let (handle, relay) = SolveHandle::relayed();
            (Some(handle), Some(relay))
        } else {
            (None, None)
        };
        let state = Arc::new(RetryState {
            router: Arc::downgrade(self),
            relay,
            problem: Arc::clone(&problem),
            fingerprint: keyed.map(|k| k.full),
            cache: cache_entry,
            retry_config: retrying.then(|| config.clone()),
            tel: tel.clone(),
            attempt: AtomicU32::new(0),
            pool: AtomicUsize::new(0),
            admitted: admitted_at,
        });
        opts.on_complete = Some(delivery_hook(Arc::clone(&state)));
        // Query-hash placement is a function of the problem alone —
        // pinned once from the precomputed key (the health remap in
        // `route` may still forward it off a quarantined/dead pool).
        // Least-loaded placement is recomputed on every retry instead:
        // a blocked spawner re-routes to whichever pool drained first
        // rather than camping on its original choice.
        let pinned = match self.config.placement {
            Placement::QueryHash => {
                let full = keyed
                    .expect("QueryHash placement always computes the key")
                    .full;
                Some((full % self.pools.len() as u64) as usize)
            }
            Placement::LeastLoaded => None,
        };
        loop {
            let Some(pool) = self.route(pinned) else {
                // Every pool is dead (supervision respawn caps
                // exhausted). Complete the handle — never hang it.
                self.rejections.fetch_add(1, Ordering::AcqRel);
                if let Some(tel) = &tel {
                    tel.event(rankhow_obs::Event::Failed);
                }
                return SolveHandle::completed(Solution::failed());
            };
            if self.over_high_water() {
                if !backpressure {
                    if let Some((attempt, delay)) = self.shed_retry(&state) {
                        if let Some(tel) = &tel {
                            tel.event(rankhow_obs::Event::Retried { attempt });
                        }
                        std::thread::sleep(delay);
                        continue;
                    }
                    self.rejections.fetch_add(1, Ordering::AcqRel);
                    if let Some(tel) = &tel {
                        tel.event(rankhow_obs::Event::Rejected);
                    }
                    return SolveHandle::rejected();
                }
                self.park(pool);
                continue;
            }
            // Stamp the attempt's pool before the entry can finalize —
            // the delivery hook reads it for the quarantine debit.
            state.pool.store(pool, Ordering::Release);
            // The scheduler stamps the `placed` event itself, before the
            // entry is worker-visible — recording it here after the Ok
            // would race the worker's `dequeued` into the trace.
            opts.placed_pool = tel.as_ref().map(|_| pool);
            match self.pools[pool].try_spawn_with(problem, config, self.config.queue_cap, opts) {
                Ok(handle) => {
                    self.admissions.fetch_add(1, Ordering::AcqRel);
                    if let Some(tel) = &tel {
                        tel.metrics
                            .set_pool_depth(pool, self.pools[pool].load().queued as u64);
                    }
                    self.auto_tick();
                    return match (shell.take(), &state.relay) {
                        (Some(shell), Some(relay)) => {
                            relay.bind(&handle);
                            shell
                        }
                        _ => handle,
                    };
                }
                Err(refused) => {
                    problem = refused.problem;
                    config = refused.config;
                    opts = refused.opts;
                    if !backpressure {
                        if let Some((attempt, delay)) = self.shed_retry(&state) {
                            if let Some(tel) = &tel {
                                tel.event(rankhow_obs::Event::Retried { attempt });
                            }
                            std::thread::sleep(delay);
                            continue;
                        }
                        self.rejections.fetch_add(1, Ordering::AcqRel);
                        if let Some(tel) = &tel {
                            tel.event(rankhow_obs::Event::Rejected);
                        }
                        return SolveHandle::rejected();
                    }
                    self.park(pool);
                }
            }
        }
    }

    /// Claim one retry slot for an admission-shed spawn. Returns the
    /// attempt number and the backoff to sleep before re-placing, or
    /// `None` when the policy (count or time budget) is exhausted. Shed
    /// retries and failure respawns draw from the same `max_retries`
    /// budget — `state.attempt` is the single meter.
    fn shed_retry(&self, state: &RetryState) -> Option<(u32, Duration)> {
        let policy = &self.config.retry;
        if policy.max_retries == 0 {
            return None;
        }
        let attempt = state.attempt.fetch_add(1, Ordering::AcqRel) + 1;
        if attempt > policy.max_retries {
            return None;
        }
        // Exponential backoff, clamped to the remaining time budget (a
        // spent budget kills the retry outright).
        let exp = attempt.saturating_sub(1).min(16);
        let mut delay = policy.backoff.saturating_mul(1u32 << exp);
        if let Some(budget) = policy.budget {
            let left = budget.checked_sub(state.admitted.elapsed())?;
            if left.is_zero() {
                return None;
            }
            delay = delay.min(left);
        }
        self.retries.fetch_add(1, Ordering::AcqRel);
        Some((attempt, delay))
    }

    /// Respawn a query whose attempt completed `Failed`, warm-started
    /// from that attempt's incumbent. Runs on the finalizing worker
    /// inside the delivery hook, so it never sleeps — one placement
    /// pass over healthy pools (then quarantined-but-alive ones), first
    /// admission wins. Returns whether a new attempt now owns the
    /// query; `false` sends the caller down the exhausted path.
    fn try_respawn(
        self: &Arc<Self>,
        state: &Arc<RetryState>,
        prior: &Result<Solution, SolverError>,
    ) -> bool {
        let Some(relay) = &state.relay else {
            return false;
        };
        if relay.is_cancelled() {
            return false;
        }
        let Some(retry_config) = &state.retry_config else {
            return false;
        };
        let policy = &self.config.retry;
        let attempt = state.attempt.fetch_add(1, Ordering::AcqRel) + 1;
        if attempt > policy.max_retries {
            return false;
        }
        if let Some(budget) = policy.budget {
            if state.admitted.elapsed() >= budget {
                return false;
            }
        }
        let mut config = retry_config.clone();
        if let Ok(sol) = prior {
            // Don't re-prove what the failed attempt already found: its
            // best incumbent seeds the retry.
            if sol.error != u64::MAX && !sol.weights.is_empty() {
                config.warm_start = Some(sol.weights.clone());
            }
        }
        let n = self.pools.len();
        let start = match (self.config.placement, state.fingerprint) {
            (Placement::QueryHash, Some(full)) => (full % n as u64) as usize,
            _ => self.least_loaded(),
        };
        let scan = |quarantined: bool| {
            (0..n)
                .map(move |off| (start + off) % n)
                .filter(move |&p| !self.pools[p].is_dead() && self.is_quarantined(p) == quarantined)
        };
        let mut problem = Arc::clone(&state.problem);
        let mut opts = SpawnOptions {
            fingerprint: state.fingerprint,
            admitted: Some(state.admitted),
            on_complete: Some(delivery_hook(Arc::clone(state))),
            ..SpawnOptions::default()
        };
        for pool in scan(false).chain(scan(true)).collect::<Vec<_>>() {
            state.pool.store(pool, Ordering::Release);
            opts.placed_pool = state.tel.as_ref().map(|_| pool);
            match self.pools[pool].try_spawn_with(problem, config, self.config.queue_cap, opts) {
                Ok(handle) => {
                    self.retries.fetch_add(1, Ordering::AcqRel);
                    if let Some(tel) = &state.tel {
                        tel.event(rankhow_obs::Event::Retried { attempt });
                    }
                    relay.bind(&handle);
                    return true;
                }
                Err(refused) => {
                    problem = refused.problem;
                    config = refused.config;
                    opts = refused.opts;
                }
            }
        }
        false
    }

    /// Debit one delivery against `pool`'s failure window, tripping the
    /// quarantine when [`RouterConfig::quarantine_after`] failures
    /// accumulate within the last [`HEALTH_WINDOW`] deliveries.
    /// Deliveries that land while the pool is already benched are
    /// ignored — in-flight jobs draining out of a quarantined pool must
    /// not extend its sentence.
    fn note_outcome(&self, pool: usize, failed: bool) {
        if self.config.quarantine_after == 0 || pool >= self.health.len() {
            return;
        }
        let mut health = sync::lock(&self.health[pool]);
        if health.until.is_some() {
            return;
        }
        health.window.push_back(failed);
        if failed {
            health.fails += 1;
        }
        if health.window.len() > HEALTH_WINDOW && health.window.pop_front() == Some(true) {
            health.fails -= 1;
        }
        if health.fails >= self.config.quarantine_after {
            health.until = Some(Instant::now() + self.config.quarantine_cooldown);
            // Recovery starts from a clean slate: pre-quarantine
            // failures don't instantly re-trip the pool.
            health.window.clear();
            health.fails = 0;
            self.quarantines.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Whether `pool` is currently benched. Lazily lifts an expired
    /// cooldown.
    fn is_quarantined(&self, pool: usize) -> bool {
        if self.config.quarantine_after == 0 {
            return false;
        }
        let mut health = sync::lock(&self.health[pool]);
        match health.until {
            Some(until) if Instant::now() >= until => {
                health.until = None;
                false
            }
            Some(_) => true,
            None => false,
        }
    }

    /// Resolve a placement to a servable pool: scan from the preferred
    /// index (the pinned hash slot, or the least-loaded pool), first
    /// for a healthy pool, then settling for a quarantined-but-alive
    /// one (quarantine degrades placement, never availability). `None`
    /// only when every pool is dead.
    fn route(&self, pinned: Option<usize>) -> Option<usize> {
        let n = self.pools.len();
        let start = pinned.unwrap_or_else(|| self.least_loaded());
        (0..n)
            .map(|off| (start + off) % n)
            .find(|&p| !self.pools[p].is_dead() && !self.is_quarantined(p))
            .or_else(|| {
                (0..n)
                    .map(|off| (start + off) % n)
                    .find(|&p| !self.pools[p].is_dead())
            })
    }

    /// The lowest-score pool among healthy ones (ties to the lowest
    /// index), falling back to any live pool, then to 0.
    fn least_loaded(&self) -> usize {
        let score = |i: usize| (self.pools[i].load().score(), i);
        (0..self.pools.len())
            .filter(|&i| !self.pools[i].is_dead() && !self.is_quarantined(i))
            .min_by_key(|&i| score(i))
            .or_else(|| {
                (0..self.pools.len())
                    .filter(|&i| !self.pools[i].is_dead())
                    .min_by_key(|&i| score(i))
            })
            .unwrap_or(0)
    }

    /// Bounded wait for a backpressured spawner: park on the placed
    /// pool's capacity condvar until one of *its* jobs completes (any
    /// completion lowers both the pool count and the global count), or
    /// plain-sleep one poll interval when the placed pool is idle and
    /// only the global mark binds — a completion on another pool cannot
    /// wake the condvar, and without the sleep the retry loop would
    /// busy-spin.
    fn park(&self, pool: usize) {
        let live = self.pools[pool].live_jobs();
        if live > 0 {
            self.pools[pool].wait_capacity(live, BACKPRESSURE_POLL);
        } else {
            std::thread::sleep(BACKPRESSURE_POLL);
        }
    }

    /// Whether the router-wide live-job count has reached the global
    /// high-water mark. Approximate under concurrent spawners — the
    /// mark is a shedding threshold, not an exact semaphore.
    fn over_high_water(&self) -> bool {
        let mark = self.config.global_cap;
        mark > 0 && self.pools.iter().map(Scheduler::live_jobs).sum::<usize>() >= mark
    }

    fn rebalance(&self) -> usize {
        if self.pools.len() < 2 {
            return 0;
        }
        let mut moved = 0usize;
        loop {
            let depths: Vec<usize> = self
                .pools
                .iter()
                .map(|p| if p.is_dead() { 0 } else { p.load().queued })
                .collect();
            let (deepest, &max_depth) = depths
                .iter()
                .enumerate()
                .max_by_key(|(i, &d)| (d, usize::MAX - i))
                .expect("at least two pools");
            let (shallowest, &min_depth) = depths
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.pools[*i].is_dead())
                .min_by_key(|(i, &d)| (d, *i))
                .unwrap_or((deepest, &max_depth));
            if max_depth <= min_depth + 1 || shallowest == deepest {
                break;
            }
            // The snapshot can go stale between load() and take; a miss
            // just ends the tick.
            let Some(job) = self.pools[deepest].take_unstarted() else {
                break;
            };
            self.pools[shallowest].adopt(job);
            moved += 1;
        }
        if moved > 0 {
            self.migrations.fetch_add(moved as u64, Ordering::AcqRel);
        }
        moved
    }

    fn auto_tick(&self) {
        let every = self.config.rebalance_every;
        if every > 0 && (self.tick.fetch_add(1, Ordering::AcqRel) + 1).is_multiple_of(every) {
            self.rebalance();
        }
    }

    fn stats(&self) -> RouterStats {
        let pools: Vec<PoolSnapshot> = self
            .pools
            .iter()
            .map(|p| PoolSnapshot {
                solver: p.stats(),
                load: p.load(),
                spawned: p.jobs_spawned(),
            })
            .collect();
        let mut solver = SolverStats::default();
        for pool in &pools {
            solver.merge(&pool.solver);
        }
        let cache = self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        // Exact hits never reach a pool, so no per-pool row carries
        // them — fold the router-side counters into the aggregate here.
        // Near hits already arrive through the merged per-job stats of
        // the warm-seeded solves (`cache_near_hits`), so only the
        // router-side view is added for misses/evictions.
        solver.cache_exact_hits += cache.exact_hits as usize;
        solver.cache_misses += cache.misses as usize;
        solver.cache_evictions += cache.evictions as usize;
        RouterStats {
            pools,
            solver,
            admissions: self.admissions.load(Ordering::Acquire),
            rejections: self.rejections.load(Ordering::Acquire),
            migrations: self.migrations.load(Ordering::Acquire),
            retries: self.retries.load(Ordering::Acquire),
            retries_exhausted: self.retries_exhausted.load(Ordering::Acquire),
            completions: self.completions.load(Ordering::Acquire),
            quarantines: self.quarantines.load(Ordering::Acquire),
            cache,
        }
    }
}

/// SYM-GD chains route through the same pools. Cell solves are
/// *continuations* of an already-admitted query, not new external
/// traffic, so they always use backpressure: a full queue delays the
/// chain instead of shedding it mid-flight (a rejected cell would
/// corrupt the chain's warm-start sequence). Query-hash placement keeps
/// every cell of one chain on one pool — the chain's warm LP
/// workspaces stay hot.
impl CellScheduler for Router {
    fn solve_cell(
        &self,
        problem: &Arc<OptProblem>,
        config: SolverConfig,
    ) -> Result<Solution, SolverError> {
        self.inner.submit(Arc::clone(problem), config, true).join()
    }
}
