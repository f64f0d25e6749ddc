//! The scheduler: a long-lived worker pool multiplexing many
//! [`SolveJob`]s with round-robin node-budget time slicing.

use crate::handle::{Completion, SolveHandle};
use rankhow_core::{
    CellScheduler, EngineScratch, OptProblem, RootArtifacts, Solution, SolveJob, SolveStatus,
    SolverConfig, SolverError, SolverStats, StepOutcome,
};
use rankhow_sync as sync;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default fairness slice: nodes a worker expands on one job before
/// rotating to the next queued job. Small enough that a heavy query
/// cannot starve light ones, large enough to amortize the rotation.
pub const DEFAULT_SLICE_NODES: usize = 64;

/// Default cap on supervised worker respawns per pool
/// ([`Scheduler::with_options`]): enough to ride out sporadic thread
/// deaths, small enough that a deterministically crashing workload
/// cannot respawn forever.
pub const DEFAULT_RESPAWN_CAP: usize = 8;

/// Callback a spawner attaches to a job, invoked exactly once when the
/// job is finalized with a real result (`Ok` *or* `Err` — the router's
/// retry layer needs failures too) — *before* its joiner is woken, so
/// anything the hook publishes (e.g. a cross-query cache insert) is
/// visible by the time [`SolveHandle::join`] returns. Jobs shed by a
/// dropped [`QueuedJob`] never ran, and their hook is never called. A
/// panicking hook is caught and ignored: it can never wedge the joiner
/// or kill the finalizing worker.
pub type CompletionHook =
    Arc<dyn Fn(&Result<Solution, SolverError>, Option<RootArtifacts>) + Send + Sync>;

/// Spawn-time metadata riding a job entry ([`Scheduler::try_spawn_with`]).
#[derive(Default, Clone)]
pub struct SpawnOptions {
    /// The admission-time canonical query fingerprint, computed once by
    /// the router and carried here so placement retries and
    /// [`Scheduler::take_unstarted`] rebalancing never re-walk the
    /// instance.
    pub fingerprint: Option<u64>,
    /// See [`CompletionHook`].
    pub on_complete: Option<CompletionHook>,
    /// When the query was admitted by its submitter (the router stamps
    /// this before its first placement attempt). Queue-wait and
    /// end-to-end latency telemetry are measured from here, so they
    /// survive placement retries and [`Scheduler::take_unstarted`]
    /// migrations — wait is charged from *original* admission, not
    /// re-enqueue. Defaults to the spawn instant.
    pub admitted: Option<Instant>,
    /// Pool label for the flight-recorder `placed` event. When set, the
    /// spawn records [`rankhow_obs::Event::Placed`] under the queue
    /// lock, *before* the entry is visible to workers — so a trace
    /// always orders `placed` ahead of the worker's `dequeued`, which a
    /// post-spawn recording by the submitter cannot guarantee. `None`
    /// (direct scheduler use, or router telemetry off) records nothing.
    pub placed_pool: Option<usize>,
}

/// One spawned job: the reentrant engine state plus completion plumbing.
pub(crate) struct JobEntry {
    pub(crate) job: SolveJob<Arc<OptProblem>>,
    pub(crate) completion: Completion,
    /// Admission-time query fingerprint (see [`SpawnOptions`]).
    fingerprint: Option<u64>,
    /// Completion callback (see [`CompletionHook`]).
    on_complete: Option<CompletionHook>,
    /// Taken (CAS) by the worker that packages the final result.
    finalized: AtomicBool,
    /// Workers currently holding this entry between popping it and
    /// finishing their slice (the entry is re-enqueued *before* being
    /// stepped, so it can sit in the queue while also claimed).
    /// [`Scheduler::take_unstarted`] only migrates unclaimed entries,
    /// which guarantees no worker of the source pool is (or ever will
    /// be) stepping a migrated job.
    claims: AtomicUsize,
    /// Taken (CAS) by the first worker about to step this job, moving
    /// it from the owning pool's `queued` count to its in-flight count
    /// exactly once — keeps [`Scheduler::load`] O(1) instead of a
    /// queue scan on the placement hot path.
    started_accounted: AtomicBool,
    /// Original admission time (see [`SpawnOptions::admitted`]). Rides
    /// the entry itself, so a `take_unstarted` → `adopt` migration
    /// keeps the stamp.
    admitted: Instant,
}

struct Shared {
    /// Round-robin run queue. Invariant: every spawned, not-yet-
    /// finalized-and-observed entry appears here exactly once; workers
    /// re-enqueue an entry *before* stepping it, so idle workers can
    /// co-step the same job.
    queue: Mutex<VecDeque<Arc<JobEntry>>>,
    available: Condvar,
    /// Notified (under the queue lock) whenever `live` decreases —
    /// admission backpressure parks here.
    capacity: Condvar,
    shutdown: AtomicBool,
    threads: usize,
    slice_nodes: usize,
    jobs_spawned: AtomicU64,
    /// Jobs this pool currently owns: spawned or adopted, not yet
    /// finalized, not migrated away. Written under the queue lock
    /// (spawn/adopt/take) or immediately before a `capacity` notify
    /// under that lock (finalize), so admission checks are atomic.
    live: AtomicUsize,
    /// Of `live`, the jobs no worker has begun stepping (the migratable
    /// run-queue depth): +1 at spawn/adopt, −1 at `take_unstarted` and
    /// at each entry's `started_accounted` transition.
    queued: AtomicUsize,
    /// Aggregate statistics over completed jobs (`jobs` counts them).
    finished_stats: Mutex<SolverStats>,
    /// Panics caught unwinding out of a job step (each finalized that
    /// job as [`SolveStatus::Failed`]).
    job_panics: AtomicU64,
    /// Worker threads the supervisor respawned after a death.
    worker_respawns: AtomicU64,
    /// Remaining respawn budget ([`Scheduler::with_options`]).
    respawns_left: AtomicUsize,
    /// Worker threads currently running (spawned or respawned, not yet
    /// exited). When a death drives this to zero with the respawn
    /// budget exhausted, the pool goes [`dead`](Shared::dead).
    workers_alive: AtomicUsize,
    /// Set (under the queue lock) when the last worker died with no
    /// respawns left: the queue has been drained-and-failed, and
    /// spawns are refused from then on. Checked by `try_spawn_with`
    /// under the same lock, so no entry can slip into a dead pool's
    /// queue.
    dead: AtomicBool,
    /// Join handles of every worker ever spawned, including supervisor
    /// respawns (a dying worker pushes its successor's handle here
    /// before exiting). Drained by [`Scheduler::drop`] in rounds until
    /// empty — the finite respawn budget bounds the rounds.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A load snapshot of one scheduler pool (see [`Scheduler::load`]).
#[derive(Clone, Copy, Debug)]
pub struct PoolLoad {
    /// Run-queue depth: spawned jobs no worker has started stepping.
    /// These are exactly the jobs [`Scheduler::take_unstarted`] can
    /// migrate to another pool.
    pub queued: usize,
    /// Jobs the pool's workers are actively advancing. Each occupies up
    /// to all of the pool's frontier lanes (idle workers co-step).
    pub in_flight: usize,
    /// Pool worker count.
    pub workers: usize,
}

impl PoolLoad {
    /// Scalar placement score: run-queue depth plus in-flight jobs
    /// (each in-flight job occupies frontier lanes until it finishes).
    /// Lower is less loaded.
    pub fn score(&self) -> usize {
        self.queued + self.in_flight
    }
}

/// A spawn refused by admission control: the pool already owned its
/// cap's worth of live (queued + in-flight) jobs. Carries the
/// submitted problem and config back to the caller, which can shed the query ([`SolveHandle::rejected`]), retry
/// another pool, or wait for capacity ([`Scheduler::wait_capacity`]).
pub struct RejectedSpawn {
    /// The submitted problem, returned unchanged.
    pub problem: Arc<OptProblem>,
    /// The submitted solver configuration, returned unchanged.
    pub config: SolverConfig,
    /// The submitted spawn metadata, returned unchanged (so a retry on
    /// another pool keeps the precomputed fingerprint and hook).
    pub opts: SpawnOptions,
}

/// A not-yet-started job removed from one scheduler's run queue by
/// [`Scheduler::take_unstarted`], in transit to another pool's
/// [`Scheduler::adopt`]. Un-started jobs have no root state (the
/// reduction and root heuristics run inside the first step), so the
/// move is free: no search state crosses pools.
///
/// Dropping a `QueuedJob` without adopting it sheds the job: its
/// [`SolveHandle`] completes immediately with
/// [`SolveStatus::Rejected`](rankhow_core::SolveStatus) and no
/// incumbent, so the submitter never hangs.
pub struct QueuedJob {
    entry: Option<Arc<JobEntry>>,
}

impl QueuedJob {
    /// The admission-time query fingerprint the job was spawned with —
    /// the router's rebalancer re-places migrated jobs by this without
    /// re-walking the instance. `None` for jobs spawned without one.
    pub fn fingerprint(&self) -> Option<u64> {
        self.entry.as_ref().and_then(|e| e.fingerprint)
    }

    /// The job's original admission stamp. Migration moves the entry
    /// wholesale, so queue-wait telemetry keeps measuring from the
    /// *first* admission even after a rebalance re-enqueues the job on
    /// another pool.
    pub fn admitted(&self) -> Option<Instant> {
        self.entry.as_ref().map(|e| e.admitted)
    }
}

impl Drop for QueuedJob {
    fn drop(&mut self) {
        if let Some(entry) = self.entry.take() {
            entry.job.cancel();
            if entry
                .finalized
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                entry.completion.set(Ok(Solution::rejected()));
            }
        }
    }
}

/// A long-lived worker pool that interleaves node expansion across many
/// concurrent solve jobs.
///
/// Fairness: each worker advances the front job of a shared round-robin
/// queue by one node-budget slice, then rotates. A job with more lanes
/// than active claimants is co-stepped by idle workers (work-stealing
/// across its frontier lanes), so a lone heavy query still uses the
/// whole pool.
///
/// Dropping the scheduler cancels every outstanding job cooperatively,
/// finalizes it with its best-so-far incumbent, and joins the workers —
/// outstanding [`SolveHandle::join`] calls return promptly.
pub struct Scheduler {
    shared: Arc<Shared>,
}

impl Scheduler {
    /// A pool of `threads` workers (≥ 1) with the default fairness
    /// slice.
    pub fn new(threads: usize) -> Self {
        Scheduler::with_slice(threads, DEFAULT_SLICE_NODES)
    }

    /// A pool with an explicit fairness slice (nodes per job turn) and
    /// the default respawn cap ([`DEFAULT_RESPAWN_CAP`]).
    pub fn with_slice(threads: usize, slice_nodes: usize) -> Self {
        Scheduler::with_options(threads, slice_nodes, DEFAULT_RESPAWN_CAP)
    }

    /// A pool with an explicit fairness slice and supervisor respawn
    /// cap: up to `respawn_cap` worker deaths are repaired by spawning
    /// replacement threads ([`SolverStats::worker_respawns`] counts
    /// them). When the *last* worker dies with the cap exhausted the
    /// pool goes dead ([`Scheduler::is_dead`]): queued jobs are
    /// finalized [`SolveStatus::Failed`] and further spawns are
    /// refused — joiners always resolve, they never hang on a pool
    /// with nobody left to step.
    pub fn with_options(threads: usize, slice_nodes: usize, respawn_cap: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads,
            slice_nodes: slice_nodes.max(1),
            jobs_spawned: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            finished_stats: Mutex::new(SolverStats::default()),
            job_panics: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            respawns_left: AtomicUsize::new(respawn_cap),
            workers_alive: AtomicUsize::new(0),
            dead: AtomicBool::new(false),
            handles: Mutex::new(Vec::with_capacity(threads)),
        });
        {
            let mut handles = sync::lock(&shared.handles);
            for wid in 0..threads {
                handles.push(spawn_worker(&shared, wid));
            }
        }
        Scheduler { shared }
    }

    /// Number of pool workers.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Total jobs ever spawned on this scheduler (adopted jobs count on
    /// their origin pool, not here).
    pub fn jobs_spawned(&self) -> u64 {
        self.shared.jobs_spawned.load(Ordering::Acquire)
    }

    /// Jobs this pool currently owns: spawned or adopted, not yet
    /// completed. This is the quantity admission caps bound.
    pub fn live_jobs(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// A snapshot of the pool's load: run-queue depth (jobs no worker
    /// has started) and in-flight jobs. O(1) — two counter reads, no
    /// queue lock — so placement can call it on every spawn. The two
    /// counters are read without a common critical section; concurrent
    /// workers may shift a job between them mid-read — placement
    /// decisions treat the snapshot as a heuristic.
    pub fn load(&self) -> PoolLoad {
        let queued = self.shared.queued.load(Ordering::Acquire);
        let live = self.shared.live.load(Ordering::Acquire);
        PoolLoad {
            queued,
            in_flight: live.saturating_sub(queued),
            workers: self.shared.threads,
        }
    }

    /// Aggregate statistics over *completed* jobs (`stats().jobs` is
    /// their count; counters are summed across jobs), plus the pool's
    /// fault counters: `job_panics` (panics caught stepping jobs) and
    /// `worker_respawns` (supervisor thread respawns).
    pub fn stats(&self) -> SolverStats {
        let mut stats = sync::lock(&self.shared.finished_stats).clone();
        stats.job_panics = self.shared.job_panics.load(Ordering::Acquire) as usize;
        stats.worker_respawns = self.shared.worker_respawns.load(Ordering::Acquire) as usize;
        stats
    }

    /// Whether the pool is dead: its last worker died with the respawn
    /// budget exhausted. A dead pool refuses spawns
    /// ([`Scheduler::try_spawn_shared`] rejects; [`Scheduler::spawn`]
    /// returns an already-failed handle) and has already failed its
    /// queue — nothing submitted to it can hang.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::Acquire)
    }

    /// Enqueue a solve job; returns immediately. The job runs with one
    /// frontier lane per pool worker — `config.threads` is ignored here,
    /// the pool decides the parallelism. Root setup (reduction, root
    /// heuristics) happens on a worker, not on the calling thread; even
    /// an infeasible instance surfaces through
    /// [`SolveHandle::join`](crate::SolveHandle::join), never as a
    /// spawn-time panic.
    pub fn spawn(&self, problem: OptProblem, config: SolverConfig) -> SolveHandle {
        self.spawn_shared(Arc::new(problem), config)
    }

    /// [`Scheduler::spawn`] without copying the problem — for callers
    /// that submit many jobs over the same dataset (batch serving,
    /// SYM-GD cell chains).
    pub fn spawn_shared(&self, problem: Arc<OptProblem>, config: SolverConfig) -> SolveHandle {
        match self.try_spawn_shared(problem, config, 0) {
            Ok(handle) => handle,
            // Cap 0 admits unconditionally; only a dead pool refuses.
            // Keep the no-panic spawn surface: hand back an
            // already-failed handle instead of an enqueue nobody would
            // ever step.
            Err(_) => SolveHandle::completed(Solution::failed()),
        }
    }

    /// [`Scheduler::spawn_shared`] with admission control: the spawn is
    /// refused (and the inputs handed back) when the pool already owns
    /// `queue_cap` live jobs. `queue_cap == 0` means unbounded — the
    /// spawn always succeeds. The capacity check and the enqueue are
    /// one atomic step under the queue lock, so concurrent spawners
    /// cannot overshoot the cap.
    pub fn try_spawn_shared(
        &self,
        problem: Arc<OptProblem>,
        config: SolverConfig,
        queue_cap: usize,
    ) -> Result<SolveHandle, Box<RejectedSpawn>> {
        self.try_spawn_with(problem, config, queue_cap, SpawnOptions::default())
    }

    /// [`Scheduler::try_spawn_shared`] carrying spawn metadata: a
    /// precomputed query fingerprint and/or a completion hook
    /// ([`SpawnOptions`]) — the router's cache-aware spawn path.
    pub fn try_spawn_with(
        &self,
        problem: Arc<OptProblem>,
        config: SolverConfig,
        queue_cap: usize,
        opts: SpawnOptions,
    ) -> Result<SolveHandle, Box<RejectedSpawn>> {
        let entry = {
            let queue_lock = &self.shared.queue;
            let mut queue = sync::lock(queue_lock);
            // `dead` flips under this same lock, so a spawn can never
            // slip an entry into a queue nobody will ever drain.
            if self.shared.dead.load(Ordering::Acquire)
                || (queue_cap > 0 && self.shared.live.load(Ordering::Acquire) >= queue_cap)
            {
                return Err(Box::new(RejectedSpawn {
                    problem,
                    config,
                    opts,
                }));
            }
            let entry = Arc::new(JobEntry {
                job: SolveJob::new(problem, config, self.shared.threads),
                completion: Completion::new(),
                fingerprint: opts.fingerprint,
                on_complete: opts.on_complete,
                finalized: AtomicBool::new(false),
                claims: AtomicUsize::new(0),
                started_accounted: AtomicBool::new(false),
                admitted: opts.admitted.unwrap_or_else(Instant::now),
            });
            // Stamp placement while the entry is still invisible to
            // workers (they pop under this same lock), so the trace
            // orders `placed` strictly before `dequeued`.
            if let (Some(pool), Some(tel)) = (opts.placed_pool, entry.job.telemetry()) {
                tel.event(rankhow_obs::Event::Placed { pool });
            }
            self.shared.jobs_spawned.fetch_add(1, Ordering::AcqRel);
            self.shared.live.fetch_add(1, Ordering::AcqRel);
            self.shared.queued.fetch_add(1, Ordering::AcqRel);
            queue.push_back(Arc::clone(&entry));
            entry
        };
        self.shared.available.notify_one();
        Ok(SolveHandle::new(entry))
    }

    /// Block until the pool owns fewer than `below` live jobs (i.e. a
    /// [`Scheduler::try_spawn_shared`] with `queue_cap == below` would
    /// be admitted right now) or `timeout` elapses. Returns whether
    /// capacity was observed. `below == 0` (unbounded) returns `true`
    /// immediately. The admission itself can still race another
    /// spawner — callers loop `wait_capacity` + `try_spawn_shared`.
    pub fn wait_capacity(&self, below: usize, timeout: Duration) -> bool {
        if below == 0 {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let mut queue = sync::lock(&self.shared.queue);
        while self.shared.live.load(Ordering::Acquire) >= below {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _timed_out) =
                sync::wait_timeout(&self.shared.capacity, queue, deadline - now);
            queue = guard;
        }
        true
    }

    /// Remove the most recently queued job *no worker has started* from
    /// the run queue — the router's rebalancing hook. Un-started jobs
    /// have no root state, so nothing but the entry itself moves.
    /// Returns `None` when every queued job is already being stepped
    /// (or the queue is empty). Taking from the back preserves FIFO
    /// fairness for the jobs that stay.
    pub fn take_unstarted(&self) -> Option<QueuedJob> {
        let mut queue = sync::lock(&self.shared.queue);
        let idx = queue.iter().rposition(|e| {
            !e.job.is_started() && !e.job.is_finished() && e.claims.load(Ordering::Acquire) == 0
        })?;
        let entry = queue.remove(idx).expect("index from rposition");
        self.shared.live.fetch_sub(1, Ordering::AcqRel);
        // An entry passing the predicate was never popped by a worker
        // (claims == 0 and never stepped), so it still counts as queued.
        self.shared.queued.fetch_sub(1, Ordering::AcqRel);
        // The vacated slot is capacity for a new admission.
        self.shared.capacity.notify_all();
        Some(QueuedJob { entry: Some(entry) })
    }

    /// Adopt a job migrated from another pool: it joins the back of the
    /// run queue and counts against this pool's live jobs from now on.
    /// The job keeps its origin lane count; worker ids map onto lanes
    /// modulo, so pools of any size can adopt it.
    pub fn adopt(&self, mut job: QueuedJob) {
        let entry = job.entry.take().expect("taken only by adopt or Drop");
        {
            let mut queue = sync::lock(&self.shared.queue);
            self.shared.live.fetch_add(1, Ordering::AcqRel);
            self.shared.queued.fetch_add(1, Ordering::AcqRel);
            queue.push_back(entry);
        }
        self.shared.available.notify_one();
    }
}

/// SYM-GD cell solves become scheduler jobs: the chain shares the
/// pool with every other in-flight query, and each cell reuses the
/// workers' warm LP workspaces.
impl CellScheduler for Scheduler {
    fn solve_cell(
        &self,
        problem: &Arc<OptProblem>,
        config: SolverConfig,
    ) -> Result<Solution, SolverError> {
        self.spawn_shared(Arc::clone(problem), config).join()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            // Cancel everything still live so joiners unblock promptly;
            // workers drain the queue, finalizing each job with its
            // best-so-far incumbent.
            let queue = sync::lock(&self.shared.queue);
            for entry in queue.iter() {
                entry.job.cancel();
            }
        }
        self.shared.available.notify_all();
        // Join in rounds: a dying worker pushes its successor's handle
        // *before* exiting, so once a round's handles are all joined,
        // any handle they produced is visible to the next round. The
        // finite respawn budget bounds the rounds.
        loop {
            let round: Vec<JoinHandle<()>> = sync::lock(&self.shared.handles).drain(..).collect();
            if round.is_empty() {
                break;
            }
            for worker in round {
                let _ = worker.join();
            }
        }
    }
}

/// Spawn one supervised worker thread: `workers_alive` is incremented
/// here (before the thread exists) so a concurrent death of the old
/// worker can never observe a transient zero while its replacement is
/// being created.
fn spawn_worker(shared: &Arc<Shared>, wid: usize) -> JoinHandle<()> {
    shared.workers_alive.fetch_add(1, Ordering::AcqRel);
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("rankhow-serve-{wid}"))
        .spawn(move || {
            let watch = DeathWatch {
                shared: Arc::clone(&shared),
                wid,
            };
            worker_loop(&shared, wid);
            drop(watch);
        })
        .expect("spawn scheduler worker")
}

/// Supervision guard living on each worker thread's stack. On a normal
/// shutdown exit it only decrements the live count; when the thread is
/// *unwinding* (a panic escaped the worker loop — e.g. an injected
/// `WorkerDeath` re-raise), it respawns a replacement if the budget
/// allows, and otherwise — if this was the last worker — declares the
/// pool dead and fails every queued job so no joiner is left hanging.
struct DeathWatch {
    shared: Arc<Shared>,
    wid: usize,
}

impl Drop for DeathWatch {
    fn drop(&mut self) {
        let shared = &self.shared;
        shared.workers_alive.fetch_sub(1, Ordering::AcqRel);
        if !std::thread::panicking() || shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let respawn = shared
            .respawns_left
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok();
        if respawn {
            shared.worker_respawns.fetch_add(1, Ordering::AcqRel);
            let successor = spawn_worker(&self.shared, self.wid);
            sync::lock(&shared.handles).push(successor);
            return;
        }
        if shared.workers_alive.load(Ordering::Acquire) > 0 {
            // Other workers keep the pool serving at reduced width.
            return;
        }
        // Last worker, respawn budget gone: the pool is dead. Flip the
        // flag and drain under the queue lock (the same lock spawns
        // check), then fail each job outside it — `finalize` re-takes
        // the lock for its capacity release.
        let drained: Vec<Arc<JobEntry>> = {
            let mut queue = sync::lock(&shared.queue);
            shared.dead.store(true, Ordering::Release);
            queue.drain(..).collect()
        };
        for entry in drained {
            entry.job.cancel();
            entry.job.fail();
            finalize(shared, &entry);
        }
        // Backpressured spawners parked on `capacity` re-check against
        // a pool that now refuses admission; wake them.
        shared.capacity.notify_all();
    }
}

fn worker_loop(shared: &Shared, wid: usize) {
    // One scratch for this worker's whole life: the SimplexWorkspace
    // tableau allocation survives across every job it touches, and the
    // incremental-LP workspace doubles as the worker's basis cache — a
    // node popped here after time-slicing (or stolen from another
    // lane) re-installs its parent-basis snapshot onto this scratch,
    // so LP warm starts survive the scheduler's job rotation.
    let mut scratch = EngineScratch::new();
    loop {
        let entry = {
            let mut queue = sync::lock(&shared.queue);
            loop {
                if let Some(entry) = queue.pop_front() {
                    // Claimed while the queue lock is held: from here to
                    // the end of the slice, `take_unstarted` skips this
                    // job, so a migrated job can never be concurrently
                    // stepped (or finalized) by this pool.
                    entry.claims.fetch_add(1, Ordering::AcqRel);
                    break Some(entry);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = sync::wait(&shared.available, queue);
            }
        };
        let Some(entry) = entry else {
            return; // shutdown, queue drained
        };
        if entry.job.is_finished() {
            // Drop the queue's copy of a finished job (finalizing it if
            // this is the last claim, e.g. when `Done` raced between
            // workers).
            release(shared, &entry);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            entry.job.cancel();
        }
        // Re-enqueue *before* stepping: keeps the round-robin rotation
        // going and lets idle workers co-step this job's other lanes.
        {
            let mut queue = sync::lock(&shared.queue);
            queue.push_back(Arc::clone(&entry));
        }
        shared.available.notify_one();
        // First worker to commit to stepping this job moves it from the
        // run-queue count to in-flight, exactly once.
        if entry
            .started_accounted
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            shared.queued.fetch_sub(1, Ordering::AcqRel);
            // Queue wait ends here: one entry per job, measured from the
            // original admission stamp (survives rebalance migration).
            if let Some(tel) = entry.job.telemetry() {
                tel.metrics.queue_wait.record(entry.admitted.elapsed());
                tel.event(rankhow_obs::Event::Dequeued);
            }
        }
        // Panic isolation: a panic unwinding out of the step fails *this
        // job* (best-so-far kept, joiner woken, siblings untouched) —
        // the job's shared state is guarded by poison-tolerant locks and
        // stays structurally valid, only this worker's slice-local state
        // died with the unwind.
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            entry.job.step(wid, &mut scratch, shared.slice_nodes)
        }));
        match stepped {
            // Finalized by whichever claim on the job is released last:
            // a sibling lane may still be mid-step, and its counters
            // flush into the job's stats only when that step returns.
            Ok(StepOutcome::Done) | Ok(StepOutcome::Progress) => {}
            Ok(StepOutcome::Starved) => std::thread::yield_now(),
            Err(payload) => {
                shared.job_panics.fetch_add(1, Ordering::AcqRel);
                if let Some(tel) = entry.job.telemetry() {
                    tel.event(rankhow_obs::Event::Failed);
                }
                entry.job.fail();
                release(shared, &entry);
                // The unwound step may have left the scratch's LP
                // tableau mid-rebuild; start the next slice clean.
                scratch = EngineScratch::new();
                // An injected *worker death* additionally kills this
                // thread: re-raise after its claim is released (the job
                // is failed, and finalized by its last claim) so the
                // DeathWatch supervisor takes over.
                #[cfg(feature = "fault-inject")]
                if payload.is::<rankhow_core::fault::WorkerDeath>() {
                    if let Some(tel) = entry.job.telemetry() {
                        if !shared.shutdown.load(Ordering::Acquire)
                            && shared.respawns_left.load(Ordering::Acquire) > 0
                        {
                            tel.event(rankhow_obs::Event::WorkerRespawned { worker: wid });
                        }
                    }
                    std::panic::panic_any(rankhow_core::fault::WorkerDeath);
                }
                drop(payload);
                continue;
            }
        }
        release(shared, &entry);
    }
}

/// Drop a worker's claim on `entry`. The last claim released on a
/// finished job finalizes it: every worker that stepped the job has
/// flushed its counters by then, so the delivered stats are complete.
/// A job finishes only inside a claimed step, so some release always
/// sees both conditions.
fn release(shared: &Shared, entry: &JobEntry) {
    if entry.claims.fetch_sub(1, Ordering::AcqRel) == 1 && entry.job.is_finished() {
        finalize(shared, entry);
    }
}

/// Package a finished job's result exactly once, release its admission
/// slot, and wake its joiner.
fn finalize(shared: &Shared, entry: &JobEntry) {
    if entry
        .finalized
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return;
    }
    let result = entry.job.result();
    if let Ok(solution) = &result {
        sync::lock(&shared.finished_stats).merge(&solution.stats);
        // End-to-end latency: original admission → completion. One
        // entry per completed job, so latency.count == finished jobs.
        if let Some(tel) = entry.job.telemetry() {
            tel.metrics.latency.record(entry.admitted.elapsed());
            tel.event(rankhow_obs::Event::Completed {
                status: match solution.status {
                    SolveStatus::Optimal => "optimal",
                    SolveStatus::NodeLimit => "node_limit",
                    SolveStatus::TimeLimit => "time_limit",
                    SolveStatus::Cancelled => "cancelled",
                    SolveStatus::Rejected => "rejected",
                    SolveStatus::Failed => "failed",
                },
            });
        }
    }
    // Run the spawner's hook *before* waking the joiner: a caller
    // observing completion may rely on what the hook published (e.g.
    // the router's cache insert serving the next query). `Err` results
    // flow through too — the router's retry/quarantine bookkeeping
    // needs them — and a panicking hook is contained here rather than
    // taking the finalizing worker (and the wakeup below) with it.
    if let Some(hook) = &entry.on_complete {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            hook(&result, entry.job.root_artifacts());
        }));
    }
    // Release the job's admission slot under the queue lock so a
    // `wait_capacity` parked on the capacity condvar cannot miss the
    // wakeup between its predicate check and its wait. This happens
    // *before* the joiner wakes: anything `join` returns into (a load
    // snapshot, `live_jobs`) already reflects the completed job.
    {
        let _queue = sync::lock(&shared.queue);
        shared.live.fetch_sub(1, Ordering::AcqRel);
        shared.capacity.notify_all();
    }
    entry.completion.set(result);
}
