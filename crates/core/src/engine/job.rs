//! The reentrant per-job search state.
//!
//! A [`SolveJob`] owns *all* mutable state of one OPT solve — frontier,
//! incumbent, counters, limits — behind interior mutability, so any
//! number of workers can advance the same job concurrently through
//! [`SolveJob::step`] and any thread can observe or cancel it. Three
//! drivers share this one search loop:
//!
//! - the blocking [`RankHow::solve`](super::RankHow::solve) (one job,
//!   stepped to completion on the caller's threads);
//! - the `rankhow-serve` scheduler (many jobs interleaved over one
//!   long-lived worker pool, node-budget time slicing per job);
//! - tests that single-step the search deterministically.
//!
//! Cancellation and deadlines are cooperative and checked at node
//! granularity: a stopped job keeps its best-so-far incumbent and
//! reports a [`SolveStatus`] instead of an error.

use super::bounds::interval_bound;
use super::engine::{in_box, EngineScratch, SearchView};
use super::frontier::{DecidedPairs, Node, Propagated, WorkPool};
use super::incumbent::SharedIncumbent;
use super::{
    RootArtifacts, SearchOrder, Solution, SolveStatus, SolverConfig, SolverError, SolverStats,
};
use crate::formulation::{self, ReducedSystem};
use crate::OptProblem;
use rankhow_lp::{BasisSnapshot, Status};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// What one [`SolveJob::step`] slice observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// Nodes were processed and the frontier may hold more work.
    Progress,
    /// Nothing poppable right now — another worker holds the job's
    /// remaining in-flight nodes (or is initializing the root). Retry
    /// shortly; the job is not finished.
    Starved,
    /// The job is finished: proved, limit-stopped, cancelled, or
    /// failed. [`SolveJob::result`] is now available.
    Done,
}

/// Root-derived immutable search state, built lazily by whichever
/// worker steps the job first (so `spawn` never blocks on the
/// `O(k·n)` reduction or the root heuristics).
struct RootState {
    sys: ReducedSystem,
    slot_bounds: Vec<Option<(u32, u32)>>,
    has_position_constraints: bool,
}

/// What the root expansion produced for the root node's children — the
/// payload a cross-query cache stores so a later near-identical solve
/// can start from it ([`RootArtifacts`]).
struct RootCapture {
    basis: Option<Arc<BasisSnapshot>>,
    prop: Option<Arc<Propagated>>,
}

/// One in-flight OPT solve, safe to step from many workers at once.
///
/// Generic over how the problem is held: the blocking solver borrows
/// (`P = &OptProblem`), the scheduler shares (`P = Arc<OptProblem>`).
pub struct SolveJob<P: Borrow<OptProblem>> {
    problem: P,
    config: SolverConfig,
    /// When the job was created (spawn time): the base of deadlines and
    /// of `stats.elapsed`.
    start: Instant,
    /// When the first worker started stepping the job. `time_limit` is
    /// charged against this, not `start`, so a scheduler job's queue
    /// wait does not eat its solve budget (`--budget` means the same
    /// thing in batch mode as in the blocking path).
    solve_started: OnceLock<Instant>,
    box_lo: Vec<f64>,
    box_hi: Vec<f64>,
    lanes: usize,
    pool: WorkPool,
    incumbent: SharedIncumbent,
    /// Best incumbent whose weights avoid the (ε2, ε1) gap band — the
    /// part of the sampled space the optimality proof actually covers.
    /// Tracked separately because band incumbents are
    /// interleaving-dependent while certified ones cross-validate any
    /// exhaustive search of the instance (see
    /// [`Solution::certified_error`]).
    certified: SharedIncumbent,
    root: OnceLock<RootState>,
    /// Facts the root expansion handed its children, kept for
    /// [`SolveJob::root_artifacts`]. Set by whichever worker expands the
    /// root node; stays empty when the root is pruned before expanding.
    root_capture: OnceLock<RootCapture>,
    /// Taken (CAS) by the worker that runs root initialization.
    root_claim: AtomicBool,
    /// Set once the root node is pushed (or the root already proves the
    /// job); exhaustion may only be concluded after this.
    root_done: AtomicBool,
    /// Nodes charged against `config.node_limit` (expanded nodes only).
    nodes: AtomicUsize,
    /// Deadline in nanoseconds since `start` (0 = none).
    deadline_nanos: AtomicU64,
    cancelled: AtomicBool,
    /// Terminal outcome; set exactly once.
    outcome: OnceLock<Result<SolveStatus, SolverError>>,
    stats: Mutex<SolverStats>,
}

impl<P: Borrow<OptProblem>> SolveJob<P> {
    /// A new job over `lanes` frontier lanes (≥ 1). Cheap: the root
    /// reduction and heuristics run inside the first [`SolveJob::step`].
    ///
    /// `config.threads` is *not* consulted here — the driver decides the
    /// parallelism by choosing `lanes` and how many workers step.
    pub fn new(problem: P, config: SolverConfig, lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let m = problem.borrow().m();
        let (box_lo, box_hi) = match &config.initial_box {
            Some((lo, hi)) => (lo.clone(), hi.clone()),
            None => (vec![0.0; m], vec![1.0; m]),
        };
        let pool = WorkPool::new(lanes, config.order);
        SolveJob {
            problem,
            config,
            start: Instant::now(),
            solve_started: OnceLock::new(),
            box_lo,
            box_hi,
            lanes,
            pool,
            incumbent: SharedIncumbent::new(Vec::new(), u64::MAX),
            certified: SharedIncumbent::new(Vec::new(), u64::MAX),
            root: OnceLock::new(),
            root_capture: OnceLock::new(),
            root_claim: AtomicBool::new(false),
            root_done: AtomicBool::new(false),
            nodes: AtomicUsize::new(0),
            deadline_nanos: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            outcome: OnceLock::new(),
            stats: Mutex::new(SolverStats {
                threads: lanes,
                ..SolverStats::default()
            }),
        }
    }

    /// Number of frontier lanes (a scheduler maps worker ids onto
    /// lanes modulo this).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Request cooperative cancellation. The job stops at the next node
    /// boundary and finishes with [`SolveStatus::Cancelled`], keeping
    /// its best-so-far incumbent. Idempotent; a no-op once finished.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Force-finish the job with [`SolveStatus::Failed`], keeping the
    /// best-so-far incumbent. The scheduler calls this after catching a
    /// panic that unwound out of [`SolveJob::step`]: the step's
    /// slice-local state died with the unwind, but the job's shared
    /// state (frontier, incumbent, counters) stays structurally valid
    /// and the first-writer-wins outcome makes joiners safe to wake.
    /// Idempotent; a no-op once finished.
    pub fn fail(&self) {
        self.finish(Ok(SolveStatus::Failed));
    }

    /// Set (or move) the job's deadline to `after` from now, checked at
    /// node granularity; an expired job finishes with
    /// [`SolveStatus::TimeLimit`] and its best-so-far incumbent.
    ///
    /// Deadlines are wall-clock — queue wait counts, as a serving
    /// latency bound should. [`SolverConfig::time_limit`] by contrast
    /// is a *solve* budget, charged only from the job's first step.
    pub fn deadline(&self, after: Duration) {
        let at = self.start.elapsed() + after;
        let nanos = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX).max(1);
        self.deadline_nanos.store(nanos, Ordering::Release);
    }

    /// Whether a terminal outcome has been reached.
    pub fn is_finished(&self) -> bool {
        self.outcome.get().is_some()
    }

    /// Whether any worker has ever stepped this job. An un-started job
    /// has no root state (the reduction and root heuristics run inside
    /// the first [`SolveJob::step`]), which is what makes migrating a
    /// queued job between scheduler pools free: there is no per-pool
    /// search state to hand over.
    pub fn is_started(&self) -> bool {
        self.solve_started.get().is_some()
    }

    /// Latest anytime incumbent `(error, weights)`; `None` before the
    /// first feasible point is found. Monotone: later observations never
    /// report a larger error.
    pub fn best_so_far(&self) -> Option<(u64, Vec<f64>)> {
        let (err, w) = self.incumbent.snapshot();
        (err != u64::MAX).then_some((err, w))
    }

    /// This job's telemetry handle, if any (`None` when telemetry is
    /// runtime-disabled or compiled out). The scheduler and router
    /// record their layer's signals — queue wait, completion latency,
    /// placement events — against the same handle the engine uses.
    pub fn telemetry(&self) -> Option<&rankhow_obs::SolveTelemetry> {
        self.config.obs()
    }

    /// Advance the job by at most `node_budget` frontier pops on `lane`
    /// (the scheduler's fairness slice). Reentrant: distinct workers may
    /// step distinct lanes of the same job concurrently.
    pub fn step(
        &self,
        lane: usize,
        scratch: &mut EngineScratch,
        node_budget: usize,
    ) -> StepOutcome {
        if self.is_finished() {
            return StepOutcome::Done;
        }
        // The solve clock starts when the first worker arrives, not at
        // spawn: queued jobs keep their full time budget.
        self.solve_started.get_or_init(Instant::now);
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.config.faults {
            plan.on_step();
        }
        // A job cancelled before its root was ever built skips the
        // (possibly expensive) root setup entirely.
        if self.cancelled.load(Ordering::Acquire) && !self.root_done.load(Ordering::Acquire) {
            self.finish(Ok(SolveStatus::Cancelled));
            return StepOutcome::Done;
        }
        if !self.root_done.load(Ordering::Acquire) {
            if self
                .root_claim
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.init_root(scratch);
                self.flush(scratch);
                if self.is_finished() {
                    return StepOutcome::Done;
                }
            } else {
                // Another worker is initializing; nothing to do yet.
                return StepOutcome::Starved;
            }
        }
        let lane = lane % self.lanes;
        let view = self.view();
        scratch.prepare(view.sys);
        let budget = node_budget.max(1);
        let mut popped = 0usize;
        // Slice accounting starts at the first successful pop, so
        // starved slices leave no trace.
        let obs = self.config.obs();
        let mut slice_t0: Option<Instant> = None;
        let outcome = loop {
            if self.is_finished() {
                break StepOutcome::Done;
            }
            if popped >= budget {
                break StepOutcome::Progress;
            }
            if self.cancelled.load(Ordering::Acquire) {
                self.finish(Ok(SolveStatus::Cancelled));
                break StepOutcome::Done;
            }
            if let Some(status) = self.time_exceeded() {
                self.finish(Ok(status));
                break StepOutcome::Done;
            }
            let Some(node) = self.pool.pop(lane) else {
                if self.pool.pending() == 0 {
                    // Every node expanded or soundly pruned: proof.
                    self.finish(Ok(SolveStatus::Optimal));
                    break StepOutcome::Done;
                }
                break StepOutcome::Starved;
            };
            popped += 1;
            if let Some(tel) = obs {
                if popped == 1 {
                    slice_t0 = Some(Instant::now());
                    tel.event(rankhow_obs::Event::SliceStart { lane });
                }
            }
            if node.bound >= self.incumbent.error() {
                // Sound discard — and under best-first order everything
                // left on this lane's heap is at least as bad.
                if self.config.order == SearchOrder::BestFirst {
                    self.pool.discard_lane(lane);
                }
                self.pool.finish_node();
                continue;
            }
            let limit = self.config.node_limit;
            if limit > 0 && self.nodes.fetch_add(1, Ordering::SeqCst) >= limit {
                self.pool.finish_node();
                self.finish(Ok(SolveStatus::NodeLimit));
                break StepOutcome::Done;
            }
            scratch.stats.nodes += 1;
            match view.expand(&node, &self.incumbent, &self.certified, scratch) {
                Ok(children) => {
                    if self.incumbent.error() == 0 {
                        self.pool.finish_node();
                        self.finish(Ok(SolveStatus::Optimal));
                        break StepOutcome::Done;
                    }
                    // Root expansion: keep the facts it handed the
                    // children (both siblings share the Arcs) so the
                    // cross-query cache can re-seed a later solve.
                    if node.decisions.is_empty() {
                        if let Some(first) = children.first() {
                            let _ = self.root_capture.set(RootCapture {
                                basis: first.basis.clone(),
                                prop: first.prop.clone(),
                            });
                        }
                    }
                    for child in children {
                        self.pool.push(lane, child);
                    }
                    self.pool.finish_node();
                }
                Err(e) => {
                    self.pool.finish_node();
                    self.finish(Err(e));
                    break StepOutcome::Done;
                }
            }
        };
        if let (Some(tel), Some(t0)) = (obs, slice_t0) {
            tel.metrics.slice.record(t0.elapsed());
            tel.event(rankhow_obs::Event::SliceEnd {
                lane,
                nodes: popped as u64,
            });
        }
        self.flush(scratch);
        outcome
    }

    /// The job's solution; callable any time after [`SolveJob::step`]
    /// returned [`StepOutcome::Done`] (panics before that). A stopped
    /// job (limit / deadline / cancel) reports its best-so-far incumbent
    /// with the corresponding [`SolveStatus`]; if *no* feasible point
    /// was found before it stopped, that is reported as
    /// [`SolverError::Infeasible`], mirroring the blocking solver's
    /// behaviour on exhausted limits.
    pub fn result(&self) -> Result<Solution, SolverError> {
        let outcome = self
            .outcome
            .get()
            .expect("SolveJob::result called before the job finished")
            .clone();
        let (error, weights) = self.incumbent.snapshot();
        let (certified_error, certified_weights) = self.certified.snapshot();
        self.package(outcome?, error, weights, certified_error, certified_weights)
    }

    /// Consume the job into its solution (the blocking driver's exit —
    /// avoids cloning the incumbent weights).
    pub(super) fn into_solution(self) -> Result<Solution, SolverError> {
        let outcome = self
            .outcome
            .get()
            .expect("SolveJob::into_solution called before the job finished")
            .clone();
        let status = outcome?;
        let stats = SolverStats {
            jobs: 1,
            ..self
                .stats
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        let (error, weights) = self.incumbent.into_best();
        if error == u64::MAX {
            return Err(SolverError::Infeasible);
        }
        let (certified_error, certified_weights) = self.certified.into_best();
        let certified = !crate::verify::relies_on_gap_band(self.problem.borrow(), &weights);
        Ok(Solution {
            weights,
            error,
            optimal: status == SolveStatus::Optimal,
            status,
            certified,
            certified_error,
            certified_weights,
            stats,
        })
    }

    fn package(
        &self,
        status: SolveStatus,
        error: u64,
        weights: Vec<f64>,
        certified_error: u64,
        certified_weights: Vec<f64>,
    ) -> Result<Solution, SolverError> {
        let mut stats = rankhow_sync::lock(&self.stats).clone();
        stats.jobs = 1;
        if status == SolveStatus::Failed {
            stats.job_panics = 1;
        }
        if error == u64::MAX {
            if status == SolveStatus::Failed {
                // The step panicked before any feasible point was
                // sampled — that is a failure, not a proof of
                // infeasibility.
                let mut sol = Solution::failed();
                sol.stats = stats;
                return Ok(sol);
            }
            // No feasible point was ever sampled. With a proof this is a
            // genuine infeasibility (only possible under position
            // constraints); without one it mirrors the historical
            // limit-exhausted behaviour.
            return Err(SolverError::Infeasible);
        }
        let certified = !crate::verify::relies_on_gap_band(self.problem.borrow(), &weights);
        Ok(Solution {
            weights,
            error,
            optimal: status == SolveStatus::Optimal,
            status,
            certified,
            certified_error,
            certified_weights,
            stats,
        })
    }

    /// Root setup: reduction, slot windows, root-region feasibility,
    /// warm start, start heuristic, and the root node push. Runs once,
    /// on whichever worker wins the claim.
    fn init_root(&self, scratch: &mut EngineScratch) {
        // Forced root-LP verdict (fault injection): report the verdict
        // without building any root state. `root_done` stays false; the
        // finished-job check at the top of `step` covers every other
        // worker.
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.config.faults {
            if let Some(fault) = plan.take_root_lp() {
                self.finish(Err(match fault {
                    crate::fault::LpFault::Infeasible => SolverError::Infeasible,
                    crate::fault::LpFault::IterationLimit => {
                        SolverError::Lp(rankhow_lp::SolveError::IterationLimit)
                    }
                }));
                return;
            }
        }
        let problem = self.problem.borrow();
        let sys = formulation::reduce_against_box(problem, &self.box_lo, &self.box_hi);
        let slot_bounds: Vec<Option<(u32, u32)>> = sys
            .top
            .iter()
            .map(|&t| problem.positions.interval(t))
            .collect();
        scratch.stats.live_pairs = sys.pairs.len();
        let root = RootState {
            has_position_constraints: slot_bounds.iter().any(|b| b.is_some()),
            slot_bounds,
            sys,
        };
        self.root.set(root).unwrap_or_else(|_| {
            unreachable!("root initialization is claimed by exactly one worker")
        });
        let view = self.view();
        scratch.prepare(view.sys);

        // Root region feasibility + first incumbent. A numerically
        // stuck Chebyshev LP falls back to a plain feasibility solve.
        let root_region = view.region(&[]);
        let obs = self.config.obs();
        scratch.stats.lp_solves += 1;
        let t0 = obs.map(|_| Instant::now());
        let centered = rankhow_lp::chebyshev_center_with(&root_region, &mut scratch.lp);
        if let (Some(tel), Some(t0)) = (obs, t0) {
            tel.metrics.lp_solve.record(t0.elapsed());
        }
        let center = match centered {
            Ok(Some(c)) => c,
            Ok(None) => {
                self.finish(Err(SolverError::Infeasible));
                return;
            }
            Err(_) => {
                scratch.stats.lp_solves += 1;
                let t0 = obs.map(|_| Instant::now());
                let feas = root_region.solve_feasibility_with(&mut scratch.lp);
                if let (Some(tel), Some(t0)) = (obs, t0) {
                    tel.metrics.lp_solve.record(t0.elapsed());
                }
                match feas {
                    Ok(sol) if sol.status == Status::Optimal => sol.x,
                    Ok(_) => {
                        self.finish(Err(SolverError::Infeasible));
                        return;
                    }
                    Err(e) => {
                        self.finish(Err(SolverError::Lp(e)));
                        return;
                    }
                }
            }
        };
        view.try_incumbent(
            &center,
            &self.incumbent,
            &self.certified,
            &mut scratch.stats,
        );

        if let Some(warm) = &self.config.warm_start {
            if warm.len() == problem.m()
                && problem.constraints.satisfied_by(warm)
                && in_box(warm, &self.box_lo, &self.box_hi)
            {
                view.try_incumbent(warm, &self.incumbent, &self.certified, &mut scratch.stats);
            }
        }

        // Cross-query root seed ([`SolverConfig::root_seed`], a cache
        // near hit). Cached incumbents pass the exact warm-start gate
        // above; cached artifacts are installed only after re-proving
        // the containment they require — a failed proof silently
        // degrades to a cold root, never to an unsound one.
        let mut seeded_basis: Option<Arc<BasisSnapshot>> = None;
        let mut seeded_prop: Option<Arc<Propagated>> = None;
        if let Some(seed) = &self.config.root_seed {
            scratch.stats.cache_near_hits += 1;
            if let Some(tel) = obs {
                tel.event(rankhow_obs::Event::CacheNearHit);
            }
            for w in &seed.incumbents {
                if w.len() == problem.m()
                    && problem.constraints.satisfied_by(w)
                    && in_box(w, &self.box_lo, &self.box_hi)
                {
                    view.try_incumbent(w, &self.incumbent, &self.certified, &mut scratch.stats);
                }
            }
            // Injected cache-artifact rejection: pretend the containment
            // re-proof failed, exercising the cold-root degradation.
            #[cfg(feature = "fault-inject")]
            let artifacts = (!self
                .config
                .faults
                .as_ref()
                .is_some_and(|p| p.take_reject_seed()))
            .then_some(&seed.artifacts)
            .and_then(|a| a.as_ref());
            #[cfg(not(feature = "fault-inject"))]
            let artifacts = seed.artifacts.as_ref();
            if let Some(art) = artifacts {
                if self.config.warm_lp {
                    // A basis snapshot is always safe to offer: the load
                    // installs it onto the *new* region's tableau and
                    // dual-restores (or falls back cold on mismatch).
                    seeded_basis = art.basis.clone();
                }
                if self.config.propagate && self.region_within_cached(art) {
                    seeded_prop = Some(Arc::new(self.translate_artifacts(art)));
                }
            }
        }

        // Start heuristic: deterministic random simplex points inside
        // the box; good incumbents found here prune the tree everywhere.
        if self.config.root_samples > 0 && self.incumbent.error() > 0 {
            let m = problem.m();
            let mut state = 0x853c49e6748fea9bu64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            for _ in 0..self.config.root_samples {
                // Dirichlet(1,…,1) point, projected into the box.
                let mut w: Vec<f64> = (0..m).map(|_| -(next().max(1e-12)).ln()).collect();
                let total: f64 = w.iter().sum();
                for (j, x) in w.iter_mut().enumerate() {
                    *x = (*x / total).clamp(self.box_lo[j], self.box_hi[j]);
                }
                let resum: f64 = w.iter().sum();
                if resum <= 0.0 {
                    continue;
                }
                // Re-normalize; box clipping can push the sum off 1.
                let ok_after: bool = {
                    w.iter_mut().for_each(|x| *x /= resum);
                    in_box(&w, &self.box_lo, &self.box_hi)
                };
                if ok_after && problem.constraints.satisfied_by(&w) {
                    view.try_incumbent(&w, &self.incumbent, &self.certified, &mut scratch.stats);
                    if self.incumbent.error() == 0 {
                        break;
                    }
                }
            }
        }

        // Root node — unless the root bound already closes the search.
        let root_bound = interval_bound(
            view.sys,
            &view.sys.fixed_beats,
            &view.sys.undecided,
            problem.objective,
        );
        if self.incumbent.error() == 0 || root_bound >= self.incumbent.error() {
            self.finish(Ok(SolveStatus::Optimal));
        } else {
            self.pool.push(
                0,
                Node {
                    decisions: Vec::new(),
                    bound: root_bound,
                    basis: seeded_basis,
                    prop: seeded_prop,
                },
            );
        }
        if let Some(tel) = obs {
            tel.event(rankhow_obs::Event::RootInit);
        }
        self.root_done.store(true, Ordering::Release);
    }

    /// Containment proof for cross-query artifacts: is this job's root
    /// region provably a subset of the cached region
    /// `simplex ∩ [region_lo, region_hi] ∩ constraints` the artifacts
    /// were derived over? Checks (1) per-coordinate containment of the
    /// initial boxes and (2) that every cached constraint row is
    /// dominated over an over-approximation of the new region — the new
    /// box tightened by the single-variable rows of the *new*
    /// constraints, maximized by [`formulation::SimplexBox::min_max`]. Any
    /// failure rejects all facts; only `false` negatives are possible.
    fn region_within_cached(&self, art: &RootArtifacts) -> bool {
        let problem = self.problem.borrow();
        let m = problem.m();
        if art.m != m
            || art.region_lo.len() != m
            || art.region_hi.len() != m
            || art.lo.len() != m
            || art.hi.len() != m
            || art.wit_ok.len() != 2 * m
            || art.wit.len() != 2 * m * m
        {
            return false;
        }
        const TOL: f64 = 1e-12;
        let boxed = self
            .box_lo
            .iter()
            .zip(&art.region_lo)
            .all(|(new, cached)| *new >= *cached - TOL)
            && self
                .box_hi
                .iter()
                .zip(&art.region_hi)
                .all(|(new, cached)| *new <= *cached + TOL);
        if !boxed {
            return false;
        }
        // Implied per-coordinate bounds of the new region: the initial
        // box tightened by the new single-variable constraint rows
        // (c·w_j ≤ rhs). Multi-variable rows are ignored — that only
        // *loosens* the over-approximation, keeping the check sound.
        let mut lo = self.box_lo.clone();
        let mut hi = self.box_hi.clone();
        for (coefs, rhs) in problem.constraints.rows() {
            if let [(j, c)] = coefs {
                if *c > 0.0 {
                    hi[*j] = hi[*j].min(rhs / c);
                } else if *c < 0.0 {
                    lo[*j] = lo[*j].max(rhs / c);
                }
            }
        }
        if lo.iter().zip(&hi).any(|(l, h)| l > h) {
            // Empty implied box: the root feasibility LP will reject the
            // job anyway; claim nothing.
            return false;
        }
        let region = formulation::SimplexBox::new(&lo, &hi);
        let mut dense = vec![0.0; m];
        for (coefs, rhs) in art.constraints.rows() {
            dense.iter_mut().for_each(|d| *d = 0.0);
            if coefs.iter().any(|&(j, _)| j >= m) {
                return false;
            }
            for &(j, c) in coefs {
                dense[j] = c;
            }
            match region.as_ref().map(|r| r.min_max(&dense).1) {
                Some(v) if v <= rhs + 1e-9 => {}
                _ => return false,
            }
        }
        true
    }

    /// Turn proven-sound cached artifacts into this job's root
    /// [`Propagated`] payload: bounds and witnesses carry over verbatim
    /// (the expansion re-gates each witness against the new region —
    /// [`InheritGate::Root`](super::engine)), identity-keyed decided
    /// pairs are translated into this reduction's pair indices (pairs
    /// this reduction folded away are simply dropped), and the
    /// changed-coordinates mask is saturated — many rows may differ
    /// between the regions, so the untouched shortcut must not fire.
    fn translate_artifacts(&self, art: &RootArtifacts) -> Propagated {
        let root = self.root.get().expect("root state initialized");
        let mut decided = DecidedPairs::new(root.sys.pairs.len());
        if !art.decided.is_empty() {
            let index: HashMap<(usize, usize), usize> = root
                .sys
                .pairs
                .iter()
                .enumerate()
                .map(|(idx, p)| ((p.s, p.slot), idx))
                .collect();
            for &(s, slot, side) in &art.decided {
                if let Some(&idx) = index.get(&(s, slot)) {
                    decided.set(idx, side);
                }
            }
        }
        Propagated {
            lo: art.lo.clone(),
            hi: art.hi.clone(),
            wit: art.wit.clone(),
            wit_ok: art.wit_ok.clone(),
            decided,
            changed: u64::MAX,
        }
    }

    /// The root facts this job can hand a cross-query cache: what its
    /// root expansion gave the root's children, re-keyed by pair
    /// identity. `None` until the root node has been expanded (and
    /// forever for jobs pruned or cancelled before that).
    pub fn root_artifacts(&self) -> Option<RootArtifacts> {
        let capture = self.root_capture.get()?;
        let root = self.root.get()?;
        let problem = self.problem.borrow();
        let m = problem.m();
        let (lo, hi, wit, wit_ok, decided) = match capture.prop.as_deref() {
            Some(p) => (
                p.lo.clone(),
                p.hi.clone(),
                p.wit.clone(),
                p.wit_ok.clone(),
                root.sys
                    .pairs
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, pair)| {
                        p.decided.get(idx).map(|side| (pair.s, pair.slot, side))
                    })
                    .collect(),
            ),
            // Propagation off: still worth caching the basis; the box
            // "facts" are just the initial box with no witnesses.
            None => (
                self.box_lo.clone(),
                self.box_hi.clone(),
                vec![0.0; 2 * m * m],
                vec![false; 2 * m],
                Vec::new(),
            ),
        };
        Some(RootArtifacts {
            m,
            constraints: problem.constraints.clone(),
            region_lo: self.box_lo.clone(),
            region_hi: self.box_hi.clone(),
            lo,
            hi,
            wit,
            wit_ok,
            decided,
            basis: capture.basis.clone(),
        })
    }

    pub(super) fn view(&self) -> SearchView<'_> {
        let root = self.root.get().expect("root state initialized");
        SearchView {
            problem: self.problem.borrow(),
            config: &self.config,
            sys: &root.sys,
            slot_bounds: &root.slot_bounds,
            has_position_constraints: root.has_position_constraints,
            box_lo: &self.box_lo,
            box_hi: &self.box_hi,
        }
    }

    fn time_exceeded(&self) -> Option<SolveStatus> {
        if let (Some(limit), Some(solve_start)) = (self.config.time_limit, self.solve_started.get())
        {
            if solve_start.elapsed() >= limit {
                return Some(SolveStatus::TimeLimit);
            }
        }
        let deadline = self.deadline_nanos.load(Ordering::Acquire);
        if deadline != 0
            && u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX) >= deadline
        {
            return Some(SolveStatus::TimeLimit);
        }
        None
    }

    /// Record the terminal outcome (first writer wins) and freeze the
    /// job's elapsed time.
    fn finish(&self, outcome: Result<SolveStatus, SolverError>) {
        if self.outcome.set(outcome).is_ok() {
            rankhow_sync::lock(&self.stats).elapsed = self.start.elapsed();
        }
    }

    /// Merge the worker's slice-local counters into the job totals.
    fn flush(&self, scratch: &mut EngineScratch) {
        let delta = scratch.take_stats();
        rankhow_sync::lock(&self.stats).merge(&delta);
    }
}
