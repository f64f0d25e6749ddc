//! The RankHow exact solver: best-first branch-and-bound over indicator
//! hyperplanes, sequential or multi-threaded.
//!
//! The paper hands Equation (2) to Gurobi and attributes the orders-of-
//! magnitude advantage over the PTIME TREE algorithm to two things
//! (Section III-B): the MILP solver reasons *holistically* about the
//! whole program, and it passes information across branches (bounds,
//! incumbents) instead of solving each arrangement cell in isolation.
//! This engine supplies exactly those ingredients, specialized to OPT's
//! geometry:
//!
//! - **search space**: nodes are partial side-assignments of indicator
//!   hyperplanes, i.e. unions of arrangement cells — the same tree TREE
//!   walks, but explored best-first instead of exhaustively;
//! - **bounding** ([`bounds`]): per node, every undecided indicator is
//!   classified against the node's weight box (Section IV-B interval
//!   argument); each ranked tuple's attainable rank interval yields an
//!   error lower bound; nodes that cannot beat the incumbent are pruned;
//! - **incumbents** ([`incumbent`]): the Chebyshev center of each node's
//!   region is evaluated exactly — a feasible solution whose error prunes
//!   elsewhere, found long before any leaf is reached;
//! - **optimality proof**: the search terminates with a proof when every
//!   node has been expanded or pruned against the incumbent (with
//!   best-first order and one thread, equivalently when the first popped
//!   node cannot beat the incumbent).
//!
//! # Threading model
//!
//! All mutable search state lives in a reentrant per-job struct,
//! [`SolveJob`]: per-lane frontiers with work-stealing handoff
//! ([`frontier::WorkPool`]), a shared atomic incumbent every worker
//! prunes against, and limit/cancellation/deadline flags checked at
//! node granularity. Workers advance a job through [`SolveJob::step`]
//! with their own [`EngineScratch`] (reusable
//! [`SimplexWorkspace`](rankhow_lp::SimplexWorkspace) + classification
//! buffers), so the thousands of node LPs allocate nothing after
//! warm-up — and one scratch serves any sequence of jobs, which is what
//! the `rankhow-serve` scheduler multiplexes many concurrent queries
//! on. [`SolverConfig::threads`] > 1 makes the blocking
//! [`RankHow::solve`] drive one job from that many `std::thread::scope`
//! workers. Pruning against the shared incumbent is sound in any
//! interleaving (bounds are lower bounds regardless of who found the
//! incumbent), so the parallel engine proves the same certified optimum
//! the sequential one does — node and time limits aside, which remain
//! best-effort in both.
//!
//! The engine optimizes Definition 4 directly (true position error under
//! the tie tolerance `ε`); branching uses the `ε1`/`ε2` thresholds so
//! every decided indicator is numerically trustworthy, exactly like the
//! paper's MILP.

mod bounds;
#[allow(clippy::module_inception)]
mod engine;
mod frontier;
mod incumbent;
mod job;

#[cfg(test)]
pub(crate) use bounds::eval_in_system;
pub use engine::EngineScratch;
pub use job::{SolveJob, StepOutcome};

use crate::problem::WeightConstraints;
use crate::OptProblem;
use rankhow_lp::{BasisSnapshot, SolveError};
use std::sync::Arc;
use std::time::Duration;

/// Node exploration order (ablation: `BestFirst` is the "modern solver"
/// behaviour; `DepthFirst` approximates naive backtracking).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SearchOrder {
    /// Pop the node with the smallest error lower bound first.
    #[default]
    BestFirst,
    /// LIFO plunging without global ordering.
    DepthFirst,
}

/// Number of worker threads the engine uses by default: the machine's
/// available parallelism (1 when it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Solver configuration.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Abort after expanding this many nodes (0 = unlimited).
    pub node_limit: usize,
    /// Solve-time limit, charged from the moment a worker first steps
    /// the job (for scheduler jobs, queue wait is *not* counted — a
    /// batch query gets the same budget semantics as a blocking solve;
    /// use a job deadline for an end-to-end latency bound).
    pub time_limit: Option<Duration>,
    /// Restrict the search to a weight box (SYM-GD cells).
    pub initial_box: Option<(Vec<f64>, Vec<f64>)>,
    /// Warm-start incumbent (e.g. an ordinal-regression seed).
    pub warm_start: Option<Vec<f64>>,
    /// Node exploration order.
    pub order: SearchOrder,
    /// Evaluate a Chebyshev-center incumbent at every node (disable for
    /// the ablation bench).
    pub incumbent_sampling: bool,
    /// Random simplex points evaluated at the root as heuristic
    /// incumbents (what commercial MILP solvers call a "start
    /// heuristic"). Deterministic; 0 disables.
    pub root_samples: usize,
    /// Warm-start the node LPs ([`rankhow_lp::IncrementalLp`]): build
    /// each region's tableau once, objective-swap through the `2m`
    /// box-tightening probes, check children by dual-simplex row
    /// addition, and seed child regions from a parent basis snapshot.
    /// `false` is the escape hatch that re-solves every LP from an
    /// empty basis (the pre-warm-start behaviour) — the parity test
    /// suite pins that both modes prove identical optimal errors.
    pub warm_lp: bool,
    /// Propagate decided-pair and box facts from parent to children
    /// ([`frontier`]'s per-node payload, riding the `Node` like the
    /// basis snapshot): a pair classified as decided never pays another
    /// `box_simplex` classification in any descendant, and a tightening
    /// probe whose parent optimizer still satisfies the one new branch
    /// constraint — or whose coordinate no new decision touches — is
    /// skipped outright (`SolverStats::probes_skipped`). Decisions are
    /// monotone down the tree (child region ⊆ parent region), so
    /// propagated facts stay sound across work-stealing and scheduler
    /// time-slicing. `false` is the escape hatch that re-derives every
    /// fact per node (the pre-propagation behaviour); the parity suite
    /// pins that both modes prove identical optimal errors.
    pub propagate: bool,
    /// Root seed from a cross-query solution cache ([`RootSeed`]): prior
    /// solutions of a *containing* instance offered as incumbents, plus
    /// optionally that solve's root artifacts (basis snapshot +
    /// propagated facts). Incumbents are validated exactly like
    /// [`SolverConfig::warm_start`]; artifacts are adopted only after
    /// the engine re-proves the containment they require (see
    /// [`RootArtifacts`]), so an unsound seed degrades to a plain cold
    /// root rather than an unsound search.
    pub root_seed: Option<Arc<RootSeed>>,
    /// Worker threads for the search ([`default_threads`] by default;
    /// values ≤ 1 run the sequential engine).
    ///
    /// Reproducibility: the proved optimal **error** is identical at any
    /// thread count, but with > 1 worker the returned **weight vector**
    /// may differ run-to-run — scheduling decides which error-equal
    /// incumbent is found first. Set `threads: 1` where bit-identical
    /// output matters (the figure/table reproduction binaries do).
    pub threads: usize,
    /// Solve-path telemetry ([`rankhow_obs::SolveTelemetry`]): latency
    /// histograms in the shared registry, per-query flight-recorder
    /// events, and sampled engine-phase profiling. `None` (the default)
    /// records nothing; the hot path then pays one `Option` check per
    /// record site.
    /// Telemetry never influences the search — on/off parity is pinned
    /// by proptest.
    pub telemetry: Option<Arc<rankhow_obs::SolveTelemetry>>,
    /// Deterministic fault schedule for this solve
    /// ([`crate::fault::FaultPlan`]): injected panics, worker deaths,
    /// stalls, forced root-LP verdicts, and cache-seed rejection, each
    /// firing exactly once. Test-only — the field (and every injection
    /// branch) exists only under the `fault-inject` cargo feature.
    #[cfg(feature = "fault-inject")]
    pub faults: Option<Arc<crate::fault::FaultPlan>>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            node_limit: 500_000,
            time_limit: None,
            initial_box: None,
            warm_start: None,
            order: SearchOrder::BestFirst,
            incumbent_sampling: true,
            root_samples: 512,
            warm_lp: true,
            propagate: true,
            root_seed: None,
            threads: default_threads(),
            telemetry: None,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }
}

impl SolverConfig {
    /// The telemetry handle to record against, or `None` when telemetry
    /// is off.
    #[inline]
    pub fn obs(&self) -> Option<&rankhow_obs::SolveTelemetry> {
        self.telemetry.as_deref()
    }
}

/// Search statistics.
#[derive(Clone, Debug, Default)]
pub struct SolverStats {
    /// Nodes expanded (summed across workers).
    pub nodes: usize,
    /// LP solves (feasibility + tightening + centers + warm-mode
    /// region loads).
    pub lp_solves: usize,
    /// Node regions whose LP state was warm-started from a parent basis
    /// snapshot (phase 1 skipped entirely).
    pub lp_warm_starts: usize,
    /// Node regions built from an empty basis (the root, snapshot
    /// install fallbacks, and every region when
    /// [`SolverConfig::warm_lp`] is off).
    pub lp_cold_starts: usize,
    /// Simplex pivots performed across all LP work (the
    /// hardware-independent measure of LP effort warm-starting is
    /// meant to shrink).
    pub lp_pivots: u64,
    /// Probe/child LPs skipped by decided-pair bound propagation
    /// ([`SolverConfig::propagate`]): tightening probes answered by a
    /// still-feasible parent witness or an untouched coordinate, and
    /// child feasibility checks certified by a known interior point.
    /// Each skip is one LP that warm-starting alone would still have
    /// paid for.
    pub probes_skipped: usize,
    /// Coordinates whose *entire* re-tightening (both the min and the
    /// max probe) was skipped at some node — the per-coordinate view of
    /// `probes_skipped`.
    pub coords_skipped: usize,
    /// Incumbent improvements.
    pub incumbents: usize,
    /// Queries answered entirely from a cross-query solution cache —
    /// the stored [`Solution`] was returned without running any search
    /// (router-level counter; an exact-hit solution carries `1` here and
    /// zero nodes/LPs).
    pub cache_exact_hits: usize,
    /// Solves whose root was seeded from a cached near-identical query
    /// ([`SolverConfig::root_seed`]): the cached incumbent(s) were
    /// offered at node 0 and any sound cached artifacts installed.
    pub cache_near_hits: usize,
    /// Cache lookups that found neither an exact nor a near entry
    /// (router-level counter).
    pub cache_misses: usize,
    /// Cache entries evicted by the LRU capacity policy (router-level
    /// counter).
    pub cache_evictions: usize,
    /// Jobs whose step panicked under a worker's `catch_unwind` and were
    /// finalized with [`SolveStatus::Failed`] (scheduler-level counter;
    /// a failed job's own solution carries `1` here).
    pub job_panics: usize,
    /// Worker threads the scheduler's supervisor respawned after a
    /// thread death (scheduler-level counter).
    pub worker_respawns: usize,
    /// Live indicator pairs after root constant-folding.
    pub live_pairs: usize,
    /// Worker threads (blocking solve) or frontier lanes (scheduler
    /// jobs) the search ran with.
    pub threads: usize,
    /// Jobs these stats cover: 1 on a [`Solution`], the number of
    /// completed jobs on a scheduler-level aggregate.
    pub jobs: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl SolverStats {
    /// Fold another stats block into the totals: counters add up,
    /// `threads` and `elapsed` keep their local values (they are
    /// per-solve properties, not summable).
    pub fn merge(&mut self, other: &SolverStats) {
        self.nodes += other.nodes;
        self.lp_solves += other.lp_solves;
        self.lp_warm_starts += other.lp_warm_starts;
        self.lp_cold_starts += other.lp_cold_starts;
        self.lp_pivots += other.lp_pivots;
        self.probes_skipped += other.probes_skipped;
        self.coords_skipped += other.coords_skipped;
        self.incumbents += other.incumbents;
        self.cache_exact_hits += other.cache_exact_hits;
        self.cache_near_hits += other.cache_near_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.job_panics += other.job_panics;
        self.worker_respawns += other.worker_respawns;
        self.live_pairs += other.live_pairs;
        self.jobs += other.jobs;
    }

    /// Serialize as a JSON object (the `solver` section of
    /// `--stats-json`; schema documented in README § Observability).
    pub fn to_json(&self) -> String {
        let mut obj = rankhow_obs::json::Obj::new();
        obj.field_u64("nodes", self.nodes as u64);
        obj.field_u64("lp_solves", self.lp_solves as u64);
        obj.field_u64("lp_warm_starts", self.lp_warm_starts as u64);
        obj.field_u64("lp_cold_starts", self.lp_cold_starts as u64);
        obj.field_u64("lp_pivots", self.lp_pivots);
        obj.field_u64("probes_skipped", self.probes_skipped as u64);
        obj.field_u64("coords_skipped", self.coords_skipped as u64);
        obj.field_u64("incumbents", self.incumbents as u64);
        obj.field_u64("cache_exact_hits", self.cache_exact_hits as u64);
        obj.field_u64("cache_near_hits", self.cache_near_hits as u64);
        obj.field_u64("cache_misses", self.cache_misses as u64);
        obj.field_u64("cache_evictions", self.cache_evictions as u64);
        obj.field_u64("job_panics", self.job_panics as u64);
        obj.field_u64("worker_respawns", self.worker_respawns as u64);
        obj.field_u64("live_pairs", self.live_pairs as u64);
        obj.field_u64("threads", self.threads as u64);
        obj.field_u64("jobs", self.jobs as u64);
        obj.field_f64("elapsed_s", self.elapsed.as_secs_f64());
        obj.finish()
    }
}

/// What a cross-query cache hands a near-hit solve to start from
/// ([`SolverConfig::root_seed`]). Everything here is *advisory*: the
/// engine re-validates each piece against the new instance before use,
/// so a stale or mismatched seed can cost nothing worse than a cold
/// root.
#[derive(Clone, Debug)]
pub struct RootSeed {
    /// Candidate warm incumbents — typically the cached solution's
    /// `weights` and `certified_weights`. Each is accepted only if it
    /// has the right dimension, satisfies the new instance's weight
    /// constraints, and lies in the new root box (the same gate as
    /// [`SolverConfig::warm_start`]).
    pub incumbents: Vec<Vec<f64>>,
    /// Root artifacts of the cached solve, reusable only when the new
    /// root region is provably contained in the cached one.
    pub artifacts: Option<Arc<RootArtifacts>>,
}

/// Facts captured at one solve's root expansion, packaged for reuse by a
/// later solve of a *near-identical* instance (same data, given ranking,
/// tolerances, objective, and position windows; different weight
/// constraints or initial box).
///
/// Soundness contract: the tightened box, probe witnesses, and decided
/// pairs all hold over the cached root region `R_cached` (simplex ∩
/// `region_lo..region_hi` ∩ `constraints`). A new solve may install them
/// only after proving its own root region is a subset of `R_cached` —
/// the engine checks per-coordinate box containment plus that every
/// cached constraint row is dominated over (an over-approximation of)
/// the new region. Witness rows are additionally re-gated at expansion
/// time against the *new* region (box + constraints), and the
/// changed-coordinates mask is force-saturated, disabling the untouched
/// shortcut — many rows may differ between the regions, not one.
#[derive(Clone, Debug)]
pub struct RootArtifacts {
    /// Weight dimension of the cached instance.
    pub m: usize,
    /// The cached instance's weight constraints (defining `R_cached`
    /// together with `region_lo`/`region_hi`).
    pub constraints: WeightConstraints,
    /// The cached solve's initial weight box.
    pub region_lo: Vec<f64>,
    /// See [`RootArtifacts::region_lo`].
    pub region_hi: Vec<f64>,
    /// Root-tightened box (superset of `R_cached`).
    pub lo: Vec<f64>,
    /// See [`RootArtifacts::lo`].
    pub hi: Vec<f64>,
    /// Flat `2m × m` probe optimizers, as in the engine's propagated
    /// facts: rows `0..m` are min-probe argmins, rows `m..2m` max-probe
    /// argmaxes.
    pub wit: Vec<f64>,
    /// Validity flags for the `2m` witness rows.
    pub wit_ok: Vec<bool>,
    /// Pairs the cached root classification decided, stored by identity
    /// `(tuple, slot, side)` rather than reduced-system index — pair
    /// indices are a property of one reduction, identities are not.
    pub decided: Vec<(usize, usize, bool)>,
    /// The cached root expansion's optimal LP basis. Always sound to
    /// offer: [`rankhow_lp::IncrementalLp::load`] installs it onto the
    /// *new* region's tableau and restores feasibility by dual simplex
    /// (the push-row delta machinery), falling back to a cold phase 1 on
    /// any mismatch.
    pub basis: Option<Arc<BasisSnapshot>>,
}

/// How a job (or blocking solve) terminated. Everything except
/// [`SolveStatus::Optimal`] means the returned solution is the
/// best-so-far incumbent of a truncated search ("bounded"), not a
/// proved optimum.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveStatus {
    /// Optimality proved: an error-0 incumbent was found, or the search
    /// tree was exhausted (every node expanded or soundly pruned).
    Optimal,
    /// Stopped by [`SolverConfig::node_limit`].
    NodeLimit,
    /// Stopped by [`SolverConfig::time_limit`] or a job deadline.
    TimeLimit,
    /// Cooperatively cancelled (scheduler jobs only).
    Cancelled,
    /// Shed by admission control before any work was done (router-level
    /// load shedding: the target run queue was at capacity). A rejected
    /// solution carries *no* incumbent — see [`Solution::rejected`] —
    /// and the query can simply be resubmitted.
    Rejected,
    /// The job's step panicked; a worker caught the unwind and finalized
    /// the job with whatever incumbent the search had found so far
    /// (possibly none — `error` may still be the `u64::MAX` sentinel).
    /// Sibling jobs are untouched and joiners are woken normally; the
    /// router's retry layer (`rankhow_router::RetryPolicy`) may
    /// transparently re-admit the query before a joiner ever sees this
    /// status.
    Failed,
}

impl SolveStatus {
    /// Whether the solution is a budget-truncated best-so-far rather
    /// than a proved optimum.
    pub fn is_bounded(self) -> bool {
        self != SolveStatus::Optimal
    }
}

/// A solved OPT instance.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The synthesized weight vector (on the simplex, constraints
    /// satisfied).
    pub weights: Vec<f64>,
    /// Its objective value — Definition 3 position error for the default
    /// [`ErrorMeasure::Position`](rankhow_ranking::ErrorMeasure), the
    /// configured measure otherwise.
    pub error: u64,
    /// Whether optimality was proved (false when a node or time limit
    /// was hit).
    ///
    /// The proof covers the ε1/ε2-**certified** weight space — the same
    /// space the paper's Equation (2) MILP searches. Weight vectors with
    /// a pair score difference strictly inside the `(ε2, ε1)` safety gap
    /// are excluded from the proof, mirroring the false-negative caveat
    /// of Section V-A (choosing τ̂ too large "eliminates the range …
    /// from the solution space"). The *incumbent* itself may come from
    /// that band (sampling evaluates true Definition 2 error), so the
    /// reported solution can be strictly better than the certified
    /// optimum; see [`crate::verify::gap_band_pairs`].
    pub optimal: bool,
    /// How the search terminated — distinguishes a proved optimum from
    /// the specific budget (node limit, time limit/deadline,
    /// cancellation) that truncated it. `optimal` is equivalent to
    /// `status == SolveStatus::Optimal`.
    pub status: SolveStatus,
    /// Whether `weights` itself lies in the certified space — no pair
    /// score difference strictly inside the `(ε2, ε1)` gap band
    /// ([`crate::verify::relies_on_gap_band`]). When `true` and `optimal`
    /// is set, `error` *is* the certified optimum; when `false`, the
    /// sampled incumbent beat every certified point the proof covers.
    pub certified: bool,
    /// Error of the best **certified** incumbent the search sampled
    /// (`u64::MAX` when every sampled point relied on the gap band).
    /// Always ≥ `error`; together they bracket the certified-space
    /// optimum of a proved solve: `error ≤ certified optimum ≤
    /// certified_error`. Two exhaustive searches of the same instance
    /// may report different `error`s (band incumbents are
    /// interleaving-dependent) but each one's `error` is a lower bound
    /// on the *other*'s `certified_error` — the cross-check the serve
    /// suite pins instead of exact equality.
    pub certified_error: u64,
    /// The certified incumbent realizing `certified_error` (empty when
    /// none was found).
    pub certified_weights: Vec<f64>,
    /// Search statistics.
    pub stats: SolverStats,
}

impl Solution {
    /// The solution of a query shed by admission control
    /// ([`SolveStatus::Rejected`]): no search ever ran, so there is no
    /// incumbent. `weights` is empty and `error` is the `u64::MAX`
    /// "no incumbent" sentinel (the same value the engine uses
    /// internally before the first feasible point) — check
    /// [`Solution::status`] before interpreting either field.
    pub fn rejected() -> Solution {
        Solution {
            weights: Vec::new(),
            error: u64::MAX,
            optimal: false,
            status: SolveStatus::Rejected,
            certified: false,
            certified_error: u64::MAX,
            certified_weights: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// The solution of a job whose step panicked and found no incumbent
    /// first ([`SolveStatus::Failed`]): like [`Solution::rejected`],
    /// `weights` is empty and `error` is the `u64::MAX` sentinel. A
    /// failed job that *had* an incumbent keeps it instead — this
    /// constructor is only for the empty case (panic before the first
    /// feasible point, or a pool with no live workers left).
    pub fn failed() -> Solution {
        let mut sol = Solution::rejected();
        sol.status = SolveStatus::Failed;
        sol.stats.jobs = 1;
        sol
    }
}

/// Solver failures.
#[derive(Clone, Debug)]
pub enum SolverError {
    /// The weight predicate (plus box) admits no weight vector.
    Infeasible,
    /// The underlying LP solver failed numerically.
    Lp(SolveError),
    /// The solver does not encode position-window constraints (only the
    /// specialized [`RankHow`] branch-and-bound does).
    PositionsUnsupported,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Infeasible => write!(f, "weight constraints are infeasible"),
            SolverError::Lp(e) => write!(f, "lp failure: {e}"),
            SolverError::PositionsUnsupported => {
                write!(f, "position constraints are not supported by this solver")
            }
        }
    }
}

impl std::error::Error for SolverError {}

impl From<SolveError> for SolverError {
    fn from(e: SolveError) -> Self {
        SolverError::Lp(e)
    }
}

/// The RankHow exact solver.
#[derive(Clone, Debug, Default)]
pub struct RankHow {
    config: SolverConfig,
}

impl RankHow {
    /// Solver with default configuration.
    pub fn new() -> Self {
        RankHow::default()
    }

    /// Solver with explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        RankHow { config }
    }

    /// Solve OPT exactly (or to the configured limits).
    pub fn solve(&self, problem: &OptProblem) -> Result<Solution, SolverError> {
        engine::solve(problem, &self.config)
    }
}

#[cfg(test)]
mod tests;
