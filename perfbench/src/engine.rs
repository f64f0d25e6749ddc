//! The traced exact-solve driver: one `SolveJob` on one lane, stepped
//! exactly like the blocking `RankHow::solve` at `threads: 1`, but with
//! the root step and the search steps timed apart from the outside.
//!
//! The first `step` gets a zero node budget. The engine clamps a budget
//! to at least one pop, so that step is the root setup (reduction, root
//! heuristics, root LPs) plus the root node's expansion. Every later
//! step pops up to [`SLICE`] nodes, the blocking solver's slice. One
//! lane steps sequentially and slice boundaries only flush counters, so
//! the search — node order, node count, answer — is the blocking
//! solver's.
//!
//! Each job carries the caller's telemetry handle (phase sampling at
//! every opportunity); the program's existing LP, tightening and
//! child-feasibility histogram totals are read before and after each
//! step, which splits them between the root step and the search steps.

use crate::trace::Tracer;
use rankhow_core::{
    EngineScratch, OptProblem, Solution, SolveJob, SolverConfig, SolverError, StepOutcome,
};
use rankhow_obs::{MetricsRegistry, SolveTelemetry};
use std::sync::Arc;
use std::time::Instant;

/// Nodes per search step (the blocking solver's slice).
const SLICE: usize = 1024;

/// Engine work summed over the traced solves of a pass.
#[derive(Default, Debug, Clone)]
pub struct EngineAcc {
    pub solves: u64,
    pub root_ns: u64,
    pub search_ns: u64,
    pub nodes: u64,
    pub lp_solves: u64,
    pub lp_warm: u64,
    pub lp_cold: u64,
    pub lp_pivots: u64,
    pub probes_skipped: u64,
    pub incumbents: u64,
    /// LP time inside the search steps (the `lp_solve` histogram).
    pub lp_search_ns: u64,
    /// Tightening phases A and C inside the search steps.
    pub tighten_ns: u64,
    /// Child feasibility inside the search steps (a subset of LP time).
    pub child_feas_ns: u64,
}

/// Histogram totals the search attribution needs.
fn totals(reg: &MetricsRegistry) -> [u64; 3] {
    [
        reg.lp_solve.snapshot().total,
        reg.tighten_a.snapshot().total + reg.tighten_c.snapshot().total,
        reg.child_feas.snapshot().total,
    ]
}

/// A telemetry handle for traced solves: a fresh registry, phase
/// sampling at every opportunity.
pub fn telemetry() -> Arc<SolveTelemetry> {
    Arc::new(SolveTelemetry::new(Arc::new(MetricsRegistry::new())).with_phase_sample(1))
}

/// Solve `problem` on one lane under `telemetry`, recording
/// `engine.root` (job creation and the root step) and `engine.search`
/// (the remaining steps, the result and the teardown) spans under
/// `parent` for query `query`.
pub fn solve(
    problem: &OptProblem,
    mut config: SolverConfig,
    telemetry: &Arc<SolveTelemetry>,
    tracer: &mut Tracer,
    query: u32,
    parent: Option<usize>,
    acc: &mut EngineAcc,
) -> Result<Solution, SolverError> {
    let registry = &telemetry.metrics;
    config.telemetry = Some(Arc::clone(telemetry));
    let t0 = Instant::now();
    let job = SolveJob::new(problem, config, 1);
    let mut scratch = EngineScratch::new();
    let mut outcome = job.step(0, &mut scratch, 0);
    let t1 = Instant::now();
    let at_root = totals(registry);
    while outcome != StepOutcome::Done {
        outcome = job.step(0, &mut scratch, SLICE);
    }
    let result = job.result();
    // Tearing the search down (frontier, bases, workspaces) is engine
    // work the blocking solver pays inside its call too.
    drop(job);
    drop(scratch);
    let t2 = Instant::now();
    let at_end = totals(registry);
    tracer.span("engine.root", query, parent, t0, t1);
    tracer.span("engine.search", query, parent, t1, t2);
    acc.solves += 1;
    acc.root_ns += (t1 - t0).as_nanos() as u64;
    acc.search_ns += (t2 - t1).as_nanos() as u64;
    acc.lp_search_ns += at_end[0] - at_root[0];
    acc.tighten_ns += at_end[1] - at_root[1];
    acc.child_feas_ns += at_end[2] - at_root[2];
    if let Ok(sol) = &result {
        let s = &sol.stats;
        acc.nodes += s.nodes as u64;
        acc.lp_solves += s.lp_solves as u64;
        acc.lp_warm += s.lp_warm_starts as u64;
        acc.lp_cold += s.lp_cold_starts as u64;
        acc.lp_pivots += s.lp_pivots;
        acc.probes_skipped += s.probes_skipped as u64;
        acc.incumbents += s.incumbents as u64;
    }
    result
}
