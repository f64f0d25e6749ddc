//! `symgd-large`: one closed-loop client running SYM-GD chains on large
//! synthetic relations (the paper's Fig. 3j–l setup): an ordinal
//! regression seed, then fixed-size cells of 0.01 solved exactly under a
//! node cap, with no time limits.
//!
//! A round runs one chain per [`catalog::SYMGD`] instance in a seeded
//! order; the pass runs whole rounds until `--seconds` have passed.
//!
//! Unlike the exact workloads, the instances are not relabelled by the
//! seed: SYM-GD is a local search whose path follows floating-point
//! summation order, and relabelling moved a round's final error between
//! 160 and 182 and its median chain time between 0.64 and 0.91 s across
//! five seeds — more than any change this workload should detect. The
//! seed orders the chains of every round.
//!
//! The traced pass submits the cells through [`TracedCells`], a
//! `CellScheduler` that solves each cell on the traced engine driver
//! ([`crate::engine::solve`]): one lane, stepped like the blocking
//! solver at one thread, so `SymGd::solve_on` with it is step-for-step
//! `SymGd::solve` — the traced run checks that both give the same
//! weights on every instance.

use crate::catalog::{self, Relabel, SYMGD};
use crate::check::Checker;
use crate::engine::{self, EngineAcc};
use crate::pass::Pass;
use crate::rng::Rng;
use crate::trace::Tracer;
use rankhow_core::{
    seeding, CellScheduler, OptProblem, Solution, SolverConfig, SolverError, SymGd, SymGdConfig,
    SymGdResult,
};
use rankhow_obs::SolveTelemetry;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency limit of `within_limit_share`: above every chain (the
/// slowest takes ~1.2 s), so the share counts failed answers and chains
/// that slowed down by about 2×.
pub const LIMIT: Duration = Duration::from_secs(2);

/// Node cap per cell solve.
const CELL_NODE_LIMIT: usize = 200;

/// The run's instances.
pub struct Inputs {
    problems: Vec<Arc<OptProblem>>,
    seed: u64,
}

/// Generate the catalog and build its instances.
pub fn setup(seed: u64) -> (Inputs, Duration, Duration) {
    let t = Instant::now();
    let generated: Vec<_> = SYMGD.iter().map(catalog::generate).collect();
    let generate = t.elapsed();
    let t = Instant::now();
    let problems = SYMGD
        .iter()
        .zip(&generated)
        .map(|(spec, g)| Arc::new(Relabel::identity(spec.n, spec.m).apply(g)))
        .collect();
    (Inputs { problems, seed }, generate, t.elapsed())
}

fn symgd() -> SymGd {
    SymGd::with_config(SymGdConfig {
        cell_size: 0.01,
        adaptive: false,
        total_time: None,
        cell_node_limit: CELL_NODE_LIMIT,
        cell_time_limit: None,
        threads: 1,
        ..SymGdConfig::default()
    })
}

/// A `CellScheduler` that solves every cell on the traced engine driver,
/// under a `symgd.cell` span.
struct TracedCells<'a> {
    telemetry: Arc<SolveTelemetry>,
    tracer: RefCell<&'a mut Tracer>,
    acc: RefCell<&'a mut EngineAcc>,
    query: u32,
    parent: usize,
    cell_ns: RefCell<u64>,
}

impl CellScheduler for TracedCells<'_> {
    fn solve_cell(
        &self,
        problem: &Arc<OptProblem>,
        config: SolverConfig,
    ) -> Result<Solution, SolverError> {
        let mut tracer = self.tracer.borrow_mut();
        let span = tracer.open("symgd.cell", self.query, Some(self.parent));
        let t0 = Instant::now();
        let result = engine::solve(
            problem,
            config,
            &self.telemetry,
            &mut tracer,
            self.query,
            Some(span),
            &mut self.acc.borrow_mut(),
        );
        let t1 = Instant::now();
        tracer.close(span, t0, t1);
        *self.cell_ns.borrow_mut() += (t1 - t0).as_nanos() as u64;
        result
    }
}

/// One pass; traced when `tracer` is given. `reference` holds the first
/// answer per instance, which every later chain — a traced pass's too —
/// must reproduce. `verify_one` verifies the first instance's answer
/// exactly (once per process).
pub fn run(
    inputs: &Inputs,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    checker: &mut Checker,
    reference: &mut BTreeMap<usize, (u64, Vec<f64>)>,
    verify_one: bool,
) -> Pass {
    let mut pass = Pass::default();
    let mut answers: Vec<(usize, Vec<f64>, Result<SymGdResult, SolverError>)> = Vec::new();
    let mut order_rng = Rng::new(inputs.seed, 2);
    let telemetry = engine::telemetry();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for i in order_rng.permutation(inputs.problems.len()) {
            let query = answers.len() as u32;
            let problem = &inputs.problems[i];
            let t0 = Instant::now();
            let seed = seeding::ordinal_seed(problem);
            let t1 = Instant::now();
            let result = match tracer.as_deref_mut() {
                Some(tr) => {
                    tr.span("seeding.ordinal", query, None, t0, t1);
                    let chain = tr.open("symgd.solve_on", query, None);
                    let cells = TracedCells {
                        telemetry: Arc::clone(&telemetry),
                        tracer: RefCell::new(tr),
                        acc: RefCell::new(&mut pass.layers.engine),
                        query,
                        parent: chain,
                        cell_ns: RefCell::new(0),
                    };
                    let result = symgd().solve_on(&cells, problem, &seed);
                    let t2 = Instant::now();
                    let cell_ns = cells.cell_ns.into_inner();
                    let tr = cells.tracer.into_inner();
                    tr.close(chain, t1, t2);
                    pass.layers.cell_ns += cell_ns;
                    pass.layers.recenter_ns += (t2 - t1).as_nanos() as u64 - cell_ns;
                    pass.layers.seeding_ns += (t1 - t0).as_nanos() as u64;
                    result
                }
                None => symgd().solve(problem, &seed),
            };
            let latency = t0.elapsed().as_nanos() as u64;
            if let Some(tr) = tracer.as_deref_mut() {
                tr.latency(query, latency);
            }
            pass.latencies_ns.push(latency);
            pass.instances.push(i);
            answers.push((i, seed, result));
        }
    }
    pass.wall_ns = start.elapsed().as_nanos() as u64;

    let mut distinct: BTreeMap<usize, u64> = BTreeMap::new();
    for ((i, seed, result), &latency) in answers.iter().zip(&pass.latencies_ns) {
        pass.attempted += 1;
        let name = SYMGD[*i].name;
        let problem = &inputs.problems[*i];
        let ok = match result {
            Ok(res) => {
                pass.layers.chains += 1;
                pass.layers.iterations += res.iterations as u64;
                pass.layers.cell_growths += res.cell_growths as u64;
                let exact = verify_one && *i == 0;
                let mut ok =
                    checker.weights(name, *i as u64, problem, &res.weights, res.error, exact);
                let seed_error = problem.evaluate_constrained(seed).unwrap_or(u64::MAX);
                if ok && res.error > seed_error {
                    checker.fail(format!(
                        "{name}: error {} worse than its seed's {seed_error}",
                        res.error
                    ));
                    ok = false;
                }
                // Chains are deterministic: every repeat (and the traced
                // pass) must reproduce the instance's first answer.
                let first = reference
                    .entry(*i)
                    .or_insert_with(|| (res.error, res.weights.clone()));
                if ok && (first.0 != res.error || first.1 != res.weights) {
                    checker.fail(format!("{name}: answer differs from an earlier chain"));
                    ok = false;
                }
                ok
            }
            Err(e) => {
                checker.fail(format!("{name}: {e}"));
                false
            }
        };
        if !ok {
            pass.failed += 1;
            continue;
        }
        if latency <= LIMIT.as_nanos() as u64 {
            pass.within_limit += 1;
        }
        if let Ok(res) = result {
            distinct.entry(*i).or_insert(res.error);
        }
    }
    pass.layers.cells = pass.layers.engine.solves;
    pass.position_error = distinct.values().sum();
    pass
}
