//! `opt-exact`: one closed-loop client solving distinct OPT instances to
//! proved optimality with the blocking exact solver at one thread.
//!
//! A round solves every [`catalog::EXACT`] instance once, in a seeded
//! order; the pass runs whole rounds until `--seconds` have passed, so
//! every run answers the same multiset of queries.

use crate::catalog::{self, Relabel, EXACT};
use crate::check::Checker;
use crate::engine;
use crate::optima;
use crate::pass::Pass;
use crate::probe::Probe;
use crate::rng::Rng;
use crate::trace::Tracer;
use rankhow_core::{OptProblem, RankHow, Solution, SolverConfig, SolverError};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Latency limit of `within_limit_share`: above every catalog solve
/// (the slowest takes ~1.1 s), because the gaps between solve times are
/// narrower than the machine's run-to-run noise (a 350 ms limit moved the
/// share by 3% between runs). The share then counts failed answers and
/// solves that slowed down by about 2×.
pub const LIMIT: Duration = Duration::from_secs(2);

/// The run's relabelled instances.
pub struct Inputs {
    problems: Vec<OptProblem>,
    seed: u64,
}

/// Generate the catalog and build the seed's relabelled instances;
/// returns the inputs and the generation / construction times.
pub fn setup(seed: u64) -> (Inputs, Duration, Duration) {
    let t = Instant::now();
    let generated: Vec<_> = EXACT.iter().map(catalog::generate).collect();
    let generate = t.elapsed();
    let t = Instant::now();
    let mut rng = Rng::new(seed, 1);
    let problems = EXACT
        .iter()
        .zip(&generated)
        .map(|(spec, g)| Relabel::draw(&mut rng, spec.n, spec.m).apply(g))
        .collect();
    (Inputs { problems, seed }, generate, t.elapsed())
}

/// The blocking solver's configuration: one thread, no limits.
fn config() -> SolverConfig {
    SolverConfig {
        threads: 1,
        node_limit: 0,
        time_limit: None,
        ..SolverConfig::default()
    }
}

/// One pass; traced when `tracer` is given.
pub fn run(
    inputs: &Inputs,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    checker: &mut Checker,
) -> Pass {
    let mut pass = Pass::default();
    let mut answers: Vec<(usize, Result<Solution, SolverError>)> = Vec::new();
    let mut order_rng = Rng::new(inputs.seed, 2);
    let telemetry = engine::telemetry();
    // Built once: `SolverConfig::default()` probes the machine's
    // parallelism (cgroup files), which would add benchmark overhead to
    // every query's latency.
    let config = config();
    let mut probe = Probe::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        for i in order_rng.permutation(inputs.problems.len()) {
            let query = answers.len() as u32;
            let problem = &inputs.problems[i];
            probe.sample();
            let t0 = Instant::now();
            let result = match tracer.as_deref_mut() {
                Some(tr) => engine::solve(
                    problem,
                    config.clone(),
                    &telemetry,
                    tr,
                    query,
                    None,
                    &mut pass.layers.engine,
                ),
                None => RankHow::with_config(config.clone()).solve(problem),
            };
            let latency = t0.elapsed().as_nanos() as u64;
            if let Some(tr) = tracer.as_deref_mut() {
                tr.latency(query, latency);
            }
            pass.latencies_ns.push(latency);
            pass.instances.push(i);
            answers.push((i, result));
        }
    }
    pass.wall_ns = start.elapsed().as_nanos() as u64;
    pass.probe_ns = probe.samples_ns();

    let mut distinct: BTreeMap<usize, u64> = BTreeMap::new();
    for ((i, result), &latency) in answers.iter().zip(&pass.latencies_ns) {
        pass.attempted += 1;
        let spec = &EXACT[*i];
        let ok = match result {
            Ok(sol) => checker.answer(
                spec.name,
                *i as u64,
                &inputs.problems[*i],
                sol,
                optima::exact(spec.name),
            ),
            Err(e) => {
                checker.fail(format!("{}: {e}", spec.name));
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
        if let Ok(sol) = result {
            distinct.entry(*i).or_insert(sol.error);
        }
    }
    pass.position_error = distinct.values().sum();
    pass
}
