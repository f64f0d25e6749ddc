//! `explore-open`: open-loop constraint exploration through the router.
//!
//! One generator thread offers queries at Poisson arrival times of one
//! fixed rate into a `Router` of 2 pools × 1 worker with its solution
//! cache on. Each query is a (base instance, weight-constraint variant)
//! key drawn from a Zipf distribution over the catalog, so the stream
//! mixes exact repeats (cache reads), new variants of a cached base (near
//! hits: root seed plus containment re-proof) and new bases (misses,
//! which become cache writes).
//!
//! The stream opens with [`WARMUP_S`] seconds of arrivals that are
//! answered and checked but not measured: the cache starts empty, so the
//! first seconds meet every key of the popularity window at once and
//! queue seconds of solves behind each other — a cold start that a
//! serving process pays once, not the steady state this workload times.
//!
//! The generator sleeps between sends and, while it waits, polls the
//! in-flight handles: a completion is stamped when the poll sees it,
//! never by joining in submit order. Latency runs from a query's *due*
//! time, so generator lateness counts against it.

use crate::catalog::{self, Relabel, EXPLORE_BASES, VARIANTS};
use crate::check::Checker;
use crate::optima;
use crate::pass::Pass;
use crate::rng::Rng;
use crate::trace::Tracer;
use rankhow_core::{OptProblem, Solution, SolverConfig, SolverError, Tolerances};
use rankhow_data::{rankfns, synthetic};
use rankhow_obs::{MetricsRegistry, SolveTelemetry};
use rankhow_router::{Router, RouterConfig, RouterStats};
use rankhow_serve::SolveHandle;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate, queries per second: a third to a half of the capacity
/// measured for this mix on 2 pools × 1 worker on a shared 2-core
/// machine, whose speed drifts (see README).
pub const RATE_QPS: f64 = 20.0;
/// Zipf exponent of base and variant popularity.
const ZIPF_S: f64 = 1.0;
/// Bases in the popularity window at any time.
const WINDOW: usize = 16;
/// Arrivals between two moves of the window (one fresh base each). At
/// 16 a 28 s run's 720 arrivals visit 60 of the 64 bases and about a quarter
/// of the measured queries reach a pool; at 48 a run's solves came from a
/// dozen bases, and its tail moved with the seed's draw of them.
const ARRIVALS_PER_BASE: usize = 16;
/// Latency limit of `within_limit_share`: an interactive bound that
/// every hit and most solves meet.
pub const LIMIT: Duration = Duration::from_millis(250);
/// Seconds of unmeasured arrivals before the measured stream; the
/// cold-start backlog (up to 3 s of queued solves) drained within 4 s on
/// the seeds tried.
pub const WARMUP_S: f64 = 8.0;
/// Generator poll period while it waits for the next due time.
const POLL: Duration = Duration::from_micros(500);

/// The run's keys, arrival stream and router.
pub struct Inputs {
    /// Key `i` is base `i % EXPLORE_BASES` under variant
    /// `i / EXPLORE_BASES`.
    keys: Vec<Arc<OptProblem>>,
    /// `(due offset, key)` in due order, warm-up arrivals first.
    stream: Vec<(Duration, usize)>,
    seconds: f64,
    router: Router,
    baseline: RouterStats,
}

fn base_of(key: usize) -> usize {
    key % EXPLORE_BASES
}

fn variant_of(key: usize) -> usize {
    key / EXPLORE_BASES
}

/// Draw a Zipf(`ZIPF_S`) rank in `0..n`.
fn zipf(rng: &mut Rng, n: usize) -> usize {
    let weights = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF_S));
    let mut u = rng.unit() * weights.clone().sum::<f64>();
    weights
        .enumerate()
        .find(|&(_, w)| {
            u -= w;
            u < 0.0
        })
        .map_or(n - 1, |(i, _)| i)
}

/// The arrival stream over [`WARMUP_S`] + `seconds`: a Poisson process
/// of rate [`RATE_QPS`] conditioned on its expected count (that many arrival
/// times drawn uniformly and sorted). Arrival `j` draws its base from a
/// sliding window of [`WINDOW`] bases that moves up by one every
/// [`ARRIVALS_PER_BASE`] arrivals — a base enters as the least popular
/// and gains popularity as it ages (the oldest has Zipf rank 0) — and
/// its constraint variant by Zipf rank, so fresh bases, new variants and
/// repeats keep arriving at steady shares.
fn stream(seed: u64, seconds: f64) -> Vec<(Duration, usize)> {
    let mut rng = Rng::new(seed, 3);
    let span = WARMUP_S + seconds;
    let count = (RATE_QPS * span).round() as usize;
    let mut due: Vec<f64> = (0..count).map(|_| rng.unit() * span).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .enumerate()
        .map(|(j, t)| {
            let oldest = j / ARRIVALS_PER_BASE;
            let base = (oldest + zipf(&mut rng, WINDOW)) % EXPLORE_BASES;
            let variant = zipf(&mut rng, VARIANTS.len());
            (Duration::from_secs_f64(t), variant * EXPLORE_BASES + base)
        })
        .collect()
}

/// Start the router and let one tiny solve run on every pool, so worker
/// threads are up before the first query is due.
fn start_router() -> (Router, RouterStats) {
    let router = Router::new(RouterConfig {
        pools: 2,
        threads_per_pool: 1,
        cache: true,
        ..RouterConfig::default()
    });
    let mut warmed = vec![false; router.pools()];
    let mut gen_seed = 0;
    while warmed.contains(&false) {
        gen_seed += 1;
        let data = synthetic::generate(synthetic::Distribution::Uniform, 8, 2, gen_seed);
        let given = rankfns::sum_pow_ranking(&data, 3, 2);
        let tiny = OptProblem::with_tolerances(data, given, Tolerances::paper_synthetic())
            .expect("valid warm-up instance");
        let pool = router.place(&tiny);
        if !warmed[pool] {
            warmed[pool] = true;
            let _ = router.spawn(tiny, solver_config(None)).join();
        }
    }
    let baseline = router.stats();
    (router, baseline)
}

fn solver_config(telemetry: Option<Arc<SolveTelemetry>>) -> SolverConfig {
    SolverConfig {
        threads: 1,
        node_limit: 0,
        time_limit: None,
        telemetry,
        ..SolverConfig::default()
    }
}

/// Generate the bases, build every key for the seed's relabelling, draw
/// the arrival stream and start the router.
pub fn setup(seed: u64, seconds: f64) -> (Inputs, Duration, Duration) {
    let specs: Vec<_> = (0..EXPLORE_BASES).map(catalog::explore_base).collect();
    let t = Instant::now();
    let generated: Vec<_> = specs.iter().map(catalog::generate).collect();
    let generate = t.elapsed();
    let t = Instant::now();
    let mut rng = Rng::new(seed, 1);
    let bases: Vec<(Relabel, OptProblem)> = specs
        .iter()
        .zip(&generated)
        .map(|(spec, g)| {
            let relabel = Relabel::draw(&mut rng, spec.n, spec.m);
            let problem = relabel.apply(g);
            (relabel, problem)
        })
        .collect();
    let keys = (0..EXPLORE_BASES * VARIANTS.len())
        .map(|key| {
            let (relabel, base) = &bases[base_of(key)];
            let constraints = catalog::constraints(VARIANTS[variant_of(key)], relabel);
            Arc::new(
                base.clone()
                    .with_constraints(constraints)
                    .expect("variant attributes are in range"),
            )
        })
        .collect::<Vec<_>>();
    let stream = stream(seed, seconds);
    let (router, baseline) = start_router();
    let build = t.elapsed();
    (
        Inputs {
            keys,
            stream,
            seconds,
            router,
            baseline,
        },
        generate,
        build,
    )
}

/// A finished query: id, key, latency from its due time, whether it is
/// measured (due after the warm-up), answer.
type Done = (u32, usize, u64, bool, Result<Solution, SolverError>);

/// Completion bookkeeping of one pass.
struct Book {
    /// Per key: 0 never sent, 1 first copy in flight, 2 first copy done.
    key_state: Vec<u8>,
    first_of_key: Vec<Option<u32>>,
    done: Vec<Done>,
    /// When the last measured query was answered.
    last_done: Instant,
    /// Due time of the first measured query.
    measured_from: Instant,
}

impl Book {
    /// Stamp `f` as answered at `at`.
    fn complete(&mut self, f: InFlight, at: Instant, tracer: Option<&mut Tracer>) {
        let latency = (at - f.due).as_nanos() as u64;
        if let Some(tr) = tracer {
            if at > f.returned {
                tr.span("serve.pool", f.query, None, f.returned, at);
            }
            tr.latency(f.query, latency);
        }
        if self.first_of_key[f.key] == Some(f.query) {
            self.key_state[f.key] = 2;
        }
        let measured = f.due >= self.measured_from;
        if measured {
            self.last_done = self.last_done.max(at);
        }
        self.done
            .push((f.query, f.key, latency, measured, f.handle.join()));
    }
}

/// One in-flight query.
struct InFlight {
    query: u32,
    key: usize,
    due: Instant,
    returned: Instant,
    handle: SolveHandle,
}

/// One pass; traced when `tracer` is given (then every query carries a
/// telemetry handle on a shared registry with phase sampling on).
pub fn run(inputs: &Inputs, mut tracer: Option<&mut Tracer>, checker: &mut Checker) -> Pass {
    let registry = Arc::new(MetricsRegistry::new());
    let telemetry = tracer
        .is_some()
        .then(|| Arc::new(SolveTelemetry::new(Arc::clone(&registry)).with_phase_sample(1)));
    let config = solver_config(telemetry);
    let router = &inputs.router;
    let mut pass = Pass::default();
    let layers = &mut pass.layers;
    let start = Instant::now();
    let measured_from = start + Duration::from_secs_f64(WARMUP_S);
    let mut book = Book {
        key_state: vec![0; inputs.keys.len()],
        first_of_key: vec![None; inputs.keys.len()],
        done: Vec::new(),
        last_done: measured_from,
        measured_from,
    };
    let mut base_seen = [false; EXPLORE_BASES];
    let mut inflight: Vec<InFlight> = Vec::new();
    let mut next = 0;

    loop {
        let now = Instant::now();
        let mut i = 0;
        while i < inflight.len() {
            if inflight[i].handle.is_finished() {
                book.complete(inflight.swap_remove(i), now, tracer.as_deref_mut());
            } else {
                i += 1;
            }
        }
        let Some(&(offset, key)) = inputs.stream.get(next) else {
            if inflight.is_empty() {
                break;
            }
            std::thread::sleep(POLL);
            continue;
        };
        let due = start + offset;
        if due > now {
            std::thread::sleep((due - now).min(POLL));
            continue;
        }
        let query = next as u32;
        next += 1;
        match book.key_state[key] {
            0 if base_seen[base_of(key)] => layers.variants += 1,
            0 => layers.fresh += 1,
            state => {
                layers.repeats += 1;
                if state == 1 {
                    layers.inflight_dups += 1;
                }
            }
        }
        if book.key_state[key] == 0 {
            book.key_state[key] = 1;
            book.first_of_key[key] = Some(query);
        }
        base_seen[base_of(key)] = true;
        let sent = Instant::now();
        let handle = router.spawn_shared(Arc::clone(&inputs.keys[key]), config.clone());
        let returned = Instant::now();
        layers.late_max_ns = layers.late_max_ns.max((sent - due).as_nanos() as u64);
        layers.spawn_ns.push((returned - sent).as_nanos() as u64);
        if let Some(tr) = tracer.as_deref_mut() {
            tr.span("loadgen.late", query, None, due, sent);
            tr.span("router.spawn", query, None, sent, returned);
        }
        let f = InFlight {
            query,
            key,
            due,
            returned,
            handle,
        };
        if f.handle.is_finished() {
            book.complete(f, returned, tracer.as_deref_mut());
        } else {
            inflight.push(f);
        }
    }
    pass.wall_ns = (book.last_done - measured_from).as_nanos() as u64;
    layers.offered_qps = inputs.stream.len() as f64 / (WARMUP_S + inputs.seconds);

    let stats = router.stats();
    let base = &inputs.baseline;
    layers.cache_exact_hits = stats.cache.exact_hits - base.cache.exact_hits;
    layers.cache_near_hits = stats.cache.near_hits - base.cache.near_hits;
    layers.cache_misses = stats.cache.misses - base.cache.misses;
    layers.cache_evictions = stats.cache.evictions - base.cache.evictions;
    layers.rejections = stats.rejections - base.rejections;
    layers.retries = stats.retries - base.retries;
    let solver = &stats.solver;
    let engine = &mut layers.engine;
    engine.solves = (solver.jobs - base.solver.jobs) as u64;
    engine.nodes = (solver.nodes - base.solver.nodes) as u64;
    engine.lp_solves = (solver.lp_solves - base.solver.lp_solves) as u64;
    engine.lp_warm = (solver.lp_warm_starts - base.solver.lp_warm_starts) as u64;
    engine.lp_cold = (solver.lp_cold_starts - base.solver.lp_cold_starts) as u64;
    engine.lp_pivots = solver.lp_pivots - base.solver.lp_pivots;
    engine.probes_skipped = (solver.probes_skipped - base.solver.probes_skipped) as u64;
    engine.incumbents = (solver.incumbents - base.solver.incumbents) as u64;
    // The pools run the engine; from outside, its time is visible only
    // through the program's own histograms (search = slices).
    engine.search_ns = registry.slice.snapshot().total;
    engine.lp_search_ns = registry.lp_solve.snapshot().total;
    engine.tighten_ns = registry.tighten_a.snapshot().total + registry.tighten_c.snapshot().total;
    engine.child_feas_ns = registry.child_feas.snapshot().total;
    let queue_wait = registry.queue_wait.snapshot();
    layers.queue_wait_p50_ns = queue_wait.p50();
    layers.queue_wait_p90_ns = queue_wait.p90();
    let slices = registry.slice.snapshot();
    layers.slices = slices.count;
    layers.slice_mean_ns = slices.mean();
    layers.cache_lookup_mean_ns = registry.cache_lookup.snapshot().mean();
    layers.pool_max_depth = registry
        .pool_depths()
        .iter()
        .map(|d| d.max)
        .max()
        .unwrap_or(0);

    book.done.sort_by_key(|d| d.0);
    let mut distinct: BTreeMap<usize, u64> = BTreeMap::new();
    for (_, key, latency, measured, result) in &book.done {
        pass.attempted += 1;
        if *measured {
            pass.latencies_ns.push(*latency);
        }
        let (b, v) = (base_of(*key), variant_of(*key));
        let label = format!("explore base {b} variant {v}");
        let ok = match result {
            Ok(sol) => checker.answer(
                &label,
                *key as u64,
                &inputs.keys[*key],
                sol,
                optima::explore(b, v),
            ),
            Err(e) => {
                checker.fail(format!("{label}: {e}"));
                false
            }
        };
        if !ok {
            pass.failed += 1;
            continue;
        }
        if *measured && *latency <= LIMIT.as_nanos() as u64 {
            pass.within_limit += 1;
        }
        if let Ok(sol) = result {
            distinct.entry(*key).or_insert(sol.error);
        }
    }
    pass.position_error = distinct.values().sum();
    pass
}
