//! RankHow benchmark: end-to-end metrics per workload, or — with
//! `--trace 1` — per-layer metrics from spans the benchmark records
//! around its calls into each layer.
//!
//! ```text
//! perfbench --workload <opt-exact|symgd-large|explore-open> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --tabulate        # recompute the proved-optimum tables
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Workload rationale, metric definitions and the layer → end-to-end
//! map are in `perfbench/README.md`.

mod catalog;
mod check;
mod engine;
mod exact;
mod explore;
mod large;
mod optima;
mod pass;
mod probe;
mod report;
mod rng;
mod stats;
mod trace;

use check::Checker;
use pass::Pass;
use report::{ms, ratio, Metrics};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// A run sets up at least [`SETUPS`] times and for at least
/// [`SETUP_SPAN`]; `setup_s` is the median set-up. The span matters on
/// the small workloads: a 3 ms set-up falls wholly into one of the
/// shared machine's fast or slow spells (2.0 vs 3.3 ms, tens of
/// milliseconds each), and nine back-to-back set-ups sampled one spell.
const SETUPS: usize = 5;
const SETUP_SPAN: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds
            .filter(|s: &f64| *s > 0.0)
            .ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The workloads, each with the percentile its `latency_tail_ms`
/// reports (over [`latency_sample`]) and the latency limit of its
/// `within_limit_share`. Closed loop: the highest percentile with at
/// least ten answers beyond it in a 28 s run — the third-slowest of 21
/// instances (p90; two instances beyond, 5–7 rounds) and the
/// fourth-slowest of 9 (p62.5; three instances beyond, 4–5 rounds).
/// Open loop: p95 of ~560 queries (~28 beyond); the highest percentile
/// with ten beyond, p98, rests on a dozen queued solves (see README).
const WORKLOADS: [(&str, f64, Duration); 3] = [
    ("opt-exact", 0.90, exact::LIMIT),
    ("symgd-large", 0.625, large::LIMIT),
    ("explore-open", 0.95, explore::LIMIT),
];

/// A workload's inputs, built by its set-up.
enum Inputs {
    Exact(exact::Inputs),
    Large(large::Inputs),
    Explore(Box<explore::Inputs>),
}

fn setup(args: &Args) -> (Inputs, Duration, Duration) {
    match args.workload.as_str() {
        "opt-exact" => {
            let (i, g, b) = exact::setup(args.seed);
            (Inputs::Exact(i), g, b)
        }
        "symgd-large" => {
            let (i, g, b) = large::setup(args.seed);
            (Inputs::Large(i), g, b)
        }
        _ => {
            let (i, g, b) = explore::setup(args.seed, args.seconds);
            (Inputs::Explore(Box::new(i)), g, b)
        }
    }
}

/// Run one pass over `inputs`; `symgd` holds the per-instance SYM-GD
/// answers every later chain must reproduce.
fn run_pass(
    inputs: &Inputs,
    args: &Args,
    tracer: Option<&mut Tracer>,
    checker: &mut Checker,
    symgd: &mut BTreeMap<usize, (u64, Vec<f64>)>,
) -> Pass {
    let traced = tracer.is_some();
    match inputs {
        Inputs::Exact(i) => exact::run(i, args.seconds, tracer, checker),
        Inputs::Large(i) => large::run(i, args.seconds, tracer, checker, symgd, traced),
        Inputs::Explore(i) => explore::run(i, tracer, checker),
    }
}

fn latencies_ms(pass: &Pass) -> Vec<f64> {
    pass.latencies_ns.iter().map(|&l| l as f64 / 1e6).collect()
}

/// The latencies (ms) a run's percentiles are taken over. Closed loop:
/// one per catalog instance, its mean over the run's rounds — every
/// instance is answered once per round, so the raw latencies come in
/// blocks of one instance each, and a raw percentile jumps between two
/// instances' blocks as noise reorders them; the mean spreads the
/// machine's second-scale speed swings over the whole run. Open loop:
/// every measured query.
fn latency_sample(pass: &Pass) -> Vec<f64> {
    let lat = latencies_ms(pass);
    if pass.instances.is_empty() {
        lat
    } else {
        stats::group_means(&lat, &pass.instances)
    }
}

/// The run's machine-speed factor: on `opt-exact`, the median [`probe`]
/// sample over [`probe::REFERENCE_NS`] (above 1 when this run's machine
/// was slower than the reference); 1 on the workloads reported unscaled.
fn speed_factor(pass: &Pass) -> f64 {
    if pass.probe_ns.is_empty() {
        return 1.0;
    }
    let samples: Vec<f64> = pass.probe_ns.iter().map(|&n| n as f64).collect();
    stats::median(&samples) / probe::REFERENCE_NS
}

fn end_to_end(args: &Args, tail_q: f64, limit: Duration, setup_s: &[f64], pass: &Pass) -> Metrics {
    let answers = pass.latencies_ns.len();
    let sample = latency_sample(pass);
    let factor = speed_factor(pass);
    // Time spent answering: closed loop, the sum of the latencies (the
    // probe runs between queries); open loop, the measured wall time.
    let busy_ns = if pass.instances.is_empty() {
        pass.wall_ns
    } else {
        pass.latencies_ns.iter().sum()
    };
    let (p50, tail) = (stats::median(&sample), stats::quantile(&sample, tail_q));
    let qps = ratio(answers as f64, busy_ns as f64 / 1e9);
    // Answers beyond the tail percentile: whole instances times the
    // rounds on a closed loop, queries on the open loop.
    let beyond = (sample.len() as f64 * (1.0 - tail_q) + 1e-9).floor() as usize * answers
        / sample.len().max(1);
    println!(
        "{} seed {}: {} answers in {:.2} s; tail = p{:.1} over {} latencies \
         with {} answers beyond it; limit {} ms; failed_share {:.4}",
        args.workload,
        args.seed,
        answers,
        ms(pass.wall_ns) / 1e3,
        tail_q * 100.0,
        sample.len(),
        beyond,
        limit.as_millis(),
        ratio(pass.failed as f64, pass.attempted as f64),
    );
    if beyond < 10 {
        eprintln!("warning: fewer than 10 answers beyond the tail percentile");
    }
    let ladder: Vec<String> = [0.5, 0.75, 0.9, 0.95, 0.99]
        .iter()
        .map(|&q| format!("p{:.0} {:.3}", q * 100.0, stats::quantile(&sample, q)))
        .collect();
    println!("latency ms: {}", ladder.join(", "));
    println!(
        "unscaled: p50 {p50:.3} ms, tail {tail:.3} ms, throughput {qps:.4}/s; \
         machine-speed factor {factor:.4}"
    );
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(setup_s), "s");
    m.put("latency_p50_ms", p50 / factor, "ms");
    m.put("latency_tail_ms", tail / factor, "ms");
    m.put("throughput_qps", qps * factor, "1/s");
    m.put(
        "within_limit_share",
        ratio(pass.within_limit as f64, answers as f64),
        "share",
    );
    m.put("position_error", pass.position_error as f64, "count");
    m
}

/// Every per-layer metric, in `BENCHMARK.json` order; layers a workload
/// does not load read 0.
fn per_layer(
    generate_ms: &[f64],
    build_ms: &[f64],
    untraced: &Pass,
    traced: &Pass,
    tracer: &Tracer,
    checker: &Checker,
) -> Metrics {
    let l = &traced.layers;
    let e = &l.engine;
    let queries = traced.latencies_ns.len() as f64;
    let per_q = |ns: u64| ratio(ms(ns), queries);
    let chains = l.chains.max(1) as f64;
    let reconciled = tracer.reconcile();
    let ok = reconciled
        .iter()
        .filter(|&&(lat, sum)| Tracer::reconciles(lat, sum))
        .count();
    let mut spawn_us: Vec<f64> = l.spawn_ns.iter().map(|&n| n as f64 / 1e3).collect();
    spawn_us.sort_by(f64::total_cmp);
    let mut m = Metrics::default();
    m.put("data.generate_ms", stats::median(generate_ms), "ms");
    m.put("problem.build_ms", stats::median(build_ms), "ms");
    m.put(
        "problem.evaluate_ms",
        ratio(ms(checker.evaluate_ns), checker.evaluate_runs as f64),
        "ms",
    );
    m.put("seeding.ordinal_ms", ratio(ms(l.seeding_ns), chains), "ms");
    m.put("engine.root_ms", per_q(e.root_ns), "ms");
    m.put("engine.search_ms", per_q(e.search_ns), "ms");
    m.put(
        "engine.root_share",
        ratio(e.root_ns as f64, (e.root_ns + e.search_ns) as f64),
        "share",
    );
    m.put("engine.nodes", ratio(e.nodes as f64, queries), "count");
    m.put(
        "engine.nodes_per_s",
        ratio(e.nodes as f64, e.search_ns as f64 / 1e9),
        "1/s",
    );
    m.put(
        "engine.lps_per_node",
        ratio(e.lp_solves as f64, e.nodes as f64),
        "count",
    );
    m.put(
        "engine.lp_pivots",
        ratio(e.lp_pivots as f64, queries),
        "count",
    );
    m.put(
        "engine.probes_skipped",
        ratio(e.probes_skipped as f64, queries),
        "count",
    );
    m.put(
        "engine.incumbents",
        ratio(e.incumbents as f64, queries),
        "count",
    );
    m.put("lp.solve_ms", per_q(e.lp_search_ns), "ms");
    m.put(
        "lp.solve_share",
        ratio(e.lp_search_ns as f64, e.search_ns as f64),
        "share",
    );
    m.put(
        "lp.warm_hit_rate",
        ratio(e.lp_warm as f64, (e.lp_warm + e.lp_cold) as f64),
        "share",
    );
    m.put("engine.child_feas_ms", per_q(e.child_feas_ns), "ms");
    m.put("engine.tighten_ms", per_q(e.tighten_ns), "ms");
    m.put(
        "engine.unattributed_share",
        ratio(
            e.search_ns.saturating_sub(e.lp_search_ns + e.tighten_ns) as f64,
            e.search_ns as f64,
        ),
        "share",
    );
    m.put("symgd.cells", ratio(l.cells as f64, chains), "count");
    m.put(
        "symgd.iterations",
        ratio(l.iterations as f64, chains),
        "count",
    );
    m.put(
        "symgd.cell_growths",
        ratio(l.cell_growths as f64, chains),
        "count",
    );
    m.put("symgd.cell_ms", ratio(ms(l.cell_ns), chains), "ms");
    m.put("symgd.recenter_ms", ratio(ms(l.recenter_ns), chains), "ms");
    m.put(
        "verify.ms_per_answer",
        ratio(ms(checker.verify_ns), checker.verify_runs as f64),
        "ms",
    );
    m.put(
        "verify.pass_share",
        ratio(checker.verify_pass as f64, checker.verify_runs as f64),
        "share",
    );
    m.put("serve.queue_wait_p50_ms", ms(l.queue_wait_p50_ns), "ms");
    m.put("serve.queue_wait_p90_ms", ms(l.queue_wait_p90_ns), "ms");
    m.put("serve.slices", l.slices as f64, "count");
    m.put("serve.slice_ms", l.slice_mean_ns / 1e6, "ms");
    m.put("router.spawn_us_p50", stats::median(&spawn_us), "us");
    m.put("router.cache_lookup_us", l.cache_lookup_mean_ns / 1e3, "us");
    m.put(
        "router.cache_exact_hits",
        l.cache_exact_hits as f64,
        "count",
    );
    m.put("router.cache_near_hits", l.cache_near_hits as f64, "count");
    m.put("router.cache_misses", l.cache_misses as f64, "count");
    m.put("router.cache_evictions", l.cache_evictions as f64, "count");
    m.put(
        "router.hit_ratio",
        ratio(l.cache_exact_hits as f64, l.repeats as f64),
        "share",
    );
    m.put(
        "router.inflight_dup_misses",
        l.inflight_dups as f64,
        "count",
    );
    m.put("router.rejections", l.rejections as f64, "count");
    m.put("router.retries", l.retries as f64, "count");
    m.put("router.pool_max_depth", l.pool_max_depth as f64, "count");
    m.put("loadgen.offered_qps", l.offered_qps, "1/s");
    m.put("loadgen.late_ms", ms(l.late_max_ns), "ms");
    let offered = (l.repeats + l.variants + l.fresh) as f64;
    m.put(
        "workload.repeat_share",
        ratio(l.repeats as f64, offered),
        "share",
    );
    m.put(
        "workload.variant_share",
        ratio(l.variants as f64, offered),
        "share",
    );
    m.put(
        "workload.fresh_share",
        ratio(l.fresh as f64, offered),
        "share",
    );
    let base = stats::median(&latency_sample(untraced));
    m.put(
        "trace.overhead_share",
        ratio(stats::median(&latency_sample(traced)) - base, base),
        "share",
    );
    m.put(
        "trace.reconciled_share",
        ratio(ok as f64, reconciled.len() as f64),
        "share",
    );
    m
}

/// Where the traced run writes its spans: under the cargo target
/// directory of the checkout.
fn trace_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| "perfbench/target".into());
    dir.join("perfbench-traces")
        .join(format!("{}-seed{}.json", args.workload, args.seed))
}

fn run(args: &Args) -> ExitCode {
    let Some(&(_, tail_q, limit)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut inputs = None;
    let first = Instant::now();
    while setup_s.len() < SETUPS || first.elapsed() < SETUP_SPAN {
        drop(inputs.take());
        let t = Instant::now();
        let (i, generate, build) = setup(args);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_ms.push(generate.as_secs_f64() * 1e3);
        build_ms.push(build.as_secs_f64() * 1e3);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    let mut checker = Checker::default();
    let mut symgd = BTreeMap::new();
    let untraced = run_pass(&inputs, args, None, &mut checker, &mut symgd);
    let (metrics, attempted, failed) = if args.trace {
        // The traced pass needs a fresh router (an empty cache) on the
        // open-loop workload; the closed-loop inputs are immutable.
        let traced_inputs = match inputs {
            Inputs::Explore(_) => setup(args).0,
            other => other,
        };
        let mut tracer = Tracer::new();
        let traced = run_pass(
            &traced_inputs,
            args,
            Some(&mut tracer),
            &mut checker,
            &mut symgd,
        );
        let path = trace_path(args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        let queries = traced.latencies_ns.len().max(1) as f64;
        println!("self time per query by span:");
        for (name, ns) in tracer.self_by_name() {
            println!("  {name:<28} {:>14.6} ms", ms(ns) / queries);
        }
        let m = per_layer(
            &generate_ms,
            &build_ms,
            &untraced,
            &traced,
            &tracer,
            &checker,
        );
        let attempted = untraced.attempted + traced.attempted;
        (m, attempted, untraced.failed + traced.failed)
    } else {
        let m = end_to_end(args, tail_q, limit, &setup_s, &untraced);
        (m, untraced.attempted, untraced.failed)
    };
    metrics.print();
    let correct = checker.failures.is_empty() && failed == 0 && attempted > 0;
    println!("{}", metrics.result_line(correct, attempted, failed));
    ExitCode::SUCCESS
}

/// Solve every catalog instance (identity relabelling) to proved
/// optimality and print `optima.rs` tables.
fn tabulate() -> ExitCode {
    use rankhow_core::{RankHow, SolverConfig};
    let solve = |p: &rankhow_core::OptProblem| {
        let t = Instant::now();
        let s = RankHow::with_config(SolverConfig {
            threads: 1,
            node_limit: 0,
            time_limit: None,
            ..SolverConfig::default()
        })
        .solve(p)
        .expect("catalog instances are feasible");
        assert!(s.optimal, "unlimited solves prove optimality");
        (
            (s.error, s.certified_error),
            s.stats.nodes,
            t.elapsed().as_secs_f64(),
        )
    };
    println!("pub const EXACT: &[(&str, Bracket)] = &[");
    for spec in catalog::EXACT {
        let g = catalog::generate(spec);
        let (err, nodes, secs) = solve(&catalog::Relabel::identity(spec.n, spec.m).apply(&g));
        println!(
            "    (\"{}\", {err:?}), // {nodes} nodes, {secs:.3} s",
            spec.name
        );
    }
    println!("];");
    println!(
        "pub const EXPLORE: [[Bracket; 4]; {}] = [",
        catalog::EXPLORE_BASES
    );
    for b in 0..catalog::EXPLORE_BASES {
        let spec = catalog::explore_base(b);
        let g = catalog::generate(&spec);
        let id = catalog::Relabel::identity(spec.n, spec.m);
        let base = id.apply(&g);
        let row: Vec<_> = catalog::VARIANTS
            .iter()
            .map(|v| {
                let p = base
                    .clone()
                    .with_constraints(catalog::constraints(v, &id))
                    .expect("in range");
                solve(&p)
            })
            .collect();
        let errs: Vec<String> = row.iter().map(|r| format!("{:?}", r.0)).collect();
        let info: Vec<String> = row
            .iter()
            .map(|r| format!("{}n {:.3}s", r.1, r.2))
            .collect();
        println!("    [{}], // {}", errs.join(", "), info.join(", "));
    }
    println!("];");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--tabulate") {
        return tabulate();
    }
    match parse(&argv) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
