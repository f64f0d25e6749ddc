//! Scaling benchmarks for the parallel branch-and-bound engine (thread
//! sweep 1/2/4/8 over the synthetic workloads) and for the reusable
//! [`SimplexWorkspace`] that backs its per-worker LP solves.
//!
//! Kept compiling by the CI `cargo bench --no-run` step; run with
//! `cargo bench --bench solver_scaling`.
//!
//! `cargo bench --bench solver_scaling -- --json BENCH_PR9.json`
//! skips the criterion loop and instead emits a machine-readable
//! perf-trajectory report — nodes/sec, LPs/sec, pivots, probe-skip
//! counters, and the LP warm-hit rate per workload, in three modes
//! (`prop` = warm + decided-pair bound propagation, the default engine;
//! `warm` = warm only; `cold` = escape hatch) — so successive PRs can
//! diff solver throughput without parsing bench prose. The report also
//! carries repeated-query *serving* rows: duplicate-heavy and
//! constraint-variant streams submitted sequentially through a router,
//! comparing the cross-query solution cache (`cache` mode, hit/miss/
//! eviction counters included) against per-query serving (`uncached`
//! mode); every serving query carries a telemetry handle, so these
//! rows also report the per-query admission→completion latency
//! distribution (`latency_p50_ns` / `latency_p99_ns`).
//!
//! Interpretation note: on a single-core container
//! (`std::thread::available_parallelism() == 1`) the >1-thread rows
//! measure pure coordination overhead — workers time-slice one CPU and
//! speculatively expand nodes the sequential engine would have pruned
//! after an earlier incumbent update. The sweep is meaningful on
//! multi-core hardware, where per-worker LP workspaces and the
//! work-stealing frontier let node expansions proceed concurrently.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rankhow_bench::setups;
use rankhow_core::{OptProblem, RankHow, SolverConfig, WeightConstraints};
use rankhow_data::synthetic::Distribution;
use rankhow_lp::{chebyshev_center, chebyshev_center_with, Op, Problem, Sense, SimplexWorkspace};
use rankhow_router::{Router, RouterConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Thread sweep over the paper's synthetic distributions. The instances
/// are sized so a single-thread solve takes long enough to measure but
/// the whole sweep stays bench-friendly.
fn thread_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_scaling");
    group.sample_size(10);
    let workloads = [
        ("uniform_n300_k5", Distribution::Uniform, 300usize, 5usize),
        ("anticorr_n120_k4", Distribution::AntiCorrelated, 120, 4),
    ];
    for (name, dist, n, k) in workloads {
        let problem = setups::synthetic_problem(dist, 0, n, 4, k, 3, false);
        for &threads in &[1usize, 2, 4, 8] {
            group.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, &threads| {
                b.iter(|| {
                    let sol = RankHow::with_config(SolverConfig {
                        threads,
                        // Anti-correlated trees are deep; cap each
                        // solve so a full sweep stays bench-sized
                        // (progress-at-timeout is the measurement).
                        time_limit: Some(Duration::from_secs(5)),
                        ..SolverConfig::default()
                    })
                    .solve(&problem)
                    .unwrap();
                    black_box((sol.error, sol.stats.nodes))
                });
            });
        }
    }
    group.finish();
}

/// The canonical node-LP shape (simplex weights + decision half-spaces),
/// as built thousands of times per solve.
fn node_region(m: usize, cuts: usize) -> Problem {
    let mut p = Problem::new(Sense::Minimize);
    let w: Vec<_> = (0..m)
        .map(|j| p.add_var(&format!("w{j}"), 0.0, 1.0, 0.0))
        .collect();
    let simplex: Vec<(usize, f64)> = w.iter().map(|&v| (v, 1.0)).collect();
    p.add_constraint(&simplex, Op::Eq, 1.0);
    for r in 0..cuts {
        let terms: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, ((j + r) % 5) as f64 - 2.0))
            .collect();
        p.add_constraint(&terms, Op::Ge, 1e-4);
    }
    p
}

/// Standalone workspace benchmark: repeated Chebyshev-center solves with
/// a reused tableau vs. a fresh allocation per call.
fn simplex_workspace(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_workspace");
    for &(m, cuts) in &[(5usize, 8usize), (8, 16)] {
        let region = node_region(m, cuts);
        group.bench_with_input(
            BenchmarkId::new("chebyshev_fresh", format!("m{m}_c{cuts}")),
            &region,
            |b, region| {
                b.iter(|| black_box(chebyshev_center(region).unwrap()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("chebyshev_reused", format!("m{m}_c{cuts}")),
            &region,
            |b, region| {
                let mut ws = SimplexWorkspace::new();
                b.iter(|| black_box(chebyshev_center_with(region, &mut ws).unwrap()));
            },
        );
    }
    group.finish();
}

/// One timed solve of a workload in one of three modes — `prop` (warm
/// LPs + decided-pair bound propagation, the default engine), `warm`
/// (warm LPs only — the PR-5 configuration), or `cold` (the
/// everything-off escape hatch).
fn timed_solve(problem: &rankhow_core::OptProblem, mode: &str) -> (f64, rankhow_core::Solution) {
    let (warm_lp, propagate) = match mode {
        "prop" => (true, true),
        "warm" => (true, false),
        "cold" => (false, false),
        other => panic!("unknown bench mode {other}"),
    };
    let start = std::time::Instant::now();
    let sol = RankHow::with_config(SolverConfig {
        threads: 1,
        warm_lp,
        propagate,
        node_limit: 3_000,
        time_limit: Some(Duration::from_secs(10)),
        ..SolverConfig::default()
    })
    .solve(problem)
    .unwrap();
    (start.elapsed().as_secs_f64().max(1e-9), sol)
}

/// Format one report row from a mode's fastest observed solve.
fn json_row(name: &str, mode: &str, secs: f64, sol: &rankhow_core::Solution) -> String {
    let s = &sol.stats;
    let starts = (s.lp_warm_starts + s.lp_cold_starts).max(1);
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"error\":{},\"optimal\":{},",
            "\"nodes\":{},\"lp_solves\":{},\"lp_pivots\":{},",
            "\"probes_skipped\":{},\"coords_skipped\":{},\"lps_per_node\":{:.2},",
            "\"nodes_per_sec\":{:.1},\"lps_per_sec\":{:.1},",
            "\"warm_hit_rate\":{:.4},\"elapsed_sec\":{:.6}}}"
        ),
        name,
        mode,
        sol.error,
        sol.optimal,
        s.nodes,
        s.lp_solves,
        s.lp_pivots,
        s.probes_skipped,
        s.coords_skipped,
        s.lp_solves as f64 / s.nodes.max(1) as f64,
        s.nodes as f64 / secs,
        s.lp_solves as f64 / secs,
        s.lp_warm_starts as f64 / starts as f64,
        secs,
    )
}

/// One serving pass: a query stream submitted sequentially (submit,
/// join, next — the realistic order for repeated traffic: a duplicate
/// arrives after its first solve completed) through a 1-pool × 1-worker
/// router, with the cross-query cache on (`cache` mode) or off
/// (`uncached` mode). Every query carries a
/// telemetry handle into one shared metrics registry, so the row can
/// report the per-query admission→completion latency distribution
/// alongside the aggregate counters.
fn timed_serve(
    queries: &[Arc<OptProblem>],
    mode: &str,
) -> (
    f64,
    rankhow_router::RouterStats,
    rankhow_obs::HistogramSnapshot,
) {
    let cache = match mode {
        "cache" => true,
        "uncached" => false,
        other => panic!("unknown serving mode {other}"),
    };
    let router = Router::new(RouterConfig {
        pools: 1,
        threads_per_pool: 1,
        cache,
        ..RouterConfig::default()
    });
    let metrics = Arc::new(rankhow_obs::MetricsRegistry::new());
    let start = std::time::Instant::now();
    for query in queries {
        let telemetry = Arc::new(rankhow_obs::SolveTelemetry::new(Arc::clone(&metrics)));
        let sol = router
            .spawn_shared(
                Arc::clone(query),
                SolverConfig {
                    time_limit: Some(Duration::from_secs(10)),
                    telemetry: Some(telemetry),
                    ..SolverConfig::default()
                },
            )
            .join()
            .expect("feasible workload");
        black_box(sol.error);
    }
    (
        start.elapsed().as_secs_f64().max(1e-9),
        router.stats(),
        metrics.latency.snapshot(),
    )
}

/// Format one serving-report row.
fn serve_row(
    name: &str,
    mode: &str,
    repeat_p: f64,
    queries: usize,
    secs: f64,
    stats: &rankhow_router::RouterStats,
    latency: &rankhow_obs::HistogramSnapshot,
) -> String {
    let s = &stats.solver;
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"mode\":\"{}\",\"repeat_p\":{:.2},",
            "\"queries\":{},\"queries_per_sec\":{:.1},",
            "\"latency_p50_ns\":{},\"latency_p99_ns\":{},",
            "\"cache_exact_hits\":{},\"cache_near_hits\":{},",
            "\"cache_misses\":{},\"cache_evictions\":{},",
            "\"nodes\":{},\"lp_solves\":{},\"lp_pivots\":{},\"elapsed_sec\":{:.6}}}"
        ),
        name,
        mode,
        repeat_p,
        queries,
        queries as f64 / secs,
        latency.p50(),
        latency.p99(),
        stats.cache.exact_hits,
        stats.cache.near_hits,
        stats.cache.misses,
        stats.cache.evictions,
        s.nodes,
        s.lp_solves,
        s.lp_pivots,
        secs,
    )
}

/// Repeated-query serving rows: an exact-duplicate stream (half the
/// queries repeat an earlier one) and a near-variant stream (same
/// instance under a sweep of weight-constraint bounds), each served in
/// `cache` and `uncached` mode. Best-of-3, modes interleaved, mirroring the
/// engine rows.
fn serving_rows() -> Vec<String> {
    let distinct: Vec<Arc<OptProblem>> = (0..4)
        .map(|seed| {
            Arc::new(setups::synthetic_problem(
                Distribution::Uniform,
                seed,
                300,
                4,
                5,
                3,
                false,
            ))
        })
        .collect();
    // Half the stream repeats an already-seen query (repeat_p = 0.5).
    let repeated: Vec<Arc<OptProblem>> = [0usize, 1, 0, 2, 1, 3, 2, 0]
        .iter()
        .map(|&i| Arc::clone(&distinct[i]))
        .collect();
    // Same instance, five progressively tighter constraint regions:
    // every query after the first is a near hit for the cache.
    let base = &distinct[0];
    let variants: Vec<Arc<OptProblem>> = std::iter::once(Arc::clone(base))
        .chain([0.9f64, 0.8, 0.7, 0.6].iter().map(|&bound| {
            Arc::new(
                (**base)
                    .clone()
                    .with_constraints(WeightConstraints::none().max_weight(0, bound))
                    .expect("nonempty constrained region"),
            )
        }))
        .collect();
    let streams: [(&str, f64, &[Arc<OptProblem>]); 2] = [
        ("repeat_uniform_n300_k5", 0.5, &repeated),
        ("nearvar_uniform_n300_k5", 0.8, &variants),
    ];
    let modes = ["cache", "uncached"];
    let mut rows = Vec::new();
    for (name, repeat_p, queries) in streams {
        type ServeBest = (
            f64,
            rankhow_router::RouterStats,
            rankhow_obs::HistogramSnapshot,
        );
        let mut best: Vec<Option<ServeBest>> = vec![None; modes.len()];
        for _round in 0..3 {
            for (i, mode) in modes.iter().enumerate() {
                let (secs, stats, latency) = timed_serve(queries, mode);
                if best[i].as_ref().map_or(true, |(b, _, _)| secs < *b) {
                    best[i] = Some((secs, stats, latency));
                }
            }
        }
        for (i, mode) in modes.iter().enumerate() {
            let (secs, stats, latency) = best[i].take().expect("measured above");
            rows.push(serve_row(
                name,
                mode,
                repeat_p,
                queries.len(),
                secs,
                &stats,
                &latency,
            ));
        }
    }
    rows
}

/// Emit the machine-readable perf report (see the module docs).
fn json_report(path: &std::path::Path) {
    let workloads = [
        ("uniform_n300_k5", Distribution::Uniform, 300usize, 5usize),
        ("anticorr_n120_k4", Distribution::AntiCorrelated, 120, 4),
        ("uniform_n600_k8", Distribution::Uniform, 600, 8),
    ];
    let modes = ["prop", "warm", "cold"];
    let mut rows = Vec::new();
    for (name, dist, n, k) in workloads {
        let problem = setups::synthetic_problem(dist, 0, n, 4, k, 3, false);
        // The solves are deterministic at threads=1, so the stats
        // columns are fixed per mode and only the wall-clock varies.
        // Interleave the modes round-robin and keep each mode's fastest
        // observed solve: CPU-frequency and scheduler drift then hits
        // every mode equally instead of biasing whichever row ran in a
        // slow stretch (the smallest workload finishes in < 100 ms,
        // where a single measurement would drown mode differences).
        let mut best: Vec<Option<(f64, rankhow_core::Solution)>> = vec![None; modes.len()];
        for _round in 0..5 {
            for (i, mode) in modes.iter().enumerate() {
                let (secs, sol) = timed_solve(&problem, mode);
                if best[i].as_ref().map_or(true, |(b, _)| secs < *b) {
                    best[i] = Some((secs, sol));
                }
            }
        }
        for (i, mode) in modes.iter().enumerate() {
            let (secs, sol) = best[i].take().expect("measured above");
            rows.push(json_row(name, mode, secs, &sol));
        }
    }
    rows.extend(serving_rows());
    let total = rows.len();
    let body = format!(
        "{{\"bench\":\"solver_scaling\",\"pr\":9,\"threads\":1,\"rows\":[\n  {}\n]}}\n",
        rows.join(",\n  ")
    );
    std::fs::write(path, &body).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {} ({} rows)", path.display(), total);
}

criterion_group!(benches, thread_sweep, simplex_workspace);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(i + 1)
            .unwrap_or_else(|| panic!("--json needs a path (e.g. --json BENCH_PR6.json)"));
        // Cargo runs bench binaries with crates/bench as CWD; anchor
        // relative paths at the workspace root so the documented
        // command refreshes the committed repo-root BENCH_PR6.json.
        let path = std::path::Path::new(path);
        let anchored;
        let path = if path.is_absolute() {
            path
        } else {
            anchored = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(path);
            anchored.as_path()
        };
        json_report(path);
        return;
    }
    benches();
}
