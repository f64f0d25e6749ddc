//! `rankhow` — command-line scoring-function synthesis.
//!
//! ```text
//! rankhow <data.csv> [--ranking <ranking.csv>] [--k <K>] [--score-col <NAME>]
//!         [--eps <E>] [--eps1 <E1>] [--eps2 <E2>]
//!         [--min-weight <ATTR>=<LO>] [--max-weight <ATTR>=<HI>]
//!         [--symgd <CELL>] [--budget <SECONDS>] [--measure position|kendall|topweighted]
//!         [--threads <N>]
//! rankhow --batch <queries.txt> [--threads <N>] [--pools <P>] [--queue-cap <N>]
//!         [--no-cache] [--cache-cap <N>]
//! ```
//!
//! Observability flags (both modes, top-level only — not inside batch
//! lines): `--stats` prints human-readable counters and latency
//! histogram summaries to stderr; `--stats-json <file>` writes the
//! solver/router/cache statistics as JSON; `--metrics-out <file>`
//! writes the metrics-registry snapshot (latency/queue-wait/LP-solve
//! histograms plus per-pool queue-depth gauges); `--trace-out <dir>`
//! attaches a flight recorder to every direct query and writes one
//! JSON trace per query into the directory (SYM-GD cell chains carry
//! no recorder — their cells are internal jobs). Schemas are
//! documented in README § Observability.
//!
//! Input: a CSV of numeric attributes (header row). The given ranking
//! comes either from `--ranking` (a one-column CSV of positions, one row
//! per tuple, empty/0 = ⊥) or from `--score-col` + `--k` (rank the top-K
//! by a score column, then drop that column from the attributes).
//!
//! `--measure` selects the objective the solver *optimizes* (not merely
//! reports): Definition 3 position error, Kendall tau, or the
//! top-weighted variant.
//!
//! `--batch <file>` streams one query per line (same grammar as the
//! single-query command line, whitespace-separated; `#` comments and
//! blank lines skipped; malformed lines are reported with their 1-based
//! line number) and solves them **concurrently** on a
//! `rankhow_router::Router` of `--pools` scheduler pools with
//! `--threads` workers each (per-line `--threads` is ignored — the
//! pools decide). `--queue-cap` bounds each pool's outstanding jobs
//! (queued + in-flight): over-capacity queries are shed with status
//! `rejected` instead of queueing without bound. The router's
//! cross-query solution cache is on by default — repeated identical
//! lines complete from the cache, and same-instance lines that differ
//! only in weight constraints warm-start from the cached root;
//! `--no-cache` disables it and `--cache-cap` bounds its entry count.
//! All four flags apply to `--batch` only. Lines with `--symgd` run as
//! warm-started cell-job chains routed through the same pools. Results
//! print in line order; with `--threads 1` the output is deterministic
//! for any `--pools`, cache on or off.
//!
//! Output: the synthesized weights, the objective value, and the exact
//! verification verdict.

use rankhow::core::{seeding, verify, Solution, SolveStatus, SolverConfig, SymGd, SymGdConfig};
use rankhow::obs::{Event, MetricsRegistry, SolveTelemetry};
use rankhow::prelude::*;
use rankhow::ranking::ErrorMeasure;
use rankhow::router::{Router, RouterConfig};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flight-recorder ring capacity per traced query (`--trace-out`).
/// Long solves overflow and keep the newest events; `dropped` in the
/// trace counts the overwritten prefix.
const TRACE_CAPACITY: usize = 4096;

#[derive(Clone)]
struct Args {
    data: PathBuf,
    ranking: Option<PathBuf>,
    score_col: Option<String>,
    k: usize,
    eps: f64,
    eps1: f64,
    eps2: f64,
    min_weights: Vec<(String, f64)>,
    max_weights: Vec<(String, f64)>,
    symgd_cell: Option<f64>,
    budget: u64,
    measure: ErrorMeasure,
    threads: usize,
    pools: usize,
    queue_cap: usize,
    no_cache: bool,
    cache_cap: Option<usize>,
    retries: Option<u32>,
    retry_backoff_ms: Option<u64>,
    stats: bool,
    stats_json: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    batch: Option<PathBuf>,
}

impl Args {
    /// Whether any flag asked for telemetry — the queries then carry a
    /// `SolveTelemetry` handle; otherwise `SolverConfig::telemetry`
    /// stays `None` and the instrumented paths cost nothing.
    fn wants_telemetry(&self) -> bool {
        self.stats
            || self.stats_json.is_some()
            || self.metrics_out.is_some()
            || self.trace_out.is_some()
    }

    /// Build one query's telemetry handle over the shared registry:
    /// a flight recorder when tracing, full phase sampling when the
    /// metrics snapshot or the human histogram summary was asked for.
    fn make_telemetry(&self, metrics: &Arc<MetricsRegistry>) -> Arc<SolveTelemetry> {
        let mut tel = SolveTelemetry::new(Arc::clone(metrics));
        if self.trace_out.is_some() {
            tel = tel.with_recorder(TRACE_CAPACITY);
        }
        if self.metrics_out.is_some() || self.stats {
            tel = tel.with_phase_sample(1);
        }
        Arc::new(tel)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: rankhow <data.csv> [--ranking pos.csv | --score-col NAME] [--k K]\n\
         \x20      [--eps E] [--eps1 E1] [--eps2 E2] [--min-weight A=L] [--max-weight A=H]\n\
         \x20      [--symgd CELL] [--budget SECS] [--measure position|kendall|topweighted]\n\
         \x20      [--threads N] [--stats] [--stats-json FILE] [--metrics-out FILE]\n\
         \x20      [--trace-out DIR]\n\
         \x20      rankhow --batch queries.txt [--threads N] [--pools P] [--queue-cap N]\n\
         \x20      [--no-cache] [--cache-cap N] [--retries N] [--retry-backoff-ms N]\n\
         \x20      [--stats] [--stats-json FILE] [--metrics-out FILE] [--trace-out DIR]"
    );
    std::process::exit(2)
}

/// Parse one command line (the process arguments, or one `--batch`
/// line). Any malformed flag or value is an `Err` — the caller decides
/// how to report it (both paths exit with code 2).
fn parse_tokens(tokens: &[String], allow_batch: bool) -> Result<Args, String> {
    let mut args = Args {
        data: PathBuf::new(),
        ranking: None,
        score_col: None,
        k: 10,
        eps: 1e-6,
        eps1: 1e-4,
        eps2: 0.0,
        min_weights: Vec::new(),
        max_weights: Vec::new(),
        symgd_cell: None,
        budget: 30,
        measure: ErrorMeasure::Position,
        threads: rankhow::core::default_threads(),
        pools: 1,
        queue_cap: 0,
        no_cache: false,
        cache_cap: None,
        retries: None,
        retry_backoff_ms: None,
        stats: false,
        stats_json: None,
        metrics_out: None,
        trace_out: None,
        batch: None,
    };
    let mut it = tokens.iter();
    let mut positional = Vec::new();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let parse_f64 = |flag: &str, v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match a.as_str() {
            "--ranking" => args.ranking = Some(PathBuf::from(next("--ranking")?)),
            "--score-col" => args.score_col = Some(next("--score-col")?),
            "--k" => {
                let v = next("--k")?;
                args.k = v.parse().map_err(|_| format!("--k: not a count: {v}"))?;
            }
            "--eps" => args.eps = parse_f64("--eps", next("--eps")?)?,
            "--eps1" => args.eps1 = parse_f64("--eps1", next("--eps1")?)?,
            "--eps2" => args.eps2 = parse_f64("--eps2", next("--eps2")?)?,
            "--budget" => {
                let v = next("--budget")?;
                args.budget = v
                    .parse()
                    .map_err(|_| format!("--budget: not a number of seconds: {v}"))?;
            }
            "--threads" => {
                let v = next("--threads")?;
                args.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: not a count: {v}"))?;
            }
            "--pools" => {
                let v = next("--pools")?;
                args.pools = v
                    .parse()
                    .map_err(|_| format!("--pools: not a count: {v}"))?;
            }
            "--queue-cap" => {
                let v = next("--queue-cap")?;
                args.queue_cap = v
                    .parse()
                    .map_err(|_| format!("--queue-cap: not a count: {v}"))?;
            }
            "--no-cache" => args.no_cache = true,
            "--cache-cap" => {
                let v = next("--cache-cap")?;
                args.cache_cap = Some(
                    v.parse()
                        .map_err(|_| format!("--cache-cap: not a count: {v}"))?,
                );
            }
            "--retries" => {
                let v = next("--retries")?;
                args.retries = Some(
                    v.parse()
                        .map_err(|_| format!("--retries: not a count: {v}"))?,
                );
            }
            "--retry-backoff-ms" => {
                let v = next("--retry-backoff-ms")?;
                args.retry_backoff_ms = Some(
                    v.parse()
                        .map_err(|_| format!("--retry-backoff-ms: not a number of ms: {v}"))?,
                );
            }
            "--stats" => args.stats = true,
            "--stats-json" | "--metrics-out" | "--trace-out" => {
                // Output destinations are process-level: one file (or
                // directory) per run, never one per batch line.
                if !allow_batch {
                    return Err(format!("{a} cannot appear inside a batch file"));
                }
                let path = PathBuf::from(next(a)?);
                match a.as_str() {
                    "--stats-json" => args.stats_json = Some(path),
                    "--metrics-out" => args.metrics_out = Some(path),
                    _ => args.trace_out = Some(path),
                }
            }
            "--symgd" => {
                args.symgd_cell = Some(parse_f64("--symgd", next("--symgd")?)?);
            }
            "--batch" => {
                if !allow_batch {
                    return Err("--batch cannot appear inside a batch file".into());
                }
                args.batch = Some(PathBuf::from(next("--batch")?));
            }
            "--min-weight" | "--max-weight" => {
                let spec = next(a)?;
                let (attr, val) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("{a}: expected ATTR=VALUE, got {spec}"))?;
                let val = parse_f64(a, val.to_string())?;
                if a == "--min-weight" {
                    args.min_weights.push((attr.to_string(), val));
                } else {
                    args.max_weights.push((attr.to_string(), val));
                }
            }
            "--measure" => {
                args.measure = match next("--measure")?.as_str() {
                    "position" => ErrorMeasure::Position,
                    "kendall" => ErrorMeasure::KendallTau,
                    "topweighted" => ErrorMeasure::TopWeighted,
                    other => return Err(format!("--measure: unknown measure: {other}")),
                }
            }
            "--help" | "-h" => return Err("help requested".into()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag: {other}"));
            }
            other => positional.push(other.to_string()),
        }
    }
    if args.batch.is_some() {
        if !positional.is_empty() {
            return Err("--batch takes queries from the file, not the command line".into());
        }
        return Ok(args);
    }
    // Router-level flags shape the --batch serving topology; accepting
    // them silently on a single query would fake admission control.
    if args.pools != 1 {
        return Err("--pools only applies to --batch".into());
    }
    if args.queue_cap != 0 {
        return Err("--queue-cap only applies to --batch".into());
    }
    if args.no_cache {
        return Err("--no-cache only applies to --batch".into());
    }
    if args.cache_cap.is_some() {
        return Err("--cache-cap only applies to --batch".into());
    }
    if args.retries.is_some() {
        return Err("--retries only applies to --batch".into());
    }
    if args.retry_backoff_ms.is_some() {
        return Err("--retry-backoff-ms only applies to --batch".into());
    }
    if positional.len() != 1 {
        return Err("expected exactly one <data.csv> argument".into());
    }
    args.data = PathBuf::from(&positional[0]);
    Ok(args)
}

/// Build the `OptProblem` a parsed query describes.
fn build_problem(args: &Args) -> Result<OptProblem, String> {
    let mut data = Dataset::from_csv(&args.data)
        .map_err(|e| format!("error reading {}: {e}", args.data.display()))?;

    // Resolve the given ranking.
    let given = if let Some(path) = &args.ranking {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("error reading {}: {e}", path.display()))?;
        let positions: Vec<Option<u32>> = text
            .lines()
            .skip(1) // header
            .filter(|l| !l.trim().is_empty())
            .map(|l| match l.trim().parse::<u32>() {
                Ok(0) | Err(_) => None,
                Ok(p) => Some(p),
            })
            .collect();
        GivenRanking::from_positions(positions).map_err(|e| format!("invalid ranking: {e}"))?
    } else if let Some(col) = &args.score_col {
        let idx = data
            .attr_index(col)
            .ok_or_else(|| format!("no column named {col}"))?;
        let scores: Vec<f64> = data.col(idx).to_vec();
        let keep: Vec<usize> = (0..data.m()).filter(|&j| j != idx).collect();
        data = data.select_attrs(&keep);
        GivenRanking::from_scores(&scores, args.k.min(scores.len()), 0.0)
            .map_err(|e| format!("invalid ranking: {e}"))?
    } else {
        return Err("need --ranking or --score-col".into());
    };

    // Constraints.
    let mut constraints = WeightConstraints::none();
    for (attr, lo) in &args.min_weights {
        let idx = data
            .attr_index(attr)
            .ok_or_else(|| format!("no column named {attr}"))?;
        constraints = constraints.min_weight(idx, *lo);
    }
    for (attr, hi) in &args.max_weights {
        let idx = data
            .attr_index(attr)
            .ok_or_else(|| format!("no column named {attr}"))?;
        constraints = constraints.max_weight(idx, *hi);
    }

    let tol = Tolerances::explicit(args.eps, args.eps1, args.eps2);
    OptProblem::with_all(data, given, constraints, tol)
        .map(|p| p.with_objective(args.measure))
        .map_err(|e| format!("invalid problem: {e}"))
}

/// Print the per-query report (weights, objective, verification).
fn report(problem: &OptProblem, args: &Args, weights: &[f64], error: u64, optimal: bool) {
    println!("weights:");
    for (name, w) in problem.data.names().iter().zip(weights) {
        if *w > 1e-9 {
            println!("  {name:<16} {w:.6}");
        }
    }
    let label = match args.measure {
        ErrorMeasure::Position => "position error",
        ErrorMeasure::KendallTau => "kendall-tau error",
        ErrorMeasure::TopWeighted => "top-weighted error",
    };
    println!(
        "{label}: {error}{}",
        if optimal { " (proved optimal)" } else { "" }
    );
    if args.measure != ErrorMeasure::Position {
        // Also report plain Definition 3 error for comparability.
        println!("position error: {}", problem.evaluate(weights));
    }
    match verify::verify(problem, weights) {
        Some(rep) if rep.consistent => println!("exact verification: PASS"),
        Some(rep) => println!(
            "exact verification: MISMATCH (exact {}, f64 {})",
            rep.exact_error, rep.f64_error
        ),
        None => println!("exact verification: skipped (non-finite input)"),
    }
}

/// Print the search/LP telemetry a solve accumulated (`--stats`). The
/// warm/cold split and the pivot counter are the LP warm-starting
/// observability: `lp warm` regions re-installed a parent basis and
/// skipped phase 1, `pivots` is the hardware-independent LP-work meter.
fn report_stats(stats: &rankhow::core::SolverStats) {
    // `elapsed` is a per-solve property that `SolverStats::merge`
    // deliberately does not sum, so multi-job aggregates (the --batch
    // path) carry none — omit the clause rather than print "0ns".
    let elapsed = if stats.elapsed.is_zero() {
        String::new()
    } else {
        format!(" in {:.3?}", stats.elapsed)
    };
    eprintln!(
        "stats: {} nodes, {} lp solves ({} warm / {} cold starts, {} pivots), \
         {} probes skipped ({} whole coords), \
         {} incumbents, {} live pairs, {} job(s){}",
        stats.nodes,
        stats.lp_solves,
        stats.lp_warm_starts,
        stats.lp_cold_starts,
        stats.lp_pivots,
        stats.probes_skipped,
        stats.coords_skipped,
        stats.incumbents,
        stats.live_pairs,
        stats.jobs.max(1),
        elapsed
    );
    // Cross-query cache telemetry (the --batch router path; always zero
    // on a single in-process solve, so the line is suppressed there).
    let cache_events =
        stats.cache_exact_hits + stats.cache_near_hits + stats.cache_misses + stats.cache_evictions;
    if cache_events > 0 {
        eprintln!(
            "cache: {} exact hits, {} near hits, {} misses, {} evictions",
            stats.cache_exact_hits,
            stats.cache_near_hits,
            stats.cache_misses,
            stats.cache_evictions
        );
    }
}

/// Print one summary line per non-empty latency histogram (`--stats`
/// with telemetry on): count, p50/p90/p99, max.
fn report_histograms(metrics: &MetricsRegistry) {
    let fmt = |ns: u64| format!("{:.3?}", Duration::from_nanos(ns));
    let rows = [
        ("latency", metrics.latency.snapshot()),
        ("queue wait", metrics.queue_wait.snapshot()),
        ("slice", metrics.slice.snapshot()),
        ("lp solve", metrics.lp_solve.snapshot()),
        ("lp load", metrics.lp_load.snapshot()),
        ("tighten A", metrics.tighten_a.snapshot()),
        ("tighten C", metrics.tighten_c.snapshot()),
        ("child feas", metrics.child_feas.snapshot()),
        ("cache lookup", metrics.cache_lookup.snapshot()),
    ];
    for (name, snap) in rows {
        if snap.count == 0 {
            continue;
        }
        eprintln!(
            "  {name:<12} {:>8} recorded  p50 {:>9}  p90 {:>9}  p99 {:>9}  max {:>9}",
            snap.count,
            fmt(snap.p50()),
            fmt(snap.p90()),
            fmt(snap.p99()),
            fmt(snap.max())
        );
    }
}

/// Write one observability JSON payload, newline-terminated.
fn write_json(path: &Path, what: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, format!("{json}\n"))
        .map_err(|e| format!("error writing {what} {}: {e}", path.display()))
}

/// Drain traced queries' flight recorders into `--trace-out`: one
/// `query-NNNN.json` per recorder, numbered in submission order.
fn write_traces<'a>(
    dir: &Path,
    traced: impl Iterator<Item = (usize, &'a SolveTelemetry, String)>,
) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("error creating trace dir {}: {e}", dir.display()))?;
    for (i, tel, label) in traced {
        let Some(recorder) = &tel.recorder else {
            continue;
        };
        let trace = recorder.drain(&label);
        let path = dir.join(format!("query-{:04}.json", i + 1));
        write_json(&path, "trace", &trace.to_json())?;
    }
    Ok(())
}

fn status_label(status: SolveStatus) -> &'static str {
    match status {
        SolveStatus::Optimal => "optimal",
        SolveStatus::NodeLimit => "node-limit",
        SolveStatus::TimeLimit => "time-limit",
        SolveStatus::Cancelled => "cancelled",
        SolveStatus::Rejected => "rejected",
        SolveStatus::Failed => "failed",
    }
}

/// One query solved on the caller's thread (the classic CLI path).
fn run_single(args: &Args) -> ExitCode {
    let problem = match build_problem(args) {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "instance: n={}, m={}, k={}",
        problem.n(),
        problem.m(),
        problem.given.k()
    );

    // Solve. Telemetry attaches to the direct engine path only: a
    // SYM-GD chain's cell jobs are internal and carry no handle.
    let metrics = args.wants_telemetry().then(Arc::<MetricsRegistry>::default);
    let (weights, error, optimal) = if let Some(cell) = args.symgd_cell {
        let seed = seeding::ordinal_seed(&problem);
        match SymGd::with_config(SymGdConfig {
            cell_size: cell,
            adaptive: true,
            total_time: Some(Duration::from_secs(args.budget)),
            threads: args.threads,
            ..SymGdConfig::default()
        })
        .solve(&problem, &seed)
        {
            Ok(r) => {
                if args.stats {
                    eprintln!(
                        "stats: symgd {} cell jobs, {} cell growths",
                        r.iterations, r.cell_growths
                    );
                }
                if let Some(path) = &args.stats_json {
                    let mut sym = rankhow::obs::json::Obj::new();
                    sym.field_u64("iterations", r.iterations as u64);
                    sym.field_u64("cell_growths", r.cell_growths as u64);
                    let mut obj = rankhow::obs::json::Obj::new();
                    obj.field_raw("symgd", &sym.finish());
                    if let Err(msg) = write_json(path, "stats json", &obj.finish()) {
                        eprintln!("{msg}");
                        return ExitCode::FAILURE;
                    }
                }
                (r.weights, r.error, false)
            }
            Err(e) => {
                eprintln!("symgd failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let telemetry = metrics.as_ref().map(|m| args.make_telemetry(m));
        let admitted = Instant::now();
        if let Some(tel) = &telemetry {
            tel.event(Event::Admitted);
        }
        let seed = seeding::ordinal_seed(&problem);
        match RankHow::with_config(SolverConfig {
            time_limit: Some(Duration::from_secs(args.budget)),
            warm_start: Some(seed),
            threads: args.threads,
            telemetry: telemetry.clone(),
            ..SolverConfig::default()
        })
        .solve(&problem)
        {
            Ok(s) => {
                // No scheduler finalizes a single in-process solve, so
                // the CLI records the admission→completion latency
                // itself — latency.count == completed queries in both
                // modes.
                if let Some(tel) = &telemetry {
                    tel.metrics.latency.record(admitted.elapsed());
                    tel.event(Event::Completed {
                        status: status_label(s.status),
                    });
                }
                if args.stats {
                    report_stats(&s.stats);
                    if let Some(m) = &metrics {
                        report_histograms(m);
                    }
                }
                if let Some(path) = &args.stats_json {
                    let mut obj = rankhow::obs::json::Obj::new();
                    obj.field_raw("solver", &s.stats.to_json());
                    if let Err(msg) = write_json(path, "stats json", &obj.finish()) {
                        eprintln!("{msg}");
                        return ExitCode::FAILURE;
                    }
                }
                if let Some(dir) = &args.trace_out {
                    let label = args.data.display().to_string();
                    let traced = telemetry.iter().map(|tel| (0, tel.as_ref(), label.clone()));
                    if let Err(msg) = write_traces(dir, traced) {
                        eprintln!("{msg}");
                        return ExitCode::FAILURE;
                    }
                }
                (s.weights, s.error, s.optimal)
            }
            Err(e) => {
                eprintln!("solve failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let (Some(path), Some(m)) = (&args.metrics_out, &metrics) {
        if let Err(msg) = write_json(path, "metrics", &m.snapshot_json()) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    report(&problem, args, &weights, error, optimal);
    ExitCode::SUCCESS
}

/// The outcome of one batch query, kept until all lines are printed in
/// submission order.
enum BatchOutcome {
    Direct(Solution),
    SymGd(rankhow::core::SymGdResult),
    Failed(String),
}

/// Many queries multiplexed over a router of scheduler pools.
fn run_batch(args: &Args, batch_path: &PathBuf) -> ExitCode {
    let file = match std::fs::File::open(batch_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error reading {}: {e}", batch_path.display());
            return ExitCode::FAILURE;
        }
    };
    // Stream the query file line by line — the *text* held at any time
    // is one line, not the whole file (the built problems still
    // accumulate: every query solves concurrently). A malformed line is
    // a usage error (exit 2, reported with its 1-based line number)
    // before any solving starts.
    let mut queries: Vec<(Args, Arc<OptProblem>)> = Vec::new();
    for (lineno, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("{}:{}: read error: {e}", batch_path.display(), lineno + 1);
                return ExitCode::FAILURE;
            }
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let query = match parse_tokens(&tokens, false) {
            Ok(q) => q,
            Err(msg) => {
                eprintln!("{}:{}: {msg}", batch_path.display(), lineno + 1);
                std::process::exit(2);
            }
        };
        match build_problem(&query) {
            Ok(p) => queries.push((query, Arc::new(p))),
            Err(msg) => {
                eprintln!("{}:{}: {msg}", batch_path.display(), lineno + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    if queries.is_empty() {
        eprintln!("{}: no queries", batch_path.display());
        return ExitCode::FAILURE;
    }

    let default_config = RouterConfig::default();
    let mut retry = default_config.retry;
    if let Some(n) = args.retries {
        retry.max_retries = n;
    }
    if let Some(ms) = args.retry_backoff_ms {
        retry.backoff = Duration::from_millis(ms);
    }
    let router = Router::new(RouterConfig {
        pools: args.pools.max(1),
        threads_per_pool: args.threads.max(1),
        queue_cap: args.queue_cap,
        cache: !args.no_cache,
        cache_cap: args.cache_cap.unwrap_or(default_config.cache_cap),
        retry,
        ..default_config
    });
    eprintln!(
        "batch: {} queries on {} pool(s) x {} worker(s){}",
        queries.len(),
        router.pools(),
        args.threads.max(1),
        if args.queue_cap > 0 {
            format!(", queue cap {}", args.queue_cap)
        } else {
            String::new()
        }
    );

    // Route every direct query as a concurrent job. SYM-GD queries run
    // as concurrent cell-job chains too: a chain is sequential by
    // nature (each cell warm-starts from the previous optimum), so each
    // gets a lightweight driver thread while all the actual solving —
    // cells and direct jobs alike — multiplexes on the router's pools.
    let metrics = args.wants_telemetry().then(Arc::<MetricsRegistry>::default);
    let mut handles: Vec<Option<SolveHandle>> = Vec::with_capacity(queries.len());
    let mut telemetries: Vec<Option<Arc<SolveTelemetry>>> = Vec::with_capacity(queries.len());
    for (query, problem) in &queries {
        if query.symgd_cell.is_some() {
            // Cell-chain jobs are internal: no per-query recorder, and
            // their engine work is excluded from the shared registry.
            handles.push(None);
            telemetries.push(None);
            continue;
        }
        let telemetry = metrics.as_ref().map(|m| args.make_telemetry(m));
        let seed = seeding::ordinal_seed(problem);
        let config = SolverConfig {
            time_limit: Some(Duration::from_secs(query.budget)),
            warm_start: Some(seed),
            telemetry: telemetry.clone(),
            ..SolverConfig::default()
        };
        telemetries.push(telemetry);
        handles.push(Some(router.spawn_shared(Arc::clone(problem), config)));
    }
    let mut outcomes: Vec<Option<BatchOutcome>> = Vec::with_capacity(queries.len());
    outcomes.resize_with(queries.len(), || None);
    let sym_outcomes: Vec<(usize, BatchOutcome)> = std::thread::scope(|scope| {
        let drivers: Vec<_> = queries
            .iter()
            .enumerate()
            .filter_map(|(i, (query, problem))| {
                let cell = query.symgd_cell?;
                let router = &router;
                let budget = query.budget;
                Some(scope.spawn(move || {
                    let seed = seeding::ordinal_seed(problem);
                    let run = SymGd::with_config(SymGdConfig {
                        cell_size: cell,
                        adaptive: true,
                        total_time: Some(Duration::from_secs(budget)),
                        ..SymGdConfig::default()
                    })
                    .solve_on(router, problem, &seed);
                    let outcome = match run {
                        Ok(r) => BatchOutcome::SymGd(r),
                        Err(e) => BatchOutcome::Failed(format!("symgd failed: {e}")),
                    };
                    (i, outcome)
                }))
            })
            .collect();
        drivers
            .into_iter()
            .map(|d| d.join().expect("symgd driver thread panicked"))
            .collect()
    });
    for (i, outcome) in sym_outcomes {
        outcomes[i] = Some(outcome);
    }
    for (i, handle) in handles.into_iter().enumerate() {
        let Some(handle) = handle else { continue };
        outcomes[i] = Some(match handle.join() {
            Ok(sol) => BatchOutcome::Direct(sol),
            Err(e) => BatchOutcome::Failed(format!("solve failed: {e}")),
        });
    }

    // Report in submission order.
    let mut failures = 0usize;
    let total = queries.len();
    for (i, ((query, problem), outcome)) in queries.iter().zip(&outcomes).enumerate() {
        println!(
            "=== query {}/{}: {} ===",
            i + 1,
            total,
            query.data.display()
        );
        match outcome.as_ref().expect("every query has an outcome") {
            BatchOutcome::Direct(sol) if sol.status == SolveStatus::Rejected => {
                // A shed query has no incumbent to report: the run
                // queue was at --queue-cap when it arrived.
                println!("status: rejected (pool at capacity; re-submit)");
                failures += 1;
            }
            BatchOutcome::Direct(sol) if sol.status == SolveStatus::Failed => {
                // Every attempt the retry policy allowed ended in a
                // caught panic (or the serving pools died). The message
                // is deterministic so batch transcripts diff cleanly.
                println!("status: failed (job did not complete; retries exhausted)");
                failures += 1;
            }
            BatchOutcome::Direct(sol) => {
                report(problem, query, &sol.weights, sol.error, sol.optimal);
                println!("status: {}", status_label(sol.status));
            }
            BatchOutcome::SymGd(r) => {
                report(problem, query, &r.weights, r.error, false);
                println!("status: symgd ({} cell jobs)", r.iterations);
            }
            BatchOutcome::Failed(msg) => {
                println!("status: failed ({msg})");
                failures += 1;
            }
        }
    }
    let stats = router.stats();
    eprintln!(
        "router: {} admitted, {} rejected, {} migrated",
        stats.admissions, stats.rejections, stats.migrations
    );
    // Fault-tolerance counters get their own line, printed only when
    // something actually went wrong (or was retried) so healthy batch
    // transcripts stay byte-identical to previous releases.
    if stats.retries + stats.retries_exhausted + stats.quarantines > 0
        || stats.solver.job_panics + stats.solver.worker_respawns > 0
    {
        eprintln!(
            "faults: {} job panics, {} worker respawns, {} retries ({} exhausted), {} quarantines",
            stats.solver.job_panics,
            stats.solver.worker_respawns,
            stats.retries,
            stats.retries_exhausted,
            stats.quarantines
        );
    }
    if args.stats {
        // Aggregate over every completed job across all pools.
        report_stats(&stats.solver);
        if let Some(m) = &metrics {
            report_histograms(m);
        }
    }
    if let Some(path) = &args.stats_json {
        let mut obj = rankhow::obs::json::Obj::new();
        obj.field_raw("router", &stats.to_json());
        if let Err(msg) = write_json(path, "stats json", &obj.finish()) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    if let (Some(path), Some(m)) = (&args.metrics_out, &metrics) {
        if let Err(msg) = write_json(path, "metrics", &m.snapshot_json()) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = &args.trace_out {
        let traced = telemetries.iter().enumerate().filter_map(|(i, tel)| {
            let tel = tel.as_deref()?;
            let label = format!("query {}: {}", i + 1, queries[i].0.data.display());
            Some((i, tel, label))
        });
        if let Err(msg) = write_traces(dir, traced) {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    if failures > 0 {
        eprintln!("{failures}/{total} queries failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_tokens(&tokens, true) {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help requested" {
                eprintln!("error: {msg}");
            }
            usage();
        }
    };
    match &args.batch {
        Some(batch) => run_batch(&args, batch),
        None => run_single(&args),
    }
}
