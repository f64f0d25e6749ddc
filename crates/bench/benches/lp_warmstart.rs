//! Warm-started vs cold LP benchmarks for the incremental layer behind
//! PR 5: the full node loop with `SolverConfig::warm_lp` on/off, and the
//! isolated `2m` box-tightening probes (objective swaps) against fresh
//! two-phase solves of the same region.
//!
//! Kept compiling by the CI `cargo bench --no-run` step; run with
//! `cargo bench --bench lp_warmstart`.
//!
//! Wall-clock on the single-core dev container is noisy; the *assertive*
//! comparison (warm performs strictly fewer simplex pivots than cold)
//! lives in `crates/core/tests/warm_lp_parity.rs`, which CI runs in
//! release mode. These benches track the corresponding time numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rankhow_bench::setups;
use rankhow_core::{RankHow, SolverConfig};
use rankhow_data::synthetic::Distribution;
use rankhow_lp::{IncrementalLp, Op, Problem, Sense};
use std::hint::black_box;
use std::time::Duration;

/// Cold vs warm node loop over the paper's synthetic workloads. Node
/// limits keep each solve bench-sized; the measurement is the time to
/// burn the same node budget with and without LP warm starts.
fn node_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_warmstart/node_loop");
    group.sample_size(10);
    let workloads = [
        ("uniform_n200_k5", Distribution::Uniform, 200usize, 5usize),
        ("anticorr_n100_k4", Distribution::AntiCorrelated, 100, 4),
    ];
    for (name, dist, n, k) in workloads {
        let problem = setups::synthetic_problem(dist, 0, n, 4, k, 3, false);
        for (label, warm) in [("cold", false), ("warm", true)] {
            group.bench_with_input(BenchmarkId::new(name, label), &warm, |b, &warm| {
                b.iter(|| {
                    let sol = RankHow::with_config(SolverConfig {
                        threads: 1,
                        warm_lp: warm,
                        node_limit: 2_000,
                        time_limit: Some(Duration::from_secs(5)),
                        ..SolverConfig::default()
                    })
                    .solve(&problem)
                    .unwrap();
                    black_box((sol.error, sol.stats.lp_pivots))
                });
            });
        }
    }
    group.finish();
}

/// The canonical node-region shape (simplex weights + decision
/// half-spaces), as loaded once per node.
fn node_region(m: usize, cuts: usize) -> Problem {
    let mut p = Problem::new(Sense::Minimize);
    let w: Vec<usize> = (0..m)
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

/// The `2m` box-tightening probes of one region: cold re-solves the
/// region from an empty basis per probe; warm loads the tableau once
/// and objective-swaps through the probes.
fn box_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_warmstart/box_probes");
    for &(m, cuts) in &[(5usize, 8usize), (8, 16)] {
        let region = node_region(m, cuts);
        group.bench_with_input(
            BenchmarkId::new("cold", format!("m{m}_c{cuts}")),
            &region,
            |b, region| {
                let mut ws = rankhow_lp::SimplexWorkspace::new();
                b.iter(|| {
                    let mut probe = region.clone();
                    for j in 0..m {
                        probe.set_objective(j, 1.0);
                        probe.set_sense(Sense::Minimize);
                        black_box(probe.solve_with(&mut ws).unwrap());
                        probe.set_sense(Sense::Maximize);
                        black_box(probe.solve_with(&mut ws).unwrap());
                        probe.set_objective(j, 0.0);
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("warm", format!("m{m}_c{cuts}")),
            &region,
            |b, region| {
                let mut inc = IncrementalLp::new();
                b.iter(|| {
                    inc.load(region, None).unwrap();
                    for j in 0..m {
                        black_box(inc.solve_objective(&[(j, 1.0)], Sense::Minimize).unwrap());
                        black_box(inc.solve_objective(&[(j, 1.0)], Sense::Maximize).unwrap());
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, node_loop, box_probes);
criterion_main!(benches);
