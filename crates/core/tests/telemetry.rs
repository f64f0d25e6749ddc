//! Engine-layer telemetry contracts: the LP-solve histogram reconciles
//! exactly with `SolverStats::lp_solves`, the flight recorder sees the
//! engine's events in order, and attaching telemetry never changes the
//! single-threaded solve (which is deterministic, so the comparison is
//! bit-for-bit).

use rankhow_core::{OptProblem, RankHow, SolverConfig};
use rankhow_data::Dataset;
use rankhow_obs::{MetricsRegistry, SolveTelemetry};
use rankhow_ranking::GivenRanking;
use std::sync::Arc;

/// A fixed instance with nonzero optimal error: deep enough to solve
/// LPs, tighten boxes, and improve the incumbent more than once.
fn probe_problem() -> OptProblem {
    let data = Dataset::from_rows(
        vec!["a".into(), "b".into(), "c".into()],
        vec![
            vec![3.0, 2.0, 8.0],
            vec![4.0, 1.0, 15.0],
            vec![1.0, 7.0, 14.0],
            vec![2.0, 3.0, 9.0],
            vec![6.0, 5.0, 2.0],
        ],
    )
    .unwrap();
    let given = GivenRanking::from_positions(vec![Some(3), Some(1), None, Some(2), None]).unwrap();
    OptProblem::new(data, given).unwrap()
}

fn telemetry() -> Arc<SolveTelemetry> {
    Arc::new(
        SolveTelemetry::new(Arc::new(MetricsRegistry::new()))
            .with_recorder(4096)
            .with_phase_sample(1),
    )
}

#[test]
fn lp_histogram_count_reconciles_with_lp_solves() {
    let problem = probe_problem();
    let tel = telemetry();
    let sol = RankHow::with_config(SolverConfig {
        threads: 1,
        telemetry: Some(Arc::clone(&tel)),
        ..SolverConfig::default()
    })
    .solve(&problem)
    .expect("feasible instance");
    assert!(sol.optimal);
    assert!(sol.stats.lp_solves > 0, "instance must exercise the LP");

    // The invariant every instrumentation site preserves: one histogram
    // entry per `lp_solves` increment.
    assert_eq!(
        tel.metrics.lp_solve.snapshot().count,
        sol.stats.lp_solves as u64,
        "lp_solve histogram must reconcile with SolverStats::lp_solves"
    );
    assert!(
        tel.metrics.slice.snapshot().count >= 1,
        "steps record slices"
    );
    if sol.stats.nodes > 0 {
        // phase_sample = 1: every box tightening records its phases
        // (the tighten ledger the benchmark's `engine.tighten_ms` sums).
        assert!(tel.metrics.tighten_a.snapshot().count > 0);
        assert!(tel.metrics.tighten_c.snapshot().count > 0);
    }
}

#[test]
fn flight_recorder_sees_the_engine_events_in_order() {
    let problem = probe_problem();
    let tel = telemetry();
    let sol = RankHow::with_config(SolverConfig {
        threads: 1,
        telemetry: Some(Arc::clone(&tel)),
        ..SolverConfig::default()
    })
    .solve(&problem)
    .expect("feasible instance");

    let trace = tel.recorder.as_ref().expect("recorder attached").drain("t");
    assert_eq!(trace.dropped, 0, "4096 events is plenty for this instance");
    let names: Vec<&str> = trace.events.iter().map(|e| e.event.name()).collect();
    assert_eq!(
        names.iter().filter(|n| **n == "root_init").count(),
        1,
        "exactly one root initialization"
    );
    assert_eq!(
        names.iter().filter(|n| **n == "incumbent").count(),
        sol.stats.incumbents,
        "one incumbent event per improvement (threads = 1 is deterministic)"
    );
    let starts = names.iter().filter(|n| **n == "slice_start").count();
    let ends = names.iter().filter(|n| **n == "slice_end").count();
    assert!(starts >= 1);
    assert_eq!(starts, ends, "every started slice ends");
    // Sequence numbers and timestamps are monotone.
    assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));
    assert!(trace.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    // Slice nodes sum to the node count the engine reports.
    let nodes: u64 = trace
        .events
        .iter()
        .filter_map(|e| match e.event {
            rankhow_obs::Event::SliceEnd { nodes, .. } => Some(nodes),
            _ => None,
        })
        .sum();
    assert_eq!(nodes, sol.stats.nodes as u64, "slices account every node");
}

#[test]
fn telemetry_never_changes_the_single_threaded_solve() {
    let problem = probe_problem();
    let solve = |telemetry| {
        RankHow::with_config(SolverConfig {
            threads: 1,
            telemetry,
            ..SolverConfig::default()
        })
        .solve(&problem)
        .expect("feasible instance")
    };
    let plain = solve(None);
    let observed = solve(Some(telemetry()));
    // threads = 1 explores deterministically, so "never influences the
    // search" is checkable bit-for-bit, not just bracket overlap.
    assert_eq!(observed.weights, plain.weights);
    assert_eq!(observed.error, plain.error);
    assert_eq!(observed.optimal, plain.optimal);
    assert_eq!(observed.certified_error, plain.certified_error);
    assert_eq!(observed.certified_weights, plain.certified_weights);
    assert_eq!(observed.stats.nodes, plain.stats.nodes);
    assert_eq!(observed.stats.lp_solves, plain.stats.lp_solves);
    assert_eq!(observed.stats.incumbents, plain.stats.incumbents);
}
