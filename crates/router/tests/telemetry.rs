//! Full-stack telemetry contracts for the serving path: the flight
//! recorder sees a query's whole router → scheduler → engine journey in
//! order, latency accounting matches completed-query counts across the
//! exact-hit and rejection fast paths, the `RouterConfig::telemetry`
//! gate silences exactly the router layer, and — the load-bearing
//! invariant — attaching telemetry never changes certified answers, at
//! any pool/thread shape.

// The shared fixture module ships helpers for the blocker-based
// admission tests too; this suite only needs a subset.
#[allow(dead_code)]
#[path = "../../serve/tests/support/mod.rs"]
mod support;

use proptest::prelude::*;
use rankhow_core::{Solution, SolveStatus, SolverConfig};
use rankhow_obs::{MetricsRegistry, SolveTelemetry};
use rankhow_router::{Router, RouterConfig};
use std::sync::Arc;
use support::{blocker_config, blocker_problem, build, light_problem, small_instance};

fn telemetry() -> Arc<SolveTelemetry> {
    Arc::new(
        SolveTelemetry::new(Arc::new(MetricsRegistry::new()))
            .with_recorder(4096)
            .with_phase_sample(1),
    )
}

fn with_telemetry(tel: &Arc<SolveTelemetry>) -> SolverConfig {
    SolverConfig {
        telemetry: Some(Arc::clone(tel)),
        ..SolverConfig::default()
    }
}

fn event_names(tel: &SolveTelemetry) -> Vec<&'static str> {
    tel.recorder
        .as_ref()
        .expect("recorder attached")
        .drain("test")
        .events
        .iter()
        .map(|e| e.event.name())
        .collect()
}

#[test]
fn trace_covers_the_whole_solve_path_in_order() {
    let router = Router::new(RouterConfig {
        pools: 1,
        threads_per_pool: 1,
        ..RouterConfig::default()
    });
    let tel = telemetry();
    let sol = router
        .spawn_shared(Arc::new(light_problem()), with_telemetry(&tel))
        .join()
        .expect("feasible instance");
    assert!(sol.optimal);

    let names = event_names(&tel);
    // The serving layers appear in admission order, engine work in
    // between, completion last.
    let pos = |name: &str| {
        names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("missing event {name}: {names:?}"))
    };
    assert_eq!(pos("admitted"), 0, "admission is the first event");
    assert!(pos("admitted") < pos("placed"));
    assert!(pos("placed") < pos("dequeued"));
    assert!(pos("dequeued") < pos("root_init"));
    assert!(pos("root_init") < pos("completed"));
    assert_eq!(
        names.last(),
        Some(&"completed"),
        "completion closes the trace"
    );
    assert_eq!(names.iter().filter(|n| **n == "completed").count(), 1);

    // One query: one latency, one queue wait, one cache lookup (the
    // default-on cache missed), and a sighted pool-depth gauge.
    let m = &tel.metrics;
    assert_eq!(m.latency.snapshot().count, 1);
    assert_eq!(m.queue_wait.snapshot().count, 1);
    assert_eq!(m.cache_lookup.snapshot().count, 1);
    assert_eq!(m.pool_depths().len(), 1);
    // Queue wait and end-to-end latency measure from the same admission
    // stamp, so wait can never exceed latency.
    assert!(m.queue_wait.snapshot().max() <= m.latency.snapshot().max());
}

#[test]
fn latency_counts_completed_queries_across_fast_paths() {
    // Exact cache hits complete at the router without touching a pool —
    // they still count one latency entry each.
    let router = Router::new(RouterConfig {
        pools: 1,
        threads_per_pool: 1,
        ..RouterConfig::default()
    });
    let problem = Arc::new(light_problem());
    let miss_tel = telemetry();
    router
        .spawn_shared(Arc::clone(&problem), with_telemetry(&miss_tel))
        .join()
        .expect("feasible instance");
    let hit_tel = telemetry();
    let hit = router
        .spawn_shared(Arc::clone(&problem), with_telemetry(&hit_tel))
        .join()
        .expect("cached solution");
    assert_eq!(hit.stats.cache_exact_hits, 1);
    assert_eq!(hit_tel.metrics.latency.snapshot().count, 1);
    let hit_names = event_names(&hit_tel);
    assert!(hit_names.contains(&"cache_exact_hit"), "{hit_names:?}");
    assert!(hit_names.contains(&"completed"));
    assert!(
        !hit_names.contains(&"placed"),
        "an exact hit never reaches a pool: {hit_names:?}"
    );

    // Shed queries never complete: a rejected event, no latency entry.
    let tight = Router::new(RouterConfig {
        pools: 1,
        threads_per_pool: 1,
        queue_cap: 1,
        cache: false,
        ..RouterConfig::default()
    });
    let blocker = tight.spawn_shared(Arc::new(blocker_problem(12, 6, 0)), blocker_config());
    let shed_tel = telemetry();
    let shed = tight
        .spawn_shared(Arc::clone(&problem), with_telemetry(&shed_tel))
        .join()
        .expect("rejection is a status, not an error");
    assert_eq!(shed.status, SolveStatus::Rejected);
    assert_eq!(shed_tel.metrics.latency.snapshot().count, 0);
    let shed_names = event_names(&shed_tel);
    assert!(shed_names.contains(&"rejected"), "{shed_names:?}");
    assert!(!shed_names.contains(&"completed"), "{shed_names:?}");
    blocker.cancel();
}

#[test]
fn router_telemetry_flag_silences_exactly_the_router_layer() {
    let router = Router::new(RouterConfig {
        pools: 1,
        threads_per_pool: 1,
        telemetry: false,
        ..RouterConfig::default()
    });
    let tel = telemetry();
    let sol = router
        .spawn_shared(Arc::new(light_problem()), with_telemetry(&tel))
        .join()
        .expect("feasible instance");
    assert!(sol.optimal);
    let names = event_names(&tel);
    for router_event in ["admitted", "placed", "cache_exact_hit", "rejected"] {
        assert!(
            !names.contains(&router_event),
            "router layer must stay silent, saw {router_event}: {names:?}"
        );
    }
    // Scheduler and engine layers still record through the handle.
    assert!(names.contains(&"dequeued"), "{names:?}");
    assert!(names.contains(&"root_init"), "{names:?}");
    assert!(names.contains(&"completed"), "{names:?}");
    let m = &tel.metrics;
    assert_eq!(m.cache_lookup.snapshot().count, 0, "router-layer histogram");
    assert!(m.pool_depths().is_empty(), "router-layer gauge");
    assert_eq!(m.latency.snapshot().count, 1, "scheduler-layer histogram");
}

/// The serve-layer cross-check for two exhaustive solves of one
/// instance: each one's incumbent error is a lower bound on the other's
/// certified error (band incumbents are interleaving-dependent, so
/// exact equality is not pinned — the bracket overlap is).
fn brackets_overlap(a: &Solution, b: &Solution) -> bool {
    a.error <= b.certified_error && b.error <= a.certified_error
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The disabled-path parity pin the instrumentation work hangs off:
    /// for random instances, at every serving shape the issue calls out
    /// (threads {1, 2, 4} × pools {1, 4}), a telemetry-carrying solve
    /// and a bare solve prove overlapping certified brackets — and at
    /// threads = 1 the answers are identical bit-for-bit.
    #[test]
    fn telemetry_on_matches_telemetry_off_at_every_shape(inst in small_instance()) {
        let Some(problem) = build(&inst) else {
            return Err(TestCaseError::reject("invalid ranking"));
        };
        let problem = Arc::new(problem);
        for &(threads, pools) in &[(1, 1), (2, 1), (4, 1), (1, 4), (2, 4), (4, 4)] {
            let solve = |telemetry: Option<Arc<SolveTelemetry>>| {
                let router = Router::new(RouterConfig {
                    pools,
                    threads_per_pool: threads,
                    ..RouterConfig::default()
                });
                router
                    .spawn_shared(
                        Arc::clone(&problem),
                        SolverConfig { telemetry, ..SolverConfig::default() },
                    )
                    .join()
                    .expect("feasible unconstrained instance")
            };
            let tel = telemetry();
            let observed = solve(Some(Arc::clone(&tel)));
            let bare = solve(None);
            prop_assert!(observed.optimal);
            prop_assert!(bare.optimal);
            prop_assert!(
                brackets_overlap(&observed, &bare),
                "telemetry changed the certified bracket at threads={} pools={}: \
                 on ({}, {}) vs off ({}, {})",
                threads, pools,
                observed.error, observed.certified_error,
                bare.error, bare.certified_error
            );
            if threads == 1 && pools == 1 {
                prop_assert_eq!(&observed.weights, &bare.weights);
                prop_assert_eq!(observed.error, bare.error);
                prop_assert_eq!(observed.certified_error, bare.certified_error);
            }
            prop_assert_eq!(
                tel.metrics.lp_solve.snapshot().count,
                observed.stats.lp_solves as u64,
                "lp histogram reconciles at threads={} pools={}",
                threads, pools
            );
            prop_assert_eq!(tel.metrics.latency.snapshot().count, 1);
        }
    }
}
