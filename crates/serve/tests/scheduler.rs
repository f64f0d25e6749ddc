//! Cross-validation of the job-based scheduler against the blocking
//! solver, plus the serving semantics the scheduler promises:
//! concurrent-job optimum parity, monotone anytime incumbents under
//! cancellation, prompt deadline expiry, and SYM-GD-on-scheduler
//! equivalence.

mod support;

use proptest::prelude::*;
use rankhow_core::{
    OptProblem, RankHow, SolveStatus, SolverConfig, SymGd, SymGdConfig, WeightConstraints,
};
use rankhow_data::Dataset;
use rankhow_ranking::GivenRanking;
use rankhow_serve::Scheduler;
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{blocker_config, blocker_problem, build, light_problem, small_instance};

/// A deeper anti-correlated instance: the search tree survives many
/// node slices, which the cancellation/deadline tests rely on.
fn deep_problem(n: usize, k: usize, twist: u64) -> OptProblem {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                i as f64,
                (n - i) as f64,
                ((i as u64 * (3 + twist % 5)) % 7) as f64,
            ]
        })
        .collect();
    let scores: Vec<f64> = rows.iter().map(|r| r[0] * 0.4 + r[2]).collect();
    let given = GivenRanking::from_scores(&scores, k, 0.0).unwrap();
    let names = vec!["a".into(), "b".into(), "c".into()];
    let data = Dataset::from_rows(names, rows).unwrap();
    OptProblem::new(data, given).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// N ≥ 4 jobs solved concurrently on one scheduler prove the same
    /// *certified* optimum N sequential `RankHow::solve` calls prove,
    /// and every returned weight vector realizes its claimed error.
    ///
    /// Exact error equality is deliberately NOT asserted: the instances
    /// are built with `Tolerances::exact()`, whose (ε2, ε1) = (0, 1e-12)
    /// gap band is excluded from every optimality proof. Two searches
    /// may legitimately return different errors when one's incumbent
    /// sits inside that band (roughly 1% of jobs did, which made the
    /// old `sol.error == seq_err` assertion flaky). What both searches
    /// DO prove is a bracket on the certified optimum C* — the best
    /// error over weight vectors avoiding the band:
    /// `error ≤ C* ≤ certified_error`. The brackets must therefore
    /// overlap in both directions, and when both final answers are
    /// themselves certified they pin C* exactly and must agree.
    #[test]
    fn concurrent_jobs_match_sequential_solves(insts in prop::collection::vec(small_instance(), 4..6)) {
        let problems: Vec<OptProblem> = insts.iter().filter_map(build).collect();
        if problems.len() < 4 {
            return Err(TestCaseError::reject("invalid ranking"));
        }
        let sequential: Vec<rankhow_core::Solution> = problems
            .iter()
            .map(|p| {
                let sol = RankHow::with_config(SolverConfig { threads: 1, ..SolverConfig::default() })
                    .solve(p)
                    .expect("feasible unconstrained instance");
                assert!(sol.optimal);
                sol
            })
            .collect();
        let scheduler = Scheduler::new(4);
        let handles: Vec<_> = problems
            .iter()
            .map(|p| scheduler.spawn(p.clone(), SolverConfig::default()))
            .collect();
        for ((handle, p), seq) in handles.into_iter().zip(&problems).zip(&sequential) {
            let sol = handle.join().expect("feasible unconstrained instance");
            prop_assert!(sol.optimal, "scheduler job must close the tree");
            prop_assert_eq!(sol.status, SolveStatus::Optimal);
            prop_assert_eq!(p.evaluate(&sol.weights), sol.error, "weights do not realize the error");
            // Each search brackets the certified optimum C*:
            // its error is a lower bound, its certified incumbent an
            // upper bound. Cross-check the brackets pairwise.
            prop_assert!(sol.error <= sol.certified_error);
            prop_assert!(seq.error <= seq.certified_error);
            prop_assert!(
                sol.error <= seq.certified_error,
                "scheduler lower bound {} exceeds sequential certified bound {}",
                sol.error, seq.certified_error
            );
            prop_assert!(
                seq.error <= sol.certified_error,
                "sequential lower bound {} exceeds scheduler certified bound {}",
                seq.error, sol.certified_error
            );
            if sol.certified_error != u64::MAX {
                prop_assert_eq!(
                    p.evaluate(&sol.certified_weights), sol.certified_error,
                    "certified incumbent does not realize its error"
                );
                prop_assert!(
                    !rankhow_core::verify::relies_on_gap_band(p, &sol.certified_weights),
                    "certified incumbent relies on the gap band"
                );
            }
            if sol.certified && seq.certified {
                // Both answers avoid the band, so both equal C* exactly.
                prop_assert_eq!(
                    sol.error, seq.error,
                    "certified optima diverged between scheduler and sequential"
                );
            }
        }
        let agg = scheduler.stats();
        prop_assert_eq!(agg.jobs, problems.len(), "aggregate stats count completed jobs");
    }

    /// Cancelling a job mid-search yields a monotone best-so-far: every
    /// later observation (including the final solution) is no worse
    /// than any earlier `best_so_far()` observation.
    #[test]
    fn cancelled_job_is_monotone_no_worse_than_observations(twist in 0u64..40) {
        let problem = deep_problem(11 + (twist % 3) as usize, 6, twist);
        let scheduler = Scheduler::new(2);
        // No start heuristic: keep the incumbent improving during the
        // search so the observations are interesting.
        let handle = scheduler.spawn(problem.clone(), SolverConfig {
            root_samples: 0,
            ..SolverConfig::default()
        });
        let mut observed: Vec<u64> = Vec::new();
        for _ in 0..50 {
            if let Some((err, w)) = handle.best_so_far() {
                prop_assert_eq!(problem.evaluate(&w), err, "incumbent snapshot inconsistent");
                if let Some(&last) = observed.last() {
                    prop_assert!(err <= last, "best-so-far regressed: {} after {}", err, last);
                }
                observed.push(err);
            }
            if handle.is_finished() {
                break;
            }
            std::thread::yield_now();
        }
        handle.cancel();
        let sol = handle.join().expect("root incumbent exists");
        prop_assert!(
            sol.status == SolveStatus::Cancelled || sol.status == SolveStatus::Optimal,
            "unexpected status {:?}", sol.status
        );
        if sol.status == SolveStatus::Cancelled {
            prop_assert!(!sol.optimal);
        }
        for &err in &observed {
            prop_assert!(sol.error <= err, "final {} worse than observed {}", sol.error, err);
        }
        prop_assert_eq!(problem.evaluate(&sol.weights), sol.error);
    }

    /// Deadline-expired jobs terminate promptly: the join returns well
    /// within the test budget even though the full search would take
    /// far longer, and the status records the truncation.
    #[test]
    fn deadline_expires_promptly(twist in 0u64..40) {
        let problem = deep_problem(12, 7, twist);
        let scheduler = Scheduler::new(2);
        let handle = scheduler.spawn(problem.clone(), SolverConfig {
            root_samples: 0,
            ..SolverConfig::default()
        });
        handle.deadline(Duration::from_millis(30));
        let t0 = Instant::now();
        let sol = handle.join().expect("root incumbent exists");
        // Generous CI bound: the node-granular check means overshoot is
        // at most one slice per worker, far below a second.
        prop_assert!(
            t0.elapsed() < Duration::from_secs(10),
            "deadline ignored: join took {:?}", t0.elapsed()
        );
        prop_assert!(
            sol.status == SolveStatus::TimeLimit || sol.status == SolveStatus::Optimal,
            "unexpected status {:?}", sol.status
        );
        prop_assert_eq!(sol.optimal, sol.status == SolveStatus::Optimal);
        prop_assert_eq!(problem.evaluate(&sol.weights), sol.error);
    }
}

#[test]
fn try_spawn_respects_the_cap_and_hands_the_inputs_back() {
    let scheduler = Scheduler::new(1);
    let problem = Arc::new(blocker_problem(12, 6, 0));
    let occupant = scheduler.spawn_shared(Arc::clone(&problem), blocker_config());
    assert_eq!(scheduler.live_jobs(), 1);
    // Cap 1 is reached: the spawn is refused and the submitted problem
    // comes back unchanged (same allocation, not a copy).
    let refused = scheduler
        .try_spawn_shared(Arc::clone(&problem), SolverConfig::default(), 1)
        .err()
        .expect("cap reached");
    assert!(Arc::ptr_eq(&refused.problem, &problem));
    assert_eq!(scheduler.live_jobs(), 1, "refused spawns are not enqueued");
    // Cap 0 = unbounded: the same spawn is admitted.
    let second = scheduler
        .try_spawn_shared(refused.problem, refused.config, 0)
        .ok()
        .expect("cap 0 admits unconditionally");
    assert_eq!(scheduler.live_jobs(), 2);
    occupant.cancel();
    second.cancel();
}

#[test]
fn rejected_handles_complete_immediately_without_incumbent() {
    let handle = rankhow_serve::SolveHandle::rejected();
    assert!(handle.is_finished());
    assert!(handle.best_so_far().is_none());
    handle.cancel(); // no-op
    handle.deadline(Duration::from_millis(1)); // no-op
    let sol = handle.join().expect("rejection is a status, not an error");
    assert_eq!(sol.status, SolveStatus::Rejected);
    assert!(sol.status.is_bounded());
    assert!(!sol.optimal);
    assert!(sol.weights.is_empty());
    assert_eq!(sol.error, u64::MAX);
}

#[test]
fn unstarted_jobs_migrate_between_pools() {
    let source = Scheduler::new(1);
    let target = Scheduler::new(2);
    let problem = Arc::new(blocker_problem(12, 6, 0));
    // A light query that solves in milliseconds once a worker reaches it.
    let light = Arc::new(light_problem());
    // The lone worker parks in the blocker's root setup; three more
    // spawns stay unstarted in the source run queue.
    let blocker = source.spawn_shared(Arc::clone(&problem), blocker_config());
    let waiters: Vec<_> = (0..3)
        .map(|_| source.spawn_shared(Arc::clone(&light), SolverConfig::default()))
        .collect();
    assert_eq!(source.live_jobs(), 4);
    let load = source.load();
    assert_eq!(load.workers, 1);
    assert!(
        load.queued >= 3,
        "waiters must be unstarted while the blocker roots, queued {}",
        load.queued
    );
    // Migrate one: live accounting follows the job to its new pool,
    // and the job keeps working — its handle resolves through `target`.
    let migrated = source.take_unstarted().expect("unstarted job available");
    assert_eq!(source.live_jobs(), 3);
    target.adopt(migrated);
    assert_eq!(target.live_jobs(), 1);
    blocker.cancel();
    for handle in waiters {
        let sol = handle.join().expect("feasible instance");
        assert!(sol.optimal, "migration must not change results");
    }
    assert_eq!(
        target.stats().jobs,
        1,
        "the adopted job completed on the target pool"
    );
    assert_eq!(target.jobs_spawned(), 0, "adoption is not a spawn");
}

#[test]
fn dropping_a_taken_job_sheds_it_instead_of_hanging_its_joiner() {
    let scheduler = Scheduler::new(1);
    let problem = Arc::new(blocker_problem(12, 6, 0));
    let blocker = scheduler.spawn_shared(Arc::clone(&problem), blocker_config());
    let waiter = scheduler.spawn_shared(Arc::clone(&problem), SolverConfig::default());
    let taken = scheduler.take_unstarted().expect("waiter is unstarted");
    drop(taken); // never adopted anywhere
    let sol = waiter.join().expect("shed, not an error");
    assert_eq!(sol.status, SolveStatus::Rejected);
    assert!(sol.weights.is_empty());
    blocker.cancel();
}

#[test]
fn infeasible_constraints_surface_through_join() {
    let data = Dataset::from_rows(
        vec!["a".into(), "b".into()],
        vec![vec![1.0, 0.0], vec![0.0, 1.0]],
    )
    .unwrap();
    let given = GivenRanking::from_positions(vec![Some(1), Some(2)]).unwrap();
    let problem = OptProblem::new(data, given)
        .unwrap()
        .with_constraints(
            WeightConstraints::none()
                .min_weight(0, 0.8)
                .max_weight(0, 0.1),
        )
        .unwrap();
    let scheduler = Scheduler::new(2);
    let handle = scheduler.spawn(problem, SolverConfig::default());
    assert!(matches!(
        handle.join(),
        Err(rankhow_core::SolverError::Infeasible)
    ));
}

#[test]
fn symgd_chain_on_scheduler_matches_blocking_path() {
    // A hidden-linear-function instance (same shape as the SYM-GD unit
    // tests): the scheduler path must be step-for-step identical to the
    // blocking path when both run one worker.
    let n = 24;
    let hidden = [0.55, 0.35, 0.1];
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..3)
                .map(|j| (((i * (7 + 3 * j) + j) % n) as f64) / n as f64)
                .collect()
        })
        .collect();
    let scores: Vec<f64> = rows
        .iter()
        .map(|r| r.iter().zip(hidden.iter()).map(|(a, w)| a * w).sum())
        .collect();
    let names = (0..3).map(|j| format!("A{j}")).collect();
    let data = Dataset::from_rows(names, rows).unwrap();
    let given = GivenRanking::from_scores(&scores, 6, 0.0).unwrap();
    let problem = Arc::new(OptProblem::new(data, given).unwrap());
    let seed = [0.5, 0.4, 0.1];

    let config = SymGdConfig {
        threads: 1,
        ..SymGdConfig::default()
    };
    let blocking = SymGd::with_config(config.clone())
        .solve(&problem, &seed)
        .unwrap();
    let scheduler = Scheduler::new(1);
    let served = SymGd::with_config(config)
        .solve_on(&scheduler, &problem, &seed)
        .unwrap();
    assert_eq!(served.error, blocking.error, "scheduler chain diverged");
    assert_eq!(
        served.weights, blocking.weights,
        "single-worker determinism"
    );
    assert_eq!(served.iterations, blocking.iterations);
    assert_eq!(scheduler.jobs_spawned() as usize, served.iterations);
    assert_eq!(served.error, 0, "seeded near the hidden weights");
}

#[test]
fn dropping_the_scheduler_cancels_outstanding_jobs() {
    let problem = deep_problem(13, 7, 1);
    let scheduler = Scheduler::new(1);
    let handle = scheduler.spawn(
        problem,
        SolverConfig {
            root_samples: 0,
            ..SolverConfig::default()
        },
    );
    drop(scheduler);
    let t0 = Instant::now();
    // Either the pool got far enough for a best-so-far incumbent
    // (Cancelled/Optimal) or the job was stopped before its root setup
    // (reported as Infeasible per the engine's no-incumbent rule);
    // what matters is that join returns promptly instead of hanging.
    match handle.join() {
        Ok(sol) => assert!(
            sol.status == SolveStatus::Cancelled || sol.status == SolveStatus::Optimal,
            "unexpected status {:?}",
            sol.status
        ),
        Err(rankhow_core::SolverError::Infeasible) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(10));
}

#[test]
fn best_so_far_streams_before_completion() {
    let problem = deep_problem(12, 6, 3);
    let scheduler = Scheduler::new(1);
    let handle = scheduler.spawn(
        problem.clone(),
        SolverConfig {
            root_samples: 0,
            ..SolverConfig::default()
        },
    );
    // The root center is offered as the first incumbent during root
    // setup, so an observation must appear while (or before) the
    // search runs.
    let mut saw_incumbent = false;
    for _ in 0..100_000 {
        if let Some((err, w)) = handle.best_so_far() {
            assert_eq!(problem.evaluate(&w), err);
            saw_incumbent = true;
            break;
        }
        if handle.is_finished() {
            break;
        }
        std::thread::yield_now();
    }
    // Don't run the deep search to exhaustion — the observation was the
    // point; stop the job and check the stream's last value survives.
    handle.cancel();
    let sol = handle.join().unwrap();
    assert!(
        saw_incumbent || sol.optimal,
        "no incumbent ever observed on a feasible instance"
    );
}

#[test]
fn node_limited_jobs_report_node_limit_status() {
    let problem = deep_problem(12, 7, 5);
    let scheduler = Scheduler::new(2);
    let handle = scheduler.spawn(
        problem.clone(),
        SolverConfig {
            node_limit: 3,
            root_samples: 0,
            incumbent_sampling: false,
            ..SolverConfig::default()
        },
    );
    let sol = handle.join().expect("root incumbent exists");
    if !sol.optimal {
        assert_eq!(sol.status, SolveStatus::NodeLimit);
        assert!(sol.status.is_bounded());
    }
    assert_eq!(problem.evaluate(&sol.weights), sol.error);
}

#[test]
fn admission_stamp_survives_migration_and_feeds_queue_wait() {
    use rankhow_obs::{MetricsRegistry, SolveTelemetry};
    use rankhow_serve::SpawnOptions;

    let source = Scheduler::new(1);
    let target = Scheduler::new(1);
    let blocker = source.spawn_shared(Arc::new(blocker_problem(12, 6, 0)), blocker_config());
    // Wait for the lone worker to claim the blocker, so the next spawn
    // is deterministically the one unstarted (migratable) entry.
    let t0 = Instant::now();
    while source.load().queued > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "worker never started"
        );
        std::thread::yield_now();
    }

    // A query "admitted" 250 ms ago: the stamp the router would have
    // taken before its first placement attempt.
    let backdated = Instant::now() - Duration::from_millis(250);
    let tel = Arc::new(SolveTelemetry::new(Arc::new(MetricsRegistry::new())));
    let handle = source
        .try_spawn_with(
            Arc::new(light_problem()),
            SolverConfig {
                telemetry: Some(Arc::clone(&tel)),
                ..SolverConfig::default()
            },
            0,
            SpawnOptions {
                admitted: Some(backdated),
                ..SpawnOptions::default()
            },
        )
        .ok()
        .expect("cap 0 admits unconditionally");

    // The stamp rides the migrated entry itself, not the source pool.
    let migrated = source.take_unstarted().expect("light query is unstarted");
    assert_eq!(migrated.admitted(), Some(backdated));
    target.adopt(migrated);
    let sol = handle.join().expect("feasible instance");
    assert!(sol.optimal, "migration must not change results");
    blocker.cancel();

    // Queue wait is charged from the ORIGINAL admission: at least
    // the backdating, even though the job spent almost no time on
    // the target pool's queue.
    let wait = tel.metrics.queue_wait.snapshot();
    assert_eq!(wait.count, 1);
    assert!(
        wait.min() >= 250_000_000,
        "wait measured from re-enqueue, not admission: {} ns",
        wait.min()
    );
    let latency = tel.metrics.latency.snapshot();
    assert_eq!(latency.count, 1);
    assert!(latency.max() >= wait.max(), "latency includes the wait");
}
