//! Dual simplex: restore primal feasibility of a basis that is already
//! dual feasible.
//!
//! The incremental layer lands here after appending a constraint row to
//! an optimal (or at least feasible) tableau: the new row's slack may be
//! basic at a negative value, but the cost row still prices every
//! nonbasic column at ≥ 0. Dual simplex pivots the negative-RHS rows out
//! one at a time — typically one or two pivots for a single added
//! pair-sign constraint, versus a full two-phase solve from scratch.
//!
//! With a zero cost row (the feasibility-only case) every column is
//! dual-degenerate and the ratio test reduces to "largest pivot
//! magnitude", which is also the numerically preferred choice.

use crate::simplex::{self, PhaseOutcome, Tableau, FEAS_TOL, STALL_LIMIT, TOL};
use rankhow_linalg::kernels;

/// Outcome of a dual-simplex feasibility restore.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum DualOutcome {
    /// Every RHS is ≥ −[`TOL`]: the basis is primal feasible (and still
    /// optimal for the cost row the caller maintained).
    Feasible,
    /// Some row has a negative RHS and no negative entry in any
    /// non-artificial column: the system (with artificials pinned to
    /// zero) is infeasible.
    Infeasible,
    /// Exceeded the iteration budget — numerical trouble; the tableau
    /// is left in a valid but unfinished state.
    IterationLimit,
}

/// Run dual-simplex pivots until primal feasible (RHS ≥ 0) or provably
/// infeasible. `cost` must be a dual-feasible reduced-cost row for the
/// current basis (all entries ≥ 0 up to tolerance; a zero row always
/// qualifies) and is updated alongside the pivots.
///
/// Optimality: with a *zero* cost row every column is dual-degenerate,
/// so `Feasible` means the basis is trivially optimal for it. With a
/// nonzero cost row dual feasibility can be lost two ways — the
/// anti-cycling Bland fallback enters the smallest-index column
/// *without* the dual ratio test, and the caller's cost row may start
/// mildly infeasible — so before reporting `Feasible` the restore
/// re-prices: if any non-artificial column carries a negative reduced
/// cost, primal phase 2 runs from the (now feasible) basis until the
/// row is clean. `Feasible` therefore always means *feasible and
/// optimal for `cost`*; a phase-2 failure degrades to
/// [`DualOutcome::IterationLimit`] so callers fall back to a cold
/// solve rather than trusting a suboptimal basis.
pub(crate) fn dual_restore(t: &mut Tableau<'_>, cost: &mut [f64]) -> DualOutcome {
    let max_iter = 500 + 200 * (t.rows + t.ncols);
    let mut stall = 0usize;
    let mut last_worst = f64::NEG_INFINITY;
    let w = t.ncols + 1;
    for _ in 0..max_iter {
        // Leaving row: most negative RHS, first row wins on exact ties.
        let mut leave: Option<usize> = None;
        let mut worst = -TOL;
        for r in 0..t.rows {
            let v = t.a[r * w + t.ncols];
            if v < worst {
                worst = v;
                leave = Some(r);
            }
        }
        let Some(row) = leave else {
            return finish_feasible(t, cost);
        };
        let bland = stall >= STALL_LIMIT;
        // Entering column: among non-artificial columns with a negative
        // entry in the leaving row, minimize the dual ratio
        // `cost[j] / −a_rj` (keeps the cost row dual feasible); ties
        // break to the largest |a_rj| for stability. In Bland mode take
        // the smallest eligible index (anti-cycling), which on the
        // contiguous leaving row is [`kernels::first_below`]. The Dantzig
        // scan folds candidates in column order; the leader's `|a|`
        // rides along so ties never re-read the tableau.
        let lrow = &t.a[row * w..row * w + t.first_artificial];
        let mut enter: Option<(usize, f64)> = None;
        if bland {
            enter = kernels::first_below(lrow, -TOL).map(|j| (j, lrow[j].abs()));
        } else {
            let mut best_ratio = f64::INFINITY;
            for (j, &a) in lrow.iter().enumerate() {
                if a >= -TOL {
                    continue;
                }
                let ratio = cost[j].max(0.0) / -a;
                let better = if ratio < best_ratio - TOL {
                    true
                } else if ratio < best_ratio + TOL {
                    match enter {
                        None => true,
                        Some((_, eabs)) => a.abs() > eabs,
                    }
                } else {
                    false
                };
                if better {
                    best_ratio = ratio.min(best_ratio);
                    enter = Some((j, a.abs()));
                }
            }
        }
        let enter = enter.map(|(j, _)| j);
        let Some(col) = enter else {
            // No eligible negative entry: the row reads
            // `Σ (≥0)·(≥0) = rhs < 0` over the artificial-free space.
            // Declare infeasible only past the same [`FEAS_TOL`]
            // leniency the cold phase-1 exit uses — a region whose only
            // points sit exactly on a boundary hyperplane (the ε = 0
            // tie slivers branch-and-bound must not lose) may converge
            // to an RHS a few ulps below zero.
            return if worst >= -FEAS_TOL {
                finish_feasible(t, cost)
            } else {
                DualOutcome::Infeasible
            };
        };
        t.pivot(row, col, cost);
        // Progress = the most negative RHS moved toward zero.
        if worst > last_worst + 1e-12 {
            last_worst = worst;
            stall = 0;
        } else {
            stall += 1;
        }
    }
    DualOutcome::IterationLimit
}

/// Primal feasibility is restored; re-price before reporting
/// [`DualOutcome::Feasible`]. With a zero cost row (the feasibility-only
/// callers) the scan finds nothing negative and this is a no-op; with a
/// nonzero row whose dual feasibility was lost (Bland fallback, or a
/// caller handing in a mildly infeasible row), primal phase 2 runs from
/// the feasible basis so `Feasible` can never mean
/// feasible-but-suboptimal.
fn finish_feasible(t: &mut Tableau<'_>, cost: &mut [f64]) -> DualOutcome {
    let first_art = t.first_artificial;
    if (0..first_art).all(|j| cost[j] >= -TOL) {
        return DualOutcome::Feasible;
    }
    match simplex::run_phase(t, cost, first_art) {
        PhaseOutcome::Done => DualOutcome::Feasible,
        // The callers' regions are bounded, so either failure mode means
        // numerical trouble: degrade to the retry path rather than
        // returning a basis that prices the objective wrong.
        PhaseOutcome::Unbounded | PhaseOutcome::IterationLimit => DualOutcome::IterationLimit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assert the postcondition `Feasible` now guarantees: primal
    /// feasible (RHS ≥ −FEAS_TOL) *and* dual feasible over the
    /// non-artificial columns (no negative reduced cost).
    fn assert_feasible_and_optimal(t: &Tableau<'_>, cost: &[f64]) {
        for r in 0..t.rows {
            assert!(t.rhs(r) >= -FEAS_TOL, "row {r} rhs {} negative", t.rhs(r));
        }
        for (j, &c) in cost.iter().take(t.first_artificial).enumerate() {
            assert!(c >= -TOL, "column {j} reduced cost {c} negative");
        }
    }

    #[test]
    fn nonzero_cost_row_is_repriced_before_feasible() {
        // min −x0  s.t.  x0 + x1 + s = 1, all ≥ 0, basis {s}.
        // The RHS is already feasible, so the old code returned
        // `Feasible` immediately — with cost[0] = −1 still negative,
        // i.e. a feasible-but-suboptimal basis (x = 0, objective 0;
        // the optimum is x0 = 1, objective −1). The repaired restore
        // must run phase 2 and land on the optimum.
        let mut a = vec![1.0, 1.0, 1.0, 1.0];
        let mut basis = vec![2usize];
        let mut pivots = 0u64;
        let mut t = Tableau {
            a: &mut a,
            rows: 1,
            ncols: 3,
            basis: &mut basis,
            first_artificial: 3,
            pivots: &mut pivots,
        };
        let mut cost = vec![-1.0, 0.0, 0.0, 0.0];
        assert_eq!(dual_restore(&mut t, &mut cost), DualOutcome::Feasible);
        assert_feasible_and_optimal(&t, &cost);
        assert_eq!(t.basis[0], 0, "x0 must have entered the basis");
        assert!((t.rhs(0) - 1.0).abs() < 1e-9);
        // Objective tracking: the cost row's last entry is −objective.
        assert!((cost[3] - 1.0).abs() < 1e-9, "objective must be −1");
    }

    #[test]
    fn dual_pivot_with_nonzero_cost_stays_optimal() {
        // min x0  s.t.  x0 ≥ 0.5, slack basis primal infeasible
        // (−x0 + s = −0.5, s basic at −0.5) but dual feasible. One dual
        // pivot restores feasibility; the cost row must stay clean.
        let mut a = vec![-1.0, 1.0, -0.5];
        let mut basis = vec![1usize];
        let mut pivots = 0u64;
        let mut t = Tableau {
            a: &mut a,
            rows: 1,
            ncols: 2,
            basis: &mut basis,
            first_artificial: 2,
            pivots: &mut pivots,
        };
        let mut cost = vec![1.0, 0.0, 0.0];
        assert_eq!(dual_restore(&mut t, &mut cost), DualOutcome::Feasible);
        assert_feasible_and_optimal(&t, &cost);
        assert_eq!(t.basis[0], 0);
        assert!((t.rhs(0) - 0.5).abs() < 1e-9);
        assert!((cost[2] + 0.5).abs() < 1e-9, "objective must be 0.5");
    }

    #[test]
    fn zero_cost_row_restore_is_untouched_by_the_repair() {
        // The feasibility-only case every incremental-layer caller uses:
        // a zero cost row is trivially dual feasible, so the repair must
        // not pivot (the basis the dual restore found is kept as-is).
        let mut a = vec![-1.0, 1.0, -0.5];
        let mut basis = vec![1usize];
        let mut pivots = 0u64;
        let mut t = Tableau {
            a: &mut a,
            rows: 1,
            ncols: 2,
            basis: &mut basis,
            first_artificial: 2,
            pivots: &mut pivots,
        };
        let mut cost = vec![0.0, 0.0, 0.0];
        assert_eq!(dual_restore(&mut t, &mut cost), DualOutcome::Feasible);
        assert_feasible_and_optimal(&t, &cost);
        assert_eq!(pivots, 1, "exactly the one dual pivot, no phase-2 work");
        assert!(cost.iter().all(|&c| c == 0.0));
    }
}
