//! Exact-arithmetic verification and the τ search (paper Section V-A).
//!
//! A floating-point solver can believe it found a zero-error function
//! while the function's *actual* induced ranking (computed precisely)
//! disagrees — the false positives of Table III. Verification recomputes
//! every score as an exact rational and compares the exact position
//! error against the solver's claim.

use crate::{OptProblem, Tolerances};
use rankhow_numeric::Rational;
use rankhow_ranking::{score_ranks_exact, scores_exact};

/// Outcome of verifying one weight vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerificationReport {
    /// Objective value under exact rational arithmetic.
    pub exact_error: u64,
    /// Objective value under f64 arithmetic (what the solver saw).
    pub f64_error: u64,
    /// Whether the two agree — a "verified" solution.
    pub consistent: bool,
}

/// Verify a weight vector against the exact scores, under the problem's
/// configured objective. Returns `None` when inputs are not finite
/// (cannot happen for validated datasets).
pub fn verify(problem: &OptProblem, weights: &[f64]) -> Option<VerificationReport> {
    let exact_scores = scores_exact(problem.data.features(), weights)?;
    let eps = Rational::from_f64(problem.tol.eps)?;
    let top = problem.given.top_k();
    let exact_ranks = score_ranks_exact(&exact_scores, &eps, top);
    // Rebuild a full-length rank vector (the measures only read ranked
    // tuples, so unranked slots can stay 0).
    let mut full_ranks = vec![0u32; problem.n()];
    for (&r, &rho) in top.iter().zip(&exact_ranks) {
        full_ranks[r] = rho;
    }
    let exact_error =
        rankhow_ranking::error_by_measure(problem.objective, &problem.given, &full_ranks);
    let f64_error = problem.objective_value(weights);
    Some(VerificationReport {
        exact_error,
        f64_error,
        consistent: exact_error == f64_error,
    })
}

/// Verify a solver's *claimed* error: the claim must match the exact
/// error (this is the Table III acceptance test — a claimed error lower
/// than the exact one is a false positive).
pub fn verify_claim(problem: &OptProblem, weights: &[f64], claimed_error: u64) -> bool {
    match verify(problem, weights) {
        Some(rep) => rep.exact_error == claimed_error,
        None => false,
    }
}

/// Pairs whose score difference falls inside the uncertified band
/// `(ε2, ε1)` for the given weights.
///
/// The Equation (2) thresholds deliberately exclude this band from the
/// certified solution space (Section V-A): a certified `δ_sr = 1`
/// requires `f(s) − f(r) ≥ ε1`, a certified `δ_sr = 0` requires
/// `f(s) − f(r) ≤ ε2`. A weight vector with a pair difference strictly
/// between the thresholds is still a *valid* OPT solution under
/// Definition 2 (beats iff the difference exceeds `ε`), but no certified
/// search — the literal MILP, the TREE arrangement enumeration, or the
/// branch-and-bound optimality proof — covers it. These are exactly the
/// paper's Section V-A "false negatives": the safety gap can hide
/// solutions from the solver. Sampling-based incumbents *can* land in
/// the band, which is why a verified [`crate::RankHow`] answer may
/// strictly beat the certified optimum.
///
/// Returns `(s, r, f(s) − f(r))` for each offending pair.
///
/// The batched scores screen the `k·(n−1)` pairs: a pair whose score
/// difference clears the band by a rounding margin cannot be in it, so
/// only pairs near the band pay for the exact pairwise-difference dot.
/// The list is the one a full scan returns.
pub fn gap_band_pairs(problem: &OptProblem, weights: &[f64]) -> Vec<(usize, usize, f64)> {
    let features = problem.data.features();
    let (e1, e2) = (problem.tol.eps1, problem.tol.eps2);
    let scores = features.scores(weights);
    let mag = features
        .column_ranges()
        .iter()
        .fold(0.0f64, |a, (lo, hi)| a.max(lo.abs()).max(hi.abs()));
    let reach: f64 = weights.iter().map(|w| w.abs()).sum();
    // Pair terms are differences of two rows: up to twice `mag`.
    let margin = crate::formulation::screen_margin(2.0 * mag * reach, features.m());
    let mut out = Vec::new();
    let mut row_r = vec![0.0; features.m()];
    let mut row_s = vec![0.0; features.m()];
    for &r in problem.given.top_k() {
        features.copy_row_into(r, &mut row_r);
        for s in 0..features.n() {
            if s == r {
                continue;
            }
            if let Some(margin) = margin {
                let d = scores[s] - scores[r];
                if d <= e2 - margin || d >= e1 + margin {
                    continue;
                }
            }
            features.copy_row_into(s, &mut row_s);
            // Pairwise-difference dot, matching the MILP's constraint
            // form `Σ (s.A_j − r.A_j)·w_j` bit for bit (a score
            // subtraction would round differently at the band edges).
            let diff: f64 = row_s
                .iter()
                .zip(&row_r)
                .zip(weights)
                .map(|((a, b), w)| (a - b) * w)
                .sum();
            if diff > e2 && diff < e1 {
                out.push((s, r, diff));
            }
        }
    }
    out
}

/// Whether `weights` relies on the uncertified `(ε2, ε1)` band — i.e.
/// whether any pair's score difference is outside every certified cell.
/// See [`gap_band_pairs`].
///
/// # Example
/// ```
/// use rankhow_core::{OptProblem, Tolerances};
/// use rankhow_data::Dataset;
/// use rankhow_ranking::GivenRanking;
///
/// let data = Dataset::from_rows(
///     vec!["a".into()],
///     vec![vec![1.0], vec![0.0]],
/// )
/// .unwrap();
/// let pi = GivenRanking::from_positions(vec![Some(1), Some(2)]).unwrap();
/// // ε = 0.5, ε1 = 2.0, ε2 = 0: the pair difference is w·1 = 1.0,
/// // which lies strictly inside (0, 2) — a gap-band point.
/// let p = OptProblem::with_tolerances(data, pi, Tolerances::explicit(0.5, 2.0, 0.0)).unwrap();
/// assert!(rankhow_core::verify::relies_on_gap_band(&p, &[1.0]));
/// // With a tight gap the same point is certified.
/// let mut tight = p.clone();
/// tight.tol = Tolerances::explicit(0.5, 0.6, 0.4);
/// assert!(!rankhow_core::verify::relies_on_gap_band(&tight, &[1.0]));
/// ```
pub fn relies_on_gap_band(problem: &OptProblem, weights: &[f64]) -> bool {
    !gap_band_pairs(problem, weights).is_empty()
}

/// The τ binary-search heuristic (Section V-A): find the smallest
/// precision tolerance τ̂ for which the solver's output verifies.
///
/// `solve` runs the solver on a problem with candidate tolerances and
/// returns `(weights, claimed_error)`. Each probe sets
/// `ε1 = ε + τ̂⁺, ε2 = max(ε − τ̂, 0)` per Lemmas 2–3. Larger τ̂ values
/// are safer (fewer false positives) but shrink the solution space
/// (false negatives), so the search returns the smallest verified τ̂.
pub fn find_tau<F>(problem: &OptProblem, solve: F, rounds: usize) -> f64
where
    F: Fn(&OptProblem) -> Option<(Vec<f64>, u64)>,
{
    let eps = problem.tol.eps;
    let mut lo = 0.0f64; // known-bad or untested
    let mut hi = eps.max(1e-6); // probe ceiling
    let mut best = hi;
    for _ in 0..rounds {
        let mid = 0.5 * (lo + hi);
        let tau = mid.min(eps);
        let probe_tol = Tolerances::from_eps_tau(eps, tau);
        let mut probe = problem.clone();
        probe.tol = probe_tol;
        match solve(&probe) {
            Some((w, claimed)) => {
                if verify_claim(&probe, &w, claimed) {
                    best = mid;
                    hi = mid; // try smaller
                } else {
                    lo = mid; // numerical problems: need larger τ
                }
            }
            None => {
                lo = mid;
            }
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankhow_data::Dataset;
    use rankhow_ranking::GivenRanking;

    fn toy() -> OptProblem {
        let data = Dataset::from_rows(
            vec!["a".into(), "b".into()],
            vec![vec![3.0, 1.0], vec![2.0, 2.0], vec![1.0, 3.0]],
        )
        .unwrap();
        let given = GivenRanking::from_positions(vec![Some(1), Some(2), Some(3)]).unwrap();
        OptProblem::new(data, given).unwrap()
    }

    #[test]
    fn clean_solution_verifies() {
        let p = toy();
        let rep = verify(&p, &[1.0, 0.0]).unwrap();
        assert_eq!(rep.exact_error, 0);
        assert_eq!(rep.f64_error, 0);
        assert!(rep.consistent);
        assert!(verify_claim(&p, &[1.0, 0.0], 0));
    }

    #[test]
    fn wrong_claim_rejected() {
        let p = toy();
        // Claiming error 0 for the reversed function is a false positive.
        assert!(!verify_claim(&p, &[0.0, 1.0], 0));
        // Claiming its true error (4) passes.
        let rep = verify(&p, &[0.0, 1.0]).unwrap();
        assert!(verify_claim(&p, &[0.0, 1.0], rep.exact_error));
        assert_eq!(rep.exact_error, 4);
    }

    #[test]
    fn exact_and_f64_agree_on_well_separated_data() {
        let p = toy();
        for w in [[0.5, 0.5], [0.8, 0.2], [0.1, 0.9]] {
            let rep = verify(&p, &w).unwrap();
            assert!(rep.consistent, "w = {w:?}");
        }
    }

    #[test]
    fn catastrophic_cancellation_detected() {
        // Scores collide in f64 but differ exactly: f64 declares a tie
        // (both rank 1 at ε = 0 needs *exact* equality — here the f64
        // sums are bit-identical) while exact arithmetic separates them.
        let data = Dataset::from_rows(
            vec!["a".into(), "b".into()],
            vec![vec![1e16, 1.0], vec![1e16, 2.0]],
        )
        .unwrap();
        let given = GivenRanking::from_positions(vec![Some(1), Some(2)]).unwrap();
        let p = OptProblem::new(data, given).unwrap();
        let w = [1.0 - 0.25, 0.25];
        let rep = verify(&p, &w).unwrap();
        // Exact: tuple 1 scores higher (bigger b) → ranking [2,1],
        // exact error = 2. f64: both scores absorb the small component.
        assert_eq!(rep.exact_error, 2);
        assert!(!rep.consistent, "f64 view: {}", rep.f64_error);
    }

    #[test]
    fn find_tau_returns_verified_value() {
        let mut p = toy();
        p.tol = Tolerances::from_eps_tau(1e-6, 1e-7);
        // A well-behaved "solver": always returns the perfect function
        // with its true error — every τ verifies, so the search drives
        // τ̂ toward the bottom.
        let tau = find_tau(
            &p,
            |probe| {
                let w = vec![1.0, 0.0];
                let e = probe.evaluate(&w);
                Some((w, e))
            },
            20,
        );
        assert!(tau <= 1e-6, "tau {tau}");
    }

    #[test]
    fn find_tau_grows_on_false_positives() {
        let mut p = toy();
        p.tol = Tolerances::from_eps_tau(1e-6, 1e-7);
        // A pathological solver that lies (claims error 0 for the
        // reversed function) whenever τ̂ is below a threshold.
        let tau = find_tau(
            &p,
            |probe| {
                if probe.tol.tau < 4e-7 {
                    Some((vec![0.0, 1.0], 0)) // false positive
                } else {
                    let w = vec![1.0, 0.0];
                    Some((w, 0))
                }
            },
            24,
        );
        assert!(tau >= 4e-7, "tau {tau} must clear the lying threshold");
    }
}
