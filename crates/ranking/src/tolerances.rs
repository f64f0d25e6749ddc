//! Tie and precision tolerances (paper Section II and Section V-A).
//!
//! Four constants govern score comparison:
//! - `ε` (`eps`): the tie tolerance of Definition 2 — scores within `ε`
//!   are tied;
//! - `τ` (`tau`): the solver's precision tolerance — how far a
//!   floating-point solver may stray when it declares a constraint
//!   satisfied;
//! - `ε1`/`ε2`: the indicator thresholds of Equation (2). Lemmas 2–3
//!   prescribe `ε2 = ε − τ` and `ε1 = ε + τ⁺` (with `τ⁺` minimally above
//!   `τ`), which guarantees the solver can neither set an indicator to 0
//!   and 1 simultaneously nor accept a solution that fails exact
//!   verification.

/// The single checked constructor for tie tolerances: every entry point
/// that compares scores under Definition 2 — [`crate::score_ranks`],
/// [`crate::rank_of_in`], [`evaluate_weights`], and the [`Tolerances`]
/// builders — routes `ε` through this validation, so a negative or
/// non-finite tolerance is rejected identically everywhere instead of
/// silently producing nonsense ranks on some paths.
#[inline]
pub fn checked_tie_eps(eps: f64) -> f64 {
    assert!(
        eps.is_finite() && eps >= 0.0,
        "tie tolerance must be finite and non-negative (got {eps})"
    );
    eps
}

/// Comparison tolerances for one OPT instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerances {
    /// Tie tolerance `ε ≥ 0` (Definition 2).
    pub eps: f64,
    /// "Definitely beats" threshold `ε1` (indicator = 1 side).
    pub eps1: f64,
    /// "Definitely tied/behind" threshold `ε2` (indicator = 0 side).
    pub eps2: f64,
    /// Solver precision tolerance `τ`.
    pub tau: f64,
}

impl Tolerances {
    /// Construct from `ε` and `τ` via the Lemma 2/3 recipe:
    /// `ε2 = ε − τ`, `ε1 = ε + τ⁺` where `τ⁺` is minimally above `τ`.
    pub fn from_eps_tau(eps: f64, tau: f64) -> Self {
        let eps = checked_tie_eps(eps);
        assert!(
            tau.is_finite() && tau >= 0.0,
            "tolerances must be non-negative"
        );
        assert!(tau <= eps, "tau > eps would make eps2 negative");
        // τ⁺: the next representable step above τ at this magnitude,
        // bounded away from τ so the gap survives row scaling.
        let tau_plus = if tau == 0.0 {
            f64::MIN_POSITIVE.max(1e-12)
        } else {
            tau * (1.0 + 1e-9) + f64::MIN_POSITIVE
        };
        Tolerances {
            eps,
            eps1: eps + tau_plus,
            eps2: eps - tau,
            tau,
        }
    }

    /// Explicit values (the experiments set these per dataset).
    pub fn explicit(eps: f64, eps1: f64, eps2: f64) -> Self {
        let eps = checked_tie_eps(eps);
        assert!(eps1 > eps2, "need eps1 > eps2 (Lemma 2)");
        let tau = ((eps1 - eps2) / 2.0).max(0.0);
        Tolerances {
            eps,
            eps1,
            eps2,
            tau,
        }
    }

    /// Idealized exact environment: `ε = 0`, thresholds collapse to
    /// "strictly above 0" vs "at most 0" with a hair's width gap.
    pub fn exact() -> Self {
        Tolerances {
            eps: 0.0,
            eps1: 1e-12,
            eps2: 0.0,
            tau: 0.0,
        }
    }

    /// Paper setting for the NBA dataset:
    /// `ε = 5·10⁻⁵, ε1 = 10⁻⁴, ε2 = 0`.
    pub fn paper_nba() -> Self {
        Tolerances::explicit(5e-5, 1e-4, 0.0)
    }

    /// Paper setting for CSRankings: `ε = 5·10⁻³, ε1 = 10⁻², ε2 = 0`.
    pub fn paper_csrankings() -> Self {
        Tolerances::explicit(5e-3, 1e-2, 0.0)
    }

    /// Paper setting for synthetic data:
    /// `ε = 5·10⁻⁶, ε1 = 10⁻⁵, ε2 = 0`.
    pub fn paper_synthetic() -> Self {
        Tolerances::explicit(5e-6, 1e-5, 0.0)
    }

    /// A deliberately broken setting that ignores numerical imprecision
    /// (`ε1 = 10⁻¹⁰`) — the "−" configurations of Table III.
    pub fn numerically_naive() -> Self {
        Tolerances::explicit(5e-5, 1e-10, 0.0)
    }

    /// Check the Lemma 2 safety condition `ε1 > ε2 + 2τ'` for a solver
    /// whose actual precision is `solver_tau`.
    pub fn safe_for(&self, solver_tau: f64) -> bool {
        self.eps1 > self.eps2 + 2.0 * solver_tau
    }
}

/// Position error of a weight vector on an instance: scores every row
/// with `weights`, ranks with tolerance `eps`, sums top-k displacement.
///
/// The one-stop evaluation used by every baseline and by incumbent
/// checks in the exact solver.
pub fn evaluate_weights(
    features: &rankhow_linalg::FeatureMatrix,
    given: &crate::GivenRanking,
    weights: &[f64],
    eps: f64,
) -> u64 {
    evaluate_scores(given, &crate::scores_f64(features, weights), eps)
}

/// Position error of precomputed scores (one per tuple) under tie
/// tolerance `eps` — [`evaluate_weights`] for a caller that already
/// holds the scores.
pub fn evaluate_scores(given: &crate::GivenRanking, scores: &[f64], eps: f64) -> u64 {
    let eps = checked_tie_eps(eps);
    // Only the ranks of the top-k tuples matter; computing just those is
    // one O(n·log k) pass instead of an O(n log n) sort, and avoids
    // allocating the full vector when k is small.
    let top = given.top_k();
    if top.len() * 8 < scores.len() {
        top.iter()
            .zip(crate::ranks_of_in(scores, top, eps))
            .map(|(&i, rho)| {
                let pi = given.position(i).unwrap() as i64;
                (pi - rho as i64).unsigned_abs()
            })
            .sum()
    } else {
        let ranks = crate::score_ranks(scores, eps);
        crate::position_error(given, &ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GivenRanking;

    #[test]
    fn lemma_recipe_produces_safe_gap() {
        let t = Tolerances::from_eps_tau(5e-5, 5e-5);
        assert!(t.eps1 > t.eps); // strictly above ε
        assert!((t.eps2 - 0.0).abs() < 1e-18); // ε − τ = 0 here
        assert!(t.safe_for(t.tau * 0.49)); // gap of τ+τ⁺ > 2·(τ/2)
    }

    #[test]
    fn paper_settings_match_section_vi() {
        let nba = Tolerances::paper_nba();
        assert_eq!(nba.eps, 5e-5);
        assert_eq!(nba.eps1, 1e-4);
        assert_eq!(nba.eps2, 0.0);
        let cs = Tolerances::paper_csrankings();
        assert_eq!((cs.eps, cs.eps1, cs.eps2), (5e-3, 1e-2, 0.0));
        let syn = Tolerances::paper_synthetic();
        assert_eq!((syn.eps, syn.eps1, syn.eps2), (5e-6, 1e-5, 0.0));
    }

    #[test]
    fn naive_setting_violates_safety() {
        let t = Tolerances::numerically_naive();
        // With a solver precision of 1e-6, the naive gap is unsafe while
        // the paper setting is safe.
        assert!(!t.safe_for(1e-6));
        assert!(Tolerances::paper_nba().safe_for(1e-6));
    }

    #[test]
    #[should_panic(expected = "eps1 > eps2")]
    fn inverted_thresholds_rejected() {
        Tolerances::explicit(0.0, 0.0, 1e-3);
    }

    #[test]
    fn evaluate_weights_small_and_large_paths_agree() {
        // Construct an instance where k·8 < n is false and true to hit
        // both code paths and cross-check them.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64 * 37.0) % 11.0, (i as f64 * 17.0) % 7.0])
            .collect();
        let scores: Vec<f64> = rows.iter().map(|r| r[0] + 2.0 * r[1]).collect();
        let given = GivenRanking::from_scores(&scores, 3, 0.0).unwrap();
        let w = [0.3, 0.7];
        let features = rankhow_linalg::FeatureMatrix::from_rows(&rows);
        let fast = evaluate_weights(&features, &given, &w, 0.0);
        // Force the full-vector path by projecting onto the top tuples +
        // enough padding that k·8 ≥ n.
        let keep: Vec<usize> = {
            let mut v: Vec<usize> = given.top_k().to_vec();
            v.extend((0..40).filter(|i| !given.top_k().contains(i)).take(21));
            v.sort_unstable();
            v
        };
        let sub_features = features.select_rows(&keep);
        let sub_given = given.project(&keep).unwrap();
        let slow = evaluate_weights(&sub_features, &sub_given, &w, 0.0);
        assert_eq!(fast, slow, "both evaluation paths agree");
    }

    #[test]
    fn evaluate_weights_perfect_function_zero_error() {
        let rows = rankhow_linalg::FeatureMatrix::from_rows(&[
            vec![3.0, 1.0],
            vec![2.0, 1.0],
            vec![1.0, 1.0],
        ]);
        let given = GivenRanking::from_positions(vec![Some(1), Some(2), None]).unwrap();
        assert_eq!(evaluate_weights(&rows, &given, &[1.0, 0.0], 0.0), 0);
        // Inverting weights ranks tuple 0 last among distinct scores? All
        // scores equal under [0,1] weights → everyone rank 1 → error =
        // |1-1| + |2-1| = 1.
        assert_eq!(evaluate_weights(&rows, &given, &[0.0, 1.0], 0.0), 1);
    }

    #[test]
    fn checked_tie_eps_accepts_valid() {
        assert_eq!(checked_tie_eps(0.0), 0.0);
        assert_eq!(checked_tie_eps(5e-5), 5e-5);
    }

    #[test]
    #[should_panic(expected = "tie tolerance")]
    fn checked_tie_eps_rejects_negative() {
        checked_tie_eps(-1e-9);
    }

    #[test]
    #[should_panic(expected = "tie tolerance")]
    fn checked_tie_eps_rejects_infinite() {
        checked_tie_eps(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "tie tolerance")]
    fn tolerances_constructors_share_the_check() {
        Tolerances::explicit(-1.0, 1.0, 0.0);
    }
}
