//! The OPT problem definition (paper Definitions 1–4).

use rankhow_data::Dataset;
use rankhow_lp::{Op, Problem as LpProblem, VarId};
use rankhow_ranking::{ErrorMeasure, GivenRanking, Tolerances};
use std::fmt;

/// Errors constructing an [`OptProblem`].
#[derive(Debug)]
pub enum ProblemError {
    /// Dataset row count differs from ranking length.
    LengthMismatch {
        /// Rows in the dataset.
        rows: usize,
        /// Entries in the ranking.
        ranking: usize,
    },
    /// A constraint references an attribute index out of range.
    BadAttribute {
        /// The out-of-range attribute index.
        index: usize,
        /// Number of attributes in the dataset.
        m: usize,
    },
    /// A position constraint targets an unranked (`⊥`) tuple.
    UnrankedPositionConstraint {
        /// The unranked tuple the constraint targets.
        tuple: usize,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::LengthMismatch { rows, ranking } => {
                write!(f, "dataset has {rows} rows but ranking covers {ranking}")
            }
            ProblemError::BadAttribute { index, m } => {
                write!(
                    f,
                    "constraint references attribute {index}, dataset has {m}"
                )
            }
            ProblemError::UnrankedPositionConstraint { tuple } => {
                write!(f, "position constraint on unranked tuple {tuple}")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// A conjunction of linear weight constraints `Σ α_i·w_i ≤ α₀`
/// (the predicate `P` of Definition 4). The implicit simplex constraints
/// `w ≥ 0`, `Σ w = 1` are always present and not stored here.
#[derive(Clone, Debug, Default)]
pub struct WeightConstraints {
    /// Rows `(sparse coefficients, rhs)` meaning `Σ coef·w ≤ rhs`.
    rows: Vec<(Vec<(usize, f64)>, f64)>,
}

impl WeightConstraints {
    /// No constraints beyond the simplex.
    pub fn none() -> Self {
        WeightConstraints::default()
    }

    /// Raw constraint `Σ coefs·w ≤ rhs`.
    pub fn leq(mut self, coefs: Vec<(usize, f64)>, rhs: f64) -> Self {
        self.rows.push((coefs, rhs));
        self
    }

    /// Raw constraint `Σ coefs·w ≥ rhs` (stored negated).
    pub fn geq(self, coefs: Vec<(usize, f64)>, rhs: f64) -> Self {
        let neg: Vec<(usize, f64)> = coefs.into_iter().map(|(i, c)| (i, -c)).collect();
        self.leq(neg, -rhs)
    }

    /// Lower-bound one weight: `w_attr ≥ lo` (Example 1: "points scored
    /// should feature prominently — coefficient of P at least 0.1").
    pub fn min_weight(self, attr: usize, lo: f64) -> Self {
        self.geq(vec![(attr, 1.0)], lo)
    }

    /// Upper-bound one weight: `w_attr ≤ hi`.
    pub fn max_weight(self, attr: usize, hi: f64) -> Self {
        self.leq(vec![(attr, 1.0)], hi)
    }

    /// Lower-bound a group sum: `Σ_{a∈attrs} w_a ≥ lo` (Example 1:
    /// bounds "on the sum of selected coefficients, e.g. all defensive
    /// skills").
    pub fn min_group(self, attrs: &[usize], lo: f64) -> Self {
        self.geq(attrs.iter().map(|&a| (a, 1.0)).collect(), lo)
    }

    /// Upper-bound a group sum.
    pub fn max_group(self, attrs: &[usize], hi: f64) -> Self {
        self.leq(attrs.iter().map(|&a| (a, 1.0)).collect(), hi)
    }

    /// Number of constraint rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate rows as `(coefs, rhs)` meaning `Σ coefs·w ≤ rhs`.
    pub fn rows(&self) -> impl Iterator<Item = (&[(usize, f64)], f64)> {
        self.rows.iter().map(|(c, r)| (c.as_slice(), *r))
    }

    /// Whether a weight vector satisfies all rows (within `1e-9`).
    pub fn satisfied_by(&self, w: &[f64]) -> bool {
        self.rows.iter().all(|(coefs, rhs)| {
            let lhs: f64 = coefs.iter().map(|&(i, c)| c * w[i]).sum();
            lhs <= rhs + 1e-9
        })
    }

    /// Add all rows to an LP whose first `m` variables are the weights.
    pub fn apply_to(&self, lp: &mut LpProblem, weight_vars: &[VarId]) {
        for (coefs, rhs) in &self.rows {
            let terms: Vec<(VarId, f64)> =
                coefs.iter().map(|&(i, c)| (weight_vars[i], c)).collect();
            lp.add_constraint(&terms, Op::Le, *rhs);
        }
    }

    /// Largest attribute index referenced (for validation).
    pub fn max_attr(&self) -> Option<usize> {
        self.rows
            .iter()
            .flat_map(|(c, _)| c.iter().map(|&(i, _)| i))
            .max()
    }
}

/// An OPT instance: dataset + given ranking + weight predicate +
/// tolerances (Definition 4), plus optional position-range constraints
/// (Example 1's outcome constraints).
#[derive(Clone, Debug)]
pub struct OptProblem {
    /// The relation `R`.
    pub data: Dataset,
    /// The given ranking `π`.
    pub given: GivenRanking,
    /// The weight predicate `P`.
    pub constraints: WeightConstraints,
    /// Comparison tolerances (`ε`, `ε1`, `ε2`, `τ`).
    pub tol: Tolerances,
    /// Allowed rank windows for selected ranked tuples.
    pub positions: crate::positions::PositionConstraints,
    /// The error measure the solvers optimize (Section II: "our approach
    /// generalizes to other error measures" — Kendall tau and the
    /// top-weighted variant in addition to Definition 3).
    pub objective: ErrorMeasure,
}

impl OptProblem {
    /// Build with default tolerances (`ε = 0` and a hairline indicator
    /// gap — appropriate for well-separated data; use
    /// [`OptProblem::with_tolerances`] for the paper's per-dataset
    /// settings).
    pub fn new(data: Dataset, given: GivenRanking) -> Result<Self, ProblemError> {
        Self::with_all(data, given, WeightConstraints::none(), Tolerances::exact())
    }

    /// Build with explicit tolerances.
    pub fn with_tolerances(
        data: Dataset,
        given: GivenRanking,
        tol: Tolerances,
    ) -> Result<Self, ProblemError> {
        Self::with_all(data, given, WeightConstraints::none(), tol)
    }

    /// Build with constraints and tolerances.
    pub fn with_all(
        data: Dataset,
        given: GivenRanking,
        constraints: WeightConstraints,
        tol: Tolerances,
    ) -> Result<Self, ProblemError> {
        if data.n() != given.len() {
            return Err(ProblemError::LengthMismatch {
                rows: data.n(),
                ranking: given.len(),
            });
        }
        if let Some(max) = constraints.max_attr() {
            if max >= data.m() {
                return Err(ProblemError::BadAttribute {
                    index: max,
                    m: data.m(),
                });
            }
        }
        Ok(OptProblem {
            data,
            given,
            constraints,
            tol,
            positions: crate::positions::PositionConstraints::none(),
            objective: ErrorMeasure::Position,
        })
    }

    /// Switch the objective the solvers optimize. [`ErrorMeasure::Position`]
    /// is Definition 3; [`ErrorMeasure::KendallTau`] minimizes inverted
    /// top-k pairs; [`ErrorMeasure::TopWeighted`] penalizes displacement
    /// near the top of the ranking more heavily.
    pub fn with_objective(mut self, objective: ErrorMeasure) -> Self {
        self.objective = objective;
        self
    }

    /// Attach position-range constraints. Every constrained tuple must
    /// be a *ranked* tuple of `π` (constraining `⊥` tuples is not
    /// supported — use the why-not formulation of \[35\] for that).
    pub fn with_positions(
        mut self,
        positions: crate::positions::PositionConstraints,
    ) -> Result<Self, ProblemError> {
        for (t, _) in positions.iter() {
            if t >= self.given.len() || self.given.position(t).is_none() {
                return Err(ProblemError::UnrankedPositionConstraint { tuple: t });
            }
        }
        self.positions = positions;
        Ok(self)
    }

    /// Objective value of `weights` if all position constraints are met,
    /// `None` otherwise.
    pub fn evaluate_constrained(&self, weights: &[f64]) -> Option<u64> {
        if self.positions.is_empty() {
            return Some(self.objective_value(weights));
        }
        // One score vector serves both the window check and the objective.
        let scores = rankhow_ranking::scores_f64(self.data.features(), weights);
        self.positions
            .satisfied(|t| rankhow_ranking::rank_of_in(&scores, t, self.tol.eps))
            .then(|| self.objective_of_scores(&scores))
    }

    /// Replace the constraint predicate (constraint-exploration loop of
    /// Example 1: solve, inspect, constrain, re-solve).
    pub fn with_constraints(
        mut self,
        constraints: WeightConstraints,
    ) -> Result<Self, ProblemError> {
        if let Some(max) = constraints.max_attr() {
            if max >= self.data.m() {
                return Err(ProblemError::BadAttribute {
                    index: max,
                    m: self.data.m(),
                });
            }
        }
        self.constraints = constraints;
        Ok(self)
    }

    /// Number of tuples.
    pub fn n(&self) -> usize {
        self.data.n()
    }

    /// Number of attributes.
    pub fn m(&self) -> usize {
        self.data.m()
    }

    /// Position error of a weight vector (Definition 3 under `ε`),
    /// regardless of the configured [`OptProblem::objective`].
    pub fn evaluate(&self, weights: &[f64]) -> u64 {
        rankhow_ranking::evaluate_weights(self.data.features(), &self.given, weights, self.tol.eps)
    }

    /// Value of the configured objective for a weight vector. Equals
    /// [`OptProblem::evaluate`] when the objective is
    /// [`ErrorMeasure::Position`].
    pub fn objective_value(&self, weights: &[f64]) -> u64 {
        self.objective_of_scores(&rankhow_ranking::scores_f64(self.data.features(), weights))
    }

    /// [`OptProblem::objective_value`] of precomputed scores.
    fn objective_of_scores(&self, scores: &[f64]) -> u64 {
        if self.objective == ErrorMeasure::Position {
            return rankhow_ranking::evaluate_scores(&self.given, scores, self.tol.eps);
        }
        let ranks = rankhow_ranking::score_ranks(scores, self.tol.eps);
        rankhow_ranking::error_by_measure(self.objective, &self.given, &ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Dataset, GivenRanking) {
        let data = Dataset::from_rows(
            vec!["a".into(), "b".into()],
            vec![vec![2.0, 0.0], vec![1.0, 1.0], vec![0.0, 2.0]],
        )
        .unwrap();
        let given = GivenRanking::from_positions(vec![Some(1), Some(2), None]).unwrap();
        (data, given)
    }

    #[test]
    fn length_mismatch_rejected() {
        let (data, _) = toy();
        let short = GivenRanking::from_positions(vec![Some(1), None]).unwrap();
        assert!(matches!(
            OptProblem::new(data, short),
            Err(ProblemError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn bad_attribute_in_constraints_rejected() {
        let (data, given) = toy();
        let c = WeightConstraints::none().min_weight(5, 0.1);
        assert!(matches!(
            OptProblem::with_all(data, given, c, Tolerances::exact()),
            Err(ProblemError::BadAttribute { index: 5, .. })
        ));
    }

    #[test]
    fn constraint_builder_and_satisfaction() {
        let c = WeightConstraints::none()
            .min_weight(0, 0.1)
            .max_weight(1, 0.5)
            .min_group(&[0, 1], 0.4);
        assert_eq!(c.len(), 3);
        assert!(c.satisfied_by(&[0.3, 0.2]));
        assert!(!c.satisfied_by(&[0.05, 0.2])); // w0 too small
        assert!(!c.satisfied_by(&[0.3, 0.6])); // w1 too big
        assert!(!c.satisfied_by(&[0.1, 0.1])); // group too small
    }

    #[test]
    fn geq_negation_roundtrip() {
        let c = WeightConstraints::none().geq(vec![(0, 2.0), (1, -1.0)], 0.5);
        // 2w0 − w1 ≥ 0.5
        assert!(c.satisfied_by(&[0.5, 0.2]));
        assert!(!c.satisfied_by(&[0.2, 0.2]));
    }

    #[test]
    fn apply_to_lp_matches_satisfied_by() {
        use rankhow_lp::{Problem as Lp, Sense, Status};
        let c = WeightConstraints::none().min_weight(0, 0.4);
        let mut lp = Lp::new(Sense::Minimize);
        let w0 = lp.add_var("w0", 0.0, 1.0, 0.0);
        let w1 = lp.add_var("w1", 0.0, 1.0, 0.0);
        lp.add_constraint(&[(w0, 1.0), (w1, 1.0)], Op::Eq, 1.0);
        c.apply_to(&mut lp, &[w0, w1]);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(c.satisfied_by(&sol.x));
    }

    #[test]
    fn evaluate_uses_eps() {
        let (data, given) = toy();
        let p = OptProblem::new(data, given).unwrap();
        assert_eq!(p.evaluate(&[1.0, 0.0]), 0);
        // Reversed ranking: ranks become [3, 2, 1], so the two ranked
        // tuples contribute |1−3| + |2−2| = 2.
        assert_eq!(p.evaluate(&[0.0, 1.0]), 2);
        assert_eq!(p.n(), 3);
        assert_eq!(p.m(), 2);
    }
}
