//! Ranking domain model for RankHow.
//!
//! Implements the paper's Definitions 1–3 and the dominance pre-filter of
//! Section V-B:
//! - [`GivenRanking`] — a ranking `π : R → [1..k, ⊥]` with ties and the
//!   `⊥` "don't care" tail, validated against all five conditions of
//!   Definition 1;
//! - [`score_ranks`] / [`score_ranks_exact`] — the score-based ranking
//!   `ρ_W` of Definition 2, with the tie tolerance `ε`, in fast `f64` and
//!   exact [`Rational`](rankhow_numeric::Rational) arithmetic. Scoring
//!   consumes the columnar
//!   [`FeatureMatrix`](rankhow_linalg::FeatureMatrix) and runs batched
//!   per-attribute kernels; every tie tolerance is validated by the one
//!   [`checked_tie_eps`] constructor;
//! - [`position_error`] — Definition 3, plus Kendall-tau and top-weighted
//!   error variants the paper mentions as supported generalizations;
//! - [`dominance_pairs`] — sound dominator/dominatee detection.

#![warn(missing_docs)]

mod dominance;
mod error;
mod given;
mod score;
mod tolerances;

pub use dominance::{dominance_pairs, dominates, DominancePair};
pub use error::{
    error_by_measure, kendall_tau_distance, position_error, position_error_weighted, ErrorMeasure,
};
pub use given::{GivenRanking, RankingError};
pub use score::{
    rank_of_in, ranks_of_in, score_ranks, score_ranks_exact, scores_exact, scores_f64,
    scores_f64_into,
};
pub use tolerances::{checked_tie_eps, evaluate_scores, evaluate_weights, Tolerances};
