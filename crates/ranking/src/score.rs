//! Score-based rankings `ρ_W` (paper Definition 2).

use crate::tolerances::checked_tie_eps;
use rankhow_linalg::FeatureMatrix;
use rankhow_numeric::Rational;

/// Scores `f_W(r) = Σ w_i · r.A_i` for every row, in f64 arithmetic.
///
/// Runs the columnar batched kernel: one contiguous axpy pass per
/// attribute ([`FeatureMatrix::scores_into`]).
pub fn scores_f64(features: &FeatureMatrix, weights: &[f64]) -> Vec<f64> {
    features.scores(weights)
}

/// Batched variant writing into a caller-provided buffer (length `n`) —
/// the allocation-free path for tight solver loops.
pub fn scores_f64_into(features: &FeatureMatrix, weights: &[f64], out: &mut [f64]) {
    features.scores_into(weights, out);
}

/// Exact scores as rationals (lossless over the f64 inputs).
/// Returns `None` if any input is NaN/infinite.
pub fn scores_exact(features: &FeatureMatrix, weights: &[f64]) -> Option<Vec<Rational>> {
    let mut row = vec![0.0; features.m()];
    (0..features.n())
        .map(|i| {
            features.copy_row_into(i, &mut row);
            Rational::dot(weights, &row)
        })
        .collect()
}

/// Competition ranks under Definition 2 for every tuple:
/// `ρ(r) = |{s : score(s) − score(r) > ε}| + 1`.
///
/// O(n log n): sort scores descending, then binary-search the strict
/// `> score + ε` boundary for each tuple.
pub fn score_ranks(scores: &[f64], eps: f64) -> Vec<u32> {
    let eps = checked_tie_eps(eps);
    let mut sorted: Vec<f64> = scores.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a)); // descending
    scores
        .iter()
        .map(|&sc| {
            // Definition 2 predicate is `v − sc > ε` (not `v > sc + ε`,
            // which differs under f64 rounding). f64 subtraction with a
            // fixed subtrahend is monotone, so the predicate is a prefix
            // of the descending order and partition_point applies.
            let beaten = sorted.partition_point(|&v| v - sc > eps);
            beaten as u32 + 1
        })
        .collect()
}

/// Rank (Definition 2) of one tuple `r` among all tuples, given all
/// scores. O(n) — useful when only a handful of ranks are needed.
pub fn rank_of_in(scores: &[f64], r: usize, eps: f64) -> u32 {
    let eps = checked_tie_eps(eps);
    let sr = scores[r];
    scores.iter().filter(|&&s| s - sr > eps).count() as u32 + 1
}

/// Ranks (Definition 2) of the tuples in `subset` among all tuples, in
/// `subset` order — equal to `rank_of_in` per tuple, in one pass over
/// `scores` instead of one per ranked tuple: O(n·log k).
///
/// For a fixed challenger score `s`, the predicate `s − sr > ε` is
/// monotone in `sr` (f64 subtraction with a fixed minuend is), so the
/// ranked tuples a challenger beats are a prefix of the ranked scores
/// in ascending order: one compare against the lowest skips a
/// challenger that beats none, a binary search counts the rest.
pub fn ranks_of_in(scores: &[f64], subset: &[usize], eps: f64) -> Vec<u32> {
    let eps = checked_tie_eps(eps);
    let mut ranks = vec![1u32; subset.len()];
    // A NaN score is beaten by nothing: it keeps rank 1 and stays out
    // of the order, where it would break the monotone prefix.
    let mut order: Vec<usize> = (0..subset.len())
        .filter(|&i| !scores[subset[i]].is_nan())
        .collect();
    order.sort_unstable_by(|&a, &b| scores[subset[a]].total_cmp(&scores[subset[b]]));
    let sorted: Vec<f64> = order.iter().map(|&i| scores[subset[i]]).collect();
    let Some(&lowest) = sorted.first() else {
        return ranks;
    };
    // beating[c]: challengers beating exactly the `c` lowest ranked scores.
    let mut beating = vec![0u32; sorted.len() + 1];
    for &s in scores {
        if s - lowest > eps {
            beating[sorted.partition_point(|&sr| s - sr > eps)] += 1;
        }
    }
    // `sorted[i]` is beaten by every challenger beating more than `i`.
    let mut beaten = 0u32;
    for i in (0..sorted.len()).rev() {
        beaten += beating[i + 1];
        ranks[order[i]] = beaten + 1;
    }
    ranks
}

/// Exact competition ranks for the tuples in `subset`, computed with
/// rational arithmetic: `ρ(r) = |{s : score(s) − score(r) > ε}| + 1`.
///
/// This is the verification primitive of Section V-A: ranks computed
/// here cannot be corrupted by floating-point imprecision.
pub fn score_ranks_exact(scores: &[Rational], eps: &Rational, subset: &[usize]) -> Vec<u32> {
    assert!(
        *eps >= Rational::zero(),
        "tie tolerance must be non-negative"
    );
    subset
        .iter()
        .map(|&r| {
            let threshold = &scores[r] + eps;
            scores.iter().filter(|s| **s > threshold).count() as u32 + 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definition2_tie_example() {
        // Scores 9, 6, 6, 5 → ranks 1, 2, 2, 4 (paper Section II).
        assert_eq!(score_ranks(&[9.0, 6.0, 6.0, 5.0], 0.0), vec![1, 2, 2, 4]);
    }

    #[test]
    fn definition2_eps_example() {
        // Scores [2.2, 2.1, 2.0, 1.5] with ε = 0.3 → [1, 1, 1, 4].
        assert_eq!(score_ranks(&[2.2, 2.1, 2.0, 1.5], 0.3), vec![1, 1, 1, 4]);
    }

    #[test]
    fn zero_eps_requires_exact_equality_for_ties() {
        assert_eq!(score_ranks(&[1.0, 1.0, 0.5], 0.0), vec![1, 1, 3]);
        // Distinct scores, however close, are not tied at ε = 0.
        assert_eq!(score_ranks(&[1.0, 1.0 - 1e-12, 0.5], 0.0), vec![1, 2, 3]);
    }

    #[test]
    fn ranks_agree_with_naive_quadratic() {
        let scores = [3.4, 1.2, 3.4, 0.9, 2.2, 2.2000001, -1.0, 3.39];
        for eps in [0.0, 1e-6, 0.05, 1.0] {
            let fast = score_ranks(&scores, eps);
            let naive: Vec<u32> = (0..scores.len())
                .map(|r| rank_of_in(&scores, r, eps))
                .collect();
            assert_eq!(fast, naive, "eps={eps}");
        }
    }

    #[test]
    fn scores_f64_dot_products() {
        let rows = FeatureMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let s = scores_f64(&rows, &[0.5, 0.5]);
        assert_eq!(s, vec![1.5, 3.5]);
        let mut buf = vec![0.0; 2];
        scores_f64_into(&rows, &[0.5, 0.5], &mut buf);
        assert_eq!(buf, s);
    }

    #[test]
    fn exact_ranks_match_f64_when_well_separated() {
        let rows = FeatureMatrix::from_rows(&[
            vec![3.0, 2.0, 8.0],
            vec![4.0, 1.0, 15.0],
            vec![1.0, 1.0, 14.0],
        ]);
        let w = [0.1, 0.8, 0.1];
        let f = scores_f64(&rows, &w);
        let e = scores_exact(&rows, &w).unwrap();
        let subset = [0, 1, 2];
        let exact = score_ranks_exact(&e, &Rational::zero(), &subset);
        let fast: Vec<u32> = subset.iter().map(|&r| rank_of_in(&f, r, 0.0)).collect();
        assert_eq!(exact, fast);
    }

    #[test]
    fn exact_ranks_catch_f64_blindspots() {
        // Two scores that collide in f64 but differ exactly: w·x with
        // catastrophic cancellation.
        let rows = FeatureMatrix::from_rows(&[vec![1e16, 1.0], vec![1e16, 2.0]]);
        // Weights chosen so f64 scores are equal (absorption) but exact
        // scores differ by 0.25.
        let w = [1.0, 0.25];
        let f = scores_f64(&rows, &w);
        assert_eq!(f[0], f[1], "f64 absorbs the small component");
        let e = scores_exact(&rows, &w).unwrap();
        let exact = score_ranks_exact(&e, &Rational::zero(), &[0, 1]);
        assert_eq!(exact, vec![2, 1], "exact arithmetic separates them");
    }

    #[test]
    fn subset_ranks_only_for_requested() {
        let fm = FeatureMatrix::from_rows(&[vec![1.0], vec![3.0], vec![2.0]]);
        let e = scores_exact(&fm, &[1.0]).unwrap();
        let got = score_ranks_exact(&e, &Rational::zero(), &[1]);
        assert_eq!(got, vec![1]);
    }

    #[test]
    #[should_panic(expected = "tie tolerance")]
    fn negative_eps_rejected_by_rank_of_in() {
        rank_of_in(&[1.0, 2.0], 0, -0.1);
    }

    #[test]
    #[should_panic(expected = "tie tolerance")]
    fn nan_eps_rejected_by_score_ranks() {
        score_ranks(&[1.0, 2.0], f64::NAN);
    }
}
