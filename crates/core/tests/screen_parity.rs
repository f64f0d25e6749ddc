//! Parity of the screened and allocation-free hot paths with the plain
//! implementations they replaced, kept here as oracles:
//!
//! - the score-screened `reduce_against_box` against per-pair exact
//!   classification of every pair;
//! - `SimplexBox::min_max` (one stack sort) against the two-sort,
//!   allocating knapsack;
//! - the one-pass `evaluate_weights` / `ranks_of_in` against one
//!   `rank_of_in` scan per ranked tuple;
//! - the screened `gap_band_pairs` against the full pairwise scan.
//!
//! Every comparison is bit-for-bit. Cases come from a seeded generator
//! that aims at the edges the screens must respect: tiny cells, the
//! whole simplex, box sums within 1e-12 of 1, boxes missing the simplex,
//! data scaled up to 1e6, and rows planted so a pair's extreme value
//! sits right at `ε` (or at the gap-band edges).

use proptest::prelude::*;
use rankhow_core::formulation::{self, SimplexBox};
use rankhow_core::{verify, OptProblem, Tolerances};
use rankhow_data::Dataset;
use rankhow_linalg::FeatureMatrix;
use rankhow_ranking::{evaluate_weights, rank_of_in, ranks_of_in, GivenRanking};

// ---------------------------------------------------------------- oracles

/// The allocating fractional knapsack the production classifier replaced.
fn oracle_min(c: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
    let m = c.len();
    let base: f64 = lo.iter().sum();
    let cap: f64 = hi.iter().sum();
    if base > 1.0 + 1e-12 || cap < 1.0 - 1e-12 {
        return None;
    }
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| c[a].total_cmp(&c[b]));
    let mut remaining = 1.0 - base;
    let mut value: f64 = c.iter().zip(lo).map(|(ci, li)| ci * li).sum();
    for &j in &order {
        if remaining <= 0.0 {
            break;
        }
        let room = (hi[j] - lo[j]).min(remaining);
        value += c[j] * room;
        remaining -= room;
    }
    Some(value)
}

fn oracle_max(c: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
    let neg: Vec<f64> = c.iter().map(|x| -x).collect();
    oracle_min(&neg, lo, hi).map(|v| -v)
}

/// `(fixed_beats, undecided, [(s, slot)], flat diffs)` from classifying
/// every pair exactly.
type Reduction = (Vec<u32>, Vec<u32>, Vec<(usize, usize)>, Vec<u64>);

fn oracle_reduce(problem: &OptProblem, lo: &[f64], hi: &[f64]) -> Reduction {
    let features = problem.data.features();
    let eps = problem.tol.eps;
    let top = problem.given.top_k();
    let mut fixed = vec![0u32; top.len()];
    let mut undecided = vec![0u32; top.len()];
    let mut pairs = Vec::new();
    let mut diffs = Vec::new();
    let mut diff = vec![0.0; features.m()];
    for (slot, &r) in top.iter().enumerate() {
        for s in (0..features.n()).filter(|&s| s != r) {
            features.row_diff_into(s, r, &mut diff);
            match (oracle_min(&diff, lo, hi), oracle_max(&diff, lo, hi)) {
                (Some(l), Some(_)) if l > eps => fixed[slot] += 1,
                (Some(_), Some(h)) if h <= eps => {}
                _ => {
                    undecided[slot] += 1;
                    pairs.push((s, slot));
                    diffs.extend(diff.iter().map(|d| d.to_bits()));
                }
            }
        }
    }
    (fixed, undecided, pairs, diffs)
}

fn screened_reduce(problem: &OptProblem, lo: &[f64], hi: &[f64]) -> Reduction {
    let sys = formulation::reduce_against_box(problem, lo, hi);
    let pairs = sys.pairs.iter().map(|p| (p.s, p.slot)).collect();
    let diffs = (0..sys.pairs.len())
        .flat_map(|i| sys.diff(i).iter().map(|d| d.to_bits()).collect::<Vec<_>>())
        .collect();
    (sys.fixed_beats, sys.undecided, pairs, diffs)
}

/// The gap-band scan before screening: every pair's exact difference dot.
fn oracle_gap_band(problem: &OptProblem, weights: &[f64]) -> Vec<(usize, usize, u64)> {
    let features = problem.data.features();
    let (e1, e2) = (problem.tol.eps1, problem.tol.eps2);
    let mut out = Vec::new();
    let (mut row_r, mut row_s) = (vec![0.0; features.m()], vec![0.0; features.m()]);
    for &r in problem.given.top_k() {
        features.copy_row_into(r, &mut row_r);
        for s in (0..features.n()).filter(|&s| s != r) {
            features.copy_row_into(s, &mut row_s);
            let diff: f64 = row_s
                .iter()
                .zip(&row_r)
                .zip(weights)
                .map(|((a, b), w)| (a - b) * w)
                .sum();
            if diff > e2 && diff < e1 {
                out.push((s, r, diff.to_bits()));
            }
        }
    }
    out
}

// ------------------------------------------------------------- generators

/// SplitMix64: the case generator behind each proptest seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
    /// A point of the simplex.
    fn simplex(&mut self, m: usize) -> Vec<f64> {
        let raw: Vec<f64> = (0..m).map(|_| self.unit() + 1e-3).collect();
        let sum: f64 = raw.iter().sum();
        raw.iter().map(|x| x / sum).collect()
    }
}

/// A weight box of one of the shapes the screens must respect.
fn weight_box(g: &mut Gen, m: usize) -> (Vec<f64>, Vec<f64>) {
    let p = g.simplex(m);
    match g.below(6) {
        // A SYM-GD cell (tiny to coarse) around a simplex point.
        0 => {
            let half = g.pick(&[1e-6, 1e-4, 5e-3, 0.05]);
            let lo = p.iter().map(|x| (x - half).max(0.0)).collect();
            let hi = p.iter().map(|x| (x + half).min(1.0)).collect();
            (lo, hi)
        }
        // The whole simplex.
        1 => (vec![0.0; m], vec![1.0; m]),
        // Σlo within 1e-12 of 1, from either side.
        2 => {
            let f = 1.0 + g.pick(&[-5e-13, 0.0, 5e-13]);
            let lo: Vec<f64> = p.iter().map(|x| x * f).collect();
            let hi = lo.iter().map(|x| x + g.unit() * 0.1).collect();
            (lo, hi)
        }
        // Σhi within 1e-12 of 1, from either side.
        3 => {
            let f = 1.0 + g.pick(&[-5e-13, 0.0, 5e-13]);
            let hi: Vec<f64> = p.iter().map(|x| x * f).collect();
            let lo = hi.iter().map(|x| (x - g.unit() * 0.1).max(0.0)).collect();
            (lo, hi)
        }
        // Boxes missing the simplex.
        4 => {
            if g.below(2) == 0 {
                (vec![0.9 / m as f64 + 0.2; m], vec![1.0; m])
            } else {
                (vec![0.0; m], vec![0.8 / m as f64; m])
            }
        }
        // A random sub-box containing `p`.
        _ => {
            let lo = p.iter().map(|x| x * g.unit()).collect();
            let hi = p.iter().map(|x| x + (1.0 - x) * g.unit()).collect();
            (lo, hi)
        }
    }
}

/// Offsets by which planted rows miss a threshold: exact hits, rounding
/// distance, and either side of the screen margin.
const NEAR: [f64; 7] = [0.0, 1e-15, -1e-15, 1e-10, -1e-10, 1e-7, -1e-7];

/// A problem of `n` rows whose ranked tuples are `0..k`, with some rows
/// planted as `r + d + t`: the constant shift `t` moves `(s − r)·w` by
/// exactly `t` on the simplex, so the pair's exact extreme over
/// `(lo, hi)` lands within `NEAR` of `ε`.
fn planted_problem(
    g: &mut Gen,
    n: usize,
    m: usize,
    k: usize,
    lo: &[f64],
    hi: &[f64],
) -> OptProblem {
    let scale = g.pick(&[1.0, 1e3, 1e6]);
    let eps = g.pick(&[0.0, 5e-6, 1e-3]) * scale;
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..m)
                .map(|_| (g.unit() * 8.0).round() / 8.0 * scale)
                .collect()
        })
        .collect();
    for s in k..n {
        if g.below(3) != 0 {
            continue;
        }
        let r = g.below(k);
        let d: Vec<f64> = (0..m).map(|_| (g.unit() - 0.5) * scale).collect();
        let extreme = if g.below(2) == 0 {
            oracle_min(&d, lo, hi)
        } else {
            oracle_max(&d, lo, hi)
        };
        let t = extreme.map_or(0.0, |x| eps - x) + g.pick(&NEAR) * scale;
        rows[s] = rows[r].iter().zip(&d).map(|(a, b)| a + b + t).collect();
    }
    let positions = (0..n).map(|i| (i < k).then_some(i as u32 + 1)).collect();
    let names = (0..m).map(|j| format!("A{j}")).collect();
    OptProblem::with_tolerances(
        Dataset::from_rows(names, rows).unwrap(),
        GivenRanking::from_positions(positions).unwrap(),
        Tolerances::explicit(eps, 2.0 * eps + 1e-12, 0.0),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn screened_reduction_matches_exact_per_pair(seed in any::<u64>(), n in 2usize..48, m in 1usize..7) {
        let mut g = Gen(seed);
        let (lo, hi) = weight_box(&mut g, m);
        let k = 1 + g.below(n.min(6));
        let problem = planted_problem(&mut g, n, m, k, &lo, &hi);
        prop_assert_eq!(screened_reduce(&problem, &lo, &hi), oracle_reduce(&problem, &lo, &hi));
    }

    #[test]
    fn knapsack_matches_two_sort_oracle(seed in any::<u64>(), m in 1usize..80) {
        let mut g = Gen(seed);
        let (lo, hi) = weight_box(&mut g, m);
        // Few distinct values, so duplicates and ±0.0 are common.
        let pool = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -2.5e6, 3.0];
        let c: Vec<f64> = (0..m)
            .map(|_| if g.below(2) == 0 { g.pick(&pool) } else { g.unit() - 0.5 })
            .collect();
        let (want_min, want_max) = (oracle_min(&c, &lo, &hi), oracle_max(&c, &lo, &hi));
        let region = SimplexBox::new(&lo, &hi);
        prop_assert_eq!(region.is_some(), want_min.is_some());
        let got = region.as_ref().map(|b| b.min_max(&c));
        prop_assert_eq!(got.map(|(l, _)| l.to_bits()), want_min.map(f64::to_bits));
        prop_assert_eq!(got.map(|(_, h)| h.to_bits()), want_max.map(f64::to_bits));
        prop_assert_eq!(formulation::box_simplex_min(&c, &lo, &hi).map(f64::to_bits), want_min.map(f64::to_bits));
        prop_assert_eq!(formulation::box_simplex_max(&c, &lo, &hi).map(f64::to_bits), want_max.map(f64::to_bits));
        // The O(m) screen only ever agrees with the exact extremes.
        if let (Some(b), Some(l), Some(h)) = (&region, want_min, want_max) {
            for eps in [0.0, 1e-9, 0.25] {
                match b.screen(&c, eps) {
                    Some(true) => prop_assert!(l > eps),
                    Some(false) => prop_assert!(h <= eps),
                    None => {}
                }
            }
        }
    }

    #[test]
    fn one_pass_ranks_match_per_tuple_scans(seed in any::<u64>(), n in 1usize..200, m in 1usize..4) {
        let mut g = Gen(seed);
        // Integer-valued attributes and weights: many exact ties.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| g.below(6) as f64).collect())
            .collect();
        let features = FeatureMatrix::from_rows(&rows);
        let weights: Vec<f64> = (0..m).map(|_| g.below(3) as f64 / 2.0).collect();
        let eps = g.pick(&[0.0, 0.0, 0.5, 1.0]);
        // k around the `k·8 < n` switch, or anywhere.
        let k = match g.below(3) {
            0 => n / 8,
            1 => n / 8 + 1,
            _ => 1 + g.below(n),
        }
        .clamp(1, n);
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            ids.swap(i, g.below(i + 1));
        }
        let mut positions = vec![None; n];
        for (p, &i) in ids[..k].iter().enumerate() {
            positions[i] = Some(p as u32 + 1);
        }
        let given = GivenRanking::from_positions(positions).unwrap();
        let scores = features.scores(&weights);
        let want: u64 = given
            .top_k()
            .iter()
            .map(|&i| (given.position(i).unwrap() as i64 - rank_of_in(&scores, i, eps) as i64).unsigned_abs())
            .sum();
        prop_assert_eq!(evaluate_weights(&features, &given, &weights, eps), want);
        // Non-finite scores: NaN is beaten by nothing, ±inf never ties.
        let mut wild = scores.clone();
        for x in wild.iter_mut() {
            if g.below(8) == 0 {
                *x = g.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]);
            }
        }
        let per_tuple: Vec<u32> = ids[..k].iter().map(|&i| rank_of_in(&wild, i, eps)).collect();
        prop_assert_eq!(ranks_of_in(&wild, &ids[..k], eps), per_tuple);
    }

    #[test]
    fn screened_gap_band_matches_full_scan(seed in any::<u64>(), n in 2usize..48, m in 1usize..6) {
        let mut g = Gen(seed);
        let scale = g.pick(&[1.0, 1e3, 1e6]);
        let (e2, e1) = (g.pick(&[0.0, 1e-4]) * scale, 1e-3 * scale);
        let w = g.simplex(m);
        let k = 1 + g.below(n.min(6));
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..m).map(|_| g.unit() * scale).collect())
            .collect();
        // Plant challengers whose score difference sits inside the band
        // or within rounding of either edge.
        for s in k..n {
            if g.below(2) == 0 {
                continue;
            }
            let r = g.below(k);
            let target = g.pick(&[e2, e1, 0.5 * (e1 + e2)]) + g.pick(&NEAR) * scale;
            let d: Vec<f64> = (0..m).map(|_| (g.unit() - 0.5) * scale).collect();
            let at: f64 = d.iter().zip(&w).map(|(a, b)| a * b).sum();
            rows[s] = rows[r].iter().zip(&d).map(|(a, b)| a + b + (target - at)).collect();
        }
        let positions = (0..n).map(|i| (i < k).then_some(i as u32 + 1)).collect();
        let names = (0..m).map(|j| format!("A{j}")).collect();
        let problem = OptProblem::with_tolerances(
            Dataset::from_rows(names, rows).unwrap(),
            GivenRanking::from_positions(positions).unwrap(),
            Tolerances::explicit(0.5 * (e1 + e2), e1, e2),
        )
        .unwrap();
        let got: Vec<(usize, usize, u64)> = verify::gap_band_pairs(&problem, &w)
            .into_iter()
            .map(|(s, r, d)| (s, r, d.to_bits()))
            .collect();
        prop_assert_eq!(got, oracle_gap_band(&problem, &w));
    }
}
