//! Equation (2): the MILP formulation of OPT, and the box-reduction
//! machinery that both the specialized solver and SYM-GD build on.
//!
//! Two central ideas from the paper live here:
//!
//! 1. **Indicator structure.** Every pair (other tuple `s`, ranked tuple
//!    `r`) contributes one binary indicator `δ_sr` whose value is decided
//!    by the sign of the linear form `Σ w_i (s.A_i − r.A_i)` against the
//!    thresholds `ε1`/`ε2`. The rank of `r` is `1 + Σ_s δ_sr`.
//!
//! 2. **Constant folding over a box** (Section IV and V-B). Over any box
//!    `[lo, hi] ⊆ [0,1]^m` of weight space (intersected with the simplex
//!    `Σw = 1`), the extreme values of each pair's linear form are exact
//!    fractional-knapsack optima ([`SimplexBox::min_max`], one stack sort
//!    of `m` indices). Pairs whose range clears `ε` on one side are
//!    constants — the SYM-GD speedup and the Section V-B dominance
//!    pruning both fall out of this test (a dominated pair's range is
//!    strictly positive over the whole simplex).
//!
//! 3. **Score screening.** A small cell is crossed by almost no
//!    hyperplanes, so [`reduce_against_box`] first bounds every pair in
//!    O(1) from per-box scores at the lower corner and per-tuple
//!    attribute extremes, after an `O(n·m)` pass per box. Only pairs whose
//!    bounds come within a rounding margin of `ε` pay for a difference
//!    vector and the exact knapsack. The screen decides a pair only where
//!    the exact classifier decides it identically, so the reduced system
//!    is bit-for-bit the unscreened one.

use crate::{OptProblem, WeightConstraints};
use rankhow_linalg::FeatureMatrix;
use rankhow_lp::{Op, Sense, VarId};
use rankhow_milp::MilpProblem;

/// An undecided indicator pair: tuple `s` versus ranked tuple at `slot`.
/// Its difference vector lives in the system's flat
/// [`ReducedSystem::diff`] store (columnar-refactor: one contiguous
/// allocation instead of one `Vec` per pair).
#[derive(Clone, Copy, Debug)]
pub struct PairH {
    /// Index of the challenger tuple `s`.
    pub s: usize,
    /// Slot (into [`ReducedSystem::top`]) of the ranked tuple `r`.
    pub slot: usize,
}

/// OPT after constant-folding every indicator that a weight box decides.
#[derive(Clone, Debug)]
pub struct ReducedSystem {
    /// Ranked tuple ids, in slot order.
    pub top: Vec<usize>,
    /// Given position `π(r)` per slot.
    pub target: Vec<u32>,
    /// Per slot: challengers guaranteed to beat `r` anywhere in the box.
    pub fixed_beats: Vec<u32>,
    /// Per slot: number of undecided challengers.
    pub undecided: Vec<u32>,
    /// The undecided pairs (difference vectors in [`ReducedSystem::diff`]).
    pub pairs: Vec<PairH>,
    /// Flat difference storage: pair `i`'s `diff_j = s.A_j − r.A_j`
    /// occupies `diffs[i·m .. (i+1)·m]`. Contiguous so the node-loop dot
    /// products stream one allocation.
    diffs: Vec<f64>,
    /// Attribute count (row stride of `diffs`).
    m: usize,
    /// The box the reduction was performed against.
    pub box_lo: Vec<f64>,
    /// Upper corner of the box.
    pub box_hi: Vec<f64>,
}

impl ReducedSystem {
    /// Difference vector of pair `idx` (`s.A − r.A`, length `m`).
    #[inline]
    pub fn diff(&self, idx: usize) -> &[f64] {
        &self.diffs[idx * self.m..(idx + 1) * self.m]
    }
}

/// The region `{lo ≤ w ≤ hi, Σw = 1}` prepared for repeated
/// fractional-knapsack queries: the box sums, the simplex slack `rest`
/// and each coordinate's room are computed once per box, so a query
/// costs one sort of `m` indices on the stack and no heap allocation.
#[derive(Debug)]
pub struct SimplexBox<'a> {
    lo: &'a [f64],
    /// `hi_j − lo_j` per coordinate.
    room: Vec<f64>,
    /// Mass left to spend above the lower corner: `1 − Σlo`.
    rest: f64,
    /// `1 + Σ|lo| + |rest|`: how far the weights of a point in the
    /// region can scale a row's magnitude (see [`screen_margin`]).
    reach: f64,
    /// Every room is non-negative (so `lo` plus mass `rest` spread over
    /// the rooms bounds the region): the screens' precondition.
    ordered: bool,
}

/// Coordinates up to which [`SimplexBox::min_max`] sorts on the stack;
/// wider boxes take one heap buffer per query.
const STACK_M: usize = 64;

impl<'a> SimplexBox<'a> {
    /// `None` if the box misses the simplex (within `1e-12`).
    pub fn new(lo: &'a [f64], hi: &[f64]) -> Option<Self> {
        let base: f64 = lo.iter().sum();
        let cap: f64 = hi.iter().sum();
        if base > 1.0 + 1e-12 || cap < 1.0 - 1e-12 {
            return None;
        }
        let rest = 1.0 - base;
        let room: Vec<f64> = hi.iter().zip(lo).map(|(h, l)| h - l).collect();
        Some(SimplexBox {
            lo,
            ordered: room.iter().all(|r| *r >= 0.0),
            room,
            rest,
            reach: 1.0 + lo.iter().map(|l| l.abs()).sum::<f64>() + rest.abs(),
        })
    }

    /// Minimum and maximum of `c·w` over the region — the exact
    /// fractional-knapsack optima. Start at the lower corner and spend
    /// the remaining mass on the cheapest (for the maximum, the
    /// dearest) coordinates. The maximum is computed as the minimum of
    /// `−c` in the order a stable sort of `−c` gives, so both values
    /// are bit-identical to the two-sort formulation.
    pub fn min_max(&self, c: &[f64]) -> (f64, f64) {
        let m = c.len();
        if m <= STACK_M {
            let mut order = [0usize; STACK_M];
            self.min_max_in(c, &mut order[..m])
        } else {
            self.min_max_in(c, &mut vec![0usize; m])
        }
    }

    fn min_max_in(&self, c: &[f64], order: &mut [usize]) -> (f64, f64) {
        for (j, o) in order.iter_mut().enumerate() {
            *o = j;
        }
        // Ties broken by index: the order a stable sort would give,
        // without its scratch buffer.
        order.sort_unstable_by(|&a, &b| c[a].total_cmp(&c[b]).then(a.cmp(&b)));
        let mut min: f64 = c.iter().zip(self.lo).map(|(ci, li)| ci * li).sum();
        let mut remaining = self.rest;
        for &j in order.iter() {
            if remaining <= 0.0 {
                break;
            }
            let room = self.room[j].min(remaining);
            min += c[j] * room;
            remaining -= room;
        }
        // Descending values; a run of equal values keeps index order.
        let mut neg: f64 = c.iter().zip(self.lo).map(|(ci, li)| -ci * li).sum();
        let mut remaining = self.rest;
        let mut end = order.len();
        'runs: while end > 0 {
            let value = c[order[end - 1]].to_bits();
            let mut start = end - 1;
            while start > 0 && c[order[start - 1]].to_bits() == value {
                start -= 1;
            }
            for &j in &order[start..end] {
                if remaining <= 0.0 {
                    break 'runs;
                }
                let room = self.room[j].min(remaining);
                neg += -c[j] * room;
                remaining -= room;
            }
            end = start;
        }
        (min, -neg)
    }

    /// Classify a difference vector against the region under tie
    /// tolerance `eps`, from its exact extremes.
    pub(crate) fn classify(&self, diff: &[f64], eps: f64) -> PairClass {
        let (l, h) = self.min_max(diff);
        if l > eps {
            PairClass::AlwaysBeats
        } else if h <= eps {
            PairClass::NeverBeats
        } else {
            PairClass::Undecided
        }
    }

    /// O(m) screen ahead of the exact knapsack: `c·lo` plus `rest`
    /// times the least (greatest) `c_j` bounds the minimum (maximum) of
    /// `c·w`. `Some(true)` when `c·w > eps` holds everywhere,
    /// `Some(false)` when it holds nowhere — each only when the bound
    /// clears `eps` by a rounding margin, so the exact classifier
    /// would decide the same — and `None` otherwise.
    pub fn screen(&self, c: &[f64], eps: f64) -> Option<bool> {
        if !self.ordered {
            return None;
        }
        let mut at_lo = 0.0;
        let (mut least, mut most, mut mag) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
        for (ci, li) in c.iter().zip(self.lo) {
            at_lo += ci * li;
            least = least.min(*ci);
            most = most.max(*ci);
            mag = mag.max(ci.abs());
        }
        let margin = screen_margin(mag * self.reach, c.len())?;
        if at_lo + self.rest * least > eps + margin {
            Some(true)
        } else if at_lo + self.rest * most <= eps - margin {
            Some(false)
        } else {
            None
        }
    }
}

/// How far a screened bound must clear a threshold before a screen may
/// decide a pair, for terms of magnitude up to `mag` summed over `m`
/// coordinates. It sits orders of magnitude above both the rounding of
/// an `m`-term dot product (`≈ m·2⁻⁵³·mag`) and the `1e-12` simplex
/// slack of [`SimplexBox::new`], so a screen decides a pair only where
/// the exact classifier decides it the same way. `None` (screen off)
/// when the magnitudes overflow.
pub(crate) fn screen_margin(mag: f64, m: usize) -> Option<f64> {
    let margin = 1e-9 * (1.0 + mag) * m.max(1) as f64;
    (4.0 * margin).is_finite().then_some(margin)
}

/// Minimum of `c·w` over `{lo ≤ w ≤ hi, Σw = 1}` — fractional knapsack.
/// Returns `None` if the box misses the simplex.
pub fn box_simplex_min(c: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
    SimplexBox::new(lo, hi).map(|b| b.min_max(c).0)
}

/// Maximum of `c·w` over the same region.
pub fn box_simplex_max(c: &[f64], lo: &[f64], hi: &[f64]) -> Option<f64> {
    SimplexBox::new(lo, hi).map(|b| b.min_max(c).1)
}

/// Classification of one pair's linear form against a box.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PairClass {
    /// `diff·w > ε` everywhere: the challenger always beats.
    AlwaysBeats,
    /// `diff·w ≤ ε` everywhere: never beats (tied or behind).
    NeverBeats,
    /// The box straddles the threshold: a live indicator.
    Undecided,
}

/// Classify a difference vector against a box under tie tolerance `eps`.
/// An empty box (missing the simplex) classifies every pair undecided.
pub fn classify(diff: &[f64], lo: &[f64], hi: &[f64], eps: f64) -> PairClass {
    SimplexBox::new(lo, hi).map_or(PairClass::Undecided, |b| b.classify(diff, eps))
}

/// Per-box O(1) screen of every pair `(s, r)`: with `S(t) = t·lo`, the
/// pair's linear form over the region lies within
/// `S(s) − S(r) + rest·[min s − max r, max s − min r]`. Costs one score
/// pass and one row min/max pass, `O(n·m)`, per box.
struct ScoreScreen {
    at_lo: Vec<f64>,
    row_min: Vec<f64>,
    row_max: Vec<f64>,
    rest: f64,
    beats_above: f64,
    never_below: f64,
}

impl ScoreScreen {
    fn new(features: &FeatureMatrix, region: &SimplexBox, eps: f64) -> Option<Self> {
        if !region.ordered {
            return None;
        }
        let (mut row_min, mut row_max) = (
            vec![f64::INFINITY; features.n()],
            vec![f64::NEG_INFINITY; features.n()],
        );
        let mut mag = 0.0f64;
        for j in 0..features.m() {
            for ((a, lo), hi) in features.col(j).iter().zip(&mut row_min).zip(&mut row_max) {
                *lo = lo.min(*a);
                *hi = hi.max(*a);
                mag = mag.max(a.abs());
            }
        }
        // A pair's terms are differences of two rows: up to twice `mag`.
        let margin = screen_margin(2.0 * mag * region.reach, features.m())?;
        Some(ScoreScreen {
            at_lo: features.scores(region.lo),
            row_min,
            row_max,
            rest: region.rest,
            beats_above: eps + margin,
            never_below: eps - margin,
        })
    }

    /// `Some(true)` if `s` beats `r` everywhere in the region,
    /// `Some(false)` if it never does, `None` if the exact classifier
    /// must decide.
    #[inline]
    fn decide(&self, s: usize, r: usize) -> Option<bool> {
        let base = self.at_lo[s] - self.at_lo[r];
        if base + self.rest * (self.row_min[s] - self.row_max[r]) > self.beats_above {
            Some(true)
        } else if base + self.rest * (self.row_max[s] - self.row_min[r]) <= self.never_below {
            Some(false)
        } else {
            None
        }
    }
}

/// Build the reduced system for `problem` against a weight box.
///
/// Streams over all `k·(n−1)` pairs without materializing the decided
/// ones, so it is safe at the paper's `n = 10⁶` scale: memory is
/// `O(undecided)`. A per-box score screen decides most pairs in O(1)
/// each; the rest have their difference vectors gathered and go to the
/// exact classifier, so the result is the one per-pair exact
/// classification would give.
pub fn reduce_against_box(problem: &OptProblem, lo: &[f64], hi: &[f64]) -> ReducedSystem {
    let features = problem.data.features();
    let given = &problem.given;
    let eps = problem.tol.eps;
    let top: Vec<usize> = given.top_k().to_vec();
    // Invariant carried by `GivenRanking`: `top_k()` enumerates exactly
    // the tuples whose `position()` is `Some` (checked at construction),
    // so this lookup cannot fail for a well-formed ranking. (Audit note:
    // this is the only non-test unwrap/expect in this module; every
    // other fallible path returns through `Option`/`Result`.)
    let target: Vec<u32> = top
        .iter()
        .map(|&r| {
            given
                .position(r)
                .expect("GivenRanking invariant: every top-k tuple has a position")
        })
        .collect();
    let mut fixed_beats = vec![0u32; top.len()];
    let mut undecided = vec![0u32; top.len()];
    let mut pairs = Vec::new();
    let mut diffs = Vec::new();
    let n = problem.n();
    let m = problem.m();
    let region = SimplexBox::new(lo, hi);
    let screen = region
        .as_ref()
        .and_then(|b| ScoreScreen::new(features, b, eps));
    // Pairs the screen leaves open are processed in blocks: the batched
    // kernel fills a block of difference vectors one *column* at a time
    // (each source column read contiguously), then each diff is
    // classified.
    const BLOCK: usize = 128;
    let mut block_ids: Vec<usize> = Vec::with_capacity(BLOCK);
    let mut block_buf = vec![0.0f64; BLOCK * m];
    for (slot, &r) in top.iter().enumerate() {
        let mut s = 0usize;
        while s < n {
            block_ids.clear();
            while s < n && block_ids.len() < BLOCK {
                if s != r {
                    match screen.as_ref().and_then(|sc| sc.decide(s, r)) {
                        Some(true) => fixed_beats[slot] += 1,
                        Some(false) => {}
                        None => block_ids.push(s),
                    }
                }
                s += 1;
            }
            features.block_diffs_into(&block_ids, r, &mut block_buf);
            for (b, &sid) in block_ids.iter().enumerate() {
                let diff = &block_buf[b * m..(b + 1) * m];
                let class = region
                    .as_ref()
                    .map_or(PairClass::Undecided, |rg| rg.classify(diff, eps));
                match class {
                    PairClass::AlwaysBeats => fixed_beats[slot] += 1,
                    PairClass::NeverBeats => {}
                    PairClass::Undecided => {
                        undecided[slot] += 1;
                        pairs.push(PairH { s: sid, slot });
                        diffs.extend_from_slice(diff);
                    }
                }
            }
        }
    }
    ReducedSystem {
        top,
        target,
        fixed_beats,
        undecided,
        pairs,
        diffs,
        m,
        box_lo: lo.to_vec(),
        box_hi: hi.to_vec(),
    }
}

/// Reduce against the whole simplex (`[0,1]^m` box) — the global solve.
pub fn reduce_global(problem: &OptProblem) -> ReducedSystem {
    let m = problem.m();
    reduce_against_box(problem, &vec![0.0; m], &vec![1.0; m])
}

impl ReducedSystem {
    /// Lower bound on the position error achievable anywhere in the box:
    /// each slot's rank is confined to
    /// `[fixed+1, fixed+undecided+1]`; error is at least the distance of
    /// `π(r)` to that interval (Section IV-B).
    pub fn error_lower_bound(&self) -> u64 {
        self.top
            .iter()
            .enumerate()
            .map(|(slot, _)| {
                let min_rank = self.fixed_beats[slot] as i64 + 1;
                let max_rank = min_rank + self.undecided[slot] as i64;
                let pi = self.target[slot] as i64;
                if pi < min_rank {
                    (min_rank - pi) as u64
                } else if pi > max_rank {
                    (pi - max_rank) as u64
                } else {
                    0
                }
            })
            .sum()
    }

    /// Upper bound on achievable error (everything uncertain goes wrong).
    pub fn error_upper_bound(&self) -> u64 {
        self.top
            .iter()
            .enumerate()
            .map(|(slot, _)| {
                let min_rank = self.fixed_beats[slot] as i64 + 1;
                let max_rank = min_rank + self.undecided[slot] as i64;
                let pi = self.target[slot] as i64;
                (pi - min_rank).abs().max((pi - max_rank).abs()) as u64
            })
            .sum()
    }
}

/// Variable layout of the generated MILP (for solution extraction).
#[derive(Clone, Debug)]
pub struct MilpLayout {
    /// Weight variables, one per attribute.
    pub w: Vec<VarId>,
    /// Indicator variables, parallel to [`ReducedSystem::pairs`].
    pub delta: Vec<VarId>,
    /// Error variables: one per ranked slot for the position measures,
    /// one per strictly-ordered slot pair (inversion binaries) for
    /// Kendall tau.
    pub err: Vec<VarId>,
}

/// Build the literal Equation (2) MILP over a reduced system:
///
/// ```text
/// min  Σ_r c_r·e_r
/// s.t. P(w),  Σw = 1,  w ≥ 0
///      δ_sr = 1 ⇒ diff·w ≥ ε1      (big-M encoded)
///      δ_sr = 0 ⇒ diff·w ≤ ε2
///      e_r ≥ ±(fixed_r + Σ_s δ_sr + 1 − π(r))
/// ```
///
/// The objective follows [`OptProblem::objective`]: `c_r = 1` for
/// position error (the paper's Equation (2)); `c_r = k − π(r) + 1` for
/// the top-weighted variant; and for Kendall tau the `e_r` block is
/// replaced by one binary `z_ab` per strictly-ordered ranked pair with
/// `rank_a − rank_b ≤ M·z_ab` (given `π(a) < π(b)`), minimizing `Σ z` —
/// the Section II "other error measures" generalization.
pub fn build_milp(problem: &OptProblem, system: &ReducedSystem) -> (MilpProblem, MilpLayout) {
    use rankhow_ranking::ErrorMeasure;

    let m = problem.m();
    let mut milp = MilpProblem::new(Sense::Minimize);
    let w: Vec<VarId> = (0..m)
        .map(|j| milp.add_var(&format!("w{j}"), 0.0, 1.0, 0.0))
        .collect();
    let simplex: Vec<(VarId, f64)> = w.iter().map(|&v| (v, 1.0)).collect();
    milp.add_constraint(&simplex, Op::Eq, 1.0);
    apply_weight_constraints(&mut milp, &problem.constraints, &w);

    let delta: Vec<VarId> = system
        .pairs
        .iter()
        .enumerate()
        .map(|(i, _)| milp.add_binary(&format!("d{i}"), 0.0))
        .collect();
    for (idx, &d) in delta.iter().enumerate() {
        let diff = system.diff(idx);
        let terms: Vec<(VarId, f64)> = (0..m).map(|j| (w[j], diff[j])).collect();
        // |diff·w| ≤ max_j |diff_j| over the simplex: a tight big-M.
        let reach = diff.iter().fold(0.0f64, |a, d| a.max(d.abs()));
        let big_m = reach + problem.tol.eps1.abs() + 1.0;
        milp.add_indicator_ge(d, &terms, problem.tol.eps1, big_m);
        milp.add_indicator_le(d, &terms, problem.tol.eps2, big_m);
    }

    let k = system.top.len();
    let mut err = Vec::new();
    match problem.objective {
        ErrorMeasure::Position | ErrorMeasure::TopWeighted => {
            for slot in 0..k {
                let cost = match problem.objective {
                    ErrorMeasure::TopWeighted => (k as u64 - system.target[slot] as u64 + 1) as f64,
                    _ => 1.0,
                };
                let e = milp.add_var(&format!("e{slot}"), 0.0, f64::INFINITY, cost);
                err.push(e);
                let base = system.fixed_beats[slot] as f64 + 1.0 - system.target[slot] as f64;
                let mut up: Vec<(VarId, f64)> = vec![(e, 1.0)];
                let mut down: Vec<(VarId, f64)> = vec![(e, 1.0)];
                for (pair, &d) in system.pairs.iter().zip(&delta) {
                    if pair.slot == slot {
                        up.push((d, -1.0));
                        down.push((d, 1.0));
                    }
                }
                // e ≥ (base + Σδ)  and  e ≥ −(base + Σδ)
                milp.add_constraint(&up, Op::Ge, base);
                milp.add_constraint(&down, Op::Ge, -base);
            }
        }
        ErrorMeasure::KendallTau => {
            // rank_slot = fixed_slot + Σ_s δ_s,slot + 1. For a strictly-
            // ordered pair (hi ranked above lo in π), an inversion means
            // rank_hi > rank_lo; force z = 1 exactly then via
            // rank_hi − rank_lo ≤ M·z (ranks are integral, so the strict
            // inequality is "≥ 1" and z = 0 enforces rank_hi ≤ rank_lo).
            let big_m = problem.n() as f64;
            for a in 0..k {
                for b in a + 1..k {
                    let (pa, pb) = (system.target[a], system.target[b]);
                    if pa == pb {
                        continue;
                    }
                    let (hi, lo) = if pa < pb { (a, b) } else { (b, a) };
                    let z = milp.add_binary(&format!("z{hi}_{lo}"), 1.0);
                    err.push(z);
                    // Σδ_·,hi − Σδ_·,lo − M·z ≤ fixed_lo − fixed_hi
                    let mut terms: Vec<(VarId, f64)> = vec![(z, -big_m)];
                    for (pair, &d) in system.pairs.iter().zip(&delta) {
                        if pair.slot == hi {
                            terms.push((d, 1.0));
                        } else if pair.slot == lo {
                            terms.push((d, -1.0));
                        }
                    }
                    let rhs = system.fixed_beats[lo] as f64 - system.fixed_beats[hi] as f64;
                    milp.add_constraint(&terms, Op::Le, rhs);
                }
            }
        }
    }

    (milp, MilpLayout { w, delta, err })
}

fn apply_weight_constraints(milp: &mut MilpProblem, wc: &WeightConstraints, w: &[VarId]) {
    for (coefs, rhs) in wc.rows() {
        let terms: Vec<(VarId, f64)> = coefs.iter().map(|&(i, c)| (w[i], c)).collect();
        milp.add_constraint(&terms, Op::Le, rhs);
    }
}

/// The indicator hyperplanes of an instance (for geometry examples and
/// Fig. 1/2 reproduction): `(s, r, diff)` per pair.
pub fn indicator_hyperplanes(problem: &OptProblem) -> Vec<(usize, usize, Vec<f64>)> {
    let features = problem.data.features();
    let mut out = Vec::new();
    let mut diff = vec![0.0; features.m()];
    for &r in problem.given.top_k() {
        for s in 0..features.n() {
            if s == r {
                continue;
            }
            features.row_diff_into(s, r, &mut diff);
            out.push((s, r, diff.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankhow_data::Dataset;
    use rankhow_milp::MilpStatus;
    use rankhow_ranking::GivenRanking;

    fn example4_problem() -> OptProblem {
        // Paper Example 4: r=(3,2,8), s=(4,1,15), t=(1,1,14), π = [1,2,⊥].
        let data = Dataset::from_rows(
            vec!["A1".into(), "A2".into(), "A3".into()],
            vec![
                vec![3.0, 2.0, 8.0],
                vec![4.0, 1.0, 15.0],
                vec![1.0, 1.0, 14.0],
            ],
        )
        .unwrap();
        let given = GivenRanking::from_positions(vec![Some(1), Some(2), None]).unwrap();
        OptProblem::new(data, given).unwrap()
    }

    #[test]
    fn box_simplex_extremes_match_vertices() {
        // Over the full simplex the extremes of c·w are min/max of c.
        let c = [3.0, -1.0, 2.0];
        let lo = [0.0; 3];
        let hi = [1.0; 3];
        assert_eq!(box_simplex_min(&c, &lo, &hi), Some(-1.0));
        assert_eq!(box_simplex_max(&c, &lo, &hi), Some(3.0));
    }

    #[test]
    fn box_simplex_respects_box() {
        // w0 ∈ [0.5, 1.0] forces at least half the mass on coordinate 0.
        let c = [1.0, 0.0];
        let lo = [0.5, 0.0];
        let hi = [1.0, 1.0];
        assert_eq!(box_simplex_min(&c, &lo, &hi), Some(0.5));
        assert_eq!(box_simplex_max(&c, &lo, &hi), Some(1.0));
    }

    #[test]
    fn box_missing_simplex_is_none() {
        // Box sums can't reach 1.
        assert_eq!(box_simplex_min(&[1.0, 1.0], &[0.0, 0.0], &[0.3, 0.3]), None);
        // Box lower corner already exceeds 1.
        assert_eq!(box_simplex_min(&[1.0, 1.0], &[0.8, 0.8], &[1.0, 1.0]), None);
    }

    #[test]
    fn classification_three_ways() {
        let lo = [0.0; 2];
        let hi = [1.0; 2];
        assert_eq!(classify(&[1.0, 2.0], &lo, &hi, 0.0), PairClass::AlwaysBeats);
        assert_eq!(
            classify(&[-1.0, -0.5], &lo, &hi, 0.0),
            PairClass::NeverBeats
        );
        assert_eq!(classify(&[1.0, -1.0], &lo, &hi, 0.0), PairClass::Undecided);
        // Tolerance shifts the boundary.
        assert_eq!(classify(&[0.4, 0.5], &lo, &hi, 0.6), PairClass::NeverBeats);
    }

    #[test]
    fn global_reduction_subsumes_dominance() {
        let problem = example4_problem();
        let sys = reduce_global(&problem);
        // s=(4,1,15) vs t=(1,1,14): s dominates-or-ties t on every
        // attribute, so the pair (t beats s?) is never-beats and the
        // reverse is... A2 ties (1 vs 1), so min over simplex of
        // (s − t)·w = min(3, 0, 1) = 0, not > ε: stays undecided under
        // strict classification. The pairs that survive must include all
        // straddling ones.
        for idx in 0..sys.pairs.len() {
            let l = box_simplex_min(sys.diff(idx), &sys.box_lo, &sys.box_hi).unwrap();
            let h = box_simplex_max(sys.diff(idx), &sys.box_lo, &sys.box_hi).unwrap();
            assert!(l <= problem.tol.eps && h > problem.tol.eps);
        }
    }

    #[test]
    fn tight_box_folds_everything() {
        let problem = example4_problem();
        // A tiny box around w = (0.05, 0.9, 0.05), where all three
        // scores are well separated (2.35, 1.85, 1.65): every indicator
        // becomes a constant, so no pairs remain. (The Example 5 star
        // (0.1, 0.8, 0.1) would NOT fold: it scores r and s exactly
        // equal, so their hyperplane passes through any cell around it.)
        let center = [0.05, 0.9, 0.05];
        let lo: Vec<f64> = center.iter().map(|c| c - 1e-6).collect();
        let hi: Vec<f64> = center.iter().map(|c| c + 1e-6).collect();
        let sys = reduce_against_box(&problem, &lo, &hi);
        assert!(
            sys.pairs.is_empty(),
            "tiny cell must fold all indicators, kept {}",
            sys.pairs.len()
        );
        // And the bound is exact there: lower == upper.
        assert_eq!(sys.error_lower_bound(), sys.error_upper_bound());
    }

    #[test]
    fn bounds_bracket_true_error() {
        let problem = example4_problem();
        let sys = reduce_global(&problem);
        let lb = sys.error_lower_bound();
        let ub = sys.error_upper_bound();
        assert!(lb == 0, "a perfect function exists (Example 5)");
        for w in [[0.1, 0.8, 0.1], [0.4, 0.4, 0.2], [1.0, 0.0, 0.0]] {
            let e = problem.evaluate(&w);
            assert!(e >= lb && e <= ub, "error {e} outside [{lb}, {ub}]");
        }
    }

    #[test]
    fn milp_solves_example4_to_zero() {
        let problem = example4_problem();
        let sys = reduce_global(&problem);
        let (milp, layout) = build_milp(&problem, &sys);
        let sol = milp.solve().unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!(sol.objective.abs() < 1e-6, "objective {}", sol.objective);
        // Extract weights and verify with the Definition 2 evaluator.
        let w: Vec<f64> = layout.w.iter().map(|&v| sol.x[v]).collect();
        assert_eq!(problem.evaluate(&w), 0, "weights {w:?}");
    }

    #[test]
    fn milp_respects_weight_constraints() {
        let problem = example4_problem();
        // Force w0 ≥ 0.3 — a perfect function should still exist or the
        // solver degrade gracefully; either way w0 honors the bound.
        let constrained = problem
            .clone()
            .with_constraints(WeightConstraints::none().min_weight(0, 0.3))
            .unwrap();
        let sys = reduce_global(&constrained);
        let (milp, layout) = build_milp(&constrained, &sys);
        let sol = milp.solve().unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        let w: Vec<f64> = layout.w.iter().map(|&v| sol.x[v]).collect();
        assert!(w[0] >= 0.3 - 1e-6, "constraint honored: {w:?}");
    }

    #[test]
    fn hyperplane_enumeration_matches_example4() {
        let problem = example4_problem();
        let planes = indicator_hyperplanes(&problem);
        // k=2 ranked tuples × 2 others = 4 pairs.
        assert_eq!(planes.len(), 4);
        // δ_sr for r=tuple0, s=tuple1: diff = (1, −1, 7) — Example 4's
        // "w1 − w2 + 7w3 > 0".
        let d_sr = planes.iter().find(|(s, r, _)| *s == 1 && *r == 0).unwrap();
        assert_eq!(d_sr.2, vec![1.0, -1.0, 7.0]);
        // δ_tr: diff = (−2, −1, 6).
        let d_tr = planes.iter().find(|(s, r, _)| *s == 2 && *r == 0).unwrap();
        assert_eq!(d_tr.2, vec![-2.0, -1.0, 6.0]);
    }

    #[test]
    fn streaming_reduction_counts_consistent() {
        let problem = example4_problem();
        let sys = reduce_global(&problem);
        for slot in 0..sys.top.len() {
            let live = sys.pairs.iter().filter(|p| p.slot == slot).count() as u32;
            assert_eq!(live, sys.undecided[slot]);
            // fixed + undecided + dropped = n − 1
            assert!(sys.fixed_beats[slot] + sys.undecided[slot] <= (problem.n() - 1) as u32);
        }
    }
}
