//! Two-phase dense primal simplex.
//!
//! Standard-form conversion: every structural variable is shifted/mirrored/
//! split so the internal variables satisfy `x ≥ 0`; finite upper bounds
//! become explicit rows; `≤` rows get slacks, `≥` rows surplus+artificial,
//! `=` rows artificials. Phase 1 minimizes the artificial sum; phase 2 the
//! (internally always minimized) objective.
//!
//! All scratch storage lives in a [`SimplexWorkspace`]: the branch-and-
//! bound node loop solves thousands of near-identical LPs, and rebuilding
//! the tableau in place (instead of allocating maps/rows/tableau/cost
//! vectors per solve) keeps that loop allocation-free after warm-up.

use crate::model::{Op, Problem, Sense, Solution, Status};
use rankhow_linalg::kernels;

/// Pivot tolerance: entries smaller than this are treated as zero.
pub(crate) const TOL: f64 = 1e-9;
/// Entering tolerance: reduced costs above `−ENTER_TOL` do not justify a
/// pivot (looser than `TOL` to stop numerical churn near the optimum).
pub(crate) const ENTER_TOL: f64 = 1e-8;
/// Phase-1 objective above this value means infeasible.
pub(crate) const FEAS_TOL: f64 = 1e-7;
/// Iterations with no objective improvement before switching to Bland.
pub(crate) const STALL_LIMIT: usize = 64;

/// Hard solver failures (distinct from Infeasible/Unbounded outcomes,
/// which are valid answers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// Exceeded the iteration budget — numerical trouble.
    IterationLimit,
    /// The model contains a variable with `lo = -inf, hi = -inf` etc.
    InvalidModel(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            SolveError::InvalidModel(m) => write!(f, "invalid model: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// How a structural variable maps onto standard-form variables.
#[derive(Clone, Copy, Debug)]
pub(crate) enum VarMap {
    /// `x = x'_idx + shift` (lower bound shifted to zero).
    Shifted { idx: usize, shift: f64 },
    /// `x = mirror − x'_idx` (only an upper bound exists).
    Mirrored { idx: usize, mirror: f64 },
    /// `x = x'_pos − x'_neg` (free variable).
    Split { pos: usize, neg: usize },
}

/// Marker for "this row has no slack/artificial column".
pub(crate) const NO_COL: usize = usize::MAX;

/// Scatter a sparse linear form over structural variables into
/// standard-form columns (`out[col] ± sign·coef` per [`VarMap`]),
/// folding the Shifted/Mirrored offsets into `rhs` term by term — the
/// one copy of the variable-mapping arithmetic shared by the cold row
/// builder and the incremental layer's row pushes and objective swaps
/// (warm ≡ cold depends on these staying identical, down to the
/// per-term rounding order).
pub(crate) fn scatter_terms(
    maps: &[VarMap],
    terms: &[(usize, f64)],
    sign: f64,
    out: &mut [f64],
    rhs: &mut f64,
) {
    for &(var, coef) in terms {
        match maps[var] {
            VarMap::Shifted { idx, shift } => {
                out[idx] += sign * coef;
                *rhs -= coef * shift;
            }
            VarMap::Mirrored { idx, mirror } => {
                out[idx] -= sign * coef;
                *rhs -= coef * mirror;
            }
            VarMap::Split { pos, neg } => {
                out[pos] += sign * coef;
                out[neg] -= sign * coef;
            }
        }
    }
}

/// Shape of one standard-form build (see [`build_standard`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct StdForm {
    /// Standard (shifted/mirrored/split) structural variables.
    pub n_std: usize,
    /// Tableau rows: model constraints first, then upper-bound rows.
    pub rows: usize,
    /// Total columns excluding the RHS.
    pub ncols: usize,
    /// Columns ≥ this index are artificial.
    pub first_artificial: usize,
    /// Number of artificial columns.
    pub n_art: usize,
}

/// Reusable scratch buffers for [`Problem::solve_with`]. One workspace
/// serves any sequence of problems (buffers are cleared and regrown as
/// needed); it is `Send`, so parallel search engines keep one per worker.
#[derive(Default)]
pub struct SimplexWorkspace {
    pub(crate) maps: Vec<VarMap>,
    pub(crate) ub_rows: Vec<(usize, f64)>,
    /// Flattened standard-form rows: `n_rows × n_std` coefficients.
    row_coefs: Vec<f64>,
    row_meta: Vec<(Op, f64)>,
    /// Tableau storage: `n_rows × (ncols + 1)` (last column = RHS).
    pub(crate) tableau: Vec<f64>,
    pub(crate) basis: Vec<usize>,
    /// Reduced-cost row (length `ncols + 1`).
    pub(crate) cost: Vec<f64>,
    /// Phase objective coefficients (length `ncols`).
    pub(crate) obj: Vec<f64>,
    /// Standard-variable values for extraction.
    pub(crate) std_vals: Vec<f64>,
    /// Per row: its slack/surplus column ([`NO_COL`] for `=` rows).
    pub(crate) row_slack: Vec<usize>,
    /// Per row: its artificial column ([`NO_COL`] for `≤` rows).
    pub(crate) row_art: Vec<usize>,
    /// Monotone count of Gauss-Jordan pivots performed on this
    /// workspace's tableau (simplex iterations + basis installs) — the
    /// LP-work meter behind `SolverStats::lp_pivots`.
    pub(crate) pivots: u64,
}

impl SimplexWorkspace {
    /// A fresh, empty workspace.
    ///
    /// One workspace outlives any sequence of differently shaped
    /// problems: `solve_with` rebuilds all state from scratch on each
    /// call, only the *capacity* persists. The scheduler's workers
    /// exploit this by keeping one workspace per thread across *jobs*,
    /// not just across the nodes of one search.
    pub fn new() -> Self {
        SimplexWorkspace::default()
    }

    /// Total Gauss-Jordan pivots ever performed through this workspace.
    /// Monotone; never reset. Comparing the counter around a batch of
    /// solves measures the simplex work they cost.
    pub fn pivots(&self) -> u64 {
        self.pivots
    }
}

pub(crate) struct Tableau<'w> {
    /// `rows × (ncols + 1)`; last column is the RHS.
    pub(crate) a: &'w mut [f64],
    pub(crate) rows: usize,
    pub(crate) ncols: usize,
    pub(crate) basis: &'w mut [usize],
    /// Index of the first artificial column (columns ≥ this are artificial).
    pub(crate) first_artificial: usize,
    /// Pivot counter (accumulates into the owning workspace).
    pub(crate) pivots: &'w mut u64,
}

impl Tableau<'_> {
    #[inline]
    pub(crate) fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * (self.ncols + 1) + c]
    }
    #[inline]
    pub(crate) fn rhs(&self, r: usize) -> f64 {
        self.a[r * (self.ncols + 1) + self.ncols]
    }
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * (self.ncols + 1) + c] = v;
    }

    /// Gauss-Jordan pivot at (row, col), updating a cost row alongside.
    ///
    /// The row sweeps run through [`kernels::axpy`]: `y −= f·p` is
    /// computed as `y += (−f)·p`, which IEEE 754 guarantees bitwise
    /// identical (subtraction is addition of the negation, and negating
    /// a product only flips its sign bit).
    pub(crate) fn pivot(&mut self, row: usize, col: usize, cost: &mut [f64]) {
        *self.pivots += 1;
        let w = self.ncols + 1;
        let pivot = self.at(row, col);
        debug_assert!(pivot.abs() > TOL, "pivot too small");
        let inv = 1.0 / pivot;
        kernels::scale(&mut self.a[row * w..(row + 1) * w], inv);
        // Clean the pivot column exactly.
        self.set(row, col, 1.0);
        for r in 0..self.rows {
            if r == row {
                continue;
            }
            let factor = self.at(r, col);
            if factor.abs() <= TOL {
                self.set(r, col, 0.0);
                continue;
            }
            // Borrow the pivot row and target row disjointly.
            let (prow, trow) = if row < r {
                let (lo, hi) = self.a.split_at_mut(r * w);
                (&lo[row * w..(row + 1) * w], &mut hi[..w])
            } else {
                let (lo, hi) = self.a.split_at_mut(row * w);
                (&hi[..w], &mut lo[r * w..(r + 1) * w])
            };
            kernels::axpy(trow, -factor, prow);
            self.set(r, col, 0.0);
        }
        let factor = cost[col];
        if factor.abs() > 0.0 {
            kernels::axpy(cost, -factor, &self.a[row * w..(row + 1) * w]);
            cost[col] = 0.0;
        }
        self.basis[row] = col;
    }
}

/// Reduced-cost row for cost vector `c` (length ncols) under the current
/// basis, written into `out` (resized to `ncols + 1`; the last entry is
/// `−(current objective value)`).
pub(crate) fn reduced_costs_into(t: &Tableau<'_>, c: &[f64], out: &mut Vec<f64>) {
    let w = t.ncols + 1;
    out.clear();
    out.resize(w, 0.0);
    out[..t.ncols].copy_from_slice(c);
    for row in 0..t.rows {
        let cb = c[t.basis[row]];
        if cb != 0.0 {
            // `out −= cb·row` as `out += (−cb)·row`: bitwise identical
            // (see [`Tableau::pivot`]).
            kernels::axpy(out, -cb, &t.a[row * w..(row + 1) * w]);
        }
    }
}

pub(crate) enum PhaseOutcome {
    Done,
    Unbounded,
    IterationLimit,
}

/// Run simplex iterations until optimal for the given cost row. Columns
/// `< limit` may enter (both callers' eligibility sets are prefixes:
/// every column in phase 1, the non-artificial columns in phase 2), so
/// the entering scans run over `cost[..limit]`.
///
/// Pivot selection folds in index order: [`kernels::argmin_first`]
/// keeps the lowest-index minimum (Dantzig), [`kernels::first_below`]
/// is Bland's rule, and the ratio test visits rows in order under the
/// tolerance-band tie-breaks below.
pub(crate) fn run_phase(t: &mut Tableau<'_>, cost: &mut [f64], limit: usize) -> PhaseOutcome {
    let max_iter = 500 + 200 * (t.rows + t.ncols);
    let mut stall = 0usize;
    let mut last_obj = f64::INFINITY;
    let w = t.ncols + 1;
    for _ in 0..max_iter {
        let bland = stall >= STALL_LIMIT;
        // Entering column.
        let enter = if bland {
            kernels::first_below(&cost[..limit], -ENTER_TOL)
        } else {
            match kernels::argmin_first(&cost[..limit]) {
                Some((j, rc)) if rc < -ENTER_TOL => Some(j),
                _ => None,
            }
        };
        let Some(col) = enter else {
            return PhaseOutcome::Done;
        };
        // Ratio test (leaving row). In Bland mode ties break by smallest
        // basis index (termination guarantee); in Dantzig mode prefer
        // the largest pivot element among ties (numerical stability).
        // The leader's column entry rides along in `leave` so the tie
        // comparison never re-reads the tableau.
        let mut leave: Option<(usize, f64)> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..t.rows {
            let arc = t.a[r * w + col];
            if arc <= TOL {
                continue;
            }
            let ratio = t.a[r * w + t.ncols] / arc;
            let better = if ratio < best_ratio - TOL {
                true
            } else if ratio < best_ratio + TOL {
                match leave {
                    None => true,
                    Some((lr, larc)) => {
                        if bland {
                            t.basis[r] < t.basis[lr]
                        } else {
                            arc > larc
                        }
                    }
                }
            } else {
                false
            };
            if better {
                best_ratio = ratio.min(best_ratio);
                leave = Some((r, arc));
            }
        }
        let Some((row, _)) = leave else {
            return PhaseOutcome::Unbounded;
        };
        t.pivot(row, col, cost);
        let obj = -cost[t.ncols];
        if obj < last_obj - 1e-12 {
            last_obj = obj;
            stall = 0;
        } else {
            stall += 1;
        }
    }
    PhaseOutcome::IterationLimit
}

/// Build the standard-form tableau for `problem` into `ws` and return
/// its shape. On return the tableau holds the raw rows with the initial
/// slack/artificial basis (`ws.basis`), and `ws.row_slack`/`ws.row_art`
/// record each row's slack and artificial columns — the layout tables
/// the incremental layer's basis snapshots are expressed against.
pub(crate) fn build_standard(
    problem: &Problem,
    ws: &mut SimplexWorkspace,
) -> Result<StdForm, SolveError> {
    // ---- 1. Map structural variables to standard-form variables. ----
    ws.maps.clear();
    ws.ub_rows.clear();
    let mut n_std = 0usize;
    for v in &problem.vars {
        if v.lo.is_infinite() && v.lo > 0.0 || v.hi.is_infinite() && v.hi < 0.0 {
            return Err(SolveError::InvalidModel(format!(
                "variable {} has inverted infinite bounds",
                v.name
            )));
        }
        if v.lo.is_finite() {
            let idx = n_std;
            n_std += 1;
            if v.hi.is_finite() {
                ws.ub_rows.push((idx, v.hi - v.lo));
            }
            ws.maps.push(VarMap::Shifted { idx, shift: v.lo });
        } else if v.hi.is_finite() {
            let idx = n_std;
            n_std += 1;
            ws.maps.push(VarMap::Mirrored { idx, mirror: v.hi });
        } else {
            let pos = n_std;
            let neg = n_std + 1;
            n_std += 2;
            ws.maps.push(VarMap::Split { pos, neg });
        }
    }

    // ---- 2. Build rows in standard variables with b on the right. ----
    // Flattened: row r occupies `row_coefs[r·n_std .. (r+1)·n_std]`.
    let m = problem.constraints.len() + ws.ub_rows.len();
    ws.row_coefs.clear();
    ws.row_coefs.resize(m * n_std, 0.0);
    ws.row_meta.clear();
    for (r, c) in problem.constraints.iter().enumerate() {
        let coefs = &mut ws.row_coefs[r * n_std..(r + 1) * n_std];
        let mut rhs = c.rhs;
        scatter_terms(&ws.maps, &c.terms, 1.0, coefs, &mut rhs);
        ws.row_meta.push((c.op, rhs));
    }
    for (u, &(idx, ub)) in ws.ub_rows.iter().enumerate() {
        let r = problem.constraints.len() + u;
        ws.row_coefs[r * n_std + idx] = 1.0;
        ws.row_meta.push((Op::Le, ub));
    }

    // Row equilibration: scale each row by its max |coef| for stability.
    for (r, (_, rhs)) in ws.row_meta.iter_mut().enumerate() {
        let coefs = &mut ws.row_coefs[r * n_std..(r + 1) * n_std];
        let scale = coefs.iter().fold(0.0f64, |mx, c| mx.max(c.abs()));
        if scale > 0.0 {
            let inv = 1.0 / scale;
            coefs.iter_mut().for_each(|c| *c *= inv);
            *rhs *= inv;
        }
    }

    // Normalize RHS ≥ 0.
    for (r, (op, rhs)) in ws.row_meta.iter_mut().enumerate() {
        if *rhs < 0.0 {
            let coefs = &mut ws.row_coefs[r * n_std..(r + 1) * n_std];
            coefs.iter_mut().for_each(|c| *c = -*c);
            *rhs = -*rhs;
            *op = match *op {
                Op::Le => Op::Ge,
                Op::Ge => Op::Le,
                Op::Eq => Op::Eq,
            };
        }
    }

    // ---- 3. Count slack/artificial columns and lay out the tableau. ----
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for (op, _) in &ws.row_meta {
        match op {
            Op::Le => n_slack += 1,
            Op::Ge => {
                n_slack += 1;
                n_art += 1;
            }
            Op::Eq => n_art += 1,
        }
    }
    let ncols = n_std + n_slack + n_art;
    let w = ncols + 1;
    ws.tableau.clear();
    ws.tableau.resize(m * w, 0.0);
    ws.basis.clear();
    ws.basis.resize(m, 0);
    ws.row_slack.clear();
    ws.row_slack.resize(m, NO_COL);
    ws.row_art.clear();
    ws.row_art.resize(m, NO_COL);
    let mut t = Tableau {
        a: &mut ws.tableau,
        rows: m,
        ncols,
        basis: &mut ws.basis,
        first_artificial: n_std + n_slack,
        pivots: &mut ws.pivots,
    };
    let mut slack_cursor = n_std;
    let mut art_cursor = n_std + n_slack;
    for (i, &(op, rhs)) in ws.row_meta.iter().enumerate() {
        let coefs = &ws.row_coefs[i * n_std..(i + 1) * n_std];
        for (j, &cf) in coefs.iter().enumerate() {
            t.set(i, j, cf);
        }
        t.set(i, ncols, rhs);
        match op {
            Op::Le => {
                t.set(i, slack_cursor, 1.0);
                t.basis[i] = slack_cursor;
                ws.row_slack[i] = slack_cursor;
                slack_cursor += 1;
            }
            Op::Ge => {
                t.set(i, slack_cursor, -1.0);
                ws.row_slack[i] = slack_cursor;
                slack_cursor += 1;
                t.set(i, art_cursor, 1.0);
                t.basis[i] = art_cursor;
                ws.row_art[i] = art_cursor;
                art_cursor += 1;
            }
            Op::Eq => {
                t.set(i, art_cursor, 1.0);
                t.basis[i] = art_cursor;
                ws.row_art[i] = art_cursor;
                art_cursor += 1;
            }
        }
    }
    Ok(StdForm {
        n_std,
        rows: m,
        ncols,
        first_artificial: n_std + n_slack,
        n_art,
    })
}

/// Phase 1 over a freshly built tableau: minimize the artificial sum,
/// then drive residual artificials out of the basis. Returns whether a
/// feasible basis was reached (`false` = the problem is infeasible).
pub(crate) fn phase1(ws: &mut SimplexWorkspace, form: StdForm) -> Result<bool, SolveError> {
    if form.n_art == 0 {
        return Ok(true);
    }
    let ncols = form.ncols;
    let w = ncols + 1;
    let mut t = Tableau {
        a: &mut ws.tableau,
        rows: form.rows,
        ncols,
        basis: &mut ws.basis,
        first_artificial: form.first_artificial,
        pivots: &mut ws.pivots,
    };
    ws.obj.clear();
    ws.obj.resize(ncols, 0.0);
    for j in t.first_artificial..ncols {
        ws.obj[j] = 1.0;
    }
    reduced_costs_into(&t, &ws.obj, &mut ws.cost);
    match run_phase(&mut t, &mut ws.cost, ncols) {
        PhaseOutcome::Done => {}
        // Phase 1 objective is bounded below by 0; unbounded = bug.
        PhaseOutcome::Unbounded => return Err(SolveError::IterationLimit),
        PhaseOutcome::IterationLimit => return Err(SolveError::IterationLimit),
    }
    let phase1_obj = -ws.cost[ncols];
    if phase1_obj > FEAS_TOL {
        return Ok(false);
    }
    // Drive artificials out of the basis (they are all at value 0).
    // Pick the largest-magnitude pivot for numerical stability.
    for row in 0..t.rows {
        if t.basis[row] >= t.first_artificial {
            let col = (0..t.first_artificial)
                .filter(|&j| t.at(row, j).abs() > 1e-7)
                .max_by(|&a, &b| t.at(row, a).abs().total_cmp(&t.at(row, b).abs()));
            if let Some(col) = col {
                ws.obj.clear();
                ws.obj.resize(w, 0.0);
                t.pivot(row, col, &mut ws.obj);
            }
            // else: redundant row; harmless to keep (all-zero in
            // non-artificial columns, rhs 0).
        }
    }
    Ok(true)
}

/// Solve `problem`; with `feasibility_only` stop after phase 1. All
/// scratch storage comes from (and stays in) `ws`.
pub(crate) fn solve(
    problem: &Problem,
    feasibility_only: bool,
    ws: &mut SimplexWorkspace,
) -> Result<Solution, SolveError> {
    let form = build_standard(problem, ws)?;
    let ncols = form.ncols;

    // ---- 4. Phase 1: minimize artificial sum. ----
    if !phase1(ws, form)? {
        return Ok(Solution {
            status: Status::Infeasible,
            x: vec![0.0; problem.vars.len()],
            objective: f64::NAN,
        });
    }
    let mut t = Tableau {
        a: &mut ws.tableau,
        rows: form.rows,
        ncols,
        basis: &mut ws.basis,
        first_artificial: form.first_artificial,
        pivots: &mut ws.pivots,
    };

    // ---- 5. Phase 2. ----
    ws.obj.clear();
    ws.obj.resize(ncols, 0.0);
    let obj_sign = match problem.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    for (v, map) in problem.vars.iter().zip(&ws.maps) {
        match *map {
            VarMap::Shifted { idx, .. } => ws.obj[idx] += obj_sign * v.obj,
            VarMap::Mirrored { idx, .. } => ws.obj[idx] -= obj_sign * v.obj,
            VarMap::Split { pos, neg } => {
                ws.obj[pos] += obj_sign * v.obj;
                ws.obj[neg] -= obj_sign * v.obj;
            }
        }
    }
    if !feasibility_only {
        let first_art = t.first_artificial;
        reduced_costs_into(&t, &ws.obj, &mut ws.cost);
        match run_phase(&mut t, &mut ws.cost, first_art) {
            PhaseOutcome::Done => {}
            PhaseOutcome::Unbounded => {
                return Ok(Solution {
                    status: Status::Unbounded,
                    x: vec![0.0; problem.vars.len()],
                    objective: match problem.sense {
                        Sense::Minimize => f64::NEG_INFINITY,
                        Sense::Maximize => f64::INFINITY,
                    },
                });
            }
            PhaseOutcome::IterationLimit => return Err(SolveError::IterationLimit),
        }
    }

    // ---- 6. Extract the solution. ----
    let x = extract_x(ws, form.rows, ncols, problem.vars.len(), |v| {
        (problem.vars[v].lo, problem.vars[v].hi)
    });
    let objective = problem.objective_at(&x);
    Ok(Solution {
        status: Status::Optimal,
        x,
        objective,
    })
}

/// Read the structural-variable values out of the tableau's current
/// basis: basic values land in `ws.std_vals`, the [`VarMap`]s un-map
/// them, and tiny roundoff bound violations are clamped away. One
/// helper shared by the cold solve and the incremental layer, so warm
/// and cold extraction can never drift apart.
pub(crate) fn extract_x(
    ws: &mut SimplexWorkspace,
    rows: usize,
    ncols: usize,
    nvars: usize,
    bounds: impl Fn(usize) -> (f64, f64),
) -> Vec<f64> {
    ws.std_vals.clear();
    ws.std_vals.resize(ncols, 0.0);
    for row in 0..rows {
        ws.std_vals[ws.basis[row]] = ws.tableau[row * (ncols + 1) + ncols];
    }
    (0..nvars)
        .map(|v| {
            let raw = match ws.maps[v] {
                VarMap::Shifted { idx, shift } => ws.std_vals[idx] + shift,
                VarMap::Mirrored { idx, mirror } => mirror - ws.std_vals[idx],
                VarMap::Split { pos, neg } => ws.std_vals[pos] - ws.std_vals[neg],
            };
            let (lo, hi) = bounds(v);
            raw.clamp(lo, hi)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::SimplexWorkspace;
    use crate::model::{Op, Problem, Sense, Status};

    #[test]
    fn textbook_maximization() {
        // Dantzig's classic: max 3x+5y, x≤4, 2y≤12, 3x+2y≤18.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
        p.add_constraint(&[(x, 1.0)], Op::Le, 4.0);
        p.add_constraint(&[(y, 2.0)], Op::Le, 12.0);
        p.add_constraint(&[(x, 3.0), (y, 2.0)], Op::Le, 18.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 36.0).abs() < 1e-9);
    }

    #[test]
    fn minimization_with_ge_rows_needs_phase1() {
        // min 2x + 3y s.t. x + y ≥ 4, x + 3y ≥ 6 → optimum at (3,1): 9.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 2.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Op::Ge, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 3.0)], Op::Ge, 6.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 9.0).abs() < 1e-9, "obj {}", s.objective);
        assert!(p.violation_at(&s.x) < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 3, x,y ∈ [0, 10] → (0, 1.5): 1.5.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 10.0, 1.0);
        let y = p.add_var("y", 0.0, 10.0, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Op::Eq, 3.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 1.5).abs() < 1e-9);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        p.add_constraint(&[(x, 1.0)], Op::Ge, 2.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 0.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Op::Le, 1.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Unbounded);
    }

    #[test]
    fn one_workspace_serves_interleaved_heterogeneous_problems() {
        // The scheduler keeps one workspace per worker for its whole
        // life, hopping between jobs whose LPs differ in variable and
        // constraint counts. Interleave three shapes repeatedly and
        // check every answer matches a fresh-workspace solve
        // bit-for-bit.
        let mut problems: Vec<Problem> = Vec::new();
        // Shape 1: 2 vars, 3 ≤-rows (needs no phase 1).
        let mut a = Problem::new(Sense::Maximize);
        let x = a.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = a.add_var("y", 0.0, f64::INFINITY, 5.0);
        a.add_constraint(&[(x, 1.0)], Op::Le, 4.0);
        a.add_constraint(&[(y, 2.0)], Op::Le, 12.0);
        a.add_constraint(&[(x, 3.0), (y, 2.0)], Op::Le, 18.0);
        problems.push(a);
        // Shape 2: 4 bounded vars on a simplex row (the node-LP shape).
        let mut b = Problem::new(Sense::Minimize);
        let w: Vec<usize> = (0..4)
            .map(|j| b.add_var(&format!("w{j}"), 0.0, 1.0, (j as f64) - 1.5))
            .collect();
        let row: Vec<(usize, f64)> = w.iter().map(|&v| (v, 1.0)).collect();
        b.add_constraint(&row, Op::Eq, 1.0);
        b.add_constraint(&[(w[0], 1.0), (w[2], -1.0)], Op::Ge, 0.1);
        problems.push(b);
        // Shape 3: 1 var, infeasible (exercises the phase-1 exit).
        let mut c = Problem::new(Sense::Minimize);
        let z = c.add_var("z", 0.0, 1.0, 1.0);
        c.add_constraint(&[(z, 1.0)], Op::Ge, 2.0);
        problems.push(c);

        let fresh: Vec<_> = problems.iter().map(|p| p.solve().unwrap()).collect();
        let mut ws = SimplexWorkspace::new();
        for round in 0..3 {
            for (p, baseline) in problems.iter().zip(&fresh) {
                let got = p.solve_with(&mut ws).unwrap();
                assert_eq!(got.status, baseline.status);
                // Bitwise: non-optimal statuses report a NaN objective.
                assert_eq!(
                    got.objective.to_bits(),
                    baseline.objective.to_bits(),
                    "round {round}"
                );
                assert_eq!(got.x, baseline.x, "round {round}");
            }
        }
    }

    #[test]
    fn negative_lower_bounds_shifted() {
        // min x s.t. x ≥ -5 → -5.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", -5.0, 5.0, 1.0);
        let s = p.solve().unwrap();
        assert!((s.x[x] + 5.0).abs() < 1e-9);
    }

    #[test]
    fn free_variables_split() {
        // min |style| free var via x ≥ constraint: min y s.t. y ≥ x − 2,
        // y ≥ 2 − x, x free → optimum y = 0 at x = 2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = p.add_var("y", 0.0, f64::INFINITY, 1.0);
        p.add_constraint(&[(y, 1.0), (x, -1.0)], Op::Ge, -2.0);
        p.add_constraint(&[(y, 1.0), (x, 1.0)], Op::Ge, 2.0);
        let s = p.solve().unwrap();
        assert!((s.objective).abs() < 1e-9);
        assert!((s.x[x] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn upper_bounded_only_variable_mirrored() {
        // max x s.t. x ≤ 7 (no lower bound) → 7.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", f64::NEG_INFINITY, 7.0, 1.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.x[x] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY, 0.75);
        let y = p.add_var("y", 0.0, f64::INFINITY, -150.0);
        let z = p.add_var("z", 0.0, f64::INFINITY, 0.02);
        let u = p.add_var("u", 0.0, f64::INFINITY, -6.0);
        p.add_constraint(&[(x, 0.25), (y, -60.0), (z, -0.04), (u, 9.0)], Op::Le, 0.0);
        p.add_constraint(&[(x, 0.5), (y, -90.0), (z, -0.02), (u, 3.0)], Op::Le, 0.0);
        p.add_constraint(&[(z, 1.0)], Op::Le, 1.0);
        // Beale's cycling example — must terminate with optimum 0.05.
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 0.05).abs() < 1e-6, "obj {}", s.objective);
    }

    #[test]
    fn feasibility_only_returns_feasible_point() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        let y = p.add_var("y", 0.0, 1.0, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Op::Eq, 1.0);
        p.add_constraint(&[(x, 1.0)], Op::Ge, 0.25);
        let s = p.solve_feasibility().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!(p.violation_at(&s.x) < 1e-8);
    }

    #[test]
    fn fixed_variable_lo_equals_hi() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 2.0, 2.0, 1.0);
        let y = p.add_var("y", 0.0, 3.0, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Op::Le, 4.0);
        let s = p.solve().unwrap();
        assert!((s.x[x] - 2.0).abs() < 1e-9);
        assert!((s.x[y] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn simplex_weight_problem() {
        // The shape every RankHow LP has: weights on the simplex.
        // min w1 s.t. Σw=1, w1 ≥ 0.1, w2 ≤ 0.3.
        let mut p = Problem::new(Sense::Minimize);
        let w1 = p.add_var("w1", 0.0, 1.0, 1.0);
        let w2 = p.add_var("w2", 0.0, 1.0, 0.0);
        let w3 = p.add_var("w3", 0.0, 1.0, 0.0);
        p.add_constraint(&[(w1, 1.0), (w2, 1.0), (w3, 1.0)], Op::Eq, 1.0);
        p.add_constraint(&[(w1, 1.0)], Op::Ge, 0.1);
        p.add_constraint(&[(w2, 1.0)], Op::Le, 0.3);
        let s = p.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.x[w1] - 0.1).abs() < 1e-9);
        assert!(p.violation_at(&s.x) < 1e-9);
    }

    #[test]
    fn shared_workspace_matches_fresh_solves() {
        // One workspace across heterogeneous problems (different shapes,
        // senses, and outcomes) must reproduce fresh-solve results bit
        // for bit — buffers fully reinitialize between calls.
        let mut ws = SimplexWorkspace::new();
        for trial in 0..3 {
            let mut p = Problem::new(Sense::Maximize);
            let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
            let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
            p.add_constraint(&[(x, 1.0)], Op::Le, 4.0 + trial as f64);
            p.add_constraint(&[(y, 2.0)], Op::Le, 12.0);
            p.add_constraint(&[(x, 3.0), (y, 2.0)], Op::Le, 18.0);
            let fresh = p.solve().unwrap();
            let reused = p.solve_with(&mut ws).unwrap();
            assert_eq!(fresh.status, reused.status);
            assert_eq!(fresh.x, reused.x);
            assert_eq!(fresh.objective, reused.objective);

            // Interleave a different shape: infeasible + equality + free.
            let mut q = Problem::new(Sense::Minimize);
            let a = q.add_var("a", f64::NEG_INFINITY, f64::INFINITY, 1.0);
            let b = q.add_var("b", 0.0, 1.0, 0.0);
            q.add_constraint(&[(a, 1.0), (b, 1.0)], Op::Eq, 2.0);
            q.add_constraint(&[(b, 1.0)], Op::Ge, 0.5);
            let fresh = q.solve().unwrap();
            let reused = q.solve_with(&mut ws).unwrap();
            assert_eq!(fresh.status, reused.status);
            assert_eq!(fresh.x, reused.x);
        }
    }

    #[test]
    fn workspace_feasibility_matches() {
        let mut ws = SimplexWorkspace::new();
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0, 1.0);
        p.add_constraint(&[(x, 1.0)], Op::Ge, 2.0);
        let fresh = p.solve_feasibility().unwrap();
        let reused = p.solve_feasibility_with(&mut ws).unwrap();
        assert_eq!(fresh.status, Status::Infeasible);
        assert_eq!(fresh.status, reused.status);
    }
}
