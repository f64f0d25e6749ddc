//! Incremental LP solving: amortize standard-form construction and
//! phase-1 work across near-identical solves.
//!
//! The branch-and-bound node loop solves three kinds of LPs over *one*
//! region per node: `2m` box-tightening probes that differ only in
//! their objective vector, one feasibility check per child that differs
//! by exactly one appended pair-sign constraint, and (across nodes) a
//! child's region that differs from its parent's by that same single
//! row. [`IncrementalLp`] exploits all three structures:
//!
//! - **objective swap** ([`IncrementalLp::solve_objective`]): re-price
//!   the current optimal basis for a new cost vector and run primal
//!   phase 2 only — phase 1 is never repeated within a region;
//! - **dual-simplex row addition** ([`IncrementalLp::push_row`] /
//!   [`IncrementalLp::pop_row`]): append one constraint, eliminate the
//!   basic columns from it, and restore feasibility with dual pivots
//!   from the current basis instead of re-solving from scratch;
//! - **basis snapshots** ([`IncrementalLp::snapshot`] +
//!   [`IncrementalLp::load`] with a hint): a compact, layout-independent
//!   list of basic columns that survives work-stealing — the stealing
//!   worker rebuilds the (cheap) raw tableau on its own scratch and
//!   re-installs the parent basis with a handful of Gauss-Jordan
//!   pivots, skipping phase 1 entirely.
//!
//! Every warm path has a cold fallback: if a snapshot fails to resolve
//! or install (numerically tiny pivots, a basic artificial left at a
//! nonzero value), [`IncrementalLp::load`] silently re-runs the
//! ordinary two-phase construction, so warm-starting can only ever
//! change *work*, not *answers* beyond LP-roundoff freedom.

use crate::dual::{dual_restore, DualOutcome};
use crate::model::{Op, Problem, Sense, Solution, Status};
use crate::simplex::{
    self, SimplexWorkspace, SolveError, StdForm, Tableau, VarMap, FEAS_TOL, NO_COL,
};

/// Pivots smaller than this are rejected when installing a snapshot
/// basis (matches the phase-1 artificial drive-out threshold).
const INSTALL_TOL: f64 = 1e-7;

/// Layout-independent identity of one basic column. Snapshots are
/// expressed in these terms so they survive a re-build whose column
/// indices differ (a child region has one more constraint row, which
/// shifts every slack/artificial column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BasicCol {
    /// A structural variable's standard-form column (`neg` = the
    /// negative half of a free variable's split).
    Structural { var: u32, neg: bool },
    /// The slack/surplus column of model constraint `row`.
    ConSlack(u32),
    /// The artificial column of model constraint `row` (kept only for
    /// redundant rows that phase 1 could not clear).
    ConArt(u32),
    /// The slack of the upper-bound row generated for variable `var`.
    UbSlack(u32),
}

/// A compact basis handle: which columns were basic at capture time, in
/// layout-independent terms. Cheap to clone and share (`k + 1` words
/// for a `k`-row tableau); carries no tableau data — the receiver
/// rebuilds the tableau from the problem and re-installs the basis.
#[derive(Clone, Debug)]
pub struct BasisSnapshot {
    cols: Vec<BasicCol>,
}

impl BasisSnapshot {
    /// Number of basic columns captured.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the snapshot is empty (a zero-row problem).
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// How [`IncrementalLp::load`] left the tableau.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadStatus {
    /// A feasible basis is installed; probes and row pushes may follow.
    /// `warm` says whether it came from the snapshot hint (phase 1
    /// skipped) or from a cold two-phase construction.
    Feasible {
        /// Whether the snapshot hint was used (no phase 1 ran).
        warm: bool,
    },
    /// The problem has no feasible point. `warm` records which path
    /// concluded it (snapshot + dual restore vs cold phase 1), so
    /// callers can account the load's work either way.
    Infeasible {
        /// Whether the snapshot hint was used (no phase 1 ran).
        warm: bool,
    },
}

/// A reusable incremental-LP workspace. One instance serves any
/// sequence of regions (buffers regrow as needed); it is `Send`, so the
/// engine keeps one per worker, alongside its plain
/// [`SimplexWorkspace`].
#[derive(Default)]
pub struct IncrementalLp {
    ws: SimplexWorkspace,
    form: Option<StdForm>,
    /// Model constraint count of the loaded problem (rows ≥ this are
    /// upper-bound rows).
    n_cons: usize,
    /// Structural variable bounds, for extraction clamping.
    var_lo: Vec<f64>,
    var_hi: Vec<f64>,
    /// Reverse of `ws.maps`: standard column → (var, neg-half).
    std_owner: Vec<(u32, bool)>,
    /// Per column of the loaded layout: its layout-independent
    /// descriptor (snapshot capture and install are O(rows) with it).
    col_desc: Vec<BasicCol>,
    /// Reverse of `ws.ub_rows`: standard column → ub-row index
    /// ([`NO_COL`] when the column has no upper-bound row).
    ub_of_std: Vec<usize>,
    /// Install scratch: resolved snapshot columns, column → target
    /// index ([`NO_COL`] = not a target), and done flags.
    targets: Vec<usize>,
    target_of: Vec<usize>,
    row_done: Vec<bool>,
    col_done: Vec<bool>,
    /// Objective coefficients over standard columns (scratch).
    costs: Vec<f64>,
    /// Saved state for `push_row`/`pop_row`.
    saved_tableau: Vec<f64>,
    saved_basis: Vec<usize>,
    saved_form: Option<StdForm>,
    /// Whether the saved state still equals the live tableau (true
    /// right after `pop_row`, until the next mutation) — lets the
    /// sibling child's `push_row` skip an identical re-save.
    saved_clean: bool,
    pushed: bool,
    /// Scratch for widening the tableau by one column.
    widen: Vec<f64>,
    /// Scratch for building the appended row over standard columns.
    new_row: Vec<f64>,
}

impl IncrementalLp {
    /// A fresh, empty incremental workspace.
    pub fn new() -> Self {
        IncrementalLp::default()
    }

    /// Total Gauss-Jordan pivots ever performed by this workspace
    /// (loads, installs, probes, row pushes). Monotone; never reset.
    pub fn pivots(&self) -> u64 {
        self.ws.pivots()
    }

    /// Build the standard-form tableau for `problem` and reach a
    /// feasible basis.
    ///
    /// With a `hint`, the snapshot basis is re-installed onto the raw
    /// tableau (a handful of pivots) and feasibility is restored with
    /// dual simplex — no phase 1. Without one, or whenever the install
    /// does not cleanly succeed, the ordinary two-phase cold path runs.
    /// Either way the result is a feasible basis (or a sound
    /// [`LoadStatus::Infeasible`] verdict).
    pub fn load(
        &mut self,
        problem: &Problem,
        hint: Option<&BasisSnapshot>,
    ) -> Result<LoadStatus, SolveError> {
        self.pushed = false;
        self.saved_form = None;
        self.saved_clean = false;
        let form = simplex::build_standard(problem, &mut self.ws)?;
        self.form = Some(form);
        self.n_cons = problem.num_constraints();
        self.var_lo.clear();
        self.var_hi.clear();
        for v in 0..problem.num_vars() {
            let (lo, hi) = problem.bounds(v);
            self.var_lo.push(lo);
            self.var_hi.push(hi);
        }
        self.std_owner.clear();
        self.std_owner.resize(form.n_std, (0, false));
        for (v, map) in self.ws.maps.iter().enumerate() {
            match *map {
                VarMap::Shifted { idx, .. } | VarMap::Mirrored { idx, .. } => {
                    self.std_owner[idx] = (v as u32, false);
                }
                VarMap::Split { pos, neg } => {
                    self.std_owner[pos] = (v as u32, false);
                    self.std_owner[neg] = (v as u32, true);
                }
            }
        }
        // Column → descriptor and std-column → ub-row tables, so
        // snapshot capture and install stay O(rows) and allocation-free
        // per node.
        self.ub_of_std.clear();
        self.ub_of_std.resize(form.n_std, NO_COL);
        for (u, &(idx, _)) in self.ws.ub_rows.iter().enumerate() {
            self.ub_of_std[idx] = u;
        }
        self.col_desc.clear();
        for c in 0..form.n_std {
            let (var, neg) = self.std_owner[c];
            self.col_desc.push(BasicCol::Structural { var, neg });
        }
        self.col_desc
            .resize(form.ncols, BasicCol::Structural { var: 0, neg: false });
        for r in 0..form.rows {
            let s = self.ws.row_slack[r];
            if s != NO_COL {
                self.col_desc[s] = if r < self.n_cons {
                    BasicCol::ConSlack(r as u32)
                } else {
                    let idx = self.ws.ub_rows[r - self.n_cons].0;
                    BasicCol::UbSlack(self.std_owner[idx].0)
                };
            }
            let a = self.ws.row_art[r];
            if a != NO_COL {
                self.col_desc[a] = BasicCol::ConArt(r as u32);
            }
        }

        if let Some(snap) = hint {
            if self.try_install(snap, form) {
                self.costs.clear();
                self.costs.resize(form.ncols + 1, 0.0);
                let mut t = tableau(&mut self.ws, form);
                match dual_restore(&mut t, &mut self.costs) {
                    DualOutcome::Feasible => {
                        // A basic artificial must sit at (numerical)
                        // zero, else the installed basis violates its
                        // row and only a cold phase 1 can be trusted.
                        let clean = (0..form.rows).all(|r| {
                            t.basis[r] < form.first_artificial || t.rhs(r).abs() <= FEAS_TOL
                        });
                        if clean {
                            return Ok(LoadStatus::Feasible { warm: true });
                        }
                    }
                    DualOutcome::Infeasible => return Ok(LoadStatus::Infeasible { warm: true }),
                    DualOutcome::IterationLimit => {}
                }
            }
            // Install (or restore) failed: rebuild the raw tableau the
            // partial pivots dirtied and fall through to the cold path.
            simplex::build_standard(problem, &mut self.ws)?;
        }

        if !simplex::phase1(&mut self.ws, form)? {
            return Ok(LoadStatus::Infeasible { warm: false });
        }
        Ok(LoadStatus::Feasible { warm: false })
    }

    /// Try to pivot the snapshot's columns into the basis of the raw
    /// tableau. Returns whether every column resolved and installed;
    /// on `false` the tableau is left dirty and must be rebuilt.
    fn try_install(&mut self, snap: &BasisSnapshot, form: StdForm) -> bool {
        if !self.resolve_into(snap, form) {
            return false;
        }
        self.row_done.clear();
        self.row_done.resize(form.rows, false);
        self.col_done.clear();
        self.col_done.resize(self.targets.len(), false);
        // Pass 1: columns already basic in the raw tableau (slacks of
        // `≤` rows, typically most of a node's basis) cost nothing.
        // `targets` is duplicate-free, so `target_of` is unambiguous.
        for r in 0..form.rows {
            let k = self.target_of[self.ws.basis[r]];
            if k != NO_COL && !self.col_done[k] {
                self.row_done[r] = true;
                self.col_done[k] = true;
            }
        }
        // Pass 2: pivot the rest in, choosing per column the free row
        // with the largest magnitude entry (the basis is a *set* — the
        // row assignment is ours to make, so greedy max-pivot is safe).
        self.costs.clear();
        self.costs.resize(form.ncols + 1, 0.0);
        for k in 0..self.targets.len() {
            if self.col_done[k] {
                continue;
            }
            let c = self.targets[k];
            let mut t = tableau(&mut self.ws, form);
            let mut best: Option<(usize, f64)> = None;
            for (r, done) in self.row_done.iter().enumerate() {
                if *done {
                    continue;
                }
                let v = t.at(r, c).abs();
                if best.map_or(true, |(_, bv)| v > bv) {
                    best = Some((r, v));
                }
            }
            match best {
                Some((r, v)) if v > INSTALL_TOL => {
                    t.pivot(r, c, &mut self.costs);
                    self.row_done[r] = true;
                    self.col_done[k] = true;
                }
                _ => return false,
            }
        }
        // Pass 3: rows the snapshot does not cover (a child's freshly
        // appended decision row) keep their initial basic. A slack is
        // fine as-is (dual restore fixes a negative value); a basic
        // artificial must be swapped for the row's own surplus so the
        // real constraint binds — an uncovered `=` row with a nonzero
        // RHS cannot be warm-started at all.
        for r in 0..form.rows {
            if self.row_done[r] || self.ws.basis[r] < form.first_artificial {
                continue;
            }
            let slack = self.ws.row_slack[r];
            let mut t = tableau(&mut self.ws, form);
            if slack != NO_COL && t.at(r, slack).abs() > INSTALL_TOL {
                t.pivot(r, slack, &mut self.costs);
            } else if t.rhs(r).abs() > FEAS_TOL {
                return false;
            }
        }
        true
    }

    /// Map each snapshot descriptor to a column of the current layout,
    /// filling `self.targets` and the `self.target_of` inverse. `false`
    /// when any descriptor does not exist in this layout (or two
    /// descriptors collide on one column).
    fn resolve_into(&mut self, snap: &BasisSnapshot, form: StdForm) -> bool {
        self.target_of.clear();
        self.target_of.resize(form.ncols, NO_COL);
        self.targets.clear();
        for &d in &snap.cols {
            let col = match d {
                BasicCol::Structural { var, neg } => match self.ws.maps.get(var as usize) {
                    Some(&(VarMap::Shifted { idx, .. } | VarMap::Mirrored { idx, .. })) => {
                        if neg {
                            return false;
                        }
                        idx
                    }
                    Some(&VarMap::Split { pos, neg: nc }) => {
                        if neg {
                            nc
                        } else {
                            pos
                        }
                    }
                    None => return false,
                },
                BasicCol::ConSlack(row) => {
                    let row = row as usize;
                    if row >= self.n_cons || self.ws.row_slack[row] == NO_COL {
                        return false;
                    }
                    self.ws.row_slack[row]
                }
                BasicCol::ConArt(row) => {
                    let row = row as usize;
                    if row >= self.n_cons || self.ws.row_art[row] == NO_COL {
                        return false;
                    }
                    self.ws.row_art[row]
                }
                BasicCol::UbSlack(var) => {
                    let idx = match self.ws.maps.get(var as usize) {
                        Some(&VarMap::Shifted { idx, .. }) => idx,
                        _ => return false,
                    };
                    let u = self.ub_of_std[idx];
                    if u == NO_COL || self.ws.row_slack[self.n_cons + u] == NO_COL {
                        return false;
                    }
                    self.ws.row_slack[self.n_cons + u]
                }
            };
            if self.target_of[col] != NO_COL {
                return false;
            }
            self.target_of[col] = self.targets.len();
            self.targets.push(col);
        }
        true
    }

    /// Capture the current basis in layout-independent terms, for
    /// warm-starting a region that shares this one's constraint prefix
    /// (a branch-and-bound child). Requires a loaded, un-pushed state.
    pub fn snapshot(&self) -> BasisSnapshot {
        assert!(!self.pushed, "snapshot with a pushed row");
        let form = self.form.expect("snapshot before load");
        let cols = self.ws.basis[..form.rows]
            .iter()
            .map(|&c| self.col_desc[c])
            .collect();
        BasisSnapshot { cols }
    }

    /// Re-price the current basis for a new objective and run primal
    /// phase 2 from it. The basis must be feasible (a successful
    /// [`IncrementalLp::load`], possibly followed by earlier probes).
    ///
    /// Sparse objective: `terms` are `(var, coef)` over the *structural*
    /// variables; unmentioned variables cost zero. Matches the cold
    /// solver's conventions: the returned `x` is clamped into the
    /// variable bounds and `objective = Σ coef·x[var]`.
    pub fn solve_objective(
        &mut self,
        terms: &[(usize, f64)],
        sense: Sense,
    ) -> Result<Solution, SolveError> {
        assert!(!self.pushed, "solve_objective with a pushed row");
        let form = self.form.expect("solve_objective before load");
        // Phase-2 pivots mutate the tableau: any saved pop_row state no
        // longer matches it.
        self.saved_clean = false;
        self.costs.clear();
        self.costs.resize(form.ncols, 0.0);
        let sign = match sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        // Same mapping arithmetic as the cold builder; objective costs
        // have no RHS to shift, so the offset sink is discarded.
        let mut unused_rhs = 0.0;
        simplex::scatter_terms(&self.ws.maps, terms, sign, &mut self.costs, &mut unused_rhs);
        let ws = &mut self.ws;
        let mut t = Tableau {
            a: &mut ws.tableau,
            rows: form.rows,
            ncols: form.ncols,
            basis: &mut ws.basis,
            first_artificial: form.first_artificial,
            pivots: &mut ws.pivots,
        };
        simplex::reduced_costs_into(&t, &self.costs, &mut ws.cost);
        let first_art = form.first_artificial;
        match simplex::run_phase(&mut t, &mut ws.cost, first_art) {
            simplex::PhaseOutcome::Done => {}
            simplex::PhaseOutcome::Unbounded => {
                return Ok(Solution {
                    status: Status::Unbounded,
                    x: vec![0.0; self.var_lo.len()],
                    objective: match sense {
                        Sense::Minimize => f64::NEG_INFINITY,
                        Sense::Maximize => f64::INFINITY,
                    },
                });
            }
            simplex::PhaseOutcome::IterationLimit => return Err(SolveError::IterationLimit),
        }
        // Extraction via the solver's shared helper (warm and cold
        // probe values must come from the same arithmetic).
        let (var_lo, var_hi) = (&self.var_lo, &self.var_hi);
        let x = simplex::extract_x(ws, form.rows, form.ncols, var_lo.len(), |v| {
            (var_lo[v], var_hi[v])
        });
        let objective = terms.iter().map(|&(v, c)| c * x[v]).sum();
        Ok(Solution {
            status: Status::Optimal,
            x,
            objective,
        })
    }

    /// Append one constraint row and restore feasibility with dual
    /// simplex from the current basis. Returns [`Status::Optimal`] when
    /// the extended region is feasible, [`Status::Infeasible`] when the
    /// row cuts it empty. At most one row may be pushed at a time; call
    /// [`IncrementalLp::pop_row`] to restore the pre-push state (also
    /// required after an `Err`).
    pub fn push_row(
        &mut self,
        terms: &[(usize, f64)],
        op: Op,
        rhs: f64,
    ) -> Result<Status, SolveError> {
        assert!(!self.pushed, "push_row: a row is already pushed");
        let form = self.form.expect("push_row before load");
        assert!(op != Op::Eq, "push_row supports inequality rows only");
        // Save the pre-push state for pop_row — unless the previous
        // pop_row's restore is still byte-identical to the live tableau
        // (the sibling-child case: push A, pop, push B with no probes
        // in between), where the copy would be redundant.
        let w = form.ncols + 1;
        if !self.saved_clean {
            self.saved_tableau.clear();
            self.saved_tableau
                .extend_from_slice(&self.ws.tableau[..form.rows * w]);
            self.saved_basis.clear();
            self.saved_basis
                .extend_from_slice(&self.ws.basis[..form.rows]);
            self.saved_form = Some(form);
        }
        self.saved_clean = false;
        self.pushed = true;

        // Build the row over standard columns in `≤` orientation (the
        // same mapping arithmetic as the cold row builder, shared).
        let n_std = form.n_std;
        self.new_row.clear();
        self.new_row.resize(n_std, 0.0);
        let mut b = rhs;
        simplex::scatter_terms(&self.ws.maps, terms, 1.0, &mut self.new_row, &mut b);
        if op == Op::Ge {
            self.new_row.iter_mut().for_each(|c| *c = -*c);
            b = -b;
        }
        // Equilibrate like the cold build.
        let scale = self.new_row.iter().fold(0.0f64, |mx, c| mx.max(c.abs()));
        if scale > 0.0 {
            let inv = 1.0 / scale;
            self.new_row.iter_mut().for_each(|c| *c *= inv);
            b *= inv;
        }

        // Widen the tableau by one slack column, inserted at the
        // artificial boundary so it stays eligible for pivoting, and
        // append the new row with that slack basic.
        let slack_col = form.first_artificial;
        let new_form = StdForm {
            n_std,
            rows: form.rows + 1,
            ncols: form.ncols + 1,
            first_artificial: form.first_artificial + 1,
            n_art: form.n_art,
        };
        let nw = new_form.ncols + 1;
        self.widen.clear();
        self.widen.resize(new_form.rows * nw, 0.0);
        for r in 0..form.rows {
            let src = &self.ws.tableau[r * w..(r + 1) * w];
            let dst = &mut self.widen[r * nw..(r + 1) * nw];
            dst[..slack_col].copy_from_slice(&src[..slack_col]);
            dst[slack_col + 1..].copy_from_slice(&src[slack_col..]);
        }
        {
            let last = &mut self.widen[form.rows * nw..(form.rows + 1) * nw];
            last[..n_std].copy_from_slice(&self.new_row);
            last[slack_col] = 1.0;
            last[new_form.ncols] = b;
        }
        std::mem::swap(&mut self.ws.tableau, &mut self.widen);
        for bcol in self.ws.basis.iter_mut() {
            if *bcol >= slack_col {
                *bcol += 1;
            }
        }
        self.ws.basis.push(slack_col);
        self.form = Some(new_form);

        // Eliminate the basic columns from the appended row (each basic
        // column is a unit vector, so one saxpy per nonzero entry).
        for r in 0..new_form.rows - 1 {
            let bcol = self.ws.basis[r];
            let factor = self.ws.tableau[(new_form.rows - 1) * nw + bcol];
            if factor.abs() > 1e-12 {
                for j in 0..nw {
                    let v = self.ws.tableau[r * nw + j];
                    self.ws.tableau[(new_form.rows - 1) * nw + j] -= factor * v;
                }
            }
        }

        // Restore feasibility (zero cost row: feasibility is all the
        // callers need, and a zero row is trivially dual feasible).
        self.costs.clear();
        self.costs.resize(new_form.ncols + 1, 0.0);
        let mut t = tableau(&mut self.ws, new_form);
        match dual_restore(&mut t, &mut self.costs) {
            DualOutcome::Feasible => Ok(Status::Optimal),
            DualOutcome::Infeasible => Ok(Status::Infeasible),
            DualOutcome::IterationLimit => Err(SolveError::IterationLimit),
        }
    }

    /// Restore the exact pre-[`IncrementalLp::push_row`] tableau and
    /// basis. No-op if nothing is pushed.
    pub fn pop_row(&mut self) {
        if !self.pushed {
            return;
        }
        let form = self.saved_form.expect("saved state present");
        let w = form.ncols + 1;
        self.ws.tableau.clear();
        self.ws
            .tableau
            .extend_from_slice(&self.saved_tableau[..form.rows * w]);
        self.ws.basis.clear();
        self.ws
            .basis
            .extend_from_slice(&self.saved_basis[..form.rows]);
        self.form = Some(form);
        // The live state now equals the save — the next push_row may
        // reuse it without re-copying.
        self.saved_clean = true;
        self.pushed = false;
    }
}

fn tableau(ws: &mut SimplexWorkspace, form: StdForm) -> Tableau<'_> {
    Tableau {
        a: &mut ws.tableau,
        rows: form.rows,
        ncols: form.ncols,
        basis: &mut ws.basis,
        first_artificial: form.first_artificial,
        pivots: &mut ws.pivots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Op, Problem, Sense, Status};

    /// The node-LP shape: weights on the simplex inside a box, plus
    /// decision half-spaces.
    fn region(m: usize, cuts: &[(Vec<f64>, Op, f64)]) -> Problem {
        let mut p = Problem::new(Sense::Minimize);
        let w: Vec<usize> = (0..m)
            .map(|j| p.add_var(&format!("w{j}"), 0.0, 1.0, 0.0))
            .collect();
        let simplex: Vec<(usize, f64)> = w.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(&simplex, Op::Eq, 1.0);
        for (coefs, op, rhs) in cuts {
            let terms: Vec<(usize, f64)> = coefs.iter().enumerate().map(|(j, &c)| (j, c)).collect();
            p.add_constraint(&terms, *op, *rhs);
        }
        p
    }

    /// Cold reference: one fresh two-phase solve per probe objective.
    fn cold_probe(p: &Problem, var: usize, sense: Sense) -> f64 {
        let mut q = p.clone();
        q.set_objective(var, 1.0);
        q.set_sense(sense);
        let s = q.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        s.objective
    }

    #[test]
    fn objective_swaps_match_cold_probes() {
        let p = region(
            4,
            &[
                (vec![1.0, -1.0, 0.5, 0.0], Op::Ge, 1e-4),
                (vec![0.0, 1.0, -1.0, 0.2], Op::Le, 0.0),
            ],
        );
        let mut inc = IncrementalLp::new();
        let status = inc.load(&p, None).unwrap();
        assert_eq!(status, LoadStatus::Feasible { warm: false });
        for j in 0..4 {
            for sense in [Sense::Minimize, Sense::Maximize] {
                let warm = inc.solve_objective(&[(j, 1.0)], sense).unwrap();
                assert_eq!(warm.status, Status::Optimal);
                let cold = cold_probe(&p, j, sense);
                assert!(
                    (warm.objective - cold).abs() < 1e-7,
                    "var {j} {sense:?}: warm {} cold {cold}",
                    warm.objective
                );
            }
        }
    }

    #[test]
    fn push_row_feasible_and_infeasible_then_pop_restores() {
        let p = region(3, &[]);
        let mut inc = IncrementalLp::new();
        assert_eq!(
            inc.load(&p, None).unwrap(),
            LoadStatus::Feasible { warm: false }
        );
        let before = inc.solve_objective(&[(0, 1.0)], Sense::Minimize).unwrap();

        // A satisfiable cut: w0 − w1 ≥ 0.1.
        let st = inc.push_row(&[(0, 1.0), (1, -1.0)], Op::Ge, 0.1).unwrap();
        assert_eq!(st, Status::Optimal);
        inc.pop_row();

        // An unsatisfiable cut: w0 + w1 + w2 ≥ 2 on the simplex.
        let st = inc
            .push_row(&[(0, 1.0), (1, 1.0), (2, 1.0)], Op::Ge, 2.0)
            .unwrap();
        assert_eq!(st, Status::Infeasible);
        inc.pop_row();

        // The pre-push state is restored exactly: same probe answer,
        // and further pushes still work.
        let after = inc.solve_objective(&[(0, 1.0)], Sense::Minimize).unwrap();
        assert_eq!(before.objective.to_bits(), after.objective.to_bits());
        let st = inc.push_row(&[(2, 1.0)], Op::Le, 0.5).unwrap();
        assert_eq!(st, Status::Optimal);
        inc.pop_row();
    }

    #[test]
    fn push_row_degenerate_cut_through_current_vertex() {
        // Optimal vertex for min w0 over the simplex puts w0 = 0; the
        // appended row w0 ≤ 0 binds exactly there (dual-degenerate:
        // slack enters at value 0). Must report feasible, not cycle.
        let p = region(3, &[]);
        let mut inc = IncrementalLp::new();
        inc.load(&p, None).unwrap();
        let s = inc.solve_objective(&[(0, 1.0)], Sense::Minimize).unwrap();
        assert!(s.objective.abs() < 1e-9);
        let st = inc.push_row(&[(0, 1.0)], Op::Le, 0.0).unwrap();
        assert_eq!(st, Status::Optimal);
        inc.pop_row();
        // And a cut that is violated by the current vertex but
        // satisfiable elsewhere: w0 ≥ 0.25.
        let st = inc.push_row(&[(0, 1.0)], Op::Ge, 0.25).unwrap();
        assert_eq!(st, Status::Optimal);
        inc.pop_row();
    }

    #[test]
    fn snapshot_warm_starts_child_region() {
        // Parent region; probe it, snapshot, then load the child
        // (parent + one decision row) with the hint.
        let cut1 = (vec![1.0, -1.0, 0.0, 0.3], Op::Ge, 1e-4);
        let parent = region(4, std::slice::from_ref(&cut1));
        let mut inc = IncrementalLp::new();
        assert_eq!(
            inc.load(&parent, None).unwrap(),
            LoadStatus::Feasible { warm: false }
        );
        for j in 0..4 {
            inc.solve_objective(&[(j, 1.0)], Sense::Minimize).unwrap();
        }
        let snap = inc.snapshot();

        let cut2 = (vec![0.0, 1.0, -1.0, 0.1], Op::Le, 0.0);
        let child = region(4, &[cut1, cut2]);
        let pivots_before = inc.pivots();
        let status = inc.load(&child, Some(&snap)).unwrap();
        assert_eq!(status, LoadStatus::Feasible { warm: true });
        let warm_pivots = inc.pivots() - pivots_before;

        // Warm answers agree with cold solves of the child.
        for j in 0..4 {
            for sense in [Sense::Minimize, Sense::Maximize] {
                let warm = inc.solve_objective(&[(j, 1.0)], sense).unwrap();
                let cold = cold_probe(&child, j, sense);
                assert!(
                    (warm.objective - cold).abs() < 1e-7,
                    "var {j} {sense:?}: warm {} cold {cold}",
                    warm.objective
                );
            }
        }

        // And the warm install costs fewer pivots than a cold load of
        // the same child.
        let mut cold_inc = IncrementalLp::new();
        let before = cold_inc.pivots();
        assert_eq!(
            cold_inc.load(&child, None).unwrap(),
            LoadStatus::Feasible { warm: false }
        );
        let cold_pivots = cold_inc.pivots() - before;
        assert!(
            warm_pivots < cold_pivots,
            "warm install {warm_pivots} pivots ≥ cold load {cold_pivots}"
        );
    }

    #[test]
    fn snapshot_detects_infeasible_child() {
        let parent = region(3, &[]);
        let mut inc = IncrementalLp::new();
        inc.load(&parent, None).unwrap();
        inc.solve_objective(&[(0, 1.0)], Sense::Minimize).unwrap();
        let snap = inc.snapshot();
        // Child cut empty: Σw ≥ 2 can never hold on the simplex. The
        // warm path itself concludes it (dual restore, no phase 1).
        let child = region(3, &[(vec![1.0, 1.0, 1.0], Op::Ge, 2.0)]);
        assert_eq!(
            inc.load(&child, Some(&snap)).unwrap(),
            LoadStatus::Infeasible { warm: true }
        );
    }

    #[test]
    fn stale_snapshot_falls_back_to_cold() {
        // A snapshot from an unrelated, larger problem must not poison
        // the load: unresolvable descriptors trigger the cold path.
        let big = region(6, &[(vec![1.0, -1.0, 0.0, 0.0, 0.2, -0.2], Op::Ge, 0.0)]);
        let mut inc = IncrementalLp::new();
        inc.load(&big, None).unwrap();
        let snap = inc.snapshot();
        let small = region(3, &[]);
        let status = inc.load(&small, Some(&snap)).unwrap();
        assert_eq!(status, LoadStatus::Feasible { warm: false });
        let s = inc.solve_objective(&[(1, 1.0)], Sense::Maximize).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-7);
    }

    #[test]
    fn boxed_region_with_shifted_bounds_round_trips() {
        // SYM-GD cells shift the variable bounds away from [0,1]; the
        // standard-form shift moves RHS signs around, flipping row
        // orientations — snapshots must survive that.
        let mut p = Problem::new(Sense::Minimize);
        for j in 0..3 {
            p.add_var(&format!("w{j}"), 0.2, 0.6, 0.0);
        }
        p.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Op::Eq, 1.0);
        p.add_constraint(&[(0, 1.0), (1, -1.0)], Op::Le, 0.0);
        let mut inc = IncrementalLp::new();
        assert_eq!(
            inc.load(&p, None).unwrap(),
            LoadStatus::Feasible { warm: false }
        );
        inc.solve_objective(&[(2, 1.0)], Sense::Maximize).unwrap();
        let snap = inc.snapshot();
        let mut child = p.clone();
        child.add_constraint(&[(1, 1.0), (2, -1.0)], Op::Ge, 0.05);
        let status = inc.load(&child, Some(&snap)).unwrap();
        assert_eq!(status, LoadStatus::Feasible { warm: true });
        for j in 0..3 {
            let warm = inc.solve_objective(&[(j, 1.0)], Sense::Minimize).unwrap();
            let cold = cold_probe(&child, j, Sense::Minimize);
            assert!((warm.objective - cold).abs() < 1e-7);
        }
    }
}
