//! Node expansion (box tightening, pair classification, pruning,
//! children) shared by every driver, plus the blocking `solve()` entry
//! that drives a [`SolveJob`](super::job::SolveJob) to completion on the
//! caller's threads.

use super::bounds::interval_bound;
use super::frontier::{DecidedPairs, Node, Propagated};
use super::incumbent::SharedIncumbent;
use super::job::{SolveJob, StepOutcome};
use super::{Solution, SolverConfig, SolverError, SolverStats};
use crate::formulation::{self, ReducedSystem};
use crate::OptProblem;
use rankhow_linalg::kernels;
use rankhow_lp::{
    chebyshev_center_with, BasisSnapshot, IncrementalLp, LoadStatus, Op, Problem as Lp, Sense,
    SimplexWorkspace, Status, VarId,
};
use rankhow_obs::Event;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nodes a blocking driver expands per [`SolveJob::step`] slice. The
/// slice length only bounds how often limits/cancellation are
/// re-checked between node batches, so a large value keeps the blocking
/// path's overhead negligible.
const BLOCKING_SLICE: usize = 1024;

/// Per-worker mutable state: reusable LP scratch (tableaus stop
/// reallocating per node) plus classification buffers and local stats.
///
/// One scratch outlives any number of jobs — [`SolveJob::step`] resizes
/// the classification buffers to the job at hand while the
/// [`SimplexWorkspace`] and the incremental-LP workspace keep their
/// tableau allocations across jobs, which is what lets a long-lived
/// scheduler worker hop between queries without ever re-allocating LP
/// storage. The incremental workspace is also the worker's *basis
/// cache*: a stolen node's snapshot re-installs onto it, so warm starts
/// survive work-stealing and scheduler time-slicing.
#[derive(Default)]
pub struct EngineScratch {
    pub(super) lp: SimplexWorkspace,
    pub(super) inc: IncrementalLp,
    pub(super) decided: Vec<Option<bool>>,
    pub(super) open: Vec<u32>,
    pub(super) beats: Vec<u32>,
    pub(super) stats: SolverStats,
    /// Pivot totals already flushed into a job's stats (both LP
    /// workspaces count monotonically; this is the high-water mark).
    pivots_flushed: u64,
}

impl EngineScratch {
    /// A fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        EngineScratch::default()
    }

    /// Size the classification buffers for a job's reduced system
    /// (no-op when already sized — the common case inside one job).
    pub(super) fn prepare(&mut self, sys: &ReducedSystem) {
        self.decided.resize(sys.pairs.len(), None);
        self.open.resize(sys.top.len(), 0);
        self.beats.resize(sys.top.len(), 0);
    }

    /// Move the locally accumulated stats out (for merging into a job),
    /// folding in the LP pivots performed since the last flush.
    pub(super) fn take_stats(&mut self) -> SolverStats {
        let total = self.lp.pivots() + self.inc.pivots();
        self.stats.lp_pivots += total - self.pivots_flushed;
        self.pivots_flushed = total;
        std::mem::take(&mut self.stats)
    }
}

/// What one box-tightening probe LP reported (shared by the warm and
/// cold tightening paths).
pub(super) enum Probe {
    /// Optimal objective value and the optimizer point (the witness
    /// bound propagation hands to the children).
    Value(f64, Vec<f64>),
    /// The region is empty — only the cold path can observe this (a
    /// warm load has already established feasibility).
    Infeasible,
    /// Numerically stuck or unbounded: fall back to the static bound.
    Stuck,
}

/// Sampled split of one box tightening's time outside its probe LPs:
/// each lap charges the time since the previous mark to phase A (skip
/// rules and witness checks) or phase C (bound resolution, witness
/// copies and the numerical guard). A probe's LP time lies between a
/// lap and a bare `mark`, so it is charged to neither. A clock read
/// costs about as much as the work between two laps, so the laps are
/// few (one per solved probe plus three) and the probe boundaries reuse
/// the reads the `lp_solve` histogram already makes.
struct PhaseClock {
    last: Instant,
    a: Duration,
    c: Duration,
}

impl PhaseClock {
    fn start() -> Self {
        PhaseClock {
            last: Instant::now(),
            a: Duration::ZERO,
            c: Duration::ZERO,
        }
    }

    fn lap_a(&mut self, now: Instant) {
        self.a += now - self.last;
        self.last = now;
    }

    fn lap_c(&mut self, now: Instant) {
        self.c += now - self.last;
        self.last = now;
    }

    fn mark(&mut self, now: Instant) {
        self.last = now;
    }
}

/// Safety margin so LP round-off cannot make the tightened box *tighter*
/// than the true region (classification soundness depends on
/// box ⊇ region).
const MARGIN: f64 = 1e-8;

/// Slack a parent probe witness must clear the one new branch
/// constraint by before its bound is propagated instead of re-probed.
/// Propagation is sound at any margin (the parent bound relaxes the
/// child's); the margin only guards against reusing a witness whose
/// feasibility is within LP noise of the boundary.
const WITNESS_MARGIN: f64 = 1e-7;

/// Slack a known region point must satisfy a child's branch constraint
/// by before the child is declared feasible *without* an LP. Unlike
/// probe skipping this certificate replaces an accept/reject decision,
/// so the margin sits well above the simplex feasibility tolerance
/// (1e-7): a point this deep inside the half-space stays feasible under
/// any representable LP wiggle, and the skip provably keeps the same
/// child the LP would have kept.
const CHILD_CERT_MARGIN: f64 = 1e-5;

/// Resolve a min-probe outcome into the final lower bound for one
/// coordinate; `None` means the region is empty. A [`Probe::Stuck`]
/// fallback always resets to the **static** region bound — never a
/// parent-carried or previously tightened value, which would be stale
/// for this node's region and could tighten the box below its true
/// extent (the bound-propagation audit pins this with a direct test).
pub(super) fn resolve_probe_lo(p: &Probe, static_lo: f64) -> Option<f64> {
    match p {
        Probe::Value(v, _) => Some((v - MARGIN).max(static_lo)),
        Probe::Infeasible => None,
        Probe::Stuck => Some(static_lo),
    }
}

/// Max-probe counterpart of [`resolve_probe_lo`].
pub(super) fn resolve_probe_hi(p: &Probe, static_hi: f64) -> Option<f64> {
    match p {
        Probe::Value(v, _) => Some((v + MARGIN).min(static_hi)),
        Probe::Infeasible => None,
        Probe::Stuck => Some(static_hi),
    }
}

/// Whether `w` satisfies a pair-sign constraint (`side` ⇒ the score
/// difference must clear `eps1` from above, else stay below `eps2`)
/// with `margin` to spare.
pub(super) fn side_holds(
    diff: &[f64],
    w: &[f64],
    side: bool,
    eps1: f64,
    eps2: f64,
    margin: f64,
) -> bool {
    // Chunked dot: reassociates the sum (a few ulps vs the sequential
    // fold), safe here because every caller demands a margin ≥ 1e-7 —
    // far above dot-product roundoff on unit-box inputs.
    let dot = kernels::dot(diff, w);
    if side {
        dot >= eps1 + margin
    } else {
        dot <= eps2 - margin
    }
}

/// A tightened node box plus the per-coordinate probe optimizers that
/// justify it (the witnesses propagated to the children).
pub(super) struct Tightened {
    pub lo: Vec<f64>,
    pub hi: Vec<f64>,
    /// Flat `2m × m`: rows `0..m` are min-probe argmins, rows `m..2m`
    /// max-probe argmaxes.
    pub wit: Vec<f64>,
    /// Which witness rows are valid (a skipped-with-stale-witness or
    /// stuck probe leaves its row invalid).
    pub wit_ok: Vec<bool>,
}

/// How a node's inherited facts are separated from the region they were
/// proved over — the re-validation a witness must pass before its bound
/// is reused.
enum InheritGate<'a> {
    /// The ordinary within-tree case: the facts come from the parent
    /// expansion, and the one row they have not seen is the node's last
    /// branch decision. A witness survives iff it satisfies that row.
    Branch { diff: &'a [f64], side: bool },
    /// A root node carrying cross-query facts
    /// ([`super::RootSeed`]): the facts come from a *containing* cached
    /// region, and the rows they have not seen are this instance's own
    /// box bounds and weight constraints. A witness survives iff it lies
    /// in the new root region outright — then the cached probe optimum
    /// is attained inside the new region and the bound is exact.
    Root,
}

/// The bound-propagation inputs for one expansion: the inherited
/// [`Propagated`] facts plus the gate separating their region from this
/// node's.
struct Inherit<'a> {
    prop: &'a Propagated,
    gate: InheritGate<'a>,
}

/// Immutable per-step view of one job's search state. All mutable state
/// lives in the job (frontier, incumbent, counters) or in the worker's
/// [`EngineScratch`]; this struct only borrows, so any worker can form a
/// view of any job at any time — the reentrancy the scheduler needs.
pub(super) struct SearchView<'a> {
    pub problem: &'a OptProblem,
    pub config: &'a SolverConfig,
    pub sys: &'a ReducedSystem,
    pub slot_bounds: &'a [Option<(u32, u32)>],
    pub has_position_constraints: bool,
    pub box_lo: &'a [f64],
    pub box_hi: &'a [f64],
}

impl SearchView<'_> {
    /// A candidate becomes the incumbent only if it satisfies the
    /// position windows; returns whether it improved the shared best.
    ///
    /// Evaluation goes through [`OptProblem::evaluate_constrained`] — the
    /// same batched-score arithmetic as the public evaluator — so the
    /// reported `Solution::error` is realized by `Solution::weights`
    /// bit-for-bit. (A pairwise-difference evaluation over the reduced
    /// system rounds differently at tie boundaries and can disagree with
    /// `evaluate` by a rank on ε = 0 ties.)
    pub fn try_incumbent(
        &self,
        w: &[f64],
        incumbent: &SharedIncumbent,
        certified: &SharedIncumbent,
        stats: &mut SolverStats,
    ) -> bool {
        let Some(err) = self.problem.evaluate_constrained(w) else {
            return false;
        };
        // Track the best *certified* incumbent separately: a sampled
        // point may sit in the (ε2, ε1) gap band the optimality proof
        // excludes, and which band point wins is interleaving-dependent.
        // A certified point, by contrast, is covered by *every*
        // exhaustive search of the instance, so its error cross-validates
        // independent solves (see `Solution::certified_error`). The band
        // check is only run on improvements, so its cost is bounded by
        // the number of distinct error decreases.
        if err < certified.error() && !crate::verify::relies_on_gap_band(self.problem, w) {
            certified.offer(err, w);
        }
        if incumbent.offer(err, w) {
            stats.incumbents += 1;
            if let Some(tel) = self.config.obs() {
                tel.event(Event::Incumbent { error: err as f64 });
            }
            true
        } else {
            false
        }
    }

    /// Witness rule: whether inherited witness row `slot` is still
    /// feasible for this node's region under the inherit gate — branch
    /// nodes check the one new branch row, cross-query root nodes check
    /// membership in the new root region (box + weight constraints). A
    /// live witness makes the inherited bound exact for this region.
    fn witness_alive(&self, inh: &Inherit<'_>, slot: usize, m: usize) -> bool {
        if !inh.prop.wit_ok[slot] {
            return false;
        }
        let w = &inh.prop.wit[slot * m..(slot + 1) * m];
        match inh.gate {
            InheritGate::Branch { diff, side } => side_holds(
                diff,
                w,
                side,
                self.problem.tol.eps1,
                self.problem.tol.eps2,
                WITNESS_MARGIN,
            ),
            InheritGate::Root => {
                in_box(w, self.box_lo, self.box_hi) && self.problem.constraints.satisfied_by(w)
            }
        }
    }

    /// Build the node's weight-space LP region.
    pub fn region(&self, decisions: &[(u32, bool)]) -> Lp {
        let m = self.problem.m();
        let mut lp = Lp::new(Sense::Minimize);
        let w: Vec<VarId> = (0..m)
            .map(|j| lp.add_var(&format!("w{j}"), self.box_lo[j], self.box_hi[j], 0.0))
            .collect();
        let simplex: Vec<(VarId, f64)> = w.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&simplex, Op::Eq, 1.0);
        self.problem.constraints.apply_to(&mut lp, &w);
        for &(idx, side) in decisions {
            let diff = self.sys.diff(idx as usize);
            let terms: Vec<(VarId, f64)> = (0..m).map(|j| (w[j], diff[j])).collect();
            if side {
                lp.add_constraint(&terms, Op::Ge, self.problem.tol.eps1);
            } else {
                lp.add_constraint(&terms, Op::Le, self.problem.tol.eps2);
            }
        }
        lp
    }

    /// What one box-tightening probe reported.
    fn probe_outcome(result: Result<rankhow_lp::Solution, rankhow_lp::SolveError>) -> Probe {
        match result {
            Ok(s) if s.status == Status::Optimal => Probe::Value(s.objective, s.x),
            Ok(s) if s.status == Status::Infeasible => Probe::Infeasible,
            // Unbounded impossible (w ∈ [0,1]); LP failure → fallback.
            _ => Probe::Stuck,
        }
    }

    /// Per-coordinate min/max over the region (up to 2m small LPs);
    /// `probe` supplies the per-objective solver, so the warm and cold
    /// paths share one loop — and one copy of the safety margin and
    /// numerical guards the parity suite depends on. Returns `None`
    /// when the region is empty.
    ///
    /// With `inherit` present (bound propagation), a probe is skipped —
    /// and the parent's bound reused — when the parent's witness
    /// optimizer still satisfies the one new branch constraint (then the
    /// parent bound is *exact* for this node: the witness stays feasible
    /// and optimal), or when no new decision touches the coordinate
    /// (then the parent bound is a sound relaxation). Skips never count
    /// as `lp_solves`; they count as `probes_skipped`.
    ///
    /// Sampled phase profiling: when telemetry selects this tightening,
    /// its time outside the probe LPs goes to two histograms, one entry
    /// each — `tighten_a` for the skip rules and witness checks, and
    /// `tighten_c` for bound resolution, witness copies and the
    /// numerical guard.
    fn tighten_box_with(
        &self,
        region: &Lp,
        scratch: &mut EngineScratch,
        inherit: Option<&Inherit<'_>>,
        mut probe: impl FnMut(&mut EngineScratch, usize, Sense) -> Probe,
    ) -> Option<Tightened> {
        let m = self.problem.m();
        let mut t = Tightened {
            lo: vec![0.0; m],
            hi: vec![1.0; m],
            wit: vec![0.0; 2 * m * m],
            wit_ok: vec![false; 2 * m],
        };
        let obs = self.config.obs();
        let mut clock = obs
            .filter(|tel| tel.sample_phase())
            .map(|_| PhaseClock::start());
        for j in 0..m {
            let (static_lo, static_hi) = region.bounds(j);
            // `changed` is all-ones when m > 64, so wide instances never
            // take the untouched-coordinate shortcut.
            let untouched =
                inherit.is_some_and(|inh| j < 64 && inh.prop.changed & (1u64 << j) == 0);
            let mut coord_skips = 0usize;
            for (slot, sense) in [(j, Sense::Minimize), (m + j, Sense::Maximize)] {
                // Witness rule: the inherited probe optimizer is still
                // feasible here ⇒ the inherited bound is exact, and the
                // witness itself propagates onward.
                let witness_alive = inherit.is_some_and(|inh| self.witness_alive(inh, slot, m));
                if witness_alive || untouched {
                    let inh = inherit.unwrap();
                    let bound = if slot < m {
                        inh.prop.lo[j]
                    } else {
                        inh.prop.hi[j]
                    };
                    if slot < m {
                        t.lo[j] = bound;
                    } else {
                        t.hi[j] = bound;
                    }
                    if witness_alive {
                        t.wit[slot * m..(slot + 1) * m]
                            .copy_from_slice(&inh.prop.wit[slot * m..(slot + 1) * m]);
                        t.wit_ok[slot] = true;
                    }
                    scratch.stats.probes_skipped += 1;
                    coord_skips += 1;
                    continue;
                }
                scratch.stats.lp_solves += 1;
                // LP-time histogram: one entry per probe, so the
                // lp_solve count reconciles with `SolverStats::lp_solves`.
                let t0 = obs.map(|_| Instant::now());
                if let (Some(c), Some(t0)) = (&mut clock, t0) {
                    c.lap_a(t0);
                }
                let p = probe(scratch, j, sense);
                if let (Some(tel), Some(t0)) = (obs, t0) {
                    let t1 = Instant::now();
                    tel.metrics.lp_solve.record(t1 - t0);
                    if let Some(c) = &mut clock {
                        c.mark(t1);
                    }
                }
                let resolved = if slot < m {
                    resolve_probe_lo(&p, static_lo)
                } else {
                    resolve_probe_hi(&p, static_hi)
                };
                let Some(bound) = resolved else {
                    return None; // region infeasible (cold path only)
                };
                if slot < m {
                    t.lo[j] = bound;
                } else {
                    t.hi[j] = bound;
                }
                if let Probe::Value(_, x) = p {
                    t.wit[slot * m..(slot + 1) * m].copy_from_slice(&x);
                    t.wit_ok[slot] = true;
                }
                if let Some(c) = &mut clock {
                    c.lap_c(Instant::now());
                }
            }
            if coord_skips == 2 {
                scratch.stats.coords_skipped += 1;
            }
        }
        if let Some(c) = &mut clock {
            c.lap_a(Instant::now());
        }
        // Numerical guard (per coordinate; no probe reads the box, so it
        // runs after the loop and its time is one phase-C lap).
        for j in 0..m {
            if t.lo[j] > t.hi[j] {
                let mid = 0.5 * (t.lo[j] + t.hi[j]);
                t.lo[j] = mid;
                t.hi[j] = mid;
            }
        }
        if let (Some(tel), Some(mut c)) = (obs, clock) {
            c.lap_c(Instant::now());
            tel.metrics.tighten_a.record(c.a);
            tel.metrics.tighten_c.record(c.c);
        }
        Some(t)
    }

    /// Cold tightening: every probe re-solves the region from an empty
    /// basis (one shared clone toggles a single objective coefficient).
    /// The coefficient is reset after *every* probe — propagation may
    /// skip either direction of a pair, so the closure cannot rely on
    /// min/max probes arriving in lockstep to clean up after itself.
    fn tighten_box(
        &self,
        region: &Lp,
        scratch: &mut EngineScratch,
        inherit: Option<&Inherit<'_>>,
    ) -> Option<Tightened> {
        let mut lp = region.clone();
        self.tighten_box_with(region, scratch, inherit, |scratch, j, sense| {
            lp.set_objective(j, 1.0);
            lp.set_sense(sense);
            let out = Self::probe_outcome(lp.solve_with(&mut scratch.lp));
            lp.set_objective(j, 0.0);
            out
        })
    }

    /// Warm tightening: the region is already loaded (and feasible) in
    /// `scratch.inc`, so each probe is an objective swap + primal phase
    /// 2 from the previous optimal basis — no standard-form rebuild, no
    /// phase 1. A numerically stuck probe falls back to the static
    /// bounds, exactly like the cold path.
    fn tighten_box_warm(
        &self,
        region: &Lp,
        scratch: &mut EngineScratch,
        inherit: Option<&Inherit<'_>>,
    ) -> Tightened {
        self.tighten_box_with(region, scratch, inherit, |scratch, j, sense| {
            Self::probe_outcome(scratch.inc.solve_objective(&[(j, 1.0)], sense))
        })
        .expect("a warm-loaded region is feasible (load established it)")
    }

    /// Expand one node: tighten its box, classify the live pairs, prune
    /// by interval bound and position windows, sample an incumbent, and
    /// return the surviving children (empty for pruned nodes and leaves).
    pub fn expand(
        &self,
        node: &Node,
        incumbent: &SharedIncumbent,
        certified: &SharedIncumbent,
        scratch: &mut EngineScratch,
    ) -> Result<Vec<Node>, SolverError> {
        let region = self.region(&node.decisions);
        let m = self.problem.m();
        // Bound-propagation inputs: the inherited facts apply to this
        // node's (sub)region under the matching gate. A branch node's
        // facts come from its parent, separated by the node's last
        // decision; a *root* node carrying facts got them from a
        // cross-query seed whose cached region contains this root.
        let inherit: Option<Inherit<'_>> = if self.config.propagate {
            node.prop.as_deref().map(|prop| {
                let gate = match node.decisions.last() {
                    Some(&(idx, side)) => InheritGate::Branch {
                        diff: self.sys.diff(idx as usize),
                        side,
                    },
                    None => InheritGate::Root,
                };
                Inherit { prop, gate }
            })
        } else {
            None
        };
        // Warm LP path: load the region into the worker's incremental
        // workspace once — from the node's parent-basis snapshot when it
        // carries one — then drive all probes and child checks from that
        // tableau. A failed load (numerical trouble) silently degrades
        // this node to cold per-LP solves; answers never depend on it.
        let obs = self.config.obs();
        let mut inc_ready = false;
        if self.config.warm_lp {
            // The load is itself an LP solve (snapshot install + dual
            // restore, or a cold phase 1 on fallback) — count it, so
            // warm-mode lp_solves reflects the work actually done.
            scratch.stats.lp_solves += 1;
            let t0 = obs.map(|_| Instant::now());
            let loaded = scratch.inc.load(&region, node.basis.as_deref());
            if let (Some(tel), Some(t0)) = (obs, t0) {
                let elapsed = t0.elapsed();
                tel.metrics.lp_solve.record(elapsed);
                // lp_load is the snapshot-install / dual-restore detail
                // view of the same work, behind the sampling knob.
                if tel.sample_phase() {
                    tel.metrics.lp_load.record(elapsed);
                }
            }
            match loaded {
                Ok(LoadStatus::Infeasible { warm }) => {
                    // The load still ran (and pruned the node): account
                    // it, so every expanded node counts exactly one LP
                    // start — the invariant the parity proptest pins.
                    if warm {
                        scratch.stats.lp_warm_starts += 1;
                        if let Some(tel) = obs {
                            tel.event(Event::SnapshotRestore);
                        }
                    } else {
                        scratch.stats.lp_cold_starts += 1;
                    }
                    return Ok(Vec::new());
                }
                Ok(LoadStatus::Feasible { warm }) => {
                    inc_ready = true;
                    if warm {
                        scratch.stats.lp_warm_starts += 1;
                        if let Some(tel) = obs {
                            tel.event(Event::SnapshotRestore);
                        }
                    } else {
                        scratch.stats.lp_cold_starts += 1;
                    }
                }
                Err(_) => {}
            }
        }
        if !inc_ready {
            scratch.stats.lp_cold_starts += 1;
        }

        // Tighten the node's weight box via per-coordinate LPs (minus
        // whatever probes bound propagation answers from parent facts).
        let tightened = if inc_ready {
            self.tighten_box_warm(&region, scratch, inherit.as_ref())
        } else {
            match self.tighten_box(&region, scratch, inherit.as_ref()) {
                Some(b) => b,
                None => return Ok(Vec::new()), // region infeasible
            }
        };

        // Classify undecided pairs against the tightened box. Pairs the
        // ancestors already classified are seeded from the propagated
        // bitset — decisions are monotone down the tree (each decision
        // holds over an ancestor box that contains this node's region),
        // so a decided pair never re-enters `undecided` and pays no
        // classification work here. Newly decided pairs are recorded for
        // the children's bitset.
        scratch.decided.fill(None);
        if let Some(inh) = &inherit {
            for idx in 0..self.sys.pairs.len() {
                scratch.decided[idx] = inh.prop.decided.get(idx);
            }
        }
        for &(idx, side) in &node.decisions {
            scratch.decided[idx as usize] = Some(side);
        }
        scratch.beats.copy_from_slice(&self.sys.fixed_beats);
        scratch.open.fill(0);
        let eps = self.problem.tol.eps;
        let node_box = formulation::SimplexBox::new(&tightened.lo, &tightened.hi);
        let mut branch_candidate: Option<(usize, f64)> = None;
        let mut newly_decided: Vec<(usize, bool)> = Vec::new();
        for (idx, pair) in self.sys.pairs.iter().enumerate() {
            match scratch.decided[idx] {
                Some(true) => scratch.beats[pair.slot] += 1,
                Some(false) => {}
                None => {
                    let Some(node_box) = &node_box else {
                        continue;
                    };
                    let diff = self.sys.diff(idx);
                    if let Some(beats) = node_box.screen(diff, eps) {
                        if beats {
                            scratch.beats[pair.slot] += 1;
                        }
                        newly_decided.push((idx, beats));
                        continue;
                    }
                    let (l, h) = node_box.min_max(diff);
                    if l > eps {
                        scratch.beats[pair.slot] += 1;
                        newly_decided.push((idx, true));
                    } else if h <= eps {
                        // never beats
                        newly_decided.push((idx, false));
                    } else {
                        scratch.open[pair.slot] += 1;
                        // Most-ambiguous branching: largest two-sided
                        // margin around the tie threshold.
                        let straddle = (h - eps).min(eps - l);
                        let score = straddle.min(h - l);
                        if branch_candidate.map_or(true, |(_, s)| score > s) {
                            branch_candidate = Some((idx, score));
                        }
                    }
                }
            }
        }

        // Position windows: prune when a slot's attainable rank
        // interval cannot meet its allowed window (interval computed
        // over a superset of the region — sound).
        if self.has_position_constraints {
            let impossible = self.slot_bounds.iter().enumerate().any(|(slot, b)| {
                b.is_some_and(|(lo, hi)| {
                    let min_rank = scratch.beats[slot] + 1;
                    let max_rank = min_rank + scratch.open[slot];
                    max_rank < lo || min_rank > hi
                })
            });
            if impossible {
                return Ok(Vec::new());
            }
        }

        // Node bound from rank intervals.
        let bound = interval_bound(
            self.sys,
            &scratch.beats,
            &scratch.open,
            self.problem.objective,
        );
        if bound >= incumbent.error() {
            return Ok(Vec::new());
        }

        // Incumbent: the region's Chebyshev center (skipped on a
        // numerically stuck LP — purely a heuristic). The point is kept
        // around: it doubles as a feasibility certificate for whichever
        // child's branch constraint it satisfies.
        let mut center_point: Option<Vec<f64>> = None;
        if self.config.incumbent_sampling {
            scratch.stats.lp_solves += 1;
            let t0 = obs.map(|_| Instant::now());
            let centered = chebyshev_center_with(&region, &mut scratch.lp);
            if let (Some(tel), Some(t0)) = (obs, t0) {
                tel.metrics.lp_solve.record(t0.elapsed());
            }
            if let Ok(Some(center)) = centered {
                if self.try_incumbent(&center, incumbent, certified, &mut scratch.stats) {
                    let best = incumbent.error();
                    if best == 0 || bound >= best {
                        return Ok(Vec::new());
                    }
                }
                center_point = Some(center);
            }
        }

        let Some((branch_idx, _)) = branch_candidate else {
            // Leaf: every pair decided or constant — bound is exact,
            // and the center above already recorded it.
            return Ok(Vec::new());
        };

        // Facts the children inherit: this expansion's tightened box and
        // witnesses, the (monotone) decided-pair bitset grown by this
        // node's classification, and the branch row's changed-coordinates
        // mask. One Arc shared by both siblings, like the basis snapshot.
        let branch_diff = self.sys.diff(branch_idx);
        let child_prop: Option<Arc<Propagated>> = if self.config.propagate {
            let changed = if m <= 64 {
                branch_diff
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| **d != 0.0)
                    .fold(0u64, |mask, (j, _)| mask | (1 << j))
            } else {
                u64::MAX
            };
            let mut decided = match &inherit {
                Some(inh) => inh.prop.decided.clone(),
                None => DecidedPairs::new(self.sys.pairs.len()),
            };
            for &(idx, side) in &newly_decided {
                decided.set(idx, side);
            }
            Some(Arc::new(Propagated {
                lo: tightened.lo,
                hi: tightened.hi,
                wit: tightened.wit,
                wit_ok: tightened.wit_ok,
                decided,
                changed,
            }))
        } else {
            None
        };

        // Expand children, checking feasibility eagerly. Warm: append
        // the one new pair-sign row to the already-loaded tableau and
        // restore feasibility by dual simplex from the current basis
        // (then pop it for the sibling). Cold: rebuild the child region
        // and run two-phase from scratch. Propagation first tries to
        // certify the child feasible from a point already in hand (a
        // probe witness or the Chebyshev center deep enough inside the
        // branch half-space) — then no LP runs at all.
        let child_basis: Option<Arc<BasisSnapshot>> =
            inc_ready.then(|| Arc::new(scratch.inc.snapshot()));
        // Both sides push the same row coefficients; only (op, rhs)
        // differ, so build the terms once.
        let branch_terms: Vec<(VarId, f64)> = if inc_ready {
            (0..m).map(|j| (j, branch_diff[j])).collect()
        } else {
            Vec::new()
        };
        let eps1 = self.problem.tol.eps1;
        let eps2 = self.problem.tol.eps2;
        let mut children = Vec::with_capacity(2);
        for side in [true, false] {
            let mut decisions = node.decisions.clone();
            decisions.push((branch_idx as u32, side));
            let feasibility_certified = child_prop.as_deref().is_some_and(|p| {
                let center_ok = center_point.as_deref().is_some_and(|c| {
                    side_holds(branch_diff, c, side, eps1, eps2, CHILD_CERT_MARGIN)
                });
                center_ok
                    || (0..2 * m).any(|slot| {
                        p.wit_ok[slot]
                            && side_holds(
                                branch_diff,
                                &p.wit[slot * m..(slot + 1) * m],
                                side,
                                eps1,
                                eps2,
                                CHILD_CERT_MARGIN,
                            )
                    })
            });
            // On an LP failure, keep the child: pruning is only an
            // optimization and bounds remain sound.
            let keep = if feasibility_certified {
                scratch.stats.probes_skipped += 1;
                true
            } else if inc_ready {
                scratch.stats.lp_solves += 1;
                let t0 = obs.map(|_| Instant::now());
                let (op, rhs) = if side { (Op::Ge, eps1) } else { (Op::Le, eps2) };
                let pushed = scratch.inc.push_row(&branch_terms, op, rhs);
                scratch.inc.pop_row();
                if let (Some(tel), Some(t0)) = (obs, t0) {
                    let elapsed = t0.elapsed();
                    tel.metrics.lp_solve.record(elapsed);
                    if tel.sample_phase() {
                        tel.metrics.child_feas.record(elapsed);
                    }
                    tel.event(Event::PushRow);
                }
                match pushed {
                    Ok(status) => status == Status::Optimal,
                    Err(_) => true,
                }
            } else {
                scratch.stats.lp_solves += 1;
                let t0 = obs.map(|_| Instant::now());
                let child_region = self.region(&decisions);
                let feas = child_region.solve_feasibility_with(&mut scratch.lp);
                if let (Some(tel), Some(t0)) = (obs, t0) {
                    let elapsed = t0.elapsed();
                    tel.metrics.lp_solve.record(elapsed);
                    if tel.sample_phase() {
                        tel.metrics.child_feas.record(elapsed);
                    }
                }
                match feas {
                    Ok(sol) => sol.status == Status::Optimal,
                    Err(_) => true,
                }
            };
            if keep {
                children.push(Node {
                    decisions,
                    bound,
                    basis: child_basis.clone(),
                    prop: child_prop.clone(),
                });
            }
        }
        Ok(children)
    }
}

/// Solve OPT exactly (or to the configured limits), blocking the caller.
///
/// This is a thin driver over the reentrant [`SolveJob`]: one job is
/// created with `config.threads` frontier lanes and stepped to
/// completion — on the calling thread for one lane, on a
/// `std::thread::scope` pool otherwise. The scheduler in `rankhow-serve`
/// drives the very same job API from its long-lived worker pool.
pub(super) fn solve(problem: &OptProblem, config: &SolverConfig) -> Result<Solution, SolverError> {
    let lanes = config.threads.max(1);
    let job = SolveJob::new(problem, config.clone(), lanes);
    if lanes <= 1 {
        let mut scratch = EngineScratch::new();
        while job.step(0, &mut scratch, BLOCKING_SLICE) != StepOutcome::Done {}
    } else {
        std::thread::scope(|scope| {
            for lane in 0..lanes {
                let job = &job;
                scope.spawn(move || {
                    let mut scratch = EngineScratch::new();
                    loop {
                        match job.step(lane, &mut scratch, BLOCKING_SLICE) {
                            StepOutcome::Done => break,
                            StepOutcome::Starved => std::thread::yield_now(),
                            StepOutcome::Progress => {}
                        }
                    }
                });
            }
        });
    }
    job.into_solution()
}

pub(super) fn in_box(w: &[f64], lo: &[f64], hi: &[f64]) -> bool {
    w.iter()
        .zip(lo.iter().zip(hi))
        .all(|(x, (l, h))| *x >= l - 1e-9 && *x <= h + 1e-9)
}
