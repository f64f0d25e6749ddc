//! Answer checks, run after a pass so they never count in its latency
//! or throughput.
//!
//! Every answer must: carry the expected status; report an error equal
//! to `OptProblem::evaluate_constrained(weights)`; satisfy the weight
//! constraints on the simplex; and, where the instance's proved optimum
//! is on record, agree with it. Every distinct `Optimal` answer also goes
//! through exact `verify::verify` once per process.
//!
//! "Agree" is the engine's certified bracket: a proved solve reports
//! `error ≤ C* ≤ certified_error`, where `C*` is the optimum over the
//! ε1/ε2-certified weight space, and `error` may undercut `C*` only
//! through an incumbent in the uncertified gap band. Two proved solves of
//! one instance — the tabulated base solve and a relabelled or
//! cache-seeded one — must therefore have overlapping brackets. Where the
//! tabulated bracket is a single value (most instances) that pins `C*`
//! exactly.

use crate::optima::Bracket;
use rankhow_core::{verify, OptProblem, Solution, SolveStatus};
use std::collections::HashSet;
use std::time::Instant;

/// Simplex / constraint slack accepted on an answer's weights.
const WEIGHT_TOL: f64 = 1e-7;

/// The checker's counters (also the `problem.evaluate_ms` and
/// `verify.*` per-layer metrics).
#[derive(Default)]
pub struct Checker {
    verified: HashSet<(u64, Vec<u64>)>,
    pub verify_ns: u64,
    pub verify_runs: u64,
    pub verify_pass: u64,
    pub evaluate_ns: u64,
    pub evaluate_runs: u64,
    pub failures: Vec<String>,
}

impl Checker {
    /// Record a failure that is not an answer check (an error status,
    /// a cross-pass mismatch).
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            eprintln!("check failed: {what}");
        }
        self.failures.push(what);
    }

    /// Check one proved answer to `problem` (identified by `key` for the
    /// once-per-process verification) against its tabulated bracket.
    /// Returns whether every check passed.
    pub fn answer(
        &mut self,
        label: &str,
        key: u64,
        problem: &OptProblem,
        sol: &Solution,
        (error, certified): Bracket,
    ) -> bool {
        if sol.status != SolveStatus::Optimal {
            self.fail(format!("{label}: status {:?}, want Optimal", sol.status));
            return false;
        }
        if sol.error > certified || error > sol.certified_error {
            self.fail(format!(
                "{label}: bracket [{}, {}] misses the proved [{error}, {certified}]",
                sol.error, sol.certified_error
            ));
            return false;
        }
        self.weights(label, key, problem, &sol.weights, sol.error, true)
    }

    /// The checks on a weight vector and its claimed error; `exact`
    /// also runs exact verification (once per distinct answer).
    pub fn weights(
        &mut self,
        label: &str,
        key: u64,
        problem: &OptProblem,
        w: &[f64],
        error: u64,
        exact: bool,
    ) -> bool {
        let sum: f64 = w.iter().sum();
        if w.len() != problem.m()
            || w.iter().any(|&x| x < -WEIGHT_TOL)
            || (sum - 1.0).abs() > WEIGHT_TOL
            || !problem.constraints.satisfied_by(w)
        {
            self.fail(format!("{label}: weights off the simplex or constraints"));
            return false;
        }
        let t = Instant::now();
        let evaluated = problem.evaluate_constrained(w);
        self.evaluate_ns += t.elapsed().as_nanos() as u64;
        self.evaluate_runs += 1;
        if evaluated != Some(error) {
            self.fail(format!(
                "{label}: reported {error}, evaluates to {evaluated:?}"
            ));
            return false;
        }
        if exact
            && self
                .verified
                .insert((key, w.iter().map(|x| x.to_bits()).collect()))
        {
            let t = Instant::now();
            let report = verify::verify(problem, w);
            self.verify_ns += t.elapsed().as_nanos() as u64;
            self.verify_runs += 1;
            match report {
                Some(r) if r.consistent && r.exact_error == error => self.verify_pass += 1,
                other => {
                    self.fail(format!("{label}: exact verification {other:?}"));
                    return false;
                }
            }
        }
        true
    }
}
