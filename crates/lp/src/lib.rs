//! Linear programming substrate: a two-phase dense primal simplex solver.
//!
//! The RankHow paper relies on an industrial LP/MILP stack (Gurobi). This
//! crate is the from-scratch replacement for the *LP* layer: it solves
//! `min/max c·x` subject to linear constraints and variable bounds, detects
//! infeasibility and unboundedness, and offers a feasibility-only mode plus
//! a Chebyshev-center helper used to sample representative interior points
//! of weight-space cells (needed by both the TREE baseline and the RankHow
//! branch-and-bound incumbent heuristic).
//!
//! Design notes:
//! - dense tableau, two-phase (artificial variables), Dantzig pricing with
//!   a Bland's-rule fallback after a stall is detected (anti-cycling);
//! - problem sizes in this workspace are small-by-construction (the paper's
//!   Section IV explains why: in w-space there are only `m − 1` free
//!   dimensions), so a dense tableau is the right simplicity/performance
//!   trade-off;
//! - all tolerances are explicit constants in the `simplex` module.
//!
//! # Example
//! ```
//! use rankhow_lp::{Problem, Sense, Op, Status};
//!
//! // max 3x + 5y  s.t.  x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = p.add_var("y", 0.0, f64::INFINITY, 5.0);
//! p.add_constraint(&[(x, 1.0)], Op::Le, 4.0);
//! p.add_constraint(&[(y, 2.0)], Op::Le, 12.0);
//! p.add_constraint(&[(x, 3.0), (y, 2.0)], Op::Le, 18.0);
//! let sol = p.solve().unwrap();
//! assert_eq!(sol.status, Status::Optimal);
//! assert!((sol.objective - 36.0).abs() < 1e-9);
//! assert!((sol.x[x] - 2.0).abs() < 1e-9 && (sol.x[y] - 6.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

mod dual;
mod geometry;
mod incremental;
mod model;
mod simplex;

pub use geometry::{box_range, chebyshev_center, chebyshev_center_with};
pub use incremental::{BasisSnapshot, IncrementalLp, LoadStatus};
pub use model::{Constraint, Op, Problem, Sense, Solution, Status, VarId};
pub use simplex::{SimplexWorkspace, SolveError};
