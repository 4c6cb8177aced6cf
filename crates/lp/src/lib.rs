//! # gs-lp — exact linear programming over rationals
//!
//! A dense two-phase primal simplex solver with Bland's anti-cycling rule,
//! pivoting over [`gs_numeric::Rational`]. Exactness matters here: the
//! guaranteed heuristic of RR-4770 §3.3 rounds the *rational optimum* of the
//! scatter LP (Eq. 3), and its guarantee (Eq. 4) is stated relative to that
//! exact optimum. The paper used PIP/pipMP; this crate is the self-contained
//! replacement.
//!
//! The heuristic itself now solves Eq. (3) by its prefix structure and
//! certifies each answer (`gs_scatter::heuristic`); this solver answers
//! only when that certificate fails, and for the gather-aware LP of
//! `gs_scatter::gather`.
//!
//! ## Example
//!
//! ```
//! use gs_lp::{LpProblem, Sense};
//! use gs_numeric::Rational;
//!
//! // maximize x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  x,y >= 0
//! let mut lp = LpProblem::new(Sense::Maximize);
//! let x = lp.add_var("x");
//! let y = lp.add_var("y");
//! lp.set_objective([(x, 1.into()), (y, 1.into())]);
//! lp.add_le([(x, 1.into()), (y, 2.into())], Rational::from(4));
//! lp.add_le([(x, 3.into()), (y, 1.into())], Rational::from(6));
//! let sol = lp.solve().unwrap();
//! assert_eq!(sol.objective, Rational::from_ratio(14, 5));
//! assert_eq!(sol[x], Rational::from_ratio(8, 5));
//! assert_eq!(sol[y], Rational::from_ratio(6, 5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod simplex;

pub use model::{Constraint, LpError, LpProblem, Relation, Sense, Solution, VarId};
