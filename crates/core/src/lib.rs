//! # gs-scatter — static load-balancing of scatter operations
//!
//! Reproduction of the algorithms of Genaud, Giersch & Vivien,
//! *Load-Balancing Scatter Operations for Grid Computing* (IPPS/HCW 2003,
//! long version INRIA RR-4770).
//!
//! A *scatter* sends block `i` of a root buffer to processor `i`, which then
//! computes on it. On a heterogeneous grid (different CPU speeds, different
//! link bandwidths) equal-size blocks (`MPI_Scatter`) leave fast machines
//! idle; this crate computes the block sizes an `MPI_Scatterv` should use
//! instead.
//!
//! ## Cost model (single-port root)
//!
//! The root sends to processors in turn, so processor `P_i` (in scatter
//! order, root last) finishes at
//!
//! ```text
//! T_i = Σ_{j<=i} Tcomm(j, n_j) + Tcomp(i, n_i)        (Eq. 1)
//! T   = max_i T_i                                      (Eq. 2)
//! ```
//!
//! and we seek the integer distribution `n_1..n_p` (Σ n_i = n) minimizing
//! `T`.
//!
//! ## Solvers
//!
//! The three exact dynamic programs are kernels of one entry point,
//! [`parallel::solve`].
//!
//! | solver | paper | requirements | complexity |
//! |---|---|---|---|
//! | [`Kernel::Basic`](parallel::Kernel::Basic) | Algorithm 1 | non-negative costs | `O(p·n²)` |
//! | [`Kernel::Optimized`](parallel::Kernel::Optimized) | Algorithm 2 | increasing costs | `O(p·n²)` worst, `~O(p·n·log n)` typical |
//! | [`Kernel::Dc`](parallel::Kernel::Dc) | D&C extension | increasing costs (else falls back to Alg. 1) | `O(p·n·log n)` |
//! | [`heuristic`] | §3.3 LP + rounding | affine costs | polynomial, guaranteed (Eq. 4) |
//! | [`closed_form`] | §4, Theorems 1–2 | linear costs | `O(p)`, exact rational |
//!
//! Plus the ordering policy of Theorem 3 ([`ordering`]), root selection of
//! §3.4 ([`root`]), and a high-level [`planner`] that ties it all together
//! and emits `MPI_Scatterv`-style `counts`/`displs`.
//!
//! ## Quick start
//!
//! ```
//! use gs_scatter::prelude::*;
//!
//! // Three workers plus a root, linear costs (Table-1 style coefficients).
//! let platform = Platform::new(vec![
//!     Processor::linear("root", 0.0, 0.009),
//!     Processor::linear("fast", 1.0e-5, 0.004),
//!     Processor::linear("slow", 2.0e-5, 0.016),
//!     Processor::linear("far", 8.0e-5, 0.004),
//! ], 0).unwrap();
//!
//! let plan = Planner::new(platform)
//!     .strategy(Strategy::Heuristic)
//!     .order_policy(OrderPolicy::DescendingBandwidth)
//!     .plan(100_000)
//!     .unwrap();
//!
//! assert_eq!(plan.counts.iter().sum::<usize>(), 100_000);
//! // The fast machine gets more work than the slow one.
//! assert!(plan.counts[1] > plan.counts[2]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod brute;
pub mod calibrate;
pub mod closed_form;
pub mod cost;
pub mod cost_table;
pub mod distribution;
mod dp_kernel;
pub mod error;
pub mod fault;
pub mod gather;
pub mod heuristic;
pub mod intern;
pub mod metrics;
pub mod multiround;
pub mod obs;
pub mod ordering;
pub mod paper;
pub mod parallel;
pub mod planner;
pub mod platform_file;
pub mod root;
pub mod rounding;

/// Convenient glob-import of the main types.
pub mod prelude {
    pub use crate::calibrate::{Calibration, DriftReport};
    pub use crate::closed_form::{closed_form_distribution, ClosedFormSolution};
    pub use crate::cost::{CostFn, Platform, Processor};
    pub use crate::cost_table::CostTable;
    pub use crate::distribution::{finish_times, makespan, uniform_distribution, Timeline};
    pub use crate::error::PlanError;
    pub use crate::fault::{
        replan_residual, replan_residual_with, Fault, FaultKind, FaultPlan, FaultSession,
        RecoveryConfig, SendOutcome,
    };
    pub use crate::heuristic::{heuristic_distribution, HeuristicSolution};
    pub use crate::intern::NameInterner;
    pub use crate::metrics::{MetricsSnapshot, Registry};
    pub use crate::obs::{
        Event, EventKind, Incident, IncidentKind, PlanTiming, Trace, TraceSource, TraceSummary,
    };
    pub use crate::parallel::{solve, DpSolution, Kernel, ParallelOpts};
    pub use crate::ordering::{scatter_order, OrderPolicy};
    pub use crate::planner::{Plan, PlanCache, Planner, Strategy};
    pub use crate::root::select_root;
}
