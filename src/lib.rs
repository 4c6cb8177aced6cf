//! # grid-scatter
//!
//! A Rust reproduction of **Genaud, Giersch & Vivien, “Load-Balancing
//! Scatter Operations for Grid Computing”** (IPPS/HCW 2003; long version
//! INRIA RR-4770): static load-balancing of `MPI_Scatter` operations on
//! heterogeneous grids by replacing them with `MPI_Scatterv` calls whose
//! block sizes come from an optimal (or guaranteed near-optimal)
//! distribution.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`scatter`] (gs-scatter) — the paper's algorithms: exact dynamic
//!   programs (Algorithms 1–2), the guaranteed LP heuristic (§3.3), the
//!   closed form for linear costs (§4), the descending-bandwidth ordering
//!   policy (Theorem 3), root selection (§3.4), and a high-level
//!   [`scatter::planner::Planner`].
//! * [`gridsim`] (gs-gridsim) — a discrete-event simulator of the
//!   single-port grid model, with background-load traces, Gantt/figure
//!   rendering and CSV export.
//! * [`minimpi`] (gs-minimpi) — an MPI-like thread runtime with
//!   deterministic virtual time, on which the example applications run.
//! * [`seismic`] (gs-seismic) — the paper's motivating workload: seismic
//!   travel-time ray tracing, synthetic catalogs, cost calibration, and
//!   the parallel tomography application of §2.2.
//! * [`lp`] (gs-lp) / [`numeric`] (gs-numeric) — exact rational simplex
//!   and the arbitrary-precision arithmetic under it.
//! * [`transform`] (gs-transform) — the §1 "software tool": rewrites
//!   `MPI_Scatter` calls in C source into planned `MPI_Scatterv` calls.
//!
//! ## Quick start
//!
//! ```
//! use grid_scatter::prelude::*;
//!
//! // Describe the grid (β = link s/item, α = compute s/item — Table 1).
//! let platform = Platform::new(vec![
//!     Processor::linear("root",   0.0,    0.009288),
//!     Processor::linear("caseb",  1.0e-5, 0.004629),
//!     Processor::linear("merlin", 8.15e-5, 0.003976),
//! ], 0).unwrap();
//!
//! // Plan a balanced scatterv for 100k items.
//! let plan = Planner::new(platform)
//!     .strategy(Strategy::Heuristic)
//!     .order_policy(OrderPolicy::DescendingBandwidth)
//!     .plan(100_000)
//!     .unwrap();
//!
//! println!("counts = {:?}, predicted makespan = {:.1}s",
//!          plan.counts, plan.predicted_makespan);
//! ```
//!
//! ## Observability
//!
//! Every execution path — planner prediction, discrete-event simulation,
//! minimpi run — emits the same versioned trace format (schema in
//! `docs/observability.md`). Building a plan and printing its predicted
//! timeline as a trace summary:
//!
//! ```
//! use grid_scatter::prelude::*;
//!
//! let platform = Platform::new(vec![
//!     Processor::linear("root", 0.0,    0.01),
//!     Processor::linear("w1",   1e-4,   0.005),
//!     Processor::linear("w2",   2e-4,   0.004),
//! ], 0).unwrap();
//! let plan = Planner::new(platform.clone()).plan(10_000).unwrap();
//!
//! // The planner's Eq. (1) schedule as an observability trace (8-B items).
//! let trace = plan.predicted_trace(&platform, 8);
//! let summary = TraceSummary::from_trace(&trace);
//! println!("{}", summary.render());          // per-rank busy/idle/bytes table
//! assert_eq!(summary.makespan, plan.predicted_makespan);
//! assert_eq!(summary.total_bytes, 10_000 * 8);
//! ```
//!
//! See `examples/` for runnable programs and the `gs-bench` crate for the
//! experiment harness regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gs_gridsim as gridsim;
pub use gs_lp as lp;
pub use gs_minimpi as minimpi;
pub use gs_numeric as numeric;
pub use gs_scatter as scatter;
pub use gs_seismic as seismic;
pub use gs_transform as transform;

/// One-stop imports for typical use.
pub mod prelude {
    pub use gs_gridsim::{simulate_plan, simulate_scatter, LoadTrace, SimConfig};
    pub use gs_minimpi::{run_world, Comm, TimeModel, WorldConfig};
    pub use gs_scatter::prelude::*;
    pub use gs_seismic::{run_tomography, EarthModel, TomoConfig, TomoReport};
}
