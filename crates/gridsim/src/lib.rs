//! # gs-gridsim — discrete-event grid simulator
//!
//! The paper evaluates its load-balanced scatters on a real two-site grid
//! (§5.1, Table 1). That testbed is long gone; this crate replaces it with
//! a discrete-event simulator of the same model:
//!
//! * a **single-port root**: one outgoing transfer at a time, serving
//!   processors in scatter order (the behaviour §2.3 observed in
//!   MPICH-G2, modelled after [Beaumont et al. 2002]);
//! * heterogeneous links and CPUs given by the same cost functions the
//!   planner uses ([`gs_scatter::cost::CostFn`]);
//! * optional **background-load traces** per processor — piecewise-constant
//!   slowdown factors that let experiments reproduce artifacts like the
//!   "peak load on sekhmet" the paper mentions for Fig. 4, and that support
//!   the §3 remark about re-querying a monitoring daemon (NWS-style)
//!   before each scatter.
//!
//! Without perturbations the simulated schedule coincides *exactly* with
//! the analytic Eq. (1)/(2) timeline — a property the test-suite enforces —
//! so the simulator earns its keep on perturbed scenarios (background
//! load, [`fault`]s) and as the renderer of the paper's figures
//! ([`gantt`], [`chart`]). A run's schedule is its
//! [`gs_scatter::distribution::Timeline`]: `Trace::from_timeline` turns it
//! into an observability trace, and the summary numbers of a run
//! (makespan, earliest finish, §5.2 imbalance, idle area) are `Timeline`
//! methods.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bigsim;
pub mod chart;
pub mod engine;
pub mod export;
pub mod fault;
pub mod gantt;
pub mod installments;
pub mod load;
pub mod masterworker;
pub mod multiport;
pub mod sim;

pub use bigsim::{
    proportional_counts, simulate_star, simulate_synthetic_star, star_durations, synthetic_star,
    BigScatterSim,
};
pub use engine::{Engine, SimEvent, SimEventKind};
pub use fault::{simulate_plan_ft, simulate_scatter_ft, FtScatterSim};
pub use installments::{simulate_installments, split_installments, InstallmentRun};
pub use load::LoadTrace;
pub use masterworker::{simulate_master_worker, MasterWorkerConfig, MasterWorkerRun};
pub use multiport::{simulate_multiport, MultiportConfig};
pub use sim::{simulate_plan, simulate_scatter, simulate_scatter_on, ScatterSim, SimConfig};

/// Re-export of the paper's Table-1 platform for convenience.
pub use gs_scatter::paper;
