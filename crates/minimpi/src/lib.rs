//! # gs-minimpi — an MPI-like message-passing runtime on threads
//!
//! The paper's application runs on MPICH-G2 over a two-site grid. To make
//! this reproduction executable on a single machine — with the *same
//! communication structure* — this crate provides a small message-passing
//! runtime:
//!
//! * **ranks run on OS threads** exchanging real bytes over `std`
//!   channels, so programs written against it actually move data and
//!   compute results; [`run_world`] gives every rank its own worker,
//!   and worlds wider than the machine can instead multiplex thousands
//!   of logical ranks onto a bounded worker pool ([`run_world_pooled`])
//!   with bit-identical results for the root-centric patterns
//!   documented in `docs/simulation.md`;
//! * collectives (`scatter`, `scatterv`, `gather`, `gatherv`, `bcast`,
//!   `barrier`, `reduce`, `allreduce`) are implemented over point-to-point
//!   sends with the **root serializing its transfers in rank order** — the
//!   single-port behaviour §2.3 observed on the real grid (MPICH's scatter
//!   order follows processor ranks, footnote 1 of the paper);
//! * an optional **virtual-time model** replays the grid's heterogeneity
//!   deterministically: every rank carries a virtual clock; a transfer of
//!   `b` bytes to rank `i` advances the sender's clock by `link[i](b)` and
//!   the receiver synchronizes to the message's completion timestamp, so a
//!   program's maximum final clock equals the makespan the analytic model
//!   predicts. Compute phases advance clocks explicitly
//!   ([`Comm::advance`] / [`Comm::model_compute`]).
//!
//! This is the substitution documented in DESIGN.md for the MPI testbed:
//! the scheduling-relevant semantics (order, single port, heterogeneity)
//! are preserved; TCP is not.
//!
//! ## Example
//!
//! ```
//! use gs_minimpi::{run_world, WorldConfig};
//!
//! let sums = run_world(4, WorldConfig::default(), |comm| {
//!     // Root scatters uneven blocks; everyone sums its block.
//!     let data: Vec<u64> = (0..100).collect();
//!     let mine = comm.scatterv(0, Some(&data), &[40, 30, 20, 10]);
//!     let partial: u64 = mine.iter().sum();
//!     comm.reduce(0, partial, |a, b| a + b)
//! });
//! assert_eq!(sums[0], Some((0..100u64).sum()));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod collective_ext;
mod comm;
mod datum;
mod ft;
mod message;
mod nonblocking;
mod time;
mod trace;
mod world;

pub use comm::Comm;
pub use datum::Datum;
pub use ft::FtConfig;
pub use message::Tag;
pub use nonblocking::RecvRequest;
pub use time::TimeModel;
pub use trace::{executed_trace, CommOp, CommRecord};
pub use world::{run_world, run_world_pooled, WorldConfig};
