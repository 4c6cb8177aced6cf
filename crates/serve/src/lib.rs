//! # gs-serve — planning as a service
//!
//! The paper's planner answers one scatter-planning question per process
//! launch; this crate turns it into a long-running daemon. A `gs serve`
//! process listens on a TCP socket, speaks a line-oriented JSON protocol
//! (one request per line, one response per line — see `docs/serve.md`
//! for the normative spec), and answers `plan` / `simulate` /
//! `calibrate` requests by calling the same `gs-scatter` library code
//! the CLI uses, so a plan computed over the wire is **bit-identical**
//! to `gs plan` on the same inputs.
//!
//! What the daemon adds over one-shot runs:
//!
//! * **A shared result cache.** Completed plans are kept in a sharded
//!   map keyed by `(platform, items, strategy)`; repeat requests are
//!   answered without re-solving. A miss is a plain
//!   [`Planner`](gs_scatter::planner::Planner) call with no state shared
//!   across requests, so exact plans stay banded and cost what they cost
//!   in-process.
//! * **Request coalescing.** Identical in-flight requests are folded
//!   into one computation (single-flight): a thundering herd of `k`
//!   clients asking for the same plan costs one solve, and `k-1`
//!   responses report `"cache": "coalesced"`.
//! * **Admission control.** A bounded in-flight budget sheds excess
//!   planning and calibration work with an `overloaded` error response
//!   instead of queueing without bound; shed requests are cheap and the
//!   client knows to back off.
//! * **Native observability.** Every stage increments `serve_*` metrics
//!   in the process-global registry, and the same socket answers
//!   `GET /metrics` with Prometheus text exposition.
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`protocol`] | versioned request/response types and their hand-rolled JSON encoding |
//! | [`engine`] | the transport-free request handler: caching, coalescing, admission |
//! | [`server`] | the TCP listener: JSON-lines sessions plus `GET /metrics` |
//! | [`client`] | a small blocking client used by `gs client` and the benches |
//!
//! ## Example (in-process)
//!
//! ```
//! use gs_serve::engine::{Engine, EngineConfig};
//! use gs_serve::protocol::{PlanParams, Request, RequestBody, Outcome};
//!
//! let engine = Engine::new(EngineConfig::default());
//! let req = Request {
//!     id: "r1".into(),
//!     body: RequestBody::Plan(PlanParams {
//!         platform: "proc root beta=0 alpha=0.01\nproc w1 beta=1e-4 alpha=0.02\n".into(),
//!         items: 1000,
//!         strategy: "exact".into(),
//!     }),
//! };
//! let resp = engine.handle(req);
//! match resp.outcome {
//!     Outcome::Plan(result) => assert_eq!(result.counts.iter().sum::<u64>(), 1000),
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use engine::{Engine, EngineConfig};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, CacheStatus, ErrorCode,
    Outcome, PlanParams, PlanResult, ProtocolError, Request, RequestBody, Response, SimResult,
    PROTOCOL_VERSION,
};
pub use server::ServerHandle;
