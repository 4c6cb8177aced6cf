//! The transport-free request handler: one [`Engine`] owns the caches,
//! the coalescing table, and the admission budget, and turns decoded
//! [`Request`]s into [`Response`]s. The TCP [`server`](crate::server)
//! is a thin loop around [`Engine::handle`]; in-process tests and the
//! `serve_load` bench call it directly.
//!
//! ## Request lifecycle (plan/simulate)
//!
//! ```text
//! request ──► result cache ──hit──────────────────────────► "hit"
//!                │ miss
//!                ▼
//!            in-flight table ──someone is computing it──► wait ──► "coalesced"
//!                │ nobody is
//!                ▼
//!            admission (in-flight computes < max_inflight)?
//!                │ no ──► error {code: "overloaded"}        (shed)
//!                ▼ yes
//!            compute (Planner::new(platform).strategy(s).plan(n)) ──► "miss"
//! ```
//!
//! Every cached or coalesced answer is a clone of the leader's, so all
//! concurrent identical requests observe **bit-identical plans**. A miss
//! plans exactly as the library does in-process, with no state carried
//! over from earlier requests: between requests the engine keeps only
//! its result cache and its in-flight table.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use gs_scatter::metrics::Registry;
use gs_scatter::obs::json::trace_from_json;
use gs_scatter::obs::span;
use gs_scatter::planner::{Plan, Planner, Strategy};
use gs_scatter::platform_file::parse_platform;
use gs_scatter::prelude::Calibration;

use crate::protocol::{
    CacheStatus, ErrorCode, Outcome, PlanParams, PlanResult, Request, RequestBody, Response,
    SimResult,
};

/// Tuning knobs for an [`Engine`]. `Default` is sized for tests and
/// small deployments; `gs serve` exposes each as a flag.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Admission budget: maximum computations (`plan`/`simulate` leaders
    /// and `calibrate` fits) in flight before further ones are shed with
    /// `overloaded`.
    pub max_inflight: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig { max_inflight: 64 }
    }
}

/// Shards of the result cache, to keep unrelated requests off each
/// other's locks.
const RESULT_SHARDS: usize = 16;

/// A finished computation, shared between the leader, coalesced
/// waiters, and the result cache.
#[derive(Debug)]
pub(crate) enum Computed {
    Plan { makespan: f64, counts: Vec<u64>, displs: Vec<u64>, order: Vec<u64> },
    Sim { predicted: f64, simulated: f64 },
}

/// What a failed computation tells its requesters.
type Failure = (ErrorCode, String);

/// One in-flight computation; waiters block on the condvar until the
/// leader publishes the outcome.
#[derive(Debug)]
struct Flight {
    /// The request being computed: a waiter whose key hash collides
    /// with a different request must not take this answer.
    op: Op,
    params: PlanParams,
    done: Mutex<Option<Result<Arc<Computed>, Failure>>>,
    cv: Condvar,
}

impl Flight {
    /// Publishes the leader's result and wakes every waiter.
    fn resolve(&self, result: Result<Arc<Computed>, Failure>) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
        self.cv.notify_all();
    }
}

/// Resolves a leader's flight even when its computation panics: the
/// in-flight slot is freed and the waiters get an `internal` error
/// instead of blocking forever. A normal finish disarms it.
struct FlightGuard<'a> {
    engine: &'a Engine,
    key: u64,
    flight: &'a Flight,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.engine.inflight.lock().unwrap_or_else(|e| e.into_inner()).remove(&self.key);
            self.flight.resolve(Err((
                ErrorCode::Internal,
                "the computation of this request panicked".into(),
            )));
        }
    }
}

/// Releases an admitted `calibrate` fit's budget slot, also when the
/// fit panics.
struct CalibrationGuard<'a>(&'a Engine);

impl Drop for CalibrationGuard<'_> {
    fn drop(&mut self) {
        self.0.calibrating.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One cached answer, stored with the request it answers.
#[derive(Debug)]
struct Cached {
    op: Op,
    params: PlanParams,
    computed: Arc<Computed>,
}

/// One shard of the finished-answer cache: key hash → computed result.
type ResultShard = RwLock<HashMap<u64, Cached>>;

/// The daemon's brain: result cache, coalescing, admission,
/// instrumentation. Cheap to share behind an [`Arc`]; every method
/// takes `&self`.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    /// Finished answers keyed by `(op, platform, items, strategy)`
    /// hash, in [`RESULT_SHARDS`] shards.
    results: Box<[ResultShard]>,
    /// Key → in-flight computation, for request coalescing.
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    /// `calibrate` fits running now; they count against the admission
    /// budget with the in-flight table. Incremented only under the
    /// `inflight` lock, so two admissions never both take the last slot.
    calibrating: AtomicUsize,
    /// Planning computations this engine ran (its share of the global
    /// `serve_computes_total`).
    computes: AtomicU64,
    /// Hash of a request's `(op, platform, items, strategy)`; a field so
    /// tests can force collisions.
    key_of: fn(Op, &PlanParams) -> u64,
}

impl Engine {
    /// Builds an engine (and registers its `serve_*` metrics).
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            results: (0..RESULT_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            inflight: Mutex::new(HashMap::new()),
            calibrating: AtomicUsize::new(0),
            computes: AtomicU64::new(0),
            key_of: cache_key,
            cfg,
        }
    }

    /// Handles one decoded request, start to finish. Never panics on
    /// user input: every failure becomes an [`Outcome::Error`].
    ///
    /// When span tracing is enabled ([`span::set_enabled`]) the request
    /// runs under a root `request` span carrying the request id and
    /// operation, with one child per stage — `request.decode`,
    /// `request.cache`, `request.wait`, `request.shed`,
    /// `request.compute`, `request.encode` — so a Chrome trace shows
    /// exactly where each request spent its time.
    pub fn handle(&self, req: Request) -> Response {
        let reg = Registry::global();
        reg.counter("serve_requests_total", "requests handled by the serve engine").inc();
        let t0 = std::time::Instant::now();
        let Request { id, body } = req;
        let op_label = op_label(&body);
        let mut root = span::span("serve", "request");
        root.attr("request_id", &id);
        root.attr("op", op_label);
        let outcome = match body {
            RequestBody::Ping => Outcome::Pong,
            RequestBody::Metrics => {
                Outcome::Metrics { prometheus: reg.snapshot().to_prometheus() }
            }
            RequestBody::Shutdown => Outcome::ShuttingDown,
            RequestBody::Plan(p) => self.planned(Op::Plan, &p, root.id()),
            RequestBody::Simulate(p) => self.planned(Op::Simulate, &p, root.id()),
            RequestBody::Calibrate { traces } => self.calibrate(&traces, root.id()),
        };
        let shed = matches!(&outcome, Outcome::Error { code: ErrorCode::Overloaded, .. });
        if matches!(outcome, Outcome::Error { .. }) {
            reg.counter("serve_errors_total", "requests answered with an error").inc();
        }
        let encode_span = span::span_with_parent("serve", "request.encode", root.id());
        let response = Response { id, outcome };
        drop(encode_span);
        // Shed requests get their own latency label: their sub-millisecond
        // rejections would otherwise drag the op's percentiles down
        // exactly when the operator most needs honest numbers.
        let latency_op = if shed { "shed" } else { op_label };
        reg.histogram_with(
            "serve_latency_seconds",
            "end-to-end request handling latency by operation",
            &[("op", latency_op)],
        )
        .observe_with_exemplar(t0.elapsed().as_secs_f64(), &response.id);
        response
    }

    /// The `plan`/`simulate` path: cache → coalesce → admit → compute.
    /// `parent` is the root request span (stage spans attach to it
    /// directly, so every stage is a first-level child in the trace).
    fn planned(&self, op: Op, params: &PlanParams, parent: u64) -> Outcome {
        self.planned_with(op, params, parent, || self.compute(op, params, parent))
    }

    /// [`Engine::planned`] with the leader's computation as a parameter,
    /// so tests can inject a failing one.
    pub(crate) fn planned_with(
        &self,
        op: Op,
        params: &PlanParams,
        parent: u64,
        compute: impl FnOnce() -> Result<Arc<Computed>, String>,
    ) -> Outcome {
        let reg = Registry::global();
        let key = (self.key_of)(op, params);
        let shard = &self.results[(key % self.results.len() as u64) as usize];
        let mut cache_span = span::span_with_parent("serve", "request.cache", parent);
        // A hit must answer this very request: a different request whose
        // hash collides is a miss.
        if let Some(hit) = shard.read().expect("results lock").get(&key) {
            if hit.op == op && hit.params == *params {
                reg.counter("serve_cache_hits_total", "requests answered from the result cache")
                    .inc();
                cache_span.attr("outcome", "hit");
                return outcome_of(op, &hit.computed, CacheStatus::Hit);
            }
        }
        cache_span.attr("outcome", "miss");
        drop(cache_span);

        // Miss: coalesce onto an identical in-flight computation, or
        // become the leader (if admitted).
        let flight = {
            let mut inflight = self.inflight.lock().expect("inflight lock");
            let collides = inflight.get(&key).is_some_and(|f| f.op != op || f.params != *params);
            if collides {
                // Another request with the same hash is being computed:
                // compute this one on its own, neither coalesced nor
                // cached (its key slot belongs to the other request).
                drop(inflight);
                reg.counter("serve_computes_total", "planning computations actually run").inc();
                self.computes.fetch_add(1, Ordering::Relaxed);
                return match compute() {
                    Ok(computed) => outcome_of(op, &computed, CacheStatus::Miss),
                    Err(message) => plan_failed(message),
                };
            }
            if let Some(existing) = inflight.get(&key) {
                let flight = Arc::clone(existing);
                drop(inflight);
                reg.counter(
                    "serve_coalesced_total",
                    "requests folded into an identical in-flight computation",
                )
                .inc();
                let _wait_span = span::span_with_parent("serve", "request.wait", parent);
                let mut done = flight.done.lock().expect("flight lock");
                while done.is_none() {
                    done = flight.cv.wait(done).expect("flight lock");
                }
                return match done.as_ref().expect("just checked") {
                    Ok(computed) => outcome_of(op, computed, CacheStatus::Coalesced),
                    Err((code, message)) => Outcome::Error { code: *code, message: message.clone() },
                };
            }
            if let Some(shed) = self.shed(&inflight, parent) {
                return shed;
            }
            let flight = Arc::new(Flight {
                op,
                params: params.clone(),
                done: Mutex::new(None),
                cv: Condvar::new(),
            });
            inflight.insert(key, Arc::clone(&flight));
            flight
        };

        // Leader: compute outside every lock, publish, wake waiters. The
        // guard resolves the flight if `compute` panics.
        let mut guard = FlightGuard { engine: self, key, flight: &flight, armed: true };
        reg.counter("serve_computes_total", "planning computations actually run").inc();
        self.computes.fetch_add(1, Ordering::Relaxed);
        let result = compute();
        if let Ok(computed) = &result {
            let cached = Cached { op, params: params.clone(), computed: Arc::clone(computed) };
            shard.write().expect("results lock").insert(key, cached);
        }
        guard.armed = false;
        self.inflight.lock().expect("inflight lock").remove(&key);
        flight.resolve(result.clone().map_err(|m| (ErrorCode::PlanFailed, m)));
        match result {
            Ok(computed) => outcome_of(op, &computed, CacheStatus::Miss),
            Err(message) => plan_failed(message),
        }
    }

    /// Runs the actual library calls for a cache-missing `plan` or
    /// `simulate` request.
    fn compute(&self, op: Op, params: &PlanParams, parent: u64) -> Result<Arc<Computed>, String> {
        let decode_span = span::span_with_parent("serve", "request.decode", parent);
        let platform = parse_platform(&params.platform).map_err(|e| e.to_string())?;
        if params.items == 0 {
            return Err("items must be positive".into());
        }
        let items =
            usize::try_from(params.items).map_err(|_| "items exceeds this build's usize".to_string())?;
        let strategy: Strategy = params.strategy.parse()?;
        drop(decode_span);
        let mut compute_span = span::span_with_parent("serve", "request.compute", parent);
        compute_span.attr("items", items);
        let plan =
            Planner::new(platform.clone()).strategy(strategy).plan(items).map_err(|e| e.to_string())?;
        Ok(Arc::new(match op {
            Op::Plan => plan_fields(&plan),
            Op::Simulate => {
                let sim = gs_gridsim::sim::simulate_plan(&platform, &plan, &[]);
                Computed::Sim { predicted: plan.predicted_makespan, simulated: sim.makespan }
            }
        }))
    }

    /// Admission control: the `overloaded` answer when the computations
    /// in flight (the `inflight` table, whose lock the caller holds, plus
    /// running `calibrate` fits) already fill the budget.
    fn shed(&self, inflight: &HashMap<u64, Arc<Flight>>, parent: u64) -> Option<Outcome> {
        let busy = inflight.len() + self.calibrating.load(Ordering::Relaxed);
        if busy < self.cfg.max_inflight {
            return None;
        }
        Registry::global().counter("serve_shed_total", "requests shed by admission control").inc();
        let mut shed_span = span::span_with_parent("serve", "request.shed", parent);
        shed_span.attr("inflight", busy);
        shed_span.attr("limit", self.cfg.max_inflight);
        Some(Outcome::Error {
            code: ErrorCode::Overloaded,
            message: format!(
                "{busy} computations in flight (limit {}); retry later",
                self.cfg.max_inflight
            ),
        })
    }

    /// The `calibrate` path: parse traces, least-squares-fit a
    /// platform. Admitted against the same budget as planning, but not
    /// cached or coalesced — trace payloads rarely repeat.
    fn calibrate(&self, trace_texts: &[String], parent: u64) -> Outcome {
        if trace_texts.is_empty() {
            return Outcome::Error {
                code: ErrorCode::BadRequest,
                message: "calibrate needs at least one trace".into(),
            };
        }
        {
            let inflight = self.inflight.lock().expect("inflight lock");
            if let Some(shed) = self.shed(&inflight, parent) {
                return shed;
            }
            self.calibrating.fetch_add(1, Ordering::Relaxed);
        }
        let _admitted = CalibrationGuard(self);
        let mut traces = Vec::with_capacity(trace_texts.len());
        for (i, text) in trace_texts.iter().enumerate() {
            match trace_from_json(text) {
                Ok(t) => traces.push(t),
                Err(e) => return plan_failed(format!("trace {}: {e}", i + 1)),
            }
        }
        let cal = match Calibration::from_traces(&traces) {
            Ok(c) => c,
            Err(e) => return plan_failed(e.to_string()),
        };
        let platform = match cal.platform() {
            Ok(p) => p,
            Err(e) => return plan_failed(e.to_string()),
        };
        let mut text = cal.render_notes();
        text.push_str(&gs_scatter::platform_file::render_platform(&platform));
        Outcome::Calibrate { platform: text }
    }
}

/// Which cached answer shape a request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    Plan,
    Simulate,
}

/// The `op` label a request contributes to `serve_latency_seconds` (and
/// to its root span).
fn op_label(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::Ping => "ping",
        RequestBody::Metrics => "metrics",
        RequestBody::Shutdown => "shutdown",
        RequestBody::Plan(_) => "plan",
        RequestBody::Simulate(_) => "simulate",
        RequestBody::Calibrate { .. } => "calibrate",
    }
}

fn cache_key(op: Op, params: &PlanParams) -> u64 {
    let mut h = DefaultHasher::new();
    (op, &params.platform, params.items, &params.strategy).hash(&mut h);
    h.finish()
}

fn plan_fields(plan: &Plan) -> Computed {
    let to_u64 = |v: &[usize]| v.iter().map(|&x| x as u64).collect();
    Computed::Plan {
        makespan: plan.predicted_makespan,
        counts: to_u64(&plan.counts),
        displs: to_u64(&plan.displs),
        order: to_u64(&plan.order),
    }
}

fn outcome_of(op: Op, computed: &Computed, cache: CacheStatus) -> Outcome {
    match (op, computed) {
        (Op::Plan, Computed::Plan { makespan, counts, displs, order }) => {
            Outcome::Plan(PlanResult {
                makespan: *makespan,
                counts: counts.clone(),
                displs: displs.clone(),
                order: order.clone(),
                cache,
            })
        }
        (Op::Simulate, Computed::Sim { predicted, simulated }) => Outcome::Simulate(SimResult {
            predicted_makespan: *predicted,
            simulated_makespan: *simulated,
            cache,
        }),
        // Keys embed the op, so a mismatch is unreachable; answer it
        // defensively instead of panicking a serving thread.
        _ => plan_failed("internal cache shape mismatch".into()),
    }
}

fn plan_failed(message: String) -> Outcome {
    Outcome::Error { code: ErrorCode::PlanFailed, message }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLATFORM: &str = "proc root beta=0 alpha=0.009\n\
                            proc fast beta=1e-5 alpha=0.004\n\
                            proc slow beta=2e-5 alpha=0.016\n";

    fn plan_request(id: &str, items: u64, strategy: &str) -> Request {
        Request {
            id: id.into(),
            body: RequestBody::Plan(PlanParams {
                platform: PLATFORM.into(),
                items,
                strategy: strategy.into(),
            }),
        }
    }

    fn plan_result(resp: Response) -> PlanResult {
        match resp.outcome {
            Outcome::Plan(p) => p,
            other => panic!("expected a plan, got {other:?}"),
        }
    }

    #[test]
    fn plan_matches_direct_library_call() {
        let engine = Engine::new(EngineConfig::default());
        let wire = plan_result(engine.handle(plan_request("1", 5000, "exact")));
        let direct = Planner::new(parse_platform(PLATFORM).unwrap())
            .strategy(Strategy::Exact)
            .plan(5000)
            .unwrap();
        assert_eq!(wire.makespan.to_bits(), direct.predicted_makespan.to_bits());
        assert_eq!(wire.counts, direct.counts.iter().map(|&c| c as u64).collect::<Vec<_>>());
        assert_eq!(wire.displs, direct.displs.iter().map(|&d| d as u64).collect::<Vec<_>>());
        assert_eq!(wire.cache, CacheStatus::Miss);
    }

    #[test]
    fn repeat_requests_hit_the_result_cache() {
        let engine = Engine::new(EngineConfig::default());
        let first = plan_result(engine.handle(plan_request("1", 3000, "exact-dc")));
        let second = plan_result(engine.handle(plan_request("2", 3000, "exact-dc")));
        assert_eq!(first.cache, CacheStatus::Miss);
        assert_eq!(second.cache, CacheStatus::Hit);
        assert_eq!(first.counts, second.counts);
        assert_eq!(first.makespan.to_bits(), second.makespan.to_bits());
    }

    #[test]
    fn different_params_do_not_collide() {
        let engine = Engine::new(EngineConfig::default());
        let a = plan_result(engine.handle(plan_request("1", 3000, "exact")));
        let b = plan_result(engine.handle(plan_request("2", 3001, "exact")));
        assert_eq!(b.cache, CacheStatus::Miss);
        assert_eq!(a.counts.iter().sum::<u64>(), 3000);
        assert_eq!(b.counts.iter().sum::<u64>(), 3001);
    }

    #[test]
    fn simulate_and_plan_are_cached_separately() {
        let engine = Engine::new(EngineConfig::default());
        plan_result(engine.handle(plan_request("1", 2000, "exact")));
        let sim = engine.handle(Request {
            id: "2".into(),
            body: RequestBody::Simulate(PlanParams {
                platform: PLATFORM.into(),
                items: 2000,
                strategy: "exact".into(),
            }),
        });
        match sim.outcome {
            Outcome::Simulate(s) => {
                assert_eq!(s.cache, CacheStatus::Miss, "separate key space from plan");
                assert!(s.simulated_makespan > 0.0);
                assert!((s.simulated_makespan - s.predicted_makespan).abs() < 1e-9,
                    "ideal DES agrees with Eq. (1) prediction");
            }
            other => panic!("expected simulate outcome, got {other:?}"),
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let engine = Engine::new(EngineConfig::default());
        for (req, want_code) in [
            (plan_request("1", 0, "exact"), ErrorCode::PlanFailed),
            (plan_request("2", 100, "quantum"), ErrorCode::PlanFailed),
            (
                Request {
                    id: "3".into(),
                    body: RequestBody::Plan(PlanParams {
                        platform: "bogus".into(),
                        items: 10,
                        strategy: "exact".into(),
                    }),
                },
                ErrorCode::PlanFailed,
            ),
            (
                Request { id: "4".into(), body: RequestBody::Calibrate { traces: vec![] } },
                ErrorCode::BadRequest,
            ),
        ] {
            match engine.handle(req).outcome {
                Outcome::Error { code, .. } => assert_eq!(code, want_code),
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn ping_metrics_and_shutdown_respond() {
        let engine = Engine::new(EngineConfig::default());
        assert_eq!(
            engine.handle(Request { id: "1".into(), body: RequestBody::Ping }).outcome,
            Outcome::Pong
        );
        match engine.handle(Request { id: "2".into(), body: RequestBody::Metrics }).outcome {
            Outcome::Metrics { prometheus } => {
                assert!(prometheus.contains("serve_requests_total"), "{prometheus}");
            }
            other => panic!("expected metrics, got {other:?}"),
        }
        assert_eq!(
            engine.handle(Request { id: "3".into(), body: RequestBody::Shutdown }).outcome,
            Outcome::ShuttingDown
        );
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        // This engine's own count: the global `serve_computes_total` also
        // counts the computes of tests running in parallel.
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let results: Vec<PlanResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let engine = Arc::clone(&engine);
                    s.spawn(move || {
                        plan_result(engine.handle(plan_request(&format!("t{i}"), 60_000, "exact")))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let computes = engine.computes.load(Ordering::Relaxed);
        assert_eq!(computes, 1, "the herd computes exactly one plan");
        let leader = &results[0];
        for r in &results[1..] {
            assert_eq!(r.counts, leader.counts);
            assert_eq!(r.makespan.to_bits(), leader.makespan.to_bits());
        }
        assert_eq!(
            results.iter().filter(|r| r.cache == CacheStatus::Miss).count(),
            1,
            "exactly one leader"
        );
    }

    #[test]
    fn panicking_leader_frees_its_slot_and_answers_its_waiters() {
        const WAITERS: usize = 3;
        let engine = Engine::new(EngineConfig::default());
        let req = plan_request("p", 700, "exact");
        let RequestBody::Plan(params) = &req.body else { unreachable!() };
        let key = cache_key(Op::Plan, params);
        let outcomes: Vec<Outcome> = std::thread::scope(|s| {
            let leader = s.spawn(|| {
                engine.planned_with(Op::Plan, params, 0, || {
                    // Wait until every waiter has joined the flight (the
                    // map's and the leader's handles plus one each).
                    loop {
                        let joined = engine
                            .inflight
                            .lock()
                            .unwrap()
                            .get(&key)
                            .map_or(0, Arc::strong_count);
                        if joined >= 2 + WAITERS {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    panic!("injected compute failure");
                })
            });
            // Waiters start once the leader owns the in-flight slot.
            while engine.inflight.lock().unwrap().is_empty() {
                std::thread::yield_now();
            }
            let waiters: Vec<_> =
                (0..WAITERS).map(|_| s.spawn(|| engine.planned(Op::Plan, params, 0))).collect();
            assert!(leader.join().is_err(), "the leader's panic propagates to its own thread");
            waiters.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for outcome in outcomes {
            assert!(
                matches!(outcome, Outcome::Error { code: ErrorCode::Internal, .. }),
                "waiter got {outcome:?}"
            );
        }
        assert!(engine.inflight.lock().unwrap().is_empty(), "the slot was freed");
        // The key is usable again: the next request computes normally.
        let fresh = plan_result(engine.handle(plan_request("again", 700, "exact")));
        assert_eq!(fresh.cache, CacheStatus::Miss);
    }

    #[test]
    fn colliding_keys_never_answer_each_others_requests() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.key_of = |_, _| 42;
        let a = plan_result(engine.handle(plan_request("a", 1000, "exact")));
        let b = plan_result(engine.handle(plan_request("b", 2000, "exact")));
        assert_eq!(b.cache, CacheStatus::Miss, "a colliding entry is not a hit");
        assert_eq!(b.counts.iter().sum::<u64>(), 2000, "b got its own answer");
        // Each request, repeated, gets its own plan back; the slot holds
        // the last one stored.
        let b2 = plan_result(engine.handle(plan_request("b2", 2000, "exact")));
        assert_eq!(b2.cache, CacheStatus::Hit);
        assert_eq!(b2.counts, b.counts);
        let a2 = plan_result(engine.handle(plan_request("a2", 1000, "exact")));
        assert_eq!(a2.cache, CacheStatus::Miss);
        assert_eq!(a2.counts, a.counts);
        assert_eq!(a2.makespan.to_bits(), a.makespan.to_bits());
        assert_eq!(engine.computes.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn admission_control_sheds_excess_load() {
        // A budget of zero sheds every cache-missing request, which is
        // the deterministic way to exercise the overload path.
        let engine = Engine::new(EngineConfig { max_inflight: 0 });
        match engine.handle(plan_request("1", 1000, "exact")).outcome {
            Outcome::Error { code, message } => {
                assert_eq!(code, ErrorCode::Overloaded);
                assert!(message.contains("retry"), "{message}");
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        // Pings are never shed: admission only bounds computations.
        assert_eq!(
            engine.handle(Request { id: "2".into(), body: RequestBody::Ping }).outcome,
            Outcome::Pong
        );
    }

    #[test]
    fn calibrate_counts_against_the_admission_budget() {
        let calibrate = |id: &str| Request {
            id: id.into(),
            body: RequestBody::Calibrate { traces: vec!["{}".into()] },
        };
        let full = Engine::new(EngineConfig { max_inflight: 0 });
        match full.handle(calibrate("1")).outcome {
            Outcome::Error { code, message } => {
                assert_eq!(code, ErrorCode::Overloaded);
                assert!(message.contains("retry"), "{message}");
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        // An admitted fit gives its slot back when it ends, failed or not.
        let one = Engine::new(EngineConfig { max_inflight: 1 });
        match one.handle(calibrate("2")).outcome {
            Outcome::Error { code, .. } => assert_eq!(code, ErrorCode::PlanFailed),
            other => panic!("expected plan_failed, got {other:?}"),
        }
        assert_eq!(plan_result(one.handle(plan_request("3", 500, "exact"))).cache, CacheStatus::Miss);
    }

    #[test]
    fn table1_exact_dc_miss_is_the_banded_library_plan() {
        let text = gs_scatter::platform_file::render_platform(&gs_scatter::paper::table1_platform());
        let n = 200_000;
        let direct = Planner::new(parse_platform(&text).unwrap())
            .strategy(Strategy::ExactDc)
            .plan(n)
            .unwrap();
        span::set_enabled(true);
        span::take_local();
        let engine = Engine::new(EngineConfig::default());
        let wire = plan_result(engine.handle(Request {
            id: "t1".into(),
            body: RequestBody::Plan(PlanParams {
                platform: text,
                items: n as u64,
                strategy: "exact-dc".into(),
            }),
        }));
        let spans = span::take_local();
        let solve = spans.iter().find(|s| s.name == "dp.solve").expect("the miss ran the DP");
        assert!(solve.attrs.contains(&("pruned", "true".into())), "{:?}", solve.attrs);
        assert_eq!(wire.cache, CacheStatus::Miss);
        let to_u64 = |v: &[usize]| v.iter().map(|&x| x as u64).collect::<Vec<_>>();
        assert_eq!(wire.makespan.to_bits(), direct.predicted_makespan.to_bits());
        assert_eq!(wire.counts, to_u64(&direct.counts));
        assert_eq!(wire.displs, to_u64(&direct.displs));
        assert_eq!(wire.order, to_u64(&direct.order));
    }
}
