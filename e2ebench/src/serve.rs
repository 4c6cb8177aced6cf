//! The serving part of the `paper` workload: an in-process `gs serve`
//! daemon on loopback, driven by one client connection in a closed loop
//! (each caller blocks on its plan before sending the next request).
//!
//! About 95% of requests hit a primed working set of 64 plan keys over
//! the Table-1 and affine platform texts; the rest are fresh keys on
//! seeded 8-processor platforms, solved with exact-dc. Every response
//! is checked bit for bit against an in-process `Planner` plan. Its
//! operation in the workload's cycle is a batch of requests.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use gs_scatter::obs::span::{self, span, SpanRecord};
use gs_scatter::planner::{Planner, Strategy};
use gs_scatter::platform_file::parse_platform;
use gs_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, CacheStatus, Outcome,
    PlanParams, Request, RequestBody, Response,
};
use gs_serve::{server, Client, Engine, EngineConfig, ServerHandle};

use crate::inputs;
use crate::report::{median, peak_rss_mb, quantile, repeat_for, timed, Counters, Report, Rng};
use crate::trace::{self, LAYER, OP};

/// Sizes of the serving part.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Items of the primed keys: `items_lo + k * items_step`.
    pub items_lo: u64,
    pub items_step: u64,
    /// Item range of a miss, `lo..hi`.
    pub miss_items: (u64, u64),
    /// Requests of the discarded warm-up.
    pub warmup: usize,
    /// Requests per measured batch, one operation of the workload's
    /// cycle (the loop stops between batches).
    pub batch: usize,
    /// Requests of each pass of the traced run (fixed, so its counts
    /// repeat exactly).
    pub traced: usize,
    /// Daemon set-ups per run (median reported).
    pub setups: usize,
}

pub fn cfg(smoke: bool) -> Cfg {
    Cfg {
        items_lo: if smoke { 200 } else { 1_000 },
        items_step: if smoke { 10 } else { 125 },
        miss_items: if smoke { (200, 500) } else { (1_000, 5_001) },
        warmup: if smoke { 50 } else { 2_000 },
        batch: if smoke { 100 } else { 1_000 },
        traced: if smoke { 200 } else { 3_000 },
        setups: if smoke { 1 } else { 3 },
    }
}

/// Share of requests that miss, and processors of a miss platform.
const MISS_RATE: f64 = 0.05;
const MISS_PROCS: usize = 8;
/// Primed keys, and how many of them are on Table 1.
const KEYS: usize = 64;
const TABLE1_KEYS: usize = 48;

/// The primed working set: 48 keys on Table 1 (exact-dc, Algorithm 2,
/// closed form) and 16 on the p = 32 affine platform (exact-dc,
/// Algorithm 2). The affine text is three times longer, so its hits
/// cost more; weighting the mix 3:1 keeps the median inside the
/// Table-1 mode instead of on the edge between two modes.
fn hit_keys(cfg: &Cfg) -> Vec<PlanParams> {
    let (table1, affine) = (inputs::TABLE1.to_string(), inputs::affine_platform(32));
    (0..KEYS)
        .map(|k| {
            let (platform, j, strategies) = if k < TABLE1_KEYS {
                (&table1, k, &["exact-dc", "exact", "closed-form"][..])
            } else {
                (&affine, k - TABLE1_KEYS, &["exact-dc", "exact"][..])
            };
            PlanParams {
                platform: platform.clone(),
                items: cfg.items_lo + j as u64 * cfg.items_step,
                strategy: strategies[j % strategies.len()].into(),
            }
        })
        .collect()
}

/// The seeded request stream: which requests hit, and which key.
struct Stream {
    rng: Rng,
    seed: u64,
    miss_items: (u64, u64),
    misses: usize,
}

impl Stream {
    fn new(seed: u64, cfg: &Cfg) -> Stream {
        Stream { rng: Rng::new(seed), seed, miss_items: cfg.miss_items, misses: 0 }
    }

    fn next(&mut self) -> Key {
        if self.rng.unit() < MISS_RATE {
            self.misses += 1;
            Key::Miss(self.misses - 1)
        } else {
            Key::Hit(self.rng.range(0, KEYS as u64) as usize)
        }
    }

    /// The parameters of miss number `m`: a seeded platform, tagged
    /// with its number so no two misses share a key. Regenerated on
    /// demand, so the benchmark holds no per-miss state.
    fn miss(&self, m: usize) -> PlanParams {
        let mut rng = Rng::new(self.seed.rotate_left(32) ^ m as u64);
        let mut text = format!("# miss {m}\n");
        text.push_str(&inputs::miss_platform(&mut rng, MISS_PROCS));
        let items = rng.range(self.miss_items.0, self.miss_items.1);
        PlanParams { platform: text, items, strategy: "exact-dc".into() }
    }

    fn params(&self, key: Key, keys: &[PlanParams]) -> PlanParams {
        match key {
            Key::Hit(k) => keys[k].clone(),
            Key::Miss(m) => self.miss(m),
        }
    }
}

/// Which key a request asks for: a primed key or miss number `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Hit(usize),
    Miss(usize),
}

fn plan_request(id: u64, params: PlanParams) -> Request {
    Request { id: id.to_string(), body: RequestBody::Plan(params) }
}

/// Fingerprint of a plan answer, so every response can be compared
/// with its reference after the timed loop without keeping it.
fn fingerprint(makespan: f64, counts: &[u64], displs: &[u64], order: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    (makespan.to_bits(), counts, displs, order).hash(&mut h);
    h.finish()
}

/// The cache status and fingerprint of a response, or why it is not a
/// plan.
fn answer(resp: &Response) -> Result<(CacheStatus, u64), String> {
    match &resp.outcome {
        Outcome::Plan(p) => Ok((p.cache, fingerprint(p.makespan, &p.counts, &p.displs, &p.order))),
        other => Err(format!("request {}: not a plan: {other:?}", resp.id)),
    }
}

/// Fingerprint of the in-process `Planner` plan for a key.
fn reference(params: &PlanParams) -> Result<u64, String> {
    let platform = parse_platform(&params.platform).map_err(|e| e.to_string())?;
    let strategy = match params.strategy.as_str() {
        "exact" => Strategy::Exact,
        "exact-dc" => Strategy::ExactDc,
        "closed-form" => Strategy::ClosedForm,
        other => return Err(format!("unexpected strategy {other}")),
    };
    let plan = Planner::new(platform).strategy(strategy).plan(params.items as usize);
    let plan = plan.map_err(|e| e.to_string())?;
    let u = |v: &[usize]| v.iter().map(|&x| x as u64).collect::<Vec<_>>();
    Ok(fingerprint(plan.predicted_makespan, &u(&plan.counts), &u(&plan.displs), &u(&plan.order)))
}

/// A daemon with one connected client.
struct Daemon {
    engine: Arc<Engine>,
    handle: ServerHandle,
    client: Client,
}

impl Daemon {
    /// Closes the connection, stops the accept loop, and waits until the
    /// connection thread has let go of the engine, so a daemon's memory
    /// is freed before the next one starts.
    fn stop(self) {
        drop(self.client);
        self.handle.shutdown();
        self.handle.join();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while Arc::strong_count(&self.engine) > 1 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

/// Starts a daemon, connects, and primes the 64 keys (each a miss).
fn start(keys: &[PlanParams], report: &mut Report) -> Daemon {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let handle = server::serve(Arc::clone(&engine), "127.0.0.1:0").expect("bind a loopback port");
    let mut client = Client::connect(handle.addr()).expect("connect to the daemon");
    for (k, key) in keys.iter().enumerate() {
        let resp = client.call(&plan_request(k as u64, key.clone())).map_err(|e| e.to_string());
        let ok = resp.and_then(|r| answer(&r)).map(|(status, _)| status == CacheStatus::Miss);
        report.op(ok == Ok(true), || format!("priming key {k}: {ok:?}"));
    }
    Daemon { engine, handle, client }
}

/// Fingerprints seen per key. Repeat answers are compared with the
/// first on the spot; each first answer is compared with the
/// in-process plan after the run.
#[derive(Default)]
struct Seen {
    first: HashMap<Key, u64>,
}

impl Seen {
    fn record(&mut self, key: Key, resp: Result<Response, String>, report: &mut Report) {
        let (status, fp) = match resp.and_then(|r| answer(&r)) {
            Ok(a) => a,
            Err(e) => return report.op(false, || format!("{key:?}: {e}")),
        };
        let want = if matches!(key, Key::Hit(_)) { CacheStatus::Hit } else { CacheStatus::Miss };
        if status != want {
            return report
                .op(false, || format!("{key:?}: cache status {status:?}, expected {want:?}"));
        }
        match self.first.get(&key) {
            Some(&first) => {
                report.op(fp == first, || format!("{key:?}: answer changed between hits"))
            }
            None => {
                self.first.insert(key, fp);
            }
        }
    }

    fn verify(&self, keys: &[PlanParams], stream: &Stream, report: &mut Report) {
        for (&key, &fp) in &self.first {
            let want = reference(&stream.params(key, keys));
            report.op(want == Ok(fp), || {
                format!("{key:?}: response differs from the in-process plan ({want:?})")
            });
        }
    }
}

/// Pins the process to one CPU for the rest of its life and returns the
/// primed keys. The client and the daemon hand every request back and
/// forth. On two CPUs each hand-off wakes the other CPU, and on a shared
/// virtual host that wake-up waits for the host scheduler: in
/// measurement it moved p99 by 2.5x with other tenants' load, and the
/// median by 10-30%. On one CPU a hand-off is a context switch, which is
/// what the request path costs. Serving runs last in its workload, so
/// the pin does not reach the planner's 2-thread solves.
fn prepare(cfg: &Cfg) -> Vec<PlanParams> {
    if !pin_to_current_cpu() {
        eprintln!("e2ebench: could not pin the serving part to one CPU");
    }
    hit_keys(cfg)
}

/// What the serving part measured untraced.
pub struct Served {
    /// Seconds before its first timed request.
    pub setup: f64,
    /// Peak RSS of the process at the end of its first batch.
    pub rss: Option<f64>,
    /// Seconds of one batch of requests, each at the median latency of
    /// its kind.
    pub cycle: f64,
}

/// Serves the seeded request stream for `seconds`, untraced.
pub fn end_to_end(cfg: &Cfg, seed: u64, seconds: f64, report: &mut Report) -> Served {
    let keys = &prepare(cfg)[..];
    // Set-up: start the daemon and prime its cache, several times; the
    // last daemon serves the run.
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..cfg.setups {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let (d, secs) = timed(|| start(keys, report));
        setups.push(secs);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");

    let mut stream = Stream::new(seed, cfg);
    let mut seen = Seen::default();
    // Latencies by kind of request: hits on Table-1 keys, hits on the
    // longer affine keys, misses.
    let mut lat: [Vec<f64>; 3] = Default::default();
    let mut batches = Vec::new();
    let mut rss = None;
    let mut id = KEYS as u64;
    let mut one = |stream: &mut Stream, seen: &mut Seen, report: &mut Report| {
        let key = stream.next();
        let req = plan_request(id, stream.params(key, keys));
        id += 1;
        let (resp, secs) = timed(|| daemon.client.call(&req));
        seen.record(key, resp.map_err(|e| e.to_string()), report);
        (key, secs)
    };
    let (_, warm_up) = timed(|| {
        for _ in 0..cfg.warmup {
            one(&mut stream, &mut seen, report);
        }
    });
    let start = Instant::now();
    repeat_for(seconds, 1, || {
        let batch = Instant::now();
        for _ in 0..cfg.batch {
            let (key, secs) = one(&mut stream, &mut seen, report);
            lat[kind(key)].push(secs);
        }
        batches.push(batch.elapsed().as_secs_f64());
        rss.get_or_insert_with(peak_rss_mb);
    });
    let wall = start.elapsed().as_secs_f64();
    daemon.stop();
    seen.verify(keys, &stream, report);

    // Set-up is everything before the first timed request: the daemon
    // starts (several, median) and the warm-up requests. A cycle is one
    // batch of requests, each at the median latency of its kind, in the
    // mix the run drew. Median latencies rather than the batches' wall
    // time: a batch sums every stall the host inflicts on any of its
    // requests, which swung the batch time by a third between runs.
    let total: usize = lat.iter().map(Vec::len).sum();
    let medians: Vec<f64> = lat.iter().map(|v| median(v)).collect();
    let cycle: f64 =
        lat.iter().zip(&medians).map(|(v, m)| v.len() as f64 * m).sum::<f64>() / total as f64;
    let all: Vec<f64> = lat.concat();
    let q = |v: &[f64]| {
        format!(
            "{} requests p10 {:.0} p50 {:.0} p90 {:.0} µs",
            v.len(),
            quantile(v, 0.1) * 1e6,
            median(v) * 1e6,
            quantile(v, 0.9) * 1e6
        )
    };
    eprintln!(
        "e2ebench: {total} requests in {wall:.3} s over one connection ({:.0}/s, p99 {:.0} µs, \
         median batch of {} {:.4} s); Table-1 hits: {}; affine hits: {}; misses: {}",
        total as f64 / wall,
        quantile(&all, 0.99) * 1e6,
        cfg.batch,
        median(&batches),
        q(&lat[0]),
        q(&lat[1]),
        q(&lat[2]),
    );
    Served { setup: median(&setups) + warm_up, rss, cycle: cycle * cfg.batch as f64 }
}

/// Index of a request's kind: a Table-1 hit, an affine hit, a miss.
fn kind(key: Key) -> usize {
    match key {
        Key::Hit(k) if k < TABLE1_KEYS => 0,
        Key::Hit(_) => 1,
        Key::Miss(_) => 2,
    }
}

/// Restricts this thread, and every thread it starts afterwards (the
/// daemon's accept and connection threads), to the CPU it runs on.
fn pin_to_current_cpu() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a
    // number (or -1 on failure).
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else { return false };
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else { return false };
    *word = 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; `mask` is a live buffer of
    // exactly the size passed, which the call only reads.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Server-side counters read around each socket call.
const SERVE: &[&str] = &[
    "serve_requests_total",
    "serve_cache_hits_total",
    "serve_computes_total",
    "serve_shed_total",
    "serve_errors_total",
];

/// The traced run's client: the daemon connection plus an in-process
/// engine primed the same way, and the daemon's counters summed over
/// the traced requests.
struct Replay {
    daemon: Daemon,
    local: Engine,
    counters: [u64; 5],
}

impl Replay {
    /// One request through every layer, as an operation span: the
    /// client's encode, the socket round trip (which includes the
    /// daemon's decode, handle and encode), the client's decode; then
    /// the same request replayed on the in-process engine, so the
    /// daemon-side layers are timed on their own and can be subtracted
    /// from the round trip.
    fn request(
        &mut self,
        id: u64,
        key: Key,
        params: PlanParams,
        seen: &mut Seen,
        report: &mut Report,
    ) {
        let _op = span(OP, "serve_request");
        let line = {
            let _s = span(LAYER, "protocol.encode_request");
            encode_request(&plan_request(id, params))
        };
        let c = Counters::start(SERVE);
        let reply = {
            let _s = span(LAYER, "transport.roundtrip");
            self.daemon.client.call_line(&line)
        };
        for (total, d) in self.counters.iter_mut().zip(c.delta()) {
            *total += d;
        }
        let resp = {
            let _s = span(LAYER, "protocol.decode_response");
            reply
                .map_err(|e| e.to_string())
                .and_then(|l| decode_response(&l).map_err(|e| e.to_string()))
        };
        seen.record(key, resp, report);

        let decoded = {
            let _s = span(LAYER, "protocol.decode_request");
            decode_request(&line)
        };
        let Ok(decoded) = decoded else {
            return report.op(false, || format!("request {id} does not decode"));
        };
        let resp = {
            let _s = span(
                LAYER,
                if matches!(key, Key::Hit(_)) { "engine.handle_hit" } else { "engine.handle_miss" },
            );
            self.local.handle(decoded)
        };
        let _s = span(LAYER, "protocol.encode_response");
        encode_response(&resp);
    }
}

/// Replays the seeded request pattern through every serve layer for
/// `seconds`, traced and untraced by turns, and reports the serve
/// layers' metrics.
pub fn traced(cfg: &Cfg, seed: u64, seconds: f64, report: &mut Report) -> trace::Quality {
    let keys = &prepare(cfg)[..];
    let local = Engine::new(EngineConfig::default());
    for (k, key) in keys.iter().enumerate() {
        let resp = local.handle(plan_request(k as u64, key.clone()));
        report.op(answer(&resp).is_ok(), || format!("priming the in-process engine, key {k}"));
    }
    let mut replay = Replay { daemon: start(keys, report), local, counters: [0; 5] };
    // Every pass replays the same hit/miss pattern; each draws fresh
    // misses from its own stream.
    let pattern: Vec<Key> = {
        let mut s = Stream::new(seed, cfg);
        (0..cfg.traced).map(|_| s.next()).collect()
    };
    let mut id = KEYS as u64;
    let mut passes = 0u64;
    let mut pass = |replay: &mut Replay, spans: &mut Vec<SpanRecord>, report: &mut Report| {
        passes += 1;
        let stream = Stream::new(seed ^ passes.rotate_right(8), cfg);
        let mut seen = Seen::default();
        let start = Instant::now();
        for (i, &key) in pattern.iter().enumerate() {
            replay.request(id, key, stream.params(key, keys), &mut seen, report);
            id += 1;
            if i % 500 == 499 && span::enabled() {
                if let Err(e) = trace::collect(spans) {
                    report.op(false, || e);
                }
            }
        }
        let wall = start.elapsed().as_secs_f64();
        seen.verify(keys, &stream, report);
        wall
    };
    pass(&mut replay, &mut Vec::new(), report); // warm-up
    replay.counters = [0; 5];
    // Untraced and traced passes alternate, so a slow spell of the host
    // does not land on one side of the overhead ratio. Each traced pass
    // is reduced as it ends; the last one is exported.
    let (mut untraced, mut traced_walls, mut instances, mut last) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counters: Option<[u64; 5]> = None;
    repeat_for(seconds, 2, || {
        let trace_this = untraced.len() > traced_walls.len();
        if trace_this {
            last.clear();
        }
        span::set_enabled(trace_this);
        let wall = pass(&mut replay, &mut last, report);
        span::set_enabled(false);
        // Every pass replays one hit/miss pattern: the daemon's counts
        // must repeat exactly.
        let these = std::mem::take(&mut replay.counters);
        let first = *counters.get_or_insert(these);
        for (name, (a, b)) in SERVE.iter().zip(first.iter().zip(&these)) {
            report.op(a == b, || format!("{name}: {b} in a later pass, {a} in the first one"));
        }
        if !trace_this {
            return untraced.push(wall);
        }
        traced_walls.push(wall);
        if let Err(e) = trace::collect(&mut last) {
            report.op(false, || e);
        }
        instances.extend(trace::reduce(&last));
    });
    replay.daemon.stop();
    let counters = counters.unwrap_or_default();

    match trace::export(&last, "paper-serve", seed) {
        Ok(path) => eprintln!("e2ebench: spans written to {path}"),
        Err(e) => report.op(false, || format!("span export: {e}")),
    }
    let hits: Vec<&trace::Instance> =
        instances.iter().filter(|i| i.layers.contains_key("engine.handle_hit")).collect();
    let on_hits =
        |name: &str| median(&hits.iter().filter_map(|i| i.layer(name)).collect::<Vec<_>>());
    // Transport: the socket round trip of a hit minus the daemon-side
    // work, timed on the in-process replay of the same request.
    let rtt: Vec<f64> = hits
        .iter()
        .map(|i| {
            let l = |name| i.layer(name).unwrap_or(f64::NAN);
            l("transport.roundtrip")
                - l("protocol.decode_request")
                - l("engine.handle_hit")
                - l("protocol.encode_response")
        })
        .collect();
    for name in [
        "protocol.encode_request",
        "protocol.decode_request",
        "protocol.encode_response",
        "protocol.decode_response",
        "engine.handle_hit",
    ] {
        report.metric(&format!("{name}_s"), on_hits(name), "s");
    }
    let misses = trace::layer_samples(&instances, None, "engine.handle_miss");
    report.metric("engine.handle_miss_s", median(&misses), "s");
    report.metric("transport.rtt_s", median(&rtt), "s");
    let [requests, hits, computes, shed, errors] = counters;
    report.op(requests == cfg.traced as u64, || {
        format!("the daemon counted {requests} requests of a {}-request pass", cfg.traced)
    });
    report.metric("engine.hits", hits as f64, "count");
    report.metric("engine.computes", computes as f64, "count");
    report.metric("engine.shed", shed as f64, "count");
    report.metric("engine.errors", errors as f64, "count");
    trace::Quality::new(&instances, &untraced, &traced_walls)
}
