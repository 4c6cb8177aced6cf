//! End-to-end test of the planning daemon over a real TCP socket:
//! starts `gs serve` (as a library, on an ephemeral loopback port),
//! fires concurrent identical requests from separate connections, and
//! asserts the docs/serve.md contract — exactly one compute per cache
//! key (singleflight), bit-identical plans versus a direct library
//! call, structured shed responses under admission pressure, a working
//! `/metrics` HTTP endpoint, and a clean shutdown over the wire.

use std::sync::Arc;

use gs_serve::client::scrape_metrics;
use gs_serve::engine::{Engine, EngineConfig};
use gs_serve::protocol::{
    CacheStatus, ErrorCode, Outcome, PlanParams, Request, RequestBody,
};
use gs_serve::server::serve;
use gs_serve::Client;

use grid_scatter::prelude::*;

const ITEMS: u64 = 50_000;

fn platform_text() -> String {
    grid_scatter::scatter::platform_file::render_platform(
        &grid_scatter::scatter::paper::table1_platform(),
    )
}

fn plan_request(id: &str, items: u64) -> Request {
    Request {
        id: id.into(),
        body: RequestBody::Plan(PlanParams {
            platform: platform_text(),
            items,
            strategy: "exact".into(),
        }),
    }
}

#[test]
fn herd_of_identical_requests_computes_once_and_matches_direct_planning() {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let addr = handle.addr().to_string();

    // The same plan, straight from the library — what `gs plan` prints.
    let platform =
        grid_scatter::scatter::platform_file::parse_platform(&platform_text()).unwrap();
    let direct = Planner::new(platform)
        .strategy(Strategy::Exact)
        .plan(ITEMS as usize)
        .expect("direct plan");

    let herd = 8;
    let workers: Vec<_> = (0..herd)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let resp = client.call(&plan_request(&format!("herd-{i}"), ITEMS)).unwrap();
                match resp.outcome {
                    Outcome::Plan(p) => p,
                    other => panic!("herd request answered {other:?}"),
                }
            })
        })
        .collect();
    let plans: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Exactly one member of the herd was the leader (cache miss); the
    // rest were served from the flight or the result cache. Nobody
    // recomputed.
    let misses = plans.iter().filter(|p| p.cache == CacheStatus::Miss).count();
    assert_eq!(misses, 1, "singleflight must admit exactly one leader");
    for p in &plans {
        assert!(
            matches!(p.cache, CacheStatus::Miss | CacheStatus::Hit | CacheStatus::Coalesced),
            "unexpected cache status {:?}",
            p.cache
        );
    }

    // Every response is bit-identical to the direct library call: same
    // counts, displacements, order, and the exact same makespan float.
    let as_u64 = |v: &[usize]| v.iter().map(|&x| x as u64).collect::<Vec<_>>();
    for p in &plans {
        assert_eq!(p.counts, as_u64(&direct.counts));
        assert_eq!(p.displs, as_u64(&direct.displs));
        assert_eq!(p.order, as_u64(&direct.order));
        assert_eq!(p.makespan.to_bits(), direct.predicted_makespan.to_bits());
    }

    // A follow-up request on a fresh connection is a plain cache hit.
    let mut client = Client::connect(&addr).unwrap();
    match client.call(&plan_request("after", ITEMS)).unwrap().outcome {
        Outcome::Plan(p) => assert_eq!(p.cache, CacheStatus::Hit),
        other => panic!("follow-up answered {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn overload_is_shed_with_a_structured_response() {
    // max_inflight = 0 makes every planning request an admission
    // failure, deterministically.
    let engine = Arc::new(Engine::new(EngineConfig { max_inflight: 0, ..Default::default() }));
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).unwrap();

    let resp = client.call(&plan_request("shed", ITEMS)).unwrap();
    match resp.outcome {
        Outcome::Error { code, message } => {
            assert_eq!(code, ErrorCode::Overloaded);
            assert!(message.contains("retry"), "{message}");
        }
        other => panic!("expected a shed response, got {other:?}"),
    }
    // Non-planning requests are never shed.
    let pong = client.call(&Request { id: "p".into(), body: RequestBody::Ping }).unwrap();
    assert!(matches!(pong.outcome, Outcome::Pong));

    handle.shutdown();
    handle.join();
}

#[test]
fn metrics_are_exposed_over_the_wire_and_over_http() {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    client.call(&plan_request("warmup", ITEMS + 7)).unwrap();

    // In-band metrics request.
    let resp = client.call(&Request { id: "m".into(), body: RequestBody::Metrics }).unwrap();
    let Outcome::Metrics { prometheus } = resp.outcome else {
        panic!("metrics request failed: {resp:?}");
    };
    assert!(prometheus.contains("serve_requests_total"), "{prometheus}");

    // Same content via a plain HTTP GET on the same port.
    let scraped = scrape_metrics(addr).expect("scrape /metrics");
    assert!(scraped.contains("# TYPE serve_requests_total counter"), "{scraped}");
    assert!(scraped.contains("serve_connections_total"), "{scraped}");

    handle.shutdown();
    handle.join();
}

/// The observability contract of `gs serve --span-log`
/// (docs/observability.md): every answered request leaves a Chrome
/// trace-event file `req-<id>.json` whose root `request` span carries
/// the request id and at least four stage children (decode, cache,
/// compute, encode for a cache-miss plan).
#[test]
fn span_log_writes_per_request_chrome_trace_with_stage_children() {
    use gs_scatter::obs::{json, span};
    use gs_serve::server::serve_with_span_log;

    let dir = std::env::temp_dir().join(format!("gs-span-log-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    span::set_enabled(true);
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let handle = serve_with_span_log(engine, "127.0.0.1:0", Some(dir.clone())).expect("bind");

    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client.call(&plan_request("span-e2e", ITEMS + 13)).unwrap();
    assert!(matches!(resp.outcome, Outcome::Plan(_)), "{resp:?}");
    handle.shutdown();
    handle.join();

    // The session thread writes the file after flushing the response:
    // poll briefly instead of racing it.
    let path = dir.join("req-span-e2e.json");
    let mut text = String::new();
    for _ in 0..200 {
        if let Ok(t) = std::fs::read_to_string(&path) {
            text = t;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(!text.is_empty(), "span log {path:?} was never written");

    let doc = json::parse(&text).expect("span log is valid JSON");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents");
    let arg = |e: &json::Json, key: &str| {
        e.get("args").and_then(|a| a.get(key)).and_then(|v| v.as_str()).map(String::from)
    };
    let root = events
        .iter()
        .find(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("request")
                && arg(e, "request_id").as_deref() == Some("span-e2e")
        })
        .expect("root `request` span tagged with the request id");
    let root_span_id = arg(root, "id").expect("root span id");
    // Stage children: spans parented directly to the root.
    let stages: std::collections::BTreeSet<String> = events
        .iter()
        .filter(|e| arg(e, "parent").as_deref() == Some(root_span_id.as_str()))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .map(String::from)
        .collect();
    assert!(
        stages.len() >= 4,
        "a cache-miss plan must record >= 4 stage spans under the root, got {stages:?}"
    );
    for want in ["request.decode", "request.cache", "request.compute", "request.encode"] {
        assert!(stages.contains(want), "missing stage {want}: {stages:?}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A line nested far past the parser's 64-level limit is a
/// `bad_request`, not a stack overflow that aborts the daemon: the same
/// connection still answers `ping` afterwards.
#[test]
fn nesting_bomb_is_a_bad_request_and_the_daemon_survives() {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).unwrap();

    for bomb in ["[".repeat(20_000), r#"{"a":"#.repeat(20_000)] {
        let resp = client.call_line(&bomb).expect("daemon answers the bomb line");
        assert!(resp.contains("\"bad_request\""), "{resp}");
    }
    let pong = client.call(&Request { id: "p".into(), body: RequestBody::Ping }).unwrap();
    assert!(matches!(pong.outcome, Outcome::Pong));

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_request_stops_the_daemon() {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    let resp = client.call(&Request { id: "bye".into(), body: RequestBody::Shutdown }).unwrap();
    assert!(matches!(resp.outcome, Outcome::ShuttingDown), "{resp:?}");
    // join() returning proves the accept loop exited.
    handle.join();
}
