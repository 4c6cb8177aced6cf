//! The wire protocol: versioned request/response types and their
//! hand-rolled JSON codec (no serde — same policy as the obs schema).
//!
//! One request per line, one response per line, UTF-8 JSON objects.
//! The normative grammar lives in `docs/serve.md`; the codec here is the
//! reference implementation. Forward compatibility is by construction:
//! decoders look up the fields they know and **ignore every other
//! member**, so a v1 server interoperates with clients that add fields,
//! and vice versa. Structural changes bump `"v"`; a request whose `"v"`
//! is newer than [`PROTOCOL_VERSION`] is answered with an
//! `unsupported_version` error rather than misread.

use gs_scatter::obs::json::{self, push_escaped, push_f64, Json};

/// The protocol version this build speaks. Encoded as `"v"` in every
/// request and response.
pub const PROTOCOL_VERSION: u64 = 1;

/// A decoded request: client-chosen correlation id plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the response, so clients can pipeline.
    pub id: String,
    /// The operation to perform.
    pub body: RequestBody,
}

/// The operation a [`Request`] asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness probe; answered with [`Outcome::Pong`].
    Ping,
    /// Compute a scatter plan.
    Plan(PlanParams),
    /// Compute a plan, then run the discrete-event simulator on it.
    Simulate(PlanParams),
    /// Fit affine cost parameters from executed obs-JSON traces and
    /// return the calibrated platform file.
    Calibrate {
        /// One obs-JSON trace document per element.
        traces: Vec<String>,
    },
    /// Snapshot the process-global metrics registry (Prometheus text).
    Metrics,
    /// Ask the daemon to stop accepting connections and exit.
    Shutdown,
}

/// The planning inputs shared by `plan` and `simulate` requests — the
/// same triple that keys the daemon's result cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanParams {
    /// Platform-file text (the `gs` format, parsed by
    /// [`gs_scatter::platform_file`]).
    pub platform: String,
    /// Number of items to scatter (must be positive).
    pub items: u64,
    /// Strategy name: `uniform`, `exact`, `exact-basic`, `exact-dc`,
    /// `heuristic`, or `closed-form`.
    pub strategy: String,
}

/// A decoded response: the request's id plus what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id of the request this answers.
    pub id: String,
    /// The result (or error).
    pub outcome: Outcome,
}

/// What a [`Response`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Answer to [`RequestBody::Ping`].
    Pong,
    /// A computed plan.
    Plan(PlanResult),
    /// A plan plus its simulated makespan.
    Simulate(SimResult),
    /// A calibrated platform.
    Calibrate {
        /// Platform-file text, pipeable straight back into a plan
        /// request.
        platform: String,
    },
    /// A metrics snapshot.
    Metrics {
        /// Prometheus text exposition of the registry.
        prometheus: String,
    },
    /// Acknowledgement of [`RequestBody::Shutdown`]; the daemon exits
    /// after writing it.
    ShuttingDown,
    /// The request failed; nothing was computed.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A scatter plan as carried on the wire. Numbers round-trip exactly
/// (shortest-representation floats, integers below 2⁵³), so a plan
/// received over the socket is bit-identical to the library's.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanResult {
    /// Predicted makespan (Eq. 2), seconds.
    pub makespan: f64,
    /// Items per processor, by platform index.
    pub counts: Vec<u64>,
    /// Root-buffer offsets, by platform index.
    pub displs: Vec<u64>,
    /// Scatter order (processor indices, root last).
    pub order: Vec<u64>,
    /// How the daemon produced this answer.
    pub cache: CacheStatus,
}

/// A simulate answer: prediction and discrete-event simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Predicted makespan (Eq. 2), seconds.
    pub predicted_makespan: f64,
    /// Makespan measured by the discrete-event simulator.
    pub simulated_makespan: f64,
    /// How the daemon produced the underlying plan.
    pub cache: CacheStatus,
}

/// Where a planning answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Computed fresh by this request.
    Miss,
    /// Served from the daemon's result cache.
    Hit,
    /// Folded into another request's in-flight computation.
    Coalesced,
}

impl CacheStatus {
    fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
            CacheStatus::Coalesced => "coalesced",
        }
    }

    fn from_str(s: &str) -> Option<CacheStatus> {
        Some(match s {
            "miss" => CacheStatus::Miss,
            "hit" => CacheStatus::Hit,
            "coalesced" => CacheStatus::Coalesced,
            _ => return None,
        })
    }
}

/// Machine-readable failure classes. The set may grow in later protocol
/// versions; clients must treat unknown codes like [`ErrorCode::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not a well-formed request (bad JSON, missing
    /// `id`/`op`, unknown `op`, malformed parameters).
    BadRequest,
    /// The request's `"v"` is newer than this daemon speaks.
    UnsupportedVersion,
    /// Planning (or trace parsing, for calibrate) failed; the message
    /// carries the library error.
    PlanFailed,
    /// Admission control shed this request under load; retry later.
    Overloaded,
    /// The daemon failed while computing the answer (a bug, not the
    /// request's fault); the daemon keeps serving.
    Internal,
    /// An error code this client build does not know (forward compat).
    Other,
}

impl ErrorCode {
    fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::PlanFailed => "plan_failed",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Internal => "internal",
            ErrorCode::Other => "other",
        }
    }

    fn from_str(s: &str) -> ErrorCode {
        match s {
            "bad_request" => ErrorCode::BadRequest,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            "plan_failed" => ErrorCode::PlanFailed,
            "overloaded" => ErrorCode::Overloaded,
            "internal" => ErrorCode::Internal,
            _ => ErrorCode::Other,
        }
    }
}

/// A decode failure: what went wrong, plus the request id when one could
/// still be extracted (so the server can address its error response).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// Failure class to answer with.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// The offending line's `id`, when recoverable.
    pub id: Option<String>,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ProtocolError {}

// ---- encoding -------------------------------------------------------------

fn push_str_arr(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, s) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_escaped(out, s);
    }
    out.push(']');
}

fn push_u64_arr(out: &mut String, items: &[u64]) {
    out.push('[');
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Encodes a request as one JSON line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    let mut out = format!("{{\"v\": {PROTOCOL_VERSION}, \"id\": ");
    push_escaped(&mut out, &req.id);
    out.push_str(", \"op\": ");
    match &req.body {
        RequestBody::Ping => out.push_str("\"ping\""),
        RequestBody::Plan(p) | RequestBody::Simulate(p) => {
            let op = if matches!(req.body, RequestBody::Plan(_)) { "plan" } else { "simulate" };
            out.push_str(&format!("\"{op}\", \"platform\": "));
            push_escaped(&mut out, &p.platform);
            out.push_str(&format!(", \"items\": {}, \"strategy\": ", p.items));
            push_escaped(&mut out, &p.strategy);
        }
        RequestBody::Calibrate { traces } => {
            out.push_str("\"calibrate\", \"traces\": ");
            push_str_arr(&mut out, traces);
        }
        RequestBody::Metrics => out.push_str("\"metrics\""),
        RequestBody::Shutdown => out.push_str("\"shutdown\""),
    }
    out.push('}');
    out
}

/// Encodes a response as one JSON line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    let mut out = format!("{{\"v\": {PROTOCOL_VERSION}, \"id\": ");
    push_escaped(&mut out, &resp.id);
    match &resp.outcome {
        Outcome::Pong => out.push_str(", \"ok\": true, \"op\": \"pong\""),
        Outcome::Plan(p) => {
            out.push_str(", \"ok\": true, \"op\": \"plan\", \"makespan\": ");
            push_f64(&mut out, p.makespan);
            out.push_str(", \"counts\": ");
            push_u64_arr(&mut out, &p.counts);
            out.push_str(", \"displs\": ");
            push_u64_arr(&mut out, &p.displs);
            out.push_str(", \"order\": ");
            push_u64_arr(&mut out, &p.order);
            out.push_str(&format!(", \"cache\": \"{}\"", p.cache.as_str()));
        }
        Outcome::Simulate(s) => {
            out.push_str(", \"ok\": true, \"op\": \"simulate\", \"predicted_makespan\": ");
            push_f64(&mut out, s.predicted_makespan);
            out.push_str(", \"simulated_makespan\": ");
            push_f64(&mut out, s.simulated_makespan);
            out.push_str(&format!(", \"cache\": \"{}\"", s.cache.as_str()));
        }
        Outcome::Calibrate { platform } => {
            out.push_str(", \"ok\": true, \"op\": \"calibrate\", \"platform\": ");
            push_escaped(&mut out, platform);
        }
        Outcome::Metrics { prometheus } => {
            out.push_str(", \"ok\": true, \"op\": \"metrics\", \"prometheus\": ");
            push_escaped(&mut out, prometheus);
        }
        Outcome::ShuttingDown => out.push_str(", \"ok\": true, \"op\": \"shutting_down\""),
        Outcome::Error { code, message } => {
            out.push_str(&format!(
                ", \"ok\": false, \"error\": {{\"code\": \"{}\", \"message\": ",
                code.as_str()
            ));
            push_escaped(&mut out, message);
            out.push('}');
        }
    }
    out.push('}');
    out
}

// ---- decoding -------------------------------------------------------------

fn bad(message: impl Into<String>, id: Option<String>) -> ProtocolError {
    ProtocolError { code: ErrorCode::BadRequest, message: message.into(), id }
}

/// Parses the line as JSON and checks the envelope (`v`, `id`) shared by
/// requests and responses. Returns the parsed document and the id.
fn envelope(line: &str) -> Result<(Json, String), ProtocolError> {
    let doc = json::parse(line).map_err(|e| bad(format!("malformed JSON: {e}"), None))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(bad("request must be a JSON object", None));
    }
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad("missing string field `id`", None))?;
    let v = doc
        .get("v")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("missing integer field `v`", Some(id.clone())))?;
    if v > PROTOCOL_VERSION {
        return Err(ProtocolError {
            code: ErrorCode::UnsupportedVersion,
            message: format!("protocol version {v} not supported (this daemon speaks {PROTOCOL_VERSION})"),
            id: Some(id),
        });
    }
    Ok((doc, id))
}

fn plan_params(doc: &Json, id: &str) -> Result<PlanParams, ProtocolError> {
    let some_id = || Some(id.to_string());
    let platform = doc
        .get("platform")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field `platform`", some_id()))?
        .to_string();
    let items = doc
        .get("items")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("missing integer field `items`", some_id()))?;
    let strategy = doc
        .get("strategy")
        .and_then(Json::as_str)
        .unwrap_or("heuristic")
        .to_string();
    Ok(PlanParams { platform, items, strategy })
}

/// Decodes one request line. Unknown object members are ignored
/// (forward compatibility); unknown `op` values are an error.
pub fn decode_request(line: &str) -> Result<Request, ProtocolError> {
    let (doc, id) = envelope(line)?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field `op`", Some(id.clone())))?;
    let body = match op {
        "ping" => RequestBody::Ping,
        "plan" => RequestBody::Plan(plan_params(&doc, &id)?),
        "simulate" => RequestBody::Simulate(plan_params(&doc, &id)?),
        "calibrate" => {
            let arr = doc
                .get("traces")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("missing array field `traces`", Some(id.clone())))?;
            let mut traces = Vec::with_capacity(arr.len());
            for item in arr {
                traces.push(
                    item.as_str()
                        .ok_or_else(|| bad("`traces` items must be strings", Some(id.clone())))?
                        .to_string(),
                );
            }
            RequestBody::Calibrate { traces }
        }
        "metrics" => RequestBody::Metrics,
        "shutdown" => RequestBody::Shutdown,
        other => return Err(bad(format!("unknown op `{other}`"), Some(id))),
    };
    Ok(Request { id, body })
}

/// Decodes one response line. Unknown members are ignored; unknown
/// error codes map to [`ErrorCode::Other`] rather than failing, so old
/// clients survive new failure classes.
pub fn decode_response(line: &str) -> Result<Response, ProtocolError> {
    let (doc, id) = envelope(line)?;
    let some_id = || Some(id.clone());
    let ok = doc
        .get("ok")
        .and_then(|j| match j {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
        .ok_or_else(|| bad("missing boolean field `ok`", some_id()))?;
    if !ok {
        let err = doc.get("error").ok_or_else(|| bad("missing `error` object", some_id()))?;
        let code = err
            .get("code")
            .and_then(Json::as_str)
            .map(ErrorCode::from_str)
            .ok_or_else(|| bad("missing string field `error.code`", some_id()))?;
        let message = err
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        return Ok(Response { id, outcome: Outcome::Error { code, message } });
    }
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field `op`", some_id()))?;
    let cache_of = |doc: &Json| -> Result<CacheStatus, ProtocolError> {
        doc.get("cache")
            .and_then(Json::as_str)
            .and_then(CacheStatus::from_str)
            .ok_or_else(|| bad("missing/unknown `cache` status", some_id()))
    };
    let f64_of = |doc: &Json, key: &str| -> Result<f64, ProtocolError> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(format!("missing number field `{key}`"), some_id()))
    };
    let u64s_of = |doc: &Json, key: &str| -> Result<Vec<u64>, ProtocolError> {
        let arr = doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| bad(format!("missing array field `{key}`"), some_id()))?;
        arr.iter()
            .map(|j| {
                j.as_u64()
                    .ok_or_else(|| bad(format!("`{key}` items must be integers"), some_id()))
            })
            .collect()
    };
    let outcome = match op {
        "pong" => Outcome::Pong,
        "plan" => Outcome::Plan(PlanResult {
            makespan: f64_of(&doc, "makespan")?,
            counts: u64s_of(&doc, "counts")?,
            displs: u64s_of(&doc, "displs")?,
            order: u64s_of(&doc, "order")?,
            cache: cache_of(&doc)?,
        }),
        "simulate" => Outcome::Simulate(SimResult {
            predicted_makespan: f64_of(&doc, "predicted_makespan")?,
            simulated_makespan: f64_of(&doc, "simulated_makespan")?,
            cache: cache_of(&doc)?,
        }),
        "calibrate" => Outcome::Calibrate {
            platform: doc
                .get("platform")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing string field `platform`", some_id()))?
                .to_string(),
        },
        "metrics" => Outcome::Metrics {
            prometheus: doc
                .get("prometheus")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("missing string field `prometheus`", some_id()))?
                .to_string(),
        },
        "shutting_down" => Outcome::ShuttingDown,
        other => return Err(bad(format!("unknown response op `{other}`"), some_id())),
    };
    Ok(Response { id, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_request(req: Request) {
        let line = encode_request(&req);
        assert_eq!(decode_request(&line).unwrap(), req, "{line}");
    }

    fn rt_response(resp: Response) {
        let line = encode_response(&resp);
        assert_eq!(decode_response(&line).unwrap(), resp, "{line}");
    }

    #[test]
    fn every_request_kind_round_trips() {
        let params = PlanParams {
            platform: "proc a beta=0 alpha=0.01\n# \"quoted\"\n".into(),
            items: 817_101,
            strategy: "exact-dc".into(),
        };
        rt_request(Request { id: "1".into(), body: RequestBody::Ping });
        rt_request(Request { id: "p/2\n".into(), body: RequestBody::Plan(params.clone()) });
        rt_request(Request { id: "s".into(), body: RequestBody::Simulate(params) });
        rt_request(Request {
            id: "c".into(),
            body: RequestBody::Calibrate { traces: vec!["{}".into(), "tab\there".into()] },
        });
        rt_request(Request { id: "m".into(), body: RequestBody::Metrics });
        rt_request(Request { id: "x".into(), body: RequestBody::Shutdown });
    }

    #[test]
    fn every_response_kind_round_trips() {
        rt_response(Response { id: "1".into(), outcome: Outcome::Pong });
        rt_response(Response {
            id: "2".into(),
            outcome: Outcome::Plan(PlanResult {
                makespan: 0.1 + 0.2, // a float with an awkward shortest form
                counts: vec![3, 0, 7],
                displs: vec![0, 3, 3],
                order: vec![2, 1, 0],
                cache: CacheStatus::Coalesced,
            }),
        });
        rt_response(Response {
            id: "3".into(),
            outcome: Outcome::Simulate(SimResult {
                predicted_makespan: 1.5e-3,
                simulated_makespan: f64::MIN_POSITIVE,
                cache: CacheStatus::Hit,
            }),
        });
        rt_response(Response {
            id: "4".into(),
            outcome: Outcome::Calibrate { platform: "proc a beta=1 alpha=1\nroot a\n".into() },
        });
        rt_response(Response {
            id: "5".into(),
            outcome: Outcome::Metrics { prometheus: "# HELP x x\nx 1\n".into() },
        });
        rt_response(Response { id: "6".into(), outcome: Outcome::ShuttingDown });
        rt_response(Response {
            id: "7".into(),
            outcome: Outcome::Error {
                code: ErrorCode::Overloaded,
                message: "64 requests in flight".into(),
            },
        });
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let req = decode_request(
            "{\"v\": 1, \"id\": \"a\", \"op\": \"ping\", \"novel_field\": {\"x\": [1, 2]}}",
        )
        .unwrap();
        assert_eq!(req.body, RequestBody::Ping);
        let resp = decode_response(
            "{\"v\": 1, \"id\": \"a\", \"ok\": true, \"op\": \"pong\", \"t_micros\": 12}",
        )
        .unwrap();
        assert_eq!(resp.outcome, Outcome::Pong);
    }

    #[test]
    fn unknown_error_codes_decode_as_other() {
        let resp = decode_response(
            "{\"v\": 1, \"id\": \"a\", \"ok\": false, \
             \"error\": {\"code\": \"quota_exceeded\", \"message\": \"m\"}}",
        )
        .unwrap();
        assert_eq!(resp.outcome, Outcome::Error { code: ErrorCode::Other, message: "m".into() });
    }

    #[test]
    fn newer_version_is_rejected_with_the_right_code() {
        let e = decode_request("{\"v\": 99, \"id\": \"a\", \"op\": \"ping\"}").unwrap_err();
        assert_eq!(e.code, ErrorCode::UnsupportedVersion);
        assert_eq!(e.id.as_deref(), Some("a"));
    }

    #[test]
    fn malformed_lines_fail_as_bad_request() {
        for line in [
            "",
            "not json",
            "[1, 2]",
            "{\"v\": 1}",                                      // no id
            "{\"id\": \"a\", \"op\": \"ping\"}",               // no v
            "{\"v\": 1, \"id\": \"a\"}",                       // no op
            "{\"v\": 1, \"id\": \"a\", \"op\": \"dance\"}",    // unknown op
            "{\"v\": 1, \"id\": \"a\", \"op\": \"plan\"}",     // plan without params
            "{\"v\": 1, \"id\": \"a\", \"op\": \"plan\", \"platform\": \"p\", \
             \"items\": -3, \"strategy\": \"exact\"}",          // negative items
        ] {
            let e = decode_request(line).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn decode_errors_recover_the_id_when_present() {
        let e = decode_request("{\"v\": 1, \"id\": \"r9\", \"op\": \"nope\"}").unwrap_err();
        assert_eq!(e.id.as_deref(), Some("r9"));
        let e = decode_request("not json at all").unwrap_err();
        assert_eq!(e.id, None);
    }
}
