//! Versioned JSON serialization of traces (schema v1, no external
//! dependencies — the writer and the recursive-descent parser are
//! hand-rolled and cover exactly the JSON subset the schema uses).
//!
//! The document layout is described normatively in
//! `docs/observability.md`; in short:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "source": "predicted",
//!   "item_bytes": 8,
//!   "names": ["p1", "p2", "root"],
//!   "events": [
//!     {"t": 0.0, "kind": "send_start", "rank": 0, "peer": 2,
//!      "item_lo": 0, "item_hi": 3, "bytes": 24}
//!   ]
//! }
//! ```
//!
//! Optional event fields (`peer`, `item_lo`, `item_hi`) are omitted when
//! absent. Integers are written without a fractional part; the parser
//! reads all numbers as `f64`, which is exact for the magnitudes the
//! schema produces (counts and byte totals below 2⁵³).

use super::{
    Event, EventKind, Incident, IncidentKind, PlanTiming, Trace, TraceError, TraceSource,
    SCHEMA_VERSION,
};
use crate::metrics::{
    BucketCount, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot,
};

// ---- writer ---------------------------------------------------------------

/// Appends `s` as a quoted, escaped JSON string. Public because every
/// hand-rolled JSON writer in the workspace (traces here, the gs-serve
/// wire protocol) must escape identically.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` as a JSON number. Rust's `Display` for f64 is
/// the shortest representation that round-trips, which is exactly what a
/// trace (or a wire protocol promising bit-identical plans) wants.
pub fn push_f64(out: &mut String, x: f64) {
    out.push_str(&format!("{x}"));
}

/// Serializes a metrics snapshot as the object the schema's optional
/// `metrics` field carries (and that [`metrics_from_json`] reads back).
/// Histogram bucket bounds are powers of two, hence exact; the overflow
/// bucket's +∞ bound — and a `sum` that overflowed to +∞ after ~1e308
/// worth of observations — is written as the string `"inf"` (JSON
/// numbers cannot express it).
pub fn metrics_to_json(snap: &MetricsSnapshot) -> String {
    fn push_le(out: &mut String, le: f64) {
        if le.is_finite() {
            push_f64(out, le);
        } else {
            out.push_str("\"inf\"");
        }
    }
    // A series' label pairs, as an object. Key order is stable: the
    // snapshot keeps labels sorted by key. Omitted entirely for
    // unlabeled series (the common case), which keeps old consumers
    // working — parsers skip unknown fields and tolerate absent ones.
    fn push_labels(out: &mut String, labels: &[(String, String)]) {
        if labels.is_empty() {
            return;
        }
        out.push_str(", \"labels\": {");
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_escaped(out, k);
            out.push_str(": ");
            push_escaped(out, v);
        }
        out.push('}');
    }
    let mut out = String::new();
    out.push_str("{\"counters\": [");
    for (i, c) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": ");
        push_escaped(&mut out, &c.name);
        out.push_str(", \"help\": ");
        push_escaped(&mut out, &c.help);
        push_labels(&mut out, &c.labels);
        out.push_str(&format!(", \"value\": {}}}", c.value));
    }
    out.push_str("], \"gauges\": [");
    for (i, g) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": ");
        push_escaped(&mut out, &g.name);
        out.push_str(", \"help\": ");
        push_escaped(&mut out, &g.help);
        push_labels(&mut out, &g.labels);
        out.push_str(", \"value\": ");
        push_f64(&mut out, g.value);
        out.push('}');
    }
    out.push_str("], \"histograms\": [");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": ");
        push_escaped(&mut out, &h.name);
        out.push_str(", \"help\": ");
        push_escaped(&mut out, &h.help);
        push_labels(&mut out, &h.labels);
        if let Some(ex) = &h.exemplar {
            out.push_str(", \"exemplar\": ");
            push_escaped(&mut out, ex);
        }
        out.push_str(&format!(", \"count\": {}, \"sum\": ", h.count));
        push_le(&mut out, h.sum);
        out.push_str(", \"buckets\": [");
        for (j, b) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"le\": ");
            push_le(&mut out, b.le);
            out.push_str(&format!(", \"count\": {}}}", b.count));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Serializes a trace as a schema-v1 JSON document (one event per line,
/// so the output diffs well under version control).
pub fn trace_to_json(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"source\": \"{}\",\n", trace.source.as_str()));
    out.push_str(&format!("  \"item_bytes\": {},\n", trace.item_bytes));
    if let Some(pt) = &trace.plan_timing {
        out.push_str("  \"plan_timing\": {\"strategy\": ");
        push_escaped(&mut out, &pt.strategy);
        out.push_str(&format!(", \"threads\": {}, \"pruned\": {}", pt.threads, pt.pruned));
        out.push_str(", \"tabulate_secs\": ");
        push_f64(&mut out, pt.tabulate_secs);
        out.push_str(", \"solve_secs\": ");
        push_f64(&mut out, pt.solve_secs);
        out.push_str(", \"total_secs\": ");
        push_f64(&mut out, pt.total_secs);
        out.push_str(&format!(
            ", \"cache_hits\": {}, \"cache_misses\": {}}},\n",
            pt.cache_hits, pt.cache_misses
        ));
    }
    if let Some(label) = &trace.label {
        out.push_str("  \"label\": ");
        push_escaped(&mut out, label);
        out.push_str(",\n");
    }
    if let Some(m) = &trace.metrics {
        out.push_str("  \"metrics\": ");
        out.push_str(&metrics_to_json(m));
        out.push_str(",\n");
    }
    if !trace.incidents.is_empty() {
        out.push_str("  \"incidents\": [");
        for (i, inc) in trace.incidents.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str("{\"t\": ");
            push_f64(&mut out, inc.t);
            out.push_str(&format!(
                ", \"kind\": \"{}\", \"rank\": {}, \"items\": {}, \"info\": ",
                inc.kind.as_str(),
                inc.rank,
                inc.items
            ));
            push_escaped(&mut out, &inc.info);
            out.push('}');
        }
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"names\": [");
    for (i, name) in trace.names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_escaped(&mut out, name);
    }
    out.push_str("],\n  \"events\": [");
    for (i, e) in trace.events.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str("{\"t\": ");
        push_f64(&mut out, e.t);
        out.push_str(&format!(", \"kind\": \"{}\", \"rank\": {}", e.kind.as_str(), e.rank));
        if let Some(peer) = e.peer {
            out.push_str(&format!(", \"peer\": {peer}"));
        }
        if let Some((lo, hi)) = e.items {
            out.push_str(&format!(", \"item_lo\": {lo}, \"item_hi\": {hi}"));
        }
        out.push_str(&format!(", \"bytes\": {}}}", e.bytes));
    }
    if trace.events.is_empty() {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

// ---- generic JSON values --------------------------------------------------

/// A parsed JSON value (the subset the schema needs; numbers are `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional parts).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth would let a line of `[`s (a
/// `gs serve` request, say) overflow the stack and abort the process.
const MAX_DEPTH: usize = 64;

/// Parses a JSON document. Arrays and objects may nest at most 64
/// levels deep; deeper input is an error.
pub fn parse(text: &str) -> Result<Json, TraceError> {
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(TraceError(format!("trailing garbage at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), TraceError> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(TraceError(format!("expected `{}` at byte {}", c as char, *pos)))
    }
}

/// Parses one value nested `depth` arrays/objects deep.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, TraceError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let open = matches!(bytes.get(*pos), Some(b'{' | b'['));
    if open && depth >= MAX_DEPTH {
        return Err(TraceError(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_obj(text, pos, depth + 1),
        Some(b'[') => parse_arr(text, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err(TraceError("unexpected end of input".into())),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, TraceError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(TraceError(format!("bad literal at byte {}", *pos)))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, TraceError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| TraceError("non-utf8 number".into()))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| TraceError(format!("bad number `{text}` at byte {start}")))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, TraceError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run of unescaped characters up to the next `"` or
        // `\\` in one slice: both delimiters are ASCII, so the slice
        // boundaries are always character boundaries of `text`.
        let run = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\');
        let Some(run) = run else {
            return Err(TraceError("unterminated string".into()));
        };
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hex = bytes
                    .get(*pos + 1..*pos + 5)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| TraceError("truncated \\u escape".into()))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| TraceError(format!("bad \\u escape `{hex}`")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| TraceError(format!("bad code point {code}")))?,
                );
                *pos += 4;
            }
            _ => return Err(TraceError("bad escape".into())),
        }
        *pos += 1;
    }
}

fn parse_arr(text: &str, pos: &mut usize, depth: usize) -> Result<Json, TraceError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(TraceError(format!("expected `,` or `]` at byte {}", *pos))),
        }
    }
}

fn parse_obj(text: &str, pos: &mut usize, depth: usize) -> Result<Json, TraceError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(text, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(TraceError(format!("expected `,` or `}}` at byte {}", *pos))),
        }
    }
}

// ---- trace decoding -------------------------------------------------------

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, TraceError> {
    obj.get(key)
        .ok_or_else(|| TraceError(format!("missing field `{key}`")))
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, TraceError> {
    field(obj, key)?
        .as_u64()
        .map(|x| x as usize)
        .ok_or_else(|| TraceError(format!("field `{key}` must be a non-negative integer")))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, TraceError> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| TraceError(format!("field `{key}` must be a number")))
}

fn plan_timing_from_json(obj: &Json) -> Result<PlanTiming, TraceError> {
    let strategy = field(obj, "strategy")?
        .as_str()
        .ok_or_else(|| TraceError("field `strategy` must be a string".into()))?
        .to_string();
    let pruned = match field(obj, "pruned")? {
        Json::Bool(b) => *b,
        _ => return Err(TraceError("field `pruned` must be a boolean".into())),
    };
    Ok(PlanTiming {
        strategy,
        threads: usize_field(obj, "threads")?,
        pruned,
        tabulate_secs: f64_field(obj, "tabulate_secs")?,
        solve_secs: f64_field(obj, "solve_secs")?,
        total_secs: f64_field(obj, "total_secs")?,
        cache_hits: field(obj, "cache_hits")?
            .as_u64()
            .ok_or_else(|| TraceError("field `cache_hits` must be an integer".into()))?,
        cache_misses: field(obj, "cache_misses")?
            .as_u64()
            .ok_or_else(|| TraceError("field `cache_misses` must be an integer".into()))?,
    })
}

fn str_field(obj: &Json, key: &str) -> Result<String, TraceError> {
    field(obj, key)?
        .as_str()
        .map(String::from)
        .ok_or_else(|| TraceError(format!("field `{key}` must be a string")))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, TraceError> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| TraceError(format!("field `{key}` must be a non-negative integer")))
}

/// Decodes the object written by [`metrics_to_json`].
pub fn metrics_from_json(obj: &Json) -> Result<MetricsSnapshot, TraceError> {
    let arr = |key: &str| -> Result<&[Json], TraceError> {
        field(obj, key)?
            .as_arr()
            .ok_or_else(|| TraceError(format!("field `{key}` must be an array")))
    };
    // Optional `labels` object (absent ≡ unlabeled series).
    let labels_of = |entry: &Json| -> Result<Vec<(String, String)>, TraceError> {
        match entry.get("labels") {
            None | Some(Json::Null) => Ok(Vec::new()),
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|v| (k.clone(), v.to_string()))
                        .ok_or_else(|| TraceError("label values must be strings".into()))
                })
                .collect(),
            Some(_) => Err(TraceError("field `labels` must be an object".into())),
        }
    };
    let mut snap = MetricsSnapshot::default();
    for c in arr("counters")? {
        snap.counters.push(CounterSnapshot {
            name: str_field(c, "name")?,
            help: str_field(c, "help")?,
            labels: labels_of(c)?,
            value: u64_field(c, "value")?,
        });
    }
    for g in arr("gauges")? {
        snap.gauges.push(GaugeSnapshot {
            name: str_field(g, "name")?,
            help: str_field(g, "help")?,
            labels: labels_of(g)?,
            value: f64_field(g, "value")?,
        });
    }
    for h in arr("histograms")? {
        let mut buckets = Vec::new();
        for b in field(h, "buckets")?
            .as_arr()
            .ok_or_else(|| TraceError("field `buckets` must be an array".into()))?
        {
            let le = match field(b, "le")? {
                Json::Num(x) => *x,
                Json::Str(s) if s == "inf" => f64::INFINITY,
                _ => {
                    return Err(TraceError(
                        "field `le` must be a number or the string \"inf\"".into(),
                    ))
                }
            };
            buckets.push(BucketCount { le, count: u64_field(b, "count")? });
        }
        let sum = match field(h, "sum")? {
            Json::Num(x) => *x,
            // A sum that overflowed f64 (only upward: observations are
            // non-negative) is exported as the string "inf".
            Json::Str(s) if s == "inf" => f64::INFINITY,
            _ => {
                return Err(TraceError(
                    "field `sum` must be a number or the string \"inf\"".into(),
                ))
            }
        };
        let exemplar = match h.get("exemplar") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(TraceError("field `exemplar` must be a string".into())),
        };
        snap.histograms.push(HistogramSnapshot {
            name: str_field(h, "name")?,
            help: str_field(h, "help")?,
            labels: labels_of(h)?,
            count: u64_field(h, "count")?,
            sum,
            buckets,
            exemplar,
        });
    }
    Ok(snap)
}

/// Deserializes a schema-v1 JSON document back into a [`Trace`].
///
/// Rejects documents with a different `schema` number, unknown event
/// kinds, or structurally invalid values. The decoded trace itself is
/// *not* semantically validated — call [`Trace::validate`] if the
/// document comes from outside the process.
pub fn trace_from_json(text: &str) -> Result<Trace, TraceError> {
    let doc = parse(text)?;
    let schema = u64_field(&doc, "schema")?;
    if schema != u64::from(SCHEMA_VERSION) {
        return Err(TraceError(format!(
            "unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"
        )));
    }
    let source_name = field(&doc, "source")?
        .as_str()
        .ok_or_else(|| TraceError("field `source` must be a string".into()))?;
    let source = TraceSource::parse(source_name)
        .ok_or_else(|| TraceError(format!("unknown trace source `{source_name}`")))?;
    let item_bytes = field(&doc, "item_bytes")?
        .as_u64()
        .ok_or_else(|| TraceError("field `item_bytes` must be an integer".into()))?;
    let names: Vec<String> = field(&doc, "names")?
        .as_arr()
        .ok_or_else(|| TraceError("field `names` must be an array".into()))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(String::from)
                .ok_or_else(|| TraceError("names must be strings".into()))
        })
        .collect::<Result<_, _>>()?;
    let mut trace = Trace::new(source, item_bytes, names);
    // `plan_timing` is optional: absent in documents from older writers.
    if let Some(pt) = doc.get("plan_timing") {
        trace.plan_timing = Some(plan_timing_from_json(pt)?);
    }
    // `label` and `incidents` are optional: absent on fault-free traces
    // and in documents from older writers.
    if let Some(l) = doc.get("label") {
        trace.label = Some(
            l.as_str()
                .ok_or_else(|| TraceError("field `label` must be a string".into()))?
                .to_string(),
        );
    }
    // `metrics` is optional too: attaching is opt-in (see `Trace`).
    if let Some(m) = doc.get("metrics") {
        trace.metrics = Some(metrics_from_json(m)?);
    }
    if let Some(arr) = doc.get("incidents") {
        for (i, inc) in arr
            .as_arr()
            .ok_or_else(|| TraceError("field `incidents` must be an array".into()))?
            .iter()
            .enumerate()
        {
            let t = field(inc, "t")?
                .as_f64()
                .ok_or_else(|| TraceError(format!("incident {i}: `t` must be a number")))?;
            let kind_name = field(inc, "kind")?
                .as_str()
                .ok_or_else(|| TraceError(format!("incident {i}: `kind` must be a string")))?;
            let kind = IncidentKind::parse(kind_name)
                .ok_or_else(|| TraceError(format!("incident {i}: unknown kind `{kind_name}`")))?;
            let rank =
                usize_field(inc, "rank").map_err(|e| TraceError(format!("incident {i}: {e}")))?;
            let items = field(inc, "items")?
                .as_u64()
                .ok_or_else(|| TraceError(format!("incident {i}: `items` must be an integer")))?;
            let info = field(inc, "info")?
                .as_str()
                .ok_or_else(|| TraceError(format!("incident {i}: `info` must be a string")))?
                .to_string();
            trace.incidents.push(Incident { t, kind, rank, items, info });
        }
    }
    for (i, ev) in field(&doc, "events")?
        .as_arr()
        .ok_or_else(|| TraceError("field `events` must be an array".into()))?
        .iter()
        .enumerate()
    {
        let t = field(ev, "t")?
            .as_f64()
            .ok_or_else(|| TraceError(format!("event {i}: `t` must be a number")))?;
        let kind_name = field(ev, "kind")?
            .as_str()
            .ok_or_else(|| TraceError(format!("event {i}: `kind` must be a string")))?;
        let kind = EventKind::parse(kind_name)
            .ok_or_else(|| TraceError(format!("event {i}: unknown kind `{kind_name}`")))?;
        let rank = usize_field(ev, "rank").map_err(|e| TraceError(format!("event {i}: {e}")))?;
        let peer = match ev.get("peer") {
            Some(v) => Some(v.as_u64().map(|x| x as usize).ok_or_else(|| {
                TraceError(format!("event {i}: `peer` must be an integer"))
            })?),
            None => None,
        };
        let items = match (ev.get("item_lo"), ev.get("item_hi")) {
            (Some(lo), Some(hi)) => {
                let lo = lo.as_u64().ok_or_else(|| {
                    TraceError(format!("event {i}: `item_lo` must be an integer"))
                })?;
                let hi = hi.as_u64().ok_or_else(|| {
                    TraceError(format!("event {i}: `item_hi` must be an integer"))
                })?;
                Some((lo, hi))
            }
            (None, None) => None,
            _ => {
                return Err(TraceError(format!(
                    "event {i}: `item_lo` and `item_hi` must appear together"
                )))
            }
        };
        let bytes = field(ev, "bytes")?
            .as_u64()
            .ok_or_else(|| TraceError(format!("event {i}: `bytes` must be an integer")))?;
        trace.push(Event { t, kind, rank, peer, items, bytes });
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::super::TraceSource;
    use super::*;
    use crate::cost::Processor;
    use crate::distribution::timeline;

    fn sample() -> Trace {
        let procs = [
            Processor::linear("p,1", 1.0, 2.0), // comma exercises escaping paths
            Processor::linear("p\"2", 2.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ];
        let view: Vec<&Processor> = procs.iter().collect();
        let counts = vec![3usize, 2, 1];
        let tl = timeline(&view, &counts);
        Trace::from_timeline(TraceSource::Simulated, &["p,1", "p\"2", "root"], &counts, 8, &tl)
    }

    #[test]
    fn json_round_trips_exactly() {
        let trace = sample();
        let text = trace_to_json(&trace);
        let back = trace_from_json(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn plan_timing_round_trips_exactly() {
        let mut trace = sample();
        trace.plan_timing = Some(PlanTiming {
            strategy: "exact".into(),
            threads: 4,
            pruned: true,
            tabulate_secs: 0.001953125, // dyadic: exact in JSON round-trip
            solve_secs: 0.125,
            total_secs: 0.126953125,
            cache_hits: 3,
            cache_misses: 9,
        });
        let text = trace_to_json(&trace);
        assert!(text.contains("\"plan_timing\""));
        let back = trace_from_json(&text).unwrap();
        assert_eq!(back, trace);
        // Absent field decodes to None (older writers).
        assert_eq!(trace_from_json(&trace_to_json(&sample())).unwrap().plan_timing, None);
    }

    #[test]
    fn incidents_and_label_round_trip_exactly() {
        let mut trace = sample();
        trace.label = Some("recovered".into());
        trace.incidents = vec![
            Incident {
                t: 0.25,
                kind: IncidentKind::Fault,
                rank: 1,
                items: 2,
                info: "send to \"p2\" timed out".into(),
            },
            Incident { t: 0.5, kind: IncidentKind::Retry, rank: 1, items: 2, info: String::new() },
            Incident {
                t: 1.0,
                kind: IncidentKind::Replan,
                rank: 2,
                items: 2,
                info: "2 items over 2 survivors".into(),
            },
        ];
        let text = trace_to_json(&trace);
        assert!(text.contains("\"label\": \"recovered\""));
        assert!(text.contains("\"incidents\""));
        let back = trace_from_json(&text).unwrap();
        assert_eq!(back, trace);
        // Absent fields decode to empty/None (older writers, fault-free traces).
        let plain = trace_from_json(&trace_to_json(&sample())).unwrap();
        assert!(plain.incidents.is_empty());
        assert_eq!(plain.label, None);
    }

    #[test]
    fn metrics_block_round_trips_exactly() {
        let mut trace = sample();
        trace.metrics = Some(MetricsSnapshot {
            counters: vec![CounterSnapshot {
                name: "dp_cells_evaluated_total".into(),
                help: "DP cells".into(),
                labels: Vec::new(),
                value: 12345,
            }],
            gauges: vec![GaugeSnapshot {
                name: "mpi_queue_depth".into(),
                help: "queue \"depth\"".into(),
                labels: vec![("pool".into(), "a\\b \"q\"".into())],
                value: 2.5, // dyadic: exact in JSON round-trip
            }],
            histograms: vec![HistogramSnapshot {
                name: "mpi_send_seconds".into(),
                help: "per-send".into(),
                labels: vec![("op".into(), "plan".into())],
                count: 3,
                sum: 0.375,
                buckets: vec![
                    BucketCount { le: 0.125, count: 2 },
                    BucketCount { le: f64::INFINITY, count: 1 },
                ],
                exemplar: Some("req-7".into()),
            }],
        });
        let text = trace_to_json(&trace);
        assert!(text.contains("\"metrics\""));
        assert!(text.contains("\"le\": \"inf\""));
        let back = trace_from_json(&text).unwrap();
        assert_eq!(back, trace);
        // Schema stays v1 and plain traces stay metrics-free.
        assert!(text.contains("\"schema\": 1"));
        assert_eq!(trace_from_json(&trace_to_json(&sample())).unwrap().metrics, None);
    }

    #[test]
    fn unknown_incident_kind_is_rejected() {
        let mut trace = sample();
        trace.incidents.push(Incident {
            t: 0.0,
            kind: IncidentKind::Fault,
            rank: 0,
            items: 1,
            info: String::new(),
        });
        let text = trace_to_json(&trace).replace("\"kind\": \"fault\"", "\"kind\": \"meltdown\"");
        assert!(trace_from_json(&text).unwrap_err().0.contains("unknown kind `meltdown`"));
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new(TraceSource::Executed, 0, vec![]);
        let back = trace_from_json(&trace_to_json(&trace)).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn schema_version_is_embedded_and_checked() {
        let text = trace_to_json(&sample());
        assert!(text.contains("\"schema\": 1"));
        let wrong = text.replace("\"schema\": 1", "\"schema\": 999");
        let err = trace_from_json(&wrong).unwrap_err();
        assert!(err.0.contains("unsupported schema version 999"), "{err}");
        // 2³² + 1 is not 1, however it would truncate.
        let wrapped = text.replace("\"schema\": 1", "\"schema\": 4294967297");
        assert!(trace_from_json(&wrapped).is_err());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let text = trace_to_json(&sample()).replace("send_start", "teleport");
        assert!(trace_from_json(&text).unwrap_err().0.contains("unknown kind"));
    }

    #[test]
    fn missing_field_is_rejected() {
        assert!(trace_from_json("{}").unwrap_err().0.contains("missing field"));
        assert!(trace_from_json("not json at all").is_err());
        assert!(trace_from_json("{\"schema\": 1} trailing").is_err());
    }

    #[test]
    fn parser_handles_scalars_and_nesting() {
        let doc = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2], Json::Num(-300.0));
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn string_escapes_round_trip() {
        let trace = Trace::new(
            TraceSource::Predicted,
            1,
            vec!["tab\there".into(), "uni\u{00e9}".into(), "quote\"q".into()],
        );
        let back = trace_from_json(&trace_to_json(&trace)).unwrap();
        assert_eq!(back.names, trace.names);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Multi-byte characters and escapes throughout: every run copied
        // as one slice must still split only at character boundaries.
        let content = "ab\u{e9}\"\\c\u{1f600}\n".repeat(1 << 17);
        assert!(content.len() >= 1 << 20);
        let mut doc = String::new();
        push_escaped(&mut doc, &content);
        let t0 = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(parsed.as_str(), Some(content.as_str()));
        assert!(secs < 2.0, "a 1 MB string took {secs:.2} s to parse");
    }

    #[test]
    fn nesting_bombs_are_errors_not_stack_overflows() {
        for bomb in ["[".repeat(20_000), r#"{"a":"#.repeat(20_000)] {
            assert!(parse(&bomb).is_err());
        }
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("nesting deeper than 64"), "{err}");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
    }
}
