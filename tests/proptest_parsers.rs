//! The text parsers behind `gs` and `gs serve` are total: over arbitrary
//! bytes and adversarial shapes — huge numbers, NaN/inf spellings,
//! invalid UTF-8, very long lines, deep nesting —
//! `platform_file::parse_platform`, `FaultPlan::parse`,
//! `obs::json::parse`, `obs::json::trace_from_json`,
//! `gs_serve::protocol::decode_request` and the span-file reader behind
//! `gs report --spans` return `Ok` or a typed error, never panic, and
//! what they accept is well-formed.

use grid_scatter::prelude::{Planner, Strategy as PlanStrategy};
use grid_scatter::scatter::fault::{FaultKind, FaultPlan};
use grid_scatter::scatter::obs::json::{parse, trace_from_json};
use grid_scatter::scatter::platform_file::parse_platform;
use gs_cli::commands::cmd_report_spans;
use gs_serve::protocol::{decode_request, RequestBody};
use proptest::prelude::*;

/// Number spellings a parser has to survive; the first [`VALID`] parse
/// as finite, non-negative `f64`s.
const NUMBERS: &[&str] = &[
    "0", "1", "0.009288", "1.12e-5", "-0", "1e308", "1.7976931348623157e308", "4.9e-324",
    "1e-400", "99999999999999999999999999999999999999", "-1", "1e309", "-1e309", "NaN", "nan",
    "inf", "-inf", "+inf", "infinity", "0x10", "1_000", "", ".", "1e", "e5", "--1",
];
const VALID: usize = 10;

/// A number: mostly a valid one, else any spelling.
fn number() -> impl Strategy<Value = &'static str> {
    (0u8..8, 0usize..VALID, 0usize..NUMBERS.len())
        .prop_map(|(pick, v, x)| if pick > 0 { NUMBERS[v] } else { NUMBERS[x] })
}

/// Names, including non-ASCII, whitespace-adjacent and empty ones.
const NAMES: &[&str] = &["root", "w1", "é", "dinadan", "𝄞", "0", "2", "18446744073709551616", ""];

/// Raw bytes, decoded the way a reader that tolerates invalid UTF-8
/// would (`U+FFFD` replacement).
fn arbitrary_text(max: usize) -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..max)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Platform-file lines: mostly `proc` lines with nasty values, mixed
/// with `root` lines, stray tokens and odd separators.
fn platform_shaped() -> impl Strategy<Value = String> {
    const EXTRA: &[&str] = &["", "", "comm_intercept", "comp_intercept", "gamma", "beta"];
    const SEPS: &[&str] = &[" ", " ", " ", "\t", "\u{a0}", "\u{2003}", "=", " # "];
    let line = (0usize..16, 0usize..NAMES.len(), (number(), number(), number()), 0usize..EXTRA.len(), 0usize..SEPS.len())
        .prop_map(|(kind, n, (beta, alpha, x), extra, sep)| {
            let s = SEPS[sep];
            match kind {
                0 => format!("root{s}{}", NAMES[n]),
                1 => format!("{}{s}beta={beta}", NAMES[n]),
                _ if EXTRA[extra].is_empty() => format!("proc {}{s}beta={beta} alpha={alpha}", NAMES[n]),
                _ => format!("proc {} beta={beta}{s}alpha={alpha} {}={x}", NAMES[n], EXTRA[extra]),
            }
        });
    collection::vec(line, 1..5).prop_map(|lines| lines.join("\n"))
}

/// Every accepted platform has finite, non-negative cost coefficients,
/// and planning it returns a plan or an error rather than panicking.
fn check_platform(text: &str) -> Result<(), TestCaseError> {
    let Ok(platform) = parse_platform(text) else { return Ok(()) };
    for p in platform.procs() {
        for f in [&p.comm, &p.comp] {
            let (intercept, slope) = f.affine_params().expect("the format is affine");
            for v in [intercept, slope] {
                prop_assert!(v.is_finite() && v >= 0.0, "{}: coefficient {v}", p.name);
            }
        }
    }
    for strategy in [PlanStrategy::Heuristic, PlanStrategy::Exact, PlanStrategy::ExactDc] {
        let _ = Planner::new(platform.clone()).strategy(strategy).plan(50);
    }
    Ok(())
}

/// Fault-spec clauses with nasty ranks, times and factors.
fn fault_shaped() -> impl Strategy<Value = String> {
    let clause = (0usize..7, 0usize..NAMES.len(), (number(), number()), (any::<bool>(), any::<bool>()))
        .prop_map(|(verb, n, (x, y), (pct, with_t))| {
            let who = NAMES[n];
            let t = format!("{y}{}", if pct { "%" } else { "" });
            match verb {
                0 => format!("crash:{who}@{t}"),
                1 => format!("flaky:{who}:{x}"),
                2 if with_t => format!("slow:{who}:{x}@{t}"),
                2 => format!("slow:{who}:{x}"),
                3 => format!("link:{who}:{x}"),
                4 => format!("seed:{x}"),
                5 => format!("{who}:{x}@{t}"),
                _ => format!("crash:{who}:{x}:{t}"),
            }
        });
    collection::vec(clause, 1..4).prop_map(|clauses| clauses.join(","))
}

/// Horizons a caller may pass (a predicted makespan: finite, >= 0).
const HORIZONS: &[f64] = &[0.0, 1e-300, 1.0, 403.97, 1e300, f64::MAX];

/// Every accepted fault plan names valid ranks and carries finite,
/// non-negative times and positive finite factors.
fn check_faults(spec: &str, horizon: f64) -> Result<(), TestCaseError> {
    let names = ["w1", "é", "root"];
    let Ok(plan) = FaultPlan::parse(spec, &names, horizon) else { return Ok(()) };
    for f in &plan.faults {
        prop_assert!(f.rank < names.len(), "rank {} out of range", f.rank);
        let ok = match f.kind {
            FaultKind::Crash { at } => at.is_finite() && at >= 0.0,
            FaultKind::Transient { .. } => true,
            FaultKind::Slowdown { start, factor } => {
                start.is_finite() && start >= 0.0 && factor.is_finite() && factor > 0.0
            }
            FaultKind::LinkDegrade { factor } => factor.is_finite() && factor > 0.0,
        };
        prop_assert!(ok, "`{spec}` (horizon {horizon}) accepted {:?}", f.kind);
    }
    Ok(())
}

/// JSON scalars and fragments a reader has to survive: huge, negative,
/// fractional and non-finite numbers, NaN/inf spellings (not JSON),
/// integers past `u32`/2⁵³/`u64`, broken escapes, lone surrogates,
/// invalid UTF-8 (as decoded lossily), and wrong types.
const JSON_VALUES: &[&str] = &[
    "0", "1", "2", "-1", "-0", "1.5", "1e308", "1e309", "-1e309", "4.9e-324", "1e-400",
    "4294967297", "9007199254740993", "18446744073709551616", "1e19", "NaN", "nan", "inf",
    "-inf", "Infinity", "+1", "01", "1e", "-", ".", r#""""#, r#""root""#, r#""inf""#,
    r#""\u12""#, r#""\ud800""#, r#""\uFFFF""#, r#""\q""#, "\"\u{fffd}\u{fffd}\"",
    r#""unterminated"#, "null", "true", "[]", "{}", "[1,]", r#"{"a":}"#, r#""send_start""#,
    r#""idle""#, r#""predicted""#, r#""plan""#, r#""ping""#, r#""exact""#,
];

fn json_value() -> impl Strategy<Value = &'static str> {
    (0usize..JSON_VALUES.len()).prop_map(|i| JSON_VALUES[i])
}

/// Token soup: brackets, separators, keys and scalars in any order —
/// mostly malformed.
fn json_soup() -> impl Strategy<Value = String> {
    const TOKENS: &[&str] = &["[", "]", "{", "}", ",", ":", " ", r#""k""#, r#""t""#, "\\", "\""];
    let token = (any::<bool>(), 0usize..TOKENS.len(), json_value())
        .prop_map(|(scalar, t, v)| if scalar { v } else { TOKENS[t] });
    collection::vec(token, 0..200).prop_map(|tokens| tokens.concat())
}

/// `depth` nested arrays or objects around a number, closed or not.
fn nested(depth: usize, object: bool, closed: bool) -> String {
    let (open, close) = if object { (r#"{"a":"#, "}") } else { ("[", "]") };
    let mut s = open.repeat(depth);
    s.push('1');
    if closed {
        s.push_str(&close.repeat(depth));
    }
    s
}

/// Fills `template`'s `@` slots in order: each keeps its valid default
/// two times in three, else takes an adversarial value.
fn fill(template: &str, defaults: &[&'static str], slots: &[(u8, &'static str)]) -> String {
    let mut values = defaults.iter().zip(slots).map(|(&d, &(keep, v))| if keep > 0 { d } else { v });
    template.split('@').enumerate().fold(String::new(), |mut out, (i, piece)| {
        if i > 0 {
            out.push_str(values.next().expect("one value per slot"));
        }
        out.push_str(piece);
        out
    })
}

/// A schema-v1 trace document with adversarial value slots.
fn trace_shaped() -> impl Strategy<Value = String> {
    const TEMPLATE: &str = concat!(
        r#"{"schema":@,"source":@,"item_bytes":@,"names":[@,"root"],"label":@,"#,
        r#""events":[{"t":@,"kind":@,"rank":@,"peer":@,"item_lo":@,"item_hi":@,"bytes":@},"#,
        r#"{"t":@,"kind":"send_end","rank":0,"peer":1,"bytes":8}],"#,
        r#""incidents":[{"t":@,"kind":"fault","rank":@,"items":@,"info":"x"}]}"#
    );
    const DEFAULTS: &[&str] = &[
        "1", r#""simulated""#, "8", r#""w""#, r#""recovered""#, "0", r#""send_start""#, "0",
        "1", "0", "1", "8", "1.5", "1", "0", "1",
    ];
    collection::vec((0u8..3, json_value()), DEFAULTS.len())
        .prop_map(|slots| fill(TEMPLATE, DEFAULTS, &slots))
}

/// A `gs serve` request line with adversarial value slots.
fn request_shaped() -> impl Strategy<Value = String> {
    const TEMPLATE: &str =
        r#"{"v":@,"id":@,"op":@,"platform":@,"items":@,"strategy":@,"traces":[@]}"#;
    const DEFAULTS: &[&str] = &[
        "1", r#""r1""#, r#""plan""#, r#""proc root beta=0 alpha=0.01\nroot root""#, "100",
        r#""exact""#, r#""{}""#,
    ];
    collection::vec((0u8..3, json_value()), DEFAULTS.len())
        .prop_map(|slots| fill(TEMPLATE, DEFAULTS, &slots))
}

/// A span file (Chrome trace-event JSON, as `--spans` and `--span-log`
/// write it) with adversarial value slots: any `ph`, name or `dur`
/// (huge, negative, non-finite once read, wrong type), ids that are not
/// strings, and — when `self_parent` is set — events naming themselves
/// as their parent.
fn spans_shaped() -> impl Strategy<Value = String> {
    const TEMPLATE: &str = concat!(
        r#"{"traceEvents":[{"ph":"M","name":"process_name","args":{"name":"wall"}},"#,
        r#"{"ph":@,"cat":@,"name":@,"ts":0,"dur":@,"args":{"id":@,"parent":@}},"#,
        r#"{"ph":"X","cat":"dp","name":@,"ts":1,"dur":@,"args":{"id":@,"parent":@}}]}"#
    );
    const DEFAULTS: &[&str] = &[
        r#""X""#, r#""serve""#, r#""request""#, "5", r#""1""#, r#""0""#, r#""dp.solve""#, "2",
        r#""2""#, r#""1""#,
    ];
    (collection::vec((0u8..3, json_value()), DEFAULTS.len()), any::<bool>()).prop_map(
        |(mut slots, self_parent)| {
            if self_parent {
                // Each event's `parent` slot takes its `id` slot's value.
                for id in [4, 8] {
                    let (keep, v) = slots[id];
                    slots[id + 1] = (0, if keep > 0 { DEFAULTS[id] } else { v });
                }
            }
            fill(TEMPLATE, DEFAULTS, &slots)
        },
    )
}

/// A span report either renders its summary or returns an error.
fn check_spans(text: &str) -> Result<(), TestCaseError> {
    if let Ok(out) = cmd_report_spans(text) {
        prop_assert!(out.starts_with("span summary: "), "{}", out);
    }
    Ok(())
}

/// An accepted trace document is one the rest of the pipeline can take:
/// its `schema` reads exactly 1, and validating and summarizing the
/// trace never panic.
fn check_trace(text: &str) -> Result<(), TestCaseError> {
    let Ok(trace) = trace_from_json(text) else {
        let _ = parse(text);
        return Ok(());
    };
    let schema = parse(text).unwrap().get("schema").and_then(|s| s.as_f64());
    prop_assert_eq!(schema, Some(1.0), "accepted another schema: {}", text);
    if trace.validate().is_ok() {
        trace.summarize().unwrap();
    }
    Ok(())
}

/// A decoded plan request carries exactly the `items` of its line.
fn check_request(line: &str) -> Result<(), TestCaseError> {
    let Ok(req) = decode_request(line) else { return Ok(()) };
    if let RequestBody::Plan(p) = &req.body {
        let items = parse(line).unwrap().get("items").and_then(|v| v.as_f64());
        prop_assert_eq!(items, Some(p.items as f64), "{}", line);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn json_readers_are_total_over_bytes(text in arbitrary_text(512)) {
        check_trace(&text)?;
        check_request(&text)?;
    }

    #[test]
    fn json_readers_are_total_over_token_soup(text in json_soup()) {
        check_trace(&text)?;
        check_request(&text)?;
    }

    #[test]
    fn trace_reader_is_total_over_schema_shapes(text in trace_shaped()) {
        check_trace(&text)?;
    }

    #[test]
    fn request_decoder_is_total_over_protocol_shapes(line in request_shaped()) {
        check_request(&line)?;
    }

    #[test]
    fn span_report_is_total_over_bytes(text in arbitrary_text(512)) {
        check_spans(&text)?;
    }

    #[test]
    fn span_report_is_total_over_span_file_shapes(text in spans_shaped()) {
        check_spans(&text)?;
    }

    #[test]
    fn nesting_past_the_limit_is_an_error(
        depth in 60usize..70,
        object in any::<bool>(),
        closed in any::<bool>(),
    ) {
        let text = nested(depth, object, closed);
        prop_assert_eq!(parse(&text).is_ok(), closed && depth <= 64, "depth {}", depth);
        check_trace(&text)?;
        check_request(&text)?;
    }

    #[test]
    fn platform_parser_is_total_over_bytes(text in arbitrary_text(512)) {
        check_platform(&text)?;
    }

    #[test]
    fn platform_parser_is_total_over_grammar_shapes(text in platform_shaped()) {
        check_platform(&text)?;
    }

    #[test]
    fn fault_parser_is_total_over_bytes(spec in arbitrary_text(256), h in 0usize..HORIZONS.len()) {
        check_faults(&spec, HORIZONS[h])?;
    }

    #[test]
    fn fault_parser_is_total_over_grammar_shapes(
        spec in fault_shaped(),
        h in 0usize..HORIZONS.len(),
    ) {
        check_faults(&spec, HORIZONS[h])?;
    }
}

#[test]
fn long_lines_and_huge_inputs_are_handled() {
    // One 1 MB line, and 10^5 short ones.
    let long = format!("proc root beta=0 alpha=0.01 {}\n", "x".repeat(1 << 20));
    assert!(parse_platform(&long).is_err());
    let many: String = (0..100_000).map(|i| format!("proc w{i} beta=1e-5 alpha=0.01\n")).collect();
    assert_eq!(parse_platform(&many).unwrap().len(), 100_000);
    let spec = "crash:w1@1%,".repeat(100_000);
    assert_eq!(FaultPlan::parse(&spec, &["w1", "root"], 10.0).unwrap().faults.len(), 100_000);
    // A 20,000-level nesting bomb is an error, not a stack overflow.
    for object in [false, true] {
        let bomb = nested(20_000, object, true);
        assert!(parse(&bomb).is_err());
        assert!(trace_from_json(&bomb).is_err());
        assert!(decode_request(&bomb).is_err());
    }
    // Times that overflow once scaled by the horizon are errors.
    assert!(FaultPlan::parse("crash:w1@1e308%", &["w1", "root"], f64::MAX).is_err());
    assert!(FaultPlan::parse("slow:w1:2@1e308%", &["w1", "root"], f64::MAX).is_err());
}

#[test]
fn span_report_survives_self_parents_and_non_finite_durations() {
    let doc = |dur: &str, parent: &str| {
        format!(
            r#"{{"traceEvents":[{{"ph":"X","cat":"c","name":"a","ts":0,"dur":{dur},"args":{{"id":"1","parent":{parent}}}}}]}}"#
        )
    };
    let own = cmd_report_spans(&doc("5", r#""1""#)).unwrap();
    assert!(own.starts_with("span summary: 1 spans, 1 names"), "{own}");
    for dur in ["1e308", "1e309", "-1e309", "-5"] {
        let _ = cmd_report_spans(&doc(dur, r#""1""#));
        let _ = cmd_report_spans(&doc(dur, "1"));
    }
}
