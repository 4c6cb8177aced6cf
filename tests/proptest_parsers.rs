//! The text parsers behind `gs` and `gs serve` are total: over arbitrary
//! bytes and adversarial shapes — huge numbers, NaN/inf spellings,
//! invalid UTF-8, very long lines — `platform_file::parse_platform` and
//! `FaultPlan::parse` return `Ok` or a typed error, never panic, and
//! what they accept is well-formed (finite, non-negative numbers).

use grid_scatter::prelude::{Planner, Strategy as PlanStrategy};
use grid_scatter::scatter::fault::{FaultKind, FaultPlan};
use grid_scatter::scatter::platform_file::parse_platform;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

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
    // Times that overflow once scaled by the horizon are errors.
    assert!(FaultPlan::parse("crash:w1@1e308%", &["w1", "root"], f64::MAX).is_err());
    assert!(FaultPlan::parse("slow:w1:2@1e308%", &["w1", "root"], f64::MAX).is_err());
}
