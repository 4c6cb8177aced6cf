//! End-to-end benchmark of the grid-scatter workspace.
//!
//! ```text
//! e2ebench --workload paper|affine|sim --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Each invocation runs one workload in its own process and prints, as
//! its last stdout line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! span-traced run with `--trace 1`. Every workload reports the same
//! metric names ([`END_TO_END`], [`PER_LAYER`]); `README.md` lists them.

mod inputs;
mod planning;
mod report;
mod serve;
mod sim;
mod trace;

use report::Report;

/// The end-to-end metrics every workload reports untraced.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("cycle_s", "s"), ("op_geomean_s", "s")];

/// The per-layer metrics every workload reports traced. A layer the
/// workload does not call reports 0: no self time, no work.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cost_table.tabulate_s", "s"),
    ("cost_table.bytes", "bytes"),
    ("dp.optimized.solve_s", "s"),
    ("dp.optimized.cells", "count"),
    ("dp.optimized.solve_pruned_s", "s"),
    ("dp.dc.solve_s", "s"),
    ("dp.dc.cells", "count"),
    ("dp.dc.solve_2t_s", "s"),
    ("dp.plane_bytes", "bytes"),
    ("heuristic.solve_s", "s"),
    ("closed_form.solve_s", "s"),
    ("ordering.scatter_order_s", "s"),
    ("distribution.timeline_s", "s"),
    ("planner.unattributed_s", "s"),
    ("fault.replan_s", "s"),
    ("plan_cache.hits", "count"),
    ("dp.warm.cells", "count"),
    ("protocol.encode_request_s", "s"),
    ("protocol.decode_request_s", "s"),
    ("protocol.encode_response_s", "s"),
    ("protocol.decode_response_s", "s"),
    ("engine.handle_hit_s", "s"),
    ("engine.handle_miss_s", "s"),
    ("transport.rtt_s", "s"),
    ("engine.hits", "count"),
    ("engine.computes", "count"),
    ("engine.shed", "count"),
    ("engine.errors", "count"),
    ("bigsim.star_durations_s", "s"),
    ("bigsim.simulate_star_s", "s"),
    ("bigsim.events", "count"),
    ("gridsim.classic.simulate_s", "s"),
    ("gridsim.classic.events", "count"),
    ("minimpi.root_scatterv_s", "s"),
    ("minimpi.recv_wait_s", "s"),
    ("minimpi.pool_overhead_s", "s"),
    ("minimpi.messages", "count"),
    ("minimpi.bytes", "bytes"),
    ("trace.attributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Which set of metrics a run produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced: the end-to-end metrics.
    EndToEnd,
    /// Span-traced: the per-layer metrics.
    Traced,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub mode: Mode,
    pub smoke: bool,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        mode: Mode::EndToEnd,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.mode = match value.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Traced,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !out.seconds.is_finite() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// Runs one workload and returns its report, which holds exactly the
/// metrics of its mode.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let mut report = Report::default();
    match args.workload.as_str() {
        "paper" => planning::run(&planning::paper(args.smoke), args, &mut report),
        "affine" => planning::run(&planning::affine(args.smoke), args, &mut report),
        "sim" => sim::run(&sim::cfg(args.smoke), args, &mut report),
        other => return Err(format!("unknown workload `{other}` (paper|affine|sim)")),
    }
    match args.mode {
        Mode::EndToEnd => report.check_metrics(END_TO_END)?,
        Mode::Traced => {
            report.fill_absent(PER_LAYER);
            report.check_metrics(PER_LAYER)?;
        }
    }
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload paper|affine|sim --seed N --seconds S --trace 0|1 [--smoke]");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Report {
        let args = RunArgs {
            workload: workload.into(),
            seed: 7,
            seconds: 0.2,
            mode: if trace { Mode::Traced } else { Mode::EndToEnd },
            smoke: true,
        };
        run(&args).expect("workload runs and reports its metrics")
    }

    // The workloads share the process-global tracer and metrics
    // registry, so one test runs them in sequence. `run` itself checks
    // that each report holds exactly the metrics of its mode.
    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        for workload in ["paper", "affine", "sim"] {
            for trace in [false, true] {
                let r = smoke(workload, trace);
                assert_eq!(r.failed(), 0, "{workload}: {}", r.to_json());
                assert!(r.to_json().starts_with("{\"correct\": true"), "{}", r.to_json());
            }
        }
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = &manifest[manifest.find(&format!("\"{section}\"")).unwrap()..];
            let body = &body[..body.find(']').unwrap()];
            let named: Vec<String> = body
                .lines()
                .filter_map(|l| l.split("\"name\": \"").nth(1))
                .map(|rest| rest.split('"').next().unwrap().to_string())
                .collect();
            let ours: Vec<String> = list.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(named, ours, "{section}");
            for (name, unit) in list {
                assert!(body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload sim --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.mode), (3, 10.0, Mode::Traced));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seconds inf")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
        assert!(run(&parse_args(&argv("--workload nope")).unwrap()).is_err());
    }
}
