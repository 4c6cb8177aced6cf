//! CI bench regression gate: re-runs the smoke-sized benchmarks
//! (`algo_runtimes --smoke`, `fault_sweep --smoke`, `serve_load
//! --smoke`, `sim_scale --smoke`) and compares their deterministic
//! fields — optimal makespans, variant agreement, lost items, incident
//! counts, daemon cache invariants, simulator event counts — against
//! the committed baselines. Timing fields are machine-dependent and
//! ignored.
//!
//! The committed **full** sweeps are additionally checked for their
//! performance contracts — CI does not re-run the full-size runs, it
//! verifies the committed numbers:
//! * `--dp-full` (default `BENCH_dp.json`): D&C kernel ≥ 3× over
//!   serial Algorithm 2 at n = 100 000, p = 64;
//! * `--serve-full` (default `BENCH_serve.json`): daemon warm
//!   throughput ≥ 10 000 req/s with sub-millisecond p50;
//! * `--sim-full` (default `BENCH_sim.json`): prefix-sum fast path
//!   ≥ 10× events/sec over the seed heap engine on at least one
//!   classic-timed row with p ≥ 10⁴ (the 10⁷ row in the committed
//!   document).
//!
//! Flags: `--dp PATH` (default `BENCH_dp.smoke.json`), `--dp-full PATH`,
//! `--faults PATH` (default `BENCH_faults.smoke.json`), `--serve PATH`
//! (default `BENCH_serve.smoke.json`), `--serve-full PATH`,
//! `--sim PATH` (default `BENCH_sim.smoke.json`), `--sim-full PATH`,
//! `--threads T`, `--tolerance R` (relative, default 1e-4), `--update`
//! (rewrite the smoke baselines from the fresh run instead of
//! checking). Exits nonzero on any mismatch.
use std::process::ExitCode;

use gs_bench::experiments::faultexp::{fault_sweep, fault_sweep_json};
use gs_bench::experiments::runtimes::{dp_perf_json, dp_perf_trajectory};
use gs_bench::experiments::serveexp::{serve_load, serve_load_json, ServeLoadConfig};
use gs_bench::experiments::simexp::{sim_scale, sim_scale_json, SimScaleConfig};
use gs_bench::gate::{
    check_dc_speedup, check_dp, check_faults, check_serve, check_serve_perf, check_sim,
    check_sim_perf, DC_GATE_CASE, DC_GATE_MIN_SPEEDUP, SERVE_GATE_MIN_RPS, SIM_GATE_MIN_SPEEDUP,
    SMOKE_DP_CASES, SMOKE_FAULT_ITEMS, SMOKE_FAULT_SEEDS,
};
use gs_bench::util::{arg_f64, arg_flag, arg_str, arg_usize};
use gs_scatter::obs::json::parse;

fn main() -> ExitCode {
    let dp_path = arg_str("--dp", "BENCH_dp.smoke.json");
    let dp_full_path = arg_str("--dp-full", "BENCH_dp.json");
    let faults_path = arg_str("--faults", "BENCH_faults.smoke.json");
    let serve_path = arg_str("--serve", "BENCH_serve.smoke.json");
    let serve_full_path = arg_str("--serve-full", "BENCH_serve.json");
    let sim_path = arg_str("--sim", "BENCH_sim.smoke.json");
    let sim_full_path = arg_str("--sim-full", "BENCH_sim.json");
    let threads = arg_usize("--threads", 4);
    let tol = arg_f64("--tolerance", 1e-4);
    let update = arg_flag("--update");

    println!(
        "bench gate: dp cases {SMOKE_DP_CASES:?}, fault sweep n = {SMOKE_FAULT_ITEMS} \
         seeds {SMOKE_FAULT_SEEDS:?}"
    );
    let dp = dp_perf_trajectory(SMOKE_DP_CASES, threads);
    let (_, faults) = fault_sweep(SMOKE_FAULT_ITEMS, SMOKE_FAULT_SEEDS);
    let served = serve_load(ServeLoadConfig::smoke());
    let simmed = sim_scale(&SimScaleConfig::smoke());

    if update {
        std::fs::write(&dp_path, dp_perf_json(&dp, threads, None))
            .unwrap_or_else(|e| panic!("write {dp_path}: {e}"));
        std::fs::write(&faults_path, fault_sweep_json(SMOKE_FAULT_ITEMS, &faults, None))
            .unwrap_or_else(|e| panic!("write {faults_path}: {e}"));
        std::fs::write(&serve_path, serve_load_json(&served))
            .unwrap_or_else(|e| panic!("write {serve_path}: {e}"));
        std::fs::write(&sim_path, sim_scale_json(&simmed))
            .unwrap_or_else(|e| panic!("write {sim_path}: {e}"));
        println!("baselines rewritten: {dp_path}, {faults_path}, {serve_path}, {sim_path}");
        return ExitCode::SUCCESS;
    }

    let load = |path: &str| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {path}: {e} (run with --update to create it)"));
        parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
    };
    let mut bad = check_dp(&load(&dp_path), &dp, tol);
    bad.extend(check_faults(&load(&faults_path), &faults, tol));
    bad.extend(check_serve(&load(&serve_path), &served, tol));
    bad.extend(check_sim(&load(&sim_path), &simmed, tol));
    bad.extend(check_dc_speedup(&load(&dp_full_path)));
    bad.extend(check_serve_perf(&load(&serve_full_path)));
    bad.extend(check_sim_perf(&load(&sim_full_path)));

    if bad.is_empty() {
        println!(
            "bench gate: OK ({} dp row(s), {} fault row(s), serve + sim smoke runs match \
             the baselines; committed {dp_full_path} holds the >= {DC_GATE_MIN_SPEEDUP}x dc \
             speedup at (n, p) = {DC_GATE_CASE:?}; committed {serve_full_path} holds \
             >= {SERVE_GATE_MIN_RPS:.0} req/s warm with sub-ms p50; committed \
             {sim_full_path} holds the >= {SIM_GATE_MIN_SPEEDUP}x fast-path speedup; \
             tolerance {tol:.0e})",
            dp.len(),
            faults.len()
        );
        ExitCode::SUCCESS
    } else {
        for m in &bad {
            eprintln!("bench gate: MISMATCH {m}");
        }
        eprintln!(
            "bench gate: {} mismatch(es) vs {dp_path} / {faults_path} / {serve_path} / \
             {sim_path}; if the model change is intended, regenerate with \
             `bench_gate --update`",
            bad.len()
        );
        ExitCode::FAILURE
    }
}
