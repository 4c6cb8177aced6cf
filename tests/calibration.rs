//! End-to-end calibration and drift-gate checks, at the `gs` command
//! level (the ISSUE acceptance criteria for the observability PR):
//!
//! * `gs calibrate` on executed traces of a synthetic affine platform
//!   recovers every `(β_i, b_i, α_i, a_i)` within 1% relative error;
//! * the drift gate passes a faithful trace and fails a perturbed model,
//!   which is exactly what the CI steps script around exit codes.

use grid_scatter::scatter::calibrate::{Calibration, DriftReport};
use grid_scatter::scatter::obs::json::trace_from_json;
use grid_scatter::scatter::planner::Strategy;
use grid_scatter::scatter::platform_file::parse_platform;
use gs_cli::commands::{cmd_calibrate, cmd_report_drift, cmd_trace, PlanOptions};

/// A deliberately heterogeneous affine platform: every processor has
/// nonzero slopes *and* intercepts so all four parameters per rank are
/// observable.
const AFFINE_PLATFORM: &str = "\
proc root beta=0 alpha=0.011 comp_intercept=0.003\n\
proc w1 beta=1.3e-4 alpha=0.0047 comm_intercept=0.02 comp_intercept=0.001\n\
proc w2 beta=2.9e-4 alpha=0.0162 comm_intercept=0.007 comp_intercept=0.004\n\
proc w3 beta=6.1e-5 alpha=0.0081 comm_intercept=0.013 comp_intercept=0.002\n\
root root\n";

fn opts(items: usize) -> PlanOptions {
    PlanOptions { items, ..Default::default() }
}

fn executed(items: usize) -> String {
    cmd_trace(AFFINE_PLATFORM, &opts(items), "executed", 8).unwrap()
}

#[test]
fn calibrate_recovers_affine_params_within_one_percent() {
    // Two different problem sizes give two (n, T) samples per rank and
    // cost kind — enough to solve for slope and intercept.
    let traces: Vec<_> = [700usize, 1900]
        .iter()
        .map(|&n| trace_from_json(&executed(n)).unwrap())
        .collect();
    let cal = Calibration::from_traces(&traces).unwrap();
    let fitted = cal.platform().unwrap();
    let truth = parse_platform(AFFINE_PLATFORM).unwrap();

    for fit in fitted.procs() {
        let real = truth.procs().iter().find(|p| p.name == fit.name).unwrap();
        let (fit_ci, fit_b) = fit.comm.affine_params().unwrap_or((0.0, 0.0));
        let (real_ci, real_b) = real.comm.affine_params().unwrap_or((0.0, 0.0));
        let (fit_pi, fit_a) = fit.comp.affine_params().unwrap();
        let (real_pi, real_a) = real.comp.affine_params().unwrap();
        let within = |fitted: f64, real: f64, what: &str| {
            let rel = (fitted - real).abs() / real.abs().max(1e-12);
            assert!(rel < 0.01, "{}: {what} fitted {fitted} vs real {real} (rel {rel:.2e})",
                    fit.name);
        };
        // The root keeps its block: its link is unobservable and must
        // come back as a zero cost, not a fantasy fit.
        if fit.name == "root" {
            assert_eq!((fit_ci, fit_b), (0.0, 0.0), "root comm must fit to zero");
        } else {
            within(fit_b, real_b, "beta");
            within(fit_ci, real_ci, "comm intercept");
        }
        within(fit_a, real_a, "alpha");
        within(fit_pi, real_pi, "comp intercept");
    }
}

#[test]
fn calibrated_replan_matches_the_true_optimum() {
    let traces: Vec<_> = [700usize, 1900]
        .iter()
        .map(|&n| trace_from_json(&executed(n)).unwrap())
        .collect();
    let cal = Calibration::from_traces(&traces).unwrap();
    let replanned = cal.replan(5_000, Strategy::Heuristic).unwrap();
    let truth = parse_platform(AFFINE_PLATFORM).unwrap();
    let reference = gs_scatter::planner::Planner::new(truth).plan(5_000).unwrap();
    let rel = (replanned.predicted_makespan - reference.predicted_makespan).abs()
        / reference.predicted_makespan;
    assert!(rel < 1e-2, "replanned {} vs reference {} (rel {rel:.2e})",
            replanned.predicted_makespan, reference.predicted_makespan);
}

#[test]
fn cmd_calibrate_output_reparses_as_a_platform() {
    let out = cmd_calibrate(&[executed(700), executed(1900)]).unwrap();
    let fitted = parse_platform(&out).unwrap();
    assert_eq!(fitted.len(), 4);
    assert_eq!(fitted.procs()[fitted.root()].name, "root");
}

#[test]
fn drift_gate_exit_semantics() {
    let exec = executed(1200);

    // Faithful model: gate passes.
    let (out, ok) = cmd_report_drift(std::slice::from_ref(&exec), 40, AFFINE_PLATFORM, 0.01).unwrap();
    assert!(ok, "{out}");
    assert!(out.contains("drift check: OK"), "{out}");

    // A 2× error on one worker's compute slope: gate fails, and the
    // report names the offending rank with a flag marker.
    let wrong = AFFINE_PLATFORM.replace("alpha=0.0162", "alpha=0.0324");
    let (out, ok) = cmd_report_drift(std::slice::from_ref(&exec), 40, &wrong, 0.01).unwrap();
    assert!(!ok, "{out}");
    assert!(out.contains("FAIL"), "{out}");
    let w2_row = out
        .lines()
        .find(|l| l.trim_start().starts_with("w2") && l.contains('⚠'))
        .unwrap_or_else(|| panic!("w2 must be flagged:\n{out}"));
    assert!(w2_row.contains('⚠'));

    // The same drift measured directly: only w2 is beyond tolerance.
    let platform = parse_platform(&wrong).unwrap();
    let trace = trace_from_json(&exec).unwrap();
    let report = DriftReport::from_trace(&platform, &trace, 0.01).unwrap();
    for row in &report.rows {
        assert_eq!(row.flagged, row.name == "w2", "{}: {}", row.name, row.max_rel);
    }
}
