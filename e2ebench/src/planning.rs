//! The `paper` and `affine` workloads: every planning strategy plus the
//! warm residual re-plan after a crash, on one platform. `paper` then
//! also serves plans through the daemon ([`crate::serve`]).
//!
//! The end-to-end run times whole `Planner::plan` and
//! `fault::replan_residual_with` calls; one cycle of the workload runs
//! each timed operation once. The traced run repeats the same
//! plans through the layers' public functions — scatter order, cost
//! tabulation, solver, timeline — with a span around each call, and
//! checks that the decomposition returns the planner's answer.

use std::collections::BTreeMap;
use std::sync::Arc;

use gs_scatter::closed_form::closed_form_distribution;
use gs_scatter::cost::{Platform, Processor};
use gs_scatter::cost_table::CostTable;
use gs_scatter::distribution::timeline;
use gs_scatter::error::PlanError;
use gs_scatter::fault::{replan_residual, replan_residual_with, ResidualPlan};
use gs_scatter::heuristic::heuristic_distribution;
use gs_scatter::obs::span::{self, span};
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::parallel::{
    optimal_distribution_dc_parallel_timed, optimal_distribution_parallel_timed, ParallelOpts,
};
use gs_scatter::planner::{Plan, PlanCache, Planner, Strategy};
use gs_scatter::platform_file::parse_platform;

use crate::report::{
    check_repeats, median, median_count, peak_rss_mb, print_samples, repeat_for, timed, Counters,
    Report,
};
use crate::trace::{self, Instance, LAYER, OP};
use crate::{inputs, serve};
use crate::{Mode, RunArgs};

/// One planning workload.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Platform-file text.
    pub text: String,
    /// Items for the closed form and the heuristic, whose cost does not
    /// depend on `n`.
    pub n_fast: usize,
    /// Items for Algorithm 2, exact-dc and the re-plan.
    pub n_dp: usize,
    /// Whether the platform is linear, so the closed form applies.
    pub closed_form: bool,
    /// Whether the heuristic is one of the timed operations of the
    /// end-to-end cycle. On the affine
    /// platform its big-rational LP swung by ±30% between runs with
    /// other tenants' load, more than any bound allows, so there it is
    /// only traced (and checked). The closed form is traced only
    /// everywhere, for the same reason.
    pub timed_heuristic: bool,
    /// The serving part, run after the planning part for the last
    /// [`SERVE_SHARE`] of the run.
    pub serve: Option<serve::Cfg>,
}

/// Share of the run's seconds the serving part gets.
const SERVE_SHARE: f64 = 0.25;

/// Table 1 at the paper's n for the O(p) solvers, 200,000 for the DPs.
pub fn paper(smoke: bool) -> Cfg {
    Cfg {
        text: inputs::TABLE1.to_string(),
        n_fast: if smoke { 20_000 } else { inputs::N_RAYS },
        n_dp: if smoke { 2_000 } else { 200_000 },
        closed_form: true,
        timed_heuristic: true,
        serve: Some(serve::cfg(smoke)),
    }
}

/// The p = 32 affine platform at the paper's n throughout.
pub fn affine(smoke: bool) -> Cfg {
    let n = if smoke { 5_000 } else { inputs::N_RAYS };
    Cfg {
        text: inputs::affine_platform(32),
        n_fast: n,
        n_dp: n,
        closed_form: false,
        timed_heuristic: false,
        serve: None,
    }
}

/// Platform parses per run; their median plus the warm-up repetition is
/// `setup_s`.
const SETUPS: usize = 51;

const CELLS: &[&str] = &["dp_cells_evaluated_total"];

/// Everything one repetition produced, for the checks after the run.
#[derive(Default)]
struct Outputs {
    closed_form: Vec<Plan>,
    heuristic: Vec<Plan>,
    exact: Vec<Plan>,
    dc: Vec<Plan>,
    warm: Vec<(Vec<usize>, ResidualPlan)>,
    exact_cells: Vec<u64>,
    dc_cells: Vec<u64>,
    warm_cells: Vec<u64>,
    warm_hits: Vec<u64>,
    /// Traced run only: the most distinct cost functions one solve
    /// tabulated.
    table_fns: usize,
}

/// Wall seconds of each timed operation, by end-to-end metric name.
type Samples = BTreeMap<&'static str, Vec<f64>>;

pub fn run(cfg: &Cfg, args: &RunArgs, report: &mut Report) {
    // Set-up: parse the platform file. Repeated, median reported.
    let mut setups = Vec::new();
    let mut platform = None;
    for _ in 0..SETUPS {
        let (p, secs) = timed(|| parse_platform(&cfg.text).expect("benchmark platform parses"));
        setups.push(secs);
        platform = Some(p);
    }
    let platform = platform.expect("at least one set-up");

    match args.mode {
        Mode::EndToEnd => end_to_end(cfg, &platform, args, report, median(&setups)),
        Mode::Traced => traced(cfg, &platform, args, report),
    }
}

fn end_to_end(cfg: &Cfg, platform: &Platform, args: &RunArgs, report: &mut Report, setup: f64) {
    let mut out = Outputs::default();
    let mut samples = Samples::new();
    // The first repetition warms the allocator and the plane pool and
    // is discarded; as the last step before the first timed operation it
    // belongs to the set-up. The parse alone takes microseconds, and at
    // that scale its time depends on the process's address layout by up
    // to 2x.
    let (_, warm_up) =
        timed(|| planner_rep(cfg, platform, &mut Samples::new(), &mut Outputs::default(), report));
    let mut rss = None;
    let reps = repeat_for(planning_seconds(cfg, args), 2, || {
        planner_rep(cfg, platform, &mut samples, &mut out, report);
        rss.get_or_insert_with(peak_rss_mb);
    });
    verify(cfg, platform, &out, report);
    print_samples(reps, &samples);

    // One cycle runs each timed operation once; a batch of requests is
    // one operation.
    let mut ops: Vec<f64> = samples.values().map(|v| median(v)).collect();
    let mut setup = setup + warm_up;
    if let Some(serve_cfg) = &cfg.serve {
        let served = serve::end_to_end(serve_cfg, args.seed, args.seconds * SERVE_SHARE, report);
        setup += served.setup;
        // The process's peak so far: the planning part's and the
        // daemon's.
        rss = served.rss;
        ops.push(served.cycle);
    }
    report.end_to_end(setup, rss, ops.iter().sum(), &ops);
}

/// Seconds of the planning part of the run.
fn planning_seconds(cfg: &Cfg, args: &RunArgs) -> f64 {
    match cfg.serve {
        Some(_) => args.seconds * (1.0 - SERVE_SHARE),
        None => args.seconds,
    }
}

/// One repetition of the timed operations: `Planner::plan` for the
/// heuristic (where timed), Algorithm 2 and exact-dc, then the warm
/// re-plan after the first-served worker crashes. Algorithm 2 runs with
/// a fresh `PlanCache`, which the re-plan then warm-starts from.
fn planner_rep(
    cfg: &Cfg,
    platform: &Platform,
    samples: &mut Samples,
    out: &mut Outputs,
    report: &mut Report,
) {
    let planner = |s: Strategy| Planner::new(platform.clone()).strategy(s);
    if cfg.timed_heuristic {
        let heuristic = planner(Strategy::Heuristic);
        let (plan, secs) = timed(|| heuristic.plan(cfg.n_fast));
        keep(report, plan, "heuristic", &mut out.heuristic);
        samples.entry("plan_heuristic_s").or_default().push(secs);
    }

    let cache = Arc::new(PlanCache::new());
    let exact = planner(Strategy::Exact).plan_cache(Arc::clone(&cache));
    let cells = Counters::start(CELLS);
    let (plan, secs) = timed(|| exact.plan(cfg.n_dp));
    out.exact_cells.push(cells.delta()[0]);
    samples.entry("plan_exact_s").or_default().push(secs);
    let order = plan.as_ref().map(|p| p.order.clone()).ok();
    keep(report, plan, "Algorithm 2", &mut out.exact);

    let dc = planner(Strategy::ExactDc);
    let cells = Counters::start(CELLS);
    let (plan, secs) = timed(|| dc.plan(cfg.n_dp));
    out.dc_cells.push(cells.delta()[0]);
    samples.entry("plan_exact_dc_s").or_default().push(secs);
    keep(report, plan, "exact-dc", &mut out.dc);

    if let Some(order) = order {
        warm_replan(cfg, platform, order, &cache, samples, out, report);
    }
}

/// The warm re-plan after the first-served worker crashed, from the
/// plane Algorithm 2 left in `cache`.
fn warm_replan(
    cfg: &Cfg,
    platform: &Platform,
    order: Vec<usize>,
    cache: &Arc<PlanCache>,
    samples: &mut Samples,
    out: &mut Outputs,
    report: &mut Report,
) {
    let view = platform.ordered(&order);
    let alive = survivors(view.len());
    let counters = Counters::start(&["dp_cells_evaluated_total", "plan_cache_hits_total"]);
    let (warm, secs) = timed(|| {
        replan_residual_with(&view, &alive, cfg.n_dp as u64, Strategy::Exact, Some(cache))
    });
    let d = counters.delta();
    out.warm_cells.push(d[0]);
    out.warm_hits.push(d[1]);
    samples.entry("replan_warm_s").or_default().push(secs);
    match warm {
        Ok(w) => out.warm.push((order, w)),
        Err(e) => report.op(false, || format!("warm re-plan: {e}")),
    }
}

/// Liveness after the first-served worker (scatter position 0) crashed.
fn survivors(p: usize) -> Vec<bool> {
    (0..p).map(|i| i != 0).collect()
}

fn keep(report: &mut Report, plan: Result<Plan, PlanError>, what: &str, into: &mut Vec<Plan>) {
    match plan {
        Ok(p) => into.push(p),
        Err(e) => report.op(false, || format!("{what}: {e}")),
    }
}

fn same_plan(a: &Plan, b: &Plan) -> bool {
    a.counts == b.counts
        && a.order == b.order
        && a.predicted_makespan.to_bits() == b.predicted_makespan.to_bits()
}

/// Eq. (4) slack: `Σ_j Tcomm(j, 1) + max_i Tcomp(i, 1)` over the
/// scatter-order view.
fn eq4_slack(view: &[&Processor]) -> f64 {
    let comm: f64 = view.iter().map(|p| p.comm.eval(1)).sum();
    let comp = view.iter().map(|p| p.comp.eval(1)).fold(0.0, f64::max);
    comm + comp
}

/// Checks every timed answer; each answer is one attempted operation.
fn verify(cfg: &Cfg, platform: &Platform, out: &Outputs, report: &mut Report) {
    // Algorithm 2 ≡ exact-dc, bit for bit, repetition by repetition.
    for (i, (a, d)) in out.exact.iter().zip(&out.dc).enumerate() {
        report.op(same_plan(a, d), || format!("repetition {i}: exact-dc differs from Algorithm 2"));
        report
            .op(a.total_items() == cfg.n_dp, || format!("repetition {i}: Algorithm 2 lost items"));
    }
    let Some(exact) = out.exact.first() else {
        report.op(false, || "no Algorithm 2 plan to check against".into());
        return;
    };
    let view = platform.ordered(&exact.order);
    let slack = eq4_slack(&view);

    // Closed form against exact on Table 1. The closed form rounds the
    // rational optimum, so its makespan is not Algorithm 2's bit for
    // bit; the check is the rounding bound at the DP's n: rational
    // optimum <= exact <= closed form <= rational optimum + Eq. (4)
    // slack. The timed plans at the paper's n must equal the rational
    // solution rounded.
    let mut lower_bound = None;
    if cfg.closed_form {
        let rational = closed_form_distribution(&view, cfg.n_dp).map(|r| r.duration.to_f64());
        let at_dp = Planner::new(platform.clone()).strategy(Strategy::ClosedForm).plan(cfg.n_dp);
        let t = exact.predicted_makespan;
        let ok = match (&rational, &at_dp) {
            (Ok(d), Ok(cf)) => {
                let tol = 1e-9 * t;
                *d <= t + tol
                    && t <= cf.predicted_makespan
                    && cf.predicted_makespan <= d + slack + tol
            }
            _ => false,
        };
        report.op(ok, || {
            let cf = at_dp.as_ref().map(|p| p.predicted_makespan);
            format!(
                "closed form at n = {}: rational {rational:?}, rounded {cf:?}, Algorithm 2 {t}",
                cfg.n_dp
            )
        });
        let order = scatter_order(platform, OrderPolicy::DescendingBandwidth);
        let reference = closed_form_distribution(&platform.ordered(&order), cfg.n_fast);
        for (i, plan) in out.closed_form.iter().enumerate() {
            let ok = reference.as_ref().is_ok_and(|r| r.counts == plan.counts_in_order());
            report.op(ok, || format!("closed-form call {i} differs from the rational solution"));
        }
        lower_bound = reference.ok().map(|r| r.duration.to_f64());
    }
    // The heuristic lies within Eq. (4) of the optimum: against the
    // exact plan at the same n, or else below the rational optimum
    // (a lower bound on it) plus the slack.
    let (floor, what) = if cfg.n_fast == cfg.n_dp {
        (Some(exact.predicted_makespan), "Algorithm 2")
    } else {
        (lower_bound, "the rational optimum")
    };
    for (i, h) in out.heuristic.iter().enumerate() {
        let ok = floor.is_some_and(|t| {
            let tol = 1e-9 * t;
            h.total_items() == cfg.n_fast
                && h.predicted_makespan >= t - tol
                && h.predicted_makespan <= t + slack + tol
        });
        report.op(ok, || {
            format!(
                "heuristic {i}: makespan {} not within Eq. (4) of {what} {floor:?}",
                h.predicted_makespan
            )
        });
    }

    // Warm re-plan ≡ cold re-plan, bit for bit.
    if let Some((order, _)) = out.warm.first() {
        let view = platform.ordered(order);
        let cold = replan_residual(&view, &survivors(view.len()), cfg.n_dp as u64, Strategy::Exact);
        report.op(cold.is_ok(), || format!("cold re-plan: {:?}", cold.as_ref().err()));
        for (i, (_, warm)) in out.warm.iter().enumerate() {
            let ok = cold.as_ref().is_ok_and(|c| {
                c.counts == warm.counts
                    && c.positions == warm.positions
                    && c.predicted_makespan.to_bits() == warm.predicted_makespan.to_bits()
            });
            report.op(ok, || format!("warm re-plan {i} differs from the cold re-plan"));
        }
    }
    // Work counts repeat exactly; every warm re-plan hits the cache.
    check_repeats(report, "Algorithm 2 DP cells", &out.exact_cells);
    check_repeats(report, "exact-dc DP cells", &out.dc_cells);
    check_repeats(report, "warm re-plan DP cells", &out.warm_cells);
    for (i, &hits) in out.warm_hits.iter().enumerate() {
        report.op(hits == 1, || format!("warm re-plan {i}: {hits} plan-cache hits, expected 1"));
    }
}

// ---- traced run -----------------------------------------------------------

/// Operations of the traced repetition whose wall time the tracer
/// overhead and the attribution ratio are taken over.
const CORE_OPS: &[&str] =
    &["plan_closed_form", "plan_heuristic", "plan_exact", "plan_exact_dc", "replan_warm"];

/// A plan assembled from the layers' public functions: the same steps
/// `Planner::plan_with_order` takes, each under its own span.
fn plan_by_layers(
    platform: &Platform,
    strategy: Strategy,
    n: usize,
    opts: &ParallelOpts,
) -> Result<(Plan, usize), PlanError> {
    let op_name = match (strategy, opts.threads, opts.prune) {
        (Strategy::ClosedForm, ..) => "plan_closed_form",
        (Strategy::Heuristic, ..) => "plan_heuristic",
        (Strategy::Exact, _, true) => "plan_exact_pruned",
        (Strategy::Exact, ..) => "plan_exact",
        (Strategy::ExactDc, 1, _) => "plan_exact_dc",
        _ => "plan_exact_dc_2t",
    };
    let _op = span(OP, op_name);
    let order = {
        let _s = span(LAYER, "ordering.scatter_order");
        scatter_order(platform, OrderPolicy::DescendingBandwidth)
    };
    let view = platform.ordered(&order);
    let mut table_fns = 0;
    let counts_ordered = match strategy {
        Strategy::ClosedForm => {
            let _s = span(LAYER, "closed_form.solve");
            closed_form_distribution(&view, n)?.counts
        }
        Strategy::Heuristic => {
            let _s = span(LAYER, "heuristic.solve");
            heuristic_distribution(&view, n)?.counts
        }
        _ => {
            let table = CostTable::new();
            {
                let _s = span(LAYER, "cost_table.tabulate");
                for pr in &view {
                    table.tabulate(&pr.comm, n);
                    table.tabulate(&pr.comp, n);
                }
            }
            table_fns = table.len();
            if strategy == Strategy::ExactDc {
                let _s = span(LAYER, "dp.dc.solve");
                optimal_distribution_dc_parallel_timed(&table, &view, n, opts)?.0.counts
            } else {
                let _s = span(LAYER, "dp.optimized.solve");
                optimal_distribution_parallel_timed(&table, &view, n, opts)?.0.counts
            }
        }
    };
    let predicted = {
        let _s = span(LAYER, "distribution.timeline");
        timeline(&view, &counts_ordered)
    };
    let p = platform.len();
    let (mut counts, mut displs, mut offset) = (vec![0; p], vec![0; p], 0);
    for (pos, &idx) in order.iter().enumerate() {
        counts[idx] = counts_ordered[pos];
        displs[idx] = offset;
        offset += counts_ordered[pos];
    }
    let predicted_makespan = predicted.makespan();
    let timing = gs_scatter::obs::PlanTiming::simple("layers", 0.0);
    Ok((Plan { counts, displs, order, predicted, predicted_makespan, timing }, table_fns))
}

/// One repetition through the layers. Returns the summed wall seconds
/// of the core operations (the tracer-overhead base).
fn layer_rep(cfg: &Cfg, platform: &Platform, out: &mut Outputs, report: &mut Report) -> f64 {
    let serial = ParallelOpts::serial();
    let mut wall = 0.0;
    let mut table_fns = 0;
    let mut step =
        |strategy: Strategy, n: usize, into: &mut Vec<Plan>, cells: Option<&mut Vec<u64>>| {
            let c = Counters::start(CELLS);
            let (r, secs) = timed(|| plan_by_layers(platform, strategy, n, &serial));
            wall += secs;
            if let Some(cells) = cells {
                cells.push(c.delta()[0]);
            }
            match r {
                Ok((plan, fns)) => {
                    table_fns = table_fns.max(fns);
                    into.push(plan);
                }
                Err(e) => report.op(false, || format!("{strategy:?} by layers: {e}")),
            }
        };
    if cfg.closed_form {
        step(Strategy::ClosedForm, cfg.n_fast, &mut out.closed_form, None);
    }
    step(Strategy::Heuristic, cfg.n_fast, &mut out.heuristic, None);
    step(Strategy::Exact, cfg.n_dp, &mut out.exact, Some(&mut out.exact_cells));
    step(Strategy::ExactDc, cfg.n_dp, &mut out.dc, Some(&mut out.dc_cells));
    out.table_fns = out.table_fns.max(table_fns);

    // The re-plan warm-starts from the plane of a planner solve; that
    // priming solve is set-up, outside every operation span. It is also
    // the check that the layer-by-layer plan is the planner's plan.
    let cache = Arc::new(PlanCache::new());
    let primed = Planner::new(platform.clone())
        .strategy(Strategy::Exact)
        .plan_cache(Arc::clone(&cache))
        .plan(cfg.n_dp);
    let Some(by_layers) = out.exact.last() else {
        return wall;
    };
    report.op(primed.as_ref().is_ok_and(|p| same_plan(p, by_layers)), || {
        "layer-by-layer Algorithm 2 differs from Planner::plan".into()
    });
    let view = platform.ordered(&by_layers.order);
    let alive = survivors(view.len());
    let c = Counters::start(&["dp_cells_evaluated_total", "plan_cache_hits_total"]);
    let (warm, secs) = timed(|| {
        let _op = span(OP, "replan_warm");
        let _s = span(LAYER, "fault.replan");
        replan_residual_with(&view, &alive, cfg.n_dp as u64, Strategy::Exact, Some(&cache))
    });
    wall += secs;
    let d = c.delta();
    out.warm_cells.push(d[0]);
    out.warm_hits.push(d[1]);
    match warm {
        Ok(w) => out.warm.push((by_layers.order.clone(), w)),
        Err(e) => report.op(false, || format!("warm re-plan: {e}")),
    }
    wall
}

fn traced(cfg: &Cfg, platform: &Platform, args: &RunArgs, report: &mut Report) {
    let mut out = Outputs::default();
    // Warm-up, then untraced and traced repetitions of the same code:
    // their wall-time ratio is the tracer's overhead. They alternate, so
    // a slow spell of the host does not land on one side of the ratio.
    layer_rep(cfg, platform, &mut Outputs::default(), report);
    let (mut untraced, mut traced_walls, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    repeat_for(planning_seconds(cfg, args), 2, || {
        let trace_this = untraced.len() > traced_walls.len();
        span::set_enabled(trace_this);
        let wall = layer_rep(cfg, platform, &mut out, report);
        if !trace_this {
            return untraced.push(wall);
        }
        traced_walls.push(wall);
        if let Err(e) = trace::collect(&mut spans) {
            report.op(false, || e);
        }
    });
    span::set_enabled(true);
    // Evidence for the thread and pruning defaults: the same solves with
    // two threads, and Algorithm 2 pruned.
    let two = ParallelOpts { threads: 2, prune: false, chunk: 0 };
    let pruned = ParallelOpts { threads: 1, prune: true, chunk: 0 };
    for (strategy, opts, into) in
        [(Strategy::ExactDc, two, &mut out.dc), (Strategy::Exact, pruned, &mut out.exact)]
    {
        match plan_by_layers(platform, strategy, cfg.n_dp, &opts) {
            Ok((plan, _)) => into.push(plan),
            Err(e) => report.op(false, || format!("{strategy:?} {opts:?}: {e}")),
        }
    }
    span::set_enabled(false);
    if let Err(e) = trace::collect(&mut spans) {
        report.op(false, || e);
    }
    // The extra solves pair up as Algorithm 2 (pruned) vs exact-dc (2t).
    verify(cfg, platform, &out, report);

    match trace::export(&spans, if cfg.closed_form { "paper" } else { "affine" }, args.seed) {
        Ok(path) => eprintln!("e2ebench: spans written to {path}"),
        Err(e) => report.op(false, || format!("span export: {e}")),
    }
    let instances = trace::reduce(&spans);
    let core: Vec<Instance> =
        instances.iter().filter(|i| CORE_OPS.contains(&i.op)).cloned().collect();
    let layer = |op: Option<&str>, name: &str| median(&trace::layer_samples(&instances, op, name));

    let p = platform.len() as f64;
    let n1 = (cfg.n_dp + 1) as f64;
    report.metric("cost_table.tabulate_s", layer(Some("plan_exact"), "cost_table.tabulate"), "s");
    report.metric("cost_table.bytes", out.table_fns as f64 * n1 * 8.0, "bytes");
    report.metric("dp.optimized.solve_s", layer(Some("plan_exact"), "dp.optimized.solve"), "s");
    report.metric("dp.optimized.cells", median_count(&out.exact_cells), "count");
    report.metric("dp.dc.solve_s", layer(Some("plan_exact_dc"), "dp.dc.solve"), "s");
    report.metric("dp.dc.cells", median_count(&out.dc_cells), "count");
    report.metric("dp.plane_bytes", p * n1 * 12.0, "bytes");
    report.metric("dp.dc.solve_2t_s", layer(Some("plan_exact_dc_2t"), "dp.dc.solve"), "s");
    report.metric(
        "dp.optimized.solve_pruned_s",
        layer(Some("plan_exact_pruned"), "dp.optimized.solve"),
        "s",
    );
    report.metric("heuristic.solve_s", layer(None, "heuristic.solve"), "s");
    if cfg.closed_form {
        report.metric("closed_form.solve_s", layer(None, "closed_form.solve"), "s");
    }
    report.metric("ordering.scatter_order_s", layer(None, "ordering.scatter_order"), "s");
    report.metric("distribution.timeline_s", layer(None, "distribution.timeline"), "s");
    let plan_unattributed: Vec<f64> =
        core.iter().filter(|i| i.op.starts_with("plan_")).map(|i| i.unattributed).collect();
    report.metric("planner.unattributed_s", median(&plan_unattributed), "s");
    report.metric("fault.replan_s", layer(Some("replan_warm"), "fault.replan"), "s");
    report.metric("plan_cache.hits", median_count(&out.warm_hits), "count");
    report.metric("dp.warm.cells", median_count(&out.warm_cells), "count");
    let mut parts = vec![trace::Quality::new(&core, &untraced, &traced_walls)];
    if let Some(serve_cfg) = &cfg.serve {
        parts.push(serve::traced(serve_cfg, args.seed, args.seconds * SERVE_SHARE, report));
    }
    trace::report_quality(&parts, report);
}
