//! The `gs` subcommands, exposed as library functions so tests can drive
//! them without spawning processes. Each returns the text it would print.

use gs_gridsim::chart::{figure_rows, render_figure, summary_line};
use gs_gridsim::export::to_csv;
use gs_gridsim::fault::{simulate_plan_ft, FtScatterSim};
use gs_gridsim::gantt::{legend, render_gantt};
use gs_gridsim::sim::simulate_plan;
use gs_gridsim::{proportional_counts, simulate_star, synthetic_star};
use gs_minimpi::{executed_trace, run_world, run_world_pooled, FtConfig, TimeModel, WorldConfig};
use gs_scatter::calibrate::{Calibration, DriftReport};
use gs_scatter::cost::{CostFn, Platform};
use gs_scatter::intern::NameInterner;
use gs_scatter::fault::{FaultPlan, RecoveryConfig};
use gs_scatter::obs::json::{self, metrics_to_json, trace_from_json, trace_to_json, Json};
use gs_scatter::obs::{span, Incident, Trace, TraceSource, TraceSummary};
use gs_scatter::ordering::OrderPolicy;
use gs_scatter::planner::{Plan, Planner, Strategy};
use gs_scatter::platform_file::{parse_platform, render_platform};
use gs_transform::{emit_plan_arrays, transform_source, CodegenOptions};

use crate::CliError;

/// Options shared by the planning-based subcommands.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Items to distribute.
    pub items: usize,
    /// Strategy name (`uniform`, `exact`, `exact-basic`, `exact-dc`,
    /// `heuristic`, `closed-form`).
    pub strategy: String,
    /// Exact DP kernel override (`basic`, `optimized`, `dc`). When set,
    /// the plan uses the corresponding exact strategy regardless of
    /// `strategy` — shorthand for benchmarking the kernels against each
    /// other.
    pub kernel: Option<String>,
    /// Ordering name (`desc`, `asc`, `as-is`, `cpu`).
    pub order: String,
    /// Worker threads for the exact DP strategies (`0` = one per core).
    pub threads: usize,
    /// Fault-injection spec (`docs/robustness.md` grammar), e.g.
    /// `"crash:w1@0.01,flaky:w2:1"`. `None` = fault-free.
    pub faults: Option<String>,
    /// Run faults in degraded (fault-oblivious) mode instead of the
    /// timeout/retry/re-plan recovery path.
    pub no_recovery: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            items: 0,
            strategy: "heuristic".into(),
            kernel: None,
            order: "desc".into(),
            threads: 1,
            faults: None,
            no_recovery: false,
        }
    }
}

fn parse_kernel(s: &str) -> Result<Strategy, CliError> {
    Ok(match s {
        "basic" => Strategy::ExactBasic,
        "optimized" => Strategy::Exact,
        "dc" => Strategy::ExactDc,
        other => {
            return Err(CliError(format!(
                "unknown kernel `{other}` (try basic|optimized|dc)"
            )))
        }
    })
}

fn parse_order(s: &str) -> Result<OrderPolicy, CliError> {
    Ok(match s {
        "desc" => OrderPolicy::DescendingBandwidth,
        "asc" => OrderPolicy::AscendingBandwidth,
        "as-is" => OrderPolicy::AsIs,
        "cpu" => OrderPolicy::FastestCpuFirst,
        other => {
            return Err(CliError(format!(
                "unknown order `{other}` (try desc|asc|as-is|cpu)"
            )))
        }
    })
}

fn make_plan(platform: &Platform, opts: &PlanOptions) -> Result<Plan, CliError> {
    if opts.items == 0 {
        return Err(CliError("--items must be given (and positive)".into()));
    }
    let strategy = match &opts.kernel {
        Some(k) => parse_kernel(k)?,
        None => opts.strategy.parse().map_err(CliError)?,
    };
    Ok(Planner::new(platform.clone())
        .strategy(strategy)
        .order_policy(parse_order(&opts.order)?)
        .threads(opts.threads)
        .plan(opts.items)?)
}

/// Parses the `--faults` spec of `opts` against the plan's scatter
/// order: names and positions in the spec refer to processors *in the
/// order the root serves them* (root last), and `%` times are relative
/// to the fault-free predicted makespan.
fn parse_fault_plan(
    platform: &Platform,
    plan: &Plan,
    opts: &PlanOptions,
) -> Result<Option<FaultPlan>, CliError> {
    let Some(spec) = &opts.faults else { return Ok(None) };
    let names: Vec<&str> = plan
        .order
        .iter()
        .map(|&i| platform.procs()[i].name.as_str())
        .collect();
    let fp = FaultPlan::parse(spec, &names, plan.predicted_makespan)?;
    Ok(Some(fp))
}

/// Recovery configuration selected by `--no-recovery`.
fn recovery_of(opts: &PlanOptions) -> Option<RecoveryConfig> {
    if opts.no_recovery {
        None
    } else {
        Some(RecoveryConfig::default())
    }
}

/// One line per incident, for `gs simulate --faults` and `gs report`.
fn render_incidents(incidents: &[Incident]) -> String {
    let mut out = String::new();
    for i in incidents {
        out.push_str(&format!("  t={:<10.4} {:<7} {}\n", i.t, i.kind, i.info));
    }
    out
}

/// One-line rendering of a `PlanTiming` for the text reports.
fn render_plan_timing(t: &gs_scatter::obs::PlanTiming) -> String {
    let mut line = format!(
        "planning: {:.3} ms ({} strategy, {} thread{}",
        t.total_secs * 1e3,
        t.strategy,
        t.threads,
        if t.threads == 1 { "" } else { "s" },
    );
    if t.pruned {
        line.push_str(", pruned");
    }
    line.push(')');
    // Every DP solve (`exact`, `exact-basic`, `exact-dc`) has the split,
    // a banded one with no tabulation and no table lookups.
    if t.strategy.starts_with("exact") {
        line.push_str(&format!(
            " — tabulate {:.3} ms, solve {:.3} ms, cache {}/{} hits",
            t.tabulate_secs * 1e3,
            t.solve_secs * 1e3,
            t.cache_hits,
            t.cache_hits + t.cache_misses,
        ));
    }
    line.push('\n');
    line
}

/// `gs plan`: prints the distribution and predicted schedule
/// (optionally as a C block with `emit_c`).
pub fn cmd_plan(platform_text: &str, opts: &PlanOptions, emit_c: bool) -> Result<String, CliError> {
    let platform = parse_platform(platform_text)?;
    let plan = make_plan(&platform, opts)?;
    if emit_c {
        return Ok(emit_plan_arrays(&plan, &CodegenOptions::default()));
    }
    let how = match &opts.kernel {
        Some(k) => format!("{k} kernel"),
        None => format!("{} strategy", opts.strategy),
    };
    let mut out = format!(
        "plan: {} items over {} processors ({}, {} order)\n",
        opts.items,
        platform.len(),
        how,
        opts.order
    );
    out.push_str(&format!(
        "{:<14} {:>10} {:>10} {:>12}\n",
        "processor", "count", "displ", "finish (s)"
    ));
    for (pos, &idx) in plan.order.iter().enumerate() {
        out.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>12.2}\n",
            platform.procs()[idx].name,
            plan.counts[idx],
            plan.displs[idx],
            plan.predicted.finish[pos],
        ));
    }
    out.push_str(&format!("predicted makespan: {:.3} s\n", plan.predicted_makespan));
    out.push_str(&render_plan_timing(&plan.timing));
    if let Some(fp) = parse_fault_plan(&platform, &plan, opts)? {
        out.push_str(&render_fault_forecast(&platform, &plan, &fp, opts)?);
    }
    Ok(out)
}

/// The fault-injection section of `gs plan --faults`: the degraded
/// (fault-oblivious) and recovered makespans next to the fault-free
/// prediction, so the cost of a failure — and of surviving it — is
/// visible before anything runs.
fn render_fault_forecast(
    platform: &Platform,
    plan: &Plan,
    faults: &FaultPlan,
    opts: &PlanOptions,
) -> Result<String, CliError> {
    let spec = opts.faults.as_deref().unwrap_or_default();
    let mut out = format!("fault injection: {spec}\n");
    let degraded = simulate_plan_ft(platform, plan, faults, None)?;
    out.push_str(&format!(
        "  degraded : makespan {:.3} s, {} of {} items lost\n",
        degraded.makespan,
        degraded.lost_items,
        degraded.lost_items + degraded.computed_items,
    ));
    if !opts.no_recovery {
        let rc = RecoveryConfig::default();
        let recovered = simulate_plan_ft(platform, plan, faults, Some(&rc))?;
        let summary = |k| {
            recovered.incidents.iter().filter(|i| i.kind == k).count()
        };
        out.push_str(&format!(
            "  recovered: makespan {:.3} s, all items computed \
             ({} fault(s), {} retry(s), {} replan(s))\n",
            recovered.makespan,
            summary(gs_scatter::obs::IncidentKind::Fault),
            summary(gs_scatter::obs::IncidentKind::Retry),
            summary(gs_scatter::obs::IncidentKind::Replan),
        ));
        out.push_str(&format!(
            "  recovery overhead over prediction: {:.3} s ({:+.1}%)\n",
            recovered.makespan - plan.predicted_makespan,
            (recovered.makespan / plan.predicted_makespan - 1.0) * 100.0,
        ));
    }
    Ok(out)
}

/// `gs simulate`: runs the DES and renders a Figs.-2–4-style chart; when
/// `csv` is set, returns machine-readable CSV instead.
pub fn cmd_simulate(
    platform_text: &str,
    opts: &PlanOptions,
    width: usize,
    csv: bool,
) -> Result<String, CliError> {
    let platform = parse_platform(platform_text)?;
    let plan = make_plan(&platform, opts)?;
    let names: Vec<&str> = plan
        .order
        .iter()
        .map(|&i| platform.procs()[i].name.as_str())
        .collect();
    if let Some(fp) = parse_fault_plan(&platform, &plan, opts)? {
        let rc = recovery_of(opts);
        let ft = simulate_plan_ft(&platform, &plan, &fp, rc.as_ref())?;
        return Ok(render_ft_sim(&ft, &names, opts, width, csv));
    }
    let sim = simulate_plan(&platform, &plan, &[]);
    let counts = plan.counts_in_order();
    if csv {
        return Ok(to_csv(&names, &counts, &sim.timeline));
    }
    let rows = figure_rows(&names, &counts, &sim.timeline);
    let mut out = render_figure(
        &format!("simulated scatter of {} items", opts.items),
        &rows,
        width,
    );
    out.push_str(&format!("{}\n", summary_line(&rows)));
    Ok(out)
}

/// Renders a fault-injected simulation: the figure shows the items each
/// rank *ended up computing* (after any re-plan), and the incident log
/// follows the chart.
fn render_ft_sim(
    ft: &FtScatterSim,
    names: &[&str],
    opts: &PlanOptions,
    width: usize,
    csv: bool,
) -> String {
    let counts: Vec<usize> = ft
        .assignments
        .iter()
        .map(|rs| rs.iter().map(|&(lo, hi)| (hi - lo) as usize).sum())
        .collect();
    if csv {
        return to_csv(names, &counts, &ft.timeline);
    }
    let mode = if ft.recovered { "recovered" } else { "degraded" };
    let rows = figure_rows(names, &counts, &ft.timeline);
    let mut out = render_figure(
        &format!("simulated scatter of {} items ({mode})", opts.items),
        &rows,
        width,
    );
    out.push_str(&format!("{}\n", summary_line(&rows)));
    if ft.lost_items > 0 {
        out.push_str(&format!("lost: {} items never computed\n", ft.lost_items));
    }
    if !ft.incidents.is_empty() {
        out.push_str("incidents:\n");
        out.push_str(&render_incidents(&ft.incidents));
    }
    out
}

/// `gs transform`: rewrites `MPI_Scatter` calls in `c_source` and
/// prepends the generated arrays.
pub fn cmd_transform(
    c_source: &str,
    platform_text: &str,
    opts: &PlanOptions,
) -> Result<String, CliError> {
    let platform = parse_platform(platform_text)?;
    let plan = make_plan(&platform, opts)?;
    let report = transform_source(c_source);
    if report.rewrites.is_empty() {
        return Err(CliError("no MPI_Scatter call sites found".into()));
    }
    let block = emit_plan_arrays(&plan, &CodegenOptions::default());
    Ok(format!("{block}\n{}", report.source))
}

/// `gs table1`: the paper's testbed in platform-file format.
pub fn cmd_table1() -> String {
    render_platform(&gs_scatter::paper::table1_platform())
}

/// `gs trace`: plans, then emits the schedule of one of the three
/// execution paths as schema-versioned JSON (`docs/observability.md`).
///
/// * `predicted` — the planner's analytic Eq. (1) timeline;
/// * `simulated` — the gs-gridsim discrete-event run;
/// * `executed` — an actual gs-minimpi run (threads + virtual clocks),
///   with ranks renumbered into scatter order so a rank-ordered
///   `scatterv` realizes the planned order.
pub fn cmd_trace(
    platform_text: &str,
    opts: &PlanOptions,
    source: &str,
    item_bytes: usize,
) -> Result<String, CliError> {
    if item_bytes == 0 {
        return Err(CliError("--item-bytes must be positive".into()));
    }
    let platform = parse_platform(platform_text)?;
    let plan = make_plan(&platform, opts)?;
    let names: Vec<&str> = plan
        .order
        .iter()
        .map(|&i| platform.procs()[i].name.as_str())
        .collect();
    let counts = plan.counts_in_order();
    let fp = parse_fault_plan(&platform, &plan, opts)?;
    if fp.is_some() && source == "predicted" {
        return Err(CliError(
            "--faults applies to simulated|executed traces; the predicted \
             trace is the fault-free Eq. (1) baseline"
                .into(),
        ));
    }
    let mut trace = match (source, fp) {
        ("predicted", _) => plan.predicted_trace(&platform, item_bytes as u64),
        ("simulated", None) => Trace::from_timeline(
            TraceSource::Simulated,
            &names,
            &counts,
            item_bytes as u64,
            &simulate_plan(&platform, &plan, &[]).timeline,
        ),
        ("simulated", Some(fp)) => {
            simulate_plan_ft(&platform, &plan, &fp, recovery_of(opts).as_ref())?
                .trace(&names, item_bytes as u64)
        }
        ("executed", None) => run_executed(&platform, &plan, &names, &counts, item_bytes)?,
        ("executed", Some(fp)) => {
            run_executed_ft(&platform, &plan, &names, &counts, item_bytes, fp, opts)?
        }
        (other, _) => {
            return Err(CliError(format!(
                "unknown trace source `{other}` (try predicted|simulated|executed)"
            )))
        }
    };
    // All three sources stem from the same planning call: attach its
    // timing so downstream reports can show planning cost.
    trace.plan_timing = Some(plan.timing.clone());
    Ok(trace_to_json(&trace))
}

/// Largest payload an executed run scatters, in bytes. The root holds the
/// whole payload in memory, so a larger one is refused before any rank
/// starts instead of aborting the process when the allocation fails.
const EXECUTED_PAYLOAD_CAP: usize = 1 << 30;

/// Size in bytes of an executed run's payload of `items` items of
/// `item_bytes` bytes each, checked against [`EXECUTED_PAYLOAD_CAP`].
fn executed_payload_bytes(items: usize, item_bytes: usize) -> Result<usize, CliError> {
    items.checked_mul(item_bytes).filter(|&b| b <= EXECUTED_PAYLOAD_CAP).ok_or_else(|| {
        CliError(format!(
            "an executed run of {items} items of {item_bytes} bytes exceeds the {} MiB \
             payload cap",
            EXECUTED_PAYLOAD_CAP >> 20
        ))
    })
}

/// Runs the plan on the gs-minimpi runtime and merges the per-rank
/// records into an executed trace. World rank `r` plays the processor at
/// scatter position `r` (root last), so the runtime's rank-ordered
/// single-port scatter reproduces the planned order.
fn run_executed(
    platform: &Platform,
    plan: &Plan,
    names: &[&str],
    counts: &[usize],
    item_bytes: usize,
) -> Result<Trace, CliError> {
    let total_bytes = executed_payload_bytes(counts.iter().sum(), item_bytes)?;
    let model = TimeModel::from_platform(platform, item_bytes).reordered(&plan.order);
    let p = platform.len();
    let root = p - 1;
    let counts_bytes: Vec<usize> = counts.iter().map(|c| c * item_bytes).collect();
    let records = run_world(p, WorldConfig::with_time(model), move |c| {
        c.enable_tracing();
        let buf = (c.rank() == root).then(|| vec![0u8; total_bytes]);
        let mine = c.scatterv(root, buf.as_deref(), &counts_bytes);
        c.model_compute(mine.len() / item_bytes);
        c.take_trace()
    });
    Ok(executed_trace(names, item_bytes as u64, &records))
}

/// Runs the plan on the fault-tolerant gs-minimpi path
/// ([`gs_minimpi::Comm::scatterv_ft`]): the root drives the same fault
/// oracle as the simulator, so the executed trace agrees with
/// `gs trace --source simulated --faults ...` bit for bit.
fn run_executed_ft(
    platform: &Platform,
    plan: &Plan,
    names: &[&str],
    counts: &[usize],
    item_bytes: usize,
    faults: FaultPlan,
    opts: &PlanOptions,
) -> Result<Trace, CliError> {
    let total: usize = counts.iter().sum();
    executed_payload_bytes(total, std::mem::size_of::<u64>())?;
    let p = platform.len();
    let config = FtConfig {
        faults,
        recovery: recovery_of(opts),
        procs: plan.order.iter().map(|&i| platform.procs()[i].clone()).collect(),
        item_bytes: item_bytes as u64,
    };
    let recovered = config.recovery.is_some();
    let counts = counts.to_vec();
    let root = p - 1;
    let out = run_world(p, WorldConfig::default(), move |c| {
        c.enable_tracing();
        let buf = (c.rank() == root).then(|| vec![0u64; total]);
        let mine = c.scatterv_ft(&config, buf.as_deref(), &counts);
        c.model_compute_ft(&config, mine.len());
        (c.take_trace(), c.take_incidents())
    });
    let records: Vec<_> = out.iter().map(|(r, _)| r.clone()).collect();
    let mut trace = executed_trace(names, item_bytes as u64, &records);
    trace.label = Some(if recovered { "recovered" } else { "degraded" }.to_string());
    trace.incidents = out[root].1.clone();
    Ok(trace)
}

/// `gs report`: ingests 1–3 exported JSON traces, validates them, and
/// renders for each a summary table plus a Fig.-1-style Gantt chart;
/// with several traces it appends a per-processor comparison (the
/// predicted-vs-simulated-vs-executed diff), aligned by processor name
/// and occurrence (platforms may repeat names).
pub fn cmd_report(trace_texts: &[String], width: usize) -> Result<String, CliError> {
    if trace_texts.is_empty() {
        return Err(CliError("report needs at least one trace file".into()));
    }
    if trace_texts.len() > 3 {
        return Err(CliError("report compares at most three traces".into()));
    }
    let mut traces = Vec::new();
    for (i, text) in trace_texts.iter().enumerate() {
        let trace = trace_from_json(text)
            .map_err(|e| CliError(format!("trace {}: {e}", i + 1)))?;
        trace
            .validate()
            .map_err(|e| CliError(format!("trace {}: {e}", i + 1)))?;
        traces.push(trace);
    }
    let mut out = String::new();
    for trace in &traces {
        let summary = TraceSummary::from_trace(trace);
        out.push_str(&summary.render());
        if !trace.incidents.is_empty() {
            out.push_str(&render_incidents(&trace.incidents));
        }
        if let Some(timing) = &trace.plan_timing {
            out.push_str(&render_plan_timing(timing));
        }
        let names: Vec<&str> = trace.names.iter().map(String::as_str).collect();
        out.push_str(&render_gantt(&names, &trace.to_timeline(), width));
        out.push_str(&legend());
        out.push('\n');
    }
    if traces.len() > 1 {
        out.push_str(&render_comparison(&traces));
    }
    Ok(out)
}

/// `gs calibrate`: least-squares-fits per-processor affine cost
/// parameters from one or more executed traces and prints them in
/// platform-file format (preceded by `#` fit-quality notes), so the
/// output pipes straight back into `gs plan`.
pub fn cmd_calibrate(trace_texts: &[String]) -> Result<String, CliError> {
    if trace_texts.is_empty() {
        return Err(CliError("calibrate needs at least one trace file".into()));
    }
    let mut traces = Vec::new();
    for (i, text) in trace_texts.iter().enumerate() {
        traces
            .push(trace_from_json(text).map_err(|e| CliError(format!("trace {}: {e}", i + 1)))?);
    }
    let cal = Calibration::from_traces(&traces).map_err(|e| CliError(e.to_string()))?;
    let platform = cal.platform().map_err(|e| CliError(e.to_string()))?;
    let mut out = cal.render_notes();
    out.push_str(&render_platform(&platform));
    Ok(out)
}

/// `gs metrics`: plans and runs a small workload — the DES simulation
/// plus a gs-minimpi execution, or the fault-tolerant simulator when
/// `--faults` is given — then dumps the process-global metrics registry
/// in Prometheus text exposition format.
pub fn cmd_metrics(
    platform_text: &str,
    opts: &PlanOptions,
    item_bytes: usize,
) -> Result<String, CliError> {
    run_metrics_workload(platform_text, opts, item_bytes)?;
    Ok(gs_scatter::metrics::Registry::global().snapshot().to_prometheus())
}

/// `gs metrics --json`: the same workload as [`cmd_metrics`], dumped as
/// the machine-readable metrics object of the trace schema
/// ([`metrics_to_json`]) instead of Prometheus text exposition.
pub fn cmd_metrics_json(
    platform_text: &str,
    opts: &PlanOptions,
    item_bytes: usize,
) -> Result<String, CliError> {
    run_metrics_workload(platform_text, opts, item_bytes)?;
    let mut out = metrics_to_json(&gs_scatter::metrics::Registry::global().snapshot());
    out.push('\n');
    Ok(out)
}

/// Plans and runs the small workload both metrics front-ends report on.
fn run_metrics_workload(
    platform_text: &str,
    opts: &PlanOptions,
    item_bytes: usize,
) -> Result<(), CliError> {
    if item_bytes == 0 {
        return Err(CliError("--item-bytes must be positive".into()));
    }
    let platform = parse_platform(platform_text)?;
    let plan = make_plan(&platform, opts)?;
    let names: Vec<&str> = plan
        .order
        .iter()
        .map(|&i| platform.procs()[i].name.as_str())
        .collect();
    let counts = plan.counts_in_order();
    match parse_fault_plan(&platform, &plan, opts)? {
        Some(fp) => {
            simulate_plan_ft(&platform, &plan, &fp, recovery_of(opts).as_ref())?;
        }
        None => {
            simulate_plan(&platform, &plan, &[]);
            run_executed(&platform, &plan, &names, &counts, item_bytes)?;
        }
    }
    Ok(())
}

/// Options for `gs sim` (the synthetic big-star capacity command).
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Number of simulated ranks (root included, scheduled last).
    pub ranks: usize,
    /// Data items scattered over the star (`0` = ten per rank).
    pub items: usize,
    /// `Some(threads)`: after simulating, execute the same plan on the
    /// pooled gs-minimpi runtime with this many workers (`0` = one per
    /// core) and check the virtual clocks against the simulation.
    pub pool: Option<usize>,
    /// Suppress the wall-clock throughput line so the output is fully
    /// deterministic (CI gates and the docs/simulation.md walkthrough).
    pub smoke: bool,
    /// Print the run as observability-JSON (interned placeholder names)
    /// instead of the summary lines. Capped at 10 000 ranks.
    pub emit_trace: bool,
}

/// Largest world `--pool` will execute: beyond this, per-rank channels
/// and result slots stop being "a few hundred MB" (docs/simulation.md
/// documents the capacity ladder: simulate at 10⁶, execute at 10⁴–10⁵).
const SIM_POOL_MAX_RANKS: usize = 100_000;

/// Largest world `--emit-trace` will serialize (4 events/rank of JSON).
const SIM_TRACE_MAX_RANKS: usize = 10_000;

/// `gs sim`: simulates a scatter + compute phase on the deterministic
/// synthetic heterogeneous star (`docs/simulation.md`) at `--ranks`
/// scale, on the prefix-sum fast path. With `--pool T` the same
/// plan is then *executed* on the pooled gs-minimpi runtime and the
/// per-rank virtual clocks are compared bit-for-bit against the
/// simulated finish times.
pub fn cmd_sim(opts: &SimOptions) -> Result<String, CliError> {
    if opts.ranks == 0 {
        return Err(CliError("sim needs --ranks N (at least 1)".into()));
    }
    if opts.ranks > 4_000_000 {
        return Err(CliError("sim caps at 4 000 000 ranks".into()));
    }
    if opts.emit_trace && opts.ranks > SIM_TRACE_MAX_RANKS {
        return Err(CliError(format!(
            "--emit-trace caps at {SIM_TRACE_MAX_RANKS} ranks (4 events per rank of JSON)"
        )));
    }
    let items = if opts.items == 0 { opts.ranks.saturating_mul(10) as u64 } else {
        opts.items as u64
    };
    let (beta, alpha) = synthetic_star(opts.ranks);
    let counts = proportional_counts(&alpha, items);
    let comm: Vec<f64> = beta.iter().zip(&counts).map(|(b, &c)| b * c as f64).collect();
    let work: Vec<f64> = alpha.iter().zip(&counts).map(|(a, &c)| a * c as f64).collect();

    let started = std::time::Instant::now();
    let sim = simulate_star(&comm, &work, false);
    let wall = started.elapsed().as_secs_f64();

    if opts.emit_trace {
        // Big-sim runs never materialise name strings; the trace carries
        // the interner's placeholder form (`#<id>`). `gs report` resolves
        // them against sibling traces (see `render_comparison`).
        let names: Vec<String> =
            (0..opts.ranks).map(|i| NameInterner::placeholder(i as u32)).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let counts_usize: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
        let trace =
            Trace::from_timeline(TraceSource::Simulated, &name_refs, &counts_usize, 1, &sim.timeline);
        return Ok(trace_to_json(&trace));
    }

    let mut out = format!("sim: ranks={} items={items} engine=prefix-sum\n", opts.ranks);
    out.push_str(&format!(
        "sim: events={} makespan={:.6}s\n",
        sim.events_processed, sim.makespan
    ));
    if !opts.smoke {
        out.push_str(&format!(
            "sim: wall={:.3}s events/sec={:.0}\n",
            wall,
            sim.events_processed as f64 / wall.max(1e-9)
        ));
    }

    if let Some(requested) = opts.pool {
        if opts.ranks > SIM_POOL_MAX_RANKS {
            return Err(CliError(format!(
                "--pool executes at most {SIM_POOL_MAX_RANKS} ranks; simulate-only above that"
            )));
        }
        let threads = if requested == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            requested
        }
        .min(opts.ranks);
        // Scatter u8 payloads so one item is one byte: the pooled
        // runtime's per-byte link costs are then exactly the per-item
        // `beta` slopes and the clocks reproduce the simulation bit for
        // bit.
        let model = TimeModel {
            link: beta.iter().map(|&b| CostFn::Linear { slope: b }).collect(),
            compute: alpha.iter().map(|&a| CostFn::Linear { slope: a }).collect(),
        };
        let counts_usize: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
        let root = opts.ranks - 1;
        let data: Vec<u8> = vec![0u8; items as usize];
        let clocks = run_world_pooled(
            opts.ranks,
            threads,
            root,
            WorldConfig::with_time(model),
            |comm| {
                let sendbuf = if comm.rank() == root { Some(&data[..]) } else { None };
                let mine = comm.scatterv(root, sendbuf, &counts_usize);
                comm.model_compute(mine.len());
                comm.now()
            },
        );
        let executed_makespan = clocks.iter().fold(0.0f64, |m, &c| m.max(c));
        let identical = clocks.len() == sim.timeline.finish.len()
            && clocks
                .iter()
                .zip(&sim.timeline.finish)
                .all(|(c, f)| c.to_bits() == f.to_bits());
        out.push_str(&format!(
            "pool: threads={threads} ranks={} executed-makespan={:.6}s identical={identical}\n",
            opts.ranks, executed_makespan
        ));
    }
    Ok(out)
}

/// Runs `f` with span tracing enabled and returns its result paired
/// with the spans it recorded, serialized as Chrome trace-event JSON
/// ([`span::chrome_trace_json`]). Tracing is reset first so leftovers
/// from earlier work in the process do not pollute the export, and
/// disabled again afterwards (off is the normative default,
/// docs/observability.md).
fn with_spans<T>(f: impl FnOnce() -> Result<T, CliError>) -> Result<(T, String), CliError> {
    span::set_enabled(true);
    span::reset();
    let result = f();
    let spans = span::drain();
    span::set_enabled(false);
    Ok((result?, span::chrome_trace_json(&spans)))
}

/// `gs trace --spans FILE`: [`cmd_trace`] with span tracing on. Returns
/// `(trace json, spans json)`; the caller writes the second to `FILE`.
pub fn cmd_trace_spanned(
    platform_text: &str,
    opts: &PlanOptions,
    source: &str,
    item_bytes: usize,
) -> Result<(String, String), CliError> {
    with_spans(|| cmd_trace(platform_text, opts, source, item_bytes))
}

/// `gs sim --spans FILE`: [`cmd_sim`] with span tracing on. Returns
/// `(sim output, spans json)`; the caller writes the second to `FILE`.
pub fn cmd_sim_spanned(opts: &SimOptions) -> Result<(String, String), CliError> {
    with_spans(|| cmd_sim(opts))
}

/// Most rows `gs report --spans` prints (the vocabulary of span names
/// is small and fixed, so this is rarely reached).
const SPAN_REPORT_TOP: usize = 20;

/// `gs report --spans FILE`: reads a Chrome trace-event file exported
/// by `--spans`/`--span-log` and prints a self-time summary — one row
/// per `(category, name)` pair, ranked by total self time (a span's
/// duration minus its children's, clamped at zero: concurrent children
/// may together outlast their parent).
pub fn cmd_report_spans(spans_text: &str) -> Result<String, CliError> {
    let doc = json::parse(spans_text).map_err(|e| CliError(format!("spans: {e}")))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| CliError("spans: missing `traceEvents` array".into()))?;
    // Keep the duration events; metadata rows carry no time.
    struct Ev<'a> {
        cat: &'a str,
        name: &'a str,
        dur: f64,
        id: Option<&'a str>,
        parent: Option<&'a str>,
    }
    let mut evs = Vec::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let (Some(name), Some(dur)) =
            (e.get("name").and_then(Json::as_str), e.get("dur").and_then(Json::as_f64))
        else {
            return Err(CliError("spans: X event lacks name/dur".into()));
        };
        let args = e.get("args");
        evs.push(Ev {
            cat: e.get("cat").and_then(Json::as_str).unwrap_or(""),
            name,
            dur,
            id: args.and_then(|a| a.get("id")).and_then(Json::as_str),
            parent: args.and_then(|a| a.get("parent")).and_then(Json::as_str),
        });
    }
    // Self time: duration minus the children's durations. A parent id
    // that is absent from the file (a worker span whose coordinator
    // landed elsewhere) leaves the child counted as a root.
    let by_id: std::collections::HashMap<&str, usize> = evs
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.id.map(|id| (id, i)))
        .collect();
    let mut self_us: Vec<f64> = evs.iter().map(|e| e.dur).collect();
    for e in &evs {
        if let Some(pi) = e.parent.filter(|p| *p != "0").and_then(|p| by_id.get(p)) {
            self_us[*pi] -= e.dur;
        }
    }
    let mut groups: std::collections::BTreeMap<(&str, &str), (usize, f64, f64)> =
        std::collections::BTreeMap::new();
    for (e, &s) in evs.iter().zip(&self_us) {
        let g = groups.entry((e.cat, e.name)).or_insert((0, 0.0, 0.0));
        g.0 += 1;
        g.1 += e.dur;
        g.2 += s.max(0.0);
    }
    let mut rows: Vec<(&str, &str, usize, f64, f64)> =
        groups.iter().map(|(&(c, n), &(k, t, s))| (c, n, k, t, s)).collect();
    rows.sort_by(|a, b| b.4.total_cmp(&a.4).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));

    let mut out = format!("span summary: {} spans, {} names\n", evs.len(), rows.len());
    let name_w =
        rows.iter().map(|r| r.1.len()).chain(std::iter::once("name".len())).max().unwrap_or(4);
    out.push_str(&format!(
        "{:<5} {:<name_w$} {:>7} {:>12} {:>12}\n",
        "cat", "name", "spans", "total(ms)", "self(ms)"
    ));
    for (cat, name, count, total, selft) in rows.iter().take(SPAN_REPORT_TOP) {
        out.push_str(&format!(
            "{cat:<5} {name:<name_w$} {count:>7} {:>12.3} {:>12.3}\n",
            total / 1000.0,
            selft / 1000.0
        ));
    }
    if rows.len() > SPAN_REPORT_TOP {
        out.push_str(&format!("... {} more names\n", rows.len() - SPAN_REPORT_TOP));
    }
    Ok(out)
}

/// `gs report --drift-threshold`: the regular report, followed by a
/// [`DriftReport`] of every trace against the platform file the run
/// *assumed*. The boolean is the gate — `false` (a flagged rank, or
/// makespans further apart than the threshold) makes the CLI exit
/// nonzero, so CI can watch executed runs for cost-model drift.
pub fn cmd_report_drift(
    trace_texts: &[String],
    width: usize,
    platform_text: &str,
    threshold: f64,
) -> Result<(String, bool), CliError> {
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(CliError("--drift-threshold expects a non-negative number".into()));
    }
    let platform = parse_platform(platform_text)?;
    let mut out = cmd_report(trace_texts, width)?;
    let mut ok = true;
    for (i, text) in trace_texts.iter().enumerate() {
        let trace =
            trace_from_json(text).map_err(|e| CliError(format!("trace {}: {e}", i + 1)))?;
        let report = DriftReport::from_trace(&platform, &trace, threshold)
            .map_err(|e| CliError(format!("trace {}: {e}", i + 1)))?;
        out.push_str(&report.render());
        ok &= report.ok();
    }
    Ok((out, ok))
}

/// Per-processor finish times side by side, plus makespans and the
/// largest deviation of each trace from the first one.
///
/// Rows align by *(name, occurrence)*: platforms like the paper's
/// Table 1 list several identically-named nodes (eight `leda` CPUs), so
/// the k-th `leda` of one trace pairs with the k-th `leda` of the
/// others, whatever their rank numbers are.
fn render_comparison(traces: &[Trace]) -> String {
    let summaries: Vec<TraceSummary> = traces.iter().map(TraceSummary::from_trace).collect();
    // Big-sim traces carry interned placeholder names (`#42`,
    // docs/simulation.md): the simulator never materialised the name
    // strings. A sibling trace of the same run usually did — so when a
    // name parses as a placeholder, borrow the first real name any other
    // trace gives the same rank position. Rows then key (and pair) on
    // real processor names instead of raw ids.
    let resolved: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            s.ranks
                .iter()
                .enumerate()
                .map(|(ri, r)| {
                    if NameInterner::parse_placeholder(&r.name).is_none() {
                        return r.name.clone();
                    }
                    summaries
                        .iter()
                        .filter_map(|o| o.ranks.get(ri))
                        .find(|o| NameInterner::parse_placeholder(&o.name).is_none())
                        .map(|o| o.name.clone())
                        .unwrap_or_else(|| r.name.clone())
                })
                .collect()
        })
        .collect();
    // Per summary: (name, occurrence) → finish.
    let keyed: Vec<Vec<((&str, usize), f64)>> = summaries
        .iter()
        .zip(&resolved)
        .map(|(s, names)| {
            let mut seen = std::collections::HashMap::new();
            s.ranks
                .iter()
                .zip(names)
                .map(|(r, name)| {
                    let k = seen.entry(name.as_str()).or_insert(0usize);
                    let key = (name.as_str(), *k);
                    *k += 1;
                    (key, r.finish)
                })
                .collect()
        })
        .collect();
    let mut rows: Vec<(&str, usize)> = keyed[0].iter().map(|(k, _)| *k).collect();
    for k in &keyed[1..] {
        for (key, _) in k {
            if !rows.contains(key) {
                rows.push(*key);
            }
        }
    }
    let lookup = |ki: usize, key: &(&str, usize)| {
        keyed[ki].iter().find(|(k, _)| k == key).map(|(_, f)| *f)
    };

    let name_w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(9).max(9);
    // Column headers: the trace label (`degraded`, `recovered`) when one
    // is set, else the source — so a predicted/degraded/recovered diff
    // reads as exactly that.
    let col = |s: &TraceSummary| s.label.as_deref().unwrap_or(s.source.as_str()).to_string();
    let mut out = String::from("finish-time comparison (s):\n");
    out.push_str(&format!("{:<name_w$}", "processor"));
    for s in &summaries {
        out.push_str(&format!(" {:>12}", col(s)));
    }
    out.push('\n');
    for key in &rows {
        out.push_str(&format!("{:<name_w$}", key.0));
        for ki in 0..summaries.len() {
            match lookup(ki, key) {
                Some(f) => out.push_str(&format!(" {f:>12.4}")),
                None => out.push_str(&format!(" {:>12}", "-")),
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<name_w$}", "makespan"));
    for s in &summaries {
        out.push_str(&format!(" {:>12.4}", s.makespan));
    }
    out.push('\n');
    for (ki, s) in summaries.iter().enumerate().skip(1) {
        let max_dev = rows
            .iter()
            .filter_map(|key| Some((lookup(ki, key)? - lookup(0, key)?).abs()))
            .fold(0.0f64, f64::max);
        out.push_str(&format!(
            "max |finish deviation| of {} vs {}: {:.6} s\n",
            col(s),
            col(&summaries[0]),
            max_dev
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLATFORM: &str = "proc root beta=0 alpha=0.01\nproc w1 beta=1e-4 alpha=0.004\nproc w2 beta=2e-4 alpha=0.016\nroot root\n";

    fn opts(items: usize) -> PlanOptions {
        PlanOptions { items, ..Default::default() }
    }

    fn sim_opts(ranks: usize) -> SimOptions {
        SimOptions { ranks, smoke: true, ..Default::default() }
    }

    #[test]
    fn sim_smoke_output_is_deterministic() {
        let o = sim_opts(1000);
        let a = cmd_sim(&o).unwrap();
        let b = cmd_sim(&o).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("sim: ranks=1000 items=10000 engine=prefix-sum"), "{a}");
        assert!(a.contains("sim: events=4000"), "{a}");
        assert!(!a.contains("wall="), "smoke output must omit wall-clock: {a}");
        let timed = cmd_sim(&SimOptions { smoke: false, ..sim_opts(1000) }).unwrap();
        assert!(timed.contains("events/sec="), "{timed}");
    }

    #[test]
    fn sim_pooled_clocks_match_the_simulator_bit_for_bit() {
        for threads in [1usize, 4] {
            let o = SimOptions { items: 500, pool: Some(threads), ..sim_opts(50) };
            let out = cmd_sim(&o).unwrap();
            assert!(out.contains(&format!("pool: threads={threads} ranks=50")), "{out}");
            assert!(out.contains("identical=true"), "{out}");
        }
    }

    #[test]
    fn sim_rejects_bad_sizes() {
        assert!(cmd_sim(&sim_opts(0)).is_err());
        assert!(cmd_sim(&sim_opts(5_000_000)).is_err());
        let o = SimOptions { emit_trace: true, ..sim_opts(20_000) };
        assert!(cmd_sim(&o).is_err());
        let o = SimOptions { pool: Some(2), ..sim_opts(200_000) };
        assert!(cmd_sim(&o).is_err());
    }

    #[test]
    fn sim_trace_round_trips_and_report_resolves_placeholders() {
        let o = SimOptions { items: 30, emit_trace: true, ..sim_opts(3) };
        let json = cmd_sim(&o).unwrap();
        let trace = trace_from_json(&json).unwrap();
        trace.validate().unwrap();
        assert_eq!(trace.names, vec!["#0", "#1", "#2"]);
        // Paired with a named trace of the same width, the three-way
        // diff swaps the placeholders for the sibling's real names.
        let named = cmd_trace(PLATFORM, &opts(30), "simulated", 1).unwrap();
        let report = cmd_report(&[json, named], 40).unwrap();
        let cmp = report
            .split("finish-time comparison")
            .nth(1)
            .expect("comparison section");
        assert!(!cmp.contains("#0"), "placeholders must be resolved: {cmp}");
        assert!(cmp.contains("w1"), "{cmp}");
    }

    /// Re-serializes a trace with the given processor names (the knob
    /// the placeholder edge-case tests turn).
    fn renamed(json: &str, names: &[&str]) -> String {
        let mut t = trace_from_json(json).unwrap();
        t.names = names.iter().map(|s| s.to_string()).collect();
        trace_to_json(&t)
    }

    /// The comparison section of a two-trace report.
    fn comparison_of(a: String, b: String) -> String {
        let report = cmd_report(&[a, b], 40).unwrap();
        report.split("finish-time comparison").nth(1).expect("comparison section").to_string()
    }

    #[test]
    fn report_keeps_placeholders_no_sibling_can_resolve() {
        // Every trace carries placeholders at position 0: there is no
        // donor name, so `#0` (and the sibling's `#5`) print verbatim
        // as distinct rows, while positions 1..2 resolve normally.
        let base = cmd_trace(PLATFORM, &opts(30), "simulated", 1).unwrap();
        let cmp = comparison_of(
            renamed(&base, &["#0", "#1", "#2"]),
            renamed(&base, &["#5", "w2", "root"]),
        );
        assert!(cmp.contains("#0"), "unresolvable placeholder must survive: {cmp}");
        assert!(cmp.contains("#5"), "{cmp}");
        assert!(!cmp.contains("#1"), "positions with a real donor must resolve: {cmp}");
        assert!(cmp.contains("w2"), "{cmp}");
    }

    #[test]
    fn report_does_not_rewrite_names_that_only_look_like_placeholders() {
        // `#12x` fails `NameInterner::parse_placeholder` (trailing
        // non-digit): it is a real — if eccentric — processor name and
        // must not be swapped for the sibling's name at that position.
        assert_eq!(NameInterner::parse_placeholder("#12x"), None);
        assert_eq!(NameInterner::parse_placeholder("w1"), None);
        assert_eq!(NameInterner::parse_placeholder(""), None);
        assert_eq!(NameInterner::parse_placeholder("#"), None);
        let base = cmd_trace(PLATFORM, &opts(30), "simulated", 1).unwrap();
        let cmp = comparison_of(
            renamed(&base, &["#12x", "w2", "root"]),
            renamed(&base, &["w1", "w2", "root"]),
        );
        assert!(cmp.contains("#12x"), "{cmp}");
        assert!(cmp.contains("w1"), "{cmp}");
    }

    #[test]
    fn report_resolves_a_literal_placeholder_name_by_position_not_id() {
        // The donor trace names its rank 0 `#7`: resolution is by rank
        // *position*, so the placeholder `#0` borrows nothing from the
        // id 7 — it keeps looking and finds nothing real at position 0.
        let base = cmd_trace(PLATFORM, &opts(30), "simulated", 1).unwrap();
        let cmp = comparison_of(
            renamed(&base, &["#0", "w2", "root"]),
            renamed(&base, &["#7", "w2", "root"]),
        );
        assert!(cmp.contains("#0"), "{cmp}");
        assert!(cmp.contains("#7"), "{cmp}");
    }

    #[test]
    fn plan_prints_counts() {
        let out = cmd_plan(PLATFORM, &opts(1000), false).unwrap();
        assert!(out.contains("predicted makespan"));
        assert!(out.contains("w1"));
        // Counts sum: extract column 2.
        let sum: usize = out
            .lines()
            .skip(2)
            .take(3)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn plan_prints_planning_time() {
        let out = cmd_plan(PLATFORM, &opts(1000), false).unwrap();
        assert!(out.contains("planning:"), "{out}");
        let mut o = opts(1000);
        o.strategy = "exact".into();
        o.threads = 2;
        let out = cmd_plan(PLATFORM, &o, false).unwrap();
        // Exact plans are banded by default, and say so.
        assert!(out.contains("exact strategy, 2 threads, pruned"), "{out}");
        assert!(out.contains("cache"), "{out}");
    }

    #[test]
    fn threads_do_not_change_the_printed_plan() {
        let mut serial = opts(2000);
        serial.strategy = "exact".into();
        let base = cmd_plan(PLATFORM, &serial, false).unwrap();
        let mut tuned = serial.clone();
        tuned.threads = 4;
        let fast = cmd_plan(PLATFORM, &tuned, false).unwrap();
        // Everything up to the timing line is identical.
        let body = |s: &str| {
            s.lines().filter(|l| !l.starts_with("planning:")).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(body(&base), body(&fast));
    }

    #[test]
    fn traces_carry_plan_timing_and_reports_render_it() {
        for source in ["predicted", "simulated", "executed"] {
            let json = cmd_trace(PLATFORM, &opts(500), source, 8).unwrap();
            let trace = trace_from_json(&json).unwrap();
            let timing = trace.plan_timing.as_ref().unwrap_or_else(|| {
                panic!("{source} trace must carry plan timing")
            });
            assert_eq!(timing.strategy, "heuristic");
            let report = cmd_report(&[json], 40).unwrap();
            assert!(report.contains("planning:"), "{source}: {report}");
        }
    }

    #[test]
    fn plan_emit_c() {
        let out = cmd_plan(PLATFORM, &opts(1000), true).unwrap();
        assert!(out.contains("static const int gs_counts[3]"));
    }

    #[test]
    fn simulate_renders_and_csvs() {
        let text = cmd_simulate(PLATFORM, &opts(500), 40, false).unwrap();
        assert!(text.contains('#'));
        assert!(text.contains("earliest finish"));
        let csv = cmd_simulate(PLATFORM, &opts(500), 40, true).unwrap();
        assert!(csv.starts_with("pos,name,data,"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn transform_combines_block_and_source() {
        let src = "MPI_Scatter(a, n/P, T, b, n/P, T, 0, MPI_COMM_WORLD);";
        let out = cmd_transform(src, PLATFORM, &opts(1000)).unwrap();
        assert!(out.contains("gs_counts[3]"));
        assert!(out.contains("MPI_Scatterv(a, gs_counts"));
    }

    #[test]
    fn transform_without_call_sites_errors() {
        assert!(cmd_transform("int main(){}", PLATFORM, &opts(10)).is_err());
    }

    #[test]
    fn bad_strategy_and_order_error() {
        let mut o = opts(10);
        o.strategy = "magic".into();
        assert!(cmd_plan(PLATFORM, &o, false).is_err());
        let mut o = opts(10);
        o.order = "zigzag".into();
        assert!(cmd_plan(PLATFORM, &o, false).is_err());
        assert!(cmd_plan(PLATFORM, &opts(0), false).is_err());
    }

    #[test]
    fn every_strategy_name_parses() {
        for s in [
            "uniform",
            "exact",
            "exact-basic",
            "exact-dc",
            "heuristic",
            "closed-form",
        ] {
            let mut o = opts(100);
            o.strategy = s.into();
            assert!(cmd_plan(PLATFORM, &o, false).is_ok(), "{s}");
        }
    }

    #[test]
    fn kernel_flag_selects_the_exact_strategies() {
        for (k, strategy_label) in
            [("basic", "exact-basic"), ("optimized", "exact"), ("dc", "exact-dc")]
        {
            let mut o = opts(200);
            o.kernel = Some(k.into());
            let out = cmd_plan(PLATFORM, &o, false).unwrap();
            assert!(out.contains(strategy_label), "{k}: {out}");
        }
        let mut o = opts(200);
        o.kernel = Some("quantum".into());
        assert!(cmd_plan(PLATFORM, &o, false).is_err());
    }

    #[test]
    fn exact_dc_plan_matches_exact_plan() {
        let mut dc = opts(5000);
        dc.strategy = "exact-dc".into();
        let mut ex = opts(5000);
        ex.strategy = "exact".into();
        let out_dc = cmd_plan(PLATFORM, &dc, false).unwrap();
        let out_ex = cmd_plan(PLATFORM, &ex, false).unwrap();
        // Everything but the strategy-naming lines (header + timing)
        // must be identical: same counts, displs, finish times, makespan.
        let body = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.contains("strategy") && !l.starts_with("planning"))
                .map(str::to_string)
                .collect()
        };
        assert!(!body(&out_dc).is_empty());
        assert_eq!(body(&out_dc), body(&out_ex));
    }

    #[test]
    fn trace_sources_agree_on_makespan() {
        // Predicted, simulated and executed traces of the same plan must
        // tell the same story (ideal conditions, same cost model).
        let pred = cmd_trace(PLATFORM, &opts(1000), "predicted", 8).unwrap();
        let sim = cmd_trace(PLATFORM, &opts(1000), "simulated", 8).unwrap();
        let exec = cmd_trace(PLATFORM, &opts(1000), "executed", 8).unwrap();
        let makespan = |text: &str| {
            gs_scatter::obs::json::trace_from_json(text).unwrap().makespan()
        };
        let (mp, ms, me) = (makespan(&pred), makespan(&sim), makespan(&exec));
        assert_eq!(mp, ms, "simulation reproduces the analytic schedule");
        assert!((mp - me).abs() < 1e-9, "executed {me} vs predicted {mp}");
    }

    #[test]
    fn trace_rejects_bad_inputs() {
        assert!(cmd_trace(PLATFORM, &opts(100), "guessed", 8).is_err());
        assert!(cmd_trace(PLATFORM, &opts(100), "predicted", 0).is_err());
    }

    #[test]
    fn report_renders_single_trace() {
        let json = cmd_trace(PLATFORM, &opts(1000), "predicted", 8).unwrap();
        let out = cmd_report(&[json], 40).unwrap();
        assert!(out.contains("predicted trace"));
        assert!(out.contains('#'), "gantt chart rendered");
        assert!(!out.contains("comparison"), "no diff for a single trace");
    }

    #[test]
    fn report_renders_three_way_diff() {
        let texts: Vec<String> = ["predicted", "simulated", "executed"]
            .iter()
            .map(|s| cmd_trace(PLATFORM, &opts(1000), s, 8).unwrap())
            .collect();
        let out = cmd_report(&texts, 40).unwrap();
        assert!(out.contains("finish-time comparison"));
        for source in ["predicted", "simulated", "executed"] {
            assert!(out.contains(source), "{source} column present");
        }
        assert!(out.contains("max |finish deviation|"));
        assert!(out.contains("makespan"));
    }

    #[test]
    fn report_rejects_garbage_and_too_many() {
        assert!(cmd_report(&[], 40).is_err());
        assert!(cmd_report(&["not json".into()], 40).is_err());
        let json = cmd_trace(PLATFORM, &opts(100), "predicted", 8).unwrap();
        assert!(cmd_report(&vec![json; 4], 40).is_err());
    }

    fn fault_opts(items: usize, spec: &str, no_recovery: bool) -> PlanOptions {
        PlanOptions {
            items,
            faults: Some(spec.into()),
            no_recovery,
            ..Default::default()
        }
    }

    #[test]
    fn plan_forecasts_degraded_and_recovered_makespans() {
        let out = cmd_plan(PLATFORM, &fault_opts(1000, "crash:w1@40%", false), false).unwrap();
        assert!(out.contains("fault injection: crash:w1@40%"), "{out}");
        assert!(out.contains("degraded :"), "{out}");
        assert!(out.contains("items lost"), "{out}");
        assert!(out.contains("recovered:"), "{out}");
        assert!(out.contains("all items computed"), "{out}");
        assert!(out.contains("recovery overhead"), "{out}");
        // --no-recovery drops the recovered forecast.
        let out = cmd_plan(PLATFORM, &fault_opts(1000, "crash:w1@40%", true), false).unwrap();
        assert!(!out.contains("recovered:"), "{out}");
    }

    #[test]
    fn simulate_with_faults_shows_incidents() {
        let out = cmd_simulate(PLATFORM, &fault_opts(1000, "crash:w1@0.01", false), 40, false)
            .unwrap();
        assert!(out.contains("(recovered)"), "{out}");
        assert!(out.contains("incidents:"), "{out}");
        assert!(out.contains("receiver crashed"), "{out}");
        assert!(out.contains("redistributing"), "{out}");
        let out = cmd_simulate(PLATFORM, &fault_opts(1000, "crash:w1@0.01", true), 40, false)
            .unwrap();
        assert!(out.contains("(degraded)"), "{out}");
        assert!(out.contains("items never computed"), "{out}");
    }

    #[test]
    fn faulted_trace_sources_agree_bit_for_bit() {
        // The crash of the fastest non-root rank mid-scatter (the
        // ISSUE.md acceptance scenario): simulated and executed runs
        // share the fault oracle, so their traces agree exactly.
        for no_recovery in [false, true] {
            let o = fault_opts(1000, "crash:w1@0.01,flaky:w2:1", no_recovery);
            let sim = cmd_trace(PLATFORM, &o, "simulated", 8).unwrap();
            let exec = cmd_trace(PLATFORM, &o, "executed", 8).unwrap();
            let sim = trace_from_json(&sim).unwrap();
            let exec = trace_from_json(&exec).unwrap();
            sim.validate().unwrap();
            exec.validate().unwrap();
            assert_eq!(sim.label, exec.label);
            assert_eq!(sim.incidents, exec.incidents);
            assert_eq!(sim.makespan(), exec.makespan());
        }
    }

    #[test]
    fn faulted_predicted_trace_is_rejected() {
        let o = fault_opts(100, "crash:w1@40%", false);
        assert!(cmd_trace(PLATFORM, &o, "predicted", 8).is_err());
        let o = fault_opts(100, "meltdown:w1", false);
        assert!(cmd_trace(PLATFORM, &o, "simulated", 8).is_err(), "bad spec");
    }

    #[test]
    fn report_shows_robustness_diff_with_labels() {
        let pred = cmd_trace(PLATFORM, &opts(1000), "simulated", 8).unwrap();
        let degraded =
            cmd_trace(PLATFORM, &fault_opts(1000, "crash:w1@0.01", true), "simulated", 8)
                .unwrap();
        let recovered =
            cmd_trace(PLATFORM, &fault_opts(1000, "crash:w1@0.01", false), "simulated", 8)
                .unwrap();
        let out = cmd_report(&[pred, degraded, recovered], 40).unwrap();
        assert!(out.contains("(degraded)"), "{out}");
        assert!(out.contains("(recovered)"), "{out}");
        assert!(out.contains("incidents:"), "{out}");
        assert!(out.contains("receiver crashed"), "{out}");
        // Comparison columns carry the labels.
        assert!(out.contains("finish-time comparison"), "{out}");
        let header = out
            .lines()
            .skip_while(|l| !l.starts_with("finish-time comparison"))
            .nth(1)
            .unwrap();
        assert!(header.contains("degraded") && header.contains("recovered"), "{header}");
    }

    #[test]
    fn calibrate_output_pipes_back_into_plan() {
        // Two executed traces at different sizes pin down both affine
        // parameters of every rank exactly.
        let t1 = cmd_trace(PLATFORM, &opts(500), "executed", 8).unwrap();
        let t2 = cmd_trace(PLATFORM, &opts(1000), "executed", 8).unwrap();
        let out = cmd_calibrate(&[t1, t2]).unwrap();
        assert!(out.contains("# w1: comm"), "fit notes present: {out}");
        assert!(out.contains("root root"), "{out}");
        // The rendered platform reparses and reproduces the original
        // platform's predicted makespan.
        let original = cmd_plan(PLATFORM, &opts(1000), false).unwrap();
        let fitted = cmd_plan(&out, &opts(1000), false).unwrap();
        let makespan = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("predicted makespan"))
                .unwrap()
                .to_string()
        };
        assert_eq!(makespan(&original), makespan(&fitted));
    }

    #[test]
    fn calibrate_rejects_bad_inputs() {
        assert!(cmd_calibrate(&[]).is_err());
        assert!(cmd_calibrate(&["not json".into()]).is_err());
    }

    #[test]
    fn metrics_dumps_prometheus_exposition() {
        let out = cmd_metrics(PLATFORM, &opts(500), 8).unwrap();
        assert!(out.contains("# HELP sim_runs_total"), "{out}");
        assert!(out.contains("# TYPE mpi_send_seconds histogram"), "{out}");
        assert!(out.contains("mpi_sends_total"), "{out}");
        // The fault-tolerant path feeds the ft_* family.
        let out = cmd_metrics(PLATFORM, &fault_opts(500, "crash:w1@0.01", false), 8).unwrap();
        assert!(out.contains("ft_sends_total"), "{out}");
        assert!(out.contains("ft_replans_total"), "{out}");
        assert!(cmd_metrics(PLATFORM, &opts(500), 0).is_err());
    }

    #[test]
    fn executed_payload_past_the_cap_is_a_typed_error() {
        // 10^9 items of 8 bytes: 8 GB, which once aborted the process on
        // allocation. The cap refuses it before any rank starts.
        let table1 = cmd_table1();
        let big = PlanOptions { strategy: "exact".into(), ..opts(1_000_000_000) };
        let err = cmd_metrics(&table1, &big, 8).unwrap_err();
        assert!(err.0.contains("payload cap"), "{}", err.0);
        let err = cmd_trace(&table1, &big, "executed", 8).unwrap_err();
        assert!(err.0.contains("payload cap"), "{}", err.0);
        // The fault-tolerant path scatters `u64` items: 2·10^8 of them
        // are 1.6 GB.
        let ft = fault_opts(200_000_000, "crash:w1@0.01", false);
        let err = cmd_trace(PLATFORM, &ft, "executed", 8).unwrap_err();
        assert!(err.0.contains("payload cap"), "{}", err.0);
        // The byte count itself overflowing is the same error.
        assert!(executed_payload_bytes(usize::MAX, 8).is_err());
        assert_eq!(executed_payload_bytes(1 << 27, 8).unwrap(), EXECUTED_PAYLOAD_CAP);
    }

    #[test]
    fn metrics_json_is_machine_readable() {
        let out = cmd_metrics_json(PLATFORM, &opts(500), 8).unwrap();
        let doc = json::parse(&out).expect("valid JSON");
        let counters = doc.get("counters").and_then(Json::as_arr).expect("counters array");
        assert!(counters
            .iter()
            .any(|c| c.get("name").and_then(Json::as_str) == Some("mpi_sends_total")));
        assert!(doc.get("histograms").and_then(Json::as_arr).is_some());
        assert!(out.ends_with('\n'), "shell-friendly trailing newline");
        assert!(cmd_metrics_json(PLATFORM, &opts(500), 0).is_err());
    }

    /// One test drives every span-capturing front-end: span tracing is
    /// process-global state, so exercising it from a single test keeps
    /// the library tests race-free.
    #[test]
    fn spanned_commands_export_chrome_traces_and_report_summarizes_them() {
        let (out, spans) = cmd_sim_spanned(&sim_opts(500)).unwrap();
        assert!(out.starts_with("sim: ranks=500"), "{out}");
        let doc = json::parse(&spans).expect("valid Chrome trace JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> =
            events.iter().filter_map(|e| e.get("name").and_then(Json::as_str)).collect();
        assert!(names.contains(&"sim.star"), "{names:?}");
        assert!(names.contains(&"sim.run"), "{names:?}");

        let summary = cmd_report_spans(&spans).unwrap();
        assert!(summary.starts_with("span summary:"), "{summary}");
        assert!(summary.contains("sim.star"), "{summary}");

        // The DP planner under `gs trace --spans` contributes dp.* spans.
        let mut o = opts(2000);
        o.strategy = "exact".into();
        let (_, spans) = cmd_trace_spanned(PLATFORM, &o, "simulated", 8).unwrap();
        assert!(spans.contains("\"dp.solve\""), "{spans}");
        assert!(spans.contains("\"sim.scatter\""), "{spans}");

        // Capture is scoped: tracing is off again afterwards.
        assert!(!span::enabled());
    }

    #[test]
    fn report_spans_computes_self_time_and_rejects_junk() {
        // A 100µs parent with one 30µs child: self = 70µs for the
        // parent, 30µs for the child; an id-less virtual span and an
        // unknown parent id are both tolerated.
        let text = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"wall clock"}},
            {"name":"a","cat":"t","ph":"X","ts":0,"dur":100,"pid":1,"tid":1,
             "args":{"id":"1","parent":"0"}},
            {"name":"b","cat":"t","ph":"X","ts":10,"dur":30,"pid":1,"tid":1,
             "args":{"id":"2","parent":"1"}},
            {"name":"c","cat":"t","ph":"X","ts":20,"dur":5,"pid":1,"tid":1,
             "args":{"id":"3","parent":"999"}}
        ]}"#;
        let out = cmd_report_spans(text).unwrap();
        assert!(out.starts_with("span summary: 3 spans, 3 names\n"), "{out}");
        let row = |name: &str| {
            out.lines()
                .find(|l| l.split_whitespace().nth(1) == Some(name))
                .unwrap_or_else(|| panic!("no row for {name}: {out}"))
                .to_string()
        };
        assert!(row("a").ends_with("0.100        0.070"), "{out}");
        assert!(row("b").ends_with("0.030        0.030"), "{out}");
        assert!(row("c").ends_with("0.005        0.005"), "{out}");
        // Ranked by self time: a (70) before b (30) before c (5).
        let pos =
            |n: &str| out.lines().position(|l| l.split_whitespace().nth(1) == Some(n)).unwrap();
        assert!(pos("a") < pos("b") && pos("b") < pos("c"));

        assert!(cmd_report_spans("{}").is_err());
        assert!(cmd_report_spans("not json").is_err());
        assert!(cmd_report_spans(r#"{"traceEvents":[{"ph":"X"}]}"#).is_err());
    }

    #[test]
    fn drift_gate_passes_faithful_trace_and_flags_perturbed_model() {
        let exec = cmd_trace(PLATFORM, &opts(1000), "executed", 8).unwrap();
        let (out, ok) =
            cmd_report_drift(std::slice::from_ref(&exec), 40, PLATFORM, 0.01).unwrap();
        assert!(ok, "{out}");
        assert!(out.contains("drift vs predicted"), "{out}");
        assert!(out.contains("drift check: OK"), "{out}");
        // The same trace judged against a mis-specified platform (w2's
        // alpha halved) must trip the gate.
        let wrong = PLATFORM.replace("alpha=0.016", "alpha=0.008");
        let (out, ok) = cmd_report_drift(std::slice::from_ref(&exec), 40, &wrong, 0.01).unwrap();
        assert!(!ok, "{out}");
        assert!(out.contains("FAIL"), "{out}");
        // Bad thresholds and unknown rank names are hard errors, not
        // gate failures.
        assert!(cmd_report_drift(std::slice::from_ref(&exec), 40, PLATFORM, -0.5).is_err());
        let renamed = PLATFORM.replace("proc w2", "proc other");
        assert!(cmd_report_drift(&[exec], 40, &renamed, 0.01).is_err());
    }

    #[test]
    fn table1_output_reparses() {
        let text = cmd_table1();
        let plan = cmd_plan(&text, &opts(817_101), false).unwrap();
        assert!(plan.contains("dinadan"));
        assert!(plan.contains("leda"));
    }
}
