//! Invariants of the observability schema (`docs/observability.md`),
//! checked across all three trace producers: for every trace, per-rank
//! busy + idle = makespan, bytes are conserved (Σ link bytes = Σ counts ×
//! item size), and the event stream is well-ordered; and the makespan a
//! simulator trace reports equals the analytic Eq. (2) value.

use grid_scatter::gridsim::sim::simulate_plan;
use grid_scatter::prelude::*;
use grid_scatter::scatter::analysis::analyze;
use grid_scatter::scatter::obs::{EventKind, Trace, TraceSource, TraceSummary};
use grid_scatter::scatter::paper::table1_platform;
use grid_scatter::scatter::planner::{Plan, Strategy};
use proptest::prelude::*;
// The planner also exports a `Strategy`; pull proptest's trait in
// anonymously so `prop_map` resolves.
use proptest::strategy::Strategy as _;

const ITEM_BYTES: u64 = 8;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// All three producers for one plan: predicted, simulated, executed.
fn three_traces(platform: &Platform, plan: &Plan) -> Vec<Trace> {
    let names: Vec<&str> = plan
        .order
        .iter()
        .map(|&i| platform.procs()[i].name.as_str())
        .collect();
    let counts = plan.counts_in_order();
    let predicted = plan.predicted_trace(platform, ITEM_BYTES);
    let simulated = Trace::from_timeline(
        TraceSource::Simulated,
        &names,
        &counts,
        ITEM_BYTES,
        &simulate_plan(platform, plan, &[]).timeline,
    );

    let model = grid_scatter::minimpi::TimeModel::from_platform(platform, ITEM_BYTES as usize)
        .reordered(&plan.order);
    let p = platform.len();
    let root = p - 1;
    let counts_bytes: Vec<usize> = counts.iter().map(|c| c * ITEM_BYTES as usize).collect();
    let total_bytes: usize = counts_bytes.iter().sum();
    let records = grid_scatter::minimpi::run_world(
        p,
        grid_scatter::minimpi::WorldConfig::with_time(model),
        move |c| {
            c.enable_tracing();
            let buf = vec![0u8; total_bytes];
            let mine =
                c.scatterv(root, if c.rank() == root { Some(&buf) } else { None }, &counts_bytes);
            c.model_compute(mine.len() / ITEM_BYTES as usize);
            c.take_trace()
        },
    );
    let executed = grid_scatter::minimpi::executed_trace(&names, ITEM_BYTES, &records);
    vec![predicted, simulated, executed]
}

/// The schema invariants one trace must satisfy.
fn assert_invariants(trace: &Trace, n: usize) {
    // Well-ordered per rank, properly bracketed, in-range — validate()
    // is the normative check.
    trace.validate().unwrap_or_else(|e| panic!("{:?}: {e}", trace.source));
    let summary = TraceSummary::from_trace(trace);

    // Per-processor busy + idle = makespan.
    for r in &summary.ranks {
        assert!(
            close(r.busy + r.idle, summary.makespan),
            "{:?} rank {}: busy {} + idle {} != makespan {}",
            trace.source,
            r.rank,
            r.busy,
            r.idle,
            summary.makespan
        );
    }

    // Byte conservation: Σ per-link bytes = Σ distribution counts × item
    // size = n × item size (the root's kept block is a self-link).
    let link_total: u64 = summary.links.iter().map(|l| l.bytes).sum();
    assert_eq!(link_total, n as u64 * ITEM_BYTES, "{:?}", trace.source);
    assert_eq!(summary.total_bytes, link_total);

    // Events are globally sorted and per-rank monotone with matched
    // start/end pairs per phase.
    let mut prev_t = 0.0f64;
    for e in &trace.events {
        assert!(e.t >= prev_t, "{:?}: events not time-sorted", trace.source);
        prev_t = e.t;
    }
    for rank in 0..trace.num_ranks() {
        let evs: Vec<_> = trace.events_for_rank(rank).collect();
        let starts = evs.iter().filter(|e| e.kind == EventKind::SendStart).count();
        let ends = evs.iter().filter(|e| e.kind == EventKind::SendEnd).count();
        assert_eq!(starts, ends, "{:?} rank {rank}: unbalanced sends", trace.source);
        let cs = evs.iter().filter(|e| e.kind == EventKind::ComputeStart).count();
        let ce = evs.iter().filter(|e| e.kind == EventKind::ComputeEnd).count();
        assert_eq!(cs, ce, "{:?} rank {rank}: unbalanced computes", trace.source);
    }
}

#[test]
fn invariants_hold_for_all_three_producers_on_table1() {
    let platform = table1_platform();
    for strategy in [Strategy::Uniform, Strategy::Heuristic, Strategy::ClosedForm] {
        let plan = Planner::new(platform.clone()).strategy(strategy).plan(12_345).unwrap();
        for trace in three_traces(&platform, &plan) {
            assert_invariants(&trace, 12_345);
        }
    }
}

#[test]
fn all_three_sources_agree_on_the_schedule() {
    let platform = table1_platform();
    let plan = Planner::new(platform.clone()).strategy(Strategy::Heuristic).plan(40_000).unwrap();
    let traces = three_traces(&platform, &plan);
    let makespans: Vec<f64> =
        traces.iter().map(|t| TraceSummary::from_trace(t).makespan).collect();
    assert_eq!(makespans[0], makespans[1], "prediction vs DES must match exactly");
    assert!(close(makespans[0], makespans[2]), "{} vs {}", makespans[0], makespans[2]);
}

#[test]
fn zero_items_give_an_empty_but_valid_story() {
    let platform = table1_platform();
    let plan = Planner::new(platform.clone()).strategy(Strategy::Heuristic).plan(0).unwrap();
    for trace in three_traces(&platform, &plan) {
        trace.validate().unwrap();
        let summary = TraceSummary::from_trace(&trace);
        assert_eq!(summary.makespan, 0.0);
        assert_eq!(summary.total_bytes, 0);
    }
}

/// Random linear platform: root first (beta 0), then workers.
fn platform_strategy(max_p: usize) -> impl proptest::strategy::Strategy<Value = Platform> {
    let worker = (1u32..=300, 1u32..=300).prop_map(|(b, a)| (b as f64 * 1e-3, a as f64 * 1e-2));
    (proptest::collection::vec(worker, 1..max_p), 1u32..=300).prop_map(|(workers, root_a)| {
        let mut procs = vec![Processor::linear("root", 0.0, root_a as f64 * 1e-2)];
        for (i, (b, a)) in workers.into_iter().enumerate() {
            procs.push(Processor::linear(format!("w{i}"), b, a));
        }
        Platform::new(procs, 0).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// On any platform, the makespan derived from the simulator's trace
    /// equals the analytic Eq. (2) value of the same distribution.
    #[test]
    fn simulated_trace_makespan_is_eq2(platform in platform_strategy(6), n in 1usize..=5_000) {
        let plan = Planner::new(platform.clone())
            .strategy(Strategy::Heuristic)
            .plan(n)
            .unwrap();
        let names: Vec<&str> = plan.order.iter()
            .map(|&i| platform.procs()[i].name.as_str())
            .collect();
        let counts = plan.counts_in_order();
        let sim = simulate_plan(&platform, &plan, &[]);
        let trace =
            Trace::from_timeline(TraceSource::Simulated, &names, &counts, ITEM_BYTES, &sim.timeline);
        let summary = TraceSummary::from_trace(&trace);
        // Eq. (2): T = max_i T_i over the ordered view.
        let view = platform.ordered(&plan.order);
        let report = analyze(&view, &counts);
        prop_assert!(close(summary.makespan, report.makespan),
                     "trace {} vs Eq.(2) {}", summary.makespan, report.makespan);
        // And the invariants hold on random platforms too.
        trace.validate().unwrap();
        for r in &summary.ranks {
            prop_assert!(close(r.busy + r.idle, summary.makespan));
        }
        prop_assert_eq!(summary.total_bytes, n as u64 * ITEM_BYTES);
    }
}
