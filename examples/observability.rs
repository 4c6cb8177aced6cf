//! Observability: run one plan through all three execution paths —
//! analytic prediction, discrete-event simulation, real minimpi world —
//! and audit them against each other through the shared trace schema
//! (`docs/observability.md`).
//!
//! Run with: `cargo run --example observability`

use grid_scatter::minimpi::{executed_trace, run_world, TimeModel, WorldConfig};
use grid_scatter::prelude::*;
use grid_scatter::scatter::obs::json::trace_to_json;

fn main() {
    // A small heterogeneous grid (Table-1 units: β s/item link, α s/item
    // compute; the root holds the data).
    let platform = Platform::new(
        vec![
            Processor::linear("root", 0.0, 0.0093),
            Processor::linear("fast-cpu", 1.0e-4, 0.0046),
            Processor::linear("slow-cpu", 2.1e-4, 0.0162),
            Processor::linear("far-away", 8.2e-4, 0.0040),
        ],
        0,
    )
    .unwrap();
    let n = 50_000;
    let item_bytes = 8u64; // one f64 per item on the wire

    let plan = Planner::new(platform.clone())
        .strategy(Strategy::Heuristic)
        .order_policy(OrderPolicy::DescendingBandwidth)
        .plan(n)
        .unwrap();
    let names: Vec<&str> =
        plan.order.iter().map(|&i| platform.procs()[i].name.as_str()).collect();
    let counts = plan.counts_in_order();

    // Path 1: the planner's Eq. (1)/(2) prediction.
    let predicted = plan.predicted_trace(&platform, item_bytes);

    // Path 2: the discrete-event simulator (unperturbed here; pass
    // LoadTrace background load to see the schedule degrade).
    let simulated = Trace::from_timeline(
        TraceSource::Simulated,
        &names,
        &counts,
        item_bytes,
        &simulate_plan(&platform, &plan, &[]).timeline,
    );

    // Path 3: a real scatterv on the threaded minimpi runtime. World
    // rank r plays scatter position r (root last), so the rank-ordered
    // single-port scatter realizes the planned order.
    let model = TimeModel::from_platform(&platform, item_bytes as usize).reordered(&plan.order);
    let p = platform.len();
    let root = p - 1;
    let counts_bytes: Vec<usize> = counts.iter().map(|c| c * item_bytes as usize).collect();
    let total: usize = counts_bytes.iter().sum();
    let records = run_world(p, WorldConfig::with_time(model), move |c| {
        c.enable_tracing();
        let buf = vec![0u8; total];
        let mine = c.scatterv(root, if c.rank() == root { Some(&buf) } else { None }, &counts_bytes);
        c.model_compute(mine.len() / item_bytes as usize);
        c.take_trace()
    });
    let executed = executed_trace(&names, item_bytes, &records);

    // All three speak the same schema; summarize and cross-check.
    for trace in [&predicted, &simulated, &executed] {
        trace.validate().expect("schema invariants hold");
        println!("{}", TraceSummary::from_trace(trace).render());
    }
    let mk = |t: &Trace| TraceSummary::from_trace(t).makespan;
    assert_eq!(mk(&predicted), mk(&simulated), "DES reproduces Eq. (2) exactly");
    assert!((mk(&executed) - mk(&predicted)).abs() < 1e-9 * mk(&predicted).max(1.0));
    println!("all three paths agree: makespan {:.4} s", mk(&predicted));

    // Export one for `gs report` (stdout here; see gs trace for files).
    let json = trace_to_json(&executed);
    println!("executed trace: {} events, {} JSON bytes", executed.events.len(), json.len());
}
