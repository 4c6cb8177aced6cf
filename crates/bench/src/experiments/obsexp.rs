//! Observability three-way experiment: the same plan runs through the
//! planner's analytic Eq. (1) prediction, the gs-gridsim discrete-event
//! simulator, and a real gs-minimpi world, each emitting a trace in the
//! shared schema (`docs/observability.md`). The experiment exports all
//! three as JSON/CSV and reports how far the executed run drifted from
//! the prediction — the paper's "model vs reality" check of §5.2 in
//! trace form.

use gs_gridsim::export::{write_trace_csv, write_trace_json};
use gs_gridsim::sim::simulate_plan;
use gs_minimpi::{executed_trace, run_world, TimeModel, WorldConfig};
use gs_scatter::obs::{Trace, TraceSource, TraceSummary};
use gs_scatter::ordering::OrderPolicy;
use gs_scatter::paper::table1_platform;
use gs_scatter::planner::{Plan, Planner, Strategy};

/// The three traces of one plan, plus their derived summaries.
#[derive(Debug)]
pub struct ObsComparison {
    /// The plan all three paths execute.
    pub plan: Plan,
    /// Planner's analytic schedule (source `predicted`).
    pub predicted: Trace,
    /// Discrete-event simulation (source `simulated`).
    pub simulated: Trace,
    /// Real minimpi run, threads + virtual clocks (source `executed`).
    pub executed: Trace,
    /// `summarize()` of each trace, same order.
    pub summaries: [TraceSummary; 3],
    /// Largest |finish(executed) − finish(predicted)| over all ranks, s.
    pub max_drift: f64,
}

/// Plans `n` items on the Table-1 grid and runs all three execution
/// paths, returning their traces and summaries.
pub fn observe_three_ways(n: usize, item_bytes: u64) -> ObsComparison {
    assert!(item_bytes > 0, "items need a wire size");
    let platform = table1_platform();
    let plan = Planner::new(platform.clone())
        .strategy(Strategy::Heuristic)
        .order_policy(OrderPolicy::DescendingBandwidth)
        .plan(n)
        .expect("Table-1 platform plans cleanly");
    let names: Vec<&str> = plan
        .order
        .iter()
        .map(|&i| platform.procs()[i].name.as_str())
        .collect();
    let counts = plan.counts_in_order();

    let predicted = plan.predicted_trace(&platform, item_bytes);
    let simulated = Trace::from_timeline(
        TraceSource::Simulated,
        &names,
        &counts,
        item_bytes,
        &simulate_plan(&platform, &plan, &[]).timeline,
    );

    // Executed: world rank r plays scatter position r (root last), so the
    // runtime's rank-ordered single-port scatterv realizes the plan.
    let model = TimeModel::from_platform(&platform, item_bytes as usize).reordered(&plan.order);
    let p = platform.len();
    let root = p - 1;
    let counts_bytes: Vec<usize> = counts.iter().map(|c| c * item_bytes as usize).collect();
    let total_bytes: usize = counts_bytes.iter().sum();
    let ib = item_bytes as usize;
    let records = run_world(p, WorldConfig::with_time(model), move |c| {
        c.enable_tracing();
        let buf = vec![0u8; total_bytes];
        let mine = c.scatterv(root, if c.rank() == root { Some(&buf) } else { None }, &counts_bytes);
        c.model_compute(mine.len() / ib);
        c.take_trace()
    });
    let executed = executed_trace(&names, item_bytes, &records);

    for t in [&predicted, &simulated, &executed] {
        t.validate().expect("every producer emits a valid trace");
    }
    let summaries = [
        TraceSummary::from_trace(&predicted),
        TraceSummary::from_trace(&simulated),
        TraceSummary::from_trace(&executed),
    ];
    let max_drift = summaries[0]
        .ranks
        .iter()
        .zip(&summaries[2].ranks)
        .map(|(a, b)| (a.finish - b.finish).abs())
        .fold(0.0f64, f64::max);
    ObsComparison { plan, predicted, simulated, executed, summaries, max_drift }
}

/// Writes the three traces as `{predicted,simulated,executed}.{json,csv}`
/// under `dir`, creating it if needed. Returns the file count (6).
pub fn export_traces(cmp: &ObsComparison, dir: &std::path::Path) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut written = 0;
    for trace in [&cmp.predicted, &cmp.simulated, &cmp.executed] {
        let stem = trace.source.as_str();
        write_trace_json(dir.join(format!("{stem}.json")), trace)?;
        write_trace_csv(dir.join(format!("{stem}.csv")), trace)?;
        written += 2;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_paths_tell_one_story() {
        let cmp = observe_three_ways(20_000, 8);
        let [p, s, e] = &cmp.summaries;
        assert_eq!(p.makespan, s.makespan, "DES must equal the analytic schedule exactly");
        assert!(cmp.max_drift <= 1e-9 * p.makespan.max(1.0), "drift {}", cmp.max_drift);
        assert!((e.makespan - p.makespan).abs() <= 1e-9 * p.makespan);
        // Byte conservation holds in every path.
        for sum in [p, s, e] {
            assert_eq!(sum.total_bytes, 20_000 * 8);
        }
    }

    #[test]
    fn export_writes_all_six_files() {
        let cmp = observe_three_ways(500, 8);
        let dir = std::env::temp_dir().join("gs-obsexp-test");
        let n = export_traces(&cmp, &dir).unwrap();
        assert_eq!(n, 6);
        let json = std::fs::read_to_string(dir.join("executed.json")).unwrap();
        let back = gs_scatter::obs::json::trace_from_json(&json).unwrap();
        assert_eq!(back, cmp.executed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
