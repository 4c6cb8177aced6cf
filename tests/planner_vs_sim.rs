//! Cross-crate consistency: the planner's analytic prediction (Eq. 1/2),
//! the discrete-event simulator, and the minimpi virtual clock must all
//! tell the same story.

use grid_scatter::gridsim::sim::{simulate_plan, simulate_scatter, SimConfig};
use grid_scatter::prelude::*;
use grid_scatter::scatter::paper::table1_platform;
use grid_scatter::scatter::planner::Strategy;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn prediction_equals_simulation_for_every_strategy() {
    let platform = table1_platform();
    for strategy in [
        Strategy::Uniform,
        Strategy::Exact,
        Strategy::Heuristic,
        Strategy::ClosedForm,
    ] {
        let plan = Planner::new(platform.clone())
            .strategy(strategy)
            .plan(5_000)
            .unwrap();
        let sim = simulate_plan(&platform, &plan, &[]);
        assert_eq!(
            sim.timeline, plan.predicted,
            "{strategy:?}: DES must equal the analytic timeline exactly"
        );
        assert!(close(sim.makespan, plan.predicted_makespan));
    }
}

#[test]
fn simulation_is_order_sensitive_like_the_model() {
    let platform = table1_platform();
    let n = 100_000;
    let mk = |policy| {
        let plan = Planner::new(platform.clone())
            .strategy(Strategy::Heuristic)
            .order_policy(policy)
            .plan(n)
            .unwrap();
        simulate_plan(&platform, &plan, &[]).makespan
    };
    let desc = mk(OrderPolicy::DescendingBandwidth);
    let asc = mk(OrderPolicy::AscendingBandwidth);
    assert!(desc < asc, "descending {desc} must beat ascending {asc}");
}

#[test]
fn perturbed_simulation_diverges_from_prediction() {
    let platform = table1_platform();
    let plan = Planner::new(platform.clone())
        .strategy(Strategy::Heuristic)
        .plan(50_000)
        .unwrap();
    // Slow down the machine that computes longest.
    let mut loads = vec![LoadTrace::none(); platform.len()];
    loads[3] = LoadTrace::new(vec![(0.0, 1.5)]); // sekhmet
    let perturbed = simulate_plan(&platform, &plan, &loads);
    assert!(perturbed.makespan > plan.predicted_makespan);
    // And only the victim (plus nobody else) moved.
    let pos = plan.order.iter().position(|&i| i == 3).unwrap();
    for (i, (&sim_f, &pred_f)) in perturbed
        .timeline
        .finish
        .iter()
        .zip(&plan.predicted.finish)
        .enumerate()
    {
        if i == pos {
            assert!(sim_f > pred_f);
        } else {
            assert!(close(sim_f, pred_f), "proc {i}: {sim_f} vs {pred_f}");
        }
    }
}

#[test]
fn uniform_counts_reproduce_scatter_semantics() {
    // A scatter of n items with uniform distribution: every block within
    // one item of n/p, laid out contiguously.
    let platform = table1_platform();
    let plan = Planner::new(platform.clone())
        .strategy(Strategy::Uniform)
        .plan(817_101)
        .unwrap();
    for &c in &plan.counts {
        assert!(c == 51068 || c == 51069);
    }
    // displs form a permutation-consistent contiguous layout.
    let mut blocks: Vec<(usize, usize)> = plan
        .displs
        .iter()
        .zip(&plan.counts)
        .map(|(&d, &c)| (d, c))
        .collect();
    blocks.sort();
    let mut expect = 0;
    for (d, c) in blocks {
        assert_eq!(d, expect);
        expect += c;
    }
    assert_eq!(expect, 817_101);
}

#[test]
fn des_engine_handles_degenerate_platforms() {
    // One processor (the root alone).
    let platform = Platform::new(vec![Processor::linear("solo", 0.0, 0.01)], 0).unwrap();
    let plan = Planner::new(platform.clone()).strategy(Strategy::Exact).plan(100).unwrap();
    let sim = simulate_plan(&platform, &plan, &[]);
    assert!(close(sim.makespan, 1.0));

    // Zero items.
    let plan0 = Planner::new(platform.clone()).strategy(Strategy::Exact).plan(0).unwrap();
    let sim0 = simulate_plan(&platform, &plan0, &[]);
    assert_eq!(sim0.makespan, 0.0);
}

#[test]
fn metrics_agree_between_model_and_sim() {
    let platform = table1_platform();
    let plan = Planner::new(platform.clone())
        .strategy(Strategy::ClosedForm)
        .plan(20_000)
        .unwrap();
    let sim = simulate_plan(&platform, &plan, &[]);
    let (model, sim) = (&plan.predicted, &sim.timeline);
    let stair = |tl: &Timeline| tl.comm_start.iter().sum::<f64>();
    assert!(close(model.makespan(), sim.makespan()));
    assert!(close(stair(model), stair(sim)));
    assert!(close(model.total_idle(), sim.total_idle()));
}

#[test]
fn direct_scatter_sim_matches_planned_sim() {
    let platform = table1_platform();
    let plan = Planner::new(platform.clone())
        .strategy(Strategy::Heuristic)
        .plan(10_000)
        .unwrap();
    let view = platform.ordered(&plan.order);
    let by_hand = simulate_scatter(&view, &plan.counts_in_order(), &SimConfig::ideal());
    let by_plan = simulate_plan(&platform, &plan, &[]);
    assert_eq!(by_hand.timeline, by_plan.timeline);
}
