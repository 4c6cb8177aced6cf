//! Theorem 3 in action: the order in which the single-port root serves
//! the processors matters. Descending bandwidth (the paper's policy) vs
//! ascending vs a random order, on the Table-1 grid — the §5.2 comparison
//! between Figures 3 and 4.
//!
//! Run with: `cargo run --example ordering_policy`

use grid_scatter::prelude::*;
use grid_scatter::scatter::paper::{table1_platform, N_RAYS_1999};

fn main() {
    let platform = table1_platform();
    let n = N_RAYS_1999;

    println!("balanced scatter of {n} rays under different processor orderings\n");
    println!("{:<38} {:>12} {:>12}", "ordering policy", "makespan (s)", "stair (s)");
    let mut desc_makespan = None;
    for (label, policy) in [
        ("descending bandwidth (Theorem 3)", OrderPolicy::DescendingBandwidth),
        ("ascending bandwidth (Fig. 4 control)", OrderPolicy::AscendingBandwidth),
        ("platform index order", OrderPolicy::AsIs),
        ("fastest CPU first (wrong sort key)", OrderPolicy::FastestCpuFirst),
        ("random (seed 42)", OrderPolicy::Random(42)),
    ] {
        let plan = Planner::new(platform.clone())
            .strategy(Strategy::Heuristic)
            .order_policy(policy)
            .plan(n)
            .unwrap();
        let stair: f64 = plan.predicted.comm_start.iter().sum();
        println!("{:<38} {:>12.1} {:>12.1}", label, plan.predicted_makespan, stair);
        if policy == OrderPolicy::DescendingBandwidth {
            desc_makespan = Some(plan.predicted_makespan);
        }
    }

    let desc = desc_makespan.unwrap();
    println!(
        "\nthe paper measured +56 s for ascending vs descending ({} rays);",
        n
    );
    let asc = Planner::new(platform)
        .strategy(Strategy::Heuristic)
        .order_policy(OrderPolicy::AscendingBandwidth)
        .plan(n)
        .unwrap()
        .predicted_makespan;
    println!("this model predicts +{:.0} s — most of it idle time spent", asc - desc);
    println!("waiting for slow links served first (the bigger stair area above).");
}
