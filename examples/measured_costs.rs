//! Benchmark-driven planning (the general case the exact DPs exist for):
//! calibrate this host's real per-ray compute cost, build *tabulated*
//! cost functions from the measurements, and plan with Algorithm 2 —
//! no affine/linear assumption anywhere.
//!
//! Run with: `cargo run --release --example measured_costs`

use grid_scatter::prelude::*;
use grid_scatter::scatter::ordering::scatter_order;
use grid_scatter::seismic::calib::{measure_alpha, measured_comp_cost};

fn main() {
    let model = EarthModel::default();

    // Step 1: the Table-1 procedure — benchmark the application kernel.
    println!("calibrating this host's ray-tracing cost...");
    let alpha = measure_alpha(&model, 200, 42);
    println!("  measured alpha = {:.2e} s/ray (paper's machines: 4.0e-3 .. 1.6e-2)\n", alpha);

    // Step 2: tabulated cost functions from timed batches.
    let table = measured_comp_cost(&model, &[50, 100, 200, 400], 7);
    println!("  tabulated compute cost: {table:?}");

    // Step 3: a platform mixing the measured host with two hypothetical
    // machines derived from it (one 2x faster, one 3x slower), behind
    // synthetic links.
    let platform = Platform::new(
        vec![
            Processor { name: "this-host (root)".into(), comm: CostFn::Zero, comp: table.clone() },
            Processor {
                name: "2x-faster".into(),
                comm: CostFn::Linear { slope: alpha / 50.0 },
                comp: CostFn::Linear { slope: alpha / 2.0 },
            },
            Processor {
                name: "3x-slower".into(),
                comm: CostFn::Linear { slope: alpha / 100.0 },
                comp: CostFn::Linear { slope: alpha * 3.0 },
            },
        ],
        0,
    )
    .unwrap();

    // Step 4: exact DP on the measured (non-affine) costs.
    let n = 2_000;
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    let (sol, _) = solve(Kernel::Optimized, &CostTable::new(), &view, n, &ParallelOpts::serial())
        .expect("tabulated costs are increasing");

    println!("\noptimal distribution of {n} rays (Algorithm 2 on measured costs):");
    for (pos, &idx) in order.iter().enumerate() {
        println!(
            "  {:<18} {:>6} rays",
            platform.procs()[idx].name, sol.counts[pos]
        );
    }
    println!("predicted makespan: {:.3} s", sol.makespan);
    let fast_pos = order.iter().position(|&i| i == 1).unwrap();
    let slow_pos = order.iter().position(|&i| i == 2).unwrap();
    assert!(sol.counts[fast_pos] > sol.counts[slow_pos], "faster machine gets more");
}
