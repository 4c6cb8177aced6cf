//! The width of the DP band at the paper's scale. A cold exact plan of
//! Table 1 at n = 817,101 must evaluate a few hundred cells per column
//! at most: each column ends where the prefix's port time plus the
//! suffix's Theorem-1 time passes the bound, not where the suffix alone
//! does (~1% of n per column).
//!
//! The count is read from the process-wide `dp_cells_evaluated_total`
//! counter, so this file holds this one test: no other solve runs in
//! its process.

use grid_scatter::prelude::Planner;
use grid_scatter::scatter::metrics::Registry;
use grid_scatter::scatter::paper::{table1_platform, N_RAYS_1999};
use grid_scatter::scatter::planner::Strategy;

fn cells_evaluated() -> u64 {
    Registry::global()
        .snapshot()
        .counters
        .iter()
        .find(|c| c.name == "dp_cells_evaluated_total")
        .map_or(0, |c| c.value)
}

#[test]
fn cold_exact_plans_at_paper_scale_stay_narrow() {
    for strategy in [Strategy::Exact, Strategy::ExactDc] {
        let before = cells_evaluated();
        let plan = Planner::new(table1_platform()).strategy(strategy).plan(N_RAYS_1999).unwrap();
        let cells = cells_evaluated() - before;
        assert!(plan.timing.pruned, "{strategy:?}: the band answered");
        assert_eq!(plan.total_items(), N_RAYS_1999);
        assert!(cells <= 5_000, "{strategy:?}: {cells} DP cells evaluated");
    }
}
