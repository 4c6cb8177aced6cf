//! Table 1 and Figures 1–4.

use gs_gridsim::chart::{figure_rows, render_figure, summary_line};
use gs_gridsim::gantt::{legend, render_gantt};
use gs_gridsim::load::LoadTrace;
use gs_gridsim::sim::{simulate_scatter, SimConfig};
use gs_scatter::cost::{Platform, Processor};
use gs_scatter::distribution::uniform_distribution;
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::paper::{reported, table1_platform, table1_rows, N_RAYS_1999};
use gs_scatter::planner::{Planner, Strategy};

/// Shape summary of one figure reproduction, used by binaries and tests.
#[derive(Debug, Clone)]
pub struct FigureSummary {
    /// Earliest per-processor finish, seconds.
    pub min_finish: f64,
    /// Latest finish (the makespan), seconds.
    pub max_finish: f64,
    /// §5.2's balance metric, `(max − min) / max`.
    pub imbalance: f64,
    /// Items per processor, scatter order.
    pub counts: Vec<usize>,
    /// Rendered text figure.
    pub rendering: String,
}

/// Prints Table 1 and returns its text.
pub fn table1() -> String {
    let mut out = String::new();
    out.push_str("Table 1: processors used as computational nodes (measured coefficients)\n");
    out.push_str(&format!(
        "{:<4} {:<10} {:<9} {:>12} {:>7} {:>12}\n",
        "#", "machine", "type", "alpha (s/ray)", "rating", "beta (s/ray)"
    ));
    for r in table1_rows() {
        out.push_str(&format!(
            "{:<4} {:<10} {:<9} {:>12.6} {:>7.2} {:>12.2e}\n",
            r.cpu_index, r.machine, r.cpu_type, r.alpha, r.rating, r.beta
        ));
    }
    out.push_str(&format!("workload: n = {N_RAYS_1999} rays (all 1999 seismic events)\n"));
    out
}

/// Figure 1: the stair effect of a single-port scatter, on a toy
/// 4-processor platform (P4 is the root, as in the paper's figure).
pub fn fig1(width: usize) -> String {
    let platform = Platform::new(
        vec![
            Processor::linear("P1", 0.8, 2.2),
            Processor::linear("P2", 0.8, 2.2),
            Processor::linear("P3", 0.8, 2.2),
            Processor::linear("P4", 0.0, 2.2), // root
        ],
        3,
    )
    .unwrap();
    let order = scatter_order(&platform, OrderPolicy::AsIs);
    let view = platform.ordered(&order);
    let counts = uniform_distribution(4, 20);
    let sim = simulate_scatter(&view, &counts, &SimConfig::ideal());
    let names: Vec<&str> = order.iter().map(|&i| platform.procs()[i].name.as_str()).collect();
    let mut out = String::from(
        "Figure 1: a scatter communication followed by a computation phase\n",
    );
    out.push_str(&render_gantt(&names, &sim.timeline, width));
    out.push_str(&legend());
    out.push_str("note the stair effect: each processor starts receiving only after\nall previous processors have been served (single-port root)\n");
    out
}

fn run_figure(
    title: &str,
    strategy: Strategy,
    policy: OrderPolicy,
    n: usize,
    loads: Vec<LoadTrace>,
    reported_range: (f64, f64),
) -> FigureSummary {
    let platform = table1_platform();
    let plan = Planner::new(platform.clone())
        .strategy(strategy)
        .order_policy(policy)
        .plan(n)
        .expect("Table-1 platform is linear/affine");
    let view = platform.ordered(&plan.order);
    let counts = plan.counts_in_order();
    let config = if loads.is_empty() {
        SimConfig::ideal()
    } else {
        SimConfig::with_loads(loads)
    };
    let sim = simulate_scatter(&view, &counts, &config);
    let names: Vec<&str> = plan.order.iter().map(|&i| platform.procs()[i].name.as_str()).collect();

    let rows = figure_rows(&names, &counts, &sim.timeline);
    let mut rendering = render_figure(title, &rows, 48);
    rendering.push_str(&format!("{}\n", summary_line(&rows)));
    rendering.push_str(&format!(
        "paper reported: earliest {:.0} s, latest {:.0} s (real testbed, with noise)\n",
        reported_range.0, reported_range.1
    ));

    FigureSummary {
        min_finish: sim.timeline.min_finish(),
        max_finish: sim.timeline.makespan(),
        imbalance: sim.timeline.imbalance(),
        counts,
        rendering,
    }
}

/// Figure 2: the original program — uniform distribution, descending
/// bandwidth order.
pub fn fig2(n: usize) -> FigureSummary {
    let platform = table1_platform();
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    let counts = uniform_distribution(platform.len(), n);
    let sim = simulate_scatter(&view, &counts, &SimConfig::ideal());
    let names: Vec<&str> = order.iter().map(|&i| platform.procs()[i].name.as_str()).collect();
    let rows = figure_rows(&names, &counts, &sim.timeline);
    let mut rendering = render_figure(
        "Figure 2: original program execution (uniform data distribution)",
        &rows,
        48,
    );
    rendering.push_str(&format!("{}\n", summary_line(&rows)));
    rendering.push_str(&format!(
        "paper reported: earliest {:.0} s, latest {:.0} s\n",
        reported::UNIFORM_MIN_FINISH,
        reported::UNIFORM_MAX_FINISH
    ));
    FigureSummary {
        min_finish: sim.timeline.min_finish(),
        max_finish: sim.timeline.makespan(),
        imbalance: sim.timeline.imbalance(),
        counts,
        rendering,
    }
}

/// Figure 3: load-balanced execution, nodes sorted by descending
/// bandwidth.
pub fn fig3(n: usize) -> FigureSummary {
    run_figure(
        "Figure 3: load-balanced execution, descending bandwidth order",
        Strategy::Heuristic,
        OrderPolicy::DescendingBandwidth,
        n,
        Vec::new(),
        (reported::BALANCED_DESC_MIN_FINISH, reported::BALANCED_DESC_MAX_FINISH),
    )
}

/// Figure 4: load-balanced execution, nodes sorted by ascending
/// bandwidth. With `sekhmet_spike`, a background-load peak on `sekhmet`
/// reproduces the residual imbalance the paper observed (§5.2 blames "a
/// peak load on sekhmet during the experiment").
pub fn fig4(n: usize, sekhmet_spike: bool) -> FigureSummary {
    let loads = if sekhmet_spike {
        let platform = table1_platform();
        let order = scatter_order(&platform, OrderPolicy::AscendingBandwidth);
        order
            .iter()
            .map(|&i| {
                if platform.procs()[i].name == "sekhmet" {
                    // ~10% slower CPU through the whole run.
                    LoadTrace::new(vec![(0.0, 1.10)])
                } else {
                    LoadTrace::none()
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    run_figure(
        "Figure 4: load-balanced execution, ascending bandwidth order",
        Strategy::Heuristic,
        OrderPolicy::AscendingBandwidth,
        n,
        loads,
        (reported::BALANCED_ASC_MIN_FINISH, reported::BALANCED_ASC_MAX_FINISH),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_processors() {
        let t = table1();
        for name in ["dinadan", "pellinore", "caseb", "sekhmet", "merlin", "seven", "leda"] {
            assert!(t.contains(name), "missing {name}");
        }
        assert!(t.contains("817101"));
    }

    #[test]
    fn fig1_shows_stairs() {
        let f = fig1(60);
        assert!(f.contains("P1"));
        assert!(f.contains("P4"));
        assert!(f.contains('='));
        assert!(f.contains('#'));
    }

    #[test]
    fn fig2_shape_small_n() {
        // Even at a scaled-down n the imbalance ratio is platform-driven.
        let s = fig2(100_000);
        assert!(s.max_finish / s.min_finish > 3.0);
        assert!(s.counts.iter().all(|&c| c == 6250));
    }

    #[test]
    fn fig3_balances() {
        let s = fig3(100_000);
        assert!(s.imbalance < 0.01, "imbalance {}", s.imbalance);
        assert!(s.rendering.contains("Figure 3"));
    }

    #[test]
    fn fig4_worse_than_fig3() {
        let f3 = fig3(100_000);
        let f4 = fig4(100_000, false);
        assert!(f4.max_finish > f3.max_finish);
    }

    #[test]
    fn fig4_spike_adds_imbalance() {
        let clean = fig4(100_000, false);
        let spiked = fig4(100_000, true);
        assert!(spiked.imbalance > clean.imbalance);
        assert!(spiked.max_finish >= clean.max_finish);
    }
}
