//! Plan diagnostics: lower bounds, efficiency metrics, and participation
//! analysis (Theorem 2) — the numbers a user wants *before* trusting a
//! distribution on a real grid.

use crate::closed_form::{simultaneous_endings_hold, LinearSlopes};
use crate::cost::Processor;
use crate::distribution::timeline;
use crate::error::PlanError;

/// Lower bounds on any scatter+compute makespan for `n` items on the
/// given (scatter-ordered) processors.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    /// Aggregate-throughput bound: even with free communication and a
    /// perfectly divisible load, `n` items cannot finish before
    /// `n / Σ_i (1/α_i)` with `α_i` the effective per-item compute cost
    /// (for non-linear costs, the secant slope at `n` items).
    pub work_bound: f64,
    /// Single-item bound: any schedule with `n >= 1` ends no earlier than
    /// the cheapest placement of one item,
    /// `min_i (Tcomm(i,1) + Tcomp(i,1))` — trivial but non-zero, and the
    /// binding bound on degenerate platforms.
    pub single_item_bound: f64,
    /// The larger of the two.
    pub best: f64,
}

/// Computes [`Bounds`] for `n` items.
pub fn lower_bounds(procs: &[&Processor], n: usize) -> Bounds {
    if n == 0 || procs.is_empty() {
        return Bounds { work_bound: 0.0, single_item_bound: 0.0, best: 0.0 };
    }
    // Effective per-item compute rate at scale n.
    let mut rate_sum = 0.0f64;
    for p in procs {
        let cost_n = p.comp.eval(n).max(0.0);
        if cost_n > 0.0 {
            rate_sum += n as f64 / cost_n;
        } else {
            // A free processor makes the work bound vacuous.
            rate_sum = f64::INFINITY;
        }
    }
    let work_bound = if rate_sum.is_infinite() { 0.0 } else { n as f64 / rate_sum };
    let single_item_bound = procs
        .iter()
        .map(|p| p.comm.eval(1) + p.comp.eval(1))
        .fold(f64::INFINITY, f64::min)
        .max(0.0);
    Bounds { work_bound, single_item_bound, best: work_bound.max(single_item_bound) }
}

/// A quality report for a concrete distribution.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Eq. (2) makespan of the distribution.
    pub makespan: f64,
    /// The best lower bound ([`lower_bounds`]).
    pub lower_bound: f64,
    /// `makespan / lower_bound` (1.0 = provably optimal; ∞ if the bound
    /// is vacuous).
    pub optimality_ratio: f64,
    /// Fraction of total processor-seconds spent computing (vs waiting).
    pub efficiency: f64,
    /// Processors that received nothing.
    pub idle_processors: Vec<usize>,
}

/// Analyzes a distribution (processors and counts in scatter order).
pub fn analyze(procs: &[&Processor], counts: &[usize]) -> PlanReport {
    assert_eq!(procs.len(), counts.len());
    let n: usize = counts.iter().sum();
    let tl = timeline(procs, counts);
    let makespan = tl.makespan();
    let bounds = lower_bounds(procs, n);
    let compute_area: f64 = tl
        .finish
        .iter()
        .zip(&tl.comm_end)
        .map(|(f, c)| f - c)
        .sum();
    let total_area = makespan * procs.len() as f64;
    PlanReport {
        makespan,
        lower_bound: bounds.best,
        optimality_ratio: if bounds.best > 0.0 { makespan / bounds.best } else { f64::INFINITY },
        efficiency: if total_area > 0.0 { compute_area / total_area } else { 0.0 },
        idle_processors: counts
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (c == 0).then_some(i))
            .collect(),
    }
}

/// Theorem-2 participation analysis for a linear platform (scatter order,
/// root last): which processors would the optimal rational solution use,
/// and does the simultaneous-endings regime hold?
#[derive(Debug, Clone)]
pub struct Participation {
    /// Theorem 2's condition holds for the full set (everyone works).
    pub all_participate: bool,
    /// Per-processor participation under Theorem-2 pruning.
    pub participates: Vec<bool>,
}

/// Runs the Theorem-2 analysis. Errors if the platform is not linear.
pub fn participation(procs: &[&Processor]) -> Result<Participation, PlanError> {
    let slopes = LinearSlopes::from_procs(procs)?;
    let all = simultaneous_endings_hold(&slopes);
    // Re-derive the pruning mask via the closed form on a nominal size.
    let sol = crate::closed_form::closed_form_from_slopes(&slopes, 1_000_000)?;
    Ok(Participation { all_participate: all, participates: sol.participants })
}

/// Renders a [`PlanReport`] as a short human-readable block.
pub fn render_report(report: &PlanReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("makespan:          {:.4} s\n", report.makespan));
    out.push_str(&format!("lower bound:       {:.4} s\n", report.lower_bound));
    out.push_str(&format!(
        "optimality ratio:  {:.4} (1.0 = provably optimal)\n",
        report.optimality_ratio
    ));
    out.push_str(&format!("compute efficiency: {:.1}%\n", report.efficiency * 100.0));
    if report.idle_processors.is_empty() {
        out.push_str("all processors participate\n");
    } else {
        out.push_str(&format!("idle processors:   {:?}\n", report.idle_processors));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{tests::serial_solve, Kernel};
    use crate::heuristic::heuristic_distribution;

    fn procs() -> Vec<Processor> {
        vec![
            Processor::linear("a", 1e-4, 0.004),
            Processor::linear("b", 2e-4, 0.016),
            Processor::linear("root", 0.0, 0.009),
        ]
    }

    #[test]
    fn bounds_are_valid_lower_bounds() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        for n in [1usize, 100, 5_000] {
            let exact = serial_solve(Kernel::Optimized, &view, n).unwrap();
            let b = lower_bounds(&view, n);
            assert!(
                b.best <= exact.makespan + 1e-9,
                "n={n}: bound {} above optimum {}",
                b.best,
                exact.makespan
            );
            assert!(b.best >= 0.0);
        }
    }

    #[test]
    fn work_bound_is_tight_without_comm() {
        // Free comm, equal CPUs: the work bound equals the optimum.
        let ps = [Processor::linear("a", 0.0, 1.0),
            Processor::linear("root", 0.0, 1.0)];
        let view: Vec<&Processor> = ps.iter().collect();
        let b = lower_bounds(&view, 10);
        assert!((b.work_bound - 5.0).abs() < 1e-12);
        let exact = serial_solve(Kernel::Optimized, &view, 10).unwrap();
        assert!((exact.makespan - b.best).abs() < 1e-12);
    }

    #[test]
    fn analyze_balanced_plan_is_near_bound() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let h = heuristic_distribution(&view, 50_000).unwrap();
        let report = analyze(&view, &h.counts);
        assert!(report.optimality_ratio < 1.1, "{report:?}");
        assert!(report.efficiency > 0.9, "{report:?}");
        assert!(report.idle_processors.is_empty());
    }

    #[test]
    fn analyze_uniform_plan_shows_waste() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let uniform = crate::distribution::uniform_distribution(3, 50_000);
        let report = analyze(&view, &uniform);
        assert!(report.optimality_ratio > 1.3, "{report:?}");
        assert!(report.efficiency < 0.8, "{report:?}");
    }

    #[test]
    fn idle_processors_reported() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let report = analyze(&view, &[100, 0, 50]);
        assert_eq!(report.idle_processors, vec![1]);
    }

    #[test]
    fn zero_items_degenerate() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let b = lower_bounds(&view, 0);
        assert_eq!(b.best, 0.0);
        let report = analyze(&view, &[0, 0, 0]);
        assert_eq!(report.makespan, 0.0);
    }

    #[test]
    fn participation_mirrors_theorem2() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let part = participation(&view).unwrap();
        assert!(part.all_participate);
        assert!(part.participates.iter().all(|&x| x));

        let bad = [Processor::linear("hopeless", 100.0, 0.001),
            Processor::linear("root", 0.0, 1.0)];
        let bview: Vec<&Processor> = bad.iter().collect();
        let part = participation(&bview).unwrap();
        assert!(!part.all_participate);
        assert_eq!(part.participates, vec![false, true]);
    }

    #[test]
    fn report_renders() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let report = analyze(&view, &[100, 0, 50]);
        let text = render_report(&report);
        assert!(text.contains("makespan"));
        assert!(text.contains("idle processors:   [1]"));
    }

    #[test]
    fn rejects_non_linear_participation() {
        let ps = [Processor::custom("c", |x| x as f64, |x| (x as f64).sqrt()),
            Processor::linear("root", 0.0, 1.0)];
        let view: Vec<&Processor> = ps.iter().collect();
        assert!(participation(&view).is_err());
    }
}
