//! The divide-and-conquer exact dynamic program: Algorithm 2's answer in
//! `O(p·n log n)` for **non-decreasing** cost functions, with an
//! automatic fallback that keeps arbitrary costs correct.
//!
//! Algorithm 2 speeds up each cell of the recurrence
//! `cost[d,i] = min_e Tcomm(i,e) + max(Tcomp(i,e), cost[d-e, i+1])` by
//! binary-searching the *crossing point* `c(d)` — the smallest `e` with
//! `Tcomp(i,e) >= cost[d-e, i+1]` — and scanning downward from it. That
//! is `O(log n)` cache-hostile probes per cell, `O(n log n)` per column
//! just to re-derive information the column already contains: because
//! `Tcomp` is non-decreasing in `e` and the previous column is
//! non-decreasing in `d`, the crossing moves by at most one step per
//! cell (`c(d) <= c(d+1) <= c(d) + 1`). This kernel exploits that
//! monotonicity with divide and conquer: compute the crossing of the
//! middle cell inside the window bounded by its neighbours' crossings,
//! then recurse on both halves with halved windows — `O(n + log n)`
//! probes for a whole range of cells. Every cell is then evaluated with
//! exactly the comparisons Algorithm 2 performs after its binary search,
//! so counts, makespans and tie-breaks are **bit-identical** to
//! [`crate::dp_optimized`] (and therefore to [`crate::dp_basic`]) — a
//! property the test-suite enforces.
//!
//! The monotonicity this rests on is checked at run time, twice:
//!
//! * at solve entry, exactly, on the tabulated costs — cost functions
//!   that are not non-decreasing demote the whole solve to the
//!   assumption-free Algorithm-1 kernel (counted by
//!   `dp_dc_fallbacks_total`), so arbitrary costs return the same
//!   correct answer [`crate::dp_basic`] would;
//! * per column, defensively, on the previous column's values — by
//!   induction these are always non-decreasing for non-decreasing
//!   costs, but a violation (which would indicate a floating-point
//!   surprise, not an expected input) demotes just that column to the
//!   full-scan kernel (counted by `dp_dc_column_fallbacks_total`).
//!
//! The per-cell work lives in `dp_kernel`, the column sweep in
//! [`crate::parallel`] (each worker chunk runs its own D&C
//! recursion); this module is the serial single-call facade.
//! Multi-threaded solves
//! ([`crate::parallel::optimal_distribution_dc_parallel`]) are
//! bit-identical to this entry point — see `docs/performance.md` for the
//! kernel hierarchy and measured speedups.

use crate::cost::Processor;
use crate::cost_table::CostTable;
use crate::dp_basic::DpSolution;
use crate::error::PlanError;
use crate::parallel::{self, Algo, ParallelOpts};

/// Computes an optimal distribution of `n` items over `procs` (in scatter
/// order, root last) — divide-and-conquer kernel.
///
/// ```
/// use gs_scatter::cost::Processor;
/// use gs_scatter::dp_dc::optimal_distribution_dc;
///
/// let procs = vec![
///     Processor::linear("worker", 0.1, 1.0),
///     Processor::linear("root", 0.0, 2.0),
/// ];
/// let view: Vec<&Processor> = procs.iter().collect();
/// let sol = optimal_distribution_dc(&view, 30).unwrap();
/// assert_eq!(sol.counts.iter().sum::<usize>(), 30);
/// // The faster worker carries more than the root.
/// assert!(sol.counts[0] > sol.counts[1]);
/// ```
///
/// Unlike [`crate::dp_optimized::optimal_distribution`], cost functions
/// that are not non-decreasing are *not* an error here: the solve
/// silently falls back to the Algorithm-1 kernel and still returns the
/// exact optimum.
pub fn optimal_distribution_dc(procs: &[&Processor], n: usize) -> Result<DpSolution, PlanError> {
    optimal_distribution_dc_with(&CostTable::new(), procs, n)
}

/// [`optimal_distribution_dc`] with cost tabulations served from (and
/// stored into) a shared [`CostTable`] — use for repeated solves on the
/// same platform (bench sweeps, root selection).
pub fn optimal_distribution_dc_with(
    table: &CostTable,
    procs: &[&Processor],
    n: usize,
) -> Result<DpSolution, PlanError> {
    parallel::solve(Algo::Dc, table, procs, n, &ParallelOpts::serial()).map(|(sol, _)| sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostFn, Processor};
    use crate::dp_basic::optimal_distribution_basic;
    use crate::dp_optimized::optimal_distribution;

    fn view(ps: &[Processor]) -> Vec<&Processor> {
        ps.iter().collect()
    }

    fn assert_matches_optimized(ps: &[Processor], ns: &[usize]) {
        let v = view(ps);
        for &n in ns {
            let dc = optimal_distribution_dc(&v, n).unwrap();
            let opt = optimal_distribution(&v, n).unwrap();
            assert_eq!(dc.counts, opt.counts, "n={n}: counts differ");
            assert_eq!(
                dc.makespan.to_bits(),
                opt.makespan.to_bits(),
                "n={n}: makespans differ ({} vs {})",
                dc.makespan,
                opt.makespan
            );
        }
    }

    #[test]
    fn bit_identical_to_algorithm_2_on_linear_platform() {
        let ps = vec![
            Processor::linear("a", 0.5, 2.0),
            Processor::linear("b", 1.0, 1.0),
            Processor::linear("c", 0.25, 4.0),
            Processor::linear("root", 0.0, 3.0),
        ];
        assert_matches_optimized(&ps, &(0..=40).collect::<Vec<_>>());
    }

    #[test]
    fn bit_identical_to_algorithm_2_on_affine_platform() {
        let ps = vec![
            Processor::affine("a", 0.4, 0.5, 0.9, 2.0),
            Processor::affine("b", 0.2, 1.0, 0.1, 1.0),
            Processor::affine("root", 0.0, 0.0, 0.0, 3.0),
        ];
        assert_matches_optimized(&ps, &(0..=25).collect::<Vec<_>>());
    }

    #[test]
    fn bit_identical_to_algorithm_2_on_tabulated_costs() {
        let ps = vec![
            Processor {
                name: "measured".into(),
                comm: CostFn::table(vec![(10, 1.0), (100, 8.0)]),
                comp: CostFn::table(vec![(10, 5.0), (50, 20.0), (100, 60.0)]),
            },
            Processor::linear("root", 0.0, 1.0),
        ];
        assert_matches_optimized(&ps, &[0, 1, 7, 20, 55, 120]);
    }

    #[test]
    fn non_monotone_costs_fall_back_to_algorithm_1() {
        // Algorithm 2 rejects these outright; the D&C kernel must
        // instead demote itself and match Algorithm 1 bit for bit.
        let ps = vec![
            Processor::custom("dec", |x| 10.0 - x as f64 * 0.01, |x| x as f64),
            Processor::linear("root", 0.0, 1.0),
        ];
        let v = view(&ps);
        assert!(matches!(
            optimal_distribution(&v, 10),
            Err(PlanError::NotIncreasing { proc: 0 })
        ));
        for n in [0usize, 1, 10, 64] {
            let dc = optimal_distribution_dc(&v, n).unwrap();
            let basic = optimal_distribution_basic(&v, n).unwrap();
            assert_eq!(dc.counts, basic.counts, "n={n}");
            assert_eq!(dc.makespan.to_bits(), basic.makespan.to_bits(), "n={n}");
        }
    }

    #[test]
    fn fallback_is_counted() {
        use crate::metrics::Registry;
        let count = || {
            Registry::global()
                .snapshot()
                .counters
                .iter()
                .find(|c| c.name == "dp_dc_fallbacks_total")
                .map_or(0, |c| c.value)
        };
        let ps = vec![
            Processor::custom("dec", |x| 10.0 - x as f64 * 0.01, |x| x as f64),
            Processor::linear("root", 0.0, 1.0),
        ];
        let before = count();
        optimal_distribution_dc(&view(&ps), 10).unwrap();
        assert!(count() > before, "demotion must tick dp_dc_fallbacks_total");
    }

    #[test]
    fn single_processor() {
        let ps = vec![Processor::linear("root", 0.0, 1.5)];
        let sol = optimal_distribution_dc(&view(&ps), 4).unwrap();
        assert_eq!(sol.counts, vec![4]);
        assert_eq!(sol.makespan, 6.0);
    }

    #[test]
    fn too_large_is_an_error_not_a_panic() {
        let ps = vec![Processor::linear("root", 0.0, 1.0)];
        let n = u32::MAX as usize + 1;
        assert!(matches!(
            optimal_distribution_dc(&view(&ps), n),
            Err(PlanError::TooLarge { max, .. }) if max == u32::MAX as usize
        ));
    }

    #[test]
    fn larger_n_smoke_is_bit_identical() {
        let ps = vec![
            Processor::linear("a", 1e-4, 2e-3),
            Processor::linear("b", 2e-4, 1e-3),
            Processor::linear("c", 5e-5, 4e-3),
            Processor::linear("root", 0.0, 3e-3),
        ];
        assert_matches_optimized(&ps, &[2000]);
    }
}
