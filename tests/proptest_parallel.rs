//! Property tests for the parallel planning engine: every variant —
//! multi-threaded, upper-bound pruned, or both — must return a
//! **bit-identical** `(counts, makespan)` to the serial solvers on random
//! increasing platforms, for thread counts 1, 2 and 8.

use grid_scatter::prelude::{PlanCache, Planner, Platform, Processor, Strategy as PlanStrategy};
use grid_scatter::scatter::cost_table::CostTable;
use grid_scatter::scatter::ordering::{scatter_order, OrderPolicy};
use grid_scatter::scatter::parallel::{solve, DpSolution, Kernel, ParallelOpts};
use proptest::prelude::*;
use std::sync::Arc;

/// Random linear platform: root first (beta 0), then workers.
fn linear_platform(max_p: usize) -> impl Strategy<Value = Platform> {
    let worker = (1u32..=300, 1u32..=300).prop_map(|(b, a)| (b as f64 * 1e-3, a as f64 * 1e-2));
    (proptest::collection::vec(worker, 1..max_p), 1u32..=300).prop_map(|(workers, root_a)| {
        let mut procs = vec![Processor::linear("root", 0.0, root_a as f64 * 1e-2)];
        for (i, (b, a)) in workers.into_iter().enumerate() {
            procs.push(Processor::linear(format!("w{i}"), b, a));
        }
        Platform::new(procs, 0).unwrap()
    })
}

/// Random affine platform (non-zero intercepts exercise the LP-heuristic
/// pruning bound instead of the closed form).
fn affine_platform(max_p: usize) -> impl Strategy<Value = Platform> {
    let worker = (0u32..=50, 1u32..=300, 0u32..=50, 1u32..=300)
        .prop_map(|(bi, b, ai, a)| (bi as f64 * 1e-2, b as f64 * 1e-3, ai as f64 * 1e-2, a as f64 * 1e-2));
    (proptest::collection::vec(worker, 1..max_p), 1u32..=300).prop_map(|(workers, root_a)| {
        let mut procs = vec![Processor::affine("root", 0.0, 0.0, 0.0, root_a as f64 * 1e-2)];
        for (i, (bi, b, ai, a)) in workers.into_iter().enumerate() {
            procs.push(Processor::affine(format!("w{i}"), bi, b, ai, a));
        }
        Platform::new(procs, 0).unwrap()
    })
}

const THREADS: [usize; 3] = [1, 2, 8];

/// One solve of `kernel` with `opts` through a fresh cost table.
fn dp(kernel: Kernel, view: &[&Processor], n: usize, opts: &ParallelOpts) -> DpSolution {
    solve(kernel, &CostTable::new(), view, n, opts).unwrap().0
}

fn assert_bit_identical(
    got: &DpSolution,
    want: &DpSolution,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.counts, &want.counts, "{}: counts differ", what);
    prop_assert_eq!(
        got.makespan.to_bits(),
        want.makespan.to_bits(),
        "{}: makespan {} vs {}",
        what,
        got.makespan,
        want.makespan
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Parallel Algorithm 2 ≡ serial, bit for bit, for 1/2/8 threads.
    #[test]
    fn parallel_optimized_is_bit_identical(
        platform in linear_platform(6),
        n in 0usize..=300,
        chunk in 1usize..=64,
    ) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let serial = dp(Kernel::Optimized, &view, n, &ParallelOpts::serial());
        for threads in THREADS {
            let opts = ParallelOpts { threads, prune: false, chunk };
            let par = dp(Kernel::Optimized, &view, n, &opts);
            assert_bit_identical(&par, &serial, &format!("threads={threads} chunk={chunk}"))?;
        }
    }

    /// Parallel Algorithm 1 ≡ serial, bit for bit, for 1/2/8 threads.
    #[test]
    fn parallel_basic_is_bit_identical(
        platform in linear_platform(5),
        n in 0usize..=150,
        chunk in 1usize..=64,
    ) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let serial = dp(Kernel::Basic, &view, n, &ParallelOpts::serial());
        for threads in THREADS {
            let opts = ParallelOpts { threads, prune: false, chunk };
            let par = dp(Kernel::Basic, &view, n, &opts);
            assert_bit_identical(&par, &serial, &format!("threads={threads} chunk={chunk}"))?;
        }
    }

    /// Upper-bound pruning (closed-form seed on linear costs) never
    /// changes the optimum — combined with any thread count.
    #[test]
    fn pruning_preserves_the_optimum_linear(
        platform in linear_platform(6),
        n in 0usize..=300,
    ) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let serial = dp(Kernel::Optimized, &view, n, &ParallelOpts::serial());
        for threads in THREADS {
            let opts = ParallelOpts { threads, prune: true, chunk: 16 };
            let pruned = dp(Kernel::Optimized, &view, n, &opts);
            assert_bit_identical(&pruned, &serial, &format!("pruned threads={threads}"))?;
        }
    }

    /// Same with the LP-heuristic seed on affine costs.
    #[test]
    fn pruning_preserves_the_optimum_affine(
        platform in affine_platform(5),
        n in 0usize..=150,
    ) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let serial = dp(Kernel::Optimized, &view, n, &ParallelOpts::serial());
        let opts = ParallelOpts { threads: 2, prune: true, chunk: 16 };
        let pruned = dp(Kernel::Optimized, &view, n, &opts);
        assert_bit_identical(&pruned, &serial, "pruned affine")?;
    }

    /// The column-chunked D&C kernel ≡ serial Algorithm 2, bit for bit,
    /// for 1/2/8 threads and any chunk width.
    #[test]
    fn parallel_dc_is_bit_identical(
        platform in affine_platform(6),
        n in 0usize..=300,
        chunk in 1usize..=64,
    ) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let serial = dp(Kernel::Optimized, &view, n, &ParallelOpts::serial());
        let dc_serial = dp(Kernel::Dc, &view, n, &ParallelOpts::serial());
        assert_bit_identical(&dc_serial, &serial, "dc serial")?;
        for threads in THREADS {
            let opts = ParallelOpts { threads, prune: false, chunk };
            let dc = dp(Kernel::Dc, &view, n, &opts);
            assert_bit_identical(&dc, &serial, &format!("dc threads={threads} chunk={chunk}"))?;
        }
    }

    /// Warm-start re-planning: priming a [`PlanCache`] with a
    /// full-platform solve and re-planning over the surviving suffix
    /// must reuse cached DP columns *and* return a plan bit-identical
    /// to planning from scratch — for both exact strategies.
    #[test]
    fn warm_start_replan_is_bit_identical(
        platform in affine_platform(6),
        prime_n in 50usize..=400,
        n in 0usize..=300,
        drop_first in any::<bool>(),
    ) {
        for strategy in [PlanStrategy::Exact, PlanStrategy::ExactDc] {
            let cache = Arc::new(PlanCache::new());
            Planner::new(platform.clone())
                .strategy(strategy)
                .plan_cache(Arc::clone(&cache))
                .plan(prime_n)
                .unwrap();
            // Survivor platform: drop one worker (the scatter order is
            // recomputed, so any survivor subset is a valid re-plan).
            let procs = platform.procs();
            let surv: Vec<_> = if procs.len() == 1 {
                procs.to_vec()
            } else if drop_first {
                procs.iter().skip(1).cloned().collect()
            } else {
                procs.iter().take(procs.len() - 1).cloned().collect()
            };
            let root = surv.iter().position(|p| p.name == "root").unwrap_or(0);
            let surv = Platform::new(surv, root).unwrap();
            let cold = Planner::new(surv.clone()).strategy(strategy).plan(n).unwrap();
            let warm = Planner::new(surv)
                .strategy(strategy)
                .plan_cache(Arc::clone(&cache))
                .plan(n)
                .unwrap();
            prop_assert_eq!(&warm.counts, &cold.counts, "warm-start changed the plan");
            prop_assert_eq!(
                warm.predicted_makespan.to_bits(),
                cold.predicted_makespan.to_bits(),
                "warm {} vs cold {}",
                warm.predicted_makespan,
                cold.predicted_makespan
            );
        }
    }
}
