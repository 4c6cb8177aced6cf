//! Property tests for the parallel planning engine: every variant —
//! multi-threaded, confined to the band the pruning bound certifies, or
//! both — must return a **bit-identical** `(counts, makespan)` to the
//! serial full-plane solvers on random increasing platforms, for thread
//! counts 1, 2 and 8; and a re-plan warm-started from a `PlanCache` must
//! equal the cold re-plan.

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

/// Random intercept-heavy affine platform: fixed costs of up to 50 s
/// against per-item slopes of at most 0.03 s, so the slopes-only seed of
/// the pruning bound is far from the optimum.
fn intercept_heavy_platform(max_p: usize) -> impl Strategy<Value = Platform> {
    let worker = (0u32..=5000, 1u32..=300, 0u32..=5000, 1u32..=300)
        .prop_map(|(bi, b, ai, a)| (bi as f64 * 1e-2, b as f64 * 1e-5, ai as f64 * 1e-2, a as f64 * 1e-4));
    (proptest::collection::vec(worker, 1..max_p), 1u32..=300).prop_map(|(workers, root_a)| {
        let mut procs = vec![Processor::affine("root", 0.0, 0.0, 0.0, root_a as f64 * 1e-4)];
        for (i, (bi, b, ai, a)) in workers.into_iter().enumerate() {
            procs.push(Processor::affine(format!("w{i}"), bi, b, ai, a));
        }
        Platform::new(procs, 0).unwrap()
    })
}

const THREADS: [usize; 3] = [1, 2, 8];

/// Value of the global `dp_band_fallback_total` counter.
fn band_fallbacks() -> u64 {
    grid_scatter::scatter::metrics::Registry::global()
        .snapshot()
        .counters
        .iter()
        .find(|c| c.name == "dp_band_fallback_total")
        .map_or(0, |c| c.value)
}

/// The band is invisible in answers: for both kernels and 1 and 2
/// threads, the banded solve equals the full-plane solve bit for bit,
/// actually ran banded, and never fell back to the full plane.
fn assert_band_invisible(platform: &Platform, n: usize) -> Result<(), TestCaseError> {
    let order = scatter_order(platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    let table = CostTable::new();
    let full = solve(Kernel::Dc, &table, &view, n, &ParallelOpts::serial()).unwrap().0;
    let before = band_fallbacks();
    for kernel in [Kernel::Optimized, Kernel::Dc] {
        for threads in [1usize, 2] {
            let opts = ParallelOpts { threads, prune: true, chunk: 0 };
            let (banded, timing) = solve(kernel, &table, &view, n, &opts).unwrap();
            let what = format!("{kernel:?} threads={threads} n={n}");
            assert_bit_identical(&banded, &full, &what)?;
            prop_assert!(timing.pruned, "{}: the band did not run", what);
        }
    }
    prop_assert_eq!(band_fallbacks(), before, "a consistent bound fell back to the full plane");
    Ok(())
}

/// Primes a [`PlanCache`] with a plan of `prime_n` items over `platform`,
/// then crashes one non-root processor after another (`victims`, each
/// taken modulo the workers left) and after each crash re-plans
/// `residual` items over the survivors (their order kept, root last),
/// warm through the cache and cold. For both exact strategies every
/// warm re-plan must equal the cold one bit for bit, both must run
/// banded, and the first re-plan of every item must reuse cached
/// columns. The second crash lands on a cache whose root-side columns
/// were banded for single crashes of the first platform, below what a
/// cold band after two crashes holds.
fn assert_crash_replans_are_cold(
    platform: &Platform,
    victims: [usize; 2],
    prime_n: usize,
    residual: usize,
) -> Result<(), TestCaseError> {
    let order = scatter_order(platform, OrderPolicy::DescendingBandwidth);
    for strategy in [PlanStrategy::Exact, PlanStrategy::ExactDc] {
        let planner = |p: &Platform| {
            Planner::new(p.clone()).strategy(strategy).order_policy(OrderPolicy::AsIs)
        };
        let cache = Arc::new(PlanCache::new());
        let primed = planner(platform)
            .plan_cache(Arc::clone(&cache))
            .plan_with_order(prime_n, order.clone())
            .unwrap();
        prop_assert!(primed.timing.pruned, "{:?}: the primed solve ran unbanded", strategy);
        let mut alive: Vec<Processor> = platform.ordered(&order).into_iter().cloned().collect();
        for (round, victim) in victims.into_iter().enumerate() {
            if alive.len() < 2 {
                break;
            }
            let victim = victim % (alive.len() - 1);
            alive.remove(victim);
            let surv = Platform::new(alive.clone(), alive.len() - 1).unwrap();
            let what = format!(
                "{strategy:?} crash {round}: p={} victim={victim} prime_n={prime_n} \
                 residual={residual}",
                alive.len() + 1
            );
            let hits = cache.hits();
            let cold = planner(&surv).plan(residual).unwrap();
            let warm = planner(&surv).plan_cache(Arc::clone(&cache)).plan(residual).unwrap();
            prop_assert_eq!(&warm.counts, &cold.counts, "{}: warm start changed the plan", what);
            prop_assert_eq!(
                warm.predicted_makespan.to_bits(),
                cold.predicted_makespan.to_bits(),
                "{}: warm {} vs cold {}",
                what,
                warm.predicted_makespan,
                cold.predicted_makespan
            );
            prop_assert!(cold.timing.pruned && warm.timing.pruned, "{}: ran unbanded", what);
            // A lone survivor's only column is its top one, never reused.
            if round == 0 && residual == prime_n && alive.len() > 1 {
                prop_assert_eq!(cache.hits(), hits + 1, "{}: the re-plan missed", what);
            }
        }
    }
    Ok(())
}

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

    /// Re-plans after one and two crashes, warm-started from a banded
    /// `PlanCache` plane, equal the cold re-plans on random linear
    /// platforms.
    #[test]
    fn crash_replan_through_a_cache_is_cold_linear(
        platform in linear_platform(8),
        victims in (any::<usize>(), any::<usize>()),
        prime_n in 0usize..=2000,
        share in 0usize..=1000,
        every_item in any::<bool>(),
    ) {
        let residual = if every_item { prime_n } else { prime_n * share / 1000 };
        assert_crash_replans_are_cold(&platform, [victims.0, victims.1], prime_n, residual)?;
    }

    /// The same on random affine platforms.
    #[test]
    fn crash_replan_through_a_cache_is_cold_affine(
        platform in affine_platform(8),
        victims in (any::<usize>(), any::<usize>()),
        prime_n in 0usize..=2000,
        share in 0usize..=1000,
        every_item in any::<bool>(),
    ) {
        let residual = if every_item { prime_n } else { prime_n * share / 1000 };
        assert_crash_replans_are_cold(&platform, [victims.0, victims.1], prime_n, residual)?;
    }

    /// Banded ≡ full plane on random linear platforms.
    #[test]
    fn band_is_invisible_linear(platform in linear_platform(8), n in 0usize..=3000) {
        assert_band_invisible(&platform, n)?;
    }

    /// Banded ≡ full plane on random affine platforms.
    #[test]
    fn band_is_invisible_affine(platform in affine_platform(8), n in 0usize..=3000) {
        assert_band_invisible(&platform, n)?;
    }

    /// Banded ≡ full plane where intercepts dominate the costs.
    #[test]
    fn band_is_invisible_intercept_heavy(
        platform in intercept_heavy_platform(8),
        n in 0usize..=3000,
    ) {
        assert_band_invisible(&platform, n)?;
    }
}
