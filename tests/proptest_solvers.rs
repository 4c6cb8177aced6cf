//! Property tests over random platforms: the paper's guarantees must hold
//! on *every* valid input, not just the testbed.

use grid_scatter::prelude::{CostTable, OrderPolicy, PlanError, Planner, Platform, Processor};
use grid_scatter::scatter::brute::{best_order_exhaustive, brute_force_distribution};
use grid_scatter::scatter::closed_form::closed_form_distribution;
use grid_scatter::scatter::heuristic::{heuristic_distribution, heuristic_distribution_simplex};
use grid_scatter::scatter::ordering::scatter_order;
use grid_scatter::scatter::parallel::{solve, DpSolution, Kernel, ParallelOpts};
use grid_scatter::scatter::planner::Strategy as PlanStrategy;
use gs_numeric::Rational;
use proptest::prelude::*;

// Silence the unused-import lint for Plan (used in type positions only on
// some configurations).
#[allow(unused_imports)]
use grid_scatter::prelude::Plan as _Plan;

/// One serial solve of `kernel` through a fresh cost table.
fn dp(kernel: Kernel, view: &[&Processor], n: usize) -> Result<DpSolution, PlanError> {
    solve(kernel, &CostTable::new(), view, n, &ParallelOpts::serial()).map(|(sol, _)| sol)
}

/// Random affine platform: root first, then workers with non-zero
/// intercepts (still monotone, so Algorithm 2 and the D&C kernel apply).
fn affine_platform_strategy(max_p: usize) -> impl Strategy<Value = Platform> {
    let worker = (0u32..=50, 1u32..=300, 0u32..=50, 1u32..=300).prop_map(|(bi, b, ai, a)| {
        (bi as f64 * 1e-2, b as f64 * 1e-3, ai as f64 * 1e-2, a as f64 * 1e-2)
    });
    (proptest::collection::vec(worker, 1..max_p), 1u32..=300).prop_map(|(workers, root_a)| {
        let mut procs = vec![Processor::affine("root", 0.0, 0.0, 0.0, root_a as f64 * 1e-2)];
        for (i, (bi, b, ai, a)) in workers.into_iter().enumerate() {
            procs.push(Processor::affine(format!("w{i}"), bi, b, ai, a));
        }
        Platform::new(procs, 0).unwrap()
    })
}

/// Random platform with deliberately *non-monotone* communication costs:
/// Algorithm 2's premise is violated, so the D&C kernel must demote
/// itself to Algorithm 1 and still return the true optimum.
fn nonmonotone_platform_strategy(max_p: usize) -> impl Strategy<Value = Platform> {
    let worker = (1u32..=50, 1u32..=100).prop_map(|(amp, a)| (amp as f64 * 1e-2, a as f64 * 1e-2));
    (proptest::collection::vec(worker, 1..max_p), 1u32..=100).prop_map(|(workers, root_a)| {
        let mut procs = vec![Processor::linear("root", 0.0, root_a as f64 * 1e-2)];
        for (i, (amp, a)) in workers.into_iter().enumerate() {
            // Oscillating but non-negative comm: 1, 0, 1, 0, … scaled by
            // amp — guaranteed to fail any monotonicity probe for n ≥ 2.
            procs.push(Processor::custom(
                format!("w{i}"),
                move |x| amp * ((x % 2) as f64 + 0.5) + 1e-3 * x as f64,
                move |x| a * x as f64,
            ));
        }
        Platform::new(procs, 0).unwrap()
    })
}

/// Random affine platform for the LP solvers: the intercepts are drawn
/// on a scale of either 1e-2 s or 10 s per message, so that about half
/// the cases are intercept-heavy — constraints whose constant part alone
/// rivals the optimum, where the structured solve must fall back.
fn lp_platform_strategy(max_p: usize) -> impl Strategy<Value = Platform> {
    let worker = (0u32..=50, 1u32..=300, 0u32..=50, 1u32..=300);
    (proptest::collection::vec(worker, 1..max_p), 1u32..=300, 0u32..=1)
        .prop_map(|(workers, root_a, heavy)| {
            let scale = if heavy == 1 { 10.0 } else { 1e-2 };
            let mut procs =
                vec![Processor::affine("root", 0.0, 0.0, 0.0, root_a as f64 * 1e-2)];
            for (i, (bi, b, ai, a)) in workers.into_iter().enumerate() {
                procs.push(Processor::affine(
                    format!("w{i}"),
                    bi as f64 * scale,
                    b as f64 * 1e-3,
                    ai as f64 * scale,
                    a as f64 * 1e-2,
                ));
            }
            Platform::new(procs, 0).unwrap()
        })
}

/// Exact `(intercept, slope)` pairs of a processor's comm and comp costs.
fn exact_affine(p: &Processor) -> [Rational; 4] {
    let (b, beta) = p.comm.affine_params().unwrap();
    let (a, alpha) = p.comp.affine_params().unwrap();
    [b, beta, a, alpha].map(|v| Rational::from_f64(v).unwrap())
}

/// Eq. (4) in exact rationals: the rounded counts' makespan `T'` (Eq. 2
/// with the exact affine costs) lies in
/// `[T_rat, T_rat + Σ_j Tcomm(j, 1) + max_i Tcomp(i, 1)]`.
fn eq4_holds_exactly(view: &[&Processor], counts: &[usize], t_rat: &Rational) -> bool {
    let mut clock = Rational::zero();
    let mut t_prime = Rational::zero();
    let mut comm_one = Rational::zero();
    let mut comp_one_max = Rational::zero();
    for (p, &c) in view.iter().zip(counts) {
        let [b, beta, a, alpha] = exact_affine(p);
        let c = Rational::from(c);
        clock += &(&b + &(&beta * &c));
        t_prime = t_prime.max(&(&clock + &a) + &(&alpha * &c));
        comm_one += &(&b + &beta);
        comp_one_max = comp_one_max.max(&a + &alpha);
    }
    *t_rat <= t_prime && t_prime <= &(t_rat + &comm_one) + &comp_one_max
}

/// Random linear platform: root first (beta 0), then workers.
fn platform_strategy(max_p: usize) -> impl Strategy<Value = Platform> {
    let worker = (1u32..=300, 1u32..=300).prop_map(|(b, a)| (b as f64 * 1e-3, a as f64 * 1e-2));
    (proptest::collection::vec(worker, 1..max_p), 1u32..=300).prop_map(|(workers, root_a)| {
        let mut procs = vec![Processor::linear("root", 0.0, root_a as f64 * 1e-2)];
        for (i, (b, a)) in workers.into_iter().enumerate() {
            procs.push(Processor::linear(format!("w{i}"), b, a));
        }
        Platform::new(procs, 0).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Algorithm 2 ≡ Algorithm 1 ≡ exhaustive enumeration (small n).
    #[test]
    fn dp_algorithms_are_optimal(platform in platform_strategy(4), n in 0usize..=14) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let basic = dp(Kernel::Basic, &view, n).unwrap();
        let opt = dp(Kernel::Optimized, &view, n).unwrap();
        let brute = brute_force_distribution(&view, n);
        prop_assert!((basic.makespan - brute.makespan).abs() < 1e-9,
                     "basic {} vs brute {}", basic.makespan, brute.makespan);
        prop_assert!((opt.makespan - brute.makespan).abs() < 1e-9,
                     "optimized {} vs brute {}", opt.makespan, brute.makespan);
        prop_assert_eq!(basic.counts.iter().sum::<usize>(), n);
        prop_assert_eq!(opt.counts.iter().sum::<usize>(), n);
    }

    /// The Eq. (4) sandwich: T_rat <= T_opt <= T' <= T_rat + Σβ·1 + max α·1.
    #[test]
    fn heuristic_guarantee_always_holds(platform in platform_strategy(5), n in 1usize..=400) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let h = heuristic_distribution(&view, n).unwrap();
        let exact = dp(Kernel::Optimized, &view, n).unwrap();
        prop_assert!(h.rational_makespan.to_f64() <= exact.makespan * (1.0 + 1e-12) + 1e-12);
        prop_assert!(exact.makespan <= h.makespan * (1.0 + 1e-12) + 1e-12);
        prop_assert!(h.makespan <= h.guarantee_bound * (1.0 + 1e-12) + 1e-12,
                     "Eq.(4) violated: {} > {}", h.makespan, h.guarantee_bound);
    }

    /// The structured solve of Eq. (3) against the general simplex on
    /// random affine platforms: the same exact `T` on every case, and on
    /// every certified case the same shares and counts, bit for bit.
    /// Eq. (4) holds in exact rationals whichever solver answered.
    #[test]
    fn structured_lp_matches_simplex(platform in lp_platform_strategy(8), n in 0usize..=5_000) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let h = heuristic_distribution(&view, n).unwrap();
        let simplex = heuristic_distribution_simplex(&view, n).unwrap();
        prop_assert_eq!(&h.rational_makespan, &simplex.rational_makespan);
        if h.certified {
            prop_assert_eq!(&h.rational_shares, &simplex.rational_shares);
            prop_assert_eq!(&h.counts, &simplex.counts);
        }
        prop_assert!(eq4_holds_exactly(&view, &h.counts, &h.rational_makespan),
                     "Eq. (4) violated: counts {:?}, T {}", h.counts, h.rational_makespan);
    }

    /// Linear platforms never reach the fallback: Theorems 1–2 make the
    /// structured vertex optimal, and the certificate must say so.
    #[test]
    fn linear_platforms_always_certify(platform in platform_strategy(8), n in 0usize..=100_000) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let h = heuristic_distribution(&view, n).unwrap();
        prop_assert!(h.certified, "linear platform fell back to the simplex");
        prop_assert!(eq4_holds_exactly(&view, &h.counts, &h.rational_makespan));
    }

    /// Closed form and LP agree exactly on linear platforms, and the
    /// closed-form shares realize simultaneous endings.
    #[test]
    fn closed_form_equals_lp(platform in platform_strategy(5), n in 1usize..=100_000) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let cf = closed_form_distribution(&view, n).unwrap();
        let h = heuristic_distribution(&view, n).unwrap();
        prop_assert_eq!(&cf.duration, &h.rational_makespan,
                        "closed form and LP must find the same optimum");
        let share_sum = cf.shares.iter().fold(gs_numeric::Rational::zero(), |a, s| a + s);
        prop_assert_eq!(share_sum, gs_numeric::Rational::from(n));
    }

    /// Theorem 3 (integer form): descending bandwidth is never beaten by
    /// more than the rounding slack by any other ordering.
    #[test]
    fn descending_order_is_best_up_to_rounding(platform in platform_strategy(4), n in 50usize..=200) {
        let desc_order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&desc_order);
        let desc = dp(Kernel::Optimized, &view, n).unwrap();
        let best = best_order_exhaustive(&platform, n);
        // Integer effects can make another order win by at most one item's
        // worth of comm + comp (the §4.4 guarantee band).
        let slack: f64 = platform.procs().iter().map(|p| p.comm.eval(1)).sum::<f64>()
            + platform.procs().iter().map(|p| p.comp.eval(1)).fold(0.0, f64::max);
        prop_assert!(desc.makespan <= best.makespan + slack + 1e-9,
                     "desc {} vs best {} (+slack {slack})", desc.makespan, best.makespan);
    }

    /// The planner always conserves items and produces valid displacements.
    #[test]
    fn plans_are_well_formed(platform in platform_strategy(6), n in 0usize..=10_000) {
        for strategy in [PlanStrategy::Uniform, PlanStrategy::Heuristic, PlanStrategy::ClosedForm] {
            let plan = Planner::new(platform.clone()).strategy(strategy).plan(n).unwrap();
            prop_assert_eq!(plan.total_items(), n);
            let p = platform.len();
            let mut covered = vec![false; n];
            for i in 0..p {
                for slot in covered[plan.displs[i]..plan.displs[i] + plan.counts[i]].iter_mut() {
                    prop_assert!(!*slot, "overlapping blocks");
                    *slot = true;
                }
            }
            prop_assert!(covered.into_iter().all(|c| c), "gaps in the layout");
        }
    }

    /// Makespan monotonicity: more items never finish earlier (exact DP).
    #[test]
    fn makespan_monotone_in_n(platform in platform_strategy(4), n in 1usize..=60) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let small = dp(Kernel::Optimized, &view, n).unwrap();
        let big = dp(Kernel::Optimized, &view, n + 1).unwrap();
        prop_assert!(big.makespan >= small.makespan - 1e-9);
    }

    /// The D&C kernel ≡ Algorithm 2 on linear costs, bit for bit —
    /// same counts (tie-breaks included) and the same makespan bits as
    /// Algorithm 1.
    #[test]
    fn dc_kernel_matches_algorithm_2_linear(platform in platform_strategy(6), n in 0usize..=300) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let dc = dp(Kernel::Dc, &view, n).unwrap();
        let opt = dp(Kernel::Optimized, &view, n).unwrap();
        let basic = dp(Kernel::Basic, &view, n).unwrap();
        prop_assert_eq!(&dc.counts, &opt.counts, "D&C tie-breaks must match Algorithm 2");
        prop_assert_eq!(dc.makespan.to_bits(), opt.makespan.to_bits());
        prop_assert_eq!(dc.makespan.to_bits(), basic.makespan.to_bits(),
                        "dc {} vs basic {}", dc.makespan, basic.makespan);
    }

    /// Same contract on affine costs (non-zero intercepts shift every
    /// crossing point; the stepped sweep must not care).
    #[test]
    fn dc_kernel_matches_algorithm_2_affine(platform in affine_platform_strategy(5), n in 0usize..=200) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let dc = dp(Kernel::Dc, &view, n).unwrap();
        let opt = dp(Kernel::Optimized, &view, n).unwrap();
        let basic = dp(Kernel::Basic, &view, n).unwrap();
        prop_assert_eq!(&dc.counts, &opt.counts, "D&C tie-breaks must match Algorithm 2");
        prop_assert_eq!(dc.makespan.to_bits(), opt.makespan.to_bits());
        prop_assert_eq!(dc.makespan.to_bits(), basic.makespan.to_bits());
    }

    /// Non-monotone costs: Algorithm 2 rejects the input outright, the
    /// D&C kernel demotes itself to Algorithm 1 — and must be fully
    /// identical to it (counts and makespan bits).
    #[test]
    fn dc_kernel_falls_back_on_nonmonotone_costs(platform in nonmonotone_platform_strategy(4), n in 0usize..=60) {
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        if n >= 2 && view.len() > 1 {
            prop_assert!(dp(Kernel::Optimized, &view, n).is_err(),
                         "Algorithm 2 must reject oscillating costs");
        }
        let dc = dp(Kernel::Dc, &view, n).unwrap();
        let basic = dp(Kernel::Basic, &view, n).unwrap();
        prop_assert_eq!(&dc.counts, &basic.counts);
        prop_assert_eq!(dc.makespan.to_bits(), basic.makespan.to_bits());
    }
}

/// Degenerate shapes the stepped sweep must survive: no items, fewer
/// items than processors, and a single (root-only) platform.
#[test]
fn dc_kernel_degenerate_shapes() {
    let platform = Platform::new(
        vec![
            Processor::linear("root", 0.0, 3e-3),
            Processor::linear("w0", 1e-4, 2e-3),
            Processor::linear("w1", 2e-4, 1e-3),
            Processor::linear("w2", 5e-5, 4e-3),
        ],
        0,
    )
    .unwrap();
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    // n = 0 and n < p.
    for n in [0usize, 1, 2, 3] {
        let dc = dp(Kernel::Dc, &view, n).unwrap();
        let opt = dp(Kernel::Optimized, &view, n).unwrap();
        assert_eq!(dc.counts, opt.counts, "n={n}");
        assert_eq!(dc.makespan.to_bits(), opt.makespan.to_bits(), "n={n}");
        assert_eq!(dc.counts.iter().sum::<usize>(), n);
    }
    // p = 1: the root keeps everything.
    let solo = Platform::new(vec![Processor::linear("root", 0.0, 2.0)], 0).unwrap();
    let view = solo.ordered(&[0]);
    let dc = dp(Kernel::Dc, &view, 5).unwrap();
    assert_eq!(dc.counts, vec![5]);
    assert_eq!(dc.makespan, 10.0);
}
