//! Brute-force oracles: exhaustive enumeration of distributions and of
//! processor orderings.
//!
//! These are exponential-time reference implementations used to validate
//! the dynamic programs, the heuristic, and the ordering policy on small
//! instances (tests, ablation studies). They are part of the public API so
//! integration tests and benches can call them, but they are not meant for
//! production planning.

use crate::cost::{Platform, Processor};
use crate::distribution::makespan;
use crate::cost_table::CostTable;
use crate::parallel::{solve, DpSolution, Kernel, ParallelOpts};

/// Exhaustively enumerates every distribution of `n` items over
/// `procs.len()` processors and returns the best (Eq. 2 minimal).
///
/// Cost: `C(n + p - 1, p - 1)` evaluations — keep `n` and `p` tiny.
pub fn brute_force_distribution(procs: &[&Processor], n: usize) -> DpSolution {
    assert!(!procs.is_empty());
    let p = procs.len();
    let mut counts = vec![0usize; p];
    let mut best_counts = vec![0usize; p];
    let mut best = f64::INFINITY;
    enumerate(procs, n, 0, &mut counts, &mut best, &mut best_counts);
    DpSolution { counts: best_counts, makespan: best }
}

fn enumerate(
    procs: &[&Processor],
    remaining: usize,
    i: usize,
    counts: &mut Vec<usize>,
    best: &mut f64,
    best_counts: &mut Vec<usize>,
) {
    if i == procs.len() - 1 {
        counts[i] = remaining;
        let m = makespan(procs, counts);
        if m < *best {
            *best = m;
            best_counts.clone_from(counts);
        }
        return;
    }
    for e in 0..=remaining {
        counts[i] = e;
        enumerate(procs, remaining - e, i + 1, counts, best, best_counts);
    }
}

/// Result of an exhaustive search over processor orderings.
#[derive(Debug, Clone)]
pub struct BestOrder {
    /// The best scatter order found (processor indices, root last).
    pub order: Vec<usize>,
    /// Optimal counts for that order, aligned with `order`.
    pub counts: Vec<usize>,
    /// The resulting makespan.
    pub makespan: f64,
}

/// Tries **every** ordering of the non-root processors (root stays last,
/// per §3.1), solving each with the exact DP, and returns the best — the
/// exhaustive procedure §4.4 calls "theoretically possible \[but\]
/// unrealistic" for large `p`. `(p-1)!` DP solves: keep `p <= 8` or so.
pub fn best_order_exhaustive(platform: &Platform, n: usize) -> BestOrder {
    let p = platform.len();
    let root = platform.root();
    let mut others: Vec<usize> = (0..p).filter(|&i| i != root).collect();
    let mut best: Option<BestOrder> = None;
    permute(&mut others, 0, &mut |perm: &[usize]| {
        let mut order = perm.to_vec();
        order.push(root);
        let view = platform.ordered(&order);
        let (sol, _) =
            solve(Kernel::Optimized, &CostTable::new(), &view, n, &ParallelOpts::serial())
                .expect("brute-force order search requires increasing costs");
        if best.as_ref().is_none_or(|b| sol.makespan < b.makespan) {
            best = Some(BestOrder { order, counts: sol.counts, makespan: sol.makespan });
        }
    });
    best.expect("at least one ordering exists")
}

/// Calls `f` with every permutation of `items` (Heap's algorithm,
/// recursive variant).
pub fn permute<T: Clone>(items: &mut [T], k: usize, f: &mut impl FnMut(&[T])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Processor;
    use crate::parallel::tests::serial_solve;

    #[test]
    fn brute_force_trivial() {
        let ps = [Processor::linear("root", 0.0, 1.0)];
        let v: Vec<&Processor> = ps.iter().collect();
        let sol = brute_force_distribution(&v, 5);
        assert_eq!(sol.counts, vec![5]);
        assert_eq!(sol.makespan, 5.0);
    }

    #[test]
    fn brute_force_prefers_fast_cpu() {
        let ps = [Processor::linear("fast", 0.0, 1.0),
            Processor::linear("root", 0.0, 3.0)];
        let v: Vec<&Processor> = ps.iter().collect();
        let sol = brute_force_distribution(&v, 4);
        // fast gets 3, root gets 1: makespan 3. Any other split is worse.
        assert_eq!(sol.counts, vec![3, 1]);
        assert_eq!(sol.makespan, 3.0);
    }

    #[test]
    fn permute_counts() {
        let mut items = vec![1, 2, 3, 4];
        let mut count = 0;
        permute(&mut items, 0, &mut |_| count += 1);
        assert_eq!(count, 24);
    }

    #[test]
    fn permute_visits_distinct() {
        let mut items = vec![1, 2, 3];
        let mut seen = std::collections::HashSet::new();
        permute(&mut items, 0, &mut |p| {
            seen.insert(p.to_vec());
        });
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn best_order_no_worse_than_descending_bandwidth_on_linear() {
        // Theorem 3 holds for the *rational* relaxation; in integers the
        // exhaustive best order can only tie or beat the
        // descending-bandwidth order, never lose to it.
        let plat = Platform::new(
            vec![
                Processor::linear("root", 0.0, 1.0),
                Processor::linear("slowlink", 0.9, 1.0),
                Processor::linear("fastlink", 0.1, 1.0),
            ],
            0,
        )
        .unwrap();
        let best = best_order_exhaustive(&plat, 12);
        assert_eq!(*best.order.last().unwrap(), 0, "root stays last");
        let desc_view = plat.ordered(&[2, 1, 0]);
        let desc = serial_solve(Kernel::Optimized, &desc_view, 12).unwrap();
        assert!(best.makespan <= desc.makespan + 1e-12);
        // At a size where the integer effects wash out, descending
        // bandwidth is strictly best (Theorem 3).
        let best_big = best_order_exhaustive(&plat, 500);
        assert_eq!(best_big.order, vec![2, 1, 0], "fastlink first, root last");
    }
}
