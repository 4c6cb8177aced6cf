//! Criterion bench: the three exact DP kernels (Algorithm 1, Algorithm
//! 2, divide-and-conquer) head to head on `p ∈ {8, 64}` and
//! `n ∈ {10⁴, 10⁵}`, plus Algorithm 2 and D&C on Table 1's full plane at
//! `n = 200,000` — all bit-identical in output, differing only in
//! how they locate each cell's minimum. Algorithm 1 is quadratic per
//! cell and only run at the small size; the D&C kernel's contract
//! (≥ 3× over Algorithm 2 at p = 64, n = 10⁵) is enforced by the bench
//! gate from the committed `BENCH_dp.json`, this bench is for local
//! profiling of the same claim.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gs_bench::experiments::runtimes::dp_perf_platform;
use gs_scatter::cost_table::CostTable;
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::parallel::{solve, Kernel, ParallelOpts};

fn bench_dc_dp(c: &mut Criterion) {
    let serial = ParallelOpts { threads: 1, prune: false, chunk: 0 };
    for p in [8usize, 64] {
        let platform = dp_perf_platform(p);
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let view = platform.ordered(&order);
        let mut group = c.benchmark_group(format!("dc_dp/p{p}"));
        group.sample_size(10);
        for n in [10_000usize, 100_000] {
            // Pre-warmed shared table: every kernel times the solve,
            // not the tabulation.
            let table = CostTable::new();
            for pr in &view {
                table.tabulate(&pr.comm, n);
                table.tabulate(&pr.comp, n);
            }
            // Algorithm 1 is O(p·n²): only feasible at the small size.
            if n <= 10_000 {
                group.bench_with_input(BenchmarkId::new("basic", n), &n, |b, &n| {
                    b.iter(|| solve(Kernel::Basic, &table, &view, n, &serial).unwrap())
                });
            }
            group.bench_with_input(BenchmarkId::new("optimized", n), &n, |b, &n| {
                b.iter(|| solve(Kernel::Optimized, &table, &view, n, &serial).unwrap())
            });
            group.bench_with_input(BenchmarkId::new("dc", n), &n, |b, &n| {
                b.iter(|| solve(Kernel::Dc, &table, &view, n, &serial).unwrap())
            });
        }
        group.finish();
    }

    // Table 1 (dp_perf_platform(16)) on the full plane at n = 200,000:
    // the long downward scans of every full-plane solve (non-affine costs,
    // band fallbacks, the `prune(false)` reference), where the
    // compute-dominated p = 64 platform above scans only a few candidates
    // per cell.
    let platform = dp_perf_platform(16);
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    let n = 200_000usize;
    let table = CostTable::new();
    for pr in &view {
        table.tabulate(&pr.comm, n);
        table.tabulate(&pr.comp, n);
    }
    let mut group = c.benchmark_group("dc_dp/table1_full");
    group.sample_size(10);
    for (name, kernel) in [("optimized", Kernel::Optimized), ("dc", Kernel::Dc)] {
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
            b.iter(|| solve(kernel, &table, &view, n, &serial).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dc_dp);
criterion_main!(benches);
