//! Criterion bench: the three exact DP kernels (Algorithm 1, Algorithm
//! 2, divide-and-conquer) head to head on `p ∈ {8, 64}` and
//! `n ∈ {10⁴, 10⁵}` — all bit-identical in output, differing only in
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
}

criterion_group!(benches, bench_dc_dp);
criterion_main!(benches);
