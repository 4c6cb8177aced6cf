//! Criterion bench: Algorithm 1 vs Algorithm 2 across problem sizes —
//! the §5.2 "two days vs six minutes" comparison in miniature.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gs_scatter::cost_table::CostTable;
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::paper::table1_platform;
use gs_scatter::parallel::{solve, Kernel, ParallelOpts};

fn bench_dp(c: &mut Criterion) {
    let platform = table1_platform();
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    let serial = ParallelOpts::serial();
    let mut group = c.benchmark_group("dp");
    group.sample_size(10);
    for n in [200usize, 1_000, 4_000] {
        group.bench_with_input(BenchmarkId::new("algorithm1", n), &n, |b, &n| {
            b.iter(|| solve(Kernel::Basic, &CostTable::new(), &view, n, &serial).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("algorithm2", n), &n, |b, &n| {
            b.iter(|| solve(Kernel::Optimized, &CostTable::new(), &view, n, &serial).unwrap())
        });
    }
    // Algorithm 2 alone scales much further.
    for n in [20_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::new("algorithm2", n), &n, |b, &n| {
            b.iter(|| solve(Kernel::Optimized, &CostTable::new(), &view, n, &serial).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dp);
criterion_main!(benches);
