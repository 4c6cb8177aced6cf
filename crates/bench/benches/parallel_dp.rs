//! Criterion bench: the Algorithm-2 engine variants (serial, parallel,
//! pruned, parallel+pruned) at a fixed problem size — all bit-identical,
//! differing only in wall time.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gs_scatter::cost_table::CostTable;
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::paper::table1_platform;
use gs_scatter::parallel::{solve, Kernel, ParallelOpts};

fn bench_parallel_dp(c: &mut Criterion) {
    let platform = table1_platform();
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    let n = 20_000usize;
    // Pre-warmed shared table: every variant times the solve, not the
    // tabulation.
    let table = CostTable::new();
    for pr in &view {
        table.tabulate(&pr.comm, n);
        table.tabulate(&pr.comp, n);
    }
    let variants = [
        ("serial", ParallelOpts { threads: 1, prune: false, chunk: 0 }),
        ("parallel4", ParallelOpts { threads: 4, prune: false, chunk: 0 }),
        ("pruned", ParallelOpts { threads: 1, prune: true, chunk: 0 }),
        ("parallel4_pruned", ParallelOpts { threads: 4, prune: true, chunk: 0 }),
    ];
    let mut group = c.benchmark_group("parallel_dp");
    group.sample_size(10);
    for (name, opts) in variants {
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
            b.iter(|| solve(Kernel::Optimized, &table, &view, n, &opts).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_dp);
criterion_main!(benches);
