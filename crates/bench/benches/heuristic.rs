//! Criterion bench: the guaranteed LP heuristic and the closed form at
//! paper scale (n = 817,101, p = 16) — "instantaneous" in §5.2 — plus the
//! heuristic's structured solve on the synthetic affine platform of
//! `dp_perf_platform` at p = 64, and both on a seeded decimal platform
//! at p = 64 (`decimal_platform`), whose rationals run to thousands of
//! bits.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gs_bench::experiments::runtimes::{decimal_platform, dp_perf_platform};
use gs_scatter::closed_form::closed_form_distribution;
use gs_scatter::heuristic::heuristic_distribution;
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::paper::{table1_platform, N_RAYS_1999};

fn bench_heuristic(c: &mut Criterion) {
    let platform = table1_platform();
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    let mut group = c.benchmark_group("heuristic");
    group.sample_size(10);
    for n in [10_000usize, N_RAYS_1999] {
        group.bench_with_input(BenchmarkId::new("lp_heuristic", n), &n, |b, &n| {
            b.iter(|| heuristic_distribution(&view, n).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("closed_form", n), &n, |b, &n| {
            b.iter(|| closed_form_distribution(&view, n).unwrap())
        });
    }
    // The structured solve only: at p = 64 the simplex takes minutes.
    let affine = dp_perf_platform(64);
    let order = scatter_order(&affine, OrderPolicy::DescendingBandwidth);
    let view = affine.ordered(&order);
    let n = 100_000usize;
    assert!(heuristic_distribution(&view, n).unwrap().certified, "p = 64 row must not fall back");
    group.bench_with_input(BenchmarkId::new("lp_heuristic_affine_p64", n), &n, |b, &n| {
        b.iter(|| heuristic_distribution(&view, n).unwrap())
    });
    let decimal = decimal_platform(64, 2003);
    let view = decimal.ordered(&scatter_order(&decimal, OrderPolicy::DescendingBandwidth));
    let n = 1_000_000usize;
    group.bench_with_input(BenchmarkId::new("closed_form_decimal_p64", n), &n, |b, &n| {
        b.iter(|| closed_form_distribution(&view, n).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("lp_heuristic_decimal_p64", n), &n, |b, &n| {
        b.iter(|| heuristic_distribution(&view, n).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_heuristic);
criterion_main!(benches);
