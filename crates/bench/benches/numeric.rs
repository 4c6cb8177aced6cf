//! Criterion bench: the exact-arithmetic substrate.
use criterion::{criterion_group, criterion_main, Criterion};
use gs_bench::experiments::runtimes::decimal_platform;
use gs_numeric::{BigUint, Rational};
use gs_scatter::closed_form::closed_form_distribution;
use gs_scatter::cost::Platform;
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::paper::{table1_platform, N_RAYS_1999};
use std::str::FromStr;

/// Numerator and denominator of the first closed-form share: a coprime
/// pair of the size the closed form and the heuristic reduce.
fn share_pair(platform: &Platform, n: usize) -> (BigUint, BigUint) {
    let view = platform.ordered(&scatter_order(platform, OrderPolicy::DescendingBandwidth));
    let share = closed_form_distribution(&view, n).unwrap().shares.swap_remove(0);
    (share.numer().magnitude().clone(), share.denom().clone())
}

fn bench_numeric(c: &mut Criterion) {
    // Repeated digit patterns: the pair shares small factors.
    let a = BigUint::from_str(&"123456789".repeat(12)).unwrap();
    let b = BigUint::from_str(&"987654321".repeat(8)).unwrap();
    c.bench_function("biguint_mul_108x72_digits", |bch| bch.iter(|| &a * &b));
    c.bench_function("biguint_divrem", |bch| bch.iter(|| a.divrem(&b)));
    c.bench_function("biguint_gcd", |bch| bch.iter(|| a.gcd(&b)));

    // Coprime pairs of the shapes planning reduces: a Table-1 share
    // (~900 bits) and a decimal p = 128 share (~7,000 bits).
    for (name, platform, n) in [
        ("biguint_gcd_coprime_table1_share", table1_platform(), N_RAYS_1999),
        ("biguint_gcd_coprime_decimal_p128_share", decimal_platform(128, 2003), 1_000_000),
    ] {
        let (num, den) = share_pair(&platform, n);
        assert!(num.gcd(&den).is_one(), "{name}: reduced shares are coprime");
        c.bench_function(name, |bch| bch.iter(|| num.gcd(&den)));
    }

    let x = Rational::from_f64(0.009288).unwrap();
    let y = Rational::from_f64(1.12e-5).unwrap();
    c.bench_function("rational_add_f64_coeffs", |bch| bch.iter(|| &x + &y));
    c.bench_function("rational_mul_f64_coeffs", |bch| bch.iter(|| &x * &y));
}

criterion_group!(benches, bench_numeric);
criterion_main!(benches);
