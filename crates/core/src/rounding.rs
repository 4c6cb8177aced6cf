//! The rounding scheme of RR-4770 §3.3.
//!
//! Given a rational distribution `n_1..n_p` with `Σ n_i = n` (an integer),
//! produce an integer distribution `n'_1..n'_p` with `Σ n'_i = n` and
//! `|n'_i − n_i| < 1` for every `i`. That last property is exactly what the
//! guarantee proof (Eq. 4 and §4.4) needs.
//!
//! Scheme, as in the paper: repeatedly round the not-yet-fixed share that is
//! nearest to an integer *in the direction that cancels the accumulated
//! error* — to the nearest integer while the error is zero, to the floor
//! while the error is positive (we have over-allocated), to the ceiling
//! while it is negative. The final share absorbs the residual error, which
//! the loop keeps in `(-1, 1)`, so it also moves by less than one.
//!
//! Implementation: each share is split once, exactly, into its floor and
//! fractional part `r/d`, and carries an `f64` image of `r/d`. The
//! selection loop then compares distances in `f64` and falls back to an
//! exact comparison only when two distances lie within `F64_SLACK` of
//! each other, so it makes the same choices as exact arithmetic,
//! tie-breaks included, while doing O(p) big-rational operations instead
//! of O(p²).

use std::cmp::Ordering;

use gs_numeric::{BigUint, Rational, Sign};

/// Twice the largest error of a distance's `f64` image. `Rational::to_f64`
/// is within a few ulps relative, so `r/d < 1` is off by less than
/// 2⁻⁵⁰ absolute and `1 − r/d`, after one more rounding, too; two
/// images closer than this are compared exactly.
const F64_SLACK: f64 = 1.0 / (1u64 << 48) as f64;

/// One share `x = floor + r/d`, split once.
struct Split<'a> {
    floor: usize,
    /// `r/d`, exact.
    frac: Rational,
    /// `r/d` as an `f64`.
    frac_f64: f64,
    /// `r`, the numerator of the fractional part (`0 <= r < d`).
    rem: BigUint,
    /// `d − r`, the numerator of the distance up to the ceiling.
    co_rem: BigUint,
    /// `d`, the share's (reduced) denominator.
    den: &'a BigUint,
}

/// Where a share rounds to, and how far that moves it.
struct Move<'a> {
    up: bool,
    /// The distance's numerator over the share's denominator (`None`
    /// for zero).
    dist: Option<&'a BigUint>,
    /// The distance as an `f64`.
    approx: f64,
}

impl<'a> Split<'a> {
    fn new(x: &'a Rational) -> Split<'a> {
        let den = x.denom();
        let (floor, rem) = x.numer().magnitude().divrem(den);
        let co_rem = den - &rem;
        let frac = x - &Rational::from(floor.clone());
        let frac_f64 = frac.to_f64();
        let floor = floor.to_u64().expect("share fits u64") as usize;
        Split { floor, frac, frac_f64, rem, co_rem, den }
    }

    /// The move rounding in direction `dir` makes: the sign of the
    /// accumulated error, so floor when positive, ceiling when negative
    /// and nearest (halves up) when zero.
    fn target(&self, dir: Ordering) -> Move<'_> {
        if self.rem.is_zero() {
            return Move { up: false, dist: None, approx: 0.0 };
        }
        let up = match dir {
            Ordering::Greater => false,
            Ordering::Less => true,
            Ordering::Equal => self.rem >= self.co_rem,
        };
        if up {
            Move { up, dist: Some(&self.co_rem), approx: 1.0 - self.frac_f64 }
        } else {
            Move { up, dist: Some(&self.rem), approx: self.frac_f64 }
        }
    }

    /// Whether `m` (a move of this share) is strictly shorter than
    /// `best` (a move of share `other`).
    fn nearer(&self, m: &Move, other: &Split, best: &Move) -> bool {
        if m.approx < best.approx - F64_SLACK {
            return true;
        }
        if m.approx > best.approx + F64_SLACK {
            return false;
        }
        let exact = match (m.dist, best.dist) {
            (None, None) => Ordering::Equal,
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(a), Some(b)) if self.den == other.den => a.cmp(b),
            (Some(a), Some(b)) => (a * other.den).cmp(&(b * self.den)),
        };
        exact == Ordering::Less
    }
}

/// Rounds rational shares (summing exactly to `n`) to integer counts.
///
/// ```
/// use gs_numeric::Rational;
/// use gs_scatter::rounding::round_shares;
///
/// let shares = vec![Rational::from_ratio(10, 3); 3]; // 3 × 10/3 = 10
/// let counts = round_shares(&shares, 10);
/// assert_eq!(counts.iter().sum::<usize>(), 10);
/// assert!(counts.iter().all(|&c| c == 3 || c == 4));
/// ```
///
/// # Panics
/// Panics if a share is negative or the shares do not sum to `n` — both
/// indicate a bug in the caller (the LP and the closed form always hand
/// over exact-sum, non-negative shares).
pub fn round_shares(shares: &[Rational], n: usize) -> Vec<usize> {
    assert!(!shares.is_empty(), "at least one share");
    let sum = shares.iter().fold(Rational::zero(), |acc, s| acc + s);
    assert_eq!(sum, Rational::from(n), "shares must sum exactly to n");
    assert!(shares.iter().all(|s| !s.is_negative()), "shares must be non-negative");

    let split: Vec<Split> = shares.iter().map(Split::new).collect();
    let mut counts: Vec<usize> = split.iter().map(|s| s.floor).collect();
    let mut remaining: Vec<usize> = (0..shares.len()).collect();
    // Accumulated rounding error Σ (n'_i − n_i) over the fixed shares.
    let mut err = Rational::zero();

    while remaining.len() > 1 {
        // Pick the remaining share nearest to its rounding target; the
        // first of equally near shares (in `remaining` order) wins.
        let dir = match err.numer().sign() {
            Sign::Positive => Ordering::Greater,
            Sign::Negative => Ordering::Less,
            Sign::Zero => Ordering::Equal,
        };
        let mut best = 0;
        let mut best_move = split[remaining[0]].target(dir);
        for (pos, &i) in remaining.iter().enumerate().skip(1) {
            let m = split[i].target(dir);
            if split[i].nearer(&m, &split[remaining[best]], &best_move) {
                (best, best_move) = (pos, m);
            }
        }
        let i = remaining.swap_remove(best);
        // err += rounded − x = [up] − r/d, which is 0 for an integer.
        if best_move.dist.is_some() {
            err -= &split[i].frac;
            if best_move.up {
                counts[i] += 1;
                err += &Rational::one();
            }
        }
        debug_assert!(err.abs() < Rational::one(), "error stays in (-1, 1)");
    }

    // Last share absorbs the residual error exactly.
    let k = remaining[0];
    let last = &shares[k] - &err;
    debug_assert!(last.is_integer(), "residual must be integral");
    debug_assert!((&last - &shares[k]).abs() < Rational::one());
    assert!(!last.is_negative(), "rounded share must be non-negative");
    counts[k] = last.numer().magnitude().to_u64().expect("share fits u64") as usize;
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::closed_form_distribution;
    use crate::cost::{Platform, Processor};
    use crate::ordering::{scatter_order, OrderPolicy};
    use gs_numeric::BigInt;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The O(p²) selection loop `round_shares` ran before it split each
    /// share once: fresh floor, ceiling, nearest integer and distance for
    /// every remaining share at every step. The oracle of the rounding
    /// property tests.
    fn reference_round_shares(shares: &[Rational]) -> Vec<usize> {
        let p = shares.len();
        let mut out: Vec<Option<BigInt>> = vec![None; p];
        let mut remaining: Vec<usize> = (0..p).collect();
        let mut err = Rational::zero();
        while remaining.len() > 1 {
            let (pos, rounded) = remaining
                .iter()
                .enumerate()
                .map(|(pos, &i)| {
                    let x = &shares[i];
                    let target: BigInt = if err.is_positive() {
                        x.floor()
                    } else if err.is_negative() {
                        x.ceil()
                    } else {
                        x.round()
                    };
                    let dist = (x - &Rational::from(target.clone())).abs();
                    (pos, target, dist)
                })
                .min_by(|a, b| a.2.cmp(&b.2))
                .map(|(pos, target, _)| (pos, target))
                .expect("remaining is non-empty");
            let i = remaining.swap_remove(pos);
            err += &(&Rational::from(rounded.clone()) - &shares[i]);
            out[i] = Some(rounded);
        }
        let k = remaining[0];
        out[k] = Some((&shares[k] - &err).floor());
        out.into_iter().map(|v| v.unwrap().to_i64().unwrap() as usize).collect()
    }

    /// A share of shape `kind`: an integer, an exact half, a fraction
    /// over a small denominator, a fraction over a multi-limb
    /// denominator, or a copy of the previous share (a tie).
    fn share(kind: u32, whole: u64, num: u64, den: u64, prev: Option<&Rational>) -> Rational {
        let whole = Rational::from(whole);
        match (kind, prev) {
            (0, _) => whole,
            (1, _) => &whole + &r(1, 2),
            (2, _) => &whole + &r((num % den) as i64, den as i64),
            (3, _) => {
                let big_den = (BigUint::from(den) << 70) + BigUint::one();
                &whole + &Rational::new(BigInt::from(num), BigInt::from(big_den))
            }
            (_, Some(prev)) => prev.clone(),
            (_, None) => whole,
        }
    }

    /// Random non-negative shares summing to an integer `n`: the drawn
    /// shapes, plus one share completing the sum, rotated to `rot`.
    fn random_shares(
        parts: &[(u32, u64, u64, u64)],
        extra: u64,
        rot: usize,
    ) -> (Vec<Rational>, usize) {
        let mut shares: Vec<Rational> = Vec::new();
        for &(kind, whole, num, den) in parts {
            let s = share(kind, whole, num, den, shares.last());
            shares.push(s);
        }
        let sum = shares.iter().fold(Rational::zero(), |a, s| a + s);
        let ceil = Rational::from(sum.ceil());
        shares.push(&(&ceil - &sum) + &Rational::from(extra));
        let len = shares.len();
        shares.rotate_left(rot % len);
        let n = (&ceil + &Rational::from(extra)).floor().to_i64().unwrap() as usize;
        (shares, n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Same counts as the O(p²) loop, so the same choices and the
        /// same tie-breaks, on shares with ties, halves, integers and
        /// mixed denominators.
        #[test]
        fn matches_the_quadratic_reference(
            parts in proptest::collection::vec((0u32..5, 0u64..40, any::<u64>(), 1u64..1000), 0..=14),
            extra in 0u64..3,
            rot in 0usize..16,
        ) {
            let (shares, n) = random_shares(&parts, extra, rot);
            prop_assert_eq!(round_shares(&shares, n), reference_round_shares(&shares));
        }
    }

    /// Closed-form shares of Table 1 (eight identical `leda` shares tie)
    /// and of a seeded decimal platform at p = 128, whose shares carry
    /// ~7,000-bit denominators.
    #[test]
    fn matches_the_quadratic_reference_on_closed_form_shares() {
        let mut rng = StdRng::seed_from_u64(128);
        let mut decimal = |lo: f64, hi: f64, places: i32| {
            let scale = 10f64.powi(places);
            (rng.gen_range(lo..hi) * scale).round() / scale
        };
        let procs: Vec<Processor> = (0..128)
            .map(|i| {
                let beta = decimal(1e-6, 5e-5, 9);
                let alpha = decimal(1e-3, 2e-2, 7);
                Processor::linear(format!("d{i}"), if i == 0 { 0.0 } else { beta }, alpha)
            })
            .collect();
        let decimal = Platform::new(procs, 0).unwrap();
        let table1 = crate::paper::table1_platform();
        let cases = [(&table1, crate::paper::N_RAYS_1999), (&table1, 1000), (&decimal, 1_000_000)];
        for (platform, n) in cases {
            let view = platform.ordered(&scatter_order(platform, OrderPolicy::DescendingBandwidth));
            let sol = closed_form_distribution(&view, n).unwrap();
            assert_eq!(sol.counts, reference_round_shares(&sol.shares), "n = {n}");
        }
    }

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    fn check(shares: &[Rational], n: usize) -> Vec<usize> {
        let counts = round_shares(shares, n);
        assert_eq!(counts.iter().sum::<usize>(), n, "sum preserved");
        for (c, s) in counts.iter().zip(shares) {
            let diff = (&Rational::from(*c) - s).abs();
            assert!(diff < Rational::one(), "|n'_i - n_i| < 1: {c} vs {s}");
        }
        counts
    }

    #[test]
    fn already_integral() {
        assert_eq!(check(&[r(3, 1), r(4, 1), r(5, 1)], 12), vec![3, 4, 5]);
    }

    #[test]
    fn single_share() {
        assert_eq!(check(&[r(7, 1)], 7), vec![7]);
    }

    #[test]
    fn simple_halves() {
        // 3/2 + 3/2 = 3: one rounds up, the other down.
        let counts = check(&[r(3, 2), r(3, 2)], 3);
        let mut sorted = counts.clone();
        sorted.sort();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn thirds() {
        let counts = check(&[r(10, 3), r(10, 3), r(10, 3)], 10);
        let mut sorted = counts;
        sorted.sort();
        assert_eq!(sorted, vec![3, 3, 4]);
    }

    #[test]
    fn nearest_is_rounded_first() {
        // 2.9 is nearest to an integer; it is rounded (to 3) first, then the
        // error forces the others down/up appropriately.
        let shares = vec![r(29, 10), r(5, 2), r(23, 5)]; // 2.9 + 2.5 + 4.6 = 10
        let counts = check(&shares, 10);
        assert_eq!(counts[0], 3);
    }

    #[test]
    fn tiny_shares_never_go_negative() {
        // 0.2 + 0.3 + 0.5 = 1
        let counts = check(&[r(1, 5), r(3, 10), r(1, 2)], 1);
        assert!(counts.iter().all(|&c| c <= 1));
    }

    #[test]
    fn zeros_stay_zero() {
        let counts = check(&[r(0, 1), r(7, 2), r(7, 2)], 7);
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn many_random_like_fractions() {
        // Shares n_i = n * w_i / W with awkward denominators.
        let w = [17i64, 23, 5, 41, 13, 1];
        let wsum: i64 = w.iter().sum();
        for n in [1usize, 10, 99, 1000] {
            let shares: Vec<Rational> = w
                .iter()
                .map(|&wi| &Rational::from(n) * &r(wi, wsum))
                .collect();
            check(&shares, n);
        }
    }

    #[test]
    #[should_panic(expected = "sum exactly")]
    fn rejects_bad_sum() {
        let _ = round_shares(&[r(1, 2), r(1, 2)], 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_share() {
        let _ = round_shares(&[r(-1, 2), r(5, 2)], 2);
    }
}
