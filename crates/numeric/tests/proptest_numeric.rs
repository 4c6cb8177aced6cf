//! Property-based tests for the exact-arithmetic substrate.
//!
//! Oracles: `i128`/`u128` primitive arithmetic for values that fit, and
//! algebraic identities (field axioms) for values that do not.

use gs_numeric::{BigInt, BigUint, Rational};
use proptest::prelude::*;

fn biguint_strategy() -> impl Strategy<Value = (u128, BigUint)> {
    any::<u128>().prop_map(|v| (v, BigUint::from(v)))
}

fn rational_strategy() -> impl Strategy<Value = Rational> {
    (any::<i32>(), 1i32..=i32::MAX).prop_map(|(n, d)| Rational::from_ratio(n as i64, d as i64))
}

proptest! {
    // ---- BigUint vs u128 oracle -------------------------------------------

    #[test]
    fn add_matches_u128((a, ba) in biguint_strategy(), (b, bb) in biguint_strategy()) {
        let sum = &ba + &bb;
        match a.checked_add(b) {
            Some(s) => prop_assert_eq!(sum.to_u128(), Some(s)),
            None => prop_assert!(sum.bits() > 128),
        }
    }

    #[test]
    fn sub_matches_u128((a, ba) in biguint_strategy(), (b, bb) in biguint_strategy()) {
        match a.checked_sub(b) {
            Some(d) => prop_assert_eq!(ba.checked_sub(&bb).and_then(|x| x.to_u128()), Some(d)),
            None => prop_assert_eq!(ba.checked_sub(&bb), None),
        }
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let p = BigUint::from(a) * BigUint::from(b);
        prop_assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn divrem_matches_u128((a, ba) in biguint_strategy(), (b, bb) in biguint_strategy()) {
        prop_assume!(b != 0);
        let (q, r) = ba.divrem(&bb);
        prop_assert_eq!(q.to_u128(), Some(a / b));
        prop_assert_eq!(r.to_u128(), Some(a % b));
    }

    /// Division identity holds beyond 128 bits: `a = q*d + r`, `r < d`.
    #[test]
    fn divrem_identity_large(
        a_lo in any::<u128>(), a_hi in any::<u128>(),
        d_lo in any::<u128>(), d_hi in 0u128..=u32::MAX as u128,
    ) {
        let a = (BigUint::from(a_hi) << 128) + BigUint::from(a_lo);
        let d = (BigUint::from(d_hi) << 128) + BigUint::from(d_lo);
        prop_assume!(!d.is_zero());
        let (q, r) = a.divrem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn shifts_invert(v in any::<u128>(), s in 0u64..200) {
        let b = BigUint::from(v);
        prop_assert_eq!((&b << s) >> s, b);
    }

    #[test]
    fn gcd_divides_both(a in any::<u64>(), b in any::<u64>()) {
        let (ba, bb) = (BigUint::from(a), BigUint::from(b));
        let g = ba.gcd(&bb);
        if a == 0 && b == 0 {
            prop_assert!(g.is_zero());
        } else {
            prop_assert_eq!((&ba) % (&g), BigUint::zero());
            prop_assert_eq!((&bb) % (&g), BigUint::zero());
            // Matches the primitive Euclid oracle.
            let (mut x, mut y) = (a, b);
            while y != 0 { let t = x % y; x = y; y = t; }
            prop_assert_eq!(g.to_u64(), Some(x));
        }
    }

    /// `BigUint::gcd` (Lehmer) against Euclid's algorithm on multi-limb
    /// values that share a random factor and random powers of two.
    #[test]
    fn gcd_matches_euclid_multi_limb(
        common in proptest::collection::vec(any::<u32>(), 0..6),
        a_limbs in proptest::collection::vec(any::<u32>(), 0..24),
        b_limbs in proptest::collection::vec(any::<u32>(), 0..24),
        a_shift in 0u64..100,
        b_shift in 0u64..100,
    ) {
        let euclid = |mut x: BigUint, mut y: BigUint| {
            while !y.is_zero() {
                let r = &x % &y;
                x = y;
                y = r;
            }
            x
        };
        let common = BigUint::from_limbs(common);
        let a = (&common * &BigUint::from_limbs(a_limbs)) << a_shift;
        let b = (&common * &BigUint::from_limbs(b_limbs)) << b_shift;
        let g = euclid(a.clone(), b.clone());
        prop_assert_eq!(a.gcd(&b), g.clone());
        prop_assert_eq!(b.gcd(&a), g);
        // A short divisor of a long value: the remainder step ends the walk.
        prop_assert_eq!(a.gcd(&common), euclid(a.clone(), common.clone()));
    }

    #[test]
    fn display_parse_round_trip(v in any::<u128>()) {
        let b = BigUint::from(v);
        prop_assert_eq!(b.to_string().parse::<BigUint>().unwrap(), b.clone());
        prop_assert_eq!(b.to_string(), v.to_string());
    }

    // ---- BigInt vs i128 oracle ---------------------------------------------

    #[test]
    fn bigint_ops_match_i128(a in any::<i64>(), b in any::<i64>()) {
        let (ba, bb) = (BigInt::from(a), BigInt::from(b));
        let (a, b) = (a as i128, b as i128);
        prop_assert_eq!((&ba + &bb).to_i128(), Some(a + b));
        prop_assert_eq!((&ba - &bb).to_i128(), Some(a - b));
        prop_assert_eq!((&ba * &bb).to_i128(), Some(a * b));
        if b != 0 {
            let (q, r) = ba.divrem(&bb);
            prop_assert_eq!(q.to_i128(), Some(a / b));
            prop_assert_eq!(r.to_i128(), Some(a % b));
        }
        prop_assert_eq!(ba.cmp(&bb), a.cmp(&b));
    }

    // ---- Rational field axioms ----------------------------------------------

    #[test]
    fn rational_field_axioms(a in rational_strategy(), b in rational_strategy(), c in rational_strategy()) {
        // Commutativity and associativity.
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
        // Distributivity.
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        // Inverses.
        prop_assert_eq!(&a + &(-a.clone()), Rational::zero());
        if !a.is_zero() {
            prop_assert_eq!(&a * &a.recip(), Rational::one());
            prop_assert_eq!(&(&b / &a) * &a, b);
        }
    }

    #[test]
    fn rational_order_consistent(a in rational_strategy(), b in rational_strategy()) {
        prop_assert_eq!(a.cmp(&b), a.to_f64().partial_cmp(&b.to_f64()).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b)));
        // Adding the same value preserves order.
        let c = Rational::from_ratio(7, 3);
        prop_assert_eq!(a.cmp(&b), (&a + &c).cmp(&(&b + &c)));
    }

    #[test]
    fn rational_floor_ceil_bracket(a in rational_strategy()) {
        let fl = Rational::from(a.floor());
        let ce = Rational::from(a.ceil());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!((&ce - &fl) <= Rational::one());
        let rd = Rational::from(a.round());
        prop_assert!((&a - &rd).abs() <= Rational::from_ratio(1, 2));
    }

    #[test]
    fn rational_f64_exact_round_trip(v in any::<f64>()) {
        prop_assume!(v.is_finite());
        let r = Rational::from_f64(v).unwrap();
        prop_assert_eq!(r.to_f64(), v);
    }
}
