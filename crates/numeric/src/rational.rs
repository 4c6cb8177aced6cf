//! Exact rational numbers over [`BigInt`]/[`BigUint`].

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::{BigInt, BigUint};

/// An exact rational number `num / den`.
///
/// Invariants maintained by every constructor and operation:
/// * `den > 0`,
/// * `gcd(|num|, den) == 1`,
/// * zero is represented as `0 / 1`.
///
/// Consequently `PartialEq`/`Hash` derive structurally and total order is
/// the numeric order.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: BigInt,
    den: BigUint,
}

impl Rational {
    /// The value `0`.
    pub fn zero() -> Self {
        Rational { num: BigInt::zero(), den: BigUint::one() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        Rational { num: BigInt::one(), den: BigUint::one() }
    }

    /// Builds `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "Rational with zero denominator");
        let neg = num.is_negative() != den.is_negative();
        let num_mag = num.into_magnitude();
        let den_mag = den.into_magnitude();
        let g = num_mag.gcd(&den_mag);
        if num_mag.is_zero() {
            return Rational::zero();
        }
        Rational {
            num: BigInt::from_sign_mag(neg, &num_mag / &g),
            den: &den_mag / &g,
        }
    }

    /// Internal constructor for values already in lowest terms
    /// (`den > 0`, `gcd(|num|, den) == 1`). Debug-checked.
    fn from_reduced(num: BigInt, den: BigUint) -> Self {
        debug_assert!(!den.is_zero());
        debug_assert!(num.is_zero() && den.is_one() || num.magnitude().gcd(&den).is_one());
        Rational { num, den }
    }

    /// Builds from machine integers: `num / den`.
    ///
    /// # Panics
    /// Panics if `den` is zero.
    pub fn from_ratio(num: i64, den: i64) -> Self {
        Rational::new(BigInt::from(num), BigInt::from(den))
    }

    /// Builds an integer value.
    pub fn from_int(v: i64) -> Self {
        Rational { num: BigInt::from(v), den: BigUint::one() }
    }

    /// Exact conversion from a finite `f64` (every finite float is rational).
    ///
    /// Returns `None` for NaN and infinities.
    pub fn from_f64(v: f64) -> Option<Self> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Rational::zero());
        }
        let bits = v.to_bits();
        let neg = bits >> 63 == 1;
        let exp_bits = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // Value = mantissa * 2^exp with mantissa integral.
        let (mantissa, exp) = if exp_bits == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1u64 << 52), exp_bits - 1075)
        };
        let m = BigInt::from_sign_mag(neg, BigUint::from(mantissa));
        Some(if exp >= 0 {
            Rational {
                num: m * BigInt::from(BigUint::one() << exp as u64),
                den: BigUint::one(),
            }
        } else {
            Rational::new(m, BigInt::from(BigUint::one() << (-exp) as u64))
        })
    }

    /// Nearest `f64` approximation.
    ///
    /// Both numerator and denominator are reduced to their top 64 bits with
    /// a shared exponent correction, so the result is accurate to a few ulp
    /// regardless of magnitude.
    pub fn to_f64(&self) -> f64 {
        if self.num.is_zero() {
            return 0.0;
        }
        let nb = self.num.magnitude().bits() as i64;
        let db = self.den.bits() as i64;
        let nshift = (nb - 64).max(0) as u64;
        let dshift = (db - 64).max(0) as u64;
        let n = (self.num.magnitude() >> nshift).to_u64().expect("<= 64 bits") as f64;
        let d = (&self.den >> dshift).to_u64().expect("<= 64 bits") as f64;
        let mut v = n / d * 2f64.powi((nshift as i64 - dshift as i64) as i32);
        if self.num.is_negative() {
            v = -v;
        }
        v
    }

    /// Numerator (signed, coprime with the denominator).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &BigUint {
        &self.den
    }

    /// `true` iff the value is `0`.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// `true` iff the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// `true` iff the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// `true` iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational { num: self.num.abs(), den: self.den.clone() }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rational {
            num: BigInt::from_sign_mag(self.num.is_negative(), self.den.clone()),
            den: self.num.magnitude().clone(),
        }
    }

    /// `q + 1` when `up`, else `q`, signed like `self`: the result of
    /// rounding `self` once `|num| = q·den + r` is known.
    fn signed_step(&self, q: BigUint, up: bool) -> BigInt {
        let q = if up { q + BigUint::one() } else { q };
        BigInt::from_sign_mag(self.num.is_negative(), q)
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.magnitude().divrem(&self.den);
        let up = self.num.is_negative() && !r.is_zero();
        self.signed_step(q, up)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.magnitude().divrem(&self.den);
        let up = !self.num.is_negative() && !r.is_zero();
        self.signed_step(q, up)
    }

    /// Nearest integer; exact halves round away from zero (the choice is
    /// irrelevant to the rounding scheme of RR-4770 §3.3, which only needs
    /// *a* nearest integer).
    pub fn round(&self) -> BigInt {
        // |self| rounds up iff its fractional part r/den is >= 1/2.
        let (q, r) = self.num.magnitude().divrem(&self.den);
        let up = &r << 1 >= self.den;
        self.signed_step(q, up)
    }

    /// Fractional distance to the nearest integer, in `[0, 1/2]`.
    pub fn dist_to_nearest_int(&self) -> Rational {
        let r = Rational::from(self.round());
        (self - &r).abs()
    }

    /// `self^exp` for signed exponents.
    ///
    /// # Panics
    /// Panics if `self` is zero and `exp < 0`.
    pub fn pow(&self, exp: i32) -> Rational {
        if exp >= 0 {
            Rational {
                num: self.num.pow(exp as u32),
                den: self.den.pow(exp as u32),
            }
        } else {
            self.recip().pow(-exp)
        }
    }

    /// Parses a plain decimal literal such as `-12.345` or `0.009288`.
    ///
    /// This is how measured cost coefficients (Table 1 of the paper) enter
    /// the exact solvers without a detour through binary floating point.
    pub fn from_decimal_str(s: &str) -> Result<Self, ParseRationalError> {
        Rational::from_str(s)
    }
}

// ---- arithmetic -------------------------------------------------------------
//
// Addition and multiplication use Knuth's reduced algorithms (TAOCP 4.5.1):
// taking small GCDs *before* multiplying keeps intermediate magnitudes down,
// which is what makes the exact simplex tractable at paper scale.

impl<'b> Add<&'b Rational> for &Rational {
    type Output = Rational;
    fn add(self, rhs: &'b Rational) -> Rational {
        if self.is_zero() {
            return rhs.clone();
        }
        if rhs.is_zero() {
            return self.clone();
        }
        // a/b + c/d with g = gcd(b, d), b = g·b', d = g·d':
        //   t = a·d' + c·b',  g2 = gcd(t, g)
        //   result = (t/g2) / ((g/g2)·b'·d')   — already fully reduced.
        let g = self.den.gcd(&rhs.den);
        if g.is_one() {
            let num = &self.num * &BigInt::from(rhs.den.clone())
                + &rhs.num * &BigInt::from(self.den.clone());
            let den = &self.den * &rhs.den;
            debug_assert!(num.magnitude().gcd(&den).is_one());
            return Rational::from_reduced(num, den);
        }
        let b1 = &self.den / &g; // b'
        let d1 = &rhs.den / &g; // d'
        let t = &self.num * &BigInt::from(d1.clone()) + &rhs.num * &BigInt::from(b1.clone());
        if t.is_zero() {
            return Rational::zero();
        }
        let g2 = t.magnitude().gcd(&g);
        let num = BigInt::from_sign_mag(t.is_negative(), t.magnitude() / &g2);
        let den = &(&(&g / &g2) * &b1) * &d1;
        debug_assert!(num.magnitude().gcd(&den).is_one());
        Rational::from_reduced(num, den)
    }
}

impl<'b> Sub<&'b Rational> for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &'b Rational) -> Rational {
        self + &(-rhs.clone())
    }
}

impl<'b> Mul<&'b Rational> for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &'b Rational) -> Rational {
        if self.is_zero() || rhs.is_zero() {
            return Rational::zero();
        }
        // (a/b)·(c/d): cancel across — g1 = gcd(|a|, d), g2 = gcd(|c|, b);
        // since both inputs are reduced the cross-cancelled product is too.
        let g1 = self.num.magnitude().gcd(&rhs.den);
        let g2 = rhs.num.magnitude().gcd(&self.den);
        let num_mag = (self.num.magnitude() / &g1) * (rhs.num.magnitude() / &g2);
        let den = (&self.den / &g2) * (&rhs.den / &g1);
        let neg = self.num.is_negative() != rhs.num.is_negative();
        debug_assert!(num_mag.gcd(&den).is_one());
        Rational::from_reduced(BigInt::from_sign_mag(neg, num_mag), den)
    }
}

impl<'b> Div<&'b Rational> for &Rational {
    type Output = Rational;
    fn div(self, rhs: &'b Rational) -> Rational {
        assert!(!rhs.is_zero(), "Rational division by zero");
        self * &rhs.recip()
    }
}

macro_rules! forward_rat_owned {
    ($($trait:ident::$m:ident),*) => {$(
        impl $trait for Rational {
            type Output = Rational;
            fn $m(self, rhs: Rational) -> Rational {
                $trait::$m(&self, &rhs)
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $m(self, rhs: &Rational) -> Rational {
                $trait::$m(&self, rhs)
            }
        }
        impl $trait<Rational> for &Rational {
            type Output = Rational;
            fn $m(self, rhs: Rational) -> Rational {
                $trait::$m(self, &rhs)
            }
        }
    )*};
}
forward_rat_owned!(Add::add, Sub::sub, Mul::mul, Div::div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = (&*self) + rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = (&*self) - rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = (&*self) * rhs;
    }
}

impl DivAssign<&Rational> for Rational {
    fn div_assign(&mut self, rhs: &Rational) {
        *self = (&*self) / rhs;
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { num: -self.num, den: self.den }
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -self.clone()
    }
}

// ---- ordering -------------------------------------------------------------

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Cross-multiply: a/b ? c/d  <=>  a*d ? c*b  (b, d > 0).
        let lhs = &self.num * &BigInt::from(other.den.clone());
        let rhs = &other.num * &BigInt::from(self.den.clone());
        lhs.cmp(&rhs)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---- conversions ----------------------------------------------------------

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational { num: v, den: BigUint::one() }
    }
}

impl From<BigUint> for Rational {
    fn from(v: BigUint) -> Self {
        Rational { num: BigInt::from(v), den: BigUint::one() }
    }
}

macro_rules! from_prim {
    ($($t:ty),*) => {$(
        impl From<$t> for Rational {
            fn from(v: $t) -> Self {
                Rational { num: BigInt::from(v), den: BigUint::one() }
            }
        }
    )*};
}
from_prim!(i32, i64, u32, u64, usize);

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

// ---- I/O --------------------------------------------------------------------

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            self.num.fmt(f)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

/// Error parsing a [`Rational`] literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError;

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid rational literal (expected `a`, `a/b`, or decimal `a.b`)")
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Accepts `a`, `-a`, `a/b`, and decimal `a.b` forms.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse().map_err(|_| ParseRationalError)?;
            let den: BigInt = d.trim().parse().map_err(|_| ParseRationalError)?;
            if den.is_zero() {
                return Err(ParseRationalError);
            }
            return Ok(Rational::new(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let neg = int_part.trim().starts_with('-');
            let int: BigInt = if int_part.trim() == "-" {
                BigInt::zero()
            } else {
                int_part.trim().parse().map_err(|_| ParseRationalError)?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseRationalError);
            }
            let frac: BigUint = frac_part.parse().map_err(|_| ParseRationalError)?;
            let scale = BigUint::from(10u32).pow(frac_part.len() as u32);
            let frac_rat = Rational::new(BigInt::from(frac), BigInt::from(scale));
            let int_rat = Rational::from(int.abs());
            let v = &int_rat + &frac_rat;
            return Ok(if neg { -v } else { v });
        }
        let v: BigInt = s.trim().parse().map_err(|_| ParseRationalError)?;
        Ok(Rational::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rational::zero());
        assert_eq!(r(6, 3).to_string(), "2");
        assert_eq!(r(-1, 3).to_string(), "-1/3");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = r(3, 7);
        let b = r(-2, 5);
        assert_eq!(&a + &b, r(1, 35));
        assert_eq!(&a - &b, r(29, 35));
        assert_eq!(&a * &b, r(-6, 35));
        assert_eq!(&a / &b, r(-15, 14));
        assert_eq!(&a + &Rational::zero(), a);
        assert_eq!(&a * &Rational::one(), a);
        assert_eq!(&a * &a.recip(), Rational::one());
        assert_eq!(&a + &(-a.clone()), Rational::zero());
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(-1, 2) < r(1, 100));
        assert_eq!(r(2, 6).cmp(&r(1, 3)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil_round() {
        // (value, floor, ceil, round); exact halves round away from zero.
        let cases = [
            (r(7, 2), 3, 4, 4),
            (r(-7, 2), -4, -3, -4),
            (r(10, 5), 2, 2, 2),
            (r(-10, 5), -2, -2, -2),
            (r(1, 3), 0, 1, 0),
            (r(2, 3), 0, 1, 1),
            (r(-1, 3), -1, 0, 0),
            (r(-2, 3), -1, 0, -1),
            (r(1, 2), 0, 1, 1),
            (r(-1, 2), -1, 0, -1),
            (r(0, 1), 0, 0, 0),
            (r(49, 100), 0, 1, 0),
            (r(-51, 100), -1, 0, -1),
        ];
        for (v, fl, ce, rd) in cases {
            assert_eq!(v.floor(), BigInt::from(fl), "floor {v}");
            assert_eq!(v.ceil(), BigInt::from(ce), "ceil {v}");
            assert_eq!(v.round(), BigInt::from(rd), "round {v}");
        }
        // Multi-limb: (2^200·k + h)/2^100 around the half h = 2^99.
        let scale = BigUint::one() << 100;
        let whole = BigInt::from(BigUint::one() << 100) * BigInt::from(7);
        for (offset, fl, ce, rd) in [(-1i64, 7, 8, 7), (0, 7, 8, 8), (1, 7, 8, 8)] {
            let num = &whole + &BigInt::from(BigUint::one() << 99) + BigInt::from(offset);
            for neg in [false, true] {
                let v = Rational::new(
                    if neg { -num.clone() } else { num.clone() },
                    BigInt::from(scale.clone()),
                );
                let sign = |x: i64| BigInt::from(if neg { -x } else { x });
                let (fl, ce) = if neg { (-ce, -fl) } else { (fl, ce) };
                assert_eq!(v.floor(), BigInt::from(fl), "floor {v}");
                assert_eq!(v.ceil(), BigInt::from(ce), "ceil {v}");
                assert_eq!(v.round(), sign(rd), "round {v}");
            }
        }
    }

    #[test]
    fn dist_to_nearest() {
        assert_eq!(r(1, 3).dist_to_nearest_int(), r(1, 3));
        assert_eq!(r(2, 3).dist_to_nearest_int(), r(1, 3));
        assert_eq!(r(5, 2).dist_to_nearest_int(), r(1, 2));
        assert_eq!(r(4, 1).dist_to_nearest_int(), Rational::zero());
    }

    #[test]
    fn from_f64_exact() {
        assert_eq!(Rational::from_f64(0.5).unwrap(), r(1, 2));
        assert_eq!(Rational::from_f64(-0.25).unwrap(), r(-1, 4));
        assert_eq!(Rational::from_f64(3.0).unwrap(), r(3, 1));
        assert_eq!(Rational::from_f64(0.0).unwrap(), Rational::zero());
        assert!(Rational::from_f64(f64::NAN).is_none());
        assert!(Rational::from_f64(f64::INFINITY).is_none());
        // 0.1 is NOT 1/10 in binary; conversion must be exact, not pretty.
        let tenth = Rational::from_f64(0.1).unwrap();
        assert_ne!(tenth, r(1, 10));
        assert!((tenth.to_f64() - 0.1).abs() == 0.0);
    }

    #[test]
    fn f64_round_trip() {
        for v in [1.0, -1.5, 0.009288, 1e-5, 123456.789, 2f64.powi(80), 5e-324] {
            let rat = Rational::from_f64(v).unwrap();
            assert_eq!(rat.to_f64(), v, "round-trip {v}");
        }
    }

    #[test]
    fn to_f64_huge_ratio() {
        // (2^200 + 1) / 2^200 ~ 1.0
        let num = (BigUint::one() << 200) + BigUint::one();
        let rat = Rational::new(BigInt::from(num), BigInt::from(BigUint::one() << 200));
        assert!((rat.to_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parse_forms() {
        assert_eq!("3/4".parse::<Rational>().unwrap(), r(3, 4));
        assert_eq!("-3/4".parse::<Rational>().unwrap(), r(-3, 4));
        assert_eq!("3 / 4".parse::<Rational>().unwrap(), r(3, 4));
        assert_eq!("5".parse::<Rational>().unwrap(), r(5, 1));
        assert_eq!("0.5".parse::<Rational>().unwrap(), r(1, 2));
        assert_eq!("-0.25".parse::<Rational>().unwrap(), r(-1, 4));
        assert_eq!("0.009288".parse::<Rational>().unwrap(), r(9288, 1_000_000));
        assert_eq!("-.5".parse::<Rational>().unwrap(), r(-1, 2));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("a.b".parse::<Rational>().is_err());
        assert!("1.".parse::<Rational>().is_err());
    }

    #[test]
    fn pow_signed() {
        assert_eq!(r(2, 3).pow(2), r(4, 9));
        assert_eq!(r(2, 3).pow(-2), r(9, 4));
        assert_eq!(r(-2, 3).pow(3), r(-8, 27));
        assert_eq!(r(5, 7).pow(0), Rational::one());
    }

    #[test]
    fn table1_coefficients_exact() {
        // The β column of the paper's Table 1 parses exactly.
        let beta_pellinore = Rational::from_decimal_str("0.0000112").unwrap();
        assert_eq!(beta_pellinore, Rational::from_ratio(112, 10_000_000));
    }
}
