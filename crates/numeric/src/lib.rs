//! # gs-numeric — exact arithmetic substrate
//!
//! Arbitrary-precision unsigned/signed integers and exact rational numbers.
//!
//! The load-balancing heuristic of Genaud, Giersch & Vivien solves a linear
//! program *in rationals* and rounds the result (RR-4770, §3.3). Solving that
//! LP with floating point would make the guarantee of Eq. (4) unverifiable:
//! pivoting error can move the optimal vertex. This crate provides the exact
//! arithmetic of the heuristic's structured solve and certificate, and of
//! the simplex solver (`gs-lp`) it falls back to.
//!
//! Design notes:
//! * [`BigUint`] stores little-endian `u32` limbs so that schoolbook
//!   multiplication and Knuth division fit comfortably in `u64`/`u128`
//!   intermediates — no `unsafe`, no platform assumptions.
//! * [`BigInt`] is a sign-magnitude wrapper with truncating division.
//! * [`Rational`] is always kept normalized (`gcd(num, den) == 1`,
//!   `den > 0`), so equality is structural and hashing is sound. That
//!   makes the GCD the hot spot of every rational operation;
//!   [`BigUint::gcd`] is Lehmer's algorithm, which retires ~30 bits per
//!   pass over the limbs.
//! * Every `f64` is a rational; [`Rational::from_f64`] converts exactly, so
//!   measured cost-model coefficients can enter the LP without loss.
//!
//! The types implement the usual operator traits for owned and borrowed
//! operands and `Display`/`FromStr` in decimal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod biguint;
mod rational;

pub use bigint::{BigInt, Sign};
pub use biguint::{BigUint, ParseBigIntError};
pub use rational::{ParseRationalError, Rational};

/// Greatest common divisor of two arbitrary-precision unsigned integers.
///
/// `gcd(0, x) == x` by convention. Delegates to [`BigUint::gcd`].
pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    a.gcd(b)
}
