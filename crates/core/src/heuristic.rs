//! The guaranteed LP heuristic of RR-4770 §3.3, for affine cost functions.
//!
//! The makespan minimization (Eq. 2) with affine costs is the linear
//! program (Eq. 3):
//!
//! ```text
//! minimize T   subject to
//!   n_i >= 0                                   for all i
//!   Σ_i n_i = n
//!   Σ_{j<=i} Tcomm(j, n_j) + Tcomp(i, n_i) <= T   for all i
//! ```
//!
//! solved here **exactly in rationals** (the paper used PIP) by its
//! structure rather than by a general LP solver. The constraints are
//! prefix sums, so with `s_i = α_i + β_i` and the constants
//! `C_i = Σ_{j<=i} b_j + a_i`, constraint `i` reads
//! `Σ_{j<i} β_j·n_j + s_i·n_i + C_i <= T`. The solve takes three O(p)
//! passes:
//!
//! 1. **Participants.** A backward Theorem-2 scan over the slopes keeps
//!    `P_i` iff `β_i·(1/D(participating suffix)) <= 1` — the fold of
//!    [`crate::closed_form`] — and yields the dual multipliers on the way.
//! 2. **Shares as functions of `T`.** With every participant's constraint
//!    tight, a forward triangular solve writes `n_i = u_i·T + w_i`.
//! 3. **`T`.** The one equation `Σ_i n_i = n` fixes `T`.
//!
//! Theorems 1–2 prove this vertex optimal for linear costs; intercepts can
//! break that (a zero share whose constraint still sits above `T`). So
//! every answer is checked by an exact primal/dual optimality certificate
//! (`PrefixLp::certify`) and, when the check fails, the same program is
//! handed to the general simplex of `gs-lp`. The fallback is counted in
//! `heuristic_lp_fallback_total`: correctness rests on the check, never on
//! the derivation.
//!
//! The rational optimum `n_1..n_p` is rounded with the §3.3 scheme
//! ([`crate::rounding::round_shares`]), which moves every share by less
//! than one, giving the guarantee (Eq. 4):
//!
//! ```text
//! T_opt <= T' <= T_opt + Σ_j Tcomm(j, 1) + max_i Tcomp(i, 1)
//! ```
//!
//! where `T_opt` is the optimal *integer* makespan. In the paper's
//! experiment the observed relative error against the DP optimum was below
//! `6·10⁻⁶` with an essentially instantaneous runtime, versus 6 minutes for
//! Algorithm 2.

use std::sync::Arc;

use gs_lp::{LpProblem, Sense};
use gs_numeric::Rational;

use crate::cost::Processor;
use crate::distribution::makespan;
use crate::error::PlanError;
use crate::metrics::{Counter, Registry};
use crate::obs::span;
use crate::rounding::round_shares;

/// Result of the guaranteed heuristic.
#[derive(Debug, Clone)]
pub struct HeuristicSolution {
    /// Integer counts after rounding, in scatter order.
    pub counts: Vec<usize>,
    /// The exact rational optimal shares of the LP relaxation.
    pub rational_shares: Vec<Rational>,
    /// The exact rational optimal makespan `T` of the LP relaxation
    /// (a lower bound on the optimal integer makespan).
    pub rational_makespan: Rational,
    /// Eq. (2) makespan of `counts`.
    pub makespan: f64,
    /// The guarantee (Eq. 4): `makespan <= guarantee_bound`, and the
    /// optimal integer makespan lies in `[rational_makespan, makespan]`.
    pub guarantee_bound: f64,
    /// `true` when the structured solve answered and its optimality
    /// certificate passed; `false` when the simplex answered instead.
    pub certified: bool,
}

/// Eq. (3) with exact coefficients, in scatter order.
#[derive(Debug, Clone)]
struct PrefixLp {
    /// Items to distribute.
    n: Rational,
    /// Communication slopes `β_i`.
    beta: Vec<Rational>,
    /// `s_i = α_i + β_i`, the coefficient of `n_i` in its own constraint.
    s: Vec<Rational>,
    /// `C_i = Σ_{j<=i} b_j + a_i`, the constant part of constraint `i`.
    c: Vec<Rational>,
}

/// A candidate optimum of Eq. (3).
#[derive(Debug, Clone)]
struct Vertex {
    shares: Vec<Rational>,
    t: Rational,
}

/// Dual multipliers of Eq. (3), up to a positive factor: `mu` for
/// `Σ n_i = n`, `lambda[i]` for constraint `i`. The certificate
/// normalises by `Σ λ`.
#[derive(Debug, Clone)]
struct Dual {
    mu: Rational,
    lambda: Vec<Rational>,
}

impl PrefixLp {
    /// Reads the exact affine parameters of both cost functions of each
    /// processor.
    fn new(procs: &[&Processor], n: usize) -> Result<PrefixLp, PlanError> {
        let p = procs.len();
        let mut lp = PrefixLp {
            n: Rational::from(n),
            beta: Vec::with_capacity(p),
            s: Vec::with_capacity(p),
            c: Vec::with_capacity(p),
        };
        let mut comm_intercepts = Rational::zero();
        for (i, pr) in procs.iter().enumerate() {
            let (b, beta) = pr.comm.affine_params().ok_or(PlanError::NotAffine { proc: i })?;
            let (a, alpha) = pr.comp.affine_params().ok_or(PlanError::NotAffine { proc: i })?;
            for v in [b, beta, a, alpha] {
                if !v.is_finite() || v < 0.0 {
                    return Err(PlanError::InvalidCost { proc: i, items: 1, value: v });
                }
            }
            let to_rat = |v: f64| Rational::from_f64(v).expect("finite checked above");
            let beta = to_rat(beta);
            comm_intercepts += &to_rat(b);
            lp.s.push(&beta + &to_rat(alpha));
            lp.c.push(&comm_intercepts + &to_rat(a));
            lp.beta.push(beta);
        }
        Ok(lp)
    }

    fn len(&self) -> usize {
        self.beta.len()
    }

    /// Step 1 of the module docs, backward: the participants and the dual
    /// multipliers. With μ = 1, a participant's reduced cost is zero,
    /// λ_i = (1 − β_i·Λ_{>i}) / s_i, and Λ = Σ λ equals
    /// 1/D(participating suffix) of Theorem 1. `None` when a participant
    /// has `s_i = 0`, where the triangular solve does not apply.
    fn scan_dual(&self) -> Option<(Vec<bool>, Dual)> {
        let p = self.len();
        let mut dual = Dual { mu: Rational::one(), lambda: vec![Rational::zero(); p] };
        let mut participants = vec![false; p];
        let mut lambda_suffix = Rational::zero();
        for i in (0..p).rev() {
            let pull = &self.beta[i] * &lambda_suffix;
            if pull > dual.mu {
                continue;
            }
            if !self.s[i].is_positive() {
                return None;
            }
            dual.lambda[i] = &(&dual.mu - &pull) / &self.s[i];
            lambda_suffix += &dual.lambda[i];
            participants[i] = true;
        }
        Some((participants, dual))
    }

    /// Steps 1–3 of the module docs, then the certificate: `Some` only
    /// for a certified optimum.
    fn solve_structured(&self) -> Option<Vertex> {
        let p = self.len();
        let (participants, dual) = self.scan_dual()?;

        // Step 2, forward: the prefix S_{i-1} = Σ_{j<i} β_j·n_j is kept
        // as su·T + sw; a tight constraint gives
        // n_i = (T − S_{i-1} − C_i) / s_i = u_i·T + w_i.
        let mut u = vec![Rational::zero(); p];
        let mut w = vec![Rational::zero(); p];
        let (mut su, mut sw) = (Rational::zero(), Rational::zero());
        let (mut sum_u, mut sum_w) = (Rational::zero(), Rational::zero());
        for i in (0..p).filter(|&i| participants[i]) {
            u[i] = &(&Rational::one() - &su) / &self.s[i];
            w[i] = -(&(&self.c[i] + &sw) / &self.s[i]);
            su += &(&self.beta[i] * &u[i]);
            sw += &(&self.beta[i] * &w[i]);
            sum_u += &u[i];
            sum_w += &w[i];
        }

        // Step 3: Σ n_i = n.
        let t = &(&self.n - &sum_w) / &sum_u;
        let shares = (0..p)
            .map(|i| if participants[i] { &(&u[i] * &t) + &w[i] } else { Rational::zero() })
            .collect();
        let vertex = Vertex { shares, t };
        self.certify(&vertex, &dual).then_some(vertex)
    }

    /// Exact optimality certificate for `x` against the dual `y`.
    ///
    /// In the standard form `min cᵀx, Ax = b, l <= x <= u`, Eq. (3) has
    /// the variables `(T, n_1..n_p, σ_1..σ_p)`, all with `l = 0` and
    /// `u = ∞` (`σ_i` is constraint `i`'s slack), `c = e_T`, and the rows
    ///
    /// ```text
    /// Σ_j n_j                                = n
    /// −T + Σ_{j<i} β_j·n_j + s_i·n_i + σ_i   = −C_i      (i = 1..p)
    /// ```
    ///
    /// With the row duals `(μ, −λ_1..−λ_p)/Λ`, `Λ = Σ λ > 0`, the reduced
    /// costs `c − Aᵀy` are `0` for `T` and
    ///
    /// ```text
    /// z(n_j) = (λ_j·s_j + β_j·Λ_{>j} − μ) / Λ,     z(σ_i) = λ_i / Λ,
    /// ```
    ///
    /// and the dual objective is `bᵀy = (μ·n + Σ_i λ_i·C_i) / Λ`. The
    /// check passes iff `x` is primal feasible, every reduced cost is
    /// `>= 0` (dual feasible), and `T = bᵀy`. Weak duality then makes `T`
    /// the optimum: every feasible point has `T >= bᵀy`.
    fn certify(&self, x: &Vertex, y: &Dual) -> bool {
        let p = self.len();
        // Primal: n >= 0, Σ n = n, every constraint <= T.
        if x.shares.iter().any(Rational::is_negative) {
            return false;
        }
        if x.shares.iter().fold(Rational::zero(), |acc, v| acc + v) != self.n {
            return false;
        }
        let mut prefix = Rational::zero();
        for i in 0..p {
            let lhs = &(&prefix + &(&self.s[i] * &x.shares[i])) + &self.c[i];
            if lhs > x.t {
                return false;
            }
            prefix += &(&self.beta[i] * &x.shares[i]);
        }
        // Dual: λ >= 0 with Λ > 0, and z(n_j) >= 0.
        if y.lambda.iter().any(Rational::is_negative) {
            return false;
        }
        let mut lambda_suffix = Rational::zero();
        for j in (0..p).rev() {
            let own = &y.lambda[j] * &self.s[j];
            let reduced = &(&own + &(&self.beta[j] * &lambda_suffix)) - &y.mu;
            if reduced.is_negative() {
                return false;
            }
            lambda_suffix += &y.lambda[j];
        }
        if !lambda_suffix.is_positive() {
            return false;
        }
        // Equal objectives: T·Λ = μ·n + Σ λ_i·C_i.
        let dual_objective = y
            .lambda
            .iter()
            .zip(&self.c)
            .fold(&y.mu * &self.n, |acc, (l, c)| acc + &(l * c));
        &x.t * &lambda_suffix == dual_objective
    }

    /// The same program solved by the general dense simplex of `gs-lp`.
    fn solve_simplex(&self) -> Result<Vertex, PlanError> {
        let p = self.len();
        let mut lp = LpProblem::new(Sense::Minimize);
        let t = lp.add_var("T");
        let vars: Vec<_> = (0..p).map(|i| lp.add_var(format!("n{i}"))).collect();
        lp.set_objective([(t, Rational::one())]);
        // Σ n_i = n.
        lp.add_eq(vars.iter().map(|&v| (v, Rational::one())), self.n.clone());
        // For each i: Σ_{j<i} β_j·n_j + s_i·n_i − T <= −C_i.
        for i in 0..p {
            let mut terms: Vec<(gs_lp::VarId, Rational)> = Vec::with_capacity(i + 2);
            terms.extend((0..i).map(|j| (vars[j], self.beta[j].clone())));
            terms.push((vars[i], self.s[i].clone()));
            terms.push((t, -Rational::one()));
            lp.add_le(terms, -self.c[i].clone());
        }
        let sol = lp.solve().map_err(|e| PlanError::LpFailed(e.to_string()))?;
        Ok(Vertex { shares: vars.iter().map(|&v| sol[v].clone()).collect(), t: sol.objective })
    }
}

/// Runs the guaranteed heuristic on processors in scatter order (root
/// last): exact rational solve of Eq. (3), then the §3.3 rounding scheme.
///
/// The structured solve answers whenever its optimality certificate
/// passes; otherwise the general simplex answers and
/// `heuristic_lp_fallback_total` counts it. Either way the shares are an
/// exact optimum of Eq. (3).
///
/// ```
/// use gs_scatter::cost::Processor;
/// use gs_scatter::heuristic::heuristic_distribution;
///
/// let procs = vec![
///     Processor::linear("w", 1e-4, 0.004),
///     Processor::linear("root", 0.0, 0.009),
/// ];
/// let view: Vec<&Processor> = procs.iter().collect();
/// let h = heuristic_distribution(&view, 10_000).unwrap();
/// assert_eq!(h.counts.iter().sum::<usize>(), 10_000);
/// // Linear costs always take the certified structured solve.
/// assert!(h.certified);
/// // Eq. (4): the rounded makespan never exceeds the guarantee bound.
/// assert!(h.makespan <= h.guarantee_bound);
/// ```
pub fn heuristic_distribution(
    procs: &[&Processor],
    n: usize,
) -> Result<HeuristicSolution, PlanError> {
    if procs.is_empty() {
        return Err(PlanError::InvalidPlatform("no processors".into()));
    }
    let lp = PrefixLp::new(procs, n)?;
    let mut solve_span = span::span("heuristic", "heuristic.solve");
    solve_span.attr("p", procs.len());
    let (vertex, certified) = match lp.solve_structured() {
        Some(vertex) => (vertex, true),
        None => {
            fallback_counter().inc();
            (lp.solve_simplex()?, false)
        }
    };
    solve_span.attr("certified", certified);
    solve_span.attr(
        "t_bits",
        format_args!("{}/{}", vertex.t.numer().magnitude().bits(), vertex.t.denom().bits()),
    );
    drop(solve_span);
    Ok(finish(procs, n, vertex, certified))
}

/// `heuristic_lp_fallback_total`: solves the simplex answered because
/// the structured solve's certificate failed.
fn fallback_counter() -> Arc<Counter> {
    Registry::global().counter(
        "heuristic_lp_fallback_total",
        "heuristic solves whose certificate failed and fell back to the simplex",
    )
}

/// [`heuristic_distribution`] with the rational optimum always taken
/// from the general simplex of `gs-lp` — the fallback path, public as
/// the reference the structured solve is tested against.
pub fn heuristic_distribution_simplex(
    procs: &[&Processor],
    n: usize,
) -> Result<HeuristicSolution, PlanError> {
    if procs.is_empty() {
        return Err(PlanError::InvalidPlatform("no processors".into()));
    }
    let vertex = PrefixLp::new(procs, n)?.solve_simplex()?;
    Ok(finish(procs, n, vertex, false))
}

/// Rounds the rational optimum (§3.3) and evaluates the result.
fn finish(procs: &[&Processor], n: usize, vertex: Vertex, certified: bool) -> HeuristicSolution {
    let Vertex { shares: rational_shares, t: rational_makespan } = vertex;
    let counts = round_shares(&rational_shares, n);
    let actual = makespan(procs, &counts);

    // Eq. (4) bound: T_rat + Σ_j Tcomm(j,1) + max_i Tcomp(i,1).
    let comm_sum: f64 = procs.iter().map(|p| p.comm.eval(1)).sum();
    let comp_max: f64 = procs
        .iter()
        .map(|p| p.comp.eval(1))
        .fold(0.0f64, f64::max);
    let guarantee_bound = rational_makespan.to_f64() + comm_sum + comp_max;

    HeuristicSolution {
        counts,
        rational_shares,
        rational_makespan,
        makespan: actual,
        guarantee_bound,
        certified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::closed_form_distribution;
    use crate::cost::Processor;
    use crate::parallel::{tests::serial_solve, Kernel};

    fn view(ps: &[Processor]) -> Vec<&Processor> {
        ps.iter().collect()
    }

    #[test]
    fn matches_closed_form_on_linear_costs() {
        // For linear costs the LP optimum must equal the Theorem-1 closed
        // form (same rational program).
        let ps = vec![
            Processor::linear("a", 0.2, 2.0),
            Processor::linear("b", 0.5, 1.0),
            Processor::linear("root", 0.0, 1.5),
        ];
        let v = view(&ps);
        let n = 777;
        let h = heuristic_distribution(&v, n).unwrap();
        let cf = closed_form_distribution(&v, n).unwrap();
        assert_eq!(h.rational_makespan, cf.duration);
        for (hs, cs) in h.rational_shares.iter().zip(&cf.shares) {
            assert_eq!(hs, cs);
        }
    }

    #[test]
    fn guarantee_bound_holds_vs_dp() {
        let ps = vec![
            Processor::linear("a", 0.3, 1.2),
            Processor::linear("b", 0.6, 0.8),
            Processor::linear("c", 0.1, 2.5),
            Processor::linear("root", 0.0, 1.0),
        ];
        let v = view(&ps);
        for n in [1usize, 13, 100, 509] {
            let h = heuristic_distribution(&v, n).unwrap();
            let exact = serial_solve(Kernel::Optimized, &v, n).unwrap();
            // Sandwich: T_rat <= T_opt <= T' <= bound.
            assert!(h.rational_makespan.to_f64() <= exact.makespan + 1e-9, "n={n}");
            assert!(exact.makespan <= h.makespan + 1e-9, "n={n}");
            assert!(h.makespan <= h.guarantee_bound + 1e-9, "n={n}");
        }
    }

    #[test]
    fn affine_costs_supported() {
        let ps = vec![
            Processor::affine("a", 0.5, 0.01, 1.0, 0.2),
            Processor::affine("b", 0.2, 0.05, 0.3, 0.1),
            Processor::affine("root", 0.0, 0.0, 0.0, 0.15),
        ];
        let v = view(&ps);
        let n = 500;
        let h = heuristic_distribution(&v, n).unwrap();
        assert_eq!(h.counts.iter().sum::<usize>(), n);
        assert!(h.makespan <= h.guarantee_bound + 1e-9);
        // Against the exact DP (affine costs are increasing):
        let exact = serial_solve(Kernel::Optimized, &v, n).unwrap();
        assert!(exact.makespan <= h.makespan + 1e-9);
        assert!(h.makespan <= h.guarantee_bound + 1e-9);
        // The certified structured vertex is the simplex's.
        let simplex = heuristic_distribution_simplex(&v, n).unwrap();
        assert!(h.certified);
        assert_eq!(h.rational_makespan, simplex.rational_makespan);
        assert_eq!(h.rational_shares, simplex.rational_shares);
        assert_eq!(h.counts, simplex.counts);
    }

    #[test]
    fn heuristic_error_is_tiny_at_scale() {
        // The §5.2 observation: relative error below 6e-6 at n = 817,101.
        // At n = 20,000 on a Table-1-like platform it is already minuscule.
        let ps = vec![
            Processor::linear("caseb", 1.00e-5, 0.004629),
            Processor::linear("pellinore", 1.12e-5, 0.009365),
            Processor::linear("sekhmet", 1.70e-5, 0.004885),
            Processor::linear("dinadan", 0.0, 0.009288),
        ];
        let v = view(&ps);
        let n = 20_000;
        let h = heuristic_distribution(&v, n).unwrap();
        let exact = serial_solve(Kernel::Optimized, &v, n).unwrap();
        let rel = (h.makespan - exact.makespan) / exact.makespan;
        assert!(rel >= -1e-12, "heuristic cannot beat the optimum");
        assert!(rel < 1e-4, "relative error {rel} too large");
    }

    #[test]
    fn rejects_non_affine() {
        let ps = vec![
            Processor::custom("weird", |x| (x as f64).sqrt(), |x| x as f64),
            Processor::linear("root", 0.0, 1.0),
        ];
        assert!(matches!(
            heuristic_distribution(&view(&ps), 10),
            Err(PlanError::NotAffine { proc: 0 })
        ));
    }

    #[test]
    fn zero_items() {
        let ps = vec![
            Processor::linear("a", 0.1, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ];
        let h = heuristic_distribution(&view(&ps), 0).unwrap();
        assert_eq!(h.counts, vec![0, 0]);
        assert_eq!(h.makespan, 0.0);
    }

    #[test]
    fn single_processor() {
        let ps = vec![Processor::linear("root", 0.0, 2.0)];
        let h = heuristic_distribution(&view(&ps), 21).unwrap();
        assert_eq!(h.counts, vec![21]);
        assert_eq!(h.rational_makespan, Rational::from_f64(2.0).unwrap() * Rational::from(21u64));
        assert!(h.certified);
    }

    #[test]
    fn table1_matches_the_simplex_bit_for_bit() {
        use crate::ordering::{scatter_order, OrderPolicy};
        use crate::paper::{table1_platform, N_RAYS_1999};
        let platform = table1_platform();
        let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
        let v = platform.ordered(&order);
        let h = heuristic_distribution(&v, N_RAYS_1999).unwrap();
        let simplex = heuristic_distribution_simplex(&v, N_RAYS_1999).unwrap();
        assert!(h.certified, "Table 1 is linear: the structured solve must certify");
        assert!(!simplex.certified);
        assert_eq!(h.rational_makespan, simplex.rational_makespan);
        assert_eq!(h.rational_shares, simplex.rational_shares);
        assert_eq!(h.counts, simplex.counts);
        assert_eq!(h.makespan.to_bits(), simplex.makespan.to_bits());
    }

    #[test]
    fn intercept_above_the_optimum_falls_back_to_the_simplex() {
        // By slopes alone `w` does not participate (β·(1/D) = 10 > 1),
        // but its computation intercept alone exceeds the structured T:
        // the primal check fails and the simplex answers.
        let ps = vec![
            Processor::affine("w", 0.0, 10.0, 1000.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ];
        let fallbacks = fallback_counter();
        let before = fallbacks.get();
        let h = heuristic_distribution(&view(&ps), 10).unwrap();
        assert!(!h.certified);
        assert!(fallbacks.get() > before, "the fallback is counted");
        assert_eq!(h.rational_makespan, Rational::from(1000u64));
        assert_eq!(h.counts.iter().sum::<usize>(), 10);
        assert!(h.makespan <= h.guarantee_bound);
    }

    #[test]
    fn certificate_rejects_a_perturbed_optimum() {
        let ps = vec![
            Processor::linear("a", 0.2, 2.0),
            Processor::linear("b", 0.5, 1.0),
            Processor::linear("root", 0.0, 1.5),
        ];
        let lp = PrefixLp::new(&view(&ps), 777).unwrap();
        let x = lp.solve_structured().expect("linear platforms certify");
        let dual = Dual { mu: Rational::one(), lambda: vec![Rational::one(); 3] };
        assert!(!lp.certify(&x, &dual), "an arbitrary dual does not prove optimality");
        // Moving one item between participants keeps Σ n = n but breaks a
        // constraint (primal) — the shares are no longer a vertex at T.
        let mut moved = x.clone();
        moved.shares[0] += &Rational::one();
        moved.shares[2] -= &Rational::one();
        let (_, dual) = lp.scan_dual().unwrap();
        assert!(lp.certify(&x, &dual));
        assert!(!lp.certify(&moved, &dual));
        // A larger T stays primal feasible but no longer meets the dual bound.
        let looser = Vertex { t: &x.t + &Rational::one(), ..x };
        assert!(!lp.certify(&looser, &dual));
    }
}
