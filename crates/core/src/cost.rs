//! Cost functions and platform descriptions.
//!
//! A processor `P_i` is characterized (RR-4770 §3.1) by
//! * `Tcomm(i, x)` — time for the root to send it `x` data items, and
//! * `Tcomp(i, x)` — time for it to compute on `x` items.
//!
//! The algorithms put increasingly strong requirements on these functions:
//! Algorithm 1 needs them non-negative, Algorithm 2 non-decreasing, the LP
//! heuristic affine, and the closed form linear. [`CostFn`] models all four
//! regimes plus measured (tabulated) functions.

use std::fmt;
use std::sync::Arc;

use crate::error::PlanError;

/// Time, in seconds, for a given number of items.
///
/// All variants must return non-negative finite values for any item count.
#[derive(Clone)]
pub enum CostFn {
    /// Identically zero (e.g. the root "sending" to itself).
    Zero,
    /// `slope * x` — the model of the paper's §4 case study and Table 1.
    Linear {
        /// Seconds per item.
        slope: f64,
    },
    /// `intercept + slope * x` — the model of the guaranteed heuristic
    /// (§3.3). Note `Affine.eval(0) == intercept`: the model charges the
    /// fixed part even for empty blocks, exactly as Eq. (1) is written.
    Affine {
        /// Fixed seconds (latency / startup).
        intercept: f64,
        /// Seconds per item.
        slope: f64,
    },
    /// Piecewise-linear interpolation of measured `(items, seconds)`
    /// samples, extrapolating the last segment. Samples must be sorted by
    /// item count. This is the "benchmark-driven" general case usable with
    /// the dynamic programs.
    Table {
        /// Measured samples, sorted by item count, at least one.
        points: Arc<[(usize, f64)]>,
    },
    /// Arbitrary user function. Usable with Algorithm 1 (and Algorithm 2
    /// if non-decreasing).
    Custom(Arc<dyn Fn(usize) -> f64 + Send + Sync>),
}

impl CostFn {
    /// Builds a tabulated cost function from measured samples.
    ///
    /// # Panics
    /// Panics if `points` is empty or not sorted by item count.
    pub fn table(points: Vec<(usize, f64)>) -> Self {
        assert!(!points.is_empty(), "tabulated cost needs at least one sample");
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "tabulated cost samples must be strictly sorted by item count"
        );
        CostFn::Table { points: points.into() }
    }

    /// Evaluates the cost of `x` items, in seconds.
    pub fn eval(&self, x: usize) -> f64 {
        match self {
            CostFn::Zero => 0.0,
            CostFn::Linear { slope } => slope * x as f64,
            CostFn::Affine { intercept, slope } => intercept + slope * x as f64,
            CostFn::Table { points } => eval_table(points, x),
            CostFn::Custom(f) => f(x),
        }
    }

    /// Returns `(intercept, slope)` if the function is affine
    /// (`Zero` and `Linear` are affine with zero intercept).
    pub fn affine_params(&self) -> Option<(f64, f64)> {
        match self {
            CostFn::Zero => Some((0.0, 0.0)),
            CostFn::Linear { slope } => Some((0.0, *slope)),
            CostFn::Affine { intercept, slope } => Some((*intercept, *slope)),
            _ => None,
        }
    }

    /// Returns the slope if the function is linear (zero intercept).
    pub fn linear_slope(&self) -> Option<f64> {
        match self.affine_params() {
            Some((intercept, s)) => (intercept == 0.0).then_some(s),
            None => None,
        }
    }

    /// Effective marginal per-item cost, used to rank processors by
    /// bandwidth when the function is not linear: the secant slope over
    /// `[1, ref_items]`.
    pub fn effective_slope(&self, ref_items: usize) -> f64 {
        match self.affine_params() {
            Some((_, s)) => s,
            None => {
                let hi = ref_items.max(2);
                (self.eval(hi) - self.eval(1)) / (hi - 1) as f64
            }
        }
    }

    /// The function scaled by the constant factor `k`, keeping its variant
    /// (so linearity/affinity — and with them the fast strategies —
    /// survive the scaling).
    pub fn scaled(&self, k: f64) -> CostFn {
        match self {
            CostFn::Zero => CostFn::Zero, // k · 0 = 0
            CostFn::Linear { slope } => CostFn::Linear { slope: slope * k },
            CostFn::Affine { intercept, slope } => {
                CostFn::Affine { intercept: intercept * k, slope: slope * k }
            }
            CostFn::Table { points } => {
                CostFn::table(points.iter().map(|&(x, y)| (x, y * k)).collect())
            }
            CostFn::Custom(f) => {
                let f = f.clone();
                CostFn::Custom(Arc::new(move |x| f(x) * k))
            }
        }
    }

    /// Cheap sanity check that the function is non-decreasing over a probe
    /// grid up to `n`. A `false` result is definitive; `true` is only
    /// evidence (the probe is sampled).
    pub fn probably_increasing(&self, n: usize) -> bool {
        match self {
            CostFn::Zero => true,
            CostFn::Linear { slope } => *slope >= 0.0,
            CostFn::Affine { slope, .. } => *slope >= 0.0,
            CostFn::Table { points } => points.windows(2).all(|w| w[0].1 <= w[1].1),
            CostFn::Custom(_) => {
                let mut prev = self.eval(0);
                let step = (n / 64).max(1);
                let mut x = 0;
                while x <= n {
                    let v = self.eval(x);
                    if v < prev {
                        return false;
                    }
                    prev = v;
                    x += step;
                }
                true
            }
        }
    }
}

fn eval_table(points: &[(usize, f64)], x: usize) -> f64 {
    let interp = |(x0, y0): (usize, f64), (x1, y1): (usize, f64), x: usize| -> f64 {
        let t = (x as f64 - x0 as f64) / (x1 as f64 - x0 as f64);
        y0 + t * (y1 - y0)
    };
    match points {
        [] => unreachable!("constructor enforces non-empty"),
        [only] => {
            // Single sample: scale proportionally through the origin.
            if only.0 == 0 {
                only.1
            } else {
                only.1 * x as f64 / only.0 as f64
            }
        }
        _ => {
            if x <= points[0].0 {
                // Interpolate between the origin and the first sample
                // (costs are null at 0 unless a sample says otherwise).
                if points[0].0 == 0 {
                    return points[0].1;
                }
                return interp((0, 0.0), points[0], x);
            }
            for w in points.windows(2) {
                if x <= w[1].0 {
                    return interp(w[0], w[1], x);
                }
            }
            // Extrapolate the last segment.
            let n = points.len();
            interp(points[n - 2], points[n - 1], x)
        }
    }
}

impl fmt::Debug for CostFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostFn::Zero => f.write_str("Zero"),
            CostFn::Linear { slope } => write!(f, "Linear({slope}/item)"),
            CostFn::Affine { intercept, slope } => {
                write!(f, "Affine({intercept} + {slope}/item)")
            }
            CostFn::Table { points } => write!(f, "Table({} samples)", points.len()),
            CostFn::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// One processor of the grid: a name plus its two cost functions.
#[derive(Debug, Clone)]
pub struct Processor {
    /// Human-readable machine name (Table-1 style).
    pub name: String,
    /// `Tcomm(i, x)`: root → this processor transfer time.
    pub comm: CostFn,
    /// `Tcomp(i, x)`: compute time on this processor.
    pub comp: CostFn,
}

impl Processor {
    /// A processor with linear costs: `Tcomm = beta·x`, `Tcomp = alpha·x`
    /// (β = s/item over the link, α = s/item of compute — the columns of
    /// the paper's Table 1).
    pub fn linear(name: impl Into<String>, beta: f64, alpha: f64) -> Self {
        let comm = if beta == 0.0 { CostFn::Zero } else { CostFn::Linear { slope: beta } };
        Processor { name: name.into(), comm, comp: CostFn::Linear { slope: alpha } }
    }

    /// A processor with affine costs
    /// (`Tcomm = b + beta·x`, `Tcomp = a + alpha·x`).
    pub fn affine(
        name: impl Into<String>,
        comm_intercept: f64,
        beta: f64,
        comp_intercept: f64,
        alpha: f64,
    ) -> Self {
        Processor {
            name: name.into(),
            comm: CostFn::Affine { intercept: comm_intercept, slope: beta },
            comp: CostFn::Affine { intercept: comp_intercept, slope: alpha },
        }
    }

    /// A processor with arbitrary cost closures.
    pub fn custom(
        name: impl Into<String>,
        comm: impl Fn(usize) -> f64 + Send + Sync + 'static,
        comp: impl Fn(usize) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Processor {
            name: name.into(),
            comm: CostFn::Custom(Arc::new(comm)),
            comp: CostFn::Custom(Arc::new(comp)),
        }
    }

    /// Validates that both cost functions return sane values at a few probe
    /// sizes.
    pub fn validate(&self, index: usize, n: usize) -> Result<(), PlanError> {
        for x in [0usize, 1, n / 2, n] {
            for f in [&self.comm, &self.comp] {
                let v = f.eval(x);
                if !v.is_finite() || v < 0.0 {
                    return Err(PlanError::InvalidCost { proc: index, items: x, value: v });
                }
            }
        }
        Ok(())
    }
}

/// A set of processors with a designated root.
///
/// Processors are stored in an arbitrary, stable *index* order; the order in
/// which the root serves them (the *scatter order*) is a separate
/// permutation produced by [`crate::ordering::scatter_order`]. The root's
/// `comm` cost should normally be [`CostFn::Zero`] (it already holds the
/// data); the paper's model places the root last so it computes after all
/// sends complete.
#[derive(Debug, Clone)]
pub struct Platform {
    procs: Vec<Processor>,
    root: usize,
}

impl Platform {
    /// Builds a platform; `root` is an index into `procs`.
    pub fn new(procs: Vec<Processor>, root: usize) -> Result<Self, PlanError> {
        if procs.is_empty() {
            return Err(PlanError::InvalidPlatform("no processors".into()));
        }
        if root >= procs.len() {
            return Err(PlanError::InvalidPlatform(format!(
                "root index {root} out of range (p = {})",
                procs.len()
            )));
        }
        Ok(Platform { procs, root })
    }

    /// Number of processors (including the root).
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// `true` iff the platform has no processors (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// The processors, in index order.
    pub fn procs(&self) -> &[Processor] {
        &self.procs
    }

    /// Index of the root processor.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Re-designates the root (used by root selection, §3.4).
    pub fn with_root(&self, root: usize) -> Result<Self, PlanError> {
        Platform::new(self.procs.clone(), root)
    }

    /// Processors rearranged according to a scatter order (a permutation of
    /// indices, root last); panics if `order` is not such a permutation.
    pub fn ordered(&self, order: &[usize]) -> Vec<&Processor> {
        assert_eq!(order.len(), self.len(), "order must cover all processors");
        assert_eq!(*order.last().unwrap(), self.root, "root must be last in scatter order");
        let mut seen = vec![false; self.len()];
        for &i in order {
            assert!(!seen[i], "order must be a permutation");
            seen[i] = true;
        }
        order.iter().map(|&i| &self.procs[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_eval() {
        let f = CostFn::Linear { slope: 0.5 };
        assert_eq!(f.eval(0), 0.0);
        assert_eq!(f.eval(10), 5.0);
        assert_eq!(f.linear_slope(), Some(0.5));
        assert_eq!(f.affine_params(), Some((0.0, 0.5)));
    }

    #[test]
    fn scaling_keeps_the_variant_and_scales_every_value() {
        let lin = CostFn::Linear { slope: 2.0 }.scaled(3.0);
        assert_eq!(lin.linear_slope(), Some(6.0));
        assert_eq!(lin.eval(10), 60.0);
        let aff = CostFn::Affine { intercept: 1.0, slope: 2.0 }.scaled(2.0);
        assert_eq!(aff.affine_params(), Some((2.0, 4.0)));
        assert_eq!(aff.eval(10), 42.0);
        let tab = CostFn::table(vec![(0, 1.0), (10, 5.0)]).scaled(2.0);
        assert!(matches!(tab, CostFn::Table { .. }));
        assert_eq!(tab.eval(10), 10.0);
        assert_eq!(tab.eval(5), 6.0);
        let cus = CostFn::Custom(Arc::new(|x| x as f64)).scaled(5.0);
        assert!(matches!(cus, CostFn::Custom(_)));
        assert_eq!(cus.eval(3), 15.0);
        assert!(matches!(CostFn::Zero.scaled(9.0), CostFn::Zero));
    }

    #[test]
    fn affine_eval_charges_intercept_at_zero() {
        let f = CostFn::Affine { intercept: 2.0, slope: 0.5 };
        assert_eq!(f.eval(0), 2.0);
        assert_eq!(f.eval(10), 7.0);
        assert_eq!(f.linear_slope(), None);
        assert_eq!(f.affine_params(), Some((2.0, 0.5)));
    }

    #[test]
    fn zero_is_linear_and_affine() {
        assert_eq!(CostFn::Zero.eval(100), 0.0);
        assert_eq!(CostFn::Zero.linear_slope(), Some(0.0));
        assert_eq!(CostFn::Zero.affine_params(), Some((0.0, 0.0)));
    }

    #[test]
    fn table_interpolates_and_extrapolates() {
        let f = CostFn::table(vec![(10, 1.0), (20, 3.0)]);
        assert_eq!(f.eval(10), 1.0);
        assert_eq!(f.eval(20), 3.0);
        assert_eq!(f.eval(15), 2.0);
        assert_eq!(f.eval(30), 5.0); // extrapolated
        assert_eq!(f.eval(5), 0.5); // origin..first sample
        assert_eq!(f.eval(0), 0.0);
        assert_eq!(f.affine_params(), None);
    }

    #[test]
    fn table_single_point_scales() {
        let f = CostFn::table(vec![(100, 2.0)]);
        assert_eq!(f.eval(50), 1.0);
        assert_eq!(f.eval(200), 4.0);
        assert_eq!(f.eval(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn table_rejects_unsorted() {
        let _ = CostFn::table(vec![(20, 1.0), (10, 2.0)]);
    }

    #[test]
    fn custom_eval() {
        let f = CostFn::Custom(Arc::new(|x| (x as f64).sqrt()));
        assert_eq!(f.eval(16), 4.0);
        assert!(f.probably_increasing(1000));
        assert_eq!(f.affine_params(), None);
    }

    #[test]
    fn probably_increasing_detects_decrease() {
        let f = CostFn::Custom(Arc::new(|x| -(x as f64)));
        assert!(!f.probably_increasing(100));
        assert!(!CostFn::Linear { slope: -1.0 }.probably_increasing(10));
    }

    #[test]
    fn effective_slope() {
        assert_eq!(CostFn::Linear { slope: 0.25 }.effective_slope(1000), 0.25);
        let t = CostFn::table(vec![(1, 1.0), (1001, 101.0)]);
        assert!((t.effective_slope(1001) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn platform_validation() {
        assert!(Platform::new(vec![], 0).is_err());
        let p = Processor::linear("a", 0.0, 1.0);
        assert!(Platform::new(vec![p.clone()], 1).is_err());
        let plat = Platform::new(vec![p.clone(), p], 1).unwrap();
        assert_eq!(plat.len(), 2);
        assert_eq!(plat.root(), 1);
    }

    #[test]
    fn ordered_view() {
        let plat = Platform::new(
            vec![
                Processor::linear("r", 0.0, 1.0),
                Processor::linear("a", 1.0, 1.0),
                Processor::linear("b", 2.0, 1.0),
            ],
            0,
        )
        .unwrap();
        let view = plat.ordered(&[2, 1, 0]);
        assert_eq!(view[0].name, "b");
        assert_eq!(view[2].name, "r");
    }

    #[test]
    #[should_panic(expected = "root must be last")]
    fn ordered_requires_root_last() {
        let plat = Platform::new(
            vec![Processor::linear("r", 0.0, 1.0), Processor::linear("a", 1.0, 1.0)],
            0,
        )
        .unwrap();
        let _ = plat.ordered(&[0, 1]);
    }

    #[test]
    fn validate_rejects_nan() {
        let p = Processor::custom("bad", |_| f64::NAN, |x| x as f64);
        assert!(matches!(p.validate(3, 100), Err(PlanError::InvalidCost { proc: 3, .. })));
        let good = Processor::linear("ok", 1e-5, 1e-3);
        assert!(good.validate(0, 100).is_ok());
    }
}
