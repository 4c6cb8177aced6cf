//! Multi-round planning for iterative SPMD codes.
//!
//! The paper plans one scatter. Real tomography codes iterate: trace,
//! update the model, re-scatter (§2.1's "new velocity model" step). This
//! module plans a *sequence* of scatter+compute rounds, optionally
//! re-querying the platform before each round — the monitoring-daemon
//! usage §3 sketches ("a monitor daemon process (like \[NWS\]) running aside
//! the application could be queried just before a scatter operation to
//! retrieve the instantaneous grid characteristics").

use crate::cost::Platform;
use crate::error::PlanError;
use crate::planner::{Plan, Planner};

/// A planned sequence of rounds.
#[derive(Debug, Clone)]
pub struct MultiRoundPlan {
    /// One plan per round.
    pub rounds: Vec<Plan>,
    /// Predicted completion time of each round (cumulative): round `k`
    /// starts when round `k-1` is fully finished — the paper's
    /// no-overlap communication structure.
    pub round_ends: Vec<f64>,
}

impl MultiRoundPlan {
    /// Predicted total duration of all rounds.
    pub fn predicted_total(&self) -> f64 {
        self.round_ends.last().copied().unwrap_or(0.0)
    }
}

/// Plans `round_sizes.len()` rounds on a fixed platform, reusing the same
/// planner configuration for each.
///
/// ```
/// use gs_scatter::cost::{Platform, Processor};
/// use gs_scatter::multiround::plan_rounds;
/// use gs_scatter::planner::Planner;
///
/// let platform = Platform::new(vec![
///     Processor::linear("root", 0.0, 0.01),
///     Processor::linear("w", 1e-4, 0.004),
/// ], 0).unwrap();
/// let mp = plan_rounds(&Planner::new(platform), &[1000, 2000]).unwrap();
/// assert_eq!(mp.rounds.len(), 2);
/// assert!(mp.predicted_total() > 0.0);
/// ```
pub fn plan_rounds(planner: &Planner, round_sizes: &[usize]) -> Result<MultiRoundPlan, PlanError> {
    plan_rounds_with(round_sizes, |_round, _start| Ok(planner.clone()))
}

/// Plans rounds with a fresh planner per round: `make_planner(round,
/// predicted_start_time)` may rebuild the platform from a monitor's
/// instantaneous rates (adaptive re-balancing).
pub fn plan_rounds_with(
    round_sizes: &[usize],
    mut make_planner: impl FnMut(usize, f64) -> Result<Planner, PlanError>,
) -> Result<MultiRoundPlan, PlanError> {
    let mut rounds = Vec::with_capacity(round_sizes.len());
    let mut round_ends = Vec::with_capacity(round_sizes.len());
    let mut clock = 0.0f64;
    for (k, &n) in round_sizes.iter().enumerate() {
        let planner = make_planner(k, clock)?;
        let plan = planner.plan(n)?;
        clock += plan.predicted_makespan;
        round_ends.push(clock);
        rounds.push(plan);
    }
    Ok(MultiRoundPlan { rounds, round_ends })
}

/// Convenience: plans `rounds` identical rounds of `n` items and reuses
/// the first plan (static platforms make re-solving pointless). Returns
/// the single plan plus the predicted total.
pub fn plan_identical_rounds(
    planner: &Planner,
    n: usize,
    rounds: usize,
) -> Result<(Plan, f64), PlanError> {
    let plan = planner.plan(n)?;
    let total = plan.predicted_makespan * rounds as f64;
    Ok((plan, total))
}

/// Re-plans a platform whose processor compute rates are scaled by
/// instantaneous load factors (`>= 1` = slowed down), as reported by a
/// monitor. Returns a platform with adjusted compute costs.
pub fn platform_under_load(
    platform: &Platform,
    load_factors: &[f64],
) -> Result<Platform, PlanError> {
    if load_factors.len() != platform.len() {
        return Err(PlanError::InvalidPlatform(format!(
            "need one load factor per processor ({} != {})",
            load_factors.len(),
            platform.len()
        )));
    }
    if let Some(f) = load_factors.iter().find(|f| !(f.is_finite() && **f > 0.0)) {
        return Err(PlanError::InvalidPlatform(format!("invalid load factor {f}")));
    }
    let procs = platform
        .procs()
        .iter()
        .zip(load_factors)
        .map(|(p, &f)| {
            let mut p = p.clone();
            p.comp = p.comp.scaled(f);
            p
        })
        .collect();
    Platform::new(procs, platform.root())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Processor;
    use crate::planner::Strategy;

    fn platform() -> Platform {
        Platform::new(
            vec![
                Processor::linear("root", 0.0, 0.01),
                Processor::linear("w1", 1e-4, 0.004),
                Processor::linear("w2", 2e-4, 0.016),
            ],
            0,
        )
        .unwrap()
    }

    #[test]
    fn rounds_accumulate() {
        let planner = Planner::new(platform()).strategy(Strategy::Heuristic);
        let mp = plan_rounds(&planner, &[1000, 2000, 500]).unwrap();
        assert_eq!(mp.rounds.len(), 3);
        assert!(mp.round_ends.windows(2).all(|w| w[1] > w[0]));
        let sum: f64 = mp.rounds.iter().map(|p| p.predicted_makespan).sum();
        assert!((mp.predicted_total() - sum).abs() < 1e-9);
    }

    #[test]
    fn empty_rounds() {
        let planner = Planner::new(platform());
        let mp = plan_rounds(&planner, &[]).unwrap();
        assert_eq!(mp.predicted_total(), 0.0);
    }

    #[test]
    fn identical_rounds_shortcut() {
        let planner = Planner::new(platform()).strategy(Strategy::ClosedForm);
        let (plan, total) = plan_identical_rounds(&planner, 1000, 4).unwrap();
        assert!((total - 4.0 * plan.predicted_makespan).abs() < 1e-12);
    }

    #[test]
    fn adaptive_replanning_shifts_work() {
        // Round 1: w1 unloaded. Round 2: w1 slowed 4x; the adaptive plan
        // must give it less work.
        let base = platform();
        let mp = plan_rounds_with(&[10_000, 10_000], |round, _start| {
            let factors = if round == 0 { vec![1.0, 1.0, 1.0] } else { vec![1.0, 4.0, 1.0] };
            Ok(Planner::new(platform_under_load(&base, &factors)?).strategy(Strategy::Heuristic))
        })
        .unwrap();
        assert!(
            mp.rounds[1].counts[1] < mp.rounds[0].counts[1],
            "loaded machine must receive less: {:?} vs {:?}",
            mp.rounds[1].counts,
            mp.rounds[0].counts
        );
    }

    #[test]
    fn adaptive_beats_static_under_load() {
        // Predicted totals: re-planning under load beats keeping the
        // unloaded plan (evaluated on the loaded platform).
        let base = platform();
        let loaded = platform_under_load(&base, &[1.0, 3.0, 1.0]).unwrap();
        let static_plan = Planner::new(base).strategy(Strategy::Heuristic).plan(10_000).unwrap();
        // Evaluate the static counts on the loaded platform.
        let view = loaded.ordered(&static_plan.order);
        let static_on_loaded = crate::distribution::makespan(&view, &static_plan.counts_in_order());
        let adaptive = Planner::new(loaded).strategy(Strategy::Heuristic).plan(10_000).unwrap();
        assert!(adaptive.predicted_makespan < static_on_loaded);
    }

    #[test]
    fn rejects_bad_factors() {
        assert!(platform_under_load(&platform(), &[1.0]).is_err());
        for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            let err = platform_under_load(&platform(), &[1.0, bad, 1.0]).unwrap_err();
            assert!(
                matches!(&err, PlanError::InvalidPlatform(m) if m.contains("invalid load factor")),
                "{err:?}"
            );
        }
    }
}
