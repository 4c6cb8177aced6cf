//! Degraded-grid sweep: what failures cost on the paper's Table-1
//! platform (`docs/robustness.md`).
//!
//! Each scenario injects one deterministic fault plan into the balanced
//! scatter and runs it twice through the fault-tolerant simulator:
//! fault-**oblivious** (degraded — the static plan's fate) and
//! **recovered** (timeout/retry/re-plan). The row records what the
//! degraded run silently loses and what the recovery costs in makespan
//! over the fault-free baseline — the robustness analogue of the §5.2
//! model-vs-reality check.

use gs_gridsim::fault::{simulate_scatter_ft, FtScatterSim};
use gs_scatter::cost::{Platform, Processor};
use gs_scatter::fault::{FaultPlan, RecoveryConfig};
use gs_scatter::obs::IncidentKind;
use gs_scatter::paper::table1_platform;
use gs_scatter::planner::Planner;

/// One sweep scenario: a fault plan run in both modes.
#[derive(Debug, Clone)]
pub struct FaultSweepRow {
    /// Human-readable scenario id (also the `--faults` spec where one
    /// exists).
    pub scenario: String,
    /// Fault-free makespan of the same plan, seconds.
    pub clean_makespan: f64,
    /// Makespan of the fault-oblivious run, seconds.
    pub degraded_makespan: f64,
    /// Items the degraded run silently never computes.
    pub degraded_lost: u64,
    /// Makespan of the timeout/retry/re-plan run, seconds.
    pub recovered_makespan: f64,
    /// `recovered / clean − 1`, as a percentage.
    pub overhead_pct: f64,
    /// Incident counts of the recovered run: failures, retries,
    /// re-plans.
    pub faults: usize,
    /// Retry incidents of the recovered run.
    pub retries: usize,
    /// Re-plan incidents of the recovered run.
    pub replans: usize,
}

fn count(ft: &FtScatterSim, kind: IncidentKind) -> usize {
    ft.incidents.iter().filter(|i| i.kind == kind).count()
}

/// Runs one fault plan in both modes and assembles the row.
fn run_scenario(
    scenario: &str,
    view: &[&Processor],
    counts: &[usize],
    faults: &FaultPlan,
    clean: f64,
) -> FaultSweepRow {
    let degraded = simulate_scatter_ft(view, counts, faults, None)
        .expect("degraded run completes");
    let rc = RecoveryConfig::default();
    let recovered = simulate_scatter_ft(view, counts, faults, Some(&rc))
        .expect("recovered run completes");
    assert_eq!(recovered.lost_items, 0, "recovery computes everything");
    FaultSweepRow {
        scenario: scenario.to_string(),
        clean_makespan: clean,
        degraded_makespan: degraded.makespan,
        degraded_lost: degraded.lost_items,
        recovered_makespan: recovered.makespan,
        overhead_pct: (recovered.makespan / clean - 1.0) * 100.0,
        faults: count(&recovered, IncidentKind::Fault),
        retries: count(&recovered, IncidentKind::Retry),
        replans: count(&recovered, IncidentKind::Replan),
    }
}

/// The sweep: single crashes across the scatter order (first-served,
/// mid, last-served non-root — each mid-way through its own transfer),
/// a transient drop, a degraded and a severed link, a CPU slowdown,
/// and `seeds` pseudo-random fault mixes, all on the Table-1 grid with
/// `n` items.
pub fn fault_sweep(n: usize, seeds: &[u64]) -> (Platform, Vec<FaultSweepRow>) {
    let platform = table1_platform();
    let plan = Planner::new(platform.clone())
        .plan(n)
        .expect("Table-1 platform plans cleanly");
    let view = platform.ordered(&plan.order);
    let counts = plan.counts_in_order();
    let names: Vec<&str> = view.iter().map(|p| p.name.as_str()).collect();
    let p = view.len();

    let clean = simulate_scatter_ft(&view, &counts, &FaultPlan::none(), None)
        .expect("fault-free run completes")
        .makespan;

    // Absolute start time of rank r's transfer in the fault-free run.
    let send_start = |r: usize| -> f64 {
        (0..r).map(|i| view[i].comm.eval(counts[i])).sum()
    };

    let mut rows = Vec::new();
    let spec = |s: &str| {
        FaultPlan::parse(s, &names, clean).expect("sweep specs parse")
    };

    // Crashes across the scatter order, each mid-own-transfer: the
    // first-served rank carries the biggest early block; the last
    // non-root rank fails when almost everything is already out.
    for &r in &[0, p / 2, p - 2] {
        let at = send_start(r) + view[r].comm.eval(counts[r]) * 0.5;
        let scenario = format!("crash:{r}@{at:.6}");
        rows.push(run_scenario(&scenario, &view, &counts, &spec(&scenario), clean));
    }
    // A transient drop on the first-served rank: retries absorb it, no
    // re-plan needed.
    rows.push(run_scenario("flaky:0:1", &view, &counts, &spec("flaky:0:1"), clean));
    // A degraded link (2× nominal stays under the κ = 3 timeout) and a
    // severed one (8× nominal times out every attempt).
    rows.push(run_scenario("link:0:2", &view, &counts, &spec("link:0:2"), clean));
    rows.push(run_scenario("link:0:8", &view, &counts, &spec("link:0:8"), clean));
    // A 2× CPU slowdown landing mid-run on the first-served rank — the
    // paper's "peak load on sekhmet" (Fig. 4) as a fault.
    rows.push(run_scenario("slow:0:2@50%", &view, &counts, &spec("slow:0:2@50%"), clean));
    // Seeded random fault mixes.
    for &seed in seeds {
        let faults = FaultPlan::seeded(seed, p, clean);
        rows.push(run_scenario(&format!("seed:{seed}"), &view, &counts, &faults, clean));
    }
    (platform, rows)
}

/// Times the residual exact-DP re-plan after losing the first-served
/// worker, cold (fresh planner, no cache: a banded solve, how
/// `scatter_schedule` re-plans) vs warm (warm-started from a `PlanCache`
/// primed by the original plan, what `replan_residual_with` does when
/// handed that cache; the primed plane is banded at the single-crash
/// bound, so the re-plan computes only its top cell). Dropping the
/// first-served worker leaves the whole remaining scatter order as a
/// suffix of the primed plane — the best case for column reuse, and the
/// common one: the rank currently receiving data is the one whose crash
/// forces a re-plan.
///
/// Both plans are asserted bit-identical before the times are returned
/// as `(cold_secs, warm_secs)`.
pub fn replan_timing(n: usize) -> (f64, f64) {
    use gs_scatter::planner::{PlanCache, Strategy};
    use std::sync::Arc;
    use std::time::Instant;

    let platform = table1_platform();
    let cache = Arc::new(PlanCache::new());
    let full = Planner::new(platform.clone())
        .strategy(Strategy::Exact)
        .plan_cache(Arc::clone(&cache))
        .plan(n)
        .expect("Table-1 platform plans cleanly");
    let victim = full.order[0];
    assert_ne!(victim, platform.root(), "the root is never first-served");
    let root_name = platform.procs()[platform.root()].name.clone();
    let survivors: Vec<Processor> = platform
        .procs()
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != victim)
        .map(|(_, pr)| pr.clone())
        .collect();
    let root = survivors.iter().position(|p| p.name == root_name).expect("root survives");
    let surv = Platform::new(survivors, root).expect("survivor platform is valid");
    // The victim's own block is lost mid-transfer: re-plan it plus
    // everything not yet sent (here: all of it, the worst case).
    let residual = n;

    let t = Instant::now();
    let cold = Planner::new(surv.clone())
        .strategy(Strategy::Exact)
        .plan(residual)
        .expect("cold re-plan");
    let cold_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = Planner::new(surv)
        .strategy(Strategy::Exact)
        .plan_cache(Arc::clone(&cache))
        .plan(residual)
        .expect("warm re-plan");
    let warm_secs = t.elapsed().as_secs_f64();
    assert_eq!(warm.counts, cold.counts, "warm-start changed the plan");
    assert_eq!(
        warm.predicted_makespan.to_bits(),
        cold.predicted_makespan.to_bits(),
        "warm-start changed the makespan"
    );
    (cold_secs, warm_secs)
}

/// Machine-readable export (`BENCH_faults.json`), mirroring the
/// `BENCH_dp.json` conventions so the robustness story is comparable
/// PR-over-PR. `replan` carries the optional
/// [`replan_timing`] measurement as top-level
/// `replan_cold_secs`/`replan_warm_secs` fields (wall times, not gated
/// by `bench_gate`, which only compares `rows`).
pub fn fault_sweep_json(n: usize, rows: &[FaultSweepRow], replan: Option<(f64, f64)>) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fault_sweep\",\n  \"schema\": 1,\n");
    out.push_str(&format!("  \"n\": {n},\n"));
    if let Some((cold, warm)) = replan {
        out.push_str(&format!(
            "  \"replan_cold_secs\": {cold:.6}, \"replan_warm_secs\": {warm:.6},\n"
        ));
    }
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"clean_makespan\": {:.6}, \
             \"degraded_makespan\": {:.6}, \"degraded_lost\": {}, \
             \"recovered_makespan\": {:.6}, \"overhead_pct\": {:.3}, \
             \"faults\": {}, \"retries\": {}, \"replans\": {}}}{}\n",
            r.scenario,
            r.clean_makespan,
            r.degraded_makespan,
            r.degraded_lost,
            r.recovered_makespan,
            r.overhead_pct,
            r.faults,
            r.retries,
            r.replans,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_hold_at_small_scale() {
        let (_, rows) = fault_sweep(2_000, &[7]);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.recovered_makespan >= r.clean_makespan - 1e-9, "{}", r.scenario);
            assert!(r.overhead_pct >= -1e-9, "{}", r.scenario);
        }
        // A crash always costs the degraded run items and the recovered
        // run time; a transient drop is absorbed by retries alone.
        let crash = &rows[0];
        assert!(crash.degraded_lost > 0, "crash loses items when ignored");
        assert!(crash.replans >= 1, "crash triggers a re-plan");
        let flaky = rows.iter().find(|r| r.scenario == "flaky:0:1").unwrap();
        assert!(flaky.degraded_lost > 0, "one-shot send loses the block");
        assert_eq!(flaky.replans, 0, "retries absorb a transient drop");
        assert!(flaky.retries >= 1);
        // A mildly degraded link stays under the timeout: no incidents
        // beyond the stretched transfer, nothing lost.
        let link2 = rows.iter().find(|r| r.scenario == "link:0:2").unwrap();
        assert_eq!(link2.degraded_lost, 0);
        assert_eq!(link2.faults, 0);
        // A severed link is indistinguishable from a crash: re-planned.
        let link8 = rows.iter().find(|r| r.scenario == "link:0:8").unwrap();
        assert!(link8.replans >= 1);
        let json = fault_sweep_json(2_000, &rows, None);
        assert!(json.contains("\"bench\": \"fault_sweep\""));
        assert!(json.contains("\"scenario\": \"flaky:0:1\""));
    }
}
