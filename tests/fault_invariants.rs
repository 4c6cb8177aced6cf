//! Invariants of the fault-tolerant scatter (`docs/robustness.md`),
//! property-tested over seeded fault plans on random platforms:
//!
//! * **recovered mode** — for any [`FaultPlan`] whose root survives
//!   (the root cannot fault by construction), every item is computed
//!   exactly once, bytes are conserved, and each re-plan the runtime
//!   performed matches a from-scratch optimal plan of the residual
//!   instance over the survivors;
//! * **degraded mode** — lost + computed items account for every item,
//!   and the delivered ranges still tile without overlap;
//! * the executed (gs-minimpi) run agrees with the simulator **bit for
//!   bit**, because both drive the same fault oracle.

use grid_scatter::gridsim::fault::{simulate_scatter_ft, FtScatterSim};
use grid_scatter::minimpi::{executed_trace, run_world, FtConfig, WorldConfig};
use grid_scatter::scatter::cost::{Platform, Processor};
use grid_scatter::scatter::fault::{replan_residual, FaultPlan, RecoveryConfig};
use grid_scatter::scatter::ordering::OrderPolicy;
use grid_scatter::scatter::planner::{Planner, Strategy};
use proptest::prelude::*;

const ITEM_BYTES: u64 = 8;

/// A platform of `p` processors in scatter order (root last, free
/// self-link), with heterogeneity drawn from the given knobs.
fn make_procs(p: usize, betas: &[f64], alphas: &[f64]) -> Vec<Processor> {
    (0..p)
        .map(|i| {
            if i == p - 1 {
                Processor::linear("root", 0.0, alphas[i])
            } else {
                Processor::linear(format!("w{i}"), betas[i], alphas[i])
            }
        })
        .collect()
}

/// The delivered ranges of every rank, checked pairwise disjoint, as a
/// sorted list.
fn sorted_disjoint_ranges(ft: &FtScatterSim) -> Vec<(u64, u64)> {
    let mut ranges: Vec<(u64, u64)> = ft
        .assignments
        .iter()
        .flatten()
        .copied()
        .filter(|&(lo, hi)| lo < hi)
        .collect();
    ranges.sort_unstable();
    for w in ranges.windows(2) {
        assert!(w[0].1 <= w[1].0, "overlapping deliveries: {:?} vs {:?}", w[0], w[1]);
    }
    ranges
}

/// Recovered-mode contract: `[0, n)` is tiled exactly once, nothing is
/// lost, bytes are conserved, and every re-plan was optimal for its
/// residual instance.
fn assert_recovered_invariants(ft: &FtScatterSim, procs: &[Processor], n: u64) {
    assert_eq!(ft.lost_items, 0, "recovered mode loses nothing");
    assert_eq!(ft.computed_items, n, "every item computed");
    let ranges = sorted_disjoint_ranges(ft);
    let mut next = 0u64;
    for &(lo, hi) in &ranges {
        assert_eq!(lo, next, "gap before item {lo}");
        next = hi;
    }
    assert_eq!(next, n, "items {next}..{n} never delivered");

    // Byte conservation through the trace: Σ link bytes = n × item size.
    let names: Vec<&str> = procs.iter().map(|p| p.name.as_str()).collect();
    let trace = ft.trace(&names, ITEM_BYTES);
    trace.validate().expect("recovered trace validates");
    let summary = trace.summarize().expect("recovered trace summarizes");
    assert_eq!(summary.total_bytes, n * ITEM_BYTES, "bytes conserved");

    // Each re-plan the runtime performed equals a from-scratch optimal
    // plan of (residual items, survivors) — recomputed independently
    // here via the public planner on the survivor sub-platform.
    for r in &ft.replans {
        let survivors: Vec<Processor> =
            r.survivors.iter().map(|&s| procs[s].clone()).collect();
        let sub = Platform::new(survivors, r.survivors.len() - 1).unwrap();
        let plan = Planner::new(sub)
            .strategy(Strategy::Exact)
            .order_policy(OrderPolicy::AsIs)
            .plan(r.items as usize)
            .expect("from-scratch plan of the residual instance");
        assert_eq!(
            plan.counts_in_order(),
            r.counts.iter().map(|&c| c as usize).collect::<Vec<_>>(),
            "re-plan at t={} is the optimal residual distribution",
            r.t
        );
        // And the library helper agrees with itself.
        let view: Vec<&Processor> = procs.iter().collect();
        let mut alive = vec![false; procs.len()];
        for &s in &r.survivors {
            alive[s] = true;
        }
        let rp = replan_residual(&view, &alive, r.items, Strategy::Exact).unwrap();
        assert_eq!(rp.counts, r.counts);
    }
}

/// Degraded-mode contract: no double delivery, and the loss accounting
/// is exact.
fn assert_degraded_invariants(ft: &FtScatterSim, n: u64) {
    let delivered: u64 = sorted_disjoint_ranges(ft).iter().map(|&(lo, hi)| hi - lo).sum();
    assert_eq!(delivered, ft.computed_items);
    assert_eq!(
        ft.computed_items + ft.lost_items,
        n,
        "lost + computed accounts for every item"
    );
    assert!(ft.replans.is_empty(), "degraded mode never re-plans");
}

/// Runs the same instance through the gs-minimpi fault-tolerant
/// runtime and returns its executed trace.
fn run_executed(
    procs: &[Processor],
    counts: &[usize],
    faults: &FaultPlan,
    recovery: Option<RecoveryConfig>,
) -> grid_scatter::scatter::obs::Trace {
    let p = procs.len();
    let config = FtConfig {
        faults: faults.clone(),
        recovery,
        procs: procs.to_vec(),
        item_bytes: ITEM_BYTES,
    };
    let recovered = config.recovery.is_some();
    let counts = counts.to_vec();
    let total: usize = counts.iter().sum();
    let out = run_world(p, WorldConfig::default(), move |c| {
        c.enable_tracing();
        let data: Vec<u64> = (0..total as u64).collect();
        let mine = c.scatterv_ft(
            &config,
            if c.rank() == p - 1 { Some(&data) } else { None },
            &counts,
        );
        c.model_compute_ft(&config, mine.len());
        (mine, c.take_trace(), c.take_incidents())
    });
    // Cross-check the physical payloads: items received across ranks
    // are pairwise distinct (the exactly-once property holds for the
    // real bytes, not just the bookkeeping).
    let mut all: Vec<u64> = out.iter().flat_map(|(m, _, _)| m.iter().copied()).collect();
    all.sort_unstable();
    for w in all.windows(2) {
        assert!(w[0] < w[1], "item {} delivered twice", w[0]);
    }
    let names: Vec<&str> = procs.iter().map(|p| p.name.as_str()).collect();
    let records: Vec<_> = out.iter().map(|(_, r, _)| r.clone()).collect();
    let mut trace = executed_trace(&names, ITEM_BYTES, &records);
    trace.label = Some(if recovered { "recovered" } else { "degraded" }.to_string());
    trace.incidents = out[p - 1].2.clone();
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The headline property: any seeded fault plan, recovered mode —
    /// exactly-once delivery, byte conservation, optimal re-plans.
    #[test]
    fn recovered_scatter_computes_everything_exactly_once(
        p in 2usize..7,
        n in 50usize..800,
        seed in any::<u64>(),
        knobs in proptest::collection::vec((1e-5f64..1e-3, 1e-3f64..0.02), 7),
    ) {
        let betas: Vec<f64> = knobs.iter().map(|k| k.0).collect();
        let alphas: Vec<f64> = knobs.iter().map(|k| k.1).collect();
        let procs = make_procs(p, &betas, &alphas);
        let view: Vec<&Processor> = procs.iter().collect();
        let counts = vec![n / p + 1; p]; // any positive layout works
        let total: u64 = counts.iter().map(|&c| c as u64).sum();

        // Horizon: the fault-free makespan of this layout.
        let clean = simulate_scatter_ft(&view, &counts, &FaultPlan::none(), None).unwrap();
        let faults = FaultPlan::seeded(seed, p, clean.makespan);

        let rc = RecoveryConfig::default();
        let ft = simulate_scatter_ft(&view, &counts, &faults, Some(&rc)).unwrap();
        assert_recovered_invariants(&ft, &procs, total);
    }

    /// Degraded mode: the loss is accounted item by item.
    #[test]
    fn degraded_scatter_accounts_for_every_item(
        p in 2usize..7,
        n in 50usize..800,
        seed in any::<u64>(),
    ) {
        let betas = vec![1e-4; 7];
        let alphas = vec![5e-3; 7];
        let procs = make_procs(p, &betas, &alphas);
        let view: Vec<&Processor> = procs.iter().collect();
        let counts = vec![n / p + 1; p];
        let total: u64 = counts.iter().map(|&c| c as u64).sum();

        let clean = simulate_scatter_ft(&view, &counts, &FaultPlan::none(), None).unwrap();
        let faults = FaultPlan::seeded(seed, p, clean.makespan);
        let ft = simulate_scatter_ft(&view, &counts, &faults, None).unwrap();
        assert_degraded_invariants(&ft, total);
    }

    /// Simulated and executed runs share the fault oracle: identical
    /// label, incidents, makespan and per-rank schedule — on seeded
    /// plans, both modes.
    #[test]
    fn executed_run_agrees_with_simulator(
        p in 2usize..5,
        seed in any::<u64>(),
        degraded in any::<bool>(),
    ) {
        let betas = vec![2e-4, 5e-4, 1e-4, 3e-4, 0.0];
        let alphas = vec![4e-3, 2e-3, 8e-3, 3e-3, 5e-3];
        let procs = make_procs(p, &betas, &alphas);
        let view: Vec<&Processor> = procs.iter().collect();
        let counts = vec![40usize; p];

        let clean = simulate_scatter_ft(&view, &counts, &FaultPlan::none(), None).unwrap();
        let faults = FaultPlan::seeded(seed, p, clean.makespan);
        let recovery = if degraded { None } else { Some(RecoveryConfig::default()) };

        let sim = simulate_scatter_ft(&view, &counts, &faults, recovery.as_ref()).unwrap();
        let names: Vec<&str> = procs.iter().map(|p| p.name.as_str()).collect();
        let sim_trace = sim.trace(&names, ITEM_BYTES);
        let exec_trace = run_executed(&procs, &counts, &faults, recovery);

        prop_assert_eq!(&exec_trace.label, &sim_trace.label);
        prop_assert_eq!(&exec_trace.incidents, &sim_trace.incidents);
        let (se, ss) = (
            exec_trace.summarize().unwrap(),
            sim_trace.summarize().unwrap(),
        );
        prop_assert_eq!(se.makespan, ss.makespan);
        prop_assert_eq!(se.total_bytes, ss.total_bytes);
        for (re, rs) in se.ranks.iter().zip(&ss.ranks) {
            prop_assert_eq!(re.send, rs.send, "send of {}", rs.name);
            prop_assert_eq!(re.compute, rs.compute, "compute of {}", rs.name);
            prop_assert_eq!(re.finish, rs.finish, "finish of {}", rs.name);
            prop_assert_eq!(re.bytes_in, rs.bytes_in, "bytes of {}", rs.name);
        }
    }
}

/// The ISSUE acceptance scenario on the paper's testbed: the *fastest*
/// non-root rank (first served, biggest early block) crashes
/// mid-scatter; the recovered run still computes all items.
#[test]
fn table1_fastest_rank_crash_recovers() {
    let platform = grid_scatter::scatter::paper::table1_platform();
    let plan = Planner::new(platform.clone())
        .strategy(Strategy::Heuristic)
        .plan(20_000)
        .unwrap();
    let view = platform.ordered(&plan.order);
    let counts = plan.counts_in_order();
    let names: Vec<&str> = view.iter().map(|p| p.name.as_str()).collect();

    // Crash the first-served (fastest-link) rank mid-scatter: half-way
    // through its own (first) transfer, so the send itself is refused.
    let mid_transfer = view[0].comm.eval(counts[0]) * 0.5;
    let spec = format!("crash:{}@{}", names[0], mid_transfer);
    let faults = FaultPlan::parse(&spec, &names, plan.predicted_makespan).unwrap();

    let rc = RecoveryConfig::default();
    let ft = simulate_scatter_ft(&view, &counts, &faults, Some(&rc)).unwrap();
    let procs: Vec<Processor> = view.iter().map(|&p| p.clone()).collect();
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    assert_recovered_invariants(&ft, &procs, total);
    assert!(ft.dead[0], "the crashed rank is declared dead");
    assert!(!ft.replans.is_empty(), "its share was re-planned");
    assert!(
        ft.makespan > plan.predicted_makespan,
        "recovery costs time: {} vs predicted {}",
        ft.makespan,
        plan.predicted_makespan
    );
}
