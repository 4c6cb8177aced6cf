//! Fault-tolerant scatter simulation: failure injection, detection by
//! timeout, bounded retry, and re-planning of undelivered items over the
//! survivors.
//!
//! Two modes, selected by the `recovery` argument of
//! [`simulate_scatter_ft`]:
//!
//! * **degraded** (`None`) — the fault-oblivious baseline: the root
//!   pushes every block exactly once and never learns about losses;
//!   lost blocks are simply never computed. This is what a stock
//!   `MPI_Scatterv` does on a faulty grid.
//! * **recovered** (`Some(config)`) — the robust protocol of
//!   `docs/robustness.md`: per-send timeouts derived from Eq. (1)'s
//!   predicted `Tcomm`, bounded retry with exponential backoff, and on
//!   permanent failure a **re-plan**: the undelivered items are
//!   redistributed optimally over the surviving ranks via the existing
//!   planner, preserving byte conservation.
//!
//! Both modes replay the same [`scatter_schedule`] the minimpi runtime
//! uses, so simulated and executed fault traces agree exactly.

use gs_scatter::cost::{Platform, Processor};
use gs_scatter::distribution::Timeline;
use gs_scatter::error::PlanError;
use gs_scatter::fault::{
    scatter_schedule, Delivery, FaultPlan, RecoveryConfig, ReplanRecord, ScatterSchedule,
};
use gs_scatter::obs::{Event, EventKind, Incident, Trace, TraceSource};
use gs_scatter::planner::Plan;

/// Result of one fault-injected scatter + compute phase.
#[derive(Debug, Clone)]
pub struct FtScatterSim {
    /// Per-rank schedule summary (first transfer start, last transfer
    /// end, compute finish), in scatter order. Ranks that never
    /// received anything have all-zero rows.
    pub timeline: Timeline,
    /// Overall makespan (last compute finish or port release).
    pub makespan: f64,
    /// Every successful delivery, in time order.
    pub deliveries: Vec<Delivery>,
    /// Item ranges each rank ended up computing, in scatter order.
    pub assignments: Vec<Vec<(u64, u64)>>,
    /// Total items computed (equals the input `n` in recovered mode
    /// whenever at least the root survives).
    pub computed_items: u64,
    /// Items lost for good (degraded mode only; always 0 in recovered
    /// mode).
    pub lost_items: u64,
    /// Which ranks were declared dead.
    pub dead: Vec<bool>,
    /// Every re-planning round, in time order (empty in degraded mode).
    pub replans: Vec<ReplanRecord>,
    /// Fault/retry/replan incidents, in time order.
    pub incidents: Vec<Incident>,
    /// `true` iff the run used a [`RecoveryConfig`] (labels the trace
    /// `recovered` rather than `degraded`).
    pub recovered: bool,
}

impl FtScatterSim {
    /// Converts the run into an observability [`Trace`] (source
    /// [`TraceSource::Simulated`], label `"recovered"` or
    /// `"degraded"`), incidents included. `names` are in scatter order.
    ///
    /// Failed attempts are *not* events — the port time they burn shows
    /// up as idle, and the attempts themselves as `fault`/`retry`
    /// incidents — so byte conservation over events keeps holding.
    /// Item ranges are attached only to contiguous transfers.
    pub fn trace(&self, names: &[&str], item_bytes: u64) -> Trace {
        assert_eq!(names.len(), self.timeline.finish.len(), "names must match the run");
        let p = names.len();
        let root = p.saturating_sub(1);
        let mut trace = Trace::new(
            TraceSource::Simulated,
            item_bytes,
            names.iter().map(|s| s.to_string()).collect(),
        );
        trace.label = Some(if self.recovered { "recovered" } else { "degraded" }.to_string());
        trace.incidents = self.incidents.clone();
        let mut first_busy = vec![f64::INFINITY; p];
        let mut last_busy = vec![0.0f64; p];
        for d in &self.deliveries {
            let items: u64 = d.ranges.iter().map(|&(lo, hi)| hi - lo).sum();
            let bytes = items * item_bytes;
            let mut start = Event::send(EventKind::SendStart, d.start, d.rank, root, bytes);
            let mut end = Event::send(EventKind::SendEnd, d.end, d.rank, root, bytes);
            if let [(lo, hi)] = d.ranges[..] {
                start = start.with_items(lo, hi);
                end = end.with_items(lo, hi);
            }
            trace.push(start);
            trace.push(end);
            first_busy[d.rank] = first_busy[d.rank].min(d.start);
            last_busy[d.rank] = last_busy[d.rank].max(d.end);
            if d.rank != root {
                first_busy[root] = first_busy[root].min(d.start);
                last_busy[root] = last_busy[root].max(d.end);
            }
        }
        for rank in 0..p {
            if self.assignments[rank].is_empty() {
                continue;
            }
            let (start, end) = (self.timeline.comm_end[rank], self.timeline.finish[rank]);
            let mut cs = Event::compute(EventKind::ComputeStart, start, rank);
            let mut ce = Event::compute(EventKind::ComputeEnd, end, rank);
            if let [(lo, hi)] = self.assignments[rank][..] {
                cs = cs.with_items(lo, hi);
                ce = ce.with_items(lo, hi);
            }
            trace.push(cs);
            trace.push(ce);
            first_busy[rank] = first_busy[rank].min(start);
            last_busy[rank] = last_busy[rank].max(end);
        }
        for rank in 0..p {
            if first_busy[rank] > 0.0 {
                trace.push(Event::idle(0.0, rank));
            }
            if last_busy[rank] < self.makespan {
                trace.push(Event::idle(last_busy[rank], rank));
            }
        }
        trace.sort_events();
        trace
    }
}

/// Simulates a fault-injected scatter + compute phase.
///
/// `procs` and `counts` are in scatter order (root last), as produced
/// by [`gs_scatter::planner::Planner`]; items are laid out contiguously
/// in that order (displacement layout). `faults` is validated against
/// the rank count; `recovery` selects degraded (`None`) vs recovered
/// (`Some`) mode — see the module docs. The communication phase is
/// [`scatter_schedule`]'s; this adds the compute phase.
pub fn simulate_scatter_ft(
    procs: &[&Processor],
    counts: &[usize],
    faults: &FaultPlan,
    recovery: Option<&RecoveryConfig>,
) -> Result<FtScatterSim, PlanError> {
    let ScatterSchedule { deliveries, replans, incidents, dead, lost_items, port_free: t } =
        scatter_schedule(procs, counts, faults, recovery, 0.0)?;
    let p = procs.len();
    let root = p - 1;
    let n: u64 = counts.iter().map(|&c| c as u64).sum();
    let mut assignments: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
    for d in &deliveries {
        assignments[d.rank].extend_from_slice(&d.ranges);
    }

    // Compute phase: each rank starts once its last block has arrived
    // (deferred compute), stretched by any slowdown fault.
    let mut timeline = Timeline {
        comm_start: vec![0.0; p],
        comm_end: vec![0.0; p],
        finish: vec![0.0; p],
    };
    let mut makespan: f64 = t;
    for rank in 0..p {
        if assignments[rank].is_empty() {
            continue;
        }
        let (mut first, mut last) = (f64::INFINITY, 0.0f64);
        for d in deliveries.iter().filter(|d| d.rank == rank) {
            first = first.min(d.start);
            last = last.max(d.end);
        }
        let items: u64 = assignments[rank].iter().map(|&(lo, hi)| hi - lo).sum();
        let nominal = procs[rank].comp.eval(items as usize);
        // The root drives the port, so it computes only once its last
        // send is done (in fault-free runs last == t already).
        let start = if rank == root { last.max(t) } else { last };
        let finish = start + faults.stretched_compute(rank, start, nominal);
        timeline.comm_start[rank] = first;
        timeline.comm_end[rank] = start;
        timeline.finish[rank] = finish;
        makespan = makespan.max(finish);
    }
    let computed_items: u64 =
        assignments.iter().flatten().map(|&(lo, hi)| hi - lo).sum();
    debug_assert_eq!(computed_items + lost_items, n, "items must be conserved");

    // The fault path is event-driven too (every delivery and compute
    // interval is a start/end pair); account it under the same sim_*
    // families the plain engine uses.
    let reg = gs_scatter::metrics::Registry::global();
    reg.counter("sim_runs_total", "discrete-event scatter simulations run").inc();
    let computing = assignments.iter().filter(|a| !a.is_empty()).count();
    reg.counter("sim_events_total", "simulator events processed")
        .add(2 * (deliveries.len() + computing) as u64);

    Ok(FtScatterSim {
        timeline,
        makespan,
        deliveries,
        assignments,
        computed_items,
        lost_items,
        dead,
        replans,
        incidents,
        recovered: recovery.is_some(),
    })
}

/// Simulates a [`Plan`] on its platform under `faults` — the plan's
/// scatter order and counts, with the fault plan expressed in that same
/// rank space.
pub fn simulate_plan_ft(
    platform: &Platform,
    plan: &Plan,
    faults: &FaultPlan,
    recovery: Option<&RecoveryConfig>,
) -> Result<FtScatterSim, PlanError> {
    let view = platform.ordered(&plan.order);
    let counts = plan.counts_in_order();
    simulate_scatter_ft(&view, &counts, faults, recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_scatter, SimConfig};
    use gs_scatter::fault::{Fault, FaultKind};

    fn procs() -> Vec<Processor> {
        vec![
            Processor::linear("a", 1.0, 2.0),
            Processor::linear("b", 2.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ]
    }

    #[test]
    fn fault_free_run_matches_plain_simulator() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![3usize, 2, 1];
        let ft = simulate_scatter_ft(&view, &counts, &FaultPlan::none(), None).unwrap();
        let plain = simulate_scatter(&view, &counts, &SimConfig::ideal());
        assert_eq!(ft.timeline, plain.timeline);
        assert_eq!(ft.makespan, plain.makespan);
        assert_eq!(ft.computed_items, 6);
        assert_eq!(ft.lost_items, 0);
        assert!(ft.incidents.is_empty() && ft.replans.is_empty());
        // Recovered mode on a healthy grid is also identical.
        let rec = simulate_scatter_ft(
            &view,
            &counts,
            &FaultPlan::none(),
            Some(&RecoveryConfig::default()),
        )
        .unwrap();
        assert_eq!(rec.timeline, plain.timeline);
    }

    #[test]
    fn degraded_mode_loses_crashed_ranks_items() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![3usize, 2, 1];
        // Rank 0's transfer spans [0, 3]; it crashes at 1.
        let faults =
            FaultPlan { faults: vec![Fault { rank: 0, kind: FaultKind::Crash { at: 1.0 } }] };
        let sim = simulate_scatter_ft(&view, &counts, &faults, None).unwrap();
        assert_eq!(sim.lost_items, 3);
        assert_eq!(sim.computed_items, 3);
        assert!(sim.assignments[0].is_empty());
        // The port is still held for the full transfer (single-port).
        assert_eq!(sim.deliveries[0].rank, 1);
        assert_eq!(sim.deliveries[0].start, 3.0);
        let trace = sim.trace(&["a", "b", "root"], 8);
        trace.validate().unwrap();
        assert_eq!(trace.label.as_deref(), Some("degraded"));
    }

    #[test]
    fn recovered_mode_replans_over_survivors() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![3usize, 2, 1];
        let faults =
            FaultPlan { faults: vec![Fault { rank: 0, kind: FaultKind::Crash { at: 1.0 } }] };
        let rc = RecoveryConfig::default();
        let sim = simulate_scatter_ft(&view, &counts, &faults, Some(&rc)).unwrap();
        // Everything is computed despite the crash.
        assert_eq!(sim.computed_items, 6);
        assert_eq!(sim.lost_items, 0);
        assert!(sim.dead[0] && !sim.dead[1] && !sim.dead[2]);
        assert_eq!(sim.replans.len(), 1);
        assert_eq!(sim.replans[0].items, 3);
        assert_eq!(sim.replans[0].survivors, vec![1, 2]);
        // Items 0..6 are tiled exactly once.
        let mut all: Vec<(u64, u64)> = sim.assignments.iter().flatten().copied().collect();
        all.sort_unstable();
        let mut cursor = 0;
        for (lo, hi) in all {
            assert_eq!(lo, cursor, "gap or overlap at {lo}");
            cursor = hi;
        }
        assert_eq!(cursor, 6);
        // Incidents: 3 faults (attempts) + 2 retries + 1 replan.
        let trace = sim.trace(&["a", "b", "root"], 8);
        trace.validate().unwrap();
        let summary = trace.summarize().unwrap();
        assert_eq!(summary.faults, 3);
        assert_eq!(summary.retries, 2);
        assert_eq!(summary.replans, 1);
        assert_eq!(trace.label.as_deref(), Some("recovered"));
        // Byte conservation holds on the trace events too.
        assert_eq!(summary.total_bytes, 6 * 8);
    }

    #[test]
    fn transient_fault_recovers_without_replan() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![3usize, 2, 1];
        let faults = FaultPlan {
            faults: vec![Fault { rank: 1, kind: FaultKind::Transient { failures: 1 } }],
        };
        let sim =
            simulate_scatter_ft(&view, &counts, &faults, Some(&RecoveryConfig::default()))
                .unwrap();
        assert_eq!(sim.computed_items, 6);
        assert!(sim.replans.is_empty());
        assert!(!sim.dead.iter().any(|&d| d));
        // The retry pushed rank 1's delivery later than the fault-free run.
        let plain = simulate_scatter(&view, &counts, &SimConfig::ideal());
        assert!(sim.makespan > plain.makespan);
    }

    #[test]
    fn slowdown_stretches_compute_only() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![3usize, 2, 1];
        // Rank 0 computes over [3, 9]; slow it 2x from t = 3.
        let faults = FaultPlan {
            faults: vec![Fault { rank: 0, kind: FaultKind::Slowdown { start: 3.0, factor: 2.0 } }],
        };
        let sim = simulate_scatter_ft(&view, &counts, &faults, None).unwrap();
        assert_eq!(sim.timeline.finish[0], 3.0 + 12.0);
        assert_eq!(sim.timeline.finish[1], 9.0); // untouched
        assert_eq!(sim.lost_items, 0);
    }

    #[test]
    fn plan_level_wrapper_runs_in_plan_order() {
        use gs_scatter::ordering::OrderPolicy;
        use gs_scatter::planner::{Planner, Strategy};
        let platform = Platform::new(procs(), 2).unwrap();
        let plan = Planner::new(platform.clone())
            .strategy(Strategy::Exact)
            .order_policy(OrderPolicy::DescendingBandwidth)
            .plan(60)
            .unwrap();
        let sim = simulate_plan_ft(&platform, &plan, &FaultPlan::none(), None).unwrap();
        assert_eq!(sim.computed_items, 60);
    }
}
