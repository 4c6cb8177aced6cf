//! Discrete-event simulation of scatter + compute phases.

use std::cell::RefCell;
use std::rc::Rc;

use gs_scatter::cost::{Platform, Processor};
use gs_scatter::distribution::Timeline;
use gs_scatter::obs::span;
use gs_scatter::planner::Plan;

use crate::engine::{Engine, SimEvent, SimEventKind};
use crate::load::LoadTrace;

/// Simulation parameters.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Background-load trace per processor, **in scatter order**. Empty
    /// means no background load anywhere.
    pub loads: Vec<LoadTrace>,
}

impl SimConfig {
    /// No background load.
    pub fn ideal() -> Self {
        SimConfig::default()
    }

    /// Background loads, one per processor in scatter order.
    pub fn with_loads(loads: Vec<LoadTrace>) -> Self {
        SimConfig { loads }
    }
}

/// Result of one simulated scatter + compute phase.
///
/// A star run's schedule is its [`Timeline`]: its observability trace is
/// `Trace::from_timeline(TraceSource::Simulated, names, counts,
/// item_bytes, &sim.timeline)` (`gs_scatter::obs`).
#[derive(Debug, Clone)]
pub struct ScatterSim {
    /// Per-processor schedule, in scatter order.
    pub timeline: Timeline,
    /// Full event trace, in time order.
    pub events: Vec<SimEvent>,
    /// Overall makespan.
    pub makespan: f64,
}

struct SimState {
    comm_time: Vec<f64>,
    work: Vec<f64>,
    loads: Vec<LoadTrace>,
    comm_start: Vec<f64>,
    comm_end: Vec<f64>,
    finish: Vec<f64>,
}

/// Simulates one scatter (root sends blocks in order, single-port) followed
/// by the compute phase, under optional background load.
///
/// ```
/// use gs_gridsim::sim::{simulate_scatter, SimConfig};
/// use gs_scatter::cost::Processor;
///
/// let procs = vec![
///     Processor::linear("w", 1.0, 2.0),
///     Processor::linear("root", 0.0, 1.0),
/// ];
/// let view: Vec<&Processor> = procs.iter().collect();
/// let sim = simulate_scatter(&view, &[3, 2], &SimConfig::ideal());
/// // w: 3 s receiving + 6 s computing.
/// assert_eq!(sim.timeline.finish[0], 9.0);
/// assert_eq!(sim.makespan, 9.0);
/// ```
///
/// `procs` and `counts` are in scatter order (root last), as produced by
/// [`gs_scatter::planner::Planner`]. Without background load the resulting
/// timeline equals [`gs_scatter::distribution::timeline`] exactly.
pub fn simulate_scatter(
    procs: &[&Processor],
    counts: &[usize],
    config: &SimConfig,
) -> ScatterSim {
    simulate_scatter_on(procs, counts, config, Engine::new())
}

/// [`simulate_scatter`] on a caller-supplied [`Engine`]. This is the
/// classic closure-engine path that `BENCH_sim.json` and the fast-path
/// equivalence proptests compare [`crate::bigsim::simulate_star`]
/// against. The engine must be fresh (time zero, empty queue).
pub fn simulate_scatter_on(
    procs: &[&Processor],
    counts: &[usize],
    config: &SimConfig,
    mut engine: Engine,
) -> ScatterSim {
    assert_eq!(procs.len(), counts.len(), "one count per processor");
    assert!(
        config.loads.is_empty() || config.loads.len() == procs.len(),
        "loads must be empty or match the processor count"
    );
    assert!(engine.now() == 0.0 && engine.pending() == 0, "engine must be fresh");
    let p = procs.len();
    let loads = if config.loads.is_empty() {
        vec![LoadTrace::none(); p]
    } else {
        config.loads.clone()
    };
    let state = Rc::new(RefCell::new(SimState {
        comm_time: procs.iter().zip(counts).map(|(pr, &c)| pr.comm.eval(c)).collect(),
        work: procs.iter().zip(counts).map(|(pr, &c)| pr.comp.eval(c)).collect(),
        loads,
        comm_start: vec![0.0; p],
        comm_end: vec![0.0; p],
        finish: vec![0.0; p],
    }));

    let mut scatter_span = span::span("sim", "sim.scatter");
    if p > 0 {
        schedule_send(&mut engine, state.clone(), 0, p);
    }
    let run_span = span::span("sim", "sim.run");
    let makespan = engine.run();
    drop(run_span);
    scatter_span.attr("p", p);
    scatter_span.attr("events", engine.trace.len());
    scatter_span.attr("makespan", makespan);
    drop(scatter_span);

    let st = state.borrow();
    let reg = gs_scatter::metrics::Registry::global();
    reg.counter("sim_runs_total", "discrete-event scatter simulations run").inc();
    reg.counter("sim_events_total", "simulator events processed")
        .add(engine.trace.len() as u64);
    let block = reg.histogram("sim_block_seconds", "simulated per-block transfer time");
    for (&start, &end) in st.comm_start.iter().zip(&st.comm_end) {
        block.observe(end - start);
    }
    ScatterSim {
        timeline: Timeline {
            comm_start: st.comm_start.clone(),
            comm_end: st.comm_end.clone(),
            finish: st.finish.clone(),
        },
        events: engine.trace,
        makespan,
    }
}

fn schedule_send(engine: &mut Engine, state: Rc<RefCell<SimState>>, i: usize, p: usize) {
    engine.record(SimEventKind::SendStart, i);
    let dt = {
        let mut st = state.borrow_mut();
        st.comm_start[i] = engine.now();
        st.comm_time[i]
    };
    let st2 = state.clone();
    engine.schedule_after(dt, move |e| {
        e.record(SimEventKind::SendEnd, i);
        e.record(SimEventKind::ComputeStart, i);
        let finish = {
            let mut st = st2.borrow_mut();
            st.comm_end[i] = e.now();
            st.loads[i].finish_time(e.now(), st.work[i])
        };
        let st3 = st2.clone();
        e.schedule_at(finish, move |e| {
            e.record(SimEventKind::ComputeEnd, i);
            st3.borrow_mut().finish[i] = e.now();
        });
        // The root's port is free: start the next transfer immediately.
        if i + 1 < p {
            schedule_send(e, st2.clone(), i + 1, p);
        }
    });
}

/// Simulates a [`Plan`] on its platform. `loads_by_index` (if non-empty)
/// gives one [`LoadTrace`] per processor **by platform index**; they are
/// re-arranged into the plan's scatter order internally.
pub fn simulate_plan(
    platform: &Platform,
    plan: &Plan,
    loads_by_index: &[LoadTrace],
) -> ScatterSim {
    let view = platform.ordered(&plan.order);
    let counts = plan.counts_in_order();
    let config = if loads_by_index.is_empty() {
        SimConfig::ideal()
    } else {
        assert_eq!(loads_by_index.len(), platform.len());
        SimConfig::with_loads(
            plan.order.iter().map(|&i| loads_by_index[i].clone()).collect(),
        )
    };
    simulate_scatter(&view, &counts, &config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_scatter::distribution::timeline;
    use gs_scatter::obs::{Trace, TraceSource};
    use gs_scatter::ordering::OrderPolicy;
    use gs_scatter::planner::{Planner, Strategy};

    fn procs() -> Vec<Processor> {
        vec![
            Processor::linear("a", 1.0, 2.0),
            Processor::linear("b", 2.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ]
    }

    #[test]
    fn matches_analytic_timeline_exactly() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![3usize, 2, 1];
        let sim = simulate_scatter(&view, &counts, &SimConfig::ideal());
        let analytic = timeline(&view, &counts);
        assert_eq!(sim.timeline, analytic);
        assert_eq!(sim.makespan, analytic.makespan());
    }

    #[test]
    fn event_trace_is_consistent() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let sim = simulate_scatter(&view, &[3, 2, 1], &SimConfig::ideal());
        // 4 events per processor.
        assert_eq!(sim.events.len(), 12);
        // Events are time-ordered.
        assert!(sim.events.windows(2).all(|w| w[0].time <= w[1].time));
        // SendStart of i+1 coincides with SendEnd of i (single port).
        for i in 0..2 {
            let end_i = sim
                .events
                .iter()
                .find(|e| e.kind == SimEventKind::SendEnd && e.proc == i)
                .unwrap()
                .time;
            let start_next = sim
                .events
                .iter()
                .find(|e| e.kind == SimEventKind::SendStart && e.proc == i + 1)
                .unwrap()
                .time;
            assert_eq!(end_i, start_next);
        }
    }

    #[test]
    fn load_spike_delays_victim_only() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![3usize, 2, 1];
        // Processor 0 computes during [3, 9]; slow it 2x over [3, 9].
        let loads = vec![
            LoadTrace::spike(3.0, 9.0, 2.0),
            LoadTrace::none(),
            LoadTrace::none(),
        ];
        let sim = simulate_scatter(&view, &counts, &SimConfig::with_loads(loads));
        let ideal = timeline(&view, &counts);
        // Victim: 6 s of work, first 6 wall-seconds yield 3 => 3 left at
        // full speed: finish 3 + 6 + 3 = 12 (was 9).
        assert_eq!(sim.timeline.finish[0], 12.0);
        assert_eq!(sim.timeline.finish[1], ideal.finish[1]);
        assert_eq!(sim.timeline.finish[2], ideal.finish[2]);
    }

    #[test]
    fn simulate_plan_reorders_loads_by_index() {
        let plat = Platform::new(procs(), 2).unwrap();
        let plan = Planner::new(plat.clone())
            .strategy(Strategy::Exact)
            .order_policy(OrderPolicy::DescendingBandwidth)
            .plan(60)
            .unwrap();
        // Slow down platform-index 0 ("a"), wherever it lands in the order.
        let mut loads = vec![LoadTrace::none(); 3];
        loads[0] = LoadTrace::new(vec![(0.0, 3.0)]);
        let perturbed = simulate_plan(&plat, &plan, &loads);
        let ideal = simulate_plan(&plat, &plan, &[]);
        let pos_a = plan.order.iter().position(|&i| i == 0).unwrap();
        assert!(perturbed.timeline.finish[pos_a] > ideal.timeline.finish[pos_a]);
        // Everyone else unchanged.
        for pos in 0..3 {
            if pos != pos_a {
                assert_eq!(perturbed.timeline.finish[pos], ideal.timeline.finish[pos]);
            }
        }
    }

    #[test]
    fn obs_trace_reflects_background_load() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![3usize, 2, 1];
        let loads =
            vec![LoadTrace::spike(3.0, 9.0, 2.0), LoadTrace::none(), LoadTrace::none()];
        let sim = simulate_scatter(&view, &counts, &SimConfig::with_loads(loads));
        let trace = Trace::from_timeline(
            TraceSource::Simulated,
            &["a", "b", "root"],
            &counts,
            8,
            &sim.timeline,
        );
        trace.validate().unwrap();
        let summary = trace.summarize().unwrap();
        assert_eq!(summary.makespan, 12.0); // victim slowed from 9 to 12
        // The victim's compute interval stretched to 9 s; others idle more.
        assert_eq!(summary.ranks[0].compute, 9.0);
        assert_eq!(summary.ranks[1].idle, 12.0 - 6.0);
    }

    #[test]
    fn empty_counts() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let sim = simulate_scatter(&view, &[0, 0, 0], &SimConfig::ideal());
        assert_eq!(sim.makespan, 0.0);
    }
}
