//! A star run's schedule *is* its `Timeline`: the trace built from the
//! simulator's timeline has, rank by rank, exactly the send and compute
//! events of the simulator's own event log, with each block's sender,
//! bytes and item range — on random platforms with zero counts, exact
//! timestamp ties (dyadic costs) and background load.

use grid_scatter::gridsim::engine::SimEventKind;
use grid_scatter::gridsim::load::LoadTrace;
use grid_scatter::gridsim::sim::{simulate_scatter, SimConfig};
use grid_scatter::scatter::cost::Processor;
use grid_scatter::scatter::obs::{EventKind, Trace, TraceSource};
use proptest::prelude::*;

const ITEM_BYTES: u64 = 8;

/// Dyadic coefficients: sums and products stay exact, so transfers and
/// compute phases end at exactly the same instants.
const COEFFS: &[f64] = &[0.0, 0.5, 1.0, 2.0];

/// One processor: `(beta, alpha, count, load spike (from, to, factor))`.
type Spec = (f64, f64, usize, Option<(f64, f64, f64)>);

/// Processors in scatter order, root last.
fn star() -> impl Strategy<Value = Vec<Spec>> {
    let load = (any::<bool>(), 0u32..8, 1u32..4, 1u32..4).prop_map(|(on, from, len, f)| {
        on.then(|| (f64::from(from) * 0.5, f64::from(from + len) * 0.5, f64::from(f) * 0.5))
    });
    let proc = (0usize..COEFFS.len(), 0usize..COEFFS.len(), 0usize..4, load)
        .prop_map(|(b, a, c, l)| (COEFFS[b], COEFFS[a], c, l));
    proptest::collection::vec(proc, 1..7)
}

fn kind(k: SimEventKind) -> EventKind {
    match k {
        SimEventKind::SendStart => EventKind::SendStart,
        SimEventKind::SendEnd => EventKind::SendEnd,
        SimEventKind::ComputeStart => EventKind::ComputeStart,
        SimEventKind::ComputeEnd => EventKind::ComputeEnd,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn timeline_trace_matches_the_event_walk(spec in star()) {
        let p = spec.len();
        let procs: Vec<Processor> = spec
            .iter()
            .enumerate()
            .map(|(i, &(beta, alpha, _, _))| {
                let beta = if i + 1 == p { 0.0 } else { beta };
                Processor::linear(format!("p{i}"), beta, alpha)
            })
            .collect();
        let view: Vec<&Processor> = procs.iter().collect();
        let counts: Vec<usize> = spec.iter().map(|s| s.2).collect();
        let loads: Vec<LoadTrace> = spec
            .iter()
            .map(|s| s.3.map_or_else(LoadTrace::none, |(from, to, f)| LoadTrace::spike(from, to, f)))
            .collect();
        let names: Vec<&str> = procs.iter().map(|p| p.name.as_str()).collect();
        let sim = simulate_scatter(&view, &counts, &SimConfig::with_loads(loads));

        let trace =
            Trace::from_timeline(TraceSource::Simulated, &names, &counts, ITEM_BYTES, &sim.timeline);
        trace.validate().unwrap();
        let mut lo = 0u64;
        for (rank, &count) in counts.iter().enumerate() {
            let logged: Vec<(EventKind, f64)> = sim
                .events
                .iter()
                .filter(|e| e.proc == rank)
                .map(|e| (kind(e.kind), e.time))
                .collect();
            let traced: Vec<_> =
                trace.events_for_rank(rank).filter(|e| e.kind != EventKind::Idle).collect();
            let pairs: Vec<(EventKind, f64)> = traced.iter().map(|e| (e.kind, e.t)).collect();
            prop_assert_eq!(&pairs, &logged, "rank {}", rank);
            let block = Some((lo, lo + count as u64));
            lo += count as u64;
            for e in traced {
                prop_assert_eq!(e.items, block, "rank {} items", rank);
                if matches!(e.kind, EventKind::SendStart | EventKind::SendEnd) {
                    prop_assert_eq!(e.peer, Some(p - 1));
                    prop_assert_eq!(e.bytes, count as u64 * ITEM_BYTES);
                }
            }
        }
    }
}
