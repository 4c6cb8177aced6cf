//! Million-rank scatter simulation: a closure-free fast path.
//!
//! [`crate::sim::simulate_scatter`] drives the generic [`crate::engine`]:
//! every event is a boxed closure over an `Rc<RefCell<...>>` state cell.
//! That is the right shape for extensibility, but at 10⁵–10⁶ ranks the
//! per-event allocation and indirection dominate. On an ideal (no
//! background load) star the schedule needs no event queue at all: it is
//! Eq. (1), one prefix sum of the transfers on the root's port
//! ([`Timeline::from_durations`], the builder the planner's
//! [`gs_scatter::distribution::timeline`] uses too). [`simulate_star`]
//! computes that timeline directly and, when asked, derives the event
//! stream from it in the classic engine's pop order.
//!
//! The two paths are observationally equivalent: on an ideal platform,
//! [`simulate_star`] produces the identical event stream, timeline, and
//! makespan as `simulate_scatter`, bit for bit — enforced by unit tests
//! here and `tests/proptest_simscale.rs`. Background-load traces are
//! deliberately out of scope; use the classic engine for perturbed runs.
//!
//! Processor identity is a bare index — at million-rank scale the
//! simulator never touches a name `String`. When names matter (small-p
//! trace emission, `gs report`), intern them through
//! [`gs_scatter::intern::NameInterner`] and resolve on the way out.

use gs_scatter::cost::Processor;
use gs_scatter::distribution::Timeline;
use gs_scatter::obs::span;

use crate::engine::{SimEvent, SimEventKind};

/// Result of one fast-path scatter simulation.
#[derive(Debug, Clone)]
pub struct BigScatterSim {
    /// Per-processor schedule, in scatter order.
    pub timeline: Timeline,
    /// Overall makespan.
    pub makespan: f64,
    /// Simulator events processed (4 per processor: send start/end,
    /// compute start/end) — the unit `sim_events_total` counts.
    pub events_processed: u64,
    /// Full event trace, in execution order. Empty unless the run was
    /// asked to `record` (at 10⁶ ranks the trace alone is ~100 MB).
    pub events: Vec<SimEvent>,
}

/// Per-position transfer and compute durations, the fast path's whole
/// input: `comm[i]` seconds on the root's port, then `work[i]` seconds of
/// compute, for the processor at scatter position `i` (root last).
pub fn star_durations(procs: &[&Processor], counts: &[usize]) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(procs.len(), counts.len(), "one count per processor");
    let comm = procs.iter().zip(counts).map(|(p, &c)| p.comm.eval(c)).collect();
    let work = procs.iter().zip(counts).map(|(p, &c)| p.comp.eval(c)).collect();
    (comm, work)
}

/// Simulates one single-port scatter + compute phase from bare
/// durations. `record` keeps the full [`SimEvent`] stream (the
/// equivalence tests compare it with the classic engine's; skip it at
/// large `p` — the trace of a run is built from its timeline).
pub fn simulate_star(comm: &[f64], work: &[f64], record: bool) -> BigScatterSim {
    assert_eq!(comm.len(), work.len(), "one work term per transfer");
    // One span per run, never per rank.
    let mut star_span = span::span("sim", "sim.star");
    let p = comm.len();
    let run_span = span::span("sim", "sim.run");
    let timeline = Timeline::from_durations(comm.iter().copied().zip(work.iter().copied()));
    let makespan = timeline.makespan();
    let events = if record { star_events(&timeline) } else { Vec::new() };
    drop(run_span);
    let events_processed = 4 * p as u64;
    star_span.attr("p", p);
    star_span.attr("events", events_processed);
    star_span.attr("makespan", makespan);
    let reg = gs_scatter::metrics::Registry::global();
    reg.counter("sim_runs_total", "discrete-event scatter simulations run").inc();
    reg.counter("sim_events_total", "simulator events processed").add(events_processed);
    BigScatterSim { timeline, makespan, events_processed, events }
}

/// The event stream the classic engine records for `tl`'s star.
///
/// The engine pops its two scheduled kinds in `(time, seq)` order, and
/// `SendEnd(i)` schedules `ComputeEnd(i)` before `SendEnd(i + 1)`, so
/// their insertion counters order as `2i` and `2i + 1`. Each popped
/// `SendEnd(i)` records the compute start and the next transfer's start
/// at the same instant.
fn star_events(tl: &Timeline) -> Vec<SimEvent> {
    let p = tl.finish.len();
    let mut popped: Vec<(f64, usize)> = Vec::with_capacity(2 * p);
    for i in 0..p {
        popped.push((tl.comm_end[i], 2 * i));
        popped.push((tl.finish[i], 2 * i + 1));
    }
    popped.sort_unstable_by(|a, b| {
        a.0.partial_cmp(&b.0).expect("event times must not be NaN").then(a.1.cmp(&b.1))
    });
    let mut events = Vec::with_capacity(4 * p);
    if p > 0 {
        events.push(SimEvent { time: 0.0, kind: SimEventKind::SendStart, proc: 0 });
    }
    for (time, seq) in popped {
        let proc = seq / 2;
        if seq % 2 == 1 {
            events.push(SimEvent { time, kind: SimEventKind::ComputeEnd, proc });
            continue;
        }
        events.push(SimEvent { time, kind: SimEventKind::SendEnd, proc });
        events.push(SimEvent { time, kind: SimEventKind::ComputeStart, proc });
        if proc + 1 < p {
            events.push(SimEvent { time, kind: SimEventKind::SendStart, proc: proc + 1 });
        }
    }
    events
}

/// A deterministic synthetic heterogeneous star: per-position
/// `(beta, alpha)` cost slopes (s/item), root last with `beta = 0`.
/// Worker parameters vary by a fixed mixing function of the index, so
/// any two runs (and any two machines) build the identical platform.
pub fn synthetic_star(p: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(p >= 1, "a star needs at least the root");
    let mut beta = Vec::with_capacity(p);
    let mut alpha = Vec::with_capacity(p);
    for i in 0..p - 1 {
        let i = i as u64;
        // Cheap integer mixing: spread link and CPU speeds over roughly
        // one decade each, deterministically.
        beta.push(1e-6 * (1.0 + (i.wrapping_mul(37) % 97) as f64 / 12.0));
        alpha.push(1e-5 * (1.0 + (i.wrapping_mul(61) % 89) as f64 / 10.0));
    }
    beta.push(0.0); // root: no self-transfer cost
    alpha.push(1e-5);
    (beta, alpha)
}

/// Splits `items` over the star proportionally to CPU speed (`1/alpha`),
/// exactly (the counts sum to `items`), in `O(p)`. The exact DP is
/// `O(p·n·log n)` — unusable at `p = 10⁶` — and for a *synthetic*
/// capacity experiment the proportional split exercises the simulator
/// identically.
pub fn proportional_counts(alpha: &[f64], items: u64) -> Vec<u64> {
    let total: f64 = alpha.iter().map(|&a| 1.0 / a).sum();
    let mut counts = Vec::with_capacity(alpha.len());
    let mut cum = 0.0f64;
    let mut assigned = 0u64;
    for &a in alpha {
        cum += 1.0 / a;
        // Cumulative rounding keeps the running sum exact.
        let upto = ((items as f64) * (cum / total)).floor() as u64;
        let upto = upto.min(items);
        counts.push(upto - assigned);
        assigned = upto;
    }
    if let Some(last) = counts.last_mut() {
        *last += items - assigned; // float slack lands on the root
    }
    counts
}

/// Convenience wrapper: simulate the synthetic star at `p` ranks with
/// `items` data items, without recording the event stream.
pub fn simulate_synthetic_star(p: usize, items: u64) -> BigScatterSim {
    let (beta, alpha) = synthetic_star(p);
    let counts = proportional_counts(&alpha, items);
    let comm: Vec<f64> = beta.iter().zip(&counts).map(|(b, &c)| b * c as f64).collect();
    let work: Vec<f64> = alpha.iter().zip(&counts).map(|(a, &c)| a * c as f64).collect();
    simulate_star(&comm, &work, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_scatter, SimConfig};

    fn procs() -> Vec<Processor> {
        vec![
            Processor::linear("a", 1.0, 2.0),
            Processor::linear("b", 2.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ]
    }

    #[test]
    fn matches_classic_engine_bit_for_bit() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![3usize, 2, 1];
        let classic = simulate_scatter(&view, &counts, &SimConfig::ideal());
        let (comm, work) = star_durations(&view, &counts);
        let fast = simulate_star(&comm, &work, true);
        assert_eq!(fast.events, classic.events);
        assert_eq!(fast.timeline, classic.timeline);
        assert_eq!(fast.makespan.to_bits(), classic.makespan.to_bits());
    }

    #[test]
    fn zero_work_tie_breaks_like_classic() {
        // Zero compute makes ComputeEnd(i) tie with SendEnd(i+1) when
        // comm[i+1] == 0 too; the classic engine pops the compute first.
        let ps = [
            Processor::linear("a", 1.0, 0.0),
            Processor::linear("b", 0.0, 0.0),
            Processor::linear("root", 0.0, 0.0),
        ];
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![2usize, 3, 1];
        let classic = simulate_scatter(&view, &counts, &SimConfig::ideal());
        let (comm, work) = star_durations(&view, &counts);
        let fast = simulate_star(&comm, &work, true);
        assert_eq!(fast.events, classic.events);
    }

    #[test]
    fn empty_platform_is_a_noop() {
        let sim = simulate_star(&[], &[], true);
        assert_eq!(sim.makespan, 0.0);
        assert!(sim.events.is_empty());
    }

    #[test]
    fn unrecorded_run_keeps_timeline_only() {
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = vec![3usize, 2, 1];
        let (comm, work) = star_durations(&view, &counts);
        let rec = simulate_star(&comm, &work, true);
        let bare = simulate_star(&comm, &work, false);
        assert!(bare.events.is_empty());
        assert_eq!(bare.timeline, rec.timeline);
        assert_eq!(bare.makespan, rec.makespan);
        assert_eq!(bare.events_processed, 12);
    }

    #[test]
    fn proportional_counts_sum_exactly() {
        for p in [1usize, 2, 17, 1000] {
            let (_, alpha) = synthetic_star(p);
            for items in [0u64, 1, 999, 123_457] {
                let counts = proportional_counts(&alpha, items);
                assert_eq!(counts.len(), p);
                assert_eq!(counts.iter().sum::<u64>(), items);
            }
        }
    }

    #[test]
    fn faster_cpus_get_more_items() {
        let alpha = vec![1e-5, 4e-5, 1e-5]; // middle CPU 4x slower
        let counts = proportional_counts(&alpha, 90_000);
        assert!(counts[0] > 3 * counts[1]);
        assert!(counts[2] > 3 * counts[1]);
    }

    #[test]
    fn synthetic_star_scales_to_many_ranks() {
        let sim = simulate_synthetic_star(50_000, 500_000);
        assert_eq!(sim.events_processed, 4 * 50_000);
        assert!(sim.makespan > 0.0);
        // Every rank finished after its transfer completed.
        assert!(sim.timeline.finish.iter().zip(&sim.timeline.comm_end).all(|(f, c)| f >= c));
    }
}
