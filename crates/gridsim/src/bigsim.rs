//! Million-rank scatter simulation: a closure-free fast path.
//!
//! [`crate::sim::simulate_scatter`] drives the generic [`crate::engine`]:
//! every event is a boxed closure over an `Rc<RefCell<...>>` state cell.
//! That is the right shape for extensibility, but at 10⁵–10⁶ ranks the
//! per-event allocation and indirection dominate. This module simulates
//! the *same model* — single-port root, scatter order, deferred compute —
//! with bare-rank events stored inline in a [`CalendarQueue`]: no
//! allocation per event, no reference counting, no dynamic dispatch. The
//! root's sequential send chain never even enters the queue (see
//! [`simulate_star`]); only pending `ComputeEnd`s do.
//!
//! The two paths are observationally equivalent: on an ideal (no
//! background load) platform, [`simulate_star`] produces the identical
//! event stream, timeline, and makespan as `simulate_scatter`, bit for
//! bit — enforced by unit tests here and `tests/proptest_simscale.rs`.
//! Background-load traces are deliberately out of scope; use the classic
//! engine for perturbed runs.
//!
//! Processor identity is a bare index (`u32`) — at million-rank scale the
//! simulator never touches a name `String`. When names matter (small-p
//! trace emission, `gs report`), intern them through
//! [`gs_scatter::intern::NameInterner`] and resolve on the way out.

use gs_scatter::cost::Processor;
use gs_scatter::distribution::Timeline;
use gs_scatter::obs::span;

use crate::calendar::CalendarQueue;
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
    /// Peak pending-event count in the calendar queue (pending
    /// `ComputeEnd`s; the root's in-flight send is held outside it).
    pub queue_peak: usize,
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
///
/// Event order — including `(time, seq)` tie-breaks — replicates
/// [`crate::sim::simulate_scatter`] exactly: the send chain advances the
/// root's port in scatter order, each block's compute is scheduled
/// *before* the next send, so a zero-work compute that ties with the
/// next transfer's completion still pops first.
///
/// The single-port root has exactly one transfer in flight at any time,
/// so its `SendEnd` never needs to live in the queue: it is held as a
/// local `(time, seq, rank)` and raced against the calendar's minimum
/// `ComputeEnd` by `(time, seq)`. Sequence numbers are still allocated
/// in the classic engine's insertion order (compute first, next send
/// second), so the processed-event order is unchanged — only the queue
/// traffic halves.
pub fn simulate_star(comm: &[f64], work: &[f64], record: bool) -> BigScatterSim {
    if record {
        simulate_star_impl::<true>(comm, work)
    } else {
        simulate_star_impl::<false>(comm, work)
    }
}

/// Monomorphized body of [`simulate_star`] — `RECORD` is a compile-time
/// flag so the unrecorded (large-`p`) loop carries no trace branches.
fn simulate_star_impl<const RECORD: bool>(comm: &[f64], work: &[f64]) -> BigScatterSim {
    assert_eq!(comm.len(), work.len(), "one work term per transfer");
    // One span per *phase*, never per event: at 10⁶ ranks even a no-op
    // per-event guard would dominate the bare-rank loop.
    let mut star_span = span::span("sim", "sim.star");
    let p = comm.len();
    assert!(p <= u32::MAX as usize, "rank index must fit u32");
    let mut timeline = Timeline {
        comm_start: vec![0.0; p],
        comm_end: vec![0.0; p],
        finish: vec![0.0; p],
    };
    let mut events: Vec<SimEvent> = Vec::with_capacity(if RECORD { 4 * p } else { 0 });
    // Pending ComputeEnds, payload = rank. The bucket `Vec`s own every
    // pending event inline (this is the "arena"); nothing is boxed.
    // Seed the bucket width with the mean send gap — the single-port
    // root emits one ComputeEnd per transfer, so that is the mean event
    // spacing and puts ~1 entry per bucket from the start.
    let mean_gap = comm.iter().sum::<f64>() / p.max(1) as f64;
    let mut q: CalendarQueue<u32> = if mean_gap.is_finite() && mean_gap > 0.0 {
        CalendarQueue::with_width(mean_gap)
    } else {
        CalendarQueue::new()
    };
    let mut seq = 0u64;
    let mut now = 0.0f64;
    // The root's one in-flight transfer: (end time, seq, rank).
    let mut pending_send: Option<(f64, u64, u32)> = None;
    if p > 0 {
        if RECORD {
            events.push(SimEvent { time: 0.0, kind: SimEventKind::SendStart, proc: 0 });
        }
        timeline.comm_start[0] = 0.0;
        seq += 1;
        pending_send = Some((now + comm[0], seq, 0));
    }
    // Cached q.peek(): pushes can only lower the minimum (one compare),
    // so a full locate is needed only after a pop.
    let mut qmin: Option<(f64, u64)> = None;
    let run_span = span::span("sim", "sim.run");
    loop {
        let take_send = match (pending_send, qmin) {
            (Some((st, ss, _)), Some((qt, qs))) => st < qt || (st == qt && ss < qs),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_send {
            let (t, _, i) = pending_send.take().expect("send branch requires a pending send");
            debug_assert!(t >= now, "time must be monotone");
            now = t;
            let i = i as usize;
            if RECORD {
                events.push(SimEvent { time: t, kind: SimEventKind::SendEnd, proc: i });
                events.push(SimEvent { time: t, kind: SimEventKind::ComputeStart, proc: i });
            }
            timeline.comm_end[i] = t;
            // Compute first, next send second — the classic engine's
            // insertion order, hence its tie-break order.
            seq += 1;
            let ct = t + work[i];
            q.push(ct, seq, i as u32);
            qmin = match qmin {
                Some((qt, qs)) if qt < ct || (qt == ct && qs < seq) => Some((qt, qs)),
                _ => Some((ct, seq)),
            };
            if i + 1 < p {
                if RECORD {
                    events.push(SimEvent { time: t, kind: SimEventKind::SendStart, proc: i + 1 });
                }
                timeline.comm_start[i + 1] = t;
                seq += 1;
                pending_send = Some((t + comm[i + 1], seq, (i + 1) as u32));
            }
        } else {
            let (t, _, i) = q.pop().expect("non-send branch requires a queued compute");
            debug_assert!(t >= now, "time must be monotone");
            now = t;
            if RECORD {
                events.push(SimEvent { time: t, kind: SimEventKind::ComputeEnd, proc: i as usize });
            }
            timeline.finish[i as usize] = t;
            qmin = q.peek();
        }
    }
    drop(run_span);
    let events_processed = 4 * p as u64;
    let stats = q.stats();
    star_span.attr("p", p);
    star_span.attr("events", events_processed);
    star_span.attr("queue_peak", stats.peak_len);
    star_span.attr("makespan", now);
    let reg = gs_scatter::metrics::Registry::global();
    reg.counter("sim_runs_total", "discrete-event scatter simulations run").inc();
    reg.counter("sim_events_total", "simulator events processed").add(events_processed);
    reg.gauge("sim_queue_depth", "peak pending events in the last simulator run")
        .set(stats.peak_len as f64);
    reg.counter("sim_queue_resizes_total", "calendar-queue bucket-array rebuilds")
        .add(stats.resizes);
    BigScatterSim {
        timeline,
        makespan: now,
        events_processed,
        queue_peak: stats.peak_len,
        events,
    }
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
        assert!(sim.queue_peak > 0);
        // Every rank finished after its transfer completed.
        assert!(sim
            .timeline
            .finish
            .iter()
            .zip(&sim.timeline.comm_end)
            .all(|(f, c)| f >= c));
    }
}
