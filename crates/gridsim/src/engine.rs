//! A minimal discrete-event engine: a time-ordered queue of closures.
//!
//! Kept deliberately small — the scatter model needs only a handful of
//! event kinds — but genuinely event-driven so extensions (multi-port
//! roots, overlapping rounds, failures) slot in without restructuring.
//!
//! Pending events live in a binary heap popped in strictly ascending
//! `(time, seq)` order (see `docs/simulation.md`). An ideal star needs
//! no queue at all: the fast path ([`crate::bigsim`]), which takes
//! simulation past 10⁶ ranks, builds its Eq. (1) timeline with one
//! prefix sum and derives this engine's event order from it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happened, for traces and Gantt rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEventKind {
    /// Root starts sending to a processor.
    SendStart,
    /// A processor finished receiving its block.
    SendEnd,
    /// A processor starts computing.
    ComputeStart,
    /// A processor finished computing.
    ComputeEnd,
}

/// A timestamped event concerning one processor (by scatter-order
/// position).
#[derive(Debug, Clone, PartialEq)]
pub struct SimEvent {
    /// Simulation time, seconds.
    pub time: f64,
    /// Event kind.
    pub kind: SimEventKind,
    /// Scatter-order position of the processor concerned.
    pub proc: usize,
}

type Action = Box<dyn FnOnce(&mut Engine)>;

/// An entry in the pending-event heap.
struct Pending {
    time: f64,
    seq: u64,
    action: Action,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest time pops first;
        // ties break by insertion order (deterministic).
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must not be NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event engine: a virtual clock plus a queue of scheduled actions.
pub struct Engine {
    queue: BinaryHeap<Pending>,
    seq: u64,
    now: f64,
    peak: usize,
    /// Recorded trace, in execution order.
    pub trace: Vec<SimEvent>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// A fresh engine at time zero.
    pub fn new() -> Self {
        Engine { queue: BinaryHeap::new(), seq: 0, now: 0.0, peak: 0, trace: Vec::new() }
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending (not yet executed) events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `action` to run at absolute time `at` (must not be in the
    /// past).
    pub fn schedule_at(&mut self, at: f64, action: impl FnOnce(&mut Engine) + 'static) {
        assert!(at >= self.now, "cannot schedule in the past ({at} < {})", self.now);
        assert!(at.is_finite(), "event time must be finite");
        self.seq += 1;
        self.queue.push(Pending { time: at, seq: self.seq, action: Box::new(action) });
        self.peak = self.peak.max(self.queue.len());
    }

    /// Schedules `action` after a non-negative delay.
    pub fn schedule_after(&mut self, delay: f64, action: impl FnOnce(&mut Engine) + 'static) {
        assert!(delay >= 0.0, "negative delay {delay}");
        let at = self.now + delay;
        self.schedule_at(at, action);
    }

    /// Records a trace event at the current time.
    pub fn record(&mut self, kind: SimEventKind, proc: usize) {
        self.trace.push(SimEvent { time: self.now, kind, proc });
    }

    /// Runs until the queue drains; returns the final time.
    pub fn run(&mut self) -> f64 {
        while let Some(Pending { time, action, .. }) = self.queue.pop() {
            debug_assert!(time >= self.now, "time must be monotone");
            self.now = time;
            action(self);
        }
        gs_scatter::metrics::Registry::global()
            .gauge("sim_queue_depth", "peak pending events in the last simulator run")
            .set(self.peak as f64);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (t, tag) in [(3.0, 'c'), (1.0, 'a'), (2.0, 'b')] {
            let log = log.clone();
            e.schedule_at(t, move |_| log.borrow_mut().push(tag));
        }
        assert_eq!(e.run(), 3.0);
        assert_eq!(*log.borrow(), vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for tag in ['x', 'y', 'z'] {
            let log = log.clone();
            e.schedule_at(5.0, move |_| log.borrow_mut().push(tag));
        }
        e.run();
        assert_eq!(*log.borrow(), vec!['x', 'y', 'z']);
    }

    #[test]
    fn cascading_events() {
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let log2 = log.clone();
        e.schedule_at(1.0, move |e| {
            log2.borrow_mut().push(e.now());
            let log3 = log2.clone();
            e.schedule_after(2.5, move |e| log3.borrow_mut().push(e.now()));
        });
        assert_eq!(e.run(), 3.5);
        assert_eq!(*log.borrow(), vec![1.0, 3.5]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn rejects_past_events() {
        let mut e = Engine::new();
        e.schedule_at(5.0, |e| e.schedule_at(1.0, |_| {}));
        e.run();
    }

    #[test]
    fn trace_recording() {
        let mut e = Engine::new();
        e.schedule_at(2.0, |e| e.record(SimEventKind::SendStart, 7));
        e.run();
        assert_eq!(
            e.trace,
            vec![SimEvent { time: 2.0, kind: SimEventKind::SendStart, proc: 7 }]
        );
    }

    #[test]
    fn deep_queue_fires_in_time_then_insertion_order() {
        // Far more than a thousand pending events, with many exact time
        // ties: pop order must be ascending time, FIFO within a tie.
        const N: u32 = 4096;
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..N {
            let t = ((i * 7919) % 97) as f64 * 0.5;
            let log = log.clone();
            e.schedule_at(t, move |e| log.borrow_mut().push((e.now(), i)));
        }
        assert_eq!(e.pending(), N as usize);
        e.run();
        let fired = log.borrow();
        assert_eq!(fired.len(), N as usize);
        for w in fired.windows(2) {
            let ((t0, i0), (t1, i1)) = (w[0], w[1]);
            assert!(t0 < t1 || (t0 == t1 && i0 < i1), "{:?} fired before {:?}", w[0], w[1]);
        }
    }
}
