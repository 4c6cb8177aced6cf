//! Unified observability: one event schema for predicted, simulated and
//! executed scatters.
//!
//! The paper compares three views of the same operation: the schedule the
//! planner *predicts* from Eq. (1), the schedule a discrete-event
//! simulation *derives* from the same cost model, and the schedule a run
//! of the (mini-)MPI program actually *executes*. This module gives all
//! three a common trace format so they can be aggregated, exported and
//! diffed by the same code:
//!
//! * [`Event`] / [`EventKind`] — one timestamped occurrence on one rank
//!   (send start/end, compute start/end, idle);
//! * [`Trace`] — a full run: event list plus rank names, item size and
//!   provenance ([`TraceSource`]), built from per-rank busy [`Interval`]s
//!   by [`Trace::from_intervals`], the one builder every producer maps
//!   onto;
//! * [`TraceSummary`] — per-rank busy/idle/comm breakdowns, per-link byte
//!   totals and the makespan, derived from any trace;
//! * [`json`] / [`csv`] — versioned serialization (see
//!   `docs/observability.md` for the normative schema description);
//! * [`span`] — hierarchical wall/virtual-clock span tracing with
//!   Chrome trace-event export (the *inside-one-operation* view,
//!   orthogonal to the schedule-level trace above).
//!
//! The schema is versioned: [`SCHEMA_VERSION`] is embedded in every JSON
//! export and checked on import.
//!
//! ## Mapping to paper quantities
//!
//! For a trace built from an Eq. (1) timeline (see
//! [`Trace::from_timeline`]):
//!
//! * the largest event time is the makespan `T` of Eq. (2);
//! * a rank's receive interval `[SendStart, SendEnd]` is its
//!   `Tcomm(i, n_i)` term, and its compute interval is `Tcomp(i, n_i)`;
//! * idle time before the first `SendStart` is the per-processor "stair
//!   effect" of Fig. 1.

use std::fmt;

use crate::distribution::Timeline;

pub mod csv;
pub mod json;
pub mod span;
mod summary;

pub use summary::{LinkBytes, RankSummary, TraceSummary};

/// Version of the trace schema emitted by [`json::trace_to_json`] and
/// accepted by [`json::trace_from_json`]. Bumped on any incompatible
/// change; see `docs/observability.md` for the change policy.
pub const SCHEMA_VERSION: u32 = 1;

/// What happened at an [`Event`]'s timestamp.
///
/// Send events are recorded on the **receiving** rank (`Event::rank`),
/// with the sender in `Event::peer` — a transfer occupies the sender's
/// port and the receiver's link for the same interval, and aggregation
/// charges both sides from the one event pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The sender's port starts transmitting this rank's block.
    SendStart,
    /// The block has fully arrived (sender's port is free again).
    SendEnd,
    /// The rank starts computing on its block.
    ComputeStart,
    /// The rank finished computing.
    ComputeEnd,
    /// The rank is idle from this timestamp until its next event (or the
    /// end of the trace). Idle events are informative markers emitted by
    /// trace builders; aggregation re-derives idle time from the gaps
    /// between busy intervals and does not trust them blindly.
    Idle,
}

impl EventKind {
    /// The schema's wire name for this kind (`send_start`, `send_end`,
    /// `compute_start`, `compute_end`, `idle`).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SendStart => "send_start",
            EventKind::SendEnd => "send_end",
            EventKind::ComputeStart => "compute_start",
            EventKind::ComputeEnd => "compute_end",
            EventKind::Idle => "idle",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "send_start" => EventKind::SendStart,
            "send_end" => EventKind::SendEnd,
            "compute_start" => EventKind::ComputeStart,
            "compute_end" => EventKind::ComputeEnd,
            "idle" => EventKind::Idle,
            _ => return None,
        })
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timestamped occurrence on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual time, seconds from the start of the operation.
    pub t: f64,
    /// What happened.
    pub kind: EventKind,
    /// The rank the event concerns. For send events this is the
    /// **receiver** (the rank whose block is on the wire).
    pub rank: usize,
    /// The other endpoint of a transfer (the sender, for send events).
    /// `None` for compute and idle events. A send whose `peer` equals
    /// `rank` is the root keeping its own block: zero wire time, but the
    /// bytes still count towards conservation totals.
    pub peer: Option<usize>,
    /// Half-open range `[lo, hi)` of global item indices this event
    /// concerns, when known (blocks are laid out contiguously in scatter
    /// order, so a block is always one range).
    pub items: Option<(u64, u64)>,
    /// Payload size in bytes for send events; 0 for compute and idle.
    pub bytes: u64,
}

impl Event {
    /// A send-phase event (start or end) on receiver `rank` from `peer`.
    pub fn send(kind: EventKind, t: f64, rank: usize, peer: usize, bytes: u64) -> Event {
        debug_assert!(matches!(kind, EventKind::SendStart | EventKind::SendEnd));
        Event { t, kind, rank, peer: Some(peer), items: None, bytes }
    }

    /// A compute-phase event (start or end) on `rank`.
    pub fn compute(kind: EventKind, t: f64, rank: usize) -> Event {
        debug_assert!(matches!(kind, EventKind::ComputeStart | EventKind::ComputeEnd));
        Event { t, kind, rank, peer: None, items: None, bytes: 0 }
    }

    /// An idle marker on `rank` starting at `t`.
    pub fn idle(t: f64, rank: usize) -> Event {
        Event { t, kind: EventKind::Idle, rank, peer: None, items: None, bytes: 0 }
    }

    /// Sets the item range (builder style).
    pub fn with_items(mut self, lo: u64, hi: u64) -> Event {
        self.items = Some((lo, hi));
        self
    }
}

/// What a rank is busy with over an [`Interval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Receiving a transfer from `peer`, whose port is busy over the same
    /// interval. `peer == rank` is the root keeping its own block.
    Send {
        /// The sending rank.
        peer: usize,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Computing.
    Compute,
}

/// One busy interval of one rank: the input of [`Trace::from_intervals`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// The rank the interval is recorded on (the receiver of a send).
    pub rank: usize,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// What the rank does.
    pub activity: Activity,
    /// Half-open range of global item indices concerned, when known.
    pub items: Option<(u64, u64)>,
}

impl Interval {
    /// A transfer of `bytes` from `peer` to `rank` over `[start, end]`.
    pub fn send(rank: usize, peer: usize, bytes: u64, start: f64, end: f64) -> Interval {
        Interval { rank, start, end, activity: Activity::Send { peer, bytes }, items: None }
    }

    /// A compute phase of `rank` over `[start, end]`.
    pub fn compute(rank: usize, start: f64, end: f64) -> Interval {
        Interval { rank, start, end, activity: Activity::Compute, items: None }
    }

    /// Sets the item range (builder style).
    pub fn with_items(mut self, items: Option<(u64, u64)>) -> Interval {
        self.items = items;
        self
    }
}

/// Which layer produced a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceSource {
    /// The planner's analytic Eq. (1) schedule.
    Predicted,
    /// The gs-gridsim discrete-event simulation.
    Simulated,
    /// A real run on the gs-minimpi runtime (virtual clocks).
    Executed,
}

impl TraceSource {
    /// The schema's wire name (`predicted`, `simulated`, `executed`).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceSource::Predicted => "predicted",
            TraceSource::Simulated => "simulated",
            TraceSource::Executed => "executed",
        }
    }

    /// Parses a wire name back into a source.
    pub fn parse(s: &str) -> Option<TraceSource> {
        Some(match s {
            "predicted" => TraceSource::Predicted,
            "simulated" => TraceSource::Simulated,
            "executed" => TraceSource::Executed,
            _ => return None,
        })
    }
}

impl fmt::Display for TraceSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How long planning took, and with what solver configuration.
///
/// Produced by the planner (and by the parallel DP engine in
/// `crate::parallel`) and optionally attached to a [`Trace`], so
/// predicted/simulated/executed reports can show planning cost next to
/// the makespan they explain. Serialized as the optional `plan_timing`
/// object of the JSON schema — absent in traces from older writers, which
/// keeps [`SCHEMA_VERSION`] unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanTiming {
    /// Which planning strategy ran (`exact`, `exact-basic`, `heuristic`,
    /// `closed-form`, `uniform`).
    pub strategy: String,
    /// Worker threads the DP engine used (1 for serial and for non-DP
    /// strategies).
    pub threads: usize,
    /// Whether upper-bound pruning was active.
    pub pruned: bool,
    /// Seconds spent tabulating cost functions (0 for non-DP strategies
    /// and for banded solves, which evaluate their costs in the cell).
    pub tabulate_secs: f64,
    /// Seconds spent in the solve proper.
    pub solve_secs: f64,
    /// Total wall-clock seconds for the planning call, including
    /// validation.
    pub total_secs: f64,
    /// Cost-table lookups answered from cache during this solve.
    pub cache_hits: u64,
    /// Cost-table lookups that had to tabulate during this solve.
    pub cache_misses: u64,
}

impl PlanTiming {
    /// Timing for a strategy without a tabulate/solve split (the
    /// heuristic, closed form and uniform strategies): everything counts
    /// as solve time.
    pub fn simple(strategy: &str, total_secs: f64) -> PlanTiming {
        PlanTiming {
            strategy: strategy.to_string(),
            threads: 1,
            pruned: false,
            tabulate_secs: 0.0,
            solve_secs: total_secs,
            total_secs,
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

/// What a fault-layer [`Incident`] records.
///
/// Incidents are the robustness counterpart of [`EventKind`]: they do not
/// carry schedule intervals (a failed send moves no bytes and must not
/// disturb byte conservation or interval bracketing), so they live in a
/// separate, optional side-channel of the trace — the `incidents` array
/// of the JSON schema, absent in fault-free traces, which keeps
/// [`SCHEMA_VERSION`] at 1. See `docs/robustness.md` for the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncidentKind {
    /// A send attempt failed (transient failure, timeout, or the receiver
    /// crashed before the transfer completed), or a rank was declared
    /// dead after exhausting its retries.
    Fault,
    /// The root re-attempts a failed transfer after a backoff.
    Retry,
    /// The root re-planned the residual (undelivered) items over the
    /// surviving ranks.
    Replan,
}

impl IncidentKind {
    /// The schema's wire name (`fault`, `retry`, `replan`).
    pub fn as_str(self) -> &'static str {
        match self {
            IncidentKind::Fault => "fault",
            IncidentKind::Retry => "retry",
            IncidentKind::Replan => "replan",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<IncidentKind> {
        Some(match s {
            "fault" => IncidentKind::Fault,
            "retry" => IncidentKind::Retry,
            "replan" => IncidentKind::Replan,
            _ => return None,
        })
    }
}

impl fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One fault-layer occurrence: a failed attempt, a retry, or a re-plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Virtual time of the occurrence (for a failed attempt: when the
    /// failure was detected, i.e. the timeout expiry).
    pub t: f64,
    /// What happened.
    pub kind: IncidentKind,
    /// The rank the incident concerns (the intended receiver for
    /// fault/retry; the root for replan).
    pub rank: usize,
    /// Number of data items involved (the undelivered block size for
    /// fault/retry, the residual pool size for replan).
    pub items: u64,
    /// Free-form human-readable detail (`attempt 2/3 timed out`, …).
    pub info: String,
}

/// A malformed trace (or trace serialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace error: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

/// A complete trace of one scatter + compute operation.
///
/// Events are kept globally sorted by time (stable, so the per-rank
/// emission order survives ties); [`Trace::push`] maintains this lazily
/// and [`Trace::sort_events`] restores it.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Which layer produced the trace.
    pub source: TraceSource,
    /// Size of one data item in bytes (0 when unknown). When non-zero,
    /// a send event carrying an item range must satisfy
    /// `bytes == (hi − lo) · item_bytes` — validated by
    /// [`Trace::validate`].
    pub item_bytes: u64,
    /// Display name of each rank; `names.len()` is the rank count and
    /// every event's `rank`/`peer` must index into it.
    pub names: Vec<String>,
    /// The events, sorted by time.
    pub events: Vec<Event>,
    /// How long planning took, when known. Optional — traces parsed from
    /// older exports (or built without a planner) leave it `None`.
    pub plan_timing: Option<PlanTiming>,
    /// Fault-layer incidents (failed attempts, retries, re-plans), in
    /// time order. Empty for fault-free traces — and absent from their
    /// JSON exports, which keeps the schema at version 1.
    pub incidents: Vec<Incident>,
    /// Optional scenario label distinguishing traces that share a
    /// [`TraceSource`] (e.g. `degraded` vs `recovered` simulated runs of
    /// the same faulty grid). Serialized as the optional `label` field.
    pub label: Option<String>,
    /// Optional frozen metrics of the process that produced the trace
    /// (see [`crate::metrics`]). Opt-in: producers never attach it
    /// automatically — a metrics block describes a *process*, not the
    /// schedule, so attaching it would break trace-equality comparisons
    /// between layers. Serialized as the optional `metrics` object,
    /// which keeps the schema at version 1.
    pub metrics: Option<crate::metrics::MetricsSnapshot>,
}

impl Trace {
    /// An empty trace over the given ranks.
    pub fn new(source: TraceSource, item_bytes: u64, names: Vec<String>) -> Trace {
        Trace {
            source,
            item_bytes,
            names,
            events: Vec::new(),
            plan_timing: None,
            incidents: Vec::new(),
            label: None,
            metrics: None,
        }
    }

    /// An empty trace over interned rank ids (see [`crate::intern`]).
    ///
    /// Each id resolves through `interner` to its display name; ids the
    /// interner does not know render as `#<id>` placeholders, which
    /// consumers holding sibling traces of the same platform can
    /// re-resolve by rank position (`gs report` does).
    pub fn new_interned(
        source: TraceSource,
        item_bytes: u64,
        ids: &[u32],
        interner: &crate::intern::NameInterner,
    ) -> Trace {
        Trace::new(source, item_bytes, ids.iter().map(|&id| interner.resolve(id)).collect())
    }

    /// The trace's display name: the source, refined by the scenario
    /// label when one is set (`simulated/recovered`).
    pub fn display_name(&self) -> String {
        match &self.label {
            Some(l) => format!("{}/{l}", self.source),
            None => self.source.to_string(),
        }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.names.len()
    }

    /// Appends an event (call [`Trace::sort_events`] after out-of-order
    /// pushes).
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Restores global time order (stable: ties keep insertion order, so
    /// emit each rank's events in causal order).
    pub fn sort_events(&mut self) {
        self.events
            .sort_by(|a, b| a.t.partial_cmp(&b.t).expect("event times must not be NaN"));
    }

    /// The trace's makespan: the largest event timestamp (0 if empty).
    pub fn makespan(&self) -> f64 {
        self.events.iter().map(|e| e.t).fold(0.0, f64::max)
    }

    /// Events concerning `rank` (in time order).
    pub fn events_for_rank(&self, rank: usize) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.rank == rank)
    }

    /// Builds a trace from per-rank busy intervals. Every producer's
    /// schedule — predicted, simulated, executed, with or without faults —
    /// becomes events here and nowhere else.
    ///
    /// Each interval becomes a start/end event pair on its rank. Idle
    /// markers follow one rule, the busy definition of [`TraceSummary`]: a
    /// send is busy for its receiver and for its sender (`peer`), a compute
    /// for its rank. Every gap in a rank's busy time before the makespan
    /// (the largest interval end) opens with an idle marker — the wait
    /// before a rank's first busy instant, a pause between two intervals,
    /// and the wait after its last one.
    ///
    /// Events come out sorted by time. At equal times ranks appear in
    /// order, and within a rank intervals follow their start times with a
    /// send before a compute, so a receive ends before the compute it
    /// enables starts.
    ///
    /// # Panics
    /// Panics if an interval's rank or sender does not index `names`.
    pub fn from_intervals(
        source: TraceSource,
        item_bytes: u64,
        names: &[&str],
        intervals: impl IntoIterator<Item = Interval>,
    ) -> Trace {
        let p = names.len();
        let mut trace =
            Trace::new(source, item_bytes, names.iter().map(|s| s.to_string()).collect());
        let mut intervals: Vec<Interval> = intervals.into_iter().collect();
        intervals.sort_by(|a, b| {
            let is_compute = |i: &Interval| i.activity == Activity::Compute;
            a.rank
                .cmp(&b.rank)
                .then(a.start.total_cmp(&b.start))
                .then(is_compute(a).cmp(&is_compute(b)))
        });
        let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); p];
        let mut makespan = 0.0f64;
        for iv in &intervals {
            busy[iv.rank].push((iv.start, iv.end));
            if let Activity::Send { peer, .. } = iv.activity {
                if peer != iv.rank {
                    busy[peer].push((iv.start, iv.end));
                }
            }
            makespan = makespan.max(iv.end);
        }
        let mut next = intervals.iter().peekable();
        for (rank, busy) in busy.iter_mut().enumerate() {
            while let Some(iv) = next.next_if(|iv| iv.rank == rank) {
                let (start, end) = match iv.activity {
                    Activity::Send { peer, bytes } => (
                        Event::send(EventKind::SendStart, iv.start, rank, peer, bytes),
                        Event::send(EventKind::SendEnd, iv.end, rank, peer, bytes),
                    ),
                    Activity::Compute => (
                        Event::compute(EventKind::ComputeStart, iv.start, rank),
                        Event::compute(EventKind::ComputeEnd, iv.end, rank),
                    ),
                };
                trace.push(Event { items: iv.items, ..start });
                trace.push(Event { items: iv.items, ..end });
            }
            // `free_from` is where the busy time merged so far ends.
            busy.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut free_from = 0.0f64;
            for &(start, end) in busy.iter() {
                if start > free_from {
                    trace.push(Event::idle(free_from, rank));
                }
                free_from = free_from.max(end);
            }
            if free_from < makespan {
                trace.push(Event::idle(free_from, rank));
            }
        }
        trace.sort_events();
        trace
    }

    /// Builds the trace of an Eq. (1) [`Timeline`].
    ///
    /// `names` and `counts` are in scatter order (root last, as produced
    /// by the planner); blocks are laid out contiguously in that order,
    /// which fixes each rank's item range. The root's own block appears
    /// as a zero-duration self-send so that byte totals conserve:
    /// Σ link bytes = Σ counts · `item_bytes`.
    pub fn from_timeline(
        source: TraceSource,
        names: &[&str],
        counts: &[usize],
        item_bytes: u64,
        tl: &Timeline,
    ) -> Trace {
        assert_eq!(names.len(), counts.len(), "one count per rank");
        assert_eq!(names.len(), tl.finish.len(), "one timeline row per rank");
        let root = names.len().saturating_sub(1); // scatter order puts the root last
        let mut intervals = Vec::with_capacity(2 * counts.len());
        let mut lo = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            let items = Some((lo, lo + count as u64));
            lo += count as u64;
            let bytes = count as u64 * item_bytes;
            let (start, end) = (tl.comm_start[i], tl.comm_end[i]);
            intervals.push(Interval::send(i, root, bytes, start, end).with_items(items));
            intervals.push(Interval::compute(i, end, tl.finish[i]).with_items(items));
        }
        Trace::from_intervals(source, item_bytes, names, intervals)
    }

    /// Reconstructs a [`Timeline`] view of the trace: per rank, the first
    /// send interval and the last compute end. Lossy for traces with
    /// several phases per rank (multi-round runs); exact for traces built
    /// by [`Trace::from_timeline`] and for single-scatter runs.
    pub fn to_timeline(&self) -> Timeline {
        let p = self.num_ranks();
        let mut comm_start = vec![f64::NAN; p];
        let mut comm_end = vec![f64::NAN; p];
        let mut finish = vec![f64::NAN; p];
        for e in &self.events {
            match e.kind {
                EventKind::SendStart if comm_start[e.rank].is_nan() => comm_start[e.rank] = e.t,
                EventKind::SendEnd if comm_end[e.rank].is_nan() => comm_end[e.rank] = e.t,
                EventKind::ComputeEnd => finish[e.rank] = e.t,
                _ => {}
            }
        }
        // Ranks with no events of a kind fall back sensibly: a rank that
        // never received starts at 0; one that never computed finishes
        // when its block arrived.
        for i in 0..p {
            if comm_start[i].is_nan() {
                comm_start[i] = 0.0;
            }
            if comm_end[i].is_nan() {
                comm_end[i] = comm_start[i];
            }
            if finish[i].is_nan() {
                finish[i] = comm_end[i];
            }
        }
        Timeline { comm_start, comm_end, finish }
    }

    /// Checks every schema-v1 invariant (documented in
    /// `docs/observability.md`):
    ///
    /// 1. timestamps are finite and non-negative;
    /// 2. `rank` and `peer` index into `names`;
    /// 3. item ranges satisfy `lo ≤ hi`, and send bytes equal
    ///    `(hi − lo) · item_bytes` when both are known;
    /// 4. per rank, timestamps are non-decreasing;
    /// 5. per rank, send and compute intervals are properly bracketed
    ///    (every end closes a matching open start, nothing left open) and
    ///    an end carries the same `peer`/`bytes` as its start;
    /// 6. idle markers never fall strictly inside one of that rank's
    ///    send or compute intervals;
    /// 7. incidents carry finite non-negative timestamps, in-range ranks,
    ///    and appear in time order.
    pub fn validate(&self) -> Result<(), TraceError> {
        let p = self.num_ranks();
        let err = |msg: String| Err(TraceError(msg));
        let mut last_t = vec![0.0f64; p];
        let mut open_send: Vec<Option<&Event>> = vec![None; p];
        let mut open_compute: Vec<Option<&Event>> = vec![None; p];
        for (i, e) in self.events.iter().enumerate() {
            if !e.t.is_finite() || e.t < 0.0 {
                return err(format!("event {i}: bad timestamp {}", e.t));
            }
            if e.rank >= p {
                return err(format!("event {i}: rank {} out of range (p={p})", e.rank));
            }
            if let Some(peer) = e.peer {
                if peer >= p {
                    return err(format!("event {i}: peer {peer} out of range (p={p})"));
                }
            }
            if let Some((lo, hi)) = e.items {
                if lo > hi {
                    return err(format!("event {i}: item range {lo}..{hi} is inverted"));
                }
                let is_send = matches!(e.kind, EventKind::SendStart | EventKind::SendEnd);
                if is_send && self.item_bytes > 0 && e.bytes != (hi - lo) * self.item_bytes {
                    return err(format!(
                        "event {i}: {} bytes but {} items of {} bytes each",
                        e.bytes,
                        hi - lo,
                        self.item_bytes
                    ));
                }
            }
            if e.t < last_t[e.rank] {
                return err(format!(
                    "event {i}: rank {} goes back in time ({} < {})",
                    e.rank, e.t, last_t[e.rank]
                ));
            }
            last_t[e.rank] = e.t;
            match e.kind {
                EventKind::SendStart => {
                    if open_send[e.rank].is_some() {
                        return err(format!("event {i}: rank {} opens a nested send", e.rank));
                    }
                    open_send[e.rank] = Some(e);
                }
                EventKind::SendEnd => match open_send[e.rank].take() {
                    None => return err(format!("event {i}: rank {} ends an unopened send", e.rank)),
                    Some(start) => {
                        if start.peer != e.peer || start.bytes != e.bytes {
                            return err(format!(
                                "event {i}: send end does not match its start \
                                 (peer {:?}/{:?}, bytes {}/{})",
                                start.peer, e.peer, start.bytes, e.bytes
                            ));
                        }
                    }
                },
                EventKind::ComputeStart => {
                    if open_compute[e.rank].is_some() {
                        return err(format!("event {i}: rank {} opens a nested compute", e.rank));
                    }
                    open_compute[e.rank] = Some(e);
                }
                EventKind::ComputeEnd => {
                    if open_compute[e.rank].take().is_none() {
                        return err(format!(
                            "event {i}: rank {} ends an unopened compute",
                            e.rank
                        ));
                    }
                }
                EventKind::Idle => {
                    let inside_send =
                        open_send[e.rank].is_some_and(|s| e.t > s.t);
                    let inside_compute =
                        open_compute[e.rank].is_some_and(|s| e.t > s.t);
                    if inside_send || inside_compute {
                        return err(format!(
                            "event {i}: rank {} idle inside a busy interval",
                            e.rank
                        ));
                    }
                }
            }
        }
        for r in 0..p {
            if open_send[r].is_some() {
                return err(format!("rank {r}: send never ends"));
            }
            if open_compute[r].is_some() {
                return err(format!("rank {r}: compute never ends"));
            }
        }
        let mut last_incident = 0.0f64;
        for (i, inc) in self.incidents.iter().enumerate() {
            if !inc.t.is_finite() || inc.t < 0.0 {
                return err(format!("incident {i}: bad timestamp {}", inc.t));
            }
            if inc.rank >= p {
                return err(format!("incident {i}: rank {} out of range (p={p})", inc.rank));
            }
            if inc.t < last_incident {
                return err(format!(
                    "incident {i}: goes back in time ({} < {last_incident})",
                    inc.t
                ));
            }
            last_incident = inc.t;
        }
        Ok(())
    }

    /// Validates, then aggregates into a [`TraceSummary`].
    pub fn summarize(&self) -> Result<TraceSummary, TraceError> {
        self.validate()?;
        Ok(TraceSummary::from_trace(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Processor;
    use crate::distribution::timeline;

    fn sample_timeline() -> (Vec<Processor>, Vec<usize>, Timeline) {
        let procs = vec![
            Processor::linear("p1", 1.0, 2.0),
            Processor::linear("p2", 2.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ];
        let view: Vec<&Processor> = procs.iter().collect();
        let counts = vec![3usize, 2, 1];
        let tl = timeline(&view, &counts);
        (procs, counts, tl)
    }

    fn sample_trace() -> Trace {
        let (_procs, counts, tl) = sample_timeline();
        Trace::from_timeline(TraceSource::Predicted, &["p1", "p2", "root"], &counts, 8, &tl)
    }

    #[test]
    fn from_timeline_is_valid_and_sorted() {
        let trace = sample_trace();
        trace.validate().unwrap();
        assert!(trace.events.windows(2).all(|w| w[0].t <= w[1].t));
        assert_eq!(trace.makespan(), 9.0);
    }

    #[test]
    fn from_timeline_round_trips_to_timeline() {
        let (_procs, counts, tl) = sample_timeline();
        let trace =
            Trace::from_timeline(TraceSource::Predicted, &["p1", "p2", "root"], &counts, 8, &tl);
        assert_eq!(trace.to_timeline(), tl);
    }

    #[test]
    fn item_ranges_tile_the_buffer() {
        let trace = sample_trace();
        let mut ranges: Vec<(u64, u64)> = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SendEnd)
            .map(|e| e.items.unwrap())
            .collect();
        ranges.sort();
        assert_eq!(ranges, vec![(0, 3), (3, 5), (5, 6)]);
        let total: u64 = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SendEnd)
            .map(|e| e.bytes)
            .sum();
        assert_eq!(total, 6 * 8);
    }

    #[test]
    fn kind_and_source_wire_names_round_trip() {
        for k in [
            EventKind::SendStart,
            EventKind::SendEnd,
            EventKind::ComputeStart,
            EventKind::ComputeEnd,
            EventKind::Idle,
        ] {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
        for s in [TraceSource::Predicted, TraceSource::Simulated, TraceSource::Executed] {
            assert_eq!(TraceSource::parse(s.as_str()), Some(s));
        }
        assert_eq!(EventKind::parse("warp"), None);
        assert_eq!(TraceSource::parse("dreamt"), None);
    }

    #[test]
    fn validate_rejects_out_of_range_rank() {
        let mut trace = sample_trace();
        trace.events[0].rank = 99;
        assert!(trace.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_byte_count() {
        let mut trace = sample_trace();
        let i = trace
            .events
            .iter()
            .position(|e| e.kind == EventKind::SendStart)
            .unwrap();
        trace.events[i].bytes += 1;
        assert!(trace.validate().is_err());
    }

    #[test]
    fn validate_rejects_unbalanced_intervals() {
        let mut trace = Trace::new(TraceSource::Executed, 0, vec!["a".into()]);
        trace.push(Event::send(EventKind::SendStart, 0.0, 0, 0, 10));
        assert!(trace.validate().unwrap_err().0.contains("never ends"));
        trace.push(Event::send(EventKind::SendEnd, 1.0, 0, 0, 10));
        trace.validate().unwrap();
        trace.push(Event::compute(EventKind::ComputeEnd, 2.0, 0));
        assert!(trace.validate().unwrap_err().0.contains("unopened compute"));
    }

    #[test]
    fn validate_rejects_time_travel() {
        let mut trace = Trace::new(TraceSource::Executed, 0, vec!["a".into()]);
        trace.push(Event::compute(EventKind::ComputeStart, 5.0, 0));
        trace.push(Event::compute(EventKind::ComputeEnd, 3.0, 0));
        assert!(trace.validate().unwrap_err().0.contains("back in time"));
    }

    #[test]
    fn validate_rejects_idle_inside_busy() {
        let mut trace = Trace::new(TraceSource::Executed, 0, vec!["a".into()]);
        trace.push(Event::compute(EventKind::ComputeStart, 0.0, 0));
        trace.push(Event::idle(1.0, 0));
        trace.push(Event::compute(EventKind::ComputeEnd, 2.0, 0));
        assert!(trace.validate().unwrap_err().0.contains("idle inside"));
    }

    #[test]
    fn empty_trace_is_valid() {
        let trace = Trace::new(TraceSource::Predicted, 8, vec![]);
        trace.validate().unwrap();
        assert_eq!(trace.makespan(), 0.0);
    }

    #[test]
    fn incident_kind_wire_names_round_trip() {
        for k in [IncidentKind::Fault, IncidentKind::Retry, IncidentKind::Replan] {
            assert_eq!(IncidentKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(IncidentKind::parse("meltdown"), None);
    }

    #[test]
    fn validate_checks_incidents() {
        let mut trace = sample_trace();
        trace.incidents.push(Incident {
            t: 1.0,
            kind: IncidentKind::Fault,
            rank: 0,
            items: 3,
            info: "attempt 1/3 timed out".into(),
        });
        trace.validate().unwrap();
        trace.incidents[0].rank = 99;
        assert!(trace.validate().unwrap_err().0.contains("out of range"));
        trace.incidents[0].rank = 0;
        trace.incidents[0].t = f64::NAN;
        assert!(trace.validate().unwrap_err().0.contains("bad timestamp"));
        trace.incidents[0].t = 5.0;
        trace.incidents.push(Incident {
            t: 2.0,
            kind: IncidentKind::Retry,
            rank: 0,
            items: 3,
            info: String::new(),
        });
        assert!(trace.validate().unwrap_err().0.contains("back in time"));
    }

    #[test]
    fn display_name_includes_label() {
        let mut trace = sample_trace();
        assert_eq!(trace.display_name(), "predicted");
        trace.label = Some("recovered".into());
        assert_eq!(trace.display_name(), "predicted/recovered");
    }

    fn kinds(trace: &Trace, rank: usize) -> Vec<(EventKind, f64)> {
        trace.events_for_rank(rank).map(|e| (e.kind, e.t)).collect()
    }

    #[test]
    fn root_port_time_is_busy_not_idle() {
        // The root sends during [0, 7] and computes during [7, 8]; the
        // makespan is 9, so its only idle time is the tail.
        use EventKind::*;
        let trace = sample_trace();
        assert_eq!(
            kinds(&trace, 2),
            [(SendStart, 7.0), (SendEnd, 7.0), (ComputeStart, 7.0), (ComputeEnd, 8.0), (Idle, 8.0)]
        );
        assert_eq!(kinds(&trace, 1)[0], (Idle, 0.0), "p2 waits for p1's transfer");
    }

    #[test]
    fn from_intervals_marks_every_gap() {
        use EventKind::*;
        let trace = Trace::from_intervals(
            TraceSource::Executed,
            0,
            &["a", "b", "c"],
            [
                Interval::compute(0, 4.0, 5.0),
                Interval::send(0, 1, 16, 1.0, 2.0),
                Interval::compute(1, 6.0, 6.0),
            ],
        );
        trace.validate().unwrap();
        // Sorted by start within the rank, a marker at every gap.
        assert_eq!(
            kinds(&trace, 0),
            [(Idle, 0.0), (SendStart, 1.0), (SendEnd, 2.0), (Idle, 2.0), (ComputeStart, 4.0), (ComputeEnd, 5.0), (Idle, 5.0)]
        );
        // The sender's port is busy over the transfer; a zero-length
        // interval ends a gap like any other.
        assert_eq!(
            kinds(&trace, 1),
            [(Idle, 0.0), (Idle, 2.0), (ComputeStart, 6.0), (ComputeEnd, 6.0)]
        );
        // A rank that never works is idle from the start.
        assert_eq!(kinds(&trace, 2), [(Idle, 0.0)]);
        assert_eq!(trace.makespan(), 6.0);
    }

    #[test]
    fn receive_ends_before_the_compute_it_enables() {
        use EventKind::*;
        let trace = Trace::from_intervals(
            TraceSource::Executed,
            0,
            &["w", "root"],
            [Interval::compute(0, 3.0, 4.0), Interval::send(0, 1, 8, 0.0, 3.0)],
        );
        assert_eq!(
            kinds(&trace, 0),
            [(SendStart, 0.0), (SendEnd, 3.0), (ComputeStart, 3.0), (ComputeEnd, 4.0)]
        );
        // An empty block and its empty compute start together: the
        // receive still comes first, whatever the input order.
        let trace = Trace::from_intervals(
            TraceSource::Executed,
            0,
            &["w", "root"],
            [Interval::compute(0, 2.0, 2.0), Interval::send(0, 1, 0, 2.0, 2.0)],
        );
        assert_eq!(
            kinds(&trace, 0),
            [(Idle, 0.0), (SendStart, 2.0), (SendEnd, 2.0), (ComputeStart, 2.0), (ComputeEnd, 2.0)]
        );
        assert!(Trace::from_intervals(TraceSource::Executed, 0, &["a"], []).events.is_empty());
    }

    #[test]
    fn events_for_rank_filters() {
        let trace = sample_trace();
        assert!(trace.events_for_rank(1).all(|e| e.rank == 1));
        // p2 waits (idle), receives, computes, and finishes at the
        // makespan: idle + 2 send + 2 compute events.
        assert_eq!(trace.events_for_rank(1).count(), 5);
    }
}
