//! Per-rank communication tracing, for post-mortem Gantt charts of *real*
//! runs (as opposed to the planner's predictions).
//!
//! Records accumulate per rank; after the world finishes,
//! [`executed_trace`] merges every rank's records into one
//! [`gs_scatter::obs::Trace`] in the shared observability schema, so real
//! runs diff directly against predicted and simulated schedules
//! (`gs report`).

use gs_scatter::obs::{Interval, Trace, TraceSource};

use crate::comm::Comm;

/// Kind of a traced operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOp {
    /// An outgoing transfer (clock time = port occupancy). A `Send`
    /// whose peer is the recording rank itself is a root keeping its own
    /// scatter block (zero duration, bytes still accounted).
    Send,
    /// An incoming receive (clock may jump to the message timestamp).
    Recv,
    /// A modelled compute phase ([`Comm::model_compute`]).
    Compute,
}

/// One traced point-to-point operation on a rank.
#[derive(Debug, Clone, PartialEq)]
pub struct CommRecord {
    /// Operation kind.
    pub op: CommOp,
    /// Peer rank.
    pub peer: usize,
    /// Payload size, bytes.
    pub bytes: usize,
    /// Virtual time when the operation started on this rank.
    pub start: f64,
    /// Virtual time when it completed on this rank.
    pub end: f64,
}

impl Comm {
    /// Enables communication tracing on this rank (records every
    /// point-to-point operation, including those inside collectives).
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Takes the accumulated trace, leaving tracing enabled.
    pub fn take_trace(&mut self) -> Vec<CommRecord> {
        match &mut self.trace {
            Some(t) => std::mem::take(t),
            None => Vec::new(),
        }
    }
}

/// Merges the per-rank records of a finished world into one
/// observability [`Trace`] (source [`TraceSource::Executed`]).
///
/// `records[r]` is rank `r`'s [`Comm::take_trace`] output; `names`
/// labels the ranks (by rank number, *not* scatter order). Wire
/// occupancy is taken from the **sender's** `Send` records — `Recv`
/// records conflate waiting with transfer time and are skipped —
/// so every transfer appears exactly once, as a send-interval on the
/// receiving rank with the sender as peer (the schema's convention).
/// Compute records become compute intervals on their own rank.
///
/// Executed traces carry no item ranges (`item_bytes` is recorded for
/// reference; payload bytes come from the records themselves).
pub fn executed_trace(names: &[&str], item_bytes: u64, records: &[Vec<CommRecord>]) -> Trace {
    assert_eq!(names.len(), records.len(), "one record list per rank");
    let intervals = records.iter().enumerate().flat_map(|(rank, recs)| {
        recs.iter().filter_map(move |r| match r.op {
            CommOp::Send => Some(Interval::send(r.peer, rank, r.bytes as u64, r.start, r.end)),
            CommOp::Compute => Some(Interval::compute(rank, r.start, r.end)),
            CommOp::Recv => None,
        })
    });
    Trace::from_intervals(TraceSource::Executed, item_bytes, names, intervals)
}

#[cfg(test)]
mod tests {
    use crate::{run_world, Tag, TimeModel, WorldConfig};
    use gs_scatter::cost::CostFn;

    use super::*;

    #[test]
    fn tracing_records_sends_and_recvs() {
        let model = TimeModel {
            link: vec![CostFn::Zero, CostFn::Linear { slope: 0.5 }],
            compute: vec![CostFn::Zero; 2],
        };
        let out = run_world(2, WorldConfig::with_time(model), |c| {
            c.enable_tracing();
            if c.rank() == 0 {
                c.send::<u64>(1, Tag::user(1), &[1, 2, 3, 4]); // 32 bytes
            } else {
                let _ = c.recv::<u64>(0, Tag::user(1));
            }
            c.take_trace()
        });
        let t0 = &out[0];
        assert_eq!(t0.len(), 1);
        assert_eq!(t0[0].op, CommOp::Send);
        assert_eq!(t0[0].bytes, 32);
        assert_eq!(t0[0].end - t0[0].start, 16.0); // 32 bytes * 0.5 s/byte
        let t1 = &out[1];
        assert_eq!(t1.len(), 1);
        assert_eq!(t1[0].op, CommOp::Recv);
        assert_eq!(t1[0].end, 16.0, "receiver synced to transfer completion");
    }

    #[test]
    fn tracing_disabled_by_default() {
        let out = run_world(2, WorldConfig::default(), |c| {
            if c.rank() == 0 {
                c.send::<u8>(1, Tag::user(9), &[1]);
            } else {
                let _ = c.recv::<u8>(0, Tag::user(9));
            }
            c.take_trace().len()
        });
        assert_eq!(out, [0, 0]);
    }

    #[test]
    fn compute_phases_are_recorded() {
        let model = TimeModel {
            link: vec![CostFn::Zero; 2],
            compute: vec![CostFn::Linear { slope: 2.0 }, CostFn::Zero],
        };
        let out = run_world(2, WorldConfig::with_time(model), |c| {
            c.enable_tracing();
            c.model_compute(5);
            c.take_trace()
        });
        let rec = &out[0][0];
        assert_eq!(rec.op, CommOp::Compute);
        assert_eq!((rec.start, rec.end), (0.0, 10.0));
        assert_eq!(rec.peer, 0);
    }

    #[test]
    fn executed_trace_from_scatterv_world() {
        // Two workers + root (rank 0), heterogeneous links, Eq.-1 world:
        // the merged executed trace must carry every transfer once and
        // conserve bytes, including the root's kept block.
        let model = TimeModel {
            link: vec![CostFn::Zero, CostFn::Linear { slope: 1.0 }, CostFn::Linear { slope: 2.0 }],
            compute: vec![CostFn::Zero, CostFn::Linear { slope: 0.5 }, CostFn::Linear { slope: 0.5 }],
        };
        let counts = [2usize, 3, 1];
        let records = run_world(3, WorldConfig::with_time(model), move |c| {
            c.enable_tracing();
            let buf: Vec<u64> = (0..6).collect();
            let mine = c.scatterv(0, if c.rank() == 0 { Some(&buf) } else { None }, &counts);
            c.model_compute(mine.len());
            c.take_trace()
        });
        let trace = executed_trace(&["root", "w1", "w2"], 8, &records);
        trace.validate().unwrap();
        let summary = trace.summarize().unwrap();
        // Byte conservation: all 6 u64 items appear on some link.
        assert_eq!(summary.total_bytes, 6 * 8);
        let self_link = summary.links.iter().find(|l| l.src == 0 && l.dst == 0).unwrap();
        assert_eq!(self_link.bytes, 2 * 8);
        // Makespan: root sends 24 B to w1 (t=24), then 8 B to w2
        // (t=24+16=40); w1 computes 3·0.5 done at 25.5; w2 at 40.5.
        assert_eq!(summary.makespan, 40.5);
        assert_eq!(summary.ranks[0].send, 40.0);
        assert_eq!(summary.ranks[2].idle, 40.5 - 16.0 - 0.5);
    }

    #[test]
    fn busy_time_accumulates() {
        let model = TimeModel {
            link: vec![CostFn::Zero, CostFn::Linear { slope: 1.0 }],
            compute: vec![CostFn::Zero; 2],
        };
        let out = run_world(2, WorldConfig::with_time(model), |c| {
            c.enable_tracing();
            if c.rank() == 0 {
                c.send::<u8>(1, Tag::user(1), &[0; 3]);
                c.send::<u8>(1, Tag::user(2), &[0; 5]);
            } else {
                let _ = c.recv::<u8>(0, Tag::user(1));
                let _ = c.recv::<u8>(0, Tag::user(2));
            }
            let sends = c.take_trace().into_iter().filter(|r| r.op == CommOp::Send);
            sends.fold((0, 0.0), |(bytes, busy), r| (bytes + r.bytes, busy + (r.end - r.start)))
        });
        assert_eq!(out, [(8, 8.0), (0, 0.0)]);
    }
}
