//! Fault-tolerant scatter on the minimpi runtime: the executable twin of
//! `gs_gridsim::fault::simulate_scatter_ft`.
//!
//! The root replays the same [`scatter_schedule`] the simulator does —
//! same ranks, same instants, same nominal `Tcomm` values (evaluated
//! item-based from [`FtConfig::procs`], *not* byte-scaled through the
//! world's [`crate::TimeModel`]) — so the executed schedule is
//! **bit-identical** to the simulated one: every delivery interval,
//! retry backoff, re-plan instant and incident string matches exactly.
//! The difference is that here real bytes actually move between rank
//! threads, and each rank computes on the block it physically received.
//!
//! Failed attempts and timeouts exist only in virtual time (the root's
//! clock advances; no message is sent). Liveness of the *threads* is
//! never at stake: after the last round the root sends every rank an
//! out-of-band control message carrying its delivery count, so even a
//! "crashed" rank's thread unblocks and returns the blocks it received
//! before its virtual death. Control messages carry timestamp 0 and are
//! excluded from clocks and traces.

use gs_scatter::cost::Processor;
use gs_scatter::fault::{scatter_schedule, FaultPlan, RecoveryConfig};
use gs_scatter::obs::Incident;

use crate::comm::{op, Comm};
use crate::datum::{decode, encode, Datum};
use crate::message::Tag;
use crate::trace::CommOp;

/// Configuration of a fault-tolerant scatter world.
///
/// Ranks are scatter positions: rank `i` is the `i`-th processor served
/// by the single-port root, and the **root is rank `size − 1`** (the
/// paper's root-last order). `procs` lists the processors in that same
/// order with *item-based* cost functions (as planned by
/// [`gs_scatter::planner::Planner`]): `comm.eval(x)`/`comp.eval(x)` are
/// seconds for `x` items, exactly the numbers Eq. (1) uses.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// What goes wrong (validated against the world size at scatter
    /// time).
    pub faults: FaultPlan,
    /// `Some` = recovered mode (timeout/retry/re-plan); `None` =
    /// degraded fault-oblivious mode.
    pub recovery: Option<RecoveryConfig>,
    /// Processors in rank (= scatter) order, root last.
    pub procs: Vec<Processor>,
    /// *Modeled* wire size of one item, used for the byte counts in
    /// trace records — independent of the physical `T::WIDTH` of the
    /// payload, so executed traces match the simulator's byte
    /// accounting for any `--item-bytes`.
    pub item_bytes: u64,
}

impl Comm {
    /// Takes the incidents recorded by fault-tolerant collectives on
    /// this rank (non-empty only on the root).
    pub fn take_incidents(&mut self) -> Vec<Incident> {
        std::mem::take(&mut self.incidents)
    }

    /// Fault-tolerant `MPI_Scatterv` (root = rank `size − 1`).
    ///
    /// The root sends block `r` of `sendbuf` to rank `r` in rank order
    /// under the fault plan of `config`; in recovered mode, undelivered
    /// items are re-planned over the survivors until everything is
    /// placed. Every rank returns the items it actually received
    /// (possibly empty if it crashed early or the run is degraded;
    /// possibly more than its original block after a re-plan).
    ///
    /// The schedule is [`scatter_schedule`]'s, run from the root's
    /// clock; the root replays its deliveries as byte transfers.
    ///
    /// # Panics
    /// Panics on the root if `sendbuf` is missing or too short, if the
    /// fault plan is invalid for this world, or if the re-plan fails
    /// (e.g. a strategy/cost-model mismatch).
    pub fn scatterv_ft<T: Datum>(
        &mut self,
        config: &FtConfig,
        sendbuf: Option<&[T]>,
        counts: &[usize],
    ) -> Vec<T> {
        assert_eq!(counts.len(), self.size, "one count per rank");
        assert_eq!(config.procs.len(), self.size, "one processor per rank");
        let root = self.size - 1;
        let seq = self.next_seq();
        let data_tag = Tag::collective(op::FT_SCATTER, seq);
        let ctrl_tag = Tag::collective(op::FT_CTRL, seq);

        if self.rank != root {
            // Delivery count first (an out-of-band control message: no
            // clock synchronization, no record); any data messages that
            // raced ahead wait in `pending` and are drained in arrival
            // order.
            let m = decode::<u64>(&self.match_message(root, ctrl_tag).payload)[0];
            let mut mine = Vec::new();
            for _ in 0..m {
                mine.extend(self.recv::<T>(root, data_tag));
            }
            return mine;
        }

        let buf = sendbuf.expect("root must provide the send buffer");
        let total: usize = counts.iter().sum();
        assert!(buf.len() >= total, "send buffer too short: {} < {total}", buf.len());
        let view: Vec<&Processor> = config.procs.iter().collect();
        let schedule =
            scatter_schedule(&view, counts, &config.faults, config.recovery.as_ref(), self.clock)
                .unwrap_or_else(|e| panic!("fault-tolerant scatter failed: {e}"));

        // Replay: each delivery is a send over the oracle's port interval
        // with the modeled wire size, stamped with its end. The root keeps
        // its own share (recorded like any other delivery).
        let mut delivered_msgs = vec![0u64; self.size];
        let mut own: Vec<T> = Vec::new();
        for d in &schedule.deliveries {
            let items: u64 = d.ranges.iter().map(|&(lo, hi)| hi - lo).sum();
            self.record(CommOp::Send, d.rank, (items * config.item_bytes) as usize, d.start, d.end);
            let blocks = d.ranges.iter().map(|&(lo, hi)| &buf[lo as usize..hi as usize]);
            if d.rank == root {
                blocks.for_each(|b| own.extend_from_slice(b));
            } else {
                delivered_msgs[d.rank] += 1;
                let mut payload = Vec::with_capacity(items as usize * T::WIDTH);
                blocks.for_each(|b| payload.extend(encode(b)));
                self.post(d.rank, data_tag, d.end, payload);
            }
        }
        self.incidents.extend(schedule.incidents);
        self.clock = self.clock.max(schedule.port_free);
        // Control messages carry timestamp 0: excluded from clocks.
        for (r, &delivered) in delivered_msgs.iter().enumerate() {
            if r != root {
                self.post(r, ctrl_tag, 0.0, encode(&[delivered]));
            }
        }
        own
    }

    /// Advances the clock by the *faulted* compute time for `items` on
    /// this rank: the item-based `Tcomp` from [`FtConfig::procs`],
    /// stretched by any slowdown fault in effect
    /// ([`FaultPlan::stretched_compute`]). Records a `Compute` trace
    /// record when tracing is enabled; a no-op for zero items (matching
    /// the simulator, which emits no compute phase for empty ranks).
    pub fn model_compute_ft(&mut self, config: &FtConfig, items: usize) {
        if items == 0 {
            return;
        }
        let start = self.clock;
        let nominal = config.procs[self.rank].comp.eval(items);
        self.clock += config.faults.stretched_compute(self.rank, start, nominal);
        self.record(CommOp::Compute, self.rank, items, start, self.clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{executed_trace, run_world, WorldConfig};
    use gs_scatter::obs::Trace;
    use gs_scatter::fault::{Fault, FaultKind};

    fn procs() -> Vec<Processor> {
        vec![
            Processor::linear("a", 1.0, 2.0),
            Processor::linear("b", 2.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ]
    }

    /// Runs the ft scatter world and returns (per-rank items, trace).
    fn run_ft(
        faults: FaultPlan,
        recovery: Option<RecoveryConfig>,
        counts: [usize; 3],
    ) -> (Vec<Vec<u64>>, Trace) {
        let config = FtConfig { faults, recovery, procs: procs(), item_bytes: 8 };
        let recovered = config.recovery.is_some();
        let out = run_world(3, WorldConfig::default(), move |c| {
            c.enable_tracing();
            let data: Vec<u64> = (0..counts.iter().sum::<usize>() as u64).collect();
            let mine = c.scatterv_ft(
                &config,
                if c.rank() == 2 { Some(&data) } else { None },
                &counts,
            );
            c.model_compute_ft(&config, mine.len());
            (mine, c.take_trace(), c.take_incidents())
        });
        let records: Vec<_> = out.iter().map(|(_, r, _)| r.clone()).collect();
        let mut trace = executed_trace(&["a", "b", "root"], 8, &records);
        trace.label = Some(if recovered { "recovered" } else { "degraded" }.to_string());
        trace.incidents = out[2].2.clone();
        (out.into_iter().map(|(m, _, _)| m).collect(), trace)
    }

    #[test]
    fn fault_free_ft_scatter_matches_plain_model() {
        let (items, trace) = run_ft(FaultPlan::none(), None, [3, 2, 1]);
        assert_eq!(items[0], vec![0, 1, 2]);
        assert_eq!(items[1], vec![3, 4]);
        assert_eq!(items[2], vec![5]);
        trace.validate().unwrap();
        let s = trace.summarize().unwrap();
        // Same schedule as the analytic Eq. (1) timeline: a receives
        // [0,3] computes 6 → 9; b receives [3,7] computes 2 → 9.
        assert_eq!(s.makespan, 9.0);
        assert_eq!(s.total_bytes, 6 * 8);
        assert_eq!(trace.label.as_deref(), Some("degraded"));
    }

    #[test]
    fn crashed_rank_thread_still_returns() {
        let faults =
            FaultPlan { faults: vec![Fault { rank: 0, kind: FaultKind::Crash { at: 1.0 } }] };
        let (items, trace) = run_ft(faults, Some(RecoveryConfig::default()), [3, 2, 1]);
        // Rank 0 received nothing but its thread completed cleanly.
        assert!(items[0].is_empty());
        // Every item landed somewhere among the survivors.
        let mut all: Vec<u64> = items.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
        trace.validate().unwrap();
        let s = trace.summarize().unwrap();
        assert_eq!(s.total_bytes, 6 * 8);
        assert!(s.faults > 0 && s.replans == 1);
        assert_eq!(trace.label.as_deref(), Some("recovered"));
    }

    #[test]
    fn executed_matches_simulated_bit_for_bit() {
        use gs_gridsim::fault::simulate_scatter_ft;
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = [3usize, 2, 1];
        // Crash + transient + slowdown, non-borderline times.
        let faults = FaultPlan {
            faults: vec![
                Fault { rank: 0, kind: FaultKind::Crash { at: 1.0 } },
                Fault { rank: 1, kind: FaultKind::Transient { failures: 1 } },
                Fault { rank: 2, kind: FaultKind::Slowdown { start: 20.0, factor: 2.0 } },
            ],
        };
        for recovery in [None, Some(RecoveryConfig::default())] {
            let sim = simulate_scatter_ft(&view, &counts, &faults, recovery.as_ref()).unwrap();
            let sim_trace = sim.trace(&["a", "b", "root"], 8);
            let (_, exec_trace) = run_ft(faults.clone(), recovery, counts);
            exec_trace.validate().unwrap();
            // Same label, same incident stream (instants and strings),
            // same per-rank schedule to the last bit.
            assert_eq!(exec_trace.label, sim_trace.label);
            assert_eq!(exec_trace.incidents, sim_trace.incidents);
            let (se, ss) =
                (exec_trace.summarize().unwrap(), sim_trace.summarize().unwrap());
            assert_eq!(se.makespan, ss.makespan);
            assert_eq!(se.total_bytes, ss.total_bytes);
            for (re, rs) in se.ranks.iter().zip(&ss.ranks) {
                assert_eq!(re.recv, rs.recv, "recv of {}", rs.name);
                assert_eq!(re.send, rs.send, "send of {}", rs.name);
                assert_eq!(re.compute, rs.compute, "compute of {}", rs.name);
                assert_eq!(re.finish, rs.finish, "finish of {}", rs.name);
                assert_eq!(re.bytes_in, rs.bytes_in, "bytes of {}", rs.name);
            }
        }
    }

    #[test]
    fn ft_scatter_records_one_send_span_per_delivery() {
        use gs_gridsim::fault::simulate_scatter_ft;
        use gs_scatter::obs::span;
        let ps = procs();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = [3usize, 2, 1];
        let faults = FaultPlan {
            faults: vec![
                Fault { rank: 0, kind: FaultKind::Crash { at: 1.0 } },
                Fault { rank: 1, kind: FaultKind::Transient { failures: 1 } },
            ],
        };
        let rc = RecoveryConfig::default();
        let sim = simulate_scatter_ft(&view, &counts, &faults, Some(&rc)).unwrap();
        let config = FtConfig { faults, recovery: Some(rc), procs: ps.clone(), item_bytes: 8 };
        span::set_enabled(true);
        // One fresh thread per rank: each rank's thread-local spans are
        // exactly its own, whatever other tests record meanwhile.
        let spans = run_world(3, WorldConfig::default(), move |c| {
            let data: Vec<u64> = (0..6).collect();
            let mine =
                c.scatterv_ft(&config, (c.rank() == 2).then_some(&data[..]), &counts);
            c.model_compute_ft(&config, mine.len());
            span::take_local()
        });
        span::set_enabled(false);
        let attr = |s: &span::SpanRecord, key: &str| {
            s.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone())
        };
        let sends: Vec<_> = spans[2].iter().filter(|s| s.name == "mpi.send").collect();
        assert_eq!(sends.len(), sim.deliveries.len(), "one mpi.send per delivery");
        for (s, d) in sends.iter().zip(&sim.deliveries) {
            let items: u64 = d.ranges.iter().map(|&(lo, hi)| hi - lo).sum();
            assert_eq!(s.tid, 2);
            assert_eq!(attr(s, "peer"), Some(d.rank.to_string()));
            assert_eq!(attr(s, "bytes"), Some((items * 8).to_string()));
            assert_eq!(s.start_us, d.start * 1e6);
        }
        for (rank, rank_spans) in spans.iter().enumerate() {
            let computes = rank_spans.iter().filter(|s| s.name == "mpi.compute").count();
            assert_eq!(computes, usize::from(!sim.assignments[rank].is_empty()), "rank {rank}");
        }
    }

    #[test]
    fn degraded_run_drops_flaky_block() {
        let faults = FaultPlan {
            faults: vec![Fault { rank: 1, kind: FaultKind::Transient { failures: 1 } }],
        };
        let (items, trace) = run_ft(faults, None, [3, 2, 1]);
        assert_eq!(items[0], vec![0, 1, 2]);
        assert!(items[1].is_empty(), "the flaky rank's block is lost silently");
        assert_eq!(items[2], vec![5]);
        let s = trace.summarize().unwrap();
        // Only the delivered bytes show up on the wire.
        assert_eq!(s.total_bytes, 4 * 8);
    }
}
