//! The per-rank communicator: point-to-point primitives, virtual clock,
//! and the collectives built on top of them.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use gs_scatter::obs::span;

use crate::datum::{decode, encode, Datum};
use crate::message::{Message, Tag};
use crate::time::TimeModel;
use crate::trace::{CommOp, CommRecord};

/// Opcode space for collective tags.
pub(crate) mod op {
    pub const BARRIER_UP: u8 = 1;
    pub const BARRIER_DOWN: u8 = 2;
    pub const BCAST: u8 = 3;
    pub const SCATTER: u8 = 4;
    pub const GATHER: u8 = 5;
    pub const REDUCE: u8 = 6;
    pub const ALLGATHER: u8 = 7;
    pub const ALLTOALL: u8 = 8;
    pub const SCAN: u8 = 9;
    /// Data blocks of the fault-tolerant scatter ([`crate::ft`]).
    pub const FT_SCATTER: u8 = 10;
    /// Out-of-band control messages of the fault-tolerant scatter
    /// (delivery counts; no virtual time, no trace).
    pub const FT_CTRL: u8 = 11;
}

/// A rank's handle on the world: identity, mailbox, virtual clock.
///
/// One `Comm` lives on each rank thread; it is **not** shareable — all
/// operations take `&mut self`, mirroring the fact that an MPI rank is a
/// single sequential process.
pub struct Comm {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    /// The world's sender table, one inbox per rank, shared by all ranks.
    pub(crate) senders: Arc<[Sender<Message>]>,
    pub(crate) inbox: Receiver<Message>,
    /// Messages received but not yet matched by a `recv`.
    pub(crate) pending: Vec<Message>,
    /// Virtual clock, seconds.
    pub(crate) clock: f64,
    /// Optional heterogeneity model (shared, immutable).
    pub(crate) model: Option<Arc<TimeModel>>,
    /// Collective sequence number (tags of successive collectives differ).
    pub(crate) coll_seq: u64,
    /// Communication trace (only populated when tracing is enabled).
    pub(crate) trace: Option<Vec<CommRecord>>,
    /// Fault/retry/replan incidents recorded by the fault-tolerant
    /// scatter (populated on the root; see [`crate::ft`]).
    pub(crate) incidents: Vec<gs_scatter::obs::Incident>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Arc<[Sender<Message>]>,
        inbox: Receiver<Message>,
        model: Option<Arc<TimeModel>>,
    ) -> Self {
        Comm {
            rank,
            size,
            senders,
            inbox,
            pending: Vec::new(),
            clock: 0.0,
            model,
            coll_seq: 0,
            trace: None,
            incidents: Vec::new(),
        }
    }

    /// This rank's id, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time, seconds.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Advances the virtual clock by `dt` seconds (a compute phase of
    /// externally measured duration).
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0 && dt.is_finite(), "invalid time advance {dt}");
        self.clock += dt;
    }

    /// Advances the clock by the model's compute time for `items` on this
    /// rank. No-op without a time model.
    ///
    /// When tracing is enabled the phase is recorded as a
    /// [`crate::trace::CommOp::Compute`] record (peer = own rank,
    /// bytes = 0), so executed traces carry compute intervals alongside
    /// transfers. Explicit [`Comm::advance`] calls are *not* recorded —
    /// they model externally measured time, not necessarily computation.
    pub fn model_compute(&mut self, items: usize) {
        if let Some(m) = &self.model {
            let start = self.clock;
            self.clock += m.compute_time(self.rank, items);
            self.record(CommOp::Compute, self.rank, items, start, self.clock);
        }
    }

    /// Records one operation of this rank over `[start, end]` on the
    /// virtual clock: an `mpi.send`/`mpi.recv`/`mpi.compute` span when
    /// the span tracer is on, and a [`CommRecord`] when tracing is
    /// enabled. `size` is a transfer's bytes, or a compute phase's item
    /// count (its span carries `items`, its record 0 bytes).
    pub(crate) fn record(&mut self, op: CommOp, peer: usize, size: usize, start: f64, end: f64) {
        if span::enabled() {
            let transfer = || vec![("peer", peer.to_string()), ("bytes", size.to_string())];
            let (name, attrs) = match op {
                CommOp::Send => ("mpi.send", transfer()),
                CommOp::Recv => ("mpi.recv", transfer()),
                CommOp::Compute => ("mpi.compute", vec![("items", size.to_string())]),
            };
            span::record_virtual("mpi", name, self.rank as u64, start, end, attrs);
        }
        if let Some(t) = &mut self.trace {
            let bytes = if op == CommOp::Compute { 0 } else { size };
            t.push(CommRecord { op, peer, bytes, start, end });
        }
    }

    /// Puts `payload` into `dest`'s inbox stamped `timestamp`; no clock
    /// advance, no record.
    pub(crate) fn post(&self, dest: usize, tag: Tag, timestamp: f64, payload: Vec<u8>) {
        let msg = Message { src: self.rank, tag, timestamp, payload };
        self.senders[dest]
            .send(msg)
            .unwrap_or_else(|_| panic!("rank {dest} hung up (panicked?)"));
    }

    // ---- point-to-point -----------------------------------------------------

    /// Sends raw bytes to `dest` with a user `tag`.
    ///
    /// Advances this rank's clock by the modelled transfer time (the
    /// sender owns the port — the single-port model of §2.3); the message
    /// carries the completion timestamp for the receiver to synchronize
    /// on.
    pub fn send_bytes(&mut self, dest: usize, tag: Tag, payload: &[u8]) {
        self.send_internal(dest, tag, payload.to_vec());
    }

    pub(crate) fn send_internal(&mut self, dest: usize, tag: Tag, payload: Vec<u8>) {
        assert!(dest < self.size, "destination {dest} out of range");
        let start = self.clock;
        let bytes = payload.len();
        if let Some(m) = &self.model {
            self.clock += m.link_time(dest, bytes);
        }
        let reg = gs_scatter::metrics::Registry::global();
        reg.counter("mpi_sends_total", "point-to-point sends issued").inc();
        reg.counter("mpi_sent_bytes_total", "payload bytes put on the wire")
            .add(bytes as u64);
        reg.histogram("mpi_send_seconds", "per-send transfer time (virtual clock)")
            .observe(self.clock - start);
        self.record(CommOp::Send, dest, bytes, start, self.clock);
        self.post(dest, tag, self.clock, payload);
    }

    /// Receives the next message from `src` with `tag` (blocking).
    ///
    /// Synchronizes the virtual clock: a message cannot be consumed before
    /// its transfer completed at the sender.
    pub fn recv_bytes(&mut self, src: usize, tag: Tag) -> Vec<u8> {
        let start = self.clock;
        let msg = self.match_message(src, tag);
        self.clock = self.clock.max(msg.timestamp);
        self.record(CommOp::Recv, src, msg.payload.len(), start, self.clock);
        msg.payload
    }

    pub(crate) fn match_message(&mut self, src: usize, tag: Tag) -> Message {
        let depth = gs_scatter::metrics::Registry::global()
            .gauge("mpi_queue_depth", "messages parked waiting for a matching recv");
        if let Some(pos) = self
            .pending
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            let msg = self.pending.remove(pos);
            depth.add(-1.0);
            return msg;
        }
        loop {
            let msg = self
                .inbox
                .recv()
                .unwrap_or_else(|_| panic!("world shut down while rank {} was receiving", self.rank));
            msg.check_live();
            if msg.src == src && msg.tag == tag {
                return msg;
            }
            self.pending.push(msg);
            depth.add(1.0);
        }
    }

    /// Typed send: encodes `data` little-endian.
    pub fn send<T: Datum>(&mut self, dest: usize, tag: Tag, data: &[T]) {
        self.send_internal(dest, tag, encode(data));
    }

    /// Typed receive matching [`Comm::send`].
    pub fn recv<T: Datum>(&mut self, src: usize, tag: Tag) -> Vec<T> {
        decode(&self.recv_bytes(src, tag))
    }

    // ---- collectives ---------------------------------------------------------

    pub(crate) fn next_seq(&mut self) -> u64 {
        self.coll_seq += 1;
        self.coll_seq
    }

    /// Synchronizes all ranks (and their clocks, to the max).
    pub fn barrier(&mut self) {
        let seq = self.next_seq();
        let up = Tag::collective(op::BARRIER_UP, seq);
        let down = Tag::collective(op::BARRIER_DOWN, seq);
        if self.rank == 0 {
            let mut max_clock = self.clock;
            for r in 1..self.size {
                let t = self.recv::<f64>(r, up);
                max_clock = max_clock.max(t[0]);
            }
            self.clock = self.clock.max(max_clock);
            for r in 1..self.size {
                self.send::<f64>(r, down, &[max_clock]);
            }
        } else {
            let c = self.clock;
            self.send::<f64>(0, up, &[c]);
            let t = self.recv::<f64>(0, down);
            self.clock = self.clock.max(t[0]);
        }
    }

    /// Broadcast from `root`: flat tree, root sends to each rank in rank
    /// order (the high-latency strategy of MPICH-G2 noted in §1).
    pub fn bcast<T: Datum>(&mut self, root: usize, data: &[T]) -> Vec<T> {
        let seq = self.next_seq();
        let tag = Tag::collective(op::BCAST, seq);
        if self.rank == root {
            for r in 0..self.size {
                if r != root {
                    self.send(r, tag, data);
                }
            }
            data.to_vec()
        } else {
            self.recv(root, tag)
        }
    }

    /// `MPI_Scatterv`: root holds `sendbuf` and sends `counts[r]` items to
    /// each rank `r` **in rank order** (single port); everyone returns its
    /// own block. Non-root ranks pass `None`.
    ///
    /// # Panics
    /// Panics on the root if `sendbuf` is missing or shorter than
    /// `counts` requires.
    pub fn scatterv<T: Datum>(
        &mut self,
        root: usize,
        sendbuf: Option<&[T]>,
        counts: &[usize],
    ) -> Vec<T> {
        assert_eq!(counts.len(), self.size, "one count per rank");
        let seq = self.next_seq();
        let tag = Tag::collective(op::SCATTER, seq);
        if self.rank == root {
            let buf = sendbuf.expect("root must provide the send buffer");
            let total: usize = counts.iter().sum();
            assert!(buf.len() >= total, "send buffer too short: {} < {total}", buf.len());
            let mut offset = 0usize;
            let mut own: Option<Vec<T>> = None;
            // Rank order: this is what makes the stair effect (Fig. 1).
            for r in 0..self.size {
                let block = &buf[offset..offset + counts[r]];
                if r == root {
                    // The root keeps its block; no transfer, no port time.
                    // Traced as a zero-duration self-send so that byte
                    // totals conserve (Σ link bytes = buffer size); not a
                    // transfer, so no `mpi.send` span.
                    if let Some(t) = &mut self.trace {
                        t.push(CommRecord {
                            op: CommOp::Send,
                            peer: root,
                            bytes: block.len() * T::WIDTH,
                            start: self.clock,
                            end: self.clock,
                        });
                    }
                    own = Some(block.to_vec());
                } else {
                    self.send(r, tag, block);
                }
                offset += counts[r];
            }
            own.expect("root is one of the ranks")
        } else {
            self.recv(root, tag)
        }
    }

    /// `MPI_Scatter`: equal blocks. The buffer length must be divisible by
    /// the world size (as in MPI, where `sendcount` is uniform).
    pub fn scatter<T: Datum>(&mut self, root: usize, sendbuf: Option<&[T]>) -> Vec<T> {
        if self.rank == root {
            let buf = sendbuf.expect("root must provide the send buffer");
            assert_eq!(
                buf.len() % self.size,
                0,
                "MPI_Scatter needs a buffer divisible by the number of ranks; \
                 use scatterv for the general case"
            );
            let counts = vec![buf.len() / self.size; self.size];
            self.scatterv(root, sendbuf, &counts)
        } else {
            // Mirror scatterv's tag sequencing without needing the counts.
            let seq = self.next_seq();
            let tag = Tag::collective(op::SCATTER, seq);
            self.recv(root, tag)
        }
    }

    /// `MPI_Gatherv`: every rank contributes `data`; the root receives the
    /// blocks in rank order and returns the concatenation; others get
    /// `None`.
    pub fn gatherv<T: Datum>(&mut self, root: usize, data: &[T]) -> Option<Vec<T>> {
        let seq = self.next_seq();
        let tag = Tag::collective(op::GATHER, seq);
        if self.rank == root {
            let mut out = Vec::new();
            for r in 0..self.size {
                if r == root {
                    out.extend_from_slice(data);
                } else {
                    out.extend(self.recv::<T>(r, tag));
                }
            }
            Some(out)
        } else {
            self.send(root, tag, data);
            None
        }
    }

    /// Reduction to the root with a binary operator; returns `Some(result)`
    /// on the root, `None` elsewhere. The operator must be associative and
    /// commutative (rank-order folding is used).
    pub fn reduce<T: Datum>(
        &mut self,
        root: usize,
        value: T,
        mut combine: impl FnMut(T, T) -> T,
    ) -> Option<T> {
        let seq = self.next_seq();
        let tag = Tag::collective(op::REDUCE, seq);
        if self.rank == root {
            let mut acc = value;
            for r in 0..self.size {
                if r != root {
                    let v = self.recv::<T>(r, tag);
                    acc = combine(acc, v[0]);
                }
            }
            Some(acc)
        } else {
            self.send(root, tag, &[value]);
            None
        }
    }

    /// All-reduce: reduce to rank 0, then broadcast the result.
    pub fn allreduce<T: Datum>(&mut self, value: T, combine: impl FnMut(T, T) -> T) -> T {
        let r = self.reduce(0, value, combine);
        let out = match r {
            Some(v) => self.bcast(0, &[v]),
            None => self.bcast(0, &[]),
        };
        out[0]
    }
}
