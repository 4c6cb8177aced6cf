//! Nonblocking receives and combined send/receive.
//!
//! Sends in this runtime are always asynchronous (unbounded channels), so
//! `MPI_Isend` needs no handle; the interesting half is `irecv`/`test`/
//! `wait`, which lets a rank overlap its own compute with an incoming
//! transfer — the communication/computation overlap the paper explicitly
//! chose *not* to rely on (§6: "we do not consider interlacing computation
//! and communication phases"), provided here so that extension experiments
//! can quantify what that choice costs.

use crate::comm::Comm;
use crate::datum::{decode, Datum};
use crate::message::Tag;

/// A pending nonblocking receive. Obtain with [`Comm::irecv`], finish with
/// [`Comm::wait`] (or poll with [`Comm::test`]).
///
/// Dropping a request without waiting leaves the message (if it arrives)
/// in the pending queue, where a later matching `recv` will find it — the
/// same semantics as cancelling an MPI request and re-posting it.
#[derive(Debug, Clone, Copy)]
#[must_use = "a request does nothing until waited on"]
pub struct RecvRequest {
    src: usize,
    tag: Tag,
}

impl Comm {
    /// Posts a nonblocking receive for `(src, tag)`.
    pub fn irecv(&mut self, src: usize, tag: Tag) -> RecvRequest {
        assert!(src < self.size, "source {src} out of range");
        RecvRequest { src, tag }
    }

    /// Returns `true` if the matching message has already arrived (a
    /// subsequent [`Comm::wait`] will not block). Does not advance the
    /// virtual clock.
    pub fn test(&mut self, req: &RecvRequest) -> bool {
        // Drain whatever is sitting in the channel into the pending queue,
        // then look for a match.
        while let Ok(msg) = self.inbox.try_recv() {
            msg.check_live();
            self.pending.push(msg);
        }
        self.pending
            .iter()
            .any(|m| m.src == req.src && m.tag == req.tag)
    }

    /// Blocks until the request's message arrives and returns its payload,
    /// synchronizing the virtual clock like a plain receive.
    pub fn wait<T: Datum>(&mut self, req: RecvRequest) -> Vec<T> {
        decode(&self.recv_bytes(req.src, req.tag))
    }

    /// Raw-bytes variant of [`Comm::wait`].
    pub fn wait_bytes(&mut self, req: RecvRequest) -> Vec<u8> {
        self.recv_bytes(req.src, req.tag)
    }

    /// Combined send+receive (like `MPI_Sendrecv`): sends `data` to `dest`
    /// and receives from `src` under the same user tag, without deadlock
    /// regardless of ordering (sends never block here).
    pub fn sendrecv<T: Datum>(
        &mut self,
        dest: usize,
        src: usize,
        tag: Tag,
        data: &[T],
    ) -> Vec<T> {
        self.send(dest, tag, data);
        self.recv(src, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_world, WorldConfig};

    #[test]
    fn irecv_wait_round_trip() {
        let out = run_world(2, WorldConfig::default(), |c| {
            if c.rank() == 0 {
                c.send::<u32>(1, Tag::user(5), &[42, 43]);
                vec![]
            } else {
                let req = c.irecv(0, Tag::user(5));
                c.wait::<u32>(req)
            }
        });
        assert_eq!(out[1], vec![42, 43]);
    }

    #[test]
    fn test_polls_without_consuming() {
        let out = run_world(2, WorldConfig::default(), |c| {
            if c.rank() == 0 {
                c.send::<u8>(1, Tag::user(1), &[7]);
                c.barrier();
                true
            } else {
                c.barrier(); // after this, the message must have been sent
                let req = c.irecv(0, Tag::user(1));
                // Spin until visible (channel delivery is asynchronous but
                // the send happened-before the barrier release).
                let mut seen = c.test(&req);
                for _ in 0..1000 {
                    if seen {
                        break;
                    }
                    std::thread::yield_now();
                    seen = c.test(&req);
                }
                assert!(seen, "message visible after barrier");
                // test() again: still there (not consumed).
                assert!(c.test(&req));
                let v = c.wait::<u8>(req);
                assert_eq!(v, vec![7]);
                true
            }
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn dropped_request_leaves_message_for_recv() {
        let out = run_world(2, WorldConfig::default(), |c| {
            if c.rank() == 0 {
                c.send::<u8>(1, Tag::user(3), &[9]);
                0
            } else {
                let _req = c.irecv(0, Tag::user(3));
                // Never waited; a plain recv still gets the payload.
                c.recv::<u8>(0, Tag::user(3))[0]
            }
        });
        assert_eq!(out[1], 9);
    }

    #[test]
    fn sendrecv_ring_rotates() {
        let p = 5;
        let out = run_world(p, WorldConfig::default(), |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.sendrecv::<u64>(next, prev, Tag::user(1), &[c.rank() as u64])[0]
        });
        for (rank, v) in out.iter().enumerate() {
            assert_eq!(*v as usize, (rank + p - 1) % p);
        }
    }

    #[test]
    fn overlap_compute_with_incoming_transfer() {
        // Worker computes 10 s while its data is in flight; with irecv the
        // finish time is max(compute, transfer), not the sum.
        use crate::TimeModel;
        use gs_scatter::cost::CostFn;
        let model = TimeModel {
            link: vec![CostFn::Zero, CostFn::Linear { slope: 1.0 }],
            compute: vec![CostFn::Zero; 2],
        };
        let out = run_world(2, WorldConfig::with_time(model), |c| {
            if c.rank() == 0 {
                c.send::<u8>(1, Tag::user(1), &[0; 6]); // arrives at t = 6
                c.now()
            } else {
                let req = c.irecv(0, Tag::user(1));
                c.advance(10.0); // local compute while data flies
                let _ = c.wait_bytes(req);
                c.now() // max(10, 6) = 10, not 16
            }
        });
        assert_eq!(out[1], 10.0);
    }
}
