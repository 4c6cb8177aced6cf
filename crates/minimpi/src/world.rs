//! World construction: wire the channels, then run the ranks on a worker
//! pool — one worker per rank ([`run_world`]) or a bounded pool for
//! worlds far wider than the machine ([`run_world_pooled`]).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use crate::comm::Comm;
use crate::message::Message;
use crate::time::TimeModel;

/// Configuration of a world.
#[derive(Debug, Clone, Default)]
pub struct WorldConfig {
    /// Optional virtual-time model (see [`TimeModel`]). `None` means
    /// clocks only advance through explicit [`Comm::advance`] calls.
    pub time: Option<TimeModel>,
}

impl WorldConfig {
    /// A world with the given heterogeneity model.
    pub fn with_time(model: TimeModel) -> Self {
        WorldConfig { time: Some(model) }
    }
}

/// Runs `f` on `size` ranks, one worker thread per rank, and returns each
/// rank's result, indexed by rank.
///
/// This is [`run_world_pooled`] with `threads = size`: while any rank is
/// still queued, at least one worker is free to take it, so every rank
/// runs concurrently and any communication pattern (rings, halos) works.
///
/// # Panics
/// Panics if `size == 0`, or if the time model covers a different number
/// of ranks. A panic in any rank tears the world down and is re-raised,
/// as described on [`run_world_pooled`].
pub fn run_world<T, F>(size: usize, config: WorldConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Send + Sync,
{
    run_world_pooled(size, size, 0, config, f)
}

/// Runs `f` on `size` logical ranks multiplexed onto at most `threads`
/// OS threads, and returns each rank's result, indexed by rank.
///
/// Each worker thread pulls a rank off a queue and runs it **to
/// completion** before taking the next — ranks are not preempted. The
/// unbounded per-rank inboxes make sends non-blocking, so messages to a
/// rank that has not started yet simply wait in its channel. Results are
/// **bit-identical** for every worker count: a rank's observable
/// behaviour (received bytes, virtual clocks, communication records)
/// depends only on message contents and per-sender order, both of which
/// are scheduling-independent.
///
/// `root` is scheduled first. This matters for the **capacity limit**
/// documented in `docs/simulation.md`: a pool with fewer workers than
/// ranks supports *root-centric* communication patterns — every
/// blocking receive is either (a) performed by `root`, or (b) a receive
/// from `root` or from a rank that needs nothing in return. `scatterv`,
/// `scatterv_ft`, `gatherv`, `bcast`, `reduce` and (with `root = 0`)
/// `barrier`/`allreduce` qualify; patterns where non-root ranks block on
/// each other (rings, nearest-neighbour halos) can deadlock on a bounded
/// pool and need one worker per rank ([`run_world`]). When `root` itself
/// blocks on receives (gather-like patterns), `threads >= 2` is required
/// so other ranks can still be scheduled; scatter-only patterns run fine
/// on one thread.
///
/// # Panics
/// Panics if `size == 0`, `threads == 0`, `root >= size`, or if the
/// time model covers a different number of ranks.
///
/// A panic in a rank tears the world down: ranks not yet started are
/// dropped, and every inbox receives a poison message, so that a rank
/// blocked on a receive fails with "world torn down: rank r panicked"
/// instead of waiting forever. Once every worker has stopped, the first
/// rank's original panic payload is re-raised.
pub fn run_world_pooled<T, F>(
    size: usize,
    threads: usize,
    root: usize,
    config: WorldConfig,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Send + Sync,
{
    assert!(size > 0, "a world needs at least one rank");
    assert!(threads > 0, "a pool needs at least one worker");
    assert!(root < size, "root rank {root} out of range (size {size})");
    if let Some(m) = &config.time {
        assert_eq!(m.len(), size, "time model must cover every rank");
    }
    let threads = threads.min(size);
    let model = config.time.map(Arc::new);

    let (senders, receivers): (Vec<Sender<Message>>, Vec<_>) =
        (0..size).map(|_| channel::<Message>()).unzip();
    // One sender table per world, shared by every rank.
    let senders: Arc<[Sender<Message>]> = senders.into();

    // Job queue: every rank with its inbox, root first so gather-like
    // patterns find the blocking rank already running.
    let mut queue: VecDeque<(usize, Receiver<Message>)> = VecDeque::with_capacity(size);
    let mut inboxes: Vec<Option<Receiver<Message>>> = receivers.into_iter().map(Some).collect();
    queue.push_back((root, inboxes[root].take().expect("root inbox present")));
    for (rank, inbox) in inboxes.iter_mut().enumerate() {
        if let Some(inbox) = inbox.take() {
            queue.push_back((rank, inbox));
        }
    }
    let jobs = Mutex::new(queue);

    let reg = gs_scatter::metrics::Registry::global();
    reg.counter("mpi_pool_ranks_total", "logical ranks executed on the worker pool")
        .add(size as u64);
    reg.gauge("mpi_pool_threads", "worker threads of the last world").set(threads as f64);

    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..size).map(|_| None).collect());
    let failure: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let busy = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (f, senders, model) = (&f, &senders, &model);
            let (results, failure, busy, peak, jobs) = (&results, &failure, &busy, &peak, &jobs);
            scope.spawn(move || loop {
                // Pop under the lock in its own statement — a `while let`
                // would keep the guard (and starve the other workers) for
                // the whole rank execution.
                let job = jobs.lock().expect("job queue lock").pop_front();
                let Some((rank, inbox)) = job else { break };
                let now = busy.fetch_add(1, Ordering::Relaxed) + 1;
                peak.fetch_max(now, Ordering::Relaxed);
                let mut comm = Comm::new(rank, size, Arc::clone(senders), inbox, model.clone());
                let out = catch_unwind(AssertUnwindSafe(|| f(&mut comm)));
                drop(comm);
                busy.fetch_sub(1, Ordering::Relaxed);
                match out {
                    Ok(out) => results.lock().expect("results lock")[rank] = Some(out),
                    Err(payload) => {
                        let mut first = failure.lock().expect("failure lock");
                        if first.is_none() {
                            *first = Some(payload);
                            jobs.lock().expect("job queue lock").clear();
                            for inbox in senders.iter() {
                                // A finished rank has dropped its inbox;
                                // it needs no wake-up.
                                let _ = inbox.send(Message::teardown(rank));
                            }
                        }
                    }
                }
            });
        }
    });

    if let Some(payload) = failure.into_inner().expect("failure lock") {
        resume_unwind(payload);
    }
    reg.gauge("mpi_pool_occupancy", "peak busy workers of the last world")
        .set(peak.load(Ordering::Relaxed) as f64);

    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every rank produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Tag;
    use gs_scatter::cost::CostFn;

    #[test]
    fn ranks_and_size() {
        let out = run_world(3, WorldConfig::default(), |c| (c.rank(), c.size()));
        assert_eq!(out, vec![(0, 3), (1, 3), (2, 3)]);
    }

    #[test]
    fn point_to_point_ring() {
        // Each rank sends its rank to the next; receives from the previous.
        let out = run_world(4, WorldConfig::default(), |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send::<u64>(next, Tag::user(1), &[c.rank() as u64]);
            c.recv::<u64>(prev, Tag::user(1))[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let out = run_world(2, WorldConfig::default(), |c| {
            if c.rank() == 0 {
                c.send::<u64>(1, Tag::user(7), &[70]);
                c.send::<u64>(1, Tag::user(8), &[80]);
                0
            } else {
                // Receive tag 8 first even though 7 was sent first.
                let b = c.recv::<u64>(0, Tag::user(8))[0];
                let a = c.recv::<u64>(0, Tag::user(7))[0];
                a * 1000 + b
            }
        });
        assert_eq!(out[1], 70_080);
    }

    #[test]
    fn scatterv_and_gatherv_round_trip() {
        let data: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let out = run_world(3, WorldConfig::default(), |c| {
            let counts = [30, 20, 10];
            let mine = c.scatterv(0, if c.rank() == 0 { Some(&data[..]) } else { None }, &counts);
            let doubled: Vec<f64> = mine.iter().map(|x| x * 2.0).collect();
            c.gatherv(0, &doubled)
        });
        let gathered = out[0].as_ref().unwrap();
        assert_eq!(gathered.len(), 60);
        for (i, v) in gathered.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f64);
        }
        assert!(out[1].is_none());
    }

    #[test]
    fn scatter_uniform() {
        let data: Vec<u32> = (0..12).collect();
        let out = run_world(4, WorldConfig::default(), |c| {
            c.scatter(0, if c.rank() == 0 { Some(&data[..]) } else { None })
        });
        assert_eq!(out[0], vec![0, 1, 2]);
        assert_eq!(out[3], vec![9, 10, 11]);
    }

    #[test]
    fn bcast_delivers_everywhere() {
        let out = run_world(5, WorldConfig::default(), |c| {
            let data = if c.rank() == 2 { vec![3.5f64, 4.5] } else { vec![] };
            c.bcast(2, &data)
        });
        for r in out {
            assert_eq!(r, vec![3.5, 4.5]);
        }
    }

    #[test]
    fn reduce_and_allreduce() {
        let out = run_world(4, WorldConfig::default(), |c| {
            let partial = (c.rank() + 1) as u64;
            let r = c.reduce(0, partial, |a, b| a + b);
            let all = c.allreduce(partial, |a, b| a + b);
            (r, all)
        });
        assert_eq!(out[0].0, Some(10));
        assert_eq!(out[1].0, None);
        assert!(out.iter().all(|(_, all)| *all == 10));
    }

    #[test]
    fn barrier_syncs_clocks() {
        let out = run_world(3, WorldConfig::default(), |c| {
            c.advance(c.rank() as f64 * 10.0); // 0, 10, 20
            c.barrier();
            c.now()
        });
        assert!(out.iter().all(|&t| t == 20.0), "{out:?}");
    }

    #[test]
    fn virtual_time_single_port_scatter() {
        // Links: rank1 = 1 s/byte, rank2 = 2 s/byte. Root sends 4 bytes to
        // each in rank order: rank1's data arrives at t=4, rank2's at
        // t=4+8=12 (the stair effect).
        let model = TimeModel {
            link: vec![
                CostFn::Zero,
                CostFn::Linear { slope: 1.0 },
                CostFn::Linear { slope: 2.0 },
            ],
            compute: vec![CostFn::Zero; 3],
        };
        let out = run_world(3, WorldConfig::with_time(model), |c| {
            let data: Vec<u8> = (0..12).collect();
            let counts = [4usize, 4, 4];
            let _mine =
                c.scatterv(0, if c.rank() == 0 { Some(&data[..]) } else { None }, &counts);
            c.now()
        });
        assert_eq!(out[1], 4.0, "rank 1 synced to its transfer completion");
        assert_eq!(out[2], 12.0, "rank 2 waited for rank 1's transfer");
        assert_eq!(out[0], 12.0, "root's port busy until the last send");
    }

    #[test]
    fn model_compute_advances_clock() {
        let model = TimeModel::compute_only(vec![
            CostFn::Linear { slope: 0.5 },
            CostFn::Linear { slope: 2.0 },
        ]);
        let out = run_world(2, WorldConfig::with_time(model), |c| {
            c.model_compute(10);
            c.now()
        });
        assert_eq!(out, vec![5.0, 20.0]);
    }

    #[test]
    fn single_rank_world() {
        let out = run_world(1, WorldConfig::default(), |c| {
            let mine = c.scatterv(0, Some(&[1u64, 2, 3][..]), &[3]);
            c.barrier();
            mine.iter().sum::<u64>()
        });
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn pooled_matches_threaded_results() {
        let data: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let body = |c: &mut Comm| {
            let counts = [30usize, 20, 10];
            let mine = c.scatterv(0, if c.rank() == 0 { Some(&data[..]) } else { None }, &counts);
            mine.iter().sum::<f64>()
        };
        let threaded = run_world(3, WorldConfig::default(), body);
        for threads in [1usize, 2, 8] {
            let pooled = run_world_pooled(3, threads, 0, WorldConfig::default(), body);
            assert_eq!(pooled, threaded, "threads={threads}");
        }
    }

    #[test]
    fn pooled_virtual_time_scatter_is_bit_identical() {
        let model = || TimeModel {
            link: vec![
                CostFn::Zero,
                CostFn::Linear { slope: 1.0 },
                CostFn::Linear { slope: 2.0 },
            ],
            compute: vec![CostFn::Zero; 3],
        };
        let body = |c: &mut Comm| {
            let data: Vec<u8> = (0..12).collect();
            let counts = [4usize, 4, 4];
            let _mine =
                c.scatterv(0, if c.rank() == 0 { Some(&data[..]) } else { None }, &counts);
            c.now()
        };
        let threaded = run_world(3, WorldConfig::with_time(model()), body);
        let pooled = run_world_pooled(3, 2, 0, WorldConfig::with_time(model()), body);
        let t_bits: Vec<u64> = threaded.iter().map(|t| t.to_bits()).collect();
        let p_bits: Vec<u64> = pooled.iter().map(|t| t.to_bits()).collect();
        assert_eq!(p_bits, t_bits);
    }

    #[test]
    fn pooled_gather_needs_only_two_workers() {
        // Root (scheduled first) blocks on receives from every other
        // rank; one extra worker cycles through the remaining ranks.
        let out = run_world_pooled(6, 2, 0, WorldConfig::default(), |c| {
            let doubled: Vec<f64> = vec![c.rank() as f64 * 2.0];
            c.gatherv(0, &doubled)
        });
        let gathered = out[0].as_ref().unwrap();
        assert_eq!(gathered, &vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn pooled_scatter_only_runs_on_one_worker() {
        // Root never receives, so even a single worker drains the world:
        // the root finishes first, then each rank finds its block waiting.
        let data: Vec<u32> = (0..12).collect();
        let out = run_world_pooled(4, 1, 0, WorldConfig::default(), |c| {
            c.scatter(0, if c.rank() == 0 { Some(&data[..]) } else { None })
        });
        assert_eq!(out[0], vec![0, 1, 2]);
        assert_eq!(out[3], vec![9, 10, 11]);
    }

    #[test]
    fn pooled_nonzero_root_is_scheduled_first() {
        // Root = last rank (the planner's convention): gather to it on a
        // minimal pool.
        let out = run_world_pooled(5, 2, 4, WorldConfig::default(), |c| {
            c.gatherv(4, &[c.rank() as u64])
        });
        assert_eq!(out[4].as_ref().unwrap(), &vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pooled_wide_world_on_small_pool() {
        // 64 logical ranks on 4 workers: far wider than the pool.
        let data: Vec<u64> = (0..64).collect();
        let out = run_world_pooled(64, 4, 0, WorldConfig::default(), |c| {
            let mine =
                c.scatterv(0, if c.rank() == 0 { Some(&data[..]) } else { None }, &[1usize; 64]);
            mine[0]
        });
        assert_eq!(out, (0..64u64).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_rank_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_world_pooled(4, 2, 0, WorldConfig::default(), |c| {
                if c.rank() == 3 {
                    panic!("pooled worker exploded");
                }
                c.rank()
            })
        });
        assert!(result.is_err());
    }

    /// Runs `world` on its own thread and returns its panic message, or
    /// fails after 10 s — a hang fails the test instead of stalling the
    /// suite.
    fn panic_message_within_deadline(world: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let payload = std::panic::catch_unwind(AssertUnwindSafe(world))
                .expect_err("a rank panicked, so the world must panic");
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            tx.send(msg).expect("watchdog still listening");
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("world still blocked 10 s after a rank panicked")
    }

    #[test]
    fn rank_panic_wakes_peer_blocked_on_it() {
        // Rank 1 panics before sending; rank 0 is blocked receiving from
        // it. The world must tear down and re-raise rank 1's panic.
        let body = |c: &mut Comm| {
            if c.rank() == 1 {
                panic!("rank 1 exploded before sending");
            }
            if c.rank() == 0 {
                c.recv::<u64>(1, Tag::user(1));
            }
        };
        let one_per_rank =
            panic_message_within_deadline(move || drop(run_world(2, WorldConfig::default(), body)));
        assert_eq!(one_per_rank, "rank 1 exploded before sending");
        let pooled = panic_message_within_deadline(move || {
            drop(run_world_pooled(4, 2, 0, WorldConfig::default(), body))
        });
        assert_eq!(pooled, "rank 1 exploded before sending");
    }

    #[test]
    fn rank_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_world(2, WorldConfig::default(), |c| {
                if c.rank() == 1 {
                    panic!("worker exploded");
                }
                // Rank 0 does not wait on rank 1, so it exits cleanly.
                c.rank()
            })
        });
        assert!(result.is_err());
    }
}
