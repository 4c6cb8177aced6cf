//! Evaluation of a data distribution under the single-port model
//! (Eq. 1 and Eq. 2 of the paper) and the uniform baseline.
//!
//! All functions here take processors **in scatter order** (the order the
//! root serves them, root last) and counts aligned with that order. The
//! [`crate::planner`] module handles the mapping between index order and
//! scatter order.

use crate::cost::Processor;

/// Per-processor schedule of one scatter + compute phase, in scatter order.
///
/// For processor `i` (0-based, in scatter order):
/// * its block transfer occupies `[comm_start[i], comm_end[i]]` on the
///   root's single output port,
/// * it computes during `[comm_end[i], finish[i]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// When the root starts sending to each processor.
    pub comm_start: Vec<f64>,
    /// When each processor has fully received its block (= compute start).
    pub comm_end: Vec<f64>,
    /// When each processor finishes computing (Eq. 1).
    pub finish: Vec<f64>,
}

impl Timeline {
    /// Eq. (1) from per-position `(transfer, compute)` durations, in
    /// scatter order: the root's port is one prefix sum of the transfers,
    /// and each processor computes from the end of its own.
    pub fn from_durations(durations: impl ExactSizeIterator<Item = (f64, f64)>) -> Timeline {
        let p = durations.len();
        let mut tl = Timeline {
            comm_start: Vec::with_capacity(p),
            comm_end: Vec::with_capacity(p),
            finish: Vec::with_capacity(p),
        };
        let mut clock = 0.0f64; // root's outgoing-port availability
        for (comm, comp) in durations {
            tl.comm_start.push(clock);
            clock += comm;
            tl.comm_end.push(clock);
            tl.finish.push(clock + comp);
        }
        tl
    }

    /// The overall makespan (Eq. 2).
    pub fn makespan(&self) -> f64 {
        self.finish.iter().copied().fold(0.0, f64::max)
    }

    /// Earliest per-processor finish time.
    pub fn min_finish(&self) -> f64 {
        self.finish.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Total idle time: for each processor, the time between the start of
    /// the operation and the moment its data starts flowing — the area of
    /// the "stair effect" of Fig. 1 — plus any wait after finishing until
    /// the global makespan.
    pub fn total_idle(&self) -> f64 {
        let t = self.makespan();
        self.comm_start.iter().zip(&self.finish).map(|(s, f)| s + (t - f)).sum()
    }

    /// Load-imbalance ratio: `(max finish − min finish) / max finish`,
    /// the "maximum difference in finish times" metric quoted in §5.2
    /// (6% for Fig. 3, about 10% for Fig. 4).
    pub fn imbalance(&self) -> f64 {
        let max = self.makespan();
        if max == 0.0 {
            0.0
        } else {
            (max - self.min_finish()) / max
        }
    }
}

/// Computes the full [`Timeline`] of a distribution (Eq. 1).
///
/// `procs` and `counts` are in scatter order, root last.
///
/// # Panics
/// Panics if `procs` and `counts` have different lengths.
pub fn timeline(procs: &[&Processor], counts: &[usize]) -> Timeline {
    assert_eq!(procs.len(), counts.len(), "one count per processor");
    Timeline::from_durations(
        procs.iter().zip(counts).map(|(p, &c)| (p.comm.eval(c), p.comp.eval(c))),
    )
}

/// Per-processor finish times `T_i` (Eq. 1), in scatter order.
pub fn finish_times(procs: &[&Processor], counts: &[usize]) -> Vec<f64> {
    timeline(procs, counts).finish
}

/// The makespan `T = max_i T_i` (Eq. 2) of a distribution.
pub fn makespan(procs: &[&Processor], counts: &[usize]) -> f64 {
    timeline(procs, counts).makespan()
}

/// The `MPI_Scatter` baseline: `floor(n/p)` items each, with the remainder
/// spread one item at a time over the first `n mod p` processors (in
/// scatter order), mirroring how the original application padded its
/// uniform distribution.
pub fn uniform_distribution(p: usize, n: usize) -> Vec<usize> {
    assert!(p > 0, "at least one processor");
    let base = n / p;
    let rem = n % p;
    (0..p).map(|i| base + usize::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Processor;

    fn procs3() -> Vec<Processor> {
        vec![
            Processor::linear("p1", 1.0, 2.0),
            Processor::linear("p2", 2.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ]
    }

    #[test]
    fn timeline_matches_hand_computation() {
        let ps = procs3();
        let view: Vec<&Processor> = ps.iter().collect();
        // counts: 3, 2, 1
        // P1: comm [0,3], comp ends 3 + 6 = 9
        // P2: comm [3,7], comp ends 7 + 2 = 9
        // root: comm [7,7], comp ends 7 + 1 = 8
        let tl = timeline(&view, &[3, 2, 1]);
        assert_eq!(tl.comm_start, vec![0.0, 3.0, 7.0]);
        assert_eq!(tl.comm_end, vec![3.0, 7.0, 7.0]);
        assert_eq!(tl.finish, vec![9.0, 9.0, 8.0]);
        assert_eq!(tl.makespan(), 9.0);
        assert_eq!(tl.min_finish(), 8.0);
    }

    #[test]
    fn finish_times_equal_eq1() {
        let ps = procs3();
        let view: Vec<&Processor> = ps.iter().collect();
        let counts = [5usize, 4, 3];
        let ft = finish_times(&view, &counts);
        // Direct Eq. (1) evaluation.
        for i in 0..3 {
            let comm_sum: f64 = (0..=i).map(|j| view[j].comm.eval(counts[j])).sum();
            let expect = comm_sum + view[i].comp.eval(counts[i]);
            assert!((ft[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_distribution_all_zero() {
        let ps = procs3();
        let view: Vec<&Processor> = ps.iter().collect();
        let tl = timeline(&view, &[0, 0, 0]);
        assert_eq!(tl.makespan(), 0.0);
        assert_eq!(tl.imbalance(), 0.0);
    }

    #[test]
    fn uniform_distribution_spreads_remainder() {
        assert_eq!(uniform_distribution(4, 8), vec![2, 2, 2, 2]);
        assert_eq!(uniform_distribution(4, 10), vec![3, 3, 2, 2]);
        assert_eq!(uniform_distribution(3, 2), vec![1, 1, 0]);
        assert_eq!(uniform_distribution(1, 7), vec![7]);
        let d = uniform_distribution(16, 817_101);
        assert_eq!(d.iter().sum::<usize>(), 817_101);
        assert!(d.iter().all(|&c| c == 51068 || c == 51069));
    }

    #[test]
    fn idle_time_measures_stair() {
        let ps = [
            Processor::linear("a", 1.0, 0.0),
            Processor::linear("b", 1.0, 0.0),
            Processor::linear("root", 0.0, 0.0),
        ];
        let view: Vec<&Processor> = ps.iter().collect();
        // a: comm [0,2] finish 2; b: comm [2,4] finish 4; root finish 4.
        let tl = timeline(&view, &[2, 2, 0]);
        // idle = (0 + 2) + (2 + 0) + (4 + 0) = 8
        assert_eq!(tl.total_idle(), 8.0);
    }

    #[test]
    fn imbalance_metric() {
        let ps = procs3();
        let view: Vec<&Processor> = ps.iter().collect();
        let tl = timeline(&view, &[3, 2, 1]);
        assert!((tl.imbalance() - (9.0 - 8.0) / 9.0).abs() < 1e-12);
    }
}
