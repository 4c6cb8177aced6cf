//! Shared per-cell kernels and the flat DP plane of the three dynamic
//! programs.
//!
//! Algorithm 1, Algorithm 2 and the divide-and-conquer kernel (the
//! three [`crate::parallel::Kernel`]s) all fill a table column by column:
//! `cost[d, i] = min_e Tcomm(i,e) + max(Tcomp(i,e), cost[d-e, i+1])`,
//! where column `i` depends only on column `i+1`. The per-cell work is
//! factored out here so the serial, multi-threaded and pruned solves of
//! the engine ([`crate::parallel`]) all execute the *same
//! floating-point operations in the same order* — which is what makes
//! their results bit-identical, a property the test-suite enforces.
//!
//! [`optimized_cell`] generalizes Algorithm 2's cell to a candidate
//! window `lo..=lim`: with `(lo, lim) = (0, d)` it reduces exactly to the
//! paper's Algorithm 2, and the upper-bound pruning path narrows the
//! window without disturbing the operations performed inside it.
//!
//! The divide-and-conquer kernel exploits a sharper structural fact.
//! Define the **crossing point** `c(d)` = the smallest `e ∈ 0..=d` with
//! `Tcomp(i,e) >= cost[d-e, i+1]` (`d + 1` when no such `e` exists).
//! When `Tcomp` is non-decreasing and the previous column is
//! non-decreasing — which every column of the DP is, by induction, for
//! non-decreasing cost functions — the crossing is monotone and moves by
//! at most one step per cell: `c(d) <= c(d+1) <= c(d) + 1`. Algorithm
//! 2's per-cell binary search re-derives `c(d)` from scratch
//! (`O(log n)` cache-hostile probes per cell); [`dc_chunk`] instead
//! recovers all crossings of a cell range by divide and conquer over
//! ever-narrowing windows, `O(n + log n)` probes per chunk in total, and
//! then evaluates each cell with [`dc_cell`] — which performs *exactly*
//! the candidate comparisons Algorithm 2's cell performs after its
//! binary search, so values, choices and tie-breaks stay bit-identical.
//!
//! All three kernels write into one [`DpPlane`]: a single flat,
//! column-major `Vec<f64>` cost buffer plus a `Vec<u32>` backtrack
//! plane, replacing the per-column allocations the engine used to make.
//! Keeping the whole plane alive is what lets fault recovery warm-start
//! a re-plan from the surviving suffix columns (see
//! [`crate::planner::PlanCache`]).

/// The largest supported item count: counts are reconstructed through a
/// `u32` choice table.
pub(crate) const MAX_ITEMS: usize = u32::MAX as usize;

/// One-slot recycling pool for dropped [`DpPlane`] buffers.
///
/// A `p = 64`, `n = 10^5` plane is ~115 MB; allocating it fresh per
/// solve costs tens of thousands of first-touch page faults, which
/// dwarfs the D&C kernel's own work on re-plan-heavy workloads. Dropped
/// planes park their buffers here and the next [`DpPlane::new`] of an
/// equal-or-smaller size reuses them (contents stale — see the plane
/// docs for the write-before-read discipline that makes this sound).
/// Keeping a single slot bounds the held memory to one plane.
static PLANE_POOL: std::sync::Mutex<Option<(Vec<f64>, Vec<u32>)>> = std::sync::Mutex::new(None);

/// Flat, cache-friendly storage of one DP solve: `p` columns of
/// `n + 1` cells each, column-major (column `i` occupies
/// `i*(n+1) .. (i+1)*(n+1)`), a `u32` backtrack (choice) plane of the
/// same shape, and the contiguous computed prefix length of each column.
///
/// Cells outside the computed prefix hold `+inf`, which the pruning
/// logic treats as out-of-bound; a reconstruction step that lands on one
/// signals an inconsistent pruning bound (the engine then retries
/// unpruned).
///
/// A fresh plane's cells are **unspecified**: buffers come zero-allocated
/// from the OS (lazily mapped pages, no up-front `+inf` fill — tens of
/// milliseconds at `p = 64`, `n = 10^5`) or recycled from a small
/// process-wide pool fed by dropped planes (skipping ~30k page faults
/// per solve on re-plan-heavy workloads). The engine upholds a strict
/// write-before-read discipline: every cell a solve can read is either
/// computed or explicitly written `+inf` by the pruning skip paths, so
/// stale contents are never observable.
#[derive(Debug, Clone)]
pub(crate) struct DpPlane {
    /// Problem size: columns hold `n + 1` cells (`d ∈ 0..=n`).
    pub n: usize,
    /// Number of processors = number of columns.
    pub p: usize,
    /// Cost plane, `p * (n + 1)` values (skipped cells hold `+inf`).
    pub cost: Vec<f64>,
    /// Choice (backtrack) plane, same shape.
    pub choice: Vec<u32>,
    /// Per-column contiguous computed prefix: cells `0..col_len[i]` of
    /// column `i` were evaluated (the top column, which only ever needs
    /// cell `n`, keeps `col_len[0] = 0`).
    pub col_len: Vec<usize>,
}

impl DpPlane {
    /// A fresh plane for `p` processors and `n` items. Cell contents are
    /// unspecified (see the type docs); `col_len` is all zeros.
    pub fn new(p: usize, n: usize) -> DpPlane {
        let cells = p * (n + 1);
        let (cost, choice) = match PLANE_POOL.lock() {
            Ok(mut slot) => match slot.take() {
                Some((mut c, mut ch)) if c.len() >= cells && ch.len() >= cells => {
                    c.truncate(cells);
                    ch.truncate(cells);
                    (c, ch)
                }
                _ => (vec![0.0; cells], vec![0; cells]),
            },
            Err(_) => (vec![0.0; cells], vec![0; cells]),
        };
        DpPlane { n, p, cost, choice, col_len: vec![0; p] }
    }

    /// Cells per column.
    #[inline]
    pub fn stride(&self) -> usize {
        self.n + 1
    }

    /// Cost column `i` (all `n + 1` cells, computed or not).
    #[inline]
    pub fn col(&self, i: usize) -> &[f64] {
        let s = self.stride();
        &self.cost[i * s..(i + 1) * s]
    }

    /// Choice column `i`.
    #[inline]
    pub fn choice_col(&self, i: usize) -> &[u32] {
        let s = self.stride();
        &self.choice[i * s..(i + 1) * s]
    }
}

impl Drop for DpPlane {
    /// Parks the buffers in [`PLANE_POOL`] for the next solve. The slot
    /// keeps whichever pair is larger, so a burst of small solves cannot
    /// evict a big reusable buffer.
    fn drop(&mut self) {
        let cost = std::mem::take(&mut self.cost);
        let choice = std::mem::take(&mut self.choice);
        if let Ok(mut slot) = PLANE_POOL.lock() {
            let incumbent = slot.as_ref().map_or(0, |(c, _)| c.len());
            if cost.len() > incumbent {
                *slot = Some((cost, choice));
            }
        }
    }
}

/// One Algorithm-1 cell: scan every candidate `e ∈ 0..=d`.
///
/// Returns `(cost[d, i], choice[d, i])`.
#[inline]
pub(crate) fn basic_cell(comm: &[f64], comp: &[f64], prev: &[f64], d: usize) -> (f64, u32) {
    let mut best_e = 0usize;
    let mut best = f64::INFINITY;
    for e in 0..=d {
        let m = comm[e] + f64::max(comp[e], prev[d - e]);
        if m < best {
            best = m;
            best_e = e;
        }
    }
    (best, best_e as u32)
}

/// One Algorithm-2 cell over the candidate window `lo..=lim`
/// (`lo <= lim <= d`); requires `comm`/`comp` non-decreasing.
///
/// Structure (identical to the paper's Algorithm 2 when `lo = 0`,
/// `lim = d`):
///
/// 1. if `Tcomp` dominates the suffix even at the smallest candidate, the
///    candidate value is non-decreasing over the whole window and `lo`
///    wins outright;
/// 2. if the suffix dominates even at the largest candidate, start the
///    downward scan from `lim`;
/// 3. otherwise binary-search the smallest `e` with
///    `Tcomp(i,e) >= cost[d-e, i+1]` and scan downward from there, with
///    the early exit `suffix >= min` (adding `Tcomm >= 0` cannot help).
#[inline]
pub(crate) fn optimized_cell(
    comm: &[f64],
    comp: &[f64],
    prev: &[f64],
    d: usize,
    lo: usize,
    lim: usize,
) -> (f64, u32) {
    debug_assert!(lo <= lim && lim <= d);
    let (mut sol, mut min);
    if comp[lo] >= prev[d - lo] {
        // Even the smallest candidate computes no sooner than the suffix:
        // the max is always Tcomp, so the best move is e = lo.
        return (comm[lo] + comp[lo], lo as u32);
    } else if comp[lim] < prev[d - lim] {
        // Even the largest candidate computes faster than the smallest
        // suffix: the max is always the suffix cost.
        sol = lim;
        min = comm[lim] + prev[d - lim];
    } else {
        // Binary search for the smallest e with
        // Tcomp(i,e) >= cost[d-e, i+1]; the invariant holds at the
        // bounds by the two branches above.
        let (mut emin, mut emax) = (lo, lim);
        let mut e = (lo + lim) / 2;
        while e != emin {
            if comp[e] < prev[d - e] {
                emin = e;
            } else {
                emax = e;
            }
            e = (emin + emax) / 2;
        }
        sol = emax;
        min = comm[emax] + comp[emax];
    }
    // Downward scan over the region where the suffix dominates.
    let mut e = sol;
    while e > lo {
        e -= 1;
        let suffix = prev[d - e];
        let m = comm[e] + suffix;
        if m < min {
            sol = e;
            min = m;
        } else if suffix >= min {
            break;
        }
    }
    (min, sol as u32)
}

/// Smallest `e ∈ lo..=hi` with `Tcomp(i,e) >= cost[d-e, i+1]`, or
/// `hi + 1` when none. Requires `hi <= d` and the predicate monotone
/// over the range (false… then true…), which holds whenever `comp` and
/// `prev` are non-decreasing.
#[inline]
pub(crate) fn crossing(comp: &[f64], prev: &[f64], d: usize, lo: usize, hi: usize) -> usize {
    debug_assert!(lo <= hi + 1 && hi <= d);
    let (mut a, mut b) = (lo, hi + 1);
    while a < b {
        let m = (a + b) / 2;
        if comp[m] >= prev[d - m] {
            b = m;
        } else {
            a = m + 1;
        }
    }
    a
}

/// One divide-and-conquer cell, given its crossing point `c`
/// (`c > d` encodes "no crossing"). Performs exactly the comparisons
/// [`optimized_cell`] performs over the full window `0..=d` once its
/// binary search has located `c`, so the result — value, choice and
/// tie-break — is bit-identical to Algorithm 2's cell.
#[inline]
pub(crate) fn dc_cell(comm: &[f64], comp: &[f64], prev: &[f64], d: usize, c: usize) -> (f64, u32) {
    let (mut sol, mut min);
    if c > d {
        // The suffix dominates even at the largest candidate.
        sol = d;
        min = comm[d] + prev[0];
    } else {
        sol = c;
        min = comm[c] + comp[c];
    }
    // Downward scan over the region where the suffix dominates, with
    // Algorithm 2's early exit (adding `Tcomm >= 0` cannot help).
    let mut e = sol;
    while e > 0 {
        e -= 1;
        let suffix = prev[d - e];
        let m = comm[e] + suffix;
        if m < min {
            sol = e;
            min = m;
        } else if suffix >= min {
            break;
        }
    }
    (min, sol as u32)
}

/// Fills the cells `start .. start + cost.len()` of one column by
/// divide and conquer over the monotone crossing point.
///
/// Two boundary binary searches pin down `c(start)` and `c(end)`; the
/// recursion then computes the middle cell's crossing inside
/// `[c(lo-end), c(hi-end)]` and halves both the cell range and the
/// crossing window, so the whole chunk spends `O(len + log n)`
/// comparator probes on crossings instead of Algorithm 2's
/// `O(len · log n)`. Requires `comm`, `comp` and `prev` non-decreasing
/// (the engine checks and falls back otherwise).
pub(crate) fn dc_chunk(
    comm: &[f64],
    comp: &[f64],
    prev: &[f64],
    start: usize,
    cost: &mut [f64],
    choice: &mut [u32],
) {
    let len = cost.len();
    debug_assert_eq!(len, choice.len());
    if len == 0 {
        return;
    }
    let end = start + len - 1;
    let clo = crossing(comp, prev, start, 0, start);
    let chi = if clo > end { clo } else { crossing(comp, prev, end, clo, end) };
    dc_range(comm, comp, prev, start, end, clo, chi, start, cost, choice);
}

/// Cell ranges at most this long are solved by [`dc_leaf`]'s sequential
/// sweep instead of recursing further. The recursion exists to narrow
/// crossing windows cheaply; below this size the sweep's
/// one-probe-per-cell sequential pass (cache-friendly, no call
/// overhead) beats further halving.
const DC_LEAF: usize = 4096;

/// Recursive core of [`dc_chunk`]: computes cells `s..=t` knowing
/// `clo <= c(s)` and (`c(t) <= chi` or `c(t) = t + 1`). `base` is the
/// cell index of `cost[0]`/`choice[0]`.
#[allow(clippy::too_many_arguments)]
fn dc_range(
    comm: &[f64],
    comp: &[f64],
    prev: &[f64],
    s: usize,
    t: usize,
    clo: usize,
    chi: usize,
    base: usize,
    cost: &mut [f64],
    choice: &mut [u32],
) {
    if s > t {
        return;
    }
    if t - s < DC_LEAF {
        return dc_leaf(comm, comp, prev, s, t, clo, chi, base, cost, choice);
    }
    let mid = (s + t) / 2;
    let hi = chi.min(mid);
    // `c(mid) >= clo` (monotone) and `c(mid) <= chi` unless there is no
    // crossing at `mid` at all — so a miss in `[clo, hi]` means none.
    let mut c = if clo > hi { hi + 1 } else { crossing(comp, prev, mid, clo, hi) };
    if c > hi {
        c = mid + 1;
    }
    let (v, e) = dc_cell(comm, comp, prev, mid, c);
    cost[mid - base] = v;
    choice[mid - base] = e;
    if mid > s {
        dc_range(comm, comp, prev, s, mid - 1, clo, c, base, cost, choice);
    }
    if mid < t {
        dc_range(comm, comp, prev, mid + 1, t, c, chi, base, cost, choice);
    }
}

/// Sequential leaf of the divide-and-conquer recursion: solves cells
/// `s..=t` in increasing order, advancing the crossing point by the
/// stronger stepwise bound `c(d) <= c(d+1) <= c(d) + 1` (both
/// inequalities follow from `comp` and `prev` being non-decreasing, the
/// same premise as the recursion's monotonicity). One boundary binary
/// search pins `c(s)` inside the inherited window `[clo, chi]`; every
/// later cell then needs exactly **one** comparator probe, in
/// near-sequential memory order — this sweep is where the kernel's
/// speed over Algorithm 2's per-cell `O(log n)` random-access binary
/// searches actually comes from.
#[allow(clippy::too_many_arguments)]
fn dc_leaf(
    comm: &[f64],
    comp: &[f64],
    prev: &[f64],
    s: usize,
    t: usize,
    clo: usize,
    chi: usize,
    base: usize,
    cost: &mut [f64],
    choice: &mut [u32],
) {
    // Slice hints: every index below is `<= t`, which lets the
    // optimizer hoist the bounds checks out of the hot loop.
    let comm = &comm[..=t];
    let comp = &comp[..=t];
    let prev = &prev[..=t];
    let hi = chi.min(s);
    let mut c = if clo > hi { hi + 1 } else { crossing(comp, prev, s, clo, hi) };
    if c > hi {
        c = s + 1;
    }
    let (v, e) = dc_cell(comm, comp, prev, s, c);
    cost[s - base] = v;
    choice[s - base] = e;
    for d in s + 1..=t {
        // `c` is `c(d − 1) ∈ [0, d]`; step it to `c(d) ∈ {c, c + 1}`.
        if c >= d {
            // No crossing at `d − 1` (`c == d`): test the one new
            // candidate `e = d`.
            c = if comp[d] >= prev[0] { d } else { d + 1 };
        } else {
            // The suffix grew past `Tcomp` at the old crossing iff the
            // predicate below holds; the stepwise bound guarantees
            // `c + 1 <= d` crosses then. Branchless: the predicate flips
            // in a data-dependent pattern, so a compare-and-add beats a
            // mispredicting branch.
            c += usize::from(comp[c] < prev[d - c]);
        }
        // The cell, fused inline (same comparisons in the same order as
        // [`dc_cell`], so values/choices/tie-breaks stay bit-identical).
        let (mut sol, mut min);
        if c > d {
            sol = d;
            min = comm[d] + prev[0];
        } else {
            sol = c;
            min = comm[c] + comp[c];
        }
        let mut e = sol;
        while e > 0 {
            e -= 1;
            let suffix = prev[d - e];
            let m = comm[e] + suffix;
            if m < min {
                sol = e;
                min = m;
            } else if suffix >= min {
                break;
            }
        }
        cost[d - base] = min;
        choice[d - base] = sol as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation of one cell restricted to `lo..=lim`.
    fn exhaustive_cell(
        comm: &[f64],
        comp: &[f64],
        prev: &[f64],
        d: usize,
        lo: usize,
        lim: usize,
    ) -> f64 {
        (lo..=lim)
            .map(|e| comm[e] + f64::max(comp[e], prev[d - e]))
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn optimized_matches_exhaustive_on_windows() {
        // Non-decreasing comm/comp, non-decreasing prev (as the DP
        // guarantees); every window must agree with the brute scan.
        let comm: Vec<f64> = (0..=20).map(|x| 0.3 * x as f64).collect();
        let comp: Vec<f64> = (0..=20).map(|x| 0.7 * x as f64 + 0.1).collect();
        let prev: Vec<f64> = (0..=20).map(|x| 0.5 * x as f64 + 2.0).collect();
        for d in 0..=20usize {
            for lo in 0..=d {
                for lim in lo..=d {
                    let (v, e) = optimized_cell(&comm, &comp, &prev, d, lo, lim);
                    let want = exhaustive_cell(&comm, &comp, &prev, d, lo, lim);
                    assert_eq!(v, want, "d={d} lo={lo} lim={lim}");
                    assert!((lo..=lim).contains(&(e as usize)));
                }
            }
        }
    }

    #[test]
    fn basic_cell_scans_everything() {
        let comm = [0.0, 1.0, 2.0, 3.0];
        let comp = [5.0, 1.0, 0.5, 7.0]; // non-monotone is fine for Alg. 1
        let prev = [0.0, 2.0, 4.0, 6.0];
        let (v, e) = basic_cell(&comm, &comp, &prev, 3);
        let want = (0..=3)
            .map(|e| comm[e] + f64::max(comp[e], prev[3 - e]))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(v, want);
        assert_eq!(e, 2);
    }

    #[test]
    fn crossing_matches_linear_scan() {
        let comp: Vec<f64> = (0..=30).map(|x| 0.4 * x as f64).collect();
        let prev: Vec<f64> = (0..=30).map(|x| 0.25 * x as f64 + 1.0).collect();
        for d in 0..=30usize {
            let want = (0..=d).find(|&e| comp[e] >= prev[d - e]).unwrap_or(d + 1);
            assert_eq!(crossing(&comp, &prev, d, 0, d), want, "d={d}");
        }
    }

    #[test]
    fn dc_chunk_is_bit_identical_to_algorithm_2() {
        // Deterministic pseudo-random non-decreasing inputs (xorshift so
        // the test needs no RNG dependency), chunked at several offsets.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 257usize;
        let mut acc = |scale: f64| {
            let mut v = 0.0;
            (0..=n)
                .map(|_| {
                    v += next() * scale;
                    v
                })
                .collect::<Vec<f64>>()
        };
        let comm = acc(0.01);
        let comp = acc(1.0);
        let prev = acc(0.7);
        for chunk in [1usize, 7, 64, n + 1] {
            let mut cost = vec![f64::INFINITY; n + 1];
            let mut choice = vec![0u32; n + 1];
            for start in (0..=n).step_by(chunk) {
                let len = chunk.min(n + 1 - start);
                dc_chunk(
                    &comm,
                    &comp,
                    &prev,
                    start,
                    &mut cost[start..start + len],
                    &mut choice[start..start + len],
                );
            }
            for d in 0..=n {
                let (v, e) = optimized_cell(&comm, &comp, &prev, d, 0, d);
                assert_eq!(cost[d].to_bits(), v.to_bits(), "chunk={chunk} d={d}");
                assert_eq!(choice[d], e, "chunk={chunk} d={d}");
            }
        }
    }

    #[test]
    fn dc_plane_layout_is_column_major() {
        let mut plane = DpPlane::new(3, 4);
        assert_eq!(plane.stride(), 5);
        assert_eq!(plane.cost.len(), 15);
        plane.cost[2 * 5 + 3] = 42.0;
        plane.choice[2 * 5 + 3] = 7;
        assert_eq!(plane.col(2)[3], 42.0);
        assert_eq!(plane.choice_col(2)[3], 7);
    }

    #[test]
    fn full_window_ties_resolve_like_algorithm_2() {
        // With equal candidate values the downward scan keeps the first
        // strictly-smaller candidate; full-window calls must behave like
        // the original Algorithm 2 cell (lowest index among ties found on
        // the way down only if strictly better).
        let comm = [0.0, 0.0, 0.0];
        let comp = [1.0, 1.0, 1.0];
        let prev = [1.0, 1.0, 1.0];
        let (v, e) = optimized_cell(&comm, &comp, &prev, 2, 0, 2);
        assert_eq!(v, 1.0);
        // comp[0] >= prev[2] holds, so the first branch fires with e = 0.
        assert_eq!(e, 0);
    }
}
