//! Shared per-cell kernels and the flat DP plane of the three dynamic
//! programs.
//!
//! Algorithm 1, Algorithm 2 and the D&C kernel (the three
//! [`crate::parallel::Kernel`]s) all fill a table column by column:
//! `cost[d, i] = min_e Tcomm(i,e) + max(Tcomp(i,e), cost[d-e, i+1])`,
//! where column `i` depends only on column `i+1`. The per-cell work is
//! factored out here so the serial, multi-threaded and pruned solves of
//! the engine ([`crate::parallel`]) all execute the *same
//! floating-point operations in the same order* — which is what makes
//! their results bit-identical, a property the test-suite enforces.
//!
//! [`optimized_cell`] generalizes Algorithm 2's cell to a candidate
//! window `lo..=lim`: with `(lo, lim) = (0, d)` it reduces exactly to the
//! paper's Algorithm 2, and the band narrows the window without
//! disturbing the operations performed inside it.
//!
//! The faster sweeps exploit a sharper structural fact. Define the
//! **crossing point** `c(d)` = the smallest candidate `e` of cell `d`
//! with `Tcomp(i,e) >= cost[d-e, i+1]` (`lim + 1` when no such `e`
//! exists). When `Tcomp` is non-decreasing and the previous column is
//! non-decreasing — which every column of the DP is, by induction, for
//! non-decreasing cost functions — the crossing is monotone and moves by
//! at most one step per cell: `c(d) <= c(d+1) <= c(d) + 1`, once clamped
//! to the window's lower edge (which also rises by at most one).
//! Algorithm 2's per-cell binary search re-derives `c(d)` from scratch
//! (`O(log n)` cache-hostile probes per cell); [`sweep`] instead fills a
//! run of cells in ascending order, binary-searching only the first
//! cell's crossing and stepping it from there at one probe per cell:
//! `O(len + log n)` crossing probes for a chunk of `len` cells. It fills
//! every chunk of a banded column and every chunk of a full-plane D&C
//! column ([`dc_chunk`]). Every cell is then evaluated by
//! [`crossing_cell`], which performs *exactly* the candidate comparisons
//! Algorithm 2's cell performs after its binary search, so values,
//! choices and tie-breaks stay bit-identical. A banded column whose
//! previous column is not non-decreasing (a floating-point surprise, not
//! an expected input) binary-searches every cell instead
//! ([`Crossing::of`]).
//!
//! Every cell ends in one shared downward scan ([`scan_down`]) over the
//! candidates below the crossing, where the suffix dominates. Algorithm
//! 2 stops it once `Tcomm(i,lo) + suffix` alone reaches the incumbent,
//! which on a full plane can take hundreds of candidates; the shared
//! scan also skips whole blocks of candidates whose lower bound reaches
//! the incumbent, without changing which candidate wins.
//!
//! Cells, crossings and scans are generic over how a cost is read
//! ([`Cost`]): from a tabulated slice on the full plane, or evaluated in
//! the cell ([`InCell`]) in the band, whose costs are all affine. The
//! in-cell formula is the one a tabulation evaluates, so both read the
//! same bits, and a banded solve tabulates nothing.
//!
//! All three kernels write into one [`DpPlane`]: two flat buffers (an
//! `f64` cost and a `u32` backtrack per cell) holding each column as a
//! contiguous run of cells `(start, cells)`. A full plane holds every
//! cell `0..=n` of every column; a banded plane holds only the cells the
//! pruning bound leaves live, and records per column the bound and the
//! band's upper edge it was computed under. Keeping a banded plane alive
//! is what lets a re-plan warm-start from its surviving suffix columns
//! (see
//! [`crate::planner::PlanCache`]): the reused columns are the first ones
//! it appended, so a warm start truncates the buffers after them and
//! keeps appending. A full plane is never reused.

use crate::cost::CostFn;

/// The largest supported item count: counts are reconstructed through a
/// `u32` choice table.
pub(crate) const MAX_ITEMS: usize = u32::MAX as usize;

/// One-slot recycling pool for dropped full-plane buffers.
///
/// A `p = 64`, `n = 10^5` plane is ~115 MB; allocating it fresh per
/// solve costs tens of thousands of first-touch page faults, which
/// dwarfs the D&C kernel's own work when cold solves repeat (bench
/// sweeps, non-affine platforms planned again and again). Dropped
/// planes park their buffers here and the next [`DpPlane::full`] of an
/// equal-or-smaller size reuses them (contents stale — see the plane
/// docs for the write-before-read discipline that makes this sound).
/// Keeping a single slot bounds the held memory to one plane.
static PLANE_POOL: std::sync::Mutex<Option<(Vec<f64>, Vec<u32>)>> = std::sync::Mutex::new(None);

/// Where one column's computed cells live: cells `d ∈ start..start + len`
/// at buffer positions `off..off + len`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ColSpan {
    /// First cell (`d`) of the column held.
    pub start: usize,
    off: usize,
    /// Cells held.
    pub len: usize,
    /// The pruning bound the column was computed under (`+inf` on a
    /// full plane).
    pub bound: f64,
    /// The band's upper edge the column was computed under (`n` on a
    /// full plane): the column holds every cell up to it whose value is
    /// within `bound`.
    pub edge: usize,
}

/// Storage of one DP solve: for each of the `p` columns, a contiguous
/// run of cells `(start, cells)` — the column's cost values plus a `u32`
/// backtrack (choice) per cell — in two flat buffers.
///
/// Two layouts share the type:
///
/// * a **full** plane reserves a slot of `n + 1` cells per column,
///   column-major (column `i` at `i*(n+1) .. (i+1)*(n+1)`); a
///   computed column is `start = 0, len = n + 1`, and the top column,
///   which only ever needs cell `n`, is `start = n, len = 1`;
/// * a **banded** plane appends each column as the sweep reaches it,
///   holding just the band of cells that can lie on a plan within the
///   pruning bound (see [`crate::parallel`]). A column is opened with
///   room for its widest possible band and trimmed once computed. A
///   warm start [`DpPlane::rebase`]s a cached banded plane by dropping
///   every column appended after the reused ones.
///
/// A full plane's buffers are **unspecified** until written: they come
/// zero-allocated from the OS (lazily mapped pages, no up-front fill) or
/// recycled from a small process-wide pool fed by dropped planes
/// (skipping ~30k page faults per repeated solve). The engine writes
/// every cell of a column's span before anything reads it, so stale
/// contents are never observable.
#[derive(Debug)]
pub(crate) struct DpPlane {
    /// Problem size: columns index cells `d ∈ 0..=n`.
    pub n: usize,
    /// Number of processors = number of columns.
    pub p: usize,
    banded: bool,
    cost: Vec<f64>,
    choice: Vec<u32>,
    cols: Vec<ColSpan>,
}

impl DpPlane {
    /// A full plane for `p` processors and `n` items; every column is
    /// empty until [`DpPlane::open`]ed.
    pub fn full(p: usize, n: usize) -> DpPlane {
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
        DpPlane { n, p, banded: false, cost, choice, cols: vec![ColSpan::default(); p] }
    }

    /// This banded plane, re-used for a solve over `p` processors and
    /// `n` items whose last `reuse` columns are this plane's last `reuse`
    /// columns. Those are the first `reuse` columns it appended, so its
    /// buffers are truncated after them and the other `p - reuse`
    /// columns are appended from there: no cell is copied.
    pub fn rebase(mut self, p: usize, n: usize, reuse: usize) -> DpPlane {
        debug_assert!(self.banded && reuse < p && reuse < self.p);
        let kept = &self.cols[self.p - reuse..];
        let end = kept.first().map_or(0, |c| c.off + c.len);
        let mut cols = vec![ColSpan::default(); p - reuse];
        cols.extend_from_slice(kept);
        self.cost.truncate(end);
        self.choice.truncate(end);
        (self.n, self.p, self.cols) = (n, p, cols);
        self
    }

    /// An empty banded plane: columns are appended by [`DpPlane::open`].
    pub fn banded(p: usize, n: usize) -> DpPlane {
        DpPlane {
            n,
            p,
            banded: true,
            cost: Vec::new(),
            choice: Vec::new(),
            cols: vec![ColSpan::default(); p],
        }
    }

    /// Makes column `i` hold cells `start..start + len` (contents
    /// unspecified until written). A banded plane appends the column to
    /// its buffers; columns must be opened in sweep order, each after the
    /// previous one was [`DpPlane::trim`]med.
    pub fn open(&mut self, i: usize, start: usize, len: usize) {
        debug_assert!(start + len <= self.n + 1);
        let off = if self.banded {
            let off = self.cost.len();
            self.cost.resize(off + len, 0.0);
            self.choice.resize(off + len, 0);
            off
        } else {
            i * (self.n + 1) + start
        };
        self.cols[i] = ColSpan { start, off, len, bound: f64::INFINITY, edge: self.n };
    }

    /// Records that column `i` was computed under the pruning bound
    /// `bound`, in a band whose upper edge is `edge`.
    pub fn set_band(&mut self, i: usize, bound: f64, edge: usize) {
        (self.cols[i].bound, self.cols[i].edge) = (bound, edge);
    }

    /// Whether this is a banded plane.
    pub fn is_banded(&self) -> bool {
        self.banded
    }

    /// Shortens column `i` to its first `len` cells; a banded plane gives
    /// the rest back (it must be the last column opened).
    pub fn trim(&mut self, i: usize, len: usize) {
        let col = &mut self.cols[i];
        debug_assert!(len <= col.len);
        col.len = len;
        if self.banded {
            self.cost.truncate(col.off + len);
            self.choice.truncate(col.off + len);
        }
    }

    /// Where column `i`'s cells are.
    #[inline]
    pub fn span(&self, i: usize) -> ColSpan {
        self.cols[i]
    }

    /// `(cost, choice)` of cell `d` of column `i`, or `None` when the
    /// column does not hold it.
    #[inline]
    pub fn get(&self, i: usize, d: usize) -> Option<(f64, u32)> {
        let c = self.cols[i];
        let k = d.checked_sub(c.start).filter(|&k| k < c.len)?;
        Some((self.cost[c.off + k], self.choice[c.off + k]))
    }

    /// Column `i`'s cost and choice cells for writing.
    pub fn col_mut(&mut self, i: usize) -> (&mut [f64], &mut [u32]) {
        let c = self.cols[i];
        (&mut self.cost[c.off..c.off + c.len], &mut self.choice[c.off..c.off + c.len])
    }

    /// Column `i`'s cost and choice cells for writing, with column
    /// `i + 1`'s cost cells for reading.
    pub fn column_mut(&mut self, i: usize) -> (&mut [f64], &mut [u32], &[f64]) {
        let (c, q) = (self.cols[i], self.cols[i + 1]);
        let (cur, prev) = if c.off < q.off {
            let (a, b) = self.cost.split_at_mut(q.off);
            (&mut a[c.off..c.off + c.len], &b[..q.len])
        } else {
            let (a, b) = self.cost.split_at_mut(c.off);
            (&mut b[..c.len], &a[q.off..q.off + q.len])
        };
        (cur, &mut self.choice[c.off..c.off + c.len], prev)
    }

    /// Bytes held by the cost and choice buffers.
    pub fn bytes(&self) -> usize {
        self.cost.len() * std::mem::size_of::<f64>()
            + self.choice.len() * std::mem::size_of::<u32>()
    }
}

impl Drop for DpPlane {
    /// Parks a full plane's buffers in [`PLANE_POOL`] for the next solve.
    /// The slot keeps whichever pair is larger, so a burst of small solves
    /// cannot evict a big reusable buffer.
    fn drop(&mut self) {
        if self.banded {
            return;
        }
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

/// How a kernel reads one processor's cost at an item count: a tabulated
/// slice on the full plane, or an [`InCell`] affine cost in the band.
/// Every cell, crossing and scan below is generic over it, so both
/// layouts run the same bodies.
pub(crate) trait Cost: Copy {
    /// The cost of `x` items.
    fn at(self, x: usize) -> f64;

    /// This cost, read only at counts `..=last`: a slice hint that lets
    /// the optimizer hoist bounds checks out of a hot loop.
    fn upto(self, last: usize) -> Self;
}

impl Cost for &[f64] {
    #[inline(always)]
    fn at(self, x: usize) -> f64 {
        self[x]
    }

    #[inline(always)]
    fn upto(self, last: usize) -> Self {
        &self[..=last]
    }
}

/// An affine cost evaluated in the cell instead of read from a table.
///
/// [`Cost::at`] is `intercept + slope * x as f64`, [`CostFn::eval`]'s
/// expression for `Affine`, with no fused multiply-add, so every value
/// has the bits a tabulation of the same function holds. `Zero` and
/// `Linear` get the intercept `-0.0`: `y + -0.0` is `y` bit for bit for
/// every `y`, signed zeros included, so the one branch-free expression
/// also reproduces `Linear`'s `slope * x as f64` and `Zero`'s `0.0`.
/// The count converts through `i64`: the same value for every count up
/// to [`MAX_ITEMS`], in one instruction where an unsigned conversion
/// takes several (~10% of a banded Table-1 solve).
#[derive(Debug, Clone, Copy)]
pub(crate) struct InCell {
    intercept: f64,
    slope: f64,
}

impl InCell {
    /// `f` evaluated in the cell, `None` when it is not affine.
    pub fn new(f: &CostFn) -> Option<InCell> {
        let (intercept, slope) = match *f {
            CostFn::Zero => (-0.0, 0.0),
            CostFn::Linear { slope } => (-0.0, slope),
            CostFn::Affine { intercept, slope } => (intercept, slope),
            CostFn::Table { .. } | CostFn::Custom(_) => return None,
        };
        Some(InCell { intercept, slope })
    }
}

impl Cost for InCell {
    #[inline(always)]
    fn at(self, x: usize) -> f64 {
        debug_assert!(x <= MAX_ITEMS);
        self.intercept + self.slope * (x as i64) as f64
    }

    #[inline(always)]
    fn upto(self, _: usize) -> Self {
        self
    }
}

/// One Algorithm-1 cell: scan every candidate `e ∈ 0..=d`.
///
/// Returns `(cost[d, i], choice[d, i])`.
#[inline]
pub(crate) fn basic_cell<C: Cost>(comm: C, comp: C, prev: &[f64], d: usize) -> (f64, u32) {
    let mut best_e = 0usize;
    let mut best = f64::INFINITY;
    for e in 0..=d {
        let m = comm.at(e) + f64::max(comp.at(e), prev[d - e]);
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
///    the early exit `Tcomm(i,lo) + suffix >= min`: every candidate left
///    has `Tcomm >= Tcomm(i,lo)` and a suffix at least as large, so none
///    can be strictly smaller. With `lo = 0` and `Tcomm(i,0) = 0` this is
///    Algorithm 2's `suffix >= min`; a narrower window stops sooner, and
///    since only a strictly smaller candidate replaces the incumbent the
///    answer and its tie-break are unchanged.
///
/// The three cases locate the crossing point; [`crossing_cell`] then
/// evaluates the cell from it.
#[inline]
pub(crate) fn optimized_cell<C: Cost>(
    comm: C,
    comp: C,
    prev: &[f64],
    d: usize,
    lo: usize,
    lim: usize,
) -> (f64, u32) {
    debug_assert!(lo <= lim && lim <= d);
    let c = if comp.at(lo) >= prev[d - lo] {
        // Even the smallest candidate computes no sooner than the suffix:
        // the max is always Tcomp, so the best move is e = lo.
        lo
    } else if comp.at(lim) < prev[d - lim] {
        // Even the largest candidate computes faster than the smallest
        // suffix: the max is always the suffix cost.
        lim + 1
    } else {
        // Binary search for the smallest e with
        // Tcomp(i,e) >= cost[d-e, i+1]; the invariant holds at the
        // bounds by the two branches above.
        let (mut emin, mut emax) = (lo, lim);
        let mut e = (lo + lim) / 2;
        while e != emin {
            if comp.at(e) < prev[d - e] {
                emin = e;
            } else {
                emax = e;
            }
            e = (emin + emax) / 2;
        }
        emax
    };
    crossing_cell(comm, comp, prev, d, lo, lim, c)
}

/// Candidates [`scan_down`] evaluates one by one before it starts
/// skipping blocks. Short scans (steep suffixes, as on the bench gate's
/// compute-dominated p = 64 platform, ~2 candidates per cell) end here
/// exactly as Algorithm 2's plain scan would, with no block test to pay.
/// On Table 1's full plane a longer prefix only adds probes: the argmin
/// sits within one step of the scan's start on average.
const PLAIN_SCAN: usize = 4;

/// Algorithm 2's downward scan over the candidates `lo..sol` below the
/// crossing point, where each candidate is `Tcomm(i,e) + cost[d-e, i+1]`,
/// starting from the incumbent `(min, sol)`. Requires `comm` and `prev`
/// non-decreasing (the premise of Algorithm 2's early exit).
///
/// Candidates are visited top-down, and only a strictly smaller one
/// replaces the incumbent, so value, choice and tie-break are those of
/// the plain one-candidate-at-a-time scan with the exit
/// `Tcomm(i,lo) + suffix >= min`. After the first [`PLAIN_SCAN`]
/// candidates, the scan may also skip a whole block `a..e` of the
/// remaining candidates at once: `comm[a] + prev[d-(e-1)]` is a lower
/// bound on every candidate in it (both are non-decreasing and rounded
/// addition is monotone), so when that bound reaches `min` none of them
/// can be strictly smaller. Each skip doubles the block, each candidate
/// evaluated instead halves it. On full planes the exit must wait for
/// the suffix alone to reach `min`: on Table 1 at n = 200,000 that is
/// ~365 candidates per cell, which the blocks cut to ~12 probes.
#[inline(always)]
fn scan_down<C: Cost>(
    comm: C,
    prev: &[f64],
    d: usize,
    lo: usize,
    mut sol: usize,
    mut min: f64,
) -> (f64, u32) {
    let floor = comm.at(lo);
    let mut e = sol;
    let plain_end = sol.saturating_sub(PLAIN_SCAN).max(lo);
    while e > plain_end {
        e -= 1;
        let suffix = prev[d - e];
        let m = comm.at(e) + suffix;
        if m < min {
            sol = e;
            min = m;
        } else if floor + suffix >= min {
            return (min, sol as u32);
        }
    }
    let mut block = 2;
    while e > lo {
        // `suffix` is the smallest suffix of every candidate left.
        let suffix = prev[d - (e - 1)];
        if floor + suffix >= min {
            break;
        }
        let a = e.saturating_sub(block).max(lo);
        if comm.at(a) + suffix >= min {
            e = a;
            block *= 2;
        } else {
            e -= 1;
            let m = comm.at(e) + suffix;
            if m < min {
                sol = e;
                min = m;
            }
            block = (block / 2).max(2);
        }
    }
    (min, sol as u32)
}

/// Smallest `e ∈ lo..=hi` with `Tcomp(i,e) >= cost[d-e, i+1]`, or
/// `hi + 1` when none. Requires `hi <= d` and the predicate monotone
/// over the range (false… then true…), which holds whenever `comp` and
/// `prev` are non-decreasing.
#[inline]
pub(crate) fn crossing<C: Cost>(comp: C, prev: &[f64], d: usize, lo: usize, hi: usize) -> usize {
    debug_assert!(lo <= hi + 1 && hi <= d);
    let (mut a, mut b) = (lo, hi + 1);
    while a < b {
        let m = (a + b) / 2;
        if comp.at(m) >= prev[d - m] {
            b = m;
        } else {
            a = m + 1;
        }
    }
    a
}

/// One cell over the candidate window `lo..=lim`, given its crossing
/// point `c` (`c > lim` encodes "no crossing"). Performs exactly the
/// comparisons [`optimized_cell`] performs once it has located `c`, so
/// the result — value, choice and tie-break — is bit-identical to
/// Algorithm 2's cell. Always inlined: it is the body of [`sweep`]'s hot
/// loop, whose slice hints only pay off when the scan is compiled into
/// it.
#[inline(always)]
fn crossing_cell<C: Cost>(
    comm: C,
    comp: C,
    prev: &[f64],
    d: usize,
    lo: usize,
    lim: usize,
    c: usize,
) -> (f64, u32) {
    let (sol, min) = if c > lim {
        // The suffix dominates even at the largest candidate.
        (lim, comm.at(lim) + prev[d - lim])
    } else {
        (c, comm.at(c) + comp.at(c))
    };
    scan_down(comm, prev, d, lo, sol, min)
}

/// Whether `prev` is non-decreasing: the premise of every crossing-based
/// kernel (a `NaN` breaks no pair, as in the D&C column check).
pub(crate) fn non_decreasing(prev: &[f64]) -> bool {
    !prev.windows(2).any(|w| w[1] < w[0])
}

/// How [`sweep`] finds each cell's crossing point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Crossing {
    /// Step it from cell to cell, binary-searching the first cell's.
    Step,
    /// Binary-search it in every cell, as [`optimized_cell`] does.
    PerCell,
}

impl Crossing {
    /// How a column whose previous column holds `prev` finds its
    /// crossings: stepping needs `prev` non-decreasing, else each cell
    /// searches its own.
    pub fn of(prev: &[f64]) -> Crossing {
        if non_decreasing(prev) {
            Crossing::Step
        } else {
            Crossing::PerCell
        }
    }
}

/// The candidate window `lo(d)..=lim(d)` of each cell `d` of a column
/// whose processor takes at most `cap` items and whose previous column
/// holds cells `0..=held`: from the smallest count that lands on a held
/// cell, `d − min(d, held)`, up to `min(d, cap)`. Both edges rise by at
/// most one per cell, and the window is empty (`lo > lim`) only on a
/// column's tail, where no candidate is live.
#[inline(always)]
pub(crate) fn window(held: usize, cap: usize) -> impl Fn(usize) -> (usize, usize) + Copy {
    move |d| (d.saturating_sub(held), d.min(cap))
}

/// Fills the cells `first..=last` of one column (`cost[0]` is cell
/// `first`) in ascending order over the candidate windows `window(d)`
/// (see [`window`]; the full plane's [`dc_chunk`] passes `0..=d`), and
/// returns how many cells it evaluated. A cell with an empty window is
/// `+inf`.
///
/// Unless `mode` is [`Crossing::PerCell`], the sweep takes one crossing
/// probe per cell. With `comp` and `prev` non-decreasing, a candidate
/// below cell `d`'s crossing is still below it at `d + 1` (its suffix
/// only grew), and the candidate after the crossing crosses at `d + 1`
/// (it meets the same suffix with a larger `Tcomp`). So `c(d+1)` is
/// `max(c(d), lo(d+1))` or one more, and one probe decides which, with
/// `lim + 1` meaning "no crossing" throughout. Each cell then runs
/// [`crossing_cell`], making exactly [`optimized_cell`]'s comparisons.
///
/// The sweep stops after the first value above `bound` and writes `+inf`
/// to the cells after it: column values are non-decreasing in `d`, so
/// those are above it too.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn sweep<C: Cost>(
    comm: C,
    comp: C,
    prev: &[f64],
    window: impl Fn(usize) -> (usize, usize),
    (first, last): (usize, usize),
    mode: Crossing,
    bound: f64,
    cost: &mut [f64],
    choice: &mut [u32],
) -> usize {
    debug_assert!(first <= last && cost.len() == last - first + 1 && choice.len() == cost.len());
    // Equal, known lengths let the optimizer drop the writes' bounds checks.
    let (cost, choice) = (&mut cost[..=last - first], &mut choice[..=last - first]);
    let mut c = match mode {
        Crossing::Step => {
            let (lo, lim) = window(first);
            if lo > lim {
                lo
            } else {
                crossing(comp, prev, first, lo, lim)
            }
        }
        Crossing::PerCell => 0,
    };
    // The loop runs over `d` up to `last` (not over `cost`), so that in
    // [`dc_chunk`] the optimizer sees every `prev` index below
    // `prev.len()`.
    for d in first..=last {
        let (lo, lim) = window(d);
        let (v, e) = if lo > lim {
            (f64::INFINITY, 0)
        } else if mode == Crossing::PerCell {
            optimized_cell(comm, comp, prev, d, lo, lim)
        } else {
            if d > first {
                // Step `c(d − 1)` to `c(d)`. Branchless: the predicate
                // flips in a data-dependent pattern, so a compare-and-add
                // beats a mispredicting branch.
                c = c.max(lo);
                if c <= lim {
                    c += usize::from(comp.at(c) < prev[d - c]);
                }
            }
            crossing_cell(comm, comp, prev, d, lo, lim, c)
        };
        let k = d - first;
        cost[k] = v;
        choice[k] = e;
        if v > bound {
            cost[k + 1..].fill(f64::INFINITY);
            return k + 1;
        }
    }
    cost.len()
}

/// Fills the cells `first .. first + cost.len()` of one full-plane D&C
/// column: one [`sweep`] over the windows `0..=d`, which binary-searches
/// the first cell's crossing and steps it from there, `O(len + log n)`
/// crossing probes for the chunk. Requires `comm`, `comp` and `prev`
/// non-decreasing (the engine checks and falls back otherwise).
///
/// The slice hints cut every read at the chunk's last cell, which lets
/// the optimizer hoist the bounds checks out of the hot loop. Kept out
/// of line: the same sweep inlined into the engine's chunk dispatch ran
/// ~5% slower on Table 1's full plane.
#[inline(never)]
pub(crate) fn dc_chunk<C: Cost>(
    comm: C,
    comp: C,
    prev: &[f64],
    first: usize,
    cost: &mut [f64],
    choice: &mut [u32],
) {
    let last = first + cost.len() - 1;
    let (comm, comp, prev) = (comm.upto(last), comp.upto(last), &prev[..=last]);
    let cells = (first, last);
    sweep(comm, comp, prev, |d| (0, d), cells, Crossing::Step, f64::INFINITY, cost, choice);
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
        (lo..=lim).map(|e| comm[e] + f64::max(comp[e], prev[d - e])).fold(f64::INFINITY, f64::min)
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
                    let (v, e) = optimized_cell(&comm[..], &comp[..], &prev, d, lo, lim);
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
        let (v, e) = basic_cell(&comm[..], &comp[..], &prev, 3);
        let want =
            (0..=3).map(|e| comm[e] + f64::max(comp[e], prev[3 - e])).fold(f64::INFINITY, f64::min);
        assert_eq!(v, want);
        assert_eq!(e, 2);
    }

    #[test]
    fn crossing_matches_linear_scan() {
        let comp: Vec<f64> = (0..=30).map(|x| 0.4 * x as f64).collect();
        let prev: Vec<f64> = (0..=30).map(|x| 0.25 * x as f64 + 1.0).collect();
        for d in 0..=30usize {
            let want = (0..=d).find(|&e| comp[e] >= prev[d - e]).unwrap_or(d + 1);
            assert_eq!(crossing(&comp[..], &prev, d, 0, d), want, "d={d}");
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
                    &comm[..],
                    &comp[..],
                    &prev,
                    start,
                    &mut cost[start..start + len],
                    &mut choice[start..start + len],
                );
            }
            for d in 0..=n {
                let (v, e) = optimized_cell(&comm[..], &comp[..], &prev, d, 0, d);
                assert_eq!(cost[d].to_bits(), v.to_bits(), "chunk={chunk} d={d}");
                assert_eq!(choice[d], e, "chunk={chunk} d={d}");
            }
        }
    }

    #[test]
    fn dc_plane_layout_is_column_major() {
        let mut plane = DpPlane::full(3, 4);
        assert_eq!(plane.bytes(), 15 * 12);
        plane.open(2, 0, 5);
        plane.open(1, 0, 5);
        let (cur, choice, prev) = plane.column_mut(1);
        assert_eq!((cur.len(), choice.len(), prev.len()), (5, 5, 5));
        cur[3] = 42.0;
        choice[3] = 7;
        assert_eq!(plane.get(1, 3), Some((42.0, 7)));
        assert_eq!(plane.get(0, 4), None, "column 0 is not open yet");
        plane.open(0, 4, 1);
        assert_eq!((plane.span(0).start, plane.span(0).len), (4, 1));
        assert_eq!(plane.get(0, 3), None);
    }

    #[test]
    fn banded_plane_holds_only_its_bands() {
        let mut plane = DpPlane::banded(3, 1000);
        plane.open(2, 400, 50);
        plane.trim(2, 20);
        plane.open(1, 390, 40);
        let (cur, choice, prev) = plane.column_mut(1);
        assert_eq!((cur.len(), choice.len(), prev.len()), (40, 40, 20));
        cur[0] = 1.5;
        choice[0] = 9;
        plane.trim(1, 10);
        assert_eq!(plane.get(1, 390), Some((1.5, 9)));
        assert_eq!(plane.get(1, 389), None);
        assert_eq!(plane.get(1, 400), None, "trimmed away");
        assert_eq!(plane.bytes(), 30 * 12);
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
        let (v, e) = optimized_cell(&comm[..], &comp[..], &prev, 2, 0, 2);
        assert_eq!(v, 1.0);
        // comp[0] >= prev[2] holds, so the first branch fires with e = 0.
        assert_eq!(e, 0);
    }

    /// Algorithm 2's plain downward scan, one candidate per step with the
    /// exit `Tcomm(i,lo) + suffix >= min`: the reference [`scan_down`]
    /// must reproduce bit for bit. Also returns the candidates it visited.
    fn one_step_scan(
        comm: &[f64],
        prev: &[f64],
        d: usize,
        lo: usize,
        mut sol: usize,
        mut min: f64,
    ) -> (f64, u32, usize) {
        let floor = comm[lo];
        let start = sol;
        let mut e = sol;
        while e > lo {
            e -= 1;
            let suffix = prev[d - e];
            let m = comm[e] + suffix;
            if m < min {
                sol = e;
                min = m;
            } else if floor + suffix >= min {
                break;
            }
        }
        (min, sol as u32, start - e)
    }

    /// A xorshift draw in `0..m` (the tests need no RNG dependency).
    fn draw(state: &mut u64, m: u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state % m
    }

    /// `len` integer values, non-decreasing by steps in `0..=step`, one in
    /// `zero_in` (on average) held flat: plateaus give exact ties.
    fn ramp(state: &mut u64, len: usize, step: u64, zero_in: u64) -> Vec<f64> {
        let mut v = draw(state, 5) as f64;
        (0..len)
            .map(|_| {
                if draw(state, zero_in) != 0 {
                    v += draw(state, step + 1) as f64;
                }
                v
            })
            .collect()
    }

    #[test]
    fn block_scan_is_bit_identical_to_the_one_step_scan() {
        let rng = &mut 0x2545f4914f6cdd1du64;
        let (mut long, mut cases) = (0usize, 0usize);
        while cases < 120_000 {
            let span = if draw(rng, 2) == 0 { 2_000 } else { 200 };
            let len = 1 + draw(rng, span) as usize;
            let d = len - 1;
            // A `comm` growing slower than `prev` gives long scans.
            let steep = if draw(rng, 2) == 0 { 4 } else { 40 };
            let (comm_step, prev_step) = (1 + draw(rng, 3), 1 + draw(rng, steep));
            let zeros = 1 + draw(rng, 4);
            let comm = ramp(rng, len, comm_step, zeros);
            let zeros = 1 + draw(rng, 4);
            let mut prev = ramp(rng, len, prev_step, zeros);
            if draw(rng, 4) == 0 {
                let tail = draw(rng, len as u64 + 1) as usize;
                prev[tail..].fill(f64::INFINITY);
            }
            let lo = if draw(rng, 2) == 0 { 0 } else { draw(rng, len as u64) as usize };
            let sol = lo + draw(rng, (d - lo) as u64 + 1) as usize;
            // The incumbent: the scan's real start, a tie with some block
            // bound `comm[a] + prev[d - b]`, or nothing to beat.
            let (a, b) = (draw(rng, len as u64) as usize, draw(rng, len as u64) as usize);
            let min = match draw(rng, 4) {
                0 => comm[sol] + prev[d - sol],
                1 | 2 => comm[a.min(b)] + prev[d - a.max(b)],
                _ => f64::INFINITY,
            };
            let (want, want_e, visited) = one_step_scan(&comm, &prev, d, lo, sol, min);
            let (got, got_e) = scan_down(&comm[..], &prev, d, lo, sol, min);
            assert_eq!(
                (got.to_bits(), got_e),
                (want.to_bits(), want_e),
                "case {cases}: d={d} lo={lo} sol={sol} min={min}"
            );
            long += usize::from(visited > 2 * PLAIN_SCAN);
            cases += 1;
        }
        assert!(long > cases / 20, "only {long} of {cases} scans outran the plain prefix");
    }

    /// [`sweep`]'s per-cell reference: each cell binary-searches its own
    /// crossing with [`optimized_cell`] over its window (`+inf` when the
    /// window is empty), and the column stops after the first value
    /// above `bound`, leaving the cells after it `+inf`.
    fn per_cell<C: Cost>(
        comm: C,
        comp: C,
        prev: &[f64],
        cap: usize,
        first: usize,
        bound: f64,
        len: usize,
    ) -> (Vec<f64>, Vec<u32>, usize) {
        let held = prev.len() - 1;
        let (mut cost, mut choice) = (vec![f64::INFINITY; len], vec![0u32; len]);
        for k in 0..len {
            let d = first + k;
            let (lo, lim) = (d.saturating_sub(held), d.min(cap));
            if lo <= lim {
                (cost[k], choice[k]) = optimized_cell(comm, comp, prev, d, lo, lim);
            }
            if cost[k] > bound {
                return (cost, choice, k + 1);
            }
        }
        (cost, choice, len)
    }

    /// `sweep` over one chunk as the engine runs it (the crossing mode
    /// picked by [`Crossing::of`]) against [`per_cell`], bit for bit;
    /// returns whether plain stepping would have disagreed.
    #[allow(clippy::too_many_arguments)]
    fn check_sweep<C: Cost + std::fmt::Debug>(
        comm: C,
        comp: C,
        prev: &[f64],
        cap: usize,
        first: usize,
        len: usize,
        bound: f64,
        case: usize,
    ) -> bool {
        let run = |mode| {
            let (mut cost, mut choice) = (vec![f64::NAN; len], vec![0u32; len]);
            let (window, cells) = (window(prev.len() - 1, cap), (first, first + len - 1));
            let done = sweep(comm, comp, prev, window, cells, mode, bound, &mut cost, &mut choice);
            (cost, choice, done)
        };
        let bits = |(cost, choice, done): (Vec<f64>, Vec<u32>, usize)| {
            (cost.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), choice, done)
        };
        let want = bits(per_cell(comm, comp, prev, cap, first, bound, len));
        let got = bits(run(Crossing::of(prev)));
        assert_eq!(
            got, want,
            "case {case}: first={first} cap={cap} bound={bound} {comm:?} {comp:?}"
        );
        bits(run(Crossing::Step)) != want
    }

    /// A [`ramp`] with steps of up to `max_step` and random plateaus.
    fn random_ramp(rng: &mut u64, len: usize, max_step: u64) -> Vec<f64> {
        let (step, zero_in) = (1 + draw(rng, max_step), 1 + draw(rng, 4));
        ramp(rng, len, step, zero_in)
    }

    #[test]
    fn stepped_sweep_is_bit_identical_to_the_per_cell_search() {
        let rng = &mut 0x853c49e6748fea9bu64;
        let unit = |rng: &mut u64| draw(rng, 1 << 20) as f64 / (1 << 20) as f64;
        let (mut shifted, mut capped, mut stopped, mut fallbacks, mut diverged) = (0, 0, 0, 0, 0);
        for case in 0..30_000 {
            // The previous column's held cells: plateaus give exact ties,
            // an `+inf` tail stands for cells past the bound, and a dip
            // makes the column one stepping must not trust.
            let cells = 1 + draw(rng, 300) as usize;
            let mut prev = random_ramp(rng, cells, 30);
            if cells > 1 && draw(rng, 5) == 0 {
                let j = 1 + draw(rng, cells as u64 - 1) as usize;
                prev[j] = prev[j - 1] - 1.0 - draw(rng, 40) as f64;
                fallbacks += 1;
            }
            if draw(rng, 4) == 0 {
                let tail = 1 + draw(rng, cells as u64) as usize;
                prev[tail.min(cells)..].fill(f64::INFINITY);
            }
            // Windows `d - (cells - 1) ..= min(d, cap)`: chunks start
            // anywhere up to one past the last cell with a candidate.
            let cap = draw(rng, 400) as usize;
            let first = draw(rng, (cells + cap + 1) as u64) as usize;
            let len = 1 + draw(rng, 200) as usize;
            shifted += usize::from(first + len > cells);
            capped += usize::from(first + len > cap + 1);
            let mono = !prev.windows(2).any(|w| w[1] < w[0]);
            let disagrees = if draw(rng, 3) == 0 {
                // Affine costs read in the cell, as the band does.
                let mut affine = |scale: f64| {
                    let (intercept, slope) = (unit(rng) * 4.0, unit(rng) * scale);
                    InCell::new(&CostFn::Affine { intercept, slope }).unwrap()
                };
                let (comm, comp) = (affine(2.0), affine(40.0));
                let full = per_cell(comm, comp, &prev, cap, first, f64::INFINITY, len).0;
                let bound = match draw(rng, 3) {
                    0 => f64::INFINITY,
                    _ => full[draw(rng, len as u64) as usize],
                };
                stopped += usize::from(bound.is_finite());
                check_sweep(comm, comp, &prev, cap, first, len, bound, case)
            } else {
                let comm = random_ramp(rng, cap + 1, 3);
                let comp = random_ramp(rng, cap + 1, 40);
                let (comm, comp) = (&comm[..], &comp[..]);
                let full = per_cell(comm, comp, &prev, cap, first, f64::INFINITY, len).0;
                let bound = match draw(rng, 3) {
                    0 => f64::INFINITY,
                    _ => full[draw(rng, len as u64) as usize],
                };
                stopped += usize::from(bound.is_finite());
                check_sweep(comm, comp, &prev, cap, first, len, bound, case)
            };
            assert!(mono || Crossing::of(&prev) == Crossing::PerCell, "case {case}");
            diverged += usize::from(disagrees);
        }
        for (what, count) in [("lo > 0", shifted), ("capped lim", capped), ("bound", stopped)] {
            assert!(count > 3_000, "only {count} chunks exercised {what}");
        }
        assert!(fallbacks > 3_000, "only {fallbacks} non-monotone columns");
        assert!(diverged > 100, "stepping a non-monotone column diverged only {diverged} times");
    }

    #[test]
    fn in_cell_costs_have_the_bits_of_eval() {
        let rng = &mut 0x2545f4914f6cdd1du64;
        let unit = |rng: &mut u64| draw(rng, 1 << 53) as f64 / (1u64 << 53) as f64;
        let mut fns = vec![
            CostFn::Zero,
            CostFn::Linear { slope: 0.0 },
            CostFn::Linear { slope: -0.0 },
            CostFn::Affine { intercept: 0.0, slope: -0.0 },
            CostFn::Affine { intercept: -0.0, slope: 0.0 },
        ];
        for _ in 0..2_000 {
            let slope = unit(rng) * 10f64.powi(draw(rng, 16) as i32 - 12);
            let intercept = unit(rng) * 10f64.powi(draw(rng, 8) as i32 - 4);
            fns.push(CostFn::Linear { slope });
            fns.push(CostFn::Affine { intercept, slope });
        }
        let mut xs = vec![0, 1, 2, 1_000, MAX_ITEMS - 1, MAX_ITEMS];
        xs.extend((0..40).map(|_| draw(rng, MAX_ITEMS as u64 + 1) as usize));
        for f in &fns {
            let cell = InCell::new(f).expect("affine");
            for &x in &xs {
                assert_eq!(cell.at(x).to_bits(), f.eval(x).to_bits(), "{f:?} at {x}");
            }
        }
        assert!(InCell::new(&CostFn::table(vec![(0, 0.0), (10, 1.0)])).is_none());
        assert!(InCell::new(&CostFn::Custom(std::sync::Arc::new(|x| x as f64))).is_none());
    }
}
