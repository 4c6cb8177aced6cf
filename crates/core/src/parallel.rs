//! The exact dynamic programs — the paper's Algorithms 1 and 2 and the
//! D&C kernel, selected by [`Kernel`] — behind one
//! multi-threaded, optionally pruned entry point, [`solve`] (the
//! "parallel planning engine").
//!
//! The paper's own measurements make planning the bottleneck: Algorithm 1
//! needed *more than two days* at `n = 817,101, p = 16`, Algorithm 2
//! about six minutes. Three independent levers bring that down, all
//! behind one engine so every combination stays **bit-identical** to the
//! serial solve:
//!
//! * **Column parallelism.** Column `cost[·, i]` depends only on column
//!   `i + 1`, so its `n + 1` cells are embarrassingly parallel. The
//!   engine chunks each column and computes chunks on `std` scoped
//!   threads. Each cell runs the exact same operations in the exact same
//!   order as the serial solver (the shared `dp_kernel`), and chunks write
//!   disjoint slices, so the outputs are bit-for-bit identical for any
//!   thread count.
//! * **The band** (Algorithms 2 and D&C; on by default through the
//!   planner). The solve is seeded with the makespan of a feasible
//!   distribution, and each column is computed only over the cells a
//!   plan within that bound can use: from the item count the processors
//!   before it cannot exceed by the bound, up to the count past which the
//!   prefix's port time plus the suffix's Theorem-1 time exceeds it. On
//!   Table 1 at the paper's `n` that is 716 cells of a 13-million-cell
//!   plane. Feasibility is all the band needs from its seed, so
//!   the seed is the §4 closed form over the costs' slopes computed in
//!   `f64`, rounded and evaluated with the true costs: no exact
//!   arithmetic, and no dependence on the closed-form strategy. The
//!   bound is inflated by one part in 10⁹ so floating-point
//!   summation-order noise can never exclude the optimal path; if the
//!   band were ever inconsistent anyway, the engine redoes the solve on
//!   the full plane rather than return a wrong answer. The `Band` type
//!   documents why the answer stays bit-identical.
//! * **Costs read in the cell, or tabulated once.** The band runs on
//!   affine costs only, and each cell evaluates them with the expression
//!   a tabulation would store, so a banded solve tabulates nothing and
//!   reads the same bits. Full-plane solves read cost tables from a
//!   [`CostTable`], so repeated solves (and repeated processors within
//!   one platform) evaluate each cost function once.
//!
//! [`solve`] also reports a [`PlanTiming`] block —
//! tabulation vs solve split, thread count, cache statistics — which the
//! planner attaches to plans and traces (see `docs/performance.md`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::cost::Processor;
use crate::cost_table::CostTable;
use crate::distribution;
use crate::dp_kernel::{self, Cost, Crossing, DpPlane, InCell, MAX_ITEMS};
use crate::error::PlanError;
use crate::metrics::{Counter, Histogram, Registry};
use crate::obs::span;
use crate::obs::PlanTiming;

/// Handles on the engine's global metrics, resolved once per solve so
/// the per-cell hot path only touches atomics.
struct DpStats {
    cells: Arc<Counter>,
    prune_hits: Arc<Counter>,
    busy: Arc<Histogram>,
    dc_col_fallbacks: Arc<Counter>,
    band_fallbacks: Arc<Counter>,
}

impl DpStats {
    fn new() -> DpStats {
        let reg = Registry::global();
        DpStats {
            cells: reg.counter("dp_cells_evaluated_total", "DP cells evaluated by the engine"),
            prune_hits: reg
                .counter("dp_prune_hits_total", "DP cells skipped by upper-bound pruning"),
            busy: reg.histogram(
                "dp_thread_busy_seconds",
                "per-thread busy time of one parallel column sweep",
            ),
            dc_col_fallbacks: reg.counter(
                "dp_dc_column_fallbacks_total",
                "D&C columns demoted to the full-scan kernel by the defensive \
                 monotonicity check",
            ),
            band_fallbacks: reg.counter(
                "dp_band_fallback_total",
                "banded DP solves redone on the full plane because the band \
                 proved inconsistent",
            ),
        }
    }
}

/// Which exact dynamic program [`solve`] runs.
///
/// All three compute the paper's recurrence — the time to process `d`
/// items on processors `i..p` (scatter order, root last) is
///
/// ```text
/// cost[d, i] = min_{0 <= e <= d}  Tcomm(i, e) + max(Tcomp(i, e), cost[d-e, i+1])
/// cost[d, p] = Tcomm(p, d) + Tcomp(p, d)
/// ```
///
/// — in `O(p·n)` space (one `f64` cost column per suffix plus a `u32`
/// choice column for reconstruction), and every kernel returns
/// bit-identical counts and makespans on the inputs it accepts (a
/// property the test-suite enforces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Algorithm 1 of the paper: the full candidate scan, for arbitrary
    /// non-negative cost functions. `O(p·n²)`; the paper reports more
    /// than two days at `n = 817,101`, `p = 16`.
    ///
    /// Note on the paper's pseudo-code: Algorithm 1 as printed updates
    /// `solution[d, i]`/`cost[d, i]` *inside* the inner `e`-loop (lines
    /// 17–18); the intended placement — used here — is after the loop.
    Basic,
    /// Algorithm 2 of the paper, valid when all cost functions are
    /// **non-decreasing**. Two observations shrink Algorithm 1's inner
    /// loop:
    ///
    /// 1. `Tcomp(i, e)` is non-decreasing in `e` while `cost[d-e, i+1]`
    ///    is non-increasing, so there is a threshold `emax` (found by
    ///    binary search) above which `max(Tcomp, cost) = Tcomp`; at and
    ///    beyond `emax` the candidate `Tcomm + Tcomp` is non-decreasing,
    ///    so only `emax` itself needs to be evaluated there.
    /// 2. Scanning `e` downward from `emax - 1`, the candidate is
    ///    `Tcomm(i,e) + cost[d-e, i+1]`; once `cost[d-e, i+1]` alone
    ///    reaches the current minimum the scan can stop (`Tcomm >= 0`).
    ///    That exit can wait hundreds of candidates on a full plane, so
    ///    the scan also skips whole blocks `a..e` whose lower bound
    ///    `Tcomm(i,a) + cost[d-(e-1), i+1]` reaches the minimum, doubling
    ///    the block on each skip. Candidates are still visited top-down
    ///    and only a strictly smaller one wins, so the answer and its
    ///    tie-break are the paper's.
    ///
    /// Worst case `O(p·n²)`, best case `O(p·n)`; the paper measured 6
    /// minutes at `n = 817,101`, the full plane takes ~1.3 s here (2-core
    /// x86-64 host, release build). Monotonicity is checked (cheaply by
    /// sampling, then exactly on the tabulated values) and a violation
    /// is [`PlanError::NotIncreasing`].
    Optimized,
    /// Algorithm 2 with a stepped crossing point. Algorithm 2
    /// binary-searches each cell's crossing point `c(d)` — the smallest
    /// `e` with `Tcomp(i,e) >= cost[d-e, i+1]` — but for non-decreasing
    /// costs the crossing moves by at most one step per cell
    /// (`c(d) <= c(d+1) <= c(d) + 1`). This kernel binary-searches only
    /// the first cell of each chunk of a column and steps the crossing
    /// from there at one probe per cell: `O(n + log n)` crossing probes
    /// per chunk, followed in every cell by exactly Algorithm 2's scan
    /// from its crossing point, block skipping included, so counts,
    /// makespans and tie-breaks are bit-identical to
    /// [`Kernel::Optimized`]. The name (`exact-dc` on the command line
    /// and the wire protocol) is the divide and conquer that located the
    /// crossings before the stepped sweep did; it stays for the protocol.
    ///
    /// The monotonicity this rests on is checked at run time, twice:
    /// exactly at solve entry on the tabulated costs — costs that are
    /// not non-decreasing demote the whole solve to [`Kernel::Basic`]
    /// (counted by `dp_dc_fallbacks_total`), so arbitrary non-negative
    /// costs are *not* an error here — and defensively per column on the
    /// previous column's values, where a violation (a floating-point
    /// surprise, not an expected input) demotes just that column to the
    /// full scan (`dp_dc_column_fallbacks_total`). Each worker chunk
    /// runs its own sweep; see `docs/performance.md` for the kernel
    /// hierarchy and measured speedups.
    Dc,
}

/// Result of an exact DP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DpSolution {
    /// Optimal counts, in scatter order (same order as the input slice).
    pub counts: Vec<usize>,
    /// The optimal makespan (Eq. 2) of `counts`.
    pub makespan: f64,
}

fn validate_procs(procs: &[&Processor], n: usize) -> Result<(), PlanError> {
    if procs.is_empty() {
        return Err(PlanError::InvalidPlatform("no processors".into()));
    }
    for (i, p) in procs.iter().enumerate() {
        p.validate(i, n)?;
    }
    Ok(())
}

/// Trailing columns of a previous banded solve, reused to warm-start a
/// new one.
///
/// Column `plane.p - 1 - k` of the source becomes column `p - 1 - k` of
/// the new solve for `k < reuse` — valid because DP column `i` depends
/// only on the cost functions of processors `i..p-1`. The caller
/// ([`crate::planner::PlanCache`]) guarantees the trailing cost
/// functions match and picks `reuse` with [`reusable`], which admits
/// only a banded source plane and only for a banded solve. A warm solve
/// runs in the source plane itself; if its band proves inconsistent,
/// the full-plane retry starts cold.
pub(crate) struct WarmStart {
    /// Banded plane of the previous solve.
    pub plane: DpPlane,
    /// Trailing columns to reuse; `1 <= reuse <= p - 1` (the top column
    /// is always recomputed).
    pub reuse: usize,
}

/// Execution options for the parallel engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelOpts {
    /// Worker threads per column; `0` means one per available core.
    pub threads: usize,
    /// Confine the solve to the band of cells a plan within the pruning
    /// bound can use ([`Kernel::Optimized`] and [`Kernel::Dc`]; ignored
    /// by Algorithm 1). Requires linear or affine costs to seed the
    /// bound — otherwise the solve silently runs on the full plane. The
    /// answer is bit-identical either way.
    pub prune: bool,
    /// Cells per work unit; `0` picks a size balancing scheduling
    /// overhead against load skew.
    pub chunk: usize,
}

impl ParallelOpts {
    /// The serial full-plane solve: one thread, no band.
    pub fn serial() -> Self {
        ParallelOpts { threads: 1, prune: false, chunk: 0 }
    }
}

/// One processor's tabulated `(comm, comp)` costs, shared via the cache.
type TabPair = (Arc<[f64]>, Arc<[f64]>);

/// Resolves `threads: 0` to the number of available cores.
pub(crate) fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

fn chunk_size(len: usize, threads: usize, requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        (len / (threads.max(1) * 8)).clamp(1024, 16384)
    }
}

/// Relative inflation applied to the pruning bound, absorbing the ~1e-14
/// relative noise between the DP's accumulation order and the Eq. (1)
/// evaluation of the seeding distribution.
const BOUND_MARGIN: f64 = 1e-9;

/// Solves the exact DP for `n` items over `procs` (in scatter order,
/// root last) with `kernel`, serving cost tabulations from (and storing
/// them into) `table`, and returns the optimal distribution with the
/// solve's [`PlanTiming`].
///
/// Every `opts` combination is bit-identical to the serial solve
/// (property-tested). Reuse one [`CostTable`] across repeated solves on
/// the same platform (bench sweeps, root selection).
///
/// ```
/// use gs_scatter::cost::Processor;
/// use gs_scatter::cost_table::CostTable;
/// use gs_scatter::parallel::{solve, Kernel, ParallelOpts};
///
/// let procs = vec![
///     Processor::linear("worker", 0.1, 1.0),
///     Processor::linear("root", 0.0, 2.0),
/// ];
/// let view: Vec<&Processor> = procs.iter().collect();
/// let opts = ParallelOpts { threads: 2, prune: true, chunk: 0 };
/// let (sol, timing) = solve(Kernel::Optimized, &CostTable::new(), &view, 30, &opts).unwrap();
/// assert_eq!(sol.counts.iter().sum::<usize>(), 30);
/// // The faster worker carries more than the root.
/// assert!(sol.counts[0] > sol.counts[1]);
/// assert_eq!(timing.strategy, "exact");
/// assert!(timing.pruned, "linear costs seed the band");
/// ```
pub fn solve(
    kernel: Kernel,
    table: &CostTable,
    procs: &[&Processor],
    n: usize,
    opts: &ParallelOpts,
) -> Result<(DpSolution, PlanTiming), PlanError> {
    solve_seeded(kernel, table, procs, n, opts, None, plain_band)
        .map(|(sol, timing, _)| (sol, timing))
}

/// [`solve`] with [`Kernel::Optimized`]. Kept only because the
/// end-to-end benchmark (`e2ebench/src/planning.rs`) links it by name.
pub fn optimal_distribution_parallel_timed(
    table: &CostTable,
    procs: &[&Processor],
    n: usize,
    opts: &ParallelOpts,
) -> Result<(DpSolution, PlanTiming), PlanError> {
    solve(Kernel::Optimized, table, procs, n, opts)
}

/// [`solve`] with [`Kernel::Dc`]. Kept only because the end-to-end
/// benchmark (`e2ebench/src/planning.rs`) links it by name.
pub fn optimal_distribution_dc_parallel_timed(
    table: &CostTable,
    procs: &[&Processor],
    n: usize,
    opts: &ParallelOpts,
) -> Result<(DpSolution, PlanTiming), PlanError> {
    solve(Kernel::Dc, table, procs, n, opts)
}

/// A solve through the planner's [`crate::planner::PlanCache`]: also
/// returns the DP plane, for the cache to keep for warm-started
/// re-plans, and starts from the trailing columns of `warm` when given.
///
/// A banded solve here bands at the **single-crash bound**: the largest
/// [`upper_bound`] seed over `procs` and over `procs` without any one
/// non-root processor. It is feasible, so the answer is the same as
/// under the plain seed, and it is at least the plain seed of a re-plan
/// of the same `n` items after one crash: the plane's columns hold every
/// cell that re-plan's cold band holds (see [`reusable`]). Its root
/// column also holds every cell from 0, so any re-plan of fewer items
/// can reuse at least that column.
pub(crate) fn solve_cached(
    kernel: Kernel,
    table: &CostTable,
    procs: &[&Processor],
    n: usize,
    opts: &ParallelOpts,
    warm: Option<WarmStart>,
) -> Result<(DpSolution, PlanTiming, DpPlane), PlanError> {
    solve_seeded(kernel, table, procs, n, opts, warm, cached_band)
}

/// How many trailing columns of `plane` a solve of `kernel` with `opts`
/// over `procs` and `n` items may reuse, given that the last `matching`
/// processors of both solves have the same costs. The top column is
/// never reused, and neither is a full plane: only a banded solve
/// warm-starts, from a banded plane.
///
/// A banded solve reuses banded columns, from the root up, while the
/// column's bound is at least the bound of the band `R` a cold solve of
/// the new problem would use (the plain seed), its first cell is at or
/// below `R`'s, and its upper edge at or above `R`'s: a column is cut by
/// its edge as well as by its bound, so the bound alone no longer
/// proves that it holds `R`'s cells. A column's values depend on every
/// column below it, and the walk reaches it only when those passed too.
/// Every cell of `R` a reused column holds then lies between the
/// full-plane value and the cold banded value: its candidate sets are
/// supersets of the cold solve's (a larger bound gives larger
/// capacities and trims later, a lower first cell and a higher edge add
/// candidates), and every value is still a minimum over true plan
/// values, so never below the DP's. The band's argument (see [`Band`])
/// then applies again: the same minimisers are kept, so the argmin and
/// its tie-break are unchanged.
pub(crate) fn reusable(
    plane: &DpPlane,
    kernel: Kernel,
    procs: &[&Processor],
    n: usize,
    opts: &ParallelOpts,
    matching: usize,
) -> usize {
    let p = procs.len();
    let max = matching.min(p.saturating_sub(1)).min(plane.p.saturating_sub(1));
    if max == 0 {
        return 0;
    }
    match band_of(kernel, procs, n, opts, plain_band) {
        // Past the cached solve's `n` a column may have been cut at its
        // last cell rather than by its bound.
        Some(cold) if plane.is_banded() && n <= plane.n => (0..max)
            .take_while(|&k| {
                let col = plane.span(plane.p - 1 - k);
                let i = p - 1 - k;
                col.bound >= cold.bound && col.start <= cold.lo[i] && col.edge >= cold.hi[i]
            })
            .count(),
        _ => 0,
    }
}

/// The engine behind [`solve`] and [`solve_cached`], with the band
/// builder as a parameter (so tests can also inject an inconsistent
/// bound); returns the DP plane too.
fn solve_seeded(
    kernel: Kernel,
    table: &CostTable,
    procs: &[&Processor],
    n: usize,
    opts: &ParallelOpts,
    warm: Option<WarmStart>,
    band_for: impl Fn(&[&Processor], usize) -> Option<Band>,
) -> Result<(DpSolution, PlanTiming, DpPlane), PlanError> {
    let start = Instant::now();
    let mut solve_span = span::span("dp", "dp.solve");
    validate_procs(procs, n)?;
    if kernel == Kernel::Optimized {
        for (i, pr) in procs.iter().enumerate() {
            if !pr.comm.probably_increasing(n) || !pr.comp.probably_increasing(n) {
                return Err(PlanError::NotIncreasing { proc: i });
            }
        }
    }
    if n > MAX_ITEMS {
        return Err(PlanError::TooLarge { n, max: MAX_ITEMS });
    }
    let p = procs.len();
    let threads = resolve_threads(opts.threads);
    let hits0 = table.hits();
    let misses0 = table.misses();
    let mut engine = Engine { kernel, n, p, threads, chunk: opts.chunk, stats: DpStats::new() };

    let t_band = Instant::now();
    let band = band_of(kernel, procs, n, opts, band_for);
    // [`reusable`] only admits a banded source plane, for a banded solve.
    debug_assert!(warm.is_none() || band.is_some());
    let mut banded = None;
    if let Some(band) = &band {
        // The band runs on affine, non-decreasing costs only, so it reads
        // them in the cell: no table, and no monotonicity check to make.
        let in_cell = |f| InCell::new(f).expect("the band runs on affine costs");
        let costs: Vec<(InCell, InCell)> =
            procs.iter().map(|pr| (in_cell(&pr.comm), in_cell(&pr.comp))).collect();
        let reuse = warm.as_ref().map_or(0, |w| w.reuse);
        let mut plane = match warm {
            Some(w) => w.plane.rebase(p, n, w.reuse),
            None => DpPlane::banded(p, n),
        };
        match engine.run(&costs, &mut plane, Some(band), reuse) {
            Some(answer) => banded = Some((answer, plane, reuse)),
            // The bound proved inconsistent (cannot happen for a
            // correctly seeded bound; kept as a correctness net): redo
            // on the full plane, from scratch.
            None => engine.stats.band_fallbacks.inc(),
        }
    }
    let mut solve_secs = t_band.elapsed().as_secs_f64();
    let mut tabulate_secs = 0.0;
    let pruned = banded.is_some();
    let ((counts, makespan), plane, reuse) = match banded {
        Some(answer) => answer,
        None => {
            let t_tab = Instant::now();
            let tab_span = span::span("dp", "dp.tabulate");
            let (tabs, monos) = tabulate(table, procs, n);
            if kernel != Kernel::Basic {
                // Exact monotonicity check on the tabulated values:
                // Algorithm 2 and the D&C recurrence both depend on it,
                // so sampling is not enough here. The non-decreasing
                // prefix length is cached with the tabulation, making
                // this O(p) per solve.
                if let Some(i) = monos.iter().position(|&mono| mono <= n) {
                    if kernel == Kernel::Optimized {
                        return Err(PlanError::NotIncreasing { proc: i });
                    }
                    // The D&C kernel promises correctness for *arbitrary*
                    // costs: demote the whole solve to the full-scan
                    // Algorithm-1 kernel, which assumes nothing.
                    Registry::global()
                        .counter(
                            "dp_dc_fallbacks_total",
                            "D&C solves demoted to the Algorithm-1 kernel by \
                             non-monotone cost functions",
                        )
                        .inc();
                    engine.kernel = Kernel::Basic;
                }
            }
            drop(tab_span);
            tabulate_secs = t_tab.elapsed().as_secs_f64();

            let t_full = Instant::now();
            let costs: Vec<(&[f64], &[f64])> =
                tabs.iter().map(|(comm, comp)| (&comm[..=n], &comp[..=n])).collect();
            let mut plane = DpPlane::full(p, n);
            let answer = engine
                .run(&costs, &mut plane, None, 0)
                .expect("a full-plane solve is always consistent");
            solve_secs += t_full.elapsed().as_secs_f64();
            (answer, plane, 0)
        }
    };
    let run_kernel = engine.kernel;

    let timing = PlanTiming {
        // The *requested* kernel: a demoted D&C solve still reports
        // `exact-dc` (the demotion is visible in `dp_dc_fallbacks_total`).
        strategy: match kernel {
            Kernel::Basic => "exact-basic".into(),
            Kernel::Optimized => "exact".into(),
            Kernel::Dc => "exact-dc".into(),
        },
        threads,
        pruned,
        tabulate_secs,
        solve_secs,
        total_secs: start.elapsed().as_secs_f64(),
        cache_hits: table.hits() - hits0,
        cache_misses: table.misses() - misses0,
    };
    let reg = Registry::global();
    reg.counter("dp_solves_total", "DP solves completed").inc();
    reg.counter("dp_cache_hits_total", "cost-table lookups answered from cache")
        .add(timing.cache_hits);
    reg.counter("dp_cache_misses_total", "cost-table lookups that tabulated")
        .add(timing.cache_misses);
    reg.histogram("dp_solve_seconds", "wall-clock of the DP solve proper")
        .observe(timing.solve_secs);
    if kernel == Kernel::Dc {
        reg.counter("dp_dc_solves_total", "divide-and-conquer DP solves completed").inc();
        reg.histogram("dp_dc_solve_seconds", "wall-clock of the D&C DP solve proper")
            .observe(timing.solve_secs);
    }
    if reuse > 0 {
        reg.counter("dp_warm_solves_total", "DP solves warm-started from a cached plane").inc();
        reg.counter(
            "dp_warm_columns_reused_total",
            "DP columns reused from a cached plane instead of recomputed",
        )
        .add(reuse as u64);
    }
    solve_span.attr("kernel", &timing.strategy);
    solve_span.attr("n", n);
    solve_span.attr("p", p);
    solve_span.attr("threads", threads);
    solve_span.attr("pruned", pruned);
    solve_span.attr("fallback", run_kernel != kernel);
    solve_span.attr("band_fallback", band.is_some() && !pruned);
    solve_span.attr("plane_bytes", plane.bytes());
    solve_span.attr("reuse", reuse);
    Ok((DpSolution { counts, makespan }, timing, plane))
}

/// A solve's band from `band_for`, `None` when the solve runs on the
/// full plane. The band needs a seed, and costs whose monotonicity is
/// analytic (affine with non-negative slopes; the tabulated check could
/// not fail).
fn band_of(
    kernel: Kernel,
    procs: &[&Processor],
    n: usize,
    opts: &ParallelOpts,
    band_for: impl Fn(&[&Processor], usize) -> Option<Band>,
) -> Option<Band> {
    let bandable =
        opts.prune && kernel != Kernel::Basic && procs.iter().all(|pr| affine_non_decreasing(pr));
    bandable.then(|| band_for(procs, n)).flatten()
}

/// The band of a cache-less solve: at the [`upper_bound`] seed.
fn plain_band(procs: &[&Processor], n: usize) -> Option<Band> {
    upper_bound(procs, n).map(|t| Band::new(procs, n, t * (1.0 + BOUND_MARGIN)))
}

/// The band of a solve through the cache: at the single-crash bound,
/// with the root column opened on every cell from 0 to its capacity.
/// The root column reads no other column, one cost sum per cell, and
/// holding all of it lets a re-plan of fewer items, whose band starts
/// lower and may end higher, reuse it.
fn cached_band(procs: &[&Processor], n: usize) -> Option<Band> {
    let mut band = Band::new(procs, n, single_crash_bound(procs, n)? * (1.0 + BOUND_MARGIN));
    if let ([_, .., lo], [_, .., hi]) = (band.lo.as_mut_slice(), band.hi.as_mut_slice()) {
        (*lo, *hi) = (0, n);
    }
    Some(band)
}

/// The largest [`upper_bound`] over `procs` and over `procs` without any
/// one non-root processor (root last): a feasible makespan, and at least
/// the plain seed of every re-plan of `n` items after a single crash.
fn single_crash_bound(procs: &[&Processor], n: usize) -> Option<f64> {
    let own = upper_bound(procs, n)?;
    let mut rest = Vec::with_capacity(procs.len());
    Some((0..procs.len() - 1).fold(own, |bound, k| {
        rest.clear();
        rest.extend(procs.iter().enumerate().filter(|&(i, _)| i != k).map(|(_, &pr)| pr));
        upper_bound(&rest, n).map_or(bound, |b| bound.max(b))
    }))
}

/// A feasible (hence upper-bounding) makespan for pruning, from `f64`
/// arithmetic alone; `None` (no pruning) when some cost is not affine or
/// some slope is negative or not finite.
///
/// The band needs only *a* feasible makespan, not a good answer: any
/// integer distribution of the `n` items, evaluated with the true costs
/// by [`distribution::makespan`], bounds the optimum from above. So
/// neither floating-point error nor the rounding rule can change what a
/// banded solve returns; they only move the bound, and with it the
/// band's width. The distribution is Theorem 1's over the costs'
/// slopes, rounded by [`seed_counts`]. On affine platforms the
/// intercepts are left out of the shares, which loosens the bound by at
/// most their sum; the pruning margin absorbs that on realistic
/// platforms. The exact rational closed form, the seed before, took
/// ~40% of a banded Table-1 solve; the exact LP heuristic falls back to
/// the general simplex on intercept-heavy platforms (minutes at
/// `p = 64`).
fn upper_bound(procs: &[&Processor], n: usize) -> Option<f64> {
    let slopes = affine_slopes(procs)?;
    if slopes.iter().any(|&(b, a)| b < 0.0 || a < 0.0 || !(b + a).is_finite()) {
        return None;
    }
    let makespan = distribution::makespan(procs, &seed_counts(&slopes, n));
    (!makespan.is_nan()).then_some(makespan)
}

/// The `(β, α)` slopes of every processor's (comm, comp) costs, `None`
/// when some cost is not affine.
fn affine_slopes(procs: &[&Processor]) -> Option<Vec<(f64, f64)>> {
    procs.iter().map(|pr| Some((pr.comm.affine_params()?.1, pr.comp.affine_params()?.1))).collect()
}

/// Integer counts of `n` items over at least one processor with
/// non-negative finite slopes `(β, α)`, in scatter order: the §4 closed
/// form in `f64`.
///
/// Theorem 2's backward [`participant_scan`] picks the participants and
/// `1/D`; the participants all finish at `t = n·D`, so a forward
/// triangular pass gives each one `x_i = (t − Σ_{j<i} β_j x_j)/(β_i + α_i)`.
/// The running sum of the shares, scaled to `n`, is then floored: every
/// count lies within one item of its share, and the counts sum to `n`.
/// As in the exact closed form, a processor with `α + β = 0` takes every
/// item.
fn seed_counts(slopes: &[(f64, f64)], n: usize) -> Vec<usize> {
    let mut counts = vec![0usize; slopes.len()];
    if let Some(free) = slopes.iter().position(|&(beta, alpha)| beta + alpha == 0.0) {
        counts[free] = n;
        return counts;
    }
    let mut joins = vec![false; slopes.len()];
    let t = n as f64 / participant_scan(slopes, |k| joins[k] = true);
    let mut sent = 0.0;
    let shares: Vec<f64> = slopes
        .iter()
        .zip(&joins)
        .map(|(&(beta, alpha), &joins)| {
            if !joins {
                return 0.0;
            }
            let x = ((t - sent) / (beta + alpha)).max(0.0);
            sent += beta * x;
            x
        })
        .collect();
    let total: f64 = shares.iter().sum();
    let scale = if total > 0.0 { n as f64 / total } else { 0.0 };
    let (mut running, mut before) = (0.0, 0usize);
    for (count, x) in counts.iter_mut().zip(&shares) {
        running += x * scale;
        let upto = (running.floor() as usize).clamp(before, n);
        *count = upto - before;
        before = upto;
    }
    *counts.last_mut().expect("at least one processor") += n - before;
    counts
}

/// Theorem 2's backward participant scan over `(β, α)` slopes, in `f64`.
///
/// From the last processor to the first, processor `k` participates iff
/// `β_k · S < 1`, where `S` is `1/D` of the participating suffix after
/// it. A participant adds `y_k = (1 − β_k S)/(β_k + α_k)` to `S`, giving
/// `(1 + α_k S)/(α_k + β_k)`: Theorem 1's suffix recurrence for `1/D`.
/// The `y_k` are also the shared-port dual point of [`Band`], and `1/S`
/// of a suffix is the `D_i` of its upper edge. Calls `join(k)` for each
/// participant and returns `S` over all of `slopes` (`+inf` when a
/// participant has `α + β = 0`).
fn participant_scan(slopes: &[(f64, f64)], mut join: impl FnMut(usize)) -> f64 {
    let mut inv_d = 0.0f64;
    for (k, &(beta, alpha)) in slopes.iter().enumerate().rev() {
        let need = 1.0 - beta * inv_d;
        if need > 0.0 {
            inv_d += need / (beta + alpha);
            join(k);
        }
    }
    inv_d
}

/// The cells of the DP plane a plan within `bound` can use.
///
/// Column `i` holds the time to process `d` items on processors
/// `i..p`, so a plan's cell in column `i` has `d = n − (items taken by
/// processors 0..i)`. Any capacity bound on that prefix therefore gives
/// the column's first live cell, `lo[i] = n − capacity(0..i)`. Two
/// capacities are combined, and the smaller is used:
///
/// * **Per processor:** a plan whose DP value is `<= bound` gives
///   processor `j` at most `cap[j]` items, the largest `e` with
///   `Tcomm(j, e) + Tcomp(j, e) <= bound` as evaluated (its own send and
///   compute alone fit in the makespan, and the DP's nested sums never
///   fall below that sum).
/// * **Shared port:** processor `j` also waits for every send before it,
///   so `Σ_{k<=j} β_k x_k + α_j x_j <= bound` for the slopes of affine
///   costs (intercepts are non-negative and only tighten it). The LP
///   relaxation `max Σ x_j` under these constraints is bounded by any
///   feasible point of its dual, built backwards in O(i):
///   `y_k = max(0, (1 − β_k Σ_{j>k} y_j) / (β_k + α_k))`, capacity
///   `bound · Σ y` (inflated by [`BOUND_MARGIN`] for rounding).
///
/// The last cell, `hi[i]`, weighs both sides of the column. Unrolling
/// the recurrence along a plan through cell `(i, d)` gives
/// `Σ_{j<i} Tcomm(j, x_j) + V_i(d) <= bound`, where `V_i(d)` is the
/// column's value. `validate` rejects a negative cost of 0 items, so
/// intercepts are non-negative and the prefix's sends take at least
/// `Σ_{j<i} β_j x_j`; its counts sum to `n − d` with `x_j <= cap[j]`, so
/// that is at least `S_i(n − d)`, the fractional knapsack that fills
/// `n − d` items from the cheapest links up. By Theorem 1 on the slopes
/// the suffix needs `V_i(d) >= d·D_i`, with `1/D_i` the
/// [`participant_scan`] of processors `i..p` (intercepts and integer
/// counts only add). So `hi[i]` is the largest `d` with
/// `d·D_i + S_i(n − d) <= bound`, again inflated by [`BOUND_MARGIN`]
/// ([`upper_edge`]); a column where no `d` qualifies keeps `hi[i] = n`.
/// Without the prefix's term the edge would sit where the suffix alone,
/// started at time 0, passes the bound: a fixed share of `n` past the
/// optimal path. With it, the column ends within the slack between the
/// bound and the optimum, plus what the knapsack lets the cheapest links
/// take beyond what a schedule can. The sweep also stops at the first
/// cell whose value exceeds the bound: column values are non-decreasing
/// in `d`.
///
/// Every plan within the bound, the optimal ones included, therefore
/// lies inside the band, and every candidate the band drops has a value
/// above the bound or leads outside the band — so no optimal choice is
/// dropped, the argmin and its tie-break are unchanged, and the banded
/// answer is bit-identical to the full plane's (property-tested).
///
/// None of this asks more of the bound than that some plan meets it, so
/// the `f64` seed of [`upper_bound`] serves: a looser bound only widens
/// the band.
struct Band {
    /// The inflated pruning bound: a feasible plan's makespan.
    bound: f64,
    /// First live cell of each column (`lo[0] = n`: the top column only
    /// ever needs cell `n`).
    lo: Vec<usize>,
    /// Last cell of each column a plan within the bound can reach.
    hi: Vec<usize>,
    /// Largest count each processor can take within the bound, `None`
    /// when even zero items exceed it.
    cap: Vec<Option<usize>>,
}

impl Band {
    /// The band of `bound` for `n` items over `procs`, whose costs are
    /// affine and non-decreasing: O(p log n) cost evaluations (the same
    /// values a tabulation holds) plus O(p²) for the port capacities and
    /// the upper edges.
    fn new(procs: &[&Processor], n: usize, bound: f64) -> Band {
        let cap: Vec<Option<usize>> = procs
            .iter()
            .map(|pr| {
                // Largest e in 0..=n with Tcomm(e) + Tcomp(e) <= bound:
                // binary search on the monotone predicate.
                let (mut a, mut b) = (0usize, n + 1);
                while a < b {
                    let m = a + (b - a) / 2;
                    if pr.comm.eval(m) + pr.comp.eval(m) <= bound {
                        a = m + 1;
                    } else {
                        b = m;
                    }
                }
                a.checked_sub(1)
            })
            .collect();
        let slopes = affine_slopes(procs).expect("the band runs on affine costs");
        let (mut lo, mut hi) = (Vec::with_capacity(procs.len()), Vec::with_capacity(procs.len()));
        let mut before = 0usize;
        // The prefix's links as `(β, cap)`, cheapest first.
        let mut links: Vec<(f64, usize)> = Vec::with_capacity(procs.len());
        for (i, c) in cap.iter().enumerate() {
            let port = port_capacity(&slopes[..i], bound).map_or(usize::MAX, |c| c as usize);
            lo.push(n - before.min(port).min(n));
            let rate = 1.0 / participant_scan(&slopes[i..], |_| ());
            hi.push(upper_edge(&links, rate, n, bound));
            before = before.saturating_add(c.unwrap_or(0));
            let beta = slopes[i].0;
            links.insert(links.partition_point(|&(b, _)| b <= beta), (beta, c.unwrap_or(0)));
        }
        Band { bound, lo, hi, cap }
    }
}

/// The largest `d <= n` with `d·D + S(n − d) <= bound` (inflated by
/// [`BOUND_MARGIN`]), where `D = rate` and `S` is the fractional
/// knapsack over `links`, the prefix's `(β, cap)` sorted by `β`: the
/// cheapest port time in which the prefix can take `n − d` items. `n`
/// when no `d` qualifies. See [`Band`].
///
/// Going down from `d = n`, each item the prefix takes instead trades
/// `D` of suffix time for the `β` of the cheapest link not yet full, so
/// the left side is convex in `d` and falls only while that `β` is below
/// `D`. The walk solves for the crossing on each link's segment in
/// turn, O(i). On the segment where it lies every term is at most about
/// `bound`, so rounding moves the edge by far less than the margin does.
fn upper_edge(links: &[(f64, usize)], rate: f64, n: usize, bound: f64) -> usize {
    let limit = bound * (1.0 + BOUND_MARGIN);
    // The suffix's `d` at the top of the current segment, and the port
    // time the prefix has spent to take the other `n − d` items.
    let (mut top, mut port) = (n as f64, 0.0f64);
    if top * rate <= limit {
        return n;
    }
    for &(beta, cap) in links {
        if beta >= rate {
            break;
        }
        // On `d ∈ [top − cap, top]` the left side is
        // `d·D + port + β·(top − d)`.
        let d = (limit - port - beta * top) / (rate - beta);
        if d >= top - cap as f64 {
            return if d >= 0.0 { (d.floor() as usize).min(n) } else { n };
        }
        port += beta * cap as f64;
        top -= cap as f64;
    }
    n
}

/// Whether both of `pr`'s costs are affine with non-negative slopes, and
/// so non-decreasing as evaluated (`intercept + slope·x` rounds
/// monotonically in `x`).
fn affine_non_decreasing(pr: &Processor) -> bool {
    [&pr.comm, &pr.comp].iter().all(|f| f.affine_params().is_some_and(|(_, slope)| slope >= 0.0))
}

/// Tabulates every processor's costs on `0..=last` through `table`,
/// with the length of each processor's non-decreasing prefix.
fn tabulate(table: &CostTable, procs: &[&Processor], last: usize) -> (Vec<TabPair>, Vec<usize>) {
    procs
        .iter()
        .map(|pr| {
            let (comm, mono_comm) = table.tabulate_mono(&pr.comm, last);
            let (comp, mono_comp) = table.tabulate_mono(&pr.comp, last);
            ((comm, comp), mono_comm.min(mono_comp))
        })
        .unzip()
}

/// Upper bound on the items the processors of `slopes` (a prefix of the
/// scatter order) can finish by `bound`, from the shared-port LP's dual
/// (see [`Band`]): `bound · Σ y` by [`participant_scan`]. `None` when
/// the dual has no finite point.
fn port_capacity(slopes: &[(f64, f64)], bound: f64) -> Option<f64> {
    let cap = bound * participant_scan(slopes, |_| ()) * (1.0 + BOUND_MARGIN);
    cap.is_finite().then_some(cap)
}

/// One configured solve: the kernel and how its columns are scheduled.
struct Engine {
    kernel: Kernel,
    n: usize,
    p: usize,
    threads: usize,
    /// Requested cells per work unit (`0` = sized per column).
    chunk: usize,
    stats: DpStats,
}

impl Engine {
    /// The kernel one full-plane column actually runs: the D&C
    /// recurrence requires the previous column non-decreasing — true by
    /// induction for non-decreasing costs (a rounded sum or max of
    /// non-decreasing sequences is non-decreasing), but verified per
    /// column (one O(n) sequential scan, negligible next to the column
    /// itself) so that a floating-point surprise degrades to the
    /// full-scan kernel for that column instead of a wrong plan.
    fn column_kernel(&self, prev: &[f64]) -> Kernel {
        if self.kernel != Kernel::Dc {
            return self.kernel;
        }
        if !dp_kernel::non_decreasing(prev) {
            self.stats.dc_col_fallbacks.inc();
            return Kernel::Basic;
        }
        Kernel::Dc
    }

    /// Runs the column sweep + reconstruction over `plane` — the whole
    /// plane when `band` is `None`, else only the band's cells; `reuse`
    /// trailing columns were pre-filled by a warm start. `costs[i]` reads
    /// processor `i`'s `(comm, comp)` costs, for every column the solve
    /// computes. Returns `None` only when the band turned out
    /// inconsistent with the costs: a column came out empty, the
    /// reconstruction left the band, or the makespan exceeds the bound.
    /// The caller then retries on the full plane.
    fn run<C: Cost + Sync>(
        &self,
        costs: &[(C, C)],
        plane: &mut DpPlane,
        band: Option<&Band>,
        reuse: usize,
    ) -> Option<(Vec<usize>, f64)> {
        let (n, p) = (self.n, self.p);
        let sweep_span = span::span("dp", "dp.sweep");
        let bound = band.map(|b| b.bound);
        // Column `i`'s first and last live cells and largest candidate
        // count.
        let edges =
            |i: usize| band.map_or(Some((0, n, n)), |b| b.cap[i].map(|c| (b.lo[i], b.hi[i], c)));

        // Base column: the root takes everything that is left. A warm
        // start already holds it (and possibly more trailing columns).
        if reuse == 0 {
            let (comm, comp) = costs[p - 1];
            let (lo, edge, cap) = edges(p - 1)?;
            let hi = edge.min(cap);
            if lo > hi {
                return None;
            }
            plane.open(p - 1, lo, hi - lo + 1);
            let (cost, choice) = plane.col_mut(p - 1);
            for (k, (v, e)) in cost.iter_mut().zip(choice.iter_mut()).enumerate() {
                *v = comm.at(lo + k) + comp.at(lo + k);
                *e = (lo + k) as u32;
            }
            self.stats.cells.add((hi - lo + 1) as u64);
            self.stats.prune_hits.add((n + lo - hi) as u64);
            if let Some(b) = bound {
                plane.set_band(p - 1, b, edge);
            }
        }
        if p == 1 {
            return plane.get(0, n).map(|(v, _)| (vec![n], v));
        }

        // Middle columns, highest suffix first; the `known` trailing
        // columns (base, plus any reused by a warm start) are already in
        // place. Chunks write disjoint slices of the current column.
        let known = reuse.max(1);
        for i in (1..p - known).rev() {
            let (lo, edge, cap) = edges(i)?;
            let next = plane.span(i + 1);
            // Cells below the previous column's first have no candidate.
            // A reused column may start above this band's edge: it was
            // banded under another bound.
            let lo = lo.max(next.start);
            // Cells past the previous column's last live cell plus this
            // processor's capacity have no live candidate.
            let hi = (next.start + next.len - 1 + cap).min(edge);
            if lo > hi {
                return None;
            }
            plane.open(i, lo, hi - lo + 1);
            let (cur, choice, prev) = plane.column_mut(i);
            let ctx = self.column_ctx(costs[i], next.start, prev, cap, bound);
            self.compute_column(&ctx, lo, cur, choice, sweep_span.id());
            // Keep the live prefix only: values are non-decreasing in
            // `d`, so everything past the first out-of-bound cell is out
            // of bound too.
            let live = match bound {
                Some(b) => cur.iter().position(|&v| v > b).unwrap_or(cur.len()),
                None => cur.len(),
            };
            if live == 0 {
                return None;
            }
            self.stats.prune_hits.add((n + 1 - (hi - lo + 1)) as u64);
            plane.trim(i, live);
            if let Some(b) = bound {
                plane.set_band(i, b, edge);
            }
        }

        // Top column: reconstruction starts at (d = n, i = 0), so only
        // that single cell is ever read — compute just it (as
        // `start = n, len = 1`: never reusable by a warm start).
        let (_, _, cap) = edges(0)?;
        let next = plane.span(1);
        plane.open(0, n, 1);
        let (cur, choice, prev) = plane.column_mut(0);
        let ctx = self.column_ctx(costs[0], next.start, prev, cap, bound);
        let (makespan, top_e) = ctx.cell(n);
        cur[0] = makespan;
        choice[0] = top_e;
        if bound.is_some_and(|b| makespan > b) {
            return None;
        }

        // Reconstruction. Every cell on the path of a plan within the
        // bound is live; a step off the held cells means the band was
        // inconsistent.
        let mut counts = vec![0usize; p];
        let mut d = n;
        for (i, c) in counts.iter_mut().enumerate().take(p - 1) {
            let (_, e) = plane.get(i, d)?;
            *c = e as usize;
            d = d.checked_sub(*c)?;
        }
        plane.get(p - 1, d)?;
        counts[p - 1] = d;
        Some((counts, makespan))
    }

    /// The shared read-only context of one column's cells, given its
    /// processor's `(comm, comp)` costs: `prev` holds the next column's
    /// live cells, starting at cell `prev_start`.
    fn column_ctx<'c, C: Cost>(
        &self,
        (comm, comp): (C, C),
        prev_start: usize,
        prev: &'c [f64],
        cap: usize,
        bound: Option<f64>,
    ) -> ColumnCtx<'c, C> {
        let (kernel, crossing) = match bound {
            // Inside a band both Algorithm 2 and D&C run Algorithm 2's
            // windowed cell, which the kernel contract makes
            // bit-identical to either on the full plane. Its crossing is
            // stepped from cell to cell when the previous column allows.
            Some(_) => (Kernel::Optimized, Crossing::of(prev)),
            // The full plane's Algorithm 2 is the paper's, one binary
            // search per cell.
            None => (self.column_kernel(prev), Crossing::PerCell),
        };
        ColumnCtx { kernel, crossing, comm, comp, prev, prev_start, cap, bound }
    }

    /// Computes one column slice (`cost`/`choice` hold cells `first..`),
    /// chunked over the worker threads; each chunk records a `dp.chunk`
    /// span under `span_parent`, the enclosing `dp.sweep` span (the
    /// tracer's thread-local parent stack does not cross threads). Cells
    /// skipped by a pruning early-stop are written `+inf`, which the
    /// sweep treats as out of bound.
    fn compute_column<C: Cost + Sync>(
        &self,
        ctx: &ColumnCtx<'_, C>,
        first: usize,
        cost: &mut [f64],
        choice: &mut [u32],
        span_parent: u64,
    ) {
        let len = cost.len();
        let chunk = chunk_size(len, self.threads, self.chunk);
        if self.threads <= 1 || len <= chunk {
            let mut chunk_span = span::span_with_parent("dp", "dp.chunk", span_parent);
            let evaluated = ctx.run_chunk(first, cost, choice);
            chunk_span.attr("start", first);
            chunk_span.attr("len", len);
            chunk_span.attr("evaluated", evaluated);
            self.stats.cells.add(evaluated as u64);
            self.stats.prune_hits.add((len - evaluated) as u64);
            return;
        }
        let jobs: Vec<(usize, &mut [f64], &mut [u32])> = cost
            .chunks_mut(chunk)
            .zip(choice.chunks_mut(chunk))
            .enumerate()
            .map(|(k, (c, ch))| (first + k * chunk, c, ch))
            .collect();
        let workers = self.threads.min(jobs.len());
        let queue = Mutex::new(jobs);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let t0 = Instant::now();
                    let (mut evaluated, mut skipped) = (0u64, 0u64);
                    loop {
                        let job = queue.lock().expect("column queue poisoned").pop();
                        match job {
                            Some((start, c, ch)) => {
                                let chunk_len = c.len();
                                let mut chunk_span =
                                    span::span_with_parent("dp", "dp.chunk", span_parent);
                                let done = ctx.run_chunk(start, c, ch);
                                chunk_span.attr("start", start);
                                chunk_span.attr("len", chunk_len);
                                chunk_span.attr("evaluated", done);
                                evaluated += done as u64;
                                skipped += (chunk_len - done) as u64;
                            }
                            None => break,
                        }
                    }
                    self.stats.cells.add(evaluated);
                    self.stats.prune_hits.add(skipped);
                    self.stats.busy.observe(t0.elapsed().as_secs_f64());
                });
            }
        });
    }
}

/// Everything one column's cells need, shareable across worker threads.
struct ColumnCtx<'a, C> {
    kernel: Kernel,
    /// How Algorithm 2's cells find their crossing points.
    crossing: Crossing,
    comm: C,
    comp: C,
    /// The previous column's live cells, cell `prev_start` first (the
    /// whole column `0..=n` on the full plane).
    prev: &'a [f64],
    prev_start: usize,
    /// Largest candidate `e` (`n` on the full plane).
    cap: usize,
    bound: Option<f64>,
}

impl<C: Cost> ColumnCtx<'_, C> {
    #[inline]
    fn cell(&self, d: usize) -> (f64, u32) {
        match self.kernel {
            Kernel::Basic => dp_kernel::basic_cell(self.comm, self.comp, self.prev, d),
            // The D&C kernel computes whole chunks, not lone cells; a
            // single cell (the top column) goes through Algorithm 2's
            // cell, which is bit-identical.
            Kernel::Optimized | Kernel::Dc => {
                // Candidates must land on a live cell of the previous
                // column: `prev_start <= d - e <= prev_start + len - 1`.
                let Some(rel) = d.checked_sub(self.prev_start) else {
                    return (f64::INFINITY, 0);
                };
                let (lo, lim) = dp_kernel::window(self.prev.len() - 1, self.cap)(rel);
                if lo > lim {
                    // No live candidate: the true value exceeds the bound.
                    return (f64::INFINITY, 0);
                }
                dp_kernel::optimized_cell(self.comm, self.comp, self.prev, rel, lo, lim)
            }
        }
    }

    /// Fills one chunk holding cells `first..`, returning how many it
    /// actually evaluated.
    ///
    /// On the full plane the D&C kernel hands the whole chunk to
    /// [`dp_kernel::dc_chunk`], and Algorithm 1 fills it cell by cell.
    /// Algorithm 2 hands it to [`dp_kernel::sweep`], which with a pruning
    /// bound stops at the chunk's first out-of-bound cell (column values
    /// are non-decreasing in `d`, so everything after it is out of bound
    /// too) and writes the remaining cells `+inf`.
    fn run_chunk(&self, first: usize, cost: &mut [f64], choice: &mut [u32]) -> usize {
        match self.kernel {
            Kernel::Basic => {
                for (k, (v, e)) in cost.iter_mut().zip(choice.iter_mut()).enumerate() {
                    (*v, *e) = self.cell(first + k);
                }
            }
            Kernel::Dc => dp_kernel::dc_chunk(self.comm, self.comp, self.prev, first, cost, choice),
            Kernel::Optimized => {
                // A banded chunk starts at or above the previous column's
                // first cell.
                let rel = first - self.prev_start;
                let bound = self.bound.unwrap_or(f64::INFINITY);
                let (comm, comp, prev) = (self.comm, self.comp, self.prev);
                let window = dp_kernel::window(prev.len() - 1, self.cap);
                let mode = self.crossing;
                let cells = (rel, rel + cost.len() - 1);
                return dp_kernel::sweep(
                    comm, comp, prev, window, cells, mode, bound, cost, choice,
                );
            }
        }
        cost.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::brute::brute_force_distribution;
    use crate::cost::{CostFn, Processor};
    use crate::distribution::makespan;
    use crate::paper::table1_platform;
    use Kernel::{Basic, Dc, Optimized};

    const KERNELS: [Kernel; 3] = [Basic, Optimized, Dc];

    fn view(ps: &[Processor]) -> Vec<&Processor> {
        ps.iter().collect()
    }

    /// One solve through a fresh cost table.
    fn solve_with(
        kernel: Kernel,
        v: &[&Processor],
        n: usize,
        opts: &ParallelOpts,
    ) -> Result<DpSolution, PlanError> {
        solve(kernel, &CostTable::new(), v, n, opts).map(|(sol, _)| sol)
    }

    /// One serial solve through a fresh cost table (shared with the
    /// other modules' tests).
    pub(crate) fn serial_solve(
        kernel: Kernel,
        v: &[&Processor],
        n: usize,
    ) -> Result<DpSolution, PlanError> {
        solve_with(kernel, v, n, &ParallelOpts::serial())
    }

    fn assert_bit_identical(a: &DpSolution, b: &DpSolution, what: &str) {
        assert_eq!(a.counts, b.counts, "{what}: counts differ");
        assert_eq!(
            a.makespan.to_bits(),
            b.makespan.to_bits(),
            "{what}: makespans differ ({} vs {})",
            a.makespan,
            b.makespan
        );
    }

    fn table1_view(p: usize) -> (crate::cost::Platform, Vec<usize>) {
        let full = table1_platform();
        let sub =
            crate::cost::Platform::new(full.procs()[..p].to_vec(), 0).expect("subset platform");
        let order =
            crate::ordering::scatter_order(&sub, crate::ordering::OrderPolicy::DescendingBandwidth);
        (sub, order)
    }

    #[test]
    fn single_processor_takes_all() {
        for kernel in KERNELS {
            let ps = vec![Processor::linear("root", 0.0, 2.0)];
            let sol = serial_solve(kernel, &view(&ps), 10).unwrap();
            assert_eq!(sol.counts, vec![10]);
            assert_eq!(sol.makespan, 20.0);
            let ps = vec![Processor::linear("root", 0.0, 1.5)];
            let sol = serial_solve(kernel, &view(&ps), 4).unwrap();
            assert_eq!(sol.counts, vec![4]);
            assert_eq!(sol.makespan, 6.0);
        }
    }

    #[test]
    fn zero_items() {
        let ps = vec![Processor::linear("a", 1.0, 1.0), Processor::linear("root", 0.0, 1.0)];
        let sol = serial_solve(Basic, &view(&ps), 0).unwrap();
        assert_eq!(sol.counts, vec![0, 0]);
        assert_eq!(sol.makespan, 0.0);
    }

    #[test]
    fn homogeneous_splits_evenly_without_comm() {
        // Free communication, equal CPUs: even split is optimal.
        let ps = vec![
            Processor::linear("a", 0.0, 1.0),
            Processor::linear("b", 0.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ];
        let sol = serial_solve(Basic, &view(&ps), 9).unwrap();
        assert_eq!(sol.counts.iter().sum::<usize>(), 9);
        assert_eq!(sol.makespan, 3.0);
        assert!(sol.counts.iter().all(|&c| c == 3));
    }

    #[test]
    fn slow_link_gets_nothing_when_prohibitive() {
        // Sending one item to `far` costs more than computing everything
        // on the root.
        let ps = vec![Processor::linear("far", 1000.0, 0.001), Processor::linear("root", 0.0, 1.0)];
        let sol = serial_solve(Basic, &view(&ps), 5).unwrap();
        assert_eq!(sol.counts, vec![0, 5]);
        assert_eq!(sol.makespan, 5.0);
    }

    #[test]
    fn matches_brute_force_small() {
        let ps = vec![
            Processor::linear("a", 0.5, 2.0),
            Processor::linear("b", 1.0, 1.0),
            Processor::linear("root", 0.0, 3.0),
        ];
        let v = view(&ps);
        for n in 0..=12 {
            let sol = serial_solve(Basic, &v, n).unwrap();
            let brute = brute_force_distribution(&v, n);
            assert!(
                (sol.makespan - brute.makespan).abs() < 1e-9,
                "n={n}: dp {} vs brute {}",
                sol.makespan,
                brute.makespan
            );
            assert!((makespan(&v, &sol.counts) - sol.makespan).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_brute_force_affine() {
        let ps = vec![
            Processor::affine("a", 0.3, 0.5, 0.7, 2.0),
            Processor::affine("b", 0.1, 1.0, 0.2, 1.0),
            Processor::affine("root", 0.0, 0.0, 0.0, 3.0),
        ];
        let v = view(&ps);
        for n in [0usize, 1, 5, 10] {
            let sol = serial_solve(Basic, &v, n).unwrap();
            let brute = brute_force_distribution(&v, n);
            assert!((sol.makespan - brute.makespan).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn handles_non_monotone_custom_costs() {
        // A "batched" compute cost: cheap in blocks of 4 (e.g. SIMD width).
        // Algorithm 1 makes no monotonicity assumption.
        let batched = |x: usize| x.div_ceil(4) as f64;
        let ps = vec![
            Processor::custom("batchy", |x| 0.1 * x as f64, batched),
            Processor::linear("root", 0.0, 1.0),
        ];
        let v = view(&ps);
        for n in 0..=10 {
            let sol = serial_solve(Basic, &v, n).unwrap();
            let brute = brute_force_distribution(&v, n);
            assert!((sol.makespan - brute.makespan).abs() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn rejects_invalid_costs() {
        let ps = vec![Processor::custom("bad", |_| -1.0, |x| x as f64)];
        assert!(matches!(serial_solve(Basic, &view(&ps), 5), Err(PlanError::InvalidCost { .. })));
    }

    #[test]
    fn counts_sum_preserved() {
        let ps = vec![
            Processor::linear("a", 0.1, 0.5),
            Processor::linear("b", 0.2, 0.25),
            Processor::linear("c", 0.05, 1.0),
            Processor::linear("root", 0.0, 0.4),
        ];
        let sol = serial_solve(Basic, &view(&ps), 57).unwrap();
        assert_eq!(sol.counts.iter().sum::<usize>(), 57);
    }

    #[test]
    fn shared_cost_table_gives_identical_results() {
        let ps = vec![Processor::linear("a", 0.5, 2.0), Processor::linear("root", 0.0, 3.0)];
        let v = view(&ps);
        let table = CostTable::new();
        // Largest first: later, smaller solves reuse its tabulations.
        for n in [21usize, 8, 3] {
            let fresh = serial_solve(Basic, &v, n).unwrap();
            let (cached, _) = solve(Basic, &table, &v, n, &ParallelOpts::serial()).unwrap();
            assert_eq!(fresh.counts, cached.counts);
            assert_eq!(fresh.makespan.to_bits(), cached.makespan.to_bits());
        }
        assert!(table.hits() > 0, "repeat solves must reuse tabulations");
    }

    /// Algorithm 2 agrees with Algorithm 1, and the D&C kernel with
    /// Algorithm 2 bit for bit, on every `n` of `ns`.
    fn assert_kernels_agree(ps: &[Processor], ns: &[usize]) {
        let v = view(ps);
        for &n in ns {
            let fast = serial_solve(Optimized, &v, n).unwrap();
            let slow = serial_solve(Basic, &v, n).unwrap();
            assert!(
                (fast.makespan - slow.makespan).abs() < 1e-9,
                "n={n}: {} vs {}",
                fast.makespan,
                slow.makespan
            );
            assert_eq!(fast.counts.iter().sum::<usize>(), n);
            let dc = serial_solve(Dc, &v, n).unwrap();
            assert_bit_identical(&dc, &fast, &format!("dc n={n}"));
        }
    }

    #[test]
    fn kernels_agree_on_linear_platform() {
        let ps = vec![
            Processor::linear("a", 0.5, 2.0),
            Processor::linear("b", 1.0, 1.0),
            Processor::linear("c", 0.25, 4.0),
            Processor::linear("root", 0.0, 3.0),
        ];
        assert_kernels_agree(&ps, &(0..=40).collect::<Vec<_>>());
    }

    #[test]
    fn kernels_agree_on_affine_platform() {
        let ps = vec![
            Processor::affine("a", 0.4, 0.5, 0.9, 2.0),
            Processor::affine("b", 0.2, 1.0, 0.1, 1.0),
            Processor::affine("root", 0.0, 0.0, 0.0, 3.0),
        ];
        assert_kernels_agree(&ps, &(0..=25).collect::<Vec<_>>());
    }

    #[test]
    fn kernels_agree_on_tabulated_costs() {
        let ps = vec![
            Processor {
                name: "measured".into(),
                comm: CostFn::table(vec![(10, 1.0), (100, 8.0)]),
                comp: CostFn::table(vec![(10, 5.0), (50, 20.0), (100, 60.0)]),
            },
            Processor::linear("root", 0.0, 1.0),
        ];
        assert_kernels_agree(&ps, &[0, 1, 7, 20, 55, 120]);
    }

    #[test]
    fn exact_check_catches_sneaky_decrease() {
        // Decreasing only between sample points of the cheap probe:
        // the exact tabulated check must still catch it.
        let ps = vec![
            Processor::custom("sneaky", |x| if x == 37 { 0.0 } else { x as f64 }, |x| x as f64),
            Processor::linear("root", 0.0, 1.0),
        ];
        assert!(matches!(
            serial_solve(Optimized, &view(&ps), 100),
            Err(PlanError::NotIncreasing { .. })
        ));
    }

    #[test]
    fn larger_n_smoke() {
        // p = 4, n = 2000: must complete fast, match Eq. (2) evaluation,
        // and the D&C kernel must stay bit-identical.
        let ps = vec![
            Processor::linear("a", 1e-4, 2e-3),
            Processor::linear("b", 2e-4, 1e-3),
            Processor::linear("c", 5e-5, 4e-3),
            Processor::linear("root", 0.0, 3e-3),
        ];
        let v = view(&ps);
        let sol = serial_solve(Optimized, &v, 2000).unwrap();
        assert_eq!(sol.counts.iter().sum::<usize>(), 2000);
        let ms = makespan(&v, &sol.counts);
        assert!((ms - sol.makespan).abs() < 1e-9);
        assert_bit_identical(&serial_solve(Dc, &v, 2000).unwrap(), &sol, "dc n=2000");
    }

    #[test]
    fn parallel_matches_serial_on_table1() {
        let (sub, order) = table1_view(8);
        let v = sub.ordered(&order);
        for n in [0usize, 1, 17, 500, 3000] {
            let serial = serial_solve(Optimized, &v, n).unwrap();
            for kernel in [Optimized, Dc] {
                for threads in [1usize, 2, 5] {
                    let opts = ParallelOpts { threads, prune: false, chunk: 64 };
                    let par = solve_with(kernel, &v, n, &opts).unwrap();
                    assert_bit_identical(
                        &par,
                        &serial,
                        &format!("{kernel:?} n={n} threads={threads}"),
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_matches_serial_on_table1() {
        let (sub, order) = table1_view(16);
        let v = sub.ordered(&order);
        for n in [0usize, 1, 100, 2500] {
            let serial = serial_solve(Optimized, &v, n).unwrap();
            for threads in [1usize, 3] {
                let opts = ParallelOpts { threads, prune: true, chunk: 128 };
                let pruned = solve_with(Optimized, &v, n, &opts).unwrap();
                assert_bit_identical(&pruned, &serial, &format!("n={n} threads={threads}"));
            }
        }
    }

    #[test]
    fn pruned_matches_serial_on_affine_costs() {
        let ps = vec![
            Processor::affine("a", 0.4, 0.5, 0.9, 2.0),
            Processor::affine("b", 0.2, 1.0, 0.1, 1.0),
            Processor::affine("root", 0.0, 0.0, 0.0, 3.0),
        ];
        let v = view(&ps);
        for n in 0..=40 {
            let serial = serial_solve(Optimized, &v, n).unwrap();
            let opts = ParallelOpts { threads: 2, prune: true, chunk: 4 };
            let pruned = solve_with(Optimized, &v, n, &opts).unwrap();
            assert_bit_identical(&pruned, &serial, &format!("n={n}"));
        }
    }

    /// The `f64` seed on the platforms where a closed form degenerates:
    /// a free processor (α = β = 0, for which the closed form gives a
    /// zero bound), a non-participant (β above `D` of its suffix), an
    /// intercept-heavy affine platform, and n ∈ {0, 1}. The seed must be
    /// finite and at least the optimum, and the band must answer (no
    /// fallback, which is what `dp_band_fallback_total` counts) with the
    /// full plane's bits.
    #[test]
    fn f64_seed_bounds_degenerate_platforms() {
        let platforms = [
            vec![
                Processor::linear("a", 0.5, 2.0),
                Processor::linear("free", 0.0, 0.0),
                Processor::linear("root", 0.0, 3.0),
            ],
            vec![
                Processor::linear("slow link", 10.0, 0.1),
                Processor::linear("b", 0.1, 1.0),
                Processor::linear("root", 0.0, 1.0),
            ],
            vec![
                Processor::affine("a", 50.0, 0.1, 80.0, 1.0),
                Processor::affine("b", 30.0, 0.2, 20.0, 0.5),
                Processor::affine("c", 5.0, 0.3, 400.0, 0.2),
                Processor::affine("root", 0.0, 0.0, 100.0, 2.0),
            ],
        ];
        // The slow link's β = 10 exceeds D = 1/(2/1.1) = 0.55 of its suffix.
        let slopes = affine_slopes(&view(&platforms[1])).unwrap();
        let mut joins = vec![];
        participant_scan(&slopes, |k| joins.push(k));
        assert_eq!(joins, [2, 1], "the slow link does not participate");
        assert_eq!(seed_counts(&slopes, 1000)[0], 0);
        assert_eq!(seed_counts(&affine_slopes(&view(&platforms[0])).unwrap(), 9), [0, 9, 0]);

        for (k, ps) in platforms.iter().enumerate() {
            let v = view(ps);
            for n in [0usize, 1, 2, 7, 100, 1000] {
                let full = serial_solve(Optimized, &v, n).unwrap();
                let seed = upper_bound(&v, n).expect("affine platforms are seeded");
                assert!(seed.is_finite(), "platform {k}, n = {n}: seed {seed}");
                assert!(seed * (1.0 + BOUND_MARGIN) >= full.makespan, "platform {k}, n = {n}");
                for kernel in [Optimized, Dc] {
                    let opts = ParallelOpts { threads: 1, prune: true, chunk: 0 };
                    let (sol, timing) = solve(kernel, &CostTable::new(), &v, n, &opts).unwrap();
                    let what = format!("platform {k}, {kernel:?}, n = {n}");
                    assert!(timing.pruned, "{what}: the band answered");
                    assert_bit_identical(&sol, &full, &what);
                }
            }
        }
    }

    #[test]
    fn prune_without_affine_costs_degrades_gracefully() {
        // Tabulated costs have no analytic bound seed: the solve must
        // silently run on the full plane and still be exact.
        let ps = vec![
            Processor {
                name: "measured".into(),
                comm: CostFn::table(vec![(10, 1.0), (100, 8.0)]),
                comp: CostFn::table(vec![(10, 5.0), (50, 20.0), (100, 60.0)]),
            },
            Processor::linear("root", 0.0, 1.0),
        ];
        let v = view(&ps);
        let serial = serial_solve(Optimized, &v, 120).unwrap();
        let table = CostTable::new();
        let opts = ParallelOpts { threads: 2, prune: true, chunk: 16 };
        let (sol, timing) = solve(Optimized, &table, &v, 120, &opts).unwrap();
        assert_bit_identical(&sol, &serial, "tabulated");
        assert!(!timing.pruned, "no bound seed available");
    }

    #[test]
    fn basic_parallel_matches_serial() {
        let ps = vec![
            Processor::linear("a", 0.5, 2.0),
            Processor::linear("b", 1.0, 1.0),
            Processor::linear("root", 0.0, 3.0),
        ];
        let v = view(&ps);
        for n in [0usize, 1, 9, 64, 201] {
            let serial = serial_solve(Basic, &v, n).unwrap();
            for threads in [2usize, 8] {
                let opts = ParallelOpts { threads, prune: false, chunk: 32 };
                let par = solve_with(Basic, &v, n, &opts).unwrap();
                assert_bit_identical(&par, &serial, &format!("basic n={n} threads={threads}"));
            }
        }
    }

    #[test]
    fn dc_runs_banded_and_stays_exact() {
        let (sub, order) = table1_view(16);
        let v = sub.ordered(&order);
        let n = 2500;
        let serial = serial_solve(Optimized, &v, n).unwrap();
        let table = CostTable::new();
        let opts = ParallelOpts { threads: 3, prune: true, chunk: 128 };
        let (dc, timing) = solve(Dc, &table, &v, n, &opts).unwrap();
        assert_bit_identical(&dc, &serial, "dc banded");
        assert!(timing.pruned, "linear costs seed the band for the D&C kernel too");
        assert_eq!(timing.strategy, "exact-dc");
    }

    fn band_fallbacks() -> u64 {
        Registry::global()
            .snapshot()
            .counters
            .iter()
            .find(|c| c.name == "dp_band_fallback_total")
            .map_or(0, |c| c.value)
    }

    #[test]
    fn bound_below_the_optimum_falls_back_to_the_full_plane() {
        // A seed below the optimum leaves no plan inside the band: the
        // solve must notice, redo the full plane, and stay exact.
        let (sub, order) = table1_view(8);
        let v = sub.ordered(&order);
        let n = 3000;
        let full = serial_solve(Optimized, &v, n).unwrap();
        let low = |v: &[&Processor], n: usize| {
            Some(Band::new(v, n, full.makespan * 0.999 * (1.0 + BOUND_MARGIN)))
        };
        for kernel in [Optimized, Dc] {
            let opts = ParallelOpts { threads: 1, prune: true, chunk: 0 };
            let before = band_fallbacks();
            let (sol, timing, _) =
                solve_seeded(kernel, &CostTable::new(), &v, n, &opts, None, low).unwrap();
            assert_eq!(band_fallbacks(), before + 1, "{kernel:?}: one fallback counted");
            assert_bit_identical(&sol, &full, &format!("{kernel:?} after fallback"));
            assert!(!timing.pruned, "the answer came from the full plane");
            // A warm-started banded solve falls back the same way, and
            // the full plane then needs the reused processors' costs too.
            let table = CostTable::new();
            let (_, _, plane) = solve_cached(kernel, &table, &v, n, &opts, None).unwrap();
            let warm = WarmStart { plane, reuse: v.len() - 1 };
            let (sol, timing, _) =
                solve_seeded(kernel, &table, &v, n, &opts, Some(warm), low).unwrap();
            assert_bit_identical(&sol, &full, &format!("{kernel:?} warm, after fallback"));
            assert!(!timing.pruned, "the warm answer came from the full plane");
        }
    }

    /// Random platforms of up to 8 processors, root last: linear,
    /// affine, or affine with intercepts up to 50 s against slopes of at
    /// most 0.03 s.
    fn random_platform() -> impl proptest::strategy::Strategy<Value = Vec<Processor>> {
        use proptest::prelude::*;
        let worker = (0u8..3, 0u32..=5000, 1u32..=300, 0u32..=5000, 1u32..=300);
        (proptest::collection::vec(worker, 1..8), 1u32..=300).prop_map(|(workers, root_a)| {
            let mut procs: Vec<Processor> = workers
                .into_iter()
                .enumerate()
                .map(|(i, (kind, bi, b, ai, a))| {
                    let name = format!("w{i}");
                    let (b, a) = (b as f64, a as f64);
                    match kind {
                        0 => Processor::linear(name, b * 1e-3, a * 1e-2),
                        1 => Processor::affine(
                            name,
                            (bi % 51) as f64 * 1e-2,
                            b * 1e-3,
                            (ai % 51) as f64 * 1e-2,
                            a * 1e-2,
                        ),
                        _ => Processor::affine(
                            name,
                            bi as f64 * 1e-2,
                            b * 1e-5,
                            ai as f64 * 1e-2,
                            a * 1e-4,
                        ),
                    }
                })
                .collect();
            procs.sort_by(|x, y| {
                let beta = |p: &Processor| p.comm.affine_params().unwrap().1;
                beta(x).total_cmp(&beta(y))
            });
            procs.push(Processor::linear("root", 0.0, root_a as f64 * 1e-2));
            procs
        })
    }

    proptest::proptest! {
        /// The band at the full-plane optimum × (1 + [`BOUND_MARGIN`]),
        /// the tightest bound a seed can give, and at the optimum itself:
        /// every edge is then as close to the optimal path as it gets, so
        /// an `f64` slip in `D_i` or `S_i`, or an edge without its own
        /// margin, drops an optimal cell and shows as a fallback or a
        /// different answer.
        #[test]
        fn band_at_the_optimum_is_bit_identical(ps in random_platform(), n in 0usize..=3000) {
            let v = view(&ps);
            let full = serial_solve(Dc, &v, n).unwrap();
            for bound in [full.makespan * (1.0 + BOUND_MARGIN), full.makespan] {
                let tight = |v: &[&Processor], n: usize| Some(Band::new(v, n, bound));
                for kernel in [Optimized, Dc] {
                    let opts = ParallelOpts { threads: 1, prune: true, chunk: 0 };
                    let (sol, timing, _) =
                        solve_seeded(kernel, &CostTable::new(), &v, n, &opts, None, tight).unwrap();
                    let what = format!("{kernel:?} at {bound}");
                    proptest::prop_assert!(timing.pruned, "{}: the band fell back", what);
                    proptest::prop_assert_eq!(&sol.counts, &full.counts);
                    proptest::prop_assert_eq!(sol.makespan.to_bits(), full.makespan.to_bits());
                }
            }
        }
    }

    #[test]
    fn band_holds_a_sliver_of_the_plane() {
        let (sub, order) = table1_view(16);
        let v = sub.ordered(&order);
        let n = 50_000;
        let table = CostTable::new();
        let full_opts = ParallelOpts::serial();
        let (full, _, full_plane) =
            solve_seeded(Dc, &table, &v, n, &full_opts, None, plain_band).unwrap();
        let before = band_fallbacks();
        for kernel in [Optimized, Dc] {
            for threads in [1usize, 2] {
                let opts = ParallelOpts { threads, prune: true, chunk: 0 };
                let (sol, timing, plane) =
                    solve_seeded(kernel, &table, &v, n, &opts, None, plain_band).unwrap();
                assert_bit_identical(&sol, &full, &format!("{kernel:?} threads={threads}"));
                assert!(timing.pruned);
                assert!(
                    plane.bytes() * 50 < full_plane.bytes(),
                    "banded plane {} B vs full {} B",
                    plane.bytes(),
                    full_plane.bytes()
                );
            }
        }
        assert_eq!(band_fallbacks(), before, "a consistent bound never falls back");
    }

    #[test]
    fn dc_falls_back_on_non_monotone_costs() {
        // Algorithm 2 rejects these outright; the D&C kernel must
        // instead demote itself and match Algorithm 1 bit for bit, for
        // any thread count.
        let two = vec![
            Processor::custom("dec", |x| 10.0 - x as f64 * 0.01, |x| x as f64),
            Processor::linear("root", 0.0, 1.0),
        ];
        assert!(matches!(
            serial_solve(Optimized, &view(&two), 10),
            Err(PlanError::NotIncreasing { proc: 0 })
        ));
        let three = vec![
            Processor::custom("dec", |x| 10.0 - x as f64 * 0.01, |x| x as f64),
            Processor::linear("mid", 0.5, 2.0),
            Processor::linear("root", 0.0, 1.0),
        ];
        for ps in [&two, &three] {
            let v = view(ps);
            for n in [0usize, 1, 10, 64] {
                let basic = serial_solve(Basic, &v, n).unwrap();
                for threads in [1usize, 4] {
                    let opts = ParallelOpts { threads, prune: false, chunk: 16 };
                    let dc = solve_with(Dc, &v, n, &opts).unwrap();
                    assert_bit_identical(&dc, &basic, &format!("n={n} threads={threads}"));
                }
            }
        }
    }

    #[test]
    fn fallback_is_counted() {
        let count = || {
            Registry::global()
                .snapshot()
                .counters
                .iter()
                .find(|c| c.name == "dp_dc_fallbacks_total")
                .map_or(0, |c| c.value)
        };
        let ps = vec![
            Processor::custom("dec", |x| 10.0 - x as f64 * 0.01, |x| x as f64),
            Processor::linear("root", 0.0, 1.0),
        ];
        let before = count();
        serial_solve(Dc, &view(&ps), 10).unwrap();
        assert!(count() > before, "demotion must tick dp_dc_fallbacks_total");
    }

    #[test]
    fn warm_start_skips_reused_columns() {
        use crate::metrics::{MetricsSnapshot, Registry};
        let get = |s: &MetricsSnapshot, name: &str| {
            s.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
        };
        let (sub, order) = table1_view(8);
        let v = sub.ordered(&order);
        let table = CostTable::new();
        let opts = ParallelOpts { threads: 1, prune: true, chunk: 0 };
        let (_, _, plane) = solve_cached(Dc, &table, &v, 2000, &opts, None).unwrap();
        assert!(plane.is_banded());
        // The first-served worker crashes: a re-plan of every item over
        // the survivors reuses every column below its own.
        let survivors: Vec<&Processor> = v[1..].to_vec();
        let n = 2000usize;
        let reuse = reusable(&plane, Dc, &survivors, n, &opts, survivors.len());
        assert_eq!(reuse, survivors.len() - 1, "every column but the top is reusable");
        let before = Registry::global().snapshot();
        let warm_src = WarmStart { plane, reuse };
        let (warm, timing, _) =
            solve_cached(Dc, &table, &survivors, n, &opts, Some(warm_src)).unwrap();
        let after = Registry::global().snapshot();
        assert!(timing.pruned);
        assert_bit_identical(&warm, &serial_solve(Optimized, &survivors, n).unwrap(), "warm");
        // Only the top cell is computed: every middle + base column was
        // reused. The cells counter may move from concurrent tests, but
        // the warm counters are ticked exactly once here.
        assert!(
            get(&after, "dp_warm_solves_total") > get(&before, "dp_warm_solves_total"),
            "warm solve must tick dp_warm_solves_total"
        );
        assert!(
            get(&after, "dp_warm_columns_reused_total")
                >= get(&before, "dp_warm_columns_reused_total") + reuse as u64,
            "reused columns must be counted"
        );
    }

    #[test]
    fn too_large_is_an_error_not_a_panic() {
        let ps = vec![Processor::linear("root", 0.0, 1.0)];
        let n = u32::MAX as usize + 1;
        for kernel in KERNELS {
            assert!(matches!(
                serial_solve(kernel, &view(&ps), n),
                Err(PlanError::TooLarge { n: got, max }) if got == n && max == u32::MAX as usize
            ));
        }
    }

    #[test]
    fn timing_block_is_coherent() {
        let (sub, order) = table1_view(4);
        let v = sub.ordered(&order);
        let table = CostTable::new();
        let opts = ParallelOpts { threads: 2, prune: true, chunk: 0 };
        let (_, timing) = solve(Optimized, &table, &v, 800, &opts).unwrap();
        assert_eq!(timing.strategy, "exact");
        assert_eq!(timing.threads, 2);
        assert!(timing.pruned, "linear costs seed a closed-form bound");
        assert!(timing.total_secs >= timing.solve_secs);
        // A banded solve reads its costs in the cell: no table lookups.
        assert_eq!((timing.cache_hits, timing.cache_misses), (0, 0));
        assert_eq!(timing.tabulate_secs, 0.0);
        // The D&C kernel runs banded too; `prune: false` is the full plane.
        let (_, dc) = solve(Dc, &table, &v, 800, &opts).unwrap();
        assert_eq!(dc.strategy, "exact-dc");
        assert!(dc.pruned, "the band applies to the D&C kernel");
        assert_eq!((dc.cache_hits, dc.cache_misses), (0, 0));
        assert!(table.is_empty(), "no banded solve tabulates");
        let full = ParallelOpts { prune: false, ..opts };
        let (_, dc_full) = solve(Dc, &table, &v, 800, &full).unwrap();
        assert!(!dc_full.pruned);
        assert!(dc_full.tabulate_secs >= 0.0);
        assert!(dc_full.cache_misses > 0, "first full-plane solve must tabulate");
        // Re-solving through the same table is all hits.
        let (_, again) = solve(Dc, &table, &v, 800, &full).unwrap();
        assert_eq!(again.cache_misses, 0);
        assert!(again.cache_hits > 0);
    }

    #[test]
    fn pruning_saves_work_but_not_accuracy_at_scale() {
        let (sub, order) = table1_view(16);
        let v = sub.ordered(&order);
        let n = 20_000;
        let serial = serial_solve(Optimized, &v, n).unwrap();
        let opts = ParallelOpts { threads: 1, prune: true, chunk: 0 };
        let pruned = solve_with(Optimized, &v, n, &opts).unwrap();
        assert_bit_identical(&pruned, &serial, "n=20000 pruned");
    }

    #[test]
    fn solves_feed_the_global_metrics_registry() {
        // Deltas, not absolutes: the test harness shares the global
        // registry across concurrently running tests.
        use crate::metrics::{MetricsSnapshot, Registry};
        let get = |s: &MetricsSnapshot, name: &str| {
            s.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
        };
        let before = Registry::global().snapshot();
        let (sub, order) = table1_view(4);
        let v = sub.ordered(&order);
        let opts = ParallelOpts { threads: 2, prune: false, chunk: 64 };
        solve_with(Optimized, &v, 500, &opts).unwrap();
        let after = Registry::global().snapshot();
        assert!(get(&after, "dp_solves_total") > get(&before, "dp_solves_total"));
        // Unpruned 4-proc solve: ≥ (p−1 columns) · (n+1) cells minus the
        // single-cell top column; at least one full column plus the base.
        assert!(
            get(&after, "dp_cells_evaluated_total")
                >= get(&before, "dp_cells_evaluated_total") + 2 * 501
        );
        assert!(get(&after, "dp_cache_misses_total") > get(&before, "dp_cache_misses_total"));
    }

    #[test]
    fn thread_count_zero_resolves_to_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
