//! The exact dynamic programs — the paper's Algorithms 1 and 2 and the
//! divide-and-conquer kernel, selected by [`Kernel`] — behind one
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
//! * **Upper-bound pruning** (Algorithm 2 only, opt-in). The solve is
//!   seeded with the makespan of a feasible distribution — the §4 closed
//!   form for linear costs, else the §3.3 guaranteed LP heuristic for
//!   affine costs. Any cell whose value exceeds this bound can never lie
//!   on the optimal reconstruction path (appending processors only adds
//!   non-negative `Tcomm` terms, so values along the path are
//!   non-increasing and the root cell's value is the optimum `<=` the
//!   bound). Since column values are non-decreasing in `d`, each column
//!   is computed only up to its first out-of-bound cell, and the
//!   candidate window of each cell shrinks to the `e` with
//!   `Tcomm(i, e) <= bound` *and* an in-bound suffix. The bound is
//!   inflated by one part in 10⁹ so floating-point summation-order noise
//!   can never exclude the optimal path; if the bound were ever
//!   inconsistent anyway, the engine falls back to an unpruned solve
//!   rather than return a wrong answer.
//! * **Tabulation caching.** Cost tables come from a [`CostTable`], so
//!   repeated solves (and repeated processors within one platform)
//!   evaluate each cost function once.
//!
//! [`solve`] also reports a [`PlanTiming`] block —
//! tabulation vs solve split, thread count, cache statistics — which the
//! planner attaches to plans and traces (see `docs/performance.md`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::cost::Processor;
use crate::cost_table::CostTable;
use crate::dp_kernel::{self, DpPlane, MAX_ITEMS};
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
    ///
    /// Worst case `O(p·n²)`, best case `O(p·n)`; the paper measured 6
    /// minutes at `n = 817,101`. Monotonicity is checked (cheaply by
    /// sampling, then exactly on the tabulated values) and a violation
    /// is [`PlanError::NotIncreasing`]. The only kernel that supports
    /// upper-bound pruning ([`ParallelOpts::prune`]).
    Optimized,
    /// Divide and conquer over the monotone crossing point: Algorithm
    /// 2's answer in `O(p·n log n)`. Algorithm 2 binary-searches each
    /// cell's crossing point `c(d)` — the smallest `e` with
    /// `Tcomp(i,e) >= cost[d-e, i+1]` — but for non-decreasing costs the
    /// crossing moves by at most one step per cell
    /// (`c(d) <= c(d+1) <= c(d) + 1`). This kernel computes the crossing
    /// of the middle cell inside the window bounded by its neighbours'
    /// crossings and recurses on both halves, `O(n + log n)` probes for
    /// a whole range of cells; every cell then runs exactly Algorithm
    /// 2's comparisons from its crossing point, so counts, makespans and
    /// tie-breaks are bit-identical to [`Kernel::Optimized`].
    ///
    /// The monotonicity this rests on is checked at run time, twice:
    /// exactly at solve entry on the tabulated costs — costs that are
    /// not non-decreasing demote the whole solve to [`Kernel::Basic`]
    /// (counted by `dp_dc_fallbacks_total`), so arbitrary non-negative
    /// costs are *not* an error here — and defensively per column on the
    /// previous column's values, where a violation (a floating-point
    /// surprise, not an expected input) demotes just that column to the
    /// full scan (`dp_dc_column_fallbacks_total`). Each worker chunk
    /// runs its own recursion; see `docs/performance.md` for the kernel
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

/// Trailing columns of a previous solve, reused to warm-start a new one.
///
/// Column `plane.p - 1 - k` of the source becomes column `p - 1 - k` of
/// the new solve for `k < reuse` — valid because DP column `i` depends
/// only on the cost functions of processors `i..p-1`, so identical
/// trailing processors produce bit-identical trailing columns. The
/// caller ([`crate::planner::PlanCache`]) guarantees the trailing cost
/// functions match, that each reused column has at least `n + 1`
/// computed cells, and that the source solve ran unpruned; warm solves
/// themselves always run unpruned.
pub(crate) struct WarmStart<'a> {
    /// Plane of the previous (unpruned) solve.
    pub plane: &'a DpPlane,
    /// Trailing columns to copy; `1 <= reuse <= p - 1` (the top column
    /// is always recomputed).
    pub reuse: usize,
}

/// Execution options for the parallel engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelOpts {
    /// Worker threads per column; `0` means one per available core.
    pub threads: usize,
    /// Enable upper-bound pruning (Algorithm 2 only; ignored by
    /// Algorithm 1 and the D&C kernel, and by warm-started solves).
    /// Requires linear or affine costs to seed the bound — otherwise the
    /// solve silently runs unpruned.
    pub prune: bool,
    /// Cells per work unit; `0` picks a size balancing scheduling
    /// overhead against load skew.
    pub chunk: usize,
}

impl ParallelOpts {
    /// The serial solve: one thread, no pruning.
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
/// ```
pub fn solve(
    kernel: Kernel,
    table: &CostTable,
    procs: &[&Processor],
    n: usize,
    opts: &ParallelOpts,
) -> Result<(DpSolution, PlanTiming), PlanError> {
    solve_full(kernel, table, procs, n, opts, None).map(|(sol, timing, _)| (sol, timing))
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

/// Full engine entry point: solves, and also returns the DP plane so
/// the planner's [`crate::planner::PlanCache`] can keep it for
/// warm-started re-plans. `warm` seeds the trailing columns from a
/// previous plane (and forces the solve unpruned).
pub(crate) fn solve_full(
    kernel: Kernel,
    table: &CostTable,
    procs: &[&Processor],
    n: usize,
    opts: &ParallelOpts,
    warm: Option<&WarmStart<'_>>,
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

    let t_tab = Instant::now();
    let tab_span = span::span("dp", "dp.tabulate");
    let mut monos = Vec::with_capacity(p);
    let tabs: Vec<TabPair> = procs
        .iter()
        .map(|pr| {
            let (comm, mono_comm) = table.tabulate_mono(&pr.comm, n);
            let (comp, mono_comp) = table.tabulate_mono(&pr.comp, n);
            monos.push(mono_comm.min(mono_comp));
            (comm, comp)
        })
        .collect();
    let mut run_kernel = kernel;
    if kernel != Kernel::Basic {
        // Exact monotonicity check on the tabulated values: Algorithm 2
        // and the D&C recurrence both depend on it, so sampling is not
        // enough here. The non-decreasing prefix length is cached with
        // the tabulation, making this O(p) per solve.
        for (i, &mono) in monos.iter().enumerate() {
            if mono <= n {
                if kernel == Kernel::Dc {
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
                    run_kernel = Kernel::Basic;
                    break;
                }
                return Err(PlanError::NotIncreasing { proc: i });
            }
        }
    }
    drop(tab_span);
    let tabulate_secs = t_tab.elapsed().as_secs_f64();

    let t_solve = Instant::now();
    let ub = if opts.prune && run_kernel == Kernel::Optimized && warm.is_none() {
        upper_bound(procs, n)
    } else {
        None
    };
    let mut engine = Engine {
        kernel: run_kernel,
        tabs: &tabs,
        n,
        p,
        threads,
        chunk: chunk_size(n + 1, threads, opts.chunk),
        stats: DpStats::new(),
        span_parent: 0,
    };
    let reuse = warm.map_or(0, |w| w.reuse);
    debug_assert!(reuse < p, "the top column is never reused");
    let mut plane = DpPlane::new(p, n);
    if let Some(w) = warm {
        copy_warm(&mut plane, w);
    }
    let sweep_span = span::span("dp", "dp.sweep");
    engine.span_parent = sweep_span.id();
    let (counts, makespan) = match engine.run(&mut plane, ub.map(|u| u * (1.0 + BOUND_MARGIN)), reuse)
    {
        Some(result) => result,
        // The bound proved inconsistent (cannot happen for a correctly
        // seeded bound; kept as a correctness net): redo unpruned. Warm
        // solves are unpruned, so `reuse = 0` on this path.
        None => {
            plane = DpPlane::new(p, n);
            engine.run(&mut plane, None, 0).expect("unpruned solve is always consistent")
        }
    };
    drop(sweep_span);
    let solve_secs = t_solve.elapsed().as_secs_f64();

    let timing = PlanTiming {
        // The *requested* kernel: a demoted D&C solve still reports
        // `exact-dc` (the demotion is visible in `dp_dc_fallbacks_total`).
        strategy: match kernel {
            Kernel::Basic => "exact-basic".into(),
            Kernel::Optimized => "exact".into(),
            Kernel::Dc => "exact-dc".into(),
        },
        threads,
        pruned: ub.is_some(),
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
        reg.counter("dp_warm_solves_total", "DP solves warm-started from a cached plane")
            .inc();
        reg.counter(
            "dp_warm_columns_reused_total",
            "DP columns copied from a cached plane instead of recomputed",
        )
        .add(reuse as u64);
    }
    solve_span.attr("kernel", &timing.strategy);
    solve_span.attr("n", n);
    solve_span.attr("p", p);
    solve_span.attr("threads", threads);
    solve_span.attr("pruned", ub.is_some());
    solve_span.attr("fallback", run_kernel != kernel);
    solve_span.attr("reuse", reuse);
    Ok((DpSolution { counts, makespan }, timing, plane))
}

/// Copies the reused trailing columns of a [`WarmStart`] into a fresh
/// plane (cells `0..=n` of each, plus their choice rows).
fn copy_warm(plane: &mut DpPlane, w: &WarmStart<'_>) {
    let (n, p) = (plane.n, plane.p);
    let (src, sp) = (w.plane, w.plane.p);
    let (ds, ss) = (plane.stride(), src.stride());
    for k in 0..w.reuse {
        let (di, si) = (p - 1 - k, sp - 1 - k);
        debug_assert!(src.col_len[si] > n, "cache guarantees >= n + 1 computed cells");
        plane.cost[di * ds..di * ds + n + 1]
            .copy_from_slice(&src.cost[si * ss..si * ss + n + 1]);
        plane.choice[di * ds..di * ds + n + 1]
            .copy_from_slice(&src.choice[si * ss..si * ss + n + 1]);
        plane.col_len[di] = n + 1;
    }
}

/// A feasible (hence upper-bounding) makespan for pruning: the closed
/// form's rounded distribution when every cost is linear or affine, else
/// `None` (no pruning).
///
/// Affine platforms are seeded from the *slopes-only* closed form: any
/// feasible distribution evaluated with the true affine costs
/// upper-bounds the optimum, and the closed form never needs more than
/// its O(p) rational operations, whereas the exact LP heuristic falls
/// back to the general simplex on intercept-heavy platforms (minutes at
/// `p = 64` — far more than the pruning it buys). The bound loosens by
/// at most the sum of the intercepts, which the pruning margin already
/// absorbs on realistic platforms.
fn upper_bound(procs: &[&Processor], n: usize) -> Option<f64> {
    let linear =
        procs.iter().all(|p| p.comm.linear_slope().is_some() && p.comp.linear_slope().is_some());
    if linear {
        let sol = crate::closed_form::closed_form_distribution(procs, n).ok()?;
        return Some(crate::distribution::makespan(procs, &sol.counts));
    }
    let affine =
        procs.iter().all(|p| p.comm.affine_params().is_some() && p.comp.affine_params().is_some());
    if affine {
        let linearized: Vec<Processor> = procs
            .iter()
            .map(|pr| {
                let (_, beta) = pr.comm.affine_params().expect("checked affine");
                let (_, alpha) = pr.comp.affine_params().expect("checked affine");
                Processor::linear(pr.name.clone(), beta, alpha)
            })
            .collect();
        let views: Vec<&Processor> = linearized.iter().collect();
        let sol = crate::closed_form::closed_form_distribution(&views, n).ok()?;
        return Some(crate::distribution::makespan(procs, &sol.counts));
    }
    None
}

/// One configured solve over pre-tabulated costs.
struct Engine<'a> {
    kernel: Kernel,
    tabs: &'a [TabPair],
    n: usize,
    p: usize,
    threads: usize,
    chunk: usize,
    stats: DpStats,
    /// Span id of the enclosing `dp.sweep` span: `dp.chunk` spans
    /// recorded on worker threads attach here explicitly, because the
    /// tracer's thread-local parent stack does not cross threads.
    span_parent: u64,
}

impl Engine<'_> {
    fn tab(&self, i: usize) -> (&[f64], &[f64]) {
        (&self.tabs[i].0[..=self.n], &self.tabs[i].1[..=self.n])
    }

    /// The kernel one column actually runs: the D&C recurrence requires
    /// the previous column non-decreasing over its valid prefix — true
    /// by induction for non-decreasing costs (a rounded sum or max of
    /// non-decreasing sequences is non-decreasing), but verified per
    /// column (one O(n) sequential scan, negligible next to the column
    /// itself) so that a floating-point surprise degrades to the
    /// full-scan kernel for that column instead of a wrong plan.
    fn column_kernel(&self, prev: &[f64], prev_valid: usize) -> Kernel {
        if self.kernel != Kernel::Dc {
            return self.kernel;
        }
        if prev[..=prev_valid].windows(2).any(|w| w[1] < w[0]) {
            self.stats.dc_col_fallbacks.inc();
            return Kernel::Basic;
        }
        Kernel::Dc
    }

    /// Runs the column sweep + reconstruction over `plane`. `bound` is
    /// the inflated pruning bound (`None` disables pruning); `reuse`
    /// trailing columns were pre-filled by a warm start. Returns `None`
    /// only when a bound turned out inconsistent with the table — the
    /// caller then retries unpruned.
    fn run(&self, plane: &mut DpPlane, bound: Option<f64>, reuse: usize) -> Option<(Vec<usize>, f64)> {
        let (n, p) = (self.n, self.p);
        let stride = n + 1;

        // Base column: the root takes everything that is left. A warm
        // start already copied it (and possibly more trailing columns).
        if reuse == 0 {
            let (comm, comp) = self.tab(p - 1);
            let col = &mut plane.cost[(p - 1) * stride..p * stride];
            let mut len = 0usize;
            for d in 0..=n {
                let v = comm[d] + comp[d];
                if bound.is_some_and(|b| v > b) {
                    break;
                }
                col[d] = v;
                len += 1;
            }
            // The plane is zero-allocated: mark the pruned tail
            // out-of-bound explicitly (no-op when unpruned, `len = n+1`).
            for v in &mut col[len..] {
                *v = f64::INFINITY;
            }
            plane.col_len[p - 1] = len;
            self.stats.cells.add(len as u64);
            self.stats.prune_hits.add((n + 1 - len) as u64);
        }
        if p == 1 {
            let v = plane.cost[n];
            if !v.is_finite() {
                return None;
            }
            return Some((vec![n], v));
        }

        // Middle columns, highest suffix first; the `known` trailing
        // columns (base, plus any warm-start copies) are already in
        // place. Chunks write disjoint slices of the current column.
        let known = reuse.max(1);
        let mut prev_valid = plane.col_len[p - known].checked_sub(1)?;
        for i in (1..p - known).rev() {
            let (comm, comp) = self.tab(i);
            let cap = match bound {
                Some(b) => comm.partition_point(|&c| c <= b).checked_sub(1)?,
                None => n,
            };
            // Cells past prev_valid + cap have no candidate with both an
            // in-bound Tcomm and an in-bound suffix — skip them outright.
            let len = if bound.is_some() { (prev_valid + cap).min(n) + 1 } else { n + 1 };
            let (head, tail) = plane.cost.split_at_mut((i + 1) * stride);
            let cur = &mut head[i * stride..];
            let prev = &tail[..stride];
            let choice = &mut plane.choice[i * stride..(i + 1) * stride];
            let ctx = ColumnCtx {
                kernel: self.column_kernel(prev, prev_valid),
                comm,
                comp,
                prev,
                prev_valid,
                cap,
                bound,
            };
            self.compute_column(&ctx, &mut cur[..len], &mut choice[..len]);
            // Zero-allocated plane: the cells this column skips outright
            // must read as out-of-bound (no-op when unpruned).
            for v in &mut cur[len..stride] {
                *v = f64::INFINITY;
            }
            plane.col_len[i] = len;
            prev_valid = match bound {
                Some(b) => match cur[..len].iter().position(|&v| v > b) {
                    Some(0) => return None,
                    Some(q) => q - 1,
                    None => len - 1,
                },
                None => n,
            };
        }

        // Top column: reconstruction starts at (d = n, i = 0), so only
        // that single cell is ever read — compute just it (its column
        // keeps `col_len[0] = 0`: never reusable by a warm start).
        let (comm, comp) = self.tab(0);
        let cap = match bound {
            Some(b) => comm.partition_point(|&c| c <= b).checked_sub(1)?,
            None => n,
        };
        let (head, tail) = plane.cost.split_at_mut(stride);
        let prev = &tail[..stride];
        let ctx = ColumnCtx {
            kernel: self.column_kernel(prev, prev_valid),
            comm,
            comp,
            prev,
            prev_valid,
            cap,
            bound,
        };
        let (makespan, top_e) = ctx.cell(n);
        head[n] = makespan;
        plane.choice[n] = top_e;
        if bound.is_some() && !makespan.is_finite() {
            return None;
        }

        // Reconstruction. Every cell on the path has value <= the bound,
        // so with pruning it was computed, not skipped; the finiteness
        // checks below are the safety net behind the fallback.
        let mut counts = vec![0usize; p];
        let mut d = n;
        counts[0] = top_e as usize;
        d -= counts[0];
        for (i, c) in counts.iter_mut().enumerate().take(p - 1).skip(1) {
            if !plane.col(i)[d].is_finite() {
                return None;
            }
            let e = plane.choice_col(i)[d] as usize;
            *c = e;
            d = d.checked_sub(e)?;
        }
        counts[p - 1] = d;
        Some((counts, makespan))
    }

    /// Computes one column slice (`cost`/`choice` are the first `len`
    /// cells of the column in the plane), chunked over the worker
    /// threads. Cells skipped by a pruning early-stop are written
    /// `+inf`, which downstream logic treats as out-of-bound.
    fn compute_column(&self, ctx: &ColumnCtx<'_>, cost: &mut [f64], choice: &mut [u32]) {
        let len = cost.len();
        if self.threads <= 1 || len <= self.chunk {
            let mut chunk_span = span::span_with_parent("dp", "dp.chunk", self.span_parent);
            let evaluated = ctx.run_chunk(0, cost, choice);
            chunk_span.attr("start", 0);
            chunk_span.attr("len", len);
            chunk_span.attr("evaluated", evaluated);
            self.stats.cells.add(evaluated as u64);
            self.stats.prune_hits.add((len - evaluated) as u64);
            return;
        }
        let jobs: Vec<(usize, &mut [f64], &mut [u32])> = cost
            .chunks_mut(self.chunk)
            .zip(choice.chunks_mut(self.chunk))
            .enumerate()
            .map(|(k, (c, ch))| (k * self.chunk, c, ch))
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
                                    span::span_with_parent("dp", "dp.chunk", self.span_parent);
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
struct ColumnCtx<'a> {
    kernel: Kernel,
    comm: &'a [f64],
    comp: &'a [f64],
    prev: &'a [f64],
    /// Largest `d` of the previous column with an in-bound value
    /// (`n` when unpruned).
    prev_valid: usize,
    /// Largest `e` with `Tcomm(i, e) <= bound` (`n` when unpruned).
    cap: usize,
    bound: Option<f64>,
}

impl ColumnCtx<'_> {
    #[inline]
    fn cell(&self, d: usize) -> (f64, u32) {
        match self.kernel {
            Kernel::Basic => dp_kernel::basic_cell(self.comm, self.comp, self.prev, d),
            // The D&C kernel computes whole chunks, not lone cells; a
            // single cell (the top column) goes through Algorithm 2's
            // cell, which is bit-identical.
            Kernel::Optimized | Kernel::Dc => {
                let lo = d.saturating_sub(self.prev_valid);
                let lim = d.min(self.cap);
                if lo > lim {
                    // No candidate has both Tcomm and suffix in bound:
                    // the true value exceeds the bound.
                    return (f64::INFINITY, 0);
                }
                dp_kernel::optimized_cell(self.comm, self.comp, self.prev, d, lo, lim)
            }
        }
    }

    /// Fills one chunk, returning how many cells it actually evaluated.
    ///
    /// The D&C kernel hands the whole chunk to [`dp_kernel::dc_chunk`]
    /// (it never runs pruned). The per-cell kernels fill ascending; with
    /// a pruning bound the chunk stops at its first out-of-bound cell
    /// (column values are non-decreasing in `d`, so everything after it
    /// is out of bound too), and the remaining cells are written `+inf`.
    fn run_chunk(&self, start: usize, cost: &mut [f64], choice: &mut [u32]) -> usize {
        if self.kernel == Kernel::Dc {
            debug_assert!(self.bound.is_none(), "the D&C kernel never runs pruned");
            dp_kernel::dc_chunk(self.comm, self.comp, self.prev, start, cost, choice);
            return cost.len();
        }
        for k in 0..cost.len() {
            let (v, e) = self.cell(start + k);
            cost[k] = v;
            choice[k] = e;
            if self.bound.is_some_and(|b| v > b) {
                // Zero-allocated plane: the early-stopped remainder of
                // the chunk must read as out-of-bound.
                for slot in &mut cost[k + 1..] {
                    *slot = f64::INFINITY;
                }
                return k + 1;
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
        let ps = vec![
            Processor::linear("a", 1.0, 1.0),
            Processor::linear("root", 0.0, 1.0),
        ];
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
        let ps = vec![
            Processor::linear("far", 1000.0, 0.001),
            Processor::linear("root", 0.0, 1.0),
        ];
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
        assert!(matches!(
            serial_solve(Basic, &view(&ps), 5),
            Err(PlanError::InvalidCost { .. })
        ));
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
        let ps = vec![
            Processor::linear("a", 0.5, 2.0),
            Processor::linear("root", 0.0, 3.0),
        ];
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
            Processor::custom(
                "sneaky",
                |x| if x == 37 { 0.0 } else { x as f64 },
                |x| x as f64,
            ),
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

    #[test]
    fn prune_without_affine_costs_degrades_gracefully() {
        // Tabulated costs have no analytic bound seed: the solve must
        // silently run unpruned and still be exact.
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
    fn dc_ignores_prune_and_stays_exact() {
        let (sub, order) = table1_view(16);
        let v = sub.ordered(&order);
        let n = 2500;
        let serial = serial_solve(Optimized, &v, n).unwrap();
        let table = CostTable::new();
        let opts = ParallelOpts { threads: 3, prune: true, chunk: 128 };
        let (dc, timing) = solve(Dc, &table, &v, n, &opts).unwrap();
        assert_bit_identical(&dc, &serial, "dc pruned-requested");
        assert!(!timing.pruned, "the D&C kernel never prunes");
        assert_eq!(timing.strategy, "exact-dc");
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
    fn warm_start_matches_cold_solve_bit_for_bit() {
        let (sub, order) = table1_view(8);
        let v = sub.ordered(&order);
        let table = CostTable::new();
        let opts = ParallelOpts::serial();
        // Cold solve over the full platform keeps its plane.
        let (_, _, plane) = solve_full(Optimized, &table, &v, 3000, &opts, None).unwrap();
        // "Fail" the first two processors: the survivors are exactly the
        // trailing 6, so their 5 trailing columns (all but the top) can
        // be reused for any residual <= 3000.
        let survivors: Vec<&Processor> = v[2..].to_vec();
        for residual in [0usize, 1, 700, 2999] {
            let cold = solve_full(Optimized, &table, &survivors, residual, &opts, None)
                .unwrap();
            let warm_src = WarmStart { plane: &plane, reuse: survivors.len() - 1 };
            let warm =
                solve_full(Optimized, &table, &survivors, residual, &opts, Some(&warm_src))
                    .unwrap();
            assert_bit_identical(&warm.0, &cold.0, &format!("warm residual={residual}"));
            // The warm plane must itself be a valid cache source.
            let again = WarmStart { plane: &warm.2, reuse: survivors.len() - 1 };
            let rewarm =
                solve_full(Optimized, &table, &survivors, residual, &opts, Some(&again))
                    .unwrap();
            assert_bit_identical(&rewarm.0, &cold.0, &format!("rewarm residual={residual}"));
        }
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
        let opts = ParallelOpts::serial();
        let (_, _, plane) = solve_full(Dc, &table, &v, 2000, &opts, None).unwrap();
        let survivors: Vec<&Processor> = v[3..].to_vec();
        let residual = 1500usize;
        let before = Registry::global().snapshot();
        let warm_src = WarmStart { plane: &plane, reuse: survivors.len() - 1 };
        solve_full(Dc, &table, &survivors, residual, &opts, Some(&warm_src)).unwrap();
        let after = Registry::global().snapshot();
        // Only the top cell is computed: every middle + base column was
        // copied. The cells counter may move from concurrent tests, but
        // the warm counters are ticked exactly once here.
        assert!(
            get(&after, "dp_warm_solves_total") > get(&before, "dp_warm_solves_total"),
            "warm solve must tick dp_warm_solves_total"
        );
        assert!(
            get(&after, "dp_warm_columns_reused_total")
                >= get(&before, "dp_warm_columns_reused_total") + (survivors.len() - 1) as u64,
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
        assert!(timing.tabulate_secs >= 0.0);
        assert!(timing.cache_misses > 0, "first solve must tabulate");
        // Re-solving through the same table is all hits.
        let (_, timing2) = solve(Optimized, &table, &v, 800, &opts).unwrap();
        assert_eq!(timing2.cache_misses, 0);
        assert!(timing2.cache_hits > 0);
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
