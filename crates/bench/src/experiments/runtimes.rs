//! §5.2 algorithm-cost comparison: Algorithm 1 vs Algorithm 2 vs the LP
//! heuristic (paper: > 2 days vs 6 minutes vs "instantaneous" at
//! n = 817,101), and the heuristic's relative error (< 6·10⁻⁶).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gs_scatter::closed_form::closed_form_distribution;
use gs_scatter::cost::{Platform, Processor};
use gs_scatter::cost_table::CostTable;
use gs_scatter::heuristic::heuristic_distribution;
use gs_scatter::ordering::{scatter_order, OrderPolicy};
use gs_scatter::obs::span;
use gs_scatter::paper::table1_platform;
use gs_scatter::parallel::{solve, Kernel, ParallelOpts};
use gs_scatter::planner::{Plan, Planner, Strategy};

/// Measured solver runtimes at one problem size.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    /// Problem size (items).
    pub n: usize,
    /// Algorithm 1 wall time, seconds (`None` above the cap — it is
    /// quadratic and the paper itself gave up after two days).
    pub basic: Option<f64>,
    /// Algorithm 2 wall time, seconds.
    pub optimized: f64,
    /// LP heuristic wall time, seconds.
    pub heuristic: f64,
    /// Closed-form wall time, seconds.
    pub closed_form: f64,
}

/// Times the four solvers on the Table-1 platform over a size sweep.
/// `basic_cap` bounds the sizes at which the quadratic Algorithm 1 runs.
pub fn algo_runtimes(ns: &[usize], basic_cap: usize) -> Vec<RuntimeRow> {
    let platform = table1_platform();
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    // One cost table for the whole sweep: each cost function is tabulated
    // once at the largest size instead of once per (solver, n) pair.
    let table = CostTable::new();
    ns.iter()
        .map(|&n| {
            let basic = (n <= basic_cap).then(|| {
                let t = Instant::now();
                let (s, _) =
                    solve(Kernel::Basic, &table, &view, n, &ParallelOpts::serial()).unwrap();
                assert_eq!(s.counts.iter().sum::<usize>(), n);
                t.elapsed().as_secs_f64()
            });
            let t = Instant::now();
            let (s, _) =
                solve(Kernel::Optimized, &table, &view, n, &ParallelOpts::serial()).unwrap();
            assert_eq!(s.counts.iter().sum::<usize>(), n);
            let optimized = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let h = heuristic_distribution(&view, n).unwrap();
            assert_eq!(h.counts.iter().sum::<usize>(), n);
            let heuristic = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let c = closed_form_distribution(&view, n).unwrap();
            assert_eq!(c.counts.iter().sum::<usize>(), n);
            let closed_form = t.elapsed().as_secs_f64();

            RuntimeRow { n, basic, optimized, heuristic, closed_form }
        })
        .collect()
}

/// Quadratic extrapolation of Algorithm 1's cost to a target size, from
/// the largest measured point (the paper could only *bound* it: "more
/// than two days of work (we interrupted it before its completion)").
pub fn extrapolate_quadratic(rows: &[RuntimeRow], target_n: usize) -> Option<f64> {
    rows.iter()
        .rev()
        .find_map(|r| r.basic.map(|t| (r.n, t)))
        .map(|(n, t)| t * (target_n as f64 / n as f64).powi(2))
}

/// Heuristic-vs-optimal quality at one size.
#[derive(Debug, Clone)]
pub struct ErrorRow {
    /// Problem size.
    pub n: usize,
    /// Optimal integer makespan (Algorithm 2).
    pub optimal: f64,
    /// Heuristic makespan after rounding.
    pub heuristic: f64,
    /// `(heuristic − optimal) / optimal`.
    pub rel_error: f64,
    /// The Eq. (4) guarantee bound.
    pub bound: f64,
    /// Whether `heuristic <= bound` (must always hold).
    pub within_bound: bool,
}

/// Measures the §5.2 heuristic error across problem sizes.
pub fn heuristic_error(ns: &[usize]) -> Vec<ErrorRow> {
    let platform = table1_platform();
    let order = scatter_order(&platform, OrderPolicy::DescendingBandwidth);
    let view = platform.ordered(&order);
    let table = CostTable::new();
    ns.iter()
        .map(|&n| {
            let (exact, _) =
                solve(Kernel::Optimized, &table, &view, n, &ParallelOpts::serial()).unwrap();
            let h = heuristic_distribution(&view, n).unwrap();
            let rel_error = (h.makespan - exact.makespan) / exact.makespan;
            ErrorRow {
                n,
                optimal: exact.makespan,
                heuristic: h.makespan,
                rel_error,
                bound: h.guarantee_bound,
                within_bound: h.makespan <= h.guarantee_bound + 1e-9,
            }
        })
        .collect()
}

/// Wall times of the Algorithm-2 engine variants at one `(n, p)` point —
/// the machine-readable "perf trajectory" recorded in `BENCH_dp.json`
/// PR-over-PR.
#[derive(Debug, Clone)]
pub struct DpPerfRow {
    /// Problem size (items).
    pub n: usize,
    /// Processors (first `p` rows of Table 1, root first).
    pub p: usize,
    /// Serial engine (1 thread, no pruning) — the baseline.
    pub serial_secs: f64,
    /// Multi-threaded, no pruning.
    pub parallel_secs: f64,
    /// Serial with upper-bound pruning.
    pub pruned_secs: f64,
    /// Multi-threaded with pruning.
    pub parallel_pruned_secs: f64,
    /// Serial divide-and-conquer kernel (1 thread, no pruning).
    pub dc_secs: f64,
    /// Whether all variants returned bit-identical `(counts, makespan)`
    /// to the serial baseline (must always be `true`).
    pub identical: bool,
    /// The optimal makespan at this point.
    pub makespan: f64,
}

/// The platform a `(n, p)` perf point runs on: the first `p` rows of
/// Table 1 when they exist, else a deterministic synthetic
/// computation-dominated affine platform (the regime the paper's
/// seismic workload lives in, and where the DP cost is all in the
/// kernel's inner scan rather than the cost functions).
pub fn dp_perf_platform(p: usize) -> Platform {
    let full = table1_platform();
    if p <= full.len() {
        return Platform::new(full.procs()[..p].to_vec(), 0).expect("Table-1 prefix");
    }
    let procs = (0..p)
        .map(|i| {
            if i == 0 {
                // Root: no comm cost for its own share.
                return gs_scatter::cost::Processor::affine("root", 0.0, 0.0, 1e-3, 4e-3);
            }
            // Coefficients vary deterministically with the index so the
            // platform is heterogeneous but reproducible everywhere.
            // They are dyadic (sums of powers of two) and
            // compute-dominated (comm slopes ~2^-26, comp slopes ~2^-9):
            // dyadic values keep the rational arithmetic of exact
            // baselines compact, and a fast-LAN/slow-node regime is
            // where the paper's DP spends its time in the kernel proper
            // rather than in the downward scan both kernels share.
            let comm_i = 2f64.powi(-20) + (i % 7) as f64 * 2f64.powi(-22);
            let comm_s = 2f64.powi(-26) + (i % 5) as f64 * 2f64.powi(-28);
            let comp_i = 2f64.powi(-10) + (i % 3) as f64 * 2f64.powi(-11);
            let comp_s = 2f64.powi(-9) + (i % 13) as f64 * 2f64.powi(-12);
            gs_scatter::cost::Processor::affine(format!("s{i}"), comm_i, comm_s, comp_i, comp_s)
        })
        .collect();
    Platform::new(procs, 0).expect("synthetic platform")
}

/// A seeded random linear platform with decimal coefficients: `β` in
/// [1e-6, 5e-5] at 9 decimals and `α` in [1e-3, 2e-2] at 7 decimals,
/// root at index 0 with `β = 0`. Short decimals become 53-bit binary
/// fractions with no small common denominator, so the exact closed
/// form and heuristic carry rationals of thousands of bits at p = 128.
/// `gs calibrate` writes coefficients of this shape or longer.
pub fn decimal_platform(p: usize, seed: u64) -> Platform {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut decimal = |lo: f64, hi: f64, places: i32| {
        let scale = 10f64.powi(places);
        (rng.gen_range(lo..hi) * scale).round() / scale
    };
    let procs = (0..p)
        .map(|i| {
            let beta = decimal(1e-6, 5e-5, 9);
            let alpha = decimal(1e-3, 2e-2, 7);
            Processor::linear(format!("d{i}"), if i == 0 { 0.0 } else { beta }, alpha)
        })
        .collect();
    Platform::new(procs, 0).expect("decimal platform")
}

/// Repetitions of each timed DP variant: a committed time is their
/// median, so one slow spell of a shared host neither becomes the
/// committed figure nor flips the bench gate's D&C speedup ratio.
pub const DP_REPS: usize = 5;

/// Runs each of `variants` [`DP_REPS`] times through `run`, which returns
/// the seconds it timed with its output. The variants take turns, so a
/// slow spell hits all of them alike. Returns each variant's median
/// seconds with the outputs of all its runs.
fn median_runs<V: Copy, T>(
    variants: &[V],
    mut run: impl FnMut(V) -> (f64, T),
) -> Vec<(f64, Vec<T>)> {
    let mut runs: Vec<(Vec<f64>, Vec<T>)> = variants.iter().map(|_| (vec![], vec![])).collect();
    for _ in 0..DP_REPS {
        for (&v, (secs, outs)) in variants.iter().zip(&mut runs) {
            let (t, out) = run(v);
            secs.push(t);
            outs.push(out);
        }
    }
    runs.into_iter()
        .map(|(mut secs, outs)| {
            secs.sort_by(f64::total_cmp);
            (secs[DP_REPS / 2], outs)
        })
        .collect()
}

/// Times the engine variants on [`dp_perf_platform`] platforms, each as
/// the median of [`DP_REPS`] solves. `threads` is the worker count of
/// the parallel variants; tabulations are pre-warmed through a shared
/// [`CostTable`] so every full-plane variant times the solve, not the
/// setup (banded solves read no table).
pub fn dp_perf_trajectory(cases: &[(usize, usize)], threads: usize) -> Vec<DpPerfRow> {
    let table = CostTable::new();
    cases
        .iter()
        .map(|&(n, p)| {
            let sub = dp_perf_platform(p);
            let order = scatter_order(&sub, OrderPolicy::DescendingBandwidth);
            let view = sub.ordered(&order);
            // Warm the cache so all variants start from tabulated costs.
            for pr in &view {
                table.tabulate(&pr.comm, n);
                table.tabulate(&pr.comp, n);
            }
            // Serial, parallel, pruned, parallel + pruned Algorithm 2,
            // then the serial D&C kernel.
            let variants = [
                (Kernel::Optimized, 1, false),
                (Kernel::Optimized, threads, false),
                (Kernel::Optimized, 1, true),
                (Kernel::Optimized, threads, true),
                (Kernel::Dc, 1, false),
            ];
            let runs = median_runs(&variants, |(kernel, threads, prune)| {
                let opts = ParallelOpts { threads, prune, chunk: 0 };
                let t = Instant::now();
                let (sol, _) = solve(kernel, &table, &view, n, &opts).unwrap();
                (t.elapsed().as_secs_f64(), sol)
            });
            let base = &runs[0].1[0];
            let identical = runs.iter().flat_map(|(_, sols)| sols).all(|s| {
                s.counts == base.counts && s.makespan.to_bits() == base.makespan.to_bits()
            });
            DpPerfRow {
                n,
                p,
                serial_secs: runs[0].0,
                parallel_secs: runs[1].0,
                pruned_secs: runs[2].0,
                parallel_pruned_secs: runs[3].0,
                dc_secs: runs[4].0,
                identical,
                makespan: base.makespan,
            }
        })
        .collect()
}

/// Cold exact plans at one Table-1 point through [`Planner`]: the banded
/// default for Algorithm 2 and the D&C kernel at 1 and 2 threads, each
/// checked bit-identical against the full-plane (`prune(false)`) D&C
/// plan. "Cold" means no plan shares a cost table, as an uncached
/// `gs plan` does. Every time is the median of [`DP_REPS`] plans.
#[derive(Debug, Clone)]
pub struct BandRow {
    /// Problem size (items).
    pub n: usize,
    /// Processors (first `p` rows of Table 1).
    pub p: usize,
    /// Banded Algorithm 2, 1 thread, seconds.
    pub exact_secs: f64,
    /// Banded Algorithm 2, 2 threads, seconds.
    pub exact_2t_secs: f64,
    /// Banded D&C kernel, 1 thread, seconds.
    pub dc_secs: f64,
    /// Banded D&C kernel, 2 threads, seconds.
    pub dc_2t_secs: f64,
    /// The full-plane D&C reference, 1 thread, seconds.
    pub full_dc_secs: f64,
    /// Largest DP plane of the banded plans, bytes.
    pub band_plane_bytes: u64,
    /// DP plane of the full-plane reference, bytes.
    pub full_plane_bytes: u64,
    /// `dp_band_fallback_total` ticks over the banded plans (must be 0).
    pub band_fallbacks: u64,
    /// Whether every banded plan equals the reference bit for bit.
    pub identical: bool,
    /// The optimal makespan.
    pub makespan: f64,
}

/// Value of a global counter of the metrics registry.
fn counter(name: &str) -> u64 {
    let snap = gs_scatter::metrics::Registry::global().snapshot();
    snap.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

/// One timed plan of `n` items, with the DP plane's bytes from the
/// `plane_bytes` attribute of its `dp.solve` span (span tracing must be
/// on).
fn timed_plan(planner: &Planner, n: usize) -> (f64, Plan, u64) {
    let t = Instant::now();
    let plan = planner.plan(n).expect("Table-1 plan");
    let secs = t.elapsed().as_secs_f64();
    let bytes = span::take_local()
        .iter()
        .rev()
        .find(|s| s.name == "dp.solve")
        .and_then(|s| s.attrs.iter().find(|(k, _)| *k == "plane_bytes"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    (secs, plan, bytes)
}

/// Runs the [`BandRow`] plans at `(n, p)`.
pub fn dp_band_row(n: usize, p: usize) -> BandRow {
    let platform = dp_perf_platform(p);
    let was_tracing = span::enabled();
    span::set_enabled(true);
    span::take_local();
    let fallbacks = || counter("dp_band_fallback_total");
    let plan = |strategy: Strategy, threads: usize, prune: bool| {
        let planner = Planner::new(platform.clone()).strategy(strategy).threads(threads);
        timed_plan(&planner.prune(prune), n)
    };
    // The full-plane reference first, then the banded plans.
    let variants = [
        (Strategy::ExactDc, 1, false),
        (Strategy::Exact, 1, true),
        (Strategy::Exact, 2, true),
        (Strategy::ExactDc, 1, true),
        (Strategy::ExactDc, 2, true),
    ];
    let before = fallbacks();
    let runs = median_runs(&variants, |(strategy, threads, prune)| {
        let (secs, plan, bytes) = plan(strategy, threads, prune);
        (secs, (plan, bytes))
    });
    let band_fallbacks = fallbacks() - before;
    span::set_enabled(was_tracing);
    let (full_dc_secs, full) = &runs[0];
    let (reference, full_plane_bytes) = &full[0];
    let banded = || runs[1..].iter().flat_map(|(_, plans)| plans);
    let identical = banded().all(|(plan, _)| {
        plan.counts == reference.counts
            && plan.predicted_makespan.to_bits() == reference.predicted_makespan.to_bits()
            && plan.timing.pruned
    });
    BandRow {
        n,
        p,
        exact_secs: runs[1].0,
        exact_2t_secs: runs[2].0,
        dc_secs: runs[3].0,
        dc_2t_secs: runs[4].0,
        full_dc_secs: *full_dc_secs,
        band_plane_bytes: banded().map(|&(_, bytes)| bytes).max().unwrap_or(0),
        full_plane_bytes: *full_plane_bytes,
        band_fallbacks,
        identical,
        makespan: reference.predicted_makespan,
    }
}

/// Cold serial exact plans of Table 1 through [`Planner`] at a size
/// whose full plane does not fit in memory (16 columns of `n + 1` cells
/// at 12 bytes: 1.9 GB at n = 10⁷, 192 GB at 10⁹). With no full-plane
/// reference, the plans are checked against each other, bit for bit, and
/// against the closed form: the rational optimum of the relaxation is
/// below every integer plan, and the closed form's rounded plan is one,
/// so `rational <= exact <= rounded`. Every time is the median of
/// [`DP_REPS`] plans.
#[derive(Debug, Clone)]
pub struct LargeBandRow {
    /// Problem size (items).
    pub n: usize,
    /// Banded Algorithm 2, 1 thread, seconds.
    pub exact_secs: f64,
    /// Banded D&C kernel, 1 thread, seconds.
    pub dc_secs: f64,
    /// DP cells one plan evaluates (`dp_cells_evaluated_total`).
    pub band_cells: u64,
    /// Largest DP plane of the plans, bytes.
    pub band_plane_bytes: u64,
    /// `dp_band_fallback_total` ticks over the plans (must be 0).
    pub band_fallbacks: u64,
    /// Whether every plan of either kernel equals the first Algorithm-2
    /// plan bit for bit, and ran banded.
    pub identical: bool,
    /// The closed form's rational optimum, rounded to `f64`.
    pub rational_makespan: f64,
    /// The makespan of the closed form's rounded plan.
    pub closed_form_makespan: f64,
    /// The exact plans' makespan.
    pub makespan: f64,
    /// The process's peak resident set (`VmHWM`) right after the row's
    /// plans, bytes; 0 where unavailable.
    pub peak_rss_bytes: u64,
}

impl LargeBandRow {
    /// `rational <= exact <= rounded closed form`, up to a relative 10⁻⁹
    /// for the rational optimum's rounding to `f64`.
    pub fn within_closed_form(&self) -> bool {
        let tol = 1e-9 * self.makespan;
        self.rational_makespan <= self.makespan + tol
            && self.makespan <= self.closed_form_makespan + tol
    }
}

/// Runs the [`LargeBandRow`] plans at `n`. The process's peak RSS is read
/// afterwards, so it bounds what the plans needed only when nothing
/// larger ran before them.
pub fn dp_large_band_row(n: usize) -> LargeBandRow {
    let platform = table1_platform();
    let was_tracing = span::enabled();
    span::set_enabled(true);
    span::take_local();
    let (cells0, fallbacks0) =
        (counter("dp_cells_evaluated_total"), counter("dp_band_fallback_total"));
    let runs = median_runs(&[Strategy::Exact, Strategy::ExactDc], |strategy| {
        let (secs, plan, bytes) =
            timed_plan(&Planner::new(platform.clone()).strategy(strategy).threads(1), n);
        (secs, (plan, bytes))
    });
    let band_cells = (counter("dp_cells_evaluated_total") - cells0) / (2 * DP_REPS) as u64;
    let band_fallbacks = counter("dp_band_fallback_total") - fallbacks0;
    span::set_enabled(was_tracing);
    let plans = || runs.iter().flat_map(|(_, plans)| plans);
    let (reference, _) = &runs[0].1[0];
    let identical = plans().all(|(plan, _)| {
        plan.counts == reference.counts
            && plan.predicted_makespan.to_bits() == reference.predicted_makespan.to_bits()
            && plan.timing.pruned
    });
    let view = platform.ordered(&reference.order);
    let rational = closed_form_distribution(&view, n).expect("Table 1 is linear").duration;
    let rounded =
        Planner::new(platform).strategy(Strategy::ClosedForm).plan(n).expect("closed form");
    LargeBandRow {
        n,
        exact_secs: runs[0].0,
        dc_secs: runs[1].0,
        band_cells,
        band_plane_bytes: plans().map(|&(_, bytes)| bytes).max().unwrap_or(0),
        band_fallbacks,
        identical,
        rational_makespan: rational.to_f64(),
        closed_form_makespan: rounded.predicted_makespan,
        makespan: reference.predicted_makespan,
        peak_rss_bytes: super::simexp::peak_rss_bytes(),
    }
}

/// Renders a trajectory, plus the optional paper-scale [`BandRow`] and
/// its [`LargeBandRow`]s, as the `BENCH_dp.json` document (hand-rolled,
/// schema field for PR-over-PR comparability).
pub fn dp_perf_json(
    rows: &[DpPerfRow],
    threads: usize,
    band: Option<(&BandRow, &[LargeBandRow])>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"dp_perf\",\n  \"schema\": 1,\n");
    if let Some((b, large)) = band {
        out.push_str(&format!(
            "  \"paper_scale\": {{\"n\": {}, \"p\": {}, \"exact_secs\": {:.6}, \
             \"exact_2t_secs\": {:.6}, \"dc_secs\": {:.6}, \"dc_2t_secs\": {:.6}, \
             \"full_dc_secs\": {:.6}, \"band_plane_bytes\": {}, \"full_plane_bytes\": {}, \
             \"band_fallbacks\": {}, \"identical\": {}, \"makespan\": {}, \"large\": [",
            b.n,
            b.p,
            b.exact_secs,
            b.exact_2t_secs,
            b.dc_secs,
            b.dc_2t_secs,
            b.full_dc_secs,
            b.band_plane_bytes,
            b.full_plane_bytes,
            b.band_fallbacks,
            b.identical,
            b.makespan,
        ));
        for (i, r) in large.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"n\": {}, \"exact_secs\": {:.6}, \"dc_secs\": {:.6}, \
                 \"band_cells\": {}, \"band_plane_bytes\": {}, \"band_fallbacks\": {}, \
                 \"identical\": {}, \"rational_makespan\": {}, \"closed_form_makespan\": {}, \
                 \"within_closed_form\": {}, \"makespan\": {}, \"peak_rss_bytes\": {}}}{}",
                r.n,
                r.exact_secs,
                r.dc_secs,
                r.band_cells,
                r.band_plane_bytes,
                r.band_fallbacks,
                r.identical,
                r.rational_makespan,
                r.closed_form_makespan,
                r.within_closed_form(),
                r.makespan,
                r.peak_rss_bytes,
                if i + 1 < large.len() { "," } else { "" },
            ));
        }
        out.push_str("]},\n");
    }
    out.push_str(&format!("  \"threads\": {threads},\n  \"rows\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"p\": {}, \"serial_secs\": {:.6}, \"parallel_secs\": {:.6}, \
             \"pruned_secs\": {:.6}, \"parallel_pruned_secs\": {:.6}, \"dc_secs\": {:.6}, \
             \"parallel_speedup\": {:.3}, \"pruned_speedup\": {:.3}, \"dc_speedup\": {:.3}, \
             \"best_speedup\": {:.3}, \"identical\": {}, \"makespan\": {}}}{}\n",
            r.n,
            r.p,
            r.serial_secs,
            r.parallel_secs,
            r.pruned_secs,
            r.parallel_pruned_secs,
            r.dc_secs,
            r.serial_secs / r.parallel_secs.max(1e-12),
            r.serial_secs / r.pruned_secs.max(1e-12),
            r.serial_secs / r.dc_secs.max(1e-12),
            r.serial_secs
                / r.parallel_secs
                    .min(r.pruned_secs)
                    .min(r.parallel_pruned_secs)
                    .min(r.dc_secs)
                    .max(1e-12),
            r.identical,
            r.makespan,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_beats_basic_at_scale() {
        let rows = algo_runtimes(&[2000], 2000);
        let r = &rows[0];
        assert!(
            r.optimized < r.basic.unwrap(),
            "Algorithm 2 ({}) must beat Algorithm 1 ({})",
            r.optimized,
            r.basic.unwrap()
        );
    }

    #[test]
    fn basic_capped() {
        let rows = algo_runtimes(&[100, 500], 200);
        assert!(rows[0].basic.is_some());
        assert!(rows[1].basic.is_none());
    }

    #[test]
    fn extrapolation_is_quadratic() {
        let rows = vec![RuntimeRow {
            n: 1000,
            basic: Some(2.0),
            optimized: 0.1,
            heuristic: 0.01,
            closed_form: 0.001,
        }];
        assert_eq!(extrapolate_quadratic(&rows, 2000), Some(8.0));
        assert_eq!(extrapolate_quadratic(&[], 10), None);
    }

    #[test]
    fn perf_trajectory_is_exact_and_well_formed() {
        let rows = dp_perf_trajectory(&[(1500, 4), (1500, 8)], 2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.identical, "n={} p={}: variants must be bit-identical", r.n, r.p);
            assert!(r.serial_secs > 0.0 && r.parallel_secs > 0.0);
            assert!(r.makespan > 0.0);
        }
        let json = dp_perf_json(&rows, 2, None);
        assert!(json.contains("\"bench\": \"dp_perf\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"n\": 1500, \"p\": 8"));
        // Machine-readable: must parse back with the obs JSON parser.
        let doc = gs_scatter::obs::json::parse(&json).unwrap();
        assert_eq!(doc.get("threads").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("rows").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn band_row_is_exact_and_small() {
        let row = dp_band_row(20_000, 16);
        assert!(row.identical, "banded plans must equal the full-plane reference");
        assert_eq!(row.band_fallbacks, 0);
        assert!(row.band_plane_bytes > 0 && row.band_plane_bytes * 20 < row.full_plane_bytes);
        let large = dp_large_band_row(1_000_000);
        assert!(large.identical, "exact and exact-dc must agree bit for bit");
        assert_eq!(large.band_fallbacks, 0);
        assert!(large.within_closed_form(), "{large:?}");
        assert!(large.band_plane_bytes > 0 && large.band_cells > 0);
        let json = dp_perf_json(&[], 1, Some((&row, &[large.clone(), large])));
        let doc = gs_scatter::obs::json::parse(&json).unwrap();
        let band = doc.get("paper_scale").unwrap();
        assert_eq!(band.get("n").unwrap().as_u64(), Some(20_000));
        let rows = band.get("large").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("n").unwrap().as_u64(), Some(1_000_000));
        let within = rows[1].get("within_closed_form");
        assert_eq!(within, Some(&gs_scatter::obs::json::Json::Bool(true)));
    }

    #[test]
    fn heuristic_error_tiny_and_bounded() {
        let rows = heuristic_error(&[1000, 5000]);
        for r in rows {
            assert!(r.rel_error >= -1e-12, "cannot beat the optimum");
            // Eq. (4): the absolute gap is at most one item's comm on every
            // link plus one item's compute, so the relative error shrinks
            // like 1/n. At n = 1000 that is still ~1e-2 territory.
            assert!(r.rel_error < 1e-2, "n={}: rel error {}", r.n, r.rel_error);
            assert!(r.within_bound);
        }
    }

    #[test]
    fn error_shrinks_with_n() {
        let rows = heuristic_error(&[200, 20_000]);
        assert!(rows[1].rel_error <= rows[0].rel_error + 1e-9);
    }
}
