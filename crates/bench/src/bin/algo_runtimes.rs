//! §5.2 solver-runtime comparison (Algorithm 1 vs 2 vs heuristic), plus
//! the machine-readable engine perf trajectory (`BENCH_dp.json`):
//! serial vs parallel vs pruned Algorithm 2 across `(n, p)` points, and
//! cold banded plans at the paper's scale (`paper_scale`) and at
//! n = 10⁷ and 10⁹ (`paper_scale.large`), so the planning-cost story is
//! comparable PR-over-PR.
//!
//! Flags: `--basic-cap N` (Algorithm-1 size cap), `--max-n N`,
//! `--threads T` (parallel variants), `--json PATH` (trajectory output,
//! default `BENCH_dp.json`), `--smoke` (tiny sizes for CI).
use gs_bench::experiments::runtimes::{
    algo_runtimes, dp_band_row, dp_large_band_row, dp_perf_json, dp_perf_trajectory,
    extrapolate_quadratic,
};
use gs_bench::util::{arg_flag, arg_str, arg_usize, fmt_secs};
use gs_scatter::paper::N_RAYS_1999;

fn main() {
    let smoke = arg_flag("--smoke");
    let cap = arg_usize("--basic-cap", if smoke { 2_000 } else { 20_000 });
    let max_n = arg_usize("--max-n", if smoke { 5_000 } else { 100_000 });
    let threads = arg_usize("--threads", 4);
    let json_path = arg_str("--json", "BENCH_dp.json");
    // Cold exact plans of Table 1 far past the size a full plane holds,
    // first: the process's peak RSS after them bounds what they needed.
    // They take milliseconds, so the smoke run keeps the full sizes.
    println!("banded exact plans, Table 1, p = 16 (cold, serial, through Planner):");
    let large: Vec<_> = [10_000_000usize, 1_000_000_000].map(dp_large_band_row).into();
    for r in &large {
        println!(
            "  n = {:>13}: Algorithm 2 {}, D&C {}; {} cells, plane {} B, peak RSS {} B; \
             exact ≡ exact-dc: {}; rational {} <= exact {} <= rounded {}: {}",
            r.n,
            fmt_secs(r.exact_secs),
            fmt_secs(r.dc_secs),
            r.band_cells,
            r.band_plane_bytes,
            r.peak_rss_bytes,
            r.identical,
            r.rational_makespan,
            r.makespan,
            r.closed_form_makespan,
            r.within_closed_form(),
        );
        assert!(r.identical, "exact and exact-dc diverged at n={}", r.n);
        assert!(r.within_closed_form(), "the exact plan left the closed-form bounds at n={}", r.n);
        assert_eq!(r.band_fallbacks, 0, "a banded plan fell back to the full plane");
    }

    let mut ns = vec![1_000usize, 5_000, 20_000, 50_000, 100_000];
    ns.retain(|&n| n <= max_n);
    println!("solver runtimes on the Table-1 platform (p = 16), release-build recommended");
    println!("{:>9} {:>14} {:>14} {:>14} {:>14}", "n", "Algorithm 1", "Algorithm 2", "heuristic", "closed form");
    let rows = algo_runtimes(&ns, cap);
    for r in &rows {
        println!(
            "{:>9} {:>14} {:>14} {:>14} {:>14}",
            r.n,
            r.basic.map_or("(skipped)".into(), fmt_secs),
            fmt_secs(r.optimized),
            fmt_secs(r.heuristic),
            fmt_secs(r.closed_form),
        );
    }
    if let Some(est) = extrapolate_quadratic(&rows, N_RAYS_1999) {
        println!(
            "\nAlgorithm 1 extrapolated to n = {N_RAYS_1999}: ~{} (paper: interrupted after 2 days)",
            fmt_secs(est)
        );
    }
    println!("paper reported at n = {N_RAYS_1999}: Alg. 1 > 2 days, Alg. 2 = 6 min (PIII/933), heuristic instantaneous");

    // Engine perf trajectory: serial vs parallel vs pruned Algorithm 2
    // vs the divide-and-conquer kernel. The (100 000, 64) point runs on
    // the synthetic affine platform (Table 1 stops at p = 16) and feeds
    // the bench gate's D&C speedup contract.
    let cases: &[(usize, usize)] = if smoke {
        &[(2_000, 4), (2_000, 16)]
    } else {
        &[(10_000, 4), (10_000, 16), (100_000, 4), (100_000, 16), (100_000, 64)]
    };
    println!("\nAlgorithm-2 engine variants ({threads} threads for parallel):");
    println!(
        "{:>9} {:>4} {:>12} {:>12} {:>12} {:>14} {:>12} {:>10}",
        "n", "p", "serial", "parallel", "pruned", "par+pruned", "dc", "identical"
    );
    let perf = dp_perf_trajectory(cases, threads);
    for r in &perf {
        println!(
            "{:>9} {:>4} {:>12} {:>12} {:>12} {:>14} {:>12} {:>10}",
            r.n,
            r.p,
            fmt_secs(r.serial_secs),
            fmt_secs(r.parallel_secs),
            fmt_secs(r.pruned_secs),
            fmt_secs(r.parallel_pruned_secs),
            fmt_secs(r.dc_secs),
            r.identical,
        );
        assert!(r.identical, "engine variants diverged at n={} p={}", r.n, r.p);
    }

    // Cold banded plans through `Planner` at the paper's scale, checked
    // against one full-plane D&C plan.
    let band_n = if smoke { 20_000 } else { N_RAYS_1999 };
    let band = dp_band_row(band_n, 16);
    println!("\nbanded exact plans, Table 1, n = {band_n}, p = 16 (cold, through Planner):");
    println!(
        "  Algorithm 2: {} (1 thread), {} (2 threads); D&C: {} (1 thread), {} (2 threads)",
        fmt_secs(band.exact_secs),
        fmt_secs(band.exact_2t_secs),
        fmt_secs(band.dc_secs),
        fmt_secs(band.dc_2t_secs),
    );
    println!(
        "  full-plane D&C reference: {}; plane {} B banded vs {} B full; identical: {}",
        fmt_secs(band.full_dc_secs),
        band.band_plane_bytes,
        band.full_plane_bytes,
        band.identical,
    );
    assert!(band.identical, "banded plans diverged from the full plane at n={band_n}");
    assert_eq!(band.band_fallbacks, 0, "a banded plan fell back to the full plane");
    let json = dp_perf_json(&perf, threads, Some((&band, &large)));
    std::fs::write(&json_path, &json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!("\nperf trajectory written to {json_path}");
}
