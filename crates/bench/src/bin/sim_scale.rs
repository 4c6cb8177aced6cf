//! Million-rank simulation capacity sweep: times the classic engine —
//! a binary heap of boxed closures — against the prefix-sum fast path
//! on the synthetic heterogeneous star (docs/simulation.md),
//! executes one plan on the pooled gs-minimpi runtime, and writes the
//! `BENCH_sim.json` document the docs and the bench gate reference.
//!
//! The full sweep measures **each row in a fresh subprocess** (the
//! binary re-execs itself with `--row P`): large rows leave the
//! allocator in a state that can distort a later row's timings by
//! several x, and a fresh process per point makes every number
//! reproducible in isolation. `--smoke` runs in-process — CI only
//! compares its deterministic fields.
//!
//! Flags: `--smoke` (CI sizing, writes `BENCH_sim.smoke.json`),
//! `--json PATH` (override the output path), `--items-per-rank N`,
//! `--pool-threads T`, `--in-process` (skip subprocess isolation),
//! `--row P` (internal: measure one row, print its JSON to stdout).

use gs_bench::experiments::simexp::{
    sim_row_from_json, sim_row_json, sim_scale, sim_scale_json, sim_scale_row, SimScaleConfig,
    SimScaleReport,
};
use gs_bench::util::{arg_flag, arg_str, arg_u64, arg_usize, fmt_secs, header};

fn main() {
    let smoke = arg_flag("--smoke");
    let mut cfg = if smoke { SimScaleConfig::smoke() } else { SimScaleConfig::full() };
    cfg.items_per_rank = arg_u64("--items-per-rank", cfg.items_per_rank);
    cfg.pool_threads = arg_usize("--pool-threads", cfg.pool_threads);

    if let Some(p) = arg_opt_usize("--row") {
        // Child mode: one clean-process measurement, row JSON on stdout.
        let row = sim_scale_row(p, cfg.items_per_rank, p <= cfg.classic_max_ranks);
        println!("{}", sim_row_json(&row));
        return;
    }

    let default_path = if smoke { "BENCH_sim.smoke.json" } else { "BENCH_sim.json" };
    let path = arg_str("--json", default_path);

    header("sim_scale: classic engine vs prefix-sum fast path");
    println!(
        "sweep p = {:?}, {} item(s)/rank, classic baseline up to p = {}, pooled \
         execution at p = {} on {} worker(s)",
        cfg.ps, cfg.items_per_rank, cfg.classic_max_ranks, cfg.pool_ranks, cfg.pool_threads
    );

    let r = if smoke || arg_flag("--in-process") {
        sim_scale(&cfg)
    } else {
        sweep_in_subprocesses(&cfg)
    };
    println!(
        "{:>9} {:>10} {:>9} {:>12} {:>12} {:>8} {:>10} {:>9}",
        "p", "events", "classic", "fast", "events/sec", "speedup", "identical", "rss"
    );
    for row in &r.rows {
        println!(
            "{:>9} {:>10} {:>9} {:>12} {:>12.0} {:>8} {:>10} {:>8}M",
            row.p,
            row.events,
            if row.classic_secs > 0.0 { fmt_secs(row.classic_secs) } else { "-".into() },
            fmt_secs(row.fast_secs),
            row.fast_events_per_sec,
            if row.speedup > 0.0 { format!("{:.1}x", row.speedup) } else { "-".into() },
            row.identical,
            row.peak_rss_bytes / (1024 * 1024),
        );
    }
    if r.pool_ranks > 0 {
        println!(
            "pooled execution: p = {} on {} worker(s) in {}, clocks identical = {}",
            r.pool_ranks,
            r.pool_threads,
            fmt_secs(r.pool_secs),
            r.pool_identical
        );
    }

    std::fs::write(&path, sim_scale_json(&r)).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Runs every row of `cfg` by re-exec'ing this binary with `--row P`,
/// so each point is measured in a fresh process. The pooled-execution
/// check runs in the parent (its workers are threads, not allocations).
fn sweep_in_subprocesses(cfg: &SimScaleConfig) -> SimScaleReport {
    let exe = std::env::current_exe().expect("current_exe");
    let mut rows = Vec::with_capacity(cfg.ps.len());
    for &p in &cfg.ps {
        let out = std::process::Command::new(&exe)
            .arg("--row")
            .arg(p.to_string())
            .arg("--items-per-rank")
            .arg(cfg.items_per_rank.to_string())
            .output()
            .unwrap_or_else(|e| panic!("spawn row p={p}: {e}"));
        assert!(
            out.status.success(),
            "row p={p} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let row = sim_row_from_json(text.trim()).unwrap_or_else(|e| panic!("row p={p}: {e}"));
        rows.push(row);
    }
    let mut report = sim_scale(&SimScaleConfig { ps: Vec::new(), ..cfg.clone() });
    report.rows = rows;
    report
}

/// `--flag N` as `Some(N)`, absent flag as `None`.
fn arg_opt_usize(flag: &str) -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next().and_then(|v| v.parse().ok());
        }
    }
    None
}
