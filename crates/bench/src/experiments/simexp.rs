//! Million-rank simulation capacity sweep (`sim_scale` binary): times
//! the classic engine — a binary heap of boxed closures — against the
//! prefix-sum fast path ([`gs_gridsim::simulate_star`]) on the deterministic synthetic star
//! of docs/simulation.md, then executes one plan on the pooled
//! gs-minimpi runtime and diffs the virtual clocks bit-for-bit.
//!
//! Deterministic fields (event counts, makespans, the
//! classic/fast and simulated/executed agreement booleans) feed the
//! `bench_gate` smoke baseline (`BENCH_sim.smoke.json`); wall-clock
//! fields (seconds, events/sec, speedup, peak RSS) are recorded in the
//! committed full `BENCH_sim.json`, where `check_sim_perf` holds the
//! fast path to its >= 10x events/sec contract at p >= 10^4.

use std::time::Instant;

use gs_gridsim::sim::{simulate_scatter_on, SimConfig};
use gs_gridsim::{proportional_counts, simulate_star, synthetic_star, Engine};
use gs_minimpi::{run_world_pooled, TimeModel, WorldConfig};
use gs_scatter::cost::{CostFn, Processor};
use gs_scatter::obs::json::Json;

/// Sizing knobs for one capacity sweep.
#[derive(Debug, Clone)]
pub struct SimScaleConfig {
    /// Rank counts to sweep (root included).
    pub ps: Vec<usize>,
    /// Scattered items per rank (total items = `p * items_per_rank`).
    pub items_per_rank: u64,
    /// Largest `p` the classic engine is timed at (the fast path runs
    /// at every `p`; cap the classic baseline when sweep wall-time
    /// matters more than baseline coverage).
    pub classic_max_ranks: usize,
    /// World size of the pooled-execution check (`0` = skip).
    pub pool_ranks: usize,
    /// Worker threads of the pooled-execution check.
    pub pool_threads: usize,
}

impl SimScaleConfig {
    /// The full-size sweep behind the committed `BENCH_sim.json`:
    /// 10^3..10^7 ranks, classic baseline at every size, pooled
    /// execution of the 10^4-rank plan. The 10^7 row is where the 10x
    /// fast-path contract is measured: the classic engine's
    /// working set (boxed closures, `Rc` state, named processors, the
    /// recorded trace) is gigabytes there and every event misses cache,
    /// while the fast path stays flat at ~18 ns/event.
    pub fn full() -> SimScaleConfig {
        SimScaleConfig {
            ps: vec![1_000, 10_000, 100_000, 1_000_000, 10_000_000],
            items_per_rank: 10,
            classic_max_ranks: 10_000_000,
            pool_ranks: 10_000,
            pool_threads: 8,
        }
    }

    /// The CI-sized run behind `BENCH_sim.smoke.json`.
    pub fn smoke() -> SimScaleConfig {
        SimScaleConfig {
            ps: vec![1_000, 10_000],
            items_per_rank: 10,
            classic_max_ranks: 10_000,
            pool_ranks: 1_000,
            pool_threads: 4,
        }
    }
}

/// One `p` point of the sweep. Wall-clock fields are machine-dependent;
/// everything else is deterministic.
#[derive(Debug, Clone)]
pub struct SimScaleRow {
    /// Ranks simulated (root included).
    pub p: usize,
    /// Items scattered.
    pub items: u64,
    /// Simulator events processed (4 per rank).
    pub events: u64,
    /// Simulated makespan, seconds of virtual time.
    pub makespan: f64,
    /// Classic engine agreed with the fast path bit-for-bit (`true`
    /// whenever the classic engine ran, i.e. `classic_secs > 0`).
    pub identical: bool,
    /// Classic engine (binary heap of boxed closures) wall seconds
    /// (0 = not run at this p).
    pub classic_secs: f64,
    /// Prefix-sum fast-path wall seconds.
    pub fast_secs: f64,
    /// Classic engine throughput, events per wall second (0 = not run).
    pub classic_events_per_sec: f64,
    /// Fast-path throughput, events per wall second.
    pub fast_events_per_sec: f64,
    /// `classic_secs / fast_secs` (0 = classic not run).
    pub speedup: f64,
    /// Process peak RSS (`VmHWM`) right after this row's fast-path run
    /// (before the classic baseline, whose Rc cells would mask it),
    /// bytes; 0 when `/proc/self/status` is unavailable. Monotone
    /// across rows.
    pub peak_rss_bytes: u64,
}

/// A full sweep's results.
#[derive(Debug, Clone)]
pub struct SimScaleReport {
    /// Items per rank of every row.
    pub items_per_rank: u64,
    /// One row per swept `p`.
    pub rows: Vec<SimScaleRow>,
    /// World size of the pooled-execution check (0 = skipped).
    pub pool_ranks: usize,
    /// Worker threads of the pooled-execution check.
    pub pool_threads: usize,
    /// Pooled virtual clocks matched the simulated finish times
    /// bit-for-bit.
    pub pool_identical: bool,
    /// Pooled execution wall seconds.
    pub pool_secs: f64,
}

/// Reads the process peak RSS (`VmHWM`) in bytes, 0 when unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Measures one sweep point: fast path always, classic engine when
/// `classic` is set. Timings are sensitive to allocator state left by
/// earlier large runs in the same process — the `sim_scale` binary
/// therefore measures each full-size row in a fresh subprocess (see
/// [`sim_row_json`]); in-process sweeps ([`sim_scale`]) are for
/// CI-sized smoke runs where only deterministic fields matter.
pub fn sim_scale_row(p: usize, items_per_rank: u64, classic: bool) -> SimScaleRow {
    let items = p as u64 * items_per_rank;
    let (beta, alpha) = synthetic_star(p);
    let counts = proportional_counts(&alpha, items);
    let comm: Vec<f64> = beta.iter().zip(&counts).map(|(b, &c)| b * c as f64).collect();
    let work: Vec<f64> = alpha.iter().zip(&counts).map(|(a, &c)| a * c as f64).collect();

    let t = Instant::now();
    let fast = simulate_star(&comm, &work, false);
    let fast_secs = t.elapsed().as_secs_f64();
    // Snapshot before the classic run: VmHWM is a process-wide high
    // water mark, and the classic engine's Rc cells and name strings
    // would otherwise mask the fast path's footprint.
    let rss = peak_rss_bytes();

    let (classic_secs, identical) = if classic {
        let procs: Vec<Processor> = beta
            .iter()
            .zip(&alpha)
            .enumerate()
            .map(|(i, (&b, &a))| Processor::linear(format!("w{i}"), b, a))
            .collect();
        let view: Vec<&Processor> = procs.iter().collect();
        let counts_usize: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
        let t = Instant::now();
        let classic =
            simulate_scatter_on(&view, &counts_usize, &SimConfig::ideal(), Engine::new());
        let secs = t.elapsed().as_secs_f64();
        let same = classic.makespan.to_bits() == fast.makespan.to_bits()
            && classic.timeline == fast.timeline;
        (secs, same)
    } else {
        (0.0, true)
    };

    let events = fast.events_processed;
    let per_sec = |secs: f64| {
        if secs > 0.0 { events as f64 / secs } else { 0.0 }
    };
    SimScaleRow {
        p,
        items,
        events,
        makespan: fast.makespan,
        identical,
        classic_secs,
        fast_secs,
        classic_events_per_sec: per_sec(classic_secs),
        fast_events_per_sec: per_sec(fast_secs),
        speedup: if classic_secs > 0.0 { classic_secs / fast_secs.max(1e-12) } else { 0.0 },
        peak_rss_bytes: rss,
    }
}

/// Runs the capacity sweep in-process.
pub fn sim_scale(cfg: &SimScaleConfig) -> SimScaleReport {
    let mut rows = Vec::with_capacity(cfg.ps.len());
    for &p in &cfg.ps {
        rows.push(sim_scale_row(p, cfg.items_per_rank, p <= cfg.classic_max_ranks));
    }

    let (pool_identical, pool_secs) = if cfg.pool_ranks > 0 {
        pooled_check(cfg.pool_ranks, cfg.pool_threads, cfg.items_per_rank)
    } else {
        (true, 0.0)
    };
    SimScaleReport {
        items_per_rank: cfg.items_per_rank,
        rows,
        pool_ranks: cfg.pool_ranks,
        pool_threads: cfg.pool_threads,
        pool_identical,
        pool_secs,
    }
}

/// Executes the synthetic-star plan at `p` ranks on the pooled runtime
/// and compares every rank's virtual clock against the simulated finish
/// time. Returns `(bit_identical, wall_secs)`.
fn pooled_check(p: usize, threads: usize, items_per_rank: u64) -> (bool, f64) {
    let items = p as u64 * items_per_rank;
    let (beta, alpha) = synthetic_star(p);
    let counts = proportional_counts(&alpha, items);
    let comm: Vec<f64> = beta.iter().zip(&counts).map(|(b, &c)| b * c as f64).collect();
    let work: Vec<f64> = alpha.iter().zip(&counts).map(|(a, &c)| a * c as f64).collect();
    let sim = simulate_star(&comm, &work, false);

    // One item = one byte (u8 payloads), so the per-byte link slopes are
    // exactly the per-item betas and the executed clocks reproduce the
    // simulation bit for bit (docs/simulation.md).
    let model = TimeModel {
        link: beta.iter().map(|&b| CostFn::Linear { slope: b }).collect(),
        compute: alpha.iter().map(|&a| CostFn::Linear { slope: a }).collect(),
    };
    let counts_usize: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
    let root = p - 1;
    let data: Vec<u8> = vec![0u8; items as usize];
    let t = Instant::now();
    let clocks = run_world_pooled(p, threads, root, WorldConfig::with_time(model), |comm| {
        let sendbuf = if comm.rank() == root { Some(&data[..]) } else { None };
        let mine = comm.scatterv(root, sendbuf, &counts_usize);
        comm.model_compute(mine.len());
        comm.now()
    });
    let secs = t.elapsed().as_secs_f64();
    let identical = clocks.len() == sim.timeline.finish.len()
        && clocks.iter().zip(&sim.timeline.finish).all(|(c, f)| c.to_bits() == f.to_bits());
    (identical, secs)
}

/// Renders a report as the `BENCH_sim[.smoke].json` document.
pub fn sim_scale_json(r: &SimScaleReport) -> String {
    let mut out = String::from("{\n  \"bench\": \"sim_scale\",\n  \"schema\": 1,\n");
    out.push_str(&format!("  \"items_per_rank\": {},\n", r.items_per_rank));
    out.push_str(&format!(
        "  \"pool_ranks\": {},\n  \"pool_threads\": {},\n  \"pool_identical\": {},\n  \
         \"pool_secs\": {:.3},\n",
        r.pool_ranks, r.pool_threads, r.pool_identical, r.pool_secs
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&sim_row_json(row));
        out.push_str(if i + 1 < r.rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders one row as a single-line JSON object — the element format of
/// `sim_scale_json` and the wire format the `sim_scale` binary uses to
/// report a row measured in a fresh subprocess.
pub fn sim_row_json(row: &SimScaleRow) -> String {
    format!(
        "{{\"p\": {}, \"items\": {}, \"events\": {}, \
         \"makespan\": {:.9}, \"identical\": {}, \"classic_secs\": {:.4}, \
         \"fast_secs\": {:.4}, \"classic_events_per_sec\": {:.0}, \
         \"fast_events_per_sec\": {:.0}, \"speedup\": {:.2}, \"peak_rss_bytes\": {}}}",
        row.p,
        row.items,
        row.events,
        row.makespan,
        row.identical,
        row.classic_secs,
        row.fast_secs,
        row.classic_events_per_sec,
        row.fast_events_per_sec,
        row.speedup,
        row.peak_rss_bytes,
    )
}

/// Parses a [`sim_row_json`] line back into a row.
pub fn sim_row_from_json(text: &str) -> Result<SimScaleRow, String> {
    let doc = gs_scatter::obs::json::parse(text).map_err(|e| format!("row json: {e:?}"))?;
    let u = |k: &str| doc.get(k).and_then(Json::as_u64).ok_or_else(|| format!("row lacks `{k}`"));
    let f = |k: &str| doc.get(k).and_then(Json::as_f64).ok_or_else(|| format!("row lacks `{k}`"));
    let identical = match doc.get("identical") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("row lacks boolean `identical`".into()),
    };
    Ok(SimScaleRow {
        p: u("p")? as usize,
        items: u("items")?,
        events: u("events")?,
        makespan: f("makespan")?,
        identical,
        classic_secs: f("classic_secs")?,
        fast_secs: f("fast_secs")?,
        classic_events_per_sec: f("classic_events_per_sec")?,
        fast_events_per_sec: f("fast_events_per_sec")?,
        speedup: f("speedup")?,
        peak_rss_bytes: u("peak_rss_bytes")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimScaleConfig {
        SimScaleConfig {
            ps: vec![50, 500],
            items_per_rank: 10,
            classic_max_ranks: 500,
            pool_ranks: 50,
            pool_threads: 4,
        }
    }

    #[test]
    fn sweep_rows_are_identical_and_deterministic() {
        let a = sim_scale(&tiny());
        let b = sim_scale(&tiny());
        assert_eq!(a.rows.len(), 2);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert!(ra.identical, "classic and fast engines diverged at p={}", ra.p);
            assert_eq!(ra.events, 4 * ra.p as u64);
            assert_eq!(ra.makespan.to_bits(), rb.makespan.to_bits());
            assert!(ra.fast_secs > 0.0);
            assert!(ra.classic_secs > 0.0);
        }
        assert!(a.pool_identical, "pooled execution diverged from the simulation");
        assert!(a.pool_secs > 0.0);
    }

    #[test]
    fn classic_engine_skips_past_its_cap() {
        let mut cfg = tiny();
        cfg.classic_max_ranks = 100;
        cfg.pool_ranks = 0;
        let r = sim_scale(&cfg);
        assert!(r.rows[0].classic_secs > 0.0);
        assert_eq!(r.rows[1].classic_secs, 0.0);
        assert_eq!(r.rows[1].speedup, 0.0);
        assert!(r.rows[1].identical, "skipped rows default to agreeing");
        assert_eq!(r.pool_secs, 0.0);
    }

    #[test]
    fn report_json_parses_back() {
        let r = sim_scale(&SimScaleConfig {
            ps: vec![50],
            items_per_rank: 10,
            classic_max_ranks: 50,
            pool_ranks: 0,
            pool_threads: 1,
        });
        let doc = gs_scatter::obs::json::parse(&sim_scale_json(&r)).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("sim_scale"));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("events").unwrap().as_u64(), Some(200));
    }

    #[test]
    fn row_json_round_trips() {
        let row = sim_scale_row(50, 10, true);
        let back = sim_row_from_json(&sim_row_json(&row)).unwrap();
        assert_eq!(back.p, row.p);
        assert_eq!(back.events, row.events);
        assert_eq!(back.identical, row.identical);
        assert_eq!(back.peak_rss_bytes, row.peak_rss_bytes);
        assert!((back.makespan - row.makespan).abs() < 1e-9);
        assert!(sim_row_from_json("{\"p\": 1}").is_err());
    }

    #[test]
    fn rss_reader_reports_something_on_linux() {
        // On Linux VmHWM is always present; elsewhere the reader must
        // degrade to 0 rather than panic.
        let _ = peak_rss_bytes();
    }
}
