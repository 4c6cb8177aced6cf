//! The bench regression gate (`bench_gate` binary): re-runs the
//! smoke-sized benchmarks and compares their **deterministic** fields
//! against baselines committed in the repository
//! (`BENCH_dp.smoke.json`, `BENCH_faults.smoke.json`,
//! `BENCH_serve.smoke.json`).
//!
//! Wall-clock fields (`*_secs`, speedups, `overhead_pct`) are
//! machine-dependent and never compared; what is compared is the model's
//! arithmetic — optimal makespans, variant agreement, lost-item and
//! incident counts — which must be bit-stable across machines. Float
//! fields are compared with a relative tolerance because the baselines
//! round to a fixed number of decimals.

use crate::experiments::faultexp::FaultSweepRow;
use crate::experiments::runtimes::DpPerfRow;
use crate::experiments::serveexp::ServeLoadReport;
use crate::experiments::simexp::SimScaleReport;
use gs_scatter::obs::json::Json;

/// The `(n, p)` points `algo_runtimes --smoke` times.
pub const SMOKE_DP_CASES: &[(usize, usize)] = &[(2_000, 4), (2_000, 16)];
/// The full-sweep `(n, p)` point the D&C speedup gate reads from the
/// committed `BENCH_dp.json`.
pub const DC_GATE_CASE: (usize, usize) = (100_000, 64);
/// Required serial-Algorithm-2-over-D&C speedup at [`DC_GATE_CASE`].
pub const DC_GATE_MIN_SPEEDUP: f64 = 3.0;
/// Items of the `fault_sweep --smoke` run.
pub const SMOKE_FAULT_ITEMS: usize = 2_000;
/// Seeds of the `fault_sweep --smoke` random fault mixes.
pub const SMOKE_FAULT_SEEDS: &[u64] = &[1999, 2000, 2001];
/// Warm throughput the committed full `BENCH_serve.json` must record
/// (plan requests per second on a cached platform).
pub const SERVE_GATE_MIN_RPS: f64 = 10_000.0;
/// Warm p50 latency bound the committed full `BENCH_serve.json` must
/// record (seconds) — the "sub-millisecond median" contract of
/// docs/serve.md.
pub const SERVE_GATE_MAX_P50: f64 = 1e-3;
/// Required fast-path-over-classic-engine events/sec speedup the
/// committed full `BENCH_sim.json` must record on at least one
/// classic-timed row with `p >= `[`SIM_GATE_MIN_RANKS`]
/// (docs/simulation.md). The classic engine's boxed-closure data path
/// only goes cache-miss bound at deep queues, so the margin lives at
/// the top of the sweep — the p = 10^6 row in the committed document.
pub const SIM_GATE_MIN_SPEEDUP: f64 = 10.0;
/// Smallest `p` eligible for the sim speedup gate (tiny worlds are
/// dominated by setup, not the event loop).
pub const SIM_GATE_MIN_RANKS: usize = 10_000;

/// `|a − b| ≤ tol·max(|b|, ε)` — relative closeness against baseline `b`.
fn rel_close(fresh: f64, baseline: f64, tol: f64) -> bool {
    (fresh - baseline).abs() <= tol * baseline.abs().max(1e-12)
}

fn as_bool(j: &Json) -> Option<bool> {
    match j {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn rows_of(baseline: &Json) -> Result<&[Json], String> {
    baseline
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| "baseline has no `rows` array".to_string())
}

fn field_f64(row: &Json, key: &str) -> Result<f64, String> {
    row.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("baseline row lacks numeric `{key}`"))
}

fn field_u64(row: &Json, key: &str) -> Result<u64, String> {
    row.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("baseline row lacks integer `{key}`"))
}

/// Compares a fresh DP-perf run against a parsed baseline document.
/// Returns one human-readable message per mismatch (empty = gate
/// passes).
pub fn check_dp(baseline: &Json, fresh: &[DpPerfRow], tol: f64) -> Vec<String> {
    let mut bad = Vec::new();
    let rows = match rows_of(baseline) {
        Ok(r) => r,
        Err(e) => return vec![format!("dp: {e}")],
    };
    if rows.len() != fresh.len() {
        return vec![format!(
            "dp: baseline has {} row(s), fresh run has {}",
            rows.len(),
            fresh.len()
        )];
    }
    for (row, f) in rows.iter().zip(fresh) {
        let ctx = format!("dp row n={} p={}", f.n, f.p);
        let check = |bad: &mut Vec<String>, r: Result<(), String>| {
            if let Err(e) = r {
                bad.push(format!("{ctx}: {e}"));
            }
        };
        check(&mut bad, exact_u64(row, "n", f.n as u64));
        check(&mut bad, exact_u64(row, "p", f.p as u64));
        match row.get("identical").and_then(as_bool) {
            Some(b) if b == f.identical => {}
            Some(b) => bad.push(format!("{ctx}: identical baseline {b} fresh {}", f.identical)),
            None => bad.push(format!("{ctx}: baseline row lacks boolean `identical`")),
        }
        if !f.identical {
            bad.push(format!("{ctx}: engine variants diverged in the fresh run"));
        }
        check(&mut bad, close_f64(row, "makespan", f.makespan, tol));
    }
    bad
}

/// Compares a fresh fault sweep against a parsed baseline document.
pub fn check_faults(baseline: &Json, fresh: &[FaultSweepRow], tol: f64) -> Vec<String> {
    let mut bad = Vec::new();
    let rows = match rows_of(baseline) {
        Ok(r) => r,
        Err(e) => return vec![format!("faults: {e}")],
    };
    if rows.len() != fresh.len() {
        return vec![format!(
            "faults: baseline has {} row(s), fresh run has {}",
            rows.len(),
            fresh.len()
        )];
    }
    for (row, f) in rows.iter().zip(fresh) {
        let ctx = format!("fault row `{}`", f.scenario);
        let check = |bad: &mut Vec<String>, r: Result<(), String>| {
            if let Err(e) = r {
                bad.push(format!("{ctx}: {e}"));
            }
        };
        match row.get("scenario").and_then(Json::as_str) {
            Some(s) if s == f.scenario => {}
            Some(s) => bad.push(format!("{ctx}: baseline scenario is `{s}`")),
            None => bad.push(format!("{ctx}: baseline row lacks string `scenario`")),
        }
        check(&mut bad, exact_u64(row, "degraded_lost", f.degraded_lost));
        check(&mut bad, exact_u64(row, "faults", f.faults as u64));
        check(&mut bad, exact_u64(row, "retries", f.retries as u64));
        check(&mut bad, exact_u64(row, "replans", f.replans as u64));
        check(&mut bad, close_f64(row, "clean_makespan", f.clean_makespan, tol));
        check(&mut bad, close_f64(row, "degraded_makespan", f.degraded_makespan, tol));
        check(&mut bad, close_f64(row, "recovered_makespan", f.recovered_makespan, tol));
    }
    bad
}

/// Checks the committed **full** `BENCH_dp.json` for the D&C kernel's
/// contract: at [`DC_GATE_CASE`] the serial D&C solve must be at least
/// [`DC_GATE_MIN_SPEEDUP`]× faster than the serial Algorithm-2 engine.
///
/// Unlike [`check_dp`], this *does* read wall-clock fields — but from
/// the committed sweep (one machine, one run, both kernels timed
/// back-to-back), where the ratio is meaningful. CI does not re-run the
/// full-size sweep; it verifies the committed numbers still make the
/// claim the docs make.
pub fn check_dc_speedup(baseline: &Json) -> Vec<String> {
    let (n, p) = DC_GATE_CASE;
    let rows = match rows_of(baseline) {
        Ok(r) => r,
        Err(e) => return vec![format!("dc: {e}")],
    };
    let row = rows.iter().find(|r| {
        r.get("n").and_then(Json::as_u64) == Some(n as u64)
            && r.get("p").and_then(Json::as_u64) == Some(p as u64)
    });
    let Some(row) = row else {
        return vec![format!("dc: baseline has no row for n={n} p={p}")];
    };
    let mut bad = Vec::new();
    match (field_f64(row, "serial_secs"), field_f64(row, "dc_secs")) {
        (Ok(serial), Ok(dc)) => {
            let speedup = serial / dc.max(1e-12);
            if speedup < DC_GATE_MIN_SPEEDUP {
                bad.push(format!(
                    "dc: n={n} p={p} speedup {speedup:.2}x < required \
                     {DC_GATE_MIN_SPEEDUP}x (serial {serial:.4}s, dc {dc:.4}s)"
                ));
            }
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                bad.push(format!("dc: n={n} p={p}: {e}"));
            }
        }
    }
    bad
}

/// Compares a fresh `serve_load --smoke` run against its baseline. Only
/// deterministic fields are compared: the request counts, the planned
/// makespan, and the cache invariants (`hit_only`, `consistent`,
/// `shed == 0`). Latency and throughput fields are machine-dependent
/// and left to [`check_serve_perf`].
pub fn check_serve(baseline: &Json, fresh: &ServeLoadReport, tol: f64) -> Vec<String> {
    let mut bad = Vec::new();
    let check = |bad: &mut Vec<String>, r: Result<(), String>| {
        if let Err(e) = r {
            bad.push(format!("serve: {e}"));
        }
    };
    check(&mut bad, exact_u64(baseline, "p", fresh.p as u64));
    check(&mut bad, exact_u64(baseline, "items", fresh.items));
    check(&mut bad, exact_u64(baseline, "cold_requests", fresh.cold_requests));
    check(&mut bad, exact_u64(baseline, "warm_requests", fresh.warm_requests));
    check(&mut bad, exact_u64(baseline, "shed", fresh.shed));
    check(&mut bad, close_f64(baseline, "makespan", fresh.makespan, tol));
    for (key, fresh_val) in [("hit_only", fresh.hit_only), ("consistent", fresh.consistent)] {
        match baseline.get(key).and_then(as_bool) {
            Some(b) if b == fresh_val => {}
            Some(b) => bad.push(format!("serve: {key} baseline {b} fresh {fresh_val}")),
            None => bad.push(format!("serve: baseline lacks boolean `{key}`")),
        }
        if !fresh_val {
            bad.push(format!("serve: `{key}` failed in the fresh run"));
        }
    }
    bad
}

/// Checks the committed **full** `BENCH_serve.json` for the daemon's
/// service-level contract: warm throughput ≥ [`SERVE_GATE_MIN_RPS`]
/// requests/sec and warm p50 < [`SERVE_GATE_MAX_P50`]. Like
/// [`check_dc_speedup`], this reads wall-clock numbers from the
/// committed document (one machine, one run) rather than re-running the
/// full-size load test in CI.
pub fn check_serve_perf(baseline: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    match field_f64(baseline, "warm_throughput_rps") {
        Ok(rps) if rps < SERVE_GATE_MIN_RPS => bad.push(format!(
            "serve: committed warm throughput {rps:.0} req/s < required \
             {SERVE_GATE_MIN_RPS:.0} req/s"
        )),
        Ok(_) => {}
        Err(e) => bad.push(format!("serve: {e}")),
    }
    match field_f64(baseline, "warm_p50_secs") {
        Ok(p50) if p50 >= SERVE_GATE_MAX_P50 => bad.push(format!(
            "serve: committed warm p50 {p50:.6}s >= bound {SERVE_GATE_MAX_P50}s"
        )),
        Ok(_) => {}
        Err(e) => bad.push(format!("serve: {e}")),
    }
    bad
}

/// Compares a fresh `sim_scale --smoke` sweep against its baseline.
/// Only deterministic fields are compared: exact event counts and queue
/// peaks, makespans (tolerance — the baseline rounds), and the
/// engine-agreement booleans (`identical` per row, `pool_identical`
/// overall), which must also hold in the fresh run.
pub fn check_sim(baseline: &Json, fresh: &SimScaleReport, tol: f64) -> Vec<String> {
    let mut bad = Vec::new();
    let check = |bad: &mut Vec<String>, ctx: &str, r: Result<(), String>| {
        if let Err(e) = r {
            bad.push(format!("{ctx}: {e}"));
        }
    };
    check(&mut bad, "sim", exact_u64(baseline, "items_per_rank", fresh.items_per_rank));
    check(&mut bad, "sim", exact_u64(baseline, "pool_ranks", fresh.pool_ranks as u64));
    match baseline.get("pool_identical").and_then(as_bool) {
        Some(b) if b == fresh.pool_identical => {}
        Some(b) => {
            bad.push(format!("sim: pool_identical baseline {b} fresh {}", fresh.pool_identical))
        }
        None => bad.push("sim: baseline lacks boolean `pool_identical`".into()),
    }
    if !fresh.pool_identical {
        bad.push("sim: pooled execution diverged from the simulation in the fresh run".into());
    }
    let rows = match rows_of(baseline) {
        Ok(r) => r,
        Err(e) => {
            bad.push(format!("sim: {e}"));
            return bad;
        }
    };
    if rows.len() != fresh.rows.len() {
        bad.push(format!(
            "sim: baseline has {} row(s), fresh run has {}",
            rows.len(),
            fresh.rows.len()
        ));
        return bad;
    }
    for (row, f) in rows.iter().zip(&fresh.rows) {
        let ctx = format!("sim row p={}", f.p);
        check(&mut bad, &ctx, exact_u64(row, "p", f.p as u64));
        check(&mut bad, &ctx, exact_u64(row, "items", f.items));
        check(&mut bad, &ctx, exact_u64(row, "events", f.events));
        check(&mut bad, &ctx, close_f64(row, "makespan", f.makespan, tol));
        match row.get("identical").and_then(as_bool) {
            Some(b) if b == f.identical => {}
            Some(b) => bad.push(format!("{ctx}: identical baseline {b} fresh {}", f.identical)),
            None => bad.push(format!("{ctx}: baseline row lacks boolean `identical`")),
        }
        if !f.identical {
            bad.push(format!("{ctx}: classic and fast engines diverged in the fresh run"));
        }
    }
    bad
}

/// Checks the committed **full** `BENCH_sim.json` for the fast path's
/// performance contract: among rows with `p >= `[`SIM_GATE_MIN_RANKS`]
/// where the classic engine was timed, the best events/sec speedup must
/// reach [`SIM_GATE_MIN_SPEEDUP`]x, and at least one such row must
/// exist. The gate reads the best row rather than every row because the
/// classic engine degrades with queue depth — at p = 10^4 it is merely
/// a few times slower, at p = 10^6 it is an order of magnitude slower —
/// and the contract is about what the fast path buys at headline scale.
/// Like [`check_dc_speedup`], this reads wall-clock numbers from the
/// committed document rather than re-running the full-size sweep in CI.
pub fn check_sim_perf(baseline: &Json) -> Vec<String> {
    let rows = match rows_of(baseline) {
        Ok(r) => r,
        Err(e) => return vec![format!("sim: {e}")],
    };
    let mut bad = Vec::new();
    let mut best: Option<(u64, f64)> = None;
    for row in rows {
        let p = row.get("p").and_then(Json::as_u64).unwrap_or(0);
        let classic = row.get("classic_secs").and_then(Json::as_f64).unwrap_or(0.0);
        if (p as usize) < SIM_GATE_MIN_RANKS || classic <= 0.0 {
            continue;
        }
        match field_f64(row, "fast_secs") {
            Ok(fast) => {
                let speedup = classic / fast.max(1e-12);
                if best.is_none_or(|(_, s)| speedup > s) {
                    best = Some((p, speedup));
                }
            }
            Err(e) => bad.push(format!("sim: p={p}: {e}")),
        }
    }
    match best {
        None => bad.push(format!(
            "sim: baseline has no classic-timed row with p >= {SIM_GATE_MIN_RANKS} to gate on"
        )),
        Some((p, speedup)) if speedup < SIM_GATE_MIN_SPEEDUP => bad.push(format!(
            "sim: best speedup {speedup:.2}x (at p={p}) < required {SIM_GATE_MIN_SPEEDUP}x"
        )),
        Some(_) => {}
    }
    bad
}

fn exact_u64(row: &Json, key: &str, fresh: u64) -> Result<(), String> {
    let b = field_u64(row, key)?;
    if b == fresh {
        Ok(())
    } else {
        Err(format!("{key} baseline {b} fresh {fresh}"))
    }
}

fn close_f64(row: &Json, key: &str, fresh: f64, tol: f64) -> Result<(), String> {
    let b = field_f64(row, key)?;
    if rel_close(fresh, b, tol) {
        Ok(())
    } else {
        Err(format!(
            "{key} baseline {b} fresh {fresh} (rel {:.2e} > tol {tol:.0e})",
            (fresh - b).abs() / b.abs().max(1e-12)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::faultexp::fault_sweep_json;
    use crate::experiments::runtimes::dp_perf_json;
    use gs_scatter::obs::json::parse;

    fn dp_row() -> DpPerfRow {
        DpPerfRow {
            n: 2_000,
            p: 4,
            serial_secs: 0.01,
            parallel_secs: 0.02,
            pruned_secs: 0.005,
            parallel_pruned_secs: 0.006,
            dc_secs: 0.003,
            identical: true,
            makespan: 3.1640625, // dyadic: prints and reparses exactly
        }
    }

    fn fault_row() -> FaultSweepRow {
        FaultSweepRow {
            scenario: "crash:0@0.5".into(),
            clean_makespan: 1.5,
            degraded_makespan: 1.5,
            degraded_lost: 123,
            recovered_makespan: 2.25,
            overhead_pct: 50.0,
            faults: 3,
            retries: 2,
            replans: 1,
        }
    }

    #[test]
    fn identical_runs_pass_both_gates() {
        let dp = vec![dp_row()];
        let baseline = parse(&dp_perf_json(&dp, 4, None)).unwrap();
        assert!(check_dp(&baseline, &dp, 1e-4).is_empty());
        let faults = vec![fault_row()];
        // Replan timing fields are extra top-level keys the gate ignores.
        let baseline = parse(&fault_sweep_json(2_000, &faults, Some((0.5, 0.1)))).unwrap();
        assert!(check_faults(&baseline, &faults, 1e-4).is_empty());
    }

    #[test]
    fn timing_changes_do_not_trip_the_gate() {
        let mut fresh = vec![dp_row()];
        let baseline = parse(&dp_perf_json(&fresh, 4, None)).unwrap();
        fresh[0].serial_secs *= 100.0; // a slower machine is not a regression
        fresh[0].parallel_secs *= 0.01;
        assert!(check_dp(&baseline, &fresh, 1e-4).is_empty());
    }

    #[test]
    fn makespan_drift_and_divergence_are_caught() {
        let base_rows = vec![dp_row()];
        let baseline = parse(&dp_perf_json(&base_rows, 4, None)).unwrap();
        let mut fresh = base_rows.clone();
        fresh[0].makespan *= 1.001;
        let bad = check_dp(&baseline, &fresh, 1e-4);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("makespan"), "{bad:?}");
        let mut fresh = base_rows;
        fresh[0].identical = false;
        assert!(!check_dp(&baseline, &fresh, 1e-4).is_empty());
    }

    #[test]
    fn incident_count_changes_are_caught() {
        let base_rows = vec![fault_row()];
        let baseline = parse(&fault_sweep_json(2_000, &base_rows, None)).unwrap();
        let mut fresh = base_rows.clone();
        fresh[0].degraded_lost += 1;
        fresh[0].retries += 1;
        let bad = check_faults(&baseline, &fresh, 1e-4);
        assert_eq!(bad.len(), 2, "{bad:?}");
        // Row-count mismatches are reported, not ignored.
        let bad = check_faults(&baseline, &[], 1e-4);
        assert!(bad[0].contains("0"), "{bad:?}");
    }

    #[test]
    fn dc_speedup_gate_reads_the_full_baseline() {
        let (n, p) = DC_GATE_CASE;
        let mut fast = dp_row();
        fast.n = n;
        fast.p = p;
        fast.serial_secs = 9.0;
        fast.dc_secs = 1.0;
        let ok = parse(&dp_perf_json(&[fast.clone()], 4, None)).unwrap();
        assert!(check_dc_speedup(&ok).is_empty());
        let mut slow = fast.clone();
        slow.dc_secs = 5.0; // 1.8x — below the 3x contract
        let bad = parse(&dp_perf_json(&[slow], 4, None)).unwrap();
        let msgs = check_dc_speedup(&bad);
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("speedup"), "{msgs:?}");
        // A baseline without the gate's row fails loudly.
        let other = parse(&dp_perf_json(&[dp_row()], 4, None)).unwrap();
        assert!(!check_dc_speedup(&other).is_empty());
    }

    fn serve_report() -> ServeLoadReport {
        ServeLoadReport {
            p: 13,
            items: 817_101,
            clients: 8,
            cold_requests: 32,
            warm_requests: 50_000,
            makespan: 2.5,
            hit_only: true,
            consistent: true,
            shed: 0,
            cold_p50_secs: 2e-4,
            cold_p95_secs: 4e-4,
            cold_p99_secs: 5e-4,
            warm_p50_secs: 1e-4,
            warm_p95_secs: 2e-4,
            warm_p99_secs: 3e-4,
            warm_throughput_rps: 42_000.0,
            warm_wall_secs: 1.19,
        }
    }

    #[test]
    fn serve_smoke_gate_compares_deterministic_fields_only() {
        use crate::experiments::serveexp::serve_load_json;
        let fresh = serve_report();
        let baseline = parse(&serve_load_json(&fresh)).unwrap();
        assert!(check_serve(&baseline, &fresh, 1e-4).is_empty());
        // Timing changes never trip the smoke gate.
        let mut slower = fresh.clone();
        slower.warm_p50_secs *= 100.0;
        slower.warm_throughput_rps /= 100.0;
        assert!(check_serve(&baseline, &slower, 1e-4).is_empty());
        // Cache-invariant regressions do.
        let mut broken = fresh.clone();
        broken.hit_only = false;
        broken.shed = 3;
        let bad = check_serve(&baseline, &broken, 1e-4);
        assert!(bad.iter().any(|m| m.contains("hit_only")), "{bad:?}");
        assert!(bad.iter().any(|m| m.contains("shed")), "{bad:?}");
        // So does makespan drift.
        let mut drift = fresh;
        drift.makespan *= 1.001;
        assert!(!check_serve(&baseline, &drift, 1e-4).is_empty());
    }

    #[test]
    fn serve_perf_gate_reads_the_full_baseline() {
        use crate::experiments::serveexp::serve_load_json;
        let good = parse(&serve_load_json(&serve_report())).unwrap();
        assert!(check_serve_perf(&good).is_empty());
        let mut slow = serve_report();
        slow.warm_throughput_rps = 900.0;
        slow.warm_p50_secs = 0.05;
        let msgs = check_serve_perf(&parse(&serve_load_json(&slow)).unwrap());
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        // A baseline missing the fields fails loudly.
        let empty = parse("{\"bench\": \"serve_load\"}").unwrap();
        assert!(!check_serve_perf(&empty).is_empty());
    }

    fn sim_report() -> SimScaleReport {
        use crate::experiments::simexp::SimScaleRow;
        SimScaleReport {
            items_per_rank: 10,
            rows: vec![SimScaleRow {
                p: 10_000,
                items: 100_000,
                events: 40_000,
                makespan: 1.5,
                identical: true,
                classic_secs: 2.0,
                fast_secs: 0.1,
                classic_events_per_sec: 20_000.0,
                fast_events_per_sec: 400_000.0,
                speedup: 20.0,
                peak_rss_bytes: 123_456_789,
            }],
            pool_ranks: 1_000,
            pool_threads: 4,
            pool_identical: true,
            pool_secs: 0.5,
        }
    }

    #[test]
    fn sim_smoke_gate_compares_deterministic_fields_only() {
        use crate::experiments::simexp::sim_scale_json;
        let fresh = sim_report();
        let baseline = parse(&sim_scale_json(&fresh)).unwrap();
        assert!(check_sim(&baseline, &fresh, 1e-4).is_empty());
        // Timing changes never trip the smoke gate.
        let mut slower = fresh.clone();
        slower.rows[0].classic_secs *= 100.0;
        slower.rows[0].fast_secs *= 100.0;
        slower.rows[0].speedup = 1.0;
        slower.rows[0].peak_rss_bytes *= 10;
        slower.pool_secs *= 50.0;
        assert!(check_sim(&baseline, &slower, 1e-4).is_empty());
        // Event-count and agreement regressions do.
        let mut broken = fresh.clone();
        broken.rows[0].events += 1;
        broken.rows[0].identical = false;
        broken.pool_identical = false;
        let bad = check_sim(&baseline, &broken, 1e-4);
        assert!(bad.iter().any(|m| m.contains("events")), "{bad:?}");
        assert!(bad.iter().any(|m| m.contains("diverged")), "{bad:?}");
        assert!(bad.iter().any(|m| m.contains("pool_identical")), "{bad:?}");
        // So does makespan drift.
        let mut drift = fresh;
        drift.rows[0].makespan *= 1.001;
        assert!(!check_sim(&baseline, &drift, 1e-4).is_empty());
    }

    #[test]
    fn sim_perf_gate_reads_the_full_baseline() {
        use crate::experiments::simexp::sim_scale_json;
        let good = parse(&sim_scale_json(&sim_report())).unwrap();
        assert!(check_sim_perf(&good).is_empty());
        // Below the 10x contract on every eligible row: caught.
        let mut slow = sim_report();
        slow.rows[0].fast_secs = 1.0; // 2x
        let msgs = check_sim_perf(&parse(&sim_scale_json(&slow)).unwrap());
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("best speedup"), "{msgs:?}");
        // The contract is on the *best* eligible row: a modest speedup
        // at p=10^4 is fine as long as the deep-queue row clears 10x.
        let mut mixed = sim_report();
        let mut deep = mixed.rows[0].clone();
        mixed.rows[0].fast_secs = 0.5; // 4x at p=10^4
        deep.p = 1_000_000;
        deep.classic_secs = 1.0;
        deep.fast_secs = 0.069; // ~14x at p=10^6
        mixed.rows.push(deep);
        assert!(check_sim_perf(&parse(&sim_scale_json(&mixed)).unwrap()).is_empty());
        // Small-p rows are exempt, but a baseline with *only* exempt
        // rows fails loudly.
        let mut tiny = sim_report();
        tiny.rows[0].p = 500;
        tiny.rows[0].fast_secs = 1.0;
        let msgs = check_sim_perf(&parse(&sim_scale_json(&tiny)).unwrap());
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("no classic-timed row"), "{msgs:?}");
    }

    #[test]
    fn malformed_baselines_fail_loudly() {
        let garbage = parse("{\"bench\": \"dp_perf\"}").unwrap();
        assert!(!check_dp(&garbage, &[dp_row()], 1e-4).is_empty());
        let no_field = parse("{\"rows\": [{\"n\": 2000}]}").unwrap();
        let bad = check_dp(&no_field, &[dp_row()], 1e-4);
        assert!(bad.iter().any(|m| m.contains("lacks")), "{bad:?}");
    }
}
