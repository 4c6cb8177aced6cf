//! What one benchmark run reports: operations attempted and failed,
//! named metrics with units, and the one-line JSON result.

use std::time::Instant;

/// Accumulates one run's checks and metrics.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation; a failed check is reported on
    /// stderr and counted, never a crash.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("e2ebench: FAILED: {}", what());
        }
    }

    /// Records one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Records 0 for every metric of `list` not yet recorded.
    pub fn fill_absent(&mut self, list: &[(&str, &'static str)]) {
        for &(name, unit) in list {
            if !self.metrics.iter().any(|(n, _, _)| n == name) {
                self.metric(name, 0.0, unit);
            }
        }
    }

    /// Checks that the recorded metrics are exactly `list`, in its
    /// units, each a finite number.
    pub fn check_metrics(&self, list: &[(&str, &str)]) -> Result<(), String> {
        for &(name, unit) in list {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                None => return Err(format!("metric {name} was not measured")),
                Some((_, v, u)) if *u != unit || !v.is_finite() => {
                    return Err(format!("metric {name} = {v} {u}, expected a number in {unit}"))
                }
                Some(_) => {}
            }
        }
        match self.metrics.iter().find(|(n, _, _)| !list.iter().any(|(l, _)| l == n)) {
            Some((extra, _, _)) => Err(format!("metric {extra} is not in the manifest")),
            None if self.metrics.len() != list.len() => Err("a metric was recorded twice".into()),
            None => Ok(()),
        }
    }

    /// Records the end-to-end metrics every workload shares: the set-up
    /// time, the process's peak RSS as of the end of the first measured
    /// cycle, the wall time of one cycle of the workload's operation
    /// mix, and the geometric mean of the median time of each operation
    /// in the mix.
    ///
    /// The peak RSS is read after a fixed amount of work, not at the end
    /// of the run: the daemon's cache keeps every miss, so a reading at
    /// the end would grow with the number of requests the run had time
    /// for, and a faster daemon would read as a bigger one.
    pub fn end_to_end(&mut self, setup_s: f64, rss_mb: Option<f64>, cycle_s: f64, ops: &[f64]) {
        self.metric("setup_s", setup_s, "s");
        self.metric("peak_rss_mb", rss_mb.unwrap_or(f64::NAN), "MB");
        self.metric("cycle_s", cycle_s, "s");
        self.metric("op_geomean_s", geomean(ops), "s");
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Values print with every digit (`Display` of `f64` is the shortest
    /// round-trip form).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { format!("{value}") } else { "null".into() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Calls `rep` at least `min` times, and then again while another call
/// (estimated from the last one) still fits in `seconds`. Returns the
/// number of calls.
pub fn repeat_for(seconds: f64, min: usize, mut rep: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut calls = 0;
    let mut last = 0.0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if calls >= min && elapsed + last / 2.0 >= seconds {
            return calls;
        }
        rep();
        calls += 1;
        last = start.elapsed().as_secs_f64() - elapsed;
    }
}

/// Median (mean of the middle pair for even lengths); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median of a work count.
pub fn median_count(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set (`VmHWM`) of this process in MB (10⁶ bytes);
/// NaN where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Prints the median and every timed sample of each operation of a
/// run on stderr, so the spread behind each median can be judged.
pub fn print_samples(reps: usize, samples: &std::collections::BTreeMap<&str, Vec<f64>>) {
    eprintln!("e2ebench: {reps} repetitions after the warm-up");
    for (name, values) in samples {
        let v: Vec<String> = values.iter().map(|x| format!("{x:.4}")).collect();
        eprintln!("e2ebench:   {name} median {:.6} [{}]", median(values), v.join(" "));
    }
}

/// Reads one counter of the program's global metrics registry (0 until
/// the program first touches it).
pub fn counter(name: &str) -> u64 {
    gs_scatter::metrics::Registry::global().counter(name, "").get()
}

/// Deltas of several registry counters around a call.
pub struct Counters {
    names: &'static [&'static str],
    before: Vec<u64>,
}

impl Counters {
    pub fn start(names: &'static [&'static str]) -> Counters {
        Counters { names, before: names.iter().map(|n| counter(n)).collect() }
    }

    /// Counter deltas since [`Counters::start`], in `names` order.
    pub fn delta(&self) -> Vec<u64> {
        self.names.iter().zip(&self.before).map(|(n, b)| counter(n) - b).collect()
    }
}

/// Checks that a work count repeated exactly across repetitions:
/// every differing repetition is a defect, counted as a failed
/// operation.
pub fn check_repeats(report: &mut Report, what: &str, counts: &[u64]) {
    if let Some(&first) = counts.first() {
        for (i, &c) in counts.iter().enumerate().skip(1) {
            report.op(c == first, || {
                format!("{what}: repetition {i} counted {c}, repetition 0 counted {first}")
            });
        }
    }
}

/// Minimal deterministic generator (SplitMix64) for the seeded inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_must_match_the_list() {
        let list = [("a_s", "s"), ("b", "count")];
        let mut r = Report::default();
        r.metric("a_s", 1.5, "s");
        assert!(r.check_metrics(&list).is_err());
        r.fill_absent(&list);
        assert_eq!(r.check_metrics(&list), Ok(()));
        r.metric("c", 1.0, "count");
        assert!(r.check_metrics(&list).is_err());
        let mut r = Report::default();
        r.metric("a_s", 1.0, "ms");
        r.metric("b", f64::NAN, "count");
        assert!(r.check_metrics(&list).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.op(true, String::new);
        r.metric("setup_s", 0.125, "s");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn differing_counts_are_defects() {
        let mut r = Report::default();
        check_repeats(&mut r, "cells", &[5, 5, 6]);
        assert_eq!(r.failed(), 1);
    }
}
