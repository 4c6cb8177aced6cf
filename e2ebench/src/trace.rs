//! The traced run's instrument: the benchmark's own `obs::span` spans
//! around each call into a layer, reduced to per-layer self time.
//!
//! Three span categories belong to the benchmark; every other span the
//! program records while tracing is on (`dp.*`, `sim.*`, `mpi.*`,
//! `serve`, …) is exported but ignored by the reduction:
//!
//! * [`OP`] — one user-visible operation (a plan, a request, a
//!   simulation). Its self time is the time no layer span covers: the
//!   unattributed remainder.
//! * [`LAYER`] — one call into a layer. Its self time is its duration
//!   minus that of its benchmark children.
//! * [`WAIT`] — time a concurrent part spent blocked (a rank waiting for
//!   its block). Reported, but neither attributed nor subtracted: it
//!   overlaps the layer spans on other threads.

use std::collections::{BTreeMap, HashMap};

use gs_scatter::obs::span::{self, SpanRecord};

use crate::report::{median, Report};

/// Category of operation spans.
pub const OP: &str = "bench.op";
/// Category of layer spans.
pub const LAYER: &str = "bench.layer";
/// Category of wait spans.
pub const WAIT: &str = "bench.wait";

/// One traced operation, reduced.
#[derive(Debug, Clone)]
pub struct Instance {
    pub op: &'static str,
    /// Wall seconds of the operation span.
    pub dur: f64,
    /// Seconds of the operation no layer span covers.
    pub unattributed: f64,
    /// Layer name → summed self seconds within this operation.
    pub layers: BTreeMap<&'static str, f64>,
    /// Wait name → summed seconds within this operation.
    pub waits: BTreeMap<&'static str, f64>,
}

impl Instance {
    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.get(name).copied()
    }
}

/// Reduces finished spans to one [`Instance`] per operation span, in
/// start order.
pub fn reduce(spans: &[SpanRecord]) -> Vec<Instance> {
    let ours: HashMap<u64, &SpanRecord> = spans
        .iter()
        .filter(|s| s.wall && [OP, LAYER, WAIT].contains(&s.cat))
        .map(|s| (s.id, s))
        .collect();
    let mut covered: HashMap<u64, f64> = HashMap::new();
    for s in ours.values() {
        if s.cat != WAIT && ours.contains_key(&s.parent) {
            *covered.entry(s.parent).or_default() += s.dur_us;
        }
    }
    let self_us = |s: &SpanRecord| s.dur_us - covered.get(&s.id).copied().unwrap_or(0.0);

    let mut ops: Vec<&SpanRecord> = ours.values().copied().filter(|s| s.cat == OP).collect();
    ops.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    let index: HashMap<u64, usize> = ops.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut out: Vec<Instance> = ops
        .iter()
        .map(|s| Instance {
            op: s.name,
            dur: s.dur_us / 1e6,
            unattributed: self_us(s) / 1e6,
            layers: BTreeMap::new(),
            waits: BTreeMap::new(),
        })
        .collect();
    for s in ours.values().filter(|s| s.cat != OP) {
        // Walk up to the enclosing operation.
        let mut at = s.parent;
        while let Some(parent) = ours.get(&at) {
            if parent.cat == OP {
                break;
            }
            at = parent.parent;
        }
        let Some(&i) = index.get(&at) else { continue };
        let (map, secs) = if s.cat == WAIT {
            (&mut out[i].waits, s.dur_us / 1e6)
        } else {
            (&mut out[i].layers, self_us(s) / 1e6)
        };
        *map.entry(s.name).or_default() += secs;
    }
    out
}

/// What one traced part of a workload contributes to the trace-quality
/// ratios: its operations' wall seconds and the part of them layer spans
/// cover, and the median wall seconds of an untraced and of a traced
/// repetition of the same code.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    covered: f64,
    wall: f64,
    untraced: f64,
    traced: f64,
}

impl Quality {
    pub fn new(instances: &[Instance], untraced: &[f64], traced: &[f64]) -> Quality {
        Quality {
            covered: instances.iter().flat_map(|i| i.layers.values()).sum(),
            wall: instances.iter().map(|i| i.dur).sum(),
            untraced: median(untraced),
            traced: median(traced),
        }
    }
}

/// Reports `trace.attributed_ratio` (layer self time ÷ operation wall
/// time) and `trace.overhead_ratio` (traced ÷ untraced wall − 1) over
/// the traced parts of a workload.
pub fn report_quality(parts: &[Quality], report: &mut Report) {
    let sum = |f: fn(&Quality) -> f64| parts.iter().map(f).sum::<f64>();
    report.metric("trace.attributed_ratio", sum(|q| q.covered) / sum(|q| q.wall), "ratio");
    report.metric("trace.overhead_ratio", sum(|q| q.traced) / sum(|q| q.untraced) - 1.0, "ratio");
}

/// Per-layer self seconds of every instance of `op` that ran `layer`.
pub fn layer_samples(instances: &[Instance], op: Option<&str>, layer: &str) -> Vec<f64> {
    instances
        .iter()
        .filter(|i| op.is_none_or(|o| i.op == o))
        .filter_map(|i| i.layer(layer))
        .collect()
}

/// Collects the traced spans: everything finished on this thread and
/// on exited threads. Fails when the span ring overflowed, since the
/// reduction would then miss spans.
pub fn collect(into: &mut Vec<SpanRecord>) -> Result<(), String> {
    let dropped_before = span::dropped();
    into.extend(span::drain());
    if span::dropped() != dropped_before {
        return Err("span ring overflowed; per-layer sums would be short".into());
    }
    Ok(())
}

/// Writes the spans as Chrome trace-event JSON next to the benchmark
/// executable (inside the build directory) and returns the path.
pub fn export(spans: &[SpanRecord], workload: &str, seed: u64) -> std::io::Result<String> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(std::path::Path::new(".")).join("e2ebench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    std::fs::write(&path, span::chrome_trace_json(spans))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        parent: u64,
        cat: &'static str,
        name: &'static str,
        start: f64,
        dur: f64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            cat,
            tid: 1,
            wall: true,
            start_us: start,
            dur_us: dur,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_excludes_children_and_ignores_program_spans() {
        let spans = vec![
            rec(1, 0, OP, "plan", 0.0, 100.0),
            rec(2, 1, LAYER, "solve", 10.0, 60.0),
            rec(3, 2, "dp", "dp.sweep", 12.0, 50.0), // program span: ignored
            rec(4, 1, LAYER, "order", 0.0, 10.0),
            rec(5, 1, WAIT, "wait", 0.0, 90.0), // overlaps: not subtracted
        ];
        let got = reduce(&spans);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].unattributed, 30.0 / 1e6);
        assert_eq!(got[0].layer("solve"), Some(60.0 / 1e6));
        assert_eq!(got[0].waits["wait"], 90.0 / 1e6);
        let q = Quality::new(&got, &[2.0], &[2.2]);
        assert!((q.covered / q.wall - 0.7).abs() < 1e-12);
        let mut r = Report::default();
        report_quality(&[q, Quality::new(&got, &[1.0], &[1.0])], &mut r);
        assert!(r.to_json().contains("\"trace.overhead_ratio\": {\"value\": 0.0666666666666"));
    }
}
