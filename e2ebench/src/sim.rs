//! The `sim` workload: no planner, only the simulator and the runtime.
//! It times the `bigsim` fast path at 10⁶ ranks, the classic event
//! engine at 10⁵ ranks, and a pooled `scatterv` at 10⁴ ranks on two
//! worker threads, all on the synthetic star of `docs/simulation.md`
//! with counts from `bigsim::proportional_counts`. One cycle of the
//! workload runs each of the three once.

use std::collections::BTreeMap;

use gs_gridsim::bigsim::{proportional_counts, simulate_star, star_durations, synthetic_star};
use gs_gridsim::sim::{simulate_scatter_on, SimConfig};
use gs_gridsim::Engine;
use gs_minimpi::{run_world_pooled, TimeModel, WorldConfig};
use gs_scatter::cost::{CostFn, Processor};
use gs_scatter::obs::span::{self, span, span_with_parent};

use crate::report::{
    check_repeats, median, median_count, peak_rss_mb, print_samples, repeat_for, timed, Counters,
    Report,
};
use crate::trace::{self, LAYER, OP, WAIT};
use crate::{Mode, RunArgs};

/// Sizes of the sim workload.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub star_ranks: usize,
    pub classic_ranks: usize,
    pub pool_ranks: usize,
    pub pool_threads: usize,
    pub items_per_rank: u64,
    pub setups: usize,
}

pub fn cfg(smoke: bool) -> Cfg {
    Cfg {
        star_ranks: if smoke { 10_000 } else { 1_000_000 },
        classic_ranks: if smoke { 1_000 } else { 100_000 },
        pool_ranks: if smoke { 100 } else { 10_000 },
        pool_threads: 2,
        items_per_rank: 10,
        setups: if smoke { 1 } else { 3 },
    }
}

/// One synthetic star, in scatter order (root last).
struct Star {
    beta: Vec<f64>,
    alpha: Vec<f64>,
    procs: Vec<Processor>,
    counts: Vec<usize>,
    /// Finish times of the fast path on this star: the reference the
    /// classic engine and the runtime must reproduce bit for bit.
    finish: Vec<f64>,
    makespan: f64,
}

impl Star {
    fn new(p: usize, items_per_rank: u64) -> Star {
        let (beta, alpha) = synthetic_star(p);
        let counts: Vec<usize> = proportional_counts(&alpha, p as u64 * items_per_rank)
            .iter()
            .map(|&c| c as usize)
            .collect();
        let procs: Vec<Processor> = beta
            .iter()
            .zip(&alpha)
            .enumerate()
            .map(|(i, (&b, &a))| Processor::linear(format!("w{i}"), b, a))
            .collect();
        Star { beta, alpha, procs, counts, finish: Vec::new(), makespan: f64::NAN }
    }

    /// Runs the fast path once to fill the reference.
    fn with_reference(mut self) -> Star {
        let view: Vec<&Processor> = self.procs.iter().collect();
        let (comm, work) = star_durations(&view, &self.counts);
        let sim = simulate_star(&comm, &work, false);
        self.finish = sim.timeline.finish;
        self.makespan = sim.makespan;
        self
    }

    /// The runtime's time model: one item is one byte, so the executed
    /// clocks reproduce the simulation exactly.
    fn time_model(&self) -> TimeModel {
        TimeModel {
            link: self.beta.iter().map(|&b| CostFn::Linear { slope: b }).collect(),
            compute: self.alpha.iter().map(|&a| CostFn::Linear { slope: a }).collect(),
        }
    }
}

struct Inputs {
    star: Star,
    classic: Star,
    pooled: Star,
    data: Vec<u8>,
}

fn setup(cfg: &Cfg) -> Inputs {
    let pooled = Star::new(cfg.pool_ranks, cfg.items_per_rank).with_reference();
    let data = vec![0u8; pooled.counts.iter().sum()];
    Inputs {
        star: Star::new(cfg.star_ranks, cfg.items_per_rank),
        classic: Star::new(cfg.classic_ranks, cfg.items_per_rank).with_reference(),
        pooled,
        data,
    }
}

/// Per-repetition work counts.
#[derive(Default)]
struct Counts {
    star_events: Vec<u64>,
    classic_events: Vec<u64>,
    messages: Vec<u64>,
    bytes: Vec<u64>,
    star_makespans: Vec<u64>,
}

const EVENTS: &[&str] = &["sim_events_total"];
const MPI: &[&str] = &["mpi_sends_total", "mpi_sent_bytes_total"];

/// Samples of the two fast operations per repetition, so that each of
/// them gets many more samples than the pooled execution.
const STAR_SAMPLES: usize = 4;
const CLASSIC_SAMPLES: usize = 8;

/// One repetition: fast path, classic engine, pooled execution. Each
/// answer is checked against the fast-path reference. Returns the
/// summed wall seconds of the operations.
fn rep(
    cfg: &Cfg,
    inp: &Inputs,
    samples: &mut BTreeMap<&'static str, Vec<f64>>,
    counts: &mut Counts,
    report: &mut Report,
) -> f64 {
    let mut wall = 0.0;
    let view: Vec<&Processor> = inp.star.procs.iter().collect();
    for _ in 0..STAR_SAMPLES {
        let c = Counters::start(EVENTS);
        let (fast, secs) = timed(|| {
            let _op = span(OP, "sim_star");
            let (comm, work) = {
                let _s = span(LAYER, "bigsim.star_durations");
                star_durations(&view, &inp.star.counts)
            };
            let _s = span(LAYER, "bigsim.simulate_star");
            simulate_star(&comm, &work, false)
        });
        wall += secs;
        samples.entry("sim_star_s").or_default().push(secs);
        counts.star_events.push(c.delta()[0]);
        counts.star_makespans.push(fast.makespan.to_bits());
        report.op(fast.events_processed == 4 * cfg.star_ranks as u64, || {
            format!(
                "fast path processed {} events at p = {}",
                fast.events_processed, cfg.star_ranks
            )
        });
    }

    let view: Vec<&Processor> = inp.classic.procs.iter().collect();
    for _ in 0..CLASSIC_SAMPLES {
        let c = Counters::start(EVENTS);
        let (classic, secs) = timed(|| {
            let _op = span(OP, "sim_classic");
            let _s = span(LAYER, "gridsim.classic");
            simulate_scatter_on(&view, &inp.classic.counts, &SimConfig::ideal(), Engine::new())
        });
        wall += secs;
        samples.entry("sim_classic_s").or_default().push(secs);
        counts.classic_events.push(c.delta()[0]);
        let same = classic.makespan.to_bits() == inp.classic.makespan.to_bits()
            && classic.timeline.finish.len() == inp.classic.finish.len()
            && classic
                .timeline
                .finish
                .iter()
                .zip(&inp.classic.finish)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        report.op(same, || {
            format!("classic engine differs from the fast path at p = {}", cfg.classic_ranks)
        });
    }

    let pooled = &inp.pooled;
    let root = cfg.pool_ranks - 1;
    let config = WorldConfig::with_time(pooled.time_model());
    let c = Counters::start(MPI);
    let (clocks, secs) = timed(|| {
        let op = span(OP, "exec_pooled");
        let op_id = op.id();
        run_world_pooled(cfg.pool_ranks, cfg.pool_threads, root, config, |comm| {
            let is_root = comm.rank() == root;
            let mine = {
                let _s = if is_root {
                    span_with_parent(LAYER, "minimpi.root_scatterv", op_id)
                } else {
                    span_with_parent(WAIT, "minimpi.recv_wait", op_id)
                };
                let sendbuf = is_root.then_some(&inp.data[..]);
                comm.scatterv(root, sendbuf, &pooled.counts)
            };
            comm.model_compute(mine.len());
            comm.now()
        })
    });
    wall += secs;
    samples.entry("exec_pooled_s").or_default().push(secs);
    let d = c.delta();
    counts.messages.push(d[0]);
    counts.bytes.push(d[1]);
    let same = clocks.len() == pooled.finish.len()
        && clocks.iter().zip(&pooled.finish).all(|(a, b)| a.to_bits() == b.to_bits());
    report.op(same, || {
        format!("pooled execution differs from the fast path at p = {}", cfg.pool_ranks)
    });
    wall
}

fn verify(counts: &Counts, report: &mut Report) {
    check_repeats(report, "fast-path events", &counts.star_events);
    check_repeats(report, "fast-path makespan bits", &counts.star_makespans);
    check_repeats(report, "classic events", &counts.classic_events);
    check_repeats(report, "MPI messages", &counts.messages);
    check_repeats(report, "MPI bytes", &counts.bytes);
}

pub fn run(cfg: &Cfg, args: &RunArgs, report: &mut Report) {
    let mut setups = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..cfg.setups {
        drop(inputs.take()); // free the previous set before building the next
        let (inp, secs) = timed(|| setup(cfg));
        setups.push(secs);
        inputs = Some(inp);
    }
    let inp = inputs.expect("at least one set-up");
    let mut samples = BTreeMap::new();
    let mut counts = Counts::default();
    let (_, warm_up) =
        timed(|| rep(cfg, &inp, &mut BTreeMap::new(), &mut Counts::default(), report));

    if args.mode == Mode::EndToEnd {
        let mut rss = None;
        let reps = repeat_for(args.seconds, 1, || {
            rep(cfg, &inp, &mut samples, &mut counts, report);
            rss.get_or_insert_with(peak_rss_mb);
        });
        verify(&counts, report);
        // Set-up is everything before the first timed operation: the
        // inputs (built several times, median) and the warm-up.
        let medians: Vec<f64> = samples.values().map(|v| median(v)).collect();
        report.end_to_end(median(&setups) + warm_up, rss, medians.iter().sum(), &medians);
        print_samples(reps, &samples);
        return;
    }

    // Traced run: untraced and traced repetitions of the same code,
    // alternating so a slow spell of the host does not land on one side
    // of the overhead ratio.
    let (mut untraced, mut traced, mut instances, mut last) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    repeat_for(args.seconds, 2, || {
        let trace_this = untraced.len() > traced.len();
        span::set_enabled(trace_this);
        let wall = rep(cfg, &inp, &mut samples, &mut counts, report);
        if !trace_this {
            untraced.push(wall);
            return;
        }
        traced.push(wall);
        // Reduce each traced repetition as it ends; export the last one.
        last.clear();
        if let Err(e) = trace::collect(&mut last) {
            report.op(false, || e);
        }
        instances.extend(trace::reduce(&last));
    });
    span::set_enabled(false);
    verify(&counts, report);

    match trace::export(&last, "sim", args.seed) {
        Ok(path) => eprintln!("e2ebench: spans written to {path}"),
        Err(e) => report.op(false, || format!("span export: {e}")),
    }
    let layer = |name: &str| median(&trace::layer_samples(&instances, None, name));
    let waits: Vec<f64> =
        instances.iter().filter_map(|i| i.waits.get("minimpi.recv_wait").copied()).collect();
    let overhead: Vec<f64> =
        instances.iter().filter(|i| i.op == "exec_pooled").map(|i| i.unattributed).collect();
    let star_events = median_count(&counts.star_events);
    let classic_events = median_count(&counts.classic_events);
    report.metric("bigsim.star_durations_s", layer("bigsim.star_durations"), "s");
    report.metric("bigsim.simulate_star_s", layer("bigsim.simulate_star"), "s");
    report.metric("bigsim.events", star_events, "count");
    report.metric("gridsim.classic.simulate_s", layer("gridsim.classic"), "s");
    report.metric("gridsim.classic.events", classic_events, "count");
    report.metric("minimpi.root_scatterv_s", layer("minimpi.root_scatterv"), "s");
    report.metric("minimpi.recv_wait_s", median(&waits), "s");
    report.metric("minimpi.pool_overhead_s", median(&overhead), "s");
    report.metric("minimpi.messages", median_count(&counts.messages), "count");
    report.metric("minimpi.bytes", median_count(&counts.bytes), "bytes");
    trace::report_quality(&[trace::Quality::new(&instances, &untraced, &traced)], report);
}
