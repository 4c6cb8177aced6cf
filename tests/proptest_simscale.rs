//! Determinism contract of the million-rank simulation stack
//! (`docs/simulation.md`), property-tested:
//!
//! * the prefix-sum fast path ([`simulate_star`]) matches the classic
//!   [`Engine`] (via `simulate_scatter_on`) bit for bit on random stars —
//!   event stream, timeline and makespan — zero-work ties and ranks
//!   finishing at the same instant included;
//! * the pooled gs-minimpi runtime on a bounded pool
//!   ([`run_world_pooled`]) is bit-identical to one worker per rank
//!   ([`run_world`]) — payloads, virtual clocks, and communication
//!   records — across worker counts, and the
//!   same holds for the fault-tolerant scatter under seeded fault
//!   plans (traces and incidents included).

use grid_scatter::gridsim::{
    proportional_counts, simulate_scatter_on, simulate_star, synthetic_star, Engine, SimConfig,
};
use grid_scatter::minimpi::{run_world, run_world_pooled, FtConfig, TimeModel, WorldConfig};
use grid_scatter::scatter::cost::{CostFn, Processor};
use grid_scatter::scatter::fault::{FaultPlan, RecoveryConfig};
use proptest::prelude::*;

const ITEM_BYTES: u64 = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fast path matches the classic engine bit for bit on random
    /// stars — zero-work and zero-comm ties included, the same
    /// equivalence `sim_scale` asserts at 10^7 ranks.
    #[test]
    fn fast_path_matches_classic_engine(
        p in 1usize..60,
        grid in proptest::collection::vec((0usize..3, 0usize..3), 6),
        per in 1u64..12,
        dyadic in any::<bool>(),
    ) {
        // Zero entries included: zero-comm and zero-work transfers are
        // where tie-breaking actually decides the event order.
        const BETA_GRID: [f64; 3] = [0.0, 1e-4, 3e-4];
        const ALPHA_GRID: [f64; 3] = [0.0, 2e-3, 7e-3];
        // Powers of two add without rounding, so different ranks finish
        // at bit-equal instants, and at the instant a transfer ends.
        const DYADIC_GRID: [f64; 3] = [0.0, 1.0 / 4096.0, 1.0 / 2048.0];
        let (beta_grid, alpha_grid) =
            if dyadic { (DYADIC_GRID, DYADIC_GRID) } else { (BETA_GRID, ALPHA_GRID) };
        let betas: Vec<f64> = (0..p).map(|i| beta_grid[grid[i % grid.len()].0]).collect();
        let alphas: Vec<f64> = (0..p).map(|i| alpha_grid[grid[i % grid.len()].1]).collect();
        let counts: Vec<u64> = vec![per; p];
        let comm: Vec<f64> = betas.iter().zip(&counts).map(|(b, &c)| b * c as f64).collect();
        let work: Vec<f64> = alphas.iter().zip(&counts).map(|(a, &c)| a * c as f64).collect();
        let fast = simulate_star(&comm, &work, true);

        let procs: Vec<Processor> = betas
            .iter()
            .zip(&alphas)
            .enumerate()
            .map(|(i, (&b, &a))| Processor::linear(format!("w{i}"), b, a))
            .collect();
        let view: Vec<&Processor> = procs.iter().collect();
        let counts_usize: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
        let classic =
            simulate_scatter_on(&view, &counts_usize, &SimConfig::ideal(), Engine::new());

        prop_assert_eq!(fast.makespan.to_bits(), classic.makespan.to_bits());
        prop_assert_eq!(&fast.timeline, &classic.timeline);
        prop_assert_eq!(&fast.events, &classic.events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A bounded pool is bit-identical to one worker per rank: same
    /// payloads, same virtual clocks, same communication records — for
    /// any worker count, including a single worker for the scatter-only
    /// (root never blocks) pattern.
    #[test]
    fn pooled_world_matches_thread_per_rank(
        p in 2usize..12,
        threads in 1usize..6,
        per in 1usize..16,
        seed in any::<u64>(),
    ) {
        // Deterministic per-seed heterogeneity on a coarse grid.
        let beta = |i: usize| 1e-4 * ((seed.wrapping_add(i as u64) % 5) + 1) as f64;
        let alpha = |i: usize| 1e-3 * ((seed.wrapping_mul(31).wrapping_add(i as u64) % 7) + 1) as f64;
        let root = p - 1;
        let model = TimeModel {
            link: (0..p).map(|i| CostFn::Linear { slope: if i == root { 0.0 } else { beta(i) } }).collect(),
            compute: (0..p).map(|i| CostFn::Linear { slope: alpha(i) }).collect(),
        };
        let counts = vec![per; p];
        let total = per * p;
        let data: Vec<u64> = (0..total as u64).collect();
        let body = |comm: &mut grid_scatter::minimpi::Comm| {
            comm.enable_tracing();
            let sendbuf = if comm.rank() == root { Some(&data[..]) } else { None };
            let mine = comm.scatterv(root, sendbuf, &counts);
            comm.model_compute(mine.len());
            (mine, comm.now().to_bits(), comm.take_trace())
        };
        let reference = run_world(p, WorldConfig::with_time(model.clone()), body);
        let pooled = run_world_pooled(p, threads, root, WorldConfig::with_time(model), body);
        prop_assert_eq!(&pooled, &reference);
    }

    /// The same bit-identity holds for the fault-tolerant scatter under
    /// seeded fault plans, recovered and degraded mode: payloads,
    /// clocks, traces, and incident logs all agree rank by rank.
    /// (`scatterv_ft` has the root blocking on acknowledgements, so the
    /// pool needs at least two workers.)
    #[test]
    fn pooled_ft_scatter_matches_thread_per_rank(
        p in 2usize..6,
        threads in 2usize..5,
        seed in any::<u64>(),
        degraded in any::<bool>(),
    ) {
        let betas = [2e-4, 5e-4, 1e-4, 3e-4, 0.0];
        let alphas = [4e-3, 2e-3, 8e-3, 3e-3, 5e-3];
        let procs: Vec<Processor> = (0..p)
            .map(|i| {
                if i == p - 1 {
                    Processor::linear("root", 0.0, alphas[i])
                } else {
                    Processor::linear(format!("w{i}"), betas[i], alphas[i])
                }
            })
            .collect();
        let counts = vec![30usize; p];
        let total: usize = counts.iter().sum();

        // Horizon for the plan: the fault-free makespan of this layout.
        let view: Vec<&Processor> = procs.iter().collect();
        let clean = grid_scatter::gridsim::fault::simulate_scatter_ft(
            &view, &counts, &FaultPlan::none(), None,
        ).unwrap();
        let faults = FaultPlan::seeded(seed, p, clean.makespan);
        let recovery = if degraded { None } else { Some(RecoveryConfig::default()) };
        let config = FtConfig {
            faults,
            recovery,
            procs: procs.clone(),
            item_bytes: ITEM_BYTES,
        };
        let data: Vec<u64> = (0..total as u64).collect();
        let body = |c: &mut grid_scatter::minimpi::Comm| {
            c.enable_tracing();
            let mine = c.scatterv_ft(
                &config,
                if c.rank() == p - 1 { Some(&data) } else { None },
                &counts,
            );
            c.model_compute_ft(&config, mine.len());
            (mine, c.now().to_bits(), c.take_trace(), c.take_incidents())
        };
        let reference = run_world(p, WorldConfig::default(), body);
        let pooled = run_world_pooled(p, threads, p - 1, WorldConfig::default(), body);
        prop_assert_eq!(&pooled, &reference);
    }
}

/// The synthetic sweep star itself: fast path == classic at a CI-sized
/// point, so the bench-gate equivalence is anchored by a plain test
/// too, not only by the committed document.
#[test]
fn synthetic_star_fast_path_matches_classic() {
    let p = 2000;
    let items = p as u64 * 10;
    let (beta, alpha) = synthetic_star(p);
    let counts = proportional_counts(&alpha, items);
    let comm: Vec<f64> = beta.iter().zip(&counts).map(|(b, &c)| b * c as f64).collect();
    let work: Vec<f64> = alpha.iter().zip(&counts).map(|(a, &c)| a * c as f64).collect();
    let fast = simulate_star(&comm, &work, false);

    let procs: Vec<Processor> = beta
        .iter()
        .zip(&alpha)
        .enumerate()
        .map(|(i, (&b, &a))| Processor::linear(format!("w{i}"), b, a))
        .collect();
    let view: Vec<&Processor> = procs.iter().collect();
    let counts_usize: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
    let classic =
        simulate_scatter_on(&view, &counts_usize, &SimConfig::ideal(), Engine::new());
    assert_eq!(fast.makespan.to_bits(), classic.makespan.to_bits());
    assert_eq!(fast.timeline, classic.timeline);
}
