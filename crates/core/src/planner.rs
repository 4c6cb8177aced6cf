//! High-level planner: picks an ordering, runs a distribution strategy,
//! and emits `MPI_Scatterv`-ready `counts`/`displs` — plus the
//! [`PlanCache`] that lets exact re-plans warm-start from a previous
//! solve's DP plane.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::cost::{Platform, Processor};
use crate::cost_table::{key_of, CostKey, CostTable};
use crate::distribution::{self, Timeline};
use crate::dp_kernel::DpPlane;
use crate::error::PlanError;
use crate::metrics::Registry;
use crate::obs::{PlanTiming, Trace, TraceSource};
use crate::ordering::{scatter_order, OrderPolicy};
use crate::parallel::{self, Kernel, ParallelOpts, WarmStart};

/// Which distribution algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Equal shares — the original `MPI_Scatter` behaviour (baseline).
    Uniform,
    /// Algorithm 1: exact DP, arbitrary non-negative costs, `O(p·n²)`.
    ExactBasic,
    /// Algorithm 2: exact DP, non-decreasing costs (default exact solver).
    Exact,
    /// Divide-and-conquer exact DP, `O(p·n log n)` for non-decreasing
    /// costs (falls back to Algorithm 1 otherwise) — see
    /// [`Kernel::Dc`].
    ExactDc,
    /// §3.3 guaranteed LP heuristic, affine costs.
    Heuristic,
    /// §4 closed form, linear costs, exact rational + rounding.
    ClosedForm,
}

/// The `(Tcomm, Tcomp)` identity of one processor, in scatter order —
/// what a cached DP column's validity depends on.
type CostSig = (CostKey, CostKey);

/// A cached DP plane, identified by the platform it was solved on.
#[derive(Debug)]
struct PlaneEntry {
    /// Hash over `sigs` — the "platform hash + cost kind" identity.
    key: u64,
    /// Cost-function identities in scatter order (root last).
    sigs: Vec<CostSig>,
    plane: DpPlane,
}

/// Sharded cache of recent exact solves' DP planes, enabling
/// **warm-started re-plans**.
///
/// DP column `i` depends only on the cost functions of processors
/// `i..p-1` (suffixes of the scatter order). When a re-plan runs over a
/// platform whose *trailing* processors are unchanged — exactly what
/// happens when fault recovery drops dead ranks but keeps the
/// survivors' relative order, root last — the cached plane's trailing
/// columns are bit-identical to what the new solve would recompute, so
/// the engine copies them and only computes the columns that actually
/// changed.
///
/// Entries are keyed by a hash of the ordered `(Tcomm, Tcomp)`
/// cost-function identities (coefficient bits for linear/affine costs,
/// shared-`Arc` identity for tabulated/custom ones, which survivor
/// clones share). Any platform change shows up as a signature mismatch
/// and invalidates the non-matching columns — a changed processor
/// invalidates every column at or above its scatter position, and a
/// fully changed platform misses outright. Planes are only stored (and
/// only reused) for **unpruned** solves, so every cached cell is a true
/// DP value.
///
/// # Sharding
///
/// [`PlanCache::new`] holds a single plane — the last exact solve wins,
/// which is exactly right for a CLI run or a fault-recovery session.
/// A multi-tenant service re-planning many *different* platforms
/// concurrently wants [`PlanCache::with_shards`]: each shard is an
/// independent slot under its own lock, and a platform is routed to a
/// shard by the hash of its **root** (last-in-scatter-order) cost
/// signature. Routing by the root rather than the whole platform is
/// deliberate — fault survivors keep the root last, so a re-plan over
/// survivors lands in the same shard as the original solve and still
/// finds the trailing columns it can reuse, while unrelated platforms
/// (different roots) stop evicting each other.
///
/// Plans through a cache are bit-identical in makespan to cold plans —
/// property-tested — and hits/misses are published as
/// `plan_cache_hits_total` / `plan_cache_misses_total`.
///
/// ```
/// use std::sync::Arc;
/// use gs_scatter::prelude::*;
///
/// let platform = Platform::new(vec![
///     Processor::linear("root", 0.0, 0.01),
///     Processor::linear("w1", 1e-4, 0.02),
///     Processor::linear("w2", 2e-4, 0.03),
/// ], 0).unwrap();
/// let cache = Arc::new(PlanCache::new());
/// let planner = Planner::new(platform)
///     .strategy(Strategy::Exact)
///     .plan_cache(Arc::clone(&cache));
///
/// let cold = planner.plan(2000).unwrap(); // nothing cached yet: a miss
/// let warm = planner.plan(1000).unwrap(); // reuses the cached plane
/// assert_eq!(cache.misses(), 1);
/// assert_eq!(cache.hits(), 1);
/// // Warm starts never change the answer, only the work done.
/// assert_eq!(warm.total_items(), 1000);
/// assert!(warm.predicted_makespan < cold.predicted_makespan);
/// ```
#[derive(Debug)]
pub struct PlanCache {
    /// One independently locked slot per shard; `shard_of` routes by the
    /// root cost signature.
    shards: Box<[Mutex<Option<PlaneEntry>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::with_shards(1)
    }
}

impl PlanCache {
    /// An empty single-shard cache (the last exact solve's plane wins).
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// An empty cache with `shards` independent slots (minimum 1),
    /// routed by root cost signature. Use more shards when many
    /// unrelated platforms share one cache — e.g. a planning daemon —
    /// so they stop evicting each other and contending on one lock.
    ///
    /// ```
    /// use gs_scatter::planner::PlanCache;
    /// assert_eq!(PlanCache::with_shards(16).shard_count(), 16);
    /// assert_eq!(PlanCache::with_shards(0).shard_count(), 1);
    /// ```
    pub fn with_shards(shards: usize) -> PlanCache {
        let shards = shards.max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(None)).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of independent shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lookups that warm-started a solve (at least one column reused).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing reusable.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The platform-hash key for a signature list.
    fn key(sigs: &[CostSig]) -> u64 {
        let mut h = DefaultHasher::new();
        sigs.hash(&mut h);
        h.finish()
    }

    /// The shard a platform belongs to: hash of the root (last)
    /// signature only, so survivor sub-platforms — which keep the root
    /// last — route to the same shard as the platform they came from.
    fn shard_of(&self, sigs: &[CostSig]) -> &Mutex<Option<PlaneEntry>> {
        let mut h = DefaultHasher::new();
        sigs.last().hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Takes the cached plane out when its trailing columns are
    /// reusable for a solve over `sigs` with `n` items, returning it
    /// with the number of trailing columns to reuse. The caller is
    /// expected to [`PlanCache::store`] the new solve's plane, refilling
    /// the slot.
    fn take_warm(&self, sigs: &[CostSig], n: usize) -> Option<(DpPlane, usize)> {
        let mut slot = self.shard_of(sigs).lock().expect("plan cache poisoned");
        let Some(entry) = slot.take() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            Registry::global()
                .counter("plan_cache_misses_total", "plan-cache lookups with nothing to reuse")
                .inc();
            return None;
        };
        let (p_new, p_old) = (sigs.len(), entry.sigs.len());
        // Fast path: an unchanged platform (same hash, then verified
        // equal) skips the per-column signature walk.
        let same_platform = entry.key == PlanCache::key(sigs) && entry.sigs == sigs;
        // The top column of either solve is never reusable (only its
        // cell `n` is ever computed, and the new one must be recomputed
        // anyway); `col_len` additionally guards partially computed
        // columns and residuals larger than the cached solve.
        let max = p_new.saturating_sub(1).min(p_old.saturating_sub(1));
        let mut reuse = 0;
        while reuse < max
            && (same_platform || entry.sigs[p_old - 1 - reuse] == sigs[p_new - 1 - reuse])
            && entry.plane.col_len[p_old - 1 - reuse] > n
        {
            reuse += 1;
        }
        if reuse == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            Registry::global()
                .counter("plan_cache_misses_total", "plan-cache lookups with nothing to reuse")
                .inc();
            *slot = Some(entry);
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Registry::global()
            .counter("plan_cache_hits_total", "plan-cache lookups that warm-started a solve")
            .inc();
        Some((entry.plane, reuse))
    }

    /// Stores the plane of a finished **unpruned** exact solve,
    /// replacing whatever the platform's shard held.
    fn store(&self, sigs: Vec<CostSig>, plane: DpPlane) {
        let shard = self.shard_of(&sigs);
        let entry = PlaneEntry { key: PlanCache::key(&sigs), sigs, plane };
        *shard.lock().expect("plan cache poisoned") = Some(entry);
    }
}

/// A complete scatter plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Items for each processor, **by platform index** (ready to be used
    /// as the `counts` argument of a scatterv).
    pub counts: Vec<usize>,
    /// Offset of each processor's block in the root buffer, by platform
    /// index. Blocks are laid out contiguously in scatter order, so the
    /// root transmits a single sequential sweep of its buffer.
    pub displs: Vec<usize>,
    /// The scatter order used (processor indices, root last).
    pub order: Vec<usize>,
    /// Predicted schedule (Eq. 1), in scatter order.
    pub predicted: Timeline,
    /// Predicted makespan (Eq. 2).
    pub predicted_makespan: f64,
    /// How long planning took (also attached to traces built from this
    /// plan, so reports can show planning cost next to the makespan).
    pub timing: PlanTiming,
}

impl Plan {
    /// Counts re-arranged into scatter order.
    pub fn counts_in_order(&self) -> Vec<usize> {
        self.order.iter().map(|&i| self.counts[i]).collect()
    }

    /// Total number of items distributed.
    pub fn total_items(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The predicted Eq. (1) schedule as an observability [`Trace`]
    /// (source [`TraceSource::Predicted`]), ranked in scatter order with
    /// the platform's processor names. `item_bytes` is the size of one
    /// data item, used to fill in per-transfer byte counts.
    pub fn predicted_trace(&self, platform: &Platform, item_bytes: u64) -> Trace {
        let names: Vec<&str> =
            self.order.iter().map(|&i| platform.procs()[i].name.as_str()).collect();
        let mut trace = Trace::from_timeline(
            TraceSource::Predicted,
            &names,
            &self.counts_in_order(),
            item_bytes,
            &self.predicted,
        );
        trace.plan_timing = Some(self.timing.clone());
        trace
    }
}

/// Builder tying a [`Platform`] to a [`Strategy`] and an [`OrderPolicy`].
///
/// ```
/// use gs_scatter::prelude::*;
/// let platform = Platform::new(vec![
///     Processor::linear("root", 0.0, 0.01),
///     Processor::linear("w1", 1e-4, 0.02),
/// ], 0).unwrap();
/// let plan = Planner::new(platform).strategy(Strategy::Exact).plan(1000).unwrap();
/// assert_eq!(plan.total_items(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Planner {
    platform: Platform,
    strategy: Strategy,
    policy: OrderPolicy,
    threads: usize,
    prune: bool,
    cache: Option<Arc<CostTable>>,
    plan_cache: Option<Arc<PlanCache>>,
}

impl Planner {
    /// Creates a planner with the paper's defaults: the guaranteed
    /// heuristic and descending-bandwidth ordering, single-threaded
    /// exact solves without pruning.
    pub fn new(platform: Platform) -> Self {
        Planner {
            platform,
            strategy: Strategy::Heuristic,
            policy: OrderPolicy::DescendingBandwidth,
            threads: 1,
            prune: false,
            cache: None,
            plan_cache: None,
        }
    }

    /// Selects the distribution strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the ordering policy.
    pub fn order_policy(mut self, policy: OrderPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Worker threads for the exact DP strategies (`0` = one per core,
    /// default 1). Results are bit-identical for any thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables upper-bound pruning for [`Strategy::Exact`] (bit-identical
    /// results; only effective with linear/affine costs, which seed the
    /// bound).
    pub fn prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Shares a [`CostTable`] across planners, so repeated plans on the
    /// same cost functions (e.g. root-selection scans) tabulate once.
    pub fn cache(mut self, table: Arc<CostTable>) -> Self {
        self.cache = Some(table);
        self
    }

    /// Shares a [`PlanCache`]: exact strategies store their DP plane
    /// into it after every unpruned solve, and later plans whose
    /// platform shares a trailing suffix (e.g. re-plans over fault
    /// survivors) warm-start from the cached columns. No effect on
    /// non-exact strategies or pruned solves; makespans are identical
    /// with or without the cache.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// The platform being planned for.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Computes a plan for `n` items.
    pub fn plan(&self, n: usize) -> Result<Plan, PlanError> {
        let order = scatter_order(&self.platform, self.policy);
        self.plan_with_order(n, order)
    }

    /// Computes a plan for `n` items using an explicit scatter order
    /// (a permutation of processor indices, root last).
    pub fn plan_with_order(&self, n: usize, order: Vec<usize>) -> Result<Plan, PlanError> {
        let view = self.platform.ordered(&order);
        let start = Instant::now();
        let fresh_table;
        let table = match &self.cache {
            Some(shared) => shared.as_ref(),
            None => {
                fresh_table = CostTable::new();
                &fresh_table
            }
        };
        let opts = ParallelOpts { threads: self.threads, prune: self.prune, chunk: 0 };
        let (counts_ordered, timing): (Vec<usize>, PlanTiming) = match self.strategy {
            Strategy::Uniform => {
                let counts = distribution::uniform_distribution(view.len(), n);
                (counts, PlanTiming::simple("uniform", start.elapsed().as_secs_f64()))
            }
            Strategy::ExactBasic => self.exact(Kernel::Basic, table, &view, n, &opts)?,
            Strategy::Exact => self.exact(Kernel::Optimized, table, &view, n, &opts)?,
            Strategy::ExactDc => self.exact(Kernel::Dc, table, &view, n, &opts)?,
            Strategy::Heuristic => {
                let counts = crate::heuristic::heuristic_distribution(&view, n)?.counts;
                (counts, PlanTiming::simple("heuristic", start.elapsed().as_secs_f64()))
            }
            Strategy::ClosedForm => {
                let counts = crate::closed_form::closed_form_distribution(&view, n)?.counts;
                (counts, PlanTiming::simple("closed-form", start.elapsed().as_secs_f64()))
            }
        };
        let predicted = distribution::timeline(&view, &counts_ordered);
        let predicted_makespan = predicted.makespan();

        // Map ordered counts back to platform indices and lay out blocks
        // contiguously in send (scatter) order.
        let p = self.platform.len();
        let mut counts = vec![0usize; p];
        let mut displs = vec![0usize; p];
        let mut offset = 0usize;
        for (pos, &idx) in order.iter().enumerate() {
            counts[idx] = counts_ordered[pos];
            displs[idx] = offset;
            offset += counts_ordered[pos];
        }
        debug_assert_eq!(offset, n);

        Ok(Plan { counts, displs, order, predicted, predicted_makespan, timing })
    }

    /// Runs one exact DP strategy, going through the [`PlanCache`] when
    /// one is attached (and pruning is off — cached planes must hold
    /// true DP values in every cell).
    fn exact(
        &self,
        kernel: Kernel,
        table: &CostTable,
        view: &[&Processor],
        n: usize,
        opts: &ParallelOpts,
    ) -> Result<(Vec<usize>, PlanTiming), PlanError> {
        let cache = match &self.plan_cache {
            Some(c) if !self.prune => c,
            _ => {
                let (sol, timing) = parallel::solve(kernel, table, view, n, opts)?;
                return Ok((sol.counts, timing));
            }
        };
        let sigs: Vec<CostSig> =
            view.iter().map(|pr| (key_of(&pr.comm), key_of(&pr.comp))).collect();
        let taken = cache.take_warm(&sigs, n);
        let warm = taken.as_ref().map(|(plane, reuse)| WarmStart { plane, reuse: *reuse });
        let (sol, timing, plane) =
            parallel::solve_full(kernel, table, view, n, opts, warm.as_ref())?;
        cache.store(sigs, plane);
        Ok((sol.counts, timing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Processor;

    fn platform() -> Platform {
        Platform::new(
            vec![
                Processor::linear("root", 0.0, 0.009288),
                Processor::linear("caseb", 1.00e-5, 0.004629),
                Processor::linear("merlin", 8.15e-5, 0.003976),
                Processor::linear("seven", 2.10e-5, 0.016156),
            ],
            0,
        )
        .unwrap()
    }

    #[test]
    fn all_strategies_distribute_everything() {
        let n = 5000;
        for strategy in [
            Strategy::Uniform,
            Strategy::ExactBasic,
            Strategy::Exact,
            Strategy::ExactDc,
            Strategy::Heuristic,
            Strategy::ClosedForm,
        ] {
            let plan = Planner::new(platform()).strategy(strategy).plan(n).unwrap();
            assert_eq!(plan.total_items(), n, "{strategy:?}");
            assert_eq!(*plan.order.last().unwrap(), 0, "{strategy:?}: root last");
        }
    }

    #[test]
    fn displs_are_contiguous_in_scatter_order() {
        let plan = Planner::new(platform())
            .strategy(Strategy::Heuristic)
            .plan(10_000)
            .unwrap();
        let mut offset = 0;
        for &idx in &plan.order {
            assert_eq!(plan.displs[idx], offset);
            offset += plan.counts[idx];
        }
        assert_eq!(offset, 10_000);
    }

    #[test]
    fn balanced_beats_uniform() {
        let n = 50_000;
        let uniform = Planner::new(platform()).strategy(Strategy::Uniform).plan(n).unwrap();
        let balanced = Planner::new(platform()).strategy(Strategy::Heuristic).plan(n).unwrap();
        assert!(
            balanced.predicted_makespan < uniform.predicted_makespan * 0.8,
            "balanced {} should clearly beat uniform {}",
            balanced.predicted_makespan,
            uniform.predicted_makespan
        );
    }

    #[test]
    fn exact_and_heuristic_agree_closely() {
        let n = 2_000;
        let exact = Planner::new(platform()).strategy(Strategy::Exact).plan(n).unwrap();
        let heur = Planner::new(platform()).strategy(Strategy::Heuristic).plan(n).unwrap();
        assert!(exact.predicted_makespan <= heur.predicted_makespan + 1e-9);
        let rel =
            (heur.predicted_makespan - exact.predicted_makespan) / exact.predicted_makespan;
        assert!(rel < 1e-2, "relative gap {rel}");
    }

    #[test]
    fn descending_no_worse_than_ascending() {
        let n = 20_000;
        let desc = Planner::new(platform())
            .strategy(Strategy::ClosedForm)
            .order_policy(OrderPolicy::DescendingBandwidth)
            .plan(n)
            .unwrap();
        let asc = Planner::new(platform())
            .strategy(Strategy::ClosedForm)
            .order_policy(OrderPolicy::AscendingBandwidth)
            .plan(n)
            .unwrap();
        assert!(desc.predicted_makespan <= asc.predicted_makespan + 1e-9);
    }

    #[test]
    fn counts_in_order_round_trips() {
        let plan = Planner::new(platform()).strategy(Strategy::Uniform).plan(103).unwrap();
        let in_order = plan.counts_in_order();
        for (pos, &idx) in plan.order.iter().enumerate() {
            assert_eq!(in_order[pos], plan.counts[idx]);
        }
    }

    #[test]
    fn predicted_trace_reflects_the_plan() {
        let plat = platform();
        let plan = Planner::new(plat.clone()).strategy(Strategy::Exact).plan(5000).unwrap();
        let trace = plan.predicted_trace(&plat, 8);
        trace.validate().unwrap();
        assert_eq!(trace.makespan(), plan.predicted_makespan);
        let summary = trace.summarize().unwrap();
        assert_eq!(summary.total_bytes, 5000 * 8);
        // Scatter order and names line up.
        for (pos, &idx) in plan.order.iter().enumerate() {
            assert_eq!(trace.names[pos], plat.procs()[idx].name);
        }
    }

    #[test]
    fn threads_and_pruning_do_not_change_the_plan() {
        let n = 3000;
        let base = Planner::new(platform()).strategy(Strategy::Exact).plan(n).unwrap();
        let table = Arc::new(CostTable::new());
        let tuned = Planner::new(platform())
            .strategy(Strategy::Exact)
            .threads(4)
            .prune(true)
            .cache(Arc::clone(&table))
            .plan(n)
            .unwrap();
        assert_eq!(tuned.counts, base.counts);
        assert_eq!(tuned.predicted_makespan.to_bits(), base.predicted_makespan.to_bits());
        assert_eq!(tuned.timing.strategy, "exact");
        assert_eq!(tuned.timing.threads, 4);
        assert!(tuned.timing.pruned, "linear costs seed a pruning bound");
        assert!(!table.is_empty(), "shared cache was populated");
    }

    #[test]
    fn every_plan_carries_timing() {
        for (strategy, name) in [
            (Strategy::Uniform, "uniform"),
            (Strategy::ExactBasic, "exact-basic"),
            (Strategy::Exact, "exact"),
            (Strategy::ExactDc, "exact-dc"),
            (Strategy::Heuristic, "heuristic"),
            (Strategy::ClosedForm, "closed-form"),
        ] {
            let plan = Planner::new(platform()).strategy(strategy).plan(500).unwrap();
            assert_eq!(plan.timing.strategy, name);
            assert!(plan.timing.total_secs >= 0.0);
            let trace = plan.predicted_trace(&platform(), 8);
            assert_eq!(trace.plan_timing.as_ref().unwrap().strategy, name);
        }
    }

    #[test]
    fn exact_dc_plans_match_exact_plans() {
        for n in [0usize, 1, 500, 5000] {
            let dc = Planner::new(platform()).strategy(Strategy::ExactDc).plan(n).unwrap();
            let exact = Planner::new(platform()).strategy(Strategy::Exact).plan(n).unwrap();
            assert_eq!(dc.counts, exact.counts, "n={n}");
            assert_eq!(
                dc.predicted_makespan.to_bits(),
                exact.predicted_makespan.to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn plan_cache_warm_start_is_invisible_in_the_result() {
        let plat = platform();
        let cache = Arc::new(PlanCache::new());
        // Prime the cache with a full-platform solve.
        let full = Planner::new(plat.clone())
            .strategy(Strategy::Exact)
            .plan_cache(Arc::clone(&cache))
            .plan(4000)
            .unwrap();
        assert_eq!(cache.misses(), 1, "first lookup has nothing to reuse");
        // Survivor platform: drop the first worker in scatter order, so
        // the whole remaining suffix of DP columns is reusable.
        let procs = plat.procs();
        let surv = Platform::new(
            vec![procs[0].clone(), procs[2].clone(), procs[3].clone()],
            0,
        )
        .unwrap();
        let cold = Planner::new(surv.clone()).strategy(Strategy::Exact).plan(1500).unwrap();
        let warm = Planner::new(surv)
            .strategy(Strategy::Exact)
            .plan_cache(Arc::clone(&cache))
            .plan(1500)
            .unwrap();
        assert_eq!(cache.hits(), 1, "survivor suffix must be reusable");
        assert_eq!(warm.counts, cold.counts);
        assert_eq!(warm.predicted_makespan.to_bits(), cold.predicted_makespan.to_bits());
        let _ = full;
    }

    #[test]
    fn plan_cache_misses_on_platform_change() {
        let cache = Arc::new(PlanCache::new());
        Planner::new(platform())
            .strategy(Strategy::ExactDc)
            .plan_cache(Arc::clone(&cache))
            .plan(1000)
            .unwrap();
        // A different root changes every suffix: nothing is reusable.
        let other = Platform::new(
            vec![
                Processor::linear("other-root", 0.0, 0.123),
                Processor::linear("other-w", 1e-4, 0.456),
            ],
            0,
        )
        .unwrap();
        Planner::new(other)
            .strategy(Strategy::ExactDc)
            .plan_cache(Arc::clone(&cache))
            .plan(500)
            .unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn sharded_cache_keeps_unrelated_platforms_apart() {
        // With enough shards, two platforms with different roots no
        // longer evict each other: plan A, plan B, then re-plan A —
        // A's plane must still be there (a hit), which the single-slot
        // cache cannot deliver.
        let other = Platform::new(
            vec![
                Processor::linear("other-root", 0.0, 0.123),
                Processor::linear("other-w", 1e-4, 0.456),
            ],
            0,
        )
        .unwrap();
        for shards in [1usize, 64] {
            let cache = Arc::new(PlanCache::with_shards(shards));
            let a = Planner::new(platform())
                .strategy(Strategy::Exact)
                .plan_cache(Arc::clone(&cache));
            let b = Planner::new(other.clone())
                .strategy(Strategy::Exact)
                .plan_cache(Arc::clone(&cache));
            a.plan(2000).unwrap();
            b.plan(2000).unwrap();
            let replan = a.plan(1000).unwrap();
            if shards > 1 {
                // Root hashes differ, so A and B land in different
                // shards (true for these fixed coefficients) and the
                // re-plan warm-starts.
                assert_eq!(cache.hits(), 1, "shards={shards}");
            }
            let cold = Planner::new(platform()).strategy(Strategy::Exact).plan(1000).unwrap();
            assert_eq!(replan.counts, cold.counts, "shards={shards}");
            assert_eq!(
                replan.predicted_makespan.to_bits(),
                cold.predicted_makespan.to_bits(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn sharded_cache_preserves_survivor_warm_starts() {
        // The shard is chosen by the root signature, so a survivor
        // platform (root kept last) must land in the same shard as the
        // full platform and warm-start, whatever the shard count.
        let plat = platform();
        let cache = Arc::new(PlanCache::with_shards(64));
        Planner::new(plat.clone())
            .strategy(Strategy::Exact)
            .plan_cache(Arc::clone(&cache))
            .plan(4000)
            .unwrap();
        let procs = plat.procs();
        let surv =
            Platform::new(vec![procs[0].clone(), procs[2].clone(), procs[3].clone()], 0)
                .unwrap();
        Planner::new(surv)
            .strategy(Strategy::Exact)
            .plan_cache(Arc::clone(&cache))
            .plan(1500)
            .unwrap();
        assert_eq!(cache.hits(), 1, "survivor re-plan must hit across shards");
    }

    /// The Send/Sync audit the serve daemon relies on: everything a
    /// request handler shares across threads must be thread-safe *by
    /// construction*, checked here at compile time.
    #[test]
    fn service_shared_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Platform>();
        assert_send_sync::<Processor>();
        assert_send_sync::<crate::cost::CostFn>();
        assert_send_sync::<Plan>();
        assert_send_sync::<Planner>();
        assert_send_sync::<PlanCache>();
        assert_send_sync::<CostTable>();
        assert_send_sync::<Registry>();
        assert_send_sync::<Trace>();
        assert_send_sync::<PlanError>();
    }

    #[test]
    fn explicit_order() {
        let plan = Planner::new(platform())
            .strategy(Strategy::Exact)
            .plan_with_order(1000, vec![3, 2, 1, 0])
            .unwrap();
        assert_eq!(plan.order, vec![3, 2, 1, 0]);
        assert_eq!(plan.total_items(), 1000);
    }
}
