//! Fault injection and recovery for scatter operations.
//!
//! The paper's schedule (Eq. 1–2) is purely static: it assumes every
//! processor and link behaves exactly as measured. This module is the
//! shared vocabulary for the *degraded-grid* story told in
//! `docs/robustness.md`:
//!
//! * [`FaultPlan`] — a deterministic, seedable description of what goes
//!   wrong (crashes, transient send failures, compute slowdowns, link
//!   degradations), parsable from the CLI `--faults` spec grammar;
//! * [`RecoveryConfig`] — the detection/recovery policy: per-send
//!   timeouts derived from the predicted `Tcomm` of Eq. (1), bounded
//!   retry with exponential backoff, and the re-plan strategy used to
//!   redistribute undelivered items over the survivors;
//! * [`FaultSession`] — the mutable *oracle* that decides the fate of
//!   each send attempt. The session also owns a [`PlanCache`] holding
//!   the DP plane of the last exact solve, so repeated re-plans within
//!   one recovery episode warm-start instead of recomputing everything;
//! * [`replan_residual`] (and the cache-aware [`replan_residual_with`])
//!   — the re-plan step itself: an optimal distribution of the residual
//!   workload over the surviving processors (preserving their relative
//!   scatter order), via the existing [`Planner`]. The result is always
//!   *identical* to a from-scratch solve — property-tested — but with a
//!   [`PlanCache`] attached the exact strategies reuse the cached DP
//!   columns of the trailing survivors and only recompute what the
//!   failure actually invalidated. The cache invalidates itself on any
//!   platform change: cached columns are keyed by the cost-function
//!   identities of the trailing processors, so a survivor set whose
//!   suffix does not match the cached solve (different processors,
//!   different cost kind, or a re-measured platform) simply misses and
//!   the solve runs cold;
//! * [`scatter_schedule`] — the root's round loop: send every block
//!   through the oracle, re-plan what was not delivered, repeat. Both
//!   `gs-gridsim`'s fault simulator and `gs-minimpi`'s fault-tolerant
//!   runtime replay the one [`ScatterSchedule`] it returns, so the two
//!   produce bit-identical schedules.
//!
//! Everything here is deterministic: the same plan, platform and
//! recovery policy always produce the same recovery schedule, with or
//! without warm-starting.

use std::sync::Arc;

use crate::cost::{CostFn, Platform, Processor};
use crate::error::PlanError;
use crate::obs::span;
use crate::obs::{Incident, IncidentKind};
use crate::ordering::OrderPolicy;
use crate::planner::{PlanCache, Planner, Strategy};

// ---- fault descriptions ---------------------------------------------------

/// One kind of injected misbehaviour. Ranks are *scatter positions*
/// (0-based, root last), matching trace rank numbering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop: the rank dies at the given absolute time. Transfers
    /// that would complete after `at` are refused (never acknowledged);
    /// blocks fully delivered before `at` still compute to completion.
    Crash {
        /// Absolute crash time, seconds.
        at: f64,
    },
    /// The rank's next `failures` incoming transfers are silently lost
    /// (the classic lossy-link fault: the sender only learns via
    /// timeout). The budget is consumed per failed attempt.
    Transient {
        /// Number of transfers to drop before behaving again.
        failures: u32,
    },
    /// From time `start` on, this rank computes `factor`× slower than
    /// its measured `Tcomp` (e.g. a co-scheduled job steals the CPU).
    Slowdown {
        /// Absolute onset time, seconds.
        start: f64,
        /// Multiplicative compute stretch, `> 0` (values `< 1` model a
        /// speed-up).
        factor: f64,
    },
    /// Every transfer to this rank takes `factor`× its nominal `Tcomm`
    /// for the whole run (congested or renegotiated link).
    LinkDegrade {
        /// Multiplicative transfer stretch, `> 0`.
        factor: f64,
    },
}

/// A fault bound to a rank (scatter position).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Scatter position the fault applies to (root is last).
    pub rank: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic set of injected faults for one scatter run.
///
/// Build one with [`FaultPlan::parse`] (CLI spec grammar),
/// [`FaultPlan::seeded`] (pseudo-random but reproducible), or push
/// [`Fault`]s directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The injected faults, in no particular order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (nothing goes wrong).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` iff the plan injects no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses the CLI fault-spec grammar. Clauses are separated by `,`
    /// or `;`; `<who>` is a processor name from `names` (scatter order)
    /// or a 0-based scatter position; times ending in `%` are fractions
    /// of `horizon` (normally the predicted makespan):
    ///
    /// ```text
    /// crash:<who>@<t>          fail-stop at time t
    /// flaky:<who>:<k>          lose the next k transfers to <who>
    /// slow:<who>:<f>[@<t>]     compute f× slower from time t (default 0)
    /// link:<who>:<f>           transfers to <who> take f× longer
    /// seed:<n>                 merge FaultPlan::seeded(n, p, horizon)
    /// ```
    ///
    /// ```
    /// use gs_scatter::fault::{FaultPlan, FaultKind};
    /// let plan = FaultPlan::parse("crash:w1@50%, flaky:w2:1", &["w1", "w2", "root"], 10.0)
    ///     .unwrap();
    /// assert_eq!(plan.faults[0].kind, FaultKind::Crash { at: 5.0 });
    /// ```
    pub fn parse(spec: &str, names: &[&str], horizon: f64) -> Result<FaultPlan, PlanError> {
        let err = |msg: String| Err(PlanError::FaultSpec(msg));
        let p = names.len();
        let who = |s: &str| -> Result<usize, PlanError> {
            if let Some(i) = names.iter().position(|n| *n == s) {
                return Ok(i);
            }
            match s.parse::<usize>() {
                Ok(i) if i < p => Ok(i),
                Ok(i) => Err(PlanError::FaultSpec(format!(
                    "rank {i} out of range (p = {p})"
                ))),
                Err(_) => Err(PlanError::FaultSpec(format!(
                    "unknown processor `{s}` (names: {})",
                    names.join(", ")
                ))),
            }
        };
        let time = |s: &str| -> Result<f64, PlanError> {
            let (txt, scale) = match s.strip_suffix('%') {
                Some(frac) => (frac, horizon / 100.0),
                None => (s, 1.0),
            };
            match txt.parse::<f64>() {
                Ok(x) if x.is_finite() && x >= 0.0 => Ok(x * scale),
                _ => Err(PlanError::FaultSpec(format!("bad time `{s}`"))),
            }
        };
        let factor = |s: &str| -> Result<f64, PlanError> {
            match s.parse::<f64>() {
                Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
                _ => Err(PlanError::FaultSpec(format!("bad factor `{s}` (must be > 0)"))),
            }
        };

        let mut plan = FaultPlan::none();
        for clause in spec.split([',', ';']).map(str::trim).filter(|c| !c.is_empty()) {
            let mut parts = clause.splitn(2, ':');
            let verb = parts.next().unwrap_or_default();
            let rest = parts.next().unwrap_or_default();
            match verb {
                "crash" => {
                    let (w, t) = match rest.split_once('@') {
                        Some(pair) => pair,
                        None => return err(format!("`{clause}`: expected crash:<who>@<t>")),
                    };
                    plan.faults.push(Fault {
                        rank: who(w)?,
                        kind: FaultKind::Crash { at: time(t)? },
                    });
                }
                "flaky" => {
                    let (w, k) = match rest.rsplit_once(':') {
                        Some(pair) => pair,
                        None => return err(format!("`{clause}`: expected flaky:<who>:<k>")),
                    };
                    let failures: u32 = k
                        .parse()
                        .map_err(|_| PlanError::FaultSpec(format!("bad count `{k}`")))?;
                    plan.faults.push(Fault {
                        rank: who(w)?,
                        kind: FaultKind::Transient { failures },
                    });
                }
                "slow" => {
                    let (w, fx) = match rest.rsplit_once(':') {
                        Some(pair) => pair,
                        None => return err(format!("`{clause}`: expected slow:<who>:<f>[@<t>]")),
                    };
                    let (f, t) = match fx.split_once('@') {
                        Some((f, t)) => (factor(f)?, time(t)?),
                        None => (factor(fx)?, 0.0),
                    };
                    plan.faults.push(Fault {
                        rank: who(w)?,
                        kind: FaultKind::Slowdown { start: t, factor: f },
                    });
                }
                "link" => {
                    let (w, f) = match rest.rsplit_once(':') {
                        Some(pair) => pair,
                        None => return err(format!("`{clause}`: expected link:<who>:<f>")),
                    };
                    plan.faults.push(Fault {
                        rank: who(w)?,
                        kind: FaultKind::LinkDegrade { factor: factor(f)? },
                    });
                }
                "seed" => {
                    let seed: u64 = rest
                        .parse()
                        .map_err(|_| PlanError::FaultSpec(format!("bad seed `{rest}`")))?;
                    plan.faults.extend(FaultPlan::seeded(seed, p, horizon).faults);
                }
                _ => return err(format!("unknown clause `{clause}`")),
            }
        }
        Ok(plan)
    }

    /// A reproducible pseudo-random plan for a `p`-rank scatter whose
    /// fault times span `[0, horizon]`. The root (last position) never
    /// crashes or drops transfers. Uses a self-contained xorshift64*
    /// generator, so the core crate stays dependency-free and the plan
    /// is identical on every platform.
    pub fn seeded(seed: u64, p: usize, horizon: f64) -> FaultPlan {
        let mut state = seed.wrapping_mul(2685821657736338717).max(1);
        let mut next_u64 = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(2685821657736338717)
        };
        // Uniform in [0, 1): use the top 53 bits.
        let mut uniform = move || (next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let mut plan = FaultPlan::none();
        if p < 2 {
            return plan;
        }
        for rank in 0..p {
            let root = rank == p - 1;
            let roll = uniform();
            if roll < 0.15 && !root {
                plan.faults.push(Fault {
                    rank,
                    kind: FaultKind::Crash { at: (0.1 + 0.8 * uniform()) * horizon },
                });
            } else if roll < 0.35 && !root {
                plan.faults.push(Fault {
                    rank,
                    kind: FaultKind::Transient { failures: 1 + (uniform() * 2.0) as u32 },
                });
            } else if roll < 0.50 {
                plan.faults.push(Fault {
                    rank,
                    kind: FaultKind::Slowdown {
                        start: 0.5 * uniform() * horizon,
                        factor: 1.5 + 2.5 * uniform(),
                    },
                });
            } else if roll < 0.60 && !root {
                plan.faults.push(Fault {
                    rank,
                    kind: FaultKind::LinkDegrade { factor: 1.5 + 3.5 * uniform() },
                });
            }
        }
        plan
    }

    /// Wall-clock duration of a compute phase on `rank` starting at
    /// `start` whose fault-free duration is `nominal` — stretched
    /// piecewise if the rank's slowdown sets in before the phase ends.
    pub fn stretched_compute(&self, rank: usize, start: f64, nominal: f64) -> f64 {
        match self.slowdown(rank) {
            None => nominal,
            Some((onset, factor)) => {
                if start >= onset {
                    nominal * factor
                } else if start + nominal <= onset {
                    nominal
                } else {
                    // Runs clean until the onset, stretched after.
                    let clean = onset - start;
                    clean + (nominal - clean) * factor
                }
            }
        }
    }

    /// The plan with all absolute times (crash, slowdown onset) shifted
    /// by `dt` (clamped at 0) — useful when replaying one plan against a
    /// round that starts at a different origin.
    pub fn shifted(&self, dt: f64) -> FaultPlan {
        let mut plan = self.clone();
        for f in &mut plan.faults {
            match &mut f.kind {
                FaultKind::Crash { at } => *at = (*at + dt).max(0.0),
                FaultKind::Slowdown { start, .. } => *start = (*start + dt).max(0.0),
                FaultKind::Transient { .. } | FaultKind::LinkDegrade { .. } => {}
            }
        }
        plan
    }

    /// Checks the plan against a `p`-rank scatter: ranks in range,
    /// factors positive and finite, times finite, and no crash or
    /// transient fault on the root (last position) — the root is the
    /// sender; surviving a root failure is out of scope (see
    /// `docs/robustness.md`).
    pub fn validate(&self, p: usize) -> Result<(), PlanError> {
        let err = |msg: String| Err(PlanError::FaultSpec(msg));
        for f in &self.faults {
            if f.rank >= p {
                return err(format!("fault rank {} out of range (p = {p})", f.rank));
            }
            match f.kind {
                FaultKind::Crash { at } => {
                    if !at.is_finite() || at < 0.0 {
                        return err(format!("bad crash time {at}"));
                    }
                    if f.rank == p - 1 {
                        return err("the root (last scatter position) cannot crash".into());
                    }
                }
                FaultKind::Transient { .. } => {
                    if f.rank == p - 1 {
                        return err("the root cannot drop transfers to itself".into());
                    }
                }
                FaultKind::Slowdown { start, factor } => {
                    if !start.is_finite() || start < 0.0 || !factor.is_finite() || factor <= 0.0 {
                        return err(format!("bad slowdown ({start}, {factor})"));
                    }
                }
                FaultKind::LinkDegrade { factor } => {
                    if !factor.is_finite() || factor <= 0.0 {
                        return err(format!("bad link factor {factor}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Earliest crash time of `rank`, if it crashes at all.
    pub fn crash_time(&self, rank: usize) -> Option<f64> {
        self.faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::Crash { at } if f.rank == rank => Some(at),
                _ => None,
            })
            .fold(None, |acc: Option<f64>, at| Some(acc.map_or(at, |a| a.min(at))))
    }

    /// Total number of transfers `rank` will drop before behaving.
    pub fn transient_budget(&self, rank: usize) -> u32 {
        self.faults
            .iter()
            .map(|f| match f.kind {
                FaultKind::Transient { failures } if f.rank == rank => failures,
                _ => 0,
            })
            .sum()
    }

    /// The slowdown `(onset, factor)` affecting `rank`, if any (the one
    /// with the earliest onset wins if several are given).
    pub fn slowdown(&self, rank: usize) -> Option<(f64, f64)> {
        self.faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::Slowdown { start, factor } if f.rank == rank => Some((start, factor)),
                _ => None,
            })
            .fold(None, |acc: Option<(f64, f64)>, sf| {
                Some(match acc {
                    Some(best) if best.0 <= sf.0 => best,
                    _ => sf,
                })
            })
    }

    /// Combined multiplicative stretch on transfers to `rank` (product
    /// of all link-degrade factors; `1.0` when unaffected).
    pub fn link_factor(&self, rank: usize) -> f64 {
        self.faults
            .iter()
            .map(|f| match f.kind {
                FaultKind::LinkDegrade { factor } if f.rank == rank => factor,
                _ => 1.0,
            })
            .product()
    }

    /// The platform as it would be *observed* at time `t` under this
    /// plan: compute costs of ranks whose slowdown has set in are
    /// stretched by their factor, and link costs by their degrade
    /// factor. `order` maps scatter positions (the plan's rank space)
    /// back to platform indices. Crashes and transients are not
    /// representable as costs and are ignored here — this is the input
    /// an *adaptive* planner would re-measure, not the failure model.
    pub fn degraded_platform(
        &self,
        platform: &Platform,
        order: &[usize],
        t: f64,
    ) -> Result<Platform, PlanError> {
        let mut procs = platform.procs().to_vec();
        for (pos, &idx) in order.iter().enumerate() {
            if let Some((start, factor)) = self.slowdown(pos) {
                if t >= start {
                    procs[idx].comp = scale_cost(&procs[idx].comp, factor);
                }
            }
            let lf = self.link_factor(pos);
            if lf != 1.0 {
                procs[idx].comm = scale_cost(&procs[idx].comm, lf);
            }
        }
        Platform::new(procs, platform.root())
    }
}

/// A cost function scaled by a constant factor, preserving the variant
/// (so linearity/affinity — and with them the fast strategies — survive
/// the scaling).
fn scale_cost(f: &CostFn, k: f64) -> CostFn {
    match f {
        CostFn::Zero => {
            CostFn::Zero // k · 0 = 0
        }
        CostFn::Linear { slope } => CostFn::Linear { slope: slope * k },
        CostFn::Affine { intercept, slope } => {
            CostFn::Affine { intercept: intercept * k, slope: slope * k }
        }
        CostFn::Table { points } => {
            CostFn::table(points.iter().map(|&(x, y)| (x, y * k)).collect())
        }
        CostFn::Custom(inner) => {
            let inner = inner.clone();
            CostFn::Custom(std::sync::Arc::new(move |x| inner(x) * k))
        }
    }
}

// ---- recovery policy ------------------------------------------------------

/// Detection and recovery policy of the fault-tolerant scatter.
///
/// Formulas (derived in `docs/robustness.md` from Eq. 1):
///
/// * timeout for a block of `x` items to rank `i`:
///   `timeout = timeout_factor · Tcomm(i, x) + timeout_floor`;
/// * idle before retry `k` (1-based):
///   `backoff(k) = backoff_base · timeout · backoff_factor^(k−1)`;
/// * a rank is declared **dead** after `1 + max_retries` failed
///   attempts; its undelivered items join the residual pool and are
///   re-planned over the survivors with `replan_strategy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Multiple of the predicted `Tcomm` before a send is declared lost
    /// (κ in the docs).
    pub timeout_factor: f64,
    /// Additive floor on the timeout, seconds (τ₀) — keeps tiny blocks
    /// from timing out on scheduling noise.
    pub timeout_floor: f64,
    /// Retries after the first failed attempt before declaring a rank
    /// dead.
    pub max_retries: u32,
    /// Backoff before the first retry, as a fraction of the timeout.
    pub backoff_base: f64,
    /// Multiplicative growth of the backoff per retry.
    pub backoff_factor: f64,
    /// Strategy used to redistribute the residual workload (must accept
    /// the platform's cost model). Exact strategies re-plan through the
    /// session's [`PlanCache`] when the call site passes one (see
    /// [`replan_residual_with`]): the solve warm-starts from the cached
    /// DP columns of the unchanged trailing survivors, with bit-identical
    /// results. The cache invalidates automatically whenever the
    /// platform changes — only columns whose trailing cost-function
    /// signatures still match are ever reused.
    pub replan_strategy: Strategy,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            timeout_factor: 3.0,
            timeout_floor: 1e-3,
            max_retries: 2,
            backoff_base: 0.5,
            backoff_factor: 2.0,
            replan_strategy: Strategy::Exact,
        }
    }
}

impl RecoveryConfig {
    /// The per-send timeout for a block whose nominal transfer time
    /// (Eq. 1's `Tcomm(i, n_i)`) is `nominal_dt`.
    pub fn timeout(&self, nominal_dt: f64) -> f64 {
        self.timeout_factor * nominal_dt + self.timeout_floor
    }

    /// Idle inserted before retry `k` (1-based) of a send with the
    /// given timeout.
    pub fn backoff(&self, timeout: f64, k: u32) -> f64 {
        self.backoff_base * timeout * self.backoff_factor.powi(k as i32 - 1)
    }
}

// ---- the send oracle ------------------------------------------------------

/// Why a send attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// The transfer was silently dropped (transient fault); the sender
    /// waited out the full timeout.
    Transient,
    /// The receiver crashed before the transfer completed; the sender
    /// waited out the full timeout.
    Crash,
    /// The (possibly degraded) transfer could not finish within the
    /// timeout.
    Timeout,
}

impl FailureCause {
    /// Short human-readable label (used in incident `info` strings).
    pub fn as_str(self) -> &'static str {
        match self {
            FailureCause::Transient => "transient loss",
            FailureCause::Crash => "receiver crashed",
            FailureCause::Timeout => "timed out",
        }
    }
}

/// One send attempt: the interval the root's port was held, and how the
/// attempt ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempt {
    /// When the attempt started (port acquired).
    pub start: f64,
    /// When the port was released (delivery, or timeout expiry).
    pub end: f64,
    /// `None` iff the attempt delivered the block.
    pub failure: Option<FailureCause>,
}

/// The outcome of sending one block through the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct SendOutcome {
    /// Every attempt, in time order (at least one).
    pub attempts: Vec<Attempt>,
    /// `(start, end)` of the successful transfer, if any.
    pub delivered: Option<(f64, f64)>,
    /// When the root's outgoing port becomes free again (end of the
    /// last attempt; backoff idles *between* attempts are included in
    /// the gap up to the next attempt's `start`).
    pub port_free: f64,
    /// `true` iff the receiver was declared dead by this send.
    pub declared_dead: bool,
}

/// Mutable per-run fault state: the oracle both the simulator and the
/// minimpi runtime consult for every send and compute.
///
/// Determinism contract: given the same [`FaultPlan`], the same
/// sequence of `send` calls (same ranks, times and nominal durations)
/// and the same [`RecoveryConfig`], the oracle returns bit-identical
/// outcomes — this is what makes the simulated and executed recovered
/// traces agree exactly.
#[derive(Debug, Clone)]
pub struct FaultSession {
    plan: FaultPlan,
    transient_left: Vec<u32>,
    dead: Vec<bool>,
    cache: Arc<PlanCache>,
}

impl FaultSession {
    /// Starts a session for a `p`-rank scatter, with a fresh
    /// [`PlanCache`] (so repeated re-plans inside this session
    /// warm-start off each other).
    pub fn new(plan: &FaultPlan, p: usize) -> FaultSession {
        FaultSession {
            plan: plan.clone(),
            transient_left: (0..p).map(|r| plan.transient_budget(r)).collect(),
            dead: vec![false; p],
            cache: Arc::new(PlanCache::new()),
        }
    }

    /// Replaces the session's [`PlanCache`] with a shared one — prime
    /// it from the initial plan's solve so even the *first* re-plan
    /// warm-starts.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> FaultSession {
        self.cache = cache;
        self
    }

    /// The session's plan cache, for passing to
    /// [`replan_residual_with`] (or sharing with a [`Planner`]).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The underlying fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// `true` iff `rank` has been declared dead (or is past its crash
    /// time as observed by a completed send).
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank]
    }

    /// Ranks currently believed alive, in rank order.
    pub fn alive(&self) -> Vec<usize> {
        (0..self.dead.len()).filter(|&r| !self.dead[r]).collect()
    }

    /// Sends a block to `rank` starting at time `now`; the fault-free
    /// transfer would take `nominal_dt` seconds (Eq. 1's
    /// `Tcomm(rank, n_rank)`).
    ///
    /// With `recovery == None` the send is *fault-oblivious* (the
    /// degraded baseline): exactly one attempt, the port is held for
    /// the full (possibly degraded) transfer, and a lost block is
    /// simply lost. With a [`RecoveryConfig`], failures are detected by
    /// timeout and retried with backoff; after `1 + max_retries`
    /// failures the receiver is declared dead.
    pub fn send(
        &mut self,
        rank: usize,
        now: f64,
        nominal_dt: f64,
        recovery: Option<&RecoveryConfig>,
    ) -> SendOutcome {
        let out = self.send_inner(rank, now, recovery, nominal_dt);
        if span::enabled() {
            // Virtual-clock spans, one per attempt (plus the backoff
            // idles between them), on the receiver's lane.
            for (k, a) in out.attempts.iter().enumerate() {
                let outcome = a.failure.map_or("delivered", FailureCause::as_str);
                span::record_virtual(
                    "ft",
                    "ft.attempt",
                    rank as u64,
                    a.start,
                    a.end,
                    vec![("attempt", (k + 1).to_string()), ("outcome", outcome.to_string())],
                );
                if let Some(next) = out.attempts.get(k + 1) {
                    if next.start > a.end {
                        span::record_virtual(
                            "ft",
                            "ft.backoff",
                            rank as u64,
                            a.end,
                            next.start,
                            Vec::new(),
                        );
                    }
                }
            }
        }
        out
    }

    fn send_inner(
        &mut self,
        rank: usize,
        now: f64,
        recovery: Option<&RecoveryConfig>,
        nominal_dt: f64,
    ) -> SendOutcome {
        let dt_eff = self.plan.link_factor(rank) * nominal_dt;
        let crash = self.plan.crash_time(rank);

        let reg = crate::metrics::Registry::global();
        reg.counter("ft_sends_total", "blocks the fault session attempted to send").inc();

        let Some(rc) = recovery else {
            // Fault-oblivious: the root pushes the bytes and moves on.
            let end = now + dt_eff;
            let failure = if self.transient_left[rank] > 0 {
                self.transient_left[rank] -= 1;
                Some(FailureCause::Transient)
            } else if crash.is_some_and(|at| end > at) {
                self.dead[rank] = true;
                Some(FailureCause::Crash)
            } else {
                None
            };
            return SendOutcome {
                attempts: vec![Attempt { start: now, end, failure }],
                delivered: failure.is_none().then_some((now, end)),
                port_free: end,
                declared_dead: false,
            };
        };

        let timeout = rc.timeout(nominal_dt);
        let mut attempts = Vec::new();
        let mut t = now;
        for k in 0..=rc.max_retries {
            let failure = if self.transient_left[rank] > 0 {
                self.transient_left[rank] -= 1;
                Some(FailureCause::Transient)
            } else if crash.is_some_and(|at| t + dt_eff > at) {
                Some(FailureCause::Crash)
            } else if dt_eff > timeout {
                Some(FailureCause::Timeout)
            } else {
                None
            };
            match failure {
                None => {
                    let end = t + dt_eff;
                    attempts.push(Attempt { start: t, end, failure: None });
                    return SendOutcome {
                        attempts,
                        delivered: Some((t, end)),
                        port_free: end,
                        declared_dead: false,
                    };
                }
                Some(cause) => {
                    // A failed attempt holds the port for the full
                    // timeout — the sender cannot tell a slow ack from
                    // a lost one before the clock runs out.
                    let end = t + timeout;
                    attempts.push(Attempt { start: t, end, failure: Some(cause) });
                    reg.counter("ft_timeouts_total", "send attempts that timed out").inc();
                    if k < rc.max_retries {
                        let backoff = rc.backoff(timeout, k + 1);
                        reg.counter("ft_retries_total", "send re-attempts after a timeout")
                            .inc();
                        reg.histogram("ft_backoff_seconds", "backoff waits between retries")
                            .observe(backoff);
                        t = end + backoff;
                    }
                }
            }
        }
        self.dead[rank] = true;
        reg.counter("ft_dead_declared_total", "ranks declared dead after exhausted retries")
            .inc();
        let port_free = attempts.last().expect("at least one attempt").end;
        SendOutcome { attempts, delivered: None, port_free, declared_dead: true }
    }

    /// Wall-clock duration of a compute phase on `rank` starting at
    /// `start` whose fault-free duration is `nominal` (see
    /// [`FaultPlan::stretched_compute`]).
    pub fn compute_duration(&self, rank: usize, start: f64, nominal: f64) -> f64 {
        self.plan.stretched_compute(rank, start, nominal)
    }
}

/// The [`Incident`]s a [`SendOutcome`] contributes to a trace: one
/// `fault` per failed attempt (at the moment the failure is detected)
/// and one `retry` at the start of each re-attempt.
fn outcome_incidents(
    rank: usize,
    items: u64,
    name: &str,
    out: &SendOutcome,
) -> Vec<Incident> {
    let mut incidents = Vec::new();
    for (k, a) in out.attempts.iter().enumerate() {
        if k > 0 {
            incidents.push(Incident {
                t: a.start,
                kind: IncidentKind::Retry,
                rank,
                items,
                info: format!("retry {k}/{} to {name}", out.attempts.len() - 1),
            });
        }
        if let Some(cause) = a.failure {
            incidents.push(Incident {
                t: a.end,
                kind: IncidentKind::Fault,
                rank,
                items,
                info: format!("attempt {} to {name}: {}", k + 1, cause.as_str()),
            });
        }
    }
    incidents
}

// ---- re-planning ----------------------------------------------------------

/// The re-planned distribution of a residual workload over survivors.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualPlan {
    /// Scatter positions (in the *original* rank space) of the
    /// survivors, in their preserved relative order, root last.
    pub positions: Vec<usize>,
    /// Items assigned to each survivor, aligned with `positions`.
    pub counts: Vec<u64>,
    /// Predicted makespan of the residual schedule (Eq. 2 on the
    /// survivor sub-platform), relative to the re-plan instant.
    pub predicted_makespan: f64,
}

/// Recomputes an optimal distribution of `residual` items over the
/// surviving processors (always from scratch — see
/// [`replan_residual_with`] for the warm-started version).
///
/// `procs` is the full scatter-order view (root last); `alive[i]`
/// says whether scatter position `i` survives (`alive[last]` must be
/// `true` — the root is the sender). The survivors keep their relative
/// order ([`OrderPolicy::AsIs`]), matching the guarantee documented in
/// `docs/robustness.md`: the residual distribution is exactly what a
/// from-scratch run of `strategy` on the survivor sub-platform yields.
pub fn replan_residual(
    procs: &[&Processor],
    alive: &[bool],
    residual: u64,
    strategy: Strategy,
) -> Result<ResidualPlan, PlanError> {
    replan_residual_with(procs, alive, residual, strategy, None)
}

/// [`replan_residual`] with an optional [`PlanCache`]: exact strategies
/// store their DP plane into the cache and warm-start from the columns
/// of trailing survivors whose cost functions are unchanged since the
/// cached solve — the dominant case after a mid-scatter failure, where
/// the survivor sub-platform is a sub-sequence of the one just solved.
///
/// Warm-started re-plans return the same distribution and predicted
/// makespan as from-scratch ones (bit-identical — property-tested);
/// the cache only changes how much of the DP table is recomputed.
/// Warm starts are counted as `ft_warm_replans_total` (and column-level
/// detail as `dp_warm_columns_reused_total`).
pub fn replan_residual_with(
    procs: &[&Processor],
    alive: &[bool],
    residual: u64,
    strategy: Strategy,
    cache: Option<&Arc<PlanCache>>,
) -> Result<ResidualPlan, PlanError> {
    assert_eq!(procs.len(), alive.len(), "one liveness flag per processor");
    assert!(alive.last().copied().unwrap_or(false), "the root must survive");
    let mut replan_span = span::span("ft", "ft.replan");
    let reg = crate::metrics::Registry::global();
    reg.counter("ft_replans_total", "residual re-plans after failures").inc();
    let replan_timer = reg
        .histogram("ft_replan_seconds", "wall-clock of residual re-planning")
        .start_timer();
    let positions: Vec<usize> = (0..procs.len()).filter(|&i| alive[i]).collect();
    let survivors: Vec<Processor> = positions.iter().map(|&i| procs[i].clone()).collect();
    let root = survivors.len() - 1;
    let platform = Platform::new(survivors, root)?;
    let mut planner = Planner::new(platform)
        .strategy(strategy)
        .order_policy(OrderPolicy::AsIs);
    let hits_before = cache.map(|c| c.hits());
    if let Some(c) = cache {
        planner = planner.plan_cache(Arc::clone(c));
    }
    let plan = planner.plan(residual as usize)?;
    let warm = hits_before.zip(cache).is_some_and(|(before, c)| c.hits() > before);
    if warm {
        reg.counter("ft_warm_replans_total", "residual re-plans that warm-started").inc();
    }
    replan_timer.stop();
    replan_span.attr("residual", residual);
    replan_span.attr("survivors", positions.len());
    replan_span.attr("warm", warm);
    Ok(ResidualPlan {
        positions,
        counts: plan.counts_in_order().iter().map(|&c| c as u64).collect(),
        predicted_makespan: plan.predicted_makespan,
    })
}

/// Takes the first `want` items off a pool of half-open item ranges
/// `(lo, hi)`, splitting the boundary range if needed. Returns the
/// taken ranges; the pool keeps the rest. Panics if the pool holds
/// fewer than `want` items.
fn take_items(pool: &mut Vec<(u64, u64)>, want: u64) -> Vec<(u64, u64)> {
    let mut taken = Vec::new();
    let mut need = want;
    while need > 0 {
        let (lo, hi) = *pool.first().expect("pool underflow: fewer items than requested");
        let len = hi - lo;
        if len <= need {
            taken.push((lo, hi));
            pool.remove(0);
            need -= len;
        } else {
            taken.push((lo, lo + need));
            pool[0] = (lo + need, hi);
            need = 0;
        }
    }
    taken
}

// ---- the recovery round loop -----------------------------------------------

/// One successful block delivery (there may be several per rank once
/// re-planning kicks in).
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Receiving rank (scatter position; the root's kept share shows up
    /// as a delivery to the last rank).
    pub rank: usize,
    /// Transfer start time.
    pub start: f64,
    /// Transfer end time.
    pub end: f64,
    /// Half-open item ranges delivered (more than one after a re-plan
    /// hands a rank a non-contiguous residual slice).
    pub ranges: Vec<(u64, u64)>,
}

/// One re-planning round.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanRecord {
    /// When the root re-planned (its port-free time).
    pub t: f64,
    /// Residual items being redistributed.
    pub items: u64,
    /// Scatter positions of the survivors, relative order preserved,
    /// root last.
    pub survivors: Vec<usize>,
    /// Items assigned to each survivor, aligned with `survivors`.
    pub counts: Vec<u64>,
}

/// The root's side of one fault-injected scatter: every delivery its
/// single port made, and what it took to get there.
#[derive(Debug, Clone)]
pub struct ScatterSchedule {
    /// Every successful delivery, in time order.
    pub deliveries: Vec<Delivery>,
    /// Every re-planning round, in time order (empty in degraded mode).
    pub replans: Vec<ReplanRecord>,
    /// Fault/retry/replan incidents, in time order.
    pub incidents: Vec<Incident>,
    /// Which ranks were declared dead.
    pub dead: Vec<bool>,
    /// Items lost for good (degraded mode only; always 0 in recovered
    /// mode).
    pub lost_items: u64,
    /// When the root's port is free after the last round.
    pub port_free: f64,
}

/// Runs the round loop of a fault-injected scatter from time `start`:
/// the root sends the planned blocks of `counts` (contiguous in scatter
/// order, root last, as `procs`) through a [`FaultSession`], and in
/// recovered mode (`recovery` is `Some`) re-plans the undelivered items
/// over the survivors until everything is placed.
///
/// This is the schedule both the simulator
/// (`gs_gridsim::fault::simulate_scatter_ft`, which adds the compute
/// phase) and the runtime (`gs_minimpi`'s `scatterv_ft`, which moves the
/// bytes) replay, so the two agree bit for bit. Nominal transfer times
/// are `procs[rank].comm.eval(items)`.
///
/// The loop terminates because every round that fails to deliver
/// everything declares at least one more rank dead, and the root (which
/// cannot fault) always absorbs its own share.
pub fn scatter_schedule(
    procs: &[&Processor],
    counts: &[usize],
    faults: &FaultPlan,
    recovery: Option<&RecoveryConfig>,
    start: f64,
) -> Result<ScatterSchedule, PlanError> {
    assert_eq!(procs.len(), counts.len(), "one count per processor");
    let p = procs.len();
    if p == 0 {
        return Err(PlanError::InvalidPlatform("no processors".into()));
    }
    faults.validate(p)?;
    let root = p - 1;
    let mut session = FaultSession::new(faults, p);
    let mut schedule = ScatterSchedule {
        deliveries: Vec::new(),
        replans: Vec::new(),
        incidents: Vec::new(),
        dead: Vec::new(),
        lost_items: 0,
        port_free: start,
    };
    let mut pool: Vec<(u64, u64)> = Vec::new();

    // Round 0: the planned blocks, contiguous in scatter order.
    let mut offset = 0u64;
    let mut round: Vec<(usize, Vec<(u64, u64)>)> = Vec::new();
    for (rank, &c) in counts.iter().enumerate() {
        let lo = offset;
        offset += c as u64;
        if c > 0 {
            round.push((rank, vec![(lo, offset)]));
        }
    }

    loop {
        for (rank, ranges) in round.drain(..) {
            let items: u64 = ranges.iter().map(|&(lo, hi)| hi - lo).sum();
            let nominal = procs[rank].comm.eval(items as usize);
            let out = session.send(rank, schedule.port_free, nominal, recovery);
            schedule.incidents.extend(outcome_incidents(rank, items, &procs[rank].name, &out));
            schedule.port_free = out.port_free;
            match out.delivered {
                Some((start, end)) => {
                    schedule.deliveries.push(Delivery { rank, start, end, ranges })
                }
                None if recovery.is_some() => pool.extend(ranges),
                None => schedule.lost_items += items,
            }
        }
        if pool.is_empty() {
            break;
        }
        // Re-plan the residual over the survivors. Only reachable in
        // recovered mode (degraded mode never fills the pool).
        let rc = recovery.expect("pool only fills in recovered mode");
        let residual: u64 = pool.iter().map(|&(lo, hi)| hi - lo).sum();
        let alive: Vec<bool> = (0..p).map(|r| !session.is_dead(r)).collect();
        // Re-plans route through the session's plan cache: after the
        // first one, later rounds warm-start from the surviving DP
        // columns (bit-identical results, less recomputation).
        let rp = replan_residual_with(
            procs,
            &alive,
            residual,
            rc.replan_strategy,
            Some(session.plan_cache()),
        )?;
        let t = schedule.port_free;
        schedule.incidents.push(Incident {
            t,
            kind: IncidentKind::Replan,
            rank: root,
            items: residual,
            info: format!(
                "redistributing {residual} undelivered items over {} survivors",
                rp.positions.len()
            ),
        });
        for (&pos, &c) in rp.positions.iter().zip(&rp.counts) {
            if c > 0 {
                round.push((pos, take_items(&mut pool, c)));
            }
        }
        debug_assert!(pool.is_empty(), "re-plan must drain the pool");
        schedule.replans.push(ReplanRecord {
            t,
            items: residual,
            survivors: rp.positions,
            counts: rp.counts,
        });
    }
    schedule.dead = (0..p).map(|r| session.is_dead(r)).collect();
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let names = ["w1", "w2", "w3", "root"];
        let plan = FaultPlan::parse(
            "crash:w1@2.5; flaky:w2:3, slow:w3:2@50%, link:0:1.5, slow:root:4",
            &names,
            10.0,
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 5);
        assert_eq!(plan.crash_time(0), Some(2.5));
        assert_eq!(plan.transient_budget(1), 3);
        assert_eq!(plan.slowdown(2), Some((5.0, 2.0))); // 50% of horizon 10
        assert_eq!(plan.link_factor(0), 1.5);
        assert_eq!(plan.slowdown(3), Some((0.0, 4.0)));
        plan.validate(4).unwrap();
    }

    #[test]
    fn parse_rejects_garbage() {
        let names = ["w1", "root"];
        for bad in [
            "explode:w1@1",
            "crash:w1",
            "crash:nosuch@1",
            "crash:9@1",
            "slow:w1:-2",
            "slow:w1:0",
            "crash:w1@-1",
            "flaky:w1:x",
            "seed:x",
        ] {
            assert!(
                matches!(FaultPlan::parse(bad, &names, 1.0), Err(PlanError::FaultSpec(_))),
                "`{bad}` should be rejected"
            );
        }
        // Empty spec and empty clauses are fine.
        assert!(FaultPlan::parse("", &names, 1.0).unwrap().is_empty());
        assert!(FaultPlan::parse(" , ; ", &names, 1.0).unwrap().is_empty());
    }

    #[test]
    fn validate_protects_the_root() {
        let crash_root = FaultPlan { faults: vec![Fault { rank: 2, kind: FaultKind::Crash { at: 1.0 } }] };
        assert!(crash_root.validate(3).is_err());
        assert!(crash_root.validate(4).is_ok()); // rank 2 is not the root of a 4-rank run
        let oob = FaultPlan { faults: vec![Fault { rank: 7, kind: FaultKind::LinkDegrade { factor: 2.0 } }] };
        assert!(oob.validate(3).is_err());
    }

    #[test]
    fn seeded_is_deterministic_and_spares_the_root() {
        let a = FaultPlan::seeded(42, 16, 100.0);
        let b = FaultPlan::seeded(42, 16, 100.0);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(43, 16, 100.0));
        a.validate(16).unwrap();
        // Scanning many seeds, some must inject faults.
        assert!((0..50).any(|s| !FaultPlan::seeded(s, 16, 100.0).is_empty()));
    }

    #[test]
    fn shifted_moves_times_only() {
        let plan = FaultPlan::parse("crash:0@5, slow:1:2@3, flaky:0:1", &["a", "b", "r"], 1.0)
            .unwrap();
        let moved = plan.shifted(-4.0);
        assert_eq!(moved.crash_time(0), Some(1.0));
        assert_eq!(moved.slowdown(1), Some((0.0, 2.0))); // clamped at 0
        assert_eq!(moved.transient_budget(0), 1);
    }

    #[test]
    fn oracle_delivers_when_nothing_is_wrong() {
        let mut s = FaultSession::new(&FaultPlan::none(), 3);
        let rc = RecoveryConfig::default();
        let out = s.send(0, 1.0, 0.5, Some(&rc));
        assert_eq!(out.delivered, Some((1.0, 1.5)));
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(out.port_free, 1.5);
        assert!(!out.declared_dead);
        // Degraded mode agrees on the happy path.
        let mut s2 = FaultSession::new(&FaultPlan::none(), 3);
        assert_eq!(s2.send(0, 1.0, 0.5, None).delivered, Some((1.0, 1.5)));
    }

    #[test]
    fn oracle_retries_through_transient_faults() {
        let plan = FaultPlan { faults: vec![Fault { rank: 0, kind: FaultKind::Transient { failures: 2 } }] };
        let mut s = FaultSession::new(&plan, 2);
        let rc = RecoveryConfig::default();
        let out = s.send(0, 0.0, 1.0, Some(&rc));
        // timeout = 3·1 + 1e-3; attempts 1,2 fail, 3 delivers.
        let timeout = rc.timeout(1.0);
        assert_eq!(out.attempts.len(), 3);
        assert_eq!(out.attempts[0].failure, Some(FailureCause::Transient));
        assert_eq!(out.attempts[1].start, timeout + rc.backoff(timeout, 1));
        let t3 = out.attempts[1].end + rc.backoff(timeout, 2);
        assert_eq!(out.attempts[2], Attempt { start: t3, end: t3 + 1.0, failure: None });
        assert_eq!(out.delivered, Some((t3, t3 + 1.0)));
        assert!(!out.declared_dead);
        assert_eq!(s.plan().transient_budget(0), 2); // plan itself untouched
    }

    #[test]
    fn oracle_declares_crashed_rank_dead() {
        let plan = FaultPlan { faults: vec![Fault { rank: 1, kind: FaultKind::Crash { at: 0.25 } }] };
        let mut s = FaultSession::new(&plan, 3);
        let rc = RecoveryConfig { max_retries: 1, ..RecoveryConfig::default() };
        let out = s.send(1, 0.0, 1.0, Some(&rc));
        assert_eq!(out.attempts.len(), 2);
        assert!(out.attempts.iter().all(|a| a.failure == Some(FailureCause::Crash)));
        assert_eq!(out.delivered, None);
        assert!(out.declared_dead);
        assert!(s.is_dead(1));
        assert_eq!(s.alive(), vec![0, 2]);
    }

    #[test]
    fn oracle_times_out_hopelessly_degraded_links() {
        // link factor 10 → dt_eff = 10 > timeout = 3 + floor.
        let plan = FaultPlan { faults: vec![Fault { rank: 0, kind: FaultKind::LinkDegrade { factor: 10.0 } }] };
        let mut s = FaultSession::new(&plan, 2);
        let out = s.send(0, 0.0, 1.0, Some(&RecoveryConfig::default()));
        assert!(out.attempts.iter().all(|a| a.failure == Some(FailureCause::Timeout)));
        assert!(out.declared_dead);
        // A mild degradation inside the timeout just takes longer.
        let mild = FaultPlan { faults: vec![Fault { rank: 0, kind: FaultKind::LinkDegrade { factor: 2.0 } }] };
        let mut s2 = FaultSession::new(&mild, 2);
        let ok = s2.send(0, 0.0, 1.0, Some(&RecoveryConfig::default()));
        assert_eq!(ok.delivered, Some((0.0, 2.0)));
    }

    #[test]
    fn degraded_mode_loses_blocks_silently() {
        let plan = FaultPlan {
            faults: vec![
                Fault { rank: 0, kind: FaultKind::Transient { failures: 1 } },
                Fault { rank: 1, kind: FaultKind::Crash { at: 0.1 } },
            ],
        };
        let mut s = FaultSession::new(&plan, 3);
        let lost = s.send(0, 0.0, 1.0, None);
        assert_eq!(lost.delivered, None);
        assert_eq!(lost.port_free, 1.0); // port held for the full transfer
        assert!(!lost.declared_dead); // nobody noticed
        let crashed = s.send(1, 1.0, 1.0, None);
        assert_eq!(crashed.delivered, None);
        // Second send to rank 0 goes through (budget spent).
        assert!(s.send(0, 2.0, 1.0, None).delivered.is_some());
    }

    #[test]
    fn compute_duration_stretches_piecewise() {
        let plan = FaultPlan { faults: vec![Fault { rank: 0, kind: FaultKind::Slowdown { start: 10.0, factor: 3.0 } }] };
        let s = FaultSession::new(&plan, 2);
        assert_eq!(s.compute_duration(0, 12.0, 4.0), 12.0); // fully after onset
        assert_eq!(s.compute_duration(0, 2.0, 4.0), 4.0); // fully before
        assert_eq!(s.compute_duration(0, 8.0, 4.0), 2.0 + 2.0 * 3.0); // straddles
        assert_eq!(s.compute_duration(1, 0.0, 4.0), 4.0); // unaffected rank
    }

    #[test]
    fn outcome_incidents_are_time_ordered() {
        let plan = FaultPlan { faults: vec![Fault { rank: 0, kind: FaultKind::Transient { failures: 1 } }] };
        let mut s = FaultSession::new(&plan, 2);
        let out = s.send(0, 0.0, 1.0, Some(&RecoveryConfig::default()));
        let incidents = outcome_incidents(0, 7, "w1", &out);
        // fault (attempt 1) then retry (attempt 2), strictly ordered.
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents[0].kind, IncidentKind::Fault);
        assert_eq!(incidents[1].kind, IncidentKind::Retry);
        assert!(incidents[0].t <= incidents[1].t);
        assert!(incidents[0].info.contains("transient loss"));
        assert_eq!(incidents[0].items, 7);
    }

    #[test]
    fn replan_matches_from_scratch_dp() {
        use crate::cost::Processor;
        let procs = [
            Processor::linear("w1", 2e-3, 8e-3),
            Processor::linear("w2", 1e-3, 5e-3),
            Processor::linear("w3", 3e-3, 2e-3),
            Processor::linear("root", 0.0, 4e-3),
        ];
        let view: Vec<&Processor> = procs.iter().collect();
        // w2 (position 1) died; 500 items left.
        let alive = [true, false, true, true];
        let rp = replan_residual(&view, &alive, 500, Strategy::Exact).unwrap();
        assert_eq!(rp.positions, vec![0, 2, 3]);
        assert_eq!(rp.counts.iter().sum::<u64>(), 500);
        // Cross-check against a hand-built survivor platform.
        let survivors = vec![procs[0].clone(), procs[2].clone(), procs[3].clone()];
        let platform = Platform::new(survivors, 2).unwrap();
        let direct = Planner::new(platform)
            .strategy(Strategy::Exact)
            .order_policy(OrderPolicy::AsIs)
            .plan(500)
            .unwrap();
        let direct_counts: Vec<u64> =
            direct.counts_in_order().iter().map(|&c| c as u64).collect();
        assert_eq!(rp.counts, direct_counts);
        assert_eq!(rp.predicted_makespan, direct.predicted_makespan);
    }

    #[test]
    fn warm_replan_is_bit_identical_to_cold() {
        use crate::cost::Processor;
        let procs = [
            Processor::linear("w1", 2e-3, 8e-3),
            Processor::linear("w2", 1e-3, 5e-3),
            Processor::linear("w3", 3e-3, 2e-3),
            Processor::linear("root", 0.0, 4e-3),
        ];
        let view: Vec<&Processor> = procs.iter().collect();
        let session = FaultSession::new(&FaultPlan::none(), 4);
        for strategy in [Strategy::Exact, Strategy::ExactDc, Strategy::ExactBasic] {
            // First re-plan fills the cache; w1 then dies and the second
            // re-plan warm-starts from the surviving suffix.
            let alive1 = [true, true, true, true];
            let warm1 = replan_residual_with(
                &view, &alive1, 800, strategy, Some(session.plan_cache()),
            )
            .unwrap();
            let cold1 = replan_residual(&view, &alive1, 800, strategy).unwrap();
            assert_eq!(warm1, cold1, "{strategy:?}: initial re-plan");
            let alive2 = [false, true, true, true];
            let hits_before = session.plan_cache().hits();
            let warm2 = replan_residual_with(
                &view, &alive2, 500, strategy, Some(session.plan_cache()),
            )
            .unwrap();
            let cold2 = replan_residual(&view, &alive2, 500, strategy).unwrap();
            assert_eq!(warm2, cold2, "{strategy:?}: warm re-plan after death");
            assert_eq!(
                warm2.predicted_makespan.to_bits(),
                cold2.predicted_makespan.to_bits(),
                "{strategy:?}"
            );
            assert!(
                session.plan_cache().hits() > hits_before,
                "{strategy:?}: survivor-suffix re-plan must warm-start"
            );
        }
    }

    #[test]
    fn warm_replan_misses_on_a_changed_platform() {
        use crate::cost::Processor;
        let session = FaultSession::new(&FaultPlan::none(), 3);
        let a = [
            Processor::linear("w1", 2e-3, 8e-3),
            Processor::linear("w2", 1e-3, 5e-3),
            Processor::linear("root", 0.0, 4e-3),
        ];
        let view_a: Vec<&Processor> = a.iter().collect();
        let alive = [true, true, true];
        replan_residual_with(&view_a, &alive, 300, Strategy::Exact, Some(session.plan_cache()))
            .unwrap();
        // Re-measured platform: every cost function differs, so the
        // cached columns are invalid and the lookup must miss.
        let b = [
            Processor::linear("w1", 3e-3, 9e-3),
            Processor::linear("w2", 2e-3, 6e-3),
            Processor::linear("root", 0.0, 5e-3),
        ];
        let view_b: Vec<&Processor> = b.iter().collect();
        let before = session.plan_cache().hits();
        let rp = replan_residual_with(
            &view_b, &alive, 300, Strategy::Exact, Some(session.plan_cache()),
        )
        .unwrap();
        assert_eq!(session.plan_cache().hits(), before, "changed platform must not hit");
        assert_eq!(rp, replan_residual(&view_b, &alive, 300, Strategy::Exact).unwrap());
    }

    #[test]
    fn take_items_splits_ranges() {
        let mut pool = vec![(0u64, 10u64), (20, 25)];
        assert_eq!(take_items(&mut pool, 4), vec![(0, 4)]);
        assert_eq!(pool, vec![(4, 10), (20, 25)]);
        assert_eq!(take_items(&mut pool, 8), vec![(4, 10), (20, 22)]);
        assert_eq!(pool, vec![(22, 25)]);
        assert_eq!(take_items(&mut pool, 3), vec![(22, 25)]);
        assert!(pool.is_empty());
        assert!(take_items(&mut pool, 0).is_empty());
    }

    #[test]
    fn degraded_platform_scales_costs() {
        let platform = Platform::new(
            vec![
                Processor::linear("root", 0.0, 1.0),
                Processor::linear("w1", 2.0, 4.0),
                Processor::linear("w2", 1.0, 2.0),
            ],
            0,
        )
        .unwrap();
        let order = vec![1, 2, 0]; // w1, w2, root
        let plan = FaultPlan::parse("slow:w1:3@5, link:w2:2", &["w1", "w2", "root"], 1.0)
            .unwrap();
        // Before the slowdown onset: only the link is degraded.
        let before = plan.degraded_platform(&platform, &order, 0.0).unwrap();
        assert_eq!(before.procs()[1].comp.eval(10), 40.0);
        assert_eq!(before.procs()[2].comm.eval(10), 20.0);
        // After the onset: compute is stretched too, and stays linear.
        let after = plan.degraded_platform(&platform, &order, 6.0).unwrap();
        assert_eq!(after.procs()[1].comp.eval(10), 120.0);
        assert!(after.procs()[1].comp.linear_slope().is_some());
    }
}
