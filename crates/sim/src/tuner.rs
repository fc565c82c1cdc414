//! The auto-tuner: the paper's "unified framework \[that\] enables ...
//! automatically scal\[ing\] pipelines to more devices" and "performance
//! model with adaptability to choose from various pipeline parallelism
//! strategies to attain optimal performance" (§1, §6).
//!
//! Given a model, a cluster and a global batch, [`tune_with`] sweeps the whole
//! strategy space — method × wave count × (P, D) factorisations ×
//! activation-recomputation modes, optionally widened with simulator
//! ablations (prefetch on/off, `recv_lookahead`) and micro-batch
//! granularities — through the discrete-event simulator, records every
//! rejection, and ranks the rest by throughput. [`Tuning::best`] is the
//! plan a user should run. The recompute axis is what lets a
//! memory-constrained cluster escape an all-OOM verdict: checkpointed
//! variants of the same plans pay one extra forward per backward but stash
//! only boundary tensors.
//!
//! ## Parallel evaluation and determinism
//!
//! Candidates are simulated concurrently (`par_iter` over the candidate
//! list); the final ranking is nevertheless *byte-identical* to a serial
//! run ([`tune_serial_with`]) because results are collected in candidate order
//! and the ranking is a stable sort on `(throughput, plan)` keys — worker
//! interleaving never leaks into the output. A property test pits the two
//! against each other on random `(model, cluster, batch)` triples.
//!
//! ## Rejections
//!
//! Infeasible candidates are not silently dropped: each one carries a
//! [`Rejection`] — [`Rejection::Oom`] with the offending peak bytes and
//! device capacity, or [`Rejection::InvalidShape`] with the plan-level
//! reason (indivisible batch, odd Chimera split, cluster too small,
//! corrupt numerics). `hanayo tune` emits both tables as JSON.
//!
//! ## One evaluation path
//!
//! Every candidate takes the same path. A static pre-pass resolves the
//! plan, builds its schedule and cost table, and replays its memory
//! exactly; a plan it proves OOM on a deadlock-free schedule is rejected
//! without simulating. The survivors are simulated through one lowering
//! per schedule shape. Every artifact lives in a [`SweepCaches`] — the
//! context's shared handle, or one built for the sweep — and is a pure
//! function of its key, so the outcome equals
//! [`crate::plan::evaluate_plan`] run on each candidate, rejection texts
//! included (a test pins this).

use crate::cache::{CostKey, SchedKey, SweepCaches};
use crate::engine::{try_simulate_compiled, validate_numerics, SimOptions};
use crate::plan::{
    resolve_plan, simulate_plan, Method, ParallelPlan, PlanError, PlanResult, Resolved,
};
use crate::search::{search_schedule, ScheduleSearchOptions, SearchedSchedule};
use hanayo_ckpt::recovery;
use hanayo_ckpt::{RecoveryEval, RecoveryOptions};
use hanayo_cluster::ClusterSpec;
use hanayo_core::abort::AbortFlag;
use hanayo_core::action::Schedule;
use hanayo_model::{CostTable, ModelConfig, Recompute};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The plan.
    pub plan: ParallelPlan,
    /// The simulator options it was evaluated under (the sweep may ablate
    /// prefetching or vary the receive lookahead per candidate).
    pub sim: SimOptions,
    /// Its simulated outcome.
    pub result: PlanResult,
    /// The failure/recovery evaluation, when the search sweeps checkpoint
    /// intervals ([`TuneOptions::checkpoint_intervals`]): the candidate's
    /// interval, its checkpoint stall and restart cost, and the goodput
    /// the ranking used. `None` on failure-free searches.
    pub recovery: Option<RecoveryEval>,
}

impl Candidate {
    /// The metric this candidate was ranked by: goodput under the
    /// expected failure rate when the recovery axis is active, raw
    /// throughput otherwise.
    pub fn ranking_metric(&self) -> f64 {
        self.recovery.map_or(self.result.throughput, |r| r.goodput_seq_per_s)
    }
}

/// Why a candidate was excluded from the ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Rejection {
    /// The plan simulated fine but some device exceeded its memory.
    Oom {
        /// The rejected plan.
        plan: ParallelPlan,
        /// The simulator options it was evaluated under.
        sim: SimOptions,
        /// Highest per-device peak, bytes.
        peak_bytes: u64,
        /// Capacity of the most overloaded device, bytes.
        capacity_bytes: u64,
        /// Global ranks of the devices that overflowed.
        devices: Vec<usize>,
    },
    /// The plan could not be evaluated at all (indivisible batch, odd
    /// Chimera split, cluster too small, schedule generation failure,
    /// corrupt numerics).
    InvalidShape {
        /// The rejected plan.
        plan: ParallelPlan,
        /// The simulator options it was evaluated under.
        sim: SimOptions,
        /// Human-readable reason (the underlying error's display form).
        reason: String,
    },
}

impl Rejection {
    /// The plan this rejection refers to.
    pub fn plan(&self) -> &ParallelPlan {
        match self {
            Rejection::Oom { plan, .. } | Rejection::InvalidShape { plan, .. } => plan,
        }
    }

    /// Is this a memory rejection?
    pub fn is_oom(&self) -> bool {
        matches!(self, Rejection::Oom { .. })
    }
}

/// The ranked search outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuning {
    /// Feasible candidates, best throughput first (ties broken by plan
    /// shape, so the order is fully deterministic).
    pub ranked: Vec<Candidate>,
    /// Every infeasible candidate with the reason it was rejected.
    pub rejected: Vec<Rejection>,
    /// When [`TuneOptions::schedule_search`] is set: the schedule-space
    /// search result seeded from the winning plan's pipeline shape — a
    /// searched candidate standing beside the named schemes. `None` when
    /// the axis is off, nothing ranked, or the search itself failed.
    pub searched: Option<SearchedSchedule>,
}

impl Tuning {
    /// The winning candidate (None if nothing fits).
    pub fn best(&self) -> Option<&Candidate> {
        self.ranked.first()
    }
}

/// Search knobs.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Methods to consider.
    pub methods: Vec<Method>,
    /// Wave counts searched for Hanayo.
    pub waves: Vec<u32>,
    /// Minimum pipeline width to consider (deep models cannot shrink `P`
    /// below their memory share).
    pub min_pp: u32,
    /// Baseline simulator options.
    pub sim: SimOptions,
    /// Also evaluate every candidate with prefetching disabled (the §4.2
    /// ablation), doubling that slice of the space.
    pub sweep_prefetch: bool,
    /// Additional `recv_lookahead` values to sweep on top of
    /// `sim.recv_lookahead` (duplicates are skipped).
    pub recv_lookaheads: Vec<usize>,
    /// Micro-batch merge factors: factor `m` evaluates the same work as
    /// `m`-fold larger micro-batches (`B/m` micro-batches of `m ×
    /// micro_batch_size` sequences — identical sequences per iteration,
    /// different pipeline granularity). Factors that do not divide a
    /// candidate's micro-batch count are recorded as shape rejections.
    pub micro_batch_merges: Vec<u32>,
    /// Activation-recomputation modes to sweep. Checkpointing trades one
    /// extra forward per backward for a boundary-only stash, so on
    /// memory-constrained clusters plans that are `Rejection::Oom` under
    /// [`Recompute::None`] can come back ranked under [`Recompute::Full`].
    /// Duplicates are skipped; an empty list falls back to `None` only.
    pub recompute_modes: Vec<Recompute>,
    /// Checkpoint intervals (iterations) to sweep. When non-empty, every
    /// feasible plan is expanded into one candidate per interval, each
    /// carrying a [`RecoveryEval`], and the ranking switches from raw
    /// throughput to **goodput under the expected failure rate** (device
    /// MTBF from the cluster, checkpoint stall from the plan's
    /// weights+optimizer bytes over the weakest link). The Young–Daly
    /// optimum falls out of the sweep. Zeros and duplicates are skipped;
    /// empty disables the axis.
    pub checkpoint_intervals: Vec<u32>,
    /// Recovery-model knobs (restart latency, MTBF override) used by the
    /// checkpoint-interval axis.
    pub recovery: RecoveryOptions,
    /// When set, run the tabular schedule-space search seeded from the
    /// winning plan's pipeline shape and attach the result as
    /// [`Tuning::searched`]. Deterministic (seeded), so [`tune_with`] and
    /// [`tune_serial_with`] stay byte-identical.
    pub schedule_search: Option<ScheduleSearchOptions>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            methods: vec![Method::GPipe, Method::Dapple, Method::ChimeraWave],
            waves: vec![1, 2, 4, 8],
            min_pp: 2,
            sim: SimOptions::default(),
            sweep_prefetch: false,
            recv_lookaheads: Vec::new(),
            micro_batch_merges: vec![1],
            recompute_modes: vec![Recompute::None],
            checkpoint_intervals: Vec::new(),
            recovery: RecoveryOptions::default(),
            schedule_search: None,
        }
    }
}

impl TuneOptions {
    /// The widest built-in space: prefetch ablation, lookaheads {1, 2, 4},
    /// micro-batch merge factors {1, 2}, both recomputation modes.
    pub fn wide(self) -> TuneOptions {
        TuneOptions {
            sweep_prefetch: true,
            recv_lookaheads: vec![1, 2, 4],
            micro_batch_merges: vec![1, 2],
            recompute_modes: Recompute::ALL.to_vec(),
            ..self
        }
    }

    /// The checkpoint intervals this search actually sweeps: zeros
    /// dropped (an interval is at least one iteration), duplicates
    /// skipped, first-seen order. Empty means the recovery axis is off.
    pub fn checkpoint_interval_variants(&self) -> Vec<u32> {
        let mut intervals = Vec::new();
        for &k in &self.checkpoint_intervals {
            if k > 0 && !intervals.contains(&k) {
                intervals.push(k);
            }
        }
        intervals
    }

    /// The recompute modes this search actually sweeps: deduplicated in
    /// first-seen order, with an empty configuration degrading to `None`
    /// only. Public so reporting layers (e.g. the `sweep` binary) can
    /// echo the real axis rather than the raw configured list.
    pub fn recompute_variants(&self) -> Vec<Recompute> {
        let mut modes = Vec::new();
        for &m in &self.recompute_modes {
            if !modes.contains(&m) {
                modes.push(m);
            }
        }
        if modes.is_empty() {
            modes.push(Recompute::None);
        }
        modes
    }

    /// The simulator-option variants this search sweeps, deduplicated, in
    /// deterministic order. `recv_lookahead` is meaningless without
    /// prefetching, so prefetch-off variants are normalised to the base
    /// lookahead — behaviourally identical candidates collapse to one.
    fn sim_variants(&self) -> Vec<SimOptions> {
        let mut variants: Vec<SimOptions> = Vec::new();
        let push = |v: SimOptions, variants: &mut Vec<SimOptions>| {
            let v = if v.prefetch {
                v
            } else {
                SimOptions { recv_lookahead: self.sim.recv_lookahead, ..v }
            };
            if !variants.contains(&v) {
                variants.push(v);
            }
        };
        push(self.sim, &mut variants);
        for &la in &self.recv_lookaheads {
            push(SimOptions { recv_lookahead: la, ..self.sim }, &mut variants);
        }
        if self.sweep_prefetch {
            push(SimOptions { prefetch: false, ..self.sim }, &mut variants);
        }
        variants
    }
}

/// A fully deterministic total order on candidates, used to break
/// throughput ties so the ranking never depends on enumeration order.
fn plan_key(plan: &ParallelPlan, sim: &SimOptions) -> impl Ord {
    let method = match plan.method {
        Method::GPipe => (0u32, 0u32),
        Method::Dapple => (1, 0),
        Method::ChimeraWave => (2, 0),
        Method::ChimeraNative => (3, 0),
        Method::Hanayo { waves } => (4, waves),
    };
    (
        plan.pp,
        plan.dp,
        method,
        plan.micro_batches,
        plan.micro_batch_size,
        matches!(plan.recompute, Recompute::Full),
        !sim.prefetch,
        sim.recv_lookahead,
    )
}

/// Enumerate the candidate space in deterministic order: `(P, D)`
/// factorisations × micro-batch merges × methods × recompute modes ×
/// simulator variants.
fn candidate_space(
    cluster_devices: u32,
    global_micro_batches: u32,
    micro_batch_size: u32,
    opts: &TuneOptions,
) -> Vec<(ParallelPlan, SimOptions, Option<String>)> {
    let mut methods = opts.methods.clone();
    methods.extend(opts.waves.iter().map(|&w| Method::Hanayo { waves: w }));
    let variants = opts.sim_variants();
    let modes = opts.recompute_variants();

    let mut out = Vec::new();
    for pp in (opts.min_pp..=cluster_devices).filter(|pp| cluster_devices.is_multiple_of(*pp)) {
        let dp = cluster_devices / pp;
        if !global_micro_batches.is_multiple_of(dp) {
            // A genuine strategy that cannot run: recorded (once per
            // method × simulator variant), not silently skipped, so the
            // sweep output explains the whole space.
            let reason = format!("global batch {global_micro_batches} not divisible by D={dp}");
            for &method in &methods {
                for &recompute in &modes {
                    for &sim in &variants {
                        out.push((
                            ParallelPlan {
                                method,
                                dp,
                                pp,
                                micro_batches: global_micro_batches,
                                micro_batch_size,
                                recompute,
                            },
                            sim,
                            Some(reason.clone()),
                        ));
                    }
                }
            }
            continue;
        }
        let per_group = global_micro_batches / dp;
        // A merge factor that does not divide the per-group batch names a
        // granularity that does not exist for this factorisation — there
        // is no candidate to reject, so it is skipped (duplicate and zero
        // factors likewise).
        let mut seen = Vec::new();
        for &merge in &opts.micro_batch_merges {
            if merge == 0 || !per_group.is_multiple_of(merge) || seen.contains(&merge) {
                continue;
            }
            seen.push(merge);
            for &method in &methods {
                for &recompute in &modes {
                    for &sim in &variants {
                        out.push((
                            ParallelPlan {
                                method,
                                dp,
                                pp,
                                micro_batches: per_group / merge,
                                micro_batch_size: micro_batch_size * merge,
                                recompute,
                            },
                            sim,
                            None,
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Price one feasible plan at one checkpoint interval — the single place
/// that decides what a checkpoint drains (the plan's largest per-device
/// weights+optimizer payload, over the cluster's weakest link) and how
/// failures arrive (fleet MTBF over the plan's devices). The tuner's
/// interval axis, the `ckpt` binary's goodput table and the golden
/// goodput snapshots all go through here.
pub fn plan_recovery_eval(
    result: &PlanResult,
    cluster: &ClusterSpec,
    interval: u32,
    opts: &RecoveryOptions,
) -> RecoveryEval {
    let state_bytes = result.group_report.weight_mem.iter().copied().max().unwrap_or(0);
    let devices = result.plan.dp * result.plan.pp;
    let seq_per_iter = result.throughput * result.iteration_time;
    recovery::evaluate(
        result.iteration_time,
        seq_per_iter,
        state_bytes,
        devices,
        cluster.weakest_link(),
        cluster.device_mtbf_s,
        interval,
        opts,
    )
}

/// Expand one feasible plan across the checkpoint-interval axis: one
/// candidate per interval, each priced by [`plan_recovery_eval`]. The
/// last interval takes the base by move, so `n` intervals cost `n - 1`
/// clones of the (span-heavy) plan result rather than `n`.
fn recovery_candidates(
    base: Candidate,
    intervals: &[u32],
    cluster: &ClusterSpec,
    opts: &TuneOptions,
) -> Vec<Candidate> {
    let evals: Vec<RecoveryEval> = intervals
        .iter()
        .map(|&k| plan_recovery_eval(&base.result, cluster, k, &opts.recovery))
        .collect();
    let mut out = Vec::with_capacity(evals.len());
    let mut remaining = evals.into_iter().peekable();
    while let Some(eval) = remaining.next() {
        if remaining.peek().is_some() {
            out.push(Candidate { recovery: Some(eval), ..base.clone() });
        } else {
            out.push(Candidate { recovery: Some(eval), ..base });
            break;
        }
    }
    out
}

/// One candidate's evaluation outcome: a simulated result, a statically
/// proven OOM (carrying the finished [`Rejection`] — no simulation ran),
/// or a shape-level failure.
enum Outcome {
    Simulated(PlanResult),
    StaticOom(Rejection),
    Shape(String),
}

/// What the static pre-pass decided about one plan.
enum StaticVerdict {
    /// Statically proven OOM on a deadlock-free schedule: skip the
    /// simulation and record this rejection.
    Reject(Rejection),
    /// The plan goes on to the engine. The built schedule and cost table
    /// travel along, with the cache keys the simulation stage reaches the
    /// sweep's lowering and report caches through.
    Simulate {
        resolved: Resolved,
        schedule_key: SchedKey,
        cost_key: CostKey,
        schedule: Arc<Schedule>,
        cost: Arc<CostTable>,
    },
}

/// The tuner's static pre-pass: decide `Rejection::Oom` without
/// simulating. It takes [`crate::plan::evaluate_plan`]'s pre-simulation
/// steps over the sweep's caches and fails with the same [`PlanError`].
/// A prune fires only when the analyzer also proves the schedule
/// deadlock-free (so the simulation it skips would have completed and
/// reported exactly these peaks — the analyzer's static replay is exact,
/// not just a bound) and some device's peak exceeds its capacity. One
/// deadlock check covers every data-parallel group: the verdict is
/// timing-independent and all groups run the same schedule.
fn static_verdict(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    plan: &ParallelPlan,
    sim: SimOptions,
    caches: &SweepCaches,
) -> Result<StaticVerdict, PlanError> {
    let resolved = resolve_plan(plan, cluster)?;
    let cfg = resolved.cfg;
    let (pp_eff, dp_eff) = (cfg.devices as usize, resolved.dp as usize);
    let schedule_key: SchedKey = (cfg.scheme, cfg.devices, cfg.micro_batches);
    let schedule = caches.schedule_for(schedule_key, &cfg)?;
    let cost_key: CostKey = (cfg.stages(), plan.micro_batch_size, plan.recompute);
    let cost = caches.cost_for(cost_key, model);
    validate_numerics(&cost, cluster, &sim).map_err(PlanError::Numerics)?;

    // Exact static replay of the engine's per-device memory accounting,
    // broadcast over the groups the way a plan evaluation merges group
    // reports (memory is schedule-order-determined, so every group peaks
    // identically; devices outside the plan stay at zero).
    let group_peak = caches.peaks_for((schedule_key, cost_key), &schedule, &cost);
    let mut peak_mem = vec![0u64; cluster.len()];
    for g in 0..dp_eff {
        for (r, &peak) in group_peak.iter().enumerate().take(pp_eff) {
            peak_mem[g * pp_eff + r] = peak;
        }
    }
    let oom_devices: Vec<usize> =
        (0..cluster.len()).filter(|&d| peak_mem[d] > cluster.memory(d)).collect();
    // Only an OOM pays for the happens-before DAG, whose verdict is
    // memoised per schedule shape: a prune fires only on a deadlock-free
    // schedule, so the simulation it skips would have reported exactly
    // these peaks rather than a deadlock. Anything else goes to the engine.
    if oom_devices.is_empty() || !caches.deadlock_free(schedule_key, &schedule) {
        return Ok(StaticVerdict::Simulate { resolved, schedule_key, cost_key, schedule, cost });
    }
    let (worst, peak) =
        oom_devices.iter().map(|&d| (d, peak_mem[d])).max_by_key(|&(_, m)| m).unwrap_or((0, 0));
    Ok(StaticVerdict::Reject(Rejection::Oom {
        plan: *plan,
        sim,
        peak_bytes: peak,
        capacity_bytes: cluster.memory(worst),
        devices: oom_devices,
    }))
}

/// One plan through the sweep's single path: the static pre-pass, then —
/// unless it proved an OOM — the simulation, through the sweep's cached
/// lowering and group reports.
fn evaluate(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    plan: &ParallelPlan,
    sim: SimOptions,
    caches: &SweepCaches,
) -> Result<Outcome, PlanError> {
    match static_verdict(model, cluster, plan, sim, caches)? {
        StaticVerdict::Reject(rejection) => Ok(Outcome::StaticOom(rejection)),
        StaticVerdict::Simulate { resolved, schedule_key, cost_key, schedule, cost } => {
            let (compiled, content_id) = caches.compiled_for(schedule_key, &schedule, &sim);
            let id = caches.report_id(schedule_key, cost_key, &sim, content_id);
            let result = simulate_plan(plan, cluster, sim, resolved, |sub, first| {
                caches.group_report(id, first, || {
                    try_simulate_compiled(&compiled, &schedule, &cost, sub, sim)
                })
            })?;
            Ok(Outcome::Simulated(result))
        }
    }
}

fn assemble(
    evaluated: Vec<(ParallelPlan, SimOptions, Outcome)>,
    cluster: &ClusterSpec,
    opts: &TuneOptions,
) -> Tuning {
    let intervals = opts.checkpoint_interval_variants();
    let mut ranked = Vec::new();
    let mut rejected = Vec::new();
    for (plan, sim, outcome) in evaluated {
        match outcome {
            Outcome::StaticOom(rejection) => rejected.push(rejection),
            Outcome::Simulated(result) if result.is_oom() => {
                // Report the worst of the devices that actually overflowed
                // (on heterogeneous-memory clusters the globally highest
                // peak can live on a device that fits).
                let (worst, peak) = result
                    .oom_devices
                    .iter()
                    .map(|&d| (d, result.peak_mem[d]))
                    .max_by_key(|&(_, m)| m)
                    .unwrap_or((0, 0));
                rejected.push(Rejection::Oom {
                    plan,
                    sim,
                    peak_bytes: peak,
                    capacity_bytes: cluster.memory(worst),
                    devices: result.oom_devices.clone(),
                });
            }
            Outcome::Simulated(result) => {
                let base = Candidate { plan, sim, result, recovery: None };
                if intervals.is_empty() {
                    ranked.push(base);
                } else {
                    ranked.extend(recovery_candidates(base, &intervals, cluster, opts));
                }
            }
            Outcome::Shape(reason) => rejected.push(Rejection::InvalidShape { plan, sim, reason }),
        }
    }
    ranked.sort_by(|a, b| {
        // Goodput when the recovery axis is active, raw throughput
        // otherwise; plan shape then interval break ties, so the order is
        // fully deterministic either way.
        b.ranking_metric()
            .total_cmp(&a.ranking_metric())
            .then_with(|| plan_key(&a.plan, &a.sim).cmp(&plan_key(&b.plan, &b.sim)))
            .then_with(|| {
                let interval = |c: &Candidate| c.recovery.map(|r| r.interval_iterations);
                interval(a).cmp(&interval(b))
            })
    });
    Tuning { ranked, rejected, searched: None }
}

/// Run the schedule-space search seeded from the winning plan's pipeline
/// shape and attach it to the tuning. Shared verbatim by [`tune_with`] and
/// [`tune_serial_with`]; the search is a pure function of its seed, so the two
/// paths stay byte-identical.
fn attach_schedule_search(
    mut tuning: Tuning,
    model: &ModelConfig,
    cluster: &ClusterSpec,
    opts: &TuneOptions,
) -> Tuning {
    let Some(search_opts) = opts.schedule_search else { return tuning };
    let Some(best) = tuning.best() else { return tuning };
    let Ok(Resolved { cfg, .. }) = resolve_plan(&best.plan, cluster) else { return tuning };
    // The search runs at the winner's effective pipeline shape, on its
    // first group's device slice.
    let devices: Vec<usize> = (0..cfg.devices as usize).collect();
    let sub = cluster.select(&devices);
    tuning.searched = search_schedule(
        model,
        &sub,
        cfg.devices,
        cfg.micro_batches,
        best.plan.micro_batch_size,
        best.plan.recompute,
        best.sim,
        &search_opts,
    )
    .ok();
    tuning
}

/// Classify and count one candidate verdict. The `outcome` label is the
/// assemble-stage fate: `ranked`, `oom` (simulated or statically proven),
/// or `shape` (plan-level rejection).
fn record_candidate(outcome: &Outcome) {
    if !hanayo_metrics::enabled() {
        return;
    }
    let label = match outcome {
        Outcome::Simulated(result) if result.is_oom() => "oom",
        Outcome::Simulated(_) => "ranked",
        Outcome::StaticOom(_) => "oom",
        Outcome::Shape(_) => "shape",
    };
    hanayo_metrics::counter_add("hanayo_tuner_candidates_total", &[("outcome", label)], 1);
    if matches!(outcome, Outcome::StaticOom(_)) {
        hanayo_metrics::counter_add("hanayo_tuner_static_prunes_total", &[], 1);
    }
}

fn evaluate_candidate(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    caches: &SweepCaches,
    (plan, sim, shape_reason): &(ParallelPlan, SimOptions, Option<String>),
) -> (ParallelPlan, SimOptions, Outcome) {
    let outcome = match shape_reason {
        Some(reason) => Outcome::Shape(reason.clone()),
        None => evaluate(model, cluster, plan, *sim, caches)
            .unwrap_or_else(|e| Outcome::Shape(e.to_string())),
    };
    record_candidate(&outcome);
    (*plan, *sim, outcome)
}

/// Live progress of one sweep, shared with whoever is watching it — the
/// planning service's job monitor endpoint reads these counters while the
/// sweep runs on a worker thread.
#[derive(Debug, Default)]
pub struct TuneProgress {
    evaluated: AtomicU64,
    total: AtomicU64,
}

impl TuneProgress {
    /// Candidates evaluated so far.
    pub fn evaluated(&self) -> u64 {
        self.evaluated.load(Ordering::SeqCst)
    }

    /// Total candidates in the sweep's space (0 until the space has been
    /// enumerated).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::SeqCst)
    }
}

/// Caller-supplied hooks for a long-running sweep: shared artifact
/// caches, cooperative cancellation, and live progress. The default
/// context sets none of them: sweep-local caches, no abort, no progress.
#[derive(Clone, Default)]
pub struct TuneContext {
    /// Artifact caches shared *across* sweeps. `None` gives each sweep
    /// its own caches. **Sharing contract:** the cache keys assume one
    /// model and one cluster — a resident service must key its shared
    /// handles by the `(model, cluster)` configuration.
    pub caches: Option<Arc<SweepCaches>>,
    /// Cooperative cancellation: checked between candidate batches; a
    /// tripped flag makes the sweep return [`TuneError::Cancelled`]
    /// instead of running to completion after its client is gone.
    pub abort: Option<Arc<AbortFlag>>,
    /// Live progress counters, updated once per candidate batch.
    pub progress: Option<Arc<TuneProgress>>,
    /// Candidates per batch between abort checkpoints; `0` means the
    /// default (32). Chunking never reorders evaluation, so results are
    /// byte-identical for every batch size.
    pub checkpoint_every: usize,
}

/// Default candidates per batch between cancellation checkpoints: small
/// enough that a cancel lands within tens of milliseconds on typical
/// spaces, large enough that parallel batches keep every worker busy.
const DEFAULT_CHECKPOINT_EVERY: usize = 32;

/// Why a context-driven sweep stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The context's [`AbortFlag`] tripped at a candidate-batch
    /// checkpoint; the sweep stopped without ranking.
    Cancelled {
        /// Candidates already evaluated when the flag was observed.
        evaluated: usize,
        /// Total candidates the sweep would have evaluated.
        total: usize,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Cancelled { evaluated, total } => {
                write!(f, "sweep cancelled after {evaluated}/{total} candidates")
            }
        }
    }
}

impl std::error::Error for TuneError {}

/// The shared sweep driver behind all four public entry points: enumerate
/// the space, evaluate it in candidate batches (parallel within a batch
/// when `parallel`, strictly in order otherwise — either way results are
/// collected in candidate order, so every configuration is byte-identical),
/// honour the context's abort flag between batches, and assemble the
/// ranking.
fn tune_impl(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    global_micro_batches: u32,
    micro_batch_size: u32,
    opts: &TuneOptions,
    ctx: &TuneContext,
    parallel: bool,
) -> Result<Tuning, TuneError> {
    let space = candidate_space(cluster.len() as u32, global_micro_batches, micro_batch_size, opts);
    let owned;
    let caches = match ctx.caches.as_deref() {
        Some(shared) => shared,
        None => {
            owned = SweepCaches::default();
            &owned
        }
    };
    if let Some(p) = &ctx.progress {
        p.total.store(space.len() as u64, Ordering::SeqCst);
        p.evaluated.store(0, Ordering::SeqCst);
    }
    let step =
        if ctx.checkpoint_every > 0 { ctx.checkpoint_every } else { DEFAULT_CHECKPOINT_EVERY };
    // Inert off a TTY (one atomic add per candidate, no clock reads), so
    // tests and CI see exactly the non-interactive path.
    let progress = hanayo_metrics::Progress::new("sweep", space.len() as u64);
    let mut evaluated: Vec<(ParallelPlan, SimOptions, Outcome)> = Vec::with_capacity(space.len());
    for batch in space.chunks(step) {
        if ctx.abort.as_ref().is_some_and(|a| a.is_tripped()) {
            progress.finish();
            return Err(TuneError::Cancelled { evaluated: evaluated.len(), total: space.len() });
        }
        if parallel {
            let outcomes: Vec<_> = batch
                .par_iter()
                .map(|cand| {
                    let out = evaluate_candidate(model, cluster, caches, cand);
                    progress.tick();
                    out
                })
                .collect();
            evaluated.extend(outcomes);
        } else {
            evaluated.extend(batch.iter().map(|cand| {
                let out = evaluate_candidate(model, cluster, caches, cand);
                progress.tick();
                out
            }));
        }
        if let Some(p) = &ctx.progress {
            p.evaluated.store(evaluated.len() as u64, Ordering::SeqCst);
        }
    }
    progress.finish();
    Ok(attach_schedule_search(assemble(evaluated, cluster, opts), model, cluster, opts))
}

/// Sweep the strategy space and rank feasible plans by throughput,
/// evaluating candidates in parallel, with caller-supplied hooks: shared
/// caches, cooperative cancellation, live progress (pass
/// `&TuneContext::default()` for none). The ranking is byte-identical to
/// [`tune_serial_with`] — see the module docs — and the context changes
/// *when* a sweep may stop and *where* artifacts live, never what it
/// computes; only a tripped abort flag makes it return
/// [`TuneError::Cancelled`].
///
/// `global_micro_batches` is the batch per iteration across the whole
/// cluster; each candidate splits it evenly over its data-parallel groups
/// (plans whose `D` does not divide it are recorded as shape rejections).
pub fn tune_with(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    global_micro_batches: u32,
    micro_batch_size: u32,
    opts: &TuneOptions,
    ctx: &TuneContext,
) -> Result<Tuning, TuneError> {
    tune_impl(model, cluster, global_micro_batches, micro_batch_size, opts, ctx, true)
}

/// The serial reference for [`tune_with`]: identical candidate space,
/// identical ranking, one candidate at a time. Exists so tests (and
/// sceptical users) can verify that parallel evaluation never changes the
/// answer.
pub fn tune_serial_with(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    global_micro_batches: u32,
    micro_batch_size: u32,
    opts: &TuneOptions,
    ctx: &TuneContext,
) -> Result<Tuning, TuneError> {
    tune_impl(model, cluster, global_micro_batches, micro_batch_size, opts, ctx, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::evaluate_plan;
    use hanayo_cluster::topology::{fc_full_nvlink, lonestar6};

    fn opts() -> TuneOptions {
        TuneOptions { waves: vec![1, 2, 4], min_pp: 4, ..Default::default() }
    }

    #[test]
    fn tuner_finds_a_feasible_plan() {
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let t =
            tune_with(&model, &fc_full_nvlink(8), 8, 1, &opts(), &TuneContext::default()).unwrap();
        let best = t.best().expect("something fits an 80GB box");
        assert!(best.result.throughput > 0.0);
    }

    #[test]
    fn best_plan_is_a_wave_schedule() {
        // On a healthy interconnect the tuner must pick Hanayo.
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let t =
            tune_with(&model, &fc_full_nvlink(8), 8, 1, &opts(), &TuneContext::default()).unwrap();
        let best = t.best().unwrap();
        assert!(
            matches!(best.plan.method, Method::Hanayo { .. }),
            "tuner chose {:?}",
            best.plan.method
        );
    }

    #[test]
    fn ranking_is_sorted_by_throughput() {
        let model = ModelConfig::gpt128().with_train_bytes_per_param(8);
        let t = tune_with(&model, &lonestar6(8), 8, 1, &opts(), &TuneContext::default()).unwrap();
        for pair in t.ranked.windows(2) {
            assert!(pair[0].result.throughput >= pair[1].result.throughput);
        }
    }

    #[test]
    fn oom_plans_are_reported_not_ranked() {
        // Full-Adam BERT on 40 GB cards with a deep micro-batch: some plans
        // must be rejected for memory and carry their peak.
        let model = ModelConfig::bert64();
        let t = tune_with(&model, &lonestar6(8), 16, 4, &opts(), &TuneContext::default()).unwrap();
        assert!(t.rejected.iter().any(Rejection::is_oom), "expected OOM rejections");
        for r in &t.rejected {
            if let Rejection::Oom { peak_bytes, capacity_bytes, devices, .. } = r {
                assert!(*peak_bytes > 38_000_000_000);
                assert!(peak_bytes > capacity_bytes);
                assert!(!devices.is_empty());
            }
        }
        for c in &t.ranked {
            assert!(!c.result.is_oom());
        }
    }

    /// The per-candidate reference: [`evaluate_plan`] on every entry of the
    /// candidate space (pre-filled shape reasons pass through unchanged),
    /// ranked by [`assemble`].
    fn reference_tuning(
        model: &ModelConfig,
        cluster: &ClusterSpec,
        batch: u32,
        micro_batch_size: u32,
        opts: &TuneOptions,
    ) -> Tuning {
        let evaluated = candidate_space(cluster.len() as u32, batch, micro_batch_size, opts)
            .into_iter()
            .map(|(plan, sim, shape_reason)| {
                let outcome = match shape_reason {
                    Some(reason) => Outcome::Shape(reason),
                    None => match evaluate_plan(&plan, model, cluster, sim) {
                        Ok(result) => Outcome::Simulated(result),
                        Err(e) => Outcome::Shape(e.to_string()),
                    },
                };
                (plan, sim, outcome)
            })
            .collect();
        assemble(evaluated, cluster, opts)
    }

    #[test]
    fn sweep_matches_the_per_candidate_reference() {
        // The sweep's one path — static pre-pass, cached schedules, cost
        // tables, memory replays, lowerings and group reports — must
        // reproduce evaluate_plan on every candidate: ranking, rejection
        // records, order, under both parallel and serial evaluation.
        let bert = ModelConfig::bert64();
        let bert8 = ModelConfig::bert64().with_train_bytes_per_param(8);
        let gpt8 = ModelConfig::gpt128().with_train_bytes_per_param(8);
        let scenarios = [
            // OOM-heavy: full-Adam BERT on 40 GB cards, deep micro-batches.
            (&bert, lonestar6(8), 16, 4, opts().wide()),
            (&bert8, lonestar6(8), 16, 1, opts().wide()),
            // Odd Chimera splits and indivisible batches.
            (&gpt8, fc_full_nvlink(8), 7, 1, opts()),
        ];
        let mut swept = Vec::new();
        for (model, cluster, batch, mbs, opts) in &scenarios {
            let reference = reference_tuning(model, cluster, *batch, *mbs, opts);
            let parallel =
                tune_with(model, cluster, *batch, *mbs, opts, &TuneContext::default()).unwrap();
            assert_eq!(parallel, reference);
            assert_eq!(
                tune_serial_with(model, cluster, *batch, *mbs, opts, &TuneContext::default())
                    .unwrap(),
                reference
            );
            swept.push(parallel);
        }
        let reasons: Vec<String> = swept[2]
            .rejected
            .iter()
            .filter_map(|r| match r {
                Rejection::InvalidShape { reason, .. } => Some(reason.clone()),
                Rejection::Oom { .. } => None,
            })
            .collect();
        assert!(reasons.contains(&PlanError::OddChimeraSplit.to_string()), "{reasons:?}");
        assert!(reasons.iter().any(|r| r.contains("not divisible by D=2")), "{reasons:?}");

        // Each memory rejection is one simulation the pre-pass avoided, and
        // the pre-pass alone reproduces each recorded rejection.
        let (model, cluster, ..) = &scenarios[0];
        let ooms = swept[0].rejected.iter().filter(|r| r.is_oom()).count();
        assert_eq!(ooms, 104, "simulations avoided by the static pre-pass");
        let caches = SweepCaches::default();
        for r in &swept[0].rejected {
            if let Rejection::Oom { plan, sim, .. } = r {
                let Ok(StaticVerdict::Reject(statically)) =
                    static_verdict(model, cluster, plan, *sim, &caches)
                else {
                    panic!("every simulated OOM must be statically decidable");
                };
                assert_eq!(&statically, r);
            }
        }
    }

    #[test]
    fn indivisible_batches_are_rejected_with_reasons_not_crashed() {
        let model = ModelConfig::gpt128().with_train_bytes_per_param(8);
        // 7 micro-batches over 8 devices: only D=1 factorisations apply.
        let t =
            tune_with(&model, &fc_full_nvlink(8), 7, 1, &opts(), &TuneContext::default()).unwrap();
        for c in &t.ranked {
            assert_eq!(c.plan.dp, 1);
        }
        // The D=2 slice of the space is recorded as shape rejections.
        assert!(
            t.rejected.iter().any(|r| !r.is_oom() && r.plan().dp == 2),
            "{:?}",
            t.rejected.len()
        );
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let cluster = lonestar6(8);
        let wide = opts().wide();
        let par = tune_with(&model, &cluster, 16, 1, &wide, &TuneContext::default()).unwrap();
        let ser =
            tune_serial_with(&model, &cluster, 16, 1, &wide, &TuneContext::default()).unwrap();
        assert_eq!(par, ser);
    }

    #[test]
    fn wide_space_contains_ablations_and_merges() {
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let t =
            tune_with(&model, &fc_full_nvlink(8), 16, 1, &opts().wide(), &TuneContext::default())
                .unwrap();
        assert!(t.ranked.iter().any(|c| !c.sim.prefetch), "prefetch ablation missing");
        assert!(t.ranked.iter().any(|c| c.sim.recv_lookahead == 4), "lookahead sweep missing");
        assert!(t.ranked.iter().any(|c| c.plan.micro_batch_size == 2), "micro-batch merge missing");
        assert!(
            t.ranked.iter().any(|c| c.plan.recompute == Recompute::Full),
            "recompute axis missing"
        );
        // Merged candidates process the same sequences per iteration.
        for c in &t.ranked {
            assert_eq!(c.plan.dp * c.plan.micro_batches * c.plan.micro_batch_size, 16);
        }
    }

    #[test]
    fn recompute_variants_dedupe_and_never_go_empty() {
        // The capacity-rescue scenario itself lives in
        // tests/tuner_props.rs (capacity_constrained_cluster_is_rescued_
        // by_the_recompute_axis); here we pin the axis normalisation.
        let opts = TuneOptions {
            recompute_modes: vec![Recompute::Full, Recompute::Full, Recompute::None],
            ..Default::default()
        };
        assert_eq!(opts.recompute_variants(), vec![Recompute::Full, Recompute::None]);
        let empty = TuneOptions { recompute_modes: Vec::new(), ..Default::default() };
        assert_eq!(empty.recompute_variants(), vec![Recompute::None]);
    }

    #[test]
    fn checkpoint_interval_axis_expands_and_ranks_by_goodput() {
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let mut cluster = fc_full_nvlink(8);
        // A short-MTBF what-if cluster so the failure term actually bites.
        cluster.device_mtbf_s = 40_000.0;
        let base = TuneOptions { waves: vec![2], min_pp: 8, ..Default::default() };
        let plain = tune_with(&model, &cluster, 8, 1, &base, &TuneContext::default()).unwrap();
        let with_axis = tune_with(
            &model,
            &cluster,
            8,
            1,
            &TuneOptions { checkpoint_intervals: vec![4, 0, 16, 4], ..base },
            &TuneContext::default(),
        )
        .unwrap();
        // Dedup dropped the 0 and the duplicate: 2 intervals per plan.
        assert_eq!(with_axis.ranked.len(), 2 * plain.ranked.len());
        for c in &with_axis.ranked {
            let r = c.recovery.expect("the axis annotates every candidate");
            assert!(r.goodput_seq_per_s < c.result.throughput, "goodput must cost something");
            assert!(r.efficiency > 0.0 && r.efficiency < 1.0);
            assert_eq!(c.ranking_metric(), r.goodput_seq_per_s);
        }
        // Ranked by goodput, deterministically.
        for pair in with_axis.ranked.windows(2) {
            assert!(pair[0].ranking_metric() >= pair[1].ranking_metric());
        }
        // Plain searches carry no recovery annotation.
        assert!(plain.ranked.iter().all(|c| c.recovery.is_none()));
    }

    #[test]
    fn best_interval_matches_young_daly_closed_form() {
        use hanayo_ckpt::recovery::young_daly_interval_s;
        // Uniform-cost micro-model: one method, one factorisation, a dense
        // interval grid. The sweep's winning interval must agree with the
        // closed form within one grid step (documented tolerance: the
        // optimum in iterations is fractional; the sweep is integral).
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let mut cluster = fc_full_nvlink(8);
        cluster.device_mtbf_s = 40_000.0;
        let opts = TuneOptions {
            methods: vec![Method::Dapple],
            waves: Vec::new(),
            min_pp: 8,
            checkpoint_intervals: (1..=400).collect(),
            ..Default::default()
        };
        let t = tune_with(&model, &cluster, 8, 1, &opts, &TuneContext::default()).unwrap();
        let best = t.best().expect("one plan, many intervals");
        let r = best.recovery.unwrap();
        let star_s = young_daly_interval_s(r.checkpoint_write_s, r.cluster_mtbf_s, r.restart_s);
        let star_k = star_s / best.result.iteration_time;
        assert!(
            (1.0..=400.0).contains(&star_k),
            "closed-form optimum {star_k} must sit inside the sweep grid"
        );
        assert!(
            (r.interval_iterations as f64 - star_k).abs() <= 1.0,
            "sweep optimum {} vs Young–Daly {star_k}",
            r.interval_iterations
        );
    }

    #[test]
    fn schedule_search_axis_attaches_a_searched_candidate() {
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let cluster = fc_full_nvlink(8);
        let search =
            ScheduleSearchOptions { max_rounds: 6, moves_per_round: 8, ..Default::default() };
        let with = TuneOptions { schedule_search: Some(search), ..opts() };
        let par = tune_with(&model, &cluster, 8, 1, &with, &TuneContext::default()).unwrap();
        let searched = par.searched.as_ref().expect("axis on + feasible best ⇒ searched");
        // Never worse than its own best named baseline, and internally
        // consistent with the winning plan's shape.
        assert!(searched.iteration_time_s <= searched.baseline_iteration_time_s);
        assert!(!searched.baselines.is_empty());
        // Byte-identical across the parallel and serial paths.
        let ser = tune_serial_with(&model, &cluster, 8, 1, &with, &TuneContext::default()).unwrap();
        assert_eq!(par, ser);
        // Axis off ⇒ no searched candidate, ranking unchanged.
        let without = tune_with(&model, &cluster, 8, 1, &opts(), &TuneContext::default()).unwrap();
        assert!(without.searched.is_none());
        assert_eq!(without.ranked, par.ranked);
    }

    #[test]
    fn pre_tripped_abort_cancels_before_any_candidate() {
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let abort = Arc::new(AbortFlag::new());
        abort.trip();
        let ctx = TuneContext { abort: Some(abort), ..Default::default() };
        let err = tune_with(&model, &fc_full_nvlink(8), 8, 1, &opts(), &ctx)
            .expect_err("a tripped flag must cancel the sweep");
        let TuneError::Cancelled { evaluated, total } = err;
        assert_eq!(evaluated, 0);
        assert!(total > 0);
    }

    #[test]
    fn abort_between_batches_stops_the_sweep_partway() {
        // A 1-candidate batch size with a flag tripped from a progress
        // watcher: the sweep must stop at a checkpoint, not run dry.
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let cluster = fc_full_nvlink(8);
        let abort = Arc::new(AbortFlag::new());
        let progress = Arc::new(TuneProgress::default());
        let ctx = TuneContext {
            abort: Some(abort.clone()),
            progress: Some(progress.clone()),
            checkpoint_every: 1,
            ..Default::default()
        };
        let watcher = {
            let abort = abort.clone();
            let progress = progress.clone();
            std::thread::spawn(move || {
                while progress.evaluated() < 2 {
                    std::thread::yield_now();
                }
                abort.trip();
            })
        };
        let result = tune_serial_with(&model, &cluster, 16, 1, &opts().wide(), &ctx);
        watcher.join().expect("watcher thread");
        let TuneError::Cancelled { evaluated, total } =
            result.expect_err("the tripped flag must cancel mid-sweep");
        assert!(evaluated >= 2, "cancel observed after the watcher's threshold");
        assert!(evaluated < total, "the sweep must not have run to completion");
        assert_eq!(progress.total(), total as u64);
    }

    #[test]
    fn context_hooks_do_not_change_the_answer() {
        // Shared caches + progress + an (untripped) abort flag + odd batch
        // size: byte-identical to the plain paths, parallel and serial.
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let cluster = lonestar6(8);
        let wide = opts().wide();
        let shared = Arc::new(SweepCaches::default());
        let ctx = TuneContext {
            caches: Some(shared.clone()),
            abort: Some(Arc::new(AbortFlag::new())),
            progress: Some(Arc::new(TuneProgress::default())),
            checkpoint_every: 7,
        };
        let plain = tune_with(&model, &cluster, 16, 1, &wide, &TuneContext::default()).unwrap();
        let hooked = tune_with(&model, &cluster, 16, 1, &wide, &ctx).expect("untripped");
        assert_eq!(plain, hooked);
        // A second sweep over the now-warm shared caches: still identical.
        let warm = tune_serial_with(&model, &cluster, 16, 1, &wide, &ctx).expect("untripped");
        assert_eq!(plain, warm);
        assert!(shared.entries() > 0, "the shared handle must have been populated");
    }

    #[test]
    fn prefetch_ablation_never_outranks_prefetch_for_same_plan() {
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let t = tune_with(
            &model,
            &lonestar6(8),
            8,
            1,
            &TuneOptions { sweep_prefetch: true, ..opts() },
            &TuneContext::default(),
        )
        .unwrap();
        for on in t.ranked.iter().filter(|c| c.sim.prefetch) {
            if let Some(off) = t.ranked.iter().find(|c| {
                !c.sim.prefetch
                    && c.plan == on.plan
                    && c.sim.recv_lookahead == on.sim.recv_lookahead
            }) {
                assert!(on.result.throughput >= off.result.throughput * (1.0 - 1e-9));
            }
        }
    }
}
