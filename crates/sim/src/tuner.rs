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
//! The sweep runs in *shape tasks*, one per resolved schedule shape: all
//! candidates whose plans resolve to one `(scheme, P, B, micro-batch
//! size)`, which differ only in recompute mode, simulator variant or the
//! method that named the shape (Chimera-wave at `2P` resolves to Hanayo
//! `W = 1` at `P`). They share one schedule, one lowering per lookahead
//! and their group reports. One `par_iter` evaluates the tasks, largest
//! resolved `P×B` first, and each executor claims the next task as soon as
//! it is free, so a shape's artifacts are built and its reports simulated
//! once, by the executor that runs it, and the executors finish together.
//! The final ranking is nevertheless *byte-identical* to a serial run
//! ([`tune_serial_with`]: the same tasks in the same order on the calling
//! thread) because outcomes are put back by candidate index and the
//! ranking is a stable sort on `(throughput, plan)` keys — worker
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
//! context's shared handle, or one built for the sweep — or in the
//! [`crate::ShapeTier`] under it, and is a pure function of its key, so
//! the outcome equals [`crate::plan::evaluate_plan`] run on each
//! candidate, rejection texts included (a test pins this), except that
//! the simulations run span-free: a ranking reads scalars, so every
//! `group_report.spans` in a [`Tuning`] is empty.
//!
//! ## Lookahead variants proven, not simulated
//!
//! A wide sweep evaluates every plan under receive lookaheads 1, 2 and 4,
//! and a deeper lookahead almost never changes a report: it only posts
//! some receives at an earlier compute, and a receive posted earlier
//! changes nothing when (a) its send came later anyway, or (b) its
//! message had arrived before the receiver needed it and moving its
//! transfer on the link delays no other transfer (the argument is in
//! [`crate::engine`]'s module docs). So each lookahead-1 group run that
//! misses the report memo records what that argument needs, and right
//! after it, in the same shape task, the record is checked against the
//! windows of each deeper variant not yet in the memo (windows equal to
//! the lookahead-1 ones pass at once). A proven variant's memo entry is
//! the lookahead-1 report; a refused one is simulated when its candidate
//! comes up. The record is dropped after the check. Either way the
//! report is the one the simulation returns, so the output is unchanged;
//! `hanayo_tuner_lookahead_proofs_total` counts the checks by outcome.
//!
//! ## Top-k sweeps
//!
//! A sweep asked for only its `k` best candidates ([`TuneOptions::top`])
//! does not simulate what cannot rank. It runs in two phases:
//!
//! * **Pre-pass.** Over the shape tasks, as above, every candidate takes
//!   the static pre-pass, so OOM and shape rejections are decided as in a
//!   full sweep. Each survivor gets an upper bound on its throughput: its
//!   sequences over the largest group critical path
//!   ([`hanayo_analyze::critical_path`], memoised per shape, cost table
//!   and sub-cluster content) plus the exact all-reduce time. A critical
//!   path never exceeds the group's simulated iteration time by more than
//!   [`CRITICAL_PATH_SLACK`], under any simulator variant, so each shape
//!   task bounds a plan once for all its variants.
//! * **Rounds.** The survivors are then simulated in descending bound
//!   order, ties broken by candidate index, in rounds of `k`. Inside a
//!   round each resolved shape's candidates run as one pool task in
//!   candidate order, so two executors never both miss one report memo
//!   entry. The rounds stop once `k` candidates have ranked and no
//!   unsimulated bound reaches the k-th best throughput within the slack.
//!
//! A candidate whose bound cannot be computed (its schedule does not lower
//! or its replay stalls) is always simulated, so every rejection a full
//! sweep records is recorded here too. The skipped candidates are counted
//! in [`Tuning::unranked`]; they are not rejections. Rounds depend only on
//! the request, so a parallel top-k sweep simulates exactly what a serial
//! one does. Its first `k` ranked candidates are the full sweep's, in the
//! same order: a skipped candidate's throughput is below the k-th best
//! simulated one, which is no better than the full sweep's k-th best.

use crate::cache::{report_key, CostKey, SchedKey, Shape, SweepCaches};
use crate::engine::{
    try_simulate_recorded, try_simulate_scalars, validate_numerics, SimError, SimOptions,
};
use crate::plan::{
    bound_plan, global_peaks, resolve_plan, simulate_plan, Method, ParallelPlan, PlanError,
    PlanResult, Resolved,
};
use hanayo_analyze::{device_bytes, CRITICAL_PATH_SLACK};
use hanayo_ckpt::recovery;
use hanayo_ckpt::{RecoveryEval, RecoveryOptions};
use hanayo_cluster::ClusterSpec;
use hanayo_core::abort::AbortFlag;
use hanayo_model::{CostTable, ModelConfig, Recompute};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::HashMap;
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
    /// Feasible candidates a top-k sweep did not simulate because their
    /// throughput bound proved they could not rank (see the module docs);
    /// always 0 for a full sweep. With `ranked` and `rejected` they cover
    /// the whole space.
    pub unranked: usize,
}

impl Tuning {
    /// The winning candidate (None if nothing fits).
    pub fn best(&self) -> Option<&Candidate> {
        self.ranked.first()
    }
}

/// The methods every sweep considers beside Hanayo's wave counts.
const METHODS: [Method; 3] = [Method::GPipe, Method::Dapple, Method::ChimeraWave];

/// Search knobs.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Wave counts searched for Hanayo.
    pub waves: Vec<u32>,
    /// Minimum pipeline width to consider (deep models cannot shrink `P`
    /// below their memory share).
    pub min_pp: u32,
    /// Activation-recomputation modes to sweep. Checkpointing trades one
    /// extra forward per backward for a boundary-only stash, so on
    /// memory-constrained clusters plans that are `Rejection::Oom` under
    /// [`Recompute::None`] can come back ranked under [`Recompute::Full`].
    /// Duplicates are skipped; an empty list falls back to `None` only.
    pub recompute_modes: Vec<Recompute>,
    /// Widen the simulator and granularity axes: also evaluate every
    /// candidate with receive lookaheads 2 and 4 and with prefetching off
    /// (the §4.2 ablation), and with micro-batch merge factor 2 — the same
    /// sequences per iteration in half as many micro-batches of twice the
    /// size, where the per-group batch divides evenly.
    pub wide: bool,
    /// Rank only the `k` best candidates: `ranked` then holds at least the
    /// first `k` rows of the full ranking, and candidates that provably
    /// rank below them are counted in [`Tuning::unranked`] instead of
    /// simulated (see the module docs). `None` ranks the whole space.
    pub top: Option<usize>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            waves: vec![1, 2, 4, 8],
            min_pp: 2,
            recompute_modes: vec![Recompute::None],
            wide: false,
            top: None,
        }
    }
}

impl TuneOptions {
    /// The widest built-in space: the `wide` axes (prefetch ablation,
    /// lookaheads {1, 2, 4}, micro-batch merge factors {1, 2}) and both
    /// recomputation modes.
    pub fn wide(self) -> TuneOptions {
        TuneOptions { wide: true, recompute_modes: Recompute::ALL.to_vec(), ..self }
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

    /// The simulator-option variants this search sweeps, in deterministic
    /// order: the default options, then (wide only) lookaheads 2 and 4 and
    /// the prefetch ablation. `recv_lookahead` is meaningless without
    /// prefetching, so the ablation keeps the default lookahead.
    fn sim_variants(&self) -> Vec<SimOptions> {
        let base = SimOptions::default();
        if !self.wide {
            return vec![base];
        }
        vec![
            base,
            SimOptions { recv_lookahead: 2, ..base },
            SimOptions { recv_lookahead: 4, ..base },
            SimOptions { prefetch: false, ..base },
        ]
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
    let mut methods = METHODS.to_vec();
    methods.extend(opts.waves.iter().map(|&w| Method::Hanayo { waves: w }));
    let variants = opts.sim_variants();
    let modes = opts.recompute_variants();
    // Merge factor `m` evaluates `B/m` micro-batches of `m ×
    // micro_batch_size` sequences.
    let merges: &[u32] = if opts.wide { &[1, 2] } else { &[1] };

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
        // is no candidate to reject, so it is skipped.
        for &merge in merges {
            if !per_group.is_multiple_of(merge) {
                continue;
            }
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
/// failures arrive (fleet MTBF over the plan's devices). The `ckpt`
/// binary's goodput table and the golden goodput snapshots both go
/// through here.
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

/// One candidate's evaluation outcome: a simulated result, a rejection (a
/// statically proven OOM, for which no simulation ran, or a shape-level
/// failure), or (top-k sweeps only) a candidate whose bound proved it
/// could not rank.
enum Outcome {
    Simulated(PlanResult),
    Rejected(Rejection),
    Unranked,
}

/// What the static pre-pass decided about one plan.
enum StaticVerdict {
    /// Statically proven OOM on a deadlock-free schedule: skip the
    /// simulation and record this rejection.
    Reject(Rejection),
    /// The plan goes on to the engine.
    Simulate(Survivor),
}

/// A plan the static pre-pass sends on to the engine: its schedule shape,
/// cost table and group peaks, with the cache keys the simulation and the
/// bound reach the sweep's window, report and critical-path caches
/// through.
struct Survivor {
    resolved: Resolved,
    schedule_key: SchedKey,
    cost_key: CostKey,
    shape: Arc<Shape>,
    cost: Arc<CostTable>,
    peaks: Arc<Vec<u64>>,
}

/// The tuner's static pre-pass: decide `Rejection::Oom` without
/// simulating. It takes [`crate::plan::evaluate_plan`]'s pre-simulation
/// steps over the sweep's caches and fails with the same [`PlanError`].
/// A prune fires only when the analyzer also proves the schedule
/// deadlock-free (so the simulation it skips would have completed and
/// reported exactly these peaks: the engine reports the same fold) and
/// some device's peak exceeds its capacity. One deadlock check covers
/// every data-parallel group: the verdict is timing-independent and all
/// groups run the same schedule. This is the only place a sweep decides
/// an OOM: a simulated candidate reports the peaks checked here.
fn static_verdict(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    plan: &ParallelPlan,
    sim: SimOptions,
    caches: &SweepCaches,
) -> Result<StaticVerdict, PlanError> {
    let resolved = resolve_plan(plan, cluster)?;
    let cfg = resolved.cfg;
    let schedule_key: SchedKey = (cfg.scheme, cfg.devices, cfg.micro_batches);
    let shape = caches.shapes.schedule_for(schedule_key, &cfg)?;
    let cost_key: CostKey = (cfg.stages(), plan.micro_batch_size, plan.recompute);
    let cost = caches.cost_for(cost_key, model);
    validate_numerics(&cost, cluster).map_err(PlanError::Numerics)?;

    // The group peaks the engine will report, broadcast over the groups
    // as a plan evaluation does.
    let peaks = caches.peaks_for((schedule_key, cost_key), &shape.schedule, &cost);
    let (peak_mem, oom_devices) = global_peaks(cluster, &peaks, resolved.dp);
    // Only an OOM pays for the happens-before replay, whose verdict the
    // shape keeps: a prune fires only on a deadlock-free schedule, so the
    // simulation it skips would have reported exactly these peaks rather
    // than a deadlock. Anything else goes to the engine.
    Ok(match oom_rejection(plan, sim, cluster, &peak_mem, oom_devices) {
        Some(rejection) if shape.deadlock_free() => StaticVerdict::Reject(rejection),
        _ => StaticVerdict::Simulate(Survivor {
            resolved,
            schedule_key,
            cost_key,
            shape,
            cost,
            peaks,
        }),
    })
}

/// The rejection of a plan whose global peaks overflow `devices`, naming
/// the worst of them (on heterogeneous-memory clusters the globally
/// highest peak can live on a device that fits); `None` when every device
/// fits.
fn oom_rejection(
    plan: &ParallelPlan,
    sim: SimOptions,
    cluster: &ClusterSpec,
    peak_mem: &[u64],
    devices: Vec<usize>,
) -> Option<Rejection> {
    let (worst, peak_bytes) = devices.iter().map(|&d| (d, peak_mem[d])).max_by_key(|&(_, m)| m)?;
    let capacity_bytes = cluster.memory(worst);
    Some(Rejection::Oom { plan: *plan, sim, peak_bytes, capacity_bytes, devices })
}

/// The static half of one candidate's evaluation: the survivor the engine
/// takes on, or the rejection (shape or OOM) the pre-pass decides.
fn prepass(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    caches: &SweepCaches,
    (plan, sim, shape_reason): &(ParallelPlan, SimOptions, Option<String>),
) -> Result<Survivor, Rejection> {
    let shape = |reason| Rejection::InvalidShape { plan: *plan, sim: *sim, reason };
    if let Some(reason) = shape_reason {
        return Err(shape(reason.clone()));
    }
    match static_verdict(model, cluster, plan, *sim, caches) {
        Ok(StaticVerdict::Simulate(survivor)) => Ok(survivor),
        Ok(StaticVerdict::Reject(rejection)) => Err(rejection),
        Err(e) => Err(shape(e.to_string())),
    }
}

/// The simulated half: a pre-pass survivor through the sweep's cached
/// lowering and group reports; an engine error is a shape rejection. When
/// `sim` is the lookahead-1 run, each group run that misses the memo also
/// tries to prove the `deeper` lookahead variants equal to it (see the
/// module docs).
fn simulate(
    cluster: &ClusterSpec,
    caches: &SweepCaches,
    deeper: &[SimOptions],
    (plan, sim, _): &(ParallelPlan, SimOptions, Option<String>),
    survivor: &Survivor,
) -> Outcome {
    let sim = *sim;
    let Survivor { resolved, schedule_key, cost_key, shape, cost, peaks } = survivor;
    let (schedule_key, cost_key) = (*schedule_key, *cost_key);
    // Only the lookahead-1 run proves the deeper variants.
    let deeper = if sim == SimOptions::default() { deeper } else { &[] };
    let compiled = caches.shapes.compiled_for(schedule_key, shape, &sim);
    let (schedule, peaks) = (&shape.schedule, Some(peaks.as_slice()));
    simulate_plan(plan, cluster, *resolved, |sub| {
        let sub_cluster = caches.sub_cluster_id(sub);
        let key = report_key(schedule_key, cost_key, &sim, sub_cluster);
        caches.group_report(key, || {
            // The deeper variants whose report is still unknown.
            let targets: Vec<_> = deeper
                .iter()
                .map(|opts| (report_key(schedule_key, cost_key, opts, sub_cluster), opts))
                .filter(|(target, _)| caches.reports.get(target).is_none())
                .collect();
            if targets.is_empty() {
                return try_simulate_scalars(&compiled, schedule, cost, sub, peaks, sim);
            }
            let (report, record) =
                try_simulate_recorded(&compiled, schedule, cost, sub, peaks, sim)?;
            for (target, opts) in targets {
                let lowering = caches.shapes.compiled_for(schedule_key, shape, opts);
                let proven = record.proves(&compiled, &lowering);
                record_proof(proven);
                if proven {
                    caches.reports.insert_if_absent(target, report.clone());
                }
            }
            Ok::<_, SimError>(report)
        })
    })
    .map_or_else(
        |e| Outcome::Rejected(Rejection::InvalidShape { plan: *plan, sim, reason: e.to_string() }),
        Outcome::Simulated,
    )
}

/// An upper bound on a survivor's simulated throughput (see the module
/// docs): its sequences over its largest group critical path plus its
/// exact all-reduce time. `None` when some group's critical path cannot be
/// computed.
fn survivor_bound(
    plan: &ParallelPlan,
    cluster: &ClusterSpec,
    survivor: &Survivor,
    caches: &SweepCaches,
) -> Option<f64> {
    let Survivor { resolved, schedule_key, cost_key, shape, cost, .. } = survivor;
    // The per-rank gradient bytes every group report carries.
    let grad_mem = device_bytes(&shape.schedule.stage_map, &cost.grad_bytes);
    bound_plan(plan, cluster, *resolved, &grad_mem, |sub| {
        let key = (*schedule_key, *cost_key, caches.sub_cluster_id(sub));
        caches.critical_path_for(key, shape, cost, sub)
    })
}

/// The throughput bound a top-k sweep ranks `plan` by before simulating
/// it (see the module docs): under any [`SimOptions`], the simulated
/// throughput is at most `bound × (1 + CRITICAL_PATH_SLACK)`. `None` when
/// the static pre-pass rejects the plan or a group's critical path cannot
/// be computed. `caches` follows [`TuneContext::caches`]' sharing
/// contract; pass `&SweepCaches::default()` for a one-off bound.
pub fn throughput_bound(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    plan: &ParallelPlan,
    caches: &SweepCaches,
) -> Option<f64> {
    match static_verdict(model, cluster, plan, SimOptions::default(), caches).ok()? {
        StaticVerdict::Simulate(survivor) => survivor_bound(plan, cluster, &survivor, caches),
        StaticVerdict::Reject(_) => None,
    }
}

/// Count one lookahead check by its outcome: `proven` (the variant reuses
/// the lookahead-1 report) or `simulated` (it will run).
fn record_proof(proven: bool) {
    if hanayo_metrics::enabled() {
        let outcome = if proven { "proven" } else { "simulated" };
        hanayo_metrics::counter_add(
            "hanayo_tuner_lookahead_proofs_total",
            &[("outcome", outcome)],
            1,
        );
    }
}

fn assemble(evaluated: Vec<(ParallelPlan, SimOptions, Outcome)>) -> Tuning {
    let mut ranked = Vec::new();
    let mut rejected = Vec::new();
    let mut unranked = 0;
    for (plan, sim, outcome) in evaluated {
        match outcome {
            Outcome::Rejected(rejection) => rejected.push(rejection),
            Outcome::Simulated(result) => {
                debug_assert!(!result.is_oom(), "the static pre-pass decides every OOM");
                ranked.push(Candidate { plan, sim, result })
            }
            Outcome::Unranked => unranked += 1,
        }
    }
    ranked.sort_by(|a, b| {
        // Plan shape breaks throughput ties, so the order is fully
        // deterministic.
        b.result
            .throughput
            .total_cmp(&a.result.throughput)
            .then_with(|| plan_key(&a.plan, &a.sim).cmp(&plan_key(&b.plan, &b.sim)))
    });
    Tuning { ranked, rejected, unranked }
}

/// Classify and count one candidate verdict. The `outcome` label is the
/// assemble-stage fate: `ranked`, `oom` (statically proven), `shape`
/// (plan-level rejection) or `unranked` (a top-k sweep's bound proved it
/// could not rank).
fn record_candidate(outcome: &Outcome) {
    if !hanayo_metrics::enabled() {
        return;
    }
    let label = match outcome {
        Outcome::Simulated(_) => "ranked",
        Outcome::Rejected(rejection) if rejection.is_oom() => "oom",
        Outcome::Rejected(_) => "shape",
        Outcome::Unranked => "unranked",
    };
    hanayo_metrics::counter_add("hanayo_tuner_candidates_total", &[("outcome", label)], 1);
    if matches!(outcome, Outcome::Rejected(Rejection::Oom { .. })) {
        hanayo_metrics::counter_add("hanayo_tuner_static_prunes_total", &[], 1);
    }
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
    /// its own caches. **Sharing contract:** the per-configuration cache
    /// keys assume one model and one cluster — a resident service must
    /// key its shared handles by the `(model, cluster)` configuration; the
    /// [`crate::ShapeTier`] under them may be shared by any configurations.
    pub caches: Option<Arc<SweepCaches>>,
    /// Cooperative cancellation: checked before each shape task starts,
    /// in a top-k sweep's pre-pass and rounds too (see the module docs); a
    /// tripped flag makes the sweep return [`TuneError::Cancelled`] once
    /// the tasks already running finish, instead of running to completion
    /// after its client is gone.
    pub abort: Option<Arc<AbortFlag>>,
    /// Live progress counters: `evaluated` grows by a shape task's
    /// candidates as each task finishes. In a top-k sweep a pre-pass task
    /// adds the candidates it rejected, a round task the candidates it
    /// simulated, and the candidates the bound skipped are added when the
    /// rounds stop, so `evaluated` still ends at `total`.
    pub progress: Option<Arc<TuneProgress>>,
}

/// Why a context-driven sweep stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The context's [`AbortFlag`] tripped before some shape task started;
    /// the sweep stopped without ranking.
    Cancelled {
        /// Candidates the tasks that did run evaluated: the progress
        /// counter's final value.
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

/// Cut the space into shape tasks, one per resolved schedule shape: the
/// candidates whose plans resolve to one `(scheme, P, B, micro-batch
/// size)` share a schedule, its lowerings and its group reports, whichever
/// method named them (Chimera-wave at `2P` resolves to Hanayo `W = 1` at
/// `P`). A candidate that does not resolve is a task of its own. Each task
/// lists its candidates in space order; tasks run largest resolved `P×B`
/// first — a group simulation's cost grows with both — and otherwise in
/// the order of their first candidate.
fn shape_tasks(
    space: &[(ParallelPlan, SimOptions, Option<String>)],
    cluster: &ClusterSpec,
) -> Vec<Vec<usize>> {
    let mut tasks: Vec<(u32, Vec<usize>)> = Vec::new();
    let mut by_shape: HashMap<(SchedKey, u32), usize> = HashMap::new();
    for (i, (plan, _, shape_reason)) in space.iter().enumerate() {
        let resolved = shape_reason.is_none().then(|| resolve_plan(plan, cluster).ok()).flatten();
        let Some(Resolved { cfg, .. }) = resolved else {
            tasks.push((0, vec![i]));
            continue;
        };
        let key = ((cfg.scheme, cfg.devices, cfg.micro_batches), plan.micro_batch_size);
        let task = *by_shape.entry(key).or_insert_with(|| {
            tasks.push((cfg.devices * cfg.micro_batches, Vec::new()));
            tasks.len() - 1
        });
        tasks[task].1.push(i);
    }
    tasks.sort_by_key(|&(size, _)| Reverse(size));
    tasks.into_iter().map(|(_, candidates)| candidates).collect()
}

/// One sweep's fixed inputs, shared by the full and the top-k drivers.
struct Sweep<'a> {
    model: &'a ModelConfig,
    cluster: &'a ClusterSpec,
    caches: &'a SweepCaches,
    space: &'a [(ParallelPlan, SimOptions, Option<String>)],
    /// The shape tasks ([`shape_tasks`]).
    tasks: &'a [Vec<usize>],
    /// The prefetching variants a lookahead-1 run may prove (wide only).
    deeper: &'a [SimOptions],
    counter: &'a TuneProgress,
    abort: Option<&'a AbortFlag>,
    parallel: bool,
}

impl Sweep<'_> {
    /// Run `run` on each task (over the pool's executors when `parallel`,
    /// in task order on the caller otherwise), honouring the abort flag
    /// before each task: `None` once any task saw it tripped.
    fn each_task<T: Sync, R: Send>(
        &self,
        tasks: &[T],
        run: impl Fn(&T) -> R + Sync,
    ) -> Option<Vec<R>> {
        let tripped = || self.abort.is_some_and(AbortFlag::is_tripped);
        let run = |task: &T| (!tripped()).then(|| run(task));
        let done: Vec<Option<R>> = if self.parallel {
            tasks.par_iter().map(run).collect()
        } else {
            tasks.iter().map(run).collect()
        };
        done.into_iter().collect()
    }

    fn progress(&self, candidates: usize) {
        self.counter.evaluated.fetch_add(candidates as u64, Ordering::SeqCst);
    }

    /// Every candidate through the pre-pass and, if it survives, the
    /// engine, one shape task at a time: `(candidate, outcome)` pairs, or
    /// `None` on an abort.
    fn full(&self) -> Option<Vec<(usize, Outcome)>> {
        let Sweep { model, cluster, caches, space, deeper, .. } = *self;
        let done = self.each_task(self.tasks, |task| {
            let outcomes: Vec<_> = task
                .iter()
                .map(|&i| {
                    let outcome = match prepass(model, cluster, caches, &space[i]) {
                        Ok(survivor) => simulate(cluster, caches, deeper, &space[i], &survivor),
                        Err(rejection) => Outcome::Rejected(rejection),
                    };
                    record_candidate(&outcome);
                    (i, outcome)
                })
                .collect();
            self.progress(task.len());
            outcomes
        })?;
        Some(done.into_iter().flatten().collect())
    }

    /// The top-`k` sweep of the module docs: the pre-pass over the shape
    /// tasks, then rounds of `k` survivors in descending bound order until
    /// no unsimulated bound reaches the k-th best simulated throughput.
    fn top(&self, k: usize) -> Option<Vec<(usize, Outcome)>> {
        let Sweep { model, cluster, caches, space, deeper, .. } = *self;
        let prepassed = self.each_task(self.tasks, |task| {
            // Every simulator variant of a plan has the plan's bound.
            let mut bounds: Vec<(ParallelPlan, Option<f64>)> = Vec::new();
            let verdicts: Vec<_> = task
                .iter()
                .map(|&i| {
                    let (plan, ..) = &space[i];
                    prepass(model, cluster, caches, &space[i])
                        .map(|survivor| {
                            let bound = match bounds.iter().find(|(p, _)| p == plan) {
                                Some(&(_, bound)) => bound,
                                None => {
                                    let bound = survivor_bound(plan, cluster, &survivor, caches);
                                    bounds.push((*plan, bound));
                                    bound
                                }
                            };
                            // A candidate that cannot be bounded is always simulated.
                            (bound.unwrap_or(f64::INFINITY), i, survivor)
                        })
                        .map_err(|rejection| (i, rejection))
                })
                .collect();
            self.progress(verdicts.iter().filter(|v| v.is_err()).count());
            verdicts
        })?;
        let mut outcomes = Vec::with_capacity(space.len());
        let mut survivors = Vec::new();
        for verdict in prepassed.into_iter().flatten() {
            match verdict {
                Ok(survivor) => survivors.push(survivor),
                Err((i, rejection)) => {
                    let outcome = Outcome::Rejected(rejection);
                    record_candidate(&outcome);
                    outcomes.push((i, outcome));
                }
            }
        }
        survivors.sort_by(|(a, i, _), (b, j, _)| b.total_cmp(a).then(i.cmp(j)));
        let mut task_of = vec![0; space.len()];
        for (t, task) in self.tasks.iter().enumerate() {
            for &i in task {
                task_of[i] = t;
            }
        }

        // Simulated throughputs, best first.
        let mut best: Vec<f64> = Vec::new();
        let mut next = 0;
        loop {
            // The bar a bound must reach: the k-th best throughput once k
            // candidates have ranked (no bound reaches it when k is 0).
            let bar = match k.checked_sub(1) {
                _ if best.len() < k => f64::NEG_INFINITY,
                Some(kth) => best[kth],
                None => f64::INFINITY,
            };
            let len = survivors[next..]
                .iter()
                .take(k.max(1))
                .take_while(|(bound, ..)| bound * (1.0 + CRITICAL_PATH_SLACK) >= bar)
                .count();
            if len == 0 {
                break;
            }
            // One task per resolved shape, candidates in candidate order.
            let mut round: Vec<_> = survivors[next..next + len].iter().collect();
            next += len;
            round.sort_unstable_by_key(|(_, i, _)| (task_of[*i], *i));
            let round_tasks: Vec<_> =
                round.chunk_by(|(_, a, _), (_, b, _)| task_of[*a] == task_of[*b]).collect();
            let done = self.each_task(&round_tasks, |task| {
                let simulated: Vec<_> = task
                    .iter()
                    .map(|(_, i, survivor)| {
                        (*i, simulate(cluster, caches, deeper, &space[*i], survivor))
                    })
                    .collect();
                self.progress(task.len());
                simulated
            })?;
            for (i, outcome) in done.into_iter().flatten() {
                record_candidate(&outcome);
                if let Outcome::Simulated(result) = &outcome {
                    best.push(result.throughput);
                }
                outcomes.push((i, outcome));
            }
            best.sort_by(|a, b| b.total_cmp(a));
        }
        for (_, i, _) in &survivors[next..] {
            record_candidate(&Outcome::Unranked);
            outcomes.push((*i, Outcome::Unranked));
        }
        self.progress(survivors.len() - next);
        Some(outcomes)
    }
}

/// The sweep driver behind both public entry points: enumerate the space,
/// evaluate it (every candidate, or the top-k rounds when
/// [`TuneOptions::top`] is set), honour the context's abort flag before
/// each task, put the results back in candidate order — so every
/// configuration is byte-identical — and assemble the ranking.
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
    let own_counter = TuneProgress::default();
    let counter = ctx.progress.as_deref().unwrap_or(&own_counter);
    counter.total.store(space.len() as u64, Ordering::SeqCst);
    counter.evaluated.store(0, Ordering::SeqCst);
    let tasks = shape_tasks(&space, cluster);
    let deeper: Vec<SimOptions> = opts
        .sim_variants()
        .into_iter()
        .filter(|v| v.prefetch && v.recv_lookahead > SimOptions::default().recv_lookahead)
        .collect();
    let sweep = Sweep {
        model,
        cluster,
        caches,
        space: &space,
        tasks: &tasks,
        deeper: &deeper,
        counter,
        abort: ctx.abort.as_deref(),
        parallel,
    };
    let done = match opts.top {
        None => sweep.full(),
        Some(k) => sweep.top(k),
    };
    let Some(done) = done else {
        return Err(TuneError::Cancelled {
            evaluated: counter.evaluated() as usize,
            total: space.len(),
        });
    };

    let mut by_candidate: Vec<Option<_>> = space.iter().map(|_| None).collect();
    for (i, outcome) in done {
        let (plan, sim, _) = &space[i];
        by_candidate[i] = Some((*plan, *sim, outcome));
    }
    Ok(assemble(by_candidate.into_iter().flatten().collect()))
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
    use crate::cache::ShapeTier;
    use crate::plan::evaluate_plan;
    use hanayo_cluster::topology::{fc_full_nvlink, lonestar6, pc_partial_nvlink};
    use std::sync::atomic::AtomicBool;

    fn opts() -> TuneOptions {
        TuneOptions { waves: vec![1, 2, 4], min_pp: 4, ..Default::default() }
    }

    #[test]
    fn each_schedule_shape_lands_in_one_task() {
        // The benchmark's wide shape and 32 PC GPUs at batch 8. In both,
        // Chimera-wave at `2P` resolves to the schedule Hanayo `W = 1` at
        // `P` runs, so one task must hold both methods.
        for (cluster, batch) in [(lonestar6(8), 16), (pc_partial_nvlink(32), 8)] {
            let wide = TuneOptions::default().wide();
            let space = candidate_space(cluster.len() as u32, batch, 1, &wide);
            let tasks = shape_tasks(&space, &cluster);
            let mut listed: Vec<usize> = tasks.concat();
            listed.sort_unstable();
            assert_eq!(listed, (0..space.len()).collect::<Vec<_>>(), "each candidate once");

            let mut owner: HashMap<SchedKey, usize> = HashMap::new();
            let mut shared = 0;
            for (t, task) in tasks.iter().enumerate() {
                let mut methods = Vec::new();
                for &i in task {
                    let (plan, _, shape_reason) = &space[i];
                    let Ok(Resolved { cfg, .. }) = resolve_plan(plan, &cluster) else { continue };
                    if shape_reason.is_some() {
                        continue;
                    }
                    let key = (cfg.scheme, cfg.devices, cfg.micro_batches);
                    assert_eq!(*owner.entry(key).or_insert(t), t, "{key:?} is split over tasks");
                    if !methods.contains(&plan.method) {
                        methods.push(plan.method);
                    }
                }
                shared += usize::from(methods.len() > 1);
            }
            assert!(shared > 0, "Chimera-wave shares a task with Hanayo W = 1");
        }
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
                    Some(reason) => {
                        Outcome::Rejected(Rejection::InvalidShape { plan, sim, reason })
                    }
                    None => match evaluate_plan(&plan, model, cluster, sim) {
                        Ok(result) if result.is_oom() => {
                            let devices = result.oom_devices.clone();
                            let oom = oom_rejection(&plan, sim, cluster, &result.peak_mem, devices);
                            Outcome::Rejected(oom.unwrap())
                        }
                        Ok(mut result) => {
                            // The sweep runs span-free; every other field
                            // must match.
                            result.group_report.spans.clear();
                            Outcome::Simulated(result)
                        }
                        Err(e) => {
                            let reason = e.to_string();
                            Outcome::Rejected(Rejection::InvalidShape { plan, sim, reason })
                        }
                    },
                };
                (plan, sim, outcome)
            })
            .collect();
        assemble(evaluated)
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
    fn best_interval_matches_young_daly_closed_form() {
        use hanayo_ckpt::recovery::young_daly_interval_s;
        // One plan priced over a dense interval grid, as `hanayo ckpt
        // --mode goodput` does. The goodput-maximising interval must agree
        // with the closed form within one grid step (documented tolerance:
        // the optimum in iterations is fractional; the grid is integral).
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let mut cluster = fc_full_nvlink(8);
        cluster.device_mtbf_s = 40_000.0;
        let p = ParallelPlan {
            method: Method::Dapple,
            dp: 1,
            pp: 8,
            micro_batches: 8,
            micro_batch_size: 1,
            recompute: Recompute::None,
        };
        let result = evaluate_plan(&p, &model, &cluster, SimOptions::default()).unwrap();
        let opts = RecoveryOptions::default();
        let best = (1..=400u32)
            .map(|k| plan_recovery_eval(&result, &cluster, k, &opts))
            .reduce(|a, b| if b.goodput_seq_per_s > a.goodput_seq_per_s { b } else { a })
            .unwrap();
        let star_s =
            young_daly_interval_s(best.checkpoint_write_s, best.cluster_mtbf_s, best.restart_s);
        let star_k = star_s / result.iteration_time;
        assert!(
            (1.0..=400.0).contains(&star_k),
            "closed-form optimum {star_k} must sit inside the grid"
        );
        assert!(
            (best.interval_iterations as f64 - star_k).abs() <= 1.0,
            "grid optimum {} vs Young–Daly {star_k}",
            best.interval_iterations
        );
    }

    #[test]
    fn plan_recovery_eval_reads_the_clusters_mtbf() {
        // The cluster's per-device MTBF is the only failure source: the
        // fleet MTBF divides it over the plan's devices, and a shorter one
        // costs goodput at the same interval.
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let mut cluster = fc_full_nvlink(8);
        let t = tune_with(&model, &cluster, 8, 1, &opts(), &TuneContext::default()).unwrap();
        let best = t.best().unwrap().result.clone();
        let devices = f64::from(best.plan.dp * best.plan.pp);
        let at = |cluster: &ClusterSpec| {
            plan_recovery_eval(&best, cluster, 16, &RecoveryOptions::default())
        };
        cluster.device_mtbf_s = 400_000.0;
        let long = at(&cluster);
        cluster.device_mtbf_s = 40_000.0;
        let short = at(&cluster);
        assert_eq!(long.cluster_mtbf_s, 400_000.0 / devices);
        assert_eq!(short.cluster_mtbf_s, 40_000.0 / devices);
        for e in [long, short] {
            assert!(e.goodput_seq_per_s < best.throughput, "goodput must cost something");
            assert!(e.efficiency > 0.0 && e.efficiency < 1.0);
        }
        assert!(short.goodput_seq_per_s < long.goodput_seq_per_s);
    }

    #[test]
    fn pre_tripped_abort_cancels_before_any_candidate() {
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let abort = Arc::new(AbortFlag::new());
        abort.trip();
        let ctx = TuneContext { abort: Some(abort), ..Default::default() };
        for top in [None, Some(5)] {
            let opts = TuneOptions { top, ..opts() };
            let err = tune_with(&model, &fc_full_nvlink(8), 8, 1, &opts, &ctx)
                .expect_err("a tripped flag must cancel the sweep");
            let TuneError::Cancelled { evaluated, total } = err;
            assert_eq!(evaluated, 0);
            assert!(total > 0);
        }
    }

    #[test]
    fn a_top_k_sweep_ranks_the_full_prefix_and_accounts_for_every_candidate() {
        // The benchmark's wide shape: statically pruned OOMs, ties between
        // lookahead variants, and most candidates below the top 3.
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let cluster = lonestar6(8);
        let wide = TuneOptions::default().wide();
        let full = tune_serial_with(&model, &cluster, 16, 1, &wide, &TuneContext::default())
            .expect("untripped");
        for parallel in [false, true] {
            let progress = Arc::new(TuneProgress::default());
            let ctx = TuneContext { progress: Some(progress.clone()), ..Default::default() };
            let sweep = if parallel { tune_with } else { tune_serial_with };
            let top = TuneOptions { top: Some(3), ..wide.clone() };
            let t = sweep(&model, &cluster, 16, 1, &top, &ctx).expect("untripped");
            assert_eq!(t.ranked[..3], full.ranked[..3]);
            assert_eq!(t.rejected, full.rejected, "the pre-pass rejects what a full sweep does");
            assert!(t.unranked > 0, "the bound skips candidates");
            let total = full.ranked.len() + full.rejected.len();
            assert_eq!(t.ranked.len() + t.rejected.len() + t.unranked, total);
            assert_eq!((progress.evaluated(), progress.total()), (total as u64, total as u64));
        }
    }

    /// Sweep with an abort flag a watcher trips once progress reaches 2,
    /// checking that the sweep stops at a shape-task checkpoint, not run
    /// dry, and that progress never runs backwards. The space is the
    /// benchmark's wide TACC sweep: 42 tasks, most of them simulated, so
    /// the watcher has ample time to trip the flag mid-sweep.
    fn abort_partway(parallel: bool) {
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let cluster = lonestar6(8);
        let abort = Arc::new(AbortFlag::new());
        let progress = Arc::new(TuneProgress::default());
        let ctx = TuneContext {
            abort: Some(abort.clone()),
            progress: Some(progress.clone()),
            ..Default::default()
        };
        let returned = Arc::new(AtomicBool::new(false));
        let watcher = {
            let abort = abort.clone();
            let progress = progress.clone();
            let returned = returned.clone();
            std::thread::spawn(move || {
                let mut seen = 0;
                while seen < 2 {
                    let now = progress.evaluated();
                    assert!(now >= seen, "progress went from {seen} back to {now}");
                    seen = now;
                    std::thread::yield_now();
                }
                abort.trip();
                while !returned.load(Ordering::SeqCst) {
                    let now = progress.evaluated();
                    assert!(now >= seen, "progress went from {seen} back to {now}");
                    seen = now;
                    std::thread::yield_now();
                }
            })
        };
        let sweep = if parallel { tune_with } else { tune_serial_with };
        let result = sweep(&model, &cluster, 16, 1, &TuneOptions::default().wide(), &ctx);
        let at_return = progress.evaluated();
        returned.store(true, Ordering::SeqCst);
        watcher.join().expect("progress never decreased");
        let TuneError::Cancelled { evaluated, total } =
            result.expect_err("the tripped flag must cancel mid-sweep");
        assert_eq!(evaluated as u64, at_return, "the error reports the progress counter");
        assert!(evaluated >= 2, "cancel observed after the watcher's threshold");
        assert!(evaluated < total, "the sweep must not have run to completion");
        assert_eq!(progress.total(), total as u64);
    }

    #[test]
    fn abort_between_tasks_stops_the_sweep_partway() {
        abort_partway(false);
    }

    #[test]
    fn abort_between_tasks_stops_the_parallel_sweep_partway() {
        abort_partway(true);
    }

    #[test]
    fn report_memo_keys_groups_by_sub_cluster_content() {
        // TACC's twin groups (devices and links equal up to node ids)
        // share one memo entry; keyed by first device they held 656. Each
        // lookahead keeps its own entry, window-equal ones too.
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let shared = Arc::new(SweepCaches::default());
        let ctx = TuneContext { caches: Some(shared.clone()), ..Default::default() };
        let wide = TuneOptions::default().wide();
        tune_serial_with(&model, &lonestar6(8), 16, 1, &wide, &ctx).unwrap();
        assert_eq!(shared.reports.len(), 576);
    }

    #[test]
    fn context_hooks_do_not_change_the_answer() {
        // Shared caches + progress + an (untripped) abort flag:
        // byte-identical to the plain paths, parallel and serial.
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let cluster = lonestar6(8);
        let wide = opts().wide();
        let shared = Arc::new(SweepCaches::default());
        let ctx = TuneContext {
            caches: Some(shared.clone()),
            abort: Some(Arc::new(AbortFlag::new())),
            progress: Some(Arc::new(TuneProgress::default())),
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
    fn a_cold_configuration_over_a_filled_shape_tier_builds_no_schedule() {
        // Two configurations with one GPU count and batch resolve to one
        // set of shapes: the second, cold in its own tier, builds none and
        // still ranks as fresh caches do, full and top-k.
        let tier = Arc::new(ShapeTier::default());
        let over = |tier: &Arc<ShapeTier>| TuneContext {
            caches: Some(Arc::new(SweepCaches::over(Arc::clone(tier), usize::MAX))),
            ..Default::default()
        };
        let bert = ModelConfig::bert64().with_train_bytes_per_param(8);
        let gpt = ModelConfig::gpt128().with_train_bytes_per_param(8);
        let wide = opts().wide();
        for top in [None, Some(5)] {
            let opts = TuneOptions { top, ..wide.clone() };
            tune_with(&bert, &lonestar6(8), 16, 1, &opts, &over(&tier)).unwrap();
            let shapes = tier.schedules.len();
            assert!(shapes > 0);
            let cold = tune_with(&gpt, &fc_full_nvlink(8), 16, 1, &opts, &over(&tier)).unwrap();
            assert_eq!(tier.schedules.len(), shapes, "the cold configuration built a schedule");
            let fresh =
                tune_with(&gpt, &fc_full_nvlink(8), 16, 1, &opts, &TuneContext::default()).unwrap();
            assert_eq!(cold, fresh);
        }
    }

    #[test]
    fn prefetch_ablation_never_outranks_prefetch_for_same_plan() {
        let model = ModelConfig::bert64().with_train_bytes_per_param(8);
        let t = tune_with(
            &model,
            &lonestar6(8),
            8,
            1,
            &TuneOptions { wide: true, ..opts() },
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
