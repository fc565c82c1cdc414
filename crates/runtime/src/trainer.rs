//! Driving a training run: thread-per-device orchestration (on resident
//! device threads, see `resident`) plus the sequential reference
//! implementation every schedule is checked against.
//!
//! [`try_train`] trains one pipeline and [`try_train_data_parallel`] one
//! pipeline replica per data shard; [`resume`] and
//! [`resume_data_parallel`] continue either from a [`Checkpoint`]. All
//! four run one chunked engine: the iterations are cut at the
//! [`TrainerConfig::checkpoint`] boundaries (one chunk when the policy is
//! off), and a failed run hands back its newest durable checkpoint in
//! [`TrainError::checkpoint`]. Each lowers the schedule once, on the
//! caller's thread, into the [`Program`] every worker executes. A run the
//! workers cannot execute (a replicated schedule, a schedule that does not
//! lower, a stage module short, an iteration an input short) is refused on
//! the caller's thread before any checkpoint or thread, as a typed error
//! with no checkpoint.

use crate::collective::AllreduceHub;
use crate::mailbox::{fabric, spin_budget};
use crate::resident::{self, Job};
pub use crate::worker::LossKind;
use crate::worker::{
    panic_message, run_worker, IterationData, WorkerConfig, WorkerError, WorkerReport,
};
use hanayo_ckpt::{
    config_fingerprint, Checkpoint, CheckpointPolicy, CkptError, FailurePlan, OptimizerState,
    RngCursor,
};
use hanayo_core::action::Schedule;
use hanayo_core::ids::DeviceId;
use hanayo_core::program::Program;
use hanayo_model::Recompute;
use hanayo_tensor::loss::{mse, softmax_cross_entropy};
use hanayo_tensor::Stage;
use hanayo_trace::{Trace, TraceEvent};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::time::Instant;

/// A complete pipeline-training job description.
#[derive(Clone)]
pub struct TrainerConfig {
    /// The frozen schedule to execute.
    pub schedule: Schedule,
    /// Global stage modules, `stages[s]` for stage `s`.
    pub stages: Vec<Stage>,
    /// SGD learning rate.
    pub lr: f32,
    /// Loss at the last stage.
    pub loss: LossKind,
    /// Activation stash policy. [`Recompute::Full`] stashes only each
    /// stage's input boundary tensor and replays the stage forward inside
    /// the backward — bit-identical gradients, strictly smaller resident
    /// stash (see [`TrainOutput::peak_stash_bytes`]).
    pub recompute: Recompute,
    /// Record wall-clock spans around every worker op and return them as
    /// [`TrainOutput::trace`]. Off by default: untraced workers take no
    /// clock readings. Tracing never changes losses, weights or peaks —
    /// it only observes.
    pub trace: bool,
    /// Durable-checkpoint cadence: a [`Checkpoint`] is captured at every
    /// iteration boundary the policy names (including iteration 0), and
    /// the latest one rides the [`TrainError`] when the run crashes. Off
    /// by default; checkpointing never changes losses, weights or peaks —
    /// an interrupted-and-resumed run is bitwise identical to an
    /// uninterrupted one.
    pub checkpoint: CheckpointPolicy,
    /// Deterministic fault to inject ([`FailurePlan::None`] by default).
    /// Injected faults ride the same typed `WorkerError` + abort-broadcast
    /// machinery as genuine invariant violations.
    pub failure: FailurePlan,
}

impl TrainerConfig {
    /// A job with the default policies: no activation recomputation, no
    /// tracing, no checkpointing, no injected failures. Override fields
    /// with struct-update syntax:
    /// `TrainerConfig { trace: true, ..TrainerConfig::new(...) }`.
    pub fn new(schedule: Schedule, stages: Vec<Stage>, lr: f32, loss: LossKind) -> TrainerConfig {
        TrainerConfig {
            schedule,
            stages,
            lr,
            loss,
            recompute: Recompute::None,
            trace: false,
            checkpoint: CheckpointPolicy::OFF,
            failure: FailurePlan::None,
        }
    }
}

/// The [`hanayo_ckpt::config_fingerprint`] of a trainer configuration
/// replicated `world` ways — what a [`Checkpoint`] produced by this
/// configuration stores, and what a restore must present.
pub(crate) fn fingerprint_of(cfg: &TrainerConfig, world: u32) -> u64 {
    config_fingerprint(
        &cfg.schedule,
        world,
        cfg.lr,
        &cfg.loss.fingerprint_token(),
        cfg.recompute,
        &cfg.stages,
    )
}

/// Results of a training run.
#[derive(Debug, Clone)]
pub struct TrainOutput {
    /// Mean loss per iteration.
    pub losses: Vec<f32>,
    /// Updated stage modules.
    pub stages: Vec<Stage>,
    /// Measured peak of each device's live activation-stash bytes (empty
    /// for the sequential reference, which stashes one micro-batch at a
    /// time). Per-device order is the action-list order, so this is
    /// deterministic and — given a cost table probed from the same stages —
    /// exactly equal to the simulator's `peak_mem − weight_mem`.
    pub peak_stash_bytes: Vec<usize>,
    /// High-water mark of each device's mailbox parked map (early
    /// arrivals held until their receive is issued) — the worker-imbalance
    /// signal: a device that parks deeply runs far behind its producers.
    /// Same shape and ordering as [`TrainOutput::peak_stash_bytes`]
    /// (empty for the sequential reference, which has no fabric).
    pub peak_mailbox_parked: Vec<usize>,
    /// The measured execution trace, when [`TrainerConfig::trace`] asked
    /// for one (`None` otherwise, and always `None` for the sequential
    /// reference). Data-parallel runs merge every replica onto global
    /// device ranks (`replica·P + local`) on one shared clock.
    pub trace: Option<Trace>,
}

/// A training run that stopped on a worker-side invariant violation. The
/// root cause names the exact device and operation (and, for data-parallel
/// runs, the replica); cascade entries are peers that unwound because of
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainError {
    /// The first root-cause failure (never `WorkerError::Aborted` unless
    /// every failure was a cascade).
    pub primary: WorkerError,
    /// Data-parallel replica rank the primary failure came from; `None`
    /// for single-pipeline runs (device ids are replica-local).
    pub replica: Option<usize>,
    /// Every worker-reported failure as `(replica rank, error)` — rank is
    /// 0 for single-pipeline runs.
    pub failures: Vec<(usize, WorkerError)>,
    /// The newest durable checkpoint captured before the failure; resume
    /// from it with [`resume`] / [`resume_data_parallel`]. `None` when
    /// [`TrainerConfig::checkpoint`] is off.
    pub checkpoint: Option<Box<Checkpoint>>,
}

impl TrainError {
    /// Fold worker failures, preferring a root cause over cascades as the
    /// primary; `None` when there are none. `tag_replica` distinguishes
    /// data-parallel runs (where the rank disambiguates replica-local
    /// device ids) from single-pipeline runs.
    fn from_failures(failures: Vec<(usize, WorkerError)>, tag_replica: bool) -> Option<TrainError> {
        let (rank, primary) = failures.iter().find(|(_, e)| !e.is_cascade()).or(failures.first())?;
        let (rank, primary) = (*rank, primary.clone());
        Some(TrainError {
            primary,
            replica: tag_replica.then_some(rank),
            failures,
            checkpoint: None,
        })
    }

    /// A failure with no cascade: a panic above the worker layer, or a run
    /// refused before any thread started.
    fn single(primary: WorkerError, replica: Option<usize>) -> TrainError {
        let failures = vec![(replica.unwrap_or(0), primary.clone())];
        TrainError { primary, replica, failures, checkpoint: None }
    }
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.replica {
            Some(r) => write!(f, "training failed on replica {r}: {}", self.primary)?,
            None => write!(f, "training failed: {}", self.primary)?,
        }
        let cascades = self.failures.iter().filter(|(_, e)| e.is_cascade()).count();
        if cascades > 0 {
            write!(f, " ({cascades} peer worker(s) unwound)")?;
        }
        Ok(())
    }
}

impl std::error::Error for TrainError {}

/// Why a [`resume`] could not run (or finish).
#[derive(Debug, Clone)]
pub enum ResumeError {
    /// The checkpoint failed a guard: wrong schema, wrong configuration
    /// fingerprint, or corrupt payload.
    Checkpoint(CkptError),
    /// The checkpoint sits beyond the supplied data (more iterations were
    /// checkpointed than the caller provided).
    BeyondData {
        /// Completed iterations in the checkpoint.
        iteration: u32,
        /// Iterations the caller supplied.
        available: usize,
    },
    /// The resumed run itself crashed (e.g. the failure plan strikes
    /// again later); carries its own newer checkpoint when one exists.
    Run(TrainError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "cannot resume: {e}"),
            ResumeError::BeyondData { iteration, available } => write!(
                f,
                "cannot resume: checkpoint has {iteration} completed iteration(s) but only \
                 {available} were supplied"
            ),
            ResumeError::Run(e) => write!(f, "resumed run failed: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Refuse, on the caller's thread and before any checkpoint or thread, a
/// run the workers cannot execute: a stage module count other than the
/// schedule's, a replicated schedule, a schedule that does not lower, a
/// schedule whose happens-before replay deadlocks (the workers would wait
/// on each other forever), or an iteration from `start` on without one
/// input and one target per micro-batch (the first such iteration, shard
/// by shard). Returns the run's lowered program.
fn check_run(cfg: &TrainerConfig, data: DataRef<'_>, start: usize) -> Result<Program, TrainError> {
    check_stages(cfg, &cfg.stages)?;
    if cfg.schedule.stage_map.groups.iter().any(|g| g.replica.0 != 0) {
        return Err(TrainError::single(WorkerError::ReplicatedSchedule, None));
    }
    let program = Program::lower(&cfg.schedule)
        .map_err(|e| TrainError::single(WorkerError::Program(e), None))?;
    program.check_deadlock().map_err(|s| TrainError::single(WorkerError::Deadlock(s), None))?;
    let micro_batches = cfg.schedule.config.micro_batches as usize;
    let shards: Vec<(Option<usize>, &[IterationData])> = match data {
        DataRef::Single(d) => vec![(None, d)],
        DataRef::Dp(shards) => shards.iter().enumerate().map(|(r, s)| (Some(r), *s)).collect(),
    };
    for (replica, shard) in shards {
        for (iteration, it) in shard.iter().enumerate().skip(start) {
            let (inputs, targets) = (it.inputs.len(), it.targets.len());
            if inputs != micro_batches || targets != micro_batches {
                let e = WorkerError::IterationShape { iteration, inputs, targets, micro_batches };
                return Err(TrainError::single(e, replica));
            }
        }
    }
    Ok(program)
}

/// One module per schedule stage.
fn check_stages(cfg: &TrainerConfig, stages: &[Stage]) -> Result<(), TrainError> {
    let expected = cfg.schedule.stage_map.stages as usize;
    if stages.len() != expected {
        let e = WorkerError::StageCount { modules: stages.len(), stages: expected };
        return Err(TrainError::single(e, None));
    }
    Ok(())
}

/// Run the schedule with real math, one resident OS thread per device, under
/// [`TrainerConfig::checkpoint`] and [`TrainerConfig::failure`].
/// Worker-side invariant violations (the signature of a corrupt schedule)
/// and injected faults come back as a typed [`TrainError`] naming the
/// failing device and operation, carrying the last durable checkpoint so
/// the caller can [`resume`]. Checkpointing only observes: a completed run
/// is bitwise identical with the policy on or off.
pub fn try_train(cfg: &TrainerConfig, data: &[IterationData]) -> Result<TrainOutput, TrainError> {
    let program = check_run(cfg, DataRef::Single(data), 0)?;
    let p = cfg.schedule.lists.len();
    run_chunked(cfg, &program, DataRef::Single(data), 0, fresh_state(cfg, p))
}

/// Run one identical pipeline replica per data shard, with a gradient
/// all-reduce at every flush. `data[g]` is replica `g`'s shard; a run with
/// no shard, or with shards of different iteration counts, is refused
/// before any thread starts. Replicas end bit-identical, so a checkpoint
/// stores one copy of the stages; peaks cover all `world · P` global
/// devices. Otherwise as [`try_train`].
pub fn try_train_data_parallel(
    cfg: &TrainerConfig,
    data: &[Vec<IterationData>],
) -> Result<TrainOutput, TrainError> {
    let shards = shard_views(data)?;
    let program = check_run(cfg, DataRef::Dp(&shards), 0)?;
    let devices = cfg.schedule.lists.len() * shards.len();
    run_chunked(cfg, &program, DataRef::Dp(&shards), 0, fresh_state(cfg, devices))
}

/// Borrow a data-parallel run's shards, checking on the caller's thread
/// that there is at least one and that every shard holds replica 0's
/// iteration count: a short shard would leave the other replicas waiting
/// in the all-reduce hub for a contribution that never comes.
fn shard_views(data: &[Vec<IterationData>]) -> Result<Vec<&[IterationData]>, TrainError> {
    let expected = data.first().ok_or_else(|| TrainError::single(WorkerError::NoShards, None))?;
    let expected = expected.len();
    if let Some((replica, shard)) = data.iter().enumerate().find(|(_, s)| s.len() != expected) {
        let e = WorkerError::ShardLength { replica, len: shard.len(), expected };
        return Err(TrainError::single(e, Some(replica)));
    }
    Ok(data.iter().map(Vec::as_slice).collect())
}

/// The data a run draws from: one pipeline, or one shard per
/// data-parallel replica (all of one length, see [`shard_views`]).
#[derive(Clone, Copy)]
enum DataRef<'a> {
    Single(&'a [IterationData]),
    Dp(&'a [&'a [IterationData]]),
}

impl DataRef<'_> {
    fn iterations(&self) -> usize {
        match self {
            DataRef::Single(d) => d.len(),
            DataRef::Dp(shards) => shards.first().map_or(0, |s| s.len()),
        }
    }

    fn world(&self) -> u32 {
        match self {
            DataRef::Single(_) => 1,
            DataRef::Dp(shards) => shards.len() as u32,
        }
    }
}

/// What one run segment measured, folded into the [`RunState`] by
/// [`run_chunked`]. Trained modules are not here: the segment writes them
/// straight back into the run's stage vector.
struct SegmentOut {
    /// Mean loss per iteration of the segment.
    losses: Vec<f32>,
    /// Per global device (`replica·P + local`).
    peaks: Vec<usize>,
    /// Per global device, like `peaks`.
    parked: Vec<usize>,
    /// Spans on global device ranks (empty unless tracing), unsorted.
    events: Vec<TraceEvent>,
}

/// Fold one replica's worker reports. Replica `rank`'s devices become
/// global ranks `rank·P + local`; its trained modules are written into
/// `stages` when given (replicas end bit-identical, so one replica's
/// modules are the run's).
fn fold_replica(
    reports: Vec<WorkerReport>,
    mut stages: Option<&mut [Stage]>,
    rank: usize,
    p: usize,
) -> SegmentOut {
    let offset = (rank * p) as u32;
    let mut out = SegmentOut {
        losses: Vec::new(),
        peaks: vec![0; p],
        parked: vec![0; p],
        events: Vec::new(),
    };
    for report in reports {
        out.peaks[report.device.idx()] = report.peak_stash_bytes;
        out.parked[report.device.idx()] = report.peak_mailbox_parked;
        out.events.extend(
            report.events.into_iter().map(|e| TraceEvent { device: e.device + offset, ..e }),
        );
        if let Some(stages) = stages.as_deref_mut() {
            for (s, module) in report.modules {
                stages[s as usize] = module;
            }
        }
        if !report.losses.is_empty() {
            out.losses = report.losses;
        }
    }
    out
}

/// One data-parallel run segment: replica `g` trains on `shards[g][range]`
/// from `stages`, which then hold replica 0's trained modules. All spans
/// land on the shared `origin` clock.
fn dp_segment(
    cfg: &TrainerConfig,
    program: &Program,
    stages: &mut Cow<'_, [Stage]>,
    shards: &[&[IterationData]],
    range: Range<usize>,
    origin: Instant,
) -> Result<SegmentOut, TrainError> {
    let dp = shards.len();
    let iter_base = range.start as u32;
    // The hub is also how a failure crosses replicas: whoever fails aborts
    // it, and every worker of a healthy replica reaches it, fails there as
    // a cascade and aborts its own fabric.
    let hub = &AllreduceHub::new(dp);
    let start: &[Stage] = stages;
    let jobs: Vec<Job<'_, Result<Vec<WorkerReport>, TrainError>>> = shards
        .iter()
        .enumerate()
        .map(|(rank, shard)| {
            let shard = &shard[range.clone()];
            Box::new(move || {
                guard_replica(hub, || {
                    let dp = Some((rank, hub));
                    run_pipeline(cfg, program, start, shard, dp, origin, iter_base)
                })
            }) as Job<'_, _>
        })
        .collect();
    let outcomes = resident::scope(jobs).map_err(|e| {
        let message = format!("replica thread (device unknown): {}", e.error);
        TrainError::single(WorkerError::ThreadStart { device: DeviceId(0), message }, Some(e.job))
    })?;
    let mut replicas = Vec::with_capacity(dp);
    let mut failures = Vec::new();
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        // Replica jobs catch their own panics in `guard_replica`; an `Err`
        // here would mean a panic escaped the catch (e.g. in the unwind
        // path itself) — fold it into the same typed failure.
        match outcome.unwrap_or_else(|payload| Err(replica_panic(payload.as_ref()))) {
            Ok(reports) => replicas.push(reports),
            // Re-tag with the replica rank: device ids are replica-local.
            Err(e) => failures.extend(e.failures.into_iter().map(|(_, w)| (rank, w))),
        }
    }
    if let Some(e) = TrainError::from_failures(failures, true) {
        return Err(e);
    }
    let p = cfg.schedule.lists.len();
    let mut outs = Vec::with_capacity(dp);
    let mut stages = Some(stages.to_mut().as_mut_slice());
    for (rank, reports) in replicas.into_iter().enumerate() {
        outs.push(fold_replica(reports, stages.take(), rank, p));
    }
    // Replicas end bit-identical; average their reported losses.
    let iters = outs.first().map_or(0, |o| o.losses.len());
    let losses =
        (0..iters).map(|i| outs.iter().map(|o| o.losses[i]).sum::<f32>() / dp as f32).collect();
    let mut merged =
        SegmentOut { losses, peaks: Vec::new(), parked: Vec::new(), events: Vec::new() };
    for out in outs {
        merged.peaks.extend(out.peaks);
        merged.parked.extend(out.parked);
        merged.events.extend(out.events);
    }
    Ok(merged)
}

/// Run one replica's body on its thread. A replica that fails — by a
/// panic above the worker layer (e.g. in the setup before workers start),
/// or by an error, even one raised before any of its devices started —
/// must abort the hub *on this thread*: peers of other replicas may
/// already be blocked in it, and the caller returns only once every
/// replica has, so waiting for it to surface the failure would deadlock
/// the run.
fn guard_replica<T>(
    hub: &AllreduceHub,
    body: impl FnOnce() -> Result<T, TrainError>,
) -> Result<T, TrainError> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
        .unwrap_or_else(|payload| Err(replica_panic(payload.as_ref())));
    if outcome.is_err() {
        hub.abort();
    }
    outcome
}

/// A panic above the worker layer has no device to name; the outer fold
/// re-tags the replica rank.
fn replica_panic(payload: &(dyn std::any::Any + Send)) -> TrainError {
    TrainError::single(
        WorkerError::Panicked {
            device: DeviceId(0),
            message: format!("replica thread (device unknown): {}", panic_message(payload)),
        },
        None,
    )
}

/// Run one pipeline replica over `data` (global iterations `iter_base..`),
/// every device starting from its modules in `stages`. Returns the worker
/// reports, trained modules included.
fn run_pipeline(
    cfg: &TrainerConfig,
    program: &Program,
    stages: &[Stage],
    data: &[IterationData],
    dp: Option<(usize, &AllreduceHub)>,
    origin: Instant,
    iter_base: u32,
) -> Result<Vec<WorkerReport>, TrainError> {
    let schedule = &cfg.schedule;
    let p = schedule.lists.len();
    let world = dp.map_or(1, |(_, hub)| hub.world());
    let (fab, mailboxes) = fabric(p, spin_budget(p * world), program.keys());

    let jobs: Vec<Job<'_, WorkerReport>> = mailboxes
        .into_iter()
        .enumerate()
        .map(|(d, mailbox)| {
            let device = DeviceId(d as u32);
            let wcfg = WorkerConfig {
                device,
                program,
                modules: (0..stages.len())
                    .filter(|&s| schedule.stage_map.groups.iter().any(|g| g.path[s] == device))
                    .map(|s| (s as u32, stages[s].clone()))
                    .collect(),
                data,
                loss: &cfg.loss,
                lr: cfg.lr,
                dp,
                recompute: cfg.recompute,
                trace: cfg.trace,
                origin,
                failure: cfg.failure,
                iter_base,
            };
            let fab = fab.clone();
            Box::new(move || run_worker(wcfg, mailbox, fab)) as Job<'_, _>
        })
        .collect();
    let outcomes = resident::scope(jobs).map_err(|e| {
        let device = DeviceId(e.job as u32);
        let message = e.error.to_string();
        TrainError::single(WorkerError::ThreadStart { device, message }, None)
    })?;
    // The worker catches its own panics, and one that escapes while it
    // assembles its report aborts the fabric and hub on the way out, so
    // peers have unwound; report the device by name.
    let reports: Vec<WorkerReport> = outcomes
        .into_iter()
        .enumerate()
        .map(|(d, outcome)| {
            outcome.unwrap_or_else(|payload| {
                let device = DeviceId(d as u32);
                WorkerReport {
                    device,
                    modules: Vec::new(),
                    losses: Vec::new(),
                    peak_stash_bytes: 0,
                    peak_mailbox_parked: 0,
                    events: Vec::new(),
                    error: Some(WorkerError::Panicked {
                        device,
                        message: panic_message(payload.as_ref()),
                    }),
                }
            })
        })
        .collect();

    let rank = dp.map_or(0, |(r, _)| r);
    let failures: Vec<(usize, WorkerError)> =
        reports.iter().filter_map(|r| r.error.clone().map(|e| (rank, e))).collect();
    match TrainError::from_failures(failures, false) {
        Some(e) => Err(e),
        None => Ok(reports),
    }
}

/// Mutable run state carried across chunks (and across a failure/resume
/// boundary — a [`Checkpoint`] is exactly a frozen copy of this).
struct RunState<'a> {
    /// The run's stage modules: each segment starts from them and writes
    /// its trained modules back. A fresh run borrows the config's until
    /// the first write-back, so the copy is made after the workers have
    /// released their scratch, not beside it.
    stages: Cow<'a, [Stage]>,
    losses: Vec<f32>,
    peaks: Vec<usize>,
    /// Per-device mailbox high-water marks, `max` over chunks like
    /// `peaks` (not stored in a checkpoint — a per-run measurement).
    parked: Vec<usize>,
    trace: Option<Trace>,
    last_ckpt: Option<Box<Checkpoint>>,
    /// Data-stream cursor of the checkpoint this run resumed from (with
    /// its iteration), so checkpoints re-captured mid-resume keep a
    /// correctly advanced cursor instead of silently dropping it.
    rng_origin: Option<(RngCursor, u32)>,
    /// Plan annotation inherited from the resumed checkpoint.
    plan_json: Option<String>,
}

/// Advance a resumed run's RNG cursor to a new boundary. The per-iteration
/// stride is derived from the origin cursor (`draws / iteration`); when it
/// cannot be derived exactly (an origin at iteration 0 with no stride
/// information), only the origin boundary itself keeps a cursor.
fn cursor_at(origin: &(RngCursor, u32), iteration: u32) -> Option<RngCursor> {
    let (cursor, at) = origin;
    if iteration == *at {
        return Some(*cursor);
    }
    if *at > 0 && cursor.draws.is_multiple_of(*at as u64) {
        let per_iter = cursor.draws / *at as u64;
        return Some(RngCursor { seed: cursor.seed, draws: per_iter * iteration as u64 });
    }
    None
}

fn capture_checkpoint(
    cfg: &TrainerConfig,
    state: &RunState<'_>,
    iteration: u32,
    world: u32,
) -> Checkpoint {
    Checkpoint {
        fingerprint: fingerprint_of(cfg, world),
        iteration,
        world,
        schedule: cfg.schedule.clone(),
        stages: state.stages.to_vec(),
        optimizer: OptimizerState::Sgd { lr: cfg.lr },
        losses: state.losses.clone(),
        peak_stash_bytes: state.peaks.iter().map(|&b| b as u64).collect(),
        rng: state.rng_origin.as_ref().and_then(|o| cursor_at(o, iteration)),
        plan_json: state.plan_json.clone(),
        trace: state.trace.clone(),
    }
}

/// The chunked engine behind every entry point: execute global iterations
/// `start..n` in chunks delimited by the checkpoint policy (one chunk when
/// it is off), capturing a durable [`Checkpoint`] at each boundary.
/// Bitwise identical to a single uninterrupted run — each iteration is a
/// pure function of (weights, its data), the per-device stash peak profile
/// repeats every iteration so `max` over chunks equals `max` over the
/// whole run, and chunk traces share one clock origin (resumed traces are
/// shifted past the pre-failure makespan).
fn run_chunked(
    cfg: &TrainerConfig,
    program: &Program,
    data: DataRef<'_>,
    start: u32,
    mut state: RunState<'_>,
) -> Result<TrainOutput, TrainError> {
    let n = data.iterations() as u32;
    let world = data.world();
    let every = cfg.checkpoint.every;
    let p = cfg.schedule.lists.len();
    let origin = Instant::now();
    // Resumed spans continue where the interrupted timeline stopped.
    let shift = state.trace.as_ref().map_or(0.0, Trace::makespan);

    let mut i = start;
    while i < n {
        if cfg.checkpoint.is_boundary(i) {
            state.last_ckpt = Some(Box::new(capture_checkpoint(cfg, &state, i, world)));
        }
        // Next chunk ends at the following policy boundary (or the run's
        // end when checkpointing is off).
        let j = match i.checked_div(every) {
            Some(q) => ((q + 1) * every).min(n),
            None => n,
        };
        let range = i as usize..j as usize;
        let stages = &mut state.stages;
        let outcome = match data {
            DataRef::Single(d) => run_pipeline(cfg, program, stages, &d[range], None, origin, i)
                .map(|reports| fold_replica(reports, Some(stages.to_mut()), 0, p)),
            DataRef::Dp(shards) => dp_segment(cfg, program, stages, shards, range, origin),
        };
        let segment = match outcome {
            Ok(segment) => segment,
            Err(mut error) => {
                error.checkpoint = state.last_ckpt.take();
                return Err(error);
            }
        };
        state.losses.extend(segment.losses);
        for (acc, chunk) in state.peaks.iter_mut().zip(&segment.peaks) {
            *acc = (*acc).max(*chunk);
        }
        for (acc, chunk) in state.parked.iter_mut().zip(&segment.parked) {
            *acc = (*acc).max(*chunk);
        }
        if let Some(t) = &mut state.trace {
            t.merge_shifted(&Trace { devices: t.devices, events: segment.events }, shift);
        }
        i = j;
    }
    Ok(TrainOutput {
        losses: state.losses,
        stages: state.stages.into_owned(),
        peak_stash_bytes: state.peaks,
        peak_mailbox_parked: state.parked,
        trace: state.trace,
    })
}

fn fresh_state(cfg: &TrainerConfig, devices: usize) -> RunState<'_> {
    RunState {
        stages: Cow::Borrowed(&cfg.stages),
        losses: Vec::new(),
        peaks: vec![0; devices],
        parked: vec![0; devices],
        trace: cfg.trace.then(|| Trace::new(devices as u32)),
        last_ckpt: None,
        rng_origin: None,
        plan_json: None,
    }
}

fn resume_state<'a>(cfg: &TrainerConfig, ckpt: &'a Checkpoint, devices: usize) -> RunState<'a> {
    RunState {
        stages: Cow::Borrowed(&ckpt.stages),
        losses: ckpt.losses.clone(),
        peaks: ckpt.peak_stash_bytes.iter().map(|&b| b as usize).collect(),
        parked: vec![0; devices],
        trace: cfg.trace.then(|| ckpt.trace.clone().unwrap_or_else(|| Trace::new(devices as u32))),
        last_ckpt: Some(Box::new(ckpt.clone())),
        rng_origin: ckpt.rng.map(|c| (c, ckpt.iteration)),
        plan_json: ckpt.plan_json.clone(),
    }
}

fn guard_resume(
    cfg: &TrainerConfig,
    ckpt: &Checkpoint,
    world: u32,
    available: usize,
) -> Result<(), ResumeError> {
    ckpt.guard(fingerprint_of(cfg, world)).map_err(ResumeError::Checkpoint)?;
    check_stages(cfg, &ckpt.stages).map_err(ResumeError::Run)?;
    if ckpt.iteration as usize > available {
        return Err(ResumeError::BeyondData { iteration: ckpt.iteration, available });
    }
    Ok(())
}

/// Resume a single-pipeline run from a durable checkpoint: validates the
/// schema/fingerprint guards, then drives the remaining iterations of
/// `data`. The returned [`TrainOutput`] — losses, final weights, and peak
/// stash bytes — is **bitwise identical** to an uninterrupted run over the
/// same `data`; a resumed trace continues on the pre-failure clock.
pub fn resume(
    cfg: &TrainerConfig,
    ckpt: &Checkpoint,
    data: &[IterationData],
) -> Result<TrainOutput, ResumeError> {
    let data_ref = DataRef::Single(data);
    let program = check_run(cfg, data_ref, ckpt.iteration as usize).map_err(ResumeError::Run)?;
    guard_resume(cfg, ckpt, 1, data.len())?;
    let p = cfg.schedule.lists.len();
    run_chunked(cfg, &program, data_ref, ckpt.iteration, resume_state(cfg, ckpt, p))
        .map_err(ResumeError::Run)
}

/// [`resume`] for data-parallel runs (`data[g]` is replica `g`'s full
/// shard, exactly as passed to [`try_train_data_parallel`], and checked
/// the same way).
pub fn resume_data_parallel(
    cfg: &TrainerConfig,
    ckpt: &Checkpoint,
    data: &[Vec<IterationData>],
) -> Result<TrainOutput, ResumeError> {
    let shards = shard_views(data).map_err(ResumeError::Run)?;
    let data_ref = DataRef::Dp(&shards);
    let program = check_run(cfg, data_ref, ckpt.iteration as usize).map_err(ResumeError::Run)?;
    let world = shards.len() as u32;
    guard_resume(cfg, ckpt, world, data_ref.iterations())?;
    let devices = cfg.schedule.lists.len() * shards.len();
    run_chunked(cfg, &program, data_ref, ckpt.iteration, resume_state(cfg, ckpt, devices))
        .map_err(ResumeError::Run)
}

/// Freeze a *completed* run as a checkpoint at iteration `iterations` —
/// what a `--save` style workflow writes after training finishes.
pub fn checkpoint_of(
    cfg: &TrainerConfig,
    out: &TrainOutput,
    iterations: u32,
    world: u32,
) -> Checkpoint {
    let state = RunState {
        stages: Cow::Borrowed(&out.stages),
        losses: out.losses.clone(),
        peaks: out.peak_stash_bytes.clone(),
        parked: out.peak_mailbox_parked.clone(),
        trace: out.trace.clone(),
        last_ckpt: None,
        rng_origin: None,
        plan_json: None,
    };
    capture_checkpoint(cfg, &state, iterations, world)
}

/// The ground truth: single-device synchronous training with the same
/// micro-batch semantics (per-micro-batch gradients reduced in order at
/// the flush). Every pipeline schedule must reproduce these bits exactly.
pub fn sequential_reference(
    stages: &[Stage],
    data: &[IterationData],
    lr: f32,
    loss: &LossKind,
) -> TrainOutput {
    let mut stages = stages.to_vec();
    let mut losses = Vec::with_capacity(data.len());
    for iteration in data {
        let b = iteration.inputs.len();
        let mut totals: Vec<_> = stages.iter().map(Stage::zero_grads).collect();
        let mut iter_loss = 0.0f32;
        for mb in 0..b {
            // Forward through the whole chain, stashing per stage.
            let mut x = iteration.inputs[mb].clone();
            let mut stashes = Vec::with_capacity(stages.len());
            for stage in &stages {
                let (y, st) = stage.forward(&x);
                stashes.push(st);
                x = y;
            }
            let (l, mut dy) = match loss {
                LossKind::Mse => mse(x, &iteration.targets[mb]),
                LossKind::CrossEntropy { labels } => softmax_cross_entropy(x, &labels[mb]),
            };
            iter_loss += l;
            // Backward in reverse, accumulating into the per-stage totals
            // in micro-batch order (same reduction order as the workers).
            for (s, stage) in stages.iter().enumerate().rev() {
                let (dx, grads) = stage.backward(&stashes[s], &dy);
                totals[s].accumulate(&grads);
                dy = dx;
            }
        }
        for (stage, total) in stages.iter_mut().zip(&totals) {
            stage.sgd_step(total, lr);
        }
        losses.push(iter_loss / b as f32);
    }
    TrainOutput {
        losses,
        stages,
        peak_stash_bytes: Vec::new(),
        peak_mailbox_parked: Vec::new(),
        trace: None,
    }
}

/// Convenience: deterministic random regression data shaped for a pipeline
/// (`B` micro-batches of `rows × width`), reproducible from a seed.
pub fn synthetic_data(
    seed: u64,
    iterations: usize,
    micro_batches: usize,
    rows: usize,
    width: usize,
) -> Vec<IterationData> {
    synthetic_data_at(seed, 0, iterations, micro_batches, rows, width)
}

/// Scalar draws one [`synthetic_data`] iteration consumes from the seeded
/// stream — the unit a checkpoint's [`hanayo_ckpt::RngCursor`] counts in
/// (`draws = iteration · this`).
pub fn synthetic_draws_per_iteration(micro_batches: usize, rows: usize, width: usize) -> u64 {
    2 * (micro_batches * rows * width) as u64
}

/// The tail of a [`synthetic_data`] stream: iterations
/// `start..start + iterations`, drawn from the *same* seeded stream the
/// full run would consume — `synthetic_data(s, n, ..)[k..]` equals
/// `synthetic_data_at(s, k, n - k, ..)` exactly. This is how a resumed run
/// regenerates precisely the data it has not yet trained on.
pub fn synthetic_data_at(
    seed: u64,
    start: usize,
    iterations: usize,
    micro_batches: usize,
    rows: usize,
    width: usize,
) -> Vec<IterationData> {
    use hanayo_tensor::rng::{seeded_at, uniform};
    let skip = start as u64 * synthetic_draws_per_iteration(micro_batches, rows, width);
    let mut rng = seeded_at(seed, skip);
    (0..iterations)
        .map(|_| IterationData {
            inputs: (0..micro_batches).map(|_| uniform(&mut rng, rows, width, 1.0)).collect(),
            targets: (0..micro_batches).map(|_| uniform(&mut rng, rows, width, 0.5)).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_core::config::{PipelineConfig, Scheme};
    use hanayo_core::program::{Defect, ProgramError};
    use hanayo_core::schedule::build_schedule;
    use hanayo_model::builders::MicroModel;

    fn job(p: u32, b: u32, scheme: Scheme) -> (TrainerConfig, Vec<IterationData>) {
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let model =
            MicroModel { width: 8, total_blocks: schedule.stage_map.stages as usize, seed: 7 };
        let stages = model.build_stages(schedule.stage_map.stages);
        let data = synthetic_data(3, 2, b as usize, 2, 8);
        let trainer = TrainerConfig::new(schedule, stages, 0.05, LossKind::Mse);
        (trainer, data)
    }

    #[test]
    fn dapple_matches_sequential_bitwise() {
        let (cfg, data) = job(2, 4, Scheme::Dapple);
        let pipe = try_train(&cfg, &data).unwrap();
        let seq = sequential_reference(&cfg.stages, &data, cfg.lr, &cfg.loss);
        assert_eq!(pipe.stages, seq.stages, "weights diverged");
        assert_eq!(pipe.losses, seq.losses, "losses diverged");
    }

    #[test]
    fn hanayo_matches_sequential_bitwise() {
        let (cfg, data) = job(2, 4, Scheme::Hanayo { waves: 2 });
        let pipe = try_train(&cfg, &data).unwrap();
        let seq = sequential_reference(&cfg.stages, &data, cfg.lr, &cfg.loss);
        assert_eq!(pipe.stages, seq.stages);
        assert_eq!(pipe.losses, seq.losses);
    }

    #[test]
    fn losses_decrease_over_iterations() {
        let cfg = PipelineConfig::new(2, 2, Scheme::Dapple).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let model = MicroModel { width: 8, total_blocks: 2, seed: 1 };
        let stages = model.build_stages(2);
        // Same data every iteration → loss must fall.
        let one = synthetic_data(9, 1, 2, 4, 8).remove(0);
        let data = vec![one.clone(); 8];
        let cfg = TrainerConfig::new(schedule, stages, 0.05, LossKind::Mse);
        let out = try_train(&cfg, &data).unwrap();
        assert!(out.losses.last().unwrap() < out.losses.first().unwrap(), "{:?}", out.losses);
    }

    #[test]
    fn full_recompute_is_bit_identical_and_stashes_less() {
        let (cfg, data) = job(2, 4, Scheme::Hanayo { waves: 2 });
        let plain = try_train(&cfg, &data).unwrap();
        let ckpt =
            try_train(&TrainerConfig { recompute: Recompute::Full, ..cfg.clone() }, &data).unwrap();
        assert_eq!(plain.stages, ckpt.stages, "checkpointed weights diverged");
        assert_eq!(plain.losses, ckpt.losses, "checkpointed losses diverged");
        for (d, (c, p)) in ckpt.peak_stash_bytes.iter().zip(&plain.peak_stash_bytes).enumerate() {
            assert!(c < p, "device {d}: checkpointed peak {c} !< plain peak {p}");
        }
    }

    #[test]
    fn tracing_observes_without_perturbing() {
        use hanayo_trace::TraceKind;
        let (cfg, data) = job(2, 4, Scheme::Hanayo { waves: 2 });
        let plain = try_train(&cfg, &data).unwrap();
        assert!(plain.trace.is_none(), "tracing is opt-in");
        let traced = try_train(&TrainerConfig { trace: true, ..cfg.clone() }, &data).unwrap();
        assert_eq!(plain.losses, traced.losses, "tracing changed the losses");
        assert_eq!(plain.stages, traced.stages, "tracing changed the weights");
        let trace = traced.trace.expect("trace requested");
        trace.validate().unwrap();
        assert_eq!(trace.devices, 2);
        // Two iterations of B=4 across every stage: B·S forwards and
        // backwards per iteration, an optimizer step per device per
        // iteration, and the inter-device transfers.
        let ops = 2 * 4 * cfg.schedule.stage_map.stages as usize;
        let count = |k: TraceKind| trace.events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(TraceKind::Fwd), ops);
        assert_eq!(count(TraceKind::Bwd), ops);
        // One local-work Optim span per stage per iteration (the flush
        // walks each device's stages).
        assert_eq!(count(TraceKind::Optim), 2 * cfg.schedule.stage_map.stages as usize);
        assert!(count(TraceKind::Send) > 0 && count(TraceKind::Recv) > 0);
        assert_eq!(count(TraceKind::Allreduce), 0, "no data parallelism here");
        assert_eq!(count(TraceKind::Recompute), 0, "no checkpointing here");
        assert!(trace.duration() > 0.0);
    }

    #[test]
    fn checkpointed_tracing_splits_replay_from_backward() {
        use hanayo_trace::TraceKind;
        let (cfg, data) = job(2, 2, Scheme::Dapple);
        let cfg = TrainerConfig { recompute: Recompute::Full, trace: true, ..cfg };
        let trace = try_train(&cfg, &data).unwrap().trace.unwrap();
        let recomputes = trace.events.iter().filter(|e| e.kind == TraceKind::Recompute).count();
        let backwards = trace.events.iter().filter(|e| e.kind == TraceKind::Bwd).count();
        assert_eq!(recomputes, backwards, "one replay rides every checkpointed backward");
        trace.validate().unwrap();
    }

    #[test]
    fn data_parallel_trace_merges_onto_global_ranks() {
        use hanayo_trace::TraceKind;
        let (cfg, _) = job(2, 2, Scheme::Hanayo { waves: 1 });
        let cfg = TrainerConfig { trace: true, ..cfg };
        let shards = vec![synthetic_data(41, 1, 2, 2, 8), synthetic_data(42, 1, 2, 2, 8)];
        let out = try_train_data_parallel(&cfg, &shards).unwrap();
        let trace = out.trace.expect("trace requested");
        trace.validate().unwrap();
        assert_eq!(trace.devices, 4, "2 replicas × 2 devices");
        let devices: std::collections::HashSet<u32> =
            trace.events.iter().map(|e| e.device).collect();
        assert_eq!(devices.len(), 4, "every global rank contributed spans");
        assert!(trace.events.iter().any(|e| e.kind == TraceKind::Allreduce));
        // The blocking all-reduce rendezvous is never inside an Optim
        // span: the wait must count as communication, not busy compute.
        for ar in trace.events.iter().filter(|e| e.kind == TraceKind::Allreduce) {
            for op in
                trace.events.iter().filter(|e| e.kind == TraceKind::Optim && e.device == ar.device)
            {
                assert!(
                    ar.t_end <= op.t_start + 1e-12 || ar.t_start >= op.t_end - 1e-12,
                    "allreduce [{}, {}] overlaps optim [{}, {}] on device {}",
                    ar.t_start,
                    ar.t_end,
                    op.t_start,
                    op.t_end,
                    ar.device
                );
            }
        }
    }

    /// Drop both ends of device 1's first received message, so the
    /// schedule still lowers but device 1's forward finds no input.
    fn drop_first_message_into_device_1(schedule: &mut Schedule) {
        use hanayo_core::action::{Action, CommDir};
        let tag = schedule.lists[1]
            .actions
            .iter()
            .find_map(|a| match a {
                Action::Comm(op) if op.dir == CommDir::Recv => Some(op.tag),
                _ => None,
            })
            .expect("device 1 receives activations");
        for list in &mut schedule.lists {
            list.actions.retain(|a| !matches!(a, Action::Comm(op) if op.tag == tag));
        }
    }

    #[test]
    fn corrupt_schedule_surfaces_typed_error_not_a_poisoned_join() {
        let (mut cfg, data) = job(2, 2, Scheme::Dapple);
        drop_first_message_into_device_1(&mut cfg.schedule);
        let err = try_train(&cfg, &data).unwrap_err();
        assert!(
            matches!(
                err.primary,
                crate::worker::WorkerError::MissingInput { device: DeviceId(1), .. }
            ),
            "unexpected primary: {}",
            err.primary
        );
        // Every reported failure is either the root cause or a cascade,
        // and a single-pipeline run carries no replica tag.
        assert_eq!(err.replica, None);
        assert!(err.failures.iter().all(|(_, e)| e == &err.primary || e.is_cascade()));
    }

    #[test]
    fn data_parallel_failure_names_the_replica() {
        let (mut cfg, _) = job(2, 2, Scheme::Dapple);
        drop_first_message_into_device_1(&mut cfg.schedule);
        // Both replicas run the same corrupt schedule; the error must say
        // which replica each failure came from (device ids are local).
        let shards = vec![synthetic_data(31, 1, 2, 2, 8), synthetic_data(32, 1, 2, 2, 8)];
        let err = try_train_data_parallel(&cfg, &shards).unwrap_err();
        assert!(err.replica.is_some(), "data-parallel errors carry the replica rank");
        assert!(err.to_string().contains("replica"), "{err}");
        for (rank, _) in &err.failures {
            assert!(*rank < 2);
        }
    }

    #[test]
    fn train_error_carries_the_typed_message() {
        let (mut cfg, data) = job(2, 2, Scheme::Dapple);
        drop_first_message_into_device_1(&mut cfg.schedule);
        let msg = try_train(&cfg, &data).unwrap_err().to_string();
        assert!(msg.contains("P1"), "the error must name the device: {msg}");
        assert!(msg.contains("forward found no input"), "the error must name the op: {msg}");
    }

    /// Retag device 0's first send and its matching receive on device 1
    /// to micro-batch 99, outside the schedule's key space; returns the
    /// lowering error that names the send.
    fn retag_first_message_to_mb99(schedule: &mut Schedule) -> ProgramError {
        use hanayo_core::action::{Action, CommDir};
        use hanayo_core::ids::MicroBatch;
        let send = |a: &Action| matches!(a, Action::Comm(op) if op.dir == CommDir::Send);
        let action = schedule.lists[0].actions.iter().position(send).unwrap();
        let Action::Comm(op) = &mut schedule.lists[0].actions[action] else { unreachable!() };
        let original = op.tag;
        op.tag.mb = MicroBatch(99);
        let tag = op.tag;
        for a in &mut schedule.lists[1].actions {
            if let Action::Comm(op) = a {
                if op.dir == CommDir::Recv && op.tag == original {
                    op.tag = tag;
                }
            }
        }
        ProgramError { device: DeviceId(0), action, tag, defect: Defect::OutsideKeySpace }
    }

    #[test]
    fn the_trainer_lowers_the_schedule_once_on_the_callers_thread() {
        let (cfg, data) = job(2, 4, Scheme::Hanayo { waves: 2 });
        let program = check_run(&cfg, DataRef::Single(&data), 0).unwrap();
        assert_eq!(program, Program::lower(&cfg.schedule).unwrap());
    }

    #[test]
    fn unrunnable_runs_are_refused_on_the_callers_thread() {
        // A replicated schedule, a stage module short, an iteration an
        // input short and a schedule outside its key space: each entry
        // point refuses all four with a typed error and no checkpoint, and
        // none of them panics.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (good, data) = job(2, 2, Scheme::Dapple);
        let done = try_train(&good, &data).unwrap();
        let ckpt = checkpoint_of(&good, &done, 0, 1);
        let schedule =
            build_schedule(&PipelineConfig::new(2, 2, Scheme::Chimera).unwrap()).unwrap();
        let chimera = TrainerConfig { schedule, ..good.clone() };
        let mut stage_short = good.clone();
        stage_short.stages.pop();
        let mut input_short = data.clone();
        input_short[1].inputs.pop();
        let shape =
            WorkerError::IterationShape { iteration: 1, inputs: 1, targets: 2, micro_batches: 2 };
        let mut unlowered = good.clone();
        let lowering = WorkerError::Program(retag_first_message_to_mb99(&mut unlowered.schedule));

        for (cfg, bad, primary, bad_replica) in [
            (chimera, data.clone(), WorkerError::ReplicatedSchedule, None),
            (stage_short, data.clone(), WorkerError::StageCount { modules: 1, stages: 2 }, None),
            (good.clone(), input_short, shape, Some(1)),
            (unlowered, data.clone(), lowering, None),
        ] {
            let shards = vec![data.clone(), bad.clone()];
            let run = |f: &dyn Fn() -> Option<TrainError>| {
                catch_unwind(AssertUnwindSafe(f)).expect("refused, not panicked")
            };
            let resumed = |r: Result<TrainOutput, ResumeError>| match r {
                Err(ResumeError::Run(e)) => Some(e),
                _ => None,
            };
            for (entry, refusal, replica) in [
                ("try_train", run(&|| try_train(&cfg, &bad).err()), None),
                (
                    "try_train_data_parallel",
                    run(&|| try_train_data_parallel(&cfg, &shards).err()),
                    bad_replica,
                ),
                ("resume", run(&|| resumed(resume(&cfg, &ckpt, &bad))), None),
                (
                    "resume_data_parallel",
                    run(&|| resumed(resume_data_parallel(&cfg, &ckpt, &shards))),
                    bad_replica,
                ),
            ] {
                let err = refusal.unwrap_or_else(|| panic!("{entry}: {primary} was not refused"));
                assert_eq!((&err.primary, err.replica), (&primary, replica), "{entry}: {err}");
                assert!(err.checkpoint.is_none(), "{entry}: refused before any checkpoint");
                if let Some(r) = replica {
                    assert!(err.to_string().contains(&format!("replica {r}: ")), "{entry}: {err}");
                }
            }
        }
    }

    #[test]
    fn data_parallel_matches_merged_batch_up_to_reassociation() {
        let (cfg, _) = job(2, 2, Scheme::Hanayo { waves: 1 });
        let shards = vec![synthetic_data(11, 2, 2, 2, 8), synthetic_data(12, 2, 2, 2, 8)];
        let out = try_train_data_parallel(&cfg, &shards).unwrap();
        // Equivalent sequential run: all micro-batches of both shards,
        // shard-major (rank order), per iteration. The DP hub reduces
        // per-shard sums — a different parenthesisation of the same sum —
        // so the comparison is approximate, not bitwise.
        let merged: Vec<IterationData> = (0..2)
            .map(|i| IterationData {
                inputs: shards.iter().flat_map(|s| s[i].inputs.clone()).collect(),
                targets: shards.iter().flat_map(|s| s[i].targets.clone()).collect(),
            })
            .collect();
        let seq = sequential_reference(&cfg.stages, &merged, cfg.lr, &cfg.loss);
        for (a, b) in out.stages.iter().zip(&seq.stages) {
            let diff = a
                .flat_params()
                .iter()
                .zip(b.flat_params())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(diff < 1e-5, "DP diverged from merged batch by {diff}");
        }
    }

    #[test]
    fn data_parallel_replicas_end_bit_identical() {
        // Both replicas apply the same reduced gradients to the same
        // initial weights: their final stages must be bit-identical. We
        // verify via the hub determinism test plus re-running: two DP runs
        // must agree exactly.
        let (cfg, _) = job(2, 2, Scheme::Hanayo { waves: 1 });
        let shards = vec![synthetic_data(21, 2, 2, 2, 8), synthetic_data(22, 2, 2, 2, 8)];
        let a = try_train_data_parallel(&cfg, &shards).unwrap();
        let b = try_train_data_parallel(&cfg, &shards).unwrap();
        assert_eq!(a.stages, b.stages);
        assert_eq!(a.losses, b.losses);
    }

    // -----------------------------------------------------------------
    // Checkpoint / failure-injection / resume
    // -----------------------------------------------------------------

    fn bitwise_equal(a: &TrainOutput, b: &TrainOutput) {
        let bits = |o: &TrainOutput| {
            o.stages.iter().flat_map(Stage::flat_params).map(f32::to_bits).collect::<Vec<_>>()
        };
        assert_eq!(bits(a), bits(b), "weights diverged");
        assert_eq!(
            a.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            b.losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "losses diverged"
        );
        assert_eq!(a.peak_stash_bytes, b.peak_stash_bytes, "stash peaks diverged");
    }

    #[test]
    fn checkpoint_policy_on_without_failure_matches_policy_off() {
        // Chunked execution is an implementation detail: with the policy
        // on but no failure, the output is bitwise the single-chunk one,
        // for one pipeline and for data-parallel replicas alike.
        let (mut cfg, data) = job(2, 4, Scheme::Hanayo { waves: 2 });
        let shards = vec![synthetic_data(51, 3, 4, 2, 8), synthetic_data(52, 3, 4, 2, 8)];
        let plain = try_train(&cfg, &data).unwrap();
        let plain_dp = try_train_data_parallel(&cfg, &shards).unwrap();
        for every in [1, 2] {
            cfg.checkpoint = CheckpointPolicy::every(every);
            bitwise_equal(&plain, &try_train(&cfg, &data).unwrap());
            bitwise_equal(&plain_dp, &try_train_data_parallel(&cfg, &shards).unwrap());
        }
    }

    /// Run `f` on its own thread; fail instead of hanging the suite if it
    /// has not returned within ten seconds.
    fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || tx.send(f()));
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(out) => out,
            Err(RecvTimeoutError::Timeout) => panic!("the run hung"),
            // `f` panicked: surface its panic, not a hang.
            Err(RecvTimeoutError::Disconnected) => match run.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(_) => unreachable!("the sender dropped without sending"),
            },
        }
    }

    #[test]
    fn unequal_or_missing_shards_are_refused_before_any_thread_starts() {
        let (cfg, _) = job(2, 2, Scheme::Hanayo { waves: 1 });
        // Replica 1's shard is one iteration short: unchecked, replica 0
        // would wait in the hub for its second contribution forever.
        let uneven = vec![synthetic_data(1, 2, 2, 2, 8), synthetic_data(2, 1, 2, 2, 8)];
        let short = WorkerError::ShardLength { replica: 1, len: 1, expected: 2 };
        let done = try_train_data_parallel(&cfg, &[Vec::new(), Vec::new()]).unwrap();
        let ckpt = checkpoint_of(&cfg, &done, 0, 2);

        for (shards, primary, replica, message) in [
            (
                uneven,
                short,
                Some(1),
                "training failed on replica 1: replica 1's shard holds 1 iteration(s), \
                 replica 0's holds 2",
            ),
            (
                Vec::new(),
                WorkerError::NoShards,
                None,
                "training failed: a data-parallel run needs at least one shard",
            ),
        ] {
            let (c, s) = (cfg.clone(), shards.clone());
            let err = within_watchdog(move || try_train_data_parallel(&c, &s)).unwrap_err();
            assert_eq!((&err.primary, err.replica), (&primary, replica), "{err}");
            assert_eq!(err.failures, vec![(replica.unwrap_or(0), primary.clone())]);
            assert_eq!(err.to_string(), message);

            let (c, k) = (cfg.clone(), ckpt.clone());
            match within_watchdog(move || resume_data_parallel(&c, &k, &shards)) {
                Err(ResumeError::Run(e)) => assert_eq!(e, err),
                other => panic!("expected the shard refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn killed_run_emits_last_durable_checkpoint_and_resumes_bitwise() {
        let (mut cfg, _) = job(2, 4, Scheme::Dapple);
        let data = synthetic_data(3, 4, 4, 2, 8);
        let uninterrupted = try_train(&cfg, &data).unwrap();

        cfg.checkpoint = CheckpointPolicy::every(2);
        cfg.failure = FailurePlan::KillDevice { device: 1, iteration: 3 };
        let failed = try_train(&cfg, &data).unwrap_err();
        assert!(
            matches!(failed.primary, WorkerError::Injected { device: DeviceId(1), iteration: 3 }),
            "unexpected primary: {}",
            failed.primary
        );
        let ckpt = failed.checkpoint.expect("a durable checkpoint was taken");
        // Killed at iteration 3 with k = 2: the last boundary is 2.
        assert_eq!(ckpt.iteration, 2);
        assert_eq!(ckpt.losses.len(), 2);

        // Resume (disarming the failure) and land on the exact bits of the
        // uninterrupted run. The checkpoint round-trips through its file
        // format on the way, so on-disk exactness is part of the claim.
        let restored =
            hanayo_ckpt::Checkpoint::from_json(&ckpt.to_json().unwrap()).expect("valid envelope");
        let resume_cfg = TrainerConfig { failure: FailurePlan::None, ..cfg.clone() };
        let resumed = resume(&resume_cfg, &restored, &data).unwrap();
        bitwise_equal(&uninterrupted, &resumed);
    }

    #[test]
    fn kill_before_first_boundary_resumes_from_scratch() {
        let (mut cfg, _) = job(2, 2, Scheme::GPipe);
        let data = synthetic_data(5, 3, 2, 2, 8);
        let uninterrupted = try_train(&cfg, &data).unwrap();
        cfg.checkpoint = CheckpointPolicy::every(2);
        cfg.failure = FailurePlan::KillDevice { device: 0, iteration: 1 };
        let failed = try_train(&cfg, &data).unwrap_err();
        let ckpt = failed.checkpoint.expect("the iteration-0 checkpoint exists");
        assert_eq!(ckpt.iteration, 0);
        let resume_cfg = TrainerConfig { failure: FailurePlan::None, ..cfg.clone() };
        let resumed = resume(&resume_cfg, &ckpt, &data).unwrap();
        bitwise_equal(&uninterrupted, &resumed);
    }

    #[test]
    fn checkpointing_off_means_no_durable_checkpoint() {
        let (mut cfg, data) = job(2, 2, Scheme::Dapple);
        cfg.failure = FailurePlan::KillDevice { device: 0, iteration: 1 };
        let failed = try_train(&cfg, &data).unwrap_err();
        assert!(failed.checkpoint.is_none());
        assert!(failed.to_string().contains("killed by the failure plan"), "{failed}");
    }

    #[test]
    fn dropped_link_fails_the_sender_with_a_typed_error() {
        let (mut cfg, data) = job(2, 2, Scheme::Dapple);
        cfg.failure = FailurePlan::DropLink { src: 0, dst: 1, iteration: 1 };
        let err = try_train(&cfg, &data).unwrap_err();
        assert!(
            matches!(
                err.primary,
                WorkerError::LinkDown { device: DeviceId(0), peer: DeviceId(1), iteration: 1 }
            ),
            "unexpected primary: {}",
            err.primary
        );
        // Iteration 0 ran before the link died.
        assert!(err.to_string().contains("link to P1 down"), "{err}");
    }

    #[test]
    fn resume_under_a_different_config_is_refused() {
        let (mut cfg, _) = job(2, 2, Scheme::Dapple);
        let data = synthetic_data(3, 3, 2, 2, 8);
        cfg.checkpoint = CheckpointPolicy::every(1);
        cfg.failure = FailurePlan::KillDevice { device: 0, iteration: 2 };
        let ckpt = try_train(&cfg, &data).unwrap_err().checkpoint.unwrap();
        // A different learning rate is a different program.
        let other = TrainerConfig { lr: 0.01, failure: FailurePlan::None, ..cfg.clone() };
        match resume(&other, &ckpt, &data) {
            Err(ResumeError::Checkpoint(CkptError::Fingerprint { .. })) => {}
            other => panic!("expected a fingerprint refusal, got {other:?}"),
        }
        // And a checkpoint beyond the supplied data cannot resume.
        match resume(
            &TrainerConfig { failure: FailurePlan::None, ..cfg.clone() },
            &ckpt,
            &data[..1],
        ) {
            Err(ResumeError::BeyondData { iteration: 2, available: 1 }) => {}
            other => panic!("expected BeyondData, got {other:?}"),
        }
    }

    #[test]
    fn replica_thread_panic_aborts_the_hub_its_peers_wait_in() {
        // Replica 0 waits in the all-reduce for a contribution from
        // replica 1, whose thread panics above the worker layer. The guard
        // aborts the hub on the panicking thread, so replica 0 unwinds
        // instead of waiting for a replica that is not coming.
        let (cfg, _) = job(2, 2, Scheme::Dapple);
        let grads = cfg.stages[0].zero_grads();
        let (peer, panicked) = within_watchdog(move || {
            let hub = &AllreduceHub::new(2);
            std::thread::scope(|scope| {
                let peer = scope.spawn(|| hub.try_allreduce(0, 0, 0, grads));
                let panicked = guard_replica::<()>(hub, || {
                    while !hub.has_posted(0, 0, 0) {
                        std::thread::yield_now();
                    }
                    panic!("setup failed");
                });
                (peer.join().is_ok_and(|g| g.is_none()), panicked.map_err(|e| e.primary))
            })
        });
        assert!(peer, "the waiting replica must be released empty-handed");
        match panicked {
            Err(WorkerError::Panicked { message, .. }) => {
                assert!(message.contains("setup failed"), "{message}")
            }
            other => panic!("expected a typed panic, got {other:?}"),
        }
    }

    #[test]
    fn resumed_runs_keep_an_advanced_rng_cursor_on_recapture() {
        use hanayo_ckpt::RngCursor;
        // A resume that fails again must hand back a checkpoint whose RNG
        // cursor advanced with it, not one that silently dropped it.
        let (mut cfg, _) = job(2, 2, Scheme::Dapple);
        let data = synthetic_data(3, 6, 2, 2, 8);
        cfg.checkpoint = CheckpointPolicy::every(2);
        cfg.failure = FailurePlan::KillDevice { device: 0, iteration: 3 };
        let mut ckpt = try_train(&cfg, &data).unwrap_err().checkpoint.unwrap();
        assert_eq!(ckpt.iteration, 2);
        // Stamp the cursor the way the ckpt binary does (32 draws/iter).
        ckpt.rng = Some(RngCursor { seed: 3, draws: 64 });
        ckpt.plan_json = Some("{\"dp\":1}".to_string());
        // Resume with a *later* failure armed: it crosses the boundary at
        // iteration 4 before dying at 5.
        cfg.failure = FailurePlan::KillDevice { device: 0, iteration: 5 };
        let failed = match resume(&cfg, &ckpt, &data) {
            Err(ResumeError::Run(f)) => f,
            other => panic!("expected the second failure, got {other:?}"),
        };
        let newer = failed.checkpoint.expect("a newer durable checkpoint");
        assert_eq!(newer.iteration, 4);
        assert_eq!(
            newer.rng,
            Some(RngCursor { seed: 3, draws: 128 }),
            "the cursor must advance with the re-captured boundary"
        );
        assert_eq!(newer.plan_json.as_deref(), Some("{\"dp\":1}"));
    }

    #[test]
    fn fingerprint_covers_cross_entropy_labels() {
        // Different label payloads are different programs: the token (and
        // hence the fingerprint) must move even when the kind matches.
        let (cfg, _) = job(2, 2, Scheme::Dapple);
        let with = |labels: Vec<Vec<usize>>| TrainerConfig {
            loss: LossKind::CrossEntropy { labels },
            ..cfg.clone()
        };
        let a = fingerprint_of(&with(vec![vec![0, 1], vec![1, 0]]), 1);
        let b = fingerprint_of(&with(vec![vec![0, 1], vec![1, 1]]), 1);
        assert_ne!(a, b, "label payloads must move the fingerprint");
        assert_eq!(a, fingerprint_of(&with(vec![vec![0, 1], vec![1, 0]]), 1));
        assert_ne!(a, fingerprint_of(&cfg, 1), "kind change must move the fingerprint");
    }

    #[test]
    fn data_parallel_kill_and_resume_is_bitwise_equal() {
        let (mut cfg, _) = job(2, 2, Scheme::Hanayo { waves: 1 });
        let shards = vec![synthetic_data(61, 4, 2, 2, 8), synthetic_data(62, 4, 2, 2, 8)];
        let uninterrupted = try_train_data_parallel(&cfg, &shards).unwrap();

        cfg.checkpoint = CheckpointPolicy::every(2);
        // Global rank 3 = replica 1, local device 1.
        cfg.failure = FailurePlan::KillDevice { device: 3, iteration: 2 };
        let failed = try_train_data_parallel(&cfg, &shards).unwrap_err();
        assert_eq!(failed.replica, Some(1), "the replica must be named");
        assert!(matches!(
            failed.primary,
            WorkerError::Injected { device: DeviceId(1), iteration: 2 }
        ));
        let ckpt = failed.checkpoint.expect("durable checkpoint");
        assert_eq!(ckpt.iteration, 2);
        assert_eq!(ckpt.world, 2);
        assert_eq!(ckpt.peak_stash_bytes.len(), 4, "peaks cover all global devices");

        let resume_cfg = TrainerConfig { failure: FailurePlan::None, ..cfg.clone() };
        let resumed = resume_data_parallel(&resume_cfg, &ckpt, &shards).unwrap();
        bitwise_equal(&uninterrupted, &resumed);
    }

    #[test]
    fn resumed_trace_continues_on_one_clock() {
        use hanayo_trace::TraceKind;
        let (mut cfg, _) = job(2, 2, Scheme::Dapple);
        let data = synthetic_data(9, 4, 2, 2, 8);
        cfg.trace = true;
        let uninterrupted = try_train(&cfg, &data).unwrap();

        cfg.checkpoint = CheckpointPolicy::every(2);
        cfg.failure = FailurePlan::KillDevice { device: 0, iteration: 2 };
        let ckpt = try_train(&cfg, &data).unwrap_err().checkpoint.unwrap();
        let resume_cfg = TrainerConfig { failure: FailurePlan::None, ..cfg.clone() };
        let resumed = resume(&resume_cfg, &ckpt, &data).unwrap();

        let (a, b) = (uninterrupted.trace.unwrap(), resumed.trace.unwrap());
        b.validate().expect("merged resumed trace stays canonical");
        // Same work, same structure: identical span multiset per kind —
        // wall-clock times differ, the executed ops do not.
        let count =
            |t: &hanayo_trace::Trace, k: TraceKind| t.events.iter().filter(|e| e.kind == k).count();
        for k in
            [TraceKind::Fwd, TraceKind::Bwd, TraceKind::Send, TraceKind::Recv, TraceKind::Optim]
        {
            assert_eq!(count(&a, k), count(&b, k), "{k} span count diverged");
        }
        // The resumed segment starts after the pre-failure makespan.
        let ckpt_makespan = ckpt.trace.as_ref().unwrap().makespan();
        assert!(b.makespan() > ckpt_makespan);
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error_naming_the_device() {
        // A stage whose width disagrees with its input panics inside the
        // math kernels — below the typed-error layer. The trainer must
        // report *which* device died (and peers as cascades), not poison
        // the join.
        let (mut cfg, data) = job(2, 2, Scheme::Dapple);
        let bad = MicroModel { width: 5, total_blocks: 1, seed: 1 }.build_stages(1).remove(0);
        cfg.stages[1] = bad; // stage 1 lives on device 1
        let err = try_train(&cfg, &data).unwrap_err();
        match &err.primary {
            WorkerError::Panicked { device, message } => {
                assert_eq!(*device, DeviceId(1));
                assert!(!message.is_empty(), "the panic payload must ride along");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        assert!(err.failures.iter().all(|(_, e)| e == &err.primary || e.is_cascade()));
        assert!(err.to_string().contains("P1"), "{err}");
    }

    #[test]
    fn checkpoint_of_freezes_a_completed_run() {
        let (cfg, data) = job(2, 2, Scheme::Dapple);
        let out = try_train(&cfg, &data).unwrap();
        let ckpt = checkpoint_of(&cfg, &out, data.len() as u32, 1);
        assert_eq!(ckpt.iteration, 2);
        ckpt.guard(fingerprint_of(&cfg, 1)).unwrap();
        // Resuming a finished run is a no-op that returns the same bits.
        let resumed = resume(&cfg, &ckpt, &data).unwrap();
        bitwise_equal(&out, &resumed);
    }

    #[test]
    fn synthetic_data_at_is_the_stream_tail() {
        let full = synthetic_data(7, 5, 3, 2, 4);
        let tail = synthetic_data_at(7, 2, 3, 3, 2, 4);
        for (a, b) in full[2..].iter().zip(&tail) {
            assert_eq!(a.inputs.len(), b.inputs.len());
            for (x, y) in a.inputs.iter().zip(&b.inputs).chain(a.targets.iter().zip(&b.targets)) {
                assert_eq!(x.data, y.data);
            }
        }
        assert_eq!(synthetic_draws_per_iteration(3, 2, 4), 48);
    }
}
