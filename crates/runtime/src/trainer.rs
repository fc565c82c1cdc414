//! Driving a training run: thread-per-device orchestration plus the
//! sequential reference implementation every schedule is checked against.

use crate::collective::AllreduceHub;
use crate::mailbox::{fabric, spin_budget};
pub use crate::worker::LossKind;
use crate::worker::{
    panic_message, run_worker, IterationData, WorkerConfig, WorkerError, WorkerReport,
};
use hanayo_ckpt::{
    config_fingerprint, Checkpoint, CheckpointPolicy, CkptError, FailurePlan, OptimizerState,
    RngCursor,
};
use hanayo_core::action::Schedule;
use hanayo_core::ids::{DeviceId, MicroBatch};
use hanayo_model::Recompute;
use hanayo_tensor::loss::{mse, softmax_cross_entropy};
use hanayo_tensor::Stage;
use hanayo_trace::Trace;
use std::collections::HashMap;
use std::fmt;
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
    /// Durable-checkpoint cadence for [`try_train_resumable`]: a
    /// [`Checkpoint`] is captured at every iteration boundary the policy
    /// names (including iteration 0), and the latest one rides a
    /// [`FailedRun`] when the run crashes. Off by default; checkpointing
    /// never changes losses, weights or peaks — an interrupted-and-resumed
    /// run is bitwise identical to an uninterrupted one.
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
pub fn fingerprint_of(cfg: &TrainerConfig, world: u32) -> u64 {
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

/// A resumable run that crashed: the typed failure plus the last durable
/// checkpoint taken before it (if the policy produced one).
#[derive(Debug, Clone)]
pub struct FailedRun {
    /// What stopped the run.
    pub error: TrainError,
    /// The newest checkpoint captured before the failure; resume from it
    /// with [`resume`] / [`resume_data_parallel`]. `None` when the policy
    /// is [`CheckpointPolicy::OFF`].
    pub checkpoint: Option<Checkpoint>,
}

impl fmt::Display for FailedRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)?;
        match &self.checkpoint {
            Some(c) => write!(f, " (durable checkpoint at iteration {})", c.iteration),
            None => write!(f, " (no durable checkpoint)"),
        }
    }
}

impl std::error::Error for FailedRun {}

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
    Run(Box<FailedRun>),
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

/// Fold worker failures into a `TrainError`, preferring a root cause over
/// cascades as the primary. `tag_replica` distinguishes data-parallel runs
/// (where the rank disambiguates replica-local device ids) from
/// single-pipeline runs.
fn train_error(failures: Vec<(usize, WorkerError)>, tag_replica: bool) -> Option<TrainError> {
    if failures.is_empty() {
        return None;
    }
    let (rank, primary) =
        failures.iter().find(|(_, e)| !e.is_cascade()).unwrap_or(&failures[0]).clone();
    let replica = tag_replica.then_some(rank);
    Some(TrainError { primary, replica, failures })
}

fn validate(cfg: &TrainerConfig, data: &[IterationData]) {
    assert_eq!(cfg.stages.len(), cfg.schedule.stage_map.stages as usize, "one module per stage");
    for group in &cfg.schedule.stage_map.groups {
        assert_eq!(
            group.replica.0, 0,
            "the runtime trains single-replica schedules; use the wave \
             transformation for Chimera (the paper does the same)"
        );
    }
    let b = cfg.schedule.config.micro_batches as usize;
    for (i, iteration) in data.iter().enumerate() {
        assert_eq!(iteration.inputs.len(), b, "iteration {i}: one input per micro-batch");
        assert_eq!(iteration.targets.len(), b, "iteration {i}: one target per micro-batch");
    }
}

/// Run the schedule with real math, one OS thread per device. Panics (on
/// the calling thread, with the failing device and operation) if a worker
/// hits an invariant violation; use [`try_train`] to handle that as a
/// value.
pub fn train(cfg: &TrainerConfig, data: &[IterationData]) -> TrainOutput {
    try_train(cfg, data).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`train`], but worker-side invariant violations (the signature of
/// a corrupt schedule) come back as a typed [`TrainError`] naming the
/// failing device and operation instead of a cross-thread panic.
pub fn try_train(cfg: &TrainerConfig, data: &[IterationData]) -> Result<TrainOutput, TrainError> {
    try_train_with_dp(cfg, data, None, Instant::now(), 0)
}

/// Run `dp` identical pipeline replicas, each on its own data shard, with
/// a gradient all-reduce at every flush. `data[g]` is replica `g`'s shard;
/// all shards must have the same iteration count. Panics on worker
/// failure; see [`try_train_data_parallel`].
pub fn train_data_parallel(cfg: &TrainerConfig, data: &[Vec<IterationData>]) -> TrainOutput {
    try_train_data_parallel(cfg, data).unwrap_or_else(|e| panic!("{e}"))
}

/// [`train_data_parallel`] with worker failures surfaced as a
/// [`TrainError`] instead of a panic.
pub fn try_train_data_parallel(
    cfg: &TrainerConfig,
    data: &[Vec<IterationData>],
) -> Result<TrainOutput, TrainError> {
    let views: Vec<&[IterationData]> = data.iter().map(Vec::as_slice).collect();
    try_train_dp_segment(cfg, &views, Instant::now(), 0)
}

/// One data-parallel run segment: `data[g]` is replica `g`'s shard of
/// iterations `iter_base..` (borrowed — the chunked resume engine passes
/// windows of the full shards without copying). All spans land on the
/// shared `origin` clock.
fn try_train_dp_segment(
    cfg: &TrainerConfig,
    data: &[&[IterationData]],
    origin: Instant,
    iter_base: u32,
) -> Result<TrainOutput, TrainError> {
    let dp = data.len();
    assert!(dp >= 1);
    // The hub is also how a failure crosses replicas: whoever fails aborts
    // it, and every worker of a healthy replica reaches it, fails there as
    // a cascade and aborts its own fabric.
    let hub = &AllreduceHub::new(dp);
    let outputs: Vec<Result<TrainOutput, TrainError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = data
            .iter()
            .enumerate()
            .map(|(rank, shard)| {
                scope.spawn(move || {
                    // A panic above the worker layer (e.g. a validation
                    // assert before workers spawn) must abort the hub *on
                    // this thread*: peers of other replicas are already
                    // blocked in it, and the main thread may be joining a
                    // different replica — waiting for the join to surface
                    // it would deadlock the run. The panic is
                    // thread-level, so no local device can be named; the
                    // outer fold re-tags the replica rank.
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        try_train_with_dp(cfg, shard, Some((rank, hub)), origin, iter_base)
                    }))
                    .unwrap_or_else(|payload| {
                        hub.abort();
                        let w = WorkerError::Panicked {
                            device: DeviceId(0),
                            message: format!(
                                "replica thread (device unknown): {}",
                                panic_message(payload.as_ref())
                            ),
                        };
                        Err(TrainError {
                            primary: w.clone(),
                            replica: None,
                            failures: vec![(0, w)],
                        })
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Replica threads catch their own panics above; a join
                // failure would mean a panic escaped the catch (e.g. in
                // the unwind path itself) — fold it into the same typed
                // failure instead of propagating the panic.
                h.join().unwrap_or_else(|payload| {
                    let w = WorkerError::Panicked {
                        device: DeviceId(0),
                        message: format!(
                            "replica thread (device unknown): {}",
                            panic_message(payload.as_ref())
                        ),
                    };
                    Err(TrainError { primary: w.clone(), replica: None, failures: vec![(0, w)] })
                })
            })
            .collect()
    });
    let mut ok = Vec::with_capacity(dp);
    let mut failures = Vec::new();
    for (rank, out) in outputs.into_iter().enumerate() {
        match out {
            Ok(o) => ok.push(o),
            // Re-tag with the replica rank: device ids are replica-local.
            Err(e) => failures.extend(e.failures.into_iter().map(|(_, w)| (rank, w))),
        }
    }
    if let Some(e) = train_error(failures, true) {
        return Err(e);
    }
    // Every replica either succeeded or contributed a failure, and
    // `dp >= 1` is asserted on entry, so at least one success remains
    // after the early return above.
    let Some(first) = ok.first() else {
        let w = WorkerError::Panicked {
            device: DeviceId(0),
            message: "no replica produced output (dp == 0?)".to_string(),
        };
        return Err(TrainError { primary: w.clone(), replica: None, failures: vec![(0, w)] });
    };
    // Replicas end bit-identical; average their reported losses.
    let iters = first.losses.len();
    let losses =
        (0..iters).map(|i| ok.iter().map(|o| o.losses[i]).sum::<f32>() / dp as f32).collect();
    let peak = ok.iter().flat_map(|o| o.peak_stash_bytes.clone()).collect();
    let parked = ok.iter().flat_map(|o| o.peak_mailbox_parked.clone()).collect();
    // Merge replica traces onto global device ranks (`rank·P + local`).
    let trace = cfg.trace.then(|| {
        let p = cfg.schedule.lists.len() as u32;
        let mut merged = Trace::new(p * dp as u32);
        for (rank, out) in ok.iter().enumerate() {
            if let Some(t) = &out.trace {
                merged.merge_offset(t, rank as u32 * p);
            }
        }
        merged
    });
    Ok(TrainOutput {
        losses,
        stages: ok.into_iter().next().map_or_else(Vec::new, |o| o.stages),
        peak_stash_bytes: peak,
        peak_mailbox_parked: parked,
        trace,
    })
}

fn try_train_with_dp(
    cfg: &TrainerConfig,
    data: &[IterationData],
    dp: Option<(usize, &AllreduceHub)>,
    origin: Instant,
    iter_base: u32,
) -> Result<TrainOutput, TrainError> {
    validate(cfg, data);
    let schedule = &cfg.schedule;
    let p = schedule.lists.len();
    let world = dp.map_or(1, |(_, hub)| hub.world());
    let (fab, mailboxes) = fabric(p, spin_budget(p * world));

    let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = mailboxes
            .into_iter()
            .enumerate()
            .map(|(d, mailbox)| {
                let device = DeviceId(d as u32);
                let modules: HashMap<u32, Stage> = schedule
                    .stage_map
                    .modules_on(device)
                    .into_iter()
                    .map(|(_, stage)| (stage.0, cfg.stages[stage.idx()].clone()))
                    .collect();
                let wcfg = WorkerConfig {
                    device,
                    schedule,
                    modules,
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
                scope.spawn(move || run_worker(wcfg, mailbox, fab))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(d, h)| {
                // The worker catches its own panics; a join can only fail
                // if report assembly itself blew up. Even then: abort so
                // peers unwind, and report the device by name.
                h.join().unwrap_or_else(|payload| {
                    fab.abort();
                    if let Some((_, hub)) = dp {
                        hub.abort();
                    }
                    let device = DeviceId(d as u32);
                    WorkerReport {
                        device,
                        modules: HashMap::new(),
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
            .collect()
    });

    let rank = dp.map_or(0, |(r, _)| r);
    let failures: Vec<(usize, WorkerError)> =
        reports.iter().filter_map(|r| r.error.clone().map(|e| (rank, e))).collect();
    if let Some(e) = train_error(failures, false) {
        return Err(e);
    }

    // Reassemble the global stage vector and find the loss reporter.
    let mut stages = cfg.stages.clone();
    let mut losses = Vec::new();
    let mut peaks = vec![0usize; p];
    let mut parked = vec![0usize; p];
    let mut trace = cfg.trace.then(|| Trace::new(p as u32));
    for report in reports {
        peaks[report.device.idx()] = report.peak_stash_bytes;
        parked[report.device.idx()] = report.peak_mailbox_parked;
        if let Some(trace) = &mut trace {
            trace.events.extend(report.events);
        }
        for (s, module) in report.modules {
            stages[s as usize] = module;
        }
        if !report.losses.is_empty() {
            losses = report.losses;
        }
    }
    if let Some(trace) = &mut trace {
        trace.normalize();
    }
    Ok(TrainOutput { losses, stages, peak_stash_bytes: peaks, peak_mailbox_parked: parked, trace })
}

// ---------------------------------------------------------------------------
// Checkpointed (resumable) training
// ---------------------------------------------------------------------------

/// The data a chunked run draws from: one pipeline, or one shard per
/// data-parallel replica.
enum DataRef<'a> {
    Single(&'a [IterationData]),
    Dp(&'a [&'a [IterationData]]),
}

impl DataRef<'_> {
    fn iterations(&self) -> usize {
        match self {
            DataRef::Single(d) => d.len(),
            DataRef::Dp(shards) => {
                let n = shards.first().map_or(0, |s| s.len());
                assert!(shards.iter().all(|s| s.len() == n), "shards must have equal length");
                n
            }
        }
    }

    fn world(&self) -> u32 {
        match self {
            DataRef::Single(_) => 1,
            DataRef::Dp(shards) => shards.len() as u32,
        }
    }
}

/// Mutable run state carried across chunks (and across a failure/resume
/// boundary — a [`Checkpoint`] is exactly a frozen copy of this).
struct RunState {
    stages: Vec<Stage>,
    losses: Vec<f32>,
    peaks: Vec<usize>,
    /// Per-device mailbox high-water marks, `max` over chunks like
    /// `peaks` (not stored in a checkpoint — a per-run measurement).
    parked: Vec<usize>,
    trace: Option<Trace>,
    last_ckpt: Option<Checkpoint>,
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
    state: &RunState,
    iteration: u32,
    world: u32,
) -> Checkpoint {
    Checkpoint {
        fingerprint: fingerprint_of(cfg, world),
        iteration,
        world,
        schedule: cfg.schedule.clone(),
        stages: state.stages.clone(),
        optimizer: OptimizerState::Sgd { lr: cfg.lr },
        losses: state.losses.clone(),
        peak_stash_bytes: state.peaks.iter().map(|&b| b as u64).collect(),
        rng: state.rng_origin.as_ref().and_then(|o| cursor_at(o, iteration)),
        plan_json: state.plan_json.clone(),
        trace: state.trace.clone(),
    }
}

/// The chunked engine behind every resumable entry point: execute global
/// iterations `start..n` in chunks delimited by the checkpoint policy,
/// capturing a durable [`Checkpoint`] at each boundary. Bitwise identical
/// to a single uninterrupted run — each iteration is a pure function of
/// (weights, its data), the per-device stash peak profile repeats every
/// iteration so `max` over chunks equals `max` over the whole run, and
/// chunk traces share one clock origin (resumed traces are shifted past
/// the pre-failure makespan).
fn run_chunked(
    cfg: &TrainerConfig,
    data: DataRef<'_>,
    start: u32,
    mut state: RunState,
) -> Result<TrainOutput, Box<FailedRun>> {
    let n = data.iterations() as u32;
    let world = data.world();
    let every = cfg.checkpoint.every;
    let origin = Instant::now();
    // Resumed spans continue where the interrupted timeline stopped.
    let shift = state.trace.as_ref().map_or(0.0, Trace::makespan);

    // One reusable chunk config: only the stages change between chunks.
    let mut chunk_cfg = cfg.clone();
    let mut i = start;
    while i < n {
        if cfg.checkpoint.is_boundary(i) {
            state.last_ckpt = Some(capture_checkpoint(cfg, &state, i, world));
        }
        // Next chunk ends at the following policy boundary (or the run's
        // end when checkpointing is off).
        let j = match i.checked_div(every) {
            Some(q) => ((q + 1) * every).min(n),
            None => n,
        };
        chunk_cfg.stages.clone_from(&state.stages);
        let outcome = match data {
            DataRef::Single(d) => {
                try_train_with_dp(&chunk_cfg, &d[i as usize..j as usize], None, origin, i)
            }
            DataRef::Dp(shards) => {
                let windows: Vec<&[IterationData]> =
                    shards.iter().map(|s| &s[i as usize..j as usize]).collect();
                try_train_dp_segment(&chunk_cfg, &windows, origin, i)
            }
        };
        match outcome {
            Ok(out) => {
                state.stages = out.stages;
                state.losses.extend(out.losses);
                for (acc, chunk) in state.peaks.iter_mut().zip(&out.peak_stash_bytes) {
                    *acc = (*acc).max(*chunk);
                }
                for (acc, chunk) in state.parked.iter_mut().zip(&out.peak_mailbox_parked) {
                    *acc = (*acc).max(*chunk);
                }
                if let (Some(t), Some(chunk_t)) = (&mut state.trace, &out.trace) {
                    t.merge_shifted(chunk_t, shift);
                }
            }
            Err(error) => {
                return Err(Box::new(FailedRun { error, checkpoint: state.last_ckpt.take() }))
            }
        }
        i = j;
    }
    Ok(TrainOutput {
        losses: state.losses,
        stages: state.stages,
        peak_stash_bytes: state.peaks,
        peak_mailbox_parked: state.parked,
        trace: state.trace,
    })
}

fn fresh_state(cfg: &TrainerConfig, devices: usize) -> RunState {
    RunState {
        stages: cfg.stages.clone(),
        losses: Vec::new(),
        peaks: vec![0; devices],
        parked: vec![0; devices],
        trace: cfg.trace.then(|| Trace::new(devices as u32)),
        last_ckpt: None,
        rng_origin: None,
        plan_json: None,
    }
}

/// [`try_train`] with durable checkpoints and failure injection: runs
/// under [`TrainerConfig::checkpoint`] / [`TrainerConfig::failure`], and
/// on a crash hands back the typed error *plus* the last durable
/// [`Checkpoint`] so the caller can [`resume`]. A completed run is bitwise
/// identical to [`try_train`] — checkpointing only observes.
pub fn try_train_resumable(
    cfg: &TrainerConfig,
    data: &[IterationData],
) -> Result<TrainOutput, Box<FailedRun>> {
    let p = cfg.schedule.lists.len();
    run_chunked(cfg, DataRef::Single(data), 0, fresh_state(cfg, p))
}

/// [`try_train_data_parallel`] with durable checkpoints and failure
/// injection (see [`try_train_resumable`]). Replicas end bit-identical, so
/// the checkpoint stores one copy of the stages; peaks cover all
/// `world · P` global devices.
pub fn try_train_data_parallel_resumable(
    cfg: &TrainerConfig,
    data: &[Vec<IterationData>],
) -> Result<TrainOutput, Box<FailedRun>> {
    let devices = cfg.schedule.lists.len() * data.len();
    let views: Vec<&[IterationData]> = data.iter().map(Vec::as_slice).collect();
    run_chunked(cfg, DataRef::Dp(&views), 0, fresh_state(cfg, devices))
}

fn resume_state(cfg: &TrainerConfig, ckpt: &Checkpoint, devices: usize) -> RunState {
    RunState {
        stages: ckpt.stages.clone(),
        losses: ckpt.losses.clone(),
        peaks: ckpt.peak_stash_bytes.iter().map(|&b| b as usize).collect(),
        parked: vec![0; devices],
        trace: cfg.trace.then(|| ckpt.trace.clone().unwrap_or_else(|| Trace::new(devices as u32))),
        last_ckpt: Some(ckpt.clone()),
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
    guard_resume(cfg, ckpt, 1, data.len())?;
    let p = cfg.schedule.lists.len();
    run_chunked(cfg, DataRef::Single(data), ckpt.iteration, resume_state(cfg, ckpt, p))
        .map_err(ResumeError::Run)
}

/// [`resume`] for data-parallel runs (`data[g]` is replica `g`'s full
/// shard, exactly as passed to [`try_train_data_parallel_resumable`]).
pub fn resume_data_parallel(
    cfg: &TrainerConfig,
    ckpt: &Checkpoint,
    data: &[Vec<IterationData>],
) -> Result<TrainOutput, ResumeError> {
    let world = data.len() as u32;
    guard_resume(cfg, ckpt, world, data.first().map_or(0, Vec::len))?;
    let devices = cfg.schedule.lists.len() * data.len();
    let views: Vec<&[IterationData]> = data.iter().map(Vec::as_slice).collect();
    run_chunked(cfg, DataRef::Dp(&views), ckpt.iteration, resume_state(cfg, ckpt, devices))
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
        stages: out.stages.clone(),
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
                LossKind::Mse => mse(&x, &iteration.targets[mb]),
                LossKind::CrossEntropy { labels } => softmax_cross_entropy(&x, &labels[mb]),
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

/// Which device reports losses (holds the last stage); exposed for tests.
pub fn loss_device(schedule: &Schedule) -> DeviceId {
    let last = hanayo_core::ids::StageId(schedule.stage_map.stages - 1);
    schedule.stage_map.device_of(MicroBatch(0), last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_core::config::{PipelineConfig, Scheme};
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
        let pipe = train(&cfg, &data);
        let seq = sequential_reference(&cfg.stages, &data, cfg.lr, &cfg.loss);
        assert_eq!(pipe.stages, seq.stages, "weights diverged");
        assert_eq!(pipe.losses, seq.losses, "losses diverged");
    }

    #[test]
    fn hanayo_matches_sequential_bitwise() {
        let (cfg, data) = job(2, 4, Scheme::Hanayo { waves: 2 });
        let pipe = train(&cfg, &data);
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
        let out = train(&cfg, &data);
        assert!(out.losses.last().unwrap() < out.losses.first().unwrap(), "{:?}", out.losses);
    }

    #[test]
    fn full_recompute_is_bit_identical_and_stashes_less() {
        let (cfg, data) = job(2, 4, Scheme::Hanayo { waves: 2 });
        let plain = train(&cfg, &data);
        let ckpt = train(&TrainerConfig { recompute: Recompute::Full, ..cfg.clone() }, &data);
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
        let plain = train(&cfg, &data);
        assert!(plain.trace.is_none(), "tracing is opt-in");
        let traced = train(&TrainerConfig { trace: true, ..cfg.clone() }, &data);
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
        let trace = train(&cfg, &data).trace.unwrap();
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
        let out = train_data_parallel(&cfg, &shards);
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

    #[test]
    fn corrupt_schedule_surfaces_typed_error_not_a_poisoned_join() {
        use hanayo_core::action::{Action, CommDir};
        let (mut cfg, data) = job(2, 2, Scheme::Dapple);
        // Drop device 1's first receive: its forward finds no input.
        let list = &mut cfg.schedule.lists[1].actions;
        let pos = list
            .iter()
            .position(|a| matches!(a, Action::Comm(op) if op.dir == CommDir::Recv))
            .expect("device 1 receives activations");
        list.remove(pos);
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
        use hanayo_core::action::{Action, CommDir};
        let (mut cfg, _) = job(2, 2, Scheme::Dapple);
        let list = &mut cfg.schedule.lists[1].actions;
        let pos = list
            .iter()
            .position(|a| matches!(a, Action::Comm(op) if op.dir == CommDir::Recv))
            .unwrap();
        list.remove(pos);
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
    fn train_panic_carries_the_typed_message() {
        use hanayo_core::action::{Action, CommDir};
        let (mut cfg, data) = job(2, 2, Scheme::Dapple);
        let list = &mut cfg.schedule.lists[1].actions;
        let pos = list
            .iter()
            .position(|a| matches!(a, Action::Comm(op) if op.dir == CommDir::Recv))
            .unwrap();
        list.remove(pos);
        let result = std::panic::catch_unwind(|| train(&cfg, &data));
        let msg = *result.unwrap_err().downcast::<String>().expect("string panic payload");
        assert!(msg.contains("P1"), "panic must name the device: {msg}");
        assert!(msg.contains("forward found no input"), "panic must name the op: {msg}");
    }

    #[test]
    fn rejects_replicated_schedules() {
        let cfg = PipelineConfig::new(2, 2, Scheme::Chimera).unwrap();
        let schedule = build_schedule(&cfg).unwrap();
        let model = MicroModel { width: 8, total_blocks: 2, seed: 1 };
        let stages = model.build_stages(2);
        let data = synthetic_data(1, 1, 2, 2, 8);
        let cfg = TrainerConfig::new(schedule, stages, 0.1, LossKind::Mse);
        let result = std::panic::catch_unwind(|| train(&cfg, &data));
        assert!(result.is_err(), "chimera-native must be rejected");
    }

    #[test]
    fn data_parallel_matches_merged_batch_up_to_reassociation() {
        let (cfg, _) = job(2, 2, Scheme::Hanayo { waves: 1 });
        let shards = vec![synthetic_data(11, 2, 2, 2, 8), synthetic_data(12, 2, 2, 2, 8)];
        let out = train_data_parallel(&cfg, &shards);
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
        let a = train_data_parallel(&cfg, &shards);
        let b = train_data_parallel(&cfg, &shards);
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
    fn resumable_run_without_failure_matches_plain_train() {
        // Chunked execution is an implementation detail: with the policy
        // on but no failure, the output is bitwise the single-chunk one.
        let (mut cfg, data) = job(2, 4, Scheme::Hanayo { waves: 2 });
        let plain = train(&cfg, &data);
        cfg.checkpoint = CheckpointPolicy::every(1);
        let chunked = try_train_resumable(&cfg, &data).unwrap();
        bitwise_equal(&plain, &chunked);
    }

    #[test]
    fn killed_run_emits_last_durable_checkpoint_and_resumes_bitwise() {
        let (mut cfg, _) = job(2, 4, Scheme::Dapple);
        let data = synthetic_data(3, 4, 4, 2, 8);
        let uninterrupted = train(&cfg, &data);

        cfg.checkpoint = CheckpointPolicy::every(2);
        cfg.failure = FailurePlan::KillDevice { device: 1, iteration: 3 };
        let failed = try_train_resumable(&cfg, &data).unwrap_err();
        assert!(
            matches!(
                failed.error.primary,
                WorkerError::Injected { device: DeviceId(1), iteration: 3 }
            ),
            "unexpected primary: {}",
            failed.error.primary
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
        let uninterrupted = train(&cfg, &data);
        cfg.checkpoint = CheckpointPolicy::every(2);
        cfg.failure = FailurePlan::KillDevice { device: 0, iteration: 1 };
        let failed = try_train_resumable(&cfg, &data).unwrap_err();
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
        let failed = try_train_resumable(&cfg, &data).unwrap_err();
        assert!(failed.checkpoint.is_none());
        assert!(failed.to_string().contains("no durable checkpoint"), "{failed}");
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
        let ckpt = try_train_resumable(&cfg, &data).unwrap_err().checkpoint.unwrap();
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
    fn replica_thread_panic_before_workers_spawn_does_not_hang() {
        // Replica 1's shard is malformed: its validate() assert fires on
        // the replica thread before any worker exists. Replica 0's workers
        // are by then blocked in the shared all-reduce hub — the panicking
        // thread itself must abort the hub, or the run deadlocks.
        let (cfg, _) = job(2, 2, Scheme::Hanayo { waves: 1 });
        let good = synthetic_data(71, 1, 2, 2, 8);
        let mut bad = synthetic_data(72, 1, 2, 2, 8);
        bad[0].inputs.pop(); // one input short of the micro-batch count
        let err = try_train_data_parallel(&cfg, &[good, bad]).unwrap_err();
        assert_eq!(err.replica, Some(1), "the failing replica must be named: {err}");
        assert!(
            matches!(err.primary, WorkerError::Panicked { .. }),
            "expected the typed panic, got {}",
            err.primary
        );
        assert!(err.to_string().contains("one input per micro-batch"), "{err}");
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
        let mut ckpt = try_train_resumable(&cfg, &data).unwrap_err().checkpoint.unwrap();
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
        let uninterrupted = train_data_parallel(&cfg, &shards);

        cfg.checkpoint = CheckpointPolicy::every(2);
        // Global rank 3 = replica 1, local device 1.
        cfg.failure = FailurePlan::KillDevice { device: 3, iteration: 2 };
        let failed = try_train_data_parallel_resumable(&cfg, &shards).unwrap_err();
        assert_eq!(failed.error.replica, Some(1), "the replica must be named");
        assert!(matches!(
            failed.error.primary,
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
        let uninterrupted = train(&cfg, &data);

        cfg.checkpoint = CheckpointPolicy::every(2);
        cfg.failure = FailurePlan::KillDevice { device: 0, iteration: 2 };
        let ckpt = try_train_resumable(&cfg, &data).unwrap_err().checkpoint.unwrap();
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
        let out = train(&cfg, &data);
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
