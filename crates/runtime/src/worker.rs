//! The action-list interpreter: one instance runs per device thread.
//!
//! A worker owns the local modules its device's stages map to, an
//! activation stash per in-flight micro-batch, and — for the whole call —
//! one gradient accumulator per local stage plus each Linear's `Wᵀ`
//! (weights are frozen between flushes, so one transpose serves every
//! micro-batch). A backward adds its gradients straight into its stage's
//! accumulator in micro-batch order, the key to bit-exact equivalence
//! across schedules: the sum is `((0 + g₀) + g₁) + …` whatever the
//! schedule. Every generated scheme visits a stage's backwards in that
//! order; a hand-built or searched table that does not has its early
//! gradients parked and added as soon as their turn comes. The flush
//! (`OptimizerStep`) then only applies the accumulator — after an optional
//! exchange with data-parallel peers — with SGD, and rebuilds the
//! accumulator and `Wᵀ` in place for the next iteration.
//!
//! Invariant violations (a forward with no input, a backward with no
//! gradient or stash — the signature of a corrupt schedule) do **not**
//! panic the thread: they become a typed [`WorkerError`] carried home in
//! the [`WorkerReport`], an abort packet goes out to every peer mailbox
//! ([`Fabric::abort`]) so blocked peers unwind instead of deadlocking, and
//! the trainer reports exactly which device and operation failed.

use crate::collective::AllreduceHub;
use crate::mailbox::{Envelope, Fabric, Mailbox};
use hanayo_ckpt::FailurePlan;
use hanayo_core::action::{Action, CommDir, MsgTag, Payload, Schedule};
use hanayo_core::ids::{DeviceId, MicroBatch, StageId};
use hanayo_model::Recompute;
use hanayo_tensor::loss::{mse, softmax_cross_entropy};
use hanayo_tensor::{GradScratch, Stage, StageGrads, StageStash, Tensor, TransposedWeights};
use hanayo_trace::{TraceEvent, TraceKind};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Loss functions the last pipeline stage can apply.
#[derive(Debug, Clone)]
pub enum LossKind {
    /// Mean-squared error against per-micro-batch target tensors.
    Mse,
    /// Softmax cross-entropy against per-micro-batch label vectors.
    CrossEntropy {
        /// `labels[mb][row]` is the class of that row.
        labels: Vec<Vec<usize>>,
    },
}

impl LossKind {
    /// What the checkpoint config fingerprint hashes: the kind *and* any
    /// payload that changes the math. Cross-entropy labels are targets —
    /// resuming under different labels would be a different program, so
    /// they must move the fingerprint.
    pub fn fingerprint_token(&self) -> String {
        match self {
            LossKind::Mse => "mse".to_string(),
            LossKind::CrossEntropy { labels } => format!("cross_entropy:{labels:?}"),
        }
    }
}

/// What a worker keeps resident between a stage's forward and its
/// backward, per `(micro-batch, stage)` — the executable form of the
/// [`Recompute`] policy.
#[derive(Debug, Clone)]
enum Stashed {
    /// Every internal activation ([`Recompute::None`]): backward consumes
    /// the stash directly.
    Activations(StageStash),
    /// Only the stage-input boundary tensor ([`Recompute::Full`]): the
    /// backward replays the stage forward to regenerate the stash. The
    /// replay is deterministic — stage forwards are pure functions of the
    /// input and the (frozen-until-flush) weights, and all randomness in a
    /// run lives in the pinned `hanayo_tensor::rng::seeded` init/data
    /// streams — so gradients stay bit-identical to [`Recompute::None`].
    Boundary(Tensor),
}

impl Stashed {
    /// Resident bytes of this stash entry, the quantity the per-device
    /// live-bytes counter tracks.
    ///
    /// Scope: the counter accounts what stays resident *across* actions.
    /// The full stage stash the backward-time replay regenerates under
    /// `Full` is transient workspace inside one backward — symmetric with
    /// the forward's own input-plus-stash workspace, which is equally
    /// uncounted under `None` — bounded by a single micro-batch's stash on
    /// one stage. The simulator and unit replay account the same resident
    /// quantity, which is what keeps the three memory models exactly
    /// comparable.
    fn bytes(&self) -> usize {
        match self {
            Stashed::Activations(st) => st.bytes(),
            Stashed::Boundary(x) => 4 * x.len(),
        }
    }
}

/// What a worker keeps per local stage for a whole call: the gradient
/// accumulator, the stage's `Wᵀ`, and the gradients of backwards that ran
/// ahead of their turn.
struct StageGradState {
    acc: StageGrads,
    wt: TransposedWeights,
    /// The micro-batch whose gradient is added next.
    next: usize,
    /// Gradients of backwards that ran ahead of `next`, by micro-batch
    /// (never filled by a generated scheme).
    parked: Vec<Option<StageGrads>>,
}

impl StageGradState {
    fn new(module: &Stage, micro_batches: usize) -> StageGradState {
        StageGradState {
            acc: module.zero_grads(),
            wt: module.transposed_weights(),
            next: 0,
            parked: vec![None; micro_batches],
        }
    }

    /// Run `mb`'s backward, keeping the accumulator's sum in micro-batch
    /// order: the backward for `next` adds straight in (then drains any
    /// parked successors); one further ahead is summed alone and parked.
    /// `None` when `mb` has no place in this flush.
    fn backward(
        &mut self,
        module: &Stage,
        st: &StageStash,
        dy: &Tensor,
        mb: usize,
        scratch: &mut GradScratch,
    ) -> Option<Tensor> {
        if mb == self.next && mb < self.parked.len() {
            let dx = module.backward_into(st, dy, &self.wt, scratch, &mut self.acc);
            self.next += 1;
            while let Some(g) = self.parked.get_mut(self.next).and_then(Option::take) {
                self.acc.accumulate(&g);
                self.next += 1;
            }
            return Some(dx);
        }
        let slot = self.parked.get_mut(mb).filter(|s| mb > self.next && s.is_none())?;
        let mut g = module.zero_grads();
        let dx = module.backward_into(st, dy, &self.wt, scratch, &mut g);
        *slot = Some(g);
        Some(dx)
    }

    /// After the step: zero the accumulator and re-lay out `Wᵀ` from the
    /// updated weights, both in place.
    fn reset(&mut self, module: &Stage) {
        self.acc.zero();
        self.wt.refresh(module);
        self.next = 0;
    }
}

/// One iteration's worth of pipeline input.
#[derive(Debug, Clone)]
pub struct IterationData {
    /// One input tensor per micro-batch (consumed by stage 0).
    pub inputs: Vec<Tensor>,
    /// One target tensor per micro-batch (consumed by the last stage).
    pub targets: Vec<Tensor>,
}

/// A worker-side invariant violation, with enough context to name the
/// device and operation that failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerError {
    /// A forward found no input activation under its tag.
    MissingInput {
        /// Failing device.
        device: DeviceId,
        /// The absent message.
        tag: MsgTag,
    },
    /// A backward found no output gradient under its tag.
    MissingGradient {
        /// Failing device.
        device: DeviceId,
        /// The absent message.
        tag: MsgTag,
    },
    /// A backward found no stashed forward activation.
    MissingStash {
        /// Failing device.
        device: DeviceId,
        /// Micro-batch of the absent stash.
        mb: MicroBatch,
        /// Stage of the absent stash.
        stage: StageId,
    },
    /// An action named a stage this device holds no module for.
    MissingModule {
        /// Failing device.
        device: DeviceId,
        /// The unknown stage.
        stage: StageId,
    },
    /// A send had nothing parked outbound under its tag.
    MissingOutbound {
        /// Failing device.
        device: DeviceId,
        /// The absent message.
        tag: MsgTag,
    },
    /// The flush found a micro-batch whose gradient never arrived.
    MissingSlotGradient {
        /// Failing device.
        device: DeviceId,
        /// Stage whose accumulator is incomplete.
        stage: StageId,
    },
    /// A backward's gradient has no place in its stage's flush: its
    /// micro-batch was already accumulated (or parked), lies beyond the
    /// iteration's micro-batches, or the previous iteration never flushed.
    UnexpectedGradient {
        /// Failing device.
        device: DeviceId,
        /// Micro-batch of the backward.
        mb: MicroBatch,
        /// Stage of the backward.
        stage: StageId,
    },
    /// Activation stashes survived the iteration (schedule never consumed
    /// them).
    StashNotDrained {
        /// Failing device.
        device: DeviceId,
        /// Leftover stash count.
        remaining: usize,
    },
    /// Produced messages were never sent.
    UnsentOutbound {
        /// Failing device.
        device: DeviceId,
        /// Leftover message count.
        remaining: usize,
    },
    /// The worker stopped because a peer failed first (cascade, not root
    /// cause).
    Aborted {
        /// The device that unwound.
        device: DeviceId,
    },
    /// An injected fault killed this device ([`FailurePlan::KillDevice`]).
    Injected {
        /// The killed device (local rank).
        device: DeviceId,
        /// Global iteration at which the device died.
        iteration: u32,
    },
    /// An injected fault took this worker's outbound link down
    /// ([`FailurePlan::DropLink`]).
    LinkDown {
        /// The sending device (local rank).
        device: DeviceId,
        /// The unreachable peer (local rank).
        peer: DeviceId,
        /// Global iteration at which the send hit the dead link.
        iteration: u32,
    },
    /// The worker thread panicked (a bug below the typed-error layer —
    /// e.g. a shape assert in the math kernels). Caught on the worker
    /// thread so the trainer reports *which* device died instead of
    /// propagating a poisoned join.
    Panicked {
        /// The device whose thread panicked.
        device: DeviceId,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A data-parallel run was given no shard at all. Refused before any
    /// thread starts.
    NoShards,
    /// A data-parallel replica's shard holds a different iteration count
    /// than replica 0's. Refused before any thread starts: the other
    /// replicas would wait in the all-reduce forever.
    ShardLength {
        /// The replica whose shard differs.
        replica: usize,
        /// Iterations in its shard.
        len: usize,
        /// Iterations in replica 0's shard.
        expected: usize,
    },
}

impl WorkerError {
    /// The device the error occurred on; `None` for a run refused before
    /// any device started.
    pub fn device(&self) -> Option<DeviceId> {
        match *self {
            WorkerError::MissingInput { device, .. }
            | WorkerError::MissingGradient { device, .. }
            | WorkerError::MissingStash { device, .. }
            | WorkerError::MissingModule { device, .. }
            | WorkerError::MissingOutbound { device, .. }
            | WorkerError::MissingSlotGradient { device, .. }
            | WorkerError::UnexpectedGradient { device, .. }
            | WorkerError::StashNotDrained { device, .. }
            | WorkerError::UnsentOutbound { device, .. }
            | WorkerError::Aborted { device }
            | WorkerError::Injected { device, .. }
            | WorkerError::LinkDown { device, .. }
            | WorkerError::Panicked { device, .. } => Some(device),
            WorkerError::NoShards | WorkerError::ShardLength { .. } => None,
        }
    }

    /// Is this a cascade (peer failed first) rather than a root cause?
    pub fn is_cascade(&self) -> bool {
        matches!(self, WorkerError::Aborted { .. })
    }
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::MissingInput { device, tag } => {
                write!(f, "{device}: forward found no input {tag}")
            }
            WorkerError::MissingGradient { device, tag } => {
                write!(f, "{device}: backward found no gradient {tag}")
            }
            WorkerError::MissingStash { device, mb, stage } => {
                write!(f, "{device}: backward found no stash for {mb} {stage}")
            }
            WorkerError::MissingModule { device, stage } => {
                write!(f, "{device}: no local module for {stage}")
            }
            WorkerError::MissingOutbound { device, tag } => {
                write!(f, "{device}: nothing outbound for {tag}")
            }
            WorkerError::MissingSlotGradient { device, stage } => {
                write!(f, "{device}: {stage} missing a micro-batch gradient at the flush")
            }
            WorkerError::UnexpectedGradient { device, mb, stage } => {
                write!(f, "{device}: backward of {mb} {stage} has no place in the flush")
            }
            WorkerError::StashNotDrained { device, remaining } => {
                write!(f, "{device}: {remaining} activation stash(es) never consumed")
            }
            WorkerError::UnsentOutbound { device, remaining } => {
                write!(f, "{device}: {remaining} outbound message(s) never sent")
            }
            WorkerError::Aborted { device } => {
                write!(f, "{device}: aborted after a peer failure")
            }
            WorkerError::Injected { device, iteration } => {
                write!(f, "{device}: killed by the failure plan at iteration {iteration}")
            }
            WorkerError::LinkDown { device, peer, iteration } => {
                write!(f, "{device}: link to {peer} down (failure plan, iteration {iteration})")
            }
            WorkerError::Panicked { device, message } => {
                write!(f, "{device}: worker thread panicked: {message}")
            }
            WorkerError::NoShards => write!(f, "a data-parallel run needs at least one shard"),
            WorkerError::ShardLength { replica, len, expected } => write!(
                f,
                "replica {replica}'s shard holds {len} iteration(s), replica 0's holds {expected}"
            ),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Everything a worker thread needs. Workers are scoped threads, so the
/// run-wide inputs are borrowed from the trainer's caller, never copied.
pub struct WorkerConfig<'a> {
    /// This worker's rank.
    pub device: DeviceId,
    /// The full schedule (workers read their own list plus the stage map).
    pub schedule: &'a Schedule,
    /// Modules for the stages this device hosts, keyed by global stage id.
    pub modules: HashMap<u32, Stage>,
    /// Per-iteration inputs/targets (shared; only the edge devices read it).
    pub data: &'a [IterationData],
    /// Loss applied at the last stage.
    pub loss: &'a LossKind,
    /// SGD learning rate.
    pub lr: f32,
    /// Data-parallel exchange (rank, hub) when training replicated.
    pub dp: Option<(usize, &'a AllreduceHub)>,
    /// Activation stash policy: keep everything, or keep only the stage
    /// input and replay the forward inside the backward.
    pub recompute: Recompute,
    /// Deterministic fault to inject (device indices are global ranks;
    /// see [`FailurePlan`]). Injected faults fail through the same typed
    /// error + abort path a real invariant violation would take.
    pub failure: FailurePlan,
    /// Global index of this run segment's first iteration: resumed (or
    /// chunked) runs execute `data[0..]` as global iterations
    /// `iter_base..`, and the failure plan is expressed in global
    /// iterations.
    pub iter_base: u32,
    /// Record an [`Instant`]-based [`TraceEvent`] span around every op
    /// (forward, backward + checkpointing replay, send, receive,
    /// all-reduce, optimizer step). Off by default: the untraced path
    /// takes no clock readings at all.
    pub trace: bool,
    /// Clock origin shared by every worker of the run (and, for
    /// data-parallel runs, every replica), so span timestamps land on one
    /// common axis.
    pub origin: Instant,
}

/// Deterministic per-run op tallies, flushed to the metrics registry in
/// one batch when the worker finishes. Plain local `u64`s during the run
/// (a handful of adds per op, never read back), so observation cannot
/// perturb the computation.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    forward: u64,
    backward: u64,
    send: u64,
    recv: u64,
    optim: u64,
    allreduce: u64,
}

impl WorkerStats {
    /// Flush counters and peak gauges for `device`. No-op unless the
    /// registry is enabled.
    fn flush(&self, device: DeviceId, peak_stash: usize, peak_parked: usize) {
        if !hanayo_metrics::enabled() {
            return;
        }
        let dev = device.0.to_string();
        for (kind, n) in [
            ("forward", self.forward),
            ("backward", self.backward),
            ("send", self.send),
            ("recv", self.recv),
            ("optim", self.optim),
        ] {
            if n > 0 {
                hanayo_metrics::counter_add(
                    "hanayo_worker_ops_total",
                    &[("device", dev.as_str()), ("kind", kind)],
                    n,
                );
            }
        }
        if self.allreduce > 0 {
            hanayo_metrics::counter_add(
                "hanayo_worker_allreduce_total",
                &[("device", dev.as_str())],
                self.allreduce,
            );
        }
        let labels: &[(&'static str, &str)] = &[("device", dev.as_str())];
        hanayo_metrics::gauge_set("hanayo_worker_stash_bytes_peak", labels, peak_stash as f64);
        hanayo_metrics::gauge_set("hanayo_worker_mailbox_parked_peak", labels, peak_parked as f64);
    }
}

/// What a worker hands back when the run finishes.
pub struct WorkerReport {
    /// This worker's rank.
    pub device: DeviceId,
    /// Updated modules (same keys as the config's).
    pub modules: HashMap<u32, Stage>,
    /// Mean loss per iteration (non-empty only on the last-stage holder).
    pub losses: Vec<f32>,
    /// High-water mark of the instrumented live-bytes counter: every stash
    /// insert adds its resident bytes, every backward's consume subtracts
    /// them, and the peak is recorded at each growth. Under
    /// [`Recompute::Full`] only boundary tensors are ever resident, so this
    /// is where checkpointing's memory win becomes *measured* rather than
    /// modelled (the memory-truth suite pins it against the simulator).
    pub peak_stash_bytes: usize,
    /// High-water mark of this device's mailbox parked map — how many
    /// early messages were simultaneously waiting for their receive to be
    /// issued. A deep peak marks a consumer running far behind its
    /// producers (worker imbalance) without needing a full trace.
    pub peak_mailbox_parked: usize,
    /// Measured spans, when the config asked for tracing (empty
    /// otherwise, and best-effort-partial when the worker stopped on an
    /// error). The trainer merges all devices' events into the run's
    /// [`hanayo_trace::Trace`].
    pub events: Vec<TraceEvent>,
    /// The invariant violation that stopped this worker, if any.
    pub error: Option<WorkerError>,
}

/// Interpret the device's action list for `data.len()` iterations.
pub fn run_worker(mut cfg: WorkerConfig<'_>, mut mailbox: Mailbox, fabric: Fabric) -> WorkerReport {
    let device = cfg.device;
    let mut losses = Vec::new();
    let mut peak_stash = 0usize;
    let mut events = Vec::new();
    let mut stats = WorkerStats::default();

    // A panic below the typed-error layer (a shape assert in the math
    // kernels, say) must not poison the trainer's join: catch it here and
    // report it as a root-cause WorkerError naming this device, so the
    // abort still goes out and peers unwind instead of deadlocking.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_action_lists(
            &mut cfg,
            &mut mailbox,
            &fabric,
            &mut losses,
            &mut peak_stash,
            &mut events,
            &mut stats,
        )
    }));
    let error = match outcome {
        Ok(result) => result.err(),
        Err(payload) => {
            Some(WorkerError::Panicked { device, message: panic_message(payload.as_ref()) })
        }
    };
    if let Some(e) = &error {
        // Wake peers blocked on messages or collectives this worker will
        // never complete. The hub is what carries the failure to the other
        // replicas: their workers all reach it, fail there as cascades and
        // broadcast on their own fabric. Cascades re-abort harmlessly.
        fabric.abort();
        if let Some((_, hub)) = cfg.dp {
            hub.abort();
        }
        debug_assert!(e.device() == Some(device));
    }
    stats.flush(device, peak_stash, mailbox.parked_peak());

    WorkerReport {
        device,
        modules: std::mem::take(&mut cfg.modules),
        losses,
        peak_stash_bytes: peak_stash,
        peak_mailbox_parked: mailbox.parked_peak(),
        events,
        error,
    }
}

fn run_action_lists(
    cfg: &mut WorkerConfig<'_>,
    mailbox: &mut Mailbox,
    fabric: &Fabric,
    losses: &mut Vec<f32>,
    peak_stash: &mut usize,
    events: &mut Vec<TraceEvent>,
    stats: &mut WorkerStats,
) -> Result<(), WorkerError> {
    let schedule = cfg.schedule;
    let device = cfg.device;
    let stages = schedule.stage_map.stages;
    let micro_batches = schedule.config.micro_batches;
    let actions = &schedule.lists[device.idx()].actions;
    let mut cur_stash = 0usize;
    let mut stage_ids: Vec<u32> = cfg.modules.keys().copied().collect();
    stage_ids.sort_unstable();
    let mut grads: HashMap<u32, StageGradState> = cfg
        .modules
        .iter()
        .map(|(&s, module)| (s, StageGradState::new(module, micro_batches as usize)))
        .collect();
    let mut scratch = GradScratch::default();

    // Span instrumentation: `tick()` reads the shared-origin clock only
    // when tracing (the untraced path never touches it); `span` records a
    // completed op.
    let tracing = cfg.trace;
    let origin = cfg.origin;
    let tick = || -> f64 {
        if tracing {
            origin.elapsed().as_secs_f64()
        } else {
            0.0
        }
    };
    let dev = device.0;
    let span = |events: &mut Vec<TraceEvent>, kind, mb: Option<u32>, stage: Option<u32>, t0, t1| {
        if tracing {
            events.push(TraceEvent { device: dev, kind, mb, stage, t_start: t0, t_end: t1 });
        }
    };

    // Metrics gate, read once: flipping the registry mid-run must not
    // change what a single run records. Like `tick`, the disabled path
    // takes no clock readings; the wait probe reads the metrics clock
    // only when enabled, and nothing here is ever read back by the run.
    let metrics_on = hanayo_metrics::enabled();
    let dev_label = device.0.to_string();
    let mwait = |t0_ns: u64| {
        if metrics_on {
            hanayo_metrics::observe(
                "hanayo_worker_mailbox_wait_ns",
                &[("device", dev_label.as_str())],
                hanayo_metrics::NANOS_BUCKETS,
                hanayo_metrics::monotonic_nanos().saturating_sub(t0_ns),
            );
        }
    };
    let mnow = || if metrics_on { hanayo_metrics::monotonic_nanos() } else { 0 };

    // The failure plan speaks global device ranks (`replica · P + local`)
    // and global iterations (`iter_base + local`), so injected faults stay
    // well-defined across data-parallel replicas and resumed segments.
    let failure = cfg.failure;
    let rank_base = cfg.dp.map_or(0, |(r, _)| r as u32 * schedule.lists.len() as u32);
    let global_dev = rank_base + device.0;
    let link_dropped = |peer: DeviceId, global_iter: u32| {
        matches!(failure, FailurePlan::DropLink { src, dst, iteration }
            if global_dev == src && rank_base + peer.0 == dst && global_iter >= iteration)
    };

    for (iter, data) in cfg.data.iter().enumerate() {
        let iter = iter as u32;
        let global_iter = cfg.iter_base + iter;
        if let FailurePlan::KillDevice { device: d, iteration } = failure {
            if global_dev == d && global_iter == iteration {
                return Err(WorkerError::Injected { device, iteration: global_iter });
            }
        }
        // In-flight state for this iteration.
        let mut local: HashMap<MsgTag, Tensor> = HashMap::new();
        let mut outbound: HashMap<MsgTag, Tensor> = HashMap::new();
        let mut stash: HashMap<(u32, u32), Stashed> = HashMap::new();
        let mut iter_loss = 0.0f32;

        for action in actions {
            match action {
                Action::Forward { mb, stage } => {
                    let t0 = tick();
                    stats.forward += 1;
                    // Stage 0 reads the caller's input in place; it is copied
                    // only if the stash policy below keeps it.
                    let x = if stage.0 == 0 {
                        Cow::Borrowed(&data.inputs[mb.idx()])
                    } else {
                        let tag = MsgTag { mb: *mb, stage: *stage, payload: Payload::Activation };
                        Cow::Owned(
                            local.remove(&tag).ok_or(WorkerError::MissingInput { device, tag })?,
                        )
                    };
                    let module = cfg
                        .modules
                        .get(&stage.0)
                        .ok_or(WorkerError::MissingModule { device, stage: *stage })?;
                    let (y, st) = module.forward(&x);
                    let entry = match cfg.recompute {
                        Recompute::None => Stashed::Activations(st),
                        // Keep only the boundary; the full stash drops
                        // here and is regenerated at backward time.
                        Recompute::Full => Stashed::Boundary(x.into_owned()),
                    };
                    cur_stash += entry.bytes();
                    *peak_stash = (*peak_stash).max(cur_stash);
                    stash.insert((mb.0, stage.0), entry);
                    if stage.0 + 1 == stages {
                        // Turnaround: loss + gradient, consumed by this
                        // stage's backward under its gradient tag.
                        let (l, dy) = apply_loss(cfg.loss, &y, data, *mb);
                        iter_loss += l;
                        let tag = MsgTag { mb: *mb, stage: *stage, payload: Payload::Gradient };
                        local.insert(tag, dy);
                    } else {
                        let tag = MsgTag {
                            mb: *mb,
                            stage: StageId(stage.0 + 1),
                            payload: Payload::Activation,
                        };
                        route(schedule, device, tag, y, &mut local, &mut outbound);
                    }
                    span(events, TraceKind::Fwd, Some(mb.0), Some(stage.0), t0, tick());
                }
                Action::Backward { mb, stage } => {
                    let t0 = tick();
                    stats.backward += 1;
                    let tag = MsgTag { mb: *mb, stage: *stage, payload: Payload::Gradient };
                    let dy =
                        local.remove(&tag).ok_or(WorkerError::MissingGradient { device, tag })?;
                    let entry = stash
                        .remove(&(mb.0, stage.0))
                        .ok_or(WorkerError::MissingStash { device, mb: *mb, stage: *stage })?;
                    cur_stash -= entry.bytes();
                    let missing = WorkerError::MissingModule { device, stage: *stage };
                    let module = cfg.modules.get(&stage.0).ok_or(missing.clone())?;
                    let state = grads.get_mut(&stage.0).ok_or(missing)?;
                    let mut t_replay = None;
                    let st = match entry {
                        Stashed::Activations(st) => st,
                        // Checkpointed: replay the stage forward from the
                        // boundary tensor. Weights have not changed since
                        // the original forward (updates happen only at the
                        // flush), so the regenerated stash — and therefore
                        // every gradient — is bit-identical.
                        Stashed::Boundary(x) => {
                            let st = module.forward(&x).1;
                            t_replay = Some(tick());
                            st
                        }
                    };
                    let dx = state.backward(module, &st, &dy, mb.idx(), &mut scratch).ok_or(
                        WorkerError::UnexpectedGradient { device, mb: *mb, stage: *stage },
                    )?;
                    if stage.0 > 0 {
                        let tag = MsgTag {
                            mb: *mb,
                            stage: StageId(stage.0 - 1),
                            payload: Payload::Gradient,
                        };
                        route(schedule, device, tag, dx, &mut local, &mut outbound);
                    }
                    // Under checkpointing the replay and the true backward
                    // are separate spans, so calibration can attribute the
                    // extra forward to the right place.
                    let t1 = tick();
                    match t_replay {
                        Some(tr) => {
                            span(events, TraceKind::Recompute, Some(mb.0), Some(stage.0), t0, tr);
                            span(events, TraceKind::Bwd, Some(mb.0), Some(stage.0), tr, t1);
                        }
                        None => span(events, TraceKind::Bwd, Some(mb.0), Some(stage.0), t0, t1),
                    }
                }
                Action::Comm(op) => match op.dir {
                    CommDir::Send => {
                        if link_dropped(op.peer, global_iter) {
                            return Err(WorkerError::LinkDown {
                                device,
                                peer: op.peer,
                                iteration: global_iter,
                            });
                        }
                        let t0 = tick();
                        stats.send += 1;
                        let tensor = outbound
                            .remove(&op.tag)
                            .ok_or(WorkerError::MissingOutbound { device, tag: op.tag })?;
                        fabric.send(op.peer.idx(), Envelope { iter, tag: op.tag, tensor });
                        let (mb, stage) = (op.tag.mb.0, op.tag.stage.0);
                        span(events, TraceKind::Send, Some(mb), Some(stage), t0, tick());
                    }
                    CommDir::Recv => {
                        let t0 = tick();
                        stats.recv += 1;
                        let w0 = mnow();
                        let tensor =
                            mailbox.recv(iter, op.tag).ok_or(WorkerError::Aborted { device })?;
                        mwait(w0);
                        local.insert(op.tag, tensor);
                        let (mb, stage) = (op.tag.mb.0, op.tag.stage.0);
                        span(events, TraceKind::Recv, Some(mb), Some(stage), t0, tick());
                    }
                },
                Action::BatchedComm(ops) => {
                    // Post all sends first (non-blocking), then drain the
                    // receives — the deadlock-free batch_isend_irecv order.
                    for op in ops.iter().filter(|o| o.dir == CommDir::Send) {
                        if link_dropped(op.peer, global_iter) {
                            return Err(WorkerError::LinkDown {
                                device,
                                peer: op.peer,
                                iteration: global_iter,
                            });
                        }
                        let t0 = tick();
                        stats.send += 1;
                        let tensor = outbound
                            .remove(&op.tag)
                            .ok_or(WorkerError::MissingOutbound { device, tag: op.tag })?;
                        fabric.send(op.peer.idx(), Envelope { iter, tag: op.tag, tensor });
                        span(
                            events,
                            TraceKind::Send,
                            Some(op.tag.mb.0),
                            Some(op.tag.stage.0),
                            t0,
                            tick(),
                        );
                    }
                    for op in ops.iter().filter(|o| o.dir == CommDir::Recv) {
                        let t0 = tick();
                        stats.recv += 1;
                        let w0 = mnow();
                        let tensor =
                            mailbox.recv(iter, op.tag).ok_or(WorkerError::Aborted { device })?;
                        mwait(w0);
                        local.insert(op.tag, tensor);
                        span(
                            events,
                            TraceKind::Recv,
                            Some(op.tag.mb.0),
                            Some(op.tag.stage.0),
                            t0,
                            tick(),
                        );
                    }
                }
                Action::OptimizerStep => {
                    for &s in &stage_ids {
                        stats.optim += 1;
                        // The Optim spans cover only the local step work;
                        // the blocking all-reduce rendezvous is its own
                        // (comm-kind) span, so the wait is never
                        // double-counted as busy compute.
                        let t0 = tick();
                        let stage = StageId(s);
                        let module = cfg
                            .modules
                            .get_mut(&s)
                            .ok_or(WorkerError::MissingModule { device, stage })?;
                        let state = grads
                            .get_mut(&s)
                            .filter(|st| st.next == micro_batches as usize)
                            .ok_or(WorkerError::MissingSlotGradient { device, stage })?;
                        let t1 = if let Some((rank, hub)) = cfg.dp {
                            stats.allreduce += 1;
                            let a0 = tick();
                            span(events, TraceKind::Optim, None, Some(s), t0, a0);
                            state.acc = hub
                                .try_allreduce(iter, s, rank, std::mem::take(&mut state.acc))
                                .ok_or(WorkerError::Aborted { device })?;
                            let a1 = tick();
                            span(events, TraceKind::Allreduce, None, Some(s), a0, a1);
                            a1
                        } else {
                            t0
                        };
                        module.sgd_step(&state.acc, cfg.lr);
                        state.reset(module);
                        span(events, TraceKind::Optim, None, Some(s), t1, tick());
                    }
                }
            }
        }

        if !stash.is_empty() {
            return Err(WorkerError::StashNotDrained { device, remaining: stash.len() });
        }
        if !outbound.is_empty() {
            return Err(WorkerError::UnsentOutbound { device, remaining: outbound.len() });
        }
        if holds_last_stage(schedule, device) {
            losses.push(iter_loss / micro_batches as f32);
        }
        if metrics_on {
            // Heartbeat for fault detection (age = scrape time minus this
            // timestamp) and the live-bytes level at the iteration
            // boundary (nonzero only when a schedule leaks stash).
            let labels: &[(&'static str, &str)] = &[("device", dev_label.as_str())];
            hanayo_metrics::gauge_set(
                "hanayo_worker_heartbeat_ts_ns",
                labels,
                hanayo_metrics::now_nanos() as f64,
            );
            hanayo_metrics::gauge_set("hanayo_worker_stash_bytes_live", labels, cur_stash as f64);
        }
    }
    Ok(())
}

/// Render a caught panic payload (strings are the overwhelmingly common
/// case; anything else is summarised).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deliver a produced tensor: keep it local when the consumer stage lives
/// on this device, otherwise park it for the upcoming `Send` action.
fn route(
    schedule: &Schedule,
    device: DeviceId,
    tag: MsgTag,
    tensor: Tensor,
    local: &mut HashMap<MsgTag, Tensor>,
    outbound: &mut HashMap<MsgTag, Tensor>,
) {
    if schedule.stage_map.device_of(tag.mb, tag.stage) == device {
        local.insert(tag, tensor);
    } else {
        outbound.insert(tag, tensor);
    }
}

fn apply_loss(loss: &LossKind, y: &Tensor, data: &IterationData, mb: MicroBatch) -> (f32, Tensor) {
    match loss {
        LossKind::Mse => mse(y, &data.targets[mb.idx()]),
        LossKind::CrossEntropy { labels } => softmax_cross_entropy(y, &labels[mb.idx()]),
    }
}

fn holds_last_stage(schedule: &Schedule, device: DeviceId) -> bool {
    let last = StageId(schedule.stage_map.stages - 1);
    schedule.stage_map.device_of(MicroBatch(0), last) == device
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_kinds_apply() {
        let data = IterationData {
            inputs: vec![Tensor::zeros(1, 2)],
            targets: vec![Tensor::from_vec(1, 2, vec![1.0, 0.0])],
        };
        let y = Tensor::from_vec(1, 2, vec![1.0, 0.0]);
        let (l, _) = apply_loss(&LossKind::Mse, &y, &data, MicroBatch(0));
        assert_eq!(l, 0.0);
        let (l2, _) =
            apply_loss(&LossKind::CrossEntropy { labels: vec![vec![0]] }, &y, &data, MicroBatch(0));
        assert!(l2 > 0.0);
    }

    #[test]
    fn gradients_add_in_micro_batch_order_whatever_the_arrival_order() {
        use hanayo_tensor::rng::{seeded, uniform};
        let stage = Stage::mlp(&mut seeded(3), 6, 1);
        let dy = uniform(&mut seeded(20), 2, 6, 0.5);
        let stashes: Vec<StageStash> =
            (0..3).map(|i| stage.forward(&uniform(&mut seeded(10 + i), 2, 6, 0.5)).1).collect();
        let mut want = stage.zero_grads();
        for st in &stashes {
            want.accumulate(&stage.backward(st, &dy).1);
        }
        let bits = |g: &StageGrads| g.flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let mut state = StageGradState::new(&stage, 3);
        let mut scratch = GradScratch::default();
        let mut run = |state: &mut StageGradState, mb: usize| {
            state.backward(&stage, &stashes[mb % 3], &dy, mb, &mut scratch).is_some()
        };
        assert!(run(&mut state, 2), "ahead of its turn: parked");
        assert!(!run(&mut state, 2), "parked twice");
        assert!(run(&mut state, 0));
        assert!(run(&mut state, 1), "drains the parked micro-batch 2");
        assert_eq!(state.next, 3);
        assert_eq!(bits(&state.acc), bits(&want));
        assert!(!run(&mut state, 0), "already accumulated");
        assert!(!run(&mut state, 3), "beyond the iteration");

        state.reset(&stage);
        assert_eq!(state.next, 0);
        assert!(state.acc.flat().iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    fn worker_error_display_names_device_and_op() {
        let tag = MsgTag { mb: MicroBatch(3), stage: StageId(1), payload: Payload::Activation };
        let e = WorkerError::MissingInput { device: DeviceId(2), tag };
        assert_eq!(e.to_string(), "P2: forward found no input act:mb3@S1");
        assert_eq!(e.device(), Some(DeviceId(2)));
        assert!(!e.is_cascade());
        assert!(WorkerError::Aborted { device: DeviceId(0) }.is_cascade());
    }
}
