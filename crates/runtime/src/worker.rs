//! The program interpreter: one instance runs per device thread.
//!
//! A worker executes its device's ops of the schedule's
//! [`hanayo_core::program::Program`], the same lowering the simulator
//! executes. For the whole call it holds dense per-device tables, indexed
//! by the program's message keys rather than hashed: one tensor slot per
//! key (a key is produced and consumed here, produced here and sent, or
//! received here and consumed — never two of those on one device), one
//! activation stash per `(micro-batch, stage)`, and one entry per local
//! stage with its module, its gradient accumulator and each Linear's `Wᵀ`
//! (weights are frozen between flushes, so one transpose serves every
//! micro-batch), and a [`FreeList`] that every activation, product and
//! gradient buffer of the call comes from and returns to — a sent tensor
//! joins the receiver's list — so only the first iteration allocates
//! them. A backward adds its gradients straight into its stage's
//! accumulator in micro-batch order, the key to bit-exact equivalence
//! across schedules: the sum is `((0 + g₀) + g₁) + …` whatever the
//! schedule. Every generated scheme visits a stage's backwards in that
//! order; a hand-built or searched table that does not has its early
//! gradients parked and added as soon as their turn comes. The flush
//! ([`Op::Step`]) then only applies the accumulator — after an optional
//! exchange with data-parallel peers — with SGD, and rebuilds the
//! accumulator and `Wᵀ` in place for the next iteration.
//!
//! Invariant violations (a forward with no input, a backward with no
//! gradient or stash, a slot or stash still occupied at the iteration
//! boundary — the signature of a corrupt schedule) do **not** panic the
//! thread: they become a typed [`WorkerError`] carried home in the
//! `WorkerReport`, an abort packet goes out to every peer mailbox
//! (`Fabric::abort`) so blocked peers unwind instead of deadlocking, and
//! the trainer reports exactly which device and operation failed.

use crate::collective::AllreduceHub;
use crate::mailbox::{Envelope, Fabric, Mailbox};
use hanayo_ckpt::FailurePlan;
use hanayo_core::action::MsgTag;
use hanayo_core::ids::{DeviceId, MicroBatch, StageId};
use hanayo_core::program::{Op, Program, ProgramError, Stall};
use hanayo_model::Recompute;
use hanayo_tensor::loss::{mse, softmax_cross_entropy};
use hanayo_tensor::{
    FreeList, GradScratch, Stage, StageGrads, StageStash, Tensor, TransposedWeights,
};
use hanayo_trace::{TraceEvent, TraceKind};
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
    pub(crate) fn fingerprint_token(&self) -> String {
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

/// What a worker keeps per local stage for a whole call: the module, its
/// gradient accumulator and `Wᵀ`, and the gradients of backwards that ran
/// ahead of their turn.
struct LocalStage {
    stage: u32,
    module: Stage,
    acc: StageGrads,
    wt: TransposedWeights,
    /// The micro-batch whose gradient is added next.
    next: usize,
    /// Gradients of backwards that ran ahead of `next`, by micro-batch
    /// (never filled by a generated scheme).
    parked: Vec<Option<StageGrads>>,
}

impl LocalStage {
    fn new(stage: u32, module: Stage, micro_batches: usize) -> LocalStage {
        let (acc, wt) = (module.zero_grads(), module.transposed_weights());
        LocalStage { stage, module, acc, wt, next: 0, parked: vec![None; micro_batches] }
    }

    /// Run `mb`'s backward, keeping the accumulator's sum in micro-batch
    /// order: the backward for `next` adds straight in (then drains any
    /// parked successors); one further ahead is summed alone and parked.
    /// `None` when `mb` has no place in this flush.
    fn backward(
        &mut self,
        st: StageStash,
        dy: Tensor,
        mb: usize,
        scratch: &mut GradScratch,
        list: &mut FreeList,
    ) -> Option<Tensor> {
        if mb == self.next && mb < self.parked.len() {
            let dx = self.module.backward_into(st, dy, &self.wt, scratch, &mut self.acc, list);
            self.next += 1;
            while let Some(g) = self.parked.get_mut(self.next).and_then(Option::take) {
                self.acc.accumulate(&g);
                self.next += 1;
            }
            return Some(dx);
        }
        let slot = self.parked.get_mut(mb).filter(|s| mb > self.next && s.is_none())?;
        let mut g = self.module.zero_grads();
        let dx = self.module.backward_into(st, dy, &self.wt, scratch, &mut g, list);
        *slot = Some(g);
        Some(dx)
    }

    /// The step: apply the accumulator with SGD, then zero it and re-lay
    /// out `Wᵀ` from the updated weights, both in place.
    fn apply(&mut self, lr: f32) {
        self.module.sgd_step(&self.acc, lr);
        self.acc.zero();
        self.wt.refresh(&self.module);
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
    /// A send found nothing in its message's slot.
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
    /// An activation stash survived the iteration (its backward never
    /// ran). The first one in `(micro-batch, stage)` order is named.
    StashNotDrained {
        /// Failing device.
        device: DeviceId,
        /// Micro-batch of the leftover stash.
        mb: MicroBatch,
        /// Stage of the leftover stash.
        stage: StageId,
    },
    /// A message slot was still occupied at the iteration boundary: a
    /// produced tensor never sent, or a received or locally produced one
    /// nothing consumed. The first one in key order is named.
    SlotNotDrained {
        /// Failing device.
        device: DeviceId,
        /// The leftover message.
        tag: MsgTag,
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
    /// The OS refused a thread for this device (or, named as `P0`, for a
    /// data-parallel replica). Every thread of a call is secured before
    /// any device starts, so no device of the call ran.
    ThreadStart {
        /// The device whose thread could not be started.
        device: DeviceId,
        /// The OS error.
        message: String,
    },
    /// The schedule does not lower to a [`Program`]. Refused before any
    /// thread starts.
    Program(ProgramError),
    /// The schedule's devices would wait on each other forever: the
    /// [`Stall`] of its [`Program::replay`], as the analyzer and the
    /// simulator name it. Refused before any checkpoint or thread starts.
    Deadlock(Stall),
    /// A data-parallel run was given no shard at all. Refused before any
    /// thread starts.
    NoShards,
    /// The schedule trains more than one weight replica (native Chimera).
    /// The runtime trains one; the wave transformation turns Chimera into
    /// such a schedule, as the paper does. Refused before any thread
    /// starts.
    ReplicatedSchedule,
    /// The run holds a different number of stage modules than the
    /// schedule has stages. Refused before any thread starts.
    StageCount {
        /// Stage modules supplied.
        modules: usize,
        /// Stages in the schedule.
        stages: usize,
    },
    /// An iteration lacks one input and one target per micro-batch.
    /// Refused before any thread starts; a data-parallel run names the
    /// shard's replica in [`crate::TrainError::replica`].
    IterationShape {
        /// Index of the iteration in its shard.
        iteration: usize,
        /// Inputs it holds.
        inputs: usize,
        /// Targets it holds.
        targets: usize,
        /// Micro-batches per iteration in the schedule.
        micro_batches: usize,
    },
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
            | WorkerError::SlotNotDrained { device, .. }
            | WorkerError::Aborted { device }
            | WorkerError::Injected { device, .. }
            | WorkerError::LinkDown { device, .. }
            | WorkerError::Panicked { device, .. }
            | WorkerError::ThreadStart { device, .. } => Some(device),
            WorkerError::Program(_)
            | WorkerError::Deadlock(_)
            | WorkerError::NoShards
            | WorkerError::ReplicatedSchedule
            | WorkerError::StageCount { .. }
            | WorkerError::IterationShape { .. }
            | WorkerError::ShardLength { .. } => None,
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
            WorkerError::StashNotDrained { device, mb, stage } => {
                write!(f, "{device}: stash of {mb} {stage} never consumed")
            }
            WorkerError::SlotNotDrained { device, tag } => {
                write!(f, "{device}: message {tag} never sent or consumed")
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
            WorkerError::ThreadStart { device, message } => {
                write!(f, "{device}: could not start a thread: {message}")
            }
            WorkerError::Program(e) => write!(f, "the schedule does not lower: {e}"),
            WorkerError::Deadlock(stall) => write!(f, "the schedule deadlocks: {stall}"),
            WorkerError::NoShards => write!(f, "a data-parallel run needs at least one shard"),
            WorkerError::ReplicatedSchedule => write!(
                f,
                "the threaded runtime rejects replicated (chimera) schedules; use the wave \
                 transformation"
            ),
            WorkerError::StageCount { modules, stages } => {
                write!(f, "{modules} stage module(s) for a {stages}-stage schedule")
            }
            WorkerError::IterationShape { iteration, inputs, targets, micro_batches } => write!(
                f,
                "iteration {iteration} holds {inputs} input(s) and {targets} target(s) for \
                 {micro_batches} micro-batches"
            ),
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
pub(crate) struct WorkerConfig<'a> {
    /// This worker's rank.
    pub device: DeviceId,
    /// The lowered schedule; the worker runs its own device's ops.
    pub program: &'a Program,
    /// Modules for the stages this device hosts, as `(global stage id,
    /// module)` in ascending stage order.
    pub modules: Vec<(u32, Stage)>,
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
pub(crate) struct WorkerReport {
    /// This worker's rank.
    pub device: DeviceId,
    /// Updated modules, in the config's order.
    pub modules: Vec<(u32, Stage)>,
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

/// Aborts the run's fabric and hub if the worker unwinds past its own
/// catch (a panic while assembling its report), so peers blocked on it
/// unwind too instead of waiting for a device that is gone.
struct AbortOnUnwind<'a> {
    fabric: &'a Fabric,
    hub: Option<&'a AllreduceHub>,
}

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.fabric.abort();
            if let Some(hub) = self.hub {
                hub.abort();
            }
        }
    }
}

/// Run the device's ops of the program for `data.len()` iterations.
pub(crate) fn run_worker(
    mut cfg: WorkerConfig<'_>,
    mut mailbox: Mailbox,
    fabric: Fabric,
) -> WorkerReport {
    let _abort = AbortOnUnwind { fabric: &fabric, hub: cfg.dp.map(|(_, hub)| hub) };
    let device = cfg.device;
    let (b, s) = (cfg.program.micro_batches() as usize, cfg.program.stages() as usize);
    let mut local_of = vec![None; s];
    let mut locals = Vec::with_capacity(cfg.modules.len());
    for (i, (stage, module)) in std::mem::take(&mut cfg.modules).into_iter().enumerate() {
        local_of[stage as usize] = Some(i);
        locals.push(LocalStage::new(stage, module, b));
    }
    let mut w = Worker {
        cfg: &cfg,
        mailbox: &mut mailbox,
        fabric: &fabric,
        locals,
        local_of,
        slots: (0..cfg.program.keys()).map(|_| None).collect(),
        stash: (0..b * s).map(|_| None).collect(),
        scratch: GradScratch::default(),
        list: FreeList::default(),
        cur_stash: 0,
        peak_stash: 0,
        losses: Vec::with_capacity(cfg.data.len()),
        events: Vec::new(),
        stats: WorkerStats::default(),
        metrics_on: hanayo_metrics::enabled(),
        dev_label: device.0.to_string(),
        rank_base: cfg.dp.map_or(0, |(r, _)| r as u32 * cfg.program.ops().len() as u32),
    };

    // A panic below the typed-error layer (a shape assert in the math
    // kernels, say) must not poison the trainer's join: catch it here and
    // report it as a root-cause WorkerError naming this device, so the
    // abort still goes out and peers unwind instead of deadlocking.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run()));
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
    let parked_peak = w.mailbox.parked_peak();
    w.stats.flush(device, w.peak_stash, parked_peak);

    WorkerReport {
        device,
        modules: w.locals.into_iter().map(|l| (l.stage, l.module)).collect(),
        losses: w.losses,
        peak_stash_bytes: w.peak_stash,
        peak_mailbox_parked: parked_peak,
        events: w.events,
        error,
    }
}

/// A worker's state for one call. Every table is dense, allocated once,
/// and indexed by message key, `(micro-batch, stage)` or stage.
struct Worker<'w, 'a> {
    cfg: &'w WorkerConfig<'a>,
    mailbox: &'w mut Mailbox,
    fabric: &'w Fabric,
    /// The stages this device hosts, in ascending stage order;
    /// `local_of[stage]` is a stage's index here.
    locals: Vec<LocalStage>,
    local_of: Vec<Option<usize>>,
    /// One tensor per message key. A key is produced and consumed here,
    /// produced here and sent, or received here and consumed — never two
    /// of those on one device — so one table serves all three.
    slots: Vec<Option<Tensor>>,
    /// One activation stash per `(mb, stage)`, at `mb · S + stage`.
    stash: Vec<Option<Stashed>>,
    scratch: GradScratch,
    /// Every activation, product and gradient buffer this device uses
    /// comes from here and returns here (or, sent, to the receiver's), so
    /// only the first iteration of a call allocates them.
    list: FreeList,
    cur_stash: usize,
    peak_stash: usize,
    losses: Vec<f32>,
    events: Vec<TraceEvent>,
    stats: WorkerStats,
    /// Metrics gate, read once: flipping the registry mid-run must not
    /// change what a single run records. Like the span clock, the
    /// disabled path takes no clock readings.
    metrics_on: bool,
    dev_label: String,
    /// The failure plan speaks global device ranks (`replica · P + local`)
    /// and global iterations (`iter_base + local`), so injected faults stay
    /// well-defined across data-parallel replicas and resumed segments.
    rank_base: u32,
}

impl WorkerConfig<'_> {
    /// The shared-origin span clock, read only when tracing (the untraced
    /// path takes no clock readings at all).
    fn now(&self) -> f64 {
        if self.trace {
            self.origin.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }
}

impl Worker<'_, '_> {
    fn span(&mut self, kind: TraceKind, mb: Option<u32>, stage: Option<u32>, t0: f64, t1: f64) {
        if self.cfg.trace {
            let device = self.cfg.device.0;
            self.events.push(TraceEvent { device, kind, mb, stage, t_start: t0, t_end: t1 });
        }
    }

    fn run(&mut self) -> Result<(), WorkerError> {
        let (cfg, device) = (self.cfg, self.cfg.device);
        let program = cfg.program;
        let holds_last = self.local_of[program.stages() as usize - 1].is_some();
        for (iter, data) in cfg.data.iter().enumerate() {
            let iter = iter as u32;
            if let FailurePlan::KillDevice { device: d, iteration } = cfg.failure {
                if self.rank_base + device.0 == d && cfg.iter_base + iter == iteration {
                    return Err(WorkerError::Injected { device, iteration });
                }
            }
            let mut iter_loss = 0.0f32;
            for op in &program.ops()[device.idx()] {
                match *op {
                    Op::Compute { mb, stage, backward: false } => {
                        iter_loss += self.forward(data, mb, stage)?;
                    }
                    Op::Compute { mb, stage, backward: true } => self.backward(mb, stage)?,
                    Op::Step => self.step(iter)?,
                    Op::Send { .. } | Op::Recv { .. } | Op::Batch { .. } => {
                        // Post all sends first (non-blocking), then drain the
                        // receives — the deadlock-free batch_isend_irecv order.
                        let members = program.members_of(op);
                        for member in members {
                            if let Op::Send { peer, key } = *member {
                                self.send(peer, key, iter)?;
                            }
                        }
                        for key in members.iter().filter_map(Op::recv_key) {
                            self.recv(key, iter)?;
                        }
                    }
                }
            }
            // The iteration boundary: every stash consumed, every slot empty.
            if let Some(at) = self.stash.iter().position(Option::is_some) {
                let s = program.stages() as usize;
                let (mb, stage) = (MicroBatch((at / s) as u32), StageId((at % s) as u32));
                return Err(WorkerError::StashNotDrained { device, mb, stage });
            }
            if let Some(key) = self.slots.iter().position(Option::is_some) {
                return Err(WorkerError::SlotNotDrained { device, tag: program.tag(key as u32) });
            }
            if holds_last {
                self.losses.push(iter_loss / program.micro_batches() as f32);
            }
            if iter == 0 {
                // Every iteration records the same spans: size the log once.
                self.events.reserve(self.events.len() * (cfg.data.len() - 1));
            }
            if self.metrics_on {
                // Heartbeat for fault detection (age = scrape time minus this
                // timestamp) and the live-bytes level at the iteration
                // boundary.
                let labels: &[(&'static str, &str)] = &[("device", self.dev_label.as_str())];
                let now = hanayo_metrics::now_nanos() as f64;
                hanayo_metrics::gauge_set("hanayo_worker_heartbeat_ts_ns", labels, now);
                let live = self.cur_stash as f64;
                hanayo_metrics::gauge_set("hanayo_worker_stash_bytes_live", labels, live);
            }
        }
        Ok(())
    }

    /// Run `mb`'s forward on `stage`, stash what the policy keeps, and put
    /// the output in its slot. Returns the loss the last stage adds.
    fn forward(&mut self, data: &IterationData, mb: u32, stage: u32) -> Result<f32, WorkerError> {
        let (device, program) = (self.cfg.device, self.cfg.program);
        let t0 = self.cfg.now();
        self.stats.forward += 1;
        let (input, output) = program.dataflow(mb, stage, false);
        // Stage 0 reads the caller's input, copied into a listed buffer the
        // forward can own.
        let x = if stage == 0 {
            self.list.copy_of(&data.inputs[mb as usize])
        } else {
            let missing = || WorkerError::MissingInput { device, tag: program.tag(input) };
            self.slots[input as usize].take().ok_or_else(missing)?
        };
        let missing = WorkerError::MissingModule { device, stage: StageId(stage) };
        let module = &self.locals[self.local_of[stage as usize].ok_or(missing)?].module;
        let (y, entry) = match self.cfg.recompute {
            Recompute::None => {
                let (y, st) = module.forward_with(x, &mut self.list);
                (y, Stashed::Activations(st))
            }
            // Keep only the boundary; the full stash goes back to the list
            // here and is regenerated at backward time.
            Recompute::Full => {
                let boundary = self.list.copy_of(&x);
                let (y, st) = module.forward_with(x, &mut self.list);
                self.list.recycle_stash(st);
                (y, Stashed::Boundary(boundary))
            }
        };
        self.cur_stash += entry.bytes();
        self.peak_stash = self.peak_stash.max(self.cur_stash);
        self.stash[(mb * program.stages() + stage) as usize] = Some(entry);
        // The last stage turns around: loss and gradient, consumed by its
        // own backward.
        let (loss, y) = if stage + 1 == program.stages() {
            apply_loss(self.cfg.loss, y, data, MicroBatch(mb))
        } else {
            (0.0, y)
        };
        match output {
            Some(out) => self.slots[out as usize] = Some(y),
            None => self.list.recycle(y),
        }
        self.span(TraceKind::Fwd, Some(mb), Some(stage), t0, self.cfg.now());
        Ok(loss)
    }

    /// Run `mb`'s backward on `stage` into its gradient accumulator and put
    /// the input gradient in its slot.
    fn backward(&mut self, mb: u32, stage: u32) -> Result<(), WorkerError> {
        let (device, program) = (self.cfg.device, self.cfg.program);
        let (mb_id, stage_id) = (MicroBatch(mb), StageId(stage));
        let t0 = self.cfg.now();
        self.stats.backward += 1;
        let (input, output) = program.dataflow(mb, stage, true);
        let missing = || WorkerError::MissingGradient { device, tag: program.tag(input) };
        let dy = self.slots[input as usize].take().ok_or_else(missing)?;
        let entry = self.stash[(mb * program.stages() + stage) as usize]
            .take()
            .ok_or(WorkerError::MissingStash { device, mb: mb_id, stage: stage_id })?;
        self.cur_stash -= entry.bytes();
        let missing = WorkerError::MissingModule { device, stage: stage_id };
        let local = &mut self.locals[self.local_of[stage as usize].ok_or(missing)?];
        let (st, t_replay) = match entry {
            Stashed::Activations(st) => (st, None),
            // Checkpointed: replay the stage forward from the boundary
            // tensor. Weights have not changed since the original forward
            // (updates happen only at the flush), so the regenerated stash
            // — and therefore every gradient — is bit-identical.
            Stashed::Boundary(x) => {
                let (y, st) = local.module.forward_with(x, &mut self.list);
                self.list.recycle(y);
                (st, Some(self.cfg.now()))
            }
        };
        let dx = local
            .backward(st, dy, mb as usize, &mut self.scratch, &mut self.list)
            .ok_or(WorkerError::UnexpectedGradient { device, mb: mb_id, stage: stage_id })?;
        match output {
            Some(out) => self.slots[out as usize] = Some(dx),
            None => self.list.recycle(dx),
        }
        // Under checkpointing the replay and the true backward are
        // separate spans, so calibration can attribute the extra forward
        // to the right place.
        let (t1, mb, stage) = (self.cfg.now(), Some(mb), Some(stage));
        match t_replay {
            Some(tr) => {
                self.span(TraceKind::Recompute, mb, stage, t0, tr);
                self.span(TraceKind::Bwd, mb, stage, tr, t1);
            }
            None => self.span(TraceKind::Bwd, mb, stage, t0, t1),
        }
        Ok(())
    }

    /// Send the tensor in `key`'s slot to `peer`: a single `Send` and a
    /// batch member alike.
    fn send(&mut self, peer: u32, key: u32, iter: u32) -> Result<(), WorkerError> {
        let (device, program) = (self.cfg.device, self.cfg.program);
        let iteration = self.cfg.iter_base + iter;
        if let FailurePlan::DropLink { src, dst, iteration: from } = self.cfg.failure {
            let base = self.rank_base;
            if base + device.0 == src && base + peer == dst && iteration >= from {
                return Err(WorkerError::LinkDown { device, peer: DeviceId(peer), iteration });
            }
        }
        let t0 = self.cfg.now();
        self.stats.send += 1;
        let missing = || WorkerError::MissingOutbound { device, tag: program.tag(key) };
        let tensor = self.slots[key as usize].take().ok_or_else(missing)?;
        self.fabric.send(peer as usize, Envelope { iter, key, tensor });
        self.comm_span(TraceKind::Send, key, t0);
        Ok(())
    }

    /// Receive message `key` into its slot: a single `Recv` and a batch
    /// member alike.
    fn recv(&mut self, key: u32, iter: u32) -> Result<(), WorkerError> {
        let t0 = self.cfg.now();
        self.stats.recv += 1;
        let w0 = if self.metrics_on { hanayo_metrics::monotonic_nanos() } else { 0 };
        let aborted = WorkerError::Aborted { device: self.cfg.device };
        self.slots[key as usize] = Some(self.mailbox.recv(iter, key).ok_or(aborted)?);
        if self.metrics_on {
            hanayo_metrics::observe(
                "hanayo_worker_mailbox_wait_ns",
                &[("device", self.dev_label.as_str())],
                hanayo_metrics::NANOS_BUCKETS,
                hanayo_metrics::monotonic_nanos().saturating_sub(w0),
            );
        }
        self.comm_span(TraceKind::Recv, key, t0);
        Ok(())
    }

    fn comm_span(&mut self, kind: TraceKind, key: u32, t0: f64) {
        if self.cfg.trace {
            let tag = self.cfg.program.tag(key);
            self.span(kind, Some(tag.mb.0), Some(tag.stage.0), t0, self.cfg.now());
        }
    }

    /// The flush: per local stage, the optional all-reduce, then SGD, then
    /// the accumulator and `Wᵀ` rebuilt in place.
    fn step(&mut self, iter: u32) -> Result<(), WorkerError> {
        let device = self.cfg.device;
        for i in 0..self.locals.len() {
            let (s, next) = (self.locals[i].stage, self.locals[i].next);
            self.stats.optim += 1;
            // The Optim spans cover only the local step work; the blocking
            // all-reduce rendezvous is its own (comm-kind) span, so the wait
            // is never double-counted as busy compute.
            let t0 = self.cfg.now();
            if next != self.cfg.program.micro_batches() as usize {
                return Err(WorkerError::MissingSlotGradient { device, stage: StageId(s) });
            }
            let t1 = if let Some((rank, hub)) = self.cfg.dp {
                self.stats.allreduce += 1;
                let a0 = self.cfg.now();
                self.span(TraceKind::Optim, None, Some(s), t0, a0);
                let acc = std::mem::take(&mut self.locals[i].acc);
                let acc =
                    hub.try_allreduce(iter, s, rank, acc).ok_or(WorkerError::Aborted { device })?;
                self.locals[i].acc = acc;
                let a1 = self.cfg.now();
                self.span(TraceKind::Allreduce, None, Some(s), a0, a1);
                a1
            } else {
                t0
            };
            self.locals[i].apply(self.cfg.lr);
            self.span(TraceKind::Optim, None, Some(s), t1, self.cfg.now());
        }
        Ok(())
    }
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

/// The last stage's loss on its output `y`, whose buffer the gradient
/// takes over.
fn apply_loss(loss: &LossKind, y: Tensor, data: &IterationData, mb: MicroBatch) -> (f32, Tensor) {
    match loss {
        LossKind::Mse => mse(y, &data.targets[mb.idx()]),
        LossKind::CrossEntropy { labels } => softmax_cross_entropy(y, &labels[mb.idx()]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_core::action::{Action, ActionList, CommDir, CommOp, Payload};

    #[test]
    fn loss_kinds_apply() {
        let data = IterationData {
            inputs: vec![Tensor::zeros(1, 2)],
            targets: vec![Tensor::from_vec(1, 2, vec![1.0, 0.0])],
        };
        let y = Tensor::from_vec(1, 2, vec![1.0, 0.0]);
        let (l, _) = apply_loss(&LossKind::Mse, y.clone(), &data, MicroBatch(0));
        assert_eq!(l, 0.0);
        let (l2, _) =
            apply_loss(&LossKind::CrossEntropy { labels: vec![vec![0]] }, y, &data, MicroBatch(0));
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

        let mut state = LocalStage::new(0, stage.clone(), 3);
        let (mut scratch, mut list) = (GradScratch::default(), FreeList::default());
        let mut run = |state: &mut LocalStage, mb: usize| {
            let (st, dy) = (stashes[mb % 3].clone(), dy.clone());
            state.backward(st, dy, mb, &mut scratch, &mut list).is_some()
        };
        assert!(run(&mut state, 2), "ahead of its turn: parked");
        assert!(!run(&mut state, 2), "parked twice");
        assert!(run(&mut state, 0));
        assert!(run(&mut state, 1), "drains the parked micro-batch 2");
        assert_eq!(state.next, 3);
        assert_eq!(bits(&state.acc), bits(&want));
        assert!(!run(&mut state, 0), "already accumulated");
        assert!(!run(&mut state, 3), "beyond the iteration");

        state.apply(0.1);
        let mut stepped = stage.clone();
        stepped.sgd_step(&want, 0.1);
        assert_eq!(state.module, stepped, "the step applies the accumulator");
        assert_eq!(state.next, 0);
        assert!(state.acc.flat().iter().all(|v| v.to_bits() == 0));
    }

    /// Device 1 of DAPPLE at `P = 2`, `B = 1`, run alone for one
    /// iteration with the action lists edited by `edit` (both ends of a
    /// message, so the schedule still lowers) and the messages `early`
    /// already waiting in its mailbox. Its sends land in device 0's
    /// mailbox, which nothing reads.
    fn run_device_1(edit: impl FnOnce(&mut [ActionList]), early: &[MsgTag]) -> Option<WorkerError> {
        use hanayo_core::config::{PipelineConfig, Scheme};
        use hanayo_core::schedule::build_schedule;
        use hanayo_tensor::rng::seeded;
        let mut schedule =
            build_schedule(&PipelineConfig::new(2, 1, Scheme::Dapple).unwrap()).unwrap();
        edit(&mut schedule.lists);
        let program = Program::lower(&schedule).unwrap();
        let data = [IterationData {
            inputs: vec![Tensor::zeros(2, 4)],
            targets: vec![Tensor::zeros(2, 4)],
        }];
        let (fab, mut boxes) = crate::mailbox::fabric(2, std::time::Duration::ZERO, program.keys());
        for &tag in early {
            let key = program.key(tag).unwrap();
            fab.send(1, Envelope { iter: 0, key, tensor: Tensor::zeros(2, 4) });
        }
        let cfg = WorkerConfig {
            device: DeviceId(1),
            program: &program,
            modules: vec![(1, Stage::mlp(&mut seeded(3), 4, 1))],
            data: &data,
            loss: &LossKind::Mse,
            lr: 0.1,
            dp: None,
            recompute: Recompute::None,
            failure: FailurePlan::None,
            iter_base: 0,
            trace: false,
            origin: Instant::now(),
        };
        run_worker(cfg, boxes.remove(1), fab).error
    }

    /// Remove every send and receive of `tag`, batched or not.
    fn drop_message(lists: &mut [ActionList], tag: MsgTag) {
        for list in lists {
            for a in &mut list.actions {
                if let Action::BatchedComm(ops) = a {
                    ops.retain(|op| op.tag != tag);
                }
            }
            list.actions.retain(|a| !matches!(a, Action::Comm(op) if op.tag == tag));
        }
    }

    fn tag(mb: u32, stage: u32, payload: Payload) -> MsgTag {
        MsgTag { mb: MicroBatch(mb), stage: StageId(stage), payload }
    }

    #[test]
    fn occupied_slots_and_stashes_at_the_iteration_boundary_are_typed_errors() {
        let input = tag(0, 1, Payload::Activation);
        assert_eq!(run_device_1(|_| {}, &[input]), None, "the unedited list runs clean");

        // A produced gradient never sent (nor received on device 0).
        let gradient = tag(0, 0, Payload::Gradient);
        let unsent = |lists: &mut [ActionList]| drop_message(lists, gradient);
        assert_eq!(
            run_device_1(unsent, &[input]),
            Some(WorkerError::SlotNotDrained { device: DeviceId(1), tag: gradient })
        );

        // A received tensor nothing consumes (device 0 sends it last).
        let stray = tag(0, 0, Payload::Activation);
        let extra_recv = |lists: &mut [ActionList]| {
            for (device, dir, peer) in [(0, CommDir::Send, 1), (1, CommDir::Recv, 0)] {
                let op = CommOp { dir, peer: DeviceId(peer), tag: stray };
                let list = &mut lists[device].actions;
                list.insert(list.len() - 1, Action::Comm(op));
            }
        };
        let err = run_device_1(extra_recv, &[input, stray]).unwrap();
        assert_eq!(err, WorkerError::SlotNotDrained { device: DeviceId(1), tag: stray });
        assert_eq!(err.to_string(), "P1: message act:mb0@S0 never sent or consumed");

        // A forward whose backward never runs (and no flush to trip
        // first); device 0 no longer waits for its gradient.
        let no_backward = |lists: &mut [ActionList]| {
            lists[1].actions.truncate(2);
            drop_message(lists, gradient);
        };
        let err = run_device_1(no_backward, &[input]).unwrap();
        assert_eq!(
            err,
            WorkerError::StashNotDrained {
                device: DeviceId(1),
                mb: MicroBatch(0),
                stage: StageId(1)
            }
        );
        assert_eq!(err.to_string(), "P1: stash of mb0 S1 never consumed");
    }

    #[test]
    fn worker_error_display_names_device_and_op() {
        let tag = tag(3, 1, Payload::Activation);
        let e = WorkerError::MissingInput { device: DeviceId(2), tag };
        assert_eq!(e.to_string(), "P2: forward found no input act:mb3@S1");
        assert_eq!(e.device(), Some(DeviceId(2)));
        assert!(!e.is_cascade());
        assert!(WorkerError::Aborted { device: DeviceId(0) }.is_cascade());
    }
}
