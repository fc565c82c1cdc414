//! # hanayo-runtime
//!
//! The real execution engine: the paper's §4 runtime, with OS threads as
//! devices and channels as the interconnect.
//!
//! Every worker interprets the *same* frozen action lists that the
//! discrete-event simulator times — but here the instructions move actual
//! `hanayo_tensor` tensors through actual forward/backward math. This is
//! the correctness half of the reproduction: for any synchronous schedule,
//! one training iteration must produce gradients and updated weights that
//! are **bit-identical** to sequential execution of the same model
//! (each stage's gradients are summed in micro-batch order whatever the
//! schedule, so floating-point non-associativity cannot leak schedule
//! order into the result).
//!
//! Pieces:
//!
//! * [`mailbox`] — tag-matching P2P fabric over crossbeam channels
//!   (asynchronous sends, blocking receives: NCCL's semantics). A blocked
//!   receive spins briefly before it parks when the run has a core per
//!   device thread, and a failing worker aborts its peers by message.
//! * [`worker`] — the action-list interpreter (§4.1) with one
//!   micro-batch-ordered gradient accumulator per local stage and an
//!   instrumented activation-stash live-bytes
//!   counter. The stash policy is the executable
//!   [`hanayo_model::Recompute`] mode: under `Full` each stage keeps only
//!   its input boundary tensor and replays the forward inside the
//!   backward — gradients stay bit-identical while the measured peak
//!   drops to the 1F1B boundary budget.
//! * [`trainer`] — spawns one thread per device, feeds micro-batches,
//!   runs iterations, collects losses and peak-stash statistics. Its two
//!   entry points are [`try_train`] (one pipeline) and
//!   [`try_train_data_parallel`] (one replica per data shard).
//! * [`collective`] — the data-parallel gradient exchange used when a plan
//!   runs several pipeline replicas (and by the Chimera-wave form).
//! * **Fault tolerance** — [`trainer::try_train`] executes the
//!   [`hanayo_ckpt::CheckpointPolicy`] (durable checkpoint every `k`
//!   iterations) and the [`hanayo_ckpt::FailurePlan`] injection hook; a
//!   crashed run hands back its last durable checkpoint in
//!   [`trainer::TrainError::checkpoint`], and [`trainer::resume`] drives
//!   the remaining iterations to losses, weights and peaks **bitwise
//!   equal** to an uninterrupted run.

pub mod collective;
pub mod mailbox;
pub mod trainer;
pub mod worker;

pub use hanayo_ckpt::{Checkpoint, CheckpointPolicy, FailurePlan};
pub use hanayo_model::Recompute;
pub use trainer::{
    checkpoint_of, fingerprint_of, resume, resume_data_parallel, try_train,
    try_train_data_parallel, LossKind, ResumeError, TrainError, TrainOutput, TrainerConfig,
};
pub use worker::WorkerError;
