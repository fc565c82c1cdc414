//! The action-list IR: the paper's §4.1 instruction set.
//!
//! Hanayo's runtime "breaks instructions into smaller granularities and
//! augments them with target device rank information and local module rank".
//! We mirror that: every action names the micro-batch, the global stage (from
//! which the local module is derived), and — for communication — the peer
//! device. A [`Schedule`] is the frozen program: one [`ActionList`] per
//! worker plus the [`StageMap`] needed to interpret stage ids.

use crate::chain::ComputeOp;
use crate::config::PipelineConfig;
use crate::ids::{DeviceId, MicroBatch, StageId};
use crate::stage_map::StageMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a point-to-point message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Payload {
    /// Output activation of a stage, consumed by the next stage's forward.
    Activation,
    /// Gradient w.r.t. a stage's output, consumed by that stage's backward.
    Gradient,
}

/// Unique identifier of one message within an iteration.
///
/// The tag names the *consumer*: for an activation flowing `s → s+1` the tag
/// stage is `s+1`; for a gradient flowing `s+1 → s` the tag stage is `s`.
/// `(mb, stage, payload)` is unique per iteration, which is what lets
/// [`crate::program::Program::key`] give every message one dense key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MsgTag {
    /// Micro-batch the message belongs to.
    pub mb: MicroBatch,
    /// Stage that will consume the message.
    pub stage: StageId,
    /// Activation or gradient.
    pub payload: Payload,
}

impl fmt::Display for MsgTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.payload {
            Payload::Activation => "act",
            Payload::Gradient => "grad",
        };
        write!(f, "{}:{}@{}", k, self.mb, self.stage)
    }
}

/// Direction of a communication op from the executing device's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommDir {
    /// Post a send to `peer` (non-blocking for the sender in both engines).
    Send,
    /// Wait for a message from `peer` (blocking, but prefetchable).
    Recv,
}

/// One point-to-point communication operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CommOp {
    /// Send or receive.
    pub dir: CommDir,
    /// The other endpoint.
    pub peer: DeviceId,
    /// Message identity.
    pub tag: MsgTag,
}

/// One instruction in a worker's action list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Run the forward pass of `stage` on micro-batch `mb`.
    Forward {
        /// Micro-batch to process.
        mb: MicroBatch,
        /// Global stage id; the local module rank is derived via
        /// [`StageMap::modules_on`].
        stage: StageId,
    },
    /// Run the backward pass of `stage` on micro-batch `mb`, consuming the
    /// stashed forward activation.
    Backward {
        /// Micro-batch to process.
        mb: MicroBatch,
        /// Global stage id.
        stage: StageId,
    },
    /// A single point-to-point send or receive.
    Comm(CommOp),
    /// Cross-communication batched together before initiation — the paper's
    /// `batch_isend_irecv` workaround for NCCL deadlock. All member ops are
    /// posted atomically and the action completes when every member does.
    BatchedComm(Vec<CommOp>),
    /// Synchronous flush: apply accumulated gradients. Terminates every
    /// synchronous schedule.
    OptimizerStep,
}

impl Action {
    /// Is this a compute action (forward or backward)?
    #[inline]
    pub fn is_compute(&self) -> bool {
        matches!(self, Action::Forward { .. } | Action::Backward { .. })
    }

    /// The chain op this action performs (`Forward`/`Backward` only).
    #[inline]
    pub fn compute_op(&self) -> Option<ComputeOp> {
        match *self {
            Action::Forward { mb, stage } => Some(ComputeOp { mb, stage, backward: false }),
            Action::Backward { mb, stage } => Some(ComputeOp { mb, stage, backward: true }),
            _ => None,
        }
    }

    /// The communication ops contained in this action (empty for compute).
    pub fn comm_ops(&self) -> &[CommOp] {
        match self {
            Action::Comm(op) => std::slice::from_ref(op),
            Action::BatchedComm(ops) => ops,
            _ => &[],
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Forward { mb, stage } => write!(f, "F({mb},{stage})"),
            Action::Backward { mb, stage } => write!(f, "B({mb},{stage})"),
            Action::Comm(CommOp { dir: CommDir::Send, peer, tag }) => {
                write!(f, "send[{tag} -> {peer}]")
            }
            Action::Comm(CommOp { dir: CommDir::Recv, peer, tag }) => {
                write!(f, "recv[{tag} <- {peer}]")
            }
            Action::BatchedComm(ops) => {
                write!(f, "batch{{")?;
                for (i, op) in ops.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", Action::Comm(*op))?;
                }
                write!(f, "}}")
            }
            Action::OptimizerStep => write!(f, "optimizer-step"),
        }
    }
}

/// The ordered instruction stream of one worker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionList {
    /// The worker executing this list.
    pub device: DeviceId,
    /// Instructions in execution order.
    pub actions: Vec<Action>,
}

impl ActionList {
    /// Count of compute actions (forwards + backwards).
    pub(crate) fn compute_count(&self) -> usize {
        self.actions.iter().filter(|a| a.is_compute()).count()
    }
}

/// A frozen pipeline program: the output of a scheduler, the input of both
/// execution engines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// The configuration this schedule was generated from.
    pub config: PipelineConfig,
    /// Stage→device placement.
    pub stage_map: StageMap,
    /// One action list per device, indexed by rank.
    pub lists: Vec<ActionList>,
}

impl Schedule {
    /// Total number of compute actions across all devices. Every schedule
    /// must contain exactly `2 · B · S` (one forward and one backward per
    /// micro-batch per stage).
    pub fn total_compute(&self) -> usize {
        self.lists.iter().map(ActionList::compute_count).sum()
    }

    /// Iterate `(device, action)` pairs in list order.
    pub fn iter_actions(&self) -> impl Iterator<Item = (DeviceId, &Action)> {
        self.lists.iter().flat_map(|l| l.actions.iter().map(move |a| (l.device, a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_display_is_compact() {
        let tag = MsgTag { mb: MicroBatch(3), stage: StageId(5), payload: Payload::Activation };
        assert_eq!(tag.to_string(), "act:mb3@S5");
    }

    #[test]
    fn action_display_reads_like_the_paper() {
        let a = Action::Forward { mb: MicroBatch(0), stage: StageId(2) };
        assert_eq!(a.to_string(), "F(mb0,S2)");
        let c = Action::Comm(CommOp {
            dir: CommDir::Send,
            peer: DeviceId(1),
            tag: MsgTag { mb: MicroBatch(0), stage: StageId(3), payload: Payload::Activation },
        });
        assert_eq!(c.to_string(), "send[act:mb0@S3 -> P1]");
    }

    #[test]
    fn comm_ops_accessor() {
        let op = CommOp {
            dir: CommDir::Recv,
            peer: DeviceId(0),
            tag: MsgTag { mb: MicroBatch(1), stage: StageId(1), payload: Payload::Gradient },
        };
        assert_eq!(Action::Comm(op).comm_ops().len(), 1);
        assert_eq!(Action::BatchedComm(vec![op, op]).comm_ops().len(), 2);
        assert!(Action::OptimizerStep.comm_ops().is_empty());
        assert!(Action::Forward { mb: MicroBatch(0), stage: StageId(0) }.comm_ops().is_empty());
    }

    #[test]
    fn compute_predicate() {
        assert!(Action::Forward { mb: MicroBatch(0), stage: StageId(0) }.is_compute());
        assert!(Action::Backward { mb: MicroBatch(0), stage: StageId(0) }.is_compute());
        assert!(!Action::OptimizerStep.is_compute());
    }
}
