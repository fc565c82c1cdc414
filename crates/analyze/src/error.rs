//! Typed verdicts of the static analyses.

use hanayo_core::action::MsgTag;
use hanayo_core::ids::DeviceId;
use hanayo_core::program::{ProgramError, Stall};
use hanayo_core::schedule::table::TableError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A statically-provable defect in a schedule. Every variant names the
/// offending coordinates, mirroring [`TableError`]'s convention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnalysisError {
    /// The tabular IR itself is malformed (shape, completeness, chain
    /// order, recompute typing, stash caps) — surfaced before the table
    /// is lowered when analysing it. A lowered schedule's placement and
    /// same-device order defects come back here too, with the action
    /// index as the slot.
    Table(TableError),
    /// The cost table's stage count differs from the schedule's.
    StageCountMismatch {
        /// Stages in the schedule's stage map.
        schedule: u32,
        /// Stages in the cost table.
        cost: u32,
    },
    /// The cluster's device count differs from the schedule's.
    DeviceCountMismatch {
        /// Devices in the schedule.
        schedule: usize,
        /// Devices in the cluster.
        cluster: usize,
    },
    /// The schedule does not lower: a tag outside its key space, or a
    /// message without exactly one send and one receive on the devices
    /// each names. The same error the simulator and the runtime refuse
    /// the schedule with.
    Program(ProgramError),
    /// A cross-device chain step no message carries: the consumer never
    /// receives the producer's message, or receives it only after the
    /// step, or the producer sends it before computing it.
    UncarriedStep {
        /// Device of the consuming step.
        device: DeviceId,
        /// Action index of the consuming step.
        index: usize,
        /// The message [`hanayo_core::comm::lower`] would carry it with.
        tag: MsgTag,
    },
    /// A device's list does not end in exactly one optimizer step.
    MissingFlush {
        /// The device.
        device: DeviceId,
        /// Its first optimizer step, or the list length when it has none.
        index: usize,
    },
    /// Two messages on the same directed link whose sender order inverts
    /// their receiver order — a FIFO channel (NCCL p2p without tags)
    /// would deadlock on this pair even though tag matching does not.
    FifoInversion {
        /// Sending device of the link.
        src: DeviceId,
        /// Receiving device of the link.
        dst: DeviceId,
        /// Message posted first by the sender.
        first: MsgTag,
        /// Message the receiver blocks on first.
        second: MsgTag,
    },
    /// The schedule deadlocks: the [`Stall`] its happens-before replay
    /// ends in, which the simulator and the runtime name too.
    Deadlock(Stall),
}

impl From<TableError> for AnalysisError {
    fn from(e: TableError) -> Self {
        AnalysisError::Table(e)
    }
}

impl From<ProgramError> for AnalysisError {
    fn from(e: ProgramError) -> Self {
        AnalysisError::Program(e)
    }
}

impl From<Stall> for AnalysisError {
    fn from(stall: Stall) -> Self {
        AnalysisError::Deadlock(stall)
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Table(e) => write!(f, "table invariant violated: {e}"),
            AnalysisError::StageCountMismatch { schedule, cost } => {
                write!(f, "schedule has {schedule} stages, cost table has {cost}")
            }
            AnalysisError::DeviceCountMismatch { schedule, cluster } => {
                write!(f, "schedule has {schedule} devices, cluster has {cluster}")
            }
            AnalysisError::Program(e) => write!(f, "{e}"),
            AnalysisError::UncarriedStep { device, index, tag } => write!(
                f,
                "{device}#{index} consumes {tag}, but no message carries it there in order"
            ),
            AnalysisError::MissingFlush { device, index } => {
                write!(f, "{device}#{index}: the list must end in exactly one optimizer step")
            }
            AnalysisError::FifoInversion { src, dst, first, second } => {
                write!(
                    f,
                    "link {src}->{dst}: sender posts {first} before {second}, \
                     receiver blocks on {second} first"
                )
            }
            AnalysisError::Deadlock(stall) => write!(f, "deadlock: {stall}"),
        }
    }
}

impl std::error::Error for AnalysisError {}
