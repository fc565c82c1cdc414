//! Typed verdicts of the static analyses.

use hanayo_core::action::MsgTag;
use hanayo_core::ids::DeviceId;
use hanayo_core::program::ProgramError;
use hanayo_core::schedule::table::TableError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One step of a happens-before cycle: an action coordinate plus its
/// rendered form, so the offending slot cycle reads like the schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleNode {
    /// Device whose action list contains the step.
    pub device: DeviceId,
    /// Index into that device's action list.
    pub index: usize,
    /// Display form of the action (`F(mb0,S1)`, `recv[act:mb0@S1 <- P0]`).
    pub action: String,
}

impl fmt::Display for CycleNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}:{}", self.device, self.index, self.action)
    }
}

/// A statically-provable defect in a schedule. Every variant names the
/// offending coordinates, mirroring [`TableError`]'s convention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnalysisError {
    /// The tabular IR itself is malformed (shape, completeness, chain
    /// order, recompute typing, stash caps) — surfaced before any DAG is
    /// built when analysing a table. A lowered schedule's placement and
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
    /// The happens-before DAG has a cycle: the schedule deadlocks. The
    /// cycle lists the wait chain in order, ending where it began.
    Cycle {
        /// The offending action cycle.
        cycle: Vec<CycleNode>,
    },
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
            AnalysisError::Cycle { cycle } => {
                write!(f, "happens-before cycle: ")?;
                for (i, node) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{node}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AnalysisError {}
