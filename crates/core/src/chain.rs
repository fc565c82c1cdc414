//! Per-micro-batch dependency chains and the compute-only schedule form.
//!
//! Every micro-batch performs `2S` compute operations in a fixed dependency
//! chain: forwards of stages `0..S`, then backwards of stages `S-1..=0`.
//! We index that chain with a *position* `pos ∈ 0..2S`:
//!
//! ```text
//! pos:      0    1    ...  S-1 | S      S+1     ...  2S-1
//! op:       F(0) F(1) ...  F(S-1) B(S-1) B(S-2) ...  B(0)
//! ```
//!
//! Schedulers first produce a [`ComputeSchedule`] — per-device *order* of
//! compute ops — which [`crate::comm::lower`] then completes with
//! communication actions into a full [`crate::action::Schedule`].

use crate::config::PipelineConfig;
use crate::ids::{MicroBatch, StageId};
use crate::stage_map::StageMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One forward or backward of one micro-batch on one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ComputeOp {
    /// The micro-batch.
    pub mb: MicroBatch,
    /// Global stage id.
    pub stage: StageId,
    /// `true` for backward propagation.
    pub backward: bool,
}

impl ComputeOp {
    /// Forward op constructor.
    #[inline]
    pub fn fwd(mb: u32, stage: u32) -> Self {
        ComputeOp { mb: MicroBatch(mb), stage: StageId(stage), backward: false }
    }

    /// Backward op constructor.
    #[inline]
    pub fn bwd(mb: u32, stage: u32) -> Self {
        ComputeOp { mb: MicroBatch(mb), stage: StageId(stage), backward: true }
    }

    /// Chain position of this op in a pipeline with `stages` stages.
    #[inline]
    pub fn pos(&self, stages: u32) -> u32 {
        if self.backward {
            2 * stages - 1 - self.stage.0
        } else {
            self.stage.0
        }
    }

    /// Inverse of [`ComputeOp::pos`].
    #[inline]
    pub fn from_pos(mb: MicroBatch, pos: u32, stages: u32) -> Self {
        if pos < stages {
            ComputeOp { mb, stage: StageId(pos), backward: false }
        } else {
            ComputeOp { mb, stage: StageId(2 * stages - 1 - pos), backward: true }
        }
    }
}

impl fmt::Display for ComputeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = if self.backward { "B" } else { "F" };
        write!(f, "{k}({},{})", self.mb, self.stage)
    }
}

/// A compute-only pipeline schedule: the per-device op order before
/// communication lowering.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComputeSchedule {
    /// Generating configuration.
    pub config: PipelineConfig,
    /// Stage placement.
    pub stage_map: StageMap,
    /// `per_device[d]` is device `d`'s compute ops in execution order.
    pub per_device: Vec<Vec<ComputeOp>>,
}

impl ComputeSchedule {
    /// Total ops; must equal `2 · B · S` for a complete schedule.
    #[cfg(test)]
    pub(crate) fn total_ops(&self) -> usize {
        self.per_device.iter().map(Vec::len).sum()
    }

    /// Expected op count for the configuration.
    #[cfg(test)]
    pub(crate) fn expected_ops(&self) -> usize {
        2 * self.config.micro_batches as usize * self.stage_map.stages as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_roundtrip_covers_full_chain() {
        let s = 8;
        for pos in 0..2 * s {
            let op = ComputeOp::from_pos(MicroBatch(2), pos, s);
            assert_eq!(op.pos(s), pos);
            assert_eq!(op.mb, MicroBatch(2));
        }
    }

    #[test]
    fn forward_positions_are_stage_ids() {
        assert_eq!(ComputeOp::fwd(0, 3).pos(8), 3);
    }

    #[test]
    fn backward_positions_reverse_stage_order() {
        // backward of the last stage comes right after the last forward
        assert_eq!(ComputeOp::bwd(0, 7).pos(8), 8);
        // backward of stage 0 is the final op
        assert_eq!(ComputeOp::bwd(0, 0).pos(8), 15);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ComputeOp::fwd(1, 2).to_string(), "F(mb1,S2)");
        assert_eq!(ComputeOp::bwd(1, 2).to_string(), "B(mb1,S2)");
    }
}
