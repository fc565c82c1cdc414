//! Failure injection plans and the checkpoint cadence policy.
//!
//! A [`FailurePlan`] describes one deterministic fault for a training run
//! to suffer; the runtime's workers consult it and fail *through the same
//! typed-error/abort machinery* a genuine invariant violation would use,
//! so injected failures exercise exactly the shutdown paths that matter.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One deterministic fault to inject into a run. Device indices are
/// global ranks: for a data-parallel run of `world` replicas of `P`
/// devices, device `r·P + d` is local rank `d` of replica `r`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailurePlan {
    /// Run to completion.
    #[default]
    None,
    /// Device `device` dies at the start of iteration `iteration`
    /// (0-based, global across resumes).
    KillDevice {
        /// Global device rank to kill.
        device: u32,
        /// Iteration at whose start the device fails.
        iteration: u32,
    },
    /// The directed link `src → dst` goes down from iteration `iteration`
    /// onward: the first send across it fails the sending worker.
    DropLink {
        /// Global rank of the sending endpoint.
        src: u32,
        /// Global rank of the receiving endpoint.
        dst: u32,
        /// First iteration at which the link is down.
        iteration: u32,
    },
}

impl FailurePlan {
    /// Is this the no-failure plan?
    pub fn is_none(&self) -> bool {
        matches!(self, FailurePlan::None)
    }
}

impl fmt::Display for FailurePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailurePlan::None => write!(f, "no injected failure"),
            FailurePlan::KillDevice { device, iteration } => {
                write!(f, "kill device {device} at iteration {iteration}")
            }
            FailurePlan::DropLink { src, dst, iteration } => {
                write!(f, "drop link {src} -> {dst} from iteration {iteration}")
            }
        }
    }
}

/// How often a run takes a durable checkpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Checkpoint every `every` iterations (at iteration boundaries
    /// `0, k, 2k, …`). `0` disables checkpointing.
    pub every: u32,
}

impl CheckpointPolicy {
    /// No checkpoints.
    pub const OFF: CheckpointPolicy = CheckpointPolicy { every: 0 };

    /// Checkpoint every `k` iterations.
    pub fn every(k: u32) -> CheckpointPolicy {
        CheckpointPolicy { every: k }
    }

    /// Does this policy ever checkpoint?
    pub(crate) fn is_enabled(&self) -> bool {
        self.every > 0
    }

    /// Is global iteration `i` a checkpoint boundary under this policy?
    pub fn is_boundary(&self, i: u32) -> bool {
        self.is_enabled() && i.is_multiple_of(self.every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_boundaries() {
        let p = CheckpointPolicy::every(3);
        assert!(p.is_enabled());
        assert!(p.is_boundary(0) && p.is_boundary(3) && p.is_boundary(6));
        assert!(!p.is_boundary(1) && !p.is_boundary(5));
        assert!(!CheckpointPolicy::OFF.is_enabled());
        assert!(!CheckpointPolicy::OFF.is_boundary(0));
    }

    #[test]
    fn plans_display_and_roundtrip() {
        let kill = FailurePlan::KillDevice { device: 3, iteration: 7 };
        assert_eq!(kill.to_string(), "kill device 3 at iteration 7");
        assert!(FailurePlan::None.is_none() && !kill.is_none());
        for plan in
            [FailurePlan::None, kill, FailurePlan::DropLink { src: 1, dst: 2, iteration: 4 }]
        {
            let back: FailurePlan =
                serde_json::from_str(&serde_json::to_string(&plan).unwrap()).unwrap();
            assert_eq!(back, plan);
        }
    }
}
