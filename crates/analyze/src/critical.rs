//! Critical-path lower bound on makespan.
//!
//! [`Program::replay`] under the engine's uncontended durations:
//!
//! * a compute lasts `flops / effective_flops`, exactly the engine's
//!   compute duration;
//! * a message arrives `msg_bytes / bandwidth + latency` after its send
//!   is posted (zero occupancy on infinite-bandwidth links), exactly the
//!   engine's uncontended transfer time;
//! * everything else takes no time.
//!
//! The engine adds only *waiting* on top of these (link contention,
//! rendezvous alignment, batch synchronisation), so the latest exit is
//! an admissible lower bound: simulated `iteration_time` can never fall
//! below it. That makes it a sound pruning bound for schedule search:
//! the tuner ranks a `top` request's candidates by it and simulates only
//! those whose bound reaches the running k-th best.

use crate::error::AnalysisError;
use hanayo_cluster::ClusterSpec;
use hanayo_core::program::{Op, Program};
use hanayo_model::CostTable;

/// Relative slack allowed when the bound is held against a simulated
/// time: the replay and the engine sum the same durations in different
/// orders, so the bound may exceed the simulated iteration time by a few
/// ulps. A bound `b` is admissible for a simulated time `t` when
/// `b <= t * (1 + CRITICAL_PATH_SLACK)`.
pub const CRITICAL_PATH_SLACK: f64 = 1e-9;

/// The latest exit of the replay, in seconds. Fails with a shape mismatch
/// if the cluster or the cost table does not fit the program, or with the
/// replay's [`Stall`](hanayo_core::program::Stall) if it deadlocks.
pub fn critical_path(
    program: &Program,
    cost: &CostTable,
    cluster: &ClusterSpec,
) -> Result<f64, AnalysisError> {
    let (devices, stages) = (program.ops().len(), program.stages());
    if cluster.len() != devices {
        return Err(AnalysisError::DeviceCountMismatch {
            schedule: devices,
            cluster: cluster.len(),
        });
    }
    if cost.fwd_flops.len() != stages as usize {
        let cost = cost.fwd_flops.len() as u32;
        return Err(AnalysisError::StageCountMismatch { schedule: stages, cost });
    }
    let span = |device, op| match op {
        Op::Compute { stage, backward, .. } => {
            let flops = [&cost.fwd_flops, &cost.bwd_flops][backward as usize];
            flops[stage as usize] / cluster.effective_flops(device)
        }
        _ => 0.0,
    };
    let transfer = |key| {
        let Some(m) = program.message(key) else { return 0.0 };
        let link = cluster.p2p(m.src.idx(), m.dst.idx());
        let occupancy =
            if link.bandwidth.is_finite() { cost.msg_bytes as f64 / link.bandwidth } else { 0.0 };
        occupancy + link.latency
    };
    let mut bound = 0.0f64;
    program.replay(span, transfer, |_, _, _, _, exit| bound = bound.max(exit))?;
    Ok(bound)
}
