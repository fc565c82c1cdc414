//! Critical-path lower bound on makespan.
//!
//! Longest path through the happens-before DAG with:
//!
//! * span edges of compute actions weighted `flops / effective_flops`,
//!   exactly the engine's compute duration;
//! * message edges weighted `msg_bytes / bandwidth + latency` (zero
//!   occupancy on infinite-bandwidth links), exactly the engine's
//!   uncontended transfer time;
//! * everything else zero.
//!
//! The engine adds only *waiting* on top of these (link contention,
//! rendezvous alignment, batch synchronisation), so the longest path is
//! an admissible lower bound: simulated `iteration_time` can never fall
//! below it. That makes it a sound pruning bound for schedule search.

use crate::dag::{EdgeKind, HappensBefore};
use crate::error::AnalysisError;
use hanayo_cluster::ClusterSpec;
use hanayo_core::action::Action;
use hanayo_model::CostTable;

/// Duration of one action's span edge on `device`.
fn span_weight(action: &Action, device: usize, cost: &CostTable, cluster: &ClusterSpec) -> f64 {
    match action {
        Action::Forward { stage, .. } => {
            cost.fwd_flops[stage.idx()] / cluster.effective_flops(device)
        }
        Action::Backward { stage, .. } => {
            cost.bwd_flops[stage.idx()] / cluster.effective_flops(device)
        }
        _ => 0.0,
    }
}

/// Uncontended transfer time of one message, matching the engine's
/// occupancy + latency arithmetic (zero occupancy when bandwidth is
/// infinite, e.g. device-local links).
fn msg_weight(src: usize, dst: usize, cost: &CostTable, cluster: &ClusterSpec) -> f64 {
    let link = cluster.p2p(src, dst);
    let occupancy =
        if link.bandwidth.is_finite() { cost.msg_bytes as f64 / link.bandwidth } else { 0.0 };
    occupancy + link.latency
}

/// Longest weighted path through the DAG, in seconds. Fails with the
/// deadlock cycle if the graph is cyclic, or with a shape mismatch if the
/// cluster does not fit the schedule.
pub(crate) fn critical_path(
    dag: &HappensBefore<'_>,
    cost: &CostTable,
    cluster: &ClusterSpec,
) -> Result<f64, AnalysisError> {
    let schedule = dag.schedule;
    if cluster.len() != schedule.lists.len() {
        return Err(AnalysisError::DeviceCountMismatch {
            schedule: schedule.lists.len(),
            cluster: cluster.len(),
        });
    }
    let stages = schedule.stage_map.stages;
    if cost.fwd_flops.len() != stages as usize {
        return Err(AnalysisError::StageCountMismatch {
            schedule: stages,
            cost: cost.fwd_flops.len() as u32,
        });
    }

    let order = dag.topo_order()?;
    let mut dist = vec![0.0f64; dag.node_count()];
    let mut bound = 0.0f64;
    for &node in &order {
        let d = dist[node as usize];
        bound = bound.max(d);
        for edge in dag.successors(node) {
            let w = match edge.kind {
                EdgeKind::Seq => 0.0,
                EdgeKind::Span => {
                    let (device, index) = dag.locate(node);
                    span_weight(&schedule.lists[device].actions[index], device, cost, cluster)
                }
                EdgeKind::Msg { src, dst } => msg_weight(src as usize, dst as usize, cost, cluster),
            };
            let t = d + w;
            if t > dist[edge.to as usize] {
                dist[edge.to as usize] = t;
            }
        }
    }
    Ok(bound)
}
