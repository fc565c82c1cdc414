//! Static peak-memory bounds via activation-liveness dataflow.
//!
//! A device's compute is serial, so its memory trajectory is a pure
//! function of its op *order*: every forward acquires its stage's stash
//! bytes, every backward releases them, and the engine samples the peak
//! after each forward. Replaying that prefix sum over the schedule
//! reproduces the simulator's `peak_mem` *exactly* — not merely a bound —
//! which is what lets the tuner reject OOM candidates without simulating.
//! The four-way invariant (runtime stash == sim stash == unit replay ==
//! this analysis) is pinned by `tests/memory_truth.rs`.

use hanayo_core::action::{Action, Schedule};
use hanayo_core::ids::DeviceId;
use hanayo_core::stage_map::StageMap;
use hanayo_model::CostTable;

/// Per-device sum of a per-stage byte column (e.g.
/// [`CostTable::weight_bytes`]) over the stages each device holds
/// (replicated groups count twice). The simulator's weight and gradient
/// baselines are this sum, so static and simulated weight memory agree
/// by construction.
pub fn device_bytes(stage_map: &StageMap, column: &[u64]) -> Vec<u64> {
    (0..stage_map.devices)
        .map(|d| {
            stage_map.modules_on(DeviceId(d)).iter().map(|&(_, stage)| column[stage.idx()]).sum()
        })
        .collect()
}

/// Replay one device's op order: `(backward, stage)` pairs in execution
/// order, against the engine's exact accounting — start at the weight
/// baseline, add stash at forward completion (sampling the peak there),
/// saturating-subtract at backward completion.
fn replay_device(ops: impl Iterator<Item = (bool, usize)>, weight: u64, cost: &CostTable) -> u64 {
    let mut cur = weight;
    let mut peak = weight;
    for (backward, stage) in ops {
        let bytes = cost.stash_bytes[stage];
        if backward {
            cur = cur.saturating_sub(bytes);
        } else {
            cur += bytes;
            peak = peak.max(cur);
        }
    }
    peak
}

/// Static peak bytes per device of a lowered schedule — equal to the
/// simulator's `SimReport::peak_mem` on every schedule the simulator
/// completes.
pub fn static_peak_mem(schedule: &Schedule, cost: &CostTable) -> Vec<u64> {
    let weights = device_bytes(&schedule.stage_map, &cost.weight_bytes);
    schedule
        .lists
        .iter()
        .zip(&weights)
        .map(|(list, &w)| {
            let ops = list.actions.iter().filter_map(Action::compute_op);
            replay_device(ops.map(|op| (op.backward, op.stage.idx())), w, cost)
        })
        .collect()
}

/// The activation-stash component of the peak: `peak − weight` per
/// device. This is the quantity the memory-truth suite compares across
/// the runtime, the simulator, the unit replay and this analysis.
pub fn static_stash_peak(schedule: &Schedule, cost: &CostTable) -> Vec<u64> {
    let weights = device_bytes(&schedule.stage_map, &cost.weight_bytes);
    static_peak_mem(schedule, cost).iter().zip(&weights).map(|(&p, &w)| p - w).collect()
}
