//! Static peak memory via activation liveness.
//!
//! A device's compute is serial, so its memory trajectory is a pure
//! function of its op *order*: every forward acquires its stage's stash
//! bytes and every backward releases them
//! ([`hanayo_core::memory::stash_peak`], the workspace's one liveness
//! fold). The peak per device is therefore known before anything runs,
//! and it is what the simulator reports as its `peak_mem`, which is what
//! lets the tuner reject OOM candidates without simulating.
//! `tests/memory_truth.rs` pins it against the runtime's measured stash
//! and the reference engine's in-loop accounting.

use hanayo_core::action::{Action, Schedule};
use hanayo_core::ids::DeviceId;
use hanayo_core::memory::stash_peak;
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

/// Peak bytes per device of a lowered schedule: the liveness fold over
/// each device's compute order from its weight baseline. This is the
/// simulator's `SimReport::peak_mem`.
pub fn static_peak_mem(schedule: &Schedule, cost: &CostTable) -> Vec<u64> {
    let weights = device_bytes(&schedule.stage_map, &cost.weight_bytes);
    schedule
        .lists
        .iter()
        .zip(weights)
        .map(|(list, w)| {
            stash_peak(list.actions.iter().filter_map(Action::compute_op), w, &cost.stash_bytes)
        })
        .collect()
}
