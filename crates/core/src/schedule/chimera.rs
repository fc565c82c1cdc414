//! Chimera (Li & Hoefler, SC '21): bidirectional pipelines with weight
//! replication.
//!
//! Two straight pipelines run simultaneously in opposite directions; each
//! keeps a **full replica** of the model (2× weight memory, the cost the
//! paper's Fig. 2 flags with a red arrow). Micro-batches `0..B/2` flow
//! down (replica 0), `B/2..B` flow up (replica 1), and each direction fills
//! the other's bubbles.
//!
//! The order is produced by the generic list scheduler with an in-flight
//! cap of `P/2` per direction, which yields the schedule of Fig. 3(c).

use crate::chain::ComputeSchedule;
use crate::config::PipelineConfig;
use crate::schedule::{listsched, ScheduleError};

/// Generate Chimera's per-device compute order.
pub fn generate(cfg: &PipelineConfig) -> Result<ComputeSchedule, ScheduleError> {
    listsched::capped(cfg, (cfg.devices / 2).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::ids::DeviceId;

    fn gen(p: u32, b: u32) -> ComputeSchedule {
        generate(&PipelineConfig::new(p, b, Scheme::Chimera).unwrap()).unwrap()
    }

    #[test]
    fn complete_schedules() {
        for (p, b) in [(2, 2), (4, 4), (4, 8), (8, 8)] {
            let cs = gen(p, b);
            assert_eq!(cs.total_ops(), cs.expected_ops(), "P={p} B={b}");
        }
    }

    #[test]
    fn both_directions_start_immediately() {
        // P0 starts the down pipe with mb0; P3 starts the up pipe with the
        // first up micro-batch (B/2) — both at list position 0.
        let cs = gen(4, 4);
        assert_eq!(cs.per_device[0][0].mb.0, 0);
        assert_eq!(cs.per_device[3][0].mb.0, 2);
        assert!(!cs.per_device[3][0].backward);
        assert_eq!(cs.per_device[3][0].stage.0, 0);
    }

    #[test]
    fn up_pipe_uses_mirrored_devices() {
        let cs = gen(4, 4);
        let map = &cs.stage_map;
        // mb2 (up pipe) stage 1 runs on device 2.
        assert_eq!(map.device_of(crate::ids::MicroBatch(2), crate::ids::StageId(1)), DeviceId(2));
    }

    #[test]
    fn per_device_work_is_balanced() {
        let cs = gen(4, 8);
        let counts: Vec<usize> = cs.per_device.iter().map(Vec::len).collect();
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    }
}
