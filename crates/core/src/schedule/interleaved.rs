//! Megatron-LM's interleaved 1F1B (Narayanan et al. 2021).
//!
//! Each device holds `v` model chunks assigned round-robin (stage `s` on
//! device `s mod P`), shrinking the per-stage time and thus the warm-up
//! bubble at the cost of `v×` more communication. The paper discusses it
//! (§2.2) as the 1F1B improvement Hanayo's waves generalise; we include it
//! for ablations. The order comes from the generic list scheduler with a
//! 1F1B-style in-flight cap of `P`.

use crate::chain::ComputeSchedule;
use crate::config::PipelineConfig;
use crate::schedule::{listsched, ScheduleError};

/// Generate the interleaved 1F1B per-device compute order.
pub fn generate(cfg: &PipelineConfig) -> Result<ComputeSchedule, ScheduleError> {
    listsched::capped(cfg, cfg.devices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    #[test]
    fn complete_schedules() {
        for (p, b, v) in [(2, 2, 2), (4, 4, 2), (4, 8, 4)] {
            let cfg = PipelineConfig::new(p, b, Scheme::Interleaved { chunks: v }).unwrap();
            let cs = generate(&cfg).unwrap();
            assert_eq!(cs.total_ops(), cs.expected_ops(), "P={p} B={b} v={v}");
        }
    }

    #[test]
    fn chunks_distributed_round_robin() {
        let cfg = PipelineConfig::new(4, 4, Scheme::Interleaved { chunks: 2 }).unwrap();
        let cs = generate(&cfg).unwrap();
        // Device 0 executes stages 0 and 4 only.
        for op in &cs.per_device[0] {
            assert!(op.stage.0 % 4 == 0, "unexpected stage {} on device 0", op.stage);
        }
    }
}
