//! Hanayo: the paper's wave-like pipeline schedule (§3.2–§3.3).
//!
//! The model is split into `S = 2·W·P` stages laid out along the wave path
//! of [`crate::stage_map::wave_path`]: wave `k` descends through devices
//! `0..P` and ascends back. Each device therefore holds `2W` local modules
//! and **one** copy of its share of the weights — the whole point of the
//! transformation in Fig. 5 is that Chimera's bidirectional bubble-filling
//! survives while the second weight replica does not.
//!
//! The per-device op order is produced by the constrained list scheduler
//! with an in-flight cap of `P` micro-batches, which matches 1F1B's
//! activation budget and produces the schedules drawn in Figs. 3(d), 3(e)
//! and 6.

use crate::chain::ComputeSchedule;
use crate::config::PipelineConfig;
use crate::schedule::{listsched, ScheduleError};

/// Generate Hanayo's per-device compute order.
pub fn generate(cfg: &PipelineConfig) -> Result<ComputeSchedule, ScheduleError> {
    listsched::capped(cfg, cfg.devices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn gen(p: u32, b: u32, w: u32) -> ComputeSchedule {
        generate(&PipelineConfig::new(p, b, Scheme::Hanayo { waves: w }).unwrap()).unwrap()
    }

    #[test]
    fn complete_for_a_grid_of_shapes() {
        for (p, b, w) in [(2, 2, 1), (2, 4, 2), (4, 4, 1), (4, 4, 2), (4, 8, 4), (8, 8, 2)] {
            let cs = gen(p, b, w);
            assert_eq!(cs.total_ops(), cs.expected_ops(), "P={p} B={b} W={w}");
        }
    }

    #[test]
    fn device0_starts_with_microbatch0() {
        let cs = gen(4, 4, 2);
        let first = cs.per_device[0][0];
        assert_eq!(first.mb.0, 0);
        assert_eq!(first.stage.0, 0);
        assert!(!first.backward);
    }

    #[test]
    fn fold_device_runs_consecutive_stages_back_to_back() {
        // Device P-1 holds stages P-1 and P; micro-batch 0's two fold
        // forwards must be adjacent in its list (no other mb's op between
        // them would break anything, but the wave should flow through).
        let cs = gen(4, 4, 1);
        let fold = &cs.per_device[3];
        let i_a = fold.iter().position(|o| o.mb.0 == 0 && o.stage.0 == 3 && !o.backward).unwrap();
        let i_b = fold.iter().position(|o| o.mb.0 == 0 && o.stage.0 == 4 && !o.backward).unwrap();
        assert!(i_b > i_a);
    }

    #[test]
    fn backward_begins_on_device_zero_without_a_hop() {
        // Stage S-1's forward and stage S-1's backward are both on device 0;
        // mb0's last forward should be followed in device 0's list by a
        // backward before all other forwards drain (wave property).
        let cs = gen(4, 4, 1);
        let s = cs.stage_map.stages;
        let d0 = &cs.per_device[0];
        let last_fwd =
            d0.iter().position(|o| o.mb.0 == 0 && o.stage.0 == s - 1 && !o.backward).unwrap();
        let first_bwd = d0.iter().position(|o| o.backward).unwrap();
        assert_eq!(first_bwd, last_fwd + 1, "device 0 should turn mb0 around immediately: {d0:?}");
    }
}
