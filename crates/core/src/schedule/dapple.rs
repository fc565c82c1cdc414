//! DAPPLE / 1F1B (Fan et al. 2020): one-forward-one-backward scheduling.
//!
//! Device `d` performs `min(B, P-1-d)` warm-up forwards, then alternates
//! forward/backward in steady state, then drains the remaining backwards
//! (Fig. 3b). Activation memory on device `d` peaks at `min(B, P-d)`
//! micro-batches — high at the head of the pipe, low at the tail, which is
//! the imbalance the paper measures (variance 16.85 in Fig. 8).

use crate::chain::{ComputeOp, ComputeSchedule};
use crate::config::PipelineConfig;
use crate::schedule::ScheduleError;
use crate::stage_map::StageMap;

/// Generate DAPPLE's per-device compute order. Degenerate shapes are
/// rejected with the named [`ConfigError`](crate::config::ConfigError)
/// reason; the warm-up depth uses checked arithmetic so no `(P, B, d)`
/// combination (P=1, B<P, deep devices) can underflow.
pub fn generate(cfg: &PipelineConfig) -> Result<ComputeSchedule, ScheduleError> {
    cfg.validate()?;
    let map = StageMap::for_config(cfg);
    let p = cfg.devices;
    let b = cfg.micro_batches;
    let mut per_device: Vec<Vec<ComputeOp>> = Vec::with_capacity(p as usize);
    for d in 0..p {
        // Device d warms up min(B, P-1-d) forwards; clamp to zero rather
        // than underflow when the pipe is shallower than the device index.
        let warmup = p.saturating_sub(1 + d).min(b);
        let steady = b - warmup;
        let mut ops = Vec::with_capacity(2 * b as usize);
        for m in 0..warmup {
            ops.push(ComputeOp::fwd(m, d));
        }
        for k in 0..steady {
            ops.push(ComputeOp::fwd(warmup + k, d));
            ops.push(ComputeOp::bwd(k, d));
        }
        for m in steady..b {
            ops.push(ComputeOp::bwd(m, d));
        }
        per_device.push(ops);
    }
    Ok(ComputeSchedule { config: *cfg, stage_map: map, per_device })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn gen(p: u32, b: u32) -> ComputeSchedule {
        generate(&PipelineConfig::new(p, b, Scheme::Dapple).unwrap()).unwrap()
    }

    #[test]
    fn last_device_is_pure_1f1b() {
        let cs = gen(4, 4);
        let last = &cs.per_device[3];
        let kinds: Vec<bool> = last.iter().map(|o| o.backward).collect();
        assert_eq!(kinds, vec![false, true, false, true, false, true, false, true]);
    }

    #[test]
    fn first_device_warms_up_p_minus_1() {
        let cs = gen(4, 8);
        let first = &cs.per_device[0];
        assert!(first[..3].iter().all(|o| !o.backward));
        assert!(first[3].mb.0 == 3 && !first[3].backward);
        assert!(first[4].mb.0 == 0 && first[4].backward);
    }

    #[test]
    fn op_counts_complete() {
        for (p, b) in [(2, 2), (4, 4), (4, 9), (8, 3)] {
            let cs = gen(p, b);
            assert_eq!(cs.total_ops(), cs.expected_ops(), "P={p} B={b}");
        }
    }

    #[test]
    fn in_flight_activations_bounded_by_depth() {
        // Replay device d's list: stash on F, pop on B; peak ≤ min(B, P-d).
        for (p, b) in [(4u32, 4u32), (4, 8), (8, 8)] {
            let cs = gen(p, b);
            let one_each = vec![1; cs.stage_map.stages as usize];
            for (d, ops) in cs.per_device.iter().enumerate() {
                let peak = crate::memory::stash_peak(ops.iter().copied(), 0, &one_each);
                assert!(peak <= u64::from((p - d as u32).min(b)), "P={p} B={b} d={d} peak={peak}");
            }
        }
    }

    #[test]
    fn small_b_degenerates_gracefully() {
        let cs = gen(8, 2);
        assert_eq!(cs.total_ops(), cs.expected_ops());
    }

    #[test]
    fn degenerate_shapes_complete_or_reject_by_name() {
        // P=1 and B<P must produce complete schedules, not underflow.
        for (p, b) in [(1u32, 1u32), (1, 4), (2, 1), (8, 1), (16, 3)] {
            let cs = gen(p, b);
            assert_eq!(cs.total_ops(), cs.expected_ops(), "P={p} B={b}");
        }
        // Zero shapes reject with the named reason instead of emitting an
        // empty "complete" schedule.
        let cfg = PipelineConfig { devices: 4, micro_batches: 0, scheme: Scheme::Dapple };
        assert_eq!(
            generate(&cfg).unwrap_err(),
            ScheduleError::Config(crate::config::ConfigError::Empty)
        );
    }
}
