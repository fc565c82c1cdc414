//! Unit-based memory accounting: the `M_w` / `M_a` annotations of Fig. 3.
//!
//! Units follow the paper's caption exactly:
//!
//! * one **weight unit** is "a whole model weight divided by the number of
//!   devices" — so a stage in a scheme with `S` stages weighs `P/S` units;
//! * one **activation unit** is "one intermediate activation": the stash of
//!   one micro-batch across `model/P` worth of layers — so one stage-chunk
//!   stash weighs `P/S` units.
//!
//! Activations are stashed when a forward completes and released when the
//! matching backward completes; replaying a schedule's per-device op order
//! yields the peak. This is what differentiates GPipe (all `B` stashes
//! live) from 1F1B-family schedules.
//!
//! [`stash_peak`] is that rule, the workspace's one liveness fold.

use crate::chain::{ComputeOp, ComputeSchedule};
use serde::{Deserialize, Serialize};

/// Per-device memory profile in Fig. 3's units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitMemoryProfile {
    /// Weight units resident per device (static).
    pub mw_units: Vec<f64>,
    /// Peak activation units per device over the iteration.
    pub ma_peak_units: Vec<f64>,
    /// Mean of the per-device peak totals (`mw + ma`).
    pub mean_total: f64,
    /// Population variance of the per-device peak totals — the imbalance
    /// statistic quoted in §5.1.
    pub variance_total: f64,
}

impl UnitMemoryProfile {
    /// Highest per-device total (weights + peak activations) — "the ability
    /// of a scheme to fit within a certain cluster is often determined by
    /// the highest peak memory" (§5.1).
    ///
    /// Returns `None` for a degenerate profile with no devices: folding an
    /// empty profile from `0.0` used to silently report a peak of zero,
    /// which reads as "fits anywhere" — exactly the wrong default for a
    /// capacity check.
    pub fn highest_peak(&self) -> Option<f64> {
        debug_assert_eq!(self.mw_units.len(), self.ma_peak_units.len());
        self.mw_units.iter().zip(&self.ma_peak_units).map(|(w, a)| w + a).reduce(f64::max)
    }
}

/// The stash-liveness fold over one device's compute order: start at
/// `base` resident bytes, add `stash[s]` when a forward of stage `s`
/// completes (sampling the peak there), and release it, saturating, when
/// its backward completes. Returns the peak.
///
/// Replaying the per-device op *order* is exact for peak accounting: a
/// stash interval starts at its forward and ends at its backward, and
/// both endpoints live on the same device in every scheme (the stash
/// never migrates), so no timing enters.
pub fn stash_peak(ops: impl IntoIterator<Item = ComputeOp>, base: u64, stash: &[u64]) -> u64 {
    let (mut live, mut peak) = (base, base);
    for op in ops {
        let bytes = stash[op.stage.idx()];
        if op.backward {
            live = live.saturating_sub(bytes);
        } else {
            live += bytes;
            peak = peak.max(live);
        }
    }
    peak
}

/// Mean and population variance of `values` — the §5.1 balance
/// statistic over per-device peaks, in whatever unit they come in.
pub fn mean_variance(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    (mean, values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n)
}

/// Replay a compute schedule and report per-device peaks in paper units,
/// with every stash weighing one stage-chunk (`P/S` units) — the paper's
/// no-checkpointing setting.
pub fn unit_profile(cs: &ComputeSchedule) -> UnitMemoryProfile {
    let p = cs.stage_map.devices as f64;
    let s = cs.stage_map.stages as f64;
    unit_profile_with(cs, p / s)
}

/// Replay a compute schedule and report per-device peaks in paper units,
/// with an explicit stash weight per compute op.
///
/// `stash_units` is what one stage's forward leaves resident until its
/// backward, in Fig. 3 activation units. The default ([`unit_profile`]) is
/// the stage-chunk `P/S`; under full activation recomputation the resident
/// stash is only the stage-input boundary tensor, so callers pass the
/// boundary's weight in units instead (boundary bytes over the bytes of
/// one activation unit for the concrete model).
///
/// The peak is the [`stash_peak`] count of live stashes times
/// `stash_units`, which is exact for the paper's `P/S` weights.
pub fn unit_profile_with(cs: &ComputeSchedule, stash_units: f64) -> UnitMemoryProfile {
    let chunk = cs.stage_map.devices as f64 / cs.stage_map.stages as f64;
    assert!(stash_units.is_finite() && stash_units >= 0.0, "bad stash weight {stash_units}");

    let mw_units: Vec<f64> =
        cs.stage_map.stages_held().iter().map(|&held| held as f64 * chunk).collect();
    let one_each = vec![1; cs.stage_map.stages as usize];
    let ma_peak_units: Vec<f64> = cs
        .per_device
        .iter()
        .map(|ops| stash_peak(ops.iter().copied(), 0, &one_each) as f64 * stash_units)
        .collect();

    let totals: Vec<f64> = mw_units.iter().zip(&ma_peak_units).map(|(w, a)| w + a).collect();
    let (mean_total, variance_total) = mean_variance(&totals);
    UnitMemoryProfile { mw_units, ma_peak_units, mean_total, variance_total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, Scheme};
    use crate::schedule::build_compute_schedule;

    fn profile(p: u32, b: u32, scheme: Scheme) -> UnitMemoryProfile {
        let cfg = PipelineConfig::new(p, b, scheme).unwrap();
        unit_profile(&build_compute_schedule(&cfg).unwrap())
    }

    #[test]
    fn gpipe_stashes_every_microbatch_everywhere() {
        // Fig. 3(a): Ma peak = B units on all devices, Mw = 1 unit.
        let prof = profile(4, 4, Scheme::GPipe);
        assert_eq!(prof.mw_units, vec![1.0; 4]);
        assert_eq!(prof.ma_peak_units, vec![4.0; 4]);
    }

    #[test]
    fn dapple_peak_decreases_down_the_pipe() {
        // Fig. 3(b): staircase 4, 3, 2, 1 — the imbalance the paper calls
        // out.
        let prof = profile(4, 4, Scheme::Dapple);
        assert_eq!(prof.ma_peak_units, vec![4.0, 3.0, 2.0, 1.0]);
        assert_eq!(prof.mw_units, vec![1.0; 4]);
    }

    #[test]
    fn chimera_weights_double_but_activations_balance() {
        // Fig. 3(c): two replicas → Mw = 2 units per device.
        let prof = profile(4, 4, Scheme::Chimera);
        assert_eq!(prof.mw_units, vec![2.0; 4]);
        let max = prof.ma_peak_units.iter().cloned().fold(0.0, f64::max);
        let min = prof.ma_peak_units.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max - min <= 1.0, "chimera activations roughly balanced: {prof:?}");
    }

    #[test]
    fn hanayo_keeps_single_weight_copy() {
        // Fig. 3(d)/(e): Mw stays at 1 unit regardless of wave count —
        // the paper's headline memory claim.
        for waves in [1, 2, 4] {
            let prof = profile(4, 4, Scheme::Hanayo { waves });
            for &w in &prof.mw_units {
                assert!((w - 1.0).abs() < 1e-9, "W={waves}: {:?}", prof.mw_units);
            }
        }
    }

    #[test]
    fn hanayo_activation_peak_at_most_dapple_head() {
        let h = profile(4, 4, Scheme::Hanayo { waves: 2 });
        let d = profile(4, 4, Scheme::Dapple);
        let (hp, dp) = (h.highest_peak().unwrap(), d.highest_peak().unwrap());
        assert!(hp <= dp + 1e-9, "h={h:?} d={d:?}");
    }

    #[test]
    fn empty_profile_has_no_highest_peak() {
        // The old fold-from-zero reported 0.0 here — "fits anywhere".
        let empty = UnitMemoryProfile {
            mw_units: vec![],
            ma_peak_units: vec![],
            mean_total: 0.0,
            variance_total: 0.0,
        };
        assert_eq!(empty.highest_peak(), None);
        assert!(profile(4, 4, Scheme::GPipe).highest_peak().is_some());
    }

    #[test]
    fn stash_weight_scales_activation_peaks_linearly() {
        // Checkpointing shrinks every stash by the same factor, so the
        // replayed activation peak shrinks by exactly that factor too.
        let cfg = PipelineConfig::new(4, 4, Scheme::Hanayo { waves: 2 }).unwrap();
        let cs = build_compute_schedule(&cfg).unwrap();
        let full = unit_profile(&cs);
        let chunk = 4.0 / cs.stage_map.stages as f64;
        let ckpt = unit_profile_with(&cs, chunk / 16.0);
        for (a, b) in full.ma_peak_units.iter().zip(&ckpt.ma_peak_units) {
            assert!((a / 16.0 - b).abs() < 1e-12, "{a} vs {b}");
        }
        // Weights are untouched by the stash policy.
        assert_eq!(full.mw_units, ckpt.mw_units);
    }

    #[test]
    fn hanayo_is_more_balanced_than_dapple() {
        // §5.1: DAPPLE variance 16.85 vs Hanayo 1.44 (at 32-GPU scale);
        // the ordering must already hold at small scale.
        let h = profile(8, 8, Scheme::Hanayo { waves: 2 });
        let d = profile(8, 8, Scheme::Dapple);
        assert!(h.variance_total < d.variance_total, "hanayo {h:?} vs dapple {d:?}");
    }

    #[test]
    fn variance_of_constant_profile_is_zero() {
        let prof = profile(4, 4, Scheme::GPipe);
        assert!(prof.variance_total.abs() < 1e-9);
    }
}
