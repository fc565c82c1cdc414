//! Real micro-model builders for the threaded runtime: the same
//! layer-partitioning logic as the cost model, applied to actual
//! `hanayo_tensor::Stage` modules small enough to train on a CPU.

use crate::partition::{split_layers, CostTable, Recompute};
use hanayo_tensor::rng::seeded;
use hanayo_tensor::{Stage, Tensor};
use rand::rngs::StdRng;

/// A CPU-trainable stand-in for a transformer: `total_blocks` MLP blocks
/// (`LayerNorm → Linear → Gelu`) of width `width`.
#[derive(Debug, Clone)]
pub struct MicroModel {
    /// Feature width (plays the role of the hidden size).
    pub width: usize,
    /// Total MLP blocks (plays the role of the layer count).
    pub total_blocks: usize,
    /// RNG seed used for initialisation.
    pub seed: u64,
}

impl MicroModel {
    /// A small default: 8 blocks of width 16.
    #[cfg(test)]
    pub(crate) fn small(seed: u64) -> MicroModel {
        MicroModel { width: 16, total_blocks: 8, seed }
    }

    /// Deterministic RNG for this model's weights.
    fn rng(&self) -> StdRng {
        seeded(self.seed)
    }

    /// Build the full model as one sequential stage (the reference for
    /// equivalence tests).
    #[cfg(test)]
    pub(crate) fn build_monolith(&self) -> Stage {
        Stage::mlp(&mut self.rng(), self.width, self.total_blocks)
    }

    /// Build the model partitioned into `stages` pipeline stages with the
    /// same weights as one sequential stage of every block (identical RNG
    /// stream, split at block boundaries).
    ///
    /// Panics if `stages > total_blocks`: real modules cannot take
    /// fractional blocks (unlike the analytic cost model).
    pub fn build_stages(&self, stages: u32) -> Vec<Stage> {
        assert!(
            stages as usize <= self.total_blocks,
            "cannot split {} blocks into {} stages",
            self.total_blocks,
            stages
        );
        let split = split_layers(self.total_blocks as u32, stages);
        let mut rng = self.rng();
        split.iter().map(|&blocks| Stage::mlp(&mut rng, self.width, blocks as usize)).collect()
    }
}

/// Build a [`CostTable`] whose byte columns are *measured* from real
/// micro-model stages rather than derived from the analytic transformer
/// formulas.
///
/// The stash bytes are probed by running each stage's forward on a
/// zero tensor of the runtime's `rows × width` micro-batch shape: under
/// [`Recompute::None`] a stage stashes its full [`hanayo_tensor::StageStash`],
/// under [`Recompute::Full`] only the `rows × width × 4`-byte input
/// boundary tensor the worker keeps for the backward-time replay. Because
/// the threaded runtime accounts exactly those same quantities, a
/// simulation driven by this table predicts the runtime's per-device peak
/// stash bytes *exactly* — the invariant `tests/memory_truth.rs` pins.
///
/// FLOP columns are filled with positive per-stage proxies (so the table
/// passes [`crate::partition`]-level numerics validation and timing stays
/// meaningful-ish), scaled 2×/3× for the backward per the recompute mode.
/// When *measured* timings are wanted instead of proxies, feed this table
/// to `hanayo_trace::Calibration::cost_table` — calibration keeps these
/// probed byte columns and replaces the timing columns with per-stage
/// means fitted from a runtime trace, which is what lets the simulator
/// predict the real runtime's makespan (`tests/trace_truth.rs`).
///
/// Panics if any stage is empty: an identity stage has no measurable
/// cost and no real partition produces one.
pub fn micro_cost_table(
    stages: &[Stage],
    rows: usize,
    width: usize,
    recompute: Recompute,
) -> CostTable {
    assert!(!stages.is_empty(), "no stages to measure");
    let probe = Tensor::zeros(rows, width);
    let boundary = (rows * width * 4) as u64;
    let mut layers_per_stage = Vec::with_capacity(stages.len());
    let mut fwd_flops = Vec::with_capacity(stages.len());
    let mut bwd_flops = Vec::with_capacity(stages.len());
    let mut stash_bytes = Vec::with_capacity(stages.len());
    let mut weight_bytes = Vec::with_capacity(stages.len());
    let mut grad_bytes = Vec::with_capacity(stages.len());
    for stage in stages {
        assert!(!stage.blocks.is_empty(), "cannot measure an identity stage");
        let (_, stash) = stage.forward(&probe);
        let blocks = stage.blocks.len() as f64 / 3.0;
        // 2·rows·params is the exact matmul cost of the Linear blocks and a
        // fair proxy for the rest; what matters is that it is positive and
        // proportional to the stage.
        let fwd = 2.0 * rows as f64 * stage.param_count().max(1) as f64;
        layers_per_stage.push(blocks.max(1.0 / 3.0));
        fwd_flops.push(fwd);
        bwd_flops.push(match recompute {
            Recompute::None => 2.0 * fwd,
            Recompute::Full => 3.0 * fwd,
        });
        stash_bytes.push(match recompute {
            Recompute::None => stash.bytes() as u64,
            Recompute::Full => boundary,
        });
        // f32 parameters; the gradient buffer is the same shape.
        weight_bytes.push(4 * stage.param_count() as u64);
        grad_bytes.push(4 * stage.param_count() as u64);
    }
    CostTable {
        layers_per_stage,
        fwd_flops,
        bwd_flops,
        stash_bytes,
        weight_bytes,
        grad_bytes,
        msg_bytes: boundary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanayo_tensor::rng::uniform;

    #[test]
    fn partitioned_model_equals_monolith() {
        // Same seed → same weights → forward through the stage chain must
        // reproduce the monolith bit for bit.
        let m = MicroModel::small(11);
        let mono = m.build_monolith();
        let stages = m.build_stages(4);
        let x = uniform(&mut seeded(1), 3, m.width, 0.5);
        let (y_mono, _) = mono.forward(&x);
        let mut cur = x;
        for s in &stages {
            let (y, _) = s.forward(&cur);
            cur = y;
        }
        assert_eq!(cur, y_mono);
    }

    #[test]
    fn stage_block_counts_follow_split() {
        let m = MicroModel { width: 8, total_blocks: 10, seed: 0 };
        let stages = m.build_stages(4);
        let blocks: Vec<usize> = stages.iter().map(|s| s.blocks.len() / 3).collect();
        assert_eq!(blocks, vec![3, 3, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn rejects_more_stages_than_blocks() {
        MicroModel::small(0).build_stages(9);
    }

    #[test]
    fn param_totals_are_preserved() {
        let m = MicroModel::small(5);
        let mono = m.build_monolith();
        let total: usize = m.build_stages(8).iter().map(Stage::param_count).sum();
        assert_eq!(total, mono.param_count());
    }

    #[test]
    fn micro_cost_table_measures_real_stash_bytes() {
        let m = MicroModel { width: 8, total_blocks: 8, seed: 3 };
        let stages = m.build_stages(4);
        let plain = micro_cost_table(&stages, 2, 8, Recompute::None);
        let ckpt = micro_cost_table(&stages, 2, 8, Recompute::Full);
        let probe = Tensor::zeros(2, 8);
        for (s, stage) in stages.iter().enumerate() {
            let (_, stash) = stage.forward(&probe);
            assert_eq!(plain.stash_bytes[s], stash.bytes() as u64, "stage {s}");
            assert_eq!(ckpt.stash_bytes[s], 2 * 8 * 4, "stage {s} boundary");
            assert_eq!(plain.weight_bytes[s], 4 * stage.param_count() as u64);
        }
        // Checkpointing costs exactly one extra forward per backward.
        for s in 0..stages.len() {
            assert_eq!(plain.bwd_flops[s], 2.0 * plain.fwd_flops[s]);
            assert_eq!(ckpt.bwd_flops[s], 3.0 * ckpt.fwd_flops[s]);
            assert_eq!(plain.fwd_flops[s], ckpt.fwd_flops[s]);
        }
        assert_eq!(plain.msg_bytes, 2 * 8 * 4);
    }

    #[test]
    fn recompute_labels_are_stable() {
        assert_eq!(Recompute::None.label(), "none");
        assert_eq!(Recompute::Full.to_string(), "full");
        assert_eq!(Recompute::ALL, [Recompute::None, Recompute::Full]);
    }
}
