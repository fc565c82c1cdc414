//! Layer→stage partitioning and the per-stage cost table the simulator
//! consumes.
//!
//! Stages get `L/S` layers each. When `S` does not divide `L` the remainder
//! spreads over the first stages (realistic imbalance). When `S > L` —
//! Hanayo with many waves on few layers — stages take *fractional* layers:
//! the paper notes waves can grow "as long as there are sufficient layers
//! within a single stage to divide", and real deployments split at
//! sub-layer granularity (e.g. attention/MLP halves); the cost model
//! handles that exactly, while the real runtime requires whole blocks.

use crate::config::ModelConfig;
use crate::costs;
use crate::memory;
use serde::{Deserialize, Serialize};

/// Per-stage costs of one pipeline configuration, in engine-neutral units
/// (FLOPs and bytes — the simulator divides by device speed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostTable {
    /// Layers per stage (possibly fractional).
    pub layers_per_stage: Vec<f64>,
    /// Forward FLOPs per stage per micro-batch.
    pub fwd_flops: Vec<f64>,
    /// Backward FLOPs per stage per micro-batch.
    pub bwd_flops: Vec<f64>,
    /// Activation-stash bytes per stage per micro-batch.
    pub stash_bytes: Vec<u64>,
    /// Static training bytes (weights+grads+optimizer) per stage.
    pub weight_bytes: Vec<u64>,
    /// fp16 gradient-buffer bytes per stage (the data-parallel all-reduce
    /// volume; independent of the optimizer-state accounting).
    pub grad_bytes: Vec<u64>,
    /// Bytes of one inter-stage activation (or gradient) message.
    pub msg_bytes: u64,
}

/// Activation-recomputation mode (§6's "memory saving techniques ...
/// can be combined" — checkpointing trades backward compute for stash).
///
/// This is not only an analytical knob: the threaded runtime executes it
/// (stashing just the stage-input boundary tensor and replaying the stage
/// forward inside the backward), and the simulator, tuner and unit memory
/// replay all account the mode-adjusted stash so the three memory models
/// stay mutually verifiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Recompute {
    /// Stash every internal activation (the paper's benchmarked setting).
    None,
    /// Per-stage checkpointing: stash only the stage's input boundary and
    /// re-run the forward inside the backward (`T_B' = T_B + T_F`).
    Full,
}

impl Recompute {
    /// Every mode, in sweep order.
    pub const ALL: [Recompute; 2] = [Recompute::None, Recompute::Full];

    /// Stable lowercase name (`none` / `full`), used in JSON tables and
    /// snapshot file names.
    pub fn label(self) -> &'static str {
        match self {
            Recompute::None => "none",
            Recompute::Full => "full",
        }
    }
}

impl std::fmt::Display for Recompute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl CostTable {
    /// Build the cost table for `stages` pipeline stages and a micro-batch
    /// of `micro_batch` sequences.
    pub fn build(m: &ModelConfig, stages: u32, micro_batch: u32) -> CostTable {
        CostTable::build_with(m, stages, micro_batch, Recompute::None)
    }

    /// [`CostTable::build`] with an explicit recomputation mode.
    pub fn build_with(
        m: &ModelConfig,
        stages: u32,
        micro_batch: u32,
        recompute: Recompute,
    ) -> CostTable {
        let layers_per_stage = split_layers(m.layers, stages);
        let fwd1 = costs::fwd_flops_per_layer(m, micro_batch);
        let act1 = costs::act_bytes_per_layer(m, micro_batch) as f64;
        let fwd_flops: Vec<f64> = layers_per_stage.iter().map(|l| l * fwd1).collect();
        let bwd_flops: Vec<f64> = fwd_flops
            .iter()
            .map(|f| match recompute {
                Recompute::None => 2.0 * f,
                Recompute::Full => 3.0 * f,
            })
            .collect();
        let boundary = costs::boundary_bytes(m, micro_batch);
        let stash_bytes = layers_per_stage
            .iter()
            .map(|l| match recompute {
                Recompute::None => (l * act1) as u64,
                Recompute::Full => boundary,
            })
            .collect();
        let weight_bytes =
            layers_per_stage.iter().map(|&l| memory::weight_train_bytes(m, l)).collect();
        let grad_bytes = layers_per_stage.iter().map(|&l| memory::grad_bytes(m, l)).collect();
        CostTable {
            layers_per_stage,
            fwd_flops,
            bwd_flops,
            stash_bytes,
            weight_bytes,
            grad_bytes,
            msg_bytes: costs::boundary_bytes(m, micro_batch),
        }
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.fwd_flops.len()
    }

    /// Total forward FLOPs of one micro-batch across the pipeline.
    pub fn total_fwd_flops(&self) -> f64 {
        self.fwd_flops.iter().sum()
    }

    /// `T_F` in Table 1's sense for a given device speed: the forward time
    /// of `model/P` worth of layers.
    pub fn t_f(&self, devices: u32, flops_per_sec: f64) -> f64 {
        self.total_fwd_flops() / devices as f64 / flops_per_sec
    }
}

/// Split `layers` into `stages` parts: integral when possible, fractional
/// when `stages > layers`.
pub(crate) fn split_layers(layers: u32, stages: u32) -> Vec<f64> {
    assert!(stages > 0);
    if stages <= layers {
        let base = layers / stages;
        let extra = layers % stages;
        (0..stages).map(|s| if s < extra { (base + 1) as f64 } else { base as f64 }).collect()
    } else {
        vec![layers as f64 / stages as f64; stages as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_is_exact() {
        assert_eq!(split_layers(64, 8), vec![8.0; 8]);
    }

    #[test]
    fn remainder_spreads_over_leading_stages() {
        let s = split_layers(10, 4);
        assert_eq!(s, vec![3.0, 3.0, 2.0, 2.0]);
        assert_eq!(s.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn fractional_split_when_more_stages_than_layers() {
        let s = split_layers(4, 16);
        assert_eq!(s, vec![0.25; 16]);
        assert!((s.iter().sum::<f64>() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cost_table_conserves_totals() {
        let m = ModelConfig::bert64();
        let t8 = CostTable::build(&m, 8, 2);
        let t32 = CostTable::build(&m, 32, 2);
        assert!((t8.total_fwd_flops() - t32.total_fwd_flops()).abs() < 1e-3);
        let w8: u64 = t8.weight_bytes.iter().sum();
        let w32: u64 = t32.weight_bytes.iter().sum();
        assert!((w8 as i64 - w32 as i64).unsigned_abs() < 1000);
    }

    #[test]
    fn t_f_matches_hand_computation() {
        // BERT/8 devices at 140 TFLOP/s effective: 8 layers ≈ 0.665 TFLOP
        // forward → ~4.7 ms.
        let m = ModelConfig::bert64();
        let t = CostTable::build(&m, 8, 1);
        let tf = t.t_f(8, 140e12);
        assert!(tf > 3.5e-3 && tf < 6.0e-3, "{tf}");
    }

    #[test]
    fn msg_bytes_independent_of_stage_count() {
        let m = ModelConfig::gpt128();
        assert_eq!(CostTable::build(&m, 8, 2).msg_bytes, CostTable::build(&m, 64, 2).msg_bytes);
    }

    #[test]
    fn wave_stage_tables_shrink_per_stage_cost() {
        let m = ModelConfig::bert64();
        let straight = CostTable::build(&m, 8, 1);
        let wave2 = CostTable::build(&m, 32, 1); // P=8, W=2 → S=32
        assert!(wave2.fwd_flops[0] < straight.fwd_flops[0]);
        assert_eq!(wave2.stages(), 32);
    }

    #[test]
    fn recompute_trades_memory_for_backward_time() {
        let m = ModelConfig::bert64();
        let plain = CostTable::build_with(&m, 8, 2, Recompute::None);
        let ckpt = CostTable::build_with(&m, 8, 2, Recompute::Full);
        // Stash shrinks by orders of magnitude (boundary only)...
        assert!(ckpt.stash_bytes[0] * 20 < plain.stash_bytes[0]);
        // ...backward grows by exactly one forward.
        assert!((ckpt.bwd_flops[0] - plain.bwd_flops[0] - plain.fwd_flops[0]).abs() < 1.0);
        // Forward pass and weights are untouched.
        assert_eq!(ckpt.fwd_flops, plain.fwd_flops);
        assert_eq!(ckpt.weight_bytes, plain.weight_bytes);
    }

    #[test]
    fn recompute_stash_is_the_boundary_tensor() {
        let m = ModelConfig::gpt128();
        let ckpt = CostTable::build_with(&m, 16, 3, Recompute::Full);
        for &s in &ckpt.stash_bytes {
            assert_eq!(s, ckpt.msg_bytes);
        }
    }
}
