//! Per-layer compute and activation costs, standard accounting.

use crate::config::ModelConfig;

/// Forward FLOPs for one transformer layer on a micro-batch of `b`
/// sequences: `24·b·s·h² + 4·b·s²·h` (matmul-dominated; the first term is
/// the four h×h-class projections plus the 8h² MLP, the second the
/// attention score/context products).
pub(crate) fn fwd_flops_per_layer(m: &ModelConfig, micro_batch: u32) -> f64 {
    let (b, s, h) = (micro_batch as f64, m.seq_len as f64, m.hidden as f64);
    24.0 * b * s * h * h + 4.0 * b * s * s * h
}

/// Bytes of activation stash one layer keeps for backward, per micro-batch
/// of `b` sequences: `s·b·h·(34 + 5·a·s/h)` (fp16, no selective
/// recomputation — the paper benchmarks without activation checkpointing).
pub fn act_bytes_per_layer(m: &ModelConfig, micro_batch: u32) -> u64 {
    let (b, s, h, a) = (micro_batch as f64, m.seq_len as f64, m.hidden as f64, m.heads as f64);
    (s * b * h * (34.0 + 5.0 * a * s / h)) as u64
}

/// Bytes of the activation tensor flowing between two stages for one
/// micro-batch: `b·s·h·dtype`.
pub fn boundary_bytes(m: &ModelConfig, micro_batch: u32) -> u64 {
    (micro_batch * m.seq_len * m.hidden * m.dtype_bytes) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_layer_flops_magnitude() {
        // 24·1·512·2560² ≈ 80.5 GFLOP dominates the 2.7 GFLOP attention term.
        let m = ModelConfig::bert64();
        let f = fwd_flops_per_layer(&m, 1);
        assert!(f > 8.0e10 && f < 9.0e10, "{f}");
    }

    #[test]
    fn costs_scale_linearly_in_microbatch() {
        let m = ModelConfig::bert64();
        assert_eq!(fwd_flops_per_layer(&m, 4), 4.0 * fwd_flops_per_layer(&m, 1));
        assert_eq!(act_bytes_per_layer(&m, 4), 4 * act_bytes_per_layer(&m, 1));
        assert_eq!(boundary_bytes(&m, 4), 4 * boundary_bytes(&m, 1));
    }

    #[test]
    fn bert_activation_stash_magnitude() {
        // 512·2560·(34 + 5·64·512/2560) = 512·2560·98 ≈ 128 MB per sequence.
        let m = ModelConfig::bert64();
        let a = act_bytes_per_layer(&m, 1);
        assert!(a > 120_000_000 && a < 140_000_000, "{a}");
    }

    #[test]
    fn boundary_message_is_mb_s_h_dtype() {
        let m = ModelConfig::bert64();
        assert_eq!(boundary_bytes(&m, 1), 512 * 2560 * 2);
    }

    #[test]
    fn gpt_layers_are_cheaper_than_bert_layers() {
        let b = ModelConfig::bert64();
        let g = ModelConfig::gpt128();
        assert!(fwd_flops_per_layer(&g, 1) < fwd_flops_per_layer(&b, 1));
        assert!(act_bytes_per_layer(&g, 1) < act_bytes_per_layer(&b, 1));
    }
}
