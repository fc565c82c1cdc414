//! The two model architectures of §5 plus the workload knobs.

use serde::{Deserialize, Serialize};

/// A transformer architecture, described by the quantities the cost model
/// needs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Display name.
    pub name: String,
    /// Number of transformer layers (`L`).
    pub layers: u32,
    /// Hidden dimension (`h`).
    pub hidden: u32,
    /// Attention heads (`a`).
    pub heads: u32,
    /// Sequence length (`s`). The paper does not state it; 512 is the
    /// BERT-pretraining standard and keeps the memory shapes consistent
    /// (see EXPERIMENTS.md).
    pub seq_len: u32,
    /// Training dtype width in bytes (2 = fp16 mixed precision).
    pub dtype_bytes: u32,
    /// Static training bytes per parameter. 16 = full mixed-precision Adam
    /// (fp16 weight+grad, fp32 master + two moments); 8 ≈ the same with
    /// ZeRO-1-style sharded optimizer states. Fig. 9 uses 8 — without it,
    /// consolidating half the BERT model per device (Chimera-wave at
    /// P = 4) does not fit a 32 GB V100 under *any* accounting, yet the
    /// paper ran exactly that on the Tencent cluster.
    pub train_bytes_per_param: u32,
}

impl ModelConfig {
    /// The paper's BERT-style model: "64 layers, 64 attention heads, and a
    /// hidden size of 2560".
    pub fn bert64() -> ModelConfig {
        ModelConfig {
            name: "Bert-64L".to_string(),
            layers: 64,
            hidden: 2560,
            heads: 64,
            seq_len: 512,
            dtype_bytes: 2,
            train_bytes_per_param: 16,
        }
    }

    /// Override the static training-state bytes per parameter.
    pub fn with_train_bytes_per_param(mut self, bytes: u32) -> ModelConfig {
        self.train_bytes_per_param = bytes;
        self
    }

    /// The paper's GPT-style model: "128 layers, 16 attention heads, and a
    /// hidden size of 1024".
    pub fn gpt128() -> ModelConfig {
        ModelConfig {
            name: "GPT-128L".to_string(),
            layers: 128,
            hidden: 1024,
            heads: 16,
            seq_len: 512,
            dtype_bytes: 2,
            train_bytes_per_param: 16,
        }
    }

    /// Parameters in one transformer layer: `12h² + 13h`
    /// (QKV + projection + two 4h MLP matrices + biases + norms).
    pub(crate) fn params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        12 * h * h + 13 * h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert64_is_a_5b_model() {
        let m = ModelConfig::bert64();
        let p = m.params_per_layer() * m.layers as u64;
        assert!(p > 4_900_000_000 && p < 5_200_000_000, "{p}");
    }

    #[test]
    fn gpt128_is_a_1_6b_model() {
        let m = ModelConfig::gpt128();
        let p = m.params_per_layer() * m.layers as u64;
        assert!(p > 1_500_000_000 && p < 1_700_000_000, "{p}");
    }

    #[test]
    fn params_scale_quadratically_in_hidden() {
        let b = ModelConfig::bert64();
        let g = ModelConfig::gpt128();
        // 2560/1024 = 2.5; per-layer ratio ≈ 6.25
        let ratio = b.params_per_layer() as f64 / g.params_per_layer() as f64;
        assert!((ratio - 6.25).abs() < 0.05, "{ratio}");
    }
}
