//! Training memory accounting: what one parameter really costs.

use crate::config::ModelConfig;

/// Bytes of the fp16 gradient buffer alone (what the data-parallel
/// all-reduce actually moves).
pub(crate) const GRAD_BYTES_PER_PARAM: u64 = 2;

/// Static training bytes for `layers` transformer layers (weights, grads
/// and optimizer state — everything except the activation stash).
pub(crate) fn weight_train_bytes(m: &ModelConfig, layers: f64) -> u64 {
    (layers * m.params_per_layer() as f64 * m.train_bytes_per_param as f64) as u64
}

/// Gradient-buffer bytes for `layers` transformer layers.
pub fn grad_bytes(m: &ModelConfig, layers: f64) -> u64 {
    (layers * m.params_per_layer() as f64 * GRAD_BYTES_PER_PARAM as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_full_model_is_80gb_class() {
        // ~5B params × 16 B ≈ 80 GB — why BERT-64L *must* be pipelined.
        let m = ModelConfig::bert64();
        let gb = weight_train_bytes(&m, m.layers as f64) as f64 / 1e9;
        assert!(gb > 78.0 && gb < 84.0, "{gb}");
    }

    #[test]
    fn per_device_share_fits_a100_at_p8() {
        let m = ModelConfig::bert64();
        let per_dev = weight_train_bytes(&m, 64.0 / 8.0) as f64 / 1e9;
        assert!(per_dev > 9.0 && per_dev < 11.0, "{per_dev}");
    }

    #[test]
    fn fractional_layers_interpolate() {
        let m = ModelConfig::gpt128();
        let half = weight_train_bytes(&m, 0.5);
        let full = weight_train_bytes(&m, 1.0);
        assert!((2 * half) as i64 - full as i64 <= 1);
    }

    #[test]
    fn lighter_accounting_halves_the_bill() {
        let m = ModelConfig::bert64();
        let zero1 = m.clone().with_train_bytes_per_param(8);
        assert_eq!(weight_train_bytes(&zero1, 8.0) * 2, weight_train_bytes(&m, 8.0));
        // Gradient traffic is accounting-independent.
        assert_eq!(grad_bytes(&zero1, 8.0), grad_bytes(&m, 8.0));
    }
}
