//! Loss functions: value plus gradient w.r.t. the prediction, in one call
//! (the pipeline's last stage computes both at the turnaround).

use crate::ops;
use crate::tensor::Tensor;

/// Mean-squared error over all elements. Returns `(loss, dL/dpred)`.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!((pred.rows, pred.cols), (target.rows, target.cols));
    let n = pred.len() as f32;
    let mut grad = pred.clone();
    grad.axpy(-1.0, target);
    let loss = grad.data.iter().map(|v| v * v).sum::<f32>() / n;
    grad.scale(2.0 / n);
    (loss, grad)
}

/// Row-wise softmax cross-entropy against integer class labels.
/// Returns `(mean loss, dL/dlogits)`.
///
/// The exponentials are [`ops::exp`]; the `ln` of the loss value is the
/// one libm call left in the crate, and no gradient reads it.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.rows, labels.len());
    let mut grad = Tensor::zeros(logits.rows, logits.cols);
    let mut loss = 0.0f64;
    let inv_rows = 1.0 / logits.rows as f32;
    for r in 0..logits.rows {
        let row = logits.row(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|v| ops::exp(v - max)).collect();
        let sum: f32 = exps.iter().sum();
        let label = labels[r];
        assert!(label < logits.cols, "label out of range");
        loss -= ((exps[label] / sum).ln()) as f64;
        for c in 0..logits.cols {
            let p = exps[c] / sum;
            *grad.get_mut(r, c) = (p - if c == label { 1.0 } else { 0.0 }) * inv_rows;
        }
    }
    ((loss as f32) * inv_rows, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_equal_tensors_is_zero() {
        let a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let (l, g) = mse(&a, &a);
        assert_eq!(l, 0.0);
        assert!(g.data.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn mse_gradient_points_at_target() {
        let pred = Tensor::from_vec(1, 2, vec![1.0, 0.0]);
        let target = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        let (l, g) = mse(&pred, &target);
        assert!((l - 0.5).abs() < 1e-6);
        assert!(g.data[0] > 0.0 && g.data[1] == 0.0);
    }

    #[test]
    fn mse_gradient_finite_difference() {
        let pred = Tensor::from_vec(1, 3, vec![0.3, -0.8, 1.2]);
        let target = Tensor::from_vec(1, 3, vec![0.0, 0.5, 1.0]);
        let (_, g) = mse(&pred, &target);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut p = pred.clone();
            p.data[i] += eps;
            let (lp, _) = mse(&p, &target);
            p.data[i] -= 2.0 * eps;
            let (lm, _) = mse(&p, &target);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - g.data[i]).abs() < 1e-3, "i={i}");
        }
    }

    #[test]
    fn xent_prefers_correct_label() {
        let logits = Tensor::from_vec(1, 3, vec![2.0, 0.0, 0.0]);
        let (l_good, _) = softmax_cross_entropy(&logits, &[0]);
        let (l_bad, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(l_good < l_bad);
    }

    #[test]
    fn xent_gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(2, 4, vec![0.1, -0.2, 0.5, 1.0, 2.0, 0.0, -1.0, 0.3]);
        let (_, g) = softmax_cross_entropy(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f32 = g.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn xent_gradient_finite_difference() {
        let logits = Tensor::from_vec(1, 3, vec![0.5, -0.1, 0.9]);
        let (_, g) = softmax_cross_entropy(&logits, &[1]);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut p = logits.clone();
            p.data[i] += eps;
            let (lp, _) = softmax_cross_entropy(&p, &[1]);
            p.data[i] -= 2.0 * eps;
            let (lm, _) = softmax_cross_entropy(&p, &[1]);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - g.data[i]).abs() < 1e-3, "i={i} fd={fd} g={}", g.data[i]);
        }
    }
}
