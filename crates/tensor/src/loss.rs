//! Loss functions: value plus gradient w.r.t. the prediction, in one call
//! (the pipeline's last stage computes both at the turnaround).

use crate::ops;
use crate::tensor::Tensor;

/// Mean-squared error over all elements. Returns `(loss, dL/dpred)`, the
/// gradient written over `pred`'s buffer.
pub fn mse(pred: Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!((pred.rows, pred.cols), (target.rows, target.cols));
    let n = pred.len() as f32;
    let mut grad = pred;
    grad.axpy(-1.0, target);
    let loss = grad.data.iter().map(|v| v * v).sum::<f32>() / n;
    grad.scale(2.0 / n);
    (loss, grad)
}

/// Row-wise softmax cross-entropy against integer class labels.
/// Returns `(mean loss, dL/dlogits)`, the gradient written over `logits`'
/// buffer: each row holds its exponentials, then its gradient.
///
/// The exponentials are [`ops::exp`]; the `ln` of the loss value is the
/// one libm call left in the crate, and no gradient reads it.
pub fn softmax_cross_entropy(logits: Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.rows, labels.len());
    let mut grad = logits;
    let mut loss = 0.0f64;
    let inv_rows = 1.0 / grad.rows as f32;
    let cols = grad.cols;
    for (row, &label) in grad.data.chunks_mut(cols).zip(labels) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v = ops::exp(*v - max);
        }
        let sum: f32 = row.iter().sum();
        assert!(label < cols, "label out of range");
        loss -= ((row[label] / sum).ln()) as f64;
        for (c, v) in row.iter_mut().enumerate() {
            let p = *v / sum;
            *v = (p - if c == label { 1.0 } else { 0.0 }) * inv_rows;
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
        let (l, g) = mse(a.clone(), &a);
        assert_eq!(l, 0.0);
        assert!(g.data.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn mse_gradient_points_at_target() {
        let pred = Tensor::from_vec(1, 2, vec![1.0, 0.0]);
        let target = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        let (l, g) = mse(pred.clone(), &target);
        assert!((l - 0.5).abs() < 1e-6);
        assert!(g.data[0] > 0.0 && g.data[1] == 0.0);
    }

    #[test]
    fn mse_gradient_finite_difference() {
        let pred = Tensor::from_vec(1, 3, vec![0.3, -0.8, 1.2]);
        let target = Tensor::from_vec(1, 3, vec![0.0, 0.5, 1.0]);
        let (_, g) = mse(pred.clone(), &target);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut p = pred.clone();
            p.data[i] += eps;
            let (lp, _) = mse(p.clone(), &target);
            p.data[i] -= 2.0 * eps;
            let (lm, _) = mse(p.clone(), &target);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - g.data[i]).abs() < 1e-3, "i={i}");
        }
    }

    #[test]
    fn xent_prefers_correct_label() {
        let logits = Tensor::from_vec(1, 3, vec![2.0, 0.0, 0.0]);
        let (l_good, _) = softmax_cross_entropy(logits.clone(), &[0]);
        let (l_bad, _) = softmax_cross_entropy(logits.clone(), &[1]);
        assert!(l_good < l_bad);
    }

    #[test]
    fn xent_gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(2, 4, vec![0.1, -0.2, 0.5, 1.0, 2.0, 0.0, -1.0, 0.3]);
        let (_, g) = softmax_cross_entropy(logits.clone(), &[2, 0]);
        for r in 0..2 {
            let s: f32 = g.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn xent_gradient_finite_difference() {
        let logits = Tensor::from_vec(1, 3, vec![0.5, -0.1, 0.9]);
        let (_, g) = softmax_cross_entropy(logits.clone(), &[1]);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut p = logits.clone();
            p.data[i] += eps;
            let (lp, _) = softmax_cross_entropy(p.clone(), &[1]);
            p.data[i] -= 2.0 * eps;
            let (lm, _) = softmax_cross_entropy(p.clone(), &[1]);
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - g.data[i]).abs() < 1e-3, "i={i} fd={fd} g={}", g.data[i]);
        }
    }
}
