//! Property tests for the math substrate: gradients against finite
//! differences on random shapes, algebraic identities of the tensor ops,
//! and accumulation linearity.

use hanayo_tensor::loss::{mse, softmax_cross_entropy};
use hanayo_tensor::rng::{seeded, uniform};
use hanayo_tensor::{Stage, Tensor};
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 2),
        c in tensor_strategy(4, 2),
    ) {
        // a(b + c) == ab + ac (exact: same operation order per element).
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn transpose_is_involutive(a in tensor_strategy(5, 3)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_transpose_identity(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 2),
    ) {
        // (ab)^T == b^T a^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn mse_is_nonnegative_and_zero_iff_equal(a in tensor_strategy(2, 5)) {
        let (l_same, g) = mse(a.clone(), &a);
        prop_assert_eq!(l_same, 0.0);
        prop_assert!(g.data.iter().all(|v| *v == 0.0));
        let mut b = a.clone();
        b.data[3] += 1.0;
        let (l_diff, _) = mse(a.clone(), &b);
        prop_assert!(l_diff > 0.0);
    }

    #[test]
    fn xent_gradient_rows_sum_to_zero(
        logits in tensor_strategy(3, 5),
        labels in proptest::collection::vec(0usize..5, 3),
    ) {
        let (_, g) = softmax_cross_entropy(logits, &labels);
        for r in 0..3 {
            let s: f32 = g.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn stage_input_gradcheck_random_shapes(
        seed in 0u64..500,
        width in 4usize..10,
        depth in 1usize..3,
    ) {
        let stage = Stage::mlp(&mut seeded(seed), width, depth);
        let x = uniform(&mut seeded(seed + 1), 2, width, 0.7);
        let dy = uniform(&mut seeded(seed + 2), 2, width, 0.7);
        let (_, stash) = stage.forward(&x);
        let (dx, _) = stage.backward(&stash, &dy);
        let obj = |xx: &Tensor| -> f32 {
            let (y, _) = stage.forward(xx);
            y.data.iter().zip(&dy.data).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2f32;
        // Check a handful of coordinates (full sweeps are the unit tests').
        for i in [0usize, width / 2, width, 2 * width - 1] {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.data[i] += eps;
            xm.data[i] -= eps;
            let fd = (obj(&xp) - obj(&xm)) / (2.0 * eps);
            prop_assert!(
                (fd - dx.data[i]).abs() < 5e-2 * (1.0 + fd.abs()),
                "seed {seed} i={i}: fd {fd} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn gradient_accumulation_is_linear(
        seed in 0u64..500,
    ) {
        let stage = Stage::mlp(&mut seeded(seed), 6, 1);
        let x1 = uniform(&mut seeded(seed + 1), 2, 6, 0.5);
        let x2 = uniform(&mut seeded(seed + 2), 2, 6, 0.5);
        let dy = uniform(&mut seeded(seed + 3), 2, 6, 0.5);
        let g = |x: &Tensor| {
            let (_, stash) = stage.forward(x);
            stage.backward(&stash, &dy).1
        };
        let mut acc = stage.zero_grads();
        acc.accumulate(&g(&x1));
        acc.accumulate(&g(&x2));
        let mut acc_rev = stage.zero_grads();
        acc_rev.accumulate(&g(&x2));
        acc_rev.accumulate(&g(&x1));
        // Addition of two grads is commutative to float tolerance...
        let diff = acc
            .flat()
            .iter()
            .zip(acc_rev.flat())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(diff < 1e-6);
    }

    #[test]
    fn forward_is_pure(seed in 0u64..200) {
        let stage = Stage::mlp(&mut seeded(seed), 8, 2);
        let x = uniform(&mut seeded(seed + 9), 3, 8, 0.9);
        let (y1, _) = stage.forward(&x);
        let (y2, _) = stage.forward(&x);
        prop_assert_eq!(y1, y2);
    }
}
