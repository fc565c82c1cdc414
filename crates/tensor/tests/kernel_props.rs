//! Bitwise-identity property tests for the gemm fast path.
//!
//! The determinism contract of the tensor substrate: the register-tiled
//! micro-kernel — serial or banded over the pool, behind `matmul`,
//! `matmul_at_b` and `matmul_a_bt` alike — produces outputs **bitwise
//! identical** to the test oracle `matmul_reference` (the seed's serial
//! `ikj` gemm) on every input. Shapes are drawn so one product has full
//! tiles *and* row and column remainders, and to straddle the flops gate
//! so serial and pooled dispatches are exercised;
//! values are dense (every element nonzero with probability 1) so a
//! changed reduction order shows up in the low bits — the failure the old
//! identity-matrix test could never see. The write-into kernels
//! (`matmul_at_b`, `transpose_into`) also get an output buffer pre-filled
//! with NaN, so an element they fail to overwrite fails loudly.
//!
//! Seeds live in `proptest-regressions/kernel_props.txt` (committed); they
//! replay first on every run.

use hanayo_tensor::tensor::matmul_parallelizes;
use hanayo_tensor::{Tensor, Transposed};
use proptest::prelude::*;
use std::ops::Range;

fn tensor_strategy(rows: usize, cols: usize) -> BoxedStrategy<Tensor> {
    proptest::collection::vec(-100.0f32..100.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
        .boxed()
}

/// `(m, k, n)` for an `[m,k] × [k,n]` product: up to 69 rows (several
/// full tiles of any tier plus a remainder) by up to 129 inner/outer
/// columns, so `m*k*n` straddles `PAR_FLOP_THRESHOLD` (32k).
fn dims() -> (Range<usize>, Range<usize>, Range<usize>) {
    (1usize..70, 1usize..130, 1usize..130)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_and_parallel_matmul_match_reference_bitwise(
        (a, b) in dims()
            .prop_flat_map(|(m, k, n)| (tensor_strategy(m, k), tensor_strategy(k, n)))
            .boxed(),
    ) {
        let fast = a.matmul(&b);
        let reference = a.matmul_reference(&b);
        prop_assert_eq!(
            bits(&fast), bits(&reference),
            "[{},{}]x[{},{}] parallel={}",
            a.rows, a.cols, b.rows, b.cols,
            matmul_parallelizes(a.rows, a.cols, b.cols)
        );
    }

    #[test]
    fn fused_at_b_matches_transpose_then_matmul_bitwise(
        (a, b) in dims()
            .prop_flat_map(|(ka, m, n)| (tensor_strategy(m, ka), tensor_strategy(m, n)))
            .boxed(),
    ) {
        // aᵀ × b without materializing aᵀ ≡ transpose-then-matmul, to the bit
        // (both the frozen seed route and the current fast route).
        let mut fused = Tensor::default();
        a.matmul_at_b(&b, &mut fused);
        prop_assert_eq!(bits(&fused), bits(&a.transpose().matmul_reference(&b)));
        prop_assert_eq!(bits(&fused), bits(&a.transpose().matmul(&b)));
    }

    #[test]
    fn at_b_into_a_dirty_buffer_overwrites_every_element(
        (a, b) in dims()
            .prop_flat_map(|(ka, m, n)| (tensor_strategy(m, ka), tensor_strategy(m, n)))
            .boxed(),
    ) {
        // The output arrives NaN-filled and larger than the product, as a
        // reused buffer does: one element the kernel skips stays NaN and
        // fails the bit check.
        let mut out = nan_filled(a.cols + 1, b.cols + 3);
        a.matmul_at_b(&b, &mut out);
        prop_assert_eq!((out.rows, out.cols), (a.cols, b.cols));
        prop_assert_eq!(bits(&out), bits(&a.transpose().matmul_reference(&b)));
    }

    #[test]
    fn transpose_into_a_dirty_buffer_overwrites_every_element(
        a in (1usize..70, 1usize..130)
            .prop_flat_map(|(rows, cols)| tensor_strategy(rows, cols))
            .boxed(),
    ) {
        let mut out = nan_filled(a.cols + 2, a.rows + 1);
        a.transpose_into(&mut out);
        prop_assert_eq!((out.rows, out.cols), (a.cols, a.rows));
        let want: Vec<u32> =
            (0..a.cols).flat_map(|c| (0..a.rows).map(move |r| (r, c))).map(|(r, c)| a.get(r, c).to_bits()).collect();
        prop_assert_eq!(bits(&out), want);
    }

    #[test]
    fn fused_a_bt_matches_matmul_then_transpose_bitwise(
        (a, b) in dims()
            .prop_flat_map(|(m, k, n)| (tensor_strategy(m, k), tensor_strategy(n, k)))
            .boxed(),
    ) {
        let fused = a.matmul_a_bt(&Transposed::of(&b));
        prop_assert_eq!(bits(&fused), bits(&a.matmul_reference(&b.transpose())));
        prop_assert_eq!(bits(&fused), bits(&a.matmul(&b.transpose())));
    }
}

fn nan_filled(rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, vec![f32::NAN; rows * cols])
}
