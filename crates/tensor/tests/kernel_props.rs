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
//! (`matmul_into`, `matmul_at_b`, `matmul_a_bt`, `transpose_into`) also get
//! an output buffer pre-filled with NaN, so an element they fail to
//! overwrite fails loudly; so does a whole stage forward and backward on a
//! free list stocked with NaN buffers, which covers every recycled
//! activation, product and statistic and every in-place gradient step.
//!
//! Seeds live in `proptest-regressions/kernel_props.txt` (committed); they
//! replay first on every run.

use hanayo_tensor::rng::{seeded, uniform};
use hanayo_tensor::tensor::matmul_parallelizes;
use hanayo_tensor::{Block, FreeList, GradScratch, Stage, Tensor, Transposed};
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
        let mut fused = Tensor::default();
        a.matmul_a_bt(&Transposed::of(&b), &mut fused);
        prop_assert_eq!(bits(&fused), bits(&a.matmul_reference(&b.transpose())));
        prop_assert_eq!(bits(&fused), bits(&a.matmul(&b.transpose())));
    }

    #[test]
    fn a_bt_and_matmul_into_dirty_buffers_overwrite_every_element(
        (a, b) in dims()
            .prop_flat_map(|(m, k, n)| (tensor_strategy(m, k), tensor_strategy(n, k)))
            .boxed(),
    ) {
        let want = a.matmul_reference(&b.transpose());
        let mut out = nan_filled(a.rows + 2, b.rows + 1);
        a.matmul_a_bt(&Transposed::of(&b), &mut out);
        prop_assert_eq!((out.rows, out.cols), (a.rows, b.rows));
        prop_assert_eq!(bits(&out), bits(&want));
        let mut out = nan_filled(a.rows + 1, b.rows + 2);
        a.matmul_into(&b.transpose(), &mut out);
        prop_assert_eq!((out.rows, out.cols), (a.rows, b.rows));
        prop_assert_eq!(bits(&out), bits(&want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stage_on_a_nan_stocked_free_list_matches_fresh_buffers_bitwise(
        seed in 0u64..1000,
        rows in 1usize..9,
        width in 1usize..40,
        depth in 1usize..3,
    ) {
        // LayerNorm, Linear and GELU blocks from `Stage::mlp`, and a ReLU.
        let mut stage = Stage::mlp(&mut seeded(seed), width, depth);
        stage.blocks.push(Block::Relu);
        let x = uniform(&mut seeded(seed + 1), rows, width, 1.0);
        let dy = uniform(&mut seeded(seed + 2), rows, width, 1.0);
        let (want_y, want_stash) = stage.forward(&x);
        let (want_dx, want_grads) = stage.backward(&want_stash, &dy);

        // Every buffer the passes could take is listed NaN-filled: an
        // element a recycled or in-place output fails to overwrite stays
        // NaN and fails the bit check.
        let mut list = FreeList::default();
        for _ in 0..4 * stage.blocks.len() {
            list.give(vec![f32::NAN; rows * width]);
            list.give(vec![f32::NAN; rows]);
        }
        let (y, stash) = stage.forward_with(x.clone(), &mut list);
        prop_assert_eq!(bits(&y), bits(&want_y));
        prop_assert_eq!(stash.bytes(), want_stash.bytes());
        let mut grads = stage.zero_grads();
        let wt = stage.transposed_weights();
        let dx = stage.backward_into(
            stash, dy, &wt, &mut GradScratch::default(), &mut grads, &mut list,
        );
        prop_assert_eq!(bits(&dx), bits(&want_dx));
        let flat = |g: &hanayo_tensor::StageGrads| -> Vec<u32> {
            g.flat().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(flat(&grads), flat(&want_grads));
    }
}

fn nan_filled(rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, vec![f32::NAN; rows * cols])
}
