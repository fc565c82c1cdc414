//! Pipeline stage modules: the unit of model partitioning.
//!
//! A [`Stage`] is a sequential stack of [`Block`]s — the "local module" a
//! device executes when its action list says `Forward(mb, stage)`. Forward
//! returns an explicit [`StageStash`] that the engine keeps until the
//! matching backward; backward returns the input gradient (to send
//! upstream) and adds the parameter gradients into a [`StageGrads`]
//! accumulator, in whatever micro-batch order the caller controls.

use crate::free_list::FreeList;
use crate::ops;
use crate::rng;
use crate::tensor::{Tensor, Transposed};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// One primitive layer inside a stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Block {
    /// Affine map `y = x·W + b`.
    Linear {
        /// Weight `[in, out]`.
        w: Tensor,
        /// Bias `[out]`.
        b: Vec<f32>,
    },
    /// Exact GELU activation.
    Gelu,
    /// ReLU activation.
    Relu,
    /// Row-wise layer normalisation with learned gain/bias.
    LayerNorm {
        /// Per-feature gain.
        gain: Vec<f32>,
        /// Per-feature bias.
        bias: Vec<f32>,
        /// Variance epsilon.
        eps: f32,
    },
}

/// Saved forward state of one block, consumed by its backward.
#[derive(Debug, Clone)]
pub(crate) enum BlockStash {
    /// Linear saves its input.
    Input(Tensor),
    /// LayerNorm saves the normalised activations and the inverse std.
    Norm {
        /// Normalised (pre-affine) activations.
        xhat: Tensor,
        /// Saved `1/σ` per row.
        inv_std: Vec<f32>,
    },
}

/// Saved forward state of a whole stage for one micro-batch.
#[derive(Debug, Clone)]
pub struct StageStash {
    pub(crate) per_block: Vec<BlockStash>,
}

impl StageStash {
    /// Approximate resident bytes of this stash (activation memory).
    pub fn bytes(&self) -> usize {
        self.per_block
            .iter()
            .map(|s| match s {
                BlockStash::Input(t) => t.len() * 4,
                BlockStash::Norm { xhat, inv_std } => xhat.len() * 4 + inv_std.len() * 4,
            })
            .sum()
    }
}

/// Parameter gradients of one block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BlockGrads {
    /// Gradients of a linear block.
    Linear {
        /// `dL/dW`.
        dw: Tensor,
        /// `dL/db`.
        db: Vec<f32>,
    },
    /// Parameter-free block.
    None,
    /// Gradients of a layernorm block.
    LayerNorm {
        /// `dL/dgain`.
        dgain: Vec<f32>,
        /// `dL/dbias`.
        dbias: Vec<f32>,
    },
}

/// Parameter gradients of a whole stage; supports exact accumulation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageGrads {
    /// One entry per block, aligned with the stage's block list.
    pub per_block: Vec<BlockGrads>,
}

/// `acc += v`, element-wise.
fn add_to(acc: &mut [f32], v: &[f32]) {
    for (x, y) in acc.iter_mut().zip(v) {
        *x += y;
    }
}

impl StageGrads {
    /// Accumulate `other` into `self` (element-wise add, fixed order).
    pub fn accumulate(&mut self, other: &StageGrads) {
        assert_eq!(self.per_block.len(), other.per_block.len());
        for (a, b) in self.per_block.iter_mut().zip(&other.per_block) {
            match (a, b) {
                (BlockGrads::Linear { dw, db }, BlockGrads::Linear { dw: dw2, db: db2 }) => {
                    dw.add_assign(dw2);
                    add_to(db, db2);
                }
                (
                    BlockGrads::LayerNorm { dgain, dbias },
                    BlockGrads::LayerNorm { dgain: g2, dbias: b2 },
                ) => {
                    add_to(dgain, g2);
                    add_to(dbias, b2);
                }
                (BlockGrads::None, BlockGrads::None) => {}
                _ => panic!("gradient shape mismatch"),
            }
        }
    }

    /// Reset every gradient to `+0.0` in place, ready for the next round
    /// of accumulation.
    pub fn zero(&mut self) {
        for g in &mut self.per_block {
            match g {
                BlockGrads::Linear { dw, db } => {
                    dw.data.fill(0.0);
                    db.fill(0.0);
                }
                BlockGrads::LayerNorm { dgain, dbias } => {
                    dgain.fill(0.0);
                    dbias.fill(0.0);
                }
                BlockGrads::None => {}
            }
        }
    }

    /// Scale all gradients (e.g. by `1/B` for mean-reduction losses).
    pub fn scale(&mut self, alpha: f32) {
        for g in &mut self.per_block {
            match g {
                BlockGrads::Linear { dw, db } => {
                    dw.scale(alpha);
                    for v in db {
                        *v *= alpha;
                    }
                }
                BlockGrads::LayerNorm { dgain, dbias } => {
                    for v in dgain {
                        *v *= alpha;
                    }
                    for v in dbias {
                        *v *= alpha;
                    }
                }
                BlockGrads::None => {}
            }
        }
    }

    /// Flatten to a single vector (testing / optimizer state bootstrap).
    pub fn flat(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for g in &self.per_block {
            match g {
                BlockGrads::Linear { dw, db } => {
                    out.extend_from_slice(&dw.data);
                    out.extend_from_slice(db);
                }
                BlockGrads::LayerNorm { dgain, dbias } => {
                    out.extend_from_slice(dgain);
                    out.extend_from_slice(dbias);
                }
                BlockGrads::None => {}
            }
        }
        out
    }
}

/// Each Linear block's `Wᵀ`, aligned with the stage's block list: the
/// laid-out operand of the backward's `dy × Wᵀ` product. Weights change
/// only at an optimizer step, so one build ([`Stage::transposed_weights`])
/// serves every micro-batch until [`TransposedWeights::refresh`] after the
/// step. It lives beside the stage, not in a [`Block`], so the stage's
/// serde and equality surface stays the weights alone.
#[derive(Debug, Clone)]
pub struct TransposedWeights {
    per_block: Vec<Option<Transposed>>,
}

impl TransposedWeights {
    /// Re-lay out every `Wᵀ` from `stage`'s current weights, in place.
    pub fn refresh(&mut self, stage: &Stage) {
        for (block, wt) in stage.blocks.iter().zip(&mut self.per_block) {
            if let (Block::Linear { w, .. }, Some(wt)) = (block, wt) {
                wt.refresh(w);
            }
        }
    }
}

/// Reused buffers for [`Stage::backward_into`]: one micro-batch's `dW`
/// and one per-feature sum, overwritten block by block. One per thread
/// serves any number of stages.
#[derive(Debug, Clone, Default)]
pub struct GradScratch {
    dw: Tensor,
    sums: Vec<f32>,
}

/// A sequential stack of blocks — one pipeline stage's local module.
///
/// Serde round-trips are bit-exact (see [`Tensor`]), so a stage written
/// into a checkpoint and read back trains on from *identical* weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// The blocks, applied in order.
    pub blocks: Vec<Block>,
}

impl Stage {
    /// An MLP stage: `depth` repetitions of `LayerNorm → Linear → Gelu`
    /// at a fixed `width`. The shape every model builder in
    /// `hanayo-model` uses.
    pub fn mlp(rng: &mut StdRng, width: usize, depth: usize) -> Stage {
        let mut blocks = Vec::with_capacity(3 * depth);
        for _ in 0..depth {
            blocks.push(Block::LayerNorm {
                gain: vec![1.0; width],
                bias: vec![0.0; width],
                eps: 1e-5,
            });
            blocks.push(Block::Linear { w: rng::he_init(rng, width, width), b: vec![0.0; width] });
            blocks.push(Block::Gelu);
        }
        Stage { blocks }
    }

    /// An empty stage (identity).
    #[cfg(test)]
    pub(crate) fn identity() -> Stage {
        Stage { blocks: Vec::new() }
    }

    /// All parameters flattened into one vector (block order, weights
    /// before biases). Useful for checkpoints and cross-run comparisons.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for block in &self.blocks {
            match block {
                Block::Linear { w, b } => {
                    out.extend_from_slice(&w.data);
                    out.extend_from_slice(b);
                }
                Block::LayerNorm { gain, bias, .. } => {
                    out.extend_from_slice(gain);
                    out.extend_from_slice(bias);
                }
                _ => {}
            }
        }
        out
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match b {
                Block::Linear { w, b } => w.len() + b.len(),
                Block::LayerNorm { gain, bias, .. } => gain.len() + bias.len(),
                _ => 0,
            })
            .sum()
    }

    /// Forward pass; returns the output and the stash for backward. A
    /// one-shot wrapper over [`Stage::forward_with`] on a copy of `x` and
    /// a fresh [`FreeList`].
    pub fn forward(&self, x: &Tensor) -> (Tensor, StageStash) {
        self.forward_with(x.clone(), &mut FreeList::default())
    }

    /// Forward pass on an owned input; returns the output and the stash
    /// for backward.
    ///
    /// Each block's input moves into the stash instead of being copied (a
    /// LayerNorm's, which its backward does not read, goes back to `list`),
    /// and every output comes from `list`, so a device that recycles its
    /// stashes allocates nothing here once its list is stocked. The bias
    /// and affine loops run row-wise over slices — the iteration order
    /// (rows outer, columns inner) and the per-element operations are the
    /// seed's exactly, so outputs are bitwise unchanged.
    pub fn forward_with(&self, x: Tensor, list: &mut FreeList) -> (Tensor, StageStash) {
        let mut cur = x;
        let mut per_block = list.stash_shell(self.blocks.len());
        for block in &self.blocks {
            match block {
                Block::Linear { w, b } => {
                    let mut y = list.tensor(cur.rows, w.cols);
                    cur.matmul_into(w, &mut y);
                    for row in y.data.chunks_mut(y.cols) {
                        for (v, &bias) in row.iter_mut().zip(b) {
                            *v += bias;
                        }
                    }
                    per_block.push(BlockStash::Input(std::mem::replace(&mut cur, y)));
                }
                Block::Gelu => {
                    let mut y = list.tensor(cur.rows, cur.cols);
                    ops::gelu(&cur, &mut y.data);
                    per_block.push(BlockStash::Input(std::mem::replace(&mut cur, y)));
                }
                Block::Relu => {
                    let mut y = list.tensor(cur.rows, cur.cols);
                    ops::relu(&cur, &mut y.data);
                    per_block.push(BlockStash::Input(std::mem::replace(&mut cur, y)));
                }
                Block::LayerNorm { gain, bias, eps } => {
                    let mut xhat = list.tensor(cur.rows, cur.cols);
                    let mut inv_std = list.take(cur.rows);
                    ops::layernorm(&cur, *eps, &mut xhat.data, &mut inv_std);
                    let mut y = list.tensor(cur.rows, cur.cols);
                    let rows = y.data.chunks_mut(y.cols).zip(xhat.data.chunks(xhat.cols));
                    for (row, xrow) in rows {
                        for (((v, &xh), &g), &bv) in row.iter_mut().zip(xrow).zip(gain).zip(bias) {
                            *v = xh * g + bv;
                        }
                    }
                    per_block.push(BlockStash::Norm { xhat, inv_std });
                    list.recycle(std::mem::replace(&mut cur, y));
                }
            }
        }
        (cur, StageStash { per_block })
    }

    /// Backward pass; returns `(dL/dx, parameter gradients)`. A one-shot
    /// wrapper over the core of [`Stage::backward_into`] with a copy of
    /// `dy` and a fresh accumulator, scratch, `Wᵀ` and [`FreeList`]; the
    /// gradients are the per-micro-batch values to the bit (`+0.0 + g == g`
    /// for every `g` a backward produces, since none of its sums can yield
    /// `-0.0`).
    pub fn backward(&self, stash: &StageStash, dy: &Tensor) -> (Tensor, StageGrads) {
        let mut grads = self.zero_grads();
        let wt = self.transposed_weights();
        let (scratch, list) = (&mut GradScratch::default(), &mut FreeList::default());
        let dx = self.backward_core(stash, dy.clone(), &wt, scratch, &mut grads, list);
        (dx, grads)
    }

    /// Backward pass that adds this micro-batch's parameter gradients into
    /// `acc` and returns `dL/dx`, consuming the stash and `dy`.
    ///
    /// Each gradient is first summed on its own in `scratch` (from `+0.0`,
    /// exactly as a standalone backward would) and then added to `acc`, so
    /// calling this for micro-batches `0, 1, …` in turn yields the bits of
    /// `((0 + g₀) + g₁) + …` — the flush's reduction order — with no
    /// per-micro-batch gradient container. `wt` must hold this stage's
    /// current weights ([`Stage::transposed_weights`]).
    ///
    /// The gradient flows through `dy`'s buffer: GELU and ReLU backward,
    /// the LayerNorm gain scale and the LayerNorm backward (once its row
    /// sums are taken) work in place, and only a Linear's `dy × Wᵀ` takes a
    /// buffer from `list`. The spent `dy` of each Linear and every stash
    /// buffer go back to `list`.
    ///
    /// Linear blocks route through the fused transposed kernels
    /// ([`Tensor::matmul_at_b`] / [`Tensor::matmul_a_bt`]) instead of
    /// materializing `xᵀ` / `Wᵀ` copies per micro-batch; the kernels are
    /// bitwise identical to the transpose-then-matmul seed path (the
    /// kernel tests pin them against [`Tensor::matmul_reference`] on this
    /// stage's shapes), so gradients are unchanged to the bit.
    pub fn backward_into(
        &self,
        stash: StageStash,
        dy: Tensor,
        wt: &TransposedWeights,
        scratch: &mut GradScratch,
        acc: &mut StageGrads,
        list: &mut FreeList,
    ) -> Tensor {
        let dx = self.backward_core(&stash, dy, wt, scratch, acc, list);
        list.recycle_stash(stash);
        dx
    }

    /// The backward both entry points run; reads the stash, works in
    /// `dy`'s buffer.
    fn backward_core(
        &self,
        stash: &StageStash,
        dy: Tensor,
        wt: &TransposedWeights,
        scratch: &mut GradScratch,
        acc: &mut StageGrads,
        list: &mut FreeList,
    ) -> Tensor {
        assert_eq!(stash.per_block.len(), self.blocks.len(), "stash mismatch");
        assert_eq!(wt.per_block.len(), self.blocks.len(), "transposed weights mismatch");
        assert_eq!(acc.per_block.len(), self.blocks.len(), "gradient mismatch");
        let mut grad = dy;
        for (i, block) in self.blocks.iter().enumerate().rev() {
            match (block, &stash.per_block[i], &wt.per_block[i], &mut acc.per_block[i]) {
                (
                    Block::Linear { .. },
                    BlockStash::Input(x),
                    Some(wt),
                    BlockGrads::Linear { dw, db },
                ) => {
                    x.matmul_at_b(&grad, &mut scratch.dw);
                    dw.add_assign(&scratch.dw);
                    grad.col_sum_into(&mut scratch.sums);
                    add_to(db, &scratch.sums);
                    let mut dx = list.tensor(x.rows, x.cols);
                    grad.matmul_a_bt(wt, &mut dx);
                    list.recycle(std::mem::replace(&mut grad, dx));
                }
                (Block::Gelu, BlockStash::Input(x), _, _) => ops::gelu_backward(x, &mut grad),
                (Block::Relu, BlockStash::Input(x), _, _) => ops::relu_backward(x, &mut grad),
                (
                    Block::LayerNorm { gain, .. },
                    BlockStash::Norm { xhat, inv_std },
                    _,
                    BlockGrads::LayerNorm { dgain, dbias },
                ) => {
                    // d/dbias, d/dgain, then chain through the normalisation.
                    // Row-wise slice walks; same (row outer, column inner)
                    // order and arithmetic as the seed's indexed loops.
                    grad.col_sum_into(&mut scratch.sums);
                    add_to(dbias, &scratch.sums);
                    let sums = &mut scratch.sums;
                    sums.clear();
                    sums.resize(gain.len(), 0.0);
                    for (grow, xrow) in grad.data.chunks(grad.cols).zip(xhat.data.chunks(xhat.cols))
                    {
                        for ((d, &g), &xh) in sums.iter_mut().zip(grow).zip(xrow) {
                            *d += g * xh;
                        }
                    }
                    add_to(dgain, sums);
                    // The gain scale, then the normalisation's backward,
                    // both in place.
                    for row in grad.data.chunks_mut(grad.cols) {
                        for (v, &g) in row.iter_mut().zip(gain) {
                            *v *= g;
                        }
                    }
                    ops::layernorm_backward(xhat, inv_std, &mut grad);
                }
                _ => panic!("block/stash/gradient kind mismatch at {i}"),
            }
        }
        grad
    }

    /// Every Linear block's `Wᵀ`, laid out for [`Stage::backward_into`].
    pub fn transposed_weights(&self) -> TransposedWeights {
        let per_block = self
            .blocks
            .iter()
            .map(|b| match b {
                Block::Linear { w, .. } => Some(Transposed::of(w)),
                _ => None,
            })
            .collect();
        TransposedWeights { per_block }
    }

    /// Zero-initialised gradient container matching this stage's shapes.
    pub fn zero_grads(&self) -> StageGrads {
        let per_block = self
            .blocks
            .iter()
            .map(|b| match b {
                Block::Linear { w, b } => {
                    BlockGrads::Linear { dw: Tensor::zeros(w.rows, w.cols), db: vec![0.0; b.len()] }
                }
                Block::LayerNorm { gain, bias, .. } => BlockGrads::LayerNorm {
                    dgain: vec![0.0; gain.len()],
                    dbias: vec![0.0; bias.len()],
                },
                _ => BlockGrads::None,
            })
            .collect();
        StageGrads { per_block }
    }

    /// Plain SGD update: `θ ← θ - lr · g`.
    pub fn sgd_step(&mut self, grads: &StageGrads, lr: f32) {
        assert_eq!(grads.per_block.len(), self.blocks.len());
        for (block, g) in self.blocks.iter_mut().zip(&grads.per_block) {
            match (block, g) {
                (Block::Linear { w, b }, BlockGrads::Linear { dw, db }) => {
                    w.axpy(-lr, dw);
                    for (p, d) in b.iter_mut().zip(db) {
                        *p -= lr * d;
                    }
                }
                (Block::LayerNorm { gain, bias, .. }, BlockGrads::LayerNorm { dgain, dbias }) => {
                    for (p, d) in gain.iter_mut().zip(dgain) {
                        *p -= lr * d;
                    }
                    for (p, d) in bias.iter_mut().zip(dbias) {
                        *p -= lr * d;
                    }
                }
                (_, BlockGrads::None) => {}
                _ => panic!("gradient/block mismatch"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn tiny_stage() -> Stage {
        Stage::mlp(&mut seeded(42), 6, 2)
    }

    #[test]
    fn forward_preserves_width() {
        let s = tiny_stage();
        let x = rng::uniform(&mut seeded(1), 3, 6, 1.0);
        let (y, stash) = s.forward(&x);
        assert_eq!((y.rows, y.cols), (3, 6));
        assert_eq!(stash.per_block.len(), s.blocks.len());
        assert!(stash.bytes() > 0);
    }

    #[test]
    fn param_count_matches_structure() {
        let s = tiny_stage();
        // 2 × (LayerNorm 6+6 + Linear 36+6 + Gelu 0)
        assert_eq!(s.param_count(), 2 * (12 + 42));
    }

    #[test]
    fn stage_gradcheck_against_finite_differences() {
        // Scalar objective: sum(dy ⊙ stage(x)); check d/dx.
        let s = tiny_stage();
        let x = rng::uniform(&mut seeded(2), 2, 6, 0.8);
        let dy = rng::uniform(&mut seeded(3), 2, 6, 1.0);
        let (_, stash) = s.forward(&x);
        let (dx, _) = s.backward(&stash, &dy);
        let eps = 1e-2f32;
        let obj = |xx: &Tensor| -> f32 {
            let (y, _) = s.forward(xx);
            y.data.iter().zip(&dy.data).map(|(a, b)| a * b).sum()
        };
        for i in 0..x.len() {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.data[i] += eps;
            xm.data[i] -= eps;
            let fd = (obj(&xp) - obj(&xm)) / (2.0 * eps);
            assert!(
                (fd - dx.data[i]).abs() < 3e-2 * (1.0 + fd.abs()),
                "i={i}: fd={fd} analytic={}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn weight_gradcheck_one_linear() {
        // Perturb one weight and compare the objective delta with dw.
        let mut s = tiny_stage();
        let x = rng::uniform(&mut seeded(4), 2, 6, 0.5);
        let dy = rng::uniform(&mut seeded(5), 2, 6, 0.7);
        let (_, stash) = s.forward(&x);
        let (_, grads) = s.backward(&stash, &dy);
        let BlockGrads::Linear { dw, .. } = grads.per_block[1].clone() else {
            panic!("block 1 should be linear")
        };
        let eps = 1e-2f32;
        let obj = |stage: &Stage| -> f32 {
            let (y, _) = stage.forward(&x);
            y.data.iter().zip(&dy.data).map(|(a, b)| a * b).sum()
        };
        let base_idx = 7;
        let Block::Linear { w, .. } = &mut s.blocks[1] else { unreachable!() };
        w.data[base_idx] += eps;
        let plus = obj(&s);
        let Block::Linear { w, .. } = &mut s.blocks[1] else { unreachable!() };
        w.data[base_idx] -= 2.0 * eps;
        let minus = obj(&s);
        let fd = (plus - minus) / (2.0 * eps);
        assert!(
            (fd - dw.data[base_idx]).abs() < 3e-2 * (1.0 + fd.abs()),
            "fd={fd} analytic={}",
            dw.data[base_idx]
        );
    }

    #[test]
    fn accumulate_is_addition() {
        let s = tiny_stage();
        let x = rng::uniform(&mut seeded(6), 2, 6, 0.5);
        let dy = rng::uniform(&mut seeded(7), 2, 6, 0.5);
        let (_, stash) = s.forward(&x);
        let (_, g) = s.backward(&stash, &dy);
        let mut acc = s.zero_grads();
        acc.accumulate(&g);
        acc.accumulate(&g);
        let mut doubled = g.clone();
        doubled.scale(2.0);
        let max_diff = acc
            .flat()
            .iter()
            .zip(doubled.flat())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 1e-6);
    }

    #[test]
    fn sgd_reduces_objective() {
        let mut s = tiny_stage();
        let x = rng::uniform(&mut seeded(8), 4, 6, 0.5);
        let target = rng::uniform(&mut seeded(9), 4, 6, 0.5);
        let loss_of = |stage: &Stage| {
            let (y, _) = stage.forward(&x);
            let mut diff = y.clone();
            diff.axpy(-1.0, &target);
            diff.norm()
        };
        let before = loss_of(&s);
        for _ in 0..20 {
            let (y, stash) = s.forward(&x);
            let mut dy = y.clone();
            dy.axpy(-1.0, &target);
            dy.scale(2.0 / y.len() as f32);
            let (_, grads) = s.backward(&stash, &dy);
            s.sgd_step(&grads, 0.05);
        }
        let after = loss_of(&s);
        assert!(after < before, "loss did not go down: {before} -> {after}");
    }

    #[test]
    fn stage_serde_roundtrip_is_bit_exact() {
        let s = tiny_stage();
        let json = serde_json::to_string(&s).unwrap();
        let back: Stage = serde_json::from_str(&json).unwrap();
        // PartialEq on f32 treats -0.0 == 0.0; compare the raw bits too.
        assert_eq!(back, s);
        let bits = |st: &Stage| st.flat_params().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&s), "parameter bits drifted through serde");
    }

    #[test]
    fn grads_serde_roundtrip_is_bit_exact() {
        let s = tiny_stage();
        let x = rng::uniform(&mut seeded(11), 2, 6, 0.5);
        let dy = rng::uniform(&mut seeded(12), 2, 6, 0.5);
        let (_, stash) = s.forward(&x);
        let (_, g) = s.backward(&stash, &dy);
        let back: StageGrads = serde_json::from_str(&serde_json::to_string(&g).unwrap()).unwrap();
        let bits = |g: &StageGrads| g.flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&g));
    }

    #[test]
    fn identity_stage_passes_through() {
        let s = Stage::identity();
        let x = rng::uniform(&mut seeded(10), 2, 4, 1.0);
        let (y, stash) = s.forward(&x);
        assert_eq!(y, x);
        let (dx, grads) = s.backward(&stash, &x);
        assert_eq!(dx, x);
        assert!(grads.per_block.is_empty());
    }
}
