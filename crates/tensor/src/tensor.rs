//! The dense row-major f32 matrix at the bottom of everything.
//!
//! Every product goes through one register-tiled micro-kernel (`tile`):
//! an `MR × NR` block of the output stays in registers for the whole `k`
//! walk, row and column edges run the same body at narrower tiers, and the
//! pooled path hands bands of `MR` rows to that same function. The tile
//! shape follows the CPU (portable / `avx2` / `avx512f`, detected at run
//! time — there is no switch to set); the bits never do: each element is
//! the seed's f32 chain, multiply then add, never a fused multiply-add.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Row-major 2-D f32 tensor. Rows are samples (the micro-batch dimension),
/// columns are features.
///
/// Serde round-trips are **bit-exact** for finite values: every `f32`
/// widens losslessly to `f64`, the JSON writer renders the shortest
/// round-trip form, and narrowing back recovers the original bits — the
/// property the checkpoint format (`hanayo-ckpt`) is built on.
///
/// The default is the empty `0×0` tensor, the starting point of a reused
/// output buffer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// `rows * cols` values, row-major.
    pub data: Vec<f32>,
}

/// Below this multiply-add count (`m * k * n`), parallel matmul overhead
/// outweighs the win: ~32k madds is a few microseconds of scalar work,
/// roughly the cost of one pooled dispatch.
pub const PAR_FLOP_THRESHOLD: usize = 32 * 1024;

/// Parallel-dispatch decision for an `[m,k] × [k,n]` product: gate on work
/// (`m * k * n` multiply-adds), not output size (`m * n`). A
/// `[4,4096]×[4096,4]` product is 65,536 madds behind 16 outputs — worth
/// threads; `[128,1]×[1,128]` is 16,384 madds spread over 16,384 outputs —
/// not worth one dispatch. Work splits by output row, so a single-row
/// product never parallelizes.
pub fn matmul_parallelizes(m: usize, k: usize, n: usize) -> bool {
    m > 1 && m.saturating_mul(k).saturating_mul(n) >= PAR_FLOP_THRESHOLD
}

/// Left operand of the micro-kernel: element `(i, p)` is
/// `data[i * row_stride + p * p_stride]`, so `a` (`k, 1`) and `aᵀ`
/// (`1, ka`) are the same walk and no transpose is materialized.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row_stride: usize,
    p_stride: usize,
}

impl<'a> Lhs<'a> {
    /// The same operand with row `i` as its row 0.
    fn skip_rows(self, i: usize) -> Lhs<'a> {
        Lhs { data: &self.data[i * self.row_stride..], ..self }
    }
}

/// The micro-kernel: `out[i..i+MR][j..j+NR] = a × b` with the whole
/// `MR × NR` block held in registers for the `k` walk (`b` is `[k,n]`
/// row-major, `out` is `[_,n]`). Per element this is the seed chain to the
/// bit: start at `0.0`, `p` strictly ascending, one multiply then one add —
/// never a fused multiply-add, which would round once where the seed
/// rounds twice.
#[inline(always)]
fn tile<const MR: usize, const NR: usize>(
    a: Lhs,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    i: usize,
    j: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (p, b_row) in b.chunks_exact(n).enumerate() {
        let seg = &b_row[j..j + NR];
        let coeffs = &a.data[i * a.row_stride + p * a.p_stride..];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let coeff = coeffs[r * a.row_stride];
            for (o, &v) in acc_row.iter_mut().zip(seg) {
                *o += coeff * v;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * n + j..][..NR].copy_from_slice(acc_row);
    }
}

/// `MR` output rows from row `i`: full `NR`-wide tiles, then the column
/// edge through the narrower tiers — the same body, never a scalar loop.
#[inline(always)]
fn row_panel<const MR: usize, const NR: usize>(
    a: Lhs,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    i: usize,
) {
    let mut j = 0;
    while j + NR <= n {
        tile::<MR, NR>(a, b, n, out, i, j);
        j += NR;
    }
    while j + 8 <= n {
        tile::<MR, 8>(a, b, n, out, i, j);
        j += 8;
    }
    while j < n {
        tile::<MR, 1>(a, b, n, out, i, j);
        j += 1;
    }
}

/// `out = a × b` for every row of `out` (`[_,n]`, `n > 0`): full `MR`-row
/// panels, then the row edge at `MR ∈ {4, 2, 1}`.
#[inline(always)]
fn gemm_tiles<const MR: usize, const NR: usize>(a: Lhs, b: &[f32], n: usize, out: &mut [f32]) {
    let m = out.len() / n;
    let mut i = 0;
    while i + MR <= m {
        row_panel::<MR, NR>(a, b, n, out, i);
        i += MR;
    }
    while i + 4 <= m {
        row_panel::<4, NR>(a, b, n, out, i);
        i += 4;
    }
    while i + 2 <= m {
        row_panel::<2, NR>(a, b, n, out, i);
        i += 2;
    }
    if i < m {
        row_panel::<1, NR>(a, b, n, out, i);
    }
}

// One `(MR, NR)` per tier, each the fastest of a measured sweep at
// `32×160×160` (CHANGES.md, PR 22): the accumulators fill the tier's
// vector registers (16 of x86-64's xmm/ymm, 32 zmm) without spilling.
const PORTABLE_TILE: (usize, usize) = (4, 8);
#[cfg(target_arch = "x86_64")]
const AVX2_TILE: (usize, usize) = (6, 16);
#[cfg(target_arch = "x86_64")]
const AVX512_TILE: (usize, usize) = (8, 32);

fn gemm_portable(a: Lhs, b: &[f32], n: usize, out: &mut [f32]) {
    gemm_tiles::<{ PORTABLE_TILE.0 }, { PORTABLE_TILE.1 }>(a, b, n, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: Lhs, b: &[f32], n: usize, out: &mut [f32]) {
    gemm_tiles::<{ AVX2_TILE.0 }, { AVX2_TILE.1 }>(a, b, n, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512(a: Lhs, b: &[f32], n: usize, out: &mut [f32]) {
    gemm_tiles::<{ AVX512_TILE.0 }, { AVX512_TILE.1 }>(a, b, n, out);
}

/// Run `kernel` over `out` (`[_,n]`): in one call, or — `pooled`, on a
/// pool with more than one executor — over bands of `band_rows` rows (the
/// tier's `MR`, so every band but the last is one full panel) on the rayon
/// pool. Bands write disjoint rows and each element's chain lives inside
/// one tile, so the split never changes a bit. A one-executor pool would
/// run every band on this thread anyway, so it gets the one call and none
/// of the band bookkeeping.
fn run_bands(
    a: Lhs,
    n: usize,
    out: &mut [f32],
    pooled: bool,
    band_rows: usize,
    kernel: impl Fn(Lhs, &mut [f32]) + Sync,
) {
    if pooled && rayon::current_num_threads() > 1 {
        out.par_chunks_mut(band_rows * n)
            .enumerate()
            .for_each(|(band, rows)| kernel(a.skip_rows(band * band_rows), rows));
    } else {
        kernel(a, out);
    }
}

/// Fill `out` (`[_,n]`, non-empty, `k > 0`) through the widest tier this
/// CPU supports, detected at run time per product; nothing selects a tier
/// from outside.
fn gemm_into(a: Lhs, b: &[f32], n: usize, out: &mut [f32], pooled: bool) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            return run_bands(a, n, out, pooled, AVX512_TILE.0, |a, rows| {
                // SAFETY: avx512f was detected on this CPU just above.
                unsafe { gemm_avx512(a, b, n, rows) }
            });
        }
        if std::is_x86_feature_detected!("avx2") {
            return run_bands(a, n, out, pooled, AVX2_TILE.0, |a, rows| {
                // SAFETY: avx2 was detected on this CPU just above.
                unsafe { gemm_avx2(a, b, n, rows) }
            });
        }
    }
    run_bands(a, n, out, pooled, PORTABLE_TILE.0, |a, rows| gemm_portable(a, b, n, rows));
}

/// Overwrite every element of `out` (already shaped `[m,n]`) with the
/// `k`-term product; no terms means all zeros.
fn gemm_over(a: Lhs, b: &[f32], k: usize, out: &mut Tensor) {
    let (m, n) = (out.rows, out.cols);
    if out.data.is_empty() {
        return;
    }
    if k == 0 {
        out.data.fill(0.0);
        return;
    }
    gemm_into(a, b, n, &mut out.data, matmul_parallelizes(m, k, n));
}

/// A right operand stored transposed for [`Tensor::matmul_a_bt`]:
/// `Transposed::of(b)` holds `bᵀ` row-major, the layout the micro-kernel
/// streams. Build it once per version of `b` and [`Transposed::refresh`]
/// it in place when `b` changes, instead of transposing per product.
#[derive(Debug, Clone)]
pub struct Transposed(Tensor);

impl Transposed {
    /// `bᵀ`, laid out.
    pub fn of(b: &Tensor) -> Transposed {
        Transposed(b.transpose())
    }

    /// Re-lay out `bᵀ` into the existing buffer (no allocation when the
    /// shape is unchanged).
    pub fn refresh(&mut self, b: &Tensor) {
        b.transpose_into(&mut self.0);
    }
}

impl Tensor {
    /// All-zeros tensor.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major vector (length must match).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Matrix product `self × other` (`[m,k] × [k,n] → [m,n]`).
    ///
    /// One register-tiled micro-kernel with a **fixed reduction order**:
    /// every output element accumulates its `k` terms in one sequential
    /// f32 chain from `0.0` with `p` ascending, multiply then add (no FMA),
    /// so the result is bitwise identical to the scalar seed kernel
    /// ([`Tensor::matmul_reference`]) on every input — every tile shape,
    /// CPU tier, serial and pooled dispatch agree to the bit. The tier is
    /// picked by run-time CPU detection; large products (by
    /// [`matmul_parallelizes`], a flops gate) split into bands of tile
    /// rows on the pool (disjoint writes).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Tensor::matmul`] written into `out`, which is reshaped to `[m,n]`
    /// (reusing its buffer when large enough) and every element
    /// overwritten, so a dirty buffer is fine.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        hanayo_metrics::count!("hanayo_gemm_dispatch_total", &[("kernel", "matmul")], 1);
        let k = self.cols;
        out.reshape(self.rows, other.cols);
        gemm_over(Lhs { data: &self.data, row_stride: k, p_stride: 1 }, &other.data, k, out);
    }

    /// Test oracle: the seed's naive serial `ikj` gemm, the definition of
    /// the bits every fast kernel must reproduce. The property and unit
    /// tests pin [`Tensor::matmul`] and the fused paths bitwise against
    /// it; nothing on a hot path calls it.
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            let a_row = &self.data[i * k..(i + 1) * k];
            for (p, &a) in a_row.iter().enumerate() {
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Tensor { rows: m, cols: n, data: out }
    }

    /// Fused `selfᵀ × other` (`[m,ka]ᵀ × [m,n] → [ka,n]`) written into
    /// `out`, without materializing the transpose: the same micro-kernel
    /// as [`Tensor::matmul`], reading `self` down its columns. `out` is
    /// reshaped to `[ka,n]` (reusing its buffer when large enough) and
    /// every element overwritten, so a dirty buffer is fine. Bitwise
    /// identical to `self.transpose().matmul(other)`: per output element
    /// the reduction runs over rows `i` strictly ascending, exactly like
    /// the reference.
    pub fn matmul_at_b(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.rows, other.rows, "matmul_at_b shape mismatch");
        hanayo_metrics::count!("hanayo_gemm_dispatch_total", &[("kernel", "at_b")], 1);
        let (m, ka, n) = (self.rows, self.cols, other.cols);
        out.reshape(ka, n);
        gemm_over(Lhs { data: &self.data, row_stride: 1, p_stride: ka }, &other.data, m, out);
    }

    /// `self × bᵀ` (`[m,k] × [n,k]ᵀ → [m,n]`) given `bt = Transposed::of(b)`,
    /// written into `out` like [`Tensor::matmul_at_b`] (reshaped, every
    /// element overwritten) and bitwise identical to
    /// `self.matmul(&b.transpose())`.
    ///
    /// The micro-kernel streams `NR`-wide row segments of its right
    /// operand, which `bᵀ` only has once laid out. Taking the laid-out
    /// operand lets a caller whose `b` is fixed across many products (a
    /// weight between optimizer steps) transpose it once, not per product.
    pub fn matmul_a_bt(&self, bt: &Transposed, out: &mut Tensor) {
        let bt = &bt.0;
        assert_eq!(self.cols, bt.rows, "matmul_a_bt shape mismatch");
        hanayo_metrics::count!("hanayo_gemm_dispatch_total", &[("kernel", "a_bt")], 1);
        let k = self.cols;
        out.reshape(self.rows, bt.cols);
        gemm_over(Lhs { data: &self.data, row_stride: k, p_stride: 1 }, &bt.data, k, out);
    }

    /// Transposed copy; see [`Tensor::transpose_into`].
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Write `selfᵀ` into `out`, reshaped to `[cols, rows]` (reusing its
    /// buffer when large enough) and every element overwritten. Moved in
    /// `8×8` blocks: eight contiguous row segments in, eight contiguous
    /// column segments out, so neither side is walked one element per
    /// cache line. Edges go element-wise.
    pub fn transpose_into(&self, out: &mut Tensor) {
        const T: usize = 8;
        let (rows, cols) = (self.rows, self.cols);
        let (block_rows, block_cols) = (rows - rows % T, cols - cols % T);
        out.reshape(cols, rows);
        for r0 in (0..block_rows).step_by(T) {
            for c0 in (0..block_cols).step_by(T) {
                let mut block = [[0.0f32; T]; T];
                for (r, seg) in block.iter_mut().enumerate() {
                    seg.copy_from_slice(&self.data[(r0 + r) * cols + c0..][..T]);
                }
                for c in 0..T {
                    let dst = &mut out.data[(c0 + c) * rows + r0..][..T];
                    for (d, seg) in dst.iter_mut().zip(&block) {
                        *d = seg[c];
                    }
                }
            }
        }
        for r in 0..rows {
            let edge = if r < block_rows { block_cols } else { 0 };
            for c in edge..cols {
                out.data[c * rows + r] = self.data[r * cols + c];
            }
        }
    }

    /// Set the shape to `[rows, cols]` for a write-into kernel that
    /// overwrites every element; the buffer only grows, so a reused output
    /// reallocates at most once.
    fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise `self += alpha * other` (axpy).
    pub(crate) fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale every element.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Column sums over all rows (used for bias gradients), written into a
    /// reused buffer whose contents they replace.
    pub(crate) fn col_sum_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// Max absolute difference to another tensor.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }

    /// Frobenius norm.
    #[cfg(test)]
    pub(crate) fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    /// Dense pseudo-random tensor; every element nonzero so a changed
    /// reduction order shows up in the low bits (unlike the old
    /// identity-matrix test, where each output had exactly one term).
    fn dense(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "{what}: shape");
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn parallel_gate_is_flops_not_output_size() {
        // [4,4096]×[4096,4]: 16 outputs but 65,536 madds — parallelize.
        assert!(matmul_parallelizes(4, 4096, 4));
        // [128,1]×[1,128]: 16,384 outputs but only 16,384 madds — serial.
        assert!(!matmul_parallelizes(128, 1, 128));
        // Work splits by output row: one row can never parallelize.
        assert!(!matmul_parallelizes(1, 4096, 4096));
    }

    #[test]
    fn blocked_kernel_matches_reference_bitwise() {
        // Shapes straddling both gates, with full tiles beside row and
        // column remainders and k from one term to thousands; then the
        // gemms a `Stage` issues: `Stage::mlp` width 12 on 5 rows and the
        // `train_gemm` benchmark's `[32,160]` stage.
        for &(m, k, n) in &[
            (7, 13, 9),
            (4, 4096, 4),
            (128, 1, 128),
            (33, 65, 67),
            (3, 6, 600),
            (5, 12, 12),
            (32, 160, 160),
        ] {
            let a = dense(m, k, 0x9E3779B9 + (m * k) as u64);
            let b = dense(k, n, 0x85EBCA6B + (k * n) as u64);
            assert_bits_eq(&a.matmul(&b), &a.matmul_reference(&b), "matmul [{m},{k}]x[{k},{n}]");
        }
    }

    /// `out = a × b` through one tier wrapper, whole product in one call.
    fn run_tier(tier: impl Fn(Lhs, &[f32], usize, &mut [f32]), a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.cols);
        let lhs = Lhs { data: &a.data, row_stride: a.cols, p_stride: 1 };
        tier(lhs, &b.data, b.cols, &mut out.data);
        out
    }

    #[test]
    fn every_tier_matches_reference_on_every_edge_bitwise() {
        // [15,37]×[37,61] and [23,3]×[3,47] between them put every wrapper
        // through each of its row tiers (8/6/4/2/1) and column tiers
        // (32/16/8/1); the rest are the benchmark's shapes and the
        // one-column minimum.
        for &(m, k, n) in &[(15, 37, 61), (32, 160, 160), (4, 32, 32), (1, 5, 1), (23, 3, 47)] {
            let a = dense(m, k, 3 + (m * k) as u64);
            let b = dense(k, n, 5 + (k * n) as u64);
            let want = a.matmul_reference(&b);
            assert_bits_eq(&run_tier(gemm_portable, &a, &b), &want, "portable tier");
            #[cfg(target_arch = "x86_64")]
            {
                if std::is_x86_feature_detected!("avx2") {
                    // SAFETY: avx2 was detected on this CPU just above.
                    let got = run_tier(|a, b, n, out| unsafe { gemm_avx2(a, b, n, out) }, &a, &b);
                    assert_bits_eq(&got, &want, "avx2 tier");
                }
                if std::is_x86_feature_detected!("avx512f") {
                    // SAFETY: avx512f was detected on this CPU just above.
                    let got = run_tier(|a, b, n, out| unsafe { gemm_avx512(a, b, n, out) }, &a, &b);
                    assert_bits_eq(&got, &want, "avx512f tier");
                }
            }
        }
    }

    #[test]
    fn pooled_bands_match_the_serial_kernel_bitwise() {
        // Above the flops gate, with a last band shorter than a tile and
        // (at_b) the strided left operand re-based per band.
        for &(m, k, n) in &[(37, 64, 45), (70, 129, 33), (2, 128, 128)] {
            assert!(matmul_parallelizes(m, k, n));
            let a = dense(m, k, 7 + m as u64);
            let b = dense(k, n, 9 + n as u64);
            let lhs = Lhs { data: &a.data, row_stride: k, p_stride: 1 };
            let (mut serial, mut pooled) = (Tensor::zeros(m, n), Tensor::zeros(m, n));
            gemm_into(lhs, &b.data, n, &mut serial.data, false);
            gemm_into(lhs, &b.data, n, &mut pooled.data, true);
            assert_bits_eq(&pooled, &serial, "pooled vs serial");
            assert_bits_eq(&pooled, &a.matmul_reference(&b), "pooled vs reference");

            let at = a.transpose();
            let lhs_t = Lhs { data: &at.data, row_stride: 1, p_stride: m };
            let mut pooled_t = Tensor::zeros(m, n);
            gemm_into(lhs_t, &b.data, n, &mut pooled_t.data, true);
            assert_bits_eq(&pooled_t, &serial, "pooled at_b walk vs serial");
        }
    }

    #[test]
    fn empty_dimensions_yield_empty_or_zero_products() {
        for &(m, k, n) in &[(0, 3, 4), (2, 0, 4), (2, 3, 0), (0, 0, 0), (0, 3, 0), (2, 0, 0)] {
            let want = Tensor::zeros(m, n);
            assert_eq!(Tensor::zeros(m, k).matmul(&Tensor::zeros(k, n)), want, "matmul");
            let mut at_b = Tensor::from_vec(1, 1, vec![f32::NAN]);
            Tensor::zeros(k, m).matmul_at_b(&Tensor::zeros(k, n), &mut at_b);
            assert_eq!(at_b, want, "matmul_at_b");
            let mut a_bt = Tensor::from_vec(1, 1, vec![f32::NAN]);
            Tensor::zeros(m, k).matmul_a_bt(&Transposed::of(&Tensor::zeros(n, k)), &mut a_bt);
            assert_eq!(a_bt, want, "matmul_a_bt");
            let mut mm = Tensor::from_vec(1, 1, vec![f32::NAN]);
            Tensor::zeros(m, k).matmul_into(&Tensor::zeros(k, n), &mut mm);
            assert_eq!(mm, want, "matmul_into");
        }
    }

    #[test]
    fn fused_kernels_match_transpose_paths_bitwise() {
        // The last two are a `Stage`'s backward gemms: `[5,12]ᵀ×[5,12]` and
        // `[5,12]×[12,12]ᵀ` (`Stage::mlp` width 12), `[32,160]ᵀ×[32,160]`
        // and `[32,160]×[160,160]ᵀ` (the `train_gemm` stage).
        for &(m, k, n) in
            &[(6, 11, 5), (4, 96, 33), (130, 7, 130), (5, 6, 600), (5, 12, 12), (32, 160, 160)]
        {
            let a = dense(m, k, 11 + m as u64);
            let b = dense(m, n, 17 + n as u64);
            let mut at_b = Tensor::default();
            a.matmul_at_b(&b, &mut at_b);
            assert_bits_eq(&at_b, &a.transpose().matmul_reference(&b), "matmul_at_b");
            let c = dense(n, k, 23 + k as u64);
            let mut a_bt = Tensor::default();
            a.matmul_a_bt(&Transposed::of(&c), &mut a_bt);
            assert_bits_eq(&a_bt, &a.matmul_reference(&c.transpose()), "matmul_a_bt");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn blocked_transpose_equals_elementwise_definition() {
        // Multiples of the 8×8 block, non-multiples on either side, and
        // shapes smaller than one block.
        for &(rows, cols) in &[(16, 24), (19, 8), (8, 21), (13, 27), (3, 5), (1, 9), (0, 4)] {
            let a = dense(rows, cols, 31 + (rows * cols) as u64);
            let t = a.transpose();
            assert_eq!((t.rows, t.cols), (cols, rows));
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(t.get(c, r).to_bits(), a.get(r, c).to_bits(), "({r},{c})");
                }
            }
            assert_eq!(t.transpose(), a);
        }
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![10., 10., 10.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data, vec![6., 7., 8.]);
        a.scale(2.0);
        assert_eq!(a.data, vec![12., 14., 16.]);
    }

    #[test]
    fn col_sum_sums_rows() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let mut sums = vec![f32::NAN; 5];
        a.col_sum_into(&mut sums);
        assert_eq!(sums, vec![4., 6.]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn serde_roundtrip_is_bit_exact() {
        // Awkward values on purpose: subnormal, negative zero, extremes.
        let t = Tensor::from_vec(
            2,
            3,
            vec![0.1, -0.0, f32::MIN_POSITIVE / 8.0, f32::MAX, -f32::MIN, 1.0e-7],
        );
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!((back.rows, back.cols), (t.rows, t.cols));
        for (a, b) in t.data.iter().zip(&back.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} round-tripped to {b}");
        }
    }

    #[test]
    fn norm_and_diff() {
        let a = Tensor::from_vec(1, 2, vec![3., 4.]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        let b = Tensor::from_vec(1, 2, vec![3., 4.5]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
    }
}
