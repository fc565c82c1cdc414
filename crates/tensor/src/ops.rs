//! Elementwise activations and normalisation, forward and backward, and
//! the one exponential under them.
//!
//! Backward passes are hand-derived; `tests/` cross-checks every one of
//! them against central finite differences.
//!
//! [`exp`] is the repo's own — no libm call, no table, no branch — so no
//! loss bit depends on the host's `expf`, and a loop over it vectorises.
//! GELU and its backward run as one slice loop (`pass_body`) compiled per
//! CPU tier (portable / `avx2` / `avx512f`) and picked per call by
//! run-time detection, like the gemm tiers; there is no switch to set.
//! Every step is a multiply, add or divide that Rust never fuses into an
//! FMA, so the bits do not depend on the tier.

use crate::tensor::Tensor;
use std::f32::consts::{LOG2_E, PI, SQRT_2};

/// `eˣ` within 1 ulp of the correctly rounded result on every f32 (pinned
/// by a sweep against `f64::exp`), with no libm call, no table and no
/// branch, so a slice loop over it vectorises.
///
/// Cephes `expf` in four steps. *Clamp* to `[−104, 88.73]`, past which
/// `eˣ` rounds to `0` or `inf` (NaN passes through). *Round* `x·log₂e` to
/// the integer `n` by adding and subtracting `1.5·2²³`. *Reduce* to
/// `r = x − n·ln 2` in two Cody–Waite steps (`n·LN2_HI` is exact). *Fit*
/// `eʳ ≈ p(r)·r² + r + 1` with Cephes' degree-5 `p`, then scale by `2ⁿ`
/// as `2^(n>>1) · 2^(n−(n>>1))`: both factors are normal floats, so the
/// top of the range still overflows to `inf` and subnormal results round
/// once.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const ROUND: f32 = 12_582_912.0; // 1.5·2²³
    const LN2_HI: f32 = 355.0 / 512.0; // 0.693359375: 9 bits, so `n·LN2_HI` is exact
    const LN2_LO: f32 = -2.121_944_4e-4;
    let x = x.clamp(-104.0, 88.73);
    let t = x * LOG2_E + ROUND;
    let n = t - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    // Cephes' coefficients as f32 (its 5.0000001201e-1 rounds to 0.5).
    let p = ((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 1.666_666_6e-1)
        * r
        + 0.5;
    let y = p * (r * r) + r + 1.0;
    // `t` is `ROUND + n` exactly, so `n` is its low mantissa bits.
    let n = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let half = n >> 1;
    y * pow2(half) * pow2(n.wrapping_sub(half))
}

/// `2ᵉ` for `e` in the normal range, built from exponent bits.
#[inline(always)]
fn pow2(e: i32) -> f32 {
    f32::from_bits((e.wrapping_add(127) as u32) << 23)
}

/// `erf` via the Abramowitz–Stegun 7.1.26 polynomial (|error| < 1.5e-7,
/// plenty for f32).
#[inline(always)]
pub(crate) fn erf(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061_405_4 * t - 1.453_152_1) * t) + 1.421_413_8) * t - 0.284_496_72) * t
            + 0.254_829_6)
            * t
            * exp(-x * x);
    sign * y
}

/// Exact GELU of one value: `x · Φ(x)`.
#[inline(always)]
fn gelu_one(x: f32) -> f32 {
    0.5 * x * (1.0 + erf(x / SQRT_2))
}

/// d/dx GELU at one value: `Φ(x) + x · φ(x)`.
#[inline(always)]
fn gelu_grad_one(x: f32) -> f32 {
    let cdf = 0.5 * (1.0 + erf(x / SQRT_2));
    let pdf = exp(-0.5 * x * x) / (2.0 * PI).sqrt();
    cdf + x * pdf
}

/// The elementwise passes that run through the CPU tiers.
#[derive(Clone, Copy)]
enum Pass {
    /// `out[i] = gelu(x[i])`.
    Gelu,
    /// `out[i] *= gelu'(x[i])`, with `dy` in `out` on entry.
    GeluBackward,
}

/// The one body every tier compiles: a plain slice loop per pass, which
/// LLVM vectorises at the tier's width.
#[inline(always)]
fn pass_body(pass: Pass, x: &[f32], out: &mut [f32]) {
    match pass {
        Pass::Gelu => {
            for (o, &v) in out.iter_mut().zip(x) {
                *o = gelu_one(v);
            }
        }
        Pass::GeluBackward => {
            for (g, &v) in out.iter_mut().zip(x) {
                *g *= gelu_grad_one(v);
            }
        }
    }
}

fn pass_portable(pass: Pass, x: &[f32], out: &mut [f32]) {
    pass_body(pass, x, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn pass_avx2(pass: Pass, x: &[f32], out: &mut [f32]) {
    pass_body(pass, x, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn pass_avx512(pass: Pass, x: &[f32], out: &mut [f32]) {
    pass_body(pass, x, out);
}

/// Run `pass` through the widest tier this CPU supports, detected at run
/// time per call; nothing selects a tier from outside.
fn run_pass(pass: Pass, x: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was detected on this CPU just above.
            return unsafe { pass_avx512(pass, x, out) };
        }
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 was detected on this CPU just above.
            return unsafe { pass_avx2(pass, x, out) };
        }
    }
    pass_portable(pass, x, out);
}

/// Exact GELU: `x * Φ(x)` with `Φ` the standard normal CDF, implemented via
/// `erf`, written into `out` (`x`'s length, every element overwritten).
/// Matches the non-tanh-approximation variant.
pub(crate) fn gelu(x: &Tensor, out: &mut [f32]) {
    run_pass(Pass::Gelu, &x.data, out);
}

/// d/dx GELU in place: `dy` (same shape as the *input* `x`) becomes
/// `dy ⊙ gelu'(x)`.
pub(crate) fn gelu_backward(x: &Tensor, dy: &mut Tensor) {
    assert_eq!((x.rows, x.cols), (dy.rows, dy.cols), "gelu_backward shape mismatch");
    run_pass(Pass::GeluBackward, &x.data, &mut dy.data);
}

/// ReLU, written into `out` (`x`'s length, every element overwritten).
pub(crate) fn relu(x: &Tensor, out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(&x.data) {
        *o = v.max(0.0);
    }
}

/// d/dx ReLU in place: `dy` (same shape as the input `x`) is zeroed
/// wherever `x ≤ 0`.
pub(crate) fn relu_backward(x: &Tensor, dy: &mut Tensor) {
    assert_eq!((x.rows, x.cols), (dy.rows, dy.cols), "relu_backward shape mismatch");
    for (g, &xv) in dy.data.iter_mut().zip(&x.data) {
        if xv <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Row-wise layer normalisation (no affine parameters; the affine part
/// lives in [`crate::stage::Block::LayerNorm`]'s gain/bias), written into
/// `xhat` (`x`'s length) and `inv_std` (one per row), every element
/// overwritten: the normalised rows and what the backward needs.
pub(crate) fn layernorm(x: &Tensor, eps: f32, xhat: &mut [f32], inv_std: &mut [f32]) {
    let n = x.cols as f32;
    // Row-wise slice walk; arithmetic and order match the seed's indexed
    // loops element for element (bitwise-stable rewrite).
    let rows = xhat.chunks_mut(x.cols).zip(x.data.chunks(x.cols)).zip(inv_std.iter_mut());
    for ((out_row, row), inv) in rows {
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        *inv = 1.0 / (var + eps).sqrt();
        for (o, &v) in out_row.iter_mut().zip(row) {
            *o = (v - mean) * *inv;
        }
    }
}

/// Backward of row-wise layernorm, in place: `dy`, the upstream gradient
/// w.r.t. the normalised output, becomes the gradient w.r.t. the input.
/// `xhat` is the normalised output and `inv_std` the saved per-row inverse
/// std. Each row's two sums are taken before the row is overwritten, and
/// each element then reads only its own `dy`, so working in place changes
/// no bit.
pub(crate) fn layernorm_backward(xhat: &Tensor, inv_std: &[f32], dy: &mut Tensor) {
    let n = xhat.cols as f32;
    for (r, dy_row) in dy.data.chunks_mut(xhat.cols).enumerate() {
        let xh_row = xhat.row(r);
        let sum_dy: f32 = dy_row.iter().sum();
        let sum_dy_xhat: f32 = dy_row.iter().zip(xh_row).map(|(a, b)| a * b).sum();
        for (g, &xhv) in dy_row.iter_mut().zip(xh_row) {
            *g = (*g - sum_dy / n - xhv * sum_dy_xhat / n) * inv_std[r];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(1, n, v)
    }

    #[test]
    fn exp_is_within_one_ulp_of_the_correctly_rounded_value() {
        // Every f32 bit pattern in [−110, 89] at a prime stride, both signs
        // (a denser sweep in release, where CI also runs it).
        let stride = if cfg!(debug_assertions) { 4099 } else { 61 };
        let (mut worst, mut worst_x, mut points) = (0, 0.0f32, 0u64);
        for (lo, hi) in [(0.0f32, 89.0f32), (-0.0, -110.0)] {
            for bits in (lo.to_bits()..=hi.to_bits()).step_by(stride) {
                let x = f32::from_bits(bits);
                // Both sides lie in `0..=inf`, where bit order is value order.
                let err = exp(x).to_bits().abs_diff((f64::exp(x as f64) as f32).to_bits());
                if err > worst {
                    (worst, worst_x) = (err, x);
                }
                points += 1;
            }
        }
        assert!(points > 500_000, "swept only {points} points");
        assert!(worst <= 1, "exp({worst_x}) is {worst} ulps off");
    }

    /// `(input, exp(input))` as bits at 256 fixed inputs: the clamp,
    /// subnormal, normal and overflow ranges evenly, a handful of edges,
    /// and 48 inputs where this `exp` is 1 ulp from the correctly rounded
    /// value — so a libm `expf` put back in its place fails here.
    #[rustfmt::skip]
    const EXP_PINS: [(u32, u32); 256] = [
        (0xc2dc0000, 0x00000000), (0xc2d9eff9, 0x00000000), (0xc2d7dff3, 0x00000000),
        (0xc2d5cfec, 0x00000000), (0xc2d3bfe6, 0x00000000), (0xc2d1afdf, 0x00000000),
        (0xc2cff0a4, 0x00000001), (0xc2cf9fd9, 0x00000001), (0xc2ce0000, 0x00000001),
        (0xc2cd8fd2, 0x00000002), (0xc2cb7fcc, 0x00000005), (0xc2c96fc5, 0x0000000d),
        (0xc2c75fbe, 0x00000024), (0xc2c54fb8, 0x00000066), (0xc2c33fb2, 0x0000011e),
        (0xc2c12fab, 0x00000321), (0xc2bf1fa4, 0x000008c7), (0xc2bd0f9e, 0x0000189d),
        (0xc2baff97, 0x00004508), (0xc2b8ef91, 0x0000c19c), (0xc2b6df8a, 0x00021f06),
        (0xc2b4cf84, 0x0005f304), (0xc2b2bf7d, 0x0010afa2), (0xc2b0af76, 0x002eccbc),
        (0xc2aea8f6, 0x0080d71a), (0xc2ae9f70, 0x00834258), (0xc2ac8f6a, 0x01381236),
        (0xc2aa7f63, 0x02011124), (0xc2a86f5c, 0x02b4ff8f), (0xc2a65f56, 0x037dd29e),
        (0xc2a44f4f, 0x0431f9b2), (0xc2a23f49, 0x04f99564), (0xc2a02f42, 0x05af00c1),
        (0xc29e1f3c, 0x06756a49), (0xc29c0f35, 0x072c1486), (0xc299ff2e, 0x07f1517a),
        (0xc297ef28, 0x08a934c9), (0xc295df22, 0x096d493f), (0xc293cf1b, 0x0a266157),
        (0xc291bf14, 0x0ae9532d), (0xc28faf0e, 0x0ba399fa), (0xc28d9f07, 0x0c656d96),
        (0xc28b8f00, 0x0d20dece), (0xc2897efa, 0x0de198a8), (0xc2876ef4, 0x0e9e2eb0),
        (0xc2855eed, 0x0f5dd41d), (0xc2834ee6, 0x101b8aad), (0xc2813ee0, 0x10da1fad),
        (0xc27e5db3, 0x1198f181), (0xc27a3da6, 0x12567b14), (0xc2761d99, 0x13166396),
        (0xc271fd8c, 0x13d2e60f), (0xc26ddd7e, 0x1493e0bd), (0xc269bd71, 0x154f608e),
        (0xc2659d64, 0x1611687b), (0xc2617d57, 0x16cbe9e8), (0xc25d5d4a, 0x178efac8),
        (0xc2593d3d, 0x18488211), (0xc2551d30, 0x190c9778), (0xc250fd23, 0x19c528ca),
        (0xc24cdd16, 0x1a8a3e5d), (0xc248bd09, 0x1b41ddd3), (0xc24692a7, 0x1ba691c4),
        (0xc2449cfb, 0x1c07ef6e), (0xc2407cee, 0x1cbea121), (0xc23c5ce1, 0x1d85aa3c),
        (0xc2383cd4, 0x1e3b7216), (0xc2341cc8, 0x1f036e9e), (0xc22ffcba, 0x1fb850a7),
        (0xc22bdcac, 0x20813ced), (0xc227bca0, 0x21353c9c), (0xc2239c92, 0x21fe28ba),
        (0xc21f7c86, 0x22b235b9), (0xc21b5c78, 0x2379ea0f), (0xc2173c6c, 0x242f3bc8),
        (0xc2131c5e, 0x24f5bd8b), (0xc20efc52, 0x25ac4e90), (0xc20d0e43, 0x260b9372),
        (0xc20adc44, 0x2671a2de), (0xc206bc38, 0x27296ddc), (0xc2029c2a, 0x27ed99bf),
        (0xc1fcf838, 0x28a699c8), (0xc1f4b820, 0x2969a1e0), (0xc1ec7804, 0x2a23d17a),
        (0xc1e437ec, 0x2ae5baf8), (0xc1dbf7d0, 0x2ba11510), (0xc1d3b7b8, 0x2c61e4c0),
        (0xc1d008cc, 0x2cb2fd58), (0xc1cb779c, 0x2d1e645a), (0xc1c33784, 0x2dde1eef),
        (0xc1baf768, 0x2e9bbf24), (0xc1b2b750, 0x2f5a693f), (0xc1aa7734, 0x3019253d),
        (0xc1a23718, 0x30d6c3d8), (0xc199f700, 0x31969676), (0xc191b6e4, 0x32532d9b),
        (0xc18c9bda, 0x32c7e358), (0xc18976cc, 0x3314129e), (0xc18136b0, 0x33cfa6b4),
        (0xc171ed30, 0x34919986), (0xc1616cf8, 0x354c2ee2), (0xc150ecc8, 0x360f2b02),
        (0xc14d4aa6, 0x3633aa9c), (0xc1406c90, 0x36c8c5e4), (0xc12fec60, 0x378cc6e3),
        (0xc11f6c28, 0x38456b7b), (0xc114dca9, 0x38befd52), (0xc10eebf0, 0x390a6d43),
        (0xc0fcd780, 0x39c21f67), (0xc0dbd710, 0x3a881d6a), (0xc0d43730, 0x3aacbc74),
        (0xc0bad6b0, 0x3b3ee16c), (0xc099d640, 0x3c05d773), (0xc093b0a6, 0x3c222fc0),
        (0xc071abc0, 0x3cbbb14f), (0xc06e1c4d, 0x3cc66e10), (0xc02faae0, 0x3d839b34),
        (0xc01b75b9, 0x3db4780e), (0xbfeb9c05, 0x3e2283f4), (0xbfdb5440, 0x3e388ed2),
        (0xbfca8037, 0x3e527d38), (0xbf821efe, 0x3eb94242), (0xbf800000, 0x3ebc5ab2),
        (0xbf5b932d, 0x3ed9279c), (0xbf2ea500, 0x3f016884), (0xbf000000, 0x3f1b4598),
        (0xbee8a954, 0x3f228370), (0xbebda4f8, 0x3f30c1e6), (0xbea19c60, 0x3f3ab48c),
        (0xbe825093, 0x3f467942), (0xbe5d75d4, 0x3f4e366c), (0xbe3576cf, 0x3f566d26),
        (0xbe0999ea, 0x3f5fcf94), (0xbdbe335a, 0x3f694ba8), (0xbd65bff6, 0x3f720932),
        (0xbcd670b8, 0x3f7962bc), (0x8da24260, 0x3f800000), (0x80000000, 0x3f800000),
        (0x00000000, 0x3f800000), (0x0da24260, 0x3f800000), (0x3b8cb40e, 0x3f808d02),
        (0x3dc5976a, 0x3f8cf700), (0x3e286f18, 0x3f96e282), (0x3e6ea383, 0x3fa1979a),
        (0x3e8c5d2d, 0x3fa85f5a), (0x3eb2bd00, 0x3fb57a17), (0x3eb553aa, 0x3fb66590),
        (0x3ecc2a1d, 0x3fbeb77a), (0x3ef104dc, 0x3fccf36e), (0x3f000000, 0x3fd3094c),
        (0x3f60e95e, 0x401a1360), (0x3f800000, 0x402df854), (0x3f8ab864, 0x403d2afe),
        (0x3fb0b0c0, 0x407e7e74), (0x3fd29de1, 0x40a5dda4), (0x3ff9a56e, 0x40e0ffcc),
        (0x401a5940, 0x4132722e), (0x403ec372, 0x419d9c0a), (0x405c5a00, 0x41fa3e5a),
        (0x407469f6, 0x42363a82), (0x408f2d70, 0x42af773a), (0x40a5f4bc, 0x4332c640),
        (0x40b02dd0, 0x4376106d), (0x40c4e3bc, 0x43eb0406), (0x40d12e40, 0x442c8904),
        (0x40f22ea0, 0x44f1f45f), (0x40ff5f98, 0x4536b280), (0x41099788, 0x45a9a756),
        (0x411a17b8, 0x466de9e2), (0x412a97f0, 0x4726d1fa), (0x412d883a, 0x47487408),
        (0x413b1828, 0x47e9f122), (0x414b9858, 0x48a408ba), (0x415c1890, 0x496608e8),
        (0x41646414, 0x49c12901), (0x416c98c0, 0x4a214b65), (0x417d18f8, 0x4ae23162),
        (0x4186cc94, 0x4b9e99c6), (0x418f0cb0, 0x4c5e6a49), (0x41974cc8, 0x4d1bf3ac),
        (0x419f8ce0, 0x4ddab2ea), (0x41a3398c, 0x4e2d193a), (0x41a7cd00, 0x4e995931),
        (0x41b00d18, 0x4f570c48), (0x41b84d30, 0x5016c940), (0x41c08d50, 0x50d3753f),
        (0x41c8cd68, 0x519444d9), (0x41d10d80, 0x524fecbe), (0x41d94d98, 0x5311caa2),
        (0x41dbe567, 0x53499a82), (0x41e18db8, 0x53cc7427), (0x41e9cdd0, 0x548f5b94),
        (0x41f20de8, 0x5549099c), (0x41fa4e00, 0x560cf65f), (0x42014710, 0x56c5ae74),
        (0x4205671c, 0x578a9bf3), (0x42098728, 0x584260e1), (0x420da738, 0x59084b97),
        (0x4211c744, 0x59bf222e), (0x4215e750, 0x5a860497), (0x421a075c, 0x5b3bf09e),
        (0x421e276c, 0x5c03c7da), (0x421f9037, 0x5c3b7174), (0x42224778, 0x5cb8cd6e),
        (0x42266784, 0x5d81942a), (0x422a8790, 0x5e35b6f2), (0x422ea7a0, 0x5efed4c9),
        (0x4232c7ac, 0x5fb2ae5e), (0x4236e7b8, 0x607a92c2), (0x423b07c8, 0x612fb2c0),
        (0x423f27d4, 0x61f663e7), (0x424347e0, 0x62acc336), (0x424767ec, 0x637245fa),
        (0x424b87fc, 0x6429e0e4), (0x424fa808, 0x64ee3a98), (0x425177ca, 0x653b5958),
        (0x4253c814, 0x65a70a3e), (0x4257e820, 0x666a3f95), (0x425c0830, 0x67244060),
        (0x4260283c, 0x67e6567e), (0x42644848, 0x68a181cc), (0x42686858, 0x69627e1e),
        (0x426c8864, 0x6a1ecf94), (0x4270a870, 0x6adeb54e), (0x4274c87c, 0x6b9c2845),
        (0x4278e88c, 0x6c5afd89), (0x427d0898, 0x6d198cea), (0x42809452, 0x6dd754d0),
        (0x4282a458, 0x6e96fc1c), (0x4284b460, 0x6f53bc92), (0x4286c466, 0x701476dc),
        (0x42871e4e, 0x7030f69e), (0x4288d46c, 0x70d032e0), (0x428ae474, 0x7191fc61),
        (0x428cf47a, 0x724cb91d), (0x428f0480, 0x730f8bee), (0x42911486, 0x73c94d6b),
        (0x4293248e, 0x748d2677), (0x42953494, 0x7545f121), (0x4297449a, 0x760acab4),
        (0x429954a0, 0x76c2a271), (0x429b64a8, 0x7788798f), (0x429d74ae, 0x783f62a6),
        (0x429f84b4, 0x790631cb), (0x42a194bc, 0x79bc30be), (0x42a3a4c2, 0x7a83f44c),
        (0x42a5b4c8, 0x7b390bc3), (0x42a7c4ce, 0x7c01bfde), (0x42a9d4d6, 0x7cb5f4f2),
        (0x42abe4dc, 0x7d7f2abd), (0x42adf4e2, 0x7e32eaa2), (0x42b004e8, 0x7efae746),
        (0x42b170a4, 0x7f7f4648), (0x42b17213, 0x7f7ffd84), (0x42b175c3, 0x7f800000),
        (0x42b214f0, 0x7f800000),
    ];

    #[test]
    fn exp_matches_its_committed_bits() {
        for &(x, want) in &EXP_PINS {
            let x = f32::from_bits(x);
            assert_eq!(exp(x).to_bits(), want, "exp({x:e})");
        }
        let not_correctly_rounded = EXP_PINS
            .iter()
            .filter(|&&(x, want)| f32::from_bits(want) != f64::exp(f32::from_bits(x) as f64) as f32)
            .count();
        assert!(not_correctly_rounded >= 48, "{not_correctly_rounded}");
    }

    #[test]
    fn exp_exact_values() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(-104.0), 0.0);
        assert_eq!(exp(-1000.0), 0.0);
        assert_eq!(exp(88.8), f32::INFINITY);
        assert!(exp(88.72).is_finite());
        // The smallest subnormal is reached, not flushed.
        assert!(exp(-103.0) > 0.0 && exp(-103.0) < f32::MIN_POSITIVE);
    }

    #[test]
    fn erf_known_points() {
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
        assert!((erf(3.0) - 1.0).abs() < 1e-4);
    }

    /// [`gelu`] into a fresh buffer.
    fn gelu_of(x: &Tensor) -> Tensor {
        let mut y = Tensor::zeros(x.rows, x.cols);
        gelu(x, &mut y.data);
        y
    }

    /// [`gelu_backward`] on a copy of `dy`.
    fn gelu_grad_of(x: &Tensor, dy: &Tensor) -> Tensor {
        let mut g = dy.clone();
        gelu_backward(x, &mut g);
        g
    }

    /// [`layernorm`] into fresh buffers.
    fn layernorm_of(x: &Tensor) -> (Tensor, Vec<f32>) {
        let (mut xhat, mut inv_std) = (Tensor::zeros(x.rows, x.cols), vec![0.0; x.rows]);
        layernorm(x, 1e-5, &mut xhat.data, &mut inv_std);
        (xhat, inv_std)
    }

    #[test]
    fn gelu_matches_reference_points() {
        let y = gelu_of(&t(vec![0.0, 1.0, -1.0]));
        assert!(y.data[0].abs() < 1e-6);
        assert!((y.data[1] - 0.8413).abs() < 1e-3);
        assert!((y.data[2] + 0.1587).abs() < 1e-3);
    }

    #[test]
    fn relu_clamps() {
        let mut y = vec![f32::NAN; 3];
        relu(&t(vec![-2.0, 0.0, 3.0]), &mut y);
        assert_eq!(y, vec![0.0, 0.0, 3.0]);
        let mut dx = t(vec![1.0, 1.0, 1.0]);
        relu_backward(&t(vec![-2.0, 0.0, 3.0]), &mut dx);
        assert_eq!(dx.data, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let x = Tensor::from_vec(2, 4, vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        let (y, _) = layernorm_of(&x);
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 4.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gelu_gradient_finite_difference() {
        let x = t(vec![-1.5, -0.3, 0.0, 0.4, 2.0]);
        let dy = t(vec![1.0; 5]);
        let analytic = gelu_grad_of(&x, &dy);
        let eps = 1e-3f32;
        for i in 0..5 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.data[i] += eps;
            xm.data[i] -= eps;
            let fd = (gelu_of(&xp).data[i] - gelu_of(&xm).data[i]) / (2.0 * eps);
            assert!((fd - analytic.data[i]).abs() < 1e-2, "i={i} fd={fd} an={}", analytic.data[i]);
        }
    }

    /// Pseudo-random values in `[-8, 8)` with the edge inputs mixed in, so
    /// they land in vector bodies and remainders alike.
    fn gelu_inputs(len: usize, seed: u32) -> Vec<f32> {
        const EDGES: [f32; 9] =
            [0.0, -0.0, 10.0, -10.0, 1e20, -1e20, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut state = seed;
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                if i % 5 == 0 {
                    EDGES[(i / 5) % EDGES.len()]
                } else {
                    (state >> 8) as f32 / (1 << 20) as f32 - 8.0
                }
            })
            .collect()
    }

    /// Equal bits, except that any two NaNs match: Rust fixes no NaN payload.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "{what}: element {i}: {g:e} vs {w:e}");
        }
    }

    type Tier = fn(Pass, &[f32], &mut [f32]);

    #[test]
    fn every_gelu_tier_matches_the_scalar_definition_bitwise() {
        let mut tiers: Vec<(&str, Tier)> = vec![("portable", pass_portable)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 was detected on this CPU just above.
                tiers.push(("avx2", |p, x, out| unsafe { pass_avx2(p, x, out) }));
            }
            if std::is_x86_feature_detected!("avx512f") {
                // SAFETY: avx512f was detected on this CPU just above.
                tiers.push(("avx512f", |p, x, out| unsafe { pass_avx512(p, x, out) }));
            }
        }
        // Every remainder of the 4/8/16-lane bodies, and a `train_gemm` stage.
        for len in [0, 1, 7, 15, 16, 17, 33, 5120] {
            let x = gelu_inputs(len, 0x9E37_79B9 ^ len as u32);
            let dy = gelu_inputs(len, 0x85EB_CA6B ^ len as u32);
            // One element at a time, kept out of any vector loop.
            let scalar = |f: fn(f32) -> f32| -> Vec<f32> {
                x.iter().map(|&v| f(std::hint::black_box(v))).collect()
            };
            let want_fwd = scalar(gelu_one);
            let want_bwd: Vec<f32> =
                dy.iter().zip(scalar(gelu_grad_one)).map(|(&g, d)| g * d).collect();
            for &(name, tier) in &tiers {
                let mut fwd = vec![0.0; len];
                tier(Pass::Gelu, &x, &mut fwd);
                assert_same_bits(&fwd, &want_fwd, &format!("gelu, {name} tier, len {len}"));
                let mut bwd = dy.clone();
                tier(Pass::GeluBackward, &x, &mut bwd);
                assert_same_bits(
                    &bwd,
                    &want_bwd,
                    &format!("gelu_backward, {name} tier, len {len}"),
                );
            }
        }
    }

    /// FNV-1a over the output bits of both passes on 5120 inputs (NaNs
    /// made canonical). It pins GELU's numerics as a whole: an `erf` or
    /// pdf that stops calling [`exp`] moves it, though it would slip past
    /// a pin of a few points and past the tier test, whose reference moves
    /// with it.
    #[test]
    fn gelu_bits_match_their_committed_digest() {
        let x = t(gelu_inputs(5120, 1));
        let dy = t(gelu_inputs(5120, 2));
        let (fwd, bwd) = (gelu_of(&x), gelu_grad_of(&x, &dy));
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for v in fwd.data.iter().chain(&bwd.data) {
            let bits = if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() };
            digest = (digest ^ u64::from(bits)).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(digest, 0x245c_5f4d_2fda_c58c, "{digest:#018x}");
    }

    #[test]
    #[should_panic(expected = "gelu_backward shape mismatch")]
    fn gelu_backward_rejects_mismatched_shapes() {
        // A shorter `x` used to leave the tail of `dy` unscaled.
        gelu_backward(&Tensor::zeros(1, 3), &mut Tensor::zeros(1, 4));
    }

    #[test]
    #[should_panic(expected = "relu_backward shape mismatch")]
    fn relu_backward_rejects_mismatched_shapes() {
        relu_backward(&Tensor::zeros(2, 2), &mut Tensor::zeros(1, 4));
    }

    #[test]
    fn layernorm_gradient_finite_difference() {
        let x = Tensor::from_vec(1, 4, vec![0.5, -1.0, 2.0, 0.1]);
        let dy = Tensor::from_vec(1, 4, vec![0.3, -0.2, 0.5, 1.0]);
        let (xhat, inv_std) = layernorm_of(&x);
        let mut analytic = dy.clone();
        layernorm_backward(&xhat, &inv_std, &mut analytic);
        let eps = 1e-3f32;
        // Scalar objective: sum(dy * layernorm(x)).
        let obj = |xx: &Tensor| -> f32 {
            let (y, _) = layernorm_of(xx);
            y.data.iter().zip(&dy.data).map(|(a, b)| a * b).sum()
        };
        for i in 0..4 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.data[i] += eps;
            xm.data[i] -= eps;
            let fd = (obj(&xp) - obj(&xm)) / (2.0 * eps);
            assert!((fd - analytic.data[i]).abs() < 5e-3, "i={i} fd={fd} an={}", analytic.data[i]);
        }
    }
}
